// Tests for the in-process message-passing runtime.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "mpisim/communicator.hpp"
#include "runtime/thread_pool.hpp"

namespace atalib::mpisim {
namespace {

TEST(Communicator, PingPongDeliversPayload) {
  Communicator comm(2);
  comm.run([](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      const double data[3] = {1.5, 2.5, 3.5};
      ctx.send(1, 7, data, 3);
      auto back = ctx.recv<double>(1, 8);
      EXPECT_EQ(back.size(), 3u);
      EXPECT_DOUBLE_EQ(back[2], 7.0);
    } else {
      auto msg = ctx.recv<double>(0, 7);
      EXPECT_DOUBLE_EQ(msg[0], 1.5);
      for (auto& v : msg) v *= 2;
      ctx.send(0, 8, msg.data(), msg.size());
    }
  });
}

TEST(Communicator, TypeMismatchedRecvThrowsAndCountsNothing) {
  // Three floats received as doubles must not come back as one
  // reinterpreted double counted as one word.
  Communicator comm(2);
  EXPECT_THROW(comm.run([](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      const float data[3] = {1.0f, 2.0f, 3.0f};
      ctx.send(1, 5, data, 3);
    } else {
      (void)ctx.recv<double>(0, 5);
    }
  }),
               std::logic_error);
  const TrafficSnapshot t = comm.traffic();
  EXPECT_EQ(t.words_sent[0], 3u);
  EXPECT_EQ(t.messages_received[1], 0u);
  EXPECT_EQ(t.words_received[1], 0u);
}

TEST(Communicator, ReceiverGetsTheSendersBuffer) {
  // One copy per message: the sender's serialization is the payload the
  // receiver holds.
  Communicator comm(2);
  const double* sent = nullptr;
  const double* received = nullptr;
  comm.run([&](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      Payload<double> p(64);
      std::iota(p.begin(), p.end(), 0.0);
      sent = p.data();
      ctx.send(1, 0, std::move(p));
      EXPECT_TRUE(p.empty());
    } else {
      const Payload<double> p = ctx.recv<double>(0, 0);
      received = p.data();
      EXPECT_EQ(p[63], 63.0);
    }
  });
  EXPECT_EQ(sent, received);
}

TEST(BufferPool, RecyclesAndHoldsAtMostTheLargestRun) {
  // One message per run, doubling in size: no run can reuse an earlier,
  // too small buffer. The pool may hold only the largest run's bytes, so
  // after the largest run only its buffer is left and a repeat of the
  // smallest run misses.
  auto one_message = [](std::size_t n) {
    Communicator comm(2);
    comm.run([n](RankCtx& ctx) {
      if (ctx.rank() == 0) {
        Payload<double> p(n);
        std::fill(p.begin(), p.end(), 1.0);
        ctx.send(1, 0, std::move(p));
      } else {
        EXPECT_EQ(ctx.recv<double>(0, 0).size(), n);
      }
    });
  };
  constexpr std::size_t kLargest = std::size_t{1} << 20;
  for (std::size_t n = kLargest / 8; n <= kLargest; n *= 2) one_message(n);
  const std::uint64_t allocs = buffer_allocs();
  one_message(kLargest);
  one_message(kLargest / 2 + 1);  // best fit may hand out up to twice the request
  EXPECT_EQ(buffer_allocs(), allocs);
  one_message(kLargest / 8);
  EXPECT_EQ(buffer_allocs(), allocs + 1);
}

TEST(Communicator, TagMatchingIsSelective) {
  // Messages sent out of tag order must still be matched correctly.
  Communicator comm(2);
  comm.run([](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      const int a = 111, b = 222;
      ctx.send_value(1, /*tag=*/2, b);
      ctx.send_value(1, /*tag=*/1, a);
    } else {
      EXPECT_EQ(ctx.recv_value<int>(0, 1), 111);
      EXPECT_EQ(ctx.recv_value<int>(0, 2), 222);
    }
  });
}

TEST(Communicator, FifoWithinSameSourceAndTag) {
  Communicator comm(2);
  comm.run([](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      for (int i = 0; i < 10; ++i) ctx.send_value(1, 4, i);
    } else {
      for (int i = 0; i < 10; ++i) EXPECT_EQ(ctx.recv_value<int>(0, 4), i);
    }
  });
}

TEST(Communicator, ManyRanksAllToRoot) {
  const int p = 16;
  Communicator comm(p);
  comm.run([p](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      long long sum = 0;
      for (int src = 1; src < p; ++src) sum += ctx.recv_value<long long>(src, 1);
      EXPECT_EQ(sum, (p - 1) * p / 2);
    } else {
      ctx.send_value<long long>(0, 1, ctx.rank());
    }
  });
}

TEST(Communicator, TrafficCountsMessagesAndWords) {
  Communicator comm(3);
  comm.run([](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      std::vector<double> payload(100, 1.0);
      ctx.send(1, 1, payload.data(), payload.size());
      ctx.send(2, 1, payload.data(), 50);
    } else {
      ctx.recv<double>(0, 1);
    }
  });
  const auto t = comm.traffic();
  EXPECT_EQ(t.messages_sent[0], 2u);
  EXPECT_EQ(t.words_sent[0], 150u);
  EXPECT_EQ(t.messages_received[1], 1u);
  EXPECT_EQ(t.words_received[1], 100u);
  EXPECT_EQ(t.words_received[2], 50u);
  EXPECT_EQ(t.total_messages(), 2u);
  EXPECT_EQ(t.total_words(), 150u);
  EXPECT_EQ(t.root_messages(), 2u);
}

TEST(Communicator, SelfSendIsAProtocolError) {
  Communicator comm(1);
  EXPECT_THROW(comm.run([](RankCtx& ctx) {
    const int v = 1;
    ctx.send_value(0, 0, v);
  }),
               std::logic_error);
}

TEST(Communicator, ExceptionsPropagateToCaller) {
  Communicator comm(2);
  EXPECT_THROW(comm.run([](RankCtx& ctx) {
    if (ctx.rank() == 1) throw std::runtime_error("rank failure");
    // rank 0 does nothing and exits
  }),
               std::runtime_error);
}

TEST(Communicator, RankFailureUnblocksPeersAndPropagatesOriginalError) {
  // Rank 1 dies before sending what everyone else is waiting on: the
  // abort protocol must poison the mailboxes (no hang) and rethrow the
  // *original* failure, not the secondary AbortedError the peers see.
  const int p = 6;
  Communicator comm(p);
  try {
    comm.run([](RankCtx& ctx) {
      if (ctx.rank() == 1) throw std::invalid_argument("rank 1 failed");
      if (ctx.rank() != 1) ctx.recv<int>(1, 7);  // would block forever without abort
    });
    FAIL() << "run() should have thrown";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "rank 1 failed");
  }
}

TEST(Communicator, RankFailureUnblocksPeersUnderRunOn) {
  const int p = 4;
  runtime::ThreadPool pool(p);
  Communicator comm(p);
  try {
    comm.run_on(pool, [](RankCtx& ctx, runtime::TaskContext&) {
      if (ctx.rank() == 2) throw std::invalid_argument("rank 2 failed");
      ctx.recv<int>(2, 3);
    });
    FAIL() << "run_on() should have thrown";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "rank 2 failed");
  }
}

TEST(Communicator, StressManyRanksInterleavedTagMatching) {
  // The dist workload shape: every rank sends to every other rank several
  // tagged messages, deliberately posted in an order different from the
  // receive order, with receive order also scrambled per (source, tag).
  // Buffered sends make this deadlock-free by construction; the test
  // asserts full delivery, correct matching, and exact traffic counts.
  const int p = 24;
  const int per_pair = 3;
  Communicator comm(p);
  comm.run([p](RankCtx& ctx) {
    const int me = ctx.rank();
    // Send phase: to each destination, post tags in descending order and
    // payloads encoding (source, tag) so matching errors are observable.
    for (int d = 1; d < p; ++d) {
      const int dest = (me + d) % p;
      for (int tag = per_pair - 1; tag >= 0; --tag) {
        // tag also sets the length, so a mismatched pop would fail loudly.
        std::vector<int> payload(static_cast<std::size_t>(tag + 1), me * 100 + tag);
        ctx.send(dest, tag, payload.data(), payload.size());
      }
    }
    // Receive phase: iterate sources in a rank-dependent rotation and tags
    // ascending — interleaved against every sender's descending posts.
    for (int d = 1; d < p; ++d) {
      const int src = (me + p - d) % p;
      for (int tag = 0; tag < per_pair; ++tag) {
        const auto got = ctx.recv<int>(src, tag);
        ASSERT_EQ(got.size(), static_cast<std::size_t>(tag + 1));
        EXPECT_EQ(got.front(), src * 100 + tag);
      }
    }
  });
  const auto t = comm.traffic();
  const auto expected_msgs = static_cast<std::uint64_t>(p) * (p - 1) * per_pair;
  // Each (source, dest) pair carries 1 + 2 + ... + per_pair words.
  const auto expected_words =
      static_cast<std::uint64_t>(p) * (p - 1) * (per_pair * (per_pair + 1) / 2);
  EXPECT_EQ(t.total_messages(), expected_msgs);
  EXPECT_EQ(t.total_words(), expected_words);
  std::uint64_t received_msgs = 0, received_words = 0;
  for (int r = 0; r < p; ++r) {
    received_msgs += t.messages_received[static_cast<std::size_t>(r)];
    received_words += t.words_received[static_cast<std::size_t>(r)];
  }
  EXPECT_EQ(received_msgs, expected_msgs);  // nothing left undelivered
  EXPECT_EQ(received_words, expected_words);
}

TEST(Communicator, RunOnExecutorMatchesThreadRun) {
  // run_on executes ranks as a ThreadPool batch; the protocol result and
  // traffic must be identical to the thread-per-rank run(), and each rank
  // must get a usable per-slot workspace.
  const int p = 8;
  runtime::ThreadPool pool(p);
  Communicator comm(p);
  comm.run_on(pool, [p](RankCtx& ctx, runtime::TaskContext& tctx) {
    Arena<double>& arena = tctx.arena<double>(64);
    double* slot = arena.allocate(1);
    *slot = ctx.rank();
    if (ctx.rank() == 0) {
      double sum = 0;
      for (int src = 1; src < p; ++src) sum += ctx.recv_value<double>(src, 9);
      EXPECT_DOUBLE_EQ(sum, p * (p - 1) / 2.0);
    } else {
      ctx.send_value<double>(0, 9, *slot);
    }
  });
  EXPECT_EQ(comm.traffic().total_messages(), static_cast<std::uint64_t>(p - 1));
}

TEST(Communicator, RunOnRejectsNarrowExecutor) {
  // Rank bodies block on recv; an executor with fewer slots than ranks
  // would deadlock, so run_on must refuse it up front.
  runtime::ThreadPool pool(2);
  Communicator comm(3);
  EXPECT_THROW(comm.run_on(pool, [](RankCtx&, runtime::TaskContext&) {}), std::logic_error);
}

TEST(Communicator, RunOnRejectsNestedSubmission) {
  // From inside a pool task a nested run() executes inline-serial, which
  // would deadlock a multi-rank protocol — run_on must throw instead.
  runtime::ThreadPool outer(2);
  runtime::ThreadPool wide(4);
  Communicator comm(2);
  EXPECT_THROW(outer.run(2,
                         [&](int t, runtime::TaskContext&) {
                           if (t == 0) {
                             comm.run_on(wide, [](RankCtx&, runtime::TaskContext&) {});
                           }
                         }),
               std::logic_error);
}

TEST(Communicator, LargePayloadIntegrity) {
  Communicator comm(2);
  comm.run([](RankCtx& ctx) {
    const std::size_t n = 1 << 18;
    if (ctx.rank() == 0) {
      std::vector<float> data(n);
      std::iota(data.begin(), data.end(), 0.0f);
      ctx.send(1, 3, data.data(), data.size());
    } else {
      auto data = ctx.recv<float>(0, 3);
      ASSERT_EQ(data.size(), n);
      EXPECT_EQ(data[12345], 12345.0f);
      EXPECT_EQ(data[n - 1], static_cast<float>(n - 1));
    }
  });
}

}  // namespace
}  // namespace atalib::mpisim
