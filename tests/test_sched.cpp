// Tests for the task-tree schedulers (§4.1): level formulas, exact-P leaf
// counts, disjoint writes (AtA-S), coverage, and tree invariants (AtA-D).

#include <gtest/gtest.h>

#include <set>

#include "sched/dist_tree.hpp"
#include "sched/levels.hpp"
#include "sched/shared_schedule.hpp"
#include "param_names.hpp"

namespace atalib::sched {
namespace {

TEST(Levels, PaperSharedFormulaAnchors) {
  // eq. (6) hand-evaluated anchor points.
  EXPECT_EQ(paper_levels_shared(1), 0);
  EXPECT_EQ(paper_levels_shared(2), 1);
  EXPECT_EQ(paper_levels_shared(3), 1);
  EXPECT_EQ(paper_levels_shared(4), 2);   // P/2 = 2, k=0, 2 mod 4 != 0
  EXPECT_EQ(paper_levels_shared(8), 2);   // P/2 = 4, k=1, 4 mod 4 == 0
  EXPECT_EQ(paper_levels_shared(16), 2);  // P/2 = 8, k=1, 8 mod 4 == 0
  EXPECT_EQ(paper_levels_shared(32), 3);  // P/2 = 16, k=2, 16 mod 16 == 0
}

TEST(Levels, PaperDistFormulaAnchors) {
  // eq. (5) hand-evaluated anchor points.
  EXPECT_EQ(paper_levels_dist(1), 0);
  EXPECT_EQ(paper_levels_dist(2), 1);
  EXPECT_EQ(paper_levels_dist(6), 1);
  EXPECT_EQ(paper_levels_dist(7), 2);   // P/4 = 1, k=0, 1 mod 8 != 0
  EXPECT_EQ(paper_levels_dist(16), 2);  // P/4 = 4, k=0, 4 mod 8 != 0
  EXPECT_EQ(paper_levels_dist(32), 2);  // P/4 = 8, k=1, 8 mod 8 == 0
  EXPECT_EQ(paper_levels_dist(64), 2);  // P/4 = 16, k=1, 16 mod 8 == 0
  EXPECT_EQ(paper_levels_dist(68), 3);  // P/4 = 17, k=1, 17 mod 8 != 0
}

TEST(Levels, StepFunctionCharacter) {
  // The closed forms are step functions that move by at most one level per
  // process added. They are NOT monotone: a ragged partial level counts +1
  // and disappears when the next power completes it (e.g. shared l(15)=3,
  // l(16)=2) — exactly the "sporadic thinnings" the paper describes in §5.4.
  for (int p = 1; p < 256; ++p) {
    EXPECT_LE(std::abs(paper_levels_shared(p + 1) - paper_levels_shared(p)), 1) << p;
    EXPECT_LE(std::abs(paper_levels_dist(p + 1) - paper_levels_dist(p)), 1) << p;
  }
  EXPECT_EQ(paper_levels_shared(15), 3);
  EXPECT_EQ(paper_levels_shared(16), 2);
  EXPECT_GT(paper_levels_shared(256), paper_levels_shared(2));
  EXPECT_GT(paper_levels_dist(256), paper_levels_dist(2));
}

TEST(Levels, WorkFractionShrinksBySteps) {
  EXPECT_DOUBLE_EQ(shared_work_fraction(1), 1.0);
  EXPECT_DOUBLE_EQ(shared_work_fraction(2), 0.25);
  EXPECT_DOUBLE_EQ(shared_work_fraction(16), 1.0 / 16.0);
}

TEST(LeafOp, TargetsAndFlops) {
  Block a{0, 4, 10, 6};
  EXPECT_EQ(syrk_target(a), (Block{4, 4, 6, 6}));
  Block b{0, 0, 10, 4};
  EXPECT_EQ(gemm_target(a, b), (Block{4, 0, 6, 4}));
  LeafOp gemm_op{LeafOp::Kind::kGemm, a, b, gemm_target(a, b)};
  EXPECT_DOUBLE_EQ(gemm_op.flops(), 10.0 * 6 * 4);
  LeafOp syrk_op{LeafOp::Kind::kSyrk, a, Block{}, syrk_target(a)};
  EXPECT_DOUBLE_EQ(syrk_op.flops(), 10.0 * 6 * 7 / 2);
}

TEST(WritesOverlap, RectRectAndTriangleCases) {
  LeafOp g1{LeafOp::Kind::kGemm, {}, {}, Block{0, 0, 4, 4}};
  LeafOp g2{LeafOp::Kind::kGemm, {}, {}, Block{4, 0, 4, 4}};
  LeafOp g3{LeafOp::Kind::kGemm, {}, {}, Block{2, 2, 4, 4}};
  EXPECT_FALSE(writes_overlap(g1, g2));
  EXPECT_TRUE(writes_overlap(g1, g3));
  // Triangle at (4,4)..(8,8): its lower cells never reach the rectangle
  // strictly above the diagonal band.
  LeafOp tri{LeafOp::Kind::kSyrk, {}, {}, Block{4, 4, 4, 4}};
  LeafOp above{LeafOp::Kind::kGemm, {}, {}, Block{4, 5, 1, 3}};  // row 4, cols 5..8
  EXPECT_FALSE(writes_overlap(tri, above));
  LeafOp below{LeafOp::Kind::kGemm, {}, {}, Block{7, 4, 1, 2}};  // row 7, cols 4..6
  EXPECT_TRUE(writes_overlap(tri, below));
}

// ---- AtA-S schedule properties ---------------------------------------

class SharedScheduleP : public ::testing::TestWithParam<int> {};

TEST_P(SharedScheduleP, ExactlyPTasksOnNondegenerateShapes) {
  const int p = GetParam();
  const auto s = build_shared_schedule(256, 192, p);
  EXPECT_EQ(static_cast<int>(s.tasks.size()), p);
  // Thread ids are 0..P-1 without gaps.
  for (int t = 0; t < p; ++t) EXPECT_EQ(s.tasks[static_cast<std::size_t>(t)].thread, t);
}

TEST_P(SharedScheduleP, WritesArePairwiseDisjoint) {
  const int p = GetParam();
  const auto s = build_shared_schedule(200, 144, p);
  std::vector<LeafOp> all;
  for (const auto& t : s.tasks) all.insert(all.end(), t.ops.begin(), t.ops.end());
  for (std::size_t i = 0; i < all.size(); ++i) {
    for (std::size_t j = i + 1; j < all.size(); ++j) {
      EXPECT_FALSE(writes_overlap(all[i], all[j]))
          << all[i].to_string() << " vs " << all[j].to_string();
    }
  }
}

TEST_P(SharedScheduleP, WritesCoverTheFullLowerTriangle) {
  const int p = GetParam();
  const index_t n = 97;
  const auto s = build_shared_schedule(120, n, p);
  std::vector<std::vector<int>> hits(static_cast<std::size_t>(n),
                                     std::vector<int>(static_cast<std::size_t>(n), 0));
  for (const auto& t : s.tasks) {
    for (const auto& op : t.ops) {
      for (index_t i = 0; i < op.c.rows; ++i) {
        for (index_t j = 0; j < op.c.cols; ++j) {
          const index_t gi = op.c.r0 + i, gj = op.c.c0 + j;
          if (op.kind == LeafOp::Kind::kSyrk && j > i) continue;  // lower only
          hits[static_cast<std::size_t>(gi)][static_cast<std::size_t>(gj)]++;
        }
      }
    }
  }
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j <= i; ++j) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)], 1)
          << "cell (" << i << "," << j << ") with P=" << p;
    }
  }
}

TEST_P(SharedScheduleP, LoadIsRoughlyBalanced) {
  const int p = GetParam();
  const auto s = build_shared_schedule(512, 512, p);
  double max_w = 0, min_w = 1e300;
  for (const auto& t : s.tasks) {
    double w = 0;
    for (const auto& op : t.ops) w += op.flops();
    max_w = std::max(max_w, w);
    min_w = std::min(min_w, w);
  }
  // The alpha = 1/2 split aims at equal work; allow generous slack for the
  // triangular-vs-rectangular mix and remainder levels.
  EXPECT_LT(max_w / min_w, 4.0) << "P=" << p;
}

INSTANTIATE_TEST_SUITE_P(PSweep, SharedScheduleP,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 24, 32, 64),
                         test::int_name("p"));

TEST(SharedSchedule, DepthGrowsLikePaperStepFunction) {
  // Our tree depth is within one level of eq. (6) across the sweep (the
  // closed form counts only *complete* levels; remainder tiling adds one).
  for (int p = 1; p <= 64; ++p) {
    const auto s = build_shared_schedule(4096, 4096, p);
    const int paper = paper_levels_shared(p);
    EXPECT_GE(s.depth + 1, paper) << "P=" << p;
    EXPECT_LE(s.depth, paper + 2) << "P=" << p;
  }
}

// ---- AtA-D tree invariants -------------------------------------------

class DistTreeP : public ::testing::TestWithParam<int> {};

TEST_P(DistTreeP, ExactlyPLeavesWithDfsProcs) {
  const int p = GetParam();
  const auto tree = build_dist_tree(256, 200, p);
  EXPECT_EQ(tree.used_procs, p);
  std::set<int> procs;
  for (const auto& node : tree.nodes) {
    if (node.kind == DistNode::Kind::kLeaf) procs.insert(node.proc);
  }
  EXPECT_EQ(static_cast<int>(procs.size()), p);
  EXPECT_EQ(*procs.begin(), 0);
  EXPECT_EQ(*procs.rbegin(), p - 1);
}

TEST_P(DistTreeP, InnerNodesExecuteOnLeftmostLeafProcess) {
  const auto tree = build_dist_tree(128, 128, GetParam());
  for (const auto& node : tree.nodes) {
    if (node.kind == DistNode::Kind::kLeaf) continue;
    const auto& first = tree.nodes[static_cast<std::size_t>(node.children.front())];
    EXPECT_EQ(node.proc, first.proc);
  }
}

TEST_P(DistTreeP, ChildRegionsNestInParentRegions) {
  const auto tree = build_dist_tree(190, 170, GetParam());
  for (const auto& node : tree.nodes) {
    if (node.parent < 0) continue;
    const auto& par = tree.nodes[static_cast<std::size_t>(node.parent)];
    EXPECT_GE(node.c.r0, par.c.r0);
    EXPECT_GE(node.c.c0, par.c.c0);
    EXPECT_LE(node.c.r0 + node.c.rows, par.c.r0 + par.c.rows);
    EXPECT_LE(node.c.c0 + node.c.cols, par.c.c0 + par.c.cols);
  }
}

TEST_P(DistTreeP, NeedsCoverOpsAndNestUpward) {
  const auto tree = build_dist_tree(150, 140, GetParam());
  auto contains = [](const std::vector<Block>& needs, const Block& b) {
    return std::find(needs.begin(), needs.end(), b) != needs.end();
  };
  for (const auto& node : tree.nodes) {
    for (const auto& op : node.ops) {
      EXPECT_TRUE(contains(node.needs, op.a));
      if (op.kind == LeafOp::Kind::kGemm) {
        EXPECT_TRUE(contains(node.needs, op.b));
      }
    }
    if (node.parent >= 0) {
      const auto& par = tree.nodes[static_cast<std::size_t>(node.parent)];
      for (const auto& b : node.needs) EXPECT_TRUE(contains(par.needs, b));
    }
  }
}

TEST_P(DistTreeP, RootIsGemmFirstAsInFigure1) {
  const int p = GetParam();
  const auto tree = build_dist_tree(256, 256, p);
  EXPECT_EQ(tree.node(tree.root).proc, 0);
  if (p >= 2) {
    // Rank 0's leaf must be an A^T B task (paper: "after the first parallel
    // level, p0 works on a A^T B task").
    for (const auto& node : tree.nodes) {
      if (node.kind == DistNode::Kind::kLeaf && node.proc == 0) {
        EXPECT_EQ(node.ops.front().kind, LeafOp::Kind::kGemm);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PSweep, DistTreeP,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 24, 32, 48, 64),
                         test::int_name("p"));

TEST(DistTree, PrePostOrderAreConsistentPermutations) {
  const auto tree = build_dist_tree(100, 100, 16);
  auto pre = tree.preorder();
  auto post = tree.postorder();
  EXPECT_EQ(pre.size(), tree.nodes.size());
  EXPECT_EQ(post.size(), tree.nodes.size());
  EXPECT_EQ(pre.front(), tree.root);
  EXPECT_EQ(post.back(), tree.root);
  std::set<int> s1(pre.begin(), pre.end()), s2(post.begin(), post.end());
  EXPECT_EQ(s1.size(), tree.nodes.size());
  EXPECT_EQ(s2.size(), tree.nodes.size());
}

TEST(DistTree, AlphaShiftsGemmShare) {
  // Larger alpha -> more processes on the C21 gemm side.
  auto gemm_leaves = [](double alpha) {
    const auto tree = build_dist_tree(512, 512, 32, alpha);
    int count = 0;
    for (const auto& node : tree.nodes) {
      if (node.kind != DistNode::Kind::kLeaf) continue;
      if (node.ops.front().kind == LeafOp::Kind::kGemm) ++count;
    }
    return count;
  };
  EXPECT_LT(gemm_leaves(0.25), gemm_leaves(0.75));
}

}  // namespace
}  // namespace atalib::sched
