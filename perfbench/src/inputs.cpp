#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr double kTwoPi = 6.283185307179586476925286766559;

}  // namespace

Rng::Rng(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t x = seed ^ (0xa0761d6478bd642fULL * (stream + 1));
  s_[0] = splitmix64(x);
  s_[1] = splitmix64(x);
}

std::uint64_t Rng::next() {
  // xoroshiro128+
  const std::uint64_t s0 = s_[0];
  std::uint64_t s1 = s_[1];
  const std::uint64_t result = s0 + s1;
  s1 ^= s0;
  s_[0] = ((s0 << 24) | (s0 >> 40)) ^ s1 ^ (s1 << 16);
  s_[1] = (s1 << 37) | (s1 >> 27);
  return result;
}

double Rng::uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

double Rng::gaussian() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  const double u1 = 1.0 - uniform();  // (0, 1]: log stays finite
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  spare_ = r * std::sin(kTwoPi * u2);
  has_spare_ = true;
  return r * std::cos(kTwoPi * u2);
}

template <typename T>
atalib::Matrix<T> gaussian_matrix(index_t rows, index_t cols, std::uint64_t seed,
                                  std::uint64_t stream) {
  Rng rng(seed, stream);
  atalib::Matrix<T> m(rows, cols);
  T* p = m.data();
  for (index_t i = 0; i < rows * cols; ++i) p[i] = static_cast<T>(rng.gaussian());
  return m;
}

template atalib::Matrix<float> gaussian_matrix<float>(index_t, index_t, std::uint64_t,
                                                      std::uint64_t);
template atalib::Matrix<double> gaussian_matrix<double>(index_t, index_t, std::uint64_t,
                                                        std::uint64_t);

std::vector<Arrival> make_schedule(std::uint64_t seed, int phase, double rps, double seconds) {
  Rng rng(seed, 0x5ced0000ULL + static_cast<std::uint64_t>(phase));
  const auto shuffle = [&rng](auto& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.next() % i]);
  };
  // A Poisson process conditioned on its count: exactly the expected number
  // of arrivals of each kind, and within a kind the (shape, scalar type)
  // pairs in turn, at sorted uniform times in seeded order. The offered
  // work is then the same for every seed, and the seed decides when and in
  // which order it arrives.
  const auto total = static_cast<std::size_t>(std::llround(rps * seconds / kRequestsPerArrival));
  const std::size_t kinds[] = {static_cast<std::size_t>(std::llround(0.4 * total)),
                               static_cast<std::size_t>(std::llround(0.2 * total)),
                               static_cast<std::size_t>(std::llround(0.25 * total))};
  const int sizes[] = {1, 1, 16, 64};
  std::vector<Arrival> out;
  for (int kind = 0; kind < 4; ++kind) {
    const std::size_t count =
        kind < 3 ? kinds[kind] : total - std::min(total, kinds[0] + kinds[1] + kinds[2]);
    for (std::size_t j = 0; j < count; ++j) {
      Arrival a;
      a.batch = kind > 0;
      a.f32 = j % 2 == 1;
      a.shape = static_cast<std::uint8_t>(j / 2 % kServeShapes);
      for (int i = 0; i < sizes[kind]; ++i) {
        a.variant.push_back(static_cast<std::uint8_t>(rng.next() % kServeVariants));
      }
      out.push_back(std::move(a));
    }
  }
  shuffle(out);
  std::vector<double> due(out.size());
  for (double& t : due) t = rng.uniform() * seconds;
  std::sort(due.begin(), due.end());
  for (std::size_t i = 0; i < out.size(); ++i) out[i].due_s = due[i];
  return out;
}

}  // namespace perfbench
