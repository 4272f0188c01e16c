#pragma once
// Everything the benchmark feeds the library is generated here from the
// --seed argument alone: the Gaussian matrices of every workload and the
// serve_mixed arrival schedule. The library sees only the generated data.
// Gaussian, never integer, inputs: integers make every product exact and
// would hide rounding error from the output check.

#include <cstdint>
#include <vector>

#include "matrix/matrix.hpp"

namespace perfbench {

using atalib::index_t;

/// SplitMix64-seeded xorshift-multiply generator with Box-Muller normals.
/// Self-contained so the inputs do not change when the library's own
/// generators do.
class Rng {
 public:
  /// Independent stream `stream` of seed `seed`.
  Rng(std::uint64_t seed, std::uint64_t stream);
  std::uint64_t next();
  double uniform();  ///< [0, 1)
  double gaussian();

 private:
  std::uint64_t s_[2];
  double spare_ = 0;
  bool has_spare_ = false;
};

/// rows x cols i.i.d. standard normal entries.
template <typename T>
atalib::Matrix<T> gaussian_matrix(index_t rows, index_t cols, std::uint64_t seed,
                                  std::uint64_t stream);

// ---- serve_mixed traffic ---------------------------------------------------

/// The eight request shapes: n in {32, 64, 128, 256}, each in the update
/// regime (m = 4) and the gram regime (m = 8n). Shape s has n = 32 << (s/2)
/// and is a gram shape when s is odd.
inline constexpr int kServeShapes = 8;
inline index_t serve_n(int shape) { return index_t{32} << (shape / 2); }
inline index_t serve_m(int shape) { return shape % 2 ? 8 * serve_n(shape) : 4; }
/// Input matrices generated per (shape, dtype); requests pick one.
inline constexpr int kServeVariants = 2;

/// One scheduled arrival: a submit() of one request, or a submit_batch()
/// of 1, 16 or 64 requests of one seeded shape and scalar type, as the
/// repository's own batch callers send them (one shape per batch).
struct Arrival {
  double due_s = 0;  ///< offset from the phase start
  bool batch = false;
  bool f32 = false;
  std::uint8_t shape = 0;             ///< of every request of the arrival
  std::vector<std::uint8_t> variant;  ///< input matrix, per request
  bool operator==(const Arrival&) const = default;
};

/// Mean requests per arrival of the mix make_schedule draws from:
/// submit 40%, batch of 1 20%, batch of 16 25%, batch of 64 15%. These
/// shares are an assumption of this benchmark, not measured traffic.
inline constexpr double kRequestsPerArrival = 0.4 + 0.2 + 0.25 * 16 + 0.15 * 64;

/// Poisson arrivals at `rps` requests per second over `seconds`, for rate
/// phase `phase` of seed `seed`, conditioned on the expected count of each
/// arrival kind and scalar type.
std::vector<Arrival> make_schedule(std::uint64_t seed, int phase, double rps, double seconds);

}  // namespace perfbench
