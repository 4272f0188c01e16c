#pragma once
// Measured auto-tuning of the Strassen base-case cut-off (DESIGN.md §6).
//
// RecurseOptions::base_case_elements == 0 means "auto". The Tuner resolves
// it with a measurement: on first use it times the registry gemm against one
// Strassen level across a small square-size ladder, interleaving the two, and
// crossover_from_timings() turns the timings into a cut-off. A crossover n*
// needs one Strassen level to beat gemm by kCrossoverMargin at n* AND at the
// next ladder size; it becomes the footprint threshold 2*n*^2 - 1 (the
// largest base budget that still makes an n* x n* x n* product recurse). No
// confirmed crossover means Strassen never earned its recursion here, so the
// cut-off is kNeverRecurse and kStrassen plans run plain leaves. The result
// is memoized per (active ISA, dtype) for the process lifetime — a lock-free
// atomic read once resolved, so an "auto" cut-off costs nothing per call —
// and persisted to an optional cache file so later processes skip the
// measurement.
//
// The measurement runs with explicit non-zero cut-offs, so it can never
// re-enter the tuner, and it happens at plan-build / first-call time in the
// caller's thread — never inside a pool worker's warm path.

#include <array>
#include <atomic>
#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <utility>

#include "blas/kernels/microkernel.hpp"
#include "common/thread_annotations.hpp"
#include "matrix/view.hpp"
#include "strassen/options.hpp"

namespace atalib::strassen {

/// Fraction of the gemm time one Strassen level must save, at two
/// consecutive ladder sizes, before the tuner lets the recursion in.
inline constexpr double kCrossoverMargin = 0.05;

/// The tuner's decision as a pure function of its measurements: `ladder`
/// holds ascending square sizes, `t_gemm[i]` / `t_strassen[i]` the times of
/// plain gemm and one Strassen level at ladder[i]. Returns 2*n*^2 - 1 for
/// the smallest n* = ladder[i] where Strassen is at least kCrossoverMargin
/// faster at ladder[i] and ladder[i + 1], else kNeverRecurse.
index_t crossover_from_timings(std::span<const index_t> ladder, std::span<const double> t_gemm,
                               std::span<const double> t_strassen);

class Tuner {
 public:
  /// Tuner persisting to `cache_path` ("" = in-memory only). Tests use this
  /// to seed a temp file and check determinism.
  explicit Tuner(std::string cache_path) : cache_path_(std::move(cache_path)) {}

  /// Base-case threshold (elements) for scalars of `elem_bytes` bytes on the
  /// currently dispatched ISA. Order of resolution: process memo -> cache
  /// file -> ladder measurement (which then populates both); kNeverRecurse
  /// when the measurement confirms no crossover. Under
  /// ATALIB_FORCE_SCALAR_KERNELS it is the static cache-probe default
  /// instead (that CI leg must not depend on machine-speed measurements,
  /// and keeps exercising the recursion).
  index_t base_case_elements(std::size_t elem_bytes);

  /// Tall-skinny crossover ratio for the shape-aware planner (DESIGN.md
  /// §8): the smallest m/n at which the blocked panel-SYRK engine beats
  /// the Strassen recursion on this (ISA, dtype). Same resolution order
  /// and cache file as base_case_elements (lines "<isa> <f32|f64>-ts
  /// <ratio>"); a win needs the same confirmed margin as the base-case
  /// crossover, and no win keeps the planner on the recursion (2^20) —
  /// also, without timing, when the base-case cut-off makes every ladder
  /// shape one plain syrk_ln leaf, so both engines run the same call. The
  /// static default of 8 applies under ATALIB_FORCE_SCALAR_KERNELS. Plans
  /// built with SharedOptions::tall_skinny_ratio == 0 route through this
  /// and store the resolved ratio in their cache key.
  index_t tall_skinny_ratio(std::size_t elem_bytes);

  /// Process-wide tuner; cache path read once from ATALIB_TUNING_CACHE.
  static Tuner& global();

 private:
  enum class Quantity : std::size_t { kBaseCase = 0, kTallSkinny = 1 };
  static constexpr std::size_t kSlots = blas::kernels::kIsaCount * 2 * 2;
  static std::size_t slot(blas::kernels::Isa isa, std::size_t elem_bytes, Quantity q);

  /// Slow path of an unresolved slot: cache file, else `measure` (then
  /// stored to the file), published to memo_[slot].
  index_t resolve(std::size_t slot, const std::string& key,
                  const std::function<index_t()>& measure);
  index_t load_cached(const std::string& key) const ATALIB_REQUIRES(mu_);
  void store(const std::string& key, index_t value) const ATALIB_REQUIRES(mu_);

  /// Serializes resolution: the cache file is read and rewritten under it,
  /// and concurrent measurements must not interleave their writes.
  mutable Mutex mu_;
  std::string cache_path_;  ///< immutable after construction
  /// Resolved value per (ISA, dtype, quantity); 0 = not yet resolved.
  /// Written once, under mu_; read without it.
  std::array<std::atomic<index_t>, kSlots> memo_{};
};

}  // namespace atalib::strassen
