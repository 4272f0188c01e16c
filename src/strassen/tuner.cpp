#include "strassen/tuner.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string_view>
#include <vector>

#include "ata/ata.hpp"
#include "blas/gemm.hpp"
#include "blas/kernels/registry.hpp"
#include "blas/panel_syrk.hpp"
#include "common/cacheinfo.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "matrix/matrix.hpp"
#include "strassen/strassen.hpp"
#include "strassen/workspace.hpp"

namespace atalib::strassen {
namespace {

/// Index of the first ladder entry where `t_new` beats `t_old` by
/// kCrossoverMargin both there and at the next entry; t_old.size() if none.
std::size_t first_confirmed_win(std::span<const double> t_old, std::span<const double> t_new) {
  const auto wins = [&](std::size_t i) {
    return t_new[i] <= (1.0 - kCrossoverMargin) * t_old[i];
  };
  for (std::size_t i = 0; i + 1 < t_old.size(); ++i) {
    if (wins(i) && wins(i + 1)) return i;
  }
  return t_old.size();
}

/// Read once: the kernel registry also pins the process at first dispatch.
bool env_forces_scalar() {
  static const bool forced = [] {
    const char* v = std::getenv("ATALIB_FORCE_SCALAR_KERNELS");
    return v != nullptr && *v != '\0' && std::string_view(v) != "0";
  }();
  return forced;
}

const char* dtype_tag(std::size_t elem_bytes) {
  return elem_bytes == sizeof(float) ? "f32" : "f64";
}

/// The tuned values are a property of (ISA, dtype) on this machine, so
/// forced-ISA toggles in tests re-tune rather than reuse a crossover
/// measured on a different tier.
blas::kernels::Isa active_isa(std::size_t elem_bytes) {
  return elem_bytes == sizeof(float) ? blas::kernels::active_config<float>().isa
                                     : blas::kernels::active_config<double>().isa;
}

/// Cache-file key: "<isa> <f32|f64>" plus `suffix` ("-ts" for the
/// tall-skinny ratio).
std::string tuning_key(blas::kernels::Isa isa, std::size_t elem_bytes, const char* suffix) {
  return std::string(blas::kernels::isa_name(isa)) + ' ' + dtype_tag(elem_bytes) + suffix;
}

/// Min-of-3 times of `base` and `cand`, one call each per rep, timed in
/// alternation so a burst of host noise (or the first call's cold caches)
/// lands on both rather than deciding the comparison.
template <typename Base, typename Cand>
std::pair<double, double> interleaved_min_times(Base&& base, Cand&& cand) {
  const auto t = interleaved_samples(3, 0.0, base, cand);
  return {min_of(t[0]), min_of(t[1])};
}

/// Time the registry gemm against exactly one Strassen level across the
/// ladder and return the crossover_from_timings() cut-off. base = n*n makes
/// the top (n, n, n) call recurse (footprint 2n^2) while all seven half-size
/// children fire the base case (footprint ~n^2/2), so the comparison isolates
/// "one level of Strassen + fused adds" against "one registry gemm" — the
/// quantity the cut-off actually trades. The ladder stops early once a
/// crossover is confirmed.
template <typename T>
index_t measure_crossover() {
  constexpr index_t kLadder[] = {96, 128, 160, 192, 256, 320};
  const index_t nmax = std::end(kLadder)[-1];

  Matrix<T> a(nmax, nmax), b(nmax, nmax), c(nmax, nmax);
  Xoshiro256 rng(0x5eed5eedULL);
  for (index_t i = 0; i < nmax * nmax; ++i) {
    a.data()[i] = static_cast<T>(rng.uniform(-1.0, 1.0));
    b.data()[i] = static_cast<T>(rng.uniform(-1.0, 1.0));
    c.data()[i] = T(0);
  }

  std::vector<double> t_gemm, t_strassen;
  for (const index_t n : kLadder) {
    const ConstMatrixView<T> av(a.data(), n, n, nmax);
    const ConstMatrixView<T> bv(b.data(), n, n, nmax);
    MatrixView<T> cv(c.data(), n, n, nmax);

    RecurseOptions one_level;
    one_level.base_case_elements = n * n;  // explicit: never re-enters the tuner
    Arena<T> arena(static_cast<std::size_t>(
        strassen_workspace_bound(n, n, n, one_level, sizeof(T))));
    const auto [tg, ts] = interleaved_min_times(
        [&] { blas::gemm_tn(T(1), av, bv, cv); },
        [&] { strassen_tn(T(1), av, bv, cv, arena, one_level); });
    t_gemm.push_back(tg);
    t_strassen.push_back(ts);
    const index_t cut =
        crossover_from_timings(std::span(kLadder, t_gemm.size()), t_gemm, t_strassen);
    if (cut != kNeverRecurse) return cut;
  }
  return kNeverRecurse;
}

/// Static tall-skinny ratio used when measurement is unavailable: m/n >= 8
/// is deep into the territory where the recursion's n-extent halving has
/// hit min_dim.
constexpr index_t kTsDefault = 8;

/// "The panel engine never won": a ratio no realistic shape reaches, so the
/// planner stays on the recursion.
constexpr index_t kTsNoWin = index_t{1} << 20;

/// Time the Strassen AtA recursion against the blocked panel-SYRK on
/// m = ratio * n inputs (n fixed small, the serving shape) and return the
/// planner's ratio: the smallest ladder ratio where the panel engine wins
/// by the same confirmed margin as the base-case crossover, or kTsNoWin if
/// it never does. `base` is the already-resolved Strassen base-case cut-off,
/// passed in so this measurement can never re-enter the tuner.
template <typename T>
index_t measure_ts_crossover(index_t base) {
  constexpr index_t kN = 64;
  constexpr index_t kRatios[] = {2, 4, 8, 16, 32};
  const index_t mmax = std::end(kRatios)[-1] * kN;

  Matrix<T> a(mmax, kN);
  Matrix<T> c(kN, kN);
  Xoshiro256 rng(0x7a11f1a7ULL);
  for (index_t i = 0; i < mmax * kN; ++i) {
    a.data()[i] = static_cast<T>(rng.uniform(-1.0, 1.0));
  }
  for (index_t i = 0; i < kN * kN; ++i) c.data()[i] = T(0);

  RecurseOptions rec;
  rec.base_case_elements = base;  // explicit: never re-enters the tuner
  // If even the tallest ladder shape fires the AtA base case, both engines
  // run the same single syrk_ln over the whole input (one panel covers it),
  // so no win can be confirmed: timing them would only let noise decide.
  if (ata_base_case(mmax, kN, base, rec.min_dim)) return kTsNoWin;

  std::vector<double> t_strassen, t_panel;
  for (const index_t ratio : kRatios) {
    const index_t m = ratio * kN;
    const ConstMatrixView<T> av(a.data(), m, kN, kN);
    MatrixView<T> cv = c.view();

    Arena<T> arena(static_cast<std::size_t>(
        std::max(ata_workspace_bound(m, kN, rec, sizeof(T)),
                 blas::panel_syrk_workspace_bound<T>(m, kN))));
    const auto [ts, tp] = interleaved_min_times(
        [&] { ata(T(1), av, cv, arena, rec); },
        [&] {
          arena.reset();
          blas::panel_syrk_ln(T(1), av, cv, &arena);
        });
    t_strassen.push_back(ts);
    t_panel.push_back(tp);
    const std::size_t i = first_confirmed_win(t_strassen, t_panel);
    if (i < t_panel.size()) return kRatios[i];
  }
  return kTsNoWin;
}

}  // namespace

index_t crossover_from_timings(std::span<const index_t> ladder, std::span<const double> t_gemm,
                               std::span<const double> t_strassen) {
  const std::size_t i = first_confirmed_win(t_gemm, t_strassen);
  return i < ladder.size() ? 2 * ladder[i] * ladder[i] - 1 : kNeverRecurse;
}

index_t Tuner::load_cached(const std::string& key) const {
  if (cache_path_.empty()) return 0;
  std::ifstream in(cache_path_);
  if (!in) return 0;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string isa, dtype;
    long long value = 0;
    if ((ls >> isa >> dtype >> value) && isa + ' ' + dtype == key && value > 0) {
      return static_cast<index_t>(value);
    }
  }
  return 0;
}

void Tuner::store(const std::string& key, index_t value) const {
  if (cache_path_.empty()) return;
  // Rewrite the file keeping other (isa, dtype) entries; best-effort — a
  // missing or unwritable cache only costs a re-measurement next process.
  std::ostringstream out;
  {
    std::ifstream in(cache_path_);
    std::string line;
    while (in && std::getline(in, line)) {
      std::istringstream ls(line);
      std::string isa, dtype;
      if ((ls >> isa >> dtype) && isa + ' ' + dtype == key) continue;
      if (!line.empty()) out << line << '\n';
    }
  }
  out << key << ' ' << value << '\n';
  std::ofstream f(cache_path_, std::ios::trunc);
  if (f) f << out.str();
}

std::size_t Tuner::slot(blas::kernels::Isa isa, std::size_t elem_bytes, Quantity q) {
  const std::size_t dtype = elem_bytes == sizeof(float) ? 0 : 1;
  return (static_cast<std::size_t>(isa) * 2 + dtype) * 2 + static_cast<std::size_t>(q);
}

index_t Tuner::resolve(std::size_t slot, const std::string& key,
                       const std::function<index_t()>& measure) {
  MutexLock lock(mu_);
  // Another thread may have resolved the slot while this one waited.
  index_t value = memo_[slot].load(std::memory_order_acquire);
  if (value != 0) return value;
  value = load_cached(key);
  if (value == 0) {
    value = measure();
    store(key, value);
  }
  memo_[slot].store(value, std::memory_order_release);
  return value;
}

index_t Tuner::base_case_elements(std::size_t elem_bytes) {
  // The forced-scalar CI leg must behave identically across machines, so it
  // ignores both the cache file and the measurement.
  if (env_forces_scalar()) {
    return static_cast<index_t>(default_base_case_elements(elem_bytes));
  }
  const blas::kernels::Isa isa = active_isa(elem_bytes);
  const std::size_t s = slot(isa, elem_bytes, Quantity::kBaseCase);
  // Hot path: every call with an unresolved "auto" cut-off lands here.
  if (const index_t value = memo_[s].load(std::memory_order_acquire); value != 0) return value;
  return resolve(s, tuning_key(isa, elem_bytes, ""), [elem_bytes] {
    return elem_bytes == sizeof(float) ? measure_crossover<float>() : measure_crossover<double>();
  });
}

index_t Tuner::tall_skinny_ratio(std::size_t elem_bytes) {
  if (env_forces_scalar()) return kTsDefault;
  const blas::kernels::Isa isa = active_isa(elem_bytes);
  const std::size_t s = slot(isa, elem_bytes, Quantity::kTallSkinny);
  if (const index_t value = memo_[s].load(std::memory_order_acquire); value != 0) return value;
  // Resolve the Strassen side's cut-off first (its own lock acquisition, so
  // the measurement below can never re-enter the tuner lock).
  const index_t base = base_case_elements(elem_bytes);
  return resolve(s, tuning_key(isa, elem_bytes, "-ts"), [elem_bytes, base] {
    return elem_bytes == sizeof(float) ? measure_ts_crossover<float>(base)
                                       : measure_ts_crossover<double>(base);
  });
}

Tuner& Tuner::global() {
  static Tuner tuner = [] {
    const char* path = std::getenv("ATALIB_TUNING_CACHE");
    return Tuner(path != nullptr ? std::string(path) : std::string());
  }();
  return tuner;
}

}  // namespace atalib::strassen

namespace atalib {

index_t tuned_base_case_elements(std::size_t elem_bytes) {
  return strassen::Tuner::global().base_case_elements(elem_bytes);
}

index_t tuned_tall_skinny_ratio(std::size_t elem_bytes) {
  return strassen::Tuner::global().tall_skinny_ratio(elem_bytes);
}

}  // namespace atalib
