// The benchmark's own tests: the seed is the only input (same seed, same
// matrices and schedule; another seed, other ones), and the output check
// rejects a corrupted result. Exits nonzero on the first failure.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <limits>

#include "blas/syrk.hpp"
#include "common.hpp"
#include "inputs.hpp"
#include "parallel/ata_shared.hpp"

namespace {

int failures = 0;

void expect(bool cond, const char* what) {
  std::printf("%s  %s\n", cond ? "ok  " : "FAIL", what);
  if (!cond) ++failures;
}

template <typename T>
bool same_bits(const atalib::Matrix<T>& x, const atalib::Matrix<T>& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(), sizeof(T) * static_cast<std::size_t>(x.size())) == 0;
}

/// A corrupted copy of a correct result must fail the check; the correct
/// one must pass.
template <typename T>
void check_corruption(atalib::index_t m, atalib::index_t n, const char* label) {
  using namespace perfbench;
  const auto a = gaussian_matrix<T>(m, n, 7, 1);
  const auto ref = reference_gram<T>(a.view());
  auto c = atalib::Matrix<T>::zeros(n, n);
  atalib::SharedOptions opts;
  opts.threads = 2;
  atalib::ata_shared(T(1), a.view(), c.view(), opts);
  double err = 0;
  const bool clean = check_result<T>(c.view(), ref.view(), m, &err);
  std::printf("      %s: clean relative error %.3g, bound %.3g\n", label, err, error_bound<T>(m));
  expect(clean, "an uncorrupted result passes the check");

  const atalib::index_t i = n - 1, j = n / 3;
  const T diag = c(i, i);
  c(i, i) = T(0);  // one dropped diagonal entry
  expect(!check_result<T>(c.view(), ref.view(), m), "a result with one zeroed entry fails");
  c(i, i) = diag;
  c(i, j) = std::numeric_limits<T>::quiet_NaN();
  expect(!check_result<T>(c.view(), ref.view(), m), "a result with a NaN entry fails");
}

}  // namespace

int main() {
  using namespace perfbench;

  const auto a1 = gaussian_matrix<double>(300, 70, 42, 1);
  const auto a2 = gaussian_matrix<double>(300, 70, 42, 1);
  const auto a3 = gaussian_matrix<double>(300, 70, 43, 1);
  const auto a4 = gaussian_matrix<double>(300, 70, 42, 2);
  expect(same_bits(a1, a2), "same seed gives identical matrices");
  expect(!same_bits(a1, a3), "another seed gives another matrix");
  expect(!same_bits(a1, a4), "another stream gives another matrix");
  double mean = 0, var = 0;
  for (atalib::index_t i = 0; i < a1.size(); ++i) mean += a1.data()[i];
  mean /= static_cast<double>(a1.size());
  for (atalib::index_t i = 0; i < a1.size(); ++i) {
    var += (a1.data()[i] - mean) * (a1.data()[i] - mean);
  }
  var /= static_cast<double>(a1.size());
  bool integral = true;
  for (atalib::index_t i = 0; i < a1.size() && integral; ++i) {
    integral = a1.data()[i] == std::floor(a1.data()[i]);
  }
  expect(std::abs(mean) < 0.05 && std::abs(var - 1) < 0.05 && !integral,
         "inputs are real-valued standard normal");

  const auto s1 = make_schedule(42, 1, 2000, 2.0);
  const auto s2 = make_schedule(42, 1, 2000, 2.0);
  const auto s3 = make_schedule(43, 1, 2000, 2.0);
  expect(!s1.empty() && s1 == s2, "same seed gives an identical arrival schedule");
  expect(s1 != s3, "another seed gives another arrival schedule");
  std::size_t requests = 0;
  bool batched[kServeShapes] = {};
  for (const auto& a : s1) {
    requests += a.variant.size();
    if (a.variant.size() > 1) batched[a.shape] = true;
  }
  const double rate = static_cast<double>(requests) / 2.0;
  expect(rate > 1500 && rate < 2500, "the schedule offers about the requested rate");
  expect(std::all_of(std::begin(batched), std::end(batched), [](bool b) { return b; }),
         "batches of 16 and 64 come in every shape");

  check_corruption<double>(1024, 1024, "f64");
  check_corruption<float>(1024, 1024, "f32");
  check_corruption<float>(2048, 256, "f32");

  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}
