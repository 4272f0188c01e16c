#pragma once
// Readable names for the value-parameterized suites: a failure prints
// `ShapeSweep/SyrkShapes.MatchesReferenceExactlyOnIntegers/m300_n17`
// instead of the parameter's raw bytes.

#include <gtest/gtest.h>

#include <string>

namespace atalib::test {

/// "m<m>_n<n>" for shapes with m and n fields, plus "_k<k>" when the shape
/// has a k field.
struct ShapeName {
  template <typename S>
  std::string operator()(const ::testing::TestParamInfo<S>& info) const {
    const S& s = info.param;
    std::string name = "m" + std::to_string(s.m) + "_n" + std::to_string(s.n);
    if constexpr (requires { s.k; }) name += "_k" + std::to_string(s.k);
    return name;
  }
};

/// "<prefix><value>" for integer sweeps (process and thread counts).
inline auto int_name(std::string prefix) {
  return [prefix](const ::testing::TestParamInfo<int>& info) {
    return prefix + std::to_string(info.param);
  };
}

}  // namespace atalib::test
