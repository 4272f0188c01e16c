// AVX-512 register tiles. Compiled with -mavx512f -mavx512vl -mavx512dq
// -mavx2 -mfma -ffp-contract=fast (per-file CMake options); the runtime
// probe requires the same three AVX-512 subsets the compiler may emit.
//
// double 8x24: 8 rows x 3 zmm = 24 accumulators plus 3 B vectors — 27 of
// the 32 zmm, so the compiler never spills. Each k-step is 3 B loads, 8
// vbroadcastsd loads of A and 8 rows x 3 FMAs: 24 FMAs per 11 loads keeps
// both FMA ports busy with no shuffle on port 5.
// float 8x48 is the same shape at VL=16.

#include "blas/kernels/microkernel.hpp"

#if defined(ATALIB_KERNELS_AVX512)

#include "blas/kernels/simd_microkernel.hpp"
#include "blas/kernels/simd_tileops.hpp"

namespace atalib::blas::kernels {
namespace {

bool avx512_supported() {
  return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512vl") &&
         __builtin_cpu_supports("avx512dq");
}

}  // namespace

const KernelEntry& avx512_kernel_entry() {
  static const KernelEntry entry{Isa::kAvx512,
                                 &avx512_supported,
                                 Microkernel<float>{8, 48, &simd_microkernel<float, 16, 8, 3>},
                                 Microkernel<double>{8, 24, &simd_microkernel<double, 8, 8, 3>},
                                 simd_tileops<float, 16>(),
                                 simd_tileops<double, 8>()};
  return entry;
}

}  // namespace atalib::blas::kernels

#endif  // ATALIB_KERNELS_AVX512
