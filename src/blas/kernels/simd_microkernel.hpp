#pragma once
// Generic SIMD microkernel over GCC/Clang vector extensions.
//
// Included ONLY by the per-ISA kernel translation units: the same template
// compiled under -mavx2, -mavx512f, or aarch64 NEON yields the matching
// machine code, so one source serves every tier. VL is the vector length in
// elements, MR the tile rows, NV the vectors per row (NR = VL * NV).
//
// The k-loop keeps MR*NV vector accumulators live and per step does NV
// loads of B plus MR broadcasts of A. Each broadcast is written as the
// scalar-to-vector expression `x - V{}` (x - 0 is exact for every x, so the
// compiler folds the subtraction away): that form lowers to a broadcast
// *from memory* — a vbroadcastsd/ss load on AVX-512 and AVX2, ld1r on
// NEON — which runs on the load ports. A lane-by-lane splat instead
// compiles to a shuffle chain (vpermpd) on port 5, one of the two FMA
// ports, and caps the tile well below FMA peak. With -mfma / -ffp-contract=fast the multiply-add
// contracts to FMA. Loads/stores go through memcpy so packed panels and C
// rows need no alignment and no aliasing blessing.
//
// The accumulators stay in registers: every loop over the tile is fully
// unrolled up front (#pragma GCC unroll), so the accumulator array is only
// ever indexed by constants and scalar replacement takes it out of memory.
// Full tiles never touch the stack; a partial (mr < MR or nr < NR) edge
// tile writes its whole vectors from registers too and spills only the
// vector that straddles nr.

#include "matrix/view.hpp"

namespace atalib::blas::kernels {

/// NU is the number of vectors per row this instantiation computes: the
/// registered kernel (NU = NV) hands a tile whose valid width nr fits in
/// fewer vectors to the NU - 1 instantiation, so a narrow edge panel skips
/// the all-padding vectors of its (still NR-wide, zero-padded) B panel
/// instead of multiplying them.
template <typename T, int VL, int MR, int NV, int NU = NV>
void simd_microkernel(index_t kc, T alpha, const T* ap, const T* bp, T* c, index_t ldc,
                      index_t mr, index_t nr) {
  if constexpr (NU > 1) {
    if (nr <= (NU - 1) * VL) {
      return simd_microkernel<T, VL, MR, NV, NU - 1>(kc, alpha, ap, bp, c, ldc, mr, nr);
    }
  }
  constexpr int NR = VL * NV;
  typedef T V __attribute__((vector_size(VL * sizeof(T))));
  const auto load = [](const T* p) {
    V v;
    __builtin_memcpy(&v, p, sizeof(V));
    return v;
  };
  const auto store = [](T* p, V v) { __builtin_memcpy(p, &v, sizeof(V)); };

  V acc[MR][NU];
#pragma GCC unroll 16
  for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 16
    for (int j = 0; j < NU; ++j) acc[r][j] = V{};
  }
  const T* a = ap;
  const T* b = bp;
  for (index_t k = 0; k < kc; ++k, a += MR, b += NR) {
    V bv[NU];
#pragma GCC unroll 16
    for (int j = 0; j < NU; ++j) bv[j] = load(b + j * VL);
#pragma GCC unroll 16
    for (int r = 0; r < MR; ++r) {
      const V av = a[r] - V{};  // broadcast from memory (see header comment)
#pragma GCC unroll 16
      for (int j = 0; j < NU; ++j) acc[r][j] += av * bv[j];
    }
  }

  // Write-back: whole vectors go straight from registers; on an edge tile
  // (mr < MR or nr < NR) only the one vector that straddles nr spills to a
  // stack row and folds back lane by lane.
  const V va = alpha - V{};
#pragma GCC unroll 16
  for (int r = 0; r < MR; ++r) {
    if (r >= mr) break;
    T* crow = c + r * ldc;
#pragma GCC unroll 16
    for (int j = 0; j < NU; ++j) {
      const index_t valid = nr - j * VL;
      if (valid >= VL) {
        store(crow + j * VL, load(crow + j * VL) + va * acc[r][j]);
      } else if (valid > 0) {
        T lanes[VL];
        store(lanes, acc[r][j]);
        for (index_t l = 0; l < valid; ++l) crow[j * VL + l] += alpha * lanes[l];
      }
    }
  }
}

}  // namespace atalib::blas::kernels
