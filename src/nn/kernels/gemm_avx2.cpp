// AVX2 register-blocked GEMM micro-kernel.
//
// Built with -mavx2 -mfma -ffp-contract=off; nothing here executes unless the
// cpuid probe in avx2GemmMicro() reports both AVX2 and FMA support
// (NNQS_ENABLE_AVX2 off compiles this file to just the nullptr fallback).
//
// Bit-identity with the naive reference (contract in gemm.hpp): the 8 lanes
// of a panel row are 8 *independent* output columns; each accumulator lane
// starts from its C element (init or earlier-strip partial) and folds in
// broadcast(A[i,l]) * B[l,j] with one vfmadd per step, in the same
// ascending-l order as the scalar std::fma loop.  The MR x 8 register block
// exists purely to reuse each broadcast and each packed B row across
// independent outputs — it reorders nothing within any one output's chain.
// Zero-padded panel lanes accumulate garbage-free +-0 terms and are never
// stored.

#include "nn/kernels/gemm_micro.hpp"

#if defined(NNQS_ENABLE_AVX2) && defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cstdint>

namespace nnqs::nn::kernels::detail {

namespace {

constexpr Index kNr = 8;  // panel width: two ymm of output columns

/// maskload/maskstore mask covering the first `lanes` (0..4) of a ymm.
alignas(32) constexpr std::int64_t kTailBits[8] = {-1, -1, -1, -1, 0, 0, 0, 0};
inline __m256i tailMask(Index lanes) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(kTailBits + (4 - lanes)));
}

/// MR x 8 register block: C rows i..i+MR, columns j0..j0+w.  Edge instantiates
/// the masked loads/stores of a partial final panel (w < 8).
template <int MR, bool Edge>
void micro(const GemmArgs& g, Index i, Index l0, Index lc, const Real* bp,
           Index j0, Index w) {
  Real* crow[MR];
  __m256d acc[MR][2];
  __m256i m0{}, m1{};
  if constexpr (Edge) {
    m0 = tailMask(std::min<Index>(w, 4));
    m1 = tailMask(w > 4 ? w - 4 : 0);
  }
  for (int r = 0; r < MR; ++r) {
    crow[r] = g.c + (i + r) * g.ldc + j0;
    if constexpr (Edge) {
      acc[r][0] = _mm256_maskload_pd(crow[r], m0);
      acc[r][1] = _mm256_maskload_pd(crow[r] + 4, m1);
    } else {
      acc[r][0] = _mm256_loadu_pd(crow[r]);
      acc[r][1] = _mm256_loadu_pd(crow[r] + 4);
    }
  }
  for (Index l = 0; l < lc; ++l) {
    const __m256d b0 = _mm256_loadu_pd(bp + l * kNr);
    const __m256d b1 = _mm256_loadu_pd(bp + l * kNr + 4);
    for (int r = 0; r < MR; ++r) {
      const __m256d ar = _mm256_set1_pd(gemmA(g, i + r, l0 + l));
      acc[r][0] = _mm256_fmadd_pd(ar, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_pd(ar, b1, acc[r][1]);
    }
  }
  for (int r = 0; r < MR; ++r) {
    if constexpr (Edge) {
      _mm256_maskstore_pd(crow[r], m0, acc[r][0]);
      _mm256_maskstore_pd(crow[r] + 4, m1, acc[r][1]);
    } else {
      _mm256_storeu_pd(crow[r], acc[r][0]);
      _mm256_storeu_pd(crow[r] + 4, acc[r][1]);
    }
  }
}

template <bool Edge>
void panelRows(const GemmArgs& g, Index i0, Index mc, Index l0, Index lc,
               const Real* bp, Index j0, Index w) {
  Index i = i0;
  const Index iEnd = i0 + mc;
  for (; i + 4 <= iEnd; i += 4) micro<4, Edge>(g, i, l0, lc, bp, j0, w);
  switch (iEnd - i) {
    case 3: micro<3, Edge>(g, i, l0, lc, bp, j0, w); break;
    case 2: micro<2, Edge>(g, i, l0, lc, bp, j0, w); break;
    case 1: micro<1, Edge>(g, i, l0, lc, bp, j0, w); break;
    default: break;
  }
}

void avx2Panel(const GemmArgs& g, Index i0, Index mc, Index l0, Index lc,
               const Real* bp, Index j0, Index w) {
  if (w == kNr)
    panelRows<false>(g, i0, mc, l0, lc, bp, j0, w);
  else
    panelRows<true>(g, i0, mc, l0, lc, bp, j0, w);
}

constexpr GemmMicro kAvx2Micro{kNr, &avx2Panel};

}  // namespace

const GemmMicro* avx2GemmMicro() {
  static const bool ok = __builtin_cpu_supports("avx2") != 0 &&
                         __builtin_cpu_supports("fma") != 0;
  return ok ? &kAvx2Micro : nullptr;
}

}  // namespace nnqs::nn::kernels::detail

#else  // compile-time fallback: non-x86 targets or -DNNQS_ENABLE_AVX2=OFF

namespace nnqs::nn::kernels::detail {

const GemmMicro* avx2GemmMicro() { return nullptr; }

}  // namespace nnqs::nn::kernels::detail

#endif
