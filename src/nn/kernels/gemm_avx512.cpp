// AVX-512 register-blocked GEMM micro-kernel.
//
// Same arithmetic contract as the scalar reference and the AVX2 kernel
// (gemm.hpp) — lanes are independent output columns, each accumulator's
// k-loop is one sequential ascending-l chain of vfmadd steps, FP contraction
// off — so the output is bit-identical.  A fused step is one instruction with
// a 4-cycle latency, so the register block is 8 x 16: 16 independent
// accumulator chains keep the FMA pipes busy (4 x 16 measured 20-25 %
// slower on the 512-wide phase-MLP and backward shapes; on the n = 16
// amplitude layers the two were within noise, so one block height serves
// all).  Partial final panels use native masked loads/stores instead of the
// AVX2 mask table.

#include "nn/kernels/gemm_micro.hpp"

#if defined(NNQS_ENABLE_AVX2) && defined(__AVX512F__)

#include <immintrin.h>

namespace nnqs::nn::kernels::detail {

namespace {

constexpr Index kNr = 16;  // panel width: two zmm of output columns

/// MR x 16 register block: C rows i..i+MR, columns j0..j0+w (w <= 16 lanes
/// selected by the two masks; zero-masked lanes load as 0, accumulate +-0
/// terms from the panel's zero padding, and are never stored).
template <int MR>
void micro(const GemmArgs& g, Index i, Index l0, Index lc, const Real* bp,
           Index j0, __mmask8 m0, __mmask8 m1) {
  Real* crow[MR];
  __m512d acc[MR][2];
  for (int r = 0; r < MR; ++r) {
    crow[r] = g.c + (i + r) * g.ldc + j0;
    acc[r][0] = _mm512_maskz_loadu_pd(m0, crow[r]);
    acc[r][1] = _mm512_maskz_loadu_pd(m1, crow[r] + 8);
  }
  for (Index l = 0; l < lc; ++l) {
    const __m512d b0 = _mm512_loadu_pd(bp + l * kNr);
    const __m512d b1 = _mm512_loadu_pd(bp + l * kNr + 8);
    for (int r = 0; r < MR; ++r) {
      const __m512d ar = _mm512_set1_pd(gemmA(g, i + r, l0 + l));
      acc[r][0] = _mm512_fmadd_pd(ar, b0, acc[r][0]);
      acc[r][1] = _mm512_fmadd_pd(ar, b1, acc[r][1]);
    }
  }
  for (int r = 0; r < MR; ++r) {
    _mm512_mask_storeu_pd(crow[r], m0, acc[r][0]);
    _mm512_mask_storeu_pd(crow[r] + 8, m1, acc[r][1]);
  }
}

void avx512Panel(const GemmArgs& g, Index i0, Index mc, Index l0, Index lc,
                 const Real* bp, Index j0, Index w) {
  const __mmask8 m0 = w >= 8 ? __mmask8{0xFF}
                             : static_cast<__mmask8>((1u << w) - 1);
  const __mmask8 m1 = w >= 16 ? __mmask8{0xFF}
                              : static_cast<__mmask8>((1u << (w - 8 > 0 ? w - 8 : 0)) - 1);
  Index i = i0;
  const Index iEnd = i0 + mc;
  for (; i + 8 <= iEnd; i += 8) micro<8>(g, i, l0, lc, bp, j0, m0, m1);
  switch (iEnd - i) {
    case 7: micro<7>(g, i, l0, lc, bp, j0, m0, m1); break;
    case 6: micro<6>(g, i, l0, lc, bp, j0, m0, m1); break;
    case 5: micro<5>(g, i, l0, lc, bp, j0, m0, m1); break;
    case 4: micro<4>(g, i, l0, lc, bp, j0, m0, m1); break;
    case 3: micro<3>(g, i, l0, lc, bp, j0, m0, m1); break;
    case 2: micro<2>(g, i, l0, lc, bp, j0, m0, m1); break;
    case 1: micro<1>(g, i, l0, lc, bp, j0, m0, m1); break;
    default: break;
  }
}

constexpr GemmMicro kAvx512Micro{kNr, &avx512Panel};

}  // namespace

const GemmMicro* avx512GemmMicro() {
  static const bool ok = __builtin_cpu_supports("avx512f") != 0;
  return ok ? &kAvx512Micro : nullptr;
}

}  // namespace nnqs::nn::kernels::detail

#else  // compile-time fallback: non-x86 targets, old compiler, or AVX2 off

namespace nnqs::nn::kernels::detail {

const GemmMicro* avx512GemmMicro() { return nullptr; }

}  // namespace nnqs::nn::kernels::detail

#endif
