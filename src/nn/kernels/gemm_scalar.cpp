// Scalar GEMM backends: the naive reference loop that defines the arithmetic
// contract (gemm.hpp), and the scalar packed-panel micro-kernel used both as
// the no-SIMD fallback of the blocked driver and as the ground truth for the
// packed loop structure.  Compiled with -ffp-contract=off like every file
// that implements contract arithmetic: the only fused operations are the
// explicit std::fma calls (one rounding each, whether the target issues a
// vfmadd or the libm routine emulates it).

#include <cmath>

#include "nn/kernels/gemm_micro.hpp"

// Without FMA in the target ISA, std::fma is a libm call per step (about 7x
// slower than the mul+add loop it replaced).  On x86-64 the scalar loops are
// therefore cloned for FMA hardware and the clone is picked by the CPU at
// load time; both clones round once per step, so the bits are the same.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define NNQS_FMA_CLONES __attribute__((target_clones("fma", "default")))
#else
#define NNQS_FMA_CLONES
#endif

namespace nnqs::nn::kernels::detail {

NNQS_FMA_CLONES void gemmScalarRef(const GemmArgs& g) {
  // C holds init_ij already (driver); one ascending-l fused chain each.
  for (Index i = 0; i < g.m; ++i) {
    Real* ci = g.c + i * g.ldc;
    for (Index j = 0; j < g.n; ++j) {
      Real s = ci[j];
      for (Index l = 0; l < g.k; ++l)
        s = std::fma(gemmA(g, i, l), gemmB(g, l, j), s);
      ci[j] = s;
    }
  }
}

namespace {

constexpr Index kScalarNr = 8;

NNQS_FMA_CLONES void scalarPanel(const GemmArgs& g, Index i0, Index mc, Index l0,
                                 Index lc, const Real* bp, Index j0, Index w) {
  for (Index i = i0; i < i0 + mc; ++i) {
    Real* ci = g.c + i * g.ldc + j0;
    for (Index jj = 0; jj < w; ++jj) {
      Real s = ci[jj];
      for (Index l = 0; l < lc; ++l)
        s = std::fma(gemmA(g, i, l0 + l), bp[l * kScalarNr + jj], s);
      ci[jj] = s;
    }
  }
}

constexpr GemmMicro kScalarMicro{kScalarNr, &scalarPanel};

}  // namespace

const GemmMicro* scalarGemmMicro() { return &kScalarMicro; }

}  // namespace nnqs::nn::kernels::detail
