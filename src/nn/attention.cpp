#include "nn/attention.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace nnqs::nn {

CausalSelfAttention::CausalSelfAttention(Index dModel, Index nHeads, Rng& rng,
                                         std::string name)
    : name_(name), d_(dModel), heads_(nHeads), headDim_(dModel / nHeads),
      qkv_(dModel, 3 * dModel, rng, name + ".qkv"),
      proj_(dModel, dModel, rng, name + ".proj") {
  if (dModel % nHeads != 0)
    throw std::invalid_argument("attention: dModel must be divisible by nHeads");
}

namespace {
/// Causal-softmax attention forward: scores -> softmaxNormalize ->
/// unnormalized context * rinv -> normalized weights.  attn [B,H,L,L] is fully written (masked entries zeroed);
/// ctx [B*L, D] must arrive zeroed (the context accumulates).
void attnForwardCore(const Real* qkv, Real* attn, Real* ctx, Index batch,
                     Index L, Index d, Index heads, Index headDim,
                     Real scale) {
#pragma omp parallel for collapse(2) schedule(static) if (batch * heads > 8)
  for (Index b = 0; b < batch; ++b)
    for (Index h = 0; h < heads; ++h) {
      const Index qOff = h * headDim;
      const Index kOff = d + h * headDim;
      const Index vOff = 2 * d + h * headDim;
      Real* aRow = attn + ((b * heads + h) * L) * L;
      for (Index i = 0; i < L; ++i) {
        const Real* qi = qkv + (b * L + i) * 3 * d + qOff;
        Real* ai = aRow + i * L;
        Real mx = -1e300;
        for (Index j = 0; j <= i; ++j) {
          const Real* kj = qkv + (b * L + j) * 3 * d + kOff;
          Real s = 0;
          for (Index t = 0; t < headDim; ++t) s += qi[t] * kj[t];
          ai[j] = s * scale;
          mx = std::max(mx, ai[j]);
        }
        // Softmax + context follow the decode-kernel arithmetic contract
        // (src/nn/kernels/attn_row.hpp): the shared softmaxNormalize plus an
        // unnormalized context scaled once by 1/denom, so full-forward and
        // every decode backend produce bit-identical activations.
        const Real rinv = kernels::softmaxNormalize(ai, i + 1, mx);
        for (Index j = i + 1; j < L; ++j) ai[j] = 0.0;  // causal mask
        // Context = (sum_j e_ij v_j) * rinv.
        Real* ci = ctx + (b * L + i) * d + qOff;
        for (Index j = 0; j <= i; ++j) {
          const Real e = ai[j];
          const Real* vj = qkv + (b * L + j) * 3 * d + vOff;
          for (Index t = 0; t < headDim; ++t) ci[t] += e * vj[t];
        }
        for (Index t = 0; t < headDim; ++t) ci[t] *= rinv;
        // Normalized weights for backward's softmax-gradient cache.
        for (Index j = 0; j <= i; ++j) ai[j] *= rinv;
      }
    }
}

/// Attention backward core.  dQkv must
/// arrive zeroed; dA is per-thread scratch [nThreads * L] (fully rewritten
/// per query row before use).  Writes of each (b,h) pair touch disjoint
/// head-sliced columns, so the parallel accumulation is race-free and the
/// per-element arithmetic order is thread-count independent.
void attnBackwardCore(const Real* qkv, const Real* attn, const Real* dCtx,
                      Real* dQkv, Real* dAScratch, Index batch, Index Lc,
                      Index d, Index heads, Index headDim, Real scale) {
#pragma omp parallel for collapse(2) schedule(static) if (batch * heads > 8)
  for (Index b = 0; b < batch; ++b)
    for (Index h = 0; h < heads; ++h) {
      const Index qOff = h * headDim;
      const Index kOff = d + h * headDim;
      const Index vOff = 2 * d + h * headDim;
      const Real* aRow = attn + ((b * heads + h) * Lc) * Lc;
#ifdef _OPENMP
      Real* dA = dAScratch + static_cast<Index>(omp_get_thread_num()) * Lc;
#else
      Real* dA = dAScratch;
#endif
      for (Index i = 0; i < Lc; ++i) {
        const Real* ai = aRow + i * Lc;
        const Real* dci = dCtx + (b * Lc + i) * d + qOff;
        // dV_j += a_ij dC_i ; dA_ij = dC_i . V_j
        for (Index j = 0; j <= i; ++j) {
          const Real* vj = qkv + (b * Lc + j) * 3 * d + vOff;
          Real* dvj = dQkv + (b * Lc + j) * 3 * d + vOff;
          Real da = 0;
          for (Index t = 0; t < headDim; ++t) {
            dvj[t] += ai[j] * dci[t];
            da += dci[t] * vj[t];
          }
          dA[j] = da;
        }
        // Softmax backward: dS_ij = a_ij (dA_ij - sum_k a_ik dA_ik).
        Real dot = 0;
        for (Index j = 0; j <= i; ++j) dot += ai[j] * dA[j];
        const Real* qi = qkv + (b * Lc + i) * 3 * d + qOff;
        Real* dqi = dQkv + (b * Lc + i) * 3 * d + qOff;
        for (Index j = 0; j <= i; ++j) {
          const Real ds = ai[j] * (dA[j] - dot) * scale;
          if (ds == 0.0) continue;
          const Real* kj = qkv + (b * Lc + j) * 3 * d + kOff;
          Real* dkj = dQkv + (b * Lc + j) * 3 * d + kOff;
          for (Index t = 0; t < headDim; ++t) {
            dqi[t] += ds * kj[t];
            dkj[t] += ds * qi[t];
          }
        }
      }
    }
}
}  // namespace

const Real* CausalSelfAttention::forwardTape(Tape& tape, TapeFrame& f,
                                             const Real* x, Index rows,
                                             Index window) const {
  const Index L = window;
  const Index batch = rows / L;
  const Real scale = 1.0 / std::sqrt(static_cast<Real>(headDim_));

  const Real* qkv = qkv_.forwardTape(tape, f.qkv, x, rows);
  Real* attn = tape.alloc(batch * heads_ * L * L);
  Real* ctx = tape.alloc(rows * d_);
  // The context accumulates, so it starts zeroed.
  std::memset(ctx, 0, static_cast<std::size_t>(rows * d_) * sizeof(Real));
  attnForwardCore(qkv, attn, ctx, batch, L, d_, heads_, headDim_, scale);
  f.qkvOut = qkv;
  f.attn = attn;
  f.batch = batch;
  f.window = L;
  return proj_.forwardTape(tape, f.proj, ctx, rows);
}

void CausalSelfAttention::decodeStep(const Real* x, Index batch,
                                     DecodeState& state, Index layer,
                                     Real* out) const {
  const Index pos = state.len;
  const Index maxLen = state.maxLen;
  const Real scale = 1.0 / std::sqrt(static_cast<Real>(headDim_));

  // [B, 3D]: q | k | v per row, on the GEMM backend of the state's policy,
  // carved from the decode workspace (no per-step tensor churn).
  Real* qkv = state.ws.alloc(batch * 3 * d_);
  qkv_.forwardInto(x, batch, qkv, state.kernel);
  // Append this position's keys/values to the arena: K position-transposed
  // ([D][maxLen] per slot), V position-major ([maxLen][D] per slot) — the
  // layouts the kernel backends stream contiguously (decode_state.hpp).
  Real* kBase = state.kSlot(layer, 0);
  Real* vBase = state.vSlot(layer, 0);
  for (Index b = 0; b < batch; ++b) {
    const Real* row = qkv + b * 3 * d_;
    const Index slot = state.rowSlot[static_cast<std::size_t>(b)];
    Real* kDst = kBase + slot * maxLen * d_ + pos;
    Real* vDst = vBase + (slot * maxLen + pos) * d_;
    for (Index t = 0; t < d_; ++t) {
      kDst[t * maxLen] = row[d_ + t];
      vDst[t] = row[2 * d_ + t];
    }
  }

  // The attention kernel accumulates into ctx, so the carved span starts
  // zeroed.
  Real* ctx = state.ws.alloc(batch * d_);
  std::memset(ctx, 0, static_cast<std::size_t>(batch * d_) * sizeof(Real));
  kernels::DecodeAttnArgs args;
  args.batch = batch;
  args.heads = heads_;
  args.headDim = headDim_;
  args.dModel = d_;
  args.pos = pos;
  args.maxLen = maxLen;
  args.q = qkv;  // q is the first D of each fused row
  args.qStride = 3 * d_;
  args.k = kBase;
  args.v = vBase;
  args.slots = state.rowSlot.data();
  args.ctx = ctx;
  args.scale = scale;
  kernels::decodeAttention(args, state.kernel);

  proj_.forwardInto(ctx, batch, out, state.kernel);
}

Real* CausalSelfAttention::backwardTape(Tape& tape, const TapeFrame& f,
                                        const Real* dy) {
  if (f.batch < 0) throw StaleTapeError(name_, stale::kUnrecordedFrame);
  const Index batch = f.batch;
  const Index Lc = f.window;
  const Index rows = batch * Lc;
  const Real scale = 1.0 / std::sqrt(static_cast<Real>(headDim_));

  Real* dCtx = proj_.backwardTape(tape, f.proj, dy);
  Real* dQkv = tape.alloc(rows * 3 * d_);
  std::memset(dQkv, 0, static_cast<std::size_t>(rows * 3 * d_) * sizeof(Real));
#ifdef _OPENMP
  const Index nThreads = omp_get_max_threads();
#else
  const Index nThreads = 1;
#endif
  // Per-thread dA scratch from the tape keeps the warm tile allocation-free.
  Real* dA = tape.alloc(nThreads * Lc);
  attnBackwardCore(f.qkvOut, f.attn, dCtx, dQkv, dA, batch, Lc, d_, heads_,
                   headDim_, scale);
  return qkv_.backwardTape(tape, f.qkv, dQkv);
}

void CausalSelfAttention::collectParameters(std::vector<Parameter*>& out) {
  qkv_.collectParameters(out);
  proj_.collectParameters(out);
}

}  // namespace nnqs::nn
