#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/kernels/elementwise.hpp"
#include "nn/kernels/gemm.hpp"
#include "nn/tape.hpp"
#include "nn/tensor.hpp"

namespace nnqs::nn {

/// Base class of all layers.  Convention: `forward(x, mode)` computes the
/// output; under GradMode::kRecordTape the module stores whatever it needs so
/// that a single subsequent `backward(dy)` can return dx and accumulate
/// parameter gradients.  (The VMC driver runs exactly one recording forward +
/// one backward per iteration; sampling uses kInference calls.)
///
/// Only this Tensor-level forward/backward pair reads or writes the
/// module-resident backward cache.  A kInference forward on it invalidates
/// any previously recorded activations: `backward` must consume the
/// immediately preceding recording forward, and a backward after an
/// inference forward throws StaleTapeError (naming the module and the
/// invalidating event) instead of silently computing gradients against stale
/// inputs.  Every other path leaves the cache alone: the raw-buffer
/// inference entry points (`forwardInto` and the transformer's `decodeStep`)
/// are `const` and never write the module, so any number of threads may run
/// them concurrently on one network, and the tape-recording `forwardTape`
/// paths keep their activations on a caller-owned Tape, consumed by
/// `backwardTape`.
class Module {
 public:
  virtual ~Module() = default;
  virtual Tensor forward(const Tensor& x, GradMode mode) = 0;
  virtual Tensor backward(const Tensor& dy) = 0;
  virtual void collectParameters(std::vector<Parameter*>& out) = 0;
};

/// Y = X W^T + b with W[out,in].  Forward and both backward GEMMs (dX = dY W,
/// dW += dY^T X) run on the register-blocked kernels::gemm backend; every
/// KernelPolicy is bit-identical to the naive loops this replaced.
class Linear : public Module {
 public:
  Linear(Index in, Index out, Rng& rng, std::string name);
  Tensor forward(const Tensor& x, GradMode mode) override;
  /// Policy-selecting forward for the decode path (DecodeState::kernel); the
  /// Module override uses kAuto.
  Tensor forward(const Tensor& x, GradMode mode, kernels::KernelPolicy policy);
  /// Raw-buffer inference for the zero-allocation decode path: y [rows, out]
  /// is caller storage (workspace-carved), fully overwritten.  Read-only:
  /// leaves the backward cache intact.
  void forwardInto(const Real* x, Index rows, Real* y,
                   kernels::KernelPolicy policy) const;
  Tensor backward(const Tensor& dy) override;
  void collectParameters(std::vector<Parameter*>& out) override;

  /// Tile-recompute record: y [rows, out_] is carved from `tape`; the input
  /// span (which must stay live until backwardTape — tape-resident upstream
  /// outputs qualify) is recorded zero-copy in `f`.  Arithmetic is the exact
  /// Tensor-forward GEMM, so replayed tiles are bit-identical.
  struct TapeFrame {
    const Real* x = nullptr;
    Index rows = 0;
  };
  const Real* forwardTape(Tape& tape, TapeFrame& f, const Real* x, Index rows,
                          kernels::KernelPolicy policy = kernels::KernelPolicy::kAuto) const;
  /// dx [rows, in_] carved from `tape`; dW/db accumulate with the same
  /// kernels and fold order as backward(), so ascending-tile calls reproduce
  /// the monolithic gradient bits.
  Real* backwardTape(Tape& tape, const TapeFrame& f, const Real* dy,
                     kernels::KernelPolicy policy = kernels::KernelPolicy::kAuto);

  Parameter w, b;

 private:
  std::string name_;
  Index in_, out_;
  Tensor cachedX_;
  bool hasCache_ = false;
  const char* staleReason_ = stale::kNeverRecorded;
};

/// LayerNorm over the last dimension, on the kernels::residualLayerNorm /
/// kernels::layerNormBackward backends (elementwise.hpp; the decode path
/// calls the same kernels directly with its residual fused in, so full-
/// forward and decode activations stay bit-identical).
class LayerNorm : public Module {
 public:
  LayerNorm(Index dim, std::string name);
  Tensor forward(const Tensor& x, GradMode mode) override;
  Tensor backward(const Tensor& dy) override;
  void collectParameters(std::vector<Parameter*>& out) override;

  /// Tile-recompute record: y, xhat [rows, dim_] and invStd [rows] are carved
  /// from `tape` (xhat/invStd are the backward caches the Tensor path keeps
  /// module-resident).
  struct TapeFrame {
    const Real* xhat = nullptr;
    const Real* invStd = nullptr;
    Index rows = 0;
  };
  const Real* forwardTape(Tape& tape, TapeFrame& f, const Real* x, Index rows) const;
  /// dgamma/dbeta accumulate in the kernel's ascending-row serial fold, so
  /// ascending-tile calls match the monolithic fold bit for bit.
  Real* backwardTape(Tape& tape, const TapeFrame& f, const Real* dy);

  Parameter gamma, beta;

 private:
  std::string name_;
  Index dim_;
  Tensor cachedXhat_;
  std::vector<Real> cachedInvStd_;
  bool hasCache_ = false;
  const char* staleReason_ = stale::kNeverRecorded;
};

/// GELU (tanh approximation), elementwise, on the kernels::gelu backends
/// (vectorized branch-free tanh; elementwise.hpp).
class Gelu : public Module {
 public:
  explicit Gelu(std::string name = "gelu") : name_(std::move(name)) {}
  Tensor forward(const Tensor& x, GradMode mode) override;
  Tensor backward(const Tensor& dy) override;
  void collectParameters(std::vector<Parameter*>&) override {}

  /// Tile-recompute record: y [n] carved from `tape`; the input span is
  /// recorded zero-copy (it must stay tape-live until backwardTape).
  struct TapeFrame {
    const Real* x = nullptr;
    Index n = 0;
  };
  const Real* forwardTape(Tape& tape, TapeFrame& f, const Real* x, Index n) const;
  Real* backwardTape(Tape& tape, const TapeFrame& f, const Real* dy);

 private:
  std::string name_;
  Tensor cachedX_;
  bool hasCache_ = false;
  const char* staleReason_ = stale::kNeverRecorded;
};

/// Tanh, elementwise (phase network).
class TanhAct : public Module {
 public:
  explicit TanhAct(std::string name = "tanh") : name_(std::move(name)) {}
  Tensor forward(const Tensor& x, GradMode mode) override;
  Tensor backward(const Tensor& dy) override;
  void collectParameters(std::vector<Parameter*>&) override {}

  /// Tile-recompute record: y [n] carved from `tape` doubles as the backward
  /// cache (tanh' = 1 - y²).
  struct TapeFrame {
    const Real* y = nullptr;
    Index n = 0;
  };
  const Real* forwardTape(Tape& tape, TapeFrame& f, const Real* x, Index n) const;
  Real* backwardTape(Tape& tape, const TapeFrame& f, const Real* dy);

 private:
  std::string name_;
  Tensor cachedY_;
  bool hasCache_ = false;
  const char* staleReason_ = stale::kNeverRecorded;
};

/// Token + learned positional embedding: tokens[R] (R = B*L) -> [R, d].
class Embedding {
 public:
  Embedding(Index vocab, Index maxLen, Index dim, Rng& rng, std::string name);
  Tensor forward(const std::vector<int>& tokens, Index seqLen, GradMode mode);
  void backward(const Tensor& dy);
  void collectParameters(std::vector<Parameter*>& out);

  /// Single-step decode: embed tokens[B], all at sequence position `pos`,
  /// into caller storage y [B, dim] (fully overwritten).
  void stepInto(const std::vector<int>& tokens, Index pos, Real* y) const;

  /// Tile-recompute embed: y [rows, dim_] carved from `tape`.  No frame — the
  /// caller (TransformerAR::TapeFrame) owns the tile's token span and passes
  /// it back to backwardTape.  Rows must cover whole samples (rows % seqLen
  /// == 0) so position indices match the monolithic forward.
  const Real* forwardTape(Tape& tape, const int* tokens, Index rows,
                          Index seqLen) const;
  /// Ascending-row += into token/position grads — the monolithic loop split
  /// at tile boundaries, so ascending-tile calls are bit-identical.
  void backwardTape(const int* tokens, Index rows, Index seqLen,
                    const Real* dy);

  Parameter token, position;

 private:
  std::string name_;
  Index dim_;
  std::vector<int> cachedTokens_;
  Index cachedSeqLen_ = 0;
  // Distinguishes "no cached forward" from a legitimately cached empty batch
  // (cachedTokens_ is empty in both; only the first must make backward throw).
  bool hasCache_ = false;
  const char* staleReason_ = stale::kNeverRecorded;
};

}  // namespace nnqs::nn
