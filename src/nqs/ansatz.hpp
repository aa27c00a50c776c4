#pragma once

#include <array>
#include <memory>
#include <vector>

#include "common/bits.hpp"
#include "exec/policy.hpp"
#include "nn/optimizer.hpp"
#include "nn/transformer.hpp"

namespace nnqs::nqs {

/// Which conditional-distribution engine the samplers — and, since the
/// teacher-forced evaluate path, ln|Psi| inference — run on.  Enumerators
/// (kFullForward / kKvCache) live in exec/policy.hpp, the consolidated
/// ExecutionPolicy home; this alias keeps the historical nqs:: spelling.
using DecodePolicy = exec::DecodePolicy;

/// Configuration of the QiankunNet wave-function ansatz (paper Fig. 2 and
/// §4.1 defaults: two decoders, d_model 16, 4 heads, 512-wide phase MLP).
struct QiankunNetConfig {
  int nQubits = 0;
  int nAlpha = 0;  ///< spin-up electrons (number conservation, Eq. 12)
  int nBeta = 0;
  Index dModel = 16;
  Index nHeads = 4;
  Index nDecoders = 2;
  Index phaseHidden = 512;
  Index phaseHiddenLayers = 2;
  std::uint64_t seed = 1234;
};

/// QiankunNet: Psi(x) = |Psi(x)| e^{i phi(x)} with an autoregressive
/// transformer amplitude (two qubits = one spatial orbital per step, sampled
/// in reverse JW qubit order as in the paper) and an MLP phase.
class QiankunNet {
 public:
  explicit QiankunNet(const QiankunNetConfig& cfg);

  [[nodiscard]] const QiankunNetConfig& config() const { return cfg_; }
  [[nodiscard]] int nSteps() const { return cfg_.nQubits / 2; }
  /// Spatial orbital sampled at step s (reverse order).
  [[nodiscard]] int orbitalOfStep(int s) const { return nSteps() - 1 - s; }
  /// Two-bit outcome of sample x at step s: bit0 = up qubit, bit1 = down.
  [[nodiscard]] int tokenOf(Bits128 x, int s) const {
    const int orb = orbitalOfStep(s);
    return (x.get(2 * orb) ? 1 : 0) | (x.get(2 * orb + 1) ? 2 : 0);
  }
  [[nodiscard]] Bits128 applyToken(Bits128 x, int s, int token) const {
    const int orb = orbitalOfStep(s);
    if (token & 1) x.set(2 * orb);
    if (token & 2) x.set(2 * orb + 1);
    return x;
  }

  /// Number-conservation mask (Eq. 12 plus the feasibility lower bound):
  /// outcome t is allowed at step s given the up/down counts used so far.
  [[nodiscard]] std::array<bool, 4> outcomeMask(int s, int nUpUsed, int nDownUsed) const;

  /// Masked, renormalized conditional distributions pi(x_s | prefix) for a
  /// batch of B prefixes of length s (tokens flattened [B, s]); counts are
  /// the per-prefix (up, down) electron counts.  Output [B, 4].
  ///
  /// This is the stateless reference path: it re-runs a full transformer
  /// forward over every prefix (O(s) token work per step), on a scratch
  /// tape in evalTileRows-prefix tiles.  The stateful
  /// beginDecode/stepConditionals pair below computes the same distributions
  /// bit for bit with O(1) token work per step via per-layer KV caches.
  std::vector<Real> conditionals(const std::vector<int>& prefixTokens, int batch,
                                 int s, const std::vector<std::array<int, 2>>& counts) const;

  /// Start a stateful incremental decode over `batch` sampling-tree rows.
  /// `kernel` selects the decode-attention backend (src/nn/kernels/): the
  /// scalar reference, the AVX2/FMA SIMD kernel, or SIMD + OpenMP over
  /// (row, head) tiles — all bit-identical, so any choice samples the same.
  void beginDecode(nn::DecodeState& state, int batch,
                   nn::kernels::KernelPolicy kernel =
                       nn::kernels::KernelPolicy::kAuto) const;

  /// One incremental step of the masked conditionals: writes pi(x_s | prefix)
  /// [B, 4] into `probs` for step s = state.len.  `prevTokens[b]` is row b's
  /// outcome chosen at step s-1 (ignored at s = 0, where BOS is fed); counts
  /// are the per-row (up, down) electron counts over the prefix.  Taking the
  /// output buffer lets the BAS inner loop reuse one vector across the whole
  /// sweep instead of allocating per step.
  void stepConditionals(nn::DecodeState& state,
                        const std::vector<int>& prevTokens,
                        const std::vector<std::array<int, 2>>& counts,
                        std::vector<Real>& probs);
  /// Returning convenience overload.
  std::vector<Real> stepConditionals(nn::DecodeState& state,
                                     const std::vector<int>& prevTokens,
                                     const std::vector<std::array<int, 2>>& counts);

  /// Re-index the decode batch rows after a sampling-tree split/prune: new
  /// row r continues old row rows[r]'s prefix (rows may repeat or drop).
  void gatherDecode(nn::DecodeState& state, const std::vector<Index>& rows) const {
    state.gather(rows);
  }

  /// Select the amplitude-inference and gradient engines of
  /// evaluate()/psi()/evaluateGrad() from an ExecutionPolicy
  /// (exec/policy.hpp): decode/kernel pick the inference engine (the
  /// KV-cached teacher-forced decode sweep by default, or the stateless
  /// full-forward reference — bit-identical, so they only move the wall
  /// clock); evalTileRows bounds the decode KV arena (and the full-forward
  /// reference's scratch tape and the phase-MLP workspace) and gradTileRows
  /// the recompute-gradient tile
  /// (both 0 = engine default, n > 0 = n rows; a negative value throws
  /// std::invalid_argument).
  ///
  /// The inference policy applies to GradMode::kInference evaluations: a
  /// recording evaluate always runs the full forward onto the gradient tape,
  /// because backward() consumes the activations only that path records.
  void setEvalPolicy(const exec::ExecutionPolicy& exec);
  [[nodiscard]] DecodePolicy evalPolicy() const { return evalPolicy_; }

  /// ln|Psi| and phase for a batch of samples.  GradMode::kRecordTape records
  /// the whole batch as one tile on the gradient tape for exactly one
  /// subsequent backward(); GradMode::kInference runs the engine selected by
  /// setEvalPolicy() and never touches the gradient tape, so a pending
  /// recording stays valid across it.  A backward() with no pending
  /// recording throws nn::StaleTapeError naming what consumed or
  /// invalidated it (evaluateGrad, prepareConcurrent, a previous backward).
  void evaluate(const std::vector<Bits128>& samples, std::vector<Real>& logAmp,
                std::vector<Real>& phase, nn::GradMode mode);

  /// Phase-only inference: phi(x) per sample via the phase MLP, skipping the
  /// amplitude network entirely.  The complement of the BAS sweep, which
  /// produces ln|Psi| as a sampling by-product (SampleSet::logAmp) but never
  /// touches the phase MLP.  Leaves a pending recording intact.
  void phases(const std::vector<Bits128>& samples, std::vector<Real>& phase);

  /// ln|Psi| sentinel for samples outside the number-conserving support
  /// (psiValue maps it to amplitude 0).  The fused sweep accumulates with
  /// the exact arithmetic of the evaluate() paths, including this sentinel,
  /// so fused and separate amplitudes are bit-identical.
  static constexpr Real kLogZeroAmp = -1e30;

  /// The single (ln|Psi|, phi) -> psi convention: zero amplitude outside the
  /// number-conserving support, |psi| = sqrt(pi) <= 1 so no overflow.  Every
  /// consumer of evaluate() output (psi(), the VMC Allgather records, the
  /// estimator helpers) goes through this instead of re-deriving it.
  [[nodiscard]] static Complex psiValue(Real logAmp, Real phase);

  /// Complex psi values (convenience; the evaluate() entry point + psiValue).
  std::vector<Complex> psi(const std::vector<Bits128>& samples);

  /// Backprop the VMC loss seeds d/d(ln|Psi|) and d/d(phi) per sample of the
  /// last recording evaluate().  Both seed vectors must hold one entry per
  /// recorded sample (std::invalid_argument otherwise).
  void backward(const std::vector<Real>& dLogAmp, const std::vector<Real>& dPhase);

  /// The recompute-in-tiles training step: forward + backward over `samples`
  /// with the given per-sample loss seeds, accumulating parameter gradients
  /// without ever materializing the full batch's activations.  The batch is
  /// swept in ascending `gradTileRows`-sample tiles (ExecutionPolicy;
  /// 0 = TransformerAR::kEvalTileRows); each tile re-runs the teacher-forced
  /// full forward onto the tape — only that tile's activations exist —
  /// backprops the tile, and releases the tape, bounding peak training
  /// activation memory at O(tile * L * d) independent of the batch size.
  ///
  /// Gradients are **bit-identical** to evaluate(kRecordTape) + backward(),
  /// the single-tile case of the same record/backward tile helpers: forward
  /// activations are per-row batch-composition-independent, every
  /// per-parameter accumulation (GEMM accumulate=true ascending-k fold,
  /// LayerNorm ascending-row fold, embedding/bias ascending-row loops) is a
  /// strictly sequential ascending-row fold that tile boundaries merely
  /// partition, and tiles are swept sequentially in ascending order — the
  /// ordering IS the bit-identity mechanism, so tiles are never parallelized
  /// (threading stays inside the per-tile kernels).  A tile at least as
  /// large as the batch is a single tile.  A warm call (same shapes as the
  /// last) performs zero heap allocations: all per-tile storage lives on
  /// the owned Tape arena.
  ///
  /// Invalidates any recorded evaluate (this call records and consumes its
  /// own activations tile by tile).
  void evaluateGrad(const std::vector<Bits128>& samples,
                    const std::vector<Real>& dLogAmp,
                    const std::vector<Real>& dPhase);

  /// Arena accounting of the gradient tape: highWater is the peak Reals live
  /// in any one tile — the measured "peak training activation memory"
  /// BM_BackwardTiled reports and the README quotes.
  [[nodiscard]] const nn::Workspace::Stats& gradTapeStats() const {
    return gradTape_.stats();
  }

  /// Deterministic named-parameter registry (amplitude network first, then
  /// the phase MLP, each in construction order) — the ordering contract the
  /// binary checkpoint format (io/checkpoint.hpp) relies on for byte-identical
  /// re-saves.
  std::vector<nn::Parameter*> parameters();
  [[nodiscard]] Index parameterCount();

  void flattenGradients(std::vector<Real>& out);
  /// Inverse of flattenGradients; `in` must hold exactly parameterCount()
  /// values (std::invalid_argument otherwise).
  void loadGradients(const std::vector<Real>& in);

  // --- Concurrent inference (the amplitude-serving path, src/serve/) --------

  /// Everything one evaluateInto() call mutates: the decode state (KV arena +
  /// workspace), token/count marshalling scratch, and the phase MLP's
  /// activation workspace.  One slot per worker thread (and one owned by the
  /// net for evaluate() and phases()); all buffers reuse their capacity, so
  /// a warm evaluateInto performs zero heap allocations.
  struct EvalSlot {
    nn::DecodeState state;
    std::vector<int> tokens;
    std::vector<int> up, down;
    nn::Workspace phaseWs;
  };

  /// Drop any recorded evaluate (a later backward() throws StaleTapeError
  /// naming this call).  Concurrent evaluateInto() needs no preparation: it
  /// is const and never writes the network; this remains for callers that
  /// want a net with no pending recording before they hand it out.
  void prepareConcurrent();

  /// ln|Psi| and phase of `samples` using only `slot` for mutable state —
  /// bit-identical to an inference evaluate() under the kKvCache policy with
  /// the same kernel, for any batch composition (per-row arithmetic is
  /// independent of the surrounding batch, the serving layer's coalescing
  /// contract).  Const: any number of threads may call it at once, each with
  /// its own EvalSlot, and a recording evaluate made before stays valid for
  /// its backward().  Only the non-const calls (evaluate, phases, backward,
  /// evaluateGrad, parameter updates) must not overlap it.  `kernel` should
  /// be a non-forking policy (kSimd/kScalar) when called from concurrent
  /// workers; `tileRows` is the evaluate tile (0 =
  /// TransformerAR::kEvalTileRows).
  void evaluateInto(EvalSlot& slot, const std::vector<Bits128>& samples,
                    std::vector<Real>& logAmp, std::vector<Real>& phase,
                    nn::kernels::KernelPolicy kernel =
                        nn::kernels::KernelPolicy::kSimd,
                    Index tileRows = 0) const;

 private:
  /// Tokens of n full samples in network input order: [BOS, t_0 .. t_{L-2}]
  /// per sample.  The single token-marshalling point of full-sample
  /// evaluation — the tape forwards and the teacher-forced decode path all
  /// consume its layout.
  void inputTokens(const Bits128* samples, Index n, std::vector<int>& out) const;

  /// +-1 encoding of n qubit strings into out [n, nQubits], the phase MLP
  /// input.
  void encodeSpins(const Bits128* samples, Index n, Real* out) const;

  /// Full forward of the tb samples at `samples` onto `tape` (frame `frame`,
  /// token scratch `tokens`).  Returns the masked conditionals [tb, L, 4]
  /// (tape-resident, zero past a row's exit from the support) and writes
  /// each sample's ln|Psi| to logAmp[b] when logAmp is non-null.
  const Real* amplitudeTile(nn::Tape& tape, nn::TransformerAR::TapeFrame& frame,
                            std::vector<int>& tokens, const Bits128* samples,
                            Index tb, Real* logAmp) const;

  /// Record one tile of tb samples on gradTape_ (ampFrame_, phaseFrame_):
  /// the amplitude and phase forwards.  Returns the tile's masked
  /// conditionals for backwardTile; logAmp/phase (nullable) receive the
  /// tile's outputs.  The tile loop of evaluateGrad and the single tile of
  /// evaluate(kRecordTape) both record through here.
  const Real* recordTile(const Bits128* samples, Index tb, Real* logAmp,
                         Real* phase);
  /// Backprop the tile recordTile left on gradTape_ with per-sample seeds
  /// dLogAmp[tb], dPhase[tb]; accumulates parameter gradients.
  void backwardTile(const Bits128* samples, Index tb, const Real* probs,
                    const Real* dLogAmp, const Real* dPhase);

  /// ln|Psi| via the teacher-forced incremental-decode sweep
  /// (TransformerAR::evaluateDecode), every mutable buffer drawn from `slot`.
  /// The one amplitude sweep of evaluate() (on evalSlot_) and evaluateInto()
  /// (on the caller's slot).  Bit-identical to the full-forward path; zero
  /// heap allocations once the slot is warm.
  void decodeLogAmp(EvalSlot& slot, const std::vector<Bits128>& samples,
                    std::vector<Real>& logAmp, nn::kernels::KernelPolicy kernel,
                    Index tileRows) const;

  /// Phase-MLP inference on `slot`'s workspace in `tile`-sample tiles
  /// (tile > 0): the phase half of evaluateInto(), and of
  /// evaluate()/phases() on evalSlot_.
  void phaseInto(EvalSlot& slot, const std::vector<Bits128>& samples,
                 std::vector<Real>& phase, nn::kernels::KernelPolicy kernel,
                 Index tile) const;

  /// d ln|Psi| / d logits for one (sample, position): dl[4] must arrive
  /// zeroed; pr[4] are that position's masked conditionals.
  void seedLogitRow(Real seed, Bits128 sample, int s, const Real* pr, Real* dl) const;

  /// Drop any recorded evaluate (a no-op when none), recording `why` for
  /// the StaleTapeError a subsequent backward() raises.
  void invalidateEvaluate(const char* why);

  /// Fold position s's masked log-conditional of `sample` (given its logits
  /// lg[4]) into the running (la, nUp, nDown); pr[4] receives the masked
  /// conditionals.  The single accumulation step of *both* amplitude paths,
  /// so their arithmetic — and the decode-vs-full bit-identity contract —
  /// cannot drift apart.
  void stepLogAmp(const Real* lg, Bits128 sample, int s, int& nUp, int& nDown,
                  Real& la, Real* pr) const;

  QiankunNetConfig cfg_;
  Rng rng_;
  nn::TransformerAR amplitude_;
  nn::PhaseMlp phase_;
  // Inference-engine selection of evaluate()/psi() (setEvalPolicy).
  DecodePolicy evalPolicy_ = DecodePolicy::kKvCache;
  nn::kernels::KernelPolicy evalKernel_ = nn::kernels::KernelPolicy::kAuto;
  // Tile sizes in rows, the defaults already resolved by setEvalPolicy.
  Index evalTileRows_ = nn::TransformerAR::kEvalTileRows;
  Index gradTileRows_ = nn::TransformerAR::kEvalTileRows;
  // Gradient scratch (evaluateGrad, evaluate(kRecordTape) + backward()):
  // the per-tile activation tape, the tile's marshalled tokens, and the
  // caller-owned module frames.  All reuse their capacity, so a warm
  // training step allocates nothing.
  nn::Tape gradTape_;
  std::vector<int> gradTokens_;
  nn::TransformerAR::TapeFrame ampFrame_;
  nn::PhaseMlp::TapeFrame phaseFrame_;
  // Persistent inference scratch of evaluate()/phases(): the decode state,
  // the marshalled input tokens (also the full-forward path's), the per-row
  // running counts and the phase workspace.  All re-use their capacity, so
  // the warm decode-path sweep of any batch size allocates nothing (the
  // contract BM_Evaluate asserts).
  EvalSlot evalSlot_;
  // The pending evaluate(kRecordTape): recordedBatch_ == -1 means none; an
  // empty recorded batch (0) makes backward a no-op so ranks that received
  // no samples still participate in the gradient collectives with zero
  // contributions.  The activations themselves live on gradTape_.
  long recordedBatch_ = -1;
  std::vector<Bits128> recordedSamples_;
  const Real* recordedProbs_ = nullptr;  ///< [B, L, 4] on gradTape_
  const char* staleReason_ = nn::stale::kNeverRecorded;
  std::vector<nn::Parameter*> paramCache_;
};

}  // namespace nnqs::nqs
