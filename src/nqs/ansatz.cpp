#include "nqs/ansatz.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace nnqs::nqs {

namespace {
constexpr Real kLogZero = QiankunNet::kLogZeroAmp;

/// Masked softmax over the 4 outcome logits.  Shared by the full-forward and
/// incremental-decode conditional paths so the two agree bit for bit.
void maskedSoftmax4(const Real* lg, const std::array<bool, 4>& mask, Real* out) {
  Real mx = -1e300;
  for (int t = 0; t < 4; ++t)
    if (mask[static_cast<std::size_t>(t)]) mx = std::max(mx, lg[t]);
  Real denom = 0;
  for (int t = 0; t < 4; ++t) {
    const Real p = mask[static_cast<std::size_t>(t)] ? std::exp(lg[t] - mx) : 0.0;
    out[t] = p;
    denom += p;
  }
  for (int t = 0; t < 4; ++t) out[t] /= denom;
}

/// The one place a tile field's 0 becomes the engine default.
Index tileOrDefault(Index rows) {
  return rows > 0 ? rows : nn::TransformerAR::kEvalTileRows;
}

/// The full-forward reference's tile loop: body(tape, frame, t0, tb) runs
/// one tile on a scratch tape (never the net's gradient tape) reset per
/// tile, so a call holds one tile's activations whatever the batch.
template <typename Body>
void scratchTapeTiles(Index batch, Index tile, Body&& body) {
  nn::Tape tape;
  nn::TransformerAR::TapeFrame frame;
  for (Index t0 = 0; t0 < batch; t0 += tile) {
    tape.reset();
    body(tape, frame, t0, std::min(tile, batch - t0));
  }
}
}  // namespace

QiankunNet::QiankunNet(const QiankunNetConfig& cfg)
    : cfg_(cfg), rng_(cfg.seed),
      amplitude_(cfg.nQubits / 2, cfg.dModel, cfg.nHeads, cfg.nDecoders, rng_),
      phase_(cfg.nQubits, cfg.phaseHidden, cfg.phaseHiddenLayers, rng_) {
  if (cfg.nQubits % 2 != 0)
    throw std::invalid_argument("QiankunNet: nQubits must be even (orbital pairs)");
}

std::array<bool, 4> QiankunNet::outcomeMask(int s, int nUp, int nDown) const {
  std::array<bool, 4> mask{};
  const int stepsLeft = nSteps() - s - 1;  // steps after this one
  for (int t = 0; t < 4; ++t) {
    const int u = nUp + (t & 1), d = nDown + ((t >> 1) & 1);
    mask[static_cast<std::size_t>(t)] =
        u <= cfg_.nAlpha && d <= cfg_.nBeta &&
        (cfg_.nAlpha - u) <= stepsLeft && (cfg_.nBeta - d) <= stepsLeft;
  }
  return mask;
}

std::vector<Real> QiankunNet::conditionals(const std::vector<int>& prefixTokens,
                                           int batch, int s,
                                           const std::vector<std::array<int, 2>>& counts) const {
  // Window of length s+1: [BOS, t_0 .. t_{s-1}] per prefix.
  const Index window = s + 1;
  std::vector<int> tokens(static_cast<std::size_t>(batch * window));
  for (int b = 0; b < batch; ++b) {
    tokens[static_cast<std::size_t>(b * window)] = nn::TransformerAR::kBos;
    for (int j = 0; j < s; ++j)
      tokens[static_cast<std::size_t>(b * window + 1 + j)] =
          prefixTokens[static_cast<std::size_t>(b * s + j)];
  }
  // Full forward, one tile of prefixes at a time; take each prefix's last
  // position, mask, softmax.
  std::vector<Real> probs(static_cast<std::size_t>(batch) * 4);
  scratchTapeTiles(batch, evalTileRows_, [&](nn::Tape& tape,
                                             nn::TransformerAR::TapeFrame& frame,
                                             Index t0, Index tb) {
    const Real* logits = amplitude_.forwardTape(
        tape, frame, tokens.data() + t0 * window, tb * window, window);
    for (Index b = 0; b < tb; ++b) {
      const auto& c = counts[static_cast<std::size_t>(t0 + b)];
      maskedSoftmax4(logits + (b * window + s) * 4, outcomeMask(s, c[0], c[1]),
                     probs.data() + (t0 + b) * 4);
    }
  });
  return probs;
}

void QiankunNet::beginDecode(nn::DecodeState& state, int batch,
                             nn::kernels::KernelPolicy kernel) const {
  amplitude_.beginDecode(state, batch, kernel);
}

void QiankunNet::stepConditionals(nn::DecodeState& state,
                                  const std::vector<int>& prevTokens,
                                  const std::vector<std::array<int, 2>>& counts,
                                  std::vector<Real>& probs) {
  const int s = static_cast<int>(state.len);
  const auto batch = static_cast<std::size_t>(state.batch);
  if (counts.size() != batch)
    throw std::invalid_argument("stepConditionals: counts/batch mismatch");
  // At s > 0 the previous tokens are fed as-is (no copy); the BOS step
  // materializes its feed in the state-owned scratch so a warm sweep's first
  // step allocates nothing.
  const std::vector<int>* feed = &prevTokens;
  if (s == 0) {
    state.tokenScratch.assign(batch, nn::TransformerAR::kBos);
    feed = &state.tokenScratch;
  } else if (prevTokens.size() != batch) {
    throw std::invalid_argument("stepConditionals: prevTokens/batch mismatch");
  }
  // [B, 4], state-owned storage (zero-allocation decode path).
  const nn::Tensor& logits = amplitude_.decodeStep(state, *feed);
  probs.resize(batch * 4);
  for (std::size_t b = 0; b < batch; ++b) {
    const auto mask = outcomeMask(s, counts[b][0], counts[b][1]);
    maskedSoftmax4(logits.data.data() + b * 4, mask, probs.data() + b * 4);
  }
}

std::vector<Real> QiankunNet::stepConditionals(nn::DecodeState& state,
                                               const std::vector<int>& prevTokens,
                                               const std::vector<std::array<int, 2>>& counts) {
  std::vector<Real> probs;
  stepConditionals(state, prevTokens, counts, probs);
  return probs;
}

void QiankunNet::inputTokens(const Bits128* samples, Index n,
                             std::vector<int>& out) const {
  const int L = nSteps();
  out.resize(static_cast<std::size_t>(n * L));
  for (Index b = 0; b < n; ++b) {
    int* row = out.data() + b * L;
    row[0] = nn::TransformerAR::kBos;
    for (int s = 0; s + 1 < L; ++s) row[1 + s] = tokenOf(samples[b], s);
  }
}

void QiankunNet::encodeSpins(const Bits128* samples, Index n, Real* out) const {
  for (Index b = 0; b < n; ++b)
    for (int q = 0; q < cfg_.nQubits; ++q)
      out[b * cfg_.nQubits + q] = samples[b].get(q) ? 1.0 : -1.0;
}

void QiankunNet::stepLogAmp(const Real* lg, Bits128 sample, int s, int& nUp,
                            int& nDown, Real& la, Real* pr) const {
  const auto mask = outcomeMask(s, nUp, nDown);
  maskedSoftmax4(lg, mask, pr);
  const int chosen = tokenOf(sample, s);
  if (!mask[static_cast<std::size_t>(chosen)] || pr[chosen] <= 0.0) {
    la = kLogZero;  // outside the number-conserving support
    return;
  }
  la += 0.5 * std::log(pr[chosen]);
  nUp += chosen & 1;
  nDown += (chosen >> 1) & 1;
}

const Real* QiankunNet::amplitudeTile(nn::Tape& tape,
                                      nn::TransformerAR::TapeFrame& frame,
                                      std::vector<int>& tokens,
                                      const Bits128* samples, Index tb,
                                      Real* logAmp) const {
  const int L = nSteps();
  const Index rows = tb * L;
  inputTokens(samples, tb, tokens);
  const Real* logits = amplitude_.forwardTape(tape, frame, tokens.data(), rows, L);
  // Zero-filled: rows that leave the number-conserving support keep pr = 0
  // past the exit (no gradient).
  Real* probs = tape.alloc(rows * 4);
  std::memset(probs, 0, static_cast<std::size_t>(rows * 4) * sizeof(Real));
  for (Index b = 0; b < tb; ++b) {
    int nUp = 0, nDown = 0;
    Real la = 0;
    for (int s = 0; s < L; ++s) {
      stepLogAmp(logits + (b * L + s) * 4, samples[b], s, nUp, nDown, la,
                 probs + (b * L + s) * 4);
      if (la <= kLogZero) break;
    }
    if (logAmp != nullptr) logAmp[b] = la;
  }
  return probs;
}

void QiankunNet::decodeLogAmp(EvalSlot& slot,
                              const std::vector<Bits128>& samples,
                              std::vector<Real>& logAmp,
                              nn::kernels::KernelPolicy kernel,
                              Index tileRows) const {
  const int L = nSteps();
  const Index batch = static_cast<Index>(samples.size());
  inputTokens(samples.data(), batch, slot.tokens);
  logAmp.assign(samples.size(), 0.0);
  // Teacher-forced sweep: evaluateDecode hands back each row tile's [tb, 4]
  // logits position by position; the per-position log-conditionals are
  // folded into logAmp on the fly — the same stepLogAmp, in the same
  // ascending-s order, as the full-forward path, so the bits match — and no
  // [B, L, 4] buffer ever materializes.  slot.up/slot.down carry every row's
  // running electron counts between steps, indexed by *global* row so the
  // sink only touches its own tile's entries (tiles may run concurrently); a
  // row that leaves the number-conserving support is finished at kLogZero
  // (its remaining teacher-forced steps cost nothing but the shared GEMMs).
  slot.up.assign(samples.size(), 0);
  slot.down.assign(samples.size(), 0);
  amplitude_.evaluateDecode(
      slot.state, slot.tokens, batch, L, tileRows, kernel,
      [&](Index t0, Index tb, Index s, const Real* logits) {
        for (Index b = 0; b < tb; ++b) {
          const auto row = static_cast<std::size_t>(t0 + b);
          if (logAmp[row] <= kLogZero) continue;
          Real pr[4];
          stepLogAmp(logits + b * 4, samples[row], static_cast<int>(s),
                     slot.up[row], slot.down[row], logAmp[row], pr);
        }
      });
}

void QiankunNet::setEvalPolicy(const exec::ExecutionPolicy& exec) {
  if (exec.evalTileRows < 0 || exec.gradTileRows < 0)
    throw std::invalid_argument(
        "QiankunNet::setEvalPolicy: evalTileRows and gradTileRows must be >= 0 "
        "(0 = default)");
  evalPolicy_ = exec.decode;
  evalKernel_ = exec.kernel;
  evalTileRows_ = tileOrDefault(exec.evalTileRows);
  gradTileRows_ = tileOrDefault(exec.gradTileRows);
}

void QiankunNet::evaluate(const std::vector<Bits128>& samples,
                          std::vector<Real>& logAmp, std::vector<Real>& phase,
                          nn::GradMode mode) {
  const Index batch = static_cast<Index>(samples.size());
  if (mode == nn::GradMode::kRecordTape) {
    // The whole batch as one recorded tile, consumed by backward().
    gradTape_.reset();
    logAmp.resize(samples.size());
    phase.resize(samples.size());
    recordedSamples_.assign(samples.begin(), samples.end());
    recordedProbs_ = batch > 0 ? recordTile(recordedSamples_.data(), batch,
                                            logAmp.data(), phase.data())
                               : nullptr;
    recordedBatch_ = static_cast<long>(batch);
    return;
  }
  // Inference never touches gradTape_.
  if (evalPolicy_ == DecodePolicy::kFullForward) {
    logAmp.resize(samples.size());
    scratchTapeTiles(batch, evalTileRows_, [&](nn::Tape& tape,
                                               nn::TransformerAR::TapeFrame& frame,
                                               Index t0, Index tb) {
      amplitudeTile(tape, frame, evalSlot_.tokens, samples.data() + t0, tb,
                    logAmp.data() + t0);
    });
  } else {
    decodeLogAmp(evalSlot_, samples, logAmp, evalKernel_, evalTileRows_);
  }
  phaseInto(evalSlot_, samples, phase, evalKernel_, evalTileRows_);
}

void QiankunNet::phases(const std::vector<Bits128>& samples,
                        std::vector<Real>& phase) {
  phaseInto(evalSlot_, samples, phase, evalKernel_, evalTileRows_);
}

void QiankunNet::phaseInto(EvalSlot& slot, const std::vector<Bits128>& samples,
                           std::vector<Real>& phase,
                           nn::kernels::KernelPolicy kernel, Index tile) const {
  // Tile by tile, so the workspace holds one tile's activations whatever
  // the batch (rows are independent, so the bits do not depend on the
  // tiling).  The reserve covers this call's largest tile but at least one
  // default tile, so a serving slot fed growing batches grows its block once
  // rather than at every new size; it never exceeds `tile` nor, past the
  // default tile, the batch.
  const Index batch = static_cast<Index>(samples.size());
  const Index rows =
      std::min(tile, std::max(batch, nn::TransformerAR::kEvalTileRows));
  const Index need =
      nn::Workspace::spanReals(rows * cfg_.nQubits) + phase_.workspaceReals(rows);
  phase.resize(samples.size());
  for (Index t0 = 0; t0 < batch; t0 += tile) {
    const Index tb = std::min(tile, batch - t0);
    slot.phaseWs.reset();
    slot.phaseWs.reserve(need);
    Real* xin = slot.phaseWs.alloc(tb * cfg_.nQubits);
    encodeSpins(samples.data() + t0, tb, xin);
    phase_.forwardInto(slot.phaseWs, xin, tb, phase.data() + t0, kernel);
  }
}

void QiankunNet::invalidateEvaluate(const char* why) {
  if (recordedBatch_ < 0) return;  // write-free when already clear
  recordedBatch_ = -1;
  recordedSamples_.clear();
  recordedProbs_ = nullptr;
  staleReason_ = why;
}

Complex QiankunNet::psiValue(Real logAmp, Real phase) {
  const Real a = (logAmp <= kLogZero) ? 0.0 : std::exp(logAmp);
  return Complex{a * std::cos(phase), a * std::sin(phase)};
}

std::vector<Complex> QiankunNet::psi(const std::vector<Bits128>& samples) {
  std::vector<Real> la, ph;
  evaluate(samples, la, ph, nn::GradMode::kInference);
  std::vector<Complex> out(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) out[i] = psiValue(la[i], ph[i]);
  return out;
}

void QiankunNet::seedLogitRow(Real seed, Bits128 sample, int s, const Real* pr,
                              Real* dl) const {
  // d ln|Psi| / d logits: ln|Psi| = 1/2 sum_s ln p_chosen ->
  // dlogit[t] = 1/2 seed * (delta_{t,chosen} - p_t) over the masked softmax.
  const int chosen = tokenOf(sample, s);
  for (int t = 0; t < 4; ++t) {
    if (pr[t] <= 0.0) continue;  // masked outcome: no gradient path
    dl[t] = 0.5 * seed * ((t == chosen ? 1.0 : 0.0) - pr[t]);
  }
}

const Real* QiankunNet::recordTile(const Bits128* samples, Index tb,
                                   Real* logAmp, Real* phase) {
  // Per-row activations are batch-composition-independent, so a tile's
  // outputs equal the corresponding rows of any larger forward.
  const Real* probs =
      amplitudeTile(gradTape_, ampFrame_, gradTokens_, samples, tb, logAmp);
  Real* xin = gradTape_.alloc(tb * cfg_.nQubits);
  encodeSpins(samples, tb, xin);
  const Real* ph = phase_.forwardTape(gradTape_, phaseFrame_, xin, tb);
  if (phase != nullptr) std::copy(ph, ph + tb, phase);
  return probs;
}

void QiankunNet::backwardTile(const Bits128* samples, Index tb,
                              const Real* probs, const Real* dLogAmp,
                              const Real* dPhase) {
  const int L = nSteps();
  const Index rows = tb * L;
  Real* dLogits = gradTape_.alloc(rows * 4);
  std::memset(dLogits, 0, static_cast<std::size_t>(rows * 4) * sizeof(Real));
  for (Index b = 0; b < tb; ++b) {
    if (dLogAmp[b] == 0.0) continue;
    for (int s = 0; s < L; ++s)
      seedLogitRow(dLogAmp[b], samples[b], s, probs + (b * L + s) * 4,
                   dLogits + (b * L + s) * 4);
  }
  amplitude_.backwardTape(gradTape_, ampFrame_, dLogits);
  // The phase MLP's parameters are disjoint from the amplitude net's, so
  // the order of the two backwards leaves every parameter's fold intact.
  phase_.backwardTape(gradTape_, phaseFrame_, dPhase);
}

void QiankunNet::backward(const std::vector<Real>& dLogAmp,
                          const std::vector<Real>& dPhase) {
  if (recordedBatch_ < 0) throw nn::StaleTapeError("QiankunNet", staleReason_);
  const auto recorded = static_cast<std::size_t>(recordedBatch_);
  if (dLogAmp.size() != recorded || dPhase.size() != recorded)
    throw std::invalid_argument("QiankunNet::backward: seed/sample size mismatch");
  // An empty recording leaves the gradients at zero.
  if (recorded > 0)
    backwardTile(recordedSamples_.data(), recordedBatch_, recordedProbs_,
                 dLogAmp.data(), dPhase.data());
  invalidateEvaluate("already consumed by a previous backward");
}

void QiankunNet::evaluateGrad(const std::vector<Bits128>& samples,
                              const std::vector<Real>& dLogAmp,
                              const std::vector<Real>& dPhase) {
  if (dLogAmp.size() != samples.size() || dPhase.size() != samples.size())
    throw std::invalid_argument("QiankunNet::evaluateGrad: seed/sample size mismatch");

  // This call records and consumes its own per-tile activations on
  // gradTape_; any previously recorded evaluate is stale from here on.
  invalidateEvaluate(nn::stale::kTapeForward);

  const Index batch = static_cast<Index>(samples.size());
  const Index tile = gradTileRows_;

  // Tiles run SEQUENTIALLY in ascending order: every per-parameter
  // accumulation is a strictly sequential ascending-row fold that the tile
  // boundaries merely partition, so this ordering — not any tolerance — is
  // what makes the result bit-identical to a single tile over the batch.
  // Parallelism stays inside the per-tile kernels.  The reset releases the
  // previous tile, so only one tile's activations ever exist.
  for (Index t0 = 0; t0 < batch; t0 += tile) {
    const Index tb = std::min(tile, batch - t0);
    gradTape_.reset();
    const Real* probs = recordTile(samples.data() + t0, tb, nullptr, nullptr);
    backwardTile(samples.data() + t0, tb, probs, dLogAmp.data() + t0,
                 dPhase.data() + t0);
  }
}

void QiankunNet::prepareConcurrent() {
  invalidateEvaluate(nn::stale::kExplicit);
}

void QiankunNet::evaluateInto(EvalSlot& slot, const std::vector<Bits128>& samples,
                              std::vector<Real>& logAmp, std::vector<Real>& phase,
                              nn::kernels::KernelPolicy kernel,
                              Index tileRows) const {
  const Index tile = tileOrDefault(tileRows);
  decodeLogAmp(slot, samples, logAmp, kernel, tile);
  phaseInto(slot, samples, phase, kernel, tile);
}

std::vector<nn::Parameter*> QiankunNet::parameters() {
  if (paramCache_.empty()) {
    amplitude_.collectParameters(paramCache_);
    phase_.collectParameters(paramCache_);
  }
  return paramCache_;
}

Index QiankunNet::parameterCount() {
  Index n = 0;
  for (auto* p : parameters()) n += p->numel();
  return n;
}

void QiankunNet::flattenGradients(std::vector<Real>& out) {
  out.clear();
  for (auto* p : parameters())
    out.insert(out.end(), p->grad.data.begin(), p->grad.data.end());
}

void QiankunNet::loadGradients(const std::vector<Real>& in) {
  if (static_cast<Index>(in.size()) != parameterCount())
    throw std::invalid_argument(
        "QiankunNet::loadGradients: size does not match parameterCount()");
  std::size_t off = 0;
  for (auto* p : parameters()) {
    std::copy(in.begin() + static_cast<std::ptrdiff_t>(off),
              in.begin() + static_cast<std::ptrdiff_t>(off + p->grad.data.size()),
              p->grad.data.begin());
    off += p->grad.data.size();
  }
}

}  // namespace nnqs::nqs
