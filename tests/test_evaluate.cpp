// Teacher-forced batched evaluate() on the incremental-decode engine:
// bit-identity with the stateless full-forward path for amplitudes, phases,
// logits, and gradients, across KernelPolicy x DecodePolicy on ragged batch
// sizes (empty batches, batches larger than one tile), plus the read-only
// rule: an inference evaluate leaves a pending recording intact.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <vector>

#include "nqs/ansatz.hpp"

using namespace nnqs;
using namespace nnqs::nqs;

namespace {

constexpr nn::kernels::KernelPolicy kAllKernels[] = {
    nn::kernels::KernelPolicy::kScalar, nn::kernels::KernelPolicy::kSimd,
    nn::kernels::KernelPolicy::kThreaded, nn::kernels::KernelPolicy::kAuto};

QiankunNetConfig smallConfig(int nQubits, int nAlpha, int nBeta,
                             std::uint64_t seed = 5) {
  QiankunNetConfig cfg;
  cfg.nQubits = nQubits;
  cfg.nAlpha = nAlpha;
  cfg.nBeta = nBeta;
  cfg.dModel = 16;
  cfg.nHeads = 4;
  cfg.nDecoders = 2;
  cfg.phaseHidden = 32;
  cfg.phaseHiddenLayers = 1;
  cfg.seed = seed;
  return cfg;
}

/// All bitstrings of n qubits with exactly na up and nb down electrons.
std::vector<Bits128> numberSector(int n, int na, int nb) {
  std::vector<Bits128> out;
  for (std::uint64_t v = 0; v < (1ull << n); ++v) {
    Bits128 b{v, 0};
    int up = 0, down = 0;
    for (int q = 0; q < n; q += 2) up += b.get(q);
    for (int q = 1; q < n; q += 2) down += b.get(q);
    if (up == na && down == nb) out.push_back(b);
  }
  return out;
}

/// ExecutionPolicy with everything default except the eval-engine fields —
/// the post-alias-removal spelling of "decode policy X, kernel Y, tile Z".
exec::ExecutionPolicy execFor(DecodePolicy decode,
                              nn::kernels::KernelPolicy kernel =
                                  nn::kernels::KernelPolicy::kAuto,
                              int evalTileRows = 0) {
  exec::ExecutionPolicy ex;
  ex.decode = decode;
  ex.kernel = kernel;
  ex.evalTileRows = evalTileRows;
  return ex;
}

Real numericalGrad(const std::function<Real()>& f, Real& param, Real eps = 1e-5) {
  const Real orig = param;
  param = orig + eps;
  const Real fp = f();
  param = orig - eps;
  const Real fm = f();
  param = orig;
  return (fp - fm) / (2 * eps);
}

}  // namespace

TEST(Evaluate, DecodeMatchesFullForwardBitIdentical) {
  // Decode-path evaluate() must reproduce the full-forward amplitudes and
  // phases bit for bit, for every kernel policy, on ragged batch sizes: the
  // empty batch, sub-tile batches, and batches spanning several tiles with a
  // ragged final tile (tileRows = 4 below).  Out-of-sector samples must hit
  // the same zero-amplitude sentinel on both paths.
  const int n = 12, na = 3, nb = 2;
  QiankunNet net(smallConfig(n, na, nb));
  std::vector<Bits128> pool = numberSector(n, na, nb);
  pool.push_back(numberSector(n, na + 1, nb)[0]);  // outside the sector
  pool.push_back(numberSector(n, na, nb + 1)[1]);

  for (std::size_t batch : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                            std::size_t{4}, std::size_t{11}, pool.size()}) {
    ASSERT_LE(batch, pool.size());
    const std::vector<Bits128> samples(pool.begin(),
                                       pool.begin() + static_cast<long>(batch));
    net.setEvalPolicy(execFor(DecodePolicy::kFullForward));
    std::vector<Real> laRef, phRef;
    net.evaluate(samples, laRef, phRef, nn::GradMode::kInference);
    for (auto kernel : kAllKernels) {
      net.setEvalPolicy(execFor(DecodePolicy::kKvCache, kernel, /*evalTileRows=*/4));
      std::vector<Real> la, ph;
      net.evaluate(samples, la, ph, nn::GradMode::kInference);
      ASSERT_EQ(la.size(), laRef.size());
      ASSERT_EQ(ph.size(), phRef.size());
      for (std::size_t i = 0; i < batch; ++i) {
        EXPECT_EQ(la[i], laRef[i]) << "batch " << batch << " sample " << i;
        EXPECT_EQ(ph[i], phRef[i]) << "batch " << batch << " sample " << i;
      }
    }
  }
}

TEST(Evaluate, TileLargerThanAnyBatchIsTheUntiledSweep) {
  // evalTileRows = 1 << 30 is the documented "untiled" spelling: every
  // inference entry point must treat it as one tile the size of the batch
  // (no memory sized to the tile) and return the default tile's bits.
  const int n = 12, na = 3, nb = 2;
  QiankunNet net(smallConfig(n, na, nb));
  const auto samples = numberSector(n, na, nb);
  ASSERT_GT(static_cast<Index>(samples.size()), nn::TransformerAR::kEvalTileRows);
  for (auto decode : {DecodePolicy::kFullForward, DecodePolicy::kKvCache}) {
    net.setEvalPolicy(execFor(decode));
    std::vector<Real> laRef, phRef, phOnlyRef;
    net.evaluate(samples, laRef, phRef, nn::GradMode::kInference);
    net.phases(samples, phOnlyRef);
    net.setEvalPolicy(execFor(decode, nn::kernels::KernelPolicy::kAuto, 1 << 30));
    std::vector<Real> la, ph, phOnly;
    net.evaluate(samples, la, ph, nn::GradMode::kInference);
    net.phases(samples, phOnly);
    EXPECT_EQ(la, laRef);
    EXPECT_EQ(ph, phRef);
    EXPECT_EQ(phOnly, phOnlyRef);
  }
  QiankunNet::EvalSlot slot;
  std::vector<Real> laRef, phRef, la, ph;
  net.evaluateInto(slot, samples, laRef, phRef);
  net.evaluateInto(slot, samples, la, ph, nn::kernels::KernelPolicy::kSimd,
                   Index{1} << 30);
  EXPECT_EQ(la, laRef);
  EXPECT_EQ(ph, phRef);
}

TEST(Evaluate, TransformerEvaluateDecodeMatchesForwardLogits) {
  // TransformerAR level: the teacher-forced sweep's per-position logits are
  // bit-identical to the corresponding positions of forwardTape(), including
  // across tile boundaries (batch 10, tileRows 3 -> tiles of 3, 3, 3, 1).
  const Index L = 7, d = 16, heads = 4, layers = 2, batch = 10;
  Rng rng(41);
  nn::TransformerAR net(L, d, heads, layers, rng);
  std::vector<int> tokens(static_cast<std::size_t>(batch * L));
  Rng tok(13);
  for (Index b = 0; b < batch; ++b) {
    tokens[static_cast<std::size_t>(b * L)] = nn::TransformerAR::kBos;
    for (Index s = 1; s < L; ++s)
      tokens[static_cast<std::size_t>(b * L + s)] = static_cast<int>(tok.below(4));
  }
  nn::Tape tape;
  tape.reset();
  nn::TransformerAR::TapeFrame frame;
  const Real* logits = net.forwardTape(tape, frame, tokens.data(), batch * L, L);
  nn::Tensor ref({batch * L, 4});
  std::copy(logits, logits + ref.numel(), ref.data.begin());

  for (auto kernel : kAllKernels) {
    std::vector<Real> got(static_cast<std::size_t>(batch * L * 4), -1.0);
    nn::DecodeState state;
    net.evaluateDecode(state, tokens, batch, L, /*tileRows=*/3, kernel,
                       [&](Index t0, Index tb, Index s, const Real* logits) {
                         for (Index b = 0; b < tb; ++b)
                           for (Index t = 0; t < 4; ++t)
                             got[static_cast<std::size_t>(((t0 + b) * L + s) * 4 + t)] =
                                 logits[b * 4 + t];
                       });
    ASSERT_EQ(got.size(), ref.data.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_EQ(got[i], ref.data[i]) << "logit " << i;
  }
}

TEST(Evaluate, EvaluateDecodeRejectsBadShapes) {
  const Index L = 4, d = 8, heads = 2, layers = 1;
  Rng rng(3);
  nn::TransformerAR net(L, d, heads, layers, rng);
  nn::DecodeState state;
  auto sink = [](Index, Index, Index, const Real*) {};
  std::vector<int> tokens(static_cast<std::size_t>(2 * L), 0);
  EXPECT_THROW(net.evaluateDecode(state, tokens, 3, L, 0,
                                  nn::kernels::KernelPolicy::kAuto, sink),
               std::invalid_argument);
  EXPECT_THROW(net.evaluateDecode(state, tokens, 1, 2 * L, 0,
                                  nn::kernels::KernelPolicy::kAuto, sink),
               std::invalid_argument);
}

TEST(Evaluate, PsiSharesTheEvaluateEntryPoint) {
  // psi() = psiValue over evaluate() output: decode and full-forward give
  // the same complex values, and out-of-sector samples map to exactly 0.
  const int n = 10, na = 2, nb = 2;
  QiankunNet net(smallConfig(n, na, nb, 23));
  std::vector<Bits128> samples = numberSector(n, na, nb);
  samples.resize(9);
  samples.push_back(numberSector(n, na + 1, nb)[0]);

  net.setEvalPolicy(execFor(DecodePolicy::kFullForward));
  const std::vector<Complex> ref = net.psi(samples);
  net.setEvalPolicy(execFor(DecodePolicy::kKvCache, nn::kernels::KernelPolicy::kAuto, /*evalTileRows=*/4));
  const std::vector<Complex> got = net.psi(samples);
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i].real(), got[i].real()) << i;
    EXPECT_EQ(ref[i].imag(), got[i].imag()) << i;
  }
  EXPECT_EQ(got.back(), (Complex{0.0, 0.0}));  // outside the sector
}

TEST(Evaluate, GradientsAfterCachedEvaluateMatchAcrossPolicies) {
  // The VMC gradient stage: evaluate(GradMode::kRecordTape) + backward() must fill
  // bit-identical gradients whether the net's inference policy is decode or
  // full-forward (the cached evaluate itself always runs full-forward; the
  // policy must not leak into the gradient path).
  const int n = 10, na = 2, nb = 2;
  const auto samples = [&] {
    auto s = numberSector(n, na, nb);
    s.resize(6);
    return s;
  }();
  const std::vector<Real> dLa = {0.7, -1.1, 0.4, 0.3, -0.2, 0.9};
  const std::vector<Real> dPh = {0.2, 0.9, -0.5, 1.3, 0.8, -0.6};

  auto gradsUnder = [&](DecodePolicy policy) {
    QiankunNet net(smallConfig(n, na, nb, 77));
    net.setEvalPolicy(execFor(policy, nn::kernels::KernelPolicy::kAuto, /*evalTileRows=*/2));
    // An inference evaluate first, as the VMC loop interleaves them; it must
    // not perturb the subsequent cached evaluate + backward.
    std::vector<Real> la, ph;
    net.evaluate(samples, la, ph, nn::GradMode::kInference);
    net.evaluate(samples, la, ph, nn::GradMode::kRecordTape);
    net.backward(dLa, dPh);
    std::vector<Real> grads;
    net.flattenGradients(grads);
    return grads;
  };
  const auto ref = gradsUnder(DecodePolicy::kFullForward);
  const auto got = gradsUnder(DecodePolicy::kKvCache);
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) EXPECT_EQ(ref[i], got[i]) << i;
}

TEST(Evaluate, GradcheckWithDecodePathLoss) {
  // Numeric gradcheck of the VMC loss where every finite-difference forward
  // runs the *decode-path* evaluate (multi-tile: tileRows 2 on batch 3) while
  // the analytic gradients come from the cached full-forward + backward():
  // the two paths must describe the same function.
  nqs::QiankunNetConfig cfg;
  cfg.nQubits = 8;
  cfg.nAlpha = 2;
  cfg.nBeta = 2;
  cfg.dModel = 8;
  cfg.nHeads = 2;
  cfg.nDecoders = 1;
  cfg.phaseHidden = 12;
  cfg.phaseHiddenLayers = 1;
  cfg.seed = 77;
  QiankunNet net(cfg);
  net.setEvalPolicy(execFor(DecodePolicy::kKvCache, nn::kernels::KernelPolicy::kAuto, /*evalTileRows=*/2));
  const std::vector<Bits128> samples = {fromBitString("00001111"),
                                        fromBitString("00111100"),
                                        fromBitString("11000011")};
  const std::vector<Real> cA = {0.7, -1.1, 0.4}, cP = {0.2, 0.9, -0.5};
  auto loss = [&] {
    std::vector<Real> la, ph;
    net.evaluate(samples, la, ph, nn::GradMode::kInference);
    Real s = 0;
    for (std::size_t i = 0; i < samples.size(); ++i)
      s += cA[i] * la[i] + cP[i] * ph[i];
    return s;
  };
  {
    std::vector<Real> la, ph;
    net.evaluate(samples, la, ph, nn::GradMode::kRecordTape);
    net.backward(cA, cP);
  }
  Rng rng(123);
  for (nn::Parameter* p : net.parameters()) {
    const std::size_t nEl = p->value.data.size();
    for (int s = 0; s < 2; ++s) {
      const std::size_t i = rng.below(nEl);
      const Real analytic = p->grad.data[i];
      const Real numeric = numericalGrad(loss, p->value.data[i]);
      EXPECT_NEAR(analytic, numeric, 5e-5 * std::max(1.0, std::abs(numeric)))
          << p->name << "[" << i << "]";
    }
  }
}

TEST(Evaluate, InferenceBetweenRecordAndBackwardChangesNothing) {
  // Inference never writes the network or its gradient tape: an inference
  // evaluate (either engine) or phases() between a recording evaluate and
  // its backward() leaves every parameter gradient bit-identical to a
  // backward with nothing in between.  backward() still consumes the
  // recording: a second one throws.
  const int n = 8, na = 2, nb = 2;
  const auto samples = [&] {
    auto s = numberSector(n, na, nb);
    s.resize(3);
    return s;
  }();
  const auto other = [&] {
    auto s = numberSector(n, na, nb);
    return std::vector<Bits128>(s.end() - 5, s.end());
  }();
  const std::vector<Real> dLa = {0.1, 0.2, 0.3}, dPh = {0.4, 0.5, 0.6};
  auto gradsWith = [&](DecodePolicy policy, int between) {
    QiankunNet net(smallConfig(n, na, nb));
    net.setEvalPolicy(execFor(policy));
    std::vector<Real> la, ph;
    net.evaluate(samples, la, ph, nn::GradMode::kRecordTape);
    std::vector<Real> la2, ph2;
    if (between == 1) net.evaluate(other, la2, ph2, nn::GradMode::kInference);
    if (between == 2) net.phases(other, ph2);
    EXPECT_NO_THROW(net.backward(dLa, dPh));
    EXPECT_THROW(net.backward(dLa, dPh), std::logic_error);
    std::vector<Real> g;
    net.flattenGradients(g);
    return g;
  };
  for (DecodePolicy policy : {DecodePolicy::kFullForward, DecodePolicy::kKvCache}) {
    const auto ref = gradsWith(policy, 0);
    for (int between : {1, 2}) {
      const auto got = gradsWith(policy, between);
      ASSERT_EQ(ref.size(), got.size());
      for (std::size_t i = 0; i < ref.size(); ++i)
        EXPECT_EQ(ref[i], got[i]) << "between " << between << " grad " << i;
    }
  }
}

TEST(EvaluateGrad, TiledBitIdenticalToMonolithicAcrossTileGeometries) {
  // The recompute-in-tiles training step must fill parameter gradients
  // bit-identical to the monolithic cached-activation reference
  // (evaluate(kRecordTape) + backward()) at every tile geometry: degenerate
  // single-sample tiles, a ragged last tile (32 on batch 70 -> 32, 32, 6),
  // one tile larger than the batch (256 > 70, single ragged tile), an
  // exact-batch tile, and the engine default (0).
  const int n = 12, na = 3, nb = 2;
  const auto samples = [&] {
    auto s = numberSector(n, na, nb);
    s.resize(70);
    return s;
  }();
  std::vector<Real> dLa(samples.size()), dPh(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    dLa[i] = 0.1 * (static_cast<Real>(i % 7) - 3.0);
    dPh[i] = 0.05 * (static_cast<Real>(i % 5) - 2.0);
  }
  auto gradsWithTile = [&](int tile) {
    QiankunNet net(smallConfig(n, na, nb, 77));
    exec::ExecutionPolicy ex;
    ex.gradTileRows = tile;
    net.setEvalPolicy(ex);
    net.evaluateGrad(samples, dLa, dPh);
    std::vector<Real> g;
    net.flattenGradients(g);
    return g;
  };
  const auto ref = [&] {  // monolithic full-batch reference
    QiankunNet net(smallConfig(n, na, nb, 77));
    std::vector<Real> la, ph, g;
    net.evaluate(samples, la, ph, nn::GradMode::kRecordTape);
    net.backward(dLa, dPh);
    net.flattenGradients(g);
    return g;
  }();
  ASSERT_FALSE(ref.empty());
  for (int tile : {1, 32, 256, static_cast<int>(samples.size()), 0}) {
    const auto got = gradsWithTile(tile);
    ASSERT_EQ(ref.size(), got.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
      EXPECT_EQ(ref[i], got[i]) << "tile " << tile << " grad " << i;
  }
}

TEST(EvaluateGrad, EmptyBatchLeavesGradientsZero) {
  // Ranks that received no samples call the same training step; both the
  // tiled engine and the monolithic reference must accept the empty batch
  // (tile -1 below stands for the reference, evaluate + backward).
  const std::vector<Bits128> none;
  const std::vector<Real> zero;
  for (int tile : {-1, 0, 8}) {
    QiankunNet net(smallConfig(8, 2, 2));
    if (tile < 0) {
      std::vector<Real> la, ph;
      EXPECT_NO_THROW(net.evaluate(none, la, ph, nn::GradMode::kRecordTape));
      EXPECT_NO_THROW(net.backward(zero, zero));
    } else {
      exec::ExecutionPolicy ex;
      ex.gradTileRows = tile;
      net.setEvalPolicy(ex);
      EXPECT_NO_THROW(net.evaluateGrad(none, zero, zero)) << "tile " << tile;
    }
    std::vector<Real> g;
    net.flattenGradients(g);
    for (std::size_t i = 0; i < g.size(); ++i)
      EXPECT_EQ(g[i], 0.0) << "tile " << tile << " grad " << i;
  }
}

TEST(EvaluateGrad, RejectsMismatchedSeedLengths) {
  QiankunNet net(smallConfig(8, 2, 2));
  const auto samples = [&] {
    auto s = numberSector(8, 2, 2);
    s.resize(3);
    return s;
  }();
  const std::vector<Real> two = {0.1, 0.2}, three = {0.1, 0.2, 0.3};
  EXPECT_THROW(net.evaluateGrad(samples, two, three), std::invalid_argument);
  EXPECT_THROW(net.evaluateGrad(samples, three, two), std::invalid_argument);
}

TEST(EvaluateGrad, DecodePolicyDoesNotLeakIntoTiledGradients) {
  // evaluateGrad always re-runs the recording full forward per tile; the
  // inference engine selected for evaluate()/psi() must not perturb it,
  // even with an inference evaluate interleaved (the VMC loop's shape).
  const int n = 10, na = 2, nb = 2;
  const auto samples = [&] {
    auto s = numberSector(n, na, nb);
    s.resize(11);
    return s;
  }();
  const std::vector<Real> dLa = {0.7, -1.1, 0.4, 0.3, -0.2, 0.9, 0.1, -0.8, 0.5, 1.2, -0.3};
  const std::vector<Real> dPh = {0.2, 0.9, -0.5, 1.3, 0.8, -0.6, 0.4, -1.0, 0.7, -0.1, 0.6};
  auto gradsUnder = [&](DecodePolicy policy) {
    QiankunNet net(smallConfig(n, na, nb, 77));
    exec::ExecutionPolicy ex;
    ex.decode = policy;
    ex.gradTileRows = 3;  // ragged: 3, 3, 3, 2
    net.setEvalPolicy(ex);
    std::vector<Real> la, ph;
    net.evaluate(samples, la, ph, nn::GradMode::kInference);
    net.evaluateGrad(samples, dLa, dPh);
    std::vector<Real> g;
    net.flattenGradients(g);
    return g;
  };
  const auto ref = gradsUnder(DecodePolicy::kFullForward);
  const auto got = gradsUnder(DecodePolicy::kKvCache);
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) EXPECT_EQ(ref[i], got[i]) << i;
}

TEST(EvaluateGrad, WarmStepsReuseTheTapeArena) {
  // After the first tiled step has grown the tape to its high water, further
  // same-shape steps must not allocate: no primary-block growth, no side
  // chunks, same high water (the zero-allocation warm-step contract).
  const int n = 10, na = 2, nb = 2;
  const auto samples = [&] {
    auto s = numberSector(n, na, nb);
    s.resize(12);
    return s;
  }();
  std::vector<Real> dLa(samples.size(), 0.3), dPh(samples.size(), -0.2);
  QiankunNet net(smallConfig(n, na, nb, 5));
  exec::ExecutionPolicy ex;
  ex.gradTileRows = 4;
  net.setEvalPolicy(ex);
  net.evaluateGrad(samples, dLa, dPh);
  const nn::Workspace::Stats cold = net.gradTapeStats();  // copy
  for (int step = 0; step < 3; ++step) net.evaluateGrad(samples, dLa, dPh);
  const nn::Workspace::Stats& warm = net.gradTapeStats();
  EXPECT_EQ(warm.grows, cold.grows);
  EXPECT_EQ(warm.overflows, cold.overflows);
  EXPECT_EQ(warm.highWater, cold.highWater);
  EXPECT_EQ(warm.capacity, cold.capacity);
}

TEST(EvaluateGrad, StaleBackwardNamesTheModuleAndTheInvalidator) {
  // The typed stale-tape error must say *which* module refused and *what*
  // invalidated its recording (checkpoint.hpp typed-error style), so a
  // misuse report is actionable without a debugger.
  const int n = 8, na = 2, nb = 2;
  const auto samples = [&] {
    auto s = numberSector(n, na, nb);
    s.resize(3);
    return s;
  }();
  const std::vector<Real> dLa = {0.1, 0.2, 0.3}, dPh = {0.4, 0.5, 0.6};
  QiankunNet net(smallConfig(n, na, nb));
  std::vector<Real> la, ph;
  auto expectBackwardError = [&](const char* expectReason) {
    try {
      net.backward(dLa, dPh);
      FAIL() << "expected StaleTapeError (" << expectReason << ")";
    } catch (const nn::StaleTapeError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("QiankunNet"), std::string::npos) << what;
      EXPECT_NE(what.find(expectReason), std::string::npos) << what;
    }
  };
  // Never recorded.
  expectBackwardError(nn::stale::kNeverRecorded);
  // Recorded, then invalidated by a tape-recording (evaluateGrad) pass.
  net.evaluate(samples, la, ph, nn::GradMode::kRecordTape);
  net.evaluateGrad(samples, dLa, dPh);
  expectBackwardError(nn::stale::kTapeForward);
  // Recorded, consumed by one backward; the second names the consumption.
  net.evaluate(samples, la, ph, nn::GradMode::kRecordTape);
  EXPECT_NO_THROW(net.backward(dLa, dPh));
  expectBackwardError("already consumed by a previous backward");
}

TEST(EvaluateGrad, SetEvalPolicyRejectsNegativeTileRows) {
  // 0 is the engine default and n > 0 is n rows; a negative value is an
  // error, not a request for some other path.  A rejected policy leaves the
  // previous one in force.
  QiankunNet net(smallConfig(8, 2, 2));
  for (int field = 0; field < 2; ++field) {
    exec::ExecutionPolicy ex;
    ex.decode = DecodePolicy::kFullForward;
    (field == 0 ? ex.evalTileRows : ex.gradTileRows) = -1;
    EXPECT_THROW(net.setEvalPolicy(ex), std::invalid_argument) << "field " << field;
  }
  EXPECT_EQ(net.evalPolicy(), DecodePolicy::kKvCache);
}

TEST(EvaluateGrad, ShortSeedAndGradientVectorsAreRejected) {
  // backward() and loadGradients() index their inputs by recorded sample and
  // by parameter; a short vector must throw instead of reading past its end.
  const auto samples = [] {
    auto s = numberSector(8, 2, 2);
    s.resize(3);
    return s;
  }();
  QiankunNet net(smallConfig(8, 2, 2));
  std::vector<Real> la, ph;
  const std::vector<Real> full = {0.1, 0.2, 0.3}, shortSeed = {0.1, 0.2};
  net.evaluate(samples, la, ph, nn::GradMode::kRecordTape);
  EXPECT_THROW(net.backward(shortSeed, full), std::invalid_argument);
  EXPECT_THROW(net.backward(full, shortSeed), std::invalid_argument);
  // A rejected call leaves the recording in place for a valid backward.
  EXPECT_NO_THROW(net.backward(full, full));

  std::vector<Real> grads;
  net.flattenGradients(grads);
  ASSERT_EQ(static_cast<Index>(grads.size()), net.parameterCount());
  grads.pop_back();
  EXPECT_THROW(net.loadGradients(grads), std::invalid_argument);
  grads.resize(grads.size() + 2, 0.0);
  EXPECT_THROW(net.loadGradients(grads), std::invalid_argument);
}
