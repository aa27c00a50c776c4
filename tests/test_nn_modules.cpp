#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "nn/modules.hpp"
#include "nn/optimizer.hpp"
#include "nn/transformer.hpp"

using namespace nnqs;
using namespace nnqs::nn;

namespace {

/// Run one tape forward on a fresh tape and copy its first `n` outputs out.
template <typename Fwd>
std::vector<Real> onTape(Index n, const Fwd& forward) {
  Tape tape;
  tape.reset();
  const Real* y = forward(tape);
  return {y, y + n};
}

/// Logits [tokens.size(), 4] of the amplitude net's tape forward.
std::vector<Real> logitsOf(const TransformerAR& net, const std::vector<int>& tokens,
                           Index window) {
  const auto rows = static_cast<Index>(tokens.size());
  return onTape(rows * 4, [&](Tape& tape) {
    TransformerAR::TapeFrame f;
    return net.forwardTape(tape, f, tokens.data(), rows, window);
  });
}

}  // namespace

TEST(Linear, ForwardShapeAndBias) {
  Rng rng(1);
  Linear lin(3, 2, rng, "t");
  lin.w.value.setZero();
  lin.b.value.data = {1.5, -0.5};
  Tensor x({2, 3});
  const auto y = onTape(2 * 2, [&](Tape& tape) {
    Linear::TapeFrame f;
    return lin.forwardTape(tape, f, x.data.data(), 2);
  });
  EXPECT_DOUBLE_EQ(y[0], 1.5);
  EXPECT_DOUBLE_EQ(y[1], -0.5);
  EXPECT_DOUBLE_EQ(y[2], 1.5);
  EXPECT_DOUBLE_EQ(y[3], -0.5);
}

TEST(Linear, LinearityProperty) {
  Rng rng(2);
  Linear lin(4, 3, rng, "t");
  Tensor x1({1, 4}), x2({1, 4});
  x1.randn(rng, 1.0);
  x2.randn(rng, 1.0);
  Tensor sum({1, 4});
  for (int i = 0; i < 4; ++i) sum.data[i] = x1.data[i] + x2.data[i];
  auto forward = [&](const Tensor& x) {
    return onTape(3, [&](Tape& tape) {
      Linear::TapeFrame f;
      return lin.forwardTape(tape, f, x.data.data(), 1);
    });
  };
  const auto y1 = forward(x1);
  const auto y2 = forward(x2);
  const auto ys = forward(sum);
  // f(a+b) = f(a) + f(b) - f(0) for affine maps.
  const auto y0 = forward(Tensor({1, 4}));
  for (int i = 0; i < 3; ++i)
    EXPECT_NEAR(ys[i], y1[i] + y2[i] - y0[i], 1e-12);
}

TEST(LayerNorm, OutputNormalized) {
  Rng rng(3);
  LayerNorm ln(8, "t");
  Tensor x({4, 8});
  x.randn(rng, 3.0);
  const auto y = onTape(4 * 8, [&](Tape& tape) {
    LayerNorm::TapeFrame f;
    return ln.forwardTape(tape, f, x.data.data(), 4);
  });
  for (int r = 0; r < 4; ++r) {
    Real mean = 0, var = 0;
    for (int i = 0; i < 8; ++i) mean += y[r * 8 + i];
    mean /= 8;
    for (int i = 0; i < 8; ++i) var += std::pow(y[r * 8 + i] - mean, 2);
    var /= 8;
    EXPECT_NEAR(mean, 0.0, 1e-10);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(Gelu, KnownValues) {
  Gelu g;
  const std::vector<Real> x = {0.0, 100.0, -100.0};
  const auto y = onTape(3, [&](Tape& tape) {
    Gelu::TapeFrame f;
    return g.forwardTape(tape, f, x.data(), 3);
  });
  EXPECT_NEAR(y[0], 0.0, 1e-12);
  EXPECT_NEAR(y[1], 100.0, 1e-6);
  EXPECT_NEAR(y[2], 0.0, 1e-6);
}

TEST(Embedding, LookupAddsPosition) {
  Rng rng(4);
  Embedding emb(5, 3, 2, rng, "t");
  const std::vector<int> tokens = {1, 0, 2};  // one sequence of length 3
  const auto y = onTape(3 * 2, [&](Tape& tape) {
    return emb.forwardTape(tape, tokens.data(), 3, 3);
  });
  for (int d = 0; d < 2; ++d) {
    EXPECT_NEAR(y[0 * 2 + d],
                emb.token.value.data[1 * 2 + d] + emb.position.value.data[0 * 2 + d],
                1e-14);
    EXPECT_NEAR(y[2 * 2 + d],
                emb.token.value.data[2 * 2 + d] + emb.position.value.data[2 * 2 + d],
                1e-14);
  }
}

TEST(TransformerAR, CausalityOfLogits) {
  // Changing a later token must not change earlier positions' logits.
  Rng rng(5);
  TransformerAR net(6, 16, 4, 2, rng);
  std::vector<int> tokens = {4, 1, 2, 0, 3, 1};
  const auto base = logitsOf(net, tokens, 6);
  tokens[5] = 0;  // mutate the last token
  const auto mut = logitsOf(net, tokens, 6);
  for (int pos = 0; pos < 5; ++pos)
    for (int t = 0; t < 4; ++t)
      EXPECT_NEAR(base[pos * 4 + t], mut[pos * 4 + t], 1e-12) << pos;
  // But the final position generally changes.
  Real diff = 0;
  for (int t = 0; t < 4; ++t) diff += std::abs(base[5 * 4 + t] - mut[5 * 4 + t]);
  EXPECT_GT(diff, 1e-8);
}

TEST(TransformerAR, PrefixWindowConsistency) {
  // Logits at position s computed from a window of length s+1 must equal the
  // same positions computed from the full window (the sampler relies on it).
  Rng rng(6);
  TransformerAR net(5, 16, 4, 2, rng);
  const std::vector<int> full = {4, 0, 3, 1, 2};
  const auto all = logitsOf(net, full, 5);
  for (int w = 1; w <= 5; ++w) {
    const std::vector<int> prefix(full.begin(), full.begin() + w);
    const auto part = logitsOf(net, prefix, w);
    for (int t = 0; t < 4; ++t)
      EXPECT_NEAR(part[(w - 1) * 4 + t], all[(w - 1) * 4 + t], 1e-10);
  }
}

TEST(TransformerAR, ForwardTapeRejectsBadWindows) {
  Rng rng(7);
  TransformerAR net(4, 8, 2, 1, rng);
  const std::vector<int> tokens(10, 0);
  Tape tape;
  TransformerAR::TapeFrame f;
  // Longer than the sequence, zero, and not dividing the row count.
  for (Index window : {5, 0, 3})
    EXPECT_THROW(net.forwardTape(tape, f, tokens.data(), 10, window),
                 std::invalid_argument) << "window " << window;
}

// ---- unrecorded frames: backwardTape on a frame no forwardTape filled must
// throw a StaleTapeError naming the module, not read null spans.

TEST(StaleTape, UnrecordedFramesThrowNamingTheModule) {
  Rng rng(21);
  Linear lin(3, 2, rng, "enc.ff1");
  LayerNorm ln(4, "enc.ln1");
  Gelu gelu("enc.gelu");
  TanhAct tanhAct("phase.tanh0");
  CausalSelfAttention attn(8, 2, rng, "blk0.attn");
  const std::vector<Real> dy(64, 0.5);
  Tape tape;
  tape.reset();
  auto expectError = [&](const char* name, const auto& backward) {
    try {
      backward();
      FAIL() << "expected StaleTapeError for " << name;
    } catch (const StaleTapeError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(name), std::string::npos) << what;
      EXPECT_NE(what.find(stale::kUnrecordedFrame), std::string::npos) << what;
    }
  };
  expectError("enc.ff1", [&] { lin.backwardTape(tape, Linear::TapeFrame{}, dy.data()); });
  expectError("enc.ln1", [&] { ln.backwardTape(tape, LayerNorm::TapeFrame{}, dy.data()); });
  expectError("enc.gelu", [&] { gelu.backwardTape(tape, Gelu::TapeFrame{}, dy.data()); });
  expectError("phase.tanh0",
              [&] { tanhAct.backwardTape(tape, TanhAct::TapeFrame{}, dy.data()); });
  expectError("blk0.attn", [&] {
    attn.backwardTape(tape, CausalSelfAttention::TapeFrame{}, dy.data());
  });
  // No gradient was touched on the way to the throw.
  for (Real v : lin.w.grad.data) EXPECT_EQ(v, 0.0);
}

TEST(StaleTape, DecodeStepBetweenRecordAndBackwardChangesNothing) {
  // A decode step is read-only: backward after one equals backward without.
  Rng rng(26);
  CausalSelfAttention attn(8, 2, rng, "t");
  Tensor x({6, 8}), dy({6, 8});
  x.randn(rng, 1.0);
  dy.randn(rng, 1.0);
  std::vector<Parameter*> params;
  attn.collectParameters(params);
  auto recordAndBackward = [&](bool decodeInBetween) {
    for (Parameter* p : params) p->grad.setZero();
    Tape tape;
    tape.reset();
    CausalSelfAttention::TapeFrame f;
    attn.forwardTape(tape, f, x.data.data(), 6, 3);
    if (decodeInBetween) {
      DecodeState st;
      st.begin(2, 3, 8, 1);
      st.ws.reset();
      Tensor step({2, 8});
      step.randn(rng, 1.0);
      Real* out = st.ws.alloc(2 * 8);
      attn.decodeStep(step.data.data(), 2, st, 0, out);
    }
    const Real* dx = attn.backwardTape(tape, f, dy.data.data());
    std::vector<std::vector<Real>> result{{dx, dx + 6 * 8}};
    for (Parameter* p : params) result.emplace_back(p->grad.data.begin(), p->grad.data.end());
    return result;
  };
  const auto plain = recordAndBackward(false);
  const auto withDecode = recordAndBackward(true);
  ASSERT_EQ(plain.size(), withDecode.size());
  for (std::size_t i = 0; i < plain.size(); ++i)
    EXPECT_EQ(plain[i], withDecode[i]) << (i == 0 ? "dx" : "parameter grad");
}

// ---- empty-batch regression: a *recorded* zero-row frame is valid (empty
// batches occur on ranks with no local samples); backward must be a no-op,
// distinct from the unrecorded frame above.

TEST(EmptyBatch, LinearRecordedEmptyFrameBackwardIsNoOp) {
  Rng rng(28);
  Linear lin(3, 2, rng, "t");
  Tape tape;
  tape.reset();
  Linear::TapeFrame f;
  const Real dummy = 0.0;
  lin.forwardTape(tape, f, &dummy, 0);
  EXPECT_EQ(f.rows, 0);
  EXPECT_NO_THROW(lin.backwardTape(tape, f, &dummy));
  for (Real v : lin.w.grad.data) EXPECT_EQ(v, 0.0);
  for (Real v : lin.b.grad.data) EXPECT_EQ(v, 0.0);
}

TEST(AdamW, ConvergesOnQuadratic) {
  // Minimize ||x - c||^2 with AdamW (weight decay off).
  Parameter p({4}, "x");
  const Real target[4] = {1.0, -2.0, 0.5, 3.0};
  AdamWOptions opts;
  opts.lr = 0.05;
  opts.weightDecay = 0.0;
  AdamW opt({&p}, opts);
  for (int it = 0; it < 2000; ++it) {
    for (int i = 0; i < 4; ++i) p.grad.data[i] = 2.0 * (p.value.data[i] - target[i]);
    opt.step();
  }
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(p.value.data[i], target[i], 1e-3);
}

TEST(NoamSchedule, WarmupShape) {
  NoamSchedule sched(16, 100);
  // Rises during warmup, falls after.
  EXPECT_LT(sched.lr(1), sched.lr(50));
  EXPECT_LT(sched.lr(50), sched.lr(100));
  EXPECT_GT(sched.lr(100), sched.lr(400));
  // Peak value = dModel^-0.5 * warmup^-0.5.
  EXPECT_NEAR(sched.lr(100), 0.25 / 10.0, 1e-12);
}
