// BasSweepEngine contracts: bit-identical sample sets across tile geometries,
// decode policies and rank partitions; fused ln|Psi| equal to a separate
// evaluate() bit for bit; zero heap allocations on a warm fused sweep; the
// cumulative SweepStats invariant (tiling moves zero K/V bytes beyond the
// untiled sweep's split copies); and rejection of negative tile sizes.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <stdexcept>

#include "nqs/sampler.hpp"

// ---- Allocation-counting hook (microbench_kernels.cpp idiom) ---------------
namespace {
std::atomic<std::uint64_t> gAllocCount{0};
std::uint64_t allocationCount() {
  return gAllocCount.load(std::memory_order_relaxed);
}
}  // namespace

void* operator new(std::size_t n) {
  gAllocCount.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace nnqs;
using namespace nnqs::nqs;

namespace {

QiankunNetConfig smallConfig(int nQubits, int nAlpha, int nBeta) {
  QiankunNetConfig cfg;
  cfg.nQubits = nQubits;
  cfg.nAlpha = nAlpha;
  cfg.nBeta = nBeta;
  cfg.dModel = 16;
  cfg.nHeads = 4;
  cfg.nDecoders = 2;
  cfg.phaseHidden = 32;
  cfg.phaseHiddenLayers = 1;
  cfg.seed = 5;
  return cfg;
}

void expectSameSet(const SampleSet& a, const SampleSet& b, const char* what) {
  ASSERT_EQ(a.nUnique(), b.nUnique()) << what;
  ASSERT_EQ(a.logAmp.size(), b.logAmp.size()) << what;
  for (std::size_t i = 0; i < a.nUnique(); ++i) {
    EXPECT_EQ(a.samples[i], b.samples[i]) << what << " sample " << i;
    EXPECT_EQ(a.weights[i], b.weights[i]) << what << " weight " << i;
    if (!a.logAmp.empty())
      EXPECT_EQ(a.logAmp[i], b.logAmp[i]) << what << " logAmp " << i;
  }
}

SampleSet sweepCopy(QiankunNet& net, const SamplerOptions& opts) {
  BasSweepEngine engine(net);
  return engine.sweep(opts);
}

/// A tile at least as large as any frontier in these tests: the untiled sweep.
constexpr int kUntiled = 1 << 30;

}  // namespace

TEST(Sweep, TileGeometryIsBitIdentical) {
  // Untiled reference vs ragged tiny tiles, the default, one huge tile, and
  // tile == 1 (maximal deferral): identical sample sets, weights, ln|Psi|.
  QiankunNet net(smallConfig(12, 3, 3));
  SamplerOptions opts;
  opts.nSamples = 1 << 14;
  opts.exec.sweepTileRows = kUntiled;
  const SampleSet ref = sweepCopy(net, opts);
  EXPECT_EQ(ref.totalWeight(), opts.nSamples);
  EXPECT_EQ(ref.logAmp.size(), ref.samples.size());

  for (int tileRows : {1, 5, 0, 1 << 20}) {
    opts.exec.sweepTileRows = tileRows;
    const SampleSet got = sweepCopy(net, opts);
    expectSameSet(ref, got, tileRows == 0 ? "default" : "tiled");
  }
}

TEST(Sweep, FusedLogAmpMatchesSeparateEvaluate) {
  // The fusion contract: SampleSet::logAmp must equal a separate evaluate()
  // over the same samples bit for bit — on the KV-cached sweep (tiled and
  // untiled) and on the full-forward reference sweep.
  QiankunNet net(smallConfig(12, 3, 3));
  SamplerOptions opts;
  opts.nSamples = 1 << 14;
  for (int tileRows : {0, kUntiled, 3}) {
    for (DecodePolicy decode :
         {DecodePolicy::kKvCache, DecodePolicy::kFullForward}) {
      opts.exec.sweepTileRows = tileRows;
      opts.exec.decode = decode;
      const SampleSet s = sweepCopy(net, opts);
      ASSERT_EQ(s.logAmp.size(), s.nUnique());
      std::vector<Real> la, ph;
      net.evaluate(s.samples, la, ph, nn::GradMode::kInference);
      for (std::size_t i = 0; i < s.nUnique(); ++i)
        EXPECT_EQ(s.logAmp[i], la[i])
            << "tileRows " << tileRows << " decode " << static_cast<int>(decode)
            << " sample " << i;
    }
  }
}

TEST(Sweep, PrefixFreeMatchesPrefixCarryingSweep) {
  // The O(Nu*L) prefix representation: the KV-cached sweep, which never
  // materializes a token prefix, must draw exactly what the full-forward
  // reference sweep (prefix-carrying, since its conditionals consume them)
  // draws.
  QiankunNet net(smallConfig(12, 3, 3));
  SamplerOptions opts;
  opts.nSamples = 1 << 14;
  const SampleSet bits = sweepCopy(net, opts);

  opts.exec.decode = DecodePolicy::kFullForward;
  const SampleSet ff = sweepCopy(net, opts);
  expectSameSet(bits, ff, "full-forward");
}

TEST(Sweep, ParallelUnionEqualsSerialExactly) {
  // Per-node RNG substreams make rank partitioning draw-invariant: the union
  // of the per-rank sets is the serial sweep *exactly* — same samples, same
  // weights, same fused ln|Psi| — not just in totals.  Threshold 8 splits the
  // tree mid-sweep; 1 << 30 is above the final frontier size, so the tree
  // ends before the split and the leaves are dealt round-robin.
  const int ranks = 4;
  QiankunNet net(smallConfig(12, 3, 3));
  SamplerOptions opts;
  opts.nSamples = 1 << 14;
  const SampleSet serial = sweepCopy(net, opts);
  for (const std::uint64_t threshold : {std::uint64_t{8}, std::uint64_t{1} << 30}) {
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::pair<std::uint64_t, Real>>
        unionSet;
    for (int r = 0; r < ranks; ++r) {
      BasSweepEngine engine(net);
      const SampleSet& s = engine.sweep(opts, r, ranks, threshold);
      ASSERT_EQ(s.logAmp.size(), s.nUnique()) << "threshold " << threshold;
      for (std::size_t i = 0; i < s.nUnique(); ++i) {
        const bool inserted =
            unionSet
                .emplace(std::make_pair(s.samples[i].lo, s.samples[i].hi),
                         std::make_pair(s.weights[i], s.logAmp[i]))
                .second;
        EXPECT_TRUE(inserted) << "rank sets overlap, threshold " << threshold;
      }
    }
    ASSERT_EQ(unionSet.size(), serial.nUnique()) << "threshold " << threshold;
    for (std::size_t i = 0; i < serial.nUnique(); ++i) {
      const auto it = unionSet.find({serial.samples[i].lo, serial.samples[i].hi});
      ASSERT_NE(it, unionSet.end()) << "threshold " << threshold << " sample " << i;
      EXPECT_EQ(it->second.first, serial.weights[i])
          << "threshold " << threshold << " sample " << i;
      EXPECT_EQ(it->second.second, serial.logAmp[i])
          << "threshold " << threshold << " sample " << i;
    }
  }
}

TEST(Sweep, TilingMovesNoExtraArenaBytes) {
  // The GatherStats-under-tiling satellite: the cumulative per-sweep copy
  // counters must be *equal* tiled and untiled — detach/attach are index
  // bookkeeping, so the only K/V bytes that ever move are the untiled
  // sweep's own duplicate-row split copies.
  QiankunNet net(smallConfig(12, 3, 3));
  BasSweepEngine engine(net);
  SamplerOptions opts;
  opts.nSamples = 1 << 14;
  opts.exec.sweepTileRows = kUntiled;
  engine.sweep(opts);
  const nn::DecodeState::SweepStats untiled = engine.decodeState().sweepStats;
  EXPECT_EQ(untiled.detaches, 0);
  EXPECT_EQ(untiled.attaches, 0);

  opts.exec.sweepTileRows = 5;
  engine.sweep(opts);
  const nn::DecodeState::SweepStats tiled = engine.decodeState().sweepStats;
  EXPECT_GT(tiled.detaches, 0);
  EXPECT_EQ(tiled.attaches, tiled.detaches);
  EXPECT_GT(tiled.slotsDetached, 0);
  EXPECT_EQ(tiled.rowsCopied, untiled.rowsCopied);
  EXPECT_EQ(tiled.realsCopied, untiled.realsCopied);
}

TEST(Sweep, WarmFusedSweepIsAllocationFree) {
  // The engine owns and reuses every buffer (frontier blocks, frame stack,
  // decode arena + workspace, output set), so once warm a fused tiled sweep
  // must perform zero heap allocations.  Fixed SIMD kernel: the threaded
  // backend's OpenMP runtime may allocate outside the engine's control.
  QiankunNet net(smallConfig(12, 3, 3));
  BasSweepEngine engine(net);
  SamplerOptions opts;
  opts.nSamples = 1 << 13;
  opts.exec.kernel = nn::kernels::KernelPolicy::kSimd;
  opts.exec.sweepTileRows = 8;  // exercise defer/attach on the warm path too
  // Warm-up sweeps: the first grows the arena, stack and blocks; later ones
  // let capacities reach their fixpoint (popFrame's pool swaps permute block
  // capacities, and since capacities only grow and the permutation repeats
  // every sweep, each block converges to the max requirement of its orbit).
  // Convergence takes more rounds the deeper the stack, so warm adaptively.
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t a0 = allocationCount();
    engine.sweep(opts);
    if (allocationCount() == a0) break;
  }
  const std::uint64_t allocs0 = allocationCount();
  const SampleSet& s = engine.sweep(opts);
  const std::uint64_t sweepAllocs = allocationCount() - allocs0;
  EXPECT_EQ(s.totalWeight(), opts.nSamples);
  EXPECT_EQ(sweepAllocs, 0u);
}

TEST(Sweep, RejectsNegativeTileRows) {
  // 0 is the engine default and n > 0 is n rows; a negative value is an
  // error, not a request for some other path.
  QiankunNet net(smallConfig(8, 2, 2));
  BasSweepEngine engine(net);
  SamplerOptions opts;
  opts.nSamples = 1 << 8;
  opts.exec.sweepTileRows = -1;
  EXPECT_THROW(engine.sweep(opts), std::invalid_argument);
  EXPECT_THROW(engine.sweep(opts, 1, 2, 4), std::invalid_argument);
  opts.exec.sweepTileRows = 0;
  EXPECT_EQ(engine.sweep(opts).totalWeight(), opts.nSamples);
}
