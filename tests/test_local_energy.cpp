#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "chem/basis_set.hpp"
#include "chem/geometry_library.hpp"
#include "fci/fci.hpp"
#include "ops/jordan_wigner.hpp"
#include "scf/rhf.hpp"
#include "vmc/local_energy.hpp"

using namespace nnqs;
using namespace nnqs::vmc;

namespace {

struct System {
  ops::PackedHamiltonian packed;
  ops::MadePackedHamiltonian made;
  ops::SpinHamiltonian ham;
  scf::MoIntegrals mo;
  Real eHf;
};

System buildSystem(const char* name) {
  const auto mol = chem::makeMolecule(name);
  const auto basis = chem::buildBasis(mol, "sto-3g");
  const auto ao = scf::computeAoIntegrals(mol, basis);
  const auto hf = scf::runHartreeFock(ao, mol);
  System s{.packed = {}, .made = {}, .ham = {}, .mo = scf::transformToMo(ao, hf), .eHf = hf.energy};
  s.ham = ops::jordanWigner(s.mo);
  s.packed = ops::PackedHamiltonian::fromHamiltonian(s.ham);
  s.made = ops::MadePackedHamiltonian::fromHamiltonian(s.ham);
  return s;
}

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

nqs::QiankunNet netFor(const System& s, std::uint64_t seed = 9) {
  nqs::QiankunNetConfig cfg;
  cfg.nQubits = s.ham.nQubits;
  cfg.nAlpha = s.mo.nAlpha;
  cfg.nBeta = s.mo.nBeta;
  cfg.dModel = 16;
  cfg.nHeads = 4;
  cfg.nDecoders = 2;
  cfg.phaseHidden = 32;
  cfg.phaseHiddenLayers = 1;
  cfg.seed = seed;
  return nqs::QiankunNet(cfg);
}

/// (sample, group) pairs whose coupled state x ^ xyUnique[k] is in S.
std::uint64_t bruteForceHits(const ops::PackedHamiltonian& packed,
                             const std::vector<Bits128>& samples,
                             const WavefunctionLut& lut) {
  std::uint64_t hits = 0;
  for (const Bits128& x : samples)
    for (const Bits128& mask : packed.xyUnique)
      hits += lut.find(x ^ mask) != nullptr ? 1 : 0;
  return hits;
}

/// The batched engine's pair-scan counters: every (sample, key) pair is
/// either rejected by flip distance or looked up, and the hits are exactly
/// the brute-force (sample, group) count.
void expectPairCounters(const ElocStats& stats, std::size_t n,
                        std::size_t nKeys, std::uint64_t bruteHits) {
  EXPECT_EQ(stats.pairsScanned, static_cast<std::uint64_t>(n) * nKeys);
  EXPECT_EQ(stats.filterRejected + stats.lutProbes, stats.pairsScanned);
  EXPECT_LE(stats.lutHits, stats.lutProbes);
  EXPECT_EQ(stats.lutHits, bruteHits);
}

}  // namespace

TEST(WavefunctionLut, BuildAndFind) {
  std::vector<Bits128> keys = {Bits128{5, 0}, Bits128{1, 0}, Bits128{9, 0}};
  std::vector<Complex> psi = {{0.5, 0}, {0.1, 0}, {0.9, 0}};
  const auto lut = WavefunctionLut::build(keys, psi);
  EXPECT_EQ(lut.size(), 3u);
  EXPECT_TRUE(std::is_sorted(lut.keys.begin(), lut.keys.end()));
  ASSERT_NE(lut.find(Bits128{9, 0}), nullptr);
  EXPECT_NEAR(lut.find(Bits128{9, 0})->real(), 0.9, 1e-15);
  EXPECT_EQ(lut.find(Bits128{2, 0}), nullptr);
}

TEST(LocalEnergy, FullSupportAverageEqualsVariationalEnergy) {
  // Over the complete number sector, sum_x p(x) Eloc(x) = <H> exactly.
  const System s = buildSystem("H2");
  nqs::QiankunNet net = netFor(s);
  const auto sector = numberSector(4, 1, 1);
  const auto psi = net.psi(sector);
  const auto lut = WavefunctionLut::build(sector, psi);
  const auto eloc =
      localEnergies(s.packed, sector, lut, ElocMode::kSaFuseLut);

  Complex num{0, 0};
  Real denom = 0;
  for (std::size_t i = 0; i < sector.size(); ++i) {
    const Real p = std::norm(psi[i]);
    num += p * eloc[i];
    denom += p;
  }
  const Real eVar = (num / denom).real();

  // Reference <psi|H|psi>/<psi|psi> via explicit matrix elements.
  Complex ref{0, 0};
  for (std::size_t i = 0; i < sector.size(); ++i)
    for (std::size_t j = 0; j < sector.size(); ++j)
      ref += std::conj(psi[i]) * s.ham.matrixElement(sector[i], sector[j]) * psi[j];
  EXPECT_NEAR(eVar, ref.real() / denom, 1e-8);
}

TEST(LocalEnergy, AllEnginesAgreeOnFullSupport) {
  const System s = buildSystem("LiH");
  nqs::QiankunNet net = netFor(s);
  const auto sector = numberSector(12, 2, 2);
  const auto psi = net.psi(sector);
  const auto lut = WavefunctionLut::build(sector, psi);

  const std::vector<Bits128> probe(sector.begin(), sector.begin() + 12);
  const auto a = localEnergies(s.packed, probe, lut, ElocMode::kSaFuse);
  const auto b = localEnergies(s.packed, probe, lut, ElocMode::kSaFuseLut);
  const auto c = localEnergies(s.packed, probe, lut, ElocMode::kSaFuseLutParallel);
  const auto d = localEnergies(s.packed, probe, lut, ElocMode::kBaseline, &s.made, &net);
  const auto e = localEnergiesExact(s.packed, probe, net);
  const auto f = localEnergies(s.packed, probe, lut, ElocMode::kBatched);
  for (std::size_t i = 0; i < probe.size(); ++i) {
    EXPECT_NEAR(std::abs(a[i] - b[i]), 0.0, 1e-10);
    EXPECT_NEAR(std::abs(b[i] - c[i]), 0.0, 1e-10);
    EXPECT_NEAR(std::abs(b[i] - d[i]), 0.0, 1e-8);
    EXPECT_NEAR(std::abs(b[i] - e[i]), 0.0, 1e-8);
    // The batched engine's contract is tolerance ZERO against kSaFuseLut.
    EXPECT_EQ(b[i].real(), f[i].real());
    EXPECT_EQ(b[i].imag(), f[i].imag());
  }
}

TEST(LocalEnergy, BatchedBitIdenticalAcrossGeometriesAndThreads) {
  // The batched engine must produce bit-identical per-sample E_loc for every
  // tile geometry (ragged tails, tile-boundary sizes, single-row tiles)
  // and every thread count — the accumulation order per sample is fixed by
  // the ascending group walk, not by the work decomposition.
  const System s = buildSystem("LiH");
  nqs::QiankunNet net = netFor(s);
  const auto sector = numberSector(12, 2, 2);
  const auto psi = net.psi(sector);
  const auto lut = WavefunctionLut::build(sector, psi);
  const auto ref = localEnergies(s.packed, sector, lut, ElocMode::kSaFuseLut);
  const std::uint64_t bruteHits = bruteForceHits(s.packed, sector, lut);

  std::vector<Complex> out(sector.size());
  for (const std::size_t sampleBlock : {std::size_t{1}, std::size_t{3},
                                        std::size_t{4}, std::size_t{64},
                                        sector.size(), sector.size() + 7}) {
    for (const int maxThreads : {1, 2, 3, 5}) {
      ElocBatchedOptions opts;
      opts.sampleBlock = sampleBlock;
      opts.maxThreads = maxThreads;
      ElocStats stats;
      localEnergiesBatched(s.packed, sector, lut, out.data(), opts, &stats);
      for (std::size_t i = 0; i < sector.size(); ++i) {
        ASSERT_EQ(ref[i].real(), out[i].real())
            << "sampleBlock=" << sampleBlock << " threads=" << maxThreads
            << " i=" << i;
        ASSERT_EQ(ref[i].imag(), out[i].imag());
      }
      // Counters are deterministic: independent of threads and tiling
      // except for the tile-geometry-dependent ones.
      EXPECT_EQ(stats.samples, sector.size());
      EXPECT_EQ(stats.termsEnumerated, sector.size() * s.packed.nGroups());
      EXPECT_GT(stats.lutHits, 0u);
      expectPairCounters(stats, sector.size(), lut.size(), bruteHits);
    }
  }
}

TEST(LocalEnergy, BatchedStatsDeterminism) {
  const System s = buildSystem("LiH");
  nqs::QiankunNet net = netFor(s);
  const auto sector = numberSector(12, 2, 2);
  const auto psi = net.psi(sector);
  const auto lut = WavefunctionLut::build(sector, psi);

  std::vector<Complex> out(sector.size());
  ElocStats one, two;
  ElocBatchedOptions opts;
  opts.maxThreads = 1;
  localEnergiesBatched(s.packed, sector, lut, out.data(), opts, &one);
  opts.maxThreads = 4;
  localEnergiesBatched(s.packed, sector, lut, out.data(), opts, &two);
  // Sum/min/max merges are commutative: identical counters at any team size.
  EXPECT_EQ(one.lutProbes, two.lutProbes);
  EXPECT_EQ(one.dedupedProbes, two.dedupedProbes);
  EXPECT_EQ(one.lutHits, two.lutHits);
  EXPECT_EQ(one.coeffTerms, two.coeffTerms);
  EXPECT_EQ(one.tileTermsMin, two.tileTermsMin);
  EXPECT_EQ(one.tileTermsMax, two.tileTermsMax);
  // The pair scan accounts for every (sample, key) pair, and its hits are
  // exactly the (sample, group) pairs whose coupled state is in S.
  expectPairCounters(one, sector.size(), lut.size(),
                     bruteForceHits(s.packed, sector, lut));
  EXPECT_LE(one.tileTermsMin, one.tileTermsMax);
}

TEST(LocalEnergy, BatchedWideRegisterBitIdentical) {
  // A synthetic 72-qubit Hamiltonian: XY flips in the hi word and across the
  // word boundary, and one string flipping 6 qubits, so the engine's flip
  // bound must come from the Hamiltonian (PackedHamiltonian::maxFlip), not
  // from the 4 of molecular JW Hamiltonians.  S is closed enough under the
  // group masks that every kind of group hits.
  constexpr int kQubits = 72;
  std::uint64_t state = 0x3C6EF372FE94F82Bull;  // splitmix64
  auto next = [&state]() {
    state += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  const Bits128 width = Bits128::lowMask(kQubits);
  auto bits = [](std::initializer_list<int> qs) {
    Bits128 b;
    for (const int q : qs) b.set(q);
    return b;
  };
  const std::vector<Bits128> flips = {
      Bits128{},                          // diagonal
      bits({3, 9}),                       // lo word
      bits({66, 70}),                     // hi word
      bits({62, 65}),                     // across the word boundary
      bits({1, 2, 64, 71}),               // 4 flips, both words
      bits({5, 17, 40, 63, 64, 68}),      // 6 flips: beyond the JW bound
  };
  // Y on the two lowest flipped qubits of x: keeps the Y count even.
  auto lowestTwo = [](Bits128 x) {
    Bits128 out;
    for (int q = 0, found = 0; q < 128 && found < 2; ++q)
      if (x.get(q)) {
        out.set(q);
        ++found;
      }
    return out;
  };
  ops::SpinHamiltonian h;
  h.nQubits = kQubits;
  h.constant = -1.25;
  for (const Bits128& x : flips)
    for (int t = 0; t < 5; ++t) {
      const Bits128 notX{~x.lo, ~x.hi};
      Bits128 z = Bits128{next(), next()} & width & notX;
      if (t % 2 == 1) z |= lowestTwo(x);
      h.strings.push_back(ops::PauliString{x, z});
      h.coeffs.push_back(static_cast<Real>(next() % 2001) / 1000.0 - 1.0);
    }
  const auto packed = ops::PackedHamiltonian::fromHamiltonian(h);
  ASSERT_EQ(packed.maxFlip, 6);

  std::vector<Bits128> samples;
  for (int base = 0; base < 24; ++base) {
    const Bits128 x0 = Bits128{next(), next()} & width;
    samples.push_back(x0);
    for (std::size_t f = 1; f < flips.size(); ++f)
      if ((next() & 3) != 0) samples.push_back(x0 ^ flips[f]);
  }
  std::sort(samples.begin(), samples.end());
  samples.erase(std::unique(samples.begin(), samples.end()), samples.end());
  std::vector<Complex> psi;
  for (std::size_t i = 0; i < samples.size(); ++i)
    psi.emplace_back(0.5 + static_cast<Real>(next() % 1000) / 1000.0,
                     static_cast<Real>(next() % 1000) / 2000.0 - 0.25);
  const auto lut = WavefunctionLut::build(samples, psi);
  const auto ref = localEnergies(packed, samples, lut, ElocMode::kSaFuseLut);
  const std::uint64_t bruteHits = bruteForceHits(packed, samples, lut);
  ASSERT_GT(bruteHits, samples.size());  // more than the diagonal

  std::vector<Complex> out(samples.size());
  for (const std::size_t sampleBlock : {std::size_t{1}, std::size_t{3},
                                        std::size_t{64}, samples.size() + 7}) {
    for (const int maxThreads : {1, 2, 5}) {
      ElocBatchedOptions opts;
      opts.sampleBlock = sampleBlock;
      opts.maxThreads = maxThreads;
      ElocStats stats;
      localEnergiesBatched(packed, samples, lut, out.data(), opts, &stats);
      for (std::size_t i = 0; i < samples.size(); ++i) {
        ASSERT_EQ(ref[i].real(), out[i].real())
            << "sampleBlock=" << sampleBlock << " threads=" << maxThreads
            << " i=" << i;
        ASSERT_EQ(ref[i].imag(), out[i].imag());
      }
      expectPairCounters(stats, samples.size(), lut.size(), bruteHits);
    }
  }
}

TEST(LocalEnergy, BatchedPartialSectorLutMissPath) {
  // With a partial S, the batched engine must skip exactly the coupled
  // states outside S — same truncation as kSaFuseLut, bit for bit.
  const System s = buildSystem("LiH");
  nqs::QiankunNet net = netFor(s);
  const auto sector = numberSector(12, 2, 2);
  const auto psi = net.psi(sector);
  // S = every other state of the sector (stays sorted).
  std::vector<Bits128> partial;
  std::vector<Complex> partialPsi;
  for (std::size_t i = 0; i < sector.size(); i += 2) {
    partial.push_back(sector[i]);
    partialPsi.push_back(psi[i]);
  }
  const auto lut = WavefunctionLut::build(partial, partialPsi);
  const auto ref = localEnergies(s.packed, partial, lut, ElocMode::kSaFuseLut);
  std::vector<Complex> out(partial.size());
  ElocBatchedOptions opts;
  opts.sampleBlock = 5;  // ragged tiles over the miss-heavy path
  localEnergiesBatched(s.packed, partial, lut, out.data(), opts, nullptr);
  for (std::size_t i = 0; i < partial.size(); ++i) {
    EXPECT_EQ(ref[i].real(), out[i].real());
    EXPECT_EQ(ref[i].imag(), out[i].imag());
  }
}

TEST(LocalEnergy, BatchedEmptyAndSingleSample) {
  const System s = buildSystem("H2");
  nqs::QiankunNet net = netFor(s);
  const auto sector = numberSector(4, 1, 1);
  const auto psi = net.psi(sector);
  const auto lut = WavefunctionLut::build(sector, psi);

  const std::vector<Bits128> none;
  ElocStats stats;
  localEnergiesBatched(s.packed, none, lut, nullptr, {}, &stats);
  EXPECT_EQ(stats.samples, 0u);
  EXPECT_EQ(stats.nTiles, 0u);
  EXPECT_EQ(stats.tileTermsMin, 0u);

  const std::vector<Bits128> one{sector[1]};
  const auto ref = localEnergies(s.packed, one, lut, ElocMode::kSaFuseLut);
  Complex out;
  localEnergiesBatched(s.packed, one, lut, &out, {}, nullptr);
  EXPECT_EQ(ref[0].real(), out.real());
  EXPECT_EQ(ref[0].imag(), out.imag());
}

TEST(LocalEnergy, BatchedThrowsOnSampleOutsideS) {
  const System s = buildSystem("H2");
  nqs::QiankunNet net = netFor(s);
  const auto sector = numberSector(4, 1, 1);
  const auto psi = net.psi(sector);
  // LUT without the last sector state; asking for its E_loc must throw.
  const std::vector<Bits128> partial(sector.begin(), sector.end() - 1);
  const std::vector<Complex> partialPsi(psi.begin(), psi.end() - 1);
  const auto lut = WavefunctionLut::build(partial, partialPsi);
  std::vector<Complex> out(1);
  EXPECT_THROW(localEnergiesBatched(s.packed, {sector.back()}, lut, out.data()),
               std::invalid_argument);
}

TEST(WavefunctionLut, BuildRejectsDuplicateKeys) {
  // Regression: build() used to silently accept duplicate samples, making
  // find() results depend on sort tie-breaking.
  std::vector<Bits128> keys = {Bits128{5, 0}, Bits128{1, 0}, Bits128{5, 0}};
  std::vector<Complex> psi = {{0.5, 0}, {0.1, 0}, {0.7, 0}};
  EXPECT_THROW(WavefunctionLut::build(keys, psi), std::invalid_argument);
}

TEST(LocalEnergy, SampleAwareIsTruncationOfExact) {
  // With a partial S the sample-aware value differs from the exact one by
  // exactly the terms whose coupled state lies outside S.
  const System s = buildSystem("H2");
  nqs::QiankunNet net = netFor(s);
  const auto sector = numberSector(4, 1, 1);
  const auto psi = net.psi(sector);
  // S = first two states only.
  const std::vector<Bits128> partial(sector.begin(), sector.begin() + 2);
  const std::vector<Complex> partialPsi(psi.begin(), psi.begin() + 2);
  const auto lut = WavefunctionLut::build(partial, partialPsi);
  const auto sa = localEnergies(s.packed, {partial[0]}, lut, ElocMode::kSaFuseLut);

  Complex manual{s.packed.constant, 0};
  for (std::size_t k = 0; k < s.packed.nGroups(); ++k) {
    const Bits128 xp = partial[0] ^ s.packed.xyUnique[k];
    const Complex* hit = lut.find(xp);
    if (hit == nullptr) continue;
    manual += s.packed.groupCoefficient(k, partial[0]) * (*hit) / psi[0];
  }
  EXPECT_NEAR(std::abs(sa[0] - manual), 0.0, 1e-12);
}

TEST(LocalEnergy, HartreeFockStateGivesHfEnergy) {
  // For a wavefunction concentrated on the HF determinant, Eloc(HF det)
  // equals <HF|H|HF> when S = {HF det} (only the diagonal survives).
  const System s = buildSystem("BeH2");
  const Bits128 hfDet = fci::hartreeFockDeterminant(s.mo.nAlpha, s.mo.nBeta);
  const auto lut = WavefunctionLut::build({hfDet}, {Complex{1.0, 0.0}});
  const auto eloc = localEnergies(s.packed, {hfDet}, lut, ElocMode::kSaFuseLut);
  EXPECT_NEAR(eloc[0].real(), s.eHf, 1e-8);
  EXPECT_NEAR(eloc[0].imag(), 0.0, 1e-10);
}

TEST(LocalEnergy, FciStateGivesConstantLocalEnergy) {
  // Property: for an exact eigenstate, Eloc(x) = E_0 for every x in the
  // support.  Feed the FCI ground state through the LUT.
  const System s = buildSystem("H2");
  const auto fciRes = fci::runFci(s.mo);
  std::vector<Complex> psi(fciRes.basis.size());
  for (std::size_t i = 0; i < psi.size(); ++i)
    psi[i] = Complex{fciRes.groundState[i], 0.0};
  const auto lut = WavefunctionLut::build(fciRes.basis, psi);
  const auto eloc = localEnergies(s.packed, fciRes.basis, lut, ElocMode::kSaFuseLut);
  for (std::size_t i = 0; i < eloc.size(); ++i) {
    if (std::abs(psi[i]) < 1e-6) continue;  // ratio ill-conditioned at nodes
    EXPECT_NEAR(eloc[i].real(), fciRes.energy, 1e-6);
    EXPECT_NEAR(eloc[i].imag(), 0.0, 1e-8);
  }
}
