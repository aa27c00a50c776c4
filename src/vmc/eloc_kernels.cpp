// Batched SIMD local-energy engine.  See eloc_kernels.hpp for the contract.
//
// Work decomposition: samples are cut into tiles of `sampleBlock` rows.  Per
// tile:
//
//   1. Pair scan — for each tile sample x, batch::flipDistanceScan walks the
//      split lo/hi words of every LUT key x' and keeps the pairs with
//      popcount(x ^ x') <= PackedHamiltonian::maxFlip (a Hamiltonian string
//      flips at most maxFlip qubits, so no coupled state lies farther away).
//      Each survivor's mask x ^ x' is looked up in the pack-time
//      mask -> group index; a found group is a hit (group, row, LUT index).
//      The work is n x |S| cheap integer operations instead of n x nGroups
//      hashed probes, and in the sample-aware regime |S| is small next to
//      nGroups for every molecule beyond the smallest.
//   2. Ordering — the tile's hits are sorted by (group, row).  Each
//      (sample, group) pair has at most one coupled state, so the order is
//      total and the result independent of how the hits were found.
//   3. Accumulation — for each group, gather the rows it hit, evaluate the
//      group's premultiplied coefficients for those rows in one batched
//      sign-stream pass (PackedHamiltonian::groupCoefficients), and
//      accumulate coef * psi(x') / psi(x) per row.  Groups are walked in
//      ascending order, so every sample receives its terms in exactly the
//      kSaFuseLut order: per-sample E_loc is bit-identical to the scalar
//      engine.  The diagonal group, hit by every sample, carries most of the
//      coefficient work and runs as one pass over the whole tile.
//
// Scheduling: tiles are an OpenMP loop under schedule(dynamic, 1) — the
// Fugaku-identified imbalance is *term* work (hits per sample vary wildly
// across the sample set), so idle threads steal whole tiles as they drain
// instead of owning a fixed sample range.  ElocStats records the realized
// per-tile term counts (min/max) to expose residual imbalance; the same
// measured term counts are what the rank-level repartitioner balances.

#include "vmc/eloc_kernels.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <stdexcept>

#include "vmc/local_energy.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace nnqs::vmc {

namespace {

constexpr std::size_t kDefaultSampleBlock = 64;

/// A coupled state of a tile sample found in S.
struct Hit {
  std::uint64_t order;  ///< (group << 32) | tile row: the accumulation order
  std::int32_t lutIdx;  ///< LUT index of the coupled state
};

/// Per-thread tile workspace.  All buffer sizes depend only on the tile
/// geometry, |S| and nGroups, so one warm call sizes every vector to its
/// steady state and the warm path never allocates (thread_local lifetime,
/// like the kernel scratch in nn/kernels/dispatch.cpp).
struct TileWs {
  std::vector<std::uint32_t> survivors;  ///< [|S|] scan output of one sample
  /// The tile's hits.  Capacity for the worst case rows * min(nGroups, |S|)
  /// is reserved, so push_back never reallocates; only the pages actually
  /// written are touched.
  std::vector<Hit> hits;
  std::vector<Bits128> xsHit;           ///< [rows] gathered hit samples
  std::vector<std::int32_t> rowHit;     ///< [rows] tile row of each hit
  std::vector<std::int32_t> psiIdxHit;  ///< [rows] LUT index of each hit
  std::vector<Real> coefs;              ///< [rows] batched group coefficients
  std::vector<unsigned char> parity;    ///< [rows] sign-stream scratch
  std::vector<Complex> psiX;            ///< [rows] psi of the tile's samples

  void ensure(std::size_t rows, std::size_t nKeys, std::size_t nGroups) {
    if (survivors.size() < nKeys) survivors.resize(nKeys);
    hits.reserve(rows * std::min(nGroups, nKeys));
    if (xsHit.size() < rows) xsHit.resize(rows);
    if (rowHit.size() < rows) rowHit.resize(rows);
    if (psiIdxHit.size() < rows) psiIdxHit.resize(rows);
    if (coefs.size() < rows) coefs.resize(rows);
    if (parity.size() < rows) parity.resize(rows);
    if (psiX.size() < rows) psiX.resize(rows);
  }
};

TileWs& tileWs() {
  static thread_local TileWs ws;
  return ws;
}

}  // namespace

void localEnergiesBatched(const ops::PackedHamiltonian& packed,
                          const std::vector<Bits128>& samples,
                          const WavefunctionLut& lut, Complex* out,
                          const ElocBatchedOptions& opts, ElocStats* stats,
                          std::uint64_t* termsPerSample) {
  if (stats != nullptr) *stats = ElocStats{};
  const std::size_t n = samples.size();
  if (n == 0) return;
  const std::size_t nS = lut.size();
  if (nS > static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max()))
    throw std::invalid_argument("localEnergiesBatched: LUT too large");

  const std::size_t nGroups = packed.nGroups();
  const std::size_t rowsCap =
      std::max<std::size_t>(1, opts.sampleBlock != 0 ? opts.sampleBlock
                                                     : kDefaultSampleBlock);
  const std::size_t nTiles = (n + rowsCap - 1) / rowsCap;

  int nThreads = 1;
#ifdef _OPENMP
  nThreads = opts.maxThreads > 0 ? opts.maxThreads : omp_get_max_threads();
#endif

  // Split word arrays of the LUT keys, the flip scan's input: built once per
  // call, shared read-only by the whole team, persistent per calling thread
  // so the warm path stays allocation-free.
  static thread_local std::vector<std::uint64_t> keysLoBuf, keysHiBuf;
  if (keysLoBuf.size() < nS) {
    keysLoBuf.resize(nS);
    keysHiBuf.resize(nS);
  }
  for (std::size_t j = 0; j < nS; ++j) {
    keysLoBuf[j] = lut.keys[j].lo;
    keysHiBuf[j] = lut.keys[j].hi;
  }
  const std::uint64_t* keysLo = keysLoBuf.data();
  const std::uint64_t* keysHi = keysHiBuf.data();

  ElocStats total;
  total.samples = n;
  total.nTiles = nTiles;
  total.tileTermsMin = std::numeric_limits<std::uint64_t>::max();
  // Thrown errors must not cross the parallel region; record and rethrow.
  std::atomic<bool> sampleMissing{false};

#pragma omp parallel num_threads(nThreads)
  {
    // Sized at region entry (not per tile) so every team member warms its
    // workspace on the first call even if dynamic scheduling assigns it no
    // tile — the zero-allocation warm path is then thread-schedule-proof.
    TileWs& ws = tileWs();
    ws.ensure(rowsCap, nS, nGroups);
    ElocStats local;
    local.tileTermsMin = std::numeric_limits<std::uint64_t>::max();

#ifdef _OPENMP
#pragma omp for schedule(dynamic, 1)
#endif
    for (std::ptrdiff_t tile = 0; tile < static_cast<std::ptrdiff_t>(nTiles);
         ++tile) {
      const std::size_t i0 = static_cast<std::size_t>(tile) * rowsCap;
      const std::size_t rows = std::min(rowsCap, n - i0);
      const Bits128* xs = samples.data() + i0;

      bool tileOk = true;
      for (std::size_t r = 0; r < rows; ++r) {
        const Complex* px = lut.find(xs[r]);
        if (px == nullptr) {
          sampleMissing.store(true, std::memory_order_relaxed);
          tileOk = false;
          break;
        }
        ws.psiX[r] = *px;
        out[i0 + r] = Complex{packed.constant, 0.0};
        if (termsPerSample != nullptr) termsPerSample[i0 + r] = 0;
      }
      if (!tileOk) continue;

      // 1. Pair scan: survivors of the flip-distance test, then the mask
      //    index decides which of them a Hamiltonian group couples.
      ws.hits.clear();
      std::uint64_t tileSurvivors = 0;
      for (std::size_t r = 0; r < rows; ++r) {
        const std::size_t m = batch::flipDistanceScan(
            xs[r], keysLo, keysHi, nS, packed.maxFlip, ws.survivors.data());
        tileSurvivors += m;
        for (std::size_t c = 0; c < m; ++c) {
          const std::uint32_t j = ws.survivors[c];
          const std::int32_t k = packed.groupOf(xs[r] ^ lut.keys[j]);
          if (k >= 0)
            ws.hits.push_back({(static_cast<std::uint64_t>(k) << 32) | r,
                               static_cast<std::int32_t>(j)});
        }
      }

      // 2. Ascending (group, row) order.
      std::sort(ws.hits.begin(), ws.hits.end(),
                [](const Hit& a, const Hit& b) { return a.order < b.order; });

      // 3. Batched coefficients + ascending-group accumulation.
      std::uint64_t tileTerms = 0;
      const std::size_t nHits = ws.hits.size();
      for (std::size_t h = 0; h < nHits;) {
        const std::size_t k = ws.hits[h].order >> 32;
        std::size_t m = 0;
        for (; h < nHits && (ws.hits[h].order >> 32) == k; ++h, ++m) {
          const auto r = static_cast<std::uint32_t>(ws.hits[h].order);
          ws.xsHit[m] = xs[r];
          ws.rowHit[m] = static_cast<std::int32_t>(r);
          ws.psiIdxHit[m] = ws.hits[h].lutIdx;
        }
        packed.groupCoefficients(k, ws.xsHit.data(), m, ws.coefs.data(),
                                 ws.parity.data());
        const auto groupTerms =
            static_cast<std::uint64_t>(packed.idxs[k + 1] - packed.idxs[k]);
        tileTerms += static_cast<std::uint64_t>(m) * groupTerms;
        if (termsPerSample != nullptr)
          for (std::size_t j = 0; j < m; ++j)
            termsPerSample[i0 + static_cast<std::size_t>(ws.rowHit[j])] +=
                groupTerms;
        for (std::size_t j = 0; j < m; ++j) {
          const Real coef = ws.coefs[j];
          if (coef == 0.0) continue;
          const auto r = static_cast<std::size_t>(ws.rowHit[j]);
          out[i0 + r] += coef *
                         lut.psi[static_cast<std::size_t>(ws.psiIdxHit[j])] /
                         ws.psiX[r];
        }
      }

      const auto tilePairs = static_cast<std::uint64_t>(rows) * nS;
      local.termsEnumerated += static_cast<std::uint64_t>(rows) * nGroups;
      local.pairsScanned += tilePairs;
      local.filterRejected += tilePairs - tileSurvivors;
      local.lutProbes += tileSurvivors;
      local.lutHits += nHits;
      local.coeffTerms += tileTerms;
      local.tileTermsMin = std::min(local.tileTermsMin, tileTerms);
      local.tileTermsMax = std::max(local.tileTermsMax, tileTerms);
    }

#pragma omp critical(nnqs_eloc_stats)
    {
      total.termsEnumerated += local.termsEnumerated;
      total.pairsScanned += local.pairsScanned;
      total.filterRejected += local.filterRejected;
      total.lutProbes += local.lutProbes;
      total.lutHits += local.lutHits;
      total.coeffTerms += local.coeffTerms;
      total.tileTermsMin = std::min(total.tileTermsMin, local.tileTermsMin);
      total.tileTermsMax = std::max(total.tileTermsMax, local.tileTermsMax);
    }
  }

  if (sampleMissing.load(std::memory_order_relaxed))
    throw std::invalid_argument(
        "localEnergiesBatched: sample not found in the wavefunction LUT "
        "(the batched engine is sample-aware and expects samples from S)");
  if (total.tileTermsMin == std::numeric_limits<std::uint64_t>::max())
    total.tileTermsMin = 0;
  if (stats != nullptr) *stats = total;
}

}  // namespace nnqs::vmc
