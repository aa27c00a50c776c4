#pragma once

// Batched SIMD local-energy engine (ElocMode::kBatched): the kernels-style
// backend behind vmc::localEnergies.  Sample-aware evaluation only needs the
// coupled states x' that are in S, so instead of applying every Hamiltonian
// group's XY mask and searching S for the result (n x nGroups probes), the
// engine scans S itself: per sample x, a SIMD flip-distance scan
// (batch::flipDistanceScan) keeps the keys x' with popcount(x ^ x') <=
// PackedHamiltonian::maxFlip, and each survivor's mask x ^ x' is looked up
// in the pack-time mask -> group index (PackedHamiltonian::groupOf).  The
// hits are accumulated group by group with batched coefficient passes.
//
// Numerical contract: per-sample E_loc is *identical* (tolerance 0) to
// ElocMode::kSaFuseLut — each sample accumulates its terms in the same
// ascending-group order with the same arithmetic; only the way the coupled
// states are found and the loop nesting change.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bits.hpp"
#include "common/types.hpp"
#include "ops/packed_hamiltonian.hpp"

namespace nnqs::vmc {

struct WavefunctionLut;

/// Observability counters of one localEnergies call on the batched engine.
/// All counters are deterministic (independent of thread count and tile
/// scheduling order).
struct ElocStats {
  std::uint64_t samples = 0;          ///< samples evaluated
  /// (sample, group) pairs decided: samples x nGroups, the work a per-group
  /// probe engine would do.  The denominator of the hit ratio.
  std::uint64_t termsEnumerated = 0;
  std::uint64_t pairsScanned = 0;     ///< (sample, LUT key) pairs: samples x |S|
  /// Scanned pairs rejected by flip distance (popcount(x ^ x') > maxFlip):
  /// never looked up.  The bulk of pairsScanned.
  std::uint64_t filterRejected = 0;
  /// Scan survivors looked up in the mask -> group index;
  /// filterRejected + lutProbes == pairsScanned.
  std::uint64_t lutProbes = 0;
  /// Always 0: the pair scan visits each (sample, x') pair once, so there is
  /// no duplicate probe to save.  Kept for readers of the counter set.
  std::uint64_t dedupedProbes = 0;
  std::uint64_t lutHits = 0;          ///< (sample, group) pairs found in S
  std::uint64_t coeffTerms = 0;       ///< Pauli strings sign-evaluated (hits)
  std::uint64_t nTiles = 0;           ///< sample tiles processed
  /// Per-tile coeffTerms spread: the term-count imbalance measure (the
  /// Fugaku load-balance signal; equal-sample tiles can carry very unequal
  /// term work, which is why the tile loop is dynamically scheduled and why
  /// rank-level repartitioning must split by term count).
  std::uint64_t tileTermsMin = 0;
  std::uint64_t tileTermsMax = 0;

  /// Fraction of scanned pairs that survive the flip-distance test.
  [[nodiscard]] double survivorFraction() const {
    return pairsScanned == 0 ? 0.0
                             : static_cast<double>(lutProbes) /
                                   static_cast<double>(pairsScanned);
  }
};

/// Tuning knobs of the batched engine.  Tests shrink the tile to exercise
/// tile-boundary and ragged-tail paths at small sample counts.
struct ElocBatchedOptions {
  /// Samples per tile (the OpenMP scheduling unit); 0 = default (64).  The
  /// tile is the batch of every group's coefficient pass — the diagonal
  /// group, which every sample hits, carries most of the coefficient work.
  std::size_t sampleBlock = 0;
  /// Cap on the OpenMP team size; 0 = the OpenMP default.  The bench uses 1
  /// to report a single-core median next to the threaded one.
  int maxThreads = 0;
};

/// The batched engine core.  Writes E_loc of samples[i] to out[i] (out must
/// hold samples.size() entries).  Every sample must be present in the LUT
/// (sample-aware evaluation over a chunk of S, as in the other SA engines);
/// throws std::invalid_argument otherwise.  After one warm call per thread
/// with the same tile geometry and |S|, subsequent calls perform zero heap
/// allocations (persistent per-thread tile workspaces and split-key arrays,
/// in-place sort, caller-owned output) — asserted by BM_ElocBatched.
/// `termsPerSample` (optional, samples.size() entries, caller-owned like
/// `out`) receives each sample's realized term count (its share of
/// ElocStats::coeffTerms) — deterministic across thread counts; the measured
/// signal behind the rank-level term repartitioner (vmc/repartition.hpp).
void localEnergiesBatched(const ops::PackedHamiltonian& packed,
                          const std::vector<Bits128>& samples,
                          const WavefunctionLut& lut, Complex* out,
                          const ElocBatchedOptions& opts = {},
                          ElocStats* stats = nullptr,
                          std::uint64_t* termsPerSample = nullptr);

}  // namespace nnqs::vmc
