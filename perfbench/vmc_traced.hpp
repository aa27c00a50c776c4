#pragma once

// Bench-side copy of vmc::runVmc with a span around every public call.
//
// The copy calls the same public library functions in the same order as
// vmc::runVmc, so its energy history must equal runVmc's bit for bit; the
// benchmark checks that on every VMC run, which is what keeps this copy from
// drifting away from runVmc.

#include <cstdint>
#include <vector>

#include "trace.hpp"
#include "vmc/driver.hpp"

namespace perfbench {

/// Counters of one (rank, iteration), read at the layer boundaries.
struct IterCounters {
  std::size_t nuLocal = 0;       ///< this rank's unique samples
  std::size_t nuGlobal = 0;      ///< gathered unique samples (LUT size)
  nnqs::vmc::ElocStats eloc;     ///< this rank's engine counters
  std::uint64_t rankTermsMin = 0, rankTermsMax = 0;
  std::uint64_t bytes = 0;       ///< all ranks' collective bytes (Stages 1-6)
  std::size_t tapeHighWater = 0; ///< Reals, gradient tape arena
  std::size_t ckptBytes = 0;     ///< checkpoint file size, 0 = none written
};

struct TracedVmcResult {
  std::vector<nnqs::Real> energyHistory;
  /// counters[rank][iter]
  std::vector<std::vector<IterCounters>> counters;
};

/// runVmc's six stages with spans recorded into `tracer` (which must have
/// opts.nRanks rank buffers).  Resume is not supported.
TracedVmcResult runVmcTraced(const nnqs::ops::PackedHamiltonian& hamiltonian,
                             const nnqs::nqs::QiankunNetConfig& netConfig,
                             const nnqs::vmc::VmcOptions& opts, Tracer& tracer);

}  // namespace perfbench
