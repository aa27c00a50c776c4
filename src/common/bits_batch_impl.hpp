#pragma once

// Internal backend table of the batched Bits128 kernels (common/bits.hpp,
// namespace nnqs::batch).  Each SIMD translation unit exports a probe that
// returns its kernels when both compiled in and supported by the CPU,
// nullptr otherwise — the same runtime-dispatch pattern as
// nn/kernels/attn_row.hpp.  Tests and the microbench call the per-backend
// entries directly to compare them with the scalar references.

#include <cstddef>

#include "common/bits.hpp"

namespace nnqs::batch::detail {

using ParityFn = void (*)(const Bits128*, std::size_t, Bits128, unsigned char*);
using FlipScanFn = std::size_t (*)(Bits128, const std::uint64_t*,
                                   const std::uint64_t*, std::size_t, int,
                                   std::uint32_t*);

struct Backend {
  ParityFn parityAndMask = nullptr;
  FlipScanFn flipScan = nullptr;
  const char* name = nullptr;
};

/// AVX2 kernels (flip scan: nibble-LUT popcount); all-null when not compiled
/// in or the CPU lacks AVX2.
Backend avx2Backend();
/// AVX-512F kernels; same fallback convention.  `flipScan` has its own probe:
/// it uses VPOPCNTQ and is null on AVX-512F CPUs without AVX512_VPOPCNTDQ.
Backend avx512Backend();

}  // namespace nnqs::batch::detail
