// Kernel-policy resolution and the serial / OpenMP-threaded drivers over the
// per-(row, head) decode-attention kernels.

#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "nn/kernels/attn_row.hpp"

#ifdef __linux__
#include <sys/mman.h>
#endif

namespace nnqs::nn::kernels {

namespace {
/// Below this many (row, head) tiles the fork/join overhead of the threaded
/// driver exceeds the tile work (matches the historical `batch * heads > 8`
/// OpenMP if-clause of the pre-kernel decodeStep).
constexpr Index kMinTilesForThreads = 8;
}  // namespace

bool simdAvailable() {
  return detail::avx512Row() != nullptr || detail::avx2Row() != nullptr;
}

const char* kernelPolicyName(KernelPolicy policy) {
  switch (policy) {
    case KernelPolicy::kAuto: return "auto";
    case KernelPolicy::kScalar: return "scalar";
    case KernelPolicy::kSimd: return "simd";
    case KernelPolicy::kThreaded: return "threaded";
  }
  return "unknown";
}

const char* effectiveKernelName(KernelPolicy policy) {
  if (policy == KernelPolicy::kScalar) return "scalar";
  const bool simd = simdAvailable();
  switch (policy) {
    case KernelPolicy::kSimd: return simd ? "simd" : "scalar";
    case KernelPolicy::kThreaded: return simd ? "threaded" : "omp-sclr";
    case KernelPolicy::kAuto: return simd ? "auto-simd" : "auto-sclr";
    default: return "unknown";
  }
}

void adviseHugePages([[maybe_unused]] const void* p,
                     [[maybe_unused]] std::size_t bytes) {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  // Align inward to whole pages; madvise is advisory, failures are fine.
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t kPage = 4096;
  const std::uintptr_t lo = (addr + kPage - 1) & ~(kPage - 1);
  const std::uintptr_t hi = (addr + bytes) & ~(kPage - 1);
  if (hi > lo) madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_HUGEPAGE);
#endif
}

HugeBuffer::~HugeBuffer() { std::free(p_); }

void HugeBuffer::assignZero(std::size_t count) {
  std::free(p_);
  p_ = nullptr;
  n_ = 0;
  cap_ = 0;
  if (count == 0) return;
  constexpr std::size_t kHuge = std::size_t{2} << 20;
  const std::size_t bytes = (count * sizeof(Real) + kHuge - 1) & ~(kHuge - 1);
  p_ = static_cast<Real*>(std::aligned_alloc(kHuge, bytes));
  if (p_ == nullptr) throw std::bad_alloc();
  adviseHugePages(p_, bytes);  // before the memset faults the pages in
  std::memset(p_, 0, bytes);
  n_ = count;
  cap_ = bytes / sizeof(Real);
}

KernelPolicy resolvePolicy(KernelPolicy policy, Index batch, Index heads) {
  if (policy != KernelPolicy::kAuto) return policy;
  return batch * heads > kMinTilesForThreads ? KernelPolicy::kThreaded
                                             : KernelPolicy::kSimd;
}

void decodeAttention(const DecodeAttnArgs& a, KernelPolicy policy) {
  if (a.batch <= 0) return;
  assert(a.heads * a.headDim == a.dModel);
  assert(a.pos >= 0 && a.pos < a.maxLen);
  policy = resolvePolicy(policy, a.batch, a.heads);
  detail::RowFn row = detail::avx512Row();
  if (row == nullptr) row = detail::avx2Row();
  if (policy == KernelPolicy::kScalar || row == nullptr) row = &detail::scalarRow;

  // Per-head e_j arrays plus one rinv per head (attn_row.hpp scratch layout).
  // The scratch is thread_local and kept across calls (like the GEMM pack
  // buffer): the decode path runs one decodeAttention per layer per step, and
  // a fresh vector each call was a steady-state heap allocation the
  // zero-allocation decode contract forbids.
  const auto scratchLen =
      static_cast<std::size_t>(a.heads * (a.pos + 1) + a.heads);
  static thread_local std::vector<Real> scoresScratch;
  if (policy == KernelPolicy::kThreaded && a.batch * a.heads > kMinTilesForThreads) {
#pragma omp parallel
    {
      // Each worker grows its own thread_local once, then reuses it.
      if (scoresScratch.size() < scratchLen) scoresScratch.resize(scratchLen);
#pragma omp for schedule(static)
      for (Index b = 0; b < a.batch; ++b) row(a, b, scoresScratch.data());
    }
  } else {
    if (scoresScratch.size() < scratchLen) scoresScratch.resize(scratchLen);
    for (Index b = 0; b < a.batch; ++b) row(a, b, scoresScratch.data());
  }
}

}  // namespace nnqs::nn::kernels
