// Scalar reference implementations and runtime dispatch of the batched
// Bits128 kernels.  The scalar loops are the contract ground truth; the SIMD
// backends (bits_batch_avx2.cpp / bits_batch_avx512.cpp) must match them bit
// for bit (pure integer arithmetic, so equality is structural, not a
// tolerance).

#include "common/bits_batch_impl.hpp"

namespace nnqs::batch {

void parityAndMaskScalar(const Bits128* xs, std::size_t n, Bits128 mask,
                         unsigned char* out) {
  for (std::size_t i = 0; i < n; ++i)
    out[i] = static_cast<unsigned char>(parityAnd(xs[i], mask));
}

std::size_t flipDistanceScanScalar(Bits128 x, const std::uint64_t* keysLo,
                                   const std::uint64_t* keysHi, std::size_t n,
                                   int maxFlip, std::uint32_t* out) {
  std::size_t m = 0;
  for (std::size_t j = 0; j < n; ++j)
    if (std::popcount(x.lo ^ keysLo[j]) + std::popcount(x.hi ^ keysHi[j]) <=
        maxFlip)
      out[m++] = static_cast<std::uint32_t>(j);
  return m;
}

namespace {

/// Fills each kernel from the most preferred backend that provides it (the
/// flip scan resolves on its own probe, see bits_batch_impl.hpp).
detail::Backend resolveBackend() {
  detail::Backend d{&parityAndMaskScalar, &flipDistanceScanScalar,
                    "scalar"};
  for (const detail::Backend& b :  // ascending preference
       {detail::avx2Backend(), detail::avx512Backend()}) {
    if (b.parityAndMask != nullptr) {
      d.parityAndMask = b.parityAndMask;
      d.name = b.name;
    }
    if (b.flipScan != nullptr) d.flipScan = b.flipScan;
  }
  return d;
}

const detail::Backend& backend() {
  static const detail::Backend b = resolveBackend();
  return b;
}

}  // namespace

void parityAndMask(const Bits128* xs, std::size_t n, Bits128 mask,
                   unsigned char* out) {
  backend().parityAndMask(xs, n, mask, out);
}

std::size_t flipDistanceScan(Bits128 x, const std::uint64_t* keysLo,
                             const std::uint64_t* keysHi, std::size_t n,
                             int maxFlip, std::uint32_t* out) {
  return backend().flipScan(x, keysLo, keysHi, n, maxFlip, out);
}

const char* backendName() { return backend().name; }

}  // namespace nnqs::batch
