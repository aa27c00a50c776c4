// AVX2 batched Bits128 kernels: two 128-bit samples per 256-bit vector.
//
// Built with -mavx2; nothing here executes unless the cpuid probe in
// avx2Backend() reports AVX2 support (NNQS_ENABLE_AVX2 off compiles this file
// to just the empty fallback).  All operations are integer (XOR, AND, shift),
// so bit-identity with the scalar reference in bits_batch.cpp is structural.
//
// The AND-parity kernel folds each 64-bit lane to its parity with the
// classic xor-shift cascade (no AVX2 vector popcount exists); the two lane
// parities of a sample are combined after the store.  The flip-distance scan
// counts bits with the nibble-LUT (VPSHUFB) popcount: per-byte counts of the
// lo and hi words are added (at most 16 per byte) and summed per 64-bit lane
// with VPSADBW, four keys per vector.

#include "common/bits_batch_impl.hpp"

#if defined(NNQS_ENABLE_AVX2) && defined(__AVX2__)

#include <immintrin.h>

namespace nnqs::batch::detail {

namespace {

/// Per-64-bit-lane parity in bit 0 of each lane.
inline __m256i laneParity(__m256i v) {
  v = _mm256_xor_si256(v, _mm256_srli_epi64(v, 32));
  v = _mm256_xor_si256(v, _mm256_srli_epi64(v, 16));
  v = _mm256_xor_si256(v, _mm256_srli_epi64(v, 8));
  v = _mm256_xor_si256(v, _mm256_srli_epi64(v, 4));
  v = _mm256_xor_si256(v, _mm256_srli_epi64(v, 2));
  v = _mm256_xor_si256(v, _mm256_srli_epi64(v, 1));
  return _mm256_and_si256(v, _mm256_set1_epi64x(1));
}

void parityAndMaskAvx2(const Bits128* xs, std::size_t n, Bits128 mask,
                       unsigned char* out) {
  const __m256i m = _mm256_set_epi64x(
      static_cast<long long>(mask.hi), static_cast<long long>(mask.lo),
      static_cast<long long>(mask.hi), static_cast<long long>(mask.lo));
  std::size_t i = 0;
  alignas(32) std::uint64_t p[4];
  for (; i + 2 <= n; i += 2) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(xs + i));
    _mm256_store_si256(reinterpret_cast<__m256i*>(p),
                       laneParity(_mm256_and_si256(v, m)));
    out[i] = static_cast<unsigned char>(p[0] ^ p[1]);
    out[i + 1] = static_cast<unsigned char>(p[2] ^ p[3]);
  }
  for (; i < n; ++i)
    out[i] = static_cast<unsigned char>(parityAnd(xs[i], mask));
}

/// Per-byte popcounts of v.
inline __m256i bytePopcount(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2,
                                       3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2,
                                       2, 3, 2, 3, 3, 4);
  const __m256i nibble = _mm256_set1_epi8(0x0f);
  return _mm256_add_epi8(
      _mm256_shuffle_epi8(lut, _mm256_and_si256(v, nibble)),
      _mm256_shuffle_epi8(lut,
                          _mm256_and_si256(_mm256_srli_epi16(v, 4), nibble)));
}

std::size_t flipDistanceScanAvx2(Bits128 x, const std::uint64_t* keysLo,
                                 const std::uint64_t* keysHi, std::size_t n,
                                 int maxFlip, std::uint32_t* out) {
  const __m256i xl = _mm256_set1_epi64x(static_cast<long long>(x.lo));
  const __m256i xh = _mm256_set1_epi64x(static_cast<long long>(x.hi));
  const __m256i limit = _mm256_set1_epi64x(maxFlip);
  const __m256i zero = _mm256_setzero_si256();
  std::size_t m = 0, j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256i lo = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keysLo + j)), xl);
    const __m256i hi = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keysHi + j)), xh);
    const __m256i dist = _mm256_sad_epu8(
        _mm256_add_epi8(bytePopcount(lo), bytePopcount(hi)), zero);
    // Lanes with dist > maxFlip set; the survivors are the clear ones.
    auto keep = static_cast<unsigned>(
        ~_mm256_movemask_pd(
            _mm256_castsi256_pd(_mm256_cmpgt_epi64(dist, limit))) &
        0xF);
    while (keep != 0) {
      out[m++] = static_cast<std::uint32_t>(j + std::countr_zero(keep));
      keep &= keep - 1;
    }
  }
  for (; j < n; ++j)
    if (std::popcount(x.lo ^ keysLo[j]) + std::popcount(x.hi ^ keysHi[j]) <=
        maxFlip)
      out[m++] = static_cast<std::uint32_t>(j);
  return m;
}

}  // namespace

Backend avx2Backend() {
  static const bool ok = __builtin_cpu_supports("avx2") != 0;
  if (!ok) return {};
  return {&parityAndMaskAvx2, &flipDistanceScanAvx2, "avx2"};
}

}  // namespace nnqs::batch::detail

#else  // compile-time fallback: non-x86 targets or -DNNQS_ENABLE_AVX2=OFF

namespace nnqs::batch::detail {

Backend avx2Backend() { return {}; }

}  // namespace nnqs::batch::detail

#endif
