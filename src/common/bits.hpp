#pragma once

#include <array>
#include <bit>
#include <compare>
#include <cstdint>
#include <functional>
#include <string>

namespace nnqs {

/// 128-bit mask: the occupation-number bitstring of up to 128 qubits / spin
/// orbitals.  Bit j is qubit j.  This is the fundamental "sample" type of the
/// whole code base: Pauli-string masks, Slater determinants and Monte-Carlo
/// samples are all Bits128.
struct Bits128 {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  constexpr Bits128() = default;
  constexpr Bits128(std::uint64_t lo_, std::uint64_t hi_) : lo(lo_), hi(hi_) {}

  static constexpr Bits128 zero() { return {}; }

  [[nodiscard]] constexpr bool get(int j) const {
    return j < 64 ? ((lo >> j) & 1u) : ((hi >> (j - 64)) & 1u);
  }
  constexpr void set(int j, bool v = true) {
    std::uint64_t m = std::uint64_t{1} << (j & 63);
    std::uint64_t& w = (j < 64) ? lo : hi;
    if (v)
      w |= m;
    else
      w &= ~m;
  }
  constexpr void flip(int j) {
    std::uint64_t m = std::uint64_t{1} << (j & 63);
    ((j < 64) ? lo : hi) ^= m;
  }

  [[nodiscard]] constexpr int popcount() const {
    return std::popcount(lo) + std::popcount(hi);
  }
  [[nodiscard]] constexpr bool any() const { return (lo | hi) != 0; }
  [[nodiscard]] constexpr bool none() const { return !any(); }

  friend constexpr Bits128 operator&(Bits128 a, Bits128 b) {
    return {a.lo & b.lo, a.hi & b.hi};
  }
  friend constexpr Bits128 operator|(Bits128 a, Bits128 b) {
    return {a.lo | b.lo, a.hi | b.hi};
  }
  friend constexpr Bits128 operator^(Bits128 a, Bits128 b) {
    return {a.lo ^ b.lo, a.hi ^ b.hi};
  }
  constexpr Bits128& operator&=(Bits128 b) {
    lo &= b.lo;
    hi &= b.hi;
    return *this;
  }
  constexpr Bits128& operator|=(Bits128 b) {
    lo |= b.lo;
    hi |= b.hi;
    return *this;
  }
  constexpr Bits128& operator^=(Bits128 b) {
    lo ^= b.lo;
    hi ^= b.hi;
    return *this;
  }

  friend constexpr bool operator==(Bits128 a, Bits128 b) = default;
  /// Value order (hi word most significant) — used for the sorted sample
  /// lookup table (paper §3.4, technique 5).
  friend constexpr auto operator<=>(Bits128 a, Bits128 b) {
    if (auto c = a.hi <=> b.hi; c != 0) return c;
    return a.lo <=> b.lo;
  }

  /// Mask with bits [0, n) set.
  static constexpr Bits128 lowMask(int n) {
    if (n <= 0) return {};
    if (n >= 128) return {~std::uint64_t{0}, ~std::uint64_t{0}};
    if (n < 64) return {(std::uint64_t{1} << n) - 1, 0};
    if (n == 64) return {~std::uint64_t{0}, 0};
    return {~std::uint64_t{0}, (std::uint64_t{1} << (n - 64)) - 1};
  }

  /// Parity (mod 2) of the number of set bits.
  [[nodiscard]] constexpr int parity() const { return popcount() & 1; }
};

/// Parity of popcount(a & b); the workhorse of Pauli-string phase evaluation.
constexpr int parityAnd(Bits128 a, Bits128 b) { return (a & b).parity(); }

/// "q3 q2 q1 q0"-style string, qubit 0 rightmost, for n qubits.
std::string toBitString(Bits128 b, int nQubits);
/// Inverse of toBitString; accepts optional whitespace.
Bits128 fromBitString(const std::string& s);

struct Bits128Hash {
  std::size_t operator()(const Bits128& b) const noexcept {
    // splitmix-style combine of the two words.
    std::uint64_t x = b.lo * 0x9E3779B97F4A7C15ull;
    x ^= (x >> 30);
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= b.hi + 0x94D049BB133111EBull + (x << 6) + (x >> 2);
    return static_cast<std::size_t>(x ^ (x >> 31));
  }
};

/// Batched Bits128 kernels (AND-parity sign streams, flip-distance scans)
/// over contiguous arrays — the bit-level inner loops of the batched
/// local-energy engine.  Same backend contract as src/nn/kernels: a scalar
/// reference is the ground truth, the AVX2/AVX-512 variants (runtime cpuid
/// dispatch, built only when the compiler supports them) must produce
/// *identical* output — trivially achievable here since every operation is
/// integer, but asserted by tests/test_bits.cpp all the same so the contract
/// survives future fancier kernels.
namespace batch {

/// out[i] = parity(popcount(xs[i] & mask)) as a 0/1 byte: the Pauli
/// sign-stream of one YZ mask over a block of samples.
void parityAndMask(const Bits128* xs, std::size_t n, Bits128 mask,
                   unsigned char* out);

/// Flip-distance scan of a key set stored as split word arrays: writes to
/// out[0, m) the ascending indices j < n with
///   popcount(x.lo ^ keysLo[j]) + popcount(x.hi ^ keysHi[j]) <= maxFlip
/// and returns m — the keys within Hamming distance maxFlip of x, i.e. the
/// candidate coupled states of x when no Hamiltonian term flips more than
/// maxFlip qubits.  `out` must hold n entries.
std::size_t flipDistanceScan(Bits128 x, const std::uint64_t* keysLo,
                             const std::uint64_t* keysHi, std::size_t n,
                             int maxFlip, std::uint32_t* out);

/// Scalar reference implementations (ground truth of the backend contract).
void parityAndMaskScalar(const Bits128* xs, std::size_t n, Bits128 mask,
                         unsigned char* out);
std::size_t flipDistanceScanScalar(Bits128 x, const std::uint64_t* keysLo,
                                   const std::uint64_t* keysHi, std::size_t n,
                                   int maxFlip, std::uint32_t* out);

/// Backend the dispatched parityAndMask runs on this host: "avx512",
/// "avx2" or "scalar".  flipDistanceScan follows it, except that its AVX-512
/// kernel also needs AVX512_VPOPCNTDQ (AVX2 kernel otherwise).
const char* backendName();

}  // namespace batch

}  // namespace nnqs
