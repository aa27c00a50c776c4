#pragma once

#include <cstddef>
#include <cstdint>

#include "ops/hamiltonian.hpp"

namespace nnqs::ops {

/// Hamiltonian layout of Ref. 27 (MADE), paper Fig. 6(b): one XY mask, one YZ
/// mask, the Y count and the coefficient per Pauli string.
struct MadePackedHamiltonian {
  int nQubits = 0;
  Real constant = 0;
  std::vector<Bits128> xy;   ///< occurrence of X or Y (couples x -> x')
  std::vector<Bits128> yz;   ///< occurrence of Y or Z (sign)
  std::vector<int> yCount;   ///< occurrence of Y (phase)
  std::vector<Real> coeff;

  [[nodiscard]] std::size_t nTerms() const { return xy.size(); }
  /// Bytes with the paper's accounting: boolean tuples of length N stored as
  /// one byte per entry (numpy-style), 4-byte int, 8-byte coefficient.
  [[nodiscard]] std::size_t memoryBytes() const;

  static MadePackedHamiltonian fromHamiltonian(const SpinHamiltonian& h);
  /// <x|H|x'> via the packed data (reference implementation for tests).
  [[nodiscard]] Real matrixElement(Bits128 x, Bits128 xp) const;
};

/// The paper's compressed layout, Fig. 6(c) / Algorithm 1: unique XY masks
/// with CSR-style ranges into the reorganized YZ masks and *premultiplied*
/// coefficients  c~ = c * Re[i^{#Y}]  (the Y phase is folded in; #Y is always
/// even for Hermitian molecular Hamiltonians).  All strings in group k couple
/// x to the same x' = x ^ xyUnique[k], so each coupled state is evaluated
/// exactly once during local-energy computation.
struct PackedHamiltonian {
  int nQubits = 0;
  Real constant = 0;
  std::vector<Bits128> xyUnique;
  std::vector<std::size_t> idxs;  ///< group k = [idxs[k], idxs[k+1]); size = nGroups+1
  std::vector<Bits128> yz;
  std::vector<Real> coeffs;       ///< premultiplied
  /// Largest popcount of any XY mask (4 for molecular JW Hamiltonians): x and
  /// x' can only couple when they differ in at most this many qubits.
  int maxFlip = 0;
  /// XY mask -> group index: open-addressing table (power-of-two size, load
  /// <= 1/2) of group indices into xyUnique, -1 = empty slot.  Read through
  /// groupOf().
  std::vector<std::int32_t> maskSlots;

  [[nodiscard]] std::size_t nGroups() const { return xyUnique.size(); }
  [[nodiscard]] std::size_t nTerms() const { return yz.size(); }
  /// Paper accounting of the Fig. 6(c) layout (maxFlip/maskSlots excluded).
  [[nodiscard]] std::size_t memoryBytes() const;

  /// Algorithm 1 of the paper, plus maxFlip and the mask index.
  static PackedHamiltonian fromHamiltonian(const SpinHamiltonian& h);

  /// Index k of the group with xyUnique[k] == mask, or -1 when no string
  /// flips exactly `mask`.
  [[nodiscard]] std::int32_t groupOf(Bits128 mask) const {
    if (maskSlots.empty()) return -1;
    const std::size_t wrap = maskSlots.size() - 1;
    for (std::size_t s = Bits128Hash{}(mask) & wrap;; s = (s + 1) & wrap) {
      const std::int32_t k = maskSlots[s];
      if (k < 0 || xyUnique[static_cast<std::size_t>(k)] == mask) return k;
    }
  }

  /// Summed coupling coefficient of group k for input sample x:
  ///   sum_i c~_i (-1)^{popcount(x & yz_i)}.
  [[nodiscard]] Real groupCoefficient(std::size_t k, Bits128 x) const {
    Real c = 0;
    for (std::size_t i = idxs[k]; i < idxs[k + 1]; ++i)
      c += parityAnd(x, yz[i]) ? -coeffs[i] : coeffs[i];
    return c;
  }

  /// Batched groupCoefficient: out[j] = groupCoefficient(k, xs[j]) for
  /// j < n, with the loop order transposed — one pass per YZ string over all
  /// samples, so each string's mask/coefficient is loaded once per block and
  /// the sign stream runs on the batched Bits128 parity kernel
  /// (common/bits.hpp).  Per sample the additions happen in the same
  /// ascending-string order as the scalar method, so the results are
  /// bit-identical.  `parityScratch` must hold n bytes.
  void groupCoefficients(std::size_t k, const Bits128* xs, std::size_t n,
                         Real* out, unsigned char* parityScratch) const;

  /// <x|H|x'> via the packed data (reference implementation for tests).
  [[nodiscard]] Real matrixElement(Bits128 x, Bits128 xp) const;
};

}  // namespace nnqs::ops
