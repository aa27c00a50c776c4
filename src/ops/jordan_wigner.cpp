#include "ops/jordan_wigner.hpp"

#include <cmath>
#include <omp.h>
#include <unordered_map>

#include "common/logging.hpp"
#include "common/timer.hpp"

namespace nnqs::ops {

namespace {

using TermMap = std::unordered_map<PauliString, Complex, PauliStringHash>;

void accumulate(TermMap& map, const PauliSum& sum, Complex scale) {
  for (const auto& t : sum) {
    const Complex v = t.coeff * scale;
    if (v == Complex{0, 0}) continue;
    map[t.string] += v;
  }
}

void mergeInto(TermMap& dst, const TermMap& src) {
  for (const auto& [key, val] : src) dst[key] += val;
}

}  // namespace

PauliSum jwLadder(int p, bool dagger) {
  const Bits128 zs = Bits128::lowMask(p);
  Bits128 xm;
  xm.set(p);
  PauliString px{xm, zs};       // Z...Z X_p
  PauliString py{xm, zs};       // Z...Z Y_p
  py.z.set(p);
  const Complex yCoeff = dagger ? Complex{0, -0.5} : Complex{0, 0.5};
  return {{Complex{0.5, 0.0}, px}, {yCoeff, py}};
}

SpinHamiltonian jordanWigner(const scf::MoIntegrals& mo, Real cutoff) {
  Timer timer;
  const int nso = mo.nSpinOrbitals();
  TermMap total;
  total.reserve(1 << 12);

  // --- One-body part: sum_pq h_pq a+_p a_q ------------------------------
  for (int p = 0; p < nso; ++p)
    for (int q = 0; q < nso; ++q) {
      const Real hpq = mo.hSo(p, q);
      if (std::abs(hpq) < cutoff) continue;
      accumulate(total, multiply(jwLadder(p, true), jwLadder(q, false)), hpq);
    }

  // --- Two-body part over antisymmetrized pairs --------------------------
  //   1/2 sum_pqrs <pq|rs> a+_p a+_q a_s a_r
  //     = sum_{p<q, r<s} <pq||rs> a+_p a+_q a_s a_r.
  std::vector<std::pair<int, int>> pairs;
  for (int p = 0; p < nso; ++p)
    for (int q = p + 1; q < nso; ++q) pairs.emplace_back(p, q);

  // Each thread sums a fixed round-robin set of 8-pair chunks (static
  // schedule, balanced like the dynamic one it replaces) into its own map,
  // and the maps merge in thread order, so every coefficient's summation
  // order depends only on the thread count, never on timing: repeated
  // builds on the same thread count agree bit for bit.
  const int nThreads = omp_get_max_threads();
  std::vector<TermMap> partial(static_cast<std::size_t>(nThreads));

#pragma omp parallel
  {
    TermMap& local = partial[static_cast<std::size_t>(omp_get_thread_num())];
    local.reserve(1 << 14);
#pragma omp for schedule(static, 8)
    for (std::size_t ip = 0; ip < pairs.size(); ++ip) {
      const auto [p, q] = pairs[ip];
      const PauliSum bra = multiply(jwLadder(p, true), jwLadder(q, true));
      for (const auto& [r, s] : pairs) {
        // <pq||rs> with physicist <pq|rs> = (pr|qs) delta-spin.
        const Real anti = mo.eriSoAnti(p, q, r, s);
        if (std::abs(anti) < cutoff) continue;
        // a+_p a+_q a_s a_r  (note operator order: s before r).
        const PauliSum ket = multiply(jwLadder(s, false), jwLadder(r, false));
        accumulate(local, multiply(bra, ket), anti);
      }
    }
  }
  for (const auto& part : partial) mergeInto(total, part);

  SpinHamiltonian h;
  h.nQubits = nso;
  h.constant = mo.coreEnergy;
  Real maxImag = 0;
  for (const auto& [key, val] : total) {
    maxImag = std::max(maxImag, std::abs(val.imag()));
    if (std::abs(val.real()) < cutoff) continue;
    if (key.x.none() && key.z.none()) {
      h.constant += val.real();
      continue;
    }
    h.strings.push_back(key);
    h.coeffs.push_back(val.real());
  }
  if (maxImag > 1e-8)
    log::warn("jordanWigner: imaginary residue %.3e (should vanish)", maxImag);
  h.sortCanonical();
  log::debug("jordanWigner: %d qubits, %zu strings, %.2f s", nso, h.nTerms(),
             timer.seconds());
  return h;
}

}  // namespace nnqs::ops
