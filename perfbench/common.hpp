#pragma once

// Shared pieces of the benchmark program: options, seeds, the set-up chain,
// and the result record every workload fills in.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "nqs/ansatz.hpp"
#include "ops/packed_hamiltonian.hpp"
#include "scf/mo_integrals.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  /// Perturb one checked output before its check (the checker's own test:
  /// the run must then fail).
  bool corrupt = false;
  std::string outDir = ".";
};

/// Independent 64-bit stream `k` of the workload seed (splitmix64).  Every
/// input the library sees that varies by seed — VMC sampling seeds, query
/// pool, arrival schedule — is drawn from one of these.
std::uint64_t derivedSeed(std::uint64_t seed, std::uint64_t k);

/// Init seed of every network the benchmark builds: all workloads start from
/// the same fresh network, so the workload seed varies the sampling streams
/// and queries, not the model.
inline constexpr std::uint64_t kNetSeed = 7;

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one run reports: metrics by name, operation counts, named checks.
struct Result {
  std::map<std::string, Metric> endToEnd;
  std::map<std::string, Metric> perLayer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, bool>> checks;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> notes;

  void check(const std::string& name, bool ok);
  [[nodiscard]] bool allChecksPassed() const;
  void note(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
};

/// A molecular system ready for VMC: the set-up chain's products.
struct System {
  nnqs::ops::PackedHamiltonian packed;
  nnqs::nqs::QiankunNetConfig netCfg;
  nnqs::scf::MoIntegrals mo;  ///< kept for the FCI reference
  nnqs::Real eHf = 0;
};

/// molecule -> integrals -> HF -> MO -> JW -> packed Hamiltonian -> net,
/// each step inside a span on `tracer` rank 0.
System buildSystem(const std::string& molecule, std::uint64_t netSeed, Tracer& tracer);

/// The paper's network (§4.1) for a system with these counts.
nnqs::nqs::QiankunNetConfig paperNetConfig(int nQubits, int nAlpha, int nBeta,
                                           std::uint64_t seed);

/// Peak resident set size of this process so far, in MB.
double peakRssMb();

/// Seconds of a steady clock since an arbitrary epoch.
double nowSeconds();

Result runVmcWorkload(const Options& opts);
Result runServeWorkload(const Options& opts);

/// Self-time table per span name and per layer (text, one row per name),
/// also the source of the *.busy_s metrics.
struct LayerTable {
  std::map<std::string, double> selfByName;
  std::map<std::string, double> selfByLayer;
  std::map<std::string, std::size_t> countByName;
};
LayerTable layerTable(const std::vector<SpanRec>& spans, const std::vector<double>& self);
void writeLayerTable(const std::string& path, const LayerTable& t, double wall);

/// Every per-layer metric the benchmark defines, with its unit.  Workloads
/// that do not exercise a layer report 0 for its metrics.
const std::vector<std::pair<std::string, std::string>>& perLayerMetricNames();

}  // namespace perfbench
