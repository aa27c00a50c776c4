#include "common.hpp"

#include <sys/resource.h>

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <stdexcept>

#include "chem/basis_set.hpp"
#include "chem/geometry_library.hpp"
#include "ops/jordan_wigner.hpp"
#include "scf/rhf.hpp"

namespace perfbench {

using namespace nnqs;

std::uint64_t derivedSeed(std::uint64_t seed, std::uint64_t k) {
  std::uint64_t z = seed + (k + 1) * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void Result::check(const std::string& name, bool ok) {
  checks.emplace_back(name, ok);
  ++attempted;
  if (!ok) ++failed;
}

bool Result::allChecksPassed() const {
  for (const auto& [name, ok] : checks)
    if (!ok) return false;
  return true;
}

void Result::note(const char* fmt, ...) {
  char buf[1024];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  notes.emplace_back(buf);
}

nqs::QiankunNetConfig paperNetConfig(int nQubits, int nAlpha, int nBeta, std::uint64_t seed) {
  nqs::QiankunNetConfig cfg;
  cfg.nQubits = nQubits;
  cfg.nAlpha = nAlpha;
  cfg.nBeta = nBeta;
  cfg.dModel = 16;
  cfg.nHeads = 4;
  cfg.nDecoders = 2;
  cfg.phaseHidden = 512;
  cfg.phaseHiddenLayers = 2;
  cfg.seed = seed;
  return cfg;
}

System buildSystem(const std::string& molecule, std::uint64_t netSeed, Tracer& tracer) {
  Span root(tracer, 0, "setup");
  System sys;
  const chem::Molecule mol = chem::makeMolecule(molecule);
  scf::AoIntegrals ao;
  {
    Span s(tracer, 0, "integrals.ao");
    ao = scf::computeAoIntegrals(mol, chem::buildBasis(mol, "sto-3g"));
  }
  scf::ScfResult hf;
  {
    Span s(tracer, 0, "scf.hf");
    hf = scf::runHartreeFock(ao, mol);
  }
  if (!hf.converged) throw std::runtime_error("HF did not converge for " + molecule);
  sys.eHf = hf.energy;
  {
    Span s(tracer, 0, "scf.mo");
    sys.mo = scf::transformToMo(ao, hf, 0);
  }
  ops::SpinHamiltonian ham;
  {
    Span s(tracer, 0, "ops.jw");
    ham = ops::jordanWigner(sys.mo);
  }
  {
    Span s(tracer, 0, "ops.pack");
    sys.packed = ops::PackedHamiltonian::fromHamiltonian(ham);
  }
  sys.netCfg = paperNetConfig(ham.nQubits, sys.mo.nAlpha, sys.mo.nBeta, netSeed);
  {
    // runVmc constructs its own net; this one is built (and
    // dropped) so set-up time covers the network initialization too.
    Span s(tracer, 0, "nqs.net_init");
    nqs::QiankunNet net(sys.netCfg);
  }
  return sys;
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double nowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

LayerTable layerTable(const std::vector<SpanRec>& spans, const std::vector<double>& self) {
  LayerTable t;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string name = spans[i].name;
    t.selfByName[name] += self[i];
    t.countByName[name] += 1;
    t.selfByLayer[name.substr(0, name.find('.'))] += self[i];
  }
  return t;
}

void writeLayerTable(const std::string& path, const LayerTable& t, double wall) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "%-26s %8s %12s %8s\n", "span", "count", "self_s", "share");
  for (const auto& [name, s] : t.selfByName)
    std::fprintf(f, "%-26s %8zu %12.6f %7.2f%%\n", name.c_str(), t.countByName.at(name), s,
                 wall > 0 ? 100.0 * s / wall : 0.0);
  std::fprintf(f, "\n%-26s %8s %12s %8s\n", "layer", "", "self_s", "share");
  for (const auto& [layer, s] : t.selfByLayer)
    std::fprintf(f, "%-26s %8s %12.6f %7.2f%%\n", layer.c_str(), "", s,
                 wall > 0 ? 100.0 * s / wall : 0.0);
  std::fclose(f);
}

const std::vector<std::pair<std::string, std::string>>& perLayerMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> kNames = {
      {"nqs.sweep.busy_s", "s"},
      {"nqs.sweep.unique", "count"},
      {"nqs.sweep.rank_spread", "ratio"},
      {"nqs.phases.busy_s", "s"},
      {"nqs.grad.busy_s", "s"},
      {"nqs.grad.gflops", "GFLOP/s"},
      {"nqs.grad.tape_peak_mb", "MB"},
      {"vmc.lut.busy_s", "s"},
      {"vmc.partition.busy_s", "s"},
      {"vmc.eloc.busy_s", "s"},
      {"vmc.eloc.terms", "count"},
      {"vmc.eloc.hit_ratio", "ratio"},
      {"vmc.eloc.dedup_frac", "ratio"},
      {"vmc.eloc.rank_imbalance", "ratio"},
      {"parallel.gather.busy_s", "s"},
      {"parallel.reduce_grad.busy_s", "s"},
      {"parallel.wait_s", "s"},
      {"parallel.bytes", "bytes"},
      {"nn.adamw.busy_s", "s"},
      {"nn.grad_flatten.busy_s", "s"},
      {"io.ckpt_save.busy_s", "s"},
      {"io.ckpt.bytes", "bytes"},
      {"io.ckpt_load.busy_s", "s"},
      {"scf.hf.busy_s", "s"},
      {"ops.jw.busy_s", "s"},
      {"ops.pack.busy_s", "s"},
      {"ops.pack.groups", "count"},
      {"serve.submit_us", "us"},
      {"serve.batch_rows_mean", "rows"},
      {"serve.deadline_flush_frac", "ratio"},
      {"serve.rejected", "count"},
      {"serve.gen_lag_ms", "ms"},
      {"nqs.slot_eval.us_per_row", "us"},
      {"trace.overhead_frac", "ratio"},
      {"trace.coverage", "ratio"},
  };
  return kNames;
}

}  // namespace perfbench
