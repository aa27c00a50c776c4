// The three VMC workloads: untraced runVmc repetitions for the end-to-end
// metrics, one run of the traced copy for the per-layer metrics, and the
// correctness checks that tie the two together.

#include <omp.h>

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "common.hpp"
#include "fci/fci.hpp"
#include "vmc/driver.hpp"
#include "vmc_traced.hpp"

namespace perfbench {

using namespace nnqs;

namespace {

struct VmcSpec {
  const char* name;
  const char* molecule;
  int nRanks;
  int ompThreads;             ///< threads of the set-up chain
  std::uint64_t nSamples;
  std::uint64_t nSamplesInitial;
  int pretrainIterations;
  int growEvery;
  int iterations;             ///< per runVmc call
  int checkpointEvery;
  std::uint64_t uniqueThresholdPerRank;
  long warmupSteps;
  int setupReps;
  /// Extra one-iteration runVmc calls whose (cold) first iteration joins
  /// the first_ms sample; cheap only where an iteration is.
  int coldCalls;
};

// C2H4O runs at a quarter of the Fig. 11 N_s (4096 instead of 16384) so a
// whole run, traced copy and checks included, fits the benchmark's time
// budget; the stage shares (sampling ~20 %, E_loc ~25 %, gradient ~55 %) are
// those of the full-size run.
constexpr VmcSpec kSpecs[] = {
    {"vmc-c2h4o-1r", "C2H4O", 1, 1, 4096, 4096, 0, 50, 3, 0, 256, 200, 5, 0},
    {"vmc-c2h4o-4r", "C2H4O", 4, 4, 4096, 4096, 0, 50, 4, 0, 256, 200, 5, 0},
    {"vmc-lih-train", "LiH", 1, 1, 1000000, 10000, 20, 20, 300, 25, 4096, 75, 40, 30},
};

vmc::VmcOptions vmcOptions(const VmcSpec& spec, std::uint64_t seed) {
  vmc::VmcOptions o;
  o.iterations = spec.iterations;
  o.nSamples = spec.nSamples;
  o.nSamplesInitial = spec.nSamplesInitial;
  o.pretrainIterations = spec.pretrainIterations;
  o.growEvery = spec.growEvery;
  o.nRanks = spec.nRanks;
  o.threadsPerRank = 1;
  o.uniqueThresholdPerRank = spec.uniqueThresholdPerRank;
  o.warmupSteps = spec.warmupSteps;
  o.checkpointEvery = spec.checkpointEvery;
  o.seed = seed;
  return o;
}

bool bitwiseEqual(const std::vector<Real>& a, const std::vector<Real>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(Real)) == 0);
}

/// Forward FLOPs of one sample through the net, computed from parameter
/// shapes: every amplitude-network matrix runs once per position, every
/// phase-MLP matrix once per sample, plus causal attention scores and
/// weighted sums.  The tiled gradient recomputes the forward and runs a
/// backward of twice its cost, so one evaluateGrad sample costs 3x this.
double forwardFlopsPerSample(const nqs::QiankunNetConfig& cfg) {
  nqs::QiankunNet net(cfg);
  const double positions = cfg.nQubits / 2;
  double flops = 0;
  for (const nn::Parameter* p : net.parameters()) {
    if (p->value.shape.size() != 2 || p->name.find("embed") != std::string::npos) continue;
    const double mac = static_cast<double>(p->value.numel());
    flops += 2.0 * mac * (p->name.rfind("amp.", 0) == 0 ? positions : 1.0);
  }
  flops += static_cast<double>(cfg.nDecoders) * 2.0 * static_cast<double>(cfg.dModel) *
           positions * (positions + 1);
  return flops;
}

}  // namespace

Result runVmcWorkload(const Options& opts) {
  const VmcSpec* specPtr = nullptr;
  for (const VmcSpec& s : kSpecs)
    if (opts.workload == s.name) specPtr = &s;
  if (specPtr == nullptr) throw std::invalid_argument("unknown workload " + opts.workload);
  const VmcSpec& spec = *specPtr;
  Result r;
  omp_set_num_threads(spec.ompThreads);

  // Every runVmc call starts from the same fresh network (fixed init seed)
  // and samples with its own VMC seed drawn from the workload seed; pooling
  // calls over several trajectories keeps the run's medians from hinging on
  // one.
  auto vmcSeed = [&](std::size_t call) { return derivedSeed(opts.seed, call) >> 16; };
  const std::string stem = opts.outDir + "/" + opts.workload + "-s" + std::to_string(opts.seed);

  // --- set-up, repeated; the median is setup_s -----------------------------
  Tracer setupTracer(opts.trace, 1);
  std::vector<double> setupTimes;
  System sys;
  for (int k = 0; k < spec.setupReps; ++k) {
    const double t0 = nowSeconds();
    sys = buildSystem(spec.molecule, kNetSeed, setupTracer);
    setupTimes.push_back(nowSeconds() - t0);
  }
  double eFci = NAN;
  if (std::string(spec.molecule) == "LiH") eFci = fci::runFci(sys.mo).energy;

  // --- untraced runVmc repetitions ----------------------------------------
  std::vector<double> firsts, steady;
  double nuSteady = 0;
  std::vector<std::vector<Real>> histories;
  std::vector<Real> finalEnergies;
  std::uint64_t nonFiniteCold = 0;
  const double tLoop = nowSeconds();
  while (histories.empty() || nowSeconds() - tLoop < opts.seconds) {
    const std::size_t call = histories.size();
    vmc::VmcOptions vo = vmcOptions(spec, vmcSeed(call));
    if (vo.checkpointEvery > 0) vo.checkpointPath = stem + ".ckpt";
    double t0 = 0, last = 0;  // set right before the call
    vo.observer = [&](int it, Real, std::size_t nu) {
      const double t = nowSeconds();
      if (it == 0) {
        firsts.push_back(t - t0);
      } else {
        steady.push_back(t - last);
        nuSteady += static_cast<double>(nu);
      }
      last = t;
    };
    t0 = last = nowSeconds();
    const vmc::VmcResult res = vmc::runVmc(sys.packed, sys.netCfg, vo);
    histories.push_back(res.energyHistory);
    finalEnergies.push_back(res.energy);
    r.attempted += static_cast<std::uint64_t>(spec.iterations);
  }

  for (int k = 0; k < spec.coldCalls; ++k) {
    vmc::VmcOptions vo = vmcOptions(spec, vmcSeed(histories.size() + static_cast<std::size_t>(k)));
    vo.iterations = 1;
    vo.checkpointEvery = 0;
    const double t0 = nowSeconds();
    vo.observer = [&](int, Real, std::size_t) { firsts.push_back(nowSeconds() - t0); };
    const vmc::VmcResult res = vmc::runVmc(sys.packed, sys.netCfg, vo);
    nonFiniteCold += std::isfinite(res.energyHistory.at(0)) ? 0 : 1;
    r.attempted += 1;
  }

  // --- the traced copy ----------------------------------------------------
  vmc::VmcOptions to = vmcOptions(spec, vmcSeed(0));
  if (to.checkpointEvery > 0) to.checkpointPath = stem + "-traced.ckpt";
  Tracer tracer(opts.trace, spec.nRanks);
  TracedVmcResult traced = runVmcTraced(sys.packed, sys.netCfg, to, tracer);
  r.attempted += static_cast<std::uint64_t>(spec.iterations);

  // --- checks -------------------------------------------------------------
  std::uint64_t nonFinite = nonFiniteCold;
  for (const auto& h : histories)
    for (const Real e : h) nonFinite += std::isfinite(e) ? 0 : 1;
  for (const Real e : traced.energyHistory) nonFinite += std::isfinite(e) ? 0 : 1;
  r.failed += nonFinite;
  r.check("energies finite", nonFinite == 0);
  if (opts.corrupt && !traced.energyHistory.empty())
    traced.energyHistory.back() = std::nextafter(traced.energyHistory.back(), 0.0);
  r.check("(a) traced copy reproduces runVmc energy history bit for bit",
          bitwiseEqual(traced.energyHistory, histories[0]));
  if (spec.nRanks > 1) {
    vmc::VmcOptions one = vmcOptions(spec, vmcSeed(0));
    one.nRanks = 1;
    one.iterations = 1;
    one.checkpointEvery = 0;
    const Real e1 = vmc::runVmc(sys.packed, sys.netCfg, one).energyHistory.at(0);
    r.attempted += 1;
    const Real eN = histories[0].at(0);
    r.check("(b) first-iteration energy matches the 1-rank run within 1e-12 relative",
            std::fabs(eN - e1) <= 1e-12 * std::fabs(e1));
    r.note("check (b): E0(%d ranks) = %.15f, E0(1 rank) = %.15f", spec.nRanks, eN, e1);
  }
  if (!std::isnan(eFci)) {
    bool below = true;
    for (const Real e : finalEnergies) below = below && e < sys.eHf;
    r.check("(c) every trained energy below E_HF", below);
    r.note("check (c): E_VMC = %.8f (first call), E_HF = %.8f, E_FCI = %.8f", finalEnergies[0],
           sys.eHf, eFci);
  }

  // --- end-to-end metrics -------------------------------------------------
  double steadySum = 0;
  for (const double s : steady) steadySum += s;
  r.endToEnd["setup_s"] = {median(setupTimes), "s"};
  r.endToEnd["first_ms"] = {1e3 * median(firsts), "ms"};
  r.endToEnd["p50_ms"] = {1e3 * median(steady), "ms"};
  r.endToEnd["rows_s"] = {steadySum > 0 ? nuSteady / steadySum : 0.0, "rows/s"};
  r.endToEnd["peak_rss_mb"] = {peakRssMb(), "MB"};

  const double tail = tailPercentile(steady.size());
  r.note("%s: %d rank(s), N_s=%llu, %d iterations per runVmc call, %zu calls, %zu steady "
         "iterations",
         spec.name, spec.nRanks, static_cast<unsigned long long>(spec.nSamples),
         spec.iterations, histories.size(), steady.size());
  r.note("setup_s           = %.4f s   (median of %zu set-ups)", median(setupTimes),
         setupTimes.size());
  r.note("first_iter_s      = %.4f s   (median of %zu runVmc calls)", median(firsts),
         firsts.size());
  r.note("iter_s.p50        = %.4f s   (n=%zu)", median(steady), steady.size());
  if (tail > 0)
    r.note("iter_s.p%-9g = %.4f s   (n=%zu, highest percentile with >=10 beyond)", tail,
           percentile(steady, tail), steady.size());
  r.note("peak_rss_mb       = %.1f MB", peakRssMb());
  if (!std::isnan(eFci)) {
    std::vector<double> err;
    for (const Real e : finalEnergies) err.push_back(1e3 * std::fabs(e - eFci));
    r.note("energy_err_mha    = %.4f mHa (median |E_VMC - E_FCI| of %zu runs of %d iterations)",
           median(err), err.size(), spec.iterations);
  }

  if (!opts.trace) return r;

  // --- per-layer metrics from the traced copy -----------------------------
  for (const auto& [name, unit] : perLayerMetricNames()) r.perLayer[name] = {0.0, unit};
  const std::vector<SpanRec> spans = tracer.all();
  const std::vector<double> self = selfTimes(spans);
  const int nIt = spec.iterations;
  const int firstSteady = nIt > 1 ? 1 : 0;
  const double nSteady = nIt - firstSteady;
  const double denom = nSteady * spec.nRanks;
  auto steadyIt = [&](int it) { return it >= firstSteady && it < nIt; };
  auto busy = [&](const char* name) {
    double s = 0;
    for (std::size_t i = 0; i < spans.size(); ++i)
      if (steadyIt(spans[i].iter) && std::strcmp(spans[i].name, name) == 0) s += self[i];
    return s / denom;
  };
  auto set = [&](const char* name, double v) { r.perLayer.at(name).value = v; };
  set("nqs.sweep.busy_s", busy("nqs.sweep"));
  set("nqs.phases.busy_s", busy("nqs.phases"));
  set("nqs.grad.busy_s", busy("nqs.grad"));
  set("vmc.lut.busy_s", busy("vmc.lut"));
  set("vmc.partition.busy_s", busy("vmc.partition"));
  set("vmc.eloc.busy_s", busy("vmc.eloc"));
  set("parallel.gather.busy_s", busy("parallel.gather"));
  set("parallel.reduce_grad.busy_s", busy("parallel.reduce_grad"));
  set("nn.adamw.busy_s", busy("nn.adamw"));
  set("nn.grad_flatten.busy_s", busy("nn.grad_flatten"));

  // Sweep time per rank and iteration -> max/min spread; gradient FLOP rate.
  std::vector<std::vector<double>> sweepT(static_cast<std::size_t>(spec.nRanks),
                                          std::vector<double>(static_cast<std::size_t>(nIt)));
  double gradTime = 0, gradFlops = 0;
  const double fwd = forwardFlopsPerSample(sys.netCfg);
  double ckptSum = 0, ckptN = 0, iterDur = 0, iterSelf = 0;
  std::vector<double> tracedIter;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    if (std::strcmp(s.name, "io.ckpt_save") == 0) {
      ckptSum += s.dur();
      ckptN += 1;
    }
    if (!steadyIt(s.iter)) continue;
    const auto ri = static_cast<std::size_t>(s.rank);
    const auto ii = static_cast<std::size_t>(s.iter);
    if (std::strcmp(s.name, "nqs.sweep") == 0) sweepT[ri][ii] += s.dur();
    if (std::strcmp(s.name, "nqs.grad") == 0) {
      gradTime += self[i];
      gradFlops += 3.0 * fwd * static_cast<double>(traced.counters[ri][ii].nuLocal);
    }
    if (std::strcmp(s.name, "vmc.iteration") == 0) {
      iterDur += s.dur();
      iterSelf += self[i];
      if (s.rank == 0) tracedIter.push_back(s.dur());
    }
  }
  double spread = 0, unique = 0, terms = 0, imbalance = 0, bytes = 0;
  double hits = 0, enumerated = 0, deduped = 0, probes = 0, tapeHigh = 0, ckptBytes = 0;
  for (int it = firstSteady; it < nIt; ++it) {
    double mx = 0, mn = INFINITY;
    for (int rk = 0; rk < spec.nRanks; ++rk) {
      const double t = sweepT[static_cast<std::size_t>(rk)][static_cast<std::size_t>(it)];
      mx = std::max(mx, t);
      mn = std::min(mn, t);
      const IterCounters& c = traced.counters[static_cast<std::size_t>(rk)][static_cast<std::size_t>(it)];
      terms += static_cast<double>(c.eloc.coeffTerms);
      hits += static_cast<double>(c.eloc.lutHits);
      enumerated += static_cast<double>(c.eloc.termsEnumerated);
      deduped += static_cast<double>(c.eloc.dedupedProbes);
      probes += static_cast<double>(c.eloc.lutProbes);
    }
    spread += mn > 0 ? mx / mn : 1.0;
    const IterCounters& c0 = traced.counters[0][static_cast<std::size_t>(it)];
    unique += static_cast<double>(c0.nuGlobal);
    imbalance += c0.rankTermsMin > 0 ? static_cast<double>(c0.rankTermsMax) /
                                           static_cast<double>(c0.rankTermsMin)
                                     : 1.0;
    bytes += static_cast<double>(c0.bytes);
  }
  for (const auto& rankCtr : traced.counters)
    for (const IterCounters& c : rankCtr) {
      tapeHigh = std::max(tapeHigh, static_cast<double>(c.tapeHighWater));
      if (c.ckptBytes > 0) ckptBytes = static_cast<double>(c.ckptBytes);
    }
  set("nqs.sweep.unique", unique / nSteady);
  set("nqs.sweep.rank_spread", spread / nSteady);
  set("nqs.grad.gflops", gradTime > 0 ? gradFlops / gradTime / 1e9 : 0.0);
  set("nqs.grad.tape_peak_mb", tapeHigh * sizeof(Real) / 1e6);
  set("vmc.eloc.terms", terms / nSteady);
  set("vmc.eloc.hit_ratio", enumerated > 0 ? hits / enumerated : 0.0);
  set("vmc.eloc.dedup_frac", probes + deduped > 0 ? deduped / (probes + deduped) : 0.0);
  set("vmc.eloc.rank_imbalance", imbalance / nSteady);
  set("parallel.bytes", bytes / nSteady);
  const auto waits = collectiveWaits(spans, spec.nRanks, nIt);
  double waitSum = 0;
  for (const auto& w : waits)
    for (int it = firstSteady; it < nIt; ++it) waitSum += w[static_cast<std::size_t>(it)];
  set("parallel.wait_s", waitSum / denom);
  set("io.ckpt_save.busy_s", ckptN > 0 ? ckptSum / ckptN : 0.0);
  set("io.ckpt.bytes", ckptBytes);

  const std::vector<SpanRec> setupSpans = setupTracer.all();
  const std::vector<double> setupSelf = selfTimes(setupSpans);
  const LayerTable setupTable = layerTable(setupSpans, setupSelf);
  auto setupBusy = [&](const char* name) {
    const auto it = setupTable.selfByName.find(name);
    return it == setupTable.selfByName.end() ? 0.0 : it->second / spec.setupReps;
  };
  set("scf.hf.busy_s", setupBusy("scf.hf"));
  set("ops.jw.busy_s", setupBusy("ops.jw"));
  set("ops.pack.busy_s", setupBusy("ops.pack"));
  set("ops.pack.groups", static_cast<double>(sys.packed.nGroups()));
  const double untracedP50 = median(steady);
  set("trace.overhead_frac", untracedP50 > 0 ? median(tracedIter) / untracedP50 - 1.0 : 0.0);
  set("trace.coverage", iterDur > 0 ? 1.0 - iterSelf / iterDur : 0.0);

  writeChromeTrace(stem + ".trace.json", spans);
  const LayerTable table = layerTable(spans, self);
  writeLayerTable(stem + ".layers.txt", table, iterDur);
  double setupSum = 0;
  for (const double t : setupTimes) setupSum += t;
  writeLayerTable(stem + ".setup-layers.txt", setupTable, setupSum);
  r.note("trace written to %s.trace.json, self-time tables to %s.layers.txt", stem.c_str(),
         stem.c_str());
  return r;
}

}  // namespace perfbench
