// The open-loop serving workload: independent clients (Poisson arrivals)
// send 32-row queries to an AmplitudeServer loaded from a C2H4O checkpoint.
// One generator thread submits on schedule, one waiter thread collects
// completions; with the server's two workers that is four threads in all.

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>
#include <thread>

#include "chem/basis_set.hpp"
#include "chem/geometry_library.hpp"
#include "common.hpp"
#include "io/checkpoint.hpp"
#include "serve/amplitude_server.hpp"

namespace perfbench {

using namespace nnqs;

namespace {

constexpr std::size_t kRowsPerQuery = 32;
constexpr std::size_t kPoolSize = 4096;
constexpr int kSetupReps = 25;
constexpr double kLightRowsS = 4000;   // well below saturation
constexpr double kHeavyRowsS = 10000;  // near saturation
constexpr double kLatLimitMs = 100;     // p99 limit of the sustained-rate search
constexpr double kSearchStep = 1.15;   // geometric ladder of offered rates
// Requests per phase and per second of --seconds: at 15 s the fixed-rate
// phases hold 1050 requests, enough for a p99 with ten samples beyond it.
constexpr double kPhaseQueriesPerS = 70;
constexpr double kProbeQueriesPerS = 25;
constexpr double kBurstQueriesPerS = 40;
constexpr double kUnloadedQueriesPerS = 30;
constexpr std::size_t kBurstWindow = 64;  // queries kept outstanding in a burst
constexpr double kWarmQueriesPerS = 15;

serve::ServeOptions serveOptions() {
  serve::ServeOptions o;
  o.nWorkers = 2;
  o.maxBatch = 256;
  o.maxDelayUs = 200;
  // Room for transient stalls of the host: at the fixed rates nothing should
  // ever be refused, and a refusal counts as a failed operation.
  o.queueCapacityRows = 1 << 16;
  o.queueCapacityRequests = 4096;
  return o;
}

/// Uniformly random number-conserving configurations: nAlpha of the nOrb
/// up-spin qubits and nBeta of the down-spin qubits set.
std::vector<Bits128> makePool(const nqs::QiankunNetConfig& cfg, std::mt19937_64& rng) {
  const int nOrb = cfg.nQubits / 2;
  std::vector<Bits128> pool(kPoolSize);
  std::vector<int> orbs(static_cast<std::size_t>(nOrb));
  for (Bits128& x : pool) {
    for (int spin = 0; spin < 2; ++spin) {
      for (int i = 0; i < nOrb; ++i) orbs[static_cast<std::size_t>(i)] = i;
      for (int i = nOrb - 1; i > 0; --i)
        std::swap(orbs[static_cast<std::size_t>(i)],
                  orbs[static_cast<std::size_t>(rng() % static_cast<std::uint64_t>(i + 1))]);
      const int n = spin == 0 ? cfg.nAlpha : cfg.nBeta;
      for (int i = 0; i < n; ++i) x.set(2 * orbs[static_cast<std::size_t>(i)] + spin);
    }
  }
  return pool;
}

/// Pool configurations and their reference amplitudes (direct evaluate).
struct Pool {
  std::vector<Bits128> configs;
  std::vector<Real> logAmp, phase;
};

struct PhaseResult {
  double rowsPerS = 0;
  std::size_t sent = 0, rejected = 0, mismatched = 0;
  std::vector<double> latMs;  ///< from due time; refused requests = +inf
  std::vector<double> lagMs;  ///< send time minus due time
  std::vector<double> submitUs;

  [[nodiscard]] std::size_t misses(double limitMs) const {
    std::size_t m = 0;
    for (const double l : latMs) m += l > limitMs ? 1 : 0;
    return m;
  }
  /// The offered rate meets the limit: at most 1 % of requests miss it, and
  /// the last tenth of the requests all meet it (a growing backlog makes the
  /// final requests the slowest).
  [[nodiscard]] bool meets(double limitMs) const {
    if (latMs.empty()) return false;
    if (misses(limitMs) * 100 > latMs.size()) return false;
    for (std::size_t i = latMs.size() - latMs.size() / 10; i < latMs.size(); ++i)
      if (latMs[i] > limitMs) return false;
    return true;
  }
};

/// One open-loop phase: `n` requests at `rowsPerS` offered rows per second.
/// Every served row is compared bit for bit with the pool reference.
PhaseResult runOpenLoop(serve::AmplitudeServer& srv, const Pool& pool, std::mt19937_64& rng,
                        double rowsPerS, std::size_t n, Tracer* tracer, bool corrupt) {
  using clock = std::chrono::steady_clock;
  PhaseResult res;
  res.rowsPerS = rowsPerS;
  // The schedule and the queries come from the seed alone.
  const double qps = rowsPerS / static_cast<double>(kRowsPerQuery);
  std::vector<double> due(n);
  double t = 0;
  for (double& d : due) {
    const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
    t += -std::log1p(-u) / qps;
    d = t;
  }
  std::vector<std::uint32_t> idx(n * kRowsPerQuery);
  for (auto& i : idx) i = static_cast<std::uint32_t>(rng() % kPoolSize);
  std::vector<Bits128> configs(idx.size());
  for (std::size_t i = 0; i < idx.size(); ++i) configs[i] = pool.configs[idx[i]];
  std::vector<Real> logAmp(idx.size()), phase(idx.size());
  std::unique_ptr<serve::AmplitudeServer::Ticket[]> tickets(new serve::AmplitudeServer::Ticket[n]);
  std::vector<serve::QueryStatus> status(n, serve::QueryStatus::kOk);
  std::vector<clock::time_point> done(n);
  res.lagMs.resize(n);
  res.submitUs.resize(n);

  std::mutex mu;
  std::condition_variable cv;
  std::size_t submitted = 0;
  std::thread waiter([&] {
    for (std::size_t i = 0; i < n; ++i) {
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return submitted > i; });
      }
      if (status[i] != serve::QueryStatus::kOk) continue;
      if (tracer != nullptr) {
        Span s(*tracer, 1, "serve.wait");
        status[i] = srv.wait(tickets[i]);
      } else {
        status[i] = srv.wait(tickets[i]);
      }
      done[i] = clock::now();
    }
  });

  const clock::time_point start = clock::now() + std::chrono::milliseconds(2);
  std::vector<clock::time_point> dueAt(n);
  for (std::size_t i = 0; i < n; ++i) {
    dueAt[i] = start + std::chrono::duration_cast<clock::duration>(
                           std::chrono::duration<double>(due[i]));
    std::this_thread::sleep_until(dueAt[i] - std::chrono::microseconds(60));
    while (clock::now() < dueAt[i]) {
    }
    const clock::time_point send = clock::now();
    serve::QueryStatus st;
    if (tracer != nullptr) {
      Span s(*tracer, 0, "serve.submit");
      st = srv.submit(&configs[i * kRowsPerQuery], kRowsPerQuery, &logAmp[i * kRowsPerQuery],
                      &phase[i * kRowsPerQuery], tickets[i]);
    } else {
      st = srv.submit(&configs[i * kRowsPerQuery], kRowsPerQuery, &logAmp[i * kRowsPerQuery],
                      &phase[i * kRowsPerQuery], tickets[i]);
    }
    const clock::time_point after = clock::now();
    res.submitUs[i] = std::chrono::duration<double, std::micro>(after - send).count();
    res.lagMs[i] = std::chrono::duration<double, std::milli>(send - dueAt[i]).count();
    {
      std::lock_guard<std::mutex> lk(mu);
      status[i] = st;
      submitted = i + 1;
    }
    cv.notify_one();
  }
  waiter.join();

  if (corrupt && n > 0 && status[0] == serve::QueryStatus::kOk)
    logAmp[0] = std::nextafter(logAmp[0], 0.0);
  res.sent = n;
  res.latMs.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (status[i] != serve::QueryStatus::kOk) {
      ++res.rejected;
      res.latMs[i] = INFINITY;
      continue;
    }
    res.latMs[i] = std::chrono::duration<double, std::milli>(done[i] - dueAt[i]).count();
    for (std::size_t k = i * kRowsPerQuery; k < (i + 1) * kRowsPerQuery; ++k)
      if (std::memcmp(&logAmp[k], &pool.logAmp[idx[k]], sizeof(Real)) != 0 ||
          std::memcmp(&phase[k], &pool.phase[idx[k]], sizeof(Real)) != 0) {
        ++res.mismatched;
        break;
      }
  }
  return res;
}

/// Closed loop: one client keeps `window` requests outstanding (waiting for
/// the oldest before sending the next) until `n` are served.  Returns served
/// rows per second; with `latMs`, also each request's submit-to-served time
/// (exact for window 1, where nothing else is in flight).  Mismatching rows
/// and refused requests are added to the counters.
double runClosedLoop(serve::AmplitudeServer& srv, const Pool& pool, std::mt19937_64& rng,
                     std::size_t n, std::size_t window, std::size_t& mismatched,
                     std::size_t& refused, std::vector<double>* latMs = nullptr) {
  std::vector<std::uint32_t> idx(n * kRowsPerQuery);
  for (auto& i : idx) i = static_cast<std::uint32_t>(rng() % kPoolSize);
  std::vector<Bits128> configs(idx.size());
  for (std::size_t i = 0; i < idx.size(); ++i) configs[i] = pool.configs[idx[i]];
  std::vector<Real> logAmp(idx.size()), phase(idx.size());
  std::unique_ptr<serve::AmplitudeServer::Ticket[]> tickets(new serve::AmplitudeServer::Ticket[n]);
  std::vector<serve::QueryStatus> status(n);
  std::vector<double> sent(n);
  const double t0 = nowSeconds();
  std::size_t served = 0;
  for (std::size_t i = 0, oldest = 0; oldest < n;) {
    if (i < n && i - oldest < window) {
      sent[i] = nowSeconds();
      status[i] = srv.submit(&configs[i * kRowsPerQuery], kRowsPerQuery,
                             &logAmp[i * kRowsPerQuery], &phase[i * kRowsPerQuery], tickets[i]);
      ++i;
      continue;
    }
    if (status[oldest] == serve::QueryStatus::kOk) status[oldest] = srv.wait(tickets[oldest]);
    if (latMs != nullptr && status[oldest] == serve::QueryStatus::kOk)
      latMs->push_back(1e3 * (nowSeconds() - sent[oldest]));
    ++oldest;
  }
  const double elapsed = nowSeconds() - t0;
  for (std::size_t i = 0; i < n; ++i) {
    if (status[i] != serve::QueryStatus::kOk) {
      ++refused;
      continue;
    }
    served += kRowsPerQuery;
    for (std::size_t k = i * kRowsPerQuery; k < (i + 1) * kRowsPerQuery; ++k)
      if (std::memcmp(&logAmp[k], &pool.logAmp[idx[k]], sizeof(Real)) != 0 ||
          std::memcmp(&phase[k], &pool.phase[idx[k]], sizeof(Real)) != 0) {
        ++mismatched;
        break;
      }
  }
  return static_cast<double>(served) / elapsed;
}

}  // namespace

Result runServeWorkload(const Options& opts) {
  if (opts.workload != "serve-c2h4o-open")
    throw std::invalid_argument("unknown workload " + opts.workload);
  Result r;
  omp_set_num_threads(1);
  std::mt19937_64 rng(derivedSeed(opts.seed, 2));
  const std::string stem = opts.outDir + "/" + opts.workload + "-s" + std::to_string(opts.seed);
  const std::string ckptPath = stem + ".ckpt";

  // --- input: a C2H4O-shaped network checkpoint ---------------------------
  // Same sections (io::addNet) as the checkpoints runVmc writes.
  const chem::Molecule mol = chem::makeMolecule("C2H4O");
  const int nOrb = chem::buildBasis(mol, "sto-3g").nAO();
  const nqs::QiankunNetConfig cfg =
      paperNetConfig(2 * nOrb, mol.nAlpha(), mol.nBeta(), kNetSeed);
  double saveS = 0;
  {
    nqs::QiankunNet net(cfg);
    io::CheckpointWriter w;
    io::addNet(w, net);
    const double t0 = nowSeconds();
    w.save(ckptPath);
    saveS = nowSeconds() - t0;
  }
  const double ckptBytes = static_cast<double>(std::filesystem::file_size(ckptPath));

  Pool pool;
  pool.configs = makePool(cfg, rng);
  std::unique_ptr<nqs::QiankunNet> ref;
  {
    const io::CheckpointReader reader(ckptPath);
    ref = io::makeNet(reader);
  }
  ref->evaluate(pool.configs, pool.logAmp, pool.phase, nn::GradMode::kInference);

  // --- set-up, repeated: checkpoint load + server start; first query ------
  std::vector<double> setupTimes, loadTimes, firstMs;
  std::unique_ptr<serve::AmplitudeServer> srv;
  std::size_t firstMismatch = 0;
  for (int k = 0; k < kSetupReps; ++k) {
    srv.reset();
    const double t0 = nowSeconds();
    const io::CheckpointReader reader(ckptPath);
    const double t1 = nowSeconds();
    srv = std::make_unique<serve::AmplitudeServer>(reader, serveOptions());
    const double t2 = nowSeconds();
    setupTimes.push_back(t2 - t0);
    loadTimes.push_back(t1 - t0);
    std::vector<Bits128> q(pool.configs.begin() + static_cast<std::ptrdiff_t>(k * kRowsPerQuery),
                           pool.configs.begin() + static_cast<std::ptrdiff_t>((k + 1) * kRowsPerQuery));
    std::vector<Real> la, ph;
    const double t3 = nowSeconds();
    const serve::QueryStatus st = srv->query(q, la, ph);
    firstMs.push_back(1e3 * (nowSeconds() - t3));
    r.attempted += 1;
    if (st != serve::QueryStatus::kOk) {
      r.failed += 1;
      continue;
    }
    for (std::size_t i = 0; i < kRowsPerQuery; ++i)
      if (std::memcmp(&la[i], &pool.logAmp[k * kRowsPerQuery + i], sizeof(Real)) != 0 ||
          std::memcmp(&ph[i], &pool.phase[k * kRowsPerQuery + i], sizeof(Real)) != 0) {
        ++firstMismatch;
        break;
      }
  }

  // --- fixed-rate phases, then the sustained-rate search ------------------
  auto count = [&](double perS) {
    return static_cast<std::size_t>(std::max(1.0, std::round(perS * opts.seconds)));
  };
  // Warm-up: let every worker's slot arenas grow to the batch sizes the
  // phases produce before anything is timed.
  const PhaseResult warm =
      runOpenLoop(*srv, pool, rng, kHeavyRowsS, count(kWarmQueriesPerS), nullptr, false);
  const serve::ServeStats before = srv->stats();
  const PhaseResult light =
      runOpenLoop(*srv, pool, rng, kLightRowsS, count(kPhaseQueriesPerS), nullptr, opts.corrupt);
  const PhaseResult heavy =
      runOpenLoop(*srv, pool, rng, kHeavyRowsS, count(kPhaseQueriesPerS), nullptr, false);
  const serve::ServeStats after = srv->stats();

  std::vector<PhaseResult> probes;
  auto probe = [&](double rate) -> bool {
    probes.push_back(runOpenLoop(*srv, pool, rng, rate, count(kProbeQueriesPerS), nullptr, false));
    return probes.back().meets(kLatLimitMs);
  };
  // Walk the ladder from the heavy rate until the verdict flips, then halve
  // the bracket twice (geometric midpoints).
  double pass = 0, fail = 0;
  if (heavy.meets(kLatLimitMs)) {
    pass = kHeavyRowsS;
    for (int k = 1; k <= 6 && fail == 0; ++k) {
      const double rate = kHeavyRowsS * std::pow(kSearchStep, k);
      (probe(rate) ? pass : fail) = rate;
    }
  } else {
    fail = kHeavyRowsS;
    for (int k = 1; k <= 6 && pass == 0; ++k) {
      const double rate = kHeavyRowsS / std::pow(kSearchStep, k);
      (probe(rate) ? pass : fail) = rate;
    }
  }
  for (int k = 0; k < 2 && pass > 0 && fail > 0; ++k) {
    const double mid = std::sqrt(pass * fail);
    (probe(mid) ? pass : fail) = mid;
  }

  // Closed loops: one unloaded client (one request in flight), then
  // saturated throughput, median of three bursts.
  std::size_t closedMismatch = 0, closedRefused = 0;
  std::vector<double> unloadedMs, burstRowsS;
  runClosedLoop(*srv, pool, rng, count(kUnloadedQueriesPerS), 1, closedMismatch, closedRefused,
                &unloadedMs);
  for (int k = 0; k < 3; ++k)
    burstRowsS.push_back(runClosedLoop(*srv, pool, rng, count(kBurstQueriesPerS), kBurstWindow,
                                       closedMismatch, closedRefused));

  // Traced run (--trace 1): the heavy phase again, with spans around submit
  // (generator track) and wait (waiter track).
  Tracer tracer(opts.trace, 2);
  PhaseResult tracedHeavy;
  if (opts.trace)
    tracedHeavy =
        runOpenLoop(*srv, pool, rng, kHeavyRowsS, count(kPhaseQueriesPerS) / 2, &tracer, false);

  // --- checks -------------------------------------------------------------
  // Every request sent is an attempted operation.  Refusals fail in every
  // phase except the search probes, where they are the capacity signal.
  std::size_t mismatched = firstMismatch + closedMismatch;
  for (const PhaseResult* p :
       std::initializer_list<const PhaseResult*>{&warm, &light, &heavy, &tracedHeavy}) {
    mismatched += p->mismatched;
    r.attempted += p->sent;
    r.failed += p->rejected;
  }
  for (const PhaseResult& p : probes) {
    mismatched += p.mismatched;
    r.attempted += p.sent;
  }
  r.attempted += count(kUnloadedQueriesPerS) + 3 * count(kBurstQueriesPerS);
  r.failed += closedRefused + mismatched;
  r.check("(d) every served amplitude equals a direct QiankunNet::evaluate bit for bit",
          mismatched == 0);

  // --- end-to-end metrics -------------------------------------------------
  r.endToEnd["setup_s"] = {median(setupTimes), "s"};
  r.endToEnd["first_ms"] = {median(firstMs), "ms"};
  r.endToEnd["p50_ms"] = {median(unloadedMs), "ms"};
  r.endToEnd["rows_s"] = {median(burstRowsS), "rows/s"};
  r.endToEnd["peak_rss_mb"] = {peakRssMb(), "MB"};

  auto latLine = [&](const char* tag, const PhaseResult& p) {
    const double tail = tailPercentile(p.latMs.size());
    r.note("lat_p50_ms.%-6s = %8.3f ms  (n=%zu at %.0f rows/s, %zu refused)", tag,
           percentile(p.latMs, 50), p.sent, p.rowsPerS, p.rejected);
    if (tail > 0)
      r.note("lat_p%g_ms.%-6s = %8.3f ms  (n=%zu, highest percentile with >=10 beyond)", tail,
             tag, percentile(p.latMs, tail), p.sent);
  };
  r.note("serve-c2h4o-open: %d-qubit net, %d workers, %zu-row queries, Poisson arrivals, "
         "p99 limit %.0f ms",
         cfg.nQubits, serveOptions().nWorkers, kRowsPerQuery, kLatLimitMs);
  r.note("setup_s            = %.4f s   (median of %zu checkpoint loads + server starts)",
         median(setupTimes), setupTimes.size());
  r.note("first_query_ms     = %.3f ms  (median over %zu fresh servers)", median(firstMs),
         firstMs.size());
  r.note("lat_p50_ms.unloaded = %.3f ms (n=%zu, one client, one request in flight)",
         median(unloadedMs), unloadedMs.size());
  latLine("light", light);
  latLine("heavy", heavy);
  for (const PhaseResult& p : probes)
    r.note("search probe %7.0f rows/s: n=%zu, misses=%zu, %s", p.rowsPerS, p.sent,
           p.misses(kLatLimitMs), p.meets(kLatLimitMs) ? "meets" : "fails");
  r.note("sustained_rows_s   = %.0f rows/s  (highest offered rate meeting the limit)", pass);
  r.note("saturated_rows_s   = %.0f rows/s  (median of 3 bursts of %zu requests, %zu outstanding)",
         median(burstRowsS), count(kBurstQueriesPerS), kBurstWindow);
  r.note("peak_rss_mb        = %.1f MB", peakRssMb());

  if (!opts.trace) return r;

  // --- per-layer metrics --------------------------------------------------
  for (const auto& [name, unit] : perLayerMetricNames()) r.perLayer[name] = {0.0, unit};
  auto set = [&](const char* name, double v) { r.perLayer.at(name).value = v; };
  const double batches = static_cast<double>(after.batches - before.batches);
  std::vector<double> submitUs = light.submitUs, lagMs = light.lagMs;
  submitUs.insert(submitUs.end(), heavy.submitUs.begin(), heavy.submitUs.end());
  lagMs.insert(lagMs.end(), heavy.lagMs.begin(), heavy.lagMs.end());
  double lagSum = 0;
  for (const double l : lagMs) lagSum += l;
  const double meanBatch =
      batches > 0 ? static_cast<double>(after.rowsServed - before.rowsServed) / batches : 0.0;
  set("serve.submit_us", median(submitUs));
  set("serve.batch_rows_mean", meanBatch);
  set("serve.deadline_flush_frac",
      batches > 0 ? static_cast<double>(after.deadlineFlushes - before.deadlineFlushes) / batches
                  : 0.0);
  set("serve.rejected", static_cast<double>((after.rejected - before.rejected) +
                                            (after.rejectedTooLarge - before.rejectedTooLarge)));
  set("serve.gen_lag_ms", lagMs.empty() ? 0.0 : lagSum / static_cast<double>(lagMs.size()));
  set("io.ckpt_load.busy_s", median(loadTimes));
  set("io.ckpt_save.busy_s", saveS);
  set("io.ckpt.bytes", ckptBytes);

  // A direct evaluateInto at the observed mean batch size.
  {
    const std::size_t rows = std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(meanBatch)));
    std::vector<Bits128> batch(pool.configs.begin(),
                               pool.configs.begin() + static_cast<std::ptrdiff_t>(std::min(rows, kPoolSize)));
    ref->prepareConcurrent();
    nqs::QiankunNet::EvalSlot slot;
    std::vector<Real> la, ph, us;
    for (int k = 0; k < 25; ++k) {
      const double t0 = nowSeconds();
      ref->evaluateInto(slot, batch, la, ph, serveOptions().kernel);
      if (k >= 5) us.push_back(1e6 * (nowSeconds() - t0) / static_cast<double>(batch.size()));
    }
    set("nqs.slot_eval.us_per_row", median(us));
  }

  const double untracedP50 = percentile(heavy.latMs, 50);
  set("trace.overhead_frac",
      untracedP50 > 0 ? percentile(tracedHeavy.latMs, 50) / untracedP50 - 1.0 : 0.0);
  const std::vector<SpanRec> spans = tracer.all();
  writeChromeTrace(stem + ".trace.json", spans);
  const std::vector<double> self = selfTimes(spans);
  writeLayerTable(stem + ".layers.txt", layerTable(spans, self),
                  spans.empty() ? 0.0 : spans.back().t1 - spans.front().t0);
  r.note("trace written to %s.trace.json", stem.c_str());
  return r;
}

}  // namespace perfbench
