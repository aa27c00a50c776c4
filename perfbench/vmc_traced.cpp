#include "vmc_traced.hpp"

#include <algorithm>
#include <array>
#include <filesystem>
#include <stdexcept>

#include "io/checkpoint.hpp"
#include "vmc/repartition.hpp"

namespace perfbench {

using namespace nnqs;

namespace {

// Same record as runVmc's Stage-2 Allgather payload.
struct GatherRecord {
  Bits128 sample;
  std::uint64_t weight;
  Real psiRe, psiIm;
};

}  // namespace

TracedVmcResult runVmcTraced(const ops::PackedHamiltonian& hamiltonian,
                             const nqs::QiankunNetConfig& netConfig,
                             const vmc::VmcOptions& opts, Tracer& tracer) {
  const exec::ExecutionPolicy ex = opts.exec;
  if (!opts.resumeFrom.empty())
    throw std::invalid_argument("runVmcTraced: resume is not traced");
  if (opts.checkpointEvery > 0 && opts.checkpointPath.empty())
    throw std::invalid_argument("runVmcTraced: checkpointEvery needs a checkpointPath");
  const auto world = parallel::makeWorld(ex.comm, opts.nRanks, opts.threadsPerRank);
  const int nRanks = world->size();
  if (tracer.nRanks() != nRanks)
    throw std::invalid_argument("runVmcTraced: tracer rank count differs from the world");

  TracedVmcResult out;
  out.counters.assign(static_cast<std::size_t>(nRanks),
                      std::vector<IterCounters>(static_cast<std::size_t>(opts.iterations)));
  std::vector<std::vector<Real>> histories(static_cast<std::size_t>(nRanks));

  world->run([&](parallel::Comm& comm) {
    const int rank = comm.rank();
    std::vector<Real> history(static_cast<std::size_t>(opts.iterations), 0.0);
    nqs::QiankunNet net(netConfig);
    net.setEvalPolicy(ex);
    nqs::BasSweepEngine sampler(net);
    nn::AdamWOptions adamOpts;
    adamOpts.lr = opts.learningRate;
    adamOpts.weightDecay = opts.weightDecay;
    nn::AdamW optimizer(net.parameters(), adamOpts);
    const nn::NoamSchedule schedule(netConfig.dModel, opts.warmupSteps);

    std::vector<Real> grads;
    std::vector<Real> logAmp, phase;
    vmc::TermCostModel costModel;
    std::uint64_t bytesAllIterations = 0;
    std::uint64_t nsCurrent = opts.nSamplesInitial;

    for (int iter = 0; iter < opts.iterations; ++iter) {
      tracer.setIter(rank, iter);
      Span iterSpan(tracer, rank, "vmc.iteration");
      IterCounters& ctr = out.counters[static_cast<std::size_t>(rank)][static_cast<std::size_t>(iter)];
      comm.resetByteCounter();
      // --- Stage 1 ---------------------------------------------------------
      nqs::SamplerOptions sOpts;
      sOpts.nSamples = nsCurrent;
      sOpts.seed = opts.seed + static_cast<std::uint64_t>(iter) * 0x9E37u;
      sOpts.exec = ex;
      const nqs::SampleSet* localPtr = nullptr;
      {
        Span s(tracer, rank, "nqs.sweep");
        localPtr = &sampler.sweep(
            sOpts, rank, nRanks,
            opts.uniqueThresholdPerRank * static_cast<std::uint64_t>(nRanks));
      }
      const nqs::SampleSet& local = *localPtr;
      ctr.nuLocal = local.nUnique();
      const bool fusedAmp = local.logAmp.size() == local.samples.size();
      if (fusedAmp) {
        logAmp.assign(local.logAmp.begin(), local.logAmp.end());
        Span s(tracer, rank, "nqs.phases");
        net.phases(local.samples, phase);
      } else {
        Span s(tracer, rank, "nqs.evaluate");
        net.evaluate(local.samples, logAmp, phase, nn::GradMode::kInference);
      }

      // --- Stage 2 ---------------------------------------------------------
      std::vector<GatherRecord> records(local.nUnique());
      for (std::size_t i = 0; i < local.nUnique(); ++i) {
        const Complex p = nqs::QiankunNet::psiValue(logAmp[i], phase[i]);
        records[i] = {local.samples[i], local.weights[i], p.real(), p.imag()};
      }
      std::vector<std::size_t> gatherCounts;
      std::vector<GatherRecord> all;
      {
        Span s(tracer, rank, "parallel.gather", true);
        all = comm.allGatherV(records.data(), records.size(), &gatherCounts);
      }
      std::size_t ownOffset = 0;
      for (int r = 0; r < rank; ++r) ownOffset += gatherCounts[static_cast<std::size_t>(r)];
      std::vector<Bits128> allSamples(all.size());
      std::vector<Complex> allPsi(all.size());
      std::uint64_t totalWeight = 0;
      for (std::size_t i = 0; i < all.size(); ++i) {
        allSamples[i] = all[i].sample;
        allPsi[i] = Complex{all[i].psiRe, all[i].psiIm};
        totalWeight += all[i].weight;
      }
      vmc::WavefunctionLut lut;
      {
        Span s(tracer, rank, "vmc.lut");
        lut = vmc::WavefunctionLut::build(allSamples, allPsi);
      }
      ctr.nuGlobal = lut.size();
      if (iter + 1 > opts.pretrainIterations && nsCurrent < opts.nSamples &&
          (iter + 1 - opts.pretrainIterations) % std::max(1, opts.growEvery) == 0 &&
          (opts.maxUniqueSamples == 0 || 2 * lut.size() <= opts.maxUniqueSamples))
        nsCurrent = std::min(nsCurrent * 2, opts.nSamples);

      // --- Stage 3 ---------------------------------------------------------
      const std::size_t nAll = allSamples.size();
      const std::size_t tileSz = std::max<std::size_t>(1, opts.rankTileSize);
      const std::size_t nTiles = (nAll + tileSz - 1) / tileSz;
      vmc::RankPartition part;
      {
        Span s(tracer, rank, "vmc.partition");
        if (opts.rankSplit == vmc::RankSplit::kTermBalanced && !costModel.empty()) {
          std::vector<std::uint64_t> tileCosts(nTiles, 0);
          for (std::size_t i = 0; i < nAll; ++i)
            tileCosts[i / tileSz] += costModel.estimate(allSamples[i]);
          part = vmc::partitionTilesByCost(tileCosts, nRanks);
        } else {
          part = vmc::partitionTilesEqual(nTiles, nRanks);
        }
      }
      const auto& myTiles = part.tiles[static_cast<std::size_t>(rank)];
      std::vector<Bits128> chunk;
      for (const std::uint32_t t : myTiles) {
        const std::size_t lo = static_cast<std::size_t>(t) * tileSz;
        const std::size_t hi = std::min(nAll, lo + tileSz);
        chunk.insert(chunk.end(), allSamples.begin() + static_cast<std::ptrdiff_t>(lo),
                     allSamples.begin() + static_cast<std::ptrdiff_t>(hi));
      }
      vmc::ElocStats elocStats;
      std::vector<std::uint64_t> chunkTerms(chunk.size(), 0);
      std::vector<Complex> chunkEloc;
      {
        Span s(tracer, rank, "vmc.eloc");
        chunkEloc = vmc::localEnergies(hamiltonian, chunk, lut, ex.eloc, nullptr, nullptr,
                                       &elocStats, chunkTerms.data());
      }
      ctr.eloc = elocStats;
      std::vector<Complex> gatheredEloc;
      std::vector<std::uint64_t> gatheredTerms;
      {
        Span s(tracer, rank, "parallel.gather", true);
        gatheredEloc = comm.allGatherV(chunkEloc.data(), chunkEloc.size());
      }
      {
        Span s(tracer, rank, "parallel.gather", true);
        gatheredTerms = comm.allGatherV(chunkTerms.data(), chunkTerms.size());
      }
      std::vector<Complex> globalEloc(nAll);
      std::vector<std::uint64_t> globalTerms(nAll);
      {
        std::size_t pos = 0;
        for (int r = 0; r < nRanks; ++r)
          for (const std::uint32_t t : part.tiles[static_cast<std::size_t>(r)]) {
            const std::size_t lo = static_cast<std::size_t>(t) * tileSz;
            const std::size_t hi = std::min(nAll, lo + tileSz);
            for (std::size_t i = lo; i < hi; ++i, ++pos) {
              globalEloc[i] = gatheredEloc[pos];
              globalTerms[i] = gatheredTerms[pos];
            }
          }
      }
      {
        Span s(tracer, rank, "vmc.partition");
        costModel.update(allSamples, globalTerms);
        std::vector<std::uint64_t> realizedTile(nTiles, 0);
        for (std::size_t i = 0; i < nAll; ++i) realizedTile[i / tileSz] += globalTerms[i];
        const std::vector<std::uint64_t> rankTerms = vmc::realizedRankCosts(part, realizedTile);
        ctr.rankTermsMin = *std::min_element(rankTerms.begin(), rankTerms.end());
        ctr.rankTermsMax = *std::max_element(rankTerms.begin(), rankTerms.end());
      }
      const Complex* eloc = globalEloc.data() + ownOffset;

      // --- Stage 4 ---------------------------------------------------------
      std::array<Real, 3> acc{0, 0, 0};
      for (std::size_t i = 0; i < local.nUnique(); ++i) {
        const Real w = static_cast<Real>(local.weights[i]);
        acc[0] += w * eloc[i].real();
        acc[1] += w * eloc[i].imag();
        acc[2] += w * std::norm(eloc[i]);
      }
      {
        Span s(tracer, rank, "parallel.reduce_energy", true);
        comm.allReduceSum(std::span<Real>(acc));
      }
      const Real wTot = static_cast<Real>(totalWeight);
      const Complex eMean{acc[0] / wTot, acc[1] / wTot};

      // --- Stage 5 ---------------------------------------------------------
      std::vector<Real> dLogAmp(local.nUnique()), dPhase(local.nUnique());
      for (std::size_t i = 0; i < local.nUnique(); ++i) {
        const Complex delta = eloc[i] - eMean;
        const Real w = static_cast<Real>(local.weights[i]) / wTot;
        dLogAmp[i] = 2.0 * w * delta.real();
        dPhase[i] = 2.0 * w * delta.imag();
      }
      {
        Span s(tracer, rank, "nqs.grad");
        net.evaluateGrad(local.samples, dLogAmp, dPhase);
      }
      ctr.tapeHighWater = net.gradTapeStats().highWater;

      // --- Stage 6 ---------------------------------------------------------
      {
        Span s(tracer, rank, "nn.grad_flatten");
        net.flattenGradients(grads);
      }
      {
        Span s(tracer, rank, "parallel.reduce_grad", true);
        comm.allReduceSum(grads.data(), grads.size());
      }
      {
        Span s(tracer, rank, "nn.grad_flatten");
        net.loadGradients(grads);
      }
      {
        Span s(tracer, rank, "nn.adamw");
        optimizer.step(schedule.lr(iter + 1));
      }

      const std::uint64_t myBytes = comm.bytesCommunicated();
      std::vector<std::uint64_t> rankBytes;
      {
        Span s(tracer, rank, "parallel.gather", true);
        rankBytes = comm.allGather(&myBytes, 1);
      }
      std::uint64_t iterBytes = 0;
      for (const std::uint64_t b : rankBytes) iterBytes += b;
      bytesAllIterations += iterBytes;
      ctr.bytes = iterBytes;

      history[static_cast<std::size_t>(iter)] = eMean.real();
      if (opts.checkpointEvery > 0 && rank == 0 && (iter + 1) % opts.checkpointEvery == 0) {
        Span s(tracer, rank, "io.ckpt_save");
        io::CheckpointWriter w;
        io::addNet(w, net);
        io::addOptimizer(w, optimizer);
        w.addU64("vmc.seed", opts.seed);
        w.addU64("vmc.iterNext", static_cast<std::uint64_t>(iter) + 1);
        w.addU64("vmc.nsCurrent", nsCurrent);
        w.addU64("vmc.commBytes", bytesAllIterations);
        w.addRealArray("vmc.energyHistory", history.data(), static_cast<std::size_t>(iter) + 1);
        w.addBitsArray("vmc.costKeys", costModel.keys());
        w.addU64Array("vmc.costCosts", costModel.costs());
        w.addU64("vmc.costDefault", costModel.defaultCost());
        w.save(opts.checkpointPath);
        ctr.ckptBytes = static_cast<std::size_t>(std::filesystem::file_size(opts.checkpointPath));
      }
      if (iter == opts.iterations - 1) {
        Span s(tracer, rank, "parallel.bcast", true);
        comm.bcast(&elocStats, 1);
      }
    }
    histories[static_cast<std::size_t>(rank)] = std::move(history);
  });

  out.energyHistory = std::move(histories[static_cast<std::size_t>(world->thisProcessRank())]);
  return out;
}

}  // namespace perfbench
