#pragma once

// Execution-policy enums and the consolidated ExecutionPolicy struct.
//
// Every engine-selection knob of the stack lives here, in one dependency-free
// header, so any layer can name a policy without pulling in the subsystem that
// implements it.  The subsystems alias these types back into their historical
// namespaces (nqs::DecodePolicy, nn::kernels::KernelPolicy, vmc::ElocMode,
// parallel::CommBackend), so existing call sites compile unchanged.

namespace nnqs::exec {

/// Which conditional-distribution engine the samplers — and, since the
/// teacher-forced evaluate path, ln|Psi| inference — run on.
///
/// kFullForward is the stateless reference path: every step re-runs a full
/// transformer forward over the whole prefix window (O(L^2) token work per
/// sweep).  kKvCache is the stateful incremental-decode engine: per-layer
/// key/value caches make each step O(1) token work, with cache rows gathered
/// onto the live frontier as sampling-tree nodes split or are pruned.  Both
/// produce bit-identical samples (and, via teacher forcing, bit-identical
/// amplitudes) for a fixed seed.
enum class DecodePolicy {
  kFullForward,
  kKvCache,
};

/// Decode-attention / GEMM / elementwise kernel backend (src/nn/kernels/).
/// All backends are bit-identical under the arithmetic contract, so this is
/// purely a performance knob.
enum class KernelPolicy {
  kAuto,      ///< threaded+SIMD for large frontiers, plain SIMD otherwise
  kScalar,    ///< serial scalar reference kernel (ground truth)
  kSimd,      ///< single-threaded AVX2/FMA-capable kernel (scalar fallback)
  kThreaded,  ///< SIMD kernel + OpenMP over (row, head) tiles
};

/// Local-energy engine variants benchmarked in Fig. 10.  All compute
///   E_loc(x) = sum_{x'} <x|H|x'> psi(x') / psi(x):
///  - kBaseline: per-Pauli-string (MADE layout), every coupled state's psi
///    obtained by a fresh network inference; no fusion, no lookup table.
///  - kSaFuse: compressed layout (Fig. 6c), fused coefficient evaluation,
///    sample-aware (only x' in S), but S searched linearly as byte strings.
///  - kSaFuseLut: + the sorted integer lookup table (binary search).
///  - kSaFuseLutParallel: + thread parallelism over samples (Algorithm 2 with
///    OpenMP threads standing in for the CUDA kernel).
///  - kBatched: the batched SIMD engine (vmc/eloc_kernels.hpp) — coupled
///    states found by a flip-distance scan of S plus a mask -> group index,
///    batched per-group coefficient passes over sample tiles, tiles
///    dynamically scheduled by realized term work.  Per-sample results
///    identical to kSaFuseLut.
enum class ElocMode {
  kBaseline,
  kSaFuse,
  kSaFuseLut,
  kSaFuseLutParallel,
  kBatched,
};

/// Transport behind the parallel::Comm collectives (src/parallel/comm.hpp):
///  - kThreads: rank-threads of one process (tests/CI; no external deps).
///  - kMpi: one MPI process per rank (NNQS_WITH_MPI builds; launch under
///    mpirun).  Both transports implement the same rank-ordered deterministic
///    reduction contract, so a run is bit-identical across backends at a
///    fixed rank count.
enum class CommBackend {
  kThreads,
  kMpi,
};

/// The consolidated execution policy: every engine-selection knob of a VMC
/// run (or of a standalone sampler / inference call) in one struct.
/// VmcOptions, SamplerOptions and QiankunNet::setEvalPolicy all accept it.
/// Each field picks an engine or a tile size; none selects an A/B reference
/// path.  The BAS sweep always yields ln|Psi| (SampleSet::logAmp).
struct ExecutionPolicy {
  DecodePolicy decode = DecodePolicy::kKvCache;
  KernelPolicy kernel = KernelPolicy::kAuto;
  ElocMode eloc = ElocMode::kBatched;
  CommBackend comm = CommBackend::kThreads;

  // The three tile fields share one contract: 0 selects the engine default,
  // n > 0 means n rows, and a negative value is rejected with
  // std::invalid_argument by the engine that reads it.  A tile at least as
  // large as the batch is the untiled sweep.  Every geometry is bit-identical,
  // so these fields only trade cache traffic or memory against wall clock.

  /// Rows per cache-resident tile of the BAS sweep engine's depth-first
  /// frontier descent (kKvCache sampling only; engine default
  /// BasSweepEngine::kDefaultTileRows).
  int sweepTileRows = 0;
  /// Samples per tile of every inference evaluate: the teacher-forced
  /// decode sweep (bounds the KV arena), the kFullForward reference's
  /// scratch tape and the phase MLP's workspace, each independent of the
  /// batch size (engine default TransformerAR::kEvalTileRows).
  int evalTileRows = 0;
  /// Samples per tile of the recompute-in-tiles gradient
  /// (QiankunNet::evaluateGrad): each tile re-runs the recording forward,
  /// backprops, and releases its activations, bounding peak training
  /// activation memory at O(tile * L * d) independent of the batch size
  /// (engine default TransformerAR::kEvalTileRows).
  int gradTileRows = 0;
};

}  // namespace nnqs::exec
