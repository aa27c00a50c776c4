#pragma once

#include <stdexcept>
#include <string>

#include "nn/workspace.hpp"

namespace nnqs::nn {

/// What a forward pass records for the subsequent backward.
///
///  - kInference: compute outputs only.  On the Tensor-level forward() this
///    invalidates the module-resident activations of an earlier recording
///    forward: a backward() after it throws StaleTapeError instead of silently
///    computing gradients against stale inputs.
///  - kRecordTape: additionally store whatever the module needs so that a
///    single subsequent backward() can return dx and accumulate parameter
///    gradients.  The Tensor-level forward() records into module-resident
///    caches (the monolithic gradient path); the raw forwardTape() entry
///    points record into a caller-owned Tape instead (the tiled-recompute
///    gradient path), so per-tile activations are released wholesale by
///    Tape::reset() rather than living until the next forward.
///
/// The Tensor-level forward()/backward() pair is the only code that touches
/// module-resident caches.  The raw inference paths (forwardInto, decodeStep,
/// evaluateDecode) are const and take no GradMode: they never write the
/// network, so they neither invalidate a recording nor race with each other.
enum class GradMode {
  kInference,
  kRecordTape,
};

/// backward() activation guard.  Thrown when a Tensor-level backward runs
/// without a live recording forward; the message names the module instance
/// and the event that invalidated (or never created) its activation record,
/// in the typed-error style of io/checkpoint.hpp.  Derives from
/// std::logic_error so pre-existing catch sites keep working.
class StaleTapeError : public std::logic_error {
 public:
  StaleTapeError(const std::string& module, const std::string& invalidatedBy)
      : std::logic_error(module + ": backward without recorded activations (" +
                         invalidatedBy + ")") {}
};

/// Reasons a StaleTapeError names.  Only Tensor-level forwards and the
/// QiankunNet-level guards (evaluate/phases/evaluateGrad/prepareConcurrent)
/// invalidate; raw inference never does.
namespace stale {
inline constexpr const char* kNeverRecorded =
    "no GradMode::kRecordTape forward has run";
inline constexpr const char* kInferenceForward =
    "invalidated by a GradMode::kInference forward";
inline constexpr const char* kTapeForward =
    "invalidated by a tape-recording forward onto a caller-owned Tape "
    "(backward for it goes through backwardTape)";
inline constexpr const char* kExplicit =
    "invalidated by an explicit prepareConcurrent()";
}  // namespace stale

/// Caller-owned activation store of the tiled-recompute gradient path: one
/// bump-carve arena (nn::Workspace) holding a single tile's forward
/// activations plus its backward scratch.  The tile loop resets the tape
/// between tiles, so peak training activation memory is the high-water mark
/// of ONE tile — O(tile * L * d) — independent of the batch size, and a warm
/// tile (same shapes as the last) carves without touching the heap.
///
/// Recording convention: each module's forwardTape() carves its outputs (and
/// any backward caches, e.g. LayerNorm's xhat/invStd) from the tape and
/// stores the span pointers in a caller-held per-module frame struct;
/// backwardTape() consumes the frame.  Spans stay valid until the next
/// reset() — in particular a module may record its *input* span zero-copy,
/// because that span is the previous module's tape-carved output.
class Tape {
 public:
  /// Drop every recorded span (start the next tile's carve cycle).
  void reset() { ws_.reset(); }
  /// Pre-size the arena for `n` more Reals; only valid directly after
  /// reset(), like Workspace::reserve.
  void reserve(Index n) { ws_.reserve(n); }
  /// Carve `n` uninitialized Reals, 64-byte aligned, valid until reset().
  Real* alloc(Index n) { return ws_.alloc(n); }
  /// Arena accounting: highWater is the peak Reals live in any one tile —
  /// the "peak activation memory" number BM_BackwardTiled reports.
  [[nodiscard]] const Workspace::Stats& stats() const { return ws_.stats(); }

 private:
  Workspace ws_;
};

}  // namespace nnqs::nn
