#pragma once

#include <stdexcept>
#include <string>

#include "nn/workspace.hpp"

namespace nnqs::nn {

/// What a QiankunNet::evaluate records for the subsequent backward().
///
///  - kInference: compute outputs only.  Inference never writes the network
///    or its gradient tape, so it leaves a pending recording intact.
///  - kRecordTape: additionally record the activations of the whole batch on
///    the net's gradient Tape, consumed by exactly one backward().
///
/// Activations live only on a caller-owned Tape: each module's forwardTape()
/// records into it and its backwardTape() consumes the record.  No module
/// holds a backward cache, and every forward entry point is const.
enum class GradMode {
  kInference,
  kRecordTape,
};

/// Thrown when a backward runs without a live recording: a module's
/// backwardTape() on a frame no forwardTape() filled, or a
/// QiankunNet::backward() with no pending recording evaluate.  The message
/// names the module instance and the event that invalidated (or never
/// created) the record, in the typed-error style of io/checkpoint.hpp.
/// Derives from std::logic_error so pre-existing catch sites keep working.
class StaleTapeError : public std::logic_error {
 public:
  StaleTapeError(const std::string& module, const std::string& invalidatedBy)
      : std::logic_error(module + ": backward without recorded activations (" +
                         invalidatedBy + ")") {}
};

/// Reasons a StaleTapeError names.
namespace stale {
inline constexpr const char* kNeverRecorded =
    "no GradMode::kRecordTape forward has run";
inline constexpr const char* kUnrecordedFrame =
    "backwardTape frame was never recorded by forwardTape";
inline constexpr const char* kTapeForward =
    "invalidated by a tape-recording forward onto a caller-owned Tape "
    "(backward for it goes through backwardTape)";
inline constexpr const char* kExplicit =
    "invalidated by an explicit prepareConcurrent()";
}  // namespace stale

/// Caller-owned activation store, the one place activations are recorded:
/// one bump-carve arena (nn::Workspace) holding a single tile's forward
/// activations plus its live backward scratch.  The tile loop resets the tape
/// between tiles, so peak training activation memory is the high-water mark
/// of ONE tile — O(tile * L * d) — independent of the batch size, and a warm
/// tile (same shapes as the last) carves without touching the heap.
///
/// Recording convention: each module's forwardTape() carves its outputs (and
/// any backward caches, e.g. LayerNorm's xhat/invStd) from the tape and
/// stores the span pointers in a caller-held per-module frame struct;
/// backwardTape() consumes the frame.  Spans stay valid until the next
/// reset() — in particular a module may record its *input* span zero-copy,
/// because that span is the previous module's tape-carved output.  A
/// default-constructed frame is unrecorded (its row count is -1), and
/// backwardTape() on it throws StaleTapeError (stale::kUnrecordedFrame).
class Tape {
 public:
  /// Drop every recorded span (start the next tile's carve cycle).
  void reset() { ws_.reset(); }
  /// Pre-size the arena for `n` more Reals; only valid directly after
  /// reset(), like Workspace::reserve.
  void reserve(Index n) { ws_.reserve(n); }
  /// Carve `n` uninitialized Reals, 64-byte aligned, valid until reset()
  /// or until the release() of a mark taken before the carve.
  Real* alloc(Index n) { return ws_.alloc(n); }
  /// Scoped backward scratch: a backwardTape() that carves its result first
  /// can mark, carve its temporaries and release them before it returns
  /// (DecoderBlock does, once per half), so the tape holds the forward
  /// record plus one block half's scratch rather than every layer's.
  using Mark = Workspace::Mark;
  [[nodiscard]] Mark mark() const { return ws_.mark(); }
  void release(const Mark& m) { ws_.release(m); }
  /// Arena accounting: highWater is the peak Reals live in any one tile —
  /// the "peak activation memory" number BM_BackwardTiled reports.
  [[nodiscard]] const Workspace::Stats& stats() const { return ws_.stats(); }

 private:
  Workspace ws_;
};

}  // namespace nnqs::nn
