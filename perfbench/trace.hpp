#pragma once

// Bench-side span recorder and the arithmetic the per-layer metrics rest on.
//
// Spans are recorded by RAII guards placed around calls into the library (the
// library itself carries no instrumentation).  Each rank thread appends to
// its own buffer, so recording takes no lock; the buffers stay in memory and
// are written out once, when the run ends.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One closed span.  Times are seconds since the tracer's epoch.
struct SpanRec {
  const char* name = "";
  double t0 = 0, t1 = 0;
  int parent = -1;        ///< index into the same rank's buffer, -1 = root
  int rank = 0;
  int iter = -1;          ///< VMC iteration (-1 outside the loop)
  bool collective = false;  ///< a Comm collective: its start is the arrival

  [[nodiscard]] double dur() const { return t1 - t0; }
};

class Tracer {
 public:
  /// A disabled tracer records nothing; its spans cost one branch each.
  Tracer(bool enabled, int nRanks);

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] int nRanks() const { return static_cast<int>(ranks_.size()); }
  void setIter(int rank, int iter) { ranks_[static_cast<std::size_t>(rank)].iter = iter; }

  /// Open a span on `rank`'s buffer; returns its index (or -1 if disabled).
  int open(int rank, const char* name, bool collective);
  void close(int rank, int idx);

  /// All ranks' spans, rank-major, with parent indices rebased to the
  /// concatenated vector.
  [[nodiscard]] std::vector<SpanRec> all() const;

 private:
  struct RankBuf {
    std::vector<SpanRec> spans;
    std::vector<int> stack;
    int iter = -1;
  };
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(clock::now() - epoch_).count();
  }
  using clock = std::chrono::steady_clock;
  bool enabled_;
  clock::time_point epoch_;
  std::vector<RankBuf> ranks_;
};

/// RAII span guard.  Spans nest per rank in open/close order.
class Span {
 public:
  Span(Tracer& t, int rank, const char* name, bool collective = false)
      : t_(t), rank_(rank), idx_(t.enabled() ? t.open(rank, name, collective) : -1) {}
  ~Span() {
    if (idx_ >= 0) t_.close(rank_, idx_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& t_;
  int rank_;
  int idx_;
};

/// Self time of every span: its duration minus the part of [t0, t1] covered
/// by the union of its children's intervals (children may nest, overlap each
/// other, or stick out of the parent; only the covered part inside the
/// parent counts).  `spans` uses the parent indexing of Tracer::all().
std::vector<double> selfTimes(const std::vector<SpanRec>& spans);

/// Per-rank wait at collectives: for each collective (matched across ranks
/// by iteration and order of arrival within it), the last rank's arrival
/// minus this rank's arrival.  Returns the summed wait per (rank, iteration)
/// as waits[rank][iter] for iterations 0..nIters-1.
std::vector<std::vector<double>> collectiveWaits(const std::vector<SpanRec>& spans,
                                                 int nRanks, int nIters);

/// Nearest-rank percentile of `v` (p in (0, 100]); v need not be sorted.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

/// The reporting rule for tails: the highest percentile from the ladder
/// 50, 90, 95, 99, 99.9 that leaves at least ten samples beyond its
/// nearest-rank position.  Returns 0 when even the median has fewer than ten
/// samples beyond it (n < 20).
double tailPercentile(std::size_t n);

/// Chrome trace-event JSON: one "X" event per span, one track (tid) per rank.
void writeChromeTrace(const std::string& path, const std::vector<SpanRec>& spans);

}  // namespace perfbench
