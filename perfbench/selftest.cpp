// Tests of the benchmark's own arithmetic on synthetic spans: self time with
// nested and overlapping children, collective wait from per-rank arrival
// times, and the tail-percentile rule.  Exits non-zero on the first failure.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "trace.hpp"

using perfbench::SpanRec;

namespace {

int failures = 0;

void expectNear(const char* what, double got, double want) {
  if (std::fabs(got - want) > 1e-12) {
    std::fprintf(stderr, "FAIL %s: got %.15g, want %.15g\n", what, got, want);
    ++failures;
  }
}

SpanRec span(const char* name, double t0, double t1, int parent, int rank = 0, int iter = 0,
             bool collective = false) {
  SpanRec s;
  s.name = name;
  s.t0 = t0;
  s.t1 = t1;
  s.parent = parent;
  s.rank = rank;
  s.iter = iter;
  s.collective = collective;
  return s;
}

void testSelfTimeNested() {
  // root [0,10] > a [1,4] > b [2,3]; c [5,6] under root.
  const std::vector<SpanRec> s = {span("root", 0, 10, -1), span("a", 1, 4, 0),
                                  span("b", 2, 3, 1), span("c", 5, 6, 0)};
  const std::vector<double> self = perfbench::selfTimes(s);
  expectNear("nested: root self", self[0], 10 - 3 - 1);
  expectNear("nested: a self", self[1], 3 - 1);
  expectNear("nested: b self", self[2], 1);
  expectNear("nested: c self", self[3], 1);
}

void testSelfTimeOverlap() {
  // Children overlapping each other ([1,4] and [3,6] cover [1,6]) and one
  // sticking out of the parent ([8,12] counts only up to 10).
  const std::vector<SpanRec> s = {span("root", 0, 10, -1), span("x", 1, 4, 0),
                                  span("y", 3, 6, 0), span("z", 8, 12, 0)};
  const std::vector<double> self = perfbench::selfTimes(s);
  expectNear("overlap: root self", self[0], 10 - 5 - 2);
  // A child fully containing another sibling's interval.
  const std::vector<SpanRec> s2 = {span("root", 0, 10, -1), span("x", 1, 9, 0),
                                   span("y", 2, 3, 0)};
  expectNear("contained: root self", perfbench::selfTimes(s2)[0], 2);
  // No children: self time is the duration.
  expectNear("leaf self", perfbench::selfTimes({span("leaf", 2, 2.5, -1)})[0], 0.5);
}

void testCollectiveWait() {
  // Two collectives in iteration 0, one in iteration 1, three ranks.
  // Collective 0 arrivals: 1.0, 1.5, 3.0 -> waits 2.0, 1.5, 0.
  // Collective 1 arrivals: 5.0, 4.0, 4.5 -> waits 0, 1.0, 0.5.
  // Iteration 1 arrivals: 7.0, 7.0, 6.0 -> waits 0, 0, 1.0.
  std::vector<SpanRec> s;
  const double a0[3] = {1.0, 1.5, 3.0}, a1[3] = {5.0, 4.0, 4.5}, a2[3] = {7.0, 7.0, 6.0};
  for (int r = 0; r < 3; ++r) {
    s.push_back(span("parallel.gather", a0[r], 3.2, -1, r, 0, true));
    s.push_back(span("vmc.eloc", 3.3, 3.9, -1, r, 0, false));
    s.push_back(span("parallel.reduce_grad", a1[r], 5.1, -1, r, 0, true));
    s.push_back(span("parallel.gather", a2[r], 7.1, -1, r, 1, true));
  }
  const auto w = perfbench::collectiveWaits(s, 3, 2);
  expectNear("wait r0 it0", w[0][0], 2.0);
  expectNear("wait r1 it0", w[1][0], 1.5 + 1.0);
  expectNear("wait r2 it0", w[2][0], 0.5);
  expectNear("wait r0 it1", w[0][1], 0.0);
  expectNear("wait r2 it1", w[2][1], 1.0);
  // One rank: never waits.
  const auto w1 = perfbench::collectiveWaits({span("parallel.gather", 1, 2, -1, 0, 0, true)}, 1, 1);
  expectNear("single rank wait", w1[0][0], 0.0);
}

void testPercentileRule() {
  expectNear("n=19: no percentile", perfbench::tailPercentile(19), 0);
  expectNear("n=20: p50", perfbench::tailPercentile(20), 50);
  expectNear("n=99: p50", perfbench::tailPercentile(99), 50);
  expectNear("n=100: p90", perfbench::tailPercentile(100), 90);
  expectNear("n=199: p90", perfbench::tailPercentile(199), 90);
  expectNear("n=200: p95", perfbench::tailPercentile(200), 95);
  expectNear("n=999: p95", perfbench::tailPercentile(999), 95);
  expectNear("n=1000: p99", perfbench::tailPercentile(1000), 99);
  expectNear("n=9999: p99", perfbench::tailPercentile(9999), 99);
  expectNear("n=10000: p99.9", perfbench::tailPercentile(10000), 99.9);

  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  expectNear("nearest-rank p90 of 1..100", perfbench::percentile(v, 90), 90);
  expectNear("nearest-rank p99 of 1..100", perfbench::percentile(v, 99), 99);
  expectNear("median of 1..100", perfbench::median(v), 50.5);
  expectNear("median of 3", perfbench::median({3, 1, 2}), 2);
}

}  // namespace

int main() {
  testSelfTimeNested();
  testSelfTimeOverlap();
  testCollectiveWait();
  testPercentileRule();
  if (failures > 0) {
    std::fprintf(stderr, "perfbench selftest: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
