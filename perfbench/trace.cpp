#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <utility>

namespace perfbench {

Tracer::Tracer(bool enabled, int nRanks)
    : enabled_(enabled), epoch_(clock::now()),
      ranks_(static_cast<std::size_t>(std::max(1, nRanks))) {
  // Reserve up front so the recording path never reallocates mid-iteration.
  if (enabled_)
    for (RankBuf& b : ranks_) b.spans.reserve(1 << 14);
}

int Tracer::open(int rank, const char* name, bool collective) {
  RankBuf& b = ranks_[static_cast<std::size_t>(rank)];
  SpanRec s;
  s.name = name;
  s.rank = rank;
  s.iter = b.iter;
  s.collective = collective;
  s.parent = b.stack.empty() ? -1 : b.stack.back();
  s.t0 = now();
  b.spans.push_back(s);
  const int idx = static_cast<int>(b.spans.size()) - 1;
  b.stack.push_back(idx);
  return idx;
}

void Tracer::close(int rank, int idx) {
  RankBuf& b = ranks_[static_cast<std::size_t>(rank)];
  b.spans[static_cast<std::size_t>(idx)].t1 = now();
  b.stack.pop_back();
}

std::vector<SpanRec> Tracer::all() const {
  std::vector<SpanRec> out;
  for (const RankBuf& b : ranks_) {
    const int base = static_cast<int>(out.size());
    for (SpanRec s : b.spans) {
      if (s.parent >= 0) s.parent += base;
      out.push_back(s);
    }
  }
  return out;
}

std::vector<double> selfTimes(const std::vector<SpanRec>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const SpanRec& s : spans)
    if (s.parent >= 0) kids[static_cast<std::size_t>(s.parent)].emplace_back(s.t0, s.t1);
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].t0, hi = spans[i].t1;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0, curLo = 0, curHi = 0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= curHi) {
        curHi = std::max(curHi, b);
      } else {
        if (open) covered += curHi - curLo;
        curLo = a;
        curHi = b;
        open = true;
      }
    }
    if (open) covered += curHi - curLo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::vector<std::vector<double>> collectiveWaits(const std::vector<SpanRec>& spans,
                                                 int nRanks, int nIters) {
  // arrivals[(iter, ordinal)][rank]
  std::map<std::pair<int, int>, std::vector<double>> arrivals;
  std::map<std::pair<int, int>, int> ordinal;  // (rank, iter) -> next ordinal
  std::vector<const SpanRec*> coll;
  for (const SpanRec& s : spans)
    if (s.collective && s.iter >= 0 && s.iter < nIters) coll.push_back(&s);
  std::stable_sort(coll.begin(), coll.end(),
                   [](const SpanRec* a, const SpanRec* b) { return a->t0 < b->t0; });
  for (const SpanRec* s : coll) {
    const int k = ordinal[{s->rank, s->iter}]++;
    auto& a = arrivals[{s->iter, k}];
    if (a.empty()) a.assign(static_cast<std::size_t>(nRanks), NAN);
    a[static_cast<std::size_t>(s->rank)] = s->t0;
  }
  std::vector<std::vector<double>> waits(static_cast<std::size_t>(nRanks),
                                         std::vector<double>(static_cast<std::size_t>(nIters), 0.0));
  for (const auto& [key, a] : arrivals) {
    double last = -INFINITY;
    for (const double t : a) {
      if (std::isnan(t))
        throw std::runtime_error("collectiveWaits: a rank is missing a collective");
      last = std::max(last, t);
    }
    for (std::size_t r = 0; r < a.size(); ++r)
      waits[r][static_cast<std::size_t>(key.first)] += last - a[r];
  }
  return waits;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const auto k = static_cast<std::size_t>(std::max(1.0, std::ceil(p / 100.0 * n)));
  return v[std::min(k, v.size()) - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double tailPercentile(std::size_t n) {
  // Per-mille ladder; integer arithmetic keeps the boundary cases exact.
  static constexpr std::size_t kLadder[] = {999, 990, 950, 900, 500};
  for (const std::size_t pm : kLadder) {
    const std::size_t rank = (pm * n + 999) / 1000;  // nearest-rank, 1-based
    if (rank >= 1 && n - rank >= 10) return static_cast<double>(pm) / 10.0;
  }
  return 0.0;
}

void writeChromeTrace(const std::string& path, const std::vector<SpanRec>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "{\"traceEvents\":[\n");
  int maxRank = 0;
  for (const SpanRec& s : spans) maxRank = std::max(maxRank, s.rank);
  bool first = true;
  for (int r = 0; r <= maxRank; ++r) {
    std::fprintf(f,
                 "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,"
                 "\"args\":{\"name\":\"rank %d\"}}",
                 first ? "" : ",\n", r, r);
    first = false;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
                 "\"iter\":%d}}",
                 s.name, s.rank, s.t0 * 1e6, s.dur() * 1e6, i, s.parent, s.iter);
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

}  // namespace perfbench
