#include "nn/workspace.hpp"

#include <algorithm>
#include <cassert>

namespace nnqs::nn {

void Workspace::reset() {
  stats_.highWater = std::max(stats_.highWater, cycle_);
  // Coalesce: if the last cycle overflowed (or reserve history outgrew the
  // block), re-size the primary block to the high-water mark so the next
  // same-sized cycle is served contiguously with no allocation at all.
  if (!overflow_.empty() || block_.capacity() < stats_.highWater) {
    overflow_.clear();
    overflowUsed_ = 0;
    block_.assignZero(stats_.highWater);
    ++stats_.grows;
  }
  stats_.capacity = block_.capacity();
  used_ = 0;
  cycle_ = 0;
}

void Workspace::reserve(Index n) {
  assert(used_ == 0 && cycle_ == 0 && overflow_.empty() &&
         "Workspace::reserve: only valid directly after reset()");
  const auto need = static_cast<std::size_t>(spanReals(n));
  if (block_.capacity() < need) {
    block_.assignZero(need);
    ++stats_.grows;
    stats_.capacity = block_.capacity();
  }
}

Real* Workspace::alloc(Index n) {
  assert(n >= 0);
  const auto need = static_cast<std::size_t>(spanReals(n));
  cycle_ += need;
  if (used_ + need <= block_.capacity()) {
    Real* p = block_.data() + used_;
    used_ += need;
    return p;
  }
  // Mid-cycle growth: live spans pin the primary block, so overflow goes to a
  // fresh side chunk (sized like a capacity doubling), coalesced away by the
  // next reset().
  if (overflow_.empty() || overflowUsed_ + need > overflow_.back().capacity()) {
    const std::size_t chunk =
        std::max(need, std::max(block_.capacity(), std::size_t{1} << 12));
    overflow_.emplace_back();
    overflow_.back().assignZero(chunk);
    overflowUsed_ = 0;
    ++stats_.overflows;
  }
  Real* p = overflow_.back().data() + overflowUsed_;
  overflowUsed_ += need;
  return p;
}

void Workspace::release(const Mark& m) {
  assert(m.cycle <= cycle_ && m.overflowChunks <= overflow_.size() &&
         "Workspace::release: mark from another cycle");
  stats_.highWater = std::max(stats_.highWater, cycle_);
  // Side chunks opened after the mark hold only released spans.
  overflow_.resize(m.overflowChunks);
  overflowUsed_ = m.overflowUsed;
  used_ = m.used;
  cycle_ = m.cycle;
}

}  // namespace nnqs::nn
