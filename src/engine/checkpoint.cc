#include "engine/checkpoint.h"

#include <algorithm>
#include <utility>

#include "base/check.h"

namespace sst {

void CheckpointStream::Append(Checkpoint cp) {
  SST_CHECK(cps_.empty() || cp.offset > cps_.back().offset);
  cps_.push_back(std::move(cp));
}

int64_t CheckpointStream::FindResume(int64_t offset) const {
  // Last checkpoint with cps_[i].offset <= offset.
  auto it = std::upper_bound(
      cps_.begin(), cps_.end(), offset,
      [](int64_t off, const Checkpoint& cp) { return off < cp.offset; });
  if (it == cps_.begin()) return -1;
  return static_cast<int64_t>(it - cps_.begin()) - 1;
}

size_t CheckpointStream::FirstAtOrAfter(int64_t offset) const {
  auto it = std::lower_bound(
      cps_.begin(), cps_.end(), offset,
      [](const Checkpoint& cp, int64_t off) { return cp.offset < off; });
  return static_cast<size_t>(it - cps_.begin());
}

int64_t CheckpointStream::PrefixPeak(size_t upto) const {
  SST_CHECK(upto < cps_.size());
  int64_t peak = 0;
  for (size_t i = 0; i <= upto; ++i) {
    peak = std::max(peak, cps_[i].segment_peak_depth);
  }
  return peak;
}

int64_t CheckpointStream::SuffixPeak(size_t from, int64_t tail_peak) const {
  int64_t peak = tail_peak;
  for (size_t i = from; i < cps_.size(); ++i) {
    peak = std::max(peak, cps_[i].segment_peak_depth);
  }
  return peak;
}

void CheckpointStream::ReplaceAll(std::vector<Checkpoint> cps) {
  cps_ = std::move(cps);
}

}  // namespace sst
