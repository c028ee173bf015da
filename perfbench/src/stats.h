#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// The benchmark's own arithmetic, kept free of engine dependencies so the
// self-test (selftest.cc) can pin it on synthetic inputs:
//   * nearest-rank percentiles and the tail-sample rule,
//   * span tracing with self time (duration minus covered child time),
//   * the sustained-rate ladder decision (latency limit + backlog growth).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// --- Percentiles ---------------------------------------------------------

// Nearest-rank percentile: the smallest sample with at least ceil(p * n)
// samples at or below it. p in (0, 1]; an empty input yields 0.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  if (rank < 1) rank = 1;
  if (rank > values.size()) rank = values.size();
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

inline double Median(const std::vector<double>& values) {
  return Percentile(values, 0.5);
}

// Samples ranked strictly beyond the nearest-rank p-quantile of n samples.
inline int64_t TailSamples(int64_t n, double p) {
  if (n <= 0) return 0;
  int64_t rank = static_cast<int64_t>(std::ceil(p * static_cast<double>(n)));
  return n - std::max<int64_t>(rank, 1);
}

// The tail rule: a p-quantile is reported only from runs with at least
// `min_tail` samples beyond it (p99 needs n >= 1000 for 10).
inline constexpr int64_t kMinTailSamples = 10;

inline bool TailOk(int64_t n, double p, int64_t min_tail = kMinTailSamples) {
  return TailSamples(n, p) >= min_tail;
}


// --- Spans ---------------------------------------------------------------

// One timed region of the benchmark's own code around a call into the
// program. Spans nest (a Feed span inside a document span); parent is the
// index of the enclosing span or -1.
struct Span {
  int name = 0;
  int parent = -1;
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
};

// Per-name aggregate: count, total duration, and self time — duration
// minus the part of it covered by child spans (overlapping children are
// counted once; a child sticking out of its parent is clipped).
struct SpanStats {
  int64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
  std::vector<double> durations_ns;
};

// Single-threaded span recorder. Begin/End are a vector push and two
// clock reads; a disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(std::vector<std::string> names) : names_(std::move(names)) {
    spans_.reserve(1 << 16);
  }

  int Begin(int name) {
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.begin_ns = NowNs();
    spans_.push_back(span);
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void End(int index) {
    spans_[static_cast<size_t>(index)].end_ns = NowNs();
    if (!open_.empty() && open_.back() == index) open_.pop_back();
  }

  // Test hook: records a finished span with explicit times.
  int Add(int name, int parent, int64_t begin_ns, int64_t end_ns) {
    spans_.push_back(Span{name, parent, begin_ns, end_ns});
    return static_cast<int>(spans_.size()) - 1;
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }

  std::vector<SpanStats> Aggregate() const {
    std::vector<SpanStats> out(names_.size());
    std::vector<std::vector<int>> children(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent >= 0) {
        children[static_cast<size_t>(spans_[i].parent)].push_back(
            static_cast<int>(i));
      }
    }
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      int64_t duration = s.end_ns - s.begin_ns;
      std::vector<std::pair<int64_t, int64_t>> covered;
      for (int c : children[i]) {
        const Span& child = spans_[static_cast<size_t>(c)];
        int64_t b = std::max(child.begin_ns, s.begin_ns);
        int64_t e = std::min(child.end_ns, s.end_ns);
        if (e > b) covered.emplace_back(b, e);
      }
      std::sort(covered.begin(), covered.end());
      int64_t union_ns = 0;
      int64_t cur_b = 0;
      int64_t cur_e = -1;
      bool open = false;
      for (const auto& [b, e] : covered) {
        if (!open || b > cur_e) {
          if (open) union_ns += cur_e - cur_b;
          cur_b = b;
          cur_e = e;
          open = true;
        } else {
          cur_e = std::max(cur_e, e);
        }
      }
      if (open) union_ns += cur_e - cur_b;
      SpanStats& agg = out[static_cast<size_t>(s.name)];
      ++agg.count;
      agg.total_ns += duration;
      agg.self_ns += duration - union_ns;
      agg.durations_ns.push_back(static_cast<double>(duration));
    }
    return out;
  }

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span on an optional tracer (null: untraced, zero cost beyond the
// branch).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, int name)
      : tracer_(tracer), index_(tracer ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

// --- Sustained-rate ladder -----------------------------------------------

// Least-squares slope of ys over xs (0 for fewer than two points or a
// degenerate x spread).
inline double Slope(const std::vector<double>& xs,
                    const std::vector<double>& ys) {
  size_t n = std::min(xs.size(), ys.size());
  if (n < 2) return 0.0;
  double mx = 0, my = 0;
  for (size_t i = 0; i < n; ++i) {
    mx += xs[i];
    my += ys[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxx = 0, sxy = 0;
  for (size_t i = 0; i < n; ++i) {
    sxx += (xs[i] - mx) * (xs[i] - mx);
    sxy += (xs[i] - mx) * (ys[i] - my);
  }
  return sxx > 0 ? sxy / sxx : 0.0;
}

// One offered rate of the ladder, as measured.
struct LadderStep {
  double offered_mib_s = 0;
  double achieved_mib_s = 0;     // completed document bytes / step time
  double p99_ms = 0;             // due time -> verdict
  double arrivals_per_s = 0;     // offered documents per second
  double backlog_slope_per_s = 0;  // growth of (due - completed) documents
};

// A step is sustained when its p99 meets the latency limit and the backlog
// grows by less than kMaxBacklogGrowth of the arrival rate (a system at
// 100% + x of capacity grows its backlog at about x of arrivals).
inline constexpr double kMaxBacklogGrowth = 0.05;

inline bool StepSustained(const LadderStep& step, double limit_ms) {
  return step.p99_ms <= limit_ms &&
         step.backlog_slope_per_s <= kMaxBacklogGrowth * step.arrivals_per_s;
}

// Index of the highest sustained step below the first unsustained one
// (the ladder is climbed in order and stops at the first failure); -1 when
// even the first step fails.
inline int SustainedIndex(const std::vector<LadderStep>& steps,
                          double limit_ms) {
  int best = -1;
  for (size_t i = 0; i < steps.size(); ++i) {
    if (!StepSustained(steps[i], limit_ms)) break;
    best = static_cast<int>(i);
  }
  return best;
}

}  // namespace pb

#endif  // PERFBENCH_STATS_H_
