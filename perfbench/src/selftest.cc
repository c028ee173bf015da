// Self-test of the benchmark's own arithmetic on synthetic inputs:
// percentiles and the tail-sample rule, span self time, and the
// sustained-rate ladder decision. `perfbench --selftest` exits 0 when
// every check holds; run.py runs it after every build.

#include <cmath>
#include <cstdio>

#include "stats.h"

namespace pb {

namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("selftest FAILED: %s\n", what);
    ++g_failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(101 - i);  // 100 .. 1
  Expect(Near(Percentile(v, 0.50), 50), "p50 of 1..100 is 50");
  Expect(Near(Percentile(v, 0.99), 99), "p99 of 1..100 is 99");
  Expect(Near(Percentile(v, 1.00), 100), "p100 is the maximum");
  Expect(Near(Percentile({7}, 0.99), 7), "one sample is every quantile");
  Expect(Near(Percentile({}, 0.5), 0), "empty input yields 0");
  Expect(Near(Median({3, 1, 2}), 2), "median of three");
  Expect(Near(Median({4, 1, 3, 2}), 2), "nearest-rank median of four");

  Expect(TailSamples(100, 0.99) == 1, "p99 of 100 has 1 sample beyond");
  Expect(TailSamples(1000, 0.99) == 10, "p99 of 1000 has 10 beyond");
  Expect(TailSamples(1001, 0.99) == 10, "p99 of 1001 has 10 beyond");
  Expect(!TailOk(999, 0.99), "999 samples are too few for p99");
  Expect(TailOk(1000, 0.99), "1000 samples suffice for p99");
}

void TestSpans() {
  Tracer t({"doc", "feed", "finish"});
  // doc [0, 100) with feeds [10, 30) and [25, 40) (overlapping: covered
  // once, 30 ns) and a finish [90, 120) clipped to the parent at 100.
  int doc = t.Add(0, -1, 0, 100);
  t.Add(1, doc, 10, 30);
  t.Add(1, doc, 25, 40);
  t.Add(2, doc, 90, 120);
  std::vector<SpanStats> s = t.Aggregate();
  Expect(s[0].count == 1 && s[0].total_ns == 100, "doc total");
  Expect(s[0].self_ns == 100 - 30 - 10, "doc self = duration - covered");
  Expect(s[1].count == 2 && s[1].total_ns == 35, "feed totals");
  Expect(s[1].self_ns == 35, "leaf self time is its duration");
  Expect(s[2].self_ns == 30, "finish self time");

  // Live nesting through Begin/End.
  Tracer live({"outer", "inner"});
  {
    ScopedSpan outer(&live, 0);
    ScopedSpan inner(&live, 1);
  }
  Expect(live.spans().size() == 2 && live.spans()[1].parent == 0,
         "ScopedSpan nests under the open span");
  std::vector<SpanStats> ls = live.Aggregate();
  Expect(ls[0].self_ns >= 0 && ls[0].self_ns <= ls[0].total_ns,
         "live self time within duration");
  ScopedSpan untraced(nullptr, 0);  // must be a no-op
}

void TestLadder() {
  Expect(Near(Slope({0, 1, 2, 3}, {5, 7, 9, 11}), 2), "slope of a line");
  Expect(Near(Slope({0, 1, 2}, {4, 4, 4}), 0), "flat slope");
  Expect(Near(Slope({1}, {3}), 0), "one point has no slope");

  auto step = [](double rate, double p99, double slope) {
    LadderStep s;
    s.offered_mib_s = rate;
    s.achieved_mib_s = rate;
    s.p99_ms = p99;
    s.arrivals_per_s = 1000;
    s.backlog_slope_per_s = slope;
    return s;
  };
  Expect(StepSustained(step(8, 5, 10), 25), "fast and stable is sustained");
  Expect(!StepSustained(step(8, 30, 0), 25), "p99 over the limit fails");
  Expect(!StepSustained(step(8, 5, 60), 25), "growing backlog fails");
  Expect(StepSustained(step(8, 5, 49), 25), "growth under 5% passes");

  std::vector<LadderStep> ladder = {step(8, 2, 0), step(16, 3, 1),
                                    step(24, 40, 0), step(32, 2, 0)};
  Expect(SustainedIndex(ladder, 25) == 1,
         "the ladder stops at the first failure");
  Expect(SustainedIndex({step(8, 99, 0)}, 25) == -1,
         "no sustained rung when the first fails");
  Expect(SustainedIndex({step(8, 1, 0), step(16, 1, 0)}, 25) == 1,
         "every rung sustained");
}

}  // namespace

int RunSelfTest() {
  TestPercentiles();
  TestSpans();
  TestLadder();
  if (g_failures == 0) std::printf("selftest ok\n");
  return g_failures == 0 ? 0 : 1;
}

}  // namespace pb
