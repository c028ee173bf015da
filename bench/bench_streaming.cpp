// Scanner throughput for the StreamingSelector front-end and the engine
// layers above it. The scanner classifies bytes through precomputed
// 256-entry tables and, for registerless machines on compact markup, runs
// the fused ByteTagDfaRunner byte→state table. Chunk sizes sweep 64 B …
// 1 MB to show the per-chunk overhead amortizing away.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "automata/alphabet.h"
#include "automata/minimize.h"
#include "base/byte_scan.h"
#include "base/check.h"
#include "base/match_sink.h"
#include "bench_util.h"
#include "dra/byte_runner.h"
#include "dra/streaming.h"
#include "dra/tag_dfa.h"
#include "engine/multi_query.h"
#include "engine/plan_cache.h"
#include "engine/query_plan.h"
#include "engine/session.h"
#include "eval/registerless_query.h"
#include "query/rpq.h"
#include "trees/encoding.h"

namespace sst {
namespace {

using Format = StreamingSelector::Format;

constexpr int kDocNodes = 1 << 19;  // 1 MiB of compact markup

std::string DocumentBytes(Format format) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  EventStream events =
      Encode(bench::MakeDocument(bench::DocShape::kMixed, kDocNodes, 3, 42));
  switch (format) {
    case Format::kCompactMarkup:
      return ToCompactMarkup(alphabet, events);
    case Format::kXmlLite:
      return ToXmlLite(alphabet, events);
    case Format::kCompactTerm:
      return ToCompactTerm(alphabet, events);
  }
  return {};
}

const char* FormatName(Format format) {
  switch (format) {
    case Format::kCompactMarkup:
      return "markup";
    case Format::kXmlLite:
      return "xml";
    case Format::kCompactTerm:
      return "term";
  }
  return "?";
}

// Hides the TagDfa export, forcing the scanner onto its generic
// (virtual-dispatch) path — isolates table-driven lexing from the fused
// byte-table gain.
class OpaqueMachine final : public StreamMachine {
 public:
  explicit OpaqueMachine(StreamMachine* inner) : inner_(inner) {}
  void Reset() override { inner_->Reset(); }
  void OnOpen(Symbol symbol) override { inner_->OnOpen(symbol); }
  void OnClose(Symbol symbol) override { inner_->OnClose(symbol); }
  bool InAcceptingState() const override {
    return inner_->InAcceptingState();
  }

 private:
  StreamMachine* inner_;
};

template <typename Selector>
int64_t DriveChunked(Selector& selector, const std::string& bytes,
                     size_t chunk_size) {
  selector.Reset();
  for (size_t i = 0; i < bytes.size(); i += chunk_size) {
    if (!selector.Feed(std::string_view(bytes).substr(i, chunk_size))) {
      return -1;
    }
  }
  return selector.Finish() ? selector.matches() : -1;
}

struct BenchSetup {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  TagDfa evaluator;
  TagDfaMachine machine;

  explicit BenchSetup(bool blind)
      : evaluator(BuildRegisterlessQueryAutomaton(
            CompileRegex("a.*b", Alphabet::FromLetters("abc")), blind)),
        machine(&evaluator) {}
};

void RunScanBench(benchmark::State& state, bool opaque) {
  Format format = static_cast<Format>(state.range(0));
  size_t chunk_size = static_cast<size_t>(state.range(1));
  BenchSetup setup(format == Format::kCompactTerm);
  std::string bytes = DocumentBytes(format);
  OpaqueMachine hidden(&setup.machine);
  StreamMachine* machine =
      opaque ? static_cast<StreamMachine*>(&hidden) : &setup.machine;
  int64_t matches = 0;
  StreamingSelector selector(machine, format, &setup.alphabet);
  for (auto _ : state) {
    matches = DriveChunked(selector, bytes, chunk_size);
    benchmark::DoNotOptimize(matches);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
  state.counters["matches"] = static_cast<double>(matches);
  std::string label = FormatName(format);
  label += opaque ? "/generic" : "/fastest";
  label += "/chunk=" + std::to_string(chunk_size);
  state.SetLabel(label);
}

void BM_RebuiltScanner(benchmark::State& state) {
  RunScanBench(state, /*opaque=*/false);
}

// Table-driven lexing only (fused byte table disabled) — how much of the
// win is the lexer vs. the fused transition table.
void BM_RebuiltScannerGenericPath(benchmark::State& state) {
  RunScanBench(state, /*opaque=*/true);
}

// Robustness guards on: finite StreamLimits plus the skip-recovery
// policy, on a clean document. Measures the hot-path overhead of the
// hardened front-end (per-open depth check, per-event budget check,
// per-Feed byte-guard split) against BM_RebuiltScanner — the acceptance
// bar is <2%.
void BM_RebuiltScannerGuarded(benchmark::State& state) {
  Format format = static_cast<Format>(state.range(0));
  size_t chunk_size = static_cast<size_t>(state.range(1));
  BenchSetup setup(format == Format::kCompactTerm);
  std::string bytes = DocumentBytes(format);
  StreamLimits limits;
  limits.max_depth = 1 << 20;
  limits.max_document_bytes = int64_t{1} << 40;
  limits.max_events = int64_t{1} << 40;
  limits.max_recovered_errors = 64;
  StreamingSelector selector(&setup.machine, format, &setup.alphabet);
  selector.set_recovery_policy(RecoveryPolicy::kSkipMalformedSubtree);
  selector.set_limits(limits);
  int64_t matches = 0;
  for (auto _ : state) {
    matches = DriveChunked(selector, bytes, chunk_size);
    benchmark::DoNotOptimize(matches);
  }
  SST_CHECK(matches >= 0);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
  state.counters["matches"] = static_cast<double>(matches);
  std::string label = FormatName(format);
  label += "/guarded/chunk=" + std::to_string(chunk_size);
  state.SetLabel(label);
}

const std::vector<std::vector<int64_t>> kArgs = {
    {0, 1, 2},                              // format
    {64, 1024, 65536, 1 << 20},             // chunk size
};

BENCHMARK(BM_RebuiltScanner)->ArgsProduct(kArgs);
BENCHMARK(BM_RebuiltScannerGenericPath)
    ->ArgsProduct({{0}, {64, 1024, 65536, 1 << 20}});
BENCHMARK(BM_RebuiltScannerGuarded)->ArgsProduct(kArgs);

// --- Whitespace-padded XML: the SIMD/SWAR bulk-skip showcase ------------
// Pretty-printed XML is mostly indentation; the scanner jumps whitespace
// runs 64 bytes at a time (base/byte_scan.h) and memchr-scans tag bodies.

std::string PaddedXmlBytes() {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  EventStream events = Encode(
      bench::MakeDocument(bench::DocShape::kMixed, 1 << 17, 3, 42));
  std::string out;
  int depth = 0;
  for (const TagEvent& event : events) {
    if (!event.open) --depth;
    out.append(1, '\n');
    out.append(static_cast<size_t>(depth) * 2, ' ');
    out += event.open ? "<" : "</";
    out += alphabet.LabelOf(event.symbol);
    out += ">";
    if (event.open) ++depth;
  }
  return out;
}

void BM_RebuiltScannerPaddedXml(benchmark::State& state) {
  BenchSetup setup(false);
  std::string bytes = PaddedXmlBytes();
  size_t chunk_size = 65536;
  int64_t matches = 0;
  StreamingSelector selector(&setup.machine, Format::kXmlLite,
                             &setup.alphabet);
  for (auto _ : state) {
    matches = DriveChunked(selector, bytes, chunk_size);
    benchmark::DoNotOptimize(matches);
  }
  SST_CHECK(matches >= 0);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
  state.counters["matches"] = static_cast<double>(matches);
  state.SetLabel(std::string("xmlpad/rebuilt/kernel=") + ByteScanKernelName());
}

BENCHMARK(BM_RebuiltScannerPaddedXml);

// --- The sequential fused table on large documents ---------------------
// Inputs are large balanced documents: copies of the 1 MiB random document
// nested under a single root, so 64 MB of compact markup stays one
// well-formed tree.

const std::string& TiledMarkup(size_t target_bytes) {
  static std::map<size_t, std::string>* cache =
      new std::map<size_t, std::string>();
  auto it = cache->find(target_bytes);
  if (it != cache->end()) return it->second;
  const std::string base = DocumentBytes(Format::kCompactMarkup);
  std::string out = "a";
  out.reserve(target_bytes + base.size() + 2);
  while (out.size() + base.size() + 1 < target_bytes) out += base;
  out += "A";
  return (*cache)[target_bytes] = std::move(out);
}

void BM_SequentialFusedRunner(benchmark::State& state) {
  size_t mib = static_cast<size_t>(state.range(0));
  BenchSetup setup(false);
  ByteTagDfaRunner runner(setup.evaluator);
  const std::string& bytes = TiledMarkup(mib << 20);
  int64_t matches = 0;
  for (auto _ : state) {
    matches = runner.CountSelections(bytes);
    benchmark::DoNotOptimize(matches);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
  state.counters["matches"] = static_cast<double>(matches);
  state.SetLabel("seq/" + std::to_string(mib) + "MiB");
}

BENCHMARK(BM_SequentialFusedRunner)->Arg(16)->Arg(64);

// --- Engine layer: compile-once/run-many amortization -------------------
// The cost ladder the engine is built around, one rung per benchmark:
// a cold QueryPlan::Compile (minimize + classify + build every table), a
// warm PlanCache hit (one shard lock + hash lookup), a fresh Session on a
// compiled plan (machine + scanner state, no tables), and a pooled
// re-acquire (free-list pop + Reset, zero allocations). Run side-by-side
// with BM_SharedPlanStreaming these give the break-even stream count where
// compiling stops mattering.

void BM_EngineColdCompile(benchmark::State& state) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Rpq rpq = Rpq::FromXPath("/a//b", alphabet);
  for (auto _ : state) {
    auto plan = QueryPlan::Compile(rpq, PlanOptions{});
    benchmark::DoNotOptimize(plan);
  }
  state.SetLabel("compile/cold");
}

void BM_EngineCacheHit(benchmark::State& state) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  PlanCache cache;
  cache.GetOrCompile(QuerySyntax::kXPath, "/a//b", alphabet, PlanOptions{});
  for (auto _ : state) {
    auto plan = cache.GetOrCompile(QuerySyntax::kXPath, "/a//b", alphabet,
                                   PlanOptions{});
    benchmark::DoNotOptimize(plan);
  }
  state.SetLabel("compile/cache-hit");
}

void BM_EngineFreshSession(benchmark::State& state) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  auto plan = QueryPlan::Compile(Rpq::FromXPath("/a//b", alphabet),
                                 PlanOptions{});
  for (auto _ : state) {
    Session session(plan);
    benchmark::DoNotOptimize(session.matches());
  }
  state.SetLabel("session/fresh");
}

void BM_EnginePooledSession(benchmark::State& state) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  auto plan = QueryPlan::Compile(Rpq::FromXPath("/a//b", alphabet),
                                 PlanOptions{});
  SessionPool pool(plan);
  pool.Release(pool.Acquire());  // warm the free list
  for (auto _ : state) {
    auto session = pool.Acquire();
    benchmark::DoNotOptimize(session->matches());
    pool.Release(std::move(session));
  }
  state.SetLabel("session/pooled");
}

BENCHMARK(BM_EngineColdCompile);
BENCHMARK(BM_EngineCacheHit);
BENCHMARK(BM_EngineFreshSession);
BENCHMARK(BM_EnginePooledSession);

// --- Multi-session shared-plan throughput -------------------------------
// T worker lanes stream disjoint replicas of the 1 MiB document through T
// pooled sessions over ONE plan — the serving configuration the engine
// layer exists for. Aggregate bytes/sec across lanes; real time, so lane
// counts beyond the core count show the (expected) flat line rather than
// fake scaling.

void BM_SharedPlanStreaming(benchmark::State& state) {
  int threads = static_cast<int>(state.range(0));
  Alphabet alphabet = Alphabet::FromLetters("abc");
  auto plan = QueryPlan::Compile(Rpq::FromXPath("/a//b", alphabet),
                                 PlanOptions{});
  SessionPool session_pool(plan, static_cast<size_t>(threads));
  const std::string& bytes = TiledMarkup(size_t{4} << 20);
  constexpr size_t kChunk = 65536;
  auto lane = [&] {
    auto session = session_pool.Acquire();
    session->Reset();
    bool ok = true;
    for (size_t i = 0; ok && i < bytes.size(); i += kChunk) {
      ok = session->Feed(std::string_view(bytes).substr(i, kChunk));
    }
    SST_CHECK(ok && session->Finish());
    benchmark::DoNotOptimize(session->matches());
    session_pool.Release(std::move(session));
  };
  for (auto _ : state) {
    std::vector<std::thread> lanes;
    for (int t = 0; t < threads; ++t) lanes.emplace_back(lane);
    for (std::thread& t : lanes) t.join();
  }
  state.SetBytesProcessed(state.iterations() * threads *
                          static_cast<int64_t>(bytes.size()));
  state.counters["threads"] = threads;
  state.SetLabel("sharedplan/threads=" + std::to_string(threads));
}

BENCHMARK(BM_SharedPlanStreaming)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// --- Multi-query fused execution ----------------------------------------
// N queries answered over ONE document scan through the output-annotated
// product automaton (engine/multi_query.h), against the status quo of N
// independent pooled sessions each scanning the document. Both report
// bytes-processed = document size per iteration — the work is "answer all
// N queries over this document" — so the bytes/sec ratio IS the speedup.

const Alphabet& WideAlphabet() {
  static const Alphabet* alphabet =
      new Alphabet(Alphabet::FromLetters("abcdef"));
  return *alphabet;
}

// Deterministic registerless family over {a..f}: the 30 two-step vertical
// paths "/x//y" (x != y) first, then the 6 root tests "/x". Every one
// compiles to the registerless tier, so any prefix of the list fuses.
std::vector<BatchQuery> MultiQueryBatch(int n) {
  static const std::vector<std::string>* texts = [] {
    auto* list = new std::vector<std::string>();
    const char* letters = "abcdef";
    for (int x = 0; x < 6; ++x) {
      for (int y = 0; y < 6; ++y) {
        if (x == y) continue;
        list->push_back(std::string("/") + letters[x] + "//" + letters[y]);
      }
    }
    for (int x = 0; x < 6; ++x) {
      list->push_back(std::string("/") + letters[x]);
    }
    return list;
  }();
  SST_CHECK(n <= static_cast<int>(texts->size()));
  std::vector<BatchQuery> batch;
  for (int i = 0; i < n; ++i) {
    batch.push_back(BatchQuery{QuerySyntax::kXPath, (*texts)[i]});
  }
  return batch;
}

// The padded-XML acceptance corpus over the six-letter alphabet:
// pretty-printed xml-lite, two spaces of indentation per depth level.
const std::string& PaddedXmlWideBytes() {
  static const std::string* cached = [] {
    const Alphabet& alphabet = WideAlphabet();
    EventStream events = Encode(
        bench::MakeDocument(bench::DocShape::kMixed, 1 << 17, 6, 42));
    auto* out = new std::string();
    int depth = 0;
    for (const TagEvent& event : events) {
      if (!event.open) --depth;
      out->append(1, '\n');
      out->append(static_cast<size_t>(depth) * 2, ' ');
      *out += event.open ? "<" : "</";
      *out += alphabet.LabelOf(event.symbol);
      *out += ">";
      if (event.open) ++depth;
    }
    return out;
  }();
  return *cached;
}

// Compact-markup corpus over the same alphabet for the byte-table tier.
const std::string& WideMarkupBytes() {
  static const std::string* cached = [] {
    return new std::string(ToCompactMarkup(
        WideAlphabet(),
        Encode(bench::MakeDocument(bench::DocShape::kMixed, 1 << 20, 6, 7))));
  }();
  return *cached;
}

// Per-query reference counts from N independent streaming runs.
std::vector<int64_t> IndependentReference(const std::vector<BatchQuery>& batch,
                                          const PlanOptions& options,
                                          const std::string& bytes) {
  std::vector<int64_t> counts;
  for (const BatchQuery& query : batch) {
    auto plan = QueryPlan::Compile(
        Rpq::FromXPath(query.text, WideAlphabet()), options);
    Session session(plan);
    SST_CHECK(session.Feed(bytes) && session.Finish());
    counts.push_back(session.matches());
  }
  return counts;
}

bool DriveBatchChunked(BatchSession& session, const std::string& bytes,
                       size_t chunk_size) {
  session.Reset();
  for (size_t i = 0; i < bytes.size(); i += chunk_size) {
    if (!session.Feed(std::string_view(bytes).substr(i, chunk_size))) {
      return false;
    }
  }
  return session.Finish();
}

void BM_MultiQueryFused(benchmark::State& state) {
  int num_queries = static_cast<int>(state.range(0));
  std::vector<BatchQuery> batch = MultiQueryBatch(num_queries);
  MultiQueryOptions options;
  options.plan.format = StreamFormat::kXmlLite;
  auto plan = MultiQueryPlan::Compile(batch, WideAlphabet(), options);
  SST_CHECK(plan->tier() == MultiTier::kFusedProduct);
  BatchSession session(plan);
  const std::string& bytes = PaddedXmlWideBytes();
  std::vector<int64_t> expected =
      IndependentReference(batch, options.plan, bytes);
  constexpr size_t kChunk = 65536;
  for (auto _ : state) {
    SST_CHECK(DriveBatchChunked(session, bytes, kChunk));
    // Acceptance: per-query counts byte-identical to independent runs.
    SST_CHECK(session.query_matches() == expected);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
  state.counters["queries"] = num_queries;
  state.counters["product_states"] =
      static_cast<double>(plan->stats().eager_states);
  state.SetLabel("multiquery/fused/xmlpad/N=" + std::to_string(num_queries));
}

void BM_MultiQueryIndependent(benchmark::State& state) {
  int num_queries = static_cast<int>(state.range(0));
  std::vector<BatchQuery> batch = MultiQueryBatch(num_queries);
  PlanOptions options;
  options.format = StreamFormat::kXmlLite;
  // The status quo: one pooled session per query, N full scans.
  std::vector<std::unique_ptr<SessionPool>> pools;
  for (const BatchQuery& query : batch) {
    pools.push_back(std::make_unique<SessionPool>(QueryPlan::Compile(
        Rpq::FromXPath(query.text, WideAlphabet()), options)));
  }
  const std::string& bytes = PaddedXmlWideBytes();
  constexpr size_t kChunk = 65536;
  std::vector<int64_t> counts(static_cast<size_t>(num_queries), 0);
  for (auto _ : state) {
    for (size_t q = 0; q < pools.size(); ++q) {
      auto session = pools[q]->Acquire();
      bool ok = true;
      for (size_t i = 0; ok && i < bytes.size(); i += kChunk) {
        ok = session->Feed(std::string_view(bytes).substr(i, kChunk));
      }
      SST_CHECK(ok && session->Finish());
      counts[q] = session->matches();
      pools[q]->Release(std::move(session));
    }
    benchmark::DoNotOptimize(counts.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
  state.counters["queries"] = num_queries;
  state.SetLabel("multiquery/independent/xmlpad/N=" +
                 std::to_string(num_queries));
}

BENCHMARK(BM_MultiQueryFused)->Arg(2)->Arg(8)->Arg(32);
BENCHMARK(BM_MultiQueryIndependent)->Arg(2)->Arg(8)->Arg(32);

// Byte-table tier on compact markup: the eager product fused into one
// 256-entry table vs the lazy product stepped state-by-state vs N
// independent fused single-query tables. Same accounting as above.

void RunMultiQueryScanBench(benchmark::State& state, bool lazy) {
  int num_queries = static_cast<int>(state.range(0));
  std::vector<BatchQuery> batch = MultiQueryBatch(num_queries);
  MultiQueryOptions options;
  if (lazy) options.eager_state_cap = 1;  // force the lazy tier
  auto plan = MultiQueryPlan::Compile(batch, WideAlphabet(), options);
  SST_CHECK(plan->tier() == (lazy ? MultiTier::kLazyProduct
                                  : MultiTier::kFusedProduct));
  BatchSession session(plan);
  const std::string& bytes = WideMarkupBytes();
  std::vector<int64_t> counts;
  for (auto _ : state) {
    counts = session.CountSelections(bytes);
    benchmark::DoNotOptimize(counts.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
  state.counters["queries"] = num_queries;
  MultiQueryPlan::Stats stats = plan->stats();
  state.counters["product_states"] = static_cast<double>(
      lazy ? stats.lazy_states : stats.eager_states);
  std::string label = lazy ? "multiquery/lazy-scan/N="
                           : "multiquery/eager-scan/N=";
  state.SetLabel(label + std::to_string(num_queries));
}

void BM_MultiQueryEagerScan(benchmark::State& state) {
  RunMultiQueryScanBench(state, /*lazy=*/false);
}

void BM_MultiQueryLazyScan(benchmark::State& state) {
  RunMultiQueryScanBench(state, /*lazy=*/true);
}

void BM_MultiQueryIndependentScan(benchmark::State& state) {
  int num_queries = static_cast<int>(state.range(0));
  std::vector<BatchQuery> batch = MultiQueryBatch(num_queries);
  std::vector<std::shared_ptr<const QueryPlan>> plans;
  for (const BatchQuery& query : batch) {
    plans.push_back(QueryPlan::Compile(
        Rpq::FromXPath(query.text, WideAlphabet()), PlanOptions{}));
    SST_CHECK(plans.back()->fused() != nullptr);
  }
  const std::string& bytes = WideMarkupBytes();
  std::vector<int64_t> counts(plans.size(), 0);
  for (auto _ : state) {
    for (size_t q = 0; q < plans.size(); ++q) {
      counts[q] = plans[q]->fused()->CountSelections(bytes);
    }
    benchmark::DoNotOptimize(counts.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
  state.counters["queries"] = num_queries;
  state.SetLabel("multiquery/independent-scan/N=" +
                 std::to_string(num_queries));
}

// Streaming Feed of the same batch in 64 KiB chunks on the fused-product
// tier, with no sink (0), a verdict-only CountingSink (1) or a sink that
// wants spans (2): the per-match member fan-out from the reached product
// state's mask, against the same stream with no sink.
class SpanCountingSink final : public MatchSink {
 public:
  void OnMatch(const MatchEvent&) override { ++matches; }
  void OnSpanClose(const MatchEvent&) override { ++spans; }
  int64_t matches = 0;
  int64_t spans = 0;
};

void BM_MultiQueryStreamSink(benchmark::State& state) {
  int num_queries = static_cast<int>(state.range(0));
  const int64_t mode = state.range(1);
  auto plan = MultiQueryPlan::Compile(MultiQueryBatch(num_queries),
                                      WideAlphabet(), MultiQueryOptions{});
  SST_CHECK(plan->tier() == MultiTier::kFusedProduct);
  BatchSession session(plan);
  CountingSink counting(num_queries);
  SpanCountingSink spans;
  if (mode == 1) session.set_match_sink(&counting);
  if (mode == 2) session.set_match_sink(&spans);
  const std::string& bytes = WideMarkupBytes();
  const std::vector<int64_t> expected = session.CountSelections(bytes);
  int64_t total = 0;
  for (int64_t count : expected) total += count;
  for (auto _ : state) {
    counting.Reset();
    spans = SpanCountingSink();
    SST_CHECK(DriveBatchChunked(session, bytes, 65536));
  }
  SST_CHECK(session.query_matches() == expected);
  if (mode == 1) SST_CHECK(counting.counts() == expected);
  if (mode == 2) SST_CHECK(spans.matches == total && spans.spans == total);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
  state.counters["matches"] = static_cast<double>(total);
  state.counters["product_states"] =
      static_cast<double>(plan->stats().eager_states);
  const char* sinks[] = {"off", "counting", "spans"};
  state.SetLabel("multiquery/stream/sink=" + std::string(sinks[mode]) +
                 "/N=" + std::to_string(num_queries));
}

BENCHMARK(BM_MultiQueryEagerScan)->Arg(2)->Arg(8)->Arg(32);
BENCHMARK(BM_MultiQueryLazyScan)->Arg(2)->Arg(8)->Arg(32);
BENCHMARK(BM_MultiQueryIndependentScan)->Arg(2)->Arg(8)->Arg(32);
BENCHMARK(BM_MultiQueryStreamSink)->ArgsProduct({{8, 32}, {0, 1, 2}});

// --- Stackless fused tier: Lemma 3.8 at byte-table speed ----------------
// Whitespace-padded compact markup over {a, b, c}: pretty-printed with a
// newline and two spaces of indentation per depth level, so the corpus is
// mostly padding both fused tiers bulk-skip with the SWAR/SIMD kernel
// before resolving each tag from a flat byte table. The registerless
// fused scan on the SAME corpus is the yardstick — the acceptance bar is
// stackless fused within 1.5x of it. The interpreter rows show what the
// materialize+fuse rung buys over per-event virtual dispatch with live
// register compares.

const std::string& PaddedMarkupBytes() {
  static const std::string* cached = [] {
    Alphabet alphabet = Alphabet::FromLetters("abc");
    EventStream events = Encode(
        bench::MakeDocument(bench::DocShape::kMixed, 1 << 17, 3, 42));
    auto* out = new std::string();
    int depth = 0;
    for (const TagEvent& event : events) {
      if (!event.open) --depth;
      out->append(1, '\n');
      out->append(static_cast<size_t>(depth) * 2, ' ');
      char letter = alphabet.LabelOf(event.symbol)[0];
      out->push_back(event.open ? letter
                                : static_cast<char>(letter - 'a' + 'A'));
      if (event.open) ++depth;
    }
    return out;
  }();
  return *cached;
}

std::shared_ptr<const QueryPlan> StacklessFusedPlan() {
  auto plan = QueryPlan::Compile(
      Rpq::FromXPath("/a/b", Alphabet::FromLetters("abc")), PlanOptions{});
  SST_CHECK(plan->kind() == EvaluatorKind::kStackless);
  SST_CHECK(plan->fused_dra() != nullptr);
  return plan;
}

// Registerless yardstick on the same corpus (whole-document fused scan).
void BM_RegisterlessFusedScanPadded(benchmark::State& state) {
  auto plan = QueryPlan::Compile(
      Rpq::FromXPath("/a//b", Alphabet::FromLetters("abc")), PlanOptions{});
  SST_CHECK(plan->fused() != nullptr);
  const std::string& bytes = PaddedMarkupBytes();
  int64_t matches = 0;
  for (auto _ : state) {
    matches = plan->fused()->CountSelections(bytes);
    benchmark::DoNotOptimize(matches);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
  state.counters["matches"] = static_cast<double>(matches);
  state.SetLabel("registerless/fused-scan/markup-pad");
}

// Stackless fused whole-document scan: depth + registers + 3^r code
// resolved inside the byte loop.
void BM_StacklessFusedScan(benchmark::State& state) {
  auto plan = StacklessFusedPlan();
  const std::string& bytes = PaddedMarkupBytes();
  int64_t matches = 0;
  for (auto _ : state) {
    matches = plan->fused_dra()->CountSelections(bytes);
    benchmark::DoNotOptimize(matches);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
  state.counters["matches"] = static_cast<double>(matches);
  state.counters["registers"] =
      static_cast<double>(plan->fused_dra()->num_registers());
  state.counters["dra_states"] =
      static_cast<double>(plan->fused_dra()->num_states());
  state.SetLabel("stackless/fused-scan/markup-pad");
}

// The same plan through the chunked front-end on the kFusedDraTable rung.
void BM_StacklessFusedStreaming(benchmark::State& state) {
  Session session(StacklessFusedPlan());
  SST_CHECK(session.selector().active_tier() ==
            StreamingSelector::Tier::kFusedDraTable);
  const std::string& bytes = PaddedMarkupBytes();
  int64_t matches = 0;
  for (auto _ : state) {
    matches = DriveChunked(session, bytes, 65536);
    benchmark::DoNotOptimize(matches);
  }
  SST_CHECK(matches >= 0);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
  state.counters["matches"] = static_cast<double>(matches);
  state.SetLabel("stackless/fused-streaming/markup-pad");
}

// Generic-tier baseline: the same materialized DRA stepped through the
// virtual machine interface (no fused table), chunked like above.
void BM_StacklessInterpreterStreaming(benchmark::State& state) {
  auto plan = StacklessFusedPlan();
  std::unique_ptr<StreamMachine> machine = plan->NewMachine();
  StreamingSelector selector(machine.get(), Format::kCompactMarkup,
                             &plan->alphabet(), &plan->scanner_tables(),
                             /*fused=*/nullptr);
  SST_CHECK(selector.active_tier() ==
            StreamingSelector::Tier::kGenericMachine);
  const std::string& bytes = PaddedMarkupBytes();
  int64_t matches = 0;
  for (auto _ : state) {
    matches = DriveChunked(selector, bytes, 65536);
    benchmark::DoNotOptimize(matches);
  }
  SST_CHECK(matches >= 0);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
  state.counters["matches"] = static_cast<double>(matches);
  state.SetLabel("stackless/generic-streaming/markup-pad");
}

BENCHMARK(BM_RegisterlessFusedScanPadded);
BENCHMARK(BM_StacklessFusedScan);
BENCHMARK(BM_StacklessFusedStreaming);
BENCHMARK(BM_StacklessInterpreterStreaming);

// --- Padded-corpus variants of the runner benchmarks --------------------
// The dense TiledMarkup corpora above measure the worst case for the
// structural index (every byte structural, no gaps to skip); these tile
// the pretty-printed document instead, so roughly 80% of the bytes are
// indentation the stage-1 SIMD scan removes before the table walk.

const std::string& TiledPaddedMarkup(size_t target_bytes) {
  static std::map<size_t, std::string>* cache =
      new std::map<size_t, std::string>();
  auto it = cache->find(target_bytes);
  if (it != cache->end()) return it->second;
  const std::string& base = PaddedMarkupBytes();
  std::string out = "a";
  out.reserve(target_bytes + base.size() + 2);
  while (out.size() + base.size() + 1 < target_bytes) out += base;
  out += "A";
  return (*cache)[target_bytes] = std::move(out);
}

void BM_SequentialFusedRunnerPadded(benchmark::State& state) {
  size_t mib = static_cast<size_t>(state.range(0));
  BenchSetup setup(false);
  ByteTagDfaRunner runner(setup.evaluator);
  const std::string& bytes = TiledPaddedMarkup(mib << 20);
  int64_t matches = 0;
  for (auto _ : state) {
    matches = runner.CountSelections(bytes);
    benchmark::DoNotOptimize(matches);
  }
  SST_CHECK(matches == runner.CountSelectionsPerByte(bytes));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
  state.counters["matches"] = static_cast<double>(matches);
  state.SetLabel("seq-pad/" + std::to_string(mib) + "MiB/kernel=" +
                 ByteScanKernelName());
}

BENCHMARK(BM_SequentialFusedRunnerPadded)->Arg(16)->Arg(64);

// Mixed multi-query batch: registerless members on the eager sub-product,
// stackless members stepping their fused DRAs, all in ONE scan — vs the
// same batch answered by per-member fused scans.

std::vector<BatchQuery> MixedBatch() {
  std::vector<BatchQuery> batch;
  for (const char* text : {"/a//b", "/c//b", "/a/b", "/b/*//c"}) {
    batch.push_back(BatchQuery{QuerySyntax::kXPath, text});
  }
  return batch;
}

void BM_StacklessFusedMixedBatchScan(benchmark::State& state) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  auto plan = MultiQueryPlan::Compile(MixedBatch(), alphabet,
                                      MultiQueryOptions{});
  SST_CHECK(plan->tier() == MultiTier::kMixed);
  BatchSession session(plan);
  SST_CHECK(session.one_scan_eligible());
  const std::string& bytes = PaddedMarkupBytes();
  std::vector<int64_t> counts;
  for (auto _ : state) {
    counts = session.CountSelections(bytes);
    benchmark::DoNotOptimize(counts.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
  state.counters["queries"] = static_cast<double>(counts.size());
  state.counters["stackless_members"] =
      static_cast<double>(plan->stats().stackless_members);
  state.SetLabel("stackless/mixed-batch-scan/markup-pad");
}

void BM_StacklessFusedMixedBatchIndependent(benchmark::State& state) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  std::vector<std::shared_ptr<const QueryPlan>> plans;
  for (const BatchQuery& query : MixedBatch()) {
    plans.push_back(QueryPlan::Compile(
        Rpq::FromXPath(query.text, alphabet), PlanOptions{}));
    SST_CHECK(plans.back()->fused() != nullptr ||
              plans.back()->fused_dra() != nullptr);
  }
  const std::string& bytes = PaddedMarkupBytes();
  std::vector<int64_t> counts(plans.size(), 0);
  for (auto _ : state) {
    for (size_t q = 0; q < plans.size(); ++q) {
      counts[q] = plans[q]->fused() != nullptr
                      ? plans[q]->fused()->CountSelections(bytes)
                      : plans[q]->fused_dra()->CountSelections(bytes);
    }
    benchmark::DoNotOptimize(counts.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
  state.counters["queries"] = static_cast<double>(plans.size());
  state.SetLabel("stackless/mixed-batch-independent/markup-pad");
}

BENCHMARK(BM_StacklessFusedMixedBatchScan);
BENCHMARK(BM_StacklessFusedMixedBatchIndependent);

// --- Dense streaming on the DRA and stack rungs --------------------------
// Every byte of the 1 MiB random document is structural, so the stage-1
// skip does no work and the rows measure the per-tag step: a stackless
// Session, a mixed BatchSession and a stack Session fed in 64 KiB chunks,
// each beside its one-scan counterpart over the same bytes (relative
// floors in bench_baselines.json pin the mixed streaming row to a share of
// its one-scan row).

void BM_StacklessSessionDense(benchmark::State& state) {
  auto plan = StacklessFusedPlan();
  Session session(plan);
  SST_CHECK(session.selector().active_tier() ==
            StreamingSelector::Tier::kFusedDraTable);
  const size_t chunk_size = static_cast<size_t>(state.range(0));
  const std::string bytes = DocumentBytes(Format::kCompactMarkup);
  int64_t matches = 0;
  for (auto _ : state) {
    matches = DriveChunked(session, bytes, chunk_size);
    benchmark::DoNotOptimize(matches);
  }
  SST_CHECK(matches == plan->fused_dra()->CountSelections(bytes));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
  state.counters["matches"] = static_cast<double>(matches);
  state.SetLabel("stackless/session/markup-dense/chunk=" +
                 std::to_string(chunk_size));
}

void BM_StacklessOneScanDense(benchmark::State& state) {
  auto plan = StacklessFusedPlan();
  const std::string bytes = DocumentBytes(Format::kCompactMarkup);
  int64_t matches = 0;
  for (auto _ : state) {
    matches = plan->fused_dra()->CountSelections(bytes);
    benchmark::DoNotOptimize(matches);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
  state.counters["matches"] = static_cast<double>(matches);
  state.SetLabel("stackless/one-scan/markup-dense");
}

void BM_MixedBatchSessionDense(benchmark::State& state) {
  auto plan = MultiQueryPlan::Compile(
      MixedBatch(), Alphabet::FromLetters("abc"), MultiQueryOptions{});
  SST_CHECK(plan->tier() == MultiTier::kMixed);
  BatchSession session(plan);
  const size_t chunk_size = static_cast<size_t>(state.range(0));
  const std::string bytes = DocumentBytes(Format::kCompactMarkup);
  std::vector<int64_t> counts;
  for (auto _ : state) {
    session.Reset();
    for (size_t i = 0; i < bytes.size(); i += chunk_size) {
      SST_CHECK(session.Feed(std::string_view(bytes).substr(i, chunk_size)));
    }
    SST_CHECK(session.Finish());
    counts = session.query_matches();
    benchmark::DoNotOptimize(counts.data());
  }
  SST_CHECK(counts == session.CountSelections(bytes));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
  state.counters["stackless_members"] =
      static_cast<double>(plan->stats().stackless_members);
  state.SetLabel("stackless/mixed-batch-session/markup-dense/chunk=" +
                 std::to_string(chunk_size));
}

void BM_MixedBatchOneScanDense(benchmark::State& state) {
  auto plan = MultiQueryPlan::Compile(
      MixedBatch(), Alphabet::FromLetters("abc"), MultiQueryOptions{});
  SST_CHECK(plan->tier() == MultiTier::kMixed);
  BatchSession session(plan);
  const std::string bytes = DocumentBytes(Format::kCompactMarkup);
  std::vector<int64_t> counts;
  for (auto _ : state) {
    counts = session.CountSelections(bytes);
    benchmark::DoNotOptimize(counts.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
  state.SetLabel("stackless/mixed-batch-one-scan/markup-dense");
}

// The pushdown tier: a stack Session (the kernel steps its state column
// beside the label column) and the one-scan pushdown runner. The floor on
// this pair is the interleaved BM_StackSessionVsOneScan counter in
// bench_incremental; these are trajectory rows.
void BM_StackSessionDense(benchmark::State& state) {
  auto plan = QueryPlan::Compile(
      Rpq::FromXPath("//a/b", Alphabet::FromLetters("abc")), PlanOptions{});
  SST_CHECK(plan->kind() == EvaluatorKind::kStackBaseline);
  Session session(plan);
  SST_CHECK(session.selector().active_tier() ==
            StreamingSelector::Tier::kFusedByteTable);
  const size_t chunk_size = static_cast<size_t>(state.range(0));
  const std::string bytes = DocumentBytes(Format::kCompactMarkup);
  int64_t matches = 0;
  for (auto _ : state) {
    matches = DriveChunked(session, bytes, chunk_size);
    benchmark::DoNotOptimize(matches);
  }
  SST_CHECK(matches ==
            ByteStackRunner(plan->minimal_dfa()).CountSelections(bytes));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
  state.counters["matches"] = static_cast<double>(matches);
  state.SetLabel("stack/session/markup-dense/chunk=" +
                 std::to_string(chunk_size));
}

void BM_StackOneScanDense(benchmark::State& state) {
  auto plan = QueryPlan::Compile(
      Rpq::FromXPath("//a/b", Alphabet::FromLetters("abc")), PlanOptions{});
  ByteStackRunner runner(plan->minimal_dfa());
  const std::string bytes = DocumentBytes(Format::kCompactMarkup);
  int64_t matches = 0;
  for (auto _ : state) {
    matches = runner.CountSelections(bytes);
    benchmark::DoNotOptimize(matches);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
  state.counters["matches"] = static_cast<double>(matches);
  state.SetLabel("stack/one-scan/markup-dense");
}

BENCHMARK(BM_StacklessSessionDense)->Arg(65536);
BENCHMARK(BM_StacklessOneScanDense);
BENCHMARK(BM_MixedBatchSessionDense)->Arg(65536);
BENCHMARK(BM_MixedBatchOneScanDense);
BENCHMARK(BM_StackSessionDense)->Arg(65536);
BENCHMARK(BM_StackOneScanDense);

// --- Match-sink emission cost and latency-to-certainty ------------------
// The streaming MatchSink pipeline replaces count-at-Finish with per-match
// push events carrying byte spans. These benches measure its overhead on
// the hottest tier (the fused byte table over the padded markup corpus —
// the same pretty-printed document the committed throughput baselines
// pin) and report the earliest-answering metrics:
//   latency_to_certainty_bytes  mean (certainty_offset - start_offset):
//                               bytes between a node's opening token and
//                               the byte at which its verdict is provably
//                               certain — the opening-token width under
//                               pre-selection semantics.
//   certainty_lead_bytes        mean (end_offset - certainty_offset) over
//                               completed spans: how many bytes before the
//                               node's close tag the verdict was pushed,
//                               i.e. the win over a close-tag-based
//                               answering model.
// The counting-sink bench is the acceptance anchor: it must stay within
// 5% of the sink-off bench (enforced as a relative floor by
// check_bench_baselines.py).

void AddLatencyCounters(benchmark::State& state,
                        const CollectingSink& sink) {
  double latency_sum = 0.0;
  double lead_sum = 0.0;
  int64_t lead_n = 0;
  for (const MatchEvent& event : sink.matches()) {
    latency_sum +=
        static_cast<double>(event.certainty_offset - event.start_offset);
  }
  for (const MatchEvent& event : sink.spans()) {
    if (event.end_offset >= 0) {
      lead_sum +=
          static_cast<double>(event.end_offset - event.certainty_offset);
      ++lead_n;
    }
  }
  state.counters["latency_to_certainty_bytes"] =
      sink.matches().empty()
          ? 0.0
          : latency_sum / static_cast<double>(sink.matches().size());
  state.counters["certainty_lead_bytes"] =
      lead_n == 0 ? 0.0 : lead_sum / static_cast<double>(lead_n);
}

enum class SinkMode { kOff, kCounting, kCollecting };

void RunMatchSinkBench(benchmark::State& state, SinkMode mode) {
  size_t chunk_size = static_cast<size_t>(state.range(0));
  BenchSetup setup(false);
  const std::string& bytes = PaddedMarkupBytes();
  StreamingSelector selector(&setup.machine, Format::kCompactMarkup,
                             &setup.alphabet);
  SST_CHECK(selector.using_fused_fast_path());
  CountingSink counting;
  CollectingSink collecting;
  int64_t matches = 0;
  switch (mode) {
    case SinkMode::kOff:
      for (auto _ : state) {
        matches = DriveChunked(selector, bytes, chunk_size);
        benchmark::DoNotOptimize(matches);
      }
      break;
    case SinkMode::kCounting:
      selector.set_match_sink(&counting);
      for (auto _ : state) {
        counting.Reset();
        matches = DriveChunked(selector, bytes, chunk_size);
        benchmark::DoNotOptimize(matches);
      }
      SST_CHECK(counting.total() == matches);
      break;
    case SinkMode::kCollecting:
      selector.set_match_sink(&collecting);
      for (auto _ : state) {
        collecting.Reset();
        matches = DriveChunked(selector, bytes, chunk_size);
        benchmark::DoNotOptimize(matches);
      }
      SST_CHECK(static_cast<int64_t>(collecting.matches().size()) ==
                matches);
      break;
  }
  SST_CHECK(matches >= 0);
  SST_CHECK(selector.using_fused_fast_path());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
  state.counters["matches"] = static_cast<double>(matches);
  if (mode == SinkMode::kCollecting) {
    AddLatencyCounters(state, collecting);
  } else {
    // One instrumented pass outside the timing loop supplies the latency
    // metrics; the same bytes yield the same log on every tier.
    CollectingSink probe;
    StreamingSelector probe_selector(&setup.machine, Format::kCompactMarkup,
                                     &setup.alphabet);
    probe_selector.set_match_sink(&probe);
    SST_CHECK(DriveChunked(probe_selector, bytes, chunk_size) == matches);
    AddLatencyCounters(state, probe);
  }
  std::string label = "markup-pad/fused/sink=";
  label += mode == SinkMode::kOff
               ? "off"
               : mode == SinkMode::kCounting ? "counting" : "collecting";
  label += "/chunk=" + std::to_string(chunk_size);
  state.SetLabel(label);
}

void BM_MatchSinkOff(benchmark::State& state) {
  RunMatchSinkBench(state, SinkMode::kOff);
}

void BM_MatchSinkCounting(benchmark::State& state) {
  RunMatchSinkBench(state, SinkMode::kCounting);
}

void BM_MatchSinkCollecting(benchmark::State& state) {
  RunMatchSinkBench(state, SinkMode::kCollecting);
}

BENCHMARK(BM_MatchSinkOff)->Arg(65536);
BENCHMARK(BM_MatchSinkCounting)->Arg(65536);
BENCHMARK(BM_MatchSinkCollecting)->Arg(65536);

}  // namespace
}  // namespace sst

// --- Custom main: benchmark context + the --corpus flag -----------------
// `--corpus <path>` (or --corpus=<path>) mmaps a real document and
// registers per-tier throughput benchmarks over its bytes: the stage-1
// structural scan alone, then each fused count-scan tier. All of these
// are pure table walks, well-defined on arbitrary byte content, so any
// file measures — the corpus does not have to be well-formed compact
// markup (bytes outside the tag alphabet self-loop).

namespace {

#if defined(__unix__) || defined(__APPLE__)
#define SST_BENCH_HAVE_MMAP 1
#endif

// Leaked on purpose: benchmarks registered over the mapping run until
// process exit.
std::string_view MapCorpus(const char* path) {
#if defined(SST_BENCH_HAVE_MMAP)
  int fd = ::open(path, O_RDONLY);
  if (fd < 0) {
    std::perror(path);
    std::exit(1);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
    std::fprintf(stderr, "--corpus %s: empty or unreadable\n", path);
    std::exit(1);
  }
  void* mapped = ::mmap(nullptr, static_cast<size_t>(st.st_size), PROT_READ,
                        MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (mapped == MAP_FAILED) {
    std::perror("mmap");
    std::exit(1);
  }
  return {static_cast<const char*>(mapped), static_cast<size_t>(st.st_size)};
#else
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "--corpus %s: unreadable\n", path);
    std::exit(1);
  }
  auto* owned = new std::string(std::istreambuf_iterator<char>(in), {});
  return *owned;
#endif
}

void RegisterCorpusBenches(std::string_view corpus) {
  const char* data = corpus.data();
  const size_t len = corpus.size();
  const auto bytes_done = [len](benchmark::State& state) {
    state.SetBytesProcessed(state.iterations() *
                            static_cast<int64_t>(len));
  };

  benchmark::RegisterBenchmark(
      "BM_CorpusStage1Extract", [=](benchmark::State& state) {
        std::vector<uint32_t> positions(len);
        size_t structural = 0;
        for (auto _ : state) {
          structural = sst::ExtractStructural(data, len, positions.data());
          benchmark::DoNotOptimize(positions.data());
        }
        bytes_done(state);
        state.counters["structural_fraction"] =
            len == 0 ? 0.0
                     : static_cast<double>(structural) /
                           static_cast<double>(len);
        state.SetLabel(std::string("corpus/stage1-extract/kernel=") +
                       sst::ByteScanKernelName());
      });

  benchmark::RegisterBenchmark(
      "BM_CorpusRegisterlessFusedScan", [=](benchmark::State& state) {
        auto plan = sst::QueryPlan::Compile(
            sst::Rpq::FromXPath("/a//b", sst::Alphabet::FromLetters("abc")),
            sst::PlanOptions{});
        SST_CHECK(plan->fused() != nullptr);
        int64_t matches = 0;
        for (auto _ : state) {
          matches = plan->fused()->CountSelections({data, len});
          benchmark::DoNotOptimize(matches);
        }
        bytes_done(state);
        state.counters["matches"] = static_cast<double>(matches);
        state.SetLabel("corpus/registerless-fused-scan");
      });

  benchmark::RegisterBenchmark(
      "BM_CorpusStacklessFusedScan", [=](benchmark::State& state) {
        auto plan = sst::QueryPlan::Compile(
            sst::Rpq::FromXPath("/a/b", sst::Alphabet::FromLetters("abc")),
            sst::PlanOptions{});
        SST_CHECK(plan->fused_dra() != nullptr);
        int64_t matches = 0;
        for (auto _ : state) {
          matches = plan->fused_dra()->CountSelections({data, len});
          benchmark::DoNotOptimize(matches);
        }
        bytes_done(state);
        state.counters["matches"] = static_cast<double>(matches);
        state.SetLabel("corpus/stackless-fused-scan");
      });

  benchmark::RegisterBenchmark(
      "BM_CorpusMixedBatchScan", [=](benchmark::State& state) {
        sst::Alphabet alphabet = sst::Alphabet::FromLetters("abc");
        std::vector<sst::BatchQuery> batch;
        for (const char* text : {"/a//b", "/c//b", "/a/b", "/b/*//c"}) {
          batch.push_back(
              sst::BatchQuery{sst::QuerySyntax::kXPath, text});
        }
        auto plan = sst::MultiQueryPlan::Compile(batch, alphabet,
                                                 sst::MultiQueryOptions{});
        sst::BatchSession session(plan);
        SST_CHECK(session.one_scan_eligible());
        std::vector<int64_t> counts;
        for (auto _ : state) {
          counts = session.CountSelections({data, len});
          benchmark::DoNotOptimize(counts.data());
        }
        bytes_done(state);
        state.counters["queries"] = static_cast<double>(counts.size());
        state.SetLabel("corpus/mixed-batch-scan");
      });
}

}  // namespace

int main(int argc, char** argv) {
  // Extract --corpus before benchmark::Initialize sees (and rejects) it.
  const char* corpus_path = nullptr;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--corpus") == 0 && i + 1 < argc) {
      corpus_path = argv[++i];
    } else if (std::strncmp(argv[i], "--corpus=", 9) == 0) {
      corpus_path = argv[i] + 9;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("byte_scan_kernel", sst::ByteScanKernelName());
  benchmark::AddCustomContext("build_type", SST_BUILD_TYPE);
  if (corpus_path != nullptr) {
    RegisterCorpusBenches(MapCorpus(corpus_path));
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
