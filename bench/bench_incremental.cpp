// Incremental re-evaluation benchmark (engine/incremental.h): the edit
// loop the subsystem exists for. A large compact-markup document is
// scanned once with checkpoints, then small edits are applied through
// IncrementalSession::ApplyEdit; the headline counter is
// speedup_vs_rescan — ApplyEdit's mean latency against a fresh full scan
// of the same document — which the committed floor in
// bench/bench_incremental_baselines.json pins at >= 10x on the ~100 MiB
// row. Every iteration SST_CHECKs the match count against an
// independently tracked expectation, so the timed loop is also a
// correctness loop.
//
// BM_StackSessionVsOneScan holds the pushdown tier's streamed Session to a
// share of the one-scan pushdown runner on dense documents, timed
// interleaved in one loop (see the row's comment); its floor is in the
// same baselines file.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "automata/alphabet.h"
#include "base/check.h"
#include "base/rng.h"
#include "bench_util.h"
#include "dra/byte_runner.h"
#include "dra/streaming.h"
#include "engine/incremental.h"
#include "engine/query_plan.h"
#include "engine/session.h"
#include "query/rpq.h"
#include "testing/edit_workload.h"
#include "trees/encoding.h"

namespace sst {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- Flat-document corpus for the /a/b edit loop ----------------------
//
// "a" + children + "A", every child a two-byte element: "cC" filler with
// a sparse "bB" every kMatchStride children. Matches of /a/b stay in the
// tens of thousands even at 100 MiB, so the suffix splice moves a small
// event list, not a multi-hundred-MB one — the deployment the paper's
// pre-selection model targets (sparse hits over a huge stream).
constexpr int64_t kMatchStride = 4096;

struct FlatDoc {
  std::string bytes;
  int64_t children = 0;
  int64_t matches = 0;

  int64_t ChildOffset(int64_t child) const { return 1 + 2 * child; }
  bool ChildIsB(int64_t child) const {
    return bytes[static_cast<size_t>(ChildOffset(child))] == 'b';
  }
};

FlatDoc MakeFlatDoc(int64_t mib) {
  FlatDoc doc;
  doc.children = (mib << 20) / 2;
  doc.bytes.reserve(static_cast<size_t>(2 * doc.children) + 2);
  doc.bytes.push_back('a');
  for (int64_t child = 0; child < doc.children; ++child) {
    if (child % kMatchStride == 0) {
      doc.bytes.append("bB");
      ++doc.matches;
    } else {
      doc.bytes.append("cC");
    }
  }
  doc.bytes.push_back('A');
  return doc;
}

struct FlatState {
  FlatDoc doc;
  std::shared_ptr<const QueryPlan> plan;
  std::unique_ptr<IncrementalSession> session;
  double rescan_seconds = 0;
  int64_t expected_matches = 0;
};

// One corpus + warm session per document size, shared across benchmark
// re-runs (Google Benchmark re-enters the function while estimating
// iteration counts; rebuilding 100 MiB each time would dominate).
FlatState* FlatStateFor(int64_t mib) {
  static std::vector<std::unique_ptr<FlatState>>* cache =
      new std::vector<std::unique_ptr<FlatState>>();
  for (auto& entry : *cache) {
    if (static_cast<int64_t>(entry->doc.bytes.size()) == (mib << 20) + 2) {
      return entry.get();
    }
  }
  auto st = std::make_unique<FlatState>();
  st->doc = MakeFlatDoc(mib);
  Alphabet alphabet = Alphabet::FromLetters("abc");
  st->plan = QueryPlan::Compile(Rpq::FromXPath("/a/b", alphabet), {});
  SST_CHECK(st->plan->kind() == EvaluatorKind::kStackless);

  // The full-rescan baseline the speedup counter is measured against:
  // the same session type doing its initial checkpointed scan.
  IncrementalOptions options;
  st->session = std::make_unique<IncrementalSession>(st->plan, options);
  const auto t0 = Clock::now();
  SST_CHECK(st->session->Scan(st->doc.bytes));
  st->rescan_seconds = Seconds(t0, Clock::now());
  st->expected_matches = st->doc.matches;
  SST_CHECK(st->session->matches() == st->expected_matches);
  cache->push_back(std::move(st));
  return cache->back().get();
}

// Small same-length edits over the flat corpus: flip one child between
// "cC" and "bB" (2 bytes in place, byte delta 0), which toggles one
// match of /a/b. Manual time covers ApplyEdit only.
void BM_IncrementalSmallEdits(benchmark::State& state) {
  FlatState* st = FlatStateFor(state.range(0));
  Rng rng(77);
  double edit_seconds = 0;
  int64_t edits = 0;
  int64_t bytes_rescanned = 0;
  int64_t spliced = 0;
  for (auto _ : state) {
    const int64_t child =
        static_cast<int64_t>(rng.NextBelow(
            static_cast<uint64_t>(st->doc.children)));
    const int64_t at = st->doc.ChildOffset(child);
    const bool was_b = st->doc.ChildIsB(child);
    const char* repl = was_b ? "cC" : "bB";
    st->doc.bytes[static_cast<size_t>(at)] = repl[0];
    st->doc.bytes[static_cast<size_t>(at) + 1] = repl[1];
    st->expected_matches += was_b ? -1 : 1;

    const auto t0 = Clock::now();
    const auto outcome =
        st->session->ApplyEdit(at, 2, std::string_view(repl, 2),
                               st->doc.bytes);
    const auto t1 = Clock::now();
    SST_CHECK(st->session->matches() == st->expected_matches);
    edit_seconds += Seconds(t0, t1);
    state.SetIterationTime(Seconds(t0, t1));
    ++edits;
    bytes_rescanned += outcome.bytes_rescanned;
    if (outcome.path == IncrementalSession::EditPath::kSplicedSuffix) {
      ++spliced;
    }
  }
  state.counters["speedup_vs_rescan"] =
      st->rescan_seconds / (edit_seconds / static_cast<double>(edits));
  state.counters["bytes_rescanned"] =
      benchmark::Counter(static_cast<double>(bytes_rescanned) /
                         static_cast<double>(edits));
  state.counters["spliced_fraction"] =
      static_cast<double>(spliced) / static_cast<double>(edits);
  state.counters["rescan_ms"] = st->rescan_seconds * 1e3;
  state.SetLabel(std::to_string(state.range(0)) + " MiB");
}
BENCHMARK(BM_IncrementalSmallEdits)->Arg(16)->Arg(100)->UseManualTime();

// --- Nested corpus + generated edits on the stack tier ----------------
//
// "//a/b" compiles to the pushdown baseline, so every checkpoint copies
// a state column; edits come from the shared EditWorkload generator
// (variable length, so splices rebase suffix offsets). The document is a
// root of depth-8 "c" spines — deep enough that checkpoints are real
// stacks, small enough that the bench stays a smoke of the tier, not a
// second 100 MiB corpus.
void BM_IncrementalStackTierEdits(benchmark::State& state) {
  static Alphabet* alphabet = new Alphabet(Alphabet::FromLetters("abc"));
  static std::string* base_doc = [] {
    auto* doc = new std::string("a");
    constexpr int kSpines = 100000;  // 16 bytes each: ~1.6 MiB
    for (int i = 0; i < kSpines; ++i) {
      doc->append("ccccccc");
      doc->append("CCCCCCC");
      doc->append("bB");
    }
    doc->push_back('A');
    return doc;
  }();
  auto plan = QueryPlan::Compile(Rpq::FromXPath("//a/b", *alphabet), {});
  SST_CHECK(plan->kind() == EvaluatorKind::kStackBaseline);

  IncrementalSession session(plan, {});
  std::string doc = *base_doc;
  SST_CHECK(session.Scan(doc));
  EditWorkload workload(alphabet, StreamFormat::kCompactMarkup, 7);

  double edit_seconds = 0;
  int64_t edits = 0;
  int64_t spliced = 0;
  for (auto _ : state) {
    const DocEdit edit = workload.Next(doc);
    doc = EditWorkload::Apply(doc, edit);
    const auto t0 = Clock::now();
    const auto outcome =
        session.ApplyEdit(edit.offset, edit.old_len, edit.new_bytes, doc);
    const auto t1 = Clock::now();
    SST_CHECK(!session.failed());
    edit_seconds += Seconds(t0, t1);
    state.SetIterationTime(Seconds(t0, t1));
    ++edits;
    if (outcome.path == IncrementalSession::EditPath::kSplicedSuffix) {
      ++spliced;
    }
  }
  state.counters["spliced_fraction"] =
      static_cast<double>(spliced) / static_cast<double>(edits);
  state.counters["edit_us"] = edit_seconds * 1e6 / static_cast<double>(edits);
}
BENCHMARK(BM_IncrementalStackTierEdits)->UseManualTime();

// --- Stack Session on the kernel vs one-scan pushdown -----------------
//
// The pushdown tier streams on the validated kernel, its state column
// beside the label column. One iteration times a stack-tier Session fed
// in 64 KiB chunks and ByteStackRunner::CountSelections (the paper's
// one-scan pushdown baseline, which neither validates nor chunks) over
// the same dense documents, alternating which goes first; the
// session_vs_one_scan counter is the median of the per-pair ratios
// (one-scan seconds / session seconds), so machine drift between two
// separately timed rows cannot move it.
void BM_StackSessionVsOneScan(benchmark::State& state) {
  static Alphabet* alphabet = new Alphabet(Alphabet::FromLetters("abc"));
  // One deep and one bushy dense document of ~256 KiB each: every byte
  // is a tag, so the rows measure the per-tag step, not the whitespace
  // skip.
  static std::vector<std::string>* docs = [] {
    auto* out = new std::vector<std::string>();
    for (bench::DocShape shape : {bench::DocShape::kDeep,
                                  bench::DocShape::kBushy}) {
      out->push_back(ToCompactMarkup(
          *alphabet, Encode(bench::MakeDocument(shape, 1 << 17, 3, 5))));
    }
    return out;
  }();
  auto plan = QueryPlan::Compile(Rpq::FromXPath("//a/b", *alphabet), {});
  SST_CHECK(plan->kind() == EvaluatorKind::kStackBaseline);
  Session session(plan);
  SST_CHECK(session.selector().active_tier() ==
            StreamingSelector::Tier::kFusedByteTable);
  ByteStackRunner one_scan(plan->minimal_dfa());
  constexpr size_t kChunk = 64 << 10;
  int64_t session_matches = 0;
  int64_t one_scan_matches = 0;
  auto run_session = [&] {
    const auto t0 = Clock::now();
    for (const std::string& doc : *docs) {
      session.Reset();
      for (size_t i = 0; i < doc.size(); i += kChunk) {
        SST_CHECK(session.Feed(std::string_view(doc).substr(i, kChunk)));
      }
      SST_CHECK(session.Finish());
      session_matches += session.matches();
    }
    return Seconds(t0, Clock::now());
  };
  auto run_one_scan = [&] {
    const auto t0 = Clock::now();
    for (const std::string& doc : *docs) {
      one_scan_matches += one_scan.CountSelections(doc);
    }
    return Seconds(t0, Clock::now());
  };
  bool session_first = true;
  std::vector<double> ratios;
  for (auto _ : state) {
    double session_s;
    double one_scan_s;
    if (session_first) {
      session_s = run_session();
      one_scan_s = run_one_scan();
    } else {
      one_scan_s = run_one_scan();
      session_s = run_session();
    }
    session_first = !session_first;
    SST_CHECK(session_matches == one_scan_matches);
    ratios.push_back(one_scan_s / session_s);
  }
  int64_t doc_bytes = 0;
  for (const std::string& doc : *docs) {
    doc_bytes += static_cast<int64_t>(doc.size());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 2 *
                          doc_bytes);
  // Median of the per-pair ratios: one preempted scan (shared-runner
  // noise burst) shifts a total-time ratio by several percent but leaves
  // the median untouched.
  std::nth_element(ratios.begin(), ratios.begin() + ratios.size() / 2,
                   ratios.end());
  state.counters["session_vs_one_scan"] = ratios[ratios.size() / 2];
  state.counters["max_stack_depth"] =
      static_cast<double>(one_scan.max_stack_depth());
}
BENCHMARK(BM_StackSessionVsOneScan);

}  // namespace
}  // namespace sst

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("build_type", SST_BUILD_TYPE);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
