// perfbench: the repository's end-to-end benchmark program.
//
//   perfbench --workload <dense-chunked|padded-chunked|served-open|
//                         edit-session>
//             --seed N --seconds S --trace 0|1
//             --work-dir DIR --server PATH/query_server
//   perfbench --selftest
//
// Prints a provenance line, human-readable sample counts (and, traced, the
// gap-attribution table), then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// untraced, the per-layer metrics traced. Any wrong answer exits 1;
// usage and environment errors exit 2. perfbench/run.py builds this
// binary and is the intended entry point.

#include <unistd.h>

#include <cstdio>
#include <algorithm>
#include <cstdlib>
#include <string>

#include "base/byte_scan.h"
#include "workloads.h"

namespace pb {

int RunSelfTest();

namespace {

constexpr int kChunkedSetups = 11;
// Whole passes a chunked or edit-session run makes at least: each slot
// reports its best pass.
constexpr int64_t kMinPasses = 5;
// Edit rounds per edit-session pass: with three queries, at least 1000
// slots, so the p99 has 10 samples beyond it.
constexpr int kEditRounds = 340;
constexpr int kServedSetups = 11;

const char* Env(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr ? value : "unknown";
}

void PrintProvenance(const Config& config) {
  std::printf(
      "provenance: {\"git_sha\": \"%s\", \"source_digest\": \"%s\", "
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"nproc\": %ld, \"byte_scan_kernel\": \"%s\", \"build_type\": \"%s\", "
      "\"opt_flags\": \"%s\"}\n",
      Env("PERFBENCH_GIT_SHA"), Env("PERFBENCH_SOURCE_DIGEST"),
      config.workload.c_str(), static_cast<unsigned long long>(config.seed),
      config.seconds, config.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
      sst::ByteScanKernelName(), PERFBENCH_BUILD_TYPE, PERFBENCH_OPT_FLAGS);
}

// Refuses to measure an unoptimised or assert-enabled build.
void CheckBuild() {
#ifndef NDEBUG
  Die("refusing to report: assert-enabled build (NDEBUG not defined)");
#endif
#ifndef __OPTIMIZE__
  Die("refusing to report: unoptimised build");
#endif
  std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    Die("refusing to report: build type " + type);
  }
}

// Splits an untraced run into `n` slices and sets up again before each,
// reporting the median set-up time: set-up takes milliseconds, and spread
// over the run its median follows the machine's state across the run, not
// at one instant. run(seconds, last) measures one slice.
template <typename Setup, typename Run>
void SetupsAcrossRun(const Config& config, int n, Report* report,
                     Setup&& setup, Run&& run) {
  std::vector<double> times;
  for (int i = 0; i < n; ++i) {
    times.push_back(setup());
    run(config.seconds / n, i == n - 1);
  }
  report->Add("setup_s", Median(times), "s", n);
}

// Repeats a set-up `n` times back to back and reports the median seconds
// (untraced runs report end-to-end metrics only, traced runs per-layer
// ones only).
template <typename Fn>
void MeasureSetup(const Config& config, int n, Report* report, Fn&& setup) {
  std::vector<double> times;
  for (int i = 0; i < n; ++i) times.push_back(setup(i == n - 1));
  if (!config.trace) report->Add("setup_s", Median(times), "s", n);
}

void PrintTiers(const std::vector<std::vector<Registration>>& regs) {
  for (const auto& per_format : regs) {
    for (const Registration& r : per_format) {
      std::printf("tier: %s/%s = %s\n", RegName(r.reg), FormatName(r.format),
                  r.tier.c_str());
    }
  }
}

// dense-chunked / padded-chunked --------------------------------------------

void Chunked(const Config& config, bool padded, Report* report) {
  ChunkedContext ctx = MakeChunked(config, padded, report);
  ResetPeakRss();
  size_t cursor = 0;
  if (!config.trace) {
    ChunkedAcc acc;
    SetupsAcrossRun(
        config, kChunkedSetups, report, [&] { return SetupChunked(&ctx); },
        [&](double seconds, bool last) {
          RunChunked(&ctx, &cursor, seconds, last ? kMinPasses : 0,
                     nullptr, &acc, report);
        });
    PrintTiers(ctx.regs);
    ReportChunked(ctx, acc, report);
    report->Add("peak_rss_mib", PeakRssMib(), "MiB", 1);
    return;
  }
  SetupChunked(&ctx);
  PrintTiers(ctx.regs);
  // Traced: the same loop alternately untraced and traced, for the
  // tracer's own overhead; the ledger then measures every layer.
  Tracer tracer(SpanNames());
  ChunkedAcc plain, traced;
  double slice = config.seconds * 0.06;
  for (int i = 0; i < 4; ++i) {
    RunChunked(&ctx, &cursor, slice, 0, nullptr, &plain, report);
    RunChunked(&ctx, &cursor, slice, 0, &tracer, &traced, report);
  }
  report->Add("trace.overhead_ratio",
              (traced.seconds / traced.bytes) / (plain.seconds / plain.bytes),
              "ratio", traced.ops);
  LedgerInput input;
  input.workload = config.workload;
  input.chunked = &ctx;
  for (const Doc& doc : ctx.docs) {
    if (doc.format == sst::StreamFormat::kCompactMarkup &&
        doc.bytes.size() <= (64u << 10)) {
      input.served_docs.push_back(doc.bytes);
    }
  }
  RunLedger(config, &input, config.seconds * 0.5, report);
}

// edit-session -------------------------------------------------------------

void Edit(const Config& config, Report* report) {
  EditContext ctx = MakeEdit(config);
  ResetPeakRss();
  if (!config.trace) {
    // Each pass replays the same edits after its own set-up, so every
    // edit has a best pass and set-up is sampled across the run.
    EditAcc acc;
    std::vector<double> setups;
    RunEditPasses(&ctx, config.seconds, kMinPasses, kEditRounds, &acc,
                  &setups, report);
    report->Add("setup_s", Median(setups), "s",
                static_cast<int64_t>(setups.size()));
    ReportEdit(acc, report);
    report->Add("peak_rss_mib", PeakRssMib(), "MiB", 1);
    return;
  }
  SetupEdit(&ctx);
  Tracer tracer(SpanNames());
  EditAcc plain, traced;
  for (int i = 0; i < 4; ++i) {
    RunEdits(&ctx, config.seconds * 0.05, 0, nullptr, &plain, report);
    RunEdits(&ctx, config.seconds * 0.05, 0, &tracer, &traced, report);
  }
  double plain_ms = 0, traced_ms = 0;
  for (double v : plain.edit_ms) plain_ms += v;
  for (double v : plain.rescan_ms) plain_ms += v;
  for (double v : traced.edit_ms) traced_ms += v;
  for (double v : traced.rescan_ms) traced_ms += v;
  report->Add("trace.overhead_ratio",
              (traced_ms / static_cast<double>(traced.edits)) /
                  (plain_ms / static_cast<double>(plain.edits)),
              "ratio", traced.edits);
  // The edit loop is this workload's incremental layer.
  EditAcc all = traced;
  all.edit_ms.insert(all.edit_ms.end(), plain.edit_ms.begin(),
                     plain.edit_ms.end());
  all.edits += plain.edits;
  all.spliced += plain.spliced;
  all.bytes_rescanned += plain.bytes_rescanned;
  all.scan_bytes = ctx.scan_bytes;
  all.scan_seconds = ctx.scan_seconds;

  // The ledger runs the in-process rows over the edited documents and the
  // served row over small documents of the same generator.
  std::vector<Doc> docs;
  for (const std::string& bytes : ctx.docs) {
    Doc doc;
    doc.bytes = bytes;
    docs.push_back(std::move(doc));
  }
  ChunkedContext chunked = ContextFromDocs(std::move(docs), config.seed);
  SetupChunked(&chunked);
  LedgerInput input;
  input.workload = config.workload;
  input.chunked = &chunked;
  input.edits = &all;
  for (int i = 0; i < 64; ++i) {
    input.served_docs.push_back(RandomDocument(
        config.seed * 53 + static_cast<uint64_t>(i),
        static_cast<size_t>(2048 + 256 * i), i % 2 == 0));
  }
  RunLedger(config, &input, config.seconds * 0.5, report);
}

// served-open --------------------------------------------------------------

void PrintRung(const ServedStep& step, const char* what) {
  std::printf(
      "ladder %s: offered=%.1f achieved=%.2f MiB/s p99=%.3f ms "
      "backlog_slope=%.1f/s arrivals=%.0f/s docs=%zu lag_p99=%.3f ms\n",
      what, step.ladder.offered_mib_s, step.ladder.achieved_mib_s,
      step.ladder.p99_ms, step.ladder.backlog_slope_per_s,
      step.ladder.arrivals_per_s, step.latency_ms.size(),
      Percentile(step.lag_ms, 0.99));
}

void Served(const Config& config, Report* report) {
  std::vector<ServedDoc> pool = MakeServedOpenPool(config.seed);
  int64_t faulted = 0;
  for (const ServedDoc& d : pool) faulted += d.faulted;
  std::printf("served pool: %zu documents, %lld fault-injected\n",
              pool.size(), static_cast<long long>(faulted));
  std::unique_ptr<ServedHarness> harness;
  MeasureSetup(config, kServedSetups, report, [&](bool last) {
    harness = std::make_unique<ServedHarness>(config, &pool);
    double seconds = harness->Start();
    if (!last) harness->Stop();
    return seconds;
  });

  if (config.trace) {
    // Tracer overhead on the generator at the reference rate; the ledger
    // measures every layer, the served row included.
    Tracer tracer(SpanNames());
    std::vector<double> plain, traced;
    for (int i = 0; i < 2; ++i) {
      ServedStep a = harness->RunStep(kServedReferenceMibS,
                                      config.seconds * 0.08,
                                      config.seed * 100 + 2 * i, nullptr,
                                      report);
      ServedStep b = harness->RunStep(kServedReferenceMibS,
                                      config.seconds * 0.08,
                                      config.seed * 100 + 2 * i + 1, &tracer,
                                      report);
      plain.insert(plain.end(), a.latency_ms.begin(), a.latency_ms.end());
      traced.insert(traced.end(), b.latency_ms.begin(), b.latency_ms.end());
    }
    report->Add("trace.overhead_ratio", Median(traced) / Median(plain),
                "ratio", static_cast<int64_t>(traced.size()));
    harness->Stop();
    harness.reset();
    std::vector<Doc> docs;
    LedgerInput input;
    input.workload = config.workload;
    for (const ServedDoc& d : pool) {
      if (d.faulted) continue;
      Doc doc;
      doc.bytes = d.bytes;
      docs.push_back(std::move(doc));
      input.served_docs.push_back(d.bytes);
    }
    ChunkedContext chunked = ContextFromDocs(std::move(docs), config.seed);
    SetupChunked(&chunked);
    input.chunked = &chunked;
    input.served_pool = &pool;
    RunLedger(config, &input, config.seconds * 0.6, report);
    return;
  }

  // The reference rate gives the per-document latencies (extended until
  // its p99 has the tail rule's samples) and the server's peak RSS; then
  // the ladder is climbed until the first unsustained rate (overloaded
  // rungs buffer input, so the RSS is read before them).
  ServedStep reference =
      harness->RunStep(kServedReferenceMibS,
                       config.seconds * kServedReferenceShare,
                       config.seed * 1000, nullptr, report);
  while (!TailOk(static_cast<int64_t>(reference.latency_ms.size()), 0.99)) {
    ServedStep more = harness->RunStep(
        kServedReferenceMibS, config.seconds * 0.05,
        config.seed * 7777 + reference.latency_ms.size(), nullptr, report);
    double offset = reference.due_s.empty() ? 0 : reference.due_s.back();
    for (double due : more.due_s) reference.due_s.push_back(offset + due);
    reference.latency_ms.insert(reference.latency_ms.end(),
                                more.latency_ms.begin(),
                                more.latency_ms.end());
    reference.first_match_ms.insert(reference.first_match_ms.end(),
                                    more.first_match_ms.begin(),
                                    more.first_match_ms.end());
  }
  const double server_rss_mib = harness->ServerPeakRssMib();
  const std::vector<double>& ladder = ServedLadder();
  double step_seconds = config.seconds * kServedRungShare;
  std::vector<LadderStep> steps;
  for (size_t i = 0; i < ladder.size(); ++i) {
    ServedStep step = harness->RunStep(ladder[i], step_seconds,
                                       config.seed * 1000 + i + 1, nullptr,
                                       report);
    PrintRung(step, "rung");
    if (!StepSustained(step.ladder, kServedLatencyLimitMs)) {
      // One retry, so a transient stall of the machine does not end the
      // climb; a rung that fails twice is beyond capacity.
      step = harness->RunStep(ladder[i], step_seconds,
                              config.seed * 1000 + i + 101, nullptr, report);
      PrintRung(step, "retry");
    }
    steps.push_back(step.ladder);
    if (!StepSustained(step.ladder, kServedLatencyLimitMs)) break;
  }
  int best = SustainedIndex(steps, kServedLatencyLimitMs);
  int64_t n = static_cast<int64_t>(reference.latency_ms.size());
  report->Add("throughput_mib_s", reference.ladder.achieved_mib_s, "MiB/s",
              n);
  report->Add("doc_p50_ms", Percentile(reference.latency_ms, 0.50), "ms", n);
  const double p99 = WindowedP99(reference.due_s, reference.latency_ms);
  report->Add("doc_p99_ms", p99, "ms", n);
  // The achieved rate at the highest sustained rung (0 when none is).
  report->Add("sustained_mib_s",
              best >= 0 ? steps[static_cast<size_t>(best)].achieved_mib_s : 0,
              "MiB/s", static_cast<int64_t>(steps.size()));
  report->Add("first_match_p50_ms",
              Percentile(reference.first_match_ms, 0.50), "ms",
              static_cast<int64_t>(reference.first_match_ms.size()));
  // A changed document is re-sent: an edit costs a served document.
  report->Add("edit_p50_ms", Percentile(reference.latency_ms, 0.50), "ms", n);
  report->Add("edit_p99_ms", p99, "ms", n);
  report->Add("peak_rss_mib", server_rss_mib, "MiB", 1);
  harness->Stop();
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --work-dir DIR --server PATH | --selftest\n");
  return 2;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  pb::Config config;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--selftest") return pb::RunSelfTest();
    if (i + 1 >= argc) return pb::Usage();
    std::string value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--server") {
      config.server_binary = value;
    } else {
      return pb::Usage();
    }
  }
  if (config.seconds <= 0 || config.work_dir.empty() ||
      config.server_binary.empty()) {
    return pb::Usage();
  }
  pb::CheckBuild();
  pb::PrintProvenance(config);
  std::fflush(stdout);

  pb::Report report;
  if (config.workload == "dense-chunked") {
    pb::Chunked(config, /*padded=*/false, &report);
  } else if (config.workload == "padded-chunked") {
    pb::Chunked(config, /*padded=*/true, &report);
  } else if (config.workload == "edit-session") {
    pb::Edit(config, &report);
  } else if (config.workload == "served-open") {
    pb::Served(config, &report);
  } else {
    return pb::Usage();
  }
  if (config.trace) {
    report.Add("fail_ratio",
               static_cast<double>(report.failed()) /
                   static_cast<double>(std::max<int64_t>(report.attempted(), 1)),
               "ratio", report.attempted());
  }
  for (const pb::Metric& m : report.metrics()) {
    std::printf("metric: %-44s %16.6f %-6s samples=%lld\n", m.name.c_str(),
                m.value, m.unit.c_str(), static_cast<long long>(m.samples));
  }
  std::printf("%s\n", report.ResultLine().c_str());
  std::fflush(stdout);
  pb::KillChildren();
  return report.correct() ? 0 : 1;
}
