// In-process workloads: dense-chunked / padded-chunked (Session and
// BatchSession fed in chunks) and edit-session (IncrementalSession).

#include <algorithm>
#include <cstdio>

#include "base/rng.h"
#include "workloads.h"

namespace pb {

std::vector<std::string> SpanNames() {
  return {"doc", "feed", "finish", "edit", "rescan", "send", "recv"};
}

namespace {

constexpr size_t kChunkSizes[] = {4 << 10, 64 << 10};

int TierIndex(sst::StreamingSelector::Tier tier) {
  switch (tier) {
    case sst::StreamingSelector::Tier::kFusedByteTable:
      return 0;
    case sst::StreamingSelector::Tier::kFusedDraTable:
      return 1;
    case sst::StreamingSelector::Tier::kGenericMachine:
      return 2;
  }
  return 2;
}

std::string CountsText(const std::vector<int64_t>& counts) {
  std::string out;
  for (int64_t c : counts) out += std::to_string(c) + " ";
  return out;
}

// Every (doc, registration, chunk size) once, in a seeded order.
void ShuffleCycle(ChunkedContext* ctx, uint64_t seed) {
  ctx->cycle.clear();
  for (size_t d = 0; d < ctx->docs.size(); ++d) {
    for (int reg = 0; reg < kNumRegs; ++reg) {
      for (size_t chunk : kChunkSizes) {
        ctx->cycle.push_back(ChunkedOp{static_cast<int>(d), reg, chunk});
      }
    }
  }
  sst::Rng rng(seed ^ 0x5eedULL);
  for (size_t i = ctx->cycle.size(); i > 1; --i) {
    std::swap(ctx->cycle[i - 1], ctx->cycle[rng.NextBelow(i)]);
  }
}

}  // namespace

// --- dense-chunked / padded-chunked --------------------------------------

ChunkedContext MakeChunked(const Config& config, bool padded,
                           Report* report) {
  ChunkedContext ctx;
  ctx.docs = MakeTreeCorpus(config.seed, padded, ChunkedSizeLadder(padded),
                            report);
  for (const Doc& doc : ctx.docs) {
    if (std::find(ctx.formats.begin(), ctx.formats.end(), doc.format) ==
        ctx.formats.end()) {
      ctx.formats.push_back(doc.format);
    }
  }
  ShuffleCycle(&ctx, config.seed);
  return ctx;
}

ChunkedContext ContextFromDocs(std::vector<Doc> docs, uint64_t seed) {
  ChunkedContext ctx;
  ctx.docs = std::move(docs);
  ctx.formats = {sst::StreamFormat::kCompactMarkup};
  std::vector<Registration> regs;
  for (int reg = 0; reg < kNumRegs; ++reg) {
    regs.push_back(Compile(reg, sst::StreamFormat::kCompactMarkup));
  }
  for (Doc& doc : ctx.docs) {
    doc.format = sst::StreamFormat::kCompactMarkup;
    doc.expected.assign(kNumRegs, {});
    for (int reg = 0; reg < kNumRegs; ++reg) {
      if (!OneScanCounts(regs[static_cast<size_t>(reg)], doc.bytes,
                         &doc.expected[static_cast<size_t>(reg)])) {
        Die("no one-scan oracle for a markup registration");
      }
    }
  }
  ShuffleCycle(&ctx, seed);
  return ctx;
}

double SetupChunked(ChunkedContext* ctx) {
  int64_t start = NowNs();
  ctx->regs.assign(3, {});
  ctx->streams.clear();
  ctx->streams.resize(3);
  for (sst::StreamFormat format : ctx->formats) {
    size_t f = static_cast<size_t>(FormatIndex(format));
    for (int reg = 0; reg < kNumRegs; ++reg) {
      ctx->regs[f].push_back(Compile(reg, format));
      ctx->streams[f].push_back(
          std::make_unique<Stream>(ctx->regs[f].back()));
    }
  }
  // First document accepted: its first chunk is fed and not refused.
  const Doc& first = ctx->docs[0];
  Stream& stream = *ctx->streams[static_cast<size_t>(
      FormatIndex(first.format))][kRegisterless];
  bool ok = stream.Feed(std::string_view(first.bytes).substr(0, 4096));
  double seconds = SecondsSince(start);
  if (!ok) Die("first document refused");
  stream.Reset();
  return seconds;
}

void RunChunked(ChunkedContext* ctx, size_t* cursor, double seconds,
                int64_t min_passes, Tracer* tracer, ChunkedAcc* acc,
                Report* report) {
  acc->best_ms.resize(ctx->cycle.size(), -1);
  acc->best_first_match_ms.resize(ctx->cycle.size(), -1);
  int64_t start = NowNs();
  int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  int64_t ops = 0;
  while (NowNs() < deadline ||
         (min_passes > 0 && (acc->passes < min_passes || *cursor != 0))) {
    const size_t slot = *cursor;
    const ChunkedOp& op = ctx->cycle[slot];
    *cursor = (*cursor + 1) % ctx->cycle.size();
    const Doc& doc = ctx->docs[static_cast<size_t>(op.doc)];
    size_t f = static_cast<size_t>(FormatIndex(doc.format));
    Stream& stream = *ctx->streams[f][static_cast<size_t>(op.reg)];
    std::string_view bytes = doc.bytes;
    stream.Reset();

    int64_t first_match = -1;
    bool ok = true;
    int64_t t0 = NowNs();
    {
      ScopedSpan doc_span(tracer, kSpanDoc);
      for (size_t pos = 0; pos < bytes.size() && ok; pos += op.chunk) {
        std::string_view chunk = bytes.substr(pos, op.chunk);
        {
          ScopedSpan feed_span(tracer, kSpanFeed);
          ok = stream.Feed(chunk);
        }
        if (first_match < 0 && stream.total_matches() > 0) {
          first_match = NowNs();
        }
        if (tracer != nullptr) {
          acc->tier_bytes[static_cast<size_t>(
              TierIndex(stream.active_tier()))] +=
              static_cast<double>(chunk.size());
        }
      }
      ScopedSpan finish_span(tracer, kSpanFinish);
      ok = ok && stream.Finish();
    }
    int64_t t1 = NowNs();

    report->Attempt();
    const std::vector<int64_t>& expected =
        doc.expected[static_cast<size_t>(op.reg)];
    if (!ok || stream.counts() != expected) {
      report->Mismatch(std::string(RegName(op.reg)) + " on " +
                       FormatName(doc.format) + " doc " +
                       std::to_string(op.doc) + ": got " +
                       (ok ? CountsText(stream.counts()) : "stream error") +
                       " want " + CountsText(expected));
    }
    double sec = static_cast<double>(t1 - t0) * 1e-9;
    double size = static_cast<double>(bytes.size());
    double& best = acc->best_ms[slot];
    if (best < 0 || sec * 1e3 < best) best = sec * 1e3;
    if (first_match >= 0 && op.chunk == kChunkSizes[0]) {
      double ms = static_cast<double>(first_match - t0) * 1e-6;
      double& best_first = acc->best_first_match_ms[slot];
      if (best_first < 0 || ms < best_first) best_first = ms;
    }
    acc->bytes += size;
    acc->reg_bytes[static_cast<size_t>(op.reg)] += size;
    acc->reg_seconds[static_cast<size_t>(op.reg)] += sec;
    if (doc.format == sst::StreamFormat::kCompactMarkup) {
      acc->markup_bytes[static_cast<size_t>(op.reg)] += size;
      acc->markup_seconds[static_cast<size_t>(op.reg)] += sec;
    }
    if (*cursor == 0) ++acc->passes;
    ++ops;
  }
  acc->ops += ops;
  acc->seconds += SecondsSince(start);
}

void ReportChunked(const ChunkedContext& ctx, const ChunkedAcc& acc,
                   Report* report) {
  // Every slot at its best pass: the machine this runs on loses speed in
  // bursts of up to seconds (other tenants' load on shared cores and
  // caches), and a burst slows some passes of a slot, not all of them.
  std::vector<double> doc_ms, first_match_ms;
  double bytes = 0, seconds = 0;
  std::array<double, kNumRegs> reg_bytes{}, reg_seconds{};
  for (size_t slot = 0; slot < ctx.cycle.size(); ++slot) {
    const ChunkedOp& op = ctx.cycle[slot];
    const double ms = acc.best_ms[slot];
    if (ms < 0) Die("a cycle slot was never run");
    const double size =
        static_cast<double>(ctx.docs[static_cast<size_t>(op.doc)].bytes.size());
    doc_ms.push_back(ms);
    if (acc.best_first_match_ms[slot] >= 0) {
      first_match_ms.push_back(acc.best_first_match_ms[slot]);
    }
    bytes += size;
    seconds += ms * 1e-3;
    reg_bytes[static_cast<size_t>(op.reg)] += size;
    reg_seconds[static_cast<size_t>(op.reg)] += ms * 1e-3;
  }
  const int64_t n = static_cast<int64_t>(doc_ms.size());
  if (!TailOk(n, 0.99)) Die("too few slots for a p99");
  report->Add("throughput_mib_s", bytes / kMiB / seconds, "MiB/s",
              acc.passes);
  report->Add("doc_p50_ms", Percentile(doc_ms, 0.50), "ms", n);
  report->Add("doc_p99_ms", Percentile(doc_ms, 0.99), "ms", n);
  // In-process, the rate every registration sustains is the slowest
  // registration's own throughput.
  double slowest = 0;
  for (size_t reg = 0; reg < kNumRegs; ++reg) {
    double rate = reg_bytes[reg] / kMiB / reg_seconds[reg];
    if (reg == 0 || rate < slowest) slowest = rate;
  }
  report->Add("sustained_mib_s", slowest, "MiB/s", acc.passes);
  report->Add("first_match_p50_ms", Percentile(first_match_ms, 0.50), "ms",
              static_cast<int64_t>(first_match_ms.size()));
  // No edit path here: a changed document is answered by feeding it
  // again, so an edit costs a document.
  report->Add("edit_p50_ms", Percentile(doc_ms, 0.50), "ms", n);
  report->Add("edit_p99_ms", Percentile(doc_ms, 0.99), "ms", n);
}

// --- edit-session --------------------------------------------------------

namespace {

constexpr int kEditDocs = 6;  // three deep, three bushy
constexpr size_t kEditDocBytes = 256 << 10;

// The oracle's verdict-only event log (IncrementalSession reports
// verdict-only events too).
class VerdictLog : public sst::MatchSink {
 public:
  void OnMatch(const sst::MatchEvent& event) override {
    events.push_back(event);
  }
  void OnSpanClose(const sst::MatchEvent&) override {}
  bool wants_spans() const override { return false; }

  std::vector<sst::MatchEvent> events;
};

// Restores the generated documents and restarts their seeded editors.
void RestartEdits(EditContext* ctx) {
  ctx->docs = ctx->initial_docs;
  ctx->editors.clear();
  for (size_t d = 0; d < ctx->docs.size(); ++d) {
    ctx->editors.emplace_back(&BenchAlphabet(),
                              sst::StreamFormat::kCompactMarkup,
                              ctx->seed * 977 + d);
  }
}

// One edit of document `d`, applied and read back under every query, each
// checked against a fresh Session over the edited document. With
// `round` >= 0, keeps each query's best times in the slots of that round.
void EditRound(EditContext* ctx, size_t d, int round, Tracer* tracer,
               EditAcc* acc, Report* report) {
  const size_t nq = ctx->regs.size();
  std::string& doc = ctx->docs[d];
  sst::DocEdit edit = ctx->editors[d].Next(doc);
  std::string next = sst::EditWorkload::Apply(doc, edit);
  for (size_t q = 0; q < nq; ++q) {
    sst::IncrementalSession& session = *ctx->sessions[d * nq + q];
    int64_t t0 = NowNs();
    sst::IncrementalSession::EditOutcome outcome;
    size_t events = 0;
    {
      ScopedSpan span(tracer, kSpanEdit);
      outcome = session.ApplyEdit(edit.offset, edit.old_len, edit.new_bytes,
                                  next);
      events = session.match_events().size();
    }
    double sec = static_cast<double>(NowNs() - t0) * 1e-9;
    acc->edit_ms.push_back(sec * 1e3);
    acc->bytes_rescanned += static_cast<double>(outcome.bytes_rescanned);
    if (outcome.path == sst::IncrementalSession::EditPath::kSplicedSuffix) {
      ++acc->spliced;
    }
    ++acc->edits;
    report->Attempt();

    // Oracle: a fresh Session over the edited document, in 64 KiB chunks;
    // timed, it is also the full re-run an edit would cost without the
    // incremental path.
    sst::Session fresh(ctx->regs[q].plan);
    VerdictLog log;
    fresh.set_match_sink(&log);
    bool ok = true;
    int64_t r0 = NowNs();
    {
      ScopedSpan span(tracer, kSpanRescan);
      for (size_t pos = 0; pos < next.size() && ok; pos += 64 << 10) {
        ok = fresh.Feed(std::string_view(next).substr(pos, 64 << 10));
      }
      ok = ok && fresh.Finish();
    }
    double rescan_ms = static_cast<double>(NowNs() - r0) * 1e-6;
    acc->rescan_ms.push_back(rescan_ms);
    if (!ok || session.failed() || events != log.events.size() ||
        session.match_events() != log.events ||
        session.matches() != fresh.matches()) {
      report->Mismatch(std::string("edit-session ") +
                       RegName(ctx->regs[q].reg) + " doc " +
                       std::to_string(d) + ": incremental " +
                       std::to_string(session.matches()) + " vs rescan " +
                       std::to_string(fresh.matches()));
    }
    if (round >= 0) {
      size_t slot = static_cast<size_t>(round) * nq + q;
      double& bytes = acc->slot_doc_bytes[slot];
      if (bytes >= 0 && bytes != static_cast<double>(next.size())) {
        Die("edit replay diverged from the first pass");
      }
      bytes = static_cast<double>(next.size());
      double& best_edit = acc->best_edit_ms[slot];
      if (best_edit < 0 || sec * 1e3 < best_edit) best_edit = sec * 1e3;
      double& best_rescan = acc->best_rescan_ms[slot];
      if (best_rescan < 0 || rescan_ms < best_rescan) best_rescan = rescan_ms;
    }
  }
  doc = std::move(next);
}

}  // namespace

EditContext MakeEdit(const Config& config) {
  std::vector<std::string> docs;
  for (int d = 0; d < kEditDocs; ++d) {
    docs.push_back(RandomDocument(config.seed * 31 + static_cast<uint64_t>(d),
                                  kEditDocBytes, d % 2 == 0));
  }
  return EditContextFromDocs(std::move(docs), config.seed);
}

EditContext EditContextFromDocs(std::vector<std::string> docs, uint64_t seed) {
  EditContext ctx;
  ctx.seed = seed;
  ctx.initial_docs = std::move(docs);
  RestartEdits(&ctx);
  return ctx;
}

double SetupEdit(EditContext* ctx) {
  int64_t start = NowNs();
  ctx->regs.clear();
  ctx->sessions.clear();
  for (int reg : {kRegisterless, kStackless, kStack}) {
    ctx->regs.push_back(Compile(reg, sst::StreamFormat::kCompactMarkup));
  }
  int64_t scan_start = NowNs();
  ctx->scan_bytes = 0;
  for (const std::string& doc : ctx->docs) {
    for (const Registration& r : ctx->regs) {
      ctx->sessions.push_back(
          std::make_unique<sst::IncrementalSession>(r.plan));
      if (!ctx->sessions.back()->Scan(doc)) Die("initial scan failed");
      ctx->scan_bytes += static_cast<double>(doc.size());
    }
  }
  ctx->scan_seconds = SecondsSince(scan_start);
  return SecondsSince(start);
}

void RunEdits(EditContext* ctx, double seconds, int64_t min_ops,
              Tracer* tracer, EditAcc* acc, Report* report) {
  int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  int64_t ops = 0;
  size_t d = 0;
  while (NowNs() < deadline || ops < min_ops) {
    EditRound(ctx, d, -1, tracer, acc, report);
    ops += static_cast<int64_t>(ctx->regs.size());
    d = (d + 1) % ctx->docs.size();
  }
}

void RunEditPasses(EditContext* ctx, double seconds, int64_t min_passes,
                   int rounds, EditAcc* acc, std::vector<double>* setups,
                   Report* report) {
  int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  int64_t pass_ns = 0;
  while (acc->passes < min_passes || NowNs() + pass_ns <= deadline) {
    int64_t start = NowNs();
    RestartEdits(ctx);
    setups->push_back(SetupEdit(ctx));
    size_t slots = static_cast<size_t>(rounds) * ctx->regs.size();
    acc->best_edit_ms.resize(slots, -1);
    acc->best_rescan_ms.resize(slots, -1);
    acc->slot_doc_bytes.resize(slots, -1);
    for (int round = 0; round < rounds; ++round) {
      EditRound(ctx, static_cast<size_t>(round) % ctx->docs.size(), round,
                nullptr, acc, report);
    }
    ++acc->passes;
    pass_ns = std::max(pass_ns, NowNs() - start);
  }
}

void ReportEdit(const EditAcc& acc, Report* report) {
  // Every slot at its best pass, as for the chunked workloads.
  const size_t nq = 3;
  const int64_t n = static_cast<int64_t>(acc.best_edit_ms.size());
  if (!TailOk(n, 0.99)) Die("too few slots for a p99");
  std::array<double, nq> doc_bytes{}, edit_seconds{};
  for (size_t slot = 0; slot < acc.best_edit_ms.size(); ++slot) {
    doc_bytes[slot % nq] += acc.slot_doc_bytes[slot];
    edit_seconds[slot % nq] += acc.best_edit_ms[slot] * 1e-3;
  }
  double all_bytes = 0, all_seconds = 0, slowest = 0;
  for (size_t q = 0; q < nq; ++q) {
    all_bytes += doc_bytes[q];
    all_seconds += edit_seconds[q];
    double rate = doc_bytes[q] / kMiB / edit_seconds[q];
    if (q == 0 || rate < slowest) slowest = rate;
  }
  // Document bytes kept current per second of edit time: each edit yields
  // the answers of the whole edited document.
  report->Add("throughput_mib_s", all_bytes / kMiB / all_seconds, "MiB/s",
              acc.passes);
  // A document here is the full re-run of an edited document (the fresh
  // Session the oracle runs), the cost the incremental path avoids.
  report->Add("doc_p50_ms", Percentile(acc.best_rescan_ms, 0.50), "ms", n);
  report->Add("doc_p99_ms", Percentile(acc.best_rescan_ms, 0.99), "ms", n);
  report->Add("sustained_mib_s", slowest, "MiB/s", acc.passes);
  // Answers are readable when ApplyEdit returns: the first updated answer
  // costs the edit.
  report->Add("first_match_p50_ms", Percentile(acc.best_edit_ms, 0.50), "ms",
              n);
  report->Add("edit_p50_ms", Percentile(acc.best_edit_ms, 0.50), "ms", n);
  report->Add("edit_p99_ms", Percentile(acc.best_edit_ms, 0.99), "ms", n);
}

}  // namespace pb
