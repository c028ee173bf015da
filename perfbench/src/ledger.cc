// The traced layer ledger: every per-layer metric, measured by calling
// each layer alone over the workload's own bytes, plus the
// gap-attribution table that splits a served document's time across
// stage-1, the table step, the sink, Feed, the frame codec and the rest.

#include <algorithm>
#include <cstdio>

#include "base/byte_scan.h"
#include "server/protocol.h"
#include "workloads.h"

namespace pb {

namespace {

constexpr size_t kWireChunk = 8 << 10;

// Results of timed calls land here so no call is optimised away.
volatile int64_t g_checksum = 0;

// Runs fn() until `seconds` have passed (at least once); returns the
// seconds per call.
template <typename Fn>
double SecondsPerCall(double seconds, Fn&& fn) {
  int64_t start = NowNs();
  int64_t calls = 0;
  do {
    fn();
    ++calls;
  } while (SecondsSince(start) < seconds);
  return SecondsSince(start) / static_cast<double>(calls);
}

double TotalBytes(const std::vector<const std::string*>& docs) {
  double total = 0;
  for (const std::string* d : docs) total += static_cast<double>(d->size());
  return total;
}

std::string EncodeFrames(const std::vector<const std::string*>& docs) {
  std::string out;
  for (const std::string* doc : docs) {
    std::string_view bytes = *doc;
    for (size_t pos = 0; pos < bytes.size(); pos += kWireChunk) {
      sst::AppendFrame(sst::FrameType::kData, bytes.substr(pos, kWireChunk),
                       &out);
    }
    sst::AppendFrame(sst::FrameType::kFinish, "", &out);
  }
  return out;
}

// Decodes a whole frame stream in 64 KiB reads; returns payload bytes.
double DecodeFrames(const std::string& wire) {
  sst::FrameDecoder decoder(1 << 21);
  sst::Frame frame;
  double payload = 0;
  for (size_t pos = 0; pos < wire.size(); pos += 64 << 10) {
    decoder.Append(std::string_view(wire).substr(pos, 64 << 10));
    while (decoder.Next(&frame) == sst::FrameDecoder::Status::kFrame) {
      payload += static_cast<double>(frame.payload.size());
    }
  }
  return payload;
}

// Feeds every document through a stream in `chunk`-byte pieces.
void FeedAll(Stream* stream, const std::vector<const std::string*>& docs,
             size_t chunk) {
  for (const std::string* doc : docs) {
    stream->Reset();
    std::string_view bytes = *doc;
    for (size_t pos = 0; pos < bytes.size(); pos += chunk) {
      stream->Feed(bytes.substr(pos, chunk));
    }
    stream->Finish();
  }
}

void PrintSpans(const Tracer& tracer) {
  std::vector<SpanStats> stats = tracer.Aggregate();
  for (size_t i = 0; i < stats.size(); ++i) {
    if (stats[i].count == 0) continue;
    std::printf(
        "span: %-8s count=%-8lld total=%10.3f ms self=%10.3f ms "
        "p50=%9.3f us\n",
        tracer.names()[i].c_str(), static_cast<long long>(stats[i].count),
        static_cast<double>(stats[i].total_ns) * 1e-6,
        static_cast<double>(stats[i].self_ns) * 1e-6,
        Percentile(stats[i].durations_ns, 0.5) * 1e-3);
  }
}

}  // namespace

void RunLedger(const Config& config, LedgerInput* input, double seconds,
               Report* report) {
  ChunkedContext& ctx = *input->chunked;
  const double slice = seconds * 0.05;
  std::vector<const std::string*> all, markup;
  for (const Doc& doc : ctx.docs) {
    all.push_back(&doc.bytes);
    if (doc.format == sst::StreamFormat::kCompactMarkup) {
      markup.push_back(&doc.bytes);
    }
  }
  const std::vector<Registration>& regs = ctx.regs[0];  // compact markup
  const double all_bytes = TotalBytes(all);
  const double markup_bytes = TotalBytes(markup);

  // Stage-1 alone over every byte of the workload.
  size_t max_doc = 0;
  for (const std::string* d : all) max_doc = std::max(max_doc, d->size());
  std::vector<uint32_t> positions(max_doc);
  double structural = 0;
  double stage1 = SecondsPerCall(slice, [&] {
    structural = 0;
    for (const std::string* d : all) {
      structural += static_cast<double>(
          sst::ExtractStructural(d->data(), d->size(), positions.data()));
    }
  });
  report->Add("base.stage1.mib_s", all_bytes / kMiB / stage1, "MiB/s",
              static_cast<int64_t>(all.size()));
  report->Add("base.stage1.structural_fraction", structural / all_bytes,
              "ratio", static_cast<int64_t>(all.size()));

  // Fused one-scan kernels: the table-step ceiling, answers checked.
  std::array<double, kNumRegs> fused_rate{};
  auto fused_row = [&](int reg, const char* name) {
    const Registration& r = regs[static_cast<size_t>(reg)];
    sst::BatchSession batch_probe(r.multi ? r.multi
                                          : regs[kBatch].multi);
    bool has = r.multi ? batch_probe.one_scan_eligible()
                       : (r.plan->fused() != nullptr ||
                          r.plan->fused_dra() != nullptr);
    if (!has) {
      std::printf("ledger: %s has no fused one-scan rung\n", name);
      report->Add(std::string("dra.fused.") + name + ".mib_s", 0, "MiB/s", 0);
      return;
    }
    for (const Doc& doc : ctx.docs) {
      if (doc.format != sst::StreamFormat::kCompactMarkup) continue;
      std::vector<int64_t> got;
      OneScanCounts(r, doc.bytes, &got);
      if (got != doc.expected[static_cast<size_t>(reg)]) {
        report->Mismatch(std::string("one-scan ") + name);
      }
    }
    int64_t checksum = 0;
    double t = SecondsPerCall(slice, [&] {
      for (const std::string* d : markup) {
        if (r.multi) {
          checksum += batch_probe.CountSelections(*d)[0];
        } else if (r.plan->fused() != nullptr) {
          checksum += r.plan->fused()->CountSelections(*d);
        } else {
          checksum += r.plan->fused_dra()->CountSelections(*d);
        }
      }
    });
    fused_rate[static_cast<size_t>(reg)] = markup_bytes / kMiB / t;
    report->Add(std::string("dra.fused.") + name + ".mib_s",
                fused_rate[static_cast<size_t>(reg)], "MiB/s",
                static_cast<int64_t>(markup.size()));
    g_checksum = g_checksum + checksum;
  };
  fused_row(kRegisterless, "registerless");
  fused_row(kStackless, "stackless");
  fused_row(kBatch, "batch");

  // Session / BatchSession::Feed per registration, traced.
  Tracer tracer(SpanNames());
  ChunkedAcc acc;
  size_t cursor = 0;
  RunChunked(&ctx, &cursor, seconds * 0.15, 0, &tracer, &acc, report);
  for (int reg = 0; reg < kNumRegs; ++reg) {
    size_t r = static_cast<size_t>(reg);
    report->Add(std::string("engine.session.") + RegName(reg) + ".mib_s",
                acc.reg_seconds[r] > 0
                    ? acc.reg_bytes[r] / kMiB / acc.reg_seconds[r]
                    : 0,
                "MiB/s", acc.ops);
  }
  std::vector<SpanStats> spans = tracer.Aggregate();
  report->Add("engine.session.feed_p50_us",
              Percentile(spans[kSpanFeed].durations_ns, 0.5) * 1e-3, "us",
              spans[kSpanFeed].count);
  // Feed time over one-scan time on the same (compact-markup) bytes.
  double feed_cost = 0, scan_cost = 0;
  for (int reg : {kRegisterless, kStackless, kBatch}) {
    size_t r = static_cast<size_t>(reg);
    if (acc.markup_bytes[r] <= 0 || fused_rate[r] <= 0) continue;
    feed_cost += acc.markup_seconds[r] / (acc.markup_bytes[r] / kMiB);
    scan_cost += 1.0 / fused_rate[r];
  }
  report->Add("engine.session.gap_ratio",
              scan_cost > 0 ? feed_cost / scan_cost : 0, "ratio", acc.ops);
  double fed = acc.tier_bytes[0] + acc.tier_bytes[1] + acc.tier_bytes[2];
  const char* tier_names[] = {"fused_byte", "fused_dra", "generic"};
  for (size_t t = 0; t < 3; ++t) {
    report->Add(std::string("engine.session.tier_bytes.") + tier_names[t],
                fed > 0 ? acc.tier_bytes[t] / fed : 0, "share", acc.ops);
  }
  PrintSpans(tracer);

  // Sink cost: registerless Feed with a CollectingSink against no sink,
  // the collected log checked against the one-scan CollectMatches run.
  {
    Stream plain(regs[kRegisterless]);
    sst::CollectingSink collected, oracle;
    for (const std::string* d : markup) {
      Stream with_sink(regs[kRegisterless]);
      collected.Reset();
      oracle.Reset();
      with_sink.set_match_sink(&collected);
      FeedAll(&with_sink, {d}, 64 << 10);
      regs[kRegisterless].plan->fused()->CollectMatches(*d, &oracle);
      if (collected.matches() != oracle.matches() ||
          collected.spans() != oracle.spans()) {
        report->Mismatch("CollectingSink log vs one-scan CollectMatches");
      }
    }
    Stream sinked(regs[kRegisterless]);
    sinked.set_match_sink(&collected);
    double without = 0, with = 0;
    for (int i = 0; i < 3; ++i) {
      without += SecondsPerCall(slice / 3, [&] {
        FeedAll(&plain, markup, 64 << 10);
      });
      with += SecondsPerCall(slice / 3, [&] {
        collected.Reset();
        FeedAll(&sinked, markup, 64 << 10);
      });
    }
    report->Add("dra.sink.collecting_ratio", with / without, "ratio",
                static_cast<int64_t>(markup.size()));
  }

  // Plan compilation, per registration.
  {
    std::vector<double> ms;
    for (int rep = 0; rep < 3; ++rep) {
      for (int reg = 0; reg < kNumRegs; ++reg) {
        int64_t t0 = NowNs();
        Registration r = Compile(reg, sst::StreamFormat::kCompactMarkup);
        ms.push_back(SecondsSince(t0) * 1e3);
      }
    }
    report->Add("engine.plan.compile_ms", Median(ms), "ms",
                static_cast<int64_t>(ms.size()));
  }

  // SessionPool acquire (+ release), timed in batches of 64.
  {
    sst::SessionPool pool(regs[kRegisterless].plan);
    std::vector<double> us;
    for (int batch = 0; batch < 200; ++batch) {
      int64_t t0 = NowNs();
      for (int i = 0; i < 64; ++i) pool.Release(pool.Acquire());
      us.push_back(static_cast<double>(NowNs() - t0) * 1e-3 / 64);
    }
    report->Add("engine.pool.acquire_us", Median(us), "us",
                static_cast<int64_t>(us.size()));
  }

  // Frame codec alone over the workload's bytes as 8 KiB kData frames.
  {
    std::string wire;
    double enc = SecondsPerCall(slice, [&] { wire = EncodeFrames(all); });
    double payload = 0;
    double dec = SecondsPerCall(slice, [&] { payload = DecodeFrames(wire); });
    if (payload != all_bytes) report->Mismatch("frame codec round trip");
    report->Add("server.codec.encode_mib_s", all_bytes / kMiB / enc, "MiB/s",
                static_cast<int64_t>(all.size()));
    report->Add("server.codec.decode_mib_s", all_bytes / kMiB / dec, "MiB/s",
                static_cast<int64_t>(all.size()));
  }

  // Incremental re-evaluation: the workload's own edit loop, or a short
  // one over its largest compact-markup documents.
  {
    EditAcc local;
    const EditAcc* edits = input->edits;
    if (edits == nullptr) {
      std::vector<const std::string*> big = markup;
      std::sort(big.begin(), big.end(),
                [](const std::string* a, const std::string* b) {
                  return a->size() > b->size();
                });
      std::vector<std::string> docs;
      double total = 0;
      for (const std::string* d : big) {
        if (!docs.empty() && total + static_cast<double>(d->size()) >
                                 static_cast<double>(1536 << 10)) {
          break;
        }
        docs.push_back(*d);
        total += static_cast<double>(d->size());
      }
      EditContext edit = EditContextFromDocs(std::move(docs), config.seed);
      SetupEdit(&edit);
      RunEdits(&edit, seconds * 0.12, 30, nullptr, &local, report);
      local.scan_bytes = edit.scan_bytes;
      local.scan_seconds = edit.scan_seconds;
      edits = &local;
    }
    double n = static_cast<double>(std::max<int64_t>(edits->edits, 1));
    report->Add("engine.incremental.scan_mib_s",
                edits->scan_bytes / kMiB / edits->scan_seconds, "MiB/s", 1);
    report->Add("engine.incremental.apply_p50_us",
                Percentile(edits->edit_ms, 0.5) * 1e3, "us", edits->edits);
    report->Add("engine.incremental.bytes_rescanned_per_edit",
                edits->bytes_rescanned / n, "bytes", edits->edits);
    report->Add("engine.incremental.spliced_ratio",
                static_cast<double>(edits->spliced) / n, "ratio",
                edits->edits);
  }

  // The served row: query_server at the reference rate over the
  // workload's small documents, counters scraped over the wire.
  std::vector<ServedDoc> own_pool;
  const std::vector<ServedDoc>* pool = input->served_pool;
  if (pool == nullptr) {
    own_pool = MakeServedPool(config.seed, input->served_docs, 0.0);
    pool = &own_pool;
  }
  ServedHarness harness(config, pool);
  harness.Start();
  auto before = harness.ScrapeMetrics();
  Tracer gen_tracer(SpanNames());
  ServedStep step = harness.RunStep(kServedReferenceMibS, seconds * 0.2,
                                    config.seed * 4242, &gen_tracer, report);
  auto after = harness.ScrapeMetrics();
  harness.Stop();
  auto delta = [&](const std::string& name) {
    return static_cast<double>(ScrapedValue(after, name) -
                               ScrapedValue(before, name));
  };
  double docs = std::max(delta("server_streams_started"), 1.0);
  report->Add("server.frames_per_doc",
              (delta("server_frames_in") + delta("server_frames_out")) / docs,
              "frames", static_cast<int64_t>(docs));
  report->Add("server.bytes_out_per_doc", delta("server_bytes_out") / docs,
              "bytes", static_cast<int64_t>(docs));
  report->Add("server.backpressure_pauses",
              delta("server_backpressure_pauses"), "count",
              static_cast<int64_t>(docs));
  report->Add("server.sheds",
              delta("server_sheds_connection") + delta("server_sheds_stream"),
              "count", static_cast<int64_t>(docs));
  double hits = static_cast<double>(ScrapedValue(after, "plan_cache_hits"));
  double misses =
      static_cast<double>(ScrapedValue(after, "plan_cache_misses"));
  report->Add("server.cache_hit_ratio",
              hits + misses > 0 ? hits / (hits + misses) : 0, "ratio",
              static_cast<int64_t>(hits + misses));
  double reused = delta("session_pool_reused");
  double created = delta("session_pool_created");
  report->Add("server.pool_reuse_ratio",
              reused + created > 0 ? reused / (reused + created) : 0, "ratio",
              static_cast<int64_t>(reused + created));
  report->Add("gen.lag_p99_ms", Percentile(step.lag_ms, 0.99), "ms",
              static_cast<int64_t>(step.lag_ms.size()));
  PrintSpans(gen_tracer);

  // Offline engine time per served document (BatchSession, 8 KiB chunks,
  // the server's own path without the wire) against its served latency.
  Registration served_reg = Compile(kBatch, sst::StreamFormat::kCompactMarkup);
  Stream offline(served_reg);
  std::vector<double> engine_ms(pool->size(), 0);
  for (size_t i = 0; i < pool->size(); ++i) {
    const std::string* doc = &(*pool)[i].bytes;
    engine_ms[i] = SecondsPerCall(0.0005, [&] {
                     FeedAll(&offline, {doc}, kWireChunk);
                   }) *
                   1e3;
  }
  double engine_total = 0, served_total = 0;
  std::vector<double> non_engine;
  for (size_t k = 0; k < step.docs.size(); ++k) {
    double e = engine_ms[static_cast<size_t>(step.docs[k])];
    engine_total += e;
    served_total += step.latency_ms[k];
    non_engine.push_back(step.latency_ms[k] - e);
  }
  report->Add("server.engine_share",
              served_total > 0 ? engine_total / served_total : 0, "ratio",
              static_cast<int64_t>(step.docs.size()));
  report->Add("server.non_engine_p50_ms", Percentile(non_engine, 0.5), "ms",
              static_cast<int64_t>(non_engine.size()));

  // Gap attribution over the served documents (clean ones), per document.
  std::vector<const std::string*> served;
  for (const ServedDoc& d : *pool) {
    if (d.ok) served.push_back(&d.bytes);
    if (d.bytes.size() > positions.size()) positions.resize(d.bytes.size());
  }
  const double n_served = static_cast<double>(served.size());
  auto per_doc_ms = [&](double seconds_per_pass) {
    return seconds_per_pass * 1e3 / n_served;
  };
  double g_stage1 = per_doc_ms(SecondsPerCall(slice / 2, [&] {
    for (const std::string* d : served) {
      sst::ExtractStructural(d->data(), d->size(), positions.data());
    }
  }));
  sst::BatchSession batch(served_reg.multi);
  double g_fused = per_doc_ms(SecondsPerCall(slice / 2, [&] {
    for (const std::string* d : served) {
      g_checksum = g_checksum + batch.CountSelections(*d)[0];
    }
  }));
  Stream feed(served_reg);
  double g_feed = per_doc_ms(SecondsPerCall(slice / 2, [&] {
    FeedAll(&feed, served, kWireChunk);
  }));
  sst::CollectingSink sink;
  Stream feed_sink(served_reg);
  feed_sink.set_match_sink(&sink);
  double g_feed_sink = per_doc_ms(SecondsPerCall(slice / 2, [&] {
    sink.Reset();
    FeedAll(&feed_sink, served, kWireChunk);
  }));
  std::string wire;
  double g_codec = per_doc_ms(SecondsPerCall(slice / 2, [&] {
    wire = EncodeFrames(served);
    DecodeFrames(wire);
  }));
  // The served document's time is its median latency at the reference
  // rate: the in-process rows are per-document means of runs with no
  // queueing, and the median keeps the machine's scheduling stalls (which
  // dominate the mean) out of the comparison.
  double g_served = Percentile(step.latency_ms, 0.5);
  auto row = [&](const char* layer, double ms) {
    std::printf("gap: %-58s %9.4f ms/doc %7.1f%%\n", layer, ms,
                g_served > 0 ? 100.0 * ms / g_served : 0.0);
  };
  std::printf(
      "gap: attribution for %s: %zu served documents of %.1f KiB mean, "
      "4-query batch, %zu-byte frames; share of the p50 served latency\n",
      input->workload.c_str(), served.size(),
      TotalBytes(served) / n_served / 1024.0, kWireChunk);
  row("stage-1 alone (ExtractStructural)", g_stage1);
  row("fused one-scan: table step beyond stage-1", g_fused - g_stage1);
  row("plus sink: CollectingSink on Feed", g_feed_sink - g_feed);
  row("BatchSession::Feed: lexer + tier dispatch beyond one-scan",
      g_feed - g_fused);
  row("frame codec (AppendFrame + FrameDecoder)", g_codec);
  row("unexplained: event loop, admission, pool, socket, queueing",
      g_served - g_feed_sink - g_codec);
  row("served (p50 latency at the reference rate)", g_served);
}

}  // namespace pb
