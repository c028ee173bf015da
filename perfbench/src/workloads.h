#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The four workloads and the traced layer ledger.

#include <sched.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "engine/incremental.h"
#include "server/protocol.h"
#include "testing/edit_workload.h"

namespace pb {

// Span names recorded by traced runs.
enum SpanName {
  kSpanDoc,     // one document, Feed through Finish
  kSpanFeed,    // one Session/BatchSession::Feed call
  kSpanFinish,  // Finish
  kSpanEdit,    // IncrementalSession::ApplyEdit + match_events() read
  kSpanRescan,  // fresh-Session oracle rescan of an edited document
  kSpanSend,    // generator: frames of one due document queued and sent
  kSpanRecv,    // generator: one read + decode pass over a connection
  kNumSpans
};
std::vector<std::string> SpanNames();

// --- dense-chunked / padded-chunked --------------------------------------

struct ChunkedOp {
  int doc = 0;
  int reg = 0;
  size_t chunk = 0;
};

struct ChunkedContext {
  std::vector<Doc> docs;
  std::vector<sst::StreamFormat> formats;  // formats present in docs
  // Compiled per format: regs[FormatIndex(f)][reg], one stream each.
  std::vector<std::vector<Registration>> regs;
  std::vector<std::vector<std::unique_ptr<Stream>>> streams;
  std::vector<ChunkedOp> cycle;  // every (doc, reg, chunk), seeded order
};

struct ChunkedAcc {
  // Per cycle slot (an index into ChunkedContext::cycle): the best
  // Feed-through-Finish time over the run's passes, and, on 4 KiB-chunk
  // slots with a match, the best time from the first Feed to the first
  // Feed return with a match counted; -1 until measured.
  std::vector<double> best_ms;
  std::vector<double> best_first_match_ms;
  int64_t passes = 0;  // completed cycles
  int64_t ops = 0;
  double bytes = 0;
  double seconds = 0;
  // Per registration (all formats) and per registration on compact
  // markup only (the bytes the one-scan rows can also run).
  std::array<double, kNumRegs> reg_bytes{};
  std::array<double, kNumRegs> reg_seconds{};
  std::array<double, kNumRegs> markup_bytes{};
  std::array<double, kNumRegs> markup_seconds{};
  // Traced only: bytes per active tier sampled after each Feed.
  std::array<double, 3> tier_bytes{};
};

ChunkedContext MakeChunked(const Config& config, bool padded, Report* report);
// One set-up: compile every registration, open its stream, and feed the
// first chunk of the first document. Returns seconds.
double SetupChunked(ChunkedContext* ctx);
// Runs ops for `seconds` (and, with `min_passes`, on until that many
// whole cycles are complete and the current cycle ends, so every (doc,
// registration, chunk) has as many passes as the others), checking every
// answer against the offline oracle.
void RunChunked(ChunkedContext* ctx, size_t* cursor, double seconds,
                int64_t min_passes, Tracer* tracer, ChunkedAcc* acc,
                Report* report);
// The end-to-end metrics from every slot's best pass.
void ReportChunked(const ChunkedContext& ctx, const ChunkedAcc& acc,
                   Report* report);
// A chunked context over given compact-markup documents, with one-scan
// oracle answers; set it up with SetupChunked.
ChunkedContext ContextFromDocs(std::vector<Doc> docs, uint64_t seed);

// --- edit-session --------------------------------------------------------

struct EditContext {
  uint64_t seed = 0;
  std::vector<std::string> initial_docs;  // as generated
  std::vector<std::string> docs;  // current (edited) documents
  std::vector<sst::EditWorkload> editors;
  std::vector<Registration> regs;  // registerless, stackless, stack
  // sessions[doc * regs.size() + q]
  std::vector<std::unique_ptr<sst::IncrementalSession>> sessions;
  double scan_bytes = 0;  // bytes and seconds of the last set-up's Scans
  double scan_seconds = 0;
};

struct EditAcc {
  std::vector<double> edit_ms;
  std::vector<double> rescan_ms;
  // Replayed passes only, per slot (round * queries + query): the best
  // edit and rescan times over the passes, and the edited document's size.
  std::vector<double> best_edit_ms;
  std::vector<double> best_rescan_ms;
  std::vector<double> slot_doc_bytes;
  int64_t passes = 0;
  int64_t edits = 0;
  int64_t spliced = 0;
  double bytes_rescanned = 0;
  // The initial checkpointing Scan of the last set-up.
  double scan_bytes = 0;
  double scan_seconds = 0;
};

EditContext MakeEdit(const Config& config);
EditContext EditContextFromDocs(std::vector<std::string> docs, uint64_t seed);
double SetupEdit(EditContext* ctx);  // compile + initial Scan; seconds
void RunEdits(EditContext* ctx, double seconds, int64_t min_ops,
              Tracer* tracer, EditAcc* acc, Report* report);
// Replays the same seeded edit stream in passes: each pass restores the
// generated documents and editors, sets up (its seconds appended to
// `setups`) and makes `rounds` edits. Passes start while the next one
// ends within `seconds`, and at least `min_passes` run.
void RunEditPasses(EditContext* ctx, double seconds, int64_t min_passes,
                   int rounds, EditAcc* acc, std::vector<double>* setups,
                   Report* report);
// The end-to-end metrics from every slot's best pass.
void ReportEdit(const EditAcc& acc, Report* report);

// --- served-open ---------------------------------------------------------

// One served document with its offline verdict.
struct ServedDoc {
  std::string bytes;
  bool faulted = false;
  bool ok = true;                 // offline BatchSession streamed cleanly
  std::vector<int64_t> counts;    // when ok
  sst::ErrorInfo error;           // when !ok: the first offline StreamError
  std::vector<sst::MatchWireRecord> records;  // offline CollectingSink run
};

// Builds the served pool from documents (fault-injecting `fault_rate` of
// them) and computes every offline verdict.
std::vector<ServedDoc> MakeServedPool(uint64_t seed,
                                      const std::vector<std::string>& docs,
                                      double fault_rate);
// The served-open pool: dense documents of 2-20 KiB, 10% faulted.
std::vector<ServedDoc> MakeServedOpenPool(uint64_t seed);

// Per-step measurements of the open-loop generator.
struct ServedStep {
  LadderStep ladder;
  std::vector<double> latency_ms;      // due time -> verdict
  std::vector<double> due_s;           // due time of each, from step start
  std::vector<double> first_match_ms;  // matches=1 connection
  std::vector<double> lag_ms;          // how late each send ran
  std::vector<int> docs;               // pool index per completed document
  int64_t attempted = 0;
  int64_t failed = 0;
};

// A query_server child process plus the generator's connections.
class ServedHarness {
 public:
  ServedHarness(const Config& config, const std::vector<ServedDoc>* pool);
  ~ServedHarness();

  // Spawns the server, connects and registers every connection, and
  // serves one document; returns the seconds that took.
  double Start();
  // One open-loop step at `rate_mib_s` for `seconds`: Poisson arrivals,
  // round-robin over the connections, every verdict checked.
  ServedStep RunStep(double rate_mib_s, double seconds, uint64_t seed,
                     Tracer* tracer, Report* report);
  // Counter snapshot scraped over the wire (kMetrics -> kMetricsText).
  std::vector<std::pair<std::string, int64_t>> ScrapeMetrics();
  double ServerPeakRssMib() const;
  // SIGTERM, wait for the drain, check the exit status.
  void Stop();

 private:
  struct Conn;
  bool ReadFrames(Conn& conn, std::vector<sst::Frame>* frames);
  void FlushAll();

  Config config_;
  const std::vector<ServedDoc>* pool_;
  int pid_ = -1;
  int port_ = 0;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::string register_counts_;
  std::string register_matches_;
  cpu_set_t saved_affinity_;  // restored by Stop
  bool saved_affinity_ok_ = false;
};

// The served-open ladder (MiB/s offered, climbed after the reference
// rate), the reference rate that gives the per-document latencies, and
// the p99 latency limit that, with the backlog test, decides
// sustained_mib_s. Mirrored in the workload's entry in BENCHMARK.json.
const std::vector<double>& ServedLadder();
inline constexpr double kServedReferenceMibS = 8.0;
inline constexpr double kServedLatencyLimitMs = 50.0;
// Shares of a served-open run spent at the reference rate and on each
// ladder rung (the climb usually stops well before the last rung).
inline constexpr double kServedReferenceShare = 0.5;
inline constexpr double kServedRungShare = 0.03;

// --- traced layer ledger -------------------------------------------------

// Inputs of the ledger: the workload's documents (compiled and opened as
// a chunked context), the edit loop already run (edit-session), and the
// documents the served row sends.
struct LedgerInput {
  std::string workload;
  ChunkedContext* chunked = nullptr;
  const EditAcc* edits = nullptr;            // null: the ledger edits
  std::vector<std::string> served_docs;      // clean, compact markup
  const std::vector<ServedDoc>* served_pool = nullptr;  // overrides docs
};

// Per-layer metrics and the gap-attribution table; appends to `report`.
void RunLedger(const Config& config, LedgerInput* input, double seconds,
               Report* report);

// p99 of served latencies as the median over consecutive windows of
// kWindowDocs documents (in due-time order) of each window's p99: the
// machine's scheduling stalls come in bursts, and a burst moves one
// window's p99, not the median. A single window when there are fewer.
inline constexpr size_t kWindowDocs = 1000;
double WindowedP99(const std::vector<double>& due_s,
                   const std::vector<double>& latency_ms);

// The value of `name` in a ScrapeMetrics snapshot (0 when absent).
int64_t ScrapedValue(const std::vector<std::pair<std::string, int64_t>>& m,
                     const std::string& name);

}  // namespace pb

#endif  // PERFBENCH_WORKLOADS_H_
