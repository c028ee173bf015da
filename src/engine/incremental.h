#ifndef SST_ENGINE_INCREMENTAL_H_
#define SST_ENGINE_INCREMENTAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/match_sink.h"
#include "dra/stream_error.h"
#include "dra/streaming.h"
#include "engine/checkpoint.h"
#include "engine/query_plan.h"

namespace sst {

// Configuration of an IncrementalSession.
struct IncrementalOptions {
  // Checkpoint grid: one checkpoint every `checkpoint_interval` document
  // bytes. Smaller intervals mean less rescanning per edit and more
  // retained state; the stackless tiers pay O(1)-O(registers) words per
  // checkpoint, the stack tier one retained pooled node (shared suffixes
  // are structural, so even deep documents stay cheap).
  int64_t checkpoint_interval = int64_t{1} << 16;

  // Forwarded to the selector before the first scan. Splicing suffix
  // aggregates is only sound under unlimited() limits (whether a finite
  // guard fires in the suffix depends on prefix counters an edit shifts);
  // finite limits keep checkpoint resume but downgrade every ApplyEdit to
  // scan-to-end.
  RecoveryPolicy policy = RecoveryPolicy::kFailFast;
  StreamLimits limits;
};

// Incremental re-evaluation over an edited document (ROADMAP item 4): a
// full Scan records periodic checkpoints — the active tier's complete
// configuration plus exact prefix aggregates — and ApplyEdit re-evaluates
// a byte splice by
//   1. resuming from the nearest checkpoint at or before the edit,
//   2. rescanning through the edited region, and
//   3. detecting *convergence*: the post-edit configuration matching the
//      recorded configuration stream at the same depth (checkpoint
//      offsets, shifted by the edit's net byte delta). On convergence the
//      suffix is spliced — counts as checkpoint-delta arithmetic, match
//      events with rebased byte offsets, suffix checkpoints rebased in
//      place — instead of rescanned.
// When configurations never reconverge (the edit changed the context of
// everything after it) the rescan simply runs to EOF, which is the full-
// rescan fallback with the prefix before the edit still reused.
//
// This cashes in the paper's central asset: a stackless configuration is
// O(1) — state, depth counter, register bank — so checkpoints cost words,
// not stacks. The pushdown fallback joins via the pooled persistent stack
// (eval/stack_evaluator.h): its checkpoint is a retained node pointer,
// O(1) to take, with suffixes shared structurally between checkpoints.
//
// The session never stores document bytes: the caller owns the document
// and passes the post-edit bytes to ApplyEdit (the tree-sitter contract —
// the editor already has the buffer; duplicating 100 MB per session would
// dwarf the state being checkpointed).
//
// Results (matches, match events, first error, stats) are byte-identical
// to a full rescan of the edited document — the property suite asserts
// this across formats, tiers, edit kinds, and checkpoint intervals.
// Match events are verdict-only (end_offset stays -1): span ends live in
// the suffix, which a spliced edit deliberately never visits.
class IncrementalSession {
 public:
  // How ApplyEdit answered.
  enum class EditPath {
    kSplicedSuffix,  // converged: suffix aggregates spliced, O(K + edit)
    kScannedToEnd,   // no convergence: rescanned from the resume point
    kFullRescan,     // no usable checkpoint (unsupported machine tier)
  };

  struct EditOutcome {
    EditPath path = EditPath::kFullRescan;
    int64_t resumed_from = 0;   // offset of the checkpoint restored
    int64_t converged_at = -1;  // post-edit offset of convergence (-1 none)
    int64_t bytes_rescanned = 0;
    int64_t checkpoints_reused = 0;   // suffix checkpoints rebased in place
    int64_t checkpoints_dropped = 0;  // released (covered by the rescan)
  };

  // `plan` must be exact(). The sink the session installs is its own
  // verdict-only event log; callers read results through the accessors.
  explicit IncrementalSession(std::shared_ptr<const QueryPlan> plan,
                              IncrementalOptions options = {});

  IncrementalSession(const IncrementalSession&) = delete;
  IncrementalSession& operator=(const IncrementalSession&) = delete;

  // Full scan of `document`, recording the checkpoint stream. Returns
  // true when the document streamed cleanly (no fatal error); results are
  // queryable either way.
  bool Scan(std::string_view document);

  // Re-evaluates after `new_bytes` replaced the byte range
  // [offset, offset + old_len) of the previously scanned document.
  // `document` is the complete post-edit document (its size must be the
  // old size + new_bytes.size() - old_len); the session reads only the
  // bytes it actually rescans. Returns how the edit was answered.
  EditOutcome ApplyEdit(int64_t offset, int64_t old_len,
                        std::string_view new_bytes,
                        std::string_view document);

  // --- Results of the last Scan/ApplyEdit (full-rescan parity) ---------
  int64_t matches() const { return results_.stats.matches; }
  const std::vector<MatchEvent>& match_events() const {
    return results_.events;
  }
  const StreamStats& stats() const { return results_.stats; }
  bool failed() const { return results_.failed; }
  bool document_complete() const { return results_.complete; }
  bool machine_accepting() const { return results_.accepting; }
  const StreamError& stream_error() const { return results_.error; }
  const std::vector<StreamingSelector::RecoveredError>& recovered_errors()
      const {
    return results_.recovered;
  }

  // --- Observability ---------------------------------------------------
  // False when the machine tier cannot checkpoint (every engine tier can;
  // this guards exotic custom machines) — ApplyEdit then always rescans.
  bool checkpointing_supported() const { return supported_; }
  size_t checkpoint_count() const { return cps_.size(); }
  int64_t document_size() const { return doc_size_; }
  const QueryPlan& plan() const { return *plan_; }

  // The rung the live selector scans on: compact-markup registerless and
  // stackless plans scan and resume on the fused kernel until a recovery
  // demotes the document to the generic tier.
  StreamingSelector::Tier active_tier() const {
    return selector_.active_tier();
  }

  // Checkpoint grid interval in effect.
  int64_t checkpoint_interval() const { return options_.checkpoint_interval; }

 private:
  // Verdict-only sink appending into the session's scratch event buffer.
  class EventLogSink final : public MatchSink {
   public:
    void OnMatch(const MatchEvent& event) override {
      log_->push_back(event);
    }
    void OnSpanClose(const MatchEvent&) override {}
    bool wants_spans() const override { return false; }
    void set_log(std::vector<MatchEvent>* log) { log_ = log; }

   private:
    std::vector<MatchEvent>* log_ = nullptr;
  };

  struct Results {
    std::vector<MatchEvent> events;
    StreamStats stats;
    bool failed = false;
    bool complete = false;   // document_complete() at EOF
    bool accepting = false;  // machine_accepting() at EOF
    StreamError error;
    std::vector<StreamingSelector::RecoveredError> recovered;
    int64_t tail_peak = 0;  // peak depth after the last checkpoint
  };

  // Clears all state and scans `document` from scratch, rebuilding the
  // checkpoint stream. Shared by Scan and the full-rescan edit path.
  void DoFullScan(std::string_view document);

  // Captures a checkpoint of the live selector at `offset` into `out`;
  // `base_match_index` is the number of events emitted before the current
  // scratch log started. False when the save is unsupported.
  bool MakeCheckpointAt(int64_t offset, int64_t base_match_index,
                        Checkpoint* out);

  // Composes the Results of a run that ended on the live selector (full
  // scan or scan-to-end): `events` is the already-assembled event log;
  // the peak depth is composed from cps_ segment peaks plus the live
  // tail, so cps_ must already hold the final checkpoint stream.
  Results CaptureLiveResults(std::vector<MatchEvent> events);

  int64_t NextGrid(int64_t pos) const {
    return (pos / options_.checkpoint_interval + 1) *
           options_.checkpoint_interval;
  }

  std::shared_ptr<const QueryPlan> plan_;
  std::unique_ptr<StreamMachine> machine_;
  StreamingSelector selector_;
  IncrementalOptions options_;
  bool stack_tier_ = false;

  EventLogSink sink_;
  std::vector<MatchEvent> scratch_events_;  // rescan-region event log

  CheckpointStream cps_;
  Results results_;
  bool scanned_ = false;
  bool supported_ = false;
  int64_t doc_size_ = 0;
};

}  // namespace sst

#endif  // SST_ENGINE_INCREMENTAL_H_
