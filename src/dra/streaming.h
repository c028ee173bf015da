#ifndef SST_DRA_STREAMING_H_
#define SST_DRA_STREAMING_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "automata/alphabet.h"
#include "base/match_sink.h"
#include "dra/byte_dra_runner.h"
#include "dra/byte_runner.h"
#include "dra/machine.h"
#include "dra/stream_error.h"

namespace sst {

// Byte serialization consumed by the streaming front-end. (Also aliased as
// StreamingSelector::Format for the pre-engine spelling.)
enum class StreamFormat {
  kCompactMarkup,  // 'a'..'z' opening tags, 'A'..'Z' closing tags
  kXmlLite,        // <name> ... </name>, tags only
  kCompactTerm,    // name{ ... } (JSON-style; universal close)
};

// Precomputed per-byte classification of one (format, alphabet) pair: the
// compile-time half of the scanner. Immutable once built, so one instance
// can be shared read-only by any number of concurrently running
// StreamingSelectors (the engine's QueryPlan owns exactly one); selectors
// constructed standalone build a private copy.
struct ScannerTables {
  // Byte classes; meanings depend on the format the table was built for.
  enum ByteClass : uint8_t {
    kBad = 0,
    kWs,          // ASCII whitespace
    kOpen,        // markup: 'a'..'z'
    kClose,       // markup: 'A'..'Z'
    kLabel,       // term: label byte (ASCII alnum, '_', '-')
    kCloseBrace,  // term: '}'
  };

  std::array<uint8_t, 256> byte_class;
  std::array<Symbol, 256> byte_symbol;

  static ScannerTables Build(StreamFormat format, const Alphabet& alphabet);
};

// Byte-level observability of one streaming run; see
// StreamingSelector::stats(). All counters reset with Reset().
//
// Every counter except chunks_fed is chunking-invariant: feeding the same
// bytes under any split schedule yields the same values, including
// error_offset and the recovery counters. (chunks_fed measures the split
// schedule itself, so it is the one counter that cannot be.) On a fatal
// error, bytes_fed reports the consumed prefix — exactly error_offset
// bytes — not whatever chunk tail happened to be in flight.
struct StreamStats {
  int64_t bytes_fed = 0;      // bytes consumed (whitespace included)
  int64_t chunks_fed = 0;     // Feed calls processed (throughput input that
                              // needs no wall clock: bytes_fed / chunks_fed
                              // is the average chunk the transport delivers)
  int64_t events = 0;         // tag events decoded (opens + closes)
  int64_t max_depth = 0;      // peak element nesting depth
  int64_t matches = 0;        // pre-selected nodes
  int64_t errors_recovered = 0;  // errors absorbed by the recovery policy
  int64_t subtrees_skipped = 0;  // kSkipMalformedSubtree resync regions
  int64_t error_offset = -1;  // byte offset of the first error, -1 if none
  int64_t matches_emitted = 0;  // MatchSink OnMatch events (0 with no sink)
  int64_t pending_matches_peak = 0;  // emission-buffer high-water
  int64_t max_stack_depth = 0;   // stack-tier peak stacked states (0 on the
                                 // stackless tiers, whose configs hold none)
  int64_t underflow_closes = 0;  // stack-tier closes ignored with nothing
                                 // open (unbalanced machine-level stream)
};

struct SelectorCheckpoint;

// Incremental push-parser driving a StreamMachine: feed arbitrary byte
// chunks (network reads, mmap windows); tag events are decoded on the fly
// and matches are reported as the stream goes by — the intended deployment
// of pre-selection (Section 2.3): once a node is pre-selected, its whole
// subtree can be forwarded downstream with no buffering.
//
// Formats:
//   kCompactMarkup  'a'..'z' opening tags, 'A'..'Z' closing tags;
//   kXmlLite        <name> ... </name>, tags only;
//   kCompactTerm    name{ ... } (JSON-style; drives OnClose with -1).
// Whitespace between tags is ignored (ASCII whitespace only — behavior is
// locale-independent). The parser validates well-formedness (tag balance
// and, for markup formats, label matching) since the paper's weak setting
// assumes it: a violation is reported as a structured StreamError rather
// than silently producing nonsense.
//
// Robustness layer (see DESIGN.md "Robustness & recovery"):
//   * every malformed-input condition produces a StreamError (code + byte
//     offset + depth + expected/got labels), identical under any chunk
//     split of the same bytes;
//   * a RecoveryPolicy selects fail-fast (default), skip-malformed-subtree
//     resynchronization, or auto-close-at-EOF;
//   * StreamLimits guard depth / document size / event count / recovery
//     budget deterministically, with the checks kept off the bulk-skip
//     loops (per-open, per-event, and per-Feed prefix splits);
//   * once an error is fatal, Feed and Finish are no-ops returning false
//     and the first StreamError is preserved verbatim.
//
// The hot loop is table-driven: a 256-entry byte classification and a
// byte→Symbol table are precomputed from the Alphabet at construction, so
// the steady state performs no isspace/hash-lookup calls and no heap
// allocation; whitespace runs and XML tag bodies are skipped in bulk with
// the SIMD/SWAR kernels of base/byte_scan.h rather than byte by byte
// (partial tags live in a fixed buffer; the well-formedness
// label stack keeps its capacity across Reset and only grows past
// kDepthReserve on pathologically deep documents). On compact markup, a
// machine that exports a plain TagDfa (registerless tier, or the eager
// product of a batch), one or more restricted DRAs (stackless tier,
// Lemma 3.8, or the stackless members of a mixed batch), both, or a state
// column (the pushdown tier), runs on one validated kernel: per structural
// byte it steps the fused ByteTagDfaRunner byte→state table (Section 4.3)
// and every fused ByteDraRunner, which resolves depth, registers and the
// comparison code inline, or steps the table and the state column side by
// side — no virtual dispatch, and no data-dependent branch per event
// beyond the DRA step's one branch on the tag kind.
// Recovery demotes the kernel to the generic machine tier for the rest of
// the document (the degradation ladder); Reset() re-arms it.
class StreamingSelector {
 public:
  using Format = StreamFormat;

  // Which rung of the degradation ladder is executing events: the fused
  // kernel over a byte table (registerless, fused-product batch, and the
  // pushdown tier, whose table steps opens beside its state column), the
  // fused kernel stepping restricted DRAs (stackless, mixed batch; with or
  // without a table), and the generic virtual machine. The machine kind
  // itself (which of the paper's tiers) is the plan's choice; the selector
  // reports the rung it switches between internally.
  enum class Tier { kFusedByteTable, kFusedDraTable, kGenericMachine };

  // One recovered error: the structured error plus the excised byte range.
  // excise_from is the first damaged byte (the start of the offending
  // token, which for multi-byte tokens — an XML tag, a term label — begins
  // before error.offset); resume_offset is the byte just past the
  // resynchronization token (-1 while the skip is still open at EOF);
  // closed_label is the label of the element whose close was synthesized
  // at resync (-1 for the kAutoClose EOF record, which closes every
  // remaining level). The sanitized document equivalent to the recovered
  // run is
  //   bytes[0, excise_from) + <close of closed_label> + bytes[resume_offset,)
  // which the property tests rebuild and re-parse fail-fast.
  struct RecoveredError {
    StreamError error;
    int64_t excise_from = -1;
    int64_t resume_offset = -1;
    Symbol closed_label = -1;
  };

  // Longest supported tag label, in bytes (an XML-lite closing tag's '/'
  // does not count towards this).
  static constexpr size_t kMaxTagBytes = 256;

  // Depth up to which the label stack never reallocates in steady state.
  static constexpr size_t kDepthReserve = 1024;

  // Upper bound on stackless fused close-table entries (states × symbols ×
  // 3^registers, ~4 bytes each) a selector will build privately; larger
  // DRAs — and any with 65536 states or more, past the table's 16-bit
  // state width — stay on the generic tier. Plan-level builds apply their
  // own budget before materializing (see engine/query_plan.cc).
  static constexpr int64_t kFusedDraEntryBudget = int64_t{1} << 22;

  // Called right after a node is pre-selected: (node index in document
  // order, label symbol).
  using MatchCallback = std::function<void(int64_t, Symbol)>;

  // `machine` and `alphabet` must outlive the selector. Labels must be
  // present in the alphabet (the machine's automaton is indexed by it);
  // unknown element names fail the feed. Builds private scanner tables
  // (and, when eligible, a private fused byte table) at construction.
  StreamingSelector(StreamMachine* machine, Format format,
                    const Alphabet* alphabet);

  // Compile-once / run-many form: borrows immutable tables owned by a
  // shared plan instead of building them. `tables` must have been built
  // for exactly this (format, alphabet). `fused` and `fused_dras` are the
  // fused kernel's tables: `fused` the byte table of the TagDfa the
  // machine exports (or, for a machine exporting a state column, the
  // table of its open transitions: QueryPlan::stack_table()), `fused_dras`
  // one ByteDraRunner per DRA it exports, in export order (the kernel
  // steps the exported state, column and configurations in place). The
  // kernel runs when they cover the machine's whole export and at least
  // one is given; otherwise — and always when both are
  // empty — the selector runs the generic tier. No table construction —
  // and no allocation proportional to the automaton — happens on this
  // path; see engine/session.h.
  StreamingSelector(StreamMachine* machine, Format format,
                    const Alphabet* alphabet, const ScannerTables* tables,
                    const ByteTagDfaRunner* fused,
                    std::span<const ByteDraRunner* const> fused_dras = {});

  void set_match_callback(MatchCallback callback) {
    match_callback_ = std::move(callback);
  }

  // Streams match events (byte spans, emitted at the earliest certain
  // offset) into `sink`; see base/match_sink.h for the event model and
  // ordering guarantees. The sink must outlive the selector or be cleared
  // with nullptr; it survives Reset() like the policy and limits, so a
  // pooled session keeps its sink wiring across documents. For multi-query
  // machines, event query_ids are the machine's member indices
  // (StreamMachine::AppendSelectedMembers); single-query machines emit
  // query_id 0. The emission buffer is bounded by
  // StreamLimits::max_pending_matches.
  void set_match_sink(MatchSink* sink) { recorder_.set_sink(sink); }

  // Emission-buffer observability: pending/peak span counts, OnMatch
  // totals, and overflow truncations of the current run.
  const MatchRecorder& match_recorder() const { return recorder_; }

  // Both must be set before the first Feed of a document (they are not
  // consulted retroactively). Limits must pass StreamLimits::Validate() —
  // zero or contradictory guards are a configuration bug, rejected loudly
  // here instead of silently failing every document downstream.
  void set_recovery_policy(RecoveryPolicy policy) { policy_ = policy; }
  void set_limits(const StreamLimits& limits);
  RecoveryPolicy recovery_policy() const { return policy_; }
  const StreamLimits& limits() const { return limits_; }

  // Feeds a chunk; false on fatal malformed input (stream_error() has the
  // structured error, error() a rendered message). Recovered errors keep
  // Feed returning true. After a fatal error every further Feed is a no-op
  // returning false; the original error is preserved.
  bool Feed(std::string_view chunk);

  // Declares end of input; false if the document is incomplete (under
  // kAutoClose, missing closes are synthesized instead and Finish
  // succeeds).
  bool Finish();

  void Reset();

  int64_t nodes() const { return nodes_; }
  int64_t matches() const { return matches_; }
  int64_t depth() const { return depth_; }
  bool document_complete() const { return saw_root_ && depth_ == 0; }
  bool machine_accepting() const { return machine_->InAcceptingState(); }

  // True once a fatal (unrecovered) error has been recorded.
  bool failed() const { return failed_; }

  // The first error observed — fatal or recovered; code kNone if the
  // stream has been clean so far. Chunking-invariant.
  const StreamError& stream_error() const { return stream_error_; }

  // Rendered first error ("" while clean). Kept for log-friendliness;
  // structured consumers should use stream_error().
  const std::string& error() const { return error_; }

  // Errors absorbed by the recovery policy, in stream order.
  const std::vector<RecoveredError>& recovered_errors() const {
    return recovered_errors_;
  }

  // Byte-level counters of the run so far.
  StreamStats stats() const {
    return {bytes_fed_,
            chunks_fed_,
            events_,
            max_depth_,
            matches_,
            errors_recovered_,
            subtrees_skipped_,
            error_offset_,
            recorder_.emitted(),
            recorder_.peak_pending(),
            machine_->StackDepthPeak(),
            machine_->StackUnderflowCloses()};
  }

  // --- Checkpoint protocol (incremental re-evaluation) ------------------
  // A SelectorCheckpoint is the selector's complete resumable state at a
  // Feed boundary: machine configuration (via StreamMachine::SaveConfig),
  // validator labels, lexer, recovery state, and the exact prefix values
  // of every counter. engine/incremental.h records these on a byte grid
  // and resumes/rescans/splices around edits; see DESIGN.md "Incremental
  // re-evaluation".

  // Captures the current state into `out` (overwritten). False — and no
  // resources retained — when the machine does not support the config
  // protocol or when pending match spans exist (checkpointing requires a
  // verdict-only or absent sink). Must not be called after a fatal error.
  bool SaveCheckpoint(SelectorCheckpoint* out);

  // Adopts a saved checkpoint, clearing any fatal
  // state recorded since; the checkpoint stays valid for further
  // restores. The running max-depth is re-based at the restored depth
  // (see TakeSegmentPeakDepth). False if the machine rejects the config.
  bool RestoreCheckpoint(const SelectorCheckpoint& cp);

  // Convergence test: true iff the live state at the current position is
  // byte-for-byte the state `cp` recorded, modulo a uniform shift of
  // `delta` bytes in every stored absolute offset (the edit's net size
  // change). Counters and error history do not participate — they are
  // prefix aggregates, spliced separately; what must agree is everything
  // that determines the *future* of the run: depth, validator labels,
  // lexer, recovery mode, tier demotion, and the machine configuration.
  bool CheckpointConverged(const SelectorCheckpoint& cp, int64_t delta) const;

  // Returns the peak depth since the last call (or Reset/Restore) and
  // re-bases the running peak at the current depth. Lets a checkpointing
  // caller keep exact per-segment peaks — and thus splice an exact global
  // max_depth — at zero cost to the scan loops. Plain callers that never
  // call this see the usual whole-run peak in stats().
  int64_t TakeSegmentPeakDepth();

  // True when the fused kernel is active (not demoted) and steps a byte
  // table: a registerless machine, an eager product (fused-product and
  // mixed batches), or the pushdown tier's open table beside its state
  // column, on compact markup with single-letter labels.
  bool using_fused_fast_path() const {
    return fused_ != nullptr && !demoted_;
  }
  // True when the fused kernel is active and steps restricted DRAs: a
  // stackless machine, or the stackless members of a mixed batch.
  bool using_fused_dra_path() const {
    return !fused_dras_.empty() && !demoted_;
  }
  Tier active_tier() const {
    if (using_fused_dra_path()) return Tier::kFusedDraTable;
    if (using_fused_fast_path()) return Tier::kFusedByteTable;
    return Tier::kGenericMachine;
  }

 private:
  // How the offending token participates in skip-mode framing when the
  // error is recovered: an open-like token starts a nested skipped
  // element, a close-like token is itself the resynchronization point,
  // and junk is simply discarded.
  enum class ErrorToken : uint8_t { kJunk, kOpenLike, kCloseLike };

  // Verifies (debug builds only) that the shared/owned scanner tables and
  // the fused byte table, built independently from the same Alphabet,
  // agree byte for byte on the letters they classify.
  void CheckTableAgreement() const;

  // Records the first error and marks the stream fatally failed.
  bool FailAt(const StreamError& err);
  StreamError MakeError(StreamErrorCode code, int64_t offset,
                        Symbol expected = -1, Symbol got = -1) const;

  // Recovery decision point: under kSkipMalformedSubtree (and within the
  // recovery budget) records the error, enters skip mode, and returns
  // true; otherwise records it fatally and returns false. `excise_from`
  // is the first damaged byte (see RecoveredError). Machine events
  // synthesized here go through the virtual interface — callers on the
  // fused tier must demote before calling.
  bool Recover(const StreamError& err, ErrorToken token, int64_t excise_from);

  // Synthesizes the close of the innermost open element (symbol -1 under
  // the term encoding) and leaves skip mode. `consumed_end` is the offset
  // just past the resync token. False on a fatal guard violation.
  bool ResyncClose(int64_t consumed_end);

  // The generic compact-markup tier: validates the framing from chunk
  // index `start` on and steps the machine through its virtual interface.
  bool FeedMarkup(std::string_view chunk, size_t start);

  // The fused kernel (compact markup): one resumable pass that steps the
  // optional byte table `table` (T = void: none) and, with kDras, every
  // fused DRA side by side, or with kStack the machine's state column
  // beside the table, validates the framing and updates every counter
  // with selects. All of FeedMarkup's checks fold into one flag behind a
  // single never-taken branch, which syncs the table state, the DRA
  // configurations and the state column and hands the offending byte to
  // FeedMarkup — so error codes, offsets, recovery and demotion are the
  // generic tier's own. kProduct: the machine is multi-member and exports
  // an open-visit counter, which the kernel bumps for the per-member
  // counts. kEmit: how matches reach the callback and sink. FeedFused
  // picks the instantiation.
  enum class FusedEmit : uint8_t {
    kNone,      // neither installed: counters only
    kVerdicts,  // single member, verdict-only sink, no callback: matches
                // buffered branch-free and flushed in document order
    kFull,      // otherwise: the out-of-line record paths per match and
                // per span close
  };
  bool has_kernel() const {
    return fused_ != nullptr || !fused_dras_.empty();
  }
  bool FeedFused(std::string_view chunk);
  template <typename T, bool kDras, bool kStack, bool kProduct,
            FusedEmit kEmit>
  bool ScanFused(std::string_view chunk, const T* table, int64_t* visits);
  void RecordFusedMatch(bool product, int state, int64_t depth,
                        int64_t start);
  void FlushFusedHits(const size_t* indices, size_t count);
  // Label slots the kernel needs above the stack top: one 64-byte block
  // opens at most 64 elements, and every byte writes the slot just above
  // the top.
  static constexpr size_t kLabelBlockSlots = 64;

  bool FeedTerm(std::string_view chunk);
  bool FeedXml(std::string_view chunk);
  bool EmitOpen(Symbol symbol, int64_t offset, int64_t excise_from);
  bool EmitClose(Symbol symbol, int64_t offset, int64_t excise_from);
  // `span_end` is the end offset pending match spans complete with —
  // just past the resync token (kSkipMalformedSubtree) or the EOF offset
  // (kAutoClose); distinct from `offset`, the event-guard coordinate.
  bool EmitSynthClose(int64_t offset, int64_t span_end);

  // Fans the just-opened node's match (at nesting `depth`) out per
  // accepting machine member (query_id 0 for single-query machines) into
  // the recorder. Only called when acceptance was sampled true, a sink is
  // installed, and the machine's state is in sync.
  void RecordMatch(int64_t depth, int64_t start, int64_t certainty);

  StreamMachine* machine_;
  Format format_;
  const Alphabet* alphabet_;
  MatchCallback match_callback_;
  RecoveryPolicy policy_ = RecoveryPolicy::kFailFast;
  StreamLimits limits_;

  // Match-event pipeline: the bounded emission buffer between the scan
  // loops and the installed MatchSink (inactive when no sink is set), plus
  // a reusable scratch vector for the per-member fan-out.
  MatchRecorder recorder_;
  std::vector<int32_t> member_scratch_;

  // Per-byte tables: either borrowed from a shared plan (owned_tables_
  // null) or privately built at construction. tables_ is never null.
  std::unique_ptr<ScannerTables> owned_tables_;
  const ScannerTables* tables_;

  // The fused kernel's tables: the byte table of the machine's exported
  // TagDfa (null when it exports none) and one fused DRA per exported DRA,
  // set only when together they cover the machine's whole export (both
  // empty otherwise). Borrowed from a shared plan or privately owned, like
  // the scanner tables.
  std::unique_ptr<ByteTagDfaRunner> owned_fused_;
  const ByteTagDfaRunner* fused_ = nullptr;
  std::vector<std::unique_ptr<ByteDraRunner>> owned_fused_dras_;
  std::vector<const ByteDraRunner*> fused_dras_;

  // Well-formedness: the expected closing labels (only the labels, not
  // full automaton states — the library never keeps evaluation state per
  // level, but a *validator* of the input framing needs the open labels).
  std::vector<Symbol> open_labels_;

  // Incremental lexer state (partial tag across chunk boundaries) — fixed
  // capacity, no allocation.
  char tag_buf_[kMaxTagBytes];
  uint32_t tag_len_ = 0;
  bool in_tag_ = false;       // kXmlLite: between '<' and '>'
  bool tag_first_ = false;    // kXmlLite: next byte is the first after '<'
  bool tag_closing_ = false;  // kXmlLite: tag started with '/'
  bool have_pending_ = false;  // kCompactTerm: label byte awaiting '{'
  unsigned char pending_byte_ = 0;
  int64_t pending_offset_ = -1;  // kCompactTerm: offset of pending_byte_
  int64_t tag_start_ = -1;       // kXmlLite: offset of the current tag's '<'

  // Recovery state (kSkipMalformedSubtree): while in_skip_, input is
  // framing-scanned only; skip_depth_ counts elements opened inside the
  // skipped region. Resync happens at the close that would return the
  // region to the innermost open element's end. demoted_ latches the
  // fused→generic tier drop until Reset.
  bool in_skip_ = false;
  int64_t skip_depth_ = 0;
  bool demoted_ = false;

  int64_t chunk_base_ = 0;  // bytes fed before the current chunk
  int64_t bytes_fed_ = 0;
  int64_t chunks_fed_ = 0;
  int64_t events_ = 0;
  int64_t nodes_ = 0;
  int64_t matches_ = 0;
  int64_t depth_ = 0;
  int64_t max_depth_ = 0;
  int64_t errors_recovered_ = 0;
  int64_t subtrees_skipped_ = 0;
  int64_t error_offset_ = -1;
  bool saw_root_ = false;
  bool failed_ = false;
  StreamError stream_error_;
  std::string error_;
  std::vector<RecoveredError> recovered_errors_;
};

// Complete resumable state of a StreamingSelector at a Feed boundary; see
// StreamingSelector::SaveCheckpoint. Offsets stored here are absolute
// document positions — reusing a checkpoint recorded after an edit point
// means shifting them by the edit's net byte delta (the engine layer's
// rebase step). A checkpoint never stores recorder state: checkpointing
// is only offered with verdict-only sinks, whose emission buffer is
// always empty.
struct SelectorCheckpoint {
  // Machine configuration (StreamMachine::SaveConfig words; the stack tier
  // copies its state column, like open_labels below).
  std::vector<int64_t> machine_config;

  // Well-formedness validator: the open-element labels, bottom to top.
  std::vector<Symbol> open_labels;

  // Lexer (partial multi-byte token across the boundary).
  std::string tag_buf;
  bool in_tag = false;
  bool tag_first = false;
  bool tag_closing = false;
  bool have_pending = false;
  unsigned char pending_byte = 0;
  int64_t pending_offset = -1;
  int64_t tag_start = -1;

  // Recovery state.
  bool in_skip = false;
  int64_t skip_depth = 0;
  bool demoted = false;

  // Exact prefix counters (StreamStats minus the recorder-owned fields).
  int64_t bytes_fed = 0;
  int64_t chunks_fed = 0;
  int64_t events = 0;
  int64_t nodes = 0;
  int64_t matches = 0;
  int64_t depth = 0;
  int64_t errors_recovered = 0;
  int64_t subtrees_skipped = 0;
  int64_t error_offset = -1;
  bool saw_root = false;
  int64_t machine_underflows = 0;  // stack-tier underflow count at capture

  // Error history of the prefix: the first error plus every recovered one.
  StreamError stream_error;
  std::vector<StreamingSelector::RecoveredError> recovered;
};

}  // namespace sst

#endif  // SST_DRA_STREAMING_H_
