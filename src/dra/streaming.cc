#include "dra/streaming.h"

#include <bit>
#include <cstring>
#include <string>
#include <type_traits>

#include "base/byte_scan.h"
#include "base/check.h"

namespace sst {

namespace {

// ASCII whitespace, independent of the process locale (std::isspace is
// locale-dependent and one hash-of-locale call per byte besides).
inline bool IsAsciiWs(unsigned char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

inline bool IsAsciiAlnum(unsigned char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
         (c >= 'A' && c <= 'Z');
}

#if defined(__GNUC__) || defined(__clang__)
#define SST_NOINLINE __attribute__((noinline))
#define SST_UNLIKELY(x) __builtin_expect(static_cast<bool>(x), 0)
#else
#define SST_NOINLINE
#define SST_UNLIKELY(x) (x)
#endif

// Out-of-line recorder entry point for the scan loops. Keeping the
// emission body (event construction, virtual sink dispatch, pending-stack
// maintenance) out of the loop keeps its register allocation — stepper
// state plus the structural iterator — intact; inlining it costs ~10%
// whole-scan throughput on the padded corpus even though the guard
// branches are never taken without a sink.
SST_NOINLINE void RecordSpanClose(MatchRecorder& recorder, int64_t depth,
                                  int64_t end) {
  recorder.OnClose(depth, end);
}

}  // namespace

ScannerTables ScannerTables::Build(StreamFormat format,
                                   const Alphabet& alphabet) {
  ScannerTables tables;
  std::array<Symbol, 256> interned = alphabet.ByteSymbolTable();
  tables.byte_class.fill(kBad);
  tables.byte_symbol.fill(-1);
  for (int c = 0; c < 256; ++c) {
    unsigned char b = static_cast<unsigned char>(c);
    if (IsAsciiWs(b)) tables.byte_class[c] = kWs;
  }
  switch (format) {
    case StreamFormat::kCompactMarkup:
      for (int c = 'a'; c <= 'z'; ++c) {
        tables.byte_class[c] = kOpen;
        tables.byte_symbol[c] = interned[c];
        tables.byte_class[c - 'a' + 'A'] = kClose;
        tables.byte_symbol[c - 'a' + 'A'] = interned[c];
      }
      break;
    case StreamFormat::kCompactTerm:
      for (int c = 0; c < 256; ++c) {
        unsigned char b = static_cast<unsigned char>(c);
        if (IsAsciiAlnum(b) || b == '_' || b == '-') {
          tables.byte_class[c] = kLabel;
          tables.byte_symbol[c] = interned[c];
        }
      }
      tables.byte_class[static_cast<unsigned char>('}')] = kCloseBrace;
      break;
    case StreamFormat::kXmlLite:
      // XML-lite lexing branches on '<' and '>' directly; names are looked
      // up per tag, with the single-byte table as a shortcut.
      tables.byte_symbol = interned;
      break;
  }
  return tables;
}

namespace {

// The fused tables are keyed by the raw byte, so every symbol the stream
// can mention must be a single lowercase letter.
bool CompactLabels(const Alphabet& alphabet) {
  for (Symbol s = 0; s < alphabet.size(); ++s) {
    const std::string& label = alphabet.LabelOf(s);
    if (label.size() != 1 || label[0] < 'a' || label[0] > 'z') return false;
  }
  return true;
}

// The machine shapes the kernel steps: DRAs only beside a visit counter
// (a multi-member machine), or one DRA and no TagDfa (a single-member
// stackless machine, whose configuration the kernel steps as a local).
bool KernelCoversShape(StreamMachine* machine) {
  const size_t num_dras = machine->ExportDras().size();
  return num_dras == 0 || machine->ExportedVisitCounts() != nullptr ||
         (num_dras == 1 && machine->ExportTagDfa() == nullptr);
}

}  // namespace

StreamingSelector::StreamingSelector(StreamMachine* machine, Format format,
                                     const Alphabet* alphabet)
    : machine_(machine), format_(format), alphabet_(alphabet) {
  owned_tables_ =
      std::make_unique<ScannerTables>(ScannerTables::Build(format, *alphabet));
  tables_ = owned_tables_.get();
  open_labels_.reserve(kDepthReserve + kLabelBlockSlots);
  const TagDfa* dfa = machine_->ExportTagDfa();
  const std::span<const Dra* const> dras = machine_->ExportDras();
  // The kernel must cover the machine's whole export: its shape, the
  // TagDfa (covered by the automaton's symbols) and every DRA, each
  // restricted (the fused table's open/close layout is only sound then),
  // within the 16-bit state width, and within a table budget — the close
  // table has 3^r columns per (state, symbol) and an unrestricted register
  // count could make it enormous.
  bool eligible = format_ == Format::kCompactMarkup &&
                  (dfa != nullptr || !dras.empty()) &&
                  KernelCoversShape(machine_) && CompactLabels(*alphabet_) &&
                  (dfa == nullptr || alphabet_->size() <= dfa->num_symbols);
  for (const Dra* dra : dras) {
    eligible = eligible && alphabet_->size() == dra->num_symbols &&
               dra->num_states < 65536 && IsRestricted(*dra) &&
               static_cast<int64_t>(dra->num_states) * dra->num_symbols *
                       dra->NumCmpCodes() <=
                   kFusedDraEntryBudget;
  }
  if (eligible) {
    if (dfa != nullptr) {
      owned_fused_ = std::make_unique<ByteTagDfaRunner>(*dfa, *alphabet_);
      fused_ = owned_fused_.get();
    }
    for (const Dra* dra : dras) {
      owned_fused_dras_.push_back(
          std::make_unique<ByteDraRunner>(dra, *alphabet_));
      fused_dras_.push_back(owned_fused_dras_.back().get());
    }
  }
  CheckTableAgreement();
  Reset();
}

StreamingSelector::StreamingSelector(
    StreamMachine* machine, Format format, const Alphabet* alphabet,
    const ScannerTables* tables, const ByteTagDfaRunner* fused,
    std::span<const ByteDraRunner* const> fused_dras)
    : machine_(machine),
      format_(format),
      alphabet_(alphabet),
      tables_(tables),
      fused_(fused),
      fused_dras_(fused_dras.begin(), fused_dras.end()) {
  SST_CHECK(tables_ != nullptr);
  if (fused_ != nullptr || !fused_dras_.empty()) {
    // The kernel steps the machine's exported state, column and
    // configurations in place, so shared fused tables are only sound for a
    // machine that exports exactly these automata (of matching size), or a
    // state column beside a table and nothing else, on compact markup.
    SST_CHECK(format_ == Format::kCompactMarkup);
    const TagDfa* dfa = machine_->ExportTagDfa();
    const bool stack = machine_->ExportedStateColumn() != nullptr;
    SST_CHECK((fused_ == nullptr) == (dfa == nullptr && !stack));
    SST_CHECK(!stack || (dfa == nullptr && fused_dras_.empty()));
    SST_CHECK(dfa == nullptr || dfa->num_states == fused_->num_states());
    const std::span<const Dra* const> dras = machine_->ExportDras();
    SST_CHECK(KernelCoversShape(machine_));
    SST_CHECK(dras.size() == fused_dras_.size());
    for (size_t j = 0; j < dras.size(); ++j) {
      SST_CHECK(fused_dras_[j]->dra() == dras[j]);
    }
  }
  open_labels_.reserve(kDepthReserve + kLabelBlockSlots);
  CheckTableAgreement();
  Reset();
}

void StreamingSelector::CheckTableAgreement() const {
#ifndef NDEBUG
  // The structural index (ClassifyBlock / StructuralIterator) skips
  // exactly the bytes the scanner classifies kWs; the scan loops rely on
  // the two definitions agreeing byte for byte (a structural byte must
  // never be classified kWs, and vice versa).
  for (int c = 0; c < 256; ++c) {
    SST_CHECK((tables_->byte_class[c] == ScannerTables::kWs) ==
              ByteIsAsciiWs(static_cast<unsigned char>(c)));
  }
  // The scanner tables and the fused tables are built independently from
  // the same Alphabet. They must agree on every letter byte: same symbol,
  // open/close polarity matching the case convention.
  if (!has_kernel()) return;
  for (int c = 'a'; c <= 'z'; ++c) {
    const unsigned char open = static_cast<unsigned char>(c);
    const unsigned char close = static_cast<unsigned char>(c - 'a' + 'A');
    SST_CHECK(tables_->byte_class[open] == ScannerTables::kOpen);
    SST_CHECK(tables_->byte_class[close] == ScannerTables::kClose);
    if (fused_ != nullptr) {
      SST_CHECK(fused_->byte_symbol(open) == tables_->byte_symbol[open]);
      SST_CHECK(fused_->byte_symbol(close) == tables_->byte_symbol[close]);
    }
    for (const ByteDraRunner* dra : fused_dras_) {
      SST_CHECK(dra->byte_symbol(open) == tables_->byte_symbol[open]);
      SST_CHECK(dra->byte_symbol(close) == tables_->byte_symbol[close]);
    }
  }
#endif
}

void StreamingSelector::set_limits(const StreamLimits& limits) {
  const char* defect = limits.Validate();
  SST_CHECK_MSG(defect == nullptr, defect);
  limits_ = limits;
  recorder_.set_max_pending(limits.max_pending_matches);
}

void StreamingSelector::RecordMatch(int64_t depth, int64_t start,
                                    int64_t certainty) {
  member_scratch_.clear();
  machine_->AppendSelectedMembers(&member_scratch_);
  for (int32_t member : member_scratch_) {
    recorder_.OnMatch(member, depth, start, certainty);
  }
}

void StreamingSelector::Reset() {
  machine_->Reset();
  open_labels_.clear();
  tag_len_ = 0;
  in_tag_ = false;
  tag_first_ = false;
  tag_closing_ = false;
  have_pending_ = false;
  pending_byte_ = 0;
  pending_offset_ = -1;
  tag_start_ = -1;
  in_skip_ = false;
  skip_depth_ = 0;
  demoted_ = false;
  chunk_base_ = 0;
  bytes_fed_ = 0;
  chunks_fed_ = 0;
  events_ = 0;
  nodes_ = 0;
  matches_ = 0;
  depth_ = 0;
  max_depth_ = 0;
  errors_recovered_ = 0;
  subtrees_skipped_ = 0;
  error_offset_ = -1;
  saw_root_ = false;
  failed_ = false;
  stream_error_ = StreamError{};
  error_.clear();
  recovered_errors_.clear();
  recorder_.Reset();  // keeps the sink and max_pending wiring
}

bool StreamingSelector::SaveCheckpoint(SelectorCheckpoint* out) {
  SST_CHECK(!failed_);
  // Pending spans belong to nodes whose close has not arrived; resuming
  // from a checkpoint would have to re-buffer them, which the recorder
  // cannot express. Verdict-only sinks (the incremental engine's own)
  // never buffer, so this rejects only span-collecting configurations.
  if (recorder_.pending() > 0) return false;
  if (!machine_->SaveConfig(&out->machine_config)) return false;
  out->open_labels = open_labels_;
  out->tag_buf.assign(tag_buf_, tag_len_);
  out->in_tag = in_tag_;
  out->tag_first = tag_first_;
  out->tag_closing = tag_closing_;
  out->have_pending = have_pending_;
  out->pending_byte = pending_byte_;
  out->pending_offset = pending_offset_;
  out->tag_start = tag_start_;
  out->in_skip = in_skip_;
  out->skip_depth = skip_depth_;
  out->demoted = demoted_;
  out->bytes_fed = bytes_fed_;
  out->chunks_fed = chunks_fed_;
  out->events = events_;
  out->nodes = nodes_;
  out->matches = matches_;
  out->depth = depth_;
  out->errors_recovered = errors_recovered_;
  out->subtrees_skipped = subtrees_skipped_;
  out->error_offset = error_offset_;
  out->saw_root = saw_root_;
  out->machine_underflows = machine_->StackUnderflowCloses();
  out->stream_error = stream_error_;
  out->recovered = recovered_errors_;
  return true;
}

bool StreamingSelector::RestoreCheckpoint(const SelectorCheckpoint& cp) {
  if (!machine_->RestoreConfig(cp.machine_config)) return false;
  // Keep the fused kernel's one block of label slots above the restored
  // top: a copy-assignment sized to the depth alone would make the next
  // Feed regrow the vector, doubling its capacity, after a deep resume.
  const size_t label_slots = cp.open_labels.size() + kLabelBlockSlots;
  if (open_labels_.capacity() < label_slots) {
    open_labels_.clear();
    open_labels_.reserve(label_slots);
  }
  open_labels_.assign(cp.open_labels.begin(), cp.open_labels.end());
  SST_CHECK(cp.tag_buf.size() <= kMaxTagBytes);
  std::memcpy(tag_buf_, cp.tag_buf.data(), cp.tag_buf.size());
  tag_len_ = static_cast<uint32_t>(cp.tag_buf.size());
  in_tag_ = cp.in_tag;
  tag_first_ = cp.tag_first;
  tag_closing_ = cp.tag_closing;
  have_pending_ = cp.have_pending;
  pending_byte_ = cp.pending_byte;
  pending_offset_ = cp.pending_offset;
  tag_start_ = cp.tag_start;
  in_skip_ = cp.in_skip;
  skip_depth_ = cp.skip_depth;
  demoted_ = cp.demoted;
  chunk_base_ = cp.bytes_fed;
  bytes_fed_ = cp.bytes_fed;
  chunks_fed_ = cp.chunks_fed;
  events_ = cp.events;
  nodes_ = cp.nodes;
  matches_ = cp.matches;
  depth_ = cp.depth;
  max_depth_ = cp.depth;  // segment-peak accounting: TakeSegmentPeakDepth
  errors_recovered_ = cp.errors_recovered;
  subtrees_skipped_ = cp.subtrees_skipped;
  error_offset_ = cp.error_offset;
  saw_root_ = cp.saw_root;
  failed_ = false;
  stream_error_ = cp.stream_error;
  error_ = stream_error_.ok() ? std::string() : stream_error_.Render(alphabet_);
  recovered_errors_ = cp.recovered;
  recorder_.Reset();  // keeps the sink and max_pending wiring
  return true;
}

bool StreamingSelector::CheckpointConverged(const SelectorCheckpoint& cp,
                                            int64_t delta) const {
  if (failed_) return false;
  if (depth_ != cp.depth || saw_root_ != cp.saw_root) return false;
  if (in_skip_ != cp.in_skip || skip_depth_ != cp.skip_depth ||
      demoted_ != cp.demoted) {
    return false;
  }
  if (in_tag_ != cp.in_tag || tag_first_ != cp.tag_first ||
      tag_closing_ != cp.tag_closing || have_pending_ != cp.have_pending ||
      pending_byte_ != cp.pending_byte) {
    return false;
  }
  // Absolute lexer offsets participate only while live (a completed token
  // leaves them stale), and must agree modulo the edit's byte shift.
  if (have_pending_ && pending_offset_ != cp.pending_offset + delta) {
    return false;
  }
  if (in_tag_ && tag_start_ != cp.tag_start + delta) return false;
  if (tag_len_ != cp.tag_buf.size() ||
      std::memcmp(tag_buf_, cp.tag_buf.data(), tag_len_) != 0) {
    return false;
  }
  if (open_labels_ != cp.open_labels) return false;
  return machine_->ConfigEqualsCurrent(cp.machine_config);
}

int64_t StreamingSelector::TakeSegmentPeakDepth() {
  int64_t peak = max_depth_;
  max_depth_ = depth_;
  return peak;
}

StreamError StreamingSelector::MakeError(StreamErrorCode code, int64_t offset,
                                         Symbol expected, Symbol got) const {
  StreamError err;
  err.code = code;
  err.offset = offset;
  err.depth = depth_;
  err.expected = expected;
  err.got = got;
  return err;
}

bool StreamingSelector::FailAt(const StreamError& err) {
  failed_ = true;
  if (error_offset_ < 0) error_offset_ = err.offset;
  if (stream_error_.ok()) {
    stream_error_ = err;
    error_ = err.Render(alphabet_);
  }
  // bytes_fed reports the consumed prefix on failure: rewind past the
  // in-flight chunk tail so the counter is chunk-invariant.
  if (err.offset >= 0 && err.offset < bytes_fed_) bytes_fed_ = err.offset;
  // Spans whose close will never arrive are reported truncated, not
  // dropped: every sink sees the same events before and after the error.
  if (recorder_.active()) recorder_.FlushTruncated();
  return false;
}

bool StreamingSelector::Recover(const StreamError& err, ErrorToken token,
                                int64_t excise_from) {
  // Resource exhaustion is never recoverable (the guard exists to stop the
  // stream), and resynchronization needs an enclosing open element to
  // truncate — at depth 0 there is nothing to resync on.
  const bool hard_limit = err.code == StreamErrorCode::kByteLimitExceeded ||
                          err.code == StreamErrorCode::kEventLimitExceeded;
  if (policy_ != RecoveryPolicy::kSkipMalformedSubtree || depth_ <= 0 ||
      hard_limit || errors_recovered_ >= limits_.max_recovered_errors) {
    return FailAt(err);
  }
  if (error_offset_ < 0) error_offset_ = err.offset;
  if (stream_error_.ok()) {
    stream_error_ = err;
    error_ = err.Render(alphabet_);
  }
  ++errors_recovered_;
  ++subtrees_skipped_;
  recovered_errors_.push_back(RecoveredError{err, excise_from, -1});
  have_pending_ = false;  // a pending term label is part of the damage
  in_skip_ = true;
  skip_depth_ = 0;
  switch (token) {
    case ErrorToken::kJunk:
      break;
    case ErrorToken::kOpenLike:
      skip_depth_ = 1;
      break;
    case ErrorToken::kCloseLike:
      // The offending close token is itself the resynchronization point.
      return ResyncClose(err.offset + 1);
  }
  return true;
}

bool StreamingSelector::ResyncClose(int64_t consumed_end) {
  in_skip_ = false;
  skip_depth_ = 0;
  if (!recovered_errors_.empty() &&
      recovered_errors_.back().resume_offset < 0) {
    recovered_errors_.back().resume_offset = consumed_end;
    recovered_errors_.back().closed_label = open_labels_.back();
  }
  return EmitSynthClose(consumed_end - 1, consumed_end);
}

bool StreamingSelector::EmitSynthClose(int64_t offset, int64_t span_end) {
  if (events_ >= limits_.max_events) {
    return FailAt(MakeError(StreamErrorCode::kEventLimitExceeded, offset));
  }
  Symbol symbol = open_labels_.back();
  open_labels_.pop_back();
  if (recorder_.active()) recorder_.OnClose(depth_, span_end);
  --depth_;
  machine_->OnClose(format_ == Format::kCompactTerm ? -1 : symbol);
  ++events_;
  return true;
}

bool StreamingSelector::EmitOpen(Symbol symbol, int64_t offset,
                                 int64_t excise_from) {
  if (depth_ == 0 && saw_root_) {
    return Recover(
        MakeError(StreamErrorCode::kTrailingContent, offset, -1, symbol),
        ErrorToken::kOpenLike, excise_from);
  }
  if (depth_ >= limits_.max_depth) {
    return Recover(
        MakeError(StreamErrorCode::kDepthLimitExceeded, offset, -1, symbol),
        ErrorToken::kOpenLike, excise_from);
  }
  if (events_ >= limits_.max_events) {
    return Recover(MakeError(StreamErrorCode::kEventLimitExceeded, offset),
                   ErrorToken::kOpenLike, excise_from);
  }
  saw_root_ = true;
  ++depth_;
  if (depth_ > max_depth_) max_depth_ = depth_;
  open_labels_.push_back(symbol);
  machine_->OnOpen(symbol);
  ++events_;
  if (machine_->InAcceptingState()) {
    ++matches_;
    if (match_callback_) match_callback_(nodes_, symbol);
    // Span start = first byte of the opening token (excise_from: the '<',
    // the term label byte); certainty = just past the token — the earliest
    // offset at which pre-selection is decided.
    if (recorder_.active()) RecordMatch(depth_, excise_from, offset + 1);
  }
  ++nodes_;
  return true;
}

bool StreamingSelector::EmitClose(Symbol symbol, int64_t offset,
                                  int64_t excise_from) {
  if (open_labels_.empty()) {
    return Recover(
        MakeError(StreamErrorCode::kUnbalancedClose, offset, -1, symbol),
        ErrorToken::kCloseLike, excise_from);
  }
  if (symbol >= 0 && open_labels_.back() != symbol) {
    return Recover(MakeError(StreamErrorCode::kLabelMismatch, offset,
                             open_labels_.back(), symbol),
                   ErrorToken::kCloseLike, excise_from);
  }
  if (events_ >= limits_.max_events) {
    return Recover(MakeError(StreamErrorCode::kEventLimitExceeded, offset),
                   ErrorToken::kCloseLike, excise_from);
  }
  open_labels_.pop_back();
  if (recorder_.active()) recorder_.OnClose(depth_, offset + 1);
  --depth_;
  machine_->OnClose(symbol);
  ++events_;
  return true;
}

bool StreamingSelector::FeedMarkup(std::string_view chunk, size_t start) {
  const uint8_t* cls = tables_->byte_class.data();
  const Symbol* sym = tables_->byte_symbol.data();
  // Shared error exit: Recover() decides between absorbing the error and
  // failing fatally.
  auto recover = [&](const StreamError& err, ErrorToken token) {
    return Recover(err, token, err.offset);
  };
  // Structural-index scan: the stage-1 SIMD classification yields only
  // structural offsets, so the byte-class switch never sees whitespace
  // (CheckTableAgreement asserts the kWs class and the index classifier
  // agree byte for byte). The kernel hands over at a structural byte's
  // own chunk index, so this scan resumes on exactly the byte the
  // per-byte scan would have stopped at.
  StructuralIterator structural(chunk.data() + start, chunk.size() - start);
  for (size_t i = start + structural.Next(); i < chunk.size();
       i = start + structural.Next()) {
    unsigned char c = static_cast<unsigned char>(chunk[i]);
    if (in_skip_) {
      // Framing-only scan of the skipped region: O(1) state, no machine
      // events, until the close that ends the innermost open element.
      switch (cls[c]) {
        case ScannerTables::kOpen:
          ++skip_depth_;
          break;
        case ScannerTables::kClose:
          if (skip_depth_ > 0) {
            --skip_depth_;
          } else if (!ResyncClose(chunk_base_ + static_cast<int64_t>(i) +
                                  1)) {
            return false;
          }
          break;
        default:
          break;  // junk inside a region that is already being excised
      }
      continue;
    }
    switch (cls[c]) {
      case ScannerTables::kOpen: {
        Symbol s = sym[c];
        if (s < 0) {
          if (!recover(
                  MakeError(StreamErrorCode::kUnknownLabel, chunk_base_ + i),
                  ErrorToken::kOpenLike)) {
            return false;
          }
          break;
        }
        if (depth_ == 0 && saw_root_) {
          if (!recover(MakeError(StreamErrorCode::kTrailingContent,
                                 chunk_base_ + i, -1, s),
                       ErrorToken::kOpenLike)) {
            return false;
          }
          break;
        }
        if (depth_ >= limits_.max_depth) {
          if (!recover(MakeError(StreamErrorCode::kDepthLimitExceeded,
                                 chunk_base_ + i, -1, s),
                       ErrorToken::kOpenLike)) {
            return false;
          }
          break;
        }
        if (events_ >= limits_.max_events) {
          if (!recover(MakeError(StreamErrorCode::kEventLimitExceeded,
                                 chunk_base_ + i),
                       ErrorToken::kOpenLike)) {
            return false;
          }
          break;
        }
        saw_root_ = true;
        ++depth_;
        if (depth_ > max_depth_) max_depth_ = depth_;
        open_labels_.push_back(s);
        machine_->OnOpen(s);
        ++events_;
        if (machine_->InAcceptingState()) {
          ++matches_;
          if (match_callback_) match_callback_(nodes_, s);
          // Compact-markup tokens are one byte: the span starts at the
          // letter and the verdict is certain at the very next byte.
          if (recorder_.active()) {
            RecordMatch(depth_, chunk_base_ + static_cast<int64_t>(i),
                        chunk_base_ + static_cast<int64_t>(i) + 1);
          }
        }
        ++nodes_;
        break;
      }
      case ScannerTables::kClose: {
        Symbol s = sym[c];
        if (s < 0) {
          if (!recover(
                  MakeError(StreamErrorCode::kUnknownLabel, chunk_base_ + i),
                  ErrorToken::kCloseLike)) {
            return false;
          }
          break;
        }
        if (open_labels_.empty()) {
          if (!recover(MakeError(StreamErrorCode::kUnbalancedClose,
                                 chunk_base_ + i, -1, s),
                       ErrorToken::kCloseLike)) {
            return false;
          }
          break;
        }
        if (open_labels_.back() != s) {
          if (!recover(MakeError(StreamErrorCode::kLabelMismatch,
                                 chunk_base_ + i, open_labels_.back(), s),
                       ErrorToken::kCloseLike)) {
            return false;
          }
          break;
        }
        if (events_ >= limits_.max_events) {
          if (!recover(MakeError(StreamErrorCode::kEventLimitExceeded,
                                 chunk_base_ + i),
                       ErrorToken::kCloseLike)) {
            return false;
          }
          break;
        }
        open_labels_.pop_back();
        if (recorder_.active() && recorder_.pending() > 0) {
          RecordSpanClose(recorder_, depth_,
                          chunk_base_ + static_cast<int64_t>(i) + 1);
        }
        --depth_;
        machine_->OnClose(s);
        ++events_;
        break;
      }
      default: {
        if (!recover(MakeError(StreamErrorCode::kBadByte, chunk_base_ + i),
                     ErrorToken::kJunk)) {
          return false;
        }
        break;
      }
    }
  }
  return true;
}

void StreamingSelector::RecordFusedMatch(bool product, int state,
                                         int64_t depth, int64_t start) {
  // Compact-markup tokens are one byte: the span starts at the letter and
  // the verdict is certain at the very next byte. Multi-member machines
  // fan out from the table state just reached (set first: an O(1) store;
  // the visit counts fold once per Feed) and from their DRA
  // configurations, which the kernel steps in place; single-member
  // machines always answer member 0.
  if (product) {
    if (fused_ != nullptr) machine_->SyncExportedState(state);
    RecordMatch(depth, start, start + 1);
  } else {
    recorder_.OnMatch(0, depth, start, start + 1);
  }
}

void StreamingSelector::FlushFusedHits(const size_t* indices, size_t count) {
  MatchSink* sink = recorder_.verdict_only_sink();
  MatchEvent event;
  for (size_t k = 0; k < count; ++k) {
    event.start_offset = chunk_base_ + static_cast<int64_t>(indices[k]);
    event.certainty_offset = event.start_offset + 1;
    sink->OnMatch(event);
    recorder_.CountEmitted();
  }
}

template <typename T, bool kDras, bool kStack, bool kProduct,
          StreamingSelector::FusedEmit kEmit>
bool StreamingSelector::ScanFused(std::string_view chunk, const T* table,
                                  int64_t* visits) {
  constexpr bool kTable = !std::is_void_v<T>;
  static_assert(kTable || kDras);
  static_assert(!kStack || (kTable && !kDras && !kProduct));
  // The compact-markup byte_symbol table is -1 on every byte that is not
  // a known letter, so `s < 0` alone rejects junk and unknown labels, and
  // the tag kind of a letter is its bit 5 (set on 'a'..'z', clear on
  // 'A'..'Z'): the framing never branches on the kind.
  const Symbol* sym = tables_->byte_symbol.data();
  const uint8_t* accepting = kTable ? fused_->accepting() : nullptr;
  const uint64_t max_depth_limit = static_cast<uint64_t>(limits_.max_depth);
  const char* data = chunk.data();
  const size_t n = chunk.size();
  // The label stack needs depth + kLabelBlockSlots slots per block,
  // checked once per block (so it grows with depth, never with the
  // chunk). open_labels_ holds exactly depth_ labels between Feed calls.
  constexpr int64_t kBlockSlots = static_cast<int64_t>(kLabelBlockSlots);
  // kVerdicts: chunk indices of the last blocks' matches, flushed in
  // document order before the buffer could overflow and before returning.
  // Product members need the state of every hit, so products run kFull.
  static_assert(!kProduct || kEmit != FusedEmit::kVerdicts);
  constexpr size_t kHitCap = kEmit == FusedEmit::kVerdicts ? 256 : 1;
  size_t hit_index[kHitCap];
  size_t hits = 0;
  size_t state = kTable ? static_cast<size_t>(machine_->ExportedState()) : 0;
  // The DRA side-cars of a multi-member machine (mixed batch) step their
  // configurations in place in the machine, with their open-visit slots
  // after the table's. A single-member machine exports one DRA and no
  // table (a stackless Session; the constructors hold machines to that):
  // its configuration is stepped as a local copy, which the label-stack
  // stores cannot alias, so it stays out of memory round trips, and is
  // stored back on exit (EXPERIMENTS E22: +19% over stepping it in place).
  constexpr bool kOneDra = kDras && !kProduct;
  static_assert(!(kOneDra && kTable));
  const ByteDraRunner* const* dras = fused_dras_.data();
  const size_t num_dras = kDras ? fused_dras_.size() : 0;
  DraConfig* configs = kDras ? machine_->ExportedDraConfigs() : nullptr;
  const ByteDraRunner* one_dra = kOneDra ? dras[0] : nullptr;
  DraConfig one = kOneDra ? configs[0] : DraConfig{};
  int64_t* dra_visits =
      kProduct && kDras ? visits + (kTable ? fused_->num_states() : 0)
                        : nullptr;
  // The pushdown tier's state column (the paper's §1 baseline), stepped
  // like the label column: column[d] holds the state the open at depth d
  // pushed. It needs one more slot per block than the labels, for the
  // unconditional read of the slot just above the top.
  StateColumn* stack = kStack ? machine_->ExportedStateColumn() : nullptr;
  int* column = kStack ? stack->states.data() : nullptr;
  // Opens are (events + depth) / 2 from any starting point, so nodes are
  // not counted per byte; and the stream has seen its root iff it has
  // seen an event, so trailing content needs no flag of its own.
  const int64_t nodes_base = nodes_ - (events_ + depth_) / 2;
  int64_t depth = depth_;
  int64_t max_depth = max_depth_;
  int64_t events = events_;
  int64_t matches = matches_;
  Symbol* labels = open_labels_.data();
  // Steps one structural byte; true on any framing or limit violation,
  // with nothing consumed. Every per-byte check of FeedMarkup is folded
  // into one flag so the only validation branch is the never-taken exit:
  // a bad byte or an unknown label (s < 0), a close at depth 0 or an open
  // past the depth limit (next_depth outside [0, max_depth]), any byte
  // after the root closed (trailing content, or an unbalanced close), and
  // a close that does not match the top label. (The event limit is
  // applied per block, below.)
  auto step = [&](size_t i) -> bool {
    const unsigned char c = static_cast<unsigned char>(data[i]);
    const Symbol s = sym[c];
    const int64_t open = (c >> 5) & 1;
    const int64_t close = open ^ 1;
    const int64_t next_depth = depth + open - close;
    // At depth 0 this reads slot 0 (a stale label); a close there fails
    // the depth test instead.
    const Symbol top = labels[depth - (depth != 0)];
    const bool bad = (s < 0) |
                     (static_cast<uint64_t>(next_depth) > max_depth_limit) |
                     ((depth == 0) & (events != 0)) |
                     (close & (top != s));
    if (SST_UNLIKELY(bad)) return true;
    labels[depth] = s;
    int64_t accept = 0;
    if constexpr (kStack) {
      // Push and pop without a branch: the state is stored at the
      // element's depth on every byte (a close's store lands above the
      // new top, like its label's), an open steps the table, and a close
      // restores the state of the level it returns to, in one select.
      column[depth] = static_cast<int>(state);
      const size_t restored = static_cast<size_t>(column[next_depth]);
      const size_t stepped = table[state * 256 + c];
      state = open ? stepped : restored;
      accept = accepting[state];
    } else if constexpr (kTable) {
      state = table[state * 256 + c];
      accept = accepting[state];
      if constexpr (kProduct) visits[state] += open & accept;
    }
    // The DRA step is the kernel's one branch on the tag kind: a close
    // resolves the comparison code an open never needs, and the kind comes
    // in runs (spines open and close in sequence), so the branch predicts
    // well and beats the branch-free form, which computes the code on
    // every tag.
    if constexpr (kOneDra) {
      if (open) {
        one_dra->StepOpenTo(&one, s, next_depth);
        accept = one_dra->IsAccepting(one.state);
      } else {
        one_dra->StepCloseTo(&one, s, next_depth);
      }
    } else if constexpr (kDras) {
      if (open) {
        for (size_t j = 0; j < num_dras; ++j) {
          dras[j]->StepOpenTo(&configs[j], s, next_depth);
          const int64_t hit = dras[j]->IsAccepting(configs[j].state);
          dra_visits[j] += hit;
          accept |= hit;
        }
      } else {
        for (size_t j = 0; j < num_dras; ++j) {
          dras[j]->StepCloseTo(&configs[j], s, next_depth);
        }
      }
    }
    const int64_t selected = open & accept;
    if constexpr (kEmit == FusedEmit::kVerdicts) {
      hit_index[hits] = i;
      hits += static_cast<size_t>(selected);
    } else if constexpr (kEmit == FusedEmit::kFull) {
      const int64_t offset = chunk_base_ + static_cast<int64_t>(i);
      if (selected) {
        if (match_callback_) {
          match_callback_(nodes_base + (events + depth) / 2, s);
        }
        if (recorder_.active()) {
          RecordFusedMatch(kProduct, static_cast<int>(state), next_depth,
                           offset);
        }
      }
      // Taken only by closes that complete a span, so the branch is as
      // predictable as the matches themselves where `close` alone is not.
      if (close & (recorder_.innermost_pending_depth() >= depth)) {
        RecordSpanClose(recorder_, depth, offset + 1);
      }
    }
    depth = next_depth;
    max_depth = depth > max_depth ? depth : max_depth;
    ++events;
    matches += selected;
    return false;
  };
  size_t stop = n;
  for (size_t base = 0; base < n && stop == n; base += 64) {
    if (static_cast<int64_t>(open_labels_.size()) < depth + kBlockSlots) {
      open_labels_.resize(static_cast<size_t>(depth + kBlockSlots));
      labels = open_labels_.data();
    }
    if constexpr (kStack) {
      const int64_t slots = depth + kBlockSlots + 1;
      if (static_cast<int64_t>(stack->states.size()) < slots) {
        stack->states.resize(static_cast<size_t>(slots));
        column = stack->states.data();
      }
    }
    if constexpr (kEmit == FusedEmit::kVerdicts) {
      if (hits > kHitCap - 64) {
        FlushFusedHits(hit_index, hits);
        hits = 0;
      }
    }
    const size_t len = n - base < 64 ? n - base : 64;
    uint64_t mask = ClassifyBlock(data + base, len);
    // Every structural byte the kernel consumes is one event, so the
    // event limit cuts the block's mask before its first over-limit byte,
    // which then goes to the generic tier like any other offending byte.
    size_t limit_stop = n;
    if (static_cast<int64_t>(std::popcount(mask)) >
        limits_.max_events - events) {
      uint64_t over = mask;
      for (int64_t k = limits_.max_events - events; k > 0; --k) {
        over &= over - 1;
      }
      limit_stop = base + static_cast<size_t>(std::countr_zero(over));
      mask &= ~over;
    }
    if (mask == ~uint64_t{0}) {
      for (size_t k = 0; k < 64; ++k) {
        if (step(base + k)) {
          stop = base + k;
          break;
        }
      }
    } else {
      for (; mask != 0; mask &= mask - 1) {
        const size_t i = base + static_cast<size_t>(std::countr_zero(mask));
        if (step(i)) {
          stop = i;
          break;
        }
      }
    }
    if (stop == n) stop = limit_stop;
  }
  if constexpr (kEmit == FusedEmit::kVerdicts) {
    FlushFusedHits(hit_index, hits);
  }
  open_labels_.resize(static_cast<size_t>(depth));
  nodes_ = nodes_base + (events + depth) / 2;
  saw_root_ = saw_root_ || events != 0;
  depth_ = depth;
  max_depth_ = max_depth;
  events_ = events;
  matches_ = matches;
  // Sync the machine: the table state, the state column and its peak, the
  // one depth every DRA shares, and the member counts.
  if constexpr (kTable) machine_->SyncExportedState(static_cast<int>(state));
  if constexpr (kStack) {
    stack->states.resize(static_cast<size_t>(depth));
    stack->peak = max_depth > stack->peak ? max_depth : stack->peak;
  }
  if constexpr (kOneDra) configs[0] = one;
  for (size_t j = 0; j < num_dras; ++j) configs[j].depth = depth;
  if constexpr (kProduct) machine_->FoldExportedVisits();
  if (stop == n) return true;
  // The offending byte goes to the generic tier, which re-detects the
  // same error at the same offset. Under kSkipMalformedSubtree that
  // recovery synthesizes machine-level closes the kernel cannot express,
  // so the stream drops to the generic tier for the rest of the document
  // (the degradation ladder); otherwise the error is fatal.
  if (policy_ == RecoveryPolicy::kSkipMalformedSubtree) demoted_ = true;
  return FeedMarkup(chunk, stop);
}

bool StreamingSelector::FeedFused(std::string_view chunk) {
  // Picks the kernel instantiation: table width (or no table), DRA
  // side-cars or a state column, product (the machine exports a visit
  // counter), and emission policy.
  using E = FusedEmit;
  int64_t* visits = machine_->ExportedVisitCounts();
  E emit = E::kNone;
  if (match_callback_ ||
      (recorder_.active() &&
       (visits != nullptr || recorder_.verdict_only_sink() == nullptr))) {
    emit = E::kFull;
  } else if (recorder_.active()) {
    emit = E::kVerdicts;
  }
  auto scan = [&]<typename T, bool kDras, bool kStack>(
                  const T* t, std::bool_constant<kDras>,
                  std::bool_constant<kStack>) {
    auto product = [&] {
      return emit == E::kFull
                 ? ScanFused<T, kDras, false, true, E::kFull>(chunk, t, visits)
                 : ScanFused<T, kDras, false, true, E::kNone>(chunk, t,
                                                              visits);
    };
    // A table beside DRAs is a multi-member machine's (mixed batch).
    if constexpr (kDras && !std::is_void_v<T>) {
      return product();
    } else {
      if constexpr (!kStack) {
        if (visits != nullptr) return product();
      }
      switch (emit) {
        case E::kNone:
          return ScanFused<T, kDras, kStack, false, E::kNone>(chunk, t,
                                                              nullptr);
        case E::kVerdicts:
          return ScanFused<T, kDras, kStack, false, E::kVerdicts>(chunk, t,
                                                                  nullptr);
        case E::kFull:
          break;
      }
      return ScanFused<T, kDras, kStack, false, E::kFull>(chunk, t, nullptr);
    }
  };
  using Yes = std::true_type;
  using No = std::false_type;
  if (fused_ == nullptr) {
    return scan(static_cast<const void*>(nullptr), Yes{}, No{});
  }
  const bool dras = !fused_dras_.empty();
  const bool stack = machine_->ExportedStateColumn() != nullptr;
  auto with_table = [&](const auto* t) {
    if (dras) return scan(t, Yes{}, No{});
    return stack ? scan(t, No{}, Yes{}) : scan(t, No{}, No{});
  };
  return fused_->uses_compact_table() ? with_table(fused_->table16())
                                      : with_table(fused_->table32());
}

bool StreamingSelector::FeedTerm(std::string_view chunk) {
  const uint8_t* cls = tables_->byte_class.data();
  const Symbol* sym = tables_->byte_symbol.data();
  // Structural-index scan (term delimiters and labels are all structural
  // bytes); whitespace between tokens never reaches the token logic. The
  // pending-label reprocess trick keeps its semantics: instead of --i, the
  // loop simply does not advance the iterator for that round.
  StructuralIterator structural(chunk.data(), chunk.size());
  size_t i = structural.Next();
  while (i < chunk.size()) {
    unsigned char c = static_cast<unsigned char>(chunk[i]);
    if (in_skip_) {
      if (c == '{') {
        ++skip_depth_;
      } else if (cls[c] == ScannerTables::kCloseBrace) {
        if (skip_depth_ > 0) {
          --skip_depth_;
        } else if (!ResyncClose(chunk_base_ + static_cast<int64_t>(i) + 1)) {
          return false;
        }
      }
      i = structural.Next();
      continue;
    }
    if (have_pending_) {
      if (c != '{') {
        if (!Recover(MakeError(StreamErrorCode::kBadByte, chunk_base_ + i),
                     ErrorToken::kJunk, pending_offset_)) {
          return false;
        }
        // Reprocess this byte under skip framing ('}' must resync): keep
        // i where it is for the next round.
        continue;
      }
      have_pending_ = false;
      Symbol s = sym[pending_byte_];
      if (s < 0) {
        if (!Recover(
                MakeError(StreamErrorCode::kUnknownLabel, chunk_base_ + i),
                ErrorToken::kOpenLike, pending_offset_)) {
          return false;
        }
        i = structural.Next();
        continue;
      }
      if (!EmitOpen(s, chunk_base_ + i, pending_offset_)) return false;
      i = structural.Next();
      continue;
    }
    switch (cls[c]) {
      case ScannerTables::kCloseBrace:
        if (!EmitClose(-1, chunk_base_ + i, chunk_base_ + i)) return false;
        break;
      case ScannerTables::kLabel:
        pending_byte_ = c;
        pending_offset_ = chunk_base_ + static_cast<int64_t>(i);
        have_pending_ = true;
        break;
      default:
        // A stray '{' still opens a frame (its matching '}' will close
        // it); any other byte is plain junk.
        if (!Recover(MakeError(StreamErrorCode::kBadByte, chunk_base_ + i),
                     c == '{' ? ErrorToken::kOpenLike : ErrorToken::kJunk,
                     chunk_base_ + i)) {
          return false;
        }
        break;
    }
    i = structural.Next();
  }
  return true;
}

bool StreamingSelector::FeedXml(std::string_view chunk) {
  const uint8_t* cls = tables_->byte_class.data();
  const size_t n = chunk.size();
  size_t i = 0;
  while (i < n) {
    unsigned char c = static_cast<unsigned char>(chunk[i]);
    if (!in_tag_) {
      if (in_skip_) {
        // Inside the excised region only tag framing matters: jump to the
        // next '<' in one vectorized sweep.
        const void* lt = std::memchr(chunk.data() + i, '<', n - i);
        if (lt == nullptr) return true;
        i = static_cast<size_t>(static_cast<const char*>(lt) - chunk.data());
        in_tag_ = true;
        tag_first_ = true;
        tag_closing_ = false;
        tag_len_ = 0;
        tag_start_ = chunk_base_ + static_cast<int64_t>(i);
        ++i;
        continue;
      }
      if (cls[c] == ScannerTables::kWs) {
        // Between tags only whitespace is legal before the next '<';
        // bulk-skip the run (SIMD/SWAR, base/byte_scan.h).
        i += 1 + FindStructural(chunk.data() + i + 1, n - i - 1);
        continue;
      }
      if (c != '<') {
        if (!Recover(MakeError(StreamErrorCode::kBadByte, chunk_base_ + i),
                     ErrorToken::kJunk, chunk_base_ + i)) {
          return false;
        }
        ++i;
        continue;
      }
      in_tag_ = true;
      tag_first_ = true;
      tag_closing_ = false;
      tag_len_ = 0;
      tag_start_ = chunk_base_ + static_cast<int64_t>(i);
      ++i;
      continue;
    }
    if (tag_first_ && c == '/') {
      tag_closing_ = true;
      tag_first_ = false;
      ++i;
      continue;
    }
    // Inside a tag: find the closing '>' in one vectorized sweep (libc
    // memchr) and copy the whole name run instead of byte-at-a-time.
    const void* gt = std::memchr(chunk.data() + i, '>', n - i);
    size_t name_end =
        gt != nullptr
            ? static_cast<size_t>(static_cast<const char*>(gt) - chunk.data())
            : n;
    if (size_t name_len = name_end - i; name_len > 0) {
      tag_first_ = false;
      if (in_skip_) {
        // Only "name was nonempty" matters for skip framing; don't buffer.
        tag_len_ = 1;
        i = name_end;
      } else if (tag_len_ + name_len > kMaxTagBytes) {
        // Error offset = the first byte that no longer fits, matching the
        // byte-at-a-time scanner.
        if (!Recover(
                MakeError(StreamErrorCode::kTagTooLong,
                          chunk_base_ + i + (kMaxTagBytes - tag_len_)),
                ErrorToken::kJunk, tag_start_)) {
          return false;
        }
        // Recovered: the oversized tag is junk inside the skipped region;
        // keep consuming its body without buffering.
        tag_len_ = 1;
        i = name_end;
      } else {
        std::memcpy(tag_buf_ + tag_len_, chunk.data() + i, name_len);
        tag_len_ += static_cast<uint32_t>(name_len);
        i = name_end;
      }
    }
    if (gt == nullptr) break;  // partial tag; the next chunk continues it
    in_tag_ = false;
    ++i;  // past the '>'
    if (in_skip_) {
      const bool nonempty = tag_len_ != 0;
      tag_len_ = 0;
      if (!nonempty) continue;  // "<>" is junk even while skipping
      if (tag_closing_) {
        if (skip_depth_ > 0) {
          --skip_depth_;
        } else if (!ResyncClose(chunk_base_ +
                                static_cast<int64_t>(name_end) + 1)) {
          return false;
        }
      } else {
        ++skip_depth_;
      }
      continue;
    }
    if (tag_len_ == 0) {
      if (!Recover(MakeError(StreamErrorCode::kBadByte,
                             chunk_base_ + static_cast<int64_t>(name_end)),
                   ErrorToken::kJunk, tag_start_)) {
        return false;
      }
      continue;
    }
    Symbol s = tag_len_ == 1
                   ? tables_->byte_symbol[static_cast<unsigned char>(tag_buf_[0])]
                   : alphabet_->Find(std::string_view(tag_buf_, tag_len_));
    const bool closing = tag_closing_;
    tag_len_ = 0;
    if (s < 0) {
      if (!Recover(MakeError(StreamErrorCode::kUnknownLabel,
                             chunk_base_ + static_cast<int64_t>(name_end)),
                   closing ? ErrorToken::kCloseLike : ErrorToken::kOpenLike,
                   tag_start_)) {
        return false;
      }
      continue;
    }
    int64_t offset = chunk_base_ + static_cast<int64_t>(name_end);
    bool ok = closing ? EmitClose(s, offset, tag_start_)
                      : EmitOpen(s, offset, tag_start_);
    if (!ok) return false;
  }
  return true;
}

bool StreamingSelector::Feed(std::string_view chunk) {
  if (failed_) return false;
  // Byte guard: split the chunk at the document-byte limit so the error
  // fires at offset max_document_bytes under any split schedule — checked
  // once per Feed, never inside the scan loops.
  bool over_byte_limit = false;
  if (static_cast<int64_t>(chunk.size()) >
      limits_.max_document_bytes - bytes_fed_) {
    over_byte_limit = true;
    chunk = chunk.substr(
        0, static_cast<size_t>(limits_.max_document_bytes - bytes_fed_));
  }
  chunk_base_ = bytes_fed_;
  bytes_fed_ += static_cast<int64_t>(chunk.size());
  ++chunks_fed_;
  bool ok = true;
  switch (format_) {
    case Format::kCompactMarkup:
      ok = has_kernel() && !demoted_ ? FeedFused(chunk)
                                     : FeedMarkup(chunk, 0);
      break;
    case Format::kCompactTerm:
      ok = FeedTerm(chunk);
      break;
    case Format::kXmlLite:
      ok = FeedXml(chunk);
      break;
  }
  if (!ok) return false;
  if (over_byte_limit) {
    return FailAt(MakeError(StreamErrorCode::kByteLimitExceeded,
                            limits_.max_document_bytes));
  }
  return true;
}

bool StreamingSelector::Finish() {
  if (failed_) return false;
  const bool incomplete =
      in_tag_ || have_pending_ || in_skip_ || depth_ != 0 || !saw_root_;
  if (!incomplete) return true;
  if (policy_ == RecoveryPolicy::kAutoClose && saw_root_ && depth_ > 0) {
    // Tolerated truncation: discard a partial tag in the lexer buffer and
    // synthesize the missing closes for every still-open element.
    StreamError err =
        MakeError(StreamErrorCode::kTruncatedDocument, bytes_fed_);
    if (error_offset_ < 0) error_offset_ = err.offset;
    if (stream_error_.ok()) {
      stream_error_ = err;
      error_ = err.Render(alphabet_);
    }
    ++errors_recovered_;
    recovered_errors_.push_back(RecoveredError{err, bytes_fed_, bytes_fed_});
    in_tag_ = false;
    tag_first_ = false;
    tag_closing_ = false;
    tag_len_ = 0;
    have_pending_ = false;
    while (depth_ > 0) {
      // Pending match spans complete at the EOF offset: the synthesized
      // close is where the sanitized document ends them.
      if (!EmitSynthClose(bytes_fed_, bytes_fed_)) return false;
    }
    return true;
  }
  return FailAt(MakeError(StreamErrorCode::kTruncatedDocument, bytes_fed_));
}

}  // namespace sst
