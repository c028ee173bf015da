#include "dra/byte_runner.h"

#include <array>

#include "base/byte_scan.h"
#include "base/check.h"

namespace sst {

ByteTagDfaRunner::ByteTagDfaRunner(const TagDfa& dfa)
    : num_states_(dfa.num_states), initial_(dfa.initial) {
  SST_CHECK_MSG(dfa.num_symbols <= 26, "compact markup allows 26 symbols");
  std::array<Symbol, 256> byte_symbol;
  byte_symbol.fill(-1);
  for (Symbol a = 0; a < dfa.num_symbols; ++a) byte_symbol['a' + a] = a;
  BuildTable(dfa, byte_symbol.data());
}

ByteTagDfaRunner::ByteTagDfaRunner(const TagDfa& dfa, const Alphabet& alphabet)
    : num_states_(dfa.num_states), initial_(dfa.initial) {
  std::array<Symbol, 256> byte_symbol = alphabet.ByteSymbolTable();
  for (Symbol a = 0; a < dfa.num_symbols; ++a) {
    const std::string& label = alphabet.LabelOf(a);
    SST_CHECK_MSG(
        label.size() == 1 && label[0] >= 'a' && label[0] <= 'z',
        "compact markup requires single lowercase-letter labels");
  }
  // Keep only lowercase-letter entries: other single-byte labels (digits,
  // punctuation) have no uppercase closing form in compact markup.
  for (int byte = 0; byte < 256; ++byte) {
    if (byte < 'a' || byte > 'z') byte_symbol[byte] = -1;
  }
  BuildTable(dfa, byte_symbol.data());
}

template <typename T>
void ByteTagDfaRunner::FillTable(std::vector<T>* table, const TagDfa& dfa,
                                 const Symbol* byte_symbol) {
  table->assign(static_cast<size_t>(num_states_) * 256, 0);
  for (int q = 0; q < num_states_; ++q) {
    accepting_[q] = dfa.accepting[q] ? 1 : 0;
    T* row = table->data() + static_cast<size_t>(q) * 256;
    for (int byte = 0; byte < 256; ++byte) {
      // Unknown bytes self-loop (they cannot occur in valid input).
      row[byte] = static_cast<T>(q);
    }
    for (int byte = 'a'; byte <= 'z'; ++byte) {
      Symbol a = byte_symbol[byte];
      if (a < 0 || a >= dfa.num_symbols) continue;
      row[byte] = static_cast<T>(dfa.NextOpen(q, a));
      row[byte - 'a' + 'A'] = static_cast<T>(dfa.NextClose(q, a));
    }
  }
}

void ByteTagDfaRunner::BuildTable(const TagDfa& dfa,
                                  const Symbol* byte_symbol) {
  accepting_.assign(num_states_, 0);
  byte_symbol_.fill(-1);
  for (int byte = 'a'; byte <= 'z'; ++byte) {
    Symbol a = byte_symbol[byte];
    if (a < 0 || a >= dfa.num_symbols) continue;
    byte_symbol_[byte] = a;
    byte_symbol_[byte - 'a' + 'A'] = a;
  }
  if (num_states_ < 65536) {
    FillTable(&table16_, dfa, byte_symbol);
  } else {
    FillTable(&table32_, dfa, byte_symbol);
  }
  // The indexed loops skip whitespace wholesale, which is sound because
  // every state self-loops on it (the fills above never give a whitespace
  // byte a transition). Checked here so a change to the fill cannot
  // silently corrupt the structural-index walk.
  for (int q = 0; q < num_states_; ++q) {
    for (unsigned char w : {' ', '\t', '\n', '\v', '\f', '\r'}) {
      SST_CHECK(Step(q, w) == q);
    }
  }
}

template <typename T>
int64_t ByteTagDfaRunner::CountSelectionsImpl(const T* table,
                                              std::string_view bytes) const {
  int state = initial_;
  int64_t selected = 0;
  for (unsigned char byte : bytes) {
    state = table[static_cast<size_t>(state) * 256 + byte];
    // Pre-selection samples only after opening tags: exactly the lowercase
    // letters. Anything else ('{', '|', bytes >= 0x7B, ...) self-loops and
    // must not count even when the looped state is accepting.
    selected += static_cast<int64_t>((byte >= 'a') & (byte <= 'z') &
                                     accepting_[state]);
  }
  return selected;
}

int64_t ByteTagDfaRunner::CountSelectionsPerByte(
    std::string_view bytes) const {
  return uses_compact_table() ? CountSelectionsImpl(table16_.data(), bytes)
                              : CountSelectionsImpl(table32_.data(), bytes);
}

template <typename T>
int64_t ByteTagDfaRunner::CountSelectionsIndexed(const T* table,
                                                 std::string_view bytes) const {
  int state = initial_;
  int64_t selected = 0;
  ForEachStructural(bytes.data(), bytes.size(), [&](size_t i) {
    unsigned char byte = static_cast<unsigned char>(bytes[i]);
    state = table[static_cast<size_t>(state) * 256 + byte];
    selected += static_cast<int64_t>((byte >= 'a') & (byte <= 'z') &
                                     accepting_[state]);
  });
  return selected;
}

int64_t ByteTagDfaRunner::CountSelections(std::string_view bytes) const {
  return uses_compact_table() ? CountSelectionsIndexed(table16_.data(), bytes)
                              : CountSelectionsIndexed(table32_.data(), bytes);
}

template <typename T>
int64_t ByteTagDfaRunner::CollectMatchesImpl(const T* table,
                                             std::string_view bytes,
                                             MatchRecorder* recorder,
                                             bool indexed) const {
  int state = initial_;
  int64_t depth = 0;
  int64_t selected = 0;
  // Span bookkeeping rides the same fused walk as selection counting: a
  // depth counter frames opens/closes (no validation — CountSelections
  // semantics), matches arm a pending span at the opening letter and the
  // close at the same depth completes it.
  auto step = [&](size_t i) {
    unsigned char byte = static_cast<unsigned char>(bytes[i]);
    state = table[static_cast<size_t>(state) * 256 + byte];
    if (byte >= 'a' && byte <= 'z') {
      ++depth;
      if (accepting_[state]) {
        ++selected;
        recorder->OnMatch(0, depth, static_cast<int64_t>(i),
                          static_cast<int64_t>(i) + 1);
      }
    } else if (byte >= 'A' && byte <= 'Z') {
      if (depth > 0) {
        recorder->OnClose(depth, static_cast<int64_t>(i) + 1);
        --depth;
      }
    }
  };
  if (indexed) {
    // Whitespace gaps touch neither the state nor the framing, so skipping
    // them changes no event and no offset.
    ForEachStructural(bytes.data(), bytes.size(), step);
  } else {
    for (size_t i = 0; i < bytes.size(); ++i) step(i);
  }
  // Spans still open at end of input have no close in the bytes: report
  // them truncated (end_offset -1), never drop them.
  recorder->FlushTruncated();
  return selected;
}

int64_t ByteTagDfaRunner::CollectMatches(std::string_view bytes,
                                         MatchSink* sink,
                                         int64_t max_pending) const {
  MatchRecorder recorder;
  recorder.set_sink(sink);
  recorder.set_max_pending(max_pending);
  return uses_compact_table()
             ? CollectMatchesImpl(table16_.data(), bytes, &recorder, true)
             : CollectMatchesImpl(table32_.data(), bytes, &recorder, true);
}

int64_t ByteTagDfaRunner::CollectMatchesPerByte(std::string_view bytes,
                                                MatchSink* sink,
                                                int64_t max_pending) const {
  MatchRecorder recorder;
  recorder.set_sink(sink);
  recorder.set_max_pending(max_pending);
  return uses_compact_table()
             ? CollectMatchesImpl(table16_.data(), bytes, &recorder, false)
             : CollectMatchesImpl(table32_.data(), bytes, &recorder, false);
}

ValidatedRun ByteTagDfaRunner::RunValidated(std::string_view bytes,
                                            const StreamLimits& limits) const {
  ValidatedRun run;
  run.final_state = initial_;
  std::vector<Symbol> open_letters;
  int64_t depth = 0;
  bool saw_root = false;
  // Byte guard first (as a prefix split, exactly like StreamingSelector):
  // the error fires at offset max_document_bytes iff the prefix is clean.
  bool over_byte_limit =
      static_cast<int64_t>(bytes.size()) > limits.max_document_bytes;
  size_t scan_end = over_byte_limit
                        ? static_cast<size_t>(limits.max_document_bytes)
                        : bytes.size();
  auto fail = [&](StreamErrorCode code, int64_t offset, Symbol expected,
                  Symbol got) {
    run.error.code = code;
    run.error.offset = offset;
    run.error.depth = depth;
    run.error.expected = expected;
    run.error.got = got;
  };
  // Validation treats whitespace as pure identity (no step, no error, no
  // count), so iterating the structural index is byte-identical to the
  // per-byte scan — including every error offset.
  StructuralIterator structural(bytes.data(), scan_end);
  for (size_t i = structural.Next(); i < scan_end; i = structural.Next()) {
    unsigned char byte = static_cast<unsigned char>(bytes[i]);
    if (byte >= 'a' && byte <= 'z') {
      Symbol s = byte_symbol_[byte];
      if (s < 0) {
        fail(StreamErrorCode::kUnknownLabel, i, -1, -1);
        return run;
      }
      if (depth == 0 && saw_root) {
        fail(StreamErrorCode::kTrailingContent, i, -1, s);
        return run;
      }
      if (depth >= limits.max_depth) {
        fail(StreamErrorCode::kDepthLimitExceeded, i, -1, s);
        return run;
      }
      if (run.events >= limits.max_events) {
        fail(StreamErrorCode::kEventLimitExceeded, i, -1, -1);
        return run;
      }
      saw_root = true;
      ++depth;
      if (depth > run.max_depth) run.max_depth = depth;
      open_letters.push_back(s);
      run.final_state = Step(run.final_state, byte);
      ++run.events;
      if (accepting_[run.final_state]) ++run.matches;
      ++run.nodes;
      continue;
    }
    if (byte >= 'A' && byte <= 'Z') {
      Symbol s = byte_symbol_[byte];
      if (s < 0) {
        fail(StreamErrorCode::kUnknownLabel, i, -1, -1);
        return run;
      }
      if (open_letters.empty()) {
        fail(StreamErrorCode::kUnbalancedClose, i, -1, s);
        return run;
      }
      if (open_letters.back() != s) {
        fail(StreamErrorCode::kLabelMismatch, i, open_letters.back(), s);
        return run;
      }
      if (run.events >= limits.max_events) {
        fail(StreamErrorCode::kEventLimitExceeded, i, -1, -1);
        return run;
      }
      open_letters.pop_back();
      --depth;
      run.final_state = Step(run.final_state, byte);
      ++run.events;
      continue;
    }
    fail(StreamErrorCode::kBadByte, i, -1, -1);
    return run;
  }
  if (over_byte_limit) {
    fail(StreamErrorCode::kByteLimitExceeded, limits.max_document_bytes, -1,
         -1);
    return run;
  }
  if (!saw_root || depth != 0) {
    fail(StreamErrorCode::kTruncatedDocument,
         static_cast<int64_t>(bytes.size()), -1, -1);
  }
  return run;
}

ByteStackRunner::ByteStackRunner(const Dfa& dfa)
    : num_states_(dfa.num_states), initial_(dfa.initial) {
  SST_CHECK_MSG(dfa.num_symbols <= 26, "compact markup allows 26 symbols");
  open_table_.assign(static_cast<size_t>(num_states_) * 26, 0);
  accepting_.assign(num_states_, 0);
  for (int q = 0; q < num_states_; ++q) {
    accepting_[q] = dfa.accepting[q] ? 1 : 0;
    for (Symbol a = 0; a < dfa.num_symbols; ++a) {
      open_table_[static_cast<size_t>(q) * 26 + a] = dfa.Next(q, a);
    }
  }
}

int64_t ByteStackRunner::CountSelections(std::string_view bytes) {
  stack_.clear();
  int state = initial_;
  int64_t selected = 0;
  for (unsigned char byte : bytes) {
    if (byte >= 'a' && byte <= 'z') {
      stack_.push_back(state);
      if (stack_.size() > max_stack_depth_) max_stack_depth_ = stack_.size();
      state = open_table_[static_cast<size_t>(state) * 26 + (byte - 'a')];
      selected += accepting_[state];
    } else if (byte >= 'A' && byte <= 'Z') {
      if (stack_.empty()) return -1;  // unbalanced: close without open
      state = stack_.back();
      stack_.pop_back();
    }
  }
  return selected;
}

}  // namespace sst
