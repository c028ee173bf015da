#include "dra/byte_dra_runner.h"

#include "base/byte_scan.h"
#include "base/check.h"

namespace sst {

ByteDraRunner::ByteDraRunner(const Dra* dra, const Alphabet& alphabet)
    : dra_(dra),
      num_states_(dra->num_states),
      num_symbols_(dra->num_symbols),
      num_registers_(dra->num_registers),
      num_codes_(static_cast<size_t>(dra->NumCmpCodes())) {
  SST_CHECK_MSG(IsRestricted(*dra),
                "fused byte execution requires a restricted DRA");
  SST_CHECK(num_registers_ <= Dra::kMaxRegisters);
  SST_CHECK_MSG(num_states_ < 65536, "the table stores 16-bit states");
  for (size_t r = 0, p = 1; r < static_cast<size_t>(num_registers_);
       ++r, p *= 3) {
    pow3_[r] = p;
  }
  byte_symbol_.fill(-1);
  for (Symbol a = 0; a < num_symbols_; ++a) {
    const std::string& label = alphabet.LabelOf(a);
    SST_CHECK_MSG(label.size() == 1 && label[0] >= 'a' && label[0] <= 'z',
                  "compact markup requires single lowercase-letter labels");
    byte_symbol_[static_cast<unsigned char>(label[0])] = a;
    byte_symbol_[static_cast<unsigned char>(label[0] - 'a' + 'A')] = a;
  }
  accepting_.assign(num_states_, 0);
  for (int q = 0; q < num_states_; ++q) {
    accepting_[q] = dra->accepting[q] ? 1 : 0;
  }
  const size_t rows =
      static_cast<size_t>(num_states_) * static_cast<size_t>(num_symbols_);
  open_next_.assign(rows, 0);
  open_load_.assign(rows, 0);
  close_next_.assign(rows * num_codes_, 0);
  close_load_.assign(rows * num_codes_, 0);
  for (int q = 0; q < num_states_; ++q) {
    for (Symbol a = 0; a < num_symbols_; ++a) {
      const size_t row = OpenRow(q, a);
      // Restricted invariant: the comparison vector on opening tags is
      // all-kLess (code 0); the other 3^r - 1 rows of the explicit table
      // are unreachable and simply dropped.
      const Dra::Action& open = dra_->At(q, /*is_close=*/false, a, 0);
      open_next_[row] = static_cast<uint16_t>(open.next);
      open_load_[row] = static_cast<uint16_t>(open.load_mask);
      for (size_t code = 0; code < num_codes_; ++code) {
        const Dra::Action& close =
            dra_->At(q, /*is_close=*/true, a, static_cast<int>(code));
        close_next_[row * num_codes_ + code] =
            static_cast<uint16_t>(close.next);
        close_load_[row * num_codes_ + code] =
            static_cast<uint16_t>(close.load_mask);
      }
    }
  }
}

DraConfig ByteDraRunner::InitialConfig() const {
  DraConfig config;
  config.state = dra_->initial;
  return config;
}

int64_t ByteDraRunner::CountSelectionsPerByte(std::string_view bytes) const {
  DraConfig config = InitialConfig();
  int64_t selected = 0;
  for (unsigned char byte : bytes) {
    if (byte >= 'a' && byte <= 'z') {
      Symbol s = byte_symbol_[byte];
      if (s >= 0) StepOpen(&config, s);
      // Pre-selection samples after every opening byte — including unknown
      // lowercase letters, which self-loop but still sample (parity with
      // ByteTagDfaRunner, whose self-loop rows make the same call).
      selected += static_cast<int64_t>(accepting_[config.state]);
    } else if (byte >= 'A' && byte <= 'Z') {
      Symbol s = byte_symbol_[byte];
      if (s >= 0) StepClose(&config, s);
    }
  }
  return selected;
}

int64_t ByteDraRunner::CountSelections(std::string_view bytes) const {
  DraConfig config = InitialConfig();
  int64_t selected = 0;
  // Structural-index walk: whitespace is neither an opening nor a closing
  // letter, so gaps leave the configuration and the count untouched and
  // the automaton only ever sees structural bytes.
  ForEachStructural(bytes.data(), bytes.size(), [&](size_t i) {
    unsigned char byte = static_cast<unsigned char>(bytes[i]);
    if (byte >= 'a' && byte <= 'z') {
      Symbol s = byte_symbol_[byte];
      if (s >= 0) StepOpen(&config, s);
      selected += static_cast<int64_t>(accepting_[config.state]);
    } else if (byte >= 'A' && byte <= 'Z') {
      Symbol s = byte_symbol_[byte];
      if (s >= 0) StepClose(&config, s);
    }
  });
  return selected;
}

namespace {

// Shared span-tracking step for the indexed and per-byte collect loops:
// framing depth counts every tag letter (known or not — the framing view,
// matching the recorder depths ByteTagDfaRunner::CollectMatches uses),
// while only known letters step the configuration.
struct DraCollectState {
  DraConfig config;
  int64_t depth = 0;
  int64_t selected = 0;
};

}  // namespace

int64_t ByteDraRunner::CollectMatches(std::string_view bytes, MatchSink* sink,
                                      int64_t max_pending) const {
  MatchRecorder recorder;
  recorder.set_sink(sink);
  recorder.set_max_pending(max_pending);
  DraCollectState st;
  st.config = InitialConfig();
  // Structural-index walk: whitespace touches neither the configuration,
  // the framing depth, nor any event offset.
  ForEachStructural(bytes.data(), bytes.size(), [&](size_t i) {
    unsigned char byte = static_cast<unsigned char>(bytes[i]);
    if (byte >= 'a' && byte <= 'z') {
      Symbol s = byte_symbol_[byte];
      if (s >= 0) StepOpen(&st.config, s);
      ++st.depth;
      if (accepting_[st.config.state]) {
        ++st.selected;
        recorder.OnMatch(0, st.depth, static_cast<int64_t>(i),
                         static_cast<int64_t>(i) + 1);
      }
    } else if (byte >= 'A' && byte <= 'Z') {
      Symbol s = byte_symbol_[byte];
      if (s >= 0) StepClose(&st.config, s);
      if (st.depth > 0) {
        recorder.OnClose(st.depth, static_cast<int64_t>(i) + 1);
        --st.depth;
      }
    }
  });
  recorder.FlushTruncated();
  return st.selected;
}

int64_t ByteDraRunner::CollectMatchesPerByte(std::string_view bytes,
                                             MatchSink* sink,
                                             int64_t max_pending) const {
  MatchRecorder recorder;
  recorder.set_sink(sink);
  recorder.set_max_pending(max_pending);
  DraCollectState st;
  st.config = InitialConfig();
  for (size_t i = 0; i < bytes.size(); ++i) {
    unsigned char byte = static_cast<unsigned char>(bytes[i]);
    if (byte >= 'a' && byte <= 'z') {
      Symbol s = byte_symbol_[byte];
      if (s >= 0) StepOpen(&st.config, s);
      ++st.depth;
      if (accepting_[st.config.state]) {
        ++st.selected;
        recorder.OnMatch(0, st.depth, static_cast<int64_t>(i),
                         static_cast<int64_t>(i) + 1);
      }
    } else if (byte >= 'A' && byte <= 'Z') {
      Symbol s = byte_symbol_[byte];
      if (s >= 0) StepClose(&st.config, s);
      if (st.depth > 0) {
        recorder.OnClose(st.depth, static_cast<int64_t>(i) + 1);
        --st.depth;
      }
    }
  }
  recorder.FlushTruncated();
  return st.selected;
}

ValidatedRun ByteDraRunner::RunValidated(std::string_view bytes,
                                         const StreamLimits& limits) const {
  ValidatedRun run;
  DraConfig config = InitialConfig();
  run.final_state = config.state;
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
  // Same structural-index iteration as ByteTagDfaRunner::RunValidated:
  // validation treats whitespace as pure identity, so skipping it with the
  // index preserves every error code and byte offset.
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
      StepOpen(&config, s);
      run.final_state = config.state;
      ++run.events;
      if (accepting_[config.state]) ++run.matches;
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
      StepClose(&config, s);
      run.final_state = config.state;
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

}  // namespace sst
