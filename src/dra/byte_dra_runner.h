#ifndef SST_DRA_BYTE_DRA_RUNNER_H_
#define SST_DRA_BYTE_DRA_RUNNER_H_

#include <array>
#include <bit>
#include <cstdint>
#include <string_view>
#include <vector>

#include "automata/alphabet.h"
#include "base/match_sink.h"
#include "dra/dra.h"
#include "dra/machine.h"
#include "dra/stream_error.h"

namespace sst {

// Byte-level fused execution of a *restricted* DRA over the compact markup
// serialization ('a'..'z' opening tags, 'A'..'Z' closing tags): the
// stackless analogue of ByteTagDfaRunner, closing the gap between the
// paper's Lemma 3.8 evaluators and the Section 4.3 byte-table regime. The
// depth counter, the <= Dra::kMaxRegisters depth registers, and the 3^r
// comparison code are all resolved inside the scan loop — no virtual
// dispatch, no per-event heap traffic.
//
// Restrictedness (Section 2.2) is what makes the fusion cheap. In a
// restricted DRA every transition reloads each register reading strictly
// greater than the new depth, so by induction every reachable
// configuration satisfies "all registers <= depth" — on ANY byte
// sequence, not just well-formed ones. Hence:
//   * opening tags raise the depth above every register: the comparison
//     code is identically 0 (all kLess). The open half of the table is
//     stored with the code dimension collapsed away — the "comparison
//     outcome precomputed per byte class".
//   * closing tags lower the depth by one, so each register digit is
//     computed branch-free as (reg >= depth) + (reg > depth) after the
//     decrement (kGreater can only mean reg == depth + 1).
//
// The (state, open/close, symbol, code) -> action table is flattened to
// uint16_t next-state entries (plans cap DRAs at 4096 states, and the
// constructor requires fewer than 65536) plus a parallel uint16_t
// load-mask array (<= kMaxRegisters bits) applied with a ctz walk. Rows
// are laid out open-major:
//   open:  [state * num_symbols + symbol]                      (code == 0)
//   close: [(state * num_symbols + symbol) * 3^r + code]
class ByteDraRunner {
 public:
  // Label-driven convention, matching ByteTagDfaRunner: each symbol of
  // `dra` opens as its single lowercase-letter label in `alphabet` and
  // closes as the uppercase form. Requires IsRestricted(*dra) and fewer
  // than 65536 states; `dra` is borrowed and must outlive the runner.
  ByteDraRunner(const Dra* dra, const Alphabet& alphabet);

  // Streams the bytes; returns the number of pre-selected nodes (acceptance
  // sampled after every opening byte 'a'..'z'). Bytes that are no known tag
  // letter self-loop and leave the configuration untouched; unknown
  // *lowercase* letters still sample acceptance — ByteTagDfaRunner parity.
  // Runs over the SIMD structural index: whitespace gaps are skipped in
  // bulk. That is sound for every DRA: a whitespace byte is no tag letter,
  // so it never indexes the table and leaves the configuration untouched.
  int64_t CountSelections(std::string_view bytes) const;

  // Per-byte reference loop (no structural index): the oracle the parity
  // tests diff the indexed path against.
  int64_t CountSelectionsPerByte(std::string_view bytes) const;

  // CountSelections with byte-span position tracking: every pre-selected
  // node becomes a MatchEvent (query_id 0) in `sink`, emitted just past
  // its opening letter (the earliest certain offset) and completed at the
  // matching close; see ByteTagDfaRunner::CollectMatches for the exact
  // semantics (framing depth counter, truncated spans, `max_pending`
  // bound). Runs over the structural index like CountSelections;
  // CollectMatchesPerByte is the per-byte oracle.
  int64_t CollectMatches(std::string_view bytes, MatchSink* sink,
                         int64_t max_pending = MatchRecorder::kUnlimited)
      const;
  int64_t CollectMatchesPerByte(std::string_view bytes, MatchSink* sink,
                                int64_t max_pending =
                                    MatchRecorder::kUnlimited) const;

  // Well-formedness-validated whole-document run with StreamingSelector's
  // fail-fast compact-markup semantics: same first StreamError at the
  // same byte offset, same partial counters (see ByteTagDfaRunner).
  ValidatedRun RunValidated(std::string_view bytes,
                            const StreamLimits& limits = {}) const;

  DraConfig InitialConfig() const;
  bool IsAccepting(int state) const { return accepting_[state] != 0; }

  // Symbol-level stepping for event-driven callers (the mixed multi-query
  // machine on the generic tier, the one-scan and validated runners). The
  // symbol must be in [0, num_symbols).
  void StepOpen(DraConfig* config, Symbol symbol) const {
    StepOpenTo(config, symbol, ++config->depth);
  }
  void StepClose(DraConfig* config, Symbol symbol) const {
    StepCloseTo(config, symbol, --config->depth);
  }

  // The same steps with the depth after the tag passed in and
  // config->depth left alone: the fused streaming kernel keeps one depth
  // for every DRA it steps.
  void StepOpenTo(DraConfig* config, Symbol symbol, int64_t depth) const {
    // Restricted invariant: every register <= old depth < new depth, so
    // the comparison code is 0 and the open row needs no code dimension.
    const size_t index = OpenRow(config->state, symbol);
    ApplyLoads(config, open_load_[index], depth);
    config->state = open_next_[index];
  }
  void StepCloseTo(DraConfig* config, Symbol symbol, int64_t depth) const {
    const size_t index =
        OpenRow(config->state, symbol) * num_codes_ + CmpCode(*config, depth);
    ApplyLoads(config, close_load_[index], depth);
    config->state = close_next_[index];
  }

  // Symbol of an opening ('a'..'z') or closing ('A'..'Z') letter under the
  // label convention; -1 for any byte that is neither.
  Symbol byte_symbol(unsigned char byte) const { return byte_symbol_[byte]; }

  int num_states() const { return num_states_; }
  int num_registers() const { return num_registers_; }
  const Dra* dra() const { return dra_; }

 private:
  size_t OpenRow(int state, Symbol symbol) const {
    return static_cast<size_t>(state) * num_symbols_ +
           static_cast<size_t>(symbol);
  }

  // The comparison code of the registers against `depth`, one base-3 digit
  // per register: kLess=0, kEqual=1, kGreater=2, computed branch-free.
  // Restrictedness bounds every register by depth + 1, so the two
  // comparisons cover all reachable cases.
  size_t CmpCode(const DraConfig& config, int64_t depth) const {
    size_t code = 0;
    for (int r = 0; r < num_registers_; ++r) {
      const int64_t reg = config.registers[static_cast<size_t>(r)];
      code += (static_cast<size_t>(reg >= depth) +
               static_cast<size_t>(reg > depth)) *
              pow3_[static_cast<size_t>(r)];
    }
    return code;
  }

  void ApplyLoads(DraConfig* config, uint16_t load_mask,
                  int64_t depth) const {
    for (uint32_t mask = load_mask; mask != 0; mask &= mask - 1) {
      config->registers[static_cast<size_t>(std::countr_zero(mask))] = depth;
    }
  }

  const Dra* dra_;
  int num_states_;
  int num_symbols_;
  int num_registers_;
  size_t num_codes_;  // 3^num_registers_
  std::array<size_t, Dra::kMaxRegisters> pow3_{};

  // Open rows: num_states * num_symbols (code dimension collapsed to 0).
  // Close rows: num_states * num_symbols * num_codes.
  std::vector<uint16_t> open_next_;
  std::vector<uint16_t> open_load_;
  std::vector<uint16_t> close_next_;
  std::vector<uint16_t> close_load_;
  std::vector<uint8_t> accepting_;
  std::array<Symbol, 256> byte_symbol_;
};

}  // namespace sst

#endif  // SST_DRA_BYTE_DRA_RUNNER_H_
