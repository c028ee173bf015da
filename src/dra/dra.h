#ifndef SST_DRA_DRA_H_
#define SST_DRA_DRA_H_

#include <cstdint>
#include <span>
#include <vector>

#include "automata/alphabet.h"
#include "dra/machine.h"
#include "dra/tag_dfa.h"

namespace sst {

// Explicit depth-register automaton (Definition 2.1).
//
// A configuration is (state, depth, register values). Reading a tag first
// updates the depth (+1 on opening, -1 on closing: the counter is
// input-driven), then compares every register against the new depth,
// producing per register one of {less, equal, greater}. The transition
// table maps (state, tag, comparison vector) to (set of registers to load
// with the current depth, next state). This is exactly the paper's
//   δ : Q × (Γ ∪ Γ̄) × 2^Ξ × 2^Ξ → 2^Ξ × Q
// since X≤ and X≥ always cover Ξ and overlap exactly on the 'equal'
// registers — a comparison vector in {<,=,>}^Ξ carries the same data.
struct Dra {
  enum Cmp : int { kLess = 0, kEqual = 1, kGreater = 2 };

  struct Action {
    uint32_t load_mask = 0;  // bit r set => load current depth into r
    int next = 0;
  };

  int num_states = 0;
  int num_symbols = 0;
  int num_registers = 0;  // at most kMaxRegisters
  int initial = 0;
  std::vector<bool> accepting;
  // Indexed by (((state * 2 + is_close) * num_symbols) + symbol) * 3^R + cmp.
  std::vector<Action> table;

  static constexpr int kMaxRegisters =
      DraConfig::kMaxRegisters;  // 3^10 table columns max

  static Dra Create(int num_states, int num_symbols, int num_registers);

  int NumCmpCodes() const;

  // Comparison-code arithmetic: code digit r (base 3) is the comparison of
  // register r against the current depth.
  static int CmpDigit(int cmp_code, int reg);
  static int WithCmpDigit(int cmp_code, int reg, int digit);

  size_t Index(int state, bool is_close, Symbol symbol, int cmp_code) const;
  const Action& At(int state, bool is_close, Symbol symbol,
                   int cmp_code) const {
    return table[Index(state, is_close, symbol, cmp_code)];
  }
  Action& At(int state, bool is_close, Symbol symbol, int cmp_code) {
    return table[Index(state, is_close, symbol, cmp_code)];
  }

  // Sets the same action for every comparison code matching the given
  // pattern (-1 digits are wildcards). Convenience for hand-built automata.
  void SetAction(int state, bool is_close, Symbol symbol,
                 const std::vector<int>& cmp_pattern, uint32_t load_mask,
                 int next);
};

// Section 2.2: a DRA is restricted iff every transition overwrites all
// registers whose value is strictly greater than the current depth
// (X≥ \ X≤ ⊆ Y). Restricted DRAs recognize only regular tree languages
// (Proposition 2.3).
bool IsRestricted(const Dra& dra);

// Lemma 2.4 closure operations for stackless languages.
Dra DraIntersection(const Dra& a, const Dra& b);
Dra DraUnion(const Dra& a, const Dra& b);
Dra DraComplement(const Dra& a);

// Embeds a registerless automaton as a DRA with Ξ = ∅.
Dra DraFromTagDfa(const TagDfa& dfa);

// Runs a DRA; maintains the full configuration.
class DraRunner final : public StreamMachine {
 public:
  explicit DraRunner(const Dra* dra);

  void Reset() override;
  void OnOpen(Symbol symbol) override { Step(symbol, /*is_close=*/false); }
  void OnClose(Symbol symbol) override { Step(symbol, /*is_close=*/true); }
  bool InAcceptingState() const override {
    return dra_->accepting[config_.state];
  }

  int state() const { return config_.state; }
  int64_t depth() const { return config_.depth; }
  std::span<const int64_t> registers() const {
    return {config_.registers.data(),
            static_cast<size_t>(dra_->num_registers)};
  }

  // Stackless fused fast path (see dra/byte_dra_runner.h): the runner IS a
  // DRA wrapper, so the scanner's fused kernel may step its configuration
  // in place through a ByteDraRunner table of the same automaton.
  std::span<const Dra* const> ExportDras() const override {
    return {&dra_, 1};
  }
  DraConfig* ExportedDraConfigs() override { return &config_; }

  // Checkpoint protocol: state, depth, register bank — the O(1)
  // configuration Definition 2.1 promises.
  bool SaveConfig(std::vector<int64_t>* out) override;
  bool RestoreConfig(const std::vector<int64_t>& config) override;
  bool ConfigEqualsCurrent(const std::vector<int64_t>& config) const override;

 private:
  void Step(Symbol symbol, bool is_close);

  const Dra* dra_;
  DraConfig config_;
};

}  // namespace sst

#endif  // SST_DRA_DRA_H_
