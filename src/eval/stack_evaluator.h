#ifndef SST_EVAL_STACK_EVALUATOR_H_
#define SST_EVAL_STACK_EVALUATOR_H_

#include <cstdint>
#include <vector>

#include "automata/dfa.h"
#include "dra/machine.h"

namespace sst {

// The classical pushdown baseline: simulate the DFA of L along the current
// root-to-node path, pushing the state at every opening tag and popping at
// every closing tag. Realizes QL for *every* regular L, at the cost of
// Θ(depth) memory — exactly the cost the paper's stackless model avoids.
// Works unchanged for the term encoding (the closing label is ignored).
//
// Used throughout the test suite as the correctness oracle for the
// registerless and stackless constructions, and in benchmarks as the
// baseline. It is also the third rung of the robustness degradation
// ladder (DESIGN.md "Robustness & recovery"): because it keeps the DFA
// state per open level, it tolerates event streams the stackless tiers
// cannot even express recovery for — a close with nothing open is simply
// ignored (and counted in underflow_closes() for diagnosis) instead of
// corrupting the state.
//
// The per-level states are one flat column (StateColumn), the same shape
// as the scanner's validator labels. On compact markup the scanner's
// fused kernel steps the column in place beside those labels
// (ExportedStateColumn); on every other path OnOpen / OnClose push and pop
// it. The column keeps its capacity across Reset, so a warm machine
// streams without heap allocation, and a checkpoint copies the column
// (O(depth) words, like the labels the selector checkpoint copies).
class StackQueryEvaluator final : public StreamMachine {
 public:
  explicit StackQueryEvaluator(const Dfa* dfa)
      : dfa_(dfa), state_(dfa->initial) {}

  void Reset() override {
    column_.states.clear();
    column_.peak = 0;
    state_ = dfa_->initial;
    underflow_closes_ = 0;
  }

  void OnOpen(Symbol symbol) override {
    column_.states.push_back(state_);
    const int64_t size = static_cast<int64_t>(column_.states.size());
    if (size > column_.peak) column_.peak = size;
    state_ = dfa_->Next(state_, symbol);
  }

  void OnClose(Symbol /*symbol*/) override {
    if (column_.states.empty()) {
      ++underflow_closes_;  // invalid stream; stay put
      return;
    }
    state_ = column_.states.back();
    column_.states.pop_back();
  }

  bool InAcceptingState() const override { return dfa_->accepting[state_]; }

  int ExportedState() const override { return state_; }
  void SyncExportedState(int state) override { state_ = state; }
  StateColumn* ExportedStateColumn() override { return &column_; }

  // Checkpoint protocol: {state, underflow count, column bottom to top}.
  // Peak depth does not round-trip (it is a diagnostic of the run, not of
  // the configuration); RestoreConfig re-bases it at the restored depth,
  // mirroring what the incremental scanner does with its own segment
  // peaks.
  bool SaveConfig(std::vector<int64_t>* out) override {
    out->clear();
    out->push_back(state_);
    out->push_back(underflow_closes_);
    out->insert(out->end(), column_.states.begin(), column_.states.end());
    return true;
  }

  bool RestoreConfig(const std::vector<int64_t>& config) override {
    if (config.size() < 2) return false;
    state_ = static_cast<int>(config[0]);
    underflow_closes_ = config[1];
    column_.states.assign(config.begin() + 2, config.end());
    column_.peak = static_cast<int64_t>(column_.states.size());
    return true;
  }

  bool ConfigEqualsCurrent(const std::vector<int64_t>& config) const override {
    // The underflow counter is a diagnostic, not part of the future-
    // determining configuration; counts are spliced separately.
    if (config.size() != column_.states.size() + 2 || config[0] != state_) {
      return false;
    }
    for (size_t d = 0; d < column_.states.size(); ++d) {
      if (config[d + 2] != column_.states[d]) return false;
    }
    return true;
  }

  int64_t StackDepthPeak() const override { return column_.peak; }
  int64_t StackUnderflowCloses() const override { return underflow_closes_; }

  // Peak auxiliary memory, in stacked states (benchmark counter).
  size_t max_stack_depth() const {
    return static_cast<size_t>(column_.peak);
  }

  // Current nesting depth as seen by the evaluator.
  size_t depth() const { return column_.states.size(); }

  // Close events ignored because nothing was open — nonzero means the
  // upstream scanner fed an unbalanced stream.
  size_t underflow_closes() const {
    return static_cast<size_t>(underflow_closes_);
  }

 private:
  const Dfa* dfa_;
  StateColumn column_;
  int state_ = 0;
  int64_t underflow_closes_ = 0;
};

}  // namespace sst

#endif  // SST_EVAL_STACK_EVALUATOR_H_
