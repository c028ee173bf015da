#include "engine/query_plan.h"

#include <algorithm>
#include <utility>

#include "base/check.h"
#include "eval/registerless_query.h"
#include "eval/stack_evaluator.h"

namespace sst {

namespace {

// Compact-markup label eligibility shared by both fused rungs: every
// document label must be a single lowercase letter so tables can be keyed
// by the raw byte.
bool CompactLabels(const Alphabet& alphabet) {
  for (Symbol s = 0; s < alphabet.size(); ++s) {
    const std::string& label = alphabet.LabelOf(s);
    if (label.size() != 1 || label[0] < 'a' || label[0] > 'z') return false;
  }
  return true;
}

// True when the fused byte→state rung of the degradation ladder exists:
// compact labels, all covered by the TagDfa.
bool FusedEligible(const TagDfa& dfa, const Alphabet& alphabet) {
  return alphabet.size() <= dfa.num_symbols && CompactLabels(alphabet);
}

// Budgets for materializing a stackless query into an explicit DRA at
// plan-compile time. The state budget caps the BFS frontier; the table
// budget caps the transient explicit table (2 × symbols × 3^chain entries
// per state), which dominates memory when the register chain is long.
constexpr int kDraStateBudget = 4096;
constexpr int64_t kDraTableBudget = int64_t{1} << 22;

// The pushdown tier's byte table: the minimal DFA's transitions on
// opening letters, with every closing letter a self-loop (the kernel
// restores the state from its column on a close instead).
ByteTagDfaRunner BuildStackTable(const Dfa& dfa, const Alphabet& alphabet) {
  TagDfa opens = TagDfa::Create(dfa.num_states, dfa.num_symbols);
  opens.initial = dfa.initial;
  for (int q = 0; q < dfa.num_states; ++q) {
    opens.accepting[q] = dfa.accepting[q];
    for (Symbol a = 0; a < dfa.num_symbols; ++a) {
      opens.SetNextOpen(q, a, dfa.Next(q, a));
      opens.SetNextClose(q, a, q);
    }
  }
  return ByteTagDfaRunner(opens, alphabet);
}

}  // namespace

const char* EvaluatorKindName(EvaluatorKind kind) {
  switch (kind) {
    case EvaluatorKind::kRegisterless:
      return "registerless (finite automaton)";
    case EvaluatorKind::kStackless:
      return "stackless (depth-register automaton)";
    case EvaluatorKind::kStackBaseline:
      return "stack baseline (pushdown)";
  }
  return "unknown";
}

std::shared_ptr<const QueryPlan> QueryPlan::Compile(
    const Rpq& rpq, const PlanOptions& options) {
  auto plan = std::shared_ptr<QueryPlan>(new QueryPlan());
  plan->options_ = options;
  plan->source_ = rpq.source;
  plan->alphabet_ = rpq.alphabet;
  plan->minimal_dfa_ = rpq.minimal_dfa;
  plan->classification_ = Classify(rpq.minimal_dfa);
  plan->scanner_tables_ =
      ScannerTables::Build(options.format, plan->alphabet_);

  const Classification& c = plan->classification_;
  const bool term = options.encoding == StreamEncoding::kTerm;
  const bool registerless =
      term ? c.blind_almost_reversible : c.almost_reversible;
  const bool stackless = term ? c.blind_har : c.har;
  if (registerless) {
    plan->kind_ = EvaluatorKind::kRegisterless;
    plan->tag_dfa_ =
        BuildRegisterlessQueryAutomaton(plan->minimal_dfa_, term);
    if (options.format == StreamFormat::kCompactMarkup &&
        FusedEligible(*plan->tag_dfa_, plan->alphabet_)) {
      plan->fused_ = std::make_unique<ByteTagDfaRunner>(*plan->tag_dfa_,
                                                        plan->alphabet_);
#ifndef NDEBUG
      // The fused byte→state table and the scanner's byte-class/byte→
      // symbol tables are derived independently from the same Alphabet;
      // the plan is the one place both exist, so cross-check them here
      // (previously each layer rebuilt its own copy with no such check).
      for (int b = 'a'; b <= 'z'; ++b) {
        SST_CHECK(plan->scanner_tables_.byte_class[b] == ScannerTables::kOpen);
        SST_CHECK(plan->scanner_tables_.byte_class[b - 'a' + 'A'] ==
                  ScannerTables::kClose);
        SST_CHECK(plan->fused_->byte_symbol(static_cast<unsigned char>(b)) ==
                  plan->scanner_tables_.byte_symbol[b]);
        SST_CHECK(
            plan->fused_->byte_symbol(
                static_cast<unsigned char>(b - 'a' + 'A')) ==
            plan->scanner_tables_.byte_symbol[b - 'a' + 'A']);
      }
#endif
    }
  } else if (stackless) {
    plan->kind_ = EvaluatorKind::kStackless;
    plan->stackless_ = StacklessBlueprint::Build(plan->minimal_dfa_, term);
    // Stackless fused rung: materialize the Lemma 3.8 machine into an
    // explicit restricted DRA and flatten it to a byte table, when the
    // format and labels allow and the table fits the budget. The budget is
    // resolved *before* materializing — the blueprint's register bound
    // (max_chain) fixes the per-state table cost, so the state cap is
    // shrunk until the transient table is bounded too. Markup encoding
    // only: term-encoded callers drive OnClose(-1) (universal closing
    // tag), which an explicit DRA table cannot index — those plans keep
    // the StacklessQueryEvaluator interpreter.
    if (options.encoding == StreamEncoding::kMarkup &&
        options.format == StreamFormat::kCompactMarkup &&
        plan->minimal_dfa_.num_symbols == plan->alphabet_.size() &&
        CompactLabels(plan->alphabet_) &&
        plan->stackless_->max_chain <= Dra::kMaxRegisters) {
      int64_t codes = 1;
      for (int i = 0; i < plan->stackless_->max_chain; ++i) codes *= 3;
      const int64_t per_state =
          2 * static_cast<int64_t>(plan->minimal_dfa_.num_symbols) * codes;
      const int64_t max_states =
          std::min<int64_t>(kDraStateBudget, kDraTableBudget / per_state);
      if (max_states >= 2) {
        plan->stackless_dra_ = MaterializeStacklessQueryDra(
            plan->minimal_dfa_, term, static_cast<int>(max_states));
      }
      if (plan->stackless_dra_) {
        plan->fused_dra_ = std::make_unique<ByteDraRunner>(
            &*plan->stackless_dra_, plan->alphabet_);
        plan->fused_dra_ptr_ = plan->fused_dra_.get();
#ifndef NDEBUG
        // Same cross-check as the registerless rung: the fused DRA table
        // and the scanner tables are derived independently from the same
        // Alphabet and must agree on every letter byte.
        for (int b = 'a'; b <= 'z'; ++b) {
          SST_CHECK(plan->fused_dra_->byte_symbol(
                        static_cast<unsigned char>(b)) ==
                    plan->scanner_tables_.byte_symbol[b]);
          SST_CHECK(plan->fused_dra_->byte_symbol(
                        static_cast<unsigned char>(b - 'a' + 'A')) ==
                    plan->scanner_tables_.byte_symbol[b - 'a' + 'A']);
        }
#endif
      }
    }
  } else if (options.allow_stack_fallback) {
    plan->kind_ = EvaluatorKind::kStackBaseline;
    if (options.format == StreamFormat::kCompactMarkup &&
        plan->minimal_dfa_.num_symbols == plan->alphabet_.size() &&
        CompactLabels(plan->alphabet_)) {
      plan->stack_table_ = std::make_unique<ByteTagDfaRunner>(
          BuildStackTable(plan->minimal_dfa_, plan->alphabet_));
    }
  } else {
    return plan;  // exact_ = false; classification still available
  }
  plan->exact_ = true;
  return plan;
}

std::unique_ptr<StreamMachine> QueryPlan::NewMachine() const {
  if (!exact_) return nullptr;
  switch (kind_) {
    case EvaluatorKind::kRegisterless:
      return std::make_unique<TagDfaMachine>(&*tag_dfa_);
    case EvaluatorKind::kStackless:
      // With the fused rung present, instantiate the machine as a DRA
      // runner over the materialized automaton: it exports the (state,
      // depth, registers) configuration the fused scanner syncs around
      // each chunk, and steps the *same* automaton on the generic tier
      // after a demotion — the two tiers cannot diverge.
      if (fused_dra_) return std::make_unique<DraRunner>(&*stackless_dra_);
      return std::make_unique<StacklessQueryEvaluator>(&*stackless_);
    case EvaluatorKind::kStackBaseline:
      return std::make_unique<StackQueryEvaluator>(&minimal_dfa_);
  }
  return nullptr;
}

}  // namespace sst
