#include "engine/multi_query.h"

#include <unordered_map>
#include <utility>

#include "base/check.h"

namespace sst {

namespace {

// Same eligibility rule as QueryPlan's fused byte table: one lowercase
// letter per symbol.
bool MarkupEligible(const Alphabet& alphabet) {
  for (Symbol s = 0; s < alphabet.size(); ++s) {
    const std::string& label = alphabet.LabelOf(s);
    if (label.size() != 1 || label[0] < 'a' || label[0] > 'z') return false;
  }
  return true;
}

}  // namespace

std::shared_ptr<const MultiQueryPlan> MultiQueryPlan::Compile(
    const std::vector<BatchQuery>& queries, const Alphabet& alphabet,
    const MultiQueryOptions& options, PlanCache* cache) {
  SST_CHECK_MSG(!queries.empty(), "a batch needs at least one query");
  // The per-query plans come from the PlanCache (the caller's, so batch
  // compilation shares work with single-query serving; a private one
  // otherwise): dedup below reuses its canonical key, so the batch sees
  // through whitespace and textual variants.
  PlanCache local_cache;
  PlanCache& plans = cache != nullptr ? *cache : local_cache;

  auto plan = std::shared_ptr<MultiQueryPlan>(new MultiQueryPlan());
  plan->options_ = options;
  plan->alphabet_ = alphabet;
  plan->scanner_tables_ =
      ScannerTables::Build(options.plan.format, alphabet);

  std::unordered_map<std::string, int> slot_index;
  plan->slot_of_.reserve(queries.size());
  for (const BatchQuery& query : queries) {
    std::string key = PlanCache::CanonicalKey(query.syntax, query.text,
                                              alphabet, options.plan);
    auto [it, inserted] =
        slot_index.emplace(std::move(key), plan->num_slots());
    if (inserted) {
      plan->slot_plans_.push_back(plans.GetOrCompile(
          query.syntax, query.text, alphabet, options.plan));
    }
    plan->slot_of_.push_back(it->second);
  }

  bool all_registerless = true;
  bool mixed_ok = true;
  int stackless_members = 0;
  for (const auto& slot_plan : plan->slot_plans_) {
    if (!slot_plan->exact()) {
      all_registerless = false;
      mixed_ok = false;
      break;
    }
    if (slot_plan->tag_dfa() != nullptr) continue;
    all_registerless = false;
    if (slot_plan->fused_dra() != nullptr) {
      ++stackless_members;
    } else {
      // A stackless member without a fused DRA (term encoding, budget
      // blown, unfusable labels) — or a stack-baseline member — has no
      // one-scan form, so the whole batch steps independently.
      mixed_ok = false;
      break;
    }
  }
  if (!all_registerless) {
    if (mixed_ok && stackless_members > 0) {
      // Mixed tier: fuse the registerless members into an eager
      // sub-product (their mask bits lead the member order) and borrow
      // each stackless member's fused DRA from its slot plan.
      for (int slot = 0; slot < plan->num_slots(); ++slot) {
        if (plan->slot_plans_[static_cast<size_t>(slot)]->tag_dfa() !=
            nullptr) {
          plan->product_slot_.push_back(slot);
        } else {
          plan->dra_slot_.push_back(slot);
        }
      }
      bool product_ok = true;
      if (!plan->product_slot_.empty()) {
        plan->components_.reserve(plan->product_slot_.size());
        for (int slot : plan->product_slot_) {
          plan->components_.push_back(
              plan->slot_plans_[static_cast<size_t>(slot)]->tag_dfa());
        }
        plan->eager_ =
            BuildTagDfaProduct(plan->components_, options.eager_state_cap);
        product_ok = plan->eager_.has_value();
      }
      if (product_ok) {
        // The sub-product's byte table lets the whole batch stream on the
        // fused kernel (compact markup only, like the fused-product tier).
        if (plan->eager_.has_value() &&
            options.plan.format == StreamFormat::kCompactMarkup &&
            MarkupEligible(alphabet)) {
          plan->eager_fused_ =
              std::make_unique<ByteTagDfaRunner>(plan->eager_->dfa, alphabet);
        }
        plan->mixed_dras_.reserve(plan->dra_slot_.size());
        for (int slot : plan->dra_slot_) {
          plan->mixed_dras_.push_back(
              plan->slot_plans_[static_cast<size_t>(slot)]->fused_dra());
        }
        plan->tier_ = MultiTier::kMixed;
        return plan;
      }
      // The registerless sub-product outgrew the eager cap; the mixed
      // tier has no lazy rung, so the batch steps independently.
      plan->components_.clear();
      plan->product_slot_.clear();
      plan->dra_slot_.clear();
    }
    plan->tier_ = MultiTier::kIndependent;
    return plan;
  }

  plan->components_.reserve(plan->slot_plans_.size());
  for (const auto& slot_plan : plan->slot_plans_) {
    plan->components_.push_back(slot_plan->tag_dfa());
  }

  plan->eager_ =
      BuildTagDfaProduct(plan->components_, options.eager_state_cap);
  if (plan->eager_.has_value()) {
    plan->tier_ = MultiTier::kFusedProduct;
    if (options.plan.format == StreamFormat::kCompactMarkup &&
        MarkupEligible(alphabet)) {
      plan->eager_fused_ =
          std::make_unique<ByteTagDfaRunner>(plan->eager_->dfa, alphabet);
    }
  } else {
    plan->tier_ = MultiTier::kLazyProduct;
    plan->lazy_ = std::make_unique<LazyTagDfaProduct>(
        plan->components_, options.lazy_state_cap);
  }
  return plan;
}

std::vector<int64_t> MultiQueryPlan::ExpandCounts(
    const std::vector<int64_t>& slot_counts) const {
  SST_CHECK(static_cast<int>(slot_counts.size()) == num_slots());
  std::vector<int64_t> counts(slot_of_.size());
  for (size_t i = 0; i < slot_of_.size(); ++i) {
    counts[i] = slot_counts[static_cast<size_t>(slot_of_[i])];
  }
  return counts;
}

std::vector<int64_t> MultiQueryPlan::MemberCountsToSlots(
    const std::vector<int64_t>& member_counts) const {
  if (tier_ != MultiTier::kMixed) return member_counts;
  SST_CHECK(member_counts.size() ==
            product_slot_.size() + dra_slot_.size());
  std::vector<int64_t> slot_counts(static_cast<size_t>(num_slots()), 0);
  for (size_t i = 0; i < product_slot_.size(); ++i) {
    slot_counts[static_cast<size_t>(product_slot_[i])] = member_counts[i];
  }
  for (size_t j = 0; j < dra_slot_.size(); ++j) {
    slot_counts[static_cast<size_t>(dra_slot_[j])] =
        member_counts[product_slot_.size() + j];
  }
  return slot_counts;
}

std::vector<std::vector<int32_t>> MultiQueryPlan::MemberQueryIds() const {
  // Slot -> submitted query indices first; member order is slot order on
  // every tier except kMixed, where product mask bits lead.
  std::vector<std::vector<int32_t>> by_slot(
      static_cast<size_t>(num_slots()));
  for (size_t i = 0; i < slot_of_.size(); ++i) {
    by_slot[static_cast<size_t>(slot_of_[i])].push_back(
        static_cast<int32_t>(i));
  }
  if (tier_ != MultiTier::kMixed) return by_slot;
  std::vector<std::vector<int32_t>> by_member;
  by_member.reserve(by_slot.size());
  for (int slot : product_slot_) {
    by_member.push_back(by_slot[static_cast<size_t>(slot)]);
  }
  for (int slot : dra_slot_) {
    by_member.push_back(by_slot[static_cast<size_t>(slot)]);
  }
  return by_member;
}

MultiQueryPlan::Stats MultiQueryPlan::stats() const {
  Stats stats;
  stats.num_queries = num_queries();
  stats.num_slots = num_slots();
  stats.tier = tier_;
  stats.fused_byte_table = eager_fused_ != nullptr;
  stats.eager_states = eager_ ? eager_->dfa.num_states : 0;
  stats.lazy_states = lazy_ ? lazy_->num_states() : 0;
  stats.lazy_overflowed = lazy_ ? lazy_->overflowed() : false;
  stats.stackless_members = static_cast<int>(dra_slot_.size());
  return stats;
}

// --- BatchSession --------------------------------------------------------

BatchSession::BatchSession(std::shared_ptr<const MultiQueryPlan> plan)
    : plan_(std::move(plan)) {
  if (plan_->tier() == MultiTier::kIndependent) {
    sessions_.reserve(static_cast<size_t>(plan_->num_slots()));
    for (const auto& slot_plan : plan_->slot_plans()) {
      sessions_.push_back(std::make_unique<Session>(slot_plan));
    }
    return;
  }
  runner_.emplace(plan_->options().plan.format, &plan_->alphabet(),
                  &plan_->scanner_tables(), plan_->eager(),
                  plan_->eager_fused(), plan_->lazy(), plan_->mixed_dras());
}

bool BatchSession::Feed(std::string_view chunk) {
  if (runner_) return runner_->Feed(chunk);
  // Lockstep: the scanners are identical, so every session sees the same
  // events and fails at the same byte; the conjunction is just defensive.
  bool ok = true;
  for (auto& session : sessions_) ok = session->Feed(chunk) && ok;
  return ok;
}

bool BatchSession::Finish() {
  if (runner_) return runner_->Finish();
  bool ok = true;
  for (auto& session : sessions_) ok = session->Finish() && ok;
  return ok;
}

void BatchSession::Reset() {
  if (runner_) {
    runner_->Reset();
    return;
  }
  for (auto& session : sessions_) session->Reset();
}

void BatchSession::set_limits(const StreamLimits& limits) {
  if (runner_) {
    runner_->selector().set_limits(limits);
    return;
  }
  for (auto& session : sessions_) session->selector().set_limits(limits);
}

void BatchSession::set_recovery_policy(RecoveryPolicy policy) {
  if (runner_) {
    runner_->selector().set_recovery_policy(policy);
    return;
  }
  for (auto& session : sessions_) {
    session->selector().set_recovery_policy(policy);
  }
}

void BatchSession::set_match_sink(MatchSink* sink) {
  if (runner_) {
    if (sink == nullptr) {
      runner_->selector().set_match_sink(nullptr);
      return;
    }
    fan_out_ = MatchFanOutSink(sink, plan_->MemberQueryIds());
    runner_->selector().set_match_sink(&fan_out_);
    return;
  }
  slot_sinks_.clear();
  if (sink == nullptr) {
    for (auto& session : sessions_) session->set_match_sink(nullptr);
    return;
  }
  // One adapter per lockstep slot session: each session emits query_id 0,
  // remapped here to the slot's submitted query indices.
  std::vector<std::vector<int32_t>> by_slot = plan_->MemberQueryIds();
  slot_sinks_.reserve(sessions_.size());
  for (size_t i = 0; i < sessions_.size(); ++i) {
    slot_sinks_.push_back(std::make_unique<MatchFanOutSink>(
        sink,
        std::vector<std::vector<int32_t>>{std::move(by_slot[i])}));
    sessions_[i]->set_match_sink(slot_sinks_.back().get());
  }
}

std::vector<int64_t> BatchSession::query_matches() const {
  if (runner_) {
    return plan_->ExpandCounts(
        plan_->MemberCountsToSlots(runner_->query_matches()));
  }
  std::vector<int64_t> slot_counts(sessions_.size());
  for (size_t i = 0; i < sessions_.size(); ++i) {
    slot_counts[i] = sessions_[i]->matches();
  }
  return plan_->ExpandCounts(slot_counts);
}

bool BatchSession::failed() const {
  if (runner_) return runner_->failed();
  return sessions_.front()->failed();
}

const StreamError& BatchSession::stream_error() const {
  if (runner_) return runner_->stream_error();
  return sessions_.front()->stream_error();
}

StreamStats BatchSession::stats() const {
  if (runner_) return runner_->stats();
  // Lockstep slots see the same framing, so the scanner-side counters are
  // identical across sessions; only the recorder counters differ per slot
  // (each slot has its own pending buffer) and the machine-side stack
  // diagnostics (slots may run different tiers — a stack-baseline slot
  // reports a peak while its stackless neighbors report 0). Sum the
  // monotone counters, max the peaks.
  StreamStats stats = sessions_.front()->stats();
  stats.matches_emitted = 0;
  stats.pending_matches_peak = 0;
  stats.max_stack_depth = 0;
  stats.underflow_closes = 0;
  for (const auto& session : sessions_) {
    StreamStats s = session->stats();
    stats.matches_emitted += s.matches_emitted;
    if (s.pending_matches_peak > stats.pending_matches_peak) {
      stats.pending_matches_peak = s.pending_matches_peak;
    }
    if (s.max_stack_depth > stats.max_stack_depth) {
      stats.max_stack_depth = s.max_stack_depth;
    }
    stats.underflow_closes += s.underflow_closes;
  }
  return stats;
}

MultiTier BatchSession::active_tier() const {
  if (runner_) return runner_->active_tier();
  return MultiTier::kIndependent;
}

bool BatchSession::one_scan_eligible() const {
  if (runner_) return runner_->one_scan_eligible();
  for (const auto& slot_plan : plan_->slot_plans()) {
    if (slot_plan->fused() == nullptr) return false;
  }
  return true;
}

std::vector<int64_t> BatchSession::CountSelections(
    std::string_view bytes) const {
  if (runner_) {
    return plan_->ExpandCounts(
        plan_->MemberCountsToSlots(runner_->CountSelections(bytes)));
  }
  SST_CHECK_MSG(one_scan_eligible(),
                "one-scan counting needs per-slot fused byte tables");
  std::vector<int64_t> slot_counts(sessions_.size());
  for (size_t i = 0; i < sessions_.size(); ++i) {
    slot_counts[i] =
        plan_->slot_plans()[i]->fused()->CountSelections(bytes);
  }
  return plan_->ExpandCounts(slot_counts);
}

// --- BatchSessionPool ----------------------------------------------------

BatchSessionPool::BatchSessionPool(std::shared_ptr<const MultiQueryPlan> plan,
                                   size_t max_idle)
    : plan_(std::move(plan)), max_idle_(max_idle) {}

std::unique_ptr<BatchSession> BatchSessionPool::Acquire() {
  std::unique_ptr<BatchSession> session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!idle_.empty()) {
      session = std::move(idle_.back());
      idle_.pop_back();
      ++stats_.reused;
    } else {
      ++stats_.created;
    }
    ++stats_.outstanding;
    if (stats_.outstanding > stats_.peak_outstanding) {
      stats_.peak_outstanding = stats_.outstanding;
    }
  }
  if (session == nullptr) return std::make_unique<BatchSession>(plan_);
  session->Reset();
  return session;
}

void BatchSessionPool::Release(std::unique_ptr<BatchSession> session) {
  if (session == nullptr) return;
  SST_CHECK(session->plan_ptr() == plan_);
  std::lock_guard<std::mutex> lock(mu_);
  --stats_.outstanding;
  if (idle_.size() < max_idle_) {
    idle_.push_back(std::move(session));
  } else {
    ++stats_.destroyed;
  }
}

SessionPool::Stats BatchSessionPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  SessionPool::Stats snapshot = stats_;
  snapshot.idle = static_cast<int64_t>(idle_.size());
  return snapshot;
}

size_t BatchSessionPool::idle() const {
  std::lock_guard<std::mutex> lock(mu_);
  return idle_.size();
}

}  // namespace sst
