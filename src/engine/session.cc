#include "engine/session.h"

#include "base/check.h"

namespace sst {

Session::Session(std::shared_ptr<const QueryPlan> plan)
    : plan_(std::move(plan)),
      machine_(plan_->NewMachine()),
      selector_(machine_.get(), plan_->options().format, &plan_->alphabet(),
                &plan_->scanner_tables(), plan_->fused(),
                plan_->fused_dras()) {
  SST_CHECK_MSG(machine_ != nullptr,
                "Session requires an exact plan (plan->exact())");
}

SessionPool::SessionPool(std::shared_ptr<const QueryPlan> plan,
                         size_t max_idle)
    : plan_(std::move(plan)), max_idle_(max_idle) {}

std::unique_ptr<Session> SessionPool::Acquire() {
  std::unique_ptr<Session> session;
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
  if (session == nullptr) return std::make_unique<Session>(plan_);
  session->Reset();
  return session;
}

void SessionPool::Release(std::unique_ptr<Session> session) {
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

SessionPool::Stats SessionPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats snapshot = stats_;
  snapshot.idle = static_cast<int64_t>(idle_.size());
  return snapshot;
}

size_t SessionPool::idle() const {
  std::lock_guard<std::mutex> lock(mu_);
  return idle_.size();
}

}  // namespace sst
