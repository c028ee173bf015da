#include "server/event_loop.h"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <utility>

#include "base/check.h"

namespace sst {

void SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  SST_CHECK(flags >= 0);
  SST_CHECK(fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0);
}

EventLoop::EventLoop() {
  SST_CHECK(pipe(wake_pipe_) == 0);
  SetNonBlocking(wake_pipe_[0]);
  SetNonBlocking(wake_pipe_[1]);
}

EventLoop::~EventLoop() {
  close(wake_pipe_[0]);
  close(wake_pipe_[1]);
}

int64_t EventLoop::NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void EventLoop::Add(int fd, Handler* handler, bool want_read,
                    bool want_write) {
  SST_CHECK(handler != nullptr);
  auto [it, inserted] = entries_.emplace(fd, Entry{});
  SST_CHECK_MSG(inserted, "fd already registered with this loop");
  it->second.handler = handler;
  it->second.want_read = want_read;
  it->second.want_write = want_write;
}

void EventLoop::SetWants(int fd, bool want_read, bool want_write) {
  auto it = entries_.find(fd);
  SST_CHECK(it != entries_.end());
  it->second.want_read = want_read;
  it->second.want_write = want_write;
}

void EventLoop::SetDeadline(int fd, int64_t deadline_ms) {
  auto it = entries_.find(fd);
  SST_CHECK(it != entries_.end());
  it->second.deadline_ms = deadline_ms;
}

void EventLoop::Remove(int fd) { entries_.erase(fd); }

void EventLoop::RunAt(int64_t when_ms, std::function<void()> fn) {
  timers_.push_back(Timer{when_ms, std::move(fn)});
}

void EventLoop::Post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    posted_.push_back(std::move(task));
  }
  Wake();
}

void EventLoop::RequestStop() {
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    stop_posted_ = true;
  }
  Wake();
}

void EventLoop::Wake() {
  char byte = 'w';
  // A full pipe already guarantees a pending wakeup; EAGAIN is fine.
  ssize_t ignored = write(wake_pipe_[1], &byte, 1);
  (void)ignored;
}

void EventLoop::DrainWakePipe() {
  char buf[64];
  while (read(wake_pipe_[0], buf, sizeof buf) > 0) {
  }
}

int64_t EventLoop::NextTimeoutMs(int64_t now_ms) const {
  int64_t next = -1;  // -1: poll blocks indefinitely
  for (const auto& [fd, entry] : entries_) {
    if (entry.deadline_ms == kNoDeadline) continue;
    int64_t wait = std::max<int64_t>(0, entry.deadline_ms - now_ms);
    if (next < 0 || wait < next) next = wait;
  }
  for (const Timer& timer : timers_) {
    int64_t wait = std::max<int64_t>(0, timer.when_ms - now_ms);
    if (next < 0 || wait < next) next = wait;
  }
  return next;
}

void EventLoop::Run() {
  stop_ = false;
  std::vector<pollfd> pollfds_;  // scratch, rebuilt per iteration
  while (true) {
    // Posted tasks first: adoption of new connections, drain commands.
    std::vector<std::function<void()>> tasks;
    {
      std::lock_guard<std::mutex> lock(post_mu_);
      tasks.swap(posted_);
      if (stop_posted_) {
        stop_posted_ = false;
        stop_ = true;
      }
    }
    for (auto& task : tasks) task();
    if (stop_) return;

    int64_t now = NowMs();
    pollfds_.clear();
    pollfds_.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
    for (const auto& [fd, entry] : entries_) {
      short events = 0;
      if (entry.want_read) events |= POLLIN;
      if (entry.want_write) events |= POLLOUT;
      pollfds_.push_back(pollfd{fd, events, 0});
    }

    int64_t timeout = NextTimeoutMs(now);
    int ready = poll(pollfds_.data(), pollfds_.size(),
                     timeout > static_cast<int64_t>(INT32_MAX)
                         ? INT32_MAX
                         : static_cast<int>(timeout));
    if (ready < 0 && errno != EINTR) SST_CHECK_MSG(false, "poll failed");

    DrainWakePipe();

    // Dispatch readiness. Handlers may Remove() themselves (or others)
    // mid-dispatch, so re-validate each fd against the registry and
    // re-read its handler every time.
    for (size_t i = 1; i < pollfds_.size(); ++i) {
      const pollfd& pfd = pollfds_[i];
      if (pfd.revents == 0) continue;
      auto it = entries_.find(pfd.fd);
      if (it == entries_.end()) continue;
      if (pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) {
        it->second.handler->OnError(pfd.fd);
        continue;
      }
      if (pfd.revents & POLLIN) {
        it->second.handler->OnReadable(pfd.fd);
        it = entries_.find(pfd.fd);
        if (it == entries_.end()) continue;
      }
      if (pfd.revents & POLLOUT) it->second.handler->OnWritable(pfd.fd);
    }

    // Expired fd deadlines. Collect first: OnDeadline typically closes
    // the connection and mutates the registry.
    now = NowMs();
    std::vector<int> expired;
    for (const auto& [fd, entry] : entries_) {
      if (entry.deadline_ms != kNoDeadline && entry.deadline_ms <= now) {
        expired.push_back(fd);
      }
    }
    for (int fd : expired) {
      auto it = entries_.find(fd);
      if (it == entries_.end()) continue;
      if (it->second.deadline_ms == kNoDeadline ||
          it->second.deadline_ms > now) {
        continue;  // re-armed during this dispatch round
      }
      it->second.deadline_ms = kNoDeadline;
      it->second.handler->OnDeadline(fd, now);
    }

    // One-shot timers.
    if (!timers_.empty()) {
      std::vector<Timer> due;
      for (size_t i = 0; i < timers_.size();) {
        if (timers_[i].when_ms <= now) {
          due.push_back(std::move(timers_[i]));
          timers_[i] = std::move(timers_.back());
          timers_.pop_back();
        } else {
          ++i;
        }
      }
      for (Timer& timer : due) timer.fn();
    }
  }
}

}  // namespace sst
