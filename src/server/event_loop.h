#ifndef SST_SERVER_EVENT_LOOP_H_
#define SST_SERVER_EVENT_LOOP_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace sst {

// A poll(2)-driven single-threaded reactor: the execution substrate of one
// server worker (and of the acceptor). Everything except Post() and
// RequestStop() must be called from the loop's own thread; cross-thread
// work arrives as posted tasks through a self-pipe wakeup.
//
// Readiness is level-triggered. Each registered fd carries a handler, its
// read/write interest (the connection layer toggles read interest for
// backpressure), and an optional absolute deadline in loop-monotonic
// milliseconds — the loop's poll timeout is the nearest armed deadline, so
// idle/write timeouts fire without any background timer thread. One-shot
// whole-loop timers (RunAt) serve the drain deadline.
//
// The pollfd array is rebuilt per iteration from the registry. At the
// serving layer's scale (thousands of connections, each waking rarely)
// the rebuild is noise next to the byte-scanning work the wakeups
// trigger; if profiles ever disagree, the registry is the one place an
// epoll backend would slot in.
class EventLoop {
 public:
  class Handler {
   public:
    virtual ~Handler() = default;
    virtual void OnReadable(int fd) = 0;
    virtual void OnWritable(int fd) = 0;
    // POLLERR / POLLHUP / POLLNVAL. Default: treat as readable so the
    // handler observes EOF/ECONNRESET through its normal read path.
    virtual void OnError(int fd) { OnReadable(fd); }
    // The fd's armed deadline expired (it is cleared before the call).
    virtual void OnDeadline(int fd, int64_t now_ms) = 0;
  };

  static constexpr int64_t kNoDeadline = 0;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Monotonic milliseconds; the time base of all deadlines.
  static int64_t NowMs();

  // --- Loop-thread interface ---------------------------------------------
  void Add(int fd, Handler* handler, bool want_read, bool want_write);
  void SetWants(int fd, bool want_read, bool want_write);
  // Absolute deadline (NowMs() base); kNoDeadline disarms.
  void SetDeadline(int fd, int64_t deadline_ms);
  void Remove(int fd);
  bool Contains(int fd) const { return entries_.count(fd) != 0; }
  size_t size() const { return entries_.size(); }

  // One-shot timer: run `fn` once now_ms >= when_ms.
  void RunAt(int64_t when_ms, std::function<void()> fn);

  // Runs until RequestStop(). Dispatch order per iteration: posted tasks,
  // fd readiness, expired deadlines and timers.
  void Run();

  // --- Any-thread interface ------------------------------------------------
  // Enqueues a task onto the loop thread and wakes it.
  void Post(std::function<void()> task);
  void RequestStop();

 private:
  struct Entry {
    Handler* handler = nullptr;
    bool want_read = false;
    bool want_write = false;
    int64_t deadline_ms = kNoDeadline;
  };
  struct Timer {
    int64_t when_ms = 0;
    std::function<void()> fn;
  };

  void Wake();
  void DrainWakePipe();
  int64_t NextTimeoutMs(int64_t now_ms) const;

  std::unordered_map<int, Entry> entries_;
  std::vector<Timer> timers_;

  int wake_pipe_[2] = {-1, -1};
  bool stop_ = false;

  std::mutex post_mu_;
  std::vector<std::function<void()>> posted_;
  bool stop_posted_ = false;
};

// Sets O_NONBLOCK on `fd`; every fd an EventLoop watches must be
// non-blocking.
void SetNonBlocking(int fd);

}  // namespace sst

#endif  // SST_SERVER_EVENT_LOOP_H_
