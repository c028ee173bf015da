// served-open: examples/query_server as a child process, driven by the
// benchmark's own single-threaded open-loop generator (Poisson arrivals,
// latency timed from each document's due time, so queueing in the
// generator, the socket and the server all count).

#include <fcntl.h>
#include <sched.h>
#include <sys/prctl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <arpa/inet.h>
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <sstream>

#include "base/rng.h"
#include "testing/fault_injection.h"
#include "workloads.h"

namespace pb {

namespace {

constexpr size_t kFrameChunk = 8 << 10;  // kData payload size
constexpr int kServedDocs = 256;
constexpr double kFaultRate = 0.10;

int64_t MsToNs(double ms) { return static_cast<int64_t>(ms * 1e6); }

std::shared_ptr<const sst::MultiQueryPlan> ServedPlan() {
  static const auto plan = [] {
    std::vector<sst::BatchQuery> batch;
    for (const std::string& q : ServedBatchQueries()) {
      batch.push_back(sst::BatchQuery{sst::QuerySyntax::kXPath, q});
    }
    return sst::MultiQueryPlan::Compile(batch, BenchAlphabet(),
                                        sst::MultiQueryOptions{});
  }();
  return plan;
}

std::string RegisterPayload(bool matches) {
  sst::RegisterRequest request;
  request.alphabet = "abcdef";
  request.format = sst::StreamFormat::kCompactMarkup;
  request.queries = ServedBatchQueries();
  request.matches = matches;
  return sst::EncodeRegister(request);
}

void AppendDocumentFrames(std::string_view doc, std::string* out) {
  for (size_t pos = 0; pos < doc.size(); pos += kFrameChunk) {
    sst::AppendFrame(sst::FrameType::kData, doc.substr(pos, kFrameChunk),
                     out);
  }
  sst::AppendFrame(sst::FrameType::kFinish, "", out);
}

}  // namespace

int64_t ScrapedValue(const std::vector<std::pair<std::string, int64_t>>& m,
                     const std::string& name) {
  for (const auto& [key, value] : m) {
    if (key == name) return value;
  }
  return 0;
}

double WindowedP99(const std::vector<double>& due_s,
                   const std::vector<double>& latency_ms) {
  std::vector<size_t> order(latency_ms.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return due_s[a] < due_s[b]; });
  size_t windows = std::max<size_t>(1, order.size() / kWindowDocs);
  std::vector<double> p99s;
  for (size_t w = 0; w < windows; ++w) {
    size_t begin = w * order.size() / windows;
    size_t end = (w + 1) * order.size() / windows;
    std::vector<double> window;
    for (size_t k = begin; k < end; ++k) window.push_back(latency_ms[order[k]]);
    p99s.push_back(Percentile(window, 0.99));
  }
  return Median(p99s);
}

const std::vector<double>& ServedLadder() {
  static const std::vector<double> ladder = [] {
    std::vector<double> rates;
    for (double rate = 20; rate <= 64; rate += 2) rates.push_back(rate);
    return rates;
  }();
  return ladder;
}

std::vector<ServedDoc> MakeServedPool(uint64_t seed,
                                      const std::vector<std::string>& docs,
                                      double fault_rate) {
  sst::Rng rng(seed * 0x2545f4914f6cdd1dULL + 3);
  std::vector<ServedDoc> pool;
  sst::BatchSession session(ServedPlan());
  sst::MatchWireBuffer wire;
  session.set_match_sink(&wire);
  for (size_t i = 0; i < docs.size(); ++i) {
    ServedDoc doc;
    doc.bytes = docs[i];
    if (fault_rate > 0 && rng.NextBool(fault_rate)) {
      sst::FaultInjector injector(seed * 7919 + i);
      doc.faulted = injector.ApplyRandom(&doc.bytes).changed;
    }
    // Offline verdict over the same 8 KiB chunking the wire carries.
    session.Reset();
    wire.Reset();
    bool ok = true;
    for (size_t pos = 0; pos < doc.bytes.size() && ok; pos += kFrameChunk) {
      ok = session.Feed(std::string_view(doc.bytes).substr(pos, kFrameChunk));
    }
    ok = ok && session.Finish();
    doc.ok = ok;
    if (ok) {
      doc.counts = session.query_matches();
    } else {
      doc.error = sst::StreamErrorInfo(session.stream_error(),
                                       &BenchAlphabet());
    }
    doc.records = wire.Take();
    pool.push_back(std::move(doc));
  }
  return pool;
}

std::vector<ServedDoc> MakeServedOpenPool(uint64_t seed) {
  sst::Rng rng(seed * 131 + 7);
  std::vector<std::string> docs;
  for (int i = 0; i < kServedDocs; ++i) {
    size_t size = 2048 + static_cast<size_t>(rng.NextBelow(18 * 1024 + 1));
    docs.push_back(RandomDocument(rng.NextU64(), size, i % 2 == 0));
  }
  return MakeServedPool(seed, docs, kFaultRate);
}

// --- Harness ---------------------------------------------------------------

struct ServedHarness::Conn {
  int fd = -1;
  bool matches = false;
  sst::FrameDecoder decoder{1 << 21};
  std::string out;
  size_t out_pos = 0;
  struct InFlight {
    int doc = 0;
    int64_t due_ns = 0;
    int64_t first_match_ns = -1;
    std::vector<std::string> match_payloads;  // parsed after the step
  };
  std::deque<InFlight> inflight;
};

ServedHarness::ServedHarness(const Config& config,
                             const std::vector<ServedDoc>* pool)
    : config_(config), pool_(pool) {
  register_counts_ = RegisterPayload(false);
  register_matches_ = RegisterPayload(true);
}

ServedHarness::~ServedHarness() {
  if (pid_ > 0) Stop();
}

double ServedHarness::Start() {
  int64_t start = NowNs();
  std::string port_file = config_.work_dir + "/server.port";
  std::string log_file = config_.work_dir + "/server.log";
  unlink(port_file.c_str());
  // The generator and the server get disjoint CPUs (the first allowed CPU
  // for the spinning generator, the rest for the server), so the load
  // generator never competes with the system it measures.
  cpu_set_t server_cpus, generator_cpu;
  CPU_ZERO(&server_cpus);
  CPU_ZERO(&generator_cpu);
  saved_affinity_ok_ =
      sched_getaffinity(0, sizeof saved_affinity_, &saved_affinity_) == 0;
  if (saved_affinity_ok_ && CPU_COUNT(&saved_affinity_) >= 2) {
    bool first = true;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (!CPU_ISSET(c, &saved_affinity_)) continue;
      CPU_SET(c, first ? &generator_cpu : &server_cpus);
      first = false;
    }
  }
  pid_ = fork();
  if (pid_ < 0) Die("fork failed");
  if (pid_ == 0) {
    // The server must not outlive the benchmark, however it ends.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    int log = open(log_file.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (log >= 0) {
      dup2(log, 1);
      dup2(log, 2);
    }
    if (CPU_COUNT(&server_cpus) > 0) {
      sched_setaffinity(0, sizeof server_cpus, &server_cpus);
    }
    execl(config_.server_binary.c_str(), "query_server", "--port", "0",
          "--port-file", port_file.c_str(), "--workers", "2",
          "--drain-deadline-ms", "2000", static_cast<char*>(nullptr));
    _exit(127);
  }
  TrackChild(pid_);
  if (CPU_COUNT(&generator_cpu) > 0) {
    sched_setaffinity(0, sizeof generator_cpu, &generator_cpu);
  }

  // The port file appears once the server listens.
  port_ = 0;
  while (port_ == 0) {
    std::ifstream in(port_file);
    std::string line;
    if (std::getline(in, line) && !in.eof()) port_ = std::atoi(line.c_str());
    if (port_ == 0) {
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        UntrackChild(pid_);
        pid_ = -1;
        Die("query_server exited during start");
      }
      if (SecondsSince(start) > 30) Die("query_server did not listen");
      usleep(200);
    }
  }

  // At most nproc (and at most 4) connections; the last one opts into
  // kMatches.
  long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  int n = static_cast<int>(std::clamp(nproc, 1L, 4L));
  conns_.clear();
  for (int i = 0; i < n; ++i) {
    auto conn = std::make_unique<Conn>();
    conn->fd = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port_));
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (connect(conn->fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
        0) {
      Die(std::string("connect: ") + std::strerror(errno));
    }
    int one = 1;
    setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    fcntl(conn->fd, F_SETFL, fcntl(conn->fd, F_GETFL) | O_NONBLOCK);
    conn->matches = i == n - 1;
    sst::AppendFrame(sst::FrameType::kRegister,
                     conn->matches ? register_matches_ : register_counts_,
                     &conn->out);
    conns_.push_back(std::move(conn));
  }
  FlushAll();
  for (auto& conn : conns_) {
    std::vector<sst::Frame> frames;
    while (frames.empty()) {
      pollfd pfd{conn->fd, POLLIN, 0};
      poll(&pfd, 1, 100);
      if (!ReadFrames(*conn, &frames)) Die("connection closed at register");
      if (SecondsSince(start) > 30) Die("no kRegistered");
    }
    if (frames[0].type != sst::FrameType::kRegistered) {
      Die("registration refused: " + frames[0].payload);
    }
  }

  // First document accepted: one clean document served and verified.
  size_t first = 0;
  while ((*pool_)[first].faulted) ++first;
  Conn& conn = *conns_[0];
  AppendDocumentFrames((*pool_)[first].bytes, &conn.out);
  FlushAll();
  std::vector<sst::Frame> frames;
  while (frames.empty()) {
    pollfd pfd{conn.fd, static_cast<short>(conn.out_pos < conn.out.size()
                                               ? POLLIN | POLLOUT
                                               : POLLIN),
               0};
    poll(&pfd, 1, 100);
    FlushAll();
    if (!ReadFrames(conn, &frames)) Die("connection closed on first document");
    if (SecondsSince(start) > 30) Die("first document not answered");
  }
  std::vector<int64_t> counts;
  if (frames[0].type != sst::FrameType::kCounts ||
      !sst::ParseCounts(frames[0].payload, &counts) ||
      counts != (*pool_)[first].counts) {
    Die("first served document answered wrongly");
  }
  return SecondsSince(start);
}

bool ServedHarness::ReadFrames(Conn& conn, std::vector<sst::Frame>* frames) {
  char buf[64 * 1024];
  bool open = true;
  while (true) {
    ssize_t n = read(conn.fd, buf, sizeof buf);
    // Acknowledge at once: the server does not set TCP_NODELAY, so with
    // delayed ACKs its small reply frames stall for a delayed-ACK timeout
    // (about 4 ms on Linux loopback) on some connections and not others.
    // Quick ACKs keep the measurement on the server's own latency.
    int one = 1;
    setsockopt(conn.fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
    if (n > 0) {
      conn.decoder.Append(std::string_view(buf, static_cast<size_t>(n)));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    open = false;
    break;
  }
  sst::Frame frame;
  sst::FrameDecoder::Status status;
  while ((status = conn.decoder.Next(&frame)) ==
         sst::FrameDecoder::Status::kFrame) {
    frames->push_back(std::move(frame));
  }
  if (status != sst::FrameDecoder::Status::kNeedMore) {
    Die("undecodable frame from server");
  }
  return open;
}

void ServedHarness::FlushAll() {
  for (auto& conn : conns_) {
    while (conn->out_pos < conn->out.size()) {
      ssize_t n = send(conn->fd, conn->out.data() + conn->out_pos,
                       conn->out.size() - conn->out_pos, MSG_NOSIGNAL);
      if (n > 0) {
        conn->out_pos += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      Die(std::string("send: ") + std::strerror(errno));
    }
    if (conn->out_pos == conn->out.size()) {
      conn->out.clear();
      conn->out_pos = 0;
    } else if (conn->out_pos > (1 << 20)) {
      conn->out.erase(0, conn->out_pos);
      conn->out_pos = 0;
    }
  }
}

ServedStep ServedHarness::RunStep(double rate_mib_s, double seconds,
                                  uint64_t seed, Tracer* tracer,
                                  Report* report) {
  const std::vector<ServedDoc>& pool = *pool_;
  double mean_bytes = 0;
  for (const ServedDoc& d : pool) mean_bytes += static_cast<double>(d.bytes.size());
  mean_bytes /= static_cast<double>(pool.size());
  const double arrivals_per_s = rate_mib_s * kMiB / mean_bytes;

  ServedStep step;
  sst::Rng rng(seed);
  auto gap_ns = [&] {
    double u = rng.NextDouble();
    return static_cast<int64_t>(-std::log(1.0 - u) / arrivals_per_s * 1e9);
  };
  const int64_t t_start = NowNs();
  const int64_t t_end = t_start + static_cast<int64_t>(seconds * 1e9);
  const int64_t t_give_up = t_end + MsToNs(20000);
  int64_t next_due = t_start + gap_ns();
  int64_t next_sample = t_start;
  size_t rr = 0;
  int64_t outstanding = 0;
  int64_t arrivals = 0;
  double completed_bytes = 0;
  std::vector<double> sample_t, sample_backlog;
  std::vector<pollfd> pfds(conns_.size());
  std::vector<sst::Frame> frames;
  // kMatches payloads of answered documents, checked after the step so
  // parsing them does not delay the generator.
  std::vector<std::pair<int, std::vector<std::string>>> to_verify;

  while (true) {
    int64_t now = NowNs();
    // Send everything that has come due.
    while (next_due <= now && next_due < t_end) {
      ScopedSpan span(tracer, kSpanSend);
      int doc = static_cast<int>(rng.NextBelow(pool.size()));
      Conn& conn = *conns_[rr++ % conns_.size()];
      AppendDocumentFrames(pool[static_cast<size_t>(doc)].bytes, &conn.out);
      conn.inflight.push_back(Conn::InFlight{doc, next_due, -1, {}});
      step.lag_ms.push_back(static_cast<double>(now - next_due) * 1e-6);
      ++outstanding;
      ++arrivals;
      next_due += gap_ns();
    }
    FlushAll();
    if (now < t_end && now >= next_sample) {
      sample_t.push_back(static_cast<double>(now - t_start) * 1e-9);
      sample_backlog.push_back(static_cast<double>(outstanding));
      next_sample = now + MsToNs(2);
    }
    if (now >= t_end && outstanding == 0) break;
    if (now >= t_give_up) {
      // Timed out: every document still in flight is a failed operation.
      step.attempted += outstanding;
      step.failed += outstanding;
      for (auto& conn : conns_) conn->inflight.clear();
      break;
    }

    // The generator spins (zero-timeout polls) instead of sleeping: on a
    // virtual machine a sleeping thread can wake milliseconds late, which
    // would be measured as server latency.
    for (size_t i = 0; i < conns_.size(); ++i) {
      pfds[i] = pollfd{conns_[i]->fd,
                       static_cast<short>(conns_[i]->out_pos <
                                                  conns_[i]->out.size()
                                              ? POLLIN | POLLOUT
                                              : POLLIN),
                       0};
    }
    timespec ts{0, 0};
    ppoll(pfds.data(), pfds.size(), &ts, nullptr);

    for (size_t i = 0; i < conns_.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& conn = *conns_[i];
      frames.clear();
      bool open;
      {
        ScopedSpan span(tracer, kSpanRecv);
        open = ReadFrames(conn, &frames);
      }
      int64_t at = NowNs();
      for (sst::Frame& frame : frames) {
        if (conn.inflight.empty()) Die("unsolicited frame from server");
        Conn::InFlight& head = conn.inflight.front();
        const ServedDoc& doc = pool[static_cast<size_t>(head.doc)];
        if (frame.type == sst::FrameType::kMatches) {
          if (head.first_match_ns < 0) head.first_match_ns = at;
          head.match_payloads.push_back(std::move(frame.payload));
          continue;
        }
        bool failed = false;
        if (frame.type == sst::FrameType::kCounts) {
          std::vector<int64_t> counts;
          if (!doc.ok || !sst::ParseCounts(frame.payload, &counts) ||
              counts != doc.counts) {
            report->Mismatch("served counts for doc " +
                             std::to_string(head.doc));
          }
        } else if (frame.type == sst::FrameType::kError) {
          sst::ErrorInfo info;
          if (doc.ok || !sst::ParseErrorInfo(frame.payload, &info) ||
              info.code != doc.error.code ||
              info.offset != doc.error.offset) {
            report->Mismatch("served verdict for doc " +
                             std::to_string(head.doc) + ": " +
                             frame.payload);
          }
        } else if (frame.type == sst::FrameType::kShed) {
          failed = true;  // refused by admission or a deadline
        } else {
          report->Mismatch(std::string("unexpected frame ") +
                           sst::FrameTypeName(frame.type));
        }
        if (conn.matches && !failed) {
          to_verify.emplace_back(head.doc, std::move(head.match_payloads));
        }
        double latency = static_cast<double>(at - head.due_ns) * 1e-6;
        ++step.attempted;
        if (failed) ++step.failed;
        step.latency_ms.push_back(latency);
        step.due_s.push_back(static_cast<double>(head.due_ns - t_start) *
                             1e-9);
        step.docs.push_back(head.doc);
        if (conn.matches && head.first_match_ns >= 0) {
          step.first_match_ms.push_back(
              static_cast<double>(head.first_match_ns - head.due_ns) * 1e-6);
        }
        completed_bytes += static_cast<double>(doc.bytes.size());
        conn.inflight.pop_front();
        --outstanding;
      }
      if (!open) Die("server closed a connection");
    }
  }
  for (auto& [doc, payloads] : to_verify) {
    std::vector<sst::MatchWireRecord> records, frame_records;
    for (const std::string& payload : payloads) {
      if (!sst::ParseMatches(payload, &frame_records)) {
        report->Mismatch("unparseable kMatches payload");
      }
      records.insert(records.end(), frame_records.begin(),
                     frame_records.end());
    }
    if (records != pool[static_cast<size_t>(doc)].records) {
      report->Mismatch("served kMatches records for doc " +
                       std::to_string(doc));
    }
  }
  for (int64_t i = 0; i < step.attempted; ++i) {
    report->Attempt(i < step.failed);
  }
  step.ladder.offered_mib_s = rate_mib_s;
  step.ladder.achieved_mib_s = completed_bytes / kMiB / seconds;
  step.ladder.p99_ms = Percentile(step.latency_ms, 0.99);
  step.ladder.arrivals_per_s = static_cast<double>(arrivals) / seconds;
  step.ladder.backlog_slope_per_s = Slope(sample_t, sample_backlog);
  return step;
}

std::vector<std::pair<std::string, int64_t>> ServedHarness::ScrapeMetrics() {
  Conn& conn = *conns_[0];
  if (!conn.inflight.empty()) Die("metrics scrape with documents in flight");
  sst::AppendFrame(sst::FrameType::kMetrics, "", &conn.out);
  FlushAll();
  std::vector<sst::Frame> frames;
  int64_t start = NowNs();
  while (frames.empty()) {
    pollfd pfd{conn.fd, POLLIN, 0};
    poll(&pfd, 1, 100);
    if (!ReadFrames(conn, &frames)) Die("closed during metrics scrape");
    if (SecondsSince(start) > 10) Die("no kMetricsText");
  }
  if (frames[0].type != sst::FrameType::kMetricsText) {
    Die("unexpected reply to kMetrics");
  }
  std::vector<std::pair<std::string, int64_t>> out;
  std::istringstream in(frames[0].payload);
  std::string name;
  int64_t value = 0;
  while (in >> name >> value) out.emplace_back(name, value);
  return out;
}

double ServedHarness::ServerPeakRssMib() const { return PeakRssMib(pid_); }

void ServedHarness::Stop() {
  for (auto& conn : conns_) {
    sst::AppendFrame(sst::FrameType::kGoodbye, "", &conn->out);
  }
  FlushAll();
  for (auto& conn : conns_) close(conn->fd);
  conns_.clear();
  if (pid_ <= 0) return;
  kill(pid_, SIGTERM);
  int status = 0;
  int64_t start = NowNs();
  while (waitpid(pid_, &status, WNOHANG) != pid_) {
    if (SecondsSince(start) > 20) Die("query_server did not drain");
    usleep(500);
  }
  UntrackChild(pid_);
  pid_ = -1;
  if (saved_affinity_ok_) {
    sched_setaffinity(0, sizeof saved_affinity_, &saved_affinity_);
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    Die("query_server drain exit status " + std::to_string(status));
  }
}

}  // namespace pb
