// Closed-loop load generator for the query service (examples/query_server):
// N concurrent connections driven by ONE poll loop, each registering a
// query batch and then streaming documents chunk-by-chunk, never starting
// a document before the previous one's verdict arrived (closed loop, so
// measured latency is the server's, not queueing in the client).
//
//   load_client --port 7007 --connections 200 --docs 20 --chunk-size 4096
//   load_client --port 7007 --fault-rate 0.3 --seed 9   # chaos mix
//   load_client --port 7007 --json-out raw.json         # bench artifact
//   load_client --port 7007 --matches                   # streamed spans
//   load_client --port 7007 --json-out raw.json --git-sha SHA  # provenance
//
// Reports per-document latency (p50/p99), throughput in MiB/s, and the
// verdict mix (counts / stream errors / sheds). With --matches every
// connection opts into streamed MatchEvent spans (kMatches frames); the
// client verifies each clean document's record sequence against an
// offline CollectingSink run over the same bytes and reports p50/p99
// first-emission latency (document start to first kMatches frame). With
// --json-out it writes Google-Benchmark-shaped JSON for
// bench/bench_to_json.py. Exit status is non-zero when any verified count
// or match log mismatches the offline engine run over the same bytes.

#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <vector>

#include "base/rng.h"
#include "engine/multi_query.h"
#include "server/protocol.h"
#include "testing/fault_injection.h"
#include "trees/encoding.h"
#include "trees/tree.h"

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

void RaiseFdLimit() {
  rlimit limit{};
  if (getrlimit(RLIMIT_NOFILE, &limit) != 0) return;
  if (limit.rlim_cur < limit.rlim_max) {
    limit.rlim_cur = limit.rlim_max;
    setrlimit(RLIMIT_NOFILE, &limit);
  }
}

struct Config {
  std::string host = "127.0.0.1";
  int port = 0;
  int connections = 8;
  int docs_per_connection = 20;
  size_t chunk_size = 4096;
  int batch = 4;  // queries per registration
  double fault_rate = 0.0;
  uint64_t seed = 7;
  double timeout_s = 120.0;
  const char* json_out = nullptr;
  bool matches = false;  // opt into streamed MatchEvent spans
  const char* git_sha = nullptr;  // --json-out provenance, when given
};

// The serve_many query family over {a..f}.
std::vector<std::string> QueryTexts(int n) {
  std::vector<std::string> all;
  const char* letters = "abcdef";
  for (int x = 0; x < 6; ++x) {
    for (int y = 0; y < 6; ++y) {
      if (x != y) {
        all.push_back(std::string("/") + letters[x] + "//" + letters[y]);
      }
    }
  }
  std::vector<std::string> texts;
  for (int i = 0; i < n; ++i) {
    texts.push_back(all[static_cast<size_t>(i) % all.size()]);
  }
  return texts;
}

struct Workload {
  std::vector<std::string> documents;            // clean docs
  std::vector<std::vector<int64_t>> expected;    // offline engine counts
  // Offline match-record oracle per clean document (--matches): the same
  // BatchSession the server runs, drained through a MatchWireBuffer. The
  // match-event log is chunking-invariant, so the whole-document offline
  // feed predicts the server's incremental kMatches flushes exactly.
  std::vector<std::vector<sst::MatchWireRecord>> expected_records;
  std::vector<std::string> faulted;              // mutated variants
  std::string register_payload;
};

Workload BuildWorkload(const Config& config) {
  Workload workload;
  sst::Alphabet alphabet = sst::Alphabet::FromLetters("abcdef");
  std::vector<std::string> queries = QueryTexts(config.batch);

  sst::RegisterRequest request;
  request.alphabet = "abcdef";
  request.format = sst::StreamFormat::kCompactMarkup;
  request.queries = queries;
  request.matches = config.matches;
  workload.register_payload = sst::EncodeRegister(request);

  sst::Rng rng(config.seed);
  constexpr int kPoolSize = 16;
  for (int d = 0; d < kPoolSize; ++d) {
    sst::Tree tree;
    tree.AddRoot(static_cast<sst::Symbol>(rng.NextBelow(6)));
    int nodes = 2000 + static_cast<int>(rng.NextBelow(8000));
    for (int i = 1; i < nodes; ++i) {
      int parent = rng.NextBool(0.6) ? i - 1
                                     : static_cast<int>(rng.NextBelow(i));
      tree.AddChild(parent, static_cast<sst::Symbol>(rng.NextBelow(6)));
    }
    workload.documents.push_back(
        sst::ToCompactMarkup(alphabet, sst::Encode(tree)));
  }

  // Ground truth: the same engine path the server runs, offline.
  std::vector<sst::BatchQuery> batch;
  for (const std::string& text : queries) {
    batch.push_back(sst::BatchQuery{sst::QuerySyntax::kXPath, text});
  }
  auto plan = sst::MultiQueryPlan::Compile(batch, alphabet,
                                           sst::MultiQueryOptions{});
  sst::BatchSession session(plan);
  sst::MatchWireBuffer oracle;
  if (config.matches) session.set_match_sink(&oracle);
  for (const std::string& doc : workload.documents) {
    session.Reset();
    oracle.Reset();
    bool ok = session.Feed(doc) && session.Finish();
    if (!ok) {
      std::fprintf(stderr, "clean document failed offline?\n");
      std::exit(1);
    }
    workload.expected.push_back(session.query_matches());
    if (config.matches) workload.expected_records.push_back(oracle.Take());
  }

  if (config.fault_rate > 0.0) {
    sst::FaultInjector injector(config.seed * 7919 + 1);
    for (const std::string& doc : workload.documents) {
      std::string mutated = doc;
      injector.ApplyRandom(&mutated);
      workload.faulted.push_back(std::move(mutated));
    }
  }
  return workload;
}

enum class ConnState {
  kConnecting,
  kAwaitRegistered,
  kAwaitVerdict,
  kClosing,  // goodbye queued; flush, then close
  kClosed,
};

struct Conn {
  int fd = -1;
  ConnState state = ConnState::kConnecting;
  sst::FrameDecoder decoder{1 << 20};
  std::string out;
  size_t out_pos = 0;
  int docs_done = 0;
  int doc_index = 0;     // which pool document is in flight
  bool doc_faulted = false;
  Clock::time_point doc_start;
  bool failed = false;
  // --matches bookkeeping for the in-flight document.
  std::vector<sst::MatchWireRecord> records;
  bool saw_match_frame = false;
  double first_match_ms = 0.0;
};

struct Totals {
  std::vector<double> latencies_ms;
  std::vector<double> first_match_ms;  // doc start -> first kMatches frame
  long long bytes_sent = 0;
  long long ok = 0;
  long long stream_errors = 0;
  long long sheds = 0;
  long long mismatches = 0;
  long long match_records = 0;
  long long connection_failures = 0;
};

class Driver {
 public:
  Driver(const Config& config, const Workload& workload)
      : config_(config), workload_(workload), rng_(config.seed ^ 0x9e3779b9) {}

  bool Run() {
    conns_.resize(static_cast<size_t>(config_.connections));
    start_ = Clock::now();
    for (Conn& conn : conns_) {
      if (!OpenConnection(conn)) {
        conn.state = ConnState::kClosed;
        conn.failed = true;
        ++totals_.connection_failures;
      }
    }
    std::vector<pollfd> pollfds;
    std::vector<Conn*> owners;  // pollfds[i] belongs to owners[i]
    while (true) {
      pollfds.clear();
      owners.clear();
      for (Conn& conn : conns_) {
        if (conn.state == ConnState::kClosed) continue;
        short events = POLLIN;
        if (conn.state == ConnState::kConnecting ||
            conn.out_pos < conn.out.size()) {
          events |= POLLOUT;
        }
        pollfds.push_back(pollfd{conn.fd, events, 0});
        owners.push_back(&conn);
      }
      if (pollfds.empty()) break;
      if (MsSince(start_) > config_.timeout_s * 1000.0) {
        std::fprintf(stderr, "load_client: global timeout\n");
        return false;
      }
      int ready = poll(pollfds.data(), pollfds.size(), 1000);
      if (ready < 0 && errno != EINTR) {
        std::perror("poll");
        return false;
      }
      for (size_t i = 0; i < pollfds.size(); ++i) {
        Conn& conn = *owners[i];
        const pollfd& pfd = pollfds[i];
        if (conn.state == ConnState::kClosed) continue;  // closed this round
        if (pfd.revents == 0) continue;
        if (pfd.revents & (POLLERR | POLLNVAL)) {
          CloseConn(conn, /*failed=*/conn.state != ConnState::kClosing);
          continue;
        }
        if (pfd.revents & POLLOUT) {
          if (conn.state == ConnState::kConnecting) {
            OnConnected(conn);
          }
          if (conn.state != ConnState::kClosed) FlushOut(conn);
        }
        if (conn.state != ConnState::kClosed && (pfd.revents & POLLIN)) {
          OnReadable(conn);
        }
      }
    }
    return true;
  }

  Totals& totals() { return totals_; }

 private:
  bool OpenConnection(Conn& conn) {
    conn.fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (conn.fd < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(config_.port));
    if (inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
      return false;
    }
    int rc = connect(conn.fd, reinterpret_cast<sockaddr*>(&addr),
                     sizeof addr);
    if (rc != 0 && errno != EINPROGRESS) return false;
    return true;
  }

  void OnConnected(Conn& conn) {
    int err = 0;
    socklen_t len = sizeof err;
    if (getsockopt(conn.fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
        err != 0) {
      CloseConn(conn, /*failed=*/true);
      return;
    }
    sst::AppendFrame(sst::FrameType::kRegister, workload_.register_payload,
                     &conn.out);
    conn.state = ConnState::kAwaitRegistered;
  }

  void QueueNextDocument(Conn& conn) {
    if (conn.docs_done >= config_.docs_per_connection) {
      sst::AppendFrame(sst::FrameType::kGoodbye, "", &conn.out);
      conn.state = ConnState::kClosing;
      return;
    }
    conn.doc_index = static_cast<int>(rng_.NextBelow(
        workload_.documents.size()));
    conn.doc_faulted = config_.fault_rate > 0.0 &&
                       rng_.NextBool(config_.fault_rate);
    const std::string& doc =
        conn.doc_faulted
            ? workload_.faulted[static_cast<size_t>(conn.doc_index)]
            : workload_.documents[static_cast<size_t>(conn.doc_index)];
    conn.records.clear();
    conn.saw_match_frame = false;
    conn.first_match_ms = 0.0;
    conn.doc_start = Clock::now();
    for (size_t i = 0; i < doc.size(); i += config_.chunk_size) {
      sst::AppendFrame(sst::FrameType::kData,
                       std::string_view(doc).substr(i, config_.chunk_size),
                       &conn.out);
    }
    sst::AppendFrame(sst::FrameType::kFinish, "", &conn.out);
    totals_.bytes_sent += static_cast<long long>(doc.size());
    conn.state = ConnState::kAwaitVerdict;
  }

  void OnVerdict(Conn& conn, const sst::Frame& frame) {
    totals_.latencies_ms.push_back(MsSince(conn.doc_start));
    ++conn.docs_done;
    if (config_.matches) {
      totals_.match_records += static_cast<long long>(conn.records.size());
      if (conn.saw_match_frame) {
        totals_.first_match_ms.push_back(conn.first_match_ms);
      }
    }
    if (frame.type == sst::FrameType::kCounts) {
      ++totals_.ok;
      std::vector<int64_t> counts;
      if (!conn.doc_faulted &&
          (!sst::ParseCounts(frame.payload, &counts) ||
           counts !=
               workload_.expected[static_cast<size_t>(conn.doc_index)])) {
        ++totals_.mismatches;
      }
      // The streamed record sequence must replay the offline sink run
      // byte for byte — same events, same offsets, same order.
      if (config_.matches && !conn.doc_faulted &&
          conn.records !=
              workload_.expected_records[static_cast<size_t>(
                  conn.doc_index)]) {
        ++totals_.mismatches;
      }
    } else {
      ++totals_.stream_errors;
    }
    QueueNextDocument(conn);
  }

  void OnReadable(Conn& conn) {
    // Read everything available first, then decode: a shed-and-half-close
    // from the server delivers the verdict frame and EOF together, and the
    // verdict must be processed before the EOF is judged.
    bool eof = false;
    char buf[16 * 1024];
    while (true) {
      ssize_t n = read(conn.fd, buf, sizeof buf);
      if (n > 0) {
        conn.decoder.Append(std::string_view(buf, static_cast<size_t>(n)));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      eof = true;  // EOF or error: fine after goodbye/shed, else a failure
      break;
    }
    sst::Frame frame;
    while (conn.decoder.Next(&frame) == sst::FrameDecoder::Status::kFrame) {
      switch (frame.type) {
        case sst::FrameType::kRegistered:
          QueueNextDocument(conn);
          break;
        case sst::FrameType::kCounts:
        case sst::FrameType::kError:
          if (conn.state == ConnState::kAwaitVerdict) {
            OnVerdict(conn, frame);
          } else {
            CloseConn(conn, /*failed=*/true);  // bad_register et al.
            return;
          }
          break;
        case sst::FrameType::kMatches:
          if (conn.state == ConnState::kAwaitVerdict) {
            if (!conn.saw_match_frame) {
              conn.saw_match_frame = true;
              conn.first_match_ms = MsSince(conn.doc_start);
            }
            std::vector<sst::MatchWireRecord> parsed;  // ParseMatches clears
            if (!sst::ParseMatches(frame.payload, &parsed)) {
              CloseConn(conn, /*failed=*/true);
              return;
            }
            conn.records.insert(conn.records.end(), parsed.begin(),
                                parsed.end());
          }
          break;
        case sst::FrameType::kShed: {
          ++totals_.sheds;
          sst::ShedReason reason = sst::ShedReason::kDraining;
          sst::ParseShedReason(frame.payload, &reason);
          bool stream_level =
              reason == sst::ShedReason::kMaxStreams ||
              reason == sst::ShedReason::kPoolSaturated;
          if (stream_level && conn.state == ConnState::kAwaitVerdict) {
            // The document was rejected; the connection stays usable.
            totals_.latencies_ms.push_back(MsSince(conn.doc_start));
            ++conn.docs_done;
            QueueNextDocument(conn);
          } else {
            // Admission/drain/timeout verdict: the connection is done.
            // Drop anything still queued and close (the server lingers on
            // a half-close until it sees our FIN).
            CloseConn(conn, /*failed=*/false);
            return;
          }
          break;
        }
        default:
          break;  // kMetricsText etc.: ignore
      }
    }
    if (eof) CloseConn(conn, /*failed=*/conn.state != ConnState::kClosing);
  }

  void FlushOut(Conn& conn) {
    while (conn.out_pos < conn.out.size()) {
      ssize_t n = send(conn.fd, conn.out.data() + conn.out_pos,
                       conn.out.size() - conn.out_pos, MSG_NOSIGNAL);
      if (n > 0) {
        conn.out_pos += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n < 0 && errno == EINTR) continue;
      CloseConn(conn, /*failed=*/conn.state != ConnState::kClosing);
      return;
    }
    conn.out.clear();
    conn.out_pos = 0;
    if (conn.state == ConnState::kClosing) CloseConn(conn, /*failed=*/false);
  }

  void CloseConn(Conn& conn, bool failed) {
    if (conn.fd >= 0) close(conn.fd);
    conn.fd = -1;
    conn.state = ConnState::kClosed;
    if (failed) {
      conn.failed = true;
      ++totals_.connection_failures;
    }
  }

  Config config_;
  const Workload& workload_;
  sst::Rng rng_;
  std::vector<Conn> conns_;
  Totals totals_;
  Clock::time_point start_;
};

double Percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  size_t index = static_cast<size_t>(p * (values.size() - 1));
  std::nth_element(values.begin(),
                   values.begin() + static_cast<long>(index), values.end());
  return values[index];
}

void WriteJson(const Config& config, const Totals& totals, double wall_s,
               double p50, double p99, double mib_per_s, double match_p50,
               double match_p99) {
  std::FILE* file = std::fopen(config.json_out, "w");
  if (file == nullptr) {
    std::perror("json-out");
    std::exit(1);
  }
  char host[256] = "unknown";
  gethostname(host, sizeof host - 1);
  std::time_t now = std::time(nullptr);
  char date[64];
  std::strftime(date, sizeof date, "%Y-%m-%dT%H:%M:%S%z",
                std::localtime(&now));
  long long docs = totals.ok + totals.stream_errors;
  double per_doc_ns = docs > 0 ? wall_s * 1e9 / static_cast<double>(docs)
                               : 0.0;
  std::string sha_entry;
  if (config.git_sha != nullptr) {
    sha_entry = std::string(", \"git_sha\": \"") + config.git_sha + "\"";
  }
  std::fprintf(file,
               "{\n"
               " \"context\": {\"date\": \"%s\", \"host_name\": \"%s\","
               " \"num_cpus\": %ld, \"build_type\": \"%s\"%s},\n"
               " \"benchmarks\": [\n"
               "  {\"name\": \"serving/loopback/conns:%d/batch:%d\","
               " \"run_type\": \"iteration\", \"iterations\": %lld,"
               " \"real_time\": %.1f, \"cpu_time\": %.1f,"
               " \"time_unit\": \"ns\","
               " \"bytes_per_second\": %.1f,"
               " \"items_per_second\": %.1f,"
               " \"connections\": %d, \"streams\": %lld,"
               " \"p50_ms\": %.3f, \"p99_ms\": %.3f, \"sheds\": %lld,"
               " \"matches\": %lld,"
               " \"match_p50_ms\": %.3f, \"match_p99_ms\": %.3f}\n"
               " ]\n"
               "}\n",
               date, host, sysconf(_SC_NPROCESSORS_ONLN), SST_BUILD_TYPE,
               sha_entry.c_str(), config.connections, config.batch, docs,
               per_doc_ns, per_doc_ns, mib_per_s * 1024.0 * 1024.0,
               docs / wall_s, config.connections, docs, p50, p99,
               totals.sheds, totals.match_records, match_p50, match_p99);
  std::fclose(file);
}

}  // namespace

int main(int argc, char** argv) {
  RaiseFdLimit();
  std::signal(SIGPIPE, SIG_IGN);

  Config config;
  for (int i = 1; i < argc; i += 2) {
    const char* flag = argv[i];
    if (std::strcmp(flag, "--matches") == 0) {  // valueless
      config.matches = true;
      i -= 1;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "flag %s needs a value\n", flag);
      return 2;
    }
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--host") == 0) {
      config.host = value;
    } else if (std::strcmp(flag, "--port") == 0) {
      config.port = std::atoi(value);
    } else if (std::strcmp(flag, "--connections") == 0) {
      config.connections = std::atoi(value);
    } else if (std::strcmp(flag, "--docs") == 0) {
      config.docs_per_connection = std::atoi(value);
    } else if (std::strcmp(flag, "--chunk-size") == 0) {
      config.chunk_size = static_cast<size_t>(std::atoll(value));
    } else if (std::strcmp(flag, "--batch") == 0) {
      config.batch = std::atoi(value);
    } else if (std::strcmp(flag, "--fault-rate") == 0) {
      config.fault_rate = std::atof(value);
    } else if (std::strcmp(flag, "--seed") == 0) {
      config.seed = static_cast<uint64_t>(std::atoll(value));
    } else if (std::strcmp(flag, "--timeout-s") == 0) {
      config.timeout_s = std::atof(value);
    } else if (std::strcmp(flag, "--json-out") == 0) {
      config.json_out = value;
    } else if (std::strcmp(flag, "--git-sha") == 0) {
      if (std::strpbrk(value, "\"\\") != nullptr) {
        std::fprintf(stderr, "bad --git-sha %s\n", value);
        return 2;
      }
      config.git_sha = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag);
      return 2;
    }
  }
  if (config.port <= 0) {
    std::fprintf(stderr, "--port is required\n");
    return 2;
  }

  Workload workload = BuildWorkload(config);
  Driver driver(config, workload);
  auto start = Clock::now();
  bool completed = driver.Run();
  double wall_s = MsSince(start) / 1000.0;

  Totals& totals = driver.totals();
  double p50 = Percentile(totals.latencies_ms, 0.50);
  double p99 = Percentile(totals.latencies_ms, 0.99);
  double mib = static_cast<double>(totals.bytes_sent) / (1024.0 * 1024.0);
  double mib_per_s = wall_s > 0 ? mib / wall_s : 0.0;

  std::printf("connections=%d docs/conn=%d chunk=%zu batch=%d fault=%.2f\n",
              config.connections, config.docs_per_connection,
              config.chunk_size, config.batch, config.fault_rate);
  std::printf("verdicts: ok=%lld stream_errors=%lld sheds=%lld "
              "conn_failures=%lld mismatches=%lld\n",
              totals.ok, totals.stream_errors, totals.sheds,
              totals.connection_failures, totals.mismatches);
  std::printf("latency p50=%.3fms p99=%.3fms; %.1f MiB in %.2fs = %.1f "
              "MiB/s\n",
              p50, p99, mib, wall_s, mib_per_s);
  double match_p50 = 0.0;
  double match_p99 = 0.0;
  if (config.matches) {
    match_p50 = Percentile(totals.first_match_ms, 0.50);
    match_p99 = Percentile(totals.first_match_ms, 0.99);
    std::printf("matches: records=%lld first-emission p50=%.3fms "
                "p99=%.3fms\n",
                totals.match_records, match_p50, match_p99);
  }

  if (config.json_out != nullptr) {
    WriteJson(config, totals, wall_s, p50, p99, mib_per_s, match_p50,
              match_p99);
  }
  return (completed && totals.mismatches == 0) ? 0 : 1;
}
