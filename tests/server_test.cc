// Socket-level chaos suite for the resilient serving layer (src/server):
// every test drives a real QueryServer over loopback TCP and synchronizes
// on protocol events (frames, EOF) or observable stats — never on bare
// sleeps. The malformed-document tests reuse the deterministic
// fault-injection harness so a wire verdict can be compared byte-for-byte
// against the offline engine's StreamError for the same mutated bytes.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "base/rng.h"
#include "engine/multi_query.h"
#include "server/admission.h"
#include "server/protocol.h"
#include "server/server.h"
#include "test_util.h"
#include "testing/fault_injection.h"
#include "trees/encoding.h"
#include "trees/tree.h"

// Largest single operator new request while a ParseProbe is armed (the
// wire-parser fuzz below bounds it by the parsed payload's size).
namespace {
std::atomic<bool> g_probe_armed{false};
std::atomic<size_t> g_probe_max_alloc{0};
}  // namespace

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  if (g_probe_armed.load(std::memory_order_relaxed)) {
    size_t seen = g_probe_max_alloc.load(std::memory_order_relaxed);
    while (size > seen && !g_probe_max_alloc.compare_exchange_weak(
                              seen, size, std::memory_order_relaxed)) {
    }
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace sst {
namespace {

// --- satellite units: StreamLimits validation + merging ---------------------

TEST(StreamLimits, DefaultIsValidAndUnlimited) {
  StreamLimits limits;
  EXPECT_TRUE(limits.unlimited());
  EXPECT_EQ(limits.Validate(), nullptr);
}

TEST(StreamLimits, ValidateRejectsUnsatisfiableGuards) {
  StreamLimits zero_depth;
  zero_depth.max_depth = 0;
  EXPECT_NE(zero_depth.Validate(), nullptr);

  StreamLimits negative_bytes;
  negative_bytes.max_document_bytes = -1;
  EXPECT_NE(negative_bytes.Validate(), nullptr);

  StreamLimits one_event;  // root open + close need two
  one_event.max_events = 1;
  EXPECT_NE(one_event.Validate(), nullptr);

  StreamLimits depth_above_events;
  depth_above_events.max_depth = 100;
  depth_above_events.max_events = 10;
  EXPECT_NE(depth_above_events.Validate(), nullptr);
}

TEST(StreamLimits, MergedIsElementwiseMinimum) {
  StreamLimits a;
  a.max_depth = 10;
  a.max_document_bytes = 1 << 20;
  StreamLimits b;
  b.max_depth = 64;
  b.max_events = 5000;

  StreamLimits merged = StreamLimits::Merged(a, b);
  EXPECT_EQ(merged.max_depth, 10);
  EXPECT_EQ(merged.max_document_bytes, 1 << 20);
  EXPECT_EQ(merged.max_events, 5000);
  EXPECT_EQ(merged.max_recovered_errors, StreamLimits::kUnlimited);
  // Commutes.
  EXPECT_EQ(merged, StreamLimits::Merged(b, a));
}

// --- protocol roundtrips -----------------------------------------------------

TEST(Protocol, RegisterRoundtrip) {
  RegisterRequest request;
  request.alphabet = "abcdef";
  request.format = StreamFormat::kCompactMarkup;
  request.limits.max_depth = 40;
  request.queries = {"/a//b", "//c", "/a/b/c"};

  RegisterRequest decoded;
  std::string error;
  ASSERT_TRUE(ParseRegister(EncodeRegister(request), &decoded, &error))
      << error;
  EXPECT_EQ(decoded.alphabet, request.alphabet);
  EXPECT_EQ(decoded.format, request.format);
  EXPECT_EQ(decoded.limits, request.limits);
  EXPECT_EQ(decoded.queries, request.queries);
}

TEST(Protocol, CountsAndErrorRoundtrip) {
  std::vector<int64_t> counts{0, 17, 123456789, 3};
  std::vector<int64_t> decoded;
  ASSERT_TRUE(ParseCounts(EncodeCounts(counts), &decoded));
  EXPECT_EQ(decoded, counts);

  ErrorInfo info;
  info.code = "kLabelMismatch";
  info.offset = 42;
  info.depth = 3;
  info.message = "expected 'b', got 'c'";
  ErrorInfo out;
  ASSERT_TRUE(ParseErrorInfo(EncodeErrorInfo(info), &out));
  EXPECT_EQ(out.code, info.code);
  EXPECT_EQ(out.offset, info.offset);
  EXPECT_EQ(out.depth, info.depth);
  EXPECT_EQ(out.message, info.message);
}

TEST(Protocol, ShedReasonRoundtrip) {
  for (ShedReason reason :
       {ShedReason::kMaxConnections, ShedReason::kMaxStreams,
        ShedReason::kPoolSaturated, ShedReason::kDraining,
        ShedReason::kDrainDeadline, ShedReason::kIdleTimeout,
        ShedReason::kWriteTimeout}) {
    ShedReason decoded = ShedReason::kMaxConnections;
    ASSERT_TRUE(ParseShedReason(EncodeShed(reason), &decoded))
        << ShedReasonName(reason);
    EXPECT_EQ(decoded, reason);
  }
}

TEST(Protocol, DecoderRejectsOversizedFromHeaderAlone) {
  FrameDecoder decoder(/*max_payload=*/1024);
  // Declared 1 MiB payload; only the 5 header bytes ever arrive.
  std::string header;
  header.push_back(static_cast<char>(FrameType::kData));
  uint32_t declared = 1 << 20;
  for (int i = 0; i < 4; ++i) {
    header.push_back(static_cast<char>((declared >> (8 * i)) & 0xff));
  }
  decoder.Append(header);
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Status::kTooLarge);
}

TEST(Protocol, DecoderRejectsUnknownType) {
  FrameDecoder decoder(1024);
  decoder.Append(std::string("Z\0\0\0\0", 5));
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Status::kBadType);
}

// --- wire-parser mutation fuzz ----------------------------------------------
// The frame decoder and the payload parsers are, besides the document
// scanners, the only code that reads untrusted bytes. Each case mutates a
// valid encoding (bit flips, inserted protocol bytes and long digit runs,
// deleted and duplicated spans, truncation, splices of two seeds) and
// parses it. A parse must not crash — the ASan/UBSan build turns overflow
// and out-of-bounds reads into failures — and whatever a parser accepts
// must survive re-encoding: encode the accepted value, parse it again, and
// get the same value. SST_FUZZ_ITERS scales the case count.

constexpr int kMutantsPerIter = 4000;

std::string Mutate(Rng* rng, std::string bytes,
                   const std::vector<std::string>& seeds) {
  static constexpr char kProtocolBytes[] = "=\n -0123456789mcQDFMGRCESTP";
  const int edits = 1 + static_cast<int>(rng->NextBelow(4));
  for (int e = 0; e < edits; ++e) {
    const size_t pos = rng->NextBelow(bytes.size() + 1);
    const size_t span = 1 + rng->NextBelow(8);
    switch (rng->NextBelow(8)) {
      case 0:
        if (pos < bytes.size()) {
          bytes[pos] = static_cast<char>(bytes[pos] ^ (1 << rng->NextBelow(8)));
        }
        break;
      case 1:
        bytes.insert(pos, 1,
                     kProtocolBytes[rng->NextBelow(sizeof kProtocolBytes - 1)]);
        break;
      case 2:
        bytes.insert(pos, 1, static_cast<char>(rng->NextBelow(256)));
        break;
      case 3:
        bytes.erase(pos, span);
        break;
      case 4:
        bytes.insert(pos, bytes.substr(pos, span));
        break;
      case 5:
        bytes.resize(pos);
        break;
      case 6: {
        // Numbers at and past the int32/int64 boundaries.
        bytes.insert(pos, 9 + rng->NextBelow(13), '9');
        break;
      }
      default: {
        const std::string& other = seeds[rng->NextBelow(seeds.size())];
        bytes = bytes.substr(0, pos) +
                other.substr(rng->NextBelow(other.size() + 1));
        break;
      }
    }
  }
  return bytes;
}

// Arms the allocation probe for its lifetime.
class AllocationProbe {
 public:
  AllocationProbe() {
    g_probe_max_alloc.store(0, std::memory_order_relaxed);
    g_probe_armed.store(true, std::memory_order_relaxed);
  }
  ~AllocationProbe() { g_probe_armed.store(false, std::memory_order_relaxed); }
  size_t largest() const {
    return g_probe_max_alloc.load(std::memory_order_relaxed);
  }
};

// Allowance for fixed diagnostics such as "unknown register key: ".
constexpr size_t kAllocSlack = 64;

// Runs one parse with the allocation probe armed and bounds every single
// allocation it made by the parsed payload's size: a mutant may make a
// parser reject, never reserve room for more than the frame carries. The
// bound is counted in decoded units — at most one `element_bytes` output
// item per payload byte (a count is 8 bytes however short its digits, a
// query one std::string) — plus kAllocSlack. A size or count read from
// the payload and trusted as a reservation breaks it.
template <typename Parse>
bool ProbedParse(std::string_view payload, size_t element_bytes,
                 Parse parse) {
  size_t largest = 0;
  bool accepted = false;
  {
    AllocationProbe probe;
    accepted = parse();
    largest = probe.largest();
  }
  EXPECT_LE(largest, kAllocSlack + payload.size() * element_bytes)
      << "payload: " << payload;
  return accepted;
}

// Runs `check` on kMutantsPerIter * SST_FUZZ_ITERS mutants of `seeds`.
template <typename Check>
void FuzzPayloads(uint64_t seed, const std::vector<std::string>& seeds,
                  Check&& check) {
  Rng rng(seed);
  const int cases = kMutantsPerIter * testing::FuzzIters();
  for (int i = 0; i < cases; ++i) {
    const std::string& base = seeds[rng.NextBelow(seeds.size())];
    check(Mutate(&rng, base, seeds));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(ProtocolFuzz, RegisterAcceptsOnlyWhatReencodes) {
  std::vector<std::string> seeds;
  RegisterRequest request;
  request.alphabet = "abcdef";
  request.queries = {"/a//b", "//c"};
  seeds.push_back(EncodeRegister(request));
  request.format = StreamFormat::kXmlLite;
  request.limits.max_depth = 40;
  request.limits.max_document_bytes = 1 << 20;
  request.limits.max_events = 12345;
  request.limits.max_recovered_errors = 3;
  request.limits.max_pending_matches = 64;
  request.matches = true;
  seeds.push_back(EncodeRegister(request));
  request.format = StreamFormat::kCompactTerm;
  request.queries = {"/a/b/c"};
  seeds.push_back(EncodeRegister(request));
  FuzzPayloads(811, seeds, [](const std::string& payload) {
    RegisterRequest parsed;
    std::string error;
    if (!ProbedParse(payload, sizeof(std::string), [&] {
          return ParseRegister(payload, &parsed, &error);
        })) {
      EXPECT_FALSE(error.empty());
      return;
    }
    RegisterRequest again;
    ASSERT_TRUE(ParseRegister(EncodeRegister(parsed), &again, &error))
        << error << "\npayload: " << payload;
    EXPECT_EQ(again.alphabet, parsed.alphabet);
    EXPECT_EQ(again.format, parsed.format);
    EXPECT_EQ(again.limits, parsed.limits);
    EXPECT_EQ(again.queries, parsed.queries);
    EXPECT_EQ(again.matches, parsed.matches);
  });
}

TEST(ProtocolFuzz, RegisteredAcceptsOnlyWhatReencodes) {
  const std::vector<std::string> seeds = {
      EncodeRegistered({4, 3, "kFusedProduct"}),
      EncodeRegistered({1, 1, "kStackless"}),
  };
  FuzzPayloads(812, seeds, [](const std::string& payload) {
    RegisteredInfo parsed;
    if (!ProbedParse(payload, 1,
                     [&] { return ParseRegistered(payload, &parsed); })) {
      return;
    }
    RegisteredInfo again;
    ASSERT_TRUE(ParseRegistered(EncodeRegistered(parsed), &again))
        << "payload: " << payload;
    EXPECT_EQ(again.num_queries, parsed.num_queries);
    EXPECT_EQ(again.num_slots, parsed.num_slots);
    EXPECT_EQ(again.tier, parsed.tier);
  });
}

TEST(ProtocolFuzz, ErrorInfoAcceptsOnlyWhatReencodes) {
  const std::vector<std::string> seeds = {
      EncodeErrorInfo({"kLabelMismatch", 42, 3, "expected 'b', got 'c'"}),
      EncodeErrorInfo({"frame_too_large", -1, 0, "payload over cap"}),
  };
  FuzzPayloads(813, seeds, [](const std::string& payload) {
    ErrorInfo parsed;
    if (!ProbedParse(payload, 1,
                     [&] { return ParseErrorInfo(payload, &parsed); })) {
      return;
    }
    ErrorInfo again;
    ASSERT_TRUE(ParseErrorInfo(EncodeErrorInfo(parsed), &again))
        << "payload: " << payload;
    EXPECT_EQ(again.code, parsed.code);
    EXPECT_EQ(again.offset, parsed.offset);
    EXPECT_EQ(again.depth, parsed.depth);
    EXPECT_EQ(again.message, parsed.message);
  });
}

TEST(ProtocolFuzz, CountsAcceptOnlyWhatReencodes) {
  const std::vector<std::string> seeds = {
      EncodeCounts({0, 17, 123456789, 3}),
      EncodeCounts({}),
      EncodeCounts({int64_t{1} << 40}),
  };
  FuzzPayloads(814, seeds, [](const std::string& payload) {
    std::vector<int64_t> parsed;
    if (!ProbedParse(payload, sizeof(int64_t),
                     [&] { return ParseCounts(payload, &parsed); })) {
      return;
    }
    std::vector<int64_t> again;
    ASSERT_TRUE(ParseCounts(EncodeCounts(parsed), &again))
        << "payload: " << payload;
    EXPECT_EQ(again, parsed);
  });
}

TEST(ProtocolFuzz, MatchesAcceptOnlyWhatReencodes) {
  const std::vector<std::string> seeds = {
      EncodeMatches({{false, {0, 5, -1, 6}},
                     {true, {0, 5, 12, 6}},
                     {false, {3, 100, -1, 101}},
                     {true, {3, 100, -1, 101}}}),
      EncodeMatches({}),
  };
  FuzzPayloads(815, seeds, [](const std::string& payload) {
    std::vector<MatchWireRecord> parsed;
    if (!ProbedParse(payload, sizeof(MatchWireRecord),
                     [&] { return ParseMatches(payload, &parsed); })) {
      return;
    }
    std::vector<MatchWireRecord> again;
    ASSERT_TRUE(ParseMatches(EncodeMatches(parsed), &again))
        << "payload: " << payload;
    EXPECT_EQ(again, parsed);
  });
}

TEST(ProtocolFuzz, ShedReasonAcceptsOnlyWhatReencodes) {
  std::vector<std::string> seeds;
  for (ShedReason reason :
       {ShedReason::kMaxConnections, ShedReason::kMaxStreams,
        ShedReason::kPoolSaturated, ShedReason::kDraining,
        ShedReason::kDrainDeadline, ShedReason::kIdleTimeout,
        ShedReason::kWriteTimeout}) {
    seeds.push_back(EncodeShed(reason));
  }
  FuzzPayloads(816, seeds, [](const std::string& payload) {
    ShedReason parsed = ShedReason::kMaxConnections;
    if (!ProbedParse(payload, 1,
                     [&] { return ParseShedReason(payload, &parsed); })) {
      return;
    }
    ShedReason again = ShedReason::kMaxConnections;
    ASSERT_TRUE(ParseShedReason(EncodeShed(parsed), &again))
        << "payload: " << payload;
    EXPECT_EQ(again, parsed);
  });
}

// The decoder over mutated frame streams fed in random chunks: every frame
// it returns respects the payload cap, and re-encoding the frames
// reproduces exactly the bytes it consumed.
TEST(ProtocolFuzz, FrameDecoderReturnsOnlyTheFramesItConsumed) {
  constexpr size_t kCap = 64;
  std::vector<std::string> seeds;
  std::string stream;
  AppendFrame(FrameType::kRegister, "alphabet=ab\nquery=/a\n", &stream);
  AppendFrame(FrameType::kData, "abBA", &stream);
  AppendFrame(FrameType::kFinish, "", &stream);
  seeds.push_back(stream);
  stream.clear();
  AppendFrame(FrameType::kCounts, "1 2 3", &stream);
  AppendFrame(FrameType::kMatches, "m 0 1 2\n", &stream);
  AppendFrame(FrameType::kGoodbye, "", &stream);
  seeds.push_back(stream);
  Rng chunking(817);
  FuzzPayloads(818, seeds, [&](const std::string& bytes) {
    FrameDecoder decoder(kCap);
    std::vector<Frame> frames;
    FrameDecoder::Status status = FrameDecoder::Status::kNeedMore;
    for (size_t i = 0; i < bytes.size();) {
      const size_t n = 1 + chunking.NextBelow(16);
      decoder.Append(std::string_view(bytes).substr(i, n));
      i += n;
      Frame frame;
      // Decoding allocates at most one capped payload, whatever length a
      // mutant header declares.
      auto next = [&] {
        AllocationProbe probe;
        const FrameDecoder::Status next_status = decoder.Next(&frame);
        EXPECT_LE(probe.largest(), kAllocSlack + kCap);
        return next_status;
      };
      while ((status = next()) == FrameDecoder::Status::kFrame) {
        ASSERT_LE(frame.payload.size(), kCap);
        frames.push_back(frame);
      }
      if (status != FrameDecoder::Status::kNeedMore) break;
    }
    std::string reencoded;
    for (const Frame& frame : frames) {
      AppendFrame(frame.type, frame.payload, &reencoded);
    }
    ASSERT_EQ(reencoded, bytes.substr(0, reencoded.size()));
    if (status == FrameDecoder::Status::kNeedMore) {
      EXPECT_EQ(decoder.buffered(), bytes.size() - reencoded.size());
    }
  });
}

// --- test harness ------------------------------------------------------------

constexpr char kLetters[] = "abcdef";

std::vector<std::string> TestQueries() {
  return {"/a//b", "//c", "/a//b", "/d/e"};  // one duplicate: 3 slots
}

std::string MakeDocument(uint64_t seed, int nodes) {
  Alphabet alphabet = Alphabet::FromLetters(kLetters);
  Rng rng(seed);
  Tree tree;
  tree.AddRoot(static_cast<Symbol>(rng.NextBelow(6)));
  for (int i = 1; i < nodes; ++i) {
    int parent =
        rng.NextBool(0.6) ? i - 1 : static_cast<int>(rng.NextBelow(i));
    tree.AddChild(parent, static_cast<Symbol>(rng.NextBelow(6)));
  }
  return ToCompactMarkup(alphabet, Encode(tree));
}

// The offline ground truth: the same engine path the server runs.
struct OfflineVerdict {
  bool ok = false;
  std::vector<int64_t> counts;
  StreamError error;
};

OfflineVerdict OfflineRun(const std::vector<std::string>& queries,
                          std::string_view document) {
  std::vector<BatchQuery> batch;
  for (const std::string& text : queries) {
    batch.push_back(BatchQuery{QuerySyntax::kXPath, text});
  }
  auto plan = MultiQueryPlan::Compile(
      batch, Alphabet::FromLetters(kLetters), MultiQueryOptions{});
  BatchSession session(plan);
  OfflineVerdict verdict;
  verdict.ok = session.Feed(document) && session.Finish();
  if (verdict.ok) {
    verdict.counts = session.query_matches();
  } else {
    verdict.error = session.stream_error();
  }
  return verdict;
}

std::string DefaultRegisterPayload() {
  RegisterRequest request;
  request.alphabet = kLetters;
  request.queries = TestQueries();
  return EncodeRegister(request);
}

// Blocking loopback client; every read carries a poll deadline so a hung
// server fails the test instead of wedging the suite.
class TestClient {
 public:
  TestClient() = default;
  ~TestClient() { Close(); }

  bool Connect(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
  }

  void Send(FrameType type, std::string_view payload) {
    std::string out;
    AppendFrame(type, payload, &out);
    SendRaw(out);
  }

  void SendRaw(std::string_view bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      ssize_t n = send(fd_, bytes.data() + off, bytes.size() - off,
                       MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      return;  // peer closed; reads will surface the verdict
    }
  }

  // Next frame within `timeout_ms`; false on timeout, EOF, or error.
  bool ReadFrame(Frame* frame, int timeout_ms = 5000) {
    auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(timeout_ms);
    while (true) {
      switch (decoder_.Next(frame)) {
        case FrameDecoder::Status::kFrame:
          return true;
        case FrameDecoder::Status::kNeedMore:
          break;
        default:
          return false;  // server never sends malformed frames
      }
      if (eof_) return false;
      if (!FillBuffer(deadline)) return false;
    }
  }

  // True if the peer half-closes (EOF) within `timeout_ms` with no
  // further frames.
  bool ReadEof(int timeout_ms = 5000) {
    auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(timeout_ms);
    while (!eof_) {
      if (!FillBuffer(deadline)) return false;
    }
    Frame frame;
    return decoder_.Next(&frame) == FrameDecoder::Status::kNeedMore;
  }

  void CloseWrite() {
    if (fd_ >= 0) shutdown(fd_, SHUT_WR);
  }

  void Close() {
    if (fd_ >= 0) close(fd_);
    fd_ = -1;
  }

  int fd() const { return fd_; }

 private:
  // One poll+read; false on timeout or socket error, true on progress
  // (bytes appended or EOF recorded).
  bool FillBuffer(std::chrono::steady_clock::time_point deadline) {
    auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (remaining.count() <= 0) return false;
    pollfd pfd{fd_, POLLIN, 0};
    int ready = poll(&pfd, 1, static_cast<int>(remaining.count()));
    if (ready <= 0) return false;
    char buf[16 * 1024];
    ssize_t n = read(fd_, buf, sizeof buf);
    if (n > 0) {
      decoder_.Append(std::string_view(buf, static_cast<size_t>(n)));
      return true;
    }
    if (n < 0 && (errno == EINTR || errno == EAGAIN)) return true;
    eof_ = true;  // EOF, or error (ECONNRESET et al.): reads are over
    return true;
  }

  int fd_ = -1;
  bool eof_ = false;
  FrameDecoder decoder_{1 << 20};
};

// Registers the default batch and consumes the kRegistered ack.
bool RegisterDefault(TestClient* client, RegisteredInfo* info = nullptr) {
  client->Send(FrameType::kRegister, DefaultRegisterPayload());
  Frame frame;
  if (!client->ReadFrame(&frame)) return false;
  if (frame.type != FrameType::kRegistered) return false;
  if (info != nullptr && !ParseRegistered(frame.payload, info)) return false;
  return true;
}

// Streams one document in fixed-size chunks and finishes it.
void SendDocument(TestClient* client, std::string_view document,
                  size_t chunk = 1024) {
  for (size_t off = 0; off < document.size(); off += chunk) {
    client->Send(FrameType::kData,
                 document.substr(off, std::min(chunk, document.size() - off)));
  }
  client->Send(FrameType::kFinish, "");
}

// Polls an observable condition with a deadline — synchronization on
// state the server exports, not on a sleep being "long enough".
template <typename Predicate>
bool WaitFor(Predicate&& predicate, int timeout_ms = 5000) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  while (!predicate()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

int64_t RssKb() {
  std::FILE* file = std::fopen("/proc/self/status", "r");
  if (file == nullptr) return -1;
  char line[256];
  int64_t kb = -1;
  while (std::fgets(line, sizeof line, file) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kb = std::atoll(line + 6);
      break;
    }
  }
  std::fclose(file);
  return kb;
}

ServerOptions SmallServerOptions() {
  ServerOptions options;
  options.num_workers = 2;
  options.limits.max_connections = 64;
  options.limits.max_streams = 32;
  return options;
}

// --- end-to-end basics -------------------------------------------------------

TEST(Server, AnswersCleanDocumentsLikeTheOfflineEngine) {
  QueryServer server(SmallServerOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  RegisteredInfo info;
  ASSERT_TRUE(RegisterDefault(&client, &info));
  EXPECT_EQ(info.num_queries, 4);
  EXPECT_EQ(info.num_slots, 3);  // duplicate query deduplicated

  for (uint64_t seed : {11u, 22u, 33u}) {
    std::string document = MakeDocument(seed, 3000);
    OfflineVerdict offline = OfflineRun(TestQueries(), document);
    ASSERT_TRUE(offline.ok);

    SendDocument(&client, document);
    Frame frame;
    ASSERT_TRUE(client.ReadFrame(&frame));
    ASSERT_EQ(frame.type, FrameType::kCounts);
    std::vector<int64_t> counts;
    ASSERT_TRUE(ParseCounts(frame.payload, &counts));
    EXPECT_EQ(counts, offline.counts);
  }

  client.Send(FrameType::kGoodbye, "");
  EXPECT_TRUE(client.ReadEof());
  server.Stop();
  EXPECT_EQ(server.stats().streams_completed, 3);
}

// --- streamed match events over the wire -------------------------------------

// Drains kMatches frames into `records` until a non-kMatches frame (the
// document's verdict) arrives.
bool ReadMatchesUntilVerdict(TestClient* client,
                             std::vector<MatchWireRecord>* records,
                             Frame* verdict) {
  Frame frame;
  while (client->ReadFrame(&frame)) {
    if (frame.type == FrameType::kMatches) {
      std::vector<MatchWireRecord> decoded;
      if (!ParseMatches(frame.payload, &decoded)) return false;
      records->insert(records->end(), decoded.begin(), decoded.end());
      continue;
    }
    *verdict = std::move(frame);
    return true;
  }
  return false;
}

// The offline oracle's wire records: the same engine path with the same
// sink type, fed in one chunk (the product tier's event log is
// chunking-invariant, so the wire must replay it byte for byte).
std::vector<MatchWireRecord> OfflineMatchRecords(
    const std::vector<std::string>& queries, std::string_view document,
    bool* ok) {
  std::vector<BatchQuery> batch;
  for (const std::string& text : queries) {
    batch.push_back(BatchQuery{QuerySyntax::kXPath, text});
  }
  auto plan = MultiQueryPlan::Compile(
      batch, Alphabet::FromLetters(kLetters), MultiQueryOptions{});
  BatchSession session(plan);
  MatchWireBuffer sink;
  session.set_match_sink(&sink);
  *ok = session.Feed(document) && session.Finish();
  return sink.Take();
}

TEST(Server, MatchFramesReplayOfflineSinkExactly) {
  QueryServer server(SmallServerOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  RegisterRequest request;
  request.alphabet = kLetters;
  request.queries = TestQueries();
  request.matches = true;
  client.Send(FrameType::kRegister, EncodeRegister(request));
  Frame frame;
  ASSERT_TRUE(client.ReadFrame(&frame));
  ASSERT_EQ(frame.type, FrameType::kRegistered);

  int64_t total_opens = 0;
  for (uint64_t seed : {11u, 22u}) {
    std::string document = MakeDocument(seed, 2000);
    OfflineVerdict offline = OfflineRun(TestQueries(), document);
    ASSERT_TRUE(offline.ok);
    bool offline_ok = false;
    std::vector<MatchWireRecord> expected =
        OfflineMatchRecords(TestQueries(), document, &offline_ok);
    ASSERT_TRUE(offline_ok);

    SendDocument(&client, document, /*chunk=*/777);
    std::vector<MatchWireRecord> records;
    Frame verdict;
    ASSERT_TRUE(ReadMatchesUntilVerdict(&client, &records, &verdict));
    ASSERT_EQ(verdict.type, FrameType::kCounts);
    std::vector<int64_t> counts;
    ASSERT_TRUE(ParseCounts(verdict.payload, &counts));
    EXPECT_EQ(counts, offline.counts);
    EXPECT_EQ(records, expected);

    // Counting parity straight off the wire: OnMatch records per query
    // reproduce the kCounts verdict.
    std::vector<int64_t> wire_counts(counts.size(), 0);
    for (const MatchWireRecord& record : records) {
      if (!record.close) {
        ASSERT_GE(record.event.query_id, 0);
        ASSERT_LT(static_cast<size_t>(record.event.query_id),
                  wire_counts.size());
        ++wire_counts[static_cast<size_t>(record.event.query_id)];
        ++total_opens;
      }
    }
    EXPECT_EQ(wire_counts, counts);
  }

  // A truncated document: the spans still pending at the error arrive
  // truncated (end -1) before the kError verdict — reported, not dropped.
  std::string document = MakeDocument(33, 1500);
  document.resize(document.size() / 2);
  bool offline_ok = true;
  std::vector<MatchWireRecord> expected =
      OfflineMatchRecords(TestQueries(), document, &offline_ok);
  ASSERT_FALSE(offline_ok);
  SendDocument(&client, document, /*chunk=*/777);
  std::vector<MatchWireRecord> records;
  Frame verdict;
  ASSERT_TRUE(ReadMatchesUntilVerdict(&client, &records, &verdict));
  ASSERT_EQ(verdict.type, FrameType::kError);
  EXPECT_EQ(records, expected);
  bool saw_truncated = false;
  for (const MatchWireRecord& record : records) {
    saw_truncated |= record.close && record.event.end_offset == -1;
  }
  EXPECT_TRUE(saw_truncated);

  EXPECT_GE(server.stats().matches_emitted, total_opens);
  EXPECT_GE(server.stats().match_buffer_peak, 1);

  client.Send(FrameType::kGoodbye, "");
  EXPECT_TRUE(client.ReadEof());
  server.Stop();
}

// Counts-only registrations must never receive kMatches frames.
TEST(Server, CountsOnlyClientsSeeNoMatchFrames) {
  QueryServer server(SmallServerOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(RegisterDefault(&client));
  SendDocument(&client, MakeDocument(7, 1000));
  Frame frame;
  ASSERT_TRUE(client.ReadFrame(&frame));
  EXPECT_EQ(frame.type, FrameType::kCounts);
  EXPECT_EQ(server.stats().matches_emitted, 0);
  server.Stop();
}

TEST(Server, MetricsFrameAndStatsAgree) {
  QueryServer server(SmallServerOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(RegisterDefault(&client));
  SendDocument(&client, MakeDocument(1, 500));
  Frame frame;
  ASSERT_TRUE(client.ReadFrame(&frame));
  ASSERT_EQ(frame.type, FrameType::kCounts);

  client.Send(FrameType::kMetrics, "");
  ASSERT_TRUE(client.ReadFrame(&frame));
  ASSERT_EQ(frame.type, FrameType::kMetricsText);
  EXPECT_NE(frame.payload.find("server_streams_completed 1"),
            std::string::npos)
      << frame.payload;
  EXPECT_NE(frame.payload.find("server_batches_registered 1"),
            std::string::npos);
  server.Stop();
}

TEST(Server, RegistryDeduplicatesIdenticalBatches) {
  QueryServer server(SmallServerOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  TestClient first, second;
  ASSERT_TRUE(first.Connect(server.port()));
  ASSERT_TRUE(second.Connect(server.port()));
  ASSERT_TRUE(RegisterDefault(&first));
  ASSERT_TRUE(RegisterDefault(&second));
  EXPECT_EQ(server.stats().batches_registered, 1);

  // A textually different but canonically distinct batch adds a second.
  RegisterRequest request;
  request.alphabet = kLetters;
  request.queries = {"/f//a"};
  second.Send(FrameType::kGoodbye, "");
  ASSERT_TRUE(second.ReadEof());
  TestClient third;
  ASSERT_TRUE(third.Connect(server.port()));
  third.Send(FrameType::kRegister, EncodeRegister(request));
  Frame frame;
  ASSERT_TRUE(third.ReadFrame(&frame));
  ASSERT_EQ(frame.type, FrameType::kRegistered);
  EXPECT_EQ(server.stats().batches_registered, 2);
  server.Stop();
}

// --- malformed documents: wire verdict == offline StreamError ---------------

TEST(Server, MalformedDocumentVerdictMatchesOfflineFirstError) {
  QueryServer server(SmallServerOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(RegisterDefault(&client));

  int mutated_docs = 0;
  for (int kind = 0; kind < kNumFaultKinds; ++kind) {
    for (uint64_t seed : {1u, 9u, 77u}) {
      std::string document = MakeDocument(seed + 100, 2000);
      FaultInjector injector(seed);
      FaultReport report =
          injector.Apply(static_cast<FaultKind>(kind), &document);
      if (!report.changed) continue;
      ++mutated_docs;

      OfflineVerdict offline = OfflineRun(TestQueries(), document);
      SendDocument(&client, document, /*chunk=*/311);  // odd chunking
      Frame frame;
      ASSERT_TRUE(client.ReadFrame(&frame))
          << FaultKindName(static_cast<FaultKind>(kind)) << " seed " << seed;

      if (offline.ok) {
        // The mutation happened to keep the document well-formed; counts
        // must still match exactly.
        ASSERT_EQ(frame.type, FrameType::kCounts);
        std::vector<int64_t> counts;
        ASSERT_TRUE(ParseCounts(frame.payload, &counts));
        EXPECT_EQ(counts, offline.counts);
        continue;
      }
      ASSERT_EQ(frame.type, FrameType::kError)
          << FaultKindName(static_cast<FaultKind>(kind)) << " seed " << seed;
      ErrorInfo info;
      ASSERT_TRUE(ParseErrorInfo(frame.payload, &info));
      EXPECT_EQ(info.code, StreamErrorCodeName(offline.error.code));
      EXPECT_EQ(info.offset, offline.error.offset);
      EXPECT_EQ(info.depth, offline.error.depth);
    }
  }
  ASSERT_GT(mutated_docs, 10);  // the loop really exercised the harness

  // The connection survived every verdict: a clean document still answers.
  std::string clean = MakeDocument(5, 800);
  OfflineVerdict offline = OfflineRun(TestQueries(), clean);
  SendDocument(&client, clean);
  Frame frame;
  ASSERT_TRUE(client.ReadFrame(&frame));
  ASSERT_EQ(frame.type, FrameType::kCounts);
  std::vector<int64_t> counts;
  ASSERT_TRUE(ParseCounts(frame.payload, &counts));
  EXPECT_EQ(counts, offline.counts);
  server.Stop();
}

TEST(Server, ZeroChunkDocumentVerdictMatchesOffline) {
  QueryServer server(SmallServerOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(RegisterDefault(&client));

  OfflineVerdict offline = OfflineRun(TestQueries(), "");
  ASSERT_FALSE(offline.ok);
  client.Send(FrameType::kFinish, "");  // kFinish with no kData at all
  Frame frame;
  ASSERT_TRUE(client.ReadFrame(&frame));
  ASSERT_EQ(frame.type, FrameType::kError);
  ErrorInfo info;
  ASSERT_TRUE(ParseErrorInfo(frame.payload, &info));
  EXPECT_EQ(info.code, StreamErrorCodeName(offline.error.code));
  EXPECT_EQ(info.offset, offline.error.offset);
  server.Stop();
}

// --- protocol rejections ------------------------------------------------------

TEST(Server, BadRegistrationsAnsweredWithoutKillingTheServer) {
  QueryServer server(SmallServerOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  struct Case {
    const char* name;
    RegisterRequest request;
    const char* code;
  };
  std::vector<Case> cases;
  {
    Case unknown_label;
    unknown_label.name = "label outside alphabet";
    unknown_label.request.alphabet = kLetters;
    unknown_label.request.queries = {"/a//z"};
    unknown_label.code = "bad_register";
    cases.push_back(unknown_label);

    Case malformed;
    malformed.name = "malformed xpath";
    malformed.request.alphabet = kLetters;
    malformed.request.queries = {"a///"};
    malformed.code = "bad_register";
    cases.push_back(malformed);

    Case bad_alphabet;
    bad_alphabet.name = "non-letter alphabet";
    bad_alphabet.request.alphabet = "ab1";
    bad_alphabet.request.queries = {"/a"};
    bad_alphabet.code = "bad_register";
    cases.push_back(bad_alphabet);

    Case bad_limits;
    bad_limits.name = "unsatisfiable limits";
    bad_limits.request.alphabet = kLetters;
    bad_limits.request.queries = {"/a"};
    bad_limits.request.limits.max_depth = 0;
    bad_limits.code = "bad_limits";
    cases.push_back(bad_limits);
  }

  for (const Case& test_case : cases) {
    TestClient client;
    ASSERT_TRUE(client.Connect(server.port())) << test_case.name;
    client.Send(FrameType::kRegister, EncodeRegister(test_case.request));
    Frame frame;
    ASSERT_TRUE(client.ReadFrame(&frame)) << test_case.name;
    ASSERT_EQ(frame.type, FrameType::kError) << test_case.name;
    ErrorInfo info;
    ASSERT_TRUE(ParseErrorInfo(frame.payload, &info));
    EXPECT_EQ(info.code, test_case.code) << test_case.name;
    EXPECT_TRUE(client.ReadEof()) << test_case.name;
  }

  // The server survived every rejection.
  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(RegisterDefault(&client));
  EXPECT_GE(server.stats().protocol_errors, 4);
  server.Stop();
}

TEST(Server, OversizedFrameRejectedFromItsHeader) {
  ServerOptions options = SmallServerOptions();
  options.limits.max_frame_payload = 4096;
  QueryServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  // Header declaring 1 MiB; the payload never needs to be sent for the
  // rejection to arrive.
  std::string header;
  header.push_back(static_cast<char>(FrameType::kData));
  uint32_t declared = 1 << 20;
  for (int i = 0; i < 4; ++i) {
    header.push_back(static_cast<char>((declared >> (8 * i)) & 0xff));
  }
  client.SendRaw(header);
  Frame frame;
  ASSERT_TRUE(client.ReadFrame(&frame));
  ASSERT_EQ(frame.type, FrameType::kError);
  ErrorInfo info;
  ASSERT_TRUE(ParseErrorInfo(frame.payload, &info));
  EXPECT_EQ(info.code, "frame_too_large");
  EXPECT_TRUE(client.ReadEof());
  server.Stop();
}

TEST(Server, UnknownFrameTypeAndUnregisteredDataRejected) {
  QueryServer server(SmallServerOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  {
    TestClient client;
    ASSERT_TRUE(client.Connect(server.port()));
    client.SendRaw(std::string("Z\0\0\0\0", 5));
    Frame frame;
    ASSERT_TRUE(client.ReadFrame(&frame));
    ASSERT_EQ(frame.type, FrameType::kError);
    ErrorInfo info;
    ASSERT_TRUE(ParseErrorInfo(frame.payload, &info));
    EXPECT_EQ(info.code, "bad_frame");
    EXPECT_TRUE(client.ReadEof());
  }
  {
    TestClient client;
    ASSERT_TRUE(client.Connect(server.port()));
    client.Send(FrameType::kData, "aA");
    Frame frame;
    ASSERT_TRUE(client.ReadFrame(&frame));
    ASSERT_EQ(frame.type, FrameType::kError);
    ErrorInfo info;
    ASSERT_TRUE(ParseErrorInfo(frame.payload, &info));
    EXPECT_EQ(info.code, "not_registered");
    EXPECT_TRUE(client.ReadEof());
  }
  server.Stop();
}

// --- chaos: disconnects, slow-loris, overload, backpressure ------------------

TEST(Server, MidStreamDisconnectReturnsTheLeasedSession) {
  QueryServer server(SmallServerOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  {
    TestClient client;
    ASSERT_TRUE(client.Connect(server.port()));
    ASSERT_TRUE(RegisterDefault(&client));
    // Half a document, then vanish.
    std::string document = MakeDocument(3, 4000);
    client.Send(FrameType::kData, document.substr(0, document.size() / 2));
    // Make sure the server actually started the stream before the cut.
    ASSERT_TRUE(WaitFor([&] { return server.stats().streams_started == 1; }));
    client.Close();
  }

  ASSERT_TRUE(WaitFor([&] {
    ServerStats stats = server.stats();
    return stats.disconnects_mid_stream == 1 && stats.active_streams == 0 &&
           stats.pool.outstanding == 0 && stats.active_connections == 0;
  })) << RenderMetrics(server.stats());
  server.Stop();
}

TEST(Server, SlowLorisHitsTheIdleTimeout) {
  ServerOptions options = SmallServerOptions();
  options.limits.idle_timeout_ms = 100;
  QueryServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(RegisterDefault(&client));
  // One byte of a frame header, then silence: the classic slow loris.
  client.SendRaw("D");
  Frame frame;
  ASSERT_TRUE(client.ReadFrame(&frame, /*timeout_ms=*/5000));
  ASSERT_EQ(frame.type, FrameType::kShed);
  ShedReason reason;
  ASSERT_TRUE(ParseShedReason(frame.payload, &reason));
  EXPECT_EQ(reason, ShedReason::kIdleTimeout);
  EXPECT_TRUE(client.ReadEof());
  EXPECT_EQ(server.stats().idle_timeouts, 1);
  server.Stop();
}

TEST(Server, OverloadShedsWithTypedVerdictsAndBoundedMemory) {
  ServerOptions options = SmallServerOptions();
  options.limits.max_streams = 2;
  QueryServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  std::string document = MakeDocument(8, 3000);
  OfflineVerdict offline = OfflineRun(TestQueries(), document);
  ASSERT_TRUE(offline.ok);

  // Two streams occupy the whole capacity (partial documents, no finish).
  TestClient holders[2];
  for (TestClient& holder : holders) {
    ASSERT_TRUE(holder.Connect(server.port()));
    ASSERT_TRUE(RegisterDefault(&holder));
    holder.Send(FrameType::kData, document.substr(0, 512));
  }
  ASSERT_TRUE(WaitFor([&] { return server.stats().active_streams == 2; }));

  // 2x the capacity on top: every extra document sheds with a typed frame,
  // the connection survives, and server memory stays flat.
  int64_t rss_before_kb = RssKb();
  TestClient extra;
  ASSERT_TRUE(extra.Connect(server.port()));
  ASSERT_TRUE(RegisterDefault(&extra));
  constexpr int kOverloadDocs = 50;
  for (int i = 0; i < kOverloadDocs; ++i) {
    SendDocument(&extra, document);
    Frame frame;
    ASSERT_TRUE(extra.ReadFrame(&frame)) << "overload doc " << i;
    ASSERT_EQ(frame.type, FrameType::kShed) << "overload doc " << i;
    ShedReason reason;
    ASSERT_TRUE(ParseShedReason(frame.payload, &reason));
    EXPECT_EQ(reason, ShedReason::kMaxStreams);
  }
  int64_t rss_after_kb = RssKb();
  EXPECT_EQ(server.stats().sheds_stream, kOverloadDocs);
  if (rss_before_kb > 0 && rss_after_kb > 0) {
    EXPECT_LT(rss_after_kb - rss_before_kb, 32 * 1024)  // < 32 MiB growth
        << "RSS grew from " << rss_before_kb << " to " << rss_after_kb;
  }

  // Capacity freed: the holders finish and verdict normally, after which
  // the shed-prone connection is admitted again.
  for (TestClient& holder : holders) {
    SendDocument(&holder, document.substr(512));
    Frame frame;
    ASSERT_TRUE(holder.ReadFrame(&frame));
    ASSERT_EQ(frame.type, FrameType::kCounts);
  }
  ASSERT_TRUE(WaitFor([&] { return server.stats().active_streams == 0; }));
  SendDocument(&extra, document);
  Frame frame;
  ASSERT_TRUE(extra.ReadFrame(&frame));
  ASSERT_EQ(frame.type, FrameType::kCounts);
  std::vector<int64_t> counts;
  ASSERT_TRUE(ParseCounts(frame.payload, &counts));
  EXPECT_EQ(counts, offline.counts);
  server.Stop();
}

TEST(Server, ConnectionShedBeyondMaxConnectionsIsTyped) {
  ServerOptions options = SmallServerOptions();
  options.limits.max_connections = 1;
  QueryServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  TestClient first;
  ASSERT_TRUE(first.Connect(server.port()));
  ASSERT_TRUE(RegisterDefault(&first));  // round trip: admission recorded

  TestClient second;
  ASSERT_TRUE(second.Connect(server.port()));
  Frame frame;
  ASSERT_TRUE(second.ReadFrame(&frame));
  ASSERT_EQ(frame.type, FrameType::kShed);
  ShedReason reason;
  ASSERT_TRUE(ParseShedReason(frame.payload, &reason));
  EXPECT_EQ(reason, ShedReason::kMaxConnections);
  EXPECT_TRUE(second.ReadEof());
  EXPECT_EQ(server.stats().sheds_connection, 1);
  server.Stop();
}

TEST(Server, BackpressurePausesReadsUntilTheClientDrains) {
  ServerOptions options = SmallServerOptions();
  options.limits.max_output_buffer = 4096;
  options.limits.resume_output_buffer = 1024;
  QueryServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(RegisterDefault(&client));

  // A burst of metrics requests without reading a byte back: each reply
  // is ~1 KiB, so the 4 KiB output bound trips and the server must stop
  // reading instead of buffering without limit.
  constexpr int kBurst = 64;
  for (int i = 0; i < kBurst; ++i) client.Send(FrameType::kMetrics, "");
  ASSERT_TRUE(
      WaitFor([&] { return server.stats().backpressure_pauses >= 1; }));

  // Draining the socket resumes the paused connection; every reply
  // eventually arrives, in order, none dropped.
  for (int i = 0; i < kBurst; ++i) {
    Frame frame;
    ASSERT_TRUE(client.ReadFrame(&frame)) << "reply " << i;
    ASSERT_EQ(frame.type, FrameType::kMetricsText) << "reply " << i;
  }
  server.Stop();
}

// --- drain -------------------------------------------------------------------

TEST(Server, DrainFinishesInFlightDocumentWithIdenticalCounts) {
  QueryServer server(SmallServerOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  std::string document = MakeDocument(21, 4000);
  OfflineVerdict offline = OfflineRun(TestQueries(), document);
  ASSERT_TRUE(offline.ok);

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(RegisterDefault(&client));
  client.Send(FrameType::kData, document.substr(0, document.size() / 2));
  ASSERT_TRUE(WaitFor([&] { return server.stats().active_streams == 1; }));

  server.RequestDrain();
  ASSERT_TRUE(WaitFor([&] { return server.draining(); }));

  // The in-flight document finishes normally — byte-identical verdict —
  // and only then does the typed drain verdict close the connection.
  client.Send(FrameType::kData, document.substr(document.size() / 2));
  client.Send(FrameType::kFinish, "");
  Frame frame;
  ASSERT_TRUE(client.ReadFrame(&frame));
  ASSERT_EQ(frame.type, FrameType::kCounts);
  std::vector<int64_t> counts;
  ASSERT_TRUE(ParseCounts(frame.payload, &counts));
  EXPECT_EQ(counts, offline.counts);

  ASSERT_TRUE(client.ReadFrame(&frame));
  ASSERT_EQ(frame.type, FrameType::kShed);
  ShedReason reason;
  ASSERT_TRUE(ParseShedReason(frame.payload, &reason));
  EXPECT_EQ(reason, ShedReason::kDraining);
  EXPECT_TRUE(client.ReadEof());
  client.Close();

  server.WaitUntilDrained();
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.drain_completed_streams, 1);
  EXPECT_EQ(stats.drain_forced_closes, 0);
  EXPECT_EQ(stats.active_connections, 0);
  EXPECT_EQ(stats.active_streams, 0);
}

TEST(Server, DrainDeadlineForceClosesStragglersWithTypedVerdict) {
  ServerOptions options = SmallServerOptions();
  options.limits.drain_deadline_ms = 100;
  QueryServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(RegisterDefault(&client));
  client.Send(FrameType::kData, MakeDocument(4, 2000).substr(0, 256));
  ASSERT_TRUE(WaitFor([&] { return server.stats().active_streams == 1; }));

  server.RequestDrain();
  // Never finish the document: the deadline hammer must fall.
  Frame frame;
  ASSERT_TRUE(client.ReadFrame(&frame, /*timeout_ms=*/5000));
  ASSERT_EQ(frame.type, FrameType::kShed);
  ShedReason reason;
  ASSERT_TRUE(ParseShedReason(frame.payload, &reason));
  EXPECT_EQ(reason, ShedReason::kDrainDeadline);
  EXPECT_TRUE(client.ReadEof());
  client.Close();

  server.WaitUntilDrained();
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.drain_forced_closes, 1);
  EXPECT_EQ(stats.active_streams, 0);
  EXPECT_EQ(stats.pool.outstanding, 0);
}

TEST(Server, SigtermDrainsThroughTheSignalPipe) {
  QueryServer server(SmallServerOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ASSERT_TRUE(server.InstallSignalDrain(SIGTERM));

  TestClient idle;
  ASSERT_TRUE(idle.Connect(server.port()));
  ASSERT_TRUE(RegisterDefault(&idle));

  raise(SIGTERM);

  // The idle connection is shed with the drain verdict and the server
  // winds down completely.
  Frame frame;
  ASSERT_TRUE(idle.ReadFrame(&frame));
  ASSERT_EQ(frame.type, FrameType::kShed);
  ShedReason reason;
  ASSERT_TRUE(ParseShedReason(frame.payload, &reason));
  EXPECT_EQ(reason, ShedReason::kDraining);
  EXPECT_TRUE(idle.ReadEof());
  idle.Close();

  server.WaitUntilDrained();
  EXPECT_TRUE(server.draining());
  EXPECT_EQ(server.stats().active_connections, 0);
}

}  // namespace
}  // namespace sst
