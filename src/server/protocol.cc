#include "server/protocol.h"

#include <cstring>
#include <limits>

namespace sst {

namespace {

// Little-endian uint32, independent of host byte order.
void PutU32(uint32_t value, std::string* out) {
  out->push_back(static_cast<char>(value & 0xff));
  out->push_back(static_cast<char>((value >> 8) & 0xff));
  out->push_back(static_cast<char>((value >> 16) & 0xff));
  out->push_back(static_cast<char>((value >> 24) & 0xff));
}

uint32_t GetU32(const char* p) {
  const unsigned char* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(u[0]) | (static_cast<uint32_t>(u[1]) << 8) |
         (static_cast<uint32_t>(u[2]) << 16) |
         (static_cast<uint32_t>(u[3]) << 24);
}

// Iterates `key=value` lines; returns false on the first line without '='.
template <typename Fn>
bool ForEachLine(std::string_view payload, Fn&& fn) {
  size_t start = 0;
  while (start < payload.size()) {
    size_t end = payload.find('\n', start);
    if (end == std::string_view::npos) end = payload.size();
    std::string_view line = payload.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    size_t eq = line.find('=');
    if (eq == std::string_view::npos) return false;
    if (!fn(line.substr(0, eq), line.substr(eq + 1))) return false;
  }
  return true;
}

// Unsigned decimal in [0, max]; rejects anything larger rather than
// wrapping, so an accepted value always re-encodes to itself.
bool ParseInt64(std::string_view text, int64_t* value,
                int64_t max = std::numeric_limits<int64_t>::max()) {
  if (text.empty()) return false;
  int64_t parsed = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    const int digit = c - '0';
    if (parsed > (max - digit) / 10) return false;
    parsed = parsed * 10 + digit;
  }
  *value = parsed;
  return true;
}

// Signed decimal field (offsets may be -1: no coordinate / truncated).
bool ParseSignedInt64(std::string_view text, int64_t* value) {
  bool negative = !text.empty() && text[0] == '-';
  if (negative) text.remove_prefix(1);
  int64_t parsed = 0;
  if (!ParseInt64(text, &parsed)) return false;
  *value = negative ? -parsed : parsed;
  return true;
}

constexpr int64_t kIntMax = std::numeric_limits<int>::max();

void AppendKeyValue(std::string_view key, std::string_view value,
                    std::string* out) {
  out->append(key);
  out->push_back('=');
  out->append(value);
  out->push_back('\n');
}

void AppendKeyValue(std::string_view key, int64_t value, std::string* out) {
  AppendKeyValue(key, std::to_string(value), out);
}

const char* FormatName(StreamFormat format) {
  switch (format) {
    case StreamFormat::kCompactMarkup:
      return "markup";
    case StreamFormat::kXmlLite:
      return "xml";
    case StreamFormat::kCompactTerm:
      return "term";
  }
  return "markup";
}

bool ParseFormat(std::string_view name, StreamFormat* format) {
  if (name == "markup") {
    *format = StreamFormat::kCompactMarkup;
  } else if (name == "xml") {
    *format = StreamFormat::kXmlLite;
  } else if (name == "term") {
    *format = StreamFormat::kCompactTerm;
  } else {
    return false;
  }
  return true;
}

}  // namespace

bool IsKnownFrameType(uint8_t byte) {
  switch (static_cast<FrameType>(byte)) {
    case FrameType::kRegister:
    case FrameType::kData:
    case FrameType::kFinish:
    case FrameType::kMetrics:
    case FrameType::kGoodbye:
    case FrameType::kRegistered:
    case FrameType::kCounts:
    case FrameType::kError:
    case FrameType::kShed:
    case FrameType::kMetricsText:
    case FrameType::kMatches:
      return true;
  }
  return false;
}

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kRegister:
      return "kRegister";
    case FrameType::kData:
      return "kData";
    case FrameType::kFinish:
      return "kFinish";
    case FrameType::kMetrics:
      return "kMetrics";
    case FrameType::kGoodbye:
      return "kGoodbye";
    case FrameType::kRegistered:
      return "kRegistered";
    case FrameType::kCounts:
      return "kCounts";
    case FrameType::kError:
      return "kError";
    case FrameType::kShed:
      return "kShed";
    case FrameType::kMetricsText:
      return "kMetricsText";
    case FrameType::kMatches:
      return "kMatches";
  }
  return "unknown";
}

void AppendFrame(FrameType type, std::string_view payload, std::string* out) {
  out->push_back(static_cast<char>(type));
  PutU32(static_cast<uint32_t>(payload.size()), out);
  out->append(payload);
}

void FrameDecoder::Append(std::string_view bytes) {
  if (pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  }
  buf_.append(bytes);
}

FrameDecoder::Status FrameDecoder::Next(Frame* frame) {
  if (buf_.size() - pos_ < kFrameHeaderBytes) return Status::kNeedMore;
  uint8_t type_byte = static_cast<uint8_t>(buf_[pos_]);
  if (!IsKnownFrameType(type_byte)) return Status::kBadType;
  uint32_t length = GetU32(buf_.data() + pos_ + 1);
  if (length > max_payload_) return Status::kTooLarge;
  if (buf_.size() - pos_ - kFrameHeaderBytes < length) return Status::kNeedMore;
  frame->type = static_cast<FrameType>(type_byte);
  frame->payload.assign(buf_, pos_ + kFrameHeaderBytes, length);
  pos_ += kFrameHeaderBytes + length;
  if (pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  }
  return Status::kFrame;
}

const char* ShedReasonName(ShedReason reason) {
  switch (reason) {
    case ShedReason::kMaxConnections:
      return "max_connections";
    case ShedReason::kMaxStreams:
      return "max_streams";
    case ShedReason::kPoolSaturated:
      return "pool_saturated";
    case ShedReason::kDraining:
      return "draining";
    case ShedReason::kDrainDeadline:
      return "drain_deadline";
    case ShedReason::kIdleTimeout:
      return "idle_timeout";
    case ShedReason::kWriteTimeout:
      return "write_timeout";
  }
  return "unknown";
}

bool ParseShedReason(std::string_view payload, ShedReason* reason) {
  size_t eq = payload.find('=');
  std::string_view name =
      eq == std::string_view::npos ? payload : payload.substr(eq + 1);
  size_t nl = name.find('\n');
  if (nl != std::string_view::npos) name = name.substr(0, nl);
  for (ShedReason candidate :
       {ShedReason::kMaxConnections, ShedReason::kMaxStreams,
        ShedReason::kPoolSaturated, ShedReason::kDraining,
        ShedReason::kDrainDeadline, ShedReason::kIdleTimeout,
        ShedReason::kWriteTimeout}) {
    if (name == ShedReasonName(candidate)) {
      *reason = candidate;
      return true;
    }
  }
  return false;
}

std::string EncodeShed(ShedReason reason) {
  std::string payload;
  AppendKeyValue("reason", ShedReasonName(reason), &payload);
  return payload;
}

std::string EncodeRegister(const RegisterRequest& request) {
  std::string payload;
  AppendKeyValue("alphabet", request.alphabet, &payload);
  AppendKeyValue("format", FormatName(request.format), &payload);
  if (request.limits.max_depth != StreamLimits::kUnlimited) {
    AppendKeyValue("max_depth", request.limits.max_depth, &payload);
  }
  if (request.limits.max_document_bytes != StreamLimits::kUnlimited) {
    AppendKeyValue("max_document_bytes", request.limits.max_document_bytes,
                   &payload);
  }
  if (request.limits.max_events != StreamLimits::kUnlimited) {
    AppendKeyValue("max_events", request.limits.max_events, &payload);
  }
  if (request.limits.max_recovered_errors != StreamLimits::kUnlimited) {
    AppendKeyValue("max_recovered_errors",
                   request.limits.max_recovered_errors, &payload);
  }
  if (request.limits.max_pending_matches != StreamLimits::kUnlimited) {
    AppendKeyValue("max_pending_matches",
                   request.limits.max_pending_matches, &payload);
  }
  if (request.matches) {
    AppendKeyValue("matches", static_cast<int64_t>(1), &payload);
  }
  for (const std::string& query : request.queries) {
    AppendKeyValue("query", query, &payload);
  }
  return payload;
}

bool ParseRegister(std::string_view payload, RegisterRequest* request,
                   std::string* error) {
  *request = RegisterRequest{};
  bool ok = ForEachLine(payload, [&](std::string_view key,
                                     std::string_view value) {
    if (key == "alphabet") {
      request->alphabet.assign(value);
      return true;
    }
    if (key == "format") {
      if (!ParseFormat(value, &request->format)) {
        *error = "unknown format (expected markup|xml|term)";
        return false;
      }
      return true;
    }
    if (key == "query") {
      request->queries.emplace_back(value);
      return true;
    }
    if (key == "matches") {
      request->matches = value == "1";
      return true;
    }
    int64_t parsed = 0;
    if (key == "max_depth" || key == "max_document_bytes" ||
        key == "max_events" || key == "max_recovered_errors" ||
        key == "max_pending_matches") {
      if (!ParseInt64(value, &parsed)) {
        *error = std::string("non-numeric ") + std::string(key);
        return false;
      }
      if (key == "max_depth") request->limits.max_depth = parsed;
      if (key == "max_document_bytes") {
        request->limits.max_document_bytes = parsed;
      }
      if (key == "max_events") request->limits.max_events = parsed;
      if (key == "max_recovered_errors") {
        request->limits.max_recovered_errors = parsed;
      }
      if (key == "max_pending_matches") {
        request->limits.max_pending_matches = parsed;
      }
      return true;
    }
    *error = std::string("unknown register key: ") + std::string(key);
    return false;
  });
  if (!ok) {
    if (error->empty()) *error = "malformed register payload";
    return false;
  }
  if (request->alphabet.empty()) {
    *error = "register payload missing alphabet";
    return false;
  }
  if (request->queries.empty()) {
    *error = "register payload has no queries";
    return false;
  }
  return true;
}

std::string EncodeRegistered(const RegisteredInfo& info) {
  std::string payload;
  AppendKeyValue("queries", info.num_queries, &payload);
  AppendKeyValue("slots", info.num_slots, &payload);
  AppendKeyValue("tier", info.tier, &payload);
  return payload;
}

bool ParseRegistered(std::string_view payload, RegisteredInfo* info) {
  *info = RegisteredInfo{};
  return ForEachLine(payload,
                     [&](std::string_view key, std::string_view value) {
                       int64_t parsed = 0;
                       if (key == "queries" &&
                           ParseInt64(value, &parsed, kIntMax)) {
                         info->num_queries = static_cast<int>(parsed);
                       } else if (key == "slots" &&
                                  ParseInt64(value, &parsed, kIntMax)) {
                         info->num_slots = static_cast<int>(parsed);
                       } else if (key == "tier") {
                         info->tier.assign(value);
                       } else {
                         return false;
                       }
                       return true;
                     });
}

std::string EncodeErrorInfo(const ErrorInfo& info) {
  std::string payload;
  AppendKeyValue("code", info.code, &payload);
  AppendKeyValue("offset", info.offset, &payload);
  AppendKeyValue("depth", info.depth, &payload);
  AppendKeyValue("msg", info.message, &payload);
  return payload;
}

bool ParseErrorInfo(std::string_view payload, ErrorInfo* info) {
  *info = ErrorInfo{};
  return ForEachLine(
      payload, [&](std::string_view key, std::string_view value) {
        if (key == "code") {
          info->code.assign(value);
        } else if (key == "offset") {
          if (!ParseSignedInt64(value, &info->offset)) return false;
        } else if (key == "depth") {
          if (!ParseInt64(value, &info->depth)) return false;
        } else if (key == "msg") {
          info->message.assign(value);
        } else {
          return false;
        }
        return true;
      });
}

ErrorInfo StreamErrorInfo(const StreamError& error, const Alphabet* alphabet) {
  ErrorInfo info;
  info.code = StreamErrorCodeName(error.code);
  info.offset = error.offset;
  info.depth = error.depth;
  info.message = error.Render(alphabet);
  return info;
}

std::string EncodeCounts(const std::vector<int64_t>& counts) {
  std::string payload;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (i > 0) payload.push_back(' ');
    payload.append(std::to_string(counts[i]));
  }
  return payload;
}

bool ParseCounts(std::string_view payload, std::vector<int64_t>* counts) {
  counts->clear();
  size_t start = 0;
  while (start < payload.size()) {
    size_t end = payload.find(' ', start);
    if (end == std::string_view::npos) end = payload.size();
    int64_t value = 0;
    if (!ParseInt64(payload.substr(start, end - start), &value)) return false;
    counts->push_back(value);
    start = end + 1;
  }
  return true;
}

namespace {

// Splits `line` on single spaces into at most `max_fields` fields.
int SplitFields(std::string_view line, std::string_view* fields,
                int max_fields) {
  int count = 0;
  size_t start = 0;
  while (start <= line.size() && count < max_fields) {
    size_t end = line.find(' ', start);
    if (end == std::string_view::npos) end = line.size();
    fields[count++] = line.substr(start, end - start);
    if (end == line.size()) return count;
    start = end + 1;
  }
  return start <= line.size() ? -1 : count;  // -1: too many fields
}

}  // namespace

std::string EncodeMatches(const std::vector<MatchWireRecord>& records) {
  std::string payload;
  payload.reserve(records.size() * 16);
  for (const MatchWireRecord& record : records) {
    const MatchEvent& e = record.event;
    payload.push_back(record.close ? 'c' : 'm');
    payload.push_back(' ');
    payload.append(std::to_string(e.query_id));
    payload.push_back(' ');
    payload.append(std::to_string(e.start_offset));
    payload.push_back(' ');
    if (record.close) {
      payload.append(std::to_string(e.end_offset));
      payload.push_back(' ');
    }
    payload.append(std::to_string(e.certainty_offset));
    payload.push_back('\n');
  }
  return payload;
}

bool ParseMatches(std::string_view payload,
                  std::vector<MatchWireRecord>* records) {
  records->clear();
  size_t start = 0;
  while (start < payload.size()) {
    size_t end = payload.find('\n', start);
    if (end == std::string_view::npos) end = payload.size();
    std::string_view line = payload.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    std::string_view fields[5];
    int n = SplitFields(line, fields, 5);
    MatchWireRecord record;
    int64_t query = 0;
    constexpr int64_t kQueryMax = std::numeric_limits<int32_t>::max();
    if (fields[0] == "m" && n == 4) {
      record.close = false;
      if (!ParseInt64(fields[1], &query, kQueryMax) ||
          !ParseSignedInt64(fields[2], &record.event.start_offset) ||
          !ParseSignedInt64(fields[3], &record.event.certainty_offset)) {
        return false;
      }
    } else if (fields[0] == "c" && n == 5) {
      record.close = true;
      if (!ParseInt64(fields[1], &query, kQueryMax) ||
          !ParseSignedInt64(fields[2], &record.event.start_offset) ||
          !ParseSignedInt64(fields[3], &record.event.end_offset) ||
          !ParseSignedInt64(fields[4], &record.event.certainty_offset)) {
        return false;
      }
    } else {
      return false;
    }
    record.event.query_id = static_cast<int32_t>(query);
    records->push_back(record);
  }
  return true;
}

}  // namespace sst
