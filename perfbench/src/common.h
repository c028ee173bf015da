#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Shared vocabulary of the benchmark: the result report, the tier
// registrations every in-process workload runs, the generated corpus with
// its offline oracle answers, and the per-run configuration.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "automata/alphabet.h"
#include "base/match_sink.h"
#include "dra/streaming.h"
#include "engine/multi_query.h"
#include "engine/query_plan.h"
#include "engine/session.h"
#include "stats.h"

namespace pb {

// --- Run configuration ---------------------------------------------------

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;       // scratch inside the checkout (port files)
  std::string server_binary;  // query_server built next to this binary
};

// --- Result report -------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  int64_t samples = 0;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           int64_t samples);
  // Counts one attempted operation; `failed` for refused, shed, timed-out
  // or erroring operations (an expected StreamError is not a failure).
  void Attempt(bool failed = false) {
    ++attempted_;
    if (failed) ++failed_;
  }
  // A wrong answer: printed at once, and the run exits non-zero.
  void Mismatch(const std::string& what);

  bool correct() const { return mismatches_ == 0; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::vector<Metric>& metrics() const { return metrics_; }

  // The contract's last line: {"correct", "attempted", "failed", "metrics"}.
  std::string ResultLine() const;

 private:
  std::vector<Metric> metrics_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t mismatches_ = 0;
};

// Child processes (the served workloads' query_server) are tracked so
// every exit path — including Die and a mismatch abort — kills and reaps
// them.
void TrackChild(int pid);
void UntrackChild(int pid);
void KillChildren();

[[noreturn]] void Die(const std::string& message);

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

inline constexpr double kMiB = 1024.0 * 1024.0;

double PeakRssMib(int pid = 0);  // VmHWM; 0 = this process
// Resets this process's VmHWM to its current RSS, so the peak covers the
// program's set-up and run and not the generation of the inputs.
void ResetPeakRss();

// --- Registrations -------------------------------------------------------

// The in-process registrations, one per execution tier.
enum RegId { kRegisterless, kStackless, kStack, kBatch, kMixed, kNumRegs };

const char* RegName(int reg);
const std::vector<std::string>& RegQueries(int reg);
// The 4-query registerless batch the served workloads register.
const std::vector<std::string>& ServedBatchQueries();

const sst::Alphabet& BenchAlphabet();  // {a..f}

// One registration compiled for one stream format.
struct Registration {
  int reg = 0;
  sst::StreamFormat format = sst::StreamFormat::kCompactMarkup;
  std::shared_ptr<const sst::QueryPlan> plan;        // single query
  std::shared_ptr<const sst::MultiQueryPlan> multi;  // batch
  std::string tier;  // compile-time verdict, for the provenance line
};

Registration Compile(int reg, sst::StreamFormat format);

// A per-stream evaluator over a Registration: a Session or BatchSession
// behind one surface.
class Stream {
 public:
  explicit Stream(const Registration& registration);

  bool Feed(std::string_view chunk) {
    return single_ ? single_->Feed(chunk) : batch_->Feed(chunk);
  }
  bool Finish() { return single_ ? single_->Finish() : batch_->Finish(); }
  void Reset() {
    if (single_) {
      single_->Reset();
    } else {
      batch_->Reset();
    }
  }
  bool failed() const { return single_ ? single_->failed() : batch_->failed(); }
  void set_match_sink(sst::MatchSink* sink) {
    if (single_) {
      single_->set_match_sink(sink);
    } else {
      batch_->set_match_sink(sink);
    }
  }
  // Matches counted so far, summed over the registration's queries.
  int64_t total_matches() const;
  std::vector<int64_t> counts() const;
  // The rung executing right now, for tier-byte attribution.
  sst::StreamingSelector::Tier active_tier() const;

 private:
  std::unique_ptr<sst::Session> single_;
  std::unique_ptr<sst::BatchSession> batch_;
};

// --- Corpus --------------------------------------------------------------

struct Doc {
  std::string bytes;
  sst::StreamFormat format = sst::StreamFormat::kCompactMarkup;
  // Offline answers per registration (index RegId); empty when unused.
  std::vector<std::vector<int64_t>> expected;
};

int FormatIndex(sst::StreamFormat format);  // markup 0, xml-lite 1, term 2
const char* FormatName(sst::StreamFormat format);

// Tree-shaped corpus for dense-chunked / padded-chunked / edit-session.
// Document byte sizes follow a fixed ladder (tens of KiB to a few MiB);
// formats, deep or bushy shapes and bushy heights follow the document
// index, and the seed picks the random trees and labels. Every document gets its offline answers: one-scan
// CountSelections (compact markup) and trees/ground_truth (all other
// formats, plus a seeded sample of markup documents, which also
// cross-checks the one-scan oracle).
std::vector<Doc> MakeTreeCorpus(uint64_t seed, bool padded,
                                const std::vector<size_t>& sizes,
                                Report* report);

// The document size ladder of the chunked workloads.
std::vector<size_t> ChunkedSizeLadder(bool padded);

// A dense compact-markup document of about `target_bytes` bytes, deep
// (long spines) or bushy (height-capped).
std::string RandomDocument(uint64_t seed, size_t target_bytes, bool deep);

// Offline one-scan answers for a compact-markup document; false when
// the registration has no one-scan rung.
bool OneScanCounts(const Registration& registration, std::string_view bytes,
                   std::vector<int64_t>* counts);

}  // namespace pb

#endif  // PERFBENCH_COMMON_H_
