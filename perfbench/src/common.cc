#include "common.h"

#include <malloc.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>

#include "base/check.h"
#include "dra/byte_dra_runner.h"
#include "dra/byte_runner.h"
#include "base/rng.h"
#include "query/rpq.h"
#include "trees/ground_truth.h"
#include "trees/tree.h"

namespace pb {

// --- Children and exits --------------------------------------------------

namespace {
std::set<int>& Children() {
  static std::set<int> children;
  return children;
}
}  // namespace

void TrackChild(int pid) { Children().insert(pid); }
void UntrackChild(int pid) { Children().erase(pid); }

void KillChildren() {
  for (int pid : Children()) {
    kill(pid, SIGKILL);
    int status = 0;
    waitpid(pid, &status, 0);
  }
  Children().clear();
}

void Die(const std::string& message) {
  std::fflush(stdout);
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  KillChildren();
  std::exit(2);
}

// --- Report --------------------------------------------------------------

void Report::Add(const std::string& name, double value,
                 const std::string& unit, int64_t samples) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m = Metric{name, value, unit, samples};
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit, samples});
}

void Report::Mismatch(const std::string& what) {
  ++mismatches_;
  std::printf("MISMATCH %s\n", what.c_str());
  std::printf("%s\n", ResultLine().c_str());
  std::fflush(stdout);
  KillChildren();
  std::exit(1);
}

std::string Report::ResultLine() const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) out << ", ";
    out << "\"" << m.name << "\": {\"value\": " << m.value
        << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

void ResetPeakRss() {
  malloc_trim(0);  // hand freed generator memory back first
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

double PeakRssMib(int pid) {
  std::string path = pid == 0 ? std::string("/proc/self/status")
                              : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

// --- Registrations -------------------------------------------------------

const char* RegName(int reg) {
  static const char* const kNames[kNumRegs] = {"registerless", "stackless",
                                               "stack", "batch", "mixed"};
  return kNames[reg];
}

const std::vector<std::string>& RegQueries(int reg) {
  static const std::vector<std::vector<std::string>> kQueries = {
      {"/a//b"},                             // registerless: byte table
      {"/a/b"},                              // stackless: fused DRA
      {"//a/b"},                             // stack: pushdown
      {"/a//c", "/a//d", "/a//e", "/a//f"},  // registerless product
      {"/a//c", "/a//d", "/a/b", "/a/c"},    // registerless + stackless
  };
  return kQueries[static_cast<size_t>(reg)];
}

const std::vector<std::string>& ServedBatchQueries() {
  return RegQueries(kBatch);
}

const sst::Alphabet& BenchAlphabet() {
  static const sst::Alphabet alphabet = sst::Alphabet::FromLetters("abcdef");
  return alphabet;
}

int FormatIndex(sst::StreamFormat format) {
  switch (format) {
    case sst::StreamFormat::kCompactMarkup:
      return 0;
    case sst::StreamFormat::kXmlLite:
      return 1;
    case sst::StreamFormat::kCompactTerm:
      return 2;
  }
  return 0;
}

const char* FormatName(sst::StreamFormat format) {
  static const char* const kNames[] = {"markup", "xml-lite", "term"};
  return kNames[FormatIndex(format)];
}

namespace {
sst::PlanOptions OptionsFor(sst::StreamFormat format) {
  sst::PlanOptions options;
  options.format = format;
  options.encoding = format == sst::StreamFormat::kCompactTerm
                         ? sst::StreamEncoding::kTerm
                         : sst::StreamEncoding::kMarkup;
  return options;
}
}  // namespace

Registration Compile(int reg, sst::StreamFormat format) {
  Registration r;
  r.reg = reg;
  r.format = format;
  const std::vector<std::string>& queries = RegQueries(reg);
  if (reg == kBatch || reg == kMixed) {
    std::vector<sst::BatchQuery> batch;
    for (const std::string& q : queries) {
      batch.push_back(sst::BatchQuery{sst::QuerySyntax::kXPath, q});
    }
    sst::MultiQueryOptions options;
    options.plan = OptionsFor(format);
    r.multi = sst::MultiQueryPlan::Compile(batch, BenchAlphabet(), options);
    r.tier = sst::MultiTierName(r.multi->tier());
  } else {
    r.plan = sst::QueryPlan::Compile(
        sst::Rpq::FromXPath(queries[0], BenchAlphabet()), OptionsFor(format));
    if (!r.plan->exact()) Die(std::string("inexact plan for ") + queries[0]);
    r.tier = sst::EvaluatorKindName(r.plan->kind());
    if (r.plan->fused() != nullptr) r.tier += "+fused";
    if (r.plan->fused_dra() != nullptr) r.tier += "+fused-dra";
  }
  return r;
}

Stream::Stream(const Registration& registration) {
  if (registration.plan) {
    single_ = std::make_unique<sst::Session>(registration.plan);
  } else {
    batch_ = std::make_unique<sst::BatchSession>(registration.multi);
  }
}

int64_t Stream::total_matches() const {
  if (single_) return single_->matches();
  int64_t total = 0;
  for (int64_t c : batch_->query_matches()) total += c;
  return total;
}

std::vector<int64_t> Stream::counts() const {
  if (single_) return {single_->matches()};
  return batch_->query_matches();
}

sst::StreamingSelector::Tier Stream::active_tier() const {
  if (single_) return single_->selector().active_tier();
  if (batch_->runner() != nullptr) {
    return batch_->runner()->selector().active_tier();
  }
  return sst::StreamingSelector::Tier::kGenericMachine;
}

bool OneScanCounts(const Registration& r, std::string_view bytes,
                   std::vector<int64_t>* counts) {
  if (r.format != sst::StreamFormat::kCompactMarkup) return false;
  if (r.multi) {
    sst::BatchSession session(r.multi);
    if (!session.one_scan_eligible()) return false;
    *counts = session.CountSelections(bytes);
    return true;
  }
  if (r.plan->fused() != nullptr) {
    *counts = {r.plan->fused()->CountSelections(bytes)};
  } else if (r.plan->fused_dra() != nullptr) {
    *counts = {r.plan->fused_dra()->CountSelections(bytes)};
  } else {
    sst::ByteStackRunner runner(r.plan->minimal_dfa());
    *counts = {runner.CountSelections(bytes)};
  }
  return true;
}

// --- Corpus --------------------------------------------------------------

namespace {

constexpr int kIndentCap = 12;  // padded indentation stops deepening here
constexpr int kIndentWidth = 4;

void AppendToken(const std::string& label, bool open,
                 sst::StreamFormat format, std::string* out) {
  switch (format) {
    case sst::StreamFormat::kCompactMarkup:
      out->push_back(open ? label[0]
                          : static_cast<char>(std::toupper(label[0])));
      break;
    case sst::StreamFormat::kXmlLite:
      out->append(open ? "<" : "</");
      out->append(label);
      out->push_back('>');
      break;
    case sst::StreamFormat::kCompactTerm:
      if (open) {
        out->append(label);
        out->push_back('{');
      } else {
        out->push_back('}');
      }
      break;
  }
}

// Iterative serialization (deep trees must not recurse). Padded output
// puts every token on its own line, indented by depth up to kIndentCap.
std::string Serialize(const sst::Tree& tree, sst::StreamFormat format,
                      bool padded) {
  const sst::Alphabet& alphabet = BenchAlphabet();
  std::string out;
  struct Item {
    int node;
    int depth;
    bool close;
  };
  std::vector<Item> stack = {{0, 1, false}};
  std::vector<int> kids;
  bool first = true;
  while (!stack.empty()) {
    Item item = stack.back();
    stack.pop_back();
    if (padded && !first) {
      out.push_back('\n');
      out.append(static_cast<size_t>(kIndentWidth *
                                     std::min(item.depth - 1, kIndentCap)),
                 ' ');
    }
    first = false;
    AppendToken(alphabet.LabelOf(tree.label(item.node)), !item.close, format,
                &out);
    if (item.close) continue;
    stack.push_back({item.node, item.depth, true});
    kids.clear();
    for (int c = tree.node(item.node).first_child; c >= 0;
         c = tree.node(c).next_sibling) {
      kids.push_back(c);
    }
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      stack.push_back({*it, item.depth + 1, false});
    }
  }
  return out;
}

// Labels below the root are skewed towards a and b, so the batch members
// (/a//c ... /a//f) stay selective: about a tenth of the nodes match.
sst::Symbol RandomLabel(sst::Rng* rng) {
  static const int kPerMille[] = {450, 450, 50, 30, 15, 5};  // a..f
  int draw = static_cast<int>(rng->NextBelow(1000));
  sst::Symbol s = 0;
  while (draw >= kPerMille[s]) draw -= kPerMille[s++];
  return s;
}

// Every document shares the root label 'a' (one schema, one root
// element), so every registration has answers in every document; below
// the root the shape is deep (long spines) or bushy (height-capped).
sst::Tree RandomShape(int nodes, bool deep, int height, sst::Rng* rng) {
  nodes = std::max(nodes, 16);
  sst::Tree tree;
  tree.AddRoot(0);
  std::vector<int> depth = {1};
  depth.reserve(static_cast<size_t>(nodes));
  for (int i = 1; i < nodes; ++i) {
    int parent;
    if (deep) {
      parent = rng->NextBool(0.9) ? i - 1
                                  : static_cast<int>(rng->NextBelow(i));
    } else {
      do {
        parent = static_cast<int>(rng->NextBelow(i));
      } while (depth[static_cast<size_t>(parent)] >= height);
    }
    tree.AddChild(parent, RandomLabel(rng));
    depth.push_back(depth[static_cast<size_t>(parent)] + 1);
  }
  return tree;
}

// Generates a tree whose serialization is close to target_bytes (dense
// markup is exactly two bytes per node; padded sizes are rescaled once).
std::string Generate(sst::Rng* rng, size_t target, sst::StreamFormat format,
                     bool padded, bool deep, int height, sst::Tree* tree_out) {
  double per_node = padded ? 80.0
                   : format == sst::StreamFormat::kCompactMarkup ? 2.0
                   : format == sst::StreamFormat::kXmlLite       ? 7.0
                                                                  : 3.0;
  std::string bytes;
  for (int attempt = 0; attempt < 3; ++attempt) {
    int nodes = static_cast<int>(static_cast<double>(target) / per_node);
    *tree_out = RandomShape(nodes, deep, height, rng);
    bytes = Serialize(*tree_out, format, padded);
    double ratio = static_cast<double>(bytes.size()) /
                   static_cast<double>(target);
    if (ratio > 0.8 && ratio < 1.25) break;
    per_node *= ratio;
  }
  return bytes;
}

std::vector<sst::Dfa> QueryDfas(int reg) {
  std::vector<sst::Dfa> dfas;
  for (const std::string& q : RegQueries(reg)) {
    dfas.push_back(sst::Rpq::FromXPath(q, BenchAlphabet()).minimal_dfa);
  }
  return dfas;
}

}  // namespace

std::vector<size_t> ChunkedSizeLadder(bool padded) {
  // Class counts are multiples of 2 (dense: one deep, one bushy) or 6
  // (padded: every shape in every format), so each class holds the same
  // mix whatever the seed. At least 100 documents, so the p99 over
  // (document, registration, chunk size) slots has 10 samples beyond it.
  const std::vector<std::pair<size_t, int>> dense = {
      {16 << 10, 48}, {32 << 10, 24}, {64 << 10, 12}, {128 << 10, 8},
      {256 << 10, 4}, {512 << 10, 2}, {2048 << 10, 2}};
  const std::vector<std::pair<size_t, int>> pretty = {
      {16 << 10, 30}, {32 << 10, 18}, {64 << 10, 18},  {128 << 10, 12},
      {256 << 10, 6}, {512 << 10, 6}, {1024 << 10, 6}, {2048 << 10, 6}};
  std::vector<size_t> sizes;
  for (const auto& [size, count] : padded ? pretty : dense) {
    for (int i = 0; i < count; ++i) sizes.push_back(size);
  }
  return sizes;
}

std::string RandomDocument(uint64_t seed, size_t target_bytes, bool deep) {
  sst::Rng rng(seed);
  sst::Tree tree;
  return Generate(&rng, target_bytes, sst::StreamFormat::kCompactMarkup,
                  /*padded=*/false, deep,
                  8 + static_cast<int>(rng.NextBelow(8)), &tree);
}

std::vector<Doc> MakeTreeCorpus(uint64_t seed, bool padded,
                                const std::vector<size_t>& sizes,
                                Report* report) {
  static const sst::StreamFormat kFormats[] = {
      sst::StreamFormat::kCompactMarkup, sst::StreamFormat::kXmlLite,
      sst::StreamFormat::kCompactTerm};
  sst::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  std::vector<std::vector<sst::Dfa>> dfas;
  for (int reg = 0; reg < kNumRegs; ++reg) dfas.push_back(QueryDfas(reg));
  std::vector<Registration> markup;
  for (int reg = 0; reg < kNumRegs; ++reg) {
    markup.push_back(Compile(reg, sst::StreamFormat::kCompactMarkup));
  }

  std::vector<Doc> docs;
  for (size_t i = 0; i < sizes.size(); ++i) {
    Doc doc;
    // Format, shape and bushy height follow the document index, never the
    // seed, so every size class holds the same mix whatever the seed:
    // padded documents split evenly across the three formats, each format
    // as often deep as bushy, and bushy heights (8..15, which set how much
    // indentation a padded document carries) are fixed per index.
    doc.format = padded ? kFormats[i % 3] : sst::StreamFormat::kCompactMarkup;
    sst::Tree tree;
    const bool deep = i % 2 == 0;
    const int height = 8 + static_cast<int>((i / 2) % 8);
    doc.bytes =
        Generate(&rng, sizes[i], doc.format, padded, deep, height, &tree);
    bool markup_doc = doc.format == sst::StreamFormat::kCompactMarkup;
    bool sampled = !markup_doc || rng.NextBool(0.25) || i == 0;
    doc.expected.resize(kNumRegs);
    for (int reg = 0; reg < kNumRegs; ++reg) {
      std::vector<int64_t> truth;
      if (sampled) {
        for (const sst::Dfa& dfa : dfas[static_cast<size_t>(reg)]) {
          int64_t n = 0;
          for (bool selected : sst::SelectNodes(dfa, tree)) n += selected;
          truth.push_back(n);
        }
      }
      std::vector<int64_t> one_scan;
      if (markup_doc &&
          OneScanCounts(markup[static_cast<size_t>(reg)], doc.bytes,
                        &one_scan)) {
        if (sampled && one_scan != truth) {
          report->Mismatch(std::string("one-scan vs ground truth, ") +
                           RegName(reg) + " doc " + std::to_string(i));
        }
        doc.expected[static_cast<size_t>(reg)] = one_scan;
      } else {
        SST_CHECK(sampled);
        doc.expected[static_cast<size_t>(reg)] = truth;
      }
    }
    docs.push_back(std::move(doc));
  }
  return docs;
}

}  // namespace pb
