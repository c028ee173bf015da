// Property suite for incremental re-evaluation (engine/incremental.h):
// after any edit, ApplyEdit's results — match count, match events, first
// StreamError, recovered errors, and every chunking-invariant StreamStats
// counter — must be byte-identical to a full fail-fast rescan of the
// edited document by a fresh selector that never checkpoints. The sweep
// crosses random trees x three stream formats x the three execution tiers
// x generated edit kinds x checkpoint intervals {1, 7, 64, 4096}, so edits
// land before, on, after, and straddling checkpoint boundaries, and (with
// kCorruptByte under the recovery policies) inside malformed and
// recovered regions.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "automata/alphabet.h"
#include "base/rng.h"
#include "dra/stream_error.h"
#include "dra/streaming.h"
#include "engine/incremental.h"
#include "engine/query_plan.h"
#include "query/rpq.h"
#include "test_util.h"
#include "testing/edit_workload.h"
#include "trees/encoding.h"
#include "trees/generators.h"
#include "trees/tree.h"

namespace sst {
namespace {

// The three rungs of the degradation ladder over Alphabet "abc" (see
// engine_plan_test.cc for the tier verdicts these queries compile to).
struct TierCase {
  const char* name;
  const char* xpath;
  EvaluatorKind kind;
};

constexpr TierCase kTiers[] = {
    {"registerless", "/a//b", EvaluatorKind::kRegisterless},
    {"stackless", "/a/b", EvaluatorKind::kStackless},
    {"stack", "//a/b", EvaluatorKind::kStackBaseline},
};

constexpr StreamFormat kFormats[] = {StreamFormat::kCompactMarkup,
                                     StreamFormat::kXmlLite,
                                     StreamFormat::kCompactTerm};

constexpr int64_t kIntervals[] = {1, 7, 64, 4096};

const char* FormatName(StreamFormat format) {
  switch (format) {
    case StreamFormat::kCompactMarkup:
      return "markup";
    case StreamFormat::kXmlLite:
      return "xml";
    case StreamFormat::kCompactTerm:
      return "term";
  }
  return "?";
}

std::shared_ptr<const QueryPlan> CompileTier(const TierCase& tier,
                                             const Alphabet& alphabet,
                                             StreamFormat format) {
  PlanOptions options;
  options.format = format;
  options.encoding = format == StreamFormat::kCompactTerm
                         ? StreamEncoding::kTerm
                         : StreamEncoding::kMarkup;
  auto plan = QueryPlan::Compile(Rpq::FromXPath(tier.xpath, alphabet),
                                 options);
  EXPECT_EQ(plan->kind(), tier.kind) << tier.xpath;
  EXPECT_TRUE(plan->exact());
  return plan;
}

std::string Serialize(const Alphabet& alphabet, const Tree& tree,
                      StreamFormat format) {
  const EventStream events = Encode(tree);
  switch (format) {
    case StreamFormat::kCompactMarkup:
      return ToCompactMarkup(alphabet, events);
    case StreamFormat::kXmlLite:
      return ToXmlLite(alphabet, events);
    case StreamFormat::kCompactTerm:
      return ToCompactTerm(alphabet, events);
  }
  return {};
}

// Verdict-only event log — the same sink shape IncrementalSession
// installs, so oracle and session agree on matches_emitted and pending
// peaks by construction.
class LogSink final : public MatchSink {
 public:
  void OnMatch(const MatchEvent& event) override { events.push_back(event); }
  void OnSpanClose(const MatchEvent&) override {}
  bool wants_spans() const override { return false; }
  std::vector<MatchEvent> events;
};

// Everything a run of a document produces that an edit must reproduce.
struct RunResult {
  std::vector<MatchEvent> events;
  StreamStats stats;
  bool failed = false;
  bool complete = false;
  bool accepting = false;
  StreamError error;
  std::vector<StreamingSelector::RecoveredError> recovered;
};

// The oracle: a fresh plain selector (no checkpoints, no resume) scanning
// the whole document in one Feed. It gets no stack_table(), so stack plans
// resume and rescan on the kernel and are diffed against the generic tier.
RunResult FullRescan(const QueryPlan& plan, RecoveryPolicy policy,
                     const StreamLimits& limits, std::string_view doc) {
  auto machine = plan.NewMachine();
  StreamingSelector selector(machine.get(), plan.options().format,
                             &plan.alphabet(), &plan.scanner_tables(),
                             plan.fused(), plan.fused_dras());
  selector.set_recovery_policy(policy);
  selector.set_limits(limits);
  LogSink sink;
  selector.set_match_sink(&sink);
  if (selector.Feed(doc)) selector.Finish();
  RunResult r;
  r.events = std::move(sink.events);
  r.stats = selector.stats();
  r.failed = selector.failed();
  r.complete = selector.document_complete();
  r.accepting = selector.machine_accepting();
  r.error = selector.stream_error();
  r.recovered = selector.recovered_errors();
  return r;
}

RunResult FromSession(const IncrementalSession& session) {
  RunResult r;
  r.events = session.match_events();
  r.stats = session.stats();
  r.failed = session.failed();
  r.complete = session.document_complete();
  r.accepting = session.machine_accepting();
  r.error = session.stream_error();
  r.recovered = session.recovered_errors();
  return r;
}

void ExpectSameError(const StreamError& got, const StreamError& want,
                     const std::string& ctx) {
  EXPECT_EQ(got.code, want.code) << ctx;
  EXPECT_EQ(got.offset, want.offset) << ctx;
  if (got.code == want.code && !got.ok()) {
    EXPECT_EQ(got.depth, want.depth) << ctx;
  }
}

// Full-rescan parity, field by field. chunks_fed is excluded by design:
// it counts Feed calls, and resuming from a checkpoint necessarily feeds
// different chunks than a single-Feed rescan.
void ExpectParity(const RunResult& got, const RunResult& want,
                  const std::string& ctx) {
  EXPECT_EQ(got.events, want.events) << ctx;
  EXPECT_EQ(got.failed, want.failed) << ctx;
  EXPECT_EQ(got.complete, want.complete) << ctx;
  EXPECT_EQ(got.accepting, want.accepting) << ctx;
  ExpectSameError(got.error, want.error, ctx);

  ASSERT_EQ(got.recovered.size(), want.recovered.size()) << ctx;
  for (size_t i = 0; i < got.recovered.size(); ++i) {
    ExpectSameError(got.recovered[i].error, want.recovered[i].error, ctx);
    EXPECT_EQ(got.recovered[i].excise_from, want.recovered[i].excise_from)
        << ctx;
    EXPECT_EQ(got.recovered[i].resume_offset, want.recovered[i].resume_offset)
        << ctx;
    EXPECT_EQ(got.recovered[i].closed_label, want.recovered[i].closed_label)
        << ctx;
  }

  EXPECT_EQ(got.stats.bytes_fed, want.stats.bytes_fed) << ctx;
  EXPECT_EQ(got.stats.events, want.stats.events) << ctx;
  EXPECT_EQ(got.stats.max_depth, want.stats.max_depth) << ctx;
  EXPECT_EQ(got.stats.matches, want.stats.matches) << ctx;
  EXPECT_EQ(got.stats.errors_recovered, want.stats.errors_recovered) << ctx;
  EXPECT_EQ(got.stats.subtrees_skipped, want.stats.subtrees_skipped) << ctx;
  EXPECT_EQ(got.stats.error_offset, want.stats.error_offset) << ctx;
  EXPECT_EQ(got.stats.matches_emitted, want.stats.matches_emitted) << ctx;
  EXPECT_EQ(got.stats.max_stack_depth, want.stats.max_stack_depth) << ctx;
  EXPECT_EQ(got.stats.underflow_closes, want.stats.underflow_closes) << ctx;
}

// The core property loop: scan a document, then apply a chain of edits,
// checking full-rescan parity after the initial scan and after every
// Compact-markup sessions of every tier scan and resume on the fused
// kernel; only a recovery can demote them (to the generic tier).
void ExpectKernelTier(const QueryPlan& plan, StreamFormat format,
                      RecoveryPolicy policy,
                      const IncrementalSession& session,
                      const std::string& ctx) {
  if (format != StreamFormat::kCompactMarkup ||
      policy == RecoveryPolicy::kSkipMalformedSubtree) {
    return;
  }
  EXPECT_EQ(session.active_tier(),
            plan.kind() == EvaluatorKind::kStackless
                ? StreamingSelector::Tier::kFusedDraTable
                : StreamingSelector::Tier::kFusedByteTable)
      << ctx;
}

// edit. `corrupt_every` > 0 makes every corrupt_every-th edit a
// kCorruptByte injection (malformed region), exercising resumes from and
// convergence across recovered/failed regions.
void RunEditChain(const QueryPlan& plan, std::shared_ptr<const QueryPlan> sp,
                  StreamFormat format, RecoveryPolicy policy,
                  const StreamLimits& limits, std::string_view initial_doc,
                  int64_t interval, int edits, int corrupt_every,
                  uint64_t seed, const std::string& ctx) {
  IncrementalOptions options;
  options.checkpoint_interval = interval;
  options.policy = policy;
  options.limits = limits;
  IncrementalSession session(sp, options);

  std::string doc(initial_doc);
  session.Scan(doc);
  ASSERT_TRUE(session.checkpointing_supported()) << ctx;
  ExpectParity(FromSession(session),
               FullRescan(plan, policy, limits, doc), ctx + " scan");
  ExpectKernelTier(plan, format, policy, session, ctx + " scan");

  EditWorkload workload(&plan.alphabet(), format, seed);
  for (int e = 0; e < edits; ++e) {
    const bool corrupt = corrupt_every > 0 && (e + 1) % corrupt_every == 0;
    const DocEdit edit = corrupt
                             ? workload.Make(EditKind::kCorruptByte, doc)
                             : workload.Next(doc);
    const std::string next = EditWorkload::Apply(doc, edit);
    const std::string edit_ctx =
        ctx + " edit " + std::to_string(e) + " [" +
        std::to_string(edit.offset) + "," +
        std::to_string(edit.offset + edit.old_len) + ")->" +
        std::to_string(edit.new_bytes.size()) + "B";
    session.ApplyEdit(edit.offset, edit.old_len, edit.new_bytes, next);
    ExpectParity(FromSession(session),
                 FullRescan(plan, policy, limits, next), edit_ctx);
    ExpectKernelTier(plan, format, policy, session, edit_ctx);
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "stopping chain after first divergence: " << edit_ctx;
      return;
    }
    doc = next;
  }
}

// --- Initial-scan parity ---------------------------------------------

// A checkpointing Scan must itself be invisible: same results as a plain
// selector run across formats and tiers, including at interval 1 (a
// checkpoint at every byte boundary the grid hits).
TEST(IncrementalScan, MatchesPlainSelector) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Rng rng(2024);
  const auto trees = testing::SampleTrees(10 * testing::FuzzIters(),
                                          alphabet.size(), &rng);
  for (const TierCase& tier : kTiers) {
    for (StreamFormat format : kFormats) {
      auto plan = CompileTier(tier, alphabet, format);
      for (const Tree& tree : trees) {
        const std::string doc = Serialize(alphabet, tree, format);
        for (int64_t interval : kIntervals) {
          IncrementalOptions options;
          options.checkpoint_interval = interval;
          IncrementalSession session(plan, options);
          session.Scan(doc);
          const std::string ctx = std::string(tier.name) + "/" +
                                  FormatName(format) + " K=" +
                                  std::to_string(interval);
          ExpectParity(FromSession(session),
                       FullRescan(*plan, RecoveryPolicy::kFailFast,
                                  StreamLimits{}, doc),
                       ctx);
          ExpectKernelTier(*plan, format, RecoveryPolicy::kFailFast, session,
                           ctx);
        }
      }
    }
  }
}

// Rescanning (Scan called again) resets cleanly, including the checkpoint
// stream: counts reflect only the latest document.
TEST(IncrementalScan, RescanResets) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  auto plan = CompileTier(kTiers[2], alphabet, StreamFormat::kCompactMarkup);
  IncrementalOptions options;
  options.checkpoint_interval = 4;
  IncrementalSession session(plan, options);

  ASSERT_TRUE(session.Scan("a b B a bB A cC A"));
  const int64_t first_matches = session.matches();
  EXPECT_GT(first_matches, 0);
  const size_t first_cps = session.checkpoint_count();

  ASSERT_TRUE(session.Scan("cC"));
  EXPECT_EQ(session.matches(), 0);
  EXPECT_LT(session.checkpoint_count(), first_cps);
  ExpectParity(FromSession(session),
               FullRescan(*plan, RecoveryPolicy::kFailFast, StreamLimits{},
                          "cC"),
               "rescan");
}

// --- Edit parity: the main sweep -------------------------------------

// Well-formed edit chains under fail-fast, across every tier x format x
// interval. 30 trees per configuration (scaled by SST_FUZZ_ITERS).
TEST(IncrementalEdit, WellFormedEditParity) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Rng rng(7);
  const int trees_per_config = 30 * testing::FuzzIters();
  for (const TierCase& tier : kTiers) {
    for (StreamFormat format : kFormats) {
      auto plan = CompileTier(tier, alphabet, format);
      const auto trees =
          testing::SampleTrees(trees_per_config, alphabet.size(), &rng);
      int tree_index = 0;
      for (const Tree& tree : trees) {
        const std::string doc = Serialize(alphabet, tree, format);
        const int64_t interval =
            kIntervals[tree_index % std::size(kIntervals)];
        const std::string ctx = std::string(tier.name) + "/" +
                                FormatName(format) + " tree " +
                                std::to_string(tree_index) + " K=" +
                                std::to_string(interval);
        RunEditChain(*plan, plan, format, RecoveryPolicy::kFailFast,
                     StreamLimits{}, doc, interval, /*edits=*/4,
                     /*corrupt_every=*/0,
                     /*seed=*/1000 + static_cast<uint64_t>(tree_index), ctx);
        ++tree_index;
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

// Corrupting edits under fail-fast: the session must reproduce the fatal
// first error (code + offset + depth), and later edits must resume from a
// document whose previous run failed — including edits that repair the
// corruption so the document becomes clean again.
TEST(IncrementalEdit, FailFastCorruptionParity) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Rng rng(11);
  const int trees_per_config = 10 * testing::FuzzIters();
  for (const TierCase& tier : kTiers) {
    for (StreamFormat format : kFormats) {
      auto plan = CompileTier(tier, alphabet, format);
      const auto trees =
          testing::SampleTrees(trees_per_config, alphabet.size(), &rng);
      int tree_index = 0;
      for (const Tree& tree : trees) {
        const std::string doc = Serialize(alphabet, tree, format);
        const int64_t interval =
            kIntervals[tree_index % std::size(kIntervals)];
        const std::string ctx = std::string(tier.name) + "/" +
                                FormatName(format) + " corrupt tree " +
                                std::to_string(tree_index) + " K=" +
                                std::to_string(interval);
        RunEditChain(*plan, plan, format, RecoveryPolicy::kFailFast,
                     StreamLimits{}, doc, interval, /*edits=*/6,
                     /*corrupt_every=*/2,
                     /*seed=*/2000 + static_cast<uint64_t>(tree_index), ctx);
        ++tree_index;
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

// Corrupting edits under the recovery policies: edits land inside and
// around skipped/recovered regions, and the recovered-error list (with
// its absolute excise/resume offsets) must splice exactly.
TEST(IncrementalEdit, RecoveryPolicyParity) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Rng rng(13);
  const int trees_per_config = 8 * testing::FuzzIters();
  for (RecoveryPolicy policy : {RecoveryPolicy::kSkipMalformedSubtree,
                                RecoveryPolicy::kAutoClose}) {
    for (const TierCase& tier : kTiers) {
      for (StreamFormat format : kFormats) {
        auto plan = CompileTier(tier, alphabet, format);
        const auto trees =
            testing::SampleTrees(trees_per_config, alphabet.size(), &rng);
        int tree_index = 0;
        for (const Tree& tree : trees) {
          const std::string doc = Serialize(alphabet, tree, format);
          const int64_t interval =
              kIntervals[tree_index % std::size(kIntervals)];
          const std::string ctx =
              std::string(tier.name) + "/" + FormatName(format) +
              (policy == RecoveryPolicy::kAutoClose ? " autoclose "
                                                    : " skip ") +
              "tree " + std::to_string(tree_index) + " K=" +
              std::to_string(interval);
          RunEditChain(*plan, plan, format, policy, StreamLimits{}, doc,
                       interval, /*edits=*/6, /*corrupt_every=*/2,
                       /*seed=*/3000 + static_cast<uint64_t>(tree_index),
                       ctx);
          ++tree_index;
          if (::testing::Test::HasFailure()) return;
        }
      }
    }
  }
}

// --- Edit-path observability ------------------------------------------

// A small edit deep inside a large document must take the spliced-suffix
// fast path: convergence soon after the edit, the far suffix untouched,
// bytes_rescanned a small fraction of the document.
TEST(IncrementalEdit, SmallEditSplicesSuffix) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  auto plan = CompileTier(kTiers[1], alphabet, StreamFormat::kCompactMarkup);
  Rng rng(17);
  const Tree tree = RandomTree(80000, alphabet.size(), 0.3, &rng);
  const std::string doc =
      Serialize(alphabet, tree, StreamFormat::kCompactMarkup);
  ASSERT_GT(doc.size(), 16u * 4096u);  // 2 bytes/node: ~160k > 16 intervals

  IncrementalOptions options;
  options.checkpoint_interval = 4096;
  IncrementalSession session(plan, options);
  ASSERT_TRUE(session.Scan(doc));

  EditWorkload workload(&alphabet, StreamFormat::kCompactMarkup, 99);
  std::string cur = doc;
  bool saw_splice = false;
  for (int e = 0; e < 8; ++e) {
    const DocEdit edit = workload.Next(cur);
    const std::string next = EditWorkload::Apply(cur, edit);
    const auto outcome =
        session.ApplyEdit(edit.offset, edit.old_len, edit.new_bytes, next);
    ExpectParity(FromSession(session),
                 FullRescan(*plan, RecoveryPolicy::kFailFast, StreamLimits{},
                            next),
                 "splice edit " + std::to_string(e));
    if (outcome.path == IncrementalSession::EditPath::kSplicedSuffix) {
      saw_splice = true;
      EXPECT_GE(outcome.converged_at, edit.offset);
      EXPECT_LT(outcome.bytes_rescanned,
                static_cast<int64_t>(next.size()) / 2)
          << "spliced edit rescanned most of the document";
      EXPECT_LE(outcome.resumed_from, edit.offset);
    }
    cur = next;
  }
  EXPECT_TRUE(saw_splice)
      << "no edit of a 20k-node document took the fast path";
}

// Finite limits disable suffix splicing (prefix-dependent guards) but not
// checkpoint resume: edits still answer correctly via scan-to-end, and
// limit-triggered errors land at the same offsets as a full rescan.
TEST(IncrementalEdit, FiniteLimitsScanToEnd) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Rng rng(19);
  StreamLimits limits;
  limits.max_depth = 6;
  for (const TierCase& tier : kTiers) {
    auto plan = CompileTier(tier, alphabet, StreamFormat::kCompactMarkup);
    const auto trees = testing::SampleTrees(6 * testing::FuzzIters(),
                                            alphabet.size(), &rng);
    int tree_index = 0;
    for (const Tree& tree : trees) {
      const std::string doc =
          Serialize(alphabet, tree, StreamFormat::kCompactMarkup);
      IncrementalOptions options;
      options.checkpoint_interval = 7;
      options.limits = limits;
      IncrementalSession session(plan, options);
      session.Scan(doc);
      EditWorkload workload(&alphabet, StreamFormat::kCompactMarkup,
                            500 + static_cast<uint64_t>(tree_index));
      std::string cur = doc;
      for (int e = 0; e < 3; ++e) {
        const DocEdit edit = workload.Next(cur);
        const std::string next = EditWorkload::Apply(cur, edit);
        const auto outcome = session.ApplyEdit(edit.offset, edit.old_len,
                                               edit.new_bytes, next);
        EXPECT_NE(outcome.path,
                  IncrementalSession::EditPath::kSplicedSuffix)
            << "splice must be disabled under finite limits";
        ExpectParity(
            FromSession(session),
            FullRescan(*plan, RecoveryPolicy::kFailFast, limits, next),
            std::string(tier.name) + " limits tree " +
                std::to_string(tree_index) + " edit " + std::to_string(e));
        cur = next;
      }
      ++tree_index;
      if (::testing::Test::HasFailure()) return;
    }
  }
}

// Edge-position edits: prepending whitespace at offset 0 (before every
// checkpoint — forces the origin-checkpoint resume) and appending
// whitespace at EOF (after every checkpoint).
TEST(IncrementalEdit, DocumentEdgeEdits) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Rng rng(23);
  for (const TierCase& tier : kTiers) {
    for (StreamFormat format : kFormats) {
      auto plan = CompileTier(tier, alphabet, format);
      const Tree tree = RandomTree(30, alphabet.size(), 0.5, &rng);
      const std::string doc = Serialize(alphabet, tree, format);
      for (int64_t interval : kIntervals) {
        IncrementalOptions options;
        options.checkpoint_interval = interval;
        IncrementalSession session(plan, options);
        ASSERT_TRUE(session.Scan(doc));
        const std::string ctx = std::string(tier.name) + "/" +
                                FormatName(format) + " K=" +
                                std::to_string(interval);

        // Prepend.
        std::string cur = "  " + doc;
        session.ApplyEdit(0, 0, "  ", cur);
        ExpectParity(FromSession(session),
                     FullRescan(*plan, RecoveryPolicy::kFailFast,
                                StreamLimits{}, cur),
                     ctx + " prepend");

        // Append.
        const std::string next = cur + "\n";
        session.ApplyEdit(static_cast<int64_t>(cur.size()), 0, "\n", next);
        ExpectParity(FromSession(session),
                     FullRescan(*plan, RecoveryPolicy::kFailFast,
                                StreamLimits{}, next),
                     ctx + " append");

        // Delete the whole document, then rebuild it with one edit.
        session.ApplyEdit(0, static_cast<int64_t>(next.size()), "", "");
        ExpectParity(FromSession(session),
                     FullRescan(*plan, RecoveryPolicy::kFailFast,
                                StreamLimits{}, ""),
                     ctx + " clear");
        session.ApplyEdit(0, 0, doc, doc);
        ExpectParity(FromSession(session),
                     FullRescan(*plan, RecoveryPolicy::kFailFast,
                                StreamLimits{}, doc),
                     ctx + " rebuild");
      }
    }
  }
}

// An edit that exactly replaces the byte range between two checkpoints
// (straddling both boundaries) and one wholly inside a single checkpoint
// segment, deterministic rather than workload-generated.
TEST(IncrementalEdit, EditStraddlingCheckpointBoundary) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  auto plan = CompileTier(kTiers[2], alphabet, StreamFormat::kCompactMarkup);
  // 26 two-byte elements under one root: "a bB bB ... A" with checkpoints
  // every 8 bytes landing mid-element and between elements.
  std::string doc = "a";
  for (int i = 0; i < 26; ++i) doc += " bB";
  doc += " A";

  IncrementalOptions options;
  options.checkpoint_interval = 8;
  IncrementalSession session(plan, options);
  ASSERT_TRUE(session.Scan(doc));
  ASSERT_GT(session.checkpoint_count(), 4u);

  struct Case {
    int64_t offset;
    int64_t old_len;
    const char* replacement;
  };
  // Interval 8: checkpoints at 8, 16, 24, ... The first case replaces
  // [6, 18) — across two boundaries; the second edits inside [16, 24).
  const Case cases[] = {{6, 12, " cC cC"}, {17, 2, "cCbB"}};
  std::string cur = doc;
  for (const Case& c : cases) {
    const std::string next =
        cur.substr(0, static_cast<size_t>(c.offset)) + c.replacement +
        cur.substr(static_cast<size_t>(c.offset + c.old_len));
    session.ApplyEdit(c.offset, c.old_len, c.replacement, next);
    ExpectParity(FromSession(session),
                 FullRescan(*plan, RecoveryPolicy::kFailFast, StreamLimits{},
                            next),
                 "straddle @" + std::to_string(c.offset));
    cur = next;
  }
}

}  // namespace
}  // namespace sst
