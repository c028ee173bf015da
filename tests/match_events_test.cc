#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "automata/alphabet.h"
#include "base/match_sink.h"
#include "base/rng.h"
#include "dra/byte_dra_runner.h"
#include "dra/byte_runner.h"
#include "dra/multi_runner.h"
#include "dra/stream_error.h"
#include "dra/streaming.h"
#include "dra/tag_dfa.h"
#include "engine/multi_query.h"
#include "engine/query_plan.h"
#include "engine/session.h"
#include "eval/registerless_query.h"
#include "eval/stack_evaluator.h"
#include "query/rpq.h"
#include "server/metrics.h"
#include "server/protocol.h"
#include "test_util.h"
#include "testing/fault_injection.h"
#include "trees/encoding.h"
#include "trees/ground_truth.h"

namespace sst {
namespace {

// The match-event pipeline, end to end: earliest-certain emission,
// byte-span offsets, and the two invariance guarantees of
// base/match_sink.h — the OnMatch and OnSpanClose sequences are identical
// under every chunking of the input and on every rung of the degradation
// ladder (fused byte table, fused DRA table, generic machine, stack
// baseline). Every test diffs whole CollectingSink logs, not counts.

// Hides the fused-tier exports so a selector built on it runs the generic
// machine tier — the cross-tier oracle.
class OpaqueMachine : public StreamMachine {
 public:
  explicit OpaqueMachine(StreamMachine* inner) : inner_(inner) {}
  void Reset() override { inner_->Reset(); }
  void OnOpen(Symbol symbol) override { inner_->OnOpen(symbol); }
  void OnClose(Symbol symbol) override { inner_->OnClose(symbol); }
  bool InAcceptingState() const override {
    return inner_->InAcceptingState();
  }

 private:
  StreamMachine* inner_;
};

// One run's complete observable output, for whole-log differential
// comparison.
struct EventLog {
  std::vector<MatchEvent> matches;
  std::vector<MatchEvent> spans;
  int64_t count = 0;
  bool finished = false;
  StreamErrorCode error_code = StreamErrorCode::kNone;
  int64_t error_offset = -1;

  friend bool operator==(const EventLog&, const EventLog&) = default;
};

EventLog Collect(StreamingSelector* selector, CollectingSink* sink,
                 const std::vector<std::string_view>& chunks) {
  sink->Reset();
  selector->set_match_sink(sink);
  selector->Reset();
  bool ok = true;
  for (std::string_view chunk : chunks) {
    if (!selector->Feed(chunk)) {
      ok = false;
      break;
    }
  }
  EventLog log;
  log.finished = ok && selector->Finish();
  log.matches = sink->matches();
  log.spans = sink->spans();
  log.count = selector->matches();
  log.error_code = selector->stream_error().code;
  log.error_offset = selector->stream_error().offset;
  return log;
}

std::vector<std::string_view> Chunked(std::string_view text, size_t chunk) {
  std::vector<std::string_view> chunks;
  for (size_t i = 0; i < text.size(); i += chunk) {
    chunks.push_back(text.substr(i, chunk));
  }
  return chunks;
}

EventLog CollectChunked(StreamingSelector* selector, CollectingSink* sink,
                        std::string_view text, size_t chunk) {
  return Collect(selector, sink, Chunked(text, chunk));
}

constexpr size_t kChunkings[] = {1, 3, 16, 65536};

std::shared_ptr<const QueryPlan> CompileXPath(const std::string& xpath,
                                              const Alphabet& alphabet,
                                              PlanOptions options = {}) {
  return QueryPlan::Compile(Rpq::FromXPath(xpath, alphabet), options);
}

// Stackless queries over {a, b, c} whose plans carry the fused DRA rung
// (filtered by verdict, like stackless_fused_test).
std::vector<std::string> StacklessFusedXPaths(const Alphabet& alphabet) {
  std::vector<std::string> xpaths;
  for (const char* xpath : {"/a/b", "/b/*//c", "/a/b//c", "/c/a"}) {
    auto plan = CompileXPath(xpath, alphabet);
    if (plan->kind() == EvaluatorKind::kStackless &&
        plan->fused_dra() != nullptr) {
      xpaths.push_back(xpath);
    }
  }
  return xpaths;
}

// --- Hand-computed offsets, one per byte format --------------------------

// Select-all over "aabBAbBA" = a( a(b), b ): verdicts at the byte after
// each opening letter, ends at the byte after each closing letter.
TEST(MatchEvents, HandComputedSpansCompactMarkup) {
  Alphabet alphabet = Alphabet::FromLetters("ab");
  Dfa dfa = CompileRegex(".*", alphabet);
  StackQueryEvaluator machine(&dfa);
  StreamingSelector selector(&machine, StreamFormat::kCompactMarkup,
                             &alphabet);
  CollectingSink sink;
  EventLog log = CollectChunked(&selector, &sink, "aabBAbBA", 1);
  ASSERT_TRUE(log.finished);
  EXPECT_EQ(log.matches, (std::vector<MatchEvent>{
                             {0, 0, -1, 1},
                             {0, 1, -1, 2},
                             {0, 2, -1, 3},
                             {0, 5, -1, 6},
                         }));
  // Close order: inner-first.
  EXPECT_EQ(log.spans, (std::vector<MatchEvent>{
                           {0, 2, 4, 3},
                           {0, 1, 5, 2},
                           {0, 5, 7, 6},
                           {0, 0, 8, 1},
                       }));
}

// XML-lite: start at '<', certainty just past the opening tag's '>', end
// just past the closing tag's '>'.
TEST(MatchEvents, HandComputedSpansXmlLite) {
  Alphabet alphabet = Alphabet::FromLetters("ab");
  Dfa dfa = CompileRegex(".*", alphabet);
  StackQueryEvaluator machine(&dfa);
  StreamingSelector selector(&machine, StreamFormat::kXmlLite, &alphabet);
  CollectingSink sink;
  EventLog log = CollectChunked(&selector, &sink, "<a><b></b></a>", 1);
  ASSERT_TRUE(log.finished);
  EXPECT_EQ(log.matches, (std::vector<MatchEvent>{
                             {0, 0, -1, 3},
                             {0, 3, -1, 6},
                         }));
  EXPECT_EQ(log.spans, (std::vector<MatchEvent>{
                           {0, 3, 10, 6},
                           {0, 0, 14, 3},
                       }));
}

// Term encoding: start at the label byte, certainty just past its '{',
// end just past the matching '}'.
TEST(MatchEvents, HandComputedSpansCompactTerm) {
  Alphabet alphabet = Alphabet::FromLetters("ab");
  Dfa dfa = CompileRegex(".*", alphabet);
  TagDfa evaluator = BuildRegisterlessQueryAutomaton(dfa, /*blind=*/true);
  TagDfaMachine machine(&evaluator);
  StreamingSelector selector(&machine, StreamFormat::kCompactTerm, &alphabet);
  CollectingSink sink;
  EventLog log = CollectChunked(&selector, &sink, "a{b{}}", 1);
  ASSERT_TRUE(log.finished);
  EXPECT_EQ(log.matches, (std::vector<MatchEvent>{
                             {0, 0, -1, 2},
                             {0, 2, -1, 4},
                         }));
  EXPECT_EQ(log.spans, (std::vector<MatchEvent>{
                           {0, 2, 5, 4},
                           {0, 0, 6, 2},
                       }));
}

// --- Earliest emission ----------------------------------------------------

// The tentpole property: an event with certainty_offset c is emitted by
// the time c bytes have been consumed, and never earlier — feeding any
// prefix of length k produces exactly the events with certainty <= k.
TEST(MatchEvents, PrefixOfLengthKEmitsExactlyEventsCertainByK) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Dfa dfa = CompileRegex("a.*b", alphabet);
  TagDfa evaluator = BuildRegisterlessQueryAutomaton(dfa, /*blind=*/false);
  Rng rng(17);
  for (const Tree& tree : testing::SampleTrees(8, 3, &rng)) {
    std::string text = ToCompactMarkup(alphabet, Encode(tree));
    TagDfaMachine machine(&evaluator);
    StreamingSelector selector(&machine, StreamFormat::kCompactMarkup,
                               &alphabet);
    CollectingSink sink;
    EventLog full = CollectChunked(&selector, &sink, text, text.size());
    ASSERT_TRUE(full.finished);
    for (size_t k = 0; k <= text.size(); ++k) {
      sink.Reset();
      selector.set_match_sink(&sink);
      selector.Reset();
      ASSERT_TRUE(selector.Feed(std::string_view(text).substr(0, k)));
      std::vector<MatchEvent> expected;
      for (const MatchEvent& event : full.matches) {
        if (event.certainty_offset <= static_cast<int64_t>(k)) {
          expected.push_back(event);
        }
      }
      EXPECT_EQ(sink.matches(), expected) << "prefix " << k << " of " << text;
    }
  }
}

// Suffix perturbation: replacing everything after an event's certainty
// offset with junk cannot retract the event — the verdicts stay, and the
// spans still pending at the error are reported truncated, not dropped.
TEST(MatchEvents, JunkSuffixKeepsVerdictsAndTruncatesPendingSpans) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Dfa dfa = CompileRegex("a.*b", alphabet);
  TagDfa evaluator = BuildRegisterlessQueryAutomaton(dfa, /*blind=*/false);
  Rng rng(29);
  for (const Tree& tree : testing::SampleTrees(12, 3, &rng)) {
    std::string text = ToCompactMarkup(alphabet, Encode(tree));
    TagDfaMachine machine(&evaluator);
    StreamingSelector selector(&machine, StreamFormat::kCompactMarkup,
                               &alphabet);
    CollectingSink sink;
    EventLog full = CollectChunked(&selector, &sink, text, text.size());
    ASSERT_TRUE(full.finished);
    if (full.matches.empty()) continue;
    const int64_t cut = full.matches.back().certainty_offset;

    sink.Reset();
    selector.set_match_sink(&sink);
    selector.Reset();
    ASSERT_TRUE(selector.Feed(
        std::string_view(text).substr(0, static_cast<size_t>(cut))));
    EXPECT_EQ(sink.matches(), full.matches);
    EXPECT_FALSE(selector.Feed("?"));
    EXPECT_EQ(selector.stream_error().offset, cut);
    // No retraction, and every emitted verdict has a span record: closed
    // ones from the clean prefix, truncated (end -1) ones flushed at the
    // error.
    EXPECT_EQ(sink.matches(), full.matches);
    EXPECT_EQ(sink.spans().size(), sink.matches().size());
    bool saw_truncated = false;
    for (const MatchEvent& span : sink.spans()) {
      saw_truncated |= span.end_offset == -1;
    }
    EXPECT_TRUE(saw_truncated);  // the last match's span was still open
  }
}

// --- Chunking x tier invariance ------------------------------------------

// True when the registerless construction evaluates `dfa` exactly on the
// sample (not every language is registerless-evaluable — the cross-tier
// diff only makes sense for the ones that are).
bool RegisterlessParityHolds(const Dfa& dfa, const TagDfa& evaluator,
                             const std::vector<Tree>& trees,
                             bool term_encoded) {
  for (const Tree& tree : trees) {
    TagDfaMachine machine(&evaluator);
    if (RunQueryOnTree(&machine, tree, term_encoded) !=
        SelectNodes(dfa, tree)) {
      return false;
    }
  }
  return true;
}

// Every chunking and every tier produces the identical log. Markup runs
// the fused byte table, the generic machine (exports hidden), and the
// stack baseline; xml-lite runs generic + stack; term runs the generic
// blind machine. The stack-tier whole-input run is the baseline log.
TEST(MatchEvents, LogsInvariantAcrossChunkingsAndTiers) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Rng rng(83);
  std::vector<Tree> trees = testing::SampleTrees(30, 3, &rng);
  int usable = 0;
  for (const char* regex : {"a.*b", "a*", ".*"}) {
    Dfa dfa = CompileRegex(regex, alphabet);
    TagDfa labeled = BuildRegisterlessQueryAutomaton(dfa, /*blind=*/false);
    TagDfa blind = BuildRegisterlessQueryAutomaton(dfa, /*blind=*/true);
    // Queries outside the registerless class would make the stack baseline
    // and the TagDfa tiers legitimately disagree; skip those.
    if (!RegisterlessParityHolds(dfa, labeled, trees, false) ||
        !RegisterlessParityHolds(dfa, blind, trees, true)) {
      continue;
    }
    ++usable;
    for (const Tree& tree : trees) {
      EventStream events = Encode(tree);

      // Compact markup: stack baseline vs generic vs fused byte table.
      {
        std::string text = ToCompactMarkup(alphabet, events);
        Dfa stack_dfa = dfa;
        StackQueryEvaluator stack_machine(&stack_dfa);
        StreamingSelector stack_selector(
            &stack_machine, StreamFormat::kCompactMarkup, &alphabet);
        CollectingSink sink;
        EventLog baseline =
            CollectChunked(&stack_selector, &sink, text, text.size());
        ASSERT_TRUE(baseline.finished) << regex << " " << text;
        EXPECT_EQ(baseline.matches.size(), baseline.spans.size());
        EXPECT_EQ(static_cast<int64_t>(baseline.matches.size()),
                  baseline.count);

        TagDfaMachine fused_machine(&labeled);
        StreamingSelector fused_selector(
            &fused_machine, StreamFormat::kCompactMarkup, &alphabet);
        ASSERT_EQ(fused_selector.active_tier(),
                  StreamingSelector::Tier::kFusedByteTable);
        OpaqueMachine generic_machine(&fused_machine);
        StreamingSelector generic_selector(
            &generic_machine, StreamFormat::kCompactMarkup, &alphabet);
        ASSERT_EQ(generic_selector.active_tier(),
                  StreamingSelector::Tier::kGenericMachine);
        for (size_t chunk : kChunkings) {
          EXPECT_EQ(CollectChunked(&stack_selector, &sink, text, chunk),
                    baseline)
              << regex << " stack chunk=" << chunk;
          EXPECT_EQ(CollectChunked(&fused_selector, &sink, text, chunk),
                    baseline)
              << regex << " fused chunk=" << chunk;
          EXPECT_EQ(CollectChunked(&generic_selector, &sink, text, chunk),
                    baseline)
              << regex << " generic chunk=" << chunk;
        }
      }

      // XML-lite: stack baseline vs generic, all chunkings.
      {
        std::string text = ToXmlLite(alphabet, events);
        Dfa stack_dfa = dfa;
        StackQueryEvaluator stack_machine(&stack_dfa);
        StreamingSelector stack_selector(&stack_machine,
                                         StreamFormat::kXmlLite, &alphabet);
        CollectingSink sink;
        EventLog baseline =
            CollectChunked(&stack_selector, &sink, text, text.size());
        ASSERT_TRUE(baseline.finished);
        TagDfaMachine tag_machine(&labeled);
        StreamingSelector generic_selector(&tag_machine,
                                           StreamFormat::kXmlLite, &alphabet);
        for (size_t chunk : kChunkings) {
          EXPECT_EQ(CollectChunked(&stack_selector, &sink, text, chunk),
                    baseline)
              << regex << " xml stack chunk=" << chunk;
          EXPECT_EQ(CollectChunked(&generic_selector, &sink, text, chunk),
                    baseline)
              << regex << " xml generic chunk=" << chunk;
        }
      }

      // Term encoding: the blind machine, all chunkings against the
      // whole-input run.
      {
        std::string text = ToCompactTerm(alphabet, events);
        TagDfaMachine blind_machine(&blind);
        StreamingSelector selector(&blind_machine, StreamFormat::kCompactTerm,
                                   &alphabet);
        CollectingSink sink;
        EventLog baseline =
            CollectChunked(&selector, &sink, text, text.size());
        ASSERT_TRUE(baseline.finished);
        for (size_t chunk : kChunkings) {
          EXPECT_EQ(CollectChunked(&selector, &sink, text, chunk), baseline)
              << regex << " term chunk=" << chunk;
        }
      }
    }
  }
  EXPECT_GE(usable, 2);
}

// The fused DRA rung (stackless tier): a Session on the fused plan vs the
// same plan's machine with exports hidden (generic tier), every chunking.
TEST(MatchEvents, FusedDraTierMatchesGenericTier) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  std::vector<std::string> xpaths = StacklessFusedXPaths(alphabet);
  ASSERT_GE(xpaths.size(), 2u);
  Rng rng(59);
  std::vector<Tree> trees = testing::SampleTrees(30, 3, &rng);
  for (const std::string& xpath : xpaths) {
    auto plan = CompileXPath(xpath, alphabet);
    Session session(plan);
    ASSERT_EQ(session.selector().active_tier(),
              StreamingSelector::Tier::kFusedDraTable);
    std::unique_ptr<StreamMachine> inner = plan->NewMachine();
    OpaqueMachine opaque(inner.get());
    StreamingSelector generic(&opaque, StreamFormat::kCompactMarkup,
                              &alphabet);
    ASSERT_EQ(generic.active_tier(),
              StreamingSelector::Tier::kGenericMachine);
    CollectingSink sink;
    for (const Tree& tree : trees) {
      std::string text = ToCompactMarkup(alphabet, Encode(tree));
      EventLog baseline = CollectChunked(&generic, &sink, text, text.size());
      ASSERT_TRUE(baseline.finished) << xpath;
      for (size_t chunk : kChunkings) {
        EXPECT_EQ(CollectChunked(&generic, &sink, text, chunk), baseline)
            << xpath << " generic chunk=" << chunk;
        EXPECT_EQ(
            CollectChunked(&session.selector(), &sink, text, chunk), baseline)
            << xpath << " fused-dra chunk=" << chunk;
      }
    }
  }
}

// --- Faults, recovery, demotion ------------------------------------------

// Installing a sink must not perturb error detection: the first
// StreamError (code + offset) of every mutated document is identical with
// and without a sink, the logs are identical under every chunking, and no
// emitted verdict ever loses its span record (truncated, not dropped).
TEST(MatchEvents, FaultedStreamsKeepErrorOffsetsAndTruncateSpans) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Dfa dfa = CompileRegex("a.*b", alphabet);
  TagDfa evaluator = BuildRegisterlessQueryAutomaton(dfa, /*blind=*/false);
  Rng rng(7);
  std::vector<Tree> trees = testing::SampleTrees(10, 3, &rng);
  for (int kind_index = 0; kind_index < kNumFaultKinds; ++kind_index) {
    const FaultKind kind = static_cast<FaultKind>(kind_index);
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      for (const Tree& tree : trees) {
        std::string doc = ToCompactMarkup(alphabet, Encode(tree));
        FaultInjector injector(seed);
        FaultReport report = injector.Apply(kind, &doc);
        if (!report.changed) continue;

        TagDfaMachine machine(&evaluator);
        StreamingSelector selector(&machine, StreamFormat::kCompactMarkup,
                                   &alphabet);
        // Reference: no sink installed.
        selector.Reset();
        bool plain_ok = selector.Feed(doc);
        if (plain_ok) plain_ok = selector.Finish();
        const StreamErrorCode plain_code = selector.stream_error().code;
        const int64_t plain_offset = selector.stream_error().offset;

        CollectingSink sink;
        EventLog baseline = CollectChunked(&selector, &sink, doc, doc.size());
        EXPECT_EQ(baseline.finished, plain_ok)
            << FaultKindName(kind) << " seed=" << seed;
        EXPECT_EQ(baseline.error_code, plain_code);
        EXPECT_EQ(baseline.error_offset, plain_offset);
        EXPECT_EQ(baseline.matches.size(), baseline.spans.size())
            << FaultKindName(kind) << ": a verdict lost its span";
        for (size_t chunk : kChunkings) {
          EXPECT_EQ(CollectChunked(&selector, &sink, doc, chunk), baseline)
              << FaultKindName(kind) << " seed=" << seed
              << " chunk=" << chunk;
        }
        selector.set_match_sink(nullptr);
      }
    }
  }
}

// Mid-chunk demotion: under kSkipMalformedSubtree a fused-tier selector
// drops to the generic machine at the first error and continues — the
// event log must equal the always-generic run, under every chunking
// (including chunk sizes that put the error mid-chunk).
TEST(MatchEvents, DemotionMidChunkPreservesEventLog) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Dfa dfa = CompileRegex("a.*b", alphabet);
  TagDfa evaluator = BuildRegisterlessQueryAutomaton(dfa, /*blind=*/false);
  Rng rng(101);
  std::vector<Tree> trees = testing::SampleTrees(12, 3, &rng);
  const FaultKind kinds[] = {FaultKind::kFlipByte, FaultKind::kInjectJunk,
                             FaultKind::kUnbalanceClose};
  for (const FaultKind kind : kinds) {
    for (uint64_t seed = 1; seed <= 2; ++seed) {
      for (const Tree& tree : trees) {
        std::string doc = ToCompactMarkup(alphabet, Encode(tree));
        FaultInjector injector(seed);
        if (!injector.Apply(kind, &doc).changed) continue;

        TagDfaMachine fused_machine(&evaluator);
        StreamingSelector fused_selector(
            &fused_machine, StreamFormat::kCompactMarkup, &alphabet);
        fused_selector.set_recovery_policy(
            RecoveryPolicy::kSkipMalformedSubtree);
        ASSERT_TRUE(fused_selector.using_fused_fast_path());

        TagDfaMachine generic_inner(&evaluator);
        OpaqueMachine generic_machine(&generic_inner);
        StreamingSelector generic_selector(
            &generic_machine, StreamFormat::kCompactMarkup, &alphabet);
        generic_selector.set_recovery_policy(
            RecoveryPolicy::kSkipMalformedSubtree);

        CollectingSink sink;
        EventLog baseline =
            CollectChunked(&generic_selector, &sink, doc, doc.size());
        for (size_t chunk : kChunkings) {
          EXPECT_EQ(CollectChunked(&generic_selector, &sink, doc, chunk),
                    baseline)
              << FaultKindName(kind) << " generic chunk=" << chunk;
          EXPECT_EQ(CollectChunked(&fused_selector, &sink, doc, chunk),
                    baseline)
              << FaultKindName(kind) << " demoted chunk=" << chunk;
        }
      }
    }
  }
}

// kAutoClose: spans left open at EOF complete at the EOF offset (the
// synthesized closes), inner-first — not truncated.
TEST(MatchEvents, AutoCloseCompletesSpansAtEof) {
  Alphabet alphabet = Alphabet::FromLetters("ab");
  Dfa dfa = CompileRegex(".*", alphabet);
  StackQueryEvaluator machine(&dfa);
  StreamingSelector selector(&machine, StreamFormat::kCompactMarkup,
                             &alphabet);
  selector.set_recovery_policy(RecoveryPolicy::kAutoClose);
  CollectingSink sink;
  selector.set_match_sink(&sink);
  ASSERT_TRUE(selector.Feed("aab"));  // three opens, no closes
  ASSERT_TRUE(selector.Finish());
  EXPECT_EQ(sink.matches(), (std::vector<MatchEvent>{
                                {0, 0, -1, 1},
                                {0, 1, -1, 2},
                                {0, 2, -1, 3},
                            }));
  EXPECT_EQ(sink.spans(), (std::vector<MatchEvent>{
                              {0, 2, 3, 3},
                              {0, 1, 3, 2},
                              {0, 0, 3, 1},
                          }));
}

// --- Bounded emission buffer ----------------------------------------------

TEST(MatchEvents, StreamLimitsValidateAndMergePendingMatches) {
  StreamLimits limits;
  EXPECT_EQ(limits.Validate(), nullptr);
  limits.max_pending_matches = 0;
  EXPECT_NE(limits.Validate(), nullptr);
  limits.max_pending_matches = 8;
  EXPECT_EQ(limits.Validate(), nullptr);

  StreamLimits other;
  other.max_pending_matches = 3;
  EXPECT_EQ(StreamLimits::Merged(limits, other).max_pending_matches, 3);
  EXPECT_EQ(StreamLimits::Merged(other, limits).max_pending_matches, 3);
}

// Overflow is deterministic and chunking-invariant: beyond the bound,
// verdicts still fire at their certain offsets but their spans close
// immediately as truncated; spans within the bound resolve normally.
TEST(MatchEvents, PendingOverflowTruncatesDeterministically) {
  Alphabet alphabet = Alphabet::FromLetters("a");
  Dfa dfa = CompileRegex(".*", alphabet);
  StackQueryEvaluator machine(&dfa);
  StreamingSelector selector(&machine, StreamFormat::kCompactMarkup,
                             &alphabet);
  StreamLimits limits;
  limits.max_pending_matches = 2;
  selector.set_limits(limits);

  const std::string doc = "aaaaaaaaAAAAAAAA";  // depth 8, all selected
  CollectingSink sink;
  EventLog baseline = CollectChunked(&selector, &sink, doc, doc.size());
  ASSERT_TRUE(baseline.finished);
  ASSERT_EQ(baseline.matches.size(), 8u);
  ASSERT_EQ(baseline.spans.size(), 8u);
  // Matches 3..8 overflow: truncated immediately, in emission order.
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(baseline.spans[static_cast<size_t>(i)],
              (MatchEvent{0, 2 + i, -1, 3 + i}));
  }
  // The two buffered spans resolve at their real closes, inner-first.
  EXPECT_EQ(baseline.spans[6], (MatchEvent{0, 1, 15, 2}));
  EXPECT_EQ(baseline.spans[7], (MatchEvent{0, 0, 16, 1}));
  EXPECT_EQ(selector.match_recorder().overflowed(), 6);
  EXPECT_EQ(selector.match_recorder().peak_pending(), 2);
  EXPECT_EQ(selector.stats().pending_matches_peak, 2);
  EXPECT_EQ(selector.stats().matches_emitted, 8);

  for (size_t chunk : kChunkings) {
    EXPECT_EQ(CollectChunked(&selector, &sink, doc, chunk), baseline)
        << "chunk=" << chunk;
  }
}

// --- Counting parity ------------------------------------------------------

// The parity anchor: a CountingSink reports exactly matches(), which is
// itself unchanged by installing a sink, and agrees with ground truth.
TEST(MatchEvents, CountingSinkMatchesLegacyCounts) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Dfa dfa = CompileRegex("a.*b", alphabet);
  TagDfa evaluator = BuildRegisterlessQueryAutomaton(dfa, /*blind=*/false);
  Rng rng(41);
  for (const Tree& tree : testing::SampleTrees(25, 3, &rng)) {
    std::string text = ToCompactMarkup(alphabet, Encode(tree));
    int64_t expected = 0;
    for (bool b : SelectNodes(dfa, tree)) expected += b ? 1 : 0;

    TagDfaMachine machine(&evaluator);
    StreamingSelector selector(&machine, StreamFormat::kCompactMarkup,
                               &alphabet);
    // Without a sink first (the pre-refactor path)...
    selector.Reset();
    ASSERT_TRUE(selector.Feed(text));
    ASSERT_TRUE(selector.Finish());
    EXPECT_EQ(selector.matches(), expected);
    // ...then with a CountingSink: same total, byte-identical counts.
    CountingSink counting;
    selector.set_match_sink(&counting);
    selector.Reset();
    ASSERT_TRUE(selector.Feed(text));
    ASSERT_TRUE(selector.Finish());
    EXPECT_EQ(selector.matches(), expected);
    EXPECT_EQ(counting.total(), expected);
    EXPECT_EQ(counting.counts(), (std::vector<int64_t>{expected}));
  }
}

// --- Whole-document runner parity -----------------------------------------

// ByteTagDfaRunner::CollectMatches (structural-index walk) vs its per-byte
// oracle vs the streaming fused tier: identical logs, identical counts,
// count == CountSelections — with and without whitespace runs.
TEST(MatchEvents, ByteTagDfaRunnerCollectMatchesParity) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Rng rng(67);
  std::vector<Tree> trees = testing::SampleTrees(25, 3, &rng);
  for (const char* regex : {"a.*b", ".*"}) {
    Dfa dfa = CompileRegex(regex, alphabet);
    TagDfa evaluator = BuildRegisterlessQueryAutomaton(dfa, /*blind=*/false);
    ByteTagDfaRunner runner(evaluator, alphabet);
    TagDfaMachine machine(&evaluator);
    StreamingSelector selector(&machine, StreamFormat::kCompactMarkup,
                               &alphabet);
    ASSERT_TRUE(selector.using_fused_fast_path());
    CollectingSink sink;
    for (const Tree& tree : trees) {
      std::string text = ToCompactMarkup(alphabet, Encode(tree));
      // A whitespace-padded variant shifts every offset but must stay
      // internally consistent across all three paths.
      std::string padded;
      for (size_t i = 0; i < text.size(); ++i) {
        padded += text[i];
        if (i % 3 == 1) padded += "  \n";
      }
      for (const std::string& doc : {text, padded}) {
        CollectingSink indexed;
        CollectingSink per_byte;
        int64_t indexed_count = runner.CollectMatches(doc, &indexed);
        int64_t per_byte_count = runner.CollectMatchesPerByte(doc, &per_byte);
        EXPECT_EQ(indexed_count, per_byte_count) << regex;
        EXPECT_EQ(indexed_count, runner.CountSelections(doc)) << regex;
        EXPECT_EQ(indexed.matches(), per_byte.matches()) << regex;
        EXPECT_EQ(indexed.spans(), per_byte.spans()) << regex;

        EventLog streamed = CollectChunked(&selector, &sink, doc, 7);
        ASSERT_TRUE(streamed.finished) << regex;
        EXPECT_EQ(streamed.matches, indexed.matches()) << regex;
        EXPECT_EQ(streamed.spans, indexed.spans()) << regex;
        EXPECT_EQ(streamed.count, indexed_count) << regex;
      }
    }
  }
}

// Same triangle for the stackless fused rung (ByteDraRunner).
TEST(MatchEvents, ByteDraRunnerCollectMatchesParity) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  std::vector<std::string> xpaths = StacklessFusedXPaths(alphabet);
  ASSERT_GE(xpaths.size(), 2u);
  Rng rng(73);
  std::vector<Tree> trees = testing::SampleTrees(25, 3, &rng);
  for (const std::string& xpath : xpaths) {
    auto plan = CompileXPath(xpath, alphabet);
    const ByteDraRunner* runner = plan->fused_dra();
    ASSERT_NE(runner, nullptr);
    Session session(plan);
    CollectingSink sink;
    for (const Tree& tree : trees) {
      std::string text = ToCompactMarkup(alphabet, Encode(tree));
      CollectingSink indexed;
      CollectingSink per_byte;
      int64_t indexed_count = runner->CollectMatches(text, &indexed);
      int64_t per_byte_count = runner->CollectMatchesPerByte(text, &per_byte);
      EXPECT_EQ(indexed_count, per_byte_count) << xpath;
      EXPECT_EQ(indexed_count, runner->CountSelections(text)) << xpath;
      EXPECT_EQ(indexed.matches(), per_byte.matches()) << xpath;
      EXPECT_EQ(indexed.spans(), per_byte.spans()) << xpath;

      EventLog streamed =
          CollectChunked(&session.selector(), &sink, text, 5);
      ASSERT_TRUE(streamed.finished) << xpath;
      EXPECT_EQ(streamed.matches, indexed.matches()) << xpath;
      EXPECT_EQ(streamed.spans, indexed.spans()) << xpath;
      EXPECT_EQ(streamed.count, indexed_count) << xpath;
    }
  }
}

// --- Batch fan-out --------------------------------------------------------

struct BatchLog {
  std::vector<MatchEvent> matches;
  std::vector<MatchEvent> spans;
  std::vector<int64_t> query_matches;
  bool finished = false;

  friend bool operator==(const BatchLog&, const BatchLog&) = default;
};

BatchLog RunBatch(BatchSession* session, CollectingSink* sink,
                  std::string_view text, size_t chunk) {
  sink->Reset();
  session->set_match_sink(sink);
  session->Reset();
  bool ok = true;
  for (size_t i = 0; i < text.size() && ok; i += chunk) {
    ok = session->Feed(text.substr(i, chunk));
  }
  BatchLog log;
  log.finished = ok && session->Finish();
  log.matches = sink->matches();
  log.spans = sink->spans();
  log.query_matches = session->query_matches();
  return log;
}

// Extracts one query's subsequence with the id normalized away, so the
// streams of two textual duplicates compare equal.
std::vector<MatchEvent> FilterQuery(const std::vector<MatchEvent>& events,
                                    int32_t query) {
  std::vector<MatchEvent> out;
  for (const MatchEvent& event : events) {
    if (event.query_id == query) {
      out.push_back(event);
      out.back().query_id = 0;
    }
  }
  return out;
}

std::vector<int64_t> CountPerQuery(const std::vector<MatchEvent>& matches,
                                   int num_queries) {
  std::vector<int64_t> counts(static_cast<size_t>(num_queries), 0);
  for (const MatchEvent& event : matches) {
    EXPECT_GE(event.query_id, 0);
    EXPECT_LT(event.query_id, num_queries);
    if (event.query_id >= 0 && event.query_id < num_queries) {
      ++counts[static_cast<size_t>(event.query_id)];
    }
  }
  return counts;
}

// Every batch tier: event query_ids are submission-order indices,
// duplicates fan out, and a CountingSink reproduces query_matches()
// exactly. Product tiers additionally guarantee whole-log chunking
// invariance; the independent tier guarantees it per query.
TEST(MatchEvents, BatchTiersFanOutToSubmissionOrderQueryIds) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  std::vector<std::string> stackless = StacklessFusedXPaths(alphabet);
  ASSERT_GE(stackless.size(), 1u);

  struct TierCase {
    const char* name;
    std::vector<BatchQuery> queries;
    MultiQueryOptions options;
  };
  std::vector<TierCase> cases;
  const std::vector<BatchQuery> registerless = {
      {QuerySyntax::kXPath, "/a//b"},
      {QuerySyntax::kXPath, "//c"},
      {QuerySyntax::kXPath, "/a//b"},  // textual duplicate
  };
  cases.push_back({"product-default", registerless, {}});
  {
    MultiQueryOptions lazy;
    lazy.eager_state_cap = 1;
    cases.push_back({"lazy", registerless, lazy});
  }
  {
    std::vector<BatchQuery> mixed = registerless;
    mixed.push_back({QuerySyntax::kXPath, stackless[0]});
    cases.push_back({"mixed-default", mixed, {}});
    MultiQueryOptions independent;
    independent.eager_state_cap = 1;
    cases.push_back({"independent", mixed, independent});
  }

  Rng rng(97);
  std::vector<Tree> trees = testing::SampleTrees(15, 3, &rng);
  for (const TierCase& tier_case : cases) {
    auto plan = MultiQueryPlan::Compile(tier_case.queries, alphabet,
                                        tier_case.options);
    BatchSession session(plan);
    const bool product_tier = session.active_tier() != MultiTier::kIndependent;
    const int num_queries = plan->num_queries();
    CollectingSink sink;
    for (const Tree& tree : trees) {
      std::string text = ToCompactMarkup(alphabet, Encode(tree));
      BatchLog baseline = RunBatch(&session, &sink, text, text.size());
      ASSERT_TRUE(baseline.finished) << tier_case.name;
      EXPECT_EQ(baseline.matches.size(), baseline.spans.size())
          << tier_case.name;

      // CountingSink parity: per-query totals == query_matches(), with
      // duplicates reporting the same count under their own ids.
      EXPECT_EQ(CountPerQuery(baseline.matches, num_queries),
                baseline.query_matches)
          << tier_case.name;
      EXPECT_EQ(FilterQuery(baseline.matches, 0),
                FilterQuery(baseline.matches, 2))
          << tier_case.name << ": duplicate queries must fan out identically";

      for (size_t chunk : {size_t{1}, size_t{3}, size_t{16}}) {
        BatchLog rerun = RunBatch(&session, &sink, text, chunk);
        ASSERT_TRUE(rerun.finished) << tier_case.name;
        EXPECT_EQ(rerun.query_matches, baseline.query_matches)
            << tier_case.name;
        if (product_tier) {
          EXPECT_EQ(rerun, baseline)
              << tier_case.name << " chunk=" << chunk;
        } else {
          // Lockstep slots interleave per chunk; each query's subsequence
          // is still invariant.
          for (int q = 0; q < num_queries; ++q) {
            EXPECT_EQ(FilterQuery(rerun.matches, q),
                      FilterQuery(baseline.matches, q))
                << tier_case.name << " query=" << q << " chunk=" << chunk;
            EXPECT_EQ(FilterQuery(rerun.spans, q),
                      FilterQuery(baseline.spans, q))
                << tier_case.name << " query=" << q << " chunk=" << chunk;
          }
        }
      }
      session.set_match_sink(nullptr);
      // The sink must not have perturbed counting: a sink-free rerun
      // reports the same per-query counts.
      session.Reset();
      for (size_t i = 0; i < text.size(); i += 16) {
        ASSERT_TRUE(session.Feed(std::string_view(text).substr(i, 16)));
      }
      ASSERT_TRUE(session.Finish());
      EXPECT_EQ(session.query_matches(), baseline.query_matches)
          << tier_case.name;
    }
  }
}

// A verdict-only sink (wants_spans() false) that records the verdicts.
class VerdictOnlySink : public MatchSink {
 public:
  explicit VerdictOnlySink(CollectingSink* into) : into_(into) {}
  void OnMatch(const MatchEvent& event) override { into_->OnMatch(event); }
  void OnSpanClose(const MatchEvent&) override {}
  bool wants_spans() const override { return false; }

 private:
  CollectingSink* into_;
};

// One product runner's output through each emission path.
struct ProductRun {
  EventLog log;
  std::vector<MatchEvent> verdicts;
  std::vector<int64_t> callback_nodes;
  std::vector<int64_t> query_matches;

  friend bool operator==(const ProductRun&, const ProductRun&) = default;
};

// Runs one batch selector through each emission path: a span-collecting
// sink, a verdict-only sink and a callback. `counts` reads the per-member
// counts after the span run.
template <typename Counts>
ProductRun RunBatchPaths(StreamingSelector& selector, Counts counts,
                         std::string_view text, size_t chunk,
                         RecoveryPolicy policy) {
  ProductRun out;
  selector.set_recovery_policy(policy);
  CollectingSink spans;
  out.log = CollectChunked(&selector, &spans, text, chunk);
  out.query_matches = counts();
  // A verdict-only sink and a callback take the kernel's other emission
  // paths.
  CollectingSink verdicts;
  VerdictOnlySink verdict_sink(&verdicts);
  selector.set_match_sink(&verdict_sink);
  selector.Reset();
  for (std::string_view piece : Chunked(text, chunk)) {
    if (!selector.Feed(piece)) break;
  }
  out.verdicts = verdicts.matches();
  selector.set_match_sink(nullptr);
  selector.set_match_callback(
      [&out](int64_t node, Symbol) { out.callback_nodes.push_back(node); });
  selector.Reset();
  for (std::string_view piece : Chunked(text, chunk)) {
    if (!selector.Feed(piece)) break;
  }
  selector.set_match_callback(nullptr);
  return out;
}

// A compact-markup text over a random tree, clean or with one fault.
struct BatchText {
  std::string bytes;
  bool clean = false;
};

// Every fault kind applied to every clean tree, beside the clean text.
std::vector<BatchText> CleanAndFaultedTexts(const Alphabet& alphabet,
                                            uint64_t seed) {
  Rng rng(seed);
  std::vector<BatchText> texts;
  std::vector<Tree> trees = testing::SampleTrees(12, 3, &rng);
  for (size_t t = 0; t < trees.size(); ++t) {
    const std::string clean = ToCompactMarkup(alphabet, Encode(trees[t]));
    texts.push_back({clean, true});
    for (int kind = 0; kind < kNumFaultKinds; ++kind) {
      std::string mutated = clean;
      FaultInjector injector(t * 31 + static_cast<uint64_t>(kind));
      injector.Apply(static_cast<FaultKind>(kind), &mutated);
      texts.push_back({mutated, false});
    }
  }
  return texts;
}

// Diffs a batch on the fused kernel against the same machine kind on the
// generic tier: every text, policy and chunking, each emission path.
// Returns the matches the generic tier reported on the clean texts.
template <typename RunFused, typename RunGeneric>
int64_t ExpectBatchPathsMatch(const std::vector<BatchText>& texts,
                              RunFused run_fused, RunGeneric run_generic) {
  int64_t clean_matches = 0;
  for (size_t x = 0; x < texts.size(); ++x) {
    const std::string& text = texts[x].bytes;
    for (RecoveryPolicy policy : {RecoveryPolicy::kFailFast,
                                  RecoveryPolicy::kSkipMalformedSubtree,
                                  RecoveryPolicy::kAutoClose}) {
      const ProductRun baseline = run_generic(text, text.size(), policy);
      if (texts[x].clean) {
        EXPECT_TRUE(baseline.log.finished) << "text " << x;
        EXPECT_EQ(baseline.verdicts, baseline.log.matches);
        EXPECT_EQ(static_cast<int64_t>(baseline.callback_nodes.size()),
                  baseline.log.count);
        clean_matches += baseline.log.count;
      }
      for (size_t chunk : kChunkings) {
        EXPECT_EQ(run_fused(text, chunk, policy), baseline)
            << "text " << x << " chunk " << chunk << " policy "
            << RecoveryPolicyName(policy);
      }
    }
  }
  return clean_matches;
}

// The fused-product tier runs the batch on the product's byte table; its
// members fan out from the reached state's selection mask. Against the
// same product on the generic tier (no byte table), a span-collecting
// sink must see the same member ids, spans and order, and a verdict-only
// sink and a callback the same events — clean, faulted (with mid-chunk
// demotion under kSkipMalformedSubtree), under every chunking.
TEST(MatchEvents, FusedProductBatchMatchesGenericTier) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  auto plan = MultiQueryPlan::Compile({{QuerySyntax::kXPath, "/a//b"},
                                       {QuerySyntax::kXPath, "//c"},
                                       {QuerySyntax::kXPath, "/a//b"},
                                       {QuerySyntax::kXPath, "/a//c"}},
                                      alphabet, {});
  ASSERT_EQ(plan->tier(), MultiTier::kFusedProduct);
  BatchSession session(plan);
  MultiTagDfaRunner& fused = *session.runner();
  MultiTagDfaRunner generic(StreamFormat::kCompactMarkup, &alphabet,
                            &plan->scanner_tables(), plan->eager(),
                            /*eager_fused=*/nullptr, /*lazy=*/nullptr);
  ASSERT_TRUE(fused.selector().using_fused_fast_path());
  ASSERT_FALSE(generic.selector().using_fused_fast_path());
  auto run = [](MultiTagDfaRunner& runner) {
    return [&runner](std::string_view text, size_t chunk,
                     RecoveryPolicy policy) {
      return RunBatchPaths(
          runner.selector(), [&] { return runner.query_matches(); }, text,
          chunk, policy);
    };
  };
  EXPECT_GT(ExpectBatchPathsMatch(CleanAndFaultedTexts(alphabet, 2024),
                                  run(fused), run(generic)),
            0);
}

// The mixed tier runs the registerless sub-product's byte table and every
// stackless member's fused DRA on the kernel; members fan out from the
// reached product state's mask and the in-place DRA configurations. The
// span, verdict-only and callback logs must equal those of the same
// product machine on the generic tier — with product members and without
// (an all-stackless batch has no table).
TEST(MatchEvents, MixedBatchMatchesGenericTier) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  const std::vector<std::vector<BatchQuery>> batches = {
      {{QuerySyntax::kXPath, "/a//b"},
       {QuerySyntax::kXPath, "//c"},
       {QuerySyntax::kXPath, "/a/b"},
       {QuerySyntax::kXPath, "/a/c"}},
      {{QuerySyntax::kXPath, "/a/b"}, {QuerySyntax::kXPath, "/a/c"}},
  };
  const std::vector<BatchText> texts = CleanAndFaultedTexts(alphabet, 2025);
  for (const std::vector<BatchQuery>& queries : batches) {
    auto plan = MultiQueryPlan::Compile(queries, alphabet, {});
    ASSERT_EQ(plan->tier(), MultiTier::kMixed);
    ASSERT_EQ(plan->mixed_dras().size(), 2u);
    BatchSession session(plan);
    MultiTagDfaRunner& fused = *session.runner();
    ASSERT_EQ(fused.selector().active_tier(),
              StreamingSelector::Tier::kFusedDraTable);
    ASSERT_EQ(fused.selector().using_fused_fast_path(),
              plan->eager() != nullptr);
    // The generic tier: the same machine kind behind a selector with no
    // fused tables.
    ProductTagMachine machine(plan->eager(), /*lazy=*/nullptr,
                              plan->mixed_dras());
    StreamingSelector generic(&machine, StreamFormat::kCompactMarkup,
                              &alphabet, &plan->scanner_tables(),
                              /*fused=*/nullptr);
    ASSERT_EQ(generic.active_tier(),
              StreamingSelector::Tier::kGenericMachine);
    const int64_t clean_matches = ExpectBatchPathsMatch(
        texts,
        [&](std::string_view text, size_t chunk, RecoveryPolicy policy) {
          return RunBatchPaths(
              fused.selector(), [&] { return fused.query_matches(); }, text,
              chunk, policy);
        },
        [&](std::string_view text, size_t chunk, RecoveryPolicy policy) {
          return RunBatchPaths(
              generic, [&] { return machine.counts(); }, text, chunk,
              policy);
        });
    EXPECT_GT(clean_matches, 0);
  }
}

// The pushdown tier runs a stack Session on its open table beside the
// state column. The span, verdict-only and callback logs must equal those
// of the same plan's machine behind a selector with no kernel table —
// clean, faulted (with mid-chunk demotion under kSkipMalformedSubtree),
// under every chunking.
TEST(MatchEvents, StackTierMatchesGenericTier) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  for (const char* xpath : {"//a/b", "//b//a/c"}) {
    auto plan = CompileXPath(xpath, alphabet);
    ASSERT_EQ(plan->kind(), EvaluatorKind::kStackBaseline) << xpath;
    Session session(plan);
    ASSERT_EQ(session.selector().active_tier(),
              StreamingSelector::Tier::kFusedByteTable);
    std::unique_ptr<StreamMachine> machine = plan->NewMachine();
    StreamingSelector generic(machine.get(), StreamFormat::kCompactMarkup,
                              &alphabet, &plan->scanner_tables(),
                              /*fused=*/nullptr);
    ASSERT_EQ(generic.active_tier(),
              StreamingSelector::Tier::kGenericMachine);
    const int64_t clean_matches = ExpectBatchPathsMatch(
        CleanAndFaultedTexts(alphabet, 2026),
        [&](std::string_view text, size_t chunk, RecoveryPolicy policy) {
          return RunBatchPaths(
              session.selector(),
              [&] { return std::vector<int64_t>{session.matches()}; }, text,
              chunk, policy);
        },
        [&](std::string_view text, size_t chunk, RecoveryPolicy policy) {
          return RunBatchPaths(
              generic,
              [&] { return std::vector<int64_t>{generic.matches()}; }, text,
              chunk, policy);
        });
    EXPECT_GT(clean_matches, 0) << xpath;
  }
}

// --- Wire codec and metrics ----------------------------------------------

TEST(MatchWire, EncodeParseRoundtrip) {
  std::vector<MatchWireRecord> records = {
      {false, {0, 0, -1, 1}},
      {false, {3, 128, -1, 130}},
      {true, {3, 128, 512, 130}},
      {true, {1, 7, -1, 9}},  // truncated span: end stays -1
  };
  std::vector<MatchWireRecord> decoded;
  ASSERT_TRUE(ParseMatches(EncodeMatches(records), &decoded));
  EXPECT_EQ(decoded, records);

  EXPECT_TRUE(ParseMatches("", &decoded));
  EXPECT_TRUE(decoded.empty());

  for (const char* bad : {"x 1 2 3\n", "m 1 2\n", "m 1 2 3 4\n",
                          "c 1 2 3\n", "c 1 2 3 4 5 6\n", "m 1 two 3\n"}) {
    EXPECT_FALSE(ParseMatches(bad, &decoded)) << bad;
  }
}

TEST(MatchWire, RegisterRoundtripCarriesMatchOptIn) {
  RegisterRequest request;
  request.alphabet = "abc";
  request.queries = {"/a//b", "//c"};
  request.matches = true;
  request.limits.max_pending_matches = 7;
  RegisterRequest decoded;
  std::string error;
  ASSERT_TRUE(ParseRegister(EncodeRegister(request), &decoded, &error))
      << error;
  EXPECT_TRUE(decoded.matches);
  EXPECT_EQ(decoded.limits.max_pending_matches, 7);
  EXPECT_EQ(decoded.queries, request.queries);

  // Off by default, and absent from the encoding when off.
  RegisterRequest plain;
  plain.alphabet = "abc";
  plain.queries = {"//c"};
  ASSERT_TRUE(ParseRegister(EncodeRegister(plain), &decoded, &error));
  EXPECT_FALSE(decoded.matches);
  EXPECT_EQ(decoded.limits.max_pending_matches, StreamLimits::kUnlimited);
}

TEST(MatchWire, BufferPreservesArrivalOrder) {
  MatchWireBuffer buffer;
  EXPECT_TRUE(buffer.empty());
  buffer.OnMatch({0, 0, -1, 1});
  buffer.OnMatch({0, 1, -1, 2});
  buffer.OnSpanClose({0, 1, 3, 2});
  std::vector<MatchWireRecord> taken = buffer.Take();
  ASSERT_EQ(taken.size(), 3u);
  EXPECT_FALSE(taken[0].close);
  EXPECT_FALSE(taken[1].close);
  EXPECT_TRUE(taken[2].close);
  EXPECT_EQ(taken[2].event.end_offset, 3);
  EXPECT_TRUE(buffer.empty());
}

TEST(MatchMetrics, RenderIncludesMatchCounters) {
  ServerStats stats;
  stats.matches_emitted = 42;
  stats.match_buffer_peak = 5;
  std::string text = RenderMetrics(stats);
  EXPECT_NE(text.find("server_matches_emitted 42"), std::string::npos)
      << text;
  EXPECT_NE(text.find("server_match_buffer_peak 5"), std::string::npos)
      << text;
}

}  // namespace
}  // namespace sst
