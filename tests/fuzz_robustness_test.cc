// Robustness sweeps: random and adversarial byte/event streams must never
// crash any component — parsers reject malformed input with an error, and
// machines behave deterministically on invalid encodings (the paper's
// automata may accept or reject invalid encodings arbitrarily, but the
// implementations must stay memory-safe and terminating).

#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "automata/alphabet.h"
#include "automata/minimize.h"
#include "base/rng.h"
#include "dra/byte_runner.h"
#include "dra/machine.h"
#include "dra/paper_examples.h"
#include "dra/multi_runner.h"
#include "dra/streaming.h"
#include "engine/multi_query.h"
#include "engine/query_plan.h"
#include "engine/session.h"
#include "eval/el_synopsis.h"
#include "eval/stack_evaluator.h"
#include "eval/stackless_query.h"
#include "eval/registerless_query.h"
#include "query/rpq.h"
#include "test_util.h"
#include "testing/fault_injection.h"
#include "trees/encoding.h"

namespace sst {
namespace {

std::string RandomBytes(Rng* rng, int length, const char* pool) {
  std::string bytes;
  size_t pool_size = std::string(pool).size();
  for (int i = 0; i < length; ++i) {
    bytes.push_back(pool[rng->NextBelow(pool_size)]);
  }
  return bytes;
}

TEST(Fuzz, StreamingSelectorSurvivesRandomBytes) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Dfa dfa = CompileRegex("a.*b", alphabet);
  Rng rng(101);
  const char* pools[] = {"abcABC", "abcABC{}<>/x ", "<>/ab c}"};
  for (auto format : {StreamingSelector::Format::kCompactMarkup,
                      StreamingSelector::Format::kXmlLite,
                      StreamingSelector::Format::kCompactTerm}) {
    for (int trial = 0; trial < 300; ++trial) {
      StackQueryEvaluator machine(&dfa);
      StreamingSelector selector(&machine, format, &alphabet);
      std::string bytes = RandomBytes(
          &rng, 1 + static_cast<int>(rng.NextBelow(60)),
          pools[trial % 3]);
      bool fed = selector.Feed(bytes);
      bool finished = fed && selector.Finish();
      if (!finished) {
        EXPECT_FALSE(selector.error().empty());
      } else {
        // Whatever parsed must have been a balanced document.
        EXPECT_TRUE(selector.document_complete());
        EXPECT_GT(selector.nodes(), 0);
      }
    }
  }
}

TEST(Fuzz, ParsersRejectOrRoundTrip) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Rng rng(103);
  for (int trial = 0; trial < 500; ++trial) {
    std::string bytes =
        RandomBytes(&rng, 1 + static_cast<int>(rng.NextBelow(30)),
                    "abcABC{}<> /");
    std::optional<EventStream> markup = ParseCompactMarkup(alphabet, bytes);
    if (markup.has_value() && IsValidEncoding(*markup)) {
      EXPECT_EQ(ToCompactMarkup(alphabet, *markup),
                [&] {
                  std::string stripped;
                  for (char c : bytes) {
                    if (!std::isspace(static_cast<unsigned char>(c))) {
                      stripped.push_back(c);
                    }
                  }
                  return stripped;
                }());
    }
    std::optional<EventStream> term = ParseCompactTerm(alphabet, bytes);
    if (term.has_value()) {
      // May still be unbalanced; Decode is the arbiter and must not crash.
      (void)Decode(*term);
    }
  }
}

TEST(Fuzz, MachinesSurviveInvalidEventStreams) {
  // Random (possibly unbalanced, mismatched) event streams through every
  // machine type; only termination and memory-safety are asserted.
  Alphabet alphabet = Alphabet::FromLetters("ab");
  Dfa dfa = CompileRegex("a.*b", alphabet);
  StackQueryEvaluator stack(&dfa);
  StacklessQueryEvaluator stackless(dfa, false);
  ElSynopsisRecognizer synopsis(dfa, false);
  Dra same_depth = BuildSameDepthDra(2, 0);
  DraRunner dra(&same_depth);
  Rng rng(107);
  for (int trial = 0; trial < 300; ++trial) {
    EventStream events;
    int length = 1 + static_cast<int>(rng.NextBelow(40));
    for (int i = 0; i < length; ++i) {
      events.push_back(
          {rng.NextBool(0.5), static_cast<Symbol>(rng.NextBelow(2))});
    }
    for (StreamMachine* machine :
         {static_cast<StreamMachine*>(&stack),
          static_cast<StreamMachine*>(&stackless),
          static_cast<StreamMachine*>(&synopsis),
          static_cast<StreamMachine*>(&dra)}) {
      machine->Reset();
      for (const TagEvent& event : events) {
        if (event.open) {
          machine->OnOpen(event.symbol);
        } else {
          machine->OnClose(event.symbol);
        }
      }
      (void)machine->InAcceptingState();
    }
  }
}

// The observable outcome of one selector run, for differential checks.
struct FuzzOutcome {
  bool finished = false;
  int64_t nodes = 0;
  int64_t matches = 0;
  int64_t events = 0;
  int64_t errors_recovered = 0;
  int64_t subtrees_skipped = 0;
  StreamError error;

  friend bool operator==(const FuzzOutcome&, const FuzzOutcome&) = default;
};

FuzzOutcome RunSelector(StreamMachine* machine,
                        StreamingSelector::Format format, Alphabet* alphabet,
                        const std::vector<std::string_view>& pieces,
                        RecoveryPolicy policy, const StreamLimits& limits) {
  machine->Reset();
  StreamingSelector selector(machine, format, alphabet);
  selector.set_recovery_policy(policy);
  selector.set_limits(limits);
  bool fed = true;
  for (std::string_view piece : pieces) {
    if (!selector.Feed(piece)) {
      fed = false;
      break;
    }
  }
  FuzzOutcome out;
  out.finished = fed && selector.Finish();
  out.nodes = selector.nodes();
  out.matches = selector.matches();
  out.events = selector.stats().events;
  out.errors_recovered = selector.stats().errors_recovered;
  out.subtrees_skipped = selector.stats().subtrees_skipped;
  out.error = selector.stream_error();
  return out;
}

// Seeded fault-injection sweep: mutate valid documents of every format,
// run under every recovery policy, and require (a) no crash, (b) a
// structured error whenever the run did not finish, and (c) the same
// outcome when the bytes are re-split into chunks clustered around the
// error offset — the splits most likely to upset lexer or recovery
// state spanning a boundary.
TEST(Fuzz, MutatedDocumentsAreChunkSplitInvariant) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Dfa dfa = CompileRegex("a.*b", alphabet);
  StreamLimits limits;
  limits.max_depth = 256;
  const RecoveryPolicy policies[] = {RecoveryPolicy::kFailFast,
                                     RecoveryPolicy::kSkipMalformedSubtree,
                                     RecoveryPolicy::kAutoClose};
  for (int iter = 0; iter < testing::FuzzIters(); ++iter) {
    Rng rng(900 + iter);
    std::vector<Tree> trees = testing::SampleTrees(20, 3, &rng);
    for (size_t t = 0; t < trees.size(); ++t) {
      EventStream events = Encode(trees[t]);
      struct Doc {
        StreamingSelector::Format format;
        std::string text;
      };
      const Doc docs[] = {
          {StreamingSelector::Format::kCompactMarkup,
           ToCompactMarkup(alphabet, events)},
          {StreamingSelector::Format::kXmlLite, ToXmlLite(alphabet, events)},
          {StreamingSelector::Format::kCompactTerm,
           ToCompactTerm(alphabet, events)},
      };
      for (const Doc& doc : docs) {
        for (int kind = 0; kind < kNumFaultKinds; ++kind) {
          std::string mutated = doc.text;
          FaultInjector injector(iter * 7919 + t * 131 + kind);
          injector.Apply(static_cast<FaultKind>(kind), &mutated);
          for (RecoveryPolicy policy : policies) {
            StackQueryEvaluator machine(&dfa);
            FuzzOutcome whole =
                RunSelector(&machine, doc.format, &alphabet,
                            {std::string_view(mutated)}, policy, limits);
            if (!whole.finished) {
              EXPECT_NE(whole.error.code, StreamErrorCode::kNone);
            }
            // Re-split around the error (or around the mutation when the
            // run recovered), byte by byte in a +/-2 window.
            size_t focus = whole.error.offset >= 0
                               ? static_cast<size_t>(whole.error.offset)
                               : mutated.size() / 2;
            size_t lo = focus > 2 ? focus - 2 : 0;
            for (size_t cut = lo;
                 cut <= focus + 2 && cut <= mutated.size(); ++cut) {
              std::vector<size_t> cuts = {cut};
              FuzzOutcome split =
                  RunSelector(&machine, doc.format, &alphabet,
                              SplitAt(mutated, cuts), policy, limits);
              ASSERT_EQ(split, whole)
                  << "cut=" << cut << " policy=" << RecoveryPolicyName(policy)
                  << " doc=" << mutated;
            }
            // And a few random schedules for good measure.
            for (int trial = 0; trial < 3; ++trial) {
              std::vector<size_t> cuts =
                  RandomCuts(injector.rng(), mutated.size(), 5);
              FuzzOutcome split =
                  RunSelector(&machine, doc.format, &alphabet,
                              SplitAt(mutated, cuts), policy, limits);
              ASSERT_EQ(split, whole)
                  << "policy=" << RecoveryPolicyName(policy)
                  << " doc=" << mutated;
            }
          }
        }
      }
    }
  }
}

// Differential: on compact markup, the streaming selector (fail-fast) and
// the batch validated runner are two implementations of one
// specification and must report the identical first StreamError and the
// same partial counters at the stop point — on hand-written documents
// that hit each error kind, and on fault-injected mutants.
TEST(Fuzz, SelectorAndValidatedRunnerAgreeOnMutants) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Dfa query = CompileRegex("a.*b", alphabet);
  TagDfa evaluator = BuildRegisterlessQueryAutomaton(query, /*blind=*/false);
  ByteTagDfaRunner runner(evaluator);
  auto expect_agree = [&](const std::string& doc) {
    ValidatedRun batch = runner.RunValidated(doc);
    TagDfaMachine machine(&evaluator);
    StreamingSelector selector(
        &machine, StreamingSelector::Format::kCompactMarkup, &alphabet);
    bool finished = selector.Feed(doc) && selector.Finish();
    ASSERT_EQ(batch.ok(), finished) << doc;
    ASSERT_EQ(batch.error, selector.stream_error()) << doc;
    ASSERT_EQ(batch.matches, selector.matches()) << doc;
    ASSERT_EQ(batch.events, selector.stats().events) << doc;
    ASSERT_EQ(batch.max_depth, selector.stats().max_depth) << doc;
    ASSERT_EQ(batch.nodes, selector.nodes()) << doc;
  };
  for (const char* doc : {"abBA", "ab?BA", "abAB", "B", "abBAB", "abdDBA",
                          "aAbB", "ab", "aAA", "aabb", " ab BA# "}) {
    expect_agree(doc);
  }
  for (int iter = 0; iter < testing::FuzzIters(); ++iter) {
    Rng rng(1700 + iter);
    std::vector<Tree> trees = testing::SampleTrees(20, 3, &rng);
    for (size_t t = 0; t < trees.size(); ++t) {
      std::string doc = ToCompactMarkup(alphabet, Encode(trees[t]));
      for (int kind = 0; kind < kNumFaultKinds; ++kind) {
        std::string mutated = doc;
        FaultInjector injector(iter * 524287 + t * 8191 + kind);
        injector.Apply(static_cast<FaultKind>(kind), &mutated);
        expect_agree(mutated);
      }
    }
  }
}

// --- The fused kernel against its oracles --------------------------------

// Everything a kernel run exposes: per-member counts, every StreamStats
// counter, the first StreamError and the recovered-error records.
struct KernelOutcome {
  bool finished = false;
  std::vector<int64_t> counts;
  std::vector<int64_t> counts_after_each_feed;  // concatenated
  std::vector<int64_t> stats;
  StreamError error;
  std::vector<StreamError> recovered;
  std::vector<int64_t> recovered_spans;  // excise_from, resume_offset pairs

  friend bool operator==(const KernelOutcome&, const KernelOutcome&) = default;
};

std::vector<int64_t> StatsFields(const StreamStats& s) {
  return {s.bytes_fed,        s.chunks_fed,       s.events,
          s.max_depth,        s.matches,          s.errors_recovered,
          s.subtrees_skipped, s.error_offset,     s.matches_emitted,
          s.pending_matches_peak, s.max_stack_depth, s.underflow_closes};
}

// Feeds `pieces` and collects the outcome; `counts` reads the per-member
// counts, which must be exact at every Feed boundary, so they are kept
// after every Feed as well as at the end.
template <typename Stream, typename Counts>
KernelOutcome DriveKernel(Stream& stream, StreamingSelector& selector,
                          const std::vector<std::string_view>& pieces,
                          Counts counts) {
  KernelOutcome out;
  bool fed = true;
  for (std::string_view piece : pieces) {
    fed = stream.Feed(piece);
    const std::vector<int64_t> now = counts();
    out.counts_after_each_feed.insert(out.counts_after_each_feed.end(),
                                      now.begin(), now.end());
    if (!fed) break;
  }
  out.finished = fed && stream.Finish();
  out.counts = counts();
  out.stats = StatsFields(selector.stats());
  out.error = selector.stream_error();
  for (const auto& r : selector.recovered_errors()) {
    out.recovered.push_back(r.error);
    out.recovered_spans.push_back(r.excise_from);
    out.recovered_spans.push_back(r.resume_offset);
  }
  return out;
}

// Chunk schedules for one document: whole, 1-byte chunks, random cuts,
// and cuts that put `focus` (an error offset) first and last in a chunk.
std::vector<std::vector<size_t>> KernelSchedules(size_t size, int64_t focus,
                                                 Rng& rng) {
  std::vector<std::vector<size_t>> schedules = {{}};
  std::vector<size_t> bytewise;
  for (size_t i = 1; i < size; ++i) bytewise.push_back(i);
  schedules.push_back(bytewise);
  schedules.push_back(RandomCuts(rng, size, 6));
  schedules.push_back(RandomCuts(rng, size, 40));
  if (focus >= 0 && static_cast<size_t>(focus) <= size) {
    const size_t f = static_cast<size_t>(focus);
    schedules.push_back({f});                            // first byte
    if (f + 1 <= size) schedules.push_back({f + 1});     // last byte
    if (f >= 1 && f + 1 <= size) schedules.push_back({f - 1, f + 1});
  }
  return schedules;
}

// The fused kernel runs every compact-markup Feed of a registerless
// Session on the byte table, of a kFusedProduct BatchSession on the
// product table, of a stackless Session on its fused DRA, and of a mixed
// BatchSession on the registerless sub-product's table (when the batch has
// product members) plus one fused DRA per stackless member. Under every
// recovery policy, limit set, fault kind and chunking (1-byte chunks
// included), each must report what the generic tier reports on the same
// bytes and schedule, and on fail-fast what the validated one-scan runners
// report.
TEST(Fuzz, FusedKernelMatchesValidatedRunnersAndGenericTier) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  auto plan = QueryPlan::Compile(Rpq::FromXPath("/a//b", alphabet), {});
  ASSERT_NE(plan->fused(), nullptr);
  auto batch_plan = MultiQueryPlan::Compile(
      {{QuerySyntax::kXPath, "/a//b"},
       {QuerySyntax::kXPath, "//c"},
       {QuerySyntax::kXPath, "/a//a"}},
      alphabet, {});
  ASSERT_EQ(batch_plan->tier(), MultiTier::kFusedProduct);
  ASSERT_NE(batch_plan->eager_fused(), nullptr);
  auto stackless_plan =
      QueryPlan::Compile(Rpq::FromXPath("/a/b", alphabet), {});
  ASSERT_NE(stackless_plan->fused_dra(), nullptr);
  // Mixed batches with product members, and all stackless (no table).
  const std::vector<std::shared_ptr<const MultiQueryPlan>> mixed_plans = {
      MultiQueryPlan::Compile({{QuerySyntax::kXPath, "/a//b"},
                               {QuerySyntax::kXPath, "//c"},
                               {QuerySyntax::kXPath, "/a/b"},
                               {QuerySyntax::kXPath, "/a/c"}},
                              alphabet, {}),
      MultiQueryPlan::Compile(
          {{QuerySyntax::kXPath, "/a/b"}, {QuerySyntax::kXPath, "/b/c"}},
          alphabet, {}),
  };
  const RecoveryPolicy policies[] = {RecoveryPolicy::kFailFast,
                                     RecoveryPolicy::kSkipMalformedSubtree,
                                     RecoveryPolicy::kAutoClose};

  Session session(plan);
  BatchSession batch(batch_plan);
  Session stackless(stackless_plan);
  ASSERT_TRUE(session.selector().using_fused_fast_path());
  ASSERT_TRUE(batch.runner()->selector().using_fused_fast_path());
  ASSERT_EQ(stackless.selector().active_tier(),
            StreamingSelector::Tier::kFusedDraTable);
  std::unique_ptr<StreamMachine> generic_machine = plan->NewMachine();
  StreamingSelector generic(generic_machine.get(),
                            StreamFormat::kCompactMarkup, &alphabet,
                            &plan->scanner_tables(), /*fused=*/nullptr);
  MultiTagDfaRunner generic_batch(StreamFormat::kCompactMarkup, &alphabet,
                                  &batch_plan->scanner_tables(),
                                  batch_plan->eager(), /*eager_fused=*/nullptr,
                                  /*lazy=*/nullptr);
  std::unique_ptr<StreamMachine> generic_stackless_machine =
      stackless_plan->NewMachine();
  StreamingSelector generic_stackless(
      generic_stackless_machine.get(), StreamFormat::kCompactMarkup,
      &alphabet, &stackless_plan->scanner_tables(), /*fused=*/nullptr);
  ASSERT_FALSE(generic.using_fused_fast_path());
  ASSERT_FALSE(generic_batch.selector().using_fused_fast_path());
  ASSERT_EQ(generic_stackless.active_tier(),
            StreamingSelector::Tier::kGenericMachine);

  // One kernel mixed BatchSession per mixed plan, each beside the same
  // product machine behind a selector with no fused tables.
  struct MixedPair {
    std::shared_ptr<const MultiQueryPlan> plan;
    std::unique_ptr<BatchSession> fused;
    std::unique_ptr<ProductTagMachine> machine;
    std::unique_ptr<StreamingSelector> generic;
  };
  std::vector<MixedPair> mixed;
  for (const auto& mixed_plan : mixed_plans) {
    ASSERT_EQ(mixed_plan->tier(), MultiTier::kMixed);
    MixedPair pair;
    pair.plan = mixed_plan;
    pair.fused = std::make_unique<BatchSession>(mixed_plan);
    pair.machine = std::make_unique<ProductTagMachine>(
        mixed_plan->eager(), /*lazy=*/nullptr, mixed_plan->mixed_dras());
    pair.generic = std::make_unique<StreamingSelector>(
        pair.machine.get(), StreamFormat::kCompactMarkup, &alphabet,
        &mixed_plan->scanner_tables(), /*fused=*/nullptr);
    ASSERT_EQ(pair.fused->runner()->selector().active_tier(),
              StreamingSelector::Tier::kFusedDraTable);
    ASSERT_EQ(pair.generic->active_tier(),
              StreamingSelector::Tier::kGenericMachine);
    mixed.push_back(std::move(pair));
  }
  ASSERT_NE(mixed[0].plan->eager(), nullptr);
  ASSERT_EQ(mixed[1].plan->eager(), nullptr);

  auto check = [&](const std::string& doc, const StreamLimits& limits,
                   const std::string& what, Rng& rng) {
    ValidatedRun single_oracle = plan->fused()->RunValidated(doc, limits);
    MultiValidatedRun batch_oracle =
        batch.runner()->RunValidated(doc, limits);
    ValidatedRun stackless_oracle =
        stackless_plan->fused_dra()->RunValidated(doc, limits);
    ASSERT_EQ(single_oracle.error, batch_oracle.error) << what;
    ASSERT_EQ(single_oracle.error, stackless_oracle.error) << what;
    std::vector<MultiValidatedRun> mixed_oracles;
    for (MixedPair& pair : mixed) {
      mixed_oracles.push_back(pair.fused->runner()->RunValidated(doc, limits));
      ASSERT_EQ(single_oracle.error, mixed_oracles.back().error) << what;
    }
    for (RecoveryPolicy policy : policies) {
      for (StreamingSelector* selector :
           {&session.selector(), &generic, &batch.runner()->selector(),
            &generic_batch.selector(), &stackless.selector(),
            &generic_stackless}) {
        selector->set_recovery_policy(policy);
        selector->set_limits(limits);
      }
      for (MixedPair& pair : mixed) {
        for (StreamingSelector* selector :
             {&pair.fused->runner()->selector(), pair.generic.get()}) {
          selector->set_recovery_policy(policy);
          selector->set_limits(limits);
        }
      }
      for (const std::vector<size_t>& cuts :
           KernelSchedules(doc.size(), single_oracle.error.offset, rng)) {
        const std::vector<std::string_view> pieces = SplitAt(doc, cuts);
        const std::string label = what + " policy=" +
                                  RecoveryPolicyName(policy) +
                                  " pieces=" + std::to_string(pieces.size());
        session.Reset();
        generic.Reset();
        batch.Reset();
        generic_batch.Reset();
        stackless.Reset();
        generic_stackless.Reset();
        KernelOutcome fused = DriveKernel(
            session, session.selector(), pieces,
            [&] { return std::vector<int64_t>{session.matches()}; });
        KernelOutcome slow = DriveKernel(
            generic, generic, pieces,
            [&] { return std::vector<int64_t>{generic.matches()}; });
        ASSERT_EQ(fused, slow) << label;
        KernelOutcome fused_batch =
            DriveKernel(batch, batch.runner()->selector(), pieces,
                        [&] { return batch.runner()->query_matches(); });
        KernelOutcome slow_batch =
            DriveKernel(generic_batch, generic_batch.selector(), pieces,
                        [&] { return generic_batch.query_matches(); });
        ASSERT_EQ(fused_batch, slow_batch) << label;
        KernelOutcome fused_stackless = DriveKernel(
            stackless, stackless.selector(), pieces,
            [&] { return std::vector<int64_t>{stackless.matches()}; });
        KernelOutcome slow_stackless = DriveKernel(
            generic_stackless, generic_stackless, pieces,
            [&] { return std::vector<int64_t>{generic_stackless.matches()}; });
        ASSERT_EQ(fused_stackless, slow_stackless) << label << " stackless";
        std::vector<KernelOutcome> fused_mixed;
        for (size_t m = 0; m < mixed.size(); ++m) {
          MixedPair& pair = mixed[m];
          MultiTagDfaRunner& runner = *pair.fused->runner();
          pair.fused->Reset();
          pair.generic->Reset();
          fused_mixed.push_back(
              DriveKernel(*pair.fused, runner.selector(), pieces,
                          [&] { return runner.query_matches(); }));
          KernelOutcome slow_mixed =
              DriveKernel(*pair.generic, *pair.generic, pieces,
                          [&] { return pair.machine->counts(); });
          ASSERT_EQ(fused_mixed.back(), slow_mixed)
              << label << " mixed " << m;
        }
        if (policy != RecoveryPolicy::kFailFast) continue;
        // Fail-fast: the validated one-scan runners are the oracle.
        ASSERT_EQ(fused.finished, single_oracle.ok()) << label;
        ASSERT_EQ(fused.error, single_oracle.error) << label;
        const StreamStats stats = session.stats();
        ASSERT_EQ(stats.events, single_oracle.events) << label;
        ASSERT_EQ(stats.max_depth, single_oracle.max_depth) << label;
        ASSERT_EQ(session.selector().nodes(), single_oracle.nodes) << label;
        ASSERT_EQ(session.matches(), single_oracle.matches) << label;
        ASSERT_EQ(fused_batch.error, batch_oracle.error) << label;
        ASSERT_EQ(fused_batch.counts, batch_oracle.matches) << label;
        const StreamStats batch_stats = batch.stats();
        ASSERT_EQ(batch_stats.events, batch_oracle.events) << label;
        ASSERT_EQ(batch_stats.max_depth, batch_oracle.max_depth) << label;
        ASSERT_EQ(fused_stackless.error, stackless_oracle.error) << label;
        const StreamStats stackless_stats = stackless.stats();
        ASSERT_EQ(stackless_stats.events, stackless_oracle.events) << label;
        ASSERT_EQ(stackless_stats.max_depth, stackless_oracle.max_depth)
            << label;
        ASSERT_EQ(stackless.selector().nodes(), stackless_oracle.nodes)
            << label;
        ASSERT_EQ(stackless.matches(), stackless_oracle.matches) << label;
        for (size_t m = 0; m < mixed.size(); ++m) {
          const MultiValidatedRun& oracle = mixed_oracles[m];
          ASSERT_EQ(fused_mixed[m].error, oracle.error) << label;
          ASSERT_EQ(fused_mixed[m].counts, oracle.matches) << label;
          const StreamStats mixed_stats = mixed[m].fused->stats();
          ASSERT_EQ(mixed_stats.events, oracle.events) << label;
          ASSERT_EQ(mixed_stats.max_depth, oracle.max_depth) << label;
          ASSERT_EQ(mixed[m].fused->runner()->selector().nodes(),
                    oracle.nodes)
              << label;
        }
      }
    }
  };

  // Clean documents: random trees plus two spines deeper than the label
  // stack's reserve, so the stack grows inside the kernel.
  std::vector<std::string> docs;
  Rng rng(2300);
  for (const Tree& tree : testing::SampleTrees(12, 3, &rng)) {
    docs.push_back(ToCompactMarkup(alphabet, Encode(tree)));
  }
  for (size_t depth : {StreamingSelector::kDepthReserve + 100,
                       2 * StreamingSelector::kDepthReserve + 7}) {
    std::string open;
    std::string close;
    for (size_t d = 0; d < depth; ++d) {
      const char letter = d == 0 ? 'a' : "abc"[rng.NextBelow(3)];
      open.push_back(letter);
      close.insert(close.begin(), static_cast<char>(letter - 'a' + 'A'));
    }
    docs.push_back(open + "bB cC" + close);
  }
  int64_t stackless_matches = 0;
  int64_t mixed_matches = 0;
  for (size_t d = 0; d < docs.size(); ++d) {
    const std::string& doc = docs[d];
    const std::string what = "doc " + std::to_string(d);
    ValidatedRun clean = plan->fused()->RunValidated(doc);
    ASSERT_TRUE(clean.ok()) << what;
    stackless_matches += stackless_plan->fused_dra()->RunValidated(doc).matches;
    for (MixedPair& pair : mixed) {
      for (int64_t count : pair.fused->runner()->RunValidated(doc).matches) {
        mixed_matches += count;
      }
    }
    // Limits exactly at the document's depth, event count and byte length
    // (clean), and one below each (the error lands on the limit's byte).
    std::vector<StreamLimits> limit_sets(1);
    for (int64_t slack : {0, 1}) {
      StreamLimits depth_limit;
      depth_limit.max_depth = clean.max_depth - slack;
      StreamLimits event_limit;
      event_limit.max_events = clean.events - slack;
      StreamLimits byte_limit;
      byte_limit.max_document_bytes = static_cast<int64_t>(doc.size()) - slack;
      for (const StreamLimits& limits : {depth_limit, event_limit,
                                         byte_limit}) {
        if (limits.Validate() == nullptr) limit_sets.push_back(limits);
      }
    }
    for (size_t l = 0; l < limit_sets.size(); ++l) {
      check(doc, limit_sets[l], what + " limits " + std::to_string(l), rng);
    }
    // Every fault kind, under the default limits.
    for (int kind = 0; kind < kNumFaultKinds; ++kind) {
      std::string mutated = doc;
      FaultInjector injector(d * 977 + static_cast<uint64_t>(kind));
      injector.Apply(static_cast<FaultKind>(kind), &mutated);
      check(mutated, StreamLimits{},
            what + " fault " + FaultKindName(static_cast<FaultKind>(kind)),
            rng);
    }
  }
  // The DRA members select on the clean documents, so the match paths ran.
  EXPECT_GT(stackless_matches, 0);
  EXPECT_GT(mixed_matches, 0);
}

TEST(Fuzz, DraRunnerDepthCanGoNegativeWithoutHarm) {
  // Closing tags at depth 0 push the counter negative; the model is
  // defined over Z and the runner must follow it.
  Dra same_depth = BuildSameDepthDra(2, 0);
  DraRunner runner(&same_depth);
  runner.Reset();
  for (int i = 0; i < 10; ++i) runner.OnClose(0);
  EXPECT_EQ(runner.depth(), -10);
  for (int i = 0; i < 20; ++i) runner.OnOpen(0);
  EXPECT_EQ(runner.depth(), 10);
}

}  // namespace
}  // namespace sst
