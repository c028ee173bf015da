#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "automata/alphabet.h"
#include "automata/minimize.h"
#include "core/stackless.h"
#include "engine/query_plan.h"
#include "engine/session.h"
#include "eval/stack_evaluator.h"
#include "query/rpq.h"
#include "test_util.h"
#include "trees/encoding.h"
#include "trees/ground_truth.h"

// Global allocation counter so tests can assert that pooled session reuse
// performs no heap allocation (acceptance criterion of the engine layer).
// Counts every operator new in the binary; tests only look at deltas.
namespace {
std::atomic<int64_t> g_heap_allocations{0};
}  // namespace

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
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

std::shared_ptr<const QueryPlan> CompileXPath(const std::string& xpath,
                                              const Alphabet& alphabet,
                                              PlanOptions options = {}) {
  return QueryPlan::Compile(Rpq::FromXPath(xpath, alphabet), options);
}

TEST(QueryPlan, TierSelectionMatchesCharacterization) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  // Example 2.12 of the paper: the three XPath shapes land on the three
  // evaluation tiers under the markup encoding.
  auto registerless = CompileXPath("/a//b", alphabet);
  EXPECT_EQ(registerless->kind(), EvaluatorKind::kRegisterless);
  EXPECT_TRUE(registerless->exact());
  EXPECT_NE(registerless->tag_dfa(), nullptr);
  EXPECT_EQ(registerless->stackless(), nullptr);

  auto stackless = CompileXPath("/a/b", alphabet);
  EXPECT_EQ(stackless->kind(), EvaluatorKind::kStackless);
  EXPECT_TRUE(stackless->exact());
  EXPECT_EQ(stackless->tag_dfa(), nullptr);
  EXPECT_NE(stackless->stackless(), nullptr);

  auto baseline = CompileXPath("//a/b", alphabet);
  EXPECT_EQ(baseline->kind(), EvaluatorKind::kStackBaseline);
  EXPECT_TRUE(baseline->exact());
  EXPECT_EQ(baseline->fused(), nullptr);
}

TEST(QueryPlan, StackFallbackCanBeDisabled) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  PlanOptions options;
  options.allow_stack_fallback = false;
  auto plan = CompileXPath("//a/b", alphabet, options);
  EXPECT_FALSE(plan->exact());
  EXPECT_EQ(plan->NewMachine(), nullptr);
  // The classification verdicts are still available on an inexact plan.
  EXPECT_FALSE(plan->classification().har);
}

TEST(QueryPlan, FusedRunnerAgreesWithScannerTablesOnAllBytes) {
  // Satellite 1: the fused byte table and the scanner's byte tables are
  // built once, in the plan, from the same alphabet — they must agree on
  // every one of the 256 byte values.
  Alphabet alphabet = Alphabet::FromLetters("abc");
  auto plan = CompileXPath("/a//b", alphabet);
  ASSERT_NE(plan->fused(), nullptr);
  const ScannerTables& tables = plan->scanner_tables();
  for (int b = 0; b < 256; ++b) {
    unsigned char byte = static_cast<unsigned char>(b);
    Symbol fused_symbol = plan->fused()->byte_symbol(byte);
    uint8_t cls = tables.byte_class[byte];
    if (cls == ScannerTables::kOpen || cls == ScannerTables::kClose) {
      EXPECT_EQ(fused_symbol, tables.byte_symbol[byte])
          << "byte " << b << " disagrees between fused and scanner tables";
    } else {
      // Bytes the scanner does not treat as tags must not map to a symbol
      // in the fused table either.
      EXPECT_LT(fused_symbol, 0) << "byte " << b;
    }
  }
}

TEST(QueryPlan, SessionsMatchLegacyFacadeAndGroundTruth) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Rng rng(11);
  std::vector<Tree> trees = testing::SampleTrees(40, 3, &rng);
  for (const char* xpath : {"/a//b", "/a/b", "//a/b"}) {
    Rpq rpq = Rpq::FromXPath(xpath, alphabet);
    auto plan = QueryPlan::Compile(rpq, PlanOptions{});
    CompiledQuery legacy = CompileQuery(rpq, StreamEncoding::kMarkup);
    ASSERT_TRUE(legacy.exact);
    // The facade is an adapter over the engine: it exposes the plan it
    // compiled, with identical verdicts.
    ASSERT_NE(legacy.plan, nullptr);
    EXPECT_EQ(legacy.plan->kind(), plan->kind());

    Session session(plan);
    for (const Tree& tree : trees) {
      std::string text = ToCompactMarkup(alphabet, Encode(tree));
      std::vector<bool> expected = SelectNodes(rpq.minimal_dfa, tree);
      int64_t expected_matches = 0;
      for (bool b : expected) expected_matches += b ? 1 : 0;

      session.Reset();
      ASSERT_TRUE(session.Feed(text) && session.Finish())
          << xpath << ": " << session.selector().error();
      EXPECT_EQ(session.matches(), expected_matches) << xpath;

      legacy.machine->Reset();
      StreamingSelector selector(legacy.machine.get(),
                                 StreamFormat::kCompactMarkup, &alphabet);
      ASSERT_TRUE(selector.Feed(text) && selector.Finish());
      EXPECT_EQ(session.matches(), selector.matches()) << xpath;
    }
  }
}

TEST(Session, BorrowsFusedFastPathFromPlan) {
  Alphabet alphabet = Alphabet::FromLetters("ab");
  auto plan = CompileXPath("/a//b", alphabet);
  ASSERT_NE(plan->fused(), nullptr);
  Session session(plan);
  EXPECT_TRUE(session.selector().using_fused_fast_path());
}

TEST(SessionPool, PooledAcquirePerformsNoHeapAllocation) {
  // Acceptance criterion: opening a pooled session on a compiled plan is
  // allocation-free — all tables live in the plan, Reset touches no heap.
  Alphabet alphabet = Alphabet::FromLetters("abc");
  auto plan = CompileXPath("/a//b", alphabet);
  SessionPool pool(plan, /*max_idle=*/4);
  // Warm the pool: first acquisition constructs the session.
  pool.Release(pool.Acquire());
  ASSERT_EQ(pool.idle(), 1u);

  int64_t before = g_heap_allocations.load(std::memory_order_relaxed);
  std::unique_ptr<Session> session = pool.Acquire();
  int64_t after = g_heap_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0)
      << "pooled Acquire() must not touch the heap";
  EXPECT_EQ(session->matches(), 0);
  pool.Release(std::move(session));

  SessionPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.created, 1);
  EXPECT_EQ(stats.reused, 1);
}

TEST(SessionPool, SteadyStateStreamingIsAllocationFree) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  auto plan = CompileXPath("/a//b", alphabet);
  SessionPool pool(plan, /*max_idle=*/4);
  const std::string text = "abBabBAbBA";  // a(b, a(b), b)
  // Warm-up request (constructs the session, sizes any lazy buffers).
  {
    auto session = pool.Acquire();
    ASSERT_TRUE(session->Feed(text) && session->Finish());
    pool.Release(std::move(session));
  }
  int64_t before = g_heap_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 16; ++i) {
    auto session = pool.Acquire();
    ASSERT_TRUE(session->Feed(text) && session->Finish());
    pool.Release(std::move(session));
  }
  int64_t after = g_heap_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0)
      << "a warm acquire/stream/release cycle must be allocation-free";
}

// The pushdown tier keeps its per-level states in one flat column that
// keeps its capacity across Reset, like the validator labels: once a
// warm-up document has sized both, pooled sessions stream documents of no
// greater depth, in any chunking, and save and restore checkpoints
// without touching the heap.
TEST(SessionPool, StackTierSteadyStateIsAllocationFree) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  auto plan = CompileXPath("//a/b", alphabet);
  ASSERT_EQ(plan->kind(), EvaluatorKind::kStackBaseline);
  SessionPool pool(plan, /*max_idle=*/4);
  // A spine deeper than the label reserve, then a bushy tail.
  std::string text;
  for (int d = 0; d < 1500; ++d) text.push_back("abc"[d % 3]);
  text += "abBAcC";
  for (int d = 1499; d >= 0; --d) text.push_back("ABC"[d % 3]);
  text.insert(text.size() - 1, "bBabBAbB");
  auto stream = [&](Session* session, SelectorCheckpoint* cp) {
    for (size_t i = 0; i < text.size(); i += 700) {
      ASSERT_TRUE(session->Feed(std::string_view(text).substr(i, 700)));
      if (i == 700) ASSERT_TRUE(session->selector().SaveCheckpoint(cp));
    }
    ASSERT_TRUE(session->Finish());
    ASSERT_TRUE(session->selector().RestoreCheckpoint(*cp));
    ASSERT_TRUE(session->Feed(std::string_view(text).substr(1400)));
    ASSERT_TRUE(session->Finish());
  };
  SelectorCheckpoint cp;
  int64_t warm_matches = 0;
  {
    auto session = pool.Acquire();
    ASSERT_EQ(session->selector().active_tier(),
              StreamingSelector::Tier::kFusedByteTable);
    stream(session.get(), &cp);
    warm_matches = session->matches();
    EXPECT_EQ(session->stats().max_stack_depth, 1502);
    pool.Release(std::move(session));
  }
  EXPECT_GT(warm_matches, 0);
  int64_t before = g_heap_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 8; ++i) {
    auto session = pool.Acquire();
    stream(session.get(), &cp);
    EXPECT_EQ(session->matches(), warm_matches);
    pool.Release(std::move(session));
  }
  int64_t after = g_heap_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0)
      << "a warm stack-tier stream with checkpoints must not allocate";
}

// The stack machine's checkpoint is its state and column: equal after an
// equivalent rebuild, unequal after a divergence, restored exactly (peak
// re-based at the restored depth), malformed configs rejected; Reset
// empties the column and the diagnostics.
TEST(StackTier, CheckpointRoundTripAndReset) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Dfa dfa = CompileRegex("a(b|c)*", alphabet);
  StackQueryEvaluator machine(&dfa);
  machine.OnOpen(0);
  machine.OnOpen(1);
  machine.OnOpen(2);
  std::vector<int64_t> config;
  ASSERT_TRUE(machine.SaveConfig(&config));
  EXPECT_TRUE(machine.ConfigEqualsCurrent(config));
  const bool accepting_at_save = machine.InAcceptingState();

  machine.OnClose(2);
  EXPECT_FALSE(machine.ConfigEqualsCurrent(config));
  machine.OnOpen(2);
  EXPECT_TRUE(machine.ConfigEqualsCurrent(config));
  machine.OnOpen(1);
  machine.OnOpen(1);
  EXPECT_FALSE(machine.ConfigEqualsCurrent(config));
  EXPECT_EQ(machine.max_stack_depth(), 5u);

  ASSERT_TRUE(machine.RestoreConfig(config));
  EXPECT_TRUE(machine.ConfigEqualsCurrent(config));
  EXPECT_EQ(machine.depth(), 3u);
  EXPECT_EQ(machine.InAcceptingState(), accepting_at_save);
  EXPECT_EQ(machine.max_stack_depth(), 3u);
  EXPECT_FALSE(machine.RestoreConfig({}));
  EXPECT_FALSE(machine.ConfigEqualsCurrent({}));

  // Underflow tolerance, then Reset.
  for (int i = 0; i < 5; ++i) machine.OnClose(0);
  EXPECT_EQ(machine.depth(), 0u);
  EXPECT_EQ(machine.underflow_closes(), 2u);
  machine.Reset();
  EXPECT_EQ(machine.depth(), 0u);
  EXPECT_EQ(machine.max_stack_depth(), 0u);
  EXPECT_EQ(machine.underflow_closes(), 0u);
  EXPECT_EQ(machine.ExportedState(), dfa.initial);

  // Through the selector: a Session reset mid-document and one restored
  // from a mid-document checkpoint both finish with a fresh run's answer.
  auto plan = CompileXPath("//a/b", alphabet);
  const std::string text = "abcabBACBbBcCA";
  Session fresh(plan);
  ASSERT_TRUE(fresh.Feed(text) && fresh.Finish());
  Session session(plan);
  ASSERT_TRUE(session.Feed(text.substr(0, 7)));
  session.Reset();
  ASSERT_TRUE(session.Feed(text) && session.Finish());
  EXPECT_EQ(session.matches(), fresh.matches());
  session.Reset();
  ASSERT_TRUE(session.Feed(text.substr(0, 5)));
  SelectorCheckpoint cp;
  ASSERT_TRUE(session.selector().SaveCheckpoint(&cp));
  ASSERT_TRUE(session.Feed("bBbB"));
  ASSERT_TRUE(session.selector().RestoreCheckpoint(cp));
  EXPECT_TRUE(session.selector().CheckpointConverged(cp, 0));
  ASSERT_TRUE(session.Feed(text.substr(5)) && session.Finish());
  EXPECT_EQ(session.matches(), fresh.matches());
  EXPECT_EQ(session.stats().max_stack_depth, fresh.stats().max_stack_depth);
}

TEST(SessionPool, BoundsIdleListAndSharesOnePlan) {
  Alphabet alphabet = Alphabet::FromLetters("ab");
  auto plan = CompileXPath("/a/b", alphabet);
  SessionPool pool(plan, /*max_idle=*/2);
  std::vector<std::unique_ptr<Session>> out;
  for (int i = 0; i < 5; ++i) out.push_back(pool.Acquire());
  for (auto& session : out) {
    EXPECT_EQ(session->plan_ptr().get(), plan.get());
    pool.Release(std::move(session));
  }
  EXPECT_EQ(pool.idle(), 2u);  // releases beyond max_idle are destroyed
  EXPECT_EQ(pool.stats().created, 5);
}

TEST(SessionPool, LeaseReturnsSessionOnScopeExit) {
  Alphabet alphabet = Alphabet::FromLetters("ab");
  auto plan = CompileXPath("/a/b", alphabet);
  SessionPool pool(plan);
  {
    SessionLease lease = Lease(pool);
    ASSERT_TRUE(lease->Feed("abBA") && lease->Finish());
  }
  EXPECT_EQ(pool.idle(), 1u);
  EXPECT_EQ(pool.stats().created, 1);
}

TEST(QueryPlan, TermEncodingUsesBlindVerdicts) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  PlanOptions options;
  options.encoding = StreamEncoding::kTerm;
  options.format = StreamFormat::kCompactTerm;
  Rpq rpq = Rpq::FromXPath("/a//b", alphabet);
  auto plan = QueryPlan::Compile(rpq, options);
  // /a//b is blindly almost-reversible, so the term-encoding plan is still
  // registerless — but the fused byte table only exists for compact
  // markup.
  EXPECT_EQ(plan->kind(), EvaluatorKind::kRegisterless);
  EXPECT_EQ(plan->fused(), nullptr);

  Session session(plan);
  Rng rng(7);
  for (const Tree& tree : testing::SampleTrees(20, 3, &rng)) {
    std::string text = ToCompactTerm(alphabet, Encode(tree));
    std::vector<bool> expected = SelectNodes(rpq.minimal_dfa, tree);
    int64_t expected_matches = 0;
    for (bool b : expected) expected_matches += b ? 1 : 0;
    session.Reset();
    ASSERT_TRUE(session.Feed(text) && session.Finish())
        << session.selector().error();
    EXPECT_EQ(session.matches(), expected_matches);
  }
}

}  // namespace
}  // namespace sst
