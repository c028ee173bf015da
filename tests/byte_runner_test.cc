#include <gtest/gtest.h>

#include "automata/alphabet.h"
#include "automata/minimize.h"
#include "base/rng.h"
#include "dra/machine.h"
#include "dra/tag_dfa.h"
#include "dra/byte_runner.h"
#include "dra/streaming.h"
#include "eval/registerless_query.h"
#include "eval/stack_evaluator.h"
#include "test_util.h"
#include "trees/encoding.h"
#include "trees/ground_truth.h"

namespace sst {
namespace {

TEST(ByteRunner, MatchesEventLevelMachine) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Dfa dfa = CompileRegex("a.*b", alphabet);
  TagDfa evaluator = BuildRegisterlessQueryAutomaton(dfa, /*blind=*/false);
  ByteTagDfaRunner byte_runner(evaluator);
  TagDfaMachine event_machine(&evaluator);
  Rng rng(61);
  for (const Tree& tree : testing::SampleTrees(100, 3, &rng)) {
    EventStream events = Encode(tree);
    std::string bytes = ToCompactMarkup(alphabet, events);
    std::vector<bool> expected = RunQuery(&event_machine, events);
    int64_t expected_count = 0;
    for (bool b : expected) expected_count += b ? 1 : 0;
    EXPECT_EQ(byte_runner.CountSelections(bytes), expected_count);
    EXPECT_EQ(byte_runner.IsAccepting(
                  byte_runner.RunValidated(bytes).final_state),
              RunAcceptor(&event_machine, events));
  }
}

TEST(ByteRunner, SelectionCountMatchesGroundTruth) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Dfa dfa = CompileRegex("a.*b", alphabet);
  ByteTagDfaRunner byte_runner(
      BuildRegisterlessQueryAutomaton(dfa, /*blind=*/false));
  Rng rng(67);
  for (const Tree& tree : testing::SampleTrees(100, 3, &rng)) {
    std::string bytes = ToCompactMarkup(alphabet, Encode(tree));
    std::vector<bool> selected = SelectNodes(dfa, tree);
    int64_t expected = 0;
    for (bool b : selected) expected += b ? 1 : 0;
    EXPECT_EQ(byte_runner.CountSelections(bytes), expected);
  }
}

TEST(ByteStackRunner, MatchesStackEvaluatorForAnyLanguage) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Rng rng(71);
  for (const char* pattern : {".*ab", "ab", "a.*b"}) {
    Dfa dfa = CompileRegex(pattern, alphabet);
    ByteStackRunner byte_runner(dfa);
    StackQueryEvaluator machine(&dfa);
    for (const Tree& tree : testing::SampleTrees(60, 3, &rng)) {
      EventStream events = Encode(tree);
      std::string bytes = ToCompactMarkup(alphabet, events);
      std::vector<bool> selected = RunQuery(&machine, events);
      int64_t expected = 0;
      for (bool b : selected) expected += b ? 1 : 0;
      EXPECT_EQ(byte_runner.CountSelections(bytes), expected) << pattern;
    }
  }
}

TEST(ByteStackRunner, ReportsPeakDepth) {
  Alphabet alphabet = Alphabet::FromLetters("ab");
  Dfa dfa = CompileRegex("a*", alphabet);
  ByteStackRunner runner(dfa);
  std::string bytes(100, 'a');
  bytes += std::string(100, 'A');
  runner.CountSelections(bytes);
  EXPECT_EQ(runner.max_stack_depth(), 100u);
}

// Regression: the selection predicate used to be `byte >= 'a'`, which also
// counted '{', '|', '}', '~', and every byte >= 0x7B whenever the
// (self-looped) state happened to be accepting.
TEST(ByteRunner, JunkBytesDoNotCountSelections) {
  Alphabet alphabet = Alphabet::FromLetters("abc");
  Dfa dfa = CompileRegex(".*", alphabet);  // every node pre-selected
  ByteTagDfaRunner runner(
      BuildRegisterlessQueryAutomaton(dfa, /*blind=*/false));
  const std::string clean = "abBAcC";
  EXPECT_EQ(runner.CountSelections(clean), 3);
  std::string junk = "a{b|B}A~c\x7f\xff\x80" "C";  // same tags + garbage
  EXPECT_EQ(runner.CountSelections(junk), runner.CountSelections(clean));
  // Junk alone selects nothing, whatever state it loops in.
  EXPECT_EQ(runner.CountSelections("{|}~\x7f\x80\xff"), 0);
}

// The label-driven constructor follows the alphabet instead of assuming
// labels 'a', 'b', ... in symbol order.
TEST(ByteRunner, AlphabetAwareTableFollowsTheLabels) {
  Alphabet alphabet = Alphabet::FromLetters("xyz");
  Dfa dfa = CompileRegex("x.*y", alphabet);
  ByteTagDfaRunner runner(BuildRegisterlessQueryAutomaton(dfa, false),
                          alphabet);
  Rng rng(73);
  for (const Tree& tree : testing::SampleTrees(60, 3, &rng)) {
    std::string bytes = ToCompactMarkup(alphabet, Encode(tree));
    std::vector<bool> selected = SelectNodes(dfa, tree);
    int64_t expected = 0;
    for (bool b : selected) expected += b ? 1 : 0;
    EXPECT_EQ(runner.CountSelections(bytes), expected);
  }
}

// Small machines compact the fused table to uint16_t (half the cache
// footprint); machines with >= 65536 states keep int32_t entries. Both
// storages must agree byte for byte with the event-level machine.
TEST(ByteRunner, CompactAndWideTablesAgree) {
  Alphabet alphabet = Alphabet::FromLetters("ab");
  Dfa dfa = CompileRegex("a.*b", alphabet);
  ByteTagDfaRunner small(BuildRegisterlessQueryAutomaton(dfa, false));
  EXPECT_TRUE(small.uses_compact_table());
  EXPECT_NE(small.table16(), nullptr);
  EXPECT_EQ(small.table32(), nullptr);

  // A wide machine that embeds the small one in its low states: states
  // [0, n) of `wide` replicate `small`'s automaton, so runs agree while
  // exercising the int32 storage.
  TagDfa evaluator = BuildRegisterlessQueryAutomaton(dfa, false);
  const int wide_states = 65536 + evaluator.num_states;
  TagDfa padded = TagDfa::Create(wide_states, evaluator.num_symbols);
  padded.initial = evaluator.initial;
  for (int q = 0; q < wide_states; ++q) {
    bool embedded = q < evaluator.num_states;
    padded.accepting[q] = embedded && evaluator.accepting[q];
    for (Symbol a = 0; a < evaluator.num_symbols; ++a) {
      padded.SetNextOpen(q, a, embedded ? evaluator.NextOpen(q, a) : q);
      padded.SetNextClose(q, a, embedded ? evaluator.NextClose(q, a) : q);
    }
  }
  ByteTagDfaRunner wide(padded);
  EXPECT_FALSE(wide.uses_compact_table());
  EXPECT_EQ(wide.table16(), nullptr);
  EXPECT_NE(wide.table32(), nullptr);

  // The streaming kernel runs either storage too: chunked Feed over each
  // table must report what the one-scan runs do.
  TagDfaMachine small_machine(&evaluator);
  TagDfaMachine wide_machine(&padded);
  ScannerTables tables =
      ScannerTables::Build(StreamFormat::kCompactMarkup, alphabet);
  StreamingSelector small_stream(&small_machine, StreamFormat::kCompactMarkup,
                                 &alphabet, &tables, &small);
  StreamingSelector wide_stream(&wide_machine, StreamFormat::kCompactMarkup,
                                &alphabet, &tables, &wide);
  auto stream = [](StreamingSelector& selector, std::string_view bytes) {
    selector.Reset();
    for (size_t i = 0; i < bytes.size(); i += 7) {
      if (!selector.Feed(bytes.substr(i, 7))) return int64_t{-1};
    }
    return selector.Finish() ? selector.matches() : int64_t{-1};
  };

  Rng rng(79);
  for (const Tree& tree : testing::SampleTrees(40, 2, &rng)) {
    std::string bytes = ToCompactMarkup(alphabet, Encode(tree));
    EXPECT_EQ(wide.CountSelections(bytes), small.CountSelections(bytes));
    EXPECT_EQ(wide.CountSelectionsPerByte(bytes),
              small.CountSelectionsPerByte(bytes));
    EXPECT_EQ(wide.RunValidated(bytes), small.RunValidated(bytes));
    EXPECT_EQ(stream(wide_stream, bytes), small.CountSelections(bytes));
    EXPECT_EQ(stream(small_stream, bytes), small.CountSelections(bytes));
    EXPECT_TRUE(wide_stream.using_fused_fast_path());
  }
}

// Regression: a closing tag on an empty stack used to be silently skipped,
// miscounting unbalanced inputs instead of reporting them.
TEST(ByteStackRunner, UnbalancedCloseIsReported) {
  Alphabet alphabet = Alphabet::FromLetters("ab");
  Dfa dfa = CompileRegex("a*", alphabet);
  ByteStackRunner runner(dfa);
  EXPECT_EQ(runner.CountSelections("A"), -1);
  EXPECT_EQ(runner.CountSelections("aAA"), -1);
  EXPECT_EQ(runner.CountSelections("aA"), 1);   // balanced: fine
  EXPECT_EQ(runner.CountSelections("aab"), 2);  // open prefix: fine
  // Failed runs never inflate the peak-depth counter past real pushes.
  ByteStackRunner fresh(dfa);
  EXPECT_EQ(fresh.CountSelections("AAAA"), -1);
  EXPECT_EQ(fresh.max_stack_depth(), 0u);
}

}  // namespace
}  // namespace sst
