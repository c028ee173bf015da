#ifndef SST_DRA_MACHINE_H_
#define SST_DRA_MACHINE_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "automata/alphabet.h"
#include "trees/encoding.h"
#include "trees/tree.h"

namespace sst {

struct TagDfa;
struct Dra;

// Full configuration of a depth-register automaton (Definition 2.1):
// control state, depth counter, register values. This is the unit a
// DRA-backed StreamMachine exports to the scanner's fused kernel (see
// ExportedDraConfigs below), which steps it in place with the
// ByteDraRunner table. The register array is fixed-size (registers past
// num_registers are ignored) so a config is copyable with no heap traffic.
struct DraConfig {
  static constexpr int kMaxRegisters = 10;  // = Dra::kMaxRegisters

  int state = 0;
  int64_t depth = 0;
  std::array<int64_t, kMaxRegisters> registers{};
};

// Common interface of all streaming evaluators: explicit DRAs, registerless
// automata, and the constructed evaluators of Section 3. A machine consumes
// tag events; after any event its acceptance bit can be sampled.
//
// Query semantics (Section 2.3): a node is *pre-selected* iff the machine is
// in an accepting state directly after its opening tag. Recognition
// semantics (Section 2.2): the machine accepts the tree iff it is in an
// accepting state after the full encoding.
//
// Machines for the term encoding must not depend on the `symbol` argument of
// OnClose (the term encoding has a universal closing tag); such machines
// accept -1 there.
class StreamMachine {
 public:
  virtual ~StreamMachine() = default;

  virtual void Reset() = 0;
  virtual void OnOpen(Symbol symbol) = 0;
  virtual void OnClose(Symbol symbol) = 0;
  virtual bool InAcceptingState() const = 0;

  // Match-event fan-out: appends the ids of the members whose verdict is
  // "selected" for the node just opened. Called by scanners only when the
  // machine (or its fused stand-in) reports acceptance, so single-query
  // machines keep the default — member 0 — which is deliberately
  // state-independent: the fused tiers sample acceptance from the byte
  // table without syncing the machine mid-chunk, and the default must stay
  // correct there. Multi-query machines (ProductTagMachine) override this
  // to enumerate the accepting members of the product mask and DRAs; when
  // they run on the fused kernel, the scanner syncs the table state (via
  // SyncExportedState) before every call, and the DRA configurations are
  // current because the kernel steps them in place.
  virtual void AppendSelectedMembers(std::vector<int32_t>* out) const {
    out->push_back(0);
  }

  // Registerless fast-path export (Section 4.3): machines that are (wrappers
  // of) a plain TagDfa may expose the automaton plus get/set access to their
  // current state. Byte-level scanners then run a fused byte→state
  // transition table with no virtual dispatch per event and sync the state
  // back after each chunk. Machines without such a representation keep the
  // defaults (no export; state calls ignored).
  virtual const TagDfa* ExportTagDfa() const { return nullptr; }
  virtual int ExportedState() const { return 0; }
  virtual void SyncExportedState(int /*state*/) {}

  // Stackless fast-path export (Lemma 3.8): machines that are, or carry,
  // explicit restricted DRAs expose the automata plus their live
  // configurations as parallel arrays — one DRA for a DraRunner, one per
  // stackless member for a mixed batch (ProductTagMachine). The scanner's
  // fused kernel steps the configurations in place through ByteDraRunner
  // tables built from these automata, keeping one depth counter for all of
  // them, and stores that depth into every config before it returns or
  // hands the stream to the generic tier. A machine may export a TagDfa
  // and DRAs together; the kernel then steps the table and every DRA on
  // each tag.
  virtual std::span<const Dra* const> ExportDras() const { return {}; }
  virtual DraConfig* ExportedDraConfigs() { return nullptr; }

  // Multi-member exports (a registerless or mixed batch) also expose an
  // open-visit counter: one slot per exported TagDfa state, then one per
  // exported DRA. The fused kernel adds 1 at the TagDfa state reached by
  // every opening tag whose state accepts, and 1 at the slot of every DRA
  // that accepts after an opening tag; FoldExportedVisits adds the slots
  // into the per-member counts (and zeroes them) once per Feed, before it
  // returns or hands the stream to the generic tier. Null — the default —
  // for single-member machines, whose one count is the scanner's own
  // matches.
  virtual int64_t* ExportedVisitCounts() { return nullptr; }
  virtual void FoldExportedVisits() {}

  // Checkpoint protocol (incremental re-evaluation, engine/incremental.h):
  // machines that can serialize their full configuration into a flat word
  // vector support suspend/resume at arbitrary event boundaries. The
  // stackless tiers write O(1)-to-O(registers) words — the paper's cheap-
  // snapshot asset; the stack tier stores a handle to a retained head in
  // its pooled persistent stack (eval/stack_evaluator.h), still O(1).
  //
  //   SaveConfig        appends nothing on failure; true and `out`
  //                     overwritten on success. May retain machine-owned
  //                     resources: every saved config must eventually be
  //                     passed to ReleaseConfig or dropped via Reset().
  //   RestoreConfig     adopts a previously saved (not yet released)
  //                     config; the config stays valid and may be restored
  //                     again (repeated edits resume from one checkpoint).
  //   ConfigEqualsCurrent  true iff the machine's live configuration is
  //                     semantically identical to the saved one — the
  //                     convergence test of incremental re-evaluation.
  //                     Diagnostic counters do not participate.
  //   ReleaseConfig     drops one saved config (frees pooled stack nodes
  //                     on the stack tier; no-op for flat configs).
  //
  // The default "unsupported" answers keep exotic machines (products,
  // test doubles) safely on the full-rescan path.
  virtual bool SaveConfig(std::vector<int64_t>* /*out*/) { return false; }
  virtual bool RestoreConfig(const std::vector<int64_t>& /*config*/) {
    return false;
  }
  virtual bool ConfigEqualsCurrent(
      const std::vector<int64_t>& /*config*/) const {
    return false;
  }
  virtual void ReleaseConfig(const std::vector<int64_t>& /*config*/) {}

  // Stack-tier diagnostics, surfaced through StreamStats (and from there
  // the server metrics frame). Zero on the stackless tiers by definition:
  // their whole point is having no stack to peak or underflow.
  virtual int64_t StackDepthPeak() const { return 0; }
  virtual int64_t StackUnderflowCloses() const { return 0; }
};

// Runs the machine over the given encoding and returns, per opening tag in
// stream order (= document order of nodes), whether the node was
// pre-selected. Use RunQueryOnTree to get the answers indexed by node id.
std::vector<bool> RunQuery(StreamMachine* machine, const EventStream& events);

// Streams <tree> through the machine and returns pre-selection per node id
// (directly comparable with SelectNodes ground truth). When `term_encoded`
// is set, closing events carry no label (symbol -1), as under the term
// encoding.
std::vector<bool> RunQueryOnTree(StreamMachine* machine, const Tree& tree,
                                 bool term_encoded = false);

// Runs the machine over the full stream; true iff it ends accepting.
bool RunAcceptor(StreamMachine* machine, const EventStream& events);

}  // namespace sst

#endif  // SST_DRA_MACHINE_H_
