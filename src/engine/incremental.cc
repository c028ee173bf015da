#include "engine/incremental.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "base/check.h"

namespace sst {

namespace {

// Shifts every absolute byte position a suffix record carries by the
// edit's net size change. Sentinel -1 positions stay sentinels.
StreamError RebaseError(StreamError err, int64_t delta) {
  if (err.offset >= 0) err.offset += delta;
  return err;
}

StreamingSelector::RecoveredError RebaseRecovered(
    StreamingSelector::RecoveredError rec, int64_t delta) {
  rec.error = RebaseError(rec.error, delta);
  if (rec.excise_from >= 0) rec.excise_from += delta;
  if (rec.resume_offset >= 0) rec.resume_offset += delta;
  return rec;
}

}  // namespace

IncrementalSession::IncrementalSession(std::shared_ptr<const QueryPlan> plan,
                                       IncrementalOptions options)
    : plan_(std::move(plan)),
      machine_(plan_->NewMachine()),
      selector_(machine_.get(), plan_->options().format, &plan_->alphabet(),
                &plan_->scanner_tables(), plan_->kernel_table(),
                plan_->fused_dras()),
      options_(options) {
  SST_CHECK_MSG(machine_ != nullptr,
                "IncrementalSession requires an exact plan");
  SST_CHECK(options_.checkpoint_interval >= 1);
  stack_tier_ = plan_->kind() == EvaluatorKind::kStackBaseline;
  selector_.set_recovery_policy(options_.policy);
  selector_.set_limits(options_.limits);
  sink_.set_log(&scratch_events_);
  selector_.set_match_sink(&sink_);
}

bool IncrementalSession::MakeCheckpointAt(int64_t offset,
                                          int64_t base_match_index,
                                          Checkpoint* out) {
  SelectorCheckpoint state;
  if (!selector_.SaveCheckpoint(&state)) return false;
  out->offset = offset;
  out->match_index =
      base_match_index + static_cast<int64_t>(scratch_events_.size());
  out->segment_peak_depth = selector_.TakeSegmentPeakDepth();
  out->state = std::move(state);
  return true;
}

IncrementalSession::Results IncrementalSession::CaptureLiveResults(
    std::vector<MatchEvent> events) {
  Results r;
  r.events = std::move(events);
  r.tail_peak = supported_ ? selector_.TakeSegmentPeakDepth() : 0;
  StreamStats st = selector_.stats();
  if (supported_) {
    // The selector's running peaks were re-based at every checkpoint
    // (TakeSegmentPeakDepth) and at every restore, so the whole-run peak
    // is the max over recorded segment peaks plus the live tail. Stack
    // size tracks element depth exactly on selector-driven streams, so
    // the stack tier's peak composes the same way.
    st.max_depth = std::max(cps_.SuffixPeak(0, r.tail_peak), st.max_depth);
    st.max_depth = std::max(st.max_depth, r.tail_peak);
    if (stack_tier_) st.max_stack_depth = st.max_depth;
    // After a restore the recorder's emission counter covers only the
    // rescan; single-query verdict-only emission is one event per match.
    st.matches_emitted = st.matches;
    st.pending_matches_peak = 0;
  }
  r.stats = st;
  r.failed = selector_.failed();
  r.complete = selector_.document_complete();
  r.accepting = selector_.machine_accepting();
  r.error = selector_.stream_error();
  r.recovered = selector_.recovered_errors();
  return r;
}

void IncrementalSession::DoFullScan(std::string_view document) {
  cps_.Clear();
  scratch_events_.clear();
  selector_.Reset();

  SelectorCheckpoint origin;
  supported_ = selector_.SaveCheckpoint(&origin);
  if (supported_) {
    Checkpoint cp;
    cp.offset = 0;
    cp.match_index = 0;
    cp.segment_peak_depth = 0;
    cp.state = std::move(origin);
    cps_.Append(std::move(cp));
  }

  const int64_t n = static_cast<int64_t>(document.size());
  int64_t pos = 0;
  while (pos < n && !selector_.failed()) {
    const int64_t target = std::min(n, NextGrid(pos));
    if (!selector_.Feed(document.substr(static_cast<size_t>(pos),
                                        static_cast<size_t>(target - pos)))) {
      break;
    }
    pos = target;
    if (supported_ && pos < n) {
      Checkpoint cp;
      if (MakeCheckpointAt(pos, 0, &cp)) cps_.Append(std::move(cp));
    }
  }
  if (!selector_.failed()) selector_.Finish();

  results_ = CaptureLiveResults(std::move(scratch_events_));
  scratch_events_.clear();
  doc_size_ = n;
  scanned_ = true;
}

bool IncrementalSession::Scan(std::string_view document) {
  DoFullScan(document);
  return !results_.failed;
}

IncrementalSession::EditOutcome IncrementalSession::ApplyEdit(
    int64_t offset, int64_t old_len, std::string_view new_bytes,
    std::string_view document) {
  SST_CHECK_MSG(scanned_, "ApplyEdit requires a prior Scan");
  SST_CHECK(offset >= 0 && old_len >= 0 && offset + old_len <= doc_size_);
  const int64_t delta = static_cast<int64_t>(new_bytes.size()) - old_len;
  SST_CHECK_MSG(static_cast<int64_t>(document.size()) == doc_size_ + delta,
                "post-edit document size does not match the edit");
  SST_CHECK_MSG(
      document.substr(static_cast<size_t>(offset), new_bytes.size()) ==
          new_bytes,
      "post-edit document does not contain new_bytes at the edit offset");

  EditOutcome out;
  const int64_t ri = cps_.FindResume(offset);
  if (!supported_ || ri < 0 ||
      !selector_.RestoreCheckpoint(cps_.at(static_cast<size_t>(ri)).state)) {
    out.path = EditPath::kFullRescan;
    out.checkpoints_dropped = static_cast<int64_t>(cps_.size());
    DoFullScan(document);
    out.bytes_rescanned = results_.stats.bytes_fed;
    return out;
  }

  const int64_t n_new = static_cast<int64_t>(document.size());
  const int64_t resume_off = cps_.at(static_cast<size_t>(ri)).offset;
  const int64_t resume_match = cps_.at(static_cast<size_t>(ri)).match_index;
  SST_CHECK(resume_match <= static_cast<int64_t>(results_.events.size()));
  scratch_events_.clear();
  out.resumed_from = resume_off;

  // Convergence candidates: recorded checkpoints strictly past both the
  // edited region and the resume point. A candidate can only match at
  // exactly its shifted offset, so failed candidates are skipped for good
  // (they land in the dropped range when a later one converges).
  const bool splice_ok = options_.limits.unlimited();
  size_t cand = std::max(cps_.FirstAtOrAfter(offset + old_len),
                         static_cast<size_t>(ri) + 1);
  const int64_t grid = options_.checkpoint_interval;
  std::vector<Checkpoint> rescan_cps;
  bool converged = false;
  int64_t scan_pos = resume_off;

  while (true) {
    if (splice_ok && !selector_.failed() && cand < cps_.size() &&
        cps_.at(cand).offset + delta == scan_pos) {
      // A failed old run whose first error predates this candidate lost
      // the fatal error's record (only the first error is stored), so the
      // spliced first-error could not be composed — skip the candidate.
      const bool error_composable =
          !results_.failed || cps_.at(cand).state.stream_error.ok();
      if (error_composable &&
          selector_.CheckpointConverged(cps_.at(cand).state, delta)) {
        converged = true;
        break;
      }
      ++cand;
    }
    if (scan_pos >= n_new || selector_.failed()) break;
    if (scan_pos > resume_off && scan_pos % grid == 0) {
      Checkpoint cp;
      if (MakeCheckpointAt(scan_pos, resume_match, &cp)) {
        rescan_cps.push_back(std::move(cp));
      }
    }
    int64_t target = std::min(n_new, NextGrid(scan_pos));
    if (splice_ok && cand < cps_.size()) {
      target = std::min(target, cps_.at(cand).offset + delta);
    }
    if (!selector_.Feed(document.substr(static_cast<size_t>(scan_pos),
                                        static_cast<size_t>(target -
                                                            scan_pos)))) {
      break;
    }
    scan_pos = target;
  }

  if (!converged) {
    // No configuration match: the rescan simply runs to EOF. Counters are
    // exact without splicing — the restore seeded them with exact prefix
    // values — which is also why finite limits are safe on this path.
    if (!selector_.failed()) selector_.Finish();
    out.path = EditPath::kScannedToEnd;
    out.checkpoints_dropped =
        static_cast<int64_t>(cps_.size()) - (ri + 1);
    std::vector<Checkpoint> ncps;
    ncps.reserve(static_cast<size_t>(ri) + 1 + rescan_cps.size());
    for (size_t k = 0; k <= static_cast<size_t>(ri); ++k) {
      ncps.push_back(cps_.at(k));
    }
    for (Checkpoint& rc : rescan_cps) ncps.push_back(std::move(rc));
    cps_.ReplaceAll(std::move(ncps));

    std::vector<MatchEvent> ev;
    ev.reserve(static_cast<size_t>(resume_match) + scratch_events_.size());
    ev.insert(ev.end(), results_.events.begin(),
              results_.events.begin() + resume_match);
    ev.insert(ev.end(), scratch_events_.begin(), scratch_events_.end());
    results_ = CaptureLiveResults(std::move(ev));
    scratch_events_.clear();
    out.bytes_rescanned = results_.stats.bytes_fed - resume_off;
    doc_size_ = n_new;
    return out;
  }

  // --- Converged: splice the suffix ------------------------------------
  const size_t j = cand;
  const size_t old_cp_count = cps_.size();
  const StreamStats live = selector_.stats();
  const int64_t live_conv_peak = selector_.TakeSegmentPeakDepth();
  const std::vector<StreamingSelector::RecoveredError> live_rec =
      selector_.recovered_errors();
  const StreamError live_err = selector_.stream_error();
  const Checkpoint& cj = cps_.at(j);
  const int64_t conv_match =
      resume_match + static_cast<int64_t>(scratch_events_.size());
  SST_CHECK(cj.match_index <= static_cast<int64_t>(results_.events.size()));

  // Suffix deltas: live value at convergence minus cj's recorded value.
  // Adding a delta turns any old prefix aggregate at or past cj into its
  // exact post-edit value.
  const int64_t d_match = conv_match - cj.match_index;
  const int64_t d_events = live.events - cj.state.events;
  const int64_t d_nodes = selector_.nodes() - cj.state.nodes;
  const int64_t d_matches = live.matches - cj.state.matches;
  const int64_t d_rec = live.errors_recovered - cj.state.errors_recovered;
  const int64_t d_skip = live.subtrees_skipped - cj.state.subtrees_skipped;
  const int64_t d_under =
      live.underflow_closes - cj.state.machine_underflows;
  const size_t cj_rec = cj.state.recovered.size();

  Results r;
  r.events.reserve(static_cast<size_t>(conv_match) + results_.events.size() -
                   static_cast<size_t>(cj.match_index));
  r.events.insert(r.events.end(), results_.events.begin(),
                  results_.events.begin() + resume_match);
  r.events.insert(r.events.end(), scratch_events_.begin(),
                  scratch_events_.end());
  for (size_t k = static_cast<size_t>(cj.match_index);
       k < results_.events.size(); ++k) {
    MatchEvent e = results_.events[k];
    e.start_offset += delta;
    e.certainty_offset += delta;  // end_offset stays -1 (verdict-only log)
    r.events.push_back(e);
  }

  r.recovered = live_rec;
  for (size_t k = cj_rec; k < results_.recovered.size(); ++k) {
    r.recovered.push_back(RebaseRecovered(results_.recovered[k], delta));
  }
  // Convergence inside a skip region: the open skip's RecoveredError gets
  // its resume_offset/closed_label filled in-place when the skip resolves
  // — in the suffix, which a spliced edit never re-runs. The old run's
  // final record of the same entry (old index cj_rec - 1; an open skip at
  // cj implies cj recorded it) carries the resolution, in old coordinates.
  if (cj.state.in_skip && !live_rec.empty() &&
      r.recovered[live_rec.size() - 1].resume_offset < 0 &&
      cj_rec >= 1 && results_.recovered.size() >= cj_rec &&
      results_.recovered[cj_rec - 1].resume_offset >= 0) {
    StreamingSelector::RecoveredError& open =
        r.recovered[live_rec.size() - 1];
    open.resume_offset = results_.recovered[cj_rec - 1].resume_offset + delta;
    open.closed_label = results_.recovered[cj_rec - 1].closed_label;
  }

  // First error of the edited document: anything live saw comes first
  // (the live region precedes the suffix); otherwise the first old error
  // past cj — the old run's first error when cj was still clean (any
  // earlier one would have been at or before cj), else the first suffix
  // recovered entry. A fatal-after-recoveries suffix was excluded at
  // candidate selection.
  StreamError first;
  if (!live_err.ok()) {
    first = live_err;
  } else if (cj.state.stream_error.ok()) {
    if (!results_.error.ok()) first = RebaseError(results_.error, delta);
  } else if (r.recovered.size() > live_rec.size()) {
    first = r.recovered[live_rec.size()].error;
  }
  r.error = first;

  int64_t peak = cps_.PrefixPeak(static_cast<size_t>(ri));
  for (const Checkpoint& rc : rescan_cps) {
    peak = std::max(peak, rc.segment_peak_depth);
  }
  peak = std::max(peak, live_conv_peak);
  peak = std::max(peak, cps_.SuffixPeak(j + 1, results_.tail_peak));

  StreamStats st;
  st.bytes_fed = results_.stats.bytes_fed + delta;
  st.chunks_fed = live.chunks_fed;
  st.events = results_.stats.events + d_events;
  st.max_depth = peak;
  st.matches = results_.stats.matches + d_matches;
  st.errors_recovered = results_.stats.errors_recovered + d_rec;
  st.subtrees_skipped = results_.stats.subtrees_skipped + d_skip;
  st.error_offset = first.ok() ? -1 : first.offset;
  st.matches_emitted = st.matches;
  st.pending_matches_peak = 0;
  st.max_stack_depth = stack_tier_ ? peak : 0;
  st.underflow_closes = results_.stats.underflow_closes + d_under;
  r.stats = st;

  // The suffix never re-ran, so its terminal verdicts carry over: equal
  // configurations at cj plus identical suffix bytes give the same run.
  r.failed = results_.failed;
  r.complete = results_.complete;
  r.accepting = results_.accepting;
  r.tail_peak = results_.tail_peak;

  // Rebuild the checkpoint stream: untouched prefix, rescan checkpoints,
  // then the surviving suffix rebased into post-edit coordinates. Machine
  // configs are reused as-is (they hold no byte offsets — the stack tier's
  // is a retained slot handle, the flat tiers' are state/depth/registers).
  std::vector<Checkpoint> ncps;
  ncps.reserve(static_cast<size_t>(ri) + 1 + rescan_cps.size() +
               (cps_.size() - j));
  for (size_t k = 0; k <= static_cast<size_t>(ri); ++k) {
    ncps.push_back(cps_.at(k));
  }
  for (Checkpoint& rc : rescan_cps) ncps.push_back(std::move(rc));
  for (size_t k = j; k < cps_.size(); ++k) {
    Checkpoint cp = cps_.at(k);
    cp.offset += delta;
    cp.match_index += d_match;
    if (k == j) cp.segment_peak_depth = live_conv_peak;
    SelectorCheckpoint& s = cp.state;
    s.bytes_fed += delta;
    s.events += d_events;
    s.nodes += d_nodes;
    s.matches += d_matches;
    s.errors_recovered += d_rec;
    s.subtrees_skipped += d_skip;
    s.machine_underflows += d_under;
    // Lexer offsets are only meaningful while the partial token is live.
    if (s.have_pending && s.pending_offset >= 0) s.pending_offset += delta;
    if (s.in_tag && s.tag_start >= 0) s.tag_start += delta;
    // Error history seen from this checkpoint: everything live recorded,
    // then this checkpoint's old entries past cj, rebased.
    std::vector<StreamingSelector::RecoveredError> nr(live_rec.begin(),
                                                      live_rec.end());
    for (size_t m = cj_rec; m < s.recovered.size(); ++m) {
      nr.push_back(RebaseRecovered(s.recovered[m], delta));
    }
    // Mid-skip convergence: graft the open skip's resolution from this
    // checkpoint's own as-of-then record (see the r.recovered splice
    // above) — a checkpoint past the resync point has it filled in, one
    // before it correctly leaves the entry open.
    if (cj.state.in_skip && !live_rec.empty() &&
        nr[live_rec.size() - 1].resume_offset < 0 && cj_rec >= 1 &&
        s.recovered.size() >= cj_rec &&
        s.recovered[cj_rec - 1].resume_offset >= 0) {
      nr[live_rec.size() - 1].resume_offset =
          s.recovered[cj_rec - 1].resume_offset + delta;
      nr[live_rec.size() - 1].closed_label =
          s.recovered[cj_rec - 1].closed_label;
    }
    if (!live_err.ok()) {
      s.stream_error = live_err;
    } else if (nr.size() > live_rec.size()) {
      s.stream_error = nr[live_rec.size()].error;
    } else {
      s.stream_error = StreamError{};
    }
    s.error_offset = s.stream_error.ok() ? -1 : s.stream_error.offset;
    s.recovered = std::move(nr);
    ncps.push_back(std::move(cp));
  }
  cps_.ReplaceAll(std::move(ncps));

  out.path = EditPath::kSplicedSuffix;
  out.converged_at = scan_pos;
  out.bytes_rescanned = scan_pos - resume_off;
  out.checkpoints_reused = static_cast<int64_t>(old_cp_count - j);
  out.checkpoints_dropped = static_cast<int64_t>(j) - ri - 1;
  results_ = std::move(r);
  scratch_events_.clear();
  doc_size_ = n_new;
  return out;
}

}  // namespace sst
