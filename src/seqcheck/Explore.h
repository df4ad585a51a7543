//===- Explore.h - The breadth-first exploration driver ---------*- C++ -*-===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one breadth-first search behind every explicit-state engine. The
/// sequential interpreter, the threaded-code engine and the concurrent
/// checker differ only in how they expand one state — the paper's point
/// that a concurrent program is checked by the same sequential search with
/// a different step relation — so the loop, the visited set, the budgets,
/// the telemetry and counterexample reconstruction live here once.
///
/// The StateStore is the queue. Ids are dense and assigned in first-seen
/// order, so expanding them in id order behind a pop cursor is FIFO order,
/// and the frontier is Store.size() - Cursor. A popped state is read back
/// from its canonical key; nothing else is queued. Per state the driver
/// keeps one Link (BFS parent and the step that reached it), and BFS
/// layers are contiguous id ranges, so depth needs no per-state storage.
///
/// An engine supplies `bool Expand(StateStore::KeyRef Key)`: decode the
/// popped key, intern each successor key through emit(), and close each
/// executed step with finishStep(), returning true when that ends the run.
///
//===----------------------------------------------------------------------===//

#ifndef KISS_SEQCHECK_EXPLORE_H
#define KISS_SEQCHECK_EXPLORE_H

#include "seqcheck/CommonOptions.h"
#include "seqcheck/Profile.h"
#include "seqcheck/StateStore.h"
#include "seqcheck/Step.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <new>

namespace kiss::rt {

using seqcheck::StateStore;

/// One breadth-first exploration of one program: construct, then run()
/// once.
class Explorer {
public:
  Explorer(const lang::Program &P, const cfg::ProgramCFG &CFG,
           const ExploreOptions &Opts)
      : P(P), CFG(CFG), Opts(Opts), Store(Opts.Store) {
    if (Opts.Profile)
      Prof.enable(CFG);
  }

  /// Explores from the initial state of the program, whose canonical key
  /// is extended by \p RootSuffix (engine bookkeeping kept in the key),
  /// expanding every popped state with \p Expand. StatesExplored is the
  /// number of distinct states discovered (= Store.size()) on every exit
  /// path. An allocation failure ends the run as a memory bound.
  template <typename ExpandFn>
  CheckResult run(ExpandFn &&Expand, std::string_view RootSuffix = {}) {
    const lang::FuncDecl *Entry = P.getEntryFunction();
    if (!Entry || Entry->getNumParams() != 0) {
      R.Outcome = CheckOutcome::RuntimeError;
      R.Message = "program has no parameterless entry function";
      return std::move(R);
    }
    try {
      std::string Key;
      encodeStateInto(
          makeInitialState(P, CFG, P.getFunctionIndex(P.getEntryName())),
          Key);
      Key.append(RootSuffix);
      Store.intern(Key);
      Links.push_back(Link{});
      gov::Governor Gov(Opts.Budget);
      for (; Cursor < Store.size(); ++Cursor) {
        if (Store.size() > Opts.MaxStates)
          return bound(gov::BoundReason::States,
                       "state budget of " + std::to_string(Opts.MaxStates) +
                           " states exceeded");
        if (Gov.shouldStop(heldBytes()))
          return bound(Gov.reason(), Gov.message());
        if (Opts.Progress)
          Opts.Progress->tick(Store.size(), Store.size() - Cursor,
                              heldBytes());
        if (Opts.SampleEvery && Store.size() >= NextSample)
          takeSample();
        if (Cursor == LayerEnd) {
          ++DepthMax; // BFS pops layers in order: a new, deeper one starts.
          LayerEnd = Store.size();
        }
        MarkTransitions = R.TransitionsExplored;
        MarkStates = Store.size();
        const bool Stop = Expand(Store.key(Cursor));
        FrontierPeak = std::max<uint64_t>(FrontierPeak,
                                          Store.size() - (Cursor + 1));
        if (Stop) {
          ++Cursor; // The popped state is no longer queued.
          return finish();
        }
      }
      R.Outcome = CheckOutcome::Safe;
    } catch (const std::bad_alloc &) {
      return bound(gov::BoundReason::Memory,
                   "out of memory after " + std::to_string(Store.size()) +
                       " states");
    }
    return finish();
  }

  /// Interns \p Key as a successor of the state being expanded, reached by
  /// \p Step. The bytes are copied; \p Key may be a reused buffer.
  void emit(std::string_view Key, const TraceStep &Step) {
    ++R.TransitionsExplored;
    auto [Id, Inserted] = Store.internChild(Key, Cursor);
    if (!Inserted)
      return;
    assert(Id == Links.size() && "ids are dense in insertion order");
    (void)Id;
    Links.push_back(Link{Cursor, Step});
  }

  /// Closes one step of the popped state, executed as \p Step with
  /// outcome \p K. Ok and Blocked steps are attributed to the profile and
  /// the run goes on (\returns false); any other outcome ends the run with
  /// \p Msg and \p Loc, and an error outcome gets its counterexample
  /// (\returns true).
  bool finishStep(StepResult::Kind K, const TraceStep &Step,
                  std::string &&Msg, SourceLoc Loc) {
    switch (K) {
    case StepResult::Kind::Ok:
    case StepResult::Kind::Blocked:
      if (Prof.on()) {
        const uint64_t Trans = R.TransitionsExplored - MarkTransitions;
        const uint64_t NewStates = Store.size() - MarkStates;
        Prof.bump(Step.Func, Step.Node, Trans, Trans - NewStates);
        MarkTransitions = R.TransitionsExplored;
        MarkStates = Store.size();
      }
      return false;
    case StepResult::Kind::BoundExceeded:
      R.Outcome = CheckOutcome::BoundExceeded;
      R.Bound = gov::BoundReason::States; // Frame/thread analysis bound.
      break;
    case StepResult::Kind::AssertFailure:
    case StepResult::Kind::RuntimeError:
      R.Outcome = K == StepResult::Kind::AssertFailure
                      ? CheckOutcome::AssertionFailure
                      : CheckOutcome::RuntimeError;
      R.Trace = traceTo(Step);
      break;
    }
    R.Message = std::move(Msg);
    R.ErrorLoc = Loc;
    return true;
  }

private:
  /// Back-pointer for counterexample reconstruction, indexed by state id.
  struct Link {
    uint32_t Parent = StateStore::InvalidId; ///< InvalidId for the root.
    TraceStep Step;
  };

  /// Everything the exploration holds, by capacity: the store plus the
  /// parent links. What a memory budget counts.
  uint64_t heldBytes() const {
    return Store.heldBytes() + Links.capacity() * sizeof(Link);
  }

  /// The path from the root to the popped state, then \p Last.
  std::vector<TraceStep> traceTo(const TraceStep &Last) const {
    std::vector<TraceStep> Trace{Last};
    for (uint32_t Id = Cursor; Links[Id].Parent != StateStore::InvalidId;
         Id = Links[Id].Parent)
      Trace.push_back(Links[Id].Step);
    std::reverse(Trace.begin(), Trace.end());
    return Trace;
  }

  CheckResult bound(gov::BoundReason Reason, std::string Msg) {
    R.Outcome = CheckOutcome::BoundExceeded;
    R.Bound = Reason;
    R.Message = std::move(Msg);
    return finish();
  }

  /// Deterministic time-series: sampled at the top of the pop loop every
  /// time the visited-state count crosses a multiple of SampleEvery, so it
  /// is keyed by state count and identical across engines; only WallMs
  /// is timing-dependent.
  void takeSample() {
    const StateStore::IndexStats &IS = Store.indexStats();
    ExplorationSample S;
    S.States = Store.size();
    S.Transitions = R.TransitionsExplored;
    S.DedupHits = IS.Hits;
    S.Frontier = Store.size() - Cursor;
    S.ArenaBytes = Store.arenaBytes();
    S.IndexBytes = Store.indexBytes();
    S.DepthMax = DepthMax;
    S.WallMs = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - StartTime)
                   .count();
    R.Series.push_back(S);
    NextSample = (Store.size() / Opts.SampleEvery + 1) * Opts.SampleEvery;
  }

  CheckResult finish() {
    R.StatesExplored = Store.size();
    const StateStore::IndexStats &IS = Store.indexStats();
    R.Exploration.DedupHits = IS.Hits;
    R.Exploration.HashProbes = IS.Probes;
    R.Exploration.KeyVerifies = IS.Verifies;
    R.Exploration.HashCollisions = IS.Collisions;
    R.Exploration.ArenaBytes = Store.arenaBytes();
    R.Exploration.IndexBytes = Store.indexBytes();
    R.Exploration.FrontierPeak = FrontierPeak;
    R.Exploration.DepthMax = DepthMax;
    if (Prof.on())
      R.Profile = Prof.take();
    if (Opts.Progress)
      Opts.Progress->finish(Store.size(), Store.size() - Cursor,
                            heldBytes());
    return std::move(R);
  }

  const lang::Program &P;
  const cfg::ProgramCFG &CFG;
  const ExploreOptions &Opts;

  StateStore Store;
  std::vector<Link> Links;
  uint32_t Cursor = 0;   ///< Id of the state being expanded.
  uint32_t LayerEnd = 1; ///< First id of the BFS layer after the current.
  uint64_t FrontierPeak = 1;
  uint64_t DepthMax = 0;
  /// Counters at the start of the current step, for profile attribution.
  uint64_t MarkTransitions = 0, MarkStates = 0;
  ProfileCollector Prof;
  const std::chrono::steady_clock::time_point StartTime =
      std::chrono::steady_clock::now();
  uint64_t NextSample = Opts.SampleEvery;
  CheckResult R;
};

} // namespace kiss::rt

#endif // KISS_SEQCHECK_EXPLORE_H
