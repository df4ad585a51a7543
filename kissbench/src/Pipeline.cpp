//===- Pipeline.cpp -------------------------------------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "Pipeline.h"

#include "alias/Steensgaard.h"
#include "bebop/BebopChecker.h"
#include "bebop/FromCore.h"
#include "cfg/CFG.h"
#include "kiss/TraceMap.h"
#include "kiss/Transform.h"
#include "lower/Pipeline.h"
#include "seqcheck/SeqChecker.h"

using namespace kiss;
using namespace kissbench;

std::unique_ptr<lang::Program>
kissbench::tracedCompile(Tracer &T, Session &S, const std::string &Name,
                         const std::string &Source) {
  std::unique_ptr<lang::Program> P;
  {
    Tracer::Scope Span(T, "lang");
    P = lower::parseAndCheck(S.context(), Name, Source);
  }
  if (!P)
    return nullptr;
  Tracer::Scope Span(T, "lower");
  if (!lower::lowerProgram(*P, S.context().Diags))
    return nullptr;
  return P;
}

/// Adds a finished seq exploration to the seqcheck counts.
static void countExploration(LayerCounts &C, const rt::CheckResult &R) {
  C.SeqStates += R.StatesExplored;
  C.SeqTransitions += R.TransitionsExplored;
  C.SeqDedupHits += R.Exploration.DedupHits;
  C.SeqArenaBytes += R.Exploration.ArenaBytes;
  C.SeqIndexBytes += R.Exploration.IndexBytes;
  C.SeqHashProbes += R.Exploration.HashProbes;
  if (R.Outcome == rt::CheckOutcome::BoundExceeded)
    ++C.SeqBoundTrips;
}

/// Runs the boolean-program engine as core's runBebop does, filling \p R
/// with the seq-shaped result. \returns false if conversion rejects.
static bool tracedBebop(Tracer &T, LayerCounts &C, Session &Sess,
                        const lang::Program &Transformed,
                        const cfg::ProgramCFG &CFG, rt::CheckResult &R) {
  std::optional<bebop::BoolProgram> BP;
  {
    Tracer::Scope Span(T, "bebop.convert");
    BP = bebop::convertFromCore(Transformed, Sess.context().Diags);
  }
  if (!BP)
    return false;
  bebop::BebopOptions BO;
  BO.MaxPathEdges = Sess.config().MaxStates;
  BO.Budget = Sess.config().Common.Budget;
  bebop::BebopResult BR;
  {
    Tracer::Scope Span(T, "bebop.check");
    BR = bebop::check(*BP, BO);
  }
  C.PathEdges += BR.PathEdges;
  C.SummaryEdges += BR.SummaryEdges;
  R.StatesExplored = BR.PathEdges;
  R.TransitionsExplored = BR.Propagations;
  switch (BR.Outcome) {
  case bebop::BebopOutcome::Safe:
    R.Outcome = rt::CheckOutcome::Safe;
    break;
  case bebop::BebopOutcome::BoundExceeded:
    R.Outcome = rt::CheckOutcome::BoundExceeded;
    R.Bound = BR.Bound;
    break;
  case bebop::BebopOutcome::AssertionFailure:
    R.Outcome = rt::CheckOutcome::AssertionFailure;
    // Synthetic conversion nodes past the CFG are dropped, as in core.
    for (const bebop::BebopTraceStep &TS : BR.Trace)
      if (TS.Node < CFG.getFunctionCFG(TS.Func).getNumNodes())
        R.Trace.push_back(rt::TraceStep{0, TS.Func, TS.Node});
    break;
  }
  return true;
}

TracedResult kissbench::tracedCheck(Tracer &T, LayerCounts &C, Session &S,
                                    const lang::Program &P) {
  const CheckConfig &Cfg = S.config();
  DiagnosticEngine &Diags = S.context().Diags;
  TracedResult Out;
  bool Race = Cfg.M == CheckConfig::Mode::Race;
  if (Race && Cfg.UseAliasAnalysis) {
    Tracer::Scope Span(T, "alias");
    alias::PointsTo::analyze(P);
  }

  core::TransformOptions TO;
  TO.MaxTs = Cfg.MaxTs;
  TO.MaxSwitches = Cfg.MaxSwitches;
  TO.UseAliasAnalysis = Cfg.UseAliasAnalysis;
  std::unique_ptr<lang::Program> Transformed;
  {
    Tracer::Scope Span(T, "kiss.transform");
    Transformed =
        Race ? core::transformForRace(P, Cfg.Race, TO, Diags, &Out.Stats)
             : core::transformForAssertions(P, TO, Diags, &Out.Stats);
  }
  C.ProbesEmitted += Out.Stats.ProbesEmitted;
  C.ProbesPruned += Out.Stats.ProbesPruned;
  C.InstrumentedStmts += Out.Stats.StatementsInstrumented;
  if (!Transformed) {
    Out.Verdict = core::KissVerdict::BoundExceeded;
    Out.Bound = gov::BoundReason::Fault;
    Out.Rejected = true;
    return Out;
  }

  std::optional<cfg::ProgramCFG> CFG;
  {
    Tracer::Scope Span(T, "cfg");
    CFG.emplace(cfg::ProgramCFG::build(*Transformed));
  }
  C.CfgNodes += CFG->getTotalNodes();

  rt::CheckResult R;
  if (Cfg.Engine == rt::Engine::Bebop) {
    if (!tracedBebop(T, C, S, *Transformed, *CFG, R)) {
      Out.Verdict = core::KissVerdict::BoundExceeded;
      Out.Bound = gov::BoundReason::Fault;
      Out.Rejected = true;
      return Out;
    }
  } else {
    seqcheck::SeqOptions SO;
    SO.MaxStates = Cfg.MaxStates;
    SO.Exec = Cfg.Exec;
    SO.Store = Cfg.Store;
    SO.SuperStep = Cfg.SuperStep;
    SO.Budget = Cfg.Common.Budget;
    {
      Tracer::Scope Span(T, "seqcheck");
      R = seqcheck::checkProgram(*Transformed, *CFG, SO);
    }
    countExploration(C, R);
  }

  Out.Bound = R.Bound;
  switch (R.Outcome) {
  case rt::CheckOutcome::Safe:
    Out.Verdict = core::KissVerdict::NoErrorFound;
    break;
  case rt::CheckOutcome::BoundExceeded:
    Out.Verdict = core::KissVerdict::BoundExceeded;
    break;
  case rt::CheckOutcome::RuntimeError:
    Out.Verdict = core::KissVerdict::RuntimeError;
    break;
  case rt::CheckOutcome::AssertionFailure: {
    // A failing probe assert is a race; any other is a program assertion.
    Out.Verdict = core::KissVerdict::AssertionViolation;
    if (!R.Trace.empty()) {
      const rt::TraceStep &Last = R.Trace.back();
      const cfg::Node &N = CFG->getFunctionCFG(Last.Func).getNode(Last.Node);
      if (N.S && N.S->getRole() == lang::InstrRole::Check)
        Out.Verdict = core::KissVerdict::RaceDetected;
    }
    break;
  }
  }
  if (R.foundError()) {
    Tracer::Scope Span(T, "kiss.tracemap");
    Out.Trace = core::mapTrace(R.Trace, *Transformed, *CFG);
  }
  return Out;
}
