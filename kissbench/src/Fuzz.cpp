//===- Fuzz.cpp - The fuzz workload: a seeded differential campaign -------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A seeded campaign through fuzz::runCampaign on one worker, one case
/// per call so each case is timed. Two of every three cases are the
/// Theorem-1 oracle (KISS seq against the conc ground truth) on the
/// 3-thread, 6-statement grammar at MAX=2; the third is the boolean-
/// fragment engine-diff leg (seq against bebop). Only the state budget
/// bounds a case, so verdicts depend on the seed alone. A unit is a case.
///
/// Case costs are heavy-tailed: the cases that reach the state budget take
/// most of the time. A 5 000-state budget keeps that tail short enough
/// that the seed moves cases/s by a few percent rather than ±20 %.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "cfg/CFG.h"
#include "conc/ConcChecker.h"
#include "fuzz/Fuzzer.h"

using namespace kiss;
using namespace kiss::fuzz;
using namespace kissbench;

namespace {

/// Cases of one timed batch, and of one traced pass.
constexpr uint64_t BatchCases = 100;
/// Set-ups in one set-up sample, and batches between two samples.
constexpr int SetUpReps = 20;
constexpr size_t SetUpEvery = 10;

/// The campaign options of case \p Index of the stream for \p Seed.
FuzzOptions caseOptions(uint64_t Seed, uint64_t Index) {
  FuzzOptions F;
  F.Seed = Seed * 1'000'000 + Index;
  F.Cases = 1;
  F.Common.Jobs = 1;
  F.Grammar.Threads = 3;
  F.Grammar.Stmts = 6;
  F.Oracle.MaxTs = 2;
  F.Oracle.MaxSwitches = 2;
  F.Oracle.MaxStates = 5000;
  if (Index % 3 == 2) {
    F.Grammar.BoolFragment = true;
    F.Oracle.EngineDiff = true;
  }
  return F;
}

/// Runs one case; \returns its verdict.
OracleVerdict runCase(const FuzzOptions &F, Ledger &L) {
  FuzzSummary S = runCampaign(F);
  L.check(S.CasesRun == 1 && S.violations() == 0,
          "fuzz seed " + std::to_string(F.Seed) + ": " +
              (S.Findings.empty() ? std::string("case did not run")
                                  : S.Findings.front().Detail));
  for (int V = 0; V != 7; ++V)
    if (S.Counts[V])
      return static_cast<OracleVerdict>(V);
  return OracleVerdict::Discard;
}

//===--- The oracle, layer by layer ---------------------------------------===//
//
// Mirrors fuzz::runOracle with ExecDiff and InjectBreakAsserts off, so the
// traced case reaches the campaign's verdict.

/// Static fork shape: async count, and whether one sits under a loop or
/// outside the entry function (thread count statically unknown).
struct AsyncShape {
  unsigned Count = 0;
  bool Unbounded = false;
};

void scanStmt(const lang::Stmt *S, bool InLoop, bool InEntry, AsyncShape &A) {
  if (!S)
    return;
  using lang::StmtKind;
  switch (S->getKind()) {
  case StmtKind::Async:
    ++A.Count;
    A.Unbounded |= InLoop || !InEntry;
    return;
  case StmtKind::Block:
    for (const auto &C : cast<lang::BlockStmt>(S)->getStmts())
      scanStmt(C.get(), InLoop, InEntry, A);
    return;
  case StmtKind::If:
    scanStmt(cast<lang::IfStmt>(S)->getThen(), InLoop, InEntry, A);
    scanStmt(cast<lang::IfStmt>(S)->getElse(), InLoop, InEntry, A);
    return;
  case StmtKind::While:
    scanStmt(cast<lang::WhileStmt>(S)->getBody(), true, InEntry, A);
    return;
  case StmtKind::Iter:
    scanStmt(cast<lang::IterStmt>(S)->getBody(), true, InEntry, A);
    return;
  case StmtKind::Choice:
    for (const auto &B : cast<lang::ChoiceStmt>(S)->getBranches())
      scanStmt(B.get(), InLoop, InEntry, A);
    return;
  case StmtKind::Atomic:
    scanStmt(cast<lang::AtomicStmt>(S)->getBody(), InLoop, InEntry, A);
    return;
  default:
    return;
  }
}

rt::CheckResult tracedConc(Tracer &T, LayerCounts &C, const lang::Program &P,
                           const cfg::ProgramCFG &CFG,
                           const conc::ConcOptions &CO) {
  rt::CheckResult R;
  {
    Tracer::Scope S(T, "conc");
    R = conc::checkProgram(P, CFG, CO);
  }
  C.ConcStates += R.StatesExplored;
  if (R.Outcome == rt::CheckOutcome::BoundExceeded)
    ++C.ConcBoundTrips;
  return R;
}

/// Replays a KISS error under the ground truth bounded to \p Switches.
OracleVerdict replay(Tracer &T, LayerCounts &C, const lang::Program &P,
                     const cfg::ProgramCFG &CFG, conc::ConcOptions CO,
                     uint32_t Switches, OracleVerdict IfMissing) {
  CO.ContextSwitchBound = static_cast<int32_t>(Switches);
  rt::CheckResult Bounded = tracedConc(T, C, P, CFG, CO);
  if (Bounded.Outcome == rt::CheckOutcome::BoundExceeded)
    return OracleVerdict::Inconclusive;
  return Bounded.foundError() ? OracleVerdict::Agree : IfMissing;
}

OracleVerdict tracedOracle(Tracer &T, LayerCounts &C, const std::string &Src,
                           const OracleOptions &Opts) {
  Tracer::Scope Oracle(T, "fuzz.oracle");
  CheckConfig Cfg;
  Cfg.MaxTs = Opts.MaxTs;
  Cfg.MaxSwitches = Opts.MaxSwitches;
  Cfg.MaxStates = Opts.MaxStates;
  Cfg.Common.Budget = Opts.Budget;
  Session S(Cfg);
  auto P = tracedCompile(T, S, "fuzz.kiss", Src);
  if (!P)
    return OracleVerdict::Discard;

  AsyncShape Shape;
  for (const auto &F : P->getFunctions())
    scanStmt(F->getBody(), false, F->getName() == P->getEntryName(), Shape);
  bool TwoThread = Shape.Count == 1 && !Shape.Unbounded;

  std::optional<cfg::ProgramCFG> CFG;
  {
    Tracer::Scope S(T, "cfg");
    CFG.emplace(cfg::ProgramCFG::build(*P));
  }
  conc::ConcOptions CO;
  CO.MaxStates = Opts.MaxStates;
  CO.Budget = Opts.Budget;
  rt::CheckResult Truth = tracedConc(T, C, *P, *CFG, CO);

  TracedResult K = tracedCheck(T, C, S, *P);
  if (K.Rejected || S.hasErrors())
    return OracleVerdict::Discard;

  if (Opts.EngineDiff) {
    S.config().Engine = rt::Engine::Bebop;
    TracedResult KB = tracedCheck(T, C, S, *P);
    if (KB.Rejected || S.hasErrors())
      return OracleVerdict::Discard;
    if (K.Verdict == core::KissVerdict::BoundExceeded ||
        KB.Verdict == core::KissVerdict::BoundExceeded)
      return OracleVerdict::Inconclusive;
    if (KB.Verdict != K.Verdict)
      return OracleVerdict::ExecDivergence;
    if (KB.foundError()) {
      OracleVerdict V = replay(T, C, *P, *CFG, CO,
                               countContextSwitches(KB.Trace),
                               OracleVerdict::ExecDivergence);
      if (V != OracleVerdict::Agree)
        return V;
    }
  }

  if (K.foundError()) {
    if (Truth.Outcome == rt::CheckOutcome::BoundExceeded)
      return OracleVerdict::Inconclusive;
    if (!Truth.foundError())
      return OracleVerdict::SoundnessBug;
    return replay(T, C, *P, *CFG, CO, countContextSwitches(K.Trace),
                  OracleVerdict::TraceBug);
  }
  if (K.Verdict == core::KissVerdict::BoundExceeded ||
      Truth.Outcome == rt::CheckOutcome::BoundExceeded)
    return OracleVerdict::Inconclusive;
  if (Opts.CheckCompleteness && Shape.Count == 0 && Truth.foundError())
    return OracleVerdict::CompletenessBug;
  if (Opts.CheckCompleteness && TwoThread && Opts.MaxTs >= 2) {
    uint32_t EffBound = 2;
    if (Opts.MaxSwitches > 2 && K.Stats.IneligibleCandidates == 0 &&
        K.Stats.IndirectAsyncSites == 0)
      EffBound = 2 * ((Opts.MaxSwitches - 1) / 2) + 2;
    conc::ConcOptions Bounded = CO;
    Bounded.ContextSwitchBound = static_cast<int32_t>(EffBound);
    rt::CheckResult Within = tracedConc(T, C, *P, *CFG, Bounded);
    if (Within.Outcome == rt::CheckOutcome::BoundExceeded)
      return OracleVerdict::Inconclusive;
    if (Within.foundError())
      return OracleVerdict::CompletenessBug;
  }
  return OracleVerdict::Agree;
}

} // namespace

int kissbench::runFuzz(const RunOptions &O, RunReport &R) {
  // Set-up: one warm-up case of each leg, from the seed-0 stream.
  auto SetUp = [&] {
    auto T0 = Clock::now();
    Ledger Warm;
    runCase(caseOptions(0, 0), Warm);
    runCase(caseOptions(0, 2), Warm);
    R.L.expect(Warm.failed() == 0, "fuzz: warm-up case failed");
    return secondsSince(T0);
  };
  std::vector<double> SetUps;
  timeSetUp(SetUp, 3, SetUpReps, SetUps);

  auto Start = Clock::now();
  if (!O.Trace) {
    // Case costs are heavy-tailed, so rates are taken per batch of cases
    // and reported as the median batch.
    std::vector<double> Rates, CpuMs, Latency;
    uint64_t Cases = 0;
    do {
      if (!Rates.empty() && Rates.size() % SetUpEvery == 0)
        timeSetUp(SetUp, 1, SetUpReps, SetUps);
      ProcUsage U0 = selfUsage();
      auto T0 = Clock::now();
      for (uint64_t I = 0; I != BatchCases; ++I) {
        auto T1 = Clock::now();
        runCase(caseOptions(O.Seed, Cases++), R.L);
        Latency.push_back(secondsSince(T1) * 1000);
      }
      double Wall = secondsSince(T0);
      ProcUsage D = usageDelta(U0, selfUsage());
      Rates.push_back(BatchCases / Wall);
      CpuMs.push_back((D.UserS + D.SysS) * 1000 / BatchCases);
    } while (secondsSince(Start) < O.Seconds);
    R.SetupS = median(SetUps);
    R.ChecksPerS = median(Rates);
    R.CpuMsPerCheck = median(CpuMs);
    R.PeakRssMb = selfUsage().PeakRssMb;
    R.MissP50Ms = median(Latency);
    R.P99Ms = percentile(Latency, 0.99);
    return 0;
  }

  do {
    std::vector<OracleVerdict> Untraced, Traced;
    ProcUsage D;
    double UntracedMs = 0, TracedMs = 0;
    LayerCounts C;
    R.repeat(
        [&] {
          ProcUsage U0 = selfUsage();
          auto T0 = Clock::now();
          for (uint64_t I = 0; I != BatchCases; ++I)
            Untraced.push_back(runCase(caseOptions(O.Seed, I), R.L));
          UntracedMs = secondsSince(T0) * 1000;
          D = usageDelta(U0, selfUsage());
        },
        [&] {
          R.T.startPass();
          auto T0 = Clock::now();
          for (uint64_t I = 0; I != BatchCases; ++I) {
            Tracer::Scope Unit(R.T, "unit");
            FuzzOptions F = caseOptions(O.Seed, I);
            std::string Source;
            {
              Tracer::Scope S(R.T, "fuzz.gen");
              Source = generateProgram(F.Seed, varyOptions(F.Seed, F.Grammar));
            }
            OracleVerdict V = tracedOracle(R.T, C, Source, F.Oracle);
            ++C.Units;
            C.FuzzDiscards += V == OracleVerdict::Discard;
            C.FuzzInconclusive += V == OracleVerdict::Inconclusive;
            Traced.push_back(V);
          }
          TracedMs = secondsSince(T0) * 1000;
        });
    R.L.expect(Traced == Untraced,
               "fuzz: traced oracle verdicts differ from the campaign's");
    R.recordTracedPass(C, UntracedMs, TracedMs, D);
  } while (secondsSince(Start) < O.Seconds);
  return 0;
}
