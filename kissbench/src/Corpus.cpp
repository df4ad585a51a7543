//===- Corpus.cpp - The corpus workload: Tables 1 and 2 -------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One pass is the paper's §6 evaluation: Table 1 (every field of the 18
/// drivers, unconstrained harness, MAX=0, 25 000-state field bound), then
/// Table 2 (the refined harness on Table 1's racy fields), through
/// drivers::runDriver on 2 worker threads. A unit is one field check. The
/// inputs are fixed; the seed is unused.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "drivers/CorpusRunner.h"

using namespace kiss;
using namespace kiss::drivers;
using namespace kissbench;

namespace {

constexpr unsigned Jobs = 2;
constexpr uint64_t FieldBudget = 25000;
/// Set-ups in one set-up sample.
constexpr int SetUpReps = 20;

/// The verdict a field's behaviour implies under harness \p V.
core::KissVerdict expected(FieldBehavior B, HarnessVersion V) {
  switch (B) {
  case FieldBehavior::RealRace:
    return core::KissVerdict::RaceDetected;
  case FieldBehavior::SpuriousRace:
    return V == HarnessVersion::V1Unconstrained
               ? core::KissVerdict::RaceDetected
               : core::KissVerdict::NoErrorFound;
  case FieldBehavior::Protected:
  case FieldBehavior::LockField:
    return core::KissVerdict::NoErrorFound;
  case FieldBehavior::Heavy:
    return core::KissVerdict::BoundExceeded;
  }
  return core::KissVerdict::BoundExceeded;
}

/// Checks one field's outcome against its known answer. A bound must be
/// the structural state bound.
void checkField(Ledger &L, const DriverSpec &D, unsigned Field,
                HarnessVersion V, core::KissVerdict Got,
                gov::BoundReason Bound) {
  core::KissVerdict Want = expected(D.Fields[Field].Behavior, V);
  bool Ok = Got == Want && (Want != core::KissVerdict::BoundExceeded ||
                            Bound == gov::BoundReason::States);
  L.check(Ok, "corpus " + D.Name + "." + D.Fields[Field].Name + " (" +
                  (V == HarnessVersion::V1Unconstrained ? "table 1"
                                                        : "table 2") +
                  "): got '" + core::getVerdictName(Got) + "', want '" +
                  core::getVerdictName(Want) + "'");
}

/// One untraced pass through runDriver.
struct Pass {
  std::vector<core::KissVerdict> Verdicts; ///< In check order.
  std::vector<double> LatencyMs;
  double BusyS = 0;       ///< Sum of per-field check times.
  double DriverWallS = 0; ///< Sum of runDriver wall times.
};

Pass runPass(const std::vector<DriverSpec> &Corpus, unsigned NumJobs,
             Ledger &L) {
  Pass P;
  auto Tally = [&](const DriverSpec &D, const DriverResult &R,
                   HarnessVersion V) {
    for (const FieldResult &F : R.Fields) {
      checkField(L, D, F.FieldIndex, V, F.Verdict, F.Bound);
      P.Verdicts.push_back(F.Verdict);
      P.LatencyMs.push_back(F.Seconds * 1000);
      P.BusyS += F.Seconds;
    }
    P.DriverWallS += R.Seconds;
  };
  for (const DriverSpec &D : Corpus) {
    CorpusRunOptions V1;
    V1.Harness = HarnessVersion::V1Unconstrained;
    V1.FieldStateBudget = FieldBudget;
    V1.Common.Jobs = NumJobs;
    DriverResult R1 = runDriver(D, V1);
    Tally(D, R1, V1.Harness);
    L.expect(R1.Races == D.RacesV1 && R1.NoRaces == D.NoRacesV1 &&
                 R1.BoundExceeded == D.numBoundExceeded(),
             "corpus: Table 1 row of " + D.Name + " differs from the paper");

    std::vector<unsigned> Racy = racyFieldIndices(R1);
    if (Racy.empty())
      continue; // Table 2 lists only drivers with Table-1 races.
    CorpusRunOptions V2 = V1;
    V2.Harness = HarnessVersion::V2Refined;
    V2.OnlyFields = Racy;
    DriverResult R2 = runDriver(D, V2);
    Tally(D, R2, V2.Harness);
    L.expect(R2.Races == D.RacesV2,
             "corpus: Table 2 row of " + D.Name + " differs from the paper");
  }
  return P;
}

/// The same pass on one thread, layer by layer under spans.
std::vector<core::KissVerdict> tracedPass(const std::vector<DriverSpec> &Corpus,
                                          RunReport &R, LayerCounts &C) {
  std::vector<core::KissVerdict> Verdicts;
  auto CheckOne = [&](const DriverSpec &D, unsigned Field, HarnessVersion V) {
    Tracer::Scope Unit(R.T, "unit");
    std::string Source;
    {
      Tracer::Scope S(R.T, "drivers.gen");
      Source = buildFieldProgram(D, Field, V);
    }
    CheckConfig Cfg;
    Cfg.M = CheckConfig::Mode::Race;
    Cfg.MaxTs = 0;
    Cfg.MaxStates = FieldBudget;
    Session S(Cfg);
    auto P = tracedCompile(R.T, S, D.Name + "." + D.Fields[Field].Name,
                           Source);
    std::string Spec =
        std::string(getDeviceExtensionName()) + "." + D.Fields[Field].Name;
    std::string Error;
    TracedResult TR;
    if (!P || !S.resolveRaceTarget(Spec, *P, S.config().Race, Error)) {
      TR.Verdict = core::KissVerdict::BoundExceeded;
      TR.Bound = gov::BoundReason::Fault;
    } else {
      TR = tracedCheck(R.T, C, S, *P);
    }
    ++C.Units;
    checkField(R.L, D, Field, V, TR.Verdict, TR.Bound);
    Verdicts.push_back(TR.Verdict);
    return TR.Verdict;
  };
  for (const DriverSpec &D : Corpus) {
    std::vector<unsigned> Racy;
    for (unsigned F = 0; F != D.Fields.size(); ++F)
      if (CheckOne(D, F, HarnessVersion::V1Unconstrained) ==
          core::KissVerdict::RaceDetected)
        Racy.push_back(F);
    for (unsigned F : Racy)
      CheckOne(D, F, HarnessVersion::V2Refined);
  }
  return Verdicts;
}

/// Set-up: the corpus description plus one warm-up check per harness.
std::vector<DriverSpec> setUp(Ledger &L) {
  std::vector<DriverSpec> Corpus = getTable1Corpus();
  for (HarnessVersion V :
       {HarnessVersion::V1Unconstrained, HarnessVersion::V2Refined}) {
    CorpusRunOptions W;
    W.Harness = V;
    W.FieldStateBudget = FieldBudget;
    W.Common.Jobs = Jobs;
    W.OnlyFields = {0};
    const DriverSpec &D = Corpus.front();
    DriverResult R = runDriver(D, W);
    L.expect(R.Fields.size() == 1 &&
                 R.Fields[0].Verdict == expected(D.Fields[0].Behavior, V),
             "corpus: warm-up check failed");
  }
  return Corpus;
}

} // namespace

int kissbench::runCorpus(const RunOptions &O, RunReport &R) {
  std::vector<DriverSpec> Corpus;
  auto SetUpInto = [&](std::vector<DriverSpec> &Into) {
    auto T0 = Clock::now();
    Into = setUp(R.L);
    return secondsSince(T0);
  };
  std::vector<double> SetUps;
  timeSetUp([&] { return SetUpInto(Corpus); }, 3, SetUpReps, SetUps);

  auto Start = Clock::now();
  if (!O.Trace) {
    std::vector<double> Rates, CpuMs, Latency;
    do {
      if (!Rates.empty()) {
        std::vector<DriverSpec> Spare;
        timeSetUp([&] { return SetUpInto(Spare); }, 1, SetUpReps, SetUps);
      }
      ProcUsage U0 = selfUsage();
      auto T0 = Clock::now();
      Pass P = runPass(Corpus, Jobs, R.L);
      double Wall = secondsSince(T0);
      ProcUsage D = usageDelta(U0, selfUsage());
      double Units = static_cast<double>(P.Verdicts.size());
      Rates.push_back(Units / Wall);
      CpuMs.push_back((D.UserS + D.SysS) * 1000 / Units);
      Latency.insert(Latency.end(), P.LatencyMs.begin(), P.LatencyMs.end());
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
    Pass P, Base;
    ProcUsage D;
    double BaseMs = 0, TracedMs = 0;
    LayerCounts C;
    std::vector<core::KissVerdict> V;
    R.repeat(
        [&] {
          // At the timed configuration: the process rows and the idle
          // share of the per-driver fan-out.
          ProcUsage U0 = selfUsage();
          P = runPass(Corpus, Jobs, R.L);
          D = usageDelta(U0, selfUsage());
          // The overhead baseline runs on one thread, as the traced
          // pass does.
          auto T0 = Clock::now();
          Base = runPass(Corpus, 1, R.L);
          BaseMs = secondsSince(T0) * 1000;
        },
        [&] {
          R.T.startPass();
          auto T0 = Clock::now();
          V = tracedPass(Corpus, R, C);
          TracedMs = secondsSince(T0) * 1000;
        });
    R.sample("drivers.idle_share", 1 - P.BusyS / (Jobs * P.DriverWallS));
    R.L.expect(V == P.Verdicts && V == Base.Verdicts,
               "corpus: traced verdicts differ from the untraced pass");
    R.recordTracedPass(C, BaseMs, TracedMs, D);
  } while (secondsSince(Start) < O.Seconds);
  return 0;
}
