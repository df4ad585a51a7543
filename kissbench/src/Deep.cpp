//===- Deep.cpp - The deep workload: a few long explorations --------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Five exhaustive or budget-bounded checks with known answers, run one at
/// a time on one thread through kiss::Session. Set-up compiles them; a
/// pass checks each once. The inputs are fixed; the seed is unused.
///
/// Size limit: the inputs keep the process under about 1 GB RSS. The
/// family k=6 m=6 at MAX=3 K=4 aborts the process with an uncaught
/// std::bad_alloc from Session::check, so it is not among them.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "drivers/Corpus.h"
#include "drivers/ModelGen.h"

#include <fstream>
#include <sstream>

using namespace kiss;
using namespace kissbench;

namespace {

/// Set-ups in one set-up sample.
constexpr int SetUpReps = 20;

struct Input {
  std::string Name;
  std::string Source;
  CheckConfig Cfg;
  std::string RaceSpec; ///< Empty: assertion mode.
  core::KissVerdict Want = core::KissVerdict::NoErrorFound;
  gov::BoundReason WantBound = gov::BoundReason::None;
};

/// k threads running the same m-step worker over one shared global.
std::string family(unsigned Threads, unsigned Steps) {
  std::string Src = "int g = 0;\nvoid w() {\n";
  for (unsigned S = 0; S != Steps; ++S)
    Src += "  g = " + std::to_string(S + 1) + ";\n";
  Src += "}\nvoid main() {\n";
  for (unsigned T = 0; T != Threads; ++T)
    Src += "  async w();\n";
  return Src + "  assert(true);\n}\n";
}

Input assertions(std::string Name, std::string Source, unsigned MaxTs,
                 unsigned K) {
  Input I;
  I.Name = std::move(Name);
  I.Source = std::move(Source);
  I.Cfg.MaxTs = MaxTs;
  I.Cfg.MaxSwitches = K;
  I.Cfg.MaxStates = 10'000'000;
  return I;
}

bool makeInputs(const RunOptions &O, std::vector<Input> &Out) {
  Out.push_back(assertions("family-k4-m4", family(4, 4), 2, 4));
  Out.push_back(assertions("family-k6-m4", family(6, 4), 3, 2));

  std::ifstream In(O.Root + "/examples/programs/bank_fixed.kiss");
  if (!In) {
    std::fprintf(stderr, "kissbench: cannot read %s\n",
                 (O.Root + "/examples/programs/bank_fixed.kiss").c_str());
    return false;
  }
  std::ostringstream Text;
  Text << In.rdbuf();
  Out.push_back(assertions("bank_fixed.kiss", Text.str(), 2, 6));

  // The first two Heavy fields of Table 1, at a 200 000-state budget.
  unsigned Heavy = 0;
  for (const drivers::DriverSpec &D : drivers::getTable1Corpus())
    for (unsigned F = 0; F != D.Fields.size() && Heavy != 2; ++F) {
      if (D.Fields[F].Behavior != drivers::FieldBehavior::Heavy)
        continue;
      ++Heavy;
      Input I;
      I.Name = D.Name + "." + D.Fields[F].Name;
      I.Source = drivers::buildFieldProgram(
          D, F, drivers::HarnessVersion::V1Unconstrained);
      I.Cfg.M = CheckConfig::Mode::Race;
      I.Cfg.MaxStates = 200'000;
      I.RaceSpec = std::string(drivers::getDeviceExtensionName()) + "." +
                   D.Fields[F].Name;
      I.Want = core::KissVerdict::BoundExceeded;
      I.WantBound = gov::BoundReason::States;
      Out.push_back(std::move(I));
    }
  return Heavy == 2;
}

/// A compiled input, ready to check.
struct Compiled {
  std::unique_ptr<Session> S;
  std::unique_ptr<lang::Program> P;
};

bool compile(const Input &I, Compiled &C) {
  C.S = std::make_unique<Session>(I.Cfg);
  C.P = C.S->compile(I.Name, I.Source);
  if (!C.P)
    return false;
  std::string Error;
  return I.RaceSpec.empty() ||
         C.S->resolveRaceTarget(I.RaceSpec, *C.P, C.S->config().Race, Error);
}

void checkOutcome(Ledger &L, const Input &I, core::KissVerdict Got,
                  gov::BoundReason Bound) {
  L.check(Got == I.Want && Bound == I.WantBound,
          "deep " + I.Name + ": got '" + core::getVerdictName(Got) + "' (" +
              gov::getBoundReasonName(Bound) + "), want '" +
              core::getVerdictName(I.Want) + "' (" +
              gov::getBoundReasonName(I.WantBound) + ")");
}

} // namespace

int kissbench::runDeep(const RunOptions &O, RunReport &R) {
  std::vector<Input> Inputs;
  std::vector<Compiled> Programs;
  bool Ok = true;
  auto SetUpInto = [&](std::vector<Input> &Ins, std::vector<Compiled> &Ps) {
    auto T0 = Clock::now();
    Ins.clear();
    Ok &= makeInputs(O, Ins);
    Ps.clear();
    Ps.resize(Ins.size());
    for (size_t I = 0; I != Ins.size(); ++I)
      Ok &= compile(Ins[I], Ps[I]);
    return secondsSince(T0);
  };
  std::vector<double> SetUps;
  timeSetUp([&] { return SetUpInto(Inputs, Programs); }, 3, SetUpReps,
            SetUps);
  if (!Ok) {
    std::fprintf(stderr, "kissbench: a deep input is missing or does not "
                         "compile\n");
    return 2;
  }

  auto Start = Clock::now();
  if (!O.Trace) {
    std::vector<double> Rates, CpuMs, Latency;
    do {
      if (!Rates.empty()) {
        // Into spares: the timed checks keep their Sessions.
        std::vector<Input> SpareInputs;
        std::vector<Compiled> SparePrograms;
        timeSetUp([&] { return SetUpInto(SpareInputs, SparePrograms); }, 1,
                  SetUpReps, SetUps);
        R.L.expect(Ok, "deep: an input no longer compiles");
      }
      ProcUsage U0 = selfUsage();
      auto T0 = Clock::now();
      for (size_t I = 0; I != Inputs.size(); ++I) {
        auto T1 = Clock::now();
        CheckResult CR = Programs[I].S->check(*Programs[I].P);
        Latency.push_back(secondsSince(T1) * 1000);
        checkOutcome(R.L, Inputs[I], CR.Verdict, CR.boundReason());
      }
      double Wall = secondsSince(T0);
      ProcUsage D = usageDelta(U0, selfUsage());
      double Units = static_cast<double>(Inputs.size());
      Rates.push_back(Units / Wall);
      CpuMs.push_back((D.UserS + D.SysS) * 1000 / Units);
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
    std::vector<core::KissVerdict> Untraced, Traced;
    ProcUsage D;
    double UntracedMs = 0, TracedMs = 0;
    LayerCounts C;
    R.repeat(
        [&] {
          // Compile and check each input through a fresh Session: the
          // same work the traced pass does.
          ProcUsage U0 = selfUsage();
          auto T0 = Clock::now();
          for (const Input &I : Inputs) {
            Compiled Prog;
            R.L.expect(compile(I, Prog), "deep " + I.Name + ": compile");
            CheckResult CR = Prog.S->check(*Prog.P);
            checkOutcome(R.L, I, CR.Verdict, CR.boundReason());
            Untraced.push_back(CR.Verdict);
          }
          UntracedMs = secondsSince(T0) * 1000;
          D = usageDelta(U0, selfUsage());
        },
        [&] {
          R.T.startPass();
          auto T0 = Clock::now();
          for (const Input &I : Inputs) {
            Tracer::Scope Unit(R.T, "unit");
            Session S(I.Cfg);
            auto P = tracedCompile(R.T, S, I.Name, I.Source);
            std::string Error;
            TracedResult TR;
            if (P && (I.RaceSpec.empty() ||
                      S.resolveRaceTarget(I.RaceSpec, *P, S.config().Race,
                                          Error)))
              TR = tracedCheck(R.T, C, S, *P);
            else
              TR.Verdict = core::KissVerdict::BoundExceeded;
            ++C.Units;
            checkOutcome(R.L, I, TR.Verdict, TR.Bound);
            Traced.push_back(TR.Verdict);
          }
          TracedMs = secondsSince(T0) * 1000;
        });
    R.L.expect(Traced == Untraced,
               "deep: traced verdicts differ from the untraced pass");
    R.recordTracedPass(C, UntracedMs, TracedMs, D);
  } while (secondsSince(Start) < O.Seconds);
  return 0;
}
