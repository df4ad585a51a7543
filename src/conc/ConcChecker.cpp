//===- ConcChecker.cpp ----------------------------------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "conc/ConcChecker.h"

#include "seqcheck/Explore.h"

#include <algorithm>

using namespace kiss;
using namespace kiss::rt;
using namespace kiss::conc;
using kiss::seqcheck::StateStore;

namespace {

/// Scheduling context of a state when a context-switch bound is active:
/// the thread that ran last and the switches taken so far. It is part of
/// the state's key (two states that differ only in context must not be
/// merged), kept as a 3-byte suffix — the thread id in one byte (0xff =
/// none yet) and the switch count in two.
struct SchedCtx {
  int32_t LastThread = -1;
  uint32_t Switches = 0;
};

constexpr size_t SchedCtxBytes = 3;

void appendCtx(const SchedCtx &Ctx, std::string &Out) {
  Out.push_back(static_cast<char>(Ctx.LastThread & 0xff));
  Out.push_back(static_cast<char>(Ctx.Switches & 0xff));
  Out.push_back(static_cast<char>((Ctx.Switches >> 8) & 0xff));
}

SchedCtx readCtx(std::string_view Suffix) {
  auto Byte = [&](size_t I) { return static_cast<uint8_t>(Suffix[I]); };
  SchedCtx Ctx;
  Ctx.LastThread = Byte(0) == 0xff ? -1 : Byte(0);
  Ctx.Switches = Byte(1) | uint32_t(Byte(2)) << 8;
  return Ctx;
}

} // namespace

CheckResult conc::checkProgram(const lang::Program &P,
                               const cfg::ProgramCFG &CFG,
                               const ConcOptions &Opts) {
  StepOptions SO;
  SO.AllowAsync = true;
  SO.MaxFrames = Opts.MaxFrames;
  const bool Bounded = Opts.ContextSwitchBound >= 0;
  // A bounded key holds the last thread's id in one byte (0xff = none).
  SO.MaxThreads = Bounded ? std::min<uint32_t>(Opts.MaxThreads, 0xff)
                          : Opts.MaxThreads;

  Explorer X(P, CFG, Opts);
  MachineState S;
  std::string Scratch;
  std::vector<uint32_t> Atomic, Others;

  auto Expand = [&](StateStore::KeyRef Ref) {
    std::string_view Key = Ref;
    SchedCtx Ctx;
    if (Bounded) {
      Ctx = readCtx(Key.substr(Key.size() - SchedCtxBytes));
      Key.remove_suffix(SchedCtxBytes);
    }
    decodeStateInto(Key, S);

    // Steps each thread of \p Tids that the bound lets run; \p AnyEnabled
    // says whether one of them had successors. \returns true if a step
    // ended the run.
    auto tryThreads = [&](const std::vector<uint32_t> &Tids,
                          bool &AnyEnabled) {
      for (uint32_t T : Tids) {
        if (Bounded && Ctx.LastThread >= 0 &&
            static_cast<int32_t>(T) != Ctx.LastThread &&
            Ctx.Switches >= static_cast<uint32_t>(Opts.ContextSwitchBound))
          continue; // Switching to T would exceed the bound.

        const Frame &Top = S.Threads[T].Frames.back();
        const TraceStep Step{T, Top.Func, Top.PC};
        StepResult SR = stepThread(P, CFG, S, T, SO);
        if (SR.K == StepResult::Kind::Ok) {
          AnyEnabled = true;
          SchedCtx NCtx = Ctx;
          if (NCtx.LastThread >= 0 &&
              NCtx.LastThread != static_cast<int32_t>(T))
            ++NCtx.Switches;
          NCtx.LastThread = static_cast<int32_t>(T);
          for (const MachineState &NS : SR.Successors) {
            encodeStateInto(NS, Scratch);
            if (Bounded)
              appendCtx(NCtx, Scratch);
            X.emit(Scratch, Step);
          }
        }
        if (X.finishStep(SR.K, Step, std::move(SR.Message), SR.ErrorLoc))
          return true;
      }
      return false;
    };

    // Which threads may run? Threads holding atomicity run exclusively
    // while one of them is enabled; when all are blocked, the others run.
    // No enabled thread at all is a terminal state (completion or a
    // permanently blocked assume), not an error.
    Atomic.clear();
    Others.clear();
    for (uint32_t T = 0, E = S.Threads.size(); T != E; ++T)
      if (!S.Threads[T].isTerminated())
        (S.Threads[T].AtomicDepth > 0 ? Atomic : Others).push_back(T);
    bool AnyEnabled = false;
    if (tryThreads(Atomic, AnyEnabled))
      return true;
    return !AnyEnabled && tryThreads(Others, AnyEnabled);
  };

  std::string RootCtx;
  if (Bounded)
    appendCtx(SchedCtx(), RootCtx);
  return X.run(Expand, RootCtx);
}
