//===- SeqChecker.cpp -----------------------------------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "seqcheck/SeqChecker.h"

#include "seqcheck/Explore.h"
#include "seqcheck/exec/ThreadedEngine.h"

using namespace kiss;
using namespace kiss::rt;
using namespace kiss::seqcheck;

CheckResult seqcheck::checkProgram(const lang::Program &P,
                                   const cfg::ProgramCFG &CFG,
                                   const SeqOptions &Opts) {
  if (Opts.Exec == rt::ExecEngine::Threaded)
    return exec::checkProgramThreaded(P, CFG, Opts);

  // The reference interpreter: decode the popped state and run the shared
  // transition relation on its only thread.
  StepOptions SO;
  SO.AllowAsync = false;
  SO.MaxFrames = Opts.MaxFrames;
  Explorer X(P, CFG, Opts);
  MachineState S;
  std::string Scratch;
  return X.run([&](StateStore::KeyRef Key) {
    decodeStateInto(Key, S);
    if (isThreadDone(S, 0))
      return false; // Accepting leaf: the program ran to completion.
    const Frame &Top = S.Threads[0].Frames.back();
    const TraceStep Step{0, Top.Func, Top.PC};
    // A false assume() blocks the path: on a sequential path it is
    // silently pruned (§3: the program blocks forever; no error).
    StepResult SR = stepThread(P, CFG, S, 0, SO);
    for (const MachineState &NS : SR.Successors) {
      encodeStateInto(NS, Scratch);
      X.emit(Scratch, Step);
    }
    return X.finishStep(SR.K, Step, std::move(SR.Message), SR.ErrorLoc);
  });
}
