//===- Workloads.h - The four benchmark workloads ---------------*- C++ -*-===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each workload has a timed run (end-to-end metrics, no spans) and a
/// traced run. A traced run repeats one fixed pass of the workload's
/// units until its time is up: first untraced through the public API,
/// then layer by layer under spans. Both must reach the same verdicts,
/// and every traced pass must report the same counts.
///
//===----------------------------------------------------------------------===//

#ifndef KISSBENCH_WORKLOADS_H
#define KISSBENCH_WORKLOADS_H

#include "Common.h"
#include "Pipeline.h"

#include <map>

namespace kissbench {

/// Everything a run reports.
struct RunReport {
  Ledger L;

  // Timed run: the end-to-end metrics.
  double SetupS = 0;
  double ChecksPerS = 0;
  double CpuMsPerCheck = 0;
  double PeakRssMb = 0;
  double MissP50Ms = 0;
  double P99Ms = 0;

  // Traced run: one sample per traced pass for each per-layer row it has.
  std::map<std::string, std::vector<double>> Layer;
  Tracer T;
  LayerCounts FirstCounts;
  bool HaveCounts = false;

  /// Wall of each repetition's untraced pass, for trace.overhead_share.
  std::vector<double> UntracedMs;
  unsigned Repetitions = 0;

  /// One repetition of a traced run: the untraced pass, then the traced
  /// one, in that order on even repetitions and reversed on odd ones, so
  /// neither always runs on the caches and heap the other left warm.
  template <typename U, typename T> void repeat(U Untraced, T Traced) {
    if (Repetitions++ % 2 == 0) {
      Untraced();
      Traced();
    } else {
      Traced();
      Untraced();
    }
  }

  /// Records one traced pass: self times of every span, the uncovered
  /// remainder, the counts (which must equal the first pass's), process
  /// usage of the matching untraced pass, and both passes' walls.
  void recordTracedPass(const LayerCounts &C, double UntracedMs,
                        double TracedMs, const ProcUsage &Untraced);
  void sample(const std::string &Name, double V) { Layer[Name].push_back(V); }
};

/// The difference of two readings (peak RSS is taken from \p After).
ProcUsage usageDelta(const ProcUsage &Before, const ProcUsage &After);

int runCorpus(const RunOptions &O, RunReport &R);
int runDeep(const RunOptions &O, RunReport &R);
int runFuzz(const RunOptions &O, RunReport &R);
int runService(const RunOptions &O, RunReport &R);

} // namespace kissbench

#endif // KISSBENCH_WORKLOADS_H
