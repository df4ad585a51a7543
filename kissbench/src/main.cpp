//===- main.cpp - kissbench: the repository benchmark ---------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
///   kissbench --workload corpus|deep|service|fuzz --seed N --seconds S
///             --trace 0|1 [--root DIR] [--work-dir DIR] [--kissd PATH]
///
/// Runs one workload for about S seconds and prints, as its last line,
/// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
/// with --trace 0, the per-layer metrics of a traced run with --trace 1.
/// Exits 1 if any unit's outcome differs from its known answer.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace kissbench;

namespace {

struct MetricDef {
  const char *Name;
  const char *Unit;
};

/// The per-layer rows, in output order. Span names map onto the ".ms"
/// rows through SpanRows.
const MetricDef PerLayer[] = {
    {"drivers.gen_ms", "ms"},
    {"drivers.idle_share", "ratio"},
    {"lang.ms", "ms"},
    {"lower.ms", "ms"},
    {"alias.ms", "ms"},
    {"alias.pruned_share", "ratio"},
    {"kiss.transform_ms", "ms"},
    {"kiss.instrumented_stmts", "count"},
    {"kiss.tracemap_ms", "ms"},
    {"cfg.ms", "ms"},
    {"cfg.nodes", "count"},
    {"seqcheck.ms", "ms"},
    {"seqcheck.states", "count"},
    {"seqcheck.transitions", "count"},
    {"seqcheck.dedup_share", "ratio"},
    {"seqcheck.states_per_s", "1/s"},
    {"seqcheck.arena_bytes_per_state", "B"},
    {"seqcheck.index_bytes_per_state", "B"},
    {"seqcheck.probes_per_state", "count"},
    {"seqcheck.bound_trips", "count"},
    {"conc.ms", "ms"},
    {"conc.states", "count"},
    {"conc.states_per_s", "1/s"},
    {"conc.bound_trips", "count"},
    {"bebop.convert_ms", "ms"},
    {"bebop.check_ms", "ms"},
    {"bebop.path_edges", "count"},
    {"bebop.summary_edges", "count"},
    {"fuzz.gen_ms", "ms"},
    {"fuzz.oracle_ms", "ms"},
    {"fuzz.discards", "count"},
    {"fuzz.inconclusive", "count"},
    {"service.hit_rate", "ratio"},
    {"service.hit_p50_ms", "ms"},
    {"service.cache_hits", "count"},
    {"service.inproc_hit_us", "us"},
    {"service.inproc_miss_ms", "ms"},
    {"service.protocol_us", "us"},
    {"service.transport_us", "us"},
    {"service.inproc_ms", "ms"},
    {"service.protocol_ms", "ms"},
    {"proc.user_s", "s"},
    {"proc.sys_s", "s"},
    {"proc.sys_share", "ratio"},
    {"proc.minor_faults_per_check", "count"},
    {"trace.overhead_share", "ratio"},
    {"trace.wall_ms", "ms"},
    {"trace.unit_self_ms", "ms"},
    {"trace.uncovered_ms", "ms"},
};

/// Span name -> the per-layer row carrying its self time.
const std::pair<const char *, const char *> SpanRows[] = {
    {"drivers.gen", "drivers.gen_ms"},
    {"lang", "lang.ms"},
    {"lower", "lower.ms"},
    {"alias", "alias.ms"},
    {"kiss.transform", "kiss.transform_ms"},
    {"kiss.tracemap", "kiss.tracemap_ms"},
    {"cfg", "cfg.ms"},
    {"seqcheck", "seqcheck.ms"},
    {"conc", "conc.ms"},
    {"bebop.convert", "bebop.convert_ms"},
    {"bebop.check", "bebop.check_ms"},
    {"fuzz.gen", "fuzz.gen_ms"},
    {"fuzz.oracle", "fuzz.oracle_ms"},
    {"service.inproc", "service.inproc_ms"},
    {"service.protocol", "service.protocol_ms"},
    {"unit", "trace.unit_self_ms"},
};

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

bool parseArgs(int Argc, char **Argv, RunOptions &O) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Flag = Argv[I], V = Argv[I + 1];
    char *End = nullptr;
    if (Flag == "--workload") {
      O.Workload = V;
    } else if (Flag == "--seed") {
      O.Seed = std::strtoull(V.c_str(), &End, 10);
      if (V.empty() || *End)
        return false;
    } else if (Flag == "--seconds") {
      O.Seconds = std::strtod(V.c_str(), &End);
      if (V.empty() || *End || !(O.Seconds > 0))
        return false;
    } else if (Flag == "--trace") {
      if (V != "0" && V != "1")
        return false;
      O.Trace = V == "1";
    } else if (Flag == "--root") {
      O.Root = V;
    } else if (Flag == "--work-dir") {
      O.WorkDir = V;
    } else if (Flag == "--kissd") {
      O.Kissd = V;
    } else {
      return false;
    }
  }
  return Argc % 2 == 1 && !O.Workload.empty();
}

} // namespace

ProcUsage kissbench::usageDelta(const ProcUsage &Before,
                                const ProcUsage &After) {
  ProcUsage D;
  D.UserS = After.UserS - Before.UserS;
  D.SysS = After.SysS - Before.SysS;
  D.MinorFaults = After.MinorFaults - Before.MinorFaults;
  D.PeakRssMb = After.PeakRssMb;
  return D;
}

void RunReport::recordTracedPass(const LayerCounts &C, double UntracedMs,
                                 double TracedMs, const ProcUsage &U) {
  if (!HaveCounts) {
    FirstCounts = C;
    HaveCounts = true;
  } else {
    L.expect(C == FirstCounts, "a traced pass reported different counts");
  }

  std::map<std::string, double> Rows;
  double SelfSum = 0;
  for (const auto &[Span, Ms] : T.selfMsByName()) {
    const char *Row = nullptr;
    for (const auto &[S, R] : SpanRows)
      if (Span == S)
        Row = R;
    L.expect(Row != nullptr, "span '" + Span + "' has no per-layer row");
    if (Row)
      Rows[Row] += Ms;
    SelfSum += Ms;
  }
  for (const auto &[S, R] : SpanRows)
    sample(R, Rows[R]);
  double Uncovered = TracedMs - T.rootMs();
  L.expect(std::fabs(SelfSum + Uncovered - TracedMs) <= 1e-6 * TracedMs + 1e-6,
           "span self times plus the uncovered row miss the traced wall");
  sample("trace.wall_ms", TracedMs);
  sample("trace.uncovered_ms", Uncovered);
  this->UntracedMs.push_back(UntracedMs);

  double Seq = static_cast<double>(C.SeqStates);
  sample("alias.pruned_share",
         ratio(C.ProbesPruned, C.ProbesEmitted + C.ProbesPruned));
  sample("kiss.instrumented_stmts", C.InstrumentedStmts);
  sample("cfg.nodes", C.CfgNodes);
  sample("seqcheck.states", Seq);
  sample("seqcheck.transitions", C.SeqTransitions);
  sample("seqcheck.dedup_share", ratio(C.SeqDedupHits, C.SeqTransitions));
  sample("seqcheck.states_per_s", ratio(Seq, Rows["seqcheck.ms"] / 1000));
  sample("seqcheck.arena_bytes_per_state", ratio(C.SeqArenaBytes, Seq));
  sample("seqcheck.index_bytes_per_state", ratio(C.SeqIndexBytes, Seq));
  sample("seqcheck.probes_per_state", ratio(C.SeqHashProbes, Seq));
  sample("seqcheck.bound_trips", C.SeqBoundTrips);
  sample("conc.states", C.ConcStates);
  sample("conc.states_per_s",
         ratio(C.ConcStates, Rows["conc.ms"] / 1000));
  sample("conc.bound_trips", C.ConcBoundTrips);
  sample("bebop.path_edges", C.PathEdges);
  sample("bebop.summary_edges", C.SummaryEdges);
  sample("fuzz.discards", C.FuzzDiscards);
  sample("fuzz.inconclusive", C.FuzzInconclusive);
  sample("service.hit_rate", ratio(C.CacheHits, C.Requests));
  sample("service.cache_hits", C.CacheHits);

  sample("proc.user_s", U.UserS);
  sample("proc.sys_s", U.SysS);
  sample("proc.sys_share", ratio(U.SysS, U.UserS + U.SysS));
  sample("proc.minor_faults_per_check", ratio(U.MinorFaults, C.Units));
}

int main(int Argc, char **Argv) {
  RunOptions O;
  if (!parseArgs(Argc, Argv, O)) {
    std::fprintf(stderr,
                 "usage: kissbench --workload corpus|deep|service|fuzz "
                 "--seed N --seconds S --trace 0|1 [--root DIR] "
                 "[--work-dir DIR] [--kissd PATH]\n");
    return 2;
  }
  std::printf("kissbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              O.Seconds, O.Trace ? 1 : 0);
  std::fflush(stdout);

  RunReport R;
  int Code = 2;
  if (O.Workload == "corpus")
    Code = runCorpus(O, R);
  else if (O.Workload == "deep")
    Code = runDeep(O, R);
  else if (O.Workload == "fuzz")
    Code = runFuzz(O, R);
  else if (O.Workload == "service")
    Code = runService(O, R);
  else
    std::fprintf(stderr, "kissbench: unknown workload '%s'\n",
                 O.Workload.c_str());
  if (Code != 0)
    return Code;
  if (R.L.attempted() == 0) {
    std::fprintf(stderr, "kissbench: no unit completed\n");
    return 2;
  }

  MetricSink M;
  if (O.Trace) {
    std::string SpanFile = O.WorkDir + "/spans-" + O.Workload + "-seed" +
                           std::to_string(O.Seed) + ".jsonl";
    if (!R.T.write(SpanFile))
      std::fprintf(stderr, "kissbench: cannot write %s\n", SpanFile.c_str());
    // Every row comes from one pass, the one with the median traced wall,
    // so its self times and uncovered time add up to its wall.
    const std::vector<double> &Walls = R.Layer["trace.wall_ms"];
    std::vector<size_t> Order(Walls.size());
    for (size_t I = 0; I != Order.size(); ++I)
      Order[I] = I;
    std::sort(Order.begin(), Order.end(),
              [&](size_t A, size_t B) { return Walls[A] < Walls[B]; });
    size_t Pass = Order.empty() ? 0 : Order[(Order.size() - 1) / 2];
    for (const MetricDef &D : PerLayer) {
      const std::vector<double> &V = R.Layer[D.Name];
      R.L.expect(V.empty() || V.size() == Walls.size(),
                 std::string("per-layer row ") + D.Name +
                     " was not sampled once per pass");
      double Value = Pass < V.size() ? V[Pass] : 0;
      // The exception: overhead compares the medians of all repetitions,
      // which alternate the order of their two passes.
      if (std::string(D.Name) == "trace.overhead_share")
        Value = ratio(median(Walls), median(R.UntracedMs)) - 1;
      M.add(D.Name, Value, D.Unit);
    }
  } else {
    M.add("setup_s", R.SetupS, "s");
    M.add("checks_per_s", R.ChecksPerS, "1/s");
    M.add("cpu_ms_per_check", R.CpuMsPerCheck, "ms");
    M.add("peak_rss_mb", R.PeakRssMb, "MB");
    M.add("miss_p50_ms", R.MissP50Ms, "ms");
    M.add("p99_ms", R.P99Ms, "ms");
  }
  bool Correct = R.L.failed() == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(R.L.attempted()),
              static_cast<unsigned long long>(R.L.failed()),
              M.json().c_str());
  return Correct ? 0 : 1;
}
