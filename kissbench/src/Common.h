//===- Common.h - Shared plumbing of the kissbench driver -------*- C++ -*-===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the benchmark shares: the run options, the
/// correctness ledger, process resource capture, percentiles, the metric
/// sink that becomes the final JSON line, and the in-memory span tracer
/// of traced runs.
///
//===----------------------------------------------------------------------===//

#ifndef KISSBENCH_COMMON_H
#define KISSBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <string>
#include <sys/types.h>
#include <vector>

namespace kissbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T) {
  return std::chrono::duration<double>(Clock::now() - T).count();
}

/// Command-line options of one benchmark run.
struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Checkout root: examples are read from here.
  std::string Root = ".";
  /// Directory for the kissd socket and log and the span dump.
  std::string WorkDir = ".";
  /// The kissd binary (service workload).
  std::string Kissd;
};

/// Counts units and the ones whose outcome differs from the known answer.
/// Every failure is printed to stderr as it happens.
class Ledger {
public:
  void check(bool Ok, const std::string &What);
  /// A whole-run invariant (a table row, traced-vs-untraced agreement):
  /// a violation fails the run without counting a unit.
  void expect(bool Ok, const std::string &What);
  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }

private:
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

/// CPU, fault and memory readings of one process.
struct ProcUsage {
  double UserS = 0;
  double SysS = 0;
  uint64_t MinorFaults = 0;
  double PeakRssMb = 0;
};

/// The benchmark process itself (getrusage).
ProcUsage selfUsage();
/// A child process, read from /proc/<pid>/stat and /proc/<pid>/status.
bool childUsage(pid_t Pid, ProcUsage &Out);

double median(std::vector<double> V);
/// Nearest-rank percentile, \p P in [0, 1].
double percentile(std::vector<double> V, double P);

/// Appends \p Blocks set-up samples to \p Samples, each the mean of
/// \p Reps consecutive calls of \p SetUp (which returns the seconds it
/// measured). On a shared host a core's speed moves by half from one
/// stretch of a few milliseconds to the next, so a sample averages a
/// block of set-ups, and a timed run takes blocks before its timed work
/// and between its passes and reports their median.
template <typename Fn>
void timeSetUp(Fn SetUp, int Blocks, int Reps, std::vector<double> &Samples) {
  for (int B = 0; B != Blocks; ++B) {
    double Sum = 0;
    for (int I = 0; I != Reps; ++I)
      Sum += SetUp();
    Samples.push_back(Sum / Reps);
  }
}

/// Named metrics with units, rendered in insertion order.
class MetricSink {
public:
  void add(const std::string &Name, double Value, const std::string &Unit);
  std::string json() const;

private:
  struct Entry {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Entry> Entries;
};

/// In-memory spans of a traced run: name, start, end, parent and the id
/// of the unit (field check, program check, request, fuzz case) that
/// caused them. Written out once, when the run ends.
class Tracer {
public:
  /// Opens a span as a child of the innermost open span. A span opened
  /// with nothing open is a root and starts a new unit. Spans close in
  /// reverse order of opening.
  int begin(const char *Name);
  void end(int Id);

  /// A span open for the lifetime of the scope.
  class Scope {
  public:
    Scope(Tracer &T, const char *Name) : T(T), Id(T.begin(Name)) {}
    ~Scope() { T.end(Id); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &T;
    int Id;
  };

  /// Starts a traced pass: spans recorded from now on belong to it.
  void startPass();
  /// Self time (duration minus child spans) per span name over the
  /// current pass, in milliseconds.
  std::vector<std::pair<std::string, double>> selfMsByName() const;
  /// Summed duration of the current pass's root spans, milliseconds.
  double rootMs() const;
  /// Writes every span recorded so far to \p Path as JSON lines.
  bool write(const std::string &Path) const;

private:
  struct Span {
    const char *Name;
    double StartUs;
    double EndUs;
    int Parent;
    uint64_t Unit;
    uint32_t Pass;
  };
  std::vector<Span> Spans;
  std::vector<int> Open;
  Clock::time_point Epoch = Clock::now();
  uint64_t Units = 0;
  uint32_t Pass = 0;
  size_t PassBegin = 0;
};

} // namespace kissbench

#endif // KISSBENCH_COMMON_H
