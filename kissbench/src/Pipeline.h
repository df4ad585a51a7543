//===- Pipeline.h - The checker, called one layer at a time -----*- C++ -*-===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's view of the checker. Session::compile and
/// Session::check run frontend -> transform (with alias) -> CFG -> seq or
/// bebop -> trace map-back behind one call; here the benchmark makes the
/// same calls itself, in the same order, each inside a span, and tallies
/// the counts each layer reports. The verdict logic mirrors
/// core::runPipeline so a traced check reaches the untraced verdict.
///
//===----------------------------------------------------------------------===//

#ifndef KISSBENCH_PIPELINE_H
#define KISSBENCH_PIPELINE_H

#include "Common.h"

#include "kiss/Kiss.h"

#include <memory>

namespace kissbench {

/// Deterministic counts of a traced pass, summed over its units. Two
/// traced runs with the same seed must produce equal ledgers.
struct LayerCounts {
  uint64_t ProbesEmitted = 0;
  uint64_t ProbesPruned = 0;
  uint64_t InstrumentedStmts = 0;
  uint64_t CfgNodes = 0;
  uint64_t SeqStates = 0;
  uint64_t SeqTransitions = 0;
  uint64_t SeqDedupHits = 0;
  uint64_t SeqArenaBytes = 0;
  uint64_t SeqIndexBytes = 0;
  uint64_t SeqHashProbes = 0;
  uint64_t SeqBoundTrips = 0;
  uint64_t ConcStates = 0;
  uint64_t ConcBoundTrips = 0;
  uint64_t PathEdges = 0;
  uint64_t SummaryEdges = 0;
  uint64_t FuzzDiscards = 0;
  uint64_t FuzzInconclusive = 0;
  uint64_t Requests = 0;
  uint64_t CacheHits = 0;
  uint64_t Units = 0;

  bool operator==(const LayerCounts &) const = default;
};

/// What a traced check concluded.
struct TracedResult {
  kiss::core::KissVerdict Verdict = kiss::core::KissVerdict::NoErrorFound;
  kiss::gov::BoundReason Bound = kiss::gov::BoundReason::None;
  /// The transform or the bebop conversion rejected the program.
  bool Rejected = false;
  kiss::core::TransformStats Stats;
  kiss::core::ConcurrentTrace Trace;

  bool foundError() const {
    return Verdict == kiss::core::KissVerdict::AssertionViolation ||
           Verdict == kiss::core::KissVerdict::RaceDetected ||
           Verdict == kiss::core::KissVerdict::RuntimeError;
  }
};

/// Session::compile, as spans "lang" (parse + type check) and "lower".
/// The program borrows \p S's tables, as a compiled one does.
std::unique_ptr<kiss::lang::Program> tracedCompile(Tracer &T, kiss::Session &S,
                                                   const std::string &Name,
                                                   const std::string &Source);

/// Session::check under S.config(), as spans "alias" (a separate
/// points-to run in race mode), "kiss.transform", "cfg", "seqcheck" or
/// "bebop.convert" + "bebop.check", and "kiss.tracemap".
TracedResult tracedCheck(Tracer &T, LayerCounts &C, kiss::Session &S,
                         const kiss::lang::Program &P);

} // namespace kissbench

#endif // KISSBENCH_PIPELINE_H
