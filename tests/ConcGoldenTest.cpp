//===- ConcGoldenTest.cpp - concurrent checker golden results -------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the concurrent checker's observable results: verdict,
/// counterexample trace, and the exploration counters (states,
/// transitions, dedup hits, frontier peak, BFS depth), unbounded and at a
/// context-switch bound of 2, over the sample programs, the regression
/// repros and one scalability-family input that reaches the state budget.
/// The rows were recorded from the checker's previous implementation,
/// which queued whole machine states; the exploration driver must
/// reproduce them exactly under both store modes. FrontierPeak is pinned
/// on error exits too, where the frontier can include successors of
/// threads stepped before the failing one.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "conc/ConcChecker.h"

#include <fstream>
#include <sstream>

using namespace kiss;
using namespace kiss::test;

namespace {

struct ConcGolden {
  const char *File; ///< Relative to the source root.
  int32_t ContextSwitchBound;
  const char *Outcome;
  size_t TraceLen;
  uint64_t TraceHash; ///< traceHash() of the counterexample.
  uint64_t States, Transitions, DedupHits, FrontierPeak, DepthMax;
};

const ConcGolden Goldens[] = {
    // clang-format off
    {"examples/programs/bank.kiss", -1, "assertion failure", 25, 0xb37280e094e9a39dull, 191, 264, 74, 18, 24},
    {"examples/programs/bank.kiss", 2, "assertion failure", 25, 0x97ee8455395c3f6dull, 206, 240, 35, 19, 24},
    {"examples/programs/bank_fixed.kiss", -1, "safe", 0, 0xcbf29ce484222325ull, 594, 836, 243, 18, 61},
    {"examples/programs/bank_fixed.kiss", 2, "safe", 0, 0xcbf29ce484222325ull, 744, 915, 172, 28, 61},
    {"examples/programs/handshake.kiss", -1, "safe", 0, 0xcbf29ce484222325ull, 105, 110, 6, 8, 32},
    {"examples/programs/handshake.kiss", 2, "safe", 0, 0xcbf29ce484222325ull, 105, 110, 6, 8, 32},
    {"examples/programs/parity.kiss", -1, "bound exceeded", 0, 0xcbf29ce484222325ull, 7148, 7654, 507, 10, 1532},
    {"examples/programs/parity.kiss", 2, "bound exceeded", 0, 0xcbf29ce484222325ull, 7148, 7654, 507, 10, 1532},
    {"examples/programs/pingpong.kiss", -1, "assertion failure", 16, 0x235236978e09f604ull, 38, 46, 9, 4, 15},
    {"examples/programs/pingpong.kiss", 2, "safe", 0, 0xcbf29ce484222325ull, 31, 31, 1, 5, 12},
    {"examples/programs/queue.kiss", -1, "safe", 0, 0xcbf29ce484222325ull, 54, 80, 27, 4, 23},
    {"examples/programs/queue.kiss", 2, "safe", 0, 0xcbf29ce484222325ull, 70, 81, 12, 7, 23},
    {"examples/programs/refcount.kiss", -1, "assertion failure", 41, 0xdedf07f18b4ef972ull, 1187, 1808, 622, 58, 40},
    {"examples/programs/refcount.kiss", 2, "assertion failure", 41, 0x403b1c99dbea3cf2ull, 1319, 1574, 256, 61, 40},
    {"tests/regress/atomic-release-lock.kiss", -1, "assertion failure", 29, 0x552b2bd95e75aa53ull, 283, 451, 169, 16, 28},
    {"tests/regress/atomic-release-lock.kiss", 2, "assertion failure", 29, 0x552b2bd95e75aa53ull, 446, 595, 150, 25, 28},
    {"tests/regress/atomic-release.kiss", -1, "assertion failure", 9, 0x6c3ff285fd078d11ull, 25, 26, 2, 5, 8},
    {"tests/regress/atomic-release.kiss", 2, "assertion failure", 9, 0x6c3ff285fd078d11ull, 26, 25, 0, 5, 8},
    {"tests/regress/break-transform-canary.kiss", -1, "safe", 0, 0xcbf29ce484222325ull, 18, 26, 9, 4, 8},
    {"tests/regress/break-transform-canary.kiss", 2, "safe", 0, 0xcbf29ce484222325ull, 27, 32, 6, 7, 8},
    {"tests/regress/call-writeback.kiss", -1, "safe", 0, 0xcbf29ce484222325ull, 324, 775, 452, 35, 20},
    {"tests/regress/call-writeback.kiss", 2, "safe", 0, 0xcbf29ce484222325ull, 553, 638, 86, 66, 20},
    {"tests/regress/two-switch-found.kiss", -1, "assertion failure", 7, 0xfc1736ee2fcc7f80ull, 15, 19, 5, 3, 6},
    {"tests/regress/two-switch-found.kiss", 2, "assertion failure", 7, 0xfc1736ee2fcc7f80ull, 20, 22, 3, 5, 6},
    {"tests/budget/family-7x4.kiss", -1, "bound exceeded", 0, 0xcbf29ce484222325ull, 20004, 69034, 49031, 9820, 15},
    {"tests/budget/family-7x4.kiss", 2, "safe", 0, 0xcbf29ce484222325ull, 7529, 7696, 168, 1015, 22},
    // clang-format on
};

/// State budget of every golden run; the family input reaches it.
constexpr uint64_t GoldenMaxStates = 20'000;

/// FNV-1a over the (thread, function, node) words of \p Trace.
uint64_t traceHash(const std::vector<rt::TraceStep> &Trace) {
  uint64_t H = 0xcbf29ce484222325ull;
  auto Mix = [&H](uint32_t V) {
    for (unsigned I = 0; I != 4; ++I) {
      H ^= (V >> (8 * I)) & 0xff;
      H *= 1099511628211ull;
    }
  };
  for (const rt::TraceStep &S : Trace) {
    Mix(S.Thread);
    Mix(S.Func);
    Mix(S.Node);
  }
  return H;
}

std::string readSource(const std::string &Rel) {
  std::ifstream In(std::string(KISS_SOURCE_DIR) + "/" + Rel);
  EXPECT_TRUE(In) << "cannot open " << Rel;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

void expectGoldens(rt::StoreMode Store) {
  for (const ConcGolden &G : Goldens) {
    SCOPED_TRACE(std::string(G.File) +
                 " bound=" + std::to_string(G.ContextSwitchBound));
    Compiled C = compile(readSource(G.File));
    ASSERT_TRUE(C);
    cfg::ProgramCFG CFG = cfg::ProgramCFG::build(*C.Program);
    conc::ConcOptions Opts;
    Opts.MaxStates = GoldenMaxStates;
    Opts.ContextSwitchBound = G.ContextSwitchBound;
    Opts.Store = Store;
    rt::CheckResult R = conc::checkProgram(*C.Program, CFG, Opts);
    EXPECT_STREQ(rt::getOutcomeName(R.Outcome), G.Outcome);
    EXPECT_EQ(R.Trace.size(), G.TraceLen);
    EXPECT_EQ(traceHash(R.Trace), G.TraceHash);
    EXPECT_EQ(R.StatesExplored, G.States);
    EXPECT_EQ(R.TransitionsExplored, G.Transitions);
    EXPECT_EQ(R.Exploration.DedupHits, G.DedupHits);
    EXPECT_EQ(R.Exploration.FrontierPeak, G.FrontierPeak);
    EXPECT_EQ(R.Exploration.DepthMax, G.DepthMax);
  }
}

TEST(ConcGoldenTest, FlatStoreReproducesRecordedResults) {
  expectGoldens(rt::StoreMode::Flat);
}

TEST(ConcGoldenTest, DeltaStoreReproducesRecordedResults) {
  expectGoldens(rt::StoreMode::Delta);
}

} // namespace
