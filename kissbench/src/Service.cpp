//===- Service.cpp - The service workload: kissd under closed-loop load ---===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// kissd runs as a child on a Unix socket with 2 workers and an empty
/// cache. One client drives it closed loop over one connection with a
/// seeded stream of Table-1 field checks: about 3 requests in 4 repeat
/// one of the connection's earlier requests (cache hits); the rest are a
/// new revision of a field model — an unused global with a seeded value
/// prepended, which keeps the field's verdict — and miss. Hit counts
/// depend on the seed alone. A unit is a request.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "drivers/Corpus.h"
#include "drivers/ModelGen.h"
#include "fuzz/Generator.h"
#include "service/Client.h"
#include "service/Service.h"
#include "support/Json.h"

#include <csignal>
#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace kiss;
using namespace kiss::drivers;
using namespace kissbench;

namespace {

/// One connection: kissd shards misses over its workers by request hash,
/// so two closed loops queue behind each other about half the time, and
/// that queueing amplifies the host's speed swings until the median miss
/// moves by a quarter from run to run.
constexpr unsigned Connections = 1;
constexpr unsigned Workers = 2;
/// Requests per connection in one traced pass.
constexpr uint64_t PassRequests = 150;

/// A Table-1 field with its source and known answer.
struct FieldCase {
  std::string Name;
  std::string Source;
  std::string RaceSpec;
  std::string WantVerdict;
  std::string WantBound;
};

std::vector<FieldCase> makeFields() {
  std::vector<FieldCase> Out;
  for (const DriverSpec &D : getTable1Corpus())
    for (unsigned F = 0; F != D.Fields.size(); ++F) {
      FieldCase C;
      C.Name = D.Name + "." + D.Fields[F].Name + ".kiss";
      C.Source = buildFieldProgram(D, F, HarnessVersion::V1Unconstrained);
      C.RaceSpec =
          std::string(getDeviceExtensionName()) + "." + D.Fields[F].Name;
      core::KissVerdict V = core::KissVerdict::NoErrorFound;
      switch (D.Fields[F].Behavior) {
      case FieldBehavior::RealRace:
      case FieldBehavior::SpuriousRace:
        V = core::KissVerdict::RaceDetected;
        break;
      case FieldBehavior::Heavy:
        V = core::KissVerdict::BoundExceeded;
        break;
      default:
        break;
      }
      C.WantVerdict = core::getVerdictName(V);
      C.WantBound = gov::getBoundReasonName(
          V == core::KissVerdict::BoundExceeded ? gov::BoundReason::States
                                                : gov::BoundReason::None);
      Out.push_back(std::move(C));
    }
  return Out;
}

/// One connection's seeded request stream.
class Stream {
public:
  Stream(const std::vector<FieldCase> &Fields, uint64_t Seed, unsigned Conn)
      : Fields(Fields), R(Seed * 1'000'003 + Conn), Conn(Conn) {}

  struct Item {
    size_t Distinct; ///< Index into the stream's distinct requests.
    bool Repeat;
  };

  Item next() {
    if (!Revisions.empty() && R.next(4) != 0)
      return {R.next(static_cast<uint32_t>(Revisions.size())), true};
    Revisions.push_back({R.next(static_cast<uint32_t>(Fields.size())),
                         R.next(1'000'000)});
    return {Revisions.size() - 1, false};
  }

  const FieldCase &field(size_t Distinct) const {
    return Fields[Revisions[Distinct].Field];
  }

  service::Request request(size_t Distinct) const {
    const FieldCase &F = field(Distinct);
    service::Request Q;
    Q.Name = F.Name;
    Q.Source = "int kissbench_rev_c" + std::to_string(Conn) + "_" +
               std::to_string(Distinct) + " = " +
               std::to_string(Revisions[Distinct].Value) + ";\n" + F.Source;
    Q.Field = F.RaceSpec;
    Q.Cfg.MaxTs = 0;
    Q.Cfg.MaxStates = 25000;
    return Q;
  }

private:
  struct Revision {
    uint32_t Field;
    uint32_t Value;
  };
  const std::vector<FieldCase> &Fields;
  fuzz::Rng R;
  unsigned Conn;
  std::vector<Revision> Revisions;
};

/// Reads "verdict" and "bound_reason" from a result core.
bool coreVerdict(const std::string &Core, std::string &Verdict,
                 std::string &Bound) {
  json::Value V;
  std::string Error;
  if (!json::parse(Core, "core", V, Error) || !V.isObject())
    return false;
  const json::Value *Vd = V.find("verdict");
  const json::Value *Bd = V.find("bound_reason");
  if (!Vd || !Bd || !Vd->isString() || !Bd->isString())
    return false;
  Verdict = Vd->asString();
  Bound = Bd->asString();
  return true;
}

/// The kissd child: started on construction, stopped (and reaped) on
/// shutdown() or destruction.
class Daemon {
public:
  Daemon(const RunOptions &O, const std::string &Socket) : Socket(Socket) {
    // Everything the child needs is built before fork(): the child only
    // makes async-signal-safe calls.
    std::string Log = O.WorkDir + "/kissd.log";
    std::string SocketFlag = "--socket=" + Socket;
    std::string WorkersFlag = "--workers=" + std::to_string(Workers);
    Pid = fork();
    if (Pid == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL); // Never outlive the benchmark.
      int Fd = open(Log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (Fd >= 0)
        dup2(Fd, 2);
      execl(O.Kissd.c_str(), "kissd", SocketFlag.c_str(), WorkersFlag.c_str(),
            static_cast<char *>(nullptr));
      _exit(127);
    }
  }
  ~Daemon() {
    if (Pid > 0) {
      kill(Pid, SIGKILL);
      waitpid(Pid, nullptr, 0);
    }
  }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  pid_t pid() const { return Pid; }

  /// Polls until the daemon answers a ping. \returns false on timeout.
  bool waitForPong() {
    service::Request Ping;
    Ping.A = service::Action::Ping;
    std::string Text = service::renderRequest(Ping), Resp, Error;
    auto Start = Clock::now();
    while (secondsSince(Start) < 30) {
      service::Client C;
      if (C.connectUnix(Socket, Error) && C.call(Text, Resp, Error))
        return Resp.find("\"pong\"") != std::string::npos;
      if (Pid <= 0 || waitpid(Pid, nullptr, WNOHANG) != 0) {
        Pid = -1;
        return false;
      }
      usleep(200);
    }
    return false;
  }

  /// Asks for a drain and reaps the child. \returns its exit status.
  int shutdown() {
    if (Pid <= 0)
      return 128; // Already gone (and reaped).
    service::Request Bye;
    Bye.A = service::Action::Shutdown;
    std::string Resp, Error;
    service::Client C;
    if (C.connectUnix(Socket, Error))
      C.call(service::renderRequest(Bye), Resp, Error);
    int Status = 0;
    waitpid(Pid, &Status, 0);
    Pid = -1;
    return WIFEXITED(Status) ? WEXITSTATUS(Status) : 128;
  }

  /// The daemon's cache_hits counter.
  uint64_t cacheHits() {
    service::Request Q;
    Q.A = service::Action::Stats;
    std::string Resp, Error;
    service::Client C;
    json::Value V;
    uint64_t Hits = 0;
    if (C.connectUnix(Socket, Error) &&
        C.call(service::renderRequest(Q), Resp, Error) &&
        json::parse(Resp, "stats", V, Error) && V.find("stats") &&
        V.find("stats")->find("cache_hits"))
      V.find("stats")->find("cache_hits")->asU64(Hits);
    return Hits;
  }

private:
  std::string Socket;
  pid_t Pid = -1;
};

/// What one connection saw.
struct ConnLog {
  std::vector<double> RttMs;
  std::vector<bool> Hit;
  std::vector<std::string> Cores; ///< Per request, in order.
  std::vector<std::string> Failures;
  uint64_t Checked = 0;
};

/// Drives one connection closed loop until \p Deadline seconds have
/// passed (or, with \p Count set, for exactly that many requests).
void driveConnection(const std::string &Socket, Stream &S, double Deadline,
                     uint64_t Count, ConnLog &Log) {
  service::Client C;
  std::string Error;
  if (!C.connectUnix(Socket, Error)) {
    Log.Failures.push_back("service: connect: " + Error);
    return;
  }
  std::vector<std::string> MissCore; // By distinct request.
  auto Start = Clock::now();
  for (uint64_t N = 0; Count ? N != Count : secondsSince(Start) < Deadline;
       ++N) {
    Stream::Item It = S.next();
    std::string Text = service::renderRequest(S.request(It.Distinct));
    std::string Resp;
    auto T0 = Clock::now();
    bool Ok = C.call(Text, Resp, Error);
    double Rtt = secondsSince(T0) * 1000;
    ++Log.Checked;
    size_t At = Resp.find("\"result\": ");
    if (!Ok || At == std::string::npos || Resp.back() != '}') {
      Log.Failures.push_back("service: bad reply: " + (Ok ? Resp : Error));
      return;
    }
    std::string Core = Resp.substr(At + 10, Resp.size() - At - 11);
    bool Hit = Resp.find("\"cache\": \"hit\"") != std::string::npos;
    const FieldCase &F = S.field(It.Distinct);
    std::string Verdict, Bound;
    std::string What;
    if (!coreVerdict(Core, Verdict, Bound))
      What = "unreadable result";
    else if (Verdict != F.WantVerdict || Bound != F.WantBound)
      What = "got '" + Verdict + "' (" + Bound + "), want '" + F.WantVerdict +
             "' (" + F.WantBound + ")";
    else if (Hit != It.Repeat)
      What = It.Repeat ? "a repeat missed the cache" : "a new revision hit";
    else if (Hit && Core != MissCore[It.Distinct])
      What = "a hit's result bytes differ from its miss";
    if (!What.empty())
      Log.Failures.push_back("service " + F.Name + ": " + What);
    if (!Hit) {
      MissCore.resize(It.Distinct + 1);
      MissCore[It.Distinct] = Core;
    }
    Log.RttMs.push_back(Rtt);
    Log.Hit.push_back(Hit);
    Log.Cores.push_back(std::move(Core));
  }
}

/// Runs every connection against \p Socket and folds their checks into
/// the ledger.
std::vector<ConnLog> drive(const std::string &Socket,
                           const std::vector<FieldCase> &Fields,
                           uint64_t Seed, double Deadline, uint64_t Count,
                           Ledger &L) {
  std::vector<ConnLog> Logs(Connections);
  std::vector<Stream> Streams;
  for (unsigned C = 0; C != Connections; ++C)
    Streams.emplace_back(Fields, Seed, C);
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C != Connections; ++C)
    Threads.emplace_back(driveConnection, std::cref(Socket),
                         std::ref(Streams[C]), Deadline, Count,
                         std::ref(Logs[C]));
  for (std::thread &T : Threads)
    T.join();
  for (const ConnLog &Log : Logs) {
    for (const std::string &F : Log.Failures)
      L.check(false, F);
    for (uint64_t I = Log.Failures.size(); I < Log.Checked; ++I)
      L.check(true, "");
  }
  return Logs;
}

/// In-process replay of a traced pass's streams, one request at a time.
/// Untraced, a miss is re-checked through a fresh Session; traced, through
/// the layer-by-layer pipeline.
struct Replay {
  std::vector<double> InprocUs, ProtocolUs;
  std::vector<bool> Hit;
  std::vector<std::string> Cores;
};

Replay replay(const std::vector<FieldCase> &Fields, uint64_t Seed,
              RunReport &R, LayerCounts *C) {
  Replay Out;
  service::CheckService Svc({Workers, ""});
  for (unsigned Conn = 0; Conn != Connections; ++Conn) {
    Stream S(Fields, Seed, Conn);
    for (uint64_t N = 0; N != PassRequests; ++N) {
      std::optional<Tracer::Scope> Unit;
      if (C)
        Unit.emplace(R.T, "unit");
      Stream::Item It = S.next();
      service::Request Parsed;
      std::string Error;
      auto T0 = Clock::now();
      {
        std::optional<Tracer::Scope> P;
        if (C)
          P.emplace(R.T, "service.protocol");
        std::string Text = service::renderRequest(S.request(It.Distinct));
        R.L.expect(service::parseRequest(Text, "request", Parsed, Error),
                   "service: a request does not parse: " + Error);
      }
      double ProtoUs = secondsSince(T0) * 1e6;
      auto T1 = Clock::now();
      service::Reply Rep;
      {
        std::optional<Tracer::Scope> P;
        if (C)
          P.emplace(R.T, "service.inproc");
        Rep = Svc.check(Parsed);
      }
      Out.InprocUs.push_back(secondsSince(T1) * 1e6);
      auto T2 = Clock::now();
      {
        std::optional<Tracer::Scope> P;
        if (C)
          P.emplace(R.T, "service.protocol");
        std::string Env = service::renderCheckEnvelope(Rep.Cache, 0, Rep.Core);
        (void)Env;
      }
      Out.ProtocolUs.push_back(ProtoUs + secondsSince(T2) * 1e6);
      bool Hit = Rep.Cache == service::CacheDisposition::Hit;
      Out.Hit.push_back(Hit);
      if (!Hit) {
        // The checker layers of a miss.
        std::string Verdict, Bound, Want, WantBound;
        coreVerdict(Rep.Core, Want, WantBound);
        if (C) {
          Session Sess(Parsed.Cfg);
          Sess.config().M = CheckConfig::Mode::Race;
          auto P = tracedCompile(R.T, Sess, Parsed.Name, Parsed.Source);
          if (P && Sess.resolveRaceTarget(Parsed.Field, *P,
                                          Sess.config().Race, Error)) {
            TracedResult TR = tracedCheck(R.T, *C, Sess, *P);
            Verdict = core::getVerdictName(TR.Verdict);
            Bound = gov::getBoundReasonName(TR.Bound);
          }
        } else {
          Session Sess(Parsed.Cfg);
          std::string Core;
          bool Cacheable = false;
          service::runRequest(Sess, Parsed, Core, Cacheable);
          coreVerdict(Core, Verdict, Bound);
        }
        R.L.expect(Verdict == Want && Bound == WantBound,
                   "service " + Parsed.Name +
                       ": the layer-by-layer check disagrees with kissd");
      }
      Out.Cores.push_back(std::move(Rep.Core));
    }
  }
  return Out;
}

} // namespace

int kissbench::runService(const RunOptions &O, RunReport &R) {
  if (O.Kissd.empty()) {
    std::fprintf(stderr, "kissbench: the service workload needs --kissd\n");
    return 2;
  }
  std::vector<FieldCase> Fields = makeFields();
  std::string Socket = O.WorkDir + "/kissd-" + std::to_string(getpid()) +
                       ".sock";

  // Set-up: the time from starting kissd to its first pong. The drive
  // keeps the last daemon started; a timed run starts more after it.
  std::unique_ptr<Daemon> D;
  bool Ok = true;
  auto SetUp = [&] {
    if (!Ok)
      return 0.0; // Already failed: do not keep respawning.
    if (D)
      Ok &= D->shutdown() == 0;
    auto T0 = Clock::now();
    D = std::make_unique<Daemon>(O, Socket);
    Ok &= D->waitForPong();
    return secondsSince(T0);
  };
  std::vector<double> SetUps;
  timeSetUp(SetUp, 9, 1, SetUps);
  if (!Ok) {
    std::fprintf(stderr, "kissbench: kissd did not start or drain cleanly\n");
    return 2;
  }

  if (!O.Trace) {
    ProcUsage U0, U1;
    childUsage(D->pid(), U0);
    auto T0 = Clock::now();
    std::vector<ConnLog> Logs =
        drive(Socket, Fields, O.Seed, O.Seconds, 0, R.L);
    double Wall = secondsSince(T0);
    bool HaveUsage = childUsage(D->pid(), U1);
    std::vector<double> All, Miss;
    uint64_t Hits = 0;
    for (const ConnLog &Log : Logs)
      for (size_t I = 0; I != Log.RttMs.size(); ++I) {
        All.push_back(Log.RttMs[I]);
        if (Log.Hit[I])
          ++Hits;
        else
          Miss.push_back(Log.RttMs[I]);
      }
    R.L.expect(HaveUsage, "service: cannot read kissd's /proc entries");
    R.L.expect(D->cacheHits() == Hits,
               "service: kissd's cache_hits differs from the hits seen");
    R.L.expect(D->shutdown() == 0, "service: kissd did not drain cleanly");
    D.reset();
    timeSetUp(SetUp, 9, 1, SetUps);
    R.L.expect(Ok && D->shutdown() == 0,
               "service: kissd did not start or drain cleanly");
    R.SetupS = median(SetUps);
    ProcUsage U = usageDelta(U0, U1);
    double Units = static_cast<double>(All.size());
    R.ChecksPerS = Units / Wall;
    R.CpuMsPerCheck = (U.UserS + U.SysS) * 1000 / Units;
    R.PeakRssMb = U.PeakRssMb;
    R.MissP50Ms = median(Miss);
    R.P99Ms = percentile(All, 0.99);
    return 0;
  }

  R.L.expect(D->shutdown() == 0, "service: kissd did not drain cleanly");
  D.reset();
  auto Start = Clock::now();
  do {
    // Over the socket, against a fresh daemon.
    Daemon Fresh(O, Socket);
    if (!Fresh.waitForPong())
      return 2;
    ProcUsage U0, U1;
    childUsage(Fresh.pid(), U0);
    std::vector<ConnLog> Logs =
        drive(Socket, Fields, O.Seed, 0, PassRequests, R.L);
    childUsage(Fresh.pid(), U1);
    R.L.expect(Fresh.shutdown() == 0, "service: kissd did not drain cleanly");

    Replay Base, Traced;
    double BaseMs = 0, TracedMs = 0;
    LayerCounts C;
    R.repeat(
        [&] {
          auto T0 = Clock::now();
          Base = replay(Fields, O.Seed, R, nullptr);
          BaseMs = secondsSince(T0) * 1000;
        },
        [&] {
          R.T.startPass();
          auto T0 = Clock::now();
          Traced = replay(Fields, O.Seed, R, &C);
          TracedMs = secondsSince(T0) * 1000;
        });

    std::vector<double> HitUs, MissMs, TransportUs, HitRttMs;
    size_t At = 0;
    for (const ConnLog &Log : Logs)
      for (size_t I = 0; I != Log.RttMs.size(); ++I, ++At) {
        R.L.expect(At < Traced.Cores.size() &&
                       Traced.Cores[At] == Log.Cores[I] &&
                       Base.Cores[At] == Log.Cores[I] &&
                       Traced.Hit[At] == Log.Hit[I],
                   "service: in-process result bytes differ from kissd's");
        if (At >= Traced.Cores.size())
          break;
        ++C.Requests;
        ++C.Units;
        if (Log.Hit[I]) {
          ++C.CacheHits;
          HitUs.push_back(Traced.InprocUs[At]);
          HitRttMs.push_back(Log.RttMs[I]);
        } else {
          MissMs.push_back(Traced.InprocUs[At] / 1000);
        }
        TransportUs.push_back(Log.RttMs[I] * 1000 - Traced.InprocUs[At]);
      }
    R.sample("service.hit_p50_ms", median(HitRttMs));
    R.sample("service.inproc_hit_us", median(HitUs));
    R.sample("service.inproc_miss_ms", median(MissMs));
    R.sample("service.protocol_us", median(Traced.ProtocolUs));
    R.sample("service.transport_us", median(TransportUs));
    R.recordTracedPass(C, BaseMs, TracedMs, usageDelta(U0, U1));
  } while (secondsSince(Start) < O.Seconds);
  return 0;
}
