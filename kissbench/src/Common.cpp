//===- Common.cpp ---------------------------------------------------------===//
//
// Part of the KISS reproduction of Qadeer & Wu, PLDI 2004.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <sys/resource.h>
#include <unistd.h>

using namespace kissbench;

void Ledger::check(bool Ok, const std::string &What) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  std::fprintf(stderr, "kissbench: FAILED: %s\n", What.c_str());
}

void Ledger::expect(bool Ok, const std::string &What) {
  if (Ok)
    return;
  ++Failed;
  std::fprintf(stderr, "kissbench: FAILED: %s\n", What.c_str());
}

ProcUsage kissbench::selfUsage() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  ProcUsage P;
  P.UserS = static_cast<double>(U.ru_utime.tv_sec) +
            static_cast<double>(U.ru_utime.tv_usec) / 1e6;
  P.SysS = static_cast<double>(U.ru_stime.tv_sec) +
           static_cast<double>(U.ru_stime.tv_usec) / 1e6;
  P.MinorFaults = static_cast<uint64_t>(U.ru_minflt);
  P.PeakRssMb = static_cast<double>(U.ru_maxrss) / 1024.0;
  return P;
}

bool kissbench::childUsage(pid_t Pid, ProcUsage &Out) {
  std::ifstream Stat("/proc/" + std::to_string(Pid) + "/stat");
  std::string Line;
  if (!std::getline(Stat, Line))
    return false;
  // The command name may hold spaces; fields resume after its ')'.
  size_t Close = Line.rfind(')');
  if (Close == std::string::npos)
    return false;
  std::istringstream In(Line.substr(Close + 2));
  std::vector<std::string> F;
  for (std::string Tok; In >> Tok;)
    F.push_back(Tok);
  // After ')': state(0) ppid pgrp session tty tpgid flags minflt(7)
  // cminflt majflt cmajflt utime(11) stime(12).
  if (F.size() < 13)
    return false;
  double Tick = static_cast<double>(sysconf(_SC_CLK_TCK));
  Out.MinorFaults = std::stoull(F[7]);
  Out.UserS = static_cast<double>(std::stoull(F[11])) / Tick;
  Out.SysS = static_cast<double>(std::stoull(F[12])) / Tick;

  std::ifstream Status("/proc/" + std::to_string(Pid) + "/status");
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      Out.PeakRssMb = std::stod(Line.substr(6)) / 1024.0; // kB -> MB
  return true;
}

double kissbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double kissbench::percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank =
      static_cast<size_t>(std::ceil(P * static_cast<double>(V.size())));
  return V[Rank == 0 ? 0 : Rank - 1];
}

void MetricSink::add(const std::string &Name, double Value,
                     const std::string &Unit) {
  Entries.push_back({Name, std::isfinite(Value) ? Value : 0, Unit});
}

std::string MetricSink::json() const {
  std::string Out = "{";
  char Buf[64];
  for (size_t I = 0; I != Entries.size(); ++I) {
    if (I)
      Out += ", ";
    std::snprintf(Buf, sizeof(Buf), "%.17g", Entries[I].Value);
    Out += "\"" + Entries[I].Name + "\": {\"value\": " + Buf +
           ", \"unit\": \"" + Entries[I].Unit + "\"}";
  }
  return Out + "}";
}

int Tracer::begin(const char *Name) {
  double Now =
      std::chrono::duration<double, std::micro>(Clock::now() - Epoch).count();
  int Parent = Open.empty() ? -1 : Open.back();
  if (Parent < 0)
    ++Units;
  Spans.push_back({Name, Now, Now, Parent, Units, Pass});
  int Id = static_cast<int>(Spans.size() - 1);
  Open.push_back(Id);
  return Id;
}

void Tracer::end(int Id) {
  Spans[Id].EndUs =
      std::chrono::duration<double, std::micro>(Clock::now() - Epoch).count();
  Open.pop_back();
}

void Tracer::startPass() {
  ++Pass;
  PassBegin = Spans.size();
}

std::vector<std::pair<std::string, double>> Tracer::selfMsByName() const {
  std::map<std::string, double> Self;
  for (size_t I = PassBegin; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    double Dur = (S.EndUs - S.StartUs) / 1000.0;
    Self[S.Name] += Dur;
    if (S.Parent >= 0)
      Self[Spans[S.Parent].Name] -= Dur;
  }
  return {Self.begin(), Self.end()};
}

double Tracer::rootMs() const {
  double Ms = 0;
  for (size_t I = PassBegin; I != Spans.size(); ++I)
    if (Spans[I].Parent < 0)
      Ms += (Spans[I].EndUs - Spans[I].StartUs) / 1000.0;
  return Ms;
}

bool Tracer::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                 "\"end_us\": %.3f, \"parent\": %d, \"unit\": %llu, "
                 "\"pass\": %u}\n",
                 I, S.Name, S.StartUs, S.EndUs, S.Parent,
                 static_cast<unsigned long long>(S.Unit), S.Pass);
  }
  return std::fclose(F) == 0;
}
