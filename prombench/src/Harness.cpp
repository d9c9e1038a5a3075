//===- prombench/src/Harness.cpp - Benchmark plumbing ----------------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "support/Rng.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <condition_variable>
#include <thread>

using namespace prom;

namespace pb {

double quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  double Rank = std::ceil(Q * static_cast<double>(Values.size()));
  size_t Index = Rank < 1.0 ? 0 : static_cast<size_t>(Rank) - 1;
  return Values[std::min(Index, Values.size() - 1)];
}

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

namespace {

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      C = ' ';
    Out += C;
  }
  return Out + "\"";
}

} // namespace

void Report::metric(const std::string &Name, double Value,
                    const std::string &Unit) {
  if (!std::isfinite(Value))
    fail("metric " + Name + " is not finite");
  Metrics.push_back({Name, Value, Unit});
}

void Report::info(const std::string &Key, double Value) {
  Infos.emplace_back(Key, jsonNumber(Value));
}

void Report::info(const std::string &Key, const std::string &Value) {
  Infos.emplace_back(Key, jsonString(Value));
}

void Report::fail(const std::string &Why) {
  std::fprintf(stderr, "prombench: correctness failure: %s\n", Why.c_str());
  Failures.push_back(Why);
}

void Report::print() const {
  uint64_t Attempted = 0, Failed = 0;
  std::string Detail = "{\"config\": {";
  for (size_t I = 0; I < Infos.size(); ++I)
    Detail += (I ? ", " : "") + jsonString(Infos[I].first) + ": " +
              Infos[I].second;
  Detail += "}, \"phases\": [";
  for (size_t I = 0; I < Phases.size(); ++I) {
    const Phase &P = Phases[I];
    if (P.Measured) {
      Attempted += P.Attempted;
      Failed += P.Failed;
    }
    Detail += std::string(I ? ", " : "") + "{\"name\": " + jsonString(P.Name) +
              ", \"attempted\": " + std::to_string(P.Attempted) +
              ", \"succeeded\": " + std::to_string(P.Succeeded) +
              ", \"failed\": " + std::to_string(P.Failed) +
              ", \"measured\": " + (P.Measured ? "true" : "false") + "}";
  }
  Detail += "], \"failures\": [";
  for (size_t I = 0; I < Failures.size(); ++I)
    Detail += (I ? ", " : "") + jsonString(Failures[I]);
  Detail += "]}";
  std::printf("%s\n", Detail.c_str());

  std::string Result = std::string("{\"correct\": ") +
                       (correct() ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(Attempted) +
                       ", \"failed\": " + std::to_string(Failed) +
                       ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I)
    Result += (I ? ", " : "") + jsonString(Metrics[I].Name) +
              ": {\"value\": " + jsonNumber(Metrics[I].Value) +
              ", \"unit\": " + jsonString(Metrics[I].Unit) + "}";
  Result += "}}";
  std::printf("%s\n", Result.c_str());
  std::fflush(stdout);
}

//===----------------------------------------------------------------------===//
// Tracer and TracedModel
//===----------------------------------------------------------------------===//

uint64_t Tracer::add(const char *Name, uint64_t Parent, uint64_t Req,
                     Clock::time_point Start, Clock::time_point End) {
  Span S;
  S.Name = Name;
  S.Parent = Parent;
  S.Req = Req;
  S.StartUs = usBetween(Origin, Start);
  S.EndUs = usBetween(Origin, End);
  std::lock_guard<std::mutex> Lock(Mutex);
  S.Id = NextId++;
  Spans.push_back(S);
  return S.Id;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Spans.size();
}

bool Tracer::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::lock_guard<std::mutex> Lock(Mutex);
  for (const Span &S : Spans)
    std::fprintf(F,
                 "{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                 "\"req\": %llu, \"start_us\": %.3f, \"end_us\": %.3f}\n",
                 S.Name, static_cast<unsigned long long>(S.Id),
                 static_cast<unsigned long long>(S.Parent),
                 static_cast<unsigned long long>(S.Req), S.StartUs, S.EndUs);
  return std::fclose(F) == 0;
}

void TracedModel::fit(const data::Dataset &, support::Rng &) {
  throw std::logic_error("TracedModel wraps an already-trained model");
}

void TracedModel::predictWithEmbedBatch(const data::Dataset &Batch,
                                        support::Matrix &Probs,
                                        support::Matrix &Embeds) const {
  if (!Recording.load(std::memory_order_relaxed)) {
    Inner.predictWithEmbedBatch(Batch, Probs, Embeds);
    return;
  }
  ForwardCall Call;
  Call.Start = Clock::now();
  Inner.predictWithEmbedBatch(Batch, Probs, Embeds);
  Call.End = Clock::now();
  Call.Ids.reserve(Batch.size());
  for (size_t I = 0; I < Batch.size(); ++I)
    Call.Ids.push_back(Batch[I].Id);
  std::lock_guard<std::mutex> Lock(Mutex);
  Calls.push_back(std::move(Call));
}

std::vector<ForwardCall> TracedModel::takeCalls() {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<ForwardCall> Out;
  Out.swap(Calls);
  return Out;
}

//===----------------------------------------------------------------------===//
// Verdict checks and quality
//===----------------------------------------------------------------------===//

static bool sameBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

bool sameVerdict(const Verdict &A, const Verdict &B) {
  if (A.Predicted != B.Predicted || A.Drifted != B.Drifted ||
      A.VotesToFlag != B.VotesToFlag ||
      A.Probabilities.size() != B.Probabilities.size() ||
      A.Experts.size() != B.Experts.size())
    return false;
  for (size_t I = 0; I < A.Probabilities.size(); ++I)
    if (!sameBits(A.Probabilities[I], B.Probabilities[I]))
      return false;
  for (size_t E = 0; E < A.Experts.size(); ++E) {
    const ExpertOpinion &X = A.Experts[E], &Y = B.Experts[E];
    if (!sameBits(X.Credibility, Y.Credibility) ||
        !sameBits(X.Confidence, Y.Confidence) ||
        X.PredictionSetSize != Y.PredictionSetSize ||
        X.FlagDrift != Y.FlagDrift)
      return false;
  }
  return true;
}

void Quality::add(const Verdict &V, int TrueLabel) {
  if (V.Predicted != TrueLabel) {
    ++Mispredicted;
    MispredRejected += V.Drifted ? 1 : 0;
  } else {
    ++Correct;
    CorrectRejected += V.Drifted ? 1 : 0;
  }
}

double Quality::recall() const {
  return Mispredicted ? static_cast<double>(MispredRejected) /
                            static_cast<double>(Mispredicted)
                      : 0.0;
}

double Quality::falseRejectRate() const {
  return Correct ? static_cast<double>(CorrectRejected) /
                       static_cast<double>(Correct)
                 : 0.0;
}

//===----------------------------------------------------------------------===//
// Open-loop load generation
//===----------------------------------------------------------------------===//

static CpuPlan Plan;

const CpuPlan &CpuPlan::init() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  std::vector<int> Cpus;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Set))
        Cpus.push_back(C);
  if (Cpus.size() >= 4) {
    Plan.Generator = Cpus.back();
    Cpus.pop_back();
    Plan.Work = Cpus;
    pinThisThread(Plan.Work);
  }
  return Plan;
}

const CpuPlan &CpuPlan::get() { return Plan; }

void pinThisThread(const std::vector<int> &Cpus) {
  if (Cpus.empty())
    return;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  for (int C : Cpus)
    CPU_SET(C, &Set);
  sched_setaffinity(0, sizeof(Set), &Set);
}

std::vector<Request>
poissonSchedule(double Rps, double Seconds, uint64_t Seed,
                const std::function<void(Request &)> &Pick) {
  support::Rng R(Seed);
  std::vector<Request> Out;
  Out.reserve(static_cast<size_t>(Rps * Seconds * 1.1) + 16);
  double T = 0.0;
  while (true) {
    T += -std::log(1.0 - R.uniform()) / Rps;
    if (T >= Seconds)
      break;
    Request Req;
    Req.DueSec = T;
    Out.push_back(Req);
  }
  for (Request &Req : Out)
    Pick(Req);
  return Out;
}

uint64_t OpenLoopResult::served() const {
  uint64_t N = 0;
  for (char S : Served)
    N += S ? 1 : 0;
  return N;
}

std::vector<double> OpenLoopResult::latenciesUs() const {
  std::vector<double> Out;
  Out.reserve(size());
  for (size_t I = 0; I < size(); ++I)
    if (Served[I])
      Out.push_back(usBetween(Due[I], Seen[I]));
  return Out;
}

std::vector<double> OpenLoopResult::latenessUs() const {
  std::vector<double> Out;
  Out.reserve(size());
  for (size_t I = 0; I < size(); ++I)
    Out.push_back(std::max(0.0, usBetween(Due[I], SubmitStart[I])));
  return Out;
}

double windowedQuantile(const std::vector<double> &LatUs, double Q,
                        double Over, size_t Window) {
  std::vector<double> PerWindow;
  for (size_t B = 0; B + Window <= LatUs.size(); B += Window)
    PerWindow.push_back(quantile(
        std::vector<double>(LatUs.begin() + B, LatUs.begin() + B + Window),
        Q));
  return PerWindow.empty() ? quantile(LatUs, Q) : quantile(PerWindow, Over);
}

OpenLoopResult runOpenLoop(const std::vector<Request> &Schedule,
                           const SubmitFn &Submit, bool KeepVerdicts,
                           const VerdictFn &OnVerdict,
                           std::chrono::seconds HangTimeout) {
  const size_t N = Schedule.size();
  OpenLoopResult Res;
  Res.Due.resize(N);
  Res.SubmitStart.resize(N);
  Res.SubmitEnd.resize(N);
  Res.Seen.resize(N);
  Res.Served.assign(N, 0);
  if (KeepVerdicts)
    Res.Verdicts.resize(N);
  std::vector<std::future<Verdict>> Futures(N);

  // The generator publishes each future before bumping Published; the
  // harvester only touches futures below it.
  std::mutex PubMutex;
  std::condition_variable PubCv;
  size_t Published = 0;
  uint64_t Shed = 0, Hung = 0;

  std::thread Harvester([&] {
    for (size_t I = 0; I < N; ++I) {
      {
        std::unique_lock<std::mutex> Lock(PubMutex);
        PubCv.wait(Lock, [&] { return Published > I; });
      }
      std::future<Verdict> &F = Futures[I];
      if (F.wait_for(HangTimeout) != std::future_status::ready) {
        ++Hung;
        continue;
      }
      Res.Seen[I] = Clock::now();
      try {
        Verdict V = F.get();
        Res.Served[I] = 1;
        if (OnVerdict)
          OnVerdict(I, V);
        if (KeepVerdicts)
          Res.Verdicts[I] = std::move(V);
      } catch (const std::exception &) {
        ++Shed;
      }
    }
  });

  // The harvester started on the work CPUs; the generator moves to its
  // own for the emission loop.
  const CpuPlan &Cpus = CpuPlan::get();
  if (Cpus.Generator >= 0)
    pinThisThread({Cpus.Generator});

  // Open loop: wait for each request's due time and submit; a stall makes
  // later requests late, and that lateness is part of their latency.
  const Clock::time_point Start = Clock::now() + std::chrono::milliseconds(2);
  for (size_t I = 0; I < N; ++I) {
    Clock::time_point Due =
        Start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(Schedule[I].DueSec));
    Res.Due[I] = Due;
    // Sleep until just before the due time, then spin the rest: the
    // generator stays off the CPUs the service needs without charging a
    // wake-up to the request.
    if (Due - Clock::now() > std::chrono::microseconds(150))
      std::this_thread::sleep_until(Due - std::chrono::microseconds(100));
    while (Clock::now() < Due)
      cpuRelax();
    Res.SubmitStart[I] = Clock::now();
    Futures[I] = Submit(I);
    Res.SubmitEnd[I] = Clock::now();
    {
      std::lock_guard<std::mutex> Lock(PubMutex);
      Published = I + 1;
    }
    PubCv.notify_one();
  }
  pinThisThread(Cpus.Work);
  Harvester.join();
  Res.Shed = Shed;
  Res.Hung = Hung;
  return Res;
}

} // namespace pb
