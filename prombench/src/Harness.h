//===- prombench/src/Harness.h - Benchmark plumbing ------------*- C++ -*-===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing of the repository benchmark: command-line options, the
/// result report (metrics, phases, configuration, correctness failures),
/// the in-memory span recorder, the traced model shim, exact-sample
/// percentiles, the open-loop load generator, and the bit-for-bit verdict
/// comparison every workload's correctness gate uses.
///
/// Everything here sits outside the library: layers are timed around
/// calls into their public functions, never from inside them.
///
//===----------------------------------------------------------------------===//

#ifndef PROMBENCH_HARNESS_H
#define PROMBENCH_HARNESS_H

#include "core/Detector.h"
#include "ml/Model.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

/// Microseconds from \p From to \p To.
inline double usBetween(Clock::time_point From, Clock::time_point To) {
  return std::chrono::duration<double, std::micro>(To - From).count();
}

/// Parsed command line.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 20.0;
  bool Trace = false;
  std::string OutDir = ".bench_out"; ///< Trace and snapshot files.
};

/// Quantile \p Q in [0, 1] of \p Values by the nearest-rank rule on the
/// exact samples (0 when empty).
double quantile(std::vector<double> Values, double Q);

/// Median of \p Values (0 when empty).
inline double median(std::vector<double> Values) {
  return quantile(std::move(Values), 0.5);
}

/// Operations of one benchmark phase. Measured phases count towards the
/// result's attempted/failed totals; exploratory ones (the SLO search
/// deliberately overloads the service) are reported but not counted.
struct Phase {
  std::string Name;
  uint64_t Attempted = 0;
  uint64_t Succeeded = 0;
  uint64_t Failed = 0;
  bool Measured = true;
};

/// Everything one run prints: metrics by name and unit, per-phase
/// operation counts, the configuration that produced them, and any
/// correctness failure (which makes the result incorrect).
class Report {
public:
  void metric(const std::string &Name, double Value, const std::string &Unit);
  void info(const std::string &Key, double Value);
  void info(const std::string &Key, const std::string &Value);
  void phase(Phase P) { Phases.push_back(std::move(P)); }
  /// Records a correctness failure.
  void fail(const std::string &Why);
  bool correct() const { return Failures.empty(); }

  /// Prints the detail line (configuration, phases, failures) and then,
  /// as the last line of standard output, the result object.
  void print() const;

private:
  struct Metric {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Metric> Metrics;
  std::vector<std::pair<std::string, std::string>> Infos; ///< JSON values.
  std::vector<Phase> Phases;
  std::vector<std::string> Failures;
};

/// One recorded span. Spans of one request share Req; Parent names the
/// span that caused this one (0 for a root).
struct Span {
  const char *Name = "";
  uint64_t Id = 0;
  uint64_t Parent = 0;
  uint64_t Req = 0;
  double StartUs = 0.0; ///< Since the tracer's origin.
  double EndUs = 0.0;
};

/// In-memory span recorder. Thread-safe; spans are written out once, at
/// the end of the run.
class Tracer {
public:
  explicit Tracer(Clock::time_point Origin = Clock::now()) : Origin(Origin) {}
  uint64_t add(const char *Name, uint64_t Parent, uint64_t Req,
               Clock::time_point Start, Clock::time_point End);
  size_t size() const;
  /// Writes one JSON object per span to \p Path; false on I/O failure.
  bool write(const std::string &Path) const;

private:
  Clock::time_point Origin;
  mutable std::mutex Mutex;
  std::vector<Span> Spans;
  uint64_t NextId = 1;
};

/// One forward call seen by a TracedModel.
struct ForwardCall {
  Clock::time_point Start, End;
  std::vector<uint64_t> Ids; ///< Sample ids of the batch, in order.
};

/// Forwarding shim around the deployed classifier. While recording is on
/// it logs every batched forward with the sample ids it served — that is
/// how the benchmark sees, from outside the service, which requests rode
/// in which micro-batch and when the batch reached the model. With
/// recording off it only forwards, so verdicts are those of the wrapped
/// model bit for bit.
class TracedModel : public prom::ml::Classifier {
public:
  explicit TracedModel(const prom::ml::Classifier &Inner) : Inner(Inner) {}

  void fit(const prom::data::Dataset &, prom::support::Rng &) override;
  std::vector<double> predictProba(const prom::data::Sample &S) const override {
    return Inner.predictProba(S);
  }
  std::vector<double> embed(const prom::data::Sample &S) const override {
    return Inner.embed(S);
  }
  prom::support::Matrix
  predictProbaBatch(const prom::data::Dataset &B) const override {
    return Inner.predictProbaBatch(B);
  }
  prom::support::Matrix embedBatch(const prom::data::Dataset &B) const override {
    return Inner.embedBatch(B);
  }
  void predictWithEmbedBatch(const prom::data::Dataset &Batch,
                             prom::support::Matrix &Probs,
                             prom::support::Matrix &Embeds) const override;
  int numClasses() const override { return Inner.numClasses(); }
  std::string name() const override { return Inner.name(); }

  void setRecording(bool On) { Recording.store(On); }
  /// Moves the recorded calls out.
  std::vector<ForwardCall> takeCalls();

private:
  const prom::ml::Classifier &Inner;
  std::atomic<bool> Recording{false};
  mutable std::mutex Mutex;
  mutable std::vector<ForwardCall> Calls;
};

/// Bit-for-bit verdict equality (every field, doubles compared by bits).
bool sameVerdict(const prom::Verdict &A, const prom::Verdict &B);

/// Detection quality over labelled verdicts.
struct Quality {
  uint64_t Mispredicted = 0, MispredRejected = 0;
  uint64_t Correct = 0, CorrectRejected = 0;
  void add(const prom::Verdict &V, int TrueLabel);
  double recall() const;
  double falseRejectRate() const;
};

//===----------------------------------------------------------------------===//
// Open-loop load generation
//===----------------------------------------------------------------------===//

/// One request of a load schedule.
struct Request {
  double DueSec = 0.0;  ///< Offset from the start of the run.
  size_t Sample = 0;    ///< Index into the traffic sample pool.
  int Tenant = -1;      ///< Fleet tenant (-1 single-tenant).
};

/// CPU placement: with at least four CPUs available the load generator
/// runs alone on the last one and every other thread (the library's pool
/// and batchers, the harvester) stays on the rest, so the generator's
/// final busy-wait before each due time never delays a verdict's
/// hand-off. With fewer CPUs nothing is pinned.
struct CpuPlan {
  std::vector<int> Work; ///< CPUs of every thread but the generator.
  int Generator = -1;    ///< The generator's CPU (-1: not pinned).
  /// Reads the process's CPU set and pins the calling thread to Work; call
  /// before any other thread starts so they inherit it.
  static const CpuPlan &init();
  static const CpuPlan &get();
};

/// Busy-wait hint for the generator's last microseconds before a due time.
inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Pins the calling thread to \p Cpus (no-op when empty).
void pinThisThread(const std::vector<int> &Cpus);

/// Poisson arrivals at \p Rps for \p Seconds; samples and tenants are
/// drawn by \p Pick (which receives the request index).
std::vector<Request> poissonSchedule(double Rps, double Seconds, uint64_t Seed,
                                     const std::function<void(Request &)> &Pick);

/// Per-request outcome of an open-loop run.
struct OpenLoopResult {
  std::vector<Clock::time_point> Due, SubmitStart, SubmitEnd, Seen;
  std::vector<char> Served;     ///< 1 = verdict, 0 = shed/hung.
  std::vector<prom::Verdict> Verdicts; ///< Filled when kept.
  uint64_t Shed = 0, Hung = 0;

  size_t size() const { return Due.size(); }
  uint64_t served() const;
  std::vector<double> latenciesUs() const; ///< Due -> verdict, served only.
  std::vector<double> latenessUs() const;  ///< Due -> submit start.
};

/// Requests per window of windowedQuantile() for a p99: ten beyond it.
constexpr size_t WindowRequests = 1000;

/// A latency quantile robust to host interference: quantile \p Q of each
/// consecutive \p Window-request window of \p LatUs (in request order),
/// and quantile \p Over of those per-window values (0 = the best window,
/// 0.25 = the lower quartile). On a shared virtual machine the host can
/// stall a CPU for milliseconds or slow it for seconds; that spoils the
/// windows it falls in, while a slower program raises every window. With
/// fewer than one full window, the plain quantile.
double windowedQuantile(const std::vector<double> &LatUs, double Q,
                        double Over, size_t Window = WindowRequests);

/// Submits one request; returns its future.
using SubmitFn = std::function<std::future<prom::Verdict>(size_t ReqIndex)>;
/// Called on the harvester thread for each served verdict.
using VerdictFn = std::function<void(size_t ReqIndex, const prom::Verdict &)>;

/// Emits \p Schedule from the calling thread, harvests every future on a
/// second thread, and times each request from its due time. Futures that
/// resolve to neither a verdict nor a shed within \p HangTimeout count as
/// hung.
OpenLoopResult runOpenLoop(const std::vector<Request> &Schedule,
                           const SubmitFn &Submit, bool KeepVerdicts,
                           const VerdictFn &OnVerdict = nullptr,
                           std::chrono::seconds HangTimeout =
                               std::chrono::seconds(10));

} // namespace pb

#endif // PROMBENCH_HARNESS_H
