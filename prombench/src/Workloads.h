//===- prombench/src/Workloads.h - The benchmark workloads -----*- C++ -*-===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three workloads and the machinery the two served ones share.
///
/// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
/// (--trace 1) repeat the workload's main phase with spans on and report
/// the per-layer metrics. Every metric is emitted on every workload; a
/// layer a workload does not exercise reports 0.
///
//===----------------------------------------------------------------------===//

#ifndef PROMBENCH_WORKLOADS_H
#define PROMBENCH_WORKLOADS_H

#include "Fixture.h"
#include "Harness.h"

#include "serve/AssessmentService.h"
#include "serve/RecalibrationController.h"
#include "serve/WindowedDriftMonitor.h"

#include <functional>
#include <memory>

namespace pb {

void runServePoisson(const Options &O, Report &Rep);
void runStore100k(const Options &O, Report &Rep);
void runFleetZipfRefresh(const Options &O, Report &Rep);

/// The per-layer metrics (see README.md for what moves what).
struct LayerMetrics {
  double ServiceMeanBatch = 0, ServiceDeadlineFlushShare = 0;
  double ServiceOverheadUs = 0, ServiceQueueWaitUs = 0;
  double ForwardUsPerSample = 0, CommitteeUsPerSample = 0;
  double StorePrepareBatchUs = 0, StoreSelectUsPerQuery = 0;
  double StorePValuesUsPerQuery = 0, StoreRowsScannedFraction = 0;
  double StoreListsScannedFraction = 0, ScoreAllUsPerSample = 0;
  double RegistryHitRatio = 0, RegistryAcquireHitUs = 0;
  double RegistryColdLoadMs = 0, RegistryEvictions = 0;
  double SnapshotSaveMs = 0, SnapshotLoadMs = 0;
  double RecalRefreshMs = 0, RecalRefreshesCompleted = 0;
  double RecalSamplesFolded = 0, RecalRefreshFailures = 0;
  double GenLatenessP99Us = 0, UnattributedShare = 0, TraceOverheadShare = 0;

  /// Folds a replay's counters into the store / nonconformity metrics.
  void setReplay(const ReplayStats &R);
  void emit(Report &Rep) const;
};

/// Builds a service; \p Paused starts it parked (closed-system drain).
using MakeServiceFn = std::function<std::unique_ptr<prom::serve::AssessmentService>(
    bool Paused, size_t QueueCapacity)>;
/// Submits request \p I of \p Schedule to \p Svc.
using ServedSubmitFn = std::function<std::future<prom::Verdict>(
    prom::serve::AssessmentService &Svc, const Request &R)>;

/// Serving configuration of both served workloads: one batcher, the
/// default 64-request batches and 200us flush deadline, Block admission
/// (nothing is shed; overload shows up as latency from the due time).
prom::serve::ServiceConfig servedConfig(bool Paused, size_t QueueCapacity);

/// Runs \p Schedule against a fresh service and records it as a phase.
OpenLoopResult runPhase(const std::string &Name, bool Measured,
                        const std::vector<Request> &Schedule,
                        const MakeServiceFn &Make, const ServedSubmitFn &Submit,
                        bool KeepVerdicts, Report &Rep,
                        const VerdictFn &OnVerdict = nullptr,
                        prom::serve::ServiceStats *StatsOut = nullptr);

/// Latency summary of a phase, printed and recorded as config entries.
void describeLatency(const std::string &Tag, double Rps,
                     const OpenLoopResult &R, Report &Rep);

/// Highest offered Poisson rate in [\p LoRps, \p HiRps] whose p99 (from due
/// time) stays within \p LimitUs with nothing shed or hung and no backlog
/// left at the end: geometric bisection over \p Steps steps of \p StepSec.
/// \p BetweenSteps (may be null) runs after every step.
double sloSearch(double LoRps, double HiRps, int Steps, double StepSec,
                 double LimitUs, uint64_t Seed,
                 const std::function<void(Request &)> &Pick,
                 const MakeServiceFn &Make, const ServedSubmitFn &Submit,
                 Report &Rep, const std::function<void()> &BetweenSteps);

/// Closed-system capacity: \p Staged requests are queued in a paused
/// service, which is then started and timed until drained. Repetitions
/// are spread over the run (run() between other phases) and the best one
/// is reported: the host only ever slows a drain down, and slow stretches
/// of a shared host last seconds.
class DrainProbe {
public:
  DrainProbe(std::vector<Request> Staged, const MakeServiceFn &Make,
             const ServedSubmitFn &Submit)
      : Staged(std::move(Staged)), Make(Make), Submit(Submit) {}
  void run(int Reps);
  /// Records the phase and returns the best rate (requests per second).
  double finish(Report &Rep);

private:
  std::vector<Request> Staged;
  const MakeServiceFn &Make;
  const ServedSubmitFn &Submit;
  std::vector<double> Rates;
  Phase P{"drain_capacity"};
};

/// Engine-side view of one served micro-batch, rebuilt from a TracedModel
/// log: which requests rode in it, when it reached the model, and the
/// replayed engine time of the same batch.
struct ServedBatch {
  std::vector<size_t> Reqs;
  Clock::time_point FwdStart, FwdEnd;
  double ReplayForwardUs = 0, ReplayCommitteeUs = 0;
};

/// Maps the forward calls of \p Calls to requests [0, N) of a phase whose
/// sample ids are IdOf(request).
std::vector<ServedBatch> batchesFromCalls(const std::vector<ForwardCall> &Calls,
                                          const std::vector<uint64_t> &IdOfReq);

/// Span and attribution pass over a traced served phase: writes request
/// spans (lateness, submit, queue, forward, replayed committee) and fills
/// the service / forward / committee / unattributed metrics.
void attributeServed(const OpenLoopResult &R,
                     const std::vector<ServedBatch> &Batches, Tracer &T,
                     LayerMetrics &M);

/// Writes \p T to OutDir/trace-<workload>.jsonl (the latest traced run of
/// each workload is kept) and records the path; a failed write fails the
/// run.
void writeTrace(const Tracer &T, const Options &O, Report &Rep);

/// Median time of \p Fn over \p Reps calls, in microseconds.
double medianUs(int Reps, const std::function<void()> &Fn);

/// Runs \p Setup \p Times times and returns the median wall time in
/// seconds; the last set-up's state is what the workload then measures.
double timedSetups(int Times, const std::function<void()> &Setup, Report &Rep);

/// Checks served \p Verdicts (element I answers \p Samples[I]) bit for bit
/// against a direct assessBatch over the same samples, and the first one
/// plus a seeded subset (about one in \p SerialEvery) against the
/// assessSerial() oracle.
void checkVerdicts(const std::string &Tag, const prom::PromClassifier &Engine,
                   const prom::data::Dataset &Samples,
                   const std::vector<prom::Verdict> &Verdicts, uint64_t Seed,
                   size_t SerialEvery, Report &Rep);

/// Milliseconds from triggerRefresh() on \p Ctl until its
/// RefreshesCompleted increments (-1 after 20 s without).
double timeRefresh(prom::serve::RecalibrationController &Ctl);

/// Label-to-live probes: relabelled samples are handed to a
/// RecalibrationController over an engine, then the time from
/// triggerRefresh() to RefreshesCompleted incrementing is taken. Probes
/// can be spread over the run (run() between other phases); the figure is
/// their median.
class RefreshProbe {
public:
  RefreshProbe(prom::PromClassifier &Engine, const prom::data::Dataset &Pool,
               size_t PerProbe);
  ~RefreshProbe();
  RefreshProbe(const RefreshProbe &) = delete;
  RefreshProbe &operator=(const RefreshProbe &) = delete;
  void run(int Probes);
  /// Records the phase, stops the controller and returns the figure (ms).
  double finish(Report &Rep);
  /// Counters of the controller (valid after finish()).
  const prom::serve::RecalibrationStats &stats() const { return Stats; }

private:
  const prom::data::Dataset &Pool;
  size_t PerProbe;
  size_t Cursor = 0;
  prom::serve::WindowedDriftMonitor Monitor;
  std::unique_ptr<prom::serve::RecalibrationController> Ctl;
  std::vector<double> Ms;
  Phase P{"label_to_live"};
  prom::serve::RecalibrationStats Stats;
};

} // namespace pb

#endif // PROMBENCH_WORKLOADS_H
