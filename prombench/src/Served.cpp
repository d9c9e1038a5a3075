//===- prombench/src/Served.cpp - Shared served-workload machinery ---------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "serve/RecalibrationController.h"
#include "serve/WindowedDriftMonitor.h"
#include "support/Rng.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

using namespace prom;

namespace pb {

void LayerMetrics::setReplay(const ReplayStats &R) {
  if (R.Batches == 0 || R.Queries == 0)
    return;
  double Q = static_cast<double>(R.Queries);
  StorePrepareBatchUs = R.PrepareUs / static_cast<double>(R.Batches);
  StoreSelectUsPerQuery = R.SelectUs / Q;
  StorePValuesUsPerQuery = R.PValuesUs / Q;
  ScoreAllUsPerSample = R.ScoreUs / Q;
  // The exact scan visits every row and has no lists to skip.
  StoreRowsScannedFraction =
      R.Scan.RowsTotal ? static_cast<double>(R.Scan.RowsScanned) /
                             static_cast<double>(R.Scan.RowsTotal)
                       : 1.0;
  StoreListsScannedFraction =
      R.Scan.ListsTotal ? static_cast<double>(R.Scan.ListsScanned) /
                              static_cast<double>(R.Scan.ListsTotal)
                        : 0.0;
}

void LayerMetrics::emit(Report &Rep) const {
  Rep.metric("service.mean_batch_size", ServiceMeanBatch, "count");
  Rep.metric("service.deadline_flush_share", ServiceDeadlineFlushShare,
             "ratio");
  Rep.metric("service.overhead_us", ServiceOverheadUs, "us");
  Rep.metric("service.queue_wait_us", ServiceQueueWaitUs, "us");
  Rep.metric("ml.forward_us_per_sample", ForwardUsPerSample, "us");
  Rep.metric("core.committee_us_per_sample", CommitteeUsPerSample, "us");
  Rep.metric("store.prepare_batch_us", StorePrepareBatchUs, "us");
  Rep.metric("store.select_us_per_query", StoreSelectUsPerQuery, "us");
  Rep.metric("store.pvalues_us_per_query", StorePValuesUsPerQuery, "us");
  Rep.metric("store.rows_scanned_fraction", StoreRowsScannedFraction,
             "ratio");
  Rep.metric("store.lists_scanned_fraction", StoreListsScannedFraction,
             "ratio");
  Rep.metric("nonconformity.scoreall_us_per_sample", ScoreAllUsPerSample,
             "us");
  Rep.metric("registry.hit_ratio", RegistryHitRatio, "ratio");
  Rep.metric("registry.acquire_hit_us", RegistryAcquireHitUs, "us");
  Rep.metric("registry.cold_load_ms", RegistryColdLoadMs, "ms");
  Rep.metric("registry.evictions", RegistryEvictions, "count");
  Rep.metric("snapshot.save_ms", SnapshotSaveMs, "ms");
  Rep.metric("snapshot.load_ms", SnapshotLoadMs, "ms");
  Rep.metric("recal.refresh_ms", RecalRefreshMs, "ms");
  Rep.metric("recal.refreshes_completed", RecalRefreshesCompleted, "count");
  Rep.metric("recal.samples_folded", RecalSamplesFolded, "count");
  Rep.metric("recal.refresh_failures", RecalRefreshFailures, "count");
  Rep.metric("gen.lateness_p99_us", GenLatenessP99Us, "us");
  Rep.metric("trace.unattributed_share", UnattributedShare, "ratio");
  Rep.metric("trace.overhead_share", TraceOverheadShare, "ratio");
}

serve::ServiceConfig servedConfig(bool Paused, size_t QueueCapacity) {
  serve::ServiceConfig Cfg;
  Cfg.NumBatchers = 1;
  Cfg.MaxBatch = 64;
  Cfg.FlushDeadline = std::chrono::microseconds(200);
  Cfg.QueueCapacity = QueueCapacity;
  Cfg.Shed = serve::ShedPolicy::Block;
  Cfg.StartPaused = Paused;
  return Cfg;
}

OpenLoopResult runPhase(const std::string &Name, bool Measured,
                        const std::vector<Request> &Schedule,
                        const MakeServiceFn &Make, const ServedSubmitFn &Submit,
                        bool KeepVerdicts, Report &Rep,
                        const VerdictFn &OnVerdict,
                        serve::ServiceStats *StatsOut) {
  std::unique_ptr<serve::AssessmentService> Svc = Make(false, 4096);
  OpenLoopResult R = runOpenLoop(
      Schedule, [&](size_t I) { return Submit(*Svc, Schedule[I]); },
      KeepVerdicts, OnVerdict);
  Svc->drain();
  if (StatsOut)
    *StatsOut = Svc->stats();
  Phase P;
  P.Name = Name;
  P.Measured = Measured;
  P.Attempted = R.size();
  P.Succeeded = R.served();
  P.Failed = P.Attempted - P.Succeeded;
  Rep.phase(P);
  return R;
}

void describeLatency(const std::string &Tag, double Rps,
                     const OpenLoopResult &R, Report &Rep) {
  std::vector<double> Lat = R.latenciesUs();
  double P50 = quantile(Lat, 0.5), P99 = quantile(Lat, 0.99);
  double Late99 = quantile(R.latenessUs(), 0.99);
  std::printf("%-22s offered %8.0f rps  n=%zu  p50 %9.1fus  p99 %9.1fus  "
              "lateness p99 %8.1fus  shed %llu  hung %llu\n",
              Tag.c_str(), Rps, Lat.size(), P50, P99, Late99,
              static_cast<unsigned long long>(R.Shed),
              static_cast<unsigned long long>(R.Hung));
  Rep.info(Tag + ".offered_rps", Rps);
  Rep.info(Tag + ".samples", static_cast<double>(Lat.size()));
  Rep.info(Tag + ".p50_us", P50);
  Rep.info(Tag + ".p99_us", P99);
  Rep.info(Tag + ".p99_samples_beyond",
           std::floor(0.01 * static_cast<double>(Lat.size())));
  Rep.info(Tag + ".lateness_p99_us", Late99);
  Rep.info(Tag + ".windowed_p50_us", windowedQuantile(Lat, 0.5, 0.25));
  Rep.info(Tag + ".best_window_p99_us", windowedQuantile(Lat, 0.99, 0.0));
  Rep.info(Tag + ".lower_quartile_window_p99_us",
           windowedQuantile(Lat, 0.99, 0.25));
  Rep.info(Tag + ".windows",
           std::floor(static_cast<double>(Lat.size()) / WindowRequests));
}

double sloSearch(double LoRps, double HiRps, int Steps, double StepSec,
                 double LimitUs, uint64_t Seed,
                 const std::function<void(Request &)> &Pick,
                 const MakeServiceFn &Make, const ServedSubmitFn &Submit,
                 Report &Rep, const std::function<void()> &BetweenSteps) {
  // A step meets the limit when its tail does (windowedQuantile discounts
  // host stalls) and no backlog is left: a queue that grew over the step
  // keeps the last requests waiting, which a stall does not. A step that
  // misses is run once more, so one slow stretch of the host cannot end
  // the search early.
  auto Attempt = [&](double Rps, int Step, int Try) {
    std::vector<Request> S =
        poissonSchedule(Rps, StepSec, Seed + 7919 * (Step + 1) + Try, Pick);
    char Name[64];
    std::snprintf(Name, sizeof(Name), "slo_search_%d.%d", Step, Try);
    OpenLoopResult R = runPhase(Name, false, S, Make, Submit, false, Rep);
    std::vector<double> Lat = R.latenciesUs();
    double P99 = windowedQuantile(Lat, 0.99, 0.25);
    double LastP50 =
        Lat.size() < WindowRequests
            ? quantile(Lat, 0.5)
            : quantile(std::vector<double>(Lat.end() - WindowRequests,
                                           Lat.end()),
                       0.5);
    bool Pass = R.Shed == 0 && R.Hung == 0 && R.served() == R.size() &&
                P99 <= LimitUs && LastP50 <= LimitUs;
    std::printf("slo step %d.%d: offered %8.0f rps  windowed p99 %9.1fus  "
                "last-window p50 %9.1fus  -> %s\n",
                Step, Try, Rps, P99, LastP50, Pass ? "meets" : "misses");
    return Pass;
  };
  auto Passes = [&](double Rps, int Step) {
    return Attempt(Rps, Step, 0) || Attempt(Rps, Step, 1);
  };
  double Lo = LoRps, Hi = HiRps;
  for (int Step = 0; Step < Steps; ++Step) {
    double Mid = std::sqrt(Lo * Hi);
    if (Passes(Mid, Step))
      Lo = Mid;
    else
      Hi = Mid;
    if (BetweenSteps)
      BetweenSteps();
  }
  Rep.info("slo.limit_us", LimitUs);
  Rep.info("slo.search_lo_rps", LoRps);
  Rep.info("slo.search_hi_rps", HiRps);
  return Lo;
}

void DrainProbe::run(int Reps) {
  for (int Rep = 0; Rep < Reps; ++Rep) {
    std::unique_ptr<serve::AssessmentService> Svc = Make(true, Staged.size());
    std::vector<std::future<Verdict>> Futures;
    Futures.reserve(Staged.size());
    for (const Request &R : Staged)
      Futures.push_back(Submit(*Svc, R));
    Clock::time_point T0 = Clock::now();
    Svc->start();
    Svc->drain();
    double Sec = usBetween(T0, Clock::now()) / 1e6;
    for (auto &F : Futures) {
      ++P.Attempted;
      try {
        F.get();
        ++P.Succeeded;
      } catch (const std::exception &) {
        ++P.Failed;
      }
    }
    Rates.push_back(static_cast<double>(Staged.size()) / Sec);
  }
}

double DrainProbe::finish(Report &Rep) {
  Rep.phase(P);
  Rep.info("drain.requests", static_cast<double>(Staged.size()));
  Rep.info("drain.repetitions", static_cast<double>(Rates.size()));
  Rep.info("drain.median_rps", median(Rates));
  return quantile(Rates, 1.0);
}

std::vector<ServedBatch> batchesFromCalls(const std::vector<ForwardCall> &Calls,
                                          const std::vector<uint64_t> &IdOfReq) {
  std::unordered_map<uint64_t, size_t> ReqOfId;
  ReqOfId.reserve(IdOfReq.size() * 2);
  for (size_t I = 0; I < IdOfReq.size(); ++I)
    ReqOfId.emplace(IdOfReq[I], I);
  std::vector<ServedBatch> Out;
  for (const ForwardCall &C : Calls) {
    ServedBatch B;
    B.FwdStart = C.Start;
    B.FwdEnd = C.End;
    for (uint64_t Id : C.Ids) {
      auto It = ReqOfId.find(Id);
      if (It != ReqOfId.end())
        B.Reqs.push_back(It->second);
    }
    // Forwards of other callers (refresh scoring of relabelled samples)
    // carry ids outside the phase.
    if (B.Reqs.size() == C.Ids.size() && !B.Reqs.empty())
      Out.push_back(std::move(B));
  }
  return Out;
}

void attributeServed(const OpenLoopResult &R,
                     const std::vector<ServedBatch> &Batches, Tracer &T,
                     LayerMetrics &M) {
  std::vector<const ServedBatch *> BatchOf(R.size(), nullptr);
  double FwdUs = 0, CommitteeUs = 0, Samples = 0;
  for (const ServedBatch &B : Batches) {
    for (size_t Req : B.Reqs)
      BatchOf[Req] = &B;
    FwdUs += usBetween(B.FwdStart, B.FwdEnd);
    CommitteeUs += B.ReplayCommitteeUs;
    Samples += static_cast<double>(B.Reqs.size());
  }
  double E2eUs = 0, Unattributed = 0, OverheadUs = 0;
  uint64_t Counted = 0;
  std::vector<double> Queue;
  for (size_t I = 0; I < R.size(); ++I) {
    if (!R.Served[I])
      continue;
    double E2e = usBetween(R.Due[I], R.Seen[I]);
    uint64_t Root = T.add("request", 0, I, R.Due[I], R.Seen[I]);
    T.add("gen.lateness", Root, I, R.Due[I],
          std::max(R.Due[I], R.SubmitStart[I]));
    T.add("service.submit", Root, I, R.SubmitStart[I], R.SubmitEnd[I]);
    double Covered = std::max(0.0, usBetween(R.Due[I], R.SubmitEnd[I]));
    const ServedBatch *B = BatchOf[I];
    if (B) {
      T.add("service.queue", Root, I, R.SubmitEnd[I], B->FwdStart);
      T.add("ml.forward", Root, I, B->FwdStart, B->FwdEnd);
      double AfterFwd = std::max(0.0, usBetween(B->FwdEnd, R.Seen[I]));
      double Committee = std::min(B->ReplayCommitteeUs, AfterFwd);
      T.add("core.committee.replayed", Root, I, B->FwdEnd,
            B->FwdEnd + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double, std::micro>(
                                Committee)));
      double QueueUs = std::max(0.0, usBetween(R.SubmitEnd[I], B->FwdStart));
      Queue.push_back(QueueUs);
      Covered += QueueUs + usBetween(B->FwdStart, B->FwdEnd) + Committee;
      OverheadUs += E2e - (B->ReplayForwardUs + B->ReplayCommitteeUs);
      ++Counted;
    }
    E2eUs += E2e;
    Unattributed += std::max(0.0, E2e - Covered);
  }
  M.ForwardUsPerSample = Samples ? FwdUs / Samples : 0.0;
  M.CommitteeUsPerSample = Samples ? CommitteeUs / Samples : 0.0;
  M.ServiceOverheadUs = Counted ? OverheadUs / static_cast<double>(Counted) : 0;
  M.ServiceQueueWaitUs = median(Queue);
  M.UnattributedShare = E2eUs > 0 ? Unattributed / E2eUs : 0.0;
  M.GenLatenessP99Us = quantile(R.latenessUs(), 0.99);
}

void writeTrace(const Tracer &T, const Options &O, Report &Rep) {
  std::string Path = O.OutDir + "/trace-" + O.Workload + ".jsonl";
  Rep.info("trace.spans", static_cast<double>(T.size()));
  Rep.info("trace.file", Path);
  if (!T.write(Path))
    Rep.fail("could not write " + Path);
}

double medianUs(int Reps, const std::function<void()> &Fn) {
  std::vector<double> Us;
  for (int I = 0; I < Reps; ++I) {
    Clock::time_point T0 = Clock::now();
    Fn();
    Us.push_back(usBetween(T0, Clock::now()));
  }
  return median(Us);
}

double timedSetups(int Times, const std::function<void()> &Setup,
                   Report &Rep) {
  std::vector<double> Sec;
  for (int I = 0; I < Times; ++I) {
    Clock::time_point T0 = Clock::now();
    Setup();
    Sec.push_back(usBetween(T0, Clock::now()) / 1e6);
    std::printf("set-up %d: %.3fs\n", I + 1, Sec.back());
  }
  Rep.info("setup.repetitions", static_cast<double>(Times));
  return median(Sec);
}

void checkVerdicts(const std::string &Tag, const PromClassifier &Engine,
                   const data::Dataset &Samples,
                   const std::vector<Verdict> &Verdicts, uint64_t Seed,
                   size_t SerialEvery, Report &Rep) {
  std::vector<Verdict> Direct = Engine.assessBatch(Samples);
  size_t BatchMismatch = 0, SerialChecked = 0, SerialMismatch = 0;
  support::Rng R(Seed ^ 0xC4ECC0DEull);
  for (size_t I = 0; I < Samples.size(); ++I) {
    if (!sameVerdict(Verdicts[I], Direct[I]))
      ++BatchMismatch;
    if (R.bounded(SerialEvery) == 0 || I == 0) {
      ++SerialChecked;
      if (!sameVerdict(Verdicts[I], Engine.assessSerial(Samples[I])))
        ++SerialMismatch;
    }
  }
  std::printf("%s: %zu verdicts equal to direct assessBatch (%zu differ); "
              "%zu checked against assessSerial (%zu differ)\n",
              Tag.c_str(), Samples.size() - BatchMismatch, BatchMismatch,
              SerialChecked, SerialMismatch);
  Rep.info(Tag + ".checked_batch", static_cast<double>(Samples.size()));
  Rep.info(Tag + ".checked_serial", static_cast<double>(SerialChecked));
  if (BatchMismatch)
    Rep.fail(Tag + ": " + std::to_string(BatchMismatch) +
             " verdicts differ from direct assessBatch");
  if (SerialMismatch)
    Rep.fail(Tag + ": " + std::to_string(SerialMismatch) +
             " verdicts differ from assessSerial");
}

double timeRefresh(serve::RecalibrationController &Ctl) {
  uint64_t Before = Ctl.stats().RefreshesCompleted;
  Clock::time_point T0 = Clock::now();
  Ctl.triggerRefresh();
  if (!Ctl.waitForRefreshes(Before + 1, std::chrono::seconds(20)))
    return -1.0;
  return usBetween(T0, Clock::now()) / 1e3;
}

RefreshProbe::RefreshProbe(PromClassifier &Engine, const data::Dataset &Pool,
                           size_t PerProbe)
    : Pool(Pool), PerProbe(PerProbe) {
  serve::RecalibrationConfig Cfg;
  Cfg.MinRefreshSamples = PerProbe;
  Ctl = std::make_unique<serve::RecalibrationController>(Engine, Monitor, Cfg);
}

RefreshProbe::~RefreshProbe() { Ctl->shutdown(); }

void RefreshProbe::run(int Probes) {
  for (int K = 0; K < Probes; ++K) {
    for (size_t L = 0; L < PerProbe; ++L) {
      data::Sample S = Pool[Cursor++ % Pool.size()];
      S.Id |= LabeledIdBit;
      Ctl->submitLabeled(std::move(S));
    }
    ++P.Attempted;
    double Took = timeRefresh(*Ctl);
    if (Took < 0) {
      ++P.Failed;
      return;
    }
    Ms.push_back(Took);
    ++P.Succeeded;
  }
}

double RefreshProbe::finish(Report &Rep) {
  Stats = Ctl->stats();
  Ctl->shutdown();
  Rep.phase(P);
  Rep.info("label_to_live.probes", static_cast<double>(Ms.size()));
  Rep.info("label_to_live.samples_per_probe", static_cast<double>(PerProbe));
  return median(Ms);
}

} // namespace pb
