//===- prombench/src/ServePoisson.cpp - The serve_poisson workload ---------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// A single-tenant AssessmentService over a PromClassifier at the paper's
// 1,000-entry calibration cap, driven open-loop with Poisson arrivals at
// fixed absolute rates. The store is below ClusterIndexMinEntries, so the
// exact scan runs; batches are small and flushed by the deadline, so the
// time goes to the queue and batcher, the model forward and the exact
// committee. The registry and refresh sit idle until the label-to-live
// probes at the end.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cstdio>

using namespace prom;

namespace pb {

namespace {

constexpr size_t CalibEntries = 1000;
constexpr double LowRps = 1000;
constexpr double NominalRps = 5000;
constexpr double SloLimitUs = 10000;
constexpr size_t PoolSize = 1 << 16;
/// Rounds the fixed-rate phase is split into.
constexpr int NominalRounds = 5;

} // namespace

void runServePoisson(const Options &O, Report &Rep) {
  PromConfig Cfg;
  Cfg.MaxCalibEntries = CalibEntries;
  Deployment D;
  double SetupS = timedSetups(O.Trace ? 1 : 3,
                              [&] { D = deploy(DeploymentSeed, CalibEntries,
                                               Cfg); },
                              Rep);
  Rep.info("store.entries", static_cast<double>(D.Prom->calibrationSize()));
  Rep.info("service.batchers", 1.0);
  Rep.info("service.max_batch", 64.0);
  Rep.info("service.flush_deadline_us", 200.0);

  const data::Dataset Pool = makeSamples(O.Seed, PoolSize, 0.5);
  size_t Cursor = 0;
  auto Pick = [&](Request &R) { R.Sample = Cursor++ % PoolSize; };
  MakeServiceFn Make = [&](bool Paused, size_t Cap) {
    return std::make_unique<serve::AssessmentService>(*D.Prom,
                                                      servedConfig(Paused, Cap));
  };
  ServedSubmitFn Submit = [&](serve::AssessmentService &Svc, const Request &R) {
    return Svc.submit(Pool[R.Sample]);
  };
  auto SamplesOf = [&](const std::vector<Request> &S) {
    data::Dataset Out("phase", NumClasses);
    Out.reserve(S.size());
    for (const Request &R : S)
      Out.add(Pool[R.Sample]);
    return Out;
  };

  const double S = O.Seconds;
  runPhase("warmup", true,
           poissonSchedule(NominalRps, 0.05 * S, O.Seed + 1, Pick), Make,
           Submit, false, Rep);

  if (!O.Trace) {
    Rep.metric("setup_s", SetupS, "s");
    // Label-to-live probes refresh a second detector calibrated the same
    // way, so the served one keeps its store and its verdicts stay
    // checkable against a direct assessment at any point of the run.
    PromClassifier Probed(*D.Traced, D.Prom->config());
    Probed.calibrate(D.Calib);
    RefreshProbe Refresh(Probed, Pool, 64);
    std::vector<Request> Staged = poissonSchedule(NominalRps, 2.0, O.Seed + 4,
                                                  Pick);
    Staged.resize(std::min<size_t>(Staged.size(), 8192));
    DrainProbe Drain(Staged, Make, Submit);

    OpenLoopResult Low =
        runPhase("fixed_low", true,
                 poissonSchedule(LowRps, 0.1 * S, O.Seed + 2, Pick), Make,
                 Submit, false, Rep);
    describeLatency("fixed_low", LowRps, Low, Rep);

    // The fixed-rate phase runs in rounds, with drains and refresh probes
    // between them, so its windows are spread over the run.
    std::vector<double> Lat;
    Quality Q;
    for (int Round = 0; Round < NominalRounds; ++Round) {
      std::string Name = "fixed_nominal." + std::to_string(Round);
      std::vector<Request> Sched = poissonSchedule(
          NominalRps, 0.35 * S / NominalRounds, O.Seed + 10 + Round, Pick);
      OpenLoopResult Nom = runPhase(Name, true, Sched, Make, Submit, true, Rep);
      std::vector<double> L = Nom.latenciesUs();
      Lat.insert(Lat.end(), L.begin(), L.end());
      data::Dataset Served = SamplesOf(Sched);
      checkVerdicts(Name, *D.Prom, Served, Nom.Verdicts, O.Seed + Round, 64,
                    Rep);
      for (size_t I = 0; I < Served.size(); ++I)
        Q.add(Nom.Verdicts[I], Served[I].Label);
      Drain.run(2);
      Refresh.run(10);
    }
    Rep.metric("p50_us", windowedQuantile(Lat, 0.5, 0.25), "us");
    Rep.info("fixed_nominal.best_window_p99_us",
             windowedQuantile(Lat, 0.99, 0.0));
    Rep.info("fixed_nominal.offered_rps", NominalRps);
    Rep.info("fixed_nominal.samples", static_cast<double>(Lat.size()));
    Rep.info("fixed_nominal.p50_us", quantile(Lat, 0.5));
    Rep.info("fixed_nominal.p99_us", quantile(Lat, 0.99));
    Rep.info("fixed_nominal.lower_quartile_window_p99_us",
             windowedQuantile(Lat, 0.99, 0.25));
    Rep.metric("mispred_recall", Q.recall(), "ratio");
    Rep.metric("false_reject_rate", Q.falseRejectRate(), "ratio");
    Rep.info("quality.verdicts", static_cast<double>(Q.Mispredicted + Q.Correct));

    double Slo = sloSearch(NominalRps, 16 * NominalRps, 7, 0.3 * S / 7,
                           SloLimitUs, O.Seed, Pick, Make, Submit, Rep, [&] {
                             Drain.run(1);
                             Refresh.run(5);
                           });
    Rep.metric("slo_rps", Slo, "1/s");
    Rep.metric("samples_per_s", Drain.finish(Rep), "1/s");
    Rep.metric("label_to_live_ms", Refresh.finish(Rep), "ms");
    return;
  }

  // Traced run: the nominal phase untraced (the overhead baseline), then
  // again with the model log on, then the engine and store replays of the
  // very batches the service formed.
  LayerMetrics M;
  OpenLoopResult Base =
      runPhase("fixed_nominal_untraced", true,
               poissonSchedule(NominalRps, 0.25 * S, O.Seed + 3, Pick), Make,
               Submit, false, Rep);
  describeLatency("fixed_nominal_untraced", NominalRps, Base, Rep);

  std::vector<Request> Sched =
      poissonSchedule(NominalRps, 0.25 * S, O.Seed + 5, Pick);
  serve::ServiceStats SS;
  D.Traced->setRecording(true);
  OpenLoopResult Tr = runPhase("fixed_nominal_traced", true, Sched, Make,
                               Submit, true, Rep, nullptr, &SS);
  D.Traced->setRecording(false);
  describeLatency("fixed_nominal_traced", NominalRps, Tr, Rep);
  data::Dataset Served = SamplesOf(Sched);
  checkVerdicts("fixed_nominal_traced", *D.Prom, Served, Tr.Verdicts, O.Seed,
                64, Rep);

  std::vector<uint64_t> IdOfReq;
  for (size_t I = 0; I < Served.size(); ++I)
    IdOfReq.push_back(Served[I].Id);
  std::vector<ServedBatch> Batches =
      batchesFromCalls(D.Traced->takeCalls(), IdOfReq);

  Tracer T;
  std::unique_ptr<ReplicaStore> Replica =
      buildReplica(*D.Prom, *D.Model, D.Calib);
  ReplayStats RS;
  size_t ReplayMismatch = 0;
  for (ServedBatch &B : Batches) {
    data::Dataset Work("batch", NumClasses);
    for (size_t Req : B.Reqs)
      Work.add(Served[Req]);
    support::Matrix Probs, Embeds;
    Clock::time_point T0 = Clock::now();
    D.Model->predictWithEmbedBatch(Work, Probs, Embeds);
    Clock::time_point T1 = Clock::now();
    std::vector<Verdict> V = D.Prom->assessBatchWithForwards(Probs, Embeds);
    Clock::time_point T2 = Clock::now();
    uint64_t Root = T.add("engine.replay", 0, B.Reqs.front(), T0, T2);
    T.add("ml.forward", Root, B.Reqs.front(), T0, T1);
    T.add("core.committee", Root, B.Reqs.front(), T1, T2);
    B.ReplayForwardUs = usBetween(T0, T1);
    B.ReplayCommitteeUs = usBetween(T1, T2);
    for (size_t K = 0; K < B.Reqs.size(); ++K)
      ReplayMismatch += sameVerdict(V[K], Tr.Verdicts[B.Reqs[K]]) ? 0 : 1;
    replayBatch(*Replica, *D.Prom, Probs, Embeds, V, T, Root, B.Reqs.front(),
                RS);
  }
  if (ReplayMismatch)
    Rep.fail("engine replay: " + std::to_string(ReplayMismatch) +
             " verdicts differ from the served ones");
  if (RS.Mismatches)
    Rep.fail("store replay: " + std::to_string(RS.Mismatches) +
             " credibilities differ from the engine");
  attributeServed(Tr, Batches, T, M);
  M.setReplay(RS);
  M.ServiceMeanBatch = SS.meanBatchSize();
  M.ServiceDeadlineFlushShare =
      SS.Batches ? static_cast<double>(SS.DeadlineFlushes) /
                       static_cast<double>(SS.Batches)
                 : 0.0;
  double BaseP50 = quantile(Base.latenciesUs(), 0.5);
  M.TraceOverheadShare =
      BaseP50 > 0 ? quantile(Tr.latenciesUs(), 0.5) / BaseP50 - 1.0 : 0.0;
  Rep.info("trace.batches", static_cast<double>(Batches.size()));

  {
    RefreshProbe Refresh(*D.Prom, Pool, 64);
    Refresh.run(10);
    Refresh.finish(Rep);
    M.RecalRefreshesCompleted =
        static_cast<double>(Refresh.stats().RefreshesCompleted);
    M.RecalSamplesFolded = static_cast<double>(Refresh.stats().SamplesFolded);
    M.RecalRefreshFailures =
        static_cast<double>(Refresh.stats().RefreshFailures);
  }
  M.RecalRefreshMs = medianUs(5, [&] {
                       data::Dataset L("labels", NumClasses);
                       for (int K = 0; K < 64; ++K)
                         L.add(Pool[Cursor++ % PoolSize]);
                       D.Prom->refreshCalibration(L);
                     }) /
                     1e3;
  writeTrace(T, O, Rep);
  M.emit(Rep);
}

} // namespace pb
