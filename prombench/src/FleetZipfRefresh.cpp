//===- prombench/src/FleetZipfRefresh.cpp - The fleet workload -------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// AssessmentService in fleet mode over a DetectorRegistry: 8 tenants share
// 2 models, tenant popularity is Zipf(1), and the memory budget holds about
// 3.5 detectors, so leases miss and snapshots are saved on evict and
// loaded on reload. Load is open-loop at a fixed rate; 5% of served
// requests come back labelled through DetectorRegistry::submitLabeled with
// recalibration armed, and label-to-live probes trigger refreshes on the
// hottest tenant while it serves — the paper's relabelling loop, with
// store swaps and snapshot rotation beside the reads. It is the only
// workload where the registry, Serialize and RecalibrationController work.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "serve/DetectorRegistry.h"
#include "support/Rng.h"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>

using namespace prom;

namespace pb {

namespace {

constexpr size_t NumTenants = 8;
constexpr size_t NumModels = 2;
constexpr size_t CalibEntries = 1000;
/// Fixed offered rate: with 3.5 of 8 detectors resident about half the
/// batches cold-load (~3 ms each), so the fleet saturates near 500 rps and
/// collapses into cycling through every tenant beyond it.
constexpr double FleetRps = 300;
/// Latency limit of the goodput figure (slo_rps): served requests within
/// it, per second, at the fixed rate.
constexpr double SloLimitUs = 25000;
constexpr double LabelShare = 0.05;
constexpr double BudgetDetectors = 3.5;
/// Rounds the fixed-rate phase is split into.
constexpr int LoadRounds = 4;
/// Requests of the seeded stream the quality metrics are computed over.
constexpr size_t QualityRequests = 16384;
constexpr size_t PoolSize = 1 << 16;
/// Relabelled samples handed to the probed tenant per label-to-live probe.
constexpr size_t ProbeLabels = 32;
constexpr auto ProbeEvery = std::chrono::milliseconds(250);

std::string tenantName(size_t T) { return "t" + std::to_string(T); }

/// One load phase: its requests, the label-to-live probe times, and the
/// refresh counters the probes observed.
struct LoadResult {
  OpenLoopResult Run;
  std::vector<double> ProbeMs;
  serve::RecalibrationStats Recal;
};

/// The fleet's deployed state: models, per-tenant calibration sets and
/// configs, and the registry that owns the tenant detectors.
struct Fleet {
  std::vector<std::unique_ptr<ml::MlpClassifier>> Models;
  std::vector<std::unique_ptr<TracedModel>> Traced;
  std::vector<PromConfig> ModelCfg;
  std::vector<data::Dataset> Calib;
  std::unique_ptr<serve::DetectorRegistry> Registry;
  size_t DetectorBytes = 0;
};

/// Set-up: fit both models, tune each model's thresholds, calibrate every
/// tenant and install it (the budget evicts, saving snapshots).
std::unique_ptr<Fleet> buildFleet(const std::string &Dir) {
  std::filesystem::remove_all(Dir);
  auto F = std::make_unique<Fleet>();
  PromConfig Base;
  Base.MaxCalibEntries = CalibEntries;
  for (size_t M = 0; M < NumModels; ++M) {
    F->Models.push_back(fitModel(DeploymentSeed + 10 + M));
    F->Traced.push_back(std::make_unique<TracedModel>(*F->Models[M]));
  }
  for (size_t T = 0; T < NumTenants; ++T)
    F->Calib.push_back(makeSamples(DeploymentSeed + 100 + T, CalibEntries, 0));
  for (size_t M = 0; M < NumModels; ++M)
    F->ModelCfg.push_back(tuneThresholds(*F->Models[M], F->Calib[M], Base,
                                         DeploymentSeed + M));

  std::vector<std::unique_ptr<PromClassifier>> Engines;
  for (size_t T = 0; T < NumTenants; ++T) {
    size_t M = T % NumModels;
    Engines.push_back(
        std::make_unique<PromClassifier>(*F->Traced[M], F->ModelCfg[M]));
    Engines.back()->calibrate(F->Calib[T]);
  }
  F->DetectorBytes = Engines[0]->memoryBytes();
  serve::RegistryConfig RCfg;
  RCfg.MemoryBudgetBytes =
      static_cast<size_t>(BudgetDetectors * static_cast<double>(F->DetectorBytes));
  RCfg.KeepGenerations = 2;
  F->Registry = std::make_unique<serve::DetectorRegistry>(RCfg);
  serve::RecalibrationConfig Recal;
  Recal.MinRefreshSamples = ProbeLabels;
  Recal.KeepGenerations = 2;
  for (size_t T = 0; T < NumTenants; ++T) {
    serve::TenantSpec Spec;
    Spec.Model = F->Traced[T % NumModels].get();
    Spec.Cfg = F->ModelCfg[T % NumModels];
    Spec.SnapshotDir = Dir + "/" + tenantName(T);
    if (!F->Registry->registerTenant(tenantName(T), Spec) ||
        !F->Registry->enableRecalibration(tenantName(T),
                                          serve::DriftWindowConfig(), Recal) ||
        !F->Registry->installDetector(tenantName(T), std::move(Engines[T])))
      throw std::runtime_error("fleet set-up failed for " + tenantName(T));
  }
  return F;
}

/// Hands relabelled requests to the registry off the harvester thread
/// (submitLabeled takes the registry lock, which a cold load holds for
/// milliseconds) and runs label-to-live probes on tenant t0.
class Relabeller {
public:
  Relabeller(serve::DetectorRegistry &Reg, const data::Dataset &Pool,
             const std::vector<Request> &Sched)
      : Reg(Reg), Pool(Pool), Sched(Sched) {}

  void start() { Worker = std::thread([this] { loop(); }); }
  void push(size_t Req) {
    std::lock_guard<std::mutex> Lock(Mutex);
    Pending.push_back(Req);
  }
  void stop() {
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Stopping = true;
    }
    Wake.notify_all();
    if (Worker.joinable())
      Worker.join();
    flush();
  }

  uint64_t Accepted = 0, Dropped = 0; ///< Labels a controller took / refused.
  std::vector<double> LabelToLiveMs;
  uint64_t ProbeFailures = 0;
  /// Refresh-loop counter deltas of t0's controller across the probes (a
  /// controller's own counters restart whenever its tenant reloads).
  serve::RecalibrationStats Recal;

private:
  void flush() {
    std::vector<size_t> Batch;
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Batch.swap(Pending);
    }
    for (size_t Req : Batch) {
      data::Sample S = Pool[Sched[Req].Sample];
      S.Id |= LabeledIdBit;
      if (Reg.submitLabeled(tenantName(static_cast<size_t>(Sched[Req].Tenant)),
                            std::move(S)))
        ++Accepted;
      else
        ++Dropped; // The tenant was evicted; its buffer went with it.
    }
  }

  void probe() {
    serve::DetectorRegistry::Lease L = Reg.acquire(tenantName(0));
    serve::RecalibrationController *Ctl = L ? L.controller() : nullptr;
    if (!Ctl) {
      ++ProbeFailures;
      return;
    }
    for (size_t K = 0; K < ProbeLabels; ++K) {
      data::Sample S = Pool[(ProbeCursor++ * 7919) % Pool.size()];
      S.Id |= LabeledIdBit;
      Ctl->submitLabeled(std::move(S));
    }
    serve::RecalibrationStats Before = Ctl->stats();
    double Took = timeRefresh(*Ctl);
    if (Took >= 0)
      LabelToLiveMs.push_back(Took);
    else
      ++ProbeFailures;
    serve::RecalibrationStats After = Ctl->stats();
    Recal.RefreshesCompleted +=
        After.RefreshesCompleted - Before.RefreshesCompleted;
    Recal.SamplesFolded += After.SamplesFolded - Before.SamplesFolded;
    Recal.RefreshFailures += After.RefreshFailures - Before.RefreshFailures;
  }

  void loop() {
    Clock::time_point NextProbe = Clock::now() + ProbeEvery / 2;
    std::unique_lock<std::mutex> Lock(Mutex);
    while (!Stopping) {
      Wake.wait_for(Lock, std::chrono::milliseconds(5));
      Lock.unlock();
      flush();
      if (Clock::now() >= NextProbe) {
        probe();
        NextProbe = Clock::now() + ProbeEvery;
      }
      Lock.lock();
    }
  }

  serve::DetectorRegistry &Reg;
  const data::Dataset &Pool;
  const std::vector<Request> &Sched;
  std::mutex Mutex;
  std::condition_variable Wake;
  std::vector<size_t> Pending;
  bool Stopping = false;
  size_t ProbeCursor = 0;
  std::thread Worker;
};

} // namespace

void runFleetZipfRefresh(const Options &O, Report &Rep) {
  const std::string Dir = O.OutDir + "/fleet-" + std::to_string(O.Seed) +
                          (O.Trace ? "-traced" : "");
  std::unique_ptr<Fleet> F;
  double SetupS = timedSetups(O.Trace ? 1 : 3,
                              [&] {
                                F.reset();
                                F = buildFleet(Dir);
                              },
                              Rep);
  serve::DetectorRegistry &Reg = *F->Registry;
  Rep.info("store.entries", static_cast<double>(CalibEntries));
  Rep.info("fleet.tenants", static_cast<double>(NumTenants));
  Rep.info("fleet.models", static_cast<double>(NumModels));
  Rep.info("fleet.zipf_s", 1.0);
  Rep.info("fleet.budget_detectors", BudgetDetectors);
  Rep.info("fleet.detector_bytes", static_cast<double>(F->DetectorBytes));
  Rep.info("fleet.label_share", LabelShare);
  Rep.info("service.batchers", 1.0);
  Rep.info("service.max_batch", 64.0);

  // Dedicated single-tenant detectors: the fleet's verdicts must equal
  // theirs bit for bit until the first refresh changes a store.
  std::vector<std::unique_ptr<PromClassifier>> Dedicated;
  for (size_t T = 0; T < NumTenants; ++T) {
    size_t M = T % NumModels;
    Dedicated.push_back(
        std::make_unique<PromClassifier>(*F->Models[M], F->ModelCfg[M]));
    Dedicated.back()->calibrate(F->Calib[T]);
  }

  const data::Dataset Pool = makeSamples(O.Seed, PoolSize, 0.5);
  std::vector<double> Zipf;
  for (size_t T = 0; T < NumTenants; ++T)
    Zipf.push_back(1.0 / static_cast<double>(T + 1));
  size_t Cursor = 0;
  support::Rng TenantRng(O.Seed ^ 0x21FFull);
  auto Pick = [&](Request &R) {
    R.Sample = Cursor++ % PoolSize;
    R.Tenant = static_cast<int>(TenantRng.weightedIndex(Zipf));
  };
  MakeServiceFn Make = [&](bool Paused, size_t Cap) {
    return std::make_unique<serve::AssessmentService>(Reg,
                                                      servedConfig(Paused, Cap));
  };
  ServedSubmitFn Submit = [&](serve::AssessmentService &Svc, const Request &R) {
    return Svc.submit(tenantName(static_cast<size_t>(R.Tenant)),
                      Pool[R.Sample]);
  };

  // The relabelling loop: 5% of served requests (a seeded choice) come
  // back labelled, and label-to-live probes run on t0 throughout.
  auto LoadPhase = [&](const char *Name, const std::vector<Request> &Sched,
                       bool Keep, serve::ServiceStats *SS,
                       serve::RegistryStats *RegDelta) {
    support::Rng LabelRng(O.Seed ^ 0x1ABE1ull);
    std::vector<char> Labelled(Sched.size());
    for (char &L : Labelled)
      L = LabelRng.uniform() < LabelShare;
    Relabeller Rl(Reg, Pool, Sched);
    serve::RegistryStats Before = Reg.stats();
    Rl.start();
    OpenLoopResult R = runPhase(
        Name, true, Sched, Make, Submit, Keep, Rep,
        [&](size_t I, const Verdict &) {
          if (Labelled[I])
            Rl.push(I);
        },
        SS);
    Rl.stop();
    serve::RegistryStats After = Reg.stats();
    if (RegDelta) {
      RegDelta->Hits = After.Hits - Before.Hits;
      RegDelta->Loads = After.Loads - Before.Loads;
      RegDelta->Evictions = After.Evictions - Before.Evictions;
      RegDelta->LoadFailures = After.LoadFailures - Before.LoadFailures;
    }
    Phase P;
    P.Name = std::string(Name) + ".label_to_live";
    P.Attempted = Rl.LabelToLiveMs.size() + Rl.ProbeFailures;
    P.Succeeded = Rl.LabelToLiveMs.size();
    P.Failed = Rl.ProbeFailures;
    Rep.phase(P);
    Rep.info(std::string(Name) + ".labels_accepted",
             static_cast<double>(Rl.Accepted));
    Rep.info(std::string(Name) + ".labels_dropped_cold",
             static_cast<double>(Rl.Dropped));
    Rep.info(std::string(Name) + ".label_to_live_probes",
             static_cast<double>(Rl.LabelToLiveMs.size()));
    return LoadResult{std::move(R), Rl.LabelToLiveMs, Rl.Recal};
  };

  const double S = O.Seconds;
  runPhase("warmup", true,
           poissonSchedule(FleetRps, 0.05 * S, O.Seed + 1, Pick), Make, Submit,
           false, Rep);

  if (!O.Trace) {
    Rep.metric("setup_s", SetupS, "s");
    // Check phase: no labels yet, so no store has changed and every
    // verdict must equal the tenant's dedicated detector.
    DrainProbe Drain(poissonSchedule(FleetRps, 8192 / FleetRps, O.Seed + 4,
                                     Pick),
                     Make, Submit);
    Drain.run(1);
    std::vector<Request> Sched =
        poissonSchedule(FleetRps, 0.1 * S, O.Seed + 2, Pick);
    OpenLoopResult Chk =
        runPhase("check", true, Sched, Make, Submit, true, Rep);
    describeLatency("check", FleetRps, Chk, Rep);
    for (size_t T = 0; T < NumTenants; ++T) {
      data::Dataset Mine("tenant", NumClasses);
      std::vector<Verdict> MineV;
      for (size_t I = 0; I < Sched.size(); ++I)
        if (static_cast<size_t>(Sched[I].Tenant) == T && Chk.Served[I]) {
          Mine.add(Pool[Sched[I].Sample]);
          MineV.push_back(Chk.Verdicts[I]);
        }
      if (!Mine.empty())
        checkVerdicts("check." + tenantName(T), *Dedicated[T], Mine, MineV,
                      O.Seed + T, 16, Rep);
    }
    // Quality of the deployed tenants over a longer stretch of the same
    // seeded stream than the check phase serves, assessed on the dedicated
    // detectors the check phase just proved bit-identical to the fleet.
    Quality Q;
    support::Rng QRng(O.Seed ^ 0x9A11ull);
    std::vector<data::Dataset> ByTenant(NumTenants,
                                        data::Dataset("tenant", NumClasses));
    for (size_t I = 0; I < QualityRequests; ++I)
      ByTenant[QRng.weightedIndex(Zipf)].add(Pool[I]);
    for (size_t T = 0; T < NumTenants; ++T) {
      std::vector<Verdict> V = Dedicated[T]->assessBatch(ByTenant[T]);
      for (size_t I = 0; I < V.size(); ++I)
        Q.add(V[I], ByTenant[T][I].Label);
    }
    Drain.run(1);
    Rep.metric("mispred_recall", Q.recall(), "ratio");
    Rep.metric("false_reject_rate", Q.falseRejectRate(), "ratio");
    Rep.info("quality.verdicts", static_cast<double>(QualityRequests));

    // The fixed-rate phase runs in rounds with drains between them, so its
    // windows are spread over the run.
    std::vector<double> Lat, ProbeMs;
    uint64_t Hits = 0, Loads = 0, Evictions = 0;
    size_t Requests = 0;
    for (int Round = 0; Round < LoadRounds; ++Round) {
      std::string Name = "fixed_load." + std::to_string(Round);
      serve::RegistryStats Delta;
      auto Load = LoadPhase(Name.c_str(),
                            poissonSchedule(FleetRps, 0.7 * S / LoadRounds,
                                            O.Seed + 10 + Round, Pick),
                            false, nullptr, &Delta);
      std::vector<double> L = Load.Run.latenciesUs();
      Lat.insert(Lat.end(), L.begin(), L.end());
      ProbeMs.insert(ProbeMs.end(), Load.ProbeMs.begin(), Load.ProbeMs.end());
      Requests += Load.Run.size();
      Hits += Delta.Hits;
      Loads += Delta.Loads;
      Evictions += Delta.Evictions;
      if (Delta.LoadFailures)
        Rep.fail("registry: " + std::to_string(Delta.LoadFailures) +
                 " tenant loads failed");
      Drain.run(2);
    }
    Rep.metric("p50_us", windowedQuantile(Lat, 0.5, 0.25, 500), "us");
    Rep.info("fixed_load.best_window_p99_us",
             windowedQuantile(Lat, 0.99, 0.0));
    Rep.info("fixed_load.offered_rps", FleetRps);
    Rep.info("fixed_load.samples", static_cast<double>(Lat.size()));
    Rep.info("fixed_load.p50_us", quantile(Lat, 0.5));
    Rep.info("fixed_load.p99_us", quantile(Lat, 0.99));
    size_t Good = 0;
    for (double L : Lat)
      Good += L <= SloLimitUs ? 1 : 0;
    // Offered rate times the share served within the limit: the Poisson
    // draw's own request count does not enter.
    Rep.metric("slo_rps",
               Requests ? FleetRps * static_cast<double>(Good) /
                              static_cast<double>(Requests)
                        : 0.0,
               "1/s");
    Rep.info("slo.limit_us", SloLimitUs);
    Rep.metric("label_to_live_ms", median(ProbeMs), "ms");
    Rep.info("label_to_live.probes", static_cast<double>(ProbeMs.size()));
    Rep.info("fixed_load.registry_hits", static_cast<double>(Hits));
    Rep.info("fixed_load.registry_loads", static_cast<double>(Loads));
    Rep.info("fixed_load.registry_evictions", static_cast<double>(Evictions));

    Rep.metric("samples_per_s", Drain.finish(Rep), "1/s");
    std::filesystem::remove_all(Dir);
    return;
  }

  // Traced run: the load phase untraced (overhead baseline), then traced,
  // then replays of the served batches on the tenants' dedicated
  // detectors and replica stores, then registry / snapshot / refresh
  // probes.
  LayerMetrics M;
  auto Base = LoadPhase("fixed_load_untraced",
                        poissonSchedule(FleetRps, 0.3 * S, O.Seed + 3, Pick),
                        false, nullptr, nullptr);
  describeLatency("fixed_load_untraced", FleetRps, Base.Run, Rep);

  std::vector<Request> Sched =
      poissonSchedule(FleetRps, 0.3 * S, O.Seed + 5, Pick);
  serve::ServiceStats SS;
  serve::RegistryStats Delta;
  for (auto &TM : F->Traced)
    TM->setRecording(true);
  auto Tr = LoadPhase("fixed_load_traced", Sched, false, &SS, &Delta);
  std::vector<ForwardCall> Calls;
  for (auto &TM : F->Traced) {
    TM->setRecording(false);
    for (ForwardCall &C : TM->takeCalls())
      Calls.push_back(std::move(C));
  }
  describeLatency("fixed_load_traced", FleetRps, Tr.Run, Rep);

  std::vector<uint64_t> IdOfReq;
  for (const Request &R : Sched)
    IdOfReq.push_back(Pool[R.Sample].Id);
  std::vector<ServedBatch> Batches = batchesFromCalls(Calls, IdOfReq);
  Tracer T;
  std::vector<std::unique_ptr<ReplicaStore>> Replicas;
  for (size_t Tn = 0; Tn < NumTenants; ++Tn)
    Replicas.push_back(buildReplica(*Dedicated[Tn],
                                    *F->Models[Tn % NumModels], F->Calib[Tn]));
  ReplayStats RS;
  for (ServedBatch &B : Batches) {
    size_t Tn = static_cast<size_t>(Sched[B.Reqs.front()].Tenant);
    data::Dataset Work("batch", NumClasses);
    for (size_t Req : B.Reqs)
      Work.add(Pool[Sched[Req].Sample]);
    support::Matrix Probs, Embeds;
    Clock::time_point T0 = Clock::now();
    F->Models[Tn % NumModels]->predictWithEmbedBatch(Work, Probs, Embeds);
    Clock::time_point T1 = Clock::now();
    std::vector<Verdict> V = Dedicated[Tn]->assessBatchWithForwards(Probs, Embeds);
    Clock::time_point T2 = Clock::now();
    uint64_t Root = T.add("engine.replay", 0, B.Reqs.front(), T0, T2);
    T.add("ml.forward", Root, B.Reqs.front(), T0, T1);
    T.add("core.committee", Root, B.Reqs.front(), T1, T2);
    B.ReplayForwardUs = usBetween(T0, T1);
    B.ReplayCommitteeUs = usBetween(T1, T2);
    replayBatch(*Replicas[Tn], *Dedicated[Tn], Probs, Embeds, V, T, Root,
                B.Reqs.front(), RS);
  }
  if (RS.Mismatches)
    Rep.fail("store replay: " + std::to_string(RS.Mismatches) +
             " credibilities differ from the dedicated detector");
  attributeServed(Tr.Run, Batches, T, M);
  M.setReplay(RS);
  M.ServiceMeanBatch = SS.meanBatchSize();
  M.ServiceDeadlineFlushShare =
      SS.Batches ? static_cast<double>(SS.DeadlineFlushes) /
                       static_cast<double>(SS.Batches)
                 : 0.0;
  double BaseP50 = quantile(Base.Run.latenciesUs(), 0.5);
  M.TraceOverheadShare =
      BaseP50 > 0 ? quantile(Tr.Run.latenciesUs(), 0.5) / BaseP50 - 1.0
                  : 0.0;
  M.RegistryHitRatio =
      Delta.Hits + Delta.Loads
          ? static_cast<double>(Delta.Hits) /
                static_cast<double>(Delta.Hits + Delta.Loads)
          : 0.0;
  M.RegistryEvictions = static_cast<double>(Delta.Evictions);
  Rep.info("trace.batches", static_cast<double>(Batches.size()));

  M.RecalRefreshesCompleted = static_cast<double>(Tr.Recal.RefreshesCompleted);
  M.RecalSamplesFolded = static_cast<double>(Tr.Recal.SamplesFolded);
  M.RecalRefreshFailures = static_cast<double>(Tr.Recal.RefreshFailures);

  // Registry probes: a lease on a resident tenant, and cold acquires of
  // evicted ones (each evicts the LRU tenant, saving it first).
  M.RegistryAcquireHitUs = medianUs(201, [&] {
    serve::DetectorRegistry::Lease L = Reg.acquire(tenantName(0));
  });
  std::vector<double> ColdMs;
  for (size_t K = 0; K < 4 * NumTenants && ColdMs.size() < 7; ++K) {
    std::string Id = tenantName((K * 3 + 1) % NumTenants);
    if (Reg.isLoaded(Id))
      continue;
    Clock::time_point T0 = Clock::now();
    serve::DetectorRegistry::Lease L = Reg.acquire(Id);
    ColdMs.push_back(usBetween(T0, Clock::now()) / 1e3);
    if (!L)
      Rep.fail("registry: cold acquire of " + Id + " failed");
  }
  M.RegistryColdLoadMs = median(ColdMs);

  // Serialize probes on a dedicated detector, and the direct refresh cost
  // on a detector restored from that snapshot.
  const std::string Snap = Dir + "/probe.snap";
  M.SnapshotSaveMs =
      medianUs(7, [&] {
        if (!Dedicated[0]->saveSnapshot(Snap))
          Rep.fail("snapshot: save failed");
      }) /
      1e3;
  PromClassifier Restored(*F->Models[0]);
  M.SnapshotLoadMs =
      medianUs(7, [&] {
        PromClassifier P(*F->Models[0]);
        if (!P.loadSnapshot(Snap))
          Rep.fail("snapshot: load failed");
      }) /
      1e3;
  if (!Restored.loadSnapshot(Snap))
    Rep.fail("snapshot: load failed");
  size_t LabelCursor = 0;
  M.RecalRefreshMs = medianUs(7, [&] {
                       data::Dataset L("labels", NumClasses);
                       for (size_t K = 0; K < ProbeLabels; ++K)
                         L.add(Pool[(LabelCursor++ * 104729) % PoolSize]);
                       Restored.refreshCalibration(L);
                     }) /
                     1e3;

  writeTrace(T, O, Rep);
  M.emit(Rep);
  std::filesystem::remove_all(Dir);
}

} // namespace pb
