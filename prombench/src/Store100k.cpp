//===- prombench/src/Store100k.cpp - The store_100k workload ---------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Closed loop: one caller runs direct PromClassifier::assessBatch on
// 64-sample batches against a 100,000-entry store with SelectFraction 0.1,
// so the cluster-pruned routing and prepareBatchPrunedScan fire. Selection
// and the p-value fold dominate and the service layer is bypassed: this is
// where the ClusterIndex / prepared-scan keep-or-delete decisions, the
// p-value fold and the kernels get settled.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "support/Rng.h"

#include <cmath>
#include <cstdio>

using namespace prom;

namespace pb {

namespace {

constexpr size_t StoreEntries = 100000;
constexpr size_t BatchSize = 64;
constexpr size_t PoolBatches = 256;
/// Batches whose verdicts feed the quality metrics: a fixed prefix of the
/// stream, so the metrics do not depend on how many batches a run fits.
constexpr size_t QualityBatches = 96;
/// Latency limit of one 64-sample call for the goodput figure.
constexpr double BatchLimitUs = 250000;

/// Batches per throughput slice of sliceThroughput().
constexpr size_t SliceBatches = 8;

/// Samples per second of each consecutive SliceBatches-batch slice.
std::vector<double> sliceRates(const std::vector<double> &LatUs) {
  std::vector<double> Rates;
  for (size_t B = 0; B + SliceBatches <= LatUs.size(); B += SliceBatches) {
    double Us = 0;
    for (size_t K = B; K < B + SliceBatches; ++K)
      Us += LatUs[K];
    Rates.push_back(static_cast<double>(SliceBatches * BatchSize) / Us * 1e6);
  }
  return Rates;
}

/// Closed-loop throughput robust to host interference: the upper quartile
/// of the slice rates (the host only ever slows a slice down).
double sliceThroughput(const std::vector<double> &LatUs) {
  return quantile(sliceRates(LatUs), 0.75);
}

/// Batch-latency quantile \p Q over the slices at or above the lower
/// quartile of the slice rates: the slowest quarter of the run, where a
/// slow stretch of the host lands, is left out.
double trimmedLatency(const std::vector<double> &LatUs, double Q) {
  std::vector<double> Rates = sliceRates(LatUs);
  double Floor = quantile(Rates, 0.25);
  std::vector<double> Kept;
  for (size_t S = 0; S < Rates.size(); ++S)
    if (Rates[S] >= Floor)
      Kept.insert(Kept.end(), LatUs.begin() + S * SliceBatches,
                  LatUs.begin() + (S + 1) * SliceBatches);
  return quantile(Kept.empty() ? LatUs : Kept, Q);
}

struct LoopResult {
  std::vector<double> LatUs;
  double Seconds = 0;
  size_t Samples = 0;
};

} // namespace

void runStore100k(const Options &O, Report &Rep) {
  PromConfig Cfg;
  Cfg.SelectFraction = 0.1;
  Cfg.MaxCalibEntries = StoreEntries;
  Deployment D;
  double SetupS = timedSetups(O.Trace ? 1 : 3,
                              [&] { D = deploy(DeploymentSeed, StoreEntries,
                                               Cfg); },
                              Rep);
  Rep.info("store.entries", static_cast<double>(D.Prom->calibrationSize()));
  Rep.info("store.select_fraction", Cfg.SelectFraction);
  Rep.info("store.shards", static_cast<double>(D.Prom->numShards()));
  Rep.info("batch_size", static_cast<double>(BatchSize));

  const data::Dataset Pool =
      makeSamples(O.Seed, PoolBatches * BatchSize, 0.5);
  std::vector<data::Dataset> Batches(PoolBatches,
                                     data::Dataset("batch", NumClasses));
  for (size_t I = 0; I < Pool.size(); ++I)
    Batches[I / BatchSize].add(Pool[I]);
  size_t Next = 0; // Stream position, in batches.
  size_t Cursor = 0;

  // One closed-loop pass of at least MinBatches batches and Seconds.
  auto Loop = [&](const char *Name, double Seconds, size_t MinBatches,
                  const std::function<std::vector<Verdict>(
                      const data::Dataset &, size_t)> &Assess) {
    LoopResult R;
    Phase P;
    P.Name = Name;
    Clock::time_point Begin = Clock::now();
    while (R.LatUs.size() < MinBatches ||
           usBetween(Begin, Clock::now()) < Seconds * 1e6) {
      size_t B = Next++ % PoolBatches;
      Clock::time_point T0 = Clock::now();
      std::vector<Verdict> V = Assess(Batches[B], B);
      R.LatUs.push_back(usBetween(T0, Clock::now()));
      P.Attempted += Batches[B].size();
      P.Succeeded += V.size();
      R.Samples += V.size();
    }
    R.Seconds = usBetween(Begin, Clock::now()) / 1e6;
    P.Failed = P.Attempted - P.Succeeded;
    Rep.phase(P);
    std::printf("%-16s %zu batches  %.1f samples/s  p50 %.0fus  p99 %.0fus\n",
                Name, R.LatUs.size(), R.Samples / R.Seconds,
                quantile(R.LatUs, 0.5), quantile(R.LatUs, 0.99));
    return R;
  };
  auto Direct = [&](const data::Dataset &B, size_t) {
    return D.Prom->assessBatch(B);
  };

  const double S = O.Seconds;
  Loop("warmup", 0.05 * S, 2, Direct);
  Next = 0;

  if (!O.Trace) {
    Rep.metric("setup_s", SetupS, "s");
    Quality Q;
    data::Dataset Checked("checked", NumClasses);
    std::vector<Verdict> CheckedV;
    support::Rng Pick(O.Seed ^ 0x5107E100ull);
    LoopResult R =
        Loop("closed_loop", 0.6 * S, QualityBatches,
             [&](const data::Dataset &B, size_t Index) {
               std::vector<Verdict> V = D.Prom->assessBatch(B);
               if (Next <= QualityBatches)
                 for (size_t K = 0; K < V.size(); ++K) {
                   Q.add(V[K], B[K].Label);
                   if (Pick.bounded(512) == 0) {
                     Checked.add(B[K]);
                     CheckedV.push_back(V[K]);
                   }
                 }
               (void)Index;
               return V;
             });
    Rep.metric("p50_us", trimmedLatency(R.LatUs, 0.5), "us");
    Rep.info("closed_loop.trimmed_p99_us", trimmedLatency(R.LatUs, 0.99));
    Rep.info("closed_loop.p50_us", quantile(R.LatUs, 0.5));
    Rep.info("closed_loop.p99_us", quantile(R.LatUs, 0.99));
    Rep.metric("samples_per_s", sliceThroughput(R.LatUs), "1/s");
    Rep.info("closed_loop.mean_samples_per_s",
             static_cast<double>(R.Samples) / R.Seconds);
    size_t Good = 0;
    for (double L : R.LatUs)
      Good += L <= BatchLimitUs ? BatchSize : 0;
    Rep.metric("slo_rps",
               sliceThroughput(R.LatUs) * static_cast<double>(Good) /
                   static_cast<double>(R.LatUs.size() * BatchSize),
               "1/s");
    Rep.metric("mispred_recall", Q.recall(), "ratio");
    Rep.metric("false_reject_rate", Q.falseRejectRate(), "ratio");
    Rep.info("closed_loop.batches", static_cast<double>(R.LatUs.size()));
    Rep.info("closed_loop.p99_samples_beyond",
             std::floor(0.01 * static_cast<double>(R.LatUs.size())));
    Rep.info("slo.limit_us", BatchLimitUs);
    Rep.info("quality.verdicts",
             static_cast<double>(QualityBatches * BatchSize));
    // The served path is assessBatch itself; the oracle is assessSerial.
    checkVerdicts("closed_loop", *D.Prom, Checked, CheckedV, O.Seed, 1, Rep);

    RefreshProbe Refresh(*D.Prom, Pool, 64);
    Refresh.run(12);
    Rep.metric("label_to_live_ms", Refresh.finish(Rep), "ms");
    return;
  }

  // Traced run: the untraced loop as the overhead baseline, then the same
  // stream as an explicit forward + committee pair (what assessBatch does)
  // under spans, with every other batch replayed through the replica
  // store for the selection / scoring / p-value split.
  LayerMetrics M;
  LoopResult Base = Loop("closed_loop_untraced", 0.3 * S, 8, Direct);
  Next = 0;
  Tracer T;
  std::unique_ptr<ReplicaStore> Replica =
      buildReplica(*D.Prom, *D.Model, D.Calib);
  ReplayStats RS;
  double FwdUs = 0, CommitteeUs = 0, RequestUs = 0;
  size_t Traced = 0, DecompositionMismatch = 0;
  data::Dataset Checked("checked", NumClasses);
  std::vector<Verdict> CheckedV;
  // Replayed after the loop: interleaving the replica's scans with the
  // engine's would evict the engine's store from cache mid-measurement.
  struct Pending {
    support::Matrix Probs, Embeds;
    std::vector<Verdict> V;
    size_t Index;
    uint64_t Root;
  };
  std::vector<Pending> ToReplay;
  LoopResult Tr = Loop(
      "closed_loop_traced", 0.3 * S, 8,
      [&](const data::Dataset &B, size_t Index) {
        support::Matrix Probs, Embeds;
        Clock::time_point T0 = Clock::now();
        D.Prom->model().predictWithEmbedBatch(B, Probs, Embeds);
        Clock::time_point T1 = Clock::now();
        std::vector<Verdict> V = D.Prom->assessBatchWithForwards(Probs, Embeds);
        Clock::time_point T2 = Clock::now();
        uint64_t Root = T.add("request", 0, Index, T0, T2);
        T.add("ml.forward", Root, Index, T0, T1);
        T.add("core.committee", Root, Index, T1, T2);
        FwdUs += usBetween(T0, T1);
        CommitteeUs += usBetween(T1, T2);
        RequestUs += usBetween(T0, T2);
        if (Traced < 2) {
          std::vector<Verdict> Ref = D.Prom->assessBatch(B);
          for (size_t K = 0; K < V.size(); ++K)
            DecompositionMismatch += sameVerdict(V[K], Ref[K]) ? 0 : 1;
          Checked.add(B[0]);
          CheckedV.push_back(V[0]);
        }
        if (Traced++ % 2 == 0)
          ToReplay.push_back({Probs, Embeds, V, Index, Root});
        return V;
      });
  for (const Pending &P : ToReplay)
    replayBatch(*Replica, *D.Prom, P.Probs, P.Embeds, P.V, T, P.Root, P.Index,
                RS);
  if (DecompositionMismatch)
    Rep.fail("forward + assessBatchWithForwards differs from assessBatch on " +
             std::to_string(DecompositionMismatch) + " verdicts");
  if (RS.Mismatches)
    Rep.fail("store replay: " + std::to_string(RS.Mismatches) +
             " credibilities differ from the engine");
  if (!RS.Pruned)
    Rep.fail("store replay: the pruned routing never fired");
  checkVerdicts("closed_loop_traced", *D.Prom, Checked, CheckedV, O.Seed, 1,
                Rep);
  double Samples = static_cast<double>(Tr.Samples);
  M.ForwardUsPerSample = FwdUs / Samples;
  M.CommitteeUsPerSample = CommitteeUs / Samples;
  M.UnattributedShare =
      RequestUs > 0 ? (RequestUs - FwdUs - CommitteeUs) / RequestUs : 0.0;
  M.setReplay(RS);
  double BaseP50 = quantile(Base.LatUs, 0.5);
  M.TraceOverheadShare =
      BaseP50 > 0 ? quantile(Tr.LatUs, 0.5) / BaseP50 - 1.0 : 0.0;

  {
    RefreshProbe Refresh(*D.Prom, Pool, 64);
    Refresh.run(3);
    Refresh.finish(Rep);
    M.RecalRefreshesCompleted =
        static_cast<double>(Refresh.stats().RefreshesCompleted);
    M.RecalSamplesFolded = static_cast<double>(Refresh.stats().SamplesFolded);
    M.RecalRefreshFailures =
        static_cast<double>(Refresh.stats().RefreshFailures);
  }
  M.RecalRefreshMs = medianUs(3, [&] {
                       data::Dataset L("labels", NumClasses);
                       for (size_t K = 0; K < 64; ++K)
                         L.add(Pool[Cursor++ % Pool.size()]);
                       D.Prom->refreshCalibration(L);
                     }) /
                     1e3;
  writeTrace(T, O, Rep);
  M.emit(Rep);
}

} // namespace pb
