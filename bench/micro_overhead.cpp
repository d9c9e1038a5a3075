//===- bench/micro_overhead.cpp - Sec. 7.6 runtime overhead -------------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Section 7.6 runtime-overhead microbenchmarks, extended with the batched
// assessment engine study.
//
// Part 1 (custom timing, machine-readable JSON): end-to-end assessment
// throughput of an MLP-backed PromClassifier over a >= 1,000-sample
// deployment set, three ways:
//   * serial   — assessSerial(), the reference per-sample implementation
//                (two per-sample model forwards, sorted adaptive selection,
//                one p-value scan per expert): the pre-batching path.
//   * assess   — the public per-sample API, which delegates to the batch
//                engine on size-1 batches.
//   * batch    — assessBatch() over the whole deployment set.
// The three paths produce bit-identical verdicts (verified below before
// timing), so the speedup is pure engine efficiency: one batched model
// forward, O(N) selection instead of a full distance sort, fused
// all-expert p-values, reusable scratch.
//
// Part 2 (custom timing, JSON): the tree-ensemble / k-NN expert study.
// For each of kNN, RandomForest, and GradientBoosting — the committee
// experts that historically inherited the per-sample fallback — a
// calibrated PromClassifier runs a 256-sample deployment batch three
// ways: assessBatch() with the model's native batched forwards, the
// retained assessSerial() per-sample reference path (the headline
// baseline: per-sample forwards AND per-sample committee work), and
// assessBatch() through a shim that re-creates the pre-tentpole state by
// inheriting the Model.h per-sample fallback loops (isolating the
// forward-path change alone). All three are verified bit-identical before
// timing. Note the forward-isolation number is modest by construction for
// the compute-bound experts — a k-NN scan performs the same flops per
// sample batched or not — while the end-to-end batch-vs-reference number
// is what deployment actually sees.
//
// Part 3 (custom timing, JSON): the large-store cluster-pruned scan study.
// A CalibrationStore at 10^5 and 10^6 entries serves selectForAssessment()
// both ways — the exact flat scan (index policy disabled) and the lossless
// cluster-pruned scan (support/ClusterIndex) — across selection fractions
// 50%/10%/2%. Selections are verified bit-identical (selection bitmap +
// weights) per query before timing; the JSON rows record both latencies,
// the speedup, the scanned-lists/rows fractions, and the one-time index
// build cost.
//
// Part 4 (google-benchmark): the paper's original microbenchmarks —
// committee assessment at increasing calibration sizes, bare model
// inference, single-expert p-values, offline calibration.
//
// The whole binary pins PROM_THREADS=1 (unless the caller overrides it),
// so every reported number is single-core engine efficiency, not
// parallel fan-out.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "core/Calibration.h"
#include "core/CalibrationStore.h"
#include "core/PromConfig.h"
#include "data/Split.h"
#include "ml/GradientBoosting.h"
#include "ml/Knn.h"
#include "ml/Mlp.h"
#include "ml/RandomForest.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>

using namespace prom;
using namespace prom::bench;

namespace {

/// Shared state: an MLP over 16-d features with a calibrated PROM wrapper.
struct MicroState {
  support::Rng R{BenchSeed};
  data::Dataset Train{"micro", 6};
  data::Dataset Calib{"micro", 6};
  ml::MlpClassifier Model;
  std::unique_ptr<PromClassifier> Prom;
  data::Sample Probe;

  explicit MicroState(size_t CalibSize) {
    for (int I = 0; I < 1200; ++I)
      Train.add(makeSample(I % 6));
    for (size_t I = 0; I < CalibSize; ++I)
      Calib.add(makeSample(static_cast<int>(I % 6)));
    Model.fit(Train, R);
    Prom = std::make_unique<PromClassifier>(Model);
    Prom->calibrate(Calib);
    Probe = makeSample(3);
  }

  data::Sample makeSample(int Label) {
    data::Sample S;
    for (int D = 0; D < 16; ++D)
      S.Features.push_back(R.gaussian(Label * 0.7, 1.0));
    S.Label = Label;
    return S;
  }
};

MicroState &state(size_t CalibSize) {
  static std::map<size_t, std::unique_ptr<MicroState>> Cache;
  auto &Slot = Cache[CalibSize];
  if (!Slot)
    Slot = std::make_unique<MicroState>(CalibSize);
  return *Slot;
}

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

bool sameVerdict(const Verdict &A, const Verdict &B) {
  if (A.Predicted != B.Predicted || A.Drifted != B.Drifted ||
      A.VotesToFlag != B.VotesToFlag || A.Experts.size() != B.Experts.size())
    return false;
  for (size_t E = 0; E < A.Experts.size(); ++E) {
    if (A.Experts[E].Credibility != B.Experts[E].Credibility ||
        A.Experts[E].Confidence != B.Experts[E].Confidence ||
        A.Experts[E].PredictionSetSize != B.Experts[E].PredictionSetSize ||
        A.Experts[E].FlagDrift != B.Experts[E].FlagDrift)
      return false;
  }
  return true;
}

/// Batched-vs-serial assessment throughput (the headline numbers of the
/// batching engine), emitted as JSON result lines.
void runThroughputStudy() {
  const size_t CalibSize = 1000; // The paper's calibration cap.
  const size_t TestSize = 2000;  // >= 1,000 deployment samples.
  MicroState &S = state(CalibSize);

  data::Dataset Test{"micro-test", 6};
  for (size_t I = 0; I < TestSize; ++I)
    Test.add(S.makeSample(static_cast<int>(I % 6)));

  // Correctness first: the three paths must agree bit-for-bit, otherwise
  // the timing comparison is meaningless.
  std::vector<Verdict> Batched = S.Prom->assessBatch(Test);
  for (size_t I = 0; I < TestSize; I += 97) {
    Verdict Serial = S.Prom->assessSerial(Test[I]);
    Verdict Single = S.Prom->assess(Test[I]);
    if (!sameVerdict(Serial, Batched[I]) || !sameVerdict(Single, Batched[I])) {
      std::fprintf(stderr,
                   "FATAL: batch/serial verdict divergence at sample %zu\n",
                   I);
      std::exit(1);
    }
  }

  // Best-of-3 per path, interleaved, so one scheduling hiccup cannot skew
  // the comparison.
  double SerialSec = 1e300, AssessSec = 1e300, BatchSec = 1e300;
  for (int Rep = 0; Rep < 3; ++Rep) {
    auto T0 = std::chrono::steady_clock::now();
    for (size_t I = 0; I < TestSize; ++I)
      benchmark::DoNotOptimize(S.Prom->assessSerial(Test[I]));
    SerialSec = std::min(SerialSec, secondsSince(T0));

    auto T1 = std::chrono::steady_clock::now();
    for (size_t I = 0; I < TestSize; ++I)
      benchmark::DoNotOptimize(S.Prom->assess(Test[I]));
    AssessSec = std::min(AssessSec, secondsSince(T1));

    auto T2 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(S.Prom->assessBatch(Test));
    BatchSec = std::min(BatchSec, secondsSince(T2));
  }

  double N = static_cast<double>(TestSize);
  std::printf("\n== micro_overhead: batched vs per-sample assessment "
              "(calib=%zu, test=%zu) ==\n",
              CalibSize, TestSize);
  std::printf("serial reference : %8.1f samples/s (%.1f us/sample)\n",
              N / SerialSec, 1e6 * SerialSec / N);
  std::printf("assess() loop    : %8.1f samples/s (%.1f us/sample)\n",
              N / AssessSec, 1e6 * AssessSec / N);
  std::printf("assessBatch()    : %8.1f samples/s (%.1f us/sample)\n",
              N / BatchSec, 1e6 * BatchSec / N);
  std::printf("speedup batch vs serial reference: %.2fx\n",
              SerialSec / BatchSec);
  std::printf("speedup batch vs assess() loop   : %.2fx\n",
              AssessSec / BatchSec);

  jsonResult("micro_overhead", "serial_reference_samples_per_sec",
             N / SerialSec);
  jsonResult("micro_overhead", "assess_loop_samples_per_sec", N / AssessSec);
  jsonResult("micro_overhead", "batch_samples_per_sec", N / BatchSec);
  jsonResult("micro_overhead", "speedup_batch_vs_serial",
             SerialSec / BatchSec);
  jsonResult("micro_overhead", "speedup_batch_vs_assess_loop",
             AssessSec / BatchSec);
}

//===----------------------------------------------------------------------===//
// Tree-ensemble / k-NN expert study
//===----------------------------------------------------------------------===//

/// Re-creates the pre-batching behaviour of an expert: forwards the
/// per-sample virtuals to the wrapped (already fitted) model and inherits
/// the Model.h per-sample fallback loops for every batched entry point.
class PerSampleFallback : public ml::Classifier {
public:
  explicit PerSampleFallback(const ml::Classifier &Inner) : Inner(Inner) {}
  void fit(const data::Dataset &, support::Rng &) override {}
  std::vector<double> predictProba(const data::Sample &S) const override {
    return Inner.predictProba(S);
  }
  std::vector<double> embed(const data::Sample &S) const override {
    return Inner.embed(S);
  }
  int numClasses() const override { return Inner.numClasses(); }
  std::string name() const override { return Inner.name() + "-fallback"; }

private:
  const ml::Classifier &Inner;
};

/// 16-d, 6-class blobs sized for one expert study.
data::Dataset expertBlobs(size_t N, size_t Dim, support::Rng &R) {
  data::Dataset Data("expert", 6);
  for (size_t I = 0; I < N; ++I) {
    int Label = static_cast<int>(I % 6);
    data::Sample S;
    for (size_t D = 0; D < Dim; ++D)
      S.Features.push_back(R.gaussian(Label * 0.7, 1.0));
    S.Label = Label;
    Data.add(std::move(S));
  }
  return Data;
}

/// Times assessBatch() on \p Prom over \p Test, best of \p Reps.
double timeAssessBatch(const PromClassifier &Prom, const data::Dataset &Test,
                       int Reps) {
  double Best = 1e300;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    auto T0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(Prom.assessBatch(Test));
    Best = std::min(Best, secondsSince(T0));
  }
  return Best;
}

/// One expert's three-way comparison at batch 256; emits JSON result
/// lines tagged \p Tag.
void runExpertStudy(const char *Tag, const ml::Classifier &Model,
                    const data::Dataset &Calib, const data::Dataset &Test) {
  PromClassifier Native(Model);
  Native.calibrate(Calib);

  PerSampleFallback Shim(Model);
  PromClassifier Fallback(Shim);
  Fallback.calibrate(Calib);

  // Correctness first: all three paths must agree bit for bit.
  std::vector<Verdict> VN = Native.assessBatch(Test);
  std::vector<Verdict> VF = Fallback.assessBatch(Test);
  for (size_t I = 0; I < Test.size(); ++I) {
    if (!sameVerdict(VN[I], VF[I]) ||
        !sameVerdict(VN[I], Native.assessSerial(Test[I]))) {
      std::fprintf(stderr,
                   "FATAL: %s batch/reference verdict divergence at %zu\n",
                   Tag, I);
      std::exit(1);
    }
  }

  double NativeSec = timeAssessBatch(Native, Test, 3);
  double FallbackSec = timeAssessBatch(Fallback, Test, 3);
  double SerialSec = 1e300;
  for (int Rep = 0; Rep < 3; ++Rep) {
    auto T0 = std::chrono::steady_clock::now();
    for (size_t I = 0; I < Test.size(); ++I)
      benchmark::DoNotOptimize(Native.assessSerial(Test[I]));
    SerialSec = std::min(SerialSec, secondsSince(T0));
  }

  double N = static_cast<double>(Test.size());
  std::printf("%-4s batch %zu : batch %8.1f/s, per-sample reference "
              "%8.1f/s (speedup %.2fx), forward-fallback batch %8.1f/s "
              "(speedup %.2fx)\n",
              Tag, Test.size(), N / NativeSec, N / SerialSec,
              SerialSec / NativeSec, N / FallbackSec,
              FallbackSec / NativeSec);
  std::string Prefix = std::string(Tag) + "_batch256_";
  jsonResult("micro_overhead", Prefix + "samples_per_sec", N / NativeSec);
  jsonResult("micro_overhead",
             std::string(Tag) + "_serial_reference_samples_per_sec",
             N / SerialSec);
  jsonResult("micro_overhead", Prefix + "speedup_vs_per_sample_reference",
             SerialSec / NativeSec);
  jsonResult("micro_overhead", Prefix + "speedup_vs_forward_fallback",
             FallbackSec / NativeSec);
}

/// Batched forwards for the committee experts that used to inherit the
/// per-sample fallback: kNN, RandomForest, GradientBoosting.
void runTreeKnnExpertStudy() {
  const size_t BatchSize = 256;
  std::printf("\n== micro_overhead: tree/kNN experts, batch vs per-sample "
              "reference vs forward-fallback (batch=%zu, single-core) ==\n",
              BatchSize);

  {
    // Instance-based expert over a 4096 x 32 training block.
    support::Rng R(BenchSeed);
    data::Dataset Train = expertBlobs(4096, 32, R);
    data::Dataset Calib = expertBlobs(1000, 32, R);
    data::Dataset Test = expertBlobs(BatchSize, 32, R);
    ml::KnnClassifier Model(5);
    Model.fit(Train, R);
    runExpertStudy("knn", Model, Calib, Test);
  }
  {
    // Production-sized forest: 100 trees x depth 12 put the node arrays
    // past L2, so the per-sample descent chases cold pointers while the
    // level-by-level path keeps one tree hot across the whole batch.
    support::Rng R(BenchSeed + 1);
    data::Dataset Train = expertBlobs(3000, 16, R);
    data::Dataset Calib = expertBlobs(1000, 16, R);
    data::Dataset Test = expertBlobs(BatchSize, 16, R);
    ml::ForestConfig Cfg;
    Cfg.NumTrees = 100;
    Cfg.Tree.MaxDepth = 12;
    ml::RandomForestClassifier Model(Cfg);
    Model.fit(Train, R);
    runExpertStudy("rf", Model, Calib, Test);
  }
  {
    // Boosted committee member: 60 rounds x 6 classes = 360 stage trees
    // per forward.
    support::Rng R(BenchSeed + 2);
    data::Dataset Train = expertBlobs(800, 16, R);
    data::Dataset Calib = expertBlobs(1000, 16, R);
    data::Dataset Test = expertBlobs(BatchSize, 16, R);
    ml::BoostConfig Cfg;
    Cfg.Rounds = 60;
    Cfg.Tree.MaxDepth = 6;
    ml::GradientBoostingClassifier Model(Cfg);
    Model.fit(Train, R);
    runExpertStudy("gbc", Model, Calib, Test);
  }
}

//===----------------------------------------------------------------------===//
// Large-store cluster-pruned scan study
//===----------------------------------------------------------------------===//

/// One exact selection's outputs, captured for the bit-identity check.
struct SelectionSnapshot {
  size_t Keep = 0;
  bool SelectedAll = false;
  std::vector<uint64_t> SelectedBits;
  std::vector<double> Weights;
};

/// Exact-vs-pruned selectForAssessment() on a store of \p N blob-structured
/// entries, across selection fractions 50%/10%/2%. The pruned selections
/// are verified bit-identical to the exact ones per query before timing.
void runStoreScaleStudy(size_t N) {
  const size_t Dim = 32;
  const size_t NumBlobs = 64;
  const size_t NumQueries = 16;
  const double Fractions[] = {0.5, 0.1, 0.02};
  support::Rng R(BenchSeed + 9);

  std::vector<double> Centers(NumBlobs * Dim);
  for (double &V : Centers)
    V = R.gaussian(0.0, 8.0);

  CalibrationStore Store;
  Store.reserve(N);
  for (size_t I = 0; I < N; ++I) {
    CalibrationEntry E;
    E.Embed.resize(Dim);
    const double *C = Centers.data() + (I % NumBlobs) * Dim;
    for (size_t D = 0; D < Dim; ++D)
      E.Embed[D] = C[D] + R.gaussian(0.0, 1.0);
    E.Label = static_cast<int>(I % 6);
    E.Scores = {R.uniform(0.0, 1.0), R.uniform(0.0, 1.0)};
    Store.add(std::move(E));
  }
  Store.finalize(/*NumShards=*/1);

  std::vector<std::vector<double>> Queries(NumQueries,
                                           std::vector<double>(Dim));
  for (auto &Q : Queries) {
    const double *C = Centers.data() + R.bounded(NumBlobs) * Dim;
    for (size_t D = 0; D < Dim; ++D)
      Q[D] = C[D] + R.gaussian(0.0, 1.0);
  }
  // The same queries as one contiguous block, for the batch-prepared scan.
  std::vector<double> QueryBlock(NumQueries * Dim);
  for (size_t Q = 0; Q < NumQueries; ++Q)
    std::copy(Queries[Q].begin(), Queries[Q].end(),
              QueryBlock.data() + Q * Dim);

  auto Snapshot = [&](const PromConfig &Cfg, std::vector<SelectionSnapshot> &Out) {
    AssessmentScratch S;
    Out.clear();
    for (const auto &Q : Queries) {
      Store.selectForAssessment(Q.data(), Cfg, S);
      Out.push_back({S.Keep, S.SelectedAll, S.SelectedBits, S.WeightByEntry});
    }
  };
  auto TimePerQueryUs = [&](const PromConfig &Cfg) {
    AssessmentScratch S;
    double Best = 1e300;
    for (int Rep = 0; Rep < 3; ++Rep) {
      auto T0 = std::chrono::steady_clock::now();
      for (const auto &Q : Queries) {
        Store.selectForAssessment(Q.data(), Cfg, S);
        benchmark::DoNotOptimize(S.Keep);
      }
      Best = std::min(Best, secondsSince(T0));
    }
    return 1e6 * Best / static_cast<double>(NumQueries);
  };

  // Exact pass first: the store keeps the default (disabled) index policy
  // until every fraction's reference selections and timings are in.
  const size_t NumFractions = sizeof(Fractions) / sizeof(Fractions[0]);
  std::vector<std::vector<SelectionSnapshot>> Reference(NumFractions);
  std::vector<double> ExactUs(NumFractions);
  for (size_t F = 0; F < NumFractions; ++F) {
    PromConfig Cfg;
    Cfg.SelectFraction = Fractions[F];
    Snapshot(Cfg, Reference[F]);
    ExactUs[F] = TimePerQueryUs(Cfg);
  }

  // Switch the same store to the cluster-pruned regime (one timed build).
  ClusterIndexPolicy Policy;
  Policy.Enabled = true;
  Policy.NumCentroids = N >= 500000 ? 512 : 0; // Else auto (~sqrt N).
  Policy.MinEntries = 1024;
  // Measure every fraction on the pruned path, including the unfavourable
  // 50% one — these numbers are what motivates the production
  // MaxSelectFraction routing bound.
  Policy.MaxSelectFraction = 1.0;
  auto B0 = std::chrono::steady_clock::now();
  Store.setIndexPolicy(Policy);
  double BuildSec = secondsSince(B0);

  std::printf("\n== micro_overhead: cluster-pruned vs exact calibration "
              "scan (N=%zu, dim=%zu, single-core; index build %.2fs) ==\n",
              N, Dim, BuildSec);
  std::string NTag = "store_scan_n" + std::to_string(N);
  jsonResult("micro_overhead", NTag + "_index_build_s", BuildSec);

  for (size_t F = 0; F < NumFractions; ++F) {
    PromConfig Cfg;
    Cfg.SelectFraction = Fractions[F];

    // Bit-identity gate plus the pruning counters of each query.
    AssessmentScratch S;
    PrunedScanStats PerQuerySum;
    double ListsFrac = 0.0, RowsFrac = 0.0;
    for (size_t Q = 0; Q < NumQueries; ++Q) {
      Store.selectForAssessment(Queries[Q].data(), Cfg, S);
      const SelectionSnapshot &Ref = Reference[F][Q];
      if (S.Pruned.ListsTotal == 0 || S.Keep != Ref.Keep ||
          S.SelectedAll != Ref.SelectedAll ||
          S.SelectedBits != Ref.SelectedBits ||
          S.WeightByEntry.size() != Ref.Weights.size() ||
          std::memcmp(S.WeightByEntry.data(), Ref.Weights.data(),
                      Ref.Weights.size() * sizeof(double)) != 0) {
        std::fprintf(stderr,
                     "FATAL: pruned selection diverges from the exact scan "
                     "(N=%zu, fraction %.2f, query %zu)\n",
                     N, Fractions[F], Q);
        std::exit(1);
      }
      PerQuerySum += S.Pruned;
      ListsFrac += static_cast<double>(S.Pruned.ListsScanned) /
                   static_cast<double>(S.Pruned.ListsTotal);
      RowsFrac += static_cast<double>(S.Pruned.RowsScanned) /
                  static_cast<double>(S.Pruned.RowsTotal);
    }
    ListsFrac /= static_cast<double>(NumQueries);
    RowsFrac /= static_cast<double>(NumQueries);

    double PrunedUs = TimePerQueryUs(Cfg);

    // Batch-prepared variant: one prepareBatchPrunedScan() computes the
    // centroid blocks for all queries (shared MxN kernel pass + ThreadPool
    // fan-out), then each selection reads its cached row. Verified
    // bit-identical to the exact reference first, like the per-query path.
    // A fresh scratch replays the reference's query history: WeightByEntry
    // slots of unselected entries carry the previous query's values by
    // design (the engine only reads them bitmap-gated), so the full-array
    // comparison is only meaningful between runs with identical histories.
    CalibrationStore::BatchPrunedScan Scan;
    Store.prepareBatchPrunedScan(QueryBlock.data(), NumQueries, Dim, Cfg,
                                 Scan);
    if (!Scan.Active) {
      std::fprintf(stderr, "FATAL: batch pruned scan not routed at N=%zu\n",
                   N);
      std::exit(1);
    }
    AssessmentScratch BS;
    for (size_t Q = 0; Q < NumQueries; ++Q) {
      Store.selectForAssessment(QueryBlock.data() + Q * Dim, Cfg, BS, &Scan,
                                Q);
      const SelectionSnapshot &Ref = Reference[F][Q];
      if (BS.Pruned.ListsTotal == 0 || BS.Keep != Ref.Keep ||
          BS.SelectedBits != Ref.SelectedBits ||
          BS.WeightByEntry.size() != Ref.Weights.size() ||
          std::memcmp(BS.WeightByEntry.data(), Ref.Weights.data(),
                      Ref.Weights.size() * sizeof(double)) != 0) {
        std::fprintf(stderr,
                     "FATAL: batch-prepared pruned selection diverges from "
                     "the exact scan (N=%zu, fraction %.2f, query %zu)\n",
                     N, Fractions[F], Q);
        std::exit(1);
      }
    }
    // Counter gate: the batch-prepared walks make exactly the per-query
    // walks' pruning decisions, so the batch aggregate must equal the sum
    // of the per-query counters, integer for integer.
    PrunedScanStats Agg = Scan.aggregated();
    if (Agg.ListsTotal != PerQuerySum.ListsTotal ||
        Agg.ListsScanned != PerQuerySum.ListsScanned ||
        Agg.RowsTotal != PerQuerySum.RowsTotal ||
        Agg.RowsScanned != PerQuerySum.RowsScanned) {
      std::fprintf(stderr,
                   "FATAL: batch-prepared pruning counters diverge from the "
                   "per-query sum (N=%zu, fraction %.2f)\n",
                   N, Fractions[F]);
      std::exit(1);
    }
    double BatchRowsFrac = static_cast<double>(Agg.RowsScanned) /
                           static_cast<double>(Agg.RowsTotal);

    double BatchUs = 1e300;
    for (int Rep = 0; Rep < 3; ++Rep) {
      auto T0 = std::chrono::steady_clock::now();
      Store.prepareBatchPrunedScan(QueryBlock.data(), NumQueries, Dim, Cfg,
                                   Scan);
      for (size_t Q = 0; Q < NumQueries; ++Q) {
        Store.selectForAssessment(QueryBlock.data() + Q * Dim, Cfg, S,
                                  &Scan, Q);
        benchmark::DoNotOptimize(S.Keep);
      }
      BatchUs = std::min(BatchUs, 1e6 * secondsSince(T0) /
                                      static_cast<double>(NumQueries));
    }

    int KeepPct = static_cast<int>(Fractions[F] * 100.0 + 0.5);
    std::printf("select %2d%% : exact %9.1f us/query | pruned %8.1f "
                "us/query | speedup %5.2fx | batch-prepared %8.1f us/query "
                "(%5.2fx vs exact) | lists scanned %4.1f%% | rows scanned "
                "%4.1f%%\n",
                KeepPct, ExactUs[F], PrunedUs, ExactUs[F] / PrunedUs,
                BatchUs, ExactUs[F] / BatchUs, 100.0 * ListsFrac,
                100.0 * RowsFrac);
    std::string Tag = NTag + "_keep" + std::to_string(KeepPct);
    jsonResult("micro_overhead", Tag + "_exact_us_per_query", ExactUs[F]);
    jsonResult("micro_overhead", Tag + "_pruned_us_per_query", PrunedUs);
    jsonResult("micro_overhead", Tag + "_speedup", ExactUs[F] / PrunedUs);
    jsonResult("micro_overhead", Tag + "_batch_us_per_query", BatchUs);
    jsonResult("micro_overhead", Tag + "_batch_speedup_vs_exact",
               ExactUs[F] / BatchUs);
    jsonResult("micro_overhead", Tag + "_batch_speedup_vs_perquery",
               PrunedUs / BatchUs);
    jsonResult("micro_overhead", Tag + "_lists_scanned_fraction", ListsFrac);
    jsonResult("micro_overhead", Tag + "_rows_scanned_fraction", RowsFrac);
    jsonResult("micro_overhead", Tag + "_batch_rows_scanned_fraction",
               BatchRowsFrac);
  }
}

} // namespace

/// Full deployment-time assessment: 4 experts' scores + committee vote.
static void BM_CommitteeAssess(benchmark::State &BState) {
  MicroState &S = state(static_cast<size_t>(BState.range(0)));
  for (auto _ : BState) {
    Verdict V = S.Prom->assess(S.Probe);
    benchmark::DoNotOptimize(V);
  }
}
BENCHMARK(BM_CommitteeAssess)->Arg(100)->Arg(500)->Arg(1000);

/// The underlying model inference alone, for reference.
static void BM_ModelInference(benchmark::State &BState) {
  MicroState &S = state(500);
  for (auto _ : BState) {
    std::vector<double> P = S.Model.predictProba(S.Probe);
    benchmark::DoNotOptimize(P);
  }
}
BENCHMARK(BM_ModelInference);

/// One expert's p-value computation (selection + Eq. 2).
static void BM_SingleExpertPValues(benchmark::State &BState) {
  MicroState &S = state(static_cast<size_t>(BState.range(0)));
  for (auto _ : BState) {
    std::vector<double> P = S.Prom->pValues(S.Probe, 0);
    benchmark::DoNotOptimize(P);
  }
}
BENCHMARK(BM_SingleExpertPValues)->Arg(100)->Arg(1000);

/// Offline calibration processing (design-time, not on the serving path).
static void BM_Calibrate(benchmark::State &BState) {
  MicroState &S = state(500);
  for (auto _ : BState)
    S.Prom->calibrate(S.Calib);
}
BENCHMARK(BM_Calibrate);

int main(int argc, char **argv) {
  // Single-core by default (the callers' PROM_THREADS still wins): the
  // reported speedups are engine efficiency, not parallel fan-out, and
  // must not depend on the runner's core count. Set before the first
  // ThreadPool::global() use, which sizes the pool once.
  setenv("PROM_THREADS", "1", /*overwrite=*/0);
  runThroughputStudy();
  runTreeKnnExpertStudy();
  runStoreScaleStudy(100000);
  runStoreScaleStudy(1000000);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
