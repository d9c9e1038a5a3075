//===- tests/ShardedStoreTest.cpp - shard-count invariance --------------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The sharded CalibrationStore must be a pure work-partitioning
// transformation: for any shard count, verdicts are bit-identical to the
// unsharded (K=1) path and to the assessSerial() oracle — exact
// floating-point equality on every expert score. Covers the general
// weighted path (block-partial merge), the unweighted full-selection fast
// path (per-shard sorted-index counts), the regressor, and reshard() —
// also while another thread keeps assessing.
//
//===----------------------------------------------------------------------===//

#include "core/Detector.h"
#include "data/Split.h"
#include "ml/Linear.h"
#include "ml/Mlp.h"
#include "support/Kernels.h"
#include "support/ThreadPool.h"
#include "tests/TestHelpers.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cassert>
#include <cstring>
#include <thread>

using namespace prom;
using prom::testing::gaussianBlobs;
using prom::testing::linearRegression;

namespace {

void expectSameVerdict(const Verdict &A, const Verdict &B, size_t Index) {
  SCOPED_TRACE("sample " + std::to_string(Index));
  EXPECT_EQ(A.Predicted, B.Predicted);
  EXPECT_EQ(A.Drifted, B.Drifted);
  EXPECT_EQ(A.VotesToFlag, B.VotesToFlag);
  ASSERT_EQ(A.Experts.size(), B.Experts.size());
  for (size_t E = 0; E < A.Experts.size(); ++E) {
    EXPECT_EQ(A.Experts[E].Credibility, B.Experts[E].Credibility);
    EXPECT_EQ(A.Experts[E].Confidence, B.Experts[E].Confidence);
    EXPECT_EQ(A.Experts[E].PredictionSetSize,
              B.Experts[E].PredictionSetSize);
    EXPECT_EQ(A.Experts[E].FlagDrift, B.Experts[E].FlagDrift);
  }
}

void expectSameVerdicts(const std::vector<Verdict> &A,
                        const std::vector<Verdict> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I)
    expectSameVerdict(A[I], B[I], I);
}

/// A calibration set spanning several accumulation blocks (> 2048 entries
/// would be 8 blocks; this gives at least 8) so K=8 builds real shards.
struct BigBlobFixture {
  support::Rng R{321};
  data::Dataset Train, Calib, Test;
  ml::LogisticRegression Model;

  BigBlobFixture() {
    data::Dataset Full = gaussianBlobs(3, 900, 4.0, 0.9, R);
    auto Split = data::calibrationPartition(Full, R, 0.8,
                                            /*MaxCalibration=*/4000);
    Train = std::move(Split.first);
    Calib = std::move(Split.second);
    assert(Calib.size() > 8 * 256 && "fixture must span > 8 accum blocks");
    Model.fit(Train, R);
    Test = gaussianBlobs(3, 40, 4.0, 0.9, R);
    // Mix in novel far-out points so drift flags actually fire.
    for (int I = 0; I < 40; ++I) {
      data::Sample Novel;
      Novel.Features = {R.gaussian(0.0, 0.6), R.gaussian(0.0, 0.6)};
      Novel.Label = 0;
      Test.add(std::move(Novel));
    }
  }
};

BigBlobFixture &fixture() {
  static BigBlobFixture F;
  return F;
}

} // namespace

TEST(ShardedStoreTest, WeightedPathShardCountInvariant) {
  BigBlobFixture &F = fixture();
  // > 8 accumulation blocks, so K=8 builds genuinely multi-block shards.
  ASSERT_GT(F.Calib.size(), 8u * 256u);

  PromConfig C1;
  C1.NumShards = 1;
  PromClassifier P1(F.Model, C1);
  P1.calibrate(F.Calib);
  ASSERT_EQ(P1.numShards(), 1u);

  PromConfig C8 = C1;
  C8.NumShards = 8;
  PromClassifier P8(F.Model, C8);
  P8.calibrate(F.Calib);
  ASSERT_GE(P8.numShards(), 2u);

  std::vector<Verdict> V1 = P1.assessBatch(F.Test);
  std::vector<Verdict> V8 = P8.assessBatch(F.Test);
  expectSameVerdicts(V1, V8);

  // Both must also match the retained per-sample oracle.
  for (size_t I = 0; I < F.Test.size(); I += 7)
    expectSameVerdict(P8.assessSerial(F.Test[I]), V8[I], I);
}

TEST(ShardedStoreTest, UnweightedFastPathShardCountInvariant) {
  BigBlobFixture &F = fixture();

  // Unweighted counting over the full selection drives the per-shard
  // sorted-score-index fast path.
  PromConfig Base;
  Base.WeightMode = CalibrationWeightMode::None;
  Base.SelectAllBelow = 1u << 20;

  PromConfig C1 = Base;
  C1.NumShards = 1;
  PromConfig C8 = Base;
  C8.NumShards = 8;
  PromClassifier P1(F.Model, C1), P8(F.Model, C8);
  P1.calibrate(F.Calib);
  P8.calibrate(F.Calib);
  ASSERT_GE(P8.numShards(), 2u);

  expectSameVerdicts(P1.assessBatch(F.Test), P8.assessBatch(F.Test));
  for (size_t I = 0; I < F.Test.size(); I += 9)
    expectSameVerdict(P8.assessSerial(F.Test[I]),
                      P8.assess(F.Test[I]), I);
}

TEST(ShardedStoreTest, ReshardLeavesVerdictsUnchanged) {
  BigBlobFixture &F = fixture();

  PromClassifier Prom(F.Model);
  Prom.calibrate(F.Calib);
  std::vector<Verdict> Before = Prom.assessBatch(F.Test);

  for (size_t K : {8u, 3u, 1u, 16u}) {
    Prom.reshard(K);
    SCOPED_TRACE("K=" + std::to_string(K));
    expectSameVerdicts(Before, Prom.assessBatch(F.Test));
  }
}

TEST(ShardedStoreTest, AutoShardCountUsesPoolLanes) {
  BigBlobFixture &F = fixture();

  PromConfig Auto;
  Auto.NumShards = 0; // One shard per ThreadPool lane.
  PromClassifier Prom(F.Model, Auto);
  Prom.calibrate(F.Calib);
  size_t Lanes = support::ThreadPool::global().numThreads();
  EXPECT_LE(Prom.numShards(), std::max<size_t>(Lanes, 1));
  EXPECT_GE(Prom.numShards(), 1u);

  PromConfig One;
  One.NumShards = 1;
  PromClassifier Ref(F.Model, One);
  Ref.calibrate(F.Calib);
  // NumShards differs between the configs, but it is the only difference
  // and must not affect a single bit of the verdicts.
  expectSameVerdicts(Ref.assessBatch(F.Test), Prom.assessBatch(F.Test));
}

TEST(ShardedStoreTest, FeatureMatrixScanMatchesPerRowVectorScan) {
  // Property check of the flat-storage refactor: the distance keys the
  // FeatureMatrix-backed store streams out of its contiguous block must
  // be bit-identical to scanning the original per-row entry vectors (the
  // pre-refactor vector<vector<double>> path) with the same kernel — so
  // moving the storage cannot change a single verdict.
  support::Rng R(99);
  CalibrationScores Scores;
  size_t Dim = 7; // Odd width: every row exercises the kernel tail.
  for (size_t I = 0; I < 700; ++I) {
    CalibrationEntry E;
    for (size_t D = 0; D < Dim; ++D)
      E.Embed.push_back(R.gaussian(0.0, 2.0));
    E.Label = static_cast<int>(I % 3);
    E.Scores = {R.uniform(0.0, 1.0)};
    Scores.add(std::move(E));
  }
  Scores.finalize();

  PromConfig Cfg;
  AssessmentScratch S;
  for (int Q = 0; Q < 5; ++Q) {
    std::vector<double> Query;
    for (size_t D = 0; D < Dim; ++D)
      Query.push_back(R.gaussian(0.0, 2.0));

    S.Keyed.resize(Scores.size());
    S.Dists.resize(Scores.size());
    Scores.computeDistanceKeys(Query.data(), S, 0, Scores.size());
    for (size_t I = 0; I < Scores.size(); ++I) {
      double PerRow = support::kernels::l2Sq(
          Scores.entry(I).Embed.data(), Query.data(), Dim);
      uint64_t GotBits, RefBits;
      std::memcpy(&GotBits, &S.Keyed[I].first, sizeof(GotBits));
      std::memcpy(&RefBits, &PerRow, sizeof(RefBits));
      ASSERT_EQ(GotBits, RefBits) << "entry " << I;
    }
    // And the full selection built on those keys matches the serial
    // oracle's select() set and weights exactly.
    Scores.finishSelection(Cfg, S);
    CalibrationSelection Sel = Scores.select(Query, Cfg);
    ASSERT_EQ(Sel.Indices.size(), S.Keep);
    for (size_t Pos = 0; Pos < Sel.Indices.size(); ++Pos) {
      EXPECT_TRUE(S.selected(Sel.Indices[Pos]));
      EXPECT_EQ(S.WeightByEntry[Sel.Indices[Pos]], Sel.Weights[Pos]);
    }
  }
}

TEST(ShardedStoreTest, RegressorShardCountInvariant) {
  support::Rng R(77);
  data::Dataset Train = linearRegression(400, 0.1, R);
  data::Dataset Calib = linearRegression(1200, 0.1, R);
  ml::MlpRegressor Model;
  Model.fit(Train, R);

  PromConfig C1;
  C1.FixedClusters = 4;
  C1.NumShards = 1;
  PromConfig C8 = C1;
  C8.NumShards = 8;

  // Identical RNG streams so clustering matches between the two.
  support::Rng R1(5), R8(5);
  PromRegressor P1(Model, C1), P8(Model, C8);
  P1.calibrate(Calib, R1);
  P8.calibrate(Calib, R8);
  ASSERT_GE(P8.numShards(), 2u);

  data::Dataset Test("reg-mixed", 0);
  for (int I = 0; I < 90; ++I) {
    data::Sample S;
    double Lo = I % 3 == 0 ? 5.0 : -2.0, Hi = I % 3 == 0 ? 9.0 : 2.0;
    S.Features = {R.uniform(Lo, Hi), R.uniform(Lo, Hi)};
    S.Target = 2.0 * S.Features[0] - S.Features[1];
    Test.add(std::move(S));
  }

  std::vector<RegressionVerdict> V1 = P1.assessBatch(Test);
  std::vector<RegressionVerdict> V8 = P8.assessBatch(Test);
  ASSERT_EQ(V1.size(), V8.size());
  for (size_t I = 0; I < V1.size(); ++I) {
    SCOPED_TRACE("sample " + std::to_string(I));
    EXPECT_EQ(V1[I].Predicted, V8[I].Predicted);
    EXPECT_EQ(V1[I].Cluster, V8[I].Cluster);
    EXPECT_EQ(V1[I].Drifted, V8[I].Drifted);
    EXPECT_EQ(V1[I].VotesToFlag, V8[I].VotesToFlag);
    ASSERT_EQ(V1[I].Experts.size(), V8[I].Experts.size());
    for (size_t E = 0; E < V1[I].Experts.size(); ++E) {
      EXPECT_EQ(V1[I].Experts[E].Credibility, V8[I].Experts[E].Credibility);
      EXPECT_EQ(V1[I].Experts[E].Confidence, V8[I].Experts[E].Confidence);
    }
  }
}

TEST(ShardedStoreTest, RegressorReshardUnderConcurrentAssessment) {
  // The regressor twin of ReshardLeavesVerdictsUnchanged, run concurrently:
  // one thread reshards while another loops assessBatch. reshard()
  // publishes a re-partitioned copy with an atomic swap and every batch
  // pins one whole store, so every verdict equals the pre-reshard verdicts
  // bit for bit (and the TSan leg sees no race on the store).
  support::Rng R(78);
  data::Dataset Train = linearRegression(400, 0.1, R);
  data::Dataset Calib = linearRegression(1200, 0.1, R);
  ml::MlpRegressor Model;
  Model.fit(Train, R);

  PromConfig Cfg;
  Cfg.FixedClusters = 4;
  Cfg.NumShards = 2;
  PromRegressor Prom(Model, Cfg);
  support::Rng CalR(5);
  Prom.calibrate(Calib, CalR);
  data::Dataset Test = linearRegression(40, 0.1, R);
  std::vector<RegressionVerdict> Before = Prom.assessBatch(Test);

  // The writer keeps resharding until the reader has finished all its
  // batches, so every batch overlaps a reshard in flight.
  constexpr size_t NumBatches = 12;
  std::vector<std::vector<RegressionVerdict>> Seen;
  std::atomic<bool> ReaderDone{false};
  std::thread Reader([&] {
    for (size_t B = 0; B < NumBatches; ++B)
      Seen.push_back(Prom.assessBatch(Test));
    ReaderDone = true;
  });
  const size_t Ks[] = {8, 3, 1, 16};
  size_t Reshards = 0;
  while (!ReaderDone.load())
    Prom.reshard(Ks[Reshards++ % 4]);
  Reader.join();
  EXPECT_GT(Reshards, 0u);

  Seen.push_back(Prom.assessBatch(Test));
  for (size_t B = 0; B < Seen.size(); ++B) {
    SCOPED_TRACE("batch " + std::to_string(B));
    ASSERT_EQ(Seen[B].size(), Before.size());
    for (size_t I = 0; I < Before.size(); ++I)
      prom::testing::expectSameRegressionVerdict(Before[I], Seen[B][I], I);
  }
}
