//===- tests/MlTest.cpp - ML substrate tests ----------------------------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ml/AttentionPool.h"
#include "ml/DecisionTree.h"
#include "ml/Gcn.h"
#include "ml/GradientBoosting.h"
#include "ml/Knn.h"
#include "ml/Linear.h"
#include "ml/Lstm.h"
#include "ml/Mlp.h"
#include "ml/Optim.h"
#include "ml/RandomForest.h"
#include "support/Rng.h"
#include "tests/TestHelpers.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>

using namespace prom;
using namespace prom::ml;
using prom::testing::gaussianBlobs;
using prom::testing::linearRegression;
using prom::testing::tokenBlobs;

namespace {

double accuracy(const Classifier &Model, const data::Dataset &Test) {
  size_t Correct = 0;
  for (const data::Sample &S : Test.samples())
    if (Model.predict(S) == S.Label)
      ++Correct;
  return static_cast<double>(Correct) / static_cast<double>(Test.size());
}

/// Builds a small graph dataset where the label is encoded in node types.
data::Dataset graphBlobs(size_t PerClass, support::Rng &R) {
  data::Dataset Data("graphs", 2);
  for (int C = 0; C < 2; ++C)
    for (size_t I = 0; I < PerClass; ++I) {
      data::Sample S;
      data::Graph &G = S.ProgramGraph;
      G.NumNodes = 6;
      G.FeatDim = 3;
      G.NodeFeats.assign(18, 0.0);
      for (int V = 0; V < 6; ++V) {
        // Class 0: mostly type-0 nodes; class 1: mostly type-1 nodes.
        int Kind = R.bernoulli(0.8) ? C : 1 - C;
        G.NodeFeats[static_cast<size_t>(V) * 3 + Kind] = 1.0;
        G.NodeFeats[static_cast<size_t>(V) * 3 + 2] = R.uniform();
      }
      for (int V = 0; V + 1 < 6; ++V)
        G.Edges.push_back({V, V + 1});
      S.Features = {static_cast<double>(C)};
      S.Label = C;
      Data.add(std::move(S));
    }
  return Data;
}

} // namespace

//===----------------------------------------------------------------------===//
// Optimizer
//===----------------------------------------------------------------------===//

TEST(OptimTest, AdamMinimizesQuadratic) {
  // Minimize f(x) = (x - 3)^2 with Adam.
  std::vector<double> X = {0.0};
  AdamState State;
  AdamConfig Cfg;
  Cfg.LearningRate = 0.1;
  for (int Step = 0; Step < 500; ++Step) {
    std::vector<double> Grad = {2.0 * (X[0] - 3.0)};
    adamStep(X, Grad, State, Cfg);
  }
  EXPECT_NEAR(X[0], 3.0, 1e-2);
}

TEST(OptimTest, WeightDecayShrinksParameters) {
  std::vector<double> X = {5.0};
  AdamState State;
  AdamConfig Cfg;
  Cfg.LearningRate = 0.05;
  Cfg.WeightDecay = 0.5;
  for (int Step = 0; Step < 400; ++Step) {
    std::vector<double> Grad = {0.0};
    adamStep(X, Grad, State, Cfg);
  }
  EXPECT_NEAR(X[0], 0.0, 0.05);
}

//===----------------------------------------------------------------------===//
// Feature-vector classifiers (parameterized over model factories)
//===----------------------------------------------------------------------===//

using FactoryFn = std::function<std::unique_ptr<Classifier>()>;

struct NamedFactory {
  const char *Name;
  FactoryFn Make;
};

class FeatureClassifierTest
    : public ::testing::TestWithParam<NamedFactory> {};

TEST_P(FeatureClassifierTest, LearnsSeparableBlobs) {
  support::Rng R(101);
  data::Dataset Train = gaussianBlobs(3, 120, 4.0, 0.6, R);
  data::Dataset Test = gaussianBlobs(3, 40, 4.0, 0.6, R);
  auto Model = GetParam().Make();
  Model->fit(Train, R);
  EXPECT_GT(accuracy(*Model, Test), 0.9) << GetParam().Name;
}

TEST_P(FeatureClassifierTest, ProbabilitiesAreDistribution) {
  support::Rng R(102);
  data::Dataset Train = gaussianBlobs(3, 60, 4.0, 0.6, R);
  auto Model = GetParam().Make();
  Model->fit(Train, R);
  for (int I = 0; I < 10; ++I) {
    std::vector<double> P = Model->predictProba(Train[static_cast<size_t>(I)]);
    ASSERT_EQ(P.size(), 3u);
    double Sum = 0.0;
    for (double V : P) {
      EXPECT_GE(V, 0.0);
      EXPECT_LE(V, 1.0 + 1e-9);
      Sum += V;
    }
    EXPECT_NEAR(Sum, 1.0, 1e-6) << GetParam().Name;
  }
}

TEST_P(FeatureClassifierTest, DeterministicGivenSeed) {
  support::Rng R1(103), R2(103);
  data::Dataset Train = gaussianBlobs(3, 60, 4.0, 0.6, R1);
  support::Rng RCopy(104), RCopy2(104);
  auto A = GetParam().Make();
  auto B = GetParam().Make();
  A->fit(Train, RCopy);
  B->fit(Train, RCopy2);
  for (int I = 0; I < 20; ++I) {
    std::vector<double> PA = A->predictProba(Train[static_cast<size_t>(I)]);
    std::vector<double> PB = B->predictProba(Train[static_cast<size_t>(I)]);
    for (size_t C = 0; C < PA.size(); ++C)
      EXPECT_DOUBLE_EQ(PA[C], PB[C]) << GetParam().Name;
  }
}

TEST_P(FeatureClassifierTest, UpdateAdaptsToNewRegion) {
  support::Rng R(105);
  data::Dataset Train = gaussianBlobs(3, 100, 4.0, 0.5, R);
  auto Model = GetParam().Make();
  Model->fit(Train, R);

  // New samples from a shifted region, labeled class 0.
  data::Dataset Shifted("shifted", 3);
  for (int I = 0; I < 60; ++I) {
    data::Sample S;
    S.Features = {12.0 + R.gaussian(0.0, 0.5), R.gaussian(0.0, 0.5)};
    S.Label = 0;
    Shifted.add(std::move(S));
  }
  data::Dataset Merged = Train;
  Merged.append(Shifted);
  Model->update(Merged, R);

  size_t Correct = 0;
  for (int I = 0; I < 30; ++I) {
    data::Sample S;
    S.Features = {12.0 + R.gaussian(0.0, 0.5), R.gaussian(0.0, 0.5)};
    S.Label = 0;
    if (Model->predict(S) == 0)
      ++Correct;
  }
  EXPECT_GE(Correct, 24u) << GetParam().Name;
}

INSTANTIATE_TEST_SUITE_P(
    Models, FeatureClassifierTest,
    ::testing::Values(
        NamedFactory{"LogReg",
                     [] { return std::make_unique<LogisticRegression>(); }},
        NamedFactory{"SVM", [] { return std::make_unique<LinearSvm>(); }},
        NamedFactory{"MLP",
                     [] { return std::make_unique<MlpClassifier>(); }},
        NamedFactory{"GBC",
                     [] {
                       return std::make_unique<GradientBoostingClassifier>();
                     }},
        NamedFactory{"RF",
                     [] {
                       return std::make_unique<RandomForestClassifier>();
                     }},
        NamedFactory{"kNN", [] { return std::make_unique<KnnClassifier>(); }}),
    [](const ::testing::TestParamInfo<NamedFactory> &Info) {
      return Info.param.Name;
    });

//===----------------------------------------------------------------------===//
// Individual model behaviours
//===----------------------------------------------------------------------===//

TEST(MlpTest, EmbedReturnsPenultimateLayer) {
  support::Rng R(1);
  data::Dataset Train = gaussianBlobs(2, 50, 4.0, 0.5, R);
  MlpConfig Cfg;
  Cfg.HiddenSizes = {8, 5};
  MlpClassifier Model(Cfg);
  Model.fit(Train, R);
  EXPECT_EQ(Model.embed(Train[0]).size(), 5u);
}

TEST(MlpTest, RegressorFitsLinearFunction) {
  support::Rng R(2);
  data::Dataset Train = linearRegression(400, 0.05, R);
  MlpRegressor Model;
  Model.fit(Train, R);
  double ErrSum = 0.0;
  data::Dataset Test = linearRegression(100, 0.0, R);
  for (const data::Sample &S : Test.samples())
    ErrSum += std::fabs(Model.predict(S) - S.Target);
  EXPECT_LT(ErrSum / 100.0, 0.35);
}

TEST(SvmTest, MarginsFavourTrueClass) {
  support::Rng R(3);
  data::Dataset Train = gaussianBlobs(2, 100, 4.0, 0.4, R);
  LinearSvm Model;
  Model.fit(Train, R);
  std::vector<double> M = Model.margins(Train[0].Features);
  EXPECT_GT(M[static_cast<size_t>(Train[0].Label)],
            M[static_cast<size_t>(1 - Train[0].Label)]);
}

TEST(KnnTest, RegressorAveragesNeighbours) {
  support::Rng R(4);
  data::Dataset Train("knn", 0);
  for (int I = 0; I < 10; ++I) {
    data::Sample S;
    S.Features = {static_cast<double>(I)};
    S.Target = static_cast<double>(I);
    Train.add(std::move(S));
  }
  KnnRegressor Model(3);
  Model.fit(Train, R);
  data::Sample Probe;
  Probe.Features = {5.0};
  EXPECT_NEAR(Model.predict(Probe), 5.0, 1.01);
}

TEST(KnnTest, DuplicateDistanceTieBreakSharedBySerialAndBatch) {
  // Regression test for the one-tie-break-rule contract: with many
  // training points at exactly the same distance from a query, the serial
  // kNearest-backed forward and the batched l2SqMxN forward must pick the
  // same neighbours (ascending index among ties) and hence emit
  // bit-identical probabilities.
  support::Rng R(71);
  data::Dataset Train("ties", 2);
  for (int I = 0; I < 12; ++I) {
    data::Sample S;
    // Six points at (1, 0), six at (-1, 0): every query on the y-axis is
    // equidistant from all twelve.
    S.Features = {I < 6 ? 1.0 : -1.0, 0.0};
    S.Label = I % 2;
    Train.add(std::move(S));
  }
  KnnClassifier Model(5);
  Model.fit(Train, R);

  data::Dataset Test("tie-queries", 2);
  for (int I = 0; I < 4; ++I) {
    data::Sample S;
    S.Features = {0.0, static_cast<double>(I)};
    S.Label = 0;
    Test.add(std::move(S));
  }
  support::Matrix Batched = Model.predictProbaBatch(Test);
  for (size_t I = 0; I < Test.size(); ++I) {
    std::vector<double> Serial = Model.predictProba(Test[I]);
    for (size_t C = 0; C < Serial.size(); ++C)
      EXPECT_EQ(prom::testing::bits(Serial[C]),
                prom::testing::bits(Batched.at(I, C)))
          << "query " << I << " class " << C;
  }
  // The ascending-index rule makes the outcome fully deterministic: the 5
  // nearest of 12 equidistant points are indices 0-4 (labels 0,1,0,1,0 at
  // equal weights), so class 0 gets 3/5 of the vote.
  EXPECT_DOUBLE_EQ(Batched.at(0, 0), 0.6);
  EXPECT_DOUBLE_EQ(Batched.at(0, 1), 0.4);
}

TEST(KnnTest, ClusterIndexedPredictionsAreBitIdentical) {
  // buildClusterIndex() reroutes the batch predicts through the lossless
  // cluster-pruned scan; classifier probabilities and regressor outputs
  // must not move by a single bit against the plain model's serial
  // (exact-scan) reference, including on tie-heavy data.
  support::Rng R(99);
  data::Dataset Train = gaussianBlobs(3, 400, 6.0, 1.0, R);
  data::Dataset Test = gaussianBlobs(3, 40, 6.0, 1.5, R);

  KnnClassifier Plain(7), Indexed(7);
  Plain.fit(Train, R);
  support::Rng R2(99); // Same fit inputs; fit() ignores the Rng anyway.
  Indexed.fit(Train, R2);
  Indexed.buildClusterIndex();

  ASSERT_TRUE(Indexed.hasClusterIndex());
  support::Matrix Pruned = Indexed.predictProbaBatch(Test);
  for (size_t I = 0; I < Test.size(); ++I) {
    std::vector<double> Exact = Plain.predictProba(Test[I]);
    ASSERT_EQ(Exact.size(), Pruned.cols());
    for (size_t C = 0; C < Exact.size(); ++C)
      EXPECT_EQ(prom::testing::bits(Pruned.at(I, C)),
                prom::testing::bits(Exact[C]))
          << "query " << I << " class " << C;
  }

  // Regressor, including exact-duplicate targets and tied distances.
  data::Dataset RegTrain("reg", 0);
  for (int I = 0; I < 300; ++I) {
    data::Sample S;
    S.Features = {static_cast<double>(I % 10), static_cast<double>(I % 3)};
    S.Target = static_cast<double>(I % 7);
    RegTrain.add(std::move(S));
  }
  KnnRegressor RegPlain(5), RegIndexed(5);
  RegPlain.fit(RegTrain, R);
  RegIndexed.fit(RegTrain, R);
  RegIndexed.buildClusterIndex(16);
  ASSERT_TRUE(RegIndexed.hasClusterIndex());
  data::Dataset Probes("probes", 0);
  for (int I = 0; I < 20; ++I) {
    data::Sample Probe;
    Probe.Features = {static_cast<double>(I % 11) * 0.9,
                      static_cast<double>(I % 4) * 1.1};
    Probes.add(std::move(Probe));
  }
  std::vector<double> RegBatched = RegIndexed.predictBatch(Probes);
  ASSERT_EQ(RegBatched.size(), Probes.size());
  for (size_t I = 0; I < Probes.size(); ++I)
    EXPECT_EQ(prom::testing::bits(RegBatched[I]),
              prom::testing::bits(RegPlain.predict(Probes[I])))
        << "probe " << I;

  // Refitting drops the index (stale training block must never leak).
  Indexed.fit(Train, R);
  EXPECT_FALSE(Indexed.hasClusterIndex());
  support::Matrix AfterRefit = Indexed.predictProbaBatch(Test);
  std::vector<double> ExactRefit = Plain.predictProba(Test[0]);
  for (size_t C = 0; C < ExactRefit.size(); ++C)
    EXPECT_EQ(prom::testing::bits(AfterRefit.at(0, C)),
              prom::testing::bits(ExactRefit[C]));
}

TEST(TreeTest, BatchedTraversalMatchesPerSample) {
  // The level-by-level batched descent must visit the same leaves as the
  // per-sample descent for both tree kinds, including samples that sit
  // exactly on split thresholds.
  support::Rng R(72);
  std::vector<std::vector<double>> X;
  std::vector<double> YReg;
  std::vector<int> YCls;
  std::vector<size_t> Idx;
  for (int I = 0; I < 120; ++I) {
    X.push_back({R.uniform(0.0, 1.0), R.uniform(0.0, 1.0)});
    YReg.push_back(X.back()[0] < 0.5 ? 1.0 : 5.0);
    YCls.push_back(X.back()[1] < 0.5 ? 0 : 1);
    Idx.push_back(static_cast<size_t>(I));
  }
  RegressionTree RTree;
  RTree.fit(X, YReg, Idx, TreeConfig(), R);
  ClassificationTree CTree;
  CTree.fit(X, YCls, 2, Idx, TreeConfig(), R);

  std::vector<std::vector<double>> Queries = X;
  Queries.push_back({0.5, 0.5}); // On-threshold probes.
  Queries.push_back({0.0, 1.0});
  support::FeatureMatrix Block = support::FeatureMatrix::fromRows(Queries);

  TreeBatchScratch Scratch;
  std::vector<double> RegOut(Queries.size());
  RTree.predictBatch(Block, RegOut.data(), Scratch);
  std::vector<double> ClsAccum(Queries.size() * 2, 0.0);
  CTree.addProbaBatch(Block, ClsAccum.data(), 2, Scratch);

  for (size_t I = 0; I < Queries.size(); ++I) {
    EXPECT_EQ(prom::testing::bits(RTree.predict(Queries[I])),
              prom::testing::bits(RegOut[I]))
        << "query " << I;
    const std::vector<double> &P = CTree.predictProba(Queries[I]);
    EXPECT_EQ(prom::testing::bits(P[0]),
              prom::testing::bits(ClsAccum[I * 2 + 0]));
    EXPECT_EQ(prom::testing::bits(P[1]),
              prom::testing::bits(ClsAccum[I * 2 + 1]));
  }
}

TEST(TreeTest, RegressionTreeFitsStep) {
  support::Rng R(5);
  std::vector<std::vector<double>> X;
  std::vector<double> Y;
  std::vector<size_t> Idx;
  for (int I = 0; I < 100; ++I) {
    double V = R.uniform(0.0, 1.0);
    X.push_back({V});
    Y.push_back(V < 0.5 ? 1.0 : 5.0);
    Idx.push_back(static_cast<size_t>(I));
  }
  RegressionTree Tree;
  Tree.fit(X, Y, Idx, TreeConfig(), R);
  EXPECT_NEAR(Tree.predict({0.2}), 1.0, 0.2);
  EXPECT_NEAR(Tree.predict({0.8}), 5.0, 0.2);
}

TEST(TreeTest, ClassificationTreePureLeaves) {
  support::Rng R(6);
  std::vector<std::vector<double>> X;
  std::vector<int> Y;
  std::vector<size_t> Idx;
  for (int I = 0; I < 60; ++I) {
    X.push_back({static_cast<double>(I)});
    Y.push_back(I < 30 ? 0 : 1);
    Idx.push_back(static_cast<size_t>(I));
  }
  ClassificationTree Tree;
  Tree.fit(X, Y, 2, Idx, TreeConfig(), R);
  EXPECT_GT(Tree.predictProba({10.0})[0], 0.95);
  EXPECT_GT(Tree.predictProba({50.0})[1], 0.95);
}

TEST(TreeTest, MinSamplesLeafRespected) {
  support::Rng R(7);
  std::vector<std::vector<double>> X;
  std::vector<double> Y;
  std::vector<size_t> Idx;
  for (int I = 0; I < 8; ++I) {
    X.push_back({static_cast<double>(I)});
    Y.push_back(static_cast<double>(I));
    Idx.push_back(static_cast<size_t>(I));
  }
  TreeConfig Cfg;
  Cfg.MinSamplesLeaf = 4;
  Cfg.MaxDepth = 10;
  RegressionTree Tree;
  Tree.fit(X, Y, Idx, Cfg, R);
  // Only one split can satisfy 4+4; predictions take two values.
  double A = Tree.predict({0.0}), B = Tree.predict({7.0});
  EXPECT_NE(A, B);
  EXPECT_DOUBLE_EQ(Tree.predict({1.0}), A);
  EXPECT_DOUBLE_EQ(Tree.predict({6.0}), B);
}

TEST(GbrTest, FitsNonlinearTarget) {
  support::Rng R(8);
  data::Dataset Train("gbr", 0);
  for (int I = 0; I < 400; ++I) {
    data::Sample S;
    double X = R.uniform(-2.0, 2.0);
    S.Features = {X};
    S.Target = X * X;
    Train.add(std::move(S));
  }
  GradientBoostingRegressor Model;
  Model.fit(Train, R);
  data::Sample Probe;
  Probe.Features = {1.5};
  EXPECT_NEAR(Model.predict(Probe), 2.25, 0.5);
  Probe.Features = {0.0};
  EXPECT_NEAR(Model.predict(Probe), 0.0, 0.5);
}

TEST(GbrTest, UpdateAddsStagesWithoutForgetting) {
  support::Rng R(9);
  data::Dataset Train = linearRegression(300, 0.05, R);
  GradientBoostingRegressor Model;
  Model.fit(Train, R);
  data::Sample Probe;
  Probe.Features = {1.0, 1.0};
  double Before = Model.predict(Probe);
  Model.update(Train, R);
  double After = Model.predict(Probe);
  EXPECT_NEAR(Before, After, 0.5); // Refinement, not a reset.
}

//===----------------------------------------------------------------------===//
// Sequence models
//===----------------------------------------------------------------------===//

TEST(LstmTest, LearnsTokenClasses) {
  support::Rng R(10);
  data::Dataset Train = tokenBlobs(3, 80, 12, R);
  data::Dataset Test = tokenBlobs(3, 20, 12, R);
  LstmConfig Cfg;
  Cfg.Epochs = 8;
  LstmClassifier Model(Cfg);
  Model.fit(Train, R);
  EXPECT_GT(accuracy(Model, Test), 0.9);
}

TEST(LstmTest, BidirectionalDoublesEmbedding) {
  support::Rng R(11);
  data::Dataset Train = tokenBlobs(2, 30, 8, R);
  LstmConfig Cfg;
  Cfg.Epochs = 2;
  Cfg.HiddenDim = 6;
  LstmClassifier Uni(Cfg);
  Cfg.Bidirectional = true;
  LstmClassifier Bi(Cfg);
  Uni.fit(Train, R);
  Bi.fit(Train, R);
  EXPECT_EQ(Uni.embed(Train[0]).size(), 6u);
  EXPECT_EQ(Bi.embed(Train[0]).size(), 12u);
}

TEST(LstmTest, BidirectionalLearns) {
  support::Rng R(12);
  data::Dataset Train = tokenBlobs(3, 80, 12, R);
  data::Dataset Test = tokenBlobs(3, 20, 12, R);
  LstmConfig Cfg;
  Cfg.Epochs = 8;
  Cfg.Bidirectional = true;
  LstmClassifier Model(Cfg);
  Model.fit(Train, R);
  EXPECT_GT(accuracy(Model, Test), 0.9);
}

TEST(LstmTest, LongSequencesAreClamped) {
  support::Rng R(13);
  data::Dataset Train = tokenBlobs(2, 30, 8, R);
  LstmConfig Cfg;
  Cfg.Epochs = 2;
  Cfg.MaxSeqLen = 4;
  LstmClassifier Model(Cfg);
  Model.fit(Train, R);
  data::Sample S = Train[0];
  S.Tokens.assign(500, 1); // Far beyond MaxSeqLen.
  std::vector<double> P = Model.predictProba(S);
  EXPECT_EQ(P.size(), 2u);
}

TEST(AttentionTest, LearnsTokenClasses) {
  support::Rng R(14);
  data::Dataset Train = tokenBlobs(3, 80, 12, R);
  data::Dataset Test = tokenBlobs(3, 20, 12, R);
  AttentionClassifier Model;
  Model.fit(Train, R);
  EXPECT_GT(accuracy(Model, Test), 0.9);
}

TEST(AttentionTest, RegressorLearnsTokenValue) {
  support::Rng R(15);
  // Target = fraction of token "1" in the sequence.
  data::Dataset Train("attnreg", 0, 4);
  for (int I = 0; I < 400; ++I) {
    data::Sample S;
    int Ones = 0;
    for (int T = 0; T < 12; ++T) {
      int Tok = R.intIn(0, 3);
      S.Tokens.push_back(Tok);
      if (Tok == 1)
        ++Ones;
    }
    S.Target = Ones / 12.0;
    Train.add(std::move(S));
  }
  AttentionRegressor Model;
  Model.fit(Train, R);
  double Err = 0.0;
  for (int I = 0; I < 50; ++I)
    Err += std::fabs(Model.predict(Train[static_cast<size_t>(I)]) -
                     Train[static_cast<size_t>(I)].Target);
  EXPECT_LT(Err / 50.0, 0.1);
}

TEST(AttentionTest, EmbedIsHiddenLayer) {
  support::Rng R(16);
  data::Dataset Train = tokenBlobs(2, 30, 8, R);
  AttentionConfig Cfg;
  Cfg.HiddenDim = 10;
  Cfg.Epochs = 2;
  AttentionClassifier Model(Cfg);
  Model.fit(Train, R);
  EXPECT_EQ(Model.embed(Train[0]).size(), 10u);
}

//===----------------------------------------------------------------------===//
// GCN
//===----------------------------------------------------------------------===//

TEST(GcnTest, LearnsGraphClasses) {
  support::Rng R(17);
  data::Dataset Train = graphBlobs(100, R);
  data::Dataset Test = graphBlobs(30, R);
  GcnClassifier Model;
  Model.fit(Train, R);
  EXPECT_GT(accuracy(Model, Test), 0.9);
}

TEST(GcnTest, EmbedIsPooledHidden) {
  support::Rng R(18);
  data::Dataset Train = graphBlobs(30, R);
  GcnConfig Cfg;
  Cfg.HiddenDim = 7;
  Cfg.Epochs = 5;
  GcnClassifier Model(Cfg);
  Model.fit(Train, R);
  EXPECT_EQ(Model.embed(Train[0]).size(), 7u);
}

TEST(GcnTest, ProbabilitiesNormalized) {
  support::Rng R(19);
  data::Dataset Train = graphBlobs(30, R);
  GcnClassifier Model;
  Model.fit(Train, R);
  std::vector<double> P = Model.predictProba(Train[0]);
  EXPECT_NEAR(P[0] + P[1], 1.0, 1e-9);
}
