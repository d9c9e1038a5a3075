//===- tests/SupportTest.cpp - support library tests --------------------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Distance.h"
#include "support/FeatureMatrix.h"
#include "support/Matrix.h"
#include "support/Rng.h"
#include "support/Stats.h"
#include "support/Table.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <set>

using namespace prom::support;

//===----------------------------------------------------------------------===//
// Rng
//===----------------------------------------------------------------------===//

TEST(RngTest, DeterministicForSameSeed) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 100; ++I)
    if (A.next() == B.next())
      ++Same;
  EXPECT_LT(Same, 5);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I) {
    double U = R.uniform();
    EXPECT_GE(U, 0.0);
    EXPECT_LT(U, 1.0);
  }
}

TEST(RngTest, UniformMeanNearHalf) {
  Rng R(7);
  double Sum = 0.0;
  const int N = 20000;
  for (int I = 0; I < N; ++I)
    Sum += R.uniform();
  EXPECT_NEAR(Sum / N, 0.5, 0.02);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng R(3);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.bounded(17), 17u);
}

TEST(RngTest, BoundedCoversAllValues) {
  Rng R(3);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 500; ++I)
    Seen.insert(R.bounded(7));
  EXPECT_EQ(Seen.size(), 7u);
}

TEST(RngTest, IntInInclusiveRange) {
  Rng R(5);
  std::set<int> Seen;
  for (int I = 0; I < 500; ++I) {
    int V = R.intIn(-2, 2);
    EXPECT_GE(V, -2);
    EXPECT_LE(V, 2);
    Seen.insert(V);
  }
  EXPECT_EQ(Seen.size(), 5u);
}

TEST(RngTest, GaussianMoments) {
  Rng R(11);
  const int N = 50000;
  double Sum = 0.0, Sq = 0.0;
  for (int I = 0; I < N; ++I) {
    double G = R.gaussian();
    Sum += G;
    Sq += G * G;
  }
  EXPECT_NEAR(Sum / N, 0.0, 0.03);
  EXPECT_NEAR(Sq / N, 1.0, 0.05);
}

TEST(RngTest, GaussianShiftScale) {
  Rng R(11);
  const int N = 20000;
  double Sum = 0.0;
  for (int I = 0; I < N; ++I)
    Sum += R.gaussian(5.0, 2.0);
  EXPECT_NEAR(Sum / N, 5.0, 0.1);
}

TEST(RngTest, BernoulliFrequency) {
  Rng R(13);
  int Hits = 0;
  const int N = 20000;
  for (int I = 0; I < N; ++I)
    if (R.bernoulli(0.3))
      ++Hits;
  EXPECT_NEAR(static_cast<double>(Hits) / N, 0.3, 0.02);
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng R(17);
  std::vector<double> W = {1.0, 0.0, 3.0};
  int Counts[3] = {0, 0, 0};
  for (int I = 0; I < 8000; ++I)
    ++Counts[R.weightedIndex(W)];
  EXPECT_EQ(Counts[1], 0);
  EXPECT_NEAR(static_cast<double>(Counts[2]) / Counts[0], 3.0, 0.4);
}

TEST(RngTest, WeightedIndexAllZeroFallsBackUniform) {
  Rng R(17);
  std::vector<double> W = {0.0, 0.0};
  int Counts[2] = {0, 0};
  for (int I = 0; I < 2000; ++I)
    ++Counts[R.weightedIndex(W)];
  EXPECT_GT(Counts[0], 500);
  EXPECT_GT(Counts[1], 500);
}

TEST(RngTest, PermutationIsPermutation) {
  Rng R(19);
  std::vector<size_t> P = R.permutation(50);
  std::set<size_t> Seen(P.begin(), P.end());
  EXPECT_EQ(Seen.size(), 50u);
  EXPECT_EQ(*Seen.begin(), 0u);
  EXPECT_EQ(*Seen.rbegin(), 49u);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng A(23);
  Rng B = A.split();
  // The child stream must differ from the parent continuation.
  int Same = 0;
  for (int I = 0; I < 50; ++I)
    if (A.next() == B.next())
      ++Same;
  EXPECT_EQ(Same, 0);
}

//===----------------------------------------------------------------------===//
// Matrix
//===----------------------------------------------------------------------===//

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix M(2, 3, 1.5);
  EXPECT_EQ(M.rows(), 2u);
  EXPECT_EQ(M.cols(), 3u);
  EXPECT_DOUBLE_EQ(M.at(1, 2), 1.5);
  M.at(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(M.at(0, 1), -2.0);
}

TEST(MatrixTest, MatmulKnownValues) {
  Matrix A(2, 2, {1, 2, 3, 4});
  Matrix B(2, 2, {5, 6, 7, 8});
  Matrix C = A.matmul(B);
  EXPECT_DOUBLE_EQ(C.at(0, 0), 19);
  EXPECT_DOUBLE_EQ(C.at(0, 1), 22);
  EXPECT_DOUBLE_EQ(C.at(1, 0), 43);
  EXPECT_DOUBLE_EQ(C.at(1, 1), 50);
}

TEST(MatrixTest, TransposedMatmulMatchesExplicit) {
  Rng R(1);
  Matrix A(3, 4), B(3, 5);
  A.fillGaussian(R, 1.0);
  B.fillGaussian(R, 1.0);
  Matrix Expect = A.transposed().matmul(B);
  Matrix Got = A.transposedMatmul(B);
  ASSERT_EQ(Got.rows(), Expect.rows());
  for (size_t I = 0; I < Got.rows(); ++I)
    for (size_t J = 0; J < Got.cols(); ++J)
      EXPECT_NEAR(Got.at(I, J), Expect.at(I, J), 1e-12);
}

TEST(MatrixTest, MatmulTransposedMatchesExplicit) {
  Rng R(2);
  Matrix A(3, 4), B(5, 4);
  A.fillGaussian(R, 1.0);
  B.fillGaussian(R, 1.0);
  Matrix Expect = A.matmul(B.transposed());
  Matrix Got = A.matmulTransposed(B);
  for (size_t I = 0; I < Got.rows(); ++I)
    for (size_t J = 0; J < Got.cols(); ++J)
      EXPECT_NEAR(Got.at(I, J), Expect.at(I, J), 1e-12);
}

TEST(MatrixTest, AddScaledAndScale) {
  Matrix A(1, 3, {1, 2, 3});
  Matrix B(1, 3, {10, 20, 30});
  A.addScaled(B, 0.1);
  EXPECT_DOUBLE_EQ(A.at(0, 0), 2.0);
  A.scale(2.0);
  EXPECT_DOUBLE_EQ(A.at(0, 2), 12.0);
}

TEST(MatrixTest, RowBroadcastAndColumnSums) {
  Matrix A(2, 2, {1, 2, 3, 4});
  A.addRowBroadcast({10, 20});
  EXPECT_DOUBLE_EQ(A.at(0, 0), 11);
  EXPECT_DOUBLE_EQ(A.at(1, 1), 24);
  std::vector<double> Sums = A.columnSums();
  EXPECT_DOUBLE_EQ(Sums[0], 24);
  EXPECT_DOUBLE_EQ(Sums[1], 46);
}

TEST(MatrixTest, Hadamard) {
  Matrix A(1, 3, {1, 2, 3});
  Matrix B(1, 3, {2, 0.5, -1});
  A.hadamard(B);
  EXPECT_DOUBLE_EQ(A.at(0, 0), 2);
  EXPECT_DOUBLE_EQ(A.at(0, 1), 1);
  EXPECT_DOUBLE_EQ(A.at(0, 2), -3);
}

TEST(MatrixTest, SoftmaxNormalizes) {
  std::vector<double> L = {1.0, 2.0, 3.0};
  softmaxInPlace(L);
  EXPECT_NEAR(L[0] + L[1] + L[2], 1.0, 1e-12);
  EXPECT_GT(L[2], L[1]);
  EXPECT_GT(L[1], L[0]);
}

TEST(MatrixTest, SoftmaxStableForLargeLogits) {
  std::vector<double> L = {1000.0, 1001.0};
  softmaxInPlace(L);
  EXPECT_NEAR(L[0] + L[1], 1.0, 1e-12);
  EXPECT_FALSE(std::isnan(L[0]));
}

TEST(MatrixTest, ArgmaxFirstOnTies) {
  EXPECT_EQ(argmax({1.0, 3.0, 3.0}), 1u);
  EXPECT_EQ(argmax({5.0}), 0u);
}

TEST(MatrixTest, DotAndAxpy) {
  std::vector<double> A = {1, 2, 3}, B = {4, 5, 6};
  EXPECT_DOUBLE_EQ(dot(A, B), 32.0);
  axpy(A, B, 2.0);
  EXPECT_DOUBLE_EQ(A[2], 15.0);
}

//===----------------------------------------------------------------------===//
// Stats
//===----------------------------------------------------------------------===//

TEST(StatsTest, MeanVarianceStddev) {
  std::vector<double> V = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(mean(V), 5.0);
  EXPECT_DOUBLE_EQ(variance(V), 4.0);
  EXPECT_DOUBLE_EQ(stddev(V), 2.0);
}

TEST(StatsTest, EmptyInputsAreSafe) {
  std::vector<double> V;
  EXPECT_DOUBLE_EQ(mean(V), 0.0);
  EXPECT_DOUBLE_EQ(variance(V), 0.0);
  EXPECT_DOUBLE_EQ(geomean(V), 0.0);
  Summary S = summarize(V);
  EXPECT_EQ(S.Count, 0u);
}

TEST(StatsTest, QuantileInterpolates) {
  std::vector<double> V = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(quantile(V, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(V, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(V, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(median({5.0, 1.0, 3.0}), 3.0);
}

TEST(StatsTest, GeomeanKnownValue) {
  EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(StatsTest, SummaryOrdering) {
  Rng R(3);
  std::vector<double> V;
  for (int I = 0; I < 500; ++I)
    V.push_back(R.uniform());
  Summary S = summarize(V);
  EXPECT_LE(S.Min, S.Q25);
  EXPECT_LE(S.Q25, S.Median);
  EXPECT_LE(S.Median, S.Q75);
  EXPECT_LE(S.Q75, S.Max);
  EXPECT_EQ(S.Count, 500u);
}

//===----------------------------------------------------------------------===//
// Distance
//===----------------------------------------------------------------------===//

TEST(DistanceTest, EuclideanKnownValues) {
  EXPECT_DOUBLE_EQ(euclidean({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(squaredEuclidean({1, 1}, {1, 1}), 0.0);
}

TEST(DistanceTest, CosineDistance) {
  EXPECT_NEAR(cosineDistance({1, 0}, {0, 1}), 1.0, 1e-12);
  EXPECT_NEAR(cosineDistance({1, 1}, {2, 2}), 0.0, 1e-12);
  EXPECT_NEAR(cosineDistance({1, 0}, {-1, 0}), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(cosineDistance({0, 0}, {1, 1}), 1.0);
}

TEST(DistanceTest, KNearestOrdersByDistance) {
  std::vector<std::vector<double>> Points = {{0, 0}, {5, 0}, {1, 0}, {3, 0}};
  std::vector<size_t> Near = kNearest(Points, {0.4, 0.0}, 2);
  ASSERT_EQ(Near.size(), 2u);
  EXPECT_EQ(Near[0], 0u);
  EXPECT_EQ(Near[1], 2u);
}

TEST(DistanceTest, KNearestClampsK) {
  std::vector<std::vector<double>> Points = {{0, 0}, {1, 1}};
  EXPECT_EQ(kNearest(Points, {0, 0}, 10).size(), 2u);
}

TEST(DistanceTest, KNearestBreaksDistanceTiesByAscendingIndex) {
  // Regression test for the nth_element + prefix-sort rewrite: many rows
  // at exactly the same distance must come back in ascending-index order,
  // and the kept set must cut ties at the boundary by index too.
  std::vector<std::vector<double>> Points;
  for (int I = 0; I < 8; ++I)
    Points.push_back({1.0, 0.0}); // All at distance 1 from the origin.
  Points.push_back({0.5, 0.0});   // Index 8: strictly closer.
  std::vector<size_t> Near = kNearest(Points, {0.0, 0.0}, 4);
  ASSERT_EQ(Near.size(), 4u);
  EXPECT_EQ(Near[0], 8u); // Closest first.
  EXPECT_EQ(Near[1], 0u); // Then tied rows by ascending index.
  EXPECT_EQ(Near[2], 1u);
  EXPECT_EQ(Near[3], 2u);

  // The FeatureMatrix overload makes the same selection from the flat
  // block scan.
  FeatureMatrix Flat = FeatureMatrix::fromRows(Points);
  std::vector<double> Query = {0.0, 0.0};
  EXPECT_EQ(kNearest(Flat, Query.data(), 4), Near);
  EXPECT_EQ(kNearest(Flat, Query.data(), Points.size() + 3).size(),
            Points.size());
  // K = 0 on a non-empty set is well-defined: empty selection.
  EXPECT_TRUE(kNearest(Points, {0.0, 0.0}, 0).empty());
  EXPECT_TRUE(kNearest(Flat, Query.data(), 0).empty());

  // The batched overload must make the SAME selection per query — the one
  // tie-break rule (distance, then ascending index) is selectNearest(),
  // shared by every path. Regression test: kNearest and the batched k-NN
  // scan may never disagree on duplicate distances.
  std::vector<std::vector<double>> QueryRows = {
      {0.0, 0.0}, {0.0, 0.0}, {2.0, 0.0}};
  FeatureMatrix Queries = FeatureMatrix::fromRows(QueryRows);
  std::vector<std::vector<size_t>> Batched = kNearestBatch(Flat, Queries, 4);
  ASSERT_EQ(Batched.size(), 3u);
  EXPECT_EQ(Batched[0], Near);
  EXPECT_EQ(Batched[1], Near);
  EXPECT_EQ(Batched[2], kNearest(Flat, QueryRows[2].data(), 4));
}

TEST(DistanceTest, SelectNearestIsTheSharedTieBreakRule) {
  // Pin the rule itself: equal values rank by ascending index, the kept
  // prefix is sorted closest-first, and K clamps to N.
  std::vector<double> Dist = {2.0, 1.0, 2.0, 1.0, 0.5};
  std::vector<size_t> Sel = selectNearest(Dist.data(), Dist.size(), 4);
  ASSERT_EQ(Sel.size(), 4u);
  EXPECT_EQ(Sel[0], 4u); // 0.5
  EXPECT_EQ(Sel[1], 1u); // 1.0, lower index first.
  EXPECT_EQ(Sel[2], 3u); // 1.0
  EXPECT_EQ(Sel[3], 0u); // 2.0, lower index wins the boundary tie.
  EXPECT_EQ(selectNearest(Dist.data(), Dist.size(), 99).size(), 5u);
  EXPECT_TRUE(selectNearest(Dist.data(), 0, 3).empty());
}

//===----------------------------------------------------------------------===//
// Table
//===----------------------------------------------------------------------===//

TEST(TableTest, FormatHelpers) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::percent(0.5, 1), "50.0%");
}

TEST(TableTest, CsvRoundTrip) {
  Table T({"a", "b"});
  T.addRow({"1", "x"});
  T.addRow({"2", "y"});
  std::string Path = ::testing::TempDir() + "/prom_table_test.csv";
  ASSERT_TRUE(T.writeCsv(Path));
  std::FILE *F = std::fopen(Path.c_str(), "r");
  ASSERT_NE(F, nullptr);
  char Buf[64];
  ASSERT_NE(std::fgets(Buf, sizeof(Buf), F), nullptr);
  EXPECT_STREQ(Buf, "a,b\n");
  ASSERT_NE(std::fgets(Buf, sizeof(Buf), F), nullptr);
  EXPECT_STREQ(Buf, "1,x\n");
  std::fclose(F);
}

TEST(TableTest, CsvFailsOnBadPath) {
  Table T({"a"});
  EXPECT_FALSE(T.writeCsv("/nonexistent-dir/zzz/file.csv"));
}
