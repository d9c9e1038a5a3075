//===- tests/ClusterIndexTest.cpp - Lossless cluster-pruned k-NN -----------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bit-identity suite of the cluster-pruned k-NN layer: kMeansMatrix
/// against a serial in-test reference (which pins the parallel
/// implementation across thread counts — CMake registers this binary under
/// PROM_THREADS=1 and 4 and under PROM_KERNELS=scalar), and
/// ClusterIndex::nearestPruned against the exact full-scan selection,
/// including duplicate, tie-heavy, and fully degenerate inputs.
///
//===----------------------------------------------------------------------===//

#include "support/ClusterIndex.h"
#include "support/Distance.h"
#include "support/KMeans.h"
#include "support/Kernels.h"
#include "support/Rng.h"
#include "tests/TestHelpers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

using namespace prom;
using namespace prom::support;
using prom::testing::bits;

namespace {

/// Random (N x Dim) feature block.
FeatureMatrix randomRows(size_t N, size_t Dim, Rng &R, double Spread = 4.0) {
  FeatureMatrix M(N, Dim);
  for (size_t I = 0; I < N; ++I)
    for (size_t D = 0; D < Dim; ++D)
      M.rowPtr(I)[D] = R.gaussian(0.0, Spread);
  return M;
}

/// Tie-heavy block: every coordinate drawn from a tiny integer set, so
/// exact duplicate rows and exact distance ties abound.
FeatureMatrix gridRows(size_t N, size_t Dim, Rng &R) {
  FeatureMatrix M(N, Dim);
  for (size_t I = 0; I < N; ++I)
    for (size_t D = 0; D < Dim; ++D)
      M.rowPtr(I)[D] = static_cast<double>(R.bounded(3));
  return M;
}

/// The exact oracle over rows [Begin, End): l2Sq1xN scan + selectNearest,
/// returned in the (distSq, row id) pair form nearestPruned produces.
std::vector<std::pair<double, uint32_t>>
rangeScanNearest(const FeatureMatrix &Rows, size_t Begin, size_t End,
                 const double *Query, size_t K) {
  std::vector<double> DistSq(End - Begin);
  if (Begin < End)
    kernels::l2Sq1xN(Query, Rows.rowPtr(Begin), End - Begin, Rows.dim(),
                     Rows.stride(), DistSq.data());
  std::vector<size_t> Near = selectNearest(DistSq.data(), End - Begin, K);
  std::vector<std::pair<double, uint32_t>> Out;
  Out.reserve(Near.size());
  for (size_t Idx : Near)
    Out.push_back({DistSq[Idx], static_cast<uint32_t>(Begin + Idx)});
  return Out;
}

/// The exact oracle over every row: full scan + selectNearest.
std::vector<std::pair<double, uint32_t>>
fullScanNearest(const FeatureMatrix &Rows, const double *Query, size_t K) {
  return rangeScanNearest(Rows, 0, Rows.rows(), Query, K);
}

void expectSamePairs(const std::vector<std::pair<double, uint32_t>> &Got,
                     const std::vector<std::pair<double, uint32_t>> &Want) {
  ASSERT_EQ(Got.size(), Want.size());
  for (size_t I = 0; I < Want.size(); ++I) {
    SCOPED_TRACE("neighbour " + std::to_string(I));
    EXPECT_EQ(Got[I].second, Want[I].second);
    EXPECT_EQ(bits(Got[I].first), bits(Want[I].first));
  }
}

/// Serial reference of kMeansMatrix: the documented algorithm written as
/// plain loops with no ThreadPool involvement. Consumes its own Rng with
/// the same draw sequence, so a parallel kMeansMatrix run under any
/// PROM_THREADS must reproduce it bit for bit.
KMeansMatrixResult serialKMeansMatrix(const FeatureMatrix &Rows, size_t Begin,
                                      size_t End, size_t K, Rng &R,
                                      size_t MaxIters = 8,
                                      size_t SampleCap = 16384) {
  size_t N = End - Begin;
  size_t Dim = Rows.dim();
  K = std::max<size_t>(1, std::min(K, N));

  size_t SampleN = std::min(N, SampleCap);
  std::vector<size_t> Sample(SampleN);
  for (size_t I = 0; I < SampleN; ++I)
    Sample[I] = Begin + I * N / SampleN;

  KMeansMatrixResult Res;
  Res.Centroids.reset(K, Dim);
  FeatureMatrix &Cent = Res.Centroids;

  Cent.setRow(0, Rows.rowPtr(Sample[R.bounded(SampleN)]));
  std::vector<double> MinDistSq(SampleN, std::numeric_limits<double>::max());
  for (size_t C = 1; C < K; ++C) {
    for (size_t I = 0; I < SampleN; ++I)
      MinDistSq[I] = std::min(
          MinDistSq[I],
          kernels::l2Sq(Rows.rowPtr(Sample[I]), Cent.rowPtr(C - 1), Dim));
    Cent.setRow(C, Rows.rowPtr(Sample[R.weightedIndex(MinDistSq)]));
  }

  auto NearestRow = [&](const double *Row) {
    std::vector<double> DistBuf(K);
    kernels::l2Sq1xN(Row, Cent.data(), K, Dim, Cent.stride(),
                     DistBuf.data());
    size_t Best = 0;
    for (size_t C = 1; C < K; ++C)
      if (DistBuf[C] < DistBuf[Best])
        Best = C;
    return std::pair<size_t, double>{Best, DistBuf[Best]};
  };

  std::vector<uint32_t> Assign(SampleN, 0);
  std::vector<double> AssignDistSq(SampleN, 0.0);
  for (size_t Iter = 0; Iter < MaxIters; ++Iter) {
    bool Changed = false;
    for (size_t I = 0; I < SampleN; ++I) {
      std::pair<size_t, double> Best = NearestRow(Rows.rowPtr(Sample[I]));
      AssignDistSq[I] = Best.second;
      if (Assign[I] != Best.first) {
        Assign[I] = static_cast<uint32_t>(Best.first);
        Changed = true;
      }
    }
    std::vector<double> Sums(K * Dim, 0.0);
    std::vector<size_t> Counts(K, 0);
    for (size_t I = 0; I < SampleN; ++I) {
      const double *Row = Rows.rowPtr(Sample[I]);
      for (size_t D = 0; D < Dim; ++D)
        Sums[Assign[I] * Dim + D] += Row[D];
      ++Counts[Assign[I]];
    }
    for (size_t C = 0; C < K; ++C)
      if (Counts[C] != 0)
        for (size_t D = 0; D < Dim; ++D)
          Cent.rowPtr(C)[D] =
              Sums[C * Dim + D] / static_cast<double>(Counts[C]);

    bool Reseeded = false;
    std::vector<uint8_t> Claimed(SampleN, 0);
    for (size_t C = 0; C < K; ++C) {
      if (Counts[C] != 0)
        continue;
      size_t Farthest = SampleN;
      double FarDist = -1.0;
      for (size_t I = 0; I < SampleN; ++I) {
        if (Claimed[I] || Counts[Assign[I]] <= 1)
          continue;
        if (AssignDistSq[I] > FarDist) {
          FarDist = AssignDistSq[I];
          Farthest = I;
        }
      }
      if (Farthest == SampleN)
        continue;
      Claimed[Farthest] = 1;
      Cent.setRow(C, Rows.rowPtr(Sample[Farthest]));
      Reseeded = true;
    }
    if (!Changed && !Reseeded && Iter > 0)
      break;
  }

  Res.Assignments.assign(N, 0);
  Res.AssignDistSq.assign(N, 0.0);
  for (size_t I = 0; I < N; ++I) {
    std::pair<size_t, double> Best = NearestRow(Rows.rowPtr(Begin + I));
    Res.Assignments[I] = static_cast<uint32_t>(Best.first);
    Res.AssignDistSq[I] = Best.second;
  }
  Res.Inertia = 0.0;
  for (size_t I = 0; I < N; ++I)
    Res.Inertia += Res.AssignDistSq[I];
  return Res;
}

} // namespace

//===----------------------------------------------------------------------===//
// kMeansMatrix: thread-count-invariant quantizer
//===----------------------------------------------------------------------===//

TEST(KMeansMatrixTest, MatchesSerialReferenceBitForBit) {
  // The binary runs under PROM_THREADS=1 and PROM_THREADS=4 (ctest
  // registrations): the serial reference never touches the pool, so this
  // comparison pins the parallel implementation across thread counts.
  for (uint64_t Seed : {11u, 202u, 3003u}) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    Rng RData(Seed);
    FeatureMatrix Rows = randomRows(700, 9, RData);
    Rng RLive(Seed * 7 + 1), RRef(Seed * 7 + 1);
    KMeansMatrixResult Live = kMeansMatrix(Rows, 0, Rows.rows(), 12, RLive);
    KMeansMatrixResult Ref =
        serialKMeansMatrix(Rows, 0, Rows.rows(), 12, RRef);

    ASSERT_EQ(Live.Centroids.rows(), Ref.Centroids.rows());
    for (size_t C = 0; C < Ref.Centroids.rows(); ++C)
      for (size_t D = 0; D < Rows.dim(); ++D)
        ASSERT_EQ(bits(Live.Centroids.rowPtr(C)[D]),
                  bits(Ref.Centroids.rowPtr(C)[D]))
            << "centroid " << C << " dim " << D;
    ASSERT_EQ(Live.Assignments, Ref.Assignments);
    for (size_t I = 0; I < Ref.AssignDistSq.size(); ++I)
      ASSERT_EQ(bits(Live.AssignDistSq[I]), bits(Ref.AssignDistSq[I]));
    EXPECT_EQ(bits(Live.Inertia), bits(Ref.Inertia));
  }
}

TEST(KMeansMatrixTest, SubRangeAndClamping) {
  Rng R(5);
  FeatureMatrix Rows = randomRows(64, 4, R);
  // K larger than the range clamps; a sub-range only touches its rows.
  Rng RK(9);
  KMeansMatrixResult Res = kMeansMatrix(Rows, 10, 20, 50, RK);
  EXPECT_EQ(Res.Centroids.rows(), 10u);
  EXPECT_EQ(Res.Assignments.size(), 10u);
  for (uint32_t A : Res.Assignments)
    EXPECT_LT(A, 10u);
  // Every row sits on its own centroid: zero inertia.
  EXPECT_EQ(Res.Inertia, 0.0);
}

TEST(KMeansMatrixTest, SeparatesObviousClusters) {
  Rng R(42);
  FeatureMatrix Rows(120, 3);
  for (size_t I = 0; I < 120; ++I) {
    double Base = static_cast<double>(I % 3) * 50.0;
    for (size_t D = 0; D < 3; ++D)
      Rows.rowPtr(I)[D] = Base + R.gaussian(0.0, 0.2);
  }
  Rng RK(7);
  KMeansMatrixResult Res = kMeansMatrix(Rows, 0, 120, 3, RK);
  for (size_t I = 0; I < 120; ++I)
    EXPECT_EQ(Res.Assignments[I], Res.Assignments[I % 3]);
}

//===----------------------------------------------------------------------===//
// kMeansMatrix as the regressor's pseudo-label clustering: every row,
// 50 Lloyd iterations (the PromRegressor / gapStatisticK call sites)
//===----------------------------------------------------------------------===//

namespace {

/// kMeansMatrix with the pseudo-label call-site arguments.
KMeansMatrixResult pseudoLabelKMeans(const FeatureMatrix &Rows, size_t K,
                                     Rng &R) {
  return kMeansMatrix(Rows, 0, Rows.rows(), K, R, /*MaxIters=*/50,
                      /*SampleCap=*/Rows.rows());
}

} // namespace

TEST(KMeansTest, SeparatesObviousClusters) {
  Rng R(5);
  FeatureMatrix Rows(120, 2);
  for (size_t C = 0; C < 3; ++C)
    for (size_t I = 0; I < 40; ++I) {
      double *Row = Rows.rowPtr(C * 40 + I);
      Row[0] = static_cast<double>(C) * 10.0 + R.gaussian(0.0, 0.3);
      Row[1] = static_cast<double>(C) * 10.0 + R.gaussian(0.0, 0.3);
    }
  KMeansMatrixResult Res = pseudoLabelKMeans(Rows, 3, R);
  // All members of one true cluster share an assignment, and the three
  // true clusters land in three different ones.
  for (size_t C = 0; C < 3; ++C)
    for (size_t I = 0; I < 40; ++I)
      EXPECT_EQ(Res.Assignments[C * 40 + I], Res.Assignments[C * 40]);
  EXPECT_NE(Res.Assignments[0], Res.Assignments[40]);
  EXPECT_NE(Res.Assignments[0], Res.Assignments[80]);
  EXPECT_NE(Res.Assignments[40], Res.Assignments[80]);
}

TEST(KMeansTest, InertiaDecreasesWithMoreClusters) {
  Rng R(6);
  FeatureMatrix Rows(200, 2);
  for (size_t I = 0; I < 200; ++I) {
    Rows.rowPtr(I)[0] = R.uniform(0, 10);
    Rows.rowPtr(I)[1] = R.uniform(0, 10);
  }
  double Prev = pseudoLabelKMeans(Rows, 1, R).Inertia;
  for (size_t K = 2; K <= 8; K += 2) {
    double Cur = pseudoLabelKMeans(Rows, K, R).Inertia;
    EXPECT_LE(Cur, Prev * 1.05); // Allow slight local-minimum noise.
    Prev = Cur;
  }
}

TEST(KMeansTest, KClampedToRowCount) {
  Rng R(7);
  FeatureMatrix Rows(2, 2);
  Rows.rowPtr(1)[0] = 1.0;
  Rows.rowPtr(1)[1] = 1.0;
  KMeansMatrixResult Res = pseudoLabelKMeans(Rows, 10, R);
  EXPECT_EQ(Res.Centroids.rows(), 2u);
  EXPECT_EQ(Res.Assignments.size(), 2u);
  for (uint32_t A : Res.Assignments)
    EXPECT_LT(A, 2u);
}

TEST(KMeansTest, EmptyClustersReseedToFarthestRow) {
  // Clusters that empty out during Lloyd iterations must be reseeded (to
  // the farthest unclaimed row) instead of silently keeping a dead
  // centroid. With distinct rows and K well below N, every cluster must
  // end up non-empty for any seed.
  FeatureMatrix Rows(40, 2);
  for (size_t I = 0; I < 40; ++I) {
    Rows.rowPtr(I)[0] = static_cast<double>(I) * 1.7;
    Rows.rowPtr(I)[1] = static_cast<double>(I % 5) * 3.1;
  }
  for (uint64_t Seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    Rng R(Seed);
    KMeansMatrixResult Res = pseudoLabelKMeans(Rows, 20, R);
    ASSERT_EQ(Res.Centroids.rows(), 20u);
    std::vector<size_t> Counts(20, 0);
    for (uint32_t A : Res.Assignments)
      ++Counts[A];
    for (size_t C = 0; C < 20; ++C)
      EXPECT_GT(Counts[C], 0u) << "cluster " << C << " ended empty";
  }
}

TEST(KMeansTest, NearestCentroidRowPicksClosest) {
  FeatureMatrix Cent(2, 2);
  Cent.rowPtr(1)[0] = 10.0;
  Cent.rowPtr(1)[1] = 10.0;
  std::vector<double> DistBuf(2);
  const double Near0[] = {1.0, 1.0}, Near1[] = {9.0, 9.0}, Tie[] = {5.0, 5.0};
  std::pair<size_t, double> Best =
      nearestCentroidRow(Cent, Near0, DistBuf.data());
  EXPECT_EQ(Best.first, 0u);
  EXPECT_EQ(Best.second, 2.0);
  EXPECT_EQ(nearestCentroidRow(Cent, Near1, DistBuf.data()).first, 1u);
  // An exact tie breaks toward the lower centroid index.
  EXPECT_EQ(nearestCentroidRow(Cent, Tie, DistBuf.data()).first, 0u);
}

TEST(GapStatisticTest, FindsThreeBlobs) {
  Rng R(9);
  FeatureMatrix Rows(150, 2);
  for (size_t C = 0; C < 3; ++C)
    for (size_t I = 0; I < 50; ++I) {
      double *Row = Rows.rowPtr(C * 50 + I);
      Row[0] = static_cast<double>(C) * 20.0 + R.gaussian(0.0, 0.5);
      Row[1] = R.gaussian(0.0, 0.5);
    }
  size_t K = gapStatisticK(Rows, R, 2, 8);
  EXPECT_GE(K, 2u);
  EXPECT_LE(K, 4u);
}

TEST(GapStatisticTest, TinyInputIsSafe) {
  Rng R(10);
  FeatureMatrix Rows(1, 2);
  EXPECT_EQ(gapStatisticK(Rows, R), 1u);
}

//===----------------------------------------------------------------------===//
// ClusterIndex: lossless pruned k-NN
//===----------------------------------------------------------------------===//

TEST(ClusterIndexTest, NearestPrunedMatchesFullScanBitForBit) {
  for (uint64_t Seed : {3u, 77u, 912u}) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    Rng R(Seed);
    FeatureMatrix Rows = randomRows(2500, 8, R);
    ClusterIndex Index;
    Index.build(Rows, 0, Rows.rows(), /*NumCentroids=*/0, Seed);
    ASSERT_TRUE(Index.valid());

    for (size_t K : {size_t(1), size_t(7), size_t(100), size_t(2500)}) {
      SCOPED_TRACE("K " + std::to_string(K));
      for (int Q = 0; Q < 8; ++Q) {
        SCOPED_TRACE("query " + std::to_string(Q));
        std::vector<double> Query(Rows.dim());
        for (double &V : Query)
          V = R.gaussian(0.0, 4.0);
        expectSamePairs(Index.nearestPruned(Query.data(), K),
                        fullScanNearest(Rows, Query.data(), K));
      }
    }
  }
}

TEST(ClusterIndexTest, TieHeavyAndDuplicateRowsStayExact) {
  Rng R(1234);
  FeatureMatrix Rows = gridRows(1800, 5, R);
  ClusterIndex Index;
  Index.build(Rows, 0, Rows.rows(), 24, 99);
  ASSERT_TRUE(Index.valid());

  for (int Q = 0; Q < 10; ++Q) {
    SCOPED_TRACE("query " + std::to_string(Q));
    // Queries from the same grid maximize exact distance ties; the
    // (dist, ascending id) tie-break must survive the pruning.
    std::vector<double> Query(Rows.dim());
    for (double &V : Query)
      V = static_cast<double>(R.bounded(3));
    expectSamePairs(Index.nearestPruned(Query.data(), 64),
                    fullScanNearest(Rows, Query.data(), 64));
  }
}

TEST(ClusterIndexTest, FullyDegenerateRowsReturnLowestIds) {
  // Every row identical: all distances tie, so the k-NN is ids 0..K-1.
  FeatureMatrix Rows(500, 6);
  for (size_t I = 0; I < 500; ++I)
    for (size_t D = 0; D < 6; ++D)
      Rows.rowPtr(I)[D] = 1.5;
  ClusterIndex Index;
  Index.build(Rows, 0, Rows.rows(), 0, 7);
  ASSERT_TRUE(Index.valid());

  std::vector<double> Query(6, -2.0);
  std::vector<std::pair<double, uint32_t>> Near =
      Index.nearestPruned(Query.data(), 5);
  ASSERT_EQ(Near.size(), 5u);
  for (uint32_t I = 0; I < 5; ++I)
    EXPECT_EQ(Near[I].second, I);
  expectSamePairs(Near, fullScanNearest(Rows, Query.data(), 5));
}

TEST(ClusterIndexTest, CoversSubRangeWithOriginalRowIds) {
  Rng R(55);
  FeatureMatrix Rows = randomRows(1000, 4, R);
  ClusterIndex Index;
  Index.build(Rows, 300, 900, 0, 1);
  ASSERT_TRUE(Index.valid());
  EXPECT_EQ(Index.beginRow(), 300u);
  EXPECT_EQ(Index.endRow(), 900u);
  EXPECT_EQ(Index.coveredRows(), 600u);

  std::vector<double> Query(Rows.dim(), 0.25);
  std::vector<std::pair<double, uint32_t>> Near =
      Index.nearestPruned(Query.data(), 20);
  ASSERT_EQ(Near.size(), 20u);
  for (const std::pair<double, uint32_t> &P : Near) {
    EXPECT_GE(P.second, 300u);
    EXPECT_LT(P.second, 900u);
  }
  // Oracle over the covered range only.
  std::vector<double> DistSq(600);
  kernels::l2Sq1xN(Query.data(), Rows.rowPtr(300), 600, Rows.dim(),
                   Rows.stride(), DistSq.data());
  std::vector<size_t> Sel = selectNearest(DistSq.data(), 600, 20);
  for (size_t I = 0; I < Sel.size(); ++I) {
    EXPECT_EQ(Near[I].second, static_cast<uint32_t>(Sel[I] + 300));
    EXPECT_EQ(bits(Near[I].first), bits(DistSq[Sel[I]]));
  }
}

TEST(ClusterIndexTest, PruningActuallySkipsListsOnClusteredData) {
  // Well-separated blobs: a small-k query near one blob must not scan
  // most lists — this guards the perf claim, not just correctness.
  Rng R(8);
  FeatureMatrix Rows(4096, 6);
  for (size_t I = 0; I < Rows.rows(); ++I) {
    double Base = static_cast<double>(I % 16) * 100.0;
    for (size_t D = 0; D < 6; ++D)
      Rows.rowPtr(I)[D] = Base + R.gaussian(0.0, 0.5);
  }
  ClusterIndex Index;
  Index.build(Rows, 0, Rows.rows(), 64, 3);
  ASSERT_TRUE(Index.valid());

  std::vector<double> Query(6, 100.0); // Near blob 1.
  ClusterScanStats Stats;
  std::vector<std::pair<double, uint32_t>> Near =
      Index.nearestPruned(Query.data(), 10, &Stats);
  expectSamePairs(Near, fullScanNearest(Rows, Query.data(), 10));
  EXPECT_EQ(Stats.ListsTotal, Index.numLists());
  EXPECT_LT(Stats.ListsScanned, Stats.ListsTotal / 2);
  EXPECT_LT(Stats.RowsScanned, Stats.RowsTotal / 2);
}

TEST(ClusterIndexTest, PrunedWalkKeepsBoundedCandidates) {
  // A large K over overlapping blobs scans well past 2K rows, so the walk
  // has to tighten and drop rows on the way; its candidate list must end
  // below 2K (the cost follows K, not the scanned rows) and still hold
  // the exact K-NN.
  Rng R(17);
  const size_t Dim = 16;
  FeatureMatrix Rows(12288, Dim);
  for (size_t I = 0; I < Rows.rows(); ++I) {
    double Base = static_cast<double>(I % 24) * 6.0;
    for (size_t D = 0; D < Dim; ++D)
      Rows.rowPtr(I)[D] = Base + R.gaussian(0.0, 5.0);
  }
  ClusterIndex Index;
  Index.build(Rows, 0, Rows.rows(), 128, 5);
  ASSERT_TRUE(Index.valid());

  std::vector<double> CentDistSq(Index.numLists());
  std::vector<std::pair<double, uint32_t>> Cand;
  std::vector<std::pair<double, uint64_t>> ListOrder;
  std::vector<double> RowDistSq;
  for (size_t K : {size_t(1), size_t(37), size_t(700), size_t(1500)}) {
    for (int Q = 0; Q < 4; ++Q) {
      SCOPED_TRACE("K " + std::to_string(K) + " query " + std::to_string(Q));
      std::vector<double> Query(Dim);
      for (double &V : Query)
        V = R.uniform(0.0, 140.0);
      Index.centroidDistances(Query.data(), CentDistSq.data());
      PrunedWalkSource Source{&Index, CentDistSq.data()};
      ClusterScanStats Stats;
      Cand.clear();
      ClusterIndex::prunedWalk(Query.data(), &Source, 1, K, Cand, ListOrder,
                               RowDistSq, Stats);
      EXPECT_GE(Cand.size(), K);
      EXPECT_LT(Cand.size(), 2 * K);
      if (K == 1500) {
        EXPECT_GT(Stats.RowsScanned, 3 * K); // Unbounded, Cand would be > 3K.
      }

      std::vector<std::pair<double, uint32_t>> Want =
          fullScanNearest(Rows, Query.data(), K);
      std::sort(Cand.begin(), Cand.end());
      Cand.resize(K);
      expectSamePairs(Cand, Want);
      expectSamePairs(Index.nearestPruned(Query.data(), K), Want);
    }
  }
}

//===----------------------------------------------------------------------===//
// nearestPrunedBatch: batch-native pruned k-NN
//===----------------------------------------------------------------------===//

TEST(ClusterIndexTest, NearestPrunedBatchMatchesSerialBitForBit) {
  // The binary runs under PROM_THREADS=1/4 and PROM_KERNELS=scalar (ctest
  // registrations), so this also pins the batch fan-out across thread
  // counts and ISAs. Stats equality is part of the contract: the batch
  // walk must make exactly the serial walk's pruning decisions.
  for (uint64_t Seed : {4u, 81u, 733u}) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    Rng R(Seed);
    FeatureMatrix Rows = randomRows(2500, 8, R);
    ClusterIndex Index;
    Index.build(Rows, 0, Rows.rows(), /*NumCentroids=*/0, Seed);
    ASSERT_TRUE(Index.valid());

    for (size_t NumQ : {size_t(1), size_t(7), size_t(64)}) {
      SCOPED_TRACE("batch " + std::to_string(NumQ));
      FeatureMatrix Queries = randomRows(NumQ, Rows.dim(), R);
      for (size_t K : {size_t(1), size_t(7), size_t(2500)}) {
        SCOPED_TRACE("K " + std::to_string(K));
        std::vector<ClusterScanStats> BatchStats;
        std::vector<std::vector<std::pair<double, uint32_t>>> Batch =
            Index.nearestPrunedBatch(Queries, K, &BatchStats);
        ASSERT_EQ(Batch.size(), NumQ);
        ASSERT_EQ(BatchStats.size(), NumQ);
        for (size_t Q = 0; Q < NumQ; ++Q) {
          SCOPED_TRACE("query " + std::to_string(Q));
          ClusterScanStats Serial;
          expectSamePairs(Batch[Q],
                          Index.nearestPruned(Queries.rowPtr(Q), K, &Serial));
          expectSamePairs(Batch[Q],
                          fullScanNearest(Rows, Queries.rowPtr(Q), K));
          EXPECT_EQ(BatchStats[Q].ListsTotal, Serial.ListsTotal);
          EXPECT_EQ(BatchStats[Q].ListsScanned, Serial.ListsScanned);
          EXPECT_EQ(BatchStats[Q].RowsTotal, Serial.RowsTotal);
          EXPECT_EQ(BatchStats[Q].RowsScanned, Serial.RowsScanned);
        }
      }
    }
  }
}

TEST(ClusterIndexTest, NearestPrunedBatchTieHeavyGridStaysExact) {
  Rng R(4321);
  FeatureMatrix Rows = gridRows(1800, 5, R);
  ClusterIndex Index;
  Index.build(Rows, 0, Rows.rows(), 24, 99);
  ASSERT_TRUE(Index.valid());

  // Queries from the same grid maximize exact distance ties; the
  // (dist, ascending id) tie-break must survive both the pruning and the
  // batch fan-out.
  FeatureMatrix Queries = gridRows(13, Rows.dim(), R);
  std::vector<std::vector<std::pair<double, uint32_t>>> Batch =
      Index.nearestPrunedBatch(Queries, 64);
  ASSERT_EQ(Batch.size(), Queries.rows());
  for (size_t Q = 0; Q < Queries.rows(); ++Q) {
    SCOPED_TRACE("query " + std::to_string(Q));
    expectSamePairs(Batch[Q], fullScanNearest(Rows, Queries.rowPtr(Q), 64));
  }
}

TEST(ClusterIndexTest, NearestPrunedBatchEmptyAndDegenerateBatches) {
  Rng R(17);
  FeatureMatrix Rows = randomRows(600, 4, R);
  ClusterIndex Index;
  Index.build(Rows, 0, Rows.rows(), 0, 5);
  ASSERT_TRUE(Index.valid());

  // Empty batch: no queries, no stats, no crash.
  FeatureMatrix NoQueries(0, Rows.dim());
  std::vector<ClusterScanStats> Stats;
  EXPECT_TRUE(Index.nearestPrunedBatch(NoQueries, 5, &Stats).empty());
  EXPECT_TRUE(Stats.empty());

  // K = 0 yields empty per-query results; K > N clamps to N.
  FeatureMatrix Queries = randomRows(3, Rows.dim(), R);
  for (const auto &Near : Index.nearestPrunedBatch(Queries, 0))
    EXPECT_TRUE(Near.empty());
  for (const auto &Near : Index.nearestPrunedBatch(Queries, 10000))
    EXPECT_EQ(Near.size(), Rows.rows());

  // Fully degenerate batch: every query identical to every (identical)
  // row — all ties, every query must get ids 0..K-1.
  FeatureMatrix Flat(400, 4);
  for (size_t I = 0; I < Flat.rows(); ++I)
    for (size_t D = 0; D < 4; ++D)
      Flat.rowPtr(I)[D] = 2.5;
  ClusterIndex FlatIndex;
  FlatIndex.build(Flat, 0, Flat.rows(), 0, 11);
  FeatureMatrix FlatQueries(5, 4);
  for (size_t Q = 0; Q < 5; ++Q)
    for (size_t D = 0; D < 4; ++D)
      FlatQueries.rowPtr(Q)[D] = 2.5;
  for (const auto &Near : FlatIndex.nearestPrunedBatch(FlatQueries, 7)) {
    ASSERT_EQ(Near.size(), 7u);
    for (uint32_t I = 0; I < 7; ++I)
      EXPECT_EQ(Near[I].second, I);
  }
}

TEST(ClusterIndexTest, KZeroStillWritesCounters) {
  // A K = 0 query scans nothing, yet must overwrite the caller's counters:
  // the totals of the index, zero scanned.
  Rng R(29);
  FeatureMatrix Rows = randomRows(500, 4, R);
  ClusterIndex Index;
  Index.build(Rows, 0, Rows.rows(), 0, 7);
  ASSERT_TRUE(Index.valid());
  auto ExpectKZeroCounters = [&](const ClusterScanStats &Stats) {
    EXPECT_EQ(Stats.ListsTotal, Index.numLists());
    EXPECT_EQ(Stats.ListsScanned, 0u);
    EXPECT_EQ(Stats.RowsTotal, Index.coveredRows());
    EXPECT_EQ(Stats.RowsScanned, 0u);
  };

  ClusterScanStats Stats;
  Stats.ListsTotal = Stats.ListsScanned = 12345;
  Stats.RowsTotal = Stats.RowsScanned = 67890;
  std::vector<double> Query(Rows.dim(), 0.5);
  EXPECT_TRUE(Index.nearestPruned(Query.data(), 0, &Stats).empty());
  ExpectKZeroCounters(Stats);

  FeatureMatrix Queries = randomRows(3, Rows.dim(), R);
  std::vector<ClusterScanStats> BatchStats;
  for (const auto &Near : Index.nearestPrunedBatch(Queries, 0, &BatchStats))
    EXPECT_TRUE(Near.empty());
  ASSERT_EQ(BatchStats.size(), Queries.rows());
  for (const ClusterScanStats &S : BatchStats)
    ExpectKZeroCounters(S);
}

TEST(ClusterIndexTest, ClusterScanStatsMergeSumsCounters) {
  ClusterScanStats A;
  A.ListsTotal = 10;
  A.ListsScanned = 3;
  A.RowsTotal = 1000;
  A.RowsScanned = 120;
  ClusterScanStats B;
  B.ListsTotal = 8;
  B.ListsScanned = 2;
  B.RowsTotal = 500;
  B.RowsScanned = 40;
  A += B;
  EXPECT_EQ(A.ListsTotal, 18u);
  EXPECT_EQ(A.ListsScanned, 5u);
  EXPECT_EQ(A.RowsTotal, 1500u);
  EXPECT_EQ(A.RowsScanned, 160u);
}

TEST(ClusterIndexTest, ClearAndRebuild) {
  Rng R(21);
  FeatureMatrix Rows = randomRows(300, 3, R);
  ClusterIndex Index;
  EXPECT_FALSE(Index.valid());
  Index.build(Rows, 0, Rows.rows(), 0, 1);
  EXPECT_TRUE(Index.valid());
  Index.clear();
  EXPECT_FALSE(Index.valid());
  EXPECT_EQ(Index.coveredRows(), 0u);
  Index.build(Rows, 0, 100, 0, 2);
  EXPECT_TRUE(Index.valid());
  EXPECT_EQ(Index.coveredRows(), 100u);
  std::vector<double> Query(Rows.dim(), 0.0);
  EXPECT_EQ(Index.nearestPruned(Query.data(), 3).size(), 3u);
}

//===----------------------------------------------------------------------===//
// evictOldest: following an oldest-first eviction without re-clustering
//===----------------------------------------------------------------------===//

namespace {

/// Evicts the \p Evict oldest rows from a copy of \p Index and of the rows
/// it was built on (the store's order: the source matrix loses its front
/// rows, the index follows), then demands that nearestPruned and
/// nearestPrunedBatch equal the exact scan of the surviving covered rows,
/// with the shifted ids, pair for pair.
void expectEvictedIndexExact(const FeatureMatrix &Rows,
                             const ClusterIndex &Built, size_t Evict,
                             Rng &R) {
  SCOPED_TRACE("evict " + std::to_string(Evict));
  ClusterIndex Index = Built;
  Index.evictOldest(Evict);
  FeatureMatrix Survivors = Rows;
  Survivors.eraseFrontRows(Evict);

  size_t Begin = std::max(Built.beginRow(), Evict) - Evict;
  size_t End = Built.endRow() - Evict;
  ASSERT_TRUE(Index.valid());
  EXPECT_EQ(Index.beginRow(), Begin);
  EXPECT_EQ(Index.endRow(), End);
  EXPECT_EQ(Index.coveredRows(), End - Begin);
  EXPECT_EQ(Index.listEnd(Index.numLists() - 1), End - Begin);
  EXPECT_EQ(Index.numLists(), Built.numLists());

  FeatureMatrix Queries = randomRows(6, Rows.dim(), R);
  for (size_t K : {size_t(1), size_t(9), size_t(150), Rows.rows()}) {
    SCOPED_TRACE("K " + std::to_string(K));
    std::vector<std::vector<std::pair<double, uint32_t>>> Batch =
        Index.nearestPrunedBatch(Queries, K);
    ASSERT_EQ(Batch.size(), Queries.rows());
    for (size_t Q = 0; Q < Queries.rows(); ++Q) {
      SCOPED_TRACE("query " + std::to_string(Q));
      std::vector<std::pair<double, uint32_t>> Want =
          rangeScanNearest(Survivors, Begin, End, Queries.rowPtr(Q), K);
      expectSamePairs(Index.nearestPruned(Queries.rowPtr(Q), K), Want);
      expectSamePairs(Batch[Q], Want);
    }
  }
}

} // namespace

TEST(ClusterIndexTest, EvictOldestZeroIsANoop) {
  Rng R(61);
  FeatureMatrix Rows = randomRows(900, 6, R);
  ClusterIndex Index;
  Index.build(Rows, 0, Rows.rows(), 0, 5);
  size_t Bytes = Index.memoryBytes();
  expectEvictedIndexExact(Rows, Index, 0, R);
  Index.evictOldest(0);
  EXPECT_EQ(Index.coveredRows(), Rows.rows());
  EXPECT_EQ(Index.memoryBytes(), Bytes);
}

TEST(ClusterIndexTest, EvictOldestSplittingListsStaysExact) {
  for (uint64_t Seed : {12u, 406u}) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    Rng R(Seed);
    FeatureMatrix Rows = randomRows(2000, 7, R);
    ClusterIndex Index;
    Index.build(Rows, 0, Rows.rows(), 0, Seed);
    ASSERT_TRUE(Index.valid());
    for (size_t Evict : {size_t(1), size_t(333), size_t(1999)}) {
      // The eviction must actually cut through a list: members on both
      // sides of the evicted prefix.
      bool Splits = false;
      for (size_t L = 0; L < Index.numLists() && !Splits; ++L)
        Splits = Index.listBegin(L) < Index.listEnd(L) &&
                 Index.rowId(Index.listBegin(L)) < Evict &&
                 Index.rowId(Index.listEnd(L) - 1) >= Evict;
      EXPECT_TRUE(Splits);
      expectEvictedIndexExact(Rows, Index, Evict, R);
    }
  }
}

TEST(ClusterIndexTest, EvictOldestTieHeavyGridStaysExact) {
  Rng R(2718);
  FeatureMatrix Rows = gridRows(1500, 5, R);
  ClusterIndex Index;
  Index.build(Rows, 0, Rows.rows(), 24, 17);
  expectEvictedIndexExact(Rows, Index, 700, R);
}

TEST(ClusterIndexTest, EvictOldestPastCoveredRangeClears) {
  Rng R(83);
  FeatureMatrix Rows = randomRows(800, 4, R);
  for (size_t Evict : {size_t(500), size_t(650)}) {
    ClusterIndex Index;
    Index.build(Rows, 0, 500, 0, 3);
    ASSERT_TRUE(Index.valid());
    Index.evictOldest(Evict);
    EXPECT_FALSE(Index.valid());
    EXPECT_EQ(Index.coveredRows(), 0u);
    EXPECT_EQ(Index.memoryBytes(), 0u);
  }
}

TEST(ClusterIndexTest, EvictOldestBeforeCoveredRangeOnlyShiftsIds) {
  Rng R(97);
  FeatureMatrix Rows = randomRows(1000, 5, R);
  ClusterIndex Index;
  Index.build(Rows, 300, 900, 0, 9);
  ASSERT_TRUE(Index.valid());
  expectEvictedIndexExact(Rows, Index, 200, R);
  expectEvictedIndexExact(Rows, Index, 300, R);
}

TEST(ClusterIndexTest, EvictOldestReportsCompactedMemory) {
  // The fleet registry meters tenants with memoryBytes(): an evicted
  // index must report its compacted blocks, not the pre-eviction ones.
  Rng R(5);
  FeatureMatrix Rows = randomRows(3000, 8, R);
  ClusterIndex Index;
  Index.build(Rows, 0, Rows.rows(), 0, 1);
  size_t Before = Index.memoryBytes();
  Index.evictOldest(1000);
  EXPECT_LE(Index.memoryBytes(),
            Before - 1000 * (Rows.stride() * sizeof(double) +
                             sizeof(uint32_t)));
}
