//===- tests/RefreshTest.cpp - online calibration refresh ---------------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The online-refresh contract: after appendEntries() + refinalize() —
// with or without oldest-first eviction — a CalibrationStore behaves
// bit-identically to a brand-new store finalized on the surviving union
// of entries, for every shard count, on both the general weighted path
// and the unweighted sorted-index fast path. At the detector level,
// refreshCalibration(Incremental=true) must produce verdicts bit-equal
// to the full-rebuild reference path. CMake registers this suite at
// PROM_THREADS=1 and PROM_THREADS=4, so the contract is enforced across
// thread counts as well.
//
//===----------------------------------------------------------------------===//

#include "core/Detector.h"
#include "data/Split.h"
#include "ml/Linear.h"
#include "tests/StoreTestHelpers.h"
#include "tests/TestHelpers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

using namespace prom;
using prom::testing::bits;
using prom::testing::expectSameVerdict;
using prom::testing::gaussianBlobs;

using prom::testing::expectBothRegimesMatch;
using prom::testing::makeEntries;
using prom::testing::referenceStore;

TEST(RefreshTest, AppendOnlyRefreshMatchesFromScratch) {
  // Three staggered refreshes — a single entry, a batch that introduces a
  // brand-new label (bucket growth on every shard), and a multi-block
  // batch — each compared against a from-scratch finalize of the union.
  for (size_t K : {size_t(1), size_t(8)}) {
    SCOPED_TRACE("K=" + std::to_string(K));
    support::Rng R(1234);
    std::vector<CalibrationEntry> All = makeEntries(1500, 7, 3, 2, R);

    CalibrationStore Live;
    for (const CalibrationEntry &E : All)
      Live.add(E);
    Live.finalize(K);

    size_t Step = 0;
    for (size_t BatchSize : {size_t(1), size_t(200), size_t(300)}) {
      std::vector<CalibrationEntry> Fresh =
          makeEntries(BatchSize, 7, Step == 1 ? 4 : 3, 2, R);
      All.insert(All.end(), Fresh.begin(), Fresh.end());
      Live.appendEntries(std::move(Fresh));
      Live.refinalize();
      CalibrationStore Ref = referenceStore(All, K);
      expectBothRegimesMatch(Live, Ref, 77 + Step,
                             ("refresh " + std::to_string(Step)).c_str());
      ++Step;
    }
  }
}

TEST(RefreshTest, BoundedStoreEvictsOldestAndMatchesFromScratch) {
  for (size_t K : {size_t(1), size_t(8)}) {
    SCOPED_TRACE("K=" + std::to_string(K));
    support::Rng R(555);
    std::vector<CalibrationEntry> All = makeEntries(1500, 5, 3, 2, R);

    CalibrationStore Live;
    for (const CalibrationEntry &E : All)
      Live.add(E);
    Live.finalize(K);
    Live.setMaxEntries(1600);

    std::vector<CalibrationEntry> Fresh = makeEntries(400, 5, 3, 2, R);
    All.insert(All.end(), Fresh.begin(), Fresh.end());
    Live.appendEntries(std::move(Fresh));
    Live.refinalize();
    EXPECT_EQ(Live.size(), 1600u);

    // Oldest-first: the survivors are the union minus its 300-entry prefix.
    std::vector<CalibrationEntry> Survivors(All.begin() + 300, All.end());
    CalibrationStore Ref = referenceStore(Survivors, K);
    expectBothRegimesMatch(Live, Ref, 91, "evicted");

    // A second bounded refresh on the already-evicted store.
    Fresh = makeEntries(256, 5, 3, 2, R);
    Survivors.insert(Survivors.end(), Fresh.begin(), Fresh.end());
    Live.appendEntries(std::move(Fresh));
    Live.refinalize();
    Survivors.erase(Survivors.begin(), Survivors.begin() + 256);
    CalibrationStore Ref2 = referenceStore(Survivors, K);
    expectBothRegimesMatch(Live, Ref2, 92, "evicted-again");
  }
}

TEST(RefreshTest, SmallStoreRefreshRecomputesDistanceScale) {
  // Below the 256-entry median-NN sample window, an append changes the
  // window — the refreshed distance scale must match a fresh finalize.
  support::Rng R(31);
  std::vector<CalibrationEntry> All = makeEntries(100, 4, 2, 2, R);
  CalibrationStore Live;
  for (const CalibrationEntry &E : All)
    Live.add(E);
  Live.finalize(1);

  std::vector<CalibrationEntry> Fresh = makeEntries(80, 4, 2, 2, R);
  All.insert(All.end(), Fresh.begin(), Fresh.end());
  Live.appendEntries(std::move(Fresh));
  Live.refinalize();

  CalibrationStore Ref = referenceStore(All, 1);
  expectBothRegimesMatch(Live, Ref, 13, "small-store");
}

TEST(RefreshTest, RefreshLargerThanBoundFallsBackToRebuild) {
  // The staged batch alone exceeds the bound: eviction swallows the whole
  // indexed prefix and refinalize() must take the full-rebuild fallback —
  // still landing bit-identical to the from-scratch reference.
  support::Rng R(417);
  std::vector<CalibrationEntry> All = makeEntries(150, 4, 3, 2, R);
  CalibrationStore Live;
  for (const CalibrationEntry &E : All)
    Live.add(E);
  Live.finalize(4);
  Live.setMaxEntries(100);

  std::vector<CalibrationEntry> Fresh = makeEntries(200, 4, 3, 2, R);
  All.insert(All.end(), Fresh.begin(), Fresh.end());
  Live.appendEntries(std::move(Fresh));
  Live.refinalize();
  EXPECT_EQ(Live.size(), 100u);

  std::vector<CalibrationEntry> Survivors(All.begin() + 250, All.end());
  CalibrationStore Ref = referenceStore(Survivors, 4);
  expectBothRegimesMatch(Live, Ref, 29, "degenerate-eviction");
}

TEST(RefreshTest, ManySmallRefreshesStayExactAcrossRebalances) {
  // Ten block-sized refreshes against an 8-shard store: the last shard
  // absorbs new blocks and periodically rebalances; every intermediate
  // state must match a from-scratch build (layout independence).
  support::Rng R(808);
  std::vector<CalibrationEntry> All = makeEntries(2560, 6, 3, 2, R);
  CalibrationStore Live;
  for (const CalibrationEntry &E : All)
    Live.add(E);
  Live.finalize(8);
  ASSERT_GE(Live.numShards(), 2u);

  for (int Round = 0; Round < 10; ++Round) {
    std::vector<CalibrationEntry> Fresh = makeEntries(256, 6, 3, 2, R);
    All.insert(All.end(), Fresh.begin(), Fresh.end());
    Live.appendEntries(std::move(Fresh));
    Live.refinalize();
    if (Round % 3 == 2) { // Full compare every few rounds (cost).
      CalibrationStore Ref = referenceStore(All, 8);
      expectBothRegimesMatch(Live, Ref, 300 + Round,
                             ("round " + std::to_string(Round)).c_str());
    }
  }
  // The partition must have rebalanced rather than degenerating into one
  // ever-growing tail shard.
  EXPECT_GE(Live.numShards(), 4u);
}

TEST(RefreshTest, DetectorRefreshMatchesFullRebuildReference) {
  support::Rng R(63);
  data::Dataset Full = gaussianBlobs(3, 400, 4.0, 0.8, R);
  auto Split = data::calibrationPartition(Full, R, 0.6);
  data::Dataset Train = std::move(Split.first);
  data::Dataset Calib = std::move(Split.second);
  ml::LogisticRegression Model;
  Model.fit(Train, R);

  PromConfig Cfg;
  Cfg.NumShards = 4;
  Cfg.MaxCalibEntries = Calib.size() + 40; // The second refresh evicts.
  PromClassifier Incremental(Model, Cfg);
  PromClassifier Reference(Model, Cfg);
  Incremental.calibrate(Calib);
  Reference.calibrate(Calib);

  data::Dataset Probes = gaussianBlobs(3, 60, 4.0, 0.8, R);
  std::vector<Verdict> Before = Incremental.assessBatch(Probes);

  // Two refresh rounds: append-only, then one that trips the bound.
  for (int Round = 0; Round < 2; ++Round) {
    SCOPED_TRACE("round " + std::to_string(Round));
    data::Dataset Relabeled = gaussianBlobs(3, 30, 4.0, 0.8, R);
    size_t SizeInc = Incremental.refreshCalibration(Relabeled,
                                                    /*Incremental=*/true);
    size_t SizeRef = Reference.refreshCalibration(Relabeled,
                                                  /*Incremental=*/false);
    EXPECT_EQ(SizeInc, SizeRef);
    EXPECT_LE(SizeInc, Cfg.MaxCalibEntries);

    std::vector<Verdict> VInc = Incremental.assessBatch(Probes);
    std::vector<Verdict> VRef = Reference.assessBatch(Probes);
    ASSERT_EQ(VInc.size(), VRef.size());
    for (size_t I = 0; I < VInc.size(); ++I)
      expectSameVerdict(VInc[I], VRef[I], I);
    // The refreshed store must also agree with the per-sample serial
    // oracle (flat select + per-expert p-value scans).
    for (size_t I = 0; I < Probes.size(); I += 11)
      expectSameVerdict(Incremental.assessSerial(Probes[I]), VInc[I], I);
  }

  // Sanity: the refresh actually changed the calibration evidence.
  EXPECT_EQ(Incremental.calibrationSize(), Calib.size() + 40);
  std::vector<Verdict> After = Incremental.assessBatch(Probes);
  bool AnyChanged = false;
  for (size_t I = 0; I < Probes.size() && !AnyChanged; ++I)
    for (size_t E = 0; E < After[I].Experts.size() && !AnyChanged; ++E)
      AnyChanged = After[I].Experts[E].Credibility !=
                   Before[I].Experts[E].Credibility;
  EXPECT_TRUE(AnyChanged);
}

TEST(RefreshTest, ClusterIndexSurvivesRefreshLifecycle) {
  // The per-shard cluster indexes are derived state riding along the
  // refresh lifecycle: small appends leave a stale (exactly scanned)
  // tail, a large enough tail triggers a per-shard rebuild, eviction
  // drops the evicted rows from the indexes, and rebalance / reshard
  // invalidate the indexes wholesale.
  // After every mutation the pruned store must still match a from-scratch
  // exact-scan reference bit for bit.
  for (size_t K : {size_t(1), size_t(4)}) {
    SCOPED_TRACE("K=" + std::to_string(K));
    support::Rng R(4321);
    std::vector<CalibrationEntry> All = makeEntries(2000, 6, 3, 2, R);

    CalibrationStore Live;
    for (const CalibrationEntry &E : All)
      Live.add(E);
    ClusterIndexPolicy Policy;
    Policy.Enabled = true;
    Policy.MinEntries = 64;
    Policy.MaxStaleFraction = 0.25;
    Policy.MaxSelectFraction = 1.0; // Keep the 50% default-config
                                    // selection on the pruned path.
    Live.setIndexPolicy(Policy);
    Live.finalize(K);
    ASSERT_GT(Live.indexedShards(), 0u);
    EXPECT_EQ(Live.unindexedEntries(), 0u);

    // Small append: the tail stays under the staleness bound, so the
    // last shard's index is kept and the new rows are scanned exactly.
    std::vector<CalibrationEntry> Fresh = makeEntries(64, 6, 3, 2, R);
    All.insert(All.end(), Fresh.begin(), Fresh.end());
    Live.appendEntries(std::move(Fresh));
    Live.refinalize();
    EXPECT_GT(Live.unindexedEntries(), 0u);
    expectBothRegimesMatch(Live, referenceStore(All, K), 301, "stale-tail");

    // Pile on appends until the tail crosses MaxStaleFraction (or the
    // partition rebalances): the affected index must rebuild — covered
    // rows catch back up with the shard.
    for (int Step = 0; Step < 6; ++Step) {
      Fresh = makeEntries(256, 6, 3, 2, R);
      All.insert(All.end(), Fresh.begin(), Fresh.end());
      Live.appendEntries(std::move(Fresh));
      Live.refinalize();
    }
    EXPECT_LE(static_cast<double>(Live.unindexedEntries()),
              Policy.MaxStaleFraction * static_cast<double>(Live.size()));
    expectBothRegimesMatch(Live, referenceStore(All, K), 302,
                           "rebuilt-after-staleness");

    // Eviction at a full store keeps the indexes: start from a fresh
    // build, pin the bound to the size, and refresh — every shard slides
    // by the 64 evicted entries and the indexes drop those rows instead of
    // re-clustering, so exactly the appended rows stay uncovered.
    Live.setIndexPolicy(Policy);
    ASSERT_EQ(Live.unindexedEntries(), 0u);
    size_t Appended = 0;
    auto EvictingRefresh = [&](size_t Bound, size_t Count) {
      Live.setMaxEntries(Bound);
      Fresh = makeEntries(Count, 6, 3, 2, R);
      All.insert(All.end(), Fresh.begin(), Fresh.end());
      Live.appendEntries(std::move(Fresh));
      Live.refinalize();
      All.erase(All.begin(),
                All.begin() + static_cast<long>(All.size() - Bound));
      Appended += Count;
      ASSERT_EQ(Live.size(), Bound);
      EXPECT_GT(Live.indexedShards(), 0u);
      EXPECT_EQ(Live.unindexedEntries(), Appended);
    };
    EvictingRefresh(Live.size(), 64);
    expectBothRegimesMatch(Live, referenceStore(All, K), 303, "evicted");

    // A lower bound evicts most of the store: at K=4 the first shard's
    // index loses every row and clears, the others now straddle the new
    // shard boundaries, and the pruned scan must still cover every row
    // exactly once.
    EvictingRefresh(2048, 40);
    expectBothRegimesMatch(Live, referenceStore(All, K), 307,
                           "evicted-past-first-index");

    // Reshard moves every boundary; indexes follow the new partition.
    Live.reshard(K == 1 ? 4 : 1);
    EXPECT_GT(Live.indexedShards(), 0u);
    expectBothRegimesMatch(Live, referenceStore(All, K == 1 ? 4 : 1), 304,
                           "resharded");

    // Disabling the policy drops every index and falls back to the exact
    // scan; re-enabling restores pruned serving. Bit-identical both ways.
    ClusterIndexPolicy Off;
    Live.setIndexPolicy(Off);
    EXPECT_EQ(Live.indexedShards(), 0u);
    EXPECT_EQ(Live.unindexedEntries(), Live.size());
    expectBothRegimesMatch(Live, referenceStore(All, K == 1 ? 4 : 1), 305,
                           "policy-off");
    Live.setIndexPolicy(Policy);
    EXPECT_GT(Live.indexedShards(), 0u);
    EXPECT_EQ(Live.unindexedEntries(), 0u);
    expectBothRegimesMatch(Live, referenceStore(All, K == 1 ? 4 : 1), 306,
                           "policy-back-on");
  }
}

TEST(RefreshTest, SteadyStateEvictionReclustersOnlyWhenStale) {
  // A continuously refreshed full store: every refresh appends 64 rows and
  // evicts the 64 oldest. The indexes slide along and re-cluster only when
  // the uncovered rows outgrow MaxStaleFraction of a shard, so the
  // uncovered share stays bounded while verdicts stay bit-identical.
  for (size_t K : {size_t(1), size_t(4)}) {
    SCOPED_TRACE("K=" + std::to_string(K));
    support::Rng R(2468);
    std::vector<CalibrationEntry> All = makeEntries(4096, 6, 3, 2, R);
    CalibrationStore Live;
    for (const CalibrationEntry &E : All)
      Live.add(E);
    ClusterIndexPolicy Policy;
    Policy.Enabled = true;
    Policy.MinEntries = 64;
    Policy.MaxStaleFraction = 0.25;
    Policy.MaxSelectFraction = 1.0;
    Live.setIndexPolicy(Policy);
    Live.finalize(K);
    Live.setMaxEntries(All.size());

    size_t Rebuilds = 0;
    for (int Step = 0; Step < 128; ++Step) {
      SCOPED_TRACE("refresh " + std::to_string(Step));
      size_t Before = Live.unindexedEntries();
      std::vector<CalibrationEntry> Fresh = makeEntries(64, 6, 3, 2, R);
      All.insert(All.end(), Fresh.begin(), Fresh.end());
      All.erase(All.begin(), All.begin() + 64);
      Live.appendEntries(std::move(Fresh));
      Live.refinalize();
      ASSERT_EQ(Live.size(), All.size());
      ASSERT_EQ(Live.indexedShards(), Live.numShards());
      // Without a rebuild exactly the 64 appended rows join the uncovered.
      if (Live.unindexedEntries() != Before + 64)
        ++Rebuilds;
      ASSERT_LE(static_cast<double>(Live.unindexedEntries()),
                Policy.MaxStaleFraction * static_cast<double>(Live.size()));
      if (Step % 32 == 31)
        expectBothRegimesMatch(Live, referenceStore(All, K),
                               500 + static_cast<uint64_t>(Step),
                               ("refresh " + std::to_string(Step)).c_str());
    }
    // Re-clustering happened, but only for a minority of the refreshes:
    // the rest kept the indexes through their eviction.
    EXPECT_GT(Rebuilds, 0u);
    EXPECT_LT(Rebuilds, 64u);
  }
}

TEST(RefreshTest, BoundedRefreshesDoNotGrowMemory) {
  // The fleet registry budgets tenants by memoryBytes(): a fixed-size
  // store under continuous bounded refresh must not report more memory
  // as the cycles go by — the indexes report their compacted storage.
  support::Rng R(1357);
  CalibrationStore Live;
  // Moved in like the refreshed entries, so every entry's vectors carry
  // the same capacity and replacing one never changes the footprint.
  for (CalibrationEntry &E : makeEntries(4096, 6, 3, 2, R))
    Live.add(std::move(E));
  ClusterIndexPolicy Policy;
  Policy.Enabled = true;
  Policy.MinEntries = 64;
  Policy.MaxStaleFraction = 0.25;
  Live.setIndexPolicy(Policy);
  Live.finalize(1);
  Live.setMaxEntries(Live.size());

  auto Refresh = [&] {
    Live.appendEntries(makeEntries(64, 6, 3, 2, R));
    Live.refinalize();
  };
  // Warm up to the first re-clustering: the positional arrays have grown
  // past their exact finalize() size by then, and the index covers the
  // whole store again — the peak of a slide cycle.
  int WarmUp = 0;
  do {
    Refresh();
    ASSERT_LT(++WarmUp, 64) << "the index never re-clustered";
  } while (Live.unindexedEntries() != 0);
  size_t Peak = Live.memoryBytes();
  size_t Low = Peak;
  for (int Step = 0; Step < 50; ++Step) {
    Refresh();
    EXPECT_LE(Live.memoryBytes(), Peak) << "refresh " << Step;
    Low = std::min(Low, Live.memoryBytes());
  }
  // Between re-clusterings the slid index shrinks, and the report follows.
  EXPECT_LT(Low, Peak);
}

TEST(RefreshTest, EmptyRefreshIsANoop) {
  support::Rng R(7);
  data::Dataset Full = gaussianBlobs(2, 120, 4.0, 0.8, R);
  auto Split = data::calibrationPartition(Full, R, 0.5);
  ml::LogisticRegression Model;
  Model.fit(Split.first, R);
  PromClassifier Prom(Model);
  Prom.calibrate(Split.second);

  data::Dataset Probes = gaussianBlobs(2, 20, 4.0, 0.8, R);
  std::vector<Verdict> Before = Prom.assessBatch(Probes);
  EXPECT_EQ(Prom.refreshCalibration(data::Dataset()), Split.second.size());
  std::vector<Verdict> After = Prom.assessBatch(Probes);
  for (size_t I = 0; I < Probes.size(); ++I)
    expectSameVerdict(Before[I], After[I], I);
}
