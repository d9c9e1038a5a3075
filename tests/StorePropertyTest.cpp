//===- tests/StorePropertyTest.cpp - randomized store lifecycle fuzzing -------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Randomized property test for the CalibrationStore lifecycle: a random
// interleaving of appendEntries()+refinalize(), appendEntries()+
// refinalizeFull(), reshard(), and eviction-bound changes must leave the
// store bit-identical — through the exact engine entry points the batched
// assessment uses — to a brand-new store finalized from scratch on the
// mirrored surviving entries. This is the generalization of RefreshTest's
// hand-picked scenarios: whatever sequence deployment throws at the store,
// the incremental indexes may never drift from the rebuild semantics.
//
// Every program is seeded and the failing seed is printed on mismatch;
// replay one seed with PROM_STORE_PROP_SEED=<seed> (runs in addition to
// the fixed sweep).
//
//===----------------------------------------------------------------------===//

#include "tests/StoreTestHelpers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

using namespace prom;
using prom::testing::expectBothRegimesMatch;
using prom::testing::makeEntries;
using prom::testing::referenceStore;

namespace {

constexpr size_t Dim = 5;
constexpr int NumLabels = 3;
constexpr size_t NumExperts = 2;

/// Applies the refinalize() eviction contract to the mirror: oldest-first
/// down to \p MaxEntries (0 = unbounded).
void applyEviction(std::vector<CalibrationEntry> &Mirror, size_t MaxEntries) {
  if (MaxEntries > 0 && Mirror.size() > MaxEntries)
    Mirror.erase(Mirror.begin(),
                 Mirror.begin() +
                     static_cast<long>(Mirror.size() - MaxEntries));
}

/// One random store program: ~12 lifecycle operations with a from-scratch
/// comparison every third step and at the end.
void runRandomProgram(uint64_t Seed) {
  SCOPED_TRACE("failure seed " + std::to_string(Seed) +
               " (replay: PROM_STORE_PROP_SEED=" + std::to_string(Seed) +
               ")");
  support::Rng R(Seed);

  size_t K = 1 + R.bounded(8);
  std::vector<CalibrationEntry> Mirror =
      makeEntries(200 + R.bounded(400), Dim, NumLabels, NumExperts, R);
  CalibrationStore Live;
  Live.reserve(Mirror.size());
  for (const CalibrationEntry &E : Mirror)
    Live.add(E);
  Live.finalize(K);
  size_t MaxEntries = 0;

  const int NumOps = 12;
  for (int Op = 0; Op < NumOps; ++Op) {
    SCOPED_TRACE("op " + std::to_string(Op));
    switch (R.bounded(5)) {
    case 0:   // Incremental refresh, small batch.
    case 1: { // (Twice as likely: the workhorse operation.)
      std::vector<CalibrationEntry> Fresh =
          makeEntries(1 + R.bounded(300), Dim, NumLabels, NumExperts, R);
      Mirror.insert(Mirror.end(), Fresh.begin(), Fresh.end());
      Live.appendEntries(std::move(Fresh));
      Live.refinalize();
      applyEviction(Mirror, MaxEntries);
      break;
    }
    case 2: { // Full-rebuild refresh on the same staged-entry semantics.
      std::vector<CalibrationEntry> Fresh =
          makeEntries(1 + R.bounded(128), Dim, NumLabels, NumExperts, R);
      Mirror.insert(Mirror.end(), Fresh.begin(), Fresh.end());
      Live.appendEntries(std::move(Fresh));
      Live.refinalizeFull();
      applyEviction(Mirror, MaxEntries);
      break;
    }
    case 3: { // Re-partition; verdicts must not depend on the layout.
      K = 1 + R.bounded(8);
      Live.reshard(K);
      break;
    }
    case 4: { // Move the eviction bound (applies on the next refinalize).
      MaxEntries = R.bounded(3) == 0 ? 0 : 128 + R.bounded(512);
      Live.setMaxEntries(MaxEntries);
      break;
    }
    }

    if (Op % 3 == 2 || Op == NumOps - 1) {
      CalibrationStore Ref = referenceStore(Mirror, K);
      expectBothRegimesMatch(Live, Ref, Seed ^ static_cast<uint64_t>(Op),
                             ("after op " + std::to_string(Op)).c_str());
      if (::testing::Test::HasFailure()) {
        ADD_FAILURE() << "store property violated; failure seed " << Seed
                      << " — replay with PROM_STORE_PROP_SEED=" << Seed;
        return;
      }
    }
  }
}

/// Entries whose embeddings live on a tiny integer grid: exact duplicate
/// embeddings and exact distance ties abound — the adversarial input for
/// the pruned scan's tie-break safety.
std::vector<CalibrationEntry> makeTieHeavyEntries(size_t N, size_t Dim,
                                                  support::Rng &R) {
  std::vector<CalibrationEntry> Out;
  Out.reserve(N);
  for (size_t I = 0; I < N; ++I) {
    CalibrationEntry E;
    for (size_t D = 0; D < Dim; ++D)
      E.Embed.push_back(static_cast<double>(R.bounded(3)));
    E.Label = static_cast<int>(I % static_cast<size_t>(NumLabels));
    for (size_t X = 0; X < NumExperts; ++X)
      E.Scores.push_back(R.uniform(0.0, 1.0));
    Out.push_back(std::move(E));
  }
  return Out;
}

/// Random store program with the cluster-pruned scan forced on: the live
/// store carries an aggressive index policy (every shard indexed, random
/// centroid counts and staleness bounds) through a random lifecycle, while
/// the reference store keeps the store-default policy (disabled, exact
/// flat scan). The two must agree bit for bit on every selection and
/// p-value — the losslessness property, randomized over dims, shard
/// counts, duplicate/tie-heavy embeddings, and mutation interleavings.
/// Returns how many evicting refreshes kept an index instead of
/// re-clustering (see the counting below).
size_t runPrunedProgram(uint64_t Seed) {
  SCOPED_TRACE("failure seed " + std::to_string(Seed) +
               " (replay: PROM_STORE_PROP_SEED=" + std::to_string(Seed) +
               ")");
  support::Rng R(Seed);

  size_t K = 1 + R.bounded(6);
  size_t PDim = 3 + R.bounded(9);
  bool TieHeavy = R.bounded(2) == 0;
  auto Make = [&](size_t N) {
    return TieHeavy ? makeTieHeavyEntries(N, PDim, R)
                    : makeEntries(N, PDim, NumLabels, NumExperts, R);
  };

  std::vector<CalibrationEntry> Mirror = Make(300 + R.bounded(500));
  CalibrationStore Live;
  Live.reserve(Mirror.size());
  for (const CalibrationEntry &E : Mirror)
    Live.add(E);

  ClusterIndexPolicy Policy;
  Policy.Enabled = true;
  Policy.MinEntries = 1 + R.bounded(256);
  Policy.NumCentroids = R.bounded(2) == 0 ? 0 : 4 + R.bounded(28);
  Policy.MaxStaleFraction = 0.05 + 0.2 * R.uniform();
  // The default-config regime selects 50% — keep the pruned path routed
  // (the production MaxSelectFraction bound is a perf heuristic, not a
  // correctness one, and this test is about correctness).
  Policy.MaxSelectFraction = 1.0;
  Live.setIndexPolicy(Policy);
  Live.finalize(K);
  size_t SurvivedEvictions = 0;
  EXPECT_GT(Live.indexedShards(), 0u) << "policy did not index any shard";
  if (Live.indexedShards() == 0)
    return SurvivedEvictions;
  size_t MaxEntries = 0;

  const int NumOps = 10;
  for (int Op = 0; Op < NumOps; ++Op) {
    SCOPED_TRACE("op " + std::to_string(Op));
    switch (R.bounded(6)) {
    case 0:   // Incremental refresh: exercises stale-tail exact scans.
    case 1: {
      std::vector<CalibrationEntry> Fresh = Make(1 + R.bounded(300));
      Mirror.insert(Mirror.end(), Fresh.begin(), Fresh.end());
      Live.appendEntries(std::move(Fresh));
      Live.refinalize();
      size_t Before = Mirror.size();
      applyEviction(Mirror, MaxEntries);
      // An index survived the eviction when the store leaves more rows
      // uncovered than a fresh build on the same partition would.
      if (Mirror.size() < Before && Live.indexedShards() > 0) {
        CalibrationStore Rebuilt = Live;
        Rebuilt.setIndexPolicy(Live.indexPolicy());
        if (Live.unindexedEntries() > Rebuilt.unindexedEntries())
          ++SurvivedEvictions;
      }
      break;
    }
    case 2: { // Full rebuild (indexes rebuilt wholesale).
      std::vector<CalibrationEntry> Fresh = Make(1 + R.bounded(128));
      Mirror.insert(Mirror.end(), Fresh.begin(), Fresh.end());
      Live.appendEntries(std::move(Fresh));
      Live.refinalizeFull();
      applyEviction(Mirror, MaxEntries);
      break;
    }
    case 3: { // Re-partition: every shard index must follow the layout.
      K = 1 + R.bounded(6);
      Live.reshard(K);
      break;
    }
    case 4: { // Eviction bound (kept >= 256 so selections stay proper).
      MaxEntries = R.bounded(3) == 0 ? 0 : 256 + R.bounded(512);
      Live.setMaxEntries(MaxEntries);
      break;
    }
    case 5: { // Policy change mid-flight: re-index under new knobs.
      Policy.MinEntries = 1 + R.bounded(256);
      Policy.MaxStaleFraction = 0.05 + 0.2 * R.uniform();
      Live.setIndexPolicy(Policy);
      break;
    }
    }

    if (Op % 3 == 2 || Op == NumOps - 1) {
      CalibrationStore Ref = referenceStore(Mirror, K);
      expectBothRegimesMatch(Live, Ref, Seed ^ static_cast<uint64_t>(Op),
                             ("after op " + std::to_string(Op)).c_str());
      if (::testing::Test::HasFailure()) {
        ADD_FAILURE() << "pruned-store property violated; failure seed "
                      << Seed << " — replay with PROM_STORE_PROP_SEED="
                      << Seed;
        return SurvivedEvictions;
      }
    }
  }

  // The program must have ended with the pruned path actually serving
  // (guards against silently falling back to the exact scan forever).
  if (Live.indexedShards() > 0 &&
      selectionKeepCount(Live.size(), PromConfig()) < Live.size()) {
    AssessmentScratch S;
    PromConfig Cfg;
    std::vector<double> Query(Live.embedDim());
    for (double &V : Query)
      V = R.gaussian(0.0, 2.0);
    Live.selectForAssessment(Query.data(), Cfg, S);
    EXPECT_GT(S.Pruned.ListsTotal, 0u);
    EXPECT_EQ(S.Pruned.RowsTotal, Live.size());
    EXPECT_GT(S.Pruned.RowsScanned, 0u);
    EXPECT_LE(S.Pruned.RowsScanned, S.Pruned.RowsTotal);
    EXPECT_LE(S.Pruned.ListsScanned, S.Pruned.ListsTotal);
  }
  return SurvivedEvictions;
}

/// Batch-prepared pruned scans must be a pure caching transformation: a
/// selection served from a prepared BatchPrunedScan block is bit-identical
/// — keys, partition, weights, and every pruning counter — to the same
/// query's stand-alone selectForAssessment, and the per-query stats slots
/// (plus their canonical aggregate) are deterministic at any thread count.
void runBatchPreparedProgram(uint64_t Seed) {
  SCOPED_TRACE("failure seed " + std::to_string(Seed));
  support::Rng R(Seed);

  size_t K = 1 + R.bounded(6);
  size_t PDim = 3 + R.bounded(9);
  bool TieHeavy = R.bounded(2) == 0;
  auto Make = [&](size_t N) {
    return TieHeavy ? makeTieHeavyEntries(N, PDim, R)
                    : makeEntries(N, PDim, NumLabels, NumExperts, R);
  };

  std::vector<CalibrationEntry> Mirror = Make(400 + R.bounded(400));
  CalibrationStore Live;
  Live.reserve(Mirror.size());
  for (const CalibrationEntry &E : Mirror)
    Live.add(E);
  ClusterIndexPolicy Policy;
  Policy.Enabled = true;
  Policy.MinEntries = 32;
  Policy.MaxSelectFraction = 1.0;
  Live.setIndexPolicy(Policy);
  Live.finalize(K);
  ASSERT_GT(Live.indexedShards(), 0u);
  // Stale tail: the prepared scan must coexist with the exact tail rows.
  Live.appendEntries(Make(1 + R.bounded(40)));
  Live.refinalize();

  PromConfig Cfg;
  const size_t NumQ = 1 + R.bounded(24);
  support::FeatureMatrix Queries(NumQ, Live.embedDim());
  for (size_t Q = 0; Q < NumQ; ++Q)
    for (size_t D = 0; D < Live.embedDim(); ++D)
      Queries.rowPtr(Q)[D] = TieHeavy ? static_cast<double>(R.bounded(3))
                                      : R.gaussian(0.0, 2.0);

  CalibrationStore::BatchPrunedScan Scan;
  Live.prepareBatchPrunedScan(Queries.rowPtr(0), NumQ, Queries.stride(),
                              Cfg, Scan);
  ASSERT_TRUE(Scan.Active);
  ASSERT_EQ(Scan.PerQuery.size(), NumQ);

  for (size_t Q = 0; Q < NumQ; ++Q) {
    SCOPED_TRACE("query " + std::to_string(Q));
    AssessmentScratch WithBatch, Standalone;
    Live.selectForAssessment(Queries.rowPtr(Q), Cfg, WithBatch, &Scan, Q);
    Live.selectForAssessment(Queries.rowPtr(Q), Cfg, Standalone);

    ASSERT_EQ(WithBatch.Keep, Standalone.Keep);
    EXPECT_EQ(WithBatch.SelectedAll, Standalone.SelectedAll);
    ASSERT_EQ(WithBatch.Keyed.size(), Standalone.Keyed.size());
    for (size_t I = 0; I < WithBatch.Keyed.size(); ++I) {
      EXPECT_EQ(prom::testing::bits(WithBatch.Keyed[I].first),
                prom::testing::bits(Standalone.Keyed[I].first));
      EXPECT_EQ(WithBatch.Keyed[I].second, Standalone.Keyed[I].second);
    }
    ASSERT_EQ(WithBatch.SelectedBits, Standalone.SelectedBits);
    ASSERT_EQ(WithBatch.WeightByEntry.size(),
              Standalone.WeightByEntry.size());
    for (size_t I = 0; I < WithBatch.WeightByEntry.size(); ++I)
      EXPECT_EQ(prom::testing::bits(WithBatch.WeightByEntry[I]),
                prom::testing::bits(Standalone.WeightByEntry[I]));

    EXPECT_GT(WithBatch.Pruned.ListsTotal, 0u);
    EXPECT_EQ(WithBatch.Pruned.ListsTotal, Standalone.Pruned.ListsTotal);
    EXPECT_EQ(WithBatch.Pruned.ListsScanned,
              Standalone.Pruned.ListsScanned);
    EXPECT_EQ(WithBatch.Pruned.RowsTotal, Standalone.Pruned.RowsTotal);
    EXPECT_EQ(WithBatch.Pruned.RowsScanned,
              Standalone.Pruned.RowsScanned);
    // The scan records each query's stats in its own slot.
    EXPECT_EQ(Scan.PerQuery[Q].RowsScanned,
              Standalone.Pruned.RowsScanned);
    EXPECT_EQ(Scan.PerQuery[Q].ListsScanned,
              Standalone.Pruned.ListsScanned);
  }

  // The aggregate is the ascending-slot fold of the per-query counters.
  PrunedScanStats Fold;
  for (const PrunedScanStats &S : Scan.PerQuery)
    Fold += S;
  PrunedScanStats Agg = Scan.aggregated();
  EXPECT_GT(Agg.ListsTotal, 0u);
  EXPECT_EQ(Agg.ListsTotal, Fold.ListsTotal);
  EXPECT_EQ(Agg.ListsScanned, Fold.ListsScanned);
  EXPECT_EQ(Agg.RowsTotal, Fold.RowsTotal);
  EXPECT_EQ(Agg.RowsScanned, Fold.RowsScanned);

  // A store whose routing is off prepares an inactive scan, and the
  // selection entry point must then behave exactly as if no batch existed.
  CalibrationStore::BatchPrunedScan Off;
  ClusterIndexPolicy Disabled;
  Disabled.Enabled = false;
  Live.setIndexPolicy(Disabled);
  Live.prepareBatchPrunedScan(Queries.rowPtr(0), NumQ, Queries.stride(),
                              Cfg, Off);
  EXPECT_FALSE(Off.Active);
  AssessmentScratch S;
  Live.selectForAssessment(Queries.rowPtr(0), Cfg, S, &Off, 0);
  EXPECT_EQ(S.Pruned.ListsTotal, 0u);
}

/// Entries whose embeddings scatter around \p Center in every dimension.
std::vector<CalibrationEntry> makeBlobEntries(size_t N, double Center,
                                              support::Rng &R) {
  std::vector<CalibrationEntry> Out =
      makeEntries(N, Dim, NumLabels, NumExperts, R);
  for (CalibrationEntry &E : Out)
    for (double &V : E.Embed)
      V = Center + 0.25 * V;
  return Out;
}

} // namespace

TEST(StorePropertyTest, ExactTailAloneBoundsThePrunedWalk) {
  // An indexed blob far from the origin plus a stale tail of at least Keep
  // rows near it: queried at the origin, the exactly scanned tail sets
  // the walk's bound before any list is visited, and every list prunes —
  // the seeded path a single-index walk never takes.
  support::Rng R(20260901);
  std::vector<CalibrationEntry> Blob = makeBlobEntries(600, 1000.0, R);
  CalibrationStore Live;
  for (const CalibrationEntry &E : Blob)
    Live.add(E);
  ClusterIndexPolicy Policy;
  Policy.Enabled = true;
  Policy.MinEntries = 64;
  Policy.NumCentroids = 8;
  Policy.MaxStaleFraction = 0.9;
  Policy.MaxSelectFraction = 1.0;
  Live.setIndexPolicy(Policy);
  Live.finalize(1);
  ASSERT_EQ(Live.indexedShards(), 1u);
  Live.appendEntries(makeBlobEntries(100, 0.0, R));
  Live.refinalize();
  ASSERT_EQ(Live.indexedShards(), 1u);
  ASSERT_EQ(Live.unindexedEntries(), 100u);

  PromConfig Cfg;
  Cfg.SelectFraction = 0.1;
  ASSERT_LE(selectionKeepCount(Live.size(), Cfg), Live.unindexedEntries());

  CalibrationStore Exact = Live;
  Exact.setIndexPolicy(ClusterIndexPolicy());
  std::vector<double> Origin(Dim, 0.0);
  AssessmentScratch SLive, SExact;
  Live.selectForAssessment(Origin.data(), Cfg, SLive);
  Exact.selectForAssessment(Origin.data(), Cfg, SExact);

  EXPECT_GT(SLive.Pruned.ListsTotal, 0u);
  EXPECT_EQ(SLive.Pruned.ListsScanned, 0u);
  EXPECT_EQ(SLive.Pruned.RowsScanned, Live.unindexedEntries());
  EXPECT_EQ(SLive.Pruned.RowsTotal, Live.size());
  EXPECT_EQ(SExact.Pruned.ListsTotal, 0u);

  // The selected keys (in (key, id) order), bitmap and weights are the
  // exact scan's bits.
  ASSERT_EQ(SLive.Keep, SExact.Keep);
  auto SelectedKeys = [](const AssessmentScratch &S) {
    std::vector<std::pair<double, uint32_t>> Keys(
        S.Keyed.begin(), S.Keyed.begin() + static_cast<long>(S.Keep));
    std::sort(Keys.begin(), Keys.end());
    return Keys;
  };
  std::vector<std::pair<double, uint32_t>> LiveKeys = SelectedKeys(SLive);
  std::vector<std::pair<double, uint32_t>> ExactKeys = SelectedKeys(SExact);
  for (size_t I = 0; I < LiveKeys.size(); ++I) {
    EXPECT_EQ(prom::testing::bits(LiveKeys[I].first),
              prom::testing::bits(ExactKeys[I].first));
    EXPECT_EQ(LiveKeys[I].second, ExactKeys[I].second);
  }
  EXPECT_EQ(SLive.SelectedBits, SExact.SelectedBits);
  ASSERT_EQ(SLive.WeightByEntry.size(), SExact.WeightByEntry.size());
  for (size_t I = 0; I < SLive.WeightByEntry.size(); ++I)
    EXPECT_EQ(prom::testing::bits(SLive.WeightByEntry[I]),
              prom::testing::bits(SExact.WeightByEntry[I]))
        << "entry " << I;
}

TEST(StorePropertyTest, NaNQueryPrunedSelectionMatchesExactScan) {
  // A query with one NaN coordinate keys every entry NaN. The exact scan
  // then selects the Keep lowest ids; the pruned walk must as well, which
  // needs it to keep NaN-keyed rows past its (NaN) bound rather than drop
  // them. Interleaved blobs spread every list over the whole id range.
  support::Rng R(20260903);
  std::vector<CalibrationEntry> Left = makeBlobEntries(400, -20.0, R);
  std::vector<CalibrationEntry> Right = makeBlobEntries(400, 20.0, R);
  CalibrationStore Live;
  for (size_t I = 0; I < Left.size(); ++I) {
    Live.add(Left[I]);
    Live.add(Right[I]);
  }
  ClusterIndexPolicy Policy;
  Policy.Enabled = true;
  Policy.MinEntries = 64;
  Policy.NumCentroids = 8;
  Live.setIndexPolicy(Policy);
  Live.finalize(1);
  ASSERT_EQ(Live.indexedShards(), 1u);

  CalibrationStore Exact = Live;
  Exact.setIndexPolicy(ClusterIndexPolicy());
  PromConfig Cfg;
  Cfg.SelectFraction = 0.1;
  std::vector<double> Query(Dim, 0.5);
  Query[2] = std::numeric_limits<double>::quiet_NaN();
  AssessmentScratch SLive, SExact;
  Live.selectForAssessment(Query.data(), Cfg, SLive);
  Exact.selectForAssessment(Query.data(), Cfg, SExact);

  EXPECT_GT(SLive.Pruned.ListsTotal, 0u);
  EXPECT_EQ(SExact.Pruned.ListsTotal, 0u);
  ASSERT_EQ(SLive.Keep, SExact.Keep);
  EXPECT_EQ(SLive.SelectedBits, SExact.SelectedBits);
  for (size_t I = 0; I < SExact.Keep; ++I)
    EXPECT_TRUE(SExact.selected(I)) << "entry " << I;
  ASSERT_EQ(SLive.WeightByEntry.size(), SExact.WeightByEntry.size());
  for (size_t I = 0; I < SLive.WeightByEntry.size(); ++I)
    EXPECT_EQ(prom::testing::bits(SLive.WeightByEntry[I]),
              prom::testing::bits(SExact.WeightByEntry[I]))
        << "entry " << I;
}

TEST(StorePropertyTest, RandomLifecyclesMatchFromScratchRebuild) {
  for (uint64_t Seed : {20260701ull, 20260702ull, 20260703ull, 20260704ull,
                        20260705ull, 20260706ull})
    runRandomProgram(Seed);
}

TEST(StorePropertyTest, PrunedLifecyclesMatchExactScan) {
  size_t SurvivedEvictions = 0;
  for (uint64_t Seed : {20260801ull, 20260802ull, 20260803ull, 20260804ull,
                        20260805ull, 20260806ull, 20260807ull, 20260808ull})
    SurvivedEvictions += runPrunedProgram(Seed);
  // Evicting refreshes must remap the indexes, not re-cluster them: a
  // silent return to rebuild-on-evict fails here, not just in a bench.
  EXPECT_GT(SurvivedEvictions, 0u);
}

TEST(StorePropertyTest, BatchPreparedScansMatchPerQuerySelection) {
  for (uint64_t Seed : {20260811ull, 20260812ull, 20260813ull, 20260814ull,
                        20260815ull, 20260816ull})
    runBatchPreparedProgram(Seed);
}

TEST(StorePropertyTest, ReplaySeedFromEnvironment) {
  // Developer loop: PROM_STORE_PROP_SEED=<n> re-runs exactly the program a
  // failure named. A no-op when the variable is unset.
  const char *Env = std::getenv("PROM_STORE_PROP_SEED");
  if (!Env)
    GTEST_SKIP() << "PROM_STORE_PROP_SEED not set";
  uint64_t Seed = std::strtoull(Env, nullptr, 10);
  runRandomProgram(Seed);
  runPrunedProgram(Seed);
}
