//===- core/CalibrationStore.cpp - Sharded calibration store ----------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/CalibrationStore.h"
#include "support/Kernels.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace prom;

namespace {

/// Below this many entries the shard fan-out costs more than the work; the
/// threshold only gates parallelism, never the arithmetic.
constexpr size_t MinEntriesForFanOut = 512;

/// Calls \p Fn(Begin, End) on the (at most two) pieces of [\p Begin,
/// \p End) that lie outside [\p XBegin, \p XEnd).
template <typename F>
void forEachOutside(size_t Begin, size_t End, size_t XBegin, size_t XEnd,
                    F Fn) {
  if (XBegin >= XEnd) {
    if (Begin < End)
      Fn(Begin, End);
    return;
  }
  if (Begin < std::min(End, XBegin))
    Fn(Begin, std::min(End, XBegin));
  if (std::max(Begin, XEnd) < End)
    Fn(std::max(Begin, XEnd), End);
}

} // namespace

void CalibrationStore::finalize(size_t NumShards) {
  TargetShards = NumShards == 0 ? 1 : NumShards;
  Flat.finalize();
  buildShards(NumShards);
}

void CalibrationStore::reshard(size_t NumShards) {
  // finalize() is what populates the flat indexes buildShards() reads;
  // embedDim() stays 0 until it has run on a non-empty store.
  assert((Flat.empty() || Flat.embedDim() > 0) && "reshard before finalize");
  TargetShards = NumShards == 0 ? 1 : NumShards;
  buildShards(NumShards);
}

void CalibrationStore::appendEntries(std::vector<CalibrationEntry> NewEntries) {
  assert((Flat.empty() || NewEntries.empty() ||
          (NewEntries.front().Embed.size() == Flat.embedDim() &&
           NewEntries.front().Scores.size() == Flat.numExperts())) &&
         "appended entries must match the store shape");
  for (CalibrationEntry &Entry : NewEntries)
    Flat.add(std::move(Entry));
}

void CalibrationStore::refinalize() {
  size_t Evict =
      MaxEntries != 0 && Flat.size() > MaxEntries ? Flat.size() - MaxEntries
                                                  : 0;
  if (Evict > 0) {
    refinalizeEvicting(Evict);
    return;
  }
  size_t Staged = stagedEntries();
  size_t OldIndexed = Flat.indexedCount();
  if (!Flat.refinalize(0)) {
    buildShards(TargetShards);
    return;
  }
  if (Staged == 0)
    return;
  assert(!Shards.empty() && "finalized non-empty store without shards");

  // Append-only refresh: the new entries extend the last shard (filling
  // its trailing partial block first — the block-aligned insert). Once
  // that shard drifts past twice the even share, rebalance to the
  // requested partition; any block-aligned contiguous layout yields
  // bit-identical verdicts, so the rebalance point is pure load-balancing.
  size_t NumBlocks = Flat.numAccumBlocks();
  size_t Ideal = std::min(TargetShards, NumBlocks);
  size_t IdealBlocksPerShard = (NumBlocks + Ideal - 1) / Ideal;
  size_t LastShardBlocks =
      NumBlocks - Shards.back().Begin / CalibrationAccumBlock;
  if (LastShardBlocks > 2 * IdealBlocksPerShard) {
    buildShards(TargetShards);
    return;
  }
  extendLastShard(OldIndexed);
  // The extension left the last shard's index covering only a prefix; the
  // staleness policy decides whether the exact tail scan is still cheap
  // enough or the index re-clusters now.
  updateShardIndexes(/*Force=*/false);
}

void CalibrationStore::refinalizeEvicting(size_t Evict) {
  // Eviction shifts every survivor down by Evict, so block membership and
  // the block-aligned partition move with it. When the partition of the
  // surviving size keeps the shard count, every shard slides instead of
  // re-sorting: its sorted scores drop the entries that left its range
  // and merge in the ones that entered (with one shard: the evicted and
  // the appended), and the cluster indexes drop their evicted rows.
  std::vector<ShardRange> Ranges =
      blockPartition(Flat.size() - Evict, TargetShards);
  bool Slide = Evict < Flat.indexedCount() && Ranges.size() == Shards.size();
  size_t NumExp = Flat.numExperts();
  support::ThreadPool &Pool = support::ThreadPool::global();
  if (Slide) {
    // Removal reads the scores at their pre-eviction positions, so it runs
    // before the flat refinalize shifts them. Every (shard, expert) bucket
    // set is disjoint state, so the fan-out cannot change a bit.
    Pool.parallelFor(Shards.size() * NumExp, [&](size_t Begin, size_t End) {
      for (size_t W = Begin; W < End; ++W) {
        Shard &Sh = Shards[W / NumExp];
        const ShardRange &To = Ranges[W / NumExp];
        size_t Expert = W % NumExp;
        std::vector<std::vector<double>> &Buckets = Sh.SortedScores[Expert];
        forEachOutside(Sh.Begin, Sh.End, To.Begin + Evict, To.End + Evict,
                       [&](size_t B, size_t E) {
                         Flat.removeScoresFromIndex(Expert, B, E, Buckets);
                       });
      }
    });
  }
  if (!Flat.refinalize(Evict) || !Slide) {
    // A degenerate eviction swallowed the indexed prefix, or the shard
    // count changed: rebuild every shard and re-cluster.
    buildShards(TargetShards);
    return;
  }

  size_t LabelBuckets = static_cast<size_t>(Flat.maxLabel() + 1);
  auto Shifted = [&](size_t Row) { return Row > Evict ? Row - Evict : 0; };
  Pool.parallelFor(Shards.size() * NumExp, [&](size_t Begin, size_t End) {
    for (size_t W = Begin; W < End; ++W) {
      Shard &Sh = Shards[W / NumExp];
      const ShardRange &To = Ranges[W / NumExp];
      size_t Expert = W % NumExp;
      std::vector<std::vector<double>> &Buckets = Sh.SortedScores[Expert];
      // Buckets of a retired label are empty by now; a new label needs one.
      Buckets.resize(LabelBuckets);
      forEachOutside(To.Begin, To.End, Shifted(Sh.Begin), Shifted(Sh.End),
                     [&](size_t B, size_t E) {
                       Flat.mergeScoresIntoIndex(Expert, B, E, Buckets);
                     });
    }
  });
  for (size_t S = 0; S < Shards.size(); ++S) {
    Shards[S].Begin = Ranges[S].Begin;
    Shards[S].End = Ranges[S].End;
  }
  for (support::ClusterIndex &Idx : ShardIndexes)
    Idx.evictOldest(Evict);
  // The appended rows are uncovered; the staleness policy decides whether
  // they are still cheap to scan exactly or the indexes re-cluster now.
  updateShardIndexes(/*Force=*/false);
}

void CalibrationStore::refinalizeFull() {
  size_t Evict =
      MaxEntries != 0 && Flat.size() > MaxEntries ? Flat.size() - MaxEntries
                                                  : 0;
  Flat.dropOldest(Evict);
  Flat.finalize();
  buildShards(TargetShards);
}

void CalibrationStore::extendLastShard(size_t OldEnd) {
  size_t NewEnd = Flat.size();
  size_t NumExp = Flat.numExperts();
  size_t LabelBuckets = static_cast<size_t>(Flat.maxLabel() + 1);

  // The refresh may have introduced a new largest label; every shard's
  // bucket array must cover it (empty buckets never change a count).
  for (Shard &Sh : Shards)
    for (size_t E = 0; E < NumExp; ++E)
      Sh.SortedScores[E].resize(LabelBuckets);

  Shard &Last = Shards.back();
  assert(Last.End == OldEnd && "extending past staged entries");
  // Per-expert sorted inserts are independent; the fan-out runs inline
  // when nested under another pool region (a service worker triggering a
  // synchronous refresh) — the nested-parallelFor contract.
  support::ThreadPool::global().parallelFor(
      NumExp, [&](size_t Begin, size_t End) {
        for (size_t E = Begin; E < End; ++E)
          Flat.mergeScoresIntoIndex(E, OldEnd, NewEnd, Last.SortedScores[E]);
      });
  Last.End = NewEnd;
}

std::vector<CalibrationStore::ShardRange>
CalibrationStore::blockPartition(size_t N, size_t NumShards) {
  std::vector<ShardRange> Ranges;
  size_t NumBlocks = (N + CalibrationAccumBlock - 1) / CalibrationAccumBlock;
  if (NumBlocks == 0)
    return Ranges;
  // A shard owns whole accumulation blocks, so block partials never
  // straddle shards and the general-path merge stays K-invariant.
  NumShards = std::min(std::max<size_t>(NumShards, 1), NumBlocks);
  size_t BlocksPerShard = (NumBlocks + NumShards - 1) / NumShards;
  for (size_t FirstBlock = 0; FirstBlock < NumBlocks;
       FirstBlock += BlocksPerShard) {
    size_t LastBlock = std::min(NumBlocks, FirstBlock + BlocksPerShard);
    Ranges.push_back({FirstBlock * CalibrationAccumBlock,
                      std::min(N, LastBlock * CalibrationAccumBlock)});
  }
  return Ranges;
}

void CalibrationStore::buildShards(size_t NumShards) {
  Shards.clear();
  for (const ShardRange &Range : blockPartition(Flat.size(), NumShards)) {
    Shard Sh;
    Sh.Begin = Range.Begin;
    Sh.End = Range.End;
    Shards.push_back(std::move(Sh));
  }

  size_t NumExp = Flat.numExperts();
  size_t LabelBuckets = static_cast<size_t>(Flat.maxLabel() + 1);
  // Per-shard index builds touch disjoint state, so they fan out over the
  // pool; each shard's sort depends only on its own entry range, never on
  // which lane ran it. Runs inline when nested under an active region.
  support::ThreadPool::global().parallelFor(
      Shards.size(), [&](size_t Begin, size_t End) {
        for (size_t S = Begin; S < End; ++S) {
          Shard &Sh = Shards[S];
          Sh.SortedScores.assign(
              NumExp, std::vector<std::vector<double>>(LabelBuckets));
          for (size_t E = 0; E < NumExp; ++E) {
            const std::vector<double> &Column = Flat.scoreColumn(E);
            for (size_t I = Sh.Begin; I < Sh.End; ++I)
              if (Flat.label(I) >= 0)
                Sh.SortedScores[E][static_cast<size_t>(Flat.label(I))]
                    .push_back(Column[I]);
            for (std::vector<double> &LabelScores : Sh.SortedScores[E])
              std::sort(LabelScores.begin(), LabelScores.end());
          }
        }
      });

  // Every rebuilt partition invalidates the cluster indexes wholesale
  // (shard boundaries moved, entry positions may have shifted).
  updateShardIndexes(/*Force=*/true);
}

void CalibrationStore::setIndexPolicy(const ClusterIndexPolicy &Policy) {
  IndexPolicy = Policy;
  updateShardIndexes(/*Force=*/true);
}

size_t CalibrationStore::indexedShards() const {
  size_t Count = 0;
  for (const support::ClusterIndex &Idx : ShardIndexes)
    Count += Idx.valid() ? 1 : 0;
  return Count;
}

size_t CalibrationStore::memoryBytes() const {
  size_t Bytes = Flat.memoryBytes();
  for (const Shard &S : Shards)
    for (const auto &PerLabel : S.SortedScores)
      for (const std::vector<double> &Scores : PerLabel)
        Bytes += Scores.capacity() * sizeof(double);
  for (const support::ClusterIndex &Idx : ShardIndexes)
    Bytes += Idx.memoryBytes();
  return Bytes;
}

size_t CalibrationStore::coveredRows(size_t Begin, size_t End) const {
  size_t Count = 0;
  for (const support::ClusterIndex &Idx : ShardIndexes)
    if (Idx.valid() && Idx.beginRow() < End && Begin < Idx.endRow())
      Count += std::min(End, Idx.endRow()) - std::max(Begin, Idx.beginRow());
  return Count;
}

size_t CalibrationStore::unindexedEntries() const {
  size_t Count = 0;
  for (const Shard &Sh : Shards)
    Count += (Sh.End - Sh.Begin) - coveredRows(Sh.Begin, Sh.End);
  return Count;
}

void CalibrationStore::updateShardIndexes(bool Force) {
  size_t K = Shards.size();
  ShardIndexes.resize(K);
  auto Wants = [&](size_t S) {
    return IndexPolicy.Enabled &&
           Shards[S].End - Shards[S].Begin >= IndexPolicy.MinEntries;
  };
  for (size_t S = 0; S < K; ++S)
    if (Force || !Wants(S))
      ShardIndexes[S].clear();

  // Rows no index covers — the tails appended since a build — are scanned
  // exactly by the pruned path, so a kept index stays lossless and just
  // prunes less. A shard re-clusters once its uncovered share outgrows
  // MaxStaleFraction (or nothing covers it at all).
  std::vector<char> Rebuild(K, 0);
  bool AnyRebuild = false;
  for (size_t S = 0; S < K; ++S) {
    if (!Wants(S))
      continue;
    size_t Size = Shards[S].End - Shards[S].Begin;
    size_t Covered = coveredRows(Shards[S].Begin, Shards[S].End);
    if (Covered > 0 && static_cast<double>(Size - Covered) <=
                           IndexPolicy.MaxStaleFraction *
                               static_cast<double>(Size))
      continue;
    Rebuild[S] = 1;
    AnyRebuild = true;
  }
  // A rebuilt index spans its whole shard. Eviction slides the kept
  // indexes across shard boundaries, and one that reaches outside its own
  // shard could overlap the rebuilt one — the pruned scan needs disjoint
  // ranges — so then every index re-clusters.
  if (AnyRebuild)
    for (size_t S = 0; S < K; ++S) {
      const support::ClusterIndex &Idx = ShardIndexes[S];
      if (!Rebuild[S] && Idx.valid() &&
          (Idx.beginRow() < Shards[S].Begin || Idx.endRow() > Shards[S].End)) {
        for (size_t T = 0; T < K; ++T)
          Rebuild[T] = Wants(T);
        break;
      }
    }

  // Per-shard builds touch disjoint state and kMeansMatrix is thread-count
  // deterministic, so the fan-out cannot change any index bit (and runs
  // inline when nested under an active pool region). Seeds follow the
  // shard position: deterministic across rebuilds and thread counts,
  // decorrelated between shards.
  support::ThreadPool::global().parallelFor(K, [&](size_t Begin, size_t End) {
    for (size_t S = Begin; S < End; ++S)
      if (Rebuild[S])
        ShardIndexes[S].build(
            Flat.embedMatrix(), Shards[S].Begin, Shards[S].End,
            IndexPolicy.NumCentroids,
            IndexPolicy.Seed ^ (0x9E3779B97F4A7C15ull * (Shards[S].Begin + 1)));
  });
}

PrunedScanStats CalibrationStore::BatchPrunedScan::aggregated() const {
  PrunedScanStats Agg;
  for (const PrunedScanStats &S : PerQuery)
    Agg += S;
  return Agg;
}

bool CalibrationStore::prunedRouting(const PromConfig &Cfg,
                                     size_t &Keep) const {
  // The pruned scan pays off only when the selection is a proper subset
  // (a full selection must touch every entry anyway) — and a small one:
  // pruning can never skip the kept rows themselves, so large selections
  // are served faster by the exact flat scan (MaxSelectFraction bounds
  // the routing). Losslessness makes this purely a routing choice.
  size_t N = Flat.size();
  if (!IndexPolicy.Enabled || indexedShards() == 0)
    return false;
  Keep = selectionKeepCount(N, Cfg);
  return Keep < N && static_cast<double>(Keep) <=
                         IndexPolicy.MaxSelectFraction *
                             static_cast<double>(N);
}

void CalibrationStore::prepareBatchPrunedScan(const double *Queries,
                                              size_t NumQueries,
                                              size_t QueryStride,
                                              const PromConfig &Cfg,
                                              BatchPrunedScan &Scan) const {
  Scan.Active = false;
  Scan.NumQueries = NumQueries;
  Scan.Blocks.clear();
  Scan.PerQuery.assign(NumQueries, PrunedScanStats());
  size_t Keep = 0;
  if (Flat.empty() || NumQueries == 0 || !prunedRouting(Cfg, Keep))
    return;
  Scan.Active = true;

  for (size_t SI = 0; SI < Shards.size(); ++SI) {
    const support::ClusterIndex &Idx = ShardIndexes[SI];
    if (!Idx.valid())
      continue;
    BatchPrunedScan::ShardBlock B;
    B.Shard = SI;
    B.NumLists = Idx.numLists();
    B.DistSq.resize(NumQueries * B.NumLists);
    Scan.Blocks.push_back(std::move(B));
  }
  // One blocked MxN pass per (query chunk, indexed shard) fills the
  // distance blocks: chunks are disjoint query rows and block row Q is
  // bit-identical to centroidDistances(query Q), so neither the fan-out
  // nor the batching can change a selection bit.
  for (BatchPrunedScan::ShardBlock &B : Scan.Blocks) {
    const support::ClusterIndex &Idx = ShardIndexes[B.Shard];
    support::ThreadPool::global().parallelFor(
        NumQueries, [&](size_t Begin, size_t End) {
          if (Begin >= End)
            return;
          Idx.centroidDistancesBatch(Queries + Begin * QueryStride,
                                     End - Begin, QueryStride,
                                     B.DistSq.data() + Begin * B.NumLists);
        });
  }
}

void CalibrationStore::selectForAssessment(const double *TestEmbed,
                                           const PromConfig &Cfg,
                                           AssessmentScratch &Scratch,
                                           BatchPrunedScan *Batch,
                                           size_t QueryIndex) const {
  assert(!Flat.empty() && "empty calibration store");
  size_t N = Flat.size();
  Scratch.Pruned = PrunedScanStats();

  size_t Keep = 0;
  if (prunedRouting(Cfg, Keep)) {
    assert((!Batch || (Batch->Active && QueryIndex < Batch->NumQueries)) &&
           "batch scan prepared under a different store or config");
    selectForAssessmentPruned(TestEmbed, Cfg, Keep, Scratch,
                              Batch && Batch->Active ? Batch : nullptr,
                              QueryIndex);
    if (Batch && Batch->Active)
      Batch->PerQuery[QueryIndex] = Scratch.Pruned;
    return;
  }

  Scratch.Keyed.resize(N);
  Scratch.Dists.resize(N);

  if (Shards.size() > 1 && N >= MinEntriesForFanOut) {
    // Each shard fills its own slice of the key array; per-entry
    // independent, so the values are identical to the serial scan.
    support::ThreadPool::global().parallelFor(
        Shards.size(), [&](size_t Begin, size_t End) {
          for (size_t S = Begin; S < End; ++S)
            Flat.computeDistanceKeys(TestEmbed, Scratch, Shards[S].Begin,
                                     Shards[S].End);
        });
  } else {
    Flat.computeDistanceKeys(TestEmbed, Scratch, 0, N);
  }
  // Partition + Eq. (1) weights on the merged keys: O(N) with small
  // constants next to the O(N x dim) scan above, and keeping it on one
  // thread preserves select()'s arithmetic verbatim.
  Flat.finishSelection(Cfg, Scratch);
}

void CalibrationStore::selectForAssessmentPruned(
    const double *TestEmbed, const PromConfig &Cfg, size_t Keep,
    AssessmentScratch &S, const BatchPrunedScan *Batch,
    size_t QueryIndex) const {
  const support::FeatureMatrix &Embeds = Flat.embedMatrix();
  S.Keyed.clear();

  // Exact scan of one contiguous row range into the candidate list. Rows
  // come straight out of the flat embedding block, so the kernel fold is
  // the very one the unpruned path runs.
  auto ScanRange = [&](size_t Begin, size_t End) {
    if (Begin >= End)
      return;
    S.RowScratch.resize(End - Begin);
    support::kernels::l2Sq1xN(TestEmbed, Embeds.rowPtr(Begin), End - Begin,
                              Embeds.dim(), Embeds.stride(),
                              S.RowScratch.data());
    for (size_t I = Begin; I < End; ++I)
      S.Keyed.push_back({S.RowScratch[I - Begin], static_cast<uint32_t>(I)});
  };

  if (!Batch) {
    size_t NumLists = 0;
    for (const support::ClusterIndex &Idx : ShardIndexes)
      NumLists += Idx.valid() ? Idx.numLists() : 0;
    S.CentroidDists.resize(NumLists);
  }
  // One ascending pass over the live indexes. Every live row no index
  // covers (unindexed shards and the tails appended since a build) is
  // scanned exactly and seeds the walk; the index ranges are sorted and
  // disjoint but need not match the shards (eviction slides them), so one
  // cursor walks the gaps between them. Each index joins the walk with
  // this query's centroid-distance row: read from the prepared batch
  // block — the bits the per-query kernel call would produce, with the
  // MxN pass amortized across the batch — or computed here.
  S.WalkSources.clear();
  size_t Cursor = 0, Off = 0, Block = 0;
  for (size_t SI = 0; SI < ShardIndexes.size(); ++SI) {
    const support::ClusterIndex &Idx = ShardIndexes[SI];
    if (!Idx.valid())
      continue;
    assert(Idx.beginRow() >= Cursor && "index ranges overlap or are unsorted");
    ScanRange(Cursor, Idx.beginRow());
    Cursor = Idx.endRow();
    if (Batch) {
      const BatchPrunedScan::ShardBlock &B = Batch->Blocks[Block++];
      assert(B.Shard == SI && B.NumLists == Idx.numLists() &&
             "stale batch scan: the store changed after prepare");
      S.WalkSources.push_back(
          {&Idx, B.DistSq.data() + QueryIndex * B.NumLists});
    } else {
      double *Row = S.CentroidDists.data() + Off;
      Idx.centroidDistances(TestEmbed, Row);
      Off += Idx.numLists();
      S.WalkSources.push_back({&Idx, Row});
    }
  }
  ScanRange(Cursor, Flat.indexedCount());
  assert((!Batch || Block == Batch->Blocks.size()) &&
         "stale batch scan: the store changed after prepare");

  support::ClusterIndex::prunedWalk(TestEmbed, S.WalkSources.data(),
                                    S.WalkSources.size(), Keep, S.Keyed,
                                    S.ListOrder, S.RowScratch, S.Pruned);
  assert(S.Pruned.RowsTotal == Flat.size() && "walk missed live rows");

  // Every entry is either a candidate or provably outside the selection,
  // so the shared partition + weight steps land on the flat path's bits.
  Flat.finishSelectionPruned(Cfg, S);
}

void CalibrationStore::pValuesAllExperts(AssessmentScratch &S,
                                         const double *TestScores,
                                         size_t NumLabels,
                                         const PromConfig &Cfg,
                                         const uint8_t *DiscreteFlags,
                                         double *PValsOut) const {
  assert(!Shards.empty() && "pValuesAllExperts before finalize");
  size_t NumExp = Flat.numExperts();
  size_t Cells = NumExp * NumLabels;
  size_t K = Shards.size();
  bool FanOut = K > 1 && Flat.size() >= MinEntriesForFanOut;

  S.GreaterEq.assign(Cells, 0.0);
  S.Total.assign(Cells, 0.0);
  S.Counts.assign(NumLabels, 0.0);

  if (Cfg.WeightMode == CalibrationWeightMode::None && S.SelectedAll) {
    // Unweighted full selection: per-shard binary-search counts. Counting
    // with unit weights is exact integer arithmetic in doubles, so the
    // per-shard counts sum to the oracle's block-fold counts bit-exactly.
    S.BlockGreaterEq.assign(K * Cells, 0.0);
    S.BlockCounts.assign(K * NumLabels, 0.0);
    auto CountShard = [&](size_t SI) {
      const Shard &Sh = Shards[SI];
      double *GE = S.BlockGreaterEq.data() + SI * Cells;
      double *Cnt = S.BlockCounts.data() + SI * NumLabels;
      for (size_t L = 0; L < NumLabels; ++L) {
        if (static_cast<int>(L) > Flat.maxLabel())
          continue;
        const std::vector<double> &AnyExpert = Sh.SortedScores.front()[L];
        Cnt[L] = static_cast<double>(AnyExpert.size());
        if (AnyExpert.empty())
          continue;
        for (size_t E = 0; E < NumExp; ++E) {
          const std::vector<double> &LabelScores = Sh.SortedScores[E][L];
          double Test = TestScores[E * NumLabels + L];
          // No score is >= a NaN test score (the oracle's fold counts
          // none), but lower_bound would return begin() and count all.
          if (std::isnan(Test))
            continue;
          GE[E * NumLabels + L] = static_cast<double>(
              LabelScores.end() -
              std::lower_bound(LabelScores.begin(), LabelScores.end(), Test));
        }
      }
    };
    if (FanOut)
      support::ThreadPool::global().parallelFor(
          K, [&](size_t Begin, size_t End) {
            for (size_t SI = Begin; SI < End; ++SI)
              CountShard(SI);
          });
    else
      for (size_t SI = 0; SI < K; ++SI)
        CountShard(SI);

    for (size_t SI = 0; SI < K; ++SI) {
      const double *GE = S.BlockGreaterEq.data() + SI * Cells;
      const double *Cnt = S.BlockCounts.data() + SI * NumLabels;
      for (size_t L = 0; L < NumLabels; ++L)
        S.Counts[L] += Cnt[L];
      for (size_t Cell = 0; Cell < Cells; ++Cell)
        S.GreaterEq[Cell] += GE[Cell];
    }
    for (size_t E = 0; E < NumExp; ++E)
      for (size_t L = 0; L < NumLabels; ++L)
        S.Total[E * NumLabels + L] = S.Counts[L];
  } else {
    // General weighted path: every shard folds its own canonical blocks
    // into per-block partials; the merge walks the blocks in ascending
    // order on this thread, reproducing the flat block fold exactly.
    Flat.resolveExpertModes(Cfg, DiscreteFlags, S);
    size_t NumBlocks = Flat.numAccumBlocks();
    S.BlockGreaterEq.assign(NumBlocks * Cells, 0.0);
    S.BlockTotal.assign(NumBlocks * Cells, 0.0);
    S.BlockCounts.assign(NumBlocks * NumLabels, 0.0);

    auto AccumulateShard = [&](size_t SI) {
      const Shard &Sh = Shards[SI];
      for (size_t B0 = Sh.Begin; B0 < Sh.End; B0 += CalibrationAccumBlock) {
        size_t Block = B0 / CalibrationAccumBlock;
        size_t B1 = std::min(Sh.End, B0 + CalibrationAccumBlock);
        Flat.accumulateGeneralBlock(
            S, TestScores, NumLabels, B0, B1,
            S.BlockGreaterEq.data() + Block * Cells,
            S.BlockTotal.data() + Block * Cells,
            S.BlockCounts.data() + Block * NumLabels);
      }
    };
    if (FanOut)
      support::ThreadPool::global().parallelFor(
          K, [&](size_t Begin, size_t End) {
            for (size_t SI = Begin; SI < End; ++SI)
              AccumulateShard(SI);
          });
    else
      for (size_t SI = 0; SI < K; ++SI)
        AccumulateShard(SI);

    for (size_t Block = 0; Block < NumBlocks; ++Block) {
      const double *GE = S.BlockGreaterEq.data() + Block * Cells;
      const double *Tot = S.BlockTotal.data() + Block * Cells;
      const double *Cnt = S.BlockCounts.data() + Block * NumLabels;
      for (size_t Cell = 0; Cell < Cells; ++Cell) {
        S.GreaterEq[Cell] += GE[Cell];
        S.Total[Cell] += Tot[Cell];
      }
      for (size_t L = 0; L < NumLabels; ++L)
        S.Counts[L] += Cnt[L];
    }
  }

  for (size_t E = 0; E < NumExp; ++E)
    Flat.finishPValues(S.GreaterEq.data() + E * NumLabels,
                       S.Total.data() + E * NumLabels, S.Counts.data(),
                       NumLabels, Cfg, PValsOut + E * NumLabels);
}
