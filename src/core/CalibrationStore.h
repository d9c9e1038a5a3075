//===- core/CalibrationStore.h - Sharded calibration store -------*- C++ -*-===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shardable calibration store behind the PROM detectors.
///
/// A CalibrationStore owns the calibration entries (as a flat
/// CalibrationScores, which remains the serial oracle) and partitions them
/// into K contiguous, accumulation-block-aligned shards, each carrying its
/// own per-(expert, label) sorted-score index — the only sorted-score
/// index in the system. The engine entry points compute exactly what the
/// oracle's select()/pValues() compute and fan the work out shard-parallel
/// over support::ThreadPool:
///
///  * the squared-distance scan of selectForAssessment() fills disjoint
///    slices of the key array per shard (per-entry independent, so the
///    values cannot depend on the partitioning);
///  * the unweighted full-selection p-value fast path sums per-shard
///    binary-search counts (exact integer arithmetic in doubles);
///  * the general weighted path has each shard fold its own canonical
///    accumulation blocks (see CalibrationAccumBlock) into per-block
///    partials that are merged in ascending block order on one thread.
///
/// All three merges reproduce the oracle's floating-point arithmetic bit
/// for bit, so verdicts are identical for every shard count and every
/// thread count — test-enforced like the batch/serial equivalence.
///
/// The store also supports *online refresh*: appendEntries() stages
/// freshly relabeled deployment samples, refinalize() folds them into the
/// existing indexes (and evicts oldest-first beyond maxEntries()) without
/// a from-scratch rebuild. Verdicts after append + refinalize are
/// bit-identical to finalizing a new store on the surviving union of
/// entries — the lifecycle the self-recalibrating server relies on
/// (test-enforced by RefreshTest; see docs/ARCHITECTURE.md).
///
//===----------------------------------------------------------------------===//

#ifndef PROM_CORE_CALIBRATIONSTORE_H
#define PROM_CORE_CALIBRATIONSTORE_H

#include "core/Calibration.h"
#include "support/ClusterIndex.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace prom {

/// Policy governing the per-shard cluster indexes of the pruned distance
/// scan (derived from the PromConfig::ClusterIndex* knobs; see
/// support/ClusterIndex.h for the losslessness contract). The store-level
/// default is *disabled*, so a bare CalibrationStore behaves exactly as
/// before — detectors install the config-derived policy at calibrate /
/// snapshot-load time.
struct ClusterIndexPolicy {
  bool Enabled = false;        ///< Use the pruned scan at all.
  size_t NumCentroids = 0;     ///< Per-shard lists; 0 = ~sqrt(shard rows).
  size_t MinEntries = 8192;    ///< Smaller shards stay unindexed.
  double MaxStaleFraction = 0.25; ///< Uncovered shard share forcing rebuild.
  /// Largest Keep/N the pruned scan serves; larger selections fall back to
  /// the exact flat scan, which is faster there (the pruned path must
  /// visit at least the kept rows anyway).
  double MaxSelectFraction = 0.25;
  uint64_t Seed = 0x5851F42D4C957F2Dull; ///< Clustering seed base.

  /// The policy the PromConfig knobs describe.
  static ClusterIndexPolicy fromConfig(const PromConfig &Cfg) {
    ClusterIndexPolicy P;
    P.Enabled = Cfg.ClusterIndex;
    P.NumCentroids = Cfg.ClusterIndexCentroids;
    P.MinEntries = Cfg.ClusterIndexMinEntries;
    P.MaxStaleFraction = Cfg.ClusterIndexMaxStale;
    P.MaxSelectFraction = Cfg.ClusterIndexMaxSelectFraction;
    return P;
  }
};

/// Sharded calibration store; see the file comment for the exactness
/// contract.
class CalibrationStore {
public:
  /// Drops every entry and shard.
  void clear() {
    Flat.clear();
    Shards.clear();
    ShardIndexes.clear();
  }
  /// Reserves room for \p N entries.
  void reserve(size_t N) { Flat.reserve(N); }
  /// Adds one calibration entry (before finalize()).
  void add(CalibrationEntry Entry) { Flat.add(std::move(Entry)); }

  /// Builds the flat indexes (CalibrationScores::finalize) and partitions
  /// the entries into \p NumShards block-aligned shards. Sets with fewer
  /// accumulation blocks than requested shards get one shard per block.
  void finalize(size_t NumShards = 1);

  /// Re-partitions an already-finalized store into \p NumShards shards
  /// without touching the entries — verdicts are unchanged by contract, so
  /// a serving process can re-shard to its core count at load time.
  void reshard(size_t NumShards);

  //===--------------------------------------------------------------------===//
  // Online refresh (see the file comment for the exactness contract)
  //===--------------------------------------------------------------------===//

  /// Stages relabeled entries for the next refinalize(). Staged entries
  /// are invisible to the engine entry points until then, so a clone can
  /// be staged and refreshed while the original keeps serving.
  void appendEntries(std::vector<CalibrationEntry> NewEntries);

  /// Upper bound on live entries under continuous refresh; refinalize()
  /// evicts oldest-first beyond it. 0 (the default) means unbounded.
  void setMaxEntries(size_t N) { MaxEntries = N; }
  /// The live-entry bound (0 = unbounded).
  size_t maxEntries() const { return MaxEntries; }

  /// Entries staged by appendEntries() but not yet folded in.
  size_t stagedEntries() const { return Flat.size() - Flat.indexedCount(); }

  /// Folds the staged entries into the live indexes incrementally:
  /// oldest-first eviction down to maxEntries(), appended embedding rows /
  /// score columns, sort + merge inserts into the per-shard sorted-score
  /// indexes, none of the model forwards a detector-level recalibration
  /// would redo.
  ///
  ///  * Append-only: the last shard absorbs the new accumulation blocks
  ///    (the partition rebalances when it drifts past 2x the even share);
  ///    O(new) plus the merges into the touched sorted indexes.
  ///  * With eviction: every shard slides onto the partition of the
  ///    survivors — a linear multiset removal of the entries that left it
  ///    and a merge of those that entered — and the cluster indexes drop
  ///    their evicted rows and shift their ids instead of re-clustering.
  ///    O(N) copies and linear passes, no sort of the whole store and no
  ///    k-means.
  ///
  /// Still rebuilt from scratch: a degenerate eviction that swallows the
  /// indexed prefix, a rebalance, or a change in shard count. The indexes
  /// re-cluster only under the staleness rule (ClusterIndexPolicy::
  /// MaxStaleFraction of a shard uncovered) or with a rebuilt partition.
  ///
  /// Verdicts afterwards are bit-identical to refinalizeFull() — and to a
  /// brand-new store finalized on the surviving entries — for every shard
  /// and thread count.
  void refinalize();

  /// Reference path for the same staged entries and eviction policy: a
  /// from-scratch finalize() on the surviving union. Used by the
  /// bit-identity tests and the refresh benchmark as the full-rebuild
  /// baseline.
  void refinalizeFull();

  size_t numShards() const { return Shards.size(); } ///< Built shards.
  /// Shard count requested by the last finalize()/reshard() — what
  /// refinalize() rebalances toward as the store grows. numShards()
  /// reports the built partition, which clamps to the accumulation-block
  /// count; snapshots persist this value so a restored small store still
  /// scales back out under online refresh.
  size_t targetShards() const { return TargetShards; }
  size_t size() const { return Flat.size(); }        ///< Total entries.
  bool empty() const { return Flat.empty(); }        ///< No entries yet.
  /// Experts scored per entry (0 when empty).
  size_t numExperts() const { return Flat.numExperts(); }
  /// Embedding dimensionality (0 before finalize()).
  size_t embedDim() const { return Flat.embedDim(); }
  /// Distance scale of the set (see CalibrationScores::medianNNDist()).
  double medianNNDist() const { return Flat.medianNNDist(); }
  /// Entry \p I (snapshot writer / reference-rebuild access).
  const CalibrationEntry &entry(size_t I) const { return Flat.entry(I); }

  /// The flat (unsharded) scores: the serial oracle select()/pValues()
  /// paths and the snapshot writer iterate through this.
  const CalibrationScores &flat() const { return Flat; }

  /// Estimated heap footprint of the store: the flat scores plus every
  /// per-shard sorted index and cluster index. The fleet registry meters
  /// a tenant's detector with this when enforcing its LRU memory budget.
  size_t memoryBytes() const;

  //===--------------------------------------------------------------------===//
  // Cluster-pruned distance scan (lossless; support/ClusterIndex.h)
  //===--------------------------------------------------------------------===//

  /// Installs \p Policy and immediately rebuilds or drops the per-shard
  /// indexes to match. Indexes are *derived* state: snapshots never
  /// persist them, loaders re-install the policy after finalize().
  void setIndexPolicy(const ClusterIndexPolicy &Policy);

  /// The per-shard cluster-index policy currently in force.
  const ClusterIndexPolicy &indexPolicy() const { return IndexPolicy; }

  /// Shards currently carrying a valid cluster index.
  size_t indexedShards() const;

  /// Entries not covered by any valid shard index — unindexed shards plus
  /// the stale tails appended since each index was built. The pruned scan
  /// always scans these exactly, which is what keeps staleness lossless.
  size_t unindexedEntries() const;

  /// Precomputed per-batch state of the cluster-pruned selection: one
  /// query-to-centroid squared-distance block per indexed shard, computed
  /// with blocked l2SqMxN passes over the whole query batch instead of one
  /// l2Sq1xN per (query, shard) — the centroid-ranking cost the per-query
  /// path repays on every call. Block row Q carries the bits
  /// centroidDistances(query Q) would produce (the MxN kernel contract),
  /// so selections served from the batch are bit-identical to the
  /// per-query pruned path. Also collects each query's pruning counters
  /// (every selection writes only its own PerQuery slot, so the aggregate
  /// is deterministic at any thread count).
  struct BatchPrunedScan {
    /// Pruned routing holds for this (store, config) and the blocks below
    /// are filled; when false, selectForAssessment() ignores the scan.
    bool Active = false;
    size_t NumQueries = 0; ///< Rows of the prepared query block.
    /// The centroid-distance block of one indexed shard.
    struct ShardBlock {
      size_t Shard = 0;    ///< Index into the store's shard array.
      size_t NumLists = 0; ///< Lists of that shard's cluster index.
      /// NumQueries x NumLists squared distances, row-major by query.
      std::vector<double> DistSq;
    };
    /// One block per indexed shard, ascending shard order (matching the
    /// per-query path's shard walk).
    std::vector<ShardBlock> Blocks;
    /// Per-query counters of the selections served from this batch; slot
    /// Q is written by the selection of query Q (all zero when the exact
    /// path served it).
    std::vector<PrunedScanStats> PerQuery;
    /// Canonical ascending-query fold of PerQuery — the batch's aggregate
    /// lists/rows-scanned counters, identical at any thread count.
    PrunedScanStats aggregated() const;
  };

  /// Fills \p Scan for a batch of \p NumQueries query embeddings (rows of
  /// stride \p QueryStride starting at \p Queries) under \p Cfg. When the
  /// pruned routing would not fire (policy disabled, no indexed shards, or
  /// the selection is not a small proper subset), Scan.Active stays false
  /// and per-query selection proceeds exactly as without a batch. The
  /// per-shard blocks fan out over the ThreadPool in deterministic
  /// disjoint query chunks.
  void prepareBatchPrunedScan(const double *Queries, size_t NumQueries,
                              size_t QueryStride, const PromConfig &Cfg,
                              BatchPrunedScan &Scan) const;

  /// Engine API; the selected set and weights are bit-identical to
  /// flat().select() for every shard count. The distance scan fans out
  /// over the shards when the store is sharded and the pool is not
  /// already saturated — or, once the index policy enabled cluster indexes
  /// and a proper-subset selection is in force, runs the lossless pruned
  /// scan instead (Scratch.Pruned carries its pruning counters;
  /// ListsTotal != 0 exactly when the pruned scan served the call).
  ///
  /// \p Batch, when non-null and Active, must have been prepared by
  /// prepareBatchPrunedScan() on this store with the same config;
  /// \p QueryIndex names this query's row of the prepared block, and the
  /// pruned scan reads its centroid distances from the block instead of
  /// recomputing them (same bits, so the selection is unchanged). The
  /// query's pruning counters land in Batch->PerQuery[QueryIndex].
  void selectForAssessment(const double *TestEmbed, const PromConfig &Cfg,
                           AssessmentScratch &Scratch,
                           BatchPrunedScan *Batch = nullptr,
                           size_t QueryIndex = 0) const;

  /// Engine API; each expert's p-values are bit-identical to
  /// flat().select() + flat().pValues() for every shard count.
  void pValuesAllExperts(AssessmentScratch &Scratch, const double *TestScores,
                         size_t NumLabels, const PromConfig &Cfg,
                         const uint8_t *DiscreteFlags,
                         double *PValsOut) const;

private:
  /// One contiguous, block-aligned slice of the entries.
  struct Shard {
    size_t Begin = 0; ///< First entry (multiple of CalibrationAccumBlock).
    size_t End = 0;   ///< One past the last entry.
    /// SortedScores[E][L] = ascending scores of the label-L entries in
    /// [Begin, End); the unweighted full-selection p-value counts binary
    /// search it.
    std::vector<std::vector<std::vector<double>>> SortedScores;
  };

  /// Entry range [Begin, End) of one shard of a block-aligned partition.
  struct ShardRange {
    size_t Begin = 0;
    size_t End = 0;
  };

  /// The even block-aligned partition of \p N entries into at most
  /// \p NumShards shards (one per accumulation block when there are fewer
  /// blocks) — the layout buildShards() builds.
  static std::vector<ShardRange> blockPartition(size_t N, size_t NumShards);

  void buildShards(size_t NumShards);

  /// Extends the last shard over entries [\p OldEnd, size()) — the
  /// block-aligned insert of the incremental refresh path.
  void extendLastShard(size_t OldEnd);

  /// The refinalize() step for a refresh that evicts the \p Evict oldest
  /// entries: slides every shard onto the partition of the surviving
  /// entries (sorted-score multiset removal + merge) and remaps the
  /// cluster indexes (ClusterIndex::evictOldest) when the shard count is
  /// unchanged; rebuilds the shards otherwise.
  void refinalizeEvicting(size_t Evict);

  /// Reconciles the cluster indexes with the policy and the current
  /// partition: drops the indexes of shards under MinEntries, and
  /// re-clusters a shard whose rows no index covers exceed
  /// MaxStaleFraction of it — every shard, when a kept index reaches
  /// outside its own shard (so the ranges stay disjoint). \p Force clears
  /// first (partition changed wholesale).
  void updateShardIndexes(bool Force);

  /// Rows of [\p Begin, \p End) some valid cluster index covers.
  size_t coveredRows(size_t Begin, size_t End) const;

  /// The shared routing predicate of the pruned scan: true when the policy
  /// is enabled, at least one shard is indexed, and the \p Cfg selection is
  /// a small proper subset (MaxSelectFraction); \p Keep receives the
  /// selection size. prepareBatchPrunedScan() and selectForAssessment()
  /// both route through this, so a prepared batch can never disagree with
  /// the per-query decision.
  bool prunedRouting(const PromConfig &Cfg, size_t &Keep) const;

  /// The cluster-pruned selection path: exact scan of every unindexed
  /// row, which seeds the one bound-pruned walk over every shard index
  /// (support::ClusterIndex::prunedWalk()), then the shared partition +
  /// weight steps. Bit-identical to the flat path. \p Batch, when
  /// non-null, supplies the precomputed centroid-distance rows of query
  /// \p QueryIndex (see selectForAssessment()).
  void selectForAssessmentPruned(const double *TestEmbed,
                                 const PromConfig &Cfg, size_t Keep,
                                 AssessmentScratch &Scratch,
                                 const BatchPrunedScan *Batch,
                                 size_t QueryIndex) const;

  CalibrationScores Flat;
  std::vector<Shard> Shards;
  /// ShardIndexes[S] accelerates Shards[S]; invalid (cleared) when the
  /// shard is too small or the policy is disabled.
  std::vector<support::ClusterIndex> ShardIndexes;
  /// Policy in force; see setIndexPolicy().
  ClusterIndexPolicy IndexPolicy;
  /// Shard count requested by the last finalize()/reshard(); refinalize()
  /// rebalances toward it.
  size_t TargetShards = 1;
  size_t MaxEntries = 0; ///< Live-entry bound (0 = unbounded).
};

} // namespace prom

#endif // PROM_CORE_CALIBRATIONSTORE_H
