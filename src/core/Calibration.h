//===- core/Calibration.h - Calibration scores and selection -----*- C++ -*-===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Offline calibration-set processing (paper Sec. 4.1.1) and the adaptive
/// per-test selection + weighting scheme (Sec. 5.1.2).
///
/// At design time PROM applies the trained model to every calibration
/// sample and stores its feature embedding plus one nonconformity score per
/// committee expert. At deployment the nearest 50% of calibration samples
/// (all, when fewer than 200) are selected per test input, their scores are
/// shrunk by exp(-distance/tau), and class-conditional p-values are
/// computed against the weighted scores (Eq. 2, with the standard +1
/// smoothing so p in (0, 1]).
///
//===----------------------------------------------------------------------===//

#ifndef PROM_CORE_CALIBRATION_H
#define PROM_CORE_CALIBRATION_H

#include "core/PromConfig.h"
#include "support/ClusterIndex.h"
#include "support/FeatureMatrix.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace prom {

/// Entries per canonical accumulation block of the Eq. (2) sums.
///
/// Every p-value path (the per-expert serial oracle, the fused batch
/// engine, and the sharded CalibrationStore) accumulates the weighted
/// counts per fixed-size block of calibration entries — sequential in
/// ascending entry order inside a block — and folds the block partials in
/// ascending block order. Block boundaries depend only on the calibration
/// set size, never on the shard count or thread count, so the
/// floating-point result is bit-identical no matter how the work is
/// partitioned; sets smaller than one block reduce to the plain sequential
/// sum.
constexpr size_t CalibrationAccumBlock = 256;

/// One calibration sample's precomputed state.
struct CalibrationEntry {
  std::vector<double> Embed; ///< Model feature embedding.
  int Label = 0;             ///< True class (or cluster pseudo-label).
  std::vector<double> Scores; ///< One nonconformity score per expert.
};

/// The subset of calibration samples chosen for one test input.
struct CalibrationSelection {
  std::vector<size_t> Indices;  ///< Entries, closest first.
  std::vector<double> Weights;  ///< Eq. (1) weight per selected entry.
};

/// Counters of one cluster-pruned selection scan (the CalibrationStore
/// pruned path; see support/ClusterIndex.h for the losslessness contract):
/// the walk's counters, with the exactly scanned unindexed rows as its
/// seed. ListsTotal != 0 exactly when the pruned path served the
/// selection — routing needs an indexed shard, the exact scan has no
/// lists.
using PrunedScanStats = support::ClusterScanStats;

/// Reusable per-lane working state of the batched assessment engine: one
/// instance per ThreadPool lane, recycled across the samples of a batch so
/// the hot path performs no per-sample allocation.
struct AssessmentScratch {
  /// (squared distance, entry id) keys; after selection the first Keep
  /// elements are the selected entries (unordered beyond the partition).
  std::vector<std::pair<double, uint32_t>> Keyed;
  /// Raw squared distances of the batched kernel scan, packed into Keyed
  /// by computeDistanceKeys.
  std::vector<double> Dists;
  size_t Keep = 0;                   ///< Number of selected entries.
  bool SelectedAll = false;          ///< Selection covers every entry.
  /// The selected set as a bitmap: bit I % 64 of word I / 64 is set for
  /// selected entry I, so the p-value fold finds the Keep selected entries
  /// of a block from its four words instead of testing every entry.
  std::vector<uint64_t> SelectedBits;
  std::vector<double> WeightByEntry; ///< Eq. (1) weight, by entry id.

  /// True when entry \p I is in the current selection.
  bool selected(size_t I) const {
    return (SelectedBits[I / 64] >> (I % 64)) & 1u;
  }
  /// Per-(expert, label) accumulators of the fused p-value pass.
  std::vector<double> GreaterEq;
  std::vector<double> Total;
  std::vector<double> Counts; ///< Per-label selected counts.
  /// Working buffers of the bucket-select partition.
  std::vector<std::pair<double, uint32_t>> Boundary;
  std::vector<std::pair<double, uint32_t>> Tail;
  /// Per-expert resolved modes / score-column pointers of the fused pass.
  std::vector<CalibrationWeightMode> Modes;
  std::vector<const double *> Columns;
  bool UniformModes = true; ///< Every expert resolved to the same mode.
  /// Block-partial accumulators of the canonical block fold: one block's
  /// worth when folding serially, one stripe per block when shards fill
  /// them concurrently (CalibrationStore).
  std::vector<double> BlockGreaterEq;
  std::vector<double> BlockTotal;
  std::vector<double> BlockCounts;
  /// Counters of the last cluster-pruned selection (all zero whenever the
  /// exact flat scan served it instead).
  PrunedScanStats Pruned;
  /// Working state of the pruned scan's ClusterIndex::prunedWalk(),
  /// recycled like the rest of the scratch: one source per indexed shard,
  /// the concatenated query-centroid distances of every shard index (when
  /// no prepared batch supplies them), the walk's (centroid distSq,
  /// (source << 32) | list) ranking pairs, and the kernel output staging
  /// area of the exact and list scans.
  std::vector<support::PrunedWalkSource> WalkSources;
  std::vector<double> CentroidDists;
  std::vector<std::pair<double, uint64_t>> ListOrder;
  std::vector<double> RowScratch;
};

/// How many of \p N calibration entries the Sec. 5.1.2 policy selects
/// (everything below Cfg.SelectAllBelow, else the SelectFraction rounded
/// share, at least 1). Exposed so the sharded store's pruned scan can size
/// its k-NN bound exactly like finishSelection() will.
size_t selectionKeepCount(size_t N, const PromConfig &Cfg);

/// Precomputed calibration scores plus the adaptive selection machinery.
/// Label-agnostic: classification uses true class labels, regression uses
/// k-means pseudo-labels.
class CalibrationScores {
public:
  void clear() {
    Entries.clear();
    MedianNNDist = 0.0;
    Embeds.clear();
    Labels.clear();
    ScoreColumns.clear();
    MaxLabel = -1;
    IndexedCount = 0;
  }
  void reserve(size_t N) { Entries.reserve(N); }
  void add(CalibrationEntry Entry) { Entries.push_back(std::move(Entry)); }

  /// Computes the distance scale of the calibration set (median nearest-
  /// neighbour distance over a bounded sample of entries) and builds the
  /// batch-engine indexes: a contiguous (N x dim) embedding block, labels
  /// and per-expert score columns (the store shards build their sorted-
  /// score indexes from these). Called once after all entries are added;
  /// required for PromConfig::AutoTau.
  void finalize();

  /// Entries covered by the finalize()/refinalize()-built indexes.
  /// Entries add()ed beyond this count are *staged*: invisible to the
  /// store's engine entry points until the next refinalize().
  size_t indexedCount() const { return IndexedCount; }

  /// Incremental finalize for the online-refresh path: evicts the
  /// \p Evict oldest entries, then folds every staged appended entry into
  /// the existing indexes — appended embedding rows / labels / score
  /// columns, and a median-NN-distance recompute only when the bounded
  /// sample window finalize() measures actually changed (eviction shifted
  /// it, or fewer than its 256 entries were indexed).
  ///
  /// Post-state contract: bit-identical to clearing and re-running
  /// finalize() on the surviving entries in order — every index value,
  /// the distance scale, and therefore every verdict (test-enforced by
  /// RefreshTest). Returns false when a degenerate eviction (>= the
  /// indexed prefix) forced that full rebuild instead of the incremental
  /// patch.
  bool refinalize(size_t Evict);

  /// Erases the \p Count oldest entries *without* touching the indexes —
  /// the staging step of the from-scratch reference rebuild, which calls
  /// finalize() right after. (refinalize() is the index-preserving path.)
  void dropOldest(size_t Count);

  /// Folds the scores of entries [\p Begin, \p End) of expert \p Expert
  /// into the ascending per-label index \p SortedScores (one bucket per
  /// label, already sized to cover every label in the range): sort the
  /// new scores per label, then merge each run in place. The resulting
  /// ascending multiset is exactly what a full re-sort of the union
  /// produces — the one insert step of the CalibrationStore shards'
  /// sorted indexes (block-aligned extension and eviction slide alike).
  void mergeScoresIntoIndex(size_t Expert, size_t Begin, size_t End,
                            std::vector<std::vector<double>> &SortedScores)
      const;

  /// The inverse of mergeScoresIntoIndex(): subtracts the scores of
  /// entries [\p Begin, \p End) of expert \p Expert from \p SortedScores
  /// as sorted multisets — one linear in-place pass per label bucket, so
  /// the bucket keeps its capacity and stays ascending. Every removed
  /// score must be present. The CalibrationStore's eviction slide removes
  /// every shard's departing scores through this one step.
  void removeScoresFromIndex(size_t Expert, size_t Begin, size_t End,
                             std::vector<std::vector<double>> &SortedScores)
      const;

  /// Median nearest-neighbour distance (0 before finalize()).
  double medianNNDist() const { return MedianNNDist; }

  size_t size() const { return Entries.size(); }
  bool empty() const { return Entries.empty(); }
  const CalibrationEntry &entry(size_t I) const { return Entries[I]; }

  /// Number of experts scored per entry (0 when empty).
  size_t numExperts() const {
    return Entries.empty() ? 0 : Entries.front().Scores.size();
  }

  /// Estimated heap footprint: the per-entry vectors plus the embedding
  /// block, labels and score columns. O(entries) walk; the fleet registry
  /// meters tenants with it when deciding LRU eviction, so it only needs
  /// to be proportional, not allocator-exact.
  size_t memoryBytes() const;

  /// Adaptive subset selection for \p TestEmbed (Sec. 5.1.2): sorts entries
  /// by Euclidean distance, keeps the closest Cfg.SelectFraction (all when
  /// the set is smaller than Cfg.SelectAllBelow), and attaches Eq. (1)
  /// weights (1.0 when weighting is disabled).
  CalibrationSelection select(const std::vector<double> &TestEmbed,
                              const PromConfig &Cfg) const;

  /// Class-conditional p-values (Eq. 2) for every label in [0, NumLabels):
  /// the serial oracle. It counts with the canonical block fold only, so
  /// it checks the store engine's binary-search counts.
  ///
  /// For label c: p_c = #{ i in Sel : y_i = c and w_i * a_i^(s) >=
  /// TestScores[c] } / #{ i in Sel : y_i = c }, with +1 smoothing on both
  /// counts when Cfg.SmoothedPValues. Labels with no selected calibration
  /// sample get p = 0 (no conformity evidence).
  ///
  /// \param Sel the selection from select().
  /// \param Expert which nonconformity function's stored scores to use.
  /// \param TestScores the test sample's nonconformity score per label.
  /// \param DiscreteScores true when the expert's scores are tie-heavy
  ///        (e.g. TopK ranks); the ScoreScaling mode then falls back to
  ///        weighted counting, since any multiplicative shrink flips every
  ///        exact tie against the test sample.
  std::vector<double> pValues(const CalibrationSelection &Sel, size_t Expert,
                              const std::vector<double> &TestScores,
                              const PromConfig &Cfg,
                              bool DiscreteScores = false) const;

  //===--------------------------------------------------------------------===//
  // Batched assessment engine steps
  //
  // CalibrationStore's engine is built from the steps below: the same
  // selection and Eq. (2) p-values as select()/pValues(), bit-identically,
  // but without the closest-first ordering contract, which lets it replace
  // the full distance sort with an O(N) partition, defer square roots to
  // the selected subset, and score every expert in a single pass over the
  // calibration entries. Weighted sums accumulate block by block in
  // ascending entry-index order (see CalibrationAccumBlock), so the result
  // is independent of how the selection was produced and of how the store
  // partitions the work.
  //===--------------------------------------------------------------------===//

  /// Embedding dimensionality of the calibration entries.
  size_t embedDim() const { return Embeds.dim(); }

  /// The contiguous row-major embedding block the distance scans stream
  /// (built by finalize()); exposed for the benches and property tests.
  const support::FeatureMatrix &embedMatrix() const { return Embeds; }

  /// Number of canonical accumulation blocks covering the entries.
  size_t numAccumBlocks() const {
    return (Entries.size() + CalibrationAccumBlock - 1) /
           CalibrationAccumBlock;
  }

  /// Label of entry \p I (contiguous index built by finalize()).
  int label(size_t I) const { return Labels[I]; }

  /// Largest label present (-1 when empty).
  int maxLabel() const { return MaxLabel; }

  /// Contiguous per-expert score column (length size()).
  const std::vector<double> &scoreColumn(size_t Expert) const {
    return ScoreColumns[Expert];
  }

  /// Squared-distance keys of entries [Begin, End) against \p TestEmbed,
  /// written into Scratch.Keyed (which must already have size() slots).
  /// Per-entry independent, so disjoint ranges can be filled concurrently;
  /// the values are identical regardless of the partitioning.
  void computeDistanceKeys(const double *TestEmbed,
                           AssessmentScratch &Scratch, size_t Begin,
                           size_t End) const;

  /// The exact selection's partition + bitmap + Eq. (1) weight steps, run on
  /// the computeDistanceKeys() keys; set and weights match select()'s.
  void finishSelection(const PromConfig &Cfg,
                       AssessmentScratch &Scratch) const;

  /// finishSelection() for a cluster-pruned candidate list: Scratch.Keyed
  /// holds keep <= M < 2 keep (squared distance, entry id) pairs that
  /// provably contain the keep nearest entries (CalibrationStore's pruned
  /// scan, see support/ClusterIndex.h). Partitions the candidates and
  /// applies the identical bitmap + Eq. (1) weight steps, so the resulting
  /// selection state is bit-identical to a full-scan finishSelection() —
  /// the pruned candidates' k smallest pairs are the global k smallest.
  void finishSelectionPruned(const PromConfig &Cfg,
                             AssessmentScratch &Scratch) const;

  /// Resolves every expert's effective weight mode and score column into
  /// \p Scratch (Modes / Columns / UniformModes).
  void resolveExpertModes(const PromConfig &Cfg, const uint8_t *DiscreteFlags,
                          AssessmentScratch &Scratch) const;

  /// Accumulates the general-path Eq. (2) partial sums of entries
  /// [Begin, End) into the caller-zeroed \p GreaterEq / \p Total (both
  /// numExperts() x NumLabels) and \p Counts (NumLabels) buffers, using the
  /// selection bitmap/weights and resolved modes in \p Scratch. Visits only
  /// the selected entries, in ascending entry order. This is the canonical
  /// per-block accumulation every p-value path folds from.
  void accumulateGeneralBlock(const AssessmentScratch &Scratch,
                              const double *TestScores, size_t NumLabels,
                              size_t Begin, size_t End, double *GreaterEq,
                              double *Total, double *Counts) const;

  /// Shared final step of Eq. (2): p-values from the accumulated counts.
  void finishPValues(const double *GreaterEq, const double *Total,
                     const double *Counts, size_t NumLabels,
                     const PromConfig &Cfg, double *POut) const;

private:
  /// Shared tail of finishSelection()/finishSelectionPruned(): the
  /// selected-entry bitmap and Eq. (1) weights from the first Scratch.Keep
  /// slots of Scratch.Keyed. Every step is order-independent over those
  /// slots, so both callers land on identical bits.
  void applySelectionWeights(const PromConfig &Cfg,
                             AssessmentScratch &Scratch) const;

  /// Rebuilds the contiguous batch-engine indexes from Entries.
  void buildBatchIndexes();

  /// The finalize() distance-scale measurement (median nearest-neighbour
  /// distance over the first min(N, 256) entries), shared verbatim with
  /// refinalize() so both paths land on identical bits.
  void computeMedianNNDist();

  /// Removes the first \p Evict entries from every index in place:
  /// prefix erase of the positional arrays, MaxLabel recompute.
  void evictFromIndexes(size_t Evict);

  /// Appends entries [\p From, size()) to the indexes.
  void appendToIndexes(size_t From);

  std::vector<CalibrationEntry> Entries;
  double MedianNNDist = 0.0;
  size_t IndexedCount = 0; ///< Entries covered by the indexes below.

  // Batch-engine indexes (rebuilt by finalize()).
  /// N x Dim flat embedding block (padded stride) the kernel scans stream.
  support::FeatureMatrix Embeds;
  std::vector<int> Labels;         ///< Entry labels, contiguous.
  /// ScoreColumns[E][I] = Entries[I].Scores[E] (contiguous per expert).
  std::vector<std::vector<double>> ScoreColumns;
  int MaxLabel = -1;
};

/// Gaussian confidence of a prediction-set size (Sec. 5.3):
/// exp(-(Size-1)^2 / (2 c^2)). Size 1 gives 1.0; empty or ambiguous sets
/// give lower confidence.
double confidenceFromSetSize(size_t Size, double C);

} // namespace prom

#endif // PROM_CORE_CALIBRATION_H
