//===- support/ClusterIndex.h - Lossless cluster-pruned k-NN -----*- C++ -*-===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A coarse-quantized, triangle-inequality-pruned index over FeatureMatrix
/// rows that makes exact nearest-neighbour scans sublinear at large row
/// counts — without changing a single output bit.
///
/// Structure: kMeansMatrix() quantizes the covered rows into K coarse
/// centroids; the members of each centroid form an inverted list whose
/// embedding rows are copied into one grouped FeatureMatrix block (so a
/// surviving list is scanned with the same contiguous l2Sq1xN kernel call
/// the flat scan uses), alongside the original row ids and the list radius
/// r_max(c) = max member-to-centroid distance.
///
/// Query protocol: one walk, ClusterIndex::prunedWalk(), serves every
/// caller — nearestPruned(), nearestPrunedBatch() and CalibrationStore's
/// pruned selection (which walks several shard indexes at once and seeds
/// the candidates with the rows no index covers). It ranks the lists by
/// query-to-centroid distance, maintains the current k-th-nearest
/// candidate bound, and skips every list whose lower bound
///
///     |q - c| - r_max(c)   <=   |q - x|   for every member x   (triangle)
///
/// provably exceeds the bound. Only surviving lists are scanned — with the
/// exact kernels — and of their rows only those not keyed past the bound
/// join the candidates, which are cut back to the k smallest when they
/// first reach k and whenever they reach 2k. So the walk ends with fewer
/// than 2k candidates, its partition work follows k rather than the
/// scanned rows, the candidate set always contains every true k-NN, and
/// the final selection is bit-identical to the full scan under the
/// (distance, index) tie-break total order.
///
/// Losslessness argument, in full:
///  * The bound is the k-th smallest candidate key. Candidates are a
///    subset of the rows, so it is >= the global k-th smallest key.
///  * A list is pruned only when its *safe* lower bound strictly exceeds
///    the bound. Every pruned member therefore has a squared distance
///    strictly greater than the global k-th key, so it cannot displace any
///    selected pair — not even on ties, which compare equal on the key and
///    are never pruned (strict inequality).
///  * A scanned row is dropped only when its key strictly exceeds the
///    bound, and a cut drops only pairs ordered after the current k-th
///    candidate pair. Either way the dropped pair orders after the current
///    k-th pair, which is at or after the final k-th pair, so it is not
///    selected. Keys equal to the bound (which may carry a lower id) and
///    NaN keys (which compare false) are kept, as with no bound at all.
///  * The scanned distances are computed by the same kernels on copies of
///    the same rows: a kernel fold depends only on the row values and
///    dim(), both preserved by the copy, so every surviving candidate
///    carries exactly the bits the flat scan would have produced.
///  * The bound arithmetic runs in floating point, so every quantity is
///    slackened in the safe direction by PruneSlack (see below) before it
///    is allowed to prune; the slack dominates the kernels' relative
///    rounding error by orders of magnitude at every supported dim.
///
//===----------------------------------------------------------------------===//

#ifndef PROM_SUPPORT_CLUSTERINDEX_H
#define PROM_SUPPORT_CLUSTERINDEX_H

#include "support/FeatureMatrix.h"

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace prom {
namespace support {

/// Relative safety margin of the pruning bounds.
///
/// The lane-folded l2Sq kernels carry a relative error of at most about
/// (dim + 2) * u with u = 2^-53 ~ 1.1e-16 (a standard dot-product bound),
/// and each sqrt adds half an ulp. 4e-9 dominates that chain for every
/// dim up to ~10^7, so shrinking lower bounds and growing radii by this
/// factor makes "provably exceeds" robust: a list is pruned only when no
/// rounding of the exact arithmetic could have let a member survive.
constexpr double PruneSlack = 4e-9;

/// Counters of one pruned walk (see ClusterIndex::prunedWalk()), for
/// benches and tests. Rows the caller seeded the walk with count as both
/// ranged over and scanned.
struct ClusterScanStats {
  size_t ListsTotal = 0;   ///< Lists of every walked index.
  size_t ListsScanned = 0; ///< Lists that survived the bound test.
  size_t RowsTotal = 0;    ///< Seeded rows plus the rows the indexes cover.
  size_t RowsScanned = 0;  ///< Seeded rows plus the surviving lists' rows.

  /// Merges another query's counters in. Pure integer sums, so any merge
  /// order yields the same totals — batch callers still fold in canonical
  /// ascending-query order so the aggregate is reproducible by eye.
  ClusterScanStats &operator+=(const ClusterScanStats &O) {
    ListsTotal += O.ListsTotal;
    ListsScanned += O.ListsScanned;
    RowsTotal += O.RowsTotal;
    RowsScanned += O.RowsScanned;
    return *this;
  }
};

class ClusterIndex;

/// One index's share of a ClusterIndex::prunedWalk(): the index and the
/// query's kernel squared distances to its centroids (numLists() values).
struct PrunedWalkSource {
  const ClusterIndex *Index = nullptr;
  const double *CentroidDistSq = nullptr;
};

/// Coarse-quantized inverted-list index over a contiguous row range of a
/// FeatureMatrix; see the file comment for the losslessness contract.
class ClusterIndex {
public:
  /// Builds the index over rows [\p Begin, \p End) of \p Rows with
  /// \p NumCentroids coarse cells (0 picks ~sqrt(rows), clamped to
  /// [8, 4096]) seeded from \p Seed. Deterministic across thread counts
  /// (see kMeansMatrix). Replaces any previous contents.
  void build(const FeatureMatrix &Rows, size_t Begin, size_t End,
             size_t NumCentroids, uint64_t Seed);

  /// Drops the index and releases its storage (valid() becomes false).
  void clear();

  /// Follows an oldest-first eviction of \p Count rows from the source
  /// matrix without re-clustering: removes the grouped rows whose id is
  /// below \p Count (a prefix of each list, whose ids ascend), compacts the
  /// grouped block into exact-size storage (stable inside each list), and
  /// shifts the surviving ids and the covered range down by \p Count. The
  /// centroids and list radii stay: a radius over a subset of a list
  /// still bounds every survivor, so pruning stays lossless. Clears the
  /// index when no covered row survives.
  void evictOldest(size_t Count);

  /// True when build() ran and the index covers at least one row.
  bool valid() const { return !Centroids.empty(); }

  size_t beginRow() const { return BeginRow; } ///< First covered row.
  size_t endRow() const { return EndRow; }     ///< One past the last row.
  /// Covered row count.
  size_t coveredRows() const { return EndRow - BeginRow; }
  /// Number of inverted lists (== built centroid count).
  size_t numLists() const { return Centroids.rows(); }

  /// Heap bytes held by the index (centroid + grouped-row blocks and the
  /// list bookkeeping); feeds the fleet registry's memory budget.
  size_t memoryBytes() const {
    return Centroids.memoryBytes() + Rows.memoryBytes() +
           RowIds.capacity() * sizeof(uint32_t) +
           ListOffsets.capacity() * sizeof(size_t) +
           ListRMax.capacity() * sizeof(double);
  }

  /// The K x dim centroid block (kernel-scannable).
  const FeatureMatrix &centroids() const { return Centroids; }
  /// First grouped row of list \p L.
  size_t listBegin(size_t L) const { return ListOffsets[L]; }
  /// One past the last grouped row of list \p L.
  size_t listEnd(size_t L) const { return ListOffsets[L + 1]; }
  /// Original row id of grouped row \p GroupedRow.
  uint32_t rowId(size_t GroupedRow) const { return RowIds[GroupedRow]; }

  /// Writes the kernel squared distance of \p Query to every centroid into
  /// \p OutDistSq (numLists() slots).
  void centroidDistances(const double *Query, double *OutDistSq) const;

  /// Batched form: one blocked l2SqMxN pass writes the centroid distances
  /// of \p NumQueries query rows (stride \p QueryStride) into consecutive
  /// numLists()-slot rows of \p OutDistSq. Row Q is bit-identical to
  /// centroidDistances(query Q) — the MxN kernel's per-row contract — so
  /// batch callers can amortize the centroid ranking without perturbing
  /// a single pruning decision.
  void centroidDistancesBatch(const double *Queries, size_t NumQueries,
                              size_t QueryStride, double *OutDistSq) const;

  /// Safe lower bound on the *kernel-computed* squared distance of \p Query
  /// to any member of list \p L, given the kernel squared distance
  /// \p CentroidDistSq of the query to that list's centroid. Slackened by
  /// PruneSlack in the safe direction; 0.0 (which never prunes under the
  /// strict comparison) whenever the radius reaches past the query.
  double listLowerBoundSq(double CentroidDistSq, size_t L) const;

  /// The bound-pruned walk behind every pruned query. Ranks the lists of
  /// the \p NumSources indexes by (centroid distance, (source << 32) |
  /// list), tightens the \p K-th smallest candidate key — first over the
  /// (distSq, row id) pairs \p Cand already holds, which the caller
  /// scanned exactly — and kernel-scans every list whose lower bound does
  /// not strictly exceed it, appending the rows whose key does not
  /// strictly exceed it either. Each tightening cuts \p Cand back to its
  /// K smallest pairs; it runs once \p Cand first reaches K and then
  /// whenever it reaches 2K. Afterwards \p Cand holds between K and
  /// 2K - 1 pairs (all of them when the seed and the covered rows number
  /// fewer than K), unordered, and provably contains the K smallest pairs
  /// of the seed and the covered rows. The source indexes must cover
  /// disjoint rows outside the seed. \p ListOrder and \p RowDistSq are
  /// caller-owned working buffers, so a recycled caller allocates nothing
  /// per query. \p Stats is overwritten on every call, K == 0 included
  /// (nothing is scanned and \p Cand is left as it is then).
  static void prunedWalk(const double *Query, const PrunedWalkSource *Sources,
                         size_t NumSources, size_t K,
                         std::vector<std::pair<double, uint32_t>> &Cand,
                         std::vector<std::pair<double, uint64_t>> &ListOrder,
                         std::vector<double> &RowDistSq,
                         ClusterScanStats &Stats);

  /// Exact k-nearest rows of the covered range: the \p K smallest
  /// (kernel squared distance, original row id) pairs in ascending pair
  /// order — bit-identical, pair for pair, to a full l2Sq1xN scan followed
  /// by selectNearest(). Fewer than \p K pairs when the index covers fewer
  /// rows. \p Stats, when non-null, receives the pruning counters. The
  /// prunedWalk() of this one index with an empty seed.
  std::vector<std::pair<double, uint32_t>>
  nearestPruned(const double *Query, size_t K,
                ClusterScanStats *Stats = nullptr) const;

  /// Batch-native pruned k-NN: element Q is bit-identical — pair for pair,
  /// and counter for counter in \p Stats — to nearestPruned(row Q of
  /// \p Queries, K). The batch amortizes what the per-query loop repays
  /// every call: the centroid distances of a whole query tile come from
  /// one blocked l2SqMxN pass, and the per-query pruned walks (which are
  /// independent — each query's bound tightens only on its own
  /// candidates) fan out over the ThreadPool in deterministic chunks,
  /// each lane writing only its own queries' slots. \p Stats, when
  /// non-null, is resized to the batch and carries each query's counters
  /// in ascending query order. \p Queries.dim() must match the index.
  std::vector<std::vector<std::pair<double, uint32_t>>>
  nearestPrunedBatch(const FeatureMatrix &Queries, size_t K,
                     std::vector<ClusterScanStats> *Stats = nullptr) const;

private:
  size_t BeginRow = 0;
  size_t EndRow = 0;
  /// K x dim coarse centroids.
  FeatureMatrix Centroids;
  /// Member embeddings grouped by list (list L occupies rows
  /// [listBegin(L), listEnd(L))), copied from the source rows.
  FeatureMatrix Rows;
  /// Original row id per grouped row.
  std::vector<uint32_t> RowIds;
  /// Prefix offsets into Rows/RowIds, numLists() + 1 entries.
  std::vector<size_t> ListOffsets;
  /// Per-list radius: sqrt(max member AssignDistSq) * (1 + PruneSlack).
  std::vector<double> ListRMax;
};

} // namespace support
} // namespace prom

#endif // PROM_SUPPORT_CLUSTERINDEX_H
