//===- support/ClusterIndex.cpp - Lossless cluster-pruned k-NN --------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ClusterIndex.h"
#include "support/KMeans.h"
#include "support/Kernels.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

/// Query-tile height of nearestPrunedBatch: bounds the materialized
/// query-to-centroid block to this many rows regardless of batch size
/// (matching the KnnQueryTile convention of the exact batched scans).
/// Per-query work is independent, so tiling cannot change any result.
static constexpr size_t ClusterQueryTile = 256;

using namespace prom::support;

/// Default coarse cell count for \p N rows: ~sqrt(N) in [8, 4096] — the
/// standard IVF balance point where centroid ranking and list scanning
/// cost about the same.
static size_t autoCentroids(size_t N) {
  size_t K = static_cast<size_t>(std::sqrt(static_cast<double>(N)) + 0.5);
  return std::max<size_t>(8, std::min<size_t>(K, 4096));
}

void ClusterIndex::clear() { *this = ClusterIndex(); }

void ClusterIndex::evictOldest(size_t Count) {
  if (Count == 0 || !valid())
    return;
  if (EndRow <= Count) {
    clear();
    return;
  }
  if (BeginRow < Count) {
    // Ids ascend inside each list, so a list's evicted members form its
    // prefix: one binary search and one block copy per list.
    size_t Stride = Rows.stride();
    FeatureMatrix KeptRows(EndRow - Count, Rows.dim());
    std::vector<uint32_t> KeptIds(EndRow - Count);
    size_t W = 0;
    for (size_t L = 0; L < numLists(); ++L) {
      size_t LE = ListOffsets[L + 1];
      size_t First = static_cast<size_t>(
          std::lower_bound(RowIds.begin() + static_cast<long>(ListOffsets[L]),
                           RowIds.begin() + static_cast<long>(LE),
                           static_cast<uint32_t>(Count)) -
          RowIds.begin());
      ListOffsets[L] = W;
      if (First == LE)
        continue;
      std::copy(Rows.rowPtr(First), Rows.rowPtr(First) + (LE - First) * Stride,
                KeptRows.rowPtr(W));
      std::copy(RowIds.begin() + static_cast<long>(First),
                RowIds.begin() + static_cast<long>(LE), KeptIds.begin() + W);
      W += LE - First;
    }
    assert(W == KeptIds.size() && "evicted rows outside the covered range");
    ListOffsets[numLists()] = W;
    Rows = std::move(KeptRows);
    RowIds = std::move(KeptIds);
  }
  for (uint32_t &Id : RowIds)
    Id -= static_cast<uint32_t>(Count);
  BeginRow = BeginRow > Count ? BeginRow - Count : 0;
  EndRow -= Count;
}

void ClusterIndex::build(const FeatureMatrix &Source, size_t Begin,
                         size_t End, size_t NumCentroids, uint64_t Seed) {
  clear();
  assert(End <= Source.rows() && Begin <= End && "bad covered range");
  if (Begin == End || Source.dim() == 0)
    return;
  size_t N = End - Begin;
  size_t K = NumCentroids == 0 ? autoCentroids(N) : NumCentroids;
  K = std::min(K, N);

  Rng R(Seed);
  KMeansMatrixResult Q = kMeansMatrix(Source, Begin, End, K, R);
  K = Q.Centroids.rows();

  BeginRow = Begin;
  EndRow = End;
  Centroids = std::move(Q.Centroids);

  // Counting sort of the members into grouped lists, ascending row id
  // inside each list (stable by construction).
  std::vector<size_t> Counts(K, 0);
  for (uint32_t A : Q.Assignments)
    ++Counts[A];
  ListOffsets.assign(K + 1, 0);
  for (size_t C = 0; C < K; ++C)
    ListOffsets[C + 1] = ListOffsets[C] + Counts[C];

  Rows.reset(N, Source.dim());
  RowIds.assign(N, 0);
  ListRMax.assign(K, 0.0);
  std::vector<size_t> Write(ListOffsets.begin(), ListOffsets.end() - 1);
  std::vector<double> MaxDistSq(K, 0.0);
  for (size_t I = 0; I < N; ++I) {
    size_t C = Q.Assignments[I];
    size_t Slot = Write[C]++;
    // The copy preserves every row value and dim(), so a kernel fold over
    // the grouped row produces the flat scan's bits exactly.
    Rows.setRow(Slot, Source.rowPtr(Begin + I));
    RowIds[Slot] = static_cast<uint32_t>(Begin + I);
    MaxDistSq[C] = std::max(MaxDistSq[C], Q.AssignDistSq[I]);
  }
  for (size_t C = 0; C < K; ++C)
    ListRMax[C] = std::sqrt(MaxDistSq[C]) * (1.0 + PruneSlack);
}

void ClusterIndex::centroidDistances(const double *Query,
                                     double *OutDistSq) const {
  assert(valid() && "querying an empty index");
  kernels::l2Sq1xN(Query, Centroids.data(), Centroids.rows(),
                   Centroids.dim(), Centroids.stride(), OutDistSq);
}

void ClusterIndex::centroidDistancesBatch(const double *Queries,
                                          size_t NumQueries,
                                          size_t QueryStride,
                                          double *OutDistSq) const {
  assert(valid() && "querying an empty index");
  // l2SqMxN's row Q is bit-identical to l2Sq1xN on query Q alone (the
  // kernel contract), so this block is exactly NumQueries stacked
  // centroidDistances() calls.
  kernels::l2SqMxN(Queries, NumQueries, QueryStride, Centroids.data(),
                   Centroids.rows(), Centroids.dim(), Centroids.stride(),
                   OutDistSq);
}

double ClusterIndex::listLowerBoundSq(double CentroidDistSq,
                                      size_t L) const {
  // Every quantity is slackened toward "do not prune": the query-centroid
  // distance shrinks, the radius already grew at build time, and the final
  // square shrinks once more. A non-positive gap yields 0.0, which the
  // caller's strict > comparison never prunes on.
  double Cd = std::sqrt(CentroidDistSq) * (1.0 - PruneSlack);
  double Gap = Cd - ListRMax[L];
  if (Gap <= 0.0)
    return 0.0;
  return Gap * Gap * (1.0 - PruneSlack);
}

void ClusterIndex::prunedWalk(
    const double *Query, const PrunedWalkSource *Sources, size_t NumSources,
    size_t K, std::vector<std::pair<double, uint32_t>> &Cand,
    std::vector<std::pair<double, uint64_t>> &ListOrder,
    std::vector<double> &RowDistSq, ClusterScanStats &Stats) {
  Stats = ClusterScanStats();
  Stats.RowsTotal = Stats.RowsScanned = Cand.size();
  ListOrder.clear();
  for (size_t I = 0; I < NumSources; ++I) {
    const ClusterIndex &Idx = *Sources[I].Index;
    assert(Idx.valid() && "walking an empty index");
    Stats.ListsTotal += Idx.numLists();
    Stats.RowsTotal += Idx.coveredRows();
    for (size_t L = 0; L < Idx.numLists(); ++L)
      ListOrder.push_back({Sources[I].CentroidDistSq[L],
                           (static_cast<uint64_t>(I) << 32) | L});
  }
  if (K == 0)
    return;
  // The scan order only affects how fast the bound tightens, never the
  // result.
  std::sort(ListOrder.begin(), ListOrder.end());

  // The bound is over *candidate* keys, hence >= the global k-th key. It
  // is set once the candidates first reach K (over the seed when that is
  // large enough, so exactly scanned rows can prune before any list is
  // visited) and tightens whenever they reach 2K. Each tightening keeps
  // the K smallest pairs and drops the rest: a dropped pair orders after
  // the current K-th pair, which is at or after the final one. Until a
  // bound exists it is +inf, which neither prunes nor drops.
  double BoundKey = std::numeric_limits<double>::infinity();
  size_t TightenAt = K;
  auto Tighten = [&] {
    std::nth_element(Cand.begin(), Cand.begin() + static_cast<long>(K - 1),
                     Cand.end());
    Cand.resize(K);
    BoundKey = Cand[K - 1].first;
    TightenAt = 2 * K;
  };
  if (Cand.size() >= TightenAt)
    Tighten();

  for (const std::pair<double, uint64_t> &Ranked : ListOrder) {
    const ClusterIndex &Idx = *Sources[Ranked.second >> 32].Index;
    size_t L = static_cast<size_t>(Ranked.second & 0xffffffffu);
    size_t LB = Idx.listBegin(L), LE = Idx.listEnd(L);
    if (LB == LE)
      continue;
    // Strict >: a member at exactly the bound key could still carry a
    // lower id than the current k-th pair, so ties are always scanned.
    if (Idx.listLowerBoundSq(Ranked.first, L) > BoundKey)
      continue;
    ++Stats.ListsScanned;
    Stats.RowsScanned += LE - LB;
    RowDistSq.resize(LE - LB);
    kernels::l2Sq1xN(Query, Idx.Rows.rowPtr(LB), LE - LB, Idx.Rows.dim(),
                     Idx.Rows.stride(), RowDistSq.data());
    // A row keyed past the bound orders after the K-th candidate pair and
    // cannot be selected. Written as !(>) so a key equal to the bound (it
    // may carry a lower id) and a NaN key are kept, as with no bound.
    for (size_t I = LB; I < LE; ++I)
      if (!(RowDistSq[I - LB] > BoundKey))
        Cand.push_back({RowDistSq[I - LB], Idx.RowIds[I]});
    if (Cand.size() >= TightenAt)
      Tighten();
  }
}

/// The k nearest covered rows of one query whose centroid distances are
/// \p CentDistSq: the walk over \p Index alone with an empty seed, its
/// candidates partial-sorted into selectNearest()'s order.
static std::vector<std::pair<double, uint32_t>>
nearestOfOne(const ClusterIndex &Index, const double *Query,
             const double *CentDistSq, size_t K,
             std::vector<std::pair<double, uint64_t>> &ListOrder,
             std::vector<double> &RowDistSq, ClusterScanStats *Stats) {
  K = std::min(K, Index.coveredRows());
  std::vector<std::pair<double, uint32_t>> Cand;
  Cand.reserve(2 * K + 64);
  ClusterScanStats S;
  PrunedWalkSource Source{&Index, CentDistSq};
  ClusterIndex::prunedWalk(Query, &Source, 1, K, Cand, ListOrder, RowDistSq,
                           S);
  std::partial_sort(Cand.begin(), Cand.begin() + static_cast<long>(K),
                    Cand.end());
  Cand.resize(K);
  if (Stats)
    *Stats = S;
  return Cand;
}

std::vector<std::pair<double, uint32_t>>
ClusterIndex::nearestPruned(const double *Query, size_t K,
                            ClusterScanStats *Stats) const {
  assert(valid() && "querying an empty index");
  std::vector<double> CentDistSq(numLists());
  centroidDistances(Query, CentDistSq.data());
  std::vector<std::pair<double, uint64_t>> ListOrder;
  std::vector<double> RowDistSq;
  return nearestOfOne(*this, Query, CentDistSq.data(), K, ListOrder,
                      RowDistSq, Stats);
}

std::vector<std::vector<std::pair<double, uint32_t>>>
ClusterIndex::nearestPrunedBatch(const FeatureMatrix &Queries, size_t K,
                                 std::vector<ClusterScanStats> *Stats) const {
  assert(valid() && "querying an empty index");
  assert((Queries.empty() || Queries.dim() == Centroids.dim()) &&
         "query/index dim mismatch");
  size_t NumQ = Queries.rows();
  std::vector<std::vector<std::pair<double, uint32_t>>> Out(NumQ);
  if (Stats)
    Stats->assign(NumQ, ClusterScanStats());
  if (NumQ == 0)
    return Out;

  size_t NumLists = numLists();
  std::vector<double> CentBlock(std::min(NumQ, ClusterQueryTile) * NumLists);
  for (size_t Q0 = 0; Q0 < NumQ; Q0 += ClusterQueryTile) {
    size_t Tile = std::min(ClusterQueryTile, NumQ - Q0);
    // One blocked pass ranks the whole tile against the centroids; each
    // block row carries the bits centroidDistances() would have produced.
    centroidDistancesBatch(Queries.rowPtr(Q0), Tile, Queries.stride(),
                           CentBlock.data());
    // Per-query walks are independent (each bound tightens only on its own
    // candidates) and every lane writes only its own queries' Out/Stats
    // slots, so the fan-out cannot change a bit at any thread count.
    ThreadPool::global().parallelFor(Tile, [&](size_t Begin, size_t End) {
      std::vector<std::pair<double, uint64_t>> ListOrder;
      std::vector<double> RowDistSq;
      for (size_t Q = Begin; Q < End; ++Q)
        Out[Q0 + Q] = nearestOfOne(
            *this, Queries.rowPtr(Q0 + Q), CentBlock.data() + Q * NumLists, K,
            ListOrder, RowDistSq, Stats ? Stats->data() + (Q0 + Q) : nullptr);
    });
  }
  return Out;
}
