//===- ml/Knn.cpp - k-nearest-neighbour models ------------------------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ml/Knn.h"
#include "support/Distance.h"
#include "support/Kernels.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace prom;
using namespace prom::ml;

/// Seed of the optional training-block cluster indexes: fixed, so an
/// indexed model is deterministic run to run (losslessness makes the
/// value irrelevant to predictions — it only shapes the pruning).
static constexpr uint64_t KnnIndexSeed = 0xA24BAED4963EE407ull;

void KnnClassifier::fit(const data::Dataset &Train, support::Rng &) {
  assert(!Train.empty() && Train.numClasses() > 1 && "bad training set");
  Classes = Train.numClasses();
  Points = support::FeatureMatrix::fromRows(Train.featureRows());
  Index.clear();
  Labels.clear();
  Labels.reserve(Train.size());
  for (const data::Sample &S : Train.samples())
    Labels.push_back(S.Label);
  if (AutoIndexMinPoints != 0 && Points.rows() >= AutoIndexMinPoints)
    buildClusterIndex(AutoIndexCentroids);
}

void KnnClassifier::buildClusterIndex(size_t NumCentroids) {
  assert(!Points.empty() && "indexing an unfitted classifier");
  Index.build(Points, 0, Points.rows(), NumCentroids, KnnIndexSeed);
}

/// The K nearest rows of one query's squared-distance scan as (distSq,
/// row id) pairs in selectNearest()'s order — the very pairs, in the very
/// order, ClusterIndex::nearestPrunedBatch returns for the same query.
static std::vector<std::pair<double, uint32_t>>
nearestPairs(const double *DistSq, size_t N, size_t K) {
  std::vector<size_t> Near = support::selectNearest(DistSq, N, K);
  std::vector<std::pair<double, uint32_t>> Pairs;
  Pairs.reserve(Near.size());
  for (size_t Idx : Near)
    Pairs.push_back({DistSq[Idx], static_cast<uint32_t>(Idx)});
  return Pairs;
}

void KnnClassifier::voteFromPairs(
    const std::vector<std::pair<double, uint32_t>> &Near, double *Out) const {
  std::fill(Out, Out + static_cast<size_t>(Classes), 0.0);
  // sqrt of the scanned squared distance == support::euclidean on the
  // same pair: one kernel fold feeds both the selection and the weight.
  for (const std::pair<double, uint32_t> &P : Near)
    Out[static_cast<size_t>(Labels[P.second])] +=
        1.0 / (1.0 + std::sqrt(P.first));
  double Total = 0.0;
  for (int C = 0; C < Classes; ++C)
    Total += Out[C];
  if (Total <= 0.0) {
    std::fill(Out, Out + static_cast<size_t>(Classes),
              1.0 / static_cast<double>(Classes));
    return;
  }
  for (int C = 0; C < Classes; ++C)
    Out[C] /= Total;
}

std::vector<double> KnnClassifier::predictProba(const data::Sample &S) const {
  assert(!Points.empty() && "classifier not fitted");
  std::vector<double> DistSq(Points.rows());
  support::kernels::l2Sq1xN(S.Features.data(), Points.data(), Points.rows(),
                            Points.dim(), Points.stride(), DistSq.data());
  std::vector<double> Votes(static_cast<size_t>(Classes), 0.0);
  voteFromPairs(nearestPairs(DistSq.data(), Points.rows(), K), Votes.data());
  return Votes;
}

support::Matrix
KnnClassifier::predictProbaBatch(const data::Dataset &Batch) const {
  assert(!Points.empty() && "classifier not fitted");
  support::Matrix Out(Batch.size(), static_cast<size_t>(Classes));
  if (Batch.empty())
    return Out;
  if (Index.valid()) {
    // Batch-native pruned scan: the exact scan's pairs, with the centroid
    // ranking amortized over the batch.
    std::vector<std::vector<std::pair<double, uint32_t>>> Near =
        Index.nearestPrunedBatch(Batch.featureBlock(), K);
    for (size_t Q = 0; Q < Near.size(); ++Q)
      voteFromPairs(Near[Q], Out.rowPtr(Q));
    return Out;
  }
  support::forEachQueryScan(
      Points, Batch.featureBlock(), [&](size_t Q, const double *DistSq) {
        voteFromPairs(nearestPairs(DistSq, Points.rows(), K), Out.rowPtr(Q));
      });
  return Out;
}

support::Matrix KnnClassifier::embedBatch(const data::Dataset &Batch) const {
  return Batch.featureMatrix();
}

void KnnRegressor::fit(const data::Dataset &Train, support::Rng &) {
  assert(!Train.empty() && "bad training set");
  Points = support::FeatureMatrix::fromRows(Train.featureRows());
  Index.clear();
  Targets.clear();
  Targets.reserve(Train.size());
  for (const data::Sample &S : Train.samples())
    Targets.push_back(S.Target);
  if (AutoIndexMinPoints != 0 && Points.rows() >= AutoIndexMinPoints)
    buildClusterIndex(AutoIndexCentroids);
}

void KnnRegressor::buildClusterIndex(size_t NumCentroids) {
  assert(!Points.empty() && "indexing an unfitted regressor");
  Index.build(Points, 0, Points.rows(), NumCentroids, KnnIndexSeed);
}

/// Row id of one neighbour, in either form a selection returns it.
static size_t neighbourId(size_t Id) { return Id; }
static size_t neighbourId(const std::pair<double, uint32_t> &P) {
  return P.second;
}

/// Mean of the neighbours' targets, folded in neighbour order. The exact
/// and pruned selections return the same ids in the same order, so every
/// predict path lands on the same bits.
template <typename Neighbour>
static double meanTarget(const std::vector<double> &Targets,
                         const std::vector<Neighbour> &Near) {
  double Sum = 0.0;
  for (const Neighbour &N : Near)
    Sum += Targets[neighbourId(N)];
  return Sum / static_cast<double>(Near.size());
}

double KnnRegressor::predict(const data::Sample &S) const {
  assert(!Points.empty() && "regressor not fitted");
  return meanTarget(Targets, support::kNearest(Points, S.Features.data(), K));
}

std::vector<double>
KnnRegressor::predictBatch(const data::Dataset &Batch) const {
  assert(!Points.empty() && "regressor not fitted");
  std::vector<double> Out(Batch.size());
  if (Batch.empty())
    return Out;
  if (Index.valid()) {
    std::vector<std::vector<std::pair<double, uint32_t>>> Near =
        Index.nearestPrunedBatch(Batch.featureBlock(), K);
    for (size_t I = 0; I < Batch.size(); ++I)
      Out[I] = meanTarget(Targets, Near[I]);
    return Out;
  }
  std::vector<std::vector<size_t>> Near =
      support::kNearestBatch(Points, Batch.featureBlock(), K);
  for (size_t I = 0; I < Batch.size(); ++I)
    Out[I] = meanTarget(Targets, Near[I]);
  return Out;
}

support::Matrix KnnRegressor::embedBatch(const data::Dataset &Batch) const {
  return Batch.featureMatrix();
}
