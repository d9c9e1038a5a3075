//===- support/KMeans.h - K-means++ and the gap statistic ------*- C++ -*-===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// K-means++ clustering and the Tibshirani gap statistic.
///
/// One k-means serves two callers. ClusterIndex uses kMeansMatrix() as
/// its coarse quantizer, on a stride-sample with a few Lloyd iterations.
/// PromRegressor uses it to cluster the calibration embeddings into
/// pseudo-labels (paper Sec. 5.1.2), on every row with up to 50 Lloyd
/// iterations; its cluster count K comes from the gap statistic over
/// K in [2, 20], which runs the same k-means.
///
//===----------------------------------------------------------------------===//

#ifndef PROM_SUPPORT_KMEANS_H
#define PROM_SUPPORT_KMEANS_H

#include "support/FeatureMatrix.h"

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace prom {
namespace support {

class Rng;

/// Result of a kMeansMatrix() run over FeatureMatrix rows.
struct KMeansMatrixResult {
  /// K x dim centroid block (kernel-scannable, padded stride).
  FeatureMatrix Centroids;
  /// Assignments[I] = centroid of input row Begin + I.
  std::vector<uint32_t> Assignments;
  /// AssignDistSq[I] = kernel squared distance of row Begin + I to its
  /// centroid (the exact l2Sq1xN bits, reusable as list radii).
  std::vector<double> AssignDistSq;
  /// Sum of AssignDistSq in ascending row order.
  double Inertia = 0.0;
};

/// K-means over rows [\p Begin, \p End) of \p Rows: k-means++ seeding and
/// Lloyd iterations on a deterministic stride-sample of at most
/// \p SampleCap rows, then one exact assignment pass over every row. With
/// \p SampleCap >= the row count the sample is every row in order.
///
/// Deterministic for a fixed \p R seed *across thread counts*: the
/// assignment scans are per-row independent kernel folds (fanned out over
/// the global ThreadPool), all reductions (centroid sums, inertia) run
/// serially in ascending row order, every nearest-centroid tie breaks
/// toward the lower centroid index, and empty clusters reseed to the
/// farthest unclaimed sample row (ties toward the lower row index).
/// ClusterIndex builds on this as its coarse quantizer, gapStatisticK and
/// PromRegressor as the pseudo-label clustering, and the pinned regression
/// test in ClusterIndexTest compares the parallel run against a serial
/// in-test reference bit for bit.
///
/// \param Rows feature block to cluster (dim() > 0).
/// \param Begin first row of the clustered range.
/// \param End one past the last row; End - Begin >= 1.
/// \param K desired centroid count; clamped to the row count.
/// \param R randomness for the k-means++ seeding.
/// \param MaxIters Lloyd iteration cap on the sample.
/// \param SampleCap Lloyd runs on at most this many stride-sampled rows.
KMeansMatrixResult kMeansMatrix(const FeatureMatrix &Rows, size_t Begin,
                                size_t End, size_t K, Rng &R,
                                size_t MaxIters = 8, size_t SampleCap = 16384);

/// Index of the nearest row of \p Cent to \p Row (Cent.dim() values)
/// plus its kernel squared distance: the argmin of one l2Sq1xN scan, ties
/// toward the lower centroid index. \p DistBuf must have Cent.rows()
/// slots; \p Cent must be non-empty. kMeansMatrix assigns rows with it and
/// PromRegressor maps test embeddings to pseudo-labels with it.
std::pair<size_t, double> nearestCentroidRow(const FeatureMatrix &Cent,
                                             const double *Row,
                                             double *DistBuf);

/// Chooses a cluster count via the gap statistic (Tibshirani et al. 2001).
///
/// Compares log within-cluster dispersion on the rows of \p Points against
/// the expected dispersion under \p NumRefs uniform reference datasets
/// drawn over the bounding box of the data, for K in [MinK, MaxK]; every
/// dispersion is the inertia of a full kMeansMatrix() run (50 Lloyd
/// iterations, no sampling). Returns the first K satisfying the standard
/// "Gap(K) >= Gap(K+1) - s(K+1)" rule, falling back to the K with the
/// largest gap. Returns 1 for fewer than two rows.
size_t gapStatisticK(const FeatureMatrix &Points, Rng &R, size_t MinK = 2,
                     size_t MaxK = 20, size_t NumRefs = 5);

} // namespace support
} // namespace prom

#endif // PROM_SUPPORT_KMEANS_H
