//===- support/KMeans.cpp - K-means++ and the gap statistic --------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/KMeans.h"
#include "support/Kernels.h"
#include "support/Rng.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <limits>

using namespace prom::support;

std::pair<size_t, double>
prom::support::nearestCentroidRow(const FeatureMatrix &Cent, const double *Row,
                                  double *DistBuf) {
  assert(!Cent.empty() && "no centroids");
  kernels::l2Sq1xN(Row, Cent.data(), Cent.rows(), Cent.dim(), Cent.stride(),
                   DistBuf);
  size_t Best = 0;
  for (size_t C = 1; C < Cent.rows(); ++C)
    if (DistBuf[C] < DistBuf[Best])
      Best = C;
  return {Best, DistBuf[Best]};
}

KMeansMatrixResult prom::support::kMeansMatrix(const FeatureMatrix &Rows,
                                               size_t Begin, size_t End,
                                               size_t K, Rng &R,
                                               size_t MaxIters,
                                               size_t SampleCap) {
  assert(End > Begin && End <= Rows.rows() && "bad row range");
  assert(Rows.dim() > 0 && "clustering a shapeless matrix");
  size_t N = End - Begin;
  size_t Dim = Rows.dim();
  K = std::max<size_t>(1, std::min(K, N));

  // Deterministic stride-sample: row I of the sample is Begin + I * N / S.
  // The indices are strictly increasing (N >= SampleN), so the sample is a
  // fixed function of (N, SampleCap) — no Rng draw, no thread dependence.
  size_t SampleN = std::min(N, SampleCap);
  std::vector<size_t> Sample(SampleN);
  for (size_t I = 0; I < SampleN; ++I)
    Sample[I] = Begin + I * N / SampleN;

  KMeansMatrixResult Result;
  Result.Centroids.reset(K, Dim);
  FeatureMatrix &Cent = Result.Centroids;

  // k-means++ D^2 seeding on the sample (serial; consumes R).
  Cent.setRow(0, Rows.rowPtr(Sample[R.bounded(SampleN)]));
  {
    std::vector<double> MinDistSq(SampleN,
                                  std::numeric_limits<double>::max());
    for (size_t C = 1; C < K; ++C) {
      const double *Last = Cent.rowPtr(C - 1);
      for (size_t I = 0; I < SampleN; ++I)
        MinDistSq[I] = std::min(
            MinDistSq[I],
            kernels::l2Sq(Rows.rowPtr(Sample[I]), Last, Dim));
      Cent.setRow(C, Rows.rowPtr(Sample[R.weightedIndex(MinDistSq)]));
    }
  }

  // Lloyd on the sample. The parallel assignment is per-row independent
  // (identical bits to a serial scan); sums and reseeds run serially in
  // ascending row order, so the centroids are thread-count-invariant.
  std::vector<uint32_t> SampleAssign(SampleN, 0);
  std::vector<double> SampleDistSq(SampleN, 0.0);
  ThreadPool &Pool = ThreadPool::global();
  for (size_t Iter = 0; Iter < MaxIters; ++Iter) {
    // Atomic because every worker chunk may set it; relaxed is enough --
    // the flag only gates convergence, and parallelFor's completion wait
    // orders the stores before the read below.
    std::atomic<bool> Changed{false};
    Pool.parallelFor(SampleN, [&](size_t B, size_t E) {
      std::vector<double> DistBuf(K);
      for (size_t I = B; I < E; ++I) {
        std::pair<size_t, double> Best =
            nearestCentroidRow(Cent, Rows.rowPtr(Sample[I]), DistBuf.data());
        SampleDistSq[I] = Best.second;
        if (SampleAssign[I] != Best.first) {
          SampleAssign[I] = static_cast<uint32_t>(Best.first);
          Changed.store(true, std::memory_order_relaxed);
        }
      }
    });

    std::vector<double> Sums(K * Dim, 0.0);
    std::vector<size_t> Counts(K, 0);
    for (size_t I = 0; I < SampleN; ++I) {
      size_t C = SampleAssign[I];
      const double *Row = Rows.rowPtr(Sample[I]);
      double *Sum = Sums.data() + C * Dim;
      for (size_t D = 0; D < Dim; ++D)
        Sum[D] += Row[D];
      ++Counts[C];
    }
    for (size_t C = 0; C < K; ++C) {
      if (Counts[C] == 0)
        continue;
      double *Row = Cent.rowPtr(C);
      const double *Sum = Sums.data() + C * Dim;
      for (size_t D = 0; D < Dim; ++D)
        Row[D] = Sum[D] / static_cast<double>(Counts[C]);
    }

    // Empty-cluster reseed: farthest unclaimed sample row (ties toward the
    // lower row index), skipping singleton clusters.
    bool Reseeded = false;
    std::vector<uint8_t> Claimed(SampleN, 0);
    for (size_t C = 0; C < K; ++C) {
      if (Counts[C] != 0)
        continue;
      size_t Farthest = SampleN;
      double FarDist = -1.0;
      for (size_t I = 0; I < SampleN; ++I) {
        if (Claimed[I] || Counts[SampleAssign[I]] <= 1)
          continue;
        if (SampleDistSq[I] > FarDist) {
          FarDist = SampleDistSq[I];
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

  // One exact assignment pass over every row in the range. Per-row
  // independent kernel folds, so the fan-out cannot change any value; the
  // inertia folds serially in ascending row order afterwards.
  Result.Assignments.assign(N, 0);
  Result.AssignDistSq.assign(N, 0.0);
  Pool.parallelFor(N, [&](size_t B, size_t E) {
    std::vector<double> DistBuf(K);
    for (size_t I = B; I < E; ++I) {
      std::pair<size_t, double> Best =
          nearestCentroidRow(Cent, Rows.rowPtr(Begin + I), DistBuf.data());
      Result.Assignments[I] = static_cast<uint32_t>(Best.first);
      Result.AssignDistSq[I] = Best.second;
    }
  });
  Result.Inertia = 0.0;
  for (size_t I = 0; I < N; ++I)
    Result.Inertia += Result.AssignDistSq[I];
  return Result;
}

/// log(inertia) clamped away from log(0) for degenerate clusterings.
static double logDispersion(double Inertia) {
  return std::log(std::max(Inertia, 1e-12));
}

size_t prom::support::gapStatisticK(const FeatureMatrix &Points, Rng &R,
                                    size_t MinK, size_t MaxK,
                                    size_t NumRefs) {
  assert(MinK >= 1 && MinK <= MaxK && "invalid K range");
  size_t N = Points.rows();
  if (N < 2)
    return 1;
  MaxK = std::min(MaxK, N);
  MinK = std::min(MinK, MaxK);

  // Bounding box of the data for the uniform reference distribution.
  size_t Dim = Points.dim();
  std::vector<double> Lo(Dim, std::numeric_limits<double>::max());
  std::vector<double> Hi(Dim, std::numeric_limits<double>::lowest());
  for (size_t I = 0; I < N; ++I)
    for (size_t D = 0; D < Dim; ++D) {
      Lo[D] = std::min(Lo[D], Points.rowPtr(I)[D]);
      Hi[D] = std::max(Hi[D], Points.rowPtr(I)[D]);
    }

  // Lloyd on every row (sample cap N), up to 50 iterations.
  auto Dispersion = [&](const FeatureMatrix &Rows, size_t K) {
    return logDispersion(kMeansMatrix(Rows, 0, N, K, R, 50, N).Inertia);
  };
  std::vector<double> Gap(MaxK + 1, 0.0), Sk(MaxK + 1, 0.0);
  FeatureMatrix RefRows(N, Dim);
  for (size_t K = MinK; K <= MaxK; ++K) {
    double DataLog = Dispersion(Points, K);

    std::vector<double> RefLogs;
    RefLogs.reserve(NumRefs);
    for (size_t Ref = 0; Ref < NumRefs; ++Ref) {
      // Row-major draws, one uniform per (row, dim) in ascending order.
      for (size_t I = 0; I < N; ++I)
        for (size_t D = 0; D < Dim; ++D)
          RefRows.rowPtr(I)[D] = R.uniform(Lo[D], Hi[D]);
      RefLogs.push_back(Dispersion(RefRows, K));
    }
    Gap[K] = mean(RefLogs) - DataLog;
    Sk[K] = stddev(RefLogs) *
            std::sqrt(1.0 + 1.0 / static_cast<double>(NumRefs));
  }

  // Standard rule: smallest K with Gap(K) >= Gap(K+1) - s(K+1).
  for (size_t K = MinK; K < MaxK; ++K)
    if (Gap[K] >= Gap[K + 1] - Sk[K + 1])
      return K;

  // Fall back to the largest gap.
  size_t BestK = MinK;
  for (size_t K = MinK; K <= MaxK; ++K)
    if (Gap[K] > Gap[BestK])
      BestK = K;
  return BestK;
}
