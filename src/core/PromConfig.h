//===- core/PromConfig.h - PROM configuration knobs --------------*- C++ -*-===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// All tunable parameters of the PROM detector with the paper's defaults.
/// Thresholds, the adaptive-selection knobs and the confidence scale apply
/// at assessment time, so a PromConfig can be re-tuned (e.g. by grid
/// search, Sec. 5.2) without rebuilding calibration scores.
///
//===----------------------------------------------------------------------===//

#ifndef PROM_CORE_PROMCONFIG_H
#define PROM_CORE_PROMCONFIG_H

#include <cstddef>

namespace prom {

/// How Eq. (1) distance weights enter the p-value computation.
///
/// The paper writes the adjustment multiplicatively (a_i = w_i * a_i).
/// Taken literally that breaks tie-heavy discrete nonconformity scores
/// (e.g. TopK rank 1 vs rank 1: any w < 1 flips every tie against the test
/// sample and the p-value collapses to ~0). WeightedCount applies the same
/// "closer calibration samples count more" idea as a weighted count in Eq.
/// (2) — the standard weighted-conformal-prediction form — and is the
/// default; ScoreScaling is the paper's literal equation, kept for
/// ablation.
enum class CalibrationWeightMode {
  WeightedCount, ///< p = (sum w_i [a_i >= a_test] + 1) / (sum w_i + 1).
  ScoreScaling,  ///< Compare w_i * a_i >= a_test with unit counts.
  None,          ///< Unweighted counts (selection still applies).
};

/// PROM detector configuration (paper defaults in comments).
struct PromConfig {
  /// Significance level epsilon (Sec. 4.1.1, default 0.1). Prediction sets
  /// contain the classes whose p-value exceeds Epsilon, giving ~(1-eps)
  /// marginal coverage.
  double Epsilon = 0.1;

  /// Credibility threshold of each expert; negative means "use Epsilon".
  double CredThreshold = -1.0;

  /// Confidence threshold of each expert. With the Gaussian set-size score
  /// (c = 3) the default 0.95 separates "exactly one conforming class"
  /// (confidence 1.0) from empty/ambiguous prediction sets (Sec. 5.3).
  double ConfThreshold = 0.95;

  /// Gaussian scale c in conf = exp(-(setSize-1)^2 / (2 c^2)) (Sec. 5.3).
  double ConfidenceC = 3.0;

  /// Temperature tau of the distance weights w = exp(-d / Tau) (Eq. 1,
  /// default 500). The paper's 500 is calibrated to its models' raw
  /// embedding scales; with AutoTau (default) the effective temperature is
  /// TauScale times the calibration set's median nearest-neighbour
  /// distance, which transfers across feature spaces.
  double Tau = 500.0;

  /// Scale the temperature to the calibration set's own distance scale.
  bool AutoTau = true;

  /// Effective tau = TauScale * median nearest-neighbour distance.
  double TauScale = 50.0;

  /// Exponent on the l2 distance inside the weight (1 = exp(-d/tau),
  /// 2 = exp(-d^2/tau)); Eq. (1)'s typography is ambiguous, default 1.
  int WeightNormPower = 1;

  /// Fraction of nearest calibration samples used per test input
  /// (Sec. 5.1.2, default: closest 50%).
  double SelectFraction = 0.5;

  /// Use the whole calibration set when it has fewer samples than this
  /// (Sec. 5.1.2, default 200).
  size_t SelectAllBelow = 200;

  /// How the Eq. (1) weights are applied (see CalibrationWeightMode).
  CalibrationWeightMode WeightMode = CalibrationWeightMode::WeightedCount;

  /// Use the standard split-CP (count+1)/(n+1) smoothing in Eq. (2).
  bool SmoothedPValues = true;

  /// Committee votes needed to flag a sample; 0 means majority
  /// (ceil(numExperts / 2)).
  size_t MinVotesToFlag = 0;

  /// k in the regression k-NN ground-truth approximation (Sec. 5.1.1,
  /// default 3). The lookups run an exact scan over the calibration
  /// store's embedding block; the ClusterIndex* knobs do not apply.
  size_t KnnK = 3;

  /// Gap-statistic search range for the regression pseudo-label clustering
  /// (Sec. 5.1.2, default K in [2, 20]). The clustering and the gap
  /// statistic both run support::kMeansMatrix over every calibration row.
  size_t MinClusters = 2;
  size_t MaxClusters = 20;

  /// Overrides the gap statistic with a fixed cluster count when non-zero.
  size_t FixedClusters = 0;

  /// Shard count of the calibration store built by calibrate(): the
  /// deployment-scaling knob of the serving runtime. Verdicts are
  /// shard-count-invariant by contract (test-enforced), so this only
  /// affects how assessment work is partitioned; 0 means one shard per
  /// ThreadPool lane. Detectors can also reshard() after calibration.
  size_t NumShards = 1;

  /// Upper bound on live calibration entries under online refresh
  /// (refreshCalibration() folds relabeled deployment samples into the
  /// store and evicts oldest-first beyond this bound, keeping a
  /// continuously refreshed server's memory flat). 0 = unbounded.
  /// calibrate() itself never evicts — the bound governs refresh only.
  size_t MaxCalibEntries = 0;

  /// Accelerate the calibration store's per-query distance scan with the
  /// lossless cluster-pruned index (support/ClusterIndex) once a shard is
  /// large enough. Pruning is bit-identical to the exact scan by construction,
  /// so this is purely a performance knob.
  bool ClusterIndex = true;

  /// Coarse centroids per shard index; 0 picks ~sqrt(shard rows),
  /// clamped to [8, 4096].
  size_t ClusterIndexCentroids = 0;

  /// Shards below this entry count are never indexed — the flat scan wins
  /// at small N, and the selection keeps >= SelectFraction of the rows
  /// anyway. The default sits past the measured crossover.
  size_t ClusterIndexMinEntries = 8192;

  /// Appended-and-refinalized entries leave a shard's index covering only
  /// a prefix; the uncovered tail is scanned exactly. Once the tail
  /// exceeds this fraction of the shard, the index is rebuilt.
  double ClusterIndexMaxStale = 0.25;

  /// A lossless pruned scan must still visit at least the selected
  /// fraction of the rows, so it only pays off when SelectFraction is
  /// small; past this bound the exact flat scan serves instead (measured:
  /// pruning at a 50% selection scans ~90% of the rows and loses ~10-30%,
  /// while 10%/2% selections win 1.7x/6.5x at 10^6 entries).
  double ClusterIndexMaxSelectFraction = 0.25;

  /// Enable the serving runtime's drift-attribution layer
  /// (serve/DriftAttribution): per-dimension reference-vs-current
  /// statistics, Page-Hinkley/CUSUM detectors, and drift-shape
  /// classification over the assessed feature stream. Strictly
  /// observe-only — verdicts are bit-identical either way (test-enforced)
  /// — so, like the ClusterIndex* knobs, it never enters snapshots.
  bool DriftAttribution = true;

  /// Observations frozen into the attribution reference window (the
  /// "normal" every later window is standardized against).
  size_t DriftAttributionReferenceWindow = 512;

  /// Tumbling current-window length of the attribution layer.
  size_t DriftAttributionCurrentWindow = 256;

  /// Dimensions listed in the ranked attribution report.
  size_t DriftAttributionTopK = 8;

  /// |z| at or above this marks a dimension as drifted in the report.
  double DriftAttributionZThreshold = 3.0;

  /// Effective credibility threshold.
  double credThreshold() const {
    return CredThreshold < 0.0 ? Epsilon : CredThreshold;
  }
};

} // namespace prom

#endif // PROM_CORE_PROMCONFIG_H
