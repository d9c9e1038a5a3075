//===- core/Detector.h - The PROM drift detectors ----------------*- C++ -*-===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The deployment-time PROM engines (paper Figures 2, 5 and 6).
///
/// PromClassifier / PromRegressor wrap an already-trained underlying model.
/// calibrate() performs the offline calibration-set processing; assess()
/// runs the expert committee on one test input and returns the prediction
/// together with per-expert credibility/confidence scores and the majority
/// drift verdict. DriftDetector is the uniform interface the comparison
/// baselines (naive CP, RISE, TESSERACT) also implement.
///
//===----------------------------------------------------------------------===//

#ifndef PROM_CORE_DETECTOR_H
#define PROM_CORE_DETECTOR_H

#include "core/DetectorCore.h"
#include "core/IncrementalLearner.h"
#include "core/Nonconformity.h"
#include "core/PromConfig.h"
#include "data/Dataset.h"
#include "ml/Model.h"
#include "support/FeatureMatrix.h"

#include <memory>
#include <string>
#include <vector>

/// \namespace prom
/// Root namespace of the PROM reproduction.

/// \namespace prom::data
/// Datasets, samples, feature scaling, and split utilities.

namespace prom {

/// Committee verdict for a classification prediction.
struct Verdict : CommitteeVerdict {
  int Predicted = -1;                ///< Argmax class of the model.
  std::vector<double> Probabilities; ///< Temperature-softened class probs.
};

/// Committee verdict for a regression prediction.
struct RegressionVerdict : CommitteeVerdict {
  double Predicted = 0.0;     ///< The model's point prediction.
  int Cluster = -1;           ///< Pseudo-label assigned to the input.
};

/// Uniform accept/reject interface shared with the baselines.
class DriftDetector {
public:
  virtual ~DriftDetector(); ///< Virtual: deleted through the base.

  /// Prepares the detector from the trained \p Model and \p Calib set.
  virtual void fit(const ml::Classifier &Model, const data::Dataset &Calib,
                   support::Rng &R) = 0;

  /// True when the model's prediction for \p S should be rejected.
  virtual bool isDrifting(const data::Sample &S) const = 0;

  /// Batched form of isDrifting(); element I equals isDrifting(Batch[I]).
  /// The default loops per sample; detectors with a batch engine override
  /// it (the evaluation harness always drives deployment through this).
  virtual std::vector<char> isDriftingBatch(const data::Dataset &Batch) const;

  /// Short display name used by the evaluation tables.
  virtual std::string name() const = 0;
};

/// PROM wrapper around a trained classifier.
class PromClassifier {
public:
  /// Uses the default LAC/TopK/APS/RAPS committee.
  explicit PromClassifier(const ml::Classifier &Model,
                          PromConfig Cfg = PromConfig());

  /// Uses a custom committee (must be non-empty).
  PromClassifier(const ml::Classifier &Model,
                 std::vector<std::unique_ptr<ClassificationScorer>> Scorers,
                 PromConfig Cfg);

  /// Offline calibration processing (Sec. 4.1.1): embeds every calibration
  /// sample and stores one true-label nonconformity score per expert.
  /// Also fits a temperature that softens the model's probability vector
  /// (minimum NLL on the calibration labels): log-loss-trained networks
  /// saturate to one-hot outputs, which starves every probability-based
  /// nonconformity function; temperature scaling restores the signal
  /// without touching the model or its argmax. Re-callable after
  /// incremental learning updates the model.
  void calibrate(const data::Dataset &Calib);

  /// Online calibration refresh (the deployment loop's "relabel a small
  /// sample and fold it back"): scores \p NewlyLabeled with the current
  /// committee and temperature, folds the entries into a copy of the live
  /// calibration store via the incremental CalibrationStore::refinalize()
  /// (evicting oldest-first beyond PromConfig::MaxCalibEntries), and
  /// atomically publishes the refreshed store. Concurrent assessments are
  /// unaffected: every batch pins the store it started with (RCU-style
  /// snapshot), so in-flight verdicts stay internally consistent and the
  /// swap never blocks the serving path.
  ///
  /// With \p Incremental false the refreshed store is rebuilt from
  /// scratch on the same union of entries — the reference path; verdicts
  /// are bit-identical either way (RefreshTest), it is only slower.
  ///
  /// Unlike calibrate(), the fitted temperature is kept: refreshed
  /// entries must be exchangeable with the retained ones, and re-fitting
  /// the temperature would silently rescore every retained entry.
  ///
  /// Thread-safe against concurrent assessments; concurrent *writers*
  /// (calibrate/refresh/reshard/loadSnapshot) must be serialized by the
  /// caller — the serve::RecalibrationController runs all refreshes on
  /// one background thread.
  ///
  /// Returns the live store size after the refresh.
  size_t refreshCalibration(const data::Dataset &NewlyLabeled,
                            bool Incremental = true);

  /// Live calibration entries (0 before calibrate()).
  size_t calibrationSize() const { return Core.calibrationSize(); }

  /// Estimated heap footprint of the calibrated state (the live
  /// calibration store with its indexes; the wrapped model is external
  /// and not counted). The serve::DetectorRegistry meters loaded tenants
  /// with this against its memory budget.
  size_t memoryBytes() const { return sizeof(*this) + Core.memoryBytes(); }

  /// The fitted softening temperature (1 = untouched).
  double temperature() const { return Temperature; }

  /// Full committee assessment of one test input (Figure 5). Delegates to
  /// assessBatch() on a size-1 batch, so single-sample and batched
  /// deployments produce bit-identical verdicts by construction.
  Verdict assess(const data::Sample &S) const;

  /// Batched committee assessment: one batched model forward computes every
  /// probability vector and embedding — every model in the zoo has a
  /// native batch path (matmul batching, one-scan k-NN, level-by-level
  /// tree ensembles; see ml/Model.h), so no expert falls back to a
  /// per-sample forward loop — then the per-sample committee work
  /// (selection, fused all-expert p-values, vote) runs across the
  /// ThreadPool with reusable per-lane scratch. Element I is bit-identical
  /// to assessSerial(Batch[I]).
  std::vector<Verdict> assessBatch(const data::Dataset &Batch) const;

  /// Committee assessment over precomputed *raw* model outputs: row I of
  /// \p RawProbs / \p Embeds must be predictProba / embed of sample I
  /// (temperature softening is applied here). Bit-identical to
  /// assessBatch() on the corresponding Dataset; callers that sweep
  /// configurations over a fixed sample set (grid search) reuse one model
  /// forward across every candidate through this entry point.
  std::vector<Verdict>
  assessBatchWithForwards(const support::Matrix &RawProbs,
                          const support::Matrix &Embeds) const;

  /// Reference per-sample implementation (the pre-batching deployment
  /// path): two per-sample model forwards, a sorted adaptive selection and
  /// one p-value scan per expert. Retained as the independent oracle for
  /// the batch/serial equivalence tests and as the serial baseline of the
  /// overhead benches.
  Verdict assessSerial(const data::Sample &S) const;

  /// Per-class p-values of \p S for expert \p Expert (used by the
  /// assessment and by tests of the CP validity property).
  std::vector<double> pValues(const data::Sample &S, size_t Expert) const;

  const PromConfig &config() const { return Core.config(); } ///< Knobs.
  PromConfig &config() { return Core.config(); } ///< Mutable knobs.
  size_t numExperts() const { return Scorers.size(); } ///< Committee size.
  /// Committee expert \p I.
  const ClassificationScorer &scorer(size_t I) const { return *Scorers[I]; }
  const ml::Classifier &model() const { return Model; } ///< Wrapped model.
  /// True once calibrate() (or a snapshot load) has run.
  bool isCalibrated() const { return Core.isCalibrated(); }

  /// Shard count of the calibration store (1 before calibration).
  size_t numShards() const { return Core.numShards(); }

  /// Re-partitions the calibration store into \p NumShards shards without
  /// recalibrating; verdicts are unchanged by contract. Publishes the
  /// re-partitioned store with the same atomic swap as
  /// refreshCalibration(), so it is safe against concurrent assessments.
  void reshard(size_t NumShards) { Core.reshard(NumShards); }

  /// Writes a versioned binary snapshot of the calibrated detector state —
  /// config, committee (by scorer name), calibration entries, fitted
  /// temperature, and optionally the deployment feature \p Scaler — so a
  /// restarted server can loadSnapshot() instead of recalibrating. Returns
  /// false on I/O failure.
  bool saveSnapshot(const std::string &Path,
                    const data::StandardScaler *Scaler = nullptr) const;

  /// Restores the state written by saveSnapshot(): verdicts after a load
  /// are bit-identical to the ones the saving detector produced. The
  /// committee is rebuilt by scorer name. Returns false (leaving the
  /// detector untouched) on missing/truncated/corrupt files, a snapshot of
  /// the wrong kind, or an unknown scorer name.
  bool loadSnapshot(const std::string &Path,
                    data::StandardScaler *Scaler = nullptr);

private:
  const ml::Classifier &Model;
  /// Config, live calibration store, batch driver and snapshot envelope.
  DetectorCore Core;
  std::vector<std::unique_ptr<ClassificationScorer>> Scorers;
  double Temperature = 1.0;
};

/// Adapter exposing PromClassifier through the DriftDetector interface.
/// By default fit() runs the Sec. 5.2 grid search on the calibration set
/// to select the rejection thresholds (pass AutoTune = false to keep the
/// given config verbatim); \p Mispredicted customizes the tuning objective
/// for tasks whose mispredictions are performance-defined.
class PromDriftDetector : public DriftDetector {
public:
  /// \p Cfg seeds the grid search (or is used verbatim when \p AutoTune
  /// is false); \p Mispredicted overrides the tuning objective.
  explicit PromDriftDetector(PromConfig Cfg = PromConfig(),
                             bool AutoTune = true,
                             MispredicateFn Mispredicted = nullptr)
      : Cfg(Cfg), AutoTune(AutoTune),
        Mispredicted(std::move(Mispredicted)) {}

  /// Grid-searches thresholds (unless AutoTune is off), then builds and
  /// calibrates the wrapped PromClassifier.
  void fit(const ml::Classifier &Model, const data::Dataset &Calib,
           support::Rng &R) override;
  /// Committee verdict for one sample (accept/reject only).
  bool isDrifting(const data::Sample &S) const override;
  /// Batched committee verdicts (accept/reject only).
  std::vector<char>
  isDriftingBatch(const data::Dataset &Batch) const override;
  /// Always "PROM".
  std::string name() const override { return "PROM"; }

  /// The wrapped engine (valid after fit()); exposed so harnesses can run
  /// full batched assessments rather than bare accept/reject decisions.
  const PromClassifier &engine() const { return *Impl; }

private:
  PromConfig Cfg;
  bool AutoTune;
  MispredicateFn Mispredicted;
  std::unique_ptr<PromClassifier> Impl;
};

/// PROM wrapper around a trained regressor (Sec. 5.1.2 regression scheme).
class PromRegressor {
public:
  /// Uses the default regression committee.
  explicit PromRegressor(const ml::Regressor &Model,
                         PromConfig Cfg = PromConfig());

  /// Uses a custom committee (must be non-empty).
  PromRegressor(const ml::Regressor &Model,
                std::vector<std::unique_ptr<RegressionScorer>> Scorers,
                PromConfig Cfg);

  /// Offline processing: embeds the calibration samples, clusters them into
  /// pseudo-labels (k-means++, K by gap statistic unless fixed), and stores
  /// per-expert residual-based scores. \p R seeds the clustering.
  void calibrate(const data::Dataset &Calib, support::Rng &R);

  /// Committee assessment; the ground truth of \p S is approximated by its
  /// k nearest calibration samples (Sec. 5.1.1). Delegates to assessBatch()
  /// on a size-1 batch.
  RegressionVerdict assess(const data::Sample &S) const;

  /// Batched committee assessment (see PromClassifier::assessBatch);
  /// element I is bit-identical to assessSerial(Batch[I]).
  std::vector<RegressionVerdict>
  assessBatch(const data::Dataset &Batch) const;

  /// Reference per-sample implementation: per-sample forwards, the exact
  /// flat selection and the exact k-NN scan, with no index on any path.
  /// The oracle of the equivalence tests and the serial bench baseline.
  RegressionVerdict assessSerial(const data::Sample &S) const;

  const PromConfig &config() const { return Core.config(); } ///< Knobs.
  PromConfig &config() { return Core.config(); } ///< Mutable knobs.
  size_t numExperts() const { return Scorers.size(); } ///< Committee size.
  size_t numClusters() const { return Centroids.rows(); } ///< Pseudo-labels.
  const ml::Regressor &model() const { return Model; } ///< Wrapped model.
  /// True once calibrate() (or a snapshot load) has run.
  bool isCalibrated() const { return Core.isCalibrated(); }

  /// Shard count of the calibration store (1 before calibration).
  size_t numShards() const { return Core.numShards(); }

  /// Re-partitions the calibration store into \p NumShards shards; the
  /// same copy-modify-publish atomic swap as PromClassifier::reshard(),
  /// so it is safe against concurrent assessments and leaves verdicts
  /// unchanged.
  void reshard(size_t NumShards) { Core.reshard(NumShards); }

  /// Regression snapshot: the classifier's layout with the fitted block
  /// holding the calibration targets, the pseudo-label centroids and the
  /// residual IQR (docs/SNAPSHOT_FORMAT.md). Same guarantees as
  /// PromClassifier::saveSnapshot().
  bool saveSnapshot(const std::string &Path,
                    const data::StandardScaler *Scaler = nullptr) const;
  /// Restores a regressor snapshot; see PromClassifier::loadSnapshot()
  /// for the validation and failure guarantees. Also rejects a snapshot
  /// whose target count differs from its entry count or whose centroids
  /// do not have the embedding width.
  bool loadSnapshot(const std::string &Path,
                    data::StandardScaler *Scaler = nullptr);

private:
  /// k-NN ground-truth statistics of one test embedding (Sec. 5.1.1)
  /// against the pinned \p Store: \p Embed must point at embedDim()
  /// values.
  RegressionScoreInput makeScoreInput(const CalibrationStore &Store,
                                      const double *Embed,
                                      double Prediction) const;

  const ml::Regressor &Model;
  /// Config, live calibration store, batch driver and snapshot envelope.
  /// The k-NN ground-truth lookups scan the pinned store's flat embedding
  /// block (flat().embedMatrix()), whose row I is entry I.
  DetectorCore Core;
  std::vector<std::unique_ptr<RegressionScorer>> Scorers;
  /// True target of calibration entry I.
  std::vector<double> CalibTargets;
  /// Pseudo-label centroids, one row per cluster.
  support::FeatureMatrix Centroids;
  double ResidualIqr = 0.0;
};

} // namespace prom

#endif // PROM_CORE_DETECTOR_H
