//===- prombench/src/Fixture.h - Deployments and traffic -------*- C++ -*-===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The deployed models, their calibration sets, the request traffic, and
/// the bench-side replica of a detector's calibration store.
///
/// The deployment (training set, model, calibration set) is drawn from a
/// fixed seed, so every run measures the same deployed detector; the
/// workload seed only draws the traffic. Traffic is the serve_load
/// distribution (16-d Gaussians, class means 0.7 apart) with half of the
/// requests shifted by +3 on the first eight features, so the stream
/// carries real mispredictions and rejects.
///
//===----------------------------------------------------------------------===//

#ifndef PROMBENCH_FIXTURE_H
#define PROMBENCH_FIXTURE_H

#include "Harness.h"

#include "core/CalibrationStore.h"
#include "core/Detector.h"
#include "data/Dataset.h"
#include "ml/Mlp.h"

#include <memory>

namespace pb {

constexpr int FeatureDim = 16;
constexpr int NumClasses = 6;
/// Seed of every deployment-side draw (training and calibration sets).
constexpr uint64_t DeploymentSeed = 0x50524F4D42454E43ull;
/// Id bit marking relabelled samples handed back for recalibration, so a
/// TracedModel log can tell refresh forwards from served batches.
constexpr uint64_t LabeledIdBit = 1ull << 62;

/// \p N samples with uniform labels; a \p ShiftedShare of them drawn from
/// the shifted distribution. Sample ids are IdBase + index.
prom::data::Dataset makeSamples(uint64_t Seed, size_t N, double ShiftedShare,
                                uint64_t IdBase = 0);

/// A trained classifier and a calibrated detector over its TracedModel.
struct Deployment {
  std::unique_ptr<prom::ml::MlpClassifier> Model;
  std::unique_ptr<TracedModel> Traced;
  std::unique_ptr<prom::PromClassifier> Prom;
  prom::data::Dataset Calib{"calib", NumClasses};
};

/// Fits the 16-d, 6-class MLP (serve_load's model under the default
/// config) on 1,200 in-distribution samples drawn from \p Seed.
std::unique_ptr<prom::ml::MlpClassifier>
fitModel(uint64_t Seed, prom::ml::MlpConfig Cfg = prom::ml::MlpConfig());

/// Entries of the calibration set the threshold grid search runs on.
constexpr size_t GridSearchEntries = 1000;

/// The paper's Sec. 5.2 deployment step: grid-search the rejection
/// thresholds on (the first GridSearchEntries of) the calibration set,
/// keeping every other knob of \p Base.
prom::PromConfig tuneThresholds(const prom::ml::Classifier &Model,
                                const prom::data::Dataset &Calib,
                                const prom::PromConfig &Base, uint64_t Seed);

/// Model fit, threshold tuning, calibration of \p CalibSize entries and
/// (when the config routes to it) the cluster-index build: the set-up
/// every workload times.
Deployment deploy(uint64_t Seed, size_t CalibSize, const prom::PromConfig &Cfg);

/// Bench-side copy of a detector's calibration store, built through the
/// store's public API from the same entries calibrate() produces. The
/// per-layer replay times selection, scoring and the p-value fold on it
/// and checks that it reproduces the engine's credibilities bit for bit.
struct ReplicaStore {
  prom::CalibrationStore Store;
  prom::PromConfig Cfg;
  double Temperature = 1.0;
};

/// Builds the replica of \p Prom's store over calibration set \p Calib
/// (raw forwards through \p Model).
std::unique_ptr<ReplicaStore> buildReplica(const prom::PromClassifier &Prom,
                                           const prom::ml::Classifier &Model,
                                           const prom::data::Dataset &Calib);

/// Counters of a replay.
struct ReplayStats {
  double PrepareUs = 0.0;  ///< prepareBatchPrunedScan, summed over batches.
  double SelectUs = 0.0;   ///< selectForAssessment, summed over queries.
  double ScoreUs = 0.0;    ///< scoreAll of every expert, summed.
  double PValuesUs = 0.0;  ///< pValuesAllExperts, summed.
  uint64_t Batches = 0, Queries = 0;
  uint64_t Mismatches = 0; ///< Credibilities that differ from the engine.
  prom::PrunedScanStats Scan;
  bool Pruned = false;     ///< Any batch took the pruned routing.
};

/// Replays one batch whose raw forwards are \p RawProbs / \p Embeds
/// through the replica with spans (root \p Parent, request \p Req), and
/// compares each credibility with \p Engine's verdicts.
void replayBatch(const ReplicaStore &Rep, const prom::PromClassifier &Prom,
                 const prom::support::Matrix &RawProbs,
                 const prom::support::Matrix &Embeds,
                 const std::vector<prom::Verdict> &Engine, Tracer &T,
                 uint64_t Parent, uint64_t Req, ReplayStats &Out);

} // namespace pb

#endif // PROMBENCH_FIXTURE_H
