//===- core/Detector.cpp - The PROM drift detectors --------------------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Detector.h"
#include "core/GridSearch.h"
#include "support/Distance.h"
#include "support/KMeans.h"
#include "support/Matrix.h"
#include "support/Rng.h"
#include "support/Serialize.h"
#include "support/Stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>

using namespace prom;
using support::Matrix;

DriftDetector::~DriftDetector() = default;

std::vector<char>
DriftDetector::isDriftingBatch(const data::Dataset &Batch) const {
  std::vector<char> Out(Batch.size(), 0);
  for (size_t I = 0; I < Batch.size(); ++I)
    Out[I] = isDrifting(Batch[I]) ? 1 : 0;
  return Out;
}

//===----------------------------------------------------------------------===//
// PromClassifier
//===----------------------------------------------------------------------===//

PromClassifier::PromClassifier(const ml::Classifier &Model, PromConfig Cfg)
    : PromClassifier(Model, defaultClassificationScorers(), Cfg) {}

PromClassifier::PromClassifier(
    const ml::Classifier &Model,
    std::vector<std::unique_ptr<ClassificationScorer>> ScorersIn,
    PromConfig CfgIn)
    : Model(Model), Core(CfgIn), Scorers(std::move(ScorersIn)) {
  assert(!Scorers.empty() && "committee needs at least one expert");
}

/// Applies temperature \p T to the \p N probabilities at \p Row in place:
/// softmax(log(p) / T). T > 1 softens saturated outputs; the argmax never
/// changes.
static void applyTemperatureRow(double *Row, size_t N, double T) {
  if (T == 1.0)
    return;
  for (size_t J = 0; J < N; ++J)
    Row[J] = std::log(std::max(Row[J], 1e-12)) / T;
  support::softmaxRowInPlace(Row, N);
}

/// applyTemperatureRow() on a copy of \p Probs.
static std::vector<double> applyTemperature(std::vector<double> Probs,
                                            double T) {
  applyTemperatureRow(Probs.data(), Probs.size(), T);
  return Probs;
}

/// One calibration entry per sample of \p Labeled from its raw model
/// outputs (row I of \p RawProbs / \p Embeds), scored by every expert of
/// \p Scorers under temperature \p T.
static std::vector<CalibrationEntry> scoreEntries(
    const std::vector<std::unique_ptr<ClassificationScorer>> &Scorers,
    double T, const data::Dataset &Labeled, const Matrix &RawProbs,
    const Matrix &Embeds) {
  std::vector<CalibrationEntry> Entries;
  Entries.reserve(Labeled.size());
  for (size_t I = 0; I < Labeled.size(); ++I) {
    CalibrationEntry Entry;
    Entry.Embed = Embeds.row(I);
    Entry.Label = Labeled[I].Label;
    std::vector<double> Probs = applyTemperature(RawProbs.row(I), T);
    Entry.Scores.reserve(Scorers.size());
    for (const auto &Scorer : Scorers)
      Entry.Scores.push_back(Scorer->score(Probs, Entry.Label));
    Entries.push_back(std::move(Entry));
  }
  return Entries;
}

void PromClassifier::calibrate(const data::Dataset &CalibSet) {
  assert(!CalibSet.empty() && "empty calibration set");

  // One batched forward computes every raw probability vector and
  // embedding (row I is bit-identical to the per-sample calls).
  Matrix RawProbs, Embeds;
  Model.predictWithEmbedBatch(CalibSet, RawProbs, Embeds);

  // Fit the softening temperature by true-label NLL on the calibration
  // set (standard post-hoc temperature scaling, argmax-invariant).
  static const double Grid[] = {0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0};
  double BestNll = 1e300;
  for (double T : Grid) {
    double Nll = 0.0;
    for (size_t I = 0; I < CalibSet.size(); ++I) {
      std::vector<double> P = applyTemperature(RawProbs.row(I), T);
      Nll -= std::log(
          std::max(P[static_cast<size_t>(CalibSet[I].Label)], 1e-12));
    }
    if (Nll < BestNll) {
      BestNll = Nll;
      Temperature = T;
    }
  }

  Core.publish(scoreEntries(Scorers, Temperature, CalibSet, RawProbs, Embeds),
               Core.effectiveShards());
}

size_t PromClassifier::refreshCalibration(const data::Dataset &NewlyLabeled,
                                          bool Incremental) {
  std::shared_ptr<const CalibrationStore> Old = Core.store();
  assert(Old && !Old->empty() && "refresh before calibrate");
  if (NewlyLabeled.empty())
    return Old->size();

  // Score the relabeled samples exactly like calibrate() does, but with
  // the already-fitted temperature: refreshed entries must be
  // exchangeable with the retained ones.
  Matrix RawProbs, Embeds;
  Model.predictWithEmbedBatch(NewlyLabeled, RawProbs, Embeds);
  assert(Embeds.cols() == Old->embedDim() &&
         "refresh embedding width does not match the calibration set");

  // Stage + refresh on a private copy, then publish: readers pinned to
  // the old store are never disturbed.
  auto Fresh = std::make_shared<CalibrationStore>(*Old);
  Fresh->setMaxEntries(config().MaxCalibEntries);
  Fresh->appendEntries(
      scoreEntries(Scorers, Temperature, NewlyLabeled, RawProbs, Embeds));
  if (Incremental)
    Fresh->refinalize();
  else
    Fresh->refinalizeFull();
  size_t NewSize = Fresh->size();
  Core.installStore(std::move(Fresh));
  return NewSize;
}

std::vector<double> PromClassifier::pValues(const data::Sample &S,
                                            size_t Expert) const {
  std::shared_ptr<const CalibrationStore> Store = Core.store();
  assert(Store && !Store->empty() && "assess before calibrate");
  const PromConfig &Cfg = config();
  std::vector<double> Probs =
      applyTemperature(Model.predictProba(S), Temperature);
  CalibrationSelection Sel = Store->flat().select(Model.embed(S), Cfg);
  std::vector<double> TestScores(Probs.size());
  for (size_t C = 0; C < Probs.size(); ++C)
    TestScores[C] = Scorers[Expert]->score(Probs, static_cast<int>(C));
  return Store->flat().pValues(Sel, Expert, TestScores, Cfg,
                               Scorers[Expert]->isDiscrete());
}

Verdict PromClassifier::assessSerial(const data::Sample &S) const {
  std::shared_ptr<const CalibrationStore> Store = Core.store();
  assert(Store && !Store->empty() && "assess before calibrate");
  const PromConfig &Cfg = config();
  Verdict V;
  V.Probabilities = applyTemperature(Model.predictProba(S), Temperature);
  V.Predicted = static_cast<int>(support::argmax(V.Probabilities));

  CalibrationSelection Sel = Store->flat().select(Model.embed(S), Cfg);
  size_t NumClasses = V.Probabilities.size();
  std::vector<double> TestScores(NumClasses);
  V.Experts.reserve(Scorers.size());
  for (size_t E = 0; E < Scorers.size(); ++E) {
    for (size_t C = 0; C < NumClasses; ++C)
      TestScores[C] =
          Scorers[E]->score(V.Probabilities, static_cast<int>(C));
    std::vector<double> PVals = Store->flat().pValues(
        Sel, E, TestScores, Cfg, Scorers[E]->isDiscrete());
    V.Experts.push_back(DetectorCore::judgeExpert(PVals.data(), PVals.size(),
                                                  V.Predicted, Cfg));
  }
  DetectorCore::vote(Cfg, V);
  return V;
}

std::vector<Verdict>
PromClassifier::assessBatch(const data::Dataset &Batch) const {
  assert(isCalibrated() && "assess before calibrate");
  if (Batch.empty())
    return {};

  // One batched forward computes every probability vector and embedding.
  Matrix Probs, Embeds;
  Model.predictWithEmbedBatch(Batch, Probs, Embeds);
  return assessBatchWithForwards(Probs, Embeds);
}

std::vector<Verdict>
PromClassifier::assessBatchWithForwards(const Matrix &RawProbs,
                                        const Matrix &Embeds) const {
  assert(RawProbs.rows() == Embeds.rows() && "forwards row mismatch");
  size_t NumLabels = RawProbs.cols();
  std::vector<uint8_t> Discrete(Scorers.size());
  for (size_t E = 0; E < Scorers.size(); ++E)
    Discrete[E] = Scorers[E]->isDiscrete() ? 1 : 0;

  return Core.assessBatch<Verdict>(
      Embeds, NumLabels, Discrete.data(),
      [&](const CalibrationStore &, size_t I, Verdict &V,
          DetectorCore::Lane &L) {
        V.Probabilities.assign(RawProbs.rowPtr(I),
                               RawProbs.rowPtr(I) + NumLabels);
        applyTemperatureRow(V.Probabilities.data(), NumLabels, Temperature);
        V.Predicted = static_cast<int>(support::argmax(V.Probabilities));
        for (size_t E = 0; E < Scorers.size(); ++E)
          Scorers[E]->scoreAll(V.Probabilities,
                               L.TestScores.data() + E * NumLabels);
        return V.Predicted;
      });
}

Verdict PromClassifier::assess(const data::Sample &S) const {
  return assessOne(*this, S);
}

bool PromClassifier::saveSnapshot(const std::string &Path,
                                  const data::StandardScaler *Scaler) const {
  return Core.saveSnapshot(
      Path, DetectorCore::SnapshotKind::Classifier, Scorers,
      [&](support::ByteWriter &W) { W.writeF64(Temperature); }, Scaler);
}

bool PromClassifier::loadSnapshot(const std::string &Path,
                                  data::StandardScaler *Scaler) {
  double NewTemperature = 1.0;
  if (!Core.loadSnapshot(
          Path, DetectorCore::SnapshotKind::Classifier,
          makeClassificationScorer,
          [&](support::ByteReader &R,
              const std::vector<CalibrationEntry> &) {
            NewTemperature = R.readF64();
            return !R.failed();
          },
          Scorers, Scaler))
    return false;
  Temperature = NewTemperature;
  return true;
}

//===----------------------------------------------------------------------===//
// PromDriftDetector
//===----------------------------------------------------------------------===//

void PromDriftDetector::fit(const ml::Classifier &Model,
                            const data::Dataset &Calib, support::Rng &R) {
  PromConfig Use = Cfg;
  if (AutoTune && Calib.size() >= 10)
    Use = gridSearch(Model, Calib, GridSearchSpace(), Cfg, R,
                     /*Repeats=*/1, Mispredicted)
              .Best;
  Impl = std::make_unique<PromClassifier>(Model, Use);
  Impl->calibrate(Calib);
}

bool PromDriftDetector::isDrifting(const data::Sample &S) const {
  assert(Impl && "fit() not called");
  return Impl->assess(S).Drifted;
}

std::vector<char>
PromDriftDetector::isDriftingBatch(const data::Dataset &Batch) const {
  assert(Impl && "fit() not called");
  std::vector<Verdict> Verdicts = Impl->assessBatch(Batch);
  std::vector<char> Out(Verdicts.size(), 0);
  for (size_t I = 0; I < Verdicts.size(); ++I)
    Out[I] = Verdicts[I].Drifted ? 1 : 0;
  return Out;
}

//===----------------------------------------------------------------------===//
// PromRegressor
//===----------------------------------------------------------------------===//

PromRegressor::PromRegressor(const ml::Regressor &Model, PromConfig Cfg)
    : PromRegressor(Model, defaultRegressionScorers(), Cfg) {}

PromRegressor::PromRegressor(
    const ml::Regressor &Model,
    std::vector<std::unique_ptr<RegressionScorer>> ScorersIn,
    PromConfig CfgIn)
    : Model(Model), Core(CfgIn), Scorers(std::move(ScorersIn)) {
  assert(!Scorers.empty() && "committee needs at least one expert");
}

/// k-NN statistics of \p Embed (length Embeds.dim()) against the
/// calibration embedding block, excluding an optional \p SelfIndex: one
/// exact kNearest scan over the block, neighbours in ascending
/// (distance, index) order.
static void knnStats(const support::FeatureMatrix &Embeds,
                     const std::vector<double> &Targets, const double *Embed,
                     size_t K, long SelfIndex, double &MeanTarget,
                     double &Spread, double &MeanDist) {
  size_t Want = K + (SelfIndex >= 0 ? 1 : 0);
  std::vector<double> NearTargets;
  std::vector<double> Dists;
  for (size_t Idx : support::kNearest(Embeds, Embed, Want)) {
    if (SelfIndex >= 0 && Idx == static_cast<size_t>(SelfIndex))
      continue;
    if (NearTargets.size() == K)
      break;
    NearTargets.push_back(Targets[Idx]);
    Dists.push_back(
        support::euclidean(Embeds.rowPtr(Idx), Embed, Embeds.dim()));
  }
  assert(!NearTargets.empty() && "calibration set too small for k-NN");
  MeanTarget = support::mean(NearTargets);
  Spread = support::stddev(NearTargets);
  MeanDist = support::mean(Dists);
}

RegressionScoreInput
PromRegressor::makeScoreInput(const CalibrationStore &Store,
                              const double *Embed, double Prediction) const {
  RegressionScoreInput In;
  In.Prediction = Prediction;
  In.ResidualIqr = ResidualIqr;
  knnStats(Store.flat().embedMatrix(), CalibTargets, Embed, config().KnnK,
           /*SelfIndex=*/-1, In.ApproxTarget, In.KnnTargetSpread,
           In.KnnMeanDistance);
  return In;
}

/// Pseudo-label of \p Embed: its nearest centroid.
static int nearestCluster(const support::FeatureMatrix &Centroids,
                          const double *Embed, std::vector<double> &DistBuf) {
  DistBuf.resize(Centroids.rows());
  return static_cast<int>(
      support::nearestCentroidRow(Centroids, Embed, DistBuf.data()).first);
}

void PromRegressor::calibrate(const data::Dataset &CalibSet,
                              support::Rng &R) {
  const PromConfig &Cfg = config();
  assert(CalibSet.size() > Cfg.KnnK && "calibration set too small");

  // One batched forward for every prediction and embedding (row I is
  // bit-identical to the per-sample calls).
  std::vector<double> Predictions;
  Matrix Embeds;
  Model.predictWithEmbedBatch(CalibSet, Predictions, Embeds);

  // A local kernel-scannable copy of the embeddings for the clustering and
  // the self-excluded k-NN scoring below: the store only builds its own
  // block at finalize(), after the entries are scored.
  size_t N = CalibSet.size();
  support::FeatureMatrix Block(N, Embeds.cols());
  CalibTargets.clear();
  std::vector<double> Residuals;
  for (size_t I = 0; I < N; ++I) {
    Block.setRow(I, Embeds.rowPtr(I));
    CalibTargets.push_back(CalibSet[I].Target);
    Residuals.push_back(std::fabs(Predictions[I] - CalibSet[I].Target));
  }
  ResidualIqr = support::quantile(Residuals, 0.75) -
                support::quantile(Residuals, 0.25);

  // Pseudo-labels from k-means over the embedding space (Sec. 5.1.2):
  // full Lloyd on every row, up to 50 iterations.
  size_t K = Cfg.FixedClusters;
  if (K == 0)
    K = support::gapStatisticK(Block, R, Cfg.MinClusters,
                               std::min(Cfg.MaxClusters, N / 2));
  support::KMeansMatrixResult Clusters =
      support::kMeansMatrix(Block, 0, N, K, R, /*MaxIters=*/50,
                            /*SampleCap=*/N);
  Centroids = std::move(Clusters.Centroids);

  std::vector<CalibrationEntry> Entries(N);
  for (size_t I = 0; I < N; ++I) {
    CalibrationEntry &Entry = Entries[I];
    Entry.Embed = Block.row(I);
    Entry.Label = static_cast<int>(Clusters.Assignments[I]);

    // Calibration samples use their true targets but the same local
    // statistics pipeline as test samples (self excluded from the k-NN).
    RegressionScoreInput In;
    In.Prediction = Predictions[I];
    In.ResidualIqr = ResidualIqr;
    double ApproxUnused;
    knnStats(Block, CalibTargets, Block.rowPtr(I), Cfg.KnnK,
             static_cast<long>(I), ApproxUnused, In.KnnTargetSpread,
             In.KnnMeanDistance);
    In.ApproxTarget = CalibTargets[I];

    Entry.Scores.reserve(Scorers.size());
    for (const auto &Scorer : Scorers)
      Entry.Scores.push_back(Scorer->score(In));
  }
  Core.publish(std::move(Entries), Core.effectiveShards());
}

RegressionVerdict PromRegressor::assessSerial(const data::Sample &S) const {
  std::shared_ptr<const CalibrationStore> Store = Core.store();
  assert(Store && !Store->empty() && "assess before calibrate");
  const PromConfig &Cfg = config();
  RegressionVerdict V;
  V.Predicted = Model.predict(S);

  std::vector<double> Embed = Model.embed(S);
  std::vector<double> DistBuf;
  V.Cluster = nearestCluster(Centroids, Embed.data(), DistBuf);

  RegressionScoreInput In = makeScoreInput(*Store, Embed.data(), V.Predicted);
  CalibrationSelection Sel = Store->flat().select(Embed, Cfg);

  V.Experts.reserve(Scorers.size());
  for (size_t E = 0; E < Scorers.size(); ++E) {
    double TestScore = Scorers[E]->score(In);
    // The test score is label-independent for regression; the conditioning
    // happens through which cluster's calibration scores it is compared to.
    std::vector<double> TestScores(Centroids.rows(), TestScore);
    std::vector<double> PVals = Store->flat().pValues(Sel, E, TestScores, Cfg);
    V.Experts.push_back(DetectorCore::judgeExpert(PVals.data(), PVals.size(),
                                                  V.Cluster, Cfg));
  }
  DetectorCore::vote(Cfg, V);
  return V;
}

std::vector<RegressionVerdict>
PromRegressor::assessBatch(const data::Dataset &Batch) const {
  assert(isCalibrated() && "assess before calibrate");
  if (Batch.empty())
    return {};

  std::vector<double> Predictions;
  Matrix Embeds;
  Model.predictWithEmbedBatch(Batch, Predictions, Embeds);
  size_t NumLabels = Centroids.rows();

  return Core.assessBatch<RegressionVerdict>(
      Embeds, NumLabels, /*Discrete=*/nullptr,
      [&](const CalibrationStore &Store, size_t I, RegressionVerdict &V,
          DetectorCore::Lane &L) {
        V.Predicted = Predictions[I];
        V.Cluster = nearestCluster(Centroids, Embeds.rowPtr(I), L.Aux);
        RegressionScoreInput In =
            makeScoreInput(Store, Embeds.rowPtr(I), V.Predicted);
        for (size_t E = 0; E < Scorers.size(); ++E) {
          double TestScore = Scorers[E]->score(In);
          std::fill_n(L.TestScores.data() + E * NumLabels, NumLabels,
                      TestScore);
        }
        return V.Cluster;
      });
}

RegressionVerdict PromRegressor::assess(const data::Sample &S) const {
  return assessOne(*this, S);
}

bool PromRegressor::saveSnapshot(const std::string &Path,
                                 const data::StandardScaler *Scaler) const {
  return Core.saveSnapshot(
      Path, DetectorCore::SnapshotKind::Regressor, Scorers,
      [&](support::ByteWriter &W) {
        W.writeDoubleVec(CalibTargets);
        W.writeU64(Centroids.rows());
        for (size_t C = 0; C < Centroids.rows(); ++C)
          W.writeDoubleVec(Centroids.row(C));
        W.writeF64(ResidualIqr);
      },
      Scaler);
}

bool PromRegressor::loadSnapshot(const std::string &Path,
                                 data::StandardScaler *Scaler) {
  std::vector<double> NewTargets;
  support::FeatureMatrix NewCentroids;
  double NewResidualIqr = 0.0;
  auto ReadFitted = [&](support::ByteReader &R,
                        const std::vector<CalibrationEntry> &Entries) {
    NewTargets = R.readDoubleVec();
    if (R.failed() || NewTargets.size() != Entries.size())
      return false;
    // Every centroid must have the embedding width: nearestCentroidRow
    // scans Centroids.dim() values of each test embedding.
    uint64_t NumCentroids = R.readU64();
    if (R.failed() || NumCentroids == 0 || NumCentroids > Entries.size())
      return false;
    size_t EmbedDim = Entries[0].Embed.size();
    NewCentroids = support::FeatureMatrix(static_cast<size_t>(NumCentroids),
                                          EmbedDim);
    for (size_t C = 0; C < NewCentroids.rows(); ++C) {
      std::vector<double> Centroid = R.readDoubleVec();
      if (R.failed() || Centroid.size() != EmbedDim)
        return false;
      NewCentroids.setRow(C, Centroid.data());
    }
    NewResidualIqr = R.readF64();
    return !R.failed();
  };
  if (!Core.loadSnapshot(Path, DetectorCore::SnapshotKind::Regressor,
                         makeRegressionScorer, ReadFitted, Scorers, Scaler))
    return false;
  CalibTargets = std::move(NewTargets);
  Centroids = std::move(NewCentroids);
  ResidualIqr = NewResidualIqr;
  return true;
}
