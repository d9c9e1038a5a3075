//===- core/Detector.cpp - The PROM drift detectors --------------------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Detector.h"
#include "core/GridSearch.h"
#include "data/Scaler.h"
#include "support/Distance.h"
#include "support/KMeans.h"
#include "support/Matrix.h"
#include "support/Rng.h"
#include "support/Serialize.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"

#include <cassert>
#include <cmath>
#include <cstring>
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

/// Mean of one ExpertOpinion field over a committee (0 when empty).
static double meanOpinion(const std::vector<ExpertOpinion> &Experts,
                          double ExpertOpinion::*Field) {
  double Sum = 0.0;
  for (const ExpertOpinion &E : Experts)
    Sum += E.*Field;
  return Experts.empty() ? 0.0 : Sum / static_cast<double>(Experts.size());
}

double Verdict::meanCredibility() const {
  return meanOpinion(Experts, &ExpertOpinion::Credibility);
}

double Verdict::meanConfidence() const {
  return meanOpinion(Experts, &ExpertOpinion::Confidence);
}

double RegressionVerdict::meanCredibility() const {
  return meanOpinion(Experts, &ExpertOpinion::Credibility);
}

/// Expert judging rule shared by both detectors: one expert's opinion from
/// its p-value row over \p NumLabels labels (classes or clusters), read at
/// the predicted \p Label.
static ExpertOpinion judgeExpert(const double *PVals, size_t NumLabels,
                                 int Label, const PromConfig &Cfg) {
  ExpertOpinion Op;
  Op.Credibility = PVals[static_cast<size_t>(Label)];
  for (size_t L = 0; L < NumLabels; ++L)
    if (PVals[L] > Cfg.Epsilon)
      ++Op.PredictionSetSize;
  Op.Confidence = confidenceFromSetSize(Op.PredictionSetSize, Cfg.ConfidenceC);
  Op.FlagDrift = Op.Credibility < Cfg.credThreshold() &&
                 Op.Confidence < Cfg.ConfThreshold;
  return Op;
}

/// Committee decision rule shared by both detectors: an expert flags drift
/// when both scores fall below their thresholds (Sec. 5); the committee
/// flags when at least MinVotesToFlag experts do (majority by default).
static bool committeeFlags(const std::vector<ExpertOpinion> &Experts,
                           const PromConfig &Cfg, size_t &VotesOut) {
  size_t Votes = 0;
  for (const ExpertOpinion &E : Experts)
    if (E.FlagDrift)
      ++Votes;
  VotesOut = Votes;
  size_t Needed = Cfg.MinVotesToFlag != 0
                      ? Cfg.MinVotesToFlag
                      : (Experts.size() + 1) / 2;
  return Votes >= Needed;
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
    : Model(Model), Cfg(CfgIn), Scorers(std::move(ScorersIn)) {
  assert(!Scorers.empty() && "committee needs at least one expert");
}

/// Applies temperature \p T to a probability vector: softmax(log(p) / T).
/// T > 1 softens saturated outputs; the argmax never changes.
static std::vector<double> applyTemperature(std::vector<double> Probs,
                                            double T) {
  if (T == 1.0)
    return Probs;
  for (double &P : Probs)
    P = std::log(std::max(P, 1e-12)) / T;
  support::softmaxInPlace(Probs);
  return Probs;
}

/// Effective shard count of the calibration store under \p Cfg.
static size_t effectiveShards(const PromConfig &Cfg) {
  return Cfg.NumShards != 0 ? Cfg.NumShards
                            : support::ThreadPool::global().numThreads();
}

std::shared_ptr<const CalibrationStore> PromClassifier::store() const {
  return std::atomic_load(&Calib);
}

void PromClassifier::installStore(
    std::shared_ptr<const CalibrationStore> NewStore) {
  std::atomic_store(&Calib, std::move(NewStore));
}

bool PromClassifier::isCalibrated() const {
  std::shared_ptr<const CalibrationStore> S = store();
  return S && !S->empty();
}

size_t PromClassifier::calibrationSize() const {
  std::shared_ptr<const CalibrationStore> S = store();
  return S ? S->size() : 0;
}

size_t PromClassifier::memoryBytes() const {
  std::shared_ptr<const CalibrationStore> S = store();
  return sizeof(*this) + (S ? S->memoryBytes() : 0);
}

size_t PromClassifier::numShards() const {
  std::shared_ptr<const CalibrationStore> S = store();
  return S && S->numShards() ? S->numShards() : 1;
}

void PromClassifier::reshard(size_t NumShards) {
  std::shared_ptr<const CalibrationStore> Old = store();
  assert(Old && "reshard before calibrate");
  // Copy-modify-publish: in-flight batches keep reading the store they
  // pinned; new batches see the re-partitioned copy.
  auto Fresh = std::make_shared<CalibrationStore>(*Old);
  Fresh->reshard(NumShards);
  installStore(std::move(Fresh));
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

  auto Fresh = std::make_shared<CalibrationStore>();
  Fresh->reserve(CalibSet.size());
  for (size_t I = 0; I < CalibSet.size(); ++I) {
    const data::Sample &S = CalibSet[I];
    CalibrationEntry Entry;
    Entry.Embed = Embeds.row(I);
    Entry.Label = S.Label;
    std::vector<double> Probs = applyTemperature(RawProbs.row(I), Temperature);
    Entry.Scores.reserve(Scorers.size());
    for (const auto &Scorer : Scorers)
      Entry.Scores.push_back(Scorer->score(Probs, S.Label));
    Fresh->add(std::move(Entry));
  }
  Fresh->setMaxEntries(Cfg.MaxCalibEntries);
  Fresh->setIndexPolicy(ClusterIndexPolicy::fromConfig(Cfg));
  Fresh->finalize(effectiveShards(Cfg));
  installStore(std::move(Fresh));
}

size_t PromClassifier::refreshCalibration(const data::Dataset &NewlyLabeled,
                                          bool Incremental) {
  std::shared_ptr<const CalibrationStore> Old = store();
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

  std::vector<CalibrationEntry> NewEntries;
  NewEntries.reserve(NewlyLabeled.size());
  for (size_t I = 0; I < NewlyLabeled.size(); ++I) {
    CalibrationEntry Entry;
    Entry.Embed = Embeds.row(I);
    Entry.Label = NewlyLabeled[I].Label;
    std::vector<double> Probs =
        applyTemperature(RawProbs.row(I), Temperature);
    Entry.Scores.reserve(Scorers.size());
    for (const auto &Scorer : Scorers)
      Entry.Scores.push_back(Scorer->score(Probs, NewlyLabeled[I].Label));
    NewEntries.push_back(std::move(Entry));
  }

  // Stage + refresh on a private copy, then publish: readers pinned to
  // the old store are never disturbed.
  auto Fresh = std::make_shared<CalibrationStore>(*Old);
  Fresh->setMaxEntries(Cfg.MaxCalibEntries);
  Fresh->appendEntries(std::move(NewEntries));
  if (Incremental)
    Fresh->refinalize();
  else
    Fresh->refinalizeFull();
  size_t NewSize = Fresh->size();
  installStore(std::move(Fresh));
  return NewSize;
}

std::vector<double> PromClassifier::softenedProbs(const data::Sample &S) const {
  return applyTemperature(Model.predictProba(S), Temperature);
}

/// Row-wise applyTemperature over a probability matrix; identical
/// arithmetic to the per-sample version on each row.
static void applyTemperatureRows(Matrix &Probs, double T) {
  if (T == 1.0)
    return;
  for (size_t I = 0; I < Probs.rows(); ++I) {
    double *Row = Probs.rowPtr(I);
    for (size_t J = 0; J < Probs.cols(); ++J)
      Row[J] = std::log(std::max(Row[J], 1e-12)) / T;
    support::softmaxRowInPlace(Row, Probs.cols());
  }
}

std::vector<double> PromClassifier::pValues(const data::Sample &S,
                                            size_t Expert) const {
  std::shared_ptr<const CalibrationStore> Store = store();
  assert(Store && !Store->empty() && "assess before calibrate");
  std::vector<double> Probs = softenedProbs(S);
  CalibrationSelection Sel = Store->flat().select(Model.embed(S), Cfg);
  std::vector<double> TestScores(Probs.size());
  for (size_t C = 0; C < Probs.size(); ++C)
    TestScores[C] = Scorers[Expert]->score(Probs, static_cast<int>(C));
  return Store->flat().pValues(Sel, Expert, TestScores, Cfg,
                               Scorers[Expert]->isDiscrete());
}

Verdict PromClassifier::assessSerial(const data::Sample &S) const {
  std::shared_ptr<const CalibrationStore> Store = store();
  assert(Store && !Store->empty() && "assess before calibrate");
  Verdict V;
  V.Probabilities = softenedProbs(S);
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
    V.Experts.push_back(
        judgeExpert(PVals.data(), PVals.size(), V.Predicted, Cfg));
  }
  V.Drifted = committeeFlags(V.Experts, Cfg, V.VotesToFlag);
  return V;
}

void PromClassifier::assessRange(const CalibrationStore &Store,
                                 const Matrix &Probs, const Matrix &Embeds,
                                 size_t Begin, size_t End,
                                 std::vector<Verdict> &Out,
                                 CalibrationStore::BatchPrunedScan &Scan)
    const {
  size_t NumLabels = Probs.cols();
  size_t NumExp = Scorers.size();

  // Per-lane scratch, reused across every sample of the range.
  AssessmentScratch Scratch;
  std::vector<uint8_t> Discrete(NumExp);
  for (size_t E = 0; E < NumExp; ++E)
    Discrete[E] = Scorers[E]->isDiscrete() ? 1 : 0;
  std::vector<double> TestScores(NumExp * NumLabels);
  std::vector<double> PVals(NumExp * NumLabels);

  for (size_t I = Begin; I < End; ++I) {
    Verdict &V = Out[I];
    V.Probabilities.assign(Probs.rowPtr(I), Probs.rowPtr(I) + NumLabels);
    V.Predicted = static_cast<int>(support::argmaxRow(Probs, I));

    Store.selectForAssessment(Embeds.rowPtr(I), Cfg, Scratch, &Scan, I);
    for (size_t E = 0; E < NumExp; ++E)
      Scorers[E]->scoreAll(V.Probabilities, TestScores.data() + E * NumLabels);
    Store.pValuesAllExperts(Scratch, TestScores.data(), NumLabels, Cfg,
                            Discrete.data(), PVals.data());

    V.Experts.clear();
    V.Experts.reserve(NumExp);
    for (size_t E = 0; E < NumExp; ++E)
      V.Experts.push_back(judgeExpert(PVals.data() + E * NumLabels,
                                      NumLabels, V.Predicted, Cfg));
    V.Drifted = committeeFlags(V.Experts, Cfg, V.VotesToFlag);
  }
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
  // One pinned store per batch: a concurrent refresh swap cannot split
  // the batch across calibration generations.
  std::shared_ptr<const CalibrationStore> Store = store();
  assert(Store && !Store->empty() && "assess before calibrate");
  assert(RawProbs.rows() == Embeds.rows() && "forwards row mismatch");
  std::vector<Verdict> Out(RawProbs.rows());
  if (Out.empty())
    return Out;

  Matrix Probs = RawProbs;
  applyTemperatureRows(Probs, Temperature);
  assert(Embeds.cols() == Store->embedDim() &&
         "embedding width does not match the calibration set");

  // One batched centroid-distance pass for the whole batch (inactive when
  // the pruned routing is not in force) — the per-query selections then
  // read their own rows instead of re-ranking the lists from scratch.
  CalibrationStore::BatchPrunedScan Scan;
  Store->prepareBatchPrunedScan(Embeds.rowPtr(0), Embeds.rows(),
                                Embeds.cols(), Cfg, Scan);

  support::ThreadPool::global().parallelFor(
      Out.size(), [&](size_t Begin, size_t End) {
        assessRange(*Store, Probs, Embeds, Begin, End, Out, Scan);
      });
  return Out;
}

Verdict PromClassifier::assess(const data::Sample &S) const {
  data::Dataset One;
  One.reserve(1);
  One.add(S);
  std::vector<Verdict> Out = assessBatch(One);
  return std::move(Out.front());
}

//===----------------------------------------------------------------------===//
// Snapshots
//
// Format version 2 (see support/Serialize.h for the envelope and
// docs/SNAPSHOT_FORMAT.md for the full layout): a version and kind tag,
// the full PromConfig, detector-specific fitted state, the committee by
// scorer name, and the calibration entries. finalize() rebuilds every
// derived index deterministically from the entries, so a restored
// detector's verdicts are bit-identical to the saving one's.
// loadSnapshot() stages everything locally and commits only after the
// whole payload validated, so a failed load leaves the detector untouched.
//
// Version history: v2 appended PromConfig::MaxCalibEntries to the config
// block (the online-refresh store bound). Loaders accept exactly the
// current version — snapshots are restart artifacts, not archives; the
// self-healing server simply writes a fresh generation after an upgrade.
//===----------------------------------------------------------------------===//

namespace {

constexpr uint32_t SnapshotFormatVersion = 2;
constexpr uint32_t SnapshotKindClassifier = 1;
constexpr uint32_t SnapshotKindRegressor = 2;

void writeConfig(support::ByteWriter &W, const PromConfig &Cfg) {
  W.writeF64(Cfg.Epsilon);
  W.writeF64(Cfg.CredThreshold);
  W.writeF64(Cfg.ConfThreshold);
  W.writeF64(Cfg.ConfidenceC);
  W.writeF64(Cfg.Tau);
  W.writeU8(Cfg.AutoTau ? 1 : 0);
  W.writeF64(Cfg.TauScale);
  W.writeI32(Cfg.WeightNormPower);
  W.writeF64(Cfg.SelectFraction);
  W.writeU64(Cfg.SelectAllBelow);
  W.writeU32(static_cast<uint32_t>(Cfg.WeightMode));
  W.writeU8(Cfg.SmoothedPValues ? 1 : 0);
  W.writeU64(Cfg.MinVotesToFlag);
  W.writeU64(Cfg.KnnK);
  W.writeU64(Cfg.MinClusters);
  W.writeU64(Cfg.MaxClusters);
  W.writeU64(Cfg.FixedClusters);
  W.writeU64(Cfg.NumShards);
  W.writeU64(Cfg.MaxCalibEntries); // Appended in format version 2.
}

bool readConfig(support::ByteReader &R, PromConfig &Cfg) {
  Cfg.Epsilon = R.readF64();
  Cfg.CredThreshold = R.readF64();
  Cfg.ConfThreshold = R.readF64();
  Cfg.ConfidenceC = R.readF64();
  Cfg.Tau = R.readF64();
  Cfg.AutoTau = R.readU8() != 0;
  Cfg.TauScale = R.readF64();
  Cfg.WeightNormPower = R.readI32();
  Cfg.SelectFraction = R.readF64();
  Cfg.SelectAllBelow = static_cast<size_t>(R.readU64());
  uint32_t Mode = R.readU32();
  if (Mode > static_cast<uint32_t>(CalibrationWeightMode::None))
    return false;
  Cfg.WeightMode = static_cast<CalibrationWeightMode>(Mode);
  Cfg.SmoothedPValues = R.readU8() != 0;
  Cfg.MinVotesToFlag = static_cast<size_t>(R.readU64());
  Cfg.KnnK = static_cast<size_t>(R.readU64());
  Cfg.MinClusters = static_cast<size_t>(R.readU64());
  Cfg.MaxClusters = static_cast<size_t>(R.readU64());
  Cfg.FixedClusters = static_cast<size_t>(R.readU64());
  Cfg.NumShards = static_cast<size_t>(R.readU64());
  Cfg.MaxCalibEntries = static_cast<size_t>(R.readU64());
  return !R.failed();
}

void writeEntries(support::ByteWriter &W, const CalibrationStore &Store) {
  W.writeU64(Store.size());
  for (size_t I = 0; I < Store.size(); ++I) {
    const CalibrationEntry &E = Store.entry(I);
    W.writeDoubleVec(E.Embed);
    W.writeI32(E.Label);
    W.writeDoubleVec(E.Scores);
  }
}

/// Reads the entry block into \p Store (not finalized). Validates shape
/// consistency: every embed the same width, every entry one score per
/// expert of the committee being restored.
bool readEntries(support::ByteReader &R, size_t NumExperts,
                 CalibrationStore &Store) {
  uint64_t Count = R.readU64();
  if (R.failed() || Count == 0)
    return false;
  size_t EmbedDim = 0;
  for (uint64_t I = 0; I < Count; ++I) {
    CalibrationEntry E;
    E.Embed = R.readDoubleVec();
    E.Label = R.readI32();
    E.Scores = R.readDoubleVec();
    if (R.failed() || E.Embed.empty() || E.Scores.size() != NumExperts)
      return false;
    if (I == 0)
      EmbedDim = E.Embed.size();
    else if (E.Embed.size() != EmbedDim)
      return false;
    Store.add(std::move(E));
  }
  return true;
}

void writeScaler(support::ByteWriter &W, const data::StandardScaler *Scaler) {
  if (!Scaler || !Scaler->isFitted()) {
    W.writeU8(0);
    return;
  }
  W.writeU8(1);
  W.writeDoubleVec(Scaler->means());
  W.writeDoubleVec(Scaler->stddevs());
}

/// Parses the scaler block; restores into \p Scaler when the snapshot has
/// one and the caller asked for it.
bool readScaler(support::ByteReader &R, data::StandardScaler *Scaler) {
  uint8_t Present = R.readU8();
  if (R.failed() || Present > 1)
    return false;
  if (!Present)
    return true;
  std::vector<double> Means = R.readDoubleVec();
  std::vector<double> Stddevs = R.readDoubleVec();
  if (R.failed() || Means.size() != Stddevs.size() || Means.empty())
    return false;
  if (Scaler)
    Scaler->restore(std::move(Means), std::move(Stddevs));
  return true;
}

} // namespace

bool PromClassifier::saveSnapshot(const std::string &Path,
                                  const data::StandardScaler *Scaler) const {
  std::shared_ptr<const CalibrationStore> Store = store();
  if (!Store || Store->empty())
    return false;
  support::ByteWriter W;
  W.writeU32(SnapshotFormatVersion);
  W.writeU32(SnapshotKindClassifier);
  writeConfig(W, Cfg);
  W.writeF64(Temperature);
  W.writeU32(static_cast<uint32_t>(Scorers.size()));
  for (const auto &Scorer : Scorers)
    W.writeString(Scorer->name());
  writeEntries(W, *Store);
  // The *requested* shard count, not the built (block-clamped) one: a
  // restored store must keep rebalancing toward the configured
  // parallelism as online refreshes grow it past the clamp.
  W.writeU64(Store->targetShards());
  writeScaler(W, Scaler);
  return W.writeFile(Path);
}

bool PromClassifier::loadSnapshot(const std::string &Path,
                                  data::StandardScaler *Scaler) {
  support::ByteReader R;
  if (!R.loadFile(Path))
    return false;
  if (R.readU32() != SnapshotFormatVersion ||
      R.readU32() != SnapshotKindClassifier)
    return false;

  PromConfig NewCfg;
  if (!readConfig(R, NewCfg))
    return false;
  double NewTemperature = R.readF64();

  uint32_t NumScorers = R.readU32();
  if (R.failed() || NumScorers == 0)
    return false;
  std::vector<std::unique_ptr<ClassificationScorer>> NewScorers;
  for (uint32_t I = 0; I < NumScorers; ++I) {
    std::unique_ptr<ClassificationScorer> Scorer =
        makeClassificationScorer(R.readString());
    if (!Scorer)
      return false;
    NewScorers.push_back(std::move(Scorer));
  }

  auto NewStore = std::make_shared<CalibrationStore>();
  if (!readEntries(R, NewScorers.size(), *NewStore))
    return false;
  size_t Shards = static_cast<size_t>(R.readU64());

  data::StandardScaler StagedScaler;
  if (!readScaler(R, &StagedScaler))
    return false;
  if (R.failed() || !R.atEnd())
    return false;

  Cfg = NewCfg;
  Temperature = NewTemperature;
  Scorers = std::move(NewScorers);
  NewStore->setMaxEntries(Cfg.MaxCalibEntries);
  NewStore->setIndexPolicy(ClusterIndexPolicy::fromConfig(Cfg));
  NewStore->finalize(Shards);
  installStore(std::move(NewStore));
  if (Scaler && StagedScaler.isFitted())
    *Scaler = std::move(StagedScaler);
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
    : Model(Model), Cfg(CfgIn), Scorers(std::move(ScorersIn)) {
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

RegressionScoreInput PromRegressor::makeScoreInput(const double *Embed,
                                                   double Prediction) const {
  RegressionScoreInput In;
  In.Prediction = Prediction;
  In.ResidualIqr = ResidualIqr;
  knnStats(Calib.flat().embedMatrix(), CalibTargets, Embed, Cfg.KnnK,
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

  Calib.clear();
  Calib.reserve(N);
  for (size_t I = 0; I < N; ++I) {
    CalibrationEntry Entry;
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
    Calib.add(std::move(Entry));
  }
  Calib.setIndexPolicy(ClusterIndexPolicy::fromConfig(Cfg));
  Calib.finalize(effectiveShards(Cfg));
}

RegressionVerdict PromRegressor::assessSerial(const data::Sample &S) const {
  assert(!Calib.empty() && "assess before calibrate");
  RegressionVerdict V;
  V.Predicted = Model.predict(S);

  std::vector<double> Embed = Model.embed(S);
  std::vector<double> DistBuf;
  V.Cluster = nearestCluster(Centroids, Embed.data(), DistBuf);

  RegressionScoreInput In = makeScoreInput(Embed.data(), V.Predicted);
  CalibrationSelection Sel = Calib.flat().select(Embed, Cfg);

  V.Experts.reserve(Scorers.size());
  for (size_t E = 0; E < Scorers.size(); ++E) {
    double TestScore = Scorers[E]->score(In);
    // The test score is label-independent for regression; the conditioning
    // happens through which cluster's calibration scores it is compared to.
    std::vector<double> TestScores(Centroids.rows(), TestScore);
    std::vector<double> PVals = Calib.flat().pValues(Sel, E, TestScores, Cfg);
    V.Experts.push_back(
        judgeExpert(PVals.data(), PVals.size(), V.Cluster, Cfg));
  }
  V.Drifted = committeeFlags(V.Experts, Cfg, V.VotesToFlag);
  return V;
}

void PromRegressor::assessRange(const std::vector<double> &Predictions,
                                const Matrix &Embeds, size_t Begin,
                                size_t End,
                                std::vector<RegressionVerdict> &Out,
                                CalibrationStore::BatchPrunedScan &Scan) const {
  size_t NumLabels = Centroids.rows();
  size_t NumExp = Scorers.size();

  AssessmentScratch Scratch;
  std::vector<double> DistBuf;
  std::vector<double> TestScores(NumExp * NumLabels);
  std::vector<double> PVals(NumExp * NumLabels);

  for (size_t I = Begin; I < End; ++I) {
    RegressionVerdict &V = Out[I];
    V.Predicted = Predictions[I];
    V.Cluster = nearestCluster(Centroids, Embeds.rowPtr(I), DistBuf);

    RegressionScoreInput In = makeScoreInput(Embeds.rowPtr(I), V.Predicted);
    Calib.selectForAssessment(Embeds.rowPtr(I), Cfg, Scratch, &Scan, I);
    for (size_t E = 0; E < NumExp; ++E) {
      double TestScore = Scorers[E]->score(In);
      for (size_t L = 0; L < NumLabels; ++L)
        TestScores[E * NumLabels + L] = TestScore;
    }
    Calib.pValuesAllExperts(Scratch, TestScores.data(), NumLabels, Cfg,
                            /*DiscreteFlags=*/nullptr, PVals.data());

    V.Experts.clear();
    V.Experts.reserve(NumExp);
    for (size_t E = 0; E < NumExp; ++E)
      V.Experts.push_back(judgeExpert(PVals.data() + E * NumLabels,
                                      NumLabels, V.Cluster, Cfg));
    V.Drifted = committeeFlags(V.Experts, Cfg, V.VotesToFlag);
  }
}

std::vector<RegressionVerdict>
PromRegressor::assessBatch(const data::Dataset &Batch) const {
  assert(!Calib.empty() && "assess before calibrate");
  std::vector<RegressionVerdict> Out(Batch.size());
  if (Batch.empty())
    return Out;

  std::vector<double> Predictions;
  Matrix Embeds;
  Model.predictWithEmbedBatch(Batch, Predictions, Embeds);
  assert(Embeds.cols() == Calib.embedDim() &&
         "embedding width does not match the calibration set");

  // One batch-amortized centroid pass for the store's pruned selection
  // (inactive when the routing is not in force). Chunks are disjoint query
  // rows and each block row is bit-identical to the per-query kernel call,
  // so verdicts cannot change.
  CalibrationStore::BatchPrunedScan Scan;
  Calib.prepareBatchPrunedScan(Embeds.rowPtr(0), Embeds.rows(),
                               Embeds.cols(), Cfg, Scan);

  support::ThreadPool::global().parallelFor(
      Batch.size(), [&](size_t Begin, size_t End) {
        assessRange(Predictions, Embeds, Begin, End, Out, Scan);
      });
  return Out;
}

RegressionVerdict PromRegressor::assess(const data::Sample &S) const {
  data::Dataset One;
  One.reserve(1);
  One.add(S);
  std::vector<RegressionVerdict> Out = assessBatch(One);
  return std::move(Out.front());
}

bool PromRegressor::saveSnapshot(const std::string &Path,
                                 const data::StandardScaler *Scaler) const {
  if (!isCalibrated())
    return false;
  support::ByteWriter W;
  W.writeU32(SnapshotFormatVersion);
  W.writeU32(SnapshotKindRegressor);
  writeConfig(W, Cfg);
  W.writeU32(static_cast<uint32_t>(Scorers.size()));
  for (const auto &Scorer : Scorers)
    W.writeString(Scorer->name());
  writeEntries(W, Calib);
  // The k-NN embedding block: a second copy of the entries' embeddings,
  // kept for the byte layout (the loader checks it against the entries).
  W.writeU64(Calib.size());
  for (size_t I = 0; I < Calib.size(); ++I)
    W.writeDoubleVec(Calib.entry(I).Embed);
  W.writeDoubleVec(CalibTargets);
  W.writeU64(Centroids.rows());
  for (size_t C = 0; C < Centroids.rows(); ++C)
    W.writeDoubleVec(Centroids.row(C));
  W.writeF64(ResidualIqr);
  W.writeU64(Calib.targetShards()); // Requested, not block-clamped.
  writeScaler(W, Scaler);
  return W.writeFile(Path);
}

bool PromRegressor::loadSnapshot(const std::string &Path,
                                 data::StandardScaler *Scaler) {
  support::ByteReader R;
  if (!R.loadFile(Path))
    return false;
  if (R.readU32() != SnapshotFormatVersion ||
      R.readU32() != SnapshotKindRegressor)
    return false;

  PromConfig NewCfg;
  if (!readConfig(R, NewCfg))
    return false;

  uint32_t NumScorers = R.readU32();
  if (R.failed() || NumScorers == 0)
    return false;
  std::vector<std::unique_ptr<RegressionScorer>> NewScorers;
  for (uint32_t I = 0; I < NumScorers; ++I) {
    std::unique_ptr<RegressionScorer> Scorer =
        makeRegressionScorer(R.readString());
    if (!Scorer)
      return false;
    NewScorers.push_back(std::move(Scorer));
  }

  CalibrationStore NewStore;
  if (!readEntries(R, NewScorers.size(), NewStore))
    return false;

  // The k-NN lookups scan the store's own embedding block, so the
  // snapshot's copy must be bit-equal to the entries' embeddings — a
  // checksum-valid file that disagrees is hostile, not merely stale.
  uint64_t NumEmbeds = R.readU64();
  if (R.failed() || NumEmbeds != NewStore.size())
    return false;
  for (size_t I = 0; I < NewStore.size(); ++I) {
    std::vector<double> Embed = R.readDoubleVec();
    const std::vector<double> &Want = NewStore.entry(I).Embed;
    if (R.failed() || Embed.size() != Want.size() ||
        std::memcmp(Embed.data(), Want.data(),
                    Want.size() * sizeof(double)) != 0)
      return false;
  }
  std::vector<double> NewTargets = R.readDoubleVec();
  if (R.failed() || NewTargets.size() != NewStore.size())
    return false;

  // Every centroid must have the embedding width: nearestCentroidRow
  // scans Centroids.dim() values of each test embedding.
  uint64_t NumCentroids = R.readU64();
  if (R.failed() || NumCentroids == 0 || NumCentroids > NewStore.size())
    return false;
  size_t EmbedDim = NewStore.entry(0).Embed.size();
  support::FeatureMatrix NewCentroids(static_cast<size_t>(NumCentroids),
                                      EmbedDim);
  for (size_t C = 0; C < NewCentroids.rows(); ++C) {
    std::vector<double> Centroid = R.readDoubleVec();
    if (R.failed() || Centroid.size() != EmbedDim)
      return false;
    NewCentroids.setRow(C, Centroid.data());
  }
  double NewResidualIqr = R.readF64();
  size_t Shards = static_cast<size_t>(R.readU64());

  data::StandardScaler StagedScaler;
  if (!readScaler(R, &StagedScaler))
    return false;
  if (R.failed() || !R.atEnd())
    return false;

  Cfg = NewCfg;
  Scorers = std::move(NewScorers);
  Calib = std::move(NewStore);
  Calib.setIndexPolicy(ClusterIndexPolicy::fromConfig(Cfg));
  Calib.finalize(Shards);
  CalibTargets = std::move(NewTargets);
  Centroids = std::move(NewCentroids);
  ResidualIqr = NewResidualIqr;
  if (Scaler && StagedScaler.isFitted())
    *Scaler = std::move(StagedScaler);
  return true;
}
