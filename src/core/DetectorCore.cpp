//===- core/DetectorCore.cpp - Machinery shared by the detectors ------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/DetectorCore.h"
#include "data/Scaler.h"
#include "support/Serialize.h"

using namespace prom;

void DetectorCore::reshard(size_t NumShards) {
  std::shared_ptr<const CalibrationStore> Old = store();
  assert(Old && "reshard before calibrate");
  // Copy-modify-publish: in-flight batches keep reading the store they
  // pinned; new batches see the re-partitioned copy.
  auto Fresh = std::make_shared<CalibrationStore>(*Old);
  Fresh->reshard(NumShards);
  installStore(std::move(Fresh));
}

void DetectorCore::publish(std::vector<CalibrationEntry> Entries,
                           size_t NumShards) {
  auto Fresh = std::make_shared<CalibrationStore>();
  Fresh->reserve(Entries.size());
  Fresh->appendEntries(std::move(Entries));
  Fresh->setMaxEntries(Cfg.MaxCalibEntries);
  Fresh->setIndexPolicy(ClusterIndexPolicy::fromConfig(Cfg));
  Fresh->finalize(NumShards);
  installStore(std::move(Fresh));
}

/// Mean of one ExpertOpinion field over a committee (0 when empty).
static double meanOpinion(const std::vector<ExpertOpinion> &Experts,
                          double ExpertOpinion::*Field) {
  double Sum = 0.0;
  for (const ExpertOpinion &E : Experts)
    Sum += E.*Field;
  return Experts.empty() ? 0.0 : Sum / static_cast<double>(Experts.size());
}

double CommitteeVerdict::meanCredibility() const {
  return meanOpinion(Experts, &ExpertOpinion::Credibility);
}

double CommitteeVerdict::meanConfidence() const {
  return meanOpinion(Experts, &ExpertOpinion::Confidence);
}

void DetectorCore::committeeTail(const CalibrationStore &Store,
                                 const double *Embed,
                                 CalibrationStore::BatchPrunedScan &Scan,
                                 size_t QueryIndex, const uint8_t *Discrete,
                                 int Label, Lane &L,
                                 CommitteeVerdict &V) const {
  size_t NumLabels = L.NumLabels;
  size_t NumExp = L.TestScores.size() / NumLabels;
  Store.selectForAssessment(Embed, Cfg, L.Scratch, &Scan, QueryIndex);
  Store.pValuesAllExperts(L.Scratch, L.TestScores.data(), NumLabels, Cfg,
                          Discrete, L.PVals.data());
  V.Experts.clear();
  V.Experts.reserve(NumExp);
  for (size_t E = 0; E < NumExp; ++E)
    V.Experts.push_back(
        judgeExpert(L.PVals.data() + E * NumLabels, NumLabels, Label, Cfg));
  vote(Cfg, V);
}

ExpertOpinion DetectorCore::judgeExpert(const double *PVals, size_t NumLabels,
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

void DetectorCore::vote(const PromConfig &Cfg, CommitteeVerdict &V) {
  V.VotesToFlag = 0;
  for (const ExpertOpinion &E : V.Experts)
    if (E.FlagDrift)
      ++V.VotesToFlag;
  size_t Needed = Cfg.MinVotesToFlag != 0
                      ? Cfg.MinVotesToFlag
                      : (V.Experts.size() + 1) / 2;
  V.Drifted = V.VotesToFlag >= Needed;
}

//===----------------------------------------------------------------------===//
// Snapshots
//
// Format version 3; docs/SNAPSHOT_FORMAT.md has the layout and the version
// history. finalize() rebuilds every derived index deterministically from
// the entries, so a restored detector's verdicts are bit-identical to the
// saving one's. Loads stage everything locally and commit only after the
// whole payload validated, so a failed load leaves the detector untouched.
// Loaders accept exactly the current version: snapshots are restart
// artifacts, not archives.
//===----------------------------------------------------------------------===//

namespace {

constexpr uint32_t SnapshotFormatVersion = 3;

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

/// Reads the entry block into \p Entries. Validates shape consistency:
/// every embed the same width, every entry one score per expert of the
/// committee being restored.
bool readEntries(support::ByteReader &R, size_t NumExperts,
                 std::vector<CalibrationEntry> &Entries) {
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
    Entries.push_back(std::move(E));
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
/// one.
bool readScaler(support::ByteReader &R, data::StandardScaler &Scaler) {
  uint8_t Present = R.readU8();
  if (R.failed() || Present > 1)
    return false;
  if (!Present)
    return true;
  std::vector<double> Means = R.readDoubleVec();
  std::vector<double> Stddevs = R.readDoubleVec();
  if (R.failed() || Means.size() != Stddevs.size() || Means.empty())
    return false;
  Scaler.restore(std::move(Means), std::move(Stddevs));
  return true;
}

} // namespace

bool DetectorCore::writeSnapshot(const std::string &Path, SnapshotKind Kind,
                                 const std::vector<std::string> &ScorerNames,
                                 const FittedWriter &WriteFitted,
                                 const data::StandardScaler *Scaler) const {
  std::shared_ptr<const CalibrationStore> Store = store();
  if (!Store || Store->empty())
    return false;
  support::ByteWriter W;
  W.writeU32(SnapshotFormatVersion);
  W.writeU32(static_cast<uint32_t>(Kind));
  writeConfig(W, Cfg);
  W.writeU32(static_cast<uint32_t>(ScorerNames.size()));
  for (const std::string &Name : ScorerNames)
    W.writeString(Name);
  writeEntries(W, *Store);
  WriteFitted(W);
  // The *requested* shard count, not the built (block-clamped) one: a
  // restored store must keep rebalancing toward the configured
  // parallelism as online refreshes grow it past the clamp.
  W.writeU64(Store->targetShards());
  writeScaler(W, Scaler);
  return W.writeFile(Path);
}

bool DetectorCore::readSnapshot(
    const std::string &Path, SnapshotKind Kind,
    const std::function<bool(const std::string &)> &AddScorer,
    const FittedReader &ReadFitted, data::StandardScaler *Scaler) {
  support::ByteReader R;
  if (!R.loadFile(Path))
    return false;
  if (R.readU32() != SnapshotFormatVersion ||
      R.readU32() != static_cast<uint32_t>(Kind))
    return false;
  PromConfig NewCfg;
  if (!readConfig(R, NewCfg))
    return false;

  uint32_t NumScorers = R.readU32();
  if (R.failed() || NumScorers == 0)
    return false;
  for (uint32_t I = 0; I < NumScorers; ++I)
    if (!AddScorer(R.readString()))
      return false;

  std::vector<CalibrationEntry> Entries;
  if (!readEntries(R, NumScorers, Entries) || !ReadFitted(R, Entries))
    return false;
  size_t Shards = static_cast<size_t>(R.readU64());
  data::StandardScaler StagedScaler;
  if (!readScaler(R, StagedScaler) || R.failed() || !R.atEnd())
    return false;

  Cfg = NewCfg;
  publish(std::move(Entries), Shards);
  if (Scaler && StagedScaler.isFitted())
    *Scaler = std::move(StagedScaler);
  return true;
}
