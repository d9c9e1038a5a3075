//===- core/DetectorCore.h - Machinery shared by the detectors --*- C++ -*-===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The detector core behind PromClassifier and PromRegressor: the config,
/// the RCU-published calibration store, the batch driver with its
/// per-sample committee tail, and the snapshot envelope. The detectors
/// keep only what differs (model forward, test scores, fitted state);
/// their per-sample part enters the batch driver as an inlined callable,
/// so the hot loop makes no per-sample virtual or std::function call.
///
//===----------------------------------------------------------------------===//

#ifndef PROM_CORE_DETECTORCORE_H
#define PROM_CORE_DETECTORCORE_H

#include "core/CalibrationStore.h"
#include "core/PromConfig.h"
#include "data/Dataset.h"
#include "support/Matrix.h"
#include "support/ThreadPool.h"

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace prom {
namespace data {
class StandardScaler;
} // namespace data
namespace support {
class ByteReader;
class ByteWriter;
} // namespace support

/// One nonconformity function's judgement of a prediction (Sec. 5.3).
struct ExpertOpinion {
  double Credibility = 0.0;   ///< P-value of the predicted label/cluster.
  double Confidence = 0.0;    ///< Gaussian of the prediction-set size.
  size_t PredictionSetSize = 0; ///< Labels with p-value above epsilon.
  bool FlagDrift = false;     ///< Both scores below their thresholds.
};

/// The committee part of a verdict, common to both detectors' verdicts.
struct CommitteeVerdict {
  bool Drifted = false;               ///< Committee flagged this input.
  size_t VotesToFlag = 0;             ///< Experts that voted "drift".
  std::vector<ExpertOpinion> Experts; ///< One opinion per committee expert.

  /// Mean expert credibility (0 with an empty committee).
  double meanCredibility() const;
  /// Mean expert confidence (0 with an empty committee).
  double meanConfidence() const;
};

/// The detector core (see the file comment). Assessments are safe against
/// a concurrent refresh or reshard, which publish a new store; calibrate
/// and snapshot loads also rewrite the config, and all writers must be
/// serialized by the caller.
class DetectorCore {
public:
  /// Detector kind tag of a snapshot (docs/SNAPSHOT_FORMAT.md).
  enum class SnapshotKind : uint32_t {
    Classifier = 1, ///< A PromClassifier snapshot.
    Regressor = 2,  ///< A PromRegressor snapshot.
  };
  /// Writes a detector's kind-specific fitted block.
  using FittedWriter = std::function<void(support::ByteWriter &)>;
  /// Parses and stages a detector's fitted block, given the snapshot's
  /// entries for cross-checks; false rejects it.
  using FittedReader = std::function<bool(
      support::ByteReader &, const std::vector<CalibrationEntry> &)>;

  /// Starts uncalibrated under \p Cfg.
  explicit DetectorCore(const PromConfig &Cfg) : Cfg(Cfg) {}

  const PromConfig &config() const { return Cfg; } ///< Current knobs.
  PromConfig &config() { return Cfg; }             ///< Mutable knobs.

  /// Pins the live store (atomic load; null before calibration). Each
  /// assessment pins one store up front, so a concurrent swap never
  /// splits a batch across two stores; the old generation lives until its
  /// last in-flight batch retires (RCU-style reclamation).
  std::shared_ptr<const CalibrationStore> store() const {
    return std::atomic_load(&Calib);
  }
  /// Publishes \p NewStore (atomic swap).
  void installStore(std::shared_ptr<const CalibrationStore> NewStore) {
    std::atomic_store(&Calib, std::move(NewStore));
  }
  /// True once a non-empty store is published.
  bool isCalibrated() const { return calibrationSize() != 0; }
  /// Live calibration entries (0 before calibration).
  size_t calibrationSize() const {
    auto S = store();
    return S ? S->size() : 0;
  }
  /// Estimated heap footprint of the live store with its indexes.
  size_t memoryBytes() const {
    auto S = store();
    return S ? S->memoryBytes() : 0;
  }
  /// Shard count of the live store (1 before calibration).
  size_t numShards() const {
    auto S = store();
    return S && S->numShards() ? S->numShards() : 1;
  }
  /// Re-partitions a copy of the live store into \p NumShards shards and
  /// publishes it; verdicts are unchanged by contract.
  void reshard(size_t NumShards);
  /// Shard count of a fresh calibration: PromConfig::NumShards, or one
  /// per ThreadPool lane when it is 0.
  size_t effectiveShards() const {
    return Cfg.NumShards ? Cfg.NumShards
                         : support::ThreadPool::global().numThreads();
  }
  /// The one publish step of a fresh store: builds it from \p Entries
  /// under the config's entry bound and index policy, finalizes it into
  /// \p NumShards shards and publishes it.
  void publish(std::vector<CalibrationEntry> Entries, size_t NumShards);

  /// Per-lane scratch of the committee tail, reused across a range.
  struct Lane {
    /// Sizes the buffers for \p NumExperts x \p NumLabels.
    Lane(size_t NumExperts, size_t NumLabels)
        : NumLabels(NumLabels), TestScores(NumExperts * NumLabels),
          PVals(NumExperts * NumLabels) {}
    size_t NumLabels;          ///< Labels (classes or clusters) per expert.
    AssessmentScratch Scratch; ///< Selection and p-value accumulators.
    std::vector<double> TestScores; ///< NumLabels per expert, detector-filled.
    std::vector<double> PVals; ///< The tail's p-values, same layout.
    std::vector<double> Aux;   ///< Detector-owned scratch.
  };

  /// The batch driver: pins the store, checks the width of \p Embeds (row
  /// I belongs to sample I), prepares the batch's pruned-scan pass once,
  /// then runs ThreadPool ranges with one Lane each. Per sample,
  /// Sample(Store, I, Verdict, Lane) fills the prediction and
  /// Lane.TestScores and returns the label the experts judge; the
  /// committee tail fills the rest. \p Discrete flags the experts with
  /// discrete scores (null: none).
  template <typename VerdictT, typename SampleFn>
  std::vector<VerdictT> assessBatch(const support::Matrix &Embeds,
                                    size_t NumLabels, const uint8_t *Discrete,
                                    SampleFn &&Sample) const {
    std::shared_ptr<const CalibrationStore> Store = store();
    assert(Store && !Store->empty() && "assess before calibrate");
    std::vector<VerdictT> Out(Embeds.rows());
    if (Out.empty())
      return Out;
    assert(Embeds.cols() == Store->embedDim() &&
           "embedding width does not match the calibration set");
    // One centroid-distance pass for the whole batch (inactive unless the
    // pruned routing is in force); each query then reads its own row and
    // writes its own stats slot, so ranges never share state.
    CalibrationStore::BatchPrunedScan Scan;
    Store->prepareBatchPrunedScan(Embeds.rowPtr(0), Embeds.rows(),
                                  Embeds.cols(), Cfg, Scan);
    support::ThreadPool::global().parallelFor(
        Out.size(), [&](size_t Begin, size_t End) {
          Lane L(Store->numExperts(), NumLabels);
          for (size_t I = Begin; I < End; ++I) {
            VerdictT &V = Out[I];
            int Label = Sample(*Store, I, V, L);
            committeeTail(*Store, Embeds.rowPtr(I), Scan, I, Discrete, Label,
                          L, V);
          }
        });
    return Out;
  }

  /// One expert's opinion from its p-value row over \p NumLabels labels
  /// (classes or clusters), read at \p Label.
  static ExpertOpinion judgeExpert(const double *PVals, size_t NumLabels,
                                   int Label, const PromConfig &Cfg);

  /// The committee vote over V.Experts into V.Drifted and V.VotesToFlag:
  /// an expert flags drift when both its scores fall below their
  /// thresholds (Sec. 5); the committee flags when at least MinVotesToFlag
  /// experts do (majority by default).
  static void vote(const PromConfig &Cfg, CommitteeVerdict &V);

  /// Writes the live store's snapshot to \p Path (layout in
  /// docs/SNAPSHOT_FORMAT.md): header, the names of \p Scorers, entries,
  /// the block \p WriteFitted writes, requested shard count, optional
  /// \p Scaler. False before calibration or on I/O failure.
  template <typename ScorerT>
  bool saveSnapshot(const std::string &Path, SnapshotKind Kind,
                    const std::vector<std::unique_ptr<ScorerT>> &Scorers,
                    const FittedWriter &WriteFitted,
                    const data::StandardScaler *Scaler) const {
    std::vector<std::string> Names;
    for (const auto &Scorer : Scorers)
      Names.push_back(Scorer->name());
    return writeSnapshot(Path, Kind, Names, WriteFitted, Scaler);
  }

  /// Restores a snapshot of \p Kind: validates the whole file (building
  /// the committee through \p Make, staging the fitted block through
  /// \p ReadFitted), then commits the config, the store, \p Scorers and
  /// the scaler (into \p Scaler, when saved). False, with nothing
  /// committed, on any failure; the caller commits its staged block on
  /// true.
  template <typename ScorerT>
  bool loadSnapshot(const std::string &Path, SnapshotKind Kind,
                    std::unique_ptr<ScorerT> (*Make)(const std::string &),
                    const FittedReader &ReadFitted,
                    std::vector<std::unique_ptr<ScorerT>> &Scorers,
                    data::StandardScaler *Scaler) {
    std::vector<std::unique_ptr<ScorerT>> NewScorers;
    auto AddScorer = [&](const std::string &Name) {
      NewScorers.push_back(Make(Name));
      return NewScorers.back() != nullptr;
    };
    if (!readSnapshot(Path, Kind, AddScorer, ReadFitted, Scaler))
      return false;
    Scorers = std::move(NewScorers);
    return true;
  }

private:
  /// The per-sample committee tail: selects for \p Embed (query
  /// \p QueryIndex of \p Scan), folds the p-values of L.TestScores, judges
  /// every expert at \p Label and votes, into the committee part of \p V.
  void committeeTail(const CalibrationStore &Store, const double *Embed,
                     CalibrationStore::BatchPrunedScan &Scan,
                     size_t QueryIndex, const uint8_t *Discrete, int Label,
                     Lane &L, CommitteeVerdict &V) const;
  bool writeSnapshot(const std::string &Path, SnapshotKind Kind,
                     const std::vector<std::string> &ScorerNames,
                     const FittedWriter &WriteFitted,
                     const data::StandardScaler *Scaler) const;
  bool readSnapshot(const std::string &Path, SnapshotKind Kind,
                    const std::function<bool(const std::string &)> &AddScorer,
                    const FittedReader &ReadFitted,
                    data::StandardScaler *Scaler);

  PromConfig Cfg;
  /// Live calibration store; access only through store()/installStore().
  std::shared_ptr<const CalibrationStore> Calib;
};

/// Single-sample assessment of \p S through \p Detector's batch engine on
/// a size-1 batch, so single-sample and batched verdicts are bit-identical
/// by construction.
template <typename DetectorT>
auto assessOne(const DetectorT &Detector, const data::Sample &S) {
  data::Dataset One;
  One.reserve(1);
  One.add(S);
  auto Out = Detector.assessBatch(One);
  return std::move(Out.front());
}

} // namespace prom

#endif // PROM_CORE_DETECTORCORE_H
