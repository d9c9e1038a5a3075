//===- tests/SnapshotTest.cpp - detector snapshot round-trips -----------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// saveSnapshot()/loadSnapshot() must make restarts free: a detector
// restored from disk produces bit-identical verdicts to the one that
// saved, on a fixed probe set, with exact floating-point equality. The
// loader must also reject — without touching the detector — anything that
// is not a pristine snapshot: missing files, truncations, flipped bytes,
// wrong magic, and snapshots of the wrong detector kind.
//
//===----------------------------------------------------------------------===//

#include "core/Detector.h"
#include "data/Scaler.h"
#include "data/Split.h"
#include "ml/Linear.h"
#include "ml/Mlp.h"
#include "support/Serialize.h"
#include "tests/TestHelpers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

using namespace prom;
using prom::testing::gaussianBlobs;
using prom::testing::linearRegression;

namespace {

std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + "/" + Name;
}

std::vector<char> slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(In),
                           std::istreambuf_iterator<char>());
}

void spit(const std::string &Path, const std::vector<char> &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

void expectSameVerdict(const Verdict &A, const Verdict &B, size_t Index) {
  SCOPED_TRACE("sample " + std::to_string(Index));
  EXPECT_EQ(A.Predicted, B.Predicted);
  EXPECT_EQ(A.Drifted, B.Drifted);
  EXPECT_EQ(A.VotesToFlag, B.VotesToFlag);
  ASSERT_EQ(A.Experts.size(), B.Experts.size());
  for (size_t E = 0; E < A.Experts.size(); ++E) {
    EXPECT_EQ(A.Experts[E].Credibility, B.Experts[E].Credibility);
    EXPECT_EQ(A.Experts[E].Confidence, B.Experts[E].Confidence);
    EXPECT_EQ(A.Experts[E].PredictionSetSize,
              B.Experts[E].PredictionSetSize);
    EXPECT_EQ(A.Experts[E].FlagDrift, B.Experts[E].FlagDrift);
  }
}

/// Calibrated classifier + probe set shared by the classifier tests.
struct ClassifierFixture {
  support::Rng R{91};
  data::Dataset Train, Calib, Probes;
  ml::MlpClassifier Model;

  ClassifierFixture() {
    data::Dataset Full = gaussianBlobs(3, 260, 4.0, 0.8, R);
    auto Split = data::calibrationPartition(Full, R, 0.4);
    Train = std::move(Split.first);
    Calib = std::move(Split.second);
    Model.fit(Train, R);
    Probes = gaussianBlobs(3, 20, 4.0, 0.8, R);
    for (int I = 0; I < 20; ++I) {
      data::Sample Novel;
      Novel.Features = {R.gaussian(0.0, 0.7), R.gaussian(0.0, 0.7)};
      Novel.Label = 0;
      Probes.add(std::move(Novel));
    }
  }
};

ClassifierFixture &classifierFixture() {
  static ClassifierFixture F;
  return F;
}

} // namespace

TEST(SnapshotTest, ClassifierRoundTripBitIdentical) {
  ClassifierFixture &F = classifierFixture();

  PromConfig Cfg;
  Cfg.Epsilon = 0.15;
  Cfg.CredThreshold = 0.3;
  Cfg.NumShards = 4;
  PromClassifier Saved(F.Model, Cfg);
  Saved.calibrate(F.Calib);
  std::vector<Verdict> Expected = Saved.assessBatch(F.Probes);

  std::string Path = tempPath("classifier.promsnap");
  ASSERT_TRUE(Saved.saveSnapshot(Path));

  // A fresh wrapper around the same model, default config: everything
  // detector-side must come from the snapshot.
  PromClassifier Loaded(F.Model);
  ASSERT_TRUE(Loaded.loadSnapshot(Path));
  EXPECT_EQ(Loaded.temperature(), Saved.temperature());
  EXPECT_EQ(Loaded.config().Epsilon, 0.15);
  EXPECT_EQ(Loaded.config().CredThreshold, 0.3);
  EXPECT_EQ(Loaded.numExperts(), Saved.numExperts());
  EXPECT_EQ(Loaded.numShards(), Saved.numShards());

  std::vector<Verdict> Restored = Loaded.assessBatch(F.Probes);
  ASSERT_EQ(Restored.size(), Expected.size());
  for (size_t I = 0; I < Expected.size(); ++I) {
    expectSameVerdict(Expected[I], Restored[I], I);
    for (size_t C = 0; C < Expected[I].Probabilities.size(); ++C)
      EXPECT_EQ(Expected[I].Probabilities[C], Restored[I].Probabilities[C]);
  }
  std::remove(Path.c_str());
}

TEST(SnapshotTest, RegressorRoundTripBitIdentical) {
  support::Rng R(92);
  data::Dataset Train = linearRegression(300, 0.1, R);
  data::Dataset Calib = linearRegression(140, 0.1, R);
  ml::MlpRegressor Model;
  Model.fit(Train, R);

  PromConfig Cfg;
  Cfg.FixedClusters = 4;
  PromRegressor Saved(Model, Cfg);
  support::Rng CalR(7);
  Saved.calibrate(Calib, CalR);

  data::Dataset Probes = linearRegression(60, 0.1, R);
  std::vector<RegressionVerdict> Expected = Saved.assessBatch(Probes);

  std::string Path = tempPath("regressor.promsnap");
  ASSERT_TRUE(Saved.saveSnapshot(Path));

  PromRegressor Loaded(Model);
  ASSERT_TRUE(Loaded.loadSnapshot(Path));
  EXPECT_EQ(Loaded.numClusters(), Saved.numClusters());

  std::vector<RegressionVerdict> Restored = Loaded.assessBatch(Probes);
  ASSERT_EQ(Restored.size(), Expected.size());
  for (size_t I = 0; I < Expected.size(); ++I) {
    SCOPED_TRACE("sample " + std::to_string(I));
    EXPECT_EQ(Expected[I].Predicted, Restored[I].Predicted);
    EXPECT_EQ(Expected[I].Cluster, Restored[I].Cluster);
    EXPECT_EQ(Expected[I].Drifted, Restored[I].Drifted);
    EXPECT_EQ(Expected[I].VotesToFlag, Restored[I].VotesToFlag);
    ASSERT_EQ(Expected[I].Experts.size(), Restored[I].Experts.size());
    for (size_t E = 0; E < Expected[I].Experts.size(); ++E) {
      EXPECT_EQ(Expected[I].Experts[E].Credibility,
                Restored[I].Experts[E].Credibility);
      EXPECT_EQ(Expected[I].Experts[E].Confidence,
                Restored[I].Experts[E].Confidence);
    }
  }
  std::remove(Path.c_str());
}

namespace {

/// Writes \p Payload (magic included, checksum excluded) to \p Path with a
/// freshly computed trailing checksum, so only the loader's semantic
/// checks stand between the mutated image and a successful load.
void spitRestamped(const std::string &Path, std::vector<char> Payload) {
  uint64_t Sum = support::fnv1a(
      reinterpret_cast<const uint8_t *>(Payload.data()), Payload.size());
  const char *Raw = reinterpret_cast<const char *>(&Sum);
  Payload.insert(Payload.end(), Raw, Raw + sizeof(Sum));
  spit(Path, Payload);
}

} // namespace

TEST(SnapshotTest, RegressorRejectsHostileCentroidsAndKnnBlock) {
  // A checksum-valid regressor snapshot whose centroid width disagrees
  // with the entries must fail to load and leave the detector untouched:
  // it would otherwise make nearestCentroidRow read past a row. (The k-NN
  // scan reads the store's own embedding block, which the snapshot no
  // longer duplicates.)
  support::Rng R(93);
  data::Dataset Train = linearRegression(300, 0.1, R);
  data::Dataset Calib = linearRegression(120, 0.1, R);
  ml::MlpRegressor Model;
  Model.fit(Train, R);

  PromConfig Cfg;
  Cfg.FixedClusters = 3;
  PromRegressor Saved(Model, Cfg);
  support::Rng CalR(11);
  Saved.calibrate(Calib, CalR);
  std::string Path = tempPath("hostile_regressor.promsnap");
  ASSERT_TRUE(Saved.saveSnapshot(Path));
  std::vector<char> Pristine = slurp(Path);
  std::vector<char> Payload(Pristine.begin(), Pristine.end() - 8);

  PromRegressor Victim(Model);
  ASSERT_TRUE(Victim.loadSnapshot(Path));
  data::Dataset Probes = linearRegression(40, 0.1, R);
  std::vector<RegressionVerdict> Expected = Victim.assessBatch(Probes);

  // The payload ends: ... last centroid (u64 dim + dim doubles), residual
  // IQR (f64), shard count (u64), scaler flag (u8 = 0).
  std::vector<double> Embed0 = Model.embed(Calib[0]);
  size_t Dim = Embed0.size();
  size_t CentEnd = Payload.size() - 1 - 8 - 8;
  size_t LenPos = CentEnd - Dim * sizeof(double) - sizeof(uint64_t);
  uint64_t StoredDim;
  std::memcpy(&StoredDim, Payload.data() + LenPos, sizeof(StoredDim));
  ASSERT_EQ(StoredDim, Dim) << "snapshot tail layout moved";

  std::string Mangled = tempPath("hostile_regressor_mangled.promsnap");
  {
    SCOPED_TRACE("last centroid widened by one double");
    std::vector<char> Bad = Payload;
    uint64_t Wider = Dim + 1;
    std::memcpy(Bad.data() + LenPos, &Wider, sizeof(Wider));
    double Extra = 0.5;
    const char *Raw = reinterpret_cast<const char *>(&Extra);
    Bad.insert(Bad.begin() + static_cast<long>(CentEnd), Raw,
               Raw + sizeof(Extra));
    spitRestamped(Mangled, Bad);
    EXPECT_FALSE(Victim.loadSnapshot(Mangled));
  }

  std::vector<RegressionVerdict> After = Victim.assessBatch(Probes);
  ASSERT_EQ(After.size(), Expected.size());
  for (size_t I = 0; I < Expected.size(); ++I)
    prom::testing::expectSameRegressionVerdict(Expected[I], After[I], I);

  // The unmutated payload re-stamped the same way still loads.
  spitRestamped(Mangled, Payload);
  EXPECT_TRUE(Victim.loadSnapshot(Mangled));
  std::remove(Path.c_str());
  std::remove(Mangled.c_str());
}

TEST(SnapshotTest, ScalerStateRoundTrips) {
  ClassifierFixture &F = classifierFixture();

  data::StandardScaler Scaler;
  Scaler.fit(F.Train);

  PromClassifier Saved(F.Model);
  Saved.calibrate(F.Calib);
  std::string Path = tempPath("with_scaler.promsnap");
  ASSERT_TRUE(Saved.saveSnapshot(Path, &Scaler));

  PromClassifier Loaded(F.Model);
  data::StandardScaler Restored;
  ASSERT_TRUE(Loaded.loadSnapshot(Path, &Restored));
  ASSERT_TRUE(Restored.isFitted());
  ASSERT_EQ(Restored.means().size(), Scaler.means().size());
  for (size_t D = 0; D < Scaler.means().size(); ++D) {
    EXPECT_EQ(Restored.means()[D], Scaler.means()[D]);
    EXPECT_EQ(Restored.stddevs()[D], Scaler.stddevs()[D]);
  }
  std::remove(Path.c_str());
}

TEST(SnapshotTest, RejectsMissingShortCorruptAndWrongKind) {
  ClassifierFixture &F = classifierFixture();

  PromClassifier Saved(F.Model);
  Saved.calibrate(F.Calib);
  std::vector<Verdict> Expected = Saved.assessBatch(F.Probes);

  std::string Path = tempPath("pristine.promsnap");
  ASSERT_TRUE(Saved.saveSnapshot(Path));
  std::vector<char> Pristine = slurp(Path);
  ASSERT_GT(Pristine.size(), 64u);

  PromClassifier Victim(F.Model);
  Victim.calibrate(F.Calib);

  // Missing file.
  EXPECT_FALSE(Victim.loadSnapshot(tempPath("does_not_exist.promsnap")));

  // Truncations at several depths, including mid-header and mid-payload.
  std::string Mangled = tempPath("mangled.promsnap");
  for (size_t Keep : {size_t(0), size_t(4), size_t(15), Pristine.size() / 2,
                      Pristine.size() - 1}) {
    SCOPED_TRACE("truncated to " + std::to_string(Keep));
    spit(Mangled, std::vector<char>(Pristine.begin(),
                                    Pristine.begin() +
                                        static_cast<long>(Keep)));
    EXPECT_FALSE(Victim.loadSnapshot(Mangled));
  }

  // A flipped byte anywhere must fail the checksum.
  for (size_t Flip : {size_t(3), size_t(20), Pristine.size() / 2,
                      Pristine.size() - 3}) {
    SCOPED_TRACE("flipped byte " + std::to_string(Flip));
    std::vector<char> Bad = Pristine;
    Bad[Flip] = static_cast<char>(Bad[Flip] ^ 0x5a);
    spit(Mangled, Bad);
    EXPECT_FALSE(Victim.loadSnapshot(Mangled));
  }

  // Wrong magic.
  {
    std::vector<char> Bad = Pristine;
    Bad[0] = 'X';
    spit(Mangled, Bad);
    EXPECT_FALSE(Victim.loadSnapshot(Mangled));
  }

  // Every failed load above must have left the victim untouched.
  std::vector<Verdict> After = Victim.assessBatch(F.Probes);
  ASSERT_EQ(After.size(), Expected.size());
  for (size_t I = 0; I < Expected.size(); ++I)
    expectSameVerdict(Expected[I], After[I], I);

  std::remove(Path.c_str());
  std::remove(Mangled.c_str());
}

//===----------------------------------------------------------------------===//
// Snapshot rotation (generation files + `latest` pointer)
//===----------------------------------------------------------------------===//

namespace {

/// A fresh rotation directory under the test tmpdir.
std::string rotationDir(const std::string &Name) {
  std::string Dir = tempPath(Name);
  // Clear any leftovers from a previous run of the same test binary.
  for (uint64_t Gen : support::listSnapshotGenerations(Dir))
    std::remove((Dir + "/" + support::snapshotGenerationFile(Gen)).c_str());
  std::remove((Dir + "/latest").c_str());
  EXPECT_TRUE(support::ensureDirectory(Dir));
  return Dir;
}

/// Writes a minimal valid (checksummed) generation file.
void writeGeneration(const std::string &Dir, uint64_t Gen) {
  support::ByteWriter W;
  W.writeU64(Gen); // Payload content is irrelevant to rotation.
  ASSERT_TRUE(
      W.writeFile(Dir + "/" + support::snapshotGenerationFile(Gen)));
}

} // namespace

TEST(SnapshotTest, RotationCrashBeforePointerCommitServesOldGeneration) {
  ClassifierFixture &F = classifierFixture();
  std::string Dir = rotationDir("rotation_crash");

  PromClassifier Saved(F.Model);
  Saved.calibrate(F.Calib);

  // Generation 1 fully committed.
  ASSERT_TRUE(Saved.saveSnapshot(
      Dir + "/" + support::snapshotGenerationFile(1)));
  ASSERT_TRUE(support::commitLatestPointer(Dir, 1));
  EXPECT_EQ(support::latestPointerGeneration(Dir), 1u);

  // Generation 2 written but the process "crashed" before the pointer
  // update: the committed generation 1 must still be served.
  ASSERT_TRUE(Saved.saveSnapshot(
      Dir + "/" + support::snapshotGenerationFile(2)));
  EXPECT_EQ(support::resolveLatestSnapshot(Dir),
            Dir + "/" + support::snapshotGenerationFile(1));

  // Pointer gone stale (its generation corrupted on disk): resolution
  // falls back to the newest generation that still loads — generation 2.
  {
    std::string Gen1 = Dir + "/" + support::snapshotGenerationFile(1);
    std::vector<char> Bytes = slurp(Gen1);
    ASSERT_GT(Bytes.size(), 16u);
    Bytes[Bytes.size() / 2] ^= 0x5a;
    spit(Gen1, Bytes);
  }
  std::string Resolved = support::resolveLatestSnapshot(Dir);
  EXPECT_EQ(Resolved, Dir + "/" + support::snapshotGenerationFile(2));

  // And the fallback is actually loadable into a serving detector.
  PromClassifier Restored(F.Model);
  EXPECT_TRUE(Restored.loadSnapshot(Resolved));
  EXPECT_EQ(Restored.calibrationSize(), Saved.calibrationSize());

  // Nothing valid left at all: resolution reports none rather than
  // handing a corrupt path to the loader.
  std::remove(Resolved.c_str());
  EXPECT_EQ(support::resolveLatestSnapshot(Dir), "");
}

TEST(SnapshotTest, RotationPruneNeverDeletesPointedGeneration) {
  std::string Dir = rotationDir("rotation_prune");

  for (uint64_t Gen = 1; Gen <= 5; ++Gen)
    writeGeneration(Dir, Gen);
  // The pointer still names an old generation (e.g. the newer writes were
  // never committed); pruning must keep it alive alongside the newest.
  ASSERT_TRUE(support::commitLatestPointer(Dir, 2));

  size_t Removed = support::pruneSnapshotGenerations(Dir, /*KeepCount=*/2);
  EXPECT_EQ(Removed, 2u); // 1 and 3 go; 2 (pointed), 4, 5 stay.
  std::vector<uint64_t> Left = support::listSnapshotGenerations(Dir);
  ASSERT_EQ(Left.size(), 3u);
  EXPECT_EQ(Left[0], 2u);
  EXPECT_EQ(Left[1], 4u);
  EXPECT_EQ(Left[2], 5u);
  EXPECT_EQ(support::resolveLatestSnapshot(Dir),
            Dir + "/" + support::snapshotGenerationFile(2));

  // Once a newer generation is committed, the old one becomes prunable.
  ASSERT_TRUE(support::commitLatestPointer(Dir, 5));
  Removed = support::pruneSnapshotGenerations(Dir, /*KeepCount=*/1);
  EXPECT_EQ(Removed, 2u); // 2 and 4 go.
  Left = support::listSnapshotGenerations(Dir);
  ASSERT_EQ(Left.size(), 1u);
  EXPECT_EQ(Left[0], 5u);
}

TEST(SnapshotTest, WrongKindRejected) {
  ClassifierFixture &F = classifierFixture();
  PromClassifier Saved(F.Model);
  Saved.calibrate(F.Calib);
  std::string Path = tempPath("kind.promsnap");
  ASSERT_TRUE(Saved.saveSnapshot(Path));

  support::Rng R(5);
  data::Dataset RTrain = linearRegression(200, 0.1, R);
  data::Dataset RCalib = linearRegression(80, 0.1, R);
  ml::MlpRegressor RModel;
  RModel.fit(RTrain, R);
  PromRegressor Reg(RModel);
  EXPECT_FALSE(Reg.loadSnapshot(Path));
  std::remove(Path.c_str());
}
