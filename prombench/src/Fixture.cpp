//===- prombench/src/Fixture.cpp - Deployments and traffic -----------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Fixture.h"

#include "core/GridSearch.h"
#include "support/Matrix.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cmath>
#include <cstring>

using namespace prom;
using support::Matrix;

namespace pb {

data::Dataset makeSamples(uint64_t Seed, size_t N, double ShiftedShare,
                          uint64_t IdBase) {
  support::Rng R(Seed);
  data::Dataset Out("traffic", NumClasses);
  Out.reserve(N);
  for (size_t I = 0; I < N; ++I) {
    data::Sample S;
    S.Label = R.intIn(0, NumClasses - 1);
    bool Shifted = R.uniform() < ShiftedShare;
    S.Features.reserve(FeatureDim);
    for (int D = 0; D < FeatureDim; ++D)
      S.Features.push_back(
          R.gaussian(S.Label * 0.7 + (Shifted && D < 8 ? 3.0 : 0.0), 1.0));
    S.Id = IdBase + I;
    Out.add(std::move(S));
  }
  return Out;
}

std::unique_ptr<ml::MlpClassifier> fitModel(uint64_t Seed, ml::MlpConfig Cfg) {
  auto Model = std::make_unique<ml::MlpClassifier>(Cfg);
  data::Dataset Train = makeSamples(Seed, 1200, 0.0);
  support::Rng R(Seed ^ 0x9E3779B97F4A7C15ull);
  Model->fit(Train, R);
  return Model;
}

PromConfig tuneThresholds(const ml::Classifier &Model,
                          const data::Dataset &Calib, const PromConfig &Base,
                          uint64_t Seed) {
  data::Dataset Tune("tune", NumClasses);
  for (size_t I = 0; I < std::min<size_t>(Calib.size(), GridSearchEntries); ++I)
    Tune.add(Calib[I]);
  support::Rng R(Seed ^ 0x7E57ull);
  return gridSearch(Model, Tune, GridSearchSpace(), Base, R, /*Repeats=*/1)
      .Best;
}

Deployment deploy(uint64_t Seed, size_t CalibSize, const PromConfig &Cfg) {
  Deployment D;
  D.Model = fitModel(Seed);
  D.Traced = std::make_unique<TracedModel>(*D.Model);
  D.Calib = makeSamples(Seed + 1, CalibSize, 0.0);
  D.Prom = std::make_unique<PromClassifier>(
      *D.Traced, tuneThresholds(*D.Model, D.Calib, Cfg, Seed));
  D.Prom->calibrate(D.Calib);
  return D;
}

//===----------------------------------------------------------------------===//
// Replica store and per-layer replay
//===----------------------------------------------------------------------===//

/// softmax(log(p) / T) on one row — the engine's temperature softening.
static void soften(double *Row, size_t N, double T) {
  if (T == 1.0)
    return;
  for (size_t J = 0; J < N; ++J)
    Row[J] = std::log(std::max(Row[J], 1e-12)) / T;
  support::softmaxRowInPlace(Row, N);
}

std::unique_ptr<ReplicaStore> buildReplica(const PromClassifier &Prom,
                                           const ml::Classifier &Model,
                                           const data::Dataset &Calib) {
  auto Rep = std::make_unique<ReplicaStore>();
  Rep->Cfg = Prom.config();
  Rep->Temperature = Prom.temperature();
  Matrix RawProbs, Embeds;
  Model.predictWithEmbedBatch(Calib, RawProbs, Embeds);
  Rep->Store.reserve(Calib.size());
  for (size_t I = 0; I < Calib.size(); ++I) {
    CalibrationEntry Entry;
    Entry.Embed = Embeds.row(I);
    Entry.Label = Calib[I].Label;
    std::vector<double> Probs = RawProbs.row(I);
    soften(Probs.data(), Probs.size(), Rep->Temperature);
    for (size_t E = 0; E < Prom.numExperts(); ++E)
      Entry.Scores.push_back(Prom.scorer(E).score(Probs, Calib[I].Label));
    Rep->Store.add(std::move(Entry));
  }
  Rep->Store.setMaxEntries(Rep->Cfg.MaxCalibEntries);
  Rep->Store.setIndexPolicy(ClusterIndexPolicy::fromConfig(Rep->Cfg));
  Rep->Store.finalize(Rep->Cfg.NumShards != 0
                          ? Rep->Cfg.NumShards
                          : support::ThreadPool::global().numThreads());
  return Rep;
}

void replayBatch(const ReplicaStore &Rep, const PromClassifier &Prom,
                 const Matrix &RawProbs, const Matrix &Embeds,
                 const std::vector<Verdict> &Engine, Tracer &T,
                 uint64_t Parent, uint64_t Req, ReplayStats &Out) {
  const size_t N = RawProbs.rows(), L = RawProbs.cols();
  const size_t NumExp = Prom.numExperts();
  Matrix Probs = RawProbs;
  for (size_t I = 0; I < N; ++I)
    soften(Probs.rowPtr(I), L, Rep.Temperature);
  std::vector<uint8_t> Discrete(NumExp);
  for (size_t E = 0; E < NumExp; ++E)
    Discrete[E] = Prom.scorer(E).isDiscrete() ? 1 : 0;

  CalibrationStore::BatchPrunedScan Scan;
  Clock::time_point T0 = Clock::now();
  Rep.Store.prepareBatchPrunedScan(Embeds.rowPtr(0), N, Embeds.cols(), Rep.Cfg,
                                   Scan);
  Clock::time_point T1 = Clock::now();
  T.add("store.prepare_batch", Parent, Req, T0, T1);

  std::mutex Merge;
  double SelectUs = 0.0, ScoreUs = 0.0, PValuesUs = 0.0;
  uint64_t Mismatches = 0;
  // The same fan-out as the engine: disjoint query ranges, per-lane
  // scratch, each query writing only its own scan-stats slot.
  support::ThreadPool::global().parallelFor(N, [&](size_t Begin, size_t End) {
    AssessmentScratch Scratch;
    std::vector<double> TestScores(NumExp * L), PVals(NumExp * L);
    double Sel = 0.0, Sco = 0.0, PV = 0.0;
    uint64_t Bad = 0;
    for (size_t I = Begin; I < End; ++I) {
      Clock::time_point A = Clock::now();
      Rep.Store.selectForAssessment(Embeds.rowPtr(I), Rep.Cfg, Scratch, &Scan,
                                    I);
      Clock::time_point B = Clock::now();
      std::vector<double> P(Probs.rowPtr(I), Probs.rowPtr(I) + L);
      for (size_t E = 0; E < NumExp; ++E)
        Prom.scorer(E).scoreAll(P, TestScores.data() + E * L);
      Clock::time_point C = Clock::now();
      Rep.Store.pValuesAllExperts(Scratch, TestScores.data(), L, Rep.Cfg,
                                  Discrete.data(), PVals.data());
      Clock::time_point D = Clock::now();
      T.add("store.select", Parent, Req, A, B);
      T.add("nonconformity.scoreall", Parent, Req, B, C);
      T.add("store.pvalues", Parent, Req, C, D);
      Sel += usBetween(A, B);
      Sco += usBetween(B, C);
      PV += usBetween(C, D);
      size_t Pred = support::argmaxRow(Probs, I);
      bool Same = static_cast<int>(Pred) == Engine[I].Predicted &&
                  Engine[I].Experts.size() == NumExp;
      for (size_t E = 0; Same && E < NumExp; ++E) {
        double Mine = PVals[E * L + Pred];
        Same = std::memcmp(&Mine, &Engine[I].Experts[E].Credibility,
                           sizeof(double)) == 0;
      }
      Bad += Same ? 0 : 1;
    }
    std::lock_guard<std::mutex> Lock(Merge);
    SelectUs += Sel;
    ScoreUs += Sco;
    PValuesUs += PV;
    Mismatches += Bad;
  });
  Out.PrepareUs += usBetween(T0, T1);
  Out.SelectUs += SelectUs;
  Out.ScoreUs += ScoreUs;
  Out.PValuesUs += PValuesUs;
  Out.Mismatches += Mismatches;
  Out.Batches += 1;
  Out.Queries += N;
  Out.Scan += Scan.aggregated();
  Out.Pruned = Out.Pruned || Scan.Active;
}

} // namespace pb
