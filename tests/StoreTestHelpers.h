//===- tests/StoreTestHelpers.h - CalibrationStore test oracles ---*- C++ -*-===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared oracles of the CalibrationStore bit-identity suites (RefreshTest
/// and the randomized StorePropertyTest): synthetic entry builders, the
/// from-scratch reference store, and the exhaustive engine-level
/// comparison that drives both stores through the exact entry points the
/// batched assessment uses.
///
//===----------------------------------------------------------------------===//

#ifndef PROM_TESTS_STORETESTHELPERS_H
#define PROM_TESTS_STORETESTHELPERS_H

#include "core/CalibrationStore.h"
#include "core/PromConfig.h"
#include "support/Rng.h"
#include "tests/TestHelpers.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace prom {
namespace testing {

/// Random calibration entries; labels cycle over [0, NumLabels).
inline std::vector<CalibrationEntry> makeEntries(size_t N, size_t Dim,
                                                 int NumLabels, size_t NumExp,
                                                 support::Rng &R) {
  std::vector<CalibrationEntry> Out;
  Out.reserve(N);
  for (size_t I = 0; I < N; ++I) {
    CalibrationEntry E;
    for (size_t D = 0; D < Dim; ++D)
      E.Embed.push_back(R.gaussian(0.0, 2.0));
    E.Label = static_cast<int>(I % static_cast<size_t>(NumLabels));
    for (size_t X = 0; X < NumExp; ++X)
      E.Scores.push_back(R.uniform(0.0, 1.0));
    Out.push_back(std::move(E));
  }
  return Out;
}

/// A fresh store finalized from scratch on \p Entries — the reference a
/// refreshed/resharded store must match bit for bit.
inline CalibrationStore
referenceStore(const std::vector<CalibrationEntry> &Entries, size_t K) {
  CalibrationStore Ref;
  Ref.reserve(Entries.size());
  for (const CalibrationEntry &E : Entries)
    Ref.add(E);
  Ref.finalize(K);
  return Ref;
}

/// Drives both stores through the exact engine entry points the batched
/// assessment uses (selection + fused all-expert p-values) and demands
/// bit-equality on everything a verdict is computed from.
inline void expectStoresBitIdentical(const CalibrationStore &Live,
                                     const CalibrationStore &Ref,
                                     const PromConfig &Cfg, support::Rng &R,
                                     const char *Tag) {
  SCOPED_TRACE(Tag);
  ASSERT_EQ(Live.size(), Ref.size());
  ASSERT_EQ(Live.embedDim(), Ref.embedDim());
  EXPECT_EQ(bits(Live.medianNNDist()), bits(Ref.medianNNDist()));

  size_t NumExp = Ref.numExperts();
  size_t NumLabels = static_cast<size_t>(Ref.flat().maxLabel() + 1);
  ASSERT_EQ(static_cast<size_t>(Live.flat().maxLabel() + 1), NumLabels);
  size_t Cells = NumExp * NumLabels;

  AssessmentScratch SLive, SRef;
  std::vector<double> TestScores(Cells), PLive(Cells), PRef(Cells);
  for (int Q = 0; Q < 6; ++Q) {
    SCOPED_TRACE("query " + std::to_string(Q));
    std::vector<double> Query;
    for (size_t D = 0; D < Ref.embedDim(); ++D)
      Query.push_back(R.gaussian(0.0, 2.0));
    for (double &S : TestScores)
      S = R.uniform(0.0, 1.0);

    Live.selectForAssessment(Query.data(), Cfg, SLive);
    Ref.selectForAssessment(Query.data(), Cfg, SRef);
    ASSERT_EQ(SLive.Keep, SRef.Keep);
    ASSERT_EQ(SLive.SelectedAll, SRef.SelectedAll);
    for (size_t I = 0; I < Ref.size(); ++I) {
      ASSERT_EQ(SLive.selected(I), SRef.selected(I)) << "entry " << I;
      if (SRef.selected(I)) {
        ASSERT_EQ(bits(SLive.WeightByEntry[I]), bits(SRef.WeightByEntry[I]))
            << "entry " << I;
      }
    }

    Live.pValuesAllExperts(SLive, TestScores.data(), NumLabels, Cfg,
                           /*DiscreteFlags=*/nullptr, PLive.data());
    Ref.pValuesAllExperts(SRef, TestScores.data(), NumLabels, Cfg,
                          /*DiscreteFlags=*/nullptr, PRef.data());
    for (size_t C = 0; C < Cells; ++C)
      ASSERT_EQ(bits(PLive[C]), bits(PRef[C])) << "cell " << C;
  }
}

/// Runs the comparison under both p-value regimes: the general weighted
/// path (canonical block fold) and the unweighted full-selection fast
/// path (per-shard sorted-index counts).
inline void expectBothRegimesMatch(const CalibrationStore &Live,
                                   const CalibrationStore &Ref,
                                   uint64_t Seed, const char *Tag) {
  PromConfig Weighted; // Default: WeightedCount, partial selection.
  support::Rng R1(Seed);
  expectStoresBitIdentical(Live, Ref, Weighted, R1,
                           (std::string(Tag) + "/weighted").c_str());

  PromConfig Unweighted;
  Unweighted.WeightMode = CalibrationWeightMode::None;
  Unweighted.SelectAllBelow = 1u << 20; // Full selection: fast path.
  support::Rng R2(Seed);
  expectStoresBitIdentical(Live, Ref, Unweighted, R2,
                           (std::string(Tag) + "/unweighted-fast").c_str());
}

} // namespace testing
} // namespace prom

#endif // PROM_TESTS_STORETESTHELPERS_H
