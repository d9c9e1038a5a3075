//===- core/Calibration.cpp - Calibration scores and selection --------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Calibration.h"
#include "support/Distance.h"
#include "support/Kernels.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <cmath>
#include <numeric>

using namespace prom;

/// Entries the median-NN-distance measurement samples (the first
/// MedianNNSample entries; bounded so finalize stays O(min(n,256)^2)).
static constexpr size_t MedianNNSample = 256;

void CalibrationScores::finalize() {
  buildBatchIndexes();
  IndexedCount = Entries.size();
  computeMedianNNDist();
}

size_t CalibrationScores::memoryBytes() const {
  size_t Bytes = Entries.capacity() * sizeof(CalibrationEntry);
  for (const CalibrationEntry &E : Entries)
    Bytes += (E.Embed.capacity() + E.Scores.capacity()) * sizeof(double);
  Bytes += Embeds.memoryBytes();
  Bytes += Labels.capacity() * sizeof(int);
  for (const std::vector<double> &Col : ScoreColumns)
    Bytes += Col.capacity() * sizeof(double);
  return Bytes;
}

void CalibrationScores::computeMedianNNDist() {
  if (Entries.size() < 2) {
    MedianNNDist = 1.0;
    return;
  }
  // Median nearest-neighbour distance over a bounded subsample keeps this
  // O(min(n,256)^2) even for large calibration sets.
  size_t N = std::min<size_t>(Entries.size(), MedianNNSample);
  std::vector<double> NNDist;
  NNDist.reserve(N);
  for (size_t I = 0; I < N; ++I) {
    double Best = -1.0;
    for (size_t J = 0; J < N; ++J) {
      if (I == J)
        continue;
      double D = support::euclidean(Entries[I].Embed, Entries[J].Embed);
      if (Best < 0.0 || D < Best)
        Best = D;
    }
    NNDist.push_back(Best);
  }
  std::sort(NNDist.begin(), NNDist.end());
  MedianNNDist = std::max(NNDist[NNDist.size() / 2], 1e-9);
}

void CalibrationScores::dropOldest(size_t Count) {
  assert(Count <= Entries.size() && "dropOldest past the end");
  Entries.erase(Entries.begin(), Entries.begin() + static_cast<long>(Count));
  // Indexes are now stale; the caller re-runs finalize().
  IndexedCount = 0;
}

bool CalibrationScores::refinalize(size_t Evict) {
  assert(Evict <= Entries.size() && "evicting more entries than exist");
  size_t OldIndexed = IndexedCount;

  // Degenerate refresh: the eviction swallows the whole indexed prefix
  // (a refresh batch larger than the store bound, or a store that was
  // never finalized). Nothing is reusable — rebuild from scratch.
  if (OldIndexed == 0 || (Evict > 0 && Evict >= OldIndexed)) {
    Entries.erase(Entries.begin(), Entries.begin() + static_cast<long>(Evict));
    finalize();
    return false;
  }

  if (Evict > 0)
    evictFromIndexes(Evict);
  appendToIndexes(IndexedCount);

  // The distance-scale sample window is the first min(N, 256) entries:
  // unchanged by a pure append onto a store that already indexed 256, so
  // the recompute (and its O(256^2) distance scans) is skipped exactly
  // when a from-scratch finalize would measure the same window.
  if (Evict > 0 || OldIndexed < MedianNNSample)
    computeMedianNNDist();

  IndexedCount = Entries.size();
  return true;
}

void CalibrationScores::evictFromIndexes(size_t Evict) {
  Entries.erase(Entries.begin(), Entries.begin() + static_cast<long>(Evict));
  Labels.erase(Labels.begin(), Labels.begin() + static_cast<long>(Evict));
  for (std::vector<double> &Column : ScoreColumns)
    Column.erase(Column.begin(), Column.begin() + static_cast<long>(Evict));
  Embeds.eraseFrontRows(Evict);

  // Eviction can retire the largest label entirely; a fresh finalize would
  // report the surviving maximum, so mirror that here.
  MaxLabel = -1;
  for (int Label : Labels)
    MaxLabel = std::max(MaxLabel, Label);

  IndexedCount -= Evict;
}

void CalibrationScores::appendToIndexes(size_t From) {
  size_t N = Entries.size();
  size_t NumExp = numExperts();
  size_t Dim = Embeds.dim();

  for (size_t I = From; I < N; ++I) {
    assert(Entries[I].Embed.size() == Dim && "ragged calibration embeds");
    assert(Entries[I].Scores.size() == NumExp && "ragged expert scores");
    (void)Dim;
    Embeds.appendRow(Entries[I].Embed.data());
    Labels.push_back(Entries[I].Label);
    MaxLabel = std::max(MaxLabel, Entries[I].Label);
    for (size_t E = 0; E < NumExp; ++E)
      ScoreColumns[E].push_back(Entries[I].Scores[E]);
  }
}

void CalibrationScores::mergeScoresIntoIndex(
    size_t Expert, size_t Begin, size_t End,
    std::vector<std::vector<double>> &SortedScores) const {
  std::vector<std::vector<double>> NewByLabel(SortedScores.size());
  for (size_t I = Begin; I < End; ++I)
    if (Labels[I] >= 0)
      NewByLabel[static_cast<size_t>(Labels[I])].push_back(
          ScoreColumns[Expert][I]);
  for (size_t L = 0; L < NewByLabel.size(); ++L) {
    std::vector<double> &Fresh = NewByLabel[L];
    if (Fresh.empty())
      continue;
    std::sort(Fresh.begin(), Fresh.end());
    std::vector<double> &Col = SortedScores[L];
    size_t Mid = Col.size();
    Col.insert(Col.end(), Fresh.begin(), Fresh.end());
    std::inplace_merge(Col.begin(), Col.begin() + static_cast<long>(Mid),
                       Col.end());
  }
}

void CalibrationScores::removeScoresFromIndex(
    size_t Expert, size_t Begin, size_t End,
    std::vector<std::vector<double>> &SortedScores) const {
  std::vector<std::vector<double>> GoneByLabel(SortedScores.size());
  for (size_t I = Begin; I < End; ++I)
    if (Labels[I] >= 0)
      GoneByLabel[static_cast<size_t>(Labels[I])].push_back(
          ScoreColumns[Expert][I]);
  for (size_t L = 0; L < GoneByLabel.size(); ++L) {
    std::vector<double> &Gone = GoneByLabel[L];
    if (Gone.empty())
      continue;
    std::sort(Gone.begin(), Gone.end());
    std::vector<double> &Col = SortedScores[L];
    size_t G = 0, W = 0;
    for (double V : Col) {
      if (G < Gone.size() && V == Gone[G]) {
        ++G;
        continue;
      }
      Col[W++] = V;
    }
    assert(G == Gone.size() && "removed score missing from the index");
    Col.resize(W);
  }
}

/// How many of N entries the Sec. 5.1.2 policy keeps.
static size_t keepCount(size_t N, const PromConfig &Cfg) {
  if (N < Cfg.SelectAllBelow)
    return N;
  size_t Keep =
      static_cast<size_t>(Cfg.SelectFraction * static_cast<double>(N) + 0.5);
  return std::max<size_t>(1, std::min(Keep, N));
}

size_t prom::selectionKeepCount(size_t N, const PromConfig &Cfg) {
  return keepCount(N, Cfg);
}

/// Effective Eq. (1) temperature under \p Cfg.
static double effectiveTau(const PromConfig &Cfg, double MedianNNDist) {
  if (Cfg.AutoTau && MedianNNDist > 0.0)
    return Cfg.TauScale * MedianNNDist;
  return Cfg.Tau;
}

/// The Eq. (1) weight of a selected entry at distance \p Dist.
///
/// WeightedCount emphasizes *locally relevant* calibration evidence, so
/// distances are measured relative to the nearest selected sample (the
/// \p Offset) — a far-away test input must not wash out every weight at
/// once (that would leave the smoothing term dominating and report p ~ 1
/// exactly when the input is most novel). ScoreScaling keeps absolute
/// distances: its novelty mechanism is the global shrink itself.
static double distanceWeight(double Dist, double Offset, double Tau,
                             int NormPower) {
  double D = std::max(0.0, Dist - Offset);
  double Norm = NormPower == 2 ? D * D : D;
  double Exponent = Norm / Tau;
  // std::exp(-x) rounds to +0.0 for every x above 746 (the subnormal range
  // ends at ln 2^-1075 ~ 745.13). Returning the 0.0 directly is therefore
  // bit-identical, and it keeps far-away calibration samples from paying
  // the libm underflow slow path — and from injecting subnormal weights
  // into the p-value sums, where every add would hit a microcode assist.
  if (Exponent > 746.0)
    return 0.0;
  return std::exp(-Exponent);
}

CalibrationSelection
CalibrationScores::select(const std::vector<double> &TestEmbed,
                          const PromConfig &Cfg) const {
  assert(!Entries.empty() && "empty calibration set");

  std::vector<double> Dist(Entries.size());
  for (size_t I = 0; I < Entries.size(); ++I)
    Dist[I] = support::euclidean(Entries[I].Embed, TestEmbed);

  std::vector<size_t> Order(Entries.size());
  std::iota(Order.begin(), Order.end(), size_t(0));
  std::sort(Order.begin(), Order.end(), [&Dist](size_t A, size_t B) {
    if (Dist[A] != Dist[B])
      return Dist[A] < Dist[B];
    return A < B;
  });

  size_t Keep = keepCount(Entries.size(), Cfg);
  Order.resize(Keep);

  CalibrationSelection Sel;
  Sel.Indices = Order;
  Sel.Weights.resize(Keep, 1.0);
  if (Cfg.WeightMode != CalibrationWeightMode::None) {
    double Tau = effectiveTau(Cfg, MedianNNDist);
    double Offset = Cfg.WeightMode == CalibrationWeightMode::WeightedCount
                        ? Dist[Sel.Indices.front()]
                        : 0.0;
    for (size_t I = 0; I < Keep; ++I)
      Sel.Weights[I] = distanceWeight(Dist[Sel.Indices[I]], Offset, Tau,
                                      Cfg.WeightNormPower);
  }
  return Sel;
}

/// Moves the \p Keep smallest (key, id) pairs — under the same
/// lexicographic order std::nth_element would use — into the first Keep
/// slots of \p Keyed, in O(N) plus a sort of the pivot-bucket entries.
///
/// Non-negative IEEE doubles order identically to their raw bit patterns,
/// so a histogram over range-adapted bit buckets finds the pivot bucket in
/// one pass; only its members (usually a handful) need comparison sorting.
/// Equal keys share a bucket and are resolved by ascending id there, which
/// reproduces nth_element's (key, id) total order exactly.
static void partitionSmallestKeys(AssessmentScratch &S, size_t Keep) {
  std::vector<std::pair<double, uint32_t>> &Keyed = S.Keyed;
  size_t N = Keyed.size();
  auto KeyBits = [](double Key) {
    uint64_t Bits;
    std::memcpy(&Bits, &Key, sizeof(Bits));
    return Bits;
  };

  uint64_t MinBits = ~uint64_t(0), MaxBits = 0;
  for (const auto &P : Keyed) {
    uint64_t Bits = KeyBits(P.first);
    MinBits = std::min(MinBits, Bits);
    MaxBits = std::max(MaxBits, Bits);
  }
  // All keys equal: the selection is decided purely by the id tie-break.
  // Keyed is NOT guaranteed to be in ascending id order (the pruned scan
  // appends candidates list by list), so partition explicitly — with equal
  // keys the pair order degenerates to ascending id, and nth_element over
  // it moves exactly the Keep smallest ids into the front slots.
  if (MinBits == MaxBits) {
    std::nth_element(Keyed.begin(), Keyed.begin() + static_cast<long>(Keep),
                     Keyed.end());
    return;
  }

  constexpr size_t NumBuckets = 2048;
  int Shift = 0;
  while (((MaxBits - MinBits) >> Shift) >= NumBuckets)
    ++Shift;
  uint32_t Histogram[NumBuckets] = {0};
  for (const auto &P : Keyed)
    ++Histogram[(KeyBits(P.first) - MinBits) >> Shift];

  // The pivot bucket is the one where the cumulative count crosses Keep.
  size_t Cum = 0, Pivot = 0;
  while (Cum + Histogram[Pivot] < Keep)
    Cum += Histogram[Pivot++];

  // Entries below the pivot bucket are selected outright; pivot-bucket
  // members compete by (key, id); the rest are rejected.
  S.Boundary.clear();
  S.Tail.clear();
  size_t Write = 0;
  for (size_t I = 0; I < N; ++I) {
    uint64_t Bucket = (KeyBits(Keyed[I].first) - MinBits) >> Shift;
    if (Bucket < Pivot)
      Keyed[Write++] = Keyed[I];
    else if (Bucket == Pivot)
      S.Boundary.push_back(Keyed[I]);
    else
      S.Tail.push_back(Keyed[I]);
  }
  std::sort(S.Boundary.begin(), S.Boundary.end());
  for (const auto &P : S.Boundary)
    Keyed[Write++] = P;
  for (const auto &P : S.Tail)
    Keyed[Write++] = P;
  assert(Write == N && "bucket partition lost entries");
}

void CalibrationScores::computeDistanceKeys(const double *TestEmbed,
                                            AssessmentScratch &S,
                                            size_t Begin, size_t End) const {
  // One batched kernel scan over the contiguous embedding block. The
  // kernel is the same lane-folded l2Sq behind support::euclidean, so the
  // deferred sqrt reproduces select()'s per-entry distance bit-for-bit.
  // Dists/Keyed are sized by the caller: sharded stores fill disjoint
  // slices of both from worker threads, so no resizing may happen here.
  assert(S.Dists.size() == Entries.size() && "caller must size the scratch");
  support::kernels::l2Sq1xN(TestEmbed, Embeds.rowPtr(Begin), End - Begin,
                            Embeds.dim(), Embeds.stride(),
                            S.Dists.data() + Begin);
  for (size_t I = Begin; I < End; ++I)
    S.Keyed[I] = {S.Dists[I], static_cast<uint32_t>(I)};
}

void CalibrationScores::finishSelection(const PromConfig &Cfg,
                                        AssessmentScratch &S) const {
  size_t N = Entries.size();

  // Partition out the Keep nearest. std::pair's lexicographic < is the
  // same (distance, index) total order as select()'s comparator, and
  // ordering by squared distance is order-equivalent to ordering by
  // distance — so the selected *set* is identical. No full sort: the
  // engine consumes the selection as a set.
  S.Keep = keepCount(N, Cfg);
  S.SelectedAll = S.Keep == N;
  if (!S.SelectedAll)
    partitionSmallestKeys(S, S.Keep);
  applySelectionWeights(Cfg, S);
}

void CalibrationScores::finishSelectionPruned(const PromConfig &Cfg,
                                              AssessmentScratch &S) const {
  size_t N = Entries.size();
  S.Keep = keepCount(N, Cfg);
  // The pruned scan only runs when Keep < N (otherwise no list could ever
  // be skipped), and its candidate list provably contains the Keep global
  // nearest — so partitioning the candidates selects exactly the set the
  // full-scan partition would.
  assert(S.Keep < N && "pruned selection requires a proper subset");
  assert(S.Keyed.size() >= S.Keep &&
         "pruned candidates cannot cover the selection");
  S.SelectedAll = false;
  if (S.Keyed.size() > S.Keep)
    partitionSmallestKeys(S, S.Keep);
  applySelectionWeights(Cfg, S);
}

void CalibrationScores::applySelectionWeights(const PromConfig &Cfg,
                                              AssessmentScratch &S) const {
  size_t N = Entries.size();
  S.SelectedBits.assign((N + 63) / 64, 0);
  for (size_t Pos = 0; Pos < S.Keep; ++Pos)
    S.SelectedBits[S.Keyed[Pos].second / 64] |= uint64_t(1)
                                                << (S.Keyed[Pos].second % 64);

  S.WeightByEntry.resize(N);
  if (Cfg.WeightMode != CalibrationWeightMode::None) {
    double Tau = effectiveTau(Cfg, MedianNNDist);
    double Offset = 0.0;
    if (Cfg.WeightMode == CalibrationWeightMode::WeightedCount) {
      double MinSq = S.Keyed.front().first;
      for (size_t Pos = 1; Pos < S.Keep; ++Pos)
        MinSq = std::min(MinSq, S.Keyed[Pos].first);
      Offset = std::sqrt(MinSq);
    }
    for (size_t Pos = 0; Pos < S.Keep; ++Pos)
      S.WeightByEntry[S.Keyed[Pos].second] =
          distanceWeight(std::sqrt(S.Keyed[Pos].first), Offset, Tau,
                         Cfg.WeightNormPower);
  } else {
    for (size_t Pos = 0; Pos < S.Keep; ++Pos)
      S.WeightByEntry[S.Keyed[Pos].second] = 1.0;
  }
}

/// Resolves the effective weight mode of one expert: the paper's literal
/// score scaling breaks tie-heavy discrete scores (any w < 1 flips every
/// exact tie against the test sample), so those experts fall back to
/// weighted counting.
static CalibrationWeightMode resolveMode(const PromConfig &Cfg,
                                         bool DiscreteScores) {
  if (Cfg.WeightMode == CalibrationWeightMode::ScoreScaling && DiscreteScores)
    return CalibrationWeightMode::WeightedCount;
  return Cfg.WeightMode;
}

std::vector<double>
CalibrationScores::pValues(const CalibrationSelection &Sel, size_t Expert,
                           const std::vector<double> &TestScores,
                           const PromConfig &Cfg,
                           bool DiscreteScores) const {
  assert(Expert < numExperts() && "expert index out of range");
  assert(ScoreColumns.size() == numExperts() &&
         "pValues requires the finalize()-built indexes");
  size_t NumLabels = TestScores.size();
  std::vector<double> GreaterEq(NumLabels, 0.0);
  std::vector<double> Total(NumLabels, 0.0);
  std::vector<double> Counts(NumLabels, 0.0);
  std::vector<double> P(NumLabels, 0.0);

  CalibrationWeightMode Mode = resolveMode(Cfg, DiscreteScores);
  const std::vector<double> &Scores = ScoreColumns[Expert];

  // One counting path for every weight mode. Accumulation runs in
  // ascending entry-index order inside each canonical block, and block
  // partials fold in ascending block order — the scheme the sharded
  // CalibrationStore's general path shares — so the floating-point sums do
  // not depend on how the selection was ordered or how the work was
  // partitioned. Unit-weight counts are exact integers in doubles, so they
  // equal the store's binary-search counts bit for bit.
  std::vector<uint8_t> Mask(Entries.size(), 0);
  std::vector<double> WeightByEntry(Entries.size(), 0.0);
  for (size_t Pos = 0; Pos < Sel.Indices.size(); ++Pos) {
    Mask[Sel.Indices[Pos]] = 1;
    WeightByEntry[Sel.Indices[Pos]] = Sel.Weights[Pos];
  }

  std::vector<double> BlockGE(NumLabels), BlockTot(NumLabels),
      BlockCnt(NumLabels);
  for (size_t B0 = 0; B0 < Entries.size(); B0 += CalibrationAccumBlock) {
    size_t B1 = std::min(Entries.size(), B0 + CalibrationAccumBlock);
    std::fill(BlockGE.begin(), BlockGE.end(), 0.0);
    std::fill(BlockTot.begin(), BlockTot.end(), 0.0);
    std::fill(BlockCnt.begin(), BlockCnt.end(), 0.0);
    for (size_t I = B0; I < B1; ++I) {
      if (!Mask[I])
        continue;
      int Label = Labels[I];
      if (Label < 0 || static_cast<size_t>(Label) >= NumLabels)
        continue;
      size_t L = static_cast<size_t>(Label);
      BlockCnt[L] += 1.0;
      double W = WeightByEntry[I];
      switch (Mode) {
      case CalibrationWeightMode::WeightedCount:
        // Weighted conformal counting: each calibration sample contributes
        // its Eq. (1) weight to both counts.
        BlockTot[L] += W;
        if (Scores[I] >= TestScores[L])
          BlockGE[L] += W;
        break;
      case CalibrationWeightMode::ScoreScaling:
        // The paper's literal adjustment a_i = w_i * a_i with unit counts.
        BlockTot[L] += 1.0;
        if (W * Scores[I] >= TestScores[L])
          BlockGE[L] += 1.0;
        break;
      case CalibrationWeightMode::None:
        BlockTot[L] += 1.0;
        if (Scores[I] >= TestScores[L])
          BlockGE[L] += 1.0;
        break;
      }
    }
    for (size_t L = 0; L < NumLabels; ++L) {
      GreaterEq[L] += BlockGE[L];
      Total[L] += BlockTot[L];
      Counts[L] += BlockCnt[L];
    }
  }

  finishPValues(GreaterEq.data(), Total.data(), Counts.data(), NumLabels,
                Cfg, P.data());
  return P;
}

void CalibrationScores::resolveExpertModes(const PromConfig &Cfg,
                                           const uint8_t *DiscreteFlags,
                                           AssessmentScratch &S) const {
  size_t NumExp = numExperts();
  bool AnyDiscrete = false;
  if (DiscreteFlags)
    for (size_t E = 0; E < NumExp; ++E)
      AnyDiscrete |= DiscreteFlags[E] != 0;

  S.Modes.resize(NumExp);
  S.Columns.resize(NumExp);
  S.UniformModes = true;
  for (size_t E = 0; E < NumExp; ++E) {
    S.Modes[E] = AnyDiscrete ? resolveMode(Cfg, DiscreteFlags[E] != 0)
                             : Cfg.WeightMode;
    S.UniformModes &= S.Modes[E] == S.Modes[0];
    S.Columns[E] = ScoreColumns[E].data();
  }
}

void CalibrationScores::accumulateGeneralBlock(const AssessmentScratch &S,
                                               const double *TestScores,
                                               size_t NumLabels, size_t Begin,
                                               size_t End, double *GreaterEq,
                                               double *Total,
                                               double *Counts) const {
  size_t NumExp = numExperts();
  const CalibrationWeightMode *Modes = S.Modes.data();
  const double *const *Columns = S.Columns.data();

  // Walks the set bits of the selection bitmap over [Begin, End) in
  // ascending entry order: the entries and the order of every add match a
  // test of each entry, but the cost follows the selected count.
  auto ForEachSelected = [&](auto &&Body) {
    for (size_t W = Begin / 64; W * 64 < End; ++W) {
      uint64_t Word = S.SelectedBits[W];
      if (W * 64 < Begin)
        Word &= ~uint64_t(0) << (Begin % 64);
      if (End - W * 64 < 64)
        Word &= (uint64_t(1) << (End - W * 64)) - 1;
      for (; Word != 0; Word &= Word - 1) {
        size_t I = W * 64 + static_cast<size_t>(__builtin_ctzll(Word));
        int Label = Labels[I];
        if (Label < 0 || static_cast<size_t>(Label) >= NumLabels)
          continue;
        size_t L = static_cast<size_t>(Label);
        Counts[L] += 1.0;
        Body(I, L);
      }
    }
  };

  if (S.UniformModes && Modes[0] == CalibrationWeightMode::WeightedCount) {
    // The default configuration: branch-free weighted counting.
    ForEachSelected([&](size_t I, size_t L) {
      double W = S.WeightByEntry[I];
      for (size_t E = 0; E < NumExp; ++E) {
        size_t Cell = E * NumLabels + L;
        Total[Cell] += W;
        if (Columns[E][I] >= TestScores[Cell])
          GreaterEq[Cell] += W;
      }
    });
  } else {
    ForEachSelected([&](size_t I, size_t L) {
      double W = S.WeightByEntry[I];
      for (size_t E = 0; E < NumExp; ++E) {
        size_t Cell = E * NumLabels + L;
        switch (Modes[E]) {
        case CalibrationWeightMode::WeightedCount:
          Total[Cell] += W;
          if (Columns[E][I] >= TestScores[Cell])
            GreaterEq[Cell] += W;
          break;
        case CalibrationWeightMode::ScoreScaling:
          Total[Cell] += 1.0;
          if (W * Columns[E][I] >= TestScores[Cell])
            GreaterEq[Cell] += 1.0;
          break;
        case CalibrationWeightMode::None:
          Total[Cell] += 1.0;
          if (Columns[E][I] >= TestScores[Cell])
            GreaterEq[Cell] += 1.0;
          break;
        }
      }
    });
  }
}

void CalibrationScores::finishPValues(const double *GreaterEq,
                                      const double *Total,
                                      const double *Counts, size_t NumLabels,
                                      const PromConfig &Cfg,
                                      double *POut) const {
  for (size_t L = 0; L < NumLabels; ++L) {
    if (Counts[L] <= 0.0) {
      // No conformity evidence for this label among the selected samples.
      POut[L] = 0.0;
      continue;
    }
    if (Cfg.SmoothedPValues) {
      // The pseudo-count is one *typical* observation (the mean weight),
      // so the minimum p-value stays ~1/(n+1) regardless of how sharply
      // the weights localize.
      double MeanW = Total[L] / Counts[L];
      POut[L] = (GreaterEq[L] + MeanW) / (Total[L] + MeanW);
    } else {
      POut[L] = Total[L] > 0.0 ? GreaterEq[L] / Total[L] : 0.0;
    }
  }
}

void CalibrationScores::buildBatchIndexes() {
  size_t N = Entries.size();
  size_t Dim = N == 0 ? 0 : Entries.front().Embed.size();
  size_t NumExp = numExperts();

  Embeds.reset(N, Dim);
  Labels.resize(N);
  MaxLabel = -1;
  for (size_t I = 0; I < N; ++I) {
    assert(Entries[I].Embed.size() == Dim && "ragged calibration embeds");
    Embeds.setRow(I, Entries[I].Embed.data());
    Labels[I] = Entries[I].Label;
    MaxLabel = std::max(MaxLabel, Entries[I].Label);
  }

  ScoreColumns.assign(NumExp, std::vector<double>(N, 0.0));
  for (size_t I = 0; I < N; ++I) {
    assert(Entries[I].Scores.size() == NumExp && "ragged expert scores");
    for (size_t E = 0; E < NumExp; ++E)
      ScoreColumns[E][I] = Entries[I].Scores[E];
  }
}

double prom::confidenceFromSetSize(size_t Size, double C) {
  assert(C > 0.0 && "Gaussian scale must be positive");
  double D = static_cast<double>(Size) - 1.0;
  return std::exp(-(D * D) / (2.0 * C * C));
}
