//===- tests/ServeTest.cpp - async serving runtime ----------------------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The AssessmentService must be a scheduling layer, nothing more: a
// verdict served through the queue + micro-batcher is bit-identical to a
// direct assessBatch() verdict for the same sample. Also covers deadline
// flushes of short batches, concurrent submitters, drain/shutdown
// semantics, fail-closed admission of non-finite samples, and the
// WindowedDriftMonitor's sliding-window counters and
// rising-edge recalibration alerts.
//
//===----------------------------------------------------------------------===//

#include "data/Split.h"
#include "ml/Linear.h"
#include "serve/AssessmentService.h"
#include "serve/RecalibrationController.h"
#include "serve/WindowedDriftMonitor.h"
#include "support/Serialize.h"
#include "tests/TestHelpers.h"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <thread>

using namespace prom;
using namespace prom::serve;
using prom::testing::expectSameVerdict;
using prom::testing::gaussianBlobs;

namespace {

/// Shared calibrated engine.
struct EngineFixture {
  support::Rng R{63};
  data::Dataset Train, Calib, Test;
  ml::LogisticRegression Model;
  std::unique_ptr<PromClassifier> Prom;

  EngineFixture() {
    data::Dataset Full = gaussianBlobs(3, 220, 4.0, 0.8, R);
    auto Split = data::calibrationPartition(Full, R, 0.35);
    Train = std::move(Split.first);
    Calib = std::move(Split.second);
    Model.fit(Train, R);
    PromConfig Cfg;
    Cfg.NumShards = 4;
    Prom = std::make_unique<PromClassifier>(Model, Cfg);
    Prom->calibrate(Calib);

    Test = gaussianBlobs(3, 30, 4.0, 0.8, R);
    for (int I = 0; I < 30; ++I) {
      data::Sample Novel;
      Novel.Features = {R.gaussian(0.0, 0.7), R.gaussian(0.0, 0.7)};
      Novel.Label = 0;
      Test.add(std::move(Novel));
    }
  }
};

EngineFixture &fixture() {
  static EngineFixture F;
  return F;
}

Verdict fakeVerdict(bool Drifted) {
  Verdict V;
  V.Predicted = 0;
  V.Drifted = Drifted;
  return V;
}

} // namespace

TEST(ServeTest, ServedVerdictsMatchDirectBitIdentical) {
  EngineFixture &F = fixture();
  std::vector<Verdict> Direct = F.Prom->assessBatch(F.Test);

  ServiceConfig Cfg;
  Cfg.MaxBatch = 16;
  Cfg.FlushDeadline = std::chrono::microseconds(500);
  Cfg.NumBatchers = 2;
  AssessmentService Svc(*F.Prom, Cfg);

  std::vector<std::future<Verdict>> Futures;
  for (const data::Sample &S : F.Test.samples())
    Futures.push_back(Svc.submit(S));
  for (size_t I = 0; I < Futures.size(); ++I)
    expectSameVerdict(Direct[I], Futures[I].get(), I);

  // Promises resolve before the batcher banks its stats; drain() waits
  // for the full batch epilogue.
  Svc.drain();
  ServiceStats Stats = Svc.stats();
  EXPECT_EQ(Stats.Submitted, F.Test.size());
  EXPECT_EQ(Stats.Completed, F.Test.size());
  EXPECT_GE(Stats.Batches, 1u);
  EXPECT_GE(Stats.meanBatchSize(), 1.0);
}

TEST(ServeTest, DeadlineFlushesShortBatches) {
  EngineFixture &F = fixture();

  ServiceConfig Cfg;
  Cfg.MaxBatch = 64; // Far larger than what we submit.
  Cfg.FlushDeadline = std::chrono::microseconds(200);
  AssessmentService Svc(*F.Prom, Cfg);

  std::vector<std::future<Verdict>> Futures;
  for (size_t I = 0; I < 3; ++I)
    Futures.push_back(Svc.submit(F.Test[I]));
  for (auto &Fut : Futures)
    Fut.get(); // Must resolve without 61 more requests arriving.
  EXPECT_GE(Svc.stats().DeadlineFlushes, 1u);
}

TEST(ServeTest, ConcurrentSubmittersAllServed) {
  EngineFixture &F = fixture();

  ServiceConfig Cfg;
  Cfg.MaxBatch = 8;
  Cfg.NumBatchers = 2;
  AssessmentService Svc(*F.Prom, Cfg);

  constexpr size_t Clients = 4, PerClient = 40;
  std::atomic<size_t> Resolved{0};
  std::vector<std::thread> Threads;
  for (size_t C = 0; C < Clients; ++C)
    Threads.emplace_back([&, C] {
      for (size_t I = 0; I < PerClient; ++I) {
        size_t Idx = (C * PerClient + I) % F.Test.size();
        std::future<Verdict> Fut = Svc.submit(F.Test[Idx]);
        Verdict V = Fut.get();
        if (V.Experts.size() == F.Prom->numExperts())
          ++Resolved;
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Resolved.load(), Clients * PerClient);

  Svc.drain();
  ServiceStats Stats = Svc.stats();
  EXPECT_EQ(Stats.Submitted, Clients * PerClient);
  EXPECT_EQ(Stats.Completed, Clients * PerClient);
}

TEST(ServeTest, ShutdownDrainsAndRejectsLateSubmits) {
  EngineFixture &F = fixture();

  auto Svc = std::make_unique<AssessmentService>(*F.Prom);
  std::vector<std::future<Verdict>> Futures;
  for (size_t I = 0; I < 10; ++I)
    Futures.push_back(Svc->submit(F.Test[I]));
  Svc->shutdown();
  for (auto &Fut : Futures)
    EXPECT_NO_THROW(Fut.get()); // Accepted before shutdown => answered.

  // The unified post-shutdown contract: submit() resolves the future
  // with ShedError{Shutdown} (a runtime_error, so reason-agnostic
  // callers still just see a failure), trySubmit() returns false.
  std::future<Verdict> Late = Svc->submit(F.Test[0]);
  try {
    Late.get();
    FAIL() << "post-shutdown submit must fail the future";
  } catch (const ShedError &E) {
    EXPECT_EQ(E.reason(), ShedReason::Shutdown);
  }
  EXPECT_EQ(Svc->stats().ShedShutdown, 1u);

  std::future<Verdict> TryLate;
  EXPECT_FALSE(Svc->trySubmit(F.Test[0], TryLate));
}

TEST(ServeTest, DrainIsSafeConcurrentWithShutdown) {
  EngineFixture &F = fixture();

  for (int Round = 0; Round < 4; ++Round) {
    AssessmentService Svc(*F.Prom);
    std::vector<std::future<Verdict>> Futures;
    for (size_t I = 0; I < 24; ++I)
      Futures.push_back(Svc.submit(F.Test[I % F.Test.size()]));

    // drain() from several threads racing one shutdown(): every call
    // must return (no deadlock, no missed wakeup) and every accepted
    // request must still resolve with a verdict.
    std::vector<std::thread> Drainers;
    for (int D = 0; D < 3; ++D)
      Drainers.emplace_back([&] { Svc.drain(); });
    std::thread Stopper([&] { Svc.shutdown(); });
    for (std::thread &T : Drainers)
      T.join();
    Stopper.join();
    for (auto &Fut : Futures)
      EXPECT_NO_THROW(Fut.get());
  }

  // The never-started flavor: a paused service's queue is shed at
  // shutdown; concurrent drain() must wake rather than hang.
  ServiceConfig Cfg;
  Cfg.StartPaused = true;
  AssessmentService Paused(*F.Prom, Cfg);
  std::future<Verdict> Parked = Paused.submit(F.Test[0]);
  std::thread Drainer([&] { Paused.drain(); });
  Paused.shutdown();
  Drainer.join();
  try {
    Parked.get();
    FAIL() << "queued request on a never-started service must be shed";
  } catch (const ShedError &E) {
    EXPECT_EQ(E.reason(), ShedReason::Shutdown);
  }
}

//===----------------------------------------------------------------------===//
// Overload control: shed policies, deadlines, latency accounting
//===----------------------------------------------------------------------===//

TEST(ServeTest, RejectNewestShedsWhenQueueIsFull) {
  EngineFixture &F = fixture();

  // Paused batchers keep the queue from draining, so admission control is
  // tested in isolation.
  ServiceConfig Cfg;
  Cfg.QueueCapacity = 2;
  Cfg.MaxBatch = 4;
  Cfg.Shed = ShedPolicy::RejectNewest;
  Cfg.StartPaused = true;
  AssessmentService Svc(*F.Prom, Cfg);

  std::future<Verdict> A = Svc.submit(F.Test[0]);
  std::future<Verdict> B = Svc.submit(F.Test[1]);
  std::future<Verdict> C = Svc.submit(F.Test[2]); // Queue full: shed, fast.
  try {
    C.get();
    FAIL() << "third submit must shed";
  } catch (const ShedError &E) {
    EXPECT_EQ(E.reason(), ShedReason::QueueFull);
  }

  ServiceStats Stats = Svc.stats();
  EXPECT_EQ(Stats.Submitted, 2u);
  EXPECT_EQ(Stats.ShedQueueFull, 1u);

  Svc.start();
  EXPECT_NO_THROW(A.get());
  EXPECT_NO_THROW(B.get());
  Svc.drain();
  Stats = Svc.stats();
  EXPECT_EQ(Stats.Completed, 2u);
  EXPECT_EQ(Stats.shedTotal(), 1u);
}

TEST(ServeTest, DeadlineAwareEvictsExpiredToAdmitLiveWork) {
  EngineFixture &F = fixture();

  ServiceConfig Cfg;
  Cfg.QueueCapacity = 2;
  Cfg.Shed = ShedPolicy::DeadlineAware;
  Cfg.StartPaused = true;
  AssessmentService Svc(*F.Prom, Cfg);

  // Two requests with microscopic budgets fill the queue...
  std::future<Verdict> A =
      Svc.submitWithDeadline(F.Test[0], std::chrono::microseconds(1));
  std::future<Verdict> B =
      Svc.submitWithDeadline(F.Test[1], std::chrono::microseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  // ...and the next arrival evicts them instead of being refused: the
  // queue's capacity goes to work that can still meet its deadline.
  std::future<Verdict> C =
      Svc.submitWithDeadline(F.Test[2], std::chrono::seconds(10));
  for (auto *Fut : {&A, &B}) {
    try {
      Fut->get();
      FAIL() << "expired queued request must be shed";
    } catch (const ShedError &E) {
      EXPECT_EQ(E.reason(), ShedReason::DeadlineExpired);
    }
  }

  Svc.start();
  EXPECT_NO_THROW(C.get());
  Svc.drain();
  ServiceStats Stats = Svc.stats();
  EXPECT_EQ(Stats.ShedExpired, 2u);
  EXPECT_EQ(Stats.Completed, 1u);
  // meanBatchSize counts only assessed requests: one batch, one verdict.
  EXPECT_DOUBLE_EQ(Stats.meanBatchSize(), 1.0);
}

TEST(ServeTest, ExpiredRequestsAreShedAtBatchPick) {
  EngineFixture &F = fixture();

  // Block policy: nothing is shed at admission, but requests whose
  // deadline ran out while queued must be shed at pick time instead of
  // burning engine work.
  ServiceConfig Cfg;
  Cfg.Shed = ShedPolicy::Block;
  Cfg.StartPaused = true;
  AssessmentService Svc(*F.Prom, Cfg);

  std::vector<std::future<Verdict>> Doomed;
  for (size_t I = 0; I < 4; ++I)
    Doomed.push_back(
        Svc.submitWithDeadline(F.Test[I], std::chrono::milliseconds(1)));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));

  Svc.start();
  for (auto &Fut : Doomed) {
    try {
      Fut.get();
      FAIL() << "request expired in queue must be shed at pick";
    } catch (const ShedError &E) {
      EXPECT_EQ(E.reason(), ShedReason::DeadlineExpired);
    }
  }
  Svc.drain();
  ServiceStats Stats = Svc.stats();
  EXPECT_EQ(Stats.ShedExpired, 4u);
  EXPECT_EQ(Stats.Completed, 0u);
  // An expired-only pick forms no batch: the engine never ran, and the
  // batch-size accounting is not diluted by shed requests.
  EXPECT_EQ(Stats.Batches, 0u);
  EXPECT_DOUBLE_EQ(Stats.meanBatchSize(), 0.0);

  // A non-positive budget sheds at admission without queueing.
  std::future<Verdict> Immediate =
      Svc.submitWithDeadline(F.Test[0], std::chrono::microseconds(0));
  EXPECT_THROW(Immediate.get(), ShedError);
  EXPECT_EQ(Svc.stats().ShedExpired, 5u);
}

TEST(ServeTest, NonFiniteFeaturesFailClosedWithInvalidInput) {
  EngineFixture &F = fixture();
  ServiceConfig Cfg;
  Cfg.StartPaused = true;
  AssessmentService Svc(*F.Prom, Cfg);

  // Rejected before the queue: nothing is staged for them, and each entry
  // point fails the future the same way.
  const double Bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  std::vector<std::future<Verdict>> Rejected;
  for (double V : Bad) {
    data::Sample S = F.Test[0];
    S.Features[0] = V;
    Rejected.push_back(Svc.submit(S));
    Rejected.push_back(
        Svc.submitWithDeadline(S, std::chrono::seconds(10)));
    std::future<Verdict> Out;
    ASSERT_TRUE(Svc.trySubmit(S, Out));
    Rejected.push_back(std::move(Out));
  }
  EXPECT_EQ(Svc.queueDepth(), 0u);
  for (auto &Fut : Rejected) {
    try {
      Fut.get();
      FAIL() << "a non-finite sample must never be answered";
    } catch (const ShedError &E) {
      EXPECT_EQ(E.reason(), ShedReason::InvalidInput);
    }
  }

  std::future<Verdict> Good = Svc.submit(F.Test[0]);
  Svc.start();
  expectSameVerdict(F.Prom->assess(F.Test[0]), Good.get(), 0);
  Svc.drain();
  ServiceStats Stats = Svc.stats();
  EXPECT_EQ(Stats.ShedInvalidInput, 9u);
  EXPECT_EQ(Stats.shedTotal(), 9u);
  EXPECT_EQ(Stats.Submitted, 1u);
  EXPECT_EQ(Stats.Completed, 1u);
  EXPECT_TRUE(Stats.Tenants.empty()); // No per-tenant split here.
}

TEST(ServeTest, ServedVerdictsBitIdenticalUnderOverload) {
  EngineFixture &F = fixture();
  std::vector<Verdict> Direct = F.Prom->assessBatch(F.Test);

  // A queue far smaller than the burst, so a large fraction of submits
  // races admission against the batchers: every request must resolve —
  // with a verdict bit-identical to the direct one, or an explicit shed —
  // and the counters must account for every single submit.
  ServiceConfig Cfg;
  Cfg.QueueCapacity = 8;
  Cfg.MaxBatch = 4;
  Cfg.NumBatchers = 2;
  Cfg.Shed = ShedPolicy::DeadlineAware;
  AssessmentService Svc(*F.Prom, Cfg);

  constexpr size_t Clients = 4, PerClient = 60;
  std::atomic<size_t> Served{0}, Shed{0};
  std::vector<std::thread> Threads;
  for (size_t C = 0; C < Clients; ++C)
    Threads.emplace_back([&, C] {
      for (size_t I = 0; I < PerClient; ++I) {
        size_t Idx = (C * PerClient + I) % F.Test.size();
        std::future<Verdict> Fut = Svc.submitWithDeadline(
            F.Test[Idx], std::chrono::milliseconds(200));
        try {
          Verdict V = Fut.get();
          expectSameVerdict(Direct[Idx], V, Idx);
          ++Served;
        } catch (const ShedError &) {
          ++Shed;
        }
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Served.load() + Shed.load(), Clients * PerClient);

  Svc.drain();
  ServiceStats Stats = Svc.stats();
  EXPECT_EQ(Stats.Completed, Served.load());
  EXPECT_EQ(Stats.shedTotal(), Shed.load());
  EXPECT_EQ(Stats.Completed + Stats.shedTotal(), Clients * PerClient);
  // Latency is recorded for every completed request, none of the shed.
  EXPECT_EQ(Stats.Latency.Total, Stats.Completed);
}

TEST(ServeTest, LatencyHistogramQuantilesAreOrderedAndBucketed) {
  LatencyHistogram H;
  EXPECT_DOUBLE_EQ(H.quantileUs(0.5), 0.0); // Empty: no observations.

  // 90 fast observations and 10 slow ones: the median must sit in the
  // fast bucket, the deep tail in the slow one, and quantiles must be
  // monotone.
  for (int I = 0; I < 90; ++I)
    H.record(100.0);
  for (int I = 0; I < 10; ++I)
    H.record(50000.0);
  EXPECT_EQ(H.Total, 100u);
  EXPECT_GT(H.p50Us(), 64.0);
  EXPECT_LT(H.p50Us(), 256.0); // ~one sqrt(2) bucket around 100us.
  EXPECT_GT(H.p999Us(), 16000.0);
  EXPECT_LE(H.p50Us(), H.p99Us());
  EXPECT_LE(H.p99Us(), H.p999Us());

  // Merge keeps totals and tail mass.
  LatencyHistogram Sum;
  Sum += H;
  Sum += H;
  EXPECT_EQ(Sum.Total, 200u);
  EXPECT_GT(Sum.p999Us(), 16000.0);
}

TEST(ServeTest, ServiceFoldsVerdictsIntoMonitor) {
  EngineFixture &F = fixture();

  WindowedDriftMonitor Monitor(DriftWindowConfig{64, 0.9, 8});
  ServiceConfig Cfg;
  Cfg.MaxBatch = 16;
  AssessmentService Svc(*F.Prom, Cfg, &Monitor);

  std::vector<std::future<Verdict>> Futures;
  for (const data::Sample &S : F.Test.samples())
    Futures.push_back(Svc.submit(S));
  size_t Rejected = 0;
  for (auto &Fut : Futures)
    Rejected += Fut.get().Drifted ? 1 : 0;
  Svc.drain();

  DriftWindowSnapshot Snap = Monitor.snapshot();
  EXPECT_EQ(Snap.TotalSeen, F.Test.size());
  EXPECT_EQ(Snap.WindowFill, std::min<size_t>(F.Test.size(), 64));
  EXPECT_EQ(Svc.stats().DriftRejected, Rejected);
}

//===----------------------------------------------------------------------===//
// Automatic recalibration (RecalibrationController)
//===----------------------------------------------------------------------===//

TEST(ServeTest, AutomaticRecalibrationSwapServesEveryRequest) {
  // A drifting stream must trip the monitor, trigger a background
  // incremental refresh + atomic store swap + snapshot rotation — and not
  // a single request may fail or be dropped across the swap.
  support::Rng R(171);
  data::Dataset Full = gaussianBlobs(3, 220, 4.0, 0.8, R);
  auto Split = data::calibrationPartition(Full, R, 0.35);
  ml::LogisticRegression Model;
  Model.fit(Split.first, R);
  PromConfig Cfg;
  Cfg.NumShards = 4;
  PromClassifier Prom(Model, Cfg);
  Prom.calibrate(Split.second);
  size_t SizeBefore = Prom.calibrationSize();

  auto NovelSample = [&R] {
    data::Sample S;
    S.Features = {R.gaussian(0.0, 0.5), R.gaussian(0.0, 0.5)};
    S.Label = 0;
    return S;
  };

  WindowedDriftMonitor Monitor(DriftWindowConfig{64, 0.3, 32});
  RecalibrationConfig RCfg;
  RCfg.MinRefreshSamples = 16;
  RCfg.SnapshotDir = ::testing::TempDir() + "/serve_rotation";
  RCfg.KeepGenerations = 2;
  RecalibrationController Controller(Prom, Monitor, RCfg);

  // The relabeling pipeline has already queued fresh ground truth for the
  // drifting inputs when the alarm goes off.
  for (int I = 0; I < 64; ++I)
    Controller.submitLabeled(NovelSample());

  ServiceConfig SvcCfg;
  SvcCfg.MaxBatch = 16;
  SvcCfg.NumBatchers = 2;
  AssessmentService Svc(Prom, SvcCfg, &Monitor);

  // A drifting stream: far off the calibrated blobs, so the windowed
  // rejection rate crosses the alert threshold mid-stream.
  std::vector<std::future<Verdict>> Futures;
  for (int I = 0; I < 256; ++I)
    Futures.push_back(Svc.submit(NovelSample()));

  size_t Served = 0;
  for (auto &Fut : Futures) {
    Verdict V;
    ASSERT_NO_THROW(V = Fut.get());
    ASSERT_EQ(V.Experts.size(), Prom.numExperts());
    ++Served;
  }
  EXPECT_EQ(Served, Futures.size());

  ASSERT_TRUE(Controller.waitForRefreshes(1, std::chrono::milliseconds(10000)));
  RecalibrationStats Stats = Controller.stats();
  EXPECT_GE(Stats.AlertsSeen, 1u);
  EXPECT_GE(Stats.RefreshesCompleted, 1u);
  EXPECT_EQ(Stats.SamplesFolded, 64u);
  EXPECT_EQ(Prom.calibrationSize(), SizeBefore + 64);
  EXPECT_GE(Stats.SnapshotsRotated, 1u);
  EXPECT_EQ(Stats.SnapshotFailures, 0u);

  // The rotated snapshot must resolve and load.
  std::string Latest = support::resolveLatestSnapshot(RCfg.SnapshotDir);
  ASSERT_FALSE(Latest.empty());
  PromClassifier Restored(Model);
  EXPECT_TRUE(Restored.loadSnapshot(Latest));
  EXPECT_EQ(Restored.calibrationSize(), Prom.calibrationSize());

  // Post-swap serving must agree with direct calls on the refreshed
  // store, bit for bit (no pending labels remain, so the store is stable).
  Svc.drain();
  data::Dataset Probe = gaussianBlobs(3, 24, 4.0, 0.8, R);
  std::vector<Verdict> Direct = Prom.assessBatch(Probe);
  std::vector<std::future<Verdict>> ProbeFutures;
  for (const data::Sample &S : Probe.samples())
    ProbeFutures.push_back(Svc.submit(S));
  for (size_t I = 0; I < ProbeFutures.size(); ++I)
    expectSameVerdict(Direct[I], ProbeFutures[I].get(), I);

  Svc.shutdown();
  ServiceStats SvcStats = Svc.stats();
  EXPECT_EQ(SvcStats.Submitted, SvcStats.Completed); // Zero dropped.
}

//===----------------------------------------------------------------------===//
// WindowedDriftMonitor unit behavior
//===----------------------------------------------------------------------===//

TEST(ServeTest, MonitorRaisesAlertOnRisingEdgeOnly) {
  DriftWindowConfig Cfg;
  Cfg.WindowSize = 20;
  Cfg.AlertRejectRate = 0.5;
  Cfg.MinFill = 10;
  WindowedDriftMonitor Monitor(Cfg);

  // Below MinFill: no alert even at 100% rejection.
  for (int I = 0; I < 9; ++I)
    Monitor.record(fakeVerdict(true));
  EXPECT_FALSE(Monitor.alertActive());
  EXPECT_EQ(Monitor.alertsRaised(), 0u);

  // Crossing MinFill with a high rate: one rising edge.
  Monitor.record(fakeVerdict(true));
  EXPECT_TRUE(Monitor.alertActive());
  EXPECT_EQ(Monitor.alertsRaised(), 1u);

  // Staying above threshold does not re-raise.
  for (int I = 0; I < 5; ++I)
    Monitor.record(fakeVerdict(true));
  EXPECT_EQ(Monitor.alertsRaised(), 1u);

  // A clean stretch slides the rejections out of the window.
  for (int I = 0; I < 25; ++I)
    Monitor.record(fakeVerdict(false));
  EXPECT_FALSE(Monitor.alertActive());
  EXPECT_EQ(Monitor.rejectRate(), 0.0);

  // A second excursion is a second alert.
  for (int I = 0; I < 20; ++I)
    Monitor.record(fakeVerdict(true));
  EXPECT_TRUE(Monitor.alertActive());
  EXPECT_EQ(Monitor.alertsRaised(), 2u);
}

TEST(ServeTest, AlertCallbackSelfUnsubscribesDuringAlert) {
  DriftWindowConfig Cfg;
  Cfg.WindowSize = 8;
  Cfg.MinFill = 4;
  Cfg.AlertRejectRate = 0.5;
  WindowedDriftMonitor Monitor(Cfg);

  // The callback unsubscribes itself from inside its own invocation —
  // the documented self-unsubscribe path through the recursive callback
  // lock. Only the first rising edge may be delivered; the edges keep
  // being counted regardless.
  size_t Calls = 0;
  Monitor.setAlertCallback([&](const DriftWindowSnapshot &Snap) {
    ++Calls;
    EXPECT_TRUE(Snap.AlertActive);
    Monitor.setAlertCallback(nullptr);
  });

  for (int I = 0; I < 8; ++I)
    Monitor.record(fakeVerdict(true)); // First excursion.
  for (int I = 0; I < 12; ++I)
    Monitor.record(fakeVerdict(false)); // Back below the threshold.
  for (int I = 0; I < 8; ++I)
    Monitor.record(fakeVerdict(true)); // Second excursion: no callback.

  EXPECT_EQ(Calls, 1u);
  EXPECT_EQ(Monitor.alertsRaised(), 2u);
}

TEST(ServeTest, MonitorWindowEvictionIsExact) {
  DriftWindowConfig Cfg;
  Cfg.WindowSize = 4;
  Cfg.AlertRejectRate = 2.0; // Never alerts; this test is about counting.
  Cfg.MinFill = 1;
  WindowedDriftMonitor Monitor(Cfg);

  // Pattern R A R A R: window of 4 ends with A R A R -> 2 rejected.
  bool Pattern[] = {true, false, true, false, true};
  for (bool Rej : Pattern)
    Monitor.record(fakeVerdict(Rej));
  DriftWindowSnapshot Snap = Monitor.snapshot();
  EXPECT_EQ(Snap.TotalSeen, 5u);
  EXPECT_EQ(Snap.WindowFill, 4u);
  EXPECT_EQ(Snap.WindowRejected, 2u);
  EXPECT_DOUBLE_EQ(Snap.RejectRate, 0.5);
}

TEST(ServeTest, MonitorLabeledCountsWindowAndLifetime) {
  DriftWindowConfig Cfg;
  Cfg.WindowSize = 3;
  Cfg.MinFill = 1;
  WindowedDriftMonitor Monitor(Cfg);

  Monitor.recordLabeled(fakeVerdict(true), /*Mispredicted=*/true);   // TP
  Monitor.recordLabeled(fakeVerdict(true), /*Mispredicted=*/false);  // FP
  Monitor.recordLabeled(fakeVerdict(false), /*Mispredicted=*/true);  // FN
  Monitor.recordLabeled(fakeVerdict(false), /*Mispredicted=*/false); // TN

  DriftWindowSnapshot Snap = Monitor.snapshot();
  // Lifetime saw all four; the window evicted the TP.
  EXPECT_EQ(Snap.Lifetime.TruePositive, 1u);
  EXPECT_EQ(Snap.Lifetime.FalsePositive, 1u);
  EXPECT_EQ(Snap.Lifetime.FalseNegative, 1u);
  EXPECT_EQ(Snap.Lifetime.TrueNegative, 1u);
  EXPECT_EQ(Snap.Window.TruePositive, 0u);
  EXPECT_EQ(Snap.Window.FalsePositive, 1u);
  EXPECT_EQ(Snap.Window.FalseNegative, 1u);
  EXPECT_EQ(Snap.Window.TrueNegative, 1u);

  Monitor.reset();
  Snap = Monitor.snapshot();
  EXPECT_EQ(Snap.TotalSeen, 0u);
  EXPECT_EQ(Snap.WindowFill, 0u);
  EXPECT_EQ(Snap.Lifetime.total(), 0u);
}
