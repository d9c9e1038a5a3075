//===- serve/RecalibrationController.cpp - Drift-triggered refresh ----------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/RecalibrationController.h"

#include "data/Scaler.h"
#include "support/FaultInjection.h"
#include "support/Serialize.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

using namespace prom;
using namespace prom::serve;

RecalibrationController::RecalibrationController(PromClassifier &Engine,
                                                 WindowedDriftMonitor &Monitor,
                                                 RecalibrationConfig CfgIn)
    : Engine(Engine), Monitor(Monitor), Cfg(CfgIn) {
  assert(Engine.isCalibrated() && "controller over an uncalibrated engine");
  if (Cfg.MinRefreshSamples == 0)
    Cfg.MinRefreshSamples = 1;
  if (Cfg.KeepGenerations == 0)
    Cfg.KeepGenerations = 1;
  if (Cfg.MaxRefreshAttempts == 0)
    Cfg.MaxRefreshAttempts = 1;

  // Resume the generation sequence of an existing rotation directory so a
  // restarted server keeps numbering monotonically instead of overwriting
  // the generations it just restored from.
  if (!Cfg.SnapshotDir.empty()) {
    std::vector<uint64_t> Gens =
        support::listSnapshotGenerations(Cfg.SnapshotDir);
    if (!Gens.empty())
      Stats.LastGeneration = Gens.back();
  }

  Worker = std::thread([this] { workerLoop(); });
  // The callback only signals; the refresh itself runs on Worker so the
  // recording batcher thread returns to serving immediately. The
  // registered alert observer (if any) runs after the signaling, outside
  // the controller's lock, still on the recording thread.
  Monitor.setAlertCallback([this](const DriftWindowSnapshot &Snap) {
    AlertObserver Observer;
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      ++Stats.AlertsSeen;
      RefreshRequested = true;
      WakeWorker.notify_one();
      Observer = OnAlertObserved;
    }
    if (Observer)
      Observer(Snap);
  });
}

RecalibrationController::~RecalibrationController() { shutdown(); }

void RecalibrationController::submitLabeled(data::Sample S) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Stopping)
    return;
  if (Cfg.MaxBufferedSamples != 0 &&
      Pending.size() >= Cfg.MaxBufferedSamples)
    Pending.pop_front(); // Oldest out: freshest labels win.
  Pending.push_back(std::move(S));
}

size_t RecalibrationController::pendingLabeled() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Pending.size();
}

void RecalibrationController::setScaler(const data::StandardScaler *S) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Scaler = S;
}

void RecalibrationController::setAttribution(DriftAttribution *A) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Attribution = A;
}

void RecalibrationController::setAlertObserver(AlertObserver Fn) {
  std::lock_guard<std::mutex> Lock(Mutex);
  OnAlertObserved = std::move(Fn);
}

void RecalibrationController::triggerRefresh() {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Stopping)
    return;
  RefreshRequested = true;
  WakeWorker.notify_one();
}

bool RecalibrationController::waitForRefreshes(
    size_t N, std::chrono::milliseconds Timeout) {
  std::unique_lock<std::mutex> Lock(Mutex);
  return RefreshDone.wait_for(Lock, Timeout, [&] {
    return Stats.RefreshesCompleted >= N || Stopping;
  }) && Stats.RefreshesCompleted >= N;
}

RecalibrationStats RecalibrationController::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  RecalibrationStats Out = Stats;
  Out.PendingSamples = Pending.size();
  return Out;
}

void RecalibrationController::shutdown() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Stopping && !Worker.joinable())
      return;
    Stopping = true;
  }
  // Unsubscribe first: after shutdown() returns, no batcher thread may
  // touch this controller through the monitor hook.
  Monitor.setAlertCallback(nullptr);
  WakeWorker.notify_all();
  RefreshDone.notify_all();
  if (Worker.joinable())
    Worker.join();
}

void RecalibrationController::workerLoop() {
  while (true) {
    std::deque<data::Sample> Batch;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WakeWorker.wait(Lock, [&] { return Stopping || RefreshRequested; });
      if (Stopping)
        return;
      RefreshRequested = false;
      if (Pending.size() < Cfg.MinRefreshSamples) {
        // Not enough fresh labels to make the fold worthwhile; keep them
        // buffered and re-arm for the next alert.
        ++Stats.RefreshesDeferred;
        continue;
      }
      Batch.swap(Pending);
    }
    runRefresh(std::move(Batch));
  }
}

bool RecalibrationController::backoffWait(std::chrono::milliseconds Backoff) {
  std::unique_lock<std::mutex> Lock(Mutex);
  // Alerts may notify WakeWorker during the wait; the predicate only
  // breaks on shutdown, so a mid-backoff alert simply coalesces into the
  // retry already scheduled.
  WakeWorker.wait_for(Lock, Backoff, [&] { return Stopping; });
  return !Stopping;
}

void RecalibrationController::requeueBatch(std::deque<data::Sample> &&Batch) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Stopping)
    return;
  for (auto It = Batch.rbegin(); It != Batch.rend(); ++It)
    Pending.push_front(std::move(*It));
  while (Cfg.MaxBufferedSamples != 0 &&
         Pending.size() > Cfg.MaxBufferedSamples)
    Pending.pop_front(); // Oldest out: freshest labels win.
}

std::deque<data::Sample> RecalibrationController::prioritizeBatch(
    std::deque<data::Sample> &Batch, size_t Bound,
    const DriftAttributionReport *Report, bool &Ranked) {
  std::deque<data::Sample> Overflow;
  Ranked = Report != nullptr && Report->ReferenceReady &&
           !Report->Top.empty();
  if (!Ranked) {
    // No usable attribution: recency wins, keep the newest Bound.
    while (Batch.size() > Bound) {
      Overflow.push_back(std::move(Batch.front()));
      Batch.pop_front();
    }
    return Overflow;
  }

  // Score each sample by how far it sits from the frozen reference along
  // the reported top drifted dimensions (mean standardized distance):
  // the samples that live where the drift is are the ones whose labels
  // teach the refreshed calibration the most.
  std::vector<double> Score(Batch.size(), 0.0);
  for (size_t I = 0; I < Batch.size(); ++I) {
    const std::vector<double> &F = Batch[I].Features;
    double Sum = 0.0;
    size_t Used = 0;
    for (const DimensionDrift &D : Report->Top) {
      if (D.Dim >= F.size())
        continue;
      // Constant reference dims score in raw-difference units, matching
      // the attribution layer's zero-variance fallback.
      double Spread = D.RefStd > 1e-9 ? D.RefStd : 1.0;
      Sum += std::fabs(F[D.Dim] - D.RefMean) / Spread;
      ++Used;
    }
    Score[I] = Used == 0 ? 0.0 : Sum / static_cast<double>(Used);
  }
  std::vector<size_t> Order(Batch.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    if (Score[A] != Score[B])
      return Score[A] > Score[B];
    return A < B;
  });
  std::vector<char> Keep(Batch.size(), 0);
  for (size_t I = 0; I < Bound && I < Order.size(); ++I)
    Keep[Order[I]] = 1;

  std::deque<data::Sample> Kept;
  for (size_t I = 0; I < Batch.size(); ++I) {
    if (Keep[I])
      Kept.push_back(std::move(Batch[I]));
    else
      Overflow.push_back(std::move(Batch[I]));
  }
  Batch = std::move(Kept);
  return Overflow;
}

void RecalibrationController::runRefresh(std::deque<data::Sample> Batch) {
  // Attribution at refresh time: one report taken before anything is
  // folded or re-armed, so it describes the drift that triggered this
  // refresh. Used to prioritize the batch and recorded into stats on
  // completion.
  DriftAttribution *Attr;
  size_t Bound;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Attr = Attribution;
    Bound = Cfg.MaxSamplesPerRefresh;
  }
  DriftAttributionReport Report;
  bool HasReport = false;
  if (Attr != nullptr) {
    Report = Attr->report();
    HasReport = true;
  }

  bool Prioritized = false;
  if (Bound != 0 && Batch.size() > Bound) {
    std::deque<data::Sample> Overflow = prioritizeBatch(
        Batch, Bound, HasReport ? &Report : nullptr, Prioritized);
    // The less drift-relevant tail goes back to the buffer front (it is
    // older than anything arriving next) for a later refresh.
    requeueBatch(std::move(Overflow));
  }

  // The engine refresh: incremental store fold + atomic swap. Serving
  // continues on the previous store generation throughout — including
  // across failed attempts, because the swap is the *last* step of a
  // successful refreshCalibration() and a throw before it leaves the
  // last known-good store untouched.
  data::Dataset Refresh;
  Refresh.reserve(Batch.size());
  for (const data::Sample &S : Batch)
    Refresh.add(S);

  size_t StoreSize = 0;
  bool Refreshed = false;
  std::chrono::milliseconds Backoff = Cfg.RefreshRetryBackoff;
  for (size_t Attempt = 1; Attempt <= Cfg.MaxRefreshAttempts && !Refreshed;
       ++Attempt) {
    try {
      if (support::faults::shouldFail("refresh_throw"))
        throw std::runtime_error("injected refresh failure");
      if (support::faults::shouldFail("refresh_stall"))
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      StoreSize = Engine.refreshCalibration(Refresh);
      Refreshed = true;
    } catch (const std::exception &) {
      {
        std::lock_guard<std::mutex> Lock(Mutex);
        ++Stats.RefreshFailures;
      }
      if (Attempt < Cfg.MaxRefreshAttempts) {
        if (!backoffWait(Backoff))
          return; // Shutting down mid-retry; the buffer is dropped anyway.
        Backoff *= 2;
      }
    }
  }
  if (!Refreshed) {
    // Abandon: the batch goes back to the front of the buffer, so the
    // next alert (or triggerRefresh) retries it together with whatever
    // labels arrived meanwhile. The engine keeps serving the last
    // known-good store bit-identically the whole time.
    requeueBatch(std::move(Batch));
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      ++Stats.RefreshesAbandoned;
    }
    RefreshDone.notify_all();
    return;
  }

  // Snapshot rotation: write the new generation fully, commit the
  // `latest` pointer atomically, then prune old generations. A crash
  // between any two steps leaves a loadable committed state behind
  // (support::resolveLatestSnapshot falls back over invalid files).
  // Rotation failures get the same bounded retry/backoff as the refresh;
  // a rotation that never commits only costs durability — the refreshed
  // store is live, and the previous committed generation still loads.
  uint64_t Generation = 0;
  bool Rotated = false;
  const data::StandardScaler *SnapScaler = nullptr;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Cfg.SnapshotScaler)
      SnapScaler = Scaler;
    Generation = Stats.LastGeneration + 1;
  }
  if (!Cfg.SnapshotDir.empty()) {
    Backoff = Cfg.RefreshRetryBackoff;
    for (size_t Attempt = 1; Attempt <= Cfg.MaxRefreshAttempts && !Rotated;
         ++Attempt) {
      if (support::rotateSnapshotGeneration(
              Cfg.SnapshotDir, Generation, Cfg.KeepGenerations,
              [&](const std::string &Path) {
                return Engine.saveSnapshot(Path, SnapScaler);
              })) {
        Rotated = true;
        break;
      }
      {
        std::lock_guard<std::mutex> Lock(Mutex);
        ++Stats.SnapshotFailures;
      }
      if (Attempt < Cfg.MaxRefreshAttempts) {
        if (!backoffWait(Backoff))
          return;
        Backoff *= 2;
      }
    }
  }

  if (Cfg.ResetMonitorAfterRefresh) {
    Monitor.reset();
    // Re-arm the attribution layer alongside the window: the reference
    // must be rebuilt against the refreshed calibration, not the drift
    // that just got folded in.
    if (Attr != nullptr)
      Attr->rearm();
  }

  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Stats.RefreshesCompleted;
    Stats.SamplesFolded += Refresh.size();
    Stats.StoreSize = StoreSize;
    if (Rotated) {
      ++Stats.SnapshotsRotated;
      Stats.LastGeneration = Generation;
    }
    if (Prioritized)
      ++Stats.RefreshesPrioritized;
    if (HasReport) {
      Stats.LastDriftType = Report.Type;
      Stats.LastMaxAbsZ = Report.MaxAbsZ;
      Stats.LastDriftedDims.clear();
      for (const DimensionDrift &D : Report.Top)
        Stats.LastDriftedDims.push_back(D.Dim);
    }
  }
  RefreshDone.notify_all();
}
