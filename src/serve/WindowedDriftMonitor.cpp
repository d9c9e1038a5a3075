//===- serve/WindowedDriftMonitor.cpp - Streaming drift windows -------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/WindowedDriftMonitor.h"

#include <cassert>

using namespace prom;
using namespace prom::serve;

WindowedDriftMonitor::WindowedDriftMonitor(DriftWindowConfig CfgIn)
    : Cfg(CfgIn) {
  assert(Cfg.WindowSize > 0 && "window must hold at least one verdict");
  Ring.resize(Cfg.WindowSize);
}

void WindowedDriftMonitor::record(const CommitteeVerdict &V) {
  fold(V.Drifted, /*Mispredicted=*/-1, nullptr, 0);
}

void WindowedDriftMonitor::record(const CommitteeVerdict &V,
                                  const double *Features, size_t Dims) {
  fold(V.Drifted, /*Mispredicted=*/-1, Features, Dims);
}

void WindowedDriftMonitor::recordLabeled(const CommitteeVerdict &V,
                                         bool Mispredicted) {
  fold(V.Drifted, Mispredicted ? 1 : 0, nullptr, 0);
}

void WindowedDriftMonitor::recordLabeled(const CommitteeVerdict &V,
                                         bool Mispredicted,
                                         const double *Features,
                                         size_t Dims) {
  fold(V.Drifted, Mispredicted ? 1 : 0, Features, Dims);
}

void WindowedDriftMonitor::evict(const Slot &Old) {
  --Fill;
  if (Old.Rejected)
    --WindowRejected;
  if (Old.Mispredicted < 0)
    return;
  // Reverse the DetectionCounts fold of the evicted verdict.
  bool Mis = Old.Mispredicted != 0;
  bool Rej = Old.Rejected != 0;
  if (Mis && Rej)
    --Window.TruePositive;
  else if (!Mis && Rej)
    --Window.FalsePositive;
  else if (Mis && !Rej)
    --Window.FalseNegative;
  else
    --Window.TrueNegative;
}

void WindowedDriftMonitor::fold(bool Rejected, int8_t Mispredicted,
                                const double *Features, size_t Dims) {
  // Attribution first, outside Mutex (the sink has its own lock): the
  // sink sees the observation before the fold, so the snapshot taken at
  // an alert crossing reports an attribution state that includes the
  // crossing verdict. Observe-only by construction — nothing the sink
  // computes flows back into the counters below.
  DriftAttribution *Sink;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Sink = Attribution;
  }
  if (Sink)
    Sink->observe(Features, Dims, Rejected);

  bool MaybeNotify = false;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Fill == Ring.size())
      evict(Ring[Next]);

    Slot &S = Ring[Next];
    S.Rejected = Rejected ? 1 : 0;
    S.Mispredicted = Mispredicted;
    Next = (Next + 1) % Ring.size();
    ++Fill;
    ++TotalSeen;
    if (Rejected)
      ++WindowRejected;
    if (Mispredicted >= 0) {
      Window.record(Mispredicted != 0, Rejected);
      Lifetime.record(Mispredicted != 0, Rejected);
    }

    double Rate = Fill == 0
                      ? 0.0
                      : static_cast<double>(WindowRejected) /
                            static_cast<double>(Fill);
    bool Above = Fill >= Cfg.MinFill && Rate > Cfg.AlertRejectRate;
    bool RisingEdge = Above && !AlertActive;
    AlertActive = Above;
    if (RisingEdge) {
      ++AlertsRaised; // Rising edge: one "recalibrate" event per excursion.
      MaybeNotify = static_cast<bool>(OnAlert);
    }
  }
  if (!MaybeNotify)
    return; // The hot path never touches CallbackMutex.

  // Rare rising-edge path. CallbackMutex brackets the notification so
  // setAlertCallback(nullptr) returning guarantees no invocation of the
  // old subscriber is still in flight (its owner may be tearing down);
  // the subscriber is re-read underneath it so an unsubscribe that won
  // the race suppresses the call. Recursive, so the callback itself may
  // setAlertCallback() (one-shot self-unsubscribe) without deadlocking.
  std::lock_guard<std::recursive_mutex> CallbackLock(CallbackMutex);
  AlertCallback Notify;
  DriftWindowSnapshot AtCrossing;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Notify = OnAlert;
    AtCrossing = snapshotLocked();
  }
  // The attribution report joins the snapshot outside Mutex, so the
  // sink's own lock is never nested inside the monitor's.
  if (Sink) {
    AtCrossing.HasAttribution = true;
    AtCrossing.Attribution = Sink->report();
  }
  if (Notify)
    Notify(AtCrossing);
}

void WindowedDriftMonitor::setAlertCallback(AlertCallback Fn) {
  std::lock_guard<std::recursive_mutex> CallbackLock(CallbackMutex);
  std::lock_guard<std::mutex> Lock(Mutex);
  OnAlert = std::move(Fn);
}

void WindowedDriftMonitor::setAttributionSink(DriftAttribution *Sink) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Attribution = Sink;
}

DriftAttribution *WindowedDriftMonitor::attributionSink() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Attribution;
}

DriftWindowSnapshot WindowedDriftMonitor::snapshotLocked() const {
  DriftWindowSnapshot S;
  S.TotalSeen = TotalSeen;
  S.WindowFill = Fill;
  S.WindowRejected = WindowRejected;
  S.RejectRate = Fill == 0 ? 0.0
                           : static_cast<double>(WindowRejected) /
                                 static_cast<double>(Fill);
  S.AlertActive = AlertActive;
  S.AlertsRaised = AlertsRaised;
  S.Window = Window;
  S.Lifetime = Lifetime;
  return S;
}

DriftWindowSnapshot WindowedDriftMonitor::snapshot() const {
  DriftWindowSnapshot S;
  DriftAttribution *Sink;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    S = snapshotLocked();
    Sink = Attribution;
  }
  if (Sink) {
    S.HasAttribution = true;
    S.Attribution = Sink->report();
  }
  return S;
}

void WindowedDriftMonitor::reset() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Ring.assign(Cfg.WindowSize, Slot());
  Next = 0;
  Fill = 0;
  TotalSeen = 0;
  WindowRejected = 0;
  Window = DetectionCounts();
  Lifetime = DetectionCounts();
  AlertActive = false;
  AlertsRaised = 0;
}
