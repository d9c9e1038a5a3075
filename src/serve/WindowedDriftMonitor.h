//===- serve/WindowedDriftMonitor.h - Streaming drift windows ----*- C++ -*-===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Streaming drift detection over a live deployment trace.
///
/// The per-figure benches fold DetectionCounts over a finished test set;
/// a serving process instead sees an endless verdict stream and needs a
/// *windowed* view: the committee's rejection rate over the last W
/// verdicts is a label-free model-ageing signal (paper Sec. 5.4 — the
/// rejection rate tracks the invisible accuracy drop). The monitor keeps a
/// ring buffer of recent verdicts, maintains the window counters
/// incrementally (O(1) per verdict), and raises a recalibration alert on
/// the rising edge of the rejection rate crossing its threshold. When
/// ground truth is available (labeled replay, delayed labels), the same
/// fold also maintains windowed and lifetime DetectionCounts.
///
/// Thread-safe: AssessmentService batchers record from their own threads.
///
//===----------------------------------------------------------------------===//

#ifndef PROM_SERVE_WINDOWEDDRIFTMONITOR_H
#define PROM_SERVE_WINDOWEDDRIFTMONITOR_H

#include "core/Detector.h"
#include "core/DriftMetrics.h"
#include "serve/DriftAttribution.h"

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

namespace prom {
namespace serve {

/// Windowing and alerting knobs.
struct DriftWindowConfig {
  /// Sliding-window length in verdicts.
  size_t WindowSize = 256;
  /// Rejection-rate threshold that raises the recalibration alert. The
  /// natural setting is a small multiple of the detector's in-distribution
  /// flag rate (~epsilon): rates well above it mean the calibration set no
  /// longer represents the deployment distribution.
  double AlertRejectRate = 0.25;
  /// No alerts until the window holds at least this many verdicts, so a
  /// couple of early rejections cannot trip the alarm.
  size_t MinFill = 64;
};

/// Point-in-time view of the monitor (one lock, consistent fields).
struct DriftWindowSnapshot {
  size_t TotalSeen = 0;     ///< Verdicts ever recorded.
  size_t WindowFill = 0;    ///< Verdicts currently in the window.
  size_t WindowRejected = 0; ///< Rejected verdicts in the window.
  double RejectRate = 0.0;  ///< WindowRejected / WindowFill (0 when empty).
  bool AlertActive = false; ///< Rate currently above the alert threshold.
  size_t AlertsRaised = 0;  ///< Rising edges so far.
  DetectionCounts Window;   ///< Labeled-verdict confusion in the window.
  DetectionCounts Lifetime; ///< Labeled-verdict confusion since start/reset.
  /// True when an attribution sink was attached at snapshot time; the
  /// Attribution field then carries its report (default otherwise).
  bool HasAttribution = false;
  /// Drift-attribution report taken alongside the window counters (see
  /// HasAttribution). In an alert callback this is the attribution at
  /// the crossing, including the verdict that crossed.
  DriftAttributionReport Attribution;
};

/// Sliding-window drift monitor; see file comment.
class WindowedDriftMonitor {
public:
  /// Hook invoked on every rising-edge alert; receives the window
  /// snapshot taken at the crossing.
  using AlertCallback = std::function<void(const DriftWindowSnapshot &)>;

  /// Constructs an empty window under \p Cfg.
  explicit WindowedDriftMonitor(DriftWindowConfig Cfg = DriftWindowConfig());

  /// Folds one deployment verdict of either detector (no ground truth).
  void record(const CommitteeVerdict &V);

  /// record() carrying the assessed feature/embedding vector (\p Features
  /// points at \p Dims values): the vector and the rejection flag are
  /// forwarded to the attribution sink *before* the windowed fold, so an
  /// alert raised by this verdict snapshots an attribution state that
  /// already includes it. Without a sink attached this is exactly
  /// record() — the window counters never depend on the features.
  void record(const CommitteeVerdict &V, const double *Features,
              size_t Dims);

  /// Folds one verdict with ground truth: \p Mispredicted is the label of
  /// the DetectionCounts fold ("the underlying model got this one wrong").
  void recordLabeled(const CommitteeVerdict &V, bool Mispredicted);

  /// Labeled fold carrying the assessed feature vector; see the
  /// feature-carrying record() overload.
  void recordLabeled(const CommitteeVerdict &V, bool Mispredicted,
                     const double *Features, size_t Dims);

  /// Consistent view of every statistic.
  DriftWindowSnapshot snapshot() const;

  /// Window rejection rate (0 while empty).
  double rejectRate() const { return snapshot().RejectRate; }

  /// True while the windowed rejection rate sits above the alert
  /// threshold (with at least MinFill verdicts in the window).
  bool alertActive() const { return snapshot().AlertActive; }

  /// Rising-edge alert count — "recalibration recommended" events.
  size_t alertsRaised() const { return snapshot().AlertsRaised; }

  /// Empties the window and counters; call after recalibrating so the
  /// refreshed detector starts from a clean signal.
  void reset();

  /// Subscribes \p Fn to rising-edge alerts (replaces any previous
  /// subscriber; pass nullptr to unsubscribe). The callback runs with the
  /// state lock released, on whichever thread recorded the crossing
  /// verdict — typically an AssessmentService batcher — so it must be
  /// cheap and must not block on assessment work: signal a worker (the
  /// RecalibrationController pattern), never recalibrate inline. It may
  /// call snapshot()/reset() and setAlertCallback() (self-unsubscribe)
  /// on this monitor; its snapshot argument reflects the window at (or
  /// just after) the crossing. Unsubscribing synchronizes with in-flight
  /// notifications: once setAlertCallback(nullptr) returns from another
  /// thread, the previous subscriber is guaranteed not to be running.
  void setAlertCallback(AlertCallback Fn);

  /// Attaches the drift-attribution sink (nullptr to detach). Every
  /// record() then forwards its rejection flag — and, via the
  /// feature-carrying overloads, the assessed feature vector — to the
  /// sink, and snapshots/alert callbacks carry its report. The sink is
  /// strictly observe-only: the window counters and alert edges are
  /// bit-identical with or without one. The sink must outlive the
  /// monitor or be detached while no records are in flight; reset() does
  /// not touch it (the RecalibrationController re-arms it explicitly
  /// after a refresh).
  void setAttributionSink(DriftAttribution *Sink);

  /// The attached attribution sink (nullptr when none).
  DriftAttribution *attributionSink() const;

  const DriftWindowConfig &config() const { return Cfg; } ///< The knobs.

private:
  /// One ring-buffer slot.
  struct Slot {
    uint8_t Rejected = 0;
    int8_t Mispredicted = -1; ///< -1 unknown, else 0/1.
  };

  void fold(bool Rejected, int8_t Mispredicted, const double *Features,
            size_t Dims);
  void evict(const Slot &Old);
  /// Locked part of snapshot(); callers hold Mutex. Attribution is
  /// filled in by the callers outside Mutex (the sink has its own lock).
  DriftWindowSnapshot snapshotLocked() const;

  DriftWindowConfig Cfg;
  AlertCallback OnAlert; ///< Rising-edge subscriber (may be empty).
  DriftAttribution *Attribution = nullptr; ///< Observe-only sink (may be null).
  /// Serializes callback invocation against setAlertCallback(), so
  /// unsubscribing synchronizes with any in-flight notification. Taken
  /// only on the rare rising-edge path (the per-verdict fold never
  /// touches it) and ordered before Mutex; recursive so the callback
  /// may self-unsubscribe. Never taken by snapshot()/reset(), which the
  /// callback is allowed to call.
  std::recursive_mutex CallbackMutex;

  mutable std::mutex Mutex;
  std::vector<Slot> Ring;
  size_t Next = 0;        ///< Ring write position.
  size_t Fill = 0;        ///< Occupied slots.
  size_t TotalSeen = 0;
  size_t WindowRejected = 0;
  DetectionCounts Window;
  DetectionCounts Lifetime;
  bool AlertActive = false;
  size_t AlertsRaised = 0;
};

} // namespace serve
} // namespace prom

#endif // PROM_SERVE_WINDOWEDDRIFTMONITOR_H
