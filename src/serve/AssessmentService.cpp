//===- serve/AssessmentService.cpp - Async assessment serving ---------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/AssessmentService.h"

#include "support/FaultInjection.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

using namespace prom;
using namespace prom::serve;

namespace {

const char *shedMessage(ShedReason R) {
  switch (R) {
  case ShedReason::QueueFull:
    return "request shed: queue full";
  case ShedReason::DeadlineExpired:
    return "request shed: deadline expired";
  case ShedReason::Shutdown:
    return "AssessmentService is shut down";
  case ShedReason::UnknownTenant:
    return "request shed: unknown or unloadable tenant";
  case ShedReason::InvalidInput:
    return "request shed: non-finite feature";
  }
  return "request shed";
}

/// The resident flag of the single-tenant mode's one queue.
const std::atomic<bool> AlwaysResident{true};

/// The service's input contract: every feature is finite.
bool finiteFeatures(const data::Sample &S) {
  return std::all_of(S.Features.begin(), S.Features.end(),
                     [](double V) { return std::isfinite(V); });
}

double microsBetween(AssessmentService::Clock::time_point From,
                     AssessmentService::Clock::time_point To) {
  return 1e6 * std::chrono::duration<double>(To - From).count();
}

} // namespace

ShedError::ShedError(ShedReason R)
    : std::runtime_error(shedMessage(R)), Reason(R) {}

//===----------------------------------------------------------------------===//
// LatencyHistogram
//===----------------------------------------------------------------------===//

// Bucket 0 holds [0, 1us); bucket I >= 1 holds [2^((I-1)/2), 2^(I/2)) us,
// with the last bucket absorbing everything beyond.

void LatencyHistogram::record(double Us) {
  ++Total;
  size_t Idx = 0;
  if (Us >= 1.0) {
    Idx = static_cast<size_t>(2.0 * std::log2(Us)) + 1;
    if (Idx >= NumBuckets)
      Idx = NumBuckets - 1;
  }
  ++Counts[Idx];
}

double LatencyHistogram::quantileUs(double Q) const {
  if (Total == 0)
    return 0.0;
  Q = std::min(1.0, std::max(0.0, Q));
  double Target = Q * static_cast<double>(Total);
  uint64_t Cum = 0;
  double LastUpper = 0.0;
  for (size_t I = 0; I < NumBuckets; ++I) {
    if (Counts[I] == 0)
      continue;
    double Lo = I == 0 ? 0.0 : std::exp2(static_cast<double>(I - 1) / 2.0);
    double Hi = std::exp2(static_cast<double>(I) / 2.0);
    LastUpper = Hi;
    if (static_cast<double>(Cum + Counts[I]) >= Target) {
      double Frac =
          (Target - static_cast<double>(Cum)) / static_cast<double>(Counts[I]);
      return Lo + std::max(0.0, Frac) * (Hi - Lo);
    }
    Cum += Counts[I];
  }
  return LastUpper;
}

LatencyHistogram &LatencyHistogram::operator+=(const LatencyHistogram &Other) {
  for (size_t I = 0; I < NumBuckets; ++I)
    Counts[I] += Other.Counts[I];
  Total += Other.Total;
  return *this;
}

//===----------------------------------------------------------------------===//
// AssessmentService
//===----------------------------------------------------------------------===//

AssessmentService::AssessmentService(const PromClassifier &Engine,
                                     ServiceConfig CfgIn,
                                     WindowedDriftMonitor *Monitor)
    : Engine(&Engine), Fleet(nullptr), Cfg(CfgIn), Monitor(Monitor) {
  assert(Engine.isCalibrated() && "serve an uncalibrated detector");
  Queues[std::string()].Resident = &AlwaysResident;
  spawnBatchers();
}

AssessmentService::AssessmentService(DetectorRegistry &Fleet,
                                     ServiceConfig CfgIn)
    : Engine(nullptr), Fleet(&Fleet), Cfg(CfgIn), Monitor(nullptr) {
  spawnBatchers();
}

void AssessmentService::spawnBatchers() {
  assert(Cfg.QueueCapacity > 0 && Cfg.MaxBatch > 0 && "degenerate config");
  if (Cfg.NumBatchers == 0)
    Cfg.NumBatchers = 1;
  Started = !Cfg.StartPaused;
  // Batchers spawn up front either way; a paused service's batchers park
  // on the Started flag, so start() is a flag flip, not thread creation.
  Batchers.reserve(Cfg.NumBatchers);
  for (size_t I = 0; I < Cfg.NumBatchers; ++I)
    Batchers.emplace_back([this] { batcherLoop(); });
}

void AssessmentService::start() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Stopping || Started)
      return;
    Started = true;
  }
  NotEmpty.notify_all();
}

AssessmentService::~AssessmentService() { shutdown(); }

void AssessmentService::shed(Request &Req, ShedReason Reason) {
  Req.P.set_exception(std::make_exception_ptr(ShedError(Reason)));
}

void AssessmentService::countShedLocked(const std::string &Tenant,
                                        uint64_t N) {
  if (Fleet)
    Stats.Tenants[Tenant].Shed += N;
}

AssessmentService::TenantQueue &
AssessmentService::queueLocked(const std::string &Tenant,
                               std::unique_lock<std::mutex> &Lock) {
  if (!Fleet)
    return Queues.begin()->second; // The one queue; tags are ignored.
  auto It = Queues.find(Tenant);
  if (It != Queues.end() && It->second.Resident)
    return It->second;
  // First sight of the tag, or one the registry did not know last time:
  // resolve its flag with Mutex dropped, because the registry mutex may
  // be held across a cold load.
  Lock.unlock();
  const std::atomic<bool> *Flag = Fleet->residencyFlag(Tenant);
  Lock.lock();
  auto Ins = Queues.try_emplace(Tenant);
  TenantQueue &Q = Ins.first->second;
  if (Ins.second)
    Q.Tenant = Tenant; // Immutable from here on: batchers read it unlocked.
  if (!Q.Resident)
    Q.Resident = Flag;
  return Q;
}

void AssessmentService::enqueueLocked(TenantQueue &Q, Request Req) {
  Req.Seq = ++LastSeq;
  Q.Requests.push_back(std::move(Req));
  ++Queued;
  ++Stats.Submitted;
  if (Fleet)
    ++Stats.Tenants[Q.Tenant].Submitted;
}

AssessmentService::TenantQueue *
AssessmentService::pickTenantLocked(bool &OthersInRound) {
  assert(Queued > 0 && "picking from an empty queue");
  // Two passes at most: if the round is used up, the new one holds every
  // queued request.
  while (true) {
    TenantQueue *Warm = nullptr, *Cold = nullptr;
    size_t InRound = 0;
    for (auto &KV : Queues) {
      TenantQueue &Q = KV.second;
      // FIFO per tenant: the front is the tenant's oldest request, so the
      // tenant has a request in the round iff its front is in it.
      if (Q.Requests.empty() || Q.Requests.front().Seq > RoundEnd)
        continue;
      ++InRound;
      TenantQueue *&Best = Q.resident() ? Warm : Cold;
      if (!Best || Q.Requests.front().Seq < Best->Requests.front().Seq)
        Best = &Q;
    }
    if (InRound > 0) {
      OthersInRound = InRound > 1;
      return Warm ? Warm : Cold;
    }
    RoundEnd = LastSeq;
  }
}

void AssessmentService::evictExpiredLocked(Clock::time_point Now,
                                           std::vector<Request> &Out) {
  // Caller holds Mutex. Expired requests anywhere in any tenant queue are
  // pulled out (deadlines are per request, so expiry is not FIFO); their
  // promises are failed by the caller after unlocking.
  for (auto &KV : Queues) {
    std::deque<Request> &Q = KV.second.Requests;
    auto Keep = Q.begin();
    for (auto It = Q.begin(); It != Q.end(); ++It) {
      if (It->expired(Now)) {
        ++Stats.ShedExpired;
        countShedLocked(KV.second.Tenant);
        Out.push_back(std::move(*It));
      } else {
        if (Keep != It)
          *Keep = std::move(*It);
        ++Keep;
      }
    }
    Queued -= static_cast<size_t>(Q.end() - Keep);
    Q.erase(Keep, Q.end());
  }
}

std::future<Verdict> AssessmentService::submit(data::Sample S) {
  return submit(std::string(), std::move(S));
}

std::future<Verdict> AssessmentService::submit(const std::string &Tenant,
                                               data::Sample S) {
  if (Cfg.DefaultDeadline.count() > 0)
    return submitWithDeadline(Tenant, std::move(S), Cfg.DefaultDeadline);
  return submitImpl(Tenant, std::move(S), /*HasDeadline=*/false,
                    Clock::time_point());
}

std::future<Verdict>
AssessmentService::submitWithDeadline(data::Sample S,
                                      std::chrono::microseconds Budget) {
  return submitWithDeadline(std::string(), std::move(S), Budget);
}

std::future<Verdict>
AssessmentService::submitWithDeadline(const std::string &Tenant,
                                      data::Sample S,
                                      std::chrono::microseconds Budget) {
  Clock::time_point Deadline = Clock::now() + Budget;
  return submitImpl(Tenant, std::move(S), /*HasDeadline=*/true, Deadline);
}

std::future<Verdict> AssessmentService::submitImpl(std::string Tenant,
                                                   data::Sample S,
                                                   bool HasDeadline,
                                                   Clock::time_point Deadline) {
  // Fail closed, outside the lock: a non-finite feature never reaches a
  // batch.
  const bool Invalid = !finiteFeatures(S);
  Request Req;
  Req.S = std::move(S);
  Req.SubmittedAt = Clock::now();
  Req.HasDeadline = HasDeadline;
  Req.Deadline = Deadline;
  std::future<Verdict> Fut = Req.P.get_future();

  std::vector<Request> Evicted;
  bool ShedNow = false;
  ShedReason Reason = ShedReason::QueueFull;
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    TenantQueue &Q = queueLocked(Tenant, Lock);
    if (Stopping) {
      ShedNow = true;
      Reason = ShedReason::Shutdown;
      ++Stats.ShedShutdown;
    } else if (Invalid) {
      ShedNow = true;
      Reason = ShedReason::InvalidInput;
      ++Stats.ShedInvalidInput;
    } else if (Req.expired(Req.SubmittedAt)) {
      // A non-positive budget: the caller's deadline is already gone.
      ShedNow = true;
      Reason = ShedReason::DeadlineExpired;
      ++Stats.ShedExpired;
    } else if (Queued >= Cfg.QueueCapacity) {
      switch (Cfg.Shed) {
      case ShedPolicy::Block:
        // Backpressure: wait for space. Expiry while waiting is caught at
        // batch-pick time, so a deadline still bounds wasted engine work.
        NotFull.wait(Lock,
                     [&] { return Stopping || Queued < Cfg.QueueCapacity; });
        if (Stopping) {
          ShedNow = true;
          Reason = ShedReason::Shutdown;
          ++Stats.ShedShutdown;
        }
        break;
      case ShedPolicy::RejectNewest:
        ShedNow = true;
        Reason = ShedReason::QueueFull;
        ++Stats.ShedQueueFull;
        break;
      case ShedPolicy::DeadlineAware:
        // Make room from requests that can no longer be answered in time
        // before refusing work that still can.
        evictExpiredLocked(Clock::now(), Evicted);
        if (Queued >= Cfg.QueueCapacity) {
          ShedNow = true;
          Reason = ShedReason::QueueFull;
          ++Stats.ShedQueueFull;
        }
        break;
      }
    }
    if (ShedNow)
      countShedLocked(Tenant);
    else
      enqueueLocked(Q, std::move(Req));
  }
  for (Request &E : Evicted)
    shed(E, ShedReason::DeadlineExpired);
  if (ShedNow) {
    shed(Req, Reason);
    return Fut;
  }
  NotEmpty.notify_one();
  return Fut;
}

bool AssessmentService::trySubmit(data::Sample S, std::future<Verdict> &Out) {
  return trySubmitImpl(std::string(), std::move(S), Out);
}

bool AssessmentService::trySubmit(const std::string &Tenant, data::Sample S,
                                  std::future<Verdict> &Out) {
  return trySubmitImpl(Tenant, std::move(S), Out);
}

bool AssessmentService::trySubmitImpl(std::string Tenant, data::Sample S,
                                      std::future<Verdict> &Out) {
  const bool Invalid = !finiteFeatures(S);
  Request Req;
  Req.S = std::move(S);
  Req.SubmittedAt = Clock::now();
  if (Cfg.DefaultDeadline.count() > 0) {
    Req.HasDeadline = true;
    Req.Deadline = Req.SubmittedAt + Cfg.DefaultDeadline;
  }
  std::future<Verdict> Fut = Req.P.get_future();
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    TenantQueue &Q = queueLocked(Tenant, Lock);
    if (Stopping)
      return false;
    if (Invalid) {
      ++Stats.ShedInvalidInput;
      countShedLocked(Tenant);
    } else {
      if (Queued >= Cfg.QueueCapacity)
        return false;
      enqueueLocked(Q, std::move(Req));
    }
  }
  if (Invalid)
    shed(Req, ShedReason::InvalidInput);
  else
    NotEmpty.notify_one();
  Out = std::move(Fut);
  return true;
}

void AssessmentService::batcherLoop() {
  std::vector<std::promise<Verdict>> Promises;
  std::vector<Clock::time_point> SubmitTimes;
  std::vector<Request> Expired;
  Promises.reserve(Cfg.MaxBatch);
  SubmitTimes.reserve(Cfg.MaxBatch);

  while (true) {
    Promises.clear();
    SubmitTimes.clear();
    Expired.clear();
    data::Dataset Work;
    Work.reserve(Cfg.MaxBatch);
    bool ByDeadline = false;
    TenantQueue *Q = nullptr; // The batch's single tenant.
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      NotEmpty.wait(Lock, [&] { return Stopping || (Started && Queued > 0); });
      if (Stopping && (Queued == 0 || !Started))
        return; // Drained (or never started: shutdown() sheds the queue).

      // The round rule of the file comment fixes the batch's tenant;
      // the rest of the batch comes off that tenant's queue front, so a
      // batch holds exactly one tenant in per-tenant FIFO order — the
      // grouping that makes shared-service verdicts bit-identical to a
      // dedicated service. While another tenant waits in the round, the
      // batch stops at the round's end.
      bool OthersInRound = false;
      Q = pickTenantLocked(OthersInRound);
      const uint64_t Cap =
          OthersInRound ? RoundEnd : std::numeric_limits<uint64_t>::max();
      auto CanTake = [&] {
        return !Q->Requests.empty() && Q->Requests.front().Seq <= Cap;
      };
      // Requests move straight from the queue into the engine Dataset;
      // only the promise is kept aside. Expiry is re-checked here, at
      // pick time: a request that waited out its deadline in the queue
      // is shed in O(1) instead of spending engine time on an answer
      // nobody is waiting for. The batch's flush deadline runs from its
      // first (oldest) pick.
      auto TakeNext = [&]() -> bool {
        if (!CanTake())
          return false;
        Request Req = std::move(Q->Requests.front());
        Q->Requests.pop_front();
        --Queued;
        if (Req.expired(Clock::now())) {
          ++Stats.ShedExpired;
          countShedLocked(Q->Tenant);
          Expired.push_back(std::move(Req));
          return true;
        }
        SubmitTimes.push_back(Req.SubmittedAt);
        Work.add(std::move(Req.S));
        Promises.push_back(std::move(Req.P));
        return true;
      };
      TakeNext();
      auto Deadline = std::chrono::steady_clock::now() + Cfg.FlushDeadline;
      while (Promises.size() < Cfg.MaxBatch) {
        if (TakeNext())
          continue;
        if (Promises.empty())
          break; // Every pick so far expired; nothing to flush for.
        if (Stopping || OthersInRound) {
          // Drain flush, or the tenant's share of the round is used up
          // (later arrivals are past the round): take what we have, now.
          ByDeadline = true;
          break;
        }
        if (NotEmpty.wait_until(Lock, Deadline,
                                [&] { return Stopping || CanTake(); }))
          continue;
        ByDeadline = true; // Deadline expired with a short batch.
        break;
      }
      if (!Promises.empty()) {
        ++InFlight;
        ++Stats.Batches;
        if (ByDeadline)
          ++Stats.DeadlineFlushes;
        else
          ++Stats.SizeFlushes;
      } else if (Queued == 0 && InFlight == 0) {
        // An expired-only pick emptied the queue without forming a
        // batch; drain() waiters must still wake.
        Idle.notify_all();
      }
    }
    NotFull.notify_all();
    for (Request &Req : Expired)
      shed(Req, ShedReason::DeadlineExpired);
    if (Promises.empty())
      continue;

    // Injected engine slowness: with "batcher_stall" armed the batch
    // takes ~2ms longer, so offered load outruns capacity and the shed
    // machinery above is what keeps latency bounded.
    if (support::faults::shouldFail("batcher_stall"))
      std::this_thread::sleep_for(std::chrono::milliseconds(2));

    // Engine work outside the lock: other batchers keep collecting. In
    // fleet mode the batch's tenant is pinned for the duration (lazily
    // reloading it if it was evicted); a tenant that cannot be resolved
    // fails the whole batch — each request individually — with
    // UnknownTenant. The tag is immutable once its queue exists.
    const std::string &BatchTenant = Q->Tenant;
    const PromClassifier *BatchEngine = Engine;
    WindowedDriftMonitor *BatchMonitor = Monitor;
    DetectorRegistry::Lease Lease;
    if (Fleet) {
      Lease = Fleet->acquire(BatchTenant);
      if (!Lease) {
        for (std::promise<Verdict> &P : Promises)
          P.set_exception(
              std::make_exception_ptr(ShedError(ShedReason::UnknownTenant)));
        std::lock_guard<std::mutex> Lock(Mutex);
        Stats.ShedUnknownTenant += Promises.size();
        countShedLocked(BatchTenant, Promises.size());
        --InFlight;
        if (Queued == 0 && InFlight == 0)
          Idle.notify_all();
        continue;
      }
      BatchEngine = Lease.engine();
      BatchMonitor = Lease.monitor();
    }
    std::vector<Verdict> Verdicts = BatchEngine->assessBatch(Work);
    assert(Verdicts.size() == Promises.size() && "engine dropped verdicts");

    // One completion timestamp per batch: requests in a batch finish
    // together, and per-promise clock reads would only jitter the
    // histogram.
    Clock::time_point Done = Clock::now();
    LatencyHistogram BatchLatency;
    size_t Rejected = 0;
    for (size_t I = 0; I < Promises.size(); ++I) {
      if (Verdicts[I].Drifted)
        ++Rejected;
      if (BatchMonitor)
        // The feature-carrying fold: samples are still alive in Work, so
        // the monitor's attribution sink (when one is attached) sees the
        // assessed vector alongside the verdict. Observe-only — the
        // verdict already exists and is moved out unchanged below. In
        // fleet mode this is the batch tenant's own monitor, folded
        // under the lease.
        BatchMonitor->record(Verdicts[I], Work[I].Features.data(),
                             Work[I].Features.size());
      BatchLatency.record(microsBetween(SubmitTimes[I], Done));
      Promises[I].set_value(std::move(Verdicts[I]));
    }

    // Unpin the tenant before signaling idle: a drain() caller must be
    // free to evict the tenant the moment drain() returns, so the lease
    // cannot outlive the InFlight decrement that wakes the waiter.
    Lease.release();

    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Stats.Completed += Promises.size();
      Stats.DriftRejected += Rejected;
      Stats.Latency += BatchLatency;
      if (Fleet) {
        TenantServiceStats &TS = Stats.Tenants[BatchTenant];
        TS.Completed += Promises.size();
        TS.DriftRejected += Rejected;
        TS.Latency += BatchLatency;
        ++TS.Batches;
      }
      --InFlight;
      if (Queued == 0 && InFlight == 0)
        Idle.notify_all();
    }
  }
}

void AssessmentService::drain() {
  std::unique_lock<std::mutex> Lock(Mutex);
  Idle.wait(Lock, [&] { return Queued == 0 && InFlight == 0; });
}

void AssessmentService::shutdown() {
  // Serializes concurrent shutdown() callers (e.g. an operator thread
  // racing the destructor): the join/clear phase below runs outside
  // Mutex, so without this two callers could join the same threads.
  std::lock_guard<std::mutex> ShutdownLock(ShutdownMutex);
  std::vector<Request> Orphans;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Stopping && Batchers.empty() && Queued == 0)
      return;
    Stopping = true;
    // A StartPaused service that was never start()ed must not begin
    // assessing during teardown; shed its pending requests instead.
    if (!Started) {
      Stats.ShedShutdown += Queued;
      for (auto &KV : Queues) {
        std::deque<Request> &Q = KV.second.Requests;
        if (Q.empty())
          continue;
        countShedLocked(KV.second.Tenant, Q.size());
        for (Request &Req : Q)
          Orphans.push_back(std::move(Req));
        Q.clear();
      }
      Queued = 0;
    }
  }
  NotEmpty.notify_all();
  NotFull.notify_all();
  // Concurrent drain() callers on a never-started service would
  // otherwise sleep until the final notify below; the queue is already
  // empty, so wake them now.
  Idle.notify_all();
  for (std::thread &T : Batchers)
    T.join();
  Batchers.clear();
  for (Request &Req : Orphans)
    shed(Req, ShedReason::Shutdown);
  Idle.notify_all();
}

size_t AssessmentService::queueDepth() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Queued;
}

ServiceStats AssessmentService::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Stats;
}
