//===- bench/serve_load.cpp - Open-loop overload study ------------------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Trace-driven open-loop load generator for the serving runtime. Unlike
// serve_throughput's closed system (which measures the drain rate), this
// harness emits requests on a precomputed arrival schedule — Poisson or
// bursty — that never slows down when the service does, so it measures
// what production traffic actually experiences under overload instead of
// the coordinated-omission picture a closed loop paints.
//
// The sweep: saturation throughput is measured first (closed-loop drain),
// then offered load is swept from 0.5x to 2.0x of it under the
// DeadlineAware shed policy with a per-request deadline budget. Past
// saturation a well-behaved runtime must keep p99.9 of *served* requests
// bounded near the deadline by shedding the excess — and resolve every
// single future (served or shed; a hung future fails the run). One Block
// run at 2x shows the alternative: backpressure pushes the arrival thread
// off its schedule and offered load simply cannot be sustained.
//
// The fleet row: the same service in fleet mode over a DetectorRegistry of
// 8 tenants with Zipf(1) popularity and a memory budget of 3.5 detectors,
// offered 300, 600 and 1200 rps open loop. Besides the served rate, shed
// share and p50 it reports the registry hit ratio and the mean batch size,
// the two numbers that show whether the batcher schedules around which
// detectors are resident or cold-loads its way into a collapse.
//
// Output: human-readable table plus one JSON line per metric (schema of
// bench::jsonResult). Pass --ci for the small configuration used by the
// workflow artifact job.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "ml/Mlp.h"
#include "serve/AssessmentService.h"
#include "serve/DetectorRegistry.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <vector>

using namespace prom;
using namespace prom::bench;
using Clock = std::chrono::steady_clock;

namespace {

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// Bench state: an MLP over 16-d features wrapped by a calibrated PROM
/// detector at the paper's 1,000-sample calibration cap, plus a fixed
/// request pool the schedules draw from round-robin.
struct LoadBenchState {
  support::Rng R{BenchSeed};
  data::Dataset Train{"serve", 6};
  data::Dataset Calib{"serve", 6};
  std::vector<data::Sample> Pool;
  ml::MlpClassifier Model;
  std::unique_ptr<PromClassifier> Prom;

  explicit LoadBenchState(size_t PoolSize) {
    for (int I = 0; I < 1200; ++I)
      Train.add(makeSample(I % 6));
    for (size_t I = 0; I < 1000; ++I)
      Calib.add(makeSample(static_cast<int>(I % 6)));
    Model.fit(Train, R);
    Prom = std::make_unique<PromClassifier>(Model);
    Prom->calibrate(Calib);
    Prom->reshard(4);
    Pool.reserve(PoolSize);
    for (size_t I = 0; I < PoolSize; ++I)
      Pool.push_back(makeSample(static_cast<int>(I % 6)));
  }

  data::Sample makeSample(int Label) {
    data::Sample S;
    for (int D = 0; D < 16; ++D)
      S.Features.push_back(R.gaussian(Label * 0.7, 1.0));
    S.Label = Label;
    return S;
  }
};

serve::ServiceConfig loadServiceConfig() {
  serve::ServiceConfig Cfg;
  Cfg.MaxBatch = 64;
  Cfg.FlushDeadline = std::chrono::microseconds(200);
  // Deliberately modest: under overload the queue bound is the knob that
  // trades latency for shed rate, and an 8k queue would hide the policy
  // behind seconds of buffering.
  Cfg.QueueCapacity = 1024;
  Cfg.NumBatchers = std::thread::hardware_concurrency() > 1 ? 2 : 1;
  return Cfg;
}

/// Saturation throughput: closed-loop drain of a staged queue (the same
/// measurement as serve_throughput's throughput run). This anchors the
/// offered-load multipliers.
double saturationRps(const LoadBenchState &S, size_t Requests, int Reps) {
  double Best = 1e300;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    serve::ServiceConfig Cfg = loadServiceConfig();
    Cfg.StartPaused = true;
    Cfg.QueueCapacity = Requests;
    serve::AssessmentService Svc(*S.Prom, Cfg);
    std::vector<std::future<Verdict>> Futures;
    Futures.reserve(Requests);
    for (size_t I = 0; I < Requests; ++I)
      Futures.push_back(Svc.submit(S.Pool[I % S.Pool.size()]));
    auto T0 = Clock::now();
    Svc.start();
    Svc.drain();
    Best = std::min(Best, secondsSince(T0));
    for (auto &Fut : Futures)
      Fut.get();
  }
  return static_cast<double>(Requests) / Best;
}

/// Precomputed open-loop arrival schedule: offsets (seconds from run
/// start) at which requests are emitted, independent of service state.
std::vector<double> makeSchedule(bool Bursty, double Rps, double DurationSec,
                                 support::Rng &R) {
  std::vector<double> Offsets;
  Offsets.reserve(static_cast<size_t>(Rps * DurationSec * 1.2) + 16);
  // Bursty: a two-state modulated Poisson process — ON periods arrive at
  // 1.75x the mean rate, OFF periods at 0.25x, exponentially distributed
  // ~25ms state dwell times. Mean offered rate stays Rps; the bursts are
  // what stress admission control.
  const double StateMeanSec = 0.025;
  bool On = true;
  double StateEnd = Bursty ? -StateMeanSec * std::log(1.0 - R.uniform()) : 0.0;
  double T = 0.0;
  while (T < DurationSec) {
    double Rate = Bursty ? (On ? 1.75 * Rps : 0.25 * Rps) : Rps;
    T += -std::log(1.0 - R.uniform()) / Rate;
    if (Bursty && T > StateEnd) {
      On = !On;
      StateEnd = T - StateMeanSec * std::log(1.0 - R.uniform());
    }
    if (T < DurationSec)
      Offsets.push_back(T);
  }
  return Offsets;
}

struct LoadRun {
  double OfferedRps = 0.0;
  double AchievedRps = 0.0; ///< Served verdicts per second of run.
  double ShedRate = 0.0;    ///< Shed / emitted.
  double P50Us = 0.0, P99Us = 0.0, P999Us = 0.0;
  double MeanBatch = 0.0; ///< Served requests per assessed batch.
  double HitRatio = 0.0;  ///< Fleet rows: registry leases that were hits.
  bool AllResolved = false; ///< Every future got a verdict or a ShedError.
};

/// Emits the schedule against the live \p Svc (request I through
/// \p Submit), harvests every future, and reports latency quantiles of the
/// served requests from the service's own histogram (recorded at
/// fulfillment, so harvester lag cannot inflate the tail).
LoadRun runSchedule(serve::AssessmentService &Svc,
                    const std::vector<double> &Offsets,
                    const std::function<std::future<Verdict>(size_t)> &Submit) {
  std::vector<std::future<Verdict>> Futures;
  Futures.reserve(Offsets.size());
  auto Start = Clock::now() + std::chrono::milliseconds(2);
  for (size_t I = 0; I < Offsets.size(); ++I) {
    auto Arrival =
        Start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(Offsets[I]));
    // Open loop: sleep until the *scheduled* arrival. When the service
    // (under Block) or the host stalls us past it, we emit immediately —
    // late, but never rescheduled; the backlog is the measurement.
    if (Arrival > Clock::now() + std::chrono::microseconds(100))
      std::this_thread::sleep_until(Arrival);
    Futures.push_back(Submit(I));
  }
  double EmitSec = secondsSince(Start);

  // Harvest: every future must resolve. wait_for() bounds the hang check —
  // a future neither served nor shed within the grace window is a runtime
  // bug, not load.
  size_t Served = 0, Shed = 0, Hung = 0;
  for (auto &Fut : Futures) {
    if (Fut.wait_for(std::chrono::seconds(10)) !=
        std::future_status::ready) {
      ++Hung;
      continue;
    }
    try {
      (void)Fut.get();
      ++Served;
    } catch (const serve::ShedError &) {
      ++Shed;
    }
  }
  double TotalSec = secondsSince(Start);
  Svc.drain();
  serve::ServiceStats Stats = Svc.stats();

  LoadRun Run;
  Run.OfferedRps = static_cast<double>(Offsets.size()) / EmitSec;
  Run.AchievedRps = static_cast<double>(Served) / TotalSec;
  Run.ShedRate =
      static_cast<double>(Shed) / static_cast<double>(Offsets.size());
  Run.P50Us = Stats.Latency.p50Us();
  Run.P99Us = Stats.Latency.p99Us();
  Run.P999Us = Stats.Latency.p999Us();
  Run.MeanBatch = Stats.meanBatchSize();
  Run.AllResolved = Hung == 0 && Served + Shed == Offsets.size() &&
                    Stats.Completed == Served && Stats.shedTotal() == Shed;
  return Run;
}

/// One single-tenant open-loop run under \p Policy.
LoadRun runOpenLoop(const LoadBenchState &S, const std::vector<double> &Offsets,
                    serve::ShedPolicy Policy,
                    std::chrono::microseconds Deadline) {
  serve::ServiceConfig Cfg = loadServiceConfig();
  Cfg.Shed = Policy;
  serve::AssessmentService Svc(*S.Prom, Cfg);
  return runSchedule(Svc, Offsets, [&](size_t I) {
    const data::Sample &Smp = S.Pool[I % S.Pool.size()];
    if (Policy == serve::ShedPolicy::Block)
      return Svc.submit(Smp);
    return Svc.submitWithDeadline(Smp, Deadline);
  });
}

/// The fleet row's deployment: 8 tenants over the bench model, each
/// calibrated on its own 1,000-sample draw, in a registry whose budget
/// holds 3.5 detectors (snapshot-backed, so misses cold-load).
struct FleetBenchState {
  static constexpr size_t NumTenants = 8;
  std::string Dir;
  std::unique_ptr<serve::DetectorRegistry> Registry;
  std::vector<double> Zipf; ///< Tenant popularity, Zipf(1).

  explicit FleetBenchState(LoadBenchState &S)
      : Dir((std::filesystem::temp_directory_path() /
             ("prom_serve_load_fleet_" + std::to_string(::getpid())))
                .string()) {
    std::filesystem::remove_all(Dir);
    std::vector<std::unique_ptr<PromClassifier>> Engines;
    for (size_t T = 0; T < NumTenants; ++T) {
      data::Dataset Calib{"serve", 6};
      for (size_t I = 0; I < 1000; ++I)
        Calib.add(S.makeSample(static_cast<int>(I % 6)));
      Engines.push_back(std::make_unique<PromClassifier>(S.Model));
      Engines.back()->calibrate(Calib);
      Zipf.push_back(1.0 / static_cast<double>(T + 1));
    }
    serve::RegistryConfig RCfg;
    const double DetectorBytes =
        static_cast<double>(Engines[0]->memoryBytes());
    RCfg.MemoryBudgetBytes = static_cast<size_t>(3.5 * DetectorBytes);
    Registry = std::make_unique<serve::DetectorRegistry>(RCfg);
    for (size_t T = 0; T < NumTenants; ++T) {
      serve::TenantSpec Spec;
      Spec.Model = &S.Model;
      Spec.SnapshotDir = Dir + "/" + tenant(T);
      if (!Registry->registerTenant(tenant(T), Spec) ||
          !Registry->installDetector(tenant(T), std::move(Engines[T]))) {
        std::fprintf(stderr, "FATAL: fleet set-up failed for %s\n",
                     tenant(T).c_str());
        std::exit(1);
      }
    }
  }
  ~FleetBenchState() {
    Registry.reset();
    std::filesystem::remove_all(Dir);
  }

  static std::string tenant(size_t T) { return "t" + std::to_string(T); }
};

/// One fleet open-loop run: Zipf-drawn tenants, DeadlineAware shedding.
LoadRun runFleet(const LoadBenchState &S, FleetBenchState &F,
                 const std::vector<double> &Offsets, support::Rng &R,
                 std::chrono::microseconds Deadline) {
  std::vector<std::string> Tenants;
  Tenants.reserve(Offsets.size());
  for (size_t I = 0; I < Offsets.size(); ++I)
    Tenants.push_back(FleetBenchState::tenant(R.weightedIndex(F.Zipf)));
  serve::ServiceConfig Cfg = loadServiceConfig();
  Cfg.Shed = serve::ShedPolicy::DeadlineAware;
  serve::RegistryStats Before = F.Registry->stats();
  LoadRun Run;
  {
    serve::AssessmentService Svc(*F.Registry, Cfg);
    Run = runSchedule(Svc, Offsets, [&](size_t I) {
      return Svc.submitWithDeadline(Tenants[I], S.Pool[I % S.Pool.size()],
                                    Deadline);
    });
  }
  serve::RegistryStats After = F.Registry->stats();
  uint64_t Hits = After.Hits - Before.Hits;
  uint64_t Leases = Hits + After.Loads - Before.Loads;
  Run.HitRatio =
      Leases ? static_cast<double>(Hits) / static_cast<double>(Leases) : 0.0;
  return Run;
}

std::string multTag(double Mult) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%03dx", static_cast<int>(Mult * 100));
  return Buf;
}

} // namespace

int main(int argc, char **argv) {
  bool Ci = false;
  for (int I = 1; I < argc; ++I)
    if (std::strcmp(argv[I], "--ci") == 0)
      Ci = true;

  const double DurationSec = Ci ? 0.3 : 1.0;
  const size_t SatRequests = Ci ? 2048 : 8192;
  const auto Deadline = std::chrono::milliseconds(20);

  LoadBenchState S(4096);

  double SatRps = saturationRps(S, SatRequests, Ci ? 2 : 3);
  std::printf("== serve_load (calib=1000, shards=4, queue=1024, "
              "deadline=%lldms, duration=%.1fs) ==\n",
              static_cast<long long>(Deadline.count()), DurationSec);
  std::printf("saturation (closed-loop drain): %9.1f req/s\n", SatRps);
  jsonResult("serve_load", "saturation_rps", SatRps);

  support::Rng ScheduleRng(BenchSeed + 1);
  const double Multipliers[] = {0.5, 0.8, 1.0, 1.5, 2.0};
  bool Healthy = true;

  for (bool Bursty : {false, true}) {
    const char *Process = Bursty ? "bursty" : "poisson";
    for (double Mult : Multipliers) {
      std::vector<double> Offsets =
          makeSchedule(Bursty, Mult * SatRps, DurationSec, ScheduleRng);
      LoadRun Run = runOpenLoop(S, Offsets, serve::ShedPolicy::DeadlineAware,
                                Deadline);
      std::printf("%-7s %.2fx: offered %9.1f req/s  achieved %9.1f req/s  "
                  "shed %5.1f%%  p50 %8.1fus  p99 %8.1fus  p99.9 %8.1fus%s\n",
                  Process, Mult, Run.OfferedRps, Run.AchievedRps,
                  100.0 * Run.ShedRate, Run.P50Us, Run.P99Us, Run.P999Us,
                  Run.AllResolved ? "" : "  [UNRESOLVED FUTURES]");
      std::string Tag = std::string(Process) + "_" + multTag(Mult);
      jsonResult("serve_load", Tag + "_offered_rps", Run.OfferedRps);
      jsonResult("serve_load", Tag + "_achieved_rps", Run.AchievedRps);
      jsonResult("serve_load", Tag + "_shed_rate", Run.ShedRate);
      jsonResult("serve_load", Tag + "_p50_us", Run.P50Us);
      jsonResult("serve_load", Tag + "_p99_us", Run.P99Us);
      jsonResult("serve_load", Tag + "_p999_us", Run.P999Us);
      Healthy = Healthy && Run.AllResolved;
      // The overload acceptance gate: at 2x saturation, served-request
      // p99.9 must stay within an order of magnitude of the deadline —
      // shedding, not unbounded queueing, absorbs the excess.
      if (Mult == 2.0) {
        double BoundUs = 10.0 * 1e3 * static_cast<double>(Deadline.count());
        if (Run.P999Us > BoundUs) {
          std::fprintf(stderr,
                       "FATAL: %s 2x p99.9 %.1fus exceeds %.1fus bound\n",
                       Process, Run.P999Us, BoundUs);
          Healthy = false;
        }
      }
    }
  }

  // The contrast run: Block at 2x. No shedding, so the queue bound turns
  // into submitter backpressure and the offered schedule cannot be held —
  // achieved rate clamps near saturation while arrival lag absorbs the
  // rest. This is the coordinated-omission trap the open-loop harness
  // exists to expose.
  {
    std::vector<double> Offsets =
        makeSchedule(false, 2.0 * SatRps, DurationSec, ScheduleRng);
    LoadRun Run = runOpenLoop(S, Offsets, serve::ShedPolicy::Block,
                              std::chrono::milliseconds(0));
    std::printf("block   2.00x: offered %9.1f req/s  achieved %9.1f req/s  "
                "shed %5.1f%%  p50 %8.1fus  p99 %8.1fus  p99.9 %8.1fus%s\n",
                Run.OfferedRps, Run.AchievedRps, 100.0 * Run.ShedRate,
                Run.P50Us, Run.P99Us, Run.P999Us,
                Run.AllResolved ? "" : "  [UNRESOLVED FUTURES]");
    jsonResult("serve_load", "block_200x_offered_rps", Run.OfferedRps);
    jsonResult("serve_load", "block_200x_achieved_rps", Run.AchievedRps);
    jsonResult("serve_load", "block_200x_p999_us", Run.P999Us);
    Healthy = Healthy && Run.AllResolved;
  }

  // The fleet row. Runs are 1 s even under --ci: at 300 rps a shorter
  // run holds too few requests for a p50.
  {
    FleetBenchState F(S);
    const double FleetSec = 1.0;
    support::Rng TenantRng(BenchSeed + 2);
    for (double Rps : {300.0, 600.0, 1200.0}) {
      std::vector<double> Offsets =
          makeSchedule(false, Rps, FleetSec, ScheduleRng);
      LoadRun Run = runFleet(S, F, Offsets, TenantRng, Deadline);
      std::printf("fleet   %4.0frps: offered %9.1f req/s  achieved %9.1f "
                  "req/s  shed %5.1f%%  p50 %8.1fus  hit %5.1f%%  "
                  "batch %5.2f%s\n",
                  Rps, Run.OfferedRps, Run.AchievedRps, 100.0 * Run.ShedRate,
                  Run.P50Us, 100.0 * Run.HitRatio, Run.MeanBatch,
                  Run.AllResolved ? "" : "  [UNRESOLVED FUTURES]");
      char Tag[32];
      std::snprintf(Tag, sizeof(Tag), "fleet_%04drps",
                    static_cast<int>(Rps));
      jsonResult("serve_load", std::string(Tag) + "_achieved_rps",
                 Run.AchievedRps);
      jsonResult("serve_load", std::string(Tag) + "_shed_rate", Run.ShedRate);
      jsonResult("serve_load", std::string(Tag) + "_p50_us", Run.P50Us);
      jsonResult("serve_load", std::string(Tag) + "_registry_hit_ratio",
                 Run.HitRatio);
      jsonResult("serve_load", std::string(Tag) + "_mean_batch_size",
                 Run.MeanBatch);
      Healthy = Healthy && Run.AllResolved;
    }
  }

  if (!Healthy) {
    std::fprintf(stderr, "FATAL: overload run left futures unresolved or "
                         "unbounded; see above\n");
    return 1;
  }
  std::printf("all futures resolved (served or shed) in every run\n");
  return 0;
}
