//===- prombench/src/main.cpp - Repository benchmark entry point -----------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Usage: prombench --workload <serve_poisson|store_100k|fleet_zipf_refresh>
//                  --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//
// Prints human-readable progress, one detail line (configuration, phases,
// correctness failures) and, as the last line, the result object
// {"correct", "attempted", "failed", "metrics"}. Exits non-zero only on a
// usage error or an exception; a run whose outputs fail the correctness
// gate still prints its result with "correct": false.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "support/ThreadPool.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

using namespace pb;

static int usage(const char *Why) {
  std::fprintf(stderr,
               "prombench: %s\nusage: prombench --workload <serve_poisson|"
               "store_100k|fleet_zipf_refresh> --seed <n> --seconds <s> "
               "--trace <0|1> [--out <dir>]\n",
               Why);
  return 2;
}

int main(int argc, char **argv) {
  Options O;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (I + 1 >= argc)
      return usage(("missing value for " + Arg).c_str());
    std::string Val = argv[++I];
    char *End = nullptr;
    if (Arg == "--workload") {
      O.Workload = Val;
    } else if (Arg == "--seed") {
      O.Seed = std::strtoull(Val.c_str(), &End, 10);
      if (*End != '\0')
        return usage("--seed takes a whole number");
    } else if (Arg == "--seconds") {
      O.Seconds = std::strtod(Val.c_str(), &End);
      if (*End != '\0' || !(O.Seconds > 0.0) || O.Seconds > 120.0)
        return usage("--seconds takes a number in (0, 120]");
    } else if (Arg == "--trace") {
      if (Val != "0" && Val != "1")
        return usage("--trace takes 0 or 1");
      O.Trace = Val == "1";
    } else if (Arg == "--out") {
      O.OutDir = Val;
    } else {
      return usage(("unknown option " + Arg).c_str());
    }
  }

  void (*Run)(const Options &, Report &) = nullptr;
  if (O.Workload == "serve_poisson")
    Run = runServePoisson;
  else if (O.Workload == "store_100k")
    Run = runStore100k;
  else if (O.Workload == "fleet_zipf_refresh")
    Run = runFleetZipfRefresh;
  else
    return usage("unknown workload");

  std::error_code Ec;
  std::filesystem::create_directories(O.OutDir, Ec);
  if (Ec)
    return usage(("cannot create " + O.OutDir).c_str());

  // Before the library's pool or any service starts: their threads
  // inherit the work CPUs.
  const CpuPlan &Cpus = CpuPlan::init();

  Report Rep;
  Rep.info("workload", O.Workload);
  Rep.info("seed", static_cast<double>(O.Seed));
  Rep.info("seconds", O.Seconds);
  Rep.info("trace", O.Trace ? 1.0 : 0.0);
  const char *Lanes = std::getenv("PROM_THREADS");
  Rep.info("prom_threads_env", Lanes ? Lanes : "unset");
  Rep.info("generator_cpu", static_cast<double>(Cpus.Generator));
  Rep.info("work_cpus", static_cast<double>(Cpus.Work.size()));
  Rep.info("pool_lanes",
           static_cast<double>(prom::support::ThreadPool::global().numThreads()));
  try {
    Run(O, Rep);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "prombench: %s\n", E.what());
    return 1;
  }
  Rep.print();
  return 0;
}
