//===- tests/FleetTest.cpp - multi-tenant detector fleet ----------------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The fleet contract: a tenant-tagged request through the shared
// AssessmentService + DetectorRegistry must produce a verdict
// bit-identical to a dedicated single-tenant service over the same
// calibrated detector — including after the registry evicts the tenant
// (snapshot saved) and lazily reloads it on the next request. The suite
// runs under PROM_THREADS=1 and =4 pins (see CMakeLists) like the other
// concurrency suites. Also covers LRU eviction under the memory budget,
// lease pinning, per-tenant stats splits, unknown-tenant shedding, the
// batcher's round-bounded resident-first tenant pick over per-tenant
// queues, fail-closed admission of non-finite samples, and per-tenant
// recalibration controllers.
//
//===----------------------------------------------------------------------===//

#include "data/Split.h"
#include "ml/Linear.h"
#include "serve/AssessmentService.h"
#include "serve/DetectorRegistry.h"
#include "support/Serialize.h"
#include "tests/TestHelpers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

using namespace prom;
using namespace prom::serve;
using prom::testing::expectSameVerdict;
using prom::testing::gaussianBlobs;

namespace {

/// A fresh, empty snapshot rotation directory. Suffixed by the
/// PROM_THREADS pin so the Threads1/Threads4 ctest variants running
/// concurrently never share state, and wiped of generations left by a
/// previous run (a stale `latest` would satisfy the first lazy load
/// with last run's calibration).
std::string freshSnapshotDir(const std::string &Name) {
  const char *Pin = std::getenv("PROM_THREADS");
  std::string Dir =
      ::testing::TempDir() + "/fleet_" + Name + "_" + (Pin ? Pin : "host");
  for (uint64_t Gen : support::listSnapshotGenerations(Dir))
    std::remove((Dir + "/" + support::snapshotGenerationFile(Gen)).c_str());
  std::remove((Dir + "/latest").c_str());
  return Dir;
}

/// One tenant's world: model, data, config, and a factory for identical
/// calibrated engines (calibration is deterministic, so two makeEngine()
/// results hold bit-identical state — one goes into the fleet, one backs
/// the dedicated reference service).
struct TenantFixture {
  support::Rng R;
  data::Dataset Train, Calib, Test;
  ml::LogisticRegression Model;
  PromConfig Cfg;

  TenantFixture(uint64_t Seed, int Classes) : R(Seed) {
    data::Dataset Full = gaussianBlobs(Classes, 150, 4.0, 0.8, R);
    auto Split = data::calibrationPartition(Full, R, 0.35);
    Train = std::move(Split.first);
    Calib = std::move(Split.second);
    Model.fit(Train, R);
    Cfg.NumShards = 2;
    Test = gaussianBlobs(Classes, 20, 4.0, 0.8, R);
    for (int I = 0; I < 10; ++I) {
      data::Sample Novel; // Off-manifold probes so some verdicts reject.
      Novel.Features = {R.gaussian(0.0, 0.6), R.gaussian(0.0, 0.6)};
      Novel.Label = 0;
      Test.add(std::move(Novel));
    }
  }

  std::unique_ptr<PromClassifier> makeEngine() const {
    auto E = std::make_unique<PromClassifier>(Model, Cfg);
    E->calibrate(Calib);
    return E;
  }

  TenantSpec spec(const std::string &SnapshotDir) const {
    TenantSpec S;
    S.Model = &Model;
    S.Cfg = Cfg;
    S.SnapshotDir = SnapshotDir;
    return S;
  }
};

TenantFixture &alphaFixture() {
  static TenantFixture F(101, 3);
  return F;
}

TenantFixture &betaFixture() {
  static TenantFixture F(202, 4);
  return F;
}

/// Four same-shaped tenants for the scheduling tests.
TenantFixture &quadFixture(size_t T) {
  static TenantFixture F0(301, 3), F1(302, 3), F2(303, 3), F3(304, 3);
  TenantFixture *All[] = {&F0, &F1, &F2, &F3};
  return *All[T];
}

/// The order in which served samples reach the models: one shared log of
/// forward calls, each the ids of one assessed batch. Calibration
/// forwards carry id 0 and are not logged.
struct ForwardLog {
  std::mutex M;
  std::vector<std::vector<uint64_t>> Batches;

  size_t size() {
    std::lock_guard<std::mutex> Lock(M);
    return Batches.size();
  }
};

/// Model shim: forwards every call to a trained model (so verdicts are
/// those of the model itself) and logs each served batch.
class RecordingModel : public ml::Classifier {
public:
  RecordingModel(const ml::Classifier &Inner, ForwardLog &Log)
      : Inner(Inner), Log(Log) {}

  void fit(const data::Dataset &, support::Rng &) override {}
  std::vector<double> predictProba(const data::Sample &S) const override {
    return Inner.predictProba(S);
  }
  std::vector<double> embed(const data::Sample &S) const override {
    return Inner.embed(S);
  }
  support::Matrix predictProbaBatch(const data::Dataset &B) const override {
    return Inner.predictProbaBatch(B);
  }
  support::Matrix embedBatch(const data::Dataset &B) const override {
    return Inner.embedBatch(B);
  }
  void predictWithEmbedBatch(const data::Dataset &B, support::Matrix &Probs,
                             support::Matrix &Embeds) const override {
    std::vector<uint64_t> Ids;
    for (size_t I = 0; I < B.size(); ++I)
      Ids.push_back(B[I].Id);
    if (!Ids.empty() && Ids.front() != 0) {
      std::lock_guard<std::mutex> Lock(Log.M);
      Log.Batches.push_back(std::move(Ids));
    }
    Inner.predictWithEmbedBatch(B, Probs, Embeds);
  }
  int numClasses() const override { return Inner.numClasses(); }
  std::string name() const override { return Inner.name(); }

private:
  const ml::Classifier &Inner;
  ForwardLog &Log;
};

/// \p F's calibrated detector over \p Model (a shim of F.Model).
std::unique_ptr<PromClassifier> engineOver(const TenantFixture &F,
                                           const ml::Classifier &Model) {
  auto E = std::make_unique<PromClassifier>(Model, F.Cfg);
  E->calibrate(F.Calib);
  return E;
}

/// A copy of \p S carrying serving id \p Id.
data::Sample withId(const data::Sample &S, uint64_t Id) {
  data::Sample Out = S;
  Out.Id = Id;
  return Out;
}

/// Asserts that \p Fut fails with ShedError{\p Reason}.
void expectShed(std::future<Verdict> &Fut, ShedReason Reason) {
  try {
    Fut.get();
    ADD_FAILURE() << "request must be shed";
  } catch (const ShedError &E) {
    EXPECT_EQ(E.reason(), Reason);
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// The tentpole contract: shared-service verdicts == dedicated-service
// verdicts, bit for bit, across an evict -> snapshot-backed reload.
//===----------------------------------------------------------------------===//

TEST(FleetTest, TenantVerdictsBitIdenticalToDedicatedService) {
  TenantFixture &A = alphaFixture();
  TenantFixture &B = betaFixture();

  DetectorRegistry Registry;
  ASSERT_TRUE(Registry.registerTenant("alpha", A.spec(freshSnapshotDir("a"))));
  ASSERT_TRUE(Registry.registerTenant("beta", B.spec(freshSnapshotDir("b"))));
  ASSERT_TRUE(Registry.installDetector("alpha", A.makeEngine()));
  ASSERT_TRUE(Registry.installDetector("beta", B.makeEngine()));

  // Dedicated single-tenant services over identically calibrated engines.
  std::unique_ptr<PromClassifier> RefA = A.makeEngine();
  std::unique_ptr<PromClassifier> RefB = B.makeEngine();
  ServiceConfig Cfg;
  Cfg.MaxBatch = 8;
  Cfg.NumBatchers = 2;
  AssessmentService DedicatedA(*RefA, Cfg);
  AssessmentService DedicatedB(*RefB, Cfg);
  AssessmentService Shared(Registry, Cfg);

  // Interleave the two tenants through the shared service so batches
  // would mix them if the batcher did not group per tenant.
  auto RunRound = [&]() {
    std::vector<std::future<Verdict>> SharedA, SharedB, DedA, DedB;
    const size_t Rounds = std::max(A.Test.size(), B.Test.size());
    for (size_t I = 0; I < Rounds; ++I) {
      if (I < A.Test.size()) {
        SharedA.push_back(Shared.submit("alpha", A.Test[I]));
        DedA.push_back(DedicatedA.submit(A.Test[I]));
      }
      if (I < B.Test.size()) {
        SharedB.push_back(Shared.submit("beta", B.Test[I]));
        DedB.push_back(DedicatedB.submit(B.Test[I]));
      }
    }
    for (size_t I = 0; I < SharedA.size(); ++I)
      expectSameVerdict(DedA[I].get(), SharedA[I].get(), I);
    for (size_t I = 0; I < SharedB.size(); ++I)
      expectSameVerdict(DedB[I].get(), SharedB[I].get(), 1000 + I);
  };
  RunRound();

  // Evict both tenants (snapshot saved, engines destroyed) and run the
  // identical round again: the lazily reloaded detectors must land the
  // same bits. drain() first so no lease pins the tenants.
  Shared.drain();
  ASSERT_TRUE(Registry.evict("alpha"));
  ASSERT_TRUE(Registry.evict("beta"));
  EXPECT_FALSE(Registry.isLoaded("alpha"));
  EXPECT_FALSE(Registry.isLoaded("beta"));
  RunRound();
  EXPECT_TRUE(Registry.isLoaded("alpha"));
  EXPECT_TRUE(Registry.isLoaded("beta"));

  // Fleet bookkeeping: two installs, two evictions, two lazy reloads.
  RegistryStats RS = Registry.stats();
  EXPECT_EQ(RS.Installs, 2u);
  EXPECT_EQ(RS.Evictions, 2u);
  EXPECT_EQ(RS.Loads, 2u);
  EXPECT_EQ(RS.SnapshotsSaved, 2u);
  EXPECT_EQ(RS.LoadFailures, 0u);

  // Per-tenant stats split: every tagged request is accounted to its
  // tenant, and the splits sum to the fleet-wide counters.
  Shared.drain();
  ServiceStats SS = Shared.stats();
  ASSERT_EQ(SS.Tenants.count("alpha"), 1u);
  ASSERT_EQ(SS.Tenants.count("beta"), 1u);
  const TenantServiceStats &TA = SS.Tenants.at("alpha");
  const TenantServiceStats &TB = SS.Tenants.at("beta");
  EXPECT_EQ(TA.Submitted, 2 * A.Test.size());
  EXPECT_EQ(TB.Submitted, 2 * B.Test.size());
  EXPECT_EQ(TA.Completed, TA.Submitted);
  EXPECT_EQ(TB.Completed, TB.Submitted);
  EXPECT_EQ(TA.Submitted + TB.Submitted, SS.Submitted);
  EXPECT_EQ(TA.Completed + TB.Completed, SS.Completed);
  EXPECT_EQ(TA.DriftRejected + TB.DriftRejected, SS.DriftRejected);
  EXPECT_EQ(TA.Latency.Total + TB.Latency.Total, SS.Latency.Total);
  EXPECT_GE(TA.Batches, 1u);
  EXPECT_GE(TB.Batches, 1u);
}

//===----------------------------------------------------------------------===//
// Registry mechanics
//===----------------------------------------------------------------------===//

TEST(FleetTest, LruEvictionRespectsBudgetPinsAndPersistence) {
  TenantFixture &A = alphaFixture();

  // A 1-byte budget: any loaded detector is over it, so every
  // install/load evicts whatever else is evictable.
  RegistryConfig RCfg;
  RCfg.MemoryBudgetBytes = 1;
  DetectorRegistry Registry(RCfg);
  ASSERT_TRUE(Registry.registerTenant("t1", A.spec(freshSnapshotDir("t1"))));
  ASSERT_TRUE(Registry.registerTenant("t2", A.spec(freshSnapshotDir("t2"))));
  ASSERT_TRUE(Registry.registerTenant("mem", A.spec(""))); // No persistence.

  // The tenant being installed is never its own eviction victim.
  ASSERT_TRUE(Registry.installDetector("t1", A.makeEngine()));
  EXPECT_TRUE(Registry.isLoaded("t1"));

  // Installing t2 evicts LRU t1 (saved first).
  ASSERT_TRUE(Registry.installDetector("t2", A.makeEngine()));
  EXPECT_FALSE(Registry.isLoaded("t1"));
  EXPECT_TRUE(Registry.isLoaded("t2"));

  // Reloading t1 under a held lease evicts t2, never the pinned t1.
  {
    DetectorRegistry::Lease L1 = Registry.acquire("t1");
    ASSERT_TRUE(static_cast<bool>(L1));
    EXPECT_EQ(L1.tenant(), "t1");
    EXPECT_FALSE(Registry.isLoaded("t2"));

    // Loading t2 while t1 is pinned: both stay in memory (over budget is
    // preferred to evicting a pinned or unsaveable tenant)...
    DetectorRegistry::Lease L2 = Registry.acquire("t2");
    ASSERT_TRUE(static_cast<bool>(L2));
    EXPECT_TRUE(Registry.isLoaded("t1"));
    EXPECT_TRUE(Registry.isLoaded("t2"));

    // ...and an explicit evict of a pinned tenant is refused.
    EXPECT_FALSE(Registry.evict("t1"));
  }

  // A persistence-disabled tenant can never be evicted — not by the
  // budget sweep, not explicitly — because its state would be lost.
  ASSERT_TRUE(Registry.installDetector("mem", A.makeEngine()));
  EXPECT_FALSE(Registry.evict("mem"));
  DetectorRegistry::Lease L = Registry.acquire("t1"); // Budget sweep runs.
  ASSERT_TRUE(static_cast<bool>(L));
  EXPECT_TRUE(Registry.isLoaded("mem"));

  // Cold/unknown edges.
  EXPECT_FALSE(Registry.evict("t2") && Registry.evict("t2")); // Not twice.
  EXPECT_FALSE(Registry.evict("ghost"));
  EXPECT_FALSE(static_cast<bool>(Registry.acquire("ghost")));
  EXPECT_FALSE(Registry.save("ghost"));
  // "mem" has no snapshot dir: a save request must fail, not no-op.
  EXPECT_FALSE(Registry.save("mem"));

  RegistryStats RS = Registry.stats();
  EXPECT_EQ(RS.RegisteredTenants, 3u);
  EXPECT_GE(RS.Evictions, 2u);
  EXPECT_GT(RS.MemoryBytes, RCfg.MemoryBudgetBytes); // Pins win over budget.
}

TEST(FleetTest, AcquireWithoutSnapshotFailsCleanly) {
  TenantFixture &A = alphaFixture();
  DetectorRegistry Registry;
  // Registered but never installed and with an empty rotation dir: the
  // lazy load has nothing to resolve.
  ASSERT_TRUE(
      Registry.registerTenant("cold", A.spec(freshSnapshotDir("cold"))));
  EXPECT_FALSE(static_cast<bool>(Registry.acquire("cold")));
  EXPECT_EQ(Registry.stats().LoadFailures, 1u);
  // Duplicate registration and null-model specs are refused.
  EXPECT_FALSE(Registry.registerTenant("cold", A.spec("")));
  EXPECT_FALSE(Registry.registerTenant("nullmodel", TenantSpec()));
}

TEST(FleetTest, UnknownTenantShedsWithReason) {
  TenantFixture &A = alphaFixture();
  DetectorRegistry Registry;
  AssessmentService Shared(Registry, ServiceConfig());

  std::future<Verdict> Fut = Shared.submit("ghost", A.Test[0]);
  try {
    Fut.get();
    FAIL() << "unknown tenant must shed";
  } catch (const ShedError &E) {
    EXPECT_EQ(E.reason(), ShedReason::UnknownTenant);
  }
  Shared.drain();
  ServiceStats SS = Shared.stats();
  EXPECT_EQ(SS.ShedUnknownTenant, 1u);
  EXPECT_EQ(SS.shedTotal(), 1u);
  ASSERT_EQ(SS.Tenants.count("ghost"), 1u);
  EXPECT_EQ(SS.Tenants.at("ghost").Shed, 1u);
  EXPECT_EQ(SS.Tenants.at("ghost").Completed, 0u);
}

//===----------------------------------------------------------------------===//
// The batcher's tenant pick: per-tenant FIFO queues, resident tenants
// first within a round, the round as the starvation bound
//===----------------------------------------------------------------------===//

TEST(FleetTest, StagedQueueDrainsResidentTenantsFirst) {
  // Four tenants, a budget for two: installing all four leaves t2 and t3
  // resident and t0 and t1 cold (snapshot-backed).
  ForwardLog Log;
  std::vector<std::unique_ptr<RecordingModel>> Shims;
  std::vector<size_t> Bytes;
  for (size_t T = 0; T < 4; ++T) {
    Shims.push_back(
        std::make_unique<RecordingModel>(quadFixture(T).Model, Log));
    Bytes.push_back(engineOver(quadFixture(T), *Shims[T])->memoryBytes());
  }
  std::vector<size_t> Sorted = Bytes;
  std::sort(Sorted.begin(), Sorted.end());
  RegistryConfig RCfg;
  RCfg.MemoryBudgetBytes = Sorted[2] + Sorted[3];
  ASSERT_LT(RCfg.MemoryBudgetBytes, Sorted[0] + Sorted[1] + Sorted[2])
      << "the budget must fit any two tenants and no three";
  DetectorRegistry Registry(RCfg);
  for (size_t T = 0; T < 4; ++T) {
    std::string Id = "t" + std::to_string(T);
    TenantSpec Spec = quadFixture(T).spec(freshSnapshotDir("staged" + Id));
    Spec.Model = Shims[T].get();
    ASSERT_TRUE(Registry.registerTenant(Id, Spec));
    ASSERT_TRUE(
        Registry.installDetector(Id, engineOver(quadFixture(T), *Shims[T])));
  }
  ASSERT_FALSE(Registry.isLoaded("t0"));
  ASSERT_FALSE(Registry.isLoaded("t1"));
  ASSERT_TRUE(Registry.isLoaded("t2"));
  ASSERT_TRUE(Registry.isLoaded("t3"));

  // One batcher, so the assessment order is the pick order.
  ServiceConfig Cfg;
  Cfg.MaxBatch = 8;
  Cfg.StartPaused = true;
  AssessmentService Shared(Registry, Cfg);

  // Interleaved staging: an oldest-request-first pick would visit the
  // tenants in turn and cold-load on nearly every batch.
  const size_t PerTenant = 24;
  std::vector<std::vector<std::future<Verdict>>> Futures(4);
  std::vector<data::Dataset> Sent(4);
  uint64_t NextId = 1;
  for (size_t I = 0; I < PerTenant; ++I)
    for (size_t T = 0; T < 4; ++T) {
      data::Sample S = withId(quadFixture(T).Test[I], NextId++);
      Sent[T].add(S);
      Futures[T].push_back(Shared.submit("t" + std::to_string(T), S));
    }
  EXPECT_EQ(Shared.queueDepth(), 4 * PerTenant);

  const uint64_t LoadsBefore = Registry.stats().Loads;
  Shared.start();
  Shared.drain();
  const uint64_t Loads = Registry.stats().Loads - LoadsBefore;
  // One load per cold tenant with queued requests, at most.
  EXPECT_LE(Loads, 2u);

  // Bit-identical to each tenant's dedicated detector.
  for (size_t T = 0; T < 4; ++T) {
    std::vector<Verdict> Direct =
        quadFixture(T).makeEngine()->assessBatch(Sent[T]);
    for (size_t I = 0; I < PerTenant; ++I)
      expectSameVerdict(Direct[I], Futures[T][I].get(), 100 * T + I);
  }

  // Per-tenant FIFO: every batch holds one tenant, and each tenant's
  // ids reach its model in submission order. Ids were dealt round-robin,
  // so (Id - 1) % 4 is the tenant.
  std::vector<uint64_t> LastId(4, 0);
  size_t Assessed = 0;
  for (const std::vector<uint64_t> &B : Log.Batches) {
    size_t T = (B.front() - 1) % 4;
    for (uint64_t Id : B) {
      EXPECT_EQ((Id - 1) % 4, T) << "a batch mixed tenants";
      EXPECT_GT(Id, LastId[T]) << "tenant t" << T << " out of FIFO order";
      LastId[T] = Id;
      ++Assessed;
    }
  }
  EXPECT_EQ(Assessed, 4 * PerTenant);
}

TEST(FleetTest, ColdTenantServedWithinItsRound) {
  // A resident tenant and a cold one; no budget, so loading the cold
  // tenant evicts nothing.
  ForwardLog Log;
  RecordingModel HotModel(alphaFixture().Model, Log);
  RecordingModel ColdModel(betaFixture().Model, Log);
  DetectorRegistry Registry;
  TenantSpec HotSpec = alphaFixture().spec(freshSnapshotDir("round_hot"));
  HotSpec.Model = &HotModel;
  TenantSpec ColdSpec = betaFixture().spec(freshSnapshotDir("round_cold"));
  ColdSpec.Model = &ColdModel;
  ASSERT_TRUE(Registry.registerTenant("hot", HotSpec));
  ASSERT_TRUE(Registry.registerTenant("cold", ColdSpec));
  ASSERT_TRUE(
      Registry.installDetector("hot", engineOver(alphaFixture(), HotModel)));
  ASSERT_TRUE(
      Registry.installDetector("cold", engineOver(betaFixture(), ColdModel)));
  ASSERT_TRUE(Registry.evict("cold"));

  // One batcher: the guarantee is about pick order, which one batcher
  // turns into assessment order.
  ServiceConfig Cfg;
  Cfg.MaxBatch = 4;
  Cfg.StartPaused = true;
  AssessmentService Shared(Registry, Cfg);

  const data::Dataset &Hot = alphaFixture().Test;
  const uint64_t ColdId = 1;
  std::future<Verdict> ColdFut =
      Shared.submit("cold", withId(betaFixture().Test[0], ColdId));
  // Resident requests staged beside it: the round holds both tenants, and
  // the resident one goes first.
  std::vector<std::future<Verdict>> HotFuts;
  uint64_t NextId = 2;
  for (size_t I = 0; I < 6; ++I)
    HotFuts.push_back(Shared.submit("hot", withId(Hot[I], NextId++)));

  // Resident traffic keeps arriving. A request submitted once the model
  // has seen a batch was admitted after the first pick, so after the
  // cold request's round began: it must not be assessed before it.
  Shared.start();
  std::vector<uint64_t> Late;
  for (size_t I = 6; I < Hot.size(); ++I) {
    uint64_t Id = NextId++;
    if (Log.size() > 0)
      Late.push_back(Id);
    HotFuts.push_back(Shared.submit("hot", withId(Hot[I], Id)));
    std::this_thread::sleep_for(std::chrono::microseconds(300));
  }
  Shared.drain();
  EXPECT_NO_THROW(ColdFut.get());
  for (auto &F : HotFuts)
    EXPECT_NO_THROW(F.get());

  size_t ColdAt = Log.Batches.size(), FirstLateAt = Log.Batches.size();
  for (size_t B = 0; B < Log.Batches.size(); ++B)
    for (uint64_t Id : Log.Batches[B]) {
      if (Id == ColdId)
        ColdAt = B;
      if (std::find(Late.begin(), Late.end(), Id) != Late.end())
        FirstLateAt = std::min(FirstLateAt, B);
    }
  ASSERT_LT(ColdAt, Log.Batches.size()) << "cold request never assessed";
  EXPECT_FALSE(Late.empty()) << "no request arrived after the first batch";
  EXPECT_LT(ColdAt, FirstLateAt)
      << "a request of a later round was assessed before the cold one";
  EXPECT_EQ(Registry.stats().Loads, 1u);
}

TEST(FleetTest, PerTenantQueuesShareCapacityAndEviction) {
  TenantFixture &A = alphaFixture();
  TenantFixture &B = betaFixture();
  DetectorRegistry Registry;
  ASSERT_TRUE(Registry.registerTenant("alpha", A.spec("")));
  ASSERT_TRUE(Registry.registerTenant("beta", B.spec("")));
  ASSERT_TRUE(Registry.installDetector("alpha", A.makeEngine()));
  ASSERT_TRUE(Registry.installDetector("beta", B.makeEngine()));

  ServiceConfig Cfg;
  Cfg.QueueCapacity = 4;
  Cfg.Shed = ShedPolicy::DeadlineAware;
  Cfg.StartPaused = true;
  AssessmentService Shared(Registry, Cfg);
  // Short enough to expire during the sleep below, long enough to be
  // admitted first even in a sanitizer build.
  const auto Long = std::chrono::seconds(10);
  const auto Short = std::chrono::milliseconds(20);

  // alpha holds the oldest request; beta's expiring ones sit behind it
  // in their own queue. The capacity counts both queues.
  std::vector<std::future<Verdict>> Live;
  Live.push_back(Shared.submitWithDeadline("alpha", A.Test[0], Long));
  std::future<Verdict> B1 =
      Shared.submitWithDeadline("beta", B.Test[0], Short);
  std::future<Verdict> B2 =
      Shared.submitWithDeadline("beta", B.Test[1], Short);
  Live.push_back(Shared.submitWithDeadline("alpha", A.Test[1], Long));
  EXPECT_EQ(Shared.queueDepth(), 4u);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));

  // Full: the arrival evicts beta's expired requests, not alpha's.
  Live.push_back(Shared.submitWithDeadline("alpha", A.Test[2], Long));
  expectShed(B1, ShedReason::DeadlineExpired);
  expectShed(B2, ShedReason::DeadlineExpired);
  EXPECT_EQ(Shared.queueDepth(), 3u);
  Live.push_back(Shared.submitWithDeadline("beta", B.Test[2], Long));
  EXPECT_EQ(Shared.queueDepth(), 4u);

  // Full with nothing expired: shed at admission, and trySubmit refuses.
  std::future<Verdict> Refused =
      Shared.submitWithDeadline("beta", B.Test[3], Long);
  expectShed(Refused, ShedReason::QueueFull);
  std::future<Verdict> Probe;
  EXPECT_FALSE(Shared.trySubmit("alpha", A.Test[3], Probe));

  Shared.start();
  for (auto &F : Live)
    EXPECT_NO_THROW(F.get());
  Shared.drain();
  EXPECT_EQ(Shared.queueDepth(), 0u);
  ServiceStats SS = Shared.stats();
  EXPECT_EQ(SS.Submitted, 6u);
  EXPECT_EQ(SS.Completed, 4u);
  EXPECT_EQ(SS.ShedExpired, 2u);
  EXPECT_EQ(SS.ShedQueueFull, 1u);
  EXPECT_EQ(SS.Tenants.at("alpha").Completed, 3u);
  EXPECT_EQ(SS.Tenants.at("beta").Completed, 1u);
  EXPECT_EQ(SS.Tenants.at("beta").Shed, 3u);
  EXPECT_EQ(SS.Tenants.at("alpha").Shed, 0u);

  // Untagged and unknown-tenant requests still shed UnknownTenant, and
  // the known tenant's requests around them are served.
  std::future<Verdict> Untagged = Shared.submit(A.Test[4]);
  std::future<Verdict> Ghost = Shared.submit("ghost", A.Test[5]);
  std::future<Verdict> Known = Shared.submit("alpha", A.Test[6]);
  expectShed(Untagged, ShedReason::UnknownTenant);
  expectShed(Ghost, ShedReason::UnknownTenant);
  EXPECT_NO_THROW(Known.get());
  Shared.drain();
  SS = Shared.stats();
  EXPECT_EQ(SS.ShedUnknownTenant, 2u);
  EXPECT_EQ(SS.Tenants.at("").Shed, 1u);
  EXPECT_EQ(SS.Tenants.at("ghost").Shed, 1u);

  // The post-shutdown contract holds across the tenant queues.
  Shared.shutdown();
  EXPECT_FALSE(Shared.trySubmit("alpha", A.Test[7], Probe));
  std::future<Verdict> Late = Shared.submit("beta", B.Test[4]);
  expectShed(Late, ShedReason::Shutdown);
}

TEST(FleetTest, NonFiniteFeaturesFailClosedPerTenant) {
  TenantFixture &A = alphaFixture();
  DetectorRegistry Registry;
  ASSERT_TRUE(Registry.registerTenant("alpha", A.spec("")));
  ASSERT_TRUE(Registry.installDetector("alpha", A.makeEngine()));
  AssessmentService Shared(Registry, ServiceConfig());

  const double Bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  std::vector<std::future<Verdict>> Rejected;
  for (double V : Bad) {
    data::Sample S = A.Test[0];
    S.Features[1] = V;
    Rejected.push_back(Shared.submit("alpha", S));
    std::future<Verdict> Out;
    ASSERT_TRUE(Shared.trySubmit("alpha", S, Out));
    Rejected.push_back(std::move(Out));
  }
  std::future<Verdict> Good = Shared.submit("alpha", A.Test[0]);
  for (auto &F : Rejected)
    expectShed(F, ShedReason::InvalidInput);
  std::unique_ptr<PromClassifier> Ref = A.makeEngine();
  expectSameVerdict(Ref->assess(A.Test[0]), Good.get(), 0);

  Shared.drain();
  ServiceStats SS = Shared.stats();
  EXPECT_EQ(SS.ShedInvalidInput, 6u);
  EXPECT_EQ(SS.shedTotal(), 6u);
  EXPECT_EQ(SS.Submitted, 1u);
  EXPECT_EQ(SS.Completed, 1u);
  EXPECT_EQ(SS.Tenants.at("alpha").Shed, 6u);
  EXPECT_EQ(SS.Tenants.at("alpha").Completed, 1u);
}

//===----------------------------------------------------------------------===//
// Per-tenant recalibration controllers
//===----------------------------------------------------------------------===//

TEST(FleetTest, PerTenantControllersRefreshAndSurviveReload) {
  TenantFixture &A = alphaFixture();
  DetectorRegistry Registry;
  const std::string Dir = freshSnapshotDir("recal");
  ASSERT_TRUE(Registry.registerTenant("alpha", A.spec(Dir)));
  ASSERT_TRUE(Registry.installDetector("alpha", A.makeEngine()));

  RecalibrationConfig RCfg;
  RCfg.MinRefreshSamples = 8; // SnapshotDir inherits the tenant's.
  ASSERT_TRUE(Registry.enableRecalibration("alpha", DriftWindowConfig(), RCfg));
  EXPECT_FALSE(Registry.enableRecalibration("ghost"));

  {
    DetectorRegistry::Lease L = Registry.acquire("alpha");
    ASSERT_TRUE(static_cast<bool>(L));
    ASSERT_NE(L.controller(), nullptr); // Armed on the live entry.
    ASSERT_NE(L.monitor(), nullptr);
    // An empty RecalibrationConfig::SnapshotDir inherits the tenant's.
    EXPECT_EQ(L.controller()->config().SnapshotDir, Dir);

    // Feed relabeled samples through the registry and trigger a refresh.
    for (size_t I = 0; I < 16; ++I)
      ASSERT_TRUE(Registry.submitLabeled("alpha", A.Calib[I]));
    L.controller()->triggerRefresh();
    EXPECT_TRUE(L.controller()->waitForRefreshes(
        1, std::chrono::milliseconds(5000)));
    EXPECT_GE(L.controller()->stats().SamplesFolded, 16u);
  }

  // Eviction tears the controller down with the engine; the reload arms
  // a fresh one against the restored state.
  ASSERT_TRUE(Registry.evict("alpha"));
  EXPECT_FALSE(Registry.submitLabeled("alpha", A.Calib[0])); // Cold tenant.
  DetectorRegistry::Lease L = Registry.acquire("alpha");
  ASSERT_TRUE(static_cast<bool>(L));
  EXPECT_NE(L.controller(), nullptr);
  EXPECT_EQ(L.controller()->stats().RefreshesCompleted, 0u); // Fresh.
  EXPECT_TRUE(Registry.submitLabeled("alpha", A.Calib[0]));
}
