/*===- tests/CApiFleetTest.c - C99 fleet ABI round trip ------------*- C -*-===
 *
 * Part of the PROM reproduction. Distributed under the MIT license.
 *
 *===----------------------------------------------------------------------===*/
/*
 * Drives the fleet C ABI exactly the way a non-C++ host would: this
 * translation unit is strict C99 (no C++ anywhere) and registers two
 * tenants with different layouts behind one prom_fleet. For each tenant
 * it also keeps a dedicated prom_detector calibrated on the identical
 * rows, and requires every fleet verdict — single and batched, before
 * and after an evict -> snapshot-backed reload — to be bit-identical to
 * the dedicated detector's (doubles compared with memcmp, not ==). Rows
 * holding a NaN or infinity must fail closed at both handle families.
 *
 * Built and registered from CMakeLists.txt with -std=c99; compilation of
 * this file is itself the header's C-cleanliness check for the test
 * binary (CI additionally compiles the header alone under -Werror).
 */

#include "core/CApi.h"

#include <math.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

static int Failures = 0;

#define CHECK(Cond)                                                            \
  do {                                                                         \
    if (!(Cond)) {                                                             \
      ++Failures;                                                              \
      fprintf(stderr, "FAIL %s:%d: %s\n", __FILE__, __LINE__, #Cond);          \
    }                                                                          \
  } while (0)

static int sameBits(double A, double B) {
  return memcmp(&A, &B, sizeof(double)) == 0;
}

/* Deterministic splitmix-style generator so both the dedicated detector
 * and the fleet tenant see identical rows on every platform. */
static unsigned long long RngState;

static double nextUnit(void) {
  RngState += 0x9E3779B97F4A7C15ULL;
  unsigned long long Z = RngState;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  Z = Z ^ (Z >> 31);
  return (double)(Z >> 11) / 9007199254740992.0; /* [0, 1) */
}

/* One synthetic host-model output: a probability row peaked at Label
 * plus a Label-dependent embedding. Off-manifold rows (Label < 0) are
 * near-uniform with unclustered features, so some verdicts reject. */
static void makeRow(int NumClasses, int FeatureDim, int Label, double *Probs,
                    double *Features) {
  int C;
  double Total = 0.0;
  for (C = 0; C < NumClasses; ++C) {
    Probs[C] = 0.05 + 0.1 * nextUnit();
    if (C == Label)
      Probs[C] += 2.0 + nextUnit();
    Total += Probs[C];
  }
  for (C = 0; C < NumClasses; ++C)
    Probs[C] /= Total;
  for (C = 0; C < FeatureDim; ++C)
    Features[C] = (Label >= 0 ? 3.0 * Label : -2.0) + nextUnit() - 0.5;
}

struct Tenant {
  const char *Name;
  const char *Dir;
  int NumClasses;
  int FeatureDim;
  unsigned long long Seed;
  prom_detector *Dedicated; /* Reference detector, identical rows. */
};

enum { CALIB_ROWS = 96, QUERY_ROWS = 40, MAX_CLASSES = 4, MAX_DIM = 3 };

/* Calibrates a fresh detector on the tenant's deterministic row stream. */
static prom_detector *buildDetector(const struct Tenant *T) {
  prom_detector *D = prom_create(T->NumClasses, T->FeatureDim, 0.1);
  int I;
  double Probs[MAX_CLASSES], Features[MAX_DIM];
  if (D == NULL)
    return NULL;
  RngState = T->Seed;
  for (I = 0; I < CALIB_ROWS; ++I) {
    int Label = I % T->NumClasses;
    makeRow(T->NumClasses, T->FeatureDim, Label, Probs, Features);
    if (prom_add_calibration(D, Probs, Features, Label) != 0) {
      prom_destroy(D);
      return NULL;
    }
  }
  if (prom_finalize(D) != 0) {
    prom_destroy(D);
    return NULL;
  }
  return D;
}

/* Fills the tenant's deterministic query batch (in-distribution rows
 * interleaved with off-manifold ones). */
static void buildQueries(const struct Tenant *T, double *Probs,
                         double *Features) {
  int I;
  RngState = T->Seed ^ 0xABCDEF1234567890ULL;
  for (I = 0; I < QUERY_ROWS; ++I) {
    int Label = (I % 3 == 2) ? -1 : I % T->NumClasses;
    makeRow(T->NumClasses, T->FeatureDim, Label, Probs + I * T->NumClasses,
            Features + I * T->FeatureDim);
  }
}

/* Every fleet verdict for this tenant — single-query and whole-batch —
 * must match the dedicated detector bit for bit. */
static void checkTenantVerdicts(prom_fleet *F, const struct Tenant *T) {
  double Probs[QUERY_ROWS * MAX_CLASSES];
  double Features[QUERY_ROWS * MAX_DIM];
  int WantReject[QUERY_ROWS], GotReject[QUERY_ROWS];
  double WantCred[QUERY_ROWS], GotCred[QUERY_ROWS];
  double WantConf[QUERY_ROWS], GotConf[QUERY_ROWS];
  int I;

  buildQueries(T, Probs, Features);
  CHECK(prom_assess_batch(T->Dedicated, QUERY_ROWS, Probs, Features,
                          WantReject, WantCred, WantConf) == 0);
  CHECK(prom_fleet_assess_batch(F, T->Name, QUERY_ROWS, Probs, Features,
                                GotReject, GotCred, GotConf) == 0);
  for (I = 0; I < QUERY_ROWS; ++I) {
    CHECK(GotReject[I] == WantReject[I]);
    CHECK(sameBits(GotCred[I], WantCred[I]));
    CHECK(sameBits(GotConf[I], WantConf[I]));
  }
  for (I = 0; I < QUERY_ROWS; ++I) {
    double Cred = -1.0, Conf = -1.0;
    int Flag = prom_fleet_assess(F, T->Name, Probs + I * T->NumClasses,
                                 Features + I * T->FeatureDim, &Cred, &Conf);
    CHECK(Flag == WantReject[I]);
    CHECK(sameBits(Cred, WantCred[I]));
    CHECK(sameBits(Conf, WantConf[I]));
  }
}

/* A mixed batch through the fleet rejects every non-finite row with
 * credibility and confidence 0, and its finite rows are bit-identical to
 * the dedicated detector assessing them alone. */
static void checkNonFiniteRows(prom_fleet *F, const struct Tenant *T) {
  double Probs[QUERY_ROWS * MAX_CLASSES];
  double Features[QUERY_ROWS * MAX_DIM];
  double FiniteProbs[QUERY_ROWS * MAX_CLASSES];
  double FiniteFeatures[QUERY_ROWS * MAX_DIM];
  int WantReject[QUERY_ROWS], GotReject[QUERY_ROWS];
  double WantCred[QUERY_ROWS], GotCred[QUERY_ROWS];
  double WantConf[QUERY_ROWS], GotConf[QUERY_ROWS];
  double Cred = -1.0, Conf = -1.0;
  int I, NumFinite = 0;

  buildQueries(T, Probs, Features);
  for (I = 0; I < QUERY_ROWS; ++I) {
    if (I % 4 == 1) {
      /* Poison: alternately a NaN feature and an infinite probability. */
      if (I % 8 == 1)
        Features[I * T->FeatureDim + T->FeatureDim - 1] = NAN;
      else
        Probs[I * T->NumClasses] = INFINITY;
      continue;
    }
    memcpy(FiniteProbs + NumFinite * T->NumClasses, Probs + I * T->NumClasses,
           sizeof(double) * (size_t)T->NumClasses);
    memcpy(FiniteFeatures + NumFinite * T->FeatureDim,
           Features + I * T->FeatureDim,
           sizeof(double) * (size_t)T->FeatureDim);
    ++NumFinite;
  }

  CHECK(prom_assess_batch(T->Dedicated, (size_t)NumFinite, FiniteProbs,
                          FiniteFeatures, WantReject, WantCred,
                          WantConf) == 0);
  CHECK(prom_fleet_assess_batch(F, T->Name, QUERY_ROWS, Probs, Features,
                                GotReject, GotCred, GotConf) == 0);
  NumFinite = 0;
  for (I = 0; I < QUERY_ROWS; ++I) {
    if (I % 4 == 1) {
      CHECK(GotReject[I] == 1);
      CHECK(sameBits(GotCred[I], 0.0));
      CHECK(sameBits(GotConf[I], 0.0));
      continue;
    }
    CHECK(GotReject[I] == WantReject[NumFinite]);
    CHECK(sameBits(GotCred[I], WantCred[NumFinite]));
    CHECK(sameBits(GotConf[I], WantConf[NumFinite]));
    ++NumFinite;
  }

  /* The single-query entry points fail closed the same way. */
  CHECK(prom_fleet_assess(F, T->Name, Probs + T->NumClasses,
                          Features + T->FeatureDim, &Cred, &Conf) == 1);
  CHECK(sameBits(Cred, 0.0));
  CHECK(sameBits(Conf, 0.0));
  Cred = Conf = -1.0;
  CHECK(prom_should_reject(T->Dedicated, Probs + 5 * T->NumClasses,
                           Features + 5 * T->FeatureDim, &Cred, &Conf) == 1);
  CHECK(sameBits(Cred, 0.0));
  CHECK(sameBits(Conf, 0.0));
}

int main(void) {
  struct Tenant Tenants[2];
  prom_fleet *F;
  int T, SawReject = 0, SawAccept = 0;

  Tenants[0].Name = "alpha";
  Tenants[0].Dir = "capi_fleet_alpha";
  Tenants[0].NumClasses = 3;
  Tenants[0].FeatureDim = 2;
  Tenants[0].Seed = 0x1111ULL;
  Tenants[1].Name = "beta";
  Tenants[1].Dir = "capi_fleet_beta";
  Tenants[1].NumClasses = 4;
  Tenants[1].FeatureDim = 3;
  Tenants[1].Seed = 0x2222ULL;

  /* Contract fixes pinned from C: a non-zero out-of-range epsilon is
   * rejected (0 still selects the default), and double-finalize is a
   * defined no-op. */
  CHECK(prom_create(3, 2, -1.0) == NULL);
  CHECK(prom_create(3, 2, 1.0) == NULL);
  CHECK(prom_create(3, 2, 42.0) == NULL);
  {
    prom_detector *D = prom_create(3, 2, 0.0);
    double Probs[3] = {0.8, 0.1, 0.1}, Features[2] = {0.0, 0.0};
    CHECK(D != NULL);
    /* Non-finite calibration rows are refused; finite ones are not. */
    Features[1] = NAN;
    CHECK(prom_add_calibration(D, Probs, Features, 0) == -1);
    Features[1] = 0.0;
    Probs[2] = -INFINITY;
    CHECK(prom_add_calibration(D, Probs, Features, 0) == -1);
    Probs[2] = 0.1;
    CHECK(prom_add_calibration(D, Probs, Features, 0) == 0);
    prom_destroy(D);
  }

  F = prom_fleet_create(0);
  CHECK(F != NULL);

  for (T = 0; T < 2; ++T) {
    prom_detector *ForFleet;
    Tenants[T].Dedicated = buildDetector(&Tenants[T]);
    CHECK(Tenants[T].Dedicated != NULL);
    CHECK(prom_finalize(Tenants[T].Dedicated) == 0); /* No-op repeat. */

    CHECK(prom_fleet_register(F, Tenants[T].Name, Tenants[T].NumClasses,
                              Tenants[T].FeatureDim, 0.1,
                              Tenants[T].Dir) == 0);
    ForFleet = buildDetector(&Tenants[T]);
    CHECK(ForFleet != NULL);
    CHECK(prom_fleet_install(F, Tenants[T].Name, ForFleet) == 0);
    CHECK(prom_fleet_is_loaded(F, Tenants[T].Name) == 1);
  }
  CHECK(prom_fleet_register(F, "alpha", 3, 2, 0.1, NULL) != 0); /* Dup. */
  CHECK(prom_fleet_memory_bytes(F) > 0);

  /* Round 1: warm fleet vs dedicated detectors, both tenants. */
  for (T = 0; T < 2; ++T) {
    checkTenantVerdicts(F, &Tenants[T]);
    checkNonFiniteRows(F, &Tenants[T]);
  }

  /* Evict both (snapshot saved), then re-assess: the lazy snapshot
   * reload must land the identical bits. */
  for (T = 0; T < 2; ++T) {
    CHECK(prom_fleet_save(F, Tenants[T].Name) == 0);
    CHECK(prom_fleet_evict(F, Tenants[T].Name) == 0);
    CHECK(prom_fleet_is_loaded(F, Tenants[T].Name) == 0);
  }
  for (T = 0; T < 2; ++T) {
    checkTenantVerdicts(F, &Tenants[T]);
    CHECK(prom_fleet_is_loaded(F, Tenants[T].Name) == 1);
  }

  /* The same snapshots also serve the single-detector open path. */
  for (T = 0; T < 2; ++T) {
    prom_detector *Reopened =
        prom_open(Tenants[T].NumClasses, Tenants[T].FeatureDim, 0.1,
                  Tenants[T].Dir);
    double Probs[QUERY_ROWS * MAX_CLASSES];
    double Features[QUERY_ROWS * MAX_DIM];
    int I;
    CHECK(Reopened != NULL);
    if (Reopened == NULL)
      continue;
    buildQueries(&Tenants[T], Probs, Features);
    for (I = 0; I < QUERY_ROWS; ++I) {
      double WantCred = -1.0, WantConf = -1.0, Cred = -2.0, Conf = -2.0;
      int Want = prom_should_reject(Tenants[T].Dedicated,
                                    Probs + I * Tenants[T].NumClasses,
                                    Features + I * Tenants[T].FeatureDim,
                                    &WantCred, &WantConf);
      int Got = prom_should_reject(Reopened, Probs + I * Tenants[T].NumClasses,
                                   Features + I * Tenants[T].FeatureDim, &Cred,
                                   &Conf);
      CHECK(Want >= 0);
      CHECK(Got == Want);
      CHECK(sameBits(Cred, WantCred));
      CHECK(sameBits(Conf, WantConf));
      if (Want == 1)
        SawReject = 1;
      if (Want == 0)
        SawAccept = 1;
    }
    prom_destroy(Reopened);
  }
  /* The query mix must actually exercise both verdicts or the bit
   * comparisons above prove nothing. */
  CHECK(SawReject == 1);
  CHECK(SawAccept == 1);

  /* Error paths stay errors. */
  CHECK(prom_fleet_assess(F, "ghost", NULL, NULL, NULL, NULL) == -1);
  CHECK(prom_fleet_save(F, "ghost") != 0);
  CHECK(prom_fleet_evict(F, "ghost") != 0);
  CHECK(prom_fleet_is_loaded(F, "ghost") == 0);

  prom_fleet_destroy(F);
  for (T = 0; T < 2; ++T)
    prom_destroy(Tenants[T].Dedicated);

  if (Failures == 0) {
    printf("CApiFleetTest: all checks passed\n");
    return 0;
  }
  fprintf(stderr, "CApiFleetTest: %d check(s) failed\n", Failures);
  return 1;
}
