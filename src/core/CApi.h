/*===- core/CApi.h - C ABI for non-C++ integration ------------------*- C -*-===
 *
 * Part of the PROM reproduction. Distributed under the MIT license.
 *
 *===----------------------------------------------------------------------===*/
/**
 * \file
 * A stable C ABI mirroring the paper's Sec. 8 integration story: "for
 * C/C++ code, Prom provides a [pybind11] API to take the probabilistic
 * vector of the model prediction as input and returns a boolean value to
 * suggest whether the prediction should be accepted".
 *
 * The host keeps its own model and hands PROM only the model's outputs:
 * every calibration row and every query is a (probability vector,
 * feature/embedding vector) pair. Behind the boundary those pairs drive
 * the full C++ detector stack — committee calibration with temperature
 * softening, batched assessment, checksummed snapshot rotation, and the
 * multi-tenant fleet registry — so a verdict through this ABI is
 * bit-identical to the same query through the C++ PromClassifier over
 * the same outputs. No C++ types cross the boundary; the header compiles
 * as strict C99, so any FFI (a compiler pass, a JIT runtime, a Fortran
 * harness) can drive PROM.
 *
 * Two handle families:
 *  - prom_detector: one detector. Create, feed calibration rows,
 *    finalize, assess (single or batched), save to / open from a
 *    snapshot rotation directory.
 *  - prom_fleet: a multi-tenant detector fleet under one memory budget
 *    (serve::DetectorRegistry). Register tenants keyed by model id,
 *    install calibrated detectors or lazy-load them from their snapshot
 *    directories, assess per tenant, evict cold tenants (snapshot saved
 *    first, reloaded bit-identically on the next assess).
 *
 * Thread safety: prom_fleet_* calls may run concurrently on one fleet;
 * a single prom_detector must be externally serialized (assessment
 * calls on a finalized detector may run concurrently).
 */

#ifndef PROM_CORE_CAPI_H
#define PROM_CORE_CAPI_H

#include <stddef.h>

#ifdef __cplusplus
extern "C" {
#endif

/** Opaque drift-detector handle. */
typedef struct prom_detector prom_detector;

/** Opaque multi-tenant detector-fleet handle. */
typedef struct prom_fleet prom_fleet;

/*===----------------------------------------------------------------------===
 * Single-detector lifecycle
 *===----------------------------------------------------------------------===*/

/**
 * Creates a detector for \p num_classes classes whose feature vectors
 * have \p feature_dim entries. \p epsilon is the significance level: pass
 * 0 for the default (0.1); any other value must lie in (0, 1). Returns
 * NULL on invalid arguments — including a non-zero out-of-range epsilon,
 * which earlier revisions silently replaced with the default.
 */
prom_detector *prom_create(int num_classes, int feature_dim,
                           double epsilon);

/**
 * Opens a detector from the newest valid snapshot generation in
 * directory \p snapshot_dir (as written by prom_save() or a fleet
 * eviction). \p num_classes / \p feature_dim / \p epsilon must match the
 * saved detector's layout; validation rules are prom_create()'s. The
 * restored detector produces verdicts bit-identical to the one that
 * saved. Returns NULL on invalid arguments or when no snapshot loads.
 */
prom_detector *prom_open(int num_classes, int feature_dim, double epsilon,
                         const char *snapshot_dir);

/**
 * Registers one calibration sample: the model's probability vector
 * (length num_classes), its feature/embedding vector (length
 * feature_dim) and the true label. Returns 0 on success, -1 on error
 * (NULL arguments, out-of-range label, a NaN or infinite value, or
 * already finalized); a refused row is not registered.
 */
int prom_add_calibration(prom_detector *d, const double *probabilities,
                         const double *features, int label);

/**
 * Finalizes calibration (computes nonconformity scores, fits the
 * softening temperature, builds the calibration store). Must be called
 * after the last prom_add_calibration and before the first query.
 * Returns 0 on success, -1 with too few samples (< 4). Calling it again
 * on an already-finalized detector is a defined no-op returning 0 —
 * earlier revisions re-finalized, corrupting the score state.
 */
int prom_finalize(prom_detector *d);

/**
 * Assesses one deployment input. Returns 1 when the prediction should be
 * REJECTED (drift suspected), 0 when it can be accepted, -1 on error.
 * When non-NULL, \p credibility_out and \p confidence_out receive the
 * committee-mean scores. An input holding a NaN or infinity fails
 * closed: it never reaches the detector and returns 1 with credibility
 * and confidence 0.
 */
int prom_should_reject(const prom_detector *d, const double *probabilities,
                       const double *features, double *credibility_out,
                       double *confidence_out);

/**
 * Batched prom_should_reject() over \p n inputs: \p probabilities holds
 * n*num_classes values row-major, \p features n*feature_dim values.
 * Element i of \p reject_out (required) receives the verdict flag;
 * \p credibility_out / \p confidence_out (each optional) receive the
 * committee-mean scores. Element i is bit-identical to the corresponding
 * single-input call (non-finite rows included). Returns 0 on success, -1 on error (nothing written).
 */
int prom_assess_batch(const prom_detector *d, size_t n,
                      const double *probabilities, const double *features,
                      int *reject_out, double *credibility_out,
                      double *confidence_out);

/**
 * Rotates a new snapshot generation of the finalized detector into
 * directory \p snapshot_dir (created if missing; the `latest` pointer is
 * committed atomically and old generations are pruned). Returns 0 on
 * success, -1 on error.
 */
int prom_save(const prom_detector *d, const char *snapshot_dir);

/**
 * The committee's predicted label for the given probability vector
 * (argmax; provided so hosts need not duplicate the tie-breaking).
 */
int prom_predicted_label(const prom_detector *d,
                         const double *probabilities);

/** Destroys the detector. NULL is allowed. */
void prom_destroy(prom_detector *d);

/*===----------------------------------------------------------------------===
 * Multi-tenant fleet
 *===----------------------------------------------------------------------===*/

/**
 * Creates an empty detector fleet. \p memory_budget_bytes bounds the
 * summed in-memory footprint of loaded detectors (0 = unbounded); past
 * it, least-recently-used unpinned tenants are evicted — snapshot saved
 * first, lazily reloaded bit-identically on their next assessment.
 */
prom_fleet *prom_fleet_create(size_t memory_budget_bytes);

/**
 * Registers tenant \p tenant (a model id; non-empty) for
 * \p num_classes-way predictions over \p feature_dim-dimensional
 * features. \p epsilon follows prom_create()'s rules. \p snapshot_dir
 * (optional; NULL or "" disables persistence) is the tenant's snapshot
 * rotation directory: assessments lazily load from it when the tenant is
 * not in memory, and evictions save into it. A persistence-disabled
 * tenant is never evicted. Returns 0 on success, -1 on invalid arguments
 * or a duplicate id.
 */
int prom_fleet_register(prom_fleet *f, const char *tenant, int num_classes,
                        int feature_dim, double epsilon,
                        const char *snapshot_dir);

/**
 * Installs finalized detector \p d as tenant \p tenant's detector (the
 * first-boot path, before any snapshot exists). The detector's layout
 * must match the tenant's registration. On success the fleet consumes
 * the handle — \p d must not be used or destroyed afterwards — and
 * returns 0. On failure (unknown tenant, layout mismatch, tenant already
 * in memory, unfinalized detector) returns -1 and \p d remains valid and
 * owned by the caller.
 */
int prom_fleet_install(prom_fleet *f, const char *tenant, prom_detector *d);

/**
 * Assesses one input under tenant \p tenant, lazily loading the
 * tenant's detector from its snapshot directory if it is not in memory.
 * Semantics and returns are prom_should_reject()'s, plus -1 when the
 * tenant is unknown or cannot be loaded.
 */
int prom_fleet_assess(prom_fleet *f, const char *tenant,
                      const double *probabilities, const double *features,
                      double *credibility_out, double *confidence_out);

/**
 * Batched prom_fleet_assess(): prom_assess_batch() under tenant
 * \p tenant's detector, loading it if needed. The whole batch is
 * assessed under one pin, so it cannot race an eviction. Returns 0 on
 * success, -1 on error (nothing written).
 */
int prom_fleet_assess_batch(prom_fleet *f, const char *tenant, size_t n,
                            const double *probabilities,
                            const double *features, int *reject_out,
                            double *credibility_out, double *confidence_out);

/**
 * Rotates a snapshot generation for loaded tenant \p tenant now (the
 * manual durability point; evictions snapshot implicitly). Returns 0 on
 * success, -1 for an unknown/cold/persistence-disabled tenant or an I/O
 * failure.
 */
int prom_fleet_save(prom_fleet *f, const char *tenant);

/**
 * Saves and unloads tenant \p tenant's detector. The next assessment
 * reloads it from the saved snapshot with bit-identical verdicts.
 * Returns 0 on success, -1 for an unknown/cold/pinned tenant or when
 * the snapshot save fails (the detector then stays loaded — eviction
 * never discards unsaved state).
 */
int prom_fleet_evict(prom_fleet *f, const char *tenant);

/** Returns 1 while tenant \p tenant's detector is in memory, else 0. */
int prom_fleet_is_loaded(prom_fleet *f, const char *tenant);

/** Summed in-memory footprint estimate of the loaded detectors. */
size_t prom_fleet_memory_bytes(prom_fleet *f);

/** Destroys the fleet and every detector it owns. NULL is allowed. */
void prom_fleet_destroy(prom_fleet *f);

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* PROM_CORE_CAPI_H */
