//! Canonical metric keys used across the workspace.
//!
//! Keys are dotted paths, `<crate>.<subsystem>.<quantity>`. Counters count
//! events; histogram keys ending in `_seconds` hold wall-time observations
//! in seconds, and keys ending in `_per_sec` hold throughput observations.
//! The full catalogue (with units and producers) is documented in
//! `docs/observability.md`.
//!
//! This file doubles as the machine-readable key registry: the
//! `metrics-key-registry` lint (`cargo xtask lint`) indexes every
//! `pub const NAME: &str` here and rejects recorder calls elsewhere in
//! the workspace whose key literal is neither declared below nor under
//! a `*_PREFIX` constant. Add the constant first, then use it.

/// Newton iterations executed by the SPICE solver (converged or not).
pub const SPICE_NEWTON_ITERATIONS: &str = "spice.newton.iterations";
/// Newton solves attempted (each may take many iterations).
pub const SPICE_NEWTON_SOLVES: &str = "spice.newton.solves";
/// Newton solves that failed to converge (before any recovery rung).
pub const SPICE_NEWTON_FAILURES: &str = "spice.newton.failures";
/// Newton solves aborted by a cooperative cancellation token (explicit
/// cancel or expired deadline).
pub const SPICE_NEWTON_CANCELLED: &str = "spice.newton.cancelled";
/// Prefix for recovery-ladder rung attempts; the rung's display name and
/// outcome are appended, e.g. `spice.recovery.rung.gmin-stepping.ok`.
pub const SPICE_RECOVERY_RUNG_PREFIX: &str = "spice.recovery.rung.";
/// DC operating-point solves seeded from a previously solved state
/// (Monte-Carlo warm starts).
pub const SPICE_NEWTON_WARM_STARTS: &str = "spice.newton.warm_starts";
/// Newton iterations spent inside warm-started DC solves — compare with
/// the cold-start iteration cost to read off the warm-start saving.
pub const SPICE_NEWTON_WARM_ITERATIONS: &str = "spice.newton.warm_start_iterations";
/// Linear solves served by the structure-exploiting fixed-pattern LU.
pub const SPICE_LU_STRUCTURED: &str = "spice.newton.lu_structured";
/// Linear solves that fell back to dense partial-pivot LU because the
/// frozen pivot order failed the stability guard.
pub const SPICE_LU_DENSE_FALLBACKS: &str = "spice.newton.lu_dense_fallbacks";
/// Newton iterations served by a retained Jacobian factorization
/// (quasi-Newton chord steps: RHS restamped, no refactorization).
pub const SPICE_NEWTON_JACOBIAN_REUSES: &str = "spice.newton.jacobian_reuses";
/// Newton iterations that stamped and factored a fresh Jacobian (the
/// complement of `jacobian_reuses`; together they sum to `iterations`).
pub const SPICE_NEWTON_REFACTORIZATIONS: &str = "spice.newton.refactorizations";
/// Transient steps on which the LTE controller doubled the settle-phase
/// timestep because the BE truncation-error estimate permitted it.
pub const SPICE_TRANSIENT_LTE_STEP_GROWTHS: &str = "spice.transient.lte_step_growths";

/// Retired: FinFET model evaluations of the removed structure-of-arrays
/// batch path. Nothing emits it any more, so it always reads 0; the
/// constant stays because the end-to-end benchmark still reports it.
pub const FINFET_MODEL_BATCHED_EVALS: &str = "finfet.model.batched_evals";

/// Critical-charge bisection/bracketing transient evaluations.
pub const SRAM_BISECTION_STEPS: &str = "sram.characterize.bisection_steps";
/// Pre-strike DC operating points answered from the per-(vdd, deltas)
/// cache instead of a fresh recovery-ladder solve.
pub const SRAM_DCOP_CACHE_HITS: &str = "sram.characterize.dcop_cache_hits";
/// Pre-strike DC operating points that missed the cache and were solved.
pub const SRAM_DCOP_CACHE_MISSES: &str = "sram.characterize.dcop_cache_misses";
/// Strike transients stopped at a decided verdict (past the pulse window,
/// |margin| > ½ with both storage nodes within 50 mV of a rail) instead
/// of running the full settle.
pub const SRAM_SETTLE_EARLY_EXITS: &str = "sram.characterize.settle_early_exits";
/// Variation samples, pilot samples included, whose fine walk could not
/// close its bracket near its centre and fell back to the lattice search.
pub const SRAM_SURROGATE_FALLBACKS: &str = "sram.characterize.surrogate_fallbacks";
/// Strike combos characterized.
pub const SRAM_COMBOS: &str = "sram.characterize.combos";
/// Wall time per characterized combo, seconds.
pub const SRAM_COMBO_SECONDS: &str = "sram.characterize.combo_seconds";

/// Wall time of one device-level e-h pair LUT build, seconds.
pub const TRANSPORT_LUT_BUILD_SECONDS: &str = "transport.lut.build_seconds";
/// Fin traversals simulated by LUT builds (added once per build: energy
/// points × samples per point).
pub const TRANSPORT_LUT_TRAVERSALS: &str = "transport.lut.traversals";

/// Array-level strike-MC iterations executed.
pub const STRIKE_ITERATIONS: &str = "core.strike.iterations";
/// Strike-MC iterations rejected by the accumulator NaN quarantine.
pub const STRIKE_QUARANTINED: &str = "core.strike.quarantined";
/// Wall time of one `StrikeSimulator::estimate` call, seconds.
pub const STRIKE_ESTIMATE_SECONDS: &str = "core.strike.estimate_seconds";
/// Strike-MC throughput of one estimate call, iterations/second.
pub const STRIKE_ITERS_PER_SEC: &str = "core.strike.iters_per_sec";
/// `Expected` flip-probability blocks of variation-table samples taken
/// from their bounded Taylor expansion.
pub const STRIKE_EXCEEDANCE_BLOCKS_EXPANDED: &str = "core.strike.exceedance_blocks_expanded";
/// `Expected` flip-probability terms summed one sample at a time: short
/// curves, blocks whose error bound failed, and the block straddling the
/// kinematic cap.
pub const STRIKE_EXCEEDANCE_TERMS_EXACT: &str = "core.strike.exceedance_terms_exact";

/// Wall time per campaign energy bin, seconds.
pub const CAMPAIGN_BIN_SECONDS: &str = "core.campaign.bin_seconds";
/// Campaign energy bins that completed.
pub const CAMPAIGN_BINS_OK: &str = "core.campaign.bins_ok";
/// Campaign energy bins that failed (degraded coverage).
pub const CAMPAIGN_BINS_FAILED: &str = "core.campaign.bins_failed";

/// Campaign-service jobs accepted by `submit` (cache hits included).
pub const SERVICE_JOBS_SUBMITTED: &str = "core.service.jobs_submitted";
/// Campaign-service jobs that completed with a report.
pub const SERVICE_JOBS_COMPLETED: &str = "core.service.jobs_completed";
/// Campaign-service jobs that terminated with a typed error.
pub const SERVICE_JOBS_FAILED: &str = "core.service.jobs_failed";
/// Submissions answered from the fingerprint-keyed result cache.
pub const SERVICE_CACHE_HITS: &str = "core.service.cache_hits";
/// Submissions that missed the result cache and were scheduled.
pub const SERVICE_CACHE_MISSES: &str = "core.service.cache_misses";
/// Submissions coalesced onto an identical already-running job.
pub const SERVICE_JOBS_COALESCED: &str = "core.service.jobs_coalesced";
/// Bin executions re-queued after a supervised worker panic.
pub const SERVICE_BIN_RETRIES: &str = "core.service.bin_retries";
/// Bins quarantined to the dead-letter list after retry exhaustion.
pub const SERVICE_BINS_QUARANTINED: &str = "core.service.bins_quarantined";
/// Work items a worker stole from another worker's queue.
pub const SERVICE_QUEUE_STEALS: &str = "core.service.queue_steals";
/// Jobs aborted because their wall-clock deadline expired.
pub const SERVICE_DEADLINE_CANCELLATIONS: &str = "core.service.deadline_cancellations";
/// Partial checkpoints flushed during a graceful drain/shutdown.
pub const SERVICE_DRAIN_FLUSHES: &str = "core.service.drain_flushes";
/// Total queued work items observed at each enqueue (queue-depth gauge,
/// recorded as a histogram so the trajectory captures min/mean/max depth).
pub const SERVICE_QUEUE_DEPTH: &str = "core.service.queue_depth";
/// Wall time from job submission to its terminal state, seconds.
pub const SERVICE_JOB_SECONDS: &str = "core.service.job_seconds";
/// Queue throughput of one completed job, energy bins per second.
pub const SERVICE_BINS_PER_SEC: &str = "core.service.bins_per_sec";
