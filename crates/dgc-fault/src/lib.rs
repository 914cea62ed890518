//! Fault injection, recovery and the ensemble executor.
//!
//! The paper's ensemble loader packs `NI` application instances into one
//! kernel — which also packs `NI` failure domains into one launch: a trap,
//! a device OOM or a hung team takes the whole ensemble's result quality
//! with it. This crate makes those failures **first-class, deterministic
//! and recoverable**:
//!
//! * [`FaultPlan`] — a seeded, JSON-serializable description of what to
//!   break: per-team traps, forced device OOM above a concurrency
//!   threshold (the §4.3 Page-Rank memory wall, reproducible on demand),
//!   hung instances, failed or corrupted RPC round trips, whole devices
//!   dying. The same plan against the same workload replays bit-for-bit;
//!   an *empty* plan is pure bookkeeping and perturbs nothing.
//! * [`run_ensemble_sharded_resilient_mem_aware`] — the one multi-launch
//!   executor: recovery rounds × live devices × capacity-capped chunks.
//!   Failed instances re-launch in follow-up rounds with exponential
//!   backoff in simulated time, device OOM halves the concurrent batch
//!   ([`RecoveryPolicy::oom_split`]), a watchdog cycle budget reaps hung
//!   instances without killing their launch, and dead devices re-shard
//!   their instances onto the survivors. Batched and multi-device runs
//!   without recovery are the same call with an empty plan and
//!   `max_attempts: 1`.
//! * [`RecoveryStats`] / [`ShardedResilientResult::launch_metrics`] — the
//!   recovery story (attempts, retries, recoveries, splits, backoff)
//!   rolled into the metrics record and the Chrome trace.

mod executor;
mod plan;
mod policy;

pub use executor::{run_ensemble_sharded_resilient_mem_aware, ShardedResilientResult};
pub use plan::{DeviceDeath, FaultKind, FaultPlan, FaultSpec};
pub use policy::{RecoveryPolicy, RecoveryStats};
