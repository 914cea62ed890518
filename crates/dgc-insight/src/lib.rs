//! Post-hoc run analysis for ensemble execution (`dgc-insight`).
//!
//! The layers below this one *record* (dgc-obs spans, metrics,
//! timelines, the causal [`dgc_obs::SpanGraph`]); this crate *explains*:
//!
//! * [`CriticalPath`] — the makespan's causal decomposition. Built from
//!   the in-process span graph its span sum reproduces the
//!   driver-reported makespan **bit-exactly** (same addends, same
//!   association); built from a merged Chrome trace
//!   ([`dgc_obs::SpanGraph::from_chrome_trace`]) it is an approximate
//!   reconstruction.
//! * [`BlameTable`] — "where did the time go", per stall bucket
//!   ([`blame_stalls`]), device lane ([`blame_devices`]) or instance
//!   ([`blame_instances`]); row percentages fold to exactly 100.
//! * [`folded_stacks`] — inferno-compatible flamegraph export;
//!   [`validate_folded`] is its CI smoke check.
//! * [`Ledger`] — the append-only cross-run perf ledger
//!   (`results/ledger.jsonl`): perfbench runs ([`PerfbenchResult`])
//!   stamped with [`git_rev`] and a fingerprint of the workload, with a
//!   trend report and a trailing-median regression gate.
//!
//! The `dgc-insight` binary fronts all of it: `analyze`, `append`,
//! `report`, `check`, `flame-check`, and `trace-check`, which validates
//! a Chrome trace export with [`dgc_obs::validate_chrome_trace`]. It
//! exits 0 on a pass, 1 on a regression or an invalid input, and 2 on a
//! usage or parse error.

mod critical;
mod flame;
mod ledger;
mod provenance;

pub use critical::{
    blame_devices, blame_instances, blame_stalls, gantt, render_report, BlameRow, BlameTable,
    CriticalPath, PathSegment,
};
pub use flame::{folded_stacks, validate_folded};
pub use ledger::{
    iso8601_utc, CheckDelta, Ledger, LedgerCheck, LedgerEntry, LedgerSection, PerfbenchMetric,
    PerfbenchResult, LEDGER_SCHEMA_VERSION,
};
pub use provenance::git_rev;
