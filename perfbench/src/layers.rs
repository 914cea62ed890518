//! The per-layer metrics of the traced run, named after the repository's
//! modules. Each is reported on every workload; a layer the workload does
//! not exercise, or whose work stays opaque to outside probes there, reads
//! 0. `perfbench/README.md` lists which end-to-end metric each one should
//! move, on which workload.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host seconds. The shares (every `_s` metric) partition the traced
    /// pass's wall time: their sum must match it within a few percent.
    Share,
    /// Deterministic: must repeat exactly across passes of one seed, and
    /// is recorded per input variant in `baseline.json`.
    Exact,
    /// Derived from host times; varies from run to run.
    Host,
}

/// (name, unit, kind) of every per-layer metric, in report order.
pub const METRICS: &[(&str, &str, Kind)] = &[
    ("frontend.launches", "count", Kind::Exact),
    ("frontend.compile_s", "s", Kind::Share),
    ("gpu-sim.functional_s", "s", Kind::Share),
    ("gpu-sim.teams", "count", Kind::Exact),
    ("gpu-sim.warp_insts", "count", Kind::Exact),
    ("gpu-sim.sectors", "count", Kind::Exact),
    ("gpu-sim.ns_per_warp_inst", "ns", Kind::Host),
    ("gpu-sim.timing_s", "s", Kind::Share),
    ("gpu-sim.blocks", "count", Kind::Exact),
    ("gpu-sim.waves", "count", Kind::Exact),
    ("gpu-mem.allocs", "count", Kind::Exact),
    ("gpu-mem.recycled", "count", Kind::Exact),
    ("gpu-mem.recycle_ratio", "ratio", Kind::Exact),
    ("gpu-mem.fallbacks", "count", Kind::Exact),
    ("gpu-mem.peak_bytes", "B", Kind::Exact),
    ("host-rpc.calls", "count", Kind::Exact),
    ("host-rpc.errors", "count", Kind::Exact),
    ("core.other_s", "s", Kind::Share),
    ("dgc-sched.pilot_runs", "count", Kind::Exact),
    ("dgc-sched.pilot_s", "s", Kind::Share),
    ("dgc-sched.pilot_hit_ratio", "ratio", Kind::Exact),
    ("dgc-sched.device_imbalance", "ratio", Kind::Exact),
    ("dgc-sched.host_overlap", "ratio", Kind::Host),
    ("dgc-fault.rounds", "count", Kind::Exact),
    ("dgc-fault.retried", "count", Kind::Exact),
    ("dgc-fault.recovered", "count", Kind::Exact),
    ("dgc-fault.unrecovered", "count", Kind::Exact),
    ("dgc-fault.relaunch_ratio", "ratio", Kind::Exact),
    ("dgc-obs.export_s", "s", Kind::Share),
    ("dgc-obs.trace_events", "count", Kind::Exact),
    ("dgc-obs.export_bytes", "B", Kind::Exact),
    ("dgc-serve.admit_s", "s", Kind::Share),
    ("dgc-serve.wave_s", "s", Kind::Share),
    ("dgc-serve.waves", "count", Kind::Exact),
    ("dgc-serve.jobs_per_wave", "ratio", Kind::Exact),
    ("dgc-serve.journal_bytes", "B", Kind::Exact),
    ("trace_overhead", "ratio", Kind::Host),
];

/// Per-layer values of one traced pass, keyed by metric name. Missing
/// names read 0.
#[derive(Debug, Clone, Default)]
pub struct Layers(pub BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(METRICS.iter().any(|m| m.0 == name), "unknown metric {name}");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Close the partition: `core.other_s` takes the traced wall time no
    /// other share accounts for, and the derived ratios are filled in.
    pub fn finish(&mut self, wall_s: f64) {
        let attributed: f64 = METRICS
            .iter()
            .filter(|m| m.2 == Kind::Share && m.0 != "core.other_s")
            .map(|m| self.get(m.0))
            .sum();
        self.set("core.other_s", wall_s - attributed);
        let insts = self.get("gpu-sim.warp_insts");
        if insts > 0.0 {
            self.set(
                "gpu-sim.ns_per_warp_inst",
                self.get("gpu-sim.functional_s") * 1e9 / insts,
            );
        }
        let allocs = self.get("gpu-mem.allocs");
        if allocs > 0.0 {
            self.set(
                "gpu-mem.recycle_ratio",
                self.get("gpu-mem.recycled") / allocs,
            );
        }
        // The drivers measured here run their devices one after another on
        // one thread, so the per-device functional times sum to the
        // functional share; device threads would push this above it.
        self.set(
            "dgc-sched.host_overlap",
            self.get("gpu-sim.functional_s") / wall_s,
        );
    }

    /// Sum of the shares: equals the traced wall time by construction
    /// unless some attributed estimate overran the time it was carved
    /// from (then `core.other_s` went negative).
    pub fn shares_sum(&self) -> f64 {
        METRICS
            .iter()
            .filter(|m| m.2 == Kind::Share)
            .map(|m| self.get(m.0))
            .sum()
    }
}
