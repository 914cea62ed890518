//! The placement cost model: predicted per-instance time per device.
//!
//! The informed policies need `cost(i, d)` — how long instance `i` would
//! take on device `d`. We get it from **pilot runs**: each *distinct*
//! argument line runs once, alone, on a reference device, and the pilot's
//! kernel time plus its roofline classification ([`RooflinePoint`])
//! predict the time on any other device:
//!
//! * compute- or latency-bound pilots scale with the **core clock** —
//!   fewer cycles per second is the only thing a derated device changes
//!   for them;
//! * memory-bandwidth-bound pilots scale with **DRAM bandwidth** — the
//!   roof they sit on.
//!
//! Pilot runs simulate a single instance, so they are cheap relative to
//! the ensemble, and they are *predictions*: the executor never
//! feeds them back into reported times.

use crate::roofline::{BoundClass, RooflinePoint};
use dgc_core::{run_ensemble, EnsembleError, EnsembleOptions, HostApp};
use gpu_arch::GpuSpec;
use gpu_sim::Gpu;
use host_rpc::HostServices;
use std::collections::HashMap;

/// One pilot measurement: the predicted shape of every instance sharing
/// the same argument line.
#[derive(Debug, Clone)]
pub struct InstanceCost {
    /// Pilot kernel time on the reference device, seconds.
    pub seconds_ref: f64,
    /// Roofline classification of the pilot run.
    pub bound: BoundClass,
    /// Peak device-heap bytes the pilot occupied (instance heap plus the
    /// module globals it shares with the rest of the ensemble). Drives
    /// memory-aware packing: the sum of co-resident peaks must fit the
    /// device. Conservative for packed ensembles — globals are counted
    /// once per instance rather than once per device.
    pub peak_mem_bytes: u64,
}

/// Cost model for one ensemble: a pilot per distinct argument line, plus
/// the reference device they ran on.
#[derive(Debug, Clone)]
pub struct InstanceCosts {
    /// Pilot result per instance (instances sharing an argument line
    /// share the measurement).
    per_instance: Vec<InstanceCost>,
    reference: GpuSpec,
}

impl InstanceCosts {
    /// Run one single-instance pilot per distinct argument line on a
    /// fresh device of `reference`'s spec and classify it through the
    /// roofline model. `arg_lines` must already be resolved to one line
    /// per instance (cycled upstream if requested).
    pub fn estimate(
        app: &HostApp,
        arg_lines: &[Vec<String>],
        opts: &EnsembleOptions,
        reference: &GpuSpec,
    ) -> Result<Self, EnsembleError> {
        let mut by_line: HashMap<Vec<String>, InstanceCost> = HashMap::new();
        let mut per_instance = Vec::with_capacity(arg_lines.len());
        for line in arg_lines {
            if let Some(c) = by_line.get(line) {
                per_instance.push(c.clone());
                continue;
            }
            let mut gpu = Gpu::new(reference.clone());
            let pilot_opts = EnsembleOptions {
                num_instances: 1,
                ..opts.clone()
            };
            let res = run_ensemble(
                &mut gpu,
                app,
                std::slice::from_ref(line),
                &pilot_opts,
                HostServices::default(),
            )?;
            let point = RooflinePoint::from_report(reference, &res.report);
            let c = InstanceCost {
                seconds_ref: res.kernel_time_s,
                bound: point.bound,
                peak_mem_bytes: res.heap.peak_bytes.first().copied().unwrap_or(0),
            };
            by_line.insert(line.clone(), c.clone());
            per_instance.push(c);
        }
        Ok(Self {
            per_instance,
            reference: reference.clone(),
        })
    }

    pub fn len(&self) -> usize {
        self.per_instance.len()
    }

    pub fn is_empty(&self) -> bool {
        self.per_instance.is_empty()
    }

    pub fn cost(&self, instance: u32) -> &InstanceCost {
        &self.per_instance[instance as usize]
    }

    /// Predicted seconds of `instance` on a device of spec `target`,
    /// scaling the pilot time by the resource its bound class consumes.
    pub fn cost_on(&self, instance: u32, target: &GpuSpec) -> f64 {
        let c = &self.per_instance[instance as usize];
        let ratio = match c.bound {
            BoundClass::MemoryBw => {
                self.reference.dram_bandwidth_gbps / target.dram_bandwidth_gbps.max(1e-9)
            }
            BoundClass::Compute | BoundClass::Latency => {
                self.reference.clock_hz() / target.clock_hz().max(1.0)
            }
        };
        c.seconds_ref * ratio
    }

    /// Pilot-measured peak heap bytes of `instance`.
    pub fn peak_mem_bytes(&self, instance: u32) -> u64 {
        self.per_instance[instance as usize].peak_mem_bytes
    }
}

/// Serving-wave sizing over predicted per-job costs: the number of jobs
/// a continuous-batching daemon should drain into its next kernel wave.
///
/// Takes the longest prefix of `costs_s` (pilot-predicted seconds per
/// job, queue order) whose cumulative predicted time stays within
/// `budget_s` — a serial-time proxy for wave work that keeps waves small
/// enough to checkpoint often, yet batches cheap jobs aggressively. At
/// least one job is always taken (a single over-budget job must still
/// run), and never more than `max`. Deterministic: a resumed daemon
/// re-forms exactly the waves the crashed one would have.
pub fn wave_take(costs_s: &[f64], budget_s: f64, max: usize) -> usize {
    let cap = costs_s.len().min(max.max(1));
    let mut taken = 0usize;
    let mut spent = 0.0f64;
    for &c in &costs_s[..cap] {
        spent += c.max(0.0);
        if taken > 0 && spent > budget_s {
            break;
        }
        taken += 1;
    }
    taken.max(usize::from(!costs_s.is_empty()))
}

/// Memory-capacity wave sizing: the longest prefix of `peaks` (pilot
/// peak heap bytes per pending job, queue order) whose sum stays within
/// `capacity_bytes`, capped at `max`. At least one job is always taken
/// while any is pending — a single over-capacity job must still launch
/// (and report its OOM) rather than starve the queue. Deterministic,
/// like [`wave_take`]: resumed daemons re-form identical waves.
pub fn mem_cap_take(peaks: &[u64], capacity_bytes: u64, max: usize) -> usize {
    let cap = peaks.len().min(max.max(1));
    let mut taken = 0usize;
    let mut used = 0u64;
    for &p in &peaks[..cap] {
        used = used.saturating_add(p);
        if taken > 0 && used > capacity_bytes {
            break;
        }
        taken += 1;
    }
    taken.max(usize::from(!peaks.is_empty()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgc_core::AppContext;
    use gpu_arch::derate;
    use gpu_sim::{KernelError, TeamCtx};

    const MODULE: &str = r#"
module "cost" {
  func @main arity=2 calls(@malloc, @atoi)
  extern func @malloc
  extern func @atoi
}
"#;

    fn stream_main(team: &mut TeamCtx<'_>, cx: &AppContext) -> Result<i32, KernelError> {
        let n: u64 = cx
            .argv
            .iter()
            .position(|a| a == "-n")
            .and_then(|p| cx.argv.get(p + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(100);
        let buf = team.serial("alloc", |lane| lane.dev_alloc(8 * n))?;
        team.parallel_for("init", n, |i, lane| lane.st_idx::<f64>(buf, i, i as f64))?;
        Ok(0)
    }

    fn app() -> HostApp {
        HostApp::new("cost", MODULE, stream_main)
    }

    fn line(n: u64) -> Vec<String> {
        vec!["-n".into(), n.to_string()]
    }

    #[test]
    fn wave_take_fills_the_budget_without_starving_or_overflowing() {
        // Cheap jobs batch until the budget is spent…
        assert_eq!(wave_take(&[0.1, 0.1, 0.1, 0.1, 0.1], 0.35, 16), 3);
        // …an over-budget first job still runs alone…
        assert_eq!(wave_take(&[5.0, 0.1], 1.0, 16), 1);
        // …the hard cap wins over a generous budget…
        assert_eq!(wave_take(&[0.1; 10], 100.0, 4), 4);
        // …and fewer jobs than the cap takes them all.
        assert_eq!(wave_take(&[0.1, 0.1], 100.0, 16), 2);
        assert_eq!(wave_take(&[], 1.0, 16), 0);
        // A zero cap is treated as 1: a wave can never be empty while
        // jobs are pending.
        assert_eq!(wave_take(&[0.1, 0.1], 100.0, 0), 1);
    }

    #[test]
    fn mem_cap_take_packs_to_capacity_without_starving() {
        // Four 4-byte jobs into a 10-byte device: two fit.
        assert_eq!(mem_cap_take(&[4, 4, 4, 4], 10, 16), 2);
        // An over-capacity first job still launches alone.
        assert_eq!(mem_cap_take(&[64, 1], 10, 16), 1);
        // The hard cap wins over a generous capacity.
        assert_eq!(mem_cap_take(&[1; 10], 1000, 3), 3);
        // Fewer jobs than the cap takes them all; zero-peak jobs all fit.
        assert_eq!(mem_cap_take(&[0, 0, 0], 10, 16), 3);
        assert_eq!(mem_cap_take(&[], 10, 16), 0);
        // A zero cap is treated as 1, like wave_take.
        assert_eq!(mem_cap_take(&[1, 1], 10, 0), 1);
    }

    #[test]
    fn pilots_measure_peak_memory() {
        let spec = GpuSpec::a100_40gb();
        let lines = vec![line(4000), line(500)];
        let costs =
            InstanceCosts::estimate(&app(), &lines, &EnsembleOptions::default(), &spec).unwrap();
        // The pilot allocates 8·n bytes; peaks reflect that (plus globals).
        assert!(
            costs.peak_mem_bytes(0) >= 8 * 4000,
            "{}",
            costs.peak_mem_bytes(0)
        );
        assert!(costs.peak_mem_bytes(0) > costs.peak_mem_bytes(1));
        // Capacity packing: with room for exactly one big pilot footprint,
        // only the first instance fits the wave.
        let cap = costs.peak_mem_bytes(0) + costs.peak_mem_bytes(1) / 2;
        let peaks = [costs.peak_mem_bytes(0), costs.peak_mem_bytes(1)];
        assert_eq!(mem_cap_take(&peaks, cap, 2), 1);
        assert_eq!(mem_cap_take(&peaks, u64::MAX, 2), 2);
    }

    #[test]
    fn pilots_deduplicate_by_argument_line() {
        let spec = GpuSpec::a100_40gb();
        let lines = vec![line(4000), line(500), line(4000), line(500)];
        let costs =
            InstanceCosts::estimate(&app(), &lines, &EnsembleOptions::default(), &spec).unwrap();
        assert_eq!(costs.len(), 4);
        // Identical lines share the exact measurement.
        assert_eq!(costs.cost(0).seconds_ref, costs.cost(2).seconds_ref);
        assert_eq!(costs.cost(1).seconds_ref, costs.cost(3).seconds_ref);
        // The 8× bigger stream costs more.
        assert!(costs.cost(0).seconds_ref > costs.cost(1).seconds_ref);
    }

    #[test]
    fn derated_device_predicts_proportionally_slower() {
        let spec = GpuSpec::a100_40gb();
        let half = derate(&spec, 0.5);
        let lines = vec![line(2000)];
        let costs =
            InstanceCosts::estimate(&app(), &lines, &EnsembleOptions::default(), &spec).unwrap();
        let on_full = costs.cost_on(0, &spec);
        let on_half = costs.cost_on(0, &half);
        // Uniform derating scales clock and bandwidth together, so every
        // bound class predicts ~2× on the half-speed part.
        assert!(
            (on_half / on_full - 2.0).abs() < 0.05,
            "{on_half}/{on_full}"
        );
        // On the reference itself the prediction is the pilot time.
        assert_eq!(on_full, costs.cost(0).seconds_ref);
    }
}
