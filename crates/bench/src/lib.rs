//! Evaluation harness: regenerates every table and figure of the paper.
//!
//! The paper's evaluation (§4) consists of Figure 6 — relative speedup
//! `T1·N/TN` for XSBench, RSBench, AMGmk and Page-Rank at thread limits 32
//! and 1024, N ∈ {1, 2, 4, 8, 16, 32, 64} — plus the §4.2 configuration
//! table. [`run_figure6_panel`] produces one panel; the `figure6` binary
//! prints both and writes machine-readable JSON next to `EXPERIMENTS.md`.

use dgc_apps::app_by_name;
use dgc_core::{run_ensemble_traced, EnsembleOptions, HostApp, SpeedupSeries};
use dgc_obs::{InstanceMetrics, MonitorSink, Recorder};
use gpu_arch::GpuSpec;
use gpu_sim::Gpu;
use host_rpc::HostServices;
use serde::Serialize;
use std::sync::Arc;

/// Instance counts of the paper's sweep.
pub const INSTANCE_COUNTS: [u32; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Our extension past the paper's 64-instance cap (§4.2 stopped there for
/// memory reasons; XSBench/RSBench/AMGmk still fit at 128 on 40 GB).
pub const EXTENDED_INSTANCE_COUNTS: [u32; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

/// Look up a simulated device by short name. Delegates to the
/// `gpu-arch` registry, so one table serves every harness: plain names
/// (`a100`, `v100`, `mi210`) and derated variants (`a100*0.5`) both
/// resolve.
pub fn device_by_name(name: &str) -> Option<GpuSpec> {
    let reg = gpu_arch::DeviceRegistry::parse(name).ok()?;
    if reg.len() != 1 {
        return None;
    }
    reg.devices.into_iter().next()
}

/// The two thread limits of Figure 6.
pub const THREAD_LIMITS: [u32; 2] = [32, 1024];

/// A benchmark plus the workload arguments the harness sweeps with.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub args: Vec<String>,
}

impl Workload {
    fn new(name: &'static str, args: &[&str]) -> Self {
        Self {
            name,
            args: args.iter().map(|s| s.to_string()).collect(),
        }
    }

    pub fn app(&self) -> HostApp {
        app_by_name(self.name).expect("workload names match the registry")
    }
}

/// The four workloads at the harness's default (scaled) sizes. The paper
/// runs each benchmark's default problem; these are the scaled stand-ins
/// (see `dgc_apps::calibration`).
pub fn default_workloads() -> Vec<Workload> {
    vec![
        Workload::new("xsbench", &["-l", "500", "-g", "32"]),
        Workload::new("rsbench", &["-l", "400", "-w", "20", "-p", "2"]),
        Workload::new("amgmk", &["-n", "10", "-s", "10"]),
        Workload::new("pagerank", &["-v", "3000", "-d", "10", "-i", "5"]),
    ]
}

/// Smaller workloads for quick runs and CI.
pub fn smoke_workloads() -> Vec<Workload> {
    vec![
        Workload::new("xsbench", &["-l", "60", "-g", "16"]),
        Workload::new("rsbench", &["-l", "60", "-w", "8", "-p", "2"]),
        Workload::new("amgmk", &["-n", "6", "-s", "4"]),
        Workload::new("pagerank", &["-v", "500", "-d", "6", "-i", "3"]),
    ]
}

/// One measured configuration with its per-instance metrics, as exported
/// by the `figure6` binary's `--metrics-out` JSONL stream.
#[derive(Debug, Clone, Serialize)]
pub struct MeasuredConfig {
    pub benchmark: String,
    pub device: String,
    pub thread_limit: u32,
    pub instances: u32,
    /// Kernel time `TN`, or `None` when the configuration hit device OOM
    /// (the paper's "not runnable").
    pub time_s: Option<f64>,
    pub metrics: Vec<InstanceMetrics>,
}

/// Run one ensemble configuration on a fresh `spec` device and measure
/// its kernel time (`TN`, `None` if any instance hit device OOM — the
/// paper's "not runnable") with its per-instance metrics. An optional
/// live `monitor` sink is attached for the duration of the run (the
/// `figure6` binary's `--monitor-out`); it is pure observation, so
/// measured times and metrics are bit-identical with and without it.
pub fn measure_config(
    spec: &GpuSpec,
    workload: &Workload,
    instances: u32,
    thread_limit: u32,
    monitor: Option<&Arc<dyn MonitorSink>>,
) -> MeasuredConfig {
    let mut gpu = Gpu::new(spec.clone());
    let opts = EnsembleOptions {
        num_instances: instances,
        thread_limit,
        // The harness replicates one argument line across all instances
        // (the paper's homogeneous sweep), so cycling is intentional.
        cycle_args: true,
        ..Default::default()
    };
    let app = workload.app();
    let services = HostServices::default();
    let mut obs = Recorder::disabled();
    if let Some(m) = monitor {
        obs.set_monitor(m.clone());
    }
    let res = run_ensemble_traced(
        &mut gpu,
        &app,
        std::slice::from_ref(&workload.args),
        &opts,
        services,
        &mut obs,
    )
    .expect("harness configurations are launchable");
    let time_s = if res.any_oom() {
        None
    } else {
        for (i, inst) in res.instances.iter().enumerate() {
            assert!(
                inst.succeeded(),
                "{} instance {i} failed: {:?}",
                workload.name,
                inst.error
            );
        }
        Some(res.kernel_time_s)
    };
    MeasuredConfig {
        benchmark: workload.name.to_string(),
        device: spec.name.clone(),
        thread_limit,
        instances,
        time_s,
        metrics: res.metrics,
    }
}

/// Sweep one benchmark across `counts` instances at one thread limit on
/// `spec`, returning the speedup series and every measured configuration.
pub fn run_series(
    spec: &GpuSpec,
    workload: &Workload,
    thread_limit: u32,
    counts: &[u32],
    monitor: Option<&Arc<dyn MonitorSink>>,
) -> (SpeedupSeries, Vec<MeasuredConfig>) {
    let measured: Vec<MeasuredConfig> = counts
        .iter()
        .map(|&n| measure_config(spec, workload, n, thread_limit, monitor))
        .collect();
    let times: Vec<(u32, Option<f64>)> = measured.iter().map(|m| (m.instances, m.time_s)).collect();
    let series = SpeedupSeries::from_times(workload.name, thread_limit, &times)
        .expect("sweeps include a runnable single-instance baseline");
    (series, measured)
}

/// One panel of Figure 6 (all four benchmarks at one thread limit) on
/// `spec`, optionally extending the sweep past the paper's 64-instance
/// cap, with the measured configurations behind every panel cell (for
/// the `--metrics-out` JSONL export).
pub fn run_figure6_panel(
    spec: &GpuSpec,
    thread_limit: u32,
    workloads: &[Workload],
    extended: bool,
    monitor: Option<&Arc<dyn MonitorSink>>,
) -> (Figure6Panel, Vec<MeasuredConfig>) {
    let counts: &[u32] = if extended {
        &EXTENDED_INSTANCE_COUNTS
    } else {
        &INSTANCE_COUNTS
    };
    let mut series = Vec::new();
    let mut measured = Vec::new();
    for w in workloads {
        let (s, m) = run_series(spec, w, thread_limit, counts, monitor);
        series.push(s);
        measured.extend(m);
    }
    let panel = Figure6Panel {
        thread_limit,
        instance_counts: counts.to_vec(),
        series,
    };
    (panel, measured)
}

/// Machine-readable panel, serialized by the `figure6` binary.
#[derive(Debug, Clone, Serialize)]
pub struct Figure6Panel {
    pub thread_limit: u32,
    pub instance_counts: Vec<u32>,
    pub series: Vec<SpeedupSeries>,
}

impl Figure6Panel {
    /// Render the panel as the table the paper's figure plots.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Figure 6 panel — thread limit {}\n{:>10}",
            self.thread_limit, "N"
        ));
        out.push_str(&format!("{:>10}", "Linear"));
        for s in &self.series {
            out.push_str(&format!("{:>10}", s.benchmark));
        }
        out.push('\n');
        for (row, &n) in self.instance_counts.iter().enumerate() {
            out.push_str(&format!("{n:>10}{n:>10}"));
            for s in &self.series {
                match s.points[row].speedup {
                    Some(sp) => out.push_str(&format!("{sp:>10.1}")),
                    None => out.push_str(&format!("{:>10}", "OOM")),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Peak speedup across all benchmarks in this panel (the paper's
    /// headline "up to 51× for 64 instances").
    pub fn peak(&self) -> (String, f64) {
        self.series
            .iter()
            .map(|s| (s.benchmark.clone(), s.peak_speedup()))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("panel has series")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_workloads_measure() {
        let w = &smoke_workloads()[1]; // rsbench, cheap
        let a100 = GpuSpec::a100_40gb();
        let t1 = measure_config(&a100, w, 1, 32, None).time_s.unwrap();
        let t4 = measure_config(&a100, w, 4, 32, None).time_s.unwrap();
        assert!(t1 > 0.0 && t4 > 0.0);
        assert!(t4 < 4.0 * t1);
    }

    #[test]
    fn pagerank_smoke_ooms_at_8() {
        let w = &smoke_workloads()[3];
        let a100 = GpuSpec::a100_40gb();
        assert!(measure_config(&a100, w, 4, 32, None).time_s.is_some());
        assert!(measure_config(&a100, w, 8, 32, None).time_s.is_none());
    }

    #[test]
    fn detailed_measurement_keeps_per_instance_metrics() {
        let w = &smoke_workloads()[1]; // rsbench, cheap
        let m = measure_config(&GpuSpec::a100_40gb(), w, 4, 32, None);
        assert_eq!(m.benchmark, "rsbench");
        assert_eq!(m.instances, 4);
        assert!(m.time_s.is_some());
        assert_eq!(m.metrics.len(), 4);
        for im in &m.metrics {
            assert!(!im.oom && !im.trapped);
            assert!(im.warp_insts > 0.0);
            assert!(im.heap_peak_bytes > 0);
        }
        // OOM configurations still report which instances ran out.
        let pr = &smoke_workloads()[3];
        let oom = measure_config(&GpuSpec::a100_40gb(), pr, 8, 32, None);
        assert!(oom.time_s.is_none());
        assert!(oom.metrics.iter().any(|im| im.oom));
    }

    #[test]
    fn monitored_measurement_is_bit_identical_and_feeds_the_registry() {
        let w = &smoke_workloads()[1]; // rsbench, cheap
        let plain = measure_config(&GpuSpec::a100_40gb(), w, 4, 32, None);
        let reg = std::sync::Arc::new(dgc_monitor::MonitorRegistry::new());
        let sink: Arc<dyn MonitorSink> = reg.clone();
        let mon = measure_config(&GpuSpec::a100_40gb(), w, 4, 32, Some(&sink));
        // Pure observation: the measured configuration serializes to the
        // same bytes with and without the sink attached.
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&mon).unwrap()
        );
        let snap = reg.snapshot();
        assert_eq!(snap.sum("dgc_instances_total", &[]), Some(4.0));
        assert_eq!(snap.sum("dgc_kernel_launches_total", &[]), Some(1.0));
    }

    #[test]
    fn panel_renders_rows() {
        let times: Vec<(u32, Option<f64>)> = INSTANCE_COUNTS
            .iter()
            .map(|&n| (n, Some(1.1 / n as f64)))
            .collect();
        let panel = Figure6Panel {
            thread_limit: 32,
            instance_counts: INSTANCE_COUNTS.to_vec(),
            series: vec![SpeedupSeries::from_times("xsbench", 32, &times).unwrap()],
        };
        let text = panel.render();
        assert!(text.contains("thread limit 32"));
        assert!(text.contains("xsbench"));
        assert_eq!(text.lines().count(), 2 + INSTANCE_COUNTS.len());
    }
}
