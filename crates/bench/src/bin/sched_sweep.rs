//! Multi-device ensemble sweep: makespan per placement policy across a
//! (possibly heterogeneous) simulated fleet — the multi-GPU counterpart
//! of the `figure6` sweep.
//!
//! ```text
//! cargo run --release -p dgc-bench --bin sched_sweep
//! cargo run --release -p dgc-bench --bin sched_sweep -- --smoke
//! cargo run --release -p dgc-bench --bin sched_sweep -- --devices "a100,a100*0.5"
//! cargo run --release -p dgc-bench --bin sched_sweep -- --metrics-out sched.jsonl
//! ```
//!
//! For every workload × instance count × placement policy the sweep runs
//! one sharded launch and reports the makespan (slowest device). The
//! `--metrics-out` JSONL stream reuses the `figure6` configuration record
//! with the benchmark key extended to `name/d<M>/<placement>`.

use dgc_bench::{default_workloads, smoke_workloads, MeasuredConfig, Workload};
use dgc_core::EnsembleOptions;
use dgc_fault::{run_ensemble_sharded_resilient_mem_aware, FaultPlan, RecoveryPolicy};
use dgc_obs::Recorder;
use dgc_sched::Placement;
use gpu_arch::DeviceRegistry;
use gpu_sim::DeviceFleet;

fn sweep_one(
    workload: &Workload,
    registry: &DeviceRegistry,
    fleet_name: &str,
    instances: u32,
    thread_limit: u32,
    placement: Placement,
) -> MeasuredConfig {
    let mut fleet = DeviceFleet::from_registry(registry);
    let opts = EnsembleOptions {
        num_instances: instances,
        thread_limit,
        // One argument line replicated across instances (the paper's
        // homogeneous sweep), so cycling is intentional.
        cycle_args: true,
        ..Default::default()
    };
    let no_recovery = RecoveryPolicy {
        max_attempts: 1,
        oom_split: false,
        ..RecoveryPolicy::default()
    };
    let res = run_ensemble_sharded_resilient_mem_aware(
        &mut fleet,
        &workload.app(),
        std::slice::from_ref(&workload.args),
        &opts,
        0,
        placement,
        &FaultPlan::default(),
        &no_recovery,
        &mut Recorder::disabled(),
        false,
    )
    .expect("sweep configurations are launchable");
    let oom = res.ensemble.instances.iter().any(|o| o.oom);
    MeasuredConfig {
        benchmark: format!("{}/d{}/{}", workload.name, registry.len(), placement.name()),
        device: fleet_name.to_string(),
        thread_limit,
        instances,
        time_s: if oom {
            None
        } else {
            Some(res.ensemble.total_time_s)
        },
        metrics: res.ensemble.metrics,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut devices = "a100,a100*0.5".to_string();
    let mut thread_limit = 32u32;
    let mut metrics_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--devices" => devices = it.next().expect("--devices needs a spec").clone(),
            "--thread-limit" => {
                let v = it.next().expect("--thread-limit needs a value");
                thread_limit = v.parse().expect("thread limit must be a number");
            }
            "--metrics-out" => {
                metrics_path = Some(it.next().expect("--metrics-out needs a path").clone());
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    let registry = DeviceRegistry::parse(&devices).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let workloads = if smoke {
        smoke_workloads()
    } else {
        default_workloads()
    };
    let counts: &[u32] = if smoke {
        &[1, 2, 4, 8]
    } else {
        &[1, 2, 4, 8, 16, 32]
    };

    println!(
        "sched sweep: fleet [{devices}] ({} devices), thread limit {thread_limit}",
        registry.len()
    );
    let mut measured: Vec<MeasuredConfig> = Vec::new();
    for w in &workloads {
        println!("\n{}  (makespan ms per placement)", w.name);
        println!(
            "{:>6}  {:>12}  {:>12}  {:>12}  {:>8}",
            "N", "round-robin", "greedy", "lpt", "lpt gain"
        );
        for &n in counts {
            let mut row = Vec::new();
            for placement in Placement::all() {
                let cfg = sweep_one(w, &registry, &devices, n, thread_limit, placement);
                row.push(cfg.time_s);
                measured.push(cfg);
            }
            let fmt = |t: Option<f64>| match t {
                Some(s) => format!("{:.3}", s * 1e3),
                None => "OOM".to_string(),
            };
            let gain = match (row[0], row[2]) {
                (Some(rr), Some(lpt)) if lpt > 0.0 => format!("{:.2}x", rr / lpt),
                _ => "-".to_string(),
            };
            println!(
                "{:>6}  {:>12}  {:>12}  {:>12}  {:>8}",
                n,
                fmt(row[0]),
                fmt(row[1]),
                fmt(row[2]),
                gain
            );
        }
    }

    if let Some(path) = metrics_path {
        let mut out = String::new();
        for cfg in &measured {
            out.push_str(&serde_json::to_string(cfg).expect("config serializes"));
            out.push('\n');
        }
        dgc_obs::write_atomic(&path, out).expect("write metrics output");
        eprintln!("wrote {path} ({} configurations)", measured.len());
    }
}
