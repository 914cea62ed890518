//! Self-benchmarking harness: how fast is the simulator itself?
//!
//! Wall-clocks two pinned workloads — the figure-6 smoke sweep at
//! thread limit 32 and a sharded two-device xsbench run — and writes a
//! `BENCH_ensemble.json` snapshot (schema
//! [`dgc_prof::BENCH_SCHEMA_VERSION`]) with per-section wall time,
//! completed instances, simulated cycles, and the derived throughput
//! rates. With `--golden` the run doubles as the perf-trajectory gate:
//! the snapshot is compared against the checked-in golden via
//! [`dgc_prof::BenchDiff`], sharing `prof-diff`'s exit-code contract
//! (0 pass, 1 regression, 2 usage/parse error).
//!
//! ```text
//! cargo run --release -p dgc-bench --bin bench_harness
//! cargo run --release -p dgc-bench --bin bench_harness -- \
//!     --out BENCH_ensemble.json --golden results/bench_golden.json \
//!     --tolerance 0.05 --wall-factor 10
//! ```

use dgc_bench::{measure_config, smoke_workloads};
use dgc_core::EnsembleOptions;
use dgc_fault::{run_ensemble_sharded_resilient_mem_aware, FaultPlan, RecoveryPolicy};
use dgc_obs::Recorder;
use dgc_prof::{
    config_fingerprint, git_rev, BenchDiff, BenchReport, BenchSection, BENCH_SCHEMA_VERSION,
};
use dgc_sched::Placement;
use gpu_arch::GpuSpec;
use gpu_sim::DeviceFleet;
use std::time::Instant;

/// Pinned instance counts for the sweep section — a smoke-sized prefix
/// of the paper's sweep, kept small so the gate stays fast in CI.
const SWEEP_COUNTS: [u32; 4] = [1, 2, 4, 8];
const SWEEP_THREAD_LIMIT: u32 = 32;
const SHARD_INSTANCES: u32 = 8;
const SHARD_DEVICES: u32 = 2;
/// Alloc-churn section: alloc/free pairs driven through the free-list
/// allocator, cycled over this many distinct team tags.
const ALLOC_OPS: u64 = 100_000;
const ALLOC_TEAMS: u64 = 32;

fn usage() -> ! {
    eprintln!(
        "usage: bench_harness [--out <path>] [--golden <path>] \
         [--tolerance <rel>] [--wall-factor <f>]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = "BENCH_ensemble.json".to_string();
    let mut golden_path: Option<String> = None;
    let mut tolerance = 0.05f64;
    let mut wall_factor = 10.0f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out_path = it.next().unwrap_or_else(|| usage()).clone(),
            "--golden" => golden_path = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--tolerance" => {
                tolerance = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                if !(0.0..1.0).contains(&tolerance) {
                    eprintln!("--tolerance must be in [0, 1)");
                    std::process::exit(2);
                }
            }
            "--wall-factor" => {
                wall_factor = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                if !wall_factor.is_finite() || wall_factor < 1.0 {
                    eprintln!("--wall-factor must be a finite factor >= 1");
                    std::process::exit(2);
                }
            }
            _ => usage(),
        }
    }

    let spec = GpuSpec::a100_40gb();
    let cycle_s = spec.cycles_to_seconds(1.0);
    let mut sections = Vec::new();

    // ---- Section 1: the pinned figure-6 smoke sweep. ----
    eprintln!("bench: figure6 smoke sweep, tl {SWEEP_THREAD_LIMIT}, counts {SWEEP_COUNTS:?} ...");
    let started = Instant::now();
    let mut instances = 0u64;
    let mut sim_s = 0.0f64;
    for w in &smoke_workloads() {
        for &n in &SWEEP_COUNTS {
            let m = measure_config(&spec, w, n, SWEEP_THREAD_LIMIT, None);
            // OOM configurations (pagerank at 8) attempt but complete
            // nothing; only completed instances count toward throughput.
            if let Some(t) = m.time_s {
                instances += n as u64;
                sim_s += t;
            }
        }
    }
    sections.push(section(
        "figure6_smoke_tl32",
        started.elapsed().as_secs_f64(),
        instances,
        sim_s / cycle_s,
    ));

    // ---- Section 2: a sharded two-device run. ----
    eprintln!("bench: sharded xsbench x{SHARD_INSTANCES} over {SHARD_DEVICES} devices ...");
    let started = Instant::now();
    let mut fleet = DeviceFleet::homogeneous(spec.clone(), SHARD_DEVICES);
    let workload = &smoke_workloads()[0]; // xsbench
    let opts = EnsembleOptions {
        num_instances: SHARD_INSTANCES,
        thread_limit: SWEEP_THREAD_LIMIT,
        cycle_args: true,
        ..Default::default()
    };
    let no_recovery = RecoveryPolicy {
        max_attempts: 1,
        oom_split: false,
        ..RecoveryPolicy::default()
    };
    let sharded = run_ensemble_sharded_resilient_mem_aware(
        &mut fleet,
        &workload.app(),
        std::slice::from_ref(&workload.args),
        &opts,
        0,
        Placement::Lpt,
        &FaultPlan::default(),
        &no_recovery,
        &mut Recorder::disabled(),
        false,
    )
    .expect("sharded bench run is launchable");
    assert!(
        sharded.all_succeeded(),
        "sharded bench run must complete every instance"
    );
    // Devices run concurrently; total simulated work is the sum of the
    // per-device kernel sequences, not the makespan.
    let sharded_sim_s: f64 = sharded.per_device_time_s.iter().sum();
    sections.push(section(
        "sharded_xsbench_x8_dev2",
        started.elapsed().as_secs_f64(),
        SHARD_INSTANCES as u64,
        sharded_sim_s / cycle_s,
    ));

    // ---- Section 3: allocator churn throughput. ----
    eprintln!("bench: alloc churn, {ALLOC_OPS} alloc/free pairs over {ALLOC_TEAMS} teams ...");
    let started = Instant::now();
    let mut mem = gpu_mem::DeviceMemory::new(1 << 30);
    mem.set_free_lists(true);
    let mut live: std::collections::VecDeque<gpu_mem::DevicePtr> =
        std::collections::VecDeque::new();
    for i in 0..ALLOC_OPS {
        let tag = (i % ALLOC_TEAMS) as u32;
        // Deterministic size mix spanning several size classes.
        let len = 256 + (i % 7) * 1024;
        let ptr = mem
            .alloc_tagged(len, gpu_mem::Backing::Materialized, tag)
            .expect("churn allocation fits in 1 GiB");
        live.push_back(ptr);
        if live.len() >= 64 {
            let victim = live.pop_front().expect("queue is non-empty");
            mem.free(victim).expect("churn free succeeds");
        }
    }
    while let Some(p) = live.pop_front() {
        mem.free(p).expect("drain free succeeds");
    }
    let churn_stats = mem.stats();
    eprintln!(
        "bench: alloc churn recycled {} of {} allocations ({} fallbacks)",
        churn_stats.recycled_allocations,
        churn_stats.total_allocations,
        churn_stats.alloc_fallbacks
    );
    // A host-side microbenchmark: no simulated cycles, instances count
    // the alloc/free pairs so instances_per_s is allocator ops/s.
    sections.push(section(
        "alloc_churn_x100k",
        started.elapsed().as_secs_f64(),
        ALLOC_OPS,
        0.0,
    ));

    // Self-identifying snapshot (schema 2): the rev names the code, the
    // fingerprint names the pinned workload — ledger trend analysis
    // refuses to compare rates across different fingerprints.
    let config_hash = config_fingerprint([
        "device=a100_40gb".to_string(),
        format!("sweep_counts={SWEEP_COUNTS:?}"),
        format!("sweep_tl={SWEEP_THREAD_LIMIT}"),
        format!("shard_instances={SHARD_INSTANCES}"),
        format!("shard_devices={SHARD_DEVICES}"),
        format!("alloc_ops={ALLOC_OPS}"),
        format!("alloc_teams={ALLOC_TEAMS}"),
    ]);
    let report = BenchReport {
        schema: BENCH_SCHEMA_VERSION,
        git_rev: git_rev(),
        config_hash,
        total_wall_s: sections.iter().map(|s| s.wall_s).sum(),
        sections,
    };
    let json = serde_json::to_string_pretty(&report).expect("bench report serializes");
    dgc_obs::write_atomic(&out_path, json).unwrap_or_else(|e| {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(2);
    });
    for s in &report.sections {
        println!(
            "{}: {:.3} s wall | {} instances ({:.1}/s) | {:.3e} sim cycles ({:.3e}/s)",
            s.name, s.wall_s, s.instances, s.instances_per_s, s.sim_cycles, s.sim_cycles_per_s
        );
    }
    eprintln!("wrote {out_path}");

    // ---- Optional gate against the golden snapshot. ----
    let Some(golden_path) = golden_path else {
        return;
    };
    let golden_text = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        eprintln!("cannot read golden {golden_path}: {e}");
        std::process::exit(2);
    });
    let golden = BenchReport::parse(&golden_text).unwrap_or_else(|e| {
        eprintln!("golden {golden_path}: {e}");
        std::process::exit(2);
    });
    let diff = BenchDiff::compare(&golden, &report, tolerance, wall_factor);
    print!("{}", diff.render());
    if diff.has_regressions() {
        eprintln!("bench gate FAILED against {golden_path}");
        std::process::exit(1);
    }
    println!("bench gate passed against {golden_path}");
}

fn section(name: &str, wall_s: f64, instances: u64, sim_cycles: f64) -> BenchSection {
    BenchSection {
        name: name.into(),
        wall_s,
        instances,
        sim_cycles,
        instances_per_s: instances as f64 / wall_s.max(1e-12),
        sim_cycles_per_s: sim_cycles / wall_s.max(1e-12),
    }
}
