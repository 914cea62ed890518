//! Acceptance: the roofline classification reproduces the paper's §4
//! narrative on the real benchmark suite.
//!
//! * At thread limit 32 (the paper's high-parallelism ensemble sweet
//!   spot) no benchmark saturates a roof — each block is one warp whose
//!   MLP window caps its bandwidth draw, so everything is latency-bound.
//!   That slack is exactly why Figure 6 scales near-linearly.
//! * AMGmk at thread limit 1024 is the paper's memory-bound outlier:
//!   wide blocks stream enough concurrent sectors to saturate DRAM, so
//!   its ensemble speedup flattens first.

use dgc_apps::app_by_name;
use dgc_core::{run_ensemble, EnsembleOptions};
use dgc_sched::{BoundClass, RooflinePoint};
use gpu_arch::GpuSpec;
use gpu_sim::Gpu;
use host_rpc::HostServices;

fn roofline_of(name: &str, args: &[&str], instances: u32, thread_limit: u32) -> RooflinePoint {
    let spec = GpuSpec::a100_40gb();
    let mut gpu = Gpu::new(spec.clone());
    let app = app_by_name(name).expect("benchmark registered");
    let opts = EnsembleOptions {
        cycle_args: true,
        num_instances: instances,
        thread_limit,
        ..Default::default()
    };
    let lines: Vec<Vec<String>> = vec![args.iter().map(|s| s.to_string()).collect()];
    let res = run_ensemble(&mut gpu, &app, &lines, &opts, HostServices::default())
        .expect("launchable configuration");
    assert!(res.all_succeeded(), "{name}: {:?}", res.instances);
    RooflinePoint::from_report(&spec, &res.report)
}

// The harness's smoke-scaled workload arguments (kept in sync with
// `dgc_bench::smoke_workloads`, which this crate cannot depend on
// without a cycle). AMGMK_FULL is the default (paper-scaled) size: the
// bandwidth-saturation regime needs the full streaming working set.
const XSBENCH: &[&str] = &["-l", "60", "-g", "16"];
const RSBENCH: &[&str] = &["-l", "60", "-w", "8", "-p", "2"];
const AMGMK: &[&str] = &["-n", "6", "-s", "4"];
const AMGMK_FULL: &[&str] = &["-n", "10", "-s", "10"];

#[test]
fn amgmk_is_memory_bound_at_thread_limit_1024() {
    let p = roofline_of("amgmk", AMGMK_FULL, 64, 1024);
    assert_eq!(
        p.bound,
        BoundClass::MemoryBw,
        "amgmk tl=1024: {}",
        p.render()
    );
    // Its intensity sits on the memory side of the ridge and the launch
    // draws most of the effective bandwidth.
    assert!(p.ai < p.ridge_ai, "{}", p.render());
    assert!(p.bw_fraction > 0.7, "{}", p.render());
}

#[test]
fn xsbench_and_rsbench_are_not_memory_bound_at_thread_limit_32() {
    for (name, args) in [("xsbench", XSBENCH), ("rsbench", RSBENCH)] {
        let p = roofline_of(name, args, 16, 32);
        assert_ne!(
            p.bound,
            BoundClass::MemoryBw,
            "{name} tl=32: {}",
            p.render()
        );
    }
}

#[test]
fn thread_limit_32_leaves_bandwidth_headroom_for_ensembles() {
    // The single-warp-per-block regime draws a small fraction of DRAM
    // bandwidth even with 16 instances — the headroom ensembles exploit.
    let p = roofline_of("amgmk", AMGMK, 16, 32);
    assert_eq!(p.bound, BoundClass::Latency, "{}", p.render());
    let wide = roofline_of("amgmk", AMGMK, 16, 1024);
    assert!(
        p.bw_fraction < wide.bw_fraction,
        "narrow {} vs wide {}",
        p.render(),
        wide.render()
    );
}

#[test]
fn rsbench_sits_on_the_compute_side_of_the_ridge() {
    // RSBench recomputes cross sections (high winsts/byte): its roof is
    // the compute one, but at thread limit 32 it cannot approach it —
    // latency-bound, not compute-bound.
    let p = roofline_of("rsbench", RSBENCH, 16, 32);
    assert!(p.ai > p.ridge_ai, "{}", p.render());
    assert_eq!(p.bound, BoundClass::Latency, "{}", p.render());
}
