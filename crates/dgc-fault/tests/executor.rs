//! The executor as a batched ensemble: sequential launches renumber
//! instances onto one timeline and push past the device-memory wall.

mod common;

use common::*;
use dgc_core::{
    run_ensemble, run_ensemble_traced, AppContext, EnsembleError, EnsembleOptions, HostApp,
};
use dgc_fault::{run_ensemble_sharded_resilient_mem_aware, FaultPlan, RecoveryPolicy};
use dgc_obs::Recorder;
use dgc_sched::Placement;
use gpu_sim::{DeviceFleet, Gpu, KernelError, TeamCtx};
use host_rpc::HostServices;

fn lines(text: &str) -> Vec<Vec<String>> {
    dgc_core::parse_arg_file(text).unwrap()
}

#[test]
fn traced_run_matches_untraced_and_exports_timeline() {
    let arg_lines = lines("-n 100\n-n 200\n");
    let opts = EnsembleOptions {
        num_instances: 2,
        thread_limit: 32,
        cycle_args: true,
        ..Default::default()
    };
    let mut gpu = Gpu::a100();
    let plain = run_ensemble(&mut gpu, &app(), &arg_lines, &opts, HostServices::default()).unwrap();
    let mut gpu = Gpu::a100();
    let mut obs = Recorder::enabled();
    let traced = run_ensemble_traced(
        &mut gpu,
        &app(),
        &arg_lines,
        &opts,
        HostServices::default(),
        &mut obs,
    )
    .unwrap();
    // Tracing must not perturb the simulation.
    assert_eq!(plain.report, traced.report);
    assert_eq!(plain.stdout, traced.stdout);
    assert_eq!(plain.metrics, traced.metrics);
    // The timeline has the loader envelope and device spans.
    let cats: Vec<&str> = obs.events().iter().map(|e| e.cat.as_str()).collect();
    for want in ["loader", "kernel", "block", "phase", "lifecycle", "rpc"] {
        assert!(cats.contains(&want), "missing {want} events in {cats:?}");
    }
    // Batched runs renumber instances and keep one timeline.
    let mut fleet = one_a100();
    let mut obs = Recorder::enabled();
    let opts4 = EnsembleOptions {
        num_instances: 4,
        ..opts.clone()
    };
    let batched = run_ensemble_sharded_resilient_mem_aware(
        &mut fleet,
        &app(),
        &arg_lines,
        &opts4,
        2,
        Placement::RoundRobin,
        &FaultPlan::default(),
        &no_recovery(),
        &mut obs,
        false,
    )
    .unwrap()
    .ensemble;
    let ids: Vec<u32> = batched.metrics.iter().map(|m| m.instance).collect();
    assert_eq!(ids, vec![0, 1, 2, 3]);
    assert_eq!(obs.base_us(), 0.0);
    let kernel_spans = obs.events().iter().filter(|e| e.cat == "kernel").count();
    assert_eq!(kernel_spans, 2);
}

#[test]
fn arg_shortfall_is_an_error_without_cycle_args() {
    let mut fleet = one_a100();
    let arg_lines = lines("-n 50\n-n 60\n");
    let opts = EnsembleOptions {
        num_instances: 3,
        thread_limit: 32,
        ..Default::default()
    };
    let err = run_ensemble(
        fleet.gpu_mut(0),
        &app(),
        &arg_lines,
        &opts,
        HostServices::default(),
    )
    .expect_err("shortfall must be rejected");
    match &err {
        EnsembleError::ArgCountMismatch { instances, lines } => {
            assert_eq!((*instances, *lines), (3, 2));
        }
        other => panic!("expected ArgCountMismatch, got {other}"),
    }
    // The message names both counts and the escape hatch.
    let msg = err.to_string();
    assert!(msg.contains('3') && msg.contains('2'), "{msg}");
    assert!(msg.contains("--cycle-args"), "{msg}");
    // The batched path enforces the same contract before launching
    // anything.
    let opts8 = EnsembleOptions {
        num_instances: 8,
        ..opts.clone()
    };
    assert!(matches!(
        run_ensemble_sharded_resilient_mem_aware(
            &mut fleet,
            &app(),
            &arg_lines,
            &opts8,
            4,
            Placement::RoundRobin,
            &FaultPlan::default(),
            &no_recovery(),
            &mut Recorder::disabled(),
            false
        ),
        Err(EnsembleError::ArgCountMismatch {
            instances: 8,
            lines: 2
        })
    ));
    assert_eq!(fleet.gpu(0).mem.stats().live_allocations, 0);
}

#[test]
fn empty_fleet_is_an_error_not_a_panic() {
    let err = run_ensemble_sharded_resilient_mem_aware(
        &mut DeviceFleet::from_gpus(Vec::new()),
        &app(),
        &lines("-n 50\n"),
        &opts(2),
        0,
        Placement::RoundRobin,
        &FaultPlan::default(),
        &no_recovery(),
        &mut Recorder::disabled(),
        false,
    )
    .expect_err("an empty fleet is refused");
    assert!(matches!(err, EnsembleError::EmptyFleet), "{err}");
    assert_eq!(err.to_string(), "an ensemble needs at least one device");
}

#[test]
fn zero_attempts_is_an_error_before_anything_launches() {
    let mut fleet = one_a100();
    let mut obs = Recorder::enabled();
    let err = run_ensemble_sharded_resilient_mem_aware(
        &mut fleet,
        &app(),
        &lines("-n 50\n"),
        &opts(2),
        0,
        Placement::RoundRobin,
        &FaultPlan::default(),
        &RecoveryPolicy {
            max_attempts: 0,
            ..no_recovery()
        },
        &mut obs,
        true,
    )
    .expect_err("zero attempts are refused");
    assert!(matches!(err, EnsembleError::NoAttempts), "{err}");
    assert_eq!(err.to_string(), "max_attempts must be at least 1");
    // Refused up front: no pilot, no launch, no allocation, no span.
    assert!(obs.events().is_empty());
    let stats = fleet.gpu(0).mem.stats();
    assert_eq!((stats.total_allocations, stats.live_allocations), (0, 0));
}

#[test]
fn batched_ensemble_pushes_past_the_memory_wall() {
    // 8 paper-scale hogs cannot run concurrently (15 GB each on 40 GB)
    // but complete in batches of 2.
    fn hog_main(team: &mut TeamCtx<'_>, cx: &AppContext) -> Result<i32, KernelError> {
        let _ = cx;
        let buf = team.serial("alloc", |lane| {
            lane.dev_reserve(15 << 30)?;
            lane.dev_alloc(8)
        })?;
        team.serial("touch", |lane| lane.st::<u64>(buf, 7))?;
        Ok(0)
    }
    let a = HostApp::new("hog", MODULE, hog_main);
    let mut fleet = one_a100();
    let opts = EnsembleOptions {
        num_instances: 8,
        thread_limit: 32,
        cycle_args: true,
        ..Default::default()
    };
    // Concurrent: OOM.
    let res = run_ensemble(
        fleet.gpu_mut(0),
        &a,
        &lines("-x\n"),
        &opts,
        HostServices::default(),
    )
    .unwrap();
    assert!(res.any_oom());
    // Batched by 2: all succeed, four sequential launches.
    let res = run_ensemble_sharded_resilient_mem_aware(
        &mut fleet,
        &a,
        &lines("-x\n"),
        &opts,
        2,
        Placement::RoundRobin,
        &FaultPlan::default(),
        &no_recovery(),
        &mut Recorder::disabled(),
        false,
    )
    .unwrap()
    .ensemble;
    assert!(res.all_succeeded(), "{:?}", res.instances);
    assert_eq!(res.instances.len(), 8);
    assert_eq!(fleet.gpu(0).mem.stats().live_allocations, 0);
}

#[test]
fn batched_matches_unbatched_results() {
    let mut fleet = one_a100();
    let opts = EnsembleOptions {
        num_instances: 6,
        thread_limit: 32,
        cycle_args: true,
        ..Default::default()
    };
    let arg_lines = lines("-n 100\n-n 200\n-n 300\n");
    let full = run_ensemble(
        fleet.gpu_mut(0),
        &app(),
        &arg_lines,
        &opts,
        HostServices::default(),
    )
    .unwrap();
    let batched = run_ensemble_sharded_resilient_mem_aware(
        &mut fleet,
        &app(),
        &arg_lines,
        &opts,
        2,
        Placement::RoundRobin,
        &FaultPlan::default(),
        &no_recovery(),
        &mut Recorder::disabled(),
        false,
    )
    .unwrap()
    .ensemble;
    // Instance ids are per-launch (each batch is its own kernel), so
    // compare the computed payloads, not the id prefix.
    let sums = |v: &[String]| -> Vec<String> {
        v.iter()
            .map(|s| s.split("sum ").nth(1).unwrap().to_string())
            .collect()
    };
    assert_eq!(sums(&full.stdout), sums(&batched.stdout));
    // Sequential batches cannot beat the single concurrent launch.
    assert!(batched.kernel_time_s >= full.kernel_time_s);
    assert_eq!(batched.instance_end_times_s.len(), 6);
}
