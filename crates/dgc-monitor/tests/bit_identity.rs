//! The monitor's cardinal invariant, property-tested across the run
//! shapes of the ensemble loader and executor (plain, batched,
//! recovering, and both on a two-device fleet): attaching a [`MonitorRegistry`] to a run is pure
//! observation. Chrome-trace bytes and metrics JSONL are bit-identical
//! with and without the sink, while the registry still fills with the
//! run's operational metrics.

use device_libc::dl_printf;
use dgc_core::{run_ensemble_traced, AppContext, EnsembleOptions, HostApp};
use dgc_fault::{run_ensemble_sharded_resilient_mem_aware, FaultPlan, RecoveryPolicy};
use dgc_monitor::MonitorRegistry;
use dgc_obs::{metrics_jsonl, Recorder};
use dgc_sched::Placement;
use gpu_arch::GpuSpec;
use gpu_sim::{DeviceFleet, Gpu, KernelError, TeamCtx};
use host_rpc::HostServices;
use proptest::prelude::*;
use std::sync::Arc;

const MODULE: &str = r#"
module "bench" {
  func @main arity=2 calls(@printf, @malloc, @atoi)
  extern func @printf variadic
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
        .unwrap_or(500);
    let buf = team.serial("alloc", |lane| lane.dev_alloc(8 * n))?;
    team.parallel_for("init", n, |i, lane| lane.st_idx::<f64>(buf, i, i as f64))?;
    let sum = team.parallel_for_reduce_f64("sum", n, |i, lane| lane.ld_idx::<f64>(buf, i))?;
    let instance = cx.instance;
    team.serial("print", |lane| {
        dl_printf(
            lane,
            "instance %d sum %.1f\n",
            &[instance.into(), sum.into()],
        )?;
        Ok(())
    })?;
    Ok(0)
}

fn app() -> HostApp {
    HostApp::new("bench", MODULE, stream_main)
}

fn lines() -> Vec<Vec<String>> {
    dgc_core::parse_arg_file("-n 60\n-n 120\n-n 40\n").unwrap()
}

fn opts(n: u32) -> EnsembleOptions {
    EnsembleOptions {
        cycle_args: true,
        num_instances: n,
        thread_limit: 32,
        ..Default::default()
    }
}

/// Every instance launches once: a run without recovery.
fn no_recovery() -> RecoveryPolicy {
    RecoveryPolicy {
        max_attempts: 1,
        oom_split: false,
        ..RecoveryPolicy::default()
    }
}

const DRIVERS: [&str; 5] = [
    "plain",
    "batched",
    "resilient",
    "fault-sharded",
    "sched-sharded",
];

/// Run one driver to completion under `obs` and return the run's
/// observable artifacts: the Chrome-trace bytes and the metrics JSONL.
fn run_driver(driver: &str, n: u32, batch: u32, seed: u64, obs: &mut Recorder) -> (String, String) {
    let arg_lines = lines();
    let placement: Placement = "round-robin".parse().unwrap();
    let plan = FaultPlan::scatter_traps(seed, n, 1);
    let policy = RecoveryPolicy::default();
    let (metrics, launch) = match driver {
        "plain" => {
            let mut gpu = Gpu::a100();
            let r = run_ensemble_traced(
                &mut gpu,
                &app(),
                &arg_lines,
                &opts(n),
                HostServices::default(),
                obs,
            )
            .unwrap();
            (r.metrics.clone(), r.launch_metrics())
        }
        "batched" => {
            let mut fleet = DeviceFleet::homogeneous(GpuSpec::a100_40gb(), 1);
            let r = run_ensemble_sharded_resilient_mem_aware(
                &mut fleet,
                &app(),
                &arg_lines,
                &opts(n),
                batch,
                Placement::RoundRobin,
                &FaultPlan::default(),
                &no_recovery(),
                obs,
                false,
            )
            .unwrap()
            .ensemble;
            (r.metrics.clone(), r.launch_metrics())
        }
        "resilient" => {
            let mut fleet = DeviceFleet::homogeneous(GpuSpec::a100_40gb(), 1);
            let r = run_ensemble_sharded_resilient_mem_aware(
                &mut fleet,
                &app(),
                &arg_lines,
                &opts(n),
                batch,
                Placement::RoundRobin,
                &plan,
                &policy,
                obs,
                false,
            )
            .unwrap();
            (r.ensemble.metrics.clone(), r.launch_metrics())
        }
        "fault-sharded" => {
            let mut fleet = DeviceFleet::homogeneous(GpuSpec::a100_40gb(), 2);
            let r = run_ensemble_sharded_resilient_mem_aware(
                &mut fleet,
                &app(),
                &arg_lines,
                &opts(n),
                batch,
                placement,
                &plan,
                &policy,
                obs,
                false,
            )
            .unwrap();
            (r.ensemble.metrics.clone(), r.launch_metrics())
        }
        "sched-sharded" => {
            let mut fleet = DeviceFleet::homogeneous(GpuSpec::a100_40gb(), 2);
            let r = run_ensemble_sharded_resilient_mem_aware(
                &mut fleet,
                &app(),
                &arg_lines,
                &opts(n),
                batch,
                placement,
                &FaultPlan::default(),
                &no_recovery(),
                obs,
                false,
            )
            .unwrap();
            (r.ensemble.metrics.clone(), r.launch_metrics())
        }
        other => unreachable!("unknown driver {other}"),
    };
    (obs.to_chrome_trace(), metrics_jsonl(&metrics, &launch))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For every run shape, any instance count / batch size / fault seed:
    /// trace and metrics bytes are identical with the monitor attached,
    /// and the registry observed every instance completion.
    #[test]
    fn monitoring_never_perturbs_any_driver(n in 1u32..6, batch in 1u32..4, seed in any::<u64>()) {
        for driver in DRIVERS {
            let mut plain_rec = Recorder::enabled();
            let (trace, metrics) = run_driver(driver, n, batch, seed, &mut plain_rec);

            let registry = Arc::new(MonitorRegistry::new());
            let mut monitored_rec = Recorder::enabled();
            monitored_rec.set_monitor(registry.clone());
            let (trace_m, metrics_m) = run_driver(driver, n, batch, seed, &mut monitored_rec);

            prop_assert_eq!(&trace, &trace_m);
            prop_assert_eq!(&metrics, &metrics_m);

            let snap = registry.snapshot();
            let seen = snap.sum("dgc_instances_total", &[]).unwrap_or(0.0);
            prop_assert!(
                seen >= f64::from(n),
                "driver {} registered {} instance outcomes for n={}",
                driver,
                seen,
                n
            );
            prop_assert!(
                snap.sum("dgc_kernel_launches_total", &[]).unwrap_or(0.0) >= 1.0
            );
        }
    }

    /// The disabled-recorder path (no tracing at all) is equally
    /// unperturbed: metrics JSONL matches a traced run's bytes.
    #[test]
    fn monitoring_with_disabled_recorder_matches(n in 1u32..5, batch in 1u32..3) {
        for driver in DRIVERS {
            let mut plain_rec = Recorder::disabled();
            let (_, metrics) = run_driver(driver, n, batch, 7, &mut plain_rec);

            let registry = Arc::new(MonitorRegistry::new());
            let mut monitored_rec = Recorder::disabled();
            monitored_rec.set_monitor(registry.clone());
            let (_, metrics_m) = run_driver(driver, n, batch, 7, &mut monitored_rec);

            prop_assert_eq!(&metrics, &metrics_m);
            prop_assert!(registry.snapshot().sum("dgc_instances_total", &[]).unwrap_or(0.0) >= f64::from(n));
        }
    }
}
