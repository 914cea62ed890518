//! Shared fixtures of the executor's integration tests: a cheap
//! streaming app, its options and one-device fleets.

#![allow(dead_code)]

use device_libc::dl_printf;
use dgc_core::{AppContext, EnsembleOptions, HostApp};
use dgc_fault::RecoveryPolicy;
use gpu_arch::GpuSpec;
use gpu_sim::{DeviceFleet, KernelError, TeamCtx};

pub const MODULE: &str = r#"
module "bench" {
  func @main arity=2 calls(@printf, @malloc, @atoi)
  extern func @printf variadic
  extern func @malloc
  extern func @atoi
}
"#;

/// Streams `n` doubles (from `-n <n>`), prints a digest.
pub fn stream_main(team: &mut TeamCtx<'_>, cx: &AppContext) -> Result<i32, KernelError> {
    let n: u64 = cx
        .argv
        .iter()
        .position(|a| a == "-n")
        .and_then(|p| cx.argv.get(p + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000);
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

pub fn app() -> HostApp {
    HostApp::new("bench", MODULE, stream_main)
}

pub fn opts(n: u32) -> EnsembleOptions {
    EnsembleOptions {
        cycle_args: true,
        num_instances: n,
        thread_limit: 32,
        ..Default::default()
    }
}

/// A fresh one-A100 fleet: the sequential-timeline configuration.
pub fn one_a100() -> DeviceFleet {
    DeviceFleet::homogeneous(GpuSpec::a100_40gb(), 1)
}

/// Every instance launches once: a run without recovery.
pub fn no_recovery() -> RecoveryPolicy {
    RecoveryPolicy {
        max_attempts: 1,
        oom_split: false,
        ..RecoveryPolicy::default()
    }
}
