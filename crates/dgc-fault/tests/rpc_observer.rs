//! The RPC observer checked against the host services' own counts: with
//! RPC faults injected into an rsbench ensemble under recovery, a
//! monitor sees every call the host served — the serviced ones plus the
//! faulted ones — and exactly the faults as failures, and attaching it
//! changes no outcome.

use dgc_core::{split_arg_line, EnsembleOptions};
use dgc_fault::{
    run_ensemble_sharded_resilient_mem_aware, FaultKind, FaultPlan, FaultSpec, RecoveryPolicy,
    ShardedResilientResult,
};
use dgc_obs::{MonitorSink, Recorder};
use dgc_sched::Placement;
use gpu_arch::GpuSpec;
use gpu_sim::DeviceFleet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Sums what `rpc_activity` reports.
#[derive(Default)]
struct RpcCounter {
    calls: AtomicU64,
    failures: AtomicU64,
}

impl MonitorSink for RpcCounter {
    fn rpc_activity(&self, calls: u64, failures: u64) {
        self.calls.fetch_add(calls, Ordering::Relaxed);
        self.failures.fetch_add(failures, Ordering::Relaxed);
    }
}

/// Attempt 0's first RPC call of instance 1 fails and of instance 2 is
/// corrupted.
fn first_call_faults() -> FaultPlan {
    let on_first_call = |instance, kind| FaultSpec {
        instance: Some(instance),
        attempt: Some(0),
        kind,
    };
    FaultPlan {
        device_deaths: None,
        seed: 0,
        faults: vec![
            on_first_call(1, FaultKind::RpcFail { after_calls: 0 }),
            on_first_call(2, FaultKind::RpcCorrupt { after_calls: 0 }),
        ],
    }
}

fn run(obs: &mut Recorder) -> ShardedResilientResult {
    let lines: Vec<Vec<String>> = ["-l 40 -w 8 -p 2", "-l 60 -w 6 -p 2"]
        .iter()
        .map(|t| split_arg_line(t))
        .collect();
    let opts = EnsembleOptions {
        num_instances: 4,
        thread_limit: 32,
        cycle_args: true,
        ..Default::default()
    };
    run_ensemble_sharded_resilient_mem_aware(
        &mut DeviceFleet::homogeneous(GpuSpec::a100_40gb(), 1),
        &dgc_apps::rsbench::app(),
        &lines,
        &opts,
        0,
        Placement::RoundRobin,
        &first_call_faults(),
        &RecoveryPolicy::default(),
        obs,
        false,
    )
    .unwrap()
}

#[test]
fn observer_counts_match_the_services_and_the_fired_faults() {
    let counter = Arc::new(RpcCounter::default());
    let mut obs = Recorder::disabled();
    obs.set_monitor(counter.clone());
    let watched = run(&mut obs);

    // Each targeted instance traps on its first faulted call, so each
    // fault fires once, and recovery relaunches both instances.
    let faults_fired = 2;
    assert!(watched.all_succeeded(), "{:?}", watched.ensemble.instances);
    assert_eq!(watched.recovery.failures, faults_fired);
    assert_eq!(watched.recovery.recovered, faults_fired);

    // Faulted calls never reach the services, so their counts hold only
    // the serviced calls, none of which errored.
    let serviced = watched.ensemble.rpc_stats;
    assert_eq!(serviced.errors, 0);
    assert!(serviced.total() > 0);
    let failures = counter.failures.load(Ordering::Relaxed);
    let calls = counter.calls.load(Ordering::Relaxed);
    assert_eq!(failures, u64::from(faults_fired));
    assert_eq!(calls, serviced.total() + u64::from(faults_fired));

    // Observation only: the same run without the sink ends the same way.
    let plain = run(&mut Recorder::disabled());
    assert_eq!(watched.ensemble.instances, plain.ensemble.instances);
    assert_eq!(watched.ensemble.stdout, plain.ensemble.stdout);
    assert_eq!(serviced, plain.ensemble.rpc_stats);
}
