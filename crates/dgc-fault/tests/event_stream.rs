//! The event stream a traced ensemble run hands its observers, pinned in
//! the shape of the repo benchmark's `ensemble-1024` workload at a small
//! size: rsbench on two A100s, LPT placement, memory-aware packing, and
//! a fault plan that traps one instance and fails another's first RPC
//! call on attempt 0.
//!
//! A `MonitorSink` records `team_done`, `kernel_launch` and
//! `rpc_activity`, and a wrapped `main` records each team's entry into
//! application code, all into one ordered log. Outside-in profilers cut
//! a run into launches at these events, so their order is part of the
//! launch path's contract:
//!
//! * pilot runs enter `main` once per distinct argument line and send
//!   nothing to the caller's sink;
//! * ignoring `rpc_activity`, team `i` of a monitored launch of `n`
//!   reports `team_done(i + 1, n)` directly after its `main` entry (a
//!   team trapped by an injected fault has no entry);
//! * each monitored launch then reports exactly one `kernel_launch`, and
//!   those match the span graph's launch nodes in device and instance
//!   count;
//! * `rpc_activity` counts every call the host served plus the faulted
//!   one.

use dgc_core::{split_arg_line, AppContext, AppMainFn, EnsembleOptions, HostApp};
use dgc_fault::{
    run_ensemble_sharded_resilient_mem_aware, FaultKind, FaultPlan, FaultSpec, RecoveryPolicy,
};
use dgc_obs::{MonitorSink, Recorder};
use dgc_sched::Placement;
use gpu_arch::GpuSpec;
use gpu_sim::{DeviceFleet, KernelError, TeamCtx};
use std::sync::{Arc, Mutex, OnceLock};

#[derive(Debug, Clone, PartialEq)]
enum Event {
    Main {
        instance: u32,
        instances: u32,
        args: Vec<String>,
    },
    TeamDone {
        done: u32,
        total: u32,
    },
    Kernel {
        device: u32,
        instances: u32,
    },
    Rpc {
        calls: u64,
        failures: u64,
    },
}

/// The log. This file holds one test, so nothing else writes to it.
static EVENTS: Mutex<Vec<Event>> = Mutex::new(Vec::new());

fn record(e: Event) {
    EVENTS.lock().expect("event log poisoned").push(e);
}

struct Sink;

impl MonitorSink for Sink {
    fn team_done(&self, _device: u32, done: u32, total: u32) {
        record(Event::TeamDone { done, total });
    }

    fn kernel_launch(&self, device: u32, instances: u32, _busy_s: f64) {
        record(Event::Kernel { device, instances });
    }

    fn rpc_activity(&self, calls: u64, failures: u64) {
        record(Event::Rpc { calls, failures });
    }
}

fn rsbench_main() -> AppMainFn {
    static MAIN: OnceLock<AppMainFn> = OnceLock::new();
    *MAIN.get_or_init(|| dgc_apps::rsbench::app().main)
}

fn recorded_main(team: &mut TeamCtx<'_>, cx: &AppContext) -> Result<i32, KernelError> {
    record(Event::Main {
        instance: cx.instance,
        instances: cx.num_instances,
        args: cx.argv[1..].to_vec(),
    });
    rsbench_main()(team, cx)
}

#[test]
fn traced_fleet_run_reports_launches_in_order() {
    // Four distinct lines, three copies each, interleaved.
    let distinct = [
        "-l 16 -w 4 -p 1",
        "-l 24 -w 8 -p 2",
        "-l 32 -w 4 -p 2",
        "-l 40 -w 8 -p 1",
    ];
    let lines: Vec<Vec<String>> = (0..12)
        .map(|i| split_arg_line(distinct[(i * 3) % distinct.len()]))
        .collect();
    let opts = EnsembleOptions {
        num_instances: lines.len() as u32,
        thread_limit: 64,
        ..Default::default()
    };
    let trapped = 5;
    let rpc_failed = 8;
    let plan = FaultPlan {
        seed: 1,
        faults: vec![
            FaultSpec {
                instance: Some(trapped),
                attempt: Some(0),
                kind: FaultKind::Trap {
                    message: "seeded trap".into(),
                },
            },
            FaultSpec {
                instance: Some(rpc_failed),
                attempt: Some(0),
                kind: FaultKind::RpcFail { after_calls: 0 },
            },
        ],
        device_deaths: None,
    };
    let policy = RecoveryPolicy {
        max_attempts: 3,
        oom_split: false,
        ..Default::default()
    };
    let app = HostApp {
        main: recorded_main,
        ..dgc_apps::rsbench::app()
    };
    let mut fleet = DeviceFleet::homogeneous(GpuSpec::a100_40gb(), 2);
    let mut obs = Recorder::enabled();
    obs.set_monitor(Arc::new(Sink));

    let r = run_ensemble_sharded_resilient_mem_aware(
        &mut fleet,
        &app,
        &lines,
        &opts,
        0,
        Placement::Lpt,
        &plan,
        &policy,
        &mut obs,
        true,
    )
    .unwrap();
    let events = std::mem::take(&mut *EVENTS.lock().unwrap());
    assert!(r.all_succeeded(), "{:?}", r.ensemble.instances);
    assert_eq!(r.recovery.recovered, 2);

    // Walk the stream without its RPC events: a `main` entry not followed
    // by its own `team_done` is a pilot's; anything else opens a
    // monitored launch.
    let seq: Vec<&Event> = events
        .iter()
        .filter(|e| !matches!(e, Event::Rpc { .. }))
        .collect();
    let mut pilots: Vec<Vec<String>> = Vec::new();
    let mut launches: Vec<(u32, u32)> = Vec::new();
    let mut skipped_mains = 0;
    let mut k = 0;
    while k < seq.len() {
        if let Event::Main {
            instance,
            instances,
            args,
        } = seq[k]
        {
            let done = Event::TeamDone {
                done: instance + 1,
                total: *instances,
            };
            if seq.get(k + 1) != Some(&&done) {
                assert_eq!((*instance, *instances), (0, 1), "pilot at event {k}");
                pilots.push(args.clone());
                k += 1;
                continue;
            }
        }
        let n = match seq[k] {
            Event::Main { instances, .. } => *instances,
            Event::TeamDone { total, .. } => *total,
            other => panic!("event {k}: {other:?} opens no launch"),
        };
        for i in 0..n {
            match seq[k] {
                Event::Main {
                    instance,
                    instances,
                    ..
                } => {
                    assert_eq!((*instance, *instances), (i, n), "event {k}");
                    k += 1;
                }
                _ => skipped_mains += 1,
            }
            let done = Event::TeamDone {
                done: i + 1,
                total: n,
            };
            assert_eq!(seq.get(k), Some(&&done), "event {k}");
            k += 1;
        }
        match seq.get(k) {
            Some(Event::Kernel { device, instances }) => {
                assert_eq!(*instances, n, "event {k}");
                launches.push((*device, n));
                k += 1;
            }
            other => panic!("event {k}: launch of {n} ends with {other:?}"),
        }
    }

    // One pilot per distinct line, and none of them reached the sink.
    let mut want: Vec<Vec<String>> = distinct.iter().map(|l| split_arg_line(l)).collect();
    want.sort();
    pilots.sort();
    assert_eq!(pilots, want);
    // Only the injected trap skipped `main`.
    assert_eq!(skipped_mains, 1);

    // The launches the sink saw are the span graph's launch nodes.
    let nodes: Vec<(u32, u32)> = r
        .ensemble
        .graph
        .launches()
        .map(|l| (l.device, l.instances.len() as u32))
        .collect();
    assert_eq!(launches, nodes);
    assert!(launches.iter().any(|&(d, _)| d == 1), "{launches:?}");
    let teams: u32 = launches.iter().map(|&(_, n)| n).sum();
    assert_eq!(teams, lines.len() as u32 + 2);

    // Every served call plus the one faulted call; the fault is the only
    // failure.
    let (calls, failures) = events.iter().fold((0, 0), |(c, f), e| match e {
        Event::Rpc { calls, failures } => (c + calls, f + failures),
        _ => (c, f),
    });
    assert_eq!(calls, r.ensemble.rpc_stats.total() + 1);
    assert_eq!(failures, 1);
}
