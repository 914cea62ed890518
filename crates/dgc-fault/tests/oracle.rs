//! Replays `results/driver_oracle.jsonl` through the executor, bit for
//! bit.
//!
//! The oracle was recorded through the drivers the executor replaced —
//! the plain and batched loaders, the sched-sharded fleet driver, the
//! single-device resilient driver and the fault-sharded driver — over the
//! grid N ∈ {1, 5, 8} × batch ∈ {0, 2, 3} × fleets `a100`, `a100,a100`
//! and `a100,a100*0.5,a100` × every placement × plans `plain` (no
//! recovery), `empty`, `traps`, `oom`, `hang` and `death` × memory-aware
//! on and off. Each record is the traced run; the untraced run matched it
//! field for field, so both replay against the same record.
//!
//! Per configuration, a few fields are excluded from the comparison; each
//! exclusion says why (see [`exclusions`]).

mod common;

use common::*;
use dgc_fault::{
    run_ensemble_sharded_resilient_mem_aware, DeviceDeath, FaultKind, FaultPlan, FaultSpec,
    RecoveryPolicy, ShardedResilientResult,
};
use dgc_obs::{metrics_jsonl, Recorder};
use dgc_sched::Placement;
use gpu_arch::DeviceRegistry;
use gpu_sim::DeviceFleet;
use serde::{Deserialize, Value};

#[derive(Debug, Clone, PartialEq, Deserialize)]
struct Outcome {
    exit_code: Option<i32>,
    error: Option<String>,
    oom: bool,
    timed_out: bool,
}

#[derive(Debug, Clone, PartialEq, Deserialize)]
struct Recovery {
    attempts: u32,
    retried: u32,
    recovered: u32,
    unrecovered: u32,
    skipped: u32,
    failures: u32,
    oom_failures: u32,
    timeouts: u32,
    oom_splits: u32,
    final_batch: u32,
    backoff_bits: String,
}

/// One oracle line. Floating-point results are stored as the hex bits
/// of the `f64`; the per-instance metrics JSONL and the Chrome trace as
/// FNV-1a hashes (`instances_fnv_no_end` drops each `end_time_s`); the
/// launch record verbatim.
#[derive(Debug, Clone, PartialEq, Deserialize)]
struct Record {
    n: u32,
    batch: u32,
    fleet: String,
    placement: String,
    plan: String,
    mem_aware: bool,
    outcomes: Vec<Outcome>,
    stdout: Vec<String>,
    end_bits: Vec<String>,
    kernel_bits: String,
    total_bits: String,
    per_device_bits: Vec<String>,
    dead_devices: Vec<u32>,
    recovery: Option<Recovery>,
    instances_fnv: String,
    instances_fnv_no_end: String,
    launch: String,
    trace_fnv: String,
    replay_bits: String,
}

fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn fnv1a(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Drop the `"end_time_s":<number>,` member from one JSONL record.
fn strip_end_time(line: &str) -> String {
    let key = "\"end_time_s\":";
    let Some(at) = line.find(key) else {
        return line.to_string();
    };
    let rest = &line[at..];
    let end = rest.find(',').map(|c| c + 1).unwrap_or(rest.len());
    format!("{}{}", &line[..at], &rest[end..])
}

/// The plans the oracle was recorded with.
fn plan_and_policy(name: &str, n: u32, devices: u32) -> (FaultPlan, RecoveryPolicy) {
    let faults = |spec: FaultSpec| FaultPlan {
        faults: vec![spec],
        ..FaultPlan::default()
    };
    match name {
        "plain" => (FaultPlan::default(), no_recovery()),
        "empty" => (FaultPlan::default(), RecoveryPolicy::default()),
        "traps" => (
            FaultPlan::scatter_traps(11, n, n.div_ceil(2)),
            RecoveryPolicy::default(),
        ),
        "oom" => (
            faults(FaultSpec {
                instance: None,
                attempt: None,
                kind: FaultKind::DeviceOom {
                    min_concurrent: 3,
                    requested_bytes: 1 << 40,
                },
            }),
            RecoveryPolicy {
                max_attempts: 4,
                oom_split: true,
                ..RecoveryPolicy::default()
            },
        ),
        "hang" => (
            faults(FaultSpec {
                instance: Some(n / 2),
                attempt: Some(0),
                kind: FaultKind::Hang { stall_cycles: 1e9 },
            }),
            RecoveryPolicy {
                instance_cycle_budget: Some(1e7),
                ..RecoveryPolicy::default()
            },
        ),
        "death" => (
            FaultPlan {
                device_deaths: Some(vec![DeviceDeath {
                    device: 1.min(devices - 1),
                    at_attempt: 0,
                }]),
                ..FaultPlan::default()
            },
            RecoveryPolicy::default(),
        ),
        other => panic!("unknown plan {other}"),
    }
}

/// What one replay produced, in the oracle's terms.
struct Replay {
    result: ShardedResilientResult,
    instances_jsonl: Vec<String>,
    launch: String,
    trace: String,
}

fn replay(rec: &Record, traced: bool) -> Replay {
    let reg = DeviceRegistry::parse(&rec.fleet).unwrap();
    let mut fleet = DeviceFleet::from_registry(&reg);
    let placement: Placement = rec.placement.parse().unwrap();
    let (plan, policy) = plan_and_policy(&rec.plan, rec.n, reg.len() as u32);
    let mut obs = if traced {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    let lines = dgc_core::parse_arg_file("-n 60\n-n 120\n-n 40\n").unwrap();
    let result = run_ensemble_sharded_resilient_mem_aware(
        &mut fleet,
        &app(),
        &lines,
        &opts(rec.n),
        rec.batch,
        placement,
        &plan,
        &policy,
        &mut obs,
        rec.mem_aware,
    )
    .unwrap();
    // The CLI's rollup: recovery runs report the recovery story, plain
    // fleet runs the multi-device fields, plain one-device runs the
    // ensemble's own record.
    let launch = if rec.plan != "plain" {
        result.launch_metrics()
    } else {
        let mut lm = result.ensemble.launch_metrics();
        if result.devices > 1 {
            lm.kernel = format!("bench-x{}", rec.n);
            lm.devices = result.devices;
            lm.makespan_s = result.ensemble.total_time_s;
        }
        lm
    };
    let jsonl = metrics_jsonl(&result.ensemble.metrics, &launch);
    let mut lines: Vec<String> = jsonl.lines().map(str::to_string).collect();
    let launch = lines.pop().unwrap();
    Replay {
        result,
        instances_jsonl: lines,
        launch,
        trace: obs.to_chrome_trace(),
    }
}

/// Fields excluded from the comparison for `rec`, each with its reason.
fn exclusions(rec: &Record, got: &ShardedResilientResult) -> Vec<(&'static str, &'static str)> {
    let mut out = Vec::new();
    if rec.plan == "plain" && got.devices > 1 {
        out.push((
            "kernel_time_s",
            "a plain fleet run's kernel_time_s is the sum over lanes; the sched-sharded \
             driver reported the slowest lane's",
        ));
        out.push((
            "launch.kernel_time_s",
            "the launch record's kernel_time_s follows the run's (sum over lanes)",
        ));
        let mut per_lane = vec![0u32; got.devices as usize];
        for m in &got.ensemble.metrics {
            per_lane[m.device as usize] += 1;
        }
        if rec.batch > 0 && per_lane.iter().any(|&c| c > rec.batch) {
            let reason = "multi-chunk lanes on a fleet offset end times by the lane's \
                          elapsed time (and cap every chunk by capacity); the sched-sharded \
                          driver batched each lane with kernel-time offsets";
            out.push(("end_times", reason));
            out.push(("instances.end_time_s", reason));
            out.push(("launch.latency", reason));
        }
    }
    out
}

/// Compare one replay against its record; mismatches go to `diffs`.
fn compare(rec: &Record, got: &Replay, traced: bool, diffs: &mut Vec<String>) {
    let skip = exclusions(rec, &got.result);
    let excluded = |field: &str| skip.iter().any(|(f, _)| *f == field);
    let e = &got.result.ensemble;
    let mut check = |field: &str, same: bool| {
        if !same {
            diffs.push(format!(
                "{} n={} batch={} {} {} mem_aware={} traced={traced}: {field}",
                rec.fleet, rec.n, rec.batch, rec.placement, rec.plan, rec.mem_aware
            ));
        }
    };
    let outcomes: Vec<Outcome> = e
        .instances
        .iter()
        .map(|o| Outcome {
            exit_code: o.exit_code,
            error: o.error.clone(),
            oom: o.oom,
            timed_out: o.timed_out,
        })
        .collect();
    check("outcomes", outcomes == rec.outcomes);
    check("stdout", e.stdout == rec.stdout);
    if !excluded("end_times") {
        let ends: Vec<String> = e.instance_end_times_s.iter().map(|&t| bits(t)).collect();
        check("end_times", ends == rec.end_bits);
    }
    if !excluded("kernel_time_s") {
        check("kernel_time_s", bits(e.kernel_time_s) == rec.kernel_bits);
    }
    check("total_time_s", bits(e.total_time_s) == rec.total_bits);
    let per_device: Vec<String> = got
        .result
        .per_device_time_s
        .iter()
        .map(|&t| bits(t))
        .collect();
    check("per_device_time_s", per_device == rec.per_device_bits);
    check("dead_devices", got.result.dead_devices == rec.dead_devices);
    if rec.plan != "plain" {
        let s = &got.result.recovery;
        let recovery = Recovery {
            attempts: s.attempts,
            retried: s.retried,
            recovered: s.recovered,
            unrecovered: s.unrecovered,
            skipped: s.skipped,
            failures: s.failures,
            oom_failures: s.oom_failures,
            timeouts: s.timeouts,
            oom_splits: s.oom_splits,
            final_batch: s.final_batch,
            backoff_bits: bits(s.backoff_s),
        };
        check("recovery", Some(recovery) == rec.recovery);
    }
    let instances = if excluded("instances.end_time_s") {
        let text: String = got
            .instances_jsonl
            .iter()
            .map(|l| format!("{}\n", strip_end_time(l)))
            .collect();
        fnv1a(text.as_bytes()) == rec.instances_fnv_no_end
    } else {
        let text: String = got
            .instances_jsonl
            .iter()
            .map(|l| format!("{l}\n"))
            .collect();
        fnv1a(text.as_bytes()) == rec.instances_fnv
    };
    check("instances", instances);
    let launch_fields = |text: &str| -> Vec<(String, Value)> {
        let v: Value = serde_json::from_str(text).unwrap();
        v.as_object()
            .unwrap()
            .iter()
            .filter(|(k, _)| !excluded(&format!("launch.{k}")))
            .cloned()
            .collect()
    };
    check(
        "launch",
        launch_fields(&got.launch) == launch_fields(&rec.launch),
    );
    if traced {
        check("trace", fnv1a(got.trace.as_bytes()) == rec.trace_fnv);
    }
    check(
        "replay_makespan_s",
        bits(e.graph.replay_makespan_s()) == rec.replay_bits,
    );
}

#[test]
fn executor_replays_the_driver_oracle() {
    let text = include_str!("../../../results/driver_oracle.jsonl");
    let mut diffs = Vec::new();
    let mut records = 0;
    for line in text.lines() {
        let rec: Record = serde_json::from_str(line).unwrap();
        for traced in [false, true] {
            compare(&rec, &replay(&rec, traced), traced, &mut diffs);
        }
        records += 1;
    }
    assert_eq!(records, 756, "the oracle grid has 756 configurations");
    assert!(
        diffs.is_empty(),
        "{} mismatches:\n{}",
        diffs.len(),
        diffs.join("\n")
    );
}
