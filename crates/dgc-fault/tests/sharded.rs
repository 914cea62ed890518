//! The executor on fleets: global-order merge across device lanes,
//! placement policies on heterogeneous fleets, and device deaths
//! re-sharding onto survivors.

mod common;

use common::*;
use dgc_fault::{
    run_ensemble_sharded_resilient_mem_aware, DeviceDeath, FaultKind, FaultPlan, FaultSpec,
    RecoveryPolicy, ShardedResilientResult,
};
use dgc_obs::{Recorder, DEVICE_PID_STRIDE};
use dgc_sched::Placement;
use gpu_arch::DeviceRegistry;
use gpu_sim::DeviceFleet;

fn lines() -> Vec<Vec<String>> {
    dgc_core::parse_arg_file("-n 60\n-n 120\n-n 40\n").unwrap()
}

/// Instance ids per device, as they last ran.
fn assignment(res: &ShardedResilientResult) -> Vec<Vec<u32>> {
    let mut shards = vec![Vec::new(); res.devices as usize];
    for m in &res.ensemble.metrics {
        shards[m.device as usize].push(m.instance);
    }
    shards
}

/// The slowest device's busy time.
fn makespan_s(res: &ShardedResilientResult) -> f64 {
    res.per_device_time_s.iter().cloned().fold(0.0, f64::max)
}

fn death_plan(device: u32, at_attempt: u32) -> FaultPlan {
    FaultPlan {
        seed: 0,
        faults: vec![],
        device_deaths: Some(vec![DeviceDeath { device, at_attempt }]),
    }
}

/// The acceptance criterion: kill one device mid-ensemble and everything
/// still completes — `unrecovered == 0`.
#[test]
fn dead_device_reshards_onto_survivors() {
    let reg = DeviceRegistry::parse("a100,a100").unwrap();
    let mut fleet = DeviceFleet::from_registry(&reg);
    let res = run_ensemble_sharded_resilient_mem_aware(
        &mut fleet,
        &app(),
        &lines(),
        &opts(8),
        0,
        Placement::RoundRobin,
        &death_plan(1, 0),
        &RecoveryPolicy::default(),
        &mut Recorder::disabled(),
        false,
    )
    .unwrap();

    assert!(res.all_succeeded(), "{:?}", res.ensemble.instances);
    assert_eq!(res.recovery.unrecovered, 0);
    assert_eq!(res.dead_devices, vec![1]);
    // Round-robin put the 4 odd instances on device 1; they all died,
    // re-sharded, and recovered.
    assert_eq!(res.recovery.retried, 4);
    assert_eq!(res.recovery.recovered, 4);
    assert_eq!(res.recovery.failures, 4);
    assert_eq!(res.recovery.attempts, 2);
    // Every instance ultimately ran on the surviving device 0.
    assert!(res.ensemble.metrics.iter().all(|m| m.device == 0));
    // The dead device charged no busy time after it died at round 0.
    assert_eq!(res.per_device_time_s[1], 0.0);
    assert!(res.per_device_time_s[0] > 0.0);
    let lm = res.launch_metrics();
    assert_eq!(lm.devices, 2);
    assert_eq!(lm.unrecovered, 0);
    assert_eq!(lm.makespan_s, res.ensemble.total_time_s);
}

#[test]
fn death_in_a_later_round_only_reshards_the_still_pending() {
    // Instance 2 traps on attempts 0 and 1 (recovers on 2); device 1
    // dies at attempt 1. Everything still completes.
    let mut plan = death_plan(1, 1);
    for a in [0, 1] {
        plan.faults.push(FaultSpec {
            instance: Some(2),
            attempt: Some(a),
            kind: FaultKind::Trap {
                message: "flaky".into(),
            },
        });
    }
    let reg = DeviceRegistry::parse("a100,a100").unwrap();
    let mut fleet = DeviceFleet::from_registry(&reg);
    let res = run_ensemble_sharded_resilient_mem_aware(
        &mut fleet,
        &app(),
        &lines(),
        &opts(6),
        0,
        Placement::RoundRobin,
        &plan,
        &RecoveryPolicy {
            max_attempts: 4,
            ..RecoveryPolicy::default()
        },
        &mut Recorder::disabled(),
        false,
    )
    .unwrap();
    assert!(res.all_succeeded(), "{:?}", res.ensemble.instances);
    assert_eq!(res.recovery.unrecovered, 0);
    assert_eq!(res.dead_devices, vec![1]);
}

#[test]
fn all_devices_dead_marks_the_rest_unrecovered() {
    let plan = FaultPlan {
        seed: 0,
        faults: vec![FaultSpec {
            instance: None,
            attempt: Some(0),
            kind: FaultKind::Trap {
                message: "all fail round 0".into(),
            },
        }],
        device_deaths: Some(vec![
            DeviceDeath {
                device: 0,
                at_attempt: 0,
            },
            DeviceDeath {
                device: 1,
                at_attempt: 0,
            },
        ]),
    };
    let reg = DeviceRegistry::parse("a100,a100").unwrap();
    let mut fleet = DeviceFleet::from_registry(&reg);
    let res = run_ensemble_sharded_resilient_mem_aware(
        &mut fleet,
        &app(),
        &lines(),
        &opts(4),
        0,
        Placement::RoundRobin,
        &plan,
        &RecoveryPolicy::default(),
        &mut Recorder::disabled(),
        false,
    )
    .unwrap();
    assert_eq!(res.recovery.unrecovered, 4);
    assert!(res
        .ensemble
        .instances
        .iter()
        .all(|o| o.error.as_deref() == Some("no live devices left in the fleet")));
}

/// Device death composes with cost-model placement: LPT on a
/// heterogeneous fleet still finishes everything after the fast device
/// dies.
#[test]
fn lpt_survives_losing_the_fast_device() {
    let reg = DeviceRegistry::parse("a100,a100*0.5").unwrap();
    let mut fleet = DeviceFleet::from_registry(&reg);
    let res = run_ensemble_sharded_resilient_mem_aware(
        &mut fleet,
        &app(),
        &lines(),
        &opts(6),
        0,
        Placement::Lpt,
        &death_plan(0, 0),
        &RecoveryPolicy::default(),
        &mut Recorder::disabled(),
        false,
    )
    .unwrap();
    assert!(res.all_succeeded(), "{:?}", res.ensemble.instances);
    assert_eq!(res.recovery.unrecovered, 0);
    assert_eq!(res.dead_devices, vec![0]);
    assert!(res.ensemble.metrics.iter().all(|m| m.device == 1));
}

#[test]
fn two_device_shard_merges_in_global_order() {
    let reg = DeviceRegistry::parse("a100,a100").unwrap();
    let mut fleet = DeviceFleet::from_registry(&reg);
    let mut obs = Recorder::enabled();
    let res = run_ensemble_sharded_resilient_mem_aware(
        &mut fleet,
        &app(),
        &lines(),
        &opts(6),
        0,
        Placement::RoundRobin,
        &FaultPlan::default(),
        &no_recovery(),
        &mut obs,
        false,
    )
    .unwrap();

    assert!(res.all_succeeded());
    assert_eq!(res.devices, 2);
    assert_eq!(assignment(&res), vec![vec![0, 2, 4], vec![1, 3, 5]]);
    // Instances keep their global ids and outputs despite the shuffle.
    // (The printed instance id is shard-local — each device numbers its
    // own launch — so we check the data payload, which depends on the
    // cycled argument line: sum 0..n-1 for -n 60/120/40.)
    let sums = ["1770.0", "7140.0", "780.0"];
    for (i, m) in res.ensemble.metrics.iter().enumerate() {
        assert_eq!(m.instance, i as u32);
        assert_eq!(m.device, (i % 2) as u32);
        assert!(
            res.ensemble.stdout[i].trim_end().ends_with(sums[i % 3]),
            "instance {i}: {:?}",
            res.ensemble.stdout[i]
        );
    }
    // Two identical devices, three instances each: both ran, and the
    // makespan is the slower of the two — not their sum.
    assert!(res.per_device_time_s.iter().all(|&t| t > 0.0));
    let sum: f64 = res.per_device_time_s.iter().sum();
    assert!(makespan_s(&res) < sum);
    assert_eq!(res.ensemble.total_time_s, makespan_s(&res));
    // The rollup carries the v4 fields.
    let lm = res.launch_metrics();
    assert_eq!(lm.devices, 2);
    assert_eq!(lm.makespan_s, makespan_s(&res));
    assert_eq!(lm.kernel, "bench-x6");
    // Each device's trace lands in its own lane group with a prefixed
    // process name.
    let pids: Vec<u32> = obs.events().iter().map(|e| e.pid).collect();
    assert!(pids.iter().any(|&p| p < DEVICE_PID_STRIDE));
    assert!(pids.iter().any(|&p| p >= DEVICE_PID_STRIDE));
    let trace = obs.to_chrome_trace();
    assert!(trace.contains("dev0 loader"), "missing dev0 lanes");
    assert!(trace.contains("dev1 loader"), "missing dev1 lanes");
}

#[test]
fn sharded_respects_one_line_per_instance_contract() {
    let reg = DeviceRegistry::parse("a100,a100").unwrap();
    let mut fleet = DeviceFleet::from_registry(&reg);
    let mut o = opts(6);
    o.cycle_args = false;
    let err = run_ensemble_sharded_resilient_mem_aware(
        &mut fleet,
        &app(),
        &lines(),
        &o,
        0,
        Placement::RoundRobin,
        &FaultPlan::default(),
        &no_recovery(),
        &mut Recorder::disabled(),
        false,
    )
    .expect_err("3 lines cannot feed 6 instances without --cycle-args");
    assert!(err.to_string().contains("--cycle-args"), "{err}");
}

/// The acceptance criterion: on a heterogeneous fleet, the informed
/// policies' makespan is no worse than round-robin's — and strictly
/// better when round-robin strands the big instance on the slow device.
#[test]
fn informed_policies_beat_round_robin_on_heterogeneous_fleet() {
    // Device 1 runs at quarter speed; instance 1 does ~50× the work of
    // the others. Round-robin sends odd instances (incl. the big one) to
    // the slow device; greedy/LPT keep the big instance on the fast one.
    let reg = DeviceRegistry::parse("a100,a100*0.25").unwrap();
    let arg_lines =
        dgc_core::parse_arg_file("-n 1000\n-n 50000\n-n 1000\n-n 1000\n-n 1000\n-n 1000\n")
            .unwrap();

    let mut makespans = std::collections::HashMap::new();
    for placement in Placement::all() {
        let mut fleet = DeviceFleet::from_registry(&reg);
        let res = run_ensemble_sharded_resilient_mem_aware(
            &mut fleet,
            &app(),
            &arg_lines,
            &opts(6),
            0,
            placement,
            &FaultPlan::default(),
            &no_recovery(),
            &mut Recorder::disabled(),
            false,
        )
        .unwrap();
        assert!(res.all_succeeded(), "{placement:?}");
        makespans.insert(placement.name(), makespan_s(&res));

        if placement.needs_costs() {
            // The big instance must sit on the fast device.
            assert!(
                assignment(&res)[0].contains(&1),
                "{placement:?} put the big instance on the slow device: {:?}",
                assignment(&res)
            );
        }
    }

    let rr = makespans["round-robin"];
    let greedy = makespans["greedy"];
    let lpt = makespans["lpt"];
    assert!(greedy <= rr, "greedy {greedy} vs round-robin {rr}");
    assert!(lpt <= rr, "lpt {lpt} vs round-robin {rr}");
    // The win is substantial, not a rounding artifact: round-robin pays
    // the big instance at quarter speed.
    assert!(lpt < rr * 0.75, "lpt {lpt} vs round-robin {rr}");
    assert!(greedy < rr * 0.75, "greedy {greedy} vs round-robin {rr}");
}

#[test]
fn empty_shard_devices_are_tolerated() {
    // 2 instances on 3 devices: one device idles and the merge still
    // yields every instance exactly once.
    let reg = DeviceRegistry::parse("a100,a100,a100").unwrap();
    let mut fleet = DeviceFleet::from_registry(&reg);
    let res = run_ensemble_sharded_resilient_mem_aware(
        &mut fleet,
        &app(),
        &lines(),
        &opts(2),
        0,
        Placement::RoundRobin,
        &FaultPlan::default(),
        &no_recovery(),
        &mut Recorder::disabled(),
        false,
    )
    .unwrap();
    assert!(res.all_succeeded());
    assert_eq!(res.ensemble.instances.len(), 2);
    assert_eq!(assignment(&res)[2], Vec::<u32>::new());
    assert_eq!(res.per_device_time_s[2], 0.0);
    assert!(makespan_s(&res) > 0.0);
}

/// xsbench `-l 60 -g 16` × 8 (one line, cycled) at thread limit 32 on
/// two A100s placed by LPT: every instance succeeds, and each device's
/// busy time is pinned bit for bit to the executor's recorded output.
#[test]
fn sharded_xsbench_x8_dev2_pins_per_device_time() {
    let mut fleet = DeviceFleet::homogeneous(gpu_arch::GpuSpec::a100_40gb(), 2);
    let line: Vec<String> = ["-l", "60", "-g", "16"].map(String::from).to_vec();
    let res = run_ensemble_sharded_resilient_mem_aware(
        &mut fleet,
        &dgc_apps::xsbench::app(),
        std::slice::from_ref(&line),
        &opts(8),
        0,
        Placement::Lpt,
        &FaultPlan::default(),
        &no_recovery(),
        &mut Recorder::disabled(),
        false,
    )
    .unwrap();
    assert!(res.all_succeeded(), "{:?}", res.ensemble.instances);
    // LPT splits the eight equal instances 4/4: 0.0009958152588890195 s
    // each, 2,808,199.03 simulated cycles in all at 1.41 GHz.
    let bits: Vec<u64> = res.per_device_time_s.iter().map(|t| t.to_bits()).collect();
    assert_eq!(bits, [0x3f5050c07e10f9c5, 0x3f5050c07e10f9c5]);
}
