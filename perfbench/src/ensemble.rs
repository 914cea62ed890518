//! `ensemble-1024`: the calls `ensemble-cli rsbench -f <args> -t 1024
//! --devices 2 --placement lpt --faults <plan> --max-attempts 3
//! --trace-out <t> --metrics-out <m> --quiet` makes.
//!
//! 1024 rsbench instances at thread limit 1024 over 32 distinct argument
//! lines (each used 32 times, in seeded order), a two-device fleet with
//! LPT placement and memory-aware packing, and a seeded fault plan whose
//! traps and first-call RPC failures fire only on attempt 0, so every
//! instance recovers on the retry round. Then Chrome-trace and
//! metrics-JSONL export. It is the only workload with hundreds of live
//! instances per launch, and the only one through pilots, placement,
//! retry rounds, the free-list heap and the exporters.

use crate::check::{self, Digest};
use crate::inputs::{self, Rng};
use crate::layers::Layers;
use crate::probe;
use crate::{Ctx, Pass};
use dgc_core::{EnsembleOptions, HostApp};
use dgc_fault::{
    run_ensemble_sharded_resilient_mem_aware, FaultKind, FaultPlan, FaultSpec, RecoveryPolicy,
};
use dgc_obs::{metrics_jsonl, Recorder};
use dgc_sched::{InstanceCosts, Placement};
use gpu_arch::GpuSpec;
use gpu_sim::{DeviceFleet, Gpu};
use std::collections::HashMap;

const LOOKUPS: [u32; 4] = [16, 24, 32, 40];
const WINDOWS: [u32; 4] = [4, 8, 12, 16];
const POLES: [u32; 2] = [1, 2];
/// Copies of each distinct line: 32 lines × 32 = 1024 instances.
const COPIES: usize = 32;
const THREAD_LIMIT: u32 = 1024;
const DEVICES: u32 = 2;
/// Instances trapped on attempt 0, and instances whose first RPC call
/// fails on attempt 0.
const TRAPS: usize = 16;
const RPC_FAILS: usize = 16;
/// Set-ups per pass (see `crate::set_up`).
const SETUPS: usize = 4;

struct Setup {
    app: HostApp,
    lines: Vec<Vec<String>>,
    references: HashMap<Vec<String>, f64>,
    plan: FaultPlan,
    fleet: DeviceFleet,
}

fn setup(ctx: &Ctx) -> Result<Setup, String> {
    let mut rng = Rng::new(ctx.workload, ctx.variant);
    let mut text_lines: Vec<String> = LOOKUPS
        .iter()
        .flat_map(|l| {
            WINDOWS
                .iter()
                .flat_map(move |w| POLES.iter().map(move |p| format!("-l {l} -w {w} -p {p}")))
        })
        .flat_map(|line| std::iter::repeat_n(line, COPIES))
        .collect();
    rng.shuffle(&mut text_lines);
    let lines = inputs::parse_arg_file(
        &ctx.work.join("ensemble-1024.args"),
        &(text_lines.join("\n") + "\n"),
    )?;

    let mut victims: Vec<u32> = (0..lines.len() as u32).collect();
    rng.shuffle(&mut victims);
    let faults = victims[..TRAPS + RPC_FAILS]
        .iter()
        .enumerate()
        .map(|(k, &instance)| FaultSpec {
            instance: Some(instance),
            attempt: Some(0),
            kind: if k < TRAPS {
                FaultKind::Trap {
                    message: format!("seeded trap on instance {instance}"),
                }
            } else {
                FaultKind::RpcFail { after_calls: 0 }
            },
        })
        .collect();
    let plan_text = FaultPlan {
        seed: ctx.variant,
        faults,
        device_deaths: None,
    }
    .to_json();
    let plan = FaultPlan::from_json(&inputs::through_file(
        &ctx.work.join("ensemble-1024.plan.json"),
        &plan_text,
    )?)?;

    let app = dgc_apps::app_by_name("rsbench").ok_or("rsbench is not registered")?;
    let mut references = HashMap::new();
    for line in &lines {
        if !references.contains_key(line) {
            references.insert(line.clone(), check::reference(app.name, line)?);
        }
    }
    let fleet = DeviceFleet::homogeneous(GpuSpec::a100_40gb(), DEVICES);

    // Warm-up: every distinct line once, in one launch on a scratch device.
    let mut distinct: Vec<Vec<String>> = references.keys().cloned().collect();
    distinct.sort();
    let opts = EnsembleOptions {
        num_instances: distinct.len() as u32,
        thread_limit: THREAD_LIMIT,
        ..Default::default()
    };
    let warm = dgc_core::run_ensemble(&mut Gpu::a100(), &app, &distinct, &opts, Default::default())
        .map_err(|e| format!("warm-up: {e}"))?;
    for (i, line) in distinct.iter().enumerate() {
        if !check::checksum_ok(&warm.stdout[i], references[line]) {
            return Err(format!("warm-up {line:?}: wrong checksum"));
        }
    }
    Ok(Setup {
        app,
        lines,
        references,
        plan,
        fleet,
    })
}

pub fn pass(ctx: &Ctx, traced: bool, spans: &mut Recorder) -> Result<Pass, String> {
    let (s, setup_s) = crate::set_up(SETUPS, || setup(ctx))?;

    let opts = EnsembleOptions {
        num_instances: s.lines.len() as u32,
        thread_limit: THREAD_LIMIT,
        ..Default::default()
    };
    let policy = RecoveryPolicy {
        max_attempts: 3,
        oom_split: false,
        ..Default::default()
    };
    let placement: Placement = "lpt".parse().map_err(|e| format!("{e}"))?;

    // Side measurements for the traced split, outside the timed phase:
    // compile time, and a pilot of each distinct line, which the driver's
    // own pilots are charged by.
    let mut compile = 0.0;
    let mut pilot_time: HashMap<&Vec<String>, f64> = HashMap::new();
    if traced {
        compile = probe::compile_times(std::slice::from_ref(&s.app), spans, ctx.pass)?[0];
        let mut distinct: Vec<&Vec<String>> = s.references.keys().collect();
        distinct.sort();
        for line in distinct {
            let t0 = probe::now();
            InstanceCosts::estimate(
                &s.app,
                std::slice::from_ref(line),
                &opts,
                &GpuSpec::a100_40gb(),
            )
            .map_err(|e| format!("pilot estimate: {e}"))?;
            let t1 = probe::now();
            let name = "InstanceCosts::estimate";
            probe::span(spans, "dgc-sched", name, (t0, t1), None, ctx.pass);
            pilot_time.insert(line, t1 - t0);
        }
    }
    let app = if traced {
        probe::traced(&s.app)?
    } else {
        s.app.clone()
    };
    let mut fleet = s.fleet;
    let mut obs = Recorder::enabled();
    if traced {
        obs.set_monitor(probe::sink());
        probe::arm();
    }
    let trace_path = ctx.work.join("ensemble-1024.trace.json");
    let metrics_path = ctx.work.join("ensemble-1024.metrics.jsonl");

    let t0 = probe::now();
    let r = run_ensemble_sharded_resilient_mem_aware(
        &mut fleet, &app, &s.lines, &opts, 0, placement, &s.plan, &policy, &mut obs, true,
    )
    .map_err(|e| format!("ensemble: {e}"))?;
    let t1 = probe::now();
    let trace = obs.to_chrome_trace();
    let t2 = probe::now();
    let jsonl = metrics_jsonl(&r.ensemble.metrics, &r.launch_metrics());
    dgc_obs::write_atomic(&trace_path, &trace).map_err(|e| format!("trace export: {e}"))?;
    dgc_obs::write_atomic(&metrics_path, &jsonl).map_err(|e| format!("metrics export: {e}"))?;
    let t3 = probe::now();
    let events = if traced { probe::disarm() } else { Vec::new() };

    let mut pass = Pass {
        setup_s,
        wall_s: t3 - t0,
        latencies_s: vec![t3 - t0],
        attempted: s.lines.len() as u64,
        ..Pass::default()
    };
    let e = &r.ensemble;
    let mut digest = Digest::new();
    digest.f64(e.kernel_time_s);
    digest.f64(e.total_time_s);
    for (i, inst) in e.instances.iter().enumerate() {
        digest.f64(e.instance_end_times_s[i]);
        digest.f64(e.metrics[i].warp_insts);
        digest.word(u64::from(inst.exit_code.unwrap_or(-1) as u32));
        if inst.succeeded() && check::checksum_ok(&e.stdout[i], s.references[&s.lines[i]]) {
            pass.completed += 1;
            pass.sim_insts += e.metrics[i].warp_insts;
        } else {
            pass.failed += 1;
            pass.errors
                .push(format!("instance {i}: failed or wrong checksum"));
        }
    }
    for &t in &r.per_device_time_s {
        digest.f64(t);
    }
    let rec = &r.recovery;
    for w in [rec.attempts, rec.retried, rec.recovered, rec.unrecovered] {
        digest.word(u64::from(w));
    }
    pass.digest = digest.finish();
    if rec.recovered as usize != TRAPS + RPC_FAILS || rec.unrecovered != 0 {
        pass.errors.push(format!(
            "recovery: {} recovered and {} unrecovered, expected {} and 0",
            rec.recovered,
            rec.unrecovered,
            TRAPS + RPC_FAILS
        ));
    }

    if traced {
        let call = "run_ensemble_sharded_resilient_mem_aware";
        let parent = probe::span(spans, "dgc-fault", call, (t0, t1), None, ctx.pass);
        let export = "Recorder::to_chrome_trace";
        probe::span(spans, "dgc-obs", export, (t1, t2), None, ctx.pass);
        let write = "metrics_jsonl + write_atomic";
        probe::span(spans, "dgc-obs", write, (t2, t3), None, ctx.pass);
        let thread = probe::thread();
        let split = probe::split_call(&events, thread, t0, t1);
        probe::launch_spans(spans, &split, t0, parent, ctx.pass);
        // The driver's pilots: its launches outside the caller's recorder.
        let mut pilot_s = 0.0;
        let pilots = probe::unmonitored_mains(&events, thread, t0, t1);
        for e in &pilots {
            let probe::Kind::Main { args, .. } = &e.kind else {
                unreachable!("unmonitored_mains returns main entries")
            };
            pilot_s += pilot_time
                .get(args)
                .ok_or_else(|| format!("the driver piloted a line never seen: {args:?}"))?
                - compile;
        }
        let pilot_runs = pilots.len() as f64;
        let launches = split.launches.len() as f64;
        let (calls, failures) = probe::rpc_totals(&events);
        let mut l = Layers::default();
        l.set("frontend.launches", launches + pilot_runs);
        l.set("frontend.compile_s", compile * (launches + pilot_runs));
        l.set("gpu-sim.functional_s", split.functional_s());
        l.set("gpu-sim.timing_s", split.timing_s());
        l.set(
            "gpu-sim.teams",
            split.launches.iter().map(|l| f64::from(l.teams)).sum(),
        );
        l.set(
            "gpu-sim.warp_insts",
            e.metrics.iter().map(|m| m.warp_insts).sum(),
        );
        l.set(
            "gpu-sim.sectors",
            e.metrics.iter().map(|m| m.sectors as f64).sum(),
        );
        let nodes: Vec<_> = e.graph.launches().collect();
        l.set(
            "gpu-sim.blocks",
            nodes
                .iter()
                .map(|n| {
                    n.instances
                        .len()
                        .div_ceil(n.teams_per_block.max(1) as usize) as f64
                })
                .sum(),
        );
        l.set(
            "gpu-sim.waves",
            nodes.iter().map(|n| f64::from(n.waves)).sum(),
        );
        let heaps: Vec<_> = (0..fleet.len()).map(|d| fleet.gpu(d).mem.stats()).collect();
        l.set(
            "gpu-mem.allocs",
            heaps.iter().map(|h| h.total_allocations as f64).sum(),
        );
        l.set(
            "gpu-mem.recycled",
            heaps.iter().map(|h| h.recycled_allocations as f64).sum(),
        );
        l.set(
            "gpu-mem.fallbacks",
            heaps.iter().map(|h| h.alloc_fallbacks as f64).sum(),
        );
        l.set(
            "gpu-mem.peak_bytes",
            heaps.iter().map(|h| h.peak_bytes_in_use).max().unwrap_or(0) as f64,
        );
        l.set("host-rpc.calls", calls as f64);
        l.set("host-rpc.errors", failures as f64);
        l.set("dgc-sched.pilot_runs", pilot_runs);
        l.set("dgc-sched.pilot_s", pilot_s);
        l.set(
            "dgc-sched.pilot_hit_ratio",
            1.0 - pilot_runs / s.lines.len() as f64,
        );
        let per_device = &r.per_device_time_s;
        let mean = per_device.iter().sum::<f64>() / per_device.len() as f64;
        l.set(
            "dgc-sched.device_imbalance",
            per_device.iter().copied().fold(0.0, f64::max) / mean,
        );
        l.set("dgc-fault.rounds", f64::from(rec.attempts));
        l.set("dgc-fault.retried", f64::from(rec.retried));
        l.set("dgc-fault.recovered", f64::from(rec.recovered));
        l.set("dgc-fault.unrecovered", f64::from(rec.unrecovered));
        l.set(
            "dgc-fault.relaunch_ratio",
            nodes.iter().map(|n| n.instances.len() as f64).sum::<f64>() / s.lines.len() as f64,
        );
        l.set("dgc-obs.export_s", t3 - t1);
        l.set("dgc-obs.trace_events", obs.events().len() as f64);
        l.set("dgc-obs.export_bytes", (trace.len() + jsonl.len()) as f64);
        l.finish(pass.wall_s);
        if failures as usize != RPC_FAILS {
            pass.errors.push(format!(
                "{failures} RPC errors, expected the {RPC_FAILS} injected"
            ));
        }
        pass.layers = Some(l);
    }
    Ok(pass)
}
