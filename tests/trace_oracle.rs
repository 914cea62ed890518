//! Replays `results/trace_oracle.jsonl`: the functional layer's output
//! (`TeamCtx`/`LaneCtx`, the heap's access path and the warp coalescer),
//! bit for bit.
//!
//! Two kinds of case, one JSON object per line:
//!
//! * **loader** — one team through `Loader { thread_limit, .. }`
//!   for each of the four apps at its `figure6 --smoke` line, plus the
//!   allocation-churn kernel below, at thread limits 32, 100 and 1024.
//!   A `loader` line holds the report's kernel cycles, instructions and
//!   sectors; each of the case's phases follows as a `phase` line with
//!   its label and every warp segment's fields (`f64`s as hex bits),
//!   with runs of identical segments stored once with their count.
//! * **ensemble** — rsbench and the churn kernel through the executor
//!   at N ∈ {1, 4, 16}, with the per-team free lists off and on
//!   (memory-aware), without faults on one device and, on two devices,
//!   with a plan that traps one instance and fails another's first RPC
//!   call on attempt 0. Each line holds the kernel cycles and, per
//!   instance, warp-instructions, sectors and end time.
//!
//! The churn kernel frees and reallocates device memory inside the
//! rounds it accesses it in, so a segment's region tags and footprints
//! pin *when* an access's region is resolved: at fold time, from the
//! region that holds the first active lane's address then.

use device_libc::{dl_malloc, dl_printf, dl_realloc};
use dgc_core::{AppContext, EnsembleOptions, HostApp, Loader};
use dgc_fault::{
    run_ensemble_sharded_resilient_mem_aware, FaultKind, FaultPlan, FaultSpec, RecoveryPolicy,
};
use dgc_obs::Recorder;
use dgc_sched::Placement;
use gpu_arch::GpuSpec;
use gpu_mem::DevicePtr;
use gpu_sim::{DeviceFleet, Gpu, KernelError, MixedSeg, TeamCtx};
use host_rpc::HostServices;

const CHURN_MODULE: &str = r#"
module "churn" {
  func @main arity=2 calls(@printf, @malloc, @realloc, @free)
  extern func @printf variadic
  extern func @malloc
  extern func @realloc
  extern func @free
}
"#;

fn flag(cx: &AppContext, name: &str, default: u64) -> u64 {
    cx.argv
        .iter()
        .position(|a| a == name)
        .and_then(|p| cx.argv.get(p + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Allocation churn: a serial `realloc` that frees the block it just
/// wrote (no later allocation fits its hole), and a `parallel_for` in
/// which every lane allocates, touches and (except each warp's last lane)
/// frees its own block in the same round. `-x 1` fails an iteration mid-round; `-x 2` fails the
/// closing serial region after its accesses.
fn churn_main(team: &mut TeamCtx<'_>, cx: &AppContext) -> Result<i32, KernelError> {
    let n = flag(cx, "-n", 200);
    let fault = flag(cx, "-x", 0);
    let table = team.serial("setup", |lane| {
        let a = dl_malloc(lane, 64)?;
        for k in 0..8 {
            lane.st_idx::<u64>(a, k, k)?;
        }
        let b = dl_realloc(lane, a, 64, 1024)?;
        let c = dl_malloc(lane, 2000)?;
        let last = lane.ld_idx::<u64>(b, 7)?;
        lane.st::<u64>(c, last)?;
        lane.dev_alloc(8 * n)
    })?;
    team.parallel_for("churn", n, |i, lane| {
        let p = lane.dev_alloc(64 + (i % 3) * 256)?;
        lane.st::<u64>(p, i)?;
        let v = lane.ld::<u64>(p)?;
        lane.st_idx::<u64>(table, i, v)?;
        if fault == 1 && i == n / 2 {
            return Err(KernelError::App("planted mid-round fault".into()));
        }
        if i % 32 != 31 {
            lane.dev_free(p)?;
        }
        Ok(())
    })?;
    let sum =
        team.parallel_for_reduce_f64("sum", n, |i, lane| Ok(lane.ld_idx::<u64>(table, i)? as f64))?;
    team.serial("report", |lane| {
        lane.st::<u64>(table, sum as u64)?;
        if fault == 2 {
            lane.ld::<u64>(DevicePtr(8))?;
        }
        dl_printf(lane, "churn sum %.1f\n", &[sum.into()])?;
        Ok(())
    })?;
    Ok(0)
}

fn churn_app() -> HostApp {
    HostApp::new("churn", CHURN_MODULE, churn_main)
}

fn words(line: &str) -> Vec<String> {
    line.split_whitespace().map(str::to_string).collect()
}

fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// Every field of one warp segment, `f64`s as bits.
fn seg_key(s: &MixedSeg) -> String {
    let tags: Vec<String> = s.region_tags.iter().map(|t| t.to_string()).collect();
    let fps: Vec<String> = s
        .region_footprints
        .iter()
        .map(|&(start, len)| format!("{start:x}+{len:x}"))
        .collect();
    format!(
        "{} {} {} {} [{}] [{}] {} {} {} {}",
        bits(s.insts),
        bits(s.moved_bytes),
        bits(s.useful_bytes),
        s.sectors,
        tags.join(","),
        fps.join(","),
        s.rpc_calls,
        bits(s.alloc_ops),
        bits(s.alloc_fast_ops),
        bits(s.stall_cycles)
    )
}

/// The loader cases: one `loader` line, then one `phase` line per phase.
fn loader_case(app: &HostApp, line: &str, thread_limit: u32, out: &mut Vec<String>) {
    let loader = Loader {
        thread_limit,
        ..Default::default()
    };
    let args = words(line);
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    let res = loader
        .run(&mut Gpu::a100(), app, &argv, HostServices::default())
        .unwrap();
    let case = format!("{} {line} tl{thread_limit}", app.name);
    let traces = res.block_traces;
    let phases = &traces[0].teams[0].phases;
    out.push(format!(
        r#"{{"kind":"loader","case":"{case}","trap":{},"cycles":"{}","insts":"{}","sectors":{},"phases":{}}}"#,
        res.trap.is_some(),
        bits(res.report.kernel_cycles),
        bits(res.report.total_insts),
        res.report.total_sectors,
        phases.len()
    ));
    for (i, phase) in phases.iter().enumerate() {
        let mut runs: Vec<(usize, String)> = Vec::new();
        for w in &phase.warps {
            let key = seg_key(w);
            match runs.last_mut() {
                Some((count, last)) if *last == key => *count += 1,
                _ => runs.push((1, key)),
            }
        }
        let warps: Vec<String> = runs
            .iter()
            .map(|(count, key)| format!(r#"[{count},"{key}"]"#))
            .collect();
        out.push(format!(
            r#"{{"kind":"phase","case":"{case}","phase":{i},"label":"{}","warps":[{}]}}"#,
            phase.label,
            warps.join(",")
        ));
    }
}

/// Attempt-0 faults: instance 0 traps, instance `n - 1` fails its first
/// RPC call (both hit instance 0 at N = 1).
fn fault_plan(n: u32) -> FaultPlan {
    FaultPlan {
        seed: 0,
        faults: vec![
            FaultSpec {
                instance: Some(0),
                attempt: Some(0),
                kind: FaultKind::Trap {
                    message: "planted trap".into(),
                },
            },
            FaultSpec {
                instance: Some(n - 1),
                attempt: Some(0),
                kind: FaultKind::RpcFail { after_calls: 0 },
            },
        ],
        device_deaths: None,
    }
}

fn ensemble_case(
    app: &HostApp,
    lines: &[&str],
    n: u32,
    mem_aware: bool,
    faults: bool,
    out: &mut Vec<String>,
) {
    let arg_lines: Vec<Vec<String>> = lines.iter().map(|l| words(l)).collect();
    let opts = EnsembleOptions {
        num_instances: n,
        thread_limit: 100,
        cycle_args: true,
        ..Default::default()
    };
    let (devices, plan, policy) = if faults {
        let policy = RecoveryPolicy {
            max_attempts: 3,
            oom_split: false,
            ..RecoveryPolicy::default()
        };
        (2, fault_plan(n), policy)
    } else {
        let policy = RecoveryPolicy {
            max_attempts: 1,
            oom_split: false,
            ..RecoveryPolicy::default()
        };
        (1, FaultPlan::default(), policy)
    };
    let mut fleet = DeviceFleet::homogeneous(GpuSpec::a100_40gb(), devices);
    let res = run_ensemble_sharded_resilient_mem_aware(
        &mut fleet,
        app,
        &arg_lines,
        &opts,
        0,
        Placement::Lpt,
        &plan,
        &policy,
        &mut Recorder::disabled(),
        mem_aware,
    )
    .unwrap();
    let e = &res.ensemble;
    let instances: Vec<String> = e
        .metrics
        .iter()
        .zip(&e.instances)
        .map(|(m, o)| {
            format!(
                r#"[{},"{}",{},"{}"]"#,
                o.succeeded(),
                bits(m.warp_insts),
                m.sectors,
                bits(m.end_time_s)
            )
        })
        .collect();
    out.push(format!(
        r#"{{"kind":"ensemble","case":"{} n{n} mem_aware={mem_aware} faults={faults}","cycles":"{}","kernel_time_s":"{}","instances":[{}]}}"#,
        app.name,
        bits(e.report.kernel_cycles),
        bits(e.kernel_time_s),
        instances.join(",")
    ));
}

/// Every oracle line, in file order.
fn oracle_lines() -> Vec<String> {
    let mut out = Vec::new();
    let smoke = [
        ("xsbench", "-l 60 -g 16"),
        ("rsbench", "-l 60 -w 8 -p 2"),
        ("amgmk", "-n 6 -s 4"),
        ("pagerank", "-v 500 -d 6 -i 3"),
    ];
    for thread_limit in [32, 100, 1024] {
        for (name, line) in smoke {
            let app = dgc_apps::app_by_name(name).unwrap();
            loader_case(&app, line, thread_limit, &mut out);
        }
        for line in ["-n 200", "-n 200 -x 1", "-n 200 -x 2"] {
            loader_case(&churn_app(), line, thread_limit, &mut out);
        }
    }
    let rsbench = dgc_apps::app_by_name("rsbench").unwrap();
    let rs_lines = ["-l 16 -w 4 -p 1", "-l 24 -w 8 -p 2", "-l 16 -w 12 -p 1"];
    let churn_lines = ["-n 96", "-n 160"];
    for n in [1, 4, 16] {
        for mem_aware in [false, true] {
            for faults in [false, true] {
                ensemble_case(&rsbench, &rs_lines, n, mem_aware, faults, &mut out);
                ensemble_case(&churn_app(), &churn_lines, n, mem_aware, faults, &mut out);
            }
        }
    }
    out
}

#[test]
fn functional_layer_replays_the_trace_oracle() {
    let text = include_str!("../results/trace_oracle.jsonl");
    let want: Vec<&str> = text.lines().collect();
    let got = oracle_lines();
    assert_eq!(got.len(), want.len(), "oracle line count");
    let diffs: Vec<String> = got
        .iter()
        .zip(&want)
        .enumerate()
        .filter(|(_, (g, w))| g != w)
        .map(|(i, (g, w))| format!("line {}:\n  want {w}\n  got  {g}", i + 1))
        .collect();
    assert!(
        diffs.is_empty(),
        "{} of {} lines differ; first ones:\n{}",
        diffs.len(),
        want.len(),
        diffs[..diffs.len().min(6)].join("\n")
    );
}
