//! `fig6-sweep`: the paper's Figure 6 at the `figure6 --smoke` sizes.
//!
//! Four apps × N ∈ {1, 2, 4, 8, 16, 32, 64} × thread limits 32 and 1024,
//! each configuration on a fresh A100 through `run_ensemble_traced`: 56
//! launches, first-fit heap, no pilots, no faults. PageRank from N = 8
//! hits the paper's device-memory wall by design. The seed shuffles the
//! order the configurations run in; their simulated numbers do not depend
//! on it.

use crate::check::{self, Digest};
use crate::inputs::{self, Rng};
use crate::layers::Layers;
use crate::probe;
use crate::{Ctx, Pass};
use dgc_core::{run_ensemble_traced, EnsembleOptions, EnsembleResult, HostApp};
use dgc_obs::Recorder;
use gpu_sim::Gpu;
use host_rpc::HostServices;

/// The `figure6 --smoke` argument line of each app.
const SMOKE: [(&str, &str); 4] = [
    ("xsbench", "-l 60 -g 16"),
    ("rsbench", "-l 60 -w 8 -p 2"),
    ("amgmk", "-n 6 -s 4"),
    ("pagerank", "-v 500 -d 6 -i 3"),
];
const COUNTS: [u32; 7] = [1, 2, 4, 8, 16, 32, 64];
const THREAD_LIMITS: [u32; 2] = [32, 1024];
/// PageRank's paper-scale footprint exhausts a 40 GB A100 from here on.
const PAGERANK_OOM_FROM: u32 = 8;
/// Set-ups per pass: set-up is short, so it is sampled more often than
/// the timed phase.
const SETUPS: usize = 6;

#[derive(Debug, Clone, Copy)]
struct Config {
    app: usize,
    n: u32,
    tl: u32,
}

struct Setup {
    apps: Vec<HostApp>,
    lines: Vec<Vec<String>>,
    references: Vec<f64>,
    configs: Vec<Config>,
}

fn setup(ctx: &Ctx) -> Result<Setup, String> {
    let text: String = SMOKE.iter().map(|(_, line)| format!("{line}\n")).collect();
    let lines = inputs::parse_arg_file(&ctx.work.join("fig6-sweep.args"), &text)?;
    let apps = SMOKE
        .iter()
        .map(|(name, _)| dgc_apps::app_by_name(name).ok_or(format!("unknown app {name}")))
        .collect::<Result<Vec<_>, _>>()?;
    let references = apps
        .iter()
        .zip(&lines)
        .map(|(app, line)| check::reference(app.name, line))
        .collect::<Result<Vec<_>, _>>()?;
    let mut configs: Vec<Config> = (0..apps.len())
        .flat_map(|app| {
            THREAD_LIMITS
                .iter()
                .flat_map(move |&tl| COUNTS.iter().map(move |&n| Config { app, n, tl }))
        })
        .collect();
    Rng::new(ctx.workload, ctx.variant).shuffle(&mut configs);
    // Warm-up: one single-instance launch per app, so first-touch costs
    // land in set-up rather than in the first configuration timed.
    for (i, app) in apps.iter().enumerate() {
        let line = std::slice::from_ref(&lines[i]);
        let res = run_one(
            &mut Gpu::a100(),
            app,
            line,
            1,
            32,
            &mut Recorder::disabled(),
        )?;
        if !check::checksum_ok(&res.stdout[0], references[i]) {
            return Err(format!("warm-up {}: wrong checksum", app.name));
        }
    }
    Ok(Setup {
        apps,
        lines,
        references,
        configs,
    })
}

/// One configuration; `line` is the single argument line every instance
/// reuses.
fn run_one(
    gpu: &mut Gpu,
    app: &HostApp,
    line: &[Vec<String>],
    n: u32,
    tl: u32,
    obs: &mut Recorder,
) -> Result<EnsembleResult, String> {
    let opts = EnsembleOptions {
        num_instances: n,
        thread_limit: tl,
        // The harness replicates one argument line across all instances.
        cycle_args: true,
        ..Default::default()
    };
    run_ensemble_traced(gpu, app, line, &opts, HostServices::default(), obs)
        .map_err(|e| format!("{} x{n} tl{tl}: {e}", app.name))
}

struct Outcome {
    cfg: Config,
    res: EnsembleResult,
    heap: gpu_mem::HeapStats,
    /// The `run_ensemble_traced` call.
    call: (f64, f64),
}

pub fn pass(ctx: &Ctx, traced: bool, spans: &mut Recorder) -> Result<Pass, String> {
    let (s, setup_s) = crate::set_up(SETUPS, || setup(ctx))?;

    let compile = if traced {
        probe::compile_times(&s.apps, spans, ctx.pass)?
    } else {
        Vec::new()
    };
    let apps = if traced {
        s.apps
            .iter()
            .map(probe::traced)
            .collect::<Result<Vec<_>, _>>()?
    } else {
        s.apps.clone()
    };

    if traced {
        probe::arm();
    }
    let start = probe::now();
    let mut outcomes = Vec::with_capacity(s.configs.len());
    // The unit of latency is one curve of the figure: an app at one thread
    // limit over every N. Single configurations (a few ms at small N) are
    // dominated by per-launch thread and device set-up, whose host time
    // swings far more from run to run than the simulation's.
    let mut latencies_s = vec![0.0; s.apps.len() * THREAD_LIMITS.len()];
    for &cfg in &s.configs {
        let t0 = probe::now();
        let mut gpu = Gpu::a100();
        let mut obs = Recorder::disabled();
        if traced {
            obs.set_monitor(probe::sink());
        }
        let c0 = probe::now();
        let line = std::slice::from_ref(&s.lines[cfg.app]);
        let res = run_one(&mut gpu, &apps[cfg.app], line, cfg.n, cfg.tl, &mut obs)?;
        let c1 = probe::now();
        let heap = gpu.mem.stats();
        drop(gpu);
        let curve = THREAD_LIMITS
            .iter()
            .position(|&tl| tl == cfg.tl)
            .unwrap_or(0);
        latencies_s[cfg.app * THREAD_LIMITS.len() + curve] += probe::now() - t0;
        outcomes.push(Outcome {
            cfg,
            res,
            heap,
            call: (c0, c1),
        });
    }
    let end = probe::now();
    let events = if traced { probe::disarm() } else { Vec::new() };

    let mut pass = Pass {
        setup_s,
        wall_s: end - start,
        latencies_s,
        ..Pass::default()
    };
    verify(&s, &mut outcomes, &mut pass);

    if traced {
        let mut l = Layers::default();
        let thread = probe::thread();
        let (mut functional, mut timing, mut compile_s, mut blocks, mut waves) =
            (0.0, 0.0, 0.0, 0.0, 0.0);
        let (mut teams, mut insts, mut sectors) = (0.0, 0.0, 0.0);
        let (mut allocs, mut recycled, mut fallbacks, mut peak) = (0.0, 0.0, 0.0, 0u64);
        for o in &outcomes {
            let name = format!(
                "run_ensemble_traced {} x{} tl{}",
                s.apps[o.cfg.app].name, o.cfg.n, o.cfg.tl
            );
            let parent = probe::span(spans, "core", &name, o.call, None, ctx.pass);
            let split = probe::split_call(&events, thread, o.call.0, o.call.1);
            probe::launch_spans(spans, &split, o.call.0, parent, ctx.pass);
            teams += split
                .launches
                .iter()
                .map(|l| f64::from(l.teams))
                .sum::<f64>();
            functional += split.functional_s();
            timing += split.timing_s();
            compile_s += compile[o.cfg.app] * split.launches.len() as f64;
            blocks += f64::from(o.res.report.blocks);
            waves += f64::from(o.res.report.waves);
            insts += o.res.metrics.iter().map(|m| m.warp_insts).sum::<f64>();
            sectors += o.res.metrics.iter().map(|m| m.sectors as f64).sum::<f64>();
            allocs += o.heap.total_allocations as f64;
            recycled += o.heap.recycled_allocations as f64;
            fallbacks += o.heap.alloc_fallbacks as f64;
            peak = peak.max(o.heap.peak_bytes_in_use);
        }
        let (calls, failures) = probe::rpc_totals(&events);
        l.set("frontend.launches", outcomes.len() as f64);
        l.set("frontend.compile_s", compile_s);
        l.set("gpu-sim.functional_s", functional);
        l.set("gpu-sim.timing_s", timing);
        l.set("gpu-sim.teams", teams);
        l.set("gpu-sim.warp_insts", insts);
        l.set("gpu-sim.sectors", sectors);
        l.set("gpu-sim.blocks", blocks);
        l.set("gpu-sim.waves", waves);
        l.set("gpu-mem.allocs", allocs);
        l.set("gpu-mem.recycled", recycled);
        l.set("gpu-mem.fallbacks", fallbacks);
        l.set("gpu-mem.peak_bytes", peak as f64);
        l.set("host-rpc.calls", calls as f64);
        l.set("host-rpc.errors", failures as f64);
        l.set("dgc-sched.device_imbalance", 1.0);
        l.finish(pass.wall_s);
        if failures != 0 {
            pass.errors
                .push(format!("{failures} RPC errors without injected faults"));
        }
        pass.layers = Some(l);
    }
    Ok(pass)
}

/// Check every instance, and digest the simulated numbers in a canonical
/// configuration order (independent of the seeded run order).
fn verify(s: &Setup, outcomes: &mut [Outcome], pass: &mut Pass) {
    outcomes.sort_by_key(|o| (o.cfg.app, o.cfg.tl, o.cfg.n));
    let mut digest = Digest::new();
    for o in outcomes.iter() {
        let Config { app, n, tl } = o.cfg;
        let name = s.apps[app].name;
        let expect_oom = name == "pagerank" && n >= PAGERANK_OOM_FROM;
        pass.attempted += u64::from(n);
        if o.res.any_oom() != expect_oom {
            pass.failed += u64::from(n);
            pass.errors.push(format!(
                "{name} x{n} tl{tl}: device OOM {} but expected {}",
                o.res.any_oom(),
                expect_oom
            ));
            continue;
        }
        digest.f64(o.res.kernel_time_s);
        digest.f64(o.res.total_time_s);
        for (i, inst) in o.res.instances.iter().enumerate() {
            digest.f64(o.res.instance_end_times_s[i]);
            digest.f64(o.res.metrics[i].warp_insts);
            digest.word(u64::from(inst.oom));
            if inst.oom {
                continue;
            }
            if inst.succeeded() && check::checksum_ok(&o.res.stdout[i], s.references[app]) {
                pass.completed += 1;
                pass.sim_insts += o.res.metrics[i].warp_insts;
            } else {
                pass.failed += 1;
                pass.errors.push(format!(
                    "{name} x{n} tl{tl} instance {i}: failed or wrong checksum"
                ));
            }
        }
    }
    pass.digest = digest.finish();
}
