//! `serve-closed`: an in-process `dgc_serve::Daemon` driven as a closed
//! loop.
//!
//! The daemon has a fresh on-disk journal and the default `ServeConfig`
//! (thread limit 128, waves of at most 8 jobs, memory-aware). Eight
//! logical clients drive it from one thread: each submits its next job
//! only after its previous job's done record is journaled, which keeps
//! wave membership — and so the simulated work — identical on every run.
//! Client c sweeps app c % 4's three smoke-size argument lines, each eight
//! times in seeded order: 192 jobs in waves of two. It is the only
//! workload made of many small launches: each wave constructs a device,
//! compiles, spawns the RPC thread and fsyncs its done records, and the
//! daemon pilots every first-seen line. Waves stay opaque inside:
//! `ServeConfig.monitor` accepts only a `MonitorRegistry`, so no
//! benchmark sink can be attached. The traced pass resolves apps to their
//! wrapped `main`s (`ServeConfig.resolve`), which shows each launch,
//! pilots included, as it enters application code.

use crate::check::{self, Digest};
use crate::inputs::{self, Rng};
use crate::layers::Layers;
use crate::probe;
use crate::{Ctx, Pass};
use dgc_core::{EnsembleOptions, HostApp};
use dgc_obs::Recorder;
use dgc_sched::InstanceCosts;
use dgc_serve::{Applied, Daemon, ServeConfig, StreamOp};
use gpu_arch::GpuSpec;
use gpu_sim::Gpu;
use std::collections::{HashMap, VecDeque};

/// Each app's smoke-size argument lines.
const LINES: [(&str, [&str; 3]); 4] = [
    ("xsbench", ["-l 60 -g 16", "-l 40 -g 16", "-l 60 -g 12"]),
    (
        "rsbench",
        ["-l 60 -w 8 -p 2", "-l 40 -w 8 -p 2", "-l 60 -w 6 -p 2"],
    ),
    ("amgmk", ["-n 6 -s 4", "-n 5 -s 4", "-n 6 -s 3"]),
    (
        "pagerank",
        ["-v 500 -d 6 -i 3", "-v 400 -d 6 -i 3", "-v 500 -d 4 -i 3"],
    ),
];
/// Jobs per client: each of its app's three lines eight times.
const JOBS_PER_CLIENT: usize = 24;
const CLIENTS: usize = 8;
/// Set-ups per pass (see `crate::set_up`).
const SETUPS: usize = 2;

type Workload = (String, Vec<String>);

struct Setup {
    /// Each client's jobs, in submission order.
    queues: Vec<VecDeque<StreamOp>>,
    owner: HashMap<String, usize>,
    /// Host reference checksum and simulated warp-instructions (from the
    /// warm-up launch) of every distinct (app, args).
    expected: HashMap<Workload, (f64, f64)>,
    apps: Vec<HostApp>,
    journal: std::path::PathBuf,
    daemon: Daemon,
}

fn setup(ctx: &Ctx, traced: bool) -> Result<Setup, String> {
    // Client c sweeps app c % 4's lines in its own seeded order: two
    // clients per app, so waves are single-app pairs whatever the seed,
    // and the seed reorders work without changing any client's share.
    let mut rng = Rng::new(ctx.workload, ctx.variant);
    let per_client: Vec<Vec<(&str, &str)>> = (0..CLIENTS)
        .map(|c| {
            let (app, lines) = LINES[c % LINES.len()];
            let mut jobs: Vec<(&str, &str)> = (0..JOBS_PER_CLIENT)
                .map(|k| (app, lines[k % lines.len()]))
                .collect();
            rng.shuffle(&mut jobs);
            jobs
        })
        .collect();
    // Request j belongs to client j % CLIENTS, as its (j / CLIENTS)-th job.
    let requests: String = (0..CLIENTS * JOBS_PER_CLIENT)
        .map(|j| {
            let (app, args) = per_client[j % CLIENTS][j / CLIENTS];
            format!(
                "{{\"op\":\"submit\",\"job\":\"c{}-{:02}\",\"app\":\"{app}\",\"args\":\"{args}\"}}\n",
                j % CLIENTS,
                j / CLIENTS
            )
        })
        .collect();
    let text = inputs::through_file(&ctx.work.join("serve-closed.requests.jsonl"), &requests)?;
    let ops = dgc_serve::parse_ops(&text)?;
    let mut queues: Vec<VecDeque<StreamOp>> = vec![VecDeque::new(); CLIENTS];
    let mut owner = HashMap::new();
    for (j, op) in ops.into_iter().enumerate() {
        if let StreamOp::Submit(spec) = &op {
            owner.insert(spec.id.clone(), j % CLIENTS);
        }
        queues[j % CLIENTS].push_back(op);
    }

    let apps: Vec<HostApp> = dgc_apps::all_apps();
    let mut cfg = ServeConfig::default();
    if traced {
        cfg.resolve = probe::traced_by_name;
    }
    // Warm-up: every distinct workload once, alone, at the daemon's
    // thread limit; the launch also gives its simulated instruction count.
    let mut expected = HashMap::new();
    for (name, args) in LINES
        .iter()
        .flat_map(|(name, lines)| lines.iter().map(move |args| (*name, *args)))
    {
        let app = apps.iter().find(|a| a.name == name).ok_or("unknown app")?;
        let line = dgc_core::split_arg_line(args);
        let reference = check::reference(name, &line)?;
        let opts = EnsembleOptions {
            num_instances: 1,
            thread_limit: cfg.thread_limit,
            ..Default::default()
        };
        let res = dgc_core::run_ensemble(
            &mut Gpu::a100(),
            app,
            std::slice::from_ref(&line),
            &opts,
            Default::default(),
        )
        .map_err(|e| format!("warm-up {name} {args}: {e}"))?;
        if !check::checksum_ok(&res.stdout[0], reference) {
            return Err(format!("warm-up {name} {args}: wrong checksum"));
        }
        expected.insert(
            (name.to_string(), line),
            (reference, res.report.total_insts),
        );
    }

    let journal = ctx.work.join("serve-closed.journal");
    let _ = std::fs::remove_file(&journal);
    let daemon = Daemon::create(&journal, cfg).map_err(|e| format!("daemon: {e}"))?;
    Ok(Setup {
        queues,
        owner,
        expected,
        apps,
        journal,
        daemon,
    })
}

/// The clients' side of the closed loop: submission times, and in the
/// traced run the time spent in `Daemon::apply`.
#[derive(Default)]
struct Admissions {
    traced: bool,
    request: u64,
    submitted: HashMap<String, f64>,
    admit_s: f64,
}

impl Admissions {
    /// Submit `client`'s next job, if it has one left.
    fn submit(&mut self, s: &mut Setup, client: usize, spans: &mut Recorder) -> Result<(), String> {
        let Some(op) = s.queues[client].pop_front() else {
            return Ok(());
        };
        let StreamOp::Submit(spec) = &op else {
            return Err("request stream holds a non-submit op".into());
        };
        let a0 = probe::now();
        let applied = s.daemon.apply(&op).map_err(|e| format!("admission: {e}"))?;
        let a1 = probe::now();
        if applied != Applied::Admitted {
            return Err(format!("job {} not admitted: {applied:?}", spec.id));
        }
        self.submitted.insert(spec.id.clone(), a0);
        if self.traced {
            self.admit_s += a1 - a0;
            let name = format!("Daemon::apply {}", spec.id);
            probe::span(spans, "dgc-serve", &name, (a0, a1), None, self.request);
        }
        Ok(())
    }
}

pub fn pass(ctx: &Ctx, traced: bool, spans: &mut Recorder) -> Result<Pass, String> {
    let (mut s, setup_s) = crate::set_up(SETUPS, || setup(ctx, traced))?;

    // Side measurements for the traced split, outside the timed phase:
    // compile time per app, and a pilot of every workload, which the
    // daemon's own pilots are charged by.
    let mut compile: HashMap<&str, f64> = HashMap::new();
    let mut pilot: HashMap<Workload, f64> = HashMap::new();
    if traced {
        let times = probe::compile_times(&s.apps, spans, ctx.pass)?;
        compile = s.apps.iter().map(|a| a.name).zip(times).collect();
        let opts = EnsembleOptions {
            num_instances: 1,
            thread_limit: ServeConfig::default().thread_limit,
            ..Default::default()
        };
        let mut keys: Vec<&Workload> = s.expected.keys().collect();
        keys.sort();
        for key in keys {
            let app = s
                .apps
                .iter()
                .find(|a| a.name == key.0)
                .ok_or("unknown app")?;
            let t0 = probe::now();
            InstanceCosts::estimate(
                app,
                std::slice::from_ref(&key.1),
                &opts,
                &GpuSpec::a100_40gb(),
            )
            .map_err(|e| format!("pilot estimate: {e}"))?;
            let t1 = probe::now();
            let name = format!("InstanceCosts::estimate {}", key.0);
            probe::span(spans, "dgc-sched", &name, (t0, t1), None, ctx.pass);
            pilot.insert(key.clone(), t1 - t0);
        }
    }

    let mut admissions = Admissions {
        traced,
        request: ctx.pass,
        ..Admissions::default()
    };
    let mut latencies_s = Vec::new();
    // Each `run_pending_step` call: its interval and the jobs it ran.
    let mut steps: Vec<(f64, f64, usize)> = Vec::new();
    if traced {
        probe::arm();
    }
    let start = probe::now();
    for client in 0..CLIENTS {
        admissions.submit(&mut s, client, spans)?;
    }
    loop {
        let w0 = probe::now();
        let more = s
            .daemon
            .run_pending_step()
            .map_err(|e| format!("wave: {e}"))?;
        let w1 = probe::now();
        let done = if more {
            let last = s.daemon.state().waves.last();
            last.map(|w| w.jobs.clone()).unwrap_or_default()
        } else {
            Vec::new()
        };
        if traced {
            steps.push((w0, w1, done.len()));
            let name = "Daemon::run_pending_step";
            probe::span(spans, "dgc-serve", name, (w0, w1), None, ctx.pass);
        }
        if !more {
            break;
        }
        for id in done {
            latencies_s.push(w1 - admissions.submitted[&id]);
            let client = s.owner[&id];
            admissions.submit(&mut s, client, spans)?;
        }
    }
    let wall_s = probe::now() - start;
    let events = if traced { probe::disarm() } else { Vec::new() };

    let mut pass = Pass {
        setup_s,
        wall_s,
        latencies_s,
        ..Pass::default()
    };
    let summary = s.daemon.summary();
    let state = s.daemon.state();
    let mut digest = Digest::new();
    digest.word(summary.waves as u64);
    for job in &state.jobs {
        pass.attempted += 1;
        let Some(done) = state.result(&job.id) else {
            pass.failed += 1;
            pass.errors.push(format!("job {}: no done record", job.id));
            continue;
        };
        digest.str(&job.id);
        digest.word(u64::from(done.wave));
        digest.f64(done.end_s);
        digest.str(&done.stdout);
        let (reference, insts) = s.expected[&(job.app.clone(), job.args.clone())];
        if done.succeeded() && check::checksum_ok(&done.stdout, reference) {
            pass.completed += 1;
            pass.sim_insts += insts;
        } else {
            pass.failed += 1;
            pass.errors
                .push(format!("job {}: failed or wrong checksum", job.id));
        }
    }
    pass.digest = digest.finish();
    if summary.ok != summary.jobs || summary.jobs != CLIENTS * JOBS_PER_CLIENT {
        pass.errors.push(format!(
            "daemon summary: {} of {} jobs ok",
            summary.ok, summary.jobs
        ));
    }

    if traced {
        let jobs = state.jobs.len() as f64;
        let thread = probe::thread();
        // Every launch enters `main` at its instance 0; a step's last
        // entries are its wave's jobs, every entry before them a pilot.
        let (mut launches, mut compile_s, mut pilot_runs, mut pilot_s) = (0.0, 0.0, 0.0, 0.0);
        for &(w0, w1, ran) in &steps {
            let mains: Vec<(&str, u32, &Vec<String>)> = probe::within(&events, thread, w0, w1)
                .filter_map(|e| match &e.kind {
                    probe::Kind::Main {
                        app,
                        instance,
                        args,
                        ..
                    } => Some((*app, *instance, args)),
                    _ => None,
                })
                .collect();
            if mains.len() < ran {
                return Err(format!(
                    "a wave of {ran} jobs entered main {} times",
                    mains.len()
                ));
            }
            for &(app, instance, _) in &mains {
                if instance == 0 {
                    launches += 1.0;
                    compile_s += compile[app];
                }
            }
            for &(app, _, args) in &mains[..mains.len() - ran] {
                let key = (app.to_string(), args.clone());
                let t = pilot
                    .get(&key)
                    .ok_or_else(|| format!("the daemon piloted an unknown workload {key:?}"))?;
                pilot_runs += 1.0;
                pilot_s += t - compile[app];
            }
        }
        let mut l = Layers::default();
        l.set("frontend.launches", launches);
        l.set("frontend.compile_s", compile_s);
        l.set("gpu-sim.teams", jobs);
        l.set("gpu-sim.blocks", jobs);
        l.set("dgc-sched.pilot_runs", pilot_runs);
        l.set("dgc-sched.pilot_s", pilot_s);
        l.set("dgc-sched.pilot_hit_ratio", 1.0 - pilot_runs / jobs);
        l.set("dgc-sched.device_imbalance", 1.0);
        l.set("dgc-serve.admit_s", admissions.admit_s);
        let steps_s: f64 = steps.iter().map(|(w0, w1, _)| w1 - w0).sum();
        l.set("dgc-serve.wave_s", steps_s - compile_s - pilot_s);
        l.set("dgc-serve.waves", summary.waves as f64);
        l.set("dgc-serve.jobs_per_wave", jobs / summary.waves as f64);
        l.set("dgc-serve.journal_bytes", s.daemon.journal_bytes() as f64);
        l.finish(wall_s);
        pass.layers = Some(l);
    }
    let journal = s.journal.clone();
    drop(s);
    let _ = std::fs::remove_file(journal);
    Ok(pass)
}
