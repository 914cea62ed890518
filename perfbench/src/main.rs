//! perfbench: the repository's benchmark.
//!
//! ```text
//! perfbench [--dir <perfbench dir>] --workload <fig6-sweep|ensemble-1024|serve-closed> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench [--dir <perfbench dir>] --record
//! ```
//!
//! `--dir` (default: the package directory it was built from) holds
//! `baseline.json` and the `work/` directory for generated inputs,
//! exports and spans.
//!
//! A run repeats passes of one workload for `--seconds` (at least
//! [`MIN_PASSES`]). Each pass sets up from scratch — input generation and
//! parsing, device, fleet or daemon construction, warm-up launches — and
//! then runs the timed phase: a fixed amount of work, so no end-to-end
//! metric is set by the run length. Every pass checks every output:
//! checksums against the apps' host references, the expected OOMs, the
//! daemon's summary, and a digest over every simulated number, which must
//! equal the digest recorded in `baseline.json` for the seed's input
//! variant.
//!
//! With `--trace 0` the last stdout line reports the end-to-end metrics
//! (medians over passes). With `--trace 1` untraced and traced passes
//! alternate; the traced ones split host time across the simulator's
//! modules from the benchmark's own calls into them (see [`probe`]) and
//! the line reports the per-layer metrics of [`layers::METRICS`], the
//! spans are written to `work/<workload>-seed<n>.spans.json`, and every
//! deterministic count must repeat exactly across passes and equal the
//! count recorded in `baseline.json`.
//!
//! `--record` runs every workload on every input variant and writes the
//! digests and counts to `baseline.json`.

mod check;
mod ensemble;
mod fig6;
mod inputs;
mod layers;
mod probe;
mod serve;
mod stats;

use dgc_obs::Recorder;
use layers::{Kind, Layers, METRICS};
use serde::Value;
use stats::median;
use std::path::{Path, PathBuf};
use std::time::Instant;

const WORKLOADS: [&str; 3] = ["fig6-sweep", "ensemble-1024", "serve-closed"];
const MIN_PASSES: usize = 3;
const MIN_TRACED_PASSES: usize = 2;
/// How far the traced shares may miss the traced wall time.
const SHARE_TOLERANCE: f64 = 0.03;

/// What a pass needs to know about its run.
pub struct Ctx {
    pub workload: &'static str,
    pub variant: u64,
    pub work: PathBuf,
    /// Pass number within the run; spans of one pass share it.
    pub pass: u64,
}

/// What one pass measured.
#[derive(Default)]
pub struct Pass {
    /// Host time of each set-up this pass made.
    pub setup_s: Vec<f64>,
    pub wall_s: f64,
    /// Instances (or jobs) attempted, and those that failed or printed a
    /// wrong checksum. Expected OOMs are neither completed nor failed.
    pub attempted: u64,
    pub failed: u64,
    /// Instances (or jobs) completed with a verified checksum.
    pub completed: u64,
    /// Simulated warp-instructions of the completed instances.
    pub sim_insts: f64,
    /// Host turnaround of each unit of work: a Figure 6 curve, the whole
    /// ensemble run, or a job.
    pub latencies_s: Vec<f64>,
    pub digest: u64,
    pub layers: Option<Layers>,
    /// Output-check failures, one line each.
    pub errors: Vec<String>,
}

/// Run a workload's set-up `n` times, keeping the last result: set-up is
/// much shorter than the timed phase, so a run samples it more often.
pub fn set_up<T>(
    n: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n.max(1) {
        let t = probe::now();
        last = Some(f()?);
        times.push(probe::now() - t);
    }
    Ok((last.expect("at least one set-up ran"), times))
}

fn run_pass(ctx: &Ctx, traced: bool, spans: &mut Recorder) -> Result<Pass, String> {
    match ctx.workload {
        "fig6-sweep" => fig6::pass(ctx, traced, spans),
        "ensemble-1024" => ensemble::pass(ctx, traced, spans),
        _ => serve::pass(ctx, traced, spans),
    }
}

struct Options {
    /// The benchmark's directory: `baseline.json` and `work/` live there.
    dir: PathBuf,
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Command {
    Run(Options),
    Record(PathBuf),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    // The package directory as built, unless `run.py` names the one it
    // runs from.
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut rest: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--dir" {
            dir = PathBuf::from(it.next().ok_or("--dir needs a value")?);
        } else {
            rest.push(arg);
        }
    }
    if rest == ["--record"] {
        return Ok(Command::Record(dir));
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = rest.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(*WORKLOADS.iter().find(|w| *w == value).ok_or_else(bad)?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Command::Run(Options {
        dir,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&args) {
        Ok(Command::Run(o)) => run(&o).map(|line| println!("{line}")),
        Ok(Command::Record(dir)) => record(&dir),
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench [--dir <perfbench dir>] --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       perfbench [--dir <perfbench dir>] --record",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn work_dir(dir: &Path) -> Result<PathBuf, String> {
    let work = dir.join("work");
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    Ok(work)
}

fn run(o: &Options) -> Result<String, String> {
    let baseline = Baseline::load(&o.dir.join("baseline.json"))?;
    let mut ctx = Ctx {
        workload: o.workload,
        variant: o.seed % inputs::VARIANTS,
        work: work_dir(&o.dir)?,
        pass: 0,
    };
    let mut spans = Recorder::enabled();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let started = Instant::now();
    loop {
        let enough = if o.trace {
            traced.len() >= MIN_TRACED_PASSES
        } else {
            untraced.len() >= MIN_PASSES
        };
        if enough && started.elapsed().as_secs_f64() >= o.seconds {
            break;
        }
        untraced.push(run_pass(&ctx, false, &mut spans)?);
        ctx.pass += 1;
        if o.trace {
            traced.push(run_pass(&ctx, true, &mut spans)?);
            ctx.pass += 1;
        }
    }

    let mut errors: Vec<String> = Vec::new();
    let recorded = baseline.entry(o.workload, ctx.variant);
    for p in untraced.iter().chain(&traced) {
        errors.extend(p.errors.iter().cloned());
        match &recorded {
            Some((digest, _)) if *digest == p.digest => {}
            Some((digest, _)) => errors.push(format!(
                "simulated digest {:016x} differs from the recorded {digest:016x}",
                p.digest
            )),
            None => errors.push(format!(
                "no digest recorded for {} variant {}",
                o.workload, ctx.variant
            )),
        }
    }
    let walls: Vec<String> = untraced
        .iter()
        .map(|p| format!("{:.3}", p.wall_s))
        .collect();
    eprintln!("perfbench: untraced pass wall_s [{}]", walls.join(", "));
    let attempted: u64 = untraced.iter().chain(&traced).map(|p| p.attempted).sum();
    let failed: u64 = untraced.iter().chain(&traced).map(|p| p.failed).sum();
    eprintln!(
        "perfbench: {} seed {} (input variant {}): {} untraced + {} traced passes in {:.1} s",
        o.workload,
        o.seed,
        ctx.variant,
        untraced.len(),
        traced.len(),
        started.elapsed().as_secs_f64()
    );

    let metrics = if o.trace {
        let metrics = per_layer(
            &untraced,
            &traced,
            recorded.as_ref().map(|r| &r.1),
            &mut errors,
        );
        let path = ctx
            .work
            .join(format!("{}-seed{}.spans.json", o.workload, o.seed));
        std::fs::write(&path, spans.to_chrome_trace())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!(
            "perfbench: wrote {} spans to {}",
            spans.events().len(),
            path.display()
        );
        metrics
    } else {
        end_to_end(&untraced)?
    };
    for e in errors.iter().take(20) {
        eprintln!("perfbench: check failed: {e}");
    }
    let metrics = metrics
        .into_iter()
        .map(|(name, value, unit)| {
            if !value.is_finite() {
                return Err(format!("{name} is not finite: {value}"));
            }
            let v = Value::Object(vec![
                ("value".into(), Value::F64(value)),
                ("unit".into(), Value::Str(unit.into())),
            ]);
            Ok((name.to_string(), v))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(errors.is_empty())),
        ("attempted".into(), Value::U64(attempted)),
        ("failed".into(), Value::U64(failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&result).map_err(|e| format!("result: {e}"))
}

type Metric = (&'static str, f64, &'static str);

fn end_to_end(passes: &[Pass]) -> Result<Vec<Metric>, String> {
    let of = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    // Each pass's latency percentiles over its units (Figure 6 curves, the
    // ensemble run, jobs), then their medians over passes like every
    // other metric.
    let units = passes[0].latencies_s.len();
    let (_, pct) = stats::tail(&passes[0].latencies_s);
    let p50 = of(&|p| median(&p.latencies_s));
    let tail = of(&|p| stats::tail(&p.latencies_s).0);
    eprintln!(
        "perfbench: latency_tail_s is the median over {} passes of each pass's p{pct:.1} of {units} units",
        passes.len()
    );
    Ok(vec![
        ("wall_s", of(&|p| p.wall_s), "s"),
        (
            "setup_s",
            median(
                &passes
                    .iter()
                    .flat_map(|p| p.setup_s.clone())
                    .collect::<Vec<_>>(),
            ),
            "s",
        ),
        (
            "instances_per_s",
            of(&|p| p.completed as f64 / p.wall_s),
            "1/s",
        ),
        ("sim_insts_per_s", of(&|p| p.sim_insts / p.wall_s), "1/s"),
        ("peak_rss_mb", peak_rss_mb()?, "MiB"),
        ("latency_p50_s", p50, "s"),
        ("latency_tail_s", tail, "s"),
    ])
}

/// Peak resident set of this process, which runs the simulation.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or("no VmHWM in /proc/self/status".into())
}

fn per_layer(
    untraced: &[Pass],
    traced: &[Pass],
    recorded_counts: Option<&Vec<(String, f64)>>,
    errors: &mut Vec<String>,
) -> Vec<Metric> {
    let layers: Vec<&Layers> = traced.iter().filter_map(|p| p.layers.as_ref()).collect();
    let traced_wall = median(&traced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let untraced_wall = median(&untraced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let mut out = Vec::new();
    for &(name, unit, kind) in METRICS {
        let values: Vec<f64> = layers.iter().map(|l| l.get(name)).collect();
        let value = if name == "trace_overhead" {
            traced_wall / untraced_wall - 1.0
        } else {
            median(&values)
        };
        if kind == Kind::Exact {
            if values.iter().any(|v| *v != values[0]) {
                errors.push(format!(
                    "{name} differs between passes of one seed: {values:?}"
                ));
            }
            match recorded_counts.and_then(|c| c.iter().find(|(n, _)| n == name)) {
                Some((_, r)) if *r == value => {}
                Some((_, r)) => errors.push(format!("count {name} is {value}, recorded {r}")),
                None => errors.push(format!("count {name} has no recorded value")),
            }
        }
        out.push((name, value, unit));
    }
    for l in &layers {
        let wall = l.shares_sum();
        if l.get("core.other_s") < -SHARE_TOLERANCE * wall {
            errors.push(format!(
                "attributed shares overrun the traced wall time {wall:.4} s by {:.4} s",
                -l.get("core.other_s")
            ));
        }
    }
    let mut shares: Vec<&Metric> = out.iter().filter(|m| m.2 == "s").collect();
    let sum: f64 = shares.iter().map(|m| m.1).sum();
    if (sum - traced_wall).abs() > SHARE_TOLERANCE * traced_wall {
        errors.push(format!(
            "median shares sum to {sum:.4} s, traced wall_s is {traced_wall:.4} s"
        ));
    }
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    let ranking: Vec<String> = shares
        .iter()
        .map(|m| format!("{} {:.1}%", m.0, 100.0 * m.1 / traced_wall))
        .collect();
    eprintln!(
        "perfbench: traced wall_s {traced_wall:.4} (untraced {untraced_wall:.4}); shares sum {sum:.4}: {}",
        ranking.join(", ")
    );
    out
}

/// Digests and counts recorded per workload and input variant.
struct Baseline(Value);

type Entry = (u64, Vec<(String, f64)>);

impl Baseline {
    fn load(path: &Path) -> Result<Baseline, String> {
        match std::fs::read_to_string(path) {
            Ok(text) => serde_json::from_str(&text)
                .map(Baseline)
                .map_err(|e| format!("{}: {e}", path.display())),
            Err(_) => Ok(Baseline(Value::Null)),
        }
    }

    fn entry(&self, workload: &str, variant: u64) -> Option<Entry> {
        let e = self
            .0
            .get("workloads")?
            .get(workload)?
            .as_array()?
            .get(variant as usize)?;
        let digest = u64::from_str_radix(e.get("digest")?.as_str()?, 16).ok()?;
        let counts = e
            .get("counts")?
            .as_object()?
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
            .collect();
        Some((digest, counts))
    }
}

/// Record the digest and counts of every workload on every input variant.
fn record(dir: &Path) -> Result<(), String> {
    let work = work_dir(dir)?;
    let mut spans = Recorder::disabled();
    let mut workloads = Vec::new();
    for workload in WORKLOADS {
        let mut entries = Vec::new();
        for variant in 0..inputs::VARIANTS {
            let ctx = Ctx {
                workload,
                variant,
                work: work.clone(),
                pass: 0,
            };
            let plain = run_pass(&ctx, false, &mut spans)?;
            let traced = run_pass(&ctx, true, &mut spans)?;
            let errors: Vec<&String> = plain.errors.iter().chain(&traced.errors).collect();
            if !errors.is_empty() {
                return Err(format!("{workload} variant {variant}: {errors:?}"));
            }
            if plain.digest != traced.digest {
                return Err(format!(
                    "{workload} variant {variant}: tracing changed the digest"
                ));
            }
            let layers = traced.layers.unwrap_or_default();
            let counts = METRICS
                .iter()
                .filter(|m| m.2 == Kind::Exact)
                .map(|m| (m.0.to_string(), Value::F64(layers.get(m.0))))
                .collect();
            eprintln!(
                "perfbench: recorded {workload} variant {variant}: {:016x}",
                plain.digest
            );
            entries.push(Value::Object(vec![
                (
                    "digest".into(),
                    Value::Str(format!("{:016x}", plain.digest)),
                ),
                ("counts".into(), Value::Object(counts)),
            ]));
        }
        workloads.push((workload.to_string(), Value::Array(entries)));
    }
    let doc = Value::Object(vec![
        ("schema".into(), Value::U64(1)),
        ("variants".into(), Value::U64(inputs::VARIANTS)),
        ("workloads".into(), Value::Object(workloads)),
    ]);
    let path = dir.join("baseline.json");
    let text = serde_json::to_string_pretty(&doc).map_err(|e| format!("baseline: {e}"))?;
    std::fs::write(&path, text + "\n").map_err(|e| format!("cannot write {}: {e}", path.display()))
}
