//! The GPU ensembler command line — the paper's Fig. 5(c) usage:
//!
//! ```text
//! ensemble-cli xsbench -f arguments.txt -n 4 -t 128
//! ```
//!
//! Runs `-n` instances of a built-in benchmark concurrently in one
//! simulated kernel launch, each instance taking its command line from one
//! line of the `-f` argument file. `--pack M` selects the §3.1 packed
//! mapping (M instances per thread block). Every instance's stdout is
//! printed, followed by a launch summary.
//!
//! Observability: `--trace-out t.json` writes a Chrome trace-event
//! timeline of the launch (load in Perfetto / `chrome://tracing`),
//! `--metrics-out m.jsonl` writes one JSON line of metrics per instance
//! plus one for the launch, and `--quiet` suppresses per-instance output.
//! `--timeline` samples device utilization over time (`--sample-interval
//! <cycles>` tunes the rate), adding Chrome counter tracks to the trace
//! and the schema-v5 `timeline` array to the metrics; `--progress` prints
//! status lines to stderr (suppressed by `--quiet`) — when the ensemble
//! takes more than one launch (`--batch`, capacity-capped chunks,
//! retries), completed/total instances, the observed instances-per-second
//! rate and an ETA after every launch (`eta --` while the measured rate
//! is still ~zero).
//!
//! Monitoring: `--monitor-out snapshots.om` attaches the `dgc-monitor`
//! operational-metrics registry to the run and streams OpenMetrics
//! snapshot blocks to the file from a background thread every
//! `--monitor-interval <ms>` (default 1000), plus a guaranteed final
//! snapshot at exit. Lint, SLO-gate or render the log with the
//! `dgc-monitor` binary. Attaching the monitor never changes the
//! simulated results — traces and metrics stay bit-identical.
//!
//! Post-hoc analysis: `--insight-out report.md` writes the `dgc-insight`
//! run analysis (critical path whose span sum reproduces the reported
//! makespan bit-exactly, blame tables, wave Gantt) and `--flame-out
//! stacks.folded` writes an inferno-compatible folded-stack flamegraph,
//! both rendered from the run's in-process span graph.
//!
//! Every run goes through the one ensemble executor
//! (`dgc_fault::run_ensemble_sharded_resilient_mem_aware`); runs without
//! recovery flags launch each instance once.
//!
//! Fault tolerance: `--faults plan.json` injects a deterministic fault
//! plan and turns recovery on: the executor re-launches failed instances
//! (`--max-attempts`), halves the batch on device OOM
//! (`--auto-batch`), reaps hung instances (`--instance-timeout <cycles>`)
//! and can abort on the first unrecoverable instance (`--fail-fast`). The
//! exit status is non-zero whenever any instance ends failed or skipped
//! after recovery.
//!
//! Multi-device: `--devices M` shards the ensemble across `M` simulated
//! A100s; `--placement round-robin|greedy|lpt` picks the policy (the
//! informed ones bin-pack by pilot-run cost). Combined with the recovery
//! flags, a dead device re-shards its instances onto the survivors. The
//! default `-n` is one instance per argument line; with `--cycle-args`
//! the lines are reused modulo when `-n` exceeds the file.
//!
//! Memory-aware packing (default on): pilot runs record each distinct
//! argument line's peak heap bytes, placement refuses shards that would
//! exceed device capacity, every launch is capped at the capacity fit of
//! its instances, and the heap recycles freed blocks through per-team
//! free lists. `--no-mem-aware` restores the bit-identical legacy
//! behavior (first-fit only, memory-blind placement, OOM-then-halve).

use dgc_core::{parse_ensemble_cli, EnsembleOptions, MappingStrategy};
use dgc_fault::{run_ensemble_sharded_resilient_mem_aware, FaultPlan, RecoveryPolicy};
use dgc_monitor::{MonitorRegistry, MonitorWriter};
use dgc_obs::{metrics_jsonl, MonitorSink, Recorder};
use dgc_sched::Placement;
use gpu_arch::GpuSpec;
use gpu_sim::DeviceFleet;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

fn usage() -> ! {
    eprintln!("usage: ensemble-cli <app> -f <arguments file> [-n <instances>] [-t <thread limit>] [--pack <M>] [--batch <B>]");
    eprintln!(
        "                    [--trace-out <trace.json>] [--metrics-out <metrics.jsonl>] [--quiet] [--cycle-args]"
    );
    eprintln!("                    [--faults <plan.json>] [--max-attempts <K>] [--auto-batch] [--instance-timeout <cycles>] [--fail-fast] [--retry-jitter <seed>]");
    eprintln!("                    [--devices <M>] [--placement round-robin|greedy|lpt]");
    eprintln!("                    [--mem-aware|--no-mem-aware]");
    eprintln!("                    [--timeline] [--sample-interval <cycles>] [--progress]");
    eprintln!("                    [--insight-out <report.md>] [--flame-out <stacks.folded>]");
    eprintln!("                    [--monitor-out <snapshots.om>] [--monitor-interval <ms>]");
    eprintln!("  apps: xsbench, rsbench, amgmk, pagerank");
    std::process::exit(2);
}

/// `--progress` per-launch status lines. Counts launched instances off
/// the monitor's `kernel_launch` events and prints completed/total, the
/// observed instances-per-second rate and an ETA after every launch —
/// unless the first launch already covered the whole ensemble. Every
/// event is forwarded to `inner` (the `--monitor-out` registry) when one
/// is attached.
struct ProgressSink {
    total: u32,
    launched: AtomicU32,
    started: Instant,
    inner: Option<Arc<dyn MonitorSink>>,
}

impl MonitorSink for ProgressSink {
    fn kernel_launch(&self, device: u32, instances: u32, busy_s: f64) {
        if let Some(m) = &self.inner {
            m.kernel_launch(device, instances, busy_s);
        }
        let launched = self.launched.fetch_add(instances, Ordering::Relaxed) + instances;
        if launched == instances && launched >= self.total {
            return;
        }
        // Retry launches re-run instances already counted as completed.
        let done = launched.min(self.total);
        let elapsed_s = self.started.elapsed().as_secs_f64();
        let rate = if elapsed_s > 0.0 {
            done as f64 / elapsed_s
        } else {
            0.0
        };
        let eta = dgc_core::format_eta_s(u64::from(self.total.saturating_sub(done)), rate);
        let total = self.total;
        eprintln!("progress: {done}/{total} instances | {rate:.1} instances/s | eta {eta}");
    }

    fn instance_done(&self, device: u32, ok: bool, latency_s: f64) {
        if let Some(m) = &self.inner {
            m.instance_done(device, ok, latency_s);
        }
    }

    fn instance_recovered(&self, device: u32) {
        if let Some(m) = &self.inner {
            m.instance_recovered(device);
        }
    }

    fn retry_scheduled(&self, device: u32) {
        if let Some(m) = &self.inner {
            m.retry_scheduled(device);
        }
    }

    fn oom_split(&self, new_batch: u32) {
        if let Some(m) = &self.inner {
            m.oom_split(new_batch);
        }
    }

    fn backoff_wait(&self, seconds: f64) {
        if let Some(m) = &self.inner {
            m.backoff_wait(seconds);
        }
    }

    fn team_done(&self, device: u32, done: u32, total: u32) {
        if let Some(m) = &self.inner {
            m.team_done(device, done, total);
        }
    }

    fn heap_sample(&self, device: u32, in_use: u64, high_water: u64, capacity: u64) {
        if let Some(m) = &self.inner {
            m.heap_sample(device, in_use, high_water, capacity);
        }
    }

    fn rpc_activity(&self, calls: u64, failures: u64) {
        if let Some(m) = &self.inner {
            m.rpc_activity(calls, failures);
        }
    }

    fn device_dead(&self, device: u32) {
        if let Some(m) = &self.inner {
            m.device_dead(device);
        }
    }

    fn utilization_sample(&self, device: u32, mean: f64) {
        if let Some(m) = &self.inner {
            m.utilization_sample(device, mean);
        }
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let app_name = args.remove(0);
    let Some(app) = dgc_apps::app_by_name(&app_name) else {
        eprintln!("unknown application '{app_name}'");
        usage();
    };
    let cli = match parse_ensemble_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
        }
    };
    let text = match std::fs::read_to_string(&cli.arg_file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", cli.arg_file);
            std::process::exit(1);
        }
    };
    // The script-language superset (§3.2 future work): plain files parse
    // identically, @repeat/@for directives generate lines.
    let arg_lines = match dgc_core::expand_arg_script(&text) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };

    let opts = EnsembleOptions {
        num_instances: cli.num_instances.unwrap_or(arg_lines.len() as u32),
        thread_limit: cli.thread_limit,
        cycle_args: cli.cycle_args,
        sample_interval: cli.sample_interval,
        mapping: if cli.pack > 1 {
            MappingStrategy::Packed {
                per_block: cli.pack,
            }
        } else {
            MappingStrategy::OnePerTeam
        },
        ..Default::default()
    };
    let placement: Placement = match cli.placement.parse() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
        }
    };

    // The recorder costs nothing unless a timeline was asked for.
    let mut obs = if cli.trace_out.is_some() {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };

    // --monitor-out: stream OpenMetrics snapshots of the run from a
    // background monitor thread. The registry is a pure observation
    // sink — attaching it never changes the simulated results.
    let monitor_writer = match &cli.monitor_out {
        Some(path) => {
            let registry = Arc::new(MonitorRegistry::new());
            obs.set_monitor(registry.clone());
            match MonitorWriter::spawn(
                registry,
                path.into(),
                std::time::Duration::from_millis(cli.monitor_interval_ms),
            ) {
                Ok(w) => Some(w),
                Err(e) => {
                    eprintln!("error: cannot write {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        None => None,
    };

    // Any recovery-related flag turns recovery on (an absent --faults
    // file just means an empty plan); without one every instance
    // launches once.
    let resilient = cli.faults.is_some()
        || cli.auto_batch
        || cli.instance_timeout.is_some()
        || cli.fail_fast
        || cli.retry_jitter.is_some();
    let plan = match &cli.faults {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: cannot read {path}: {e}");
                    std::process::exit(1);
                }
            };
            match FaultPlan::from_json(&text) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("error: {path}: {e}");
                    std::process::exit(2);
                }
            }
        }
        None => FaultPlan::default(),
    };
    let policy = RecoveryPolicy {
        max_attempts: if resilient { cli.max_attempts } else { 1 },
        oom_split: cli.auto_batch,
        instance_cycle_budget: cli.instance_timeout,
        fail_fast: cli.fail_fast,
        jitter_seed: cli.retry_jitter,
        ..Default::default()
    };

    if cli.progress && !cli.quiet {
        let sink = ProgressSink {
            total: opts.num_instances.max(1),
            launched: AtomicU32::new(0),
            started: Instant::now(),
            inner: obs.monitor().cloned(),
        };
        obs.set_monitor(Arc::new(sink));
    }
    let mut fleet = DeviceFleet::homogeneous(GpuSpec::a100_40gb(), cli.devices);
    let run = match run_ensemble_sharded_resilient_mem_aware(
        &mut fleet,
        &app,
        &arg_lines,
        &opts,
        cli.batch,
        placement,
        &plan,
        &policy,
        &mut obs,
        cli.mem_aware,
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    // The launch rollup: recovery runs report the recovery story, plain
    // fleet runs the multi-device fields, plain one-device runs the
    // ensemble's own record.
    let launch = if resilient {
        run.launch_metrics()
    } else {
        let mut lm = run.ensemble.launch_metrics();
        if cli.devices > 1 {
            lm.kernel = format!("{}-x{}", app.name, opts.num_instances.max(1));
            lm.devices = run.devices;
            lm.makespan_s = run.ensemble.total_time_s;
        }
        lm
    };
    let recovery = resilient.then(|| run.recovery.clone());
    let result = run.ensemble;

    if !cli.quiet {
        for (i, out) in result.stdout.iter().enumerate() {
            println!("=== instance {i} ===");
            print!("{out}");
            match &result.instances[i] {
                o if o.oom => println!("[device out of memory]"),
                o => {
                    if let Some(err) = &o.error {
                        println!("[trap: {err}]");
                    }
                }
            }
        }
    }
    println!("=== launch summary ===");
    println!("{}", result.report.summary());
    println!(
        "kernel time {:.3} ms | total (with transfers) {:.3} ms | RPC calls {}",
        result.kernel_time_s * 1e3,
        result.total_time_s * 1e3,
        result.rpc_stats.total()
    );
    if cli.devices > 1 {
        let per: Vec<String> = run
            .per_device_time_s
            .iter()
            .map(|t| format!("{:.3}", t * 1e3))
            .collect();
        print!(
            "devices {} (placement {}) | makespan {:.3} ms | per-device ms [{}]",
            run.devices,
            run.placement.name(),
            result.total_time_s * 1e3,
            per.join(", ")
        );
        if run.dead_devices.is_empty() {
            println!();
        } else {
            let d: Vec<String> = run.dead_devices.iter().map(|d| d.to_string()).collect();
            println!(" | dead devices [{}]", d.join(", "));
        }
    }

    let failed = result.failed_count();
    let oom = result.oom_count();
    let observing = cli.quiet || cli.trace_out.is_some() || cli.metrics_out.is_some();
    if failed > 0 || observing {
        println!(
            "instances {} | failed {failed} | oom {oom}",
            result.instances.len()
        );
    }
    // --progress: status on stderr, suppressed by --quiet. The simulated
    // run is synchronous, so the periodic status collapses into one line
    // per launch, emitted at completion.
    if cli.progress && !cli.quiet {
        let recovered = recovery.as_ref().map(|r| r.recovered).unwrap_or(0);
        // Timeline-sampled mean when --timeline ran; otherwise the
        // launch-aggregate issue utilization.
        let util = dgc_core::utilization_mean(&result.timeline.issue_rates())
            .unwrap_or(result.report.issue_utilization);
        eprintln!(
            "progress: waves {} | instances {}/{} ok | recovered {recovered} | device utilization {:.1}%",
            result.report.waves,
            result.instances.len() as u32 - failed,
            result.instances.len(),
            util * 100.0
        );
    }
    if let Some(rec) = &recovery {
        println!(
            "recovery: attempts {} | retried {} | recovered {} | unrecovered {} | oom splits {} (final batch {}) | backoff {:.3} ms",
            rec.attempts,
            rec.retried,
            rec.recovered,
            rec.unrecovered,
            rec.oom_splits,
            rec.final_batch,
            rec.backoff_s * 1e3
        );
        if rec.skipped > 0 {
            println!("fail-fast: {} instance(s) skipped", rec.skipped);
        }
    }

    if let Some(path) = &cli.trace_out {
        if let Err(e) = dgc_obs::write_atomic(path, obs.to_chrome_trace()) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote trace {path} ({} events)", obs.events().len());
    }
    if let Some(path) = &cli.insight_out {
        // Every driver reports its makespan as total_time_s (sharded
        // drivers set it to the fleet makespan), so the report's
        // bit-exactness check compares against the right number.
        let report = dgc_insight::render_report(&result.graph, Some(result.total_time_s));
        if let Err(e) = dgc_obs::write_atomic(path, report) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote insight report {path}");
    }
    if let Some(path) = &cli.flame_out {
        let stacks = dgc_insight::folded_stacks(&result.graph);
        if let Err(e) = dgc_obs::write_atomic(path, &stacks) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "wrote flamegraph {path} ({} stacks)",
            stacks.lines().count()
        );
    }
    if let Some(path) = &cli.metrics_out {
        let jsonl = metrics_jsonl(&result.metrics, &launch);
        if let Err(e) = dgc_obs::write_atomic(path, jsonl) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "wrote metrics {path} ({} instance records + 1 launch record)",
            result.metrics.len()
        );
    }
    if let Some(writer) = monitor_writer {
        // Joins the monitor thread after a guaranteed final snapshot, so
        // the log always ends with the run's complete totals.
        let path = cli.monitor_out.as_deref().unwrap_or_default().to_string();
        if let Err(e) = writer.stop() {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote monitor snapshots {path}");
    }

    std::process::exit(if failed == 0 { 0 } else { 1 });
}
