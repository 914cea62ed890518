//! `dgc-serve` — the crash-safe ensemble daemon CLI.
//!
//! ```text
//! dgc-serve run          --journal J (--jobs F | --stdin | --watch F) [--results R] [opts]
//! dgc-serve resume       --journal J [--jobs F] [--results R] [opts]
//! dgc-serve retry-failed --journal J [--results R] [opts]
//! dgc-serve status       --journal J
//! ```
//!
//! Exit contract: `0` every job succeeded (or a clean graceful drain),
//! `1` degraded — some job failed, missed its deadline, was cancelled
//! or never ran, `2` unrecoverable — corrupt journal, I/O error, bad
//! usage.

use dgc_serve::{
    signals, AdmissionMode, AdmissionQueue, Applied, Daemon, PushError, ServeConfig, ServeError,
    StreamOp,
};
use std::io::BufRead;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: dgc-serve <run|resume|retry-failed|status> --journal <file>\n\
  run          --jobs <file> | --stdin | --watch <file>   streaming admission source\n\
  common       [--results <file>] [--max-wave <n>] [--wave-budget-s <s>]\n\
               [--queue-cap <n>] [--admission block|reject] [--thread-limit <n>]\n\
               [--max-attempts <n>] [--retry-jitter <seed>] [--deadline-s <s>]\n\
               [--monitor-out <file>] [--monitor-interval <ms>]\n\
               [--wave-pause-ms <ms>] [--crash-after-journal-bytes <n>]\n\
               [--mem-aware|--no-mem-aware] [--quiet]";

enum Source {
    File(PathBuf),
    Stdin,
    Watch(PathBuf),
}

struct Cli {
    cmd: String,
    journal: PathBuf,
    source: Option<Source>,
    results: Option<PathBuf>,
    queue_cap: usize,
    admission: AdmissionMode,
    monitor_out: Option<PathBuf>,
    monitor_interval_ms: u64,
    quiet: bool,
    cfg: ServeConfig,
}

/// A count flag that must be at least 1.
fn at_least_one(value: &str, flag: &str) -> Result<u32, String> {
    value.parse().ok().filter(|n| *n >= 1).ok_or(format!(
        "{flag} must be a whole number of at least 1, got `{value}`"
    ))
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let cmd = args.first().ok_or("missing subcommand")?.clone();
    if !matches!(cmd.as_str(), "run" | "resume" | "retry-failed" | "status") {
        return Err(format!("unknown subcommand `{cmd}`"));
    }
    let mut cli = Cli {
        cmd,
        journal: PathBuf::new(),
        source: None,
        results: None,
        queue_cap: 64,
        admission: AdmissionMode::Block,
        monitor_out: None,
        monitor_interval_ms: 250,
        quiet: false,
        cfg: ServeConfig::default(),
    };
    let mut it = args[1..].iter();
    let need = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next().cloned().ok_or(format!("{flag} needs a value"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--journal" => cli.journal = PathBuf::from(need(&mut it, a)?),
            "--jobs" => cli.source = Some(Source::File(PathBuf::from(need(&mut it, a)?))),
            "--stdin" => cli.source = Some(Source::Stdin),
            "--watch" => cli.source = Some(Source::Watch(PathBuf::from(need(&mut it, a)?))),
            "--results" => cli.results = Some(PathBuf::from(need(&mut it, a)?)),
            "--max-wave" => cli.cfg.max_wave = at_least_one(&need(&mut it, a)?, a)?,
            "--wave-budget-s" => {
                cli.cfg.wave_budget_s = need(&mut it, a)?
                    .parse()
                    .map_err(|_| "bad --wave-budget-s")?
            }
            "--queue-cap" => {
                cli.queue_cap = need(&mut it, a)?.parse().map_err(|_| "bad --queue-cap")?
            }
            "--admission" => cli.admission = need(&mut it, a)?.parse()?,
            "--thread-limit" => {
                cli.cfg.thread_limit = need(&mut it, a)?
                    .parse()
                    .map_err(|_| "bad --thread-limit")?
            }
            "--max-attempts" => {
                cli.cfg.recovery.max_attempts = at_least_one(&need(&mut it, a)?, a)?
            }
            "--retry-jitter" => {
                cli.cfg.recovery.jitter_seed = Some(
                    need(&mut it, a)?
                        .parse()
                        .map_err(|_| "bad --retry-jitter")?,
                )
            }
            "--deadline-s" => {
                cli.cfg.default_deadline_s =
                    Some(need(&mut it, a)?.parse().map_err(|_| "bad --deadline-s")?)
            }
            "--monitor-out" => cli.monitor_out = Some(PathBuf::from(need(&mut it, a)?)),
            "--monitor-interval" => {
                cli.monitor_interval_ms = need(&mut it, a)?
                    .parse()
                    .map_err(|_| "bad --monitor-interval")?
            }
            "--wave-pause-ms" => {
                cli.cfg.wave_pause_ms = need(&mut it, a)?
                    .parse()
                    .map_err(|_| "bad --wave-pause-ms")?
            }
            "--crash-after-journal-bytes" => {
                cli.cfg.crash_after_journal_bytes = Some(
                    need(&mut it, a)?
                        .parse()
                        .map_err(|_| "bad --crash-after-journal-bytes")?,
                )
            }
            "--mem-aware" => cli.cfg.mem_aware = true,
            "--no-mem-aware" => cli.cfg.mem_aware = false,
            "--quiet" => cli.quiet = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if cli.journal.as_os_str().is_empty() {
        return Err("--journal is required".into());
    }
    if cli.cmd == "run" && cli.source.is_none() {
        return Err("run needs a job source: --jobs, --stdin or --watch".into());
    }
    Ok(cli)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("dgc-serve: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match dispatch(cli) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("dgc-serve: {e}");
            std::process::exit(2);
        }
    }
}

fn dispatch(mut cli: Cli) -> Result<i32, ServeError> {
    signals::install();
    let registry = cli
        .monitor_out
        .is_some()
        .then(|| Arc::new(dgc_monitor::MonitorRegistry::new()));
    cli.cfg.monitor = registry.clone();
    let writer = match (&registry, &cli.monitor_out) {
        (Some(reg), Some(path)) => Some(
            dgc_monitor::MonitorWriter::spawn(
                Arc::clone(reg),
                path.clone(),
                Duration::from_millis(cli.monitor_interval_ms.max(1)),
            )
            .map_err(dgc_serve::JournalError::Io)?,
        ),
        _ => None,
    };

    let code = match cli.cmd.as_str() {
        "run" => {
            let daemon = Daemon::create(&cli.journal, cli.cfg.clone())?;
            pump(daemon, &cli)?
        }
        "resume" => {
            let (mut daemon, report) = Daemon::resume(&cli.journal, cli.cfg.clone())?;
            if !cli.quiet {
                eprintln!(
                    "dgc-serve: resume: {} records{}, {} committed wave(s), {} interrupted, {} done job(s), {} pending",
                    report.records,
                    if report.torn_tail { " (torn tail skipped)" } else { "" },
                    report.committed_waves,
                    report.interrupted_waves,
                    report.done_jobs,
                    report.pending_jobs,
                );
            }
            // Re-admit the job stream (idempotent by id): submissions
            // whose journal records tore off in the crash re-enter here.
            daemon.run_interrupted()?;
            pump(daemon, &cli)?
        }
        "retry-failed" => {
            let (mut daemon, _) = Daemon::resume(&cli.journal, cli.cfg.clone())?;
            daemon.run_interrupted()?;
            let n = daemon.retry_failed()?;
            if !cli.quiet {
                eprintln!(
                    "dgc-serve: retried {n} job(s), backoff {:.4}s",
                    daemon.backoff_s
                );
            }
            finish(&daemon, &cli)?
        }
        "status" => {
            let (daemon, report) = Daemon::resume(&cli.journal, cli.cfg.clone())?;
            let s = daemon.summary();
            println!(
                "journal: {} records{} | waves: {} ({} interrupted) | jobs: {} ok={} failed={} cancelled={} pending={}",
                report.records,
                if report.torn_tail { " (torn tail)" } else { "" },
                s.waves,
                report.interrupted_waves,
                s.jobs,
                s.ok,
                s.failed,
                s.cancelled,
                s.pending,
            );
            0
        }
        _ => unreachable!("parse_cli validated the subcommand"),
    };
    if let Some(w) = writer {
        w.stop().map_err(dgc_serve::JournalError::Io)?;
    }
    Ok(code)
}

/// The admission + wave pump shared by `run` and `resume`: a reader
/// side feeds the bounded queue while this thread journals admissions
/// and runs waves — streaming admission overlaps in-flight waves.
fn pump(mut daemon: Daemon, cli: &Cli) -> Result<i32, ServeError> {
    let queue = Arc::new(AdmissionQueue::new(cli.queue_cap, cli.admission));
    let reader = match &cli.source {
        None => None,
        Some(Source::File(path)) => {
            // File mode is fully deterministic: every op is applied
            // before the first wave forms (no queue race), which is what
            // makes `run --jobs F` vs `resume --jobs F` byte-comparable.
            // A malformed line in a job file is a usage error (exit 2),
            // not a per-op reject.
            let text = std::fs::read_to_string(path).map_err(dgc_serve::JournalError::Io)?;
            let mut ops = dgc_serve::parse_ops(&text).map_err(|e| {
                ServeError::Journal(dgc_serve::JournalError::BadHeader(format!(
                    "job file {}: {e}",
                    path.display()
                )))
            })?;
            // Ops after an explicit drain never admit.
            if let Some(cut) = ops.iter().position(|op| matches!(op, StreamOp::Drain)) {
                ops.truncate(cut);
            }
            drain_ops(&mut daemon, &ops, cli)?;
            queue.close();
            None
        }
        Some(Source::Stdin) => {
            let q = Arc::clone(&queue);
            let quiet = cli.quiet;
            Some(std::thread::spawn(move || {
                let stdin = std::io::stdin();
                for line in stdin.lock().lines() {
                    let Ok(line) = line else { break };
                    if !feed_line(&q, &line, quiet) {
                        break;
                    }
                }
                q.close();
            }))
        }
        Some(Source::Watch(path)) => {
            let q = Arc::clone(&queue);
            let path = path.clone();
            let quiet = cli.quiet;
            Some(std::thread::spawn(move || {
                // Tail the watch file: poll for appended bytes, feed
                // complete lines, stop on a drain op or termination.
                let mut offset = 0u64;
                let mut buf = String::new();
                loop {
                    if signals::drain_requested() {
                        break;
                    }
                    let Ok(text) = std::fs::read_to_string(&path) else {
                        std::thread::sleep(Duration::from_millis(50));
                        continue;
                    };
                    let fresh = &text.as_bytes()[(offset as usize).min(text.len())..];
                    buf.push_str(&String::from_utf8_lossy(fresh));
                    offset = text.len() as u64;
                    let mut drained = false;
                    while let Some(nl) = buf.find('\n') {
                        let line: String = buf.drain(..=nl).collect();
                        if !feed_line(&q, line.trim_end(), quiet) {
                            drained = true;
                            break;
                        }
                    }
                    if drained {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
                q.close();
            }))
        }
    };

    let mut draining = false;
    let mut source_done = cli.source.is_none();
    loop {
        if signals::abort_requested() {
            if !cli.quiet {
                eprintln!("dgc-serve: hard abort (second signal); journal is consistent, resume to continue");
            }
            queue.close();
            if let Some(h) = reader {
                let _ = h.join();
            }
            return Ok(1);
        }
        if signals::drain_requested() {
            draining = true;
        }

        let (ops, closed) = if source_done || draining {
            (queue.drain_now(), true)
        } else {
            queue.drain_wait(Duration::from_millis(25))
        };
        source_done |= closed;
        if drain_ops(&mut daemon, &ops, cli)? {
            draining = true;
        }
        if let Some(m) = daemon.metrics() {
            m.queue_depth.set(queue.depth() as f64);
        }

        let ran = daemon.run_pending_step()?;
        if !ran && (source_done || draining) && queue.depth() == 0 {
            break;
        }
    }
    queue.close();
    if let Some(h) = reader {
        let _ = h.join();
    }

    let code = finish(&daemon, cli)?;
    // A graceful drain that completed every *attempted* job is a clean
    // exit: jobs still pending because the operator stopped early are
    // not a degradation.
    if draining && code == 1 && daemon.summary().failed == 0 && daemon.summary().cancelled == 0 {
        return Ok(0);
    }
    Ok(code)
}

/// Apply a batch of ops. Returns whether a drain op was seen.
fn drain_ops(daemon: &mut Daemon, ops: &[StreamOp], cli: &Cli) -> Result<bool, ServeError> {
    let mut drain = false;
    for op in ops {
        if matches!(op, StreamOp::Drain) {
            drain = true;
            continue;
        }
        if let Applied::Rejected(reason) = daemon.apply(op)? {
            if !cli.quiet {
                eprintln!("dgc-serve: rejected: {reason}");
            }
        }
    }
    Ok(drain)
}

/// Reader-side line handling: parse, push, report rejects. Returns
/// `false` once a drain op ends the stream.
fn feed_line(q: &AdmissionQueue, line: &str, quiet: bool) -> bool {
    match dgc_serve::parse_op(line) {
        Ok(None) => true,
        Ok(Some(op)) => {
            let is_drain = matches!(op, StreamOp::Drain);
            match q.push(op) {
                Ok(()) => {}
                Err(PushError::Full { .. }) => {
                    if !quiet {
                        eprintln!("dgc-serve: rejected: queue full: {line}");
                    }
                }
                Err(PushError::Closed) => return false,
            }
            !is_drain
        }
        Err(e) => {
            if !quiet {
                eprintln!("dgc-serve: rejected: {e}: {line}");
            }
            true
        }
    }
}

/// Write results (crash-atomically) and report the summary exit code.
fn finish(daemon: &Daemon, cli: &Cli) -> Result<i32, ServeError> {
    if let Some(path) = &cli.results {
        dgc_obs::write_atomic(path, daemon.merged_results())
            .map_err(dgc_serve::JournalError::Io)?;
    }
    let s = daemon.summary();
    if !cli.quiet {
        eprintln!(
            "dgc-serve: {} job(s): ok={} failed={} cancelled={} pending={} | {} wave(s), journal {} bytes",
            s.jobs,
            s.ok,
            s.failed,
            s.cancelled,
            s.pending,
            s.waves,
            daemon.journal_bytes(),
        );
    }
    Ok(s.exit_code())
}
