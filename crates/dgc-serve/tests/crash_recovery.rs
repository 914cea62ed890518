//! The serve tentpole contract, property-tested: `kill -9` at **any**
//! byte boundary of the job journal loses nothing — `resume` replays
//! the intact prefix, re-runs only unfinished work, and the merged
//! results are bit-identical to an uninterrupted run.
//!
//! A crash is equivalent to truncating the fsync'd journal at an
//! arbitrary byte offset (appends are sequential and synced), so the
//! property quantifies over truncation points: for every cut,
//!
//! 1. resumed results == golden results, byte for byte;
//! 2. no job from a wave committed in the prefix re-executes;
//! 3. no journaled-submitted job is dropped — every one reaches a
//!    final state.

use dgc_core::{AppContext, HostApp};
use dgc_serve::{Daemon, JobPhase, ServeConfig, ServeError, StreamOp};
use gpu_sim::{KernelError, TeamCtx};
use proptest::prelude::*;
use std::path::PathBuf;

const MODULE: &str = r#"
module "serve-test" {
  func @main arity=2 calls(@malloc, @atoi)
  extern func @malloc
  extern func @atoi
}
"#;

fn stream_main(team: &mut TeamCtx<'_>, cx: &AppContext) -> Result<i32, KernelError> {
    let n: u64 = cx
        .argv
        .iter()
        .position(|a| a == "-n")
        .and_then(|p| cx.argv.get(p + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(64);
    let buf = team.serial("alloc", |lane| lane.dev_alloc(8 * n))?;
    team.parallel_for("fill", n, |i, lane| lane.st_idx::<f64>(buf, i, i as f64))?;
    let sum = team.serial("sum", |lane| {
        let mut acc = 0.0f64;
        for i in 0..n {
            acc += lane.ld_idx::<f64>(buf, i)?;
        }
        Ok(acc)
    })?;
    // `-x` asks for a deterministic non-zero exit (an *application*
    // result, not an infrastructure fault).
    if cx.argv.iter().any(|a| a == "-x") {
        return Ok(3);
    }
    Ok(if sum >= 0.0 { 0 } else { 1 })
}

fn sort_main(team: &mut TeamCtx<'_>, cx: &AppContext) -> Result<i32, KernelError> {
    let n: u64 = cx
        .argv
        .iter()
        .position(|a| a == "-k")
        .and_then(|p| cx.argv.get(p + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(32);
    let buf = team.serial("alloc", |lane| lane.dev_alloc(8 * n))?;
    team.parallel_for("seed", n, |i, lane| {
        lane.st_idx::<f64>(buf, i, ((i * 2_654_435_761) % 97) as f64)
    })?;
    Ok(0)
}

fn resolve(name: &str) -> Option<HostApp> {
    match name {
        "stream" => Some(HostApp::new("stream", MODULE, stream_main)),
        "sort" => Some(HostApp::new("sort", MODULE, sort_main)),
        _ => None,
    }
}

fn config() -> ServeConfig {
    ServeConfig {
        thread_limit: 32,
        max_wave: 3,
        wave_budget_s: 0.5,
        resolve,
        ..ServeConfig::default()
    }
}

fn submit(id: &str, app: &str, args: &[&str]) -> StreamOp {
    StreamOp::Submit(dgc_serve::JobSpec {
        id: id.into(),
        app: app.into(),
        args: args.iter().map(|s| s.to_string()).collect(),
        deadline_s: None,
    })
}

/// The workload: two apps interleaved (waves must group by app), a
/// duplicate workload (cost-cache hit), a deterministic failure, and a
/// cancellation.
fn ops() -> Vec<StreamOp> {
    vec![
        submit("j0", "stream", &["-n", "400"]),
        submit("j1", "stream", &["-n", "100"]),
        submit("j2", "sort", &["-k", "64"]),
        submit("j3", "stream", &["-n", "400"]),
        submit("j4", "sort", &["-k", "32"]),
        submit("j5", "stream", &["-n", "50", "-x"]),
        StreamOp::Cancel { job: "j4".into() },
        submit("j6", "stream", &["-n", "200"]),
    ]
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dgc-serve-crashprop");
    let _ = std::fs::create_dir_all(&dir);
    dir.join(name)
}

fn run_golden(journal: &PathBuf) -> (String, Vec<u8>) {
    let mut d = Daemon::create(journal, config()).unwrap();
    for op in ops() {
        d.apply(&op).unwrap();
    }
    d.run_to_completion().unwrap();
    let results = d.merged_results();
    let bytes = std::fs::read(journal).unwrap();
    (results, bytes)
}

/// Resume from a truncated journal, re-supplying the job stream
/// (idempotent), and return (results, jobs committed in the prefix,
/// jobs this process executed).
fn resume_from_prefix(prefix: &[u8], name: &str) -> (String, Vec<String>, Vec<String>) {
    let path = tmp(name);
    std::fs::write(&path, prefix).unwrap();
    let (mut d, _report) = Daemon::resume(&path, config()).unwrap();
    let committed: Vec<String> = d
        .state()
        .waves
        .iter()
        .filter(|w| w.committed())
        .flat_map(|w| w.jobs.clone())
        .collect();
    for op in ops() {
        d.apply(&op).unwrap();
    }
    d.run_to_completion().unwrap();
    (d.merged_results(), committed, d.executed.clone())
}

#[test]
fn golden_run_is_reproducible() {
    let (a, ja) = run_golden(&tmp("golden-a.jsonl"));
    let (b, jb) = run_golden(&tmp("golden-b.jsonl"));
    assert_eq!(a, b, "two uninterrupted runs must agree bit-for-bit");
    assert_eq!(ja, jb, "journals too");
    // The workload exercises every status class.
    assert!(a.contains("\"status\":\"ok\""));
    assert!(a.contains("\"status\":\"failed\""));
    assert!(a.contains("\"status\":\"cancelled\""));
    assert!(a.contains("\"exit\":3"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Crash ≡ journal prefix. For any cut: resume reproduces the golden
    /// results byte-for-byte, never re-runs a committed job, never drops
    /// a journaled submission.
    #[test]
    fn resume_from_any_crash_point_matches_golden(frac in 0.0f64..1.0) {
        let (golden, journal) = run_golden(&tmp("golden.jsonl"));
        let cut = ((journal.len() as f64) * frac) as usize;
        let cut = cut.min(journal.len());
        let (resumed, committed, executed) = resume_from_prefix(&journal[..cut], "resume.jsonl");
        prop_assert_eq!(&resumed, &golden, "cut at byte {} of {}", cut, journal.len());
        for job in &committed {
            prop_assert!(
                !executed.contains(job),
                "job {} was committed in the prefix (cut {}) but re-executed",
                job,
                cut
            );
        }
    }
}

#[test]
fn resume_at_exact_record_boundaries_matches_golden() {
    let (golden, journal) = run_golden(&tmp("golden-edge.jsonl"));
    // Every record boundary (newline) plus the torn-header edge and the
    // full file.
    let mut cuts: Vec<usize> = journal
        .iter()
        .enumerate()
        .filter(|(_, &b)| b == b'\n')
        .map(|(i, _)| i + 1)
        .collect();
    cuts.extend([0, 1, journal.len()]);
    for cut in cuts {
        let (resumed, committed, executed) =
            resume_from_prefix(&journal[..cut], "resume-edge.jsonl");
        assert_eq!(resumed, golden, "cut at byte {cut} of {}", journal.len());
        for job in &committed {
            assert!(!executed.contains(job), "{job} re-executed at cut {cut}");
        }
    }
}

#[test]
fn resume_without_the_job_stream_never_drops_a_journaled_submission() {
    let (_, journal) = run_golden(&tmp("golden-drop.jsonl"));
    // Cut mid-journal; resume WITHOUT re-supplying ops: every job whose
    // `submitted` record survived must still reach a final state.
    let cut = journal.len() * 2 / 3;
    let path = tmp("resume-drop.jsonl");
    std::fs::write(&path, &journal[..cut]).unwrap();
    let (mut d, _) = Daemon::resume(&path, config()).unwrap();
    let journaled: Vec<String> = d.state().jobs.iter().map(|j| j.id.clone()).collect();
    assert!(!journaled.is_empty(), "the 2/3 cut keeps some submissions");
    d.run_to_completion().unwrap();
    for id in &journaled {
        let phase = d.state().phase(id).expect("journaled job is known");
        assert!(
            !matches!(phase, JobPhase::Pending),
            "journaled job {id} was dropped (still pending after resume)"
        );
    }
}

#[test]
fn retry_failed_relaunches_infra_failures_with_backoff() {
    // A workload whose failure is an infrastructure fault: the watchdog
    // reaps instances that exceed a tiny cycle budget, which *is*
    // retryable (out.error is set).
    let path = tmp("retry.jsonl");
    let mut cfg = config();
    cfg.recovery.max_attempts = 3;
    cfg.recovery.instance_cycle_budget = Some(10.0); // reaps everything
    cfg.recovery.jitter_seed = Some(7);
    let mut d = Daemon::create(&path, cfg).unwrap();
    d.apply(&submit("r0", "stream", &["-n", "100"])).unwrap();
    d.run_to_completion().unwrap();
    let first = d.state().result("r0").unwrap().clone();
    assert!(first.error.is_some(), "watchdog kill is an infra error");
    assert!(first.retryable());

    // Round 1: relaunched (same deterministic failure), backoff paid.
    assert_eq!(d.retry_failed().unwrap(), 1);
    assert!(d.backoff_s > 0.0);
    assert_eq!(d.state().attempts("r0"), 2);
    // Round 2: third and final attempt.
    assert_eq!(d.retry_failed().unwrap(), 1);
    assert_eq!(d.state().attempts("r0"), 3);
    // Attempts exhausted: nothing left to retry.
    assert_eq!(d.retry_failed().unwrap(), 0);
    assert_eq!(d.state().attempts("r0"), 3);
    assert_eq!(d.summary().failed, 1);
    assert_eq!(d.summary().exit_code(), 1);

    // The journal tells the whole story on replay.
    let (d2, _) = Daemon::resume(&path, config()).unwrap();
    assert_eq!(d2.state().attempts("r0"), 3);
    assert_eq!(d2.summary().failed, 1);
}

#[test]
fn deadlines_are_journaled_and_deterministic() {
    let path = tmp("deadline.jsonl");
    let mut cfg = config();
    cfg.default_deadline_s = Some(1e-12); // everything misses
    let mut d = Daemon::create(&path, cfg).unwrap();
    d.apply(&submit("d0", "stream", &["-n", "100"])).unwrap();
    d.run_to_completion().unwrap();
    let r = d.state().result("d0").unwrap();
    assert!(r.deadline, "a 1ps deadline must be missed");
    assert_eq!(r.exit, Some(0), "the job itself still ran clean");
    assert!(!r.succeeded(), "a deadline miss is not a success");
    assert!(
        !r.retryable(),
        "deadline misses are deterministic, not retried"
    );
    assert_eq!(d.summary().exit_code(), 1);

    // Per-job deadlines override the default.
    let path2 = tmp("deadline2.jsonl");
    let mut cfg2 = config();
    cfg2.default_deadline_s = Some(1e-12);
    let mut d2 = Daemon::create(&path2, cfg2).unwrap();
    d2.apply(&StreamOp::Submit(dgc_serve::JobSpec {
        id: "d1".into(),
        app: "stream".into(),
        args: vec!["-n".into(), "100".into()],
        deadline_s: Some(1e6),
    }))
    .unwrap();
    d2.run_to_completion().unwrap();
    assert!(d2.state().result("d1").unwrap().succeeded());
    assert_eq!(d2.summary().exit_code(), 0);
}

#[test]
fn monitor_metrics_track_admission_waves_and_retries() {
    use dgc_monitor::MonitorRegistry;
    use std::sync::Arc;
    let reg = Arc::new(MonitorRegistry::new());
    let path = tmp("metrics.jsonl");
    let mut cfg = config();
    cfg.monitor = Some(Arc::clone(&reg));
    let mut d = Daemon::create(&path, cfg).unwrap();
    for op in ops() {
        d.apply(&op).unwrap();
    }
    // Unknown app → rejected before journaling.
    let rej = d.apply(&submit("zz", "nope", &[])).unwrap();
    assert!(matches!(rej, dgc_serve::Applied::Rejected(_)));
    d.run_to_completion().unwrap();

    let m = d.metrics().unwrap().clone();
    assert_eq!(m.admitted.get(), 7);
    assert_eq!(m.rejected.get(), 1);
    assert!(m.waves.get() >= 3, "two apps, max_wave 3, 6 runnable jobs");
    assert_eq!(m.wave_latency.count(), m.waves.get());
    // The registry renders as lintable OpenMetrics with the serve
    // families present.
    let text = reg.render();
    dgc_monitor::parse(&text).expect("serve metrics render canonically");
    assert!(text.contains("dgc_serve_jobs_admitted_total 7"));
    assert!(text.contains("dgc_serve_waves_total"));
    // The wave driver's own sink events flow through the same registry.
    assert!(text.contains("dgc_instances"));
}

#[test]
fn zero_max_wave_is_refused_before_the_journal_is_touched() {
    let zero = ServeConfig {
        max_wave: 0,
        ..config()
    };
    let fresh = tmp("max-wave-zero.journal");
    let _ = std::fs::remove_file(&fresh);
    assert!(matches!(
        Daemon::create(&fresh, zero.clone()),
        Err(ServeError::MaxWaveZero)
    ));
    assert!(!fresh.exists(), "create wrote a journal it refused");
    // An existing journal is left byte for byte as it was.
    let journal = tmp("max-wave-zero-resume.journal");
    let (_, golden) = run_golden(&journal);
    let err = Daemon::resume(&journal, zero)
        .err()
        .expect("resume refuses");
    assert!(matches!(err, ServeError::MaxWaveZero));
    assert_eq!(err.to_string(), "max_wave must be at least 1");
    assert_eq!(std::fs::read(&journal).unwrap(), golden);
}
