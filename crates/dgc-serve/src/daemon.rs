//! The ensemble daemon: journaled admission, continuous batching into
//! kernel waves, crash recovery, and retry of failed jobs.
//!
//! Every state transition is journaled *before* it happens (write-ahead
//! discipline) and every simulated quantity is wave-relative, so the
//! merged results of `run → kill -9 → resume` are byte-identical to an
//! uninterrupted run:
//!
//! * a wave's membership is one atomic `started` record;
//! * each wave executes on a **fresh** simulated device, so its results
//!   depend only on membership and order — not on daemon history;
//! * a wave's `done` records are group-committed in one fsync'd write,
//!   and a wave counts as committed only when every member's record is
//!   on disk ([`crate::state::Wave::committed`]);
//! * wave formation is a pure function of the ordered pending list and
//!   the (deterministic) pilot cost model, so a resumed daemon re-forms
//!   exactly the waves the crashed one would have formed.

use crate::journal::{JobDone, JobSpec, Journal, JournalError, Record};
use crate::state::{JobPhase, ServeState};
use dgc_core::{EnsembleError, EnsembleOptions, HostApp};
use dgc_fault::{run_ensemble_sharded_resilient_mem_aware, FaultPlan, RecoveryPolicy};
use dgc_monitor::{Counter, Gauge, Histogram, MonitorRegistry};
use dgc_obs::Recorder;
use dgc_sched::{mem_cap_take, wave_take, InstanceCosts, Placement};
use gpu_arch::GpuSpec;
use gpu_sim::{DeviceFleet, Gpu};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// How an application name in a job request becomes a runnable
/// [`HostApp`]. The default resolver is the paper's four-benchmark
/// registry; tests plug in cheap synthetic kernels.
pub type AppResolver = fn(&str) -> Option<HostApp>;

/// Daemon configuration.
#[derive(Clone)]
pub struct ServeConfig {
    /// `thread_limit` for every wave launch.
    pub thread_limit: u32,
    /// Hard cap on jobs per wave; at least 1 ([`ServeError::MaxWaveZero`]).
    pub max_wave: u32,
    /// Predicted-serial-seconds budget per wave ([`wave_take`]).
    pub wave_budget_s: f64,
    /// Retry policy: `max_attempts` bounds `retry-failed` rounds, the
    /// backoff fields (and opt-in jitter) pace them, and
    /// `instance_cycle_budget` arms the in-wave watchdog.
    pub recovery: RecoveryPolicy,
    /// Deadline applied to jobs that do not carry their own.
    pub default_deadline_s: Option<f64>,
    /// Wall-clock pause after journaling `started` and before running
    /// the wave — a deterministic window for crash drills (`kill -9`
    /// always lands mid-wave). Zero in production.
    pub wave_pause_ms: u64,
    /// Abort the process once the journal reaches this many bytes
    /// (CI crash injection; see [`Journal`]).
    pub crash_after_journal_bytes: Option<u64>,
    pub resolve: AppResolver,
    /// Live telemetry; also attached to every wave's [`Recorder`] as a
    /// [`dgc_obs::MonitorSink`].
    pub monitor: Option<Arc<MonitorRegistry>>,
    /// Memory-aware wave sizing (default on): pilot peak footprints cap
    /// each wave at device capacity ([`mem_cap_take`]) and wave devices
    /// run the per-team free-list allocator. Off restores the legacy
    /// cost-budget-only waves bit-identically.
    pub mem_aware: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            thread_limit: 128,
            max_wave: 8,
            wave_budget_s: 1.0,
            recovery: RecoveryPolicy::default(),
            default_deadline_s: None,
            wave_pause_ms: 0,
            crash_after_journal_bytes: None,
            resolve: dgc_apps::app_by_name,
            monitor: None,
            mem_aware: true,
        }
    }
}

/// The serve-level metric family handles (cloneable).
#[derive(Clone)]
pub struct ServeMetrics {
    pub queue_depth: Gauge,
    pub admitted: Counter,
    pub rejected: Counter,
    pub retried: Counter,
    pub waves: Counter,
    pub wave_latency: Histogram,
}

impl ServeMetrics {
    pub fn register(reg: &MonitorRegistry) -> ServeMetrics {
        ServeMetrics {
            queue_depth: reg.gauge(
                "dgc_serve_queue_depth",
                "Stream operations waiting in the admission queue",
                &[],
            ),
            admitted: reg.counter(
                "dgc_serve_jobs_admitted",
                "Jobs journaled as submitted",
                &[],
            ),
            rejected: reg.counter(
                "dgc_serve_jobs_rejected",
                "Stream operations refused (queue full, bad request, unknown app)",
                &[],
            ),
            retried: reg.counter(
                "dgc_serve_jobs_retried",
                "Failed jobs re-launched by retry-failed",
                &[],
            ),
            waves: reg.counter("dgc_serve_waves", "Kernel waves launched", &[]),
            wave_latency: reg.histogram(
                "dgc_serve_wave_latency_seconds",
                "Simulated wall time per wave (kernel + recovery overhead)",
                &[],
            ),
        }
    }
}

/// Daemon-side errors. Everything here maps to the unrecoverable exit
/// code (2); *job* failures are data, not errors.
#[derive(Debug)]
pub enum ServeError {
    Journal(JournalError),
    /// A journaled job names an application this build cannot resolve.
    UnknownApp {
        job: String,
        app: String,
    },
    Launch(EnsembleError),
    /// `max_wave` is 0: no wave could ever take a job.
    MaxWaveZero,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Journal(e) => write!(f, "{e}"),
            ServeError::UnknownApp { job, app } => {
                write!(f, "job `{job}` names unknown app `{app}`")
            }
            ServeError::Launch(e) => write!(f, "wave launch failed: {e}"),
            ServeError::MaxWaveZero => write!(f, "max_wave must be at least 1"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<JournalError> for ServeError {
    fn from(e: JournalError) -> Self {
        ServeError::Journal(e)
    }
}

impl From<EnsembleError> for ServeError {
    fn from(e: EnsembleError) -> Self {
        ServeError::Launch(e)
    }
}

/// What applying one stream op did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Applied {
    /// Newly journaled and pending.
    Admitted,
    /// Known id — idempotent no-op (resubmission on resume).
    Duplicate,
    /// Refused before journaling, with the reason.
    Rejected(String),
    Cancelled,
}

/// What a resume found in the journal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResumeReport {
    pub records: usize,
    pub torn_tail: bool,
    pub committed_waves: usize,
    pub interrupted_waves: usize,
    pub done_jobs: usize,
    pub pending_jobs: usize,
}

/// Aggregate job counts for `status` and the exit contract.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatusSummary {
    pub jobs: usize,
    pub ok: usize,
    pub failed: usize,
    pub cancelled: usize,
    pub pending: usize,
    pub waves: usize,
}

impl StatusSummary {
    /// The serve exit contract: 0 every job succeeded, 1 degraded (any
    /// failed, cancelled or unfinished job). Unrecoverable errors (2)
    /// never reach a summary.
    pub fn exit_code(&self) -> i32 {
        i32::from(self.ok != self.jobs)
    }
}

/// Refuse a configuration no daemon can run, before the journal is
/// touched.
fn check_config(cfg: &ServeConfig) -> Result<(), ServeError> {
    if cfg.max_wave == 0 {
        return Err(ServeError::MaxWaveZero);
    }
    Ok(())
}

/// The crash-safe ensemble daemon.
pub struct Daemon {
    cfg: ServeConfig,
    journal: Journal,
    state: ServeState,
    metrics: Option<ServeMetrics>,
    /// Pilot (predicted seconds, peak heap bytes) per distinct
    /// (app, args) — deterministic, so the cache is an optimization only.
    costs: HashMap<(String, Vec<String>), (f64, u64)>,
    /// Simulated backoff accumulated by retry rounds.
    pub backoff_s: f64,
    /// Every job id actually executed (re-executed) by *this* process,
    /// in launch order. The crash-recovery property tests assert that no
    /// job from a committed wave ever reappears here.
    pub executed: Vec<String>,
}

impl Daemon {
    /// Start a fresh daemon: new journal with a schema header.
    pub fn create(journal_path: &Path, cfg: ServeConfig) -> Result<Daemon, ServeError> {
        check_config(&cfg)?;
        let journal = Journal::create(journal_path, cfg.crash_after_journal_bytes)?;
        Ok(Daemon::assemble(cfg, journal, ServeState::default()))
    }

    /// Resume from an existing journal: lossy-load (skipping a torn
    /// tail), replay, truncate the tail and reopen for appending.
    pub fn resume(
        journal_path: &Path,
        cfg: ServeConfig,
    ) -> Result<(Daemon, ResumeReport), ServeError> {
        check_config(&cfg)?;
        let loaded = crate::journal::load_lossy(journal_path)?;
        let state = ServeState::replay(&loaded.records);
        let journal = Journal::reopen(
            journal_path,
            loaded.valid_bytes,
            cfg.crash_after_journal_bytes,
        )?;
        let report = ResumeReport {
            records: loaded.records.len(),
            torn_tail: loaded.torn_tail,
            committed_waves: state.waves.iter().filter(|w| w.committed()).count(),
            interrupted_waves: state.interrupted().len(),
            done_jobs: state
                .jobs
                .iter()
                .filter(|j| state.result(&j.id).is_some())
                .count(),
            pending_jobs: state.pending().len(),
        };
        Ok((Daemon::assemble(cfg, journal, state), report))
    }

    fn assemble(cfg: ServeConfig, journal: Journal, state: ServeState) -> Daemon {
        let metrics = cfg.monitor.as_deref().map(ServeMetrics::register);
        Daemon {
            cfg,
            journal,
            state,
            metrics,
            costs: HashMap::new(),
            backoff_s: 0.0,
            executed: Vec::new(),
        }
    }

    pub fn metrics(&self) -> Option<&ServeMetrics> {
        self.metrics.as_ref()
    }

    pub fn state(&self) -> &ServeState {
        &self.state
    }

    pub fn journal_bytes(&self) -> u64 {
        self.journal.bytes()
    }

    /// Apply one admission op, journaling write-ahead. Submissions of
    /// unknown apps are rejected *before* the journal sees them, so a
    /// journaled job is always runnable.
    pub fn apply(&mut self, op: &crate::stream::StreamOp) -> Result<Applied, ServeError> {
        use crate::stream::StreamOp;
        match op {
            StreamOp::Submit(spec) => {
                if self.state.contains(&spec.id) {
                    return Ok(Applied::Duplicate);
                }
                if (self.cfg.resolve)(&spec.app).is_none() {
                    if let Some(m) = &self.metrics {
                        m.rejected.inc();
                    }
                    return Ok(Applied::Rejected(format!(
                        "job `{}`: unknown app `{}`",
                        spec.id, spec.app
                    )));
                }
                self.journal.append(&Record::Submitted(spec.clone()))?;
                self.state.admit(spec.clone());
                if let Some(m) = &self.metrics {
                    m.admitted.inc();
                }
                Ok(Applied::Admitted)
            }
            StreamOp::Cancel { job } => {
                self.journal
                    .append(&Record::Cancelled { job: job.clone() })?;
                self.state.cancel(job);
                Ok(Applied::Cancelled)
            }
            StreamOp::Drain => Ok(Applied::Duplicate),
        }
    }

    /// Pilot-predicted (seconds, peak heap bytes) for one job (cached
    /// per distinct workload). Pilot failures predict zero — the wave
    /// run will surface the real error as the job's outcome.
    fn cost_of(&mut self, spec: &JobSpec) -> (f64, u64) {
        let key = (spec.app.clone(), spec.args.clone());
        if let Some(&c) = self.costs.get(&key) {
            return c;
        }
        let c = (self.cfg.resolve)(&spec.app)
            .and_then(|app| {
                let opts = EnsembleOptions {
                    num_instances: 1,
                    thread_limit: self.cfg.thread_limit,
                    ..EnsembleOptions::default()
                };
                InstanceCosts::estimate(
                    &app,
                    std::slice::from_ref(&spec.args),
                    &opts,
                    &GpuSpec::a100_40gb(),
                )
                .ok()
                .map(|costs| (costs.cost(0).seconds_ref, costs.peak_mem_bytes(0)))
            })
            .unwrap_or((0.0, 0));
        self.costs.insert(key, c);
        c
    }

    /// Cap a cost-budgeted wave prefix by device memory: the longest
    /// further prefix whose summed pilot peaks fit the wave device.
    /// Identity when memory-aware mode is off.
    fn mem_cap(&self, peaks: &[u64], take: usize) -> usize {
        if !self.cfg.mem_aware || take == 0 {
            return take;
        }
        let capacity = GpuSpec::a100_40gb().global_mem_bytes;
        take.min(mem_cap_take(
            &peaks[..take.min(peaks.len())],
            capacity,
            take,
        ))
    }

    /// Form the next wave: the head of the pending queue fixes the app
    /// (waves are single-app — one kernel image per launch), membership
    /// is the cost-bounded prefix of that app's pending jobs in
    /// submission order. Pure function of (pending order, cost model):
    /// a resumed daemon re-forms the crashed daemon's exact waves.
    fn form_wave(&mut self) -> Option<Vec<String>> {
        let pending: Vec<JobSpec> = self.state.pending().into_iter().cloned().collect();
        let head_app = pending.first()?.app.clone();
        let candidates: Vec<JobSpec> = pending
            .into_iter()
            .filter(|j| j.app == head_app)
            .take(self.cfg.max_wave as usize)
            .collect();
        let pilots: Vec<(f64, u64)> = candidates.iter().map(|j| self.cost_of(j)).collect();
        let costs: Vec<f64> = pilots.iter().map(|&(s, _)| s).collect();
        let peaks: Vec<u64> = pilots.iter().map(|&(_, p)| p).collect();
        let take = wave_take(&costs, self.cfg.wave_budget_s, self.cfg.max_wave as usize);
        let take = self.mem_cap(&peaks, take);
        Some(candidates[..take].iter().map(|j| j.id.clone()).collect())
    }

    /// Journal `started`, run the wave on a fresh device, group-commit
    /// the `done` records. `skip_done` lists members whose done records
    /// already survived (interrupted-wave replay): they re-execute — the
    /// deterministic simulation reproduces their results bit-for-bit —
    /// but their records are not re-appended.
    fn run_wave(
        &mut self,
        wave: u32,
        attempt: u32,
        ids: &[String],
        skip_done: &[String],
    ) -> Result<(), ServeError> {
        let specs: Vec<JobSpec> = ids
            .iter()
            .map(|id| {
                self.state
                    .spec(id)
                    .cloned()
                    .expect("wave members are journaled jobs")
            })
            .collect();
        let app_name = specs[0].app.clone();
        let app = (self.cfg.resolve)(&app_name).ok_or_else(|| ServeError::UnknownApp {
            job: specs[0].id.clone(),
            app: app_name.clone(),
        })?;

        self.journal.append(&Record::Started {
            wave,
            attempt,
            device: 0,
            jobs: ids.to_vec(),
        })?;
        if self.cfg.wave_pause_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(self.cfg.wave_pause_ms));
        }

        let arg_lines: Vec<Vec<String>> = specs.iter().map(|s| s.args.clone()).collect();
        let opts = EnsembleOptions {
            num_instances: ids.len() as u32,
            thread_limit: self.cfg.thread_limit,
            ..EnsembleOptions::default()
        };
        // One launch attempt per wave: retries are a *journaled*,
        // cross-wave affair (`retry-failed`), so recovery survives the
        // daemon itself dying between attempts.
        let policy = RecoveryPolicy {
            max_attempts: 1,
            ..self.cfg.recovery.clone()
        };
        let mut gpu = Gpu::a100();
        if self.cfg.mem_aware {
            // Waves are already sized to capacity by the pilot peaks;
            // the free-list allocator recycles the per-team churn.
            gpu.mem.set_free_lists(true);
        }
        let mut obs = Recorder::disabled();
        if let Some(reg) = &self.cfg.monitor {
            obs.set_monitor(Arc::clone(reg) as Arc<dyn dgc_obs::MonitorSink>);
        }
        // A one-device fleet: the executor runs no pilots of its own
        // (`mem_aware = false`) — the wave is already sized.
        let res = run_ensemble_sharded_resilient_mem_aware(
            &mut DeviceFleet::from_gpus(vec![gpu]),
            &app,
            &arg_lines,
            &opts,
            0,
            Placement::RoundRobin,
            &FaultPlan::default(),
            &policy,
            &mut obs,
            false,
        )?;
        self.executed.extend(ids.iter().cloned());

        let mut dones = Vec::with_capacity(ids.len());
        for (i, spec) in specs.iter().enumerate() {
            let out = &res.ensemble.instances[i];
            let end_s = res.ensemble.instance_end_times_s[i];
            let deadline_s = spec.deadline_s.or(self.cfg.default_deadline_s);
            dones.push(JobDone {
                job: spec.id.clone(),
                wave,
                exit: out.exit_code,
                error: out.error.clone(),
                oom: out.oom,
                timed_out: out.timed_out,
                deadline: deadline_s.is_some_and(|d| end_s > d),
                end_s,
                stdout: res.ensemble.stdout[i].clone(),
            });
        }
        let to_append: Vec<Record> = dones
            .iter()
            .filter(|d| !skip_done.contains(&d.job))
            .cloned()
            .map(Record::Done)
            .collect();
        self.journal.append_batch(&to_append)?;

        // Mirror the journal into the in-memory state (replay-equivalent).
        if let Some(w) = self.state.waves.iter_mut().find(|w| w.wave == wave) {
            w.attempt = attempt;
            w.jobs = ids.to_vec();
            for d in dones {
                w.done.insert(d.job.clone(), d);
            }
        } else {
            let mut done = HashMap::new();
            for d in dones {
                done.insert(d.job.clone(), d);
            }
            self.state.waves.push(crate::state::Wave {
                wave,
                attempt,
                device: 0,
                jobs: ids.to_vec(),
                done,
            });
        }

        if let Some(m) = &self.metrics {
            m.waves.inc();
            m.wave_latency.observe_seconds(res.ensemble.total_time_s);
        }
        Ok(())
    }

    /// Re-execute every interrupted wave with its exact journaled
    /// membership. Must run before any new wave forms.
    pub fn run_interrupted(&mut self) -> Result<usize, ServeError> {
        let waves: Vec<(u32, u32, Vec<String>, Vec<String>)> = self
            .state
            .interrupted()
            .iter()
            .map(|w| {
                (
                    w.wave,
                    w.attempt,
                    w.jobs.clone(),
                    w.done.keys().cloned().collect(),
                )
            })
            .collect();
        for (wave, attempt, jobs, have_done) in &waves {
            self.run_wave(*wave, *attempt, jobs, have_done)?;
        }
        Ok(waves.len())
    }

    /// Form and run one new wave. `Ok(false)` when nothing is pending.
    pub fn run_pending_step(&mut self) -> Result<bool, ServeError> {
        let Some(ids) = self.form_wave() else {
            return Ok(false);
        };
        let wave = self.state.next_wave();
        self.run_wave(wave, 1, &ids, &[])?;
        Ok(true)
    }

    /// Replay interrupted waves, then drain the pending queue.
    pub fn run_to_completion(&mut self) -> Result<(), ServeError> {
        self.run_interrupted()?;
        while self.run_pending_step()? {}
        Ok(())
    }

    /// One `retry-failed` round: re-launch every retryably-failed job
    /// whose attempt count is below the policy's `max_attempts`, in new
    /// waves, paying the policy's (optionally jittered) backoff in
    /// simulated time. Returns the number of jobs re-launched.
    pub fn retry_failed(&mut self) -> Result<usize, ServeError> {
        let eligible: Vec<(JobSpec, u32)> = self
            .state
            .failed_retryable()
            .into_iter()
            .filter(|j| self.state.attempts(&j.id) < self.cfg.recovery.max_attempts)
            .map(|j| (j.clone(), self.state.attempts(&j.id)))
            .collect();
        if eligible.is_empty() {
            return Ok(0);
        }
        // The round's backoff: each job runs its own (jittered) timer
        // keyed by its stable submission index; the shared retry wave
        // launches when the last timer fires.
        let wait = eligible
            .iter()
            .map(|(j, attempts)| {
                let idx = self
                    .state
                    .jobs
                    .iter()
                    .position(|s| s.id == j.id)
                    .unwrap_or(0) as u32;
                self.cfg.recovery.backoff_wait_jittered_s(*attempts, idx)
            })
            .fold(0.0, f64::max);
        self.backoff_s += wait;
        if let Some(m) = &self.metrics {
            m.retried.add(eligible.len() as u64);
        }

        let mut retried = 0usize;
        let mut queue: Vec<(JobSpec, u32)> = eligible;
        while !queue.is_empty() {
            let head_app = queue[0].0.app.clone();
            let mut ids = Vec::new();
            let mut attempt = 0u32;
            let mut costs = Vec::new();
            let mut peaks = Vec::new();
            let mut rest = Vec::new();
            for (spec, attempts) in queue {
                if spec.app == head_app && ids.len() < self.cfg.max_wave as usize {
                    let (s, p) = self.cost_of(&spec);
                    costs.push(s);
                    peaks.push(p);
                    attempt = attempt.max(attempts + 1);
                    ids.push(spec.id);
                } else {
                    rest.push((spec, attempts));
                }
            }
            let take = wave_take(&costs, self.cfg.wave_budget_s, self.cfg.max_wave as usize);
            let take = self.mem_cap(&peaks, take);
            for id in ids.split_off(take) {
                // Over-budget members wait for the next round's wave.
                let spec = self.state.spec(&id).cloned().unwrap();
                let attempts = self.state.attempts(&id);
                rest.push((spec, attempts));
            }
            let wave = self.state.next_wave();
            self.run_wave(wave, attempt, &ids, &[])?;
            retried += ids.len();
            queue = rest;
        }
        Ok(retried)
    }

    /// Aggregate job counts (the `status` subcommand and exit contract).
    pub fn summary(&self) -> StatusSummary {
        let mut s = StatusSummary {
            jobs: self.state.jobs.len(),
            waves: self.state.waves.len(),
            ..StatusSummary::default()
        };
        for j in &self.state.jobs {
            match self.state.phase(&j.id) {
                Some(JobPhase::Done(d)) if d.succeeded() => s.ok += 1,
                Some(JobPhase::Done(_)) => s.failed += 1,
                Some(JobPhase::Cancelled) => s.cancelled += 1,
                _ => s.pending += 1,
            }
        }
        s
    }

    /// The merged results document: one canonical JSON line per job in
    /// submission order, derived purely from journaled state — which is
    /// exactly why `resume` reproduces it byte-for-byte.
    pub fn merged_results(&self) -> String {
        use serde::Value;
        let mut out = String::from("# dgc-serve results v1\n");
        for j in &self.state.jobs {
            let phase = self.state.phase(&j.id);
            let mut fields: Vec<(String, Value)> = vec![
                ("job".into(), Value::Str(j.id.clone())),
                ("app".into(), Value::Str(j.app.clone())),
            ];
            match phase {
                Some(JobPhase::Done(d)) => {
                    let status = if d.succeeded() { "ok" } else { "failed" };
                    fields.push(("status".into(), Value::Str(status.into())));
                    fields.push((
                        "exit".into(),
                        match d.exit {
                            Some(c) if c >= 0 => Value::U64(c as u64),
                            Some(c) => Value::I64(i64::from(c)),
                            None => Value::Null,
                        },
                    ));
                    fields.push((
                        "error".into(),
                        match &d.error {
                            Some(e) => Value::Str(e.clone()),
                            None => Value::Null,
                        },
                    ));
                    fields.push(("oom".into(), Value::Bool(d.oom)));
                    fields.push(("timed_out".into(), Value::Bool(d.timed_out)));
                    fields.push(("deadline".into(), Value::Bool(d.deadline)));
                    fields.push(("wave".into(), Value::U64(u64::from(d.wave))));
                    fields.push((
                        "attempts".into(),
                        Value::U64(u64::from(self.state.attempts(&j.id))),
                    ));
                    fields.push(("end_s".into(), Value::F64(d.end_s)));
                    fields.push(("stdout".into(), Value::Str(d.stdout.clone())));
                }
                Some(JobPhase::Cancelled) => {
                    fields.push(("status".into(), Value::Str("cancelled".into())));
                }
                _ => {
                    fields.push(("status".into(), Value::Str("pending".into())));
                }
            }
            let line = serde_json::to_string(&Value::Object(fields))
                .expect("results rows always serialize");
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}
