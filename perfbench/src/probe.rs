//! Host-time probes for the traced run.
//!
//! Everything here observes the simulator from outside, through public
//! items: a benchmark-owned [`MonitorSink`] attached with
//! `Recorder::set_monitor` timestamps `team_done`, `kernel_launch` and RPC
//! round trips; a wrapper around each app's `main` timestamps the moment a
//! team starts running application code, and which app, instance and
//! argument line it runs; and [`span`] records the benchmark's own calls
//! into each module in a `dgc_obs::Recorder`. Nothing is fed back into
//! the simulation, and the output digest checks that the traced run's
//! simulated numbers equal the untraced run's.

use dgc_core::{AppContext, AppMainFn, HostApp, Loader};
use dgc_obs::{MonitorSink, Recorder};
use gpu_sim::{KernelError, TeamCtx};
use serde::Value;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

static ORIGIN: OnceLock<Instant> = OnceLock::new();
static ARMED: AtomicBool = AtomicBool::new(false);
static EVENTS: Mutex<Vec<Event>> = Mutex::new(Vec::new());
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Seconds since the process's first probe reading.
pub fn now() -> f64 {
    ORIGIN.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Small stable id of the calling thread.
pub fn thread() -> u64 {
    THREAD.with(|t| *t)
}

#[derive(Debug, Clone)]
pub enum Kind {
    /// A team entered its app's `main`: the app, the team's instance
    /// within its launch, the launch's instance count and the team's
    /// argument line.
    Main {
        app: &'static str,
        instance: u32,
        instances: u32,
        args: Vec<String>,
    },
    /// `MonitorSink::team_done`: team `done - 1` of a launch of `total`
    /// finished functional execution.
    TeamDone { done: u32, total: u32 },
    /// `MonitorSink::kernel_launch`: the launch's rollup is done.
    Kernel { device: u32 },
    /// `MonitorSink::rpc_activity`, on the host-rpc server thread.
    Rpc { calls: u64, failures: u64 },
}

#[derive(Debug, Clone)]
pub struct Event {
    pub t: f64,
    pub thread: u64,
    pub kind: Kind,
}

fn record(kind: Kind) {
    if !ARMED.load(Ordering::Relaxed) {
        return;
    }
    let e = Event {
        t: now(),
        thread: thread(),
        kind,
    };
    EVENTS.lock().expect("probe lock poisoned").push(e);
}

/// Start collecting events (clears earlier ones).
pub fn arm() {
    EVENTS.lock().expect("probe lock poisoned").clear();
    ARMED.store(true, Ordering::SeqCst);
}

/// Stop collecting and take the events, in time order.
pub fn disarm() -> Vec<Event> {
    ARMED.store(false, Ordering::SeqCst);
    std::mem::take(&mut *EVENTS.lock().expect("probe lock poisoned"))
}

struct Sink;

impl MonitorSink for Sink {
    fn team_done(&self, _device: u32, done: u32, total: u32) {
        record(Kind::TeamDone { done, total });
    }

    fn kernel_launch(&self, device: u32, _instances: u32, _busy_s: f64) {
        record(Kind::Kernel { device });
    }

    fn rpc_activity(&self, calls: u64, failures: u64) {
        record(Kind::Rpc { calls, failures });
    }
}

/// The benchmark's monitor sink, for `Recorder::set_monitor`.
pub fn sink() -> Arc<dyn MonitorSink> {
    Arc::new(Sink)
}

static REAL_MAINS: OnceLock<Vec<(&'static str, AppMainFn)>> = OnceLock::new();

fn real_mains() -> &'static [(&'static str, AppMainFn)] {
    REAL_MAINS.get_or_init(|| {
        dgc_apps::all_apps()
            .into_iter()
            .map(|a| (a.name, a.main))
            .collect()
    })
}

fn traced_main<const K: usize>(
    team: &mut TeamCtx<'_>,
    cx: &AppContext,
) -> Result<i32, KernelError> {
    if ARMED.load(Ordering::Relaxed) {
        record(Kind::Main {
            app: real_mains()[K].0,
            instance: cx.instance,
            instances: cx.num_instances,
            args: cx.argv.get(1..).unwrap_or_default().to_vec(),
        });
    }
    (real_mains()[K].1)(team, cx)
}

const TRACED_MAINS: [AppMainFn; 4] = [
    traced_main::<0>,
    traced_main::<1>,
    traced_main::<2>,
    traced_main::<3>,
];

/// The app registry with every `main` wrapped, in the shape of
/// `ServeConfig::resolve`.
pub fn traced_by_name(name: &str) -> Option<HostApp> {
    traced(&dgc_apps::app_by_name(name)?).ok()
}

/// `app` with its `main` wrapped to timestamp each team's start.
pub fn traced(app: &HostApp) -> Result<HostApp, String> {
    let k = real_mains()
        .iter()
        .position(|(name, _)| *name == app.name)
        .filter(|&k| k < TRACED_MAINS.len())
        .ok_or_else(|| format!("no traced main for app `{}`", app.name))?;
    Ok(HostApp {
        main: TRACED_MAINS[k],
        ..app.clone()
    })
}

/// One kernel launch inside a driver call, cut at its probe events.
#[derive(Debug, Clone)]
pub struct Launch {
    pub device: u32,
    pub teams: u32,
    /// From the previous boundary (call start or previous `kernel_launch`)
    /// to the launch's first team entering `main`: compile, argv and
    /// globals, RPC thread spawn, the previous launch's merge, pilots.
    pub gap_s: f64,
    /// First team entering `main` to the last `team_done`.
    pub functional_s: f64,
    /// Last `team_done` to `kernel_launch`: `simulate_timing`, rollup and
    /// instance teardown.
    pub timing_s: f64,
}

/// A driver call split at its launches.
#[derive(Debug, Clone, Default)]
pub struct CallSplit {
    pub launches: Vec<Launch>,
}

impl CallSplit {
    pub fn functional_s(&self) -> f64 {
        self.launches.iter().map(|l| l.functional_s).sum()
    }

    pub fn timing_s(&self) -> f64 {
        self.launches.iter().map(|l| l.timing_s).sum()
    }
}

/// Split the driver call that ran on `thread` over `[t0, t1]` at its
/// launches.
///
/// A launch's functional phase starts when its first team enters `main`
/// (the latest `main` entry with the launch's instance count before its
/// first `team_done`; a team trapped by an injected fault never enters
/// `main`, and then the first `team_done` is used).
pub fn split_call(events: &[Event], thread: u64, t0: f64, t1: f64) -> CallSplit {
    struct Open {
        start: f64,
        last_done: f64,
        total: u32,
    }
    let mut split = CallSplit::default();
    let mut cursor = t0;
    let mut last_main: Option<(f64, u32)> = None;
    let mut open: Option<Open> = None;
    for e in within(events, thread, t0, t1) {
        match e.kind {
            Kind::Main { instances, .. } => last_main = Some((e.t, instances)),
            Kind::TeamDone { total, .. } => {
                let o = open.get_or_insert_with(|| {
                    let start = match last_main {
                        Some((t, n)) if t >= cursor && n == total => t,
                        _ => e.t,
                    };
                    Open {
                        start,
                        last_done: e.t,
                        total,
                    }
                });
                o.last_done = e.t;
            }
            Kind::Kernel { device } => {
                if let Some(o) = open.take() {
                    split.launches.push(Launch {
                        device,
                        teams: o.total,
                        gap_s: o.start - cursor,
                        functional_s: o.last_done - o.start,
                        timing_s: e.t - o.last_done,
                    });
                    cursor = e.t;
                }
            }
            Kind::Rpc { .. } => {}
        }
    }
    split
}

/// The events `thread` recorded over `[t0, t1]`.
pub fn within(events: &[Event], thread: u64, t0: f64, t1: f64) -> impl Iterator<Item = &Event> {
    events
        .iter()
        .filter(move |e| e.thread == thread && e.t >= t0 && e.t <= t1)
}

/// The `main` entries of launches the benchmark's sink does not see, on
/// `thread` over `[t0, t1]`. Teams run one after another, so team `i` of
/// a monitored launch of `n` reports `team_done(i + 1, n)` before the
/// next team enters `main`; an entry followed by anything else belongs to
/// a launch the driver ran without the caller's recorder — its pilots. (A
/// team trapped before `main` reports `team_done` with no entry, so the
/// match is on the team and launch size, not on adjacency alone.)
pub fn unmonitored_mains(events: &[Event], thread: u64, t0: f64, t1: f64) -> Vec<&Event> {
    let seen: Vec<&Event> = within(events, thread, t0, t1)
        .filter(|e| !matches!(e.kind, Kind::Rpc { .. }))
        .collect();
    let mut out = Vec::new();
    for (k, e) in seen.iter().enumerate() {
        let Kind::Main {
            instance,
            instances,
            ..
        } = e.kind
        else {
            continue;
        };
        let done_next = matches!(
            seen.get(k + 1).map(|n| &n.kind),
            Some(&Kind::TeamDone { done, total }) if done == instance + 1 && total == instances
        );
        if !done_next {
            out.push(*e);
        }
    }
    out
}

/// RPC round trips and failures seen by the sink.
pub fn rpc_totals(events: &[Event]) -> (u64, u64) {
    events.iter().fold((0, 0), |(c, f), e| match e.kind {
        Kind::Rpc { calls, failures } => (c + calls, f + failures),
        _ => (c, f),
    })
}

/// Record a span of the benchmark's call into `layer` over
/// `[start, end]` in `spans`; spans of one pass share `request`. Returns
/// the span's id, for its children's `parent`.
pub fn span(
    spans: &mut Recorder,
    layer: &str,
    name: &str,
    (start, end): (f64, f64),
    parent: Option<usize>,
    request: u64,
) -> usize {
    let id = spans.events().len();
    spans.span_args(
        0,
        thread() as u32,
        name,
        layer,
        start * 1e6,
        (end - start) * 1e6,
        vec![
            ("id".into(), Value::U64(id as u64)),
            (
                "parent".into(),
                parent.map_or(Value::Null, |p| Value::U64(p as u64)),
            ),
            ("request".into(), Value::U64(request)),
        ],
    );
    id
}

/// One `functional` and one `timing` span per launch of `split`, as
/// children of the driver call's span `parent` that started at `t0`.
pub fn launch_spans(spans: &mut Recorder, split: &CallSplit, t0: f64, parent: usize, request: u64) {
    let mut cursor = t0;
    for l in &split.launches {
        let f0 = cursor + l.gap_s;
        let f1 = f0 + l.functional_s;
        cursor = f1 + l.timing_s;
        let dev = l.device;
        let functional = format!("functional dev{dev}");
        span(
            spans,
            "gpu-sim",
            &functional,
            (f0, f1),
            Some(parent),
            request,
        );
        let timing = format!("timing dev{dev}");
        span(
            spans,
            "gpu-sim",
            &timing,
            (f1, cursor),
            Some(parent),
            request,
        );
    }
}

/// Median host time of `Loader::compile_app` for each app: the estimate
/// multiplied by the launch count gives `frontend.compile_s`.
pub fn compile_times(
    apps: &[HostApp],
    spans: &mut Recorder,
    request: u64,
) -> Result<Vec<f64>, String> {
    const REPEATS: usize = 5;
    let loader = Loader::default();
    apps.iter()
        .map(|app| {
            let mut times = Vec::with_capacity(REPEATS);
            for _ in 0..REPEATS {
                let t0 = now();
                let image = loader.compile_app(app);
                let t1 = now();
                image.map_err(|e| format!("{} does not compile: {e}", app.name))?;
                let name = format!("Loader::compile_app {}", app.name);
                span(spans, "frontend", &name, (t0, t1), None, request);
                times.push(t1 - t0);
            }
            Ok(crate::stats::median(&times))
        })
        .collect()
}
