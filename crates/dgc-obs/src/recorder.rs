//! The span/event recorder and its gpu-sim bridge.

use crate::monitor::MonitorSink;
use gpu_sim::ScheduleDetail;
use serde::Value;
use std::sync::Arc;

/// Process lane reserved for the host-side loader timeline (argfile
/// parsing, H2D/D2H transfers, the kernel envelope, RPC service totals).
pub const PID_HOST: u32 = 0;

/// Process lane of a simulated SM. SM lanes start at 1 so they never
/// collide with [`PID_HOST`].
pub fn sm_pid(sm: u32) -> u32 {
    sm + 1
}

/// Pid stride between per-device lane groups in a sharded launch: device
/// `d`'s lanes live at `d * DEVICE_PID_STRIDE + pid`. Large enough that no
/// simulated device's SM lanes (SM count + 1 host lane) can spill into the
/// next device's group.
pub const DEVICE_PID_STRIDE: u32 = 1024;

/// One recorded trace event, in Chrome trace-event terms: a complete span
/// (`ph = 'X'`, with a duration), an instant marker (`ph = 'i'`), or a
/// counter sample (`ph = 'C'`, numeric args plotted as a counter track).
/// Timestamps are microseconds on the simulated clock.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    pub name: String,
    /// Category, used by trace viewers for filtering ("loader", "kernel",
    /// "block", "phase", "rpc", "lifecycle", "counter", …).
    pub cat: String,
    /// 'X' = complete span, 'i' = instant, 'C' = counter sample.
    pub ph: char,
    /// Start timestamp, µs.
    pub ts: f64,
    /// Duration, µs; `None` for instants and counters.
    pub dur: Option<f64>,
    pub pid: u32,
    pub tid: u32,
    /// Free-form key/value payload rendered under `args`.
    pub args: Vec<(String, Value)>,
}

/// Records spans and instants on the simulated timeline.
///
/// Constructed [`Recorder::disabled`] (the default), every recording
/// method returns immediately — callers guard any expensive label
/// formatting behind [`Recorder::is_enabled`].
#[derive(Default)]
pub struct Recorder {
    enabled: bool,
    /// Offset added to every recorded timestamp; batched launches bump it
    /// so consecutive kernels land end-to-end on one timeline.
    base_us: f64,
    events: Vec<TraceEvent>,
    process_names: Vec<(u32, String)>,
    thread_names: Vec<((u32, u32), String)>,
    /// Optional live-telemetry sink ([`crate::MonitorSink`]); orthogonal
    /// to `enabled` — monitoring works with tracing off and vice versa.
    monitor: Option<Arc<dyn MonitorSink>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.enabled)
            .field("base_us", &self.base_us)
            .field("events", &self.events)
            .field("process_names", &self.process_names)
            .field("thread_names", &self.thread_names)
            .field("monitor", &self.monitor.as_ref().map(|_| "MonitorSink"))
            .finish()
    }
}

impl Recorder {
    /// A recorder that drops everything (the zero-cost default).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A recorder that keeps events.
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Current timeline offset in µs.
    pub fn base_us(&self) -> f64 {
        self.base_us
    }

    /// Attach a live-telemetry sink; driver instrumentation sites stream
    /// operational events into it via [`Recorder::monitor`].
    pub fn set_monitor(&mut self, sink: Arc<dyn MonitorSink>) {
        self.monitor = Some(sink);
    }

    /// The attached telemetry sink, if any.
    pub fn monitor(&self) -> Option<&Arc<dyn MonitorSink>> {
        self.monitor.as_ref()
    }

    /// Move the timeline origin (used between batches).
    pub fn set_base_us(&mut self, base_us: f64) {
        self.base_us = base_us;
    }

    /// Record a complete span of `dur_us` starting at `ts_us` (both
    /// relative to the current base).
    pub fn span(&mut self, pid: u32, tid: u32, name: &str, cat: &str, ts_us: f64, dur_us: f64) {
        self.span_args(pid, tid, name, cat, ts_us, dur_us, Vec::new());
    }

    /// [`Recorder::span`] with an `args` payload.
    #[allow(clippy::too_many_arguments)]
    pub fn span_args(
        &mut self,
        pid: u32,
        tid: u32,
        name: &str,
        cat: &str,
        ts_us: f64,
        dur_us: f64,
        args: Vec<(String, Value)>,
    ) {
        if !self.enabled {
            return;
        }
        self.events.push(TraceEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            ph: 'X',
            ts: self.base_us + ts_us,
            dur: Some(dur_us.max(0.0)),
            pid,
            tid,
            args,
        });
    }

    /// Record an instant marker.
    pub fn instant(&mut self, pid: u32, tid: u32, name: &str, cat: &str, ts_us: f64) {
        self.instant_args(pid, tid, name, cat, ts_us, Vec::new());
    }

    /// [`Recorder::instant`] with an `args` payload.
    pub fn instant_args(
        &mut self,
        pid: u32,
        tid: u32,
        name: &str,
        cat: &str,
        ts_us: f64,
        args: Vec<(String, Value)>,
    ) {
        if !self.enabled {
            return;
        }
        self.events.push(TraceEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            ph: 'i',
            ts: self.base_us + ts_us,
            dur: None,
            pid,
            tid,
            args,
        });
    }

    /// Record a counter sample (`ph = 'C'`): trace viewers plot the
    /// numeric `args` values of events sharing a `(pid, name)` pair as a
    /// stacked counter track — how the utilization timeline rides
    /// alongside the span lanes.
    pub fn counter_args(
        &mut self,
        pid: u32,
        tid: u32,
        name: &str,
        cat: &str,
        ts_us: f64,
        args: Vec<(String, Value)>,
    ) {
        if !self.enabled {
            return;
        }
        self.events.push(TraceEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            ph: 'C',
            ts: self.base_us + ts_us,
            dur: None,
            pid,
            tid,
            args,
        });
    }

    /// Give a process lane a display name (emitted as `process_name`
    /// metadata; later names for the same pid win, duplicates collapse).
    pub fn name_process(&mut self, pid: u32, name: &str) {
        if !self.enabled {
            return;
        }
        if let Some(slot) = self.process_names.iter_mut().find(|(p, _)| *p == pid) {
            slot.1 = name.to_string();
        } else {
            self.process_names.push((pid, name.to_string()));
        }
    }

    /// Give a thread lane a display name (`thread_name` metadata).
    pub fn name_thread(&mut self, pid: u32, tid: u32, name: &str) {
        if !self.enabled {
            return;
        }
        let key = (pid, tid);
        if let Some(slot) = self.thread_names.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = name.to_string();
        } else {
            self.thread_names.push((key, name.to_string()));
        }
    }

    /// All events recorded so far, in recording order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Merge another recorder's events and lane names into this one with
    /// every pid shifted by `pid_offset` and every process name prefixed
    /// with `name_prefix` — how a sharded launch folds each device's
    /// private recorder into one trace, one lane group per device.
    ///
    /// Timestamps are copied as-is: device recorders are created with the
    /// parent's base already applied, so their events are absolute on the
    /// shared timeline.
    pub fn merge_shifted(&mut self, other: &Recorder, pid_offset: u32, name_prefix: &str) {
        if !self.enabled {
            return;
        }
        for e in &other.events {
            let mut e = e.clone();
            e.pid += pid_offset;
            self.events.push(e);
        }
        for (pid, name) in &other.process_names {
            self.name_process(pid + pid_offset, &format!("{name_prefix}{name}"));
        }
        for (&(pid, tid), name) in other.thread_names.iter().map(|(k, n)| (k, n)) {
            self.name_thread(pid + pid_offset, tid, name);
        }
    }

    pub(crate) fn process_names(&self) -> &[(u32, String)] {
        &self.process_names
    }

    pub(crate) fn thread_names(&self) -> &[((u32, u32), String)] {
        &self.thread_names
    }
}

/// Replay a kernel's [`ScheduleDetail`] into the recorder: one span per
/// block on its SM's lane, one span per team phase nested under it, wave
/// markers on the host lane, and RPC-stall instants on phases that issued
/// host calls.
///
/// `us_per_cycle` converts simulated core cycles to microseconds;
/// `offset_us` positions the kernel on the launch timeline (after H2D and
/// launch overhead).
pub fn record_schedule(
    rec: &mut Recorder,
    sched: &ScheduleDetail,
    us_per_cycle: f64,
    offset_us: f64,
) {
    if !rec.is_enabled() {
        return;
    }
    for (w, &start) in sched.wave_starts.iter().enumerate() {
        rec.instant(
            PID_HOST,
            0,
            &format!("wave {w}"),
            "wave",
            offset_us + start * us_per_cycle,
        );
    }
    // SM of each block, for phase-span lane placement.
    let mut sm_of_block: Vec<(u32, u32)> = Vec::with_capacity(sched.blocks.len());
    for b in &sched.blocks {
        sm_of_block.push((b.block, b.sm));
        rec.name_process(sm_pid(b.sm), &format!("SM {}", b.sm));
        rec.name_thread(sm_pid(b.sm), b.block, &format!("block {}", b.block));
        let mut args = vec![("wave".into(), Value::U64(b.wave as u64))];
        if let Some(st) = &b.stalls {
            args.push(("stall".into(), Value::Str(st.dominant().to_string())));
            for (name, cycles) in st.named() {
                args.push((format!("stall_{name}"), Value::F64(cycles)));
            }
        }
        rec.span_args(
            sm_pid(b.sm),
            b.block,
            &format!("block {}", b.block),
            "block",
            offset_us + b.start_cycle * us_per_cycle,
            (b.end_cycle - b.start_cycle) * us_per_cycle,
            args,
        );
    }
    for p in &sched.phase_spans {
        let sm = sm_of_block
            .iter()
            .find(|(b, _)| *b == p.block)
            .map(|&(_, s)| s)
            .unwrap_or(0);
        rec.span_args(
            sm_pid(sm),
            p.block,
            &p.label,
            "phase",
            offset_us + p.start_cycle * us_per_cycle,
            (p.end_cycle - p.start_cycle) * us_per_cycle,
            vec![
                ("team".into(), Value::U64(p.team as u64)),
                ("phase".into(), Value::U64(p.phase as u64)),
                ("rpc_calls".into(), Value::U64(p.rpc_calls)),
            ],
        );
        if p.rpc_calls > 0 {
            rec.instant(
                sm_pid(sm),
                p.block,
                &format!("rpc stall ×{}", p.rpc_calls),
                "rpc",
                offset_us + p.end_cycle * us_per_cycle,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_drops_everything() {
        let mut r = Recorder::disabled();
        r.span(0, 0, "a", "c", 0.0, 1.0);
        r.instant(1, 2, "b", "c", 5.0);
        r.name_process(0, "host");
        assert!(!r.is_enabled());
        assert!(r.events().is_empty());
        assert!(r.process_names().is_empty());
    }

    #[test]
    fn base_offset_applies_to_new_events_only() {
        let mut r = Recorder::enabled();
        r.span(0, 0, "first", "c", 1.0, 2.0);
        r.set_base_us(100.0);
        r.span(0, 0, "second", "c", 1.0, 2.0);
        assert_eq!(r.events()[0].ts, 1.0);
        assert_eq!(r.events()[1].ts, 101.0);
    }

    #[test]
    fn counters_record_with_base_offset_and_no_duration() {
        let mut r = Recorder::enabled();
        r.set_base_us(10.0);
        r.counter_args(
            PID_HOST,
            0,
            "utilization",
            "counter",
            5.0,
            vec![("issue".into(), Value::F64(0.25))],
        );
        let e = &r.events()[0];
        assert_eq!(e.ph, 'C');
        assert_eq!(e.ts, 15.0);
        assert_eq!(e.dur, None);
        assert_eq!(e.args[0].0, "issue");
        // A disabled recorder drops counters like everything else.
        let mut d = Recorder::disabled();
        d.counter_args(PID_HOST, 0, "utilization", "counter", 0.0, Vec::new());
        assert!(d.events().is_empty());
    }

    #[test]
    fn negative_durations_clamp_to_zero() {
        let mut r = Recorder::enabled();
        r.span(0, 0, "neg", "c", 1.0, -2.0);
        assert_eq!(r.events()[0].dur, Some(0.0));
    }

    #[test]
    fn lane_names_deduplicate() {
        let mut r = Recorder::enabled();
        r.name_process(1, "SM 0");
        r.name_process(1, "SM 0 renamed");
        r.name_thread(1, 7, "block 7");
        r.name_thread(1, 7, "block 7");
        assert_eq!(r.process_names(), &[(1, "SM 0 renamed".to_string())]);
        assert_eq!(r.thread_names().len(), 1);
    }

    #[test]
    fn merge_shifted_moves_lanes_and_prefixes_names() {
        let mut child = Recorder::enabled();
        child.set_base_us(50.0);
        child.name_process(PID_HOST, "host");
        child.name_process(sm_pid(0), "SM 0");
        child.name_thread(sm_pid(0), 3, "block 3");
        child.span(sm_pid(0), 3, "block 3", "block", 1.0, 2.0);

        let mut parent = Recorder::enabled();
        parent.merge_shifted(&child, DEVICE_PID_STRIDE, "dev1 ");
        let e = &parent.events()[0];
        assert_eq!(e.pid, DEVICE_PID_STRIDE + sm_pid(0));
        // Child timestamps already include the child's base — copied as-is.
        assert_eq!(e.ts, 51.0);
        assert!(parent
            .process_names()
            .iter()
            .any(|(p, n)| *p == DEVICE_PID_STRIDE && n == "dev1 host"));
        assert!(parent
            .thread_names()
            .iter()
            .any(|((p, t), n)| *p == DEVICE_PID_STRIDE + 1 && *t == 3 && n == "block 3"));
    }

    #[test]
    fn merge_into_disabled_recorder_is_a_no_op() {
        let mut child = Recorder::enabled();
        child.span(0, 0, "a", "c", 0.0, 1.0);
        let mut parent = Recorder::disabled();
        parent.merge_shifted(&child, DEVICE_PID_STRIDE, "dev1 ");
        assert!(parent.events().is_empty());
    }

    #[test]
    fn schedule_replay_covers_blocks_phases_and_waves() {
        use gpu_sim::{Gpu, KernelSpec};
        let mut gpu = Gpu::a100();
        let spec = KernelSpec::new("obs", 3, 32);
        let res = gpu
            .launch(&spec, None, |ctx| {
                ctx.serial("work", |lane| {
                    lane.work(500.0);
                    Ok(())
                })?;
                Ok(0)
            })
            .unwrap();
        let sched = res.schedule;
        let mut rec = Recorder::enabled();
        record_schedule(&mut rec, &sched, 1.0, 10.0);
        let blocks = rec.events().iter().filter(|e| e.cat == "block").count();
        let phases = rec.events().iter().filter(|e| e.cat == "phase").count();
        let waves = rec.events().iter().filter(|e| e.cat == "wave").count();
        assert_eq!(blocks, 3);
        assert_eq!(phases, sched.phase_spans.len());
        assert_eq!(waves as u32, sched.waves());
        // All device events are shifted by the kernel offset.
        assert!(rec
            .events()
            .iter()
            .filter(|e| e.cat != "wave")
            .all(|e| e.ts >= 10.0));
    }
}
