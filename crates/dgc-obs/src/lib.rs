//! Observability for ensemble launches (`dgc-obs`).
//!
//! Three layers, all pay-for-what-you-use:
//!
//! 1. [`Recorder`] — a lightweight span/event recorder on the *simulated*
//!    clock (microseconds since launch start). A disabled recorder drops
//!    every event at the door, so instrumented code paths cost one branch
//!    when tracing is off and the simulation output stays byte-identical.
//! 2. [`InstanceMetrics`] / [`LaunchMetrics`] — per-instance and
//!    launch-wide counters (cycles, warp instructions, bytes, RPC calls by
//!    service, heap high-water mark), exported as JSONL via
//!    [`metrics_jsonl`].
//! 3. Chrome trace-event export — [`Recorder::to_chrome_trace`] renders
//!    the recorded spans as a `{"traceEvents": [...]}` document that
//!    loads in Perfetto / `chrome://tracing`, one process lane per SM
//!    plus a host lane for the loader timeline.
//! 4. [`LaunchTimeline`] — the opt-in utilization time series: gpu-sim's
//!    periodic samples converted to wall microseconds, exported both as
//!    Chrome counter tracks (`"ph":"C"`) and as the metrics schema v5
//!    `timeline` array.
//! 5. [`SpanGraph`] — the causal span graph: every run's exact
//!    makespan addends in accumulation order, plus per-launch critical
//!    chains, stall buckets and wave layouts. `dgc-insight` consumes it
//!    for critical-path blame analysis and flamegraph export;
//!    [`SpanGraph::replay_makespan_s`] reproduces the reported makespan
//!    bit-exactly.
//!
//! The recorder is deliberately format-agnostic: instrumentation sites in
//! `dgc-core`, `gpu-sim` and `host-rpc` only push named spans; the lane
//! conventions ([`PID_HOST`], [`sm_pid`]) and exporters live here.

mod chrome;
mod fsio;
mod graph;
mod metrics;
mod monitor;
mod recorder;
mod timeline;

pub use chrome::validate_chrome_trace;
pub use fsio::write_atomic;
pub use graph::{CriticalHop, LaunchNode, SpanGraph, SpanNode};
pub use metrics::{
    metrics_jsonl, InstanceMetrics, LatencyPercentiles, LaunchMetrics, Log2Histogram,
    RpcCallCounts, METRICS_SCHEMA_VERSION,
};
pub use monitor::{DeviceStamped, MonitorSink};
pub use recorder::{record_schedule, sm_pid, Recorder, TraceEvent, DEVICE_PID_STRIDE, PID_HOST};
pub use timeline::{LaunchTimeline, TimelinePoint};
