//! Per-instance and launch-wide metrics, with a JSONL exporter.

use crate::timeline::TimelinePoint;
use gpu_sim::StallBuckets;
use host_rpc::RpcStats;
use serde::{Deserialize, Serialize, Value};

/// Version of the JSONL metrics schema emitted by [`metrics_jsonl`] (and
/// stamped into every launch record). Bump whenever a record field
/// changes shape or meaning so profile-diff tooling can refuse to compare
/// incompatible snapshots.
///
/// * v1 — PR 1: instance + launch records, no stall or percentile fields.
/// * v2 — PR 2: per-instance `stall` bucket object, launch-level
///   `schema`, `latency` and `rpc_stall` percentile objects.
/// * v3 — PR 4: recovery fields. Per-instance `timed_out` and
///   `attempt`; launch-level `attempts`, `retried`, `recovered`,
///   `unrecovered`, `timeouts`, `oom_splits`, `final_batch` and
///   `backoff_s`. For resilient runs `failed`/`oom` count failures
///   *cumulatively across attempts*; `unrecovered` is the count after
///   recovery (what v2's `failed` meant for a single-shot launch).
/// * v4 — PR 5: multi-device fields. Per-instance `device` (the
///   fleet index the instance ran on; 0 for single-device launches);
///   launch-level `devices` (fleet size, 1 outside the sharded driver)
///   and `makespan_s` (max per-device wall time; equals `total_time_s`
///   for single-device launches).
/// * v5 — PR 5: utilization-timeline fields. Launch-level
///   `timeline` (periodic [`TimelinePoint`] samples; empty when sampling
///   was off) plus `utilization_mean` and `utilization_p95` (rollups of
///   the timeline's issue-rate series; `null` when sampling was off).
/// * v6 — this version: allocator fields. The per-instance (and
///   timeline) `stall` object gains an `alloc` bucket; launch-level
///   `peak_mem_bytes` (per-device heap high-water marks, fleet-indexed),
///   `fragmentation` (worst end-of-round free-space fragmentation
///   observed on any device, [0, 1]) and `alloc_fallbacks` (allocations
///   that took the global first-fit path while per-team free lists were
///   enabled; 0 when free lists were off).
pub const METRICS_SCHEMA_VERSION: u32 = 6;

/// Fixed-bucket base-2 logarithmic histogram over `u64` samples.
///
/// Bucket 0 holds exactly the value 0; bucket `i ≥ 1` holds values in
/// `[2^(i-1), 2^i)` — i.e. a value lands in the bucket of its bit width.
/// 65 counters cover the full `u64` range with no allocation and O(1)
/// recording, the classic trade of ≤ 2× value resolution for a tiny,
/// mergeable footprint.
#[derive(Debug, Clone, PartialEq)]
pub struct Log2Histogram {
    counts: [u64; 65],
    total: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self {
            counts: [0; 65],
            total: 0,
        }
    }
}

impl Log2Histogram {
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    /// Inclusive upper bound of bucket `i` (what percentile queries
    /// report).
    fn bucket_max(i: usize) -> u64 {
        match i {
            0 => 0,
            64 => u64::MAX,
            _ => (1u64 << i) - 1,
        }
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.total += 1;
    }

    /// Number of recorded samples.
    pub fn len(&self) -> u64 {
        self.total
    }

    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Merge another histogram's samples into this one (buckets align by
    /// construction — both are fixed base-2).
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Per-bucket `(inclusive upper bound, count)` pairs, low to high —
    /// how cumulative-bucket exporters (OpenMetrics `_bucket{le=...}`)
    /// read the histogram without widening its API per bucket.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (Self::bucket_max(i), c))
    }

    /// Upper bound of the bucket containing the `p`-quantile sample
    /// (`p` in `[0, 1]`); 0 for an empty histogram. The bound
    /// overestimates the true quantile by at most 2×.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_max(i);
            }
        }
        u64::MAX
    }
}

/// p50/p90/p99 summary of a latency population, in seconds. Derived from
/// a [`Log2Histogram`] over nanoseconds, so each value carries that
/// histogram's ≤ 2× bucket resolution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencyPercentiles {
    pub p50_s: f64,
    pub p90_s: f64,
    pub p99_s: f64,
}

impl LatencyPercentiles {
    /// Summarize a population of durations given in seconds.
    pub fn from_seconds(samples: impl IntoIterator<Item = f64>) -> Self {
        let mut h = Log2Histogram::new();
        for s in samples {
            h.record((s.max(0.0) * 1e9).round() as u64);
        }
        Self::from_ns_histogram(&h)
    }

    /// Summarize an already-built nanosecond histogram.
    pub fn from_ns_histogram(h: &Log2Histogram) -> Self {
        Self {
            p50_s: h.percentile(0.50) as f64 * 1e-9,
            p90_s: h.percentile(0.90) as f64 * 1e-9,
            p99_s: h.percentile(0.99) as f64 * 1e-9,
        }
    }
}

/// Host-RPC round trips broken down by service, as seen by one instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RpcCallCounts {
    pub stdio: u64,
    pub fs: u64,
    pub clock: u64,
    pub exit: u64,
    /// Requests answered with an error response (already included in the
    /// per-service counts).
    pub errors: u64,
}

impl RpcCallCounts {
    /// Total round trips (errors are not double-counted).
    pub fn total(&self) -> u64 {
        self.stdio + self.fs + self.clock + self.exit
    }
}

impl From<RpcStats> for RpcCallCounts {
    fn from(s: RpcStats) -> Self {
        Self {
            stdio: s.stdio_calls,
            fs: s.fs_calls,
            clock: s.clock_calls,
            exit: s.exit_calls,
            errors: s.errors,
        }
    }
}

/// Everything the simulator knows about one instance of an ensemble
/// launch, flattened for export. One JSONL record per instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstanceMetrics {
    /// Instance id within the launch (its heap-region tag).
    pub instance: u32,
    /// `__user_main`'s return value, `None` if the instance trapped.
    pub exit_code: Option<i32>,
    pub trapped: bool,
    /// Trapped specifically on device-heap exhaustion.
    pub oom: bool,
    /// Killed by the watchdog after exceeding its cycle budget (subset of
    /// `trapped`).
    pub timed_out: bool,
    /// Recovery attempt that produced this record: 0 for the first launch,
    /// `n` for the n-th retry. Always 0 without recovery.
    pub attempt: u32,
    /// Fleet index of the device the instance ran on. Always 0 on a
    /// one-device run.
    pub device: u32,
    /// Simulated completion time of the instance's block, seconds from
    /// launch-sequence start.
    pub end_time_s: f64,
    /// Completion cycle of the instance's block within its kernel.
    pub cycles: f64,
    /// Warp-instructions executed by the instance's team.
    pub warp_insts: f64,
    /// Bytes the instance's loads/stores actually needed.
    pub useful_bytes: f64,
    /// Bytes moved after coalescing into 32 B sectors.
    pub moved_bytes: f64,
    /// 32 B sector transactions.
    pub sectors: u64,
    /// High-water mark of the instance's device-heap region, bytes.
    pub heap_peak_bytes: u64,
    /// RPC round trips by service.
    pub rpc: RpcCallCounts,
    /// Modeled warp-visible time spent waiting on host round trips.
    pub rpc_stall_s: f64,
    /// Stall-cycle decomposition of the instance's block: exclusive
    /// buckets summing to `cycles` (instances packed into one block share
    /// their block's decomposition).
    pub stall: StallBuckets,
}

/// Launch-wide rollup: one JSONL record per ensemble launch, after the
/// per-instance records.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LaunchMetrics {
    /// [`METRICS_SCHEMA_VERSION`] at export time.
    pub schema: u32,
    pub kernel: String,
    pub instances: u32,
    /// Instances that trapped or exited non-zero. Under the resilient
    /// driver this counts failures cumulatively across every attempt;
    /// `unrecovered` holds the count that survived recovery.
    pub failed: u32,
    /// Subset of `failed` that ran out of device-heap memory.
    pub oom: u32,
    pub kernel_time_s: f64,
    pub total_time_s: f64,
    /// Devices the launch was sharded across (1 outside the sharded
    /// driver).
    pub devices: u32,
    /// Maximum per-device wall time — the sharded launch's completion
    /// time. Equals `total_time_s` for single-device launches.
    pub makespan_s: f64,
    pub waves: u32,
    pub rpc_total: u64,
    /// Recovery rounds executed (1 = no retries were needed; always 1
    /// without recovery).
    pub attempts: u32,
    /// Distinct instances that were re-launched at least once.
    pub retried: u32,
    /// Instances that failed at least once but ultimately succeeded.
    pub recovered: u32,
    /// Instances still failed (or skipped) after all recovery attempts.
    /// Equals `failed` without recovery.
    pub unrecovered: u32,
    /// Instances whose *final* attempt was killed by the watchdog.
    pub timeouts: u32,
    /// Times the concurrent batch was halved after a device OOM
    /// (graceful degradation).
    pub oom_splits: u32,
    /// Concurrent batch size of the last kernel actually launched.
    pub final_batch: u32,
    /// Simulated seconds spent in exponential backoff between attempts.
    pub backoff_s: f64,
    /// Instance completion-time percentiles (seconds from launch start).
    pub latency: LatencyPercentiles,
    /// Per-instance RPC-stall percentiles (seconds).
    pub rpc_stall: LatencyPercentiles,
    /// Mean of the timeline's issue-rate samples (schema v5); `None`
    /// when utilization sampling was off.
    pub utilization_mean: Option<f64>,
    /// 95th-percentile (nearest-rank) issue-rate sample (schema v5);
    /// `None` when utilization sampling was off.
    pub utilization_p95: Option<f64>,
    /// Periodic utilization samples (schema v5); empty when sampling was
    /// off.
    pub timeline: Vec<TimelinePoint>,
    /// Device-heap high-water mark per device, bytes, fleet-indexed
    /// (schema v6). Single-device launches carry one entry.
    pub peak_mem_bytes: Vec<u64>,
    /// Worst end-of-round free-space fragmentation observed on any device,
    /// [0, 1] (schema v6).
    pub fragmentation: f64,
    /// Allocations that fell back to the global first-fit path while
    /// per-team free lists were enabled (schema v6; 0 when off).
    pub alloc_fallbacks: u64,
}

fn tagged_record(kind: &str, v: Value) -> Value {
    let mut obj = vec![("record".to_string(), Value::Str(kind.to_string()))];
    if let Value::Object(fields) = v {
        obj.extend(fields);
    }
    Value::Object(obj)
}

/// Render metrics as JSON Lines: one `{"record":"instance",...}` line per
/// instance followed by one `{"record":"launch",...}` rollup line.
pub fn metrics_jsonl(instances: &[InstanceMetrics], launch: &LaunchMetrics) -> String {
    let mut out = String::new();
    for m in instances {
        let line = serde_json::to_string(&tagged_record("instance", m.to_value()))
            .expect("value serialization is total");
        out.push_str(&line);
        out.push('\n');
    }
    let line = serde_json::to_string(&tagged_record("launch", launch.to_value()))
        .expect("value serialization is total");
    out.push_str(&line);
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_instance() -> InstanceMetrics {
        InstanceMetrics {
            instance: 3,
            exit_code: Some(0),
            trapped: false,
            oom: false,
            timed_out: false,
            attempt: 0,
            device: 0,
            end_time_s: 1.25e-3,
            cycles: 1.7e6,
            warp_insts: 5.0e5,
            useful_bytes: 1.0e6,
            moved_bytes: 1.5e6,
            sectors: 46875,
            heap_peak_bytes: 4096,
            rpc: RpcCallCounts {
                stdio: 2,
                fs: 1,
                clock: 0,
                exit: 1,
                errors: 0,
            },
            rpc_stall_s: 8.0e-5,
            stall: StallBuckets {
                compute: 1.0e6,
                dram_bw: 4.0e5,
                mlp: 2.0e5,
                rpc: 1.0e5,
                alloc: 0.0,
                wave_tail: 0.0,
            },
        }
    }

    #[test]
    fn instance_metrics_round_trip() {
        let m = sample_instance();
        let json = serde_json::to_string(&m).unwrap();
        let back: InstanceMetrics = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn trapped_instance_round_trips_none_exit_code() {
        let mut m = sample_instance();
        m.exit_code = None;
        m.trapped = true;
        m.oom = true;
        let json = serde_json::to_string(&m).unwrap();
        let back: InstanceMetrics = serde_json::from_str(&json).unwrap();
        assert_eq!(back.exit_code, None);
        assert!(back.trapped && back.oom);
    }

    #[test]
    fn sim_report_round_trip() {
        use gpu_sim::SimReport;
        let r = SimReport {
            kernel_name: "xsbench-x8".to_string(),
            kernel_cycles: 1.0e7,
            sim_time_s: 7.2e-3,
            blocks: 8,
            threads_per_block: 32,
            waves: 1,
            occupancy: 0.5,
            total_insts: 2.0e6,
            total_sectors: 90_000,
            useful_bytes: 2.4e6,
            moved_bytes: 2.88e6,
            coalescing_efficiency: 2.4 / 2.88,
            l2_hit: 0.9,
            dram_efficiency: 0.62,
            active_region_tags: 8,
            issue_utilization: 0.11,
            dram_utilization: 0.4,
            rpc_calls: 24,
            block_end_cycles: vec![1.0e7, 9.5e6],
        };
        let json = serde_json::to_string(&r).unwrap();
        let back: SimReport = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn rpc_counts_from_stats() {
        let s = RpcStats {
            stdio_calls: 5,
            fs_calls: 2,
            clock_calls: 3,
            exit_calls: 1,
            errors: 1,
        };
        let c = RpcCallCounts::from(s);
        assert_eq!(c.total(), 11);
        assert_eq!(c.errors, 1);
    }

    #[test]
    fn jsonl_has_one_line_per_instance_plus_launch() {
        let instances = vec![sample_instance(), sample_instance()];
        let launch = LaunchMetrics {
            schema: METRICS_SCHEMA_VERSION,
            kernel: "xsbench-x2".into(),
            instances: 2,
            failed: 0,
            oom: 0,
            kernel_time_s: 1.0e-3,
            total_time_s: 1.5e-3,
            devices: 1,
            makespan_s: 1.5e-3,
            waves: 1,
            rpc_total: 8,
            attempts: 1,
            retried: 0,
            recovered: 0,
            unrecovered: 0,
            timeouts: 0,
            oom_splits: 0,
            final_batch: 2,
            backoff_s: 0.0,
            latency: LatencyPercentiles::from_seconds([1.0e-3, 1.2e-3]),
            rpc_stall: LatencyPercentiles::from_seconds([8.0e-5, 8.0e-5]),
            utilization_mean: None,
            utilization_p95: None,
            timeline: Vec::new(),
            peak_mem_bytes: vec![8192],
            fragmentation: 0.25,
            alloc_fallbacks: 3,
        };
        let text = metrics_jsonl(&instances, &launch);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines[..2] {
            let v: Value = serde_json::from_str(line).unwrap();
            assert_eq!(v.get("record").unwrap().as_str(), Some("instance"));
            assert!(v.get("cycles").is_some());
            // v2: the stall decomposition rides along as a nested object.
            assert!(v.get("stall").unwrap().get("compute").is_some());
        }
        let v: Value = serde_json::from_str(lines[2]).unwrap();
        assert_eq!(v.get("record").unwrap().as_str(), Some("launch"));
        assert_eq!(v.get("instances").unwrap().as_u64(), Some(2));
        assert_eq!(
            v.get("schema").unwrap().as_u64(),
            Some(METRICS_SCHEMA_VERSION as u64)
        );
        assert!(v.get("latency").unwrap().get("p99_s").is_some());
        // v3: recovery fields land in the launch record.
        assert_eq!(v.get("attempts").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("unrecovered").unwrap().as_u64(), Some(0));
        assert_eq!(v.get("final_batch").unwrap().as_u64(), Some(2));
        // v4: multi-device fields land in both record kinds.
        assert_eq!(v.get("devices").unwrap().as_u64(), Some(1));
        assert!(v.get("makespan_s").is_some());
        let first: Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(first.get("device").unwrap().as_u64(), Some(0));
        // v5: the timeline array is always present (empty here) and the
        // utilization rollups are explicit nulls when sampling was off.
        assert!(v.get("timeline").unwrap().as_array().unwrap().is_empty());
        assert!(v.get("utilization_mean").unwrap().is_null());
        assert!(v.get("utilization_p95").unwrap().is_null());
        // v6: allocator fields land in the launch record, and the stall
        // object carries the alloc bucket.
        let peaks = v.get("peak_mem_bytes").unwrap().as_array().unwrap();
        assert_eq!(peaks.len(), 1);
        assert_eq!(peaks[0].as_u64(), Some(8192));
        assert_eq!(v.get("fragmentation").unwrap().as_f64(), Some(0.25));
        assert_eq!(v.get("alloc_fallbacks").unwrap().as_u64(), Some(3));
        let first: Value = serde_json::from_str(lines[0]).unwrap();
        assert!(first.get("stall").unwrap().get("alloc").is_some());
    }

    #[test]
    fn launch_metrics_v5_timeline_round_trips() {
        let point = TimelinePoint {
            t_us: 125.0,
            device: 1,
            active_teams: 16,
            resident_blocks: 8,
            occupancy: 0.5,
            issue_rate: 0.4,
            dram_rate: 0.2,
            stall_compute: 0.6,
            stall_dram_bw: 0.2,
            stall_mlp: 0.1,
            stall_rpc: 0.0,
            stall_alloc: 0.0,
            stall_wave_tail: 0.1,
            heap_bytes: 1 << 20,
        };
        let mut launch = LaunchMetrics {
            schema: METRICS_SCHEMA_VERSION,
            kernel: "xsbench-x2".into(),
            instances: 2,
            failed: 0,
            oom: 0,
            kernel_time_s: 1.0e-3,
            total_time_s: 1.5e-3,
            devices: 1,
            makespan_s: 1.5e-3,
            waves: 1,
            rpc_total: 8,
            attempts: 1,
            retried: 0,
            recovered: 0,
            unrecovered: 0,
            timeouts: 0,
            oom_splits: 0,
            final_batch: 2,
            backoff_s: 0.0,
            latency: LatencyPercentiles::default(),
            rpc_stall: LatencyPercentiles::default(),
            utilization_mean: Some(0.4),
            utilization_p95: Some(0.45),
            timeline: vec![point.clone(), point],
            peak_mem_bytes: vec![1 << 20],
            fragmentation: 0.0,
            alloc_fallbacks: 0,
        };
        launch.timeline[1].t_us = 250.0;
        let json = serde_json::to_string(&launch).unwrap();
        let back: LaunchMetrics = serde_json::from_str(&json).unwrap();
        assert_eq!(launch, back);
        assert_eq!(back.timeline.len(), 2);
        assert_eq!(back.utilization_mean, Some(0.4));
        // The JSONL launch record exposes the nested points.
        let text = metrics_jsonl(&[], &launch);
        let line: Value = serde_json::from_str(text.lines().next().unwrap()).unwrap();
        let tl = line.get("timeline").unwrap().as_array().unwrap();
        assert_eq!(tl.len(), 2);
        assert_eq!(tl[0].get("issue_rate").unwrap().as_f64(), Some(0.4));
        assert_eq!(tl[1].get("t_us").unwrap().as_f64(), Some(250.0));
    }

    #[test]
    fn log2_histogram_buckets_by_bit_width() {
        let mut h = Log2Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.len(), 10);
        // p=0 picks the first sample's bucket (0 → bucket 0 → bound 0).
        assert_eq!(h.percentile(0.0), 0);
        // The maximum lands in the top bucket whose bound is u64::MAX.
        assert_eq!(h.percentile(1.0), u64::MAX);
    }

    #[test]
    fn log2_percentile_overestimates_by_at_most_2x() {
        let mut h = Log2Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        for &(p, exact) in &[(0.5, 500u64), (0.9, 900), (0.99, 990)] {
            let got = h.percentile(p);
            assert!(got >= exact, "p{p}: {got} < {exact}");
            assert!(got < exact * 2, "p{p}: {got} ≥ 2×{exact}");
        }
    }

    #[test]
    fn log2_histogram_merge_matches_combined_recording() {
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        let mut both = Log2Histogram::new();
        for v in [5u64, 80, 3000] {
            a.record(v);
            both.record(v);
        }
        for v in [1u64, 1_000_000] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn empty_histogram_percentiles_are_zero() {
        let h = Log2Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(0.5), 0);
        let p = LatencyPercentiles::from_seconds(std::iter::empty());
        assert_eq!(p, LatencyPercentiles::default());
    }

    #[test]
    fn latency_percentiles_round_trip_and_order() {
        let p = LatencyPercentiles::from_seconds((1..=100).map(|i| i as f64 * 1e-4));
        assert!(p.p50_s <= p.p90_s && p.p90_s <= p.p99_s);
        assert!(p.p50_s > 0.0);
        let json = serde_json::to_string(&p).unwrap();
        let back: LatencyPercentiles = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
