//! The live-telemetry sink drivers stream operational events into.
//!
//! [`MonitorSink`] is the narrow waist between the ensemble drivers and
//! whatever operational backend is listening (the `dgc-monitor` metrics
//! registry, a test probe, nothing at all). The sink hangs off the
//! [`crate::Recorder`] every driver already threads through, so wiring
//! monitoring up changes no driver signatures, and leaving it unset costs
//! one `Option` check per event.
//!
//! Every method takes `&self` and must be cheap and non-blocking: sinks
//! are shared behind an [`Arc`] (fleet lanes wrap them in
//! [`DeviceStamped`]). Crucially, sinks **observe** the run — they are
//! handed copies of values the driver already computed and can never feed anything back
//! into the simulation, which is how `--monitor-out` keeps simulated
//! results bit-identical to an unmonitored run.

use std::sync::Arc;

/// Receiver for operational events streamed out of a running ensemble.
///
/// All methods default to no-ops so sinks implement only what they count.
/// `device` arguments are fleet-relative ordinals (0 on a one-device
/// run); fleet lanes re-stamp them via [`DeviceStamped`].
pub trait MonitorSink: Send + Sync {
    /// An instance reached a final outcome for this launch: `ok` says
    /// whether it succeeded, `latency_s` is its simulated end-to-end time
    /// within the launch.
    fn instance_done(&self, device: u32, ok: bool, latency_s: f64) {
        let _ = (device, ok, latency_s);
    }

    /// A previously-failed instance succeeded on a retry round.
    fn instance_recovered(&self, device: u32) {
        let _ = device;
    }

    /// An instance was queued for another attempt.
    fn retry_scheduled(&self, device: u32) {
        let _ = device;
    }

    /// The recovery loop halved the batch after an OOM round.
    fn oom_split(&self, new_batch: u32) {
        let _ = new_batch;
    }

    /// The recovery loop charged `seconds` of backoff wait.
    fn backoff_wait(&self, seconds: f64) {
        let _ = seconds;
    }

    /// A kernel launch finished on `device`: `busy_s` of simulated lane
    /// time covering `instances` instances.
    fn kernel_launch(&self, device: u32, instances: u32, busy_s: f64) {
        let _ = (device, instances, busy_s);
    }

    /// A team finished its functional execution inside a running kernel
    /// (`done` of `total` so far) — the finest-grained liveness signal.
    fn team_done(&self, device: u32, done: u32, total: u32) {
        let _ = (device, done, total);
    }

    /// Heap occupancy on `device` after a launch: live bytes, the
    /// allocation high-water mark, and capacity.
    fn heap_sample(&self, device: u32, in_use: u64, high_water: u64, capacity: u64) {
        let _ = (device, in_use, high_water, capacity);
    }

    /// RPC traffic attributable to the event being reported: `calls`
    /// round trips of which `failures` errored.
    fn rpc_activity(&self, calls: u64, failures: u64) {
        let _ = (calls, failures);
    }

    /// A whole device died mid-run.
    fn device_dead(&self, device: u32) {
        let _ = device;
    }

    /// Mean issue-slot utilization over a finished launch on `device`.
    fn utilization_sample(&self, device: u32, mean: f64) {
        let _ = (device, mean);
    }
}

/// Forwarding sink that overrides the device ordinal on every event.
///
/// Sharded drivers run each device's shard with a private [`crate::Recorder`];
/// cloning the parent sink through `DeviceStamped` makes those per-device
/// streams land under the right device label without the inner sink (or
/// the single-device driver underneath) knowing which lane it is on.
pub struct DeviceStamped {
    inner: Arc<dyn MonitorSink>,
    device: u32,
}

impl DeviceStamped {
    /// Wrap `inner` so every event reports `device`.
    pub fn stamp(inner: Arc<dyn MonitorSink>, device: u32) -> Arc<dyn MonitorSink> {
        Arc::new(DeviceStamped { inner, device })
    }
}

impl MonitorSink for DeviceStamped {
    fn instance_done(&self, _device: u32, ok: bool, latency_s: f64) {
        self.inner.instance_done(self.device, ok, latency_s);
    }

    fn instance_recovered(&self, _device: u32) {
        self.inner.instance_recovered(self.device);
    }

    fn retry_scheduled(&self, _device: u32) {
        self.inner.retry_scheduled(self.device);
    }

    fn oom_split(&self, new_batch: u32) {
        self.inner.oom_split(new_batch);
    }

    fn backoff_wait(&self, seconds: f64) {
        self.inner.backoff_wait(seconds);
    }

    fn kernel_launch(&self, _device: u32, instances: u32, busy_s: f64) {
        self.inner.kernel_launch(self.device, instances, busy_s);
    }

    fn team_done(&self, _device: u32, done: u32, total: u32) {
        self.inner.team_done(self.device, done, total);
    }

    fn heap_sample(&self, _device: u32, in_use: u64, high_water: u64, capacity: u64) {
        self.inner
            .heap_sample(self.device, in_use, high_water, capacity);
    }

    fn rpc_activity(&self, calls: u64, failures: u64) {
        self.inner.rpc_activity(calls, failures);
    }

    fn device_dead(&self, _device: u32) {
        self.inner.device_dead(self.device);
    }

    fn utilization_sample(&self, _device: u32, mean: f64) {
        self.inner.utilization_sample(self.device, mean);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

    #[derive(Default)]
    struct Probe {
        devices: std::sync::Mutex<Vec<u32>>,
        calls: AtomicU64,
        splits: AtomicU32,
    }

    impl MonitorSink for Probe {
        fn instance_done(&self, device: u32, _ok: bool, _latency_s: f64) {
            self.devices.lock().unwrap().push(device);
        }

        fn rpc_activity(&self, calls: u64, _failures: u64) {
            self.calls.fetch_add(calls, Ordering::Relaxed);
        }

        fn oom_split(&self, new_batch: u32) {
            self.splits.store(new_batch, Ordering::Relaxed);
        }
    }

    #[test]
    fn default_methods_are_no_ops() {
        struct Nothing;
        impl MonitorSink for Nothing {}
        let s = Nothing;
        s.instance_done(0, true, 1.0);
        s.team_done(0, 1, 2);
        s.device_dead(3);
    }

    #[test]
    fn device_stamped_overrides_device_and_forwards_the_rest() {
        let probe = Arc::new(Probe::default());
        let stamped = DeviceStamped::stamp(probe.clone(), 7);
        stamped.instance_done(0, true, 0.5);
        stamped.instance_done(3, false, 0.1);
        stamped.rpc_activity(4, 1);
        stamped.oom_split(2);
        assert_eq!(*probe.devices.lock().unwrap(), vec![7, 7]);
        assert_eq!(probe.calls.load(Ordering::Relaxed), 4);
        assert_eq!(probe.splits.load(Ordering::Relaxed), 2);
    }
}
