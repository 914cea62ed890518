//! Profiling analyses over the simulator's observability exports
//! (`dgc-prof`).
//!
//! Two analyses, plus the binaries that put them in CI:
//!
//! * [`RooflinePoint`] — places a finished launch on the device's
//!   roofline (arithmetic intensity vs. attainable throughput, computed
//!   from [`gpu_arch::GpuSpec`] data-sheet peaks and the launch's
//!   [`gpu_sim::SimReport`]) and classifies it compute-, memory-
//!   bandwidth- or latency-bound. The classification explains the
//!   paper's Figure 6 shape: at thread limit 32 every benchmark is
//!   latency-bound (near-linear ensemble scaling headroom), while AMGmk
//!   at thread limit 1024 saturates DRAM bandwidth (flat scaling).
//! * [`ProfileDiff`] — compares two metrics snapshots (any of the
//!   repo's three export formats) under a relative tolerance and flags
//!   regressions; the `prof-diff` binary turns that into a CI gate with
//!   a non-zero exit code.
//! * `trace-check` — validates a Chrome trace export against
//!   [`dgc_obs::validate_chrome_trace`].

mod diff;
mod provenance;
mod roofline;

pub use diff::{
    strip_json_fields, ConfigKey, Delta, DeltaKind, ParseError, ProfileDiff, Snapshot,
    ZERO_BASELINE_EPSILON_S,
};
pub use provenance::{config_fingerprint, git_rev};
pub use roofline::{BoundClass, RooflinePoint};
