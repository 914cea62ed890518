//! Multi-device ensemble placement (`dgc-sched`).
//!
//! The paper runs every instance of an ensemble on one device and tops
//! out when that device's SMs and DRAM bandwidth saturate (§4.3). This
//! crate decides how a single ensemble shards across **M simulated
//! devices**; the executor in `dgc-fault` runs the shards.
//!
//! * [`Placement`] — how instances map to devices: `round-robin` (the
//!   naive baseline), `greedy` (bin-pack by predicted instance time) and
//!   `lpt` (longest-processing-time-first, the classic 4/3-approximation
//!   of makespan scheduling).
//! * [`InstanceCosts`] — the cost model behind the informed policies:
//!   per-distinct-argument pilot runs classified on the device roofline,
//!   scaled to each device by the resource its bound class actually
//!   consumes (clock for compute/latency-bound instances, DRAM bandwidth
//!   for memory-bound ones).
//! * [`RooflinePoint`] — a finished launch placed on the device roofline
//!   and classified ([`BoundClass`]) compute-, memory-bandwidth- or
//!   latency-bound: the cost model's classifier, also printed by
//!   `kernel_report`.
//! * [`wave_take`] / [`mem_cap_take`] — greedy-prefix sizing of serving
//!   waves by predicted time and of launch chunks by pilot peak memory.

mod cost;
mod place;
mod roofline;

pub use cost::{mem_cap_take, wave_take, InstanceCost, InstanceCosts};
pub use place::{Placement, PlacementParseError};
pub use roofline::{BoundClass, RooflinePoint};
