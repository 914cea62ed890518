//! Simulated GPU device memory.
//!
//! Provides the pieces of the memory system the rest of the stack builds on:
//!
//! * [`DeviceMemory`] — a device-global address space with a first-fit heap
//!   allocator. Allocations are either *materialized* (backed by host memory
//!   so simulated kernels can actually load and store through them) or
//!   *reserved* (accounting-only, used to model paper-scale footprints for
//!   out-of-memory behaviour without materializing tens of gigabytes).
//! * [`coalesce`] — the per-warp memory coalescing analyzer that turns the
//!   32 lane addresses of one warp-level access into 32-byte DRAM sector
//!   transactions, exactly the quantity the timing model charges for.
//! * [`TransferEngine`] — host↔device transfer cost model (PCIe-class).
//!
//! Every allocation carries a *region tag*; the ensemble loader tags each
//! instance's allocations with the instance id, which is what lets the DRAM
//! interference model (see `gpu-arch::MemoryModelParams`) observe how many
//! disjoint heaps are being streamed concurrently.

mod coalesce;
mod heap;
mod scalar;
mod transfer;

pub use coalesce::{coalesce, CoalesceResult, SECTOR_BYTES, WARP_LANES};
pub use heap::{
    AccessError, AllocError, Backing, DeviceMemory, DevicePtr, HeapStats, RegionId, RegionInfo,
    NULL_DEVICE_PTR,
};
pub use scalar::Scalar;
pub use transfer::{TransferDirection, TransferEngine, TransferRecord};
