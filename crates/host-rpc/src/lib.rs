//! Host remote-procedure-call framework.
//!
//! In the direct-GPU-compilation architecture (paper Fig. 2) the device
//! cannot perform I/O or other host-only operations, so the offload runtime
//! starts a dedicated **RPC thread** on the host; generated device stubs
//! marshal requests through a shared queue and block until the host
//! replies. This crate implements that machinery:
//!
//! * the wire protocol: [`Request`]/[`Response`] with a compact,
//!   dependency-free binary encoding (round-trip tested);
//! * [`HostServices`] — the host-side implementations: per-instance stdout
//!   and stderr capture, a sandboxed (in-memory or directory-backed) file
//!   system, a deterministic clock, and exit-code collection;
//! * [`RpcHost`] — the host end every device stub of a launch calls, with
//!   an optional fault interceptor and observer. The simulator runs a
//!   launch's teams one after another on one thread and every stub blocks
//!   until answered, so `RpcHost` serves each call directly on that
//!   thread, in device order; a call's simulated cost is charged by the
//!   timing model (`rpc_cycles_per_call`), not by host threads.
//!
//! Every request carries the issuing *instance* id so that ensemble
//! execution multiplexes cleanly: each application instance gets its own
//! stdout stream, fd table and exit code.

mod host;
mod proto;
mod services;

pub use host::{RpcError, RpcFault, RpcFaultHook, RpcHost, RpcObserver};
pub use proto::{
    DecodeError, Request, Response, SERVICE_CLOCK, SERVICE_EXIT, SERVICE_FS, SERVICE_STDIO,
};
pub use services::{FsBackend, HostServices, RpcStats};
