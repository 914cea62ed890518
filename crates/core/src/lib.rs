//! Ensemble execution for direct GPU compilation — the offload runtime and
//! loaders (the paper's primary contribution).
//!
//! Three execution modes are provided, mirroring the lineage of the papers:
//!
//! * [`Loader`] — the original direct-GPU-compilation loader \[26\]: one
//!   application instance runs as a single team on the device, with the
//!   *main wrapper* as the new host entry point, command-line arguments
//!   mapped to the device, and the host serving its RPC calls.
//! * [`run_ensemble`] — **this paper's enhanced loader**: `NI` instances of
//!   the application run concurrently inside one kernel launch, instance
//!   `i` mapped to team `i` via the equivalent of
//!   `target teams distribute num_teams(N) thread_limit(T)` (Fig. 4), each
//!   instance receiving its own argv line from the argument file (Fig. 5).
//! * [`MappingStrategy::Packed`] — the §3.1 `(N/M, M, 1)` intra-block
//!   packing the paper describes but leaves unimplemented; implemented here
//!   as an extension.
//!
//! The plain loader, the ensemble loader and [`run_multi_team`] (the
//! \[27\] baseline) stage an application through the same steps, for one
//! instance or `N`: compile with the main wrapper, map argv, allocate the
//! module globals, serve host calls, tear down and copy results back.
//!
//! The loaders drive the full substrate: the module IR is compiled by
//! `dgc-compiler` (declare-target marking, `main` renaming, RPC stub
//! generation, globals placement), the resulting image decides which RPC
//! services are reachable and where globals live, and the kernel executes
//! on the `gpu-sim` device with per-instance heap tagging — which is what
//! the DRAM-interference model observes. Every launcher runs on its
//! caller's thread: teams execute one after another, and a
//! `host_rpc::RpcHost` serves each device RPC call inline, in the order
//! the device issues them.

mod app;
mod argfile;
mod argscript;
mod ensemble;
mod loader;
mod multiteam;
mod stage;
mod stats;

pub use app::{AppContext, AppMainFn, GlobalSlot, HostApp};
pub use argfile::{parse_arg_file, split_arg_line, ArgFileError};
pub use argscript::{eval_expr, expand_arg_script, ScriptError};
pub use ensemble::{
    ensure_arg_capacity, format_eta_s, parse_ensemble_cli, run_ensemble, run_ensemble_injected,
    run_ensemble_traced, CliError, EnsembleCliArgs, EnsembleError, EnsembleOptions, EnsembleResult,
    HeapUsage, InstanceOutcome, LaunchFaults, MappingStrategy, DEFAULT_MONITOR_INTERVAL_MS,
    DEFAULT_SAMPLE_INTERVAL,
};
pub use loader::{AppRunResult, Loader};
pub use multiteam::{run_multi_team, MultiTeamError, MultiTeamResult};
pub use stats::{
    relative_speedup, utilization_mean, utilization_p95, SpeedupPoint, SpeedupSeries, StatsError,
};
