//! # ensemble-gpu
//!
//! A Rust reproduction of *"Maximizing Parallelism and GPU Utilization For
//! Direct GPU Compilation Through Ensemble Execution"* (Tian, Chapman,
//! Doerfert — ICPP-W 2023), including every substrate the system depends
//! on, built from scratch:
//!
//! * [`arch`] — GPU hardware descriptions and occupancy math;
//! * [`mem`] — simulated device memory, coalescing, transfers;
//! * [`sim`] — the trace-driven SIMT performance simulator;
//! * [`ir`] — the module IR of the direct-GPU-compilation pipeline;
//! * [`compiler`] — the pass pipeline (declare-target marking, `main`
//!   renaming, RPC stub generation, globals-to-shared, DCE);
//! * [`rpc`] — the host RPC framework (wire codec, host endpoint,
//!   stdio/fs/clock);
//! * [`libc`] — the partial device libc (malloc, printf, strings, qsort);
//! * [`core`] — **the paper's contribution**: the offload runtime with the
//!   plain loader \[26\] and the ensemble loader (`-f/-n/-t`, instance →
//!   team mapping, packed `(N/M, M, 1)` mapping);
//! * [`apps`] — the evaluation benchmarks (XSBench, RSBench, AMGmk,
//!   Page-Rank) ported to the device API with host references.
//!
//! ## Quickstart
//!
//! ```
//! use ensemble_gpu::core::{run_ensemble, EnsembleOptions, parse_arg_file};
//! use ensemble_gpu::sim::Gpu;
//! use ensemble_gpu::rpc::HostServices;
//!
//! // Four XSBench instances, each with its own arguments, in one kernel.
//! let lines = parse_arg_file("-l 40 -g 12\n-l 60 -g 12\n-l 40 -g 16\n-l 20 -g 12\n").unwrap();
//! let opts = EnsembleOptions { num_instances: 4, thread_limit: 32, ..Default::default() };
//! let mut gpu = Gpu::a100();
//! let app = ensemble_gpu::apps::xsbench::app();
//! let result = run_ensemble(&mut gpu, &app, &lines, &opts, HostServices::default()).unwrap();
//! assert!(result.all_succeeded());
//! assert!(result.stdout[0].contains("Verification checksum"));
//! ```

pub use device_libc as libc;
pub use dgc_apps as apps;
pub use dgc_compiler as compiler;
pub use dgc_core as core;
pub use dgc_fault as fault;
pub use dgc_ir as ir;
pub use gpu_arch as arch;
pub use gpu_mem as mem;
pub use gpu_sim as sim;
pub use host_rpc as rpc;
