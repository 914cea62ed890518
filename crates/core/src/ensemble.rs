use crate::app::HostApp;
use crate::argfile::ArgFileError;
use crate::stage::{compile_app, exit_status, Stage, GLOBALS_TAG};
use dgc_compiler::{CompileError, CompilerOptions};
use dgc_ir::ParseError;
use dgc_obs::{
    record_schedule, CriticalHop, InstanceMetrics, LatencyPercentiles, LaunchMetrics, LaunchNode,
    LaunchTimeline, Recorder, RpcCallCounts, SpanGraph, METRICS_SCHEMA_VERSION, PID_HOST,
};
use gpu_mem::AllocError;
use gpu_sim::{Gpu, InjectedTeamFault, KernelError, SimError, SimReport};
use host_rpc::{HostServices, RpcFaultHook, RpcHost, RpcObserver, RpcStats};
use serde::Value;

/// How instances map onto the GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MappingStrategy {
    /// The paper's implemented scheme: instance *i* → team *i*, one team
    /// per thread block (`target teams distribute num_teams(N)`).
    OnePerTeam,
    /// The §3.1 `(N/M, M, 1)` scheme: `per_block` instances share one
    /// thread block, each using `thread_limit / per_block` threads.
    /// Described as future work in the paper; implemented here.
    Packed { per_block: u32 },
}

/// Options of the enhanced loader (paper §3.2):
/// `-n` → [`EnsembleOptions::num_instances`], `-t` →
/// [`EnsembleOptions::thread_limit`]; the `-f` argument file is parsed
/// separately and passed as lines.
#[derive(Debug, Clone)]
pub struct EnsembleOptions {
    pub num_instances: u32,
    pub thread_limit: u32,
    pub mapping: MappingStrategy,
    pub compiler: CompilerOptions,
    /// Allow fewer argument lines than instances by cycling the file
    /// modulo (`--cycle-args`). Off by default: the paper's loader pairs
    /// one line per instance, and silently reusing lines hides truncated
    /// argument files — a shortfall is a hard error instead.
    pub cycle_args: bool,
    /// Utilization sampling interval in device cycles (`--timeline` /
    /// `--sample-interval`). `None` (the default) disables sampling and
    /// keeps traces and metrics byte-identical to pre-telemetry output;
    /// `Some(interval)` makes every launch carry a utilization timeline.
    /// Sampling is pure bookkeeping: it never perturbs simulated timing.
    pub sample_interval: Option<f64>,
}

impl Default for EnsembleOptions {
    fn default() -> Self {
        Self {
            num_instances: 1,
            thread_limit: 128,
            mapping: MappingStrategy::OnePerTeam,
            compiler: CompilerOptions::default(),
            cycle_args: false,
            sample_interval: None,
        }
    }
}

/// What one instance produced.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceOutcome {
    /// Exit code (explicit `exit()` beats the `__user_main` return value).
    pub exit_code: Option<i32>,
    /// Trap message if the instance did not complete.
    pub error: Option<String>,
    /// The trap was a device out-of-memory — the condition that limited
    /// Page-Rank to 4 instances in the paper's evaluation.
    pub oom: bool,
    /// The instance was killed by the watchdog (exceeded its cycle
    /// budget). Always a subset of the trapped instances.
    pub timed_out: bool,
}

impl InstanceOutcome {
    pub fn succeeded(&self) -> bool {
        self.error.is_none() && self.exit_code == Some(0)
    }
}

/// Device-heap rollup for one launch (metrics schema v6).
///
/// A plain launch reads one device; the multi-launch executor
/// (`dgc-fault`) keeps one `peak_bytes` entry per fleet device, folding
/// successive launches on a device by their maximum.
#[derive(Debug, Clone, Default)]
pub struct HeapUsage {
    /// Peak bytes in use per device while the ensemble ran.
    pub peak_bytes: Vec<u64>,
    /// Worst observed end-of-launch fragmentation
    /// (`1 − largest hole / free bytes`, 0 when the heap is one hole).
    pub fragmentation: f64,
    /// Allocations that missed the per-team free list and fell back to
    /// the global first-fit map. 0 whenever free lists are disabled.
    pub alloc_fallbacks: u64,
}

/// Result of one ensemble launch.
#[derive(Debug)]
pub struct EnsembleResult {
    pub instances: Vec<InstanceOutcome>,
    /// Per-instance captured stdout.
    pub stdout: Vec<String>,
    pub report: SimReport,
    /// Kernel time (the paper's `TN`).
    pub kernel_time_s: f64,
    /// Kernel + argument mapping + result copy-back.
    pub total_time_s: f64,
    /// When each instance's team finished, in simulated seconds from
    /// kernel start (instances sharing a block under the packed mapping
    /// share their block's completion time).
    pub instance_end_times_s: Vec<f64>,
    pub rpc_stats: RpcStats,
    /// Per-instance observability rollup (always computed; export it with
    /// [`dgc_obs::metrics_jsonl`]).
    pub metrics: Vec<InstanceMetrics>,
    /// Utilization time series (metrics schema v5). Empty unless
    /// [`EnsembleOptions::sample_interval`] enabled sampling.
    pub timeline: LaunchTimeline,
    /// The causal span graph of the run: one [`LaunchNode`] per kernel
    /// launch carrying the exact wall-time addend the driver accumulated
    /// plus the in-kernel critical chain. The multi-launch executor
    /// (`dgc-fault`) merges and re-stamps it exactly as it does the
    /// instance metrics, so `graph.replay_makespan_s()` reproduces the
    /// reported makespan bit-exactly. Consumed by `dgc-insight`.
    pub graph: SpanGraph,
    /// Device-heap occupancy rollup (metrics schema v6).
    pub heap: HeapUsage,
}

impl EnsembleResult {
    pub fn all_succeeded(&self) -> bool {
        self.instances.iter().all(|i| i.succeeded())
    }

    pub fn any_oom(&self) -> bool {
        self.instances.iter().any(|i| i.oom)
    }

    /// Load imbalance of the launch: latest instance finish over the mean
    /// finish (1.0 = perfectly balanced). Heterogeneous argument files
    /// make the whole kernel wait for the slowest instance — the cost the
    /// paper's fixed instance→team mapping accepts.
    pub fn load_imbalance(&self) -> f64 {
        let n = self.instance_end_times_s.len();
        if n == 0 {
            return 1.0;
        }
        let max = self
            .instance_end_times_s
            .iter()
            .cloned()
            .fold(0.0, f64::max);
        let mean: f64 = self.instance_end_times_s.iter().sum::<f64>() / n as f64;
        if mean <= 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// Launch-wide metrics record (the last line of the JSONL export).
    pub fn launch_metrics(&self) -> LaunchMetrics {
        LaunchMetrics {
            schema: METRICS_SCHEMA_VERSION,
            kernel: self.report.kernel_name.clone(),
            instances: self.instances.len() as u32,
            failed: self.failed_count(),
            oom: self.oom_count(),
            kernel_time_s: self.kernel_time_s,
            total_time_s: self.total_time_s,
            devices: 1,
            makespan_s: self.total_time_s,
            waves: self.report.waves,
            rpc_total: self.rpc_stats.total(),
            // A plain launch is one attempt with no recovery: anything
            // that failed stays failed.
            attempts: 1,
            retried: 0,
            recovered: 0,
            unrecovered: self.failed_count(),
            timeouts: self.timed_out_count(),
            oom_splits: 0,
            final_batch: self.instances.len() as u32,
            backoff_s: 0.0,
            latency: LatencyPercentiles::from_seconds(self.instance_end_times_s.iter().copied()),
            rpc_stall: LatencyPercentiles::from_seconds(self.metrics.iter().map(|m| m.rpc_stall_s)),
            utilization_mean: crate::stats::utilization_mean(&self.timeline.issue_rates()).ok(),
            utilization_p95: crate::stats::utilization_p95(&self.timeline.issue_rates()).ok(),
            peak_mem_bytes: self.heap.peak_bytes.clone(),
            fragmentation: self.heap.fragmentation,
            alloc_fallbacks: self.heap.alloc_fallbacks,
            timeline: self.timeline.points.clone(),
        }
    }

    /// Instances that trapped or exited non-zero.
    pub fn failed_count(&self) -> u32 {
        self.instances.iter().filter(|i| !i.succeeded()).count() as u32
    }

    /// Instances that died on device-heap exhaustion.
    pub fn oom_count(&self) -> u32 {
        self.instances.iter().filter(|i| i.oom).count() as u32
    }

    /// Instances killed by the watchdog.
    pub fn timed_out_count(&self) -> u32 {
        self.instances.iter().filter(|i| i.timed_out).count() as u32
    }
}

/// Ensemble-loader failures (per-instance traps are reported in
/// [`EnsembleResult::instances`], not here).
#[derive(Debug)]
pub enum EnsembleError {
    ModuleParse(ParseError),
    Compile(CompileError),
    Launch(SimError),
    Globals(AllocError),
    ArgFile(ArgFileError),
    /// thread_limit not divisible by the packed per-block instance count.
    BadPacking {
        thread_limit: u32,
        per_block: u32,
    },
    /// `-n` asked for more instances than the argument file has lines and
    /// cycling was not requested.
    ArgCountMismatch {
        instances: u32,
        lines: usize,
    },
    /// The executor was handed a fleet without devices.
    EmptyFleet,
    /// The recovery policy allows no launch attempt (`max_attempts` 0).
    NoAttempts,
}

impl std::fmt::Display for EnsembleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnsembleError::ModuleParse(e) => write!(f, "module parse error: {e}"),
            EnsembleError::Compile(e) => write!(f, "compilation failed: {e}"),
            EnsembleError::Launch(e) => write!(f, "{e}"),
            EnsembleError::Globals(e) => write!(f, "global allocation failed: {e}"),
            EnsembleError::ArgFile(e) => write!(f, "{e}"),
            EnsembleError::BadPacking {
                thread_limit,
                per_block,
            } => write!(
                f,
                "thread limit {thread_limit} is not divisible by {per_block} packed instances"
            ),
            EnsembleError::ArgCountMismatch { instances, lines } => write!(
                f,
                "ensemble of {instances} instances needs {instances} argument lines but the \
                 argument file has only {lines}; pass --cycle-args to reuse lines modulo"
            ),
            EnsembleError::EmptyFleet => write!(f, "an ensemble needs at least one device"),
            EnsembleError::NoAttempts => write!(f, "max_attempts must be at least 1"),
        }
    }
}

/// Validate that the argument file can feed `num_instances` instances:
/// one line per instance, unless `cycle` explicitly allows reusing lines
/// modulo (the historical default, now opt-in via `--cycle-args`).
pub fn ensure_arg_capacity(
    arg_lines: &[Vec<String>],
    num_instances: u32,
    cycle: bool,
) -> Result<(), EnsembleError> {
    if arg_lines.is_empty() {
        return Err(EnsembleError::ArgFile(ArgFileError::Empty));
    }
    if !cycle && arg_lines.len() < num_instances as usize {
        return Err(EnsembleError::ArgCountMismatch {
            instances: num_instances,
            lines: arg_lines.len(),
        });
    }
    Ok(())
}

impl std::error::Error for EnsembleError {}

/// The paper's contribution: launch `num_instances` concurrent instances of
/// `app` in **one kernel**, instance `i` mapped to team `i`, each with its
/// own argv line (a file with fewer lines than instances is an error
/// unless [`EnsembleOptions::cycle_args`] opts into modulo reuse).
///
/// Equivalent of the Fig. 4 loader region:
/// ```c
/// #pragma omp target teams distribute num_teams(N) thread_limit(T) \
///         map(from: Ret[:NI])
/// for (int I = 0; I < NI; ++I)
///     Ret[I] = __user_main(Argc[I], &Argv[I][0]);
/// ```
pub fn run_ensemble(
    gpu: &mut Gpu,
    app: &HostApp,
    arg_lines: &[Vec<String>],
    opts: &EnsembleOptions,
    services: HostServices,
) -> Result<EnsembleResult, EnsembleError> {
    run_ensemble_traced(
        gpu,
        app,
        arg_lines,
        opts,
        services,
        &mut Recorder::disabled(),
    )
}

/// [`run_ensemble`] with an observability [`Recorder`]. When the recorder
/// is enabled, the launch records the loader timeline (argument H2D, the
/// kernel envelope, result D2H), the full device schedule (one lane per
/// SM, one span per block and per team phase), per-instance lifecycle
/// markers and RPC totals. With a disabled recorder the code path is
/// identical to the untraced one: spans cost a single branch and the
/// timing engine skips timeline collection entirely.
pub fn run_ensemble_traced(
    gpu: &mut Gpu,
    app: &HostApp,
    arg_lines: &[Vec<String>],
    opts: &EnsembleOptions,
    services: HostServices,
    obs: &mut Recorder,
) -> Result<EnsembleResult, EnsembleError> {
    run_ensemble_injected(
        gpu,
        app,
        arg_lines,
        opts,
        services,
        obs,
        LaunchFaults::default(),
    )
}

/// Faults to inject into one ensemble launch. The default (no hooks, no
/// budget) is pure bookkeeping: [`run_ensemble_injected`] with an empty
/// `LaunchFaults` is bit-identical to [`run_ensemble_traced`].
#[derive(Default)]
pub struct LaunchFaults<'a> {
    /// Per-team fault: called once per global team id at launch.
    pub team_fault: Option<&'a dyn Fn(u32) -> Option<InjectedTeamFault>>,
    /// Host-side RPC interceptor (runs before the service handler, so
    /// faulted calls have no host side effects).
    pub rpc_fault: Option<RpcFaultHook>,
    /// Watchdog: per-instance cycle budget; teams still running past it
    /// are reaped with [`KernelError::Timeout`].
    pub cycle_budget: Option<f64>,
}

/// [`run_ensemble_traced`] with deterministic fault injection — the
/// substrate of the ensemble executor (`dgc-fault`). All injection is
/// opt-in per hook; absent hooks leave the launch untouched.
pub fn run_ensemble_injected(
    gpu: &mut Gpu,
    app: &HostApp,
    arg_lines: &[Vec<String>],
    opts: &EnsembleOptions,
    services: HostServices,
    obs: &mut Recorder,
    faults: LaunchFaults<'_>,
) -> Result<EnsembleResult, EnsembleError> {
    let n = opts.num_instances.max(1);
    ensure_arg_capacity(arg_lines, n, opts.cycle_args)?;
    let traced = obs.is_enabled();
    if traced {
        obs.name_process(PID_HOST, "loader");
        obs.name_thread(PID_HOST, 0, "timeline");
    }

    // Compile once; all instances share the device image. Instance `i`
    // gets argument line `i` (modulo the file when cycling is allowed).
    let image = compile_app(app, &opts.compiler)?;
    let lines = (0..n as usize).map(|i| arg_lines[i % arg_lines.len()].as_slice());
    let mut stage = Stage::map_argv(gpu, app, image, lines);
    let h2d_s = stage.h2d_s;
    if traced {
        obs.span_args(
            PID_HOST,
            0,
            "h2d argv",
            "loader",
            0.0,
            h2d_s * 1e6,
            vec![("bytes".into(), Value::U64(stage.argv_bytes))],
        );
    }

    stage.alloc_globals(gpu)?;
    if traced {
        obs.instant(PID_HOST, 0, "alloc globals", "loader", h2d_s * 1e6);
    }

    let (teams_per_block, lanes_per_team) = match opts.mapping {
        MappingStrategy::OnePerTeam => (1u32, opts.thread_limit),
        MappingStrategy::Packed { per_block } => {
            if per_block == 0 || !opts.thread_limit.is_multiple_of(per_block) {
                gpu.mem.free_by_tag(GLOBALS_TAG);
                return Err(EnsembleError::BadPacking {
                    thread_limit: opts.thread_limit,
                    per_block,
                });
            }
            (per_block, opts.thread_limit / per_block)
        }
    };

    // Live monitoring (pure observation): when a [`MonitorSink`] hangs
    // off the recorder, the launch streams team completions and RPC
    // round trips into it as they happen and reports per-instance
    // outcomes, heap occupancy and utilization once computed. Sinks only
    // receive copies of already-computed values — simulated results stay
    // bit-identical with monitoring on or off.
    let monitor = obs.monitor().cloned();
    let team_hook = monitor
        .clone()
        .map(|m| move |done: u32, total: u32| m.team_done(0, done, total));
    let rpc_observer = monitor.clone().map(|m| {
        Box::new(move |_service: u32, _instance: u32, errored: bool| {
            m.rpc_activity(1, u64::from(errored));
        }) as RpcObserver
    });

    let mut host = RpcHost::new(services, faults.rpc_fault, rpc_observer);
    let kernel_name = format!("{}-x{}", app.name, n);
    let mut spec = stage.kernel(&kernel_name, n, lanes_per_team);
    spec.teams_per_block = teams_per_block;
    spec.fault_of_team = faults.team_fault;
    spec.cycle_budget = faults.cycle_budget;
    spec.sample_interval = opts.sample_interval;
    spec.on_team_done = team_hook.as_ref().map(|h| h as &dyn Fn(u32, u32));

    // Heap high-water marks are per launch: restart them from the live
    // bytes (module globals) so instance peaks measure this kernel only.
    gpu.mem.reset_tag_peaks();
    // Free-list fallbacks accumulate across launches on a reused device:
    // snapshot so the rollup reports this launch's count alone.
    let fallbacks_before = gpu.mem.stats().alloc_fallbacks;

    let mut launch = stage.launch(gpu, &spec, &mut host);
    // The rollup reads the team summaries, never the traces: free them
    // as soon as the launch returns.
    if let Ok(l) = &mut launch {
        l.block_traces = Vec::new();
    }

    // Heap occupancy while the kernel ran, read before instance teardown
    // frees the tags — the timeline's heap counter and the schema-v6
    // launch rollup.
    let heap_bytes = gpu.mem.stats().bytes_in_use;
    let heap = HeapUsage {
        peak_bytes: vec![gpu.mem.stats().peak_bytes_in_use],
        fragmentation: gpu.mem.fragmentation(),
        alloc_fallbacks: gpu.mem.stats().alloc_fallbacks - fallbacks_before,
    };

    let services = stage.teardown(gpu, host);
    let launch = launch.map_err(EnsembleError::Launch)?;
    let d2h_s = stage.copy_back(gpu);
    let transfer_seconds = h2d_s + d2h_s;

    let instances: Vec<InstanceOutcome> = launch
        .team_outcomes
        .iter()
        .enumerate()
        .map(|(i, o)| {
            let (exit_code, trap) = exit_status(&services, i as u32, o);
            InstanceOutcome {
                exit_code,
                error: trap.map(|e| e.to_string()),
                oom: matches!(
                    trap,
                    Some(KernelError::Alloc(AllocError::OutOfMemory { .. }))
                ),
                timed_out: matches!(trap, Some(KernelError::Timeout { .. })),
            }
        })
        .collect();
    let stdout = (0..n).map(|i| services.stdout_of(i).to_string()).collect();

    let kernel_time_s = launch.report.sim_time_s;
    let instance_end_times_s: Vec<f64> = (0..n)
        .map(|i| {
            let block = (i / teams_per_block) as usize;
            gpu.spec
                .cycles_to_seconds(launch.report.block_end_cycles[block])
        })
        .collect();

    // ---- Per-instance metrics rollup. ----
    let cycle_s = gpu.spec.cycles_to_seconds(1.0);
    let metrics: Vec<InstanceMetrics> = (0..n)
        .map(|i| {
            let block = (i / teams_per_block) as usize;
            let summary = &launch.team_summaries[i as usize];
            let outcome = &instances[i as usize];
            InstanceMetrics {
                instance: i,
                exit_code: outcome.exit_code,
                trapped: outcome.error.is_some(),
                oom: outcome.oom,
                timed_out: outcome.timed_out,
                attempt: 0,
                device: 0,
                end_time_s: instance_end_times_s[i as usize],
                cycles: launch.report.block_end_cycles[block],
                warp_insts: summary.insts,
                useful_bytes: summary.useful_bytes,
                moved_bytes: summary.moved_bytes,
                sectors: summary.sectors,
                heap_peak_bytes: gpu.mem.tag_peak_bytes(i),
                rpc: RpcCallCounts::from(services.stats_of(i)),
                rpc_stall_s: summary.rpc_calls as f64 * gpu.timing.rpc_cycles_per_call * cycle_s,
                stall: launch.stalls.blocks[block],
            }
        })
        .collect();

    // ---- Utilization timeline (opt-in sampling). ----
    // Built whether or not tracing is on: the metrics export carries the
    // series too. Kernel cycles land on the launch timeline after argv
    // H2D and launch overhead, exactly like the recorded device schedule.
    let device_offset_us = h2d_s * 1e6 + gpu.spec.launch_overhead_us;
    let upc_us = cycle_s * 1e6;
    let timeline = launch
        .timeline
        .as_ref()
        .map(|tl| LaunchTimeline::from_samples(tl, upc_us, device_offset_us, 0, heap_bytes))
        .unwrap_or_default();

    // ---- Live-monitor emission (values already computed above). ----
    if let Some(m) = &monitor {
        for (i, o) in instances.iter().enumerate() {
            m.instance_done(0, o.succeeded(), instance_end_times_s[i]);
        }
        m.kernel_launch(0, n, kernel_time_s);
        let heap = gpu.mem.stats();
        m.heap_sample(0, heap_bytes, heap.peak_bytes_in_use, gpu.mem.capacity());
        if let Ok(mean) = crate::stats::utilization_mean(&timeline.issue_rates()) {
            m.utilization_sample(0, mean);
        }
    }

    // ---- Timeline recording. ----
    if traced {
        let kernel_start_us = h2d_s * 1e6;
        let kernel_us = launch.report.sim_time_s * 1e6;
        obs.span_args(
            PID_HOST,
            0,
            &kernel_name,
            "kernel",
            kernel_start_us,
            kernel_us,
            vec![
                ("blocks".into(), Value::U64(launch.report.blocks as u64)),
                ("waves".into(), Value::U64(launch.report.waves as u64)),
            ],
        );
        record_schedule(obs, &launch.schedule, upc_us, device_offset_us);
        timeline.emit_counters(obs);
        obs.span(
            PID_HOST,
            0,
            "d2h results",
            "loader",
            kernel_start_us + kernel_us,
            d2h_s * 1e6,
        );
        for m in &metrics {
            let lane = m.instance + 1;
            obs.name_thread(PID_HOST, lane, &format!("instance {}", m.instance));
            let name = if m.timed_out {
                "timeout".to_string()
            } else if m.oom {
                "oom".to_string()
            } else if m.trapped {
                "trap".to_string()
            } else {
                format!("exit {}", m.exit_code.unwrap_or(0))
            };
            obs.instant_args(
                PID_HOST,
                lane,
                &name,
                "lifecycle",
                device_offset_us + m.cycles * upc_us,
                vec![("rpc_calls".into(), Value::U64(m.rpc.total()))],
            );
        }
        let totals = services.stats();
        obs.instant_args(
            PID_HOST,
            0,
            "rpc totals",
            "rpc",
            kernel_start_us + kernel_us,
            vec![
                ("stdio".into(), Value::U64(totals.stdio_calls)),
                ("fs".into(), Value::U64(totals.fs_calls)),
                ("clock".into(), Value::U64(totals.clock_calls)),
                ("exit".into(), Value::U64(totals.exit_calls)),
                ("errors".into(), Value::U64(totals.errors)),
            ],
        );
    }

    // ---- Span-graph node. ----
    // `total_s` is the *exact* value placed in `total_time_s` below —
    // replaying the graph must perform the driver's own additions.
    let total_time_s = kernel_time_s + transfer_seconds;
    let mut graph = SpanGraph::default();
    graph.push_launch(LaunchNode {
        kernel: kernel_name,
        device: 0,
        round: 0,
        concurrent: false,
        start_s: 0.0,
        h2d_s,
        kernel_s: kernel_time_s,
        d2h_s,
        total_s: total_time_s,
        overhead_s: gpu.spec.launch_overhead_us * 1e-6,
        cycle_s,
        waves: launch.report.waves,
        teams_per_block,
        instances: (0..n).collect(),
        // A copy, not a move: the graph outlives the launch, and keeping
        // the launch's own buffer alive in it raised the peak RSS of long
        // multi-launch runs.
        block_stalls: launch.stalls.blocks.clone(),
        wave_spans: launch.schedule.wave_spans(),
        chain: CriticalHop::chain_from_schedule(&launch.schedule),
    });

    Ok(EnsembleResult {
        instances,
        stdout,
        report: launch.report,
        kernel_time_s,
        total_time_s,
        instance_end_times_s,
        rpc_stats: services.stats(),
        metrics,
        timeline,
        graph,
        heap,
    })
}

/// The enhanced loader's command line (paper §3.2): `-f <file>`,
/// `-n <num instances>`, `-t <thread limit>`, plus extensions:
/// `--pack <M>` selects the §3.1 packed mapping, `--batch <B>` runs the
/// ensemble as sequential batches of `B` instances (memory-wall escape),
/// `--trace-out <file>` / `--metrics-out <file>` export a Chrome trace and
/// JSONL metrics, `--quiet` suppresses per-instance output blocks,
/// `--devices <M> --placement <P>` shard the ensemble across a simulated
/// fleet, and `--cycle-args` permits reusing argument lines modulo.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleCliArgs {
    pub arg_file: String,
    /// Defaults to the number of lines in the argument file when absent.
    pub num_instances: Option<u32>,
    pub thread_limit: u32,
    pub pack: u32,
    /// `0` means unbatched (one concurrent launch).
    pub batch: u32,
    /// Chrome trace-event JSON output path.
    pub trace_out: Option<String>,
    /// JSONL metrics output path.
    pub metrics_out: Option<String>,
    /// Suppress per-instance stdout blocks.
    pub quiet: bool,
    /// Fault-plan JSON path (`--faults`); enables recovery.
    pub faults: Option<String>,
    /// Max launch attempts per instance when recovery is enabled.
    pub max_attempts: u32,
    /// Halve the concurrent batch on device OOM instead of giving up.
    pub auto_batch: bool,
    /// Watchdog budget in device cycles per instance.
    pub instance_timeout: Option<f64>,
    /// Abort remaining work as soon as one instance exhausts its attempts.
    pub fail_fast: bool,
    /// Seed for the executor's opt-in backoff jitter
    /// (`--retry-jitter <seed>`); `None` keeps the synchronized waits and
    /// every existing golden bit-identical.
    pub retry_jitter: Option<u64>,
    /// Number of simulated devices to shard the ensemble across
    /// (`--devices`, default 1 = the single-device paths).
    pub devices: u32,
    /// Placement policy name for sharded launches (`--placement`;
    /// `round-robin`, `greedy` or `lpt`). Kept as a string here — the
    /// policies live in `dgc-sched`, which sits above this crate.
    pub placement: String,
    /// Reuse argument lines modulo when `-n` exceeds the file's line
    /// count (`--cycle-args`).
    pub cycle_args: bool,
    /// Utilization sampling interval in device cycles. `--timeline`
    /// enables sampling at [`DEFAULT_SAMPLE_INTERVAL`];
    /// `--sample-interval <cycles>` sets an explicit interval of at least
    /// one cycle (and implies `--timeline`). `None` disables sampling
    /// entirely.
    pub sample_interval: Option<f64>,
    /// Print per-launch progress lines to stderr (`--progress`);
    /// `--quiet` wins when both are given.
    pub progress: bool,
    /// Span-graph insight report output path (`--insight-out`): critical
    /// path, blame table and Gantt summary rendered by `dgc-insight`.
    pub insight_out: Option<String>,
    /// Folded-stack flamegraph output path (`--flame-out`),
    /// `inferno`-compatible text format.
    pub flame_out: Option<String>,
    /// OpenMetrics snapshot log path (`--monitor-out`): stream live
    /// run metrics to this file from a background monitor thread.
    pub monitor_out: Option<String>,
    /// Wall-clock interval between monitor snapshots in milliseconds
    /// (`--monitor-interval`, default [`DEFAULT_MONITOR_INTERVAL_MS`]).
    pub monitor_interval_ms: u64,
    /// Memory-aware placement and per-team free lists (default on;
    /// `--no-mem-aware` restores the bit-identical legacy paths: first-fit
    /// only, capacity discovered by OOM-then-halve instead of pilot peaks).
    pub mem_aware: bool,
}

/// Sampling interval `--timeline` uses when `--sample-interval` does not
/// override it: one sample every 50 000 device cycles (~35 µs at A100
/// clocks) — fine enough to resolve waves, coarse enough that even long
/// sweeps stay under a few thousand samples.
pub const DEFAULT_SAMPLE_INTERVAL: f64 = 50_000.0;

/// Default `--monitor-interval`: one snapshot per second of wall time.
/// Simulated runs usually finish in well under a second, so the default
/// yields the guaranteed final snapshot plus periodic ones only for
/// genuinely long sweeps.
pub const DEFAULT_MONITOR_INTERVAL_MS: u64 = 1000;

/// Format the `--progress` ETA column from the instances remaining and
/// the measured completion rate. A rate of ~zero (nothing completed
/// yet, or a clock with no resolution) would print `inf`/`NaN` seconds;
/// those render as `--` instead.
pub fn format_eta_s(remaining: u64, rate_per_s: f64) -> String {
    let eta_s = remaining as f64 / rate_per_s;
    if rate_per_s > 1e-9 && eta_s.is_finite() {
        format!("{eta_s:.1} s")
    } else {
        "--".to_string()
    }
}

/// CLI parse failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    MissingValue(&'static str),
    BadValue(&'static str, String),
    UnknownFlag(String),
    MissingArgFile,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::MissingValue(flag) => write!(f, "{flag} requires a value"),
            CliError::BadValue(flag, v) => write!(f, "bad value '{v}' for {flag}"),
            CliError::UnknownFlag(flag) => write!(f, "unknown flag '{flag}'"),
            CliError::MissingArgFile => write!(f, "-f <arguments file> is required"),
        }
    }
}

impl std::error::Error for CliError {}

/// Parse the enhanced loader's command line, e.g.
/// `./user_app_gpu -f arguments.txt -n 4 -t 128` (paper Fig. 5c).
pub fn parse_ensemble_cli(args: &[String]) -> Result<EnsembleCliArgs, CliError> {
    let mut arg_file = None;
    let mut num_instances = None;
    let mut thread_limit = 128u32;
    let mut pack = 1u32;
    let mut batch = 0u32;
    let mut trace_out = None;
    let mut metrics_out = None;
    let mut quiet = false;
    let mut faults = None;
    let mut max_attempts = 3u32;
    let mut auto_batch = false;
    let mut instance_timeout = None;
    let mut fail_fast = false;
    let mut retry_jitter = None;
    let mut devices = 1u32;
    let mut placement = "round-robin".to_string();
    let mut cycle_args = false;
    let mut sample_interval = None;
    let mut progress = false;
    let mut insight_out = None;
    let mut flame_out = None;
    let mut monitor_out = None;
    let mut monitor_interval_ms = DEFAULT_MONITOR_INTERVAL_MS;
    let mut mem_aware = true;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-f" => {
                arg_file = Some(it.next().ok_or(CliError::MissingValue("-f"))?.to_string());
            }
            "-n" => {
                let v = it.next().ok_or(CliError::MissingValue("-n"))?;
                num_instances = Some(v.parse().map_err(|_| CliError::BadValue("-n", v.clone()))?);
            }
            "-t" => {
                let v = it.next().ok_or(CliError::MissingValue("-t"))?;
                thread_limit = v.parse().map_err(|_| CliError::BadValue("-t", v.clone()))?;
            }
            "--pack" => {
                let v = it.next().ok_or(CliError::MissingValue("--pack"))?;
                pack = v
                    .parse()
                    .map_err(|_| CliError::BadValue("--pack", v.clone()))?;
            }
            "--batch" => {
                let v = it.next().ok_or(CliError::MissingValue("--batch"))?;
                batch = v
                    .parse()
                    .map_err(|_| CliError::BadValue("--batch", v.clone()))?;
            }
            "--trace-out" => {
                trace_out = Some(
                    it.next()
                        .ok_or(CliError::MissingValue("--trace-out"))?
                        .to_string(),
                );
            }
            "--metrics-out" => {
                metrics_out = Some(
                    it.next()
                        .ok_or(CliError::MissingValue("--metrics-out"))?
                        .to_string(),
                );
            }
            "--quiet" | "-q" => quiet = true,
            "--faults" => {
                faults = Some(
                    it.next()
                        .ok_or(CliError::MissingValue("--faults"))?
                        .to_string(),
                );
            }
            "--max-attempts" => {
                let v = it.next().ok_or(CliError::MissingValue("--max-attempts"))?;
                max_attempts = v
                    .parse()
                    .map_err(|_| CliError::BadValue("--max-attempts", v.clone()))?;
                if max_attempts == 0 {
                    return Err(CliError::BadValue("--max-attempts", v.clone()));
                }
            }
            "--auto-batch" => auto_batch = true,
            "--instance-timeout" => {
                let v = it
                    .next()
                    .ok_or(CliError::MissingValue("--instance-timeout"))?;
                let cycles: f64 = v
                    .parse()
                    .map_err(|_| CliError::BadValue("--instance-timeout", v.clone()))?;
                if !cycles.is_finite() || cycles <= 0.0 {
                    return Err(CliError::BadValue("--instance-timeout", v.clone()));
                }
                instance_timeout = Some(cycles);
            }
            "--fail-fast" => fail_fast = true,
            "--retry-jitter" => {
                let v = it.next().ok_or(CliError::MissingValue("--retry-jitter"))?;
                retry_jitter = Some(
                    v.parse()
                        .map_err(|_| CliError::BadValue("--retry-jitter", v.clone()))?,
                );
            }
            "--devices" => {
                let v = it.next().ok_or(CliError::MissingValue("--devices"))?;
                devices = v
                    .parse()
                    .map_err(|_| CliError::BadValue("--devices", v.clone()))?;
                if devices == 0 {
                    return Err(CliError::BadValue("--devices", v.clone()));
                }
            }
            "--placement" => {
                placement = it
                    .next()
                    .ok_or(CliError::MissingValue("--placement"))?
                    .to_string();
            }
            "--cycle-args" => cycle_args = true,
            "--timeline" => {
                sample_interval.get_or_insert(DEFAULT_SAMPLE_INTERVAL);
            }
            "--sample-interval" => {
                let v = it
                    .next()
                    .ok_or(CliError::MissingValue("--sample-interval"))?;
                let cycles: f64 = v
                    .parse()
                    .map_err(|_| CliError::BadValue("--sample-interval", v.clone()))?;
                // Below one cycle the timeline would hold more samples
                // than the kernel has cycles, and intervals at or below
                // the timing engine's epsilon break its precondition.
                if !cycles.is_finite() || cycles < 1.0 {
                    return Err(CliError::BadValue("--sample-interval", v.clone()));
                }
                sample_interval = Some(cycles);
            }
            "--progress" => progress = true,
            "--insight-out" => {
                insight_out = Some(
                    it.next()
                        .ok_or(CliError::MissingValue("--insight-out"))?
                        .to_string(),
                );
            }
            "--flame-out" => {
                flame_out = Some(
                    it.next()
                        .ok_or(CliError::MissingValue("--flame-out"))?
                        .to_string(),
                );
            }
            "--monitor-out" => {
                monitor_out = Some(
                    it.next()
                        .ok_or(CliError::MissingValue("--monitor-out"))?
                        .to_string(),
                );
            }
            "--monitor-interval" => {
                let v = it
                    .next()
                    .ok_or(CliError::MissingValue("--monitor-interval"))?;
                monitor_interval_ms = v
                    .parse()
                    .map_err(|_| CliError::BadValue("--monitor-interval", v.clone()))?;
                if monitor_interval_ms == 0 {
                    return Err(CliError::BadValue("--monitor-interval", v.clone()));
                }
            }
            "--mem-aware" => mem_aware = true,
            "--no-mem-aware" => mem_aware = false,
            other => return Err(CliError::UnknownFlag(other.to_string())),
        }
    }
    Ok(EnsembleCliArgs {
        arg_file: arg_file.ok_or(CliError::MissingArgFile)?,
        num_instances,
        thread_limit,
        pack,
        batch,
        trace_out,
        metrics_out,
        quiet,
        faults,
        max_attempts,
        auto_batch,
        instance_timeout,
        fail_fast,
        retry_jitter,
        devices,
        placement,
        cycle_args,
        sample_interval,
        progress,
        insight_out,
        flame_out,
        monitor_out,
        monitor_interval_ms,
        mem_aware,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::AppContext;
    use crate::argfile::parse_arg_file;
    use device_libc::dl_printf;
    use gpu_sim::TeamCtx;

    const MODULE: &str = r#"
module "bench" {
  func @main arity=2 calls(@printf, @malloc, @atoi)
  extern func @printf variadic
  extern func @malloc
  extern func @atoi
}
"#;

    /// Streams `n` doubles (from `-n <n>`), prints a digest.
    fn stream_main(team: &mut TeamCtx<'_>, cx: &AppContext) -> Result<i32, KernelError> {
        let n: u64 = cx
            .argv
            .iter()
            .position(|a| a == "-n")
            .and_then(|p| cx.argv.get(p + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(1000);
        let buf = team.serial("alloc", |lane| lane.dev_alloc(8 * n))?;
        team.parallel_for("init", n, |i, lane| lane.st_idx::<f64>(buf, i, i as f64))?;
        let sum = team.parallel_for_reduce_f64("sum", n, |i, lane| lane.ld_idx::<f64>(buf, i))?;
        let instance = cx.instance;
        team.serial("print", |lane| {
            dl_printf(
                lane,
                "instance %d sum %.1f\n",
                &[instance.into(), sum.into()],
            )?;
            Ok(())
        })?;
        Ok(0)
    }

    fn app() -> HostApp {
        HostApp::new("bench", MODULE, stream_main)
    }

    fn lines(text: &str) -> Vec<Vec<String>> {
        parse_arg_file(text).unwrap()
    }

    #[test]
    fn four_instances_get_own_args_and_streams() {
        let mut gpu = Gpu::a100();
        let arg_lines = lines("-n 100\n-n 200\n-n 300\n-n 400\n");
        let opts = EnsembleOptions {
            num_instances: 4,
            thread_limit: 32,
            ..Default::default()
        };
        let res =
            run_ensemble(&mut gpu, &app(), &arg_lines, &opts, HostServices::default()).unwrap();
        assert!(res.all_succeeded());
        assert_eq!(res.report.blocks, 4);
        let sum_of = |n: u64| (0..n).map(|i| i as f64).sum::<f64>();
        assert_eq!(
            res.stdout[0],
            format!("instance 0 sum {:.1}\n", sum_of(100))
        );
        assert_eq!(
            res.stdout[3],
            format!("instance 3 sum {:.1}\n", sum_of(400))
        );
        assert_eq!(gpu.mem.stats().live_allocations, 0);
    }

    #[test]
    fn metrics_capture_per_instance_work_and_heap() {
        let mut gpu = Gpu::a100();
        let arg_lines = lines("-n 100\n-n 400\n");
        let opts = EnsembleOptions {
            num_instances: 2,
            thread_limit: 32,
            ..Default::default()
        };
        let res =
            run_ensemble(&mut gpu, &app(), &arg_lines, &opts, HostServices::default()).unwrap();
        assert_eq!(res.metrics.len(), 2);
        let (m0, m1) = (&res.metrics[0], &res.metrics[1]);
        assert_eq!((m0.instance, m1.instance), (0, 1));
        assert_eq!(m0.exit_code, Some(0));
        assert!(!m0.trapped && !m0.oom);
        // Instance 1 streams 4× the data: more work, bigger heap peak.
        assert!(m1.warp_insts > m0.warp_insts);
        assert!(m1.moved_bytes > m0.moved_bytes);
        assert!(m0.heap_peak_bytes >= 8 * 100);
        assert!(m1.heap_peak_bytes >= 8 * 400);
        // One printf round trip each, demultiplexed per instance.
        assert_eq!(m0.rpc.stdio, 1);
        assert_eq!(m1.rpc.stdio, 1);
        assert!(m0.rpc_stall_s > 0.0);
        assert_eq!(m0.end_time_s, res.instance_end_times_s[0]);
        // Stall attribution rides along: buckets partition each
        // instance's cycles exactly.
        assert_eq!(m0.stall.total(), m0.cycles);
        assert_eq!(m1.stall.total(), m1.cycles);
        assert!(m0.stall.rpc > 0.0, "printf stall missing: {:?}", m0.stall);
        // Launch rollup agrees with the instance outcomes.
        let lm = res.launch_metrics();
        assert_eq!(lm.schema, dgc_obs::METRICS_SCHEMA_VERSION);
        assert_eq!(lm.instances, 2);
        assert_eq!((lm.failed, lm.oom), (0, 0));
        assert_eq!(lm.rpc_total, res.rpc_stats.total());
        // Percentiles come from the log2 histogram: p50 ≤ p99, and p99
        // bounds the slowest instance from above within its 2× bucket.
        assert!(lm.latency.p50_s <= lm.latency.p99_s);
        let max_end = res.instance_end_times_s.iter().cloned().fold(0.0, f64::max);
        assert!(lm.latency.p99_s >= max_end * 0.99);
        assert!(lm.latency.p99_s <= max_end * 2.0);
        assert!(lm.rpc_stall.p50_s > 0.0);
    }

    #[test]
    fn sampling_is_opt_in_and_bit_identical() {
        let arg_lines = lines("-n 100\n-n 400\n");
        let base_opts = EnsembleOptions {
            num_instances: 2,
            thread_limit: 32,
            ..Default::default()
        };
        // Default run: no timeline, null rollups.
        let mut gpu = Gpu::a100();
        let plain = run_ensemble(
            &mut gpu,
            &app(),
            &arg_lines,
            &base_opts,
            HostServices::default(),
        )
        .unwrap();
        assert!(plain.timeline.is_empty());
        let lm = plain.launch_metrics();
        assert_eq!(lm.utilization_mean, None);
        assert_eq!(lm.utilization_p95, None);
        assert!(lm.timeline.is_empty());
        // Sampled run: identical simulation, plus a populated series.
        let opts = EnsembleOptions {
            sample_interval: Some(500.0),
            ..base_opts.clone()
        };
        let mut gpu = Gpu::a100();
        let sampled =
            run_ensemble(&mut gpu, &app(), &arg_lines, &opts, HostServices::default()).unwrap();
        assert_eq!(plain.report, sampled.report);
        assert_eq!(plain.metrics, sampled.metrics);
        assert_eq!(plain.stdout, sampled.stdout);
        assert!(!sampled.timeline.is_empty());
        // Timestamps advance strictly and sit past the loader prologue.
        let ts: Vec<f64> = sampled.timeline.points.iter().map(|p| p.t_us).collect();
        assert!(ts.windows(2).all(|w| w[1] > w[0]), "{ts:?}");
        assert!(ts[0] > 0.0);
        // The heap counter saw the instances' live allocations.
        assert!(sampled.timeline.points[0].heap_bytes >= 8 * 500);
        let lm = sampled.launch_metrics();
        assert_eq!(lm.timeline.len(), sampled.timeline.points.len());
        let mean = lm.utilization_mean.unwrap();
        let p95 = lm.utilization_p95.unwrap();
        assert!(mean > 0.0 && mean <= 1.0, "mean {mean}");
        // This workload is RPC-stall dominated, so most windows issue
        // nothing — p95 only has to be a valid rate, not positive.
        assert!((0.0..=1.0).contains(&p95), "p95 {p95}");
    }

    #[test]
    fn single_sample_timeline_rollups_degenerate_to_that_sample() {
        // An interval longer than the kernel leaves only the flushed
        // final window: a one-point series whose mean and p95 rollups
        // both equal the single sample (nearest-rank p95 of n=1).
        let arg_lines = lines("-n 100\n-n 400\n");
        let opts = EnsembleOptions {
            num_instances: 2,
            thread_limit: 32,
            sample_interval: Some(1e12),
            ..Default::default()
        };
        let mut gpu = Gpu::a100();
        let res =
            run_ensemble(&mut gpu, &app(), &arg_lines, &opts, HostServices::default()).unwrap();
        assert_eq!(res.timeline.points.len(), 1);
        let rate = res.timeline.points[0].issue_rate;
        let lm = res.launch_metrics();
        assert_eq!(lm.utilization_mean, Some(rate));
        assert_eq!(lm.utilization_p95, Some(rate));
    }

    #[test]
    fn sampling_only_adds_counter_events_to_traces() {
        let arg_lines = lines("-n 100\n-n 200\n");
        let opts = EnsembleOptions {
            num_instances: 2,
            thread_limit: 32,
            ..Default::default()
        };
        let mut gpu = Gpu::a100();
        let mut obs_off = Recorder::enabled();
        run_ensemble_traced(
            &mut gpu,
            &app(),
            &arg_lines,
            &opts,
            HostServices::default(),
            &mut obs_off,
        )
        .unwrap();
        let mut gpu = Gpu::a100();
        let mut obs_on = Recorder::enabled();
        let opts_on = EnsembleOptions {
            sample_interval: Some(500.0),
            ..opts.clone()
        };
        run_ensemble_traced(
            &mut gpu,
            &app(),
            &arg_lines,
            &opts_on,
            HostServices::default(),
            &mut obs_on,
        )
        .unwrap();
        // The sampled trace is the plain trace plus counter tracks and
        // nothing else: stripping the `ph == 'C'` events recovers the
        // plain event stream exactly.
        assert!(obs_on.events().iter().any(|e| e.ph == 'C'));
        let stripped: Vec<_> = obs_on.events().iter().filter(|e| e.ph != 'C').collect();
        assert_eq!(stripped.len(), obs_off.events().len());
        for (on, off) in stripped.iter().zip(obs_off.events()) {
            assert_eq!(*on, off);
        }
    }

    #[test]
    fn arg_lines_cycle_when_fewer_than_instances() {
        let mut gpu = Gpu::a100();
        let arg_lines = lines("-n 50\n");
        let opts = EnsembleOptions {
            num_instances: 3,
            thread_limit: 32,
            cycle_args: true,
            ..Default::default()
        };
        let res =
            run_ensemble(&mut gpu, &app(), &arg_lines, &opts, HostServices::default()).unwrap();
        assert!(res.all_succeeded());
        let expected = format!("sum {:.1}\n", (0..50).map(|i| i as f64).sum::<f64>());
        for s in &res.stdout {
            assert!(s.ends_with(&expected), "{s}");
        }
    }

    #[test]
    fn ensemble_speedup_is_sublinear_but_real() {
        // The paper's headline property, end to end through the loader.
        let run_n = |n: u32| {
            let mut gpu = Gpu::a100();
            let opts = EnsembleOptions {
                num_instances: n,
                thread_limit: 32,
                cycle_args: true,
                ..Default::default()
            };
            run_ensemble(
                &mut gpu,
                &app(),
                &lines("-n 20000\n"),
                &opts,
                HostServices::default(),
            )
            .unwrap()
            .kernel_time_s
        };
        let t1 = run_n(1);
        let t16 = run_n(16);
        let speedup = crate::stats::relative_speedup(t1, 16, t16).unwrap();
        assert!(speedup > 4.0, "speedup {speedup}");
        assert!(speedup <= 16.0 + 1e-6, "speedup {speedup}");
    }

    #[test]
    fn heterogeneous_arguments_show_load_imbalance() {
        let mut gpu = Gpu::a100();
        let opts = EnsembleOptions {
            num_instances: 4,
            thread_limit: 32,
            cycle_args: true,
            ..Default::default()
        };
        // One instance does 2000× the work of the others.
        let res = run_ensemble(
            &mut gpu,
            &app(),
            &lines("-n 100\n-n 100\n-n 100\n-n 200000\n"),
            &opts,
            HostServices::default(),
        )
        .unwrap();
        assert!(res.all_succeeded());
        assert_eq!(res.instance_end_times_s.len(), 4);
        assert!(
            res.load_imbalance() > 1.5,
            "imbalance = {}",
            res.load_imbalance()
        );
        // The slow instance is the last finisher.
        let max = res.instance_end_times_s.iter().cloned().fold(0.0, f64::max);
        assert_eq!(res.instance_end_times_s[3], max);

        // Homogeneous arguments are balanced.
        let res = run_ensemble(
            &mut gpu,
            &app(),
            &lines("-n 500\n"),
            &opts,
            HostServices::default(),
        )
        .unwrap();
        assert!(
            (res.load_imbalance() - 1.0).abs() < 0.05,
            "{}",
            res.load_imbalance()
        );
    }

    #[test]
    fn oom_instance_reported_not_fatal() {
        fn hog_main(team: &mut TeamCtx<'_>, cx: &AppContext) -> Result<i32, KernelError> {
            // Each instance reserves 15 GB: on a 40 GB device the third
            // and later instances fail, like the paper's Page-Rank runs.
            let _ = cx;
            team.serial("alloc", |lane| lane.dev_alloc(15 << 30))?;
            Ok(0)
        }
        let a = HostApp::new("hog", MODULE, hog_main);
        let mut gpu = Gpu::a100();
        let opts = EnsembleOptions {
            num_instances: 4,
            thread_limit: 32,
            cycle_args: true,
            ..Default::default()
        };
        let res =
            run_ensemble(&mut gpu, &a, &lines("-x\n"), &opts, HostServices::default()).unwrap();
        assert!(res.any_oom());
        let oks = res.instances.iter().filter(|i| i.succeeded()).count();
        let ooms = res.instances.iter().filter(|i| i.oom).count();
        assert_eq!(oks, 2);
        assert_eq!(ooms, 2);
        assert_eq!(gpu.mem.stats().live_allocations, 0);
    }

    #[test]
    fn packed_mapping_shares_blocks() {
        let mut gpu = Gpu::a100();
        let opts = EnsembleOptions {
            num_instances: 8,
            thread_limit: 128,
            mapping: MappingStrategy::Packed { per_block: 4 },
            cycle_args: true,
            ..Default::default()
        };
        let res = run_ensemble(
            &mut gpu,
            &app(),
            &lines("-n 100\n"),
            &opts,
            HostServices::default(),
        )
        .unwrap();
        assert!(res.all_succeeded());
        assert_eq!(res.report.blocks, 2);
        assert_eq!(res.report.threads_per_block, 128);
    }

    #[test]
    fn bad_packing_rejected() {
        let mut gpu = Gpu::a100();
        let opts = EnsembleOptions {
            num_instances: 4,
            thread_limit: 100,
            mapping: MappingStrategy::Packed { per_block: 3 },
            cycle_args: true,
            ..Default::default()
        };
        assert!(matches!(
            run_ensemble(
                &mut gpu,
                &app(),
                &lines("-x\n"),
                &opts,
                HostServices::default()
            ),
            Err(EnsembleError::BadPacking { .. })
        ));
        assert_eq!(gpu.mem.stats().live_allocations, 0);
    }

    #[test]
    fn cli_parses_paper_invocation() {
        let args: Vec<String> = ["-f", "arguments.txt", "-n", "4", "-t", "128"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let cli = parse_ensemble_cli(&args).unwrap();
        assert_eq!(
            cli,
            EnsembleCliArgs {
                arg_file: "arguments.txt".into(),
                num_instances: Some(4),
                thread_limit: 128,
                pack: 1,
                batch: 0,
                trace_out: None,
                metrics_out: None,
                quiet: false,
                faults: None,
                max_attempts: 3,
                auto_batch: false,
                instance_timeout: None,
                fail_fast: false,
                retry_jitter: None,
                devices: 1,
                placement: "round-robin".into(),
                cycle_args: false,
                sample_interval: None,
                progress: false,
                insight_out: None,
                flame_out: None,
                monitor_out: None,
                monitor_interval_ms: DEFAULT_MONITOR_INTERVAL_MS,
                mem_aware: true,
            }
        );
    }

    #[test]
    fn cli_parses_mem_aware_flags() {
        let cli = parse_ensemble_cli(&["-f", "a"].map(String::from)).unwrap();
        assert!(cli.mem_aware, "memory-aware placement defaults on");
        let cli = parse_ensemble_cli(&["-f", "a", "--no-mem-aware"].map(String::from)).unwrap();
        assert!(!cli.mem_aware);
        // The positive spelling re-enables after an earlier opt-out.
        let cli =
            parse_ensemble_cli(&["-f", "a", "--no-mem-aware", "--mem-aware"].map(String::from))
                .unwrap();
        assert!(cli.mem_aware);
    }

    #[test]
    fn cli_parses_monitor_flags() {
        let cli = parse_ensemble_cli(
            &[
                "-f",
                "a",
                "--monitor-out",
                "snap.om",
                "--monitor-interval",
                "250",
            ]
            .map(String::from),
        )
        .unwrap();
        assert_eq!(cli.monitor_out.as_deref(), Some("snap.om"));
        assert_eq!(cli.monitor_interval_ms, 250);
        // A zero interval would spin the monitor thread — rejected.
        assert_eq!(
            parse_ensemble_cli(&["-f", "a", "--monitor-interval", "0"].map(String::from)),
            Err(CliError::BadValue("--monitor-interval", "0".into()))
        );
    }

    #[test]
    fn eta_formats_finite_rates_and_dashes_degenerate_ones() {
        assert_eq!(format_eta_s(10, 2.0), "5.0 s");
        assert_eq!(format_eta_s(0, 2.0), "0.0 s");
        // Zero, ~zero, negative and NaN rates all divide to inf/NaN —
        // the column degrades to `--` instead of printing them.
        assert_eq!(format_eta_s(10, 0.0), "--");
        assert_eq!(format_eta_s(10, 1e-12), "--");
        assert_eq!(format_eta_s(10, -1.0), "--");
        assert_eq!(format_eta_s(10, f64::NAN), "--");
    }

    #[test]
    fn cli_parses_multi_device_flags() {
        let args: Vec<String> = [
            "-f",
            "args.txt",
            "--devices",
            "3",
            "--placement",
            "lpt",
            "--cycle-args",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let cli = parse_ensemble_cli(&args).unwrap();
        assert_eq!(cli.devices, 3);
        assert_eq!(cli.placement, "lpt");
        assert!(cli.cycle_args);
        // Zero devices is rejected.
        assert_eq!(
            parse_ensemble_cli(&["-f", "a", "--devices", "0"].map(String::from)),
            Err(CliError::BadValue("--devices", "0".into()))
        );
        assert_eq!(
            parse_ensemble_cli(&["-f", "a", "--devices", "x"].map(String::from)),
            Err(CliError::BadValue("--devices", "x".into()))
        );
    }

    #[test]
    fn cli_parses_fault_flags() {
        let args: Vec<String> = [
            "-f",
            "args.txt",
            "--faults",
            "plan.json",
            "--max-attempts",
            "5",
            "--auto-batch",
            "--instance-timeout",
            "50000",
            "--fail-fast",
            "--retry-jitter",
            "1234",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let cli = parse_ensemble_cli(&args).unwrap();
        assert_eq!(cli.faults.as_deref(), Some("plan.json"));
        assert_eq!(cli.max_attempts, 5);
        assert!(cli.auto_batch);
        assert_eq!(cli.instance_timeout, Some(50000.0));
        assert!(cli.fail_fast);
        assert_eq!(cli.retry_jitter, Some(1234));
        // Zero attempts and non-positive budgets are rejected.
        assert_eq!(
            parse_ensemble_cli(&["-f", "a", "--max-attempts", "0"].map(String::from)),
            Err(CliError::BadValue("--max-attempts", "0".into()))
        );
        assert_eq!(
            parse_ensemble_cli(&["-f", "a", "--instance-timeout", "-1"].map(String::from)),
            Err(CliError::BadValue("--instance-timeout", "-1".into()))
        );
        assert_eq!(
            parse_ensemble_cli(&["-f", "a", "--retry-jitter", "nope"].map(String::from)),
            Err(CliError::BadValue("--retry-jitter", "nope".into()))
        );
    }

    #[test]
    fn cli_parses_observability_flags() {
        let args: Vec<String> = [
            "-f",
            "args.txt",
            "-n",
            "8",
            "-t",
            "32",
            "--trace-out",
            "t.json",
            "--metrics-out",
            "m.jsonl",
            "--quiet",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let cli = parse_ensemble_cli(&args).unwrap();
        assert_eq!(cli.trace_out.as_deref(), Some("t.json"));
        assert_eq!(cli.metrics_out.as_deref(), Some("m.jsonl"));
        assert!(cli.quiet);
        assert_eq!(
            parse_ensemble_cli(&["-f".into(), "a".into(), "--trace-out".into()]),
            Err(CliError::MissingValue("--trace-out"))
        );
    }

    #[test]
    fn cli_rejects_malformed() {
        let to = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            parse_ensemble_cli(&to(&["-n", "4"])),
            Err(CliError::MissingArgFile)
        );
        assert_eq!(
            parse_ensemble_cli(&to(&["-f"])),
            Err(CliError::MissingValue("-f"))
        );
        assert_eq!(
            parse_ensemble_cli(&to(&["-f", "a", "-n", "x"])),
            Err(CliError::BadValue("-n", "x".into()))
        );
        assert_eq!(
            parse_ensemble_cli(&to(&["-f", "a", "--wat"])),
            Err(CliError::UnknownFlag("--wat".into()))
        );
    }

    #[test]
    fn cli_defaults() {
        let cli = parse_ensemble_cli(&["-f".to_string(), "args.txt".to_string()]).unwrap();
        assert_eq!(cli.num_instances, None);
        assert_eq!(cli.thread_limit, 128);
        assert_eq!(cli.pack, 1);
        assert_eq!(cli.batch, 0);
        assert_eq!(cli.faults, None);
        assert_eq!(cli.max_attempts, 3);
        assert!(!cli.auto_batch);
        assert_eq!(cli.instance_timeout, None);
        assert!(!cli.fail_fast);
        assert_eq!(cli.retry_jitter, None);
        assert_eq!(cli.devices, 1);
        assert_eq!(cli.placement, "round-robin");
        assert!(!cli.cycle_args);
        assert_eq!(cli.sample_interval, None);
        assert!(!cli.progress);

        let cli = parse_ensemble_cli(&["-f", "a", "--batch", "4"].map(String::from)).unwrap();
        assert_eq!(cli.batch, 4);
    }

    #[test]
    fn cli_parses_telemetry_flags() {
        // --timeline alone picks the default interval.
        let cli = parse_ensemble_cli(&["-f", "a", "--timeline"].map(String::from)).unwrap();
        assert_eq!(cli.sample_interval, Some(DEFAULT_SAMPLE_INTERVAL));
        // --sample-interval sets an explicit interval and implies
        // --timeline, in either flag order.
        let cli = parse_ensemble_cli(
            &["-f", "a", "--sample-interval", "2500", "--timeline"].map(String::from),
        )
        .unwrap();
        assert_eq!(cli.sample_interval, Some(2500.0));
        let cli = parse_ensemble_cli(&["-f", "a", "--sample-interval", "2500"].map(String::from))
            .unwrap();
        assert_eq!(cli.sample_interval, Some(2500.0));
        // --progress parses and composes with --quiet.
        let cli =
            parse_ensemble_cli(&["-f", "a", "--progress", "--quiet"].map(String::from)).unwrap();
        assert!(cli.progress && cli.quiet);
        // Intervals below one cycle, non-finite and non-numeric ones are
        // rejected; one cycle is the smallest accepted.
        for bad in ["0", "-5", "0.5", "1e-9", "1e-10", "nan", "inf", "x"] {
            assert_eq!(
                parse_ensemble_cli(&["-f", "a", "--sample-interval", bad].map(String::from)),
                Err(CliError::BadValue("--sample-interval", bad.into())),
                "interval {bad:?} must be rejected"
            );
        }
        let cli =
            parse_ensemble_cli(&["-f", "a", "--sample-interval", "1"].map(String::from)).unwrap();
        assert_eq!(cli.sample_interval, Some(1.0));
        assert_eq!(
            parse_ensemble_cli(&["-f".into(), "a".into(), "--sample-interval".into()]),
            Err(CliError::MissingValue("--sample-interval"))
        );
    }
}
