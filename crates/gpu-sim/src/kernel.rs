use crate::ctx::{HostCallHook, KernelError, TeamCtx};
use crate::report::SimReport;
use crate::timing::{
    simulate_timing, ScheduleDetail, StallAttribution, TimingInputs, TimingParams,
    UtilizationTimeline,
};
use crate::trace::{BlockTrace, MixedSeg, Phase};
use gpu_arch::{occupancy, GpuSpec, LaunchConfig, LaunchError};
use gpu_mem::{AllocError, DeviceMemory, TransferEngine};
use serde::{Deserialize, Serialize};

/// Simulator-level launch failures (functional kernel errors are reported
/// per team in [`LaunchResult::team_outcomes`], not here).
#[derive(Debug)]
pub enum SimError {
    Launch(LaunchError),
}

impl From<LaunchError> for SimError {
    fn from(e: LaunchError) -> Self {
        SimError::Launch(e)
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Launch(e) => write!(f, "launch failed: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

/// What one team's body produced.
#[derive(Debug, Clone, PartialEq)]
pub enum TeamOutcome {
    /// The team function returned this value (`__user_main`'s exit code).
    Return(i32),
    /// The team trapped (illegal access, failed allocation, …).
    Trap(KernelError),
}

/// A fault injected into one team by [`KernelSpec::fault_of_team`].
///
/// Injection is deterministic and purely additive: a spec without the hook
/// (or a hook that always returns `None`) runs the exact code path the
/// non-injected launch runs, so results stay bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub enum InjectedTeamFault {
    /// The team traps before running any application code, as if the
    /// device image hit an application-level error.
    Trap(String),
    /// The team traps with a device out-of-memory error for `requested`
    /// bytes, without actually disturbing the heap (the sibling teams see
    /// the same free space they would without injection).
    DeviceOom { requested: u64 },
    /// The team runs normally, then stalls for `stall_cycles` warp-visible
    /// cycles at the end — a hung instance for the watchdog to reap.
    Hang { stall_cycles: f64 },
}

/// Description of one kernel launch.
///
/// `team_fn` is invoked once per team; `teams_per_block` > 1 realizes the
/// paper's §3.1 packed `(N/M, M, 1)` mapping where several instances share
/// one thread block. `lanes_per_team` is the thread limit each team may
/// use. Each team's heap regions carry its team id as their tag (the
/// instance id under ensembles).
pub struct KernelSpec<'a> {
    pub name: &'a str,
    /// Number of teams to run.
    pub num_teams: u32,
    /// Teams packed into one thread block (1 = the paper's default).
    pub teams_per_block: u32,
    /// Usable threads per team.
    pub lanes_per_team: u32,
    /// Paper-scale footprint divided by materialized footprint (≥ 1).
    pub footprint_multiplier: f64,
    /// Host-RPC services with stubs; `None` = unrestricted.
    pub rpc_services: Option<Vec<u32>>,
    /// Deterministic fault injection: called once per team before the team
    /// body runs. `None` (the default) — and any hook returning `None` for
    /// every team — leaves the launch bit-identical to an uninjected one.
    pub fault_of_team: Option<&'a dyn Fn(u32) -> Option<InjectedTeamFault>>,
    /// Watchdog cycle budget per block (see `TimingInputs::cycle_budget`);
    /// teams of a block killed at the deadline trap with
    /// [`KernelError::Timeout`]. `None` disables the watchdog.
    pub cycle_budget: Option<f64>,
    /// Periodic utilization sampling interval in cycles
    /// ([`LaunchResult::timeline`]); see `TimingInputs::sample_interval`.
    /// `None` (the default) disables sampling and leaves every outcome
    /// bit-identical.
    pub sample_interval: Option<f64>,
    /// Pure-observation progress hook: invoked after each team finishes
    /// its functional execution with `(teams_done, num_teams)`. The hook
    /// sees copies of counters only and cannot influence the launch, so
    /// outcomes stay bit-identical whether or not it is set — the
    /// liveness signal wall-clock run monitors sample mid-kernel.
    pub on_team_done: Option<&'a dyn Fn(u32, u32)>,
}

impl<'a> KernelSpec<'a> {
    pub fn new(name: &'a str, num_teams: u32, lanes_per_team: u32) -> Self {
        Self {
            name,
            num_teams,
            teams_per_block: 1,
            lanes_per_team,
            footprint_multiplier: 1.0,
            rpc_services: None,
            fault_of_team: None,
            cycle_budget: None,
            sample_interval: None,
            on_team_done: None,
        }
    }
}

/// Per-team totals of the functional trace, always available in
/// [`LaunchResult::team_summaries`] (cheap: five numbers per team). Teams
/// are indexed by team id, so an ensemble launch reads instance `i`'s
/// work directly at index `i`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TeamSummary {
    pub insts: f64,
    pub useful_bytes: f64,
    pub moved_bytes: f64,
    pub sectors: u64,
    pub rpc_calls: u64,
}

/// Result of a completed launch. Every launch hands back the same shape:
/// traces, schedule and stalls are pure bookkeeping that never changes a
/// timing outcome, so there is nothing to switch off.
#[derive(Debug)]
pub struct LaunchResult {
    pub report: SimReport,
    pub team_outcomes: Vec<TeamOutcome>,
    /// The per-block segment traces the timing engine replayed — the raw
    /// material for per-phase performance analysis.
    pub block_traces: Vec<BlockTrace>,
    /// The scheduling timeline: block placement, phase spans and wave
    /// starts.
    pub schedule: ScheduleDetail,
    /// Stall-cycle attribution: kernel-wide and per-block exclusive
    /// buckets.
    pub stalls: StallAttribution,
    /// Periodic utilization samples, when [`KernelSpec::sample_interval`]
    /// was set.
    pub timeline: Option<UtilizationTimeline>,
    /// Per-team work totals, indexed by team id. Always present.
    pub team_summaries: Vec<TeamSummary>,
}

/// The simulated device: hardware spec, global memory, transfer engine and
/// timing parameters.
pub struct Gpu {
    pub spec: GpuSpec,
    pub mem: DeviceMemory,
    pub transfers: TransferEngine,
    pub timing: TimingParams,
}

impl Gpu {
    pub fn new(spec: GpuSpec) -> Self {
        let mem = DeviceMemory::new(spec.global_mem_bytes);
        let transfers = TransferEngine::new(spec.pcie_bandwidth_gbps, 10.0);
        Self {
            spec,
            mem,
            transfers,
            timing: TimingParams::default(),
        }
    }

    /// An A100-40GB device, the paper's configuration.
    pub fn a100() -> Self {
        Self::new(GpuSpec::a100_40gb())
    }

    /// Launch a kernel: run every team functionally, then replay the traces
    /// through the timing engine.
    ///
    /// `host_hook` (if any) is shared by all teams, mirroring the single
    /// host RPC endpoint of the direct-GPU-compilation framework.
    pub fn launch(
        &mut self,
        spec: &KernelSpec<'_>,
        mut host_hook: Option<&mut HostCallHook<'_>>,
        mut team_fn: impl FnMut(&mut TeamCtx<'_>) -> Result<i32, KernelError>,
    ) -> Result<LaunchResult, SimError> {
        assert!(spec.num_teams >= 1, "kernel needs at least one team");
        assert!(spec.teams_per_block >= 1);
        let num_blocks = spec.num_teams.div_ceil(spec.teams_per_block);
        let threads_per_block = spec.lanes_per_team * spec.teams_per_block;
        let launch = LaunchConfig::linear(num_blocks, threads_per_block);
        launch.validate(&self.spec)?;
        let occ = occupancy(&self.spec, &launch)?;

        // ---- Functional execution, one team at a time. ----
        let mut block_traces: Vec<BlockTrace> =
            (0..num_blocks).map(|_| BlockTrace::default()).collect();
        let mut outcomes = Vec::with_capacity(spec.num_teams as usize);
        let mut max_shared = 0u64;
        // Lane buffers pass from each team to the next, so later teams
        // reuse their capacity instead of growing them from empty.
        let mut lanes = Vec::new();
        for team in 0..spec.num_teams {
            let injected = spec.fault_of_team.and_then(|f| f(team));
            let free_bytes = match injected {
                Some(InjectedTeamFault::DeviceOom { .. }) => self.mem.free_bytes(),
                _ => 0,
            };
            let mut ctx = TeamCtx::with_lanes(
                &mut self.mem,
                team,
                spec.num_teams,
                spec.lanes_per_team,
                self.spec.shared_mem_per_block,
                std::mem::take(&mut lanes),
            );
            if let Some(hook) = host_hook.as_deref_mut() {
                ctx.set_host_call(hook, spec.rpc_services.clone());
            }
            let outcome = match injected {
                // Trap-class faults fire before any application code, so
                // the team does no work and disturbs no shared state.
                Some(InjectedTeamFault::Trap(ref msg)) => {
                    TeamOutcome::Trap(KernelError::App(format!("injected fault: {msg}")))
                }
                Some(InjectedTeamFault::DeviceOom { requested }) => {
                    TeamOutcome::Trap(KernelError::Alloc(AllocError::OutOfMemory {
                        requested,
                        free: free_bytes,
                    }))
                }
                _ => match team_fn(&mut ctx) {
                    Ok(code) => TeamOutcome::Return(code),
                    Err(e) => TeamOutcome::Trap(e),
                },
            };
            max_shared = max_shared.max(ctx.shared_bytes_used());
            let (mut trace, used) = ctx.finish_with_lanes();
            lanes = used;
            if let Some(InjectedTeamFault::Hang { stall_cycles }) = injected {
                // The hang is an extra barrier-delimited phase whose only
                // content is injected latency on warp 0; every sibling warp
                // waits at the barrier, so the whole team stalls.
                let mut warps = vec![MixedSeg::default(); trace.warp_count.max(1) as usize];
                warps[0].stall_cycles = stall_cycles;
                trace.phases.push(Phase {
                    warps,
                    label: "injected:hang".into(),
                });
            }
            let block = (team / spec.teams_per_block) as usize;
            block_traces[block].teams.push(trace);
            outcomes.push(outcome);
            if let Some(hook) = spec.on_team_done {
                hook(team + 1, spec.num_teams);
            }
        }
        for b in &mut block_traces {
            b.shared_mem_bytes = max_shared;
        }

        // ---- Timing. ----
        let mut timing = simulate_timing(&TimingInputs {
            spec: &self.spec,
            blocks: &block_traces,
            params: &self.timing,
            footprint_multiplier: spec.footprint_multiplier,
            collect_detail: true,
            collect_stalls: true,
            cycle_budget: spec.cycle_budget,
            sample_interval: spec.sample_interval,
        });
        let schedule = timing.detail.take().expect("detail was requested");
        let stalls = timing.stalls.take().expect("stalls were requested");
        let timeline = timing.timeline.take();

        // Teams reaped by the watchdog trap with `Timeout`, whatever their
        // functional outcome was — the simulated hardware killed them
        // before they could commit a result.
        for &(bi, ti) in &timing.timed_out_teams {
            let team = bi * spec.teams_per_block + ti;
            if let Some(o) = outcomes.get_mut(team as usize) {
                *o = TeamOutcome::Trap(KernelError::Timeout {
                    budget_cycles: spec.cycle_budget.unwrap_or(0.0),
                });
            }
        }

        // ---- Roll up the report. ----
        // Teams were pushed into blocks in team-id order, so iterating
        // blocks then teams visits team ids 0..num_teams in order.
        let mut team_summaries = Vec::with_capacity(spec.num_teams as usize);
        let mut total_insts = 0.0;
        let mut total_sectors = 0u64;
        let mut useful = 0.0;
        let mut moved = 0.0;
        let mut rpc = 0u64;
        for b in &block_traces {
            for t in &b.teams {
                let s = TeamSummary {
                    insts: t.total_insts(),
                    useful_bytes: t.total_useful_bytes(),
                    moved_bytes: t.total_moved_bytes(),
                    sectors: t.total_sectors(),
                    rpc_calls: t.total_rpc_calls(),
                };
                total_insts += s.insts;
                total_sectors += s.sectors;
                useful += s.useful_bytes;
                moved += s.moved_bytes;
                rpc += s.rpc_calls;
                team_summaries.push(s);
            }
        }
        let launch_overhead_s = self.spec.launch_overhead_us * 1e-6;
        let report = SimReport {
            kernel_name: spec.name.to_string(),
            kernel_cycles: timing.cycles,
            sim_time_s: launch_overhead_s + self.spec.cycles_to_seconds(timing.cycles),
            blocks: num_blocks,
            threads_per_block,
            waves: timing.waves,
            occupancy: occ.occupancy,
            total_insts,
            total_sectors,
            useful_bytes: useful,
            moved_bytes: moved,
            coalescing_efficiency: if moved > 0.0 { useful / moved } else { 1.0 },
            l2_hit: timing.l2_hit,
            dram_efficiency: timing.dram_efficiency,
            active_region_tags: timing.active_region_tags,
            issue_utilization: timing.issue_utilization,
            dram_utilization: timing.dram_utilization,
            rpc_calls: rpc,
            block_end_cycles: timing.block_end_cycles,
        };
        Ok(LaunchResult {
            report,
            team_outcomes: outcomes,
            block_traces,
            schedule,
            stalls,
            timeline,
            team_summaries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A memory-streaming team body: read `n` f64s, accumulate, write one.
    fn streaming_body(n: u64) -> impl FnMut(&mut TeamCtx<'_>) -> Result<i32, KernelError> {
        move |ctx| {
            let (src, dst) = ctx.serial("alloc", |lane| {
                let src = lane.dev_alloc(8 * n)?;
                let dst = lane.dev_alloc(8)?;
                Ok((src, dst))
            })?;
            let sum = ctx.parallel_for_reduce_f64("sum", n, |i, lane| {
                lane.work(2.0);
                lane.ld_idx::<f64>(src, i)
            })?;
            ctx.serial("store", |lane| lane.st::<f64>(dst, sum))?;
            Ok(0)
        }
    }

    #[test]
    fn launch_single_team_returns_code() {
        let mut gpu = Gpu::a100();
        let spec = KernelSpec::new("unit", 1, 32);
        let res = gpu
            .launch(&spec, None, |ctx| {
                ctx.serial("noop", |lane| {
                    lane.work(10.0);
                    Ok(())
                })?;
                Ok(7)
            })
            .unwrap();
        assert_eq!(res.team_outcomes, vec![TeamOutcome::Return(7)]);
        assert!(res.report.sim_time_s > 0.0);
        assert_eq!(res.report.blocks, 1);
    }

    #[test]
    fn team_progress_hook_streams_without_perturbing_the_launch() {
        let body = |ctx: &mut TeamCtx<'_>| {
            ctx.serial("work", |lane| {
                lane.work(100.0);
                Ok(())
            })?;
            Ok(0)
        };
        let mut plain_gpu = Gpu::a100();
        let plain = plain_gpu
            .launch(&KernelSpec::new("prog", 3, 32), None, body)
            .unwrap();

        let seen = std::cell::RefCell::new(Vec::new());
        let hook = |done: u32, total: u32| seen.borrow_mut().push((done, total));
        let mut hooked_gpu = Gpu::a100();
        let mut spec = KernelSpec::new("prog", 3, 32);
        spec.on_team_done = Some(&hook);
        let hooked = hooked_gpu.launch(&spec, None, body).unwrap();

        // One callback per team, in execution order, with the right total.
        assert_eq!(*seen.borrow(), vec![(1, 3), (2, 3), (3, 3)]);
        // Observation only: the hooked launch is bit-identical.
        assert_eq!(hooked.report.sim_time_s, plain.report.sim_time_s);
        assert_eq!(hooked.report.kernel_cycles, plain.report.kernel_cycles);
        assert_eq!(hooked.team_outcomes, plain.team_outcomes);
    }

    #[test]
    fn ensemble_teams_get_distinct_tags() {
        let mut gpu = Gpu::a100();
        let spec = KernelSpec::new("tags", 4, 32);
        let mut seen = Vec::new();
        gpu.launch(&spec, None, |ctx| {
            ctx.serial("tag", |lane| {
                seen.push(lane.tag());
                Ok(())
            })?;
            Ok(0)
        })
        .unwrap();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn streaming_ensemble_is_sublinear_in_time() {
        // Core paper mechanism: N instances in one launch take less than
        // N× the single-instance time, but more than 1× (contention).
        let t_of = |teams: u32| {
            let mut gpu = Gpu::a100();
            let spec = KernelSpec::new("stream", teams, 32);
            let res = gpu.launch(&spec, None, streaming_body(20_000)).unwrap();
            res.report.sim_time_s
        };
        let t1 = t_of(1);
        let t16 = t_of(16);
        assert!(t16 < t1 * 16.0, "t16 {t16} should be < 16×t1 {t1}");
        assert!(
            t16 >= t1 * 0.99,
            "t16 {t16} must not be faster than t1 {t1}"
        );
        let speedup = t1 * 16.0 / t16;
        assert!(speedup > 4.0, "ensemble speedup too small: {speedup}");
    }

    #[test]
    fn trap_is_reported_not_fatal() {
        let mut gpu = Gpu::a100();
        let spec = KernelSpec::new("trap", 2, 32);
        let res = gpu
            .launch(&spec, None, |ctx| {
                if ctx.team_id() == 1 {
                    return Err(KernelError::App("boom".into()));
                }
                Ok(0)
            })
            .unwrap();
        assert_eq!(res.team_outcomes[0], TeamOutcome::Return(0));
        assert!(matches!(res.team_outcomes[1], TeamOutcome::Trap(_)));
    }

    #[test]
    fn packed_mapping_reduces_blocks() {
        let mut gpu = Gpu::a100();
        let mut spec = KernelSpec::new("packed", 8, 32);
        spec.teams_per_block = 4;
        let res = gpu.launch(&spec, None, |_| Ok(0)).unwrap();
        assert_eq!(res.report.blocks, 2);
        assert_eq!(res.report.threads_per_block, 128);
        assert_eq!(res.team_outcomes.len(), 8);
    }

    #[test]
    fn oversized_launch_rejected() {
        let mut gpu = Gpu::a100();
        let spec = KernelSpec::new("big", 1, 2048);
        assert!(matches!(
            gpu.launch(&spec, None, |_| Ok(0)),
            Err(SimError::Launch(_))
        ));
    }

    #[test]
    fn launch_hands_back_its_traces() {
        let mut gpu = Gpu::a100();
        let spec = KernelSpec::new("traces", 2, 32);
        let body = |ctx: &mut TeamCtx<'_>| {
            ctx.serial("w", |lane| {
                lane.work(10.0);
                Ok(())
            })?;
            Ok(0)
        };
        let res = gpu.launch(&spec, None, body).unwrap();
        let traces = res.block_traces;
        assert_eq!(traces.len(), 2);
        assert!(traces[0].teams[0].phases.len() >= 2); // prologue + serial
    }

    #[test]
    fn team_summaries_and_schedule_expose_per_instance_work() {
        let mut gpu = Gpu::a100();
        let spec = KernelSpec::new("obs", 4, 32);
        let res = gpu.launch(&spec, None, streaming_body(10_000)).unwrap();
        assert_eq!(res.team_summaries.len(), 4);
        for s in &res.team_summaries {
            assert!(s.insts > 0.0);
            assert!(s.moved_bytes > 0.0);
        }
        let total: f64 = res.team_summaries.iter().map(|s| s.insts).sum();
        assert!((total - res.report.total_insts).abs() < 1e-6);
        assert_eq!(res.schedule.blocks.len(), 4);
        assert!(!res.schedule.phase_spans.is_empty());
    }

    #[test]
    fn stall_attribution_surfaces_per_block_buckets() {
        let mut gpu = Gpu::a100();
        let spec = KernelSpec::new("stalls", 4, 32);
        let res = gpu.launch(&spec, None, streaming_body(10_000)).unwrap();
        let st = res.stalls;
        assert_eq!(st.kernel.total(), res.report.kernel_cycles);
        assert_eq!(st.blocks.len(), res.report.blocks as usize);
        for (bi, b) in st.blocks.iter().enumerate() {
            assert_eq!(b.total(), res.report.block_end_cycles[bi]);
        }
    }

    #[test]
    fn injected_trap_and_oom_skip_team_body() {
        let mut gpu = Gpu::a100();
        let mut spec = KernelSpec::new("inject", 3, 32);
        let fault = |team: u32| match team {
            0 => Some(InjectedTeamFault::Trap("boom".into())),
            1 => Some(InjectedTeamFault::DeviceOom { requested: 9 << 30 }),
            _ => None,
        };
        spec.fault_of_team = Some(&fault);
        let mut body_ran = Vec::new();
        let res = gpu
            .launch(&spec, None, |ctx| {
                body_ran.push(ctx.team_id());
                Ok(0)
            })
            .unwrap();
        assert!(matches!(
            &res.team_outcomes[0],
            TeamOutcome::Trap(KernelError::App(m)) if m.contains("injected fault: boom")
        ));
        assert!(matches!(
            res.team_outcomes[1],
            TeamOutcome::Trap(KernelError::Alloc(AllocError::OutOfMemory {
                requested,
                ..
            })) if requested == 9 << 30
        ));
        assert_eq!(res.team_outcomes[2], TeamOutcome::Return(0));
        // Faulted teams never reached application code.
        assert_eq!(body_ran, vec![2]);
    }

    #[test]
    fn empty_fault_hook_is_bit_identical() {
        let run = |inject: bool| {
            let mut gpu = Gpu::a100();
            let mut spec = KernelSpec::new("ident", 4, 32);
            let none = |_: u32| None;
            if inject {
                spec.fault_of_team = Some(&none);
            }
            gpu.launch(&spec, None, streaming_body(10_000)).unwrap()
        };
        let plain = run(false);
        let injected = run(true);
        assert_eq!(plain.report, injected.report);
        assert_eq!(plain.team_outcomes, injected.team_outcomes);
        assert_eq!(plain.stalls, injected.stalls);
    }

    #[test]
    fn hung_team_is_reaped_by_watchdog() {
        let hang = |team: u32| {
            (team == 1).then_some(InjectedTeamFault::Hang {
                stall_cycles: 1_000_000.0,
            })
        };
        // Without a watchdog the hang dominates the kernel.
        let mut gpu = Gpu::a100();
        let mut spec = KernelSpec::new("hang", 2, 32);
        spec.fault_of_team = Some(&hang);
        let res = gpu.launch(&spec, None, streaming_body(1_000)).unwrap();
        assert!(res.report.kernel_cycles >= 1_000_000.0);
        assert_eq!(res.team_outcomes[1], TeamOutcome::Return(0));

        // With one, the hung team times out at the budget and its sibling
        // is untouched.
        spec.cycle_budget = Some(50_000.0);
        let res = gpu.launch(&spec, None, streaming_body(1_000)).unwrap();
        assert_eq!(res.team_outcomes[0], TeamOutcome::Return(0));
        assert_eq!(
            res.team_outcomes[1],
            TeamOutcome::Trap(KernelError::Timeout {
                budget_cycles: 50_000.0
            })
        );
        assert!(
            res.report.kernel_cycles < 100_000.0,
            "watchdog must cap the kernel: {} cycles",
            res.report.kernel_cycles
        );
    }

    #[test]
    fn generous_watchdog_budget_is_bit_identical() {
        let run = |budget: Option<f64>| {
            let mut gpu = Gpu::a100();
            let mut spec = KernelSpec::new("budget", 4, 32);
            spec.cycle_budget = budget;
            gpu.launch(&spec, None, streaming_body(10_000)).unwrap()
        };
        let plain = run(None);
        let budgeted = run(Some(1e12));
        assert_eq!(plain.report, budgeted.report);
        assert!(budgeted
            .team_outcomes
            .iter()
            .all(|o| matches!(o, TeamOutcome::Return(0))));
    }

    #[test]
    fn sampling_is_bit_identical_and_opt_in() {
        let run = |interval: Option<f64>| {
            let mut gpu = Gpu::a100();
            let mut spec = KernelSpec::new("sampled", 4, 32);
            spec.sample_interval = interval;
            gpu.launch(&spec, None, streaming_body(10_000)).unwrap()
        };
        let plain = run(None);
        let sampled = run(Some(1_000.0));
        assert!(plain.timeline.is_none());
        let tl = sampled.timeline.as_ref().expect("sample_interval set");
        assert!(!tl.samples.is_empty());
        // Sampling must not perturb the launch.
        assert_eq!(plain.report, sampled.report);
        assert_eq!(plain.team_outcomes, sampled.team_outcomes);
        assert_eq!(plain.stalls, sampled.stalls);
    }

    #[test]
    fn host_hook_reaches_teams() {
        let mut gpu = Gpu::a100();
        let spec = KernelSpec::new("rpc", 2, 32);
        let mut calls = 0u32;
        let mut hook = |_svc: u32, payload: &[u8]| -> Result<Vec<u8>, String> {
            calls += 1;
            Ok(payload.to_vec())
        };
        let res = gpu
            .launch(&spec, Some(&mut hook), |ctx| {
                ctx.serial("rpc", |lane| {
                    lane.host_call(0, b"x")?;
                    Ok(())
                })?;
                Ok(0)
            })
            .unwrap();
        assert_eq!(res.report.rpc_calls, 2);
        drop(res);
        assert_eq!(calls, 2);
    }
}
