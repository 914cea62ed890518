//! The \[27\] "GPU First" execution mode: multi-team expansion of a single
//! application instance — the baseline the ensemble paper positions itself
//! against.
//!
//! Where the original loader \[26\] runs the whole program in one team, the
//! extension work \[27\] *relaunches* each semantically-eligible parallel
//! region as its own kernel with many teams, so one instance can use the
//! whole device. This module reproduces that execution model on the
//! simulator:
//!
//! 1. the program executes functionally once, with
//!    `num_teams × thread_limit` logical lanes;
//! 2. each barrier-delimited phase becomes its own (simulated) kernel:
//!    serial phases run as one single-warp team, parallel phases split
//!    their warps across `num_teams` blocks;
//! 3. the instance's time is the sum of the phase kernels plus one launch
//!    overhead per kernel boundary — the relaunch cost that ensemble
//!    execution avoids.
//!
//! The compiler's [`dgc_compiler::ExpansionInfo`] gates the mode exactly as
//! \[27\] does: a program whose parallel regions are not order-independent
//! cannot be expanded (and ensemble execution is the remaining option —
//! the motivation of §3).

use crate::app::HostApp;
use crate::ensemble::EnsembleError;
use crate::stage::{compile_app, exit_status, host_call, Stage};
use dgc_compiler::CompilerOptions;
use gpu_sim::{
    simulate_timing, BlockTrace, MixedSeg, Phase, TeamCtx, TeamOutcome, TeamTrace, TimingInputs,
};
use host_rpc::{HostServices, RpcHost, RpcStats};

/// Why multi-team execution was refused.
#[derive(Debug)]
pub enum MultiTeamError {
    /// Loader-level failure (parse, compile, allocation).
    Loader(EnsembleError),
    /// The expansion analysis found order-dependent parallel regions, so
    /// OpenMP semantics forbid multiple teams (the paper's §3 case).
    NotEligible {
        parallel_regions: u32,
        expandable: u32,
    },
}

impl std::fmt::Display for MultiTeamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MultiTeamError::Loader(e) => write!(f, "{e}"),
            MultiTeamError::NotEligible {
                parallel_regions,
                expandable,
            } => write!(
                f,
                "multi-team expansion not allowed: only {expandable} of {parallel_regions} \
                 parallel regions are order-independent"
            ),
        }
    }
}

impl std::error::Error for MultiTeamError {}

impl From<EnsembleError> for MultiTeamError {
    fn from(e: EnsembleError) -> Self {
        MultiTeamError::Loader(e)
    }
}

/// Result of one multi-team run.
#[derive(Debug)]
pub struct MultiTeamResult {
    pub exit_code: Option<i32>,
    pub trap: Option<String>,
    pub stdout: String,
    /// Total simulated time: all phase kernels + per-kernel launch
    /// overhead + transfers.
    pub total_time_s: f64,
    /// Kernel-time component only (comparable to `EnsembleResult::kernel_time_s`).
    pub kernel_time_s: f64,
    /// How many kernel launches the region splitting produced.
    pub kernel_launches: u32,
    pub rpc_stats: RpcStats,
}

/// Run one instance of `app` under \[27\]-style multi-team expansion with
/// `num_teams` teams of `thread_limit` threads.
pub fn run_multi_team(
    gpu: &mut gpu_sim::Gpu,
    app: &HostApp,
    args: &[&str],
    num_teams: u32,
    thread_limit: u32,
    services: HostServices,
) -> Result<MultiTeamResult, MultiTeamError> {
    assert!(num_teams >= 1 && thread_limit >= 1);
    let image = compile_app(app, &CompilerOptions::default())?;
    if !image.expansion.multi_team_eligible {
        return Err(MultiTeamError::NotEligible {
            parallel_regions: image.expansion.parallel_regions,
            expandable: image.expansion.expandable_regions,
        });
    }
    let line: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut stage = Stage::map_argv(gpu, app, image, [line.as_slice()]);
    stage.alloc_globals(gpu)?;

    // ---- Functional execution with the expanded lane count. ----
    let mut host = RpcHost::new(services, None, None);
    let lanes = num_teams * thread_limit;
    let outcome;
    let trace: TeamTrace;
    {
        let mut hook = host_call(&mut host);
        let mut ctx = TeamCtx::new(&mut gpu.mem, 0, 1, lanes, gpu.spec.shared_mem_per_block);
        ctx.set_host_call(&mut hook, Some(stage.rpc_services()));
        outcome = match stage.enter_main(&mut ctx) {
            Ok(c) => TeamOutcome::Return(c),
            Err(e) => TeamOutcome::Trap(e),
        };
        trace = ctx.finish();
    }
    let services = stage.teardown(gpu, host);

    // ---- Phase-by-phase timing: one kernel per phase. ----
    let warps_per_team = thread_limit.div_ceil(32);
    let footprint = stage.footprint();
    let mut kernel_cycles = 0.0f64;
    let mut launches = 0u32;
    for phase in &trace.phases {
        let blocks = split_phase(phase, num_teams, warps_per_team);
        if blocks.is_empty() {
            continue;
        }
        launches += 1;
        let timing = simulate_timing(&TimingInputs {
            spec: &gpu.spec,
            blocks: &blocks,
            params: &gpu.timing,
            footprint_multiplier: footprint,
            collect_detail: false,
            collect_stalls: false,
            cycle_budget: None,
            sample_interval: None,
        });
        kernel_cycles += timing.cycles;
    }
    let kernel_time_s = gpu.spec.cycles_to_seconds(kernel_cycles);
    let overhead_s = launches as f64 * gpu.spec.launch_overhead_us * 1e-6;
    let transfer_seconds = stage.h2d_s + stage.copy_back(gpu);

    let (exit_code, trap) = exit_status(&services, 0, &outcome);
    Ok(MultiTeamResult {
        exit_code,
        trap: trap.map(|e| e.to_string()),
        stdout: services.stdout_of(0).to_string(),
        total_time_s: kernel_time_s + overhead_s + transfer_seconds,
        kernel_time_s: kernel_time_s + overhead_s,
        kernel_launches: launches,
        rpc_stats: services.stats(),
    })
}

/// Split one phase's warps into per-team blocks. Phases where only warp 0
/// works (the serial program parts) become a single one-warp kernel, as in
/// \[27\] where serial code stays on one team.
fn split_phase(phase: &Phase, num_teams: u32, warps_per_team: u32) -> Vec<BlockTrace> {
    let active: Vec<(usize, &MixedSeg)> = phase
        .warps
        .iter()
        .enumerate()
        .filter(|(_, w)| !w.is_empty())
        .collect();
    if active.is_empty() {
        return Vec::new();
    }
    let serial = active.len() == 1 && active[0].0 == 0;
    if serial {
        return vec![BlockTrace {
            teams: vec![TeamTrace {
                phases: vec![Phase {
                    warps: vec![active[0].1.clone()],
                    label: phase.label.clone(),
                }],
                warp_count: 1,
            }],
            shared_mem_bytes: 0,
        }];
    }
    // Parallel phase: warps [t·W, (t+1)·W) belong to team t.
    let mut blocks = Vec::new();
    for t in 0..num_teams {
        let lo = (t * warps_per_team) as usize;
        let hi = ((t + 1) * warps_per_team) as usize;
        let warps: Vec<MixedSeg> = phase
            .warps
            .get(lo..hi.min(phase.warps.len()))
            .unwrap_or(&[])
            .to_vec();
        if warps.iter().all(|w| w.is_empty()) {
            continue;
        }
        let warp_count = warps.len() as u32;
        blocks.push(BlockTrace {
            teams: vec![TeamTrace {
                phases: vec![Phase {
                    warps,
                    label: phase.label.clone(),
                }],
                warp_count,
            }],
            shared_mem_bytes: 0,
        });
    }
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::AppContext;
    use crate::ensemble::{run_ensemble, EnsembleOptions};
    use device_libc::dl_printf;
    use gpu_sim::{Gpu, KernelError};

    const MODULE: &str = r#"
module "mt" {
  func @main arity=2 calls(@printf, @kernel)
  func @kernel arity=1 !parallel(1) !order_independent
  extern func @printf variadic
}
"#;

    const MODULE_INELIGIBLE: &str = r#"
module "mtx" {
  func @main arity=2 calls(@printf, @kernel)
  func @kernel arity=1 !parallel(1)
  extern func @printf variadic
}
"#;

    fn stream_main(team: &mut TeamCtx<'_>, cx: &AppContext) -> Result<i32, KernelError> {
        let n: u64 = cx.argv.get(1).and_then(|v| v.parse().ok()).unwrap_or(4000);
        let buf = team.serial("alloc", |lane| lane.dev_alloc(8 * n))?;
        team.parallel_for("fill", n, |i, lane| {
            lane.work(4.0);
            lane.st_idx::<f64>(buf, i, i as f64)
        })?;
        let sum = team.parallel_for_reduce_f64("sum", n, |i, lane| lane.ld_idx::<f64>(buf, i))?;
        team.serial("print", |lane| {
            dl_printf(lane, "sum %.1f\n", &[sum.into()])?;
            Ok(())
        })?;
        Ok(0)
    }

    fn app() -> HostApp {
        HostApp::new("mt", MODULE, stream_main)
    }

    #[test]
    fn multi_team_runs_and_matches_single_team_results() {
        let mut gpu = Gpu::a100();
        let res = run_multi_team(
            &mut gpu,
            &app(),
            &["20000"],
            8,
            128,
            HostServices::default(),
        )
        .unwrap();
        assert_eq!(res.exit_code, Some(0), "trap: {:?}", res.trap);
        let expected: f64 = (0..20000).map(|i| i as f64).sum();
        assert_eq!(res.stdout, format!("sum {expected:.1}\n"));
        assert!(res.kernel_launches >= 3); // alloc/serial, fill, sum, print
        assert_eq!(gpu.mem.stats().live_allocations, 0);
    }

    #[test]
    fn more_teams_speed_up_parallel_regions() {
        let time = |teams: u32| {
            let mut gpu = Gpu::a100();
            run_multi_team(
                &mut gpu,
                &app(),
                &["60000"],
                teams,
                128,
                HostServices::default(),
            )
            .unwrap()
            .kernel_time_s
        };
        let t1 = time(1);
        let t8 = time(8);
        assert!(t8 < t1, "8 teams ({t8:.2e}) should beat 1 team ({t1:.2e})");
    }

    #[test]
    fn ineligible_programs_are_refused() {
        let a = HostApp::new("mtx", MODULE_INELIGIBLE, stream_main);
        let mut gpu = Gpu::a100();
        let err = run_multi_team(&mut gpu, &a, &[], 8, 128, HostServices::default()).unwrap_err();
        assert!(matches!(err, MultiTeamError::NotEligible { .. }));
        assert_eq!(gpu.mem.stats().live_allocations, 0);
    }

    #[test]
    fn ensemble_beats_multi_team_on_independent_inputs() {
        // The paper's core argument: for N independent inputs, one ensemble
        // kernel beats N sequential multi-team runs (relaunch overhead and
        // imperfect region parallelism vs. N fully parallel teams).
        let n = 8u32;
        let mut gpu = Gpu::a100();
        let mt_total: f64 = (0..n)
            .map(|_| {
                run_multi_team(&mut gpu, &app(), &["4000"], 8, 128, HostServices::default())
                    .unwrap()
                    .kernel_time_s
            })
            .sum();
        let opts = EnsembleOptions {
            cycle_args: true,
            num_instances: n,
            thread_limit: 128,
            ..Default::default()
        };
        let ens = run_ensemble(
            &mut gpu,
            &app(),
            &[vec!["4000".to_string()]],
            &opts,
            HostServices::default(),
        )
        .unwrap();
        assert!(ens.all_succeeded());
        assert!(
            ens.kernel_time_s < mt_total,
            "ensemble {:.3e}s should beat {} sequential multi-team runs {:.3e}s",
            ens.kernel_time_s,
            n,
            mt_total
        );
    }
}
