//! The ensemble executor: rounds × live devices × capacity-capped chunks.
//!
//! Every multi-launch run goes through [`run_ensemble_sharded_resilient_mem_aware`]:
//! batched ensembles, recovery rounds, multi-device shards and
//! memory-aware packing are configurations of one loop over
//! [`run_ensemble_injected`], with one per-slot merge. A run without
//! recovery passes an empty [`FaultPlan`] and `max_attempts: 1`.
//!
//! Each recovery round places the pending instances over the devices
//! still alive; each device runs its shard in chunks of the current
//! batch (capped by device capacity in memory-aware mode). Instances on
//! a device that dies mid-round ([`crate::DeviceDeath`]) fail with a
//! `device <d> died` trap and re-shard onto the survivors next round — a
//! device death never consumes the instance's own retry budget, because
//! the instance never ran. Lanes run one after another on the caller's
//! thread.
//!
//! Two conventions follow from how the span graph replays time:
//!
//! * **One device with no device deaths** is a sequential timeline:
//!   chunks record into the caller's [`Recorder`], push sequential graph
//!   nodes, add their totals to `total_time_s` in turn and offset
//!   instance end times by the kernel time accumulated before the chunk;
//!   failed instances get `instance <g> failed` recovery markers.
//! * **Any other fleet** runs concurrent lanes per round: per-device
//!   recorders merge into the caller's under `dev<d> ` lane groups, each
//!   lane is a concurrent graph node folded from zero and the round adds
//!   its makespan; end times are offset by the round start plus the
//!   lane's elapsed time, and `kernel_time_s` sums the lanes.

use crate::plan::FaultPlan;
use crate::policy::{skipped_metrics, RecoveryPolicy, RecoveryStats};
use dgc_core::{
    ensure_arg_capacity, run_ensemble_injected, EnsembleError, EnsembleOptions, EnsembleResult,
    HeapUsage, HostApp, InstanceOutcome, LaunchFaults,
};
use dgc_obs::{
    DeviceStamped, InstanceMetrics, LaunchMetrics, LaunchTimeline, Recorder, SpanGraph,
    DEVICE_PID_STRIDE, PID_HOST,
};
use dgc_sched::{mem_cap_take, InstanceCosts, Placement};
use gpu_sim::{DeviceFleet, SimReport};
use host_rpc::{HostServices, RpcStats};
use serde::Value;

/// Result of an ensemble run: the merged ensemble result, the recovery
/// story, and the fleet's fate.
#[derive(Debug)]
pub struct ShardedResilientResult {
    /// Final outcome per instance, in global instance order.
    /// `total_time_s` is the sum over rounds of each round's makespan
    /// plus backoff — the wall time a multi-device recovery actually
    /// takes.
    pub ensemble: EnsembleResult,
    pub recovery: RecoveryStats,
    pub devices: u32,
    pub placement: Placement,
    /// Devices that died during the run, in death order.
    pub dead_devices: Vec<u32>,
    /// Cumulative busy time per device across all rounds, seconds.
    pub per_device_time_s: Vec<f64>,
    kernel: String,
}

impl ShardedResilientResult {
    pub fn all_succeeded(&self) -> bool {
        self.ensemble.all_succeeded()
    }

    /// Launch rollup with both the recovery (schema-v3) and the
    /// multi-device (schema-v4) fields filled in. `failed`/`oom` count
    /// failures cumulatively across attempts; `unrecovered` is what
    /// survived recovery.
    pub fn launch_metrics(&self) -> LaunchMetrics {
        let mut lm = self.ensemble.launch_metrics();
        lm.kernel = self.kernel.clone();
        lm.devices = self.devices;
        lm.makespan_s = self.ensemble.total_time_s;
        lm.failed = self.recovery.failures;
        lm.oom = self.recovery.oom_failures;
        lm.attempts = self.recovery.attempts;
        lm.retried = self.recovery.retried;
        lm.recovered = self.recovery.recovered;
        lm.unrecovered = self.recovery.unrecovered;
        lm.oom_splits = self.recovery.oom_splits;
        lm.final_batch = self.recovery.final_batch;
        lm.backoff_s = self.recovery.backoff_s;
        lm
    }
}

/// Run an ensemble across `fleet` with fault injection, per-instance
/// recovery, device-death re-sharding and optional memory-aware packing.
///
/// `batch` bounds the concurrent instances per kernel (`0` = all
/// pending). Failed instances are retried in follow-up rounds, up to
/// [`RecoveryPolicy::max_attempts`] launches each, with (optionally
/// jittered) exponential backoff between rounds; after a round with
/// device OOMs the batch halves ([`RecoveryPolicy::oom_split`]), and
/// [`RecoveryPolicy::fail_fast`] abandons all remaining work once one
/// instance exhausts its attempts. Instances that exit non-zero are
/// *not* retried — a deterministic application result is not a fault.
/// If every device is dead while instances remain, the remainder is
/// marked unrecovered. An empty fleet or a policy of zero attempts is
/// refused before anything launches ([`EnsembleError::EmptyFleet`],
/// [`EnsembleError::NoAttempts`]).
///
/// Pilot runs ([`InstanceCosts::estimate`], once, on device 0's spec)
/// happen only in memory-aware mode or when a fleet of several devices
/// is placed by `greedy`/`lpt`. With `mem_aware` on, every device heap
/// switches to the per-team free-list allocator, placement refuses
/// shards whose summed pilot peaks overflow a device
/// ([`Placement::assign_mem_aware`]) and each chunk is capped at the
/// longest prefix that fits ([`mem_cap_take`]); the OOM-halving backstop
/// stays armed for footprints the pilots under-predicted.
#[allow(clippy::too_many_arguments)]
pub fn run_ensemble_sharded_resilient_mem_aware(
    fleet: &mut DeviceFleet,
    app: &HostApp,
    arg_lines: &[Vec<String>],
    opts: &EnsembleOptions,
    batch: u32,
    placement: Placement,
    plan: &FaultPlan,
    policy: &RecoveryPolicy,
    obs: &mut Recorder,
    mem_aware: bool,
) -> Result<ShardedResilientResult, EnsembleError> {
    if fleet.is_empty() {
        return Err(EnsembleError::EmptyFleet);
    }
    if policy.max_attempts == 0 {
        return Err(EnsembleError::NoAttempts);
    }
    let m = fleet.len();
    let n = opts.num_instances.max(1);
    ensure_arg_capacity(arg_lines, n, opts.cycle_args)?;
    let no_deaths = plan.device_deaths.as_deref().unwrap_or_default().is_empty();
    let sequential = m == 1 && no_deaths;
    if mem_aware {
        for d in 0..m {
            fleet.gpu_mut(d).mem.set_free_lists(true);
        }
    }
    // Resolve cycling up front: line `g` belongs to instance `g` no
    // matter which device or chunk it lands in.
    let lines_of: Vec<Vec<String>> = (0..n)
        .map(|i| arg_lines[i as usize % arg_lines.len()].clone())
        .collect();
    let costs = if mem_aware || (m > 1 && placement.needs_costs()) {
        Some(InstanceCosts::estimate(
            app,
            &lines_of,
            opts,
            fleet.spec(0),
        )?)
    } else {
        None
    };
    let caps_all: Vec<u64> = (0..m).map(|d| fleet.spec(d).global_mem_bytes).collect();

    let mut current_batch = if batch == 0 { n } else { batch.min(n) };
    let mut slot_outcome: Vec<Option<InstanceOutcome>> = vec![None; n as usize];
    let mut slot_stdout: Vec<String> = vec![String::new(); n as usize];
    let mut slot_end: Vec<f64> = vec![0.0; n as usize];
    let mut slot_metrics: Vec<Option<InstanceMetrics>> = vec![None; n as usize];
    let mut failed_once = vec![false; n as usize];
    let mut was_retried = vec![false; n as usize];

    let mut stats = RecoveryStats::default();
    let mut kernel_time_s = 0.0f64;
    let mut total_time_s = 0.0f64;
    let mut per_device_time_s = vec![0.0f64; m];
    let mut dead_devices: Vec<u32> = Vec::new();
    let mut rpc_stats = RpcStats::default();
    let mut timeline = LaunchTimeline::default();
    let mut graph = SpanGraph::default();
    let mut heap = HeapUsage {
        peak_bytes: vec![0; m],
        ..Default::default()
    };
    let mut last_report = None;
    let base_us = obs.base_us();
    let traced = obs.is_enabled();
    // Driver-level monitor events (retries, recoveries, OOM splits,
    // backoff, deaths) layer on top of the per-launch events the engine
    // streams through the same sink; fleet lanes re-stamp them with the
    // device ordinal via [`DeviceStamped`]. Pure observation.
    let monitor = obs.monitor().cloned();

    let mut pending: Vec<u32> = (0..n).collect();
    let mut attempt = 0u32;
    let mut aborted = false;

    while !pending.is_empty() && !aborted {
        stats.attempts = attempt + 1;
        if attempt > 0 {
            // Exponential backoff in simulated time before the round.
            // Under the opt-in jitter each pending instance runs its own
            // de-synchronized timer; the shared retry launch fires when
            // the last of them does, so the round waits for the max.
            let wait = pending
                .iter()
                .map(|&g| policy.backoff_wait_jittered_s(attempt, g))
                .fold(0.0, f64::max);
            total_time_s += wait;
            stats.backoff_s += wait;
            if let Some(m) = &monitor {
                m.backoff_wait(wait);
            }
            graph.push_backoff(attempt, wait);
            obs.set_base_us(base_us);
            obs.instant_args(
                PID_HOST,
                0,
                &format!("retry round {attempt}"),
                "recovery",
                total_time_s * 1e6,
                vec![
                    ("instances".into(), Value::U64(pending.len() as u64)),
                    ("backoff_s".into(), Value::F64(wait)),
                ],
            );
        }

        // Devices that died in an earlier round are out of the draw;
        // ones that die *this* round still get placed — the death is
        // discovered mid-round, exactly like real hardware.
        let live: Vec<usize> = (0..m)
            .filter(|&d| !plan.device_dead_before(d as u32, attempt))
            .collect();
        if live.is_empty() {
            for &g in &pending {
                slot_outcome[g as usize] = Some(InstanceOutcome {
                    exit_code: None,
                    error: Some("no live devices left in the fleet".into()),
                    oom: false,
                    timed_out: false,
                });
                slot_end[g as usize] = total_time_s;
                if slot_metrics[g as usize].is_none() {
                    slot_metrics[g as usize] = Some(skipped_metrics(g, total_time_s));
                }
            }
            pending.clear();
            break;
        }

        // Memory caps only bind in memory-aware mode; an empty slice
        // keeps the memory-blind assignment.
        let caps_live: Vec<u64> = if mem_aware {
            live.iter().map(|&d| caps_all[d]).collect()
        } else {
            Vec::new()
        };
        let assignment = match &costs {
            Some(c) => placement.assign_mem_aware(
                pending.len() as u32,
                live.len(),
                |j, k| c.cost_on(pending[j as usize], fleet.spec(live[k])),
                |j| c.peak_mem_bytes(pending[j as usize]),
                &caps_live,
            ),
            None => placement.assign(pending.len() as u32, live.len(), |_, _| 0.0),
        };

        let mut next_pending: Vec<u32> = Vec::new();
        let mut skipped: Vec<u32> = Vec::new();
        let mut round_oom = false;
        let mut round_makespan = 0.0f64;

        for (k, shard_idx) in assignment.iter().enumerate() {
            let d = live[k];
            let shard: Vec<u32> = shard_idx.iter().map(|&j| pending[j as usize]).collect();
            if aborted {
                skipped.extend(&shard);
                continue;
            }

            if plan.device_dies_at(d as u32, attempt) {
                // The whole device is gone mid-round: every placed
                // instance fails without running and re-queues. No retry
                // budget is spent — the instance never launched.
                if !dead_devices.contains(&(d as u32)) {
                    dead_devices.push(d as u32);
                }
                if let Some(m) = &monitor {
                    m.device_dead(d as u32);
                }
                obs.set_base_us(base_us);
                obs.instant_args(
                    PID_HOST,
                    0,
                    &format!("device {d} died"),
                    "recovery",
                    total_time_s * 1e6,
                    vec![("instances".into(), Value::U64(shard.len() as u64))],
                );
                for &g in &shard {
                    stats.failures += 1;
                    failed_once[g as usize] = true;
                    was_retried[g as usize] = true;
                    slot_outcome[g as usize] = Some(InstanceOutcome {
                        exit_code: None,
                        error: Some(format!("device {d} died")),
                        oom: false,
                        timed_out: false,
                    });
                    slot_end[g as usize] = total_time_s;
                    if slot_metrics[g as usize].is_none() {
                        slot_metrics[g as usize] = Some(skipped_metrics(g, total_time_s));
                    }
                    if let Some(m) = &monitor {
                        m.retry_scheduled(d as u32);
                    }
                    next_pending.push(g);
                }
                continue;
            }
            if shard.is_empty() {
                continue;
            }

            // A sequential run records straight into the caller's
            // recorder; a fleet lane records privately and merges below.
            let mut lane_obs = (!sequential).then(|| {
                let mut rec = if traced {
                    Recorder::enabled()
                } else {
                    Recorder::disabled()
                };
                if let Some(m) = &monitor {
                    rec.set_monitor(DeviceStamped::stamp(m.clone(), d as u32));
                }
                rec
            });
            let rec = match lane_obs.as_mut() {
                Some(lane) => lane,
                None => &mut *obs,
            };
            let mut lane_elapsed = 0.0f64;
            let mut lane_kernel = 0.0f64;
            let mut qi = 0usize;
            while qi < shard.len() && !aborted {
                let want = (current_batch as usize).min(shard.len() - qi);
                let take = match &costs {
                    Some(c) if mem_aware => {
                        let peaks: Vec<u64> = shard[qi..qi + want]
                            .iter()
                            .map(|&g| c.peak_mem_bytes(g))
                            .collect();
                        mem_cap_take(&peaks, caps_all[d], want)
                    }
                    _ => want,
                };
                let chunk: Vec<u32> = shard[qi..qi + take].to_vec();
                qi += chunk.len();
                let count = chunk.len() as u32;
                let chunk_lines: Vec<Vec<String>> = chunk
                    .iter()
                    .map(|&g| lines_of[g as usize].clone())
                    .collect();
                let chunk_opts = EnsembleOptions {
                    num_instances: count,
                    ..opts.clone()
                };
                let team_fault = |team: u32| plan.fault_for(chunk[team as usize], attempt, count);
                let faults = LaunchFaults {
                    team_fault: if plan.is_empty() {
                        None
                    } else {
                        Some(&team_fault)
                    },
                    rpc_fault: plan.rpc_hook(attempt, &chunk),
                    cycle_budget: policy.instance_cycle_budget,
                };
                // Where the chunk starts on the run's timeline, and the
                // offset its instance end times take.
                let (start_s, end_offset_s) = if sequential {
                    (total_time_s, kernel_time_s)
                } else {
                    let start_s = total_time_s + lane_elapsed;
                    (start_s, start_s)
                };
                rec.set_base_us(base_us + start_s * 1e6);
                let res = run_ensemble_injected(
                    fleet.gpu_mut(d),
                    app,
                    &chunk_lines,
                    &chunk_opts,
                    HostServices::default(),
                    rec,
                    faults,
                )?;

                for (li, &g) in chunk.iter().enumerate() {
                    slot_end[g as usize] = end_offset_s + res.instance_end_times_s[li];
                }
                for (li, mut mi) in res.metrics.into_iter().enumerate() {
                    let g = chunk[li];
                    mi.instance = g;
                    mi.end_time_s += end_offset_s;
                    mi.attempt = attempt;
                    mi.device = d as u32;
                    slot_metrics[g as usize] = Some(mi);
                }
                let mut chunk_failures = Vec::new();
                for (li, out) in res.instances.iter().enumerate() {
                    let g = chunk[li];
                    let failed = !out.succeeded();
                    if failed {
                        stats.failures += 1;
                        failed_once[g as usize] = true;
                    }
                    if out.oom {
                        stats.oom_failures += 1;
                        round_oom = true;
                    }
                    if out.timed_out {
                        stats.timeouts += 1;
                    }
                    if !failed && failed_once[g as usize] {
                        stats.recovered += 1;
                        if let Some(m) = &monitor {
                            m.instance_recovered(d as u32);
                        }
                    }
                    slot_outcome[g as usize] = Some(out.clone());
                    if out.error.is_some() {
                        chunk_failures.push(g);
                        if attempt + 1 < policy.max_attempts {
                            next_pending.push(g);
                            was_retried[g as usize] = true;
                            if let Some(m) = &monitor {
                                m.retry_scheduled(d as u32);
                            }
                        } else if policy.fail_fast {
                            aborted = true;
                        }
                    }
                }
                for (li, s) in res.stdout.into_iter().enumerate() {
                    slot_stdout[chunk[li] as usize] = s;
                }
                // The chunk's utilization series and span graph land on
                // the run's timeline in lockstep with the recorder base
                // shift above, renumbered to global instance ids.
                let mut chunk_tl = res.timeline;
                chunk_tl.shift_us(start_s * 1e6);
                let mut chunk_graph = res.graph;
                chunk_graph.stamp_round(attempt);
                if !sequential {
                    chunk_tl.set_device(d as u32);
                    chunk_graph.stamp_device(d as u32, true);
                }
                chunk_graph.shift_start_s(start_s);
                chunk_graph.remap_instances(&chunk);
                timeline.merge(chunk_tl);
                graph.merge(chunk_graph);
                if sequential {
                    kernel_time_s += res.kernel_time_s;
                    total_time_s += res.total_time_s;
                } else {
                    lane_elapsed += res.total_time_s;
                    lane_kernel += res.kernel_time_s;
                }
                rpc_stats.merge(&res.rpc_stats);
                let chunk_peak = res.heap.peak_bytes.iter().copied().max().unwrap_or(0);
                heap.peak_bytes[d] = heap.peak_bytes[d].max(chunk_peak);
                heap.fragmentation = heap.fragmentation.max(res.heap.fragmentation);
                heap.alloc_fallbacks += res.heap.alloc_fallbacks;
                last_report = Some(res.report);

                // Recovery markers on a sequential timeline, only when
                // something actually failed.
                if sequential && !chunk_failures.is_empty() && traced {
                    rec.set_base_us(base_us);
                    for &g in &chunk_failures {
                        rec.instant_args(
                            PID_HOST,
                            0,
                            &format!("instance {g} failed"),
                            "recovery",
                            total_time_s * 1e6,
                            vec![("attempt".into(), Value::U64(attempt as u64))],
                        );
                    }
                }
            }
            skipped.extend(&shard[qi..]);
            if let Some(lane) = &lane_obs {
                per_device_time_s[d] += lane_elapsed;
                kernel_time_s += lane_kernel;
                round_makespan = round_makespan.max(lane_elapsed);
                if traced {
                    obs.merge_shifted(lane, d as u32 * DEVICE_PID_STRIDE, &format!("dev{d} "));
                }
            }
        }
        if !sequential {
            total_time_s += round_makespan;
        }

        if aborted {
            // fail-fast: everything not yet final is abandoned.
            let end_s = if sequential {
                kernel_time_s
            } else {
                total_time_s
            };
            for &g in next_pending.iter().chain(&skipped) {
                slot_outcome[g as usize] = Some(InstanceOutcome {
                    exit_code: None,
                    error: Some("skipped: fail-fast".into()),
                    oom: false,
                    timed_out: false,
                });
                slot_end[g as usize] = end_s;
                if slot_metrics[g as usize].is_none() {
                    slot_metrics[g as usize] = Some(skipped_metrics(g, end_s));
                }
                stats.skipped += 1;
            }
            next_pending.clear();
        }
        if round_oom && policy.oom_split && current_batch > 1 {
            // Graceful degradation: the memory wall halves concurrency
            // instead of ending the run.
            current_batch = (current_batch / 2).max(1);
            stats.oom_splits += 1;
            if let Some(m) = &monitor {
                m.oom_split(current_batch);
            }
            obs.set_base_us(base_us);
            obs.instant_args(
                PID_HOST,
                0,
                &format!("batch split to {current_batch}"),
                "recovery",
                total_time_s * 1e6,
                vec![("batch".into(), Value::U64(current_batch as u64))],
            );
        }
        next_pending.sort_unstable();
        next_pending.dedup();
        pending = next_pending;
        attempt += 1;
    }
    obs.set_base_us(base_us);
    if sequential {
        per_device_time_s[0] = total_time_s;
    }

    stats.retried = was_retried.iter().filter(|&&r| r).count() as u32;
    stats.final_batch = current_batch;
    let instances: Vec<InstanceOutcome> = slot_outcome
        .into_iter()
        .map(|o| o.expect("every instance has a final outcome"))
        .collect();
    stats.unrecovered = instances.iter().filter(|i| !i.succeeded()).count() as u32;
    let metrics = slot_metrics
        .into_iter()
        .map(|mi| mi.expect("every instance has metrics"))
        .collect();

    // If every device died before anything launched, no report exists;
    // an all-zero one keeps the result well-formed (every instance is
    // already marked unrecovered).
    let kernel = format!("{}-x{}", app.name, n);
    let report = last_report.unwrap_or_else(|| SimReport {
        kernel_name: kernel.clone(),
        kernel_cycles: 0.0,
        sim_time_s: 0.0,
        blocks: 0,
        threads_per_block: 0,
        waves: 0,
        occupancy: 0.0,
        total_insts: 0.0,
        total_sectors: 0,
        useful_bytes: 0.0,
        moved_bytes: 0.0,
        coalescing_efficiency: 0.0,
        l2_hit: 0.0,
        dram_efficiency: 0.0,
        active_region_tags: 0,
        issue_utilization: 0.0,
        dram_utilization: 0.0,
        rpc_calls: 0,
        block_end_cycles: Vec::new(),
    });

    Ok(ShardedResilientResult {
        ensemble: EnsembleResult {
            instances,
            stdout: slot_stdout,
            report,
            kernel_time_s,
            total_time_s,
            instance_end_times_s: slot_end,
            rpc_stats,
            metrics,
            timeline,
            graph,
            heap,
        },
        recovery: stats,
        devices: m as u32,
        placement,
        dead_devices,
        per_device_time_s,
        kernel,
    })
}
