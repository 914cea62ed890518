//! Property-based tests for the simulator's timing engine and functional
//! execution layer.

use gpu_arch::GpuSpec;
use gpu_mem::{DeviceMemory, DevicePtr};
use gpu_sim::{
    simulate_timing, BlockTrace, Gpu, KernelError, KernelSpec, MixedSeg, Phase, TeamCtx,
    TeamOutcome, TeamTrace, TimingInputs, TimingParams,
};
use proptest::prelude::*;

fn block(warps: u32, insts: f64, bytes: f64) -> BlockTrace {
    let seg = MixedSeg {
        insts,
        moved_bytes: bytes,
        useful_bytes: bytes,
        sectors: (bytes / 32.0) as u64,
        ..Default::default()
    };
    BlockTrace {
        teams: vec![TeamTrace {
            phases: vec![Phase {
                warps: (0..warps).map(|_| seg.clone()).collect(),
                label: "p".into(),
            }],
            warp_count: warps,
        }],
        shared_mem_bytes: 0,
    }
}

/// A block of two teams with multi-phase mixed traces: a serial phase in
/// which only warp 0 works (with `shape`-dependent RPC calls and
/// allocator operations), a parallel phase whose trailing warps idle, and
/// a closing serial phase with one RPC call. The two teams idle different
/// warps, so their segments finish at different times.
fn mixed_block(warps: u32, insts: f64, bytes: f64, shape: usize) -> BlockTrace {
    let serial = |seg: MixedSeg| {
        let mut segs = vec![MixedSeg::default(); warps as usize];
        segs[0] = seg;
        Phase {
            warps: segs,
            label: "serial".into(),
        }
    };
    let team = |t: usize| {
        let busy = 1 + (shape + t) % warps as usize;
        let work = MixedSeg {
            insts,
            moved_bytes: bytes,
            useful_bytes: bytes / (1 + shape % 4) as f64,
            sectors: (bytes / 32.0) as u64,
            ..Default::default()
        };
        TeamTrace {
            phases: vec![
                serial(MixedSeg {
                    insts: insts / 8.0 + 1.0,
                    rpc_calls: (shape % 2) as u64,
                    alloc_ops: (shape % 3) as f64,
                    alloc_fast_ops: (shape % 2) as f64,
                    ..Default::default()
                }),
                Phase {
                    warps: (0..warps as usize)
                        .map(|w| {
                            if w < busy {
                                work.clone()
                            } else {
                                MixedSeg::default()
                            }
                        })
                        .collect(),
                    label: "parallel_for".into(),
                },
                serial(MixedSeg {
                    insts: 50.0,
                    rpc_calls: 1,
                    ..Default::default()
                }),
            ],
            warp_count: warps,
        }
    };
    BlockTrace {
        teams: vec![team(0), team(1)],
        shared_mem_bytes: 0,
    }
}

/// `n` heterogeneous mixed blocks, so waves, stragglers and mixed
/// bottlenecks all occur across cases.
fn mixed_blocks(n: usize, warps: u32, insts: f64, bytes: f64) -> Vec<BlockTrace> {
    (0..n)
        .map(|i| {
            let scale = 1.0 + (i % 3) as f64;
            mixed_block(warps, insts * scale, bytes * scale, i)
        })
        .collect()
}

/// Engine parameters with the allocator latency channel on, so the
/// allocator operations of [`mixed_block`] take time.
fn alloc_params() -> TimingParams {
    TimingParams {
        alloc_cycles_per_op: 400.0,
        alloc_contention: 0.02,
        ..TimingParams::default()
    }
}

fn simulate(
    blocks: &[BlockTrace],
    params: &TimingParams,
    observe: bool,
    cycle_budget: Option<f64>,
    sample_interval: Option<f64>,
) -> gpu_sim::TimingResult {
    let spec = GpuSpec::a100_40gb();
    simulate_timing(&TimingInputs {
        spec: &spec,
        blocks,
        params,
        footprint_multiplier: 1.0,
        collect_detail: observe,
        collect_stalls: observe,
        cycle_budget,
        sample_interval,
    })
}

fn run(blocks: &[BlockTrace]) -> f64 {
    simulate(blocks, &TimingParams::default(), false, None, None).cycles
}

/// The team body of `pooled_lane_buffers_are_invisible`. Team `t` reads
/// and writes `buf` (`len` f64s, allocated before the launch) and one
/// shared array over `trips[t]` iterations, each lane recording 0–3 loads
/// depending on its iteration. Every third team runs serial regions only,
/// and team `fail` stores through a null pointer halfway through its loop.
fn pool_probe(
    buf: DevicePtr,
    len: u64,
    trips: &[u64],
    fail: u32,
) -> impl Fn(&mut TeamCtx<'_>) -> Result<i32, KernelError> + '_ {
    move |ctx| {
        let t = ctx.team_id();
        let trip = trips[t as usize];
        let sh = ctx.shared_alloc::<u32>(64)?;
        ctx.serial("init", |lane| {
            lane.work(f64::from(t) + 1.0);
            lane.ld_idx::<f64>(buf, u64::from(t) % len)?;
            lane.st_idx::<f64>(buf, u64::from(t) % len, f64::from(t))
        })?;
        if t % 3 == 2 {
            ctx.serial("tail", |lane| lane.sh_st::<u32>(&sh, 0, t))?;
            return Ok(1);
        }
        ctx.parallel_for("loop", trip, |i, lane| {
            for k in 0..i % 4 {
                lane.ld_idx::<f64>(buf, (i * 7 + k * 13) % len)?;
            }
            lane.sh_st::<u32>(&sh, (i * 5 % 64) as usize, i as u32)?;
            if t == fail && i == trip / 2 {
                lane.st::<f64>(DevicePtr(0), 0.0)?;
            }
            lane.st_idx::<f64>(buf, i % len, i as f64)
        })?;
        Ok(0)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Time is monotone in work: more instructions never finish sooner.
    #[test]
    fn time_monotone_in_insts(warps in 1u32..16, insts in 10.0f64..100_000.0, bytes in 0.0f64..100_000.0) {
        let t1 = run(&[block(warps, insts, bytes)]);
        let t2 = run(&[block(warps, insts * 2.0, bytes)]);
        prop_assert!(t2 >= t1 - 1e-6, "{t2} < {t1}");
    }

    /// Time is monotone in traffic.
    #[test]
    fn time_monotone_in_bytes(warps in 1u32..16, insts in 10.0f64..100_000.0, bytes in 32.0f64..100_000.0) {
        let t1 = run(&[block(warps, insts, bytes)]);
        let t2 = run(&[block(warps, insts, bytes * 2.0)]);
        prop_assert!(t2 >= t1 - 1e-6, "{t2} < {t1}");
    }

    /// Adding blocks never speeds the kernel up (ensemble speedup is at
    /// most linear).
    #[test]
    fn more_blocks_never_faster(warps in 1u32..8, insts in 10.0f64..50_000.0, bytes in 0.0f64..50_000.0, n in 2usize..32) {
        let one = run(&[block(warps, insts, bytes)]);
        let many: Vec<BlockTrace> = (0..n).map(|_| block(warps, insts, bytes)).collect();
        let t = run(&many);
        prop_assert!(t >= one - 1e-6, "{t} < {one}");
        // ...and never slower than fully serialized execution.
        prop_assert!(t <= one * n as f64 + 1e-6, "{t} > {}", one * n as f64);
    }

    /// Work conservation: a pure-compute kernel's duration is at least
    /// total_insts / device_issue_capacity.
    #[test]
    fn compute_lower_bound(blocks_n in 1usize..16, warps in 1u32..8, insts in 100.0f64..10_000.0) {
        let spec = GpuSpec::a100_40gb();
        let blocks: Vec<BlockTrace> = (0..blocks_n).map(|_| block(warps, insts, 0.0)).collect();
        let t = run(&blocks);
        let total = blocks_n as f64 * warps as f64 * insts;
        let cap = spec.sm_count as f64 * spec.issue_slots_per_sm as f64;
        prop_assert!(t >= total / cap - 1e-6);
        // Per-warp IPC cap of 1 also bounds from below.
        prop_assert!(t >= insts - 1e-6);
    }

    /// Functional execution: a parallel fill with arbitrary lane counts
    /// always produces the right array, whatever the thread limit.
    #[test]
    fn parallel_fill_correct_for_any_thread_limit(lanes in 1u32..257, trip in 1u64..2_000) {
        let mut mem = DeviceMemory::new(1 << 22);
        let buf = mem.alloc(trip * 8).unwrap();
        let mut ctx = TeamCtx::new(&mut mem, 0, 1, lanes, 48 << 10);
        ctx.parallel_for("fill", trip, |i, lane| lane.st_idx::<f64>(buf, i, i as f64 * 3.0))
            .unwrap();
        drop(ctx);
        for i in (0..trip).step_by((trip as usize / 7).max(1)) {
            prop_assert_eq!(mem.load::<f64>(buf.elem_add::<f64>(i)).unwrap(), i as f64 * 3.0);
        }
    }

    /// Stall attribution is exact and free of side effects: for every
    /// simulated kernel the exclusive buckets sum *exactly* to the total
    /// cycles (kernel-wide and per block), and turning attribution on
    /// changes no timing outcome.
    #[test]
    fn stall_buckets_partition_cycles_exactly(
        n in 1usize..24,
        warps in 1u32..16,
        insts in 0.0f64..50_000.0,
        bytes in 0.0f64..200_000.0,
        rpc_every in 1usize..8,
    ) {
        let mut blocks: Vec<BlockTrace> = (0..n)
            .map(|i| {
                // Heterogeneous work so waves, stragglers and mixed
                // bottlenecks all occur across cases.
                let scale = 1.0 + (i % 3) as f64;
                block(warps, insts * scale, bytes * scale)
            })
            .collect();
        for (i, b) in blocks.iter_mut().enumerate() {
            if i % rpc_every == 0 {
                b.teams[0].phases[0].warps[0].rpc_calls = (i % 3) as u64;
            }
        }
        let plain = run(&blocks);
        let r = simulate(&blocks, &TimingParams::default(), true, None, None);
        // Pure bookkeeping: enabling attribution changes nothing.
        prop_assert_eq!(plain, r.cycles);
        let st = r.stalls.as_ref().unwrap();
        prop_assert_eq!(st.kernel.total(), r.cycles, "kernel buckets {:?}", st.kernel);
        prop_assert_eq!(st.blocks.len(), blocks.len());
        for (bi, b) in st.blocks.iter().enumerate() {
            prop_assert_eq!(b.total(), r.block_end_cycles[bi], "block {} buckets {:?}", bi, b);
            let arr = [b.compute, b.dram_bw, b.mlp, b.rpc, b.alloc, b.wave_tail];
            prop_assert!(arr.iter().all(|&v| v >= 0.0));
        }
    }

    /// Utilization sampling is pure bookkeeping with a well-formed series:
    /// for every kernel and interval, enabling it changes no timing
    /// outcome, sample timestamps are strictly increasing, the last window
    /// closes exactly at kernel end, and every windowed rate stays in
    /// [0, 1].
    #[test]
    fn sampling_is_pure_and_timestamps_monotone(
        n in 1usize..24,
        warps in 1u32..16,
        insts in 10.0f64..50_000.0,
        bytes in 0.0f64..200_000.0,
        interval in 50.0f64..20_000.0,
    ) {
        let blocks = mixed_blocks(n, warps, insts, bytes);
        let params = alloc_params();
        let plain = simulate(&blocks, &params, false, None, None);
        let r = simulate(&blocks, &params, true, None, Some(interval));
        prop_assert_eq!(plain.cycles, r.cycles);
        prop_assert_eq!(&plain.block_end_cycles, &r.block_end_cycles);
        let tl = r.timeline.as_ref().unwrap();
        prop_assert_eq!(tl.interval, interval);
        prop_assert!(!tl.samples.is_empty());
        let mut prev = 0.0;
        for s in &tl.samples {
            prop_assert!(s.cycle > prev, "non-monotone sample at {}", s.cycle);
            prop_assert!(s.issue_rate >= 0.0 && s.issue_rate <= 1.0 + 1e-9);
            prop_assert!(s.dram_rate >= 0.0 && s.dram_rate <= 1.0 + 1e-9);
            prop_assert!(s.occupancy >= 0.0 && s.occupancy <= 1.0 + 1e-9);
            let win = s.cycle - prev;
            prop_assert!(
                (s.stall.total() - win).abs() < 1e-6 * win.max(1.0),
                "window stalls {} vs window {}", s.stall.total(), win
            );
            prev = s.cycle;
        }
        prop_assert_eq!(tl.samples.last().unwrap().cycle, r.cycles);
    }

    /// A watchdog whose budget exceeds twice the kernel's cycles never
    /// fires and never clamps an interval: no team is killed and every
    /// field of the result equals the run without a budget.
    #[test]
    fn watchdog_that_never_fires_is_pure(
        n in 1usize..24,
        warps in 1u32..16,
        insts in 10.0f64..50_000.0,
        bytes in 0.0f64..200_000.0,
        slack in 0.0f64..4.0,
    ) {
        let blocks = mixed_blocks(n, warps, insts, bytes);
        let params = alloc_params();
        let interval = Some(2_500.0);
        let free = simulate(&blocks, &params, true, None, interval);
        let budget = free.cycles * (2.0 + slack) + 1.0;
        let guarded = simulate(&blocks, &params, true, Some(budget), interval);
        prop_assert!(guarded.timed_out_teams.is_empty());
        prop_assert_eq!(guarded, free);
    }

    /// Trace totals are schedule-invariant: the same loop traced with
    /// different thread limits asks for the same useful bytes.
    #[test]
    fn useful_bytes_schedule_invariant(lanes_a in 1u32..129, lanes_b in 1u32..129, trip in 1u64..1_000) {
        let useful = |lanes: u32| {
            let mut mem = DeviceMemory::new(1 << 22);
            let buf = mem.alloc(trip * 8).unwrap();
            let mut ctx = TeamCtx::new(&mut mem, 0, 1, lanes, 48 << 10);
            ctx.parallel_for("fill", trip, |i, lane| lane.st_idx::<f64>(buf, i, 0.0))
                .unwrap();
            ctx.finish().total_useful_bytes()
        };
        prop_assert_eq!(useful(lanes_a), useful(lanes_b));
    }

    /// A launch hands one set of lane buffers from team to team, and
    /// nothing of one team shows in the next: with trip counts that shrink
    /// from team to team, serial-only teams and a team whose
    /// `parallel_for` fails mid-round, each team's outcome and trace equal
    /// those of the same body on a fresh `TeamCtx`. The teams touch only
    /// memory allocated before the launch, so the fresh runs after it see
    /// the same regions.
    #[test]
    fn pooled_lane_buffers_are_invisible(
        lanes in 1u32..300,
        mut trips in prop::collection::vec(0u64..1_500, 2..7),
        fail_pick in 0u32..8,
        len in 1u64..4_000,
    ) {
        trips.sort_unstable_by(|a, b| b.cmp(a));
        let teams = trips.len() as u32;
        let fail = match fail_pick % teams {
            t if t % 3 == 2 => t - 1,
            t => t,
        };
        let mut gpu = Gpu::a100();
        let buf = gpu.mem.alloc(len * 8).unwrap();
        let body = pool_probe(buf, len, &trips, fail);
        let spec = KernelSpec::new("pool", teams, lanes);
        let res = gpu.launch(&spec, None, &body).unwrap();
        let traces = &res.block_traces;
        if trips[fail as usize] > 0 {
            let failed = &res.team_outcomes[fail as usize];
            prop_assert!(matches!(failed, TeamOutcome::Trap(_)), "team {} gave {:?}", fail, failed);
        }
        for t in 0..teams {
            let shared = gpu.spec.shared_mem_per_block;
            let mut fresh = TeamCtx::new(&mut gpu.mem, t, teams, lanes, shared);
            let outcome = match body(&mut fresh) {
                Ok(code) => TeamOutcome::Return(code),
                Err(e) => TeamOutcome::Trap(e),
            };
            prop_assert_eq!(&res.team_outcomes[t as usize], &outcome, "team {}", t);
            prop_assert_eq!(&traces[t as usize].teams[0], fresh.trace(), "team {}", t);
        }
    }
}
