//! Replays `results/timing_oracle.jsonl`: every field of
//! `simulate_timing`'s [`TimingResult`], bit for bit, over seeded
//! synthetic block traces.
//!
//! The traces come from a splitmix64 generator and model what ensembles
//! hand the engine: each team is a copy of one of 32 shared "lines"
//! (argument lines), so copies on equally loaded SMs finish at exactly
//! the same cycle and the engine's tie order matters. A line has serial
//! phases in which only warp 0 works (the rest arrive at the barrier with
//! empty segments), host RPC round trips, allocator operations, parallel
//! phases with idle trailing warps, and the odd phase no warp works in.
//!
//! Grids: N ∈ {1, 7, 64, 217, 512} blocks of one 32-warp team (216 is one
//! full wave on the A100), 300 one-warp blocks, 96 blocks of four packed
//! 8-warp teams, and 48 blocks of two 8-warp teams in which some teams,
//! and some whole blocks, have no phases. Each grid runs under six
//! configurations: observers off; detail and stalls (the ensemble path);
//! those plus sampling with allocator latency on; and three watchdog
//! budgets — one that kills every block at placement, one that kills
//! mid-run (with sampling), and one that never fires.
//!
//! One line per case holds the kernel cycles in clear and an FNV-1a
//! digest of the bits of each field group, so a failure names both the
//! case and the field that moved.

use gpu_arch::GpuSpec;
use gpu_sim::{
    simulate_timing, BlockTrace, MixedSeg, Phase, StallBuckets, TeamTrace, TimingInputs,
    TimingParams, TimingResult,
};
use serde_json::Value;

/// splitmix64 (Steele, Lea and Flood).
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// An integer-valued `f64` in `[lo, hi)`: coarse values, like the
    /// counts real traces carry, keep exact ties likely.
    fn range(&mut self, lo: u64, hi: u64) -> f64 {
        (lo + self.below(hi - lo)) as f64
    }
}

/// A phase in which only warp 0 works.
fn serial(label: &str, warps: u32, seg: MixedSeg) -> Phase {
    let mut segs = vec![MixedSeg::default(); warps as usize];
    segs[0] = seg;
    Phase {
        warps: segs,
        label: label.into(),
    }
}

/// A parallel phase: the leading warps share the loop's trip count, the
/// last busy one may get a partial share, and trailing warps may idle.
fn parallel(rng: &mut SplitMix, warps: u32) -> Phase {
    let busy = if rng.below(3) == 0 {
        1 + rng.below(warps as u64) as usize
    } else {
        warps as usize
    };
    let insts = rng.range(200, 6_000);
    let sectors = rng.below(400) * 4;
    let moved = sectors as f64 * 32.0;
    let useful = moved / [1.0, 2.0, 4.0, 8.0][rng.below(4) as usize];
    let partial = 1 + rng.below(4);
    let mut segs = vec![MixedSeg::default(); warps as usize];
    for (w, seg) in segs.iter_mut().enumerate().take(busy) {
        let part = if w + 1 == busy && busy > 1 {
            partial as f64 / 4.0
        } else {
            1.0
        };
        *seg = MixedSeg {
            insts: insts * part,
            moved_bytes: moved * part,
            useful_bytes: useful * part,
            sectors: (sectors as f64 * part) as u64,
            ..Default::default()
        };
    }
    Phase {
        warps: segs,
        label: "parallel_for".into(),
    }
}

/// Shared line `id` for teams of `warps` warps.
fn line(id: u64, warps: u32) -> TeamTrace {
    let mut rng = SplitMix(0x7157_0000 ^ (id << 8) ^ warps as u64);
    let mut phases = vec![serial(
        "prologue",
        warps,
        MixedSeg {
            insts: rng.range(40, 400),
            ..Default::default()
        },
    )];
    let alloc_ops = rng.range(0, 6);
    phases.push(serial(
        "setup",
        warps,
        MixedSeg {
            insts: rng.range(100, 1_200),
            alloc_ops,
            alloc_fast_ops: (alloc_ops - rng.range(0, 3)).max(0.0),
            rpc_calls: rng.below(2),
            stall_cycles: if id % 8 == 5 { 5_000.0 } else { 0.0 },
            ..Default::default()
        },
    ));
    for _ in 0..1 + rng.below(3) {
        phases.push(parallel(&mut rng, warps));
        if rng.below(3) == 0 {
            phases.push(serial(
                "clock",
                warps,
                MixedSeg {
                    rpc_calls: 1,
                    ..Default::default()
                },
            ));
        }
        if rng.below(5) == 0 {
            phases.push(Phase {
                warps: vec![MixedSeg::default(); warps as usize],
                label: "sync".into(),
            });
        }
    }
    phases.push(serial(
        "report",
        warps,
        MixedSeg {
            insts: rng.range(50, 500),
            rpc_calls: 1,
            ..Default::default()
        },
    ));
    TeamTrace {
        phases,
        warp_count: warps,
    }
}

/// Instance `tag`'s copy of a line: its memory traffic lands in its own
/// heap region, as the functional layer records it.
fn instance(line: &TeamTrace, tag: u32, footprint: u64) -> TeamTrace {
    let mut team = line.clone();
    for seg in team.phases.iter_mut().flat_map(|p| &mut p.warps) {
        if seg.moved_bytes > 0.0 {
            seg.region_tags = vec![tag];
            seg.region_footprints = vec![(0x1000_0000 * (tag as u64 + 1), footprint)];
        }
    }
    team
}

/// `blocks` blocks of `teams` teams of `warps` warps, each team a copy
/// of a line drawn by `seed`. With `hollow`, every third team and every
/// fifth block have no phases.
fn grid(seed: u64, blocks: usize, teams: usize, warps: u32, hollow: bool) -> Vec<BlockTrace> {
    let lines: Vec<TeamTrace> = (0..32).map(|id| line(id, warps)).collect();
    let mut rng = SplitMix(seed);
    let mut tag = 0u32;
    (0..blocks)
        .map(|b| BlockTrace {
            teams: (0..teams)
                .map(|t| {
                    let id = rng.below(32) as usize;
                    tag += 1;
                    if hollow && ((b * teams + t) % 3 == 2 || b % 5 == 4) {
                        TeamTrace {
                            phases: Vec::new(),
                            warp_count: warps,
                        }
                    } else {
                        instance(&lines[id], tag, 4_096 << (id % 14))
                    }
                })
                .collect(),
            shared_mem_bytes: 0,
        })
        .collect()
}

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) -> &mut Self {
        for byte in w.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    fn f(&mut self, x: f64) -> &mut Self {
        self.word(x.to_bits())
    }

    fn str(&mut self, s: &str) -> &mut Self {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(b as u64);
        }
        self
    }

    fn buckets(&mut self, b: &StallBuckets) -> &mut Self {
        self.f(b.compute)
            .f(b.dram_bw)
            .f(b.mlp)
            .f(b.rpc)
            .f(b.alloc)
            .f(b.wave_tail)
    }

    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The oracle line of one case: the cycles in clear, then one digest per
/// field group of the result.
fn case_line(case: &str, r: &TimingResult) -> String {
    let mut ends = Digest::new();
    ends.word(r.block_end_cycles.len() as u64);
    for &e in &r.block_end_cycles {
        ends.f(e);
    }
    let mut statics = Digest::new();
    statics
        .f(r.dram_efficiency)
        .f(r.l2_hit)
        .word(r.active_region_tags as u64)
        .word(r.waves as u64);
    let mut util = Digest::new();
    util.f(r.issue_utilization).f(r.dram_utilization);
    let mut detail = Digest::new();
    if let Some(d) = &r.detail {
        detail.word(d.blocks.len() as u64);
        for b in &d.blocks {
            detail
                .word(b.block as u64)
                .word(b.sm as u64)
                .word(b.wave as u64)
                .f(b.start_cycle)
                .f(b.end_cycle);
            match &b.stalls {
                Some(s) => detail.word(1).buckets(s),
                None => detail.word(0),
            };
        }
        detail.word(d.phase_spans.len() as u64);
        for p in &d.phase_spans {
            detail
                .word(p.block as u64)
                .word(p.team as u64)
                .word(p.phase as u64)
                .str(&p.label)
                .f(p.start_cycle)
                .f(p.end_cycle)
                .word(p.rpc_calls);
        }
        detail.word(d.wave_starts.len() as u64);
        for &w in &d.wave_starts {
            detail.f(w);
        }
    }
    let mut stalls = Digest::new();
    if let Some(st) = &r.stalls {
        stalls.buckets(&st.kernel).word(st.blocks.len() as u64);
        for b in &st.blocks {
            stalls.buckets(b);
        }
    }
    let mut timeline = Digest::new();
    if let Some(tl) = &r.timeline {
        timeline.f(tl.interval).word(tl.samples.len() as u64);
        for s in &tl.samples {
            timeline
                .f(s.cycle)
                .word(s.active_teams as u64)
                .word(s.resident_blocks as u64)
                .f(s.occupancy)
                .f(s.issue_rate)
                .f(s.dram_rate)
                .buckets(&s.stall);
        }
    }
    let mut killed = Digest::new();
    for &(b, t) in &r.timed_out_teams {
        killed.word(b as u64).word(t as u64);
    }
    format!(
        r#"{{"case":"{case}","cycles":"{:016x}","block_ends":"{}","statics":"{}","utilization":"{}","detail":"{}","stalls":"{}","timeline":"{}","timed_out":"{}","killed":{}}}"#,
        r.cycles.to_bits(),
        ends.hex(),
        statics.hex(),
        util.hex(),
        detail.hex(),
        stalls.hex(),
        timeline.hex(),
        killed.hex(),
        r.timed_out_teams.len()
    )
}

/// One configuration of the engine's observers, watchdog and params.
struct Config {
    name: &'static str,
    observe: bool,
    sample: bool,
    alloc: bool,
    /// Watchdog budget as a multiple of the unobserved run's cycles.
    budget: Option<f64>,
}

const CONFIGS: [Config; 6] = [
    Config {
        name: "off",
        observe: false,
        sample: false,
        alloc: false,
        budget: None,
    },
    Config {
        name: "ensemble",
        observe: true,
        sample: false,
        alloc: false,
        budget: None,
    },
    Config {
        name: "sampled_alloc",
        observe: true,
        sample: true,
        alloc: true,
        budget: None,
    },
    Config {
        name: "kill_at_placement",
        observe: true,
        sample: false,
        alloc: false,
        budget: Some(0.0),
    },
    Config {
        name: "kill_mid_run",
        observe: true,
        sample: true,
        alloc: false,
        budget: Some(0.35),
    },
    Config {
        name: "never_fires",
        observe: true,
        sample: false,
        alloc: false,
        budget: Some(2.0),
    },
];

fn run(blocks: &[BlockTrace], cfg: &Config, base_cycles: f64) -> TimingResult {
    let spec = GpuSpec::a100_40gb();
    let params = TimingParams {
        alloc_cycles_per_op: if cfg.alloc { 600.0 } else { 0.0 },
        alloc_contention: if cfg.alloc { 0.01 } else { 0.0 },
        ..TimingParams::default()
    };
    simulate_timing(&TimingInputs {
        spec: &spec,
        blocks,
        params: &params,
        footprint_multiplier: 1.0,
        collect_detail: cfg.observe,
        collect_stalls: cfg.observe,
        cycle_budget: cfg.budget.map(|m| (m * base_cycles).ceil()),
        sample_interval: cfg.sample.then(|| (base_cycles / 37.0).floor().max(1.0)),
    })
}

/// Every oracle line, in file order.
fn oracle_lines() -> Vec<String> {
    let mut grids: Vec<(String, Vec<BlockTrace>)> = [1, 7, 64, 217, 512]
        .iter()
        .map(|&n| (format!("mixed32 n{n}"), grid(n as u64, n, 1, 32, false)))
        .collect();
    grids.push(("single_warp n300".into(), grid(300, 300, 1, 1, false)));
    grids.push(("packed4x8 n96".into(), grid(96, 96, 4, 8, false)));
    grids.push(("hollow2x8 n48".into(), grid(48, 48, 2, 8, true)));
    let mut out = Vec::new();
    for (name, blocks) in &grids {
        let base = run(blocks, &CONFIGS[0], 0.0).cycles;
        for cfg in &CONFIGS {
            let r = run(blocks, cfg, base);
            out.push(case_line(&format!("{name} {}", cfg.name), &r));
        }
    }
    out
}

#[test]
fn timing_engine_replays_the_timing_oracle() {
    let text = include_str!("../../../results/timing_oracle.jsonl");
    let want: Vec<&str> = text.lines().collect();
    let got = oracle_lines();
    assert_eq!(got.len(), want.len(), "oracle line count");
    let mut diffs = Vec::new();
    for (g, w) in got.iter().zip(&want) {
        if g == w {
            continue;
        }
        let g: Value = serde_json::from_str(g).expect("generated line is JSON");
        let w: Value = serde_json::from_str(w).expect("oracle line is JSON");
        let fields: Vec<&str> = w
            .as_object()
            .expect("oracle line is an object")
            .iter()
            .filter(|(k, v)| g.get(k) != Some(v))
            .map(|(k, _)| k.as_str())
            .collect();
        let case = w.get("case").and_then(Value::as_str).unwrap_or("?");
        diffs.push(format!("{case}: {}", fields.join(", ")));
    }
    assert!(
        diffs.is_empty(),
        "{} of {} cases differ (case: fields):\n{}",
        diffs.len(),
        want.len(),
        diffs.join("\n")
    );
}
