use crate::trace::BlockTrace;
use gpu_arch::{occupancy, GpuSpec, LaunchConfig};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Tunables of the timing engine that are not part of the hardware spec.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimingParams {
    /// Warp-visible latency of one host RPC round trip, in core cycles
    /// (device→host doorbell, host service, device resume).
    pub rpc_cycles_per_call: f64,
    /// Maximum L2 hit fraction achievable when the active footprint fits in
    /// the cache (compulsory misses and streaming keep it below 1).
    pub l2_hit_max: f64,
    /// Warp-visible latency of one device-heap allocator operation that
    /// takes the global first-fit path, in core cycles. Operations served
    /// from a per-team free list are charged a quarter of this (row-local
    /// reuse, no global-lock traffic). 0 (the default) disables the
    /// allocator latency channel entirely and keeps every timing outcome
    /// bit-identical to the five-bucket model.
    pub alloc_cycles_per_op: f64,
    /// Contention slope of the allocator latency: each *additional*
    /// concurrently-resident instance heap (distinct region tag) scales
    /// the per-operation latency by `1 + alloc_contention × (heaps − 1)`
    /// — more teams hammering the global allocator serialize on it.
    pub alloc_contention: f64,
}

impl Default for TimingParams {
    fn default() -> Self {
        Self {
            rpc_cycles_per_call: 20_000.0,
            l2_hit_max: 0.95,
            alloc_cycles_per_op: 0.0,
            alloc_contention: 0.0,
        }
    }
}

/// Everything the timing simulation needs.
pub struct TimingInputs<'a> {
    pub spec: &'a GpuSpec,
    pub blocks: &'a [BlockTrace],
    pub params: &'a TimingParams,
    /// Scale factor applied to the measured data footprint before the L2
    /// model. Applications that run functionally on scaled-down data but
    /// model a paper-scale working set pass `paper_bytes / scaled_bytes`.
    pub footprint_multiplier: f64,
    /// Record a [`ScheduleDetail`] timeline (block placement, per-phase
    /// spans, wave starts) alongside the aggregate result. Off by default:
    /// the timeline costs memory proportional to blocks × phases and is
    /// only needed when exporting traces.
    pub collect_detail: bool,
    /// Attribute every simulated interval to an exclusive stall bucket
    /// ([`TimingResult::stalls`]). Off by default; like `collect_detail`
    /// this is pure bookkeeping and never changes a timing outcome.
    pub collect_stalls: bool,
    /// Watchdog: per-block cycle budget, measured from the block's
    /// placement on an SM. A block still running past its budget is killed
    /// at the deadline — its unfinished teams are recorded in
    /// [`TimingResult::timed_out_teams`] and the block's SM slot is freed so
    /// queued blocks can proceed. `None` (the default) disables the
    /// watchdog entirely and leaves every timing outcome bit-identical.
    pub cycle_budget: Option<f64>,
    /// Emit a periodic [`UtilizationTimeline`] sample every this many
    /// cycles ([`TimingResult::timeline`]). Off (`None`) by default; like
    /// `collect_detail` this is pure bookkeeping — the sampler splits each
    /// fluid-rate interval across window boundaries *analytically* (rates
    /// are constant within an interval, so the split is exact) and never
    /// clamps or subdivides an event step, leaving every timing outcome
    /// bit-identical.
    pub sample_interval: Option<f64>,
}

/// Where and when one block ran, for timeline export.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlockSchedule {
    pub block: u32,
    /// SM the block was placed on (least-loaded placement).
    pub sm: u32,
    /// Scheduling wave the placement belonged to, 0-based.
    pub wave: u32,
    pub start_cycle: f64,
    pub end_cycle: f64,
    /// Stall-cycle decomposition of the block's lifetime (queue delay plus
    /// SM residence), present when [`TimingInputs::collect_stalls`] was
    /// also set. The buckets sum to `end_cycle`.
    pub stalls: Option<StallBuckets>,
}

/// One barrier-delimited team phase on the simulated timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseSpan {
    pub block: u32,
    pub team: u32,
    /// Index into the team's phase list.
    pub phase: u32,
    /// The phase's diagnostic label ("prologue", "parallel_for", …).
    pub label: String,
    pub start_cycle: f64,
    pub end_cycle: f64,
    /// Host round trips issued in this phase; each stalls its warp for
    /// [`TimingParams::rpc_cycles_per_call`] cycles.
    pub rpc_calls: u64,
}

/// The full scheduling timeline of one kernel, recorded when
/// [`TimingInputs::collect_detail`] is set. Collecting it does not change
/// any timing outcome — it only observes the event loop.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ScheduleDetail {
    /// One entry per block, in placement order.
    pub blocks: Vec<BlockSchedule>,
    /// Every team phase with its position on the timeline.
    pub phase_spans: Vec<PhaseSpan>,
    /// Cycle at which each scheduling wave began (wave 0 starts at 0).
    pub wave_starts: Vec<f64>,
}

impl ScheduleDetail {
    /// Number of scheduling waves observed (matches
    /// [`TimingResult::waves`] for non-degenerate launches).
    pub fn waves(&self) -> u32 {
        self.wave_starts.len() as u32
    }

    /// The block that bounded the kernel: the last one to finish, with
    /// ties broken toward the lowest block id (placement order). `None`
    /// only for an empty schedule.
    pub fn critical_block(&self) -> Option<&BlockSchedule> {
        self.blocks.iter().min_by(|a, b| {
            b.end_cycle
                .partial_cmp(&a.end_cycle)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.block.cmp(&b.block))
        })
    }

    /// The kernel's critical chain, in start order: walk back from
    /// [`ScheduleDetail::critical_block`] through SM-slot dependencies.
    /// Each hop's predecessor is the latest-finishing *earlier* block on
    /// the same SM whose `end_cycle` does not exceed the hop's
    /// `start_cycle` — the completion that freed the slot the hop was
    /// waiting for. The walk stops at a block that started with the wave
    /// that had a free slot from cycle 0.
    ///
    /// The chain tiles the kernel: summing each hop's residence
    /// (`end - start`) plus its scheduling gap (`start` minus the
    /// predecessor's `end`) telescopes to the critical block's
    /// `end_cycle`, i.e. the kernel cycles.
    pub fn critical_chain(&self) -> Vec<&BlockSchedule> {
        let mut chain: Vec<&BlockSchedule> = Vec::new();
        let mut cur = match self.critical_block() {
            Some(b) => b,
            None => return chain,
        };
        let mut visited = vec![false; self.blocks.len()];
        loop {
            chain.push(cur);
            if let Some(i) = self.blocks.iter().position(|b| b.block == cur.block) {
                visited[i] = true;
            }
            let pred = self
                .blocks
                .iter()
                .enumerate()
                .filter(|&(i, b)| {
                    !visited[i]
                        && b.sm == cur.sm
                        && b.end_cycle <= cur.start_cycle
                        && b.start_cycle < cur.start_cycle
                })
                .min_by(|(_, a), (_, b)| {
                    b.end_cycle
                        .partial_cmp(&a.end_cycle)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.block.cmp(&b.block))
                });
            match pred {
                Some((_, p)) => cur = p,
                None => break,
            }
        }
        chain.reverse();
        chain
    }

    /// Per-wave `(start_cycle, end_cycle, blocks)` summary — the rows of
    /// a wave-level Gantt chart. `end_cycle` is the last completion among
    /// the wave's blocks (0 for a wave that placed no block, which does
    /// not happen in practice).
    pub fn wave_spans(&self) -> Vec<(f64, f64, u32)> {
        let mut spans: Vec<(f64, f64, u32)> =
            self.wave_starts.iter().map(|&s| (s, s, 0u32)).collect();
        for b in &self.blocks {
            if let Some(w) = spans.get_mut(b.wave as usize) {
                w.1 = w.1.max(b.end_cycle);
                w.2 += 1;
            }
        }
        spans
    }
}

/// Exclusive stall-cycle buckets (DESIGN.md §4.2): where a kernel's — or
/// one block's — simulated cycles went. Every event-loop interval is
/// charged to exactly one bucket, the resource that bounded progress over
/// that interval, so the buckets sum to the attributed total:
///
/// * `compute` — issue-slot throughput was the binding resource;
/// * `dram_bw` — the fair device-wide DRAM bandwidth share was binding
///   (bandwidth saturation);
/// * `mlp` — the per-warp MLP window was binding (latency-bound memory:
///   bandwidth was available but the warp could not keep enough requests
///   in flight);
/// * `rpc` — a host round-trip latency was binding;
/// * `alloc` — a device-heap allocator operation's latency was binding
///   (global-path lock traffic and row-locality misses; zero unless
///   [`TimingParams::alloc_cycles_per_op`] is set);
/// * `wave_tail` — occupancy loss: the device ran below its full block
///   complement (kernel-level), or the block sat queued waiting for an SM
///   slot (block-level).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StallBuckets {
    pub compute: f64,
    pub dram_bw: f64,
    pub mlp: f64,
    pub rpc: f64,
    pub alloc: f64,
    pub wave_tail: f64,
}

/// Which bucket an interval is charged to.
#[derive(Debug, Clone, Copy, PartialEq)]
enum StallClass {
    Compute,
    DramBw,
    Mlp,
    Rpc,
    Alloc,
    WaveTail,
}

impl StallBuckets {
    const NAMES: [&'static str; 6] = ["compute", "dram_bw", "mlp", "rpc", "alloc", "wave_tail"];

    fn as_array(&self) -> [f64; 6] {
        [
            self.compute,
            self.dram_bw,
            self.mlp,
            self.rpc,
            self.alloc,
            self.wave_tail,
        ]
    }

    /// Sum of all buckets; equals the attributed cycle total.
    pub fn total(&self) -> f64 {
        self.compute + self.dram_bw + self.mlp + self.rpc + self.alloc + self.wave_tail
    }

    /// Name of the largest bucket (ties break in declaration order) —
    /// the one-word answer to "what was this kernel bound by?".
    pub fn dominant(&self) -> &'static str {
        let vals = self.as_array();
        let mut best = 0usize;
        for (i, v) in vals.iter().enumerate() {
            if *v > vals[best] {
                best = i;
            }
        }
        Self::NAMES[best]
    }

    /// `(name, cycles)` pairs in declaration order, for table rendering.
    pub fn named(&self) -> [(&'static str, f64); 6] {
        let v = self.as_array();
        [
            (Self::NAMES[0], v[0]),
            (Self::NAMES[1], v[1]),
            (Self::NAMES[2], v[2]),
            (Self::NAMES[3], v[3]),
            (Self::NAMES[4], v[4]),
            (Self::NAMES[5], v[5]),
        ]
    }

    fn add(&mut self, class: StallClass, dt: f64) {
        match class {
            StallClass::Compute => self.compute += dt,
            StallClass::DramBw => self.dram_bw += dt,
            StallClass::Mlp => self.mlp += dt,
            StallClass::Rpc => self.rpc += dt,
            StallClass::Alloc => self.alloc += dt,
            StallClass::WaveTail => self.wave_tail += dt,
        }
    }

    /// Absorb the floating-point accumulation residual `target - total()`
    /// (ulp-scale by construction: the buckets partition the very `dt`
    /// values whose sequential sum is `target`) into the largest bucket,
    /// until the buckets sum *bit-exactly* to `target`.
    fn reconcile(&mut self, target: f64) {
        // Stage 1: charge the bulk residual to the largest bucket.
        for _ in 0..4 {
            let residual = target - self.total();
            if residual == 0.0 {
                return;
            }
            debug_assert!(
                residual.abs() <= 1e-6 * target.abs().max(1.0),
                "stall residual {residual} vs target {target}"
            );
            *self.slot_mut(self.largest_idx()) += residual;
        }
        // Stage 2: the additions above themselves round, so a sub-ulp gap
        // can survive. Walk the largest bucket one ulp at a time toward
        // the target. When the largest bucket shares the total's binade,
        // its unit step can straddle the target forever on a
        // round-to-even tie — so after each failed walk, shift the
        // second-largest bucket (strictly finer ulp, since it is below
        // half the total) one step to break the tie.
        for _ in 0..8 {
            for _ in 0..8 {
                let diff = target - self.total();
                if diff == 0.0 {
                    return;
                }
                Self::nudge(self.slot_mut(self.largest_idx()), diff);
            }
            let diff = target - self.total();
            if diff == 0.0 {
                return;
            }
            match self.second_idx() {
                Some(i) => Self::nudge(self.slot_mut(i), diff),
                None => return,
            }
        }
    }

    /// Move `slot` one ulp in the direction of `diff` (never below zero).
    fn nudge(slot: &mut f64, diff: f64) {
        let bits = slot.to_bits();
        if diff > 0.0 {
            *slot = f64::from_bits(bits + 1);
        } else if *slot > 0.0 {
            *slot = f64::from_bits(bits - 1);
        }
    }

    fn largest_idx(&self) -> usize {
        let vals = self.as_array();
        let mut best = 0usize;
        for (i, v) in vals.iter().enumerate() {
            if *v > vals[best] {
                best = i;
            }
        }
        best
    }

    /// Largest non-zero bucket other than [`Self::largest_idx`].
    fn second_idx(&self) -> Option<usize> {
        let vals = self.as_array();
        let best = self.largest_idx();
        let mut second: Option<usize> = None;
        for (i, v) in vals.iter().enumerate() {
            if i != best && *v > 0.0 && second.is_none_or(|s| *v > vals[s]) {
                second = Some(i);
            }
        }
        second
    }

    fn slot_mut(&mut self, i: usize) -> &mut f64 {
        match i {
            0 => &mut self.compute,
            1 => &mut self.dram_bw,
            2 => &mut self.mlp,
            3 => &mut self.rpc,
            4 => &mut self.alloc,
            _ => &mut self.wave_tail,
        }
    }
}

/// Stall-cycle attribution of one kernel, recorded when
/// [`TimingInputs::collect_stalls`] is set. Buckets are exclusive:
/// [`StallBuckets::total`] of `kernel` equals [`TimingResult::cycles`],
/// and each block's buckets sum to its completion cycle (time spent
/// queued for an SM slot counts as that block's `wave_tail`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StallAttribution {
    /// Device-wide decomposition of the kernel's critical path.
    pub kernel: StallBuckets,
    /// Per-block decomposition, indexed like the input blocks.
    pub blocks: Vec<StallBuckets>,
}

/// One periodic utilization sample ([`TimingInputs::sample_interval`]).
///
/// Rates are time-averaged over the sample window `[cycle − window,
/// cycle)`; counts (`active_teams`, `resident_blocks`, `occupancy`) are
/// instantaneous at the window's closing edge. The stall buckets hold the
/// window's cycle decomposition (they sum to the window length) when
/// [`TimingInputs::collect_stalls`] was also set, and stay zero otherwise.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UtilizationSample {
    /// Cycle at which the window closed.
    pub cycle: f64,
    /// Teams still making progress on placed blocks.
    pub active_teams: u32,
    /// Work-bearing blocks resident on SMs.
    pub resident_blocks: u32,
    /// `resident_blocks` over the device's full block complement, [0, 1].
    pub occupancy: f64,
    /// Window-averaged issue-slot utilization across the device, [0, 1].
    pub issue_rate: f64,
    /// Window-averaged DRAM utilization (vs. raw peak), [0, 1].
    pub dram_rate: f64,
    /// Window stall-cycle decomposition (sums to the window length when
    /// stall collection ran; all-zero otherwise).
    pub stall: StallBuckets,
}

/// The periodic utilization time series of one kernel, recorded when
/// [`TimingInputs::sample_interval`] is set. Every window is exactly
/// `interval` cycles long except the last, which closes at kernel end.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct UtilizationTimeline {
    /// Sampling interval in core cycles.
    pub interval: f64,
    /// Samples in window order; `cycle` is strictly increasing.
    pub samples: Vec<UtilizationSample>,
}

/// Output of the timing simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimingResult {
    /// Kernel duration in core cycles (excluding launch overhead).
    pub cycles: f64,
    /// Completion cycle of each block, indexed like the input.
    pub block_end_cycles: Vec<f64>,
    /// DRAM efficiency applied (row-locality interference).
    pub dram_efficiency: f64,
    /// Modeled L2 hit fraction.
    pub l2_hit: f64,
    /// Distinct heap-region tags streamed concurrently.
    pub active_region_tags: u32,
    /// Time-integrated issue-slot utilization across the device, [0, 1].
    pub issue_utilization: f64,
    /// Time-integrated DRAM utilization (vs. raw peak), [0, 1].
    pub dram_utilization: f64,
    /// Scheduling waves required by occupancy.
    pub waves: u32,
    /// Timeline detail, present iff [`TimingInputs::collect_detail`] was
    /// set. Serialized as `null` otherwise.
    pub detail: Option<ScheduleDetail>,
    /// Stall-cycle attribution, present iff
    /// [`TimingInputs::collect_stalls`] was set.
    pub stalls: Option<StallAttribution>,
    /// Teams killed by the [`TimingInputs::cycle_budget`] watchdog, as
    /// `(block index, team index within the block)` pairs in kill order.
    /// Empty whenever the watchdog is disabled or never fired.
    pub timed_out_teams: Vec<(u32, u32)>,
    /// Periodic utilization samples, present iff
    /// [`TimingInputs::sample_interval`] was set.
    pub timeline: Option<UtilizationTimeline>,
}

const EPS: f64 = 1e-9;

#[derive(Debug, Clone, Copy, PartialEq)]
enum WarpPhase {
    /// Draining its current segment.
    Running,
    /// Finished its segment, waiting at the team barrier.
    AtBarrier,
    /// Team finished all phases.
    Done,
}

struct WarpState {
    block: usize,
    team: usize,
    warp: usize,
    sm: usize,
    insts_left: f64,
    bytes_left: f64,
    latency_left: f64,
    /// Outstanding device-heap allocator latency: global-path operations
    /// pay the full contention-scaled per-op cost, free-list hits a
    /// quarter of it. A separate channel from `latency_left` so the stall
    /// attribution can tell allocator serialization apart from RPC.
    alloc_left: f64,
    /// Fraction of the warp's MLP window usable by this segment: coalesced
    /// streams keep the full window in flight; dependent, scattered lookup
    /// chains (low coalescing efficiency) cannot pipeline as deeply.
    mlp_factor: f64,
    phase: WarpPhase,
}

impl WarpState {
    fn load_segment(
        &mut self,
        blocks: &[BlockTrace],
        phase_idx: usize,
        dram_discount: f64,
        params: &TimingParams,
        alloc_scale: f64,
    ) {
        let seg = &blocks[self.block].teams[self.team].phases[phase_idx].warps[self.warp];
        self.insts_left = seg.insts;
        self.bytes_left = seg.moved_bytes * dram_discount;
        // Injected stalls (`MixedSeg::stall_cycles`, 0 for organic traces)
        // ride the same warp-visible latency channel as RPC round trips.
        self.latency_left = seg.rpc_calls as f64 * params.rpc_cycles_per_call + seg.stall_cycles;
        // Allocator operations: full contention-scaled cost on the global
        // path, a quarter for per-team free-list hits (row-local reuse).
        let slow_ops = (seg.alloc_ops - seg.alloc_fast_ops).max(0.0);
        self.alloc_left = alloc_scale * (slow_ops + 0.25 * seg.alloc_fast_ops);
        self.mlp_factor = 0.4 + 0.6 * seg.coalescing_efficiency();
        self.phase = WarpPhase::Running;
    }

    fn segment_done(&self) -> bool {
        self.insts_left <= EPS
            && self.bytes_left <= EPS
            && self.latency_left <= EPS
            && self.alloc_left <= EPS
    }
}

struct TeamState {
    phase_idx: usize,
    warps_pending: usize,
    done: bool,
}

struct BlockState {
    teams_pending: usize,
    /// SM the block was placed on (`usize::MAX` until placed).
    sm: usize,
    end_cycle: f64,
}

/// Utilization-sampling state (pure bookkeeping, like `detail` and
/// `stalls`). One open window accumulates issue/DRAM work and stall
/// cycles; each event-loop interval is split analytically across window
/// boundaries — exact, because fluid rates are constant within an
/// interval — so sampling never subdivides an event step.
struct Sampler {
    interval: f64,
    /// Cycle the open window started at (the previous boundary).
    win_start: f64,
    /// Warp-instructions issued inside the open window.
    issued: f64,
    /// Bytes moved inside the open window.
    dram: f64,
    /// Stall decomposition of the open window (tracks `stalls`).
    stall: StallBuckets,
    timeline: UtilizationTimeline,
}

/// Run the fluid-rate timing simulation over a set of block traces.
///
/// Resource model (see DESIGN.md §4):
/// * each SM issues `issue_slots_per_sm` warp-instructions per cycle,
///   shared equally among its resident warps that still have instructions
///   to issue (per-warp cap: 1 inst/cycle);
/// * DRAM moves `dram_bytes_per_cycle × efficiency(regions)` bytes per
///   cycle, shared equally among warps with outstanding memory, each warp
///   additionally capped by its MLP window;
/// * a segment's instruction, memory and RPC-latency components drain
///   concurrently (ideal intra-warp overlap); the segment completes when
///   all three are exhausted;
/// * warps of a team synchronize at phase boundaries; blocks are placed on
///   SMs up to the occupancy limit and queue for free slots beyond it.
pub fn simulate_timing(inputs: &TimingInputs<'_>) -> TimingResult {
    let mut engine = Engine::new(inputs);
    engine.place_blocks();
    engine.run();
    engine.finish()
}

/// The event loop's state for one launch (DESIGN.md §4.10).
///
/// Each event costs work in proportion to the warps that are running,
/// not to the warps of the launch:
/// * `running` holds the warps whose segment still has work, in ascending
///   warp index. Every floating-point sum over warps (`issued_integral`,
///   `dram_integral`, the sampler windows) accumulates in that order, and
///   a block's warps sit next to each other in it.
/// * Finished segments are retired in the order a full scan in warp order
///   would meet them, repeated until a scan finds nothing: `pass` holds
///   the current scan's finished segments, and a segment that finishes at
///   or below the warp being retired waits in `next_pass`.
/// * Issue and memory counts change only when warps change state, and
///   watchdog deadlines never decrease along `deadlines`.
///
/// `results/timing_oracle.jsonl` pins every field of the result; any
/// change to an order here shows up there.
struct Engine<'a> {
    spec: &'a GpuSpec,
    blocks: &'a [BlockTrace],
    params: &'a TimingParams,
    cycle_budget: Option<f64>,

    // Static launch-wide factors.
    occ_waves: u32,
    dram_eff: f64,
    l2_hit: f64,
    region_count: u32,
    dram_discount: f64,
    dram_capacity: f64,
    mlp_cap: f64,
    issue_cap: f64,
    alloc_scale: f64,
    blocks_per_sm: usize,
    wave_capacity: usize,
    /// Work-bearing blocks that fit on the device at once: the device
    /// counts as fully fed while that many are resident, and any interval
    /// below that is an occupancy/wave-tail loss at the kernel level.
    full_blocks: usize,
    device_issue_cap: f64,
    device_dram_cap: f64,

    // Simulation state.
    warps: Vec<WarpState>,
    teams: Vec<Vec<TeamState>>,
    block_states: Vec<BlockState>,
    /// Index of the first warp of each (block, team).
    warp_index: Vec<Vec<usize>>,
    sm_resident: Vec<usize>,
    pending_blocks: VecDeque<usize>,
    now: f64,
    placed_count: usize,
    blocks_remaining: usize,
    /// Work-bearing blocks resident on SMs.
    running_blocks: usize,
    /// Unfinished teams of placed blocks.
    active_teams: u32,
    /// Per SM: running warps with instructions left to issue.
    issue_count: Vec<u32>,
    /// Per SM: each such warp's issue rate over the current event.
    issue_rate: Vec<f64>,
    /// Running warps with bytes left to move.
    mem_count: u32,
    /// Warps whose segment has work, ascending.
    running: Vec<usize>,
    /// Warps that started a segment with work since the last merge.
    started: Vec<usize>,
    /// A kill since the last merge left `Done` warps in `running`.
    killed_since_merge: bool,
    /// Finished segments of the current retirement scan.
    pass: BinaryHeap<Reverse<usize>>,
    /// Finished segments the current scan has already passed.
    next_pass: Vec<usize>,
    /// Warps at or above this index still lie ahead of the current scan.
    cursor: usize,
    /// `(block, start_cycle + budget)` in placement order.
    deadlines: VecDeque<(usize, f64)>,
    /// Per block with running warps, ascending: the component time and
    /// stall class that bound the block's earliest completion this event.
    block_slots: Vec<(usize, f64, StallClass)>,
    issued_integral: f64,
    dram_integral: f64,
    timed_out_teams: Vec<(u32, u32)>,

    // Observers: pure bookkeeping that never feeds back into any rate or
    // event computation.
    detail: Option<ScheduleDetail>,
    phase_start: Vec<Vec<f64>>,
    stalls: Option<StallAttribution>,
    sampler: Option<Sampler>,
}

impl<'a> Engine<'a> {
    fn new(inputs: &TimingInputs<'a>) -> Self {
        let spec = inputs.spec;
        let params = inputs.params;
        let blocks = inputs.blocks;
        assert!(!blocks.is_empty(), "timing needs at least one block");

        // --- Static launch-wide factors ---------------------------------
        let max_warps_per_block = blocks.iter().map(|b| b.warp_count()).max().unwrap().max(1);
        let max_shared = blocks.iter().map(|b| b.shared_mem_bytes).max().unwrap();
        let launch =
            LaunchConfig::linear(blocks.len() as u32, max_warps_per_block * spec.warp_size)
                .with_shared_mem(max_shared);
        let occ = occupancy(spec, &launch).expect("trace built from a validated launch");

        // Distinct heap-region tags across all blocks (the §4.3
        // interference driver) and the largest per-team data footprint
        // (the L2 driver; L2 residency is judged per working set — hot
        // per-instance data keeps hitting even when many instances run,
        // while a working set larger than the cache misses at any
        // instance count).
        let mut tags: Vec<u32> = Vec::new();
        let mut max_team_footprint = 0.0f64;
        for b in blocks {
            for t in &b.teams {
                tags.extend(t.region_tags());
                let fp: u64 = t.region_footprints().iter().map(|&(_, l)| l).sum();
                max_team_footprint = max_team_footprint.max(fp as f64);
            }
        }
        tags.sort_unstable();
        tags.dedup();
        let region_count = (tags.len() as u32).max(1);
        let footprint_bytes: f64 = max_team_footprint * inputs.footprint_multiplier.max(1.0);

        let dram_eff = spec.mem_model.dram_efficiency(region_count);
        let l2_hit = if footprint_bytes <= EPS {
            0.0
        } else {
            let resident = (spec.l2_usable_bytes() / footprint_bytes).min(1.0);
            params.l2_hit_max * resident
        };
        let issue_cap = spec.issue_slots_per_sm as f64;
        let blocks_per_sm = occ.blocks_per_sm.max(1) as usize;
        let wave_capacity = blocks_per_sm * spec.sm_count as usize;

        // --- Simulation state --------------------------------------------
        let mut warps: Vec<WarpState> = Vec::new();
        let mut teams: Vec<Vec<TeamState>> = Vec::with_capacity(blocks.len());
        let mut block_states: Vec<BlockState> = Vec::with_capacity(blocks.len());
        let mut warp_index: Vec<Vec<usize>> = Vec::with_capacity(blocks.len());
        for (bi, b) in blocks.iter().enumerate() {
            let mut block_teams = Vec::with_capacity(b.teams.len());
            let mut first_warps = Vec::with_capacity(b.teams.len());
            for (ti, t) in b.teams.iter().enumerate() {
                block_teams.push(TeamState {
                    phase_idx: 0,
                    warps_pending: t.warp_count as usize,
                    done: t.phases.is_empty(),
                });
                first_warps.push(warps.len());
                for wi in 0..t.warp_count as usize {
                    warps.push(WarpState {
                        block: bi,
                        team: ti,
                        warp: wi,
                        sm: usize::MAX,
                        insts_left: 0.0,
                        bytes_left: 0.0,
                        latency_left: 0.0,
                        alloc_left: 0.0,
                        mlp_factor: 1.0,
                        phase: WarpPhase::Done, // activated on placement
                    });
                }
            }
            block_states.push(BlockState {
                teams_pending: block_teams.iter().filter(|t| !t.done).count(),
                sm: usize::MAX,
                end_cycle: 0.0,
            });
            teams.push(block_teams);
            warp_index.push(first_warps);
        }
        // Blocks whose teams all start "done" (empty traces) never enter
        // the event loop; everything else counts as remaining.
        let blocks_with_work = block_states.iter().filter(|b| b.teams_pending > 0).count();
        let sm_count = spec.sm_count as usize;
        let warp_count = warps.len();

        let sampler = inputs.sample_interval.map(|interval| {
            assert!(
                interval.is_finite() && interval > EPS,
                "sample_interval must be a positive cycle count, got {interval}"
            );
            Sampler {
                interval,
                win_start: 0.0,
                issued: 0.0,
                dram: 0.0,
                stall: StallBuckets::default(),
                timeline: UtilizationTimeline {
                    interval,
                    samples: Vec::new(),
                },
            }
        });

        Engine {
            spec,
            blocks,
            params,
            cycle_budget: inputs.cycle_budget,
            occ_waves: occ.waves,
            dram_eff,
            l2_hit,
            region_count,
            dram_discount: 1.0 - l2_hit,
            dram_capacity: spec.dram_bytes_per_cycle() * dram_eff,
            // Row-locality interference lengthens the effective memory
            // latency as more disjoint heaps are streamed (each
            // instance's accesses keep closing the others' row buffers),
            // so it throttles the per-warp MLP rate as well as aggregate
            // bandwidth — the paper's §4.3 observation.
            mlp_cap: spec.mem_model.warp_mlp_bytes_per_cycle() * dram_eff,
            issue_cap,
            // Allocator latency per global-path operation: the base cost
            // scaled by contention from every *other*
            // concurrently-resident instance heap (distinct region tags
            // serialize on the global allocator lock and evict each
            // other's row-buffer locality). 0 unless the params opt in.
            alloc_scale: params.alloc_cycles_per_op
                * (1.0 + params.alloc_contention * (region_count - 1) as f64),
            blocks_per_sm,
            wave_capacity,
            full_blocks: blocks_with_work.min(wave_capacity),
            device_issue_cap: spec.sm_count as f64 * issue_cap,
            device_dram_cap: spec.dram_bytes_per_cycle(),
            warps,
            teams,
            block_states,
            warp_index,
            sm_resident: vec![0; sm_count],
            pending_blocks: (0..blocks.len()).collect(),
            now: 0.0,
            placed_count: 0,
            blocks_remaining: blocks_with_work,
            running_blocks: 0,
            active_teams: 0,
            issue_count: vec![0; sm_count],
            issue_rate: vec![0.0; sm_count],
            mem_count: 0,
            running: Vec::with_capacity(warp_count),
            started: Vec::with_capacity(warp_count),
            killed_since_merge: false,
            pass: BinaryHeap::with_capacity(warp_count),
            next_pass: Vec::with_capacity(warp_count),
            cursor: 0,
            deadlines: VecDeque::with_capacity(blocks.len()),
            block_slots: Vec::with_capacity(wave_capacity.min(blocks.len())),
            issued_integral: 0.0,
            dram_integral: 0.0,
            timed_out_teams: Vec::new(),
            detail: inputs.collect_detail.then(ScheduleDetail::default),
            phase_start: if inputs.collect_detail {
                blocks.iter().map(|b| vec![0.0; b.teams.len()]).collect()
            } else {
                Vec::new()
            },
            stalls: inputs.collect_stalls.then(|| StallAttribution {
                kernel: StallBuckets::default(),
                blocks: vec![StallBuckets::default(); blocks.len()],
            }),
            sampler,
        }
    }

    /// Place queued blocks, in block order, on the least-loaded SM until
    /// every SM is full.
    fn place_blocks(&mut self) {
        let now = self.now;
        while let Some(&bi) = self.pending_blocks.front() {
            let (sm, load) = self
                .sm_resident
                .iter()
                .enumerate()
                .min_by_key(|&(_, &l)| l)
                .map(|(i, &l)| (i, l))
                .expect("at least one SM");
            if load >= self.blocks_per_sm {
                break;
            }
            self.pending_blocks.pop_front();
            self.sm_resident[sm] += 1;
            let bs = &mut self.block_states[bi];
            bs.sm = sm;
            if bs.teams_pending > 0 {
                self.running_blocks += 1;
                self.active_teams += bs.teams_pending as u32;
                if let Some(budget) = self.cycle_budget {
                    self.deadlines.push_back((bi, now + budget));
                }
                if let Some(st) = self.stalls.as_mut() {
                    // Queue delay before the block won an SM slot.
                    st.blocks[bi].wave_tail = now;
                }
            }
            if let Some(d) = self.detail.as_mut() {
                let wave = (self.placed_count / self.wave_capacity) as u32;
                if wave as usize == d.wave_starts.len() {
                    d.wave_starts.push(now);
                }
                d.blocks.push(BlockSchedule {
                    block: bi as u32,
                    sm: sm as u32,
                    wave,
                    start_cycle: now,
                    end_cycle: now,
                    stalls: None, // annotated after the event loop
                });
                for ts in self.phase_start[bi].iter_mut() {
                    *ts = now;
                }
            }
            self.placed_count += 1;
            for ti in 0..self.teams[bi].len() {
                let team = &self.teams[bi][ti];
                if team.done {
                    continue;
                }
                let phase_idx = team.phase_idx;
                let base = self.warp_index[bi][ti];
                for w in base..base + self.blocks[bi].teams[ti].warp_count as usize {
                    self.warps[w].sm = sm;
                    self.start_segment(w, phase_idx);
                }
            }
        }
    }

    /// Load warp `w`'s segment of phase `phase_idx`. A segment with work
    /// joins the running set at the next merge; one without is finished
    /// already and waits for retirement.
    fn start_segment(&mut self, w: usize, phase_idx: usize) {
        let ws = &mut self.warps[w];
        ws.load_segment(
            self.blocks,
            phase_idx,
            self.dram_discount,
            self.params,
            self.alloc_scale,
        );
        if ws.segment_done() {
            if w >= self.cursor {
                self.pass.push(Reverse(w));
            } else {
                self.next_pass.push(w);
            }
            return;
        }
        if ws.insts_left > EPS {
            self.issue_count[ws.sm] += 1;
        }
        if ws.bytes_left > EPS {
            self.mem_count += 1;
        }
        self.started.push(w);
    }

    fn run(&mut self) {
        let mut guard = 0u64;
        let guard_limit = 10_000_000u64;
        while self.blocks_remaining > 0 {
            guard += 1;
            assert!(guard < guard_limit, "timing simulation failed to converge");
            self.drain();
            if self.blocks_remaining == 0 {
                break;
            }
            if self.kill_expired() {
                // Freshly placed blocks may carry zero-work segments;
                // restart the iteration so the drain sees them first.
                continue;
            }
            self.merge_started();
            self.advance();
        }
    }

    /// Retire finished segments without advancing time, scan by scan,
    /// until a scan finds nothing.
    fn drain(&mut self) {
        loop {
            while let Some(Reverse(w)) = self.pass.pop() {
                self.cursor = w + 1;
                self.retire(w);
            }
            self.cursor = 0;
            if self.next_pass.is_empty() {
                break;
            }
            self.pass.extend(self.next_pass.drain(..).map(Reverse));
        }
    }

    /// Move warp `w` to its team's barrier; the last warp to arrive
    /// starts the team's next phase or finishes the team.
    fn retire(&mut self, w: usize) {
        let ws = &mut self.warps[w];
        if ws.phase != WarpPhase::Running {
            return; // killed while waiting for its turn
        }
        ws.phase = WarpPhase::AtBarrier;
        let (bi, ti) = (ws.block, ws.team);
        let team = &mut self.teams[bi][ti];
        team.warps_pending -= 1;
        if team.warps_pending > 0 {
            return;
        }
        team.phase_idx += 1;
        let phase_idx = team.phase_idx;
        let blocks = self.blocks;
        let trace = &blocks[bi].teams[ti];
        if let Some(d) = self.detail.as_mut() {
            let finished = phase_idx - 1;
            let ph = &trace.phases[finished];
            d.phase_spans.push(PhaseSpan {
                block: bi as u32,
                team: ti as u32,
                phase: finished as u32,
                label: ph.label.clone(),
                start_cycle: self.phase_start[bi][ti],
                end_cycle: self.now,
                rpc_calls: ph.warps.iter().map(|w| w.rpc_calls).sum(),
            });
            self.phase_start[bi][ti] = self.now;
        }
        let base = self.warp_index[bi][ti];
        let warps = base..base + trace.warp_count as usize;
        if phase_idx < trace.phases.len() {
            team.warps_pending = trace.warp_count as usize;
            for w in warps {
                self.start_segment(w, phase_idx);
            }
        } else {
            team.done = true;
            self.active_teams -= 1;
            for w in warps {
                self.warps[w].phase = WarpPhase::Done;
            }
            let bs = &mut self.block_states[bi];
            bs.teams_pending -= 1;
            if bs.teams_pending == 0 {
                self.end_block(bi);
            }
        }
    }

    /// Free block `bi`'s SM slot at `now` and refill from the queue.
    fn end_block(&mut self, bi: usize) {
        let bs = &mut self.block_states[bi];
        bs.end_cycle = self.now;
        self.sm_resident[bs.sm] -= 1;
        self.blocks_remaining -= 1;
        self.running_blocks -= 1;
        if let Some(d) = self.detail.as_mut() {
            // Blocks are placed in index order, one entry each.
            debug_assert_eq!(d.blocks[bi].block as usize, bi);
            d.blocks[bi].end_cycle = self.now;
        }
        self.place_blocks();
    }

    /// Watchdog: kill blocks whose cycle budget has expired. The teardown
    /// mirrors normal block completion (free the SM slot, record the end
    /// cycle, refill from the queue) so the rest of the schedule proceeds
    /// untouched; the functional layer rewrites the affected teams'
    /// outcomes to `KernelError::Timeout`. Returns whether any block died.
    fn kill_expired(&mut self) -> bool {
        let mut killed = false;
        while let Some(&(bi, deadline)) = self.deadlines.front() {
            if self.block_states[bi].teams_pending > 0 && self.now < deadline - EPS {
                break;
            }
            self.deadlines.pop_front();
            if self.block_states[bi].teams_pending == 0 {
                continue;
            }
            killed = true;
            for ti in 0..self.teams[bi].len() {
                let team = &mut self.teams[bi][ti];
                if team.done {
                    continue;
                }
                team.done = true;
                self.timed_out_teams.push((bi as u32, ti as u32));
                self.active_teams -= 1;
                let base = self.warp_index[bi][ti];
                for w in base..base + self.blocks[bi].teams[ti].warp_count as usize {
                    let ws = &mut self.warps[w];
                    if ws.phase == WarpPhase::Running {
                        if ws.insts_left > EPS {
                            self.issue_count[ws.sm] -= 1;
                        }
                        if ws.bytes_left > EPS {
                            self.mem_count -= 1;
                        }
                    }
                    ws.phase = WarpPhase::Done;
                }
                self.block_states[bi].teams_pending -= 1;
            }
            self.end_block(bi);
        }
        self.killed_since_merge |= killed;
        killed
    }

    /// Merge the warps that started a segment into the running set,
    /// keeping it in ascending warp order, and drop killed warps.
    fn merge_started(&mut self) {
        if self.killed_since_merge {
            let warps = &self.warps;
            let live = |&w: &usize| warps[w].phase == WarpPhase::Running;
            self.running.retain(live);
            self.started.retain(live);
            self.killed_since_merge = false;
        }
        if self.started.is_empty() {
            return;
        }
        self.started.sort_unstable();
        // Merge from the back into the grown tail of `running`.
        let (mut i, mut j) = (self.running.len(), self.started.len());
        self.running.resize(i + j, 0);
        while j > 0 {
            if i > 0 && self.running[i - 1] > self.started[j - 1] {
                self.running[i + j - 1] = self.running[i - 1];
                i -= 1;
            } else {
                self.running[i + j - 1] = self.started[j - 1];
                j -= 1;
            }
        }
        self.started.clear();
    }

    /// Advance time to the next component completion (or watchdog
    /// deadline): find the interval, attribute it, drain every running
    /// warp by it and collect the segments it finishes.
    fn advance(&mut self) {
        // ---- Fair-share rates.
        for (rate, &count) in self.issue_rate.iter_mut().zip(&self.issue_count) {
            *rate = (self.issue_cap / count as f64).min(1.0);
        }
        let mem_share = if self.mem_count > 0 {
            self.dram_capacity / self.mem_count as f64
        } else {
            0.0
        };

        // ---- Find the next component-completion event, and for each
        // block the component that bounds *its* earliest completion. Ties
        // go to the earliest warp, then to the component order below.
        let observe = self.stalls.is_some();
        self.block_slots.clear();
        let mut dt = f64::INFINITY;
        for &w in &self.running {
            let ws = &self.warps[w];
            let mut slot = (f64::INFINITY, StallClass::Compute);
            if ws.insts_left > EPS {
                let t = ws.insts_left / self.issue_rate[ws.sm];
                if t < slot.0 {
                    slot = (t, StallClass::Compute);
                }
            }
            if ws.bytes_left > EPS {
                let cap = self.mlp_cap * ws.mlp_factor;
                let t = ws.bytes_left / mem_share.min(cap);
                // Distinguish bandwidth saturation (the fair share is the
                // cap) from latency-bound memory (the warp's own MLP
                // window is the cap).
                let class = if mem_share <= cap {
                    StallClass::DramBw
                } else {
                    StallClass::Mlp
                };
                if t < slot.0 {
                    slot = (t, class);
                }
            }
            if ws.latency_left > EPS && ws.latency_left < slot.0 {
                slot = (ws.latency_left, StallClass::Rpc);
            }
            if ws.alloc_left > EPS && ws.alloc_left < slot.0 {
                slot = (ws.alloc_left, StallClass::Alloc);
            }
            dt = dt.min(slot.0);
            if observe {
                match self.block_slots.last_mut() {
                    Some(b) if b.0 == ws.block => {
                        if slot.0 < b.1 {
                            (b.1, b.2) = slot;
                        }
                    }
                    _ => self.block_slots.push((ws.block, slot.0, slot.1)),
                }
            }
        }
        assert!(
            dt.is_finite(),
            "active warps exist but no component can progress"
        );
        // Never step past a watchdog deadline: clamp the interval so the
        // kill pass fires exactly at `start_cycle + budget`. Deadlines
        // never decrease along the queue, so the first live one with time
        // left is the nearest.
        while let Some(&(bi, _)) = self.deadlines.front() {
            if self.block_states[bi].teams_pending > 0 {
                break;
            }
            self.deadlines.pop_front();
        }
        for &(bi, deadline) in &self.deadlines {
            let remain = deadline - self.now;
            if self.block_states[bi].teams_pending > 0 && remain > EPS {
                if remain < dt {
                    dt = remain;
                }
                break;
            }
        }

        // ---- Attribute the interval (pure bookkeeping; writes only into
        // `stalls`). The kernel is charged by the globally binding
        // component, except that an under-filled device makes the
        // interval a wave-tail loss.
        let mut iter_class: Option<StallClass> = None;
        if let Some(st) = self.stalls.as_mut() {
            let mut global = (f64::INFINITY, StallClass::Compute);
            for &(bi, t, class) in &self.block_slots {
                st.blocks[bi].add(class, dt);
                if t < global.0 {
                    global = (t, class);
                }
            }
            let kernel_class = if self.running_blocks < self.full_blocks {
                StallClass::WaveTail
            } else {
                global.1
            };
            st.kernel.add(kernel_class, dt);
            iter_class = Some(kernel_class);
        }

        // ---- Advance every running warp by dt, in warp order, and
        // collect the segments that finish for the next drain.
        let issued_before = self.issued_integral;
        let dram_before = self.dram_integral;
        let mut kept = 0;
        for i in 0..self.running.len() {
            let w = self.running[i];
            let ws = &mut self.warps[w];
            if ws.insts_left > EPS {
                let ir = self.issue_rate[ws.sm];
                let spent = (ir * dt).min(ws.insts_left);
                ws.insts_left -= spent;
                self.issued_integral += spent;
                if ws.insts_left <= EPS {
                    self.issue_count[ws.sm] -= 1;
                }
            }
            if ws.bytes_left > EPS {
                let mr = mem_share.min(self.mlp_cap * ws.mlp_factor);
                let spent = (mr * dt).min(ws.bytes_left);
                ws.bytes_left -= spent;
                self.dram_integral += spent;
                if ws.bytes_left <= EPS {
                    self.mem_count -= 1;
                }
            }
            if ws.latency_left > EPS {
                ws.latency_left -= dt.min(ws.latency_left);
            }
            if ws.alloc_left > EPS {
                ws.alloc_left -= dt.min(ws.alloc_left);
            }
            if ws.segment_done() {
                self.pass.push(Reverse(w));
            } else {
                self.running[kept] = w;
                kept += 1;
            }
        }
        self.running.truncate(kept);

        // ---- Fold the interval into the sampling window. The interval's
        // work is spread uniformly over [now, now + dt) (constant fluid
        // rates), so a boundary crossing splits it by exact time fraction.
        if let Some(s) = self.sampler.as_mut() {
            let iter_issued = self.issued_integral - issued_before;
            let iter_dram = self.dram_integral - dram_before;
            let t_end = self.now + dt;
            let mut t_cur = self.now;
            // Teams never change state mid-interval (completions drain at
            // a fixed `now`), so one count serves every window the
            // interval closes.
            while s.win_start + s.interval <= t_end {
                let boundary = s.win_start + s.interval;
                let frac = (boundary - t_cur) / dt;
                s.issued += iter_issued * frac;
                s.dram += iter_dram * frac;
                if let Some(class) = iter_class {
                    s.stall.add(class, boundary - t_cur);
                }
                s.timeline.samples.push(UtilizationSample {
                    cycle: boundary,
                    active_teams: self.active_teams,
                    resident_blocks: self.running_blocks as u32,
                    occupancy: self.running_blocks as f64 / self.wave_capacity as f64,
                    issue_rate: s.issued / (s.interval * self.device_issue_cap),
                    dram_rate: s.dram / (s.interval * self.device_dram_cap),
                    stall: s.stall,
                });
                s.issued = 0.0;
                s.dram = 0.0;
                s.stall = StallBuckets::default();
                s.win_start = boundary;
                t_cur = boundary;
            }
            let frac = (t_end - t_cur) / dt;
            s.issued += iter_issued * frac;
            s.dram += iter_dram * frac;
            if let Some(class) = iter_class {
                s.stall.add(class, t_end - t_cur);
            }
        }
        self.now += dt;
    }

    fn finish(self) -> TimingResult {
        let now = self.now;
        let mut stalls = self.stalls;
        let mut detail = self.detail;
        // Force the exclusive buckets to sum exactly to the totals they
        // partition, then mirror the per-block decomposition onto the
        // timeline when both observers ran.
        if let Some(st) = stalls.as_mut() {
            st.kernel.reconcile(now);
            for (bi, b) in st.blocks.iter_mut().enumerate() {
                b.reconcile(self.block_states[bi].end_cycle);
            }
            if let Some(d) = detail.as_mut() {
                for b in &mut d.blocks {
                    b.stalls = Some(st.blocks[b.block as usize]);
                }
            }
        }

        // Close the final (possibly partial) sampling window at kernel
        // end. Every team is done here, so the instantaneous counts are
        // zero.
        let timeline = self.sampler.map(|mut s| {
            let win = now - s.win_start;
            if win > EPS {
                s.timeline.samples.push(UtilizationSample {
                    cycle: now,
                    active_teams: 0,
                    resident_blocks: 0,
                    occupancy: 0.0,
                    issue_rate: s.issued / (win * self.device_issue_cap),
                    dram_rate: s.dram / (win * self.device_dram_cap),
                    stall: s.stall,
                });
            }
            s.timeline
        });

        let cycles = now.max(EPS);
        TimingResult {
            cycles: now,
            block_end_cycles: self.block_states.iter().map(|b| b.end_cycle).collect(),
            dram_efficiency: self.dram_eff,
            l2_hit: self.l2_hit,
            active_region_tags: self.region_count,
            issue_utilization: self.issued_integral
                / (cycles * self.spec.sm_count as f64 * self.issue_cap),
            dram_utilization: self.dram_integral / (cycles * self.device_dram_cap),
            waves: self.occ_waves,
            detail,
            stalls,
            timed_out_teams: self.timed_out_teams,
            timeline,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{MixedSeg, Phase, TeamTrace};

    fn spec() -> GpuSpec {
        GpuSpec::a100_40gb()
    }

    fn params() -> TimingParams {
        TimingParams::default()
    }

    /// A block of `warps` warps, each with one segment of (insts, bytes).
    fn block(warps: u32, insts: f64, bytes: f64) -> BlockTrace {
        let seg = MixedSeg {
            insts,
            moved_bytes: bytes,
            useful_bytes: bytes,
            sectors: (bytes / 32.0) as u64,
            // Tag regions uniquely per call site via bytes hash — tests
            // that care set tags explicitly instead.
            region_tags: vec![],
            region_footprints: vec![],
            rpc_calls: 0,
            alloc_ops: 0.0,
            alloc_fast_ops: 0.0,
            stall_cycles: 0.0,
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

    fn run(blocks: &[BlockTrace]) -> TimingResult {
        let s = spec();
        let p = params();
        simulate_timing(&TimingInputs {
            spec: &s,
            blocks,
            params: &p,
            footprint_multiplier: 1.0,
            collect_detail: false,
            collect_stalls: false,
            cycle_budget: None,
            sample_interval: None,
        })
    }

    fn run_detailed(blocks: &[BlockTrace]) -> TimingResult {
        let s = spec();
        let p = params();
        simulate_timing(&TimingInputs {
            spec: &s,
            blocks,
            params: &p,
            footprint_multiplier: 1.0,
            collect_detail: true,
            collect_stalls: false,
            cycle_budget: None,
            sample_interval: None,
        })
    }

    fn run_stalls(blocks: &[BlockTrace]) -> TimingResult {
        let s = spec();
        let p = params();
        simulate_timing(&TimingInputs {
            spec: &s,
            blocks,
            params: &p,
            footprint_multiplier: 1.0,
            collect_detail: true,
            collect_stalls: true,
            cycle_budget: None,
            sample_interval: None,
        })
    }

    fn run_sampled(blocks: &[BlockTrace], interval: f64, collect_stalls: bool) -> TimingResult {
        let s = spec();
        let p = params();
        simulate_timing(&TimingInputs {
            spec: &s,
            blocks,
            params: &p,
            footprint_multiplier: 1.0,
            collect_detail: false,
            collect_stalls,
            cycle_budget: None,
            sample_interval: Some(interval),
        })
    }

    #[test]
    fn single_warp_pure_compute() {
        let r = run(&[block(1, 1000.0, 0.0)]);
        assert!((r.cycles - 1000.0).abs() < 1.0, "cycles = {}", r.cycles);
    }

    #[test]
    fn four_warps_one_sm_still_full_rate() {
        // 4 schedulers: 4 warps issue at 1 IPC each.
        let r = run(&[block(4, 1000.0, 0.0)]);
        assert!((r.cycles - 1000.0).abs() < 1.0, "cycles = {}", r.cycles);
    }

    #[test]
    fn eight_warps_one_sm_halve_rate() {
        let r = run(&[block(8, 1000.0, 0.0)]);
        assert!((r.cycles - 2000.0).abs() < 1.0, "cycles = {}", r.cycles);
    }

    #[test]
    fn compute_blocks_on_different_sms_scale_linearly() {
        let one = run(&[block(8, 1000.0, 0.0)]);
        let many: Vec<BlockTrace> = (0..64).map(|_| block(8, 1000.0, 0.0)).collect();
        let r = run(&many);
        // 64 blocks spread over 108 SMs: same duration as one block.
        assert!((r.cycles - one.cycles).abs() < 1.0);
    }

    #[test]
    fn single_warp_memory_is_mlp_bound() {
        let s = spec();
        let bytes = 1_000_000.0;
        let r = run(&[block(1, 1.0, bytes)]);
        // One region: the MLP cap runs at the single-region DRAM efficiency.
        let expected =
            bytes / (s.mem_model.warp_mlp_bytes_per_cycle() * s.mem_model.dram_efficiency(1));
        // L2 may discount some traffic; footprints are empty so l2_hit = 0.
        assert!(
            (r.cycles - expected).abs() / expected < 0.01,
            "cycles = {}",
            r.cycles
        );
    }

    #[test]
    fn many_memory_warps_saturate_dram() {
        // 64 blocks × 32 warps, each moving 100 KB: total 204.8 MB.
        let s = spec();
        let blocks: Vec<BlockTrace> = (0..64).map(|_| block(32, 1.0, 100_000.0)).collect();
        let r = run(&blocks);
        let total_bytes = 64.0 * 32.0 * 100_000.0;
        let expected = total_bytes / (s.dram_bytes_per_cycle() * r.dram_efficiency);
        assert!(
            (r.cycles - expected).abs() / expected < 0.05,
            "cycles = {} vs {}",
            r.cycles,
            expected
        );
        assert!(r.dram_utilization > 0.5);
    }

    #[test]
    fn phases_synchronize_within_team() {
        // Warp 0 has a long phase-0 segment; warp 1 a short one. In phase 1
        // both have short segments. Total = long + short, not max alone.
        let seg = |insts: f64| MixedSeg {
            insts,
            ..Default::default()
        };
        let b = BlockTrace {
            teams: vec![TeamTrace {
                phases: vec![
                    Phase {
                        warps: vec![seg(1000.0), seg(10.0)],
                        label: "p0".into(),
                    },
                    Phase {
                        warps: vec![seg(10.0), seg(10.0)],
                        label: "p1".into(),
                    },
                ],
                warp_count: 2,
            }],
            shared_mem_bytes: 0,
        };
        let r = run(&[b]);
        assert!((r.cycles - 1010.0).abs() < 1.0, "cycles = {}", r.cycles);
    }

    #[test]
    fn excess_blocks_queue_in_waves() {
        // 1024-thread blocks: 2 per SM, 216 resident. 432 blocks = 2 waves.
        let blocks: Vec<BlockTrace> = (0..432).map(|_| block(32, 1000.0, 0.0)).collect();
        let r = run(&blocks);
        assert_eq!(r.waves, 2);
        // 2 resident blocks per SM = 64 warps sharing 4 issue slots:
        // each warp runs at 1/16 IPC, so 16000 cycles per wave, 2 waves.
        assert!((r.cycles - 32000.0).abs() < 10.0, "cycles = {}", r.cycles);
    }

    #[test]
    fn rpc_latency_floors_duration() {
        let mut b = block(1, 10.0, 0.0);
        b.teams[0].phases[0].warps[0].rpc_calls = 5;
        let r = run(&[b]);
        let p = params();
        assert!(r.cycles >= 5.0 * p.rpc_cycles_per_call - 1.0);
    }

    #[test]
    fn interference_slows_many_regions() {
        let mk = |tag: u32| {
            let mut b = block(32, 1.0, 500_000.0);
            b.teams[0].phases[0].warps[0].region_tags = vec![tag];
            b
        };
        let few: Vec<BlockTrace> = (0..64).map(|_| mk(0)).collect();
        let many: Vec<BlockTrace> = (0..64).map(mk).collect();
        let r_few = run(&few);
        let r_many = run(&many);
        assert!(r_many.dram_efficiency < r_few.dram_efficiency);
        assert!(r_many.cycles > r_few.cycles);
    }

    #[test]
    fn l2_resident_footprint_discounts_traffic() {
        let mk = |fp: Option<(u64, u64)>| {
            let mut b = block(32, 1.0, 500_000.0);
            if let Some(f) = fp {
                b.teams[0].phases[0].warps[0].region_footprints = vec![f];
            }
            b
        };
        // Small footprint (1 MB) fits L2; huge footprint (10 GB) does not.
        let fits: Vec<BlockTrace> = (0..64).map(|_| mk(Some((0x1000, 1 << 20)))).collect();
        let thrash: Vec<BlockTrace> = (0..64).map(|_| mk(Some((0x1000, 10 << 30)))).collect();
        let r_fits = run(&fits);
        let r_thrash = run(&thrash);
        assert!(r_fits.l2_hit > 0.8);
        assert!(r_thrash.l2_hit < 0.01);
        assert!(r_fits.cycles < r_thrash.cycles);
    }

    #[test]
    fn footprint_multiplier_defeats_l2() {
        let mk = || {
            let mut b = block(32, 1.0, 500_000.0);
            b.teams[0].phases[0].warps[0].region_footprints = vec![(0x1000, 1 << 20)];
            b
        };
        let blocks: Vec<BlockTrace> = (0..8).map(|_| mk()).collect();
        let s = spec();
        let p = params();
        let scaled = simulate_timing(&TimingInputs {
            spec: &s,
            blocks: &blocks,
            params: &p,
            footprint_multiplier: 1.0,
            collect_detail: false,
            collect_stalls: false,
            cycle_budget: None,
            sample_interval: None,
        });
        let paper = simulate_timing(&TimingInputs {
            spec: &s,
            blocks: &blocks,
            params: &p,
            footprint_multiplier: 100_000.0,
            collect_detail: false,
            collect_stalls: false,
            cycle_budget: None,
            sample_interval: None,
        });
        assert!(paper.l2_hit < scaled.l2_hit);
        assert!(paper.cycles > scaled.cycles);
    }

    #[test]
    fn empty_phase_blocks_complete_instantly() {
        let b = BlockTrace {
            teams: vec![TeamTrace {
                phases: vec![Phase {
                    warps: vec![MixedSeg::default()],
                    label: "noop".into(),
                }],
                warp_count: 1,
            }],
            shared_mem_bytes: 0,
        };
        let r = run(&[b]);
        assert!(r.cycles < 1.0);
    }

    #[test]
    fn utilization_bounded() {
        let blocks: Vec<BlockTrace> = (0..16).map(|_| block(8, 5000.0, 200_000.0)).collect();
        let r = run(&blocks);
        assert!(r.issue_utilization > 0.0 && r.issue_utilization <= 1.0 + 1e-9);
        assert!(r.dram_utilization > 0.0 && r.dram_utilization <= 1.0 + 1e-9);
    }

    #[test]
    fn detail_absent_by_default_and_result_unchanged() {
        let blocks: Vec<BlockTrace> = (0..8).map(|_| block(8, 1000.0, 50_000.0)).collect();
        let plain = run(&blocks);
        let detailed = run_detailed(&blocks);
        assert!(plain.detail.is_none());
        assert!(detailed.detail.is_some());
        // Observation must not perturb the simulation.
        assert_eq!(plain.cycles, detailed.cycles);
        assert_eq!(plain.block_end_cycles, detailed.block_end_cycles);
    }

    #[test]
    fn detail_wave_boundaries_match_waves() {
        // Same scenario as excess_blocks_queue_in_waves: 432 blocks, 2 waves.
        let blocks: Vec<BlockTrace> = (0..432).map(|_| block(32, 1000.0, 0.0)).collect();
        let r = run_detailed(&blocks);
        let d = r.detail.as_ref().unwrap();
        assert_eq!(d.waves(), r.waves);
        assert_eq!(d.blocks.len(), 432);
        assert_eq!(d.wave_starts[0], 0.0);
        // Wave 1 starts strictly after wave 0 and at a first-wave block end.
        assert!(d.wave_starts[1] > 0.0);
        // Every block recorded exactly once, with a sane span and SM id.
        let mut seen = vec![false; 432];
        for b in &d.blocks {
            assert!(!seen[b.block as usize]);
            seen[b.block as usize] = true;
            assert!(b.end_cycle >= b.start_cycle);
            assert!((b.sm as usize) < spec().sm_count as usize);
            assert!(b.wave < r.waves);
        }
        assert!(seen.iter().all(|&s| s));
        // Second-wave blocks start when wave 1 opens.
        assert!(d
            .blocks
            .iter()
            .any(|b| b.wave == 1 && b.start_cycle >= d.wave_starts[1]));
    }

    fn sched_block(block: u32, sm: u32, wave: u32, start: f64, end: f64) -> BlockSchedule {
        BlockSchedule {
            block,
            sm,
            wave,
            start_cycle: start,
            end_cycle: end,
            stalls: None,
        }
    }

    #[test]
    fn critical_block_picks_last_finisher_with_stable_ties() {
        let d = ScheduleDetail {
            blocks: vec![
                sched_block(0, 0, 0, 0.0, 100.0),
                sched_block(1, 1, 0, 0.0, 250.0),
                sched_block(2, 0, 1, 100.0, 250.0),
            ],
            phase_spans: Vec::new(),
            wave_starts: vec![0.0, 100.0],
        };
        // Ties on end_cycle break toward the lowest block id.
        assert_eq!(d.critical_block().unwrap().block, 1);
        assert!(ScheduleDetail::default().critical_block().is_none());
    }

    #[test]
    fn critical_chain_walks_sm_slot_dependencies() {
        // SM 0 runs blocks 0 -> 2 -> 3 back to back; block 3 finishes last.
        // SM 1 runs block 1, done early. The chain is the SM 0 lineage.
        let d = ScheduleDetail {
            blocks: vec![
                sched_block(0, 0, 0, 0.0, 100.0),
                sched_block(1, 1, 0, 0.0, 50.0),
                sched_block(2, 0, 1, 100.0, 220.0),
                sched_block(3, 0, 1, 230.0, 400.0),
            ],
            phase_spans: Vec::new(),
            wave_starts: vec![0.0, 100.0],
        };
        let chain: Vec<u32> = d.critical_chain().iter().map(|b| b.block).collect();
        assert_eq!(chain, vec![0, 2, 3]);
        // Residence plus scheduling gaps telescopes to the kernel cycles.
        let mut covered = 0.0;
        let mut prev_end = 0.0;
        for b in d.critical_chain() {
            covered += (b.start_cycle - prev_end) + (b.end_cycle - b.start_cycle);
            prev_end = b.end_cycle;
        }
        assert_eq!(covered, 400.0);
    }

    #[test]
    fn critical_chain_tiles_a_real_multiwave_kernel() {
        let blocks: Vec<BlockTrace> = (0..432).map(|_| block(32, 1000.0, 0.0)).collect();
        let r = run_detailed(&blocks);
        let d = r.detail.as_ref().unwrap();
        let chain = d.critical_chain();
        assert!(!chain.is_empty());
        assert_eq!(chain.last().unwrap().end_cycle, r.cycles);
        // Hops are start-ordered and slot-consistent: each hop begins at
        // or after its predecessor's completion on the same SM.
        for hop in chain.windows(2) {
            assert!(hop[0].end_cycle <= hop[1].start_cycle + 1e-9);
            assert_eq!(hop[0].sm, hop[1].sm);
        }
        let mut covered = 0.0;
        let mut prev_end = 0.0;
        for b in &chain {
            covered += (b.start_cycle - prev_end) + (b.end_cycle - b.start_cycle);
            prev_end = b.end_cycle;
        }
        assert!((covered - r.cycles).abs() <= 1e-6 * r.cycles.max(1.0));
    }

    #[test]
    fn wave_spans_summarize_starts_ends_and_block_counts() {
        let blocks: Vec<BlockTrace> = (0..432).map(|_| block(32, 1000.0, 0.0)).collect();
        let r = run_detailed(&blocks);
        let d = r.detail.as_ref().unwrap();
        let spans = d.wave_spans();
        assert_eq!(spans.len() as u32, r.waves);
        assert_eq!(spans.iter().map(|&(_, _, n)| n).sum::<u32>(), 432);
        for (i, &(start, end, n)) in spans.iter().enumerate() {
            assert_eq!(start, d.wave_starts[i]);
            assert!(end >= start);
            assert!(n > 0);
        }
        // The last wave's end is the kernel's end.
        let max_end = spans.iter().fold(0.0f64, |m, &(_, e, _)| m.max(e));
        assert_eq!(max_end, r.cycles);
    }

    #[test]
    fn stalls_absent_by_default_and_result_unchanged() {
        let blocks: Vec<BlockTrace> = (0..8).map(|_| block(8, 1000.0, 50_000.0)).collect();
        let plain = run(&blocks);
        let attributed = run_stalls(&blocks);
        assert!(plain.stalls.is_none());
        assert!(attributed.stalls.is_some());
        // Attribution must not perturb the simulation.
        assert_eq!(plain.cycles, attributed.cycles);
        assert_eq!(plain.block_end_cycles, attributed.block_end_cycles);
    }

    #[test]
    fn stall_buckets_sum_exactly_to_totals() {
        // A deliberately mixed ensemble: compute-heavy, memory-heavy and
        // RPC-heavy blocks plus one empty block, across two waves.
        let mut blocks: Vec<BlockTrace> = Vec::new();
        for i in 0..230 {
            blocks.push(match i % 3 {
                0 => block(32, 20_000.0, 100.0),
                1 => block(32, 10.0, 200_000.0),
                _ => {
                    let mut b = block(4, 500.0, 1_000.0);
                    b.teams[0].phases[0].warps[0].rpc_calls = 1;
                    b
                }
            });
        }
        blocks.push(BlockTrace {
            teams: vec![TeamTrace {
                phases: vec![],
                warp_count: 1,
            }],
            shared_mem_bytes: 0,
        });
        let r = run_stalls(&blocks);
        let st = r.stalls.as_ref().unwrap();
        assert_eq!(st.kernel.total(), r.cycles, "kernel buckets must be exact");
        assert_eq!(st.blocks.len(), blocks.len());
        for (bi, b) in st.blocks.iter().enumerate() {
            assert_eq!(
                b.total(),
                r.block_end_cycles[bi],
                "block {bi} buckets must sum to its end cycle"
            );
        }
        // The mix must actually exercise several buckets.
        assert!(st.kernel.compute > 0.0 || st.kernel.wave_tail > 0.0);
        assert!(st.kernel.dram_bw > 0.0 || st.kernel.mlp > 0.0);
    }

    #[test]
    fn pure_compute_attributes_to_compute() {
        let r = run_stalls(&[block(8, 10_000.0, 0.0)]);
        let k = r.stalls.unwrap().kernel;
        assert_eq!(k.total(), r.cycles);
        assert_eq!(k.compute, r.cycles);
        assert_eq!(k.dominant(), "compute");
    }

    #[test]
    fn saturated_dram_attributes_to_dram_bw() {
        // Same scenario as many_memory_warps_saturate_dram: 2048 memory
        // warps make each fair share far below the per-warp MLP cap.
        let blocks: Vec<BlockTrace> = (0..64).map(|_| block(32, 1.0, 100_000.0)).collect();
        let r = run_stalls(&blocks);
        let k = r.stalls.unwrap().kernel;
        assert_eq!(k.dominant(), "dram_bw");
        assert!(k.dram_bw > 0.9 * r.cycles, "dram_bw = {}", k.dram_bw);
    }

    #[test]
    fn lone_memory_warp_attributes_to_mlp() {
        // One warp cannot saturate DRAM: its own MLP window is the cap.
        let r = run_stalls(&[block(1, 1.0, 1_000_000.0)]);
        let k = r.stalls.unwrap().kernel;
        assert_eq!(k.dominant(), "mlp");
        assert!(k.mlp > 0.99 * r.cycles, "mlp = {}", k.mlp);
    }

    #[test]
    fn rpc_latency_attributes_to_rpc() {
        let mut b = block(1, 10.0, 0.0);
        b.teams[0].phases[0].warps[0].rpc_calls = 5;
        let r = run_stalls(&[b]);
        let k = r.stalls.unwrap().kernel;
        assert_eq!(k.dominant(), "rpc");
        assert!(k.rpc > 0.99 * r.cycles);
    }

    #[test]
    fn straggler_block_charges_kernel_wave_tail() {
        // Two blocks on different SMs, one 10× longer: once the short one
        // finishes the device is under-filled, so the kernel charges the
        // remainder to wave_tail — while the straggler block itself is
        // honestly compute-bound the whole time.
        let r = run_stalls(&[block(8, 1_000.0, 0.0), block(8, 10_000.0, 0.0)]);
        let st = r.stalls.as_ref().unwrap();
        let short_end = r.block_end_cycles[0];
        assert!((st.kernel.wave_tail - (r.cycles - short_end)).abs() < 1.0);
        assert!((st.kernel.compute - short_end).abs() < 1.0);
        assert_eq!(st.blocks[1].compute, r.block_end_cycles[1]);
        assert_eq!(st.blocks[1].wave_tail, 0.0);
    }

    #[test]
    fn queued_blocks_charge_their_queue_delay_to_wave_tail() {
        // 432 identical blocks, 2 full waves: the kernel never runs
        // under-filled (wave 2 refills instantly), but every second-wave
        // block spent the first wave queued.
        let blocks: Vec<BlockTrace> = (0..432).map(|_| block(32, 1000.0, 0.0)).collect();
        let r = run_stalls(&blocks);
        let st = r.stalls.as_ref().unwrap();
        assert_eq!(st.kernel.wave_tail, 0.0);
        assert_eq!(st.kernel.total(), r.cycles);
        let d = r.detail.as_ref().unwrap();
        let mut queued = 0;
        for b in &d.blocks {
            let s = b.stalls.expect("both observers ran");
            assert_eq!(s.total(), b.end_cycle);
            if b.wave == 1 {
                queued += 1;
                assert!((s.wave_tail - b.start_cycle).abs() < 1e-9);
                assert!(s.wave_tail > 0.0);
            } else {
                assert_eq!(s.wave_tail, 0.0);
            }
        }
        assert_eq!(queued, 216);
    }

    #[test]
    fn stall_round_trip_through_json() {
        let blocks: Vec<BlockTrace> = (0..4).map(|_| block(8, 1000.0, 50_000.0)).collect();
        let st = run_stalls(&blocks).stalls.unwrap();
        let json = serde_json::to_string(&st).unwrap();
        let back: StallAttribution = serde_json::from_str(&json).unwrap();
        assert_eq!(st, back);
    }

    #[test]
    fn detail_phase_spans_tile_the_block() {
        let seg = |insts: f64| MixedSeg {
            insts,
            ..Default::default()
        };
        let b = BlockTrace {
            teams: vec![TeamTrace {
                phases: vec![
                    Phase {
                        warps: vec![seg(1000.0), seg(10.0)],
                        label: "p0".into(),
                    },
                    Phase {
                        warps: vec![seg(10.0), seg(10.0)],
                        label: "p1".into(),
                    },
                ],
                warp_count: 2,
            }],
            shared_mem_bytes: 0,
        };
        let r = run_detailed(&[b]);
        let d = r.detail.as_ref().unwrap();
        assert_eq!(d.phase_spans.len(), 2);
        let p0 = &d.phase_spans[0];
        let p1 = &d.phase_spans[1];
        assert_eq!((p0.label.as_str(), p1.label.as_str()), ("p0", "p1"));
        assert_eq!(p0.start_cycle, 0.0);
        // Phases abut at the barrier and the last one ends with the block.
        assert_eq!(p0.end_cycle, p1.start_cycle);
        assert_eq!(p1.end_cycle, d.blocks[0].end_cycle);
        assert!(p0.end_cycle > p0.start_cycle);
    }

    #[test]
    fn timeline_absent_by_default_and_result_unchanged() {
        let blocks: Vec<BlockTrace> = (0..8).map(|_| block(8, 1000.0, 50_000.0)).collect();
        let plain = run(&blocks);
        let sampled = run_sampled(&blocks, 500.0, false);
        assert!(plain.timeline.is_none());
        let tl = sampled.timeline.as_ref().unwrap();
        assert!(!tl.samples.is_empty());
        // Sampling must not perturb the simulation.
        assert_eq!(plain.cycles, sampled.cycles);
        assert_eq!(plain.block_end_cycles, sampled.block_end_cycles);
        assert_eq!(plain.issue_utilization, sampled.issue_utilization);
        assert_eq!(plain.dram_utilization, sampled.dram_utilization);
    }

    #[test]
    fn timeline_samples_are_monotonic_and_bounded() {
        let blocks: Vec<BlockTrace> = (0..16).map(|_| block(8, 5000.0, 200_000.0)).collect();
        let r = run_sampled(&blocks, 300.0, false);
        let tl = r.timeline.unwrap();
        assert_eq!(tl.interval, 300.0);
        let mut prev = 0.0;
        for s in &tl.samples {
            assert!(s.cycle > prev, "samples must be strictly increasing");
            prev = s.cycle;
            assert!(s.issue_rate >= 0.0 && s.issue_rate <= 1.0 + 1e-9);
            assert!(s.dram_rate >= 0.0 && s.dram_rate <= 1.0 + 1e-9);
            assert!(s.occupancy >= 0.0 && s.occupancy <= 1.0 + 1e-9);
            // Stalls were not collected: buckets stay zero.
            assert_eq!(s.stall.total(), 0.0);
        }
        // The last window closes exactly at kernel end.
        assert_eq!(tl.samples.last().unwrap().cycle, r.cycles);
    }

    #[test]
    fn timeline_rates_integrate_to_utilization() {
        // The windowed rates are a partition of the same work integrals the
        // aggregate utilizations divide, so the window-weighted mean of the
        // samples must reproduce them (up to fp accumulation).
        let blocks: Vec<BlockTrace> = (0..16).map(|_| block(8, 5000.0, 200_000.0)).collect();
        let r = run_sampled(&blocks, 250.0, false);
        let tl = r.timeline.as_ref().unwrap();
        let mut issue_integral = 0.0;
        let mut dram_integral = 0.0;
        let mut prev = 0.0;
        for s in &tl.samples {
            let win = s.cycle - prev;
            issue_integral += s.issue_rate * win;
            dram_integral += s.dram_rate * win;
            prev = s.cycle;
        }
        let issue_mean = issue_integral / r.cycles;
        let dram_mean = dram_integral / r.cycles;
        assert!(
            (issue_mean - r.issue_utilization).abs() < 1e-6,
            "issue {issue_mean} vs {}",
            r.issue_utilization
        );
        assert!(
            (dram_mean - r.dram_utilization).abs() < 1e-6,
            "dram {dram_mean} vs {}",
            r.dram_utilization
        );
    }

    #[test]
    fn timeline_stall_windows_tile_the_run() {
        // With stall collection on, each sample's buckets sum to its
        // window length and the whole series tiles [0, cycles).
        let blocks: Vec<BlockTrace> = (0..8).map(|_| block(8, 1000.0, 50_000.0)).collect();
        let r = run_sampled(&blocks, 400.0, true);
        let tl = r.timeline.as_ref().unwrap();
        let mut prev = 0.0;
        for s in &tl.samples {
            let win = s.cycle - prev;
            assert!(
                (s.stall.total() - win).abs() < 1e-6 * win.max(1.0),
                "window stalls {} vs window {win}",
                s.stall.total()
            );
            prev = s.cycle;
        }
        assert_eq!(tl.samples.last().unwrap().cycle, r.cycles);
    }

    #[test]
    fn timeline_captures_wave_tail_drop() {
        // Straggler scenario: after the short block finishes, occupancy
        // drops and later samples must see fewer active teams.
        let r = run_sampled(
            &[block(8, 1_000.0, 0.0), block(8, 10_000.0, 0.0)],
            500.0,
            false,
        );
        let tl = r.timeline.unwrap();
        let first = tl.samples.first().unwrap();
        let last = tl.samples.last().unwrap();
        assert!(first.active_teams >= 2);
        assert!(last.active_teams < first.active_teams);
        assert!(last.occupancy <= first.occupancy);
    }

    #[test]
    fn timeline_round_trip_through_json() {
        let blocks: Vec<BlockTrace> = (0..4).map(|_| block(8, 1000.0, 50_000.0)).collect();
        let tl = run_sampled(&blocks, 200.0, true).timeline.unwrap();
        let json = serde_json::to_string(&tl).unwrap();
        let back: UtilizationTimeline = serde_json::from_str(&json).unwrap();
        assert_eq!(tl, back);
    }

    /// A block whose only segment issues allocator operations.
    fn alloc_block(ops: f64, fast: f64, tags: Vec<u32>) -> BlockTrace {
        let seg = MixedSeg {
            insts: 100.0,
            region_tags: tags,
            alloc_ops: ops,
            alloc_fast_ops: fast,
            ..Default::default()
        };
        BlockTrace {
            teams: vec![TeamTrace {
                phases: vec![Phase {
                    warps: vec![seg],
                    label: "alloc".into(),
                }],
                warp_count: 1,
            }],
            shared_mem_bytes: 0,
        }
    }

    fn run_alloc(blocks: &[BlockTrace], per_op: f64, contention: f64) -> TimingResult {
        let s = spec();
        let p = TimingParams {
            alloc_cycles_per_op: per_op,
            alloc_contention: contention,
            ..TimingParams::default()
        };
        simulate_timing(&TimingInputs {
            spec: &s,
            blocks,
            params: &p,
            footprint_multiplier: 1.0,
            collect_detail: false,
            collect_stalls: true,
            cycle_budget: None,
            sample_interval: None,
        })
    }

    #[test]
    fn alloc_latency_is_off_by_default() {
        // With the default params the allocator channel contributes no
        // cycles and no bucket, even for a trace full of allocator ops —
        // the bit-identity escape hatch.
        let blocks = vec![alloc_block(50.0, 10.0, vec![0])];
        let with_ops = run_stalls(&blocks);
        let without_ops = run_stalls(&[alloc_block(0.0, 0.0, vec![0])]);
        assert_eq!(with_ops.cycles, without_ops.cycles);
        assert_eq!(with_ops.stalls.unwrap().kernel.alloc, 0.0);
    }

    #[test]
    fn alloc_latency_binds_and_lands_in_the_alloc_bucket() {
        let blocks = vec![alloc_block(50.0, 0.0, vec![0])];
        let base = run_alloc(&blocks, 0.0, 0.0);
        let priced = run_alloc(&blocks, 1_000.0, 0.0);
        // 50 global-path ops × 1000 cycles dwarf the 100-inst segment.
        assert!(priced.cycles > base.cycles);
        assert!((priced.cycles - 50_000.0).abs() < 1.0, "{}", priced.cycles);
        let st = priced.stalls.unwrap();
        assert!(st.kernel.alloc > 0.9 * priced.cycles);
        assert_eq!(st.kernel.total(), priced.cycles);
    }

    #[test]
    fn free_list_hits_cost_a_quarter() {
        let slow = run_alloc(&[alloc_block(40.0, 0.0, vec![0])], 1_000.0, 0.0);
        let fast = run_alloc(&[alloc_block(40.0, 40.0, vec![0])], 1_000.0, 0.0);
        assert!(
            (slow.cycles / fast.cycles - 4.0).abs() < 0.1,
            "slow {} vs fast {}",
            slow.cycles,
            fast.cycles
        );
    }

    #[test]
    fn alloc_contention_scales_with_resident_heaps() {
        // One heap: no contention surcharge. Four heaps: 1 + 0.5×3 = 2.5×.
        let one = run_alloc(&[alloc_block(40.0, 0.0, vec![0])], 1_000.0, 0.5);
        let four: Vec<BlockTrace> = (0..4).map(|t| alloc_block(40.0, 0.0, vec![t])).collect();
        let contended = run_alloc(&four, 1_000.0, 0.5);
        // Blocks run concurrently, so kernel cycles track the per-block
        // allocator latency, which the contention factor scales.
        assert!(
            (contended.cycles / one.cycles - 2.5).abs() < 0.1,
            "contended {} vs lone {}",
            contended.cycles,
            one.cycles
        );
    }
}
