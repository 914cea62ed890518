use crate::trace::{MixedSeg, Phase, TeamTrace};
use gpu_mem::{coalesce, AccessError, AllocError, DeviceMemory, DevicePtr, Scalar, WARP_LANES};

/// Hook through which device code reaches the host (RPC). The offload
/// runtime installs an implementation backed by `host-rpc`; `service` keys
/// the target service, the payload is an opaque serialized request.
pub type HostCallHook<'a> = dyn FnMut(u32, &[u8]) -> Result<Vec<u8>, String> + 'a;

/// Instruction-cost constants of the functional execution model. These are
/// the per-operation charges folded into warp segments; they are mechanism
/// constants shared by all applications, not per-benchmark tuning.
mod cost {
    /// Issue cost of one global-memory load/store instruction.
    pub const MEM_OP: f64 = 1.0;
    /// Loop/bookkeeping overhead per parallel-for iteration.
    pub const ITER_OVERHEAD: f64 = 2.0;
    /// Shared-memory access.
    pub const SHARED_OP: f64 = 1.0;
    /// Global atomic read-modify-write beyond its memory transaction.
    pub const ATOMIC_EXTRA: f64 = 6.0;
    /// Device-side malloc/free bookkeeping.
    pub const MALLOC: f64 = 400.0;
    /// Kernel prologue per warp (argument setup, state machine).
    pub const WARP_PROLOGUE: f64 = 120.0;
}

/// Errors surfaced while executing a kernel functionally.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelError {
    /// Illegal device-memory access (the simulated `CUDA_ERROR_ILLEGAL_ADDRESS`).
    Access(AccessError),
    /// Device-side allocation failure.
    Alloc(AllocError),
    /// Shared-memory request beyond the per-block limit.
    SharedMemExhausted { requested: u64, limit: u64 },
    /// Device code called a host service that the compiled image does not
    /// provide an RPC stub for.
    HostCallUnavailable { service: u32 },
    /// The host service itself failed.
    HostCallFailed(String),
    /// The watchdog killed the team after it exceeded its per-instance
    /// cycle budget (see `TimingInputs::cycle_budget`).
    Timeout { budget_cycles: f64 },
    /// Application-level error.
    App(String),
}

impl From<AccessError> for KernelError {
    fn from(e: AccessError) -> Self {
        KernelError::Access(e)
    }
}

impl From<AllocError> for KernelError {
    fn from(e: AllocError) -> Self {
        KernelError::Alloc(e)
    }
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::Access(e) => write!(f, "illegal device access: {e}"),
            KernelError::Alloc(e) => write!(f, "device allocation failed: {e}"),
            KernelError::SharedMemExhausted { requested, limit } => {
                write!(f, "shared memory exhausted: {requested} B > {limit} B")
            }
            KernelError::HostCallUnavailable { service } => {
                write!(f, "no RPC stub for host service {service}")
            }
            KernelError::HostCallFailed(m) => write!(f, "host call failed: {m}"),
            KernelError::Timeout { budget_cycles } => {
                write!(f, "watchdog timeout: exceeded {budget_cycles} cycle budget")
            }
            KernelError::App(m) => write!(f, "application error: {m}"),
        }
    }
}

impl std::error::Error for KernelError {}

/// Typed handle to a team-local shared-memory array.
#[derive(Debug, Clone, Copy)]
pub struct SharedBuf<T> {
    offset: usize,
    len: usize,
    _t: std::marker::PhantomData<T>,
}

impl<T> SharedBuf<T> {
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// One memory-access record inside a single iteration.
#[derive(Debug, Clone, Copy)]
struct Rec {
    addr: u64,
    size: u8,
}

/// Per-lane scratch state for the current round of a parallel phase.
#[derive(Debug, Default)]
pub(crate) struct LaneScratch {
    recs: Vec<Rec>,
    /// Shared-memory byte offsets accessed this round, in program order
    /// (for bank-conflict analysis).
    shared_recs: Vec<u32>,
    insts: f64,
    rpc: u64,
    /// Device-heap allocator operations issued by this lane this round.
    alloc_ops: f64,
    /// The subset of `alloc_ops` served from a per-team free list.
    alloc_fast_ops: f64,
}

impl LaneScratch {
    fn clear(&mut self) {
        self.recs.clear();
        self.shared_recs.clear();
        self.insts = 0.0;
        self.rpc = 0;
        self.alloc_ops = 0.0;
        self.alloc_fast_ops = 0.0;
    }
}

/// Number of shared-memory banks (4-byte wide), as on NVIDIA devices.
const SHARED_BANKS: u32 = 32;

/// Serialization degree of one warp-wide shared-memory access (at most
/// [`WARP_LANES`] byte offsets): the maximum number of *distinct
/// addresses* mapped to the same bank. Lanes reading the same address
/// broadcast and do not conflict. A word lies in exactly one bank, so
/// counting each distinct word once in its bank gives the degree.
fn bank_conflict_degree(offsets: &[u32]) -> u32 {
    debug_assert!(offsets.len() <= WARP_LANES);
    let mut words = [0u32; WARP_LANES];
    let mut distinct = 0;
    let mut per_bank = [0u32; SHARED_BANKS as usize];
    for &off in offsets {
        let word = off / 4;
        if !words[..distinct].contains(&word) {
            words[distinct] = word;
            distinct += 1;
            per_bank[(word % SHARED_BANKS) as usize] += 1;
        }
    }
    per_bank.into_iter().fold(1, u32::max)
}

/// State shared between the team and its lanes during functional execution.
struct TeamInner<'g> {
    mem: &'g mut DeviceMemory,
    host_call: Option<&'g mut HostCallHook<'g>>,
    /// Services for which the compiled image generated RPC stubs; `None`
    /// means "all" (used by tests and raw simulator users).
    rpc_services: Option<Vec<u32>>,
    shared: Vec<u8>,
    shared_limit: u64,
    /// The team's id, which is also the tag of every heap region it
    /// allocates (the instance id under ensemble execution).
    team_id: u32,
}

/// The execution context handed to one lane (thread) of a team.
///
/// All device work flows through this type: global loads/stores are
/// bounds-checked against simulated memory *and* recorded for coalescing
/// analysis; arithmetic is accounted through [`LaneCtx::work`].
pub struct LaneCtx<'t, 'g> {
    inner: &'t mut TeamInner<'g>,
    scratch: &'t mut LaneScratch,
}

impl<'t, 'g> LaneCtx<'t, 'g> {
    /// The heap-region tag of this team — the instance id under ensemble
    /// execution. Device-libc stubs use it to label RPC requests.
    pub fn tag(&self) -> u32 {
        self.inner.team_id
    }

    /// Load a scalar from global memory.
    pub fn ld<T: Scalar>(&mut self, p: DevicePtr) -> Result<T, KernelError> {
        let v = self.inner.mem.load::<T>(p)?;
        self.scratch.recs.push(Rec {
            addr: p.0,
            size: T::SIZE as u8,
        });
        self.scratch.insts += cost::MEM_OP;
        Ok(v)
    }

    /// Store a scalar to global memory.
    pub fn st<T: Scalar>(&mut self, p: DevicePtr, v: T) -> Result<(), KernelError> {
        self.inner.mem.store::<T>(p, v)?;
        self.scratch.recs.push(Rec {
            addr: p.0,
            size: T::SIZE as u8,
        });
        self.scratch.insts += cost::MEM_OP;
        Ok(())
    }

    /// Load element `i` of a typed array at `base`.
    pub fn ld_idx<T: Scalar>(&mut self, base: DevicePtr, i: u64) -> Result<T, KernelError> {
        self.ld(base.elem_add::<T>(i))
    }

    /// Store element `i` of a typed array at `base`.
    pub fn st_idx<T: Scalar>(&mut self, base: DevicePtr, i: u64, v: T) -> Result<(), KernelError> {
        self.st(base.elem_add::<T>(i), v)
    }

    /// Account `insts` warp instructions of arithmetic (FLOPs, ALU ops,
    /// branches) executed by this lane.
    pub fn work(&mut self, insts: f64) {
        self.scratch.insts += insts;
    }

    /// Global-memory atomic add on an `f64`; returns the previous value.
    pub fn atomic_add_f64(&mut self, p: DevicePtr, v: f64) -> Result<f64, KernelError> {
        let old = self.inner.mem.load::<f64>(p)?;
        self.inner.mem.store::<f64>(p, old + v)?;
        self.scratch.recs.push(Rec { addr: p.0, size: 8 });
        self.scratch.insts += cost::MEM_OP + cost::ATOMIC_EXTRA;
        Ok(old)
    }

    /// Global-memory atomic add on a `u64`; returns the previous value.
    pub fn atomic_add_u64(&mut self, p: DevicePtr, v: u64) -> Result<u64, KernelError> {
        let old = self.inner.mem.load::<u64>(p)?;
        self.inner.mem.store::<u64>(p, old.wrapping_add(v))?;
        self.scratch.recs.push(Rec { addr: p.0, size: 8 });
        self.scratch.insts += cost::MEM_OP + cost::ATOMIC_EXTRA;
        Ok(old)
    }

    /// Allocate `bytes` of device-heap memory, tagged with this team's tag.
    /// This is the primitive `device-libc`'s `malloc` is built on.
    pub fn dev_alloc(&mut self, bytes: u64) -> Result<DevicePtr, KernelError> {
        let tag = self.inner.team_id;
        let recycled_before = self.inner.mem.stats().recycled_allocations;
        let p = self
            .inner
            .mem
            .alloc_tagged(bytes, gpu_mem::Backing::Materialized, tag)?;
        self.scratch.insts += cost::MALLOC;
        self.scratch.alloc_ops += 1.0;
        if self.inner.mem.stats().recycled_allocations > recycled_before {
            self.scratch.alloc_fast_ops += 1.0;
        }
        Ok(p)
    }

    /// Reserve `bytes` of device address space without materializing host
    /// backing. Applications use this to model their *paper-scale* data
    /// footprint (for out-of-memory behaviour) while running functionally
    /// on scaled-down materialized arrays.
    pub fn dev_reserve(&mut self, bytes: u64) -> Result<DevicePtr, KernelError> {
        let tag = self.inner.team_id;
        let recycled_before = self.inner.mem.stats().recycled_allocations;
        let p = self
            .inner
            .mem
            .alloc_tagged(bytes, gpu_mem::Backing::Reserved, tag)?;
        self.scratch.alloc_ops += 1.0;
        if self.inner.mem.stats().recycled_allocations > recycled_before {
            self.scratch.alloc_fast_ops += 1.0;
        }
        Ok(p)
    }

    /// Free device-heap memory allocated with [`LaneCtx::dev_alloc`].
    pub fn dev_free(&mut self, p: DevicePtr) -> Result<(), KernelError> {
        self.inner.mem.free(p)?;
        self.scratch.insts += cost::MALLOC;
        self.scratch.alloc_ops += 1.0;
        Ok(())
    }

    /// Read from a shared-memory array.
    pub fn sh_ld<T: Scalar>(&mut self, buf: &SharedBuf<T>, i: usize) -> Result<T, KernelError> {
        assert!(i < buf.len, "shared read at {i} past length {}", buf.len);
        let off = buf.offset + i * T::SIZE;
        self.scratch.insts += cost::SHARED_OP;
        self.scratch.shared_recs.push(off as u32);
        Ok(T::load_le(&self.inner.shared[off..off + T::SIZE]))
    }

    /// Write to a shared-memory array.
    pub fn sh_st<T: Scalar>(
        &mut self,
        buf: &SharedBuf<T>,
        i: usize,
        v: T,
    ) -> Result<(), KernelError> {
        assert!(i < buf.len, "shared write at {i} past length {}", buf.len);
        let off = buf.offset + i * T::SIZE;
        self.scratch.insts += cost::SHARED_OP;
        self.scratch.shared_recs.push(off as u32);
        v.store_le(&mut self.inner.shared[off..off + T::SIZE]);
        Ok(())
    }

    /// Perform a blocking host RPC round trip.
    pub fn host_call(&mut self, service: u32, payload: &[u8]) -> Result<Vec<u8>, KernelError> {
        if let Some(allowed) = &self.inner.rpc_services {
            if !allowed.contains(&service) {
                return Err(KernelError::HostCallUnavailable { service });
            }
        }
        let Some(hook) = self.inner.host_call.as_mut() else {
            return Err(KernelError::HostCallUnavailable { service });
        };
        self.scratch.rpc += 1;
        hook(service, payload).map_err(KernelError::HostCallFailed)
    }
}

/// Per-team execution context: the device-side view one application
/// instance gets under the direct GPU compilation scheme.
///
/// The OpenMP execution structure maps directly: [`TeamCtx::serial`] is the
/// sequential part of `__user_main` (one initial thread), and
/// [`TeamCtx::parallel_for`] is an `omp parallel for` with a static chunk-1
/// schedule across the team's `thread_limit` threads. An implicit barrier
/// separates phases.
pub struct TeamCtx<'g> {
    inner: TeamInner<'g>,
    trace: TeamTrace,
    num_teams: u32,
    lane_count: u32,
    scratches: Vec<LaneScratch>,
    error: Option<KernelError>,
}

impl<'g> TeamCtx<'g> {
    /// Create a context for team `team_id` of `num_teams`, with
    /// `lane_count` usable threads, tagging its allocations `team_id`.
    pub fn new(
        mem: &'g mut DeviceMemory,
        team_id: u32,
        num_teams: u32,
        lane_count: u32,
        shared_limit: u64,
    ) -> Self {
        Self::with_lanes(
            mem,
            team_id,
            num_teams,
            lane_count,
            shared_limit,
            Vec::new(),
        )
    }

    /// [`TeamCtx::new`] on lane buffers an earlier team handed back through
    /// [`TeamCtx::finish_with_lanes`]. They keep their capacity, and their
    /// stale contents are never read: `serial` clears lane 0 before it
    /// runs, and each `parallel_for` round clears every lane.
    pub(crate) fn with_lanes(
        mem: &'g mut DeviceMemory,
        team_id: u32,
        num_teams: u32,
        lane_count: u32,
        shared_limit: u64,
        mut lanes: Vec<LaneScratch>,
    ) -> Self {
        assert!(lane_count >= 1, "a team needs at least one thread");
        lanes.resize_with(lane_count as usize, LaneScratch::default);
        let warp_count = lane_count.div_ceil(WARP_LANES as u32);
        let inner = TeamInner {
            mem,
            host_call: None,
            rpc_services: None,
            shared: Vec::new(),
            shared_limit,
            team_id,
        };
        let mut trace = TeamTrace {
            phases: Vec::new(),
            warp_count,
        };
        // Kernel prologue: every warp pays its setup cost in phase 0.
        trace.phases.push(Phase {
            warps: (0..warp_count)
                .map(|_| MixedSeg {
                    insts: cost::WARP_PROLOGUE,
                    ..Default::default()
                })
                .collect(),
            label: "prologue".into(),
        });
        Self {
            inner,
            trace,
            num_teams,
            lane_count,
            scratches: lanes,
            error: None,
        }
    }

    /// Install the host-RPC hook and the set of services the compiled image
    /// generated stubs for (`None` = all services reachable).
    pub fn set_host_call(&mut self, hook: &'g mut HostCallHook<'g>, services: Option<Vec<u32>>) {
        self.inner.host_call = Some(hook);
        self.inner.rpc_services = services;
    }

    pub fn team_id(&self) -> u32 {
        self.inner.team_id
    }

    pub fn num_teams(&self) -> u32 {
        self.num_teams
    }

    /// Usable threads in this team (the loader's `-t` thread limit).
    pub fn thread_limit(&self) -> u32 {
        self.lane_count
    }

    /// Allocate a team-local shared-memory array of `len` `T`s.
    pub fn shared_alloc<T: Scalar>(&mut self, len: usize) -> Result<SharedBuf<T>, KernelError> {
        let bytes = (len * T::SIZE) as u64;
        let used = self.inner.shared.len() as u64;
        if used + bytes > self.inner.shared_limit {
            return Err(KernelError::SharedMemExhausted {
                requested: used + bytes,
                limit: self.inner.shared_limit,
            });
        }
        let offset = self.inner.shared.len();
        self.inner.shared.resize(offset + len * T::SIZE, 0);
        Ok(SharedBuf {
            offset,
            len,
            _t: std::marker::PhantomData,
        })
    }

    /// Shared-memory bytes this team ended up using.
    pub fn shared_bytes_used(&self) -> u64 {
        self.inner.shared.len() as u64
    }

    /// Run a single-threaded region (the sequential portions of the user's
    /// `main`). Only the team's initial thread works; all other warps idle
    /// at the closing barrier.
    pub fn serial<R>(
        &mut self,
        label: &str,
        f: impl FnOnce(&mut LaneCtx<'_, 'g>) -> Result<R, KernelError>,
    ) -> Result<R, KernelError> {
        self.check_poisoned()?;
        self.scratches[0].clear();
        let result = {
            let mut lane = LaneCtx {
                inner: &mut self.inner,
                scratch: &mut self.scratches[0],
            };
            f(&mut lane)
        };
        let seg = Self::lone_lane_segment(&self.inner, &self.scratches[0]);
        let mut warps = vec![MixedSeg::default(); self.trace.warp_count as usize];
        warps[0] = seg;
        self.trace.phases.push(Phase {
            warps,
            label: label.to_string(),
        });
        self.poison_on_err(result)
    }

    /// Run an OpenMP-style `parallel for` over `trip` iterations with a
    /// static chunk-1 schedule across this team's threads: thread `t`
    /// executes iterations `t, t+T, t+2T, …` — the distribution that makes
    /// adjacent lanes touch adjacent elements (coalescing-friendly), as the
    /// LLVM OpenMP device runtime does.
    pub fn parallel_for(
        &mut self,
        label: &str,
        trip: u64,
        mut f: impl FnMut(u64, &mut LaneCtx<'_, 'g>) -> Result<(), KernelError>,
    ) -> Result<(), KernelError> {
        self.check_poisoned()?;
        let lanes = self.lane_count as u64;
        let warp_count = self.trace.warp_count as usize;
        let mut accums = vec![MixedSeg::default(); warp_count];
        let rounds = trip.div_ceil(lanes.max(1));
        let mut result: Result<(), KernelError> = Ok(());

        'rounds: for round in 0..rounds {
            for s in self.scratches.iter_mut() {
                s.clear();
            }
            for lane in 0..lanes {
                let i = round * lanes + lane;
                if i >= trip {
                    break;
                }
                let mut ctx = LaneCtx {
                    inner: &mut self.inner,
                    scratch: &mut self.scratches[lane as usize],
                };
                ctx.scratch.insts += cost::ITER_OVERHEAD;
                if let Err(e) = f(i, &mut ctx) {
                    result = Err(e);
                    break 'rounds;
                }
            }
            self.fold_round(&mut accums);
        }

        self.trace.phases.push(Phase {
            warps: accums,
            label: label.to_string(),
        });
        self.poison_on_err(result)
    }

    /// `parallel_for` with a sum reduction: each iteration contributes an
    /// `f64`, combined with the OpenMP `reduction(+)` semantics. The
    /// tree-reduction epilogue is charged to the trace.
    pub fn parallel_for_reduce_f64(
        &mut self,
        label: &str,
        trip: u64,
        mut f: impl FnMut(u64, &mut LaneCtx<'_, 'g>) -> Result<f64, KernelError>,
    ) -> Result<f64, KernelError> {
        let mut acc = 0.0f64;
        self.parallel_for(label, trip, |i, lane| {
            acc += f(i, lane)?;
            lane.work(1.0);
            Ok(())
        })?;
        // Tree reduction across threads: log2(T) shared-memory rounds.
        let steps = (self.lane_count.max(2) as f64).log2().ceil();
        let warp_count = self.trace.warp_count as usize;
        self.trace.phases.push(Phase {
            warps: (0..warp_count)
                .map(|_| MixedSeg {
                    insts: 4.0 * steps,
                    ..Default::default()
                })
                .collect(),
            label: format!("{label}:reduce"),
        });
        Ok(acc)
    }

    /// Explicit team barrier with no work (rarely needed; phases already
    /// synchronize implicitly).
    pub fn barrier(&mut self) {
        let warp_count = self.trace.warp_count as usize;
        self.trace.phases.push(Phase {
            warps: vec![MixedSeg::default(); warp_count],
            label: "barrier".into(),
        });
    }

    /// Finish execution and hand back the trace.
    pub fn finish(self) -> TeamTrace {
        self.trace
    }

    /// Finish execution and hand back the trace and the lane buffers, for
    /// the next team of the launch ([`TeamCtx::with_lanes`]).
    pub(crate) fn finish_with_lanes(self) -> (TeamTrace, Vec<LaneScratch>) {
        (self.trace, self.scratches)
    }

    /// The trace built so far (for inspection in tests).
    pub fn trace(&self) -> &TeamTrace {
        &self.trace
    }

    fn check_poisoned(&self) -> Result<(), KernelError> {
        match &self.error {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    fn poison_on_err<R>(&mut self, r: Result<R, KernelError>) -> Result<R, KernelError> {
        if let Err(e) = &r {
            self.error = Some(e.clone());
        }
        r
    }

    /// Build the segment for a single working lane (serial regions): every
    /// access coalesces alone.
    fn lone_lane_segment(inner: &TeamInner<'g>, scratch: &LaneScratch) -> MixedSeg {
        let mut seg = MixedSeg {
            insts: scratch.insts,
            rpc_calls: scratch.rpc,
            alloc_ops: scratch.alloc_ops,
            alloc_fast_ops: scratch.alloc_fast_ops,
            ..Default::default()
        };
        for rec in &scratch.recs {
            let r = coalesce(&[Some(rec.addr)], rec.size as u32);
            seg.sectors += r.sectors as u64;
            seg.moved_bytes += r.moved_bytes as f64;
            seg.useful_bytes += r.useful_bytes as f64;
            if let Some(region) = inner.mem.region_of(rec.addr) {
                seg.add_region_tag(region.tag);
                seg.add_region_footprint(region.start, region.len);
            }
        }
        seg
    }

    /// Coalesce and fold one round's per-lane records into the phase's
    /// warp accumulators. Lanes are grouped 32 to a warp; the k-th access
    /// of each lane coalesces positionally (lockstep assumption). Region
    /// tags and footprints are looked up here, after the round: an access
    /// into memory freed later in the round counts toward whatever holds
    /// its address by then.
    fn fold_round(&mut self, accums: &mut [MixedSeg]) {
        let lanes = self.lane_count as usize;
        for (w, accum) in accums.iter_mut().enumerate() {
            let lane_lo = w * WARP_LANES;
            let lane_hi = (lane_lo + WARP_LANES).min(lanes);
            if lane_lo >= lanes {
                break;
            }
            let warp_scratches = &self.scratches[lane_lo..lane_hi];

            // Compute: lockstep warps issue for as long as their slowest lane.
            let mut max_insts = 0.0f64;
            let mut rpc = 0u64;
            let mut alloc_ops = 0.0f64;
            let mut alloc_fast_ops = 0.0f64;
            let mut max_recs = 0usize;
            let mut max_shared_recs = 0usize;
            for s in warp_scratches {
                max_insts = max_insts.max(s.insts);
                rpc += s.rpc;
                alloc_ops += s.alloc_ops;
                alloc_fast_ops += s.alloc_fast_ops;
                max_recs = max_recs.max(s.recs.len());
                max_shared_recs = max_shared_recs.max(s.shared_recs.len());
            }
            accum.insts += max_insts;
            accum.rpc_calls += rpc;
            accum.alloc_ops += alloc_ops;
            accum.alloc_fast_ops += alloc_fast_ops;

            // Shared memory: a warp access replays once per conflicting
            // bank; charge the extra replays as issue work.
            let mut bank_offsets = [0u32; WARP_LANES];
            for k in 0..max_shared_recs {
                let mut n = 0;
                for s in warp_scratches {
                    if let Some(&off) = s.shared_recs.get(k) {
                        bank_offsets[n] = off;
                        n += 1;
                    }
                }
                let degree = bank_conflict_degree(&bank_offsets[..n]);
                accum.insts += (degree - 1) as f64;
            }

            // Memory: positional coalescing across lanes.
            let mut addrs = [None; WARP_LANES];
            let addrs = &mut addrs[..warp_scratches.len()];
            for k in 0..max_recs {
                let mut size = 0u32;
                let mut first_addr = None;
                for (slot, s) in addrs.iter_mut().zip(warp_scratches) {
                    *slot = s.recs.get(k).map(|rec| {
                        size = size.max(rec.size as u32);
                        rec.addr
                    });
                    first_addr = first_addr.or(*slot);
                }
                let r = coalesce(addrs, size);
                accum.sectors += r.sectors as u64;
                accum.moved_bytes += r.moved_bytes as f64;
                accum.useful_bytes += r.useful_bytes as f64;
                if let Some(addr) = first_addr {
                    if let Some(region) = self.inner.mem.region_of(addr) {
                        accum.add_region_tag(region.tag);
                        accum.add_region_footprint(region.start, region.len);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_mem::DeviceMemory;
    use proptest::prelude::*;

    fn mem() -> DeviceMemory {
        DeviceMemory::new(1 << 24)
    }

    #[test]
    fn parallel_for_writes_functionally() {
        let mut m = mem();
        let buf = m.alloc(8 * 1000).unwrap();
        let mut ctx = TeamCtx::new(&mut m, 0, 1, 128, 48 << 10);
        ctx.parallel_for("fill", 1000, |i, lane| {
            lane.st_idx::<f64>(buf, i, i as f64 * 2.0)
        })
        .unwrap();
        let trace = ctx.finish();
        assert_eq!(m.read_slice::<f64>(buf, 3).unwrap(), vec![0.0, 2.0, 4.0]);
        assert_eq!(m.load::<f64>(buf.elem_add::<f64>(999)).unwrap(), 1998.0);
        // 128 threads = 4 warps, plus the prologue phase.
        assert_eq!(trace.warp_count, 4);
        assert_eq!(trace.phases.len(), 2);
    }

    #[test]
    fn dense_writes_are_coalesced() {
        let mut m = mem();
        let buf = m.alloc(8 * 1024).unwrap();
        let mut ctx = TeamCtx::new(&mut m, 0, 1, 32, 48 << 10);
        ctx.parallel_for("fill", 1024, |i, lane| lane.st_idx::<f64>(buf, i, 1.0))
            .unwrap();
        let trace = ctx.finish();
        let seg = &trace.phases[1].warps[0];
        // 1024 f64 stores = 8192 useful bytes; perfectly coalesced = 256
        // sectors = 8192 moved bytes.
        assert_eq!(seg.useful_bytes, 8192.0);
        assert_eq!(seg.sectors, 256);
        assert!((seg.coalescing_efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn strided_reads_are_uncoalesced() {
        let mut m = mem();
        let n = 32 * 16usize;
        let src: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let buf = m.alloc_from_slice(&src, 0).unwrap();
        let mut ctx = TeamCtx::new(&mut m, 0, 1, 32, 48 << 10);
        let mut sum = 0.0;
        ctx.parallel_for("gather", 32, |i, lane| {
            // Stride of 16 elements = 128 bytes: every lane its own line.
            sum += lane.ld_idx::<f64>(buf, i * 16)?;
            Ok(())
        })
        .unwrap();
        let trace = ctx.finish();
        let seg = &trace.phases[1].warps[0];
        assert_eq!(seg.sectors, 32);
        assert!(seg.coalescing_efficiency() < 0.3);
        assert_eq!(sum, (0..32).map(|i| (i * 16) as f64).sum::<f64>());
    }

    #[test]
    fn serial_only_occupies_warp_zero() {
        let mut m = mem();
        let buf = m.alloc(64).unwrap();
        let mut ctx = TeamCtx::new(&mut m, 0, 1, 256, 48 << 10);
        ctx.serial("init", |lane| {
            lane.st::<u64>(buf, 42)?;
            lane.work(100.0);
            Ok(())
        })
        .unwrap();
        let trace = ctx.finish();
        let phase = &trace.phases[1];
        assert!(phase.warps[0].insts > 100.0);
        for w in &phase.warps[1..] {
            assert!(w.is_empty());
        }
    }

    #[test]
    fn reduce_returns_sum_and_adds_phase() {
        let mut m = mem();
        let src: Vec<f64> = (0..500).map(|i| i as f64).collect();
        let buf = m.alloc_from_slice(&src, 0).unwrap();
        let mut ctx = TeamCtx::new(&mut m, 0, 1, 64, 48 << 10);
        let total = ctx
            .parallel_for_reduce_f64("sum", 500, |i, lane| lane.ld_idx::<f64>(buf, i))
            .unwrap();
        assert_eq!(total, (0..500).map(|i| i as f64).sum::<f64>());
        let trace = ctx.finish();
        assert_eq!(trace.phases.len(), 3); // prologue, loop, reduce
    }

    #[test]
    fn region_tags_flow_into_trace() {
        let mut m = mem();
        let a = m
            .alloc_tagged(8 * 64, gpu_mem::Backing::Materialized, 5)
            .unwrap();
        let mut ctx = TeamCtx::new(&mut m, 5, 6, 32, 48 << 10);
        ctx.parallel_for("touch", 64, |i, lane| lane.st_idx::<f64>(a, i, 0.0))
            .unwrap();
        let trace = ctx.finish();
        assert_eq!(trace.region_tags(), vec![5]);
        let fps = trace.region_footprints();
        assert_eq!(fps.len(), 1);
        assert!(fps[0].1 >= 8 * 64);
    }

    #[test]
    fn access_fault_poisons_team() {
        let mut m = mem();
        let buf = m.alloc(8).unwrap();
        let mut ctx = TeamCtx::new(&mut m, 0, 1, 32, 48 << 10);
        let err = ctx
            .parallel_for("oob", 64, |i, lane| lane.st_idx::<f64>(buf, i, 0.0))
            .unwrap_err();
        assert!(matches!(err, KernelError::Access(_)));
        // Subsequent regions refuse to run.
        assert!(ctx.serial("after", |_| Ok(())).is_err());
    }

    #[test]
    fn bank_conflict_degree_cases() {
        // Conflict-free: 32 consecutive 4-byte words.
        let stride1: Vec<u32> = (0..32).map(|l| l * 4).collect();
        assert_eq!(bank_conflict_degree(&stride1), 1);
        // 2-way: stride of 2 words folds lanes 0/16, 1/17, … per bank.
        let stride2: Vec<u32> = (0..32).map(|l| l * 8).collect();
        assert_eq!(bank_conflict_degree(&stride2), 2);
        // Worst case: all lanes hit distinct words of one bank.
        let same_bank: Vec<u32> = (0..32).map(|l| l * 128).collect();
        assert_eq!(bank_conflict_degree(&same_bank), 32);
        // Broadcast: identical address does not conflict.
        let broadcast: Vec<u32> = vec![64; 32];
        assert_eq!(bank_conflict_degree(&broadcast), 1);
        assert_eq!(bank_conflict_degree(&[]), 1);
    }

    /// The per-bank `Vec` version of [`bank_conflict_degree`], kept as its
    /// reference.
    fn reference_bank_conflict_degree(offsets: &[u32]) -> u32 {
        let mut per_bank: [Vec<u32>; SHARED_BANKS as usize] = Default::default();
        for &off in offsets {
            let bank = ((off / 4) % SHARED_BANKS) as usize;
            let word = off / 4;
            if !per_bank[bank].contains(&word) {
                per_bank[bank].push(word);
            }
        }
        per_bank
            .iter()
            .map(|b| b.len() as u32)
            .max()
            .unwrap_or(0)
            .max(1)
    }

    proptest! {
        /// The stack-array degree equals the reference on 0–32 lanes of
        /// scattered byte offsets, of broadcasts (lanes sharing a few
        /// words) and of word strides, 32 words being one bank apart.
        #[test]
        fn bank_conflict_degree_matches_reference(
            (shape, lanes) in (0u8..3, 0usize..WARP_LANES + 1),
            base in 0u32..4_096,
            stride in prop::sample::select(vec![1u32, 2, 3, 4, 8, 16, 32, 64, 96, 128]),
            picks in prop::collection::vec(0u32..1 << 14, WARP_LANES),
        ) {
            let offsets: Vec<u32> = (0..lanes)
                .map(|l| match shape {
                    0 => picks[l],
                    1 => base + 4 * (picks[l] % 3),
                    _ => base + 4 * stride * l as u32,
                })
                .collect();
            prop_assert_eq!(
                bank_conflict_degree(&offsets),
                reference_bank_conflict_degree(&offsets)
            );
        }
    }

    #[test]
    fn bank_conflicts_charge_issue_work() {
        let run = |stride: u64| {
            let mut m = mem();
            let mut ctx = TeamCtx::new(&mut m, 0, 1, 32, 48 << 10);
            let buf = ctx.shared_alloc::<u32>(32 * 32).unwrap();
            ctx.parallel_for("sh", 32, |i, lane| {
                lane.sh_ld::<u32>(&buf, (i * stride) as usize)?;
                Ok(())
            })
            .unwrap();
            ctx.finish().total_insts()
        };
        let conflict_free = run(1); // consecutive words
        let conflicted = run(32); // all lanes in bank 0
        assert!(
            conflicted > conflict_free + 30.0,
            "32-way conflict ({conflicted}) must cost more than stride-1 ({conflict_free})"
        );
    }

    #[test]
    fn shared_memory_roundtrip_and_limit() {
        let mut m = mem();
        let mut ctx = TeamCtx::new(&mut m, 0, 1, 32, 1024);
        let buf = ctx.shared_alloc::<f64>(16).unwrap();
        ctx.serial("sh", |lane| {
            lane.sh_st(&buf, 3, 7.5)?;
            assert_eq!(lane.sh_ld::<f64>(&buf, 3)?, 7.5);
            Ok(())
        })
        .unwrap();
        assert!(matches!(
            ctx.shared_alloc::<f64>(1024),
            Err(KernelError::SharedMemExhausted { .. })
        ));
        assert_eq!(ctx.shared_bytes_used(), 128);
    }

    #[test]
    fn dev_alloc_inside_kernel() {
        let mut m = mem();
        let mut ctx = TeamCtx::new(&mut m, 9, 10, 32, 48 << 10);
        let p = ctx
            .serial("alloc", |lane| {
                let p = lane.dev_alloc(256)?;
                lane.st::<u32>(p, 123)?;
                Ok(p)
            })
            .unwrap();
        assert_eq!(m.load::<u32>(p).unwrap(), 123);
        assert_eq!(m.region_of(p.0).unwrap().tag, 9);
    }

    #[test]
    fn host_call_requires_stub() {
        let mut m = mem();
        let mut ctx = TeamCtx::new(&mut m, 0, 1, 32, 48 << 10);
        let mut hook = |svc: u32, payload: &[u8]| -> Result<Vec<u8>, String> {
            assert_eq!(svc, 1);
            Ok(payload.to_vec())
        };
        ctx.set_host_call(&mut hook, Some(vec![1]));
        let out = ctx
            .serial("rpc", |lane| {
                // Allowed service echoes.
                let echoed = lane.host_call(1, b"hi")?;
                // Service 2 has no stub.
                assert!(matches!(
                    lane.host_call(2, b"no"),
                    Err(KernelError::HostCallUnavailable { service: 2 })
                ));
                Ok(echoed)
            })
            .unwrap();
        assert_eq!(out, b"hi");
        let trace = ctx.finish();
        assert_eq!(trace.total_rpc_calls(), 1);
    }

    #[test]
    fn atomic_add_returns_old() {
        let mut m = mem();
        let p = m.alloc(8).unwrap();
        m.store::<f64>(p, 10.0).unwrap();
        let mut ctx = TeamCtx::new(&mut m, 0, 1, 32, 48 << 10);
        ctx.serial("atomic", |lane| {
            assert_eq!(lane.atomic_add_f64(p, 2.5)?, 10.0);
            assert_eq!(lane.atomic_add_f64(p, 2.5)?, 12.5);
            Ok(())
        })
        .unwrap();
        assert_eq!(m.load::<f64>(p).unwrap(), 15.0);
    }

    #[test]
    fn iterations_beyond_lanes_wrap_rounds() {
        let mut m = mem();
        let buf = m.alloc(8 * 100).unwrap();
        let mut ctx = TeamCtx::new(&mut m, 0, 1, 32, 48 << 10);
        // 100 iterations on 32 lanes = 4 rounds (ceil).
        ctx.parallel_for("fill", 100, |i, lane| lane.st_idx::<f64>(buf, i, i as f64))
            .unwrap();
        assert_eq!(m.load::<f64>(buf.elem_add::<f64>(99)).unwrap(), 99.0);
    }
}
