//! Property-based tests for the device-memory substrate and the
//! two-level heap allocator's invariants.

use gpu_mem::{
    coalesce, AccessError, AllocError, Backing, DeviceMemory, DevicePtr, SECTOR_BYTES, WARP_LANES,
};
use proptest::prelude::*;

/// Reference coalescer: collect every touched sector, sort, dedup.
/// Returns (sectors, useful, moved bytes).
fn reference_coalesce(addrs: &[Option<u64>], size: u32) -> (u32, u64, u64) {
    let mut sectors: Vec<u64> = Vec::new();
    let mut useful = 0u64;
    for addr in addrs.iter().flatten() {
        useful += size as u64;
        let first = addr / SECTOR_BYTES;
        let last = (addr + size as u64 - 1) / SECTOR_BYTES;
        sectors.extend(first..=last);
    }
    sectors.sort_unstable();
    sectors.dedup();
    (
        sectors.len() as u32,
        useful,
        sectors.len() as u64 * SECTOR_BYTES,
    )
}

/// One warp's lane addresses in the shape `order` names: 0 affine
/// ascending, 1 affine descending, 2 scattered over a small pool (so
/// lanes repeat addresses), 3 just below sector ends (so wide accesses
/// straddle). Lanes whose `active` entry is 0 are predicated off.
fn warp(
    order: u8,
    lanes: usize,
    base: u64,
    stride: u64,
    pool: &[u64],
    active: &[u8],
) -> Vec<Option<u64>> {
    (0..lanes)
        .map(|l| {
            let addr = match order {
                0 => base + l as u64 * stride,
                1 => base + (lanes - 1 - l) as u64 * stride,
                2 => base + pool[l],
                _ => {
                    (base / SECTOR_BYTES + 1 + l as u64 * (stride / 8 + 1)) * SECTOR_BYTES
                        - pool[l] % 8
                }
            };
            (active[l] != 0).then_some(addr)
        })
        .collect()
}

/// The coalescer counts sectors in a 128-sector bitmap from 64 sectors
/// below the first active lane's sector, and sorts only when a sector
/// falls outside it. Each warp here puts a lane on or just past an edge
/// of that bitmap, with the first active lane behind inactive ones.
#[test]
fn coalesce_bitmap_edges_match_reference() {
    // Byte `off` of the sector `s` sectors away from the first lane's.
    let at = |s: i64, off: u64| 1_000u64.wrapping_add_signed(s) * SECTOR_BYTES + off;
    let lead = at(0, 8);
    let cases: [(&str, Vec<u64>, u32); 7] = [
        ("lowest sector in", vec![at(-64, 0)], 8),
        ("highest sector in", vec![at(63, 24)], 8),
        ("first sector above", vec![at(64, 0)], 8),
        ("first sector below", vec![at(-65, 24)], 8),
        ("straddle out of the top", vec![at(63, 24)], 16),
        ("straddle into the bottom", vec![at(-65, 24)], 16),
        (
            "both edges and beyond",
            vec![at(-64, 0), at(63, 28), at(64, 0), at(0, 4)],
            4,
        ),
    ];
    for (name, others, size) in cases {
        let addrs: Vec<Option<u64>> = [None, Some(lead), None]
            .into_iter()
            .chain(others.into_iter().map(Some))
            .collect();
        let r = coalesce(&addrs, size);
        assert_eq!(
            (r.sectors, r.useful_bytes, r.moved_bytes),
            reference_coalesce(&addrs, size),
            "{name}"
        );
    }
    // A first lane near address 0 puts the bitmap's base below zero.
    let low = [Some(8), Some(3 * SECTOR_BYTES), Some(70 * SECTOR_BYTES)];
    let r = coalesce(&low, 8);
    assert_eq!(
        (r.sectors, r.useful_bytes, r.moved_bytes),
        reference_coalesce(&low, 8)
    );
}

proptest! {
    /// Live allocations never overlap and stay inside the heap, across an
    /// arbitrary interleaving of allocs and frees.
    #[test]
    fn allocations_never_overlap(ops in prop::collection::vec((0u8..2, 1u64..10_000), 1..120)) {
        let mut mem = DeviceMemory::new(1 << 22);
        let mut live: Vec<(u64, u64)> = Vec::new(); // (start, requested len)
        for (op, size) in ops {
            if op == 0 {
                if let Ok(p) = mem.alloc(size) {
                    for &(s, l) in &live {
                        let sep = p.0 + size <= s || s + l <= p.0;
                        prop_assert!(sep, "overlap: [{:#x},+{}) vs [{:#x},+{})", p.0, size, s, l);
                    }
                    live.push((p.0, size));
                }
            } else if let Some((s, _)) = live.pop() {
                mem.free(DevicePtr(s)).unwrap();
            }
        }
    }

    /// Accounting invariant: after freeing everything, the heap is whole.
    #[test]
    fn full_free_restores_capacity(sizes in prop::collection::vec(1u64..100_000, 1..60)) {
        let mut mem = DeviceMemory::new(1 << 24);
        let ptrs: Vec<_> = sizes.iter().filter_map(|&s| mem.alloc(s).ok()).collect();
        // Free in a scrambled (reversed-evens-then-odds) order.
        for (i, p) in ptrs.iter().enumerate().filter(|(i, _)| i % 2 == 0) {
            let _ = i;
            mem.free(*p).unwrap();
        }
        for (i, p) in ptrs.iter().enumerate().filter(|(i, _)| i % 2 == 1) {
            let _ = i;
            mem.free(*p).unwrap();
        }
        prop_assert_eq!(mem.free_bytes(), 1 << 24);
        prop_assert_eq!(mem.stats().live_allocations, 0);
    }

    /// Stored scalars read back exactly, at any in-bounds offset.
    #[test]
    fn store_load_roundtrip(vals in prop::collection::vec(any::<f64>(), 1..100)) {
        let mut mem = DeviceMemory::new(1 << 20);
        let p = mem.alloc(vals.len() as u64 * 8).unwrap();
        for (i, v) in vals.iter().enumerate() {
            mem.store::<f64>(p.elem_add::<f64>(i as u64), *v).unwrap();
        }
        for (i, v) in vals.iter().enumerate() {
            let got = mem.load::<f64>(p.elem_add::<f64>(i as u64)).unwrap();
            prop_assert!(got == *v || (got.is_nan() && v.is_nan()));
        }
    }

    /// Coalescing bounds: sector count is between 1 and 2×lanes for any
    /// non-empty access set, and moved ≥ useful.
    #[test]
    fn coalesce_bounds(addrs in prop::collection::vec(0u64..1_000_000, 1..32), size in prop::sample::select(vec![1u32, 2, 4, 8])) {
        let lanes: Vec<Option<u64>> = addrs.iter().map(|&a| Some(a)).collect();
        let r = coalesce(&lanes, size);
        prop_assert!(r.sectors >= 1);
        prop_assert!(r.sectors as u64 <= 2 * lanes.len() as u64);
        prop_assert!(r.moved_bytes >= r.useful_bytes);
        prop_assert_eq!(r.moved_bytes, r.sectors as u64 * SECTOR_BYTES);
    }

    /// Coalescing is monotone in stride: a larger stride never touches
    /// fewer sectors (for aligned element-sized accesses).
    #[test]
    fn coalesce_monotone_in_stride(base in 0u64..10_000, lanes in 1u32..33) {
        let mut prev = 0;
        for stride_elems in 1u64..8 {
            let addrs: Vec<Option<u64>> =
                (0..lanes as u64).map(|l| Some(base * 8 + l * stride_elems * 8)).collect();
            let r = coalesce(&addrs, 8);
            prop_assert!(r.sectors >= prev, "stride {stride_elems}: {} < {prev}", r.sectors);
            prev = r.sectors;
        }
    }

    /// The coalescer agrees with the sort-and-dedup reference on every
    /// warp shape: 0–32 lanes, inactive lanes, sizes 1–32, duplicates,
    /// straddles, ascending, descending and scattered.
    #[test]
    fn coalesce_matches_reference(
        (order, lanes, base, size) in (0u8..4, 0usize..WARP_LANES + 1, 1u64..100_000, prop::sample::select(vec![1u32, 2, 4, 8, 16, 32])),
        stride in prop::sample::select(vec![0u64, 1, 2, 4, 8, 12, 16, 24, 32, 40, 64, 256]),
        pool in prop::collection::vec(0u64..512, WARP_LANES),
        active in prop::collection::vec(0u8..4, WARP_LANES),
    ) {
        let addrs = warp(order, lanes, base, stride, &pool, &active);
        let r = coalesce(&addrs, size);
        prop_assert_eq!((r.sectors, r.useful_bytes, r.moved_bytes), reference_coalesce(&addrs, size));
    }

    /// Reserved allocations consume capacity exactly like materialized
    /// ones (the OOM-modeling contract).
    #[test]
    fn reserved_and_materialized_account_identically(size in 256u64..1_000_000) {
        let mut a = DeviceMemory::new(1 << 22);
        let mut b = DeviceMemory::new(1 << 22);
        a.alloc_tagged(size, Backing::Materialized, 0).unwrap();
        b.alloc_tagged(size, Backing::Reserved, 0).unwrap();
        prop_assert_eq!(a.free_bytes(), b.free_bytes());
        prop_assert_eq!(a.stats().bytes_in_use, b.stats().bytes_in_use);
    }
}

// ---------------------------------------------------------------------------
// Two-level allocator invariants: arbitrary op interleavings, every step
// validated against `debug_validate`'s full O(n) re-derivation of the
// incremental ledger (free-byte counter, hole multiset, largest hole,
// per-tag accounting, ring contents, byte conservation, exact tiling).
// ---------------------------------------------------------------------------

const CAPACITY: u64 = 1 << 20; // 1 MiB: small enough that OOM paths fire.

/// One scripted heap operation. Free indices are taken modulo the
/// current live set so every generated script is valid by construction.
#[derive(Debug, Clone)]
enum Op {
    Alloc { len: u64, tag: u32 },
    Free { idx: usize },
    FreeByTag { tag: u32 },
    SetFreeLists { enabled: bool },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The shim's `prop_oneof!` chooses uniformly; repeating the hot arms
    // biases scripts toward allocation/free churn.
    prop_oneof![
        (1u64..200_000, 0u32..5).prop_map(|(len, tag)| Op::Alloc { len, tag }),
        (1u64..200_000, 0u32..5).prop_map(|(len, tag)| Op::Alloc { len, tag }),
        (1u64..200_000, 0u32..5).prop_map(|(len, tag)| Op::Alloc { len, tag }),
        (1u64..200_000, 0u32..5).prop_map(|(len, tag)| Op::Alloc { len, tag }),
        any::<usize>().prop_map(|idx| Op::Free { idx }),
        any::<usize>().prop_map(|idx| Op::Free { idx }),
        any::<usize>().prop_map(|idx| Op::Free { idx }),
        (0u32..5).prop_map(|tag| Op::FreeByTag { tag }),
        any::<bool>().prop_map(|enabled| Op::SetFreeLists { enabled }),
    ]
}

/// Allocations are 256-byte aligned and their regions span the aligned
/// length, every byte of it backed.
const ALIGN: u64 = 256;

/// The script's own model of one live region.
#[derive(Debug, Clone, Copy)]
struct Live {
    ptr: DevicePtr,
    len: u64,
    tag: u32,
}

/// What an access of `size` bytes at `addr` must give, by the model.
fn predict(live: &[Live], addr: u64, size: u64) -> Result<(), AccessError> {
    if addr == 0 {
        return Err(AccessError::Null);
    }
    match live
        .iter()
        .find(|r| r.ptr.0 <= addr && addr < r.ptr.0 + r.len)
    {
        None => Err(AccessError::Unmapped { addr }),
        Some(r) if addr + size > r.ptr.0 + r.len => Err(AccessError::OutOfBounds {
            addr,
            size,
            region_end: r.ptr.0 + r.len,
        }),
        Some(_) => Ok(()),
    }
}

/// Load and store at `addr` (one byte, or a `u16` when `wide`) and check
/// both against the model.
fn probe(mem: &mut DeviceMemory, live: &[Live], addr: u64, wide: bool) {
    let ptr = DevicePtr(addr);
    let (load, store, size) = if wide {
        let load = mem.load::<u16>(ptr).map(drop);
        (load, mem.store::<u16>(ptr, 0xa5a5), 2)
    } else {
        let load = mem.load::<u8>(ptr).map(drop);
        (load, mem.store::<u8>(ptr, 0xa5), 1)
    };
    let want = predict(live, addr, size);
    assert_eq!(load, want, "load of {size} B at {addr:#x}");
    assert_eq!(store, want, "store of {size} B at {addr:#x}");
}

/// Probe the access path after an op: inside the first and the newest
/// live region, at their last byte (alone and straddling the end), one
/// byte past their end, and at every start the op just freed.
fn probe_accesses(mem: &mut DeviceMemory, live: &[Live], freed: &[u64]) {
    for r in [live.first(), live.last()].into_iter().flatten() {
        let end = r.ptr.0 + r.len;
        probe(mem, live, r.ptr.0 + r.len / 2, false);
        probe(mem, live, end - 1, false);
        probe(mem, live, end - 1, true);
        probe(mem, live, end, false);
    }
    for &start in freed {
        probe(mem, live, start, false);
    }
}

/// Run a script against a fresh heap, validating after every op and
/// probing loads and stores against the script's model of live regions. Returns
/// the heap with all remaining live pointers freed (and validated).
fn run_script(ops: &[Op], free_lists_at_start: bool) -> DeviceMemory {
    let mut mem = DeviceMemory::new(CAPACITY);
    mem.set_free_lists(free_lists_at_start);
    let mut live: Vec<Live> = Vec::new();
    for op in ops {
        let mut freed = Vec::new();
        match op {
            Op::Alloc { len, tag } => match mem.alloc_tagged(*len, Backing::Materialized, *tag) {
                Ok(ptr) => live.push(Live {
                    ptr,
                    len: len.div_ceil(ALIGN) * ALIGN,
                    tag: *tag,
                }),
                Err(AllocError::OutOfMemory { free, .. }) => {
                    // The OOM report's `free` is the incremental counter;
                    // it must agree with the heap's own view.
                    assert_eq!(free, mem.free_bytes());
                }
                Err(e) => panic!("unexpected alloc error: {e:?}"),
            },
            Op::Free { idx } => {
                if !live.is_empty() {
                    let r = live.swap_remove(idx % live.len());
                    mem.free(r.ptr).expect("live pointer frees cleanly");
                    freed.push(r.ptr.0);
                }
            }
            Op::FreeByTag { tag } => {
                let n = mem.free_by_tag(*tag);
                freed.extend(live.iter().filter(|r| r.tag == *tag).map(|r| r.ptr.0));
                live.retain(|r| r.tag != *tag);
                assert_eq!(n, freed.len(), "free_by_tag frees the tag's regions");
            }
            Op::SetFreeLists { enabled } => mem.set_free_lists(*enabled),
        }
        mem.debug_validate().expect("heap invariants hold after op");
        probe_accesses(&mut mem, &live, &freed);
    }
    for r in live {
        mem.free(r.ptr).expect("teardown free succeeds");
        mem.debug_validate()
            .expect("heap invariants hold during teardown");
    }
    mem
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The core invariant suite: any op interleaving with free lists ON
    /// keeps every ledger consistent with a full scan.
    #[test]
    fn heap_invariants_hold_with_free_lists(ops in prop::collection::vec(op_strategy(), 1..80)) {
        run_script(&ops, true);
    }

    /// Same scripts with free lists OFF at the start: the legacy
    /// single-level configuration obeys the same invariants (and any
    /// mid-script `SetFreeLists` flip must flush cleanly both ways).
    #[test]
    fn heap_invariants_hold_without_free_lists(ops in prop::collection::vec(op_strategy(), 1..80)) {
        run_script(&ops, false);
    }

    /// After every script, full teardown restores the pristine heap: one
    /// maximal hole, zero bytes in use, zero bytes parked.
    #[test]
    fn full_teardown_restores_one_maximal_hole(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let mut mem = run_script(&ops, true);
        mem.set_free_lists(false); // flush rings back into the global list
        mem.debug_validate().expect("flush preserves invariants");
        prop_assert_eq!(mem.stats().bytes_in_use, 0);
        prop_assert_eq!(mem.cached_bytes(), 0);
        prop_assert_eq!(mem.free_bytes(), CAPACITY);
        prop_assert_eq!(mem.largest_free_block(), CAPACITY);
        prop_assert_eq!(mem.fragmentation(), 0.0);
    }

    /// Byte conservation as a standalone property: in-use + free is the
    /// capacity at every step, whichever level owns the free bytes.
    #[test]
    fn bytes_are_conserved(ops in prop::collection::vec(op_strategy(), 1..80)) {
        let mut mem = DeviceMemory::new(CAPACITY);
        mem.set_free_lists(true);
        let mut live: Vec<DevicePtr> = Vec::new();
        for op in &ops {
            match op {
                Op::Alloc { len, tag } => {
                    if let Ok(p) = mem.alloc_tagged(*len, Backing::Materialized, *tag) {
                        live.push(p);
                    }
                }
                Op::Free { idx } => {
                    if !live.is_empty() {
                        let p = live.swap_remove(idx % live.len());
                        mem.free(p).expect("live pointer frees cleanly");
                    }
                }
                Op::FreeByTag { tag } => {
                    mem.free_by_tag(*tag);
                    live.retain(|p| mem.region_of(p.0).is_some());
                }
                Op::SetFreeLists { enabled } => mem.set_free_lists(*enabled),
            }
            prop_assert_eq!(mem.stats().bytes_in_use + mem.free_bytes(), CAPACITY);
        }
    }

    /// Recycled blocks never leak tag accounting: allocating and bulk-
    /// freeing a tag always returns its bytes, no matter what another
    /// tag holds concurrently.
    #[test]
    fn free_by_tag_reclaims_every_byte(
        sizes in prop::collection::vec(1u64..50_000, 1..12),
        other in prop::collection::vec(1u64..50_000, 0..6),
    ) {
        let mut mem = DeviceMemory::new(CAPACITY);
        mem.set_free_lists(true);
        for len in &other {
            mem.alloc_tagged(*len, Backing::Materialized, 7).expect("other-tag alloc fits");
        }
        let before = mem.stats().bytes_in_use;
        for len in &sizes {
            mem.alloc_tagged(*len, Backing::Materialized, 3).expect("tag-3 alloc fits");
        }
        mem.free_by_tag(3);
        mem.debug_validate().expect("invariants hold after bulk free");
        prop_assert_eq!(mem.stats().bytes_in_use, before);
        prop_assert_eq!(mem.tag_peak_bytes(3) > 0, true);
    }
}
