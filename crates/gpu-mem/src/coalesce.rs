use serde::{Deserialize, Serialize};

/// DRAM sector size: the granularity of a global-memory transaction.
pub const SECTOR_BYTES: u64 = 32;

/// Lanes in one warp: the most addresses one [`coalesce`] call takes.
pub const WARP_LANES: usize = 32;

/// Result of coalescing one warp-wide access.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoalesceResult {
    /// Number of 32-byte sectors touched (the transaction count).
    pub sectors: u32,
    /// Bytes the program actually asked for.
    pub useful_bytes: u64,
    /// Bytes moved from DRAM (`sectors * 32`).
    pub moved_bytes: u64,
}

impl CoalesceResult {
    /// Fraction of moved bytes that were useful (1.0 = perfectly coalesced).
    pub fn efficiency(&self) -> f64 {
        if self.moved_bytes == 0 {
            1.0
        } else {
            self.useful_bytes as f64 / self.moved_bytes as f64
        }
    }
}

/// Sectors in [`coalesce`]'s bitmap: the window around the first active
/// lane's sector that it counts without sorting.
const WINDOW_SECTORS: u64 = 128;

/// Coalesce one warp access: each active lane supplies the address of an
/// `size`-byte element; the hardware merges them into 32-byte sector
/// transactions.
///
/// `addrs` holds one entry per lane of one warp (at most [`WARP_LANES`]);
/// `None` marks an inactive lane (predicated off or beyond the loop
/// bound). `size` is a scalar size of at most one sector, so an access
/// that straddles a sector boundary touches exactly two sectors, as on
/// real hardware. Each sector sets a bit in a 128-sector bitmap that
/// starts 64 sectors below the first active lane's sector, and the set
/// bits are counted. A warp that touches a sector outside the bitmap is
/// counted by sorting its sectors instead.
pub fn coalesce(addrs: &[Option<u64>], size: u32) -> CoalesceResult {
    assert!(
        addrs.len() <= WARP_LANES && u64::from(size) <= SECTOR_BYTES,
        "coalesce takes one warp ({} lanes) of scalar accesses ({size} B)",
        addrs.len()
    );
    let size = u64::from(size);
    let mut lanes = addrs.iter().flatten();
    let Some(&lead) = lanes.next() else {
        return CoalesceResult::default();
    };
    // Offsets wrap below the base, so one unsigned compare catches a
    // sector on either side of the bitmap.
    let base = (lead / SECTOR_BYTES).wrapping_sub(WINDOW_SECTORS / 2);
    let mut bits = 0u128;
    let mut useful = 0u64;
    for &addr in std::iter::once(&lead).chain(lanes) {
        useful += size;
        let first = (addr / SECTOR_BYTES).wrapping_sub(base);
        let last = ((addr + size - 1) / SECTOR_BYTES).wrapping_sub(base);
        if first >= WINDOW_SECTORS || last >= WINDOW_SECTORS {
            return sort_and_count(addrs, size);
        }
        bits |= 1 << first | 1 << last;
    }
    let distinct = bits.count_ones();
    CoalesceResult {
        sectors: distinct,
        useful_bytes: useful,
        moved_bytes: u64::from(distinct) * SECTOR_BYTES,
    }
}

/// [`coalesce`] for a warp whose sectors do not fit its bitmap: gather
/// the sectors in a stack buffer, sort them unless the lanes' addresses
/// are already non-decreasing, and count the distinct ones.
fn sort_and_count(addrs: &[Option<u64>], size: u64) -> CoalesceResult {
    let mut buf = [0u64; 2 * WARP_LANES];
    let mut n = 0;
    let mut sorted = true;
    let mut useful = 0u64;
    for &addr in addrs.iter().flatten() {
        useful += size;
        let first = addr / SECTOR_BYTES;
        let last = (addr + size - 1) / SECTOR_BYTES;
        if n > 0 && first < buf[n - 1] {
            sorted = false;
        }
        buf[n] = first;
        n += 1;
        if last != first {
            buf[n] = last;
            n += 1;
        }
    }
    let sectors = &mut buf[..n];
    if !sorted {
        sectors.sort_unstable();
    }
    let distinct = 1 + sectors.windows(2).filter(|w| w[0] != w[1]).count();
    CoalesceResult {
        sectors: distinct as u32,
        useful_bytes: useful,
        moved_bytes: distinct as u64 * SECTOR_BYTES,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lanes(addrs: impl IntoIterator<Item = u64>) -> Vec<Option<u64>> {
        addrs.into_iter().map(Some).collect()
    }

    #[test]
    fn dense_f32_warp_is_four_sectors() {
        // 32 lanes × 4 B contiguous from an aligned base = 128 B = 4 sectors.
        let a = lanes((0..32).map(|l| 0x1000 + l * 4));
        let r = coalesce(&a, 4);
        assert_eq!(r.sectors, 4);
        assert_eq!(r.useful_bytes, 128);
        assert!((r.efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dense_f64_warp_is_eight_sectors() {
        let a = lanes((0..32).map(|l| 0x2000 + l * 8));
        let r = coalesce(&a, 8);
        assert_eq!(r.sectors, 8);
        assert!((r.efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fully_strided_warp_is_uncoalesced() {
        // Stride of 256 B: every lane its own sector, efficiency 4/32.
        let a = lanes((0..32).map(|l| 0x3000 + l * 256));
        let r = coalesce(&a, 4);
        assert_eq!(r.sectors, 32);
        assert!((r.efficiency() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn broadcast_is_one_sector() {
        let a = lanes(std::iter::repeat_n(0x4000u64, 32));
        let r = coalesce(&a, 8);
        assert_eq!(r.sectors, 1);
    }

    #[test]
    fn inactive_lanes_cost_nothing() {
        let mut a = lanes((0..16).map(|l| 0x1000 + l * 4));
        a.extend(std::iter::repeat_n(None, 16));
        let r = coalesce(&a, 4);
        assert_eq!(r.useful_bytes, 64);
        assert_eq!(r.sectors, 2);
    }

    #[test]
    fn straddling_access_touches_two_sectors() {
        let a = lanes([0x101Eu64]); // 8-byte access at offset 30 of a sector
        let r = coalesce(&a, 8);
        assert_eq!(r.sectors, 2);
    }

    #[test]
    fn descending_lanes_sort_before_counting() {
        // The same dense warp, lanes in reverse order: still 8 sectors.
        let a = lanes((0..32).rev().map(|l| 0x2000 + l * 8));
        assert_eq!(coalesce(&a, 8).sectors, 8);
    }

    #[test]
    fn empty_warp() {
        let r = coalesce(&[], 8);
        assert_eq!(r, CoalesceResult::default());
        assert!((r.efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "one warp")]
    fn more_than_a_warp_is_refused() {
        coalesce(&lanes(0..33), 4);
    }
}
