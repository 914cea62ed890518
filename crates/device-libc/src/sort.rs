//! `qsort`/`bsearch` over typed device arrays.
//!
//! Implemented as introsort-free, allocation-free quicksort with an
//! insertion-sort cutoff — the classic libc shape — issuing its loads and
//! stores through the lane context so sorting shows up in traces.

use gpu_mem::{DevicePtr, Scalar};
use gpu_sim::{KernelError, LaneCtx};

const INSERTION_CUTOFF: u64 = 16;

/// Sort `len` elements of type `T` at `base` ascending (by `partial_cmp`;
/// NaNs sort last, which C's `qsort` leaves unspecified anyway).
pub fn dl_qsort<T: Scalar + PartialOrd>(
    lane: &mut LaneCtx<'_, '_>,
    base: DevicePtr,
    len: u64,
) -> Result<(), KernelError> {
    if len > 1 {
        quicksort::<T>(lane, base, 0, len - 1)?;
    }
    Ok(())
}

fn lt<T: PartialOrd>(a: &T, b: &T) -> bool {
    matches!(a.partial_cmp(b), Some(std::cmp::Ordering::Less))
}

fn quicksort<T: Scalar + PartialOrd>(
    lane: &mut LaneCtx<'_, '_>,
    base: DevicePtr,
    lo: u64,
    hi: u64,
) -> Result<(), KernelError> {
    let mut lo = lo;
    let mut hi = hi;
    loop {
        if hi - lo < INSERTION_CUTOFF {
            return insertion::<T>(lane, base, lo, hi);
        }
        let p = partition::<T>(lane, base, lo, hi)?;
        // Recurse into the smaller half, loop on the larger (O(log n) stack).
        if p - lo < hi - p {
            if p > lo {
                quicksort::<T>(lane, base, lo, p - 1)?;
            }
            lo = p + 1;
        } else {
            if p < hi {
                quicksort::<T>(lane, base, p + 1, hi)?;
            }
            if p == lo {
                return Ok(());
            }
            hi = p - 1;
        }
        if lo >= hi {
            return Ok(());
        }
    }
}

fn partition<T: Scalar + PartialOrd>(
    lane: &mut LaneCtx<'_, '_>,
    base: DevicePtr,
    lo: u64,
    hi: u64,
) -> Result<u64, KernelError> {
    // Median-of-three pivot to dodge sorted-input quadratics.
    let mid = lo + (hi - lo) / 2;
    let (a, b, c) = (
        lane.ld_idx::<T>(base, lo)?,
        lane.ld_idx::<T>(base, mid)?,
        lane.ld_idx::<T>(base, hi)?,
    );
    let pivot_idx = if lt(&a, &b) {
        if lt(&b, &c) {
            mid
        } else if lt(&a, &c) {
            hi
        } else {
            lo
        }
    } else if lt(&a, &c) {
        lo
    } else if lt(&b, &c) {
        hi
    } else {
        mid
    };
    swap::<T>(lane, base, pivot_idx, hi)?;
    let pivot = lane.ld_idx::<T>(base, hi)?;
    let mut store = lo;
    for i in lo..hi {
        let v = lane.ld_idx::<T>(base, i)?;
        if lt(&v, &pivot) {
            swap::<T>(lane, base, i, store)?;
            store += 1;
        }
    }
    swap::<T>(lane, base, store, hi)?;
    Ok(store)
}

fn insertion<T: Scalar + PartialOrd>(
    lane: &mut LaneCtx<'_, '_>,
    base: DevicePtr,
    lo: u64,
    hi: u64,
) -> Result<(), KernelError> {
    for i in (lo + 1)..=hi {
        let v = lane.ld_idx::<T>(base, i)?;
        let mut j = i;
        while j > lo {
            let prev = lane.ld_idx::<T>(base, j - 1)?;
            if !lt(&v, &prev) {
                break;
            }
            lane.st_idx::<T>(base, j, prev)?;
            j -= 1;
        }
        lane.st_idx::<T>(base, j, v)?;
    }
    Ok(())
}

fn swap<T: Scalar>(
    lane: &mut LaneCtx<'_, '_>,
    base: DevicePtr,
    i: u64,
    j: u64,
) -> Result<(), KernelError> {
    if i == j {
        return Ok(());
    }
    let a = lane.ld_idx::<T>(base, i)?;
    let b = lane.ld_idx::<T>(base, j)?;
    lane.st_idx::<T>(base, i, b)?;
    lane.st_idx::<T>(base, j, a)
}

/// `bsearch`: index of `key` in the sorted array, or the insertion point
/// as `Err` — the "lower bound" both XSBench grid lookups need.
pub fn dl_bsearch<T: Scalar + PartialOrd>(
    lane: &mut LaneCtx<'_, '_>,
    base: DevicePtr,
    len: u64,
    key: T,
) -> Result<Result<u64, u64>, KernelError> {
    let mut lo = 0u64;
    let mut hi = len;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let v = lane.ld_idx::<T>(base, mid)?;
        if lt(&v, &key) {
            lo = mid + 1;
        } else if lt(&key, &v) {
            hi = mid;
        } else {
            return Ok(Ok(mid));
        }
    }
    Ok(Err(lo))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_mem::DeviceMemory;
    use gpu_sim::TeamCtx;

    fn run<R>(f: impl FnOnce(&mut LaneCtx<'_, '_>) -> Result<R, KernelError>) -> R {
        let mut mem = DeviceMemory::new(1 << 22);
        let mut ctx = TeamCtx::new(&mut mem, 0, 1, 32, 48 << 10);
        ctx.serial("t", f).unwrap()
    }

    fn sort_and_check(mut data: Vec<f64>) {
        run(|lane| {
            let n = data.len() as u64;
            let buf = lane.dev_alloc((8 * n).max(8))?;
            for (i, v) in data.iter().enumerate() {
                lane.st_idx::<f64>(buf, i as u64, *v)?;
            }
            dl_qsort::<f64>(lane, buf, n)?;
            let mut sorted = Vec::new();
            for i in 0..n {
                sorted.push(lane.ld_idx::<f64>(buf, i)?);
            }
            data.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(sorted, data);
            Ok(())
        });
    }

    #[test]
    fn sorts_various_shapes() {
        sort_and_check(vec![]);
        sort_and_check(vec![1.0]);
        sort_and_check(vec![2.0, 1.0]);
        sort_and_check(vec![5.0, 3.0, 8.0, 1.0, 9.0, 2.0, 7.0]);
        sort_and_check((0..100).map(|i| i as f64).collect()); // pre-sorted
        sort_and_check((0..100).rev().map(|i| i as f64).collect()); // reversed
        sort_and_check(vec![3.0; 50]); // all equal
    }

    #[test]
    fn sorts_pseudorandom_large() {
        let mut x = crate::rand::XorShift64::new(99);
        sort_and_check((0..1000).map(|_| x.next_f64() * 1000.0).collect());
    }

    #[test]
    fn sorts_u32_too() {
        run(|lane| {
            let vals = [9u32, 1, 8, 2, 7, 3];
            let buf = lane.dev_alloc(4 * vals.len() as u64)?;
            for (i, v) in vals.iter().enumerate() {
                lane.st_idx::<u32>(buf, i as u64, *v)?;
            }
            dl_qsort::<u32>(lane, buf, vals.len() as u64)?;
            for i in 1..vals.len() as u64 {
                assert!(lane.ld_idx::<u32>(buf, i - 1)? <= lane.ld_idx::<u32>(buf, i)?);
            }
            Ok(())
        });
    }

    #[test]
    fn bsearch_finds_and_reports_insertion_point() {
        run(|lane| {
            let vals = [1.0f64, 3.0, 5.0, 7.0, 9.0];
            let buf = lane.dev_alloc(8 * 5)?;
            for (i, v) in vals.iter().enumerate() {
                lane.st_idx::<f64>(buf, i as u64, *v)?;
            }
            assert_eq!(dl_bsearch::<f64>(lane, buf, 5, 5.0)?, Ok(2));
            assert_eq!(dl_bsearch::<f64>(lane, buf, 5, 1.0)?, Ok(0));
            assert_eq!(dl_bsearch::<f64>(lane, buf, 5, 9.0)?, Ok(4));
            assert_eq!(dl_bsearch::<f64>(lane, buf, 5, 4.0)?, Err(2));
            assert_eq!(dl_bsearch::<f64>(lane, buf, 5, 0.0)?, Err(0));
            assert_eq!(dl_bsearch::<f64>(lane, buf, 5, 10.0)?, Err(5));
            Ok(())
        });
    }
}
