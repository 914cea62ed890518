//! Device-side heap management (`malloc` family).
//!
//! The allocations land in the simulated device heap, tagged with the
//! calling team's instance id — exactly the property the ensemble paper's
//! §4.3 analysis relies on: each instance's data lives in its own
//! non-contiguous heap area.

use gpu_mem::{DevicePtr, NULL_DEVICE_PTR};
use gpu_sim::{KernelError, LaneCtx};

/// `void *malloc(size_t size)`. Zero-size requests return null, matching
/// the common C behaviour.
pub fn dl_malloc(lane: &mut LaneCtx<'_, '_>, size: u64) -> Result<DevicePtr, KernelError> {
    if size == 0 {
        return Ok(NULL_DEVICE_PTR);
    }
    lane.dev_alloc(size)
}

/// `void free(void *p)`. Freeing null is a no-op.
pub fn dl_free(lane: &mut LaneCtx<'_, '_>, p: DevicePtr) -> Result<(), KernelError> {
    if p.is_null() {
        return Ok(());
    }
    lane.dev_free(p)
}

/// `void *calloc(size_t n, size_t size)` — zeroed allocation. The device
/// heap zero-fills fresh materialized allocations, so no explicit memset
/// is needed; overflow in `n * size` returns null.
pub fn dl_calloc(lane: &mut LaneCtx<'_, '_>, n: u64, size: u64) -> Result<DevicePtr, KernelError> {
    let Some(total) = n.checked_mul(size) else {
        return Ok(NULL_DEVICE_PTR);
    };
    dl_malloc(lane, total)
}

/// `void *realloc(void *p, size_t new_size)` with the classic edge cases:
/// `realloc(NULL, n)` = `malloc(n)`, `realloc(p, 0)` = `free(p)` + null.
///
/// `old_size` must be passed by the caller because the C allocation size is
/// not recoverable through the device API (the simulator rounds regions to
/// its alignment).
pub fn dl_realloc(
    lane: &mut LaneCtx<'_, '_>,
    p: DevicePtr,
    old_size: u64,
    new_size: u64,
) -> Result<DevicePtr, KernelError> {
    if p.is_null() {
        return dl_malloc(lane, new_size);
    }
    if new_size == 0 {
        dl_free(lane, p)?;
        return Ok(NULL_DEVICE_PTR);
    }
    let np = dl_malloc(lane, new_size)?;
    let copy = old_size.min(new_size);
    crate::string::dl_memcpy(lane, np, p, copy)?;
    dl_free(lane, p)?;
    Ok(np)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_mem::DeviceMemory;
    use gpu_sim::TeamCtx;

    fn with_lane<R>(f: impl FnOnce(&mut LaneCtx<'_, '_>) -> Result<R, KernelError>) -> R {
        let mut mem = DeviceMemory::new(1 << 22);
        let mut ctx = TeamCtx::new(&mut mem, 7, 8, 32, 48 << 10);
        ctx.serial("test", f).unwrap()
    }

    #[test]
    fn malloc_free_roundtrip() {
        with_lane(|lane| {
            let p = dl_malloc(lane, 128)?;
            assert!(!p.is_null());
            lane.st::<u64>(p, 99)?;
            assert_eq!(lane.ld::<u64>(p)?, 99);
            dl_free(lane, p)?;
            Ok(())
        });
    }

    #[test]
    fn malloc_zero_is_null_and_free_null_ok() {
        with_lane(|lane| {
            let p = dl_malloc(lane, 0)?;
            assert!(p.is_null());
            dl_free(lane, p)?;
            Ok(())
        });
    }

    #[test]
    fn calloc_zeroes_and_checks_overflow() {
        with_lane(|lane| {
            let p = dl_calloc(lane, 16, 8)?;
            for i in 0..16 {
                assert_eq!(lane.ld_idx::<u64>(p, i)?, 0);
            }
            let of = dl_calloc(lane, u64::MAX, 16)?;
            assert!(of.is_null());
            Ok(())
        });
    }

    #[test]
    fn realloc_preserves_prefix() {
        with_lane(|lane| {
            let p = dl_malloc(lane, 32)?;
            for i in 0..4u64 {
                lane.st_idx::<u64>(p, i, i * 10)?;
            }
            let q = dl_realloc(lane, p, 32, 128)?;
            for i in 0..4u64 {
                assert_eq!(lane.ld_idx::<u64>(q, i)?, i * 10);
            }
            // Shrink keeps what fits.
            let r = dl_realloc(lane, q, 128, 16)?;
            assert_eq!(lane.ld_idx::<u64>(r, 1)?, 10);
            // To zero size frees.
            let z = dl_realloc(lane, r, 16, 0)?;
            assert!(z.is_null());
            Ok(())
        });
    }

    #[test]
    fn allocations_carry_instance_tag() {
        let mut mem = DeviceMemory::new(1 << 22);
        let p = {
            let mut ctx = TeamCtx::new(&mut mem, 3, 8, 32, 48 << 10);
            ctx.serial("alloc", |lane| dl_malloc(lane, 64)).unwrap()
        };
        assert_eq!(mem.region_of(p.0).unwrap().tag, 3);
    }
}
