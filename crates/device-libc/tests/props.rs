//! Property-based tests for the partial device libc.

use device_libc::rand::{Lcg64, XorShift64};
use device_libc::sort::{dl_bsearch, dl_qsort};
use device_libc::string::{dl_memcpy, dl_strlen, parse_c_int, read_cstr, write_cstr};
use device_libc::{format_c, PrintfArg};
use gpu_mem::DeviceMemory;
use gpu_sim::{KernelError, TeamCtx};
use proptest::prelude::*;

fn with_lane<R>(f: impl FnOnce(&mut gpu_sim::LaneCtx<'_, '_>) -> Result<R, KernelError>) -> R {
    let mut mem = DeviceMemory::new(1 << 23);
    let mut ctx = TeamCtx::new(&mut mem, 0, 1, 32, 48 << 10);
    ctx.serial("prop", f).unwrap()
}

proptest! {
    /// Device qsort agrees with std's sort on arbitrary inputs.
    #[test]
    fn qsort_matches_std(mut data in prop::collection::vec(-1e12f64..1e12, 0..300)) {
        let sorted = with_lane(|lane| {
            let buf = lane.dev_alloc((data.len() as u64 * 8).max(8))?;
            for (i, v) in data.iter().enumerate() {
                lane.st_idx::<f64>(buf, i as u64, *v)?;
            }
            dl_qsort::<f64>(lane, buf, data.len() as u64)?;
            (0..data.len() as u64).map(|i| lane.ld_idx::<f64>(buf, i)).collect::<Result<Vec<_>, _>>()
        });
        data.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(sorted, data);
    }

    /// bsearch on a sorted array finds exactly the present elements and
    /// valid insertion points for absent ones.
    #[test]
    fn bsearch_agrees_with_binary_search(mut data in prop::collection::vec(0u32..10_000, 1..200), key in 0u32..10_000) {
        data.sort_unstable();
        data.dedup();
        let expected = data.binary_search(&key);
        let got = with_lane(|lane| {
            let buf = lane.dev_alloc(data.len() as u64 * 4)?;
            for (i, v) in data.iter().enumerate() {
                lane.st_idx::<u32>(buf, i as u64, *v)?;
            }
            dl_bsearch::<u32>(lane, buf, data.len() as u64, key)
        });
        match (expected, got) {
            (Ok(e), Ok(g)) => prop_assert_eq!(e as u64, g),
            (Err(e), Err(g)) => prop_assert_eq!(e as u64, g),
            other => prop_assert!(false, "mismatch: {:?}", other),
        }
    }

    /// memcpy copies exactly and only the requested range.
    #[test]
    fn memcpy_exact(src in prop::collection::vec(any::<u8>(), 1..300), n in 0usize..300) {
        let n = n.min(src.len());
        let (copied, sentinel) = with_lane(|lane| {
            let s = lane.dev_alloc(src.len() as u64)?;
            let d = lane.dev_alloc(src.len() as u64 + 8)?;
            for (i, b) in src.iter().enumerate() {
                lane.st::<u8>(s.byte_add(i as u64), *b)?;
            }
            for i in 0..src.len() as u64 + 8 {
                lane.st::<u8>(d.byte_add(i), 0xAB)?;
            }
            dl_memcpy(lane, d, s, n as u64)?;
            let mut out = Vec::new();
            for i in 0..n as u64 {
                out.push(lane.ld::<u8>(d.byte_add(i))?);
            }
            let sentinel = lane.ld::<u8>(d.byte_add(n as u64))?;
            Ok((out, sentinel))
        });
        prop_assert_eq!(&copied[..], &src[..n]);
        prop_assert_eq!(sentinel, 0xAB);
    }

    /// C strings round-trip through device memory.
    #[test]
    fn cstr_roundtrip(s in "[ -~&&[^\0]]{0,100}") {
        let out = with_lane(|lane| {
            let buf = lane.dev_alloc(s.len() as u64 + 1)?;
            write_cstr(lane, buf, &s)?;
            let n = dl_strlen(lane, buf)?;
            let text = read_cstr(lane, buf)?;
            Ok((n, text))
        });
        prop_assert_eq!(out.0, s.len() as u64);
        prop_assert_eq!(out.1, s);
    }

    /// `parse_c_int` matches Rust parsing on plain integers.
    #[test]
    fn atoi_matches_rust(v in -1_000_000_000i64..1_000_000_000) {
        prop_assert_eq!(parse_c_int(&v.to_string()), v);
    }

    /// printf never panics on arbitrary format strings and argument lists.
    #[test]
    fn printf_never_panics(fmt in ".{0,80}", ints in prop::collection::vec(any::<i64>(), 0..4), floats in prop::collection::vec(any::<f64>(), 0..4)) {
        let mut args: Vec<PrintfArg> = ints.into_iter().map(PrintfArg::Int).collect();
        args.extend(floats.into_iter().map(PrintfArg::Float));
        let _ = format_c(&fmt, &args);
    }

    /// `%d` formatting matches Rust's.
    #[test]
    fn printf_d_matches(v in any::<i64>()) {
        prop_assert_eq!(format_c("%d", &[PrintfArg::Int(v)]), v.to_string());
    }

    /// The LCG skip law: skip(a+b) == skip(a) then skip(b).
    #[test]
    fn lcg_skip_is_additive(seed in any::<u64>(), a in 0u64..10_000, b in 0u64..10_000) {
        let mut x = Lcg64::new(seed);
        x.skip(a + b);
        let mut y = Lcg64::new(seed);
        y.skip(a);
        y.skip(b);
        prop_assert_eq!(x, y);
    }

    /// PRNG outputs stay in [0, 1).
    #[test]
    fn prng_unit_interval(seed in any::<u64>()) {
        let mut l = Lcg64::new(seed);
        let mut x = XorShift64::new(seed);
        for _ in 0..100 {
            let a = l.next_f64();
            let b = x.next_f64();
            prop_assert!((0.0..1.0).contains(&a));
            prop_assert!((0.0..1.0).contains(&b));
        }
    }
}
