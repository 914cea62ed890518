//! `mem*` and `str*` over simulated device memory.
//!
//! Bulk operations copy in 8-byte chunks where alignment allows, charging
//! the simulator the same traffic a vectorized device libc would.

use gpu_mem::DevicePtr;
use gpu_sim::{KernelError, LaneCtx};

/// `memcpy(dst, src, n)`. Regions must not overlap (C contract); the
/// simulated heap cannot produce overlapping allocations, and intra-region
/// overlap is the caller's responsibility, as in C.
pub fn dl_memcpy(
    lane: &mut LaneCtx<'_, '_>,
    dst: DevicePtr,
    src: DevicePtr,
    n: u64,
) -> Result<(), KernelError> {
    let chunks = n / 8;
    for i in 0..chunks {
        let v = lane.ld::<u64>(src.byte_add(i * 8))?;
        lane.st::<u64>(dst.byte_add(i * 8), v)?;
    }
    for off in (chunks * 8)..n {
        let v = lane.ld::<u8>(src.byte_add(off))?;
        lane.st::<u8>(dst.byte_add(off), v)?;
    }
    Ok(())
}

/// `memset(dst, byte, n)`.
pub fn dl_memset(
    lane: &mut LaneCtx<'_, '_>,
    dst: DevicePtr,
    byte: u8,
    n: u64,
) -> Result<(), KernelError> {
    let word = u64::from_le_bytes([byte; 8]);
    let chunks = n / 8;
    for i in 0..chunks {
        lane.st::<u64>(dst.byte_add(i * 8), word)?;
    }
    for off in (chunks * 8)..n {
        lane.st::<u8>(dst.byte_add(off), byte)?;
    }
    Ok(())
}

/// `memcmp(a, b, n)` → -1/0/1.
pub fn dl_memcmp(
    lane: &mut LaneCtx<'_, '_>,
    a: DevicePtr,
    b: DevicePtr,
    n: u64,
) -> Result<i32, KernelError> {
    for off in 0..n {
        let x = lane.ld::<u8>(a.byte_add(off))?;
        let y = lane.ld::<u8>(b.byte_add(off))?;
        if x != y {
            return Ok(if x < y { -1 } else { 1 });
        }
    }
    Ok(0)
}

/// `strlen(s)` over a NUL-terminated device string.
pub fn dl_strlen(lane: &mut LaneCtx<'_, '_>, s: DevicePtr) -> Result<u64, KernelError> {
    let mut n = 0u64;
    while lane.ld::<u8>(s.byte_add(n))? != 0 {
        n += 1;
    }
    Ok(n)
}

/// `strcmp(a, b)`.
pub fn dl_strcmp(
    lane: &mut LaneCtx<'_, '_>,
    a: DevicePtr,
    b: DevicePtr,
) -> Result<i32, KernelError> {
    let mut off = 0u64;
    loop {
        let x = lane.ld::<u8>(a.byte_add(off))?;
        let y = lane.ld::<u8>(b.byte_add(off))?;
        if x != y {
            return Ok(if x < y { -1 } else { 1 });
        }
        if x == 0 {
            return Ok(0);
        }
        off += 1;
    }
}

/// `strcpy(dst, src)`, returning the number of bytes copied including NUL.
pub fn dl_strcpy(
    lane: &mut LaneCtx<'_, '_>,
    dst: DevicePtr,
    src: DevicePtr,
) -> Result<u64, KernelError> {
    let mut off = 0u64;
    loop {
        let c = lane.ld::<u8>(src.byte_add(off))?;
        lane.st::<u8>(dst.byte_add(off), c)?;
        off += 1;
        if c == 0 {
            return Ok(off);
        }
    }
}

/// Read a NUL-terminated device string into a host `String` (used by RPC
/// stubs that need the text on the host side).
pub fn read_cstr(lane: &mut LaneCtx<'_, '_>, s: DevicePtr) -> Result<String, KernelError> {
    let mut bytes = Vec::new();
    let mut off = 0u64;
    loop {
        let c = lane.ld::<u8>(s.byte_add(off))?;
        if c == 0 {
            break;
        }
        bytes.push(c);
        off += 1;
    }
    String::from_utf8(bytes).map_err(|e| KernelError::App(format!("invalid utf8 in cstr: {e}")))
}

/// Write a host string into device memory as a NUL-terminated C string;
/// the buffer must have room for `s.len() + 1` bytes.
pub fn write_cstr(lane: &mut LaneCtx<'_, '_>, dst: DevicePtr, s: &str) -> Result<(), KernelError> {
    for (i, b) in s.bytes().enumerate() {
        lane.st::<u8>(dst.byte_add(i as u64), b)?;
    }
    lane.st::<u8>(dst.byte_add(s.len() as u64), 0)
}

/// `atoi` over a device string (leading whitespace, optional sign).
pub fn dl_atoi(lane: &mut LaneCtx<'_, '_>, s: DevicePtr) -> Result<i64, KernelError> {
    let text = read_cstr(lane, s)?;
    Ok(parse_c_int(&text))
}

/// `strtod`-style prefix parsing over a device string.
pub fn dl_strtod(lane: &mut LaneCtx<'_, '_>, s: DevicePtr) -> Result<f64, KernelError> {
    let text = read_cstr(lane, s)?;
    Ok(parse_c_float(&text))
}

/// C `strtod`-style prefix parsing of a host string: leading whitespace,
/// optional sign, digits, optional fraction and exponent; garbage after
/// the longest valid prefix is ignored and an empty prefix parses to 0.
pub fn parse_c_float(text: &str) -> f64 {
    let t = text.trim_start();
    let bytes = t.as_bytes();
    let mut end = 0usize;
    if end < bytes.len() && (bytes[end] == b'+' || bytes[end] == b'-') {
        end += 1;
    }
    let digits_start = end;
    while end < bytes.len() && bytes[end].is_ascii_digit() {
        end += 1;
    }
    if end < bytes.len() && bytes[end] == b'.' {
        end += 1;
        while end < bytes.len() && bytes[end].is_ascii_digit() {
            end += 1;
        }
    }
    if end == digits_start || (end == digits_start + 1 && bytes[digits_start] == b'.') {
        return 0.0; // no mantissa digits at all
    }
    // Optional exponent; only consumed if it has digits.
    if end < bytes.len() && (bytes[end] == b'e' || bytes[end] == b'E') {
        let mut e = end + 1;
        if e < bytes.len() && (bytes[e] == b'+' || bytes[e] == b'-') {
            e += 1;
        }
        let exp_digits = e;
        while e < bytes.len() && bytes[e].is_ascii_digit() {
            e += 1;
        }
        if e > exp_digits {
            end = e;
        }
    }
    t[..end].parse().unwrap_or(0.0)
}

/// C `atoi`/`strtol`-style prefix parsing of a host string.
pub fn parse_c_int(text: &str) -> i64 {
    let t = text.trim_start();
    let (neg, t) = match t.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, t.strip_prefix('+').unwrap_or(t)),
    };
    let digits: String = t.chars().take_while(|c| c.is_ascii_digit()).collect();
    let v: i64 = digits.parse().unwrap_or(0);
    if neg {
        -v
    } else {
        v
    }
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

    #[test]
    fn memcpy_all_lengths_around_chunks() {
        run(|lane| {
            let src = lane.dev_alloc(64)?;
            let dst = lane.dev_alloc(64)?;
            for i in 0..64u64 {
                lane.st::<u8>(src.byte_add(i), i as u8)?;
            }
            for n in [0u64, 1, 7, 8, 9, 15, 16, 17, 63] {
                dl_memset(lane, dst, 0xEE, 64)?;
                dl_memcpy(lane, dst, src, n)?;
                for i in 0..n {
                    assert_eq!(lane.ld::<u8>(dst.byte_add(i))?, i as u8, "n={n} i={i}");
                }
                if n < 64 {
                    assert_eq!(lane.ld::<u8>(dst.byte_add(n))?, 0xEE);
                }
            }
            Ok(())
        });
    }

    #[test]
    fn memset_and_memcmp() {
        run(|lane| {
            let a = lane.dev_alloc(32)?;
            let b = lane.dev_alloc(32)?;
            dl_memset(lane, a, 7, 32)?;
            dl_memset(lane, b, 7, 32)?;
            assert_eq!(dl_memcmp(lane, a, b, 32)?, 0);
            lane.st::<u8>(b.byte_add(30), 9)?;
            assert_eq!(dl_memcmp(lane, a, b, 32)?, -1);
            assert_eq!(dl_memcmp(lane, b, a, 32)?, 1);
            assert_eq!(dl_memcmp(lane, a, b, 30)?, 0);
            Ok(())
        });
    }

    #[test]
    fn strings_roundtrip() {
        run(|lane| {
            let buf = lane.dev_alloc(64)?;
            write_cstr(lane, buf, "hello")?;
            assert_eq!(dl_strlen(lane, buf)?, 5);
            assert_eq!(read_cstr(lane, buf)?, "hello");
            let buf2 = lane.dev_alloc(64)?;
            dl_strcpy(lane, buf2, buf)?;
            assert_eq!(dl_strcmp(lane, buf, buf2)?, 0);
            write_cstr(lane, buf2, "hellp")?;
            assert_eq!(dl_strcmp(lane, buf, buf2)?, -1);
            write_cstr(lane, buf2, "hell")?;
            assert_ne!(dl_strcmp(lane, buf, buf2)?, 0);
            Ok(())
        });
    }

    #[test]
    fn strtod_semantics() {
        assert_eq!(parse_c_float("3.25"), 3.25);
        assert_eq!(parse_c_float("  -1.5e3abc"), -1500.0);
        assert_eq!(parse_c_float("+.5"), 0.5);
        assert_eq!(parse_c_float("7"), 7.0);
        assert_eq!(parse_c_float("1e"), 1.0); // dangling exponent ignored
        assert_eq!(parse_c_float("1e+"), 1.0);
        assert_eq!(parse_c_float("."), 0.0);
        assert_eq!(parse_c_float("x9"), 0.0);
        assert_eq!(parse_c_float(""), 0.0);
        run(|lane| {
            let buf = lane.dev_alloc(16)?;
            write_cstr(lane, buf, "-2.5e2")?;
            assert_eq!(dl_strtod(lane, buf)?, -250.0);
            Ok(())
        });
    }

    #[test]
    fn atoi_semantics() {
        assert_eq!(parse_c_int("42"), 42);
        assert_eq!(parse_c_int("  -17abc"), -17);
        assert_eq!(parse_c_int("+8"), 8);
        assert_eq!(parse_c_int("abc"), 0);
        assert_eq!(parse_c_int(""), 0);
        run(|lane| {
            let buf = lane.dev_alloc(16)?;
            write_cstr(lane, buf, "-123")?;
            assert_eq!(dl_atoi(lane, buf)?, -123);
            Ok(())
        });
    }
}
