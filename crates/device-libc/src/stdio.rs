//! Device-side stdio: `printf` and friends as RPC stubs.
//!
//! The formatting happens on the device (charged as instruction work); the
//! finished text ships to the host's stdio service in one RPC round trip —
//! the same split the real framework's `printf` stub uses to keep RPC
//! payloads small and round trips rare.

use crate::fmt::{format_c, PrintfArg};
use gpu_sim::{KernelError, LaneCtx};
use host_rpc::{Request, Response};

/// Per-character formatting cost charged to the simulator.
const FMT_COST_PER_CHAR: f64 = 2.0;

fn send(lane: &mut LaneCtx<'_, '_>, req: Request) -> Result<Response, KernelError> {
    let service = req.service();
    let raw = lane.host_call(service, &req.encode())?;
    Response::decode(&raw).map_err(|e| KernelError::HostCallFailed(e.to_string()))
}

/// `printf(fmt, ...)` — returns the number of characters written.
pub fn dl_printf(
    lane: &mut LaneCtx<'_, '_>,
    fmt: &str,
    args: &[PrintfArg],
) -> Result<i32, KernelError> {
    let text = format_c(fmt, args);
    lane.work(text.len() as f64 * FMT_COST_PER_CHAR);
    let n = text.len() as i32;
    let resp = send(
        lane,
        Request::Stdout {
            instance: lane.tag(),
            text,
        },
    )?;
    match resp {
        Response::Ok => Ok(n),
        Response::Err(e) => Err(KernelError::HostCallFailed(e)),
        other => Err(KernelError::HostCallFailed(format!(
            "unexpected stdio response {other:?}"
        ))),
    }
}

/// `fprintf(stderr, fmt, ...)`.
pub fn dl_eprintf(
    lane: &mut LaneCtx<'_, '_>,
    fmt: &str,
    args: &[PrintfArg],
) -> Result<i32, KernelError> {
    let text = format_c(fmt, args);
    lane.work(text.len() as f64 * FMT_COST_PER_CHAR);
    let n = text.len() as i32;
    match send(
        lane,
        Request::Stderr {
            instance: lane.tag(),
            text,
        },
    )? {
        Response::Ok => Ok(n),
        other => Err(KernelError::HostCallFailed(format!(
            "unexpected stderr response {other:?}"
        ))),
    }
}

/// `snprintf(buf, size, fmt, ...)`: format into a device buffer, NUL
/// terminated, truncating at `size - 1` characters. Returns the length the
/// full text *would* have had (the C contract callers use for sizing).
pub fn dl_snprintf(
    lane: &mut LaneCtx<'_, '_>,
    buf: gpu_mem::DevicePtr,
    size: u64,
    fmt: &str,
    args: &[PrintfArg],
) -> Result<i32, KernelError> {
    let text = format_c(fmt, args);
    lane.work(text.len() as f64 * FMT_COST_PER_CHAR);
    if size == 0 {
        return Ok(text.len() as i32);
    }
    let n = (text.len() as u64).min(size - 1);
    for (i, b) in text.as_bytes()[..n as usize].iter().enumerate() {
        lane.st::<u8>(buf.byte_add(i as u64), *b)?;
    }
    lane.st::<u8>(buf.byte_add(n), 0)?;
    Ok(text.len() as i32)
}

/// `puts(s)` — appends a newline, like C.
pub fn dl_puts(lane: &mut LaneCtx<'_, '_>, s: &str) -> Result<i32, KernelError> {
    dl_printf(lane, "%s\n", &[s.into()])
}

/// `exit(code)` — records the exit code with the host; the caller is
/// responsible for unwinding (returning from `__user_main`).
pub fn dl_exit(lane: &mut LaneCtx<'_, '_>, code: i32) -> Result<(), KernelError> {
    match send(
        lane,
        Request::Exit {
            instance: lane.tag(),
            code,
        },
    )? {
        Response::Ok => Ok(()),
        other => Err(KernelError::HostCallFailed(format!(
            "unexpected exit response {other:?}"
        ))),
    }
}

/// `time()`-style query against the host clock service, in nanoseconds.
pub fn dl_clock_ns(lane: &mut LaneCtx<'_, '_>) -> Result<u64, KernelError> {
    match send(
        lane,
        Request::Clock {
            instance: lane.tag(),
        },
    )? {
        Response::Clock(ns) => Ok(ns),
        other => Err(KernelError::HostCallFailed(format!(
            "unexpected clock response {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_mem::DeviceMemory;
    use gpu_sim::TeamCtx;
    use host_rpc::HostServices;

    fn with_services<R>(
        instance: u32,
        f: impl FnOnce(&mut LaneCtx<'_, '_>) -> Result<R, KernelError>,
    ) -> (R, HostServices) {
        let mut services = HostServices::default();
        let mut mem = DeviceMemory::new(1 << 20);
        let out;
        {
            let mut hook = |_svc: u32, payload: &[u8]| -> Result<Vec<u8>, String> {
                let req = Request::decode(payload).map_err(|e| e.to_string())?;
                Ok(services.handle(req).encode())
            };
            let mut ctx = TeamCtx::new(&mut mem, instance, 4, 32, 48 << 10);
            ctx.set_host_call(&mut hook, None);
            out = ctx.serial("t", f).unwrap();
        }
        (out, services)
    }

    #[test]
    fn printf_reaches_instance_stream() {
        let (n, services) = with_services(2, |lane| {
            dl_printf(lane, "N = %d, f = %.1f\n", &[5i32.into(), 2.5f64.into()])
        });
        assert_eq!(services.stdout_of(2), "N = 5, f = 2.5\n");
        assert_eq!(n, 15);
        assert_eq!(services.stdout_of(0), "");
    }

    #[test]
    fn eprintf_and_puts() {
        let (_, services) = with_services(0, |lane| {
            dl_eprintf(lane, "warn: %s\n", &["low".into()])?;
            dl_puts(lane, "done")
        });
        assert_eq!(services.stderr_of(0), "warn: low\n");
        assert_eq!(services.stdout_of(0), "done\n");
    }

    #[test]
    fn snprintf_truncates_and_reports_full_length() {
        let ((full, text), _) = with_services(0, |lane| {
            let buf = lane.dev_alloc(8)?;
            let full = dl_snprintf(lane, buf, 8, "n=%d!", &[12345i32.into()])?;
            let text = crate::string::read_cstr(lane, buf)?;
            Ok((full, text))
        });
        assert_eq!(full, 8); // "n=12345!" would be 8 chars
        assert_eq!(text, "n=12345"); // truncated to 7 + NUL
    }

    #[test]
    fn snprintf_zero_size_writes_nothing() {
        let (full, _) = with_services(0, |lane| {
            let buf = lane.dev_alloc(8)?;
            lane.st::<u8>(buf, 0xEE)?;
            let full = dl_snprintf(lane, buf, 0, "%d", &[7i32.into()])?;
            assert_eq!(lane.ld::<u8>(buf)?, 0xEE);
            Ok(full)
        });
        assert_eq!(full, 1);
    }

    #[test]
    fn exit_records_code() {
        let (_, services) = with_services(1, |lane| dl_exit(lane, 42));
        assert_eq!(services.exit_code_of(1), Some(42));
    }

    #[test]
    fn clock_monotone() {
        let ((a, b), _) = with_services(0, |lane| {
            let a = dl_clock_ns(lane)?;
            let b = dl_clock_ns(lane)?;
            Ok((a, b))
        });
        assert!(b > a);
    }
}
