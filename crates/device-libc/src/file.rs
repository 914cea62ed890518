//! `FILE`-style device API over the host filesystem RPC service.

use gpu_mem::DevicePtr;
use gpu_sim::{KernelError, LaneCtx};
use host_rpc::{Request, Response};

/// An open file handle, as returned by [`dl_fopen`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DlFile {
    fd: u32,
}

fn send(lane: &mut LaneCtx<'_, '_>, req: Request) -> Result<Response, KernelError> {
    let service = req.service();
    let raw = lane.host_call(service, &req.encode())?;
    Response::decode(&raw).map_err(|e| KernelError::HostCallFailed(e.to_string()))
}

/// `fopen(path, mode)`. Returns `None` where C would return `NULL`.
pub fn dl_fopen(
    lane: &mut LaneCtx<'_, '_>,
    path: &str,
    mode: &str,
) -> Result<Option<DlFile>, KernelError> {
    match send(
        lane,
        Request::FOpen {
            instance: lane.tag(),
            path: path.to_string(),
            mode: mode.to_string(),
        },
    )? {
        Response::Fd(fd) => Ok(Some(DlFile { fd })),
        Response::Err(_) => Ok(None),
        other => Err(KernelError::HostCallFailed(format!(
            "unexpected fopen response {other:?}"
        ))),
    }
}

/// `fclose(f)`.
pub fn dl_fclose(lane: &mut LaneCtx<'_, '_>, f: DlFile) -> Result<(), KernelError> {
    match send(
        lane,
        Request::FClose {
            instance: lane.tag(),
            fd: f.fd,
        },
    )? {
        Response::Ok => Ok(()),
        Response::Err(e) => Err(KernelError::HostCallFailed(e)),
        other => Err(KernelError::HostCallFailed(format!(
            "unexpected fclose response {other:?}"
        ))),
    }
}

/// `fread(buf, 1, n, f)` into device memory; returns bytes read (0 at EOF).
pub fn dl_fread(
    lane: &mut LaneCtx<'_, '_>,
    buf: DevicePtr,
    n: u64,
    f: DlFile,
) -> Result<u64, KernelError> {
    match send(
        lane,
        Request::FRead {
            instance: lane.tag(),
            fd: f.fd,
            len: n as u32,
        },
    )? {
        Response::Bytes(data) => {
            for (i, b) in data.iter().enumerate() {
                lane.st::<u8>(buf.byte_add(i as u64), *b)?;
            }
            Ok(data.len() as u64)
        }
        Response::Err(e) => Err(KernelError::HostCallFailed(e)),
        other => Err(KernelError::HostCallFailed(format!(
            "unexpected fread response {other:?}"
        ))),
    }
}

/// `fwrite(buf, 1, n, f)` from device memory; returns bytes written.
pub fn dl_fwrite(
    lane: &mut LaneCtx<'_, '_>,
    buf: DevicePtr,
    n: u64,
    f: DlFile,
) -> Result<u64, KernelError> {
    let mut data = Vec::with_capacity(n as usize);
    for i in 0..n {
        data.push(lane.ld::<u8>(buf.byte_add(i))?);
    }
    match send(
        lane,
        Request::FWrite {
            instance: lane.tag(),
            fd: f.fd,
            data,
        },
    )? {
        Response::Written(w) => Ok(w as u64),
        Response::Err(e) => Err(KernelError::HostCallFailed(e)),
        other => Err(KernelError::HostCallFailed(format!(
            "unexpected fwrite response {other:?}"
        ))),
    }
}

/// `fseek(f, offset, whence)`; whence 0/1/2 = SET/CUR/END. Returns the new
/// position (C's `fseek` returns 0; the position is more useful here and
/// `ftell` falls out for free).
pub fn dl_fseek(
    lane: &mut LaneCtx<'_, '_>,
    f: DlFile,
    offset: i64,
    whence: u8,
) -> Result<u64, KernelError> {
    match send(
        lane,
        Request::FSeek {
            instance: lane.tag(),
            fd: f.fd,
            offset,
            whence,
        },
    )? {
        Response::Pos(p) => Ok(p),
        Response::Err(e) => Err(KernelError::HostCallFailed(e)),
        other => Err(KernelError::HostCallFailed(format!(
            "unexpected fseek response {other:?}"
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
        prep: impl FnOnce(&mut HostServices),
        f: impl FnOnce(&mut LaneCtx<'_, '_>) -> Result<R, KernelError>,
    ) -> (R, HostServices) {
        let mut services = HostServices::default();
        prep(&mut services);
        let mut mem = DeviceMemory::new(1 << 20);
        let out;
        {
            let mut hook = |_svc: u32, payload: &[u8]| -> Result<Vec<u8>, String> {
                let req = Request::decode(payload).map_err(|e| e.to_string())?;
                Ok(services.handle(req).encode())
            };
            let mut ctx = TeamCtx::new(&mut mem, 0, 1, 32, 48 << 10);
            ctx.set_host_call(&mut hook, None);
            out = ctx.serial("t", f).unwrap();
        }
        (out, services)
    }

    #[test]
    fn read_existing_file_into_device_memory() {
        let (bytes, _) = with_services(
            |s| s.add_file("data-1.bin", vec![5, 6, 7, 8]),
            |lane| {
                let buf = lane.dev_alloc(16)?;
                let f = dl_fopen(lane, "data-1.bin", "rb")?.expect("file exists");
                let n = dl_fread(lane, buf, 16, f)?;
                let mut out = Vec::new();
                for i in 0..n {
                    out.push(lane.ld::<u8>(buf.byte_add(i))?);
                }
                dl_fclose(lane, f)?;
                Ok(out)
            },
        );
        assert_eq!(bytes, vec![5, 6, 7, 8]);
    }

    #[test]
    fn missing_file_is_null() {
        let (f, _) = with_services(|_| {}, |lane| dl_fopen(lane, "ghost", "r"));
        assert!(f.is_none());
    }

    #[test]
    fn write_then_verify_on_host() {
        let (_, services) = with_services(
            |_| {},
            |lane| {
                let buf = lane.dev_alloc(8)?;
                for i in 0..4u64 {
                    lane.st::<u8>(buf.byte_add(i), (i * 2) as u8)?;
                }
                let f = dl_fopen(lane, "out.bin", "wb")?.unwrap();
                assert_eq!(dl_fwrite(lane, buf, 4, f)?, 4);
                dl_fclose(lane, f)
            },
        );
        assert_eq!(services.file_contents("out.bin").unwrap(), &[0, 2, 4, 6]);
    }

    #[test]
    fn seek_then_read() {
        let (got, _) = with_services(
            |s| s.add_file("f", (0u8..10).collect()),
            |lane| {
                let buf = lane.dev_alloc(8)?;
                let f = dl_fopen(lane, "f", "r")?.unwrap();
                assert_eq!(dl_fseek(lane, f, 6, 0)?, 6);
                let n = dl_fread(lane, buf, 8, f)?;
                let mut v = Vec::new();
                for i in 0..n {
                    v.push(lane.ld::<u8>(buf.byte_add(i))?);
                }
                Ok(v)
            },
        );
        assert_eq!(got, vec![6, 7, 8, 9]);
    }
}
