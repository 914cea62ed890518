//! Wire protocol between device stubs and the host.
//!
//! The encoding is a simple tagged binary format (little-endian lengths,
//! UTF-8 strings) so that the device side can ship opaque byte payloads
//! through the simulator's host-call hook without pulling a serialization
//! framework into device code.

/// Service id: stdout/stderr text output (`printf` and friends).
pub const SERVICE_STDIO: u32 = 1;
/// Service id: sandboxed file system (`fopen`/`fread`/`fwrite`/…).
pub const SERVICE_FS: u32 = 2;
/// Service id: time queries (`time`, `clock_gettime`).
pub const SERVICE_CLOCK: u32 = 3;
/// Service id: process control (`exit`, `abort`).
pub const SERVICE_EXIT: u32 = 4;

/// A request from device code to the host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Append text to the instance's stdout stream.
    Stdout {
        instance: u32,
        text: String,
    },
    /// Append text to the instance's stderr stream.
    Stderr {
        instance: u32,
        text: String,
    },
    /// Open a file; returns `Response::Fd`.
    FOpen {
        instance: u32,
        path: String,
        /// `"r"`, `"w"` or `"a"` (binary suffixes accepted and ignored).
        mode: String,
    },
    FClose {
        instance: u32,
        fd: u32,
    },
    /// Read up to `len` bytes; returns `Response::Bytes`.
    FRead {
        instance: u32,
        fd: u32,
        len: u32,
    },
    /// Write bytes; returns `Response::Written`.
    FWrite {
        instance: u32,
        fd: u32,
        data: Vec<u8>,
    },
    /// Seek; whence: 0 = set, 1 = cur, 2 = end. Returns `Response::Pos`.
    FSeek {
        instance: u32,
        fd: u32,
        offset: i64,
        whence: u8,
    },
    /// Deterministic monotonic clock; returns `Response::Clock` (ns).
    Clock {
        instance: u32,
    },
    /// Record the instance's exit code.
    Exit {
        instance: u32,
        code: i32,
    },
}

impl Request {
    /// The service this request belongs to (used to check that the
    /// compiled image generated the corresponding RPC stub).
    pub fn service(&self) -> u32 {
        match self {
            Request::Stdout { .. } | Request::Stderr { .. } => SERVICE_STDIO,
            Request::FOpen { .. }
            | Request::FClose { .. }
            | Request::FRead { .. }
            | Request::FWrite { .. }
            | Request::FSeek { .. } => SERVICE_FS,
            Request::Clock { .. } => SERVICE_CLOCK,
            Request::Exit { .. } => SERVICE_EXIT,
        }
    }

    /// The issuing instance.
    pub fn instance(&self) -> u32 {
        match self {
            Request::Stdout { instance, .. }
            | Request::Stderr { instance, .. }
            | Request::FOpen { instance, .. }
            | Request::FClose { instance, .. }
            | Request::FRead { instance, .. }
            | Request::FWrite { instance, .. }
            | Request::FSeek { instance, .. }
            | Request::Clock { instance }
            | Request::Exit { instance, .. } => *instance,
        }
    }
}

/// A reply from the host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    Ok,
    Fd(u32),
    Bytes(Vec<u8>),
    Written(u32),
    Pos(u64),
    Clock(u64),
    Err(String),
}

/// Decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

// ---- encoding helpers ------------------------------------------------

struct Writer(Vec<u8>);

impl Writer {
    fn new(tag: u8) -> Self {
        Self(vec![tag])
    }

    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn i32(&mut self, v: i32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.0.extend_from_slice(v);
    }

    fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.pos + n > self.buf.len() {
            return Err(DecodeError(format!(
                "truncated: need {n} bytes at {}, have {}",
                self.pos,
                self.buf.len()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn i32(&mut self) -> Result<i32, DecodeError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, DecodeError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn bytes(&mut self) -> Result<Vec<u8>, DecodeError> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    fn str(&mut self) -> Result<String, DecodeError> {
        String::from_utf8(self.bytes()?).map_err(|e| DecodeError(format!("bad utf8: {e}")))
    }

    fn finish(self) -> Result<(), DecodeError> {
        if self.pos != self.buf.len() {
            return Err(DecodeError(format!(
                "{} trailing bytes",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

impl Request {
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Request::Stdout { instance, text } => {
                let mut w = Writer::new(0);
                w.u32(*instance);
                w.str(text);
                w.0
            }
            Request::Stderr { instance, text } => {
                let mut w = Writer::new(1);
                w.u32(*instance);
                w.str(text);
                w.0
            }
            Request::FOpen {
                instance,
                path,
                mode,
            } => {
                let mut w = Writer::new(2);
                w.u32(*instance);
                w.str(path);
                w.str(mode);
                w.0
            }
            Request::FClose { instance, fd } => {
                let mut w = Writer::new(3);
                w.u32(*instance);
                w.u32(*fd);
                w.0
            }
            Request::FRead { instance, fd, len } => {
                let mut w = Writer::new(4);
                w.u32(*instance);
                w.u32(*fd);
                w.u32(*len);
                w.0
            }
            Request::FWrite { instance, fd, data } => {
                let mut w = Writer::new(5);
                w.u32(*instance);
                w.u32(*fd);
                w.bytes(data);
                w.0
            }
            Request::FSeek {
                instance,
                fd,
                offset,
                whence,
            } => {
                let mut w = Writer::new(6);
                w.u32(*instance);
                w.u32(*fd);
                w.i64(*offset);
                w.u8(*whence);
                w.0
            }
            Request::Clock { instance } => {
                let mut w = Writer::new(7);
                w.u32(*instance);
                w.0
            }
            Request::Exit { instance, code } => {
                let mut w = Writer::new(8);
                w.u32(*instance);
                w.i32(*code);
                w.0
            }
        }
    }

    pub fn decode(buf: &[u8]) -> Result<Request, DecodeError> {
        let mut r = Reader::new(buf);
        let tag = r.u8()?;
        let req = match tag {
            0 => Request::Stdout {
                instance: r.u32()?,
                text: r.str()?,
            },
            1 => Request::Stderr {
                instance: r.u32()?,
                text: r.str()?,
            },
            2 => Request::FOpen {
                instance: r.u32()?,
                path: r.str()?,
                mode: r.str()?,
            },
            3 => Request::FClose {
                instance: r.u32()?,
                fd: r.u32()?,
            },
            4 => Request::FRead {
                instance: r.u32()?,
                fd: r.u32()?,
                len: r.u32()?,
            },
            5 => Request::FWrite {
                instance: r.u32()?,
                fd: r.u32()?,
                data: r.bytes()?,
            },
            6 => Request::FSeek {
                instance: r.u32()?,
                fd: r.u32()?,
                offset: r.i64()?,
                whence: r.u8()?,
            },
            7 => Request::Clock { instance: r.u32()? },
            8 => Request::Exit {
                instance: r.u32()?,
                code: r.i32()?,
            },
            t => return Err(DecodeError(format!("unknown request tag {t}"))),
        };
        r.finish()?;
        Ok(req)
    }
}

impl Response {
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Response::Ok => vec![0],
            Response::Fd(fd) => {
                let mut w = Writer::new(1);
                w.u32(*fd);
                w.0
            }
            Response::Bytes(b) => {
                let mut w = Writer::new(2);
                w.bytes(b);
                w.0
            }
            Response::Written(n) => {
                let mut w = Writer::new(3);
                w.u32(*n);
                w.0
            }
            Response::Pos(p) => {
                let mut w = Writer::new(4);
                w.u64(*p);
                w.0
            }
            Response::Clock(ns) => {
                let mut w = Writer::new(5);
                w.u64(*ns);
                w.0
            }
            Response::Err(m) => {
                let mut w = Writer::new(6);
                w.str(m);
                w.0
            }
        }
    }

    pub fn decode(buf: &[u8]) -> Result<Response, DecodeError> {
        let mut r = Reader::new(buf);
        let tag = r.u8()?;
        let resp = match tag {
            0 => Response::Ok,
            1 => Response::Fd(r.u32()?),
            2 => Response::Bytes(r.bytes()?),
            3 => Response::Written(r.u32()?),
            4 => Response::Pos(r.u64()?),
            5 => Response::Clock(r.u64()?),
            6 => Response::Err(r.str()?),
            t => return Err(DecodeError(format!("unknown response tag {t}"))),
        };
        r.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(r: Request) {
        let enc = r.encode();
        assert_eq!(Request::decode(&enc).unwrap(), r);
    }

    fn roundtrip_resp(r: Response) {
        let enc = r.encode();
        assert_eq!(Response::decode(&enc).unwrap(), r);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(Request::Stdout {
            instance: 3,
            text: "hello αβγ\n".into(),
        });
        roundtrip_req(Request::Stderr {
            instance: 0,
            text: String::new(),
        });
        roundtrip_req(Request::FOpen {
            instance: 1,
            path: "data-1.bin".into(),
            mode: "rb".into(),
        });
        roundtrip_req(Request::FClose { instance: 1, fd: 3 });
        roundtrip_req(Request::FRead {
            instance: 9,
            fd: 3,
            len: 4096,
        });
        roundtrip_req(Request::FWrite {
            instance: 2,
            fd: 4,
            data: vec![0, 255, 1, 2],
        });
        roundtrip_req(Request::FSeek {
            instance: 2,
            fd: 4,
            offset: -128,
            whence: 2,
        });
        roundtrip_req(Request::Clock { instance: 63 });
        roundtrip_req(Request::Exit {
            instance: 63,
            code: -1,
        });
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_resp(Response::Ok);
        roundtrip_resp(Response::Fd(17));
        roundtrip_resp(Response::Bytes(vec![9; 1000]));
        roundtrip_resp(Response::Written(512));
        roundtrip_resp(Response::Pos(1 << 40));
        roundtrip_resp(Response::Clock(123_456_789));
        roundtrip_resp(Response::Err("no such file".into()));
    }

    #[test]
    fn service_classification() {
        assert_eq!(
            Request::Stdout {
                instance: 0,
                text: "x".into()
            }
            .service(),
            SERVICE_STDIO
        );
        assert_eq!(Request::Clock { instance: 0 }.service(), SERVICE_CLOCK);
        assert_eq!(
            Request::FOpen {
                instance: 0,
                path: "p".into(),
                mode: "r".into()
            }
            .service(),
            SERVICE_FS
        );
        assert_eq!(
            Request::Exit {
                instance: 5,
                code: 0
            }
            .service(),
            SERVICE_EXIT
        );
        assert_eq!(
            Request::Exit {
                instance: 5,
                code: 0
            }
            .instance(),
            5
        );
    }

    #[test]
    fn truncated_rejected() {
        let enc = Request::Stdout {
            instance: 3,
            text: "hello".into(),
        }
        .encode();
        assert!(Request::decode(&enc[..enc.len() - 1]).is_err());
        assert!(Request::decode(&[]).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut enc = Response::Ok.encode();
        enc.push(0);
        assert!(Response::decode(&enc).is_err());
    }

    #[test]
    fn unknown_tags_rejected() {
        assert!(Request::decode(&[200]).is_err());
        assert!(Response::decode(&[200]).is_err());
    }
}
