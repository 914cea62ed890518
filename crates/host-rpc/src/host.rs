use crate::proto::{DecodeError, Request, Response};
use crate::services::HostServices;

/// Why one RPC call failed, as seen from the device side.
#[derive(Debug, Clone, PartialEq)]
pub enum RpcError {
    /// The raw payload did not decode as a [`Request`].
    Decode(DecodeError),
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::Decode(e) => write!(f, "RPC request malformed: {e}"),
        }
    }
}

impl std::error::Error for RpcError {}

/// A fault injected into one RPC call by the host-side interceptor (see
/// [`RpcHost::new`]). The fault is applied *before* the service handler
/// runs, so a faulted call has no host-side side effects and can be
/// retried safely.
#[derive(Debug, Clone, PartialEq)]
pub enum RpcFault {
    /// Answer `Response::Err(message)` without invoking the service.
    Fail(String),
    /// Deliver reply bytes that do not decode as any [`Response`] — wire
    /// corruption the caller's own decoder must survive.
    Corrupt,
}

/// Host-side fault hook: inspects each request and may replace its reply
/// with a fault.
pub type RpcFaultHook = Box<dyn FnMut(&Request) -> Option<RpcFault>>;

/// Host-side observation hook: called once per served call with
/// `(service, instance, errored)`, where `errored` covers both
/// service-level `Response::Err` replies and injected faults. Pure
/// observation — the hook runs after the reply is decided and cannot
/// alter it; live-telemetry sinks hang off this.
pub type RpcObserver = Box<dyn FnMut(u32, u32, bool)>;

/// Wire bytes of a corrupted reply: an out-of-range response tag followed
/// by a length prefix that overruns the buffer, so any correct decoder
/// must reject it without panicking or over-reading.
const CORRUPT_REPLY: [u8; 5] = [0xFF, 0xFF, 0xFF, 0xFF, 0x7F];

/// The host end of the RPC channel (paper Fig. 2). Every device stub of a
/// launch shares one `RpcHost`, as they share the framework's single host
/// queue. The simulator runs a launch's teams one after another and each
/// stub blocks until it is answered, so the host serves each call on the
/// calling thread, in the order the device issues them.
pub struct RpcHost {
    services: HostServices,
    interceptor: Option<RpcFaultHook>,
    observer: Option<RpcObserver>,
}

impl RpcHost {
    /// Serve calls from `services`. The optional `interceptor` sees every
    /// request before the service handler; `None` — and an interceptor
    /// that always returns `None` — serves every call unchanged. The
    /// optional `observer` fires once each reply is decided (injected
    /// faults included) and cannot influence it.
    pub fn new(
        services: HostServices,
        interceptor: Option<RpcFaultHook>,
        observer: Option<RpcObserver>,
    ) -> Self {
        Self {
            services,
            interceptor,
            observer,
        }
    }

    /// Serve one call: decode the request, apply the interceptor, run the
    /// service and encode its reply — the shape the simulator's host-call
    /// hook expects.
    pub fn call_raw(&mut self, payload: &[u8]) -> Result<Vec<u8>, RpcError> {
        let req = Request::decode(payload).map_err(RpcError::Decode)?;
        let (service, instance) = (req.service(), req.instance());
        let fault = self.interceptor.as_mut().and_then(|f| f(&req));
        let (resp, corrupt) = match fault {
            None => (self.services.handle(req), false),
            Some(RpcFault::Fail(msg)) => (Response::Err(format!("injected: {msg}")), false),
            Some(RpcFault::Corrupt) => (Response::Ok, true),
        };
        if let Some(obs) = self.observer.as_mut() {
            let errored = corrupt || matches!(resp, Response::Err(_));
            obs(service, instance, errored);
        }
        Ok(if corrupt {
            CORRUPT_REPLY.to_vec()
        } else {
            resp.encode()
        })
    }

    /// Give back the services (captured stdout, files, exit codes,
    /// statistics).
    pub fn into_services(self) -> HostServices {
        self.services
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn plain() -> RpcHost {
        RpcHost::new(HostServices::default(), None, None)
    }

    fn intercepted(hook: RpcFaultHook) -> RpcHost {
        RpcHost::new(HostServices::default(), Some(hook), None)
    }

    /// One call through the wire codec, decoded back to a typed reply.
    fn call(host: &mut RpcHost, req: Request) -> Response {
        let raw = host.call_raw(&req.encode()).unwrap();
        Response::decode(&raw).unwrap()
    }

    #[test]
    fn call_reaches_services() {
        let mut host = plain();
        let resp = call(
            &mut host,
            Request::Stdout {
                instance: 0,
                text: "ping\n".into(),
            },
        );
        assert_eq!(resp, Response::Ok);
        let services = host.into_services();
        assert_eq!(services.stdout_of(0), "ping\n");
    }

    #[test]
    fn raw_reply_decodes_as_the_service_answer() {
        let mut host = plain();
        assert!(matches!(
            call(&mut host, Request::Clock { instance: 1 }),
            Response::Clock(_)
        ));
    }

    #[test]
    fn instances_interleave_into_their_own_streams() {
        let mut host = plain();
        for k in 0..50 {
            for i in 0..8u32 {
                call(
                    &mut host,
                    Request::Stdout {
                        instance: i,
                        text: format!("{k} "),
                    },
                );
            }
        }
        let services = host.into_services();
        for i in 0..8u32 {
            assert_eq!(services.stdout_of(i).split_whitespace().count(), 50);
        }
        assert_eq!(services.stats().stdio_calls, 400);
    }

    #[test]
    fn malformed_raw_payload_is_an_error() {
        let mut host = plain();
        assert!(matches!(
            host.call_raw(&[250, 1, 2]),
            Err(RpcError::Decode(_))
        ));
    }

    #[test]
    fn interceptor_fail_replaces_response_without_side_effects() {
        let mut host = intercepted(Box::new(|req| match req {
            Request::Stdout { .. } => Some(RpcFault::Fail("stdout is down".into())),
            _ => None,
        }));
        let resp = call(
            &mut host,
            Request::Stdout {
                instance: 0,
                text: "lost\n".into(),
            },
        );
        assert!(matches!(resp, Response::Err(m) if m.contains("stdout is down")));
        // Untargeted requests pass through.
        assert!(matches!(
            call(&mut host, Request::Clock { instance: 0 }),
            Response::Clock(_)
        ));
        let services = host.into_services();
        // The faulted write never reached the service: safe to retry.
        assert_eq!(services.stdout_of(0), "");
        assert_eq!(services.stats().stdio_calls, 0);
    }

    #[test]
    fn interceptor_corruption_gives_undecodable_bytes() {
        let mut host = intercepted(Box::new(|_| Some(RpcFault::Corrupt)));
        let raw = host
            .call_raw(&Request::Clock { instance: 0 }.encode())
            .unwrap();
        // The corrupted bytes must be rejected by the response decoder.
        assert!(Response::decode(&raw).is_err());
        assert_eq!(host.into_services().stats().clock_calls, 0);
    }

    #[test]
    fn observer_sees_every_call_with_error_flags() {
        use crate::proto::{SERVICE_CLOCK, SERVICE_EXIT, SERVICE_STDIO};
        let seen: Rc<RefCell<Vec<(u32, u32, bool)>>> = Rc::default();
        let log = seen.clone();
        let hook: RpcFaultHook = Box::new(|req| match req {
            Request::Stdout { .. } => Some(RpcFault::Fail("down".into())),
            Request::Exit { .. } => Some(RpcFault::Corrupt),
            _ => None,
        });
        let observer: RpcObserver =
            Box::new(move |svc, inst, err| log.borrow_mut().push((svc, inst, err)));
        let mut host = RpcHost::new(HostServices::default(), Some(hook), Some(observer));
        call(&mut host, Request::Clock { instance: 2 });
        call(
            &mut host,
            Request::Stdout {
                instance: 5,
                text: "x".into(),
            },
        );
        host.call_raw(
            &Request::Exit {
                instance: 7,
                code: 1,
            }
            .encode(),
        )
        .unwrap();
        // A payload that never decodes is never served, so never observed.
        assert!(host.call_raw(&[250]).is_err());
        assert_eq!(
            *seen.borrow(),
            vec![
                (SERVICE_CLOCK, 2, false),
                (SERVICE_STDIO, 5, true),
                (SERVICE_EXIT, 7, true)
            ]
        );
    }

    #[test]
    fn none_interceptor_serves_like_no_interceptor() {
        let mut host = intercepted(Box::new(|_| None));
        let resp = call(
            &mut host,
            Request::Stdout {
                instance: 3,
                text: "ok\n".into(),
            },
        );
        assert_eq!(resp, Response::Ok);
        let services = host.into_services();
        assert_eq!(services.stdout_of(3), "ok\n");
    }
}
