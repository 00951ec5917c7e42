//! The TCP front door: a listener that serves [`Request`] frames
//! against a shared [`CompileService`].
//!
//! One OS thread per connection — connections here are long-lived
//! clients of a compilation service, not web-scale fan-in, and a
//! blocked `Wait` maps naturally onto a parked thread. Every blocking
//! point (idle reads, waits, event streams) is sliced into short
//! timeouts that re-check the shutdown flag, so [`Server::shutdown`]
//! converges without abandoning threads.
//!
//! Jobs are **service-scoped, not connection-scoped**: a client that
//! disconnects mid-job leaves the job running, and any later
//! connection can `Wait`/`Poll`/`Cancel` it by id. The
//! disconnect-storm test pins that a storm of mid-stream disconnects
//! leaks neither jobs nor stage workspaces.

use crate::wire::{
    encode_event, Request, Response, WireOutcome, KIND_EVENT, KIND_REPLY, KIND_REQUEST,
    KIND_STREAM_END,
};
use mbqc_service::{CompileService, EventStream, JobId, JobOptions};
use mbqc_util::frame::{read_frame, write_frame, FrameError, MAX_FRAME_PAYLOAD};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often parked operations (idle connections, waits, streams)
/// re-check the shutdown flag.
const POLL_SLICE: Duration = Duration::from_millis(100);

/// Read timeout once a frame header has started arriving, and write
/// timeout throughout: a peer that stalls mid-frame this long is
/// broken, and the connection closes rather than pinning a thread.
const STALL_TIMEOUT: Duration = Duration::from_secs(10);

/// A running network front door. Dropping it (or calling
/// [`shutdown`](Self::shutdown)) stops the accept loop and joins every
/// connection thread; the underlying service keeps running and can be
/// re-exposed by a new `Server`.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` and starts serving `service`. Bind to port 0 for
    /// an ephemeral port (read it back with
    /// [`local_addr`](Self::local_addr)).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(service: Arc<CompileService>, addr: impl ToSocketAddrs) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("mbqc-net-accept".into())
                .spawn(move || accept_loop(&listener, &service, &shutdown))?
        };
        Ok(Self {
            addr,
            shutdown,
            accept: Some(accept),
        })
    }

    /// The bound address (the actual port when bound to port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains every connection thread, and returns.
    /// In-flight jobs are untouched — they belong to the service.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, service: &Arc<CompileService>, shutdown: &Arc<AtomicBool>) {
    let conns: Mutex<Vec<JoinHandle<()>>> = Mutex::new(Vec::new());
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let service = Arc::clone(service);
                let shutdown = Arc::clone(shutdown);
                let spawned = std::thread::Builder::new()
                    .name("mbqc-net-conn".into())
                    .spawn(move || {
                        // A broken peer closes its own connection;
                        // nothing to do server-side.
                        let _ = serve_connection(stream, &service, &shutdown);
                    });
                match spawned {
                    Ok(h) => {
                        let mut conns = conns
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                        // Opportunistically reap finished threads so a
                        // long-lived server doesn't accumulate handles.
                        conns.retain(|h| !h.is_finished());
                        conns.push(h);
                    }
                    Err(_) => continue,
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    for h in conns
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .drain(..)
    {
        let _ = h.join();
    }
}

/// Whether a read error is a timeout (both kinds appear depending on
/// platform) rather than a dead peer.
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

fn serve_connection(
    mut stream: TcpStream,
    service: &CompileService,
    shutdown: &AtomicBool,
) -> Result<(), FrameError> {
    stream.set_nodelay(true).map_err(FrameError::Io)?;
    stream
        .set_write_timeout(Some(STALL_TIMEOUT))
        .map_err(FrameError::Io)?;
    loop {
        // Idle loop: a 1-byte peek under a short timeout, so the
        // thread notices shutdown without ever consuming bytes — the
        // frame reader below always starts at a frame boundary.
        stream
            .set_read_timeout(Some(POLL_SLICE))
            .map_err(FrameError::Io)?;
        loop {
            if shutdown.load(Ordering::SeqCst) {
                return Ok(());
            }
            let mut probe = [0u8; 1];
            match stream.peek(&mut probe) {
                Ok(0) => return Ok(()), // orderly EOF
                Ok(_) => break,
                Err(e) if is_timeout(&e) => continue,
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
        // Bytes are in flight: read the whole frame under the stall
        // timeout. Any framing error (truncation, bad magic, bad
        // checksum, oversized length) closes the connection — after a
        // desync nothing later on the stream can be trusted.
        stream
            .set_read_timeout(Some(STALL_TIMEOUT))
            .map_err(FrameError::Io)?;
        let frame = read_frame(&mut stream, MAX_FRAME_PAYLOAD)?;
        if frame.kind != KIND_REQUEST {
            return Err(FrameError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                "unexpected frame kind",
            )));
        }
        // The frame arrived intact (checksummed) but its payload may
        // still be semantic garbage — that is a typed reply, not a
        // desync, and the connection stays usable.
        let request = match Request::from_bytes(&frame.payload) {
            Ok(r) => r,
            Err(e) => {
                reply(
                    &mut stream,
                    &Response::Error {
                        message: format!("malformed request: {e}"),
                    },
                )?;
                continue;
            }
        };
        let observe = matches!(request, Request::SubmitObserved { .. });
        match request {
            Request::Submit {
                pattern,
                config,
                options,
            }
            | Request::SubmitObserved {
                pattern,
                config,
                options,
            } => {
                let options = JobOptions {
                    observe,
                    ..options.to_job_options()
                };
                match service.submit_checked(pattern, config, options) {
                    Ok(mut handle) => {
                        reply(
                            &mut stream,
                            &Response::Submitted {
                                id: handle.id().as_u64(),
                            },
                        )?;
                        if let Some(events) = handle.take_events() {
                            stream_events(&mut stream, &events, shutdown)?;
                        }
                    }
                    Err(e) => reply(&mut stream, &Response::Rejected(e))?,
                }
            }
            Request::Cancel { id } => {
                let acknowledged = service.cancel(JobId::from_raw(id));
                reply(&mut stream, &Response::CancelAck { acknowledged })?;
            }
            Request::Poll { id } => {
                let resp = match service.try_poll(JobId::from_raw(id)) {
                    Some(result) => Response::Outcome(WireOutcome::from_result(&result)),
                    None => Response::Pending,
                };
                reply(&mut stream, &resp)?;
            }
            Request::Wait { id, timeout_ns } => {
                let resp = serve_wait(service, JobId::from_raw(id), timeout_ns, shutdown);
                reply(&mut stream, &resp)?;
            }
            Request::Stats => {
                let resp = Response::Stats(Box::new(service.stats()));
                reply(&mut stream, &resp)?;
            }
            Request::SubscribeEvents { id } => {
                let events = service.subscribe(Some(JobId::from_raw(id)), None);
                reply(&mut stream, &Response::Subscribed { id })?;
                stream_events(&mut stream, &events, shutdown)?;
            }
        }
    }
}

fn reply(stream: &mut TcpStream, resp: &Response) -> Result<(), FrameError> {
    write_frame(stream, KIND_REPLY, &resp.to_bytes())
}

/// Serves a `Wait`: blocks in [`POLL_SLICE`] increments so shutdown
/// interrupts it, bounded by the client's timeout when given. A
/// timeout (or shutdown) answers [`Response::Pending`] — the result
/// stays available for a later `Wait`/`Poll`.
fn serve_wait(
    service: &CompileService,
    id: JobId,
    timeout_ns: Option<u64>,
    shutdown: &AtomicBool,
) -> Response {
    let deadline = timeout_ns.map(|ns| Instant::now() + Duration::from_nanos(ns));
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return Response::Pending;
        }
        let slice = match deadline {
            Some(d) => {
                let remaining = d.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    return Response::Pending;
                }
                remaining.min(POLL_SLICE)
            }
            None => POLL_SLICE,
        };
        if let Some(result) = service.wait_timeout(id, slice) {
            return Response::Outcome(WireOutcome::from_result(&result));
        }
    }
}

/// Streams a job's events as [`KIND_EVENT`] frames and closes with
/// [`KIND_STREAM_END`]. The stream takes over the connection: nothing
/// is read until the terminal frame is written (the client drives
/// request/reply again afterwards). A dead peer surfaces as a write
/// error, which unwinds the connection thread; the job itself is
/// untouched.
fn stream_events(
    stream: &mut TcpStream,
    events: &EventStream,
    shutdown: &AtomicBool,
) -> Result<(), FrameError> {
    loop {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        match events.recv_timeout(POLL_SLICE) {
            Some(event) => write_frame(stream, KIND_EVENT, &encode_event(&event))?,
            None if events.is_closed() => break,
            None => {}
        }
    }
    write_frame(stream, KIND_STREAM_END, &[])
}
