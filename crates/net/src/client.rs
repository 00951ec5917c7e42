//! A typed client for the wire protocol: one [`Client`] per TCP
//! connection, blocking request/reply methods mirroring the
//! [`CompileService`] API, and [`RemoteEvents`] for the streaming
//! verbs.
//!
//! [`CompileService`]: mbqc_service::CompileService

use crate::wire::{
    decode_event, Request, Response, WireJobOptions, WireOutcome, KIND_EVENT, KIND_REPLY,
    KIND_REQUEST, KIND_STREAM_END,
};
use dc_mbqc::DcMbqcConfig;
use mbqc_pattern::Pattern;
use mbqc_service::{AdmissionError, ServiceStats, TelemetryEvent};
use mbqc_util::codec::CodecError;
use mbqc_util::frame::{read_frame, write_frame, FrameError, MAX_FRAME_PAYLOAD};
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Everything a client call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed at the socket level.
    Io(io::Error),
    /// A frame was malformed (truncated, bad magic, bad checksum,
    /// oversized). The connection is desynced — reconnect.
    Frame(FrameError),
    /// A frame arrived intact but its payload didn't decode.
    Codec(CodecError),
    /// The server's admission control refused the submit.
    Rejected(AdmissionError),
    /// The server answered with a reply the protocol doesn't allow
    /// for this request.
    Protocol(&'static str),
    /// The server reported a request-level failure.
    Server(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Frame(e) => write!(f, "framing error: {e}"),
            ClientError::Codec(e) => write!(f, "payload decode error: {e}"),
            ClientError::Rejected(e) => write!(f, "submit rejected: {e}"),
            ClientError::Protocol(what) => write!(f, "protocol violation: {what}"),
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => ClientError::Io(e),
            other => ClientError::Frame(other),
        }
    }
}

impl From<CodecError> for ClientError {
    fn from(e: CodecError) -> Self {
        ClientError::Codec(e)
    }
}

/// One connection to an `mbqc-server`. Methods block until the server
/// replies; jobs are server-scoped, so ids from one client are valid
/// on any other connection to the same server.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self { stream })
    }

    fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, KIND_REQUEST, &req.to_bytes())?;
        self.read_reply()
    }

    fn read_reply(&mut self) -> Result<Response, ClientError> {
        let frame = read_frame(&mut self.stream, MAX_FRAME_PAYLOAD)?;
        if frame.kind != KIND_REPLY {
            return Err(ClientError::Protocol("expected a reply frame"));
        }
        Ok(Response::from_bytes(&frame.payload)?)
    }

    fn expect_submitted(resp: Response) -> Result<u64, ClientError> {
        match resp {
            Response::Submitted { id } => Ok(id),
            Response::Rejected(e) => Err(ClientError::Rejected(e)),
            Response::Error { message } => Err(ClientError::Server(message)),
            _ => Err(ClientError::Protocol("unexpected reply to submit")),
        }
    }

    /// Submits a job through the server's admission control and
    /// returns its id.
    ///
    /// # Errors
    ///
    /// [`ClientError::Rejected`] when admission refuses the job;
    /// transport errors otherwise.
    pub fn submit(
        &mut self,
        pattern: &Pattern,
        config: &DcMbqcConfig,
        options: WireJobOptions,
    ) -> Result<u64, ClientError> {
        let resp = self.request(&Request::Submit {
            pattern: pattern.clone(),
            config: config.clone(),
            options,
        })?;
        Self::expect_submitted(resp)
    }

    /// [`submit`](Self::submit) plus a guaranteed-complete event
    /// stream: the returned [`RemoteEvents`] yields every event of the
    /// job from `Submitted` (seq 0) through `Terminal`, gap-free.
    /// Streaming takes over the connection — drain it (or call
    /// [`RemoteEvents::finish`]) to get the `Client` back.
    ///
    /// # Errors
    ///
    /// As [`submit`](Self::submit).
    pub fn submit_observed(
        mut self,
        pattern: &Pattern,
        config: &DcMbqcConfig,
        options: WireJobOptions,
    ) -> Result<RemoteEvents, ClientError> {
        let resp = self.request(&Request::SubmitObserved {
            pattern: pattern.clone(),
            config: config.clone(),
            options,
        })?;
        let id = Self::expect_submitted(resp)?;
        Ok(RemoteEvents {
            client: self,
            id,
            done: false,
        })
    }

    /// Requests cancellation of a job by id; `true` when the request
    /// registered before the job went terminal.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn cancel(&mut self, id: u64) -> Result<bool, ClientError> {
        match self.request(&Request::Cancel { id })? {
            Response::CancelAck { acknowledged } => Ok(acknowledged),
            Response::Error { message } => Err(ClientError::Server(message)),
            _ => Err(ClientError::Protocol("unexpected reply to cancel")),
        }
    }

    /// Takes the job's result if it is already terminal (`None` while
    /// it is still queued or running). Like the in-process
    /// `try_poll`, taking the result consumes it server-side.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn poll(&mut self, id: u64) -> Result<Option<WireOutcome>, ClientError> {
        match self.request(&Request::Poll { id })? {
            Response::Outcome(outcome) => Ok(Some(outcome)),
            Response::Pending => Ok(None),
            Response::Error { message } => Err(ClientError::Server(message)),
            _ => Err(ClientError::Protocol("unexpected reply to poll")),
        }
    }

    /// Blocks until the job is terminal and takes its result. With a
    /// timeout, `None` means it elapsed — the result stays available
    /// for a later call.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn wait(
        &mut self,
        id: u64,
        timeout: Option<Duration>,
    ) -> Result<Option<WireOutcome>, ClientError> {
        let timeout_ns = timeout.map(|t| t.as_nanos().min(u128::from(u64::MAX)) as u64);
        match self.request(&Request::Wait { id, timeout_ns })? {
            Response::Outcome(outcome) => Ok(Some(outcome)),
            Response::Pending => Ok(None),
            Response::Error { message } => Err(ClientError::Server(message)),
            _ => Err(ClientError::Protocol("unexpected reply to wait")),
        }
    }

    /// Snapshots the server's service counters.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn stats(&mut self) -> Result<ServiceStats, ClientError> {
        match self.request(&Request::Stats)? {
            Response::Stats(stats) => Ok(*stats),
            Response::Error { message } => Err(ClientError::Server(message)),
            _ => Err(ClientError::Protocol("unexpected reply to stats")),
        }
    }

    /// Streams a job's events **from now on** (no replay — use
    /// [`submit_observed`](Self::submit_observed) for a complete
    /// stream). Takes over the connection like `submit_observed`. The
    /// stream ends after the job's terminal event, or at once for a job
    /// that is already terminal or unknown.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn subscribe_events(mut self, id: u64) -> Result<RemoteEvents, ClientError> {
        match self.request(&Request::SubscribeEvents { id })? {
            Response::Subscribed { id } => Ok(RemoteEvents {
                client: self,
                id,
                done: false,
            }),
            Response::Error { message } => Err(ClientError::Server(message)),
            _ => Err(ClientError::Protocol("unexpected reply to subscribe")),
        }
    }
}

/// An in-progress event stream owning its connection. Iterate it (or
/// call [`next_event`](Self::next_event)) until the server's
/// end-of-stream frame; then [`finish`](Self::finish) returns the
/// connection for further requests. Dropping it mid-stream just
/// closes the socket — the job keeps running server-side.
#[derive(Debug)]
pub struct RemoteEvents {
    client: Client,
    id: u64,
    done: bool,
}

impl RemoteEvents {
    /// The observed job's id.
    #[must_use]
    pub fn job_id(&self) -> u64 {
        self.id
    }

    /// Blocks for the next event; `Ok(None)` once the server closed
    /// the stream.
    ///
    /// # Errors
    ///
    /// Transport errors; the stream is unusable afterwards.
    pub fn next_event(&mut self) -> Result<Option<TelemetryEvent>, ClientError> {
        if self.done {
            return Ok(None);
        }
        let frame = read_frame(&mut self.client.stream, MAX_FRAME_PAYLOAD)?;
        match frame.kind {
            KIND_EVENT => Ok(Some(decode_event(&frame.payload)?)),
            KIND_STREAM_END => {
                self.done = true;
                Ok(None)
            }
            _ => Err(ClientError::Protocol("unexpected frame on event stream")),
        }
    }

    /// Drains any remaining events and returns them with the
    /// connection, ready for further requests.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn finish(mut self) -> Result<(Vec<TelemetryEvent>, Client), ClientError> {
        let mut events = Vec::new();
        while let Some(event) = self.next_event()? {
            events.push(event);
        }
        Ok((events, self.client))
    }
}

impl Iterator for RemoteEvents {
    type Item = Result<TelemetryEvent, ClientError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_event().transpose()
    }
}
