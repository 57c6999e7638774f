//! The transport seam between a [`ShardRouter`](crate::ShardRouter) and its
//! shards.
//!
//! PR 4's router assumed its shards were function calls away: it held
//! [`TopicServer`] handles and pushed jobs straight into their queues. The
//! [`ShardTransport`] trait re-cuts that seam so the router only speaks a
//! small protocol — submit a partial fold-in, read shard stats/health, observe the snapshot epoch, and stage/commit an
//! epoch publication — and *where* the shard lives becomes an
//! implementation detail:
//!
//! * [`LocalTransport`] wraps an in-process [`TopicServer`], preserving PR
//!   4's behaviour bit for bit (same queues, same seeds, same float
//!   sequences — the differential suite in `tests/sharded_serving.rs` runs
//!   unchanged against it).
//! * [`HttpTransport`] speaks the crate's existing HTTP/1.1 wire format
//!   (`POST /infer-partial`, `GET /shard-info`, `POST /publish-shard`,
//!   `POST /publish-delta`, `POST /commit-epoch`; see [`crate::wire`]) to
//!   a shard process on another machine, with no machinery of its own: the
//!   calling thread writes each request on a pooled keep-alive connection
//!   and reads the reply when it waits. Because the JSON codec round-trips
//!   `f64`s exactly, a remote EM fan-out reproduces the local one bit for
//!   bit, and epoch pinning works identically: the router names its epoch
//!   in the `X-Saber-Epoch` header, and every partial response carries the
//!   snapshot version that produced it.
//!
//! Publication is split into the two phases a fleet-wide all-or-nothing
//! swap needs: every shard stages the epoch first
//! ([`ShardTransport::stage`], handed a [`Publication`]: a whole slice, or
//! the changed rows over what the shard serves, which a shard may decline,
//! and the router then sends the slice), and only when *every* stage
//! succeeded does the router run the cheap
//! [`ShardTransport::commit_publish`] loop that actually swaps — keeping
//! the mixed-version window as tight as a single in-process Arc swap. The
//! shard's half of that contract is [`TopicServer::stage`], which judges a
//! stage's declared epoch, shape and sampler under the publish lock before
//! building it, and [`TopicServer::commit`]: a local transport calls them,
//! a remote one uploads to the HTTP endpoints that call them. A shard
//! describes itself once, in [`TopicServer::shard_info`], which a local
//! transport calls and `GET /shard-info` serves.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::ops::Range;
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use saber_core::model_io::{save_delta, snapshot_encoded_bytes};
use saber_core::SaberError;
use saber_trace::TraceContext;

use crate::server::{
    finish_partial, JobKind, PartialReply, PartialRequest, PartialResponse, Publication,
};
use crate::snapshot::FoldInParams;
use crate::wire;
use crate::{ServeError, ServeStats, TopicServer};

/// A shard's self-description, as reported by [`ShardTransport::shard_info`]
/// (and served remotely as `GET /shard-info`). The router validates a fleet
/// against this before fanning anything out, and reads the embedded
/// [`ServeStats`] for its fleet-wide observability view.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardInfo {
    /// The snapshot version the shard currently serves.
    pub epoch: u64,
    /// Number of vocabulary words the shard holds (its local id space is
    /// `0..vocab_size`).
    pub vocab_size: usize,
    /// Topic count `K` — must agree across the fleet.
    pub n_topics: usize,
    /// Document–topic smoothing α — must agree across the fleet (it enters
    /// the router-side merge).
    pub alpha: f32,
    /// The global word-id range `[start, end)` the shard was configured to
    /// serve, when known; defaults to the local `[0, vocab_size)`.
    pub shard_range: (u32, u32),
    /// The fold-in parameters the shard applies to partial requests — must
    /// agree with the router's, or merged answers silently change meaning.
    pub fold_in: FoldInParams,
    /// The shard's serving counters, histogram included (lossless over the
    /// wire; see [`crate::wire::encode_shard_info`]).
    pub stats: ServeStats,
}

/// A submitted-but-not-yet-answered partial request; the other half of
/// [`ShardTransport::submit_partial`]. Splitting submission from the wait
/// is what lets the router land every shard's request before blocking on
/// any reply, so shards execute concurrently.
///
/// Dropping a pending handle cancels the wait — a local shard's eventual
/// reply is discarded at its channel, a remote one's connection is closed
/// — which is how a request that failed on another leg abandons the rest.
pub trait PendingPartial: Sized {
    /// Awaits the shard's reply, honouring the request deadline the router
    /// passed at submission.
    ///
    /// # Errors
    ///
    /// [`ServeError::DeadlineExceeded`] past the deadline,
    /// [`ServeError::Closed`] when the shard (or its transport) has shut
    /// down, and transport- or shard-reported errors otherwise.
    fn wait(self, deadline: Option<Instant>) -> Result<PartialResponse, ServeError>;

    /// [`PendingPartial::wait`] for a partial over the fleet's `k` topics:
    /// a reply over another count is a transport error. A remote handle
    /// refuses it before allocating the reply's counts.
    ///
    /// # Errors
    ///
    /// As [`PendingPartial::wait`].
    fn wait_over(self, deadline: Option<Instant>, k: usize) -> Result<PartialResponse, ServeError> {
        let response = self.wait(deadline)?;
        match response.partial.counts.len() {
            n if n == k => Ok(response),
            n => Err(ServeError::transport(format!(
                "a partial over {n} topics, the fleet serves {k}"
            ))),
        }
    }
}

/// How a [`ShardRouter`](crate::ShardRouter) reaches one shard.
///
/// Implementations must be usable from many router threads at once (the
/// router fans out concurrently), and every operation must report the
/// shard's snapshot version faithfully — the router's guard against a
/// shard that ignored the pinned epoch depends on it.
pub trait ShardTransport: Send + Sync + std::fmt::Debug {
    /// The in-flight handle [`ShardTransport::submit_partial_pinned`]
    /// returns.
    type Pending: PendingPartial;

    /// Submits one partial fold-in (ESCA chain or EM round) over
    /// shard-local word ids, to be answered from the shard's snapshot of
    /// `epoch` (its live one when `None`). With a deadline the submission
    /// must be fail-fast ([`ServeError::Overloaded`] instead of blocking on
    /// a full queue); without one it may block.
    ///
    /// `trace` is the router's distributed-tracing context for this
    /// fan-out; when enabled the shard answers with its span subtree in
    /// [`PartialResponse::spans`] (remote transports forward the context as
    /// the `X-Saber-Trace` header). Pass
    /// [`TraceContext::disabled()`] for untraced requests — tracing must
    /// never change the bytes of an answer.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] on fail-fast admission, transport errors
    /// for unreachable shards, [`ServeError::Closed`] after shutdown. The
    /// pending reply is [`ServeError::ShardVersionSkew`] when the shard holds
    /// no snapshot of `epoch`.
    fn submit_partial_pinned(
        &self,
        words: Vec<u32>,
        request: PartialRequest,
        epoch: Option<u64>,
        deadline: Option<Instant>,
        trace: TraceContext,
    ) -> Result<Self::Pending, ServeError>;

    /// [`ShardTransport::submit_partial_pinned`] against the live snapshot.
    ///
    /// # Errors
    ///
    /// As [`ShardTransport::submit_partial_pinned`].
    fn submit_partial(
        &self,
        words: Vec<u32>,
        request: PartialRequest,
        deadline: Option<Instant>,
        trace: TraceContext,
    ) -> Result<Self::Pending, ServeError> {
        self.submit_partial_pinned(words, request, None, deadline, trace)
    }

    /// The shard's self-description and full serving counters.
    ///
    /// # Errors
    ///
    /// Transport errors for unreachable shards.
    fn shard_info(&self) -> Result<ShardInfo, ServeError>;

    /// The snapshot version the shard currently serves — the cheap epoch
    /// probe (`GET /healthz` remotely; an atomic load locally).
    ///
    /// # Errors
    ///
    /// Transport errors for unreachable shards.
    fn observe_epoch(&self) -> Result<u64, ServeError>;

    /// Stages `publication` as the shard's next snapshot, tagged with the
    /// fleet epoch it will serve as: a whole slice, or a delta of the rows
    /// that changed since the epoch the shard should be serving. Staging
    /// does **not** change what the shard serves; the router stages every
    /// shard before committing any, so a failure here aborts the
    /// publication with the old epoch intact everywhere. Returns `Ok(false)`
    /// only when the shard *declines* a delta (it does not serve the
    /// delta's base, or `epoch` is not ahead of what it serves); the router
    /// then stages the slice of the same epoch, which builds the
    /// bit-identical snapshot.
    ///
    /// # Errors
    ///
    /// Transport errors, or the shard's refusal as [`TopicServer::stage`]
    /// words it: [`ServeError::Conflict`] for a slice whose epoch is not
    /// ahead of the served one, [`ServeError::BadRequest`] for another
    /// shape, or a delta that targets another epoch or does not decode.
    fn stage(&self, epoch: u64, publication: Publication<'_>) -> Result<bool, ServeError>;

    /// Commits the staged snapshot: the shard swaps to `epoch` and serves
    /// it from its next job. Idempotent when the shard already serves
    /// `epoch` (a retried commit must not fail the publication).
    ///
    /// # Errors
    ///
    /// Transport errors, or [`ServeError::Conflict`] when nothing is staged
    /// for `epoch` ([`TopicServer::commit`]).
    fn commit_publish(&self, epoch: u64) -> Result<u64, ServeError>;
}

// ---------------------------------------------------------------------------
// Local transport: in-process TopicServer, PR 4 behaviour bit for bit.
// ---------------------------------------------------------------------------

/// [`ShardTransport`] over an in-process [`TopicServer`] — the fan-out path
/// PR 4 hard-wired, now behind the trait. Submission pushes into the
/// server's bounded queue exactly as before, so sharded answers remain
/// bit-identical to the pre-trait router.
#[derive(Debug)]
pub struct LocalTransport {
    server: TopicServer,
    /// The global word-id range this shard serves, when the builder knows
    /// it (the router's own fleets always do).
    range: Option<(u32, u32)>,
}

impl LocalTransport {
    /// Wraps `server` as a shard transport.
    pub fn new(server: TopicServer) -> Self {
        LocalTransport {
            server,
            range: None,
        }
    }

    /// Wraps `server` and records the global word-id range it serves
    /// (reported through [`ShardInfo::shard_range`]).
    pub fn with_range(server: TopicServer, range: Range<u32>) -> Self {
        LocalTransport {
            server,
            range: Some((range.start, range.end)),
        }
    }

    /// The wrapped server.
    pub fn server(&self) -> &TopicServer {
        &self.server
    }
}

/// The pending handle of a [`LocalTransport`] submission: the reply channel
/// of the job sitting in the server's queue, and whether the request is
/// traced (its reply's split then becomes the shard's spans).
#[derive(Debug)]
pub struct LocalPending {
    rx: Receiver<PartialReply>,
    traced: bool,
}

impl PendingPartial for LocalPending {
    fn wait(self, deadline: Option<Instant>) -> Result<PartialResponse, ServeError> {
        let remaining = match deadline {
            None => None,
            Some(at) => Some(
                at.checked_duration_since(Instant::now())
                    .ok_or(ServeError::DeadlineExceeded)?,
            ),
        };
        let reply = TopicServer::await_reply(&self.rx, remaining)?;
        finish_partial(reply, self.traced)
    }
}

impl ShardTransport for LocalTransport {
    type Pending = LocalPending;

    fn submit_partial_pinned(
        &self,
        words: Vec<u32>,
        request: PartialRequest,
        epoch: Option<u64>,
        deadline: Option<Instant>,
        trace: TraceContext,
    ) -> Result<LocalPending, ServeError> {
        let kind = |reply| JobKind::Partial {
            request,
            epoch,
            reply,
        };
        let budget = deadline.map(|at| at.saturating_duration_since(Instant::now()));
        let rx = self.server.submit(words, kind, budget)?;
        Ok(LocalPending {
            rx,
            traced: trace.enabled(),
        })
    }

    fn shard_info(&self) -> Result<ShardInfo, ServeError> {
        Ok(self.server.shard_info(self.range))
    }

    fn observe_epoch(&self) -> Result<u64, ServeError> {
        Ok(self.server.snapshot_version())
    }

    fn stage(&self, epoch: u64, publication: Publication<'_>) -> Result<bool, ServeError> {
        self.server.stage(epoch, publication)
    }

    fn commit_publish(&self, epoch: u64) -> Result<u64, ServeError> {
        self.server.commit(epoch)
    }
}

// ---------------------------------------------------------------------------
// HTTP transport: a shard process on the other end of a TCP connection.
// ---------------------------------------------------------------------------

/// Largest HTTP response body the client accepts (a defensive bound; real
/// responses are a few KB).
const MAX_RESPONSE_BYTES: usize = 64 << 20;
/// Largest response head (status line and headers) the client accepts.
const MAX_HEAD_BYTES: usize = 16 << 10;
/// Budget for establishing a TCP connection.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);
/// How long an exchange may go without a byte moving in either direction;
/// a shard that stops responding mid-exchange surfaces as a transport
/// error after this long instead of hanging a router thread. (Shortened
/// under test so the silent-peer case does not take ten seconds.)
const IO_TIMEOUT: Duration = Duration::from_secs(if cfg!(test) { 1 } else { 10 });
/// How long control calls (`shard_info`, epoch probes, commits) wait for
/// their reply before giving up.
const CONTROL_WAIT: Duration = Duration::from_secs(5);
/// How long a staged-snapshot upload may take; snapshots are the largest
/// messages on this protocol.
const PUBLISH_WAIT: Duration = Duration::from_secs(30);
/// Idle keep-alive connections one transport keeps: enough for a front's
/// usual concurrency to find a warm one, a fraction of a shard's
/// connection cap ([`crate::HttpConfig::max_connections`], 64 by default),
/// so a quiet router does not sit on the slots other routers need.
const MAX_IDLE_CONNECTIONS: usize = 16;

/// What an [`HttpTransport`] and its in-flight [`HttpPending`] handles
/// share: the peer's address and the idle keep-alive connections to it.
#[derive(Debug)]
struct Peer {
    addr: SocketAddr,
    /// Most recently used last, and taken from that end: the warm
    /// connection stays warm, cold ones age out on the shard's keep-alive
    /// timeout. Locked for one `pop` or `push`, never across I/O.
    idle: Mutex<Vec<TcpStream>>,
}

impl Peer {
    /// Every I/O failure names the peer it happened against, so a router's
    /// 502 can attribute the fan-out leg that broke.
    fn transport_err(&self, what: &str, cause: impl std::fmt::Display) -> ServeError {
        ServeError::Transport {
            detail: format!("{what}: {cause}"),
            shard: None,
            addr: Some(self.addr.to_string()),
        }
    }

    fn dial(&self) -> Result<TcpStream, ServeError> {
        let stream = TcpStream::connect_timeout(&self.addr, CONNECT_TIMEOUT)
            .map_err(|e| self.transport_err("cannot connect to shard", e))?;
        let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
        let _ = stream.set_nodelay(true);
        Ok(stream)
    }

    fn take_idle(&self) -> Option<TcpStream> {
        // Both critical sections move whole streams, so a poisoned lock
        // never exposes a torn value — recover from poison.
        self.idle.lock().unwrap_or_else(|e| e.into_inner()).pop()
    }

    fn put_idle(&self, stream: TcpStream) {
        let mut idle = self.idle.lock().unwrap_or_else(|e| e.into_inner());
        if idle.len() < MAX_IDLE_CONNECTIONS {
            idle.push(stream);
        }
        // A surplus `stream` closes after the guard is released: parameters
        // drop after locals.
    }
}

/// [`ShardTransport`] over the crate's own HTTP/1.1 wire format — the
/// remote half of cross-machine sharding. The thread that makes a call
/// writes the request itself, on an idle keep-alive connection when one is
/// pooled and a fresh one otherwise, and reads the reply when it waits;
/// the transport starts no thread and holds no queue, so admission is the
/// shard's own (its `429` and its connection-cap `503` both decode to
/// [`ServeError::Overloaded`]). Requests are serialised by [`crate::wire`]
/// codecs whose `f64` round trip is exact, so remote merges match local
/// ones bit for bit.
///
/// The shard on the other end is any [`crate::HttpServer`] fronting a
/// [`TopicServer`] — typically one started by the `saber_shardd` example
/// or your own process that loads an
/// [`InferenceSnapshot`](crate::InferenceSnapshot) from disk.
#[derive(Debug)]
pub struct HttpTransport {
    peer: Arc<Peer>,
}

impl HttpTransport {
    /// Creates a transport to the shard at `addr`. Connections are
    /// established lazily (and re-established after errors), so this does
    /// not require the shard to be up yet.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] when `addr` does not resolve.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ServeError> {
        let addr = addr
            .to_socket_addrs()
            .map_err(|e| ServeError::InvalidConfig {
                detail: format!("shard address does not resolve: {e}"),
            })?
            .next()
            .ok_or_else(|| ServeError::InvalidConfig {
                detail: "shard address resolves to nothing".into(),
            })?;
        let idle = Mutex::new(Vec::new());
        Ok(HttpTransport {
            peer: Arc::new(Peer { addr, idle }),
        })
    }

    /// The resolved shard address.
    pub fn addr(&self) -> SocketAddr {
        self.peer.addr
    }

    /// Builds one HTTP/1.1 request as bytes (keep-alive implied). An
    /// enabled `trace` context rides along as the `X-Saber-Trace` header
    /// (`<trace-id>-<parent-span-id>`, both 16 hex digits), which is how a
    /// trace crosses the machine boundary to a shard process.
    fn request_bytes(
        method: &str,
        path: &str,
        content_type: &str,
        body: &[u8],
        epoch: Option<u64>,
        trace: Option<&TraceContext>,
    ) -> Vec<u8> {
        let mut request = Self::request_head(method, path, content_type, body.len(), epoch, trace);
        request.extend_from_slice(body);
        request
    }

    /// The head of [`HttpTransport::request_bytes`] for a body of
    /// `content_length` bytes, which the caller appends.
    fn request_head(
        method: &str,
        path: &str,
        content_type: &str,
        content_length: usize,
        epoch: Option<u64>,
        trace: Option<&TraceContext>,
    ) -> Vec<u8> {
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nHost: shard\r\nContent-Length: {content_length}\r\n"
        );
        if content_length > 0 {
            head.push_str(&format!("Content-Type: {content_type}\r\n"));
        }
        if let Some(epoch) = epoch {
            head.push_str(&format!("X-Saber-Epoch: {epoch}\r\n"));
        }
        if let Some(value) = trace.and_then(TraceContext::header_value) {
            head.push_str(&format!("X-Saber-Trace: {value}\r\n"));
        }
        head.push_str("\r\n");
        head.into_bytes()
    }

    /// Writes `request` on the calling thread — on the warmest idle
    /// connection, or a fresh one — and returns the handle that reads the
    /// reply.
    fn send(&self, request: Vec<u8>) -> Result<HttpPending, ServeError> {
        let (stream, reused) = match self.peer.take_idle() {
            Some(stream) => (stream, true),
            None => (self.peer.dial()?, false),
        };
        let mut pending = HttpPending {
            peer: Arc::clone(&self.peer),
            stream,
            reused,
            request,
            written: Instant::now(),
        };
        match pending.write() {
            Err(_) if pending.reused => pending.redial()?,
            written => written?,
        }
        Ok(pending)
    }

    /// Round-trips one request with a bounded wait (the control path:
    /// info, stats, publication).
    fn call(&self, request: Vec<u8>, wait: Duration) -> Result<(u16, Vec<u8>), ServeError> {
        self.send(request)?.read(Some(Instant::now() + wait))
    }

    /// A body-less control `GET`, its 200 decoded by `decode`.
    fn get<T>(
        &self,
        path: &str,
        decode: impl FnOnce(&str) -> Result<T, wire::WireError>,
    ) -> Result<T, ServeError> {
        let request = Self::request_bytes("GET", path, "", &[], None, None);
        let (status, body) = self.call(request, CONTROL_WAIT)?;
        decode_body(status, &body, decode)
    }

    /// An epoch-tagged binary publication `POST` of `what`, whose body
    /// `encode` writes straight behind the head: a many-megabyte slice or
    /// delta is not copied into a second buffer. `len` is the size the
    /// body's format promises (`None` when it overflows); a body of any
    /// other size is refused before it is sent.
    fn post_encoded(
        &self,
        path: &str,
        epoch: u64,
        what: &str,
        len: Option<u64>,
        encode: impl FnOnce(&mut Vec<u8>) -> Result<(), SaberError>,
    ) -> Result<(u16, Vec<u8>), ServeError> {
        let fail =
            |detail: String| ServeError::transport(format!("failed to serialise {what}: {detail}"));
        let len = len
            .and_then(|n| usize::try_from(n).ok())
            .ok_or_else(|| fail("its size overflows".into()))?;
        let mut request = Self::request_head(
            "POST",
            path,
            "application/octet-stream",
            len,
            Some(epoch),
            None,
        );
        let head = request.len();
        encode(&mut request).map_err(|e| fail(e.to_string()))?;
        if request.len() - head != len {
            return Err(fail(format!(
                "{} bytes written where {len} were promised",
                request.len() - head
            )));
        }
        self.call(request, PUBLISH_WAIT)
    }
}

/// Status and body range of a complete response within the bytes read.
type Framed = (u16, Range<usize>);

/// The pending handle of an [`HttpTransport`] submission: the connection
/// the request went out on. Dropping it unread closes the socket, which is
/// what cancels the leg on the shard's side.
#[derive(Debug)]
pub struct HttpPending {
    peer: Arc<Peer>,
    stream: TcpStream,
    /// The stream came from the idle pool: the shard may have closed it
    /// between requests, which earns the request one replay on a fresh
    /// connection (every message on this protocol is safe to replay —
    /// partials are pure computation, staging and commits idempotent).
    reused: bool,
    request: Vec<u8>,
    /// When the request went out: the I/O timeout runs from here until
    /// the first reply byte, then from the latest byte read.
    written: Instant,
}

impl HttpPending {
    fn write(&mut self) -> Result<(), ServeError> {
        self.stream
            .write_all(&self.request)
            .map_err(|e| self.peer.transport_err("write to shard failed", e))?;
        self.written = Instant::now();
        Ok(())
    }

    fn redial(&mut self) -> Result<(), ServeError> {
        self.stream = self.peer.dial()?;
        self.reused = false;
        self.write()
    }

    /// Reads the reply: its status and body, [`ServeError::DeadlineExceeded`]
    /// once `deadline` passes, or a transport error naming the peer. The
    /// connection goes back to the pool only when the bytes read are exactly
    /// this response: trailing bytes mean the peer is not speaking
    /// one-reply-per-request, and the next request on that connection would
    /// read them as its answer.
    fn read(mut self, deadline: Option<Instant>) -> Result<(u16, Vec<u8>), ServeError> {
        let read_err =
            |peer: &Peer, cause: &str| peer.transport_err("read from shard failed", cause);
        let mut response = Vec::new();
        let mut last_io = self.written;
        let mut chunk = [0u8; 16 << 10];
        loop {
            match parse_head(&response) {
                Ok(Some((status, body))) if response.len() >= body.end => {
                    if response.len() == body.end {
                        self.peer.put_idle(self.stream);
                    }
                    response.truncate(body.end);
                    response.drain(..body.start);
                    return Ok((status, response));
                }
                Ok(_) => {}
                Err(cause) => return Err(read_err(&self.peer, cause)),
            }
            let io_deadline = last_io + IO_TIMEOUT;
            let bound = deadline.map_or(io_deadline, |at| at.min(io_deadline));
            // Never zero, which `set_read_timeout` rejects: a deadline
            // already past still reads what has arrived, within a timer tick.
            let timeout = bound
                .saturating_duration_since(Instant::now())
                .max(Duration::from_micros(1));
            let read = self
                .stream
                .set_read_timeout(Some(timeout))
                .and_then(|()| self.stream.read(&mut chunk));
            let cause = match read {
                Ok(0) => "connection closed".to_string(),
                Ok(n) => {
                    response.extend_from_slice(chunk.get(..n).unwrap_or_default());
                    last_io = Instant::now();
                    continue;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    let now = Instant::now();
                    if now >= io_deadline {
                        return Err(read_err(&self.peer, "timed out"));
                    }
                    if deadline.is_some_and(|at| now >= at) {
                        return Err(ServeError::DeadlineExceeded);
                    }
                    continue;
                }
                Err(e) => e.to_string(),
            };
            // EOF or a reset before the first response byte of a reused
            // connection: the shard closed it between requests. Never
            // replay once a response byte has been consumed.
            if !(self.reused && response.is_empty()) {
                return Err(read_err(&self.peer, &cause));
            }
            self.redial()?;
            last_io = self.written;
        }
    }
}

/// Parses a response head once all of it (through the blank line) is in
/// `buf`: the status and where the `Content-Length`-framed body sits.
fn parse_head(buf: &[u8]) -> Result<Option<Framed>, &'static str> {
    let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        if buf.len() > MAX_HEAD_BYTES {
            return Err("response head too large");
        }
        return Ok(None);
    };
    let mut lines = buf
        .get(..end)
        .and_then(|head| std::str::from_utf8(head).ok())
        .ok_or("malformed response head")?
        .split("\r\n");
    let status = lines
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|status| status.parse::<u16>().ok())
        .ok_or("malformed status line")?;
    let mut content_length = 0usize;
    for (name, value) in lines.filter_map(|line| line.split_once(':')) {
        if name.trim().eq_ignore_ascii_case("content-length") {
            content_length = value.trim().parse().map_err(|_| "bad content-length")?;
        }
    }
    if content_length > MAX_RESPONSE_BYTES {
        return Err("response too large");
    }
    Ok(Some((status, end + 4..end + 4 + content_length)))
}

impl PendingPartial for HttpPending {
    fn wait(self, deadline: Option<Instant>) -> Result<PartialResponse, ServeError> {
        let (status, body) = self.read(deadline)?;
        decode_body(status, &body, wire::decode_partial_response)
    }

    fn wait_over(self, deadline: Option<Instant>, k: usize) -> Result<PartialResponse, ServeError> {
        let (status, body) = self.read(deadline)?;
        decode_body(status, &body, |text| {
            wire::decode_partial_response_over(text, Some(k))
        })
    }
}

/// Parses a 200 body with `decode`, or maps the shard's error status onto
/// the [`ServeError`] it encodes.
fn decode_body<T>(
    status: u16,
    body: &[u8],
    decode: impl FnOnce(&str) -> Result<T, wire::WireError>,
) -> Result<T, ServeError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ServeError::transport("shard response is not valid UTF-8"))?;
    if status == 200 {
        decode(text).map_err(|e| ServeError::transport(format!("malformed shard response: {e}")))
    } else {
        Err(wire::decode_serve_error(status, text))
    }
}

impl ShardTransport for HttpTransport {
    type Pending = HttpPending;

    fn submit_partial_pinned(
        &self,
        words: Vec<u32>,
        request: PartialRequest,
        epoch: Option<u64>,
        _deadline: Option<Instant>,
        trace: TraceContext,
    ) -> Result<HttpPending, ServeError> {
        let body = wire::encode_partial_request(&words, &request).to_string();
        let request = Self::request_bytes(
            "POST",
            "/infer-partial",
            "application/json",
            body.as_bytes(),
            epoch,
            Some(&trace),
        );
        self.send(request)
    }

    fn shard_info(&self) -> Result<ShardInfo, ServeError> {
        self.get("/shard-info", wire::decode_shard_info)
    }

    fn observe_epoch(&self) -> Result<u64, ServeError> {
        self.get("/healthz", wire::decode_healthz_version)
    }

    fn stage(&self, epoch: u64, publication: Publication<'_>) -> Result<bool, ServeError> {
        let (status, body) = match &publication {
            Publication::Slice(slice) => {
                let len =
                    snapshot_encoded_bytes(slice.vocab_size() as u64, slice.n_topics() as u64);
                self.post_encoded("/publish-shard", epoch, "snapshot slice", len, |body| {
                    slice.save(body)
                })?
            }
            Publication::Delta(delta) => {
                let len = delta.encoded_bytes();
                self.post_encoded("/publish-delta", epoch, "snapshot delta", len, |body| {
                    save_delta(delta, body)
                })?
            }
        };
        match decode_body(status, &body, |_| Ok(())) {
            Ok(()) => Ok(true),
            // The shard declined the delta: it does not serve the delta's
            // base. Not an error: the caller stages the slice instead.
            Err(ServeError::Conflict { .. }) if matches!(publication, Publication::Delta(_)) => {
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }

    fn commit_publish(&self, epoch: u64) -> Result<u64, ServeError> {
        let body = format!("{{\"epoch\":{epoch}}}");
        // The epoch also rides the X-Saber-Epoch header so the shard can
        // verify the commit names the epoch it actually has staged.
        let request = Self::request_bytes(
            "POST",
            "/commit-epoch",
            "application/json",
            body.as_bytes(),
            Some(epoch),
            None,
        );
        let (status, body) = self.call(request, CONTROL_WAIT)?;
        decode_body(status, &body, wire::decode_healthz_version)?;
        Ok(epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::{ReplicaBreaker, COOLDOWN, FAILURE_THRESHOLD};
    use crate::snapshot::tests::planted_model;
    use crate::snapshot::{InferenceSnapshot, SnapshotSampler};
    use crate::ServeConfig;

    fn transport() -> LocalTransport {
        let server =
            TopicServer::from_model(&planted_model(12, 3), ServeConfig::default()).unwrap();
        LocalTransport::with_range(server, 0..12)
    }

    #[test]
    fn local_transport_reports_shard_info() {
        let transport = transport();
        let info = transport.shard_info().unwrap();
        assert_eq!(info.epoch, 1);
        assert_eq!(info.vocab_size, 12);
        assert_eq!(info.n_topics, 3);
        assert_eq!(info.shard_range, (0, 12));
        assert_eq!(info.fold_in, ServeConfig::default().fold_in);
        assert_eq!(info.stats.requests, 0);
        assert_eq!(transport.observe_epoch().unwrap(), 1);
    }

    #[test]
    fn local_submit_and_wait_round_trip() {
        let transport = transport();
        let pending = transport
            .submit_partial(
                vec![0, 3, 6],
                PartialRequest::FoldIn { seed: 4 },
                None,
                TraceContext::disabled(),
            )
            .unwrap();
        let response = pending.wait(None).unwrap();
        assert_eq!(response.snapshot_version, 1);
        assert_eq!(response.partial.n_words, 3);
        assert!(
            response.spans.is_empty(),
            "untraced requests carry no spans"
        );
    }

    #[test]
    fn local_traced_submission_yields_the_shard_span_subtree() {
        let transport = transport();
        let id = saber_trace::TraceId::mint();
        let pending = transport
            .submit_partial(
                vec![0, 3, 6],
                PartialRequest::FoldIn { seed: 4 },
                None,
                TraceContext::root(id),
            )
            .unwrap();
        let traced = pending.wait(None).unwrap();
        assert_eq!(traced.spans.len(), 3);
        assert_eq!(traced.spans[0].name, "infer-partial");
        assert_eq!(traced.spans[0].parent, None);
        // Tracing must not perturb the computation itself.
        let untraced = transport
            .submit_partial(
                vec![0, 3, 6],
                PartialRequest::FoldIn { seed: 4 },
                None,
                TraceContext::disabled(),
            )
            .unwrap()
            .wait(None)
            .unwrap();
        assert_eq!(traced.partial, untraced.partial);
    }

    #[test]
    fn request_bytes_carry_the_trace_header_only_when_enabled() {
        let id = saber_trace::TraceId::from_raw(0xABCD).unwrap();
        let ctx = TraceContext::child(id, 7);
        let with = HttpTransport::request_bytes(
            "POST",
            "/infer-partial",
            "application/json",
            b"{}",
            None,
            Some(&ctx),
        );
        let text = String::from_utf8(with).unwrap();
        assert!(
            text.contains("X-Saber-Trace: 000000000000abcd-0000000000000007\r\n"),
            "request was: {text}"
        );
        let without = HttpTransport::request_bytes(
            "POST",
            "/infer-partial",
            "application/json",
            b"{}",
            None,
            Some(&TraceContext::disabled()),
        );
        assert!(!String::from_utf8(without)
            .unwrap()
            .contains("X-Saber-Trace"));
    }

    #[test]
    fn local_prepare_commit_swaps_on_commit_only() {
        let transport = transport();
        let slice = InferenceSnapshot::from_model(&planted_model(12, 3), SnapshotSampler::WaryTree);
        assert!(transport.stage(2, Publication::Slice(slice)).unwrap());
        assert_eq!(
            transport.observe_epoch().unwrap(),
            1,
            "staging must not swap"
        );
        assert_eq!(transport.commit_publish(2).unwrap(), 2);
        assert_eq!(transport.observe_epoch().unwrap(), 2);
        // Re-committing the served epoch is idempotent…
        assert_eq!(transport.commit_publish(2).unwrap(), 2);
        // …but committing an epoch that was never staged fails.
        assert!(matches!(
            transport.commit_publish(5),
            Err(ServeError::Conflict { .. })
        ));
        // A delayed duplicate commit of the served epoch must NOT consume
        // a snapshot already staged for the next one.
        let next = InferenceSnapshot::from_model(&planted_model(12, 3), SnapshotSampler::WaryTree);
        transport.stage(3, Publication::Slice(next)).unwrap();
        assert_eq!(transport.commit_publish(2).unwrap(), 2, "stale duplicate");
        assert_eq!(
            transport.commit_publish(3).unwrap(),
            3,
            "the staged epoch-3 snapshot must survive the stale commit"
        );
        assert_eq!(transport.observe_epoch().unwrap(), 3);
    }

    #[test]
    fn local_delta_staging_applies_over_a_matching_base_and_declines_otherwise() {
        let transport = transport();
        let mut model = planted_model(12, 3);
        model.word_topic_mut()[(4, 1)] += 6;
        model.refresh_probabilities();
        let next = InferenceSnapshot::from_model(&model, SnapshotSampler::WaryTree);
        let changed: Vec<u32> = (0..12).collect();
        // Base 1 matches the freshly-started server's version.
        let delta = next.shard_delta(0..12, &changed, 1, 2);
        assert!(transport.stage(2, Publication::Delta(&delta)).unwrap());
        assert_eq!(
            transport.observe_epoch().unwrap(),
            1,
            "staging must not swap"
        );
        assert_eq!(transport.commit_publish(2).unwrap(), 2);
        assert_eq!(transport.observe_epoch().unwrap(), 2);
        // The patched snapshot serves the new model's bits.
        let info = transport.shard_info().unwrap();
        assert_eq!(info.epoch, 2);
        // A delta whose base is no longer served is declined, not applied.
        let stale = next.shard_delta(0..12, &changed, 1, 3);
        assert!(!transport.stage(3, Publication::Delta(&stale)).unwrap());
        // A delta with the wrong shape is a hard error.
        let misshapen =
            InferenceSnapshot::from_model(&planted_model(6, 3), SnapshotSampler::WaryTree)
                .shard_delta(0..6, &[0, 2], 2, 3);
        assert!(transport.stage(3, Publication::Delta(&misshapen)).is_err());
    }

    #[test]
    fn commit_request_carries_the_epoch_header() {
        let request = HttpTransport::request_bytes(
            "POST",
            "/commit-epoch",
            "application/json",
            b"{\"epoch\":7}",
            Some(7),
            None,
        );
        let text = String::from_utf8(request).unwrap();
        assert!(text.contains("X-Saber-Epoch: 7\r\n"), "request was: {text}");
    }

    #[test]
    fn breaker_trips_after_threshold_and_readmits_on_success() {
        let breaker = ReplicaBreaker::new();
        assert!(breaker.admit() && breaker.is_admitted());
        for _ in 1..FAILURE_THRESHOLD {
            breaker.record_failure();
        }
        assert!(breaker.is_admitted(), "below threshold");
        breaker.record_failure();
        assert!(!breaker.is_admitted());
        assert_eq!(breaker.trips(), 1);
        // Past the cooldown, the next admission is the half-open probe.
        std::thread::sleep(COOLDOWN);
        assert!(breaker.admit());
        assert_eq!(breaker.probes(), 1);
        // A failed probe re-trips immediately…
        breaker.record_failure();
        assert!(!breaker.is_admitted());
        assert_eq!(breaker.trips(), 2);
        // …and a successful one re-admits.
        std::thread::sleep(COOLDOWN);
        assert!(breaker.admit());
        breaker.record_success();
        assert!(breaker.is_admitted());
        assert_eq!(breaker.readmits(), 1);
    }

    #[test]
    fn open_breaker_rejects_until_cooldown() {
        let breaker = ReplicaBreaker::new();
        for _ in 0..FAILURE_THRESHOLD {
            breaker.record_failure();
        }
        assert!(!breaker.is_admitted());
        assert!(!breaker.admit(), "the cooldown has not elapsed");
        assert_eq!(breaker.probes(), 0);
    }

    #[test]
    fn http_transport_rejects_unresolvable_addresses() {
        assert!(matches!(
            HttpTransport::connect("definitely-not-a-host.invalid:80"),
            Err(ServeError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn http_transport_surfaces_unreachable_shards_as_transport_errors() {
        // Port 1 on loopback is essentially never listening and refuses at
        // once; the control call must fail with a transport error naming
        // the peer, not hang.
        let transport = HttpTransport::connect("127.0.0.1:1").unwrap();
        match transport.observe_epoch() {
            Err(ServeError::Transport { addr, .. }) => {
                assert_eq!(addr.as_deref(), Some("127.0.0.1:1"))
            }
            other => panic!("expected a transport error, got {other:?}"),
        }
    }

    // -----------------------------------------------------------------
    // HttpTransport over real loopback TCP: a real shard where one can
    // produce the case, a scripted peer where it cannot.
    // -----------------------------------------------------------------

    use crate::{HttpConfig, HttpServer, ShardPlan, ShardRouter};
    use std::net::TcpListener;
    use std::sync::mpsc::{channel, Sender};

    fn shard(config: HttpConfig) -> (HttpServer, HttpTransport) {
        let server =
            TopicServer::from_model(&planted_model(12, 3), ServeConfig::default()).unwrap();
        let http = HttpServer::bind("127.0.0.1:0", Arc::new(server), None, config).unwrap();
        let transport = HttpTransport::connect(http.local_addr()).unwrap();
        (http, transport)
    }

    fn submit<T: ShardTransport>(transport: &T) -> T::Pending {
        transport
            .submit_partial(
                vec![0, 3, 6],
                PartialRequest::FoldIn { seed: 4 },
                None,
                TraceContext::disabled(),
            )
            .unwrap()
    }

    /// A valid `/infer-partial` reply, as a real shard would frame it.
    fn canned_reply() -> Vec<u8> {
        let response = submit(&transport()).wait(None).unwrap();
        let body = wire::encode_partial_response(&response, (0, 12)).to_string();
        let head = format!("HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n", body.len());
        (head + &body).into_bytes()
    }

    /// Reads one request off a scripted peer's connection; `false` on EOF.
    fn read_request(stream: &mut TcpStream) -> bool {
        let mut seen = Vec::new();
        let mut byte = [0u8; 1];
        while !seen.ends_with(b"\r\n\r\n") {
            match stream.read(&mut byte) {
                Ok(1) => seen.push(byte[0]),
                _ => return false,
            }
        }
        let head = String::from_utf8(seen).unwrap();
        let length = head
            .lines()
            .find_map(|line| line.strip_prefix("Content-Length: "))
            .map_or(0, |v| v.trim().parse::<usize>().unwrap());
        stream.read_exact(&mut vec![0u8; length]).is_ok()
    }

    /// A scripted peer on loopback: `script` gets every accepted
    /// connection, in order, on the peer's one thread, and reports what it
    /// saw through the returned channel.
    fn scripted_peer(
        script: impl Fn(usize, TcpStream, &Sender<&'static str>) + Send + 'static,
    ) -> (HttpTransport, Receiver<&'static str>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let transport = HttpTransport::connect(listener.local_addr().unwrap()).unwrap();
        let (tx, rx) = channel();
        std::thread::spawn(move || {
            for (i, stream) in listener.incoming().enumerate() {
                match stream {
                    Ok(stream) => script(i, stream, &tx),
                    Err(_) => return,
                }
            }
        });
        (transport, rx)
    }

    fn idle_connections(transport: &HttpTransport) -> usize {
        transport.peer.idle.lock().unwrap().len()
    }

    const PATIENCE: Duration = Duration::from_secs(5);

    #[test]
    fn a_keep_alive_connection_the_shard_closed_is_replayed_not_retried() {
        let (http, transport) = shard(HttpConfig {
            read_timeout: Duration::from_millis(50),
            ..HttpConfig::default()
        });
        let plan = ShardPlan::single(12).unwrap();
        let router =
            ShardRouter::with_transports(plan, vec![transport], ServeConfig::default()).unwrap();
        let first = router
            .infer_with_deadline(vec![0, 3, 6], 4, Duration::MAX)
            .unwrap();
        // The shard hangs up on the idle pooled connection.
        let give_up = Instant::now() + PATIENCE;
        while http.stats().active_connections > 0 {
            assert!(
                Instant::now() < give_up,
                "the shard never closed the idle connection"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let second = router
            .infer_with_deadline(vec![0, 3, 6], 4, Duration::MAX)
            .unwrap();
        assert_eq!(first, second);
        let stats = router.router_stats();
        assert_eq!(stats.transport_retries, 0, "the replay is the transport's");
        assert_eq!(stats.breaker_trips, 0);
        router.shutdown();
        http.shutdown();
    }

    #[test]
    fn a_reply_in_two_writes_survives_a_bounded_poll_bit_for_bit() {
        let in_process = submit(&transport()).wait(None).unwrap();
        let reply = canned_reply();
        let (transport, _seen) = scripted_peer(move |i, mut stream, _| {
            assert!(read_request(&mut stream));
            if i == 0 {
                let (first, second) = reply.split_at(reply.len() / 2);
                stream.write_all(first).unwrap();
                std::thread::sleep(Duration::from_millis(30));
                stream.write_all(second).unwrap();
            } else {
                stream.write_all(&reply).unwrap();
            }
            // Hold the connection until the client has read the reply.
            read_request(&mut stream);
        });
        let resumed = submit(&transport)
            .wait(Some(Instant::now() + PATIENCE))
            .unwrap();
        drop(transport.peer.take_idle());
        let whole = submit(&transport).wait(None).unwrap();
        assert_eq!(resumed, whole);
        assert_eq!(resumed, in_process);
    }

    #[test]
    fn a_bound_in_the_past_still_returns_an_arrived_reply() {
        let reply = canned_reply();
        let (transport, seen) = scripted_peer(move |_, mut stream, seen| {
            assert!(read_request(&mut stream));
            stream.write_all(&reply).unwrap();
            seen.send("answered").unwrap();
            read_request(&mut stream);
        });
        let past = Instant::now();
        let pending = submit(&transport);
        assert_eq!(seen.recv_timeout(PATIENCE), Ok("answered"));
        let response = pending.wait(Some(past)).unwrap();
        assert_eq!(response.partial.n_words, 3);
    }

    #[test]
    fn dropping_a_pending_handle_closes_its_connection() {
        let reply = canned_reply();
        let (transport, seen) = scripted_peer(move |i, mut stream, seen| {
            assert!(read_request(&mut stream));
            if i == 0 {
                // No answer; the next read sees the client hang up.
                assert!(!read_request(&mut stream));
                seen.send("eof").unwrap();
            } else {
                stream.write_all(&reply).unwrap();
                seen.send("answered on a second connection").unwrap();
                read_request(&mut stream);
            }
        });
        drop(submit(&transport));
        assert_eq!(seen.recv_timeout(PATIENCE), Ok("eof"));
        assert_eq!(idle_connections(&transport), 0);
        submit(&transport).wait(None).unwrap();
        assert_eq!(
            seen.recv_timeout(PATIENCE),
            Ok("answered on a second connection")
        );
        assert_eq!(idle_connections(&transport), 1);
    }

    #[test]
    fn trailing_bytes_keep_a_connection_out_of_the_pool() {
        let reply = canned_reply();
        let (transport, _seen) = scripted_peer(move |i, mut stream, _| {
            assert!(read_request(&mut stream));
            let mut bytes = reply.clone();
            if i == 0 {
                bytes.extend_from_slice(b"HTTP/1.1 200 OK\r\n");
            }
            stream.write_all(&bytes).unwrap();
            read_request(&mut stream);
        });
        submit(&transport).wait(None).unwrap();
        assert_eq!(idle_connections(&transport), 0, "unframed bytes followed");
        submit(&transport).wait(None).unwrap();
        assert_eq!(idle_connections(&transport), 1, "exactly one response");
    }

    #[test]
    fn a_partial_over_another_k_is_refused_against_the_fleets() {
        // Under 100 bytes that claim the largest `k` the wire admits.
        let body =
            r#"{"k":1048576,"topics":[],"counts":[],"n_words":3,"snapshot_version":1,"n_oov":0}"#;
        let reply = format!(
            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let (transport, _seen) = scripted_peer(move |_, mut stream, _| {
            while read_request(&mut stream) {
                stream.write_all(reply.as_bytes()).unwrap();
            }
        });
        match submit(&transport).wait_over(None, 64) {
            Err(ServeError::Transport { detail, .. }) => {
                assert!(detail.contains("1048576 topics"), "detail was: {detail}");
            }
            other => panic!("expected a transport error, got {other:?}"),
        }
        // Without the fleet's K the same reply decodes.
        let unbounded = submit(&transport).wait(None).unwrap();
        assert_eq!(unbounded.partial.counts.len(), 1 << 20);
    }

    #[test]
    fn unframeable_replies_are_transport_errors_naming_the_peer() {
        let (transport, _seen) = scripted_peer(move |i, mut stream, _| {
            assert!(read_request(&mut stream));
            let reply: &[u8] = match i {
                // Declares far more than `MAX_RESPONSE_BYTES` and sends none.
                0 => b"HTTP/1.1 200 OK\r\nContent-Length: 99999999999\r\n\r\n",
                1 => b"HTTP/1.1 200 OK\r\nContent-Length: lots\r\n\r\n",
                _ => b"SABR what\r\n\r\n",
            };
            stream.write_all(reply).unwrap();
            read_request(&mut stream);
        });
        for expected in [
            "response too large",
            "bad content-length",
            "malformed status line",
        ] {
            match submit(&transport).wait(None) {
                Err(ServeError::Transport { detail, addr, .. }) => {
                    assert!(detail.contains(expected), "detail was: {detail}");
                    assert_eq!(addr, Some(transport.addr().to_string()));
                }
                other => panic!("expected a transport error, got {other:?}"),
            }
            assert_eq!(idle_connections(&transport), 0);
        }
    }

    #[test]
    fn a_silent_peer_costs_the_deadline_or_the_io_timeout() {
        let (transport, _seen) = scripted_peer(move |_, mut stream, _| {
            // Accepts, reads, never answers; returns when the client
            // gives up and closes.
            while read_request(&mut stream) {}
        });
        let started = Instant::now();
        let deadline = started + Duration::from_millis(50);
        assert!(matches!(
            submit(&transport).wait(Some(deadline)),
            Err(ServeError::DeadlineExceeded)
        ));
        assert!(started.elapsed() < IO_TIMEOUT, "the deadline came first");
        // Without a deadline the I/O timeout ends the wait.
        let started = Instant::now();
        match submit(&transport).wait(None) {
            Err(ServeError::Transport { detail, .. }) => {
                assert!(detail.contains("timed out"), "detail was: {detail}")
            }
            other => panic!("expected a transport error, got {other:?}"),
        }
        assert!(started.elapsed() >= IO_TIMEOUT);
    }

    #[test]
    fn a_shard_at_its_connection_cap_is_overloaded_not_gone() {
        let (http, transport) = shard(HttpConfig {
            max_connections: 1,
            ..HttpConfig::default()
        });
        // The transport's own pooled connection takes the one slot…
        assert_eq!(transport.observe_epoch().unwrap(), 1);
        assert_eq!(http.stats().active_connections, 1);
        // …so a second router's transport is turned away at the door.
        let second = HttpTransport::connect(http.local_addr()).unwrap();
        assert!(matches!(
            second.observe_epoch(),
            Err(ServeError::Overloaded)
        ));
        drop(transport);
        http.shutdown();
    }

    #[test]
    fn both_transports_refuse_the_same_slices_at_staging() {
        fn check(t: &impl ShardTransport) {
            let slice = |vocab, k, alpha| {
                let mut model = saber_core::LdaModel::new(vocab, k, alpha, 0.01).unwrap();
                *model.word_topic_mut() = planted_model(vocab, k).word_topic().clone();
                model.refresh_probabilities();
                InferenceSnapshot::from_model(&model, SnapshotSampler::WaryTree)
            };
            let bad_request = ServeError::BadRequest { detail: "".into() };
            let conflict = ServeError::Conflict { detail: "".into() };
            let variant = std::mem::discriminant::<ServeError>;
            // Cut over the served epoch 1 for epoch 3, staged for epoch 2.
            let delta = slice(12, 3, 0.05).shard_delta(0..12, &[1, 2], 1, 3);
            for (epoch, publication, refusal, why) in [
                (
                    2,
                    Publication::Slice(slice(6, 3, 0.05)),
                    &bad_request,
                    "a wrong-V slice",
                ),
                (
                    2,
                    Publication::Slice(slice(12, 4, 0.05)),
                    &bad_request,
                    "a wrong-K slice",
                ),
                (
                    2,
                    Publication::Slice(slice(12, 3, 5.0)),
                    &bad_request,
                    "another alpha",
                ),
                (
                    0,
                    Publication::Slice(slice(12, 3, 0.05)),
                    &conflict,
                    "a stale epoch",
                ),
                (
                    1,
                    Publication::Slice(slice(12, 3, 0.05)),
                    &conflict,
                    "the epoch served",
                ),
                (
                    2,
                    Publication::Delta(&delta),
                    &bad_request,
                    "a delta for epoch 3",
                ),
            ] {
                match t.stage(epoch, publication) {
                    Err(e) => assert_eq!(variant(&e), variant(refusal), "{why}: {e:?}"),
                    Ok(staged) => panic!("{why} was answered {staged}"),
                }
            }
            for epoch in [2, 3] {
                match t.commit_publish(epoch) {
                    Err(e) => assert_eq!(variant(&e), variant(&conflict), "{e:?}"),
                    Ok(_) => panic!("a refused publication was staged for epoch {epoch}"),
                }
            }
            // …and the contract refuses nothing it should not.
            assert!(t.stage(2, Publication::Slice(slice(12, 3, 0.05))).unwrap());
            assert_eq!(t.commit_publish(2).unwrap(), 2);
            assert_eq!(t.observe_epoch().unwrap(), 2);
        }
        check(&transport());
        let (http, remote) = shard(HttpConfig::default());
        check(&remote);
        drop(remote);
        http.shutdown();
    }

    /// The status a server answers to a `POST path` head that declares a
    /// `length`-byte body, sent without the body.
    fn status_for_declared_body(addr: SocketAddr, path: &str, length: u64) -> u16 {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(PATIENCE)).unwrap();
        let head = format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nX-Saber-Epoch: 3\r\nContent-Length: {length}\r\n\r\n"
        );
        stream.write_all(head.as_bytes()).unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        reply.split_whitespace().nth(1).unwrap().parse().unwrap()
    }

    #[test]
    fn publication_bodies_are_bounded_by_the_served_shape() {
        use saber_core::model_io::{delta_encoded_bytes, snapshot_encoded_bytes};
        // 1 024 × 300 topics: a full slice is 1.2 MB, above the 1 MiB
        // default `max_body_bytes`.
        let model = planted_model(1024, 300);
        let server = TopicServer::from_model(&model, ServeConfig::default()).unwrap();
        let http =
            HttpServer::bind("127.0.0.1:0", Arc::new(server), None, HttpConfig::default()).unwrap();
        let remote = HttpTransport::connect(http.local_addr()).unwrap();
        let slice = InferenceSnapshot::from_model(&model, SnapshotSampler::WaryTree);
        let mut body = Vec::new();
        slice.save(&mut body).unwrap();
        assert!(body.len() > HttpConfig::default().max_body_bytes);
        remote.stage(2, Publication::Slice(slice)).unwrap();
        assert_eq!(remote.commit_publish(2).unwrap(), 2);
        assert_eq!(remote.observe_epoch().unwrap(), 2);
        // Every other body keeps the 1 MiB bound, and a publication larger
        // than the served shape allows is refused before it is read.
        for (path, length) in [
            ("/infer", (1 << 20) + 1),
            (
                "/publish-shard",
                snapshot_encoded_bytes(1024, 300).unwrap() + 1,
            ),
            (
                "/publish-delta",
                delta_encoded_bytes(1024, 300).unwrap() + 1,
            ),
        ] {
            let status = status_for_declared_body(http.local_addr(), path, length);
            assert_eq!(status, 413, "{path} with a {length}-byte body");
        }
        drop(remote);
        http.shutdown();
    }

    #[test]
    fn a_router_front_refuses_the_shard_protocol_and_bounds_its_bodies() {
        use saber_core::model_io::snapshot_encoded_bytes;
        let model = planted_model(12, 3);
        let plan = ShardPlan::uniform(12, 2).unwrap();
        let router = ShardRouter::from_model(&model, plan, ServeConfig::default()).unwrap();
        let router = Arc::new(router);
        let front = HttpServer::bind(
            "127.0.0.1:0",
            Arc::clone(&router),
            None,
            HttpConfig::default(),
        )
        .unwrap();
        // No shard stands behind the front to describe, read from, stage
        // over or commit: every shard endpoint answers 400 before it parses
        // the (malformed) body.
        for (method, path, detail) in [
            (
                "POST",
                "/infer-partial",
                "this backend does not serve shard partials",
            ),
            (
                "POST",
                "/publish-shard",
                "this backend does not accept epoch publications",
            ),
            (
                "POST",
                "/publish-delta",
                "this backend does not accept epoch publications",
            ),
            (
                "POST",
                "/commit-epoch",
                "this backend does not accept epoch publications",
            ),
            (
                "GET",
                "/shard-info",
                "this backend does not describe a shard",
            ),
        ] {
            let mut stream = TcpStream::connect(front.local_addr()).unwrap();
            stream.set_read_timeout(Some(PATIENCE)).unwrap();
            let head = format!(
                "{method} {path} HTTP/1.1\r\nHost: t\r\nX-Saber-Epoch: 2\r\n\
                 Content-Length: 5\r\nConnection: close\r\n\r\n"
            );
            stream
                .write_all(&[head.as_bytes(), b"\xff{\"]1"].concat())
                .unwrap();
            let mut reply = String::new();
            stream.read_to_string(&mut reply).unwrap();
            assert!(reply.starts_with("HTTP/1.1 400 "), "{path}: {reply}");
            assert!(reply.contains(detail), "{path}: {reply}");
        }
        // So a router pointed at the front fails at construction.
        let remote = HttpTransport::connect(front.local_addr()).unwrap();
        let plan = ShardPlan::single(12).unwrap();
        match ShardRouter::with_transports(plan, vec![remote], ServeConfig::default()) {
            Err(ServeError::BadRequest { detail }) => {
                assert!(detail.contains("this backend does not"), "{detail}")
            }
            other => panic!("expected a 400, got {other:?}"),
        }
        assert_eq!(router.epoch(), 1);
        // Its bodies are bounded by `max_body_bytes`, not by the shape of
        // a snapshot it could never stage.
        let max_body_bytes = 100;
        assert!(snapshot_encoded_bytes(12, 3).unwrap() > max_body_bytes as u64 + 1);
        let config = HttpConfig {
            max_body_bytes,
            ..HttpConfig::default()
        };
        let bounded = HttpServer::bind("127.0.0.1:0", router, None, config).unwrap();
        for path in ["/publish-shard", "/publish-delta"] {
            let status = status_for_declared_body(bounded.local_addr(), path, 101);
            assert_eq!(status, 413, "{path}");
        }
        front.shutdown();
        bounded.shutdown();
    }
}
