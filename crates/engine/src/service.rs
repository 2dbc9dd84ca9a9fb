//! Service mode: a long-lived engine daemon with a warm [`CacheHub`].
//!
//! A one-shot CLI invocation pays process startup, store scans, and a
//! stone-cold in-memory cache on every run, even when the on-disk
//! store is warm. [`Service`] amortizes all of that: it listens on a
//! Unix domain socket and/or a TCP address, accepts batch submissions
//! in the [`protocol`](crate::protocol) frame format, and runs each
//! through the ordinary [`Scheduler`](crate::scheduler::Scheduler)
//! against **one hub held for the daemon's whole lifetime**. The
//! second submission of an overlapping sweep performs zero fabrication
//! campaigns *without even touching disk* — every product is already
//! in memory.
//!
//! Daemons also serve each other: the store peer verbs
//! (`store-get`/`store-put`/`store-list`,
//! [`chipletqc_store::remote`]) are answered from the daemon's local
//! store tier, so a cold host whose store points at this daemon
//! ([`Store::with_peer`](chipletqc_store::Store::with_peer)) pulls
//! KGD bins and mono populations over the wire instead of fabricating
//! them — the paper's networked-chiplets thesis applied to the
//! infrastructure.
//!
//! ## Contract
//!
//! * Each submission resolves through the same
//!   [`resolve_batch`](crate::suite::resolve_batch) path as the
//!   one-shot CLI and honors its own `workers`/`shards`, so the
//!   returned `RunReport` is byte-identical to a one-shot run of the
//!   same batch — apart from the `fabrication`/`store` counter
//!   objects, which report this submission's *deltas* (the hub's
//!   counters are monotonic across batches;
//!   [`FabricationStats::since`](chipletqc::lab::FabricationStats::since)
//!   /
//!   [`StoreStats::since`](chipletqc_store::StoreStats::since)
//!   rebase them). The transport is invisible in the report: Unix and
//!   TCP submissions of the same batch answer with identical bytes.
//! * Submissions run **concurrently**, each on its own connection
//!   thread, all against one shared
//!   [`WorkPool`](crate::scheduler::WorkPool): admission is bounded
//!   (`max_inflight` batches running, `queue_depth` more waiting in
//!   FIFO order), a submission past both bounds is answered with a
//!   terminal `busy` frame instead of stalling, and pool workers pick
//!   tasks round-robin across in-flight batches so a wide batch
//!   cannot starve a narrow one. Determinism survives the
//!   interleaving because the schedule never decides *what* runs —
//!   shared-cache entries stay compute-once (`OnceLock`) and every
//!   value is a pure function of the scenario configuration — and the
//!   hub's counters are monotone under a lock, so per-submission
//!   deltas stay race-safe.
//! * A submission streams `progress` frames while it waits (queue
//!   position) and runs (shard-task counts). The client may retire it
//!   early with a `cancel` frame — acknowledged terminally — or by
//!   closing the connection; pending work is dropped, in-flight tasks
//!   complete into the warm hub, and the daemon keeps serving
//!   everyone else.
//! * TCP connections must authenticate with the daemon's shared token
//!   (a `hello` frame) before any request; the token is a shared
//!   secret for *trusted networks* — it authenticates, it does not
//!   encrypt. Unix connections are trusted via filesystem permissions
//!   and may skip the handshake.
//! * Every reply is bounded twice: [`RESPONSE_TIMEOUT`] caps each
//!   write syscall and [`REPLY_DEADLINE`] caps the whole reply (a
//!   slow-drip client cannot reset the per-syscall timeout forever).
//!   A client that dies, stalls, or drips while a (possibly large)
//!   report streams back costs the daemon one dropped reply — counted
//!   in [`ServiceSummary::dropped_replies`], batch counters already
//!   retired — never a wedged accept loop.
//! * Shutdown — a `shutdown` frame or the binary's SIGTERM flag —
//!   stops accepting, then drains **every** admitted batch (running
//!   *and* queued) to a full reply before the listener closes and the
//!   socket file is removed. A rejected submission (parse error,
//!   unknown scenario, bad token) answers with an error frame and
//!   leaves the daemon up.
//! * After every batch the hub evicts the warm caches of idle lab
//!   configurations beyond the [`WARM_CONFIGS`] most recently used
//!   ([`CacheHub::trim`]), so a stream of new seeds cannot grow the
//!   daemon without bound. A submission may also ask for a
//!   [`CacheHub::clear`] first (`reset`).
//!
//! ## Blocking waits
//!
//! Nothing sleeps or polls: every wait blocks on the event that ends
//! it. One thread per listener blocks in `accept`, re-checks the stop
//! conditions on every arrival and gives each connection a thread of
//! its own; shutdown wakes the listeners with a self-connect. A
//! submission's thread blocks on one channel fed by its socket reader
//! (`cancel`, hang-up, bad frame), the admission gate (queue moved,
//! slot granted) and its batch's progress callback. Every thread is
//! scoped, so [`Service::run`] returns only after all of them have
//! finished: that is the drain.
//!
//! ## Socket takeover
//!
//! A left-over socket file from a crashed daemon is detected — a
//! connection attempt to it is refused — and replaced. The whole
//! probe-remove-bind sequence runs under an exclusive advisory lock on
//! a `<socket>.lock` file *held for the daemon's lifetime*, so two
//! daemons racing for the same path serialize: exactly one wins, the
//! other sees `AddrInUse`, and a freshly bound live socket can never
//! be deleted out from under its daemon in the window between the
//! probe and the bind. The lock file itself is never unlinked
//! (unlinking would reopen the race); the kernel releases the lock
//! when the daemon exits, however it exits.

// Daemon path: a panic here takes down the warm hub and every queued
// client. (`unwrap_used` comes from the workspace lints.)
#![warn(
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
// Lock poisoning policy: a panicking batch task is already caught by
// the scheduler's `catch_unwind`, so a poisoned admission/reset lock
// means some *other* connection thread died mid-update of plain
// counters and queue vectors — state that is never left half-written
// in a way that matters more than the daemon staying up. The
// never-die daemon recovers the guard instead of propagating the
// poison to every tenant.
use std::sync::{mpsc, Mutex, PoisonError, RwLock};
use std::time::Duration;

use chipletqc::lab::{CacheHub, FabricationStats};
use chipletqc::report::Json;
use chipletqc_obs::Gauge;
use chipletqc_store::backend::Lookup;
use chipletqc_store::remote::{self, PeerStats, StoreReply, StoreRequest};
use chipletqc_store::{Store, StoreStats};

use crate::mesh;
use crate::protocol::{
    read_request, write_request, write_response, Progress, Request, Response, Submission,
};
use crate::report::{batch_timing_summary, RunReport};
use crate::scenario::{Scale, Scenario};
use crate::scheduler::{BatchAborted, ProgressFn, ScenarioResult, Scheduler, WorkPool};
use crate::suite::resolve_batch;
use crate::sweep::Sweep;

/// How long the daemon waits for a connected client to deliver its
/// request frame. Requests are small and sent in one burst, so this is
/// generous; without it an idle connection (a port probe, a client
/// stopped mid-frame) would hold its thread, and the drain, forever.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// How long one reply *write syscall* may stall before the daemon
/// abandons the reply: generous, since reports can be large and
/// clients slow, but an unbounded write to a stalled client would hold
/// its thread, and the drain, forever.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

/// Total budget for one whole reply: `SO_SNDTIMEO` bounds only each
/// write syscall, which a slow-drip client can keep under
/// [`RESPONSE_TIMEOUT`] indefinitely. Generous: a healthy client on
/// any sane link drains a multi-megabyte report in seconds.
const REPLY_DEADLINE: Duration = Duration::from_secs(120);

/// Total budget for reading one whole request, mirroring
/// [`REPLY_DEADLINE`] on the read side: a client dripping one header
/// byte per [`REQUEST_TIMEOUT`] could otherwise hold a thread in
/// `read_frame_head` for hours — pre-authentication, on the
/// network-exposed listener.
const REQUEST_DEADLINE: Duration = Duration::from_secs(60);

/// How long the daemon waits for the *next* frame on a connection
/// that just completed a store exchange. Store peers reuse one
/// connection for a burst of requests
/// ([`chipletqc_store::remote::RemoteBackend`]), so a short window
/// saves per-request dials and hellos, while an idle peer's thread
/// ends promptly. A peer cut off mid-burst redials once.
const STORE_KEEPALIVE: Duration = Duration::from_millis(250);

/// How many lab configurations the warm hub keeps after each batch:
/// idle ones beyond the most recently used this many are evicted
/// ([`CacheHub::trim`]). An evicted configuration costs only
/// recomputation, or a store read, the next time it is submitted.
const WARM_CONFIGS: usize = 32;

/// Default cap on concurrently running batches.
pub const DEFAULT_MAX_INFLIGHT: usize = 4;

/// Default cap on submissions waiting for an admission slot.
pub const DEFAULT_QUEUE_DEPTH: usize = 16;

/// A reader that enforces [`REQUEST_DEADLINE`] across a whole
/// request: once the deadline passes, every further read fails with
/// `TimedOut`. Each underlying syscall is still bounded by the
/// stream's own [`REQUEST_TIMEOUT`].
struct DeadlineReader<R> {
    inner: R,
    deadline: std::time::Instant,
}

impl<R: Read> DeadlineReader<R> {
    fn new(inner: R) -> DeadlineReader<R> {
        #[expect(
            clippy::disallowed_methods,
            reason = "request-deadline arming, a genuine timeout site"
        )]
        let deadline = std::time::Instant::now() + REQUEST_DEADLINE;
        DeadlineReader { inner, deadline }
    }

    /// Starts a fresh [`REQUEST_DEADLINE`] budget — called between
    /// requests on a kept-alive store connection, so each request gets
    /// the budget one request on a fresh connection would.
    fn reset(&mut self) {
        #[expect(
            clippy::disallowed_methods,
            reason = "request-deadline re-arming, a genuine timeout site"
        )]
        let deadline = std::time::Instant::now() + REQUEST_DEADLINE;
        self.deadline = deadline;
    }
}

impl<R: Read> Read for DeadlineReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        #[expect(
            clippy::disallowed_methods,
            reason = "deadline probe on the request read path"
        )]
        if std::time::Instant::now() >= self.deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("request exceeded its {REQUEST_DEADLINE:?} budget"),
            ));
        }
        self.inner.read(buf)
    }
}

/// A writer that enforces [`REPLY_DEADLINE`] across a whole reply:
/// once the deadline passes, every further write fails with
/// `TimedOut` (which [`Service::note_dropped_reply`] classifies as a
/// stalled client). Each underlying syscall is still bounded by the
/// stream's own [`RESPONSE_TIMEOUT`], so the worst wedge is one
/// deadline plus one syscall timeout.
struct DeadlineWriter<W> {
    inner: W,
    deadline: std::time::Instant,
}

impl<W: Write> DeadlineWriter<W> {
    fn new(inner: W) -> DeadlineWriter<W> {
        #[expect(
            clippy::disallowed_methods,
            reason = "reply-deadline arming, a genuine timeout site"
        )]
        let deadline = std::time::Instant::now() + REPLY_DEADLINE;
        DeadlineWriter { inner, deadline }
    }

    fn check(&self) -> io::Result<()> {
        #[expect(clippy::disallowed_methods, reason = "deadline probe on the reply write path")]
        if std::time::Instant::now() >= self.deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("reply exceeded its {REPLY_DEADLINE:?} budget"),
            ));
        }
        Ok(())
    }
}

impl<W: Write> Write for DeadlineWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.check()?;
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.check()?;
        self.inner.flush()
    }
}

/// Daemon configuration.
#[derive(Clone)]
pub struct ServiceConfig {
    /// The Unix domain socket path to listen on (local clients).
    pub socket: Option<PathBuf>,
    /// The TCP `HOST:PORT` to listen on (remote clients and store
    /// peers); requires `token`.
    pub listen: Option<String>,
    /// The shared authentication token. Mandatory for TCP clients;
    /// Unix clients may present it but are not required to.
    pub token: Option<String>,
    /// Default scheduler worker threads for submissions that set none
    /// (`None` uses the hardware thread count).
    pub default_workers: Option<usize>,
    /// Default per-scenario shard cap for submissions that set none.
    pub default_shards: usize,
    /// Accept mesh `work-claim` frames (a coordinator scattering a
    /// sweep across worker daemons). Off by default: a daemon serving
    /// interactive submissions should not silently double as mesh
    /// capacity.
    pub mesh_worker: bool,
    /// How many batches may run concurrently (clamped to at least 1).
    pub max_inflight: usize,
    /// How many submissions may wait for an admission slot; one more
    /// is answered with a `busy` frame. Zero disables queueing.
    pub queue_depth: usize,
}

// Manual: the token is the authentication secret, and `{:?}` output
// lands in logs (CI uploads the daemon's). Redact it, never print it.
impl std::fmt::Debug for ServiceConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceConfig")
            .field("socket", &self.socket)
            .field("listen", &self.listen)
            .field("token", &self.token.as_ref().map(|_| "[redacted]"))
            .field("default_workers", &self.default_workers)
            .field("default_shards", &self.default_shards)
            .field("mesh_worker", &self.mesh_worker)
            .field("max_inflight", &self.max_inflight)
            .field("queue_depth", &self.queue_depth)
            .finish()
    }
}

impl ServiceConfig {
    /// A configuration listening on the Unix socket `socket` with
    /// hardware-default workers and no sharding.
    pub fn new(socket: impl Into<PathBuf>) -> ServiceConfig {
        ServiceConfig {
            socket: Some(socket.into()),
            listen: None,
            token: None,
            default_workers: None,
            default_shards: 1,
            mesh_worker: false,
            max_inflight: DEFAULT_MAX_INFLIGHT,
            queue_depth: DEFAULT_QUEUE_DEPTH,
        }
    }

    /// Adds a TCP listener at `addr` (`HOST:PORT`) authenticated by
    /// the shared `token`.
    #[must_use]
    pub fn with_listen(
        mut self,
        addr: impl Into<String>,
        token: impl Into<String>,
    ) -> ServiceConfig {
        self.listen = Some(addr.into());
        self.token = Some(token.into());
        self
    }

    /// A TCP-only configuration (no Unix socket).
    pub fn tcp(addr: impl Into<String>, token: impl Into<String>) -> ServiceConfig {
        ServiceConfig { socket: None, ..ServiceConfig::new(PathBuf::new()) }
            .with_listen(addr, token)
    }

    /// Marks the daemon as a mesh worker: it will accept and execute
    /// `work-claim` frames from a coordinator.
    #[must_use]
    pub fn as_mesh_worker(mut self) -> ServiceConfig {
        self.mesh_worker = true;
        self
    }

    /// Sets the admission bounds: at most `max_inflight` batches run
    /// at once (clamped to at least 1) and at most `queue_depth` more
    /// wait; past both, submissions get a `busy` frame.
    #[must_use]
    pub fn with_admission(mut self, max_inflight: usize, queue_depth: usize) -> ServiceConfig {
        self.max_inflight = max_inflight.max(1);
        self.queue_depth = queue_depth;
        self
    }
}

/// What one daemon lifetime did — returned by [`Service::run`] for
/// logging and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceSummary {
    /// Batches executed successfully.
    pub batches: u64,
    /// Submissions rejected with an error frame (parse errors, unknown
    /// scenarios, failed authentication).
    pub rejected: u64,
    /// Total scenarios executed across all batches.
    pub scenarios: u64,
    /// Store peer requests served (`store-get`/`store-put`/
    /// `store-list`).
    pub store_requests: u64,
    /// Mesh work units executed (`work-claim` frames answered with
    /// pieces).
    pub work_units: u64,
    /// Replies abandoned because the client died or stalled past the
    /// write timeout. The work itself is never lost — batch and hub
    /// counters are retired before the reply is written.
    pub dropped_replies: u64,
    /// Submissions retired early — an explicit `cancel` frame, or a
    /// client that disconnected while its batch was queued or
    /// running. Whatever their tasks already computed stays in the
    /// warm hub.
    pub cancelled: u64,
}

/// One accepted client connection, Unix or TCP — the service handles
/// both through the same synchronous, frame-at-a-time path. A
/// connection thread writes to it while, during a submission, its
/// socket-reader thread reads from it.
#[derive(Debug)]
enum Conn {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Conn {
    /// Remote connections must authenticate; local (Unix) ones are
    /// trusted via filesystem permissions.
    fn is_remote(&self) -> bool {
        matches!(self, Conn::Tcp(_))
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.set_read_timeout(timeout),
            Conn::Tcp(s) => s.set_read_timeout(timeout),
        }
    }

    fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.set_write_timeout(timeout),
            Conn::Tcp(s) => s.set_write_timeout(timeout),
        }
    }

    /// Shuts the read side, so a reader blocked on it sees end of
    /// stream.
    fn shutdown_read(&self) {
        let _ = match self {
            Conn::Unix(s) => s.shutdown(Shutdown::Read),
            Conn::Tcp(s) => s.shutdown(Shutdown::Read),
        };
    }
}

impl Read for &Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => (&mut &*s).read(buf),
            Conn::Tcp(s) => (&mut &*s).read(buf),
        }
    }
}

impl Write for &Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => (&mut &*s).write(buf),
            Conn::Tcp(s) => (&mut &*s).write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Unix(s) => (&mut &*s).flush(),
            Conn::Tcp(s) => (&mut &*s).flush(),
        }
    }
}

/// A bound listener, handing out [`Conn`]s.
#[derive(Debug)]
enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
        }
    }
}

/// A bound, not-yet-running engine daemon. [`Service::run`] consumes
/// it; the socket file is removed when the service drops.
#[derive(Debug)]
pub struct Service {
    config: ServiceConfig,
    /// The Unix listener first, when there is one.
    listeners: Vec<Listener>,
    tcp_addr: Option<SocketAddr>,
    /// The lifetime-held takeover lock (see the module docs); dropping
    /// it releases the lock however the daemon exits.
    _lock: Option<File>,
    hub: CacheHub,
}

/// The lock file guarding a socket path's probe-remove-bind sequence.
fn socket_lock_path(socket: &Path) -> PathBuf {
    let mut name = socket.as_os_str().to_os_string();
    name.push(".lock");
    PathBuf::from(name)
}

/// Reads and discards whatever request bytes a rejected client
/// already pipelined (bounded in both bytes and time), so closing the
/// socket does not RST-destroy the error reply queued behind them.
/// Only rejection paths pay this; the bound keeps a hostile streamer
/// from turning it into a hold.
fn drain_rejected(conn: &Conn) {
    const DRAIN_BUDGET: usize = 256 * 1024;
    let _ = conn.set_read_timeout(Some(Duration::from_millis(250)));
    let mut reader = conn;
    let mut sink = [0u8; 4096];
    let mut total = 0;
    while total < DRAIN_BUDGET {
        match reader.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => total += n,
        }
    }
}

/// Constant-time token comparison (length may leak; bytes must not).
fn token_matches(presented: &str, expected: &str) -> bool {
    let (p, e) = (presented.as_bytes(), expected.as_bytes());
    p.len() == e.len() && p.iter().zip(e).fold(0u8, |acc, (a, b)| acc | (a ^ b)) == 0
}

impl Service {
    /// Binds the configured listeners and prepares the lifetime hub
    /// (optionally backed by a persistent store).
    ///
    /// For the Unix socket: a left-over file from a crashed daemon is
    /// detected — a connection attempt to it is refused — and
    /// replaced; a *live* daemon on the same path is an `AddrInUse`
    /// error. The sequence runs under an exclusive `<socket>.lock`
    /// held for the daemon's lifetime, so concurrent binders
    /// serialize instead of racing (see the module docs).
    pub fn bind(config: ServiceConfig, store: Option<Store>) -> io::Result<Service> {
        if config.socket.is_none() && config.listen.is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "service needs a Unix socket path, a TCP listen address, or both",
            ));
        }
        if config.listen.is_some() && config.token.is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a TCP listener requires a shared token (clients authenticate with it)",
            ));
        }
        let mut listeners = Vec::new();
        let lock = match &config.socket {
            Some(socket) => {
                let (listener, lock) = Self::bind_unix(socket)?;
                listeners.push(Listener::Unix(listener));
                Some(lock)
            }
            None => None,
        };
        let tcp_addr = match &config.listen {
            Some(addr) => {
                let listener = TcpListener::bind(addr)?;
                let local = listener.local_addr()?;
                listeners.push(Listener::Tcp(listener));
                Some(local)
            }
            None => None,
        };
        let hub = match store {
            Some(store) => CacheHub::new().with_store(store),
            None => CacheHub::new(),
        };
        Ok(Service { config, listeners, tcp_addr, _lock: lock, hub })
    }

    /// The probe-remove-bind sequence for the Unix socket, serialized
    /// by an exclusive lock on `<socket>.lock` that the returned
    /// handle keeps held for the daemon's lifetime.
    fn bind_unix(socket: &Path) -> io::Result<(UnixListener, File)> {
        if let Some(parent) = socket.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let lock_path = socket_lock_path(socket);
        let lock = File::options().create(true).truncate(false).write(true).open(&lock_path)?;
        if let Err(error) = lock.try_lock() {
            return Err(io::Error::new(
                io::ErrorKind::AddrInUse,
                format!(
                    "another daemon holds {} ({error}); {} is in use",
                    lock_path.display(),
                    socket.display()
                ),
            ));
        }
        if socket.exists() {
            match UnixStream::connect(socket) {
                Ok(_) => {
                    return Err(io::Error::new(
                        io::ErrorKind::AddrInUse,
                        format!("{} already has a live daemon", socket.display()),
                    ));
                }
                // Only a refused connection proves nothing is
                // listening (a crashed daemon's leftover file). Any
                // other failure — e.g. a busy daemon whose listen
                // backlog is full — must NOT be read as "stale": that
                // would delete a live daemon's socket out from under
                // its clients.
                Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => {
                    std::fs::remove_file(socket)?;
                }
                Err(e) => {
                    return Err(io::Error::new(
                        io::ErrorKind::AddrInUse,
                        format!(
                            "{} exists and may belong to a live daemon ({e}); \
                             remove it manually if the daemon is gone",
                            socket.display()
                        ),
                    ));
                }
            }
        }
        Ok((UnixListener::bind(socket)?, lock))
    }

    /// The Unix socket path the service is listening on, if any.
    pub fn socket(&self) -> Option<&Path> {
        self.config.socket.as_deref()
    }

    /// The bound TCP address, if any — with a `:0` listen request this
    /// is where the kernel actually put the daemon.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// Serves submissions until a `shutdown` frame arrives or
    /// `should_stop` returns true (the binary points this at its
    /// SIGTERM flag; tests pass `|| false` and use the frame).
    /// `should_stop` is re-checked whenever a connection arrives on the
    /// first listener — the Unix socket, when there is one — so
    /// whoever sets the flag wakes the daemon by connecting there.
    /// Connections are handled concurrently, one thread each, against
    /// a shared [`WorkPool`]; shutdown stops accepting and then
    /// drains **every** admitted batch — running and queued alike —
    /// to a full reply before the listeners close.
    pub fn run(self, should_stop: impl Fn() -> bool) -> io::Result<ServiceSummary> {
        let pool_workers = self
            .config
            .default_workers
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        let shared = Shared {
            admission: Admission::new(self.config.max_inflight, self.config.queue_depth),
            pool: WorkPool::new(pool_workers),
            reset_gate: RwLock::new(()),
            config: self.config.clone(),
            tcp_addr: self.tcp_addr,
            hub: self.hub.clone(),
            counters: Counters::default(),
            shutdown: AtomicBool::new(false),
        };
        std::thread::scope(|scope| {
            let shared = &shared;
            // A panicking handler costs its own connection, never the
            // daemon.
            let serve = move |conn| {
                scope.spawn(move || {
                    let _ = catch_unwind(AssertUnwindSafe(|| shared.handle(conn)));
                });
            };
            // The first listener (the Unix socket, when there is one) is
            // served on this thread, which alone may call `should_stop`;
            // the TCP listener beside it gets a thread of its own.
            let mut listeners = self.listeners.iter();
            let first = listeners.next();
            for listener in listeners {
                scope.spawn(move || shared.accept_loop(listener, &|| false, &serve));
            }
            if let Some(listener) = first {
                shared.accept_loop(listener, &should_stop, &serve);
            }
            // Leaving the scope joins every connection thread: the
            // graceful drain, queued submissions included.
        });
        // Outstanding store writes land before the directory is handed
        // back (to a next daemon, or to one-shot runs).
        shared.hub.flush_store();
        let summary = shared.counters.summary();
        // Drop the pool here so its worker threads exit before the
        // socket file is removed.
        drop(shared);
        Ok(summary)
    }
}

/// Lifetime counters, shared across connection threads. Plain
/// monotone tallies — relaxed ordering is enough; [`Service::run`]
/// reads them after joining every handler.
#[derive(Debug, Default)]
struct Counters {
    batches: AtomicU64,
    rejected: AtomicU64,
    scenarios: AtomicU64,
    store_requests: AtomicU64,
    work_units: AtomicU64,
    dropped_replies: AtomicU64,
    cancelled: AtomicU64,
}

impl Counters {
    fn summary(&self) -> ServiceSummary {
        ServiceSummary {
            batches: self.batches.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            scenarios: self.scenarios.load(Ordering::Relaxed),
            store_requests: self.store_requests.load(Ordering::Relaxed),
            work_units: self.work_units.load(Ordering::Relaxed),
            dropped_replies: self.dropped_replies.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
        }
    }
}

/// The bounded admission gate: at most `max_inflight` batches execute
/// at once; up to `queue_depth` more wait in a FIFO ticket queue; the
/// rest are told `busy`. Mesh claims and interactive submissions pass
/// through the same gate, so a daemon's total concurrent load is
/// bounded however the work arrives.
#[derive(Debug)]
struct Admission {
    max_inflight: usize,
    queue_depth: usize,
    state: Mutex<AdmissionState>,
    /// Observability mirrors of `state.inflight` / `state.queue.len()`,
    /// updated by delta at every transition. The registry is
    /// process-wide (parallel tests share it), so the gauges are an
    /// aggregate; [`Admission::load`] reads this daemon's exact state.
    inflight_gauge: Gauge,
    queued_gauge: Gauge,
}

#[derive(Debug, Default)]
struct AdmissionState {
    inflight: usize,
    /// Waiting tickets, front = next to admit, each with the channel
    /// its connection thread blocks on.
    queue: VecDeque<(u64, mpsc::Sender<Event>)>,
    next_ticket: u64,
}

/// What [`Admission::enter`] decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Entry {
    /// An execution slot is taken; the caller holds it as a [`Slot`].
    Admitted,
    /// Waiting at `position` (1 = next in line) under `ticket`: the
    /// gate sends [`Event::Queued`] as the line moves and
    /// [`Event::Admitted`] with a slot, or [`Admission::abandon`]
    /// gives up.
    Queued { ticket: u64, position: usize },
    /// Queue full: reject with a `busy` frame.
    Busy { inflight: usize, queued: usize },
}

impl Admission {
    fn new(max_inflight: usize, queue_depth: usize) -> Admission {
        Admission {
            max_inflight: max_inflight.max(1),
            queue_depth,
            state: Mutex::new(AdmissionState::default()),
            inflight_gauge: chipletqc_obs::gauge("service.inflight"),
            queued_gauge: chipletqc_obs::gauge("service.queued"),
        }
    }

    /// Takes a slot, or a place in the queue whose notices go to
    /// `events`, or neither.
    fn enter(&self, events: &mpsc::Sender<Event>) -> Entry {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        // FIFO fairness: a free slot goes to the queue front, never to
        // a newcomer jumping it.
        if state.queue.is_empty() && state.inflight < self.max_inflight {
            state.inflight += 1;
            self.inflight_gauge.inc();
            return Entry::Admitted;
        }
        if state.queue.len() < self.queue_depth {
            let ticket = state.next_ticket;
            state.next_ticket += 1;
            state.queue.push_back((ticket, events.clone()));
            self.queued_gauge.inc();
            return Entry::Queued { ticket, position: state.queue.len() };
        }
        Entry::Busy { inflight: state.inflight, queued: state.queue.len() }
    }

    /// Withdraws a queued ticket (client cancelled or disconnected
    /// while waiting). A ticket the gate admitted in the meantime hands
    /// its slot straight back.
    fn abandon(&self, ticket: u64) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        match state.queue.iter().position(|(t, _)| *t == ticket) {
            Some(at) => {
                state.queue.remove(at);
                self.queued_gauge.dec();
                self.advance(&mut state, at);
            }
            None => self.release(&mut state),
        }
    }

    /// Releases an execution slot taken via [`Entry::Admitted`] or
    /// [`Event::Admitted`]; only [`Slot`]'s drop calls it.
    fn leave(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        self.release(&mut state);
    }

    fn release(&self, state: &mut AdmissionState) {
        if state.inflight > 0 {
            self.inflight_gauge.dec();
        }
        state.inflight = state.inflight.saturating_sub(1);
        self.advance(state, 0);
    }

    /// Hands free slots to the queue front, then tells every waiter
    /// from index `moved` on its new position.
    fn advance(&self, state: &mut AdmissionState, mut moved: usize) {
        while state.inflight < self.max_inflight {
            let Some((_, events)) = state.queue.pop_front() else { break };
            self.queued_gauge.dec();
            moved = 0;
            // A waiter whose connection thread is gone takes no slot.
            if events.send(Event::Admitted).is_ok() {
                state.inflight += 1;
                self.inflight_gauge.inc();
            }
        }
        for (at, (_, events)) in state.queue.iter().enumerate().skip(moved) {
            let _ = events.send(Event::Queued(at + 1));
        }
    }

    /// This daemon's exact, instantaneous `(inflight, queued)` — what
    /// the `status` frame reports (the process-wide gauges aggregate
    /// across every `Admission` in the process).
    fn load(&self) -> (usize, usize) {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        (state.inflight, state.queue.len())
    }
}

/// An execution slot held from admission until the reply. Dropping it
/// hands the slot back, so a panic between the two — in plan building
/// on the connection thread, say — cannot keep the slot for the
/// daemon's life.
struct Slot<'a>(&'a Admission);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.0.leave();
    }
}

/// What wakes a connection thread while its submission waits or runs.
enum Event {
    /// From the socket reader: what the client did.
    Client(ClientEvent),
    /// From the admission gate: the queue moved this submission to
    /// `position` (1 = next in line).
    Queued(usize),
    /// From the admission gate: an execution slot is held.
    Admitted,
    /// From the batch: `done` of `total` tasks retired.
    Progress(usize, usize),
}

/// What a client sent after its submission.
enum ClientEvent {
    /// The client closed the connection.
    Gone,
    /// The client sent an explicit `cancel` frame.
    Cancel,
    /// The client sent something else (or a malformed frame).
    Bad(String),
}

/// How an admitted batch ended.
enum RunOutcome {
    /// Ran to completion; respond with its report or pieces.
    Completed(BatchExecution),
    /// Retired early. `acked` = the client sent an explicit `cancel`
    /// and gets a `cancelled` acknowledgement (a vanished client gets
    /// nothing).
    Cancelled { acked: bool },
    /// A task panicked, or the client broke protocol mid-batch;
    /// respond with an error frame.
    Failed(String),
}

/// A submission parsed and resolved, ready for admission — resolution
/// happens *before* the admission gate so a malformed submission
/// never consumes a slot.
struct Prepared {
    suite: Vec<Scenario>,
    scheduler: Scheduler,
}

/// Tallies one request frame by type into the observability registry
/// (`service.requests.<verb>`), so a `status` snapshot shows what the
/// daemon has been asked to do. Per-connection, not per-byte — the
/// registry lookup's mutex is noise next to accepting a connection.
fn count_request(request: &Request) {
    let name = match request {
        Request::Hello(_) => "service.requests.hello",
        Request::Submit(_) => "service.requests.submit",
        Request::Store(_) => "service.requests.store",
        Request::WorkClaim(_) => "service.requests.work_claim",
        Request::Cancel => "service.requests.cancel",
        Request::Status => "service.requests.status",
        Request::Shutdown => "service.requests.shutdown",
    };
    chipletqc_obs::counter(name).inc();
}

/// Best-effort text for a batch task's panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("batch task panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("batch task panicked: {s}")
    } else {
        "batch task panicked".into()
    }
}

/// The daemon state every connection thread shares: the warm hub, the
/// work pool, the admission gate, and the lifetime counters.
struct Shared {
    config: ServiceConfig,
    hub: CacheHub,
    pool: WorkPool,
    admission: Admission,
    /// Batches hold this shared while they run; a `reset` holds it
    /// exclusive, so warm caches never drop mid-batch (a concurrent
    /// batch's counter deltas would otherwise double-count the
    /// refabrication).
    reset_gate: RwLock<()>,
    counters: Counters,
    /// The bound TCP address, for the shutdown self-connect.
    tcp_addr: Option<SocketAddr>,
    /// Set once shutdown starts ([`Shared::stop`]); the listener
    /// threads exit and the drain begins.
    shutdown: AtomicBool,
}

type ConnReader<'c> = BufReader<DeadlineReader<&'c Conn>>;

impl Shared {
    /// One listener's thread: blocks in `accept`, re-checks
    /// `should_stop` on every arrival and hands each connection to
    /// `serve`, until shutdown, whose self-connect wakes it a last
    /// time. An accept error (a peer that reset out of the backlog, fd
    /// exhaustion) costs a log line, never the warm hub the daemon
    /// exists to preserve.
    fn accept_loop(
        &self,
        listener: &Listener,
        should_stop: &dyn Fn() -> bool,
        serve: &(dyn Fn(Conn) + Sync),
    ) {
        loop {
            let accepted = listener.accept();
            if !self.shutdown.load(Ordering::SeqCst) && should_stop() {
                self.stop();
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            match accepted {
                Ok(conn) => serve(conn),
                Err(error) if error.kind() == io::ErrorKind::Interrupted => {}
                Err(error) => eprintln!("chipletqc-engine serve: accept failed: {error}"),
            }
        }
    }

    /// Starts the drain: from here on no new connection is served, and
    /// each listener thread, parked in `accept`, is woken by a
    /// self-connect to see that. Idempotent.
    fn stop(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Some(socket) = &self.config.socket {
            if let Err(error) = UnixStream::connect(socket) {
                eprintln!("chipletqc-engine serve: cannot wake the unix listener: {error}");
            }
        }
        // A wildcard bind address, as a connect target, is this host.
        if let Some(addr) = self.tcp_addr {
            if let Err(error) = TcpStream::connect(addr) {
                eprintln!("chipletqc-engine serve: cannot wake the tcp listener: {error}");
            }
        }
    }

    /// Handles one connection on its own thread. Most requests are
    /// one-request, one-response (plus progress frames); a completed
    /// *store* exchange instead keeps the connection open for
    /// [`STORE_KEEPALIVE`] so a peer's burst of requests reuses it.
    /// I/O errors on a single connection are logged and dropped — a
    /// client that disconnects mid-frame must not take the daemon
    /// down.
    fn handle(&self, conn: Conn) {
        // Bound how long an unresponsive client can hold its thread —
        // in both directions. The read timeout covers a client that
        // never finishes its request; the write timeout covers one
        // that dies or stalls while a large report streams back.
        let _ = conn.set_read_timeout(Some(REQUEST_TIMEOUT));
        let _ = conn.set_write_timeout(Some(RESPONSE_TIMEOUT));
        let mut reader = BufReader::new(DeadlineReader::new(&conn));
        let request = if conn.is_remote() {
            // TCP: authenticate BEFORE parsing anything with a
            // payload. Only the hello frame's head and its (small,
            // capped) token are read pre-auth — an unauthenticated
            // peer must not be able to make the daemon buffer a
            // `store-put` payload or sweep text.
            match self.read_authenticated_request(&conn, &mut reader) {
                Some(request) => request,
                None => return,
            }
        } else {
            // Unix: trusted via filesystem permissions; a hello is
            // optional but verified when presented (and a token the
            // daemon never configured is accepted and ignored).
            let mut request = match self.read_one_request(&conn, &mut reader) {
                Some(request) => request,
                None => return,
            };
            if let Request::Hello(presented) = &request {
                if let Some(expected) = &self.config.token {
                    if !token_matches(presented, expected) {
                        self.reject(&conn, "bad token".into());
                        return;
                    }
                }
                request = match self.read_one_request(&conn, &mut reader) {
                    Some(request) => request,
                    None => return,
                };
            }
            request
        };
        let mut request = request;
        loop {
            count_request(&request);
            match request {
                Request::Hello(_) => {
                    self.reject(&conn, "unexpected second hello".into());
                    return;
                }
                Request::Cancel => {
                    // A cancel only means something on a connection
                    // with a submission in flight.
                    self.reject(&conn, "nothing to cancel on this connection".into());
                    return;
                }
                Request::Status => {
                    // Answered right here on the connection thread —
                    // never through the admission gate or the batch
                    // path — so a status probe works against a daemon
                    // whose every slot and queue position is taken.
                    self.respond(&conn, &Response::Status { json: self.status_json() });
                    return;
                }
                Request::Shutdown => {
                    self.respond(&conn, &Response::ShuttingDown);
                    self.stop();
                    return;
                }
                Request::Store(store_request) => {
                    self.handle_store(&conn, store_request);
                }
                Request::Submit(submission) => {
                    return self.handle_batch(&conn, reader, &submission, true);
                }
                Request::WorkClaim(submission) => {
                    return self.handle_batch(&conn, reader, &submission, false);
                }
            }
            // Only store exchanges fall through to here: give the
            // peer a short keep-alive window to send another frame on
            // this (already authenticated) connection, with a fresh
            // whole-request deadline per frame. Timing out — or any
            // close — just ends the connection quietly; the client
            // redials on its next request.
            let _ = conn.set_read_timeout(Some(STORE_KEEPALIVE));
            reader.get_mut().reset();
            request = match read_request(&mut reader) {
                Ok(next) => {
                    let _ = conn.set_read_timeout(Some(REQUEST_TIMEOUT));
                    next
                }
                Err(error)
                    if matches!(
                        error.kind(),
                        io::ErrorKind::UnexpectedEof
                            | io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                    ) =>
                {
                    return;
                }
                Err(error) => {
                    self.reject(&conn, format!("bad request: {error}"));
                    return;
                }
            };
        }
    }

    /// Reads one request frame, answering malformed ones with an
    /// error frame. `None` means the connection is already dealt with
    /// (a silent probe, or a rejected frame).
    fn read_one_request(&self, conn: &Conn, reader: &mut ConnReader<'_>) -> Option<Request> {
        match read_request(reader) {
            Ok(request) => Some(request),
            // A connection closed before any frame is not a bad
            // submission — it is how liveness probes (including
            // `Service::bind` checking for a live daemon) look. Drop
            // it silently instead of answering into a dead socket.
            Err(error) if error.kind() == io::ErrorKind::UnexpectedEof => None,
            Err(error) => {
                self.reject(conn, format!("bad request: {error}"));
                None
            }
        }
    }

    /// The TCP path: demand a valid `hello` (whose parse is bounded by
    /// [`chipletqc_store::remote::MAX_TOKEN`]) before reading — or
    /// allocating — anything else, then read the real request. `None`
    /// means the connection is already answered or dropped.
    fn read_authenticated_request(
        &self,
        conn: &Conn,
        reader: &mut ConnReader<'_>,
    ) -> Option<Request> {
        let reject_and_drain = |message: String| {
            self.reject(conn, message);
            // Clients pipeline the hello and the request in one
            // burst; rejecting at the hello leaves the request bytes
            // unread, and closing a TCP socket with unread data sends
            // RST — which can destroy the queued error reply before
            // the client reads it. Drain what already arrived
            // (briefly, bounded) so the rejection actually reaches
            // the peer.
            drain_rejected(conn);
        };
        let (verb, headers) = match chipletqc_store::wire::read_frame_head(reader) {
            Ok(head) => head,
            Err(error) if error.kind() == io::ErrorKind::UnexpectedEof => return None,
            Err(error) => {
                reject_and_drain(format!("bad request: {error}"));
                return None;
            }
        };
        if verb != "hello" {
            reject_and_drain(
                "authentication required: send a `hello` frame with the daemon's \
                 shared token first"
                    .into(),
            );
            return None;
        }
        let presented = match remote::parse_hello(&headers, reader) {
            Ok(token) => token,
            Err(error) => {
                reject_and_drain(format!("bad request: {error}"));
                return None;
            }
        };
        // `bind` enforces that a TCP listener always has a token.
        let expected = self.config.token.as_deref().unwrap_or_default();
        if !token_matches(&presented, expected) {
            reject_and_drain("bad token".into());
            return None;
        }
        self.read_one_request(conn, reader)
    }

    /// Serves one store peer request from the daemon's local store
    /// tier.
    fn handle_store(&self, conn: &Conn, request: StoreRequest) {
        self.counters.store_requests.fetch_add(1, Ordering::Relaxed);
        let reply = match self.hub.store() {
            None => StoreReply::Error(
                "daemon has no result store attached (start it with --cache-dir)".into(),
            ),
            Some(store) => match request {
                StoreRequest::Get(key) => match store.serve_peer_get(&key) {
                    Lookup::Hit { encoding, payload } => {
                        StoreReply::Found { encoding, payload }
                    }
                    Lookup::Miss | Lookup::Invalid => StoreReply::Missing,
                },
                StoreRequest::Put { key, encoding, payload } => {
                    match store.serve_peer_put(&key, encoding, &payload) {
                        Ok(()) => StoreReply::Stored,
                        Err(error) => StoreReply::Error(error.to_string()),
                    }
                }
                StoreRequest::List => match store.serve_peer_list() {
                    Ok(keys) => StoreReply::Keys(keys),
                    Err(error) => StoreReply::Error(error.to_string()),
                },
            },
        };
        let mut writer = BufWriter::new(DeadlineWriter::new(conn));
        if let Err(error) = remote::write_store_reply(&mut writer, &reply) {
            self.note_dropped_reply(&error);
        }
    }

    /// Counts a rejection and answers it with an error frame.
    fn reject(&self, conn: &Conn, message: String) {
        self.counters.rejected.fetch_add(1, Ordering::Relaxed);
        self.respond(conn, &Response::Error(message));
    }

    /// The live telemetry snapshot the `status` frame answers with:
    /// this daemon's exact admission state and bounds, its lifetime
    /// counters, and the process-wide observability registry.
    fn status_json(&self) -> String {
        let (inflight, queued) = self.admission.load();
        let summary = self.counters.summary();
        Json::obj()
            .field("inflight", inflight as u64)
            .field("queued", queued as u64)
            .field("max_inflight", self.admission.max_inflight as u64)
            .field("queue_depth", self.admission.queue_depth as u64)
            .field("mesh_worker", self.config.mesh_worker)
            .field(
                "counters",
                Json::obj()
                    .field("batches", summary.batches)
                    .field("rejected", summary.rejected)
                    .field("scenarios", summary.scenarios)
                    .field("store_requests", summary.store_requests)
                    .field("work_units", summary.work_units)
                    .field("dropped_replies", summary.dropped_replies)
                    .field("cancelled", summary.cancelled),
            )
            .field("telemetry", crate::report::telemetry_json())
            .to_json_pretty()
    }

    /// Writes one response, abandoning it — daemon intact, counters
    /// already retired — if the client is gone or stalled. Returns
    /// whether the write succeeded.
    fn respond(&self, conn: &Conn, response: &Response) -> bool {
        let _reply = chipletqc_obs::span("service.reply");
        let mut writer = BufWriter::new(DeadlineWriter::new(conn));
        match write_response(&mut writer, response) {
            Ok(()) => true,
            Err(error) => {
                self.note_dropped_reply(&error);
                false
            }
        }
    }

    /// Writes one non-terminal progress frame. A failed write is not
    /// a dropped *reply* (the terminal response was never attempted);
    /// it just tells the caller the client is gone.
    fn send_progress(&self, conn: &Conn, progress: Progress) -> bool {
        let mut writer = BufWriter::new(DeadlineWriter::new(conn));
        write_response(&mut writer, &Response::Progress(progress)).is_ok()
    }

    /// Accounts for a reply the daemon had to abandon. `BrokenPipe`/
    /// `ConnectionReset` mean the client died; `WouldBlock`/`TimedOut`
    /// mean it stalled past [`RESPONSE_TIMEOUT`] on one write (a
    /// blocking socket with `SO_SNDTIMEO` reports either,
    /// platform-dependent) or dripped past the whole-reply
    /// [`REPLY_DEADLINE`]. All of
    /// them abort only this reply: the submission's work and counters
    /// are already retired, and the daemon keeps serving.
    fn note_dropped_reply(&self, error: &io::Error) {
        self.counters.dropped_replies.fetch_add(1, Ordering::Relaxed);
        let what = match error.kind() {
            io::ErrorKind::BrokenPipe
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted => "client disconnected before the reply",
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
                "client stalled past the reply write timeout"
            }
            _ => "reply write failed",
        };
        eprintln!("chipletqc-engine serve: {what}; dropping reply ({error})");
    }

    /// Parses and resolves one submission-shaped batch — shared by
    /// ordinary submissions and mesh work claims, which must never
    /// drift on batch resolution.
    fn prepare(&self, submission: &Submission) -> Result<Prepared, String> {
        let sweep = match &submission.sweep_text {
            Some(text) => Some(Sweep::parse(text).map_err(|e| format!("sweep: {e}"))?),
            None => None,
        };
        let suite = resolve_batch(
            sweep.as_ref(),
            submission.scale.unwrap_or(Scale::Paper),
            submission.only.as_deref(),
            submission.seed,
        )?;
        let workers = submission.workers.or(self.config.default_workers);
        let scheduler = workers
            .map_or_else(Scheduler::default, Scheduler::new)
            .with_shards(submission.shards.unwrap_or(self.config.default_shards));
        Ok(Prepared { suite, scheduler })
    }

    /// One submission-shaped request end to end: prepare, admit, run,
    /// respond, account. `interactive` submissions stream queue and
    /// task progress and may be cancelled mid-run; mesh claims wait
    /// silently and answer with pieces — their coordinator reads
    /// exactly one response frame per claim, and a queue-full worker's
    /// `busy` is handled by its retry discipline. Both pass through
    /// the same admission gate, so a mesh coordinator cannot overload
    /// a worker past its bounds.
    ///
    /// A scoped socket-reader thread ([`watch_client`]) watches an
    /// interactive client throughout, and a mesh claim's client only
    /// if the claim has to queue: nothing stops a running claim.
    /// Shutting the socket's read side after the reply releases it.
    fn handle_batch(
        &self,
        conn: &Conn,
        reader: ConnReader<'_>,
        submission: &Submission,
        interactive: bool,
    ) {
        if !interactive && !self.config.mesh_worker {
            return self.reject(
                conn,
                "daemon is not a mesh worker (start it with `serve --mesh-worker`)".into(),
            );
        }
        let prepared = match self.prepare(submission) {
            Ok(prepared) => prepared,
            Err(message) => return self.reject(conn, message),
        };
        // The reader blocks until the client acts, however long the
        // batch takes; the reply path keeps its write deadlines.
        let _ = conn.set_read_timeout(None);
        let (events, inbox) = mpsc::channel();
        std::thread::scope(|scope| {
            let mut reader = Some(reader);
            let mut watch = || {
                if let Some(reader) = reader.take() {
                    let client = events.clone();
                    scope.spawn(move || watch_client(reader, &client));
                }
            };
            if interactive {
                watch();
            }
            if let Some(slot) = self.admit(conn, &inbox, &events, interactive, &mut watch) {
                let outcome = self.run_admitted(
                    conn,
                    &inbox,
                    &events,
                    &prepared,
                    submission.reset,
                    interactive,
                );
                drop(slot);
                self.finish(conn, outcome, interactive);
            }
            conn.shutdown_read();
        });
    }

    /// Takes the submission through the admission gate, blocking on
    /// `inbox` while it waits (`watch` starts the socket reader first).
    /// Returns the execution slot once it is held; `None` means the
    /// connection is already answered or abandoned. `interactive`
    /// submissions are told their queue position on entry and whenever
    /// it changes, and get terminal acks; mesh claims wait silently.
    fn admit(
        &self,
        conn: &Conn,
        inbox: &mpsc::Receiver<Event>,
        events: &mpsc::Sender<Event>,
        interactive: bool,
        watch: &mut dyn FnMut(),
    ) -> Option<Slot<'_>> {
        let _wait = chipletqc_obs::span("service.admission_wait");
        let (ticket, position) = match self.admission.enter(events) {
            Entry::Admitted => return Some(Slot(&self.admission)),
            Entry::Busy { inflight, queued } => {
                self.counters.rejected.fetch_add(1, Ordering::Relaxed);
                self.respond(
                    conn,
                    &Response::Busy { inflight: inflight as u64, queued: queued as u64 },
                );
                return None;
            }
            Entry::Queued { ticket, position } => (ticket, position),
        };
        watch();
        let mut event = Event::Queued(position);
        let client = loop {
            match event {
                Event::Admitted => return Some(Slot(&self.admission)),
                Event::Queued(position)
                    if interactive
                        && !self.send_progress(
                            conn,
                            Progress::Queued { position: position as u64 },
                        ) =>
                {
                    break ClientEvent::Gone;
                }
                Event::Client(client) => break client,
                Event::Queued(_) | Event::Progress(..) => {}
            }
            // `events` is ours, so the channel never disconnects.
            event = inbox.recv().unwrap_or(Event::Client(ClientEvent::Gone));
        };
        self.admission.abandon(ticket);
        let (counter, reply) = match client {
            ClientEvent::Gone => (&self.counters.cancelled, None),
            ClientEvent::Cancel => (&self.counters.cancelled, Some(Response::Cancelled)),
            ClientEvent::Bad(message) => {
                (&self.counters.rejected, Some(Response::Error(message)))
            }
        };
        counter.fetch_add(1, Ordering::Relaxed);
        if let Some(reply) = reply.filter(|_| interactive) {
            self.respond(conn, &reply);
        }
        None
    }

    /// Runs an admitted batch on the shared pool. An interactive
    /// submission's thread blocks on `inbox` for task progress, which
    /// it streams on, and for the client's `cancel` or hang-up, which
    /// cancels the batch; mesh claims just wait for the result.
    /// Counter deltas are race-safe: snapshots are taken under the
    /// reset gate, so no concurrent `clear` can shift the baseline
    /// mid-batch, and the hub's totals are monotone under its own
    /// lock.
    fn run_admitted(
        &self,
        conn: &Conn,
        inbox: &mpsc::Receiver<Event>,
        events: &mpsc::Sender<Event>,
        prepared: &Prepared,
        reset: bool,
        interactive: bool,
    ) -> RunOutcome {
        if reset {
            // Exclusive: nobody may be mid-batch while warm caches
            // drop, or their deltas would double-count refabrication.
            let _exclusive = self.reset_gate.write().unwrap_or_else(PoisonError::into_inner);
            self.hub.clear();
        }
        let _running = self.reset_gate.read().unwrap_or_else(PoisonError::into_inner);
        let fabrication_before = self.hub.fabrication_stats();
        let store_before = self.hub.store_stats();
        let peer_before = self.hub.peer_stats();
        let progress: Option<ProgressFn> = interactive.then(|| {
            let events = events.clone();
            Box::new(move |done: usize, total: usize| {
                // The connection thread may stop listening first.
                let _ = events.send(Event::Progress(done, total));
            }) as ProgressFn
        });
        let handle = self.pool.submit(prepared.scheduler, &prepared.suite, &self.hub, progress);
        let total = handle.total_tasks();
        let mut ended: Option<ClientEvent> = None;
        // The initial 0/total frame doubles as the admission
        // notification ("your batch is running now").
        if interactive
            && !self.send_progress(conn, Progress::Tasks { done: 0, total: total as u64 })
        {
            ended = Some(ClientEvent::Gone);
        }
        let mut done = 0;
        while interactive && ended.is_none() && done < total {
            match inbox.recv() {
                Ok(Event::Progress(d, t)) => {
                    done = d;
                    let frame = Progress::Tasks { done: d as u64, total: t as u64 };
                    if !self.send_progress(conn, frame) {
                        ended = Some(ClientEvent::Gone);
                    }
                }
                Ok(Event::Client(client)) => ended = Some(client),
                Ok(Event::Queued(_) | Event::Admitted) => {}
                Err(_) => break,
            }
        }
        if ended.is_some() {
            handle.cancel();
        }
        let result = handle.wait();
        self.hub.flush_store();
        self.hub.trim(WARM_CONFIGS);
        match result {
            Ok(results) => RunOutcome::Completed(BatchExecution {
                // Per-submission counters: the hub's totals are
                // monotonic across batches, so rebase the counter
                // objects on the snapshot. A warm-hub resubmission
                // then reports zero fabrications and zero store
                // traffic — the observable for "no recomputation, and
                // no disk either".
                fabrication: self.hub.fabrication_stats().since(fabrication_before),
                store: self.hub.store_stats().since(store_before),
                peer: self.hub.peer_stats().since(&peer_before),
                workers: prepared.scheduler.workers(),
                results,
            }),
            Err(BatchAborted::Panicked(payload)) => {
                RunOutcome::Failed(panic_message(payload.as_ref()))
            }
            Err(BatchAborted::Cancelled) => match ended {
                Some(ClientEvent::Bad(message)) => RunOutcome::Failed(message),
                explicit => RunOutcome::Cancelled {
                    acked: matches!(explicit, Some(ClientEvent::Cancel)),
                },
            },
        }
    }

    /// Answers and accounts for an admitted batch: a report for a
    /// submission, pieces for a mesh claim.
    fn finish(&self, conn: &Conn, outcome: RunOutcome, interactive: bool) {
        match outcome {
            RunOutcome::Completed(run) => {
                self.counters.scenarios.fetch_add(run.results.len() as u64, Ordering::Relaxed);
                let response = if interactive {
                    let batch = self.counters.batches.fetch_add(1, Ordering::Relaxed) + 1;
                    let report = RunReport::from_results(
                        &run.results,
                        run.fabrication,
                        run.store,
                        run.peer,
                    );
                    Response::Report {
                        batch,
                        timing: batch_timing_summary(batch, &run.results, run.workers),
                        report: report.to_json(),
                    }
                } else {
                    self.counters.work_units.fetch_add(1, Ordering::Relaxed);
                    let outcome = mesh::outcome_from_results(
                        &run.results,
                        run.fabrication,
                        run.store,
                        run.peer,
                    );
                    Response::WorkResult { pieces: mesh::encode_pieces(&outcome) }
                };
                self.respond(conn, &response);
            }
            RunOutcome::Cancelled { acked } => {
                self.counters.cancelled.fetch_add(1, Ordering::Relaxed);
                if acked {
                    self.respond(conn, &Response::Cancelled);
                }
            }
            RunOutcome::Failed(message) => self.reject(conn, message),
        }
    }
}

/// The socket reader behind a submission: blocks until the client
/// sends its next frame — only a `cancel` may follow a submission — or
/// hangs up, and reports which as one [`Event::Client`]. The wait has
/// no deadline (a batch may run for hours); a frame, once it starts,
/// gets a fresh whole-request budget. Shutting the socket's read side
/// ends the wait as a hang-up.
fn watch_client(mut reader: ConnReader<'_>, events: &mpsc::Sender<Event>) {
    reader.get_mut().reset();
    let client = match reader.fill_buf() {
        Ok(pending) if !pending.is_empty() => {
            reader.get_mut().reset();
            match read_request(&mut reader) {
                Ok(Request::Cancel) => ClientEvent::Cancel,
                Ok(_) => ClientEvent::Bad(
                    "only `cancel` may follow a submission on its connection".into(),
                ),
                Err(error) if error.kind() == io::ErrorKind::UnexpectedEof => ClientEvent::Gone,
                Err(error) => ClientEvent::Bad(format!("bad request: {error}")),
            }
        }
        _ => ClientEvent::Gone,
    };
    let _ = events.send(Event::Client(client));
}

/// One executed batch, before it is framed as a report or as mesh
/// pieces.
struct BatchExecution {
    results: Vec<ScenarioResult>,
    fabrication: FabricationStats,
    store: StoreStats,
    peer: PeerStats,
    workers: usize,
}

impl Drop for Service {
    fn drop(&mut self) {
        if let Some(socket) = &self.config.socket {
            let _ = std::fs::remove_file(socket);
        }
        // The lock file stays on disk deliberately: unlinking it would
        // let two later binders lock different inodes under the same
        // path. The kernel releases the lock itself when `_lock`
        // drops.
    }
}

/// Where a client finds a daemon: the local Unix socket, or a TCP
/// address plus the daemon's shared token.
#[derive(Clone)]
pub enum Endpoint {
    /// A local daemon's Unix socket path.
    Unix(PathBuf),
    /// A (possibly remote) daemon's TCP address and shared token.
    Tcp {
        /// `HOST:PORT` of the daemon's `--listen` address.
        addr: String,
        /// The shared token the daemon authenticates with.
        token: String,
    },
}

// Manual: redacts the shared token (see `ServiceConfig`'s impl).
impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Unix(path) => f.debug_tuple("Unix").field(path).finish(),
            Endpoint::Tcp { addr, .. } => {
                f.debug_struct("Tcp").field("addr", addr).field("token", &"[redacted]").finish()
            }
        }
    }
}

/// Connects to a daemon at `endpoint`, sends one request (preceded by
/// the authentication preamble on TCP), and returns the terminal
/// response — the client side of the protocol, shared by the `submit`
/// subcommand and the tests. Non-terminal progress frames are consumed
/// silently; use [`request_endpoint_observed`] to see them.
pub fn request_endpoint(endpoint: &Endpoint, request: &Request) -> io::Result<Response> {
    request_endpoint_observed(endpoint, request, |_| {})
}

/// [`request_endpoint`], with every non-terminal progress frame handed
/// to `on_progress` as it arrives (queue position, then task counts).
pub fn request_endpoint_observed(
    endpoint: &Endpoint,
    request: &Request,
    mut on_progress: impl FnMut(&Progress),
) -> io::Result<Response> {
    // Reads one response stream to its terminal frame.
    fn read_terminal(
        reader: &mut impl io::BufRead,
        on_progress: &mut impl FnMut(&Progress),
    ) -> io::Result<Response> {
        loop {
            match crate::protocol::read_response(reader)? {
                Response::Progress(progress) => on_progress(&progress),
                terminal => return Ok(terminal),
            }
        }
    }
    match endpoint {
        Endpoint::Unix(socket) => {
            let stream = UnixStream::connect(socket).map_err(|e| {
                io::Error::new(
                    e.kind(),
                    format!(
                        "connect {} (is `chipletqc-engine serve` running?): {e}",
                        socket.display()
                    ),
                )
            })?;
            write_request(&mut BufWriter::new(&stream), request)?;
            read_terminal(&mut BufReader::new(&stream), &mut on_progress)
        }
        Endpoint::Tcp { addr, token } => {
            // No stream timeouts at all: a submission queued behind
            // other clients legitimately takes as long as their
            // batches — a submit must wait exactly like the Unix path
            // (which sets no timeouts) does. Only the dial itself is
            // bounded. The daemon's progress frames double as
            // liveness signals for anyone watching with
            // `request_endpoint_observed`.
            let stream = remote::connect(addr, None, None).map_err(|e| {
                io::Error::new(
                    e.kind(),
                    format!(
                        "connect {addr} (is `chipletqc-engine serve --listen` \
                             running there?): {e}"
                    ),
                )
            })?;
            let mut writer = BufWriter::new(&stream);
            remote::write_hello(&mut writer, token)?;
            write_request(&mut writer, request)?;
            read_terminal(&mut BufReader::new(&stream), &mut on_progress)
        }
    }
}

/// [`request_endpoint`] for the common local case: one request over
/// the daemon's Unix socket.
pub fn request(socket: &Path, request: &Request) -> io::Result<Response> {
    request_endpoint(&Endpoint::Unix(socket.to_path_buf()), request)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    fn temp_socket(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("chipletqc-svc-{tag}-{}.sock", std::process::id()))
    }

    /// A tiny one-scenario sweep so unit tests stay fast; the
    /// integration test exercises a real multi-scenario batch.
    const TINY: &str = "name = tiny\nkind = fig8\ngrid = 10q2x2\nbatch = 100\nseed = 7\n";

    #[test]
    fn binding_replaces_stale_sockets_but_not_live_daemons() {
        let socket = temp_socket("stale");
        std::fs::write(&socket, b"stale non-socket file").unwrap();
        let service = Service::bind(ServiceConfig::new(&socket), None).expect("replace stale");
        assert!(socket.exists());
        assert_eq!(
            Service::bind(ServiceConfig::new(&socket), None).unwrap_err().kind(),
            io::ErrorKind::AddrInUse,
            "a live listener must not be displaced"
        );
        drop(service);
        assert!(!socket.exists(), "drop removes the socket file");
        let _ = std::fs::remove_file(socket_lock_path(&socket));
    }

    #[test]
    fn two_binders_racing_for_one_socket_produce_exactly_one_daemon() {
        // Regression for the probe-remove-bind TOCTOU: without the
        // lock, binder B could probe a stale file, lose the race to
        // binder A's fresh bind, and then delete A's *live* socket.
        // Under the lock the sequence serializes: every round, exactly
        // one binder wins and the socket it bound still works.
        let socket = temp_socket("race");
        for round in 0..8 {
            std::fs::write(&socket, b"stale leftover").unwrap();
            let barrier = Arc::new(std::sync::Barrier::new(2));
            let winners: Vec<Service> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..2)
                    .map(|_| {
                        let socket = socket.clone();
                        let barrier = Arc::clone(&barrier);
                        scope.spawn(move || {
                            barrier.wait();
                            Service::bind(ServiceConfig::new(&socket), None)
                        })
                    })
                    .collect();
                handles.into_iter().filter_map(|h| h.join().unwrap().ok()).collect()
            });
            assert_eq!(winners.len(), 1, "round {round}: exactly one binder may win");
            // The winner's socket is live: a probe connects (proving
            // nothing deleted it out from under the listener).
            assert!(
                UnixStream::connect(&socket).is_ok(),
                "round {round}: winner's socket must be connectable"
            );
        }
        let _ = std::fs::remove_file(&socket);
        let _ = std::fs::remove_file(socket_lock_path(&socket));
    }

    #[test]
    fn an_unwinding_batch_hands_back_its_admission_slot() {
        let admission = Admission::new(1, 1);
        let (events, _inbox) = mpsc::channel();
        assert_eq!(admission.enter(&events), Entry::Admitted);
        let slot = Slot(&admission);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _slot = slot;
            panic!("a plan panicked on the connection thread");
        }));
        assert!(unwound.is_err());
        assert_eq!(admission.load(), (0, 0));
        assert_eq!(admission.enter(&events), Entry::Admitted);
    }

    #[test]
    fn submissions_run_and_shutdown_drains() {
        let socket = temp_socket("roundtrip");
        let service = Service::bind(ServiceConfig::new(&socket), None).unwrap();
        let handle = std::thread::spawn(move || service.run(|| false).unwrap());

        let submission = Submission {
            sweep_text: Some(TINY.into()),
            workers: Some(2),
            ..Submission::default()
        };
        let first = request(&socket, &Request::Submit(submission.clone())).unwrap();
        let Response::Report { batch, timing, report } = first else {
            panic!("expected a report, got {first:?}");
        };
        assert_eq!(batch, 1);
        assert!(timing.starts_with("batch 1: 1 scenario(s) on 2 worker(s)"), "{timing}");
        assert!(report.contains("\"tiny/g10q2x2_b100_s7\""));
        assert!(!report.contains("\"chiplet_campaigns\": 0"), "first batch fabricates");

        // Same batch again: the warm hub serves everything.
        let second = request(&socket, &Request::Submit(submission)).unwrap();
        let Response::Report { batch, report, .. } = second else {
            panic!("expected a report, got {second:?}");
        };
        assert_eq!(batch, 2);
        assert!(report.contains("\"chiplet_campaigns\": 0"), "warm batch must not fabricate");
        assert!(report.contains("\"mono_campaigns\": 0"));

        // A bad submission answers with an error and keeps serving.
        let bad =
            Submission { sweep_text: Some("kind = bogus\n".into()), ..Default::default() };
        let error = request(&socket, &Request::Submit(bad)).unwrap();
        assert!(
            matches!(error, Response::Error(ref m) if m.contains("unknown kind")),
            "{error:?}"
        );
        let missing =
            Submission { only: Some(vec!["not-a-scenario".into()]), ..Default::default() };
        let error = request(&socket, &Request::Submit(missing)).unwrap();
        assert!(matches!(error, Response::Error(ref m) if m.contains("unknown scenario")));
        // Five 40-value axes: 102,400,000 scenarios, which expanding
        // would ask 20 GB for. The daemon's own parse refuses them.
        let forty = |first: u64| {
            (first..first + 40).map(|v| v.to_string()).collect::<Vec<_>>().join(",")
        };
        let huge = Submission {
            sweep_text: Some(format!(
                "kind = fig8\nlink_ratio = {0}\nsigma_f = {0}\ndetuning = {0}\nbatch = {0}\n\
                 seed = {1}\n",
                forty(1),
                forty(0)
            )),
            ..Default::default()
        };
        let error = request(&socket, &Request::Submit(huge)).unwrap();
        assert!(
            matches!(error, Response::Error(ref m) if m.contains("102400000 scenarios")),
            "{error:?}"
        );

        // A store request against a storeless daemon is an error
        // frame, not a dead daemon.
        let get = Request::Store(StoreRequest::Get(chipletqc_store::EntryKey::new(
            "ck", "kgd-bin", "10q",
        )));
        let error = request(&socket, &get).unwrap();
        assert!(
            matches!(error, Response::Error(ref m) if m.contains("no result store")),
            "{error:?}"
        );

        assert_eq!(request(&socket, &Request::Shutdown).unwrap(), Response::ShuttingDown);
        let summary = handle.join().unwrap();
        assert_eq!(
            summary,
            ServiceSummary {
                batches: 2,
                work_units: 0,
                rejected: 3,
                scenarios: 2,
                store_requests: 1,
                dropped_replies: 0,
                cancelled: 0
            }
        );
        assert!(!socket.exists(), "shutdown removes the socket file");
        let _ = std::fs::remove_file(socket_lock_path(&socket));
    }

    #[test]
    fn a_client_that_dies_before_its_reply_does_not_take_the_daemon_down() {
        // A submission whose client vanishes immediately is *retired as
        // cancelled* — the daemon notices the closed connection (its
        // very first progress write fails), cancels the batch, and
        // keeps serving. Any tasks already running finish into the warm
        // hub; nothing leaks.
        let socket = temp_socket("dead-client");
        let service = Service::bind(ServiceConfig::new(&socket), None).unwrap();
        let handle = std::thread::spawn(move || service.run(|| false).unwrap());

        // Send a request, then hang up without reading any response.
        {
            let stream = loop {
                match UnixStream::connect(&socket) {
                    Ok(s) => break s,
                    Err(_) => std::thread::sleep(Duration::from_millis(10)),
                }
            };
            let submission = Submission {
                sweep_text: Some(TINY.into()),
                workers: Some(2),
                ..Submission::default()
            };
            write_request(&mut BufWriter::new(&stream), &Request::Submit(submission)).unwrap();
            // Drop closes both directions; the daemon's progress write
            // hits EPIPE (or the poll sees EOF — either way the batch
            // retires as cancelled without wedging the daemon).
        }

        // The daemon is still alive and serving; the abandoned batch
        // was cancelled, not counted, so this one is batch 1.
        let alive = request(
            &socket,
            &Request::Submit(Submission {
                sweep_text: Some(TINY.into()),
                workers: Some(2),
                ..Submission::default()
            }),
        )
        .unwrap();
        let Response::Report { batch, .. } = alive else {
            panic!("daemon wedged after a dead client: {alive:?}");
        };
        assert_eq!(batch, 1, "the abandoned batch retired as cancelled, not completed");

        request(&socket, &Request::Shutdown).unwrap();
        let summary = handle.join().unwrap();
        assert_eq!(summary.batches, 1, "only the live client's batch completed");
        assert_eq!(summary.cancelled, 1, "the dead client's batch retired as cancelled");
        assert_eq!(summary.dropped_replies, 0, "no terminal reply was ever attempted");
        let _ = std::fs::remove_file(socket_lock_path(&socket));
    }

    #[test]
    fn tcp_requires_the_shared_token() {
        let service =
            Service::bind(ServiceConfig::tcp("127.0.0.1:0", "right token"), None).unwrap();
        let addr = service.tcp_addr().expect("bound tcp").to_string();
        let handle = std::thread::spawn(move || service.run(|| false).unwrap());

        let submission = Submission {
            sweep_text: Some(TINY.into()),
            workers: Some(2),
            ..Submission::default()
        };
        // No hello at all (a hand-crafted helloless request): rejected.
        let stream = TcpStream::connect(&addr).unwrap();
        write_request(&mut BufWriter::new(&stream), &Request::Submit(submission.clone()))
            .unwrap();
        let response = crate::protocol::read_response(&mut BufReader::new(&stream)).unwrap();
        assert!(
            matches!(response, Response::Error(ref m) if m.contains("authentication required")),
            "{response:?}"
        );
        // Wrong token: rejected.
        let wrong = request_endpoint(
            &Endpoint::Tcp { addr: addr.clone(), token: "wrong".into() },
            &Request::Submit(submission.clone()),
        )
        .unwrap();
        assert!(
            matches!(wrong, Response::Error(ref m) if m.contains("bad token")),
            "{wrong:?}"
        );
        // Right token: served.
        let right = Endpoint::Tcp { addr, token: "right token".into() };
        let served = request_endpoint(&right, &Request::Submit(submission)).unwrap();
        assert!(matches!(served, Response::Report { .. }), "{served:?}");

        assert_eq!(
            request_endpoint(&right, &Request::Shutdown).unwrap(),
            Response::ShuttingDown
        );
        let summary = handle.join().unwrap();
        assert_eq!(summary.batches, 1);
        assert_eq!(summary.rejected, 2);
    }

    #[test]
    fn tcp_listen_without_a_token_is_refused_at_bind() {
        let config = ServiceConfig {
            socket: None,
            listen: Some("127.0.0.1:0".into()),
            token: None,
            default_workers: None,
            default_shards: 1,
            mesh_worker: false,
            max_inflight: DEFAULT_MAX_INFLIGHT,
            queue_depth: DEFAULT_QUEUE_DEPTH,
        };
        let error = Service::bind(config, None).unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::InvalidInput);
        assert!(error.to_string().contains("token"), "{error}");
        // And no listener at all is refused too.
        let nothing = ServiceConfig {
            socket: None,
            listen: None,
            token: None,
            default_workers: None,
            default_shards: 1,
            mesh_worker: false,
            max_inflight: DEFAULT_MAX_INFLIGHT,
            queue_depth: DEFAULT_QUEUE_DEPTH,
        };
        assert_eq!(
            Service::bind(nothing, None).unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
    }

    #[test]
    fn work_claims_are_refused_unless_serving_as_a_mesh_worker() {
        // A daemon nobody marked as a mesh worker must not silently
        // join a mesh — the flag is the operator's opt-in.
        let socket = temp_socket("claim-refused");
        let service = Service::bind(ServiceConfig::new(&socket), None).unwrap();
        let handle = std::thread::spawn(move || service.run(|| false).unwrap());
        let unit = Submission {
            sweep_text: Some(TINY.into()),
            workers: Some(2),
            ..Submission::default()
        };
        let refused = request(&socket, &Request::WorkClaim(unit)).unwrap();
        assert!(
            matches!(refused, Response::Error(ref m) if m.contains("not a mesh worker")),
            "{refused:?}"
        );
        request(&socket, &Request::Shutdown).unwrap();
        let summary = handle.join().unwrap();
        assert_eq!((summary.work_units, summary.rejected), (0, 1));
        let _ = std::fs::remove_file(socket_lock_path(&socket));
    }

    #[test]
    fn a_mesh_worker_serves_claims_as_pieces_and_counts_them_apart_from_batches() {
        let socket = temp_socket("claim-served");
        let service =
            Service::bind(ServiceConfig::new(&socket).as_mesh_worker(), None).unwrap();
        let handle = std::thread::spawn(move || service.run(|| false).unwrap());
        let unit = Submission {
            sweep_text: Some(TINY.into()),
            workers: Some(2),
            ..Submission::default()
        };
        let served = request(&socket, &Request::WorkClaim(unit.clone())).unwrap();
        let Response::WorkResult { pieces } = served else {
            panic!("expected a work result, got {served:?}");
        };
        let outcome = crate::mesh::decode_pieces(&pieces).expect("pieces decode");
        assert_eq!(outcome.pieces.len(), 1, "TINY is a one-scenario sweep");
        assert!(
            outcome.pieces[0].metrics.starts_with('{'),
            "metrics travel as rendered JSON: {}",
            outcome.pieces[0].metrics
        );
        // The claim ran cold, so its counter deltas show the work.
        assert!(outcome.fabrication.chiplet_fabrications > 0);
        // A mesh worker still serves ordinary submissions, counted
        // separately from work units.
        let report = request(&socket, &Request::Submit(unit)).unwrap();
        assert!(matches!(report, Response::Report { .. }), "{report:?}");
        request(&socket, &Request::Shutdown).unwrap();
        let summary = handle.join().unwrap();
        assert_eq!(summary.work_units, 1);
        assert_eq!(summary.batches, 1);
        assert_eq!(summary.scenarios, 2, "both paths run through execute()");
        let _ = std::fs::remove_file(socket_lock_path(&socket));
    }

    #[test]
    fn one_connection_serves_a_burst_of_store_requests() {
        // The server half of the store client's persistent-connection
        // discipline: after a store reply, the daemon waits
        // STORE_KEEPALIVE for another frame on the same connection
        // instead of hanging up, so a burst costs one dial.
        let dir = std::env::temp_dir()
            .join(format!("chipletqc-svc-keepalive-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir, chipletqc_store::CacheMode::ReadWrite).unwrap();
        let socket = temp_socket("keepalive");
        let service = Service::bind(ServiceConfig::new(&socket), Some(store)).unwrap();
        let handle = std::thread::spawn(move || service.run(|| false).unwrap());

        let stream = loop {
            match UnixStream::connect(&socket) {
                Ok(s) => break s,
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        };
        let mut reader = BufReader::new(&stream);
        for round in 0..3 {
            let mut writer = BufWriter::new(&stream);
            write_request(&mut writer, &Request::Store(StoreRequest::List)).unwrap();
            drop(writer);
            let reply = remote::read_store_reply(&mut reader).unwrap();
            assert!(
                matches!(reply, StoreReply::Keys(ref keys) if keys.is_empty()),
                "round {round}: {reply:?}"
            );
        }
        drop(reader);
        drop(stream);

        request(&socket, &Request::Shutdown).unwrap();
        let summary = handle.join().unwrap();
        assert_eq!(summary.store_requests, 3, "all three frames served on one connection");
        assert_eq!(summary.rejected, 0, "the keep-alive timeout is not an error");
        let _ = std::fs::remove_file(socket_lock_path(&socket));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn past_its_cap_the_warm_hub_refabricates_only_the_least_recently_used_seed() {
        let socket = temp_socket("warm-cap");
        let service = Service::bind(ServiceConfig::new(&socket), None).unwrap();
        let handle = std::thread::spawn(move || service.run(|| false).unwrap());
        // Whether serving `seed` fabricated anything.
        let fabricates = |seed: usize| {
            let submission = Submission {
                sweep_text: Some(format!(
                    "kind = fig8\ngrid = 10q2x2\nbatch = 20\nseed = {seed}\n"
                )),
                workers: Some(1),
                ..Submission::default()
            };
            match request(&socket, &Request::Submit(submission)).unwrap() {
                Response::Report { report, .. } => !report.contains("\"chiplet_campaigns\": 0"),
                other => panic!("expected a report, got {other:?}"),
            }
        };
        for seed in 0..WARM_CONFIGS {
            assert!(fabricates(seed), "seed {seed} is new");
        }
        assert!(!fabricates(0), "a full hub still holds the first seed");
        assert!(fabricates(WARM_CONFIGS), "one seed past the cap");
        assert!(!fabricates(0), "the first seed was used recently, so it stays warm");
        assert!(fabricates(1), "the least recently used seed was evicted");
        request(&socket, &Request::Shutdown).unwrap();
        handle.join().unwrap();
        let _ = std::fs::remove_file(socket_lock_path(&socket));
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "arms deadlines that have already passed")]
    fn deadline_writer_cuts_off_a_dripping_reply() {
        // SO_SNDTIMEO bounds one syscall; the deadline bounds the
        // whole reply. Once past it, every write and flush fails as a
        // stalled client, whatever the kernel buffer would accept.
        let mut writer = DeadlineWriter {
            inner: Vec::new(),
            deadline: std::time::Instant::now() - Duration::from_secs(1),
        };
        assert_eq!(writer.write(b"x").unwrap_err().kind(), io::ErrorKind::TimedOut);
        assert_eq!(writer.flush().unwrap_err().kind(), io::ErrorKind::TimedOut);
        assert!(writer.inner.is_empty(), "nothing may reach the stream past the deadline");
        let mut live = DeadlineWriter::new(Vec::new());
        assert_eq!(live.write(b"x").unwrap(), 1);
        // The read side mirrors it: a dripping request hits the
        // cumulative budget however gently each syscall behaves.
        let mut reader = DeadlineReader {
            inner: &b"chipletqc/1 submit\n"[..],
            deadline: std::time::Instant::now() - Duration::from_secs(1),
        };
        let mut buf = [0u8; 8];
        assert_eq!(reader.read(&mut buf).unwrap_err().kind(), io::ErrorKind::TimedOut);
        let mut live = DeadlineReader::new(&b"abc"[..]);
        assert_eq!(live.read(&mut buf).unwrap(), 3);
    }

    #[test]
    fn stop_flag_ends_the_accept_loop() {
        let socket = temp_socket("sigterm");
        let service = Service::bind(ServiceConfig::new(&socket), None).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle =
            std::thread::spawn(move || service.run(move || flag.load(Ordering::SeqCst)));
        std::thread::sleep(Duration::from_millis(60));
        stop.store(true, Ordering::SeqCst);
        // The flag is re-checked on every arrival; a bare connection
        // wakes the daemon, as the binary's signal handler does.
        drop(UnixStream::connect(&socket).unwrap());
        let summary = handle.join().unwrap().unwrap();
        assert_eq!(summary, ServiceSummary::default());
        assert!(!socket.exists());
        let _ = std::fs::remove_file(socket_lock_path(&socket));
    }
}
