//! The store peer protocol and the network blob backend.
//!
//! The paper's thesis — many modest, high-yield chiplets networked
//! together beat one monolithic die — applies to the infrastructure
//! too: instead of one process hoarding a warm store, daemons on
//! different hosts serve each other's fabricated products. This module
//! is the transport for that: a [`RemoteBackend`] implements
//! [`Backend`] by speaking three frames (in the
//! [`wire`](crate::wire) grammar) to a peer `chipletqc-engine` daemon,
//! which answers them from its own directory backend.
//!
//! ## Frames
//!
//! The optional authentication preamble (required by TCP daemons; the
//! token is a shared secret for trusted networks):
//!
//! ```text
//! chipletqc/1 hello
//! token-bytes = 24
//! <blank line>
//! <24 bytes of token>
//! ```
//!
//! Requests address entries by their full logical key (the
//! [`EntryKey::logical`] string — self-delimiting, so it travels as a
//! length-prefixed payload and never fights header trimming):
//!
//! ```text
//! chipletqc/1 store-get          chipletqc/1 store-put         chipletqc/1 store-list
//! key-bytes = 42                 encoding = binary             <blank line>
//! <blank line>                   key-bytes = 42
//! <42 bytes of key>              payload-bytes = 4096
//!                                <blank line>
//!                                <42 bytes of key><4096 bytes>
//! ```
//!
//! Replies:
//!
//! ```text
//! chipletqc/1 found              chipletqc/1 missing           chipletqc/1 stored
//! encoding = binary              <blank line>                  <blank line>
//! payload-bytes = 4096
//! <blank line>
//! <4096 bytes of payload>
//!
//! chipletqc/1 keys               chipletqc/1 error
//! keys-bytes = 123               message-bytes = 17
//! <blank line>                   <blank line>
//! <newline-joined logical keys>  <17 bytes of message>
//! ```
//!
//! Every frame is self-contained, so a connection may carry one
//! exchange (the engine submission protocol's discipline) or many in
//! sequence: a [`RemoteBackend`] keeps one authenticated connection
//! per peer and pipelines request/reply pairs over it, reconnecting
//! (and retrying the request once) when the peer has gone away. The
//! daemon side mirrors this by serving store frames in a loop until
//! the client hangs up.

// Daemon path: a panic here takes down the warm hub and every queued
// client. (`unwrap_used` comes from the workspace lints.)
#![warn(
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use crate::backend::{Backend, Lookup};
use crate::envelope::Encoding;
use crate::wire::{self, bad, header, VERSION};
use crate::EntryKey;

/// How long a peer connection attempt may take before the read is
/// declared a miss. Peers are on the same trusted network; anything
/// slower than this is effectively down.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// Per-request I/O timeout on an established peer connection.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One request a peer daemon can answer about its store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreRequest {
    /// Read the entry under a key.
    Get(EntryKey),
    /// Persist an entry (peer-side cache warming).
    Put {
        /// The entry's logical address.
        key: EntryKey,
        /// The payload encoding.
        encoding: Encoding,
        /// The payload bytes.
        payload: Vec<u8>,
    },
    /// Enumerate every readable key.
    List,
}

/// A peer daemon's reply to a [`StoreRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreReply {
    /// The requested entry, validated by the peer.
    Found {
        /// The payload encoding.
        encoding: Encoding,
        /// The payload bytes.
        payload: Vec<u8>,
    },
    /// Nothing usable under the key.
    Missing,
    /// The put was accepted and persisted.
    Stored,
    /// The peer's readable keys.
    Keys(Vec<EntryKey>),
    /// The request was rejected (no store attached, bad frame, mode
    /// forbids writes). The peer daemon stays up.
    Error(String),
}

/// Cap on a presented token. The hello frame is parsed *before*
/// authentication, so its payload must stay small — a peer must not
/// be able to allocate [`wire::MAX_PAYLOAD`] in a daemon it has not
/// authenticated to.
pub const MAX_TOKEN: usize = 4 * 1024;

/// Writes the authentication preamble frame. Sent by every client —
/// batch submitters and remote backends alike — before its request
/// when the daemon requires a shared token (TCP daemons always do).
pub fn write_hello(w: &mut impl Write, token: &str) -> io::Result<()> {
    writeln!(w, "{VERSION} hello")?;
    write!(w, "token-bytes = {}\n\n", token.len())?;
    w.write_all(token.as_bytes())?;
    w.flush()
}

/// Parses a `hello` frame body given its already-read head, returning
/// the presented token (at most [`MAX_TOKEN`] bytes — this runs
/// pre-authentication).
pub fn parse_hello(headers: &[(String, String)], r: &mut impl BufRead) -> io::Result<String> {
    let len = wire::parse_len(
        header(headers, "token-bytes")
            .ok_or_else(|| bad("hello is missing `token-bytes`".into()))?,
    )?;
    if len > MAX_TOKEN {
        return Err(bad(format!("token of {len} bytes exceeds the {MAX_TOKEN} cap")));
    }
    wire::read_utf8(r, len, "token")
}

/// Resolves `addr` (`HOST:PORT`) and opens one peer connection with
/// the protocol's connect timeout, applying the given stream
/// timeouts. Every resolved address is tried in order (like
/// `TcpStream::connect` — a dual-stack hostname whose first record
/// points at the wrong family must not mask a reachable daemon); the
/// last error is returned when all fail. The single definition of
/// "dial a chipletqc daemon", shared by [`RemoteBackend`] and the
/// engine's TCP submit client — they must never drift on dial
/// behavior.
pub fn connect(
    addr: &str,
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
) -> io::Result<TcpStream> {
    let resolved: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
    if resolved.is_empty() {
        return Err(bad(format!("peer address `{addr}` resolves to nothing")));
    }
    let mut last_error = None;
    for candidate in resolved {
        match TcpStream::connect_timeout(&candidate, CONNECT_TIMEOUT) {
            Ok(stream) => {
                stream.set_read_timeout(read_timeout)?;
                stream.set_write_timeout(write_timeout)?;
                return Ok(stream);
            }
            Err(error) => last_error = Some(error),
        }
    }
    match last_error {
        Some(error) => Err(error),
        // Unreachable in practice — `resolved` was checked non-empty
        // above — but a connect helper has no business panicking.
        None => Err(bad(format!("peer address `{addr}` yielded no connect attempts"))),
    }
}

/// Writes one store request frame.
pub fn write_store_request(w: &mut impl Write, request: &StoreRequest) -> io::Result<()> {
    match request {
        StoreRequest::Get(key) => {
            let logical = key.logical();
            writeln!(w, "{VERSION} store-get")?;
            write!(w, "key-bytes = {}\n\n", logical.len())?;
            w.write_all(logical.as_bytes())?;
        }
        StoreRequest::Put { key, encoding, payload } => {
            let logical = key.logical();
            writeln!(w, "{VERSION} store-put")?;
            writeln!(w, "encoding = {}", encoding.name())?;
            writeln!(w, "key-bytes = {}", logical.len())?;
            write!(w, "payload-bytes = {}\n\n", payload.len())?;
            w.write_all(logical.as_bytes())?;
            w.write_all(payload)?;
        }
        StoreRequest::List => {
            write!(w, "{VERSION} store-list\n\n")?;
        }
    }
    w.flush()
}

/// Parses a store request body given its already-read frame head.
/// `Ok(None)` means the verb is not a store verb (the caller owns it).
pub fn parse_store_request(
    verb: &str,
    headers: &[(String, String)],
    r: &mut impl BufRead,
) -> io::Result<Option<StoreRequest>> {
    match verb {
        "store-get" => Ok(Some(StoreRequest::Get(read_key(verb, headers, r)?))),
        "store-put" => {
            let encoding = header(headers, "encoding")
                .and_then(Encoding::parse)
                .ok_or_else(|| bad("store-put needs `encoding = binary|json`".into()))?;
            let payload_len = wire::parse_len(
                header(headers, "payload-bytes")
                    .ok_or_else(|| bad("store-put is missing `payload-bytes`".into()))?,
            )?;
            let key = read_key(verb, headers, r)?;
            let payload = wire::read_bytes(r, payload_len)?;
            Ok(Some(StoreRequest::Put { key, encoding, payload }))
        }
        "store-list" => Ok(Some(StoreRequest::List)),
        _ => Ok(None),
    }
}

/// Reads the length-prefixed logical-key payload of a store request.
fn read_key(
    verb: &str,
    headers: &[(String, String)],
    r: &mut impl BufRead,
) -> io::Result<EntryKey> {
    let len = wire::parse_len(
        header(headers, "key-bytes")
            .ok_or_else(|| bad(format!("{verb} is missing `key-bytes`")))?,
    )?;
    let logical = wire::read_utf8(r, len, "entry key")?;
    EntryKey::parse_logical(&logical)
        .ok_or_else(|| bad(format!("malformed entry key `{logical}`")))
}

/// Writes one store reply frame.
pub fn write_store_reply(w: &mut impl Write, reply: &StoreReply) -> io::Result<()> {
    match reply {
        StoreReply::Found { encoding, payload } => {
            writeln!(w, "{VERSION} found")?;
            writeln!(w, "encoding = {}", encoding.name())?;
            write!(w, "payload-bytes = {}\n\n", payload.len())?;
            w.write_all(payload)?;
        }
        StoreReply::Missing => write!(w, "{VERSION} missing\n\n")?,
        StoreReply::Stored => write!(w, "{VERSION} stored\n\n")?,
        StoreReply::Keys(keys) => {
            let joined = keys.iter().map(EntryKey::logical).collect::<Vec<_>>().join("\n");
            writeln!(w, "{VERSION} keys")?;
            write!(w, "keys-bytes = {}\n\n", joined.len())?;
            w.write_all(joined.as_bytes())?;
        }
        StoreReply::Error(message) => {
            writeln!(w, "{VERSION} error")?;
            write!(w, "message-bytes = {}\n\n", message.len())?;
            w.write_all(message.as_bytes())?;
        }
    }
    w.flush()
}

/// Reads one store reply frame. The `error` arm parses the same shape
/// as the engine protocol's error response, so a daemon-level
/// rejection (bad frame, failed authentication) surfaces as a
/// [`StoreReply::Error`] instead of a parse failure.
pub fn read_store_reply(r: &mut impl BufRead) -> io::Result<StoreReply> {
    let (verb, headers) = wire::read_frame_head(r)?;
    match verb.as_str() {
        "found" => {
            let encoding = header(&headers, "encoding")
                .and_then(Encoding::parse)
                .ok_or_else(|| bad("found reply needs `encoding`".into()))?;
            let len = wire::parse_len(
                header(&headers, "payload-bytes")
                    .ok_or_else(|| bad("found reply is missing `payload-bytes`".into()))?,
            )?;
            Ok(StoreReply::Found { encoding, payload: wire::read_bytes(r, len)? })
        }
        "missing" => Ok(StoreReply::Missing),
        "stored" => Ok(StoreReply::Stored),
        "keys" => {
            let len = wire::parse_len(
                header(&headers, "keys-bytes")
                    .ok_or_else(|| bad("keys reply is missing `keys-bytes`".into()))?,
            )?;
            let joined = wire::read_utf8(r, len, "key list")?;
            let mut keys = Vec::new();
            for line in joined.lines() {
                keys.push(
                    EntryKey::parse_logical(line)
                        .ok_or_else(|| bad(format!("malformed listed key `{line}`")))?,
                );
            }
            Ok(StoreReply::Keys(keys))
        }
        "error" => {
            let len = wire::parse_len(
                header(&headers, "message-bytes")
                    .ok_or_else(|| bad("error reply is missing `message-bytes`".into()))?,
            )?;
            Ok(StoreReply::Error(wire::read_utf8(r, len, "error message")?))
        }
        other => Err(bad(format!("unknown store reply verb `{other}`"))),
    }
}

/// Counters of what a [`RemoteBackend`] asked of its peer — separate
/// from the local [`StoreStats`](crate::StoreStats) so the report's
/// counter shape is independent of whether a peer is configured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PeerStats {
    /// Reads the peer served.
    pub hits: u64,
    /// Reads the peer answered `missing`.
    pub misses: u64,
    /// Transport failures and peer-side errors (each costs only a
    /// local recomputation).
    pub errors: u64,
    /// Times the circuit breaker tripped open.
    pub trips: u64,
    /// Fresh connections dialed (including the authentication
    /// preamble each one pays).
    pub dials: u64,
    /// Requests served over an already-open connection — the dials
    /// and hellos that connection reuse saved.
    pub reused: u64,
    /// Entries pushed to the peer (accepted `store-put`s).
    pub pushes: u64,
}

impl PeerStats {
    /// Counter deltas since `earlier` (saturating, like the other
    /// stats types: counters only grow within a session).
    #[must_use]
    pub fn since(&self, earlier: &PeerStats) -> PeerStats {
        PeerStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            errors: self.errors.saturating_sub(earlier.errors),
            trips: self.trips.saturating_sub(earlier.trips),
            dials: self.dials.saturating_sub(earlier.dials),
            reused: self.reused.saturating_sub(earlier.reused),
            pushes: self.pushes.saturating_sub(earlier.pushes),
        }
    }
}

/// Consecutive transport failures after which the circuit opens: the
/// backend stops dialing and fast-fails every request until
/// [`CIRCUIT_COOLDOWN`] passes. Without this, a peer daemon that is
/// busy running its own batch (it answers nothing until the batch
/// drains) would cost a cold host one full [`IO_TIMEOUT`] per miss,
/// serially — pathological degradation where fast local recomputation
/// is the right answer.
const CIRCUIT_FAILURES: u32 = 3;

/// How long an open circuit stays open before the next request is
/// allowed to probe the peer again.
const CIRCUIT_COOLDOWN: Duration = Duration::from_secs(30);

/// The circuit-breaker state of a [`RemoteBackend`].
#[derive(Debug, Default)]
struct Circuit {
    consecutive_failures: u32,
    open_until: Option<std::time::Instant>,
}

/// One live authenticated connection to the peer. The reader must
/// persist alongside the writer: it may buffer bytes past the reply
/// it was asked for, and dropping it between requests would lose
/// them.
struct PeerConn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// A [`Backend`] served by a peer `chipletqc-engine` daemon over TCP.
///
/// The backend keeps one persistent connection: the first request
/// dials and authenticates, later requests reuse the open connection
/// (one exchange at a time — requests serialize on it), and a
/// transport error on a reused connection drops it and retries the
/// request once on a fresh dial, so a peer daemon restart costs one
/// redial, not a failed request. Transport failures are
/// [`Lookup::Invalid`] / `Err`: the tier above treats them as misses,
/// so an unreachable peer costs recomputation, never a failed run. The
/// first failure is logged to stderr (once, not per request), and
/// [`CIRCUIT_FAILURES`] consecutive failures open a circuit breaker
/// that fast-fails requests for [`CIRCUIT_COOLDOWN`] instead of
/// paying a timeout per miss against a dead or busy peer.
pub struct RemoteBackend {
    addr: String,
    token: Option<String>,
    hits: AtomicU64,
    misses: AtomicU64,
    errors: AtomicU64,
    trips: AtomicU64,
    dials: AtomicU64,
    reused: AtomicU64,
    pushes: AtomicU64,
    logged_failure: AtomicBool,
    circuit: std::sync::Mutex<Circuit>,
    conn: std::sync::Mutex<Option<PeerConn>>,
}

// Manual: the token is the shared authentication secret, and `{:?}`
// output lands in logs. Redact it, never print it.
impl std::fmt::Debug for RemoteBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteBackend")
            .field("addr", &self.addr)
            .field("token", &self.token.as_ref().map(|_| "[redacted]"))
            .field("stats", &self.stats())
            .finish()
    }
}

impl RemoteBackend {
    /// A backend speaking to the daemon at `addr` (`HOST:PORT`),
    /// authenticating with `token` when given (TCP daemons require
    /// one).
    pub fn new(addr: impl Into<String>, token: Option<String>) -> RemoteBackend {
        RemoteBackend {
            addr: addr.into(),
            token,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            trips: AtomicU64::new(0),
            dials: AtomicU64::new(0),
            reused: AtomicU64::new(0),
            pushes: AtomicU64::new(0),
            logged_failure: AtomicBool::new(false),
            circuit: std::sync::Mutex::new(Circuit::default()),
            conn: std::sync::Mutex::new(None),
        }
    }

    /// The peer address this backend targets.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// This backend's session counters.
    pub fn stats(&self) -> PeerStats {
        PeerStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            trips: self.trips.load(Ordering::Relaxed),
            dials: self.dials.load(Ordering::Relaxed),
            reused: self.reused.load(Ordering::Relaxed),
            pushes: self.pushes.load(Ordering::Relaxed),
        }
    }

    /// Dials and authenticates one fresh connection.
    fn dial(&self) -> io::Result<PeerConn> {
        let writer = connect(&self.addr, Some(IO_TIMEOUT), Some(IO_TIMEOUT))?;
        let reader = BufReader::new(writer.try_clone()?);
        let mut conn = PeerConn { writer, reader };
        if let Some(token) = &self.token {
            write_hello(&mut conn.writer, token)?;
        }
        self.dials.fetch_add(1, Ordering::Relaxed);
        Ok(conn)
    }

    /// One request/reply pair over an open connection.
    fn exchange(conn: &mut PeerConn, request: &StoreRequest) -> io::Result<StoreReply> {
        let mut writer = BufWriter::new(&conn.writer);
        write_store_request(&mut writer, request)?;
        drop(writer);
        read_store_reply(&mut conn.reader)
    }

    /// One full round-trip: circuit check, then an exchange over the
    /// persistent connection (dialing and authenticating it first if
    /// absent). An error on a *reused* connection usually means the
    /// peer went away since the last exchange — the connection is
    /// dropped and the request retried once on a fresh dial before
    /// the failure counts. A success closes the circuit; a transport
    /// error feeds it (reply-level errors like a peer-side rejection
    /// are counted by the caller via [`RemoteBackend::note_failure`]
    /// but do not open the circuit — the peer *is* responding).
    fn round_trip(&self, request: &StoreRequest) -> io::Result<StoreReply> {
        if let Some(remaining) = self.circuit_open() {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!(
                    "peer {} circuit open for {remaining:.0?} more \
                     ({CIRCUIT_FAILURES} consecutive transport failures)",
                    self.addr
                ),
            ));
        }
        // Exchanges serialize on the one connection; concurrent
        // workers queue here rather than each paying a dial + hello.
        let mut conn = self.conn.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let attempt = |conn: &mut Option<PeerConn>| -> io::Result<StoreReply> {
            match conn {
                Some(open) => Self::exchange(open, request),
                None => {
                    let open = conn.insert(self.dial()?);
                    Self::exchange(open, request)
                }
            }
        };
        let was_open = conn.is_some();
        let mut result = attempt(&mut conn);
        if result.is_ok() && was_open {
            self.reused.fetch_add(1, Ordering::Relaxed);
        }
        if result.is_err() && was_open {
            // The cached connection was stale; one fresh dial decides
            // whether the peer is actually down.
            *conn = None;
            result = attempt(&mut conn);
        }
        match result {
            Ok(reply) => {
                let mut circuit =
                    self.circuit.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                circuit.consecutive_failures = 0;
                circuit.open_until = None;
                Ok(reply)
            }
            Err(error) => {
                *conn = None;
                let mut circuit =
                    self.circuit.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                circuit.consecutive_failures += 1;
                if circuit.consecutive_failures >= CIRCUIT_FAILURES {
                    if circuit.open_until.is_none() {
                        self.trips.fetch_add(1, Ordering::Relaxed);
                    }
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "circuit-breaker cooldown deadline, never report-visible"
                    )]
                    let until = std::time::Instant::now() + CIRCUIT_COOLDOWN;
                    circuit.open_until = Some(until);
                }
                Err(error)
            }
        }
    }

    /// Time left on an open circuit, or `None` when requests may dial
    /// the peer (an elapsed cooldown half-closes the circuit: exactly
    /// one request probes, and its outcome resets or re-opens).
    fn circuit_open(&self) -> Option<Duration> {
        #[expect(
            clippy::disallowed_methods,
            reason = "circuit-breaker cooldown probe, never report-visible"
        )]
        let now = std::time::Instant::now();
        let mut circuit =
            self.circuit.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        match circuit.open_until {
            Some(until) => match until.checked_duration_since(now) {
                Some(remaining) if !remaining.is_zero() => Some(remaining),
                _ => {
                    // Cooldown over: THIS caller becomes the single
                    // probe. Re-arming the window before the probe
                    // resolves keeps the circuit closed to everyone
                    // else (concurrent scheduler workers must not all
                    // pile onto a possibly-dead peer at once); the
                    // probe's success clears it, its failure extends
                    // it.
                    circuit.open_until = Some(now + CIRCUIT_COOLDOWN);
                    None
                }
            },
            None => None,
        }
    }

    /// Records and (once) reports a transport failure.
    fn note_failure(&self, what: &str, error: &dyn std::fmt::Display) {
        self.errors.fetch_add(1, Ordering::Relaxed);
        if !self.logged_failure.swap(true, Ordering::Relaxed) {
            eprintln!(
                "chipletqc-store: peer {} unavailable ({what}: {error}); \
                 falling back to local computation",
                self.addr
            );
        }
    }
}

impl Backend for RemoteBackend {
    fn get(&self, key: &EntryKey) -> Lookup {
        match self.round_trip(&StoreRequest::Get(key.clone())) {
            Ok(StoreReply::Found { encoding, payload }) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Lookup::Hit { encoding, payload }
            }
            Ok(StoreReply::Missing) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Lookup::Miss
            }
            Ok(StoreReply::Error(message)) => {
                self.note_failure("store-get rejected", &message);
                Lookup::Invalid
            }
            Ok(other) => {
                self.note_failure("store-get", &format!("unexpected reply {other:?}"));
                Lookup::Invalid
            }
            Err(error) => {
                self.note_failure("store-get", &error);
                Lookup::Invalid
            }
        }
    }

    fn put(&self, key: &EntryKey, encoding: Encoding, payload: &[u8]) -> io::Result<()> {
        let request =
            StoreRequest::Put { key: key.clone(), encoding, payload: payload.to_vec() };
        match self.round_trip(&request) {
            Ok(StoreReply::Stored) => {
                self.pushes.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Ok(StoreReply::Error(message)) => Err(bad(message)),
            Ok(other) => Err(bad(format!("unexpected store-put reply {other:?}"))),
            Err(error) => Err(error),
        }
    }

    fn list(&self) -> io::Result<Vec<EntryKey>> {
        match self.round_trip(&StoreRequest::List)? {
            StoreReply::Keys(keys) => Ok(keys),
            StoreReply::Error(message) => Err(bad(message)),
            other => Err(bad(format!("unexpected store-list reply {other:?}"))),
        }
    }

    fn peer_stats(&self) -> Option<PeerStats> {
        Some(self.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> EntryKey {
        EntryKey::new("b400|s2022", crate::products::KIND_MONO_POP, "40q")
    }

    fn round_trip_request(request: &StoreRequest) -> StoreRequest {
        let mut bytes = Vec::new();
        write_store_request(&mut bytes, request).unwrap();
        let mut r = io::BufReader::new(&bytes[..]);
        let (verb, headers) = wire::read_frame_head(&mut r).unwrap();
        parse_store_request(&verb, &headers, &mut r).unwrap().expect("a store verb")
    }

    fn round_trip_reply(reply: &StoreReply) -> StoreReply {
        let mut bytes = Vec::new();
        write_store_reply(&mut bytes, reply).unwrap();
        read_store_reply(&mut io::BufReader::new(&bytes[..])).unwrap()
    }

    #[test]
    fn requests_round_trip() {
        for request in [
            StoreRequest::Get(key()),
            StoreRequest::Put { key: key(), encoding: Encoding::Json, payload: b"{}".to_vec() },
            StoreRequest::Put { key: key(), encoding: Encoding::Binary, payload: Vec::new() },
            StoreRequest::List,
        ] {
            assert_eq!(round_trip_request(&request), request);
        }
    }

    #[test]
    fn replies_round_trip() {
        for reply in [
            StoreReply::Found { encoding: Encoding::Binary, payload: b"bytes".to_vec() },
            StoreReply::Missing,
            StoreReply::Stored,
            StoreReply::Keys(vec![key(), EntryKey::new("other", "kgd-bin", "10q")]),
            StoreReply::Keys(Vec::new()),
            StoreReply::Error("no store attached".into()),
        ] {
            assert_eq!(round_trip_reply(&reply), reply);
        }
    }

    #[test]
    fn hello_round_trips() {
        let mut bytes = Vec::new();
        write_hello(&mut bytes, "sekrit token").unwrap();
        let mut r = io::BufReader::new(&bytes[..]);
        let (verb, headers) = wire::read_frame_head(&mut r).unwrap();
        assert_eq!(verb, "hello");
        assert_eq!(parse_hello(&headers, &mut r).unwrap(), "sekrit token");
    }

    #[test]
    fn pre_auth_token_length_is_capped() {
        // parse_hello runs before authentication, so a lying
        // token-bytes header must be refused, not allocated.
        let frame = format!("{VERSION} hello\ntoken-bytes = {}\n\n", MAX_TOKEN + 1);
        let mut r = io::BufReader::new(frame.as_bytes());
        let (verb, headers) = wire::read_frame_head(&mut r).unwrap();
        assert_eq!(verb, "hello");
        let error = parse_hello(&headers, &mut r).unwrap_err();
        assert!(error.to_string().contains("cap"), "{error}");
    }

    #[test]
    fn non_store_verbs_are_left_to_the_caller() {
        let frame = format!("{VERSION} submit\n\n");
        let mut r = io::BufReader::new(frame.as_bytes());
        let (verb, headers) = wire::read_frame_head(&mut r).unwrap();
        assert_eq!(parse_store_request(&verb, &headers, &mut r).unwrap(), None);
    }

    #[test]
    fn malformed_store_frames_are_errors_not_panics() {
        for frame in [
            format!("{VERSION} store-get\n\n"), // missing key-bytes
            format!("{VERSION} store-get\nkey-bytes = 99\n\n"), // truncated key
            format!("{VERSION} store-get\nkey-bytes = 3\n\nabc"), // not a logical key
            format!("{VERSION} store-put\nkey-bytes = 1\npayload-bytes = 1\n\nxy"), // no encoding
            format!(
                "{VERSION} store-put\nencoding = zstd\nkey-bytes = 1\npayload-bytes = 1\n\nxy"
            ),
        ] {
            let mut r = io::BufReader::new(frame.as_bytes());
            let (verb, headers) = wire::read_frame_head(&mut r).unwrap();
            assert!(
                parse_store_request(&verb, &headers, &mut r).is_err(),
                "`{frame}` should not parse"
            );
        }
        for reply in
            [format!("{VERSION} found\n\n"), format!("{VERSION} celebrate\n\n"), String::new()]
        {
            assert!(read_store_reply(&mut io::BufReader::new(reply.as_bytes())).is_err());
        }
    }

    #[test]
    fn an_unreachable_peer_is_invalid_not_fatal_and_opens_the_circuit() {
        // A reserved port on localhost nothing listens on.
        let backend = RemoteBackend::new("127.0.0.1:1", Some("t".into()));
        assert_eq!(backend.get(&key()), Lookup::Invalid);
        assert!(backend.put(&key(), Encoding::Json, b"{}").is_err());
        assert!(backend.list().is_err());
        assert_eq!(backend.stats().hits, 0);
        assert!(backend.stats().errors >= 1);
        // Three consecutive transport failures opened the circuit:
        // further requests fast-fail without dialing (a busy or dead
        // peer must not cost one timeout per miss).
        let error = backend.list().unwrap_err();
        assert!(error.to_string().contains("circuit open"), "{error}");
        assert_eq!(backend.get(&key()), Lookup::Invalid, "fast-fail is still just a miss");
        assert_eq!(backend.stats().trips, 1, "one opening sequence is one trip");
    }

    #[test]
    fn the_persistent_connection_is_reused_and_redialed_after_peer_restart() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let serve = std::thread::spawn(move || {
            // Connection 1 serves two exchanges then hangs up (a peer
            // daemon restart); connection 2 serves until client EOF.
            for (number, conn) in listener.incoming().take(2).enumerate() {
                let conn = conn.unwrap();
                let mut reader = io::BufReader::new(conn.try_clone().unwrap());
                let mut served = 0usize;
                while let Ok((verb, headers)) = wire::read_frame_head(&mut reader) {
                    match verb.as_str() {
                        "hello" => {
                            assert_eq!(parse_hello(&headers, &mut reader).unwrap(), "t");
                        }
                        "store-list" => {
                            let mut w = &conn;
                            write_store_reply(&mut w, &StoreReply::Keys(Vec::new())).unwrap();
                            served += 1;
                            if number == 0 && served == 2 {
                                break;
                            }
                        }
                        other => panic!("unexpected verb `{other}`"),
                    }
                }
            }
        });
        let backend = RemoteBackend::new(addr, Some("t".into()));
        for _ in 0..4 {
            // Request 3 lands on the connection the peer already
            // closed; the retry-once redial keeps it a success.
            assert_eq!(backend.list().unwrap(), Vec::new());
        }
        drop(backend);
        serve.join().unwrap();
    }

    #[test]
    fn reuse_counters_track_dials_and_reuses() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let serve = std::thread::spawn(move || {
            let conn = listener.incoming().next().unwrap().unwrap();
            let mut reader = io::BufReader::new(conn.try_clone().unwrap());
            while let Ok((verb, headers)) = wire::read_frame_head(&mut reader) {
                match verb.as_str() {
                    "hello" => {
                        parse_hello(&headers, &mut reader).unwrap();
                    }
                    _ => {
                        let mut w = &conn;
                        write_store_reply(&mut w, &StoreReply::Keys(Vec::new())).unwrap();
                    }
                }
            }
        });
        let backend = RemoteBackend::new(addr, Some("t".into()));
        for _ in 0..3 {
            backend.list().unwrap();
        }
        let stats = backend.stats();
        assert_eq!(stats.dials, 1, "one dial serves every request");
        assert_eq!(stats.reused, 2, "requests after the first reuse the connection");
        assert_eq!(stats.errors, 0);
        drop(backend);
        serve.join().unwrap();
    }
}
