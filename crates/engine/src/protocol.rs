//! The service-mode wire protocol: framed batch submissions and
//! responses over any byte stream — a Unix domain socket, or TCP
//! between hosts.
//!
//! The frame grammar (version line, `key = value` header lines, a
//! blank line, then length-prefixed payload bytes) is defined once in
//! [`chipletqc_store::wire`] and shared with the store peer protocol
//! ([`chipletqc_store::remote`]); this module speaks the engine's
//! verbs over it. Sweep descriptions travel verbatim in the payload:
//! they are already the engine's canonical batch description
//! ([`crate::sweep::Sweep`]), which makes them the natural wire format
//! for batch submission.
//!
//! ## Frames
//!
//! An optional authentication preamble precedes any request on a
//! connection to a daemon that requires a shared token (TCP daemons
//! always do; see [`chipletqc_store::remote::write_hello`] for the
//! frame):
//!
//! ```text
//! chipletqc/1 hello
//! token-bytes = 24
//! <blank line>
//! <24 bytes of token>
//! ```
//!
//! A **request** is a submission, a shutdown, or one of the store peer
//! verbs (`store-get` / `store-put` / `store-list`, parsed by
//! [`chipletqc_store::remote`] and answered from the daemon's local
//! store tier):
//!
//! ```text
//! chipletqc/1 submit
//! workers = 4            # optional; scheduler threads for this batch
//! shards = 2             # optional; per-scenario shard cap
//! seed = 9               # optional; root-seed override
//! scale = quick          # optional; paper-suite scale (default paper)
//! only = fig8,fig9       # optional; paper-suite scenario filter
//! reset = true           # optional; drop warm in-memory caches first
//! sweep-bytes = 123      # present iff a sweep description follows
//! <blank line>
//! <123 bytes of sweep text>
//! ```
//!
//! ```text
//! chipletqc/1 shutdown
//! <blank line>
//! ```
//!
//! A **work claim** is the mesh coordinator's request to a worker
//! daemon: one work unit of a scattered sweep, carried in the exact
//! `submit` header set (the unit is a sweep plus an `only` filter
//! naming its scenarios) under its own verb, so a worker can meter
//! and gate mesh traffic separately from ordinary submissions:
//!
//! ```text
//! chipletqc/1 work-claim
//! only = sweep/a,sweep/b  # the unit's scenario names
//! sweep-bytes = 123
//! <blank line>
//! <123 bytes of sweep text>
//! ```
//!
//! A **response** is a report, a work result, a shutdown
//! acknowledgement, or an error:
//!
//! ```text
//! chipletqc/1 ok
//! batch = 3              # daemon-assigned submission id
//! timing-bytes = 210     # schedule-dependent timing lines
//! report-bytes = 4096    # the deterministic RunReport JSON
//! <blank line>
//! <210 bytes of timing><4096 bytes of report>
//! ```
//!
//! ```text
//! chipletqc/1 ok
//! pieces-bytes = 890     # the unit's results in the mesh pieces format
//! <blank line>
//! <890 bytes of pieces>
//! ```
//!
//! ```text
//! chipletqc/1 ok
//! shutdown = true
//! <blank line>
//! ```
//!
//! ```text
//! chipletqc/1 error
//! message-bytes = 17
//! <blank line>
//! unknown kind `x9`
//! ```
//!
//! A submission may be preceded by any number of **progress** frames
//! before its terminal response — a queue position while it waits for
//! an admission slot, then shard-task completion counts while it
//! runs:
//!
//! ```text
//! chipletqc/1 progress
//! queued = 2             # submissions ahead of this one
//! <blank line>
//! ```
//!
//! ```text
//! chipletqc/1 progress
//! done = 3               # shard tasks finished so far
//! total = 8              # shard tasks in the batch
//! <blank line>
//! ```
//!
//! A daemon whose admission queue is full answers a submission with a
//! terminal **busy** frame instead of stalling the client:
//!
//! ```text
//! chipletqc/1 busy
//! inflight = 4           # batches currently running
//! queued = 16            # submissions already waiting
//! <blank line>
//! ```
//!
//! A client may retire its own queued or in-flight submission early
//! with a **cancel** frame on the same connection (closing the
//! connection cancels too); the daemon acknowledges explicit cancels
//! terminally:
//!
//! ```text
//! chipletqc/1 cancel
//! <blank line>
//! ```
//!
//! ```text
//! chipletqc/1 ok
//! cancelled = true
//! <blank line>
//! ```
//!
//! A **status** request asks the daemon for a live JSON snapshot of
//! its telemetry — admission counters, gauges, per-histogram
//! percentiles. It is answered directly on the connection thread,
//! never entering the admission gate or the batch path, so it works
//! against a fully loaded daemon:
//!
//! ```text
//! chipletqc/1 status
//! <blank line>
//! ```
//!
//! ```text
//! chipletqc/1 ok
//! status-bytes = 1490    # the status snapshot JSON
//! <blank line>
//! <1490 bytes of JSON>
//! ```
//!
//! Every frame is self-delimiting. One connection carries one request
//! and its response stream: zero or more `progress` frames, then
//! exactly one terminal frame (report, pieces, busy, cancelled,
//! shutdown acknowledgement, or error), after which either side may
//! close.

// Daemon path: a panic here takes down the warm hub and every queued
// client. (`unwrap_used` comes from the workspace lints.)
#![warn(
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::io::{self, BufRead, Write};

use chipletqc_store::remote::{self, StoreRequest};
use chipletqc_store::wire::{self, bad, header, parse_len, read_utf8};

use crate::scenario::Scale;

pub use chipletqc_store::wire::VERSION;

/// One batch submission: what a one-shot CLI invocation would run,
/// minus process-lifetime options (output directory, cache wiring —
/// those belong to the daemon).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Submission {
    /// A sweep description in the [`crate::sweep`] text format;
    /// `None` submits the paper suite.
    pub sweep_text: Option<String>,
    /// Scenario filter applied to the expanded batch — paper-suite
    /// names, or a sweep's expanded scenario names when a sweep is
    /// given. A name the batch does not contain rejects the whole
    /// submission, exactly like the one-shot CLI's `--only`.
    pub only: Option<Vec<String>>,
    /// Paper-suite scale; `None` keeps the daemon's default (paper).
    pub scale: Option<Scale>,
    /// Scheduler worker threads for this batch; `None` keeps the
    /// daemon's default.
    pub workers: Option<usize>,
    /// Per-scenario shard cap for this batch; `None` keeps the
    /// daemon's default.
    pub shards: Option<usize>,
    /// Root-seed override applied to every scenario in the batch.
    pub seed: Option<u64>,
    /// Drop the daemon's warm in-memory caches before running (the
    /// persistent store, if any, stays attached): a memory-pressure
    /// valve for long-lived daemons. Results are unaffected.
    pub reset: bool,
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Authentication preamble: the presented shared token. Precedes
    /// the real request on the same connection; mandatory on TCP.
    Hello(String),
    /// Run a batch and return its report.
    Submit(Submission),
    /// A store peer request, answered from the daemon's local store
    /// tier with a [`chipletqc_store::remote::StoreReply`] frame.
    Store(StoreRequest),
    /// One work unit of a scattered sweep, claimed from a mesh worker
    /// daemon. Carries the same fields as a submission (the unit is a
    /// sweep plus an `only` filter naming its scenarios) but is
    /// answered with a [`Response::WorkResult`] pieces frame instead
    /// of a full report, and only daemons started as mesh workers
    /// accept it.
    WorkClaim(Submission),
    /// Retire this connection's queued or in-flight submission early.
    /// Sent mid-stream on the submission's own connection; answered
    /// with [`Response::Cancelled`].
    Cancel,
    /// Ask for a live telemetry snapshot, answered with
    /// [`Response::Status`] without entering the admission gate — the
    /// one request guaranteed to be served promptly by a daemon whose
    /// batch path is saturated.
    Status,
    /// Finish in-flight work, acknowledge, and exit.
    Shutdown,
}

/// A non-terminal progress report streamed before a submission's
/// terminal response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Progress {
    /// The submission is waiting for an admission slot behind
    /// `position` others (1 = next in line).
    Queued {
        /// Submissions ahead of this one in the admission queue.
        position: u64,
    },
    /// The batch is running; `done` of `total` shard tasks finished.
    Tasks {
        /// Shard tasks finished so far.
        done: u64,
        /// Shard tasks in the batch.
        total: u64,
    },
}

/// A daemon response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// A completed batch.
    Report {
        /// Daemon-assigned submission id (1-based, monotonic).
        batch: u64,
        /// Schedule-dependent timing lines (never part of the report).
        timing: String,
        /// The deterministic `RunReport` JSON — byte-identical to a
        /// one-shot CLI run of the same batch apart from the
        /// `fabrication`/`store` counter objects, which hold this
        /// submission's deltas.
        report: String,
    },
    /// A completed work unit: the per-scenario pieces and counter
    /// deltas in the mesh pieces format
    /// ([`crate::mesh::encode_pieces`] /
    /// [`crate::mesh::decode_pieces`]), which the coordinator merges
    /// into the batch's deterministic report.
    WorkResult {
        /// The unit's results, encoded as pieces text.
        pieces: String,
    },
    /// The daemon accepted a shutdown request and is draining.
    ShuttingDown,
    /// A non-terminal progress report; zero or more precede a
    /// submission's terminal response on the same connection.
    Progress(Progress),
    /// The admission queue is full: a terminal backpressure reply.
    /// The submission did not run; retry later.
    Busy {
        /// Batches running when the submission arrived.
        inflight: u64,
        /// Submissions already waiting in the admission queue.
        queued: u64,
    },
    /// Terminal acknowledgement of an explicit [`Request::Cancel`]:
    /// the submission was retired without running to completion.
    Cancelled,
    /// The daemon's live telemetry snapshot, answering
    /// [`Request::Status`].
    Status {
        /// The snapshot as pretty-printed JSON: admission state and
        /// counters plus the full observability registry
        /// (counters/gauges/histograms with p50/p90/max).
        json: String,
    },
    /// The submission was rejected (parse error, unknown scenario,
    /// bad option). The daemon stays up.
    Error(String),
}

/// Writes one request frame.
pub fn write_request(w: &mut impl Write, request: &Request) -> io::Result<()> {
    match request {
        Request::Submit(s) => write_submission(w, "submit", s)?,
        Request::WorkClaim(s) => write_submission(w, "work-claim", s)?,
        Request::Cancel => {
            write!(w, "{VERSION} cancel\n\n")?;
        }
        Request::Status => {
            write!(w, "{VERSION} status\n\n")?;
        }
        Request::Shutdown => {
            write!(w, "{VERSION} shutdown\n\n")?;
        }
        Request::Hello(token) => return remote::write_hello(w, token),
        Request::Store(request) => return remote::write_store_request(w, request),
    }
    w.flush()
}

/// Writes a submission-shaped frame body under `verb` — shared by
/// `submit` and `work-claim`, whose header sets are identical by
/// construction (a work unit *is* a submission the coordinator carved
/// out of a larger one).
fn write_submission(w: &mut impl Write, verb: &str, s: &Submission) -> io::Result<()> {
    writeln!(w, "{VERSION} {verb}")?;
    if let Some(workers) = s.workers {
        writeln!(w, "workers = {workers}")?;
    }
    if let Some(shards) = s.shards {
        writeln!(w, "shards = {shards}")?;
    }
    if let Some(seed) = s.seed {
        writeln!(w, "seed = {seed}")?;
    }
    if let Some(scale) = s.scale {
        writeln!(w, "scale = {}", scale.name())?;
    }
    if let Some(only) = &s.only {
        writeln!(w, "only = {}", only.join(","))?;
    }
    if s.reset {
        writeln!(w, "reset = true")?;
    }
    if let Some(text) = &s.sweep_text {
        writeln!(w, "sweep-bytes = {}", text.len())?;
    }
    w.write_all(b"\n")?;
    if let Some(text) = &s.sweep_text {
        w.write_all(text.as_bytes())?;
    }
    Ok(())
}

/// Writes one response frame.
pub fn write_response(w: &mut impl Write, response: &Response) -> io::Result<()> {
    match response {
        Response::Report { batch, timing, report } => {
            writeln!(w, "{VERSION} ok")?;
            writeln!(w, "batch = {batch}")?;
            writeln!(w, "timing-bytes = {}", timing.len())?;
            write!(w, "report-bytes = {}\n\n", report.len())?;
            w.write_all(timing.as_bytes())?;
            w.write_all(report.as_bytes())?;
        }
        Response::WorkResult { pieces } => {
            writeln!(w, "{VERSION} ok")?;
            write!(w, "pieces-bytes = {}\n\n", pieces.len())?;
            w.write_all(pieces.as_bytes())?;
        }
        Response::ShuttingDown => {
            write!(w, "{VERSION} ok\nshutdown = true\n\n")?;
        }
        Response::Progress(Progress::Queued { position }) => {
            write!(w, "{VERSION} progress\nqueued = {position}\n\n")?;
        }
        Response::Progress(Progress::Tasks { done, total }) => {
            write!(w, "{VERSION} progress\ndone = {done}\ntotal = {total}\n\n")?;
        }
        Response::Busy { inflight, queued } => {
            write!(w, "{VERSION} busy\ninflight = {inflight}\nqueued = {queued}\n\n")?;
        }
        Response::Cancelled => {
            write!(w, "{VERSION} ok\ncancelled = true\n\n")?;
        }
        Response::Status { json } => {
            writeln!(w, "{VERSION} ok")?;
            write!(w, "status-bytes = {}\n\n", json.len())?;
            w.write_all(json.as_bytes())?;
        }
        Response::Error(message) => {
            writeln!(w, "{VERSION} error")?;
            write!(w, "message-bytes = {}\n\n", message.len())?;
            w.write_all(message.as_bytes())?;
        }
    }
    w.flush()
}

/// Reads one request frame.
pub fn read_request(r: &mut impl BufRead) -> io::Result<Request> {
    let (verb, headers) = wire::read_frame_head(r)?;
    if let Some(request) = remote::parse_store_request(&verb, &headers, r)? {
        return Ok(Request::Store(request));
    }
    match verb.as_str() {
        "hello" => Ok(Request::Hello(remote::parse_hello(&headers, r)?)),
        "submit" => Ok(Request::Submit(read_submission(&headers, r)?)),
        "work-claim" => Ok(Request::WorkClaim(read_submission(&headers, r)?)),
        "cancel" => Ok(Request::Cancel),
        "status" => Ok(Request::Status),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(bad(format!("unknown request verb `{other}`"))),
    }
}

/// Parses a submission-shaped frame body — the shared reader under
/// the `submit` and `work-claim` verbs.
fn read_submission(
    headers: &[(String, String)],
    r: &mut impl BufRead,
) -> io::Result<Submission> {
    let mut submission = Submission::default();
    for (key, value) in headers {
        match key.as_str() {
            "workers" => {
                submission.workers = Some(parse_count(key, value).map_err(bad)?);
            }
            "shards" => {
                submission.shards = Some(parse_count(key, value).map_err(bad)?);
            }
            "seed" => {
                submission.seed =
                    Some(value.parse().map_err(|_| bad(format!("bad seed {value}")))?);
            }
            "scale" => {
                submission.scale = Some(match value.as_str() {
                    "quick" => Scale::Quick,
                    "paper" => Scale::Paper,
                    other => return Err(bad(format!("unknown scale {other}"))),
                });
            }
            "only" => {
                submission.only =
                    Some(value.split(',').map(|s| s.trim().to_string()).collect());
            }
            "reset" => {
                submission.reset = match value.as_str() {
                    "true" => true,
                    "false" => false,
                    other => {
                        return Err(bad(format!("bad reset {other} (want true or false)")))
                    }
                };
            }
            "sweep-bytes" => {
                let len = parse_len(value)?;
                submission.sweep_text = Some(read_utf8(r, len, "sweep text")?);
            }
            other => return Err(bad(format!("unknown request header `{other}`"))),
        }
    }
    Ok(submission)
}

/// Reads one response frame.
pub fn read_response(r: &mut impl BufRead) -> io::Result<Response> {
    let (verb, headers) = wire::read_frame_head(r)?;
    match verb.as_str() {
        "ok" => {
            if header(&headers, "shutdown") == Some("true") {
                return Ok(Response::ShuttingDown);
            }
            if header(&headers, "cancelled") == Some("true") {
                return Ok(Response::Cancelled);
            }
            if let Some(value) = header(&headers, "pieces-bytes") {
                let len = parse_len(value)?;
                return Ok(Response::WorkResult { pieces: read_utf8(r, len, "pieces")? });
            }
            if let Some(value) = header(&headers, "status-bytes") {
                let len = parse_len(value)?;
                return Ok(Response::Status { json: read_utf8(r, len, "status snapshot")? });
            }
            let batch = header(&headers, "batch")
                .ok_or_else(|| bad("response is missing `batch`".into()))?
                .parse()
                .map_err(|_| bad("bad batch id".into()))?;
            let timing_len = parse_len(
                header(&headers, "timing-bytes")
                    .ok_or_else(|| bad("response is missing `timing-bytes`".into()))?,
            )?;
            let report_len = parse_len(
                header(&headers, "report-bytes")
                    .ok_or_else(|| bad("response is missing `report-bytes`".into()))?,
            )?;
            let timing = read_utf8(r, timing_len, "timing")?;
            let report = read_utf8(r, report_len, "report")?;
            Ok(Response::Report { batch, timing, report })
        }
        "progress" => {
            if let Some(position) = header(&headers, "queued") {
                let position =
                    position.parse().map_err(|_| bad("bad queue position".into()))?;
                return Ok(Response::Progress(Progress::Queued { position }));
            }
            let done = header(&headers, "done")
                .ok_or_else(|| bad("progress is missing `done`".into()))?
                .parse()
                .map_err(|_| bad("bad progress done count".into()))?;
            let total = header(&headers, "total")
                .ok_or_else(|| bad("progress is missing `total`".into()))?
                .parse()
                .map_err(|_| bad("bad progress total count".into()))?;
            Ok(Response::Progress(Progress::Tasks { done, total }))
        }
        "busy" => {
            let inflight = header(&headers, "inflight")
                .ok_or_else(|| bad("busy response is missing `inflight`".into()))?
                .parse()
                .map_err(|_| bad("bad inflight count".into()))?;
            let queued = header(&headers, "queued")
                .ok_or_else(|| bad("busy response is missing `queued`".into()))?
                .parse()
                .map_err(|_| bad("bad queued count".into()))?;
            Ok(Response::Busy { inflight, queued })
        }
        "error" => {
            let len = parse_len(
                header(&headers, "message-bytes")
                    .ok_or_else(|| bad("error response is missing `message-bytes`".into()))?,
            )?;
            Ok(Response::Error(read_utf8(r, len, "error message")?))
        }
        other => Err(bad(format!("unknown response verb `{other}`"))),
    }
}

/// Parses a worker/shard count, rejecting 0 — a zero parses as a
/// plain `usize` but produces a degenerate schedule. The single
/// definition shared by the wire protocol and the CLI flags, so the
/// daemon and the one-shot binary reject the same input with the same
/// message.
pub fn parse_count(key: &str, value: &str) -> Result<usize, String> {
    let count: usize = value.parse().map_err(|_| format!("bad {key} {value}"))?;
    if count == 0 {
        return Err(format!("bad {key} 0 (must be at least 1)"));
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(request: &Request) -> Request {
        let mut bytes = Vec::new();
        write_request(&mut bytes, request).unwrap();
        read_request(&mut io::BufReader::new(&bytes[..])).unwrap()
    }

    fn round_trip_response(response: &Response) -> Response {
        let mut bytes = Vec::new();
        write_response(&mut bytes, response).unwrap();
        read_response(&mut io::BufReader::new(&bytes[..])).unwrap()
    }

    #[test]
    fn requests_round_trip() {
        let full = Request::Submit(Submission {
            sweep_text: Some("kind = fig8\nseed = 7, 8\n".into()),
            only: Some(vec!["fig8".into(), "fig9".into()]),
            scale: Some(Scale::Quick),
            workers: Some(4),
            shards: Some(2),
            seed: Some(9),
            reset: true,
        });
        assert_eq!(round_trip_request(&full), full);
        let minimal = Request::Submit(Submission::default());
        assert_eq!(round_trip_request(&minimal), minimal);
        assert_eq!(round_trip_request(&Request::Shutdown), Request::Shutdown);
    }

    #[test]
    fn work_claims_round_trip_and_stay_distinct_from_submissions() {
        let unit = Submission {
            sweep_text: Some("kind = fig8\nseed = 7, 8\n".into()),
            only: Some(vec!["sweep/a".into(), "sweep/b".into()]),
            workers: Some(2),
            shards: Some(3),
            ..Submission::default()
        };
        let claim = Request::WorkClaim(unit.clone());
        assert_eq!(round_trip_request(&claim), claim);
        // The verb, not the header set, distinguishes a claim from a
        // submission — a worker must never mistake one for the other.
        assert_ne!(round_trip_request(&claim), Request::Submit(unit));
        let result = Response::WorkResult { pieces: "chipletqc-pieces/1\ncount = 0\n".into() };
        assert_eq!(round_trip_response(&result), result);
        let empty = Response::WorkResult { pieces: String::new() };
        assert_eq!(round_trip_response(&empty), empty);
    }

    #[test]
    fn hello_and_store_requests_round_trip_through_the_one_reader() {
        // The daemon reads every verb — submissions, the hello
        // preamble, and the store peer verbs — through the single
        // `read_request` entry point.
        use chipletqc_store::envelope::Encoding;
        use chipletqc_store::EntryKey;
        for request in [
            Request::Hello("a shared token".into()),
            Request::Store(StoreRequest::Get(EntryKey::new("ck|b400", "tally", "s/0-512"))),
            Request::Store(StoreRequest::Put {
                key: EntryKey::new("ck|b400", "kgd-bin", "10q"),
                encoding: Encoding::Binary,
                payload: vec![1, 2, 3],
            }),
            Request::Store(StoreRequest::List),
        ] {
            assert_eq!(round_trip_request(&request), request);
        }
    }

    #[test]
    fn responses_round_trip() {
        let report = Response::Report {
            batch: 3,
            timing: "2 scenario(s) on 4 worker(s)\n".into(),
            report: "{\n  \"schema\": 2\n}".into(),
        };
        assert_eq!(round_trip_response(&report), report);
        assert_eq!(round_trip_response(&Response::ShuttingDown), Response::ShuttingDown);
        let error = Response::Error("unknown kind `x9`".into());
        assert_eq!(round_trip_response(&error), error);
    }

    #[test]
    fn concurrency_frames_round_trip() {
        assert_eq!(round_trip_request(&Request::Cancel), Request::Cancel);
        for response in [
            Response::Progress(Progress::Queued { position: 1 }),
            Response::Progress(Progress::Queued { position: u64::MAX }),
            Response::Progress(Progress::Tasks { done: 0, total: 8 }),
            Response::Progress(Progress::Tasks { done: 8, total: 8 }),
            Response::Busy { inflight: 4, queued: 16 },
            Response::Busy { inflight: 1, queued: 0 },
            Response::Cancelled,
        ] {
            assert_eq!(round_trip_response(&response), response);
        }
        // `cancelled = true` and `shutdown = true` share the `ok` verb
        // but must never be mistaken for one another.
        assert_ne!(round_trip_response(&Response::Cancelled), Response::ShuttingDown);
    }

    #[test]
    fn status_frames_round_trip() {
        assert_eq!(round_trip_request(&Request::Status), Request::Status);
        for json in ["{\n  \"inflight\": 2\n}\n", "{}", ""] {
            let status = Response::Status { json: json.into() };
            assert_eq!(round_trip_response(&status), status);
        }
        // `status-bytes` shares the `ok` verb with the other payload
        // carriers; none may be mistaken for another.
        let status = Response::Status { json: "{}".into() };
        assert_ne!(round_trip_response(&status), Response::WorkResult { pieces: "{}".into() });
        assert_ne!(round_trip_response(&status), Response::ShuttingDown);
    }

    #[test]
    fn malformed_status_frames_are_errors_not_panics() {
        for frame in [
            "chipletqc/1 ok\nstatus-bytes = 99\n\n{}", // truncated payload
            "chipletqc/1 ok\nstatus-bytes = moose\n\n", // non-numeric length
            "chipletqc/1 ok\nstatus-bytes = 999999999999999999999\n\n", // absurd length
        ] {
            assert!(
                read_response(&mut io::BufReader::new(frame.as_bytes())).is_err(),
                "`{frame}` should not parse"
            );
        }
        // A bare status request parses, like `cancel` and `shutdown`.
        let status = read_request(&mut io::BufReader::new(&b"chipletqc/1 status\n\n"[..]));
        assert_eq!(status.unwrap(), Request::Status);
    }

    #[test]
    fn malformed_concurrency_frames_are_errors_not_panics() {
        for frame in [
            "chipletqc/1 progress\n\n",                       // no headers at all
            "chipletqc/1 progress\ndone = 3\n\n",             // missing total
            "chipletqc/1 progress\ntotal = 8\n\n",            // missing done
            "chipletqc/1 progress\nqueued = moose\n\n",       // non-numeric position
            "chipletqc/1 progress\ndone = -1\ntotal = 8\n\n", // negative count
            "chipletqc/1 busy\n\n",                           // no headers at all
            "chipletqc/1 busy\ninflight = 4\n\n",             // missing queued
            "chipletqc/1 busy\ninflight = x\nqueued = 0\n\n", // non-numeric
            "chipletqc/1 ok\ncancelled = maybe\n\n",          // not a report either
        ] {
            assert!(
                read_response(&mut io::BufReader::new(frame.as_bytes())).is_err(),
                "`{frame}` should not parse"
            );
        }
        // A bare cancel request parses; like `shutdown`, it carries no
        // payload, so it is safe to read from an unauthenticated-sized
        // buffer.
        let cancel = read_request(&mut io::BufReader::new(&b"chipletqc/1 cancel\n\n"[..]));
        assert_eq!(cancel.unwrap(), Request::Cancel);
    }

    #[test]
    fn zero_counts_are_rejected_at_the_frame_boundary() {
        for header in ["workers", "shards"] {
            let frame = format!("{VERSION} submit\n{header} = 0\n\n");
            let error = read_request(&mut io::BufReader::new(frame.as_bytes())).unwrap_err();
            assert!(error.to_string().contains("at least 1"), "{error}");
        }
    }

    #[test]
    fn malformed_frames_are_errors_not_panics() {
        for frame in [
            "",                                                            // EOF
            "chipletqc/0 submit\n\n",                                      // wrong version
            "chipletqc/1 dance\n\n",                                       // unknown verb
            "chipletqc/1 submit\nbogus line\n\n",                          // no key = value
            "chipletqc/1 submit\ncolor = red\n\n",                         // unknown header
            "chipletqc/1 submit\nreset = yes\n\n", // reset: true/false only
            "chipletqc/1 submit\nworkers = 0\n\n", // degenerate schedule
            "chipletqc/1 submit\nsweep-bytes = 99\n\n", // truncated payload
            "chipletqc/1 submit\nsweep-bytes = 999999999999999999999\n\n", // absurd length
        ] {
            assert!(
                read_request(&mut io::BufReader::new(frame.as_bytes())).is_err(),
                "`{frame}` should not parse"
            );
        }
        assert!(read_response(&mut io::BufReader::new(&b"chipletqc/1 ok\n\n"[..])).is_err());
    }

    #[test]
    fn oversized_frame_heads_are_rejected_not_buffered() {
        // A peer streaming bytes with no newline must hit the line
        // cap, not the daemon's memory.
        let no_newline = format!("{VERSION} submit\n{}", "x".repeat(wire::MAX_HEAD_LINE + 10));
        let error = read_request(&mut io::BufReader::new(no_newline.as_bytes())).unwrap_err();
        assert!(error.to_string().contains("cap"), "{error}");
        // Likewise endless header lines.
        let mut many = format!("{VERSION} submit\n");
        for i in 0..=wire::MAX_HEADERS {
            many.push_str(&format!("seed = {i}\n"));
        }
        many.push('\n');
        let error = read_request(&mut io::BufReader::new(many.as_bytes())).unwrap_err();
        assert!(error.to_string().contains("header lines"), "{error}");
    }
}
