//! The `chipletqc-engine` CLI: run the paper figure suite, a filtered
//! subset, or a design-space sweep as one parallel scenario batch —
//! one-shot, or against a long-lived service daemon.
//!
//! ```text
//! cargo run --release -p chipletqc-engine -- --workers 8 --quick
//! cargo run --release -p chipletqc-engine -- --sweep examples/sweeps/chiplet_grid.sweep
//! cargo run --release -p chipletqc-engine -- store stats --cache-dir /var/cache/chipletqc
//! cargo run --release -p chipletqc-engine -- serve --socket /tmp/chipletqc.sock
//! cargo run --release -p chipletqc-engine -- submit --socket /tmp/chipletqc.sock \
//!     --sweep examples/sweeps/chiplet_grid.sweep > report.json
//! ```
//!
//! Writes each figure's text artifact plus a deterministic
//! `run_report.json` under `--out` (default `target/figures`). The
//! JSON is bit-identical for any `--workers` and `--shards` values —
//! and, apart from the `fabrication`/`store` counter objects, for any
//! `--cache` state and for daemon-submitted runs of the same batch.
//! Banners, timings and progress go to stderr; stdout carries only
//! data (the report under `--no-files` or from `submit`, scenario
//! names under `--list`).

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use chipletqc::lab::CacheHub;
use chipletqc::report::TextTable;
use chipletqc_engine::mesh::{self, MeshConfig};
use chipletqc_engine::protocol::{parse_count, Progress, Request, Response, Submission};
use chipletqc_engine::report::{timing_summary, RunReport};
use chipletqc_engine::scenario::{ExperimentKind, Scale};
use chipletqc_engine::scheduler::Scheduler;
use chipletqc_engine::service::{self, Endpoint, Service, ServiceConfig};
use chipletqc_engine::suite::resolve_batch;
use chipletqc_engine::sweep::Sweep;
use chipletqc_math::rng::Seed;
use chipletqc_store::backend::Backend as _;
use chipletqc_store::remote::RemoteBackend;
use chipletqc_store::{CacheMode, Store};

const USAGE: &str = "\
chipletqc-engine — parallel paper-figure and design-space scenario batches

USAGE:
  chipletqc-engine [OPTIONS]
  chipletqc-engine store stats --cache-dir DIR
                               [--store-peer HOST:PORT --token-file F]
  chipletqc-engine store gc --cache-dir DIR --max-bytes N
  chipletqc-engine store prefetch --cache-dir DIR --store-peer HOST:PORT
                                  --token-file F
  chipletqc-engine serve (--socket PATH | --listen HOST:PORT --token-file F | both)
                         [--cache-dir DIR] [--cache MODE]
                         [--store-peer HOST:PORT] [--store-push] [--prefetch]
                         [--workers N] [--shards N] [--mesh-worker]
                         [--max-inflight N] [--queue-depth N] [--trace-out FILE]
  chipletqc-engine submit (--socket PATH | --connect HOST:PORT --token-file F)
                          [BATCH OPTIONS] [--reset]
  chipletqc-engine submit --mesh W1:P,W2:P[,..] --token-file F --sweep FILE
                          [BATCH OPTIONS] [--mesh-deadline SECS] [--mesh-units N]
  chipletqc-engine submit (--socket PATH | --connect HOST:PORT --token-file F) --shutdown
  chipletqc-engine status (--socket PATH | --connect HOST:PORT --token-file F)
  chipletqc-engine trace summarize FILE
  chipletqc-engine check [--format text|json] [--root DIR]

OPTIONS:
  --workers N       the batch's thread count: N pool threads, and no
                    others (default: hardware threads)
  --shards N        split each Fig. 8/9/10 or output-gain scenario into
                    up to N tasks so one scenario can use more than one
                    of those threads (default: 1; never changes results)
  --quick           reduced-scale configurations (default: paper scale)
  --sweep FILE      expand a sweep description file into the batch
                    (replaces the paper suite; see README \"Sweeps\")
  --sweep-text SPEC inline sweep description; ';' separates lines
  --only A,B,..     run only the named scenarios (see --list)
  --seed S          override every scenario's root seed
  --cache-dir DIR   persistent result store: repeated invocations skip
                    fabrication entirely (see README \"Result store\")
  --cache MODE      readwrite | read | write | off (default: readwrite;
                    all but `off` require --cache-dir)
  --store-peer H:P  read-through network tier under the store: local
                    misses are served by the daemon at HOST:PORT and
                    persisted locally (needs --cache-dir + --token-file;
                    see README \"Remote service mode\")
  --store-push      push replication: locally fabricated results are
                    also written behind to the store peer, so the
                    peer's store converges without re-fabrication
                    (needs --store-peer)
  --token-file F    file holding the shared authentication token
                    (trimmed; a shared secret for trusted networks)
  --out DIR         artifact directory (default: target/figures)
  --no-files        skip writing artifacts; print the report to stdout
  --trace-out FILE  append span events (one JSON object per line) to
                    FILE as they complete; summarize with
                    `chipletqc-engine trace summarize FILE`
  --list            list the batch's scenario names and exit
  --help            this message

STORE SUBCOMMANDS:
  store stats       scan the store directory; report entries/bytes by kind
                    (with --store-peer + --token-file, also list the
                    peer and report the exchange's transport counters)
  store gc          delete oldest entries until the directory holds at
                    most --max-bytes of entries (a store is a cache;
                    deleting entries only costs recomputation)
  store prefetch    pull every entry the peer lists into the local
                    store ahead of a run, so cold workers don't pay
                    read-through misses mid-sweep

SERVICE MODE (see README \"Service mode\" and \"Remote service mode\"):
  serve             long-lived daemon: one warm cache hub for its whole
                    lifetime, so repeated submissions skip fabrication
                    without touching disk. --socket serves local Unix
                    clients; --listen HOST:PORT serves remote clients
                    and store peers (requires --token-file). SIGTERM or
                    `submit --shutdown` drains in-flight batches first.
                    Batches run concurrently against the shared warm
                    hub: --max-inflight N caps concurrent batches
                    (default 4), --queue-depth N bounds the admission
                    queue behind them (default 16; 0 = reject when
                    full). A submission past both bounds is refused
                    with a `busy` reply instead of stalling.
                    --mesh-worker additionally accepts mesh work claims
                    (needs --listen); --prefetch warms the store from
                    its peer before serving
  submit            send one batch (--sweep/--sweep-text/--only/--quick,
                    --workers/--shards/--seed as above) to a daemon at
                    --socket PATH or --connect HOST:PORT (+--token-file);
                    timing lines go to stderr, the deterministic report
                    JSON to stdout. While waiting, the daemon streams
                    queue-position and task-progress frames (printed to
                    stderr); Ctrl-C or disconnect cancels the
                    submission server-side. --reset drops the daemon's
                    warm in-memory caches first (it waits for other
                    in-flight batches); --shutdown stops the daemon

DISTRIBUTED SWEEPS (see README \"Distributed sweeps\"):
  submit --mesh W1:P,W2:P[,..]   scatter a sweep across mesh-worker
                    daemons and merge a report byte-identical to a
                    local run (modulo counter objects). Requires
                    --token-file and a sweep; --mesh-workers-file FILE
                    reads one address per line instead.
                    --mesh-deadline SECS bounds each work-unit claim
                    (default 600); --mesh-units N overrides the carve

OBSERVABILITY (see README \"Observability\"):
  status            print a live daemon's JSON status snapshot —
                    inflight/queued gauges, request counters, and
                    latency histogram percentiles — served off the
                    batch path, so it answers even under full load
  trace summarize   aggregate a --trace-out file: per-span counts,
                    total/mean/max durations

STATIC ANALYSIS (see README \"Static analysis\"):
  check             run the workspace invariant checker over
                    crates/*/src: frame-registry, nested-lock,
                    lock-order, axis-exhaustiveness. Deny-by-default,
                    with no escape — exits non-zero on any finding.
                    (Hash collections, clock reads and daemon-path
                    panics are `cargo clippy`'s.) --format json emits
                    machine-readable findings; --root DIR overrides
                    workspace-root discovery
";

#[derive(Debug)]
struct Options {
    workers: Option<usize>,
    shards: usize,
    scale: Scale,
    sweep: Option<Sweep>,
    only: Option<Vec<String>>,
    seed: Option<u64>,
    cache: CacheFlags,
    token_file: Option<String>,
    out: PathBuf,
    write_files: bool,
    trace_out: Option<PathBuf>,
    list: bool,
}

/// The `--cache-dir`/`--cache`/`--store-peer` flag set, shared by the
/// one-shot CLI and `serve` so both parse and validate cache wiring
/// identically. Construct with [`CacheFlags::new`] (read-write
/// default) — there is deliberately no `Default`, whose all-`None`
/// value would mean `--cache off`.
#[derive(Debug)]
struct CacheFlags {
    dir: Option<PathBuf>,
    /// `None` = `--cache off`; defaults to read-write.
    mode: Option<CacheMode>,
    /// A peer daemon's `HOST:PORT`, attached as a read-through tier.
    peer: Option<String>,
    /// `--store-push`: replicate locally fabricated results to the
    /// peer behind the write.
    push: bool,
}

impl CacheFlags {
    fn new() -> CacheFlags {
        CacheFlags { dir: None, mode: Some(CacheMode::ReadWrite), peer: None, push: false }
    }

    fn set_dir(&mut self, value: String) {
        self.dir = Some(PathBuf::from(value));
    }

    fn set_mode(&mut self, value: &str) -> Result<(), String> {
        self.mode =
            match value {
                "off" => None,
                mode => Some(CacheMode::parse(mode).ok_or(format!(
                    "bad --cache {mode} (want readwrite, read, write, or off)"
                ))?),
            };
        Ok(())
    }

    /// Rejects the contradictory combinations: a read/write mode with
    /// nowhere to read or write, `off` alongside a directory that
    /// would otherwise be silently ignored, and a peer tier with no
    /// local tier to read through into.
    fn validate(&self) -> Result<(), String> {
        if self.dir.is_none() && matches!(self.mode, Some(CacheMode::Read | CacheMode::Write)) {
            return Err("--cache needs --cache-dir (only `--cache off` works without)".into());
        }
        if self.mode.is_none() && self.dir.is_some() {
            return Err(
                "--cache off conflicts with --cache-dir (drop one: `off` means no store)"
                    .into(),
            );
        }
        if self.peer.is_some() && (self.dir.is_none() || self.mode.is_none()) {
            return Err("--store-peer needs a local store tier to read through into \
                        (give --cache-dir, and not --cache off)"
                .into());
        }
        if self.peer.is_some() && self.mode.is_some_and(|mode| !mode.reads()) {
            return Err("--store-peer is dead under --cache write (the peer is a read \
                        tier, and write mode never reads)"
                .into());
        }
        if self.push && self.peer.is_none() {
            return Err("--store-push needs --store-peer (there is nowhere to push to)".into());
        }
        if self.push && self.mode.is_some_and(|mode| !mode.writes()) {
            return Err("--store-push is dead under --cache read (push rides on local \
                        writes, and read mode never writes)"
                .into());
        }
        Ok(())
    }

    /// Opens the store when both a directory and a mode are
    /// configured, attaching the peer tier when one is named,
    /// announcing it all on stderr. `token` is required iff a peer is
    /// configured (peers listen on TCP, which always authenticates).
    fn open_store(&self, token: Option<&str>) -> Result<Option<Store>, String> {
        match (&self.dir, self.mode) {
            (Some(dir), Some(mode)) => {
                let mut store = Store::open(dir, mode)
                    .map_err(|e| format!("open result store {}: {e}", dir.display()))?;
                if let Some(peer) = &self.peer {
                    let token = token
                        .ok_or("--store-peer needs --token-file (peer daemons authenticate)")?;
                    store = store
                        .with_peer(std::sync::Arc::new(RemoteBackend::new(
                            peer.clone(),
                            Some(token.to_string()),
                        )))
                        .with_push(self.push);
                    eprintln!(
                        "result store: {} ({}) {} peer {peer}",
                        dir.display(),
                        mode.name(),
                        if self.push { "<->" } else { "<-" }
                    );
                } else {
                    eprintln!("result store: {} ({})", dir.display(), mode.name());
                }
                Ok(Some(store))
            }
            _ => Ok(None),
        }
    }
}

/// Reads a shared-token file: the first non-empty line,
/// whitespace-trimmed (later lines are free for comments or key ids).
/// An empty file is rejected — an empty token would make the
/// handshake decorative — and so is a token over the wire cap:
/// serving with one would lock out every client (the daemon-side
/// `hello` parser refuses oversized tokens before comparing), with
/// the failure misattributed to the clients.
fn read_token_file(path: &str) -> Result<String, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    match raw.lines().map(str::trim).find(|line| !line.is_empty()) {
        Some(token) if token.len() > chipletqc_store::remote::MAX_TOKEN => Err(format!(
            "{path}: token is {} bytes; the protocol caps tokens at {} (generate a \
             shorter one)",
            token.len(),
            chipletqc_store::remote::MAX_TOKEN
        )),
        Some(token) => Ok(token.to_string()),
        None => Err(format!("{path}: token file is empty")),
    }
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut options = Options {
        workers: None,
        shards: 1,
        scale: Scale::Paper,
        sweep: None,
        only: None,
        seed: None,
        cache: CacheFlags::new(),
        token_file: None,
        out: PathBuf::from("target/figures"),
        write_files: true,
        trace_out: None,
        list: false,
    };
    // `--sweep` and `--sweep-text` both define the whole batch; a
    // command line giving both is contradictory, so reject it instead
    // of letting the later flag silently win.
    let mut sweep_flag: Option<&'static str> = None;
    let mut set_sweep = |options: &mut Options, flag: &'static str, sweep: Sweep| {
        match sweep_flag.replace(flag) {
            None => {
                options.sweep = Some(sweep);
                Ok(())
            }
            Some(earlier) => Err(format!(
                "{flag} conflicts with {earlier} (give exactly one batch description)"
            )),
        }
    };
    let mut args = args;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workers" => {
                let value = args.next().ok_or("--workers needs a value")?;
                options.workers = Some(parse_count("--workers", &value)?);
            }
            "--shards" => {
                let value = args.next().ok_or("--shards needs a value")?;
                options.shards = parse_count("--shards", &value)?;
            }
            "--quick" => options.scale = Scale::Quick,
            "--paper" => options.scale = Scale::Paper,
            "--sweep" => {
                let path = args.next().ok_or("--sweep needs a file path")?;
                let text = std::fs::read_to_string(&path)
                    .map_err(|error| format!("read {path}: {error}"))?;
                let sweep = Sweep::parse(&text).map_err(|error| format!("{path}: {error}"))?;
                set_sweep(&mut options, "--sweep", sweep)?;
            }
            "--sweep-text" => {
                let spec = args.next().ok_or("--sweep-text needs a value")?;
                let sweep = Sweep::parse(&spec.replace(';', "\n"))
                    .map_err(|error| format!("--sweep-text: {error}"))?;
                set_sweep(&mut options, "--sweep-text", sweep)?;
            }
            "--only" => {
                let value = args.next().ok_or("--only needs a value")?;
                options.only = Some(value.split(',').map(|s| s.trim().to_string()).collect());
            }
            "--seed" => {
                let value = args.next().ok_or("--seed needs a value")?;
                options.seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?);
            }
            "--cache-dir" => {
                options.cache.set_dir(args.next().ok_or("--cache-dir needs a value")?);
            }
            "--cache" => {
                options.cache.set_mode(&args.next().ok_or("--cache needs a value")?)?;
            }
            "--store-peer" => {
                options.cache.peer = Some(args.next().ok_or("--store-peer needs a value")?);
            }
            "--store-push" => options.cache.push = true,
            "--token-file" => {
                options.token_file = Some(args.next().ok_or("--token-file needs a value")?);
            }
            "--out" => {
                options.out = PathBuf::from(args.next().ok_or("--out needs a value")?);
            }
            "--no-files" => options.write_files = false,
            "--trace-out" => {
                options.trace_out =
                    Some(PathBuf::from(args.next().ok_or("--trace-out needs a value")?));
            }
            "--list" => options.list = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other} (try --help)")),
        }
    }
    options.cache.validate()?;
    // A token with nothing to authenticate to would be read and
    // silently dropped; reject it like every other dead flag combo.
    if options.token_file.is_some() && options.cache.peer.is_none() {
        return Err("--token-file is only used with --store-peer here (give both, \
                    or drop --token-file)"
            .into());
    }
    Ok(options)
}

/// One human-readable line of peer transport counters, shared by
/// every CLI surface that diagnoses the peer tier.
fn peer_stats_line(stats: &chipletqc_store::remote::PeerStats) -> String {
    format!(
        "store peer: {} hit(s), {} miss(es), {} error(s), {} breaker trip(s), \
         {} dial(s), {} reused, {} push(es)",
        stats.hits,
        stats.misses,
        stats.errors,
        stats.trips,
        stats.dials,
        stats.reused,
        stats.pushes
    )
}

/// The `store stats` / `store gc` / `store prefetch` subcommands:
/// offline inspection, garbage collection, and peer warm-up of a
/// result-store directory.
fn store_cli(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    let action = args.next().ok_or("store: need an action (stats | gc | prefetch)")?;
    let mut cache_dir: Option<PathBuf> = None;
    let mut max_bytes: Option<u64> = None;
    let mut peer: Option<String> = None;
    let mut token_file: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--cache-dir" => {
                cache_dir =
                    Some(PathBuf::from(args.next().ok_or("--cache-dir needs a value")?));
            }
            "--max-bytes" => {
                let value = args.next().ok_or("--max-bytes needs a value")?;
                max_bytes =
                    Some(value.parse().map_err(|_| format!("bad --max-bytes {value}"))?);
            }
            "--store-peer" => {
                peer = Some(args.next().ok_or("--store-peer needs a value")?);
            }
            "--token-file" => {
                token_file = Some(args.next().ok_or("--token-file needs a value")?);
            }
            other => return Err(format!("store {action}: unknown argument {other}")),
        }
    }
    // The same dead-flag hygiene as everywhere else: a peer without a
    // token cannot authenticate, and a token without a peer gates
    // nothing.
    if peer.is_some() != token_file.is_some() {
        return Err(format!(
            "store {action}: --store-peer and --token-file go together (peer daemons \
             authenticate)"
        ));
    }
    let backend = match (&peer, &token_file) {
        (Some(addr), Some(path)) => {
            Some(RemoteBackend::new(addr.clone(), Some(read_token_file(path)?)))
        }
        _ => None,
    };
    let dir = cache_dir.ok_or("store: --cache-dir is required")?;
    // Inspection/maintenance must not conjure a store out of a typo'd
    // path (Store::open create_dir_all's its root for run-time use) —
    // but prefetch exists precisely to populate a fresh replica, so
    // it creates the directory like a run would.
    if action != "prefetch" && !dir.is_dir() {
        return Err(format!("store: no result store at {} (not a directory)", dir.display()));
    }
    let store =
        Store::open(&dir, CacheMode::ReadWrite).map_err(|e| format!("open {dir:?}: {e}"))?;
    match action.as_str() {
        "stats" => {
            let stats = store.disk_stats().map_err(|e| format!("scan {dir:?}: {e}"))?;
            println!("result store at {}", store.root().display());
            let mut table = TextTable::new(["kind", "entries", "bytes"]);
            for (kind, entries, bytes) in &stats.kinds {
                table.row([kind.clone(), entries.to_string(), bytes.to_string()]);
            }
            table.row(["total".into(), stats.entries.to_string(), stats.bytes.to_string()]);
            print!("{table}");
            if stats.corrupt > 0 {
                println!(
                    "{} unreadable file(s) (treated as misses; gc reaps them)",
                    stats.corrupt
                );
            }
            if let Some(backend) = &backend {
                let listed =
                    backend.list().map_err(|e| format!("list peer {}: {e}", backend.addr()))?;
                println!("peer {} lists {} entr(ies)", backend.addr(), listed.len());
                println!("{}", peer_stats_line(&backend.stats()));
            }
            Ok(())
        }
        "gc" => {
            if backend.is_some() {
                return Err("store gc: --store-peer makes no sense here (gc is local; the \
                            peer manages its own store)"
                    .into());
            }
            let budget = max_bytes.ok_or("store gc: --max-bytes is required")?;
            let report = store.gc(budget).map_err(|e| format!("gc {dir:?}: {e}"))?;
            println!(
                "store gc: {} of {} entries removed, {} of {} bytes reclaimed (budget {})",
                report.removed_entries,
                report.scanned_entries,
                report.removed_bytes,
                report.scanned_bytes,
                budget
            );
            Ok(())
        }
        "prefetch" => {
            let backend =
                backend.ok_or("store prefetch: --store-peer and --token-file are required")?;
            let addr = backend.addr().to_string();
            let store = store.with_peer(std::sync::Arc::new(backend));
            let report =
                store.prefetch_from_peer().map_err(|e| format!("prefetch from {addr}: {e}"))?;
            println!(
                "store prefetch: {} listed by {addr}; {} fetched, {} already present, \
                 {} failed",
                report.listed, report.fetched, report.present, report.failed
            );
            if let Some(stats) = store.peer_stats() {
                println!("{}", peer_stats_line(&stats));
            }
            Ok(())
        }
        other => Err(format!("store: unknown action {other} (want stats | gc | prefetch)")),
    }
}

/// SIGTERM/SIGINT → drain-and-exit for `serve`. The handler sets a
/// flag and writes one byte to a self-pipe, both async-signal-safe. A
/// watcher thread blocked on the pipe then runs the wake-up — a
/// connection to the daemon, which re-checks the flag on every
/// arrival — and the daemon finishes every admitted batch before
/// exiting, so a `kill` is as graceful as `submit --shutdown`.
mod shutdown_signal {
    use std::io::Read;
    use std::os::fd::IntoRawFd;
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};

    static REQUESTED: AtomicBool = AtomicBool::new(false);
    /// The self-pipe's write end.
    static PIPE: AtomicI32 = AtomicI32::new(-1);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        /// The C `signal(2)` and `write(2)` entry points std already
        /// links.
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    extern "C" fn handle(_signum: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
        // SAFETY: write(2) is async-signal-safe; should it fail, the
        // flag is set all the same.
        unsafe { write(PIPE.load(Ordering::SeqCst), &1, 1) };
    }

    /// Installs the handlers; `wake` runs on a watcher thread once the
    /// first signal arrives.
    pub fn install(wake: impl FnOnce() + Send + 'static) -> std::io::Result<()> {
        let (pipe_in, mut pipe_out) = UnixStream::pair()?;
        PIPE.store(pipe_in.into_raw_fd(), Ordering::SeqCst);
        // Detached: absent a signal it blocks until the process exits.
        std::thread::spawn(move || {
            if pipe_out.read_exact(&mut [0]).is_ok() {
                wake();
            }
        });
        // SAFETY: replaces the SIGTERM/SIGINT dispositions with a
        // handler that does one atomic store and one write(2).
        unsafe {
            signal(SIGTERM, handle);
            signal(SIGINT, handle);
        }
        Ok(())
    }

    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

/// The `serve` subcommand: bind the configured listeners (Unix socket
/// and/or authenticated TCP), hold one warm hub — optionally
/// store-backed, optionally peered — and run batches until shutdown.
fn serve_cli(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    let mut socket: Option<PathBuf> = None;
    let mut listen: Option<String> = None;
    let mut token_file: Option<String> = None;
    let mut cache = CacheFlags::new();
    let mut workers: Option<usize> = None;
    let mut shards: usize = 1;
    let mut mesh_worker = false;
    let mut prefetch = false;
    let mut max_inflight = service::DEFAULT_MAX_INFLIGHT;
    let mut queue_depth = service::DEFAULT_QUEUE_DEPTH;
    let mut trace_out: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--socket" => {
                socket = Some(PathBuf::from(args.next().ok_or("--socket needs a value")?));
            }
            "--listen" => {
                listen = Some(args.next().ok_or("--listen needs a HOST:PORT value")?);
            }
            "--token-file" => {
                token_file = Some(args.next().ok_or("--token-file needs a value")?);
            }
            "--store-peer" => {
                cache.peer = Some(args.next().ok_or("--store-peer needs a value")?);
            }
            "--store-push" => cache.push = true,
            "--cache-dir" => {
                cache.set_dir(args.next().ok_or("--cache-dir needs a value")?);
            }
            "--cache" => {
                cache.set_mode(&args.next().ok_or("--cache needs a value")?)?;
            }
            "--workers" => {
                let value = args.next().ok_or("--workers needs a value")?;
                workers = Some(parse_count("--workers", &value)?);
            }
            "--shards" => {
                let value = args.next().ok_or("--shards needs a value")?;
                shards = parse_count("--shards", &value)?;
            }
            "--mesh-worker" => mesh_worker = true,
            "--prefetch" => prefetch = true,
            "--max-inflight" => {
                let value = args.next().ok_or("--max-inflight needs a value")?;
                max_inflight = parse_count("--max-inflight", &value)?;
            }
            "--queue-depth" => {
                let value = args.next().ok_or("--queue-depth needs a value")?;
                // 0 is meaningful here — "no queue, reject when full"
                // — so this flag takes plain usize, not parse_count.
                queue_depth = value
                    .parse::<usize>()
                    .map_err(|_| format!("bad --queue-depth {value} (want an integer >= 0)"))?;
            }
            "--trace-out" => {
                trace_out =
                    Some(PathBuf::from(args.next().ok_or("--trace-out needs a value")?));
            }
            other => return Err(format!("serve: unknown argument {other} (try --help)")),
        }
    }
    if socket.is_none() && listen.is_none() {
        return Err("serve: give --socket PATH, --listen HOST:PORT, or both".into());
    }
    if listen.is_some() && token_file.is_none() {
        return Err("serve: --listen requires --token-file (TCP clients authenticate \
                    with the shared token)"
            .into());
    }
    // A mesh worker is claimed over TCP by a remote coordinator; a
    // Unix-only mesh worker would advertise a capability nothing can
    // reach.
    if mesh_worker && listen.is_none() {
        return Err("serve: --mesh-worker requires --listen (coordinators claim work \
                    over TCP)"
            .into());
    }
    if prefetch && cache.peer.is_none() {
        return Err("serve: --prefetch needs --store-peer (there is no one to prefetch \
                    from)"
            .into());
    }
    // A token with neither a TCP listener nor a store peer gates
    // nothing — Unix clients are never required to present one — so
    // accepting it would be the silent-dead-flag class this CLI
    // rejects everywhere else.
    if token_file.is_some() && listen.is_none() && cache.peer.is_none() {
        return Err("serve: --token-file is only used with --listen or --store-peer \
                    (Unix clients are trusted via filesystem permissions)"
            .into());
    }
    cache.validate()?;
    if let Some(path) = &trace_out {
        chipletqc_obs::trace_to(path)
            .map_err(|e| format!("open trace file {}: {e}", path.display()))?;
    }
    let token = token_file.as_deref().map(read_token_file).transpose()?;
    let store = cache.open_store(token.as_deref())?;
    if prefetch {
        // Warm up before binding: a mesh worker that prefetches while
        // already claimable would pay the read-through misses this
        // flag exists to avoid.
        let store = store.as_ref().expect("--prefetch implies a peered store");
        let report = store.prefetch_from_peer().map_err(|e| format!("prefetch: {e}"))?;
        println!(
            "store prefetch: {} listed; {} fetched, {} already present, {} failed",
            report.listed, report.fetched, report.present, report.failed
        );
    }
    let config = ServiceConfig {
        socket: socket.clone(),
        listen,
        token,
        default_workers: workers,
        default_shards: shards,
        mesh_worker,
        max_inflight,
        queue_depth,
    };
    let service = Service::bind(config, store).map_err(|e| format!("bind: {e}"))?;
    // Any connection wakes the daemon; a wildcard bind address, as a
    // connect target, is this host.
    let (wake_socket, wake_addr) = (socket.clone(), service.tcp_addr());
    shutdown_signal::install(move || {
        let woke = match (wake_socket, wake_addr) {
            (Some(socket), _) => std::os::unix::net::UnixStream::connect(socket).map(drop),
            (None, addr) => addr.map_or(Ok(()), |a| std::net::TcpStream::connect(a).map(drop)),
        };
        if let Err(error) = woke {
            eprintln!("chipletqc-engine serve: cannot wake the daemon to stop: {error}");
        }
    })
    .map_err(|e| format!("serve: signal pipe: {e}"))?;
    if let Some(socket) = &socket {
        println!("chipletqc-engine serve :: listening on {}", socket.display());
        println!(
            "stop with `chipletqc-engine submit --socket {} --shutdown`",
            socket.display()
        );
    }
    if let Some(addr) = service.tcp_addr() {
        println!(
            "chipletqc-engine serve :: listening on tcp {addr} (token required){}",
            if mesh_worker { " as a mesh worker" } else { "" }
        );
    }
    let summary = service.run(shutdown_signal::requested).map_err(|e| format!("serve: {e}"))?;
    println!(
        "chipletqc-engine serve :: drained; {} batch(es), {} work unit(s), {} scenario(s), \
         {} rejected, {} cancelled, {} store peer request(s), {} dropped repl(ies)",
        summary.batches,
        summary.work_units,
        summary.scenarios,
        summary.rejected,
        summary.cancelled,
        summary.store_requests,
        summary.dropped_replies
    );
    chipletqc_obs::flush_trace();
    Ok(())
}

/// The `submit` subcommand: send one batch (or a shutdown request) to
/// a running daemon. Timing lines go to stderr; the deterministic
/// report JSON is the only stdout output, so `submit ... > report.json`
/// captures exactly what a one-shot `--out` run would have written.
///
/// Every stderr line — queue position, task progress, timing — is
/// written through one locked writer, so lines from the progress
/// stream can never interleave mid-line with the terminal summary.
fn submit_cli(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    let stderr = std::io::stderr();
    let err = std::sync::Mutex::new(stderr.lock());
    let mut socket: Option<PathBuf> = None;
    let mut connect: Option<String> = None;
    let mut token_file: Option<String> = None;
    let mut submission = Submission::default();
    let mut shutdown = false;
    let mut mesh: Option<Vec<String>> = None;
    let mut mesh_flag: Option<&'static str> = None;
    let mut mesh_deadline: Option<u64> = None;
    let mut mesh_units: Option<usize> = None;
    let mut sweep_flag: Option<&'static str> = None;
    let mut set_sweep =
        |submission: &mut Submission, flag: &'static str, text: String| match sweep_flag
            .replace(flag)
        {
            None => {
                // Parse locally for an early, well-located error; the
                // daemon re-parses authoritatively.
                Sweep::parse(&text).map_err(|error| format!("{flag}: {error}"))?;
                submission.sweep_text = Some(text);
                Ok(())
            }
            Some(earlier) => Err(format!(
                "{flag} conflicts with {earlier} (give exactly one batch description)"
            )),
        };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--socket" => {
                socket = Some(PathBuf::from(args.next().ok_or("--socket needs a value")?));
            }
            "--connect" => {
                connect = Some(args.next().ok_or("--connect needs a HOST:PORT value")?);
            }
            "--token-file" => {
                token_file = Some(args.next().ok_or("--token-file needs a value")?);
            }
            "--sweep" => {
                let path = args.next().ok_or("--sweep needs a file path")?;
                let text = std::fs::read_to_string(&path)
                    .map_err(|error| format!("read {path}: {error}"))?;
                set_sweep(&mut submission, "--sweep", text)?;
            }
            "--sweep-text" => {
                let spec = args.next().ok_or("--sweep-text needs a value")?;
                set_sweep(&mut submission, "--sweep-text", spec.replace(';', "\n"))?;
            }
            "--only" => {
                let value = args.next().ok_or("--only needs a value")?;
                submission.only =
                    Some(value.split(',').map(|s| s.trim().to_string()).collect());
            }
            "--quick" => submission.scale = Some(Scale::Quick),
            "--paper" => submission.scale = Some(Scale::Paper),
            "--workers" => {
                let value = args.next().ok_or("--workers needs a value")?;
                submission.workers = Some(parse_count("--workers", &value)?);
            }
            "--shards" => {
                let value = args.next().ok_or("--shards needs a value")?;
                submission.shards = Some(parse_count("--shards", &value)?);
            }
            "--seed" => {
                let value = args.next().ok_or("--seed needs a value")?;
                submission.seed =
                    Some(value.parse().map_err(|_| format!("bad --seed {value}"))?);
            }
            "--reset" => submission.reset = true,
            "--shutdown" => shutdown = true,
            "--mesh" => {
                let value = args.next().ok_or("--mesh needs a worker address list")?;
                if let Some(earlier) = mesh_flag.replace("--mesh") {
                    return Err(format!(
                        "--mesh conflicts with {earlier} (give exactly one worker list)"
                    ));
                }
                mesh = Some(value.split(',').map(|s| s.trim().to_string()).collect());
            }
            "--mesh-workers-file" => {
                let path = args.next().ok_or("--mesh-workers-file needs a file path")?;
                if let Some(earlier) = mesh_flag.replace("--mesh-workers-file") {
                    return Err(format!(
                        "--mesh-workers-file conflicts with {earlier} (give exactly one \
                         worker list)"
                    ));
                }
                let text = std::fs::read_to_string(&path)
                    .map_err(|error| format!("read {path}: {error}"))?;
                // One address per line; blank lines and '#' comments
                // keep the file human-maintainable.
                let workers: Vec<String> = text
                    .lines()
                    .map(str::trim)
                    .filter(|line| !line.is_empty() && !line.starts_with('#'))
                    .map(str::to_string)
                    .collect();
                if workers.is_empty() {
                    return Err(format!(
                        "{path}: no worker addresses (one HOST:PORT per line)"
                    ));
                }
                mesh = Some(workers);
            }
            "--mesh-deadline" => {
                let value = args.next().ok_or("--mesh-deadline needs a seconds value")?;
                mesh_deadline =
                    Some(
                        value.parse::<u64>().ok().filter(|&secs| secs > 0).ok_or(format!(
                            "bad --mesh-deadline {value} (want seconds >= 1)"
                        ))?,
                    );
            }
            "--mesh-units" => {
                let value = args.next().ok_or("--mesh-units needs a value")?;
                mesh_units = Some(parse_count("--mesh-units", &value)?);
            }
            other => return Err(format!("submit: unknown argument {other} (try --help)")),
        }
    }
    if mesh.is_none() && (mesh_deadline.is_some() || mesh_units.is_some()) {
        return Err("--mesh-deadline/--mesh-units are only used with --mesh or \
                    --mesh-workers-file"
            .into());
    }
    if let Some(workers) = mesh {
        // The coordinator runs in this process: no daemon endpoint, no
        // shutdown/reset semantics to forward.
        if socket.is_some() || connect.is_some() {
            return Err("--mesh conflicts with --socket/--connect (the coordinator runs \
                        in-process and dials the workers itself)"
                .into());
        }
        if shutdown || submission.reset {
            return Err("--mesh conflicts with --shutdown/--reset (shut workers down \
                        individually via submit --connect)"
                .into());
        }
        if workers.iter().any(String::is_empty) {
            return Err("--mesh: empty worker address in the list".into());
        }
        let token_file = token_file
            .as_deref()
            .ok_or("submit --mesh requires --token-file (mesh workers authenticate)")?;
        let mut config = MeshConfig::new(workers, read_token_file(token_file)?);
        if let Some(secs) = mesh_deadline {
            config.deadline = std::time::Duration::from_secs(secs);
        }
        config.units = mesh_units;
        let run = mesh::run_mesh(&submission, &config)?;
        let _ = write!(err.lock().expect("stderr writer poisoned"), "{}", run.timing);
        print!("{}", run.report.to_json());
        return Ok(());
    }
    let endpoint = match (socket, connect) {
        (Some(_), Some(_)) => {
            return Err("submit: --socket conflicts with --connect (give exactly one \
                        daemon address)"
                .into())
        }
        (Some(socket), None) => {
            // A token alongside --socket would be read and silently
            // dropped (Unix clients never authenticate) — the same
            // silent-winner bug class as --sweep + --sweep-text.
            if token_file.is_some() {
                return Err("submit: --token-file is only used with --connect (Unix \
                            sockets are trusted via filesystem permissions)"
                    .into());
            }
            Endpoint::Unix(socket)
        }
        (None, Some(addr)) => {
            let token_file = token_file
                .as_deref()
                .ok_or("submit: --connect requires --token-file (TCP daemons authenticate)")?;
            Endpoint::Tcp { addr, token: read_token_file(token_file)? }
        }
        (None, None) => return Err("submit: give --socket PATH or --connect HOST:PORT".into()),
    };
    // `--shutdown` is a request of its own; batch flags alongside it
    // would be silently discarded, so reject the combination (the
    // same silent-winner bug class as --sweep + --sweep-text).
    if shutdown && submission != Submission::default() {
        return Err("--shutdown conflicts with batch options (send the batch first, \
                    then shut down with a bare `submit --shutdown`)"
            .into());
    }
    let request = if shutdown { Request::Shutdown } else { Request::Submit(submission) };
    // Progress frames are live status, not part of the deterministic
    // report: they go to stderr as they arrive, through the shared
    // locked writer.
    let response = service::request_endpoint_observed(&endpoint, &request, |progress| {
        let mut err = err.lock().expect("stderr writer poisoned");
        let _ = match progress {
            Progress::Queued { position } => {
                writeln!(err, "queued behind {position} submission(s); waiting for a slot")
            }
            Progress::Tasks { done, total } => {
                writeln!(err, "progress: {done}/{total} task(s)")
            }
        };
    })
    .map_err(|e| e.to_string())?;
    let described = match &endpoint {
        Endpoint::Unix(path) => path.display().to_string(),
        Endpoint::Tcp { addr, .. } => addr.clone(),
    };
    match response {
        Response::ShuttingDown => {
            let _ = writeln!(
                err.lock().expect("stderr writer poisoned"),
                "daemon at {described} is shutting down"
            );
            Ok(())
        }
        Response::Report { batch, timing, report } => {
            {
                let mut err = err.lock().expect("stderr writer poisoned");
                let _ = write!(err, "{timing}");
                let _ = writeln!(err, "batch {batch} done.");
            }
            print!("{report}");
            Ok(())
        }
        Response::WorkResult { .. } => {
            Err("daemon answered a plain submission with a mesh work result (protocol \
             confusion — mismatched versions?)"
                .into())
        }
        Response::Busy { inflight, queued } => Err(format!(
            "daemon at {described} is busy ({inflight} in flight, {queued} queued; its \
             admission queue is full — retry later, or raise its --queue-depth)"
        )),
        Response::Cancelled => {
            // `submit` never sends a cancel; a daemon saying so is a
            // protocol-level surprise worth a hard error.
            Err(format!("daemon at {described} reported the submission cancelled"))
        }
        Response::Status { .. } => {
            Err("daemon answered a submission with a status snapshot (protocol \
             confusion — mismatched versions?)"
                .into())
        }
        Response::Progress(_) => {
            unreachable!("request_endpoint_observed only returns terminal frames")
        }
        Response::Error(message) => Err(format!("daemon rejected the submission: {message}")),
    }
}

/// The `status` subcommand: ask a running daemon for its live JSON
/// status snapshot. Served off the batch path, so it answers even
/// when every admission slot and queue position is taken.
fn status_cli(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    let mut socket: Option<PathBuf> = None;
    let mut connect: Option<String> = None;
    let mut token_file: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--socket" => {
                socket = Some(PathBuf::from(args.next().ok_or("--socket needs a value")?));
            }
            "--connect" => {
                connect = Some(args.next().ok_or("--connect needs a HOST:PORT value")?);
            }
            "--token-file" => {
                token_file = Some(args.next().ok_or("--token-file needs a value")?);
            }
            other => return Err(format!("status: unknown argument {other} (try --help)")),
        }
    }
    let endpoint = match (socket, connect) {
        (Some(_), Some(_)) => {
            return Err("status: --socket conflicts with --connect (give exactly one \
                        daemon address)"
                .into())
        }
        (Some(socket), None) => {
            if token_file.is_some() {
                return Err("status: --token-file is only used with --connect (Unix \
                            sockets are trusted via filesystem permissions)"
                    .into());
            }
            Endpoint::Unix(socket)
        }
        (None, Some(addr)) => {
            let token_file = token_file
                .as_deref()
                .ok_or("status: --connect requires --token-file (TCP daemons authenticate)")?;
            Endpoint::Tcp { addr, token: read_token_file(token_file)? }
        }
        (None, None) => return Err("status: give --socket PATH or --connect HOST:PORT".into()),
    };
    match service::request_endpoint(&endpoint, &Request::Status).map_err(|e| e.to_string())? {
        Response::Status { json } => {
            println!("{json}");
            Ok(())
        }
        Response::Error(message) => {
            Err(format!("daemon refused the status request: {message}"))
        }
        other => Err(format!(
            "daemon answered a status request with {other:?} (protocol confusion — \
             mismatched versions?)"
        )),
    }
}

/// Extracts the raw text after `\"key\": ` in a single-line JSON
/// object (the shape `--trace-out` writes — one event per line, keys
/// rendered with exactly this spacing).
fn trace_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\": ");
    let at = line.find(&needle)? + needle.len();
    Some(&line[at..])
}

/// The `trace summarize` subcommand: aggregate a `--trace-out` file
/// into per-span counts and durations.
fn trace_cli(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    let action = args.next().ok_or("trace: need an action (summarize)")?;
    if action != "summarize" {
        return Err(format!("trace: unknown action {action} (want summarize)"));
    }
    let path = args.next().ok_or("trace summarize: need a trace file path")?;
    if let Some(extra) = args.next() {
        return Err(format!("trace summarize: unexpected argument {extra}"));
    }
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    // span name -> (count, total µs, max µs). BTreeMap for stable,
    // diffable output order.
    let mut spans: std::collections::BTreeMap<String, (u64, u64, u64)> =
        std::collections::BTreeMap::new();
    let mut skipped = 0u64;
    for line in text.lines().filter(|line| !line.trim().is_empty()) {
        // Span names are static identifiers (never escaped), so the
        // first '"' after the field reliably terminates the name.
        let name = trace_field(line, "name")
            .and_then(|rest| rest.strip_prefix('"'))
            .and_then(|rest| rest.split('"').next());
        let dur = trace_field(line, "dur_us").and_then(|rest| {
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            digits.parse::<u64>().ok()
        });
        match (name, dur) {
            (Some(name), Some(dur)) => {
                let entry = spans.entry(name.to_string()).or_insert((0, 0, 0));
                entry.0 += 1;
                entry.1 += dur;
                entry.2 = entry.2.max(dur);
            }
            _ => skipped += 1,
        }
    }
    let mut table = TextTable::new(["span", "count", "total_us", "mean_us", "max_us"]);
    for (name, (count, total, max)) in &spans {
        table.row([
            name.clone(),
            count.to_string(),
            total.to_string(),
            (total / count).to_string(),
            max.to_string(),
        ]);
    }
    print!("{table}");
    if skipped > 0 {
        println!("{skipped} line(s) skipped (no span name/duration)");
    }
    Ok(())
}

fn check_cli(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    let mut format = "text".to_string();
    let mut root: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => {
                format = args.next().ok_or("check: --format needs text|json")?;
                if format != "text" && format != "json" {
                    return Err(format!("check: unknown format {format} (want text|json)"));
                }
            }
            "--root" => {
                root = Some(PathBuf::from(args.next().ok_or("check: --root needs a path")?));
            }
            other => return Err(format!("check: unexpected argument {other}")),
        }
    }
    let root = match root {
        Some(root) => root,
        None => workspace_root()?,
    };
    let report = {
        let _span = chipletqc_obs::span("check.run");
        let files = chipletqc_check::load_workspace(&root)
            .map_err(|e| format!("check: scan {}: {e}", root.display()))?;
        let index = {
            let _span = chipletqc_obs::span("check.pass.index");
            chipletqc_check::build_index(&files)
        };
        let _rules = chipletqc_obs::span("check.pass.rules");
        chipletqc_check::check_files_indexed(&files, &index)
    };
    // Analysis health rides the same registry as runtime telemetry,
    // so a report or status snapshot taken from this process shows it.
    chipletqc_obs::counter("check.files_scanned").add(report.files_scanned as u64);
    chipletqc_obs::counter("check.findings").add(report.findings.len() as u64);
    for rule in chipletqc_check::RULES {
        let n = report.findings.iter().filter(|f| f.rule == *rule).count();
        if n > 0 {
            chipletqc_obs::counter(&format!("check.rule.{rule}.findings")).add(n as u64);
        }
    }
    match format.as_str() {
        "json" => print!("{}", report.to_json()),
        _ => print!("{}", report.to_text()),
    }
    chipletqc_obs::flush_trace();
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!("check: {} finding(s)", report.findings.len()))
    }
}

/// Finds the workspace root: the nearest ancestor of the current
/// directory (or of this binary's manifest at build time, as a
/// fallback for `cargo run` from elsewhere) holding the workspace
/// `Cargo.toml`.
fn workspace_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| format!("check: current dir: {e}"))?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = std::fs::read_to_string(&manifest)
                .map_err(|e| format!("check: read {}: {e}", manifest.display()))?;
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            break;
        }
    }
    // Built from source: the engine crate sits at <root>/crates/engine.
    let fallback = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    if fallback.join("Cargo.toml").is_file() {
        return Ok(fallback);
    }
    Err("check: no workspace Cargo.toml above the current directory (use --root)".to_string())
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    let subcommand = match args.peek().map(String::as_str) {
        Some(name @ ("store" | "serve" | "submit" | "status" | "trace" | "check")) => {
            let name = name.to_string();
            args.next();
            Some(name)
        }
        _ => None,
    };
    if let Some(name) = subcommand {
        let result = match name.as_str() {
            "store" => store_cli(args),
            "serve" => serve_cli(args),
            "status" => status_cli(args),
            "trace" => trace_cli(args),
            "check" => check_cli(args),
            _ => submit_cli(args),
        };
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("error: {message}");
                ExitCode::FAILURE
            }
        };
    }
    let options = match parse_args(args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };

    if options.list {
        match &options.sweep {
            Some(sweep) => {
                for scenario in sweep.expand() {
                    println!("{}", scenario.name);
                }
            }
            None => {
                for kind in ExperimentKind::ALL {
                    println!("{}", kind.name());
                }
            }
        }
        return ExitCode::SUCCESS;
    }

    if let Some(path) = &options.trace_out {
        if let Err(error) = chipletqc_obs::trace_to(path) {
            eprintln!("error: open trace file {}: {error}", path.display());
            return ExitCode::FAILURE;
        }
    }

    let suite = match resolve_batch(
        options.sweep.as_ref(),
        options.scale,
        options.only.as_deref(),
        options.seed,
    ) {
        Ok(suite) => suite,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(seed) = options.seed {
        eprintln!("root seed override: {}", Seed(seed));
    }

    let scheduler = options
        .workers
        .map_or_else(Scheduler::default, Scheduler::new)
        .with_shards(options.shards);
    let scale_label = match &options.sweep {
        Some(sweep) => sweep.scale.name(),
        None => options.scale.name(),
    };
    eprintln!(
        "chipletqc-engine :: {} scenario(s), {} scale, {} worker(s), {} shard(s)/scenario",
        suite.len(),
        scale_label,
        scheduler.workers(),
        scheduler.shards()
    );
    eprintln!("{}", "=".repeat(72));

    let token = match &options.token_file {
        Some(path) => match read_token_file(path) {
            Ok(token) => Some(token),
            Err(message) => {
                eprintln!("error: {message}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let hub = match options.cache.open_store(token.as_deref()) {
        Ok(Some(store)) => CacheHub::new().with_store(store),
        Ok(None) => CacheHub::new(),
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "batch wall-time for the stderr timing lines only"
    )]
    let started = Instant::now();
    let results = scheduler.run(&suite, &hub);
    let batch_wall = started.elapsed();

    // Join write-behind store traffic before the counters are read so
    // the report (and any process that opens the directory next) sees
    // the final state.
    hub.flush_store();
    let report = RunReport::from_results(
        &results,
        hub.fabrication_stats(),
        hub.store_stats(),
        hub.peer_stats(),
    );
    eprint!("{}", timing_summary(&results, scheduler.workers()));
    eprintln!("  {:<24} {:>9.3}s (batch wall clock)", "elapsed", batch_wall.as_secs_f64());
    let stats = hub.fabrication_stats();
    eprintln!(
        "fabrication campaigns: {} chiplet, {} monolithic (shared across scenarios)",
        stats.chiplet_fabrications, stats.mono_fabrications
    );
    if hub.store().is_some() {
        let store = hub.store_stats();
        eprintln!(
            "result store: {} hit(s), {} miss(es), {} write(s), {} invalid",
            store.hits, store.misses, store.writes, store.invalid
        );
        if options.cache.peer.is_some() {
            eprintln!("{}", peer_stats_line(&hub.peer_stats()));
        }
    }

    if options.write_files {
        if let Err(error) = std::fs::create_dir_all(&options.out) {
            eprintln!("error: create {}: {error}", options.out.display());
            return ExitCode::FAILURE;
        }
        // RunReport guarantees unique artifact names; this check is
        // the engine's own defense against ever silently overwriting
        // one artifact with another (or with the report itself).
        let mut written = std::collections::BTreeSet::new();
        for (name, contents) in report.artifacts() {
            let path = options.out.join(name);
            if !written.insert(path.clone()) {
                eprintln!(
                    "error: two artifacts resolve to {} — refusing to overwrite",
                    path.display()
                );
                return ExitCode::FAILURE;
            }
            // Sweep scenario names contain '/', nesting artifacts in
            // per-sweep subdirectories.
            if let Some(parent) = path.parent() {
                if let Err(error) = std::fs::create_dir_all(parent) {
                    eprintln!("error: create {}: {error}", parent.display());
                    return ExitCode::FAILURE;
                }
            }
            if let Err(error) = std::fs::write(&path, contents) {
                eprintln!("error: write {}: {error}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {} ({} bytes)", path.display(), contents.len());
        }
        let path = options.out.join("run_report.json");
        if written.contains(&path) {
            eprintln!("error: an artifact shadows {} — refusing to overwrite", path.display());
            return ExitCode::FAILURE;
        }
        let json = report.to_json();
        if let Err(error) = std::fs::write(&path, &json) {
            eprintln!("error: write {}: {error}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {} ({} bytes)", path.display(), json.len());
    } else {
        print!("{}", report.to_json());
    }
    chipletqc_obs::flush_trace();
    eprintln!("done.");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Options, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn zero_workers_and_zero_shards_are_rejected() {
        // Regression: `--shards 0` used to parse as a plain usize and
        // produce a degenerate schedule the scheduler silently
        // clamped.
        for (line, flag) in [("--shards 0", "--shards"), ("--workers 0", "--workers")] {
            let error = parse(line).expect_err(line);
            assert_eq!(error, format!("bad {flag} 0 (must be at least 1)"));
        }
        assert_eq!(parse("--shards 4").unwrap().shards, 4);
        assert_eq!(parse("--workers 2").unwrap().workers, Some(2));
    }

    #[test]
    fn conflicting_sweep_sources_are_rejected() {
        // Regression: the later flag used to silently win.
        let error = parse("--sweep-text kind=fig8 --sweep-text kind=fig9").expect_err("dup");
        assert!(error.contains("conflicts with --sweep-text"), "{error}");
        let sweep = parse("--sweep-text kind=fig4").unwrap().sweep.unwrap();
        assert_eq!(sweep.kind, ExperimentKind::Fig4);
    }

    #[test]
    fn cache_off_with_a_cache_dir_is_rejected() {
        // Regression: the directory used to be silently ignored,
        // leaving the user believing their runs were cached.
        let error = parse("--cache off --cache-dir /tmp/store").expect_err("conflict");
        assert!(error.contains("--cache off conflicts with --cache-dir"), "{error}");
        let error = parse("--cache-dir /tmp/store --cache off").expect_err("either order");
        assert!(error.contains("--cache off conflicts with --cache-dir"), "{error}");
        assert!(parse("--cache off").is_ok());
        assert!(parse("--cache-dir /tmp/store").is_ok());
        assert!(parse("--cache read").is_err(), "read/write still need a directory");
    }

    #[test]
    fn dead_store_peer_and_token_combinations_are_rejected() {
        // A peer tier needs a local tier to populate, and a token
        // needs something to authenticate to — every other combination
        // used to be a silently-dropped flag.
        let error = parse("--store-peer h:1 --token-file t").expect_err("no local tier");
        assert!(error.contains("--store-peer needs a local store tier"), "{error}");
        let error =
            parse("--store-peer h:1 --cache off --cache-dir /d --token-file t").unwrap_err();
        assert!(error.contains("conflicts"), "{error}");
        let error = parse("--token-file t").expect_err("token with nothing to talk to");
        assert!(error.contains("--token-file is only used with --store-peer"), "{error}");
        // A peer under a never-reading store would silently never be
        // consulted.
        let error =
            parse("--store-peer h:1 --cache-dir /d --cache write --token-file t").unwrap_err();
        assert!(error.contains("dead under --cache write"), "{error}");
        assert!(parse("--store-peer h:1 --cache-dir /d --cache read --token-file t").is_ok());
        let ok = parse("--store-peer h:1 --cache-dir /d --token-file t").unwrap();
        assert_eq!(ok.cache.peer.as_deref(), Some("h:1"));
        assert_eq!(ok.token_file.as_deref(), Some("t"));
    }

    #[test]
    fn store_push_needs_a_peer_and_a_writing_mode() {
        // Push rides on local store writes toward the peer; without a
        // peer (or under a never-writing mode) the flag is dead.
        let error = parse("--store-push").expect_err("push with no peer");
        assert!(error.contains("--store-push needs --store-peer"), "{error}");
        let error =
            parse("--store-push --store-peer h:1 --cache-dir /d --cache read --token-file t")
                .unwrap_err();
        assert!(error.contains("dead under --cache read"), "{error}");
        let ok = parse("--store-push --store-peer h:1 --cache-dir /d --token-file t").unwrap();
        assert!(ok.cache.push);
    }
}
