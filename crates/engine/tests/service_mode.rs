//! Service mode's load-bearing contract, pinned end to end:
//!
//! 1. **Daemon transparency** — a daemon-submitted batch's `RunReport`
//!    is byte-identical to a one-shot run of the same batch, apart
//!    from the `fabrication`/`store` counter objects (which hold the
//!    submission's deltas);
//! 2. **The warm hub makes repeats free** — a second submission of the
//!    same sweep reports zero fabrication campaigns *and zero store
//!    traffic*: every product is served from the daemon's memory
//!    without touching disk;
//! 3. per-batch `workers`/`shards` are honored without changing the
//!    report, and shutdown drains cleanly (socket removed, summary
//!    accounted).

#![cfg(unix)]

use std::io::{BufReader, BufWriter};
use std::os::unix::net::UnixStream;
use std::sync::mpsc;

use chipletqc::lab::CacheHub;
use chipletqc_engine::protocol::{
    read_response, write_request, Progress, Request, Response, Submission,
};
use chipletqc_engine::report::{strip_counter_objects, RunReport};
use chipletqc_engine::scheduler::Scheduler;
use chipletqc_engine::service::{self, Service, ServiceConfig, ServiceSummary};
use chipletqc_engine::suite::resolve_batch;
use chipletqc_engine::sweep::Sweep;
use chipletqc_store::{CacheMode, Store};

/// A small two-scenario fig8 sweep covering every persisted product
/// (kept small so the test stays fast; the CI `service-smoke` job
/// replays the full checked-in example sweep against a real daemon
/// process).
const SWEEP: &str = "name = svc\n\
                     kind = fig8\n\
                     scale = quick\n\
                     grid = 10q2x2, 10q2x3\n\
                     batch = 120\n\
                     seed = 7\n";

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("chipletqc-svcmode-{tag}-{}", std::process::id()))
}

fn submit(socket: &std::path::Path, submission: Submission) -> (u64, String, String) {
    match service::request(socket, &Request::Submit(submission)).expect("submit") {
        Response::Report { batch, timing, report } => (batch, timing, report),
        other => panic!("expected a report, got {other:?}"),
    }
}

/// Pulls one `"counter": N` value out of a pretty-printed report.
fn counter(report: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\": ");
    let at = report.find(&needle).unwrap_or_else(|| panic!("no {key} in report"));
    report[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("counter value")
}

#[test]
fn daemon_reports_match_one_shot_and_repeats_are_free() {
    let socket = temp_path("determinism.sock");
    let store_dir = temp_path("determinism-store");
    let _ = std::fs::remove_dir_all(&store_dir);

    let store = Store::open(&store_dir, CacheMode::ReadWrite).expect("open store");
    let service = Service::bind(ServiceConfig::new(&socket), Some(store)).expect("bind");
    let (summary_tx, summary_rx) = mpsc::channel::<ServiceSummary>();
    let daemon = std::thread::spawn(move || {
        summary_tx.send(service.run(|| false).expect("serve")).unwrap();
    });

    let submission = |workers, shards| Submission {
        sweep_text: Some(SWEEP.into()),
        workers: Some(workers),
        shards: Some(shards),
        ..Submission::default()
    };

    // First submission: cold store, so the daemon fabricates and
    // persists.
    let (batch1, timing1, report1) = submit(&socket, submission(2, 1));
    assert_eq!(batch1, 1);
    assert!(timing1.starts_with("batch 1: 2 scenario(s) on 2 worker(s)"), "{timing1}");
    assert!(counter(&report1, "chiplet_campaigns") > 0, "cold submission fabricates");
    assert!(counter(&report1, "writes") > 0, "cold submission persists");

    // Second submission of the same sweep — different schedule, warm
    // hub: zero fabrication campaigns AND zero store traffic. The
    // products never leave the daemon's memory.
    let (batch2, _, report2) = submit(&socket, submission(3, 2));
    assert_eq!(batch2, 2);
    for key in ["chiplet_campaigns", "mono_campaigns", "hits", "misses", "writes", "invalid"] {
        assert_eq!(counter(&report2, key), 0, "warm submission must report {key} = 0");
    }

    // Both submissions agree with a one-shot run of the identical
    // batch, byte for byte, modulo the counter objects.
    let sweep = Sweep::parse(SWEEP).expect("sweep parses");
    let suite = resolve_batch(Some(&sweep), Default::default(), None, None).expect("batch");
    let hub = CacheHub::new();
    let results = Scheduler::new(2).run(&suite, &hub);
    let one_shot = RunReport::from_results(
        &results,
        hub.fabrication_stats(),
        hub.store_stats(),
        hub.peer_stats(),
    )
    .to_json();
    assert_eq!(
        strip_counter_objects(&report1),
        strip_counter_objects(&one_shot),
        "daemon batch diverged from the one-shot CLI run"
    );
    assert_eq!(
        strip_counter_objects(&report2),
        strip_counter_objects(&report1),
        "repeat submission diverged"
    );
    // The counters themselves differ (cold vs warm), so the stripping
    // above is load-bearing.
    assert_ne!(report1, report2);

    // A `reset` submission drops the warm memory but re-reads from the
    // persistent store — still zero fabrications, now with hits.
    let reset = Submission { reset: true, ..submission(2, 1) };
    let (_, _, report3) = submit(&socket, reset);
    assert_eq!(counter(&report3, "chiplet_campaigns"), 0, "store still warm after reset");
    assert_eq!(counter(&report3, "mono_campaigns"), 0);
    assert!(counter(&report3, "hits") > 0, "reset forces re-reads from disk");
    assert_eq!(strip_counter_objects(&report3), strip_counter_objects(&report1));

    // Shutdown drains and accounts for everything.
    assert_eq!(
        service::request(&socket, &Request::Shutdown).expect("shutdown"),
        Response::ShuttingDown
    );
    daemon.join().expect("daemon thread");
    let summary = summary_rx.recv().expect("summary");
    assert_eq!(
        summary,
        ServiceSummary { batches: 3, rejected: 0, scenarios: 6, ..ServiceSummary::default() }
    );
    assert!(!socket.exists(), "socket file must be removed on shutdown");

    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn storeless_daemon_still_reuses_its_warm_hub() {
    // Without any persistent store the warm hub alone must make the
    // second submission free — the pure in-memory half of the
    // contract.
    let socket = temp_path("storeless.sock");
    let service = Service::bind(ServiceConfig::new(&socket), None).expect("bind");
    let daemon = std::thread::spawn(move || service.run(|| false).expect("serve"));

    let submission = Submission {
        sweep_text: Some(SWEEP.into()),
        workers: Some(2),
        ..Submission::default()
    };
    let (_, _, cold) = submit(&socket, submission.clone());
    assert!(counter(&cold, "chiplet_campaigns") > 0);
    assert_eq!(counter(&cold, "writes"), 0, "no store, no writes");
    let (_, _, warm) = submit(&socket, submission);
    assert_eq!(counter(&warm, "chiplet_campaigns"), 0);
    assert_eq!(counter(&warm, "mono_campaigns"), 0);
    assert_eq!(strip_counter_objects(&warm), strip_counter_objects(&cold));

    service::request(&socket, &Request::Shutdown).expect("shutdown");
    daemon.join().expect("daemon thread");
}

/// A heavier single-scenario sweep for the cancellation tests: enough
/// fabrication work that a pipelined `cancel` (or hang-up) lands while
/// the batch is demonstrably still in flight.
const SLOW_SWEEP: &str = "name = slow\n\
                          kind = fig8\n\
                          scale = quick\n\
                          grid = 10q3x3\n\
                          batch = 20000\n\
                          seed = 11\n";

#[test]
fn status_answers_mid_batch_with_live_load_and_percentiles() {
    // The status frame is served off the batch path: while a slow
    // batch holds an admission slot, a second connection's `status`
    // must answer immediately with `inflight >= 1` and live latency
    // percentiles — the whole point of the frame is observing a
    // daemon that is busy.
    let socket = temp_path("status.sock");
    let service = Service::bind(ServiceConfig::new(&socket), None).expect("bind");
    let daemon = std::thread::spawn(move || service.run(|| false).expect("serve"));

    let slow = Submission {
        sweep_text: Some(SLOW_SWEEP.into()),
        workers: Some(2),
        shards: Some(4),
        ..Submission::default()
    };
    let stream = UnixStream::connect(&socket).expect("connect");
    write_request(&mut BufWriter::new(&stream), &Request::Submit(slow)).unwrap();
    let mut reader = BufReader::new(&stream);
    let first = read_response(&mut reader).expect("first frame");
    assert!(
        matches!(first, Response::Progress(Progress::Tasks { done: 0, .. })),
        "expected the initial progress frame, got {first:?}"
    );

    // The batch is now demonstrably in flight; ask for status on a
    // second connection.
    let status = match service::request(&socket, &Request::Status).expect("status") {
        Response::Status { json } => json,
        other => panic!("expected a status snapshot, got {other:?}"),
    };
    assert!(counter(&status, "inflight") >= 1, "a running batch must show up:\n{status}");
    assert!(status.contains("\"mesh_worker\": false"), "not a mesh worker:\n{status}");
    assert!(
        counter(&status, "service.requests.status") >= 1,
        "the status request counts itself:\n{status}"
    );
    for key in ["counters", "telemetry", "histograms", "p50_us"] {
        assert!(status.contains(&format!("\"{key}\"")), "status lacks {key}:\n{status}");
    }

    // Cancel the slow batch and drain.
    write_request(&mut BufWriter::new(&stream), &Request::Cancel).unwrap();
    loop {
        match read_response(&mut reader).expect("response stream") {
            Response::Progress(_) => continue,
            terminal => {
                assert_eq!(terminal, Response::Cancelled);
                break;
            }
        }
    }
    service::request(&socket, &Request::Shutdown).expect("shutdown");
    daemon.join().expect("daemon thread");
}

#[test]
fn cancelling_or_disconnecting_mid_batch_leaves_the_daemon_serving() {
    // The per-client cancellation contract, both flavors: an explicit
    // `cancel` frame retires an in-flight batch with a `cancelled`
    // acknowledgement; a client that just hangs up retires its batch
    // silently. Either way no work leaks — the daemon serves the next
    // client a complete, correct batch — and the drain summary
    // accounts the retired submissions as cancelled, not completed.
    let socket = temp_path("cancel.sock");
    let service = Service::bind(ServiceConfig::new(&socket), None).expect("bind");
    let (summary_tx, summary_rx) = mpsc::channel::<ServiceSummary>();
    let daemon = std::thread::spawn(move || {
        summary_tx.send(service.run(|| false).expect("serve")).unwrap();
    });
    let slow = Submission {
        sweep_text: Some(SLOW_SWEEP.into()),
        workers: Some(2),
        shards: Some(4),
        ..Submission::default()
    };

    // Explicit cancel: submit, wait until the daemon confirms the
    // batch is running (the initial 0/N progress frame), then cancel.
    {
        let stream = UnixStream::connect(&socket).expect("connect");
        write_request(&mut BufWriter::new(&stream), &Request::Submit(slow.clone())).unwrap();
        let mut reader = BufReader::new(&stream);
        let first = read_response(&mut reader).expect("first frame");
        assert!(
            matches!(first, Response::Progress(Progress::Tasks { done: 0, .. })),
            "expected the initial progress frame, got {first:?}"
        );
        write_request(&mut BufWriter::new(&stream), &Request::Cancel).unwrap();
        // Progress frames already in flight may still arrive; the
        // terminal frame must be the cancellation acknowledgement.
        let terminal = loop {
            match read_response(&mut reader).expect("response stream") {
                Response::Progress(_) => continue,
                other => break other,
            }
        };
        assert_eq!(terminal, Response::Cancelled);
    }

    // Disconnect: same setup, but hang up instead of cancelling. The
    // task the cancel found running still finished, leaving its
    // products warm in the hub, and a warm batch can end before the
    // daemon notices the hang-up; `reset` drops them so this batch
    // runs cold, as the first did.
    {
        let stream = UnixStream::connect(&socket).expect("connect");
        let cold = Submission { reset: true, ..slow.clone() };
        write_request(&mut BufWriter::new(&stream), &Request::Submit(cold)).unwrap();
        let mut reader = BufReader::new(&stream);
        let first = read_response(&mut reader).expect("first frame");
        assert!(
            matches!(first, Response::Progress(Progress::Tasks { done: 0, .. })),
            "{first:?}"
        );
        // Drop closes the connection; the daemon's poll (or its next
        // progress write) notices and retires the batch.
    }

    // The daemon still serves a complete batch afterwards, and the
    // cancelled submissions were never counted as completed.
    let (batch, _, report) = submit(
        &socket,
        Submission {
            sweep_text: Some(SWEEP.into()),
            workers: Some(2),
            ..Submission::default()
        },
    );
    assert_eq!(batch, 1, "cancelled batches must not consume batch numbers");
    let sweep = Sweep::parse(SWEEP).expect("sweep parses");
    let suite = resolve_batch(Some(&sweep), Default::default(), None, None).expect("batch");
    let hub = CacheHub::new();
    let results = Scheduler::new(2).run(&suite, &hub);
    let one_shot = RunReport::from_results(
        &results,
        hub.fabrication_stats(),
        hub.store_stats(),
        hub.peer_stats(),
    )
    .to_json();
    assert_eq!(
        strip_counter_objects(&report),
        strip_counter_objects(&one_shot),
        "the batch after two cancellations diverged from a one-shot run"
    );

    service::request(&socket, &Request::Shutdown).expect("shutdown");
    daemon.join().expect("daemon thread");
    let summary = summary_rx.recv().expect("summary");
    assert_eq!(summary.batches, 1, "only the surviving client's batch completed");
    assert_eq!(summary.cancelled, 2, "both retired submissions counted as cancelled");
    assert_eq!(summary.rejected, 0);
}
