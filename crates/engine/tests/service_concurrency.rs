//! The concurrent multi-tenant daemon's contract, pinned end to end:
//!
//! 1. **Determinism survives concurrency** — N clients submitting
//!    overlapping sweeps concurrently each get a report byte-identical
//!    to a serial one-shot run of the same batch (modulo the counter
//!    objects), and a warm round reports zero fabrication;
//! 2. **Backpressure is explicit** — beyond `max_inflight` a client is
//!    queued (with a queue-position frame) and beyond `queue_depth` it
//!    receives a `busy` frame immediately, never an indefinite stall;
//! 3. **Retired counters stay monotone** while concurrent batches (and
//!    cache clears) interleave;
//! 4. **Drain under load completes every admitted batch** — running
//!    *and* queued — before the daemon exits.

#![expect(clippy::unwrap_used, reason = "test code panics on harness failures by design")]
#![cfg(unix)]

use std::io::{BufReader, BufWriter};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};

use chipletqc::lab::CacheHub;
use chipletqc_engine::protocol::{
    read_response, write_request, Progress, Request, Response, Submission,
};
use chipletqc_engine::report::{strip_counter_objects, RunReport};
use chipletqc_engine::scheduler::{Scheduler, WorkPool};
use chipletqc_engine::service::{self, Service, ServiceConfig, ServiceSummary};
use chipletqc_engine::suite::resolve_batch;
use chipletqc_engine::sweep::Sweep;

/// Two overlapping sweeps: both include the 10q2x3 grid, so concurrent
/// submissions race on the same warm-cache keys — exactly the sharing
/// the determinism contract must survive.
const SWEEP_A: &str = "name = cca\n\
                       kind = fig8\n\
                       scale = quick\n\
                       grid = 10q2x2, 10q2x3\n\
                       batch = 120\n\
                       seed = 7\n";
const SWEEP_B: &str = "name = ccb\n\
                       kind = fig8\n\
                       scale = quick\n\
                       grid = 10q2x3, 10q3x3\n\
                       batch = 120\n\
                       seed = 7\n";

/// A heavier sweep whose batch reliably outlives the client-side
/// choreography of the backpressure and drain tests.
const SLOW_SWEEP: &str = "name = ccslow\n\
                          kind = fig8\n\
                          scale = quick\n\
                          grid = 10q3x3\n\
                          batch = 20000\n\
                          seed = 11\n";

fn temp_socket(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("chipletqc-svcconc-{tag}-{}", std::process::id()))
}

fn submission(sweep: &str, workers: usize) -> Submission {
    Submission {
        sweep_text: Some(sweep.into()),
        workers: Some(workers),
        shards: Some(2),
        ..Submission::default()
    }
}

/// Runs `sweep` serially in-process on a fresh hub — the reference
/// every daemon-side report must match byte-for-byte (modulo counter
/// objects).
fn one_shot_report(sweep: &str) -> String {
    let sweep = Sweep::parse(sweep).expect("sweep parses");
    let suite = resolve_batch(Some(&sweep), Default::default(), None, None).expect("batch");
    let hub = CacheHub::new();
    let results = Scheduler::new(2).with_shards(2).run(&suite, &hub);
    RunReport::from_results(
        &results,
        hub.fabrication_stats(),
        hub.store_stats(),
        hub.peer_stats(),
    )
    .to_json()
}

/// Submits over a raw connection and returns the terminal frame,
/// skipping progress frames.
fn submit_terminal(socket: &std::path::Path, submission: &Submission) -> Response {
    let stream = UnixStream::connect(socket).expect("connect");
    write_request(&mut BufWriter::new(&stream), &Request::Submit(submission.clone())).unwrap();
    let mut reader = BufReader::new(&stream);
    loop {
        match read_response(&mut reader).expect("response stream") {
            Response::Progress(_) => continue,
            terminal => return terminal,
        }
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
fn concurrent_submissions_match_their_serial_one_shot_runs() {
    let socket = temp_socket("determinism.sock");
    let service = Service::bind(ServiceConfig::new(&socket), None).expect("bind");
    let (summary_tx, summary_rx) = mpsc::channel::<ServiceSummary>();
    let daemon = std::thread::spawn(move || {
        summary_tx.send(service.run(|| false).expect("serve")).unwrap();
    });

    let reference_a = one_shot_report(SWEEP_A);
    let reference_b = one_shot_report(SWEEP_B);

    // Two rounds of four concurrent clients (two per sweep, distinct
    // worker counts so the schedules differ): a cold round that
    // fabricates, then a warm round that must not.
    for round in ["cold", "warm"] {
        let reports: Vec<(usize, String)> = std::thread::scope(|scope| {
            let handles: Vec<_> =
                [(0, SWEEP_A, 2), (1, SWEEP_B, 2), (0, SWEEP_A, 3), (1, SWEEP_B, 3)]
                    .into_iter()
                    .map(|(which, sweep, workers)| {
                        let socket = socket.clone();
                        scope.spawn(move || {
                            match submit_terminal(&socket, &submission(sweep, workers)) {
                                Response::Report { report, .. } => (which, report),
                                other => panic!("{round}: expected a report, got {other:?}"),
                            }
                        })
                    })
                    .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect()
        });
        for (which, report) in &reports {
            let reference = if *which == 0 { &reference_a } else { &reference_b };
            assert_eq!(
                strip_counter_objects(report),
                strip_counter_objects(reference),
                "{round}: concurrent report diverged from its serial one-shot run"
            );
            if round == "warm" {
                for key in ["chiplet_campaigns", "mono_campaigns"] {
                    assert_eq!(counter(report, key), 0, "warm round must report {key} = 0");
                }
            }
        }
    }

    assert_eq!(
        service::request(&socket, &Request::Shutdown).expect("shutdown"),
        Response::ShuttingDown
    );
    daemon.join().expect("daemon thread");
    let summary = summary_rx.recv().expect("summary");
    assert_eq!(
        summary,
        ServiceSummary { batches: 8, scenarios: 16, ..ServiceSummary::default() },
        "every concurrent submission completed; none rejected or cancelled"
    );
}

#[test]
fn past_the_admission_bound_clients_queue_then_get_busy() {
    // max_inflight = 1, queue_depth = 1: the second client queues (and
    // is told its position), the third is refused with a `busy` frame
    // immediately — the backpressure contract, with zero hangs.
    let socket = temp_socket("backpressure.sock");
    let config = ServiceConfig::new(&socket).with_admission(1, 1);
    let service = Service::bind(config, None).expect("bind");
    let (summary_tx, summary_rx) = mpsc::channel::<ServiceSummary>();
    let daemon = std::thread::spawn(move || {
        summary_tx.send(service.run(|| false).expect("serve")).unwrap();
    });
    let slow = submission(SLOW_SWEEP, 2);

    // A: admitted — the initial 0/N progress frame confirms its batch
    // occupies the only execution slot.
    let stream_a = UnixStream::connect(&socket).expect("connect a");
    write_request(&mut BufWriter::new(&stream_a), &Request::Submit(slow.clone())).unwrap();
    let mut reader_a = BufReader::new(&stream_a);
    let first_a = read_response(&mut reader_a).expect("a: first frame");
    assert!(
        matches!(first_a, Response::Progress(Progress::Tasks { done: 0, .. })),
        "a should be running, got {first_a:?}"
    );

    // B: queued at position 1, and told so immediately.
    let stream_b = UnixStream::connect(&socket).expect("connect b");
    write_request(&mut BufWriter::new(&stream_b), &Request::Submit(slow.clone())).unwrap();
    let mut reader_b = BufReader::new(&stream_b);
    let first_b = read_response(&mut reader_b).expect("b: first frame");
    assert_eq!(
        first_b,
        Response::Progress(Progress::Queued { position: 1 }),
        "b should queue behind a"
    );

    // C: queue full — an immediate `busy` frame, not a hang.
    let refused = service::request(&socket, &Request::Submit(slow.clone())).expect("c");
    assert_eq!(refused, Response::Busy { inflight: 1, queued: 1 });

    // A and B both drain to complete, correct reports (B after A).
    let reference = one_shot_report(SLOW_SWEEP);
    for (name, mut reader) in [("a", reader_a), ("b", reader_b)] {
        let terminal = loop {
            match read_response(&mut reader).expect("response stream") {
                Response::Progress(_) => continue,
                terminal => break terminal,
            }
        };
        let Response::Report { report, .. } = terminal else {
            panic!("{name}: expected a report, got {terminal:?}");
        };
        assert_eq!(
            strip_counter_objects(&report),
            strip_counter_objects(&reference),
            "{name}: report diverged under backpressure"
        );
    }

    service::request(&socket, &Request::Shutdown).expect("shutdown");
    daemon.join().expect("daemon thread");
    let summary = summary_rx.recv().expect("summary");
    assert_eq!(summary.batches, 2, "a and b completed");
    assert_eq!(summary.rejected, 1, "c was refused as busy");
    assert_eq!(summary.cancelled, 0);
}

#[test]
fn retired_counters_stay_monotone_while_batches_and_clears_interleave() {
    // The race-safety half of the counter contract: the hub's lifetime
    // totals — the baseline every per-submission `since` delta rebases
    // on — never decrease, even while concurrent batches fabricate
    // into the hub and a `clear` retires its warm caches mid-flight.
    let hub = CacheHub::new();
    let pool = WorkPool::new(4);
    let scheduler = Scheduler::new(2).with_shards(2);
    let suite_a = {
        let sweep = Sweep::parse(SWEEP_A).expect("sweep parses");
        resolve_batch(Some(&sweep), Default::default(), None, None).expect("batch")
    };
    let suite_b = {
        let sweep = Sweep::parse(SWEEP_B).expect("sweep parses");
        resolve_batch(Some(&sweep), Default::default(), None, None).expect("batch")
    };

    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let hub = hub.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut last = 0usize;
            let mut samples = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let total = hub.fabrication_stats().total();
                assert!(total >= last, "fabrication total went backwards: {last} -> {total}");
                last = total;
                samples += 1;
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            (last, samples)
        })
    };

    // Two rounds of two concurrent batches, with a clear between the
    // rounds while the sampler keeps watching.
    for _ in 0..2 {
        let handle_a = pool.submit(scheduler, &suite_a, &hub, None);
        let handle_b = pool.submit(scheduler, &suite_b, &hub, None);
        handle_a.wait().expect("batch a");
        handle_b.wait().expect("batch b");
        hub.clear();
    }

    stop.store(true, Ordering::Relaxed);
    let (last, samples) = sampler.join().expect("sampler thread");
    assert!(samples > 0, "sampler never ran");
    let final_total = hub.fabrication_stats().total();
    assert!(final_total >= last, "final total below the last sample");
    assert!(final_total > 0, "the batches fabricated something");
}

#[test]
fn drain_under_load_completes_every_admitted_batch() {
    // `submit --shutdown` while two batches run and a third waits in
    // the queue: all three clients must still receive their complete
    // reports — the drain covers queued admissions, not just running
    // ones — and only then does the daemon exit.
    let socket = temp_socket("drain.sock");
    let config = ServiceConfig::new(&socket).with_admission(2, 2);
    let service = Service::bind(config, None).expect("bind");
    let (summary_tx, summary_rx) = mpsc::channel::<ServiceSummary>();
    let daemon = std::thread::spawn(move || {
        summary_tx.send(service.run(|| false).expect("serve")).unwrap();
    });
    let slow = submission(SLOW_SWEEP, 2);

    // A and B: admitted and running.
    let mut running = Vec::new();
    for name in ["a", "b"] {
        let stream = UnixStream::connect(&socket).expect("connect");
        write_request(&mut BufWriter::new(&stream), &Request::Submit(slow.clone())).unwrap();
        let mut reader = BufReader::new(stream);
        let first = read_response(&mut reader).expect("first frame");
        assert!(
            matches!(first, Response::Progress(Progress::Tasks { done: 0, .. })),
            "{name} should be running, got {first:?}"
        );
        running.push((name, reader));
    }
    // C: queued.
    let light = submission(SWEEP_A, 2);
    let stream_c = UnixStream::connect(&socket).expect("connect c");
    write_request(&mut BufWriter::new(&stream_c), &Request::Submit(light)).unwrap();
    let mut reader_c = BufReader::new(&stream_c);
    let first_c = read_response(&mut reader_c).expect("c: first frame");
    assert_eq!(first_c, Response::Progress(Progress::Queued { position: 1 }));

    // Shutdown lands while all three are outstanding.
    assert_eq!(
        service::request(&socket, &Request::Shutdown).expect("shutdown"),
        Response::ShuttingDown
    );

    // Every admitted batch still completes.
    for (name, mut reader) in running {
        let terminal = loop {
            match read_response(&mut reader).expect("response stream") {
                Response::Progress(_) => continue,
                terminal => break terminal,
            }
        };
        assert!(matches!(terminal, Response::Report { .. }), "{name}: {terminal:?}");
    }
    let terminal_c = loop {
        match read_response(&mut reader_c).expect("c: response stream") {
            Response::Progress(_) => continue,
            terminal => break terminal,
        }
    };
    assert!(matches!(terminal_c, Response::Report { .. }), "c: {terminal_c:?}");

    daemon.join().expect("daemon thread");
    let summary = summary_rx.recv().expect("summary");
    assert_eq!(summary.batches, 3, "drain completed all admitted batches");
    assert_eq!(summary.cancelled, 0);
    assert_eq!(summary.rejected, 0);
    assert!(!socket.exists(), "socket removed after the drain");
}

/// A raw submission connection, read one frame at a time.
struct Client {
    stream: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Client {
    fn submit(socket: &std::path::Path, submission: &Submission) -> Client {
        let stream = UnixStream::connect(socket).expect("connect");
        write_request(&mut BufWriter::new(&stream), &Request::Submit(submission.clone()))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Client { stream, reader }
    }

    fn next(&mut self) -> Response {
        read_response(&mut self.reader).expect("response frame")
    }

    /// Sends `cancel` and returns the terminal frame, skipping progress
    /// frames already in flight.
    fn cancel(mut self) -> Response {
        write_request(&mut BufWriter::new(&self.stream), &Request::Cancel).unwrap();
        loop {
            match self.next() {
                Response::Progress(_) => continue,
                terminal => return terminal,
            }
        }
    }
}

/// A daemon at `with_admission(1, 2)` with one slow batch running and
/// two more queued behind it, at positions 1 and 2.
fn full_line(
    tag: &str,
) -> (std::path::PathBuf, std::thread::JoinHandle<ServiceSummary>, [Client; 3]) {
    let socket = temp_socket(tag);
    let config = ServiceConfig::new(&socket).with_admission(1, 2);
    let service = Service::bind(config, None).expect("bind");
    let daemon = std::thread::spawn(move || service.run(|| false).expect("serve"));
    let slow = submission(SLOW_SWEEP, 2);
    let mut running = Client::submit(&socket, &slow);
    assert!(
        matches!(running.next(), Response::Progress(Progress::Tasks { done: 0, .. })),
        "the first client runs"
    );
    let mut first = Client::submit(&socket, &slow);
    assert_eq!(first.next(), Response::Progress(Progress::Queued { position: 1 }));
    let mut second = Client::submit(&socket, &slow);
    assert_eq!(second.next(), Response::Progress(Progress::Queued { position: 2 }));
    (socket, daemon, [running, first, second])
}

#[test]
fn a_queued_cancel_is_acknowledged_frees_its_place_and_moves_the_line_up() {
    let (socket, daemon, [running, first, mut second]) = full_line("queued-cancel.sock");
    let slow = submission(SLOW_SWEEP, 2);
    assert_eq!(
        service::request(&socket, &Request::Submit(slow.clone())).expect("busy"),
        Response::Busy { inflight: 1, queued: 2 },
        "the line is full"
    );

    assert_eq!(first.cancel(), Response::Cancelled, "a queued cancel is acknowledged");
    assert_eq!(
        second.next(),
        Response::Progress(Progress::Queued { position: 1 }),
        "the client behind the cancelled one is told it moved up"
    );
    let mut late = Client::submit(&socket, &slow);
    assert_eq!(
        late.next(),
        Response::Progress(Progress::Queued { position: 2 }),
        "the cancelled client's place is free again"
    );

    for client in [late, second, running] {
        assert_eq!(client.cancel(), Response::Cancelled);
    }
    service::request(&socket, &Request::Shutdown).expect("shutdown");
    let summary = daemon.join().expect("daemon thread");
    assert_eq!(
        summary,
        ServiceSummary { rejected: 1, cancelled: 4, ..ServiceSummary::default() },
        "one busy refusal; four cancellations, none of them completed"
    );
}

#[test]
fn a_queued_client_that_hangs_up_is_abandoned_and_counted_as_cancelled() {
    let (socket, daemon, [running, first, mut second]) = full_line("queued-hangup.sock");
    drop(first);
    assert_eq!(
        second.next(),
        Response::Progress(Progress::Queued { position: 1 }),
        "the hung-up client left the queue"
    );

    for client in [second, running] {
        assert_eq!(client.cancel(), Response::Cancelled);
    }
    service::request(&socket, &Request::Shutdown).expect("shutdown");
    let summary = daemon.join().expect("daemon thread");
    assert_eq!(summary.cancelled, 3, "the hang-up counts as cancelled, beside two cancels");
    assert_eq!((summary.batches, summary.rejected), (0, 0));
}
