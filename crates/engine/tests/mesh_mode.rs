//! Distributed sweep execution's load-bearing contract, pinned end to
//! end against live in-process worker daemons:
//!
//! 1. **Mesh invisibility** — a sweep scattered across two mesh-worker
//!    daemons merges into a report byte-identical (modulo the counter
//!    objects, the same carve-out service mode makes) to a
//!    single-process run of the same batch, at several
//!    (units, workers, shards) points — and the artifact texts are
//!    identical, counters included;
//! 2. **Retry on survivors** — killing one worker mid-sweep still
//!    completes the run with a correct report: the dead worker's units
//!    are requeued and retried on the survivor;
//! 3. **Clean failure** — a mesh whose every worker dies returns an
//!    error naming the unfinished units, never a partial report.
//!
//! The CI `mesh-smoke` job replays the same story against real daemon
//! processes; this test pins it in-process where failures bisect
//! better.

#![expect(clippy::unwrap_used, reason = "test code panics on harness failures by design")]
#![cfg(unix)]

use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};

use chipletqc::lab::CacheHub;
use chipletqc_engine::mesh::{run_mesh, MeshConfig};
use chipletqc_engine::protocol::{Request, Submission};
use chipletqc_engine::report::{strip_counter_objects, RunReport};
use chipletqc_engine::scenario::Scale;
use chipletqc_engine::scheduler::Scheduler;
use chipletqc_engine::service::{
    request_endpoint, Endpoint, Service, ServiceConfig, ServiceSummary,
};
use chipletqc_engine::suite::resolve_batch;
use chipletqc_engine::sweep::Sweep;

const TOKEN: &str = "mesh-mode-test-token";

/// Six scenarios across a grid axis: enough to split interestingly at
/// every unit carve under test, small enough to stay fast at quick
/// scale.
const SWEEP: &str = "name = mesh\n\
                     kind = fig8\n\
                     scale = quick\n\
                     grid = 10q2x2, 10q2x3, 10q2x4, 10q3x2, 10q3x3, 10q4x2\n\
                     batch = 80\n\
                     seed = 19\n";

/// Binds one TCP mesh-worker daemon on a kernel-assigned port and
/// runs it on a thread; returns its address, the join handle, and the
/// channel its drain summary arrives on.
fn spawn_worker(
    tag: &str,
) -> (String, std::thread::JoinHandle<()>, mpsc::Receiver<ServiceSummary>) {
    let config = ServiceConfig::tcp("127.0.0.1:0", TOKEN).as_mesh_worker();
    let worker = Service::bind(config, None).unwrap_or_else(|e| panic!("bind {tag}: {e}"));
    let addr = worker.tcp_addr().expect("bound tcp").to_string();
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        tx.send(worker.run(|| false).expect("worker daemon")).unwrap();
    });
    (addr, handle, rx)
}

/// The single-process baseline the mesh must reproduce.
fn local_baseline(sweep_text: &str) -> RunReport {
    let sweep = Sweep::parse(sweep_text).expect("sweep parses");
    let scenarios =
        resolve_batch(Some(&sweep), Scale::Paper, None, None).expect("batch resolves");
    let hub = CacheHub::new();
    let results = Scheduler::new(2).run(&scenarios, &hub);
    RunReport::from_results(
        &results,
        hub.fabrication_stats(),
        hub.store_stats(),
        hub.peer_stats(),
    )
}

fn shutdown(addr: &str) {
    let endpoint = Endpoint::Tcp { addr: addr.into(), token: TOKEN.into() };
    request_endpoint(&endpoint, &Request::Shutdown).expect("shutdown");
}

#[test]
fn a_meshed_sweep_reproduces_the_local_report_at_several_shapes() {
    let local = local_baseline(SWEEP);
    let (addr_a, thread_a, rx_a) = spawn_worker("worker-a");
    let (addr_b, thread_b, rx_b) = spawn_worker("worker-b");

    // The shapes vary everything the report must be invariant to: the
    // unit carve across the mesh, and each worker's scheduler
    // parallelism and shard split.
    for (units, workers, shards) in [(1, 1, 1), (3, 2, 2), (6, 2, 3)] {
        let submission = Submission {
            sweep_text: Some(SWEEP.into()),
            workers: Some(workers),
            shards: Some(shards),
            ..Submission::default()
        };
        let mut config = MeshConfig::new(vec![addr_a.clone(), addr_b.clone()], TOKEN);
        config.units = Some(units);
        let run = run_mesh(&submission, &config)
            .unwrap_or_else(|e| panic!("mesh run at {units} unit(s): {e}"));
        assert_eq!(run.summary.scenarios, 6);
        assert_eq!(run.summary.units, units);
        assert_eq!(run.summary.dead_workers, 0, "healthy mesh");
        assert_eq!(
            strip_counter_objects(&run.report.to_json()),
            strip_counter_objects(&local.to_json()),
            "mesh report diverged from the local run at {units} unit(s), \
             {workers} worker(s), {shards} shard(s)"
        );
        assert_eq!(
            run.report.artifacts(),
            local.artifacts(),
            "artifact texts must be identical, not merely the report"
        );
    }

    shutdown(&addr_a);
    shutdown(&addr_b);
    thread_a.join().unwrap();
    thread_b.join().unwrap();
    let (summary_a, summary_b) = (rx_a.recv().unwrap(), rx_b.recv().unwrap());
    assert_eq!(summary_a.batches + summary_b.batches, 0, "claims are not batches");
    // 1 + 3 + 6 units across the three shapes, plus any speculative
    // duplicates near each tail.
    assert!(
        summary_a.work_units + summary_b.work_units >= 10,
        "every carve's units were served: {} + {}",
        summary_a.work_units,
        summary_b.work_units
    );
}

/// Relays one connection to `upstream` in both directions until each
/// side closes: a transparent hop in front of a real worker.
fn relay(client: TcpStream, upstream: &str) {
    let server = TcpStream::connect(upstream).expect("dial the worker behind the proxy");
    let (client_read, server_write) =
        (client.try_clone().unwrap(), server.try_clone().unwrap());
    let request_pump = std::thread::spawn(move || {
        let _ = std::io::copy(&mut &client_read, &mut &server_write);
        let _ = server_write.shutdown(Shutdown::Write);
    });
    let _ = std::io::copy(&mut &server, &mut &client);
    let _ = client.shutdown(Shutdown::Write);
    request_pump.join().unwrap();
}

#[test]
fn killing_one_worker_mid_sweep_retries_its_units_on_the_survivor() {
    let local = local_baseline(SWEEP);
    let (addr_a, thread_a, _rx_a) = spawn_worker("survivor");

    // The victim: a proxy in front of a hidden real worker that relays
    // exactly one claim, closes the next three unanswered (the
    // coordinator's failure limit), and then refuses every connection
    // — a mid-sweep death: the first unit is genuinely served, every
    // later claim on the address fails like a crashed host.
    let (hidden_addr, hidden_thread, hidden_rx) = spawn_worker("hidden");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind victim proxy");
    let victim_addr = listener.local_addr().unwrap().to_string();
    let upstream = hidden_addr.clone();
    let (victim_dead, victim_is_dead) = mpsc::channel();
    let proxy_thread = std::thread::spawn(move || {
        let (client, _) = listener.accept().expect("first claim reaches the victim");
        relay(client, &upstream);
        for _ in 0..3 {
            let (failed_claim, _) = listener.accept().expect("the victim claims again");
            drop(failed_claim);
        }
        victim_dead.send(()).unwrap();
        // Dropping the listener here rejects the whole backlog and
        // every later dial: the victim is dead from now on.
    });

    // The survivor sits behind a gate that relays nothing until the
    // victim has failed its three claims. That forces the order with
    // no timing race: the victim is declared dead while units are
    // still undone, and only then does the survivor finish them.
    let gate = TcpListener::bind("127.0.0.1:0").expect("bind survivor gate");
    let gate_addr = gate.local_addr().unwrap().to_string();
    let gate_closing = Arc::new(AtomicBool::new(false));
    let closing = Arc::clone(&gate_closing);
    let survivor = addr_a.clone();
    let gate_thread = std::thread::spawn(move || {
        if victim_is_dead.recv().is_err() {
            return;
        }
        for client in gate.incoming() {
            if closing.load(Ordering::SeqCst) {
                break;
            }
            relay(client.expect("accept a survivor claim"), &survivor);
        }
    });

    let submission = Submission {
        sweep_text: Some(SWEEP.into()),
        workers: Some(2),
        ..Submission::default()
    };
    let mut config = MeshConfig::new(vec![gate_addr.clone(), victim_addr], TOKEN);
    // One unit per scenario: the finest carve, so the victim's death
    // is guaranteed to leave undone units behind for the survivor.
    config.units = Some(6);
    let run = run_mesh(&submission, &config).expect("the survivor must complete the run");

    assert_eq!(
        strip_counter_objects(&run.report.to_json()),
        strip_counter_objects(&local.to_json()),
        "a retried run must still merge the exact local report"
    );
    assert_eq!(run.report.artifacts(), local.artifacts());
    assert_eq!(run.summary.dead_workers, 1, "the victim was declared dead");
    assert!(run.summary.retries >= 1, "its claimed unit(s) were requeued");

    proxy_thread.join().unwrap();
    gate_closing.store(true, Ordering::SeqCst);
    drop(TcpStream::connect(&gate_addr).expect("wake the gate to close it"));
    gate_thread.join().unwrap();
    shutdown(&hidden_addr);
    hidden_thread.join().unwrap();
    assert_eq!(
        hidden_rx.recv().unwrap().work_units,
        1,
        "the victim served exactly one unit before dying — mid-sweep, not before it"
    );
    shutdown(&addr_a);
    thread_a.join().unwrap();
}

#[test]
fn a_mesh_whose_every_worker_dies_fails_cleanly() {
    // A port the kernel assigned and the test released: every claim
    // on it is refused, so the lone worker fails its three claims and
    // is declared dead with every unit still undone.
    let dead = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap().to_string();
    let submission = Submission { sweep_text: Some(SWEEP.into()), ..Submission::default() };
    let mut config = MeshConfig::new(vec![dead], TOKEN);
    config.units = Some(3);
    let Err(error) = run_mesh(&submission, &config) else {
        panic!("a mesh with no live worker returned a report");
    };
    assert_eq!(error, "mesh run failed: 3 of 3 unit(s) unfinished after every worker died");
}
