//! Remote service mode's load-bearing contract, pinned end to end:
//!
//! 1. **Warm peers make cold hosts free** — a cold daemon whose store
//!    points at a warm peer (`--store-peer`) completes a sweep with
//!    **zero fabrication campaigns**: every KGD bin and mono
//!    population arrives over the wire, and the cold host's own store
//!    is warm afterwards (read-through populate);
//! 2. **Transport invisibility** — the same batch submitted over the
//!    Unix socket and over authenticated TCP answers with
//!    byte-identical `RunReport` JSON (and, between two warm
//!    submissions, identical bytes *including* the counter objects);
//! 3. the raw store peer verbs (`store-get`/`store-put`/`store-list`)
//!    round-trip against a live daemon through a
//!    [`RemoteBackend`](chipletqc_store::remote::RemoteBackend).
//!
//! The CI `remote-smoke` job replays the same story against real
//! daemon processes; this test pins it in-process where failures
//! bisect better.

#![cfg(unix)]

use std::sync::mpsc;
use std::sync::Arc;

use chipletqc_engine::protocol::{Request, Response, Submission};
use chipletqc_engine::report::strip_counter_objects;
use chipletqc_engine::service::{Endpoint, Service, ServiceConfig, ServiceSummary};
use chipletqc_store::backend::{Backend, Lookup};
use chipletqc_store::envelope::Encoding;
use chipletqc_store::remote::RemoteBackend;
use chipletqc_store::{CacheMode, EntryKey, Store};

const TOKEN: &str = "remote-mode-test-token";

/// fig8 exercises both persisted products (KGD bins and mono
/// populations); output_gain persists nothing, so its reports must
/// match with no store traffic at all.
const FIG8_SWEEP: &str = "name = rm\n\
                          kind = fig8\n\
                          scale = quick\n\
                          grid = 10q2x2, 10q2x3\n\
                          batch = 120\n\
                          seed = 7\n";
const OG_SWEEP: &str =
    "name = rmog\nkind = output_gain\nscale = quick\nbatch = 120\nseed = 7\n";

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("chipletqc-remote-{tag}-{}", std::process::id()))
}

fn submit(endpoint: &Endpoint, sweep: &str) -> String {
    let submission = Submission {
        sweep_text: Some(sweep.into()),
        workers: Some(2),
        ..Submission::default()
    };
    match chipletqc_engine::service::request_endpoint(endpoint, &Request::Submit(submission))
        .expect("submit")
    {
        Response::Report { report, .. } => report,
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
fn a_cold_daemon_with_a_warm_store_peer_fabricates_nothing() {
    let warm_dir = temp_path("warm-store");
    let cold_dir = temp_path("cold-store");
    let cold_socket = temp_path("cold.sock");
    for dir in [&warm_dir, &cold_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }

    // The warm daemon: authenticated TCP (kernel-assigned port) plus a
    // Unix socket, store-backed.
    let warm_socket = temp_path("warm.sock");
    let warm_store = Store::open(&warm_dir, CacheMode::ReadWrite).expect("open warm store");
    let warm_config = ServiceConfig::new(&warm_socket).with_listen("127.0.0.1:0", TOKEN);
    let warm = Service::bind(warm_config, Some(warm_store)).expect("bind warm daemon");
    let warm_addr = warm.tcp_addr().expect("warm daemon bound tcp").to_string();
    let (warm_tx, warm_rx) = mpsc::channel::<ServiceSummary>();
    let warm_thread = std::thread::spawn(move || {
        warm_tx.send(warm.run(|| false).expect("warm daemon")).unwrap();
    });
    let warm_tcp = Endpoint::Tcp { addr: warm_addr.clone(), token: TOKEN.into() };
    let warm_unix = Endpoint::Unix(warm_socket.clone());

    // Warm the peer over TCP: these cold submissions fabricate and
    // persist, and their reports are the baseline every later
    // transport and host must match byte for byte (modulo counters).
    let baseline_fig8 = submit(&warm_tcp, FIG8_SWEEP);
    let baseline_og = submit(&warm_tcp, OG_SWEEP);
    assert!(counter(&baseline_fig8, "chiplet_campaigns") > 0, "cold submission fabricates");
    assert!(counter(&baseline_fig8, "writes") > 0, "cold submission persists its products");

    // Transport invisibility: the same (now warm) batch over Unix and
    // over TCP answers with identical report bytes (modulo the
    // stripped counter/telemetry measurements) — zero fabrication,
    // zero store traffic, every product from daemon memory, nothing
    // transport-dependent anywhere.
    let warm_over_unix = submit(&warm_unix, FIG8_SWEEP);
    let warm_over_tcp = submit(&warm_tcp, FIG8_SWEEP);
    assert_eq!(
        strip_counter_objects(&warm_over_unix),
        strip_counter_objects(&warm_over_tcp),
        "transport leaked into the report"
    );
    assert_eq!(counter(&warm_over_tcp, "chiplet_campaigns"), 0);
    assert_eq!(
        strip_counter_objects(&warm_over_tcp),
        strip_counter_objects(&baseline_fig8),
        "warm submission diverged from the cold baseline"
    );

    // The cold daemon: its own empty store, peered at the warm daemon.
    let peer = Arc::new(RemoteBackend::new(warm_addr.clone(), Some(TOKEN.into())));
    let cold_store = Store::open(&cold_dir, CacheMode::ReadWrite)
        .expect("open cold store")
        .with_peer(Arc::clone(&peer) as Arc<dyn Backend>);
    let cold =
        Service::bind(ServiceConfig::new(&cold_socket), Some(cold_store)).expect("bind cold");
    let (cold_tx, cold_rx) = mpsc::channel::<ServiceSummary>();
    let cold_thread = std::thread::spawn(move || {
        cold_tx.send(cold.run(|| false).expect("cold daemon")).unwrap();
    });
    let cold_unix = Endpoint::Unix(cold_socket.clone());

    // THE acceptance assertion: the cold host completes both sweeps
    // with zero fabrication campaigns — every product crossed the wire
    // — and reports byte-identical to the warm host's, modulo the
    // counter objects.
    for (sweep, baseline) in [(FIG8_SWEEP, &baseline_fig8), (OG_SWEEP, &baseline_og)] {
        let report = submit(&cold_unix, sweep);
        assert_eq!(counter(&report, "chiplet_campaigns"), 0, "cold host fabricated chiplets");
        assert_eq!(counter(&report, "mono_campaigns"), 0, "cold host fabricated monoliths");
        if sweep == FIG8_SWEEP {
            assert!(counter(&report, "hits") > 0, "products must arrive through the store");
        }
        assert_eq!(
            strip_counter_objects(&report),
            strip_counter_objects(baseline),
            "cold-host report diverged from the warm host's"
        );
    }
    assert!(peer.stats().hits > 0, "the peer tier served the products");

    // Read-through populate: the cold host's own store is warm now. A
    // fresh, peer-LESS store over the same directory proves it by
    // serving fig8 locally — zero fabrications again, no peer in
    // sight.
    chipletqc_engine::service::request(&cold_socket, &Request::Shutdown).expect("shutdown");
    cold_thread.join().unwrap();
    let cold_summary = cold_rx.recv().unwrap();
    assert_eq!(cold_summary.batches, 2);
    let populated = Store::open(&cold_dir, CacheMode::ReadWrite).expect("reopen cold store");
    assert!(
        !populated.serve_peer_list().expect("list populated store").is_empty(),
        "read-through must have populated the cold store"
    );
    let local_socket = temp_path("local.sock");
    let local = Service::bind(ServiceConfig::new(&local_socket), Some(populated))
        .expect("bind local daemon");
    let local_thread = std::thread::spawn(move || local.run(|| false).expect("local daemon"));
    let report = submit(&Endpoint::Unix(local_socket.clone()), FIG8_SWEEP);
    assert_eq!(counter(&report, "chiplet_campaigns"), 0, "populated store must serve locally");
    assert_eq!(strip_counter_objects(&report), strip_counter_objects(&baseline_fig8));
    chipletqc_engine::service::request(&local_socket, &Request::Shutdown).expect("shutdown");
    local_thread.join().unwrap();

    // The raw peer verbs round-trip against the live warm daemon.
    let key = EntryKey::new("remote-mode-test", "kgd-bin", "10q");
    assert_eq!(peer.get(&key), Lookup::Miss);
    peer.put(&key, Encoding::Json, br#"{"probe":true}"#).expect("store-put");
    assert_eq!(
        peer.get(&key),
        Lookup::Hit { encoding: Encoding::Json, payload: br#"{"probe":true}"#.to_vec() }
    );
    assert!(
        peer.list().expect("store-list").contains(&key),
        "store-list must include the pushed key"
    );

    // Drain the warm daemon and account for everything it served.
    assert_eq!(
        chipletqc_engine::service::request_endpoint(&warm_tcp, &Request::Shutdown)
            .expect("shutdown"),
        Response::ShuttingDown
    );
    warm_thread.join().unwrap();
    let warm_summary = warm_rx.recv().unwrap();
    assert_eq!(warm_summary.batches, 4);
    assert_eq!(warm_summary.rejected, 0);
    assert!(warm_summary.store_requests > 0, "the warm daemon served store peers");
    assert_eq!(warm_summary.dropped_replies, 0);

    for dir in [&warm_dir, &cold_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}
