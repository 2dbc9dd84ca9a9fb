//! The result store's load-bearing contract, pinned end to end:
//!
//! 1. **Cache transparency** — a batch's `RunReport` serializes to
//!    byte-identical JSON for a cold store, a warm store, and no store
//!    at all, apart from the two counter objects (`store`, and
//!    `fabrication`, which a warm store drives to zero);
//! 2. **Warm runs skip fabrication entirely** — the second run over a
//!    shared cache directory executes zero fabrication campaigns and
//!    reads every product, Fig. 10's usage tables included, from the
//!    store: no miss and no write;
//! 3. both hold at every tested `(workers, shards)` pair, and across
//!    *different* shard counts against the same directory;
//! 4. the store holds only the lab's products and the compiled usage
//!    tables, each written once.

use chipletqc::lab::CacheHub;
use chipletqc_engine::report::{strip_counter_objects, RunReport};
use chipletqc_engine::scenario::{ExperimentKind, Overrides, Scale, Scenario, SystemSpec};
use chipletqc_engine::scheduler::Scheduler;
use chipletqc_engine::sweep::Sweep;
use chipletqc_store::{CacheMode, Store, StoreStats};

/// Two fig8 scenarios (one a two-system group) put both fabrication
/// product kinds — KGD bins and monolithic populations — on the path,
/// and a three-system fig10 scenario the usage tables; an output-gain
/// scenario rides along and persists nothing.
fn batch() -> Vec<Scenario> {
    let mut scenarios = Sweep::parse(
        "name = sd\n\
         kind = fig8\n\
         scale = quick\n\
         grid = 10q2x2, 10q2x3+10q3x3\n\
         batch = 120\n\
         seed = 7\n",
    )
    .expect("sweep parses")
    .expand();
    scenarios.push(Scenario {
        name: "gain".into(),
        kind: ExperimentKind::OutputGain,
        scale: Scale::Quick,
        overrides: Overrides { batch: Some(120), ..Overrides::default() },
    });
    scenarios.push(Scenario {
        name: "apps".into(),
        kind: ExperimentKind::Fig10,
        scale: Scale::Quick,
        overrides: Overrides {
            batch: Some(120),
            seed: Some(7),
            systems: Some(vec![
                SystemSpec { chiplet_qubits: 10, rows: 2, cols: 2 },
                SystemSpec { chiplet_qubits: 10, rows: 2, cols: 3 },
                SystemSpec { chiplet_qubits: 20, rows: 1, cols: 2 },
            ]),
            ..Overrides::default()
        },
    });
    // A scenario with a second cache key (different seed), so the test
    // also covers store isolation between configurations.
    scenarios.push(Scenario {
        name: "other-seed".into(),
        kind: ExperimentKind::Fig8,
        scale: Scale::Quick,
        overrides: Overrides {
            batch: Some(120),
            seed: Some(8),
            systems: Some(vec![SystemSpec { chiplet_qubits: 10, rows: 2, cols: 2 }]),
            ..Overrides::default()
        },
    });
    scenarios
}

/// Runs the batch and returns the full report JSON plus the counters.
fn run(workers: usize, shards: usize, hub: &CacheHub) -> (String, usize, StoreStats) {
    let results = Scheduler::new(workers).with_shards(shards).run(&batch(), hub);
    hub.flush_store();
    let fabrication = hub.fabrication_stats().total();
    let json = RunReport::from_results(
        &results,
        hub.fabrication_stats(),
        hub.store_stats(),
        hub.peer_stats(),
    )
    .to_json();
    (json, fabrication, hub.store_stats())
}

/// Removes the two top-level counter objects — exactly the fields the
/// store is allowed to affect — via the engine's shared helper.
fn strip_counters(json: &str) -> String {
    strip_counter_objects(json)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("chipletqc-store-determinism-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn cold_warm_and_off_reports_agree_modulo_counters_at_every_schedule() {
    // The store-less baseline.
    let (off_json, off_fabrications, _) = run(2, 1, &CacheHub::new());
    assert!(off_fabrications > 0);

    for (workers, shards) in [(1, 1), (2, 3)] {
        let dir = temp_dir(&format!("w{workers}s{shards}"));

        let cold_hub = CacheHub::new()
            .with_store(Store::open(&dir, CacheMode::ReadWrite).expect("open store"));
        let (cold_json, cold_fabrications, cold) = run(workers, shards, &cold_hub);
        assert_eq!(
            cold_fabrications, off_fabrications,
            "a cold store must not change how much work runs"
        );
        assert_eq!(cold.hits, 0);
        assert!(cold.writes > 0, "cold run must persist its products");

        // Warm run — same directory, and a *different* shard count
        // than the cold run, so reuse must survive resharding.
        let warm_hub = CacheHub::new()
            .with_store(Store::open(&dir, CacheMode::ReadWrite).expect("open store"));
        let (warm_json, warm_fabrications, warm) = run(workers, shards.max(2) + 1, &warm_hub);
        assert_eq!(
            warm_fabrications, 0,
            "warm run at ({workers}, {shards}) must skip fabrication entirely"
        );
        assert_eq!(
            warm,
            StoreStats { hits: cold.writes, misses: 0, writes: 0, invalid: 0 },
            "warm run at ({workers}, {shards}) must read every product, usage tables included"
        );

        // Byte-identical apart from the counter objects.
        assert_eq!(
            strip_counters(&cold_json),
            strip_counters(&off_json),
            "cold vs off diverged at ({workers}, {shards})"
        );
        assert_eq!(
            strip_counters(&warm_json),
            strip_counters(&off_json),
            "warm vs off diverged at ({workers}, {shards})"
        );
        // And the counters themselves do differ (misses vs hits), so
        // the stripping above is load-bearing.
        assert_ne!(cold_json, warm_json);

        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn an_output_gain_batch_leaves_the_store_empty() {
    let dir = temp_dir("gain");
    let hub = CacheHub::new()
        .with_store(Store::open(&dir, CacheMode::ReadWrite).expect("open store"));
    let gain = Scenario {
        name: "gain".into(),
        kind: ExperimentKind::OutputGain,
        scale: Scale::Quick,
        overrides: Overrides::default(),
    };
    Scheduler::new(2).with_shards(3).run(&[gain], &hub);
    hub.flush_store();
    assert_eq!(hub.store_stats(), StoreStats::default());
    let disk = hub.store().expect("store attached").disk_stats().expect("scan store");
    assert_eq!(disk.entries, 0, "{disk:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_cold_sliced_fig8_batch_writes_each_entry_once() {
    let dir = temp_dir("once");
    let hub = CacheHub::new()
        .with_store(Store::open(&dir, CacheMode::ReadWrite).expect("open store"));
    // Two scenarios of three systems each, so three slices per
    // scenario on two workers race for the shared 10-qubit chiplet
    // bin. They differ only in batch, so they share no entry: each
    // configuration stores one chiplet bin and three populations.
    let scenarios = Sweep::parse(
        "name = once\n\
         kind = fig8\n\
         scale = quick\n\
         grid = 10q2x2+10q2x3+10q3x3\n\
         batch = 120, 240\n\
         seed = 7\n",
    )
    .expect("sweep parses")
    .expand();
    Scheduler::new(2).with_shards(3).run(&scenarios, &hub);
    hub.flush_store();
    let disk = hub.store().expect("store attached").disk_stats().expect("scan store");
    let kinds: Vec<&str> = disk.kinds.iter().map(|(kind, _, _)| kind.as_str()).collect();
    assert_eq!(kinds, ["kgd-bin", "mono-pop"]);
    assert_eq!(hub.store_stats().writes, disk.entries, "an entry was written twice: {disk:?}");
    assert_eq!(
        hub.store_stats(),
        StoreStats { hits: 0, misses: 8, writes: 8, invalid: 0 },
        "a cold batch's store counters are a function of the batch"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_cold_sliced_fig10_batch_writes_each_usage_entry_once() {
    // At two or three slices the 40-qubit monolithic size falls in two
    // slices, so two tasks race for its tables.
    let scenarios = Sweep::parse(
        "name = apps\n\
         kind = fig10\n\
         scale = quick\n\
         grid = 10q2x2+10q2x3+20q1x2\n\
         batch = 120\n\
         seed = 7\n",
    )
    .expect("sweep parses")
    .expand();
    for shards in [2, 3] {
        let dir = temp_dir(&format!("usage-s{shards}"));
        let hub = CacheHub::new()
            .with_store(Store::open(&dir, CacheMode::ReadWrite).expect("open store"));
        Scheduler::new(2).with_shards(shards).run(&scenarios, &hub);
        hub.flush_store();
        let disk = hub.store().expect("store attached").disk_stats().expect("scan store");
        assert_eq!(
            hub.store_stats().writes,
            disk.entries,
            "an entry was written twice: {disk:?}"
        );
        let usage = disk.kinds.iter().find(|(kind, _, _)| kind == "usage");
        // Three modules and the 40- and 60-qubit monolithic devices.
        assert_eq!(usage.map(|(_, entries, _)| *entries), Some(5), "{disk:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn read_mode_serves_hits_but_never_writes_and_off_matches() {
    let dir = temp_dir("modes");
    let cold_hub = CacheHub::new()
        .with_store(Store::open(&dir, CacheMode::ReadWrite).expect("open store"));
    let (baseline, _, _) = run(2, 1, &cold_hub);

    let read_hub =
        CacheHub::new().with_store(Store::open(&dir, CacheMode::Read).expect("open store"));
    let (read_json, read_fabrications, read) = run(2, 1, &read_hub);
    assert_eq!(read_fabrications, 0, "read mode still serves warm products");
    assert!(read.hits > 0);
    assert_eq!(read.writes, 0, "read mode must not write");
    assert_eq!(strip_counters(&read_json), strip_counters(&baseline));

    // Write mode recomputes everything and refreshes the entries.
    let write_hub =
        CacheHub::new().with_store(Store::open(&dir, CacheMode::Write).expect("open store"));
    let (write_json, write_fabrications, write) = run(2, 1, &write_hub);
    assert!(write_fabrications > 0, "write mode never trusts existing entries");
    assert_eq!(write.hits, 0);
    assert!(write.writes > 0);
    assert_eq!(strip_counters(&write_json), strip_counters(&baseline));

    let _ = std::fs::remove_dir_all(&dir);
}
