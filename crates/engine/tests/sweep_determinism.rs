//! The tentpole invariant of sweep-driven sharded execution, pinned as
//! an integration harness:
//!
//! 1. **Expansion determinism** — `expand(sweep)` is order-stable and
//!    duplicate-free;
//! 2. **Schedule invariance** — running a sweep's batch produces a
//!    byte-identical `RunReport` (modulo the stripped
//!    counter/telemetry objects, which carry wall-clock measurements
//!    by design) for every `(workers, shards)` configuration in a
//!    matrix including (1,1), (2,3), and (8,4), across both sharding
//!    mechanisms (system slices for Fig. 8/9, Monte Carlo trial
//!    ranges for the output gain).

use chipletqc::lab::CacheHub;
use chipletqc_engine::report::{strip_counter_objects, RunReport};
use chipletqc_engine::scenario::{ExperimentKind, Overrides, Scale, Scenario, SystemSpec};
use chipletqc_engine::scheduler::Scheduler;
use chipletqc_engine::sweep::Sweep;

/// A reduced design-space sweep: 2 system groups × 2 link ratios at
/// batch 120 (4 fig8 scenarios, one of them a two-system group so
/// system sharding has something to slice).
fn small_sweep() -> Sweep {
    Sweep::parse(
        "name = det\n\
         kind = fig8\n\
         scale = quick\n\
         grid = 10q2x2, 10q2x3+10q3x3\n\
         link_ratio = 1, 2\n\
         batch = 120\n\
         seed = 7\n",
    )
    .expect("sweep parses")
}

/// The sweep's batch plus an output-gain scenario (one task at any
/// shard count) and a multi-system Fig. 9 scenario, so the matrix
/// exercises every plan kind in one report.
fn batch() -> Vec<Scenario> {
    let mut scenarios = small_sweep().expand();
    scenarios.push(Scenario {
        name: "gain".into(),
        kind: ExperimentKind::OutputGain,
        scale: Scale::Quick,
        overrides: Overrides { batch: Some(200), ..Overrides::default() },
    });
    scenarios.push(Scenario {
        name: "fig9".into(),
        kind: ExperimentKind::Fig9,
        scale: Scale::Quick,
        overrides: Overrides {
            batch: Some(120),
            link_ratios: Some(vec![2.0, 1.0]),
            systems: Some(vec![
                SystemSpec { chiplet_qubits: 10, rows: 2, cols: 2 },
                SystemSpec { chiplet_qubits: 10, rows: 3, cols: 3 },
            ]),
            ..Overrides::default()
        },
    });
    scenarios
}

fn report_at(workers: usize, shards: usize) -> String {
    let hub = CacheHub::new();
    let results = Scheduler::new(workers).with_shards(shards).run(&batch(), &hub);
    let json = RunReport::from_results(
        &results,
        hub.fabrication_stats(),
        hub.store_stats(),
        hub.peer_stats(),
    )
    .to_json();
    // The telemetry object holds schedule- and wall-clock-dependent
    // measurements; everything else must be bit-identical.
    strip_counter_objects(&json)
}

#[test]
fn expansion_is_order_stable_and_duplicate_free() {
    let sweep = small_sweep();
    let first = sweep.expand();
    assert_eq!(first.len(), sweep.expanded_len());
    assert_eq!(first, sweep.expand(), "expansion is a pure function of the sweep");

    let mut names: Vec<String> = first.iter().map(|s| s.name.clone()).collect();
    let ordered = names.clone();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), first.len(), "duplicate scenario names in {ordered:?}");

    // Re-parsing the canonical text changes nothing.
    let reparsed = Sweep::parse(&sweep.to_text()).expect("canonical text parses");
    assert_eq!(reparsed.expand(), first);
}

#[test]
fn run_reports_are_bit_identical_across_the_worker_shard_matrix() {
    let baseline = report_at(1, 1);
    assert!(baseline.contains("\"det/g10q2x2_r1_b120_s7\""));
    assert!(baseline.contains("\"gain\""));
    assert!(baseline.contains("\"fig9\""));
    for (workers, shards) in [(1, 4), (2, 1), (2, 3), (8, 4)] {
        let other = report_at(workers, shards);
        assert_eq!(baseline, other, "report changed at workers = {workers}, shards = {shards}");
    }
}
