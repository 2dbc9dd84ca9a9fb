//! Golden-file regression: the canonical `RunReport` JSON of a small
//! sweep — in `strip_counter_objects` form, since the
//! fabrication/store/telemetry objects carry per-run measurements by
//! design — is checked in under `tests/golden/` and every worker
//! *and* shard configuration must reproduce it byte-for-byte —
//! extending the determinism smoke test into a fixture that also
//! catches accidental changes to report contents (schema drift, float
//! formatting, artifact naming, scenario values).
//!
//! A second fixture pins the compile path: the quick Fig. 10 and
//! Table II scenarios, whose numbers change whenever layout, routing
//! or basis lowering emits a different gate sequence. A third pins the
//! yield path: the quick Fig. 4, Fig. 6, Fig. 8 and output-gain
//! scenarios, whose numbers change whenever the Monte Carlo keeps or
//! drops a different device.
//!
//! To regenerate after an *intentional* report change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p chipletqc-engine --test golden
//! ```
//!
//! then re-run without the variable and commit the new fixtures.

use chipletqc::lab::CacheHub;
use chipletqc_engine::report::{strip_counter_objects, RunReport};
use chipletqc_engine::scenario::{Scale, Scenario};
use chipletqc_engine::scheduler::Scheduler;
use chipletqc_engine::suite::resolve_batch;
use chipletqc_engine::sweep::Sweep;

const GOLDEN: &str = include_str!("golden/run_report.json");
const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/run_report.json");
const COMPILE: &str = include_str!("golden/compile_report.json");
const COMPILE_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/compile_report.json");
const YIELD: &str = include_str!("golden/yield_report.json");
const YIELD_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/yield_report.json");

/// The fixture's sweep: two fig8 scenarios (one a two-system group, so
/// shard counts above 1 actually slice something) at quick scale.
fn golden_sweep() -> Sweep {
    Sweep::parse(
        "name = golden\n\
         kind = fig8\n\
         scale = quick\n\
         grid = 10q2x2, 10q2x3+10q3x3\n\
         link_ratio = 1\n\
         batch = 120\n\
         seed = 7\n",
    )
    .expect("golden sweep parses")
}

fn report_at(workers: usize, shards: usize) -> String {
    stripped_report(&golden_sweep().expand(), workers, shards)
}

fn stripped_report(batch: &[Scenario], workers: usize, shards: usize) -> String {
    let hub = CacheHub::new();
    let results = Scheduler::new(workers).with_shards(shards).run(batch, &hub);
    let json = RunReport::from_results(
        &results,
        hub.fabrication_stats(),
        hub.store_stats(),
        hub.peer_stats(),
    )
    .to_json();
    // The fixture holds the stripped form: the counter/telemetry
    // objects are per-run measurements, not deterministic content.
    strip_counter_objects(&json)
}

#[test]
fn run_report_matches_the_checked_in_golden_at_1_2_and_8_workers() {
    let baseline = report_at(1, 1);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &baseline).expect("write golden fixture");
        eprintln!("regenerated {GOLDEN_PATH}; re-run without UPDATE_GOLDEN");
        return;
    }
    for (workers, shards) in [(1, 1), (2, 2), (8, 3)] {
        assert_eq!(
            report_at(workers, shards),
            GOLDEN,
            "report at workers = {workers}, shards = {shards} diverged from tests/golden/run_report.json \
             (if the change is intentional, regenerate with UPDATE_GOLDEN=1)"
        );
    }
}

/// The (workers, shards) points the quick paper fixtures are checked
/// at: the serial run, and a sharded one that slices Fig. 8 and
/// Fig. 10's system sets.
const QUICK_SHAPES: [(usize, usize); 2] = [(1, 1), (2, 3)];

/// The stripped report of the named quick paper scenarios at
/// `(workers, shards)`, or `None` after writing the serial report to
/// `path` under `UPDATE_GOLDEN`.
fn quick_report_or_update(
    only: &[&str],
    path: &str,
    (workers, shards): (usize, usize),
) -> Option<String> {
    let only: Vec<String> = only.iter().map(|s| s.to_string()).collect();
    let batch = resolve_batch(None, Scale::Quick, Some(&only), None).expect("batch resolves");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, stripped_report(&batch, 1, 1)).expect("write fixture");
        eprintln!("regenerated {path}; re-run without UPDATE_GOLDEN");
        return None;
    }
    Some(stripped_report(&batch, workers, shards))
}

#[test]
fn compile_report_matches_the_checked_in_golden() {
    for shape in QUICK_SHAPES {
        let Some(report) = quick_report_or_update(&["fig10", "table2"], COMPILE_PATH, shape)
        else {
            return;
        };
        assert_eq!(
            report, COMPILE,
            "quick Fig. 10 / Table II report at (workers, shards) = {shape:?} diverged from \
             tests/golden/compile_report.json (the compiler emitted different gates; \
             if intentional, regenerate with UPDATE_GOLDEN=1)"
        );
    }
}

#[test]
fn yield_report_matches_the_checked_in_golden() {
    let only = ["fig4", "fig6", "fig8", "output_gain"];
    for shape in QUICK_SHAPES {
        let Some(report) = quick_report_or_update(&only, YIELD_PATH, shape) else {
            return;
        };
        assert_eq!(
            report, YIELD,
            "quick Fig. 4 / Fig. 6 / Fig. 8 / output-gain report at (workers, shards) = \
             {shape:?} diverged from tests/golden/yield_report.json (the Monte Carlo kept or \
             dropped different devices; if intentional, regenerate with UPDATE_GOLDEN=1)"
        );
    }
}
