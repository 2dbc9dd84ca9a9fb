//! Predefined scenario batches and sweeps.

use crate::scenario::{ExperimentKind, Scale, Scenario};
use crate::sweep::Sweep;

/// The entire paper figure suite (Figs. 3b–10, Table II, output gain)
/// as one scenario batch, in the paper's presentation order.
///
/// Running this batch through the scheduler plus
/// [`RunReport`](crate::report::RunReport) reproduces every figure and
/// table — including the composed headline — with cross-scenario
/// sharing of fabrication and characterization work.
pub fn paper_suite(scale: Scale) -> Vec<Scenario> {
    ExperimentKind::ALL.into_iter().map(|kind| Scenario::new(kind, scale)).collect()
}

/// The checked-in chiplet design-space demo sweep — the identical
/// description the CLI and the CI determinism job run from
/// `examples/sweeps/chiplet_grid.sweep` (grid × link ratio × σ_f ×
/// seed, 24 scenarios at quick scale).
pub fn demo_sweep() -> Sweep {
    Sweep::parse(include_str!("../../../examples/sweeps/chiplet_grid.sweep"))
        .expect("checked-in sweep parses")
}

/// Resolves a batch description — a sweep, or the paper suite at
/// `scale` filtered by `only` — into the scenario list the scheduler
/// runs, with an optional root-seed override applied.
///
/// This is the single definition of "what does this batch run" shared
/// by the one-shot CLI and the service daemon: both paths construct
/// byte-identical suites, which is what makes a daemon-submitted
/// batch's report comparable to a one-shot run of the same batch.
pub fn resolve_batch(
    sweep: Option<&Sweep>,
    scale: Scale,
    only: Option<&[String]>,
    seed: Option<u64>,
) -> Result<Vec<Scenario>, String> {
    let mut suite: Vec<Scenario> = match sweep {
        Some(sweep) => sweep.expand(),
        None => paper_suite(scale),
    };
    if let Some(only) = only {
        for name in only {
            if !suite.iter().any(|s| &s.name == name) {
                return Err(format!("unknown scenario {name} (try --list)"));
            }
        }
        suite.retain(|s| only.contains(&s.name));
    }
    if let Some(seed) = seed {
        for scenario in &mut suite {
            scenario.overrides.seed = Some(seed);
        }
    }
    Ok(suite)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_sweep_expands_to_24_unique_scenarios() {
        let sweep = demo_sweep();
        assert_eq!(sweep.expanded_len(), 24);
        let scenarios = sweep.expand();
        assert_eq!(scenarios.len(), 24);
        let mut names: Vec<&str> = scenarios.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 24);
    }

    #[test]
    fn resolve_batch_matches_the_cli_semantics() {
        // Paper suite, filtered and seed-overridden.
        let only = vec!["fig8".to_string(), "fig9".to_string()];
        let suite = resolve_batch(None, Scale::Quick, Some(&only), Some(9)).unwrap();
        assert_eq!(suite.len(), 2);
        assert!(suite.iter().all(|s| s.overrides.seed == Some(9)));
        // Unknown names are rejected, not silently dropped.
        let missing = vec!["fig8".to_string(), "not-a-scenario".to_string()];
        let error = resolve_batch(None, Scale::Quick, Some(&missing), None).unwrap_err();
        assert!(error.contains("unknown scenario not-a-scenario"), "{error}");
        // A sweep replaces the suite (and ignores scale, like the CLI).
        let sweep = demo_sweep();
        let suite = resolve_batch(Some(&sweep), Scale::Paper, None, None).unwrap();
        assert_eq!(suite, sweep.expand());
    }

    #[test]
    fn suite_covers_every_kind_once() {
        let suite = paper_suite(Scale::Quick);
        assert_eq!(suite.len(), ExperimentKind::ALL.len());
        for (scenario, kind) in suite.iter().zip(ExperimentKind::ALL) {
            assert_eq!(scenario.kind, kind);
            assert_eq!(scenario.name, kind.name());
            assert_eq!(scenario.scale, Scale::Quick);
        }
    }
}
