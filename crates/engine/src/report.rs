//! Structured run reports.
//!
//! A [`RunReport`] aggregates a scenario batch's outputs into one
//! deterministic JSON document (via [`chipletqc::report::Json`]):
//! scenario descriptions, key metrics, rendered artifacts, the
//! composed headline, and the hub's fabrication counters. Nothing
//! schedule-dependent (timings, worker counts, thread ids) enters the
//! document, so a batch serializes to bit-identical bytes at any
//! worker count — the contract the engine's determinism tests pin
//! down. Timings are reported separately by [`timing_summary`].

use chipletqc::experiments::headline::Headline;
use chipletqc::lab::FabricationStats;
use chipletqc::report::Json;
use chipletqc_store::remote::PeerStats;
use chipletqc_store::StoreStats;

use crate::scenario::ExperimentData;
use crate::scheduler::ScenarioResult;

/// Report format version (bump on breaking shape changes).
///
/// Version history: 1 — initial; 2 — top-level `store` object
/// (persistent result-store session counters); 3 — `peer` object
/// nested in `store` (peer-tier transport counters); 4 — top-level
/// `telemetry` object (the process-wide observability snapshot).
pub const REPORT_SCHEMA: u64 = 4;

/// The deterministic report of one scenario batch.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    json: Json,
    artifacts: Vec<(String, String)>,
}

/// One scenario's fully-rendered contribution to a report: the
/// serialization-ready form [`RunReport::from_entries`] assembles
/// documents from. [`RunReport::from_results`] derives entries from
/// in-process results; the mesh merger rebuilds the *same* entries
/// from worker-returned pieces (with `metrics` spliced as
/// [`Json::Raw`] pretty text), which is what makes a scattered run's
/// report byte-identical to a local one.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportEntry {
    /// The scenario's batch index (drives the artifact-name
    /// collision fallback).
    pub index: usize,
    /// The scenario name.
    pub name: String,
    /// The experiment kind's canonical name.
    pub kind_name: String,
    /// The scale's canonical name.
    pub scale_name: String,
    /// The scenario overrides, already rendered.
    pub overrides: Json,
    /// The experiment metrics, already rendered.
    pub metrics: Json,
    /// Raw artifact `(name, contents)` pairs, pre-uniquing.
    pub artifacts: Vec<(String, String)>,
}

impl RunReport {
    /// Builds the report from a batch's results and the hub counters.
    ///
    /// When the batch contains Fig. 8 and Fig. 9 results, the paper's
    /// headline numbers are composed from them (plus Fig. 10 when
    /// present).
    ///
    /// The `store` counters come from the hub's persistent result
    /// store ([`chipletqc::lab::CacheHub::store_stats`]; zeros when no
    /// store is attached, so the report's shape never depends on cache
    /// configuration). They — and the fabrication counters, which a
    /// warm store drives to zero — are the only fields that may differ
    /// between a cold run, a warm run, and a store-less run of the
    /// same batch; everything else is bit-identical.
    pub fn from_results(
        results: &[ScenarioResult],
        stats: FabricationStats,
        store: StoreStats,
        peer: PeerStats,
    ) -> RunReport {
        let entries = results
            .iter()
            .map(|result| ReportEntry {
                index: result.index,
                name: result.scenario.name.clone(),
                kind_name: result.scenario.kind.name().to_string(),
                scale_name: result.scenario.scale.name().to_string(),
                overrides: result.scenario.overrides.to_json(),
                metrics: result.data.metrics(),
                artifacts: result.data.artifacts(),
            })
            .collect();
        RunReport::from_entries(entries, compose_headline(results), stats, store, peer)
    }

    /// Builds the report from pre-rendered [`ReportEntry`]s — the
    /// common constructor under [`RunReport::from_results`] and the
    /// mesh merger. Entries must be in batch order; serialization is a
    /// pure function of them plus the headline and counters, so any
    /// path producing identical entries produces identical bytes.
    pub fn from_entries(
        entries: Vec<ReportEntry>,
        headline: Option<Headline>,
        stats: FabricationStats,
        store: StoreStats,
        peer: PeerStats,
    ) -> RunReport {
        let mut artifacts: Vec<(String, String)> = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        let mut scenarios = Vec::new();
        for entry in entries {
            // Scenarios keep the historical bare file names only when
            // they are the kind's canonical instance; renamed
            // scenarios (sweep expansions, custom batches) always
            // prefix their scenario name so every artifact is
            // attributable by file name alone, with an index fallback
            // should scenario names themselves collide. The fallback
            // *re-checks* the taken set and keeps prepending the index
            // until the name is free — a scenario literally named like
            // an earlier fallback (e.g. `2-a` next to two `a`s) must
            // not silently overwrite its artifact on disk.
            let canonical = entry.name == entry.kind_name;
            let files: Vec<(String, String)> = entry
                .artifacts
                .into_iter()
                .map(|(name, contents)| {
                    let mut unique =
                        if canonical { name } else { format!("{}-{}", entry.name, name) };
                    while !seen.insert(unique.clone()) {
                        // Deterministic and terminating: the name
                        // grows every round.
                        unique = format!("{}-{}", entry.index, unique);
                    }
                    (unique, contents)
                })
                .collect();
            scenarios.push(
                Json::obj()
                    .field("name", entry.name)
                    .field("kind", entry.kind_name)
                    .field("scale", entry.scale_name)
                    .field("overrides", entry.overrides)
                    .field("metrics", entry.metrics)
                    .field(
                        "artifacts",
                        Json::Arr(
                            files.iter().map(|(name, _)| Json::Str(name.clone())).collect(),
                        ),
                    ),
            );
            artifacts.extend(files);
        }

        let headline_json = match &headline {
            None => Json::Null,
            Some(h) => Json::obj()
                .field("min_yield_improvement", h.min_yield_improvement)
                .field("max_yield_improvement", h.max_yield_improvement)
                .field("best_eavg_ratio", h.best_eavg_ratio)
                .field("equal_link_advantage_fraction", h.equal_link_advantage_fraction)
                .field("benchmark_advantage_fraction", h.benchmark_advantage_fraction),
        };
        if let Some(h) = &headline {
            artifacts.push(("headline.txt".to_string(), h.render()));
        }

        let json = Json::obj()
            .field("schema", REPORT_SCHEMA)
            .field("scenarios", Json::Arr(scenarios))
            .field("headline", headline_json)
            .field(
                "fabrication",
                Json::obj()
                    .field("chiplet_campaigns", stats.chiplet_fabrications)
                    .field("mono_campaigns", stats.mono_fabrications),
            )
            .field(
                "store",
                Json::obj()
                    .field("hits", store.hits)
                    .field("misses", store.misses)
                    .field("writes", store.writes)
                    .field("invalid", store.invalid)
                    .field(
                        "peer",
                        Json::obj()
                            .field("hits", peer.hits)
                            .field("misses", peer.misses)
                            .field("errors", peer.errors)
                            .field("trips", peer.trips)
                            .field("dials", peer.dials)
                            .field("reused", peer.reused)
                            .field("pushes", peer.pushes),
                    ),
            )
            .field("telemetry", telemetry_json())
            .field(
                "artifact_contents",
                Json::Obj(
                    artifacts
                        .iter()
                        .map(|(name, contents)| (name.clone(), Json::Str(contents.clone())))
                        .collect(),
                ),
            );
        RunReport { json, artifacts }
    }

    /// The report as pretty-printed deterministic JSON.
    pub fn to_json(&self) -> String {
        self.json.to_json_pretty()
    }

    /// The rendered artifact files `(name, contents)`, including
    /// `headline.txt` when composable.
    pub fn artifacts(&self) -> &[(String, String)] {
        &self.artifacts
    }
}

/// Serializes the process-wide observability registry
/// ([`chipletqc_obs::snapshot`]) as the report's `telemetry` object:
/// counters and gauges by name, histograms as `{count, sum_us, p50_us,
/// p90_us, max_us}`. Everything in here is schedule- and
/// wall-clock-dependent — per-worker pick counts, latency percentiles
/// — so the object lives alongside `fabrication`/`store` in the set
/// [`strip_counter_objects`] removes before byte-identity comparisons.
pub fn telemetry_json() -> Json {
    let snap = chipletqc_obs::snapshot();
    Json::obj()
        .field(
            "counters",
            Json::Obj(
                snap.counters.into_iter().map(|(name, v)| (name, Json::from(v))).collect(),
            ),
        )
        .field(
            "gauges",
            Json::Obj(snap.gauges.into_iter().map(|(name, v)| (name, Json::from(v))).collect()),
        )
        .field(
            "histograms",
            Json::Obj(
                snap.histograms
                    .into_iter()
                    .map(|(name, h)| {
                        (
                            name,
                            Json::obj()
                                .field("count", h.count)
                                .field("sum_us", h.sum_us)
                                .field("p50_us", h.p50_us)
                                .field("p90_us", h.p90_us)
                                .field("max_us", h.max_us),
                        )
                    })
                    .collect(),
            ),
        )
}

/// Composes the paper's headline from a batch containing Fig. 8 and
/// Fig. 9 (and optionally Fig. 10) results.
pub fn compose_headline(results: &[ScenarioResult]) -> Option<Headline> {
    let fig8 = results.iter().find_map(|r| match &r.data {
        ExperimentData::Fig8(d) => Some(d),
        _ => None,
    })?;
    let fig9 = results.iter().find_map(|r| match &r.data {
        ExperimentData::Fig9(d) => Some(d),
        _ => None,
    })?;
    let fig10 = results.iter().find_map(|r| match &r.data {
        ExperimentData::Fig10(d) => Some(d),
        _ => None,
    });
    Some(Headline::from_data(fig8, fig9, fig10))
}

/// The service daemon's timing header for one submission: the
/// ordinary [`timing_summary`] under a `batch N` heading, so a
/// client's log lines stay attributable to their submission when a
/// daemon serves many. Schedule-dependent, like every timing — never
/// part of [`RunReport`].
pub fn batch_timing_summary(batch: u64, results: &[ScenarioResult], workers: usize) -> String {
    format!("batch {batch}: {}", timing_summary(results, workers))
}

/// Removes the top-level `fabrication`, `store`, and `telemetry`
/// objects from a pretty-printed report — exactly the fields cache
/// state (a cold store, a warm store, no store, or in service mode a
/// warm hub) and the live observability registry (latency histograms,
/// per-worker counters — schedule-dependent by nature) are allowed to
/// affect. Two runs of the same batch must agree on the rest
/// byte-for-byte; the determinism tests and CI jobs compare reports
/// through this filter.
///
/// # Panics
///
/// Panics if the input does not contain all three objects in
/// [`RunReport::to_json`]'s pretty-printed shape — stripping nothing
/// would silently weaken the comparison.
pub fn strip_counter_objects(json: &str) -> String {
    let mut out = String::new();
    let mut stripped = 0;
    let mut skipping = false;
    for line in json.lines() {
        if line == "  \"fabrication\": {"
            || line == "  \"store\": {"
            || line == "  \"telemetry\": {"
        {
            skipping = true;
            stripped += 1;
            continue;
        }
        if skipping {
            if line == "  }," || line == "  }" {
                skipping = false;
            }
            continue;
        }
        out.push_str(line);
        out.push('\n');
    }
    assert!(!skipping, "counter object never closed");
    assert_eq!(stripped, 3, "expected all three counter objects in a report");
    out
}

/// A human-readable (schedule-dependent) timing summary: per-scenario
/// wall clock plus the batch total. Never part of [`RunReport`].
pub fn timing_summary(results: &[ScenarioResult], workers: usize) -> String {
    let mut out = format!("{} scenario(s) on {} worker(s)\n", results.len(), workers);
    let mut total = 0.0;
    for result in results {
        let secs = result.wall.as_secs_f64();
        total += secs;
        out.push_str(&format!("  {:<24} {:>9.3}s\n", result.scenario.name, secs));
    }
    out.push_str(&format!("  {:<24} {:>9.3}s (sum of scenario times)\n", "total", total));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ExperimentKind, Overrides, Scale, Scenario, SystemSpec};
    use crate::scheduler::Scheduler;
    use chipletqc::lab::CacheHub;

    fn tiny_batch() -> Vec<Scenario> {
        let overrides = Overrides {
            batch: Some(100),
            systems: Some(vec![SystemSpec { chiplet_qubits: 10, rows: 2, cols: 2 }]),
            ..Overrides::default()
        };
        vec![
            Scenario {
                name: "fig8".into(),
                kind: ExperimentKind::Fig8,
                scale: Scale::Quick,
                overrides: overrides.clone(),
            },
            Scenario {
                name: "fig9".into(),
                kind: ExperimentKind::Fig9,
                scale: Scale::Quick,
                overrides,
            },
        ]
    }

    #[test]
    fn report_includes_headline_and_artifacts() {
        let hub = CacheHub::new();
        let results = Scheduler::new(2).run(&tiny_batch(), &hub);
        let report = RunReport::from_results(
            &results,
            hub.fabrication_stats(),
            hub.store_stats(),
            hub.peer_stats(),
        );
        let json = report.to_json();
        assert!(json.contains("\"schema\": 4"));
        assert!(json.contains("\"headline\""));
        // The telemetry snapshot rides along in every report.
        assert!(json.contains("\"telemetry\": {"));
        assert!(json.contains("\"histograms\""));
        assert!(json.contains("\"best_eavg_ratio\""));
        // The store object is present (zeroed) even without a store.
        assert!(json.contains("\"store\""));
        assert!(json.contains("\"hits\": 0"));
        let names: Vec<&str> = report.artifacts().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["fig8.txt", "fig9.txt", "headline.txt"]);
        let summary = timing_summary(&results, 2);
        assert!(summary.contains("fig9"));
        assert!(summary.contains("total"));
    }

    #[test]
    fn colliding_artifact_names_are_namespaced() {
        // Two scenarios of the same kind both emit "fig8.txt"; the
        // report must keep both, not silently overwrite one.
        let hub = CacheHub::new();
        let mut batch = tiny_batch();
        batch[1] = Scenario { name: "fig8-again".into(), ..batch[0].clone() };
        let results = Scheduler::new(2).run(&batch, &hub);
        let report = RunReport::from_results(
            &results,
            hub.fabrication_stats(),
            hub.store_stats(),
            hub.peer_stats(),
        );
        let names: Vec<&str> = report.artifacts().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["fig8.txt", "fig8-again-fig8.txt"]);
        assert_eq!(
            report.artifacts()[0].1,
            report.artifacts()[1].1,
            "same scenario, same data"
        );
    }

    #[test]
    fn index_fallback_rechecks_the_taken_set() {
        // Regression: scenarios `2-a`, `a`, `a` (all the same kind).
        // The duplicate at index 2 falls back to `2-a-fig8.txt` —
        // which the *scenario named* `2-a` already owns. The old code
        // inserted it anyway, and the engine then wrote the same path
        // twice, silently overwriting the first artifact.
        let hub = CacheHub::new();
        let base = tiny_batch().remove(0);
        let batch = vec![
            Scenario { name: "2-a".into(), ..base.clone() },
            Scenario { name: "a".into(), ..base.clone() },
            Scenario { name: "a".into(), ..base },
        ];
        let results = Scheduler::new(2).run(&batch, &hub);
        let report = RunReport::from_results(
            &results,
            hub.fabrication_stats(),
            hub.store_stats(),
            hub.peer_stats(),
        );
        let names: Vec<&str> = report.artifacts().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["2-a-fig8.txt", "a-fig8.txt", "2-2-a-fig8.txt"]);
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len(), "artifact names must be unique");
    }

    #[test]
    fn strip_counter_objects_removes_exactly_the_counters() {
        let hub = CacheHub::new();
        let results = Scheduler::new(2).run(&tiny_batch(), &hub);
        let report = RunReport::from_results(
            &results,
            hub.fabrication_stats(),
            hub.store_stats(),
            hub.peer_stats(),
        );
        let json = report.to_json();
        let stripped = strip_counter_objects(&json);
        assert!(!stripped.contains("\"fabrication\""));
        assert!(!stripped.contains("\"store\""));
        assert!(!stripped.contains("\"telemetry\""));
        assert!(stripped.contains("\"scenarios\""));
        assert!(stripped.contains("\"artifact_contents\""));
        // Reports that differ only in counters agree after stripping —
        // the comparison every cache-transparency test relies on.
        let zeroed = RunReport::from_results(
            &results,
            FabricationStats::default(),
            StoreStats::default(),
            PeerStats::default(),
        );
        assert_ne!(zeroed.to_json(), json);
        assert_eq!(strip_counter_objects(&zeroed.to_json()), stripped);
        // A nested peer object with non-zero counters strips with the
        // rest of `store` — its deeper close brace must not end the
        // skip early and leak counter lines into the comparison.
        let peered = RunReport::from_results(
            &results,
            hub.fabrication_stats(),
            hub.store_stats(),
            PeerStats {
                hits: 3,
                misses: 1,
                errors: 2,
                trips: 1,
                dials: 4,
                reused: 9,
                pushes: 5,
            },
        );
        assert!(peered.to_json().contains("\"peer\""));
        assert!(peered.to_json().contains("\"reused\": 9"));
        assert_eq!(strip_counter_objects(&peered.to_json()), stripped);
    }

    #[test]
    fn batch_timing_summary_prefixes_the_batch_id() {
        let hub = CacheHub::new();
        let results = Scheduler::new(2).run(&tiny_batch()[..1], &hub);
        let timing = batch_timing_summary(7, &results, 2);
        assert!(timing.starts_with("batch 7: 1 scenario(s) on 2 worker(s)"), "{timing}");
        assert!(timing.contains("fig8"));
    }

    #[test]
    fn headline_needs_fig8_and_fig9() {
        let hub = CacheHub::new();
        let results = Scheduler::new(1).run(&tiny_batch()[..1], &hub);
        assert!(compose_headline(&results).is_none());
        let report = RunReport::from_results(
            &results,
            hub.fabrication_stats(),
            hub.store_stats(),
            hub.peer_stats(),
        );
        assert!(report.to_json().contains("\"headline\": null"));
    }
}
