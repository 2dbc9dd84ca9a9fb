//! Fig. 10: MCM-vs-monolithic application fidelity across the
//! benchmark suite.
//!
//! For every system, each benchmark is generated at 80 % utilization,
//! compiled (layout + SABRE + basis lowering) onto both the MCM and the
//! monolithic topology, and scored by the fidelity product of all
//! two-qubit gates over the respective device populations. The
//! reported quantity is `log10(ESP_MCM / ESP_Mono)` using population
//! geometric means — positive means MCM advantage. Systems whose
//! monolithic counterpart had zero collision-free yield are the
//! paper's red-X points: the MCM is the only way to run the workload.

use std::collections::BTreeMap;

use chipletqc_benchmarks::suite::Benchmark;
use chipletqc_circuit::circuit::Circuit;
use chipletqc_math::logspace::{ln_to_log10, mean_ln};
use chipletqc_math::rng::Seed;
use chipletqc_noise::assign::EdgeNoise;
use chipletqc_topology::evalset::paper_mcms;
use chipletqc_topology::mcm::McmSpec;
use chipletqc_transpile::esp::{edge_usage, esp_from_usage};
use chipletqc_transpile::pipeline::Transpiler;

use crate::lab::{CacheHub, Lab, LabConfig};
use crate::report::TextTable;

/// Fig. 10 configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig10Config {
    /// Lab configuration.
    pub lab: LabConfig,
    /// The benchmarks to map (paper: all seven).
    pub benchmarks: Vec<Benchmark>,
    /// The systems to evaluate (paper: the 102-system set).
    pub systems: Vec<McmSpec>,
    /// The compiler.
    pub transpiler: Transpiler,
    /// Seed for randomized benchmarks (primacy).
    pub circuit_seed: Seed,
}

impl Fig10Config {
    /// The paper's full evaluation: 7 benchmarks × 102 systems.
    pub fn paper() -> Fig10Config {
        Fig10Config {
            lab: LabConfig::paper(),
            benchmarks: Benchmark::ALL.to_vec(),
            systems: paper_mcms(),
            transpiler: Transpiler::paper(),
            circuit_seed: Seed(10),
        }
    }

    /// Reduced: three benchmarks on small systems.
    pub fn quick() -> Fig10Config {
        let systems = paper_mcms()
            .into_iter()
            .filter(|s| s.chiplet().num_qubits() <= 20 && s.num_qubits() <= 120)
            .collect();
        Fig10Config {
            lab: LabConfig::quick(),
            benchmarks: vec![Benchmark::Ghz, Benchmark::Bv, Benchmark::Qaoa],
            systems,
            transpiler: Transpiler::paper(),
            circuit_seed: Seed(10),
        }
    }
}

/// The outcome class of one system × benchmark cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RatioOutcome {
    /// Both populations exist: `log10(ESP_MCM / ESP_Mono)`.
    Finite(f64),
    /// The monolithic counterpart had zero collision-free yield — the
    /// paper's red X (unbounded MCM advantage).
    MonolithicImpossible,
    /// No module could be assembled (only possible with degenerate
    /// batches).
    McmUnavailable,
}

impl RatioOutcome {
    /// The finite value, if any.
    pub fn finite(self) -> Option<f64> {
        match self {
            RatioOutcome::Finite(v) => Some(v),
            _ => None,
        }
    }
}

/// One system × benchmark evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig10Point {
    /// The system.
    pub spec: McmSpec,
    /// Population geometric-mean `log10 ESP` on the MCM.
    pub mcm_esp_log10: Option<f64>,
    /// Population geometric-mean `log10 ESP` on the monolithic device.
    pub mono_esp_log10: Option<f64>,
    /// The comparison outcome.
    pub outcome: RatioOutcome,
}

/// One benchmark's series over all systems.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig10Row {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// One point per system (config order).
    pub points: Vec<Fig10Point>,
}

impl Fig10Row {
    /// The number of red-X systems (zero-yield monolithic).
    pub fn red_x_count(&self) -> usize {
        self.points.iter().filter(|p| p.outcome == RatioOutcome::MonolithicImpossible).count()
    }

    /// The fraction of finite points with MCM advantage
    /// (`log10 ratio > 0`).
    pub fn advantage_fraction(&self) -> f64 {
        let finite: Vec<f64> = self.points.iter().filter_map(|p| p.outcome.finite()).collect();
        if finite.is_empty() {
            return 0.0;
        }
        finite.iter().filter(|v| **v > 0.0).count() as f64 / finite.len() as f64
    }
}

/// The Fig. 10 dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig10Data {
    /// One row per benchmark.
    pub rows: Vec<Fig10Row>,
}

impl Fig10Data {
    /// Merges datasets computed over contiguous slices of one system
    /// set (the engine's intra-scenario shards), in slice order: every
    /// part must carry the same benchmark rows, and each row's points
    /// concatenate in part order — reproducing the single-pass point
    /// order when the slices are contiguous.
    ///
    /// # Panics
    ///
    /// Panics if parts disagree on the benchmark list.
    pub fn merge(parts: impl IntoIterator<Item = Fig10Data>) -> Fig10Data {
        let mut parts = parts.into_iter();
        let Some(mut merged) = parts.next() else {
            return Fig10Data { rows: Vec::new() };
        };
        for part in parts {
            assert_eq!(part.rows.len(), merged.rows.len(), "shard row counts disagree");
            for (row, more) in merged.rows.iter_mut().zip(part.rows) {
                assert_eq!(row.benchmark, more.benchmark, "shard benchmarks disagree");
                row.points.extend(more.points);
            }
        }
        merged
    }

    /// Restriction of the data to square systems (Fig. 10b).
    pub fn squares(&self) -> Fig10Data {
        Fig10Data {
            rows: self
                .rows
                .iter()
                .map(|row| Fig10Row {
                    benchmark: row.benchmark,
                    points: row.points.iter().filter(|p| p.spec.is_square()).copied().collect(),
                })
                .collect(),
        }
    }

    /// Renders one table per benchmark.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            out.push_str(&format!(
                "=== {} ({} red-X systems; MCM advantage on {:.0}% of finite points) ===\n",
                row.benchmark,
                row.red_x_count(),
                100.0 * row.advantage_fraction()
            ));
            let mut table = TextTable::new([
                "chiplet",
                "grid",
                "qubits",
                "log10 ESP (MCM)",
                "log10 ESP (mono)",
                "log10 ratio",
            ]);
            for p in &row.points {
                table.row([
                    p.spec.chiplet().num_qubits().to_string(),
                    format!("{}x{}", p.spec.grid_rows(), p.spec.grid_cols()),
                    p.spec.num_qubits().to_string(),
                    p.mcm_esp_log10.map_or("-".into(), |v| format!("{v:.2}")),
                    p.mono_esp_log10.map_or("-".into(), |v| format!("{v:.2}")),
                    match p.outcome {
                        RatioOutcome::Finite(v) => format!("{v:+.2}"),
                        RatioOutcome::MonolithicImpossible => "X (mono yield 0)".into(),
                        RatioOutcome::McmUnavailable => "no MCM".into(),
                    },
                ]);
            }
            out.push_str(&table.to_string());
            out.push('\n');
        }
        out
    }
}

/// Runs the Fig. 10 evaluation with private caches.
pub fn run(config: &Fig10Config) -> Fig10Data {
    run_in(config, &CacheHub::new())
}

/// Runs the Fig. 10 evaluation sharing fabrication/characterization
/// caches through `hub` (the engine's concurrent-scenario path).
pub fn run_in(config: &Fig10Config, hub: &CacheHub) -> Fig10Data {
    let lab = Lab::new_in(config.lab, hub);
    // Monolithic log10 ESPs, one per benchmark, compiled and scored
    // once per system size (an empty population scores `None` without
    // compiling).
    let mut mono_by_size: BTreeMap<usize, Vec<Option<f64>>> = BTreeMap::new();

    let mut rows: Vec<Fig10Row> = config
        .benchmarks
        .iter()
        .map(|b| Fig10Row { benchmark: *b, points: Vec::new() })
        .collect();

    for spec in &config.systems {
        let qubits = spec.num_qubits();
        let circuits: Vec<Circuit> = config
            .benchmarks
            .iter()
            .map(|b| b.for_device_qubits(qubits, config.circuit_seed))
            .collect();
        let mono_pop = lab.mono_population(qubits);
        let mono_esps = mono_by_size.entry(qubits).or_insert_with(|| {
            if mono_pop.members.is_empty() {
                return vec![None; circuits.len()];
            }
            let device = &mono_pop.device;
            config
                .transpiler
                .transpile_many(&circuits, device)
                .iter()
                .map(|compiled| {
                    let usage = edge_usage(&compiled.physical, device);
                    log10_mean_esp(mono_pop.members.iter().map(|(_, noise)| noise), &usage)
                })
                .collect()
        });
        let selected =
            lab.selected_mcm_count(lab.placement(spec).len(), mono_pop.estimate.survivors);
        let mcms = lab.modules(spec, selected);
        let mcm_device = spec.build();

        let mcm_compiled = config.transpiler.transpile_many(&circuits, &mcm_device);
        for ((row, compiled), &mono_esp_log10) in
            rows.iter_mut().zip(&mcm_compiled).zip(&*mono_esps)
        {
            let usage = edge_usage(&compiled.physical, &mcm_device);
            let mcm_esp_log10 = log10_mean_esp(mcms.iter().map(|m| &m.noise), &usage);
            let point_outcome = match (mcm_esp_log10, mono_esp_log10) {
                (Some(m), Some(o)) => RatioOutcome::Finite(m - o),
                (Some(_), None) => RatioOutcome::MonolithicImpossible,
                _ => RatioOutcome::McmUnavailable,
            };
            row.points.push(Fig10Point {
                spec: *spec,
                mcm_esp_log10,
                mono_esp_log10,
                outcome: point_outcome,
            });
        }
    }
    Fig10Data { rows }
}

/// The population geometric-mean `log10 ESP` of one compiled circuit's
/// edge usage, `None` for an empty population.
fn log10_mean_esp<'a>(
    population: impl Iterator<Item = &'a EdgeNoise>,
    usage: &[u32],
) -> Option<f64> {
    let lns: Vec<f64> = population.map(|noise| esp_from_usage(usage, noise).ln()).collect();
    (!lns.is_empty()).then(|| ln_to_log10(mean_ln(&lns)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_full_grid() {
        let config = Fig10Config::quick();
        let data = run(&config);
        assert_eq!(data.rows.len(), config.benchmarks.len());
        for row in &data.rows {
            assert_eq!(row.points.len(), config.systems.len());
            // ESPs are negative log10 values (fidelity < 1).
            for p in &row.points {
                if let Some(v) = p.mcm_esp_log10 {
                    assert!(v < 0.0, "{}: ESP log10 {v}", p.spec);
                }
            }
        }
        let rendered = data.render();
        assert!(rendered.contains("GHZ"));
        assert!(rendered.contains("log10 ratio"));
    }

    #[test]
    fn squares_filter_keeps_only_squares() {
        let data = run(&Fig10Config::quick());
        let squares = data.squares();
        for row in &squares.rows {
            assert!(row.points.iter().all(|p| p.spec.is_square()));
            assert!(!row.points.is_empty());
        }
    }

    #[test]
    fn merged_shards_equal_the_single_pass_dataset() {
        use crate::lab::CacheHub;
        let config = Fig10Config::quick();
        let full = run(&config);
        let hub = CacheHub::new();
        let parts: Vec<Fig10Data> = config
            .systems
            .chunks(config.systems.len().div_ceil(3))
            .map(|subset| {
                run_in(&Fig10Config { systems: subset.to_vec(), ..config.clone() }, &hub)
            })
            .collect();
        assert_eq!(Fig10Data::merge(parts), full);
        assert!(Fig10Data::merge([]).rows.is_empty());
    }

    #[test]
    fn ratios_are_modest_on_small_systems() {
        // On 40-120 qubit systems both architectures exist and the
        // log10 ratio should be bounded (the extreme values of the
        // paper appear only at hundreds of qubits where ESPs differ by
        // tens of orders of magnitude).
        let data = run(&Fig10Config::quick());
        for row in &data.rows {
            for p in &row.points {
                if let RatioOutcome::Finite(v) = p.outcome {
                    assert!(v.abs() < 200.0, "{}: ratio {v}", p.spec);
                }
            }
        }
    }
}
