//! Scenario descriptions: an experiment kind plus parameter overrides.
//!
//! A [`Scenario`] turns a paper experiment into *data*: it names
//! an experiment, a scale, and a set of overrides (batch, seed, link
//! ratios, chiplet/system limits, topology grid, comparison mode,
//! fabrication precision), and [`Scenario::run`] materializes the
//! experiment configuration and executes it against a shared
//! [`CacheHub`]. Scenarios are plain data — the scheduler can ship
//! them to any worker thread and the result depends only on the
//! scenario, never on where or when it ran.

use chipletqc::experiments::{fig10, fig3b, fig4, fig6, fig7, fig8, fig9, output_gain, table2};
use chipletqc::lab::{CacheHub, ComparisonMode, LabConfig};
use chipletqc::report::Json;
use chipletqc_math::rng::Seed;
use chipletqc_topology::family::ChipletSpec;
use chipletqc_topology::mcm::McmSpec;
use chipletqc_topology::plan::FrequencyPlan;

/// Run scale for a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Reduced batches/systems; seconds per scenario.
    #[default]
    Quick,
    /// The paper's batches and system sets.
    Paper,
}

impl Scale {
    /// A lowercase label for reports.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Paper => "paper",
        }
    }
}

/// The experiment a scenario runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExperimentKind {
    /// Fig. 3(b): fleet CX-infidelity calibration summaries.
    Fig3b,
    /// Fig. 4: yield vs. qubits across detuning steps and σ_f.
    Fig4,
    /// Fig. 6: MCM configuration counts.
    Fig6,
    /// Fig. 7: CX infidelity vs. detuning (Washington).
    Fig7,
    /// Fig. 8: monolithic vs. MCM yield curves.
    Fig8,
    /// Fig. 9: `E_avg` ratio heatmaps across link-error ratios.
    Fig9,
    /// Fig. 10: per-benchmark fidelity-product ratios.
    Fig10,
    /// Table II: compiled benchmark gate counts.
    Table2,
    /// §V-C / Eq. 1: fabrication-output gain.
    OutputGain,
}

impl ExperimentKind {
    /// Every kind, in the order the paper presents them.
    pub const ALL: [ExperimentKind; 9] = [
        ExperimentKind::Fig3b,
        ExperimentKind::Fig4,
        ExperimentKind::Fig6,
        ExperimentKind::Fig7,
        ExperimentKind::Fig8,
        ExperimentKind::Fig9,
        ExperimentKind::Fig10,
        ExperimentKind::Table2,
        ExperimentKind::OutputGain,
    ];

    /// The canonical lowercase name (also the default scenario name).
    pub fn name(self) -> &'static str {
        match self {
            ExperimentKind::Fig3b => "fig3b",
            ExperimentKind::Fig4 => "fig4",
            ExperimentKind::Fig6 => "fig6",
            ExperimentKind::Fig7 => "fig7",
            ExperimentKind::Fig8 => "fig8",
            ExperimentKind::Fig9 => "fig9",
            ExperimentKind::Fig10 => "fig10",
            ExperimentKind::Table2 => "table2",
            ExperimentKind::OutputGain => "output_gain",
        }
    }

    /// Parses a kind from its [`ExperimentKind::name`].
    pub fn parse(name: &str) -> Option<ExperimentKind> {
        ExperimentKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// A system description for overriding the evaluated MCM set: chiplet
/// size plus module grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemSpec {
    /// Qubits per chiplet (must be a catalog size).
    pub chiplet_qubits: usize,
    /// Module grid rows.
    pub rows: usize,
    /// Module grid columns.
    pub cols: usize,
}

impl SystemSpec {
    /// Builds the MCM spec.
    ///
    /// # Panics
    ///
    /// Panics if `chiplet_qubits` is not a catalog chiplet size.
    pub fn build(&self) -> McmSpec {
        let chiplet = ChipletSpec::with_qubits(self.chiplet_qubits)
            .unwrap_or_else(|e| panic!("chiplet size {}: {e}", self.chiplet_qubits));
        McmSpec::new(chiplet, self.rows, self.cols)
    }
}

/// Parameter overrides applied on top of a scale's base configuration.
///
/// `None` everywhere (the default) reproduces the paper's
/// configuration at the chosen scale exactly.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Overrides {
    /// Monte Carlo batch size.
    pub batch: Option<usize>,
    /// Root seed.
    pub seed: Option<u64>,
    /// `e_link/e_chip` for single-ratio experiments (Figs. 8/10).
    pub link_ratio: Option<f64>,
    /// The ratio sweep for Fig. 9.
    pub link_ratios: Option<Vec<f64>>,
    /// Population matching mode.
    pub comparison: Option<ComparisonMode>,
    /// Fabrication precision σ_f (GHz).
    pub sigma_f: Option<f64>,
    /// Ideal-plan detuning step (GHz; the Fig. 4 axis). For the
    /// Monte Carlo kinds this replaces the frequency plan; for Fig. 4
    /// itself it narrows the panel set to the one step.
    pub detuning_step: Option<f64>,
    /// Keep only systems whose chiplet has at most this many qubits.
    pub max_chiplet_qubits: Option<usize>,
    /// Keep only systems with at most this many total qubits.
    pub max_system_qubits: Option<usize>,
    /// Replace the evaluated system set entirely (topology override).
    pub systems: Option<Vec<SystemSpec>>,
}

impl Overrides {
    fn apply_lab(&self, mut lab: LabConfig) -> LabConfig {
        if let Some(batch) = self.batch {
            lab.batch = batch;
        }
        if let Some(seed) = self.seed {
            lab.seed = Seed(seed);
        }
        if let Some(ratio) = self.link_ratio {
            lab.link_ratio = Some(ratio);
        }
        if let Some(mode) = self.comparison {
            lab.comparison = mode;
        }
        if let Some(sigma) = self.sigma_f {
            lab.fabrication = lab.fabrication.with_sigma_f(sigma);
        }
        if let Some(step) = self.detuning_step {
            lab.fabrication = lab.fabrication.with_plan(FrequencyPlan::with_step(step));
        }
        lab
    }

    fn apply_systems(&self, systems: &mut Vec<McmSpec>) {
        if let Some(specs) = &self.systems {
            *systems = specs.iter().map(SystemSpec::build).collect();
        }
        if let Some(max) = self.max_chiplet_qubits {
            systems.retain(|s| s.chiplet().num_qubits() <= max);
        }
        if let Some(max) = self.max_system_qubits {
            systems.retain(|s| s.num_qubits() <= max);
        }
    }

    /// The overrides that are actually set, as a JSON object (for run
    /// reports).
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        if let Some(b) = self.batch {
            obj = obj.field("batch", b);
        }
        if let Some(s) = self.seed {
            obj = obj.field("seed", s);
        }
        if let Some(r) = self.link_ratio {
            obj = obj.field("link_ratio", r);
        }
        if let Some(rs) = &self.link_ratios {
            obj = obj.field("link_ratios", rs.clone());
        }
        if let Some(mode) = self.comparison {
            obj = obj.field("comparison", format!("{mode:?}"));
        }
        if let Some(s) = self.sigma_f {
            obj = obj.field("sigma_f", s);
        }
        if let Some(d) = self.detuning_step {
            obj = obj.field("detuning_step", d);
        }
        if let Some(m) = self.max_chiplet_qubits {
            obj = obj.field("max_chiplet_qubits", m);
        }
        if let Some(m) = self.max_system_qubits {
            obj = obj.field("max_system_qubits", m);
        }
        if let Some(systems) = &self.systems {
            obj = obj.field(
                "systems",
                Json::Arr(
                    systems
                        .iter()
                        .map(|s| {
                            Json::Str(format!("{}q {}x{}", s.chiplet_qubits, s.rows, s.cols))
                        })
                        .collect(),
                ),
            );
        }
        obj
    }
}

/// One schedulable unit of work: an experiment at a scale with
/// overrides.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Unique name within a batch (defaults to the kind's name).
    pub name: String,
    /// The experiment to run.
    pub kind: ExperimentKind,
    /// Base configuration scale.
    pub scale: Scale,
    /// Parameter overrides.
    pub overrides: Overrides,
}

impl Scenario {
    /// A scenario with default overrides, named after its kind.
    pub fn new(kind: ExperimentKind, scale: Scale) -> Scenario {
        Scenario { name: kind.name().to_string(), kind, scale, overrides: Overrides::default() }
    }

    /// The system set this scenario will evaluate, after materializing
    /// the scale's base configuration and applying the overrides —
    /// `None` for kinds without a system set.
    pub fn resolved_systems(&self) -> Option<Vec<SystemSpec>> {
        let systems = match self.kind {
            ExperimentKind::Fig8 => self.fig8_config().systems,
            ExperimentKind::Fig9 => self.fig9_config().systems,
            ExperimentKind::Fig10 => self.fig10_config().systems,
            _ => return None,
        };
        Some(
            systems
                .iter()
                .map(|s| SystemSpec {
                    chiplet_qubits: s.chiplet().num_qubits(),
                    rows: s.grid_rows(),
                    cols: s.grid_cols(),
                })
                .collect(),
        )
    }

    // The three configuration builders below are the one place each
    // shardable kind's overrides are applied: `Scenario::run` and the
    // scheduler's shard plans both read them, so a whole run and its
    // shards cannot drift apart.

    /// The materialized Fig. 8 configuration (the scale's base with
    /// the overrides applied).
    pub fn fig8_config(&self) -> fig8::Fig8Config {
        let mut config = match self.scale {
            Scale::Paper => fig8::Fig8Config::paper(),
            Scale::Quick => fig8::Fig8Config::quick(),
        };
        config.lab = self.overrides.apply_lab(config.lab);
        self.overrides.apply_systems(&mut config.systems);
        config
    }

    /// The materialized Fig. 9 configuration (the scale's base with
    /// the overrides applied).
    pub fn fig9_config(&self) -> fig9::Fig9Config {
        let mut config = match self.scale {
            Scale::Paper => fig9::Fig9Config::paper(),
            Scale::Quick => fig9::Fig9Config::quick(),
        };
        config.lab = self.overrides.apply_lab(config.lab);
        if let Some(ratios) = &self.overrides.link_ratios {
            config.ratios = ratios.clone();
        }
        self.overrides.apply_systems(&mut config.systems);
        config
    }

    /// The materialized Fig. 10 configuration (the scale's base with
    /// the overrides applied).
    pub fn fig10_config(&self) -> fig10::Fig10Config {
        let mut config = match self.scale {
            Scale::Paper => fig10::Fig10Config::paper(),
            Scale::Quick => fig10::Fig10Config::quick(),
        };
        config.lab = self.overrides.apply_lab(config.lab);
        self.overrides.apply_systems(&mut config.systems);
        config
    }

    /// Executes the scenario against `hub`.
    ///
    /// The result is a pure function of the scenario description: the
    /// hub only deduplicates work, it never changes values.
    pub fn run(&self, hub: &CacheHub) -> ExperimentData {
        let o = &self.overrides;
        match self.kind {
            ExperimentKind::Fig3b => {
                let mut config = fig3b::Fig3bConfig::paper();
                if let Some(seed) = o.seed {
                    config.seed = Seed(seed);
                }
                ExperimentData::Fig3b(fig3b::run(&config))
            }
            ExperimentKind::Fig4 => {
                let mut config = match self.scale {
                    Scale::Paper => fig4::Fig4Config::paper(),
                    Scale::Quick => fig4::Fig4Config::quick(),
                };
                if let Some(batch) = o.batch {
                    config.batch = batch;
                }
                if let Some(seed) = o.seed {
                    config.seed = Seed(seed);
                }
                if let Some(step) = o.detuning_step {
                    config.steps = vec![step];
                }
                ExperimentData::Fig4(fig4::run(&config))
            }
            ExperimentKind::Fig6 => {
                let mut config = match self.scale {
                    Scale::Paper => fig6::Fig6Config::paper(),
                    Scale::Quick => fig6::Fig6Config::quick(),
                };
                if let Some(batch) = o.batch {
                    config.batch = batch;
                }
                if let Some(seed) = o.seed {
                    config.seed = Seed(seed);
                }
                if let Some(sigma) = o.sigma_f {
                    config.fabrication = config.fabrication.with_sigma_f(sigma);
                }
                if let Some(step) = o.detuning_step {
                    config.fabrication =
                        config.fabrication.with_plan(FrequencyPlan::with_step(step));
                }
                if let Some(max) = o.max_chiplet_qubits {
                    config.chiplet_qubits = config.chiplet_qubits.min(max);
                }
                ExperimentData::Fig6(fig6::run(&config))
            }
            ExperimentKind::Fig7 => {
                let mut config = fig7::Fig7Config::paper();
                if let Some(seed) = o.seed {
                    config.seed = Seed(seed);
                }
                ExperimentData::Fig7(fig7::run(&config))
            }
            ExperimentKind::Fig8 => {
                ExperimentData::Fig8(fig8::run_in(&self.fig8_config(), hub))
            }
            ExperimentKind::Fig9 => {
                ExperimentData::Fig9(fig9::run_in(&self.fig9_config(), hub))
            }
            ExperimentKind::Fig10 => {
                ExperimentData::Fig10(fig10::run_in(&self.fig10_config(), hub))
            }
            ExperimentKind::Table2 => {
                let mut config = match self.scale {
                    Scale::Paper => table2::Table2Config::paper(),
                    Scale::Quick => table2::Table2Config::quick(),
                };
                if let Some(seed) = o.seed {
                    config.circuit_seed = Seed(seed);
                }
                if let Some(specs) = &o.systems {
                    config.systems = specs.iter().map(SystemSpec::build).collect();
                }
                if let Some(max) = o.max_system_qubits {
                    config.systems.retain(|s| s.num_qubits() <= max);
                }
                ExperimentData::Table2(table2::run(&config))
            }
            ExperimentKind::OutputGain => {
                let mut config = match self.scale {
                    Scale::Paper => output_gain::OutputGainConfig::paper(),
                    Scale::Quick => output_gain::OutputGainConfig::quick(),
                };
                if let Some(batch) = o.batch {
                    config.batch = batch;
                }
                if let Some(seed) = o.seed {
                    config.seed = Seed(seed);
                }
                if let Some(sigma) = o.sigma_f {
                    config.fabrication = config.fabrication.with_sigma_f(sigma);
                }
                if let Some(step) = o.detuning_step {
                    config.fabrication =
                        config.fabrication.with_plan(FrequencyPlan::with_step(step));
                }
                ExperimentData::OutputGain(output_gain::run(&config))
            }
        }
    }
}

/// The typed output of one scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentData {
    /// Fig. 3(b) data.
    Fig3b(fig3b::Fig3bData),
    /// Fig. 4 data.
    Fig4(fig4::Fig4Data),
    /// Fig. 6 data.
    Fig6(fig6::Fig6Data),
    /// Fig. 7 data.
    Fig7(fig7::Fig7Data),
    /// Fig. 8 data.
    Fig8(fig8::Fig8Data),
    /// Fig. 9 data.
    Fig9(fig9::Fig9Data),
    /// Fig. 10 data.
    Fig10(fig10::Fig10Data),
    /// Table II data.
    Table2(table2::Table2Data),
    /// Output-gain data.
    OutputGain(output_gain::OutputGainData),
}

impl ExperimentData {
    /// The rendered artifact files `(file name, contents)` this data
    /// produces — the text files a one-shot `--out` run writes.
    pub fn artifacts(&self) -> Vec<(String, String)> {
        match self {
            ExperimentData::Fig3b(d) => vec![("fig3b.txt".into(), d.render())],
            ExperimentData::Fig4(d) => vec![("fig4.txt".into(), d.render())],
            ExperimentData::Fig6(d) => vec![("fig6.txt".into(), d.render())],
            ExperimentData::Fig7(d) => vec![("fig7.txt".into(), d.render())],
            ExperimentData::Fig8(d) => vec![("fig8.txt".into(), d.render())],
            ExperimentData::Fig9(d) => vec![("fig9.txt".into(), d.render())],
            ExperimentData::Fig10(d) => vec![
                ("fig10a.txt".into(), d.render()),
                ("fig10b.txt".into(), d.squares().render()),
            ],
            ExperimentData::Table2(d) => vec![("table2.txt".into(), d.render())],
            ExperimentData::OutputGain(d) => vec![("output_gain.txt".into(), d.render())],
        }
    }

    /// Key scalar metrics as an insertion-ordered JSON object.
    pub fn metrics(&self) -> Json {
        match self {
            ExperimentData::Fig3b(d) => Json::obj().field("machines", d.machines.len()),
            ExperimentData::Fig4(d) => {
                Json::obj().field("optimal_step_at_0.014", d.optimal_step(0.014))
            }
            ExperimentData::Fig6(d) => Json::obj()
                .field("chiplet_yield", d.yield_fraction())
                .field("rows", d.rows.len()),
            ExperimentData::Fig7(d) => {
                Json::obj().field("calibration_points", d.calibration.points.len())
            }
            ExperimentData::Fig8(d) => Json::obj()
                .field("systems", d.points.len())
                .field("monolithic_cliff_qubits", d.monolithic_cliff())
                .field(
                    "improvements",
                    Json::Arr(
                        d.improvements
                            .iter()
                            .map(|(chiplet, ratio, excluded)| {
                                Json::obj()
                                    .field("chiplet_qubits", *chiplet)
                                    .field("avg_improvement", *ratio)
                                    .field("zero_yield_counterparts", *excluded)
                            })
                            .collect(),
                    ),
                ),
            ExperimentData::Fig9(d) => Json::obj().field(
                "panels",
                Json::Arr(
                    d.panels
                        .iter()
                        .map(|p| {
                            Json::obj()
                                .field("link_ratio", p.link_ratio)
                                .field("advantage_fraction", p.advantage_fraction())
                                .field("best_ratio", p.best_ratio())
                        })
                        .collect(),
                ),
            ),
            ExperimentData::Fig10(d) => Json::obj().field(
                "benchmarks",
                Json::Arr(
                    d.rows
                        .iter()
                        .map(|r| {
                            Json::obj()
                                .field("benchmark", r.benchmark.name())
                                .field("advantage_fraction", r.advantage_fraction())
                                .field("red_x_count", r.red_x_count())
                        })
                        .collect(),
                ),
            ),
            ExperimentData::Table2(d) => Json::obj().field("entries", d.entries.len()),
            ExperimentData::OutputGain(d) => Json::obj().field("gain", d.gain()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_round_trip() {
        for kind in ExperimentKind::ALL {
            assert_eq!(ExperimentKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(ExperimentKind::parse("nope"), None);
    }

    #[test]
    fn overrides_reshape_configurations() {
        let hub = CacheHub::new();
        let scenario = Scenario {
            name: "tiny-fig8".into(),
            kind: ExperimentKind::Fig8,
            scale: Scale::Quick,
            overrides: Overrides {
                batch: Some(120),
                systems: Some(vec![SystemSpec { chiplet_qubits: 10, rows: 2, cols: 2 }]),
                ..Overrides::default()
            },
        };
        match scenario.run(&hub) {
            ExperimentData::Fig8(data) => {
                assert_eq!(data.points.len(), 1);
                assert_eq!(data.points[0].spec.num_qubits(), 40);
            }
            other => panic!("wrong data kind: {other:?}"),
        }
        assert_eq!(hub.fabrication_stats().chiplet_fabrications, 1);
    }

    #[test]
    fn overrides_json_lists_only_set_fields() {
        let json = Overrides { batch: Some(50), ..Overrides::default() }.to_json();
        assert_eq!(json.to_json(), r#"{"batch":50}"#);
        assert_eq!(Overrides::default().to_json().to_json(), "{}");
    }
}
