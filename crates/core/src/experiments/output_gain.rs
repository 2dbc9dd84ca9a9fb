//! Section V-C / Eq. 1: fabrication output of MCMs vs. monolithic
//! devices on equal wafer area.
//!
//! The paper's worked example: with `Y_m(100) ≈ 0.11` and
//! `Y_c(10) ≈ 0.85` at σ_f = 0.014, a 1000-die monolithic batch yields
//! 110 machines while the same wafer area as 2×5 modules yields 850 —
//! a ~7.7× gain. This experiment re-measures both yields by Monte
//! Carlo and evaluates Eq. 1 with the measured values.

use chipletqc_assembly::output_model::OutputModel;
use chipletqc_collision::criteria::CollisionParams;
use chipletqc_math::rng::Seed;
use chipletqc_store::Store;
use chipletqc_topology::family::{ChipletSpec, MonolithicSpec};
use chipletqc_yield::fabrication::FabricationParams;
use chipletqc_yield::monte_carlo::{simulate_yield_range, TrialRange, YieldEstimate};

use crate::report::TextTable;

/// Output-gain configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutputGainConfig {
    /// Monolithic size `q_m` (paper: 100).
    pub monolithic_qubits: usize,
    /// Chiplet size `q_c` (paper: 10).
    pub chiplet_qubits: usize,
    /// Chips per module (paper: 10, a 2×5 module).
    pub chips_per_mcm: usize,
    /// Monolithic batch `B` (paper: 1000).
    pub batch: usize,
    /// Fabrication model.
    pub fabrication: FabricationParams,
    /// Collision thresholds.
    pub collision: CollisionParams,
    /// Root seed.
    pub seed: Seed,
}

impl OutputGainConfig {
    /// The paper's Section V-C example.
    pub fn paper() -> OutputGainConfig {
        OutputGainConfig {
            monolithic_qubits: 100,
            chiplet_qubits: 10,
            chips_per_mcm: 10,
            batch: 1000,
            fabrication: FabricationParams::state_of_the_art(),
            collision: CollisionParams::paper(),
            seed: Seed(57),
        }
    }

    /// Reduced batch.
    pub fn quick() -> OutputGainConfig {
        OutputGainConfig { batch: 300, ..OutputGainConfig::paper() }
    }

    /// The equal-wafer-area chiplet batch: `B · q_m / q_c`.
    pub fn chiplet_batch(&self) -> usize {
        self.batch * self.monolithic_qubits / self.chiplet_qubits
    }

    /// The batch-independent key under which this configuration's raw
    /// Monte Carlo tallies persist in the result store: everything
    /// that pins a trial's outcome (root seed, fabrication model,
    /// collision thresholds). The derived seed stream and device are
    /// named by the per-call `stream` label, the trial range by the
    /// store's canonical chunks.
    pub fn trial_key(&self) -> String {
        crate::lab::trial_key(self.seed, &self.fabrication, &self.collision)
    }
}

/// The measured Eq. 1 evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutputGainData {
    /// Eq. 1 inputs with *measured* yields.
    pub model: OutputModel,
}

impl OutputGainData {
    /// The measured output gain, `None` on a zero-yield monolithic.
    pub fn gain(&self) -> Option<f64> {
        self.model.gain()
    }

    /// Renders the Eq. 1 comparison.
    pub fn render(&self) -> String {
        let m = &self.model;
        let mut table = TextTable::new(["quantity", "value", "paper"]);
        table.row([
            "Y_m (monolithic yield)".into(),
            format!("{:.3}", m.monolithic_yield),
            "~0.11".to_string(),
        ]);
        table.row([
            "Y_c (chiplet yield)".into(),
            format!("{:.3}", m.chiplet_yield),
            "~0.85".to_string(),
        ]);
        table.row([
            "monolithic output".into(),
            format!("{:.0}", m.monolithic_output()),
            "110".to_string(),
        ]);
        table.row([
            "MCM output (Eq. 1)".into(),
            format!("{:.0}", m.mcm_output()),
            "850".to_string(),
        ]);
        table.row([
            "gain".into(),
            m.gain().map_or("unbounded".into(), |g| format!("{g:.2}x")),
            "~7.7x".to_string(),
        ]);
        table.to_string()
    }
}

/// The partial Monte Carlo tallies of one trial-range shard of the
/// Eq. 1 evaluation (see [`run_shard`] / [`from_shards`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutputGainShard {
    /// Survivors over the shard's slice of the monolithic batch.
    pub mono: YieldEstimate,
    /// Survivors over the shard's slice of the equal-area chiplet
    /// batch.
    pub chiplet: YieldEstimate,
}

/// Simulates one shard of the Eq. 1 Monte Carlo: `mono_range` of the
/// monolithic batch `[0, batch)` and `chiplet_range` of the
/// equal-wafer-area chiplet batch `[0, chiplet_batch())`.
///
/// Trial indices are batch-global, so merging the shards of matching
/// [`TrialRange::split`]s with [`from_shards`] is bit-identical to
/// [`run`].
pub fn run_shard(
    config: &OutputGainConfig,
    mono_range: TrialRange,
    chiplet_range: TrialRange,
) -> OutputGainShard {
    run_shard_in(config, mono_range, chiplet_range, None)
}

/// [`run_shard`] with an optional persistent result store: tallies are
/// served from the store's canonical chunks where warm and persisted
/// where cold, keyed by `(trial_key, seed stream, TrialRange)`.
/// Results are bit-identical with or without a store — the store only
/// decides whether trials are simulated or recalled.
pub fn run_shard_in(
    config: &OutputGainConfig,
    mono_range: TrialRange,
    chiplet_range: TrialRange,
    store: Option<&Store>,
) -> OutputGainShard {
    let mono_device =
        MonolithicSpec::with_qubits(config.monolithic_qubits).expect("valid size").build();
    let chiplet_device =
        ChipletSpec::with_qubits(config.chiplet_qubits).expect("valid size").build();
    let tally = |device: &chipletqc_topology::device::Device,
                 stream: String,
                 range: TrialRange,
                 seed: Seed| match store {
        Some(store) => store.yield_range_cached(
            &config.trial_key(),
            &stream,
            device,
            &config.fabrication,
            &config.collision,
            range,
            seed,
        ),
        None => simulate_yield_range(
            device,
            &config.fabrication,
            &config.collision,
            range,
            seed,
            None,
        ),
    };
    OutputGainShard {
        mono: tally(
            &mono_device,
            format!("og-mono-{}q", config.monolithic_qubits),
            mono_range,
            config.seed.split(1),
        ),
        chiplet: tally(
            &chiplet_device,
            format!("og-chiplet-{}q", config.chiplet_qubits),
            chiplet_range,
            config.seed.split(2),
        ),
    }
}

/// Combines shard tallies whose ranges jointly cover both batches into
/// the Eq. 1 dataset.
///
/// # Panics
///
/// Panics if the merged trial counts do not cover the configured
/// batches exactly (a shard is missing, duplicated, or mis-sized).
pub fn from_shards(
    config: &OutputGainConfig,
    shards: impl IntoIterator<Item = OutputGainShard>,
) -> OutputGainData {
    let (mono_parts, chiplet_parts): (Vec<_>, Vec<_>) =
        shards.into_iter().map(|s| (s.mono, s.chiplet)).unzip();
    let mono = YieldEstimate::merge(mono_parts);
    let chiplet = YieldEstimate::merge(chiplet_parts);
    assert_eq!(mono.batch, config.batch, "monolithic shards do not cover the batch");
    assert_eq!(
        chiplet.batch,
        config.chiplet_batch(),
        "chiplet shards do not cover the equal-area batch"
    );
    OutputGainData {
        model: OutputModel {
            monolithic_qubits: config.monolithic_qubits,
            monolithic_yield: mono.fraction(),
            chiplet_qubits: config.chiplet_qubits,
            chiplet_yield: chiplet.fraction(),
            chips_per_mcm: config.chips_per_mcm,
            batch: config.batch,
        },
    }
}

/// Measures yields and evaluates Eq. 1.
pub fn run(config: &OutputGainConfig) -> OutputGainData {
    run_in(config, None)
}

/// [`run`] through an optional persistent result store (see
/// [`run_shard_in`]).
pub fn run_in(config: &OutputGainConfig, store: Option<&Store>) -> OutputGainData {
    let shard = run_shard_in(
        config,
        TrialRange::full(config.batch),
        TrialRange::full(config.chiplet_batch()),
        store,
    );
    from_shards(config, [shard])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_gain_is_in_the_paper_regime() {
        let data = run(&OutputGainConfig::quick());
        let gain = data.gain().expect("100q monolithic yield nonzero at sigma 0.014");
        // Paper: ~7.7x. Monte Carlo slack at reduced batch: accept 4-16x.
        assert!(gain > 4.0 && gain < 16.0, "gain {gain}");
        assert!(data.model.is_capacity_matched());
    }

    #[test]
    fn merged_trial_shards_equal_the_full_run() {
        let config = OutputGainConfig::quick();
        let full = run(&config);
        for shards in [2, 3, 8] {
            let mono_ranges = TrialRange::split(config.batch, shards);
            let chiplet_ranges = TrialRange::split(config.chiplet_batch(), shards);
            let parts: Vec<OutputGainShard> = mono_ranges
                .iter()
                .zip(&chiplet_ranges)
                .map(|(&m, &c)| run_shard(&config, m, c))
                .collect();
            assert_eq!(from_shards(&config, parts), full, "diverged at {shards} shards");
        }
    }

    #[test]
    fn measured_yields_near_paper_anchors() {
        let data = run(&OutputGainConfig::quick());
        assert!(
            (data.model.monolithic_yield - 0.11).abs() < 0.08,
            "Y_m {}",
            data.model.monolithic_yield
        );
        assert!(
            (data.model.chiplet_yield - 0.85).abs() < 0.07,
            "Y_c {}",
            data.model.chiplet_yield
        );
        let rendered = data.render();
        assert!(rendered.contains("Eq. 1"));
        assert!(rendered.contains("7.7"));
    }
}
