//! The paper's quantitative claims, verified at reduced Monte Carlo
//! scale.
//!
//! Absolute tolerances here are wider than the paper's reported values
//! because these tests run with small batches; the full-scale numbers
//! are regenerated by `chipletqc-engine` run without `--quick`.

use chipletqc::experiments::*;
use chipletqc::lab::{Lab, LabConfig};
use chipletqc::prelude::*;

/// Section IV-B: 0.06 GHz is the optimal detuning step.
#[test]
fn claim_optimal_step_is_006() {
    let data = fig4::run(&fig4::Fig4Config {
        batch: 300,
        sizes: vec![20, 40, 60, 90, 120],
        ..fig4::Fig4Config::paper()
    });
    assert_eq!(data.optimal_step(0.014), 0.06);
}

/// Section V-C: chiplet yields ~0.85 (10q) and monolithic ~0.11 (100q)
/// give a ~7.7x fabrication-output gain.
#[test]
fn claim_output_gain_near_7_7x() {
    let data = output_gain::run(&output_gain::OutputGainConfig {
        batch: 800,
        ..output_gain::OutputGainConfig::paper()
    });
    let gain = data.gain().expect("nonzero 100q yield at sigma 0.014");
    assert!(gain > 5.0 && gain < 12.0, "gain {gain}");
}

/// Section V-B / Fig. 6: 20q chiplet yield ~69.4% at sigma_f = 0.014.
#[test]
fn claim_20q_chiplet_yield_694() {
    let data = fig6::run(&fig6::Fig6Config { batch: 3000, ..fig6::Fig6Config::paper() });
    assert!((data.yield_fraction() - 0.694).abs() < 0.05, "yield {:.3}", data.yield_fraction());
}

/// Fig. 8: the monolithic yield cliff — devices ≳ 400 qubits are
/// unfeasible at sigma_f = 0.014.
#[test]
fn claim_monolithic_cliff_near_400_qubits() {
    let lab = Lab::new(LabConfig::quick().with_batch(500));
    let y120 = lab.mono_population(120).estimate.fraction();
    let y400 = lab.mono_population(400).estimate.fraction();
    let y500 = lab.mono_population(500).estimate.fraction();
    // The paper: ~10% at 120 qubits, ~zero at 400+.
    assert!((y120 - 0.10).abs() < 0.08, "120q yield {y120}");
    assert!(y400 < 0.01, "400q yield {y400}");
    assert!(y500 < 0.01, "500q yield {y500}");
}

/// Fig. 3(b): median CX infidelity correlates with device size.
#[test]
fn claim_fleet_median_grows_with_size() {
    let data = fig3b::run(&fig3b::Fig3bConfig::paper());
    assert!(data.median_increases_with_size());
}

/// Fig. 7: Washington-like calibration has median ~0.012 and mean
/// ~0.018, and the link/chip error ratio is ~4.17.
#[test]
fn claim_fidelity_model_statistics() {
    let data = fig7::run(&fig7::Fig7Config::paper());
    assert!((data.calibration.median_infidelity() - 0.012).abs() < 0.004);
    assert!((data.calibration.mean_infidelity() - 0.018).abs() < 0.006);
    let ratio = chipletqc_noise::link::PAPER_LINK_MEAN / chipletqc_noise::link::PAPER_CHIP_MEAN;
    assert!((ratio - 4.17).abs() < 0.02);
}

/// Fig. 8: MCM architectures out-yield monolithic at equal qubit
/// count, increasingly so at scale.
#[test]
fn claim_mcm_out_yields_monolithic() {
    let data = fig8::run(&fig8::Fig8Config::quick());
    let big_points: Vec<_> = data.points.iter().filter(|p| p.spec.num_qubits() >= 80).collect();
    assert!(!big_points.is_empty());
    for p in big_points {
        assert!(
            p.yield_fraction > p.mono_yield,
            "{}: mcm {:.3} <= mono {:.3}",
            p.spec,
            p.yield_fraction,
            p.mono_yield
        );
    }
}

/// Fig. 9(d): with links as good as on-chip couplers, (nearly) every
/// square configuration favors the MCM.
#[test]
fn claim_equal_links_flip_every_cell() {
    let config = fig9::Fig9Config {
        lab: LabConfig::quick().with_batch(700),
        ratios: vec![1.0],
        systems: chipletqc_topology::evalset::square_mcms()
            .into_iter()
            .filter(|s| s.num_qubits() <= 180)
            .collect(),
    };
    let data = fig9::run(&config);
    assert!(
        data.panels[0].advantage_fraction() >= 0.75,
        "advantage fraction {}",
        data.panels[0].advantage_fraction()
    );
}

/// Fig. 10(b) mechanism: systems with a clear E_avg advantage also
/// show a benchmark fidelity advantage (the paper observes that every
/// square system whose Fig. 9(a) ratio is < 1 wins in Fig. 10(b)).
/// Checked at equal-link noise, where the postselection mechanism is
/// isolated from link-routing specifics.
#[test]
fn claim_eavg_advantage_travels_to_benchmarks() {
    let lab_config = LabConfig { link_ratio: Some(1.0), ..LabConfig::quick().with_batch(700) };
    let systems: Vec<McmSpec> = vec![
        McmSpec::new(ChipletSpec::with_qubits(20).unwrap(), 2, 2),
        McmSpec::new(ChipletSpec::with_qubits(20).unwrap(), 3, 3),
    ];
    let f10 = fig10::run(&fig10::Fig10Config {
        lab: lab_config,
        benchmarks: vec![Benchmark::Ghz, Benchmark::Qaoa],
        systems: systems.clone(),
        transpiler: Transpiler::paper(),
        circuit_seed: Seed(10),
    });
    let lab = Lab::new(lab_config);
    for (si, spec) in systems.iter().enumerate() {
        let cmp = lab.compare(spec);
        let Some(eavg_ratio) = cmp.eavg_ratio else { continue };
        if eavg_ratio < 0.95 {
            for row in &f10.rows {
                if let Some(v) = row.points[si].outcome.finite() {
                    assert!(
                        v > -0.5,
                        "{spec}: Eavg ratio {eavg_ratio:.3} but {} log10 ESP ratio {v:.2}",
                        row.benchmark
                    );
                }
            }
        }
    }
}

/// Table II structural identities that survive any reasonable
/// compiler: BV's 1q count and the GHZ critical path.
#[test]
fn claim_table2_structure() {
    let data = table2::run(&table2::Table2Config::quick());
    // BV on the 40q system (n = 32): 1q = 2*32*3 (+1).
    let bv = data.entry(40, Benchmark::Bv).unwrap();
    assert_eq!(bv.counts.one_qubit, 193);
    // GHZ's 2q critical path is at least its chain length.
    let ghz = data.entry(40, Benchmark::Ghz).unwrap();
    assert!(ghz.counts.two_qubit_critical >= 31);
    // TFIM base counts (before routing): 191 1q / 62 2q at n = 32.
    let h = data.entry(40, Benchmark::Hamiltonian).unwrap();
    assert!(h.counts.one_qubit >= 191);
    assert!(h.counts.two_qubit >= 62);
}
