//! Table II: compiled-benchmark gate composition and critical paths.
//!
//! The paper details the 2×2 systems built from 10-, 20-, 40-, 60-,
//! and 90-qubit chiplets: for every benchmark, single-qubit gates,
//! two-qubit gates, and the two-qubit critical path after compilation.
//! Absolute counts depend on compiler specifics; the reproduction
//! targets the structural identities the basis lowering fixes (BV's
//! `2q = (n − 1) + 3·swaps`, pinned by `bv_matches_structural_identity`)
//! and growth shape.

use chipletqc_benchmarks::suite::Benchmark;
use chipletqc_circuit::circuit::{Circuit, GateCounts};
use chipletqc_math::rng::Seed;
use chipletqc_topology::family::ChipletSpec;
use chipletqc_topology::mcm::McmSpec;
use chipletqc_transpile::pipeline::Transpiler;

use crate::report::TextTable;

/// Table II configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Config {
    /// The systems (paper: 2×2 modules of the five smallest chiplets).
    pub systems: Vec<McmSpec>,
    /// The benchmarks (paper: all seven).
    pub benchmarks: Vec<Benchmark>,
    /// The compiler.
    pub transpiler: Transpiler,
    /// Seed for randomized benchmarks.
    pub circuit_seed: Seed,
}

impl Table2Config {
    /// The paper's Table II systems.
    pub fn paper() -> Table2Config {
        let systems = [10, 20, 40, 60, 90]
            .into_iter()
            .map(|q| McmSpec::new(ChipletSpec::with_qubits(q).expect("catalog size"), 2, 2))
            .collect();
        Table2Config {
            systems,
            benchmarks: Benchmark::ALL.to_vec(),
            transpiler: Transpiler::paper(),
            circuit_seed: Seed(2),
        }
    }

    /// The two smallest systems only.
    pub fn quick() -> Table2Config {
        let mut config = Table2Config::paper();
        config.systems.truncate(2);
        config
    }
}

/// One compiled-benchmark entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table2Entry {
    /// The system.
    pub spec: McmSpec,
    /// The benchmark.
    pub benchmark: Benchmark,
    /// 1q / 2q / 2q-critical tallies.
    pub counts: GateCounts,
    /// SWAPs the router inserted.
    pub swaps: usize,
}

/// The Table II dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Data {
    /// Entries in system-major, benchmark-minor order.
    pub entries: Vec<Table2Entry>,
}

impl Table2Data {
    /// The entry for a given system size and benchmark.
    pub fn entry(&self, system_qubits: usize, benchmark: Benchmark) -> Option<&Table2Entry> {
        self.entries
            .iter()
            .find(|e| e.spec.num_qubits() == system_qubits && e.benchmark == benchmark)
    }

    /// Renders the table in the paper's layout.
    pub fn render(&self) -> String {
        let mut table =
            TextTable::new(["chiplet", "dim", "qubits", "bench", "1q", "2q", "2q critical"]);
        for e in &self.entries {
            table.row([
                format!("{}q", e.spec.chiplet().num_qubits()),
                format!("{}x{}", e.spec.grid_rows(), e.spec.grid_cols()),
                e.spec.num_qubits().to_string(),
                e.benchmark.tag().to_string(),
                e.counts.one_qubit.to_string(),
                e.counts.two_qubit.to_string(),
                e.counts.two_qubit_critical.to_string(),
            ]);
        }
        table.to_string()
    }
}

/// Runs the Table II compilation sweep.
pub fn run(config: &Table2Config) -> Table2Data {
    let mut entries = Vec::new();
    for spec in &config.systems {
        let circuits: Vec<Circuit> = config
            .benchmarks
            .iter()
            .map(|b| b.for_device_qubits(spec.num_qubits(), config.circuit_seed))
            .collect();
        let compiled = config.transpiler.transpile_many(&circuits, &spec.build());
        for (&benchmark, compiled) in config.benchmarks.iter().zip(compiled) {
            entries.push(Table2Entry {
                spec: *spec,
                benchmark,
                counts: compiled.counts(),
                swaps: compiled.swaps,
            });
        }
    }
    Table2Data { entries }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_grid_is_complete() {
        let config = Table2Config::quick();
        let data = run(&config);
        assert_eq!(data.entries.len(), config.systems.len() * config.benchmarks.len());
        let rendered = data.render();
        assert!(rendered.contains("bv"));
        assert!(rendered.contains("2x2"));
    }

    #[test]
    fn bv_matches_structural_identity() {
        // Table II's BV signature: 1q = 2n*3 (+1 virtual Z), 2q =
        // (n-1) + 3*swaps (all SWAPs cost 3 CX).
        let data = run(&Table2Config::quick());
        let e = data.entry(40, Benchmark::Bv).unwrap();
        let n = 32;
        assert_eq!(e.counts.one_qubit, 2 * n * 3 + 1);
        assert_eq!(e.counts.two_qubit, (n - 1) + 3 * e.swaps);
    }

    #[test]
    fn counts_grow_with_system_size() {
        let data = run(&Table2Config::quick());
        for b in Benchmark::ALL {
            let small = data.entry(40, b).unwrap();
            let large = data.entry(80, b).unwrap();
            assert!(
                large.counts.two_qubit > small.counts.two_qubit,
                "{b}: {} vs {}",
                small.counts,
                large.counts
            );
        }
    }

    #[test]
    fn critical_path_bounded_by_total() {
        let data = run(&Table2Config::quick());
        for e in &data.entries {
            assert!(e.counts.two_qubit_critical <= e.counts.two_qubit);
            assert!(e.counts.two_qubit_critical > 0);
        }
    }
}
