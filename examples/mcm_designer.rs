//! MCM designer: pick the best chiplet size for a target machine.
//!
//! Given a target qubit count, evaluates every paper chiplet size that
//! tiles it, comparing post-assembly yield and average two-qubit
//! infidelity (population-matched, as in Fig. 9) against the
//! monolithic alternative — the design-space exploration the paper
//! motivates in Sections V and VII.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example mcm_designer [target_qubits] [batch]
//! ```

use chipletqc::lab::{Lab, LabConfig};
use chipletqc::prelude::*;
use chipletqc::report::{fmt_ratio, fmt_yield, TextTable};
use chipletqc_math::combinatorics::most_square_dims;

fn main() {
    let mut args = std::env::args().skip(1);
    let target: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(240);
    let batch: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(1000);

    let lab = Lab::new(LabConfig::paper().with_batch(batch).with_seed(Seed(7)));
    println!("designing a {target}-qubit machine (batch {batch})\n");

    let mono = lab.mono_population(target);
    println!(
        "monolithic baseline: yield {} ({} good devices)\n",
        mono.estimate, mono.estimate.survivors
    );

    let mut table = TextTable::new([
        "chiplet",
        "grid",
        "mcm yield",
        "mono yield",
        "yield gain",
        "Eavg ratio",
        "verdict",
    ]);
    let mut evaluated = 0;
    for chiplet in ChipletSpec::catalog() {
        let qc = chiplet.num_qubits();
        if !target.is_multiple_of(qc) {
            continue;
        }
        let chips = target / qc;
        if chips < 2 {
            continue;
        }
        let (k, m) = most_square_dims(chips);
        let spec = McmSpec::new(chiplet, k, m);
        let mcm_yield =
            lab.placement(&spec).post_assembly_yield(batch, &lab.config().assembly.bond);
        let cmp = lab.compare(&spec);
        let gain =
            (mono.estimate.fraction() > 0.0).then(|| mcm_yield / mono.estimate.fraction());
        let verdict = match cmp.eavg_ratio {
            Some(r) if r < 1.0 => "MCM wins on fidelity too",
            Some(_) => "MCM wins on yield, mono on fidelity",
            None => "only MCM manufacturable",
        };
        table.row([
            format!("{qc}q"),
            format!("{k}x{m}"),
            fmt_yield(mcm_yield),
            fmt_yield(mono.estimate.fraction()),
            fmt_ratio(gain),
            fmt_ratio(cmp.eavg_ratio),
            verdict.to_string(),
        ]);
        evaluated += 1;
    }
    if evaluated == 0 {
        println!("no paper chiplet size tiles {target} qubits; try a multiple of 10");
    } else {
        print!("{table}");
        println!("\n(Eavg ratio < 1 means the module population beats the monolithic");
        println!(" population on average two-qubit infidelity; 'X' marks unbounded gain.)");
    }
}
