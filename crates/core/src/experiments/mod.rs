//! One module per paper table/figure.
//!
//! Each experiment exposes a config type with `paper()` (full-scale,
//! used by `chipletqc-engine` runs without `--quick`) and
//! `quick()` (reduced-scale, used by tests and doc examples) variants,
//! a `run` entry point returning a plain data struct, and a `render`
//! function producing the textual table/series.
//!
//! | module | reproduces |
//! |---|---|
//! | [`fig3b`] | Fig. 3(b): fleet CX-infidelity box plots |
//! | [`fig4`] | Fig. 4: yield vs. qubits across detuning steps and σ_f |
//! | [`fig6`] | Fig. 6: MCM configuration counts |
//! | [`fig7`] | Fig. 7: CX infidelity vs. detuning (Washington) |
//! | [`fig8`] | Fig. 8: monolithic vs. MCM yield curves + chiplet yields |
//! | [`fig9`] | Fig. 9: E_avg ratio heatmaps across link-error ratios |
//! | [`fig10`] | Fig. 10: per-benchmark fidelity-product ratios |
//! | [`table2`] | Table II: compiled benchmark gate counts |
//! | [`output_gain`] | §V-C / Eq. 1: fabrication-output gain |
//! | [`headline`] | the abstract's headline numbers |

pub mod fig10;
pub mod fig3b;
pub mod fig4;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod headline;
pub mod output_gain;
pub mod table2;
