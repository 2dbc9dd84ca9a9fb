//! Fabricated frequency assignments.
//!
//! A [`Frequencies`] value is the *outcome of fabrication* for one
//! device: the actual operating frequency `f_i` of every qubit, plus the
//! anharmonicity α they all share (the paper fixes it at −0.330 GHz).
//! The yield crate produces these by sampling around a device's ideal
//! plan; [`Frequencies::ideal`] produces the zero-variation reference
//! assignment.

use std::ops::Range;

use chipletqc_math::codec::{ByteReader, ByteWriter, Codec, CodecError};
use chipletqc_topology::device::Device;
use chipletqc_topology::plan::FrequencyPlan;
use chipletqc_topology::qubit::QubitId;

/// Per-qubit fabricated frequencies plus the one anharmonicity every
/// qubit shares (GHz).
#[derive(Debug, Clone, PartialEq)]
pub struct Frequencies {
    freqs: Vec<f64>,
    alpha: f64,
}

/// Error constructing a [`Frequencies`] assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrequenciesError {
    /// A value was NaN or infinite.
    NonFinite,
}

impl std::fmt::Display for FrequenciesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrequenciesError::NonFinite => write!(f, "frequencies must be finite"),
        }
    }
}

impl std::error::Error for FrequenciesError {}

impl Frequencies {
    /// Creates an assignment with one shared anharmonicity (the paper
    /// fixes `α = −0.330 GHz` for all qubits).
    ///
    /// # Errors
    ///
    /// Returns an error if a frequency or `alpha` is not finite.
    pub fn with_uniform_alpha(
        freqs: Vec<f64>,
        alpha: f64,
    ) -> Result<Frequencies, FrequenciesError> {
        if !alpha.is_finite() || freqs.iter().any(|x| !x.is_finite()) {
            return Err(FrequenciesError::NonFinite);
        }
        Ok(Frequencies { freqs, alpha })
    }

    /// The ideal (zero fabrication variation) assignment of `device`
    /// under `plan`: every qubit sits exactly on its class frequency.
    pub fn ideal(device: &Device, plan: &FrequencyPlan) -> Frequencies {
        let freqs = device.qubits().map(|q| plan.ideal(device.class(q))).collect();
        Frequencies { freqs, alpha: plan.anharmonicity() }
    }

    /// The fabricated frequency of `q` in GHz.
    pub fn freq(&self, q: QubitId) -> f64 {
        self.freqs[q.index()]
    }

    /// Overwrites the frequencies of the qubits in `block` with what
    /// `fill` writes into their slice: the check schedule's block fill
    /// reuses one assignment across trials.
    ///
    /// # Panics
    ///
    /// Panics if `fill` writes a non-finite value.
    pub(crate) fn fill_block(&mut self, block: Range<usize>, fill: impl FnOnce(&mut [f64])) {
        let values = &mut self.freqs[block.clone()];
        fill(values);
        for (q, &f) in block.zip(values.iter()) {
            let q = QubitId(q as u32);
            assert!(f.is_finite(), "frequency of {q} must be finite, got {f}");
        }
    }

    /// The anharmonicity of `q` in GHz (negative): the one α every
    /// qubit shares.
    pub fn alpha(&self, _q: QubitId) -> f64 {
        self.alpha
    }

    /// Number of qubits covered.
    pub fn len(&self) -> usize {
        self.freqs.len()
    }

    /// Whether the assignment is empty.
    pub fn is_empty(&self) -> bool {
        self.freqs.is_empty()
    }

    /// The absolute qubit-qubit detuning `|f_a − f_b|` in GHz — the
    /// x-axis of the paper's Fig. 7 fidelity relationship.
    pub fn detuning(&self, a: QubitId, b: QubitId) -> f64 {
        (self.freq(a) - self.freq(b)).abs()
    }

    /// All frequencies as a slice (qubit-id order).
    pub fn as_slice(&self) -> &[f64] {
        &self.freqs
    }
}

/// Binary persistence for the result store: the frequencies as a
/// length-prefixed `f64` slice, then the shared anharmonicity. Decoding
/// re-validates through [`Frequencies::with_uniform_alpha`], so a
/// corrupted entry (non-finite bits) is an error, never a bad value.
impl Codec for Frequencies {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_f64_slice(&self.freqs);
        w.put_f64(self.alpha);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Frequencies, CodecError> {
        let freqs = r.get_f64_vec()?;
        let alpha = r.get_f64()?;
        Frequencies::with_uniform_alpha(freqs, alpha)
            .map_err(|e| CodecError::Invalid(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipletqc_topology::family::ChipletSpec;
    use chipletqc_topology::qubit::FrequencyClass;

    #[test]
    fn rejects_non_finite() {
        assert_eq!(
            Frequencies::with_uniform_alpha(vec![5.0, f64::NAN], -0.33).unwrap_err(),
            FrequenciesError::NonFinite
        );
        assert!(Frequencies::with_uniform_alpha(vec![5.0], f64::INFINITY).is_err());
    }

    #[test]
    fn ideal_matches_classes() {
        let device = ChipletSpec::with_qubits(20).unwrap().build();
        let plan = FrequencyPlan::state_of_the_art();
        let freqs = Frequencies::ideal(&device, &plan);
        assert_eq!(freqs.len(), 20);
        for q in device.qubits() {
            let expected = match device.class(q) {
                FrequencyClass::F0 => 5.0,
                FrequencyClass::F1 => 5.06,
                FrequencyClass::F2 => 5.12,
            };
            assert!((freqs.freq(q) - expected).abs() < 1e-12);
            assert_eq!(freqs.alpha(q), -0.330);
        }
    }

    #[test]
    fn detuning_is_absolute() {
        let freqs = Frequencies::with_uniform_alpha(vec![5.0, 5.12], -0.33).unwrap();
        assert!((freqs.detuning(QubitId(0), QubitId(1)) - 0.12).abs() < 1e-12);
        assert!((freqs.detuning(QubitId(1), QubitId(0)) - 0.12).abs() < 1e-12);
    }

    #[test]
    fn accessors() {
        let freqs = Frequencies::with_uniform_alpha(vec![5.0, 5.06], -0.3).unwrap();
        assert_eq!(freqs.as_slice(), &[5.0, 5.06]);
        assert_eq!(freqs.alpha(QubitId(1)), -0.3);
        assert!(!freqs.is_empty());
        assert!(Frequencies::with_uniform_alpha(vec![], -0.3).unwrap().is_empty());
    }

    #[test]
    fn codec_round_trips_and_rejects_corruption() {
        use chipletqc_math::codec::{decode_from_slice, encode_to_vec};
        let freqs =
            Frequencies::with_uniform_alpha(vec![5.0, 5.061234567891234], -0.331).unwrap();
        let bytes = encode_to_vec(&freqs);
        assert_eq!(decode_from_slice::<Frequencies>(&bytes).unwrap(), freqs);
        // Truncation is an error.
        assert!(decode_from_slice::<Frequencies>(&bytes[..bytes.len() - 1]).is_err());
        // A NaN bit pattern fails validation, in a frequency or in α.
        for at in [8, bytes.len() - 8] {
            let mut bad = bytes.clone();
            bad[at..at + 8].copy_from_slice(&f64::NAN.to_le_bytes());
            assert!(decode_from_slice::<Frequencies>(&bad).is_err(), "NaN at byte {at}");
        }
    }
}
