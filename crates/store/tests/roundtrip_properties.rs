//! Property tests (vendored `proptest`) for the result store's
//! persistence formats: every persisted product kind round-trips
//! bit-exactly through its codec and the entry envelope, and arbitrary
//! corruption never yields a value — only a decode error (= a store
//! miss).

use proptest::prelude::*;

use chipletqc_assembly::kgd::{CharacterizedChiplet, KgdBin};
use chipletqc_collision::frequencies::Frequencies;
use chipletqc_math::codec::{decode_from_slice, encode_to_vec};
use chipletqc_noise::assign::EdgeNoise;
use chipletqc_store::envelope::{self, Encoding};
use chipletqc_yield::monte_carlo::YieldEstimate;

proptest! {
    /// `Frequencies` round-trips bit-exactly (including values with no
    /// short decimal representation).
    #[test]
    fn frequencies_round_trip(
        freqs in prop::collection::vec(4.0f64..6.0, 0..40),
        alpha in -0.4f64..-0.2,
    ) {
        let value = Frequencies::with_uniform_alpha(freqs, alpha).expect("finite inputs");
        let bytes = encode_to_vec(&value);
        let decoded: Frequencies = decode_from_slice(&bytes).unwrap();
        prop_assert_eq!(decoded, value);
    }

    /// `EdgeNoise` round-trips bit-exactly.
    #[test]
    fn edge_noise_round_trips(infidelities in prop::collection::vec(0.0f64..0.999, 0..60)) {
        let value = EdgeNoise::from_infidelities(infidelities);
        let bytes = encode_to_vec(&value);
        let decoded: EdgeNoise = decode_from_slice(&bytes).unwrap();
        prop_assert_eq!(decoded, value);
    }

    /// Yield tallies (a monolithic population's estimate) round-trip
    /// through the binary codec.
    #[test]
    fn tallies_round_trip(survivors in 0usize..5000, extra in 0usize..5000) {
        let est = YieldEstimate { survivors, batch: survivors + extra };
        prop_assert_eq!(decode_from_slice::<YieldEstimate>(&encode_to_vec(&est)).unwrap(), est);
    }

    /// A characterized KGD bin round-trips bit-exactly: the sort
    /// order, each chiplet's frequencies/noise, and the derived eavg.
    #[test]
    fn kgd_bins_round_trip(
        raw in prop::collection::vec(
            (
                prop::collection::vec(4.8f64..5.3, 10),
                prop::collection::vec(0.001f64..0.2, 11),
            ),
            0..12,
        ),
    ) {
        let chiplets: Vec<CharacterizedChiplet> = raw
            .into_iter()
            .map(|(freqs, noise)| {
                let noise = EdgeNoise::from_infidelities(noise);
                CharacterizedChiplet {
                    eavg: noise.eavg(),
                    freqs: Frequencies::with_uniform_alpha(freqs, -0.33).unwrap(),
                    noise,
                }
            })
            .collect();
        let bin = KgdBin::from_chiplets(chiplets);
        let bytes = encode_to_vec(&bin);
        let decoded: KgdBin = decode_from_slice(&bytes).unwrap();
        prop_assert_eq!(decoded, bin);
    }

    /// The envelope preserves any payload under both encodings, and
    /// truncating it anywhere is an error, never a wrong payload.
    #[test]
    fn envelopes_round_trip_and_reject_truncation(
        payload in prop::collection::vec(0u8..=255, 0..200),
        kind_pick in 0u8..2,
        cut_fraction in 0.0f64..1.0,
        json_pick in 0u8..2,
    ) {
        let kind = ["kgd-bin", "mono-pop"][kind_pick as usize];
        let encoding = if json_pick == 1 { Encoding::Json } else { Encoding::Binary };
        let sealed = envelope::seal(kind, "prop-key", encoding, &payload);
        let opened = envelope::open(&sealed).unwrap();
        prop_assert_eq!(opened.kind.as_str(), kind);
        prop_assert_eq!(opened.key.as_str(), "prop-key");
        prop_assert_eq!(opened.encoding, encoding);
        prop_assert_eq!(opened.payload, payload);
        let cut = ((sealed.len() as f64) * cut_fraction) as usize;
        if cut < sealed.len() {
            prop_assert!(envelope::open(&sealed[..cut]).is_err());
        }
    }

    /// Single-bit corruption anywhere in a sealed entry is detected.
    #[test]
    fn envelopes_detect_any_bit_flip(
        payload in prop::collection::vec(0u8..=255, 1..120),
        position_fraction in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let sealed = envelope::seal("mono-pop", "bitflip-key", Encoding::Binary, &payload);
        let position = (((sealed.len() - 1) as f64) * position_fraction) as usize;
        let mut corrupt = sealed.clone();
        corrupt[position] ^= 1 << bit;
        prop_assert!(envelope::open(&corrupt).is_err(), "flip at byte {}", position);
    }
}
