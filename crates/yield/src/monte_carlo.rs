//! Deterministic batch yield simulation.
//!
//! Device `i` of a batch is always fabricated from `seed.split(i)`, so
//! results are bit-identical however a batch is split, and any
//! individual device of a batch can be re-derived in isolation (useful
//! when debugging a rare collision pattern). Every call runs on the
//! calling thread; parallelism belongs to the caller (the engine runs
//! scenarios and their system slices as tasks on its worker pool).
//!
//! ## Trial ranges
//!
//! Because trial `i` depends only on `(seed, i)`, any [`TrialRange`]
//! of a batch can be simulated on its own: the survivors of disjoint
//! ranges, concatenated in range order, are exactly those of one
//! full-batch run.
//!
//! ## Stopping at the first collision
//!
//! A trial's verdict is settled by its first collision, so a trial is
//! drawn in blocks of qubits in index order and checked while it is
//! drawn: after drawing a block it runs every Table I check whose
//! highest qubit lies in the block ([`CheckSchedule`]), and stops after
//! the first block with a hit. Only a survivor draws every qubit. The
//! output is exactly that of drawing every assignment in full
//! ([`FabricationParams::sample`]) and keeping those that pass
//! [`chipletqc_collision::checker::is_collision_free`]: trial `i`'s
//! draws come from `seed.split(i)`, which no other trial reads, in the
//! same order and with the same values up to where the trial stops; a
//! block's checks read only qubits that block or an earlier one wrote;
//! nothing reads the draws of a colliding trial, including those its
//! last block made past the collision; and whether an assignment
//! collides does not depend on the order of its checks.

use rand::rngs::StdRng;

use chipletqc_collision::checker::CheckSchedule;
use chipletqc_collision::criteria::CollisionParams;
use chipletqc_collision::frequencies::Frequencies;
use chipletqc_math::codec::{ByteReader, ByteWriter, Codec, CodecError};
use chipletqc_math::dist::fill_standard_normal;
use chipletqc_math::rng::Seed;
use chipletqc_math::stats::wilson_interval;
use chipletqc_topology::device::Device;

use crate::fabrication::FabricationParams;

/// The outcome of a batch yield simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct YieldEstimate {
    /// Collision-free devices.
    pub survivors: usize,
    /// Batch size.
    pub batch: usize,
}

impl YieldEstimate {
    /// The collision-free yield fraction.
    pub fn fraction(&self) -> f64 {
        if self.batch == 0 {
            return 0.0;
        }
        self.survivors as f64 / self.batch as f64
    }

    /// The Wilson 95 % confidence interval on the yield.
    pub fn confidence95(&self) -> (f64, f64) {
        wilson_interval(self.survivors, self.batch)
    }
}

impl std::fmt::Display for YieldEstimate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{} = {:.3}", self.survivors, self.batch, self.fraction())
    }
}

/// Binary persistence for the result store: `survivors` then `batch`.
/// Decoding rejects tallies claiming more survivors than trials.
impl Codec for YieldEstimate {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_usize(self.survivors);
        w.put_usize(self.batch);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<YieldEstimate, CodecError> {
        let survivors = r.get_usize()?;
        let batch = r.get_usize()?;
        if survivors > batch {
            return Err(CodecError::Invalid(format!(
                "{survivors} survivors of {batch} trials"
            )));
        }
        Ok(YieldEstimate { survivors, batch })
    }
}

/// A contiguous, half-open range `[start, end)` of trial indices
/// within a Monte Carlo batch.
///
/// Trial `i` is always fabricated from `seed.split(i)` with `i` the
/// *batch-global* index, so a range simulates the same trials wherever
/// it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TrialRange {
    /// First trial index (inclusive).
    pub start: usize,
    /// One past the last trial index (exclusive).
    pub end: usize,
}

impl TrialRange {
    /// The full range of a batch: `[0, batch)`.
    pub fn full(batch: usize) -> TrialRange {
        TrialRange { start: 0, end: batch }
    }

    /// The number of trials in the range.
    pub fn len(&self) -> usize {
        self.end.saturating_sub(self.start)
    }

    /// Whether the range contains no trials.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

impl std::fmt::Display for TrialRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

/// Simulates the collision-free yield of `device` over a fabrication
/// batch.
///
/// # Example
///
/// ```
/// use chipletqc_topology::family::MonolithicSpec;
/// use chipletqc_collision::criteria::CollisionParams;
/// use chipletqc_yield::fabrication::FabricationParams;
/// use chipletqc_yield::monte_carlo::simulate_yield;
/// use chipletqc_math::rng::Seed;
///
/// let device = MonolithicSpec::with_qubits(100).unwrap().build();
/// // At the raw post-fabrication spread, 100-qubit yields are ~zero.
/// let est = simulate_yield(
///     &device,
///     &FabricationParams::post_fabrication(),
///     &CollisionParams::paper(),
///     200,
///     Seed(3),
/// );
/// assert_eq!(est.survivors, 0);
/// ```
pub fn simulate_yield(
    device: &Device,
    fab: &FabricationParams,
    params: &CollisionParams,
    batch: usize,
    seed: Seed,
) -> YieldEstimate {
    simulate_yield_range(device, fab, params, TrialRange::full(batch), seed, None)
}

/// Simulates only the trials of `range` (batch-global indices; trial
/// `i` derives from `seed.split(i)` exactly as in a full-batch run).
/// The returned estimate's `batch` is the range length.
///
/// `_workers` is ignored: every call runs on the calling thread (the
/// parameter stays while `chipletbench` still passes one).
pub fn simulate_yield_range(
    device: &Device,
    fab: &FabricationParams,
    params: &CollisionParams,
    range: TrialRange,
    seed: Seed,
    _workers: Option<usize>,
) -> YieldEstimate {
    YieldEstimate {
        survivors: survivors(device, fab, params, range, seed).count(),
        batch: range.len(),
    }
}

/// Fabricates a batch and returns the **collision-free bin**: the
/// sampled frequency assignments of every surviving device, in batch
/// order.
///
/// This is the input to known-good-die binning and MCM assembly
/// (Section VII-B: "After Table I criteria evaluation, collision-free
/// chiplets were grouped for MCM assembly").
pub fn fabricate_collision_free(
    device: &Device,
    fab: &FabricationParams,
    params: &CollisionParams,
    batch: usize,
    seed: Seed,
) -> Vec<Frequencies> {
    fabricate_collision_free_range(device, fab, params, TrialRange::full(batch), seed)
}

/// [`fabricate_collision_free`]; `_workers` is ignored: every call
/// runs on the calling thread (the wrapper stays while `chipletbench`
/// still calls it).
pub fn fabricate_collision_free_with_workers(
    device: &Device,
    fab: &FabricationParams,
    params: &CollisionParams,
    batch: usize,
    seed: Seed,
    _workers: Option<usize>,
) -> Vec<Frequencies> {
    fabricate_collision_free(device, fab, params, batch, seed)
}

/// Fabricates only the trials of `range` (batch-global indices) and
/// returns its collision-free survivors in trial order. Concatenating
/// the bins of contiguous ranges in range order reproduces the
/// full-batch [`fabricate_collision_free`] bin exactly.
pub fn fabricate_collision_free_range(
    device: &Device,
    fab: &FabricationParams,
    params: &CollisionParams,
    range: TrialRange,
    seed: Seed,
) -> Vec<Frequencies> {
    survivors(device, fab, params, range, seed).collect()
}

/// The one trial loop: the sampled frequencies of the collision-free
/// trials of `range`, in ascending trial order. The tally and the bin
/// both consume it, so they can never disagree about the same range.
///
/// Each trial is drawn in blocks and stops after its first block with a
/// collision (see the module docs for why the output is that of full
/// draws). Qubit `q` of a trial is `ideal[q] + (0.0 + σ_f * z)` for its
/// standard normal `z`, what [`FabricationParams::sample`] computes. The
/// ideal frequencies and the scratch assignment are made once per call
/// and a survivor is cloned out of the scratch, so a colliding trial
/// allocates nothing.
fn survivors<'a>(
    device: &'a Device,
    fab: &'a FabricationParams,
    params: &'a CollisionParams,
    range: TrialRange,
    seed: Seed,
) -> impl Iterator<Item = Frequencies> + 'a {
    survivors_drawing(device, fab, params, range, seed, fill_standard_normal)
}

/// [`survivors`] with its block draw of standard normals passed in, so a
/// test can count the draws a trial makes.
fn survivors_drawing<'a>(
    device: &'a Device,
    fab: &'a FabricationParams,
    params: &'a CollisionParams,
    range: TrialRange,
    seed: Seed,
    mut normals: impl FnMut(&mut StdRng, &mut [f64]) + 'a,
) -> impl Iterator<Item = Frequencies> + 'a {
    let schedule = CheckSchedule::new(device);
    let ideal = Frequencies::ideal(device, fab.plan());
    let mut scratch = ideal.clone();
    let sigma_f = fab.sigma_f();
    (range.start..range.end).filter_map(move |i| {
        let mut rng = seed.split(i as u64).rng();
        let hit = schedule.fill_until_collision(&mut scratch, params, |block, values| {
            normals(&mut rng, values);
            for (f, &ideal_q) in values.iter_mut().zip(&ideal.as_slice()[block]) {
                *f = ideal_q + (0.0 + sigma_f * *f);
            }
        });
        hit.is_none().then(|| scratch.clone())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    use chipletqc_collision::checker::{find_collisions, is_collision_free};
    use chipletqc_topology::family::{ChipletSpec, MonolithicSpec};

    fn params() -> CollisionParams {
        CollisionParams::paper()
    }

    #[test]
    fn zero_variation_yields_everything() {
        let device = ChipletSpec::with_qubits(20).unwrap().build();
        let fab = FabricationParams::state_of_the_art().with_sigma_f(0.0);
        let est = simulate_yield(&device, &fab, &params(), 64, Seed(1));
        assert_eq!(est.survivors, 64);
        assert_eq!(est.fraction(), 1.0);
    }

    #[test]
    fn huge_variation_yields_nothing_at_scale() {
        let device = MonolithicSpec::with_qubits(200).unwrap().build();
        let fab = FabricationParams::post_fabrication();
        let est = simulate_yield(&device, &fab, &params(), 100, Seed(2));
        assert_eq!(est.survivors, 0);
    }

    #[test]
    fn yield_decreases_with_size_at_fixed_precision() {
        let fab = FabricationParams::state_of_the_art();
        let small = simulate_yield(
            &MonolithicSpec::with_qubits(20).unwrap().build(),
            &fab,
            &params(),
            400,
            Seed(3),
        );
        let large = simulate_yield(
            &MonolithicSpec::with_qubits(200).unwrap().build(),
            &fab,
            &params(),
            400,
            Seed(3),
        );
        assert!(
            small.fraction() > large.fraction() + 0.1,
            "small {} vs large {}",
            small,
            large
        );
    }

    #[test]
    fn deterministic_per_seed_and_distinct_across_seeds() {
        let device = ChipletSpec::with_qubits(40).unwrap().build();
        let fab = FabricationParams::state_of_the_art();
        let a = simulate_yield(&device, &fab, &params(), 300, Seed(7));
        let b = simulate_yield(&device, &fab, &params(), 300, Seed(7));
        assert_eq!(a, b);
        assert_ne!(a.survivors, 0);
        // Another seed fabricates other devices: the counts may tie,
        // but the bins differ.
        let bin = |seed| fabricate_collision_free(&device, &fab, &params(), 300, seed);
        let seven = bin(Seed(7));
        assert_eq!(seven.len(), a.survivors);
        assert_ne!(seven, bin(Seed(8)));
    }

    #[test]
    fn bin_matches_yield_count_and_is_ordered() {
        let device = ChipletSpec::with_qubits(20).unwrap().build();
        let fab = FabricationParams::state_of_the_art();
        let est = simulate_yield(&device, &fab, &params(), 250, Seed(11));
        let bin = fabricate_collision_free(&device, &fab, &params(), 250, Seed(11));
        assert_eq!(bin.len(), est.survivors);
        // Every member re-validates as collision-free.
        for freqs in &bin {
            assert!(is_collision_free(&device, freqs, &params()));
        }
        // Re-running returns the same bin (determinism).
        let again = fabricate_collision_free(&device, &fab, &params(), 250, Seed(11));
        assert_eq!(bin, again);
        // The `_with_workers` wrapper ignores its worker count.
        let pinned = fabricate_collision_free_with_workers(
            &device,
            &fab,
            &params(),
            250,
            Seed(11),
            Some(8),
        );
        assert_eq!(bin, pinned);
    }

    #[test]
    fn confidence_interval_brackets_fraction() {
        let device = ChipletSpec::with_qubits(10).unwrap().build();
        let fab = FabricationParams::state_of_the_art();
        let est = simulate_yield(&device, &fab, &params(), 500, Seed(4));
        let (lo, hi) = est.confidence95();
        assert!(lo <= est.fraction() && est.fraction() <= hi);
        assert!(hi - lo < 0.1);
    }

    #[test]
    fn paper_anchor_10q_chiplet_yield_near_085() {
        // Section V-C: "a qc = 10 chiplet is characterized by
        // approximately Yc = 0.85" at sigma_f = 0.014.
        let device = ChipletSpec::with_qubits(10).unwrap().build();
        let fab = FabricationParams::state_of_the_art();
        let est = simulate_yield(&device, &fab, &params(), 2000, Seed(5));
        assert!(est.fraction() > 0.75 && est.fraction() < 0.92, "10q yield {}", est);
    }

    #[test]
    fn empty_batch_is_zero() {
        let device = ChipletSpec::with_qubits(10).unwrap().build();
        let fab = FabricationParams::state_of_the_art();
        let est = simulate_yield(&device, &fab, &params(), 0, Seed(1));
        assert_eq!(est.fraction(), 0.0);
        assert_eq!(est.to_string(), "0/0 = 0.000");
    }

    #[test]
    fn sharded_ranges_merge_to_the_full_batch_result() {
        let device = ChipletSpec::with_qubits(20).unwrap().build();
        let fab = FabricationParams::state_of_the_art();
        let full = simulate_yield(&device, &fab, &params(), 250, Seed(23));
        let full_bin = fabricate_collision_free(&device, &fab, &params(), 250, Seed(23));
        for cuts in [&[0, 125, 250][..], &[0, 84, 167, 250], &[0, 1, 2, 100, 249, 250]] {
            let (mut survivors, mut bin) = (0, Vec::new());
            for w in cuts.windows(2) {
                let r = TrialRange { start: w[0], end: w[1] };
                survivors +=
                    simulate_yield_range(&device, &fab, &params(), r, Seed(23), None).survivors;
                bin.extend(fabricate_collision_free_range(
                    &device,
                    &fab,
                    &params(),
                    r,
                    Seed(23),
                ));
            }
            assert_eq!(survivors, full.survivors, "estimate diverged at cuts {cuts:?}");
            assert_eq!(bin, full_bin, "bin diverged at cuts {cuts:?}");
        }
    }

    #[test]
    fn a_trial_stops_drawing_at_its_first_collision() {
        // At Fig. 4's three precisions most 0.1323 trials collide
        // early and most 0.006 trials survive.
        let devices = [
            ChipletSpec::with_qubits(20).unwrap().build(),
            MonolithicSpec::with_qubits(60).unwrap().build(),
        ];
        let (mut colliding, mut surviving) = (0, 0);
        for device in &devices {
            let schedule = CheckSchedule::new(device);
            for sigma_f in [0.1323, 0.014, 0.006] {
                let fab = FabricationParams::state_of_the_art().with_sigma_f(sigma_f);
                for i in 0..40 {
                    let trial = TrialRange { start: i, end: i + 1 };
                    let draws = Cell::new(0);
                    let survived = survivors_drawing(
                        device,
                        &fab,
                        &params(),
                        trial,
                        Seed(29),
                        |rng, values| {
                            draws.set(draws.get() + values.len());
                            fill_standard_normal(rng, values);
                        },
                    )
                    .count();
                    let full = fab.sample(device, &mut Seed(29).split(i as u64).rng());
                    let report = find_collisions(device, &full, &params());
                    // Up to the end of the block holding the lowest, over
                    // the trial's collisions, of the highest qubit each
                    // involves; else every qubit.
                    let expected = report
                        .collisions
                        .iter()
                        .filter_map(|c| c.qubits.iter().max())
                        .min()
                        .map_or(device.num_qubits(), |q| {
                            schedule.blocks().find(|b| b.contains(&q.index())).unwrap().end
                        });
                    assert_eq!(survived, usize::from(report.is_collision_free()));
                    assert_eq!(
                        draws.get(),
                        expected,
                        "{} sigma_f {sigma_f} trial {i}",
                        device.name()
                    );
                    if report.is_collision_free() {
                        surviving += 1;
                    } else {
                        colliding += 1;
                    }
                }
            }
        }
        assert!(
            colliding > 50 && surviving > 50,
            "{colliding} colliding, {surviving} surviving"
        );
    }

    #[test]
    fn codec_round_trips_and_validates() {
        use chipletqc_math::codec::{decode_from_slice, encode_to_vec};
        let est = YieldEstimate { survivors: 7, batch: 10 };
        assert_eq!(decode_from_slice::<YieldEstimate>(&encode_to_vec(&est)).unwrap(), est);
        let bad = encode_to_vec(&YieldEstimate { survivors: 11, batch: 10 });
        assert!(decode_from_slice::<YieldEstimate>(&bad).is_err());
    }
}
