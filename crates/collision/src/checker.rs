//! Whole-device collision checking.
//!
//! Quantifies the Table I criteria over a device: types 1–4 over every
//! coupled pair (with the CR orientation the device defines), and types
//! 5–7 over every control with two targets. Three entry points:
//!
//! * [`CheckSchedule`] is the Monte Carlo hot path of the yield
//!   simulations (Figs. 4, 6 and 8). It files each check under the
//!   highest qubit index it reads, so
//!   [`CheckSchedule::fill_until_collision`] checks a trial while it is
//!   drawn, a block of qubits at a time, and stops after the first block
//!   whose checks find a collision;
//! * [`is_collision_free`] is the full-assignment predicate: the same
//!   verdict over an assignment that is already drawn, with an early
//!   exit (the property tests' oracle and the benchmark's
//!   `collision.check_us`);
//! * [`find_collisions`] lists every collision, for reports and the
//!   per-type analysis.

use std::ops::Range;

use chipletqc_topology::device::Device;
use chipletqc_topology::qubit::QubitId;

use crate::criteria::{
    type1, type2, type3, type4, type5, type6, type7, Collision, CollisionParams, CollisionType,
};
use crate::frequencies::Frequencies;

/// Asserts the assignment covers the device (cheap; indexes would panic
/// later anyway, but the message is clearer here).
fn check_len(device: &Device, freqs: &Frequencies) {
    assert_eq!(
        device.num_qubits(),
        freqs.len(),
        "frequency assignment covers {} qubits but device {} has {}",
        freqs.len(),
        device.name(),
        device.num_qubits()
    );
}

// Both checkers run these once per check; without `#[inline]` a full
// `is_collision_free` scan of a 400- or 1,000-qubit device measured
// ~15% slower (release build, 2-core x86-64 Xeon). Each ORs its
// criteria with `|`, not `||`, and the schedule ORs a block's checks
// the same way, so it branches once on a block's verdict, not per check.

/// Whether any of types 1–4 fires on the edge with control `c` and
/// target `t` (types 1 and 3 are symmetric in the two endpoints).
#[inline]
fn edge_collides(freqs: &Frequencies, [c, t]: [QubitId; 2], params: &CollisionParams) -> bool {
    type1(freqs, c, t, params)
        | type2(freqs, c, t, params)
        | type3(freqs, c, t, params)
        | type4(freqs, c, t, params)
}

/// Whether any of types 5–7 fires on control `i` with targets `j`, `k`.
#[inline]
fn triple_collides(
    freqs: &Frequencies,
    [i, j, k]: [QubitId; 3],
    params: &CollisionParams,
) -> bool {
    type5(freqs, j, k, params) | type6(freqs, j, k, params) | type7(freqs, i, j, k, params)
}

/// Whether the fabricated device has **no** Table I collision.
///
/// This is the paper's batch-classification predicate: "If all seven
/// criteria return false, a QC is categorized as collision-free." It
/// needs the full assignment; the yield simulation instead checks each
/// trial while drawing it, through a [`CheckSchedule`].
///
/// # Panics
///
/// Panics if `freqs` does not cover the device.
pub fn is_collision_free(
    device: &Device,
    freqs: &Frequencies,
    params: &CollisionParams,
) -> bool {
    check_len(device, freqs);
    for e in device.edges() {
        if edge_collides(freqs, [e.control, e.target()], params) {
            return false;
        }
    }
    for i in device.qubits() {
        let targets = device.targets_of(i);
        for (jx, &j) in targets.iter().enumerate() {
            for &k in &targets[jx + 1..] {
                if triple_collides(freqs, [i, j, k], params) {
                    return false;
                }
            }
        }
    }
    true
}

/// The first block a trial is drawn and checked in; each next block is
/// twice as large, up to [`MAX_BLOCK`].
const FIRST_BLOCK: usize = 8;

/// The largest block: a trial of more qubits goes on in blocks of 64.
const MAX_BLOCK: usize = 64;

/// One device's Table I checks, each filed under the highest qubit
/// index it reads: an edge's types 1–4 under its higher endpoint, and a
/// (control, target, target) triple's types 5–7 under the highest of
/// its three qubits.
///
/// The checks filed under the qubits of a block read only qubits of
/// that block or lower ones, so an assignment drawn block by block in
/// qubit order can be checked as it is drawn. Whether an assignment
/// collides does not depend on the order of its checks, so the first
/// block whose checks fire settles the verdict [`is_collision_free`]
/// gives on the full assignment. Build one per device and reuse it for
/// every trial.
#[derive(Debug, Clone)]
pub struct CheckSchedule {
    /// Every edge as `[control, target]`, by higher endpoint: qubit
    /// `q`'s are `edges[edge_at[q]..edge_at[q + 1]]`.
    edges: Vec<[QubitId; 2]>,
    edge_at: Vec<usize>,
    /// Every `[control, target, target]` triple, by highest qubit:
    /// qubit `q`'s are `triples[triple_at[q]..triple_at[q + 1]]`.
    triples: Vec<[QubitId; 3]>,
    triple_at: Vec<usize>,
}

impl CheckSchedule {
    /// Files every check of `device`.
    pub fn new(device: &Device) -> CheckSchedule {
        let n = device.num_qubits();
        let mut triples = Vec::new();
        for i in device.qubits() {
            let targets = device.targets_of(i);
            for (jx, &j) in targets.iter().enumerate() {
                for &k in &targets[jx + 1..] {
                    triples.push([i, j, k]);
                }
            }
        }
        let edges: Vec<_> = device.edges().iter().map(|e| [e.control, e.target()]).collect();
        let (edges, edge_at) = file_by_qubit(n, edges, |&[c, t]| c.max(t));
        let (triples, triple_at) = file_by_qubit(n, triples, |&[i, j, k]| i.max(j).max(k));
        CheckSchedule { edges, edge_at, triples, triple_at }
    }

    /// The number of qubits of the device.
    fn num_qubits(&self) -> usize {
        self.edge_at.len() - 1
    }

    /// The blocks of qubit indices a trial is drawn and checked in, in
    /// order: 8, 16, 32 and 64 qubits, then 64 at a time, the last cut
    /// at the device's size. Small first blocks let a trial that
    /// collides early stop early; large later ones keep a survivor's
    /// branches few.
    pub fn blocks(&self) -> impl Iterator<Item = Range<usize>> {
        let n = self.num_qubits();
        let (mut start, mut size) = (0, FIRST_BLOCK);
        std::iter::from_fn(move || {
            let block = start..n.min(start + size);
            (start, size) = (block.end, MAX_BLOCK.min(2 * size));
            (!block.is_empty()).then_some(block)
        })
    }

    /// Fills `freqs` block by block: for each of [`CheckSchedule::blocks`]
    /// in order, `fill(block, values)` writes the block's frequencies into
    /// `values` (its slice of `freqs`), then every check filed under the
    /// block runs, and the fill stops after the first block with a
    /// collision.
    ///
    /// Returns that block: the one holding the lowest, over the
    /// assignment's collisions, of the highest qubit each involves.
    /// Qubits above it keep what `freqs` held before. Returns `None`
    /// when the assignment is collision-free, after filling every qubit.
    ///
    /// # Panics
    ///
    /// Panics if `freqs` does not cover the device or `fill` writes a
    /// non-finite value.
    pub fn fill_until_collision(
        &self,
        freqs: &mut Frequencies,
        params: &CollisionParams,
        mut fill: impl FnMut(Range<usize>, &mut [f64]),
    ) -> Option<Range<usize>> {
        assert_eq!(
            freqs.len(),
            self.num_qubits(),
            "frequency assignment covers {} qubits but the device has {}",
            freqs.len(),
            self.num_qubits()
        );
        self.blocks().find(|block| {
            freqs.fill_block(block.clone(), |values| fill(block.clone(), values));
            let freqs = &*freqs;
            let edges = &self.edges[self.edge_at[block.start]..self.edge_at[block.end]];
            let triples = &self.triples[self.triple_at[block.start]..self.triple_at[block.end]];
            edges.iter().fold(false, |hit, &e| hit | edge_collides(freqs, e, params))
                | triples.iter().fold(false, |hit, &t| hit | triple_collides(freqs, t, params))
        })
    }
}

/// Sorts `items` by `qubit` (stable) and returns them with each
/// qubit's start: qubit `q`'s items are `items[starts[q]..starts[q + 1]]`.
fn file_by_qubit<T>(
    n: usize,
    mut items: Vec<T>,
    qubit: impl Fn(&T) -> QubitId,
) -> (Vec<T>, Vec<usize>) {
    items.sort_by_key(&qubit);
    let mut starts = vec![0; n + 1];
    for item in &items {
        starts[qubit(item).index() + 1] += 1;
    }
    for q in 0..n {
        starts[q + 1] += starts[q];
    }
    (items, starts)
}

/// A full collision report for one fabricated device.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CollisionReport {
    /// Every collision found, in device scan order.
    pub collisions: Vec<Collision>,
}

impl CollisionReport {
    /// Whether the device is collision-free.
    pub fn is_collision_free(&self) -> bool {
        self.collisions.is_empty()
    }

    /// Collision counts indexed by Table I row − 1.
    pub fn counts_by_type(&self) -> [usize; 7] {
        let mut counts = [0; 7];
        for c in &self.collisions {
            counts[(c.collision_type.table_row() - 1) as usize] += 1;
        }
        counts
    }

    /// The distinct qubits involved in any collision.
    pub fn affected_qubits(&self) -> Vec<QubitId> {
        let mut qs: Vec<QubitId> =
            self.collisions.iter().flat_map(|c| c.qubits.clone()).collect();
        qs.sort_unstable();
        qs.dedup();
        qs
    }
}

impl std::fmt::Display for CollisionReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.collisions.is_empty() {
            return write!(f, "collision-free");
        }
        let counts = self.counts_by_type();
        write!(f, "{} collisions (", self.collisions.len())?;
        let mut first = true;
        for (i, n) in counts.iter().enumerate() {
            if *n > 0 {
                if !first {
                    write!(f, ", ")?;
                }
                write!(f, "T{}: {}", i + 1, n)?;
                first = false;
            }
        }
        write!(f, ")")
    }
}

/// Finds every Table I collision on the device.
///
/// # Panics
///
/// Panics if `freqs` does not cover the device.
pub fn find_collisions(
    device: &Device,
    freqs: &Frequencies,
    params: &CollisionParams,
) -> CollisionReport {
    check_len(device, freqs);
    let mut collisions = Vec::new();
    let mut push = |ty: CollisionType, qubits: Vec<QubitId>| {
        collisions.push(Collision { collision_type: ty, qubits });
    };
    for e in device.edges() {
        let (c, t) = (e.control, e.target());
        if type1(freqs, e.a, e.b, params) {
            push(CollisionType::NearResonantNeighbors, vec![e.a, e.b]);
        }
        if type2(freqs, c, t, params) {
            push(CollisionType::HalfAnharmonicityTarget, vec![c, t]);
        }
        if type3(freqs, e.a, e.b, params) {
            push(CollisionType::AnharmonicityNeighbors, vec![e.a, e.b]);
        }
        if type4(freqs, c, t, params) {
            push(CollisionType::OutsideStraddlingRegime, vec![c, t]);
        }
    }
    for i in device.qubits() {
        let targets = device.targets_of(i);
        for (jx, &j) in targets.iter().enumerate() {
            for &k in &targets[jx + 1..] {
                if type5(freqs, j, k, params) {
                    push(CollisionType::SharedTargetsResonant, vec![i, j, k]);
                }
                if type6(freqs, j, k, params) {
                    push(CollisionType::SharedTargetsAnharmonicity, vec![i, j, k]);
                }
                if type7(freqs, i, j, k, params) {
                    push(CollisionType::TwoPhotonProcess, vec![i, j, k]);
                }
            }
        }
    }
    CollisionReport { collisions }
}

/// Collision counts by type, without materializing the report.
pub fn count_by_type(
    device: &Device,
    freqs: &Frequencies,
    params: &CollisionParams,
) -> [usize; 7] {
    find_collisions(device, freqs, params).counts_by_type()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipletqc_topology::device::{DeviceBuilder, EdgeKind};
    use chipletqc_topology::evalset::paper_mcms;
    use chipletqc_topology::family::{ChipletSpec, MonolithicSpec};
    use chipletqc_topology::plan::FrequencyPlan;
    use chipletqc_topology::qubit::{ChipIndex, FrequencyClass};

    fn paper_params() -> CollisionParams {
        CollisionParams::paper()
    }

    #[test]
    fn ideal_chiplets_are_collision_free() {
        let plan = FrequencyPlan::state_of_the_art();
        for spec in ChipletSpec::catalog() {
            let device = spec.build();
            let freqs = Frequencies::ideal(&device, &plan);
            assert!(
                is_collision_free(&device, &freqs, &paper_params()),
                "{spec}: {}",
                find_collisions(&device, &freqs, &paper_params())
            );
        }
    }

    #[test]
    fn ideal_monolithics_are_collision_free() {
        let plan = FrequencyPlan::state_of_the_art();
        for q in [5, 100, 495, 1000] {
            let device = MonolithicSpec::with_qubits(q).unwrap().build();
            let freqs = Frequencies::ideal(&device, &plan);
            assert!(is_collision_free(&device, &freqs, &paper_params()), "mono-{q}");
        }
    }

    #[test]
    fn ideal_mcms_are_collision_free_including_links() {
        let plan = FrequencyPlan::state_of_the_art();
        for spec in paper_mcms().iter().step_by(9) {
            let device = spec.build();
            let freqs = Frequencies::ideal(&device, &plan);
            assert!(
                is_collision_free(&device, &freqs, &paper_params()),
                "{spec}: {}",
                find_collisions(&device, &freqs, &paper_params())
            );
        }
    }

    #[test]
    fn all_fig4_step_sizes_are_nominally_collision_free() {
        // The Fig. 4 sweep only makes sense if every step size in
        // [0.04, 0.07] is collision-free at zero variation.
        let device = ChipletSpec::with_qubits(20).unwrap().build();
        for step in [0.04, 0.05, 0.06, 0.07] {
            let plan = FrequencyPlan::with_step(step);
            let freqs = Frequencies::ideal(&device, &plan);
            assert!(
                is_collision_free(&device, &freqs, &paper_params()),
                "step {step}: {}",
                find_collisions(&device, &freqs, &paper_params())
            );
        }
    }

    #[test]
    fn near_null_neighbor_is_detected_as_type1_and_5() {
        let device = ChipletSpec::with_qubits(10).unwrap().build();
        let plan = FrequencyPlan::state_of_the_art();
        let mut raw: Vec<f64> = Frequencies::ideal(&device, &plan).as_slice().to_vec();
        // Find an F2 control with two targets and set the targets equal.
        let control = device
            .qubits()
            .find(|q| device.targets_of(*q).len() == 2)
            .expect("10q chiplet has 2-target controls");
        let targets = device.targets_of(control).to_vec();
        raw[targets[1].index()] = raw[targets[0].index()];
        let freqs = Frequencies::with_uniform_alpha(raw, plan.anharmonicity()).unwrap();
        let report = find_collisions(&device, &freqs, &paper_params());
        assert!(!report.is_collision_free());
        let counts = report.counts_by_type();
        assert!(counts[4] > 0, "expected a Type 5: {report}");
        assert!(!report.affected_qubits().is_empty());
        assert!(!is_collision_free(&device, &freqs, &paper_params()));
    }

    #[test]
    fn raised_target_breaks_straddling() {
        let device = ChipletSpec::with_qubits(10).unwrap().build();
        let plan = FrequencyPlan::state_of_the_art();
        let mut raw: Vec<f64> = Frequencies::ideal(&device, &plan).as_slice().to_vec();
        let edge = &device.edges()[0];
        // Push the target above its control: Type 4.
        raw[edge.target().index()] = raw[edge.control.index()] + 0.01;
        let freqs = Frequencies::with_uniform_alpha(raw, plan.anharmonicity()).unwrap();
        let report = find_collisions(&device, &freqs, &paper_params());
        assert!(report.counts_by_type()[3] > 0, "{report}");
    }

    #[test]
    fn report_display_summarizes_counts() {
        let device = ChipletSpec::with_qubits(10).unwrap().build();
        let plan = FrequencyPlan::state_of_the_art();
        let freqs = Frequencies::ideal(&device, &plan);
        assert_eq!(
            find_collisions(&device, &freqs, &paper_params()).to_string(),
            "collision-free"
        );
    }

    #[test]
    #[should_panic(expected = "covers")]
    fn mismatched_assignment_panics() {
        let device = ChipletSpec::with_qubits(10).unwrap().build();
        let freqs = Frequencies::with_uniform_alpha(vec![5.0; 3], -0.33).unwrap();
        let _ = is_collision_free(&device, &freqs, &paper_params());
    }

    #[test]
    fn count_by_type_matches_report() {
        let device = ChipletSpec::with_qubits(20).unwrap().build();
        let plan = FrequencyPlan::with_step(0.015); // inside the Type 1 window
        let freqs = Frequencies::ideal(&device, &plan);
        let report = find_collisions(&device, &freqs, &paper_params());
        assert_eq!(report.counts_by_type(), count_by_type(&device, &freqs, &paper_params()));
        assert!(!report.is_collision_free());
    }

    #[test]
    fn schedule_files_every_check_once_under_its_highest_qubit() {
        // In the heavy-hex families a target is always a triple's highest
        // qubit; in this star the control is.
        let mut star = DeviceBuilder::new("star");
        let targets = [FrequencyClass::F0, FrequencyClass::F1, FrequencyClass::F0]
            .map(|class| star.add_qubit(class, ChipIndex(0)));
        let control = star.add_qubit(FrequencyClass::F2, ChipIndex(0));
        for t in targets {
            star.add_edge(t, control, EdgeKind::OnChip);
        }
        let devices = [
            star.build(),
            ChipletSpec::with_qubits(20).unwrap().build(),
            MonolithicSpec::with_qubits(100).unwrap().build(),
            paper_mcms()[0].build(),
        ];
        for device in &devices {
            let schedule = CheckSchedule::new(device);
            assert_eq!(schedule.num_qubits(), device.num_qubits());
            let (mut edges, mut triples) = (Vec::new(), Vec::new());
            for (q, qubit) in device.qubits().enumerate() {
                for e in &schedule.edges[schedule.edge_at[q]..schedule.edge_at[q + 1]] {
                    assert_eq!(e.iter().max(), Some(&qubit), "{}: edge {e:?}", device.name());
                    edges.push(*e);
                }
                for t in &schedule.triples[schedule.triple_at[q]..schedule.triple_at[q + 1]] {
                    assert_eq!(t.iter().max(), Some(&qubit), "{}: triple {t:?}", device.name());
                    triples.push(*t);
                }
            }
            let mut expected: Vec<_> =
                device.edges().iter().map(|e| [e.control, e.target()]).collect();
            edges.sort_unstable();
            expected.sort_unstable();
            assert_eq!(edges, expected, "{}: every edge once", device.name());
            let mut expected = Vec::new();
            for i in device.qubits() {
                let targets = device.targets_of(i);
                for (jx, &j) in targets.iter().enumerate() {
                    expected.extend(targets[jx + 1..].iter().map(|&k| [i, j, k]));
                }
            }
            assert!(!expected.is_empty());
            triples.sort_unstable();
            expected.sort_unstable();
            assert_eq!(triples, expected, "{}: every triple once", device.name());
        }
    }

    #[test]
    #[should_panic(expected = "frequency of Q9 must be finite")]
    fn a_non_finite_fill_panics_naming_the_qubit() {
        let device = ChipletSpec::with_qubits(10).unwrap().build();
        let ideal = Frequencies::ideal(&device, &FrequencyPlan::state_of_the_art());
        let (schedule, mut freqs) = (CheckSchedule::new(&device), ideal.clone());
        schedule.fill_until_collision(&mut freqs, &paper_params(), |block, values| {
            values.copy_from_slice(&ideal.as_slice()[block.clone()]);
            if block.contains(&9) {
                values[9 - block.start] = f64::NAN;
            }
        });
    }

    #[test]
    fn blocks_double_from_8_to_64_and_tile_the_device() {
        let blocks = |device: &Device| CheckSchedule::new(device).blocks().collect::<Vec<_>>();
        let mono = |q| MonolithicSpec::with_qubits(q).unwrap().build();
        assert_eq!(blocks(&mono(100)), [0..8, 8..24, 24..56, 56..100]);
        for device in [ChipletSpec::with_qubits(10).unwrap().build(), mono(495), mono(1000)] {
            let blocks = blocks(&device);
            assert_eq!(blocks[0].start, 0);
            assert_eq!(blocks.last().map(|b| b.end), Some(device.num_qubits()));
            for (i, pair) in blocks.windows(2).enumerate() {
                assert_eq!(pair[0].end, pair[1].start);
                assert_eq!(pair[0].len(), 64.min(8 << i), "{}: block {i}", device.name());
            }
        }
    }

    #[test]
    fn tight_step_collides_via_type1() {
        // Step 0.015 < 0.017 window: every F2-F1 and F2-F0 second-step
        // detuning is 0.015/0.03; the 0.015 ones are Type 1 collisions.
        let device = ChipletSpec::with_qubits(20).unwrap().build();
        let freqs = Frequencies::ideal(&device, &FrequencyPlan::with_step(0.015));
        let counts = count_by_type(&device, &freqs, &paper_params());
        assert!(counts[0] > 0);
    }
}
