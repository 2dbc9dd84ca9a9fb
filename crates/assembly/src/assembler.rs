//! Best-first MCM assembly with collision-aware reshuffling.
//!
//! Section VII-B of the paper: "Chiplet stitching procedures use the
//! chiplets with the lowest error rates first … If a frequency collision
//! between adjacent chiplets is found with a particular MCM
//! configuration, chiplet placement is shuffled within the MCM. If a
//! collision-free MCM is not discovered according to time-out criteria
//! (100 maximum reconfigurations), chiplets are returned back to the bin
//! and MCM assembly continues with a new subset of chiplets from the
//! sorted, collision-free bin."
//!
//! Every chiplet in the bin is individually collision-free, so a
//! composed module can only collide *across* chip boundaries; the
//! assembler therefore checks just the inter-chip couplings and the
//! control/target triples they create, which keeps assembly linear in
//! the number of links rather than the number of edges.
//!
//! Assembly runs in two halves. [`Assembler::place`] fixes every
//! module's chip order; it never reads the link model, so one
//! [`Placement`] serves every link ratio. [`Placement::modules`] then
//! draws inter-chip link noise for as many of the modules as a caller
//! reads. [`Assembler::assemble`] is the two halves over every module.

use chipletqc_collision::criteria::{
    type1, type2, type3, type4, type5, type6, type7, CollisionParams,
};
use chipletqc_collision::frequencies::Frequencies;
use chipletqc_math::rng::{shuffle, Seed};
use chipletqc_noise::assign::EdgeNoise;
use chipletqc_noise::link::LinkModel;
use chipletqc_topology::device::{Device, EdgeKind};
use chipletqc_topology::mcm::McmSpec;
use chipletqc_topology::qubit::QubitId;
use rand::rngs::StdRng;

use crate::bonding::BondParams;
use crate::kgd::KgdBin;

/// Assembly policy parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AssemblyParams {
    /// Collision thresholds for the cross-chip checks.
    pub collision: CollisionParams,
    /// Maximum placement reshuffles per subset (paper: 100).
    pub max_reshuffles: usize,
    /// Bump-bond model for post-assembly yield accounting.
    pub bond: BondParams,
}

impl AssemblyParams {
    /// The paper's assembly policy.
    pub fn paper() -> AssemblyParams {
        AssemblyParams {
            collision: CollisionParams::paper(),
            max_reshuffles: 100,
            bond: BondParams::paper(),
        }
    }
}

impl Default for AssemblyParams {
    fn default() -> Self {
        AssemblyParams::paper()
    }
}

/// One assembled, collision-free multi-chip module.
#[derive(Debug, Clone, PartialEq)]
pub struct AssembledMcm {
    /// Composed per-qubit frequencies over the MCM device.
    pub freqs: Frequencies,
    /// Per-edge CX infidelity: KGD-measured on-chip noise plus freshly
    /// sampled link noise.
    pub noise: EdgeNoise,
    /// Average infidelity across every coupled pair of the module.
    pub eavg: f64,
    /// Bin indices of the chiplets, in chip-grid (row-major) order.
    pub chip_order: Vec<usize>,
}

/// The result of draining a KGD bin into modules.
#[derive(Debug, Clone, PartialEq)]
pub struct AssemblyOutcome {
    /// Completed modules in assembly order (best chiplets first, so
    /// `mcms[0]` is the premium module).
    pub mcms: Vec<AssembledMcm>,
    /// Chiplets that could not be placed in any complete collision-free
    /// module (tail remainder plus timed-out subsets).
    pub unplaced: usize,
    /// Subsets that exhausted the reshuffle budget.
    pub timed_out_subsets: usize,
    /// Total placement reshuffles performed.
    pub reshuffles: usize,
    /// Linked qubits per module (the `L` of the bonding model).
    pub link_qubits_per_mcm: usize,
}

impl AssemblyOutcome {
    /// Chiplets consumed by completed modules.
    pub fn chiplets_used(&self) -> usize {
        self.mcms.iter().map(|m| m.chip_order.len()).sum()
    }

    /// Post-assembly yield (Fig. 8a): chiplets used in complete
    /// collision-free modules over the original batch, times the
    /// probability that all link qubits bond —
    /// `(used / batch) · (s_l^25)^L`.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn post_assembly_yield(&self, batch: usize, bond: &BondParams) -> f64 {
        post_assembly_yield(self.chiplets_used(), self.link_qubits_per_mcm, batch, bond)
    }
}

/// The one definition of post-assembly yield, `(used / batch) ·
/// (s_l^25)^L`, behind both outcome and placement.
fn post_assembly_yield(
    used: usize,
    link_qubits: usize,
    batch: usize,
    bond: &BondParams,
) -> f64 {
    assert!(batch > 0, "batch must be nonzero");
    (used as f64 / batch as f64) * bond.module_survival(link_qubits)
}

/// The link-independent half of an assembly: every completed module's
/// chip order, the placement counters, and the assembly stream exactly
/// as placement left it.
///
/// Link noise is drawn after all placement, module by module, so a
/// clone of the stored stream reproduces any prefix of
/// [`Assembler::assemble`]'s modules. The fields stay private to keep
/// the orders and the stream paired.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    orders: Vec<Vec<usize>>,
    unplaced: usize,
    timed_out_subsets: usize,
    reshuffles: usize,
    link_qubits_per_mcm: usize,
    rng: StdRng,
}

impl Placement {
    /// Completed modules.
    pub fn len(&self) -> usize {
        self.orders.len()
    }

    /// Whether no module was completed.
    pub fn is_empty(&self) -> bool {
        self.orders.is_empty()
    }

    /// Chiplets that could not be placed in any complete collision-free
    /// module (tail remainder plus timed-out subsets).
    pub fn unplaced(&self) -> usize {
        self.unplaced
    }

    /// Subsets that exhausted the reshuffle budget.
    pub fn timed_out_subsets(&self) -> usize {
        self.timed_out_subsets
    }

    /// Total placement reshuffles performed.
    pub fn reshuffles(&self) -> usize {
        self.reshuffles
    }

    /// Linked qubits per module (the `L` of the bonding model).
    pub fn link_qubits_per_mcm(&self) -> usize {
        self.link_qubits_per_mcm
    }

    /// Chiplets consumed by completed modules.
    pub fn chiplets_used(&self) -> usize {
        self.orders.iter().map(Vec::len).sum()
    }

    /// Post-assembly yield (Fig. 8a), bit-equal to
    /// [`AssemblyOutcome::post_assembly_yield`] of the full assembly.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn post_assembly_yield(&self, batch: usize, bond: &BondParams) -> f64 {
        post_assembly_yield(self.chiplets_used(), self.link_qubits_per_mcm, batch, bond)
    }

    /// The first `n` modules (all of them when `n` exceeds
    /// [`Placement::len`]): frequencies and on-chip noise composed from
    /// `bin`, link noise drawn from `link_model`.
    ///
    /// `spec` and `bin` must be the ones this placement was made from.
    /// The draws come from a clone of the stored stream, so the result
    /// equals the first `n` modules of [`Assembler::assemble`] with the
    /// same inputs, whatever `n` and however often this is called.
    pub fn modules(
        &self,
        spec: &McmSpec,
        bin: &KgdBin,
        link_model: &LinkModel,
        n: usize,
    ) -> Vec<AssembledMcm> {
        let orders = &self.orders[..n.min(self.orders.len())];
        compose_modules(spec, bin, orders, link_model, &mut self.rng.clone())
    }
}

/// The best-first assembler.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Assembler {
    params: AssemblyParams,
}

impl Assembler {
    /// Creates an assembler with the given policy.
    pub fn new(params: AssemblyParams) -> Assembler {
        Assembler { params }
    }

    /// Drains `bin` into as many complete collision-free `spec` modules
    /// as possible: [`Assembler::place`], then every module's link noise
    /// drawn from the stream placement left (what
    /// [`Placement::modules`] repeats for any prefix).
    ///
    /// Deterministic in `seed` (used for reshuffle order and link-noise
    /// sampling).
    pub fn assemble(
        &self,
        spec: &McmSpec,
        bin: &KgdBin,
        link_model: &LinkModel,
        seed: Seed,
    ) -> AssemblyOutcome {
        let Placement {
            orders,
            unplaced,
            timed_out_subsets,
            reshuffles,
            link_qubits_per_mcm,
            mut rng,
        } = self.place(spec, bin, seed);
        AssemblyOutcome {
            mcms: compose_modules(spec, bin, &orders, link_model, &mut rng),
            unplaced,
            timed_out_subsets,
            reshuffles,
            link_qubits_per_mcm,
        }
    }

    /// Places `bin`'s chiplets best-first into as many complete
    /// collision-free `spec` modules as possible, reshuffling a subset's
    /// placement up to the policy's budget. Draws no link noise.
    ///
    /// Deterministic in `seed` (used for reshuffle order).
    pub fn place(&self, spec: &McmSpec, bin: &KgdBin, seed: Seed) -> Placement {
        let chips_needed = spec.num_chips();
        let mcm_device = spec.build();
        let chiplet_device = spec.chiplet().build();
        let mut rng = seed.split_str("assembly").rng();

        let mut mcms = Vec::new();
        let mut reshuffles = 0;
        let mut timed_out_subsets = 0;
        let mut retry_pool: Vec<usize> = Vec::new();

        let place_subset = |subset: &mut Vec<usize>,
                            rng: &mut StdRng,
                            reshuffles: &mut usize|
         -> Option<Vec<usize>> {
            for attempt in 0..=self.params.max_reshuffles {
                if attempt > 0 {
                    shuffle(subset, rng);
                    *reshuffles += 1;
                }
                let freqs = compose_frequencies(&chiplet_device, bin, subset);
                if cross_chip_collision_free(&mcm_device, &freqs, &self.params.collision) {
                    return Some(subset.clone());
                }
            }
            None
        };

        // Main pass: consume the sorted bin front-to-back.
        let mut cursor = 0;
        while cursor + chips_needed <= bin.len() {
            let mut subset: Vec<usize> = (cursor..cursor + chips_needed).collect();
            cursor += chips_needed;
            match place_subset(&mut subset, &mut rng, &mut reshuffles) {
                Some(order) => mcms.push(order),
                None => {
                    timed_out_subsets += 1;
                    retry_pool.extend(subset);
                }
            }
        }
        let mut leftover: Vec<usize> = (cursor..bin.len()).collect();

        // Retry pass: timed-out chiplets get one more chance in fresh
        // combinations (mixed with the tail remainder).
        retry_pool.append(&mut leftover);
        retry_pool.sort_unstable();
        let mut unplaced = Vec::new();
        let mut retry_cursor = 0;
        while retry_cursor + chips_needed <= retry_pool.len() {
            let mut subset: Vec<usize> =
                retry_pool[retry_cursor..retry_cursor + chips_needed].to_vec();
            retry_cursor += chips_needed;
            match place_subset(&mut subset, &mut rng, &mut reshuffles) {
                Some(order) => mcms.push(order),
                None => {
                    timed_out_subsets += 1;
                    unplaced.extend(subset);
                }
            }
        }
        unplaced.extend(retry_pool.drain(retry_cursor..));

        Placement {
            orders: mcms,
            unplaced: unplaced.len(),
            timed_out_subsets,
            reshuffles,
            link_qubits_per_mcm: mcm_device.link_qubits().len(),
            rng,
        }
    }
}

/// Materializes placed modules in order: frequencies and on-chip noise
/// composed from `bin`, then each module's link noise drawn from `rng`,
/// one module after the other.
fn compose_modules(
    spec: &McmSpec,
    bin: &KgdBin,
    orders: &[Vec<usize>],
    link_model: &LinkModel,
    rng: &mut StdRng,
) -> Vec<AssembledMcm> {
    let mcm_device = spec.build();
    let chiplet_device = spec.chiplet().build();
    orders
        .iter()
        .map(|order| {
            let freqs = compose_frequencies(&chiplet_device, bin, order);
            let noise =
                compose_noise(&mcm_device, &chiplet_device, bin, order, link_model, rng);
            let eavg = noise.eavg();
            AssembledMcm { freqs, noise, eavg, chip_order: order.clone() }
        })
        .collect()
}

/// Concatenates the chiplets' fabricated frequencies into the MCM's
/// chip-major qubit order. The module takes its chiplets' α: every
/// chiplet of a bin is fabricated under one plan, and a stored bin is
/// keyed by that plan, so they all share it.
fn compose_frequencies(chiplet_device: &Device, bin: &KgdBin, order: &[usize]) -> Frequencies {
    let qc = chiplet_device.num_qubits();
    let mut freqs = Vec::with_capacity(order.len() * qc);
    for &idx in order {
        freqs.extend_from_slice(&bin.chiplets()[idx].freqs.as_slice()[..qc]);
    }
    let alpha = bin.chiplets()[order[0]].freqs.alpha(QubitId(0));
    Frequencies::with_uniform_alpha(freqs, alpha).expect("bin members are finite")
}

/// Builds the module's edge noise: on-chip edges inherit the owning
/// chiplet's KGD measurement; inter-chip edges sample the link model.
fn compose_noise(
    mcm_device: &Device,
    chiplet_device: &Device,
    bin: &KgdBin,
    order: &[usize],
    link_model: &LinkModel,
    rng: &mut StdRng,
) -> EdgeNoise {
    let qc = chiplet_device.num_qubits() as u32;
    let infidelities = mcm_device
        .edges()
        .iter()
        .map(|e| match e.kind {
            EdgeKind::OnChip => {
                let chip = mcm_device.chip(e.a).index();
                let local_a = QubitId(e.a.0 - chip as u32 * qc);
                let local_b = QubitId(e.b.0 - chip as u32 * qc);
                let local_edge = chiplet_device
                    .edge_between(local_a, local_b)
                    .expect("identical chiplet blueprints");
                bin.chiplets()[order[chip]].noise.infidelity(local_edge.id)
            }
            EdgeKind::InterChip => link_model.sample(rng),
        })
        .collect();
    EdgeNoise::from_infidelities(infidelities)
}

/// Checks only the collision conditions a module composition can
/// introduce: its inter-chip couplings (criteria 1–4) and the
/// control/target triples involving a link (criteria 5–7). On-chip
/// conditions were already validated when each chiplet entered the
/// collision-free bin.
fn cross_chip_collision_free(
    mcm_device: &Device,
    freqs: &Frequencies,
    params: &CollisionParams,
) -> bool {
    for e in mcm_device.inter_chip_edges() {
        let (c, t) = (e.control, e.target());
        if type1(freqs, e.a, e.b, params)
            || type2(freqs, c, t, params)
            || type3(freqs, e.a, e.b, params)
            || type4(freqs, c, t, params)
        {
            return false;
        }
        // The link control's other targets now share a control with the
        // cross-chip target.
        let targets = mcm_device.targets_of(c);
        for (jx, &j) in targets.iter().enumerate() {
            for &k in &targets[jx + 1..] {
                if type5(freqs, j, k, params)
                    || type6(freqs, j, k, params)
                    || type7(freqs, c, j, k, params)
                {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipletqc_collision::checker::is_collision_free;
    use chipletqc_math::stats::mean;
    use chipletqc_noise::NoiseModel;
    use chipletqc_topology::family::ChipletSpec;
    use chipletqc_yield::fabrication::FabricationParams;
    use chipletqc_yield::monte_carlo::fabricate_collision_free;

    fn make_bin(
        chiplet_qubits: usize,
        batch: usize,
        seed: u64,
    ) -> (Device, KgdBin, NoiseModel) {
        let device = ChipletSpec::with_qubits(chiplet_qubits).unwrap().build();
        let raw = fabricate_collision_free(
            &device,
            &FabricationParams::state_of_the_art(),
            &CollisionParams::paper(),
            batch,
            Seed(seed),
        );
        let model = NoiseModel::paper(Seed(seed + 1));
        let kgd = KgdBin::characterize(&device, raw, &model, Seed(seed + 2));
        (device, kgd, model)
    }

    #[test]
    fn assembles_expected_module_count() {
        let (_, kgd, model) = make_bin(10, 300, 7);
        let spec = McmSpec::new(ChipletSpec::with_qubits(10).unwrap(), 2, 2);
        let outcome = Assembler::new(AssemblyParams::paper()).assemble(
            &spec,
            &kgd,
            model.link_model(),
            Seed(9),
        );
        // Nearly every subset should place within the reshuffle budget.
        let max_possible = kgd.len() / 4;
        assert!(
            outcome.mcms.len() >= max_possible - 3,
            "{} of {max_possible}",
            outcome.mcms.len()
        );
        assert_eq!(outcome.chiplets_used() + outcome.unplaced, kgd.len());
    }

    #[test]
    fn every_assembled_module_is_fully_collision_free() {
        let (_, kgd, model) = make_bin(10, 250, 11);
        let spec = McmSpec::new(ChipletSpec::with_qubits(10).unwrap(), 2, 3);
        let mcm_device = spec.build();
        let outcome = Assembler::new(AssemblyParams::paper()).assemble(
            &spec,
            &kgd,
            model.link_model(),
            Seed(13),
        );
        assert!(!outcome.mcms.is_empty());
        for m in &outcome.mcms {
            // The targeted cross-chip check must imply the full check.
            assert!(is_collision_free(&mcm_device, &m.freqs, &CollisionParams::paper()));
            assert_eq!(m.noise.len(), mcm_device.edges().len());
            assert_eq!(m.chip_order.len(), 6);
        }
    }

    #[test]
    fn best_chiplets_go_into_first_modules() {
        let (_, kgd, model) = make_bin(10, 300, 17);
        let spec = McmSpec::new(ChipletSpec::with_qubits(10).unwrap(), 2, 2);
        let outcome = Assembler::new(AssemblyParams::paper()).assemble(
            &spec,
            &kgd,
            model.link_model(),
            Seed(19),
        );
        // First module draws from the head of the sorted bin.
        assert!(outcome.mcms[0].chip_order.iter().all(|i| *i < 8));
        // eavg should broadly increase along the assembly order.
        let first_quarter: Vec<f64> =
            outcome.mcms[..outcome.mcms.len() / 4].iter().map(|m| m.eavg).collect();
        let last_quarter: Vec<f64> =
            outcome.mcms[3 * outcome.mcms.len() / 4..].iter().map(|m| m.eavg).collect();
        assert!(mean(&first_quarter) < mean(&last_quarter));
    }

    #[test]
    fn on_chip_noise_is_inherited_from_kgd() {
        let (chiplet_device, kgd, model) = make_bin(10, 120, 23);
        let spec = McmSpec::new(ChipletSpec::with_qubits(10).unwrap(), 1, 2);
        let mcm_device = spec.build();
        let outcome = Assembler::new(AssemblyParams::paper()).assemble(
            &spec,
            &kgd,
            model.link_model(),
            Seed(29),
        );
        let m = &outcome.mcms[0];
        // Chip 0's first on-chip edge must carry the exact KGD value.
        let first_chiplet = &kgd.chiplets()[m.chip_order[0]];
        let e0 = &mcm_device.edges()[0];
        assert_eq!(e0.kind, EdgeKind::OnChip);
        let local = chiplet_device.edge_between(e0.a, e0.b).unwrap();
        assert_eq!(m.noise.infidelity(e0.id), first_chiplet.noise.infidelity(local.id));
    }

    #[test]
    fn deterministic() {
        let (_, kgd, model) = make_bin(10, 200, 31);
        let spec = McmSpec::new(ChipletSpec::with_qubits(10).unwrap(), 2, 2);
        let assembler = Assembler::new(AssemblyParams::paper());
        let a = assembler.assemble(&spec, &kgd, model.link_model(), Seed(37));
        let b = assembler.assemble(&spec, &kgd, model.link_model(), Seed(37));
        assert_eq!(a, b);
    }

    #[test]
    fn post_assembly_yield_below_raw_yield() {
        let (_, kgd, model) = make_bin(10, 300, 41);
        let spec = McmSpec::new(ChipletSpec::with_qubits(10).unwrap(), 2, 2);
        let outcome = Assembler::new(AssemblyParams::paper()).assemble(
            &spec,
            &kgd,
            model.link_model(),
            Seed(43),
        );
        let y = outcome.post_assembly_yield(300, &BondParams::paper());
        let raw = kgd.len() as f64 / 300.0;
        assert!(y > 0.0 && y <= raw, "post {y} vs raw {raw}");
        // The paper: assembly/linking losses are slight.
        assert!(y > raw * 0.8, "post {y} vs raw {raw}");
    }

    #[test]
    fn empty_bin_produces_nothing() {
        let device = ChipletSpec::with_qubits(10).unwrap().build();
        let kgd = KgdBin::characterize(&device, vec![], &NoiseModel::paper(Seed(1)), Seed(2));
        let spec = McmSpec::new(ChipletSpec::with_qubits(10).unwrap(), 2, 2);
        let outcome = Assembler::new(AssemblyParams::paper()).assemble(
            &spec,
            &kgd,
            &LinkModel::paper(),
            Seed(3),
        );
        assert!(outcome.mcms.is_empty());
        assert_eq!(outcome.unplaced, 0);
    }

    #[test]
    fn undersized_bin_leaves_all_unplaced() {
        let (_, kgd, model) = make_bin(10, 10, 47);
        // Bin has < 9 survivors? It has up to 10; require 3x3=9 chips:
        let spec = McmSpec::new(ChipletSpec::with_qubits(10).unwrap(), 3, 3);
        let outcome = Assembler::new(AssemblyParams::paper()).assemble(
            &spec,
            &kgd,
            model.link_model(),
            Seed(49),
        );
        assert_eq!(outcome.chiplets_used() + outcome.unplaced, kgd.len());
        assert!(outcome.mcms.len() <= kgd.len() / 9);
    }
}
