//! The shared fabricate → characterize → assemble → compare pipeline.
//!
//! Every architecture comparison in the paper (Figs. 8–10) consumes the
//! same intermediate products: a collision-free KGD-characterized
//! chiplet bin per chiplet size, a collision-free noise-assigned
//! monolithic population per system size, and a best-first MCM
//! placement per configuration. [`Lab`] computes these once per
//! configuration and caches them, and [`Lab::with_link_ratio`] creates
//! sibling labs that share them — the Fig. 9 ratio sweep reuses all
//! fabrication and placement work across its four panels. Module link
//! noise depends on the link ratio, so it is never cached: each
//! comparison draws it ([`Lab::modules`]) only for the modules it
//! averages, and drops them once the system is scored.
//!
//! ## Thread-safe sharing (the engine contract)
//!
//! The caches are `Arc`-based and internally synchronized, so labs can
//! be shared across the worker threads of `chipletqc-engine`'s
//! scenario scheduler. A [`CacheHub`] extends sibling sharing across
//! *independently constructed* labs: every lab created through
//! [`Lab::new_in`] with an equivalent cache-relevant configuration
//! (batch, fabrication, collision thresholds, root seed) reuses the
//! same fabrication and characterization products, and the same
//! placements under the same assembly policy; each product is
//! computed exactly once even when scenarios race for it (per-entry
//! [`OnceLock`] initialization). Cached values are pure functions of
//! the configuration, never of thread timing, so results remain
//! bit-identical regardless of worker count.
//!
//! ## Population semantics
//!
//! The paper compares "the devices in the collision-free monolithic
//! yield to the MCMs resulting from the chiplets in the scaled,
//! collision-free bin", with KGD ranking ensuring the best chiplets
//! form the first modules. [`ComparisonMode::MatchMonolithicCount`]
//! (the default) compares the *best `min(N_mono, N_assembled)`
//! modules* against the full monolithic survivor population — equal
//! device counts, which is what makes speed-binning-style postselection
//! meaningful. [`ComparisonMode::AllAssembled`] is the ablation that
//! averages over every assembled module.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use chipletqc_assembly::assembler::{
    AssembledMcm, Assembler, AssemblyOutcome, AssemblyParams, Placement,
};
use chipletqc_assembly::kgd::KgdBin;
use chipletqc_collision::criteria::CollisionParams;
use chipletqc_collision::frequencies::Frequencies;
use chipletqc_math::codec::{ByteReader, ByteWriter, Codec, CodecError};
use chipletqc_math::rng::Seed;
use chipletqc_math::stats::mean;
use chipletqc_noise::assign::{EdgeNoise, NoiseModel};
use chipletqc_store::envelope::Encoding;
use chipletqc_store::products::KIND_MONO_POP;
use chipletqc_store::{EntryKey, Store, StoreStats};
use chipletqc_topology::device::Device;
use chipletqc_topology::family::{ChipletSpec, MonolithicSpec};
use chipletqc_topology::mcm::McmSpec;
use chipletqc_yield::fabrication::FabricationParams;
use chipletqc_yield::monte_carlo::{fabricate_collision_free, YieldEstimate};

/// How MCM and monolithic populations are matched before averaging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ComparisonMode {
    /// Compare the best `min(N_mono, N_assembled)` modules against all
    /// monolithic survivors (the paper's scaled comparison; default).
    #[default]
    MatchMonolithicCount,
    /// Compare every assembled module (ablation).
    AllAssembled,
}

/// Lab configuration: fabrication batch, models, and seeds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabConfig {
    /// Fabrication batch size per device design (paper: 10 000).
    pub batch: usize,
    /// Table I thresholds.
    pub collision: CollisionParams,
    /// Ideal plan + fabrication precision (paper: σ_f = 0.014).
    pub fabrication: FabricationParams,
    /// Assembly policy (reshuffle budget, bump bonds).
    pub assembly: AssemblyParams,
    /// Link error scale as a multiple of the on-chip mean; `None` uses
    /// the Gold et al. distribution (≈ 4.17×).
    pub link_ratio: Option<f64>,
    /// Population matching mode.
    pub comparison: ComparisonMode,
    /// Root seed; every sub-stream derives from it.
    pub seed: Seed,
}

impl LabConfig {
    /// The paper-scale configuration: batch 10 000, σ_f = 0.014 GHz,
    /// state-of-the-art link noise.
    pub fn paper() -> LabConfig {
        LabConfig {
            batch: 10_000,
            collision: CollisionParams::paper(),
            fabrication: FabricationParams::state_of_the_art(),
            assembly: AssemblyParams::paper(),
            link_ratio: None,
            comparison: ComparisonMode::MatchMonolithicCount,
            seed: Seed(2022),
        }
    }

    /// A reduced configuration for tests and doc examples
    /// (batch 400).
    pub fn quick() -> LabConfig {
        LabConfig { batch: 400, ..LabConfig::paper() }
    }

    /// Returns a copy with a different batch size.
    #[must_use]
    pub fn with_batch(self, batch: usize) -> LabConfig {
        LabConfig { batch, ..self }
    }

    /// Returns a copy with a different root seed.
    #[must_use]
    pub fn with_seed(self, seed: Seed) -> LabConfig {
        LabConfig { seed, ..self }
    }

    /// The key under which labs may share fabrication/characterization
    /// caches: everything that determines those products (batch,
    /// fabrication model, collision thresholds, root seed) and nothing
    /// that does not (link ratio, comparison mode, assembly policy).
    ///
    /// Public because it is also the natural *cross-process* cache
    /// key: shards of one scenario — or repeated engine invocations —
    /// that agree on this string are guaranteed to agree on every
    /// chiplet bin and monolithic population, so persisted products
    /// keyed by `(cache_key, product, size)` can be reused safely.
    ///
    /// The format is the batch, the root seed, then the fabrication
    /// model and the collision thresholds as their `Debug` output
    /// (pinned by `store_keys_are_pinned`).
    pub fn cache_key(&self) -> String {
        format!(
            "b{}|s{}|f{:?}|c{:?}",
            self.batch, self.seed.0, self.fabrication, self.collision
        )
    }
}

impl Default for LabConfig {
    fn default() -> Self {
        LabConfig::paper()
    }
}

/// A collision-free, noise-assigned monolithic device population.
#[derive(Debug, Clone, PartialEq)]
pub struct MonoPopulation {
    /// The monolithic device design.
    pub device: Device,
    /// The Monte Carlo yield estimate.
    pub estimate: YieldEstimate,
    /// Surviving devices: fabricated frequencies + assigned edge noise.
    pub members: Vec<(Frequencies, EdgeNoise)>,
}

impl MonoPopulation {
    /// Mean `E_avg` across the population, `None` when empty.
    pub fn mean_eavg(&self) -> Option<f64> {
        if self.members.is_empty() {
            return None;
        }
        Some(mean(&self.members.iter().map(|(_, n)| n.eavg()).collect::<Vec<f64>>()))
    }
}

/// Binary persistence for the result store: the device is recorded as
/// its qubit count (monolithic devices are a pure function of size)
/// and rebuilt on decode; estimate and members round-trip bit-exactly.
/// Decoding re-validates that the members cover the device and match
/// the estimate, so a stale or corrupt entry is an error (= a store
/// miss), never a wrong population.
impl Codec for MonoPopulation {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_usize(self.device.num_qubits());
        self.estimate.encode(w);
        w.put_seq(&self.members);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<MonoPopulation, CodecError> {
        let qubits = r.get_usize()?;
        let estimate = YieldEstimate::decode(r)?;
        let members: Vec<(Frequencies, EdgeNoise)> = r.get_seq()?;
        let device = MonolithicSpec::with_qubits(qubits)
            .map_err(|e| CodecError::Invalid(format!("monolithic size {qubits}: {e}")))?
            .build();
        if members.len() != estimate.survivors {
            return Err(CodecError::Invalid(format!(
                "{} members but estimate counts {} survivors",
                members.len(),
                estimate.survivors
            )));
        }
        for (freqs, noise) in &members {
            if freqs.len() != device.num_qubits() || noise.len() != device.edges().len() {
                return Err(CodecError::Invalid("member does not cover the device".into()));
            }
        }
        Ok(MonoPopulation { device, estimate, members })
    }
}

/// A cache slot that is initialized exactly once, even under races:
/// the map lock is held only to find the slot, never while computing.
type Slot<T> = Arc<OnceLock<Arc<T>>>;

fn slot<K: Ord + Clone, T>(map: &Mutex<BTreeMap<K, Slot<T>>>, key: &K) -> Slot<T> {
    Arc::clone(map.lock().expect("cache poisoned").entry(key.clone()).or_default())
}

/// Link-independent caches shared between sibling labs (and, through a
/// [`CacheHub`], between labs of concurrent scenarios).
///
/// Placements are kept in memory only; the store never sees them.
///
/// When a persistent [`Store`] is attached (via
/// [`CacheHub::with_store`]), it sits *under* these caches as a
/// read-through/write-behind layer: each per-entry `OnceLock` init
/// first consults the store, and computes (then persists) only on a
/// miss. In-process semantics are unchanged — every product is still
/// materialized at most once per hub, and its bytes are identical with
/// a cold store, a warm store, or no store at all.
#[derive(Debug, Default)]
struct SharedCaches {
    chiplet_bins: Mutex<BTreeMap<usize, Slot<KgdBin>>>,
    mono_pops: Mutex<BTreeMap<usize, Slot<MonoPopulation>>>,
    placements: Mutex<BTreeMap<PlacementKey, Slot<Placement>>>,
    chiplet_fabrications: AtomicUsize,
    mono_fabrications: AtomicUsize,
    store: Option<Arc<Store>>,
}

/// What a placement reads beyond the cache key its [`SharedCaches`]
/// already holds: the assembly policy and the module's shape.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct PlacementKey {
    /// [`AssemblyParams`] formatted with `{:?}`, as
    /// [`LabConfig::cache_key`] formats its models.
    assembly: String,
    /// Chiplet qubits, grid rows and grid columns.
    shape: (usize, usize, usize),
}

impl PlacementKey {
    fn new(assembly: &AssemblyParams, spec: &McmSpec) -> PlacementKey {
        PlacementKey {
            assembly: format!("{assembly:?}"),
            shape: (spec.chiplet().num_qubits(), spec.grid_rows(), spec.grid_cols()),
        }
    }
}

impl SharedCaches {
    /// Adds this cache's campaign counts to `stats`.
    fn tally(&self, stats: &mut FabricationStats) {
        stats.chiplet_fabrications += self.chiplet_fabrications.load(Ordering::Relaxed);
        stats.mono_fabrications += self.mono_fabrications.load(Ordering::Relaxed);
    }
}

/// Counters of how many fabrication campaigns actually ran — the
/// observable for cache-sharing tests and engine run reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FabricationStats {
    /// Chiplet fabrication+KGD campaigns executed (one per distinct
    /// chiplet size, if sharing works).
    pub chiplet_fabrications: usize,
    /// Monolithic fabrication campaigns executed (one per distinct
    /// system size, if sharing works).
    pub mono_fabrications: usize,
}

impl FabricationStats {
    /// Total campaigns of either kind.
    pub fn total(&self) -> usize {
        self.chiplet_fabrications + self.mono_fabrications
    }

    /// The campaigns run since `earlier` was snapshotted — the
    /// per-submission view a long-lived service reports, where the
    /// hub's counters only ever grow across batches.
    #[must_use]
    pub fn since(&self, earlier: FabricationStats) -> FabricationStats {
        FabricationStats {
            chiplet_fabrications: self
                .chiplet_fabrications
                .saturating_sub(earlier.chiplet_fabrications),
            mono_fabrications: self.mono_fabrications.saturating_sub(earlier.mono_fabrications),
        }
    }
}

/// A registry of [`SharedCaches`] keyed by cache-relevant
/// configuration, extending sibling-lab sharing to labs constructed
/// independently (the engine's concurrent scenarios).
///
/// Cloning a hub clones the handle, not the contents; all clones see
/// the same caches.
#[derive(Debug, Clone, Default)]
pub struct CacheHub {
    inner: Arc<Mutex<HubState>>,
    store: Option<Arc<Store>>,
}

#[derive(Debug, Default)]
struct HubState {
    /// Per cache key: the caches and the `clock` value of their last
    /// [`CacheHub::shared_for`] touch.
    entries: BTreeMap<String, (Arc<SharedCaches>, u64)>,
    clock: u64,
    /// Campaign counts carried over from evicted caches, so
    /// [`CacheHub::fabrication_stats`] stays monotonic — the property
    /// per-batch deltas ([`FabricationStats::since`]) rely on.
    retired: FabricationStats,
}

impl CacheHub {
    /// Creates an empty hub with no persistent store.
    pub fn new() -> CacheHub {
        CacheHub::default()
    }

    /// Returns a hub backed by a persistent result store: every lab
    /// created through this hub reads products through the store and
    /// persists what it computes (subject to the store's
    /// [`CacheMode`](chipletqc_store::CacheMode)).
    ///
    /// Must be called before labs are created — entries already handed
    /// out keep the store configuration they were created with.
    #[must_use]
    pub fn with_store(self, store: Store) -> CacheHub {
        CacheHub { store: Some(Arc::new(store)), ..self }
    }

    /// The attached persistent store, if any.
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.store.as_ref()
    }

    /// The persistent store's session counters (zeros when no store is
    /// attached, so reports have a stable shape either way).
    pub fn store_stats(&self) -> StoreStats {
        self.store.as_ref().map(|s| s.stats()).unwrap_or_default()
    }

    /// The store peer tier's transport counters (zeros when no store
    /// or no peer is attached, mirroring [`CacheHub::store_stats`]).
    pub fn peer_stats(&self) -> chipletqc_store::remote::PeerStats {
        self.store.as_ref().and_then(|s| s.peer_stats()).unwrap_or_default()
    }

    /// Joins the store's outstanding background writes (no-op without
    /// a store). Call before reading [`CacheHub::store_stats`] for a
    /// final tally or before another process opens the directory.
    pub fn flush_store(&self) {
        if let Some(store) = &self.store {
            store.flush();
        }
    }

    fn shared_for(&self, config: &LabConfig) -> Arc<SharedCaches> {
        let mut inner = self.inner.lock().expect("hub poisoned");
        inner.clock += 1;
        let touched = inner.clock;
        let entry = inner.entries.entry(config.cache_key()).or_insert_with(|| {
            (Arc::new(SharedCaches { store: self.store.clone(), ..SharedCaches::default() }), 0)
        });
        entry.1 = touched;
        Arc::clone(&entry.0)
    }

    /// Aggregate fabrication counters across every cache in the hub,
    /// including campaigns whose caches have since been evicted — the
    /// counters only ever grow.
    pub fn fabrication_stats(&self) -> FabricationStats {
        let inner = self.inner.lock().expect("hub poisoned");
        let mut stats = inner.retired;
        for (caches, _) in inner.entries.values() {
            caches.tally(&mut stats);
        }
        stats
    }

    /// Evicts the warm caches of every *idle* configuration (no lab
    /// holds them) beyond the `keep` most recently used — by last lab
    /// creation, not insertion — keeping their campaign counts. A
    /// long-lived service calls this after each batch to bound its
    /// memory; an evicted configuration costs only recomputation (or a
    /// store read), since cached values are pure functions of their
    /// keys.
    pub fn trim(&self, keep: usize) {
        let mut inner = self.inner.lock().expect("hub poisoned");
        let mut touches: Vec<u64> =
            inner.entries.values().map(|(_, touched)| *touched).collect();
        touches.sort_unstable_by(|a, b| b.cmp(a));
        // Touches are unique, so this splits off exactly the
        // configurations ranked past `keep`.
        let Some(&cutoff) = touches.get(keep) else { return };
        let HubState { entries, retired, .. } = &mut *inner;
        entries.retain(|_, (caches, touched)| {
            let evict = *touched <= cutoff && Arc::strong_count(caches) == 1;
            if evict {
                caches.tally(retired);
            }
            !evict
        });
    }

    /// Drops every idle warm in-memory product ([`CacheHub::trim`] to
    /// zero; the hub is the only in-process cache) while keeping the
    /// store attachment and the cumulative fabrication counters.
    ///
    /// This is the long-lived service's `reset` valve: the hub behaves
    /// as freshly constructed (plus any persistent store), so the next
    /// batch recomputes or re-reads from disk. Call it between batches,
    /// not while a scheduler is running.
    pub fn clear(&self) {
        self.trim(0);
    }
}

/// The cached experiment pipeline.
#[derive(Debug)]
pub struct Lab {
    config: LabConfig,
    noise: NoiseModel,
    shared: Arc<SharedCaches>,
}

impl Lab {
    /// Creates a lab with private caches.
    pub fn new(config: LabConfig) -> Lab {
        Lab::with_shared(config, Arc::new(SharedCaches::default()))
    }

    /// Creates a lab whose fabrication/characterization caches are
    /// shared through `hub` with every other compatible lab.
    pub fn new_in(config: LabConfig, hub: &CacheHub) -> Lab {
        Lab::with_shared(config, hub.shared_for(&config))
    }

    fn with_shared(config: LabConfig, shared: Arc<SharedCaches>) -> Lab {
        let calib_seed = config.seed.split_str("calibration");
        let noise = match config.link_ratio {
            None => NoiseModel::paper(calib_seed),
            Some(ratio) => NoiseModel::with_link_ratio(calib_seed, ratio),
        };
        Lab { config, noise, shared }
    }

    /// A sibling lab with a different `e_link/e_chip` ratio, sharing
    /// the fabrication, characterization and placement caches (the
    /// Fig. 9 sweep); only the link noise it draws differs.
    pub fn with_link_ratio(&self, ratio: f64) -> Lab {
        let config = LabConfig { link_ratio: Some(ratio), ..self.config };
        let noise =
            NoiseModel::with_link_ratio(self.config.seed.split_str("calibration"), ratio);
        Lab { config, noise, shared: Arc::clone(&self.shared) }
    }

    /// The configuration.
    pub fn config(&self) -> &LabConfig {
        &self.config
    }

    /// The noise model in use.
    pub fn noise_model(&self) -> &NoiseModel {
        &self.noise
    }

    /// How many fabrication campaigns this lab's shared caches have
    /// actually executed (shared with siblings and hub-mates).
    pub fn fabrication_stats(&self) -> FabricationStats {
        let mut stats = FabricationStats::default();
        self.shared.tally(&mut stats);
        stats
    }

    /// The KGD-characterized collision-free bin for a chiplet design
    /// (cached; computed at most once across all sharing labs, and
    /// served whole from the persistent store when warm — skipping the
    /// fabrication campaign entirely).
    pub fn chiplet_bin(&self, chiplet: ChipletSpec) -> Arc<KgdBin> {
        let key = chiplet.num_qubits();
        let cell = slot(&self.shared.chiplet_bins, &key);
        Arc::clone(cell.get_or_init(|| {
            let cache_key = self.config.cache_key();
            if let Some(store) = &self.shared.store {
                if let Some(bin) = store.get_kgd_bin(&cache_key, key) {
                    return Arc::new(bin);
                }
            }
            self.shared.chiplet_fabrications.fetch_add(1, Ordering::Relaxed);
            let device = chiplet.build();
            let raw = fabricate_collision_free(
                &device,
                &self.config.fabrication,
                &self.config.collision,
                self.config.batch,
                self.config.seed.split_str("chiplet-fab").split(key as u64),
            );
            let bin = Arc::new(KgdBin::characterize(
                &device,
                raw,
                &self.noise,
                self.config.seed.split_str("chiplet-kgd").split(key as u64),
            ));
            if let Some(store) = &self.shared.store {
                store.put_kgd_bin(&cache_key, key, Arc::clone(&bin));
            }
            bin
        }))
    }

    /// The collision-free monolithic population at `qubits` (cached;
    /// computed at most once across all sharing labs).
    ///
    /// # Panics
    ///
    /// Panics if `qubits` is not a positive multiple of 5.
    pub fn mono_population(&self, qubits: usize) -> Arc<MonoPopulation> {
        let cell = slot(&self.shared.mono_pops, &qubits);
        Arc::clone(cell.get_or_init(|| {
            let entry_key =
                || EntryKey::new(self.config.cache_key(), KIND_MONO_POP, format!("{qubits}q"));
            if let Some(store) = &self.shared.store {
                if let Some(payload) = store.get(&entry_key()) {
                    match chipletqc_math::codec::decode_from_slice::<MonoPopulation>(&payload) {
                        Ok(pop) => return Arc::new(pop),
                        Err(_) => store.count_invalid_payload(),
                    }
                }
            }
            self.shared.mono_fabrications.fetch_add(1, Ordering::Relaxed);
            let device = MonolithicSpec::with_qubits(qubits)
                .unwrap_or_else(|e| panic!("monolithic size {qubits}: {e}"))
                .build();
            let survivors = fabricate_collision_free(
                &device,
                &self.config.fabrication,
                &self.config.collision,
                self.config.batch,
                self.config.seed.split_str("mono-fab").split(qubits as u64),
            );
            let estimate =
                YieldEstimate { survivors: survivors.len(), batch: self.config.batch };
            let noise_seed = self.config.seed.split_str("mono-noise").split(qubits as u64);
            let members = survivors
                .into_iter()
                .enumerate()
                .map(|(i, freqs)| {
                    let mut rng = noise_seed.split(i as u64).rng();
                    let noise = self.noise.assign(&device, &freqs, &mut rng);
                    (freqs, noise)
                })
                .collect();
            let pop = Arc::new(MonoPopulation { device, estimate, members });
            if let Some(store) = &self.shared.store {
                let for_writer = Arc::clone(&pop);
                store.put_with(&entry_key(), Encoding::Binary, move || {
                    chipletqc_math::codec::encode_to_vec(&*for_writer)
                });
            }
            pop
        }))
    }

    /// The best-first placement of `spec` from its chiplet bin (cached;
    /// computed at most once across all sharing labs, whatever their
    /// link ratio).
    pub fn placement(&self, spec: &McmSpec) -> Arc<Placement> {
        let key = PlacementKey::new(&self.config.assembly, spec);
        let cell = slot(&self.shared.placements, &key);
        Arc::clone(cell.get_or_init(|| {
            let bin = self.chiplet_bin(spec.chiplet());
            Arc::new(Assembler::new(self.config.assembly).place(
                spec,
                &bin,
                self.assembly_seed(spec),
            ))
        }))
    }

    /// The first `n` modules of `spec`'s placement, with link noise
    /// drawn from this lab's link model (not cached: equal to the first
    /// `n` modules of [`Lab::assemble`]).
    pub fn modules(&self, spec: &McmSpec, n: usize) -> Vec<AssembledMcm> {
        let bin = self.chiplet_bin(spec.chiplet());
        self.placement(spec).modules(spec, &bin, self.noise.link_model(), n)
    }

    /// The full best-first assembly of `spec` from its chiplet bin: a
    /// fresh placement plus every module's link noise. Not cached; the
    /// figures read [`Lab::placement`] and [`Lab::modules`] instead.
    pub fn assemble(&self, spec: &McmSpec) -> Arc<AssemblyOutcome> {
        let bin = self.chiplet_bin(spec.chiplet());
        Arc::new(Assembler::new(self.config.assembly).assemble(
            spec,
            &bin,
            self.noise.link_model(),
            self.assembly_seed(spec),
        ))
    }

    /// The assembly stream's seed for `spec`.
    fn assembly_seed(&self, spec: &McmSpec) -> Seed {
        let (chiplet, rows, cols) =
            (spec.chiplet().num_qubits(), spec.grid_rows(), spec.grid_cols());
        self.config
            .seed
            .split_str("assemble")
            .split((chiplet * 1_000_000 + rows * 1000 + cols) as u64)
    }

    /// The number of modules selected for comparison under the
    /// configured [`ComparisonMode`].
    ///
    /// When the monolithic counterpart has zero yield there is nothing
    /// to match against — the MCM is the only way to build the system
    /// (the paper's "red X" / unbounded-improvement case) — so the full
    /// assembled population is reported.
    pub fn selected_mcm_count(&self, assembled: usize, mono_survivors: usize) -> usize {
        match self.config.comparison {
            ComparisonMode::MatchMonolithicCount if mono_survivors > 0 => {
                assembled.min(mono_survivors)
            }
            _ => assembled,
        }
    }

    /// Runs the full MCM-vs-monolithic comparison for one
    /// configuration.
    pub fn compare(&self, spec: &McmSpec) -> SystemComparison {
        let mono = self.mono_population(spec.num_qubits());
        let assembled = self.placement(spec).len();
        let selected = self.selected_mcm_count(assembled, mono.estimate.survivors);
        let eavg_mcm = (selected > 0).then(|| {
            mean(&self.modules(spec, selected).iter().map(|m| m.eavg).collect::<Vec<f64>>())
        });
        let eavg_mono = mono.mean_eavg();
        let eavg_ratio = match (eavg_mcm, eavg_mono) {
            (Some(m), Some(o)) if o > 0.0 => Some(m / o),
            _ => None,
        };
        SystemComparison {
            spec: *spec,
            mono_yield: mono.estimate,
            mcm_assembled: assembled,
            mcm_population: selected,
            mono_population: mono.estimate.survivors,
            eavg_mcm,
            eavg_mono,
            eavg_ratio,
        }
    }
}

/// One MCM-vs-monolithic comparison result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemComparison {
    /// The MCM configuration compared.
    pub spec: McmSpec,
    /// Monolithic collision-free yield at the same qubit count.
    pub mono_yield: YieldEstimate,
    /// Modules assembled from the full bin.
    pub mcm_assembled: usize,
    /// Modules selected for the comparison population.
    pub mcm_population: usize,
    /// Monolithic survivor count.
    pub mono_population: usize,
    /// Mean `E_avg` of the selected modules.
    pub eavg_mcm: Option<f64>,
    /// Mean `E_avg` of the monolithic population.
    pub eavg_mono: Option<f64>,
    /// `E_avg,MCM / E_avg,Mono` (the Fig. 9 cell), `None` when either
    /// population is empty.
    pub eavg_ratio: Option<f64>,
}

impl std::fmt::Display for SystemComparison {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: mono yield {}, {} MCMs ({} compared), Eavg ratio {}",
            self.spec,
            self.mono_yield,
            self.mcm_assembled,
            self.mcm_population,
            crate::report::fmt_ratio(self.eavg_ratio)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipletqc_noise::link::PAPER_CHIP_MEAN;
    use chipletqc_topology::device::EdgeKind;

    fn quick_lab() -> Lab {
        Lab::new(LabConfig::quick())
    }

    /// Every store entry is keyed by this string, and it prints the
    /// model structs with `{:?}`: a change to a model
    /// struct's `Debug` output (a field added, renamed or removed)
    /// silently re-keys the whole store. This pin makes a re-key show
    /// in the diff.
    #[test]
    fn store_keys_are_pinned() {
        let models = "fFabricationParams { plan: FrequencyPlan { f0: 5.0, step: 0.06, \
                      anharmonicity: -0.33 }, sigma_f: 0.014 }\
                      |cCollisionParams { t1: 0.017, t2: 0.004, t3: 0.03, t5: 0.017, \
                      t6: 0.025, t7: 0.017, enforce_straddling: true }";
        assert_eq!(LabConfig::paper().cache_key(), format!("b10000|s2022|{models}"));
    }

    #[test]
    fn caches_return_identical_objects() {
        let lab = quick_lab();
        let chiplet = ChipletSpec::with_qubits(10).unwrap();
        let a = lab.chiplet_bin(chiplet);
        let b = lab.chiplet_bin(chiplet);
        assert!(Arc::ptr_eq(&a, &b));
        let p = lab.mono_population(40);
        let q = lab.mono_population(40);
        assert!(Arc::ptr_eq(&p, &q));
        let spec = McmSpec::new(chiplet, 2, 2);
        let x = lab.placement(&spec);
        let y = lab.placement(&spec);
        assert!(Arc::ptr_eq(&x, &y));
        // Full assemblies are not cached, but they are reproducible.
        assert_eq!(lab.assemble(&spec), lab.assemble(&spec));
        assert_eq!(
            lab.fabrication_stats(),
            FabricationStats { chiplet_fabrications: 1, mono_fabrications: 1 }
        );
    }

    #[test]
    fn placements_are_shared_across_link_ratios_not_assembly_policies() {
        let hub = CacheHub::new();
        let spec = McmSpec::new(ChipletSpec::with_qubits(10).unwrap(), 2, 2);
        let gold = Lab::new_in(LabConfig::quick(), &hub);
        let equal =
            Lab::new_in(LabConfig { link_ratio: Some(1.0), ..LabConfig::quick() }, &hub);
        let placement = gold.placement(&spec);
        assert!(Arc::ptr_eq(&placement, &equal.placement(&spec)));
        assert!(Arc::ptr_eq(&placement, &gold.with_link_ratio(2.0).placement(&spec)));

        // One placement, two link models: the modules share chip order
        // and on-chip noise, and only the link noise differs.
        let n = placement.len();
        assert!(n > 0);
        let (a, b) = (gold.modules(&spec, n), equal.modules(&spec, n));
        assert_eq!(a, gold.assemble(&spec).mcms);
        assert_eq!(b, equal.assemble(&spec).mcms);
        let device = spec.build();
        for (ma, mb) in a.iter().zip(&b) {
            assert_eq!(ma.chip_order, mb.chip_order);
            assert_eq!(ma.freqs, mb.freqs);
            for e in device.edges() {
                let (ea, eb) = (ma.noise.infidelity(e.id), mb.noise.infidelity(e.id));
                match e.kind {
                    EdgeKind::OnChip => assert_eq!(ea.to_bits(), eb.to_bits()),
                    EdgeKind::InterChip => assert_ne!(ea.to_bits(), eb.to_bits()),
                }
            }
        }

        // Placement reads the assembly policy, so a different reshuffle
        // budget gets a placement of its own.
        let strict = Lab::new_in(
            LabConfig {
                assembly: AssemblyParams { max_reshuffles: 0, ..AssemblyParams::paper() },
                ..LabConfig::quick()
            },
            &hub,
        );
        let own = strict.placement(&spec);
        assert!(!Arc::ptr_eq(&placement, &own));
        assert_eq!(own.reshuffles(), 0);
        assert!(placement.reshuffles() > 0, "the paper policy reshuffles at this size");
        assert_eq!(hub.fabrication_stats().chiplet_fabrications, 1);
    }

    #[test]
    fn sibling_labs_share_fabrication() {
        let lab = quick_lab();
        let chiplet = ChipletSpec::with_qubits(10).unwrap();
        let bin = lab.chiplet_bin(chiplet);
        let sibling = lab.with_link_ratio(1.0);
        let bin2 = sibling.chiplet_bin(chiplet);
        assert!(Arc::ptr_eq(&bin, &bin2));
        assert_eq!(sibling.config().link_ratio, Some(1.0));
        // But the link models differ.
        assert!((sibling.noise_model().link_model().mean() - PAPER_CHIP_MEAN).abs() < 1e-9);
        assert!((lab.noise_model().link_model().mean() - 0.075).abs() < 1e-9);
    }

    #[test]
    fn hub_extends_sharing_to_independent_labs() {
        let hub = CacheHub::new();
        let a = Lab::new_in(LabConfig::quick(), &hub);
        let b = Lab::new_in(LabConfig::quick(), &hub);
        let chiplet = ChipletSpec::with_qubits(10).unwrap();
        let bin_a = a.chiplet_bin(chiplet);
        let bin_b = b.chiplet_bin(chiplet);
        assert!(Arc::ptr_eq(&bin_a, &bin_b));
        assert_eq!(hub.fabrication_stats().chiplet_fabrications, 1);
        // A lab whose fabrication differs must NOT share.
        let other = Lab::new_in(LabConfig::quick().with_seed(Seed(1)), &hub);
        let bin_other = other.chiplet_bin(chiplet);
        assert!(!Arc::ptr_eq(&bin_a, &bin_other));
        assert_eq!(hub.fabrication_stats().chiplet_fabrications, 2);
        // Link ratio and comparison mode are cache-irrelevant.
        let ratio_lab =
            Lab::new_in(LabConfig { link_ratio: Some(2.0), ..LabConfig::quick() }, &hub);
        assert!(Arc::ptr_eq(&bin_a, &ratio_lab.chiplet_bin(chiplet)));
        assert_eq!(hub.fabrication_stats().chiplet_fabrications, 2);
    }

    #[test]
    fn concurrent_labs_fabricate_once() {
        let hub = CacheHub::new();
        let chiplet = ChipletSpec::with_qubits(10).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let hub = hub.clone();
                scope.spawn(move || {
                    let lab = Lab::new_in(LabConfig::quick(), &hub);
                    let bin = lab.chiplet_bin(chiplet);
                    assert!(!bin.is_empty());
                });
            }
        });
        assert_eq!(
            hub.fabrication_stats(),
            FabricationStats { chiplet_fabrications: 1, mono_fabrications: 0 }
        );
    }

    #[test]
    fn warm_store_reproduces_products_bit_identically_without_fabrication() {
        use chipletqc_store::CacheMode;
        let dir = std::env::temp_dir()
            .join(format!("chipletqc-lab-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let chiplet = ChipletSpec::with_qubits(10).unwrap();

        // Cold: compute and persist.
        let hub = CacheHub::new().with_store(Store::open(&dir, CacheMode::ReadWrite).unwrap());
        let lab = Lab::new_in(LabConfig::quick(), &hub);
        let bin_cold = lab.chiplet_bin(chiplet);
        let pop_cold = lab.mono_population(40);
        assert_eq!(hub.fabrication_stats().total(), 2);
        assert_eq!(hub.store_stats().writes, 2, "{:?}", hub.store_stats());
        hub.flush_store();

        // Warm: an independent hub over the same directory recalls
        // everything and fabricates nothing.
        let hub2 = CacheHub::new().with_store(Store::open(&dir, CacheMode::ReadWrite).unwrap());
        let lab2 = Lab::new_in(LabConfig::quick(), &hub2);
        assert_eq!(*lab2.chiplet_bin(chiplet), *bin_cold);
        assert_eq!(*lab2.mono_population(40), *pop_cold);
        assert_eq!(hub2.fabrication_stats().total(), 0, "warm run must not fabricate");
        assert_eq!(hub2.store_stats().hits, 2);
        assert_eq!(hub2.store_stats().writes, 0);

        // A store-less lab agrees bit-for-bit, so persistence can
        // never change results.
        let plain = Lab::new(LabConfig::quick());
        assert_eq!(*plain.chiplet_bin(chiplet), *bin_cold);
        assert_eq!(*plain.mono_population(40), *pop_cold);

        // A different configuration shares nothing.
        let other = Lab::new_in(LabConfig::quick().with_seed(Seed(1)), &hub2);
        other.chiplet_bin(chiplet);
        assert_eq!(hub2.fabrication_stats().chiplet_fabrications, 1);
        hub2.flush_store();

        // Vandalize every stored entry: a fresh hub rejects each one
        // and recomputes both products bit-identically.
        for shard in std::fs::read_dir(dir.join("objects")).unwrap() {
            for entry in std::fs::read_dir(shard.unwrap().path()).unwrap() {
                std::fs::write(entry.unwrap().path(), b"garbage").unwrap();
            }
        }
        let hub3 = CacheHub::new().with_store(Store::open(&dir, CacheMode::ReadWrite).unwrap());
        let lab3 = Lab::new_in(LabConfig::quick(), &hub3);
        assert_eq!(*lab3.chiplet_bin(chiplet), *bin_cold);
        assert_eq!(*lab3.mono_population(40), *pop_cold);
        assert_eq!(hub3.store_stats().invalid, 2, "{:?}", hub3.store_stats());
        assert_eq!(hub3.fabrication_stats().total(), 2);
        hub3.flush_store();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_drops_products_but_keeps_counters_monotonic() {
        let hub = CacheHub::new();
        let chiplet = ChipletSpec::with_qubits(10).unwrap();
        let bin = Lab::new_in(LabConfig::quick(), &hub).chiplet_bin(chiplet);
        let before = hub.fabrication_stats();
        assert_eq!(before.chiplet_fabrications, 1);

        hub.clear();
        assert_eq!(hub.fabrication_stats(), before, "clear keeps cumulative counters");

        // A fresh lab refabricates (no store attached) — a new object,
        // but bit-identical contents.
        let bin2 = Lab::new_in(LabConfig::quick(), &hub).chiplet_bin(chiplet);
        assert!(!Arc::ptr_eq(&bin, &bin2), "clear must drop the cached product");
        assert_eq!(*bin, *bin2, "recomputation is bit-identical");
        let after = hub.fabrication_stats();
        assert_eq!(after.chiplet_fabrications, 2);
        assert_eq!(
            after.since(before),
            FabricationStats { chiplet_fabrications: 1, mono_fabrications: 0 },
            "per-batch deltas survive a reset"
        );
        assert_eq!(FabricationStats::default().since(after), FabricationStats::default());
    }

    #[test]
    fn clear_with_store_rereads_from_disk_instead_of_fabricating() {
        use chipletqc_store::CacheMode;
        let dir = std::env::temp_dir()
            .join(format!("chipletqc-lab-clear-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let hub = CacheHub::new().with_store(Store::open(&dir, CacheMode::ReadWrite).unwrap());
        let chiplet = ChipletSpec::with_qubits(10).unwrap();
        let bin = Lab::new_in(LabConfig::quick(), &hub).chiplet_bin(chiplet);
        hub.flush_store();
        let snapshot = (hub.fabrication_stats(), hub.store_stats());

        hub.clear();
        let bin2 = Lab::new_in(LabConfig::quick(), &hub).chiplet_bin(chiplet);
        assert_eq!(*bin, *bin2);
        assert_eq!(
            hub.fabrication_stats().since(snapshot.0).total(),
            0,
            "the store still serves the product after a reset"
        );
        assert!(hub.store_stats().since(snapshot.1).hits >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trim_evicts_least_recently_used_idle_configurations() {
        let hub = CacheHub::new();
        let chiplet = ChipletSpec::with_qubits(10).unwrap();
        let config = |seed| LabConfig::quick().with_batch(50).with_seed(Seed(seed));
        let bin = |seed| Lab::new_in(config(seed), &hub).chiplet_bin(chiplet);
        // A live lab keeps its configuration busy, however stale.
        let busy = Lab::new_in(config(1), &hub);
        let busy_bin = busy.chiplet_bin(chiplet);
        let warm = bin(2);
        bin(3);
        bin(2); // a fresh touch: seed 3 is now the least recently used
        let before = hub.fabrication_stats();

        hub.trim(1);
        assert_eq!(hub.fabrication_stats(), before, "eviction keeps cumulative counters");
        assert!(Arc::ptr_eq(&warm, &bin(2)), "the most recently used stays warm");
        assert!(Arc::ptr_eq(&busy_bin, &bin(1)), "a configuration in use is never evicted");
        bin(3);
        assert_eq!(
            hub.fabrication_stats().since(before),
            FabricationStats { chiplet_fabrications: 1, mono_fabrications: 0 },
            "only the least recently used idle configuration was evicted"
        );
    }

    #[test]
    fn mono_population_codec_round_trips() {
        use chipletqc_math::codec::{decode_from_slice, encode_to_vec};
        let pop = quick_lab().mono_population(40);
        let bytes = encode_to_vec(&*pop);
        let decoded: MonoPopulation = decode_from_slice(&bytes).unwrap();
        assert_eq!(decoded, *pop);
        assert!(decode_from_slice::<MonoPopulation>(&bytes[..bytes.len() - 5]).is_err());
        // A tampered survivor count fails validation.
        let mut w = chipletqc_math::codec::ByteWriter::new();
        w.put_usize(40);
        YieldEstimate { survivors: pop.estimate.survivors + 1, batch: pop.estimate.batch }
            .encode(&mut w);
        w.put_seq(&pop.members);
        assert!(decode_from_slice::<MonoPopulation>(&w.into_bytes()).is_err());
    }

    #[test]
    fn mono_population_members_match_yield() {
        let lab = quick_lab();
        let pop = lab.mono_population(40);
        assert_eq!(pop.members.len(), pop.estimate.survivors);
        assert!(pop.estimate.survivors > 0, "40q yield should be healthy");
        assert!(pop.mean_eavg().unwrap() > 0.001);
        for (freqs, noise) in &pop.members {
            assert_eq!(freqs.len(), 40);
            assert_eq!(noise.len(), pop.device.edges().len());
        }
    }

    #[test]
    fn compare_produces_sane_ratio_for_small_system() {
        let lab = quick_lab();
        let spec = McmSpec::new(ChipletSpec::with_qubits(10).unwrap(), 2, 2);
        let cmp = lab.compare(&spec);
        assert!(cmp.mcm_population > 0);
        assert!(cmp.mono_population > 0);
        let ratio = cmp.eavg_ratio.expect("both populations nonempty");
        assert!(ratio > 0.5 && ratio < 3.0, "ratio {ratio}");
        assert!(!cmp.to_string().is_empty());
    }

    #[test]
    fn match_mode_caps_population() {
        let lab = quick_lab();
        assert_eq!(lab.selected_mcm_count(100, 7), 7);
        assert_eq!(lab.selected_mcm_count(5, 7), 5);
        // Zero-yield monolithic counterpart: report all modules.
        assert_eq!(lab.selected_mcm_count(100, 0), 100);
        let all = Lab::new(LabConfig {
            comparison: ComparisonMode::AllAssembled,
            ..LabConfig::quick()
        });
        assert_eq!(all.selected_mcm_count(100, 7), 100);
    }

    #[test]
    fn equal_link_error_gives_mcm_advantage_on_large_systems() {
        // The Fig. 9(d) mechanism at reduced scale: with links as good
        // as on-chip couplers and far more modules than monolithic
        // survivors, the best-module population beats the monolithic
        // average.
        let lab = Lab::new(LabConfig::quick().with_batch(600)).with_link_ratio(1.0);
        let spec = McmSpec::new(ChipletSpec::with_qubits(20).unwrap(), 3, 3);
        let cmp = lab.compare(&spec);
        if let Some(ratio) = cmp.eavg_ratio {
            assert!(ratio < 1.05, "expected MCM advantage, ratio {ratio}");
        } else {
            // 180q monolithic can hit zero yield at this batch; then the
            // comparison is undefined (the paper's "X" case).
            assert_eq!(cmp.mono_population, 0);
        }
    }
}
