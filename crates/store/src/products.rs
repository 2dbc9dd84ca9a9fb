//! Typed product access: whole KGD bins and chunked raw fabrication
//! bins, with merge-on-read.
//!
//! ## Canonical chunking
//!
//! Raw bins are persisted per *canonical chunk*: the trial axis is cut
//! at multiples of [`CHUNK_TRIALS`], and every stored piece is one full
//! aligned chunk. Trial `i` depends only on `(seed, i)` — never on the
//! requesting run's batch size — so a chunk is well-defined even past
//! the end of any particular batch, and [`chunk_cover`] may round a
//! requested [`TrialRange`] *outward* to chunk boundaries. Reads clip
//! chunk contents back to the exact request by survivor index.
//!
//! The payoff is interoperability: any two runs over the same
//! fabrication key share the same chunk entries however they size or
//! slice their batches. The cost is bounded over-computation on a cold
//! read (at most one chunk of extra trials at each end of the range),
//! amortized away the first time any overlapping request recurs.
//!
//! On a read, each covering chunk is served from the store when warm,
//! or simulated on its own and persisted behind the read when cold.
//! The clipped pieces recombine by range-ordered concatenation,
//! bit-identical to a single uncached run. Nothing here dedupes
//! concurrent requests: the lab's compute-once slots request each
//! configuration's bins once.
//!
//! ## Keying
//!
//! Callers pass a `fab_key` pinning the fabrication model, collision
//! thresholds, and root seed — everything determining trial outcomes
//! except the batch size — plus a `stream` naming the derived seed
//! stream and device (e.g. `chiplet-fab-10q`). The chunk range
//! completes the key.

use chipletqc_collision::criteria::CollisionParams;
use chipletqc_collision::frequencies::Frequencies;
use chipletqc_math::codec::{decode_from_slice, encode_to_vec};
use chipletqc_math::rng::Seed;
use chipletqc_topology::device::Device;
use chipletqc_yield::fabrication::FabricationParams;
use chipletqc_yield::monte_carlo::{fabricate_collision_free_indexed_range, TrialRange};

use crate::envelope::Encoding;
use crate::{EntryKey, Store};

/// Trials per canonical raw-bin chunk.
///
/// [`chunk_cover`] cuts at this constant and takes no size of its
/// own, because merge-on-read assumes every producer chunked
/// identically.
pub const CHUNK_TRIALS: usize = 512;

/// Entry kind: a whole characterized KGD chiplet bin.
pub const KIND_KGD_BIN: &str = "kgd-bin";
/// Entry kind: a whole noise-assigned monolithic population (payload
/// encoded by `chipletqc`, which owns the type).
pub const KIND_MONO_POP: &str = "mono-pop";
/// Entry kind: the indexed collision-free survivors of one chunk.
pub const KIND_RAW_BIN: &str = "raw-bin";

/// The canonical full chunks covering `range`: aligned,
/// [`CHUNK_TRIALS`]-sized pieces from `floor(start / CHUNK_TRIALS)` to
/// `ceil(end / CHUNK_TRIALS)`, contiguous and in ascending order. An
/// empty range yields no chunks.
pub fn chunk_cover(range: TrialRange) -> Vec<TrialRange> {
    if range.is_empty() {
        return Vec::new();
    }
    let first = range.start / CHUNK_TRIALS;
    let last = range.end.div_ceil(CHUNK_TRIALS);
    (first..last)
        .map(|k| TrialRange { start: k * CHUNK_TRIALS, end: (k + 1) * CHUNK_TRIALS })
        .collect()
}

fn piece_key(fab_key: &str, stream: &str, piece: TrialRange) -> EntryKey {
    EntryKey::new(fab_key, KIND_RAW_BIN, format!("{stream}/{}-{}", piece.start, piece.end))
}

/// One indexed survivor `(batch-global trial index, frequencies)` —
/// the raw-bin chunk payload element.
type IndexedSurvivor = (usize, Frequencies);

/// Validates that `piece` could be a chunk's survivors: indices
/// strictly ascending, inside the chunk's range.
fn valid_chunk(piece: &[IndexedSurvivor], chunk: TrialRange) -> bool {
    piece.iter().all(|(i, _)| chunk.start <= *i && *i < chunk.end)
        && piece.windows(2).all(|w| w[0].0 < w[1].0)
}

impl Store {
    /// Reads a whole characterized KGD bin (`None` on any miss).
    pub fn get_kgd_bin(
        &self,
        cache_key: &str,
        chiplet_qubits: usize,
    ) -> Option<chipletqc_assembly::kgd::KgdBin> {
        let key = EntryKey::new(cache_key, KIND_KGD_BIN, format!("{chiplet_qubits}q"));
        let payload = self.get(&key)?;
        match decode_from_slice(&payload) {
            Ok(bin) => Some(bin),
            Err(_) => {
                self.count_invalid_payload();
                None
            }
        }
    }

    /// Persists a whole characterized KGD bin (write-behind; encoding
    /// happens on the writer thread).
    pub fn put_kgd_bin(
        &self,
        cache_key: &str,
        chiplet_qubits: usize,
        bin: std::sync::Arc<chipletqc_assembly::kgd::KgdBin>,
    ) {
        let key = EntryKey::new(cache_key, KIND_KGD_BIN, format!("{chiplet_qubits}q"));
        self.put_with(&key, Encoding::Binary, move || encode_to_vec(&*bin));
    }

    /// A payload that decoded structurally but failed product
    /// validation: demotes the already-counted hit to an invalid miss
    /// so the session counters stay truthful. Typed layers built on
    /// [`Store::get`] outside this crate (e.g. `chipletqc`'s
    /// monolithic-population entries) call this when their own decode
    /// rejects a payload.
    pub fn count_invalid_payload(&self) {
        use std::sync::atomic::Ordering;
        self.hits.fetch_sub(1, Ordering::Relaxed);
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.invalid.fetch_add(1, Ordering::Relaxed);
    }

    /// The collision-free survivors of `range`, identical to
    /// `fabricate_collision_free_range` but served from canonical
    /// store chunks: disk when warm, simulated (and persisted behind
    /// the read) when cold.
    #[expect(
        clippy::too_many_arguments,
        reason = "the two store-key parts plus every input of the Monte Carlo call it caches"
    )]
    pub fn fabricate_bin_cached(
        &self,
        fab_key: &str,
        stream: &str,
        device: &Device,
        fab: &FabricationParams,
        params: &CollisionParams,
        range: TrialRange,
        seed: Seed,
    ) -> Vec<Frequencies> {
        let mut survivors = Vec::new();
        for chunk in chunk_cover(range) {
            let key = piece_key(fab_key, stream, chunk);
            let piece = self.stored_chunk(&key, chunk).unwrap_or_else(|| {
                let piece =
                    fabricate_collision_free_indexed_range(device, fab, params, chunk, seed);
                self.put(&key, Encoding::Binary, encode_to_vec(&piece));
                piece
            });
            // Clip to the request; chunks are visited in range order,
            // so this concatenation reassembles the single-pass bin.
            survivors.extend(
                piece
                    .into_iter()
                    .filter(|(i, _)| range.start <= *i && *i < range.end)
                    .map(|(_, freqs)| freqs),
            );
        }
        survivors
    }

    /// The raw-bin chunk under `key`, if the store holds one that
    /// decodes and lies inside `chunk` (`None` on any miss).
    fn stored_chunk(&self, key: &EntryKey, chunk: TrialRange) -> Option<Vec<IndexedSurvivor>> {
        let payload = self.get(key)?;
        match decode_from_slice::<Vec<IndexedSurvivor>>(&payload) {
            Ok(piece) if valid_chunk(&piece, chunk) => Some(piece),
            _ => {
                self.count_invalid_payload();
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CacheMode;
    use chipletqc_topology::family::ChipletSpec;
    use chipletqc_yield::monte_carlo::fabricate_collision_free_range;

    fn temp_store(tag: &str) -> (std::path::PathBuf, Store) {
        let dir = std::env::temp_dir()
            .join(format!("chipletqc-products-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir, CacheMode::ReadWrite).unwrap();
        (dir, store)
    }

    #[test]
    fn chunk_cover_is_aligned_and_covers() {
        for (start, end) in [(0, 100), (0, 512), (0, 1300), (40, 1210), (511, 513), (7, 9)] {
            let range = TrialRange { start, end };
            let chunks = chunk_cover(range);
            assert!(chunks.first().unwrap().start <= start);
            assert!(chunks.last().unwrap().end >= end);
            for (i, c) in chunks.iter().enumerate() {
                assert_eq!(c.start % 512, 0);
                assert_eq!(c.len(), 512);
                if i > 0 {
                    assert_eq!(chunks[i - 1].end, c.start);
                }
            }
        }
        assert!(chunk_cover(TrialRange { start: 5, end: 5 }).is_empty());
        assert_eq!(chunk_cover(TrialRange { start: 0, end: 1 }).len(), 1);
    }

    #[test]
    fn differently_split_requests_share_chunks() {
        let (dir, store) = temp_store("interop");
        let device = ChipletSpec::with_qubits(10).unwrap().build();
        let fab = FabricationParams::state_of_the_art();
        let params = CollisionParams::paper();
        let seed = Seed(41);
        let direct =
            |range| fabricate_collision_free_range(&device, &fab, &params, range, seed);
        let cached = |store: &Store, range| {
            store.fabricate_bin_cached("fabkey", "s", &device, &fab, &params, range, seed)
        };

        // Cold: one run over the full range.
        let full = TrialRange::full(1100);
        assert_eq!(cached(&store, full), direct(full));
        store.flush();
        let cold_stats = store.stats();
        assert_eq!(cold_stats.writes, 3, "three canonical chunks for [0, 1100)");
        assert_eq!(cold_stats.hits, 0);

        // Warm, in a "new process" (a fresh store over the directory):
        // a differently split view of the same batch is served
        // entirely from the same chunks.
        let warm_store = Store::open(&dir, CacheMode::ReadWrite).unwrap();
        let split: Vec<Frequencies> = [(0, 367), (367, 734), (734, 1100)]
            .into_iter()
            .flat_map(|(start, end)| cached(&warm_store, TrialRange { start, end }))
            .collect();
        assert_eq!(split, direct(full));
        let warm = warm_store.stats();
        assert_eq!(warm.writes, 0, "no new chunks on the warm read");
        assert_eq!(warm.misses, 0);
        assert_eq!(warm.hits, 5, "one disk hit per chunk each request covers: {warm:?}");

        // Even a *larger* batch reuses the prefix chunks.
        let bigger = TrialRange::full(1400);
        assert_eq!(cached(&warm_store, bigger), direct(bigger));
        assert_eq!(
            warm_store.stats().since(warm),
            crate::StoreStats { hits: 3, misses: 0, writes: 0, invalid: 0 },
            "[0, 1400) lies inside the three stored chunks"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cached_bin_matches_direct_fabrication() {
        let (dir, store) = temp_store("bin");
        let device = ChipletSpec::with_qubits(10).unwrap().build();
        let fab = FabricationParams::state_of_the_art();
        let params = CollisionParams::paper();
        let seed = Seed(5);
        let range = TrialRange::full(700);
        let direct = chipletqc_yield::monte_carlo::fabricate_collision_free_range(
            &device, &fab, &params, range, seed,
        );
        let cold =
            store.fabricate_bin_cached("fk", "chip", &device, &fab, &params, range, seed);
        assert_eq!(cold, direct);
        store.flush();
        let warm_store = Store::open(&dir, CacheMode::ReadWrite).unwrap();
        let warm =
            warm_store.fabricate_bin_cached("fk", "chip", &device, &fab, &params, range, seed);
        assert_eq!(warm, direct);
        assert_eq!(warm_store.stats().hits, 2, "both chunks hit on the warm read");
        // A shifted sub-range is served from the same chunks.
        let sub = TrialRange { start: 100, end: 600 };
        let sub_direct = chipletqc_yield::monte_carlo::fabricate_collision_free_range(
            &device, &fab, &params, sub, seed,
        );
        let sub_cached =
            warm_store.fabricate_bin_cached("fk", "chip", &device, &fab, &params, sub, seed);
        assert_eq!(sub_cached, sub_direct);
        assert_eq!(warm_store.stats().writes, 0, "no new writes for the sub-range");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_chunks_recompute_without_changing_results() {
        let (dir, store) = temp_store("corrupt-chunk");
        let device = ChipletSpec::with_qubits(10).unwrap().build();
        let fab = FabricationParams::state_of_the_art();
        let params = CollisionParams::paper();
        let range = TrialRange::full(600);
        let cold =
            store.fabricate_bin_cached("fk", "c", &device, &fab, &params, range, Seed(9));
        store.flush();
        // Vandalize every stored entry.
        for shard in std::fs::read_dir(dir.join("objects")).unwrap() {
            for entry in std::fs::read_dir(shard.unwrap().path()).unwrap() {
                let path = entry.unwrap().path();
                std::fs::write(&path, b"garbage").unwrap();
            }
        }
        // A fresh store sees the vandalized files, rejects every one,
        // and recomputes identical results.
        let reopened = Store::open(&dir, CacheMode::ReadWrite).unwrap();
        let recomputed =
            reopened.fabricate_bin_cached("fk", "c", &device, &fab, &params, range, Seed(9));
        assert_eq!(recomputed, cold);
        assert_eq!(reopened.stats().invalid, 2, "{:?}", reopened.stats());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
