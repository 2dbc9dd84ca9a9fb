//! Typed product access: whole KGD bins, chunked raw fabrication
//! bins, and chunked Monte Carlo tallies, with merge-on-read.
//!
//! ## Canonical chunking
//!
//! Ranged products are persisted per *canonical chunk*: the trial axis
//! is cut at multiples of [`CHUNK_TRIALS`], and every stored piece is
//! one full aligned chunk. Trial `i` depends only on `(seed, i)` —
//! never on the requesting run's batch size or shard split — so a
//! chunk is well-defined even past the end of any particular batch,
//! and [`chunk_cover`] may round a requested [`TrialRange`] *outward*
//! to chunk boundaries. Reads clip chunk contents back to the exact
//! request by survivor index.
//!
//! The payoff is total interoperability: any two runs over the same
//! fabrication key share the same chunk entries regardless of how
//! they shard, size, or slice their batches. The cost is bounded
//! over-computation on a cold read (at most one chunk of extra trials
//! at each end of the range), amortized away the first time any
//! overlapping request recurs.
//!
//! On a read, each covering chunk resolves through
//! [`Store::get_or_compute_once`]: served from disk when warm,
//! simulated and persisted behind the read when cold, and — within one
//! process — computed at most once even when concurrent shard tasks
//! race for it. The clipped pieces recombine by range-ordered
//! concatenation (bins) or survivor-count summation (tallies, equal to
//! [`YieldEstimate::merge`] over the clipped pieces), bit-identical to
//! a single uncached run.
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
use chipletqc_yield::monte_carlo::{
    collision_free_trial_indices, fabricate_collision_free_indexed_range, TrialRange,
    YieldEstimate,
};

use crate::envelope::Encoding;
use crate::{EntryKey, Store};

/// Trials per canonical chunk of a ranged product.
///
/// This constant is the *only* value allowed to reach a
/// [`chunk_cover`] call site — the `chunk-size-discipline` check rule
/// enforces it. Merge-on-read assumes every producer chunked
/// identically; a site fed any other literal or derived size writes
/// chunks that tear against the rest of the store.
pub const CHUNK_TRIALS: usize = 512;

/// Entry kind: a whole characterized KGD chiplet bin.
pub const KIND_KGD_BIN: &str = "kgd-bin";
/// Entry kind: a whole noise-assigned monolithic population (payload
/// encoded by `chipletqc`, which owns the type).
pub const KIND_MONO_POP: &str = "mono-pop";
/// Entry kind: the indexed collision-free survivors of one chunk.
pub const KIND_RAW_BIN: &str = "raw-bin";
/// Entry kind: the survivor indices of one chunk (JSON payload).
pub const KIND_TALLY: &str = "tally";

/// The canonical full chunks covering `range`: aligned, `chunk`-sized
/// pieces from `floor(start / chunk)` to `ceil(end / chunk)`,
/// contiguous and in ascending order. An empty range yields no
/// chunks.
pub fn chunk_cover(range: TrialRange, chunk: usize) -> Vec<TrialRange> {
    assert!(chunk > 0, "chunk size must be positive");
    if range.is_empty() {
        return Vec::new();
    }
    let first = range.start / chunk;
    let last = range.end.div_ceil(chunk);
    (first..last).map(|k| TrialRange { start: k * chunk, end: (k + 1) * chunk }).collect()
}

fn piece_key(fab_key: &str, kind: &str, stream: &str, piece: TrialRange) -> EntryKey {
    EntryKey::new(fab_key, kind, format!("{stream}/{}-{}", piece.start, piece.end))
}

/// One indexed survivor `(batch-global trial index, frequencies)` —
/// the raw-bin chunk payload element.
type IndexedSurvivor = (usize, Frequencies);

/// Validates that `indices` could be a chunk's survivor set: strictly
/// ascending, inside the chunk's range.
fn valid_chunk_indices(indices: &[usize], chunk: TrialRange) -> bool {
    indices.iter().all(|i| chunk.start <= *i && *i < chunk.end)
        && indices.windows(2).all(|w| w[0] < w[1])
        && indices.len() <= chunk.len()
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
    /// the read) when cold, at most once per chunk per process.
    #[allow(clippy::too_many_arguments)]
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
        for chunk in chunk_cover(range, CHUNK_TRIALS) {
            let payload = self.get_or_compute_once(
                &piece_key(fab_key, KIND_RAW_BIN, stream, chunk),
                Encoding::Binary,
                |payload| {
                    matches!(
                        decode_from_slice::<Vec<IndexedSurvivor>>(payload),
                        Ok(piece) if valid_chunk_indices(
                            &piece.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
                            chunk,
                        )
                    )
                },
                || {
                    encode_to_vec(&fabricate_collision_free_indexed_range(
                        device, fab, params, chunk, seed,
                    ))
                },
            );
            let piece: Vec<IndexedSurvivor> =
                decode_from_slice(&payload).expect("memoized chunk decodes");
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

    /// The yield tally of `range`, identical to a direct
    /// `simulate_yield_range` call but served from canonical store
    /// chunks; the clipped chunk counts sum exactly as
    /// [`YieldEstimate::merge`] over the sub-range pieces would.
    #[allow(clippy::too_many_arguments)]
    pub fn yield_range_cached(
        &self,
        fab_key: &str,
        stream: &str,
        device: &Device,
        fab: &FabricationParams,
        params: &CollisionParams,
        range: TrialRange,
        seed: Seed,
    ) -> YieldEstimate {
        let mut survivors = 0;
        for chunk in chunk_cover(range, CHUNK_TRIALS) {
            let payload = self.get_or_compute_once(
                &piece_key(fab_key, KIND_TALLY, stream, chunk),
                Encoding::Json,
                |payload| {
                    matches!(
                        tally_chunk_from_json(payload),
                        Some((stored, indices))
                            if stored == chunk && valid_chunk_indices(&indices, chunk)
                    )
                },
                || {
                    let indices =
                        collision_free_trial_indices(device, fab, params, chunk, seed);
                    tally_chunk_to_json(chunk, &indices)
                },
            );
            let (_, indices) = tally_chunk_from_json(&payload).expect("memoized chunk parses");
            survivors +=
                indices.into_iter().filter(|i| range.start <= *i && *i < range.end).count();
        }
        YieldEstimate { survivors, batch: range.len() }
    }
}

/// Renders a tally chunk as its JSON payload:
/// `{"start":S,"end":E,"survivors":[i,...]}`.
pub fn tally_chunk_to_json(chunk: TrialRange, indices: &[usize]) -> Vec<u8> {
    let list = indices.iter().map(usize::to_string).collect::<Vec<_>>().join(",");
    format!(r#"{{"start":{},"end":{},"survivors":[{list}]}}"#, chunk.start, chunk.end)
        .into_bytes()
}

/// Parses a tally chunk JSON payload. Strict about shape; `None` on
/// anything unexpected.
pub fn tally_chunk_from_json(bytes: &[u8]) -> Option<(TrialRange, Vec<usize>)> {
    let text = std::str::from_utf8(bytes).ok()?;
    let mut rest = text.trim().strip_prefix('{')?;
    let mut start: Option<usize> = None;
    let mut end: Option<usize> = None;
    let mut survivors: Option<Vec<usize>> = None;
    loop {
        rest = rest.trim_start();
        let (field, tail) = rest.split_once(':')?;
        let tail = tail.trim_start();
        let (field, consumed) = (field.trim(), tail);
        let after_value = match field {
            "\"start\"" if start.is_none() => {
                let (value, after) = parse_uint(consumed)?;
                start = Some(value);
                after
            }
            "\"end\"" if end.is_none() => {
                let (value, after) = parse_uint(consumed)?;
                end = Some(value);
                after
            }
            "\"survivors\"" if survivors.is_none() => {
                let (values, after) = parse_uint_array(consumed)?;
                survivors = Some(values);
                after
            }
            _ => return None,
        };
        let after_value = after_value.trim_start();
        if let Some(next) = after_value.strip_prefix(',') {
            rest = next;
        } else if let Some(done) = after_value.strip_prefix('}') {
            if !done.trim().is_empty() {
                return None;
            }
            break;
        } else {
            return None;
        }
    }
    let (start, end) = (start?, end?);
    if end < start {
        return None;
    }
    Some((TrialRange { start, end }, survivors?))
}

/// Parses a decimal unsigned integer prefix; returns it and the rest.
fn parse_uint(s: &str) -> Option<(usize, &str)> {
    let digits = s.len() - s.trim_start_matches(|c: char| c.is_ascii_digit()).len();
    if digits == 0 {
        return None;
    }
    Some((s[..digits].parse().ok()?, &s[digits..]))
}

/// Parses a `[u, u, ...]` array prefix; returns it and the rest.
fn parse_uint_array(s: &str) -> Option<(Vec<usize>, &str)> {
    let mut rest = s.strip_prefix('[')?.trim_start();
    let mut values = Vec::new();
    if let Some(after) = rest.strip_prefix(']') {
        return Some((values, after));
    }
    loop {
        let (value, after) = parse_uint(rest)?;
        values.push(value);
        let after = after.trim_start();
        if let Some(next) = after.strip_prefix(',') {
            rest = next.trim_start();
        } else if let Some(done) = after.strip_prefix(']') {
            return Some((values, done));
        } else {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CacheMode;
    use chipletqc_topology::family::ChipletSpec;
    use chipletqc_yield::monte_carlo::simulate_yield_range;

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
            let chunks = chunk_cover(range, 512);
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
        assert!(chunk_cover(TrialRange { start: 5, end: 5 }, 512).is_empty());
        assert_eq!(chunk_cover(TrialRange { start: 0, end: 1 }, 512).len(), 1);
    }

    #[test]
    fn differently_split_requests_share_chunks() {
        let (dir, store) = temp_store("interop");
        let device = ChipletSpec::with_qubits(10).unwrap().build();
        let fab = FabricationParams::state_of_the_art();
        let params = CollisionParams::paper();
        let seed = Seed(41);
        let full = TrialRange::full(1100);
        let direct = simulate_yield_range(&device, &fab, &params, full, seed, None);

        // Cold: one run over the full range.
        let cold = store.yield_range_cached("fabkey", "s", &device, &fab, &params, full, seed);
        assert_eq!(cold, direct);
        store.flush();
        let cold_stats = store.stats();
        assert_eq!(cold_stats.writes, 3, "three canonical chunks for [0, 1100)");
        assert_eq!(cold_stats.hits, 0);
        // Re-reading through the same store is served from the
        // in-process memo: no further disk traffic at all.
        let again = store.yield_range_cached("fabkey", "s", &device, &fab, &params, full, seed);
        assert_eq!(again, direct);
        assert_eq!(store.stats(), cold_stats);

        // Warm, in a "new process" (a fresh store over the directory):
        // ANY differently-sharded view of the same batch is served
        // entirely from the same chunks.
        let warm_store = Store::open(&dir, CacheMode::ReadWrite).unwrap();
        let merged = YieldEstimate::merge(TrialRange::split(1100, 3).into_iter().map(|r| {
            warm_store.yield_range_cached("fabkey", "s", &device, &fab, &params, r, seed)
        }));
        assert_eq!(merged, direct);
        let warm = warm_store.stats();
        assert_eq!(warm.writes, 0, "no new chunks on the warm read");
        assert_eq!(warm.misses, 0);
        assert_eq!(warm.hits, 3, "one disk hit per distinct chunk: {warm:?}");

        // Even a *larger* batch reuses the prefix chunks.
        let bigger = warm_store.yield_range_cached(
            "fabkey",
            "s",
            &device,
            &fab,
            &params,
            TrialRange::full(1400),
            seed,
        );
        assert_eq!(
            bigger,
            simulate_yield_range(&device, &fab, &params, TrialRange::full(1400), seed, None)
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
        // A fresh store (the memo is per-process) sees the vandalized
        // files, rejects every one, and recomputes identical results.
        let reopened = Store::open(&dir, CacheMode::ReadWrite).unwrap();
        let recomputed =
            reopened.fabricate_bin_cached("fk", "c", &device, &fab, &params, range, Seed(9));
        assert_eq!(recomputed, cold);
        assert_eq!(reopened.stats().invalid, 2, "{:?}", reopened.stats());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tally_chunk_json_round_trips_and_rejects_garbage() {
        let chunk = TrialRange { start: 512, end: 1024 };
        let indices = vec![513, 600, 1023];
        let json = tally_chunk_to_json(chunk, &indices);
        assert_eq!(tally_chunk_from_json(&json), Some((chunk, indices)));
        let empty = tally_chunk_to_json(TrialRange { start: 0, end: 512 }, &[]);
        assert_eq!(
            tally_chunk_from_json(&empty),
            Some((TrialRange { start: 0, end: 512 }, vec![]))
        );
        // Field order and whitespace are tolerated.
        assert_eq!(
            tally_chunk_from_json(
                br#" { "survivors" : [ 1 , 2 ] , "start" : 0 , "end" : 9 } "#
            ),
            Some((TrialRange { start: 0, end: 9 }, vec![1, 2]))
        );
        for bad in [
            &b"not json"[..],
            br#"{"start":9,"end":0,"survivors":[]}"#,
            br#"{"start":0,"end":9}"#,
            br#"{"start":0,"end":9,"survivors":[1],"extra":2}"#,
            br#"{"start":0,"end":9,"survivors":[1]} trailing"#,
            br#"{"start":0,"end":9,"survivors":[-1]}"#,
            br#"{"start":0,"end":9,"survivors":[1,]}"#,
            b"\xff\xfe",
        ] {
            assert_eq!(tally_chunk_from_json(bad), None, "{:?}", String::from_utf8_lossy(bad));
        }
    }
}
