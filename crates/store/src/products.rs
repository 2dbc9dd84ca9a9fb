//! Typed product access: the two entry kinds the store holds, each a
//! whole product keyed by the lab's `LabConfig::cache_key()` and a
//! size.

use chipletqc_math::codec::{decode_from_slice, encode_to_vec};

use crate::envelope::Encoding;
use crate::{EntryKey, Store};

/// Entry kind: a whole characterized KGD chiplet bin.
pub const KIND_KGD_BIN: &str = "kgd-bin";
/// Entry kind: a whole noise-assigned monolithic population (payload
/// encoded by `chipletqc`, which owns the type).
pub const KIND_MONO_POP: &str = "mono-pop";

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
}
