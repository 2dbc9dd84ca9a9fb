//! Blob backends: where store entries physically live.
//!
//! A [`Backend`] answers get/put/list for envelope-sealed payloads
//! addressed by [`EntryKey`]. The [`Store`](crate::Store) layer above
//! owns *policy* — cache modes, session counters, write-behind
//! threads, read-through tiering — and
//! delegates the bytes to backends:
//!
//! * [`DirBackend`] — the original on-disk store: one envelope file
//!   per entry under `objects/<2-hex>/<32-hex>.cqs`, published with
//!   atomic temp-then-rename writes.
//! * [`RemoteBackend`](crate::remote::RemoteBackend) — a peer
//!   `chipletqc-engine` daemon reached over TCP with the
//!   `store-get`/`store-put`/`store-list` protocol frames
//!   ([`remote`](crate::remote)).
//!
//! Every backend returns *validated* payloads: a [`Lookup::Hit`] has
//! passed the envelope checks (magic, version, checksum, full logical
//! key), so the tiers above never have to re-distinguish "wrong bytes"
//! from "right bytes" — only product-level validation remains.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::envelope::{self, Encoding};
use crate::{EntryKey, ENTRY_EXT, TMP_PREFIX};

/// The result of one backend read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lookup {
    /// A fully validated entry.
    Hit {
        /// The payload encoding recorded in the envelope.
        encoding: Encoding,
        /// The checksum-verified payload bytes.
        payload: Vec<u8>,
    },
    /// Nothing is stored under the key.
    Miss,
    /// Something was there but unusable: a corrupt or mis-keyed
    /// entry, an I/O failure, an unreachable peer. Costs a
    /// recomputation, never a wrong result.
    Invalid,
}

/// A place store entries live. See the [module docs](self) for the
/// contract; implementations must be shareable across the scheduler's
/// worker threads.
pub trait Backend: Send + Sync + std::fmt::Debug {
    /// Reads and fully validates the entry under `key`.
    fn get(&self, key: &EntryKey) -> Lookup;

    /// Persists `payload` under `key`, replacing any existing entry.
    fn put(&self, key: &EntryKey, encoding: Encoding, payload: &[u8]) -> io::Result<()>;

    /// Every key whose entry *header* parses, in unspecified order
    /// (unparseable files are skipped, not errors). Listing is cheap
    /// and optimistic — it must not cost the whole store in payload
    /// reads — so a listed key is not a validity guarantee:
    /// [`Backend::get`] still fully validates before serving.
    fn list(&self) -> io::Result<Vec<EntryKey>>;

    /// Transport-level counters, for backends that reach a network
    /// peer ([`RemoteBackend`](crate::remote::RemoteBackend)); `None`
    /// for purely local backends.
    fn peer_stats(&self) -> Option<crate::remote::PeerStats> {
        None
    }
}

/// The on-disk directory backend: one envelope file per entry,
/// content-addressed by the key hash, written atomically.
#[derive(Debug)]
pub struct DirBackend {
    root: PathBuf,
    /// Disambiguates concurrent temp files within this process (the
    /// pid disambiguates across processes).
    tmp_counter: AtomicU64,
}

impl DirBackend {
    /// Opens (creating if needed) a directory backend rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<DirBackend> {
        let root = dir.into();
        std::fs::create_dir_all(root.join("objects"))?;
        Ok(DirBackend { root, tmp_counter: AtomicU64::new(0) })
    }

    /// The backend's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    pub(crate) fn entry_path(&self, key: &EntryKey) -> PathBuf {
        let hash = key.hash();
        self.root.join("objects").join(&hash[..2]).join(format!("{hash}.{ENTRY_EXT}"))
    }
}

impl Backend for DirBackend {
    fn get(&self, key: &EntryKey) -> Lookup {
        let bytes = match std::fs::read(self.entry_path(key)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Lookup::Miss,
            Err(_) => return Lookup::Invalid,
        };
        match envelope::open(&bytes) {
            Ok(env) if env.kind == key.kind && env.key == key.logical() => {
                Lookup::Hit { encoding: env.encoding, payload: env.payload }
            }
            // A failed envelope check or a hash collision / stale file
            // under the same path: unusable, never the wrong product.
            _ => Lookup::Invalid,
        }
    }

    fn put(&self, key: &EntryKey, encoding: Encoding, payload: &[u8]) -> io::Result<()> {
        let final_path = self.entry_path(key);
        let tmp_name = format!(
            "{TMP_PREFIX}{}-{}-{}",
            std::process::id(),
            self.tmp_counter.fetch_add(1, Ordering::Relaxed),
            key.hash()
        );
        let tmp_path = final_path.with_file_name(tmp_name);
        let bytes = envelope::seal(&key.kind, &key.logical(), encoding, payload);
        if let Some(parent) = final_path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(&tmp_path, &bytes)?;
        std::fs::rename(&tmp_path, &final_path)
    }

    fn list(&self) -> io::Result<Vec<EntryKey>> {
        // Peek each entry's header from a bounded prefix instead of
        // reading (and checksumming) whole payloads: a list over a
        // multi-gigabyte store must cost key-sized I/O, not the whole
        // store. Keys are tiny; the fallback full read only fires on
        // a key that outgrows the prefix.
        const HEAD_PREFIX: u64 = 4 * 1024;
        use std::io::Read as _;
        let mut keys = Vec::new();
        let objects = self.root.join("objects");
        for shard in std::fs::read_dir(&objects)? {
            let shard = shard?;
            if !shard.file_type()?.is_dir() {
                continue;
            }
            for entry in std::fs::read_dir(shard.path())? {
                let path = entry?.path();
                if crate::is_tmp(&path) {
                    continue;
                }
                let mut head = Vec::new();
                let peeked = std::fs::File::open(&path)
                    .and_then(|file| file.take(HEAD_PREFIX).read_to_end(&mut head))
                    .ok()
                    .and_then(|_| envelope::peek_key(&head))
                    .or_else(|| {
                        // The prefix ended mid-key (or the file is
                        // unreadable as an entry): one full open
                        // settles it.
                        let bytes = std::fs::read(&path).ok()?;
                        let env = envelope::open(&bytes).ok()?;
                        Some((env.kind, env.key))
                    });
                if let Some(key) = peeked.and_then(|(_, key)| EntryKey::parse_logical(&key)) {
                    keys.push(key);
                }
            }
        }
        Ok(keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("chipletqc-backend-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn key(qubits: usize) -> EntryKey {
        EntryKey::new("b400|s2022", crate::products::KIND_KGD_BIN, format!("{qubits}q"))
    }

    #[test]
    fn dir_backend_round_trips_and_lists() {
        let root = temp_root("dir-roundtrip");
        let backend = DirBackend::open(&root).unwrap();
        assert_eq!(backend.get(&key(10)), Lookup::Miss);
        backend.put(&key(10), Encoding::Json, b"{}").unwrap();
        backend.put(&key(20), Encoding::Binary, b"bytes").unwrap();
        assert_eq!(
            backend.get(&key(10)),
            Lookup::Hit { encoding: Encoding::Json, payload: b"{}".to_vec() }
        );
        let mut listed = backend.list().unwrap();
        listed.sort_by(|a, b| a.detail.cmp(&b.detail));
        assert_eq!(listed, vec![key(10), key(20)]);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn dir_backend_corruption_is_invalid_not_a_wrong_product() {
        let root = temp_root("dir-corrupt");
        let backend = DirBackend::open(&root).unwrap();
        backend.put(&key(10), Encoding::Binary, b"payload").unwrap();
        let path = backend.entry_path(&key(10));
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 1]).unwrap();
        assert_eq!(backend.get(&key(10)), Lookup::Invalid);
        // Listing is header-deep and optimistic: the payload-corrupt
        // entry still lists (its header is intact) — `get` is where
        // validity is decided — while header-less garbage is skipped.
        assert_eq!(backend.list().unwrap(), vec![key(10)]);
        std::fs::write(&path, b"not an envelope at all").unwrap();
        assert_eq!(backend.get(&key(10)), Lookup::Invalid);
        assert_eq!(backend.list().unwrap(), Vec::new());
        let _ = std::fs::remove_dir_all(&root);
    }
}
