//! The content-addressed result cache.
//!
//! Every compute response is cached under the FNV-1a fingerprint of its
//! request's canonical key ([`crate::wire::Request::canonical_key`]) —
//! the paper's constructions are pure in `(E, b, w, N, family, seed)`,
//! so repeat traffic is a byte-exact replay. The cache stores the
//! *exact response payload bytes*, which is what makes "byte-identical
//! across a crash" checkable with `cmp`: a hit re-sends the bytes the
//! cold computation produced, with no re-encoding step to drift.
//!
//! Entries are records of the checkpoint crate's record layer:
//! checksum-framed, committed by its model-checked `write_atomic`. A
//! corrupt entry (torn write, bit flip) is moved into the bounded
//! `quarantine/` — evidence preserved — and reported as a miss so the
//! result is recomputed; a poisoned cache must never serve wrong
//! bytes. A cache directory belongs to one daemon.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use wcms_bench::checkpoint::{
    decode_file, encode_file, fnv1a64, move_aside, remove_temp_strays, write_atomic,
    QUARANTINE_RETAIN,
};
use wcms_error::WcmsError;

/// Cache schema version, folded into every canonical key (via
/// [`crate::wire::Request::canonical_key`]). Bump on any change to the
/// response payload encoding — an old entry must never alias a new
/// schema.
pub const CACHE_SCHEMA: u64 = 1;

/// The fingerprint a canonical key files under (also the file stem).
#[must_use]
pub fn fingerprint(canonical_key: &str) -> u64 {
    fnv1a64(canonical_key.as_bytes())
}

/// What a cache lookup found.
#[derive(Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The cached response payload, byte-exact as first computed.
    Hit(String),
    /// No entry (or an entry for a colliding key — recompute).
    Miss,
    /// The entry failed its integrity checks and was moved to
    /// `quarantine/`.
    Quarantined {
        /// What the integrity check found.
        reason: String,
    },
}

/// A directory of checksummed response payloads, one file per
/// canonical key.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
    /// Quarantined entries evicted since the last
    /// [`ResultCache::take_quarantine_evictions`].
    evicted: Arc<AtomicU64>,
}

impl ResultCache {
    /// Open (creating if needed) a cache directory, deleting temp files
    /// a crash mid-store left behind.
    ///
    /// # Errors
    ///
    /// [`WcmsError::Io`] if the directory cannot be created or listed.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, WcmsError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        remove_temp_strays(&dir)?;
        Ok(ResultCache { dir, evicted: Arc::new(AtomicU64::new(0)) })
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{:016x}.json", fingerprint(key)))
    }

    /// Look `key` up. Never errors: anything suspicious becomes
    /// [`CacheOutcome::Quarantined`] (recompute) — corruption is
    /// visible in counters, never served.
    #[must_use]
    pub fn lookup(&self, key: &str) -> CacheOutcome {
        let path = self.entry_path(key);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return CacheOutcome::Miss,
            Err(e) => return self.quarantine(&path, &format!("unreadable cache entry: {e}")),
        };
        let body = match decode_file(&text) {
            Ok(body) => body,
            Err(reason) => return self.quarantine(&path, &reason),
        };
        let Some((stored_key, payload)) = body.split_once('\n') else {
            return self.quarantine(&path, "entry has no key/payload separator");
        };
        if stored_key != key {
            // A 64-bit fingerprint collision (or a hand-edited file):
            // the entry answers a different question. Recompute; the
            // store will overwrite.
            return CacheOutcome::Miss;
        }
        CacheOutcome::Hit(payload.to_string())
    }

    /// Store `payload` under `key` atomically (temp + fsync + rename,
    /// safe against concurrent stores of one key), with the canonical
    /// key recorded inside the entry as a collision guard. `payload`
    /// must be newline-free (wire documents are).
    ///
    /// # Errors
    ///
    /// [`WcmsError::WireMalformed`] for a payload containing a newline
    /// (it would tear the entry framing), [`WcmsError::Io`] on
    /// filesystem failures.
    pub fn store(&self, key: &str, payload: &str) -> Result<(), WcmsError> {
        if key.contains('\n') || payload.contains('\n') {
            return Err(WcmsError::WireMalformed {
                reason: "cache keys and payloads must be newline-free".into(),
            });
        }
        write_atomic(&self.entry_path(key), encode_file(&format!("{key}\n{payload}")))
    }

    fn quarantine(&self, path: &Path, reason: &str) -> CacheOutcome {
        let qdir = self.dir.join("quarantine");
        match move_aside(path, &qdir, QUARANTINE_RETAIN, &self.evicted) {
            Ok(_) => CacheOutcome::Quarantined { reason: reason.to_string() },
            Err(e) => CacheOutcome::Quarantined {
                reason: format!("{reason}; quarantine move also failed: {e}"),
            },
        }
    }

    /// Drain the count of quarantine evictions since the last call —
    /// the cache's share of `serve_quarantine_evicted_total`.
    pub fn take_quarantine_evictions(&self) -> u64 {
        self.evicted.swap(0, Ordering::Relaxed)
    }

    /// The cache directory (for tooling and chaos scripts).
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wcms-cache-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn hits_replay_the_stored_bytes_exactly() {
        let cache = ResultCache::open(scratch("hit")).unwrap();
        let key = "wcms/v1/s1 measure w=32 e=7 b=64 n=3584 family=worst-case runs=2 backend=sim device=test";
        let payload = r#"{"ok":true,"op":"measure","cell":"{\"status\":\"done\"}"}"#;
        assert_eq!(cache.lookup(key), CacheOutcome::Miss);
        cache.store(key, payload).unwrap();
        assert_eq!(cache.lookup(key), CacheOutcome::Hit(payload.to_string()));
    }

    #[test]
    fn corrupt_entries_are_quarantined_not_served() {
        let cache = ResultCache::open(scratch("corrupt")).unwrap();
        let key = "wcms/v1/s1 generate w=32 e=7 b=64 n=3584 family=worst-case data=0";
        cache.store(key, "{\"ok\":true}").unwrap();
        // Flip one byte in the stored entry.
        let path = cache.dir().join(format!("{:016x}.json", fingerprint(key)));
        let mut bytes = fs::read(&path).unwrap();
        bytes[3] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(cache.lookup(key), CacheOutcome::Quarantined { .. }));
        // The evidence moved to quarantine/ and the slot reads as a miss.
        assert!(cache.dir().join("quarantine").join(path.file_name().unwrap()).exists());
        assert_eq!(cache.lookup(key), CacheOutcome::Miss);
        // Recompute-and-store heals the slot.
        cache.store(key, "{\"ok\":true}").unwrap();
        assert_eq!(cache.lookup(key), CacheOutcome::Hit("{\"ok\":true}".to_string()));
    }

    #[test]
    fn colliding_keys_read_as_miss_never_as_wrong_bytes() {
        let cache = ResultCache::open(scratch("collide")).unwrap();
        let key = "wcms/v1/s1 status-like key";
        cache.store(key, "{\"a\":1}").unwrap();
        // Overwrite the entry file with one recorded under a different
        // canonical key (simulating a fingerprint collision).
        let path = cache.dir().join(format!("{:016x}.json", fingerprint(key)));
        fs::write(&path, encode_file("some other key\n{\"b\":2}")).unwrap();
        assert_eq!(cache.lookup(key), CacheOutcome::Miss);
    }

    #[test]
    fn newlines_in_payloads_are_refused() {
        let cache = ResultCache::open(scratch("newline")).unwrap();
        let err = cache.store("key", "line1\nline2").unwrap_err();
        assert!(matches!(err, WcmsError::WireMalformed { .. }), "{err}");
    }

    /// Regression: every store once shared one `<fp>.tmp` temp name, so
    /// concurrent stores of one key renamed each other's temp away and
    /// all but one failed with `NotFound`.
    #[test]
    fn concurrent_stores_of_one_key_all_succeed() {
        let cache = ResultCache::open(scratch("concurrent")).unwrap();
        let keys: Vec<String> =
            (0..200).map(|k| format!("wcms/v1/s1 concurrent key={k}")).collect();
        let (together, failed) = (std::sync::Barrier::new(8), AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for key in &keys {
                        together.wait(); // all eight store this key at once
                        if cache.store(key, "{\"ok\":true}").is_err() {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(failed.into_inner(), 0, "of {} concurrent stores", 8 * keys.len());
        for key in &keys {
            assert_eq!(cache.lookup(key), CacheOutcome::Hit("{\"ok\":true}".to_string()));
        }
        let temps = fs::read_dir(cache.dir()).unwrap().flatten();
        let temps = temps.filter(|e| e.path().extension().is_some_and(|x| x == "tmp")).count();
        assert_eq!(temps, 0, "every temp file is consumed by its own rename");
    }

    #[test]
    fn quarantine_is_bounded_and_counts_evictions() {
        let cache = ResultCache::open(scratch("qbound")).unwrap();
        for k in 0..QUARANTINE_RETAIN + 8 {
            let key = format!("wcms/v1/s1 corrupt key={k}");
            fs::write(cache.entry_path(&key), "torn").unwrap();
            assert!(matches!(cache.lookup(&key), CacheOutcome::Quarantined { .. }));
        }
        let kept = fs::read_dir(cache.dir().join("quarantine")).unwrap().count();
        assert_eq!(kept, QUARANTINE_RETAIN);
        assert_eq!(cache.take_quarantine_evictions(), 8);
        assert_eq!(cache.take_quarantine_evictions(), 0, "drain must reset");
    }

    #[test]
    fn open_deletes_temp_strays_of_a_crashed_store() {
        let dir = scratch("strays");
        ResultCache::open(&dir).unwrap();
        let stray = dir.join("00000000000000ff.json.4242-0.tmp");
        fs::write(&stray, "half a wri").unwrap();
        ResultCache::open(&dir).unwrap();
        assert!(!stray.exists(), "the crash's temp file must be swept");
    }

    #[test]
    fn fingerprints_are_stable_golden_bytes() {
        // Standard FNV-1a 64 test vectors: if the hash family drifts,
        // every existing cache entry silently stops matching its key.
        // Change CACHE_SCHEMA for codec changes — never the hash.
        assert_eq!(fingerprint(""), 0xcbf2_9ce4_8422_2325, "offset basis drifted");
        assert_eq!(fingerprint("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fingerprint("foobar"), 0x8594_4171_f739_67e8);
    }
}
