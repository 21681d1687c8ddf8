//! Crash-only per-cell sweep checkpoints.
//!
//! Every measured cell of a figure sweep is persisted as one small file
//! under `results/.checkpoint/<figure>/<backend>/`, so an interrupted
//! sweep (OOM kill, ^C, node preemption) resumes from the completed
//! cells instead of starting over. The store is *crash-only*: there is
//! no clean-shutdown path to get wrong, and every recovery decision is
//! made from what is actually on disk.
//!
//! Three mechanisms keep a kill at any instant from corrupting a
//! resume:
//!
//! * **atomic writes** — cells are written to a temp file, fsynced and
//!   renamed, so a torn in-progress write never carries a cell's name;
//! * **checksum footers** — every cell file ends in an FNV-1a footer
//!   over its payload; any file that fails the check (bit rot, manual
//!   edits, a filesystem that lied about the rename) is moved into
//!   `quarantine/` and reported, never silently re-measured;
//! * **a manifest** — `manifest.json` records the configuration
//!   fingerprint (figure, backend, grid, seed, schema version) that
//!   produced the cells; a `--resume` against a store written by a
//!   different configuration fails with a typed error instead of
//!   stitching stale cells into the new sweep.
//!
//! This module is also the workspace's one **record layer**: every
//! checksummed file (cells, manifests, leases, serve cache entries and
//! job records, `merge` imports) commits through [`write_atomic`] and
//! is set aside through [`move_aside`]. Payloads are one JSON line,
//! read back with `wcms_obs::json`; `f64`s round-trip exactly.

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use wcms_dmm::stats::Summary;
use wcms_error::WcmsError;
use wcms_obs::json::{self, quote, Value};

use crate::experiment::Measurement;

/// On-disk schema version, recorded in the manifest. Bump whenever the
/// cell codec or the fingerprint shape changes incompatibly.
pub const SCHEMA_VERSION: u64 = 2;

/// How many quarantined files a store retains (newest first). Repeated
/// chaos cycles quarantine without bound otherwise; everything evicted
/// is counted in the `checkpoint_quarantine_evicted_total` metric.
pub const QUARANTINE_RETAIN: usize = 32;

/// The persisted outcome of one sweep cell.
#[derive(Debug, Clone, PartialEq)]
pub enum CellResult {
    /// The cell measured successfully on the sweep's primary backend.
    Done(Measurement),
    /// The cell repeatedly timed out on the primary backend and was
    /// measured on a demoted one (the supervisor's graceful-degradation
    /// ladder) — better a cheaper measurement than a gap.
    Demoted {
        /// The measurement from the demoted backend.
        m: Measurement,
        /// Name of the backend that produced the measurement.
        on: String,
        /// Total attempts across all ladder rungs.
        attempts: usize,
    },
    /// The cell was abandoned (timeout or repeated failure) — the sweep
    /// reports a gap instead of a value.
    Skipped {
        /// Why the cell was abandoned (a rendered [`WcmsError`]).
        reason: String,
        /// Attempts made before giving up.
        attempts: usize,
    },
}

impl CellResult {
    /// The measurement, when one exists (done or demoted).
    #[must_use]
    pub fn measurement(&self) -> Option<&Measurement> {
        match self {
            CellResult::Done(m) | CellResult::Demoted { m, .. } => Some(m),
            CellResult::Skipped { .. } => None,
        }
    }
}

/// What [`CheckpointStore::load`] found for a cell.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadOutcome {
    /// No checkpoint — the cell has not been measured yet.
    Absent,
    /// A well-formed, checksum-verified checkpoint.
    Cached(CellResult),
    /// The cell file existed but failed integrity checks; it was moved
    /// into the quarantine directory and the cell must re-measure.
    Quarantined {
        /// Where the offending file went (`None` when even the move
        /// failed — the reason then covers both).
        to: Option<PathBuf>,
        /// What the integrity check found.
        reason: String,
    },
}

/// The configuration fingerprint a checkpoint directory is bound to.
///
/// Two sweeps may share cells only if *every* field matches; the grid
/// and seed determine the inputs, the backend the engine, the figure
/// the cell namespace, and the schema the codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepFingerprint {
    /// Figure/sweep name (`fig4`, `fig5`, …).
    pub figure: String,
    /// Execution backend name (`sim`, `analytic`, `reference`).
    pub backend: String,
    /// Sort algorithm name (`pairwise`, `multiway`). Manifests written
    /// before the algorithm dimension existed decode as `pairwise` —
    /// the only algorithm they could have measured — so old pairwise
    /// checkpoints stay resumable without a schema bump.
    pub algorithm: String,
    /// Smallest size exponent of the grid.
    pub min_doublings: u32,
    /// Largest size exponent of the grid.
    pub max_doublings: u32,
    /// Runs averaged per seeded cell.
    pub runs: u64,
    /// Base seed of the seeded workloads.
    pub seed: u64,
}

impl SweepFingerprint {
    fn encode(&self) -> String {
        format!(
            concat!(
                "{{\"schema\":{},\"figure\":{},\"backend\":{},\"algorithm\":{},",
                "\"min_doublings\":{},\"max_doublings\":{},\"runs\":{},\"seed\":{}}}"
            ),
            SCHEMA_VERSION,
            quote(&self.figure),
            quote(&self.backend),
            quote(&self.algorithm),
            self.min_doublings,
            self.max_doublings,
            self.runs,
            self.seed,
        )
    }

    fn decode(text: &str) -> Option<(u64, SweepFingerprint)> {
        let v = json::parse(text).ok()?;
        let doubling = |key| u32::try_from(v.get(key)?.as_u64()?).ok();
        Some((
            v.get("schema")?.as_u64()?,
            SweepFingerprint {
                figure: v.get("figure")?.as_str()?.to_string(),
                backend: v.get("backend")?.as_str()?.to_string(),
                // Pre-algorithm manifests could only have been pairwise.
                algorithm: v.get("algorithm").and_then(Value::as_str).unwrap_or("pairwise").into(),
                min_doublings: doubling("min_doublings")?,
                max_doublings: doubling("max_doublings")?,
                runs: v.get("runs")?.as_u64()?,
                seed: v.get("seed")?.as_u64()?,
            },
        ))
    }

    /// The first fingerprint field differing from `other`, as
    /// `(field, expected, found)` — `None` when they match.
    #[must_use]
    pub fn first_mismatch(
        &self,
        other: &SweepFingerprint,
    ) -> Option<(&'static str, String, String)> {
        if self.figure != other.figure {
            return Some(("figure", self.figure.clone(), other.figure.clone()));
        }
        if self.backend != other.backend {
            return Some(("backend", self.backend.clone(), other.backend.clone()));
        }
        if self.algorithm != other.algorithm {
            return Some(("algorithm", self.algorithm.clone(), other.algorithm.clone()));
        }
        if (self.min_doublings, self.max_doublings) != (other.min_doublings, other.max_doublings) {
            return Some((
                "grid",
                format!("2^{}..2^{}", self.min_doublings, self.max_doublings),
                format!("2^{}..2^{}", other.min_doublings, other.max_doublings),
            ));
        }
        if self.runs != other.runs {
            return Some(("runs", self.runs.to_string(), other.runs.to_string()));
        }
        if self.seed != other.seed {
            return Some(("seed", self.seed.to_string(), other.seed.to_string()));
        }
        None
    }
}

/// A directory of per-cell checkpoint files.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    /// Files evicted from `quarantine/` since the last
    /// [`CheckpointStore::take_quarantine_evictions`]; shared across
    /// clones so sweep workers (and the lease quarantine) report into
    /// one counter.
    pub(crate) evicted: Arc<AtomicU64>,
}

impl CheckpointStore {
    /// Open (creating if needed) a checkpoint directory without binding
    /// it to a configuration. Prefer [`CheckpointStore::open_for`] in
    /// sweep runners — a bare store performs no manifest validation.
    ///
    /// # Errors
    ///
    /// Returns [`WcmsError::Io`] if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, WcmsError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self { dir, evicted: Arc::new(AtomicU64::new(0)) })
    }

    /// Open a checkpoint directory bound to `fingerprint`.
    ///
    /// Fresh runs (`resume == false`) clear the store and write a new
    /// manifest. Resumed runs validate the existing manifest against
    /// `fingerprint` field by field and refuse to proceed on any
    /// difference — a resume must never mix cells across
    /// configurations. An empty directory (killed before the manifest
    /// landed, or first run) resumes trivially as a fresh store.
    ///
    /// # Errors
    ///
    /// [`WcmsError::CheckpointMismatch`] when resuming against a store
    /// written by a different configuration (or missing its manifest
    /// while holding cells), [`WcmsError::CheckpointCorrupt`] when the
    /// manifest exists but fails its integrity checks, and
    /// [`WcmsError::Io`] on filesystem failures.
    pub fn open_for(
        dir: impl Into<PathBuf>,
        fingerprint: &SweepFingerprint,
        resume: bool,
    ) -> Result<Self, WcmsError> {
        let store = Self::open(dir)?;
        if !resume {
            store.clear()?;
            store.write_manifest(fingerprint)?;
            return Ok(store);
        }
        let manifest_path = store.dir.join("manifest.json");
        match fs::read_to_string(&manifest_path) {
            Ok(text) => match decode_file(&text).ok().and_then(|p| SweepFingerprint::decode(&p)) {
                Some((schema, found)) if schema == SCHEMA_VERSION => {
                    if let Some((field, expected, found)) = fingerprint.first_mismatch(&found) {
                        return Err(WcmsError::CheckpointMismatch {
                            dir: store.dir.display().to_string(),
                            field,
                            expected,
                            found,
                        });
                    }
                    Ok(store)
                }
                Some((schema, _)) => Err(WcmsError::CheckpointMismatch {
                    dir: store.dir.display().to_string(),
                    field: "schema",
                    expected: SCHEMA_VERSION.to_string(),
                    found: schema.to_string(),
                }),
                None => Err(WcmsError::CheckpointCorrupt {
                    path: manifest_path.display().to_string(),
                    reason: "manifest failed checksum/parse validation".into(),
                }),
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                if store.aux_names("cell-")?.is_empty() {
                    // Nothing to resume: behave like a fresh store.
                    store.write_manifest(fingerprint)?;
                    Ok(store)
                } else {
                    Err(WcmsError::CheckpointMismatch {
                        dir: store.dir.display().to_string(),
                        field: "manifest",
                        expected: "present".into(),
                        found: "missing (pre-manifest or foreign checkpoint directory)".into(),
                    })
                }
            }
            Err(e) => Err(e.into()),
        }
    }

    fn write_manifest(&self, fingerprint: &SweepFingerprint) -> Result<(), WcmsError> {
        write_atomic(&self.dir.join("manifest.json"), encode_file(&fingerprint.encode()))
    }

    /// Remove every checkpoint in the directory — cell files, manifest
    /// and quarantined files alike (a fresh, non-resumed run must not
    /// reuse anything from an older configuration).
    ///
    /// # Errors
    ///
    /// Returns [`WcmsError::Io`] on filesystem failures.
    pub fn clear(&self) -> Result<(), WcmsError> {
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "json" || e == "tmp" || e == "prom") {
                fs::remove_file(path)?;
            }
        }
        for sub in ["quarantine", "leases"] {
            let dir = self.dir.join(sub);
            if dir.is_dir() {
                fs::remove_dir_all(&dir)?;
            }
        }
        Ok(())
    }

    /// The directory backing this store.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn cell_path(&self, cell: &str) -> PathBuf {
        self.dir.join(format!("cell-{}.json", sanitize(cell)))
    }

    /// Load a cell's checkpoint.
    ///
    /// A missing file is [`LoadOutcome::Absent`] (never measured). A
    /// file that fails the checksum or the parse is moved into
    /// `quarantine/` and reported as [`LoadOutcome::Quarantined`] —
    /// corruption is *visible*, never a silent re-measure.
    #[must_use]
    pub fn load(&self, cell: &str) -> LoadOutcome {
        let path = self.cell_path(cell);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return LoadOutcome::Absent,
            Err(e) => {
                return self.quarantine(&path, &format!("unreadable cell file: {e}"));
            }
        };
        match decode_file(&text).and_then(|payload| {
            decode(&payload).ok_or_else(|| "payload failed to parse as a cell result".to_string())
        }) {
            Ok(result) => LoadOutcome::Cached(result),
            Err(reason) => self.quarantine(&path, &reason),
        }
    }

    /// Move a failed cell file into the bounded `quarantine/`.
    fn quarantine(&self, path: &Path, reason: &str) -> LoadOutcome {
        let qdir = self.dir.join("quarantine");
        match move_aside(path, &qdir, QUARANTINE_RETAIN, &self.evicted) {
            Ok(dest) => LoadOutcome::Quarantined { to: Some(dest), reason: reason.to_string() },
            Err(e) => LoadOutcome::Quarantined {
                to: None,
                reason: format!("{reason}; quarantine move also failed: {e}"),
            },
        }
    }

    /// Drain the count of quarantine evictions since the last call —
    /// the feed for the `checkpoint_quarantine_evicted_total` counter.
    pub fn take_quarantine_evictions(&self) -> u64 {
        self.evicted.swap(0, Ordering::Relaxed)
    }

    /// Persist a cell's result atomically (temp file, fsync, rename),
    /// with the checksum footer.
    ///
    /// # Errors
    ///
    /// Returns [`WcmsError::Io`] on filesystem failures.
    pub fn store(&self, cell: &str, result: &CellResult) -> Result<(), WcmsError> {
        write_atomic(&self.cell_path(cell), encode_file(&encode(result)))
    }

    /// Persist an auxiliary (non-cell) artifact — e.g. a per-shard
    /// metrics export — atomically and with the checksum footer.
    /// `name` must carry its own extension; `.tmp` and subdirectory
    /// names are reserved.
    ///
    /// # Errors
    ///
    /// Returns [`WcmsError::Io`] on filesystem failures.
    pub fn write_aux(&self, name: &str, payload: &str) -> Result<(), WcmsError> {
        write_atomic(&self.dir.join(name), encode_file(payload))
    }

    /// Load and verify an auxiliary artifact written by
    /// [`CheckpointStore::write_aux`], returning its payload.
    ///
    /// # Errors
    ///
    /// [`WcmsError::CheckpointCorrupt`] when the footer check fails,
    /// [`WcmsError::Io`] when the file is missing or unreadable.
    pub fn read_aux(&self, name: &str) -> Result<String, WcmsError> {
        let path = self.dir.join(name);
        let text = fs::read_to_string(&path)?;
        decode_file(&text).map_err(|reason| WcmsError::CheckpointCorrupt {
            path: path.display().to_string(),
            reason,
        })
    }

    /// Names of the store's files starting with `prefix`, sorted.
    ///
    /// # Errors
    ///
    /// Returns [`WcmsError::Io`] on filesystem failures.
    pub fn aux_names(&self, prefix: &str) -> Result<Vec<String>, WcmsError> {
        let mut names = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if let Some(name) = path.file_name().and_then(|n| n.to_str()) {
                if name.starts_with(prefix) && !name.ends_with(".tmp") && path.is_file() {
                    names.push(name.to_string());
                }
            }
        }
        names.sort();
        Ok(names)
    }
}

/// The workspace's one atomic file write: it executes
/// [`crate::protocol::ATOMIC_WRITE_STEPS`] (temp, fsync, rename), the
/// plan the `ModelFs` crash explorer proves. The temp name is unique
/// per call (pid plus a process-wide counter), so concurrent writers of
/// one target — stealing workers, serve threads storing one cache key
/// — never share a temp file.
///
/// # Errors
///
/// Returns [`WcmsError::Io`] on filesystem failures.
pub fn write_atomic(path: &Path, content: impl AsRef<[u8]>) -> Result<(), WcmsError> {
    static NEXT_TMP: AtomicU64 = AtomicU64::new(0);
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("file");
    let seq = NEXT_TMP.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_file_name(format!("{name}.{}-{seq}.tmp", std::process::id()));
    let plan = crate::protocol::ATOMIC_WRITE_STEPS;
    Ok(run_plan("atomic-write", plan, &tmp, content.as_ref(), |tmp| fs::rename(tmp, path))??)
}

/// Execute a publish plan step by step, recording each step on the
/// conformance probe. Returns the `publish(tmp)` result as is, so a
/// lease claim can tell its `AlreadyExists` race from a failure.
pub(crate) fn run_plan(
    plan_name: &'static str,
    plan: &[crate::protocol::CommitStep],
    tmp: &Path,
    content: &[u8],
    publish: impl Fn(&Path) -> io::Result<()>,
) -> Result<io::Result<()>, WcmsError> {
    use crate::protocol::{probe, CommitStep};
    let mut file: Option<fs::File> = None;
    let mut published = Ok(());
    for step in plan {
        probe::executed(plan_name, *step);
        match step {
            CommitStep::CreateTemp => file = Some(fs::File::create(tmp)?),
            CommitStep::WritePayload => {
                if let Some(f) = file.as_mut() {
                    f.write_all(content)?;
                }
            }
            CommitStep::SyncTemp => {
                if let Some(f) = file.as_ref() {
                    f.sync_all()?;
                }
            }
            CommitStep::Publish => {
                drop(file.take());
                published = publish(tmp);
            }
            CommitStep::RemoveTemp => {
                let _ = fs::remove_file(tmp);
            }
        }
    }
    Ok(published)
}

/// Delete the `*.tmp` strays a crash mid-[`write_atomic`] left in
/// `dir` — only where one process writes `dir` (serve cache, journal).
///
/// # Errors
///
/// Returns [`WcmsError::Io`] if `dir` cannot be listed.
pub fn remove_temp_strays(dir: &Path) -> Result<(), WcmsError> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().is_some_and(|e| e == "tmp") && path.is_file() {
            let _ = fs::remove_file(path);
        }
    }
    Ok(())
}

/// Move `path` into `dir` keeping its name (a repeat offender
/// overwrites its old copy), then prune `dir` to its newest `retain`
/// entries, adding evictions to `evicted` — the one way every
/// quarantine (and journal tombstoning) sets a record aside.
///
/// # Errors
///
/// The I/O error of the move (the prune still runs).
pub fn move_aside(
    path: &Path,
    dir: &Path,
    retain: usize,
    evicted: &AtomicU64,
) -> io::Result<PathBuf> {
    let dest = dir.join(path.file_name().unwrap_or_default());
    let moved = fs::create_dir_all(dir).and_then(|()| fs::rename(path, &dest));
    evicted.fetch_add(prune_dir(dir, retain), Ordering::Relaxed);
    moved.map(|()| dest)
}

/// Delete `path` by renaming it to the unique scratch name `tomb` first
/// (a lease steal): of several concurrent callers, one rename wins.
pub(crate) fn rename_away(path: &Path, tomb: &Path) {
    if fs::rename(path, tomb).is_ok() {
        let _ = fs::remove_file(tomb);
    }
}

/// Remove the oldest entries of `dir` until at most `keep` remain
/// (ordered by modification time, name as tie-break); returns how many
/// were evicted. Best-effort: races with concurrent pruners are benign.
fn prune_dir(dir: &Path, keep: usize) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else { return 0 };
    let mut files: Vec<(std::time::SystemTime, PathBuf)> = entries
        .flatten()
        .filter_map(|e| {
            let path = e.path();
            if !path.is_file() {
                return None;
            }
            let mtime = e.metadata().and_then(|m| m.modified()).ok()?;
            Some((mtime, path))
        })
        .collect();
    if files.len() <= keep {
        return 0;
    }
    files.sort();
    let mut evicted = 0;
    for (_, path) in &files[..files.len() - keep] {
        if fs::remove_file(path).is_ok() {
            evicted += 1;
        }
    }
    evicted
}

/// Map a cell name to a filesystem-safe stem. Long names are truncated
/// and suffixed with the FNV-1a hash of the *full* name, keeping every
/// distinct cell distinct while staying under filesystem name limits.
#[must_use]
pub fn sanitize(cell: &str) -> String {
    let mapped: String = cell
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '.' || c == '-' { c } else { '_' })
        .collect();
    const MAX_STEM: usize = 120;
    if mapped.len() <= MAX_STEM {
        mapped
    } else {
        // `mapped` is pure ASCII, so byte slicing cannot split a char.
        format!("{}-{:016x}", &mapped[..MAX_STEM], fnv1a64(cell.as_bytes()))
    }
}

// --- Checksum framing -----------------------------------------------------

/// FNV-1a over `bytes` (the same construction the dataset v2 format and
/// the multiset fingerprints use — one hash family across the repo).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Frame `payload` with the integrity footer: the payload line, then
/// one `fnv1a:<16 hex digits>` line over the payload bytes.
#[must_use]
pub fn encode_file(payload: &str) -> String {
    format!("{payload}\nfnv1a:{:016x}\n", fnv1a64(payload.as_bytes()))
}

/// Verify and strip the integrity footer, returning the payload.
///
/// # Errors
///
/// Returns a human-readable reason when the footer is missing,
/// malformed, or does not match the payload (torn write, bit rot,
/// truncation).
pub fn decode_file(text: &str) -> Result<String, String> {
    let body = text.strip_suffix('\n').ok_or("missing trailing newline (truncated file)")?;
    let (payload, footer) =
        body.rsplit_once('\n').ok_or("missing checksum footer (truncated file)")?;
    let hex = footer.strip_prefix("fnv1a:").ok_or("malformed checksum footer")?;
    let want = u64::from_str_radix(hex, 16).map_err(|_| "malformed checksum footer")?;
    let got = fnv1a64(payload.as_bytes());
    if got != want {
        return Err(format!("checksum mismatch: footer {want:016x}, payload hashes to {got:016x}"));
    }
    Ok(payload.to_string())
}

// --- JSON codec -----------------------------------------------------------

fn encode_measurement(m: &Measurement) -> String {
    let s = &m.throughput_spread;
    format!(
        concat!(
            "\"n\":{},\"throughput\":{},\"ms\":{},",
            "\"spread\":{{\"n\":{},\"mean\":{},\"min\":{},\"max\":{},\"stddev\":{}}},",
            "\"beta1\":{},\"beta2\":{},\"conflicts_per_element\":{},",
            "\"ms_per_element\":{}"
        ),
        m.n,
        m.throughput,
        m.ms,
        s.n,
        s.mean,
        s.min,
        s.max,
        s.stddev,
        m.beta1,
        m.beta2,
        m.conflicts_per_element,
        m.ms_per_element,
    )
}

/// Render a [`CellResult`] as one line of JSON (payload only — the
/// on-disk framing adds the checksum footer via [`encode_file`]).
#[must_use]
pub fn encode(result: &CellResult) -> String {
    match result {
        CellResult::Done(m) => format!("{{\"status\":\"done\",{}}}", encode_measurement(m)),
        CellResult::Demoted { m, on, attempts } => format!(
            "{{\"status\":\"demoted\",\"on\":{},\"attempts\":{attempts},{}}}",
            quote(on),
            encode_measurement(m)
        ),
        CellResult::Skipped { reason, attempts } => {
            format!(
                "{{\"status\":\"skipped\",\"reason\":{},\"attempts\":{attempts}}}",
                quote(reason)
            )
        }
    }
}

fn decode_measurement(v: &Value) -> Option<Measurement> {
    let num = |v: &Value, key| v.get(key)?.as_f64();
    let count = |v: &Value, key| usize::try_from(v.get(key)?.as_u64()?).ok();
    let spread = v.get("spread")?;
    Some(Measurement {
        n: count(v, "n")?,
        throughput: num(v, "throughput")?,
        ms: num(v, "ms")?,
        throughput_spread: Summary {
            n: count(spread, "n")?,
            mean: num(spread, "mean")?,
            min: num(spread, "min")?,
            max: num(spread, "max")?,
            stddev: num(spread, "stddev")?,
        },
        beta1: num(v, "beta1")?,
        beta2: num(v, "beta2")?,
        conflicts_per_element: num(v, "conflicts_per_element")?,
        ms_per_element: num(v, "ms_per_element")?,
    })
}

/// Parse the output of [`encode`]. Returns `None` for anything torn or
/// malformed (the store then quarantines the file).
#[must_use]
pub fn decode(text: &str) -> Option<CellResult> {
    let v = json::parse(text).ok()?;
    let attempts = || usize::try_from(v.get("attempts")?.as_u64()?).ok();
    match v.get("status")?.as_str()? {
        "done" => Some(CellResult::Done(decode_measurement(&v)?)),
        "demoted" => Some(CellResult::Demoted {
            m: decode_measurement(&v)?,
            on: v.get("on")?.as_str()?.to_string(),
            attempts: attempts()?,
        }),
        "skipped" => Some(CellResult::Skipped {
            reason: v.get("reason")?.as_str()?.to_string(),
            attempts: attempts()?,
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meas() -> Measurement {
        Measurement {
            n: 3072,
            throughput: 1.25e8,
            ms: 0.024576,
            throughput_spread: Summary { n: 2, mean: 1.25e8, min: 1.2e8, max: 1.3e8, stddev: 7e6 },
            beta1: 3.0999999999999996,
            beta2: 15.0,
            conflicts_per_element: 0.875,
            ms_per_element: 8e-6,
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("wcms-ckpt-{tag}-{}", std::process::id()))
    }

    fn fp() -> SweepFingerprint {
        SweepFingerprint {
            figure: "figX".into(),
            backend: "sim".into(),
            algorithm: "pairwise".into(),
            min_doublings: 1,
            max_doublings: 5,
            runs: 2,
            seed: 0xC0FFEE,
        }
    }

    #[test]
    fn done_roundtrips_bit_exact() {
        let r = CellResult::Done(meas());
        assert_eq!(decode(&encode(&r)), Some(r));
    }

    #[test]
    fn demoted_roundtrips_with_backend_name() {
        let r = CellResult::Demoted { m: meas(), on: "analytic".into(), attempts: 7 };
        assert_eq!(decode(&encode(&r)), Some(r));
    }

    #[test]
    fn skipped_roundtrips_with_escapes() {
        let r = CellResult::Skipped {
            reason: "cell \"fig4/wc\" timed out\nafter 3 s".into(),
            attempts: 3,
        };
        assert_eq!(decode(&encode(&r)), Some(r));
    }

    #[test]
    fn checksum_framing_roundtrips_and_rejects_corruption() {
        let payload = encode(&CellResult::Done(meas()));
        let framed = encode_file(&payload);
        assert_eq!(decode_file(&framed).unwrap(), payload);
        // Any single-byte corruption of the payload must be caught.
        let mut bytes = framed.clone().into_bytes();
        bytes[8] ^= 0x20;
        let tampered = String::from_utf8(bytes).unwrap();
        assert!(decode_file(&tampered).is_err());
        // Truncation at every prefix length must be caught.
        for cut in 0..framed.len() {
            assert!(decode_file(&framed[..cut]).is_err(), "cut at {cut} must not verify");
        }
    }

    #[test]
    fn store_load_clear() {
        let dir = tmpdir("basic");
        let store = CheckpointStore::open(&dir).unwrap();
        store.clear().unwrap();
        let cell = "fig4/Thrust E=15 b=512 worst-case/3072";
        assert_eq!(store.load(cell), LoadOutcome::Absent);
        let r = CellResult::Done(meas());
        store.store(cell, &r).unwrap();
        assert_eq!(store.load(cell), LoadOutcome::Cached(r));
        // A second store overwrites atomically.
        let skip = CellResult::Skipped { reason: "x".into(), attempts: 1 };
        store.store(cell, &skip).unwrap();
        assert_eq!(store.load(cell), LoadOutcome::Cached(skip));
        store.clear().unwrap();
        assert_eq!(store.load(cell), LoadOutcome::Absent);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_cell_is_quarantined_not_silently_remeasured() {
        let dir = tmpdir("quar");
        let store = CheckpointStore::open(&dir).unwrap();
        store.clear().unwrap();
        store.store("cell", &CellResult::Done(meas())).unwrap();
        // Truncate the file (simulates a torn write on a filesystem
        // without atomic rename, or plain bit rot).
        let path = store.cell_path("cell");
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() / 2]).unwrap();

        match store.load("cell") {
            LoadOutcome::Quarantined { to: Some(to), reason } => {
                assert!(to.exists(), "quarantined copy must exist at {}", to.display());
                assert!(!path.exists(), "offending file must be moved out");
                assert!(!reason.is_empty());
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        // The cell now reads as absent: it will re-measure.
        assert_eq!(store.load("cell"), LoadOutcome::Absent);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quarantine_is_bounded_and_counts_evictions() {
        let dir = tmpdir("qbound");
        std::fs::remove_dir_all(&dir).ok();
        let store = CheckpointStore::open(&dir).unwrap();
        store.clear().unwrap();
        for i in 0..QUARANTINE_RETAIN + 9 {
            let cell = format!("cell-{i}");
            store.store(&cell, &CellResult::Done(meas())).unwrap();
            let path = store.cell_path(&cell);
            let text = fs::read_to_string(&path).unwrap();
            fs::write(&path, &text[..text.len() / 2]).unwrap();
            assert!(matches!(store.load(&cell), LoadOutcome::Quarantined { .. }));
        }
        let n = fs::read_dir(dir.join("quarantine")).unwrap().count();
        assert!(n <= QUARANTINE_RETAIN, "quarantine grew to {n} entries");
        assert_eq!(store.take_quarantine_evictions(), 9);
        assert_eq!(store.take_quarantine_evictions(), 0, "drain must reset");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn aux_artifacts_roundtrip_and_verify() {
        let dir = tmpdir("aux");
        std::fs::remove_dir_all(&dir).ok();
        let store = CheckpointStore::open(&dir).unwrap();
        store.write_aux("shard-metrics-w1.prom", "sweep_cells_total 4\n").unwrap();
        store.write_aux("shard-metrics-w0.prom", "sweep_cells_total 2\n").unwrap();
        assert_eq!(
            store.aux_names("shard-metrics-").unwrap(),
            vec!["shard-metrics-w0.prom", "shard-metrics-w1.prom"]
        );
        assert_eq!(store.read_aux("shard-metrics-w0.prom").unwrap(), "sweep_cells_total 2\n");
        // Corruption is a typed error, not silent garbage.
        let path = dir.join("shard-metrics-w0.prom");
        let mut bytes = fs::read(&path).unwrap();
        bytes[3] ^= 0x10;
        fs::write(&path, bytes).unwrap();
        let err = store.read_aux("shard-metrics-w0.prom").unwrap_err();
        assert!(matches!(err, WcmsError::CheckpointCorrupt { .. }), "{err}");
        // clear() removes aux artifacts too.
        store.clear().unwrap();
        assert!(store.aux_names("shard-metrics-").unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_roundtrips() {
        let f = fp();
        let (schema, back) = SweepFingerprint::decode(&f.encode()).unwrap();
        assert_eq!(schema, SCHEMA_VERSION);
        assert_eq!(back, f);
    }

    /// Manifests written before the algorithm dimension existed (no
    /// `algorithm` key) must decode as pairwise — old pairwise
    /// checkpoint directories stay resumable without a schema bump.
    #[test]
    fn pre_algorithm_manifest_decodes_as_pairwise() {
        let legacy = format!(
            concat!(
                "{{\"schema\":{},\"figure\":\"figX\",\"backend\":\"sim\",",
                "\"min_doublings\":1,\"max_doublings\":5,\"runs\":2,\"seed\":{}}}"
            ),
            SCHEMA_VERSION, 0xC0FFEE_u64,
        );
        let (schema, back) = SweepFingerprint::decode(&legacy).unwrap();
        assert_eq!(schema, SCHEMA_VERSION);
        assert_eq!(back, fp(), "missing algorithm field must default to pairwise");
        assert!(fp().first_mismatch(&back).is_none());
    }

    #[test]
    fn open_for_fresh_clears_and_resume_keeps() {
        let dir = tmpdir("manifest");
        let store = CheckpointStore::open_for(&dir, &fp(), false).unwrap();
        store.store("cell", &CellResult::Done(meas())).unwrap();
        // Resume with the same fingerprint keeps the cell.
        let store = CheckpointStore::open_for(&dir, &fp(), true).unwrap();
        assert!(matches!(store.load("cell"), LoadOutcome::Cached(_)));
        // A fresh open clears it.
        let store = CheckpointStore::open_for(&dir, &fp(), false).unwrap();
        assert_eq!(store.load("cell"), LoadOutcome::Absent);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_refuses_foreign_fingerprints() {
        let dir = tmpdir("mismatch");
        let store = CheckpointStore::open_for(&dir, &fp(), false).unwrap();
        store.store("cell", &CellResult::Done(meas())).unwrap();
        for (mutate, field) in [
            (
                Box::new(|f: &mut SweepFingerprint| f.backend = "analytic".into())
                    as Box<dyn Fn(&mut SweepFingerprint)>,
                "backend",
            ),
            (Box::new(|f: &mut SweepFingerprint| f.algorithm = "multiway".into()), "algorithm"),
            (Box::new(|f: &mut SweepFingerprint| f.max_doublings = 9), "grid"),
            (Box::new(|f: &mut SweepFingerprint| f.seed = 1), "seed"),
            (Box::new(|f: &mut SweepFingerprint| f.figure = "fig5".into()), "figure"),
            (Box::new(|f: &mut SweepFingerprint| f.runs = 10), "runs"),
        ] {
            let mut other = fp();
            mutate(&mut other);
            let err = CheckpointStore::open_for(&dir, &other, true).unwrap_err();
            match err {
                WcmsError::CheckpointMismatch { field: f, .. } => assert_eq!(f, field),
                other => panic!("expected mismatch on {field}, got {other}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_without_manifest_refuses_when_cells_exist() {
        let dir = tmpdir("nomanifest");
        let store = CheckpointStore::open_for(&dir, &fp(), false).unwrap();
        store.store("cell", &CellResult::Done(meas())).unwrap();
        fs::remove_file(dir.join("manifest.json")).unwrap();
        let err = CheckpointStore::open_for(&dir, &fp(), true).unwrap_err();
        assert!(matches!(err, WcmsError::CheckpointMismatch { field: "manifest", .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_of_empty_directory_is_a_fresh_start() {
        let dir = tmpdir("empty");
        std::fs::remove_dir_all(&dir).ok();
        let store = CheckpointStore::open_for(&dir, &fp(), true).unwrap();
        assert_eq!(store.load("cell"), LoadOutcome::Absent);
        // The manifest was written, so a second resume still validates.
        assert!(CheckpointStore::open_for(&dir, &fp(), true).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cell_names_sanitize_to_distinct_files() {
        assert_ne!(sanitize("a/b=1 c"), sanitize("a/b=2 c"));
        assert!(sanitize("fig4/Thrust E=15 b=512/3072")
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '.' || c == '-' || c == '_'));
    }
}
