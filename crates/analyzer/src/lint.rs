//! Pass 3 — the token-level workspace lint engine.
//!
//! No `rustc` plugin, no syntax tree, no network: the scanner masks
//! comments, strings and character literals out of each source file
//! (preserving byte offsets and newlines), tracks `#[cfg(test)] mod`
//! regions by brace depth, and then matches *whole identifiers* — so
//! `.unwrap_or(..)` is never confused with `.unwrap()` the way a naive
//! regex would. Nine rules:
//!
//! * `panic-path` — `.unwrap()` / `.expect()` (and the `_err` duals) and
//!   the `panic!` / `unreachable!` / `todo!` / `unimplemented!` macros
//!   on non-test code paths. Production code returns
//!   [`wcms_error::WcmsError`]; reaching a panic on caller input is a
//!   bug (PR 1's contract).
//! * `thread-spawn` — raw `thread::spawn` outside the sweep supervisor.
//!   Unsupervised threads escape the cancel/deadline/commit protocol
//!   the interleaving checker proves correct; scoped `s.spawn` and the
//!   supervisor's own budget worker are the sanctioned forms.
//! * `wall-clock` — `SystemTime::now` in deterministic code. Sweeps are
//!   resumable and replayable; wall-clock reads belong in the reporting
//!   layer only (`Instant` for durations is fine and not flagged).
//! * `eprintln-outside-obs` — raw `eprintln!` in library code. Warnings
//!   routed through `wcms_obs::Obs::warn` survive into trace journals;
//!   a bare `eprintln!` scrolls away. The obs crate itself (it
//!   implements `warn`) and `bin/` entry points (their stderr *is* the
//!   user interface) are exempt by path.
//! * `socket-without-deadline` — a file that names `TcpStream` or
//!   `TcpListener` outside tests but never arms a timeout
//!   (`set_read_timeout` / `set_write_timeout`, or the serve crate's
//!   `apply_deadlines` helper which wraps both). A socket without
//!   deadlines lets one stalled peer pin a blocking worker forever —
//!   the failure mode `wcms-serve` is built to exclude. File-scoped:
//!   the first socket token is flagged once per file.
//! * `wall-clock-in-protocol` — `Instant::now` *or* `SystemTime::now`
//!   inside the scale-out protocol files ([`PROTOCOL_PATHS`]). Lease
//!   expiry is a cross-process contract whose decisions the model
//!   checker explores under virtual time; a raw clock read at a
//!   protocol decision site is a state the checker cannot reach. Time
//!   enters the protocol through an injected `wcms_obs::Clock` only.
//! * `rename-without-fsync` — a file that calls `fs::rename` outside
//!   tests but never forces data (`sync_all` / `sync_data`).
//!   Publishing a name whose bytes were never fsynced is exactly the
//!   torn-commit window the `ModelFs` crash explorer demonstrates;
//!   like the socket rule this is file-scoped (the satisfier may live
//!   in a helper) and the first rename is flagged once per file.
//! * `fsync-outside-record-layer` — `sync_all` / `sync_data` outside
//!   tests and [`RECORD_LAYER_PATHS`]. Durable commits go through the
//!   checkpoint record layer, whose plans the `ModelFs` crash explorer
//!   proves; a hand-rolled temp → fsync → rename elsewhere is unproved
//!   and drifts (the serve cache's shared temp name once failed 7 of 8
//!   concurrent stores of one key).
//! * `span-without-context` — a fleet-observed file (the serve crate's
//!   library plus the scale-out [`PROTOCOL_PATHS`]) that opens spans
//!   (`span!` or `.span(`) outside tests but never touches the trace
//!   context machinery (`TraceContext` / `stamp` / `with_context`).
//!   Spans in those paths cross process boundaries; one emitted
//!   without a propagated context becomes an orphan in every joined
//!   fleet trace. File-scoped like the socket rule. `bin/` entry
//!   points are exempt by path — their spans are UI-local by design.
//!
//! Findings can be allowed by an explicit allowlist file: one entry per
//! line, `rule path reason…`, the reason mandatory. Malformed entries
//! fail the gate, and so do **stale** entries (matching nothing): an
//! allowlist row that outlives its finding is a lie about the codebase
//! and rots into cover for a future regression — deleting it is the
//! fix.
//! Diagnostics render as text or machine-readable JSON (strings quoted
//! by `wcms_obs::json` — the workspace has no JSON dependency).

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use wcms_error::WcmsError;
use wcms_obs::json::quote;

/// The method names whose calls are panic paths.
const PANIC_METHODS: [&str; 4] = ["unwrap", "expect", "unwrap_err", "expect_err"];
/// The macro names that are panic paths.
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// The scale-out protocol files: every clock read in these must go
/// through an injected `wcms_obs::Clock` (see `wall-clock-in-protocol`
/// in the module docs).
pub const PROTOCOL_PATHS: [&str; 5] = [
    "crates/bench/src/protocol.rs",
    "crates/bench/src/shard.rs",
    "crates/bench/src/checkpoint.rs",
    "crates/bench/src/resilient.rs",
    "crates/bench/src/supervisor.rs",
];

/// The files allowed to force data to disk (see
/// `fsync-outside-record-layer` in the module docs): the record layer,
/// whose one plan executor runs both the atomic-write and the
/// lease-claim plans, and streamed dataset files.
pub const RECORD_LAYER_PATHS: [&str; 2] =
    ["crates/bench/src/checkpoint.rs", "crates/workloads/src/dataset.rs"];

/// One lint hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`panic-path`, `thread-spawn`, `wall-clock`).
    pub rule: &'static str,
    /// Repo-relative path with `/` separators.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column (bytes).
    pub col: usize,
    /// The offending token.
    pub snippet: String,
    /// True when an allowlist entry covers it.
    pub allowed: bool,
    /// The allowlist entry's reason, when allowed.
    pub reason: Option<String>,
}

/// One parsed allowlist entry.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Rule id the entry covers.
    pub rule: String,
    /// Repo-relative path it covers.
    pub path: String,
    /// Why the finding is acceptable (mandatory).
    pub reason: String,
}

/// The lint pass's full result.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Every hit, allowed or not.
    pub findings: Vec<Finding>,
    /// Allowlist entries that matched nothing (warnings).
    pub stale_allowlist: Vec<String>,
    /// Allowlist lines that could not be parsed (gate failures).
    pub malformed_allowlist: Vec<String>,
    /// Files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// Findings not covered by the allowlist.
    pub fn denied(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.allowed)
    }

    /// True iff the gate passes: no denied finding, no malformed
    /// allowlist entry, and no stale allowlist entry — an allow row
    /// matching nothing documents a finding that no longer exists and
    /// must be deleted, not carried.
    #[must_use]
    pub fn gate_ok(&self) -> bool {
        self.denied().next().is_none()
            && self.malformed_allowlist.is_empty()
            && self.stale_allowlist.is_empty()
    }

    /// Machine-readable JSON rendering.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        let _ = write!(s, "\"files_scanned\":{},", self.files_scanned);
        s.push_str("\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"rule\":{},\"path\":{},\"line\":{},\"col\":{},\"snippet\":{},\"allowed\":{}",
                quote(f.rule),
                quote(&f.path),
                f.line,
                f.col,
                quote(&f.snippet),
                f.allowed
            );
            if let Some(r) = &f.reason {
                let _ = write!(s, ",\"reason\":{}", quote(r));
            }
            s.push('}');
        }
        s.push_str("],\"stale_allowlist\":[");
        for (i, e) in self.stale_allowlist.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&quote(e));
        }
        s.push_str("],\"malformed_allowlist\":[");
        for (i, e) in self.malformed_allowlist.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&quote(e));
        }
        s.push_str("]}");
        s
    }
}

/// Replace the contents of comments, string/char literals (including
/// raw and byte forms) with spaces, byte for byte, preserving newlines —
/// offsets into the masked text are offsets into the original.
fn mask_source(src: &str) -> Vec<u8> {
    let b = src.as_bytes();
    let mut out = b.to_vec();
    let n = b.len();
    let mut i = 0;
    // Mask bytes [from, to), keeping newlines for line accounting.
    let blank = |out: &mut Vec<u8>, from: usize, to: usize| {
        for x in &mut out[from..to.min(n)] {
            if *x != b'\n' {
                *x = b' ';
            }
        }
    };
    while i < n {
        match b[i] {
            b'/' if i + 1 < n && b[i + 1] == b'/' => {
                let end = src[i..].find('\n').map_or(n, |p| i + p);
                blank(&mut out, i, end);
                i = end;
            }
            b'/' if i + 1 < n && b[i + 1] == b'*' => {
                let mut depth = 1usize;
                let mut j = i + 2;
                while j < n && depth > 0 {
                    if b[j] == b'/' && j + 1 < n && b[j + 1] == b'*' {
                        depth += 1;
                        j += 2;
                    } else if b[j] == b'*' && j + 1 < n && b[j + 1] == b'/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                blank(&mut out, i, j);
                i = j;
            }
            b'"' => {
                let mut j = i + 1;
                while j < n {
                    if b[j] == b'\\' {
                        j += 2;
                    } else if b[j] == b'"' {
                        j += 1;
                        break;
                    } else {
                        j += 1;
                    }
                }
                blank(&mut out, i, j);
                i = j;
            }
            b'r' | b'b' => {
                if let Some((start, hashes)) = raw_string_start(b, i) {
                    // Find the closing `"` followed by `hashes` hashes.
                    let mut j = start;
                    while j < n {
                        if b[j] == b'"'
                            && b[j + 1..].iter().take(hashes).filter(|&&c| c == b'#').count()
                                == hashes
                        {
                            j += 1 + hashes;
                            break;
                        }
                        j += 1;
                    }
                    blank(&mut out, i, j);
                    i = j;
                } else if b[i] == b'b' && i + 1 < n && b[i + 1] == b'\'' {
                    i = mask_char_literal(b, &mut out, i + 1, &blank);
                } else {
                    i = skip_identifier(b, i);
                }
            }
            b'\'' => {
                // Char literal vs lifetime: a literal is `'\…'` or `'x'`.
                let is_char = (i + 1 < n && b[i + 1] == b'\\')
                    || (i + 2 < n && b[i + 2] == b'\'' && b[i + 1] != b'\'');
                if is_char {
                    i = mask_char_literal(b, &mut out, i, &blank);
                } else {
                    i += 1; // lifetime tick: leave the identifier in code
                }
            }
            c if c == b'_' || c.is_ascii_alphabetic() => {
                i = skip_identifier(b, i);
            }
            _ => i += 1,
        }
    }
    out
}

/// If `b[i..]` begins a raw (byte) string `r#*"` / `br#*"`, return the
/// offset just past the opening quote and the hash count.
fn raw_string_start(b: &[u8], i: usize) -> Option<(usize, usize)> {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    if j >= b.len() || b[j] != b'r' {
        return None;
    }
    j += 1;
    let mut hashes = 0usize;
    while j < b.len() && b[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    (j < b.len() && b[j] == b'"').then_some((j + 1, hashes))
}

/// Mask one char literal starting at the opening `'` at `i`; returns the
/// offset past the closing quote.
fn mask_char_literal(
    b: &[u8],
    out: &mut Vec<u8>,
    i: usize,
    blank: &dyn Fn(&mut Vec<u8>, usize, usize),
) -> usize {
    let n = b.len();
    let mut j = i + 1;
    while j < n && b[j] != b'\'' {
        j += if b[j] == b'\\' { 2 } else { 1 };
    }
    let end = (j + 1).min(n);
    blank(out, i, end);
    end
}

/// Skip past the identifier starting at `i`.
fn skip_identifier(b: &[u8], i: usize) -> usize {
    let mut j = i;
    while j < b.len() && (b[j] == b'_' || b[j].is_ascii_alphanumeric()) {
        j += 1;
    }
    j.max(i + 1)
}

/// Byte ranges of `#[cfg(test)] mod … { … }` bodies in the masked text.
fn test_mod_regions(masked: &[u8]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let needle = b"#[cfg(test)]";
    let mut i = 0;
    while i + needle.len() <= masked.len() {
        if &masked[i..i + needle.len()] != needle.as_slice() {
            i += 1;
            continue;
        }
        let mut j = i + needle.len();
        // Skip whitespace, further attributes, and visibility up to `mod`.
        let mut is_mod = false;
        loop {
            while j < masked.len() && masked[j].is_ascii_whitespace() {
                j += 1;
            }
            if j < masked.len() && masked[j] == b'#' {
                // Skip `#[…]` with bracket depth.
                let mut depth = 0usize;
                while j < masked.len() {
                    match masked[j] {
                        b'[' => depth += 1,
                        b']' => {
                            depth -= 1;
                            if depth == 0 {
                                j += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                continue;
            }
            let end = skip_identifier(masked, j);
            let word = &masked[j..end];
            match word {
                b"pub" => {
                    j = end;
                    // `pub(crate)` and friends.
                    while j < masked.len() && masked[j].is_ascii_whitespace() {
                        j += 1;
                    }
                    if j < masked.len() && masked[j] == b'(' {
                        while j < masked.len() && masked[j] != b')' {
                            j += 1;
                        }
                        j += 1;
                    }
                }
                b"mod" => {
                    is_mod = true;
                    j = end;
                    break;
                }
                _ => break,
            }
        }
        if is_mod {
            // Skip the module name, then expect `{`.
            while j < masked.len() && masked[j].is_ascii_whitespace() {
                j += 1;
            }
            j = skip_identifier(masked, j);
            while j < masked.len() && masked[j].is_ascii_whitespace() {
                j += 1;
            }
            if j < masked.len() && masked[j] == b'{' {
                let open = j;
                let mut depth = 0usize;
                while j < masked.len() {
                    match masked[j] {
                        b'{' => depth += 1,
                        b'}' => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                regions.push((open, j));
            }
        }
        i += needle.len();
    }
    regions
}

/// The identifier (if any) ending just before the `::` that precedes
/// offset `start` — e.g. for `thread::spawn`, called at `spawn`'s start,
/// returns `Some("thread")`.
fn path_qualifier(masked: &[u8], start: usize) -> Option<String> {
    let mut j = start;
    while j > 0 && masked[j - 1].is_ascii_whitespace() {
        j -= 1;
    }
    if j < 2 || masked[j - 1] != b':' || masked[j - 2] != b':' {
        return None;
    }
    j -= 2;
    while j > 0 && masked[j - 1].is_ascii_whitespace() {
        j -= 1;
    }
    let end = j;
    while j > 0 && (masked[j - 1] == b'_' || masked[j - 1].is_ascii_alphanumeric()) {
        j -= 1;
    }
    (j < end).then(|| String::from_utf8_lossy(&masked[j..end]).into_owned())
}

fn prev_nonspace(masked: &[u8], start: usize) -> Option<u8> {
    masked[..start].iter().rev().find(|c| !c.is_ascii_whitespace()).copied()
}

fn next_nonspace(masked: &[u8], end: usize) -> Option<u8> {
    masked[end..].iter().find(|c| !c.is_ascii_whitespace()).copied()
}

/// Lint one file's source text. `path` is the repo-relative label;
/// `is_test_file` marks whole-file test context (tests/, benches/,
/// examples/).
#[must_use]
pub fn lint_source(path: &str, src: &str, is_test_file: bool) -> Vec<Finding> {
    let masked = mask_source(src);
    let regions = if is_test_file { Vec::new() } else { test_mod_regions(&masked) };
    let in_test = |off: usize| is_test_file || regions.iter().any(|&(a, b)| off > a && off < b);
    // Line starts for offset → (line, col).
    let mut line_starts = vec![0usize];
    for (i, &c) in masked.iter().enumerate() {
        if c == b'\n' {
            line_starts.push(i + 1);
        }
    }
    let locate = |off: usize| {
        let line = line_starts.partition_point(|&s| s <= off);
        (line, off - line_starts[line - 1] + 1)
    };

    let mut findings = Vec::new();
    let mut push = |rule: &'static str, off: usize, snippet: String| {
        let (line, col) = locate(off);
        findings.push(Finding {
            rule,
            path: path.to_string(),
            line,
            col,
            snippet,
            allowed: false,
            reason: None,
        });
    };

    // File-scoped socket rule state: the first socket type named
    // outside tests, and whether ANY deadline-arming identifier appears
    // (helpers may arm deadlines inside a test-exempt region or a
    // dedicated function, so the satisfier is file-wide).
    let mut first_socket: Option<(usize, &'static str)> = None;
    let mut arms_deadline = false;
    // Same shape for the rename rule: first `fs::rename` outside
    // tests, satisfied by any data-forcing identifier in the file.
    let mut first_rename: Option<usize> = None;
    let mut syncs_data = false;
    let is_protocol_file = PROTOCOL_PATHS.contains(&path);
    // And again for the span rule: the first span opened in a
    // fleet-observed file, satisfied by any trace-context identifier
    // anywhere in the file (stamping usually lives in a field closure).
    let mut first_span: Option<usize> = None;
    let mut stamps_context = false;
    let is_fleet_obs_file = (path.starts_with("crates/serve/src/")
        || PROTOCOL_PATHS.contains(&path))
        && !path.split('/').any(|c| c == "bin");

    let mut i = 0;
    while i < masked.len() {
        let c = masked[i];
        if !(c == b'_' || c.is_ascii_alphabetic()) {
            i += 1;
            continue;
        }
        let end = skip_identifier(&masked, i);
        let ident = std::str::from_utf8(&masked[i..end]).unwrap_or("");
        if matches!(ident, "set_read_timeout" | "set_write_timeout" | "apply_deadlines") {
            arms_deadline = true;
        }
        if matches!(ident, "sync_all" | "sync_data") {
            syncs_data = true;
        }
        if matches!(ident, "TraceContext" | "stamp" | "with_context") {
            stamps_context = true;
        }
        if !in_test(i) {
            if first_socket.is_none() {
                if ident == "TcpStream" {
                    first_socket = Some((i, "TcpStream"));
                } else if ident == "TcpListener" {
                    first_socket = Some((i, "TcpListener"));
                }
            }
            if PANIC_METHODS.contains(&ident)
                && prev_nonspace(&masked, i) == Some(b'.')
                && next_nonspace(&masked, end) == Some(b'(')
            {
                push("panic-path", i, format!(".{ident}()"));
            } else if PANIC_MACROS.contains(&ident) && next_nonspace(&masked, end) == Some(b'!') {
                push("panic-path", i, format!("{ident}!"));
            } else if ident == "spawn" && path_qualifier(&masked, i).as_deref() == Some("thread") {
                push("thread-spawn", i, "thread::spawn".to_string());
            } else if ident == "now" && path_qualifier(&masked, i).as_deref() == Some("SystemTime")
            {
                // In a protocol file the sharper rule subsumes the
                // general one (one finding per token, one allow row).
                if is_protocol_file {
                    push("wall-clock-in-protocol", i, "SystemTime::now".to_string());
                } else {
                    push("wall-clock", i, "SystemTime::now".to_string());
                }
            } else if is_protocol_file
                && ident == "now"
                && path_qualifier(&masked, i).as_deref() == Some("Instant")
            {
                push("wall-clock-in-protocol", i, "Instant::now".to_string());
            } else if matches!(ident, "sync_all" | "sync_data")
                && !RECORD_LAYER_PATHS.contains(&path)
            {
                push("fsync-outside-record-layer", i, ident.to_string());
            } else if ident == "rename" && path_qualifier(&masked, i).as_deref() == Some("fs") {
                if first_rename.is_none() {
                    first_rename = Some(i);
                }
            } else if is_fleet_obs_file
                && first_span.is_none()
                && ident == "span"
                && (next_nonspace(&masked, end) == Some(b'!')
                    || (prev_nonspace(&masked, i) == Some(b'.')
                        && next_nonspace(&masked, end) == Some(b'(')))
            {
                first_span = Some(i);
            } else if ident == "eprintln"
                && next_nonspace(&masked, end) == Some(b'!')
                && !path.starts_with("crates/obs/")
                && !path.split('/').any(|c| c == "bin")
            {
                push("eprintln-outside-obs", i, "eprintln!".to_string());
            }
        }
        i = end;
    }
    if let Some((off, name)) = first_socket {
        if !arms_deadline {
            push("socket-without-deadline", off, name.to_string());
        }
    }
    if let Some(off) = first_rename {
        if !syncs_data {
            push("rename-without-fsync", off, "fs::rename".to_string());
        }
    }
    if let Some(off) = first_span {
        if !stamps_context {
            push("span-without-context", off, "span".to_string());
        }
    }
    findings
}

/// Parse the allowlist file contents. Returns `(entries, malformed)`.
#[must_use]
pub fn parse_allowlist(text: &str) -> (Vec<AllowEntry>, Vec<String>) {
    let mut entries = Vec::new();
    let mut malformed = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        if tokens.len() >= 3 {
            entries.push(AllowEntry {
                rule: tokens[0].to_string(),
                path: tokens[1].to_string(),
                reason: tokens[2..].join(" "),
            });
        } else {
            malformed
                .push(format!("line {}: expected `rule path reason…`, got `{line}`", lineno + 1));
        }
    }
    (entries, malformed)
}

/// Recursively collect `.rs` files under `dir` (sorted, deterministic).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), WcmsError> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir)?.map(|e| Ok(e?.path())).collect::<Result<_, WcmsError>>()?;
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Lint the workspace's production sources under `root`: the root
/// package's `src/` and every `crates/*/src/`. Integration tests,
/// benches and examples are out of scope by construction (panics there
/// are test assertions). `allowlist` is the allowlist file's contents
/// (empty string = no allowlist).
///
/// # Errors
///
/// Propagates I/O errors reading the tree.
pub fn lint_workspace(root: &Path, allowlist: &str) -> Result<LintReport, WcmsError> {
    let (entries, malformed) = parse_allowlist(allowlist);
    let mut files = Vec::new();
    collect_rs(&root.join("src"), &mut files)?;
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
            .map(|e| Ok(e?.path()))
            .collect::<Result<_, WcmsError>>()?;
        members.sort();
        for m in members {
            collect_rs(&m.join("src"), &mut files)?;
        }
    }

    let mut report = LintReport { malformed_allowlist: malformed, ..Default::default() };
    let mut used = vec![false; entries.len()];
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let src = std::fs::read_to_string(file)?;
        let is_test_file = rel.split('/').any(|c| matches!(c, "tests" | "benches" | "examples"));
        report.files_scanned += 1;
        for mut f in lint_source(&rel, &src, is_test_file) {
            if let Some(k) = entries.iter().position(|e| e.rule == f.rule && e.path == f.path) {
                f.allowed = true;
                f.reason = Some(entries[k].reason.clone());
                used[k] = true;
            }
            report.findings.push(f);
        }
    }
    for (k, e) in entries.iter().enumerate() {
        if !used[k] {
            report.stale_allowlist.push(format!("{} {} ({})", e.rule, e.path, e.reason));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_calls_are_flagged_but_lookalikes_are_not() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap_or(0);\n    x.unwrap()\n}\n";
        let fs = lint_source("a.rs", src, false);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, "panic-path");
        assert_eq!(fs[0].line, 3);
        assert_eq!(fs[0].snippet, ".unwrap()");
    }

    #[test]
    fn strings_comments_and_chars_are_masked() {
        let src = concat!(
            "// x.unwrap() in a comment\n",
            "/* panic! in a /* nested */ block */\n",
            "fn f() { let s = \".unwrap()\"; let r = r#\"panic!(\"x\")\"#; let c = '\"'; }\n",
            "fn g() { \"after the char literal: .expect(\" ; }\n",
        );
        assert!(lint_source("a.rs", src, false).is_empty());
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let src = concat!(
            "fn prod() { maybe().expect(\"boom\"); }\n",
            "#[cfg(test)]\nmod tests {\n    fn t() { maybe().unwrap(); panic!(\"x\"); }\n}\n",
        );
        let fs = lint_source("a.rs", src, false);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].line, 1);
    }

    #[test]
    fn spawn_and_wall_clock_rules() {
        let src = concat!(
            "fn a() { std::thread::spawn(|| {}); }\n",
            "fn b(s: &std::thread::Scope) { s.spawn(|| {}); }\n",
            "fn c() { let _ = std::time::SystemTime::now(); }\n",
            "fn d() { let _ = std::time::Instant::now(); }\n",
        );
        let fs = lint_source("a.rs", src, false);
        let rules: Vec<_> = fs.iter().map(|f| f.rule).collect();
        assert_eq!(rules, vec!["thread-spawn", "wall-clock"], "{fs:?}");
    }

    #[test]
    fn raw_eprintln_is_flagged_outside_obs_and_bins() {
        let src = "fn f() { eprintln!(\"# warn\"); eprint!(\"x\"); }\n";
        let fs = lint_source("crates/bench/src/panel.rs", src, false);
        let rules: Vec<_> = fs.iter().map(|f| f.rule).collect();
        assert_eq!(rules, vec!["eprintln-outside-obs"], "{fs:?}");
        // The obs crate (implements Obs::warn) and bin/ entry points
        // (stderr is their UI) are exempt by path.
        assert!(lint_source("crates/obs/src/lib.rs", src, false).is_empty());
        assert!(lint_source("crates/bench/src/bin/chaos.rs", src, false).is_empty());
        // Test code is exempt like every other rule.
        assert!(lint_source("crates/bench/tests/t.rs", src, true).is_empty());
    }

    #[test]
    fn sockets_without_deadlines_are_flagged_once_per_file() {
        let src = concat!(
            "use std::net::TcpStream;\n",
            "fn f(a: &str) { let s = TcpStream::connect(a); let _ = s; }\n",
        );
        let fs = lint_source("a.rs", src, false);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, "socket-without-deadline");
        assert_eq!(fs[0].line, 1, "first token only: {fs:?}");
        assert_eq!(fs[0].snippet, "TcpStream");

        // Arming either direction anywhere in the file satisfies the rule,
        // as does routing through the serve crate's helper.
        let armed = format!("{src}fn g(s: &TcpStream) {{ let _ = s.set_read_timeout(None); }}\n");
        assert!(
            lint_source("a.rs", &armed, false).is_empty(),
            "{:?}",
            lint_source("a.rs", &armed, false)
        );
        let helper = format!("{src}fn g(s: &TcpStream) {{ apply_deadlines(s, R, W).ok(); }}\n");
        assert!(lint_source("a.rs", &helper, false).is_empty());

        // Listeners count too, and test code is exempt.
        let listener = "fn f() { let l = std::net::TcpListener::bind(\"x\"); let _ = l; }\n";
        let fs = lint_source("a.rs", listener, false);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].snippet, "TcpListener");
        assert!(lint_source("crates/serve/tests/t.rs", listener, true).is_empty());
    }

    #[test]
    fn deadline_armed_only_in_tests_still_satisfies_the_socket_rule() {
        // The arming identifier may live in a #[cfg(test)] helper —
        // the rule is about the file knowing the concept at all, and a
        // masked-region satisfier must not force an allowlist entry.
        let src = concat!(
            "use std::net::TcpStream;\n",
            "fn f(s: &TcpStream) { crate::deadline::apply_deadlines(s, R, W).ok(); }\n",
            "#[cfg(test)]\nmod tests { fn t() { let _ = super::f; } }\n",
        );
        assert!(lint_source("a.rs", src, false).is_empty());
    }

    #[test]
    fn protocol_files_ban_every_raw_clock() {
        let src = concat!(
            "fn a() { let _ = std::time::Instant::now(); }\n",
            "fn b() { let _ = std::time::SystemTime::now(); }\n",
            "fn c(clock: &wcms_obs::Clock) { let _ = clock.now_us(); }\n",
        );
        // Inside a protocol file both raw clocks hit the sharper rule
        // (and SystemTime is not double-reported under `wall-clock`).
        let fs = lint_source("crates/bench/src/shard.rs", src, false);
        let rules: Vec<_> = fs.iter().map(|f| f.rule).collect();
        assert_eq!(rules, vec!["wall-clock-in-protocol", "wall-clock-in-protocol"], "{fs:?}");
        assert_eq!(fs[0].snippet, "Instant::now");
        assert_eq!(fs[1].snippet, "SystemTime::now");
        // Outside the protocol set, `Instant` stays fine and
        // `SystemTime` hits the general rule as before.
        let fs = lint_source("crates/bench/src/series.rs", src, false);
        let rules: Vec<_> = fs.iter().map(|f| f.rule).collect();
        assert_eq!(rules, vec!["wall-clock"], "{fs:?}");
        // Protocol test modules are exempt like every other rule.
        let test_src = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
        assert!(lint_source("crates/bench/src/shard.rs", &test_src, false).is_empty());
    }

    #[test]
    fn rename_without_fsync_is_file_scoped() {
        let src = "fn f() { std::fs::rename(\"a\", \"b\").ok(); fs::rename(\"c\", \"d\").ok(); }\n";
        let fs = lint_source("a.rs", src, false);
        assert_eq!(fs.len(), 1, "first rename only: {fs:?}");
        assert_eq!(fs[0].rule, "rename-without-fsync");
        assert_eq!(fs[0].snippet, "fs::rename");

        // Forcing data anywhere in the file satisfies the rule — the
        // temp-file fsync lives a few lines above the rename. (Outside
        // the record layer the fsync itself is a finding of its own.)
        let renames = |src: &str| {
            let fs = lint_source("a.rs", src, false);
            fs.iter().filter(|f| f.rule == "rename-without-fsync").count()
        };
        let synced = format!("fn s(f: &std::fs::File) {{ f.sync_all().ok(); }}\n{src}");
        assert_eq!(renames(&synced), 0);
        let synced = format!("fn s(f: &std::fs::File) {{ f.sync_data().ok(); }}\n{src}");
        assert_eq!(renames(&synced), 0);

        // Test files and #[cfg(test)] modules are exempt.
        assert!(lint_source("crates/bench/tests/t.rs", src, true).is_empty());
        let test_src = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
        assert!(lint_source("a.rs", &test_src, false).is_empty());
    }

    #[test]
    fn fsync_is_confined_to_the_record_layer() {
        let src = "fn w(f: &File) {\n    f.sync_all().ok();\n    File::sync_data(f).ok();\n}\n";
        let fs = lint_source("crates/serve/src/cache.rs", src, false);
        let hits: Vec<_> = fs.iter().map(|f| (f.rule, f.line, f.snippet.as_str())).collect();
        let rule = "fsync-outside-record-layer";
        assert_eq!(hits, vec![(rule, 2, "sync_all"), (rule, 3, "sync_data")], "{fs:?}");
        // The record layer itself may force data.
        for path in RECORD_LAYER_PATHS {
            assert!(lint_source(path, src, false).is_empty(), "{path}");
        }
        // Comments, strings and test modules are exempt.
        let quoted = "// f.sync_all()\nfn m() -> &'static str { \"sync_all\" }\n";
        assert!(lint_source("crates/serve/src/cache.rs", quoted, false).is_empty());
        let test_src = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
        assert!(lint_source("crates/serve/src/cache.rs", &test_src, false).is_empty());
    }

    #[test]
    fn spans_without_context_are_flagged_in_fleet_paths_only() {
        let src = concat!(
            "fn f(obs: &Obs) { let _g = obs.span(\"request\", Vec::new); }\n",
            "fn g(obs: &Obs) { let _g = span!(obs, \"cell\", cell => 1); }\n",
        );
        // A fleet-observed file opening spans with no context machinery:
        // flagged once, on the first span.
        let fs = lint_source("crates/serve/src/server.rs", src, false);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, "span-without-context");
        assert_eq!(fs[0].line, 1, "first span only: {fs:?}");
        let fs = lint_source("crates/bench/src/supervisor.rs", src, false);
        assert_eq!(fs.len(), 1, "{fs:?}");

        // Any trace-context identifier anywhere in the file satisfies
        // the rule — stamping lives inside the field closures.
        for satisfier in [
            "fn s(ctx: &TraceContext, f: &mut Vec<Field>) { let _ = (ctx, f); }\n",
            "fn s(ctx: C, f: &mut Vec<Field>) { ctx.stamp(f); }\n",
            "fn s(obs: &Obs, ctx: C) -> Obs { obs.with_context(ctx) }\n",
        ] {
            let stamped = format!("{src}{satisfier}");
            let fs = lint_source("crates/serve/src/server.rs", &stamped, false);
            assert!(fs.is_empty(), "{satisfier:?}: {fs:?}");
        }

        // Outside the fleet-observed set — other library code, bin/
        // entry points (UI-local spans), and test files — no finding.
        assert!(lint_source("crates/bench/src/figures.rs", src, false).is_empty());
        assert!(lint_source("crates/serve/src/bin/wcms-serve.rs", src, false).is_empty());
        assert!(lint_source("crates/obs/src/bin/wcms-trace.rs", src, false).is_empty());
        assert!(lint_source("crates/serve/tests/t.rs", src, true).is_empty());
        // A field or variable merely *named* span is not a span open.
        let named = "fn f(r: &R) { let span = r.span; let _ = span; }\n";
        assert!(lint_source("crates/serve/src/server.rs", named, false).is_empty());
    }

    #[test]
    fn stale_allowlist_entries_fail_the_gate() {
        // A deliberately-stale fixture: a tiny on-disk workspace whose
        // one source file is clean, plus an allowlist row for a
        // finding that does not exist. The row must be reported stale
        // AND fail the gate — a stale allow is cover for a future
        // regression, not a warning.
        let root =
            std::env::temp_dir().join(format!("wcms-lint-stale-fixture-{}", std::process::id()));
        let src_dir = root.join("src");
        std::fs::create_dir_all(&src_dir).expect("fixture dir");
        std::fs::write(src_dir.join("lib.rs"), "pub fn clean() -> u32 { 7 }\n")
            .expect("fixture file");
        let report =
            lint_workspace(&root, "wall-clock src/lib.rs this finding was fixed long ago\n")
                .expect("fixture lints");
        std::fs::remove_dir_all(&root).ok();
        assert_eq!(report.files_scanned, 1);
        assert!(report.denied().next().is_none(), "{:?}", report.findings);
        assert_eq!(report.stale_allowlist.len(), 1, "{:?}", report.stale_allowlist);
        assert!(!report.gate_ok(), "a stale allowlist entry must fail the gate");
    }

    #[test]
    fn allowlist_covers_stales_and_malformed() {
        let (entries, malformed) = parse_allowlist(
            "# comment\n\
             panic-path a.rs internal invariant, documented\n\
             thread-spawn b.rs\n\
             wall-clock c.rs never hit\n",
        );
        assert_eq!(entries.len(), 2);
        assert_eq!(malformed.len(), 1, "{malformed:?}");
        assert!(malformed[0].contains("line 3"));
    }

    #[test]
    fn json_rendering_escapes() {
        let report = LintReport {
            findings: vec![Finding {
                rule: "panic-path",
                path: "a\"b.rs".into(),
                line: 1,
                col: 2,
                snippet: ".unwrap()".into(),
                allowed: false,
                reason: None,
            }],
            ..Default::default()
        };
        let j = report.to_json();
        assert!(j.contains("\"a\\\"b.rs\""), "{j}");
        assert!(j.contains("\"files_scanned\":0"), "{j}");
    }

    #[test]
    fn lifetimes_do_not_derail_the_masker() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }\nfn g() { h().unwrap(); }\n";
        let fs = lint_source("a.rs", src, false);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].line, 2);
    }
}
