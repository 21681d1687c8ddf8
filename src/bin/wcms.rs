//! `wcms` — command-line front end.
//!
//! ```text
//! wcms generate  --e 15 --b 512 --n 491520 --out worst.keys
//! wcms evaluate  --w 32 --e 15
//! wcms sort      --e 15 --b 512 --n 61440 [--input worst|random|sorted|reverse|heavy]
//! wcms assess    --file worst.keys --e 15 --b 512
//! wcms occupancy
//! wcms genstream --family random --n 100000000 --out big.keys
//! wcms verify    --file big.keys
//! wcms sortfile  --input big.keys --output sorted.keys
//! ```
//!
//! The last three are the scale-out dataset commands: they stream the
//! version-3 chunked layout, so peak memory stays bounded by the chunk
//! (and, for `sortfile`, the run) size regardless of N — a 10⁸-key
//! dataset generates, verifies, and sorts comfortably under 256 MiB.
//!
//! Every failure path — invalid `(w, E, b)` geometry, a configuration
//! that does not fit the device, a corrupt key file — surfaces as a
//! typed [`WcmsError`] printed to stderr with a non-zero exit code;
//! nothing panics on user input.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;

use wcms::adversary::evaluate::access_matrix;
use wcms::adversary::{construct, evaluate, theorem_aligned_count, WorstCaseBuilder};
use wcms::error::cli::{self, Args, Flag};
use wcms::gpu::{CostModel, DeviceSpec, Occupancy};
use wcms::mergesort::assess_input;
use wcms::mergesort::{sort_on, SimBackend, SortParams, SortSpec};
use wcms::workloads::dataset::{
    read_keys, sort_dataset_file, write_keys, DatasetReader, DatasetWriter, MultisetFingerprint,
    DEFAULT_CHUNK_KEYS,
};
use wcms::workloads::random::random_permutation;
use wcms::WcmsError;

const W: Flag = Flag::value("--w", "w", "warp width / bank count (default 32)");
const E: Flag = Flag::value("--e", "e", "elements per thread (default 15)");
const B: Flag = Flag::value("--b", "b", "threads per block (default 512)");
const N: Flag = Flag::value("--n", "n", "number of keys");
const OUT: Flag = Flag::value("--out", "file", "file to write");
const FILE: Flag = Flag::value("--file", "file", "key file to read");
const INPUT: Flag = Flag::value("--input", "worst|random|sorted|reverse|heavy", "input family");
const FAMILY: Flag =
    Flag::value("--family", "sorted|reverse|random", "key stream (default random)");
const SEED: Flag = Flag::value("--seed", "s", "random-stream seed (default 42)");
const CHUNK: Flag = Flag::value("--chunk", "keys", "keys per chunk");
const SRC: Flag = Flag::value("--input", "file", "dataset to sort");
const DEST: Flag = Flag::value("--output", "file", "sorted dataset to write");
const RUN_KEYS: Flag = Flag::value("--run-keys", "k", "keys per in-memory run (default 8388608)");

/// Each subcommand: name, one line of help, flag table.
const COMMANDS: &[(&str, &str, &[Flag])] = &[
    ("generate", "build a worst-case permutation", &[W, E, B, N, OUT]),
    ("evaluate", "analyse the per-warp construction, print its access matrix", &[W, E]),
    ("sort", "run the simulated sort", &[W, E, B, N, INPUT]),
    ("assess", "classify a key file's conflict severity", &[W, E, B, FILE]),
    ("occupancy", "print the occupancy table for all devices", &[E, B]),
    ("genstream", "stream a v3 dataset under bounded memory", &[FAMILY, N, OUT, SEED, CHUNK]),
    ("verify", "stream-check a dataset: checksums, fingerprint, sortedness", &[FILE]),
    ("sortfile", "external merge sort, v3 to v3", &[SRC, DEST, RUN_KEYS]),
];

fn usage() {
    eprintln!("usage: wcms <command> [flags]; `wcms <command> --help` lists a command's flags");
    for (name, help, _) in COMMANDS {
        eprintln!("  {name:<10} {help}");
    }
}

fn main() -> ExitCode {
    let cmd = std::env::args().nth(1).unwrap_or_default();
    let Some((_, _, flags)) = COMMANDS.iter().find(|(name, _, _)| *name == cmd) else {
        usage();
        return ExitCode::from(u8::from(!matches!(cmd.as_str(), "--help" | "-h")));
    };
    cli::main(&format!("wcms {cmd}"), &[flags], |args| {
        let w = args.get_or("--w", 32)?;
        let e = args.get_or("--e", 15)?;
        let b = args.get_or("--b", 512)?;
        match cmd.as_str() {
            "generate" => generate(args, w, e, b),
            "evaluate" => evaluate_cmd(w, e),
            "sort" => sort_cmd(args, w, e, b),
            "assess" => assess_cmd(args, w, e, b),
            "occupancy" => occupancy_cmd(e, b),
            "genstream" => genstream_cmd(args),
            "verify" => verify_cmd(args),
            _ => sortfile_cmd(args),
        }
    })
}

fn generate(args: &Args, w: usize, e: usize, b: usize) -> Result<(), WcmsError> {
    let builder = WorstCaseBuilder::new(w, e, b)?;
    let n = args.get_or("--n", builder.block_elems() * 64)?;
    let n = if builder.valid_len(n) { n } else { builder.next_valid_len(n) };
    let keys = builder.build(n)?;
    match args.value("--out") {
        Some(path) if !path.is_empty() => {
            let file = File::create(path)?;
            write_keys(BufWriter::new(file), &keys)?;
            println!("wrote {n} keys to {path}");
        }
        _ => {
            println!("built {n} keys (pass --out FILE to save); first 16: {:?}", &keys[..16.min(n)])
        }
    }
    Ok(())
}

fn evaluate_cmd(w: usize, e: usize) -> Result<(), WcmsError> {
    let asg = construct(w, e)?;
    let ev = evaluate(&asg)?;
    println!(
        "w = {w}, E = {e} ({})",
        if e < w / 2 { "small case, Theorem 3" } else { "large case, Theorem 9" }
    );
    println!("theorem aligned count: {}", theorem_aligned_count(w, e)?);
    println!("measured aligned:      {}", ev.aligned);
    println!("merge-stage cycles:    {} (conflict-free would be {e})", ev.cycles());
    println!("effective parallelism: {} -> {} threads/warp", w, w.div_ceil(e));
    println!("\naccess matrix (rows = banks; = aligned, ! misaligned, . filler):");
    println!("{}", access_matrix(&asg).render());
    Ok(())
}

fn sort_cmd(args: &Args, w: usize, e: usize, b: usize) -> Result<(), WcmsError> {
    let params = SortParams::new(w, e, b)?;
    let n = {
        let raw = args.get_or("--n", params.block_elems() * 16)?;
        if params.valid_len(raw) {
            raw
        } else {
            params.next_valid_len(raw)
        }
    };
    let input = match args.value("--input").unwrap_or("worst") {
        "worst" => WorstCaseBuilder::new(w, e, b)?.build(n)?,
        "random" => random_permutation(n, 42),
        "sorted" => (0..n as u32).collect(),
        "reverse" => (0..n as u32).rev().collect(),
        "heavy" => WorstCaseBuilder::conflict_heavy(w, e, b, 8.min(e - 1))?.build(n)?,
        other => {
            return Err(WcmsError::InvalidAssignment {
                reason: format!("unknown --input {other} (worst|random|sorted|reverse|heavy)"),
            })
        }
    };
    let (out, report) = sort_on(&input, &params, &SimBackend, &SortSpec::default())?;
    assert!(out.windows(2).all(|x| x[0] <= x[1]));
    let device = DeviceSpec::quadro_m4000();
    // Name the full (E, b, device) triple when the configuration does
    // not fit, instead of the old `.expect("fits")` panic.
    let occ = Occupancy::compute(&device, b, params.shared_bytes()).map_err(|err| match err {
        WcmsError::OccupancyMisfit { device, block_threads, shared_bytes, reason } => {
            WcmsError::OccupancyMisfit {
                device,
                block_threads,
                shared_bytes,
                reason: format!("E={e}: {reason}"),
            }
        }
        other => other,
    })?;
    let t = CostModel::default().estimate(
        &device,
        &occ,
        &report.kernel_counters(),
        report.blocks_launched(),
    );
    println!("sorted {n} keys ({} global rounds)", report.rounds.len());
    println!(
        "beta1 = {:.2}, beta2 = {:.2}",
        report.global_beta1().unwrap_or(1.0),
        report.global_beta2().unwrap_or(1.0)
    );
    println!("conflicts/element = {:.3}", report.conflicts_per_element());
    println!(
        "modelled on {}: {:.3} ms ({:.0} ME/s)",
        device.name,
        t.total_s * 1e3,
        n as f64 / t.total_s / 1e6
    );
    Ok(())
}

fn assess_cmd(args: &Args, w: usize, e: usize, b: usize) -> Result<(), WcmsError> {
    let keys = read_keys(File::open(args.required("--file")?)?)?;
    let params = SortParams::new(w, e, b)?;
    let a = assess_input(&keys, &params)?;
    println!("{} keys under w={w}, E={e}, b={b}:", keys.len());
    println!(
        "  beta1 = {:.2}, beta2 = {:.2} ({:.0}% of the provable worst case)",
        a.beta1,
        a.beta2,
        a.worst_case_fraction * 100.0
    );
    println!("  conflicts/element = {:.3}", a.conflicts_per_element);
    println!("  severity: {:?}", a.severity);
    Ok(())
}

fn dataset_err(reason: impl Into<String>) -> WcmsError {
    WcmsError::DatasetCorrupt { reason: reason.into() }
}

/// splitmix64 finalizer — the seeded key stream for `genstream
/// --family random`. A hash stream (a multiset, not a permutation):
/// exactly what the external-sort drivers need, and computable at any
/// index without materializing anything.
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `wcms genstream`: write an N-key version-3 dataset one chunk at a
/// time. Peak memory is one chunk (default 4 MiB of keys) regardless
/// of N, so 10⁸–10⁹ keys generate under a small, flat RSS.
fn genstream_cmd(args: &Args) -> Result<(), WcmsError> {
    let n: u64 = args.get_or("--n", 0)?;
    if n == 0 {
        return Err(dataset_err("genstream needs --n N (number of keys, > 0)"));
    }
    let out = args.required("--out")?;
    let family = args.value("--family").unwrap_or("random");
    let seed: u64 = args.get_or("--seed", 42)?;
    let chunk = args.get_or("--chunk", DEFAULT_CHUNK_KEYS)?;
    if family == "sorted" || family == "reverse" {
        // Keys are u32: a monotone ramp longer than the key space
        // would have to repeat, which is no longer "sorted distinct".
        if n > u64::from(u32::MAX) + 1 {
            return Err(dataset_err(format!(
                "genstream --family {family}: --n {n} exceeds the u32 key space"
            )));
        }
    }
    let key_at = |i: u64| -> u32 {
        match family {
            "sorted" => i as u32,
            "reverse" => (n - 1 - i) as u32,
            _ => mix64(seed ^ i) as u32,
        }
    };
    if !matches!(family, "sorted" | "reverse" | "random") {
        return Err(dataset_err(format!(
            "unknown --family {family} (sorted|reverse|random stream under bounded memory; \
             the adversarial families need the whole array — see `wcms generate`)"
        )));
    }
    let file = BufWriter::new(File::create(out)?);
    let mut writer = DatasetWriter::new(file, n, chunk)?;
    let mut print = MultisetFingerprint::new();
    let mut buf: Vec<u32> = Vec::with_capacity(chunk.min(n as usize));
    let mut i = 0u64;
    while i < n {
        buf.clear();
        let take = (n - i).min(buf.capacity() as u64);
        buf.extend((i..i + take).map(key_at));
        print.update(&buf);
        writer.write_keys(&buf)?;
        i += take;
    }
    writer.finish()?;
    println!("wrote {n} {family} keys to {out} (fingerprint {:016x})", print.finish());
    Ok(())
}

/// `wcms verify`: stream a dataset file end to end — every header,
/// index, and chunk checksum is validated by the reader — and report
/// the count, multiset fingerprint, and whether the keys are sorted.
/// Bounded memory: one chunk at a time.
fn verify_cmd(args: &Args) -> Result<(), WcmsError> {
    let path = args.required("--file")?;
    let mut reader = DatasetReader::open(BufReader::new(File::open(path)?))?;
    let declared = reader.count();
    let mut print = MultisetFingerprint::new();
    let mut seen = 0u64;
    let mut sorted = true;
    let mut last: Option<u32> = None;
    while let Some(chunk) = reader.next_chunk()? {
        print.update(&chunk);
        seen += chunk.len() as u64;
        for &k in &chunk {
            if last.is_some_and(|p| p > k) {
                sorted = false;
            }
            last = Some(k);
        }
    }
    if seen != declared {
        return Err(dataset_err(format!("dataset declared {declared} keys but streamed {seen}")));
    }
    println!(
        "{path}: {seen} keys, fingerprint {:016x}, {}",
        print.finish(),
        if sorted { "sorted" } else { "not sorted" }
    );
    Ok(())
}

/// `wcms sortfile`: external merge sort of a v3 dataset into a new v3
/// file, with the input/output multiset fingerprint proved equal.
fn sortfile_cmd(args: &Args) -> Result<(), WcmsError> {
    let (input, output) = (args.required("--input")?, args.required("--output")?);
    let run_keys = args.get_or("--run-keys", 8 << 20)?;
    let report =
        sort_dataset_file(std::path::Path::new(input), std::path::Path::new(output), run_keys)?;
    println!(
        "sorted {} keys in {} runs -> {output} (fingerprint {:016x}, input == output)",
        report.keys, report.runs, report.fingerprint
    );
    Ok(())
}

fn occupancy_cmd(e: usize, b: usize) -> Result<(), WcmsError> {
    for device in DeviceSpec::presets() {
        let w = device.warp_size;
        let params = SortParams::new(w, e, b)?;
        match Occupancy::compute(&device, b, params.shared_bytes()) {
            Ok(o) => {
                println!(
                "{:<14} E={e:<3} b={b:<4}: {} blocks/SM, {:>4} threads/SM ({:>3.0}%), {}-limited",
                device.name, o.blocks_per_sm, o.threads_per_sm, o.fraction * 100.0, o.limiter
            )
            }
            Err(err) => println!("{:<14} E={e:<3} b={b:<4}: does not fit ({err})", device.name),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_flags_are_typed_errors() {
        for (cmd, argv, needle) in [
            ("sort", ["--n", "abc"], "--n abc"),
            ("sort", ["--file", "keys"], "'--file'"),
            ("evaluate", ["--b", "64"], "'--b'"),
        ] {
            let (_, _, flags) = COMMANDS.iter().find(|(name, _, _)| *name == cmd).unwrap();
            let parsed = Args::parse(cmd, &[flags], &argv.map(String::from));
            let err = parsed.and_then(|a| a.get::<usize>("--n")).unwrap_err();
            assert!(err.to_string().contains(needle), "{cmd} {argv:?}: {err}");
        }
    }
}
