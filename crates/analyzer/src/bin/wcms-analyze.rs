//! `wcms-analyze` — the workspace's static-analysis gate.
//!
//! Run with `--help` for the flags. Exit status 0 when every requested
//! pass is clean, 1 on any finding, 2 on usage errors. CI runs
//! `wcms-analyze --all` as a required job.

use std::path::PathBuf;
use std::process::ExitCode;

use wcms_analyzer::bounds::{verify_grid, verify_multiway_rounds};
use wcms_analyzer::crosscheck::{crosscheck_fig4, warp_grid_disagreements};
use wcms_analyzer::interleave::ExploreConfig;
use wcms_analyzer::lint::lint_workspace;
use wcms_analyzer::model_fs::{check_fs_consistency, check_fs_mutations};
use wcms_analyzer::shard_model::{check_shard_mutations, check_shard_protocol};
use wcms_analyzer::supervisor_model::check_supervisor_protocol;
use wcms_error::cli::{invalid, Args, Flag};
use wcms_error::WcmsError;
use wcms_obs::json::quote;

struct Options {
    args: Args,
    json: bool,
    warp: usize,
    doublings: usize,
    min_schedules: usize,
}

impl Options {
    /// Was the pass `flag` requested (directly or through `--all`)?
    fn pass(&self, flag: &str) -> bool {
        self.args.flag("--all") || self.args.flag(flag)
    }
}

const ANALYZE_FLAGS: &[Flag] = &[
    Flag::switch("--verify-bounds", "symbolic per-warp bounds vs. the closed forms, every E < w"),
    Flag::switch("--model-check", "exhaustive interleavings of the sweep supervisor"),
    Flag::switch("--model-check-shard", "lease/steal protocol and checkpoint crash consistency"),
    Flag::switch("--crosscheck", "symbolic verdicts vs. the DMM oracle and analytic sorts"),
    Flag::switch("--lint", "token-level workspace lint"),
    Flag::switch("--all", "every pass above"),
    Flag::value("--warp", "w", "warp width (default 32)"),
    Flag::value("--doublings", "d", "crosscheck grid doublings (default 2)"),
    Flag::value("--min-schedules", "n", "fail a model check exploring fewer (default 10000)"),
    Flag::value("--root", "path", "workspace root to lint (default .)"),
    Flag::value("--allowlist", "path", "lint allowlist (default <root>/lint-allowlist.txt)"),
    Flag::switch("--json", "one JSON document instead of text"),
];

fn parse_args() -> Result<Options, WcmsError> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse("wcms-analyze", &[ANALYZE_FLAGS], &argv)?;
    let o = Options {
        json: args.flag("--json"),
        warp: args.get_or("--warp", 32)?,
        doublings: args.get_or("--doublings", 2)?,
        min_schedules: args.get_or("--min-schedules", 10_000)?,
        args,
    };
    let passes =
        ["--verify-bounds", "--model-check", "--model-check-shard", "--crosscheck", "--lint"];
    if !passes.iter().any(|f| o.pass(f)) {
        return Err(invalid("nothing to do: pick a pass or --all (see `wcms-analyze --help`)"));
    }
    Ok(o)
}

fn main() -> ExitCode {
    let o = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("wcms-analyze: {e}");
            return ExitCode::from(2); // usage error
        }
    };

    let mut ok = true;
    let mut json_sections: Vec<String> = Vec::new();

    if o.pass("--verify-bounds") {
        // Multiway rounds for a representative tuning slice: co-prime,
        // shared-factor and power-of-two E under a 4-way fan-in. Rounds
        // with no closed form (the irregular interleavings) are
        // *reported*, never failed — only a stride-regular round that
        // misses its d·E form is a finding.
        let multiway: Vec<_> = [3usize, 5, 8]
            .into_iter()
            .filter(|&e| e < o.warp)
            .filter_map(|e| verify_multiway_rounds(o.warp, e, 4).ok())
            .flatten()
            .collect();
        let multiway_bad = multiway.iter().filter(|v| !v.holds()).count();
        match verify_grid(o.warp) {
            Ok(verdicts) => {
                let bad = verdicts.iter().filter(|v| !v.holds()).count() + multiway_bad;
                if o.json {
                    let items: Vec<String> = verdicts
                        .iter()
                        .map(|v| {
                            format!(
                                "{{\"e\":{},\"case\":{},\"aligned\":{},\"closed_form\":{},\
                                 \"min_cycles\":{},\"holds\":{}}}",
                                v.e,
                                quote(v.case.name()),
                                v.aligned,
                                v.closed_form,
                                v.min_cycles,
                                v.holds()
                            )
                        })
                        .collect();
                    let mw_items: Vec<String> = multiway
                        .iter()
                        .map(|v| {
                            format!(
                                "{{\"e\":{},\"k\":{},\"round\":{},\"stride_regular\":{},\
                                 \"closed_form\":{},\"per_warp\":{:?},\"holds\":{}}}",
                                v.e,
                                v.k,
                                quote(v.label),
                                v.stride_regular,
                                v.closed_form.map_or("null".into(), |c| c.to_string()),
                                v.per_warp_aligned,
                                v.holds()
                            )
                        })
                        .collect();
                    json_sections.push(format!(
                        "\"bounds\":{{\"w\":{},\"verdicts\":[{}],\"multiway\":[{}]}}",
                        o.warp,
                        items.join(","),
                        mw_items.join(",")
                    ));
                } else {
                    println!("== verify-bounds (w = {}) ==", o.warp);
                    for v in &verdicts {
                        println!(
                            "  E={:<2} {:<13} aligned={:<4} closed-form={:<4} min-cycles={:<4} {}",
                            v.e,
                            v.case.name(),
                            v.aligned,
                            v.closed_form,
                            v.min_cycles,
                            if v.holds() { "ok" } else { "FAIL" }
                        );
                        for f in &v.failures {
                            println!("       {f}");
                        }
                    }
                    for v in &multiway {
                        match v.closed_form {
                            Some(cf) => println!(
                                "  E={:<2} multiway k={} {:<11} per-warp {:?} closed-form={cf} {}",
                                v.e,
                                v.k,
                                v.label,
                                v.per_warp_aligned,
                                if v.holds() { "ok" } else { "FAIL" }
                            ),
                            None => println!(
                                "  E={:<2} multiway k={} {:<11} per-warp {:?} \
                                 no closed form (reported, not a failure)",
                                v.e, v.k, v.label, v.per_warp_aligned
                            ),
                        }
                        for f in &v.failures {
                            println!("       {f}");
                        }
                    }
                    println!(
                        "  {} verdicts ({} multiway rounds), {} failures",
                        verdicts.len(),
                        multiway.len(),
                        bad
                    );
                }
                ok &= bad == 0;
            }
            Err(e) => {
                eprintln!("verify-bounds: {e}");
                ok = false;
            }
        }
    }

    if o.pass("--model-check") {
        let reports = check_supervisor_protocol(&ExploreConfig::default());
        let total: usize = reports.iter().map(|r| r.report.schedules).sum();
        let violations: usize = reports.iter().map(|r| r.report.violations.len()).sum();
        let clean = reports.iter().all(|r| r.report.clean()) && total >= o.min_schedules;
        if o.json {
            let items: Vec<String> = reports
                .iter()
                .map(|r| {
                    format!(
                        "{{\"scenario\":{},\"schedules\":{},\"states\":{},\"max_depth\":{},\
                         \"violations\":{},\"truncated\":{}}}",
                        quote(r.name),
                        r.report.schedules,
                        r.report.states,
                        r.report.max_depth_seen,
                        r.report.violations.len(),
                        r.report.truncated
                    )
                })
                .collect();
            json_sections.push(format!(
                "\"model_check\":{{\"total_schedules\":{total},\"scenarios\":[{}]}}",
                items.join(",")
            ));
        } else {
            println!("== model-check (supervisor protocol) ==");
            for r in &reports {
                println!(
                    "  {:<24} {:>7} schedules, {:>8} states, depth {:>2}, {} violations{}",
                    r.name,
                    r.report.schedules,
                    r.report.states,
                    r.report.max_depth_seen,
                    r.report.violations.len(),
                    if r.report.truncated { " (TRUNCATED)" } else { "" }
                );
                for v in r.report.violations.iter().take(3) {
                    println!("       {} via {:?}", v.message, v.schedule);
                }
            }
            println!(
                "  {total} schedules total (minimum {}), {violations} violations",
                o.min_schedules
            );
        }
        if total < o.min_schedules {
            eprintln!("model-check: only {total} schedules explored (< {})", o.min_schedules);
        }
        ok &= clean;
    }

    if o.pass("--model-check-shard") {
        let scenarios = check_shard_protocol(&ExploreConfig::default());
        let fs_scripts = check_fs_consistency();
        let mutations = check_shard_mutations(&ExploreConfig::default());
        let fs_mutations = check_fs_mutations();

        let total: usize = scenarios.iter().map(|r| r.report.schedules).sum();
        let fs_cases: usize = fs_scripts.iter().map(|r| r.cases).sum();
        let total_violations: usize =
            scenarios.iter().map(|r| r.report.violations.len()).sum::<usize>()
                + fs_scripts.iter().map(|r| r.violations.len()).sum::<usize>();
        let all_caught = mutations.iter().all(|m| m.caught && m.replayed)
            && fs_mutations.iter().all(|m| m.caught && m.replayed);
        let clean = scenarios.iter().all(|r| r.report.clean())
            && fs_scripts.iter().all(wcms_analyzer::model_fs::FsScriptReport::clean)
            && total >= o.min_schedules
            && all_caught;

        if o.json {
            let scenario_items: Vec<String> = scenarios
                .iter()
                .map(|r| {
                    format!(
                        "{{\"scenario\":{},\"schedules\":{},\"states\":{},\"max_depth\":{},\
                         \"violations\":{},\"truncated\":{}}}",
                        quote(r.name),
                        r.report.schedules,
                        r.report.states,
                        r.report.max_depth_seen,
                        r.report.violations.len(),
                        r.report.truncated
                    )
                })
                .collect();
            let fs_items: Vec<String> = fs_scripts
                .iter()
                .map(|r| {
                    format!(
                        "{{\"script\":{},\"crash_points\":{},\"cases\":{},\"violations\":{}}}",
                        quote(r.script),
                        r.crash_points,
                        r.cases,
                        r.violations.len()
                    )
                })
                .collect();
            let mut mutation_items: Vec<String> = mutations
                .iter()
                .map(|m| {
                    let ce = m.counterexample.as_ref().map_or("null".to_string(), |v| {
                        format!(
                            "{{\"schedule\":{:?},\"message\":{}}}",
                            v.schedule,
                            quote(&v.message)
                        )
                    });
                    format!(
                        "{{\"name\":{},\"kind\":\"interleaving\",\"schedules\":{},\
                         \"caught\":{},\"replayed\":{},\"counterexample\":{ce}}}",
                        quote(m.variant.name()),
                        m.schedules,
                        m.caught,
                        m.replayed
                    )
                })
                .collect();
            mutation_items.extend(fs_mutations.iter().map(|m| {
                let ce = m.counterexample.as_ref().map_or("null".to_string(), |v| {
                    format!(
                        "{{\"script\":{},\"crash_after\":{},\"choice\":{:?},\"message\":{}}}",
                        quote(v.script),
                        v.crash_after,
                        v.choice,
                        quote(&v.message)
                    )
                });
                format!(
                    "{{\"name\":{},\"kind\":\"crash\",\"cases\":{},\
                     \"caught\":{},\"replayed\":{},\"counterexample\":{ce}}}",
                    quote(m.variant.name()),
                    m.cases,
                    m.caught,
                    m.replayed
                )
            }));
            json_sections.push(format!(
                "\"model_check_shard\":{{\"total_schedules\":{total},\
                 \"total_violations\":{total_violations},\"fs_cases\":{fs_cases},\
                 \"scenarios\":[{}],\"fs\":[{}],\"mutations\":[{}]}}",
                scenario_items.join(","),
                fs_items.join(","),
                mutation_items.join(",")
            ));
        } else {
            println!("== model-check-shard (lease/steal protocol + fs crash consistency) ==");
            for r in &scenarios {
                println!(
                    "  {:<24} {:>7} schedules, {:>8} states, depth {:>2}, {} violations{}",
                    r.name,
                    r.report.schedules,
                    r.report.states,
                    r.report.max_depth_seen,
                    r.report.violations.len(),
                    if r.report.truncated { " (TRUNCATED)" } else { "" }
                );
                for v in r.report.violations.iter().take(3) {
                    println!("       {} via {:?}", v.message, v.schedule);
                }
            }
            for r in &fs_scripts {
                println!(
                    "  fs {:<21} {:>7} crash images over {} crash points, {} violations",
                    r.script,
                    r.cases,
                    r.crash_points,
                    r.violations.len()
                );
                for v in r.violations.iter().take(3) {
                    println!(
                        "       {} (crash after step {}, choice {:?})",
                        v.message, v.crash_after, v.choice
                    );
                }
            }
            for m in &mutations {
                let verdict = match (m.caught, m.replayed) {
                    (true, true) => "caught, replayed".to_string(),
                    (true, false) => "caught, REPLAY FAILED".to_string(),
                    _ => "ESCAPED".to_string(),
                };
                println!(
                    "  mutation {:<18} {:>7} schedules: {verdict}",
                    m.variant.name(),
                    m.schedules
                );
                if let Some(v) = &m.counterexample {
                    println!("       counterexample schedule {:?}: {}", v.schedule, v.message);
                }
            }
            for m in &fs_mutations {
                let verdict = match (m.caught, m.replayed) {
                    (true, true) => "caught, replayed".to_string(),
                    (true, false) => "caught, REPLAY FAILED".to_string(),
                    _ => "ESCAPED".to_string(),
                };
                println!(
                    "  mutation {:<18} {:>7} crash images: {verdict}",
                    m.variant.name(),
                    m.cases
                );
                if let Some(v) = &m.counterexample {
                    println!(
                        "       counterexample {} crash after step {} choice {:?}: {}",
                        v.script, v.crash_after, v.choice, v.message
                    );
                }
            }
            println!(
                "  {total} schedules + {fs_cases} crash images total (minimum {}), \
                 {total_violations} violations, {} mutation(s) seeded",
                o.min_schedules,
                mutations.len() + fs_mutations.len()
            );
        }
        if total < o.min_schedules {
            eprintln!("model-check-shard: only {total} schedules explored (< {})", o.min_schedules);
        }
        ok &= clean;
    }

    if o.pass("--crosscheck") {
        let grid = warp_grid_disagreements(o.warp);
        let cells = crosscheck_fig4(o.doublings);
        match (grid, cells) {
            (Ok(diffs), Ok(cells)) => {
                let cell_failures: usize = cells.iter().map(|c| c.failures.len()).sum();
                if o.json {
                    let items: Vec<String> = cells
                        .iter()
                        .map(|c| {
                            format!(
                                "{{\"label\":{},\"n\":{},\"rounds\":{},\"predicted_cycles\":{},\
                                 \"holds\":{}}}",
                                quote(&c.label),
                                c.n,
                                c.rounds,
                                c.predicted_cycles,
                                c.holds()
                            )
                        })
                        .collect();
                    json_sections.push(format!(
                        "\"crosscheck\":{{\"grid_disagreements\":{},\"cells\":[{}]}}",
                        diffs.len(),
                        items.join(",")
                    ));
                } else {
                    println!("== crosscheck (symbolic vs AnalyticBackend) ==");
                    println!("  per-warp grid: {} disagreements", diffs.len());
                    for d in &diffs {
                        println!("       {d}");
                    }
                    for c in &cells {
                        println!(
                            "  {:<12} n={:<6} rounds={} merge-cycles/round {:?} \
                             (predicted {}) β₂ worst {:?} sorted {:?} {}",
                            c.label,
                            c.n,
                            c.rounds,
                            c.merge_cycles,
                            c.predicted_cycles,
                            c.beta2_worst,
                            c.beta2_sorted,
                            if c.holds() { "ok" } else { "FAIL" }
                        );
                        for f in &c.failures {
                            println!("       {f}");
                        }
                    }
                }
                ok &= diffs.is_empty() && cell_failures == 0;
            }
            (g, c) => {
                if let Err(e) = g {
                    eprintln!("crosscheck grid: {e}");
                }
                if let Err(e) = c {
                    eprintln!("crosscheck fig4: {e}");
                }
                ok = false;
            }
        }
    }

    if o.pass("--lint") {
        let root = PathBuf::from(o.args.value("--root").unwrap_or("."));
        let allowlist_path = o
            .args
            .value("--allowlist")
            .map_or_else(|| root.join("lint-allowlist.txt"), PathBuf::from);
        let allowlist = std::fs::read_to_string(&allowlist_path).unwrap_or_default();
        match lint_workspace(&root, &allowlist) {
            Ok(report) => {
                if o.json {
                    json_sections.push(format!("\"lint\":{}", report.to_json()));
                } else {
                    println!("== lint ({} files) ==", report.files_scanned);
                    for f in &report.findings {
                        if f.allowed {
                            println!(
                                "  allowed {:<12} {}:{}:{} {} — {}",
                                f.rule,
                                f.path,
                                f.line,
                                f.col,
                                f.snippet,
                                f.reason.as_deref().unwrap_or("")
                            );
                        } else {
                            println!(
                                "  DENIED  {:<12} {}:{}:{} {}",
                                f.rule, f.path, f.line, f.col, f.snippet
                            );
                        }
                    }
                    for s in &report.stale_allowlist {
                        println!("  STALE allowlist entry (fails the gate — delete it): {s}");
                    }
                    for m in &report.malformed_allowlist {
                        println!("  malformed allowlist entry: {m}");
                    }
                    println!(
                        "  {} findings ({} denied), {} stale entries",
                        report.findings.len(),
                        report.denied().count(),
                        report.stale_allowlist.len()
                    );
                }
                ok &= report.gate_ok();
            }
            Err(e) => {
                eprintln!("lint: {e}");
                ok = false;
            }
        }
    }

    if o.json {
        println!("{{{},\"ok\":{ok}}}", json_sections.join(","));
    } else {
        println!("{}", if ok { "analysis clean" } else { "analysis FAILED" });
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
