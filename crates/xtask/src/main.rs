//! `cargo xtask` — workspace automation entry point.
//!
//! ```text
//! cargo xtask lint                    # report; fail on non-baselined debt
//! cargo xtask lint --deny-all         # CI mode: also fail on stale baseline
//! cargo xtask lint --fix-allowlist    # rewrite xtask/lint-baseline.toml
//! cargo xtask lint --json <path|->    # write the JSON report to a file/stdout
//! cargo xtask lint --format json      # pure JSON on stdout, human notes on stderr
//! cargo xtask lint --format sarif     # SARIF 2.1.0 on stdout, human notes on stderr
//! cargo xtask lint --sarif <path>     # write the SARIF document to a file
//! cargo xtask lint --diff-base <p>    # fail only on diagnostics absent from a prior report
//! cargo xtask lint --check-report <p> # schema-validate a JSON or SARIF report
//! cargo xtask lint --max <lint>=<N>   # fail when a class's total exceeds N
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use xtask::baseline::{self, Baseline, BASELINE_PATH};
use xtask::lints::{self, LintId};
use xtask::report;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint_command(&args[1..]),
        Some(other) => {
            eprintln!("unknown xtask command `{other}`\n{USAGE}");
            ExitCode::from(2)
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage: cargo xtask lint [--deny-all] [--fix-allowlist] [--json <path|->] \
[--format json|sarif] [--sarif <path>] [--diff-base <report.json>] [--check-report <path>] \
[--max <lint>=<N>]";

fn lint_command(args: &[String]) -> ExitCode {
    let mut deny_all = false;
    let mut fix_allowlist = false;
    let mut json_target: Option<String> = None;
    let mut format_json = false;
    let mut format_sarif = false;
    let mut sarif_target: Option<PathBuf> = None;
    let mut diff_base: Option<PathBuf> = None;
    let mut check_report: Option<PathBuf> = None;
    let mut max_caps: Vec<(LintId, usize)> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--deny-all" => deny_all = true,
            "--fix-allowlist" => fix_allowlist = true,
            "--json" => match it.next() {
                Some(target) => json_target = Some(target.clone()),
                None => {
                    eprintln!("--json needs a path (or `-` for stdout)\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--format" => match it.next().map(String::as_str) {
                Some("json") => format_json = true,
                Some("sarif") => format_sarif = true,
                _ => {
                    eprintln!("--format supports `json` or `sarif`\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--sarif" => match it.next() {
                Some(path) => sarif_target = Some(PathBuf::from(path)),
                None => {
                    eprintln!("--sarif needs a path\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--diff-base" => match it.next() {
                Some(path) => diff_base = Some(PathBuf::from(path)),
                None => {
                    eprintln!("--diff-base needs the path of a prior JSON report\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--check-report" => match it.next() {
                Some(path) => check_report = Some(PathBuf::from(path)),
                None => {
                    eprintln!("--check-report needs a path\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--max" => match it.next().and_then(|spec| parse_max(spec)) {
                Some(cap) => max_caps.push(cap),
                None => {
                    eprintln!("--max needs `<lint>=<N>` (e.g. --max panic-freedom=8)\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown lint flag `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    if let Some(path) = check_report {
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("error: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        // Auto-detect the dialect: a SARIF document has a `runs` array at
        // the root, the native report does not.
        let is_sarif = xtask::json::parse(&text)
            .ok()
            .and_then(|doc| doc.as_object().map(|o| o.get("runs").is_some()))
            .unwrap_or(false);
        let (problems, dialect) = if is_sarif {
            (xtask::sarif::validate(&text), "SARIF 2.1.0".to_string())
        } else {
            (
                report::validate(&text),
                format!("{} report", report::REPORT_SCHEMA),
            )
        };
        if problems.is_empty() {
            println!("{}: schema-valid {dialect}", path.display());
            return ExitCode::SUCCESS;
        }
        for p in &problems {
            eprintln!("error: {}: {p}", path.display());
        }
        return ExitCode::FAILURE;
    }

    // With a machine format on stdout requested, human output moves to
    // stderr so the document stays parseable.
    let human_to_stderr = format_json || format_sarif || json_target.as_deref() == Some("-");
    macro_rules! human {
        ($($t:tt)*) => {
            if human_to_stderr {
                eprintln!($($t)*);
            } else {
                println!($($t)*);
            }
        };
    }

    let root = workspace_root();
    let scan = match xtask::scan_tree(&root) {
        Ok(scan) => scan,
        Err(e) => {
            eprintln!("error: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    let base = match Baseline::load(&root) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    if fix_allowlist {
        let mut new_baseline = Baseline::from_violations(&scan.violations);
        match &scan.index.checkpoint {
            Some(schema) => new_baseline.set_checkpoint_schema(schema.fingerprint, schema.version),
            None => eprintln!(
                "warning: no CHECKPOINT_VERSION found; the checkpoint schema pin was not recorded"
            ),
        }
        if let Err(e) = new_baseline.store(&root) {
            eprintln!("error: cannot write {BASELINE_PATH}: {e}");
            return ExitCode::from(2);
        }
        println!(
            "wrote {BASELINE_PATH}: {} budgeted violation(s) across {} file(s) scanned",
            new_baseline.total(),
            scan.files_scanned
        );
        // Zero-tolerance classes can be allow()ed at a documented call site
        // but never budgeted away; surface anything that must still be fixed.
        let unfixable: Vec<_> = scan
            .violations
            .iter()
            .filter(|v| !v.lint.baselineable())
            .collect();
        if !unfixable.is_empty() {
            eprintln!(
                "error: {} violation(s) in non-baselineable classes — fix them:",
                unfixable.len()
            );
            for v in &unfixable {
                eprintln!("  {v}");
            }
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    // Workspace-level check: the checkpoint codec fingerprint against the
    // pin recorded in the baseline.
    let mut all_violations = scan.violations.clone();
    all_violations.extend(lints::checkpoint_drift(
        &scan.index,
        base.checkpoint_schema(),
    ));
    let check = baseline::check(&all_violations, &base);

    // Zero-tolerance classes must never be budgeted in a (hand-edited)
    // baseline file.
    let forbidden_in_baseline: Vec<LintId> = LintId::ALL
        .iter()
        .copied()
        .filter(|l| !l.baselineable() && base.has_lint(*l))
        .collect();
    let stale_fatal = deny_all && !check.stale.is_empty();

    // Total-budget ratchet: `--max <lint>=<N>` fails the run when the
    // observed total for that class (baselined or not) exceeds N, so a
    // regression cannot hide behind a refreshed per-file baseline.
    let mut cap_breaches = Vec::new();
    for (id, cap) in &max_caps {
        let observed = all_violations.iter().filter(|v| v.lint == *id).count();
        if observed > *cap {
            cap_breaches.push((*id, *cap, observed));
        }
    }

    // Differential mode: diagnostics recorded in the base report no longer
    // gate the run — only genuinely new ones do. The emitted JSON/SARIF
    // documents are unchanged (they describe the full tree, not the diff),
    // so a passing differential run still archives the complete picture.
    let (fresh, absorbed) = match &diff_base {
        None => (check.new_violations.clone(), Vec::new()),
        Some(path) => {
            let base_text = match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(e) => {
                    eprintln!("error: cannot read --diff-base {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            };
            match report::diff_new(&check.new_violations, &base_text) {
                Ok(split) => split,
                Err(problems) => {
                    for p in &problems {
                        eprintln!("error: --diff-base {}: {p}", path.display());
                    }
                    return ExitCode::from(2);
                }
            }
        }
    };

    let pass = fresh.is_empty()
        && !stale_fatal
        && forbidden_in_baseline.is_empty()
        && cap_breaches.is_empty();

    let json = report::to_json(scan.files_scanned, pass, &check);
    // Self-check: never emit a report the schema gate would reject.
    let report_problems = report::validate(&json);
    if !report_problems.is_empty() {
        for p in &report_problems {
            eprintln!("error: composed report fails its own schema: {p}");
        }
        return ExitCode::from(2);
    }
    if format_json || json_target.as_deref() == Some("-") {
        // write! instead of print! so a closed pipe (`... --format json | head`)
        // is a silent truncation, not a panic.
        let _ = std::io::stdout().write_all(json.as_bytes());
    }
    if let Some(target) = json_target.as_deref().filter(|t| *t != "-") {
        if let Err(e) = std::fs::write(target, &json) {
            eprintln!("error: cannot write JSON report to {target}: {e}");
            return ExitCode::from(2);
        }
    }

    if format_sarif || sarif_target.is_some() {
        let sarif = xtask::sarif::to_sarif(&check);
        // Self-check, same policy as the native report: never emit a
        // document the schema gate would reject.
        let sarif_problems = xtask::sarif::validate(&sarif);
        if !sarif_problems.is_empty() {
            for p in &sarif_problems {
                eprintln!("error: composed SARIF fails its own schema: {p}");
            }
            return ExitCode::from(2);
        }
        if format_sarif {
            let _ = std::io::stdout().write_all(sarif.as_bytes());
        }
        if let Some(target) = &sarif_target {
            if let Err(e) = std::fs::write(target, &sarif) {
                eprintln!("error: cannot write SARIF to {}: {e}", target.display());
                return ExitCode::from(2);
            }
        }
    }

    for v in &check.budgeted {
        human!("note(baselined): {v}");
    }
    for v in &absorbed {
        human!("note(diff-base): {v}");
    }
    for v in &fresh {
        human!("error: {v}");
    }
    for (id, file, budget, observed) in &check.stale {
        let level = if deny_all { "error" } else { "warning" };
        human!(
            "{level}: stale baseline: [{id}] {} budgets {budget} but only {observed} observed — \
             run `cargo xtask lint --fix-allowlist` to ratchet down",
            file.display()
        );
    }
    for id in &forbidden_in_baseline {
        human!(
            "error: {BASELINE_PATH} contains {id} entries; that class must be fixed, \
             not budgeted"
        );
    }
    for (id, cap, observed) in &cap_breaches {
        human!(
            "error: [{id}] total budget exceeded: {observed} observed > cap {cap} \
             (--max {}={cap})",
            id.as_str()
        );
    }

    human!(
        "lint: {} file(s), {} new violation(s), {} baselined, {} stale budget(s){}{}",
        scan.files_scanned,
        fresh.len(),
        check.budgeted.len(),
        check.stale.len(),
        if diff_base.is_some() {
            format!(" [diff-base: {} absorbed]", absorbed.len())
        } else {
            String::new()
        },
        if deny_all { " [deny-all]" } else { "" }
    );

    if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Parses a `--max` spec of the form `<lint>=<N>`.
fn parse_max(spec: &str) -> Option<(LintId, usize)> {
    let (name, count) = spec.split_once('=')?;
    let id = *LintId::ALL.iter().find(|id| id.as_str() == name)?;
    Some((id, count.parse().ok()?))
}

/// The workspace root: two levels above this crate's manifest directory.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask lives at <root>/crates/xtask")
        .to_path_buf()
}
