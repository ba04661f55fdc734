//! `cargo xtask` — workspace automation entry point.
//!
//! ```text
//! cargo xtask lint                    # print every diagnostic; fail on any
//! cargo xtask lint --fix-allowlist    # re-record the checkpoint schema pin, then lint
//! ```
//!
//! Exit codes: 0 no diagnostics, 1 at least one diagnostic, 2 usage or
//! I/O error.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use xtask::baseline::{Baseline, BASELINE_PATH};
use xtask::lints;

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

const USAGE: &str = "usage: cargo xtask lint [--fix-allowlist]";

fn lint_command(args: &[String]) -> ExitCode {
    let mut fix_allowlist = false;
    for arg in args {
        match arg.as_str() {
            "--fix-allowlist" => fix_allowlist = true,
            other => {
                eprintln!("unknown lint flag `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let root = workspace_root();
    let scan = match xtask::scan_tree(&root) {
        Ok(scan) => scan,
        Err(e) => {
            eprintln!("error: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    let mut pin = match Baseline::load(&root) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    if fix_allowlist {
        match &scan.index.checkpoint {
            Some(schema) => pin.set_checkpoint_schema(schema.fingerprint, schema.version),
            None => eprintln!(
                "warning: no CHECKPOINT_VERSION found; the checkpoint schema pin was not recorded"
            ),
        }
        if let Err(e) = pin.store(&root) {
            eprintln!("error: cannot write {BASELINE_PATH}: {e}");
            return ExitCode::from(2);
        }
        println!("wrote {BASELINE_PATH}");
    }

    let mut violations = scan.violations;
    violations.extend(lints::checkpoint_drift(
        &scan.index,
        pin.checkpoint_schema(),
    ));
    for v in &violations {
        println!("error: {v}");
    }
    println!(
        "lint: {} file(s), {} diagnostic(s)",
        scan.files_scanned,
        violations.len()
    );

    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The workspace root: two levels above this crate's manifest directory.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask lives at <root>/crates/xtask")
        .to_path_buf()
}
