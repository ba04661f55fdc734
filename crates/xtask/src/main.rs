//! `cargo xtask` — workspace automation entry point.
//!
//! ```text
//! cargo xtask lint    # print every diagnostic; fail on any
//! ```
//!
//! Exit codes: 0 no diagnostics, 1 at least one diagnostic, 2 usage or
//! I/O error.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

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

const USAGE: &str = "usage: cargo xtask lint";

fn lint_command(args: &[String]) -> ExitCode {
    if let Some(flag) = args.first() {
        eprintln!("unknown lint flag `{flag}`\n{USAGE}");
        return ExitCode::from(2);
    }

    let scan = match xtask::scan_tree(&workspace_root()) {
        Ok(scan) => scan,
        Err(e) => {
            eprintln!("error: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    for v in &scan.violations {
        println!("error: {v}");
    }
    println!(
        "lint: {} file(s), {} diagnostic(s)",
        scan.files_scanned,
        scan.violations.len()
    );

    if scan.violations.is_empty() {
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
