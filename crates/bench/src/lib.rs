//! Shared plumbing for the reproduction benches.
//!
//! Every paper table and figure has one bench target (`harness = false`)
//! that regenerates it: the bench prints the measured rows next to the
//! values the paper reports, and drops a CSV under `bench_results/` at the
//! workspace root. Absolute numbers come from a simulator, not the
//! authors' testbed — the claim under reproduction is the *shape*: who
//! wins, by roughly what factor, where the crossovers fall.

use std::path::PathBuf;

use bolt::report::Table;

pub mod relaxed;

/// Directory where benches drop their CSVs (workspace-root relative).
pub fn results_dir() -> PathBuf {
    let root = std::env::var("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .map(|p| p.ancestors().nth(2).map(|a| a.to_path_buf()).unwrap_or(p))
        .unwrap_or_else(|_| PathBuf::from("."));
    root.join("bench_results")
}

/// Prints a bench header and the rendered table, writing no file: for
/// wall-clock tables, which differ on every run and so are never pinned
/// under `bench_results/`.
pub fn show(experiment: &str, paper_claim: &str, table: &Table) {
    println!("\n=== {experiment} ===");
    println!("paper: {paper_claim}\n");
    println!("{}", table.render());
}

/// Prints a bench header, the rendered table, and writes its CSV. Only
/// deterministic tables belong here: the golden gate diffs every CSV.
pub fn emit(experiment: &str, paper_claim: &str, table: &Table) {
    show(experiment, paper_claim, table);
    let path = results_dir().join(format!("{experiment}.csv"));
    match table.write_csv(&path) {
        Ok(()) => println!("csv: {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Scale knob: `BOLT_BENCH_SCALE=full` runs paper-scale experiments;
/// anything else (default) runs a reduced configuration that finishes in
/// minutes while preserving the shapes.
pub fn full_scale() -> bool {
    std::env::var("BOLT_BENCH_SCALE")
        .map(|v| v == "full")
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_is_workspace_level() {
        let d = results_dir();
        assert!(d.ends_with("bench_results"));
    }

    #[test]
    fn scale_defaults_to_reduced() {
        // The env var is unset in tests.
        if std::env::var("BOLT_BENCH_SCALE").is_err() {
            assert!(!full_scale());
        }
    }
}
