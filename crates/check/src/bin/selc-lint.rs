//! `selc-lint` — the workspace invariant linter.
//!
//! Usage: `selc-lint [workspace-root]` (default: the current directory).
//! Walks every `.rs` file outside `target/`, `vendor/`, and
//! test/bench/example trees, applies the rules in [`selc_check::lint`],
//! then reads every file under the retired-name roots (test and example
//! trees included) for retired names, prints one line per finding, and
//! exits non-zero if any fired.

use selc_check::lint::{lint_source, retired_names, Finding, RETIRED_ROOTS, SKIP_DIRS};
use std::path::{Path, PathBuf};

/// The files under `dir`, in a deterministic order: with `sources`, the
/// `.rs` files outside [`SKIP_DIRS`] and hidden directories; otherwise
/// every file.
fn collect_files(dir: &Path, sources: bool, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    // Deterministic walk order → deterministic report order.
    entries.sort_by_key(std::fs::DirEntry::file_name);
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if sources && (SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.')) {
                continue;
            }
            collect_files(&path, sources, out)?;
        } else if !sources || name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The files [`lint_source`] reads, then the files [`retired_names`] reads.
fn walk(root: &Path) -> std::io::Result<(Vec<PathBuf>, Vec<PathBuf>)> {
    let (mut sources, mut everything) = (Vec::new(), Vec::new());
    collect_files(root, true, &mut sources)?;
    for dir in RETIRED_ROOTS.iter().map(|d| root.join(d)).filter(|d| d.is_dir()) {
        collect_files(&dir, false, &mut everything)?;
    }
    Ok((sources, everything))
}

fn main() -> std::process::ExitCode {
    let root = std::env::args().nth(1).unwrap_or_else(|| ".".to_string());
    let root = PathBuf::from(root);
    let (sources, everything) = match walk(&root) {
        Ok(files) => files,
        Err(e) => {
            eprintln!("selc-lint: cannot walk {}: {e}", root.display());
            return std::process::ExitCode::from(2);
        }
    };
    let mut findings: Vec<Finding> = Vec::new();
    let (mut n_sources, mut n_everything) = (0usize, 0usize);
    for (files, lint, n) in [
        (&sources, lint_source as fn(&str, &str) -> Vec<Finding>, &mut n_sources),
        (&everything, retired_names, &mut n_everything),
    ] {
        for path in files {
            let Ok(text) = std::fs::read_to_string(path) else {
                continue; // non-UTF-8 or unreadable: not lintable text
            };
            let rel = path.strip_prefix(&root).unwrap_or(path);
            let label = rel.to_string_lossy().replace('\\', "/");
            findings.extend(lint(&label, &text));
            *n += 1;
        }
    }
    let checked = format!("{n_sources} source files and {n_everything} files for retired names");
    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        println!("selc-lint: {checked} clean");
        std::process::ExitCode::SUCCESS
    } else {
        println!("selc-lint: {} finding(s) across {checked}", findings.len());
        std::process::ExitCode::FAILURE
    }
}
