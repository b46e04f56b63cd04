//! `selc-bench-record`: runs the bench suite and snapshots its medians
//! and stats lines.
//!
//! Invokes `cargo bench -p selc-bench` (optionally a single `--bench`
//! target) and writes `BENCH_<n>.json` at the repo root — `<n>`
//! auto-increments past the largest existing snapshot, so the perf
//! trajectory accumulates one file per recording:
//!
//! ```sh
//! cargo run -p selc-bench --bin selc-bench-record --release
//! cargo run -p selc-bench --bin selc-bench-record --release -- --bench e12_parallel
//! ```
//!
//! It reads two shapes of line from the bench output:
//!
//! * the harness's `<label> median 123.4 ns/iter (…)` lines, recorded as
//!   `"benches": {"<label>": <median ns/iter>}`;
//! * stats lines, `<label> <section> k=v …` as `selc_bench::stats_line`
//!   prints them, each recorded as `"<section>": {"<label>": {"<k>": v,
//!   …}}` — any section word, sections and labels sorted, keys in printed
//!   order, integral values without a fraction. A stats line whose value
//!   is not a finite number is skipped with a warning on stderr, as JSON
//!   cannot hold it; that is the only line the recorder warns about.
//!
//! JSON schema 7: `{"schema": 7, "recorded_at_unix": <secs>,
//! "selc_threads": <resolved worker count>, "host_parallelism": <what
//! the OS reports>, "benches": {…}, "<section>": {…}, …}`. Every section
//! schemas 2–6 recorded keeps its layout. The two parallelism fields
//! record the recording *host*: `host_parallelism` is what the OS could
//! actually run concurrently, and `selc_threads` is the `SELC_THREADS`
//! knob resolved exactly as the engine resolves it (it governs
//! `::auto()`-sized pools; bench families that pin an explicit pool —
//! e12–e16 mostly pin 4 workers — say so in their labels). A "4-worker"
//! row next to `host_parallelism: 1` measured thread *interleaving*, not
//! scaling.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Prints a usage-style error and exits non-zero (no panic backtraces
/// for operator mistakes).
fn fail(msg: &str) -> ! {
    eprintln!("selc-bench-record: {msg}");
    std::process::exit(2);
}

fn repo_root() -> PathBuf {
    // crates/bench/ → repo root is two levels up.
    let base = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    base.canonicalize().unwrap_or_else(|e| {
        fail(&format!(
            "cannot resolve the repo root from {} ({e}); run from a checkout of the workspace",
            base.display()
        ))
    })
}

/// Parses one harness output line of the form
/// `label median 123.4 ns/iter (min …, max …, N iters x M samples)`.
fn parse_line(line: &str) -> Option<(String, f64)> {
    let (label, rest) = line.split_once(" median ")?;
    let median = rest.split_whitespace().next()?.parse::<f64>().ok()?;
    rest.contains("ns/iter").then(|| (label.trim().to_string(), median))
}

/// One stats line's `k=v` pairs, in printed order.
type Pairs<'a> = Vec<(&'a str, f64)>;

/// `section → label → pairs`; the maps keep sections and labels sorted.
type Sections<'a> = BTreeMap<&'a str, BTreeMap<String, Pairs<'a>>>;

/// Parses one stats line, `<label…> <section> k=v [k=v …]`. Bench labels
/// never contain `=`, so the first `k=v` token marks where the pairs
/// start and the token before it is the section. Any other line —
/// median lines, prose, `using seed=42` — gives `None`; a stats line
/// with a value that is not a finite number gives a warning.
fn parse_stat_line(line: &str) -> Option<Result<(String, &str, Pairs<'_>), String>> {
    fn pair(token: &str) -> Option<(&str, &str)> {
        token.split_once('=').filter(|(k, _)| !k.is_empty())
    }
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let first_kv = tokens.iter().position(|t| pair(t).is_some())?;
    // Need a label (≥1 token), a section token, and all pairs after it.
    if first_kv < 2 || !tokens[first_kv..].iter().all(|t| pair(t).is_some()) {
        return None;
    }
    let mut pairs = Vec::new();
    for (k, v) in tokens[first_kv..].iter().copied().filter_map(pair) {
        let Some(x) = v.parse::<f64>().ok().filter(|x| x.is_finite()) else {
            return Some(Err(format!("{k}={v} is not a finite number — not recorded: {line}")));
        };
        pairs.push((k, x));
    }
    Some(Ok((tokens[..first_kv - 1].join(" "), tokens[first_kv - 1], pairs)))
}

/// Gathers every stats line of the bench output, plus a warning per
/// stats line that could not be recorded.
fn collect_stats(stdout: &str) -> (Sections<'_>, Vec<String>) {
    let mut sections = Sections::new();
    let mut warnings = Vec::new();
    for parsed in stdout.lines().filter_map(parse_stat_line) {
        match parsed {
            Ok((label, section, pairs)) => {
                sections.entry(section).or_default().insert(label, pairs);
            }
            Err(warning) => warnings.push(warning),
        }
    }
    (sections, warnings)
}

/// Appends one `"<section>": {"<label>": {"<k>": v, …}}` member per
/// section. `f64`'s `Display` writes integral values without a fraction
/// and never in exponent form, so each value is a JSON number.
fn write_sections(json: &mut String, sections: &Sections<'_>) {
    for (section, rows) in sections {
        let rows: Vec<String> = rows
            .iter()
            .map(|(label, pairs)| {
                let pairs: Vec<String> =
                    pairs.iter().map(|(k, v)| format!("\"{}\": {v}", json_escape(k))).collect();
                format!("    \"{}\": {{{}}}", json_escape(label), pairs.join(", "))
            })
            .collect();
        json.push_str(&format!(
            ",\n  \"{}\": {{\n{}\n  }}",
            json_escape(section),
            rows.join(",\n")
        ));
    }
}

fn next_snapshot_number(root: &Path) -> u64 {
    let mut max_n = 0_u64;
    if let Ok(entries) = std::fs::read_dir(root) {
        for e in entries.flatten() {
            let name = e.file_name();
            let name = name.to_string_lossy();
            if let Some(n) = name.strip_prefix("BENCH_").and_then(|s| s.strip_suffix(".json")) {
                if let Ok(n) = n.parse::<u64>() {
                    max_n = max_n.max(n);
                }
            }
        }
    }
    max_n
}

/// Writes the snapshot to the next free `BENCH_<n>.json`, creating the
/// file with `create_new` so a concurrently-written snapshot (another
/// recorder racing past the directory scan) is never clobbered — on
/// collision the number advances and the write retries.
fn write_snapshot(root: &Path, json: &str) -> PathBuf {
    let mut n = next_snapshot_number(root) + 1;
    loop {
        let path = root.join(format!("BENCH_{n}.json"));
        match std::fs::File::create_new(&path) {
            Ok(mut f) => {
                f.write_all(json.as_bytes())
                    .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", path.display())));
                return path;
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => n += 1,
            Err(e) => fail(&format!("cannot create {}: {e}", path.display())),
        }
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let root = repo_root();

    let mut cmd = Command::new(cargo);
    cmd.current_dir(&root).args(["bench", "-p", "selc-bench"]);
    let mut rest = args.iter();
    while let Some(a) = rest.next() {
        if a == "--bench" {
            let Some(target) = rest.next() else {
                fail("--bench needs a target name; usage: selc-bench-record [--bench <target>]");
            };
            cmd.args(["--bench", target]);
        } else {
            fail(&format!("unknown argument {a:?}; usage: selc-bench-record [--bench <target>]"));
        }
    }
    eprintln!("running {cmd:?} …");
    let out = cmd.output().unwrap_or_else(|e| fail(&format!("cannot run cargo bench ({e})")));
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        fail(&format!("cargo bench failed:\n{}\n{}", stdout, String::from_utf8_lossy(&out.stderr)));
    }

    let benches: BTreeMap<String, f64> = stdout.lines().filter_map(parse_line).collect();
    if benches.is_empty() {
        fail(&format!("no bench medians found in output:\n{stdout}"));
    }
    let (sections, warnings) = collect_stats(&stdout);
    for warning in warnings {
        eprintln!("selc-bench-record: warning: {warning}");
    }

    let recorded_at = std::time::SystemTime::UNIX_EPOCH.elapsed().map(|d| d.as_secs()).unwrap_or(0);
    // The engine's own worker-count resolution (`SELC_THREADS`, else the
    // hardware), without linking the engine into the recorder.
    let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let threads = selc::env::env_usize("SELC_THREADS").unwrap_or(host);
    let mut json = String::from("{\n  \"schema\": 7,\n");
    json.push_str(&format!("  \"recorded_at_unix\": {recorded_at},\n"));
    json.push_str(&format!("  \"selc_threads\": {threads},\n"));
    json.push_str(&format!("  \"host_parallelism\": {host},\n  \"benches\": {{\n"));
    let body: Vec<String> = benches
        .iter()
        .map(|(label, median)| format!("    \"{}\": {median:.1}", json_escape(label)))
        .collect();
    json.push_str(&body.join(",\n"));
    json.push_str("\n  }");
    write_sections(&mut json, &sections);
    json.push_str("\n}\n");

    let path = write_snapshot(&root, &json);
    println!("recorded {} benches to {}", benches.len(), path.display());
}

#[cfg(test)]
mod tests {
    use super::*;
    use selc_bench::stats_line;

    const CACHE_LINE: &str = "e13_cache/warm cache hits=10 misses=2 insertions=2 evictions=0";
    const SUMMARY_LINE: &str = "e16_summaries/probing18/tree_cached_warm summary \
         exact_hits=4 bound_hits=0 misses=1 exact_installs=0 bound_installs=0";
    const SERVE_LINE: &str = "e17_serve/clients4/warm serve \
         searches_per_sec=1423.5 requests=256 elapsed_ms=179.8 p50_us=680 p99_us=2410";
    const METRICS_LINE: &str = "e17_serve/clients4/warm metrics p50_us=42 p90_us=90 p99_us=130";

    /// The snapshot members `stdout`'s stats lines become, and the
    /// warnings they raise.
    fn record(stdout: &str) -> (String, Vec<String>) {
        let (sections, warnings) = collect_stats(stdout);
        let mut json = String::new();
        write_sections(&mut json, &sections);
        (json, warnings)
    }

    #[test]
    fn serve_lines_parse_into_the_five_metrics() {
        let (label, section, pairs) = parse_stat_line(SERVE_LINE).expect("stat line").unwrap();
        assert_eq!((label.as_str(), section), ("e17_serve/clients4/warm", "serve"));
        let expected = [
            ("searches_per_sec", 1423.5),
            ("requests", 256.0),
            ("elapsed_ms", 179.8),
            ("p50_us", 680.0),
            ("p99_us", 2410.0),
        ];
        assert_eq!(pairs, expected);
        let (_, section, _) = parse_stat_line(CACHE_LINE).expect("stat line").unwrap();
        assert_eq!(section, "cache", "the section is the word before the pairs");
    }

    #[test]
    fn metrics_lines_parse_into_the_three_percentiles() {
        let (json, warnings) = record(METRICS_LINE);
        assert_eq!(warnings, Vec::<String>::new());
        let row = r#""e17_serve/clients4/warm": {"p50_us": 42, "p90_us": 90, "p99_us": 130}"#;
        assert!(json.contains(row), "{json}");
        // The regression: a renamed percentile key must not vanish from
        // snapshots — it is recorded under its new name.
        let drifted = "e17_serve/clients4/warm metrics p50_us=42 p95_us=90 p99_us=130\n";
        let (json, warnings) = record(drifted);
        assert_eq!(warnings, Vec::<String>::new());
        assert!(json.contains(r#""p95_us": 90"#), "{json}");
    }

    #[test]
    fn known_stat_lines_produce_no_warnings() {
        let stdout =
            format!("{CACHE_LINE}\n{SUMMARY_LINE}\n{SERVE_LINE}\n{METRICS_LINE}\nsome prose\n");
        let (json, warnings) = record(&stdout);
        assert_eq!(warnings, Vec::<String>::new());
        // The four sections schemas 2–6 wrote keep their layout.
        let expected = r#",
  "cache": {
    "e13_cache/warm": {"hits": 10, "misses": 2, "insertions": 2, "evictions": 0}
  },
  "metrics": {
    "e17_serve/clients4/warm": {"p50_us": 42, "p90_us": 90, "p99_us": 130}
  },
  "serve": {
    "e17_serve/clients4/warm": {"searches_per_sec": 1423.5, "requests": 256, "elapsed_ms": 179.8, "p50_us": 680, "p99_us": 2410}
  },
  "summary": {
    "e16_summaries/probing18/tree_cached_warm": {"exact_hits": 4, "bound_hits": 0, "misses": 1, "exact_installs": 0, "bound_installs": 0}
  }"#;
        assert_eq!(json, expected);
        // The shared printer writes exactly the shape read here.
        let pairs = [("hits", 10), ("misses", 2), ("insertions", 2), ("evictions", 0)];
        assert_eq!(stats_line("e13_cache/warm", "cache", &pairs), CACHE_LINE);
    }

    #[test]
    fn new_stat_sections_are_recorded_not_dropped() {
        // The regression: a bench printing a new section (here `memo`)
        // used to vanish from snapshots.
        let (json, warnings) = record("e18_future/foo memo probes=9 hits=3\n");
        assert_eq!(warnings, Vec::<String>::new());
        assert_eq!(
            json,
            ",\n  \"memo\": {\n    \"e18_future/foo\": {\"probes\": 9, \"hits\": 3}\n  }"
        );
    }

    #[test]
    fn renamed_keys_in_a_known_section_are_recorded_under_their_new_name() {
        let (json, warnings) =
            record("e13_cache/warm cache hitz=10 misses=2 insertions=2 evictions=0\n");
        assert_eq!(warnings, Vec::<String>::new());
        assert!(json.contains(r#"{"hitz": 10, "misses": 2"#), "{json}");
    }

    #[test]
    fn non_stat_lines_are_not_mistaken_for_stat_lines() {
        // Median lines, prose, and `k=v`-less chatter are neither
        // recorded nor warned about.
        let stdout = "e16_summaries/probing18/tree_cached_warm median 1816.0 ns/iter (min 1716.0, max 1916.0, 2 iters x 2 samples)\n\
             running 5 tests\nusing seed=42\n";
        for line in stdout.lines() {
            assert!(parse_stat_line(line).is_none(), "{line}");
        }
        assert_eq!(record(stdout), (String::new(), Vec::new()));
    }

    #[test]
    fn the_e15_search_line_is_recorded() {
        let line = "e15_tree/probing10/tree_cached_cold search evaluated=4 pruned=26";
        let (json, warnings) = record(line);
        assert_eq!(warnings, Vec::<String>::new());
        let expected = r#",
  "search": {
    "e15_tree/probing10/tree_cached_cold": {"evaluated": 4, "pruned": 26}
  }"#;
        assert_eq!(json, expected);
    }

    #[test]
    fn non_finite_and_non_numeric_values_are_skipped_with_a_warning() {
        // `f64::from_str` accepts all of these but `NaN` and `x`, and
        // none of them is a JSON number.
        for bad in ["NaN", "nan", "inf", "-inf", "infinity", "x"] {
            let line = format!("e16/x search evaluated={bad} pruned=3");
            let (json, warnings) = record(&line);
            assert_eq!(json, "", "{bad} must not reach the snapshot");
            assert_eq!(warnings.len(), 1, "{bad}: {warnings:?}");
            assert!(warnings[0].contains("not a finite number"), "{warnings:?}");
        }
        // Beside a skipped line, finite values still record, integral
        // ones without a fraction.
        let (json, warnings) = record("a/b s n=3 r=0.5 z=-0.0\na/c s n=inf\n");
        assert_eq!(warnings.len(), 1);
        assert!(json.contains(r#""a/b": {"n": 3, "r": 0.5, "z": -0}"#), "{json}");
        assert!(!json.contains("a/c"), "{json}");
    }
}
