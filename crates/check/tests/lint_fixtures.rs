//! Fixture tests for the `selc-lint` rules: each rule fires on a
//! minimal offending source, stays quiet on the sanctioned shapes, and
//! honours waivers, test regions, and the allowlist.

use selc_check::lint::{lint_source, Rule};

fn rules_at(path: &str, src: &str) -> Vec<(usize, Rule)> {
    lint_source(path, src).into_iter().map(|f| (f.line, f.rule)).collect()
}

// ---------------------------------------------------------------- partial-cmp

#[test]
fn partial_cmp_fires_outside_the_allowlist() {
    let src = "fn f(a: f64, b: f64) { a.partial_cmp(&b); }\n";
    assert_eq!(rules_at("crates/core/src/loss.rs", src), vec![(1, Rule::PartialCmp)]);
}

#[test]
fn partial_cmp_is_allowed_in_the_dual_impl() {
    let src = "impl PartialOrd for Dual { fn partial_cmp(&self, o: &Dual) -> Option<Ordering> { self.re.partial_cmp(&o.re) } }\n";
    assert_eq!(rules_at("crates/autodiff/src/dual.rs", src), vec![]);
}

#[test]
fn float_sort_by_without_total_cmp_fires() {
    let src = "fn f(v: &mut Vec<f64>) {\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n";
    let found = rules_at("crates/core/src/rank.rs", src);
    assert!(found.contains(&(2, Rule::PartialCmp)), "found: {found:?}");
}

#[test]
fn sort_by_with_total_cmp_is_clean() {
    let src = "fn f(v: &mut Vec<f64>) {\n    v.sort_by(|a, b| a.total_cmp(b));\n}\n";
    assert_eq!(rules_at("crates/core/src/rank.rs", src), vec![]);
}

#[test]
fn partial_cmp_inside_strings_and_comments_is_ignored() {
    let src = "// partial_cmp is banned\nfn f() { let s = \"partial_cmp\"; let _ = s; }\n";
    assert_eq!(rules_at("crates/core/src/doc.rs", src), vec![]);
}

#[test]
fn partial_cmp_in_test_code_is_exempt() {
    let src = "#[cfg(test)]\nmod tests {\n    fn t(a: f64, b: f64) { a.partial_cmp(&b); }\n}\n";
    assert_eq!(rules_at("crates/core/src/loss.rs", src), vec![]);
}

// ------------------------------------------------------------ ordering-comment

#[test]
fn bare_orderings_fire_without_a_justification() {
    let src = "fn f(x: &AtomicU64) { x.load(Ordering::Relaxed); }\n";
    assert_eq!(rules_at("crates/engine/src/x.rs", src), vec![(1, Rule::OrderingComment)]);
}

#[test]
fn same_line_ordering_comments_justify() {
    let src =
        "fn f(x: &AtomicU64) { x.load(Ordering::Relaxed); } // ordering: Relaxed — a stats cell\n";
    assert_eq!(rules_at("crates/engine/src/x.rs", src), vec![]);
}

#[test]
fn ordering_comment_blocks_above_justify_a_multi_line_call() {
    let src = "fn f(x: &AtomicU64) {\n    // ordering: Relaxed — the cursor only partitions indices.\n    x.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| {\n        Some(c + 1)\n    });\n}\n";
    assert_eq!(rules_at("crates/engine/src/x.rs", src), vec![]);
}

#[test]
fn a_run_of_ordering_lines_reports_once() {
    let src = "fn f(x: &AtomicU64) {\n    x.store(1, Ordering::Release);\n    x.load(Ordering::Acquire);\n}\n";
    assert_eq!(rules_at("crates/engine/src/x.rs", src), vec![(2, Rule::OrderingComment)]);
}

#[test]
fn orderings_in_test_modules_are_exempt() {
    let src =
        "#[cfg(test)]\nmod tests {\n    fn t(x: &AtomicU64) { x.load(Ordering::SeqCst); }\n}\n";
    assert_eq!(rules_at("crates/engine/src/x.rs", src), vec![]);
}

#[test]
fn ordering_waivers_work() {
    let src = "fn f(x: &AtomicU64) {\n    // selc-lint: allow(ordering-comment)\n    x.load(Ordering::SeqCst);\n}\n";
    assert_eq!(rules_at("crates/engine/src/x.rs", src), vec![]);
}

// -------------------------------------------------------------- serve-no-panic

#[test]
fn unwrap_in_serve_non_test_code_fires() {
    let src = "fn f(m: &Mutex<u32>) { let g = m.lock().unwrap(); drop(g); }\n";
    assert_eq!(rules_at("crates/serve/src/server.rs", src), vec![(1, Rule::ServeNoPanic)]);
}

#[test]
fn expect_in_serve_non_test_code_fires() {
    let src = "fn f(v: Option<u32>) -> u32 { v.expect(\"present\") }\n";
    assert_eq!(rules_at("crates/serve/src/protocol.rs", src), vec![(1, Rule::ServeNoPanic)]);
}

#[test]
fn unwrap_outside_serve_is_not_this_rules_business() {
    let src = "fn f(v: Option<u32>) -> u32 { v.unwrap() }\n";
    assert_eq!(rules_at("crates/engine/src/x.rs", src), vec![]);
}

#[test]
fn unwrap_in_serve_test_code_is_exempt() {
    let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1u32).unwrap(); }\n}\n";
    assert_eq!(rules_at("crates/serve/src/server.rs", src), vec![]);
}

#[test]
fn serve_waivers_work() {
    let src = "fn f(v: Option<u32>) -> u32 { v.unwrap() } // selc-lint: allow(serve-no-panic)\n";
    assert_eq!(rules_at("crates/serve/src/server.rs", src), vec![]);
}

#[test]
fn unwrap_or_else_and_unwrap_or_default_are_not_unwrap() {
    let src = "fn f(v: Option<u32>) -> u32 { v.unwrap_or_else(|| 0).max(v.unwrap_or_default()) }\n";
    assert_eq!(rules_at("crates/serve/src/server.rs", src), vec![]);
}

// -------------------------------------------------------------------- display

#[test]
fn findings_render_as_path_line_rule_message() {
    let f = &lint_source("crates/serve/src/x.rs", "fn f(v: Option<u32>) { v.unwrap(); }\n")[0];
    let line = f.to_string();
    assert!(line.starts_with("crates/serve/src/x.rs:1: [serve-no-panic]"), "got {line}");
}
