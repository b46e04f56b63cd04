//! Fixture tests for the `selc-lint` rules: each rule fires on a
//! minimal offending source, stays quiet on the sanctioned shapes, and
//! honours waivers, test regions, and the allowlist.

use selc_check::lint::{lint_source, retired_names, Rule};

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

// ---------------------------------------------------------------- engine-spawn

#[test]
fn thread_spawns_in_engine_code_fire() {
    let src = "fn f() {\n    std::thread::scope(|s| { s.spawn(|| ()); });\n    std::thread::spawn(|| ());\n}\n";
    assert_eq!(
        rules_at("crates/engine/src/engine.rs", src),
        vec![(2, Rule::EngineSpawn), (3, Rule::EngineSpawn)]
    );
}

#[test]
fn the_pool_may_spawn_threads() {
    let src = "fn grow() { std::thread::Builder::new().spawn(|| ()).ok(); }\n";
    assert_eq!(rules_at("crates/engine/src/pool.rs", src), vec![]);
    assert_eq!(rules_at("crates/engine/src/tree.rs", src), vec![(1, Rule::EngineSpawn)]);
}

#[test]
fn thread_spawns_in_engine_test_code_are_exempt() {
    let src = "#[cfg(test)]\nmod tests {\n    fn t() { std::thread::scope(|_| ()); }\n}\n";
    assert_eq!(rules_at("crates/engine/src/queue.rs", src), vec![]);
}

#[test]
fn thread_spawns_outside_the_engine_are_not_this_rules_business() {
    let src = "fn f() { std::thread::spawn(|| ()); }\n";
    assert_eq!(rules_at("crates/serve/src/server.rs", src), vec![]);
}

#[test]
fn engine_spawn_waivers_work() {
    let src =
        "fn f() {\n    // selc-lint: allow(engine-spawn)\n    std::thread::spawn(|| ());\n}\n";
    assert_eq!(rules_at("crates/engine/src/engine.rs", src), vec![]);
}

#[test]
fn thread_spawns_in_serve_code_outside_the_server_fire() {
    let src = "fn f() {\n    std::thread::spawn(|| ());\n}\n";
    assert_eq!(rules_at("crates/serve/src/workload.rs", src), vec![(2, Rule::EngineSpawn)]);
    assert_eq!(rules_at("crates/serve/src/jobs.rs", src), vec![(2, Rule::EngineSpawn)]);
}

#[test]
fn the_server_may_spawn_its_accept_and_session_threads() {
    let src = "fn f() {\n    std::thread::Builder::new().spawn(|| ()).ok();\n}\n";
    assert_eq!(rules_at("crates/serve/src/server.rs", src), vec![]);
}

#[test]
fn thread_spawns_in_serve_test_code_are_exempt() {
    let src = "#[cfg(test)]\nmod tests {\n    fn t() { std::thread::spawn(|| ()); }\n}\n";
    assert_eq!(rules_at("crates/serve/src/tenants.rs", src), vec![]);
}

#[test]
fn serve_spawn_waivers_work() {
    let src =
        "fn f() {\n    // selc-lint: allow(engine-spawn)\n    std::thread::spawn(|| ());\n}\n";
    assert_eq!(rules_at("crates/serve/src/workload.rs", src), vec![]);
}

// -------------------------------------------------------------------- display

#[test]
fn findings_render_as_path_line_rule_message() {
    let f = &lint_source("crates/serve/src/x.rs", "fn f(v: Option<u32>) { v.unwrap(); }\n")[0];
    let line = f.to_string();
    assert!(line.starts_with("crates/serve/src/x.rs:1: [serve-no-panic]"), "got {line}");
}

// ---------------------------------------------------------------- retired-name

fn retired_at(path: &str, src: &str) -> Vec<usize> {
    let found = retired_names(path, src);
    assert!(found.iter().all(|f| f.rule == Rule::RetiredName));
    found.into_iter().map(|f| f.line).collect()
}

#[test]
fn the_engine_trait_stays_retired_under_the_engine_crate() {
    let src = "pub trait Engine {}\npub trait Engines {}\n// no trait Engine: a struct\n";
    assert_eq!(retired_at("crates/engine/src/engine.rs", src), vec![1, 3]);
    assert_eq!(retired_at("crates/games/src/lib.rs", src), Vec::<usize>::new());
}

#[test]
fn the_flat_evaluator_trait_stays_retired_everywhere() {
    let src = "impl CandidateEval for X {}\nlet e = FnEval(f);\nlet n = CandidateEvals;\n";
    for path in ["crates/ml/src/lib.rs", "src/lib.rs", "tests/cross_layer.rs", "examples/nash.rs"] {
        assert_eq!(retired_at(path, src), vec![1, 2], "{path}");
    }
    assert_eq!(retired_at("perfbench/src/main.rs", src), Vec::<usize>::new());
}

#[test]
fn a_second_engine_struct_stays_retired() {
    let src = "pub struct TreeEngine;\nstruct ParallelEngine { t: u32 }\nstruct TreeEngines;\n";
    let found = retired_names("crates/engine/src/tree.rs", src);
    let structs = found.iter().filter(|f| f.message.starts_with("`struct "));
    assert_eq!(structs.map(|f| f.line).collect::<Vec<_>>(), vec![1, 2]);
}

#[test]
fn old_engine_names_live_only_on_their_alias_lines() {
    let aliases = "pub type ParallelEngine = Engine;\npub type SequentialEngine = Engine;\npub type TreeEngine = Engine;\n";
    assert_eq!(retired_at("crates/engine/src/engine.rs", aliases), Vec::<usize>::new());
    let reexport = "pub use engine::{ParallelEngine, SequentialEngine, TreeEngine};\n";
    assert_eq!(retired_at("crates/engine/src/lib.rs", reexport), Vec::<usize>::new());
    // The exceptions are whole lines in their own files.
    assert_eq!(retired_at("crates/engine/src/tree.rs", aliases), vec![1, 2, 3]);
    assert_eq!(
        retired_at("crates/engine/src/lib.rs", "  pub type TreeEngine = Engine;\n"),
        vec![1]
    );
    let uses = "// a SequentialEngine\nlet e = TreeEngine::auto();\nlet s = TreeEngines;\n";
    assert_eq!(retired_at("tests/cross_layer.rs", uses), vec![1, 2]);
}

#[test]
fn the_replay_factory_names_stay_retired_as_whole_words() {
    let src = "use selc::ReplaySpace;\nfn search_programs() {}\nfn search_programs_typecheck() {}\nlet c = m.with_fuel(3);\n";
    assert_eq!(retired_at("crates/lambda-rt/src/search.rs", src), vec![1, 2, 4]);
    assert_eq!(retired_at("crates/core/src/lib.rs", "// tune_lr_parallel_cached\n"), vec![1]);
}

#[test]
fn the_subtree_fan_out_stays_retired() {
    let src = "use selc_engine::parallel_subtrees;\n// parallel_subtrees(2, 4, f)\nfn parallel_subtrees_of() {}\n";
    assert_eq!(retired_at("crates/games/src/parallel.rs", src), vec![1, 2]);
    assert_eq!(retired_at("crates/engine/tests/pool.rs", src), vec![1, 2]);
}

#[test]
fn the_showcase_parallel_copies_stay_retired() {
    let src = "pub struct SymTree;\nstruct TransKey(u8);\nlet c = TransCache::unbounded(4);\n\
               t.value_transposition(&c);\nsolve_root_split(&t, &e, &c);\n// queens_parallel(&e, 6)\n\
               fn par_product_root() {}\nuse selection::par;\nlet c = LcTransCache::unbounded(4);\n\
               use selection::product;\nfn queens_parallel_of() {}\n";
    for path in ["crates/games/src/parallel.rs", "examples/parallel_search.rs", "tests/a.rs"] {
        assert_eq!(retired_at(path, src), (1..=8).collect::<Vec<_>>(), "{path}");
    }
    let lc = "use lambda_rt::LcTransCache;\nlet c: LcTransCache = LcTransCache::from_env();\n";
    assert_eq!(retired_at("crates/serve/src/tenants.rs", lc), Vec::<usize>::new());
}

#[test]
fn the_batched_tune_lr_stays_retired() {
    let src = concat!(
        "use selc_ml::parallel::tune_lr_parallel;\n",
        "// tune_batch_handler(batch, None, stats)\n",
        "let h = tune_lr(grid);\n",
        "let out = tune_training_run(&e, grid, &d, (0.0, 0.0), 2);\n",
        "fn tune_lr_parallel_of() {}\n",
    );
    for path in ["crates/ml/src/parallel.rs", "examples/parallel_search.rs", "tests/a.rs"] {
        assert_eq!(retired_at(path, src), vec![1, 2], "{path}");
    }
}

#[test]
fn bound_seeding_names_stay_retired_inside_longer_words() {
    let src = "fn seed_bits_of() {}\nlet best_seen2 = 1;\nfn cache_stats(&self) {}\nlet x = cache_stats();\n";
    assert_eq!(retired_at("crates/engine/src/tree.rs", src), vec![1, 2, 3]);
}

#[test]
fn shared_code_pointers_stay_retired_in_the_lambda_c_sources() {
    let src = "// once an Arc<Code> tree\nstruct Clos { body: Arc<Code> }\nlet t: Arc<[Code]>;\n";
    assert_eq!(retired_at("crates/lambda-c/src/machine.rs", src), vec![1, 2]);
    assert_eq!(retired_at("crates/lambda-c/tests/flow_differential.rs", src), Vec::<usize>::new());
    assert_eq!(retired_at("crates/lambda-rt/src/tree.rs", src), Vec::<usize>::new());
}

#[test]
fn the_table_and_its_fixtures_may_name_what_they_ban() {
    let src = "names: &[\"CandidateEval\"],\n";
    assert_eq!(retired_at("crates/check/src/lint.rs", src), Vec::<usize>::new());
    assert_eq!(retired_at("crates/check/tests/lint_fixtures.rs", src), Vec::<usize>::new());
    assert_eq!(retired_at("crates/check/src/model.rs", src), vec![1]);
}
