//! The workspace invariant linter behind the `selc-lint` binary.
//!
//! A hand-rolled, dependency-free static pass: each source file is run
//! through a small line lexer that strips string literals and comments
//! (tracking multi-line strings, raw strings, and block comments across
//! lines), tags `#[cfg(test)]`-gated regions by brace depth, and then
//! applies four rules:
//!
//! * **`partial-cmp`** — `partial_cmp` and float-unsafe `sort_by`
//!   comparators are banned outside the allowlist. The workspace's
//!   determinism story (PR 5) rests on `total_cmp`: a `partial_cmp`
//!   that returns `None` for a NaN silently breaks the `(loss, index)`
//!   reduction's total order. The one sanctioned site is
//!   `autodiff::Dual`'s `PartialOrd` impl, which must forward to the
//!   primal's partial order to satisfy the trait's contract.
//! * **`ordering-comment`** — every explicit atomic memory ordering
//!   (`Ordering::{Relaxed, Acquire, Release, AcqRel, SeqCst}`) in
//!   non-test code must carry an `// ordering:` justification, either
//!   on the same line(s) or in the comment block directly above. The
//!   model checker only explores sequentially consistent schedules, so
//!   the written argument is the workspace's entire defence against
//!   weak-memory bugs.
//! * **`serve-no-panic`** — `.unwrap()` / `.expect(` are banned in
//!   `crates/serve` non-test code: the server survives poisoned locks
//!   and malformed frames by policy, and a stray unwrap turns a bad
//!   request into a dead worker.
//! * **`engine-spawn`** — `thread::spawn`, `thread::scope` and
//!   `thread::Builder` are banned in `crates/engine/src` non-test code
//!   outside `pool.rs`, and in `crates/serve/src` outside `server.rs`:
//!   every search fans out through the one persistent pool, and a
//!   second spawn site would bring back a thread spawn per search; the
//!   server spawns only its accept loop and session threads, which run
//!   their searches themselves, so a search thread set cannot return.
//!
//!
//! Any of these can be waived for one line with `// selc-lint:
//! allow(<rule>)` on that line or the line above — the waiver is
//! greppable, which is the point.
//!
//! A fifth rule, **`retired-name`** ([`retired_names`]), keeps deleted
//! designs deleted: each entry of its table bans names inside its path
//! scopes. It reads raw lines — code, comments and strings alike — over
//! every file under [`RETIRED_ROOTS`], test and example trees included,
//! and has no waiver: the only exceptions are the exact lines an entry
//! lists.

/// Path suffixes (always `/`-separated) where `partial_cmp` is allowed.
const PARTIAL_CMP_ALLOWLIST: &[&str] = &["crates/autodiff/src/dual.rs"];

/// Directory names the workspace walk skips entirely: build output,
/// vendored code, and test/bench/example trees (the rules govern
/// production source).
pub const SKIP_DIRS: &[&str] =
    &["target", "vendor", ".git", "tests", "benches", "examples", "fixtures"];

/// Per crate source tree, the one file in it that may spawn threads.
const SPAWN_SITES: &[(&str, &str)] = &[
    ("crates/engine/src/", "crates/engine/src/pool.rs"),
    ("crates/serve/src/", "crates/serve/src/server.rs"),
];

const ORDERING_VARIANTS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// The trees the `retired-name` rule reads, every file in them.
pub const RETIRED_ROOTS: &[&str] = &["crates", "src", "tests", "examples"];

/// Where a retired name is banned everywhere [`RETIRED_ROOTS`] reach.
const EVERYWHERE: &[&str] = &["crates/", "src/", "tests/", "examples/"];

/// The files that must spell every retired name: the table and its
/// fixtures.
const RETIRED_TABLE_FILES: &[&str] =
    &["crates/check/src/lint.rs", "crates/check/tests/lint_fixtures.rs"];

/// How an occurrence of a retired name must be delimited to count.
#[derive(Clone, Copy)]
enum Edge {
    /// Anywhere, inside longer words too.
    None,
    /// No word character (letter, digit, `_`) may follow it.
    End,
    /// No word character may precede or follow it (a whole word).
    Word,
}

/// One retired design: names that may not come back inside `scopes`.
struct Retired {
    /// The banned texts.
    names: &'static [&'static str],
    /// How an occurrence must be delimited.
    edge: Edge,
    /// Path prefixes the ban covers.
    scopes: &'static [&'static str],
    /// `(path, line)`: whole lines that may keep a name, exactly as written.
    except: &'static [(&'static str, &'static str)],
    /// What replaced the names.
    why: &'static str,
}

/// Every retired name, by the design that retired it.
const RETIRED: &[Retired] = &[
    Retired {
        names: &["trait Engine"],
        edge: Edge::End,
        scopes: &["crates/engine/src/"],
        except: &[],
        why: "`Engine { threads, prune }` is the one engine, a struct",
    },
    Retired {
        names: &["CandidateEval", "FnEval"],
        edge: Edge::Word,
        scopes: EVERYWHERE,
        except: &[],
        why: "a flat candidate is a closure, not an evaluator object",
    },
    Retired {
        names: &["struct TreeEngine", "struct ParallelEngine"],
        edge: Edge::End,
        scopes: EVERYWHERE,
        except: &[],
        why: "`Engine` is the one engine struct",
    },
    Retired {
        names: &["TreeEngine", "ParallelEngine", "SequentialEngine"],
        edge: Edge::Word,
        scopes: EVERYWHERE,
        except: &[
            ("crates/engine/src/engine.rs", "pub type ParallelEngine = Engine;"),
            ("crates/engine/src/engine.rs", "pub type SequentialEngine = Engine;"),
            ("crates/engine/src/engine.rs", "pub type TreeEngine = Engine;"),
            (
                "crates/engine/src/lib.rs",
                "pub use engine::{ParallelEngine, SequentialEngine, TreeEngine};",
            ),
        ],
        why: "the old engine names are aliases kept for the benchmark package only",
    },
    Retired {
        names: &[
            "ReplaySpace",
            "SelEval",
            "search_programs",
            "replay_loss",
            "CacheStatsSink",
            "tune_lr_parallel_cached",
            "minimax_root_split_stats",
            "with_fuel",
            "parallel_subtrees",
        ],
        edge: Edge::Word,
        scopes: EVERYWHERE,
        except: &[],
        why: "plain closures, one fan-out: no replay-factory layer or suffix variants",
    },
    Retired {
        names: &[
            "SymTree",
            "TransKey",
            "TransCache",
            "value_transposition",
            "solve_root_split",
            "queens_parallel",
            "par_product_root",
            "selection::par",
        ],
        edge: Edge::Word,
        scopes: EVERYWHERE,
        except: &[],
        why: "the product is sequential; the engine's tree walk and state-keyed summaries \
              are the one parallel and cached search",
    },
    Retired {
        names: &["tune_lr_parallel", "tune_batch_handler"],
        edge: Edge::Word,
        scopes: EVERYWHERE,
        except: &[],
        why: "flat scans run in index order on the caller; `tuneLR` is `hyper::tune_lr`",
    },
    Retired {
        names: &["seed_bits", "hint_is_lower_bound", "observe_bits", "best_seen", "fn cache_stats"],
        edge: Edge::None,
        scopes: EVERYWHERE,
        except: &[],
        why: "one bound per space: no seeding, best-seen mirror or evaluator cache stats",
    },
    Retired {
        names: &["Arc<Code>"],
        edge: Edge::None,
        scopes: &["crates/lambda-c/src/"],
        except: &[],
        why: "code positions are `CodeId`s into one node table per program",
    },
];

/// Which invariant a [`Finding`] violates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    PartialCmp,
    OrderingComment,
    ServeNoPanic,
    EngineSpawn,
    RetiredName,
}

impl Rule {
    /// The rule's name as used in `selc-lint: allow(<name>)` waivers.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::PartialCmp => "partial-cmp",
            Rule::OrderingComment => "ordering-comment",
            Rule::ServeNoPanic => "serve-no-panic",
            Rule::EngineSpawn => "engine-spawn",
            Rule::RetiredName => "retired-name",
        }
    }
}

/// One rule violation at one source line.
#[derive(Clone, Debug)]
pub struct Finding {
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    pub rule: Rule,
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule.name(), self.message)
    }
}

/// Lexer state carried across lines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LexState {
    Code,
    /// Inside `/* … */`, with nesting depth.
    BlockComment(u32),
    /// Inside a normal `"…"` string (they continue across lines after a
    /// trailing backslash; tracking the state is still right either way
    /// because an unterminated string fails to compile).
    Str,
    /// Inside a raw string closed by `"` + this many `#`s.
    RawStr(u32),
}

/// One source line split into its code and `//` comment halves, with
/// string-literal contents blanked out of the code half.
struct Line {
    code: String,
    comment: String,
    is_test: bool,
}

/// Splits `line` into code and line-comment text under `state`,
/// returning the state the next line starts in. String and block-comment
/// contents are dropped (a `"` placeholder marks where a string sat).
fn strip_line(line: &str, mut state: LexState) -> (String, String, LexState) {
    let bytes = line.as_bytes();
    let mut code = String::with_capacity(line.len());
    let mut comment = String::new();
    let mut i = 0;
    while i < bytes.len() {
        match state {
            LexState::BlockComment(depth) => {
                if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    state =
                        if depth == 1 { LexState::Code } else { LexState::BlockComment(depth - 1) };
                    i += 2;
                } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    state = LexState::BlockComment(depth + 1);
                    i += 2;
                } else {
                    i += 1;
                }
            }
            LexState::Str => {
                if bytes[i] == b'\\' {
                    i += 2; // an escape (or a line continuation at EOL)
                } else if bytes[i] == b'"' {
                    code.push('"');
                    state = LexState::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            LexState::RawStr(hashes) => {
                if bytes[i] == b'"' {
                    let h = hashes as usize;
                    if bytes[i + 1..].len() >= h
                        && bytes[i + 1..i + 1 + h].iter().all(|&b| b == b'#')
                    {
                        code.push('"');
                        state = LexState::Code;
                        i += 1 + h;
                    } else {
                        i += 1;
                    }
                } else {
                    i += 1;
                }
            }
            LexState::Code => {
                let c = bytes[i];
                if c == b'/' && bytes.get(i + 1) == Some(&b'/') {
                    comment.push_str(&line[i + 2..]);
                    i = bytes.len();
                } else if c == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    state = LexState::BlockComment(1);
                    i += 2;
                } else if c == b'"' {
                    code.push('"');
                    state = LexState::Str;
                    i += 1;
                } else if (c == b'r' || c == b'b') && !prev_is_ident(&code) {
                    // Possible raw/byte string prefix: r"", r#""#, b"",
                    // br"", br#""#.
                    let mut j = i + 1;
                    let mut is_raw = c == b'r';
                    if c == b'b' && bytes.get(j) == Some(&b'r') {
                        is_raw = true;
                        j += 1;
                    }
                    let hash_start = j;
                    while bytes.get(j) == Some(&b'#') {
                        j += 1;
                    }
                    let hashes = (j - hash_start) as u32;
                    if bytes.get(j) == Some(&b'"') && (is_raw || hashes == 0) {
                        code.push('"');
                        state = if is_raw { LexState::RawStr(hashes) } else { LexState::Str };
                        i = j + 1;
                    } else {
                        code.push(c as char);
                        i += 1;
                    }
                } else if c == b'\'' {
                    // Char literal vs lifetime: a literal is 'x' or an
                    // escape; anything else is a lifetime tick.
                    if bytes.get(i + 1) == Some(&b'\\') {
                        let mut j = i + 2;
                        while j < bytes.len() && bytes[j] != b'\'' {
                            j += 1;
                        }
                        i = (j + 1).min(bytes.len());
                    } else if bytes.get(i + 2) == Some(&b'\'') {
                        i += 3;
                    } else {
                        code.push('\'');
                        i += 1;
                    }
                } else {
                    code.push(c as char);
                    i += 1;
                }
            }
        }
    }
    // A string whose line ends without a closing quote only truly
    // continues when the line ends in a backslash; otherwise it closed
    // on a quote we consumed or the file does not compile anyway.
    if state == LexState::Str && !line.trim_end().ends_with('\\') {
        state = LexState::Code;
    }
    (code, comment, state)
}

fn prev_is_ident(code: &str) -> bool {
    code.chars().next_back().is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Lexes `text` and tags `#[cfg(test)]` / `#[test]` regions by brace
/// depth.
fn lex(text: &str) -> Vec<Line> {
    let mut state = LexState::Code;
    let mut lines = Vec::new();
    let mut depth: i64 = 0;
    let mut pending_test = false;
    let mut test_until_depth: Option<i64> = None;
    for raw in text.lines() {
        let (code, comment, next) = strip_line(raw, state);
        state = next;
        let was_test = test_until_depth.is_some();
        let pending_set = code.contains("cfg(test")
            || code.contains("cfg(all(test")
            || code.contains("cfg(any(test")
            || code.contains("#[test]");
        pending_test |= pending_set;
        for c in code.chars() {
            match c {
                '{' => {
                    if pending_test && test_until_depth.is_none() {
                        test_until_depth = Some(depth);
                        pending_test = false;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if test_until_depth == Some(depth) {
                        test_until_depth = None;
                    }
                }
                ';' if pending_test && test_until_depth.is_none() && !code.contains("#[") => {
                    // `#[cfg(test)] use …;` — item ended without a block.
                    pending_test = false;
                }
                _ => {}
            }
        }
        let is_test = was_test || test_until_depth.is_some() || pending_set;
        lines.push(Line { code, comment, is_test });
    }
    lines
}

fn waived(lines: &[Line], idx: usize, rule: Rule) -> bool {
    let tag = format!("selc-lint: allow({})", rule.name());
    if lines[idx].comment.contains(&tag) {
        return true;
    }
    idx > 0 && lines[idx - 1].code.trim().is_empty() && lines[idx - 1].comment.contains(&tag)
}

/// Is there an `ordering:` justification in the contiguous comment
/// block directly above `idx`?
fn ordering_comment_above(lines: &[Line], idx: usize) -> bool {
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let l = &lines[i];
        if l.code.trim().is_empty() && !l.comment.is_empty() {
            if l.comment.contains("ordering:") {
                return true;
            }
        } else {
            return false;
        }
    }
    false
}

fn has_explicit_ordering(code: &str) -> bool {
    ORDERING_VARIANTS.iter().any(|v| {
        let needle = format!("Ordering::{v}");
        code.contains(&needle)
    })
}

/// Lints one file's source. `path` should be workspace-relative with
/// `/` separators — the allowlist and the serve rule key on it.
#[must_use]
pub fn lint_source(path: &str, text: &str) -> Vec<Finding> {
    let lines = lex(text);
    let mut findings = Vec::new();
    let partial_cmp_allowed = PARTIAL_CMP_ALLOWLIST.iter().any(|s| path.ends_with(s));
    let in_serve = path.contains("crates/serve/");
    // The spawn site this file must leave spawning to, if it is bound
    // by one and is not it.
    let spawn_site = SPAWN_SITES
        .iter()
        .find(|(tree, _)| path.contains(tree))
        .map(|&(_, site)| site)
        .filter(|site| !path.ends_with(site));
    let finding = |idx: usize, rule: Rule, message: String| Finding {
        path: path.to_string(),
        line: idx + 1,
        rule,
        message,
    };

    for idx in 0..lines.len() {
        let code = lines[idx].code.as_str();

        // --- partial-cmp: determinism-unsafe float comparisons -------
        if !partial_cmp_allowed && !lines[idx].is_test && !waived(&lines, idx, Rule::PartialCmp) {
            if code.contains("partial_cmp(") {
                findings.push(finding(
                    idx,
                    Rule::PartialCmp,
                    "partial_cmp breaks the workspace's total-order determinism contract; use total_cmp \
                     (allowlisted exception: autodiff::Dual)"
                        .to_string(),
                ));
            }
            if code.contains(".sort_by(") || code.contains(".sort_unstable_by(") {
                // A float-safe comparator names total_cmp or a total
                // `.cmp(`; give multi-line closures two lines of grace.
                let window_ok = (idx..lines.len().min(idx + 3)).any(|j| {
                    lines[j].code.contains("total_cmp") || lines[j].code.contains(".cmp(")
                });
                if !window_ok {
                    findings.push(finding(
                        idx,
                        Rule::PartialCmp,
                        "sort_by without a visibly total comparator (total_cmp or Ord::cmp); \
                         floats sorted partially are nondeterministic under NaN"
                            .to_string(),
                    ));
                }
            }
        }

        // --- ordering-comment: justify every explicit ordering -------
        if !lines[idx].is_test && has_explicit_ordering(code) {
            // One justification covers a maximal run of consecutive
            // ordering-bearing lines (a single call formatted across
            // lines), via a same-line comment anywhere in the run or a
            // comment block above the run's first line.
            let run_start = (0..=idx)
                .rev()
                .take_while(|&j| has_explicit_ordering(&lines[j].code) && !lines[j].is_test)
                .last()
                .unwrap_or(idx);
            let run_end = (idx..lines.len())
                .take_while(|&j| has_explicit_ordering(&lines[j].code) && !lines[j].is_test)
                .last()
                .unwrap_or(idx);
            let justified = (run_start..=run_end).any(|j| lines[j].comment.contains("ordering:"))
                || ordering_comment_above(&lines, run_start)
                || (run_start..=run_end).any(|j| waived(&lines, j, Rule::OrderingComment));
            if !justified && idx == run_start {
                findings.push(finding(
                    idx,
                    Rule::OrderingComment,
                    "explicit atomic ordering without an `// ordering:` justification comment"
                        .to_string(),
                ));
            }
        }

        // --- serve-no-panic: the server must not unwrap --------------
        if in_serve && !lines[idx].is_test && !waived(&lines, idx, Rule::ServeNoPanic) {
            for needle in [".unwrap()", ".expect("] {
                if code.contains(needle) {
                    findings.push(finding(
                        idx,
                        Rule::ServeNoPanic,
                        format!(
                            "{needle} in crates/serve non-test code: the server handles poisoned locks and \
                             malformed input without panicking"
                        ),
                    ));
                }
            }
        }

        // --- engine-spawn: one spawn site per crate ------------------
        let exempt = || lines[idx].is_test || waived(&lines, idx, Rule::EngineSpawn);
        if let Some(site) = spawn_site.filter(|_| !exempt()) {
            for needle in ["thread::spawn", "thread::scope", "thread::Builder"] {
                if code.contains(needle) {
                    findings.push(finding(
                        idx,
                        Rule::EngineSpawn,
                        format!(
                            "{needle} outside {site}, this crate's one spawn site: searches fan \
                             out through the engine's persistent pool, which spawns nothing per \
                             search"
                        ),
                    ));
                }
            }
        }
    }
    findings
}

/// Does `line` hold `name` delimited as `edge` asks, at any occurrence?
fn occurs(line: &str, name: &str, edge: Edge) -> bool {
    let word = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
    line.match_indices(name).any(|(at, _)| {
        let after = word(line[at + name.len()..].chars().next());
        let before = word(line[..at].chars().next_back());
        match edge {
            Edge::None => true,
            Edge::End => !after,
            Edge::Word => !after && !before,
        }
    })
}

/// Applies the `retired-name` rule to one file of any kind. `path` is
/// workspace-relative with `/` separators, as for [`lint_source`].
#[must_use]
pub fn retired_names(path: &str, text: &str) -> Vec<Finding> {
    if RETIRED_TABLE_FILES.contains(&path) {
        return Vec::new();
    }
    let entries: Vec<&Retired> =
        RETIRED.iter().filter(|r| r.scopes.iter().any(|s| path.starts_with(s))).collect();
    let mut findings = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        for r in &entries {
            if r.except.contains(&(path, line)) {
                continue;
            }
            for name in r.names.iter().filter(|name| occurs(line, name, r.edge)) {
                findings.push(Finding {
                    path: path.to_string(),
                    line: idx + 1,
                    rule: Rule::RetiredName,
                    message: format!("`{name}` is retired: {}", r.why),
                });
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexer_strips_strings_and_comments() {
        let lines = lex("let s = \"partial_cmp // not code\"; // trailing partial_cmp\nlet t = 1;");
        assert!(!lines[0].code.contains("partial_cmp"));
        assert!(lines[0].comment.contains("trailing partial_cmp"));
        assert_eq!(lines[1].code, "let t = 1;");
    }

    #[test]
    fn lexer_handles_raw_strings_and_block_comments() {
        let text =
            "let r = r#\"Ordering::SeqCst\"#;\n/* Ordering::SeqCst\nstill comment */ let x = 2;";
        let lines = lex(text);
        assert!(!lines[0].code.contains("SeqCst"));
        assert!(!lines[1].code.contains("SeqCst"));
        assert!(lines[2].code.contains("let x = 2;"));
    }

    #[test]
    fn lexer_tags_test_regions() {
        let text = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn prod2() {}";
        let lines = lex(text);
        assert!(!lines[0].is_test);
        assert!(lines[2].is_test && lines[3].is_test && lines[4].is_test);
        assert!(!lines[5].is_test);
    }

    #[test]
    fn char_literals_and_lifetimes_lex_as_code() {
        let lines = lex("fn f<'a>(c: char) -> bool { c == '\"' || c == '\\'' }");
        assert!(lines[0].code.contains("fn f<'a>"));
        // The quote chars must not open a string state.
        let lines2 = lex("let q = '\"';\nlet z = partial_cmp;");
        assert!(lines2[1].code.contains("partial_cmp"));
    }
}
