//! The rule engine: four lexical rules wired to the workspace invariants
//! that no built-in rustc or clippy lint can express.
//!
//! Every rule is scoped to the files whose invariants it protects (see
//! `docs/LINTS.md` for the catalogue) and runs over the token stream of
//! [`LexedFile`], never over raw text — so comments, doc examples and
//! string fixtures can mention `Vec::with_capacity(n)` freely.

use crate::lexer::{LexedFile, TokenKind};

/// One finding: `file:line: rule-id: message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Stable rule identifier (see [`RULES`]).
    pub rule: &'static str,
    /// What is wrong and which invariant it breaks.
    pub message: String,
}

/// Rule identifiers, in catalogue order.
pub const RULES: [&str; 4] = [
    WIRE_GOLDEN_COVERAGE,
    NO_UNBOUNDED_ALLOC,
    LOCK_DISCIPLINE,
    EPOCH_THREADING,
];

/// Every public wire codec is pinned by `tests/wire_golden.rs`.
pub const WIRE_GOLDEN_COVERAGE: &str = "wire-golden-coverage";
/// Allocation sizes decoded from the wire must be bound-checked first.
pub const NO_UNBOUNDED_ALLOC: &str = "no-unbounded-alloc-from-wire";
/// Lock guards must not span another acquisition unless the pair is in
/// [`ALLOWED_LOCK_ORDER`].
pub const LOCK_DISCIPLINE: &str = "lock-discipline";
/// Every `publish*`/`commit*` seam in the training pipeline must thread an
/// epoch value — an epoch-less publication cannot be fenced by the
/// two-phase commit and can tear a fleet across versions.
pub const EPOCH_THREADING: &str = "epoch-threading";

/// The declared lock-order table for [`LOCK_DISCIPLINE`]: `(outer, inner)`
/// pairs that are allowed to nest, in this order only. Extend it (with a
/// review); the rule has no inline suppression.
///
/// * `publish_lock → reads`, `publish_lock → pipeline` — a publication,
///   serialised under the router's `publish_lock`, drains the reads in
///   flight and records its stats. Reads and `/stats` scrapes take `reads`
///   and `pipeline` alone, never `publish_lock`, so the reverse order
///   cannot occur.
pub const ALLOWED_LOCK_ORDER: [(&str, &str); 2] =
    [("publish_lock", "reads"), ("publish_lock", "pipeline")];

/// Runs every rule over `files` (workspace-relative path + content) and
/// returns the diagnostics sorted by file, line and rule.
pub fn run(files: &[(String, String)]) -> Vec<Diagnostic> {
    let lexed: Vec<LexedFile> = files
        .iter()
        .map(|(path, content)| LexedFile::lex(path, content))
        .collect();
    let mut diagnostics = Vec::new();
    for file in &lexed {
        no_unbounded_alloc(file, &mut diagnostics);
        lock_discipline(file, &ALLOWED_LOCK_ORDER, &mut diagnostics);
        epoch_threading(file, &mut diagnostics);
    }
    wire_golden_coverage(&lexed, &mut diagnostics);
    diagnostics
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    diagnostics
}

// ---------------------------------------------------------------------------
// Rule 1: wire-golden-coverage
// ---------------------------------------------------------------------------

const WIRE_FILE: &str = "crates/serve/src/wire.rs";
const GOLDEN_FILE: &str = "tests/wire_golden.rs";

fn wire_golden_coverage(files: &[LexedFile], out: &mut Vec<Diagnostic>) {
    let Some(wire) = files.iter().find(|f| f.rel_path == WIRE_FILE) else {
        return;
    };
    let golden = files.iter().find(|f| f.rel_path == GOLDEN_FILE);
    // Collect `pub fn encode_* / decode_*` declared outside test code.
    let mut codecs: Vec<(String, u32)> = Vec::new();
    for i in 0..wire.tokens.len() {
        if wire.is_ident(i, "pub") && wire.is_ident(i + 1, "fn") && !wire.in_test[i] {
            let name = wire.text(i + 2);
            if name.starts_with("encode_") || name.starts_with("decode_") {
                codecs.push((name.to_string(), wire.tokens[i].line));
            }
        }
    }
    for (name, line) in codecs {
        let referenced = golden.is_some_and(|g| {
            g.tokens
                .iter()
                .any(|t| t.kind == TokenKind::Ident && t.text == name)
        });
        if !referenced {
            let why = if golden.is_some() {
                "is never referenced from"
            } else {
                "has no golden fixture; missing"
            };
            out.push(Diagnostic {
                file: WIRE_FILE.to_string(),
                line,
                rule: WIRE_GOLDEN_COVERAGE,
                message: format!(
                    "wire codec `{name}` {why} `{GOLDEN_FILE}` — un-pinned codecs can \
                     drift and silently corrupt a mixed-version fleet"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 2: no-unbounded-alloc-from-wire
// ---------------------------------------------------------------------------

/// Files that decode untrusted bytes into allocations.
fn wire_alloc_scope(path: &str) -> bool {
    [
        "crates/serve/src/wire.rs",
        "crates/serve/src/http.rs",
        "crates/serve/src/transport.rs",
        "crates/core/src/model_io.rs",
        "crates/core/src/json.rs",
    ]
    .contains(&path)
}

fn no_unbounded_alloc(file: &LexedFile, out: &mut Vec<Diagnostic>) {
    if !wire_alloc_scope(&file.rel_path) {
        return;
    }
    for i in 0..file.tokens.len() {
        if file.in_test[i] {
            continue;
        }
        // `with_capacity(expr)` / `Vec::with_capacity(expr)`.
        let size_range = if file.is_ident(i, "with_capacity") && file.text(i + 1) == "(" {
            matching_delim(file, i + 1, "(", ")").map(|close| (i + 2, close))
        // `vec![elem; len]` — the size expression follows the `;`.
        } else if file.is_ident(i, "vec") && file.text(i + 1) == "!" && file.text(i + 2) == "[" {
            matching_delim(file, i + 2, "[", "]").and_then(|close| {
                (i + 3..close)
                    .find(|&j| file.text(j) == ";")
                    .map(|semi| (semi + 1, close))
            })
        } else {
            None
        };
        let Some((start, end)) = size_range else {
            continue;
        };
        for suspect in suspicious_size_idents(file, start, end) {
            if !has_bound_evidence(file, i, &suspect) {
                out.push(Diagnostic {
                    file: file.rel_path.clone(),
                    line: file.tokens[i].line,
                    rule: NO_UNBOUNDED_ALLOC,
                    message: format!(
                        "allocation sized by `{suspect}` with no preceding bound check \
                         in this function — a hostile header can make a shard allocate \
                         unbounded memory; compare against a limit first"
                    ),
                });
            }
        }
    }
}

/// Index of the delimiter matching `open_at` (which holds `open`).
fn matching_delim(file: &LexedFile, open_at: usize, open: &str, close: &str) -> Option<usize> {
    let mut depth = 0usize;
    for j in open_at..file.tokens.len() {
        let t = file.text(j);
        if t == open {
            depth += 1;
        } else if t == close {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Lower-case identifiers inside the size expression that look like data
/// (not casts, keywords or constants) — unless the expression measures
/// already-received data (`.len()`) or is self-limiting (`.min`/`.clamp`).
fn suspicious_size_idents(file: &LexedFile, start: usize, end: usize) -> Vec<String> {
    const CAST_TARGETS: [&str; 10] = [
        "as", "usize", "u8", "u16", "u32", "u64", "f32", "f64", "isize", "self",
    ];
    let mut suspects = Vec::new();
    for j in start..end {
        let t = &file.tokens[j];
        if t.kind != TokenKind::Ident {
            continue;
        }
        // Measuring or clamping inside the expression bounds it.
        if ["len", "min", "clamp", "capacity"].contains(&t.text.as_str()) {
            return Vec::new();
        }
        let is_const = t.text.chars().all(|c| c.is_ascii_uppercase() || c == '_');
        if is_const || CAST_TARGETS.contains(&t.text.as_str()) {
            continue;
        }
        // A method call on the suspect (`n_shards()`) computes, not decodes.
        if file.text(j + 1) == "(" {
            continue;
        }
        if !suspects.contains(&t.text) {
            suspects.push(t.text.clone());
        }
    }
    suspects
}

/// Looks for a bound check on `ident` earlier in the same function:
/// the identifier adjacent to a comparison operator, or fed through
/// `.min(..)` / `.clamp(..)` / `checked_mul` style guards.
fn has_bound_evidence(file: &LexedFile, alloc_at: usize, ident: &str) -> bool {
    let Some(fn_start) = file.fn_body[alloc_at] else {
        // Not inside a function (const initialiser): nothing to check.
        return true;
    };
    const COMPARISONS: [&str; 4] = ["<", ">", "<=", ">="];
    for j in fn_start..alloc_at {
        if !file.is_ident(j, ident) {
            continue;
        }
        let window = |k: usize| file.text(k);
        // `ident > LIMIT`, `LIMIT >= ident`, …
        for k in j.saturating_sub(3)..=j + 3 {
            if k != j && COMPARISONS.contains(&window(k)) {
                return true;
            }
        }
        // `ident.min(..)`, `ident.clamp(..)`, `ident.checked_mul(..)`.
        if window(j + 1) == "."
            && ["min", "clamp", "checked_mul", "checked_add"].contains(&window(j + 2))
        {
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Rule 3: lock-discipline
// ---------------------------------------------------------------------------

/// Files where the router/transport seam takes locks around fan-out.
fn lock_scope(path: &str) -> bool {
    [
        "crates/serve/src/router.rs",
        "crates/serve/src/router/publish.rs",
        "crates/serve/src/transport.rs",
    ]
    .contains(&path)
}

/// A live guard: where it was bound, which lock it holds, and when it dies.
struct Guard {
    /// `let` binding name, when bound (else a statement-temporary).
    name: Option<String>,
    /// Final path segment of the lock expression (`publish_lock`, `rx`).
    lock: String,
    /// Brace depth at the binding; the guard dies when the block closes.
    depth: i32,
    /// Statement temporaries die at the next `;` instead.
    dies_at_semi: bool,
    line: u32,
}

/// [`LOCK_DISCIPLINE`] against the lock-order table `allowed`.
fn lock_discipline(file: &LexedFile, allowed: &[(&str, &str)], out: &mut Vec<Diagnostic>) {
    if !lock_scope(&file.rel_path) {
        return;
    }
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth: i32 = 0;
    for i in 0..file.tokens.len() {
        let text = file.text(i);
        match text {
            "{" => depth += 1,
            "}" => {
                // Everything bound inside the closing block dies with it.
                guards.retain(|g| g.depth < depth);
                depth -= 1;
            }
            ";" => guards.retain(|g| !(g.dies_at_semi && g.depth == depth)),
            _ => {}
        }
        if file.in_test[i] {
            continue;
        }
        // `drop(guard)` releases early.
        if file.is_ident(i, "drop") && file.text(i + 1) == "(" {
            let dropped = file.text(i + 2).to_string();
            guards.retain(|g| g.name.as_deref() != Some(dropped.as_str()));
        }
        // A zero-argument `.lock()` / `.read()` / `.write()` acquisition.
        let acquiring = text == "."
            && ["lock", "read", "write"].contains(&file.text(i + 1))
            && file.text(i + 2) == "("
            && file.text(i + 3) == ")";
        if !acquiring {
            continue;
        }
        let lock = lock_name(file, i);
        let line = file.tokens[i].line;
        for held in &guards {
            let declared = allowed
                .iter()
                .any(|(outer, inner)| *outer == held.lock && *inner == lock);
            if held.lock == lock {
                out.push(Diagnostic {
                    file: file.rel_path.clone(),
                    line,
                    rule: LOCK_DISCIPLINE,
                    message: format!(
                        "re-acquires `{lock}` while the guard from line {} is still \
                         live — self-deadlock",
                        held.line
                    ),
                });
            } else if !declared {
                out.push(Diagnostic {
                    file: file.rel_path.clone(),
                    line,
                    rule: LOCK_DISCIPLINE,
                    message: format!(
                        "acquires `{lock}` while holding `{}` (line {}) and the pair \
                         is not in the declared lock-order table — deadlock risk; \
                         drop the guard first or declare the order in \
                         `ALLOWED_LOCK_ORDER`",
                        held.lock, held.line
                    ),
                });
            }
        }
        guards.push(new_guard(file, i, lock, depth, line));
    }
}

/// The last path segment before the `.lock()` — `self.publish_lock.lock()`
/// names `publish_lock`, `self.0.lock()` names `0`, `rx.lock()` names `rx`.
fn lock_name(file: &LexedFile, dot_at: usize) -> String {
    let mut j = dot_at;
    while j > 0 {
        j -= 1;
        match file.tokens[j].kind {
            TokenKind::Ident | TokenKind::Literal => return file.text(j).to_string(),
            TokenKind::Punct if file.text(j) == ")" => {
                // Skip a call suffix like `.as_ref()` to its opening paren.
                let mut depth = 0i32;
                loop {
                    match file.text(j) {
                        ")" => depth += 1,
                        "(" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if j == 0 {
                        break;
                    }
                    j -= 1;
                }
            }
            TokenKind::Punct if file.text(j) == "." || file.text(j) == "::" => {}
            _ => break,
        }
    }
    "<unknown>".to_string()
}

/// Builds the [`Guard`] for the acquisition at `dot_at`, detecting a
/// `let [mut] name = <path>.lock()…` binding.
fn new_guard(file: &LexedFile, dot_at: usize, lock: String, depth: i32, line: u32) -> Guard {
    // Walk back over the receiver path to the start of the expression.
    let mut j = dot_at;
    while j > 0 {
        let prev = file.text(j - 1);
        let is_path = prev == "."
            || prev == "::"
            || file.tokens[j - 1].kind == TokenKind::Ident
            || file.tokens[j - 1].kind == TokenKind::Literal;
        if is_path {
            j -= 1;
        } else {
            break;
        }
    }
    let mut name = None;
    let mut dies_at_semi = true;
    // `let [mut] guard = <receiver>.lock()…` — j is the receiver start,
    // so the binding name sits two tokens back, behind the `=`.
    if j >= 2 && file.text(j - 1) == "=" && file.tokens[j - 2].kind == TokenKind::Ident {
        let bind = file.text(j - 2).to_string();
        let before = j.checked_sub(3).map(|p| file.text(p)).unwrap_or("");
        let is_let = before == "let"
            || (before == "mut" && j.checked_sub(4).map(|p| file.text(p)) == Some("let"));
        if is_let {
            name = Some(bind);
            dies_at_semi = false;
        }
    }
    Guard {
        name,
        lock,
        depth,
        dies_at_semi,
        line,
    }
}

// ---------------------------------------------------------------------------
// Rule 4: epoch-threading
// ---------------------------------------------------------------------------

/// Where the continuous-training daemon publishes epochs to a live fleet.
fn epoch_scope(path: &str) -> bool {
    path.starts_with("crates/pipeline/src/")
}

/// Whether this identifier names a publication/commit seam: `publish`,
/// `commit`, or anything prefixed `publish_`/`commit_`.
fn is_epoch_seam(name: &str) -> bool {
    name == "publish"
        || name == "commit"
        || name.starts_with("publish_")
        || name.starts_with("commit_")
}

/// Flags `publish*(..)` / `commit*(..)` calls and signatures in the
/// pipeline crate whose argument list names no `*epoch*` identifier. The
/// two-phase protocol fences every swap on an expected epoch; a seam that
/// does not thread one bypasses the fence and can tear a fleet across
/// versions (exactly what the `/commit-epoch` 409 exists to prevent).
fn epoch_threading(file: &LexedFile, out: &mut Vec<Diagnostic>) {
    if !epoch_scope(&file.rel_path) {
        return;
    }
    for i in 0..file.tokens.len() {
        if file.in_test[i] || file.tokens[i].kind != TokenKind::Ident {
            continue;
        }
        let name = file.text(i);
        if !is_epoch_seam(name) || file.text(i + 1) != "(" {
            continue;
        }
        let Some(close) = matching_delim(file, i + 1, "(", ")") else {
            continue;
        };
        let threaded = (i + 2..close)
            .any(|k| file.tokens[k].kind == TokenKind::Ident && file.text(k).contains("epoch"));
        if !threaded {
            out.push(Diagnostic {
                file: file.rel_path.clone(),
                line: file.tokens[i].line,
                rule: EPOCH_THREADING,
                message: format!(
                    "`{name}(..)` threads no epoch value through the publication seam — \
                     without an expected epoch the two-phase commit cannot fence the \
                     swap and a fleet can tear across versions; pass the epoch (or \
                     rename the helper if it is not a publication seam)"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lints a single in-memory fixture file.
    fn lint_one(path: &str, src: &str) -> Vec<Diagnostic> {
        run(&[(path.to_string(), src.to_string())])
    }

    fn rule_ids(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule).collect()
    }

    // -- wire-golden-coverage -----------------------------------------------

    #[test]
    fn flags_wire_codecs_missing_from_the_golden_tests() {
        let wire = "pub fn encode_thing() {}\npub fn decode_thing() {}\npub fn helper() {}\n";
        let golden = "#[test]\nfn pins_thing() {\n    encode_thing();\n}\n";
        let diags = run(&[
            (WIRE_FILE.to_string(), wire.to_string()),
            (GOLDEN_FILE.to_string(), golden.to_string()),
        ]);
        // `decode_thing` is uncovered; `helper` is not a codec; the golden
        // file itself is all test code and triggers nothing.
        assert_eq!(rule_ids(&diags), [WIRE_GOLDEN_COVERAGE]);
        assert!(diags[0].message.contains("decode_thing"));
        assert_eq!(diags[0].line, 2);
    }

    #[test]
    fn wire_coverage_is_clean_when_every_codec_is_pinned() {
        let wire = "pub fn encode_thing() {}\n";
        let golden = "#[test]\nfn pins() { encode_thing(); }\n";
        assert!(run(&[
            (WIRE_FILE.to_string(), wire.to_string()),
            (GOLDEN_FILE.to_string(), golden.to_string()),
        ])
        .is_empty());
    }

    #[test]
    fn wire_coverage_reports_a_missing_golden_file() {
        let wire = "pub fn encode_thing() {}\n";
        let diags = run(&[(WIRE_FILE.to_string(), wire.to_string())]);
        assert_eq!(rule_ids(&diags), [WIRE_GOLDEN_COVERAGE]);
        assert!(diags[0].message.contains("has no golden fixture"));
    }

    // -- no-unbounded-alloc-from-wire ---------------------------------------

    #[test]
    fn flags_allocations_sized_by_unchecked_wire_values() {
        let src = "fn read(n: usize) -> Vec<u8> {\n    Vec::with_capacity(n)\n}\n";
        let diags = lint_one("crates/serve/src/http.rs", src);
        assert_eq!(rule_ids(&diags), [NO_UNBOUNDED_ALLOC]);
        assert!(diags[0].message.contains("`n`"), "{}", diags[0].message);
        let via_macro = "fn read(n: usize) -> Vec<u8> {\n    vec![0u8; n]\n}\n";
        assert_eq!(
            rule_ids(&lint_one("crates/serve/src/http.rs", via_macro)),
            [NO_UNBOUNDED_ALLOC]
        );
    }

    #[test]
    fn bound_checked_and_self_limiting_allocations_pass() {
        let guarded = "fn read(n: usize) -> Vec<u8> {\n    \
                       if n > MAX_BODY {\n        return Vec::new();\n    }\n    \
                       vec![0u8; n]\n}\n";
        assert!(lint_one("crates/serve/src/http.rs", guarded).is_empty());
        let clamped = "fn read(n: usize) -> Vec<u8> {\n    \
                       Vec::with_capacity(n.min(4096))\n}\n";
        assert!(lint_one("crates/serve/src/http.rs", clamped).is_empty());
        let measured = "fn copy(words: &[u32]) -> Vec<u32> {\n    \
                        Vec::with_capacity(words.len())\n}\n";
        assert!(lint_one("crates/serve/src/http.rs", measured).is_empty());
        let constant = "fn buf() -> Vec<u8> {\n    Vec::with_capacity(MAX_HEADER)\n}\n";
        assert!(lint_one("crates/serve/src/http.rs", constant).is_empty());
        // Out of scope: allocation in the sampler is not wire-reachable.
        let src = "fn read(n: usize) -> Vec<u8> {\n    Vec::with_capacity(n)\n}\n";
        assert!(lint_one("crates/core/src/sampling.rs", src).is_empty());
        // Comments and string fixtures may say it freely: rules see tokens,
        // and literals are opaque. Test code is exempt.
        let in_text = "// Vec::with_capacity(n)\nfn f() -> &'static str { \"vec![0u8; n]\" }\n";
        assert!(lint_one("crates/serve/src/http.rs", in_text).is_empty());
        let in_tests = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t(n: usize) {\n        \
                        let _ = Vec::<u8>::with_capacity(n);\n    }\n}\n";
        assert!(lint_one("crates/serve/src/http.rs", in_tests).is_empty());
    }

    // -- lock-discipline ----------------------------------------------------

    #[test]
    fn flags_reacquiring_the_same_lock() {
        let src = "fn f(&self) {\n    let a = self.m.lock();\n    let b = self.m.lock();\n}\n";
        let diags = lint_one("crates/serve/src/router.rs", src);
        assert_eq!(rule_ids(&diags), [LOCK_DISCIPLINE]);
        assert!(diags[0].message.contains("self-deadlock"));
        assert_eq!(diags[0].line, 3);
    }

    #[test]
    fn flags_undeclared_lock_pairs_but_allows_the_declared_order() {
        let undeclared =
            "fn f(&self) {\n    let a = self.alpha.lock();\n    let b = self.beta.lock();\n}\n";
        let diags = lint_one("crates/serve/src/transport.rs", undeclared);
        assert_eq!(rule_ids(&diags), [LOCK_DISCIPLINE]);
        assert!(diags[0].message.contains("lock-order table"));
        // A table declaring `alpha → beta` allows that order only.
        let with_table = |src: &str| {
            let mut diags = Vec::new();
            let file = LexedFile::lex("crates/serve/src/router.rs", src);
            lock_discipline(&file, &[("alpha", "beta")], &mut diags);
            rule_ids(&diags)
        };
        assert!(with_table(undeclared).is_empty());
        let reversed =
            "fn f(&self) {\n    let a = self.beta.lock();\n    let b = self.alpha.lock();\n}\n";
        assert_eq!(with_table(reversed), [LOCK_DISCIPLINE]);
    }

    #[test]
    fn released_guards_do_not_constrain_later_acquisitions() {
        let dropped = "fn f(&self) {\n    let a = self.alpha.lock();\n    drop(a);\n    \
                       let b = self.beta.lock();\n}\n";
        assert!(lint_one("crates/serve/src/router.rs", dropped).is_empty());
        let scoped = "fn f(&self) {\n    {\n        let a = self.alpha.lock();\n    }\n    \
                      let b = self.beta.lock();\n}\n";
        assert!(lint_one("crates/serve/src/router.rs", scoped).is_empty());
        // A statement temporary dies at its semicolon.
        let temp = "fn f(&self) {\n    *self.alpha.lock() = 1;\n    \
                    let b = self.beta.lock();\n}\n";
        assert!(lint_one("crates/serve/src/router.rs", temp).is_empty());
        // Out of scope: server.rs takes no nested locks by design.
        let src =
            "fn f(&self) {\n    let a = self.alpha.lock();\n    let b = self.beta.lock();\n}\n";
        assert!(lint_one("crates/serve/src/server.rs", src).is_empty());
    }

    // -- epoch-threading ----------------------------------------------------

    #[test]
    fn epoch_less_publish_and_commit_seams_are_flagged() {
        let src = "fn f(&mut self) {\n    self.router.publish_incremental(snapshot, &rows);\n}\n\
                   fn g(&self) {\n    transport.commit(range);\n}\n";
        let diags = lint_one("crates/pipeline/src/lib.rs", src);
        assert_eq!(rule_ids(&diags), [EPOCH_THREADING, EPOCH_THREADING]);
        assert_eq!(diags[0].line, 2);
        assert!(
            diags[0].message.contains("publish_incremental"),
            "{}",
            diags[0].message
        );
        assert_eq!(diags[1].line, 5);
    }

    #[test]
    fn seams_that_thread_an_epoch_pass() {
        let call = "fn f(&mut self) {\n    \
                    self.router.publish_incremental(snapshot, &rows, self.served_epoch);\n}\n";
        assert!(lint_one("crates/pipeline/src/lib.rs", call).is_empty());
        // Any `*epoch*` identifier in the argument list counts, including
        // a signature's parameter name.
        let signature = "fn publish_full(&self, snapshot: InferenceSnapshot, base_epoch: u64) \
                         -> Result<u64, E> {\n    Ok(base_epoch + 1)\n}\n";
        assert!(lint_one("crates/pipeline/src/lib.rs", signature).is_empty());
    }

    #[test]
    fn epoch_rule_is_scoped_and_ignores_non_seam_idents() {
        // Outside the pipeline crate the same call is the router's own
        // business (it fences internally).
        let src = "fn f(&mut self) {\n    self.router.publish_incremental(snapshot, &rows);\n}\n";
        assert!(lint_one("crates/serve/src/router.rs", src).is_empty());
        // `publish_every` as a struct field (no call parens) is config, not
        // a seam; `republish(..)` does not match the prefix grammar.
        let config = "struct C {\n    publish_every: u64,\n}\n\
                      fn f() {\n    republish(rows);\n}\n";
        assert!(lint_one("crates/pipeline/src/lib.rs", config).is_empty());
        // Test code may drive seams without an epoch (fixtures).
        let in_tests = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
                        publish(snapshot);\n    }\n}\n";
        assert!(lint_one("crates/pipeline/src/lib.rs", in_tests).is_empty());
    }

    #[test]
    fn diagnostics_are_sorted_by_file_line_and_rule() {
        let alloc = "fn f(n: usize) -> Vec<u8> {\n    Vec::with_capacity(n)\n}\n";
        let locks = "fn g(&self) {\n    let a = self.m.lock();\n    let b = self.m.lock();\n}\n\
                     fn h(n: usize) -> Vec<u8> {\n    vec![0u8; n]\n}\n";
        let diags = run(&[
            (
                "crates/serve/src/transport.rs".to_string(),
                locks.to_string(),
            ),
            ("crates/serve/src/http.rs".to_string(), alloc.to_string()),
        ]);
        let keys: Vec<(&str, u32)> = diags.iter().map(|d| (d.file.as_str(), d.line)).collect();
        assert_eq!(
            keys,
            [
                ("crates/serve/src/http.rs", 2),
                ("crates/serve/src/transport.rs", 3),
                ("crates/serve/src/transport.rs", 6),
            ]
        );
    }
}
