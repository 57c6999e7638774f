//! The rule engine: eight lexical rules wired to the workspace invariants.
//!
//! Every rule is scoped to the files whose invariants it protects (see
//! `docs/LINTS.md` for the catalogue) and runs over the token stream of
//! [`LexedFile`], never over raw text — so comments, doc examples and
//! string fixtures can mention `unwrap()` freely.

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
pub const RULES: [&str; 8] = [
    NO_PANIC_SERVING,
    DETERMINISM,
    WIRE_GOLDEN_COVERAGE,
    NO_UNBOUNDED_ALLOC,
    LOCK_DISCIPLINE,
    BREAKER_INSTRUMENTATION,
    EPOCH_THREADING,
    BAD_SUPPRESSION,
];

/// Panic-freedom of the serving hot path (and of this linter itself).
pub const NO_PANIC_SERVING: &str = "no-panic-serving";
/// Bit-identical replay: no unordered iteration / wall-clock / OS entropy
/// in the float-accumulating core.
pub const DETERMINISM: &str = "determinism";
/// Every public wire codec is pinned by `tests/wire_golden.rs`.
pub const WIRE_GOLDEN_COVERAGE: &str = "wire-golden-coverage";
/// Allocation sizes decoded from the wire must be bound-checked first.
pub const NO_UNBOUNDED_ALLOC: &str = "no-unbounded-alloc-from-wire";
/// Lock guards must not span another acquisition unless the pair is in
/// [`ALLOWED_LOCK_ORDER`].
pub const LOCK_DISCIPLINE: &str = "lock-discipline";
/// Circuit-breaker state transitions must be counter-instrumented, so an
/// operator can see every trip and re-admission in `RouterStats`.
pub const BREAKER_INSTRUMENTATION: &str = "breaker-instrumentation";
/// Every `publish*`/`commit*` seam in the training pipeline must thread an
/// epoch value — an epoch-less publication cannot be fenced by the
/// two-phase commit and can tear a fleet across versions.
pub const EPOCH_THREADING: &str = "epoch-threading";
/// Meta-rule: malformed / reason-less / unused suppression comments.
pub const BAD_SUPPRESSION: &str = "bad-suppression";

/// The declared lock-order table for [`LOCK_DISCIPLINE`]: `(outer, inner)`
/// pairs that are allowed to nest, in this order only. Extend it (with a
/// review) rather than suppressing the rule inline.
///
/// * `publish_lock → reads`, `publish_lock → pipeline` — a publication,
///   serialised under the router's `publish_lock`, drains the reads in
///   flight and records its stats. Reads and `/stats` scrapes take `reads`
///   and `pipeline` alone, never `publish_lock`, so the reverse order
///   cannot occur.
pub const ALLOWED_LOCK_ORDER: [(&str, &str); 2] =
    [("publish_lock", "reads"), ("publish_lock", "pipeline")];

/// Runs every rule over `files` (workspace-relative path + content),
/// applies suppressions, and returns the surviving diagnostics sorted by
/// file, line and rule.
pub fn run(files: &[(String, String)]) -> Vec<Diagnostic> {
    let lexed: Vec<LexedFile> = files
        .iter()
        .map(|(path, content)| LexedFile::lex(path, content))
        .collect();
    let mut diagnostics = Vec::new();
    for file in &lexed {
        no_panic_serving(file, &mut diagnostics);
        determinism(file, &mut diagnostics);
        no_unbounded_alloc(file, &mut diagnostics);
        lock_discipline(file, &ALLOWED_LOCK_ORDER, &mut diagnostics);
        breaker_instrumentation(file, &mut diagnostics);
        epoch_threading(file, &mut diagnostics);
    }
    wire_golden_coverage(&lexed, &mut diagnostics);
    let mut diagnostics = apply_suppressions(&lexed, diagnostics);
    diagnostics
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    diagnostics
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

/// A parsed `// saber-lint: allow(rule-id) reason` comment.
struct Suppression {
    file: String,
    line: u32,
    /// The code line this suppression covers: the first line after the
    /// comment run it starts (a long reason may wrap onto more `//` lines).
    target: u32,
    rule: String,
    reason: String,
    used: bool,
}

/// Parses suppression comments, drops the diagnostics they cover (the
/// comment's own line — the trailing-comment form — or the first code line
/// below its comment run), and reports malformed, reason-less and unused
/// suppressions as [`BAD_SUPPRESSION`].
fn apply_suppressions(files: &[LexedFile], diagnostics: Vec<Diagnostic>) -> Vec<Diagnostic> {
    let mut suppressions: Vec<Suppression> = Vec::new();
    let mut bad = Vec::new();
    for file in files {
        for comment in &file.comments {
            let Some(rest) = comment.text.strip_prefix("saber-lint:") else {
                continue;
            };
            let rest = rest.trim();
            let parsed = rest.strip_prefix("allow(").and_then(|r| r.split_once(')'));
            let Some((rule, reason)) = parsed else {
                bad.push(Diagnostic {
                    file: file.rel_path.clone(),
                    line: comment.line,
                    rule: BAD_SUPPRESSION,
                    message: format!(
                        "malformed suppression `{}` — expected `saber-lint: allow(rule-id) reason`",
                        comment.text
                    ),
                });
                continue;
            };
            let rule = rule.trim();
            let reason = reason.trim_start_matches(':').trim();
            if !RULES.contains(&rule) {
                bad.push(Diagnostic {
                    file: file.rel_path.clone(),
                    line: comment.line,
                    rule: BAD_SUPPRESSION,
                    message: format!("suppression names unknown rule `{rule}`"),
                });
                continue;
            }
            if reason.is_empty() {
                bad.push(Diagnostic {
                    file: file.rel_path.clone(),
                    line: comment.line,
                    rule: BAD_SUPPRESSION,
                    message: format!(
                        "suppression of `{rule}` carries no reason — say why the invariant holds"
                    ),
                });
                continue;
            }
            // The reason may wrap onto further comment lines; the
            // suppression covers the first non-comment line after the run.
            let mut target = comment.line + 1;
            while file.comments.iter().any(|c| c.line == target) {
                target += 1;
            }
            suppressions.push(Suppression {
                file: file.rel_path.clone(),
                line: comment.line,
                target,
                rule: rule.to_string(),
                reason: reason.to_string(),
                used: false,
            });
        }
    }
    let mut kept = Vec::new();
    for diagnostic in diagnostics {
        let covered = suppressions.iter_mut().find(|s| {
            s.rule == diagnostic.rule
                && s.file == diagnostic.file
                && (s.line == diagnostic.line || s.target == diagnostic.line)
        });
        match covered {
            Some(s) => s.used = true,
            None => kept.push(diagnostic),
        }
    }
    for s in &suppressions {
        if !s.used {
            kept.push(Diagnostic {
                file: s.file.clone(),
                line: s.line,
                rule: BAD_SUPPRESSION,
                message: format!(
                    "unused suppression of `{}` (reason: {}) — the code below no longer \
                     triggers it; delete the comment",
                    s.rule, s.reason
                ),
            });
        }
    }
    kept.extend(bad);
    kept
}

// ---------------------------------------------------------------------------
// Rule 1: no-panic-serving
// ---------------------------------------------------------------------------

/// Files whose non-test code must not be able to panic: the serving crate
/// (a shard must degrade, not die) and this linter (it gates CI).
fn panic_free_scope(path: &str) -> bool {
    path.starts_with("crates/serve/src/") || path.starts_with("crates/lint/src/")
}

const PANIC_MACROS: [&str; 4] = ["panic", "todo", "unimplemented", "unreachable"];
/// Keywords that can legally precede a `[` without it being an index
/// expression (slice patterns, `in [..]`, …).
const NON_INDEX_KEYWORDS: [&str; 10] = [
    "let", "in", "match", "return", "if", "else", "mut", "ref", "move", "box",
];

fn no_panic_serving(file: &LexedFile, out: &mut Vec<Diagnostic>) {
    if !panic_free_scope(&file.rel_path) {
        return;
    }
    let is_wire = file.rel_path.ends_with("serve/src/wire.rs");
    for (i, token) in file.tokens.iter().enumerate() {
        if file.in_test[i] {
            continue;
        }
        // Indexing sub-check, only in the untrusted-input decode file:
        // `ident[...]` can panic on a hostile length. Macro brackets
        // (`vec![`), attributes (`#[`), slice patterns (`let [a, b]`) and
        // array types/literals never have a plain identifier before `[`.
        if is_wire && token.text == "[" && i >= 1 {
            let prev = &file.tokens[i - 1];
            if prev.kind == TokenKind::Ident && !NON_INDEX_KEYWORDS.contains(&prev.text.as_str()) {
                out.push(Diagnostic {
                    file: file.rel_path.clone(),
                    line: token.line,
                    rule: NO_PANIC_SERVING,
                    message: format!(
                        "`{}[..]` indexing in the untrusted-input decode path can panic \
                         on a hostile length; use iterator adapters or `get()`",
                        prev.text
                    ),
                });
            }
            continue;
        }
        if token.kind != TokenKind::Ident {
            continue;
        }
        match token.text.as_str() {
            "unwrap" | "expect"
                if file.text(i.wrapping_sub(1)) == "." && file.text(i + 1) == "(" =>
            {
                out.push(Diagnostic {
                    file: file.rel_path.clone(),
                    line: token.line,
                    rule: NO_PANIC_SERVING,
                    message: format!(
                        "`.{}()` can panic a serving thread; propagate a `ServeError` \
                         (or recover, e.g. `unwrap_or_else`) instead",
                        token.text
                    ),
                });
            }
            m if PANIC_MACROS.contains(&m) && file.text(i + 1) == "!" => {
                out.push(Diagnostic {
                    file: file.rel_path.clone(),
                    line: token.line,
                    rule: NO_PANIC_SERVING,
                    message: format!(
                        "`{m}!` aborts the serving thread; a shard must degrade \
                         (return an error), not die"
                    ),
                });
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 2: determinism
// ---------------------------------------------------------------------------

/// The float-accumulating core files whose output must replay bit-identically.
fn determinism_scope(path: &str) -> bool {
    [
        "crates/core/src/infer.rs",
        "crates/core/src/kernel.rs",
        "crates/core/src/sampling.rs",
        "crates/core/src/trainer.rs",
    ]
    .contains(&path)
}

fn determinism(file: &LexedFile, out: &mut Vec<Diagnostic>) {
    if !determinism_scope(&file.rel_path) {
        return;
    }
    let diag = |line: u32, message: String| Diagnostic {
        file: file.rel_path.clone(),
        line,
        rule: DETERMINISM,
        message,
    };
    for (i, token) in file.tokens.iter().enumerate() {
        if file.in_test[i] || token.kind != TokenKind::Ident {
            continue;
        }
        match token.text.as_str() {
            "HashMap" | "HashSet" => out.push(diag(
                token.line,
                format!(
                    "`{}` iteration order is nondeterministic and poisons float \
                     accumulation order; use `BTreeMap`/`Vec` keyed structures",
                    token.text
                ),
            )),
            "par_iter" | "into_par_iter" | "par_chunks" | "par_bridge" | "rayon" => out.push(diag(
                token.line,
                format!(
                    "`{}` makes float accumulation order scheduling-dependent; \
                         the core must reduce in a fixed sequential order",
                    token.text
                ),
            )),
            "thread_rng" | "from_entropy" => out.push(diag(
                token.line,
                format!(
                    "`{}` draws OS entropy; all randomness must come from the \
                     seeded request/trainer RNG so runs replay bit-identically",
                    token.text
                ),
            )),
            "Instant" | "SystemTime" if file.text(i + 1) == "::" && file.is_ident(i + 2, "now") => {
                out.push(diag(
                    token.line,
                    format!(
                        "`{}::now()` reads the wall clock; time-dependent control \
                         flow breaks bit-identical replay",
                        token.text
                    ),
                ));
            }
            "values" | "keys"
                if file.text(i + 1) == "("
                    && file.text(i + 2) == ")"
                    && file.text(i + 3) == "."
                    && ["sum", "fold", "product"].contains(&file.text(i + 4)) =>
            {
                out.push(diag(
                    token.line,
                    format!(
                        "accumulating over `.{}()` iterates a map in storage order; \
                         reduce over an explicitly ordered sequence instead",
                        token.text
                    ),
                ));
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 3: wire-golden-coverage
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
// Rule 4: no-unbounded-alloc-from-wire
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
// Rule 5: lock-discipline
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
// Rule 6: breaker-instrumentation
// ---------------------------------------------------------------------------

/// Where replica circuit breakers live: the router (which consults them)
/// and the transport layer (which defines them).
fn breaker_scope(path: &str) -> bool {
    [
        "crates/serve/src/router.rs",
        "crates/serve/src/transport.rs",
    ]
    .contains(&path)
}

/// Atomic methods that can flip a breaker's state word.
const STATE_TRANSITIONS: [&str; 3] = ["store", "swap", "compare_exchange"];

/// Flags breaker state transitions — a `store`/`swap`/`compare_exchange`
/// whose arguments name a `STATE_*` constant — inside functions with no
/// counter `fetch_add`. A silent flip is a breaker the operator cannot
/// see: every trip, probe and re-admission must reach `RouterStats` (and
/// from there `/stats` and `/metrics`).
fn breaker_instrumentation(file: &LexedFile, out: &mut Vec<Diagnostic>) {
    if !breaker_scope(&file.rel_path) {
        return;
    }
    for i in 0..file.tokens.len() {
        if file.in_test[i] {
            continue;
        }
        let transitioning = file.text(i) == "."
            && STATE_TRANSITIONS.contains(&file.text(i + 1))
            && file.text(i + 2) == "(";
        if !transitioning {
            continue;
        }
        let Some(close) = matching_delim(file, i + 2, "(", ")") else {
            continue;
        };
        let flips_state = (i + 3..close)
            .any(|k| file.tokens[k].kind == TokenKind::Ident && file.text(k).starts_with("STATE_"));
        if !flips_state {
            continue;
        }
        let Some(fn_start) = file.fn_body[i] else {
            continue;
        };
        let fn_name = file.text(fn_start + 1).to_string();
        let mut open = fn_start;
        while open < file.tokens.len() && file.text(open) != "{" {
            open += 1;
        }
        let fn_end = matching_delim(file, open, "{", "}").unwrap_or(file.tokens.len());
        let counted = (fn_start..fn_end).any(|k| file.is_ident(k, "fetch_add"));
        if !counted {
            out.push(Diagnostic {
                file: file.rel_path.clone(),
                line: file.tokens[i].line,
                rule: BREAKER_INSTRUMENTATION,
                message: format!(
                    "`{}` flips a breaker `STATE_*` word but `{fn_name}` bumps no \
                     counter (`fetch_add`) — the transition is invisible to \
                     `RouterStats`, `/stats` and `/metrics`; count it (trips, \
                     probes or readmits)",
                    file.text(i + 1)
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 7: epoch-threading
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

    // -- no-panic-serving ---------------------------------------------------

    #[test]
    fn flags_unwrap_expect_and_panic_macros_in_serve() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n\
                   fn g(x: Option<u32>) -> u32 {\n    x.expect(\"boom\")\n}\n\
                   fn h() {\n    unreachable!(\"no\")\n}\n";
        let diags = lint_one("crates/serve/src/foo.rs", src);
        assert_eq!(
            rule_ids(&diags),
            [NO_PANIC_SERVING, NO_PANIC_SERVING, NO_PANIC_SERVING]
        );
        assert_eq!(diags[0].line, 2);
        assert_eq!(diags[1].line, 5);
        assert_eq!(diags[2].line, 8);
    }

    #[test]
    fn flags_indexing_only_in_the_wire_decode_file() {
        let src = "fn f(v: &[u32], i: usize) -> u32 {\n    v[i]\n}\n";
        let wire = lint_one("crates/serve/src/wire.rs", src);
        assert_eq!(rule_ids(&wire), [NO_PANIC_SERVING]);
        assert!(wire[0].message.contains("v[..]"), "{}", wire[0].message);
        // The same indexing elsewhere in serve is not an untrusted-length
        // hazard and stays quiet.
        assert!(lint_one("crates/serve/src/foo.rs", src).is_empty());
    }

    #[test]
    fn panic_rule_ignores_tests_and_out_of_scope_files() {
        let in_tests = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
                        None::<u32>.unwrap();\n        panic!(\"fine in tests\");\n    }\n}\n";
        assert!(lint_one("crates/serve/src/foo.rs", in_tests).is_empty());
        let unwrap = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert!(lint_one("crates/core/src/lib.rs", unwrap).is_empty());
        // Comments and string fixtures may say `unwrap()` freely: rules see
        // tokens, and literals are opaque.
        let in_text = "// call .unwrap() here\nfn f() -> &'static str { \".unwrap()\" }\n";
        assert!(lint_one("crates/serve/src/foo.rs", in_text).is_empty());
    }

    #[test]
    fn suppression_with_reason_silences_the_panic_rule() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    \
                   // saber-lint: allow(no-panic-serving) invariant: x is Some by construction\n    \
                   x.unwrap()\n}\n";
        assert!(lint_one("crates/serve/src/foo.rs", src).is_empty());
    }

    #[test]
    fn suppression_covers_a_wrapped_comment_run() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    \
                   // saber-lint: allow(no-panic-serving) a reason so long that\n    \
                   // it wraps onto a second comment line\n    \
                   x.unwrap()\n}\n";
        assert!(lint_one("crates/serve/src/foo.rs", src).is_empty());
    }

    // -- determinism --------------------------------------------------------

    #[test]
    fn flags_hash_collections_entropy_and_wall_clock_in_core() {
        let src = "use std::collections::HashMap;\n\
                   fn f() {\n    let t = Instant::now();\n    let r = thread_rng();\n}\n";
        let diags = lint_one("crates/core/src/kernel.rs", src);
        assert_eq!(rule_ids(&diags), [DETERMINISM, DETERMINISM, DETERMINISM]);
        assert_eq!(diags[0].line, 1);
    }

    #[test]
    fn flags_accumulation_over_map_iteration_order() {
        let src = "fn f(m: &std::collections::BTreeMap<u32, f64>) -> f64 {\n    \
                   m.values().sum()\n}\n";
        let diags = lint_one("crates/core/src/sampling.rs", src);
        assert_eq!(rule_ids(&diags), [DETERMINISM]);
        assert!(diags[0].message.contains("values"), "{}", diags[0].message);
    }

    #[test]
    fn determinism_rule_is_scoped_and_suppressible() {
        let hash = "use std::collections::HashMap;\n";
        // model_io.rs is not in the float-accumulating core.
        assert!(lint_one("crates/core/src/model_io.rs", hash).is_empty());
        let suppressed = "fn f() {\n    \
            // saber-lint: allow(determinism) wall clock is reported, never fed back\n    \
            let t = Instant::now();\n}\n";
        assert!(lint_one("crates/core/src/trainer.rs", suppressed).is_empty());
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

    // -- bad-suppression ----------------------------------------------------

    #[test]
    fn malformed_unknown_and_reasonless_suppressions_are_errors() {
        let malformed = "// saber-lint: allowing stuff\nfn f() {}\n";
        let diags = lint_one("crates/serve/src/foo.rs", malformed);
        assert_eq!(rule_ids(&diags), [BAD_SUPPRESSION]);
        assert!(diags[0].message.contains("malformed"));
        let unknown = "// saber-lint: allow(no-such-rule) because\nfn f() {}\n";
        let diags = lint_one("crates/serve/src/foo.rs", unknown);
        assert_eq!(rule_ids(&diags), [BAD_SUPPRESSION]);
        assert!(diags[0].message.contains("unknown rule"));
        let reasonless = "fn f(x: Option<u32>) -> u32 {\n    \
                          // saber-lint: allow(no-panic-serving)\n    x.unwrap()\n}\n";
        let diags = lint_one("crates/serve/src/foo.rs", reasonless);
        // The suppression is rejected, so the unwrap still fires too.
        assert_eq!(rule_ids(&diags), [BAD_SUPPRESSION, NO_PANIC_SERVING]);
        assert!(diags[0].message.contains("no reason"));
    }

    // -- breaker-instrumentation --------------------------------------------

    #[test]
    fn uncounted_breaker_transition_is_flagged() {
        let src = "fn trip(&self) {\n    \
                   self.state.store(STATE_OPEN, Ordering::SeqCst);\n}\n";
        let diags = lint_one("crates/serve/src/transport.rs", src);
        assert_eq!(rule_ids(&diags), [BREAKER_INSTRUMENTATION]);
        assert_eq!(diags[0].line, 2);
        assert!(
            diags[0].message.contains("fetch_add"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn counted_breaker_transitions_pass() {
        let counted = "fn trip(&self) {\n    \
                       self.state.store(STATE_OPEN, Ordering::SeqCst);\n    \
                       self.trips.fetch_add(1, Ordering::Relaxed);\n}\n";
        assert!(lint_one("crates/serve/src/transport.rs", counted).is_empty());
        let exchanged = "fn admit(&self) -> bool {\n    \
                         self.probes.fetch_add(1, Ordering::Relaxed);\n    \
                         self.state\n        .compare_exchange(STATE_OPEN, STATE_HALF_OPEN, \
                         Ordering::SeqCst, Ordering::SeqCst)\n        .is_ok()\n}\n";
        assert!(lint_one("crates/serve/src/router.rs", exchanged).is_empty());
    }

    #[test]
    fn breaker_rule_ignores_plain_atomics_tests_and_other_files() {
        // A store of something that is not a STATE_* word is not a breaker
        // transition.
        let plain = "fn bump(&self) {\n    self.epoch.store(epoch, Ordering::SeqCst);\n}\n";
        assert!(lint_one("crates/serve/src/transport.rs", plain).is_empty());
        // Outside the breaker scope the same code is fine.
        let src = "fn trip(&self) {\n    \
                   self.state.store(STATE_OPEN, Ordering::SeqCst);\n}\n";
        assert!(lint_one("crates/serve/src/server.rs", src).is_empty());
        // And test code may drive state words directly.
        let in_tests = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
                        b.state.store(STATE_OPEN, Ordering::SeqCst);\n    }\n}\n";
        assert!(lint_one("crates/serve/src/transport.rs", in_tests).is_empty());
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
    fn unused_suppressions_are_errors() {
        let src = "// saber-lint: allow(no-panic-serving) stale claim\nfn f() {}\n";
        let diags = lint_one("crates/serve/src/foo.rs", src);
        assert_eq!(rule_ids(&diags), [BAD_SUPPRESSION]);
        assert!(diags[0].message.contains("unused"));
    }

    #[test]
    fn diagnostics_are_sorted_by_file_line_and_rule() {
        let a = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
        let b = "fn g(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\nfn h() {\n    panic!()\n}\n";
        let diags = run(&[
            ("crates/serve/src/zzz.rs".to_string(), a.to_string()),
            ("crates/serve/src/aaa.rs".to_string(), b.to_string()),
        ]);
        let keys: Vec<(&str, u32)> = diags.iter().map(|d| (d.file.as_str(), d.line)).collect();
        assert_eq!(
            keys,
            [
                ("crates/serve/src/aaa.rs", 2),
                ("crates/serve/src/aaa.rs", 5),
                ("crates/serve/src/zzz.rs", 2),
            ]
        );
    }
}
