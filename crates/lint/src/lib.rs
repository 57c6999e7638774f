//! `saber-lint` — workspace-native static analysis for the SaberLDA repo.
//!
//! Every guarantee this reproduction makes — stable wire bytes, bounded
//! decoding, deadlock-free fan-out, all-or-nothing epoch swaps — used to be
//! enforced only by differential tests after the fact. This crate checks
//! the *source* against those invariants before a test ever runs, in the
//! same dependency-free spirit as the hand-rolled JSON and HTTP layers:
//! a small Rust lexer ([`lexer`]) plus a lexical rule engine ([`rules`])
//! that walks the workspace and emits `file:line: rule-id: message`
//! diagnostics, exiting nonzero on violations.
//!
//! The four rules and the invariants they protect are catalogued in
//! `docs/LINTS.md`. They are the invariants no built-in lint can express;
//! panic-freedom and determinism are clippy's (`#![deny(..)]` in
//! `saber-serve` and here, `crates/core/clippy.toml`). The rules have no
//! inline suppression: a finding is fixed, or the lock-order table is
//! extended.

#![deny(missing_docs)]
// Panic-freedom: a CI gate that can panic is a gate that can be wedged
// open. Test code may unwrap.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable
    )
)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

pub mod lexer;
pub mod rules;

use std::path::{Path, PathBuf};

pub use rules::Diagnostic;

/// Directories never worth linting: build output, VCS internals, and the
/// vendored `rand`/`proptest` API stubs (external code held to external
/// standards).
const SKIP_DIRS: [&str; 3] = ["target", ".git", "compat"];

/// Collects every workspace `.rs` file under `root` (skipping
/// `SKIP_DIRS`) as `(workspace-relative path, content)` pairs, sorted by
/// path so diagnostics are stable across platforms.
///
/// # Errors
///
/// Returns the underlying I/O error when `root` cannot be walked or a
/// source file cannot be read.
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let file_type = entry.file_type()?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if file_type.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if file_type.is_file() && name.ends_with(".rs") {
                let content = std::fs::read_to_string(&path)?;
                files.push((relative_path(root, &path), content));
            }
        }
    }
    files.sort();
    Ok(files)
}

/// `root`-relative path with `/` separators (the form rule scopes match).
fn relative_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Finds the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` contains a `[workspace]` section, else `start` itself.
pub fn find_workspace_root(start: &Path) -> PathBuf {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(content) = std::fs::read_to_string(&manifest) {
            if content.contains("[workspace]") {
                return dir;
            }
        }
        match dir.parent() {
            Some(parent) => dir = parent.to_path_buf(),
            None => return start.to_path_buf(),
        }
    }
}

/// Renders diagnostics as `file:line: rule-id: message` lines.
pub fn render_text(diagnostics: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diagnostics {
        out.push_str(&format!(
            "{}:{}: {}: {}\n",
            d.file, d.line, d.rule, d.message
        ));
    }
    out
}
