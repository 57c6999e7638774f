//! End-to-end tests of the `saber-lint` binary: builds a throwaway
//! workspace tree on disk, runs the real executable over it with `--root`,
//! and checks the text output and the exit codes.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A temp workspace tree, removed on drop.
struct TempTree(PathBuf);

impl TempTree {
    fn new(name: &str) -> TempTree {
        let root = std::env::temp_dir().join(format!("saber-lint-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).unwrap();
        TempTree(root)
    }

    fn write(&self, rel: &str, content: &str) {
        let path = self.0.join(rel);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(path, content).unwrap();
    }

    fn root(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempTree {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn run_lint(root: &Path, extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_saber-lint"))
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .expect("saber-lint binary runs")
}

#[test]
fn clean_tree_exits_zero() {
    let tree = TempTree::new("clean");
    tree.write("Cargo.toml", "[workspace]\n");
    tree.write(
        "crates/serve/src/lib.rs",
        "pub fn double(x: u32) -> u32 {\n    x * 2\n}\n",
    );
    let out = run_lint(tree.root(), &[]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("1 files clean"), "{stdout}");
}

#[test]
fn violations_exit_one_with_file_line_rule_diagnostics() {
    let tree = TempTree::new("dirty");
    tree.write("Cargo.toml", "[workspace]\n");
    tree.write(
        "crates/serve/src/http.rs",
        "pub fn read(n: usize) -> Vec<u8> {\n    Vec::with_capacity(n)\n}\n",
    );
    let out = run_lint(tree.root(), &[]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("crates/serve/src/http.rs:2: no-unbounded-alloc-from-wire:"),
        "{stdout}"
    );
}

#[test]
fn target_and_hidden_directories_are_skipped() {
    let tree = TempTree::new("skips");
    tree.write("Cargo.toml", "[workspace]\n");
    let unbounded = "pub fn read(n: usize) -> Vec<u8> { Vec::with_capacity(n) }\n";
    tree.write("target/release/build/generated.rs", unbounded);
    tree.write(".git/hooks/sample.rs", unbounded);
    tree.write("crates/serve/src/lib.rs", "pub fn ok() {}\n");
    let out = run_lint(tree.root(), &[]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("1 files clean"), "{stdout}");
}

#[test]
fn usage_errors_exit_two() {
    let out = Command::new(env!("CARGO_BIN_EXE_saber-lint"))
        .arg("--no-such-flag")
        .output()
        .expect("saber-lint binary runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let out = Command::new(env!("CARGO_BIN_EXE_saber-lint"))
        .args(["--root", "/nonexistent/saber-lint-test-path"])
        .output()
        .expect("saber-lint binary runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn the_real_workspace_is_clean() {
    // The repo this linter ships in must satisfy its own gate — the same
    // invocation CI runs. CARGO_MANIFEST_DIR is crates/lint, two levels in.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap();
    let out = run_lint(root, &[]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "workspace lint violations:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}
