//! The `saber-lint` CLI.
//!
//! ```text
//! saber-lint [--root <dir>]
//! ```
//!
//! Walks the workspace (auto-discovered from the current directory, or
//! `--root`), runs every rule, and prints `file:line: rule-id: message`
//! diagnostics.
//!
//! Exit codes: `0` clean, `1` violations found, `2` usage or I/O error.

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

use std::path::PathBuf;
use std::process::ExitCode;

use saber_lint::{collect_sources, find_workspace_root, render_text, rules};

/// The `--root` directory, if given.
fn parse_args(args: &[String]) -> Result<Option<PathBuf>, String> {
    let mut root = None;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return Err("--root requires a directory argument".to_string()),
            },
            "--help" | "-h" => return Err("usage: saber-lint [--root <dir>]".to_string()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(root)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = match parse_args(&args) {
        Ok(root) => root,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let root = root.unwrap_or_else(|| {
        let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
        find_workspace_root(&cwd)
    });
    let sources = match collect_sources(&root) {
        Ok(sources) => sources,
        Err(e) => {
            eprintln!("saber-lint: cannot read {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let diagnostics = rules::run(&sources);
    print!("{}", render_text(&diagnostics));
    if diagnostics.is_empty() {
        println!(
            "saber-lint: {} files clean ({} rules)",
            sources.len(),
            rules::RULES.len()
        );
    } else {
        eprintln!("saber-lint: {} violation(s)", diagnostics.len());
    }
    if diagnostics.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
