//! `saber-traind` exits 1 on a bad command line, before any training
//! starts, as its module doc promises (2 is reserved for runtime failures),
//! and publishes no epoch at shutdown that its last tick already published.

use std::process::Command;

#[test]
fn bad_command_lines_exit_with_the_usage_code() {
    for args in [
        &["--verbose"][..],
        &["--topics"],
        &["--topics", "many"],
        &["--preset", "wikipedia"],
        &["--topics", "0"],
        &["--warmup-docs", "0"],
        &["--stream-docs", "0"],
        &["--batch-docs", "0"],
        &["--iters-per-batch", "0"],
        &["--publish-every", "0"],
        &["--shards", "0"],
        // Above the V = 200 of the default stream.
        &["--shards", "201"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_saber-traind"))
            .args(args)
            .output()
            .expect("the daemon binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: saber-traind"), "{args:?}: {stderr}");
        assert!(!stderr.contains("warmup:"), "{args:?} trained: {stderr}");
    }
}

#[test]
fn a_stream_published_tick_by_tick_ends_without_an_empty_epoch() {
    // Three batches of 32 documents, each published by its own tick.
    let args = [
        "--stream-docs",
        "96",
        "--batch-docs",
        "32",
        "--topics",
        "8",
        "--warmup-docs",
        "64",
        "--warmup-iters",
        "2",
    ];
    let output = Command::new(env!("CARGO_BIN_EXE_saber-traind"))
        .args(args)
        .output()
        .expect("the daemon binary runs");
    let (stdout, stderr) = (
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
    assert_eq!(output.status.code(), Some(0), "{stderr}");
    let epochs: Vec<&str> = stdout
        .lines()
        .filter(|line| line.starts_with("epoch") || line.starts_with("final epoch"))
        .collect();
    assert_eq!(epochs.len(), 3, "{stdout}");
    assert!(
        epochs.iter().all(|line| line.starts_with("epoch")),
        "{stdout}"
    );
    // The fleet boots on the warm-up's model, so no epoch re-ships it.
    let summary = stdout
        .lines()
        .find(|line| line.starts_with("pipeline:"))
        .unwrap_or_else(|| panic!("no summary line: {stdout}"));
    assert!(summary.contains(" 0 fallbacks"), "{summary}");
}
