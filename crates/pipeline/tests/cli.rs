//! `saber-traind` exits 1 on a bad command line, before any training
//! starts, as its module doc promises (2 is reserved for runtime failures).

use std::process::Command;

#[test]
fn bad_command_lines_exit_with_the_usage_code() {
    for args in [
        &["--verbose"][..],
        &["--topics"],
        &["--topics", "many"],
        &["--preset", "wikipedia"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_saber-traind"))
            .args(args)
            .output()
            .expect("the daemon binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: saber-traind"), "{args:?}: {stderr}");
    }
}
