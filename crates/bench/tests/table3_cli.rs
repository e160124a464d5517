//! The `table3` binary rejects a `--methods` label outside the roster
//! before it generates any data.

use std::process::Command;

#[test]
fn unknown_method_label_exits_two_and_lists_the_roster() {
    let out = Command::new(env!("CARGO_BIN_EXE_table3"))
        .args(["--methods", "s2g,stmop"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no table may be printed");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("\"stmop\""), "{stderr}");
    for label in [
        "GV", "STOMP", "DAD", "LOF", "IF", "LSTM-AD", "S2G|T|/2", "S2G",
    ] {
        assert!(
            stderr.contains(label),
            "valid label {label} not listed: {stderr}"
        );
    }
}
