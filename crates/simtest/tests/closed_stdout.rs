//! `sim` piped into a reader that has already gone away (`sim repro 7 |
//! head -1` once `head` has its line) exits quietly instead of panicking
//! in `println!`.

use std::process::{Command, Stdio};

#[test]
fn a_closed_stdout_ends_sim_quietly() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_sim"))
        .args(["repro", "7"])
        .stdout(writer)
        .stderr(Stdio::piped())
        .spawn()
        .expect("sim starts")
        .wait_with_output()
        .expect("sim ends");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert_eq!(out.status.code(), Some(141), "stderr: {stderr}");
}
