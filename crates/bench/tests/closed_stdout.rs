//! `figures` piped into a reader that has already gone away (`figures
//! --smoke planner | head -1` once `head` has its line) exits quietly
//! instead of panicking in `println!`.

use std::process::{Command, Stdio};

#[test]
fn a_closed_stdout_ends_figures_quietly() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--smoke", "planner"])
        .env("OASSIS_FIGURES_JSON", "-")
        .stdout(writer)
        .stderr(Stdio::piped())
        .spawn()
        .expect("figures starts")
        .wait_with_output()
        .expect("figures ends");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert_eq!(out.status.code(), Some(141), "stderr: {stderr}");
}
