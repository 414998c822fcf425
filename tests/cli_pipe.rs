//! The `rbp` CLI treats a reader that closes its pipe early (as in
//! `rbp gen grid 300 300 | head -1`) as a clean exit, not a panic.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn closed_stdout_pipe_is_a_clean_exit() {
    // Several megabytes of DAG text: far more than a pipe buffers, so
    // the CLI is still writing when the reader goes away.
    let mut child = Command::new(env!("CARGO_BIN_EXE_rbp"))
        .args(["gen", "grid", "300", "300"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn rbp");
    let mut first = String::new();
    {
        let mut reader = BufReader::new(child.stdout.take().expect("piped stdout"));
        reader.read_line(&mut first).expect("read one line");
        // Dropping the reader closes the pipe.
    }
    assert_eq!(first, "dag grid(300x300)\n");
    let out = child.wait_with_output().expect("wait for rbp");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "exit status {:?}, stderr: {stderr}",
        out.status
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
