//! The `experiments` binary's command line: a closed stdout is no failure,
//! and a rack scale of zero is refused before anything runs.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_experiments");

/// A reader that closed its end of the pipe before the first write is no
/// error: the static tables and the model sweep stop writing and exit 0,
/// with no panic.
#[test]
fn a_closed_stdout_ends_quietly() {
    for target in ["fig2", "model"] {
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let output = Command::new(BIN)
            .arg(target)
            .stdout(writer)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(0), "{target}: {stderr}");
        assert!(!stderr.contains("panicked"), "{target}: {stderr}");
    }
}

/// `--racks 0` is a bad command line: exit 2 with a message naming the
/// flag and the usage text, and no replay.
#[test]
fn zero_racks_are_refused() {
    for args in [&["--racks", "0"][..], &["fig6", "--racks", "0"]] {
        let output = Command::new(BIN).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        let mut lines = stderr.lines();
        assert_eq!(lines.next(), Some("error: --racks must be >= 1, got 0"));
        assert!(
            lines
                .next()
                .is_some_and(|l| l.starts_with("usage: experiments")),
            "{stderr}"
        );
        assert!(output.stdout.is_empty(), "{args:?} printed to stdout");
    }
}
