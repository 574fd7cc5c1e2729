//! The `volcast` binary rejects command lines it would otherwise misread.

use std::process::{Command, Output};

fn volcast(args: &[&str]) -> Output {
    (Command::new(env!("CARGO_BIN_EXE_volcast")).args(args))
        .env_remove("VOLCAST_FAULTS")
        .output()
        .expect("the volcast binary runs")
}

/// A misspelt flag and a flag of another subcommand are errors naming the
/// flag — not a session run on defaults with the flag dropped.
#[test]
fn unknown_flags_are_errors_naming_the_flag() {
    for (args, flag) in [
        (&["session", "--user", "2", "--frames", "2"][..], "--user"),
        (&["session", "--out", "x.json"][..], "--out"),
    ] {
        let out = volcast(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} exited 0");
        assert!(
            stderr.contains(&format!("'{flag}'")),
            "{args:?}: stderr does not name {flag}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran a session");
    }
}

#[test]
fn a_valid_session_command_line_still_runs() {
    let out = volcast(&["session", "--users", "2", "--frames", "2"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 Headset users, 2 frames"), "{stdout}");
}
