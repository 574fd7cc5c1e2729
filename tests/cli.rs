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

/// Runs `volcast study` with `args` into a fresh directory and checks that
/// it fails naming `reason` — the session's own — and writes nothing.
fn study_is_refused(args: &[&str], reason: &str) {
    let dir = std::env::temp_dir().join(format!("volcast-cli-{}-{reason}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("study.json");
    let out = volcast(&[&["study", "--out", path.to_str().unwrap()][..], args].concat());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{args:?} exited 0");
    assert!(stderr.contains(reason), "{args:?}: {stderr}");
    assert!(!path.exists(), "{args:?} wrote a study");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A study without frames is one `StreamingSession::run` refuses.
#[test]
fn a_study_without_frames_is_refused_and_not_written() {
    study_is_refused(&["--frames", "0"], "user 0 has an empty trace");
}

/// A study without users is one `StreamingSession::run` refuses.
#[test]
fn a_study_without_users_is_refused_and_not_written() {
    study_is_refused(&["--phones", "0", "--headsets", "0"], "no user traces");
}

/// A study with users and frames is still written.
#[test]
fn a_valid_study_is_still_written() {
    let dir = std::env::temp_dir().join(format!("volcast-cli-ok-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("study.json");
    let args = ["study", "--frames", "2", "--phones", "1", "--headsets", "0"];
    let out = volcast(&[&args[..], &["--out", path.to_str().unwrap()]].concat());
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(path.exists());
    std::fs::remove_dir_all(&dir).unwrap();
}
