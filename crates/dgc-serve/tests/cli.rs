//! Usage errors of the `dgc-serve` binary: counts that must be at least
//! 1 exit 2 before a journal is created, instead of panicking mid-run.

use std::process::Command;

#[test]
fn zero_wave_and_attempt_counts_are_usage_errors() {
    let dir = std::env::temp_dir().join(format!("dgc-serve-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let jobs = dir.join("jobs.jsonl");
    std::fs::write(
        &jobs,
        "{\"op\":\"submit\",\"job\":\"j1\",\"app\":\"xsbench\",\"args\":\"-g 300 -l 16\"}\n",
    )
    .unwrap();
    for (flag, value) in [
        ("--max-wave", "0"),
        ("--max-attempts", "0"),
        ("--max-wave", "-1"),
    ] {
        let journal = dir.join("journal");
        let out = Command::new(env!("CARGO_BIN_EXE_dgc-serve"))
            .args(["run", "--journal"])
            .arg(&journal)
            .arg("--jobs")
            .arg(&jobs)
            .args([flag, value, "--quiet"])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert!(
            stderr.contains(&format!("{flag} must be a whole number of at least 1")),
            "{stderr}"
        );
        assert!(!journal.exists(), "{flag} {value} created a journal");
    }
}
