//! Exit-code contract of `dgc-insight append` and `check` over perfbench
//! result lines, and of `trace-check` over Chrome traces — what `ci.sh`
//! relies on.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn write_temp(name: &str, content: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("dgc-insight-test-{}-{name}", std::process::id()));
    std::fs::write(&path, content).unwrap();
    path
}

/// An untraced perfbench result line.
fn result_line(correct: bool, failed: u64, rate: f64) -> String {
    format!(
        r#"{{"correct": {correct}, "attempted": 576, "failed": {failed}, "metrics": {{"wall_s": {{"value": 0.36, "unit": "s"}}, "instances_per_s": {{"value": {rate}, "unit": "1/s"}}, "sim_insts_per_s": {{"value": 9.4e6, "unit": "1/s"}}}}}}"#
    )
}

fn insight(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dgc-insight"))
        .args(args)
        .output()
        .unwrap()
}

fn append(result: &Path, ledger: &Path) -> Output {
    insight(&[
        "append",
        "--perfbench",
        result.to_str().unwrap(),
        "--workload",
        "serve-closed",
        "--seconds",
        "55",
        "--ledger",
        ledger.to_str().unwrap(),
    ])
}

#[test]
fn append_records_clean_runs_and_refuses_the_rest() {
    let ledger = write_temp("ledger.jsonl", "");
    let good = write_temp("good.json", &format!("{}\n", result_line(true, 0, 530.0)));
    let out = append(&good, &ledger);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let before = std::fs::read_to_string(&ledger).unwrap();
    assert_eq!(before.lines().count(), 1);
    assert!(before.contains(r#""schema":2"#), "{before}");

    // Incorrect outputs, failed units, a traced line (no wall_s) and a
    // line that is not JSON are all refused with exit 2, and nothing is
    // appended.
    for result in [
        result_line(false, 0, 530.0),
        result_line(true, 2, 530.0),
        result_line(true, 0, 530.0).replace("wall_s", "trace_overhead"),
        "not json".to_string(),
    ] {
        let path = write_temp("refused.json", &result);
        let out = append(&path, &ledger);
        assert_eq!(out.status.code(), Some(2), "{result}: {out:?}");
        assert_eq!(std::fs::read_to_string(&ledger).unwrap(), before);
    }

    // The gate: steady rates pass, a collapse past the tolerance fails.
    let ledger_arg = ledger.to_str().unwrap();
    assert_eq!(append(&good, &ledger).status.code(), Some(0));
    let check = ["check", "--ledger", ledger_arg, "--tolerance", "0.8"];
    assert_eq!(insight(&check).status.code(), Some(0));
    let slow = write_temp("slow.json", &result_line(true, 0, 50.0));
    assert_eq!(append(&slow, &ledger).status.code(), Some(0));
    let out = insight(&check);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("REGRESSED serve-closed instances/s"));
}

#[test]
fn trace_check_exit_codes() {
    let good = write_temp(
        "trace_good.json",
        r#"{"traceEvents":[{"name":"a","ph":"X","pid":0,"tid":0,"ts":0,"dur":1}]}"#,
    );
    let bad = write_temp(
        "trace_bad.json",
        r#"{"traceEvents":[{"ph":"B","name":"a","pid":0}]}"#,
    );

    let out = insight(&["trace-check", good.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("ok (1 events)"));

    let out = insight(&["trace-check", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");

    let out = insight(&["trace-check"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");

    let _ = std::fs::remove_file(good);
    let _ = std::fs::remove_file(bad);
}
