//! dgc-monitor CLI: lint snapshot logs, evaluate SLO specs, render the
//! HTML dashboard.
//!
//! Exit contract (shared with `dgc-insight`):
//! * `0` — success (`slo`: verdict ok or warn)
//! * `1` — finding (`lint`: invalid log; `slo`: breach)
//! * `2` — usage, I/O or parse error on inputs

use dgc_monitor::dashboard::{render_dashboard, BlameSection};
use dgc_monitor::openmetrics::parse_series;
use dgc_monitor::slo::{evaluate, SloSpec, Verdict};
use dgc_obs::SpanGraph;
use std::process::ExitCode;

const USAGE: &str = "usage:
  dgc-monitor lint <snapshots.om>
  dgc-monitor slo --spec <slo.json> --snapshots <snapshots.om> [--json <verdict.json>]
  dgc-monitor render --snapshots <snapshots.om> --out <dashboard.html> \\
                     [--spec <slo.json>] [--trace <trace.json>]

lint   validates a snapshot log against the strict OpenMetrics parser
       (exit 1 when the log is not canonical).
slo    evaluates burn-rate SLOs over the log (exit 1 on breach).
render writes a self-contained HTML dashboard.";

fn fail_usage(msg: &str) -> ExitCode {
    eprintln!("dgc-monitor: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn read(path: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(path).map_err(|e| {
        eprintln!("dgc-monitor: cannot read {path}: {e}");
        ExitCode::from(2)
    })
}

/// Pull the value after a `--flag` out of `args`.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => {
            if i + 1 >= args.len() {
                return Err(format!("{flag} needs a value"));
            }
            args.remove(i);
            Ok(Some(args.remove(i)))
        }
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return fail_usage("missing subcommand");
    }
    let cmd = args.remove(0);
    match cmd.as_str() {
        "lint" => lint(args),
        "slo" => slo(args),
        "render" => render(args),
        other => fail_usage(&format!("unknown subcommand '{other}'")),
    }
}

fn lint(args: Vec<String>) -> ExitCode {
    let [path] = args.as_slice() else {
        return fail_usage("lint takes exactly one snapshot log path");
    };
    let text = match read(path) {
        Ok(t) => t,
        Err(code) => return code,
    };
    match parse_series(&text) {
        Ok(series) => {
            println!(
                "{path}: OK — {} snapshot block{}",
                series.len(),
                if series.len() == 1 { "" } else { "s" }
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: INVALID — {e}");
            ExitCode::from(1)
        }
    }
}

fn slo(mut args: Vec<String>) -> ExitCode {
    let (spec_path, snap_path, json_out) = match (
        take_flag(&mut args, "--spec"),
        take_flag(&mut args, "--snapshots"),
        take_flag(&mut args, "--json"),
    ) {
        (Ok(Some(a)), Ok(Some(b)), Ok(c)) => (a, b, c),
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => return fail_usage(&e),
        _ => return fail_usage("slo needs --spec and --snapshots"),
    };
    if !args.is_empty() {
        return fail_usage(&format!("unexpected argument '{}'", args[0]));
    }
    let (spec_text, snap_text) = match (read(&spec_path), read(&snap_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(code), _) | (_, Err(code)) => return code,
    };
    let spec = match SloSpec::parse(&spec_text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("dgc-monitor: {spec_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let series = match parse_series(&snap_text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("dgc-monitor: {snap_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match evaluate(&spec, &series) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("dgc-monitor: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", report.render());
    if let Some(out) = json_out {
        if let Err(e) = dgc_obs::write_atomic(&out, report.to_json() + "\n") {
            eprintln!("dgc-monitor: cannot write {out}: {e}");
            return ExitCode::from(2);
        }
    }
    match report.verdict {
        Verdict::Breach => ExitCode::from(1),
        Verdict::Ok | Verdict::Warn => ExitCode::SUCCESS,
    }
}

fn render(mut args: Vec<String>) -> ExitCode {
    let (snap_path, out_path) = match (
        take_flag(&mut args, "--snapshots"),
        take_flag(&mut args, "--out"),
    ) {
        (Ok(Some(a)), Ok(Some(b))) => (a, b),
        (Err(e), _) | (_, Err(e)) => return fail_usage(&e),
        _ => return fail_usage("render needs --snapshots and --out"),
    };
    let (spec_path, trace_path) = match (
        take_flag(&mut args, "--spec"),
        take_flag(&mut args, "--trace"),
    ) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => return fail_usage(&e),
    };
    if !args.is_empty() {
        return fail_usage(&format!("unexpected argument '{}'", args[0]));
    }
    let snap_text = match read(&snap_path) {
        Ok(t) => t,
        Err(code) => return code,
    };
    let series = match parse_series(&snap_text) {
        Ok(s) if !s.is_empty() => s,
        Ok(_) => {
            eprintln!("dgc-monitor: {snap_path}: empty snapshot log");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("dgc-monitor: {snap_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match spec_path {
        None => None,
        Some(p) => {
            let text = match read(&p) {
                Ok(t) => t,
                Err(code) => return code,
            };
            let spec = match SloSpec::parse(&text) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("dgc-monitor: {p}: {e}");
                    return ExitCode::from(2);
                }
            };
            match evaluate(&spec, &series) {
                Ok(r) => Some(r),
                Err(e) => {
                    eprintln!("dgc-monitor: {e}");
                    return ExitCode::from(2);
                }
            }
        }
    };
    let blames = match trace_path {
        None => Vec::new(),
        Some(p) => {
            let text = match read(&p) {
                Ok(t) => t,
                Err(code) => return code,
            };
            let graph = match SpanGraph::from_chrome_trace(&text) {
                Ok(g) => g,
                Err(e) => {
                    eprintln!("dgc-monitor: {p}: {e}");
                    return ExitCode::from(2);
                }
            };
            let path = dgc_insight::CriticalPath::from_graph(&graph);
            vec![
                BlameSection {
                    title: "By stall class".into(),
                    table: dgc_insight::blame_stalls(&graph, &path),
                },
                BlameSection {
                    title: "By device".into(),
                    table: dgc_insight::blame_devices(&graph, &path),
                },
                BlameSection {
                    title: "By instance".into(),
                    table: dgc_insight::blame_instances(&graph, &path),
                },
            ]
        }
    };
    let html = render_dashboard(&series, report.as_ref(), &blames);
    if let Err(e) = dgc_obs::write_atomic(&out_path, html) {
        eprintln!("dgc-monitor: cannot write {out_path}: {e}");
        return ExitCode::from(2);
    }
    println!(
        "{out_path}: dashboard over {} snapshot{}",
        series.len(),
        if series.len() == 1 { "" } else { "s" }
    );
    ExitCode::SUCCESS
}
