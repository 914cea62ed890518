//! The run-analysis command line.
//!
//! ```text
//! dgc-insight analyze --trace <trace.json> [--out <report.md>] [--flame-out <stacks.folded>]
//! dgc-insight append  --perfbench <result> --workload <w> --seconds <s>
//!                     --ledger <ledger.jsonl> [--timestamp <iso8601>]
//! dgc-insight report  --ledger <ledger.jsonl> [--out <report.md>]
//! dgc-insight check   --ledger <ledger.jsonl> [--tolerance 0.5] [--window 5]
//! dgc-insight flame-check <stacks.folded>
//! dgc-insight trace-check <trace.json> [<more.json> ...]
//! ```
//!
//! Exit codes: `0` pass, `1` regression (or an invalid flamegraph or
//! trace), `2` usage, I/O or parse error.
//!
//! `append` reads the last line of a saved `perfbench/run.py --trace 0`
//! stdout and appends it as one row, keyed by the run's workload and
//! seconds. A run that is not `correct`, failed any unit or is traced
//! (it has no `wall_s`) is refused (exit 2) and nothing is appended.
//!
//! `analyze` reconstructs a span graph from a merged Chrome trace — an
//! approximate path (durations round-trip through µs). For the
//! bit-exact report, use `ensemble-cli --insight-out`, which renders
//! from the in-process graph.

use dgc_insight::{
    folded_stacks, git_rev, iso8601_utc, render_report, validate_folded, Ledger, LedgerEntry,
    PerfbenchResult,
};
use dgc_obs::SpanGraph;

fn fail_usage(msg: &str) -> ! {
    eprintln!("dgc-insight: {msg}");
    eprintln!(
        "usage: dgc-insight analyze --trace <trace.json> [--out <md>] [--flame-out <folded>]"
    );
    eprintln!("       dgc-insight append --perfbench <result> --workload <w> --seconds <s>");
    eprintln!("                          --ledger <ledger.jsonl> [--timestamp <iso>]");
    eprintln!("       dgc-insight report --ledger <ledger.jsonl> [--out <md>]");
    eprintln!("       dgc-insight check --ledger <ledger.jsonl> [--tolerance 0.5] [--window 5]");
    eprintln!("       dgc-insight flame-check <stacks.folded>");
    eprintln!("       dgc-insight trace-check <trace.json> [<more.json> ...]");
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("dgc-insight: {msg}");
    std::process::exit(2);
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")))
}

fn write(path: &str, text: &str) {
    dgc_obs::write_atomic(path, text)
        .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
}

/// Flag parser over `(name, value)` pairs; positional args rejected.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], allowed: &[&str]) -> Flags {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if !allowed.contains(&a.as_str()) {
                fail_usage(&format!("unknown flag {a}"));
            }
            let v = it
                .next()
                .unwrap_or_else(|| fail_usage(&format!("{a} needs a value")));
            pairs.push((a.clone(), v.clone()));
        }
        Flags(pairs)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn require(&self, name: &str) -> &str {
        self.get(name)
            .unwrap_or_else(|| fail_usage(&format!("{name} is required")))
    }

    fn get_f64(&self, name: &str) -> Option<f64> {
        self.get(name).map(|v| {
            v.parse()
                .unwrap_or_else(|_| fail_usage(&format!("bad value for {name}: '{v}'")))
        })
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        fail_usage("missing subcommand");
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "analyze" => {
            let f = Flags::parse(rest, &["--trace", "--out", "--flame-out"]);
            let trace = read(f.require("--trace"));
            let graph = SpanGraph::from_chrome_trace(&trace)
                .unwrap_or_else(|e| fail(&format!("trace: {e}")));
            let report = render_report(&graph, None);
            match f.get("--out") {
                Some(path) => {
                    write(path, &report);
                    eprintln!("wrote report {path}");
                }
                None => print!("{report}"),
            }
            if let Some(path) = f.get("--flame-out") {
                let stacks = folded_stacks(&graph);
                validate_folded(&stacks)
                    .unwrap_or_else(|e| fail(&format!("generated flamegraph invalid: {e}")));
                write(path, &stacks);
                eprintln!("wrote flamegraph {path}");
            }
        }
        "append" => {
            let f = Flags::parse(
                rest,
                &[
                    "--perfbench",
                    "--workload",
                    "--seconds",
                    "--ledger",
                    "--timestamp",
                ],
            );
            let run = PerfbenchResult::parse(&read(f.require("--perfbench")))
                .unwrap_or_else(|e| fail(&format!("perfbench result: {e}")));
            let workload = f.require("--workload");
            if workload.is_empty() {
                fail_usage("--workload needs a name");
            }
            let seconds = f.require("--seconds");
            let seconds = seconds
                .parse::<f64>()
                .ok()
                .filter(|s| s.is_finite() && *s > 0.0)
                .unwrap_or_else(|| fail_usage(&format!("bad value for --seconds: '{seconds}'")));
            let ledger_path = f.require("--ledger");
            let timestamp = f
                .get("--timestamp")
                .map(|t| t.to_string())
                .unwrap_or_else(|| {
                    let now = std::time::SystemTime::now()
                        .duration_since(std::time::UNIX_EPOCH)
                        .map(|d| d.as_secs())
                        .unwrap_or(0);
                    iso8601_utc(now)
                });
            let entry = LedgerEntry::from_perfbench(run, workload, seconds, &git_rev(), &timestamp)
                .unwrap_or_else(|e| fail(&e));
            // Validate the existing ledger before appending, so a broken
            // file fails loudly instead of growing.
            let mut text = std::fs::read_to_string(ledger_path).unwrap_or_default();
            Ledger::load(&text).unwrap_or_else(|e| fail(&format!("{ledger_path}: {e}")));
            if !text.is_empty() && !text.ends_with('\n') {
                text.push('\n');
            }
            text.push_str(&entry.to_json_line());
            text.push('\n');
            write(ledger_path, &text);
            eprintln!(
                "appended {} @ {} to {ledger_path}",
                entry.git_rev, entry.timestamp
            );
        }
        "report" => {
            let f = Flags::parse(rest, &["--ledger", "--out"]);
            // Read paths tolerate a corrupt/truncated row (e.g. a
            // half-written trailing line from an interrupted append):
            // it is skipped with a warning, the valid rows still report.
            let (ledger, warnings) = Ledger::load_lossy(&read(f.require("--ledger")));
            for w in &warnings {
                eprintln!("dgc-insight: ledger: {w}");
            }
            let report = ledger.report();
            match f.get("--out") {
                Some(path) => {
                    write(path, &report);
                    eprintln!("wrote report {path}");
                }
                None => print!("{report}"),
            }
        }
        "check" => {
            let f = Flags::parse(rest, &["--ledger", "--tolerance", "--window"]);
            let tolerance = f.get_f64("--tolerance").unwrap_or(0.5);
            if !(0.0..1.0).contains(&tolerance) {
                fail_usage("tolerance must be in [0, 1)");
            }
            let window = f
                .get("--window")
                .map(|v| {
                    v.parse::<usize>()
                        .unwrap_or_else(|_| fail_usage(&format!("bad window '{v}'")))
                })
                .unwrap_or(5)
                .max(1);
            let (ledger, warnings) = Ledger::load_lossy(&read(f.require("--ledger")));
            for w in &warnings {
                eprintln!("dgc-insight: ledger: {w}");
            }
            let check = ledger.check(tolerance, window).unwrap_or_else(|e| fail(&e));
            print!("{}", check.render());
            std::process::exit(if check.has_regressions() { 1 } else { 0 });
        }
        "flame-check" => {
            let [path] = rest else {
                fail_usage("flame-check takes exactly one path");
            };
            match validate_folded(&read(path)) {
                Ok(n) => println!("{path}: {n} stacks ok"),
                Err(e) => {
                    eprintln!("dgc-insight: {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        "trace-check" => {
            if rest.is_empty() {
                fail_usage("trace-check takes one or more paths");
            }
            for path in rest {
                match dgc_obs::validate_chrome_trace(&read(path)) {
                    Ok(n) => println!("{path}: ok ({n} events)"),
                    Err(e) => {
                        eprintln!("dgc-insight: {path}: {e}");
                        std::process::exit(1);
                    }
                }
            }
        }
        other => fail_usage(&format!("unknown subcommand '{other}'")),
    }
}
