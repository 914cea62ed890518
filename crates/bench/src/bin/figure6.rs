//! Regenerate the paper's Figure 6: relative speedup of the four
//! benchmarks under ensemble execution, at thread limits 32 and 1024.
//!
//! ```text
//! cargo run --release -p dgc-bench --bin figure6               # both panels
//! cargo run --release -p dgc-bench --bin figure6 -- --thread-limit 32
//! cargo run --release -p dgc-bench --bin figure6 -- --smoke    # quick sizes
//! cargo run --release -p dgc-bench --bin figure6 -- --json out.json
//! cargo run --release -p dgc-bench --bin figure6 -- --metrics-out m.jsonl
//! cargo run --release -p dgc-bench --bin figure6 -- --monitor-out s.om
//! ```
//!
//! `--monitor-out <snapshots.om>` streams OpenMetrics snapshots of the
//! sweep's operational metrics (instances completed, kernel launches,
//! heap high-water, latency percentiles) every `--monitor-interval <ms>`
//! (default 1000) plus a final snapshot at exit — the same format the
//! ensembler CLI emits, lintable and renderable by the `dgc-monitor`
//! binary.

use dgc_bench::{
    default_workloads, device_by_name, run_figure6_panel, smoke_workloads, THREAD_LIMITS,
};
use dgc_monitor::{MonitorRegistry, MonitorWriter};
use dgc_obs::MonitorSink;
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut thread_limits: Vec<u32> = THREAD_LIMITS.to_vec();
    let mut smoke = false;
    let mut extended = false;
    let mut device = "a100".to_string();
    let mut json_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut monitor_path: Option<String> = None;
    let mut monitor_interval_ms = 1000u64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--thread-limit" => {
                let v = it.next().expect("--thread-limit needs a value");
                thread_limits = vec![v.parse().expect("thread limit must be a number")];
            }
            "--smoke" => smoke = true,
            "--extended" => extended = true,
            "--device" => device = it.next().expect("--device needs a name").clone(),
            "--json" => json_path = Some(it.next().expect("--json needs a path").clone()),
            "--metrics-out" => {
                metrics_path = Some(it.next().expect("--metrics-out needs a path").clone());
            }
            "--monitor-out" => {
                monitor_path = Some(it.next().expect("--monitor-out needs a path").clone());
            }
            "--monitor-interval" => {
                let v = it.next().expect("--monitor-interval needs a value");
                monitor_interval_ms = v.parse().expect("--monitor-interval must be milliseconds");
                assert!(monitor_interval_ms > 0, "--monitor-interval must be > 0");
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    let spec = device_by_name(&device).unwrap_or_else(|| {
        eprintln!("unknown device '{device}' (use a100, v100 or mi210)");
        std::process::exit(2);
    });
    let workloads = if smoke {
        smoke_workloads()
    } else {
        default_workloads()
    };

    // --monitor-out: stream sweep metrics from a background thread. The
    // sink is pure observation — panel numbers are unaffected.
    let monitoring = monitor_path.as_ref().map(|path| {
        let registry = Arc::new(MonitorRegistry::new());
        let writer = MonitorWriter::spawn(
            registry.clone(),
            path.into(),
            std::time::Duration::from_millis(monitor_interval_ms),
        )
        .unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        });
        let sink: Arc<dyn MonitorSink> = registry;
        (sink, writer)
    });
    let monitor = monitoring.as_ref().map(|(sink, _)| sink);

    let mut panels = Vec::new();
    let mut measured = Vec::new();
    for tl in thread_limits {
        eprintln!("running panel: {} thread limit {tl} ...", spec.name);
        let (panel, configs) = run_figure6_panel(&spec, tl, &workloads, extended, monitor);
        println!("{}", panel.render());
        let (bench, peak) = panel.peak();
        println!("peak speedup @ TL {tl}: {peak:.1}x ({bench})\n");
        panels.push(panel);
        measured.extend(configs);
    }

    if let Some((_, writer)) = monitoring {
        let path = monitor_path.as_deref().unwrap_or_default();
        writer.stop().unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        });
        eprintln!("wrote monitor snapshots {path}");
    }

    if let Some(path) = json_path {
        let json = serde_json::to_string_pretty(&panels).expect("panels serialize");
        dgc_obs::write_atomic(&path, json).expect("write JSON output");
        eprintln!("wrote {path}");
    }
    if let Some(path) = metrics_path {
        let mut out = String::new();
        for cfg in &measured {
            out.push_str(&serde_json::to_string(cfg).expect("config serializes"));
            out.push('\n');
        }
        dgc_obs::write_atomic(&path, out).expect("write metrics output");
        eprintln!("wrote {path} ({} configurations)", measured.len());
    }
}
