//! Per-phase kernel profile of one benchmark run — the observability tool
//! for understanding *why* a kernel takes the time the Figure-6 harness
//! measures: per-phase work, the stall-cycle decomposition, and the
//! kernel's position on the device roofline.
//!
//! ```text
//! cargo run --release -p dgc-bench --bin kernel_report -- xsbench -l 200 -g 24
//! cargo run --release -p dgc-bench --bin kernel_report -- --json amgmk -n 10 -s 10
//! ```

use dgc_core::Loader;
use dgc_sched::RooflinePoint;
use gpu_sim::{Gpu, MixedSeg, StallBuckets};
use serde::{Serialize, Value};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    args.retain(|a| a != "--json");
    if args.is_empty() {
        eprintln!("usage: kernel_report [--json] <app> [app args...]");
        eprintln!("  apps: xsbench, rsbench, amgmk, pagerank");
        std::process::exit(2);
    }
    let app_name = args.remove(0);
    let Some(app) = dgc_apps::app_by_name(&app_name) else {
        eprintln!("unknown application '{app_name}'");
        std::process::exit(2);
    };
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();

    let mut gpu = Gpu::a100();
    let res = Loader::default()
        .run(&mut gpu, &app, &argv, host_rpc::HostServices::default())
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        });

    let roofline = RooflinePoint::from_report(&gpu.spec, &res.report);
    if json {
        print_json(&res, &roofline);
        return;
    }

    println!("{}", res.report.summary());
    println!();
    println!(
        "{:<20} {:>12} {:>14} {:>10} {:>8} {:>6}",
        "phase", "warp insts", "moved bytes", "sectors", "coal %", "RPCs"
    );
    for team in res.block_traces.iter().flat_map(|b| &b.teams) {
        for phase in &team.phases {
            let mut total = MixedSeg::default();
            for w in &phase.warps {
                total.merge(w);
            }
            println!(
                "{:<20} {:>12.0} {:>14.0} {:>10} {:>8.0} {:>6}",
                phase.label,
                total.insts,
                total.moved_bytes,
                total.sectors,
                total.coalescing_efficiency() * 100.0,
                total.rpc_calls,
            );
        }
    }
    println!();
    let stalls = &res.stalls;
    println!(
        "stall-cycle attribution (kernel, {:.0} cycles):",
        stalls.kernel.total()
    );
    let cycles = stalls.kernel.total().max(1e-12);
    for (name, value) in stalls.kernel.named() {
        println!(
            "  {name:<10} {value:>14.0} cycles  {:>5.1}%",
            value / cycles * 100.0
        );
    }
    println!("  dominant:  {}", stalls.kernel.dominant());
    println!();
    println!("roofline: {}", roofline.render());
    println!();
    println!("program output:");
    print!("{}", res.stdout);
}

fn print_json(res: &dgc_core::AppRunResult, roofline: &RooflinePoint) {
    let stalls = &res.stalls;
    let mut phases: Vec<Value> = Vec::new();
    for team in res.block_traces.iter().flat_map(|b| &b.teams) {
        for phase in &team.phases {
            let mut total = MixedSeg::default();
            for w in &phase.warps {
                total.merge(w);
            }
            phases.push(Value::Object(vec![
                ("label".into(), Value::Str(phase.label.clone())),
                ("warp_insts".into(), Value::F64(total.insts)),
                ("moved_bytes".into(), Value::F64(total.moved_bytes)),
                ("sectors".into(), Value::U64(total.sectors)),
                (
                    "coalescing".into(),
                    Value::F64(total.coalescing_efficiency()),
                ),
                ("rpc_calls".into(), Value::U64(total.rpc_calls)),
            ]));
        }
    }
    let stall_obj = |b: &StallBuckets| {
        Value::Object(
            b.named()
                .iter()
                .map(|&(name, v)| (name.to_string(), Value::F64(v)))
                .collect(),
        )
    };
    let doc = Value::Object(vec![
        ("report".into(), res.report.to_value()),
        ("stall_kernel".into(), stall_obj(&stalls.kernel)),
        (
            "stall_blocks".into(),
            Value::Array(stalls.blocks.iter().map(stall_obj).collect()),
        ),
        ("roofline".into(), roofline.to_value()),
        ("phases".into(), Value::Array(phases)),
        ("stdout".into(), Value::Str(res.stdout.clone())),
    ]);
    println!(
        "{}",
        serde_json::to_string_pretty(&doc).expect("report serializes")
    );
}
