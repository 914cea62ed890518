//! Differential oracle: every instance's device checksum equals its
//! app's host `reference_checksum`, whatever the executor configuration
//! — instance count, batch bound, fleet size, placement and memory-aware
//! packing.

mod common;

use common::no_recovery;
use dgc_apps::{amgmk, pagerank, rsbench, xsbench};
use dgc_core::{split_arg_line, EnsembleOptions};
use dgc_fault::{run_ensemble_sharded_resilient_mem_aware, FaultPlan};
use dgc_obs::Recorder;
use dgc_sched::Placement;
use gpu_arch::GpuSpec;
use gpu_sim::DeviceFleet;
use proptest::prelude::*;

/// Two small argument lines per app, so instances differ.
const LINES: [(&str, [&str; 2]); 4] = [
    ("xsbench", ["-l 40 -g 12", "-l 60 -g 16"]),
    ("rsbench", ["-l 40 -w 8 -p 2", "-l 60 -w 6 -p 2"]),
    ("amgmk", ["-n 4 -s 3", "-n 6 -s 2"]),
    ("pagerank", ["-v 200 -d 4 -i 2", "-v 300 -d 3 -i 2"]),
];

/// The host reference checksum of `app` run with argument `line`.
fn reference(app: &str, line: &[String]) -> f64 {
    match app {
        "xsbench" => xsbench::reference_checksum(&xsbench::XsParams::parse(line)),
        "rsbench" => rsbench::reference_checksum(&rsbench::RsParams::parse(line)),
        "amgmk" => amgmk::reference_checksum(&amgmk::AmgParams::parse(line)),
        "pagerank" => pagerank::reference_checksum(&pagerank::PrParams::parse(line)),
        other => panic!("no host reference for {other}"),
    }
}

/// The `Verification checksum` an instance printed (`%.10e`).
fn printed_checksum(stdout: &str) -> Option<f64> {
    stdout
        .lines()
        .find(|l| l.starts_with("Verification checksum"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn device_checksums_match_host_references_under_every_configuration(
        app_ix in 0usize..4,
        n in 1u32..7,
        batch in 0u32..4,
        devices in 1u32..4,
        placement_ix in 0usize..3,
        mem_aware in any::<bool>(),
    ) {
        let (name, texts) = LINES[app_ix];
        let app = dgc_apps::app_by_name(name).unwrap();
        let lines: Vec<Vec<String>> = texts.iter().map(|t| split_arg_line(t)).collect();
        let opts = EnsembleOptions {
            num_instances: n,
            thread_limit: 32,
            cycle_args: true,
            ..Default::default()
        };
        let res = run_ensemble_sharded_resilient_mem_aware(
            &mut DeviceFleet::homogeneous(GpuSpec::a100_40gb(), devices),
            &app,
            &lines,
            &opts,
            batch,
            Placement::all()[placement_ix],
            &FaultPlan::default(),
            &no_recovery(),
            &mut Recorder::disabled(),
            mem_aware,
        )
        .unwrap();
        prop_assert!(res.all_succeeded(), "{:?}", res.ensemble.instances);
        for (i, out) in res.ensemble.stdout.iter().enumerate() {
            let want = reference(name, &lines[i % lines.len()]);
            let got = printed_checksum(out);
            prop_assert!(
                got.is_some_and(|g| (g - want).abs() <= want.abs() * 1e-9),
                "{} instance {}: printed {:?}, reference {:e}",
                name,
                i,
                got,
                want
            );
        }
    }
}
