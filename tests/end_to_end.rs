//! End-to-end integration: compile → load → ensemble-execute each of the
//! paper's benchmarks and validate results against the host references.

use ensemble_gpu::apps;
use ensemble_gpu::core::{run_ensemble, EnsembleOptions, HostApp, Loader, MappingStrategy};
use ensemble_gpu::rpc::HostServices;
use ensemble_gpu::sim::Gpu;

fn args(v: &[&str]) -> Vec<Vec<String>> {
    vec![v.iter().map(|s| s.to_string()).collect()]
}

fn checksum_line(stdout: &str) -> f64 {
    stdout
        .lines()
        .find(|l| l.starts_with("Verification checksum:"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no checksum in: {stdout}"))
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= a.abs().max(b.abs()) * 1e-9
}

/// All instances of an ensemble with identical arguments must print the
/// same checksum as the single-instance run and the host reference.
fn ensemble_matches_reference(app: &HostApp, argv: &[&str], reference: f64, instances: u32) {
    let mut gpu = Gpu::a100();
    let opts = EnsembleOptions {
        cycle_args: true,
        num_instances: instances,
        thread_limit: 64,
        ..Default::default()
    };
    let res = run_ensemble(&mut gpu, app, &args(argv), &opts, HostServices::default())
        .unwrap_or_else(|e| panic!("{} failed to launch: {e}", app.name));
    assert!(res.all_succeeded(), "{}: {:?}", app.name, res.instances);
    for (i, out) in res.stdout.iter().enumerate() {
        let printed = checksum_line(out);
        assert!(
            close(printed, reference),
            "{} instance {i}: {printed} != {reference}",
            app.name
        );
    }
    assert_eq!(
        gpu.mem.stats().live_allocations,
        0,
        "{} leaked device memory",
        app.name
    );
}

#[test]
fn xsbench_ensemble_matches_reference() {
    let p = apps::xsbench::XsParams {
        gridpoints: 12,
        lookups: 50,
        size: apps::xsbench::ProblemSize::Small,
        nuclides: 68,
    };
    ensemble_matches_reference(
        &apps::xsbench::app(),
        &["-l", "50", "-g", "12"],
        apps::xsbench::reference_checksum(&p),
        4,
    );
}

#[test]
fn rsbench_ensemble_matches_reference() {
    let p = apps::rsbench::RsParams {
        windows: 6,
        poles_per_window: 2,
        lookups: 40,
    };
    ensemble_matches_reference(
        &apps::rsbench::app(),
        &["-l", "40", "-w", "6", "-p", "2"],
        apps::rsbench::reference_checksum(&p),
        4,
    );
}

#[test]
fn amgmk_ensemble_matches_reference() {
    let p = apps::amgmk::AmgParams { dim: 5, sweeps: 3 };
    ensemble_matches_reference(
        &apps::amgmk::app(),
        &["-n", "5", "-s", "3"],
        apps::amgmk::reference_checksum(&p),
        4,
    );
}

#[test]
fn pagerank_ensemble_matches_reference() {
    let p = apps::pagerank::PrParams {
        vertices: 120,
        degree: 4,
        iterations: 3,
    };
    ensemble_matches_reference(
        &apps::pagerank::app(),
        &["-v", "120", "-d", "4", "-i", "3"],
        apps::pagerank::reference_checksum(&p),
        2,
    );
}

#[test]
fn results_identical_across_thread_limits_and_mappings() {
    // OpenMP semantics: the schedule must not change answers. Run XSBench
    // under different thread limits and under the packed mapping; every
    // configuration must print the identical checksum.
    let app = apps::xsbench::app();
    let argv = args(&["-l", "30", "-g", "10"]);
    let mut checksums = Vec::new();
    for (tl, mapping) in [
        (32u32, MappingStrategy::OnePerTeam),
        (128, MappingStrategy::OnePerTeam),
        (1024, MappingStrategy::OnePerTeam),
        (128, MappingStrategy::Packed { per_block: 4 }),
    ] {
        let mut gpu = Gpu::a100();
        let opts = EnsembleOptions {
            cycle_args: true,
            num_instances: 4,
            thread_limit: tl,
            mapping,
            ..Default::default()
        };
        let res = run_ensemble(&mut gpu, &app, &argv, &opts, HostServices::default()).unwrap();
        assert!(res.all_succeeded());
        checksums.push(checksum_line(&res.stdout[0]));
    }
    for w in checksums.windows(2) {
        assert_eq!(w[0], w[1], "schedule changed the answer: {checksums:?}");
    }
}

#[test]
fn ensemble_is_deterministic() {
    // Two identical launches must produce byte-identical stdout and the
    // same simulated kernel time.
    let app = apps::amgmk::app();
    let argv = args(&["-n", "6", "-s", "4"]);
    let run = || {
        let mut gpu = Gpu::a100();
        let opts = EnsembleOptions {
            cycle_args: true,
            num_instances: 8,
            thread_limit: 32,
            ..Default::default()
        };
        let res = run_ensemble(&mut gpu, &app, &argv, &opts, HostServices::default()).unwrap();
        (res.stdout.clone(), res.kernel_time_s)
    };
    let (out1, t1) = run();
    let (out2, t2) = run();
    assert_eq!(out1, out2);
    assert_eq!(t1, t2);
}

#[test]
fn plain_loader_and_ensemble_of_one_agree() {
    // The [26] single-team loader and a 1-instance ensemble must produce
    // the same program output (the enhanced loader is a strict extension).
    let app = apps::rsbench::app();
    let mut gpu = Gpu::a100();
    let loader = Loader {
        thread_limit: 64,
        ..Default::default()
    };
    let single = loader
        .run(&mut gpu, &app, &["-l", "30"], HostServices::default())
        .unwrap();
    let opts = EnsembleOptions {
        cycle_args: true,
        num_instances: 1,
        thread_limit: 64,
        ..Default::default()
    };
    let ens = run_ensemble(
        &mut gpu,
        &app,
        &args(&["-l", "30"]),
        &opts,
        HostServices::default(),
    )
    .unwrap();
    assert_eq!(single.stdout, ens.stdout[0]);

    // On fresh devices the two launches are one kernel: the same cycles,
    // the same host calls and the same stall decomposition of block 0.
    let single = loader
        .run(
            &mut Gpu::a100(),
            &app,
            &["-l", "30"],
            HostServices::default(),
        )
        .unwrap();
    let ens = run_ensemble(
        &mut Gpu::a100(),
        &app,
        &args(&["-l", "30"]),
        &opts,
        HostServices::default(),
    )
    .unwrap();
    assert_eq!(
        single.report.kernel_cycles.to_bits(),
        ens.report.kernel_cycles.to_bits()
    );
    assert_eq!(single.rpc_stats, ens.rpc_stats);
    assert!(single.rpc_stats.total() > 0);
    assert_eq!(single.stalls.blocks[0], ens.metrics[0].stall);
}

#[test]
fn mixed_argument_lines_give_distinct_results() {
    // Fig. 5: different instances run genuinely different problems.
    let app = apps::xsbench::app();
    let lines: Vec<Vec<String>> = vec![
        vec!["-l".into(), "20".into(), "-g".into(), "8".into()],
        vec!["-l".into(), "40".into(), "-g".into(), "8".into()],
        vec!["-l".into(), "20".into(), "-g".into(), "16".into()],
    ];
    let mut gpu = Gpu::a100();
    let opts = EnsembleOptions {
        cycle_args: true,
        num_instances: 3,
        thread_limit: 32,
        ..Default::default()
    };
    let res = run_ensemble(&mut gpu, &app, &lines, &opts, HostServices::default()).unwrap();
    assert!(res.all_succeeded());
    let c0 = checksum_line(&res.stdout[0]);
    let c1 = checksum_line(&res.stdout[1]);
    let c2 = checksum_line(&res.stdout[2]);
    assert_ne!(c0, c1);
    assert_ne!(c0, c2);
    // And each matches its own reference.
    let reference = apps::xsbench::reference_checksum(&apps::xsbench::XsParams {
        gridpoints: 8,
        lookups: 40,
        size: apps::xsbench::ProblemSize::Small,
        nuclides: 68,
    });
    assert!(close(c1, reference));
}
