//! No SLO spec or snapshot log panics its parser: arbitrary strings, and
//! valid specs and logs with arbitrary splices, give `Ok` or `Err` from
//! `SloSpec::parse` and `parse_series`.

use dgc_monitor::{parse_series, SloSpec};
use proptest::prelude::*;

const SPEC: &str = r#"{"schema":1,"windows":{"fast":3,"slow":10},"burn_thresholds":{"fast":0.05,"slow":0.01},"slos":[{"name":"completion","target":0.95,"objective":"ratio(dgc_instances_total{result=\"ok\"}, dgc_instances_total) >= 0.7"},{"name":"tail-latency","target":0.9,"objective":"p99(dgc_instance_latency_seconds) <= 1.0"},{"name":"launches","target":0.99,"objective":"dgc_kernel_launches_total{device=\"0\"} > 0"}]}"#;

const SNAPSHOT: &str = "\
# HELP dgc_device_busy_seconds Simulated device-lane busy time per device
# TYPE dgc_device_busy_seconds counter
dgc_device_busy_seconds_total{device=\"0\"} 0.0060981305552762904
# HELP dgc_heap_capacity_bytes Device-heap capacity
# TYPE dgc_heap_capacity_bytes gauge
dgc_heap_capacity_bytes{device=\"0\"} 42949672960
# HELP dgc_instance_latency_seconds Per-instance simulated end-to-end latency within a launch
# TYPE dgc_instance_latency_seconds histogram
dgc_instance_latency_seconds_bucket{le=\"0.0010485750000000002\"} 15
dgc_instance_latency_seconds_bucket{le=\"+Inf\"} 63
dgc_instance_latency_seconds_count 63
dgc_instance_latency_seconds_sum 0.06831805297203845
# HELP dgc_instances Instance attempt outcomes by result and device
# TYPE dgc_instances counter
dgc_instances_total{device=\"0\",result=\"ok\"} 63
# EOF
";

/// JSON and OpenMetrics punctuation, digits, escapes and a few
/// multi-byte characters.
fn noise() -> impl Strategy<Value = String> {
    let chars = "{}[]\":,=#()<>_-0123456789.eE+ntrufals\\\n é–😀\u{0}"
        .chars()
        .collect();
    prop::collection::vec(prop::sample::select(chars), 0..12).prop_map(|c| c.into_iter().collect())
}

/// `valid` (ASCII) with `drop` bytes at `at` replaced by `insert`.
fn spliced(valid: &'static str) -> impl Strategy<Value = String> {
    (any::<usize>(), 0usize..24, noise()).prop_map(move |(at, drop, insert)| {
        let at = at % (valid.len() + 1);
        let end = (at + drop).min(valid.len());
        format!("{}{insert}{}", &valid[..at], &valid[end..])
    })
}

proptest! {
    // Parsing is cheap: far more cases than the simulation suites run.
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn slo_specs_never_panic(spec in prop_oneof![".*", noise(), spliced(SPEC)]) {
        let _ = SloSpec::parse(&spec);
    }

    #[test]
    fn snapshot_logs_never_panic(
        blocks in prop::collection::vec(prop_oneof![".*", noise(), spliced(SNAPSHOT)], 0..3)
    ) {
        let _ = parse_series(&blocks.concat());
    }
}

/// The splice bases are valid, so a splice reaches past the parser's
/// first check.
#[test]
fn the_valid_documents_parse() {
    assert!(SloSpec::parse(SPEC).is_ok());
    assert_eq!(parse_series(&SNAPSHOT.repeat(2)).map(|s| s.len()), Ok(2));
}
