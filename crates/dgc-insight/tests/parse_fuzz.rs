//! No text input of the perf ledger panics: arbitrary strings, and valid
//! ledger rows and perfbench result lines with arbitrary splices, give
//! `Ok` or `Err` from `LedgerEntry::parse`, `Ledger::load_lossy` and
//! `PerfbenchResult::parse`, and whatever loads also reports and checks.

use dgc_insight::{Ledger, LedgerEntry, PerfbenchResult};
use proptest::prelude::*;

const SCHEMA_1_ROW: &str = r#"{"schema":1,"timestamp":"2026-10-18T04:34:36Z","git_rev":"397d5a0e3712","config_hash":"a145a9c01ec7df61","total_wall_s":0.207538549,"utilization_mean":null,"utilization_p95":null,"makespan_s":null,"sections":[{"name":"figure6_smoke_tl32","wall_s":0.122088982,"instances_per_s":425.9188597378918,"sim_cycles_per_s":79046533.7769999}]}"#;

const SCHEMA_2_ROW: &str = r#"{"schema":2,"timestamp":"2026-10-20T10:41:03Z","git_rev":"589720f7b75a","config_hash":"a242c9b584bc6cbf","correct":true,"attempted":576,"failed":0,"metrics":{"wall_s":{"value":0.360546371,"unit":"s"},"instances_per_s":{"value":532.5251214357668,"unit":"1/s"},"sim_insts_per_s":{"value":9370711.430624828,"unit":"1/s"}},"sections":[{"name":"serve-closed","wall_s":0.360546371,"instances_per_s":532.5251214357668,"sim_insts_per_s":9370711.430624828}]}"#;

const RESULT_LINE: &str = r#"{"correct": true, "attempted": 24, "failed": 0, "metrics": {"gpu-sim.functional_s": {"value": 1.5, "unit": "s"}, "gpu-sim.teams": {"value": 1056.0, "unit": "count"}, "gpu-sim.warp_insts": {"value": 4e7, "unit": "count"}}}"#;

/// JSON punctuation, digits, escapes and a few multi-byte characters.
fn noise() -> impl Strategy<Value = String> {
    let chars = "{}[]\":,-0123456789.eE+ntrufals\\\n é–😀\u{0}"
        .chars()
        .collect();
    prop::collection::vec(prop::sample::select(chars), 0..12).prop_map(|c| c.into_iter().collect())
}

/// One valid ASCII document with `drop` bytes at `at` replaced by `insert`.
fn spliced() -> impl Strategy<Value = String> {
    (0usize..3, any::<usize>(), 0usize..24, noise()).prop_map(|(which, at, drop, insert)| {
        let valid = [SCHEMA_1_ROW, SCHEMA_2_ROW, RESULT_LINE][which];
        let at = at % (valid.len() + 1);
        let end = (at + drop).min(valid.len());
        format!("{}{insert}{}", &valid[..at], &valid[end..])
    })
}

fn text() -> impl Strategy<Value = String> {
    prop_oneof![".*", noise(), spliced()]
}

proptest! {
    // Parsing is cheap: far more cases than the simulation suites run.
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn ledger_rows_and_result_lines_never_panic(line in text()) {
        let _ = LedgerEntry::parse(&line);
        let _ = PerfbenchResult::parse(&line);
    }

    #[test]
    fn lossy_ledger_loads_never_panic(lines in prop::collection::vec(text(), 0..5)) {
        let (ledger, _warnings) = Ledger::load_lossy(&lines.join("\n"));
        let _ = ledger.report();
        let _ = ledger.check(0.8, 5);
    }
}
