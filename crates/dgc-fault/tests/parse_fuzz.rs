//! No fault plan panics the parser: arbitrary strings, and valid plans
//! with arbitrary splices, give `Ok` or `Err` from `FaultPlan::from_json`.

use dgc_fault::FaultPlan;
use proptest::prelude::*;

const PLANS: [&str; 2] = [
    r#"{"seed":2023,"faults":[{"instance":null,"attempt":null,"kind":{"DeviceOom":{"min_concurrent":5,"requested_bytes":8589934592}}}]}"#,
    r#"{"seed":7,"faults":[{"instance":3,"attempt":0,"kind":{"Trap":{"message":"bad \"x\" \u00e9"}}},{"instance":1,"attempt":null,"kind":{"Hang":{"stall_cycles":1e8}}},{"instance":null,"attempt":1,"kind":{"RpcFail":{"after_calls":2}}},{"instance":0,"attempt":0,"kind":{"RpcCorrupt":{"after_calls":0}}}],"device_deaths":[{"device":1,"at_attempt":0}]}"#,
];

/// JSON punctuation, digits, escapes and a few multi-byte characters.
fn noise() -> impl Strategy<Value = String> {
    let chars = "{}[]\":,-0123456789.eE+ntrufals\\\n é–😀\u{0}"
        .chars()
        .collect();
    prop::collection::vec(prop::sample::select(chars), 0..12).prop_map(|c| c.into_iter().collect())
}

/// One valid ASCII plan with `drop` bytes at `at` replaced by `insert`.
fn spliced() -> impl Strategy<Value = String> {
    (0usize..PLANS.len(), any::<usize>(), 0usize..24, noise()).prop_map(
        |(which, at, drop, insert)| {
            let valid = PLANS[which];
            let at = at % (valid.len() + 1);
            let end = (at + drop).min(valid.len());
            format!("{}{insert}{}", &valid[..at], &valid[end..])
        },
    )
}

proptest! {
    // Parsing is cheap: far more cases than the simulation suites run.
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn fault_plans_never_panic(plan in prop_oneof![".*", noise(), spliced()]) {
        let _ = FaultPlan::from_json(&plan);
    }
}

/// The splice bases are valid, so a splice reaches past the parser's
/// first check.
#[test]
fn the_valid_plans_parse() {
    for plan in PLANS {
        assert!(FaultPlan::from_json(plan).is_ok(), "{plan}");
    }
}
