//! No device-registry spec panics the parser: arbitrary strings, and
//! valid specs with arbitrary splices, give `Ok` or `Err` from
//! `DeviceRegistry::parse`.

use gpu_arch::DeviceRegistry;
use proptest::prelude::*;

const SPECS: [&str; 3] = ["a100", "a100,a100*0.5,v100", "mi210*2, v100 ,a100*1e-3"];

/// Separators, derating factors, device-name letters and a few
/// multi-byte characters.
fn noise() -> impl Strategy<Value = String> {
    let chars = ",*.-0123456789eE+infa vm é–😀\u{0}".chars().collect();
    prop::collection::vec(prop::sample::select(chars), 0..12).prop_map(|c| c.into_iter().collect())
}

/// One valid spec with `drop` bytes at `at` replaced by `insert`.
fn spliced() -> impl Strategy<Value = String> {
    (0usize..SPECS.len(), any::<usize>(), 0usize..24, noise()).prop_map(
        |(which, at, drop, insert)| {
            let valid = SPECS[which];
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
    fn registry_specs_never_panic(spec in prop_oneof![".*", noise(), spliced()]) {
        let _ = DeviceRegistry::parse(&spec);
    }
}

/// The splice bases are valid, so a splice reaches past the parser's
/// first check.
#[test]
fn the_valid_specs_parse() {
    for spec in SPECS {
        assert!(DeviceRegistry::parse(spec).is_ok(), "{spec}");
    }
}
