//! No request line panics the daemon's admission parser: arbitrary
//! strings, and valid `submit`/`cancel`/`drain` lines with arbitrary
//! splices, give `Ok` or `Err` from `parse_op` and `parse_ops`.

use dgc_serve::{parse_op, parse_ops};
use proptest::prelude::*;

const LINES: [&str; 4] = [
    r#"{"op":"submit","job":"s1","app":"xsbench","args":"-g 500 -l \"my data\"","deadline_s":1000}"#,
    r#"{"op":"submit","job":"s2","app":"xsbench","args":["-g","400","-l","16"]}"#,
    r#"{"op":"cancel","job":"s1"}"#,
    r#"{"op":"drain"}"#,
];

/// JSON punctuation, digits, escapes and a few multi-byte characters.
fn noise() -> impl Strategy<Value = String> {
    let chars = "{}[]\":,#0-9.eE+ntrufals\\\n é–😀\u{0}".chars().collect();
    prop::collection::vec(prop::sample::select(chars), 0..12).prop_map(|c| c.into_iter().collect())
}

/// One valid ASCII request with `drop` bytes at `at` replaced by `insert`.
fn spliced() -> impl Strategy<Value = String> {
    (0usize..LINES.len(), any::<usize>(), 0usize..24, noise()).prop_map(
        |(which, at, drop, insert)| {
            let valid = LINES[which];
            let at = at % (valid.len() + 1);
            let end = (at + drop).min(valid.len());
            format!("{}{insert}{}", &valid[..at], &valid[end..])
        },
    )
}

fn line() -> impl Strategy<Value = String> {
    prop_oneof![".*", noise(), spliced()]
}

proptest! {
    // Parsing is cheap: far more cases than the simulation suites run.
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn request_lines_never_panic(line in line()) {
        let _ = parse_op(&line);
    }

    #[test]
    fn request_documents_never_panic(lines in prop::collection::vec(line(), 0..5)) {
        let _ = parse_ops(&lines.join("\n"));
    }
}
