//! No request line panics the daemon's admission parser, and no journal
//! payload panics its replay: arbitrary strings, and valid
//! `submit`/`cancel`/`drain` lines and journal records with arbitrary
//! splices, give `Ok` or `Err` from `parse_op`, `parse_ops` and
//! `journal::Record::parse`.

use dgc_serve::journal::Record;
use dgc_serve::{parse_op, parse_ops};
use proptest::prelude::*;

const LINES: [&str; 4] = [
    r#"{"op":"submit","job":"s1","app":"xsbench","args":"-g 500 -l \"my data\"","deadline_s":1000}"#,
    r#"{"op":"submit","job":"s2","app":"xsbench","args":["-g","400","-l","16"]}"#,
    r#"{"op":"cancel","job":"s1"}"#,
    r#"{"op":"drain"}"#,
];

const RECORDS: [&str; 5] = [
    r#"{"rec":"header","schema":1}"#,
    r#"{"rec":"submitted","job":"s1","app":"xsbench","args":["-g","500","-l","my data"],"deadline_s":1000.0}"#,
    r#"{"rec":"started","wave":3,"attempt":1,"device":0,"jobs":["s1","s2"]}"#,
    r#"{"rec":"done","job":"s1","wave":3,"exit":-1,"error":null,"oom":false,"timed_out":true,"deadline":false,"end_s":0.0123,"stdout":"Verification checksum: 42\n"}"#,
    r#"{"rec":"cancelled","job":"c1"}"#,
];

/// JSON punctuation, digits, escapes and a few multi-byte characters.
fn noise() -> impl Strategy<Value = String> {
    let chars = "{}[]\":,#-0123456789.eE+ntrufals\\\n é–😀\u{0}"
        .chars()
        .collect();
    prop::collection::vec(prop::sample::select(chars), 0..12).prop_map(|c| c.into_iter().collect())
}

/// One valid ASCII line of `valid` with `drop` bytes at `at` replaced by
/// `insert`.
fn spliced(valid: &'static [&'static str]) -> impl Strategy<Value = String> {
    (0..valid.len(), any::<usize>(), 0usize..24, noise()).prop_map(
        move |(which, at, drop, insert)| {
            let valid = valid[which];
            let at = at % (valid.len() + 1);
            let end = (at + drop).min(valid.len());
            format!("{}{insert}{}", &valid[..at], &valid[end..])
        },
    )
}

fn line() -> impl Strategy<Value = String> {
    prop_oneof![".*", noise(), spliced(&LINES)]
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

    #[test]
    fn journal_records_never_panic(payload in prop_oneof![".*", noise(), spliced(&RECORDS)]) {
        let _ = Record::parse(&payload);
    }
}

/// The splice bases are valid, so a splice reaches past the parser's
/// first check.
#[test]
fn the_valid_records_parse() {
    for payload in RECORDS {
        assert!(Record::parse(payload).is_ok(), "{payload}");
    }
}
