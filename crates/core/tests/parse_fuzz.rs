//! No argument file or script panics the expander: generated integer
//! expressions give `Ok` or `Err` from `eval_expr` for any `i`, and
//! arbitrary, spliced and generated scripts give `Ok` or `Err` from
//! `expand_arg_script` and `parse_arg_file`.
//!
//! Every generated `@repeat` count and `@for` span stays small: the noise
//! carries no digits and no `*`, so no splice can build a large count
//! from the valid scripts' small numbers. How long a huge expansion takes
//! is not what these tests check.

use dgc_core::{eval_expr, expand_arg_script, parse_arg_file};
use proptest::prelude::*;

/// A literal: small, anywhere in `0..=i64::MAX`, or at the edges of the
/// range (one past `i64::MAX` does not parse).
fn literal() -> impl Strategy<Value = String> {
    prop_oneof![
        (0i64..=16).prop_map(|v| v.to_string()),
        (0i64..=i64::MAX).prop_map(|v| v.to_string()),
        prop::sample::select(vec![
            "9223372036854775807".to_string(),
            "9223372036854775808".to_string(),
            "4611686018427387904".to_string(),
        ]),
    ]
}

/// An expression over `+ - * / %`, unary minus, parentheses, `i` and
/// literals, nested up to `depth` levels.
fn expr(depth: u32) -> BoxedStrategy<String> {
    let atom = prop_oneof![literal(), Just("i".to_string())];
    if depth == 0 {
        return atom.boxed();
    }
    let op = prop::sample::select(vec!["+", "-", "*", "/", "%"]);
    prop_oneof![
        atom,
        (expr(depth - 1), op, expr(depth - 1)).prop_map(|(a, op, b)| format!("{a} {op} {b}")),
        expr(depth - 1).prop_map(|e| format!("({e})")),
        expr(depth - 1).prop_map(|e| format!("-{e}")),
    ]
    .boxed()
}

/// Any `i`, with values near zero and near both ends of the range drawn
/// often.
fn loop_var() -> impl Strategy<Value = i64> {
    prop_oneof![
        any::<i64>(),
        (0i64..=16).prop_map(|k| i64::MIN + k),
        (0i64..=16).prop_map(|k| i64::MAX - k),
        -16i64..=16,
    ]
}

const SCRIPTS: [&str; 4] = [
    "# sweep\n-l 100 -g 32\n@repeat 3: -l {100 + 50*i} -g 32\n",
    "@for i in 2..10 step 2: -v {i*1000} -d {i}\n",
    "@for i in 3..0 step -1: -c \"data {i+1}.bin\"\n",
    "-a 1 -b\n@repeat 2: -n {i % 2} -s {(i+1)/2}\n",
];

/// Directive punctuation, keyword letters and a few multi-byte
/// characters; no digits and no `*` (see the module docs).
fn noise() -> impl Strategy<Value = String> {
    let chars = "@:{}()+-/%.#\" \n\tiptersfaon é–😀\u{0}".chars().collect();
    prop::collection::vec(prop::sample::select(chars), 0..12).prop_map(|c| c.into_iter().collect())
}

/// One valid script with `drop` bytes at `at` replaced by `insert`.
fn spliced() -> impl Strategy<Value = String> {
    (0usize..SCRIPTS.len(), any::<usize>(), 0usize..24, noise()).prop_map(
        |(which, at, drop, insert)| {
            let valid = SCRIPTS[which];
            let at = at % (valid.len() + 1);
            let end = (at + drop).min(valid.len());
            format!("{}{insert}{}", &valid[..at], &valid[end..])
        },
    )
}

/// A `@repeat` of at most 7 lines, or a `@for` over at most 16 values
/// that starts anywhere in the `i64` range, with a generated template.
fn directive() -> impl Strategy<Value = String> {
    let template = || {
        prop_oneof![
            Just("-l {i}".to_string()),
            expr(2).prop_map(|e| format!("-l {{{e}}} -g 32")),
        ]
    };
    prop_oneof![
        (0i64..8, template()).prop_map(|(n, t)| format!("@repeat {n}: {t}")),
        (loop_var(), -16i64..=16, -8i64..=8, template()).prop_map(|(start, span, step, t)| {
            let end = start.saturating_add(span);
            format!("@for i in {start}..{end} step {step}: {t}")
        }),
    ]
}

fn script_line() -> impl Strategy<Value = String> {
    prop_oneof![".*", noise(), spliced(), directive()]
}

proptest! {
    // Parsing is cheap: far more cases than the simulation suites run.
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn expressions_never_panic(e in expr(3), i in loop_var()) {
        let _ = eval_expr(&e, i);
    }

    #[test]
    fn scripts_never_panic(lines in prop::collection::vec(script_line(), 0..5)) {
        let text = lines.join("\n");
        let _ = expand_arg_script(&text);
        let _ = parse_arg_file(&text);
    }

    #[test]
    fn directives_never_panic(line in directive()) {
        // Alone, so that no earlier line's error ends the expansion
        // before the directive runs.
        let _ = expand_arg_script(&line);
    }
}
