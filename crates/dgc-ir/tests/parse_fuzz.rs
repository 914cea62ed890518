//! No module text panics the IR parser: arbitrary strings, and a valid
//! module with arbitrary splices, give `Ok` or `Err` from `Module::parse`.

use dgc_ir::Module;
use proptest::prelude::*;

const MODULE: &str = r#"# An example legacy application.
module "xs" {
  global @grid size=4096 align=8 const placement=constant !declare_target
  global @counter size=8 align=8 placement=shared
  func @main arity=2 calls(@setup, @run, @printf) !renamed_from("main")
  func @setup arity=1 calls(@malloc) !rpc_stub(3)
  func @run arity=0 calls(@lookup) !parallel(1) !order_independent
  func @lookup arity=3 !nohost !main_wrapper
  extern func @printf variadic
  extern func @malloc
}
"#;

/// IR punctuation, digits, keyword letters and a few multi-byte
/// characters.
fn noise() -> impl Strategy<Value = String> {
    let chars = "@!(){}\",=#_ \n-0123456789acdefgilmnoprstuvxz é–😀\u{0}"
        .chars()
        .collect();
    prop::collection::vec(prop::sample::select(chars), 0..12).prop_map(|c| c.into_iter().collect())
}

/// The valid (ASCII) module with `drop` bytes at `at` replaced by
/// `insert`.
fn spliced() -> impl Strategy<Value = String> {
    (any::<usize>(), 0usize..24, noise()).prop_map(|(at, drop, insert)| {
        let at = at % (MODULE.len() + 1);
        let end = (at + drop).min(MODULE.len());
        format!("{}{insert}{}", &MODULE[..at], &MODULE[end..])
    })
}

proptest! {
    // Parsing is cheap: far more cases than the simulation suites run.
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn module_texts_never_panic(text in prop_oneof![".*", noise(), spliced()]) {
        let _ = Module::parse(&text);
    }
}

/// The splice bases are valid, so a splice reaches past the parser's
/// first check.
#[test]
fn the_valid_module_parses() {
    assert!(Module::parse(MODULE).is_ok());
}
