//! Declarative SLOs with multi-window burn-rate alerting.
//!
//! A spec is JSON:
//!
//! ```json
//! {
//!   "schema": 1,
//!   "windows": { "fast": 5, "slow": 20 },
//!   "burn_thresholds": { "fast": 0.05, "slow": 0.01 },
//!   "slos": [
//!     { "name": "completion", "target": 0.99,
//!       "objective": "ratio(dgc_instances_total{result=\"ok\"}, dgc_instances_total) >= 0.95" },
//!     { "name": "tail-latency", "target": 0.9,
//!       "objective": "p99(dgc_instance_latency_seconds) <= 0.5" }
//!   ]
//! }
//! ```
//!
//! The **objective** is a comparison between two expressions, evaluated
//! once per snapshot of the monitor log; a snapshot where it holds is
//! *good*, otherwise *bad*. Expressions are numbers, metric selectors
//! (label subsets sum), `ratio(a, b)` (0-denominator → 1.0, "no traffic
//! is compliant"), or `p50`/`p90`/`p99` over a histogram family.
//!
//! The **burn-rate gate** (the multi-window pattern from SRE practice,
//! counted in snapshots so evaluation is deterministic): with error
//! budget `1 − target`, the budget consumed by a window of the last `w`
//! snapshots is `bad(w) / (budget × N)` for an `N`-snapshot series. The
//! fast window alerts at ≥ 5% of budget by default, the slow window at
//! ≥ 1%; an SLO **breaches** when both alert, **warns** when exactly one
//! does. `dgc-monitor slo` exits 0 on pass or warn, 1 on a breach and 2
//! on a spec or input error.

use crate::openmetrics::Snapshot;
use serde::Value;

/// A metric selector: sample name plus a label subset to match.
#[derive(Debug, Clone, PartialEq)]
pub struct Selector {
    pub name: String,
    pub labels: Vec<(String, String)>,
}

/// One side of an objective comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Num(f64),
    /// Sum of matching samples; absent metric evaluates to 0.
    Select(Selector),
    /// `ratio(a, b)`: a/b with `b == 0` → 1.0.
    Ratio(Selector, Selector),
    /// `p50`/`p90`/`p99` of a histogram family (selector names the
    /// family, not the `_bucket` sample).
    Percentile(Selector, f64),
}

/// Comparison operators allowed in objectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Ge,
    Le,
    Gt,
    Lt,
    Eq,
}

/// A parsed objective: `lhs op rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct Objective {
    pub lhs: Expr,
    pub op: CmpOp,
    pub rhs: Expr,
}

/// One declared SLO.
#[derive(Debug, Clone, PartialEq)]
pub struct Slo {
    pub name: String,
    pub target: f64,
    pub objective_src: String,
    pub objective: Objective,
}

/// A full SLO spec.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    pub fast_window: usize,
    pub slow_window: usize,
    pub fast_burn: f64,
    pub slow_burn: f64,
    pub slos: Vec<Slo>,
}

/// Verdict levels, worst-of over SLOs for the overall verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    Ok,
    Warn,
    Breach,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Warn => "warn",
            Verdict::Breach => "breach",
        }
    }
}

/// Evaluation result for one SLO.
#[derive(Debug, Clone, PartialEq)]
pub struct SloResult {
    pub name: String,
    pub target: f64,
    pub objective: String,
    pub good: usize,
    pub bad: usize,
    pub compliance: f64,
    pub budget_consumed_fast: f64,
    pub budget_consumed_slow: f64,
    pub fast_alert: bool,
    pub slow_alert: bool,
    pub verdict: Verdict,
}

/// Evaluation result for a spec over a snapshot series.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    pub snapshots: usize,
    pub results: Vec<SloResult>,
    pub verdict: Verdict,
}

// ---------------------------------------------------------------- parsing

struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn skip_ws(&mut self) {
        while self.text[self.pos..].starts_with(' ') {
            self.pos += 1;
        }
    }

    fn rest(&self) -> &'a str {
        &self.text[self.pos..]
    }

    fn eat(&mut self, tok: &str) -> bool {
        self.skip_ws();
        if self.rest().starts_with(tok) {
            self.pos += tok.len();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Option<&'a str> {
        self.skip_ws();
        let rest = self.rest();
        let end = rest
            .char_indices()
            .take_while(|&(i, c)| {
                c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
            })
            .count();
        if end == 0 {
            return None;
        }
        let (tok, _) = rest.split_at(end);
        self.pos += end;
        Some(tok)
    }
}

fn parse_selector(c: &mut Cursor<'_>) -> Result<Selector, String> {
    let Some(name) = c.ident() else {
        return Err(format!("expected metric name at '{}'", c.rest()));
    };
    let mut labels = Vec::new();
    if c.eat("{") {
        loop {
            let Some(k) = c.ident() else {
                return Err("expected label name".into());
            };
            if !c.eat("=") {
                return Err(format!("label '{k}' needs ="));
            }
            c.skip_ws();
            let rest = c.rest();
            let Some(rest) = rest.strip_prefix('"') else {
                return Err(format!("label '{k}' value must be quoted"));
            };
            let Some(close) = rest.find('"') else {
                return Err(format!("unterminated value for label '{k}'"));
            };
            labels.push((k.to_string(), rest[..close].to_string()));
            c.pos += 1 + close + 1;
            if c.eat(",") {
                continue;
            }
            if c.eat("}") {
                break;
            }
            return Err("expected ',' or '}' in label set".into());
        }
    }
    Ok(Selector {
        name: name.to_string(),
        labels,
    })
}

fn parse_expr(c: &mut Cursor<'_>) -> Result<Expr, String> {
    c.skip_ws();
    let rest = c.rest();
    // Numeric literal.
    if rest.starts_with(|ch: char| ch.is_ascii_digit() || ch == '-' || ch == '.') {
        let end = rest
            .char_indices()
            .take_while(|&(i, ch)| {
                ch.is_ascii_digit()
                    || ch == '.'
                    || ch == 'e'
                    || ch == 'E'
                    || ((ch == '-' || ch == '+')
                        && (i == 0 || matches!(rest.as_bytes()[i - 1], b'e' | b'E')))
            })
            .count();
        let (tok, _) = rest.split_at(end);
        let v: f64 = tok.parse().map_err(|_| format!("invalid number '{tok}'"))?;
        c.pos += end;
        return Ok(Expr::Num(v));
    }
    // Function or selector.
    let save = c.pos;
    let Some(ident) = c.ident() else {
        return Err(format!("expected expression at '{rest}'"));
    };
    match ident {
        "ratio" => {
            if !c.eat("(") {
                return Err("ratio needs (".into());
            }
            let a = parse_selector(c)?;
            if !c.eat(",") {
                return Err("ratio needs two selectors".into());
            }
            let b = parse_selector(c)?;
            if !c.eat(")") {
                return Err("ratio missing )".into());
            }
            Ok(Expr::Ratio(a, b))
        }
        "p50" | "p90" | "p99" => {
            let p = match ident {
                "p50" => 0.50,
                "p90" => 0.90,
                _ => 0.99,
            };
            if !c.eat("(") {
                return Err(format!("{ident} needs ("));
            }
            let sel = parse_selector(c)?;
            if !c.eat(")") {
                return Err(format!("{ident} missing )"));
            }
            Ok(Expr::Percentile(sel, p))
        }
        _ => {
            // Plain selector: rewind and reparse (to pick up labels).
            c.pos = save;
            Ok(Expr::Select(parse_selector(c)?))
        }
    }
}

/// Parse an objective like
/// `ratio(dgc_instances_total{result="ok"}, dgc_instances_total) >= 0.95`.
pub fn parse_objective(src: &str) -> Result<Objective, String> {
    let mut c = Cursor { text: src, pos: 0 };
    let lhs = parse_expr(&mut c)?;
    c.skip_ws();
    let op = if c.eat(">=") {
        CmpOp::Ge
    } else if c.eat("<=") {
        CmpOp::Le
    } else if c.eat("==") {
        CmpOp::Eq
    } else if c.eat(">") {
        CmpOp::Gt
    } else if c.eat("<") {
        CmpOp::Lt
    } else {
        return Err(format!("expected comparison operator at '{}'", c.rest()));
    };
    let rhs = parse_expr(&mut c)?;
    c.skip_ws();
    if !c.rest().is_empty() {
        return Err(format!("trailing content '{}'", c.rest()));
    }
    Ok(Objective { lhs, op, rhs })
}

impl SloSpec {
    /// Parse a spec from its JSON text.
    pub fn parse(text: &str) -> Result<SloSpec, String> {
        let v: Value = serde_json::from_str(text).map_err(|e| format!("spec JSON: {e}"))?;
        let schema = v.get("schema").and_then(Value::as_u64).unwrap_or(0);
        if schema != 1 {
            return Err(format!("unsupported spec schema {schema} (want 1)"));
        }
        let window = |name: &str, default: u64| -> Result<usize, String> {
            match v.get("windows").and_then(|w| w.get(name)) {
                None => Ok(default as usize),
                Some(x) => x
                    .as_u64()
                    .filter(|&n| n >= 1)
                    .map(|n| n as usize)
                    .ok_or_else(|| format!("windows.{name} must be a positive integer")),
            }
        };
        let burn = |name: &str, default: f64| -> Result<f64, String> {
            match v.get("burn_thresholds").and_then(|w| w.get(name)) {
                None => Ok(default),
                Some(x) => x
                    .as_f64()
                    .filter(|&b| b > 0.0)
                    .ok_or_else(|| format!("burn_thresholds.{name} must be positive")),
            }
        };
        let fast_window = window("fast", 5)?;
        let slow_window = window("slow", 20)?;
        if fast_window > slow_window {
            return Err("windows.fast must not exceed windows.slow".into());
        }
        let Some(slo_list) = v.get("slos").and_then(Value::as_array) else {
            return Err("spec needs a non-empty 'slos' array".into());
        };
        if slo_list.is_empty() {
            return Err("spec needs a non-empty 'slos' array".into());
        }
        let mut slos = Vec::with_capacity(slo_list.len());
        for (i, s) in slo_list.iter().enumerate() {
            let name = s
                .get("name")
                .and_then(Value::as_str)
                .ok_or(format!("slos[{i}] needs a name"))?
                .to_string();
            let target = s
                .get("target")
                .and_then(Value::as_f64)
                .ok_or(format!("slo '{name}' needs a numeric target"))?;
            if !(0.0..=1.0).contains(&target) {
                return Err(format!("slo '{name}': target must be in [0, 1]"));
            }
            let src = s
                .get("objective")
                .and_then(Value::as_str)
                .ok_or(format!("slo '{name}' needs an objective string"))?
                .to_string();
            let objective =
                parse_objective(&src).map_err(|e| format!("slo '{name}': objective: {e}"))?;
            slos.push(Slo {
                name,
                target,
                objective_src: src,
                objective,
            });
        }
        Ok(SloSpec {
            fast_window,
            slow_window,
            fast_burn: burn("fast", 0.05)?,
            slow_burn: burn("slow", 0.01)?,
            slos,
        })
    }
}

// ------------------------------------------------------------- evaluation

fn eval_expr(e: &Expr, snap: &Snapshot) -> f64 {
    match e {
        Expr::Num(v) => *v,
        Expr::Select(sel) => snap.sum(&sel.name, &sel.labels).unwrap_or(0.0),
        Expr::Ratio(a, b) => {
            let den = snap.sum(&b.name, &b.labels).unwrap_or(0.0);
            if den == 0.0 {
                // No traffic yet: vacuously compliant rather than 0/0.
                1.0
            } else {
                snap.sum(&a.name, &a.labels).unwrap_or(0.0) / den
            }
        }
        Expr::Percentile(sel, p) => snap
            .histogram_percentile(&sel.name, &sel.labels, *p)
            .unwrap_or(0.0),
    }
}

fn eval_objective(o: &Objective, snap: &Snapshot) -> bool {
    let l = eval_expr(&o.lhs, snap);
    let r = eval_expr(&o.rhs, snap);
    match o.op {
        CmpOp::Ge => l >= r,
        CmpOp::Le => l <= r,
        CmpOp::Gt => l > r,
        CmpOp::Lt => l < r,
        CmpOp::Eq => l == r,
    }
}

/// Evaluate `spec` over a snapshot series (oldest first). Deterministic:
/// the verdict is a pure function of the spec and the series.
pub fn evaluate(spec: &SloSpec, series: &[Snapshot]) -> Result<SloReport, String> {
    if series.is_empty() {
        return Err("no snapshots to evaluate (empty monitor log)".into());
    }
    let n = series.len();
    let mut results = Vec::with_capacity(spec.slos.len());
    for slo in &spec.slos {
        let compliance: Vec<bool> = series
            .iter()
            .map(|s| eval_objective(&slo.objective, s))
            .collect();
        let bad = compliance.iter().filter(|&&c| !c).count();
        let good = n - bad;
        let budget = 1.0 - slo.target;
        let consumed = |window: usize| -> f64 {
            let w = window.min(n);
            let bad_w = compliance[n - w..].iter().filter(|&&c| !c).count();
            if budget <= 0.0 {
                // Zero budget: any badness is full burn.
                if bad_w > 0 {
                    f64::INFINITY
                } else {
                    0.0
                }
            } else {
                bad_w as f64 / (budget * n as f64)
            }
        };
        let budget_consumed_fast = consumed(spec.fast_window);
        let budget_consumed_slow = consumed(spec.slow_window);
        let fast_alert = budget_consumed_fast >= spec.fast_burn;
        let slow_alert = budget_consumed_slow >= spec.slow_burn;
        let verdict = match (fast_alert, slow_alert) {
            (true, true) => Verdict::Breach,
            (false, false) => Verdict::Ok,
            _ => Verdict::Warn,
        };
        results.push(SloResult {
            name: slo.name.clone(),
            target: slo.target,
            objective: slo.objective_src.clone(),
            good,
            bad,
            compliance: good as f64 / n as f64,
            budget_consumed_fast,
            budget_consumed_slow,
            fast_alert,
            slow_alert,
            verdict,
        });
    }
    let verdict = results
        .iter()
        .map(|r| r.verdict)
        .max()
        .unwrap_or(Verdict::Ok);
    Ok(SloReport {
        snapshots: n,
        results,
        verdict,
    })
}

impl SloReport {
    /// Machine-readable verdict JSON.
    pub fn to_json(&self) -> String {
        let burn = |b: f64| {
            if b.is_finite() {
                Value::F64(b)
            } else {
                Value::Str("inf".into())
            }
        };
        let results: Vec<Value> = self
            .results
            .iter()
            .map(|r| {
                Value::Object(vec![
                    ("name".into(), Value::Str(r.name.clone())),
                    ("target".into(), Value::F64(r.target)),
                    ("objective".into(), Value::Str(r.objective.clone())),
                    ("good".into(), Value::U64(r.good as u64)),
                    ("bad".into(), Value::U64(r.bad as u64)),
                    ("compliance".into(), Value::F64(r.compliance)),
                    ("budget_consumed_fast".into(), burn(r.budget_consumed_fast)),
                    ("budget_consumed_slow".into(), burn(r.budget_consumed_slow)),
                    ("fast_alert".into(), Value::Bool(r.fast_alert)),
                    ("slow_alert".into(), Value::Bool(r.slow_alert)),
                    ("verdict".into(), Value::Str(r.verdict.as_str().into())),
                ])
            })
            .collect();
        let doc = Value::Object(vec![
            ("schema".into(), Value::U64(1)),
            ("snapshots".into(), Value::U64(self.snapshots as u64)),
            ("slos".into(), Value::Array(results)),
            ("verdict".into(), Value::Str(self.verdict.as_str().into())),
        ]);
        serde_json::to_string_pretty(&doc).expect("verdict JSON serializes")
    }

    /// Human-readable summary table.
    pub fn render(&self) -> String {
        let mut out = format!("SLO verdict over {} snapshots:\n", self.snapshots);
        for r in &self.results {
            let burn = |b: f64| {
                if b.is_finite() {
                    format!("{:.1}%", b * 100.0)
                } else {
                    "inf".to_string()
                }
            };
            out.push_str(&format!(
                "  [{}] {}: {} — compliance {:.1}% (target {:.1}%), burn fast {} / slow {}\n",
                r.verdict.as_str(),
                r.name,
                r.objective,
                r.compliance * 100.0,
                r.target * 100.0,
                burn(r.budget_consumed_fast),
                burn(r.budget_consumed_slow),
            ));
        }
        out.push_str(&format!("overall: {}\n", self.verdict.as_str()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::openmetrics::{FamilySnap, MetricKind, MetricValue, Sample};

    fn snap_with(ok: u64, total: u64) -> Snapshot {
        Snapshot {
            families: vec![FamilySnap {
                name: "dgc_instances".into(),
                help: String::new(),
                kind: MetricKind::Counter,
                samples: vec![
                    Sample {
                        name: "dgc_instances_total".into(),
                        labels: vec![("result".into(), "failed".into())],
                        value: MetricValue::Int(total - ok),
                    },
                    Sample {
                        name: "dgc_instances_total".into(),
                        labels: vec![("result".into(), "ok".into())],
                        value: MetricValue::Int(ok),
                    },
                ],
            }],
        }
    }

    fn spec(json: &str) -> SloSpec {
        SloSpec::parse(json).unwrap()
    }

    const COMPLETION: &str = r#"{
        "schema": 1,
        "windows": { "fast": 2, "slow": 4 },
        "slos": [
            { "name": "completion", "target": 0.9,
              "objective": "ratio(dgc_instances_total{result=\"ok\"}, dgc_instances_total) >= 0.75" }
        ]
    }"#;

    #[test]
    fn objective_parser_handles_the_documented_forms() {
        let o = parse_objective(
            "ratio(dgc_instances_total{result=\"ok\"}, dgc_instances_total) >= 0.95",
        )
        .unwrap();
        assert_eq!(o.op, CmpOp::Ge);
        assert!(matches!(o.lhs, Expr::Ratio(_, _)));
        let o = parse_objective("p99(dgc_instance_latency_seconds) <= 0.5").unwrap();
        assert!(matches!(o.lhs, Expr::Percentile(_, p) if p == 0.99));
        let o = parse_objective("dgc_device_utilization{device=\"0\"} > 0.25").unwrap();
        assert!(matches!(&o.lhs, Expr::Select(s) if s.labels.len() == 1));
        // Errors are reported, not panicked.
        assert!(parse_objective("ratio(a, b)").is_err()); // no comparison
        assert!(parse_objective("a >= ").is_err());
        assert!(parse_objective("a >= 1 extra").is_err());
    }

    #[test]
    fn spec_parse_validates_shape() {
        assert!(SloSpec::parse("{}").is_err()); // no schema
        assert!(SloSpec::parse(r#"{"schema": 1}"#).is_err()); // no slos
        assert!(SloSpec::parse(
            r#"{"schema": 1, "windows": {"fast": 9, "slow": 2}, "slos": [
                {"name": "x", "target": 0.5, "objective": "a >= 1"}]}"#
        )
        .is_err()); // fast > slow
        let s = spec(COMPLETION);
        assert_eq!(s.fast_window, 2);
        assert_eq!(s.slow_window, 4);
        assert_eq!(s.fast_burn, 0.05);
    }

    #[test]
    fn all_good_series_is_ok() {
        let series: Vec<Snapshot> = (1..=6).map(|i| snap_with(4 * i, 4 * i)).collect();
        let report = evaluate(&spec(COMPLETION), &series).unwrap();
        assert_eq!(report.verdict, Verdict::Ok);
        assert_eq!(report.results[0].bad, 0);
        assert_eq!(report.results[0].compliance, 1.0);
    }

    #[test]
    fn recent_badness_breaches_and_old_badness_only_warns() {
        // Bad snapshots at the END land in both windows → breach.
        let mut series: Vec<Snapshot> = (1..=4).map(|i| snap_with(4 * i, 4 * i)).collect();
        series.push(snap_with(10, 20)); // ratio 0.5 < 0.75 → bad
        series.push(snap_with(10, 21));
        let report = evaluate(&spec(COMPLETION), &series).unwrap();
        assert_eq!(report.verdict, Verdict::Breach);
        assert!(report.results[0].fast_alert && report.results[0].slow_alert);

        // Bad snapshots inside the slow window but before the fast
        // window → slow-only alert → warn.
        let series: Vec<Snapshot> = vec![
            snap_with(4, 4),
            snap_with(8, 8),
            snap_with(10, 20), // bad
            snap_with(10, 21), // bad
            snap_with(12, 12),
            snap_with(16, 16),
        ];
        let report = evaluate(&spec(COMPLETION), &series).unwrap();
        assert_eq!(report.verdict, Verdict::Warn);
        assert!(!report.results[0].fast_alert && report.results[0].slow_alert);

        // Badness older than both windows alerts nothing: the budget was
        // burned, but burn-rate gates care about *recent* burn.
        let mut series: Vec<Snapshot> = vec![snap_with(10, 20), snap_with(10, 21)];
        series.extend((1..=4).map(|i| snap_with(4 * i, 4 * i)));
        let report = evaluate(&spec(COMPLETION), &series).unwrap();
        assert_eq!(report.verdict, Verdict::Ok);
        assert_eq!(report.results[0].bad, 2); // still counted in compliance
    }

    #[test]
    fn zero_budget_target_burns_infinitely_on_any_badness() {
        let spec = spec(
            r#"{"schema": 1, "slos": [
                {"name": "strict", "target": 1.0,
                 "objective": "ratio(dgc_instances_total{result=\"ok\"}, dgc_instances_total) >= 1"}]}"#,
        );
        let series = vec![snap_with(3, 4)];
        let report = evaluate(&spec, &series).unwrap();
        assert_eq!(report.verdict, Verdict::Breach);
        assert!(report.results[0].budget_consumed_fast.is_infinite());
        // The JSON stays machine-readable (no bare inf token).
        assert!(report.to_json().contains("\"inf\""));
    }

    #[test]
    fn empty_series_is_an_input_error() {
        assert!(evaluate(&spec(COMPLETION), &[]).is_err());
    }

    #[test]
    fn ratio_with_no_traffic_is_vacuously_compliant() {
        let empty = Snapshot::default();
        let report = evaluate(&spec(COMPLETION), &[empty]).unwrap();
        assert_eq!(report.verdict, Verdict::Ok);
    }

    mod determinism {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Evaluation is a pure function of (spec, series): reruns
            /// and render/parse round trips of every snapshot produce
            /// byte-identical verdict JSON.
            #[test]
            fn evaluation_is_deterministic_across_reruns_and_round_trips(
                pattern in proptest::collection::vec(0u64..=4, 1..24)
            ) {
                let series: Vec<Snapshot> = pattern
                    .iter()
                    .map(|&ok| snap_with(ok, 4))
                    .collect();
                let s = spec(COMPLETION);
                let a = evaluate(&s, &series).unwrap();
                let b = evaluate(&s, &series).unwrap();
                prop_assert_eq!(a.to_json(), b.to_json());
                let round: Vec<Snapshot> = series
                    .iter()
                    .map(|s| crate::openmetrics::parse(&s.render()).unwrap())
                    .collect();
                let c = evaluate(&s, &round).unwrap();
                prop_assert_eq!(a.to_json(), c.to_json());
                prop_assert_eq!(a.verdict, c.verdict);
            }
        }
    }
}
