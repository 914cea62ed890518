//! Profile-diff regression gating.
//!
//! Parses two metrics snapshots — any of the repo's three on-disk formats
//! — into a common keyed form and compares the per-configuration kernel
//! times under a relative tolerance. Recognized formats (autodetected):
//!
//! 1. **MeasuredConfig JSONL** — one `{"benchmark": ..., "thread_limit":
//!    ..., "instances": ..., "time_s": ...}` object per line (the
//!    `figure6 --metrics-out` export).
//! 2. **Figure-6 panels JSON** — the `figure6 --json` array of panels,
//!    each series point contributing one configuration.
//! 3. **Ensemble metrics JSONL** — `{"record": "launch", "kernel":
//!    "name-xN", "kernel_time_s": ...}` lines (the `ensemble-cli
//!    --metrics-out` export); `instance` records are skipped.
//!
//! A **regression** is a configuration whose time grew beyond the
//! tolerance, or that was runnable in the baseline and is OOM/absent now.
//! Improvements and new configurations are reported but never fail the
//! gate.

use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;

/// Identity of one measured configuration across snapshots.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ConfigKey {
    pub benchmark: String,
    /// `0` when the source format does not record a thread limit
    /// (ensemble launch records).
    pub thread_limit: u32,
    pub instances: u32,
}

impl ConfigKey {
    pub fn render(&self) -> String {
        if self.thread_limit == 0 {
            format!("{} ×{}", self.benchmark, self.instances)
        } else {
            format!(
                "{} tl={} ×{}",
                self.benchmark, self.thread_limit, self.instances
            )
        }
    }
}

/// One configuration's measurement: `None` means it hit device OOM (the
/// paper's "not runnable").
pub type Measurement = Option<f64>;

/// A parsed snapshot: configuration → kernel time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    pub entries: BTreeMap<ConfigKey, Measurement>,
}

/// Why a snapshot failed to parse.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "snapshot parse error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

impl Snapshot {
    /// Parse a snapshot, autodetecting the format.
    pub fn parse(text: &str) -> Result<Self, ParseError> {
        let trimmed = text.trim_start();
        if trimmed.starts_with('[') {
            Self::parse_panels(text)
        } else {
            Self::parse_jsonl(text)
        }
    }

    fn parse_panels(text: &str) -> Result<Self, ParseError> {
        let doc: Value =
            serde_json::from_str(text).map_err(|e| ParseError(format!("panels JSON: {e}")))?;
        let panels = doc
            .as_array()
            .ok_or_else(|| ParseError("expected a top-level panel array".into()))?;
        let mut entries = BTreeMap::new();
        for panel in panels {
            let tl = field_u64(panel, "thread_limit").unwrap_or(0) as u32;
            let series = panel
                .get("series")
                .and_then(|v| v.as_array())
                .ok_or_else(|| ParseError("panel without series".into()))?;
            for s in series {
                let bench = s
                    .get("benchmark")
                    .and_then(|v| v.as_str())
                    .ok_or_else(|| ParseError("series without benchmark".into()))?
                    .to_string();
                let points = s
                    .get("points")
                    .and_then(|v| v.as_array())
                    .ok_or_else(|| ParseError("series without points".into()))?;
                for p in points {
                    let n = field_u64(p, "instances")
                        .ok_or_else(|| ParseError("point without instances".into()))?
                        as u32;
                    let time = p.get("time_s").and_then(|v| v.as_f64());
                    entries.insert(
                        ConfigKey {
                            benchmark: bench.clone(),
                            thread_limit: tl,
                            instances: n,
                        },
                        time,
                    );
                }
            }
        }
        Ok(Self { entries })
    }

    fn parse_jsonl(text: &str) -> Result<Self, ParseError> {
        let mut entries = BTreeMap::new();
        for (ln, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let v: Value = serde_json::from_str(line)
                .map_err(|e| ParseError(format!("line {}: {e}", ln + 1)))?;
            if let Some(record) = v.get("record").and_then(|r| r.as_str()) {
                // Ensemble metrics JSONL: only launch records carry time.
                if record != "launch" {
                    continue;
                }
                let kernel = v
                    .get("kernel")
                    .and_then(|k| k.as_str())
                    .ok_or_else(|| ParseError(format!("line {}: launch without kernel", ln + 1)))?;
                let (benchmark, named_instances) = split_kernel_name(kernel);
                // Schema v3 records the instance count explicitly; prefer
                // it over parsing the kernel name.
                let instances = field_u64(&v, "instances")
                    .map(|n| n as u32)
                    .unwrap_or(named_instances);
                // Runnability: under schema >= 3 `oom` counts failures
                // cumulatively across recovery attempts, so a recovered
                // OOM still produced a valid time — only `unrecovered`
                // failures make the configuration unrunnable.
                let schema = field_u64(&v, "schema").unwrap_or(1);
                let failed = if schema >= 3 {
                    field_u64(&v, "unrecovered").unwrap_or(0) > 0
                } else {
                    field_u64(&v, "oom").unwrap_or(0) > 0
                };
                let time = if failed {
                    None
                } else {
                    v.get("kernel_time_s").and_then(|t| t.as_f64())
                };
                entries.insert(
                    ConfigKey {
                        benchmark,
                        thread_limit: 0,
                        instances,
                    },
                    time,
                );
            } else if v.get("benchmark").is_some() {
                // MeasuredConfig JSONL.
                let benchmark = v
                    .get("benchmark")
                    .and_then(|b| b.as_str())
                    .ok_or_else(|| ParseError(format!("line {}: bad benchmark", ln + 1)))?
                    .to_string();
                let thread_limit = field_u64(&v, "thread_limit").unwrap_or(0) as u32;
                let instances = field_u64(&v, "instances")
                    .ok_or_else(|| ParseError(format!("line {}: missing instances", ln + 1)))?
                    as u32;
                let time = v.get("time_s").and_then(|t| t.as_f64());
                entries.insert(
                    ConfigKey {
                        benchmark,
                        thread_limit,
                        instances,
                    },
                    time,
                );
            } else {
                return Err(ParseError(format!(
                    "line {}: unrecognized record shape",
                    ln + 1
                )));
            }
        }
        if entries.is_empty() {
            return Err(ParseError("no configurations found".into()));
        }
        Ok(Self { entries })
    }
}

fn field_u64(v: &Value, key: &str) -> Option<u64> {
    v.get(key).and_then(|x| x.as_u64())
}

/// Remove `"field": <value>` members from raw JSON text before parsing.
///
/// The v5 launch record's `timeline` array can dwarf the rest of the
/// snapshot by orders of magnitude; stripping it keeps `prof-diff` fast
/// and makes the gate indifferent to sampling-only changes (`prof-diff
/// --ignore-field`, which ignores `timeline` by default). The scanner is
/// purely lexical — balanced braces/brackets with JSON string escapes —
/// so it works per line on JSONL without a full parse, and leaves
/// malformed text for the parser to reject with a real error.
pub fn strip_json_fields(text: &str, fields: &[&str]) -> String {
    let b = text.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(b.len());
    let mut i = 0usize;
    while i < b.len() {
        if b[i] == b'"' {
            let end = skip_string(b, i);
            let key = &text[i + 1..end.saturating_sub(1).max(i + 1)];
            // A string is a candidate key when the next non-space byte
            // is a colon.
            let mut j = end;
            while j < b.len() && b[j].is_ascii_whitespace() {
                j += 1;
            }
            if j < b.len() && b[j] == b':' && fields.contains(&key) {
                let mut k = j + 1;
                while k < b.len() && b[k].is_ascii_whitespace() {
                    k += 1;
                }
                k = skip_value(b, k);
                // Swallow one adjacent comma so the member list stays
                // well-formed: prefer the trailing one, else the
                // preceding one already emitted.
                let mut m = k;
                while m < b.len() && (b[m] == b' ' || b[m] == b'\t') {
                    m += 1;
                }
                if m < b.len() && b[m] == b',' {
                    i = m + 1;
                } else {
                    while out.last().is_some_and(|&c| c == b' ' || c == b'\t') {
                        out.pop();
                    }
                    if out.last() == Some(&b',') {
                        out.pop();
                    }
                    i = k;
                }
                continue;
            }
            out.extend_from_slice(&b[i..end]);
            i = end;
            continue;
        }
        out.push(b[i]);
        i += 1;
    }
    // Only whole well-formed segments were removed, so the bytes are
    // still valid UTF-8 whenever the input was.
    String::from_utf8(out).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

/// Index just past the closing quote of the string starting at `b[i]`.
fn skip_string(b: &[u8], i: usize) -> usize {
    debug_assert_eq!(b[i], b'"');
    let mut j = i + 1;
    while j < b.len() {
        match b[j] {
            b'\\' => j += 2,
            b'"' => return j + 1,
            _ => j += 1,
        }
    }
    b.len()
}

/// Index just past the JSON value starting at `b[i]` (string, object,
/// array, or primitive token).
fn skip_value(b: &[u8], i: usize) -> usize {
    if i >= b.len() {
        return i;
    }
    match b[i] {
        b'"' => skip_string(b, i),
        b'{' | b'[' => {
            let mut depth = 0usize;
            let mut j = i;
            while j < b.len() {
                match b[j] {
                    b'"' => j = skip_string(b, j),
                    b'{' | b'[' => {
                        depth += 1;
                        j += 1;
                    }
                    b'}' | b']' => {
                        depth -= 1;
                        j += 1;
                        if depth == 0 {
                            return j;
                        }
                    }
                    _ => j += 1,
                }
            }
            j
        }
        _ => {
            // Primitive: runs to the next structural byte.
            let mut j = i;
            while j < b.len() && !matches!(b[j], b',' | b'}' | b']') && !b[j].is_ascii_whitespace()
            {
                j += 1;
            }
            j
        }
    }
}

/// `"xsbench-x64"` → `("xsbench", 64)`; names without the suffix map to
/// one instance.
fn split_kernel_name(kernel: &str) -> (String, u32) {
    if let Some(pos) = kernel.rfind("-x") {
        if let Ok(n) = kernel[pos + 2..].parse::<u32>() {
            return (kernel[..pos].to_string(), n);
        }
    }
    (kernel.to_string(), 1)
}

/// What happened to one configuration between two snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeltaKind {
    /// Time within tolerance (or both OOM).
    Unchanged,
    /// Time shrank beyond the tolerance.
    Improvement,
    /// Time grew beyond the tolerance, or runnable → OOM.
    Regression,
    /// In the baseline, absent from the current snapshot.
    Missing,
    /// New in the current snapshot (never gates).
    Added,
}

/// One per-configuration comparison.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Delta {
    pub key: ConfigKey,
    pub baseline_s: Option<f64>,
    pub current_s: Option<f64>,
    /// `current / baseline − 1`; `None` when either side is OOM/absent.
    pub rel_change: Option<f64>,
    pub kind: DeltaKind,
}

/// Full diff of two snapshots under one relative tolerance.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ProfileDiff {
    pub tolerance: f64,
    pub deltas: Vec<Delta>,
}

/// Absolute floor used by [`ProfileDiff::compare`] when a baseline time
/// is zero: below it, a current time still counts as "zero".
pub const ZERO_BASELINE_EPSILON_S: f64 = 1e-9;

impl ProfileDiff {
    /// Compare `current` against `baseline` with relative tolerance
    /// `tolerance` (e.g. `0.05` = 5% slower still passes). Zero
    /// baselines fall back to an absolute epsilon of
    /// [`ZERO_BASELINE_EPSILON_S`] — see
    /// [`ProfileDiff::compare_with_epsilon`].
    pub fn compare(baseline: &Snapshot, current: &Snapshot, tolerance: f64) -> Self {
        Self::compare_with_epsilon(baseline, current, tolerance, ZERO_BASELINE_EPSILON_S)
    }

    /// Like [`ProfileDiff::compare`], with an explicit absolute epsilon
    /// for zero baselines. A relative gate is undefined at `baseline ==
    /// 0` — `current / 0 − 1` is not a percentage — so such entries gate
    /// on the absolute time instead: a current time above `abs_epsilon_s`
    /// is a regression, at or below it the entry is unchanged. Without
    /// the fallback a zero-time baseline entry would wave *any* current
    /// time through.
    pub fn compare_with_epsilon(
        baseline: &Snapshot,
        current: &Snapshot,
        tolerance: f64,
        abs_epsilon_s: f64,
    ) -> Self {
        let mut deltas = Vec::new();
        for (key, &base) in &baseline.entries {
            match current.entries.get(key) {
                None => deltas.push(Delta {
                    key: key.clone(),
                    baseline_s: base,
                    current_s: None,
                    rel_change: None,
                    kind: DeltaKind::Missing,
                }),
                Some(&cur) => {
                    let (rel_change, kind) = match (base, cur) {
                        (Some(b), Some(c)) if b > 0.0 => {
                            let rel = c / b - 1.0;
                            let kind = if rel > tolerance {
                                DeltaKind::Regression
                            } else if rel < -tolerance {
                                DeltaKind::Improvement
                            } else {
                                DeltaKind::Unchanged
                            };
                            (Some(rel), kind)
                        }
                        // Zero baseline: relative change is undefined, so
                        // gate on the absolute current time.
                        (Some(_), Some(c)) if c > abs_epsilon_s => (None, DeltaKind::Regression),
                        (Some(_), Some(_)) => (None, DeltaKind::Unchanged),
                        // Runnable before, OOM now: the §4.3 memory wall
                        // moved the wrong way.
                        (Some(_), None) => (None, DeltaKind::Regression),
                        // OOM before, runnable now: strictly better.
                        (None, Some(_)) => (None, DeltaKind::Improvement),
                        (None, None) => (None, DeltaKind::Unchanged),
                    };
                    deltas.push(Delta {
                        key: key.clone(),
                        baseline_s: base,
                        current_s: cur,
                        rel_change,
                        kind,
                    });
                }
            }
        }
        for (key, &cur) in &current.entries {
            if !baseline.entries.contains_key(key) {
                deltas.push(Delta {
                    key: key.clone(),
                    baseline_s: None,
                    current_s: cur,
                    rel_change: None,
                    kind: DeltaKind::Added,
                });
            }
        }
        Self { tolerance, deltas }
    }

    pub fn regressions(&self) -> impl Iterator<Item = &Delta> {
        self.deltas
            .iter()
            .filter(|d| matches!(d.kind, DeltaKind::Regression | DeltaKind::Missing))
    }

    /// True when the gate should fail (any regression or missing config).
    pub fn has_regressions(&self) -> bool {
        self.regressions().next().is_some()
    }

    /// Human-readable report, one line per configuration that changed,
    /// plus a summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let fmt_t = |t: Option<f64>| match t {
            Some(s) => format!("{:.3} ms", s * 1e3),
            None => "OOM".to_string(),
        };
        for d in &self.deltas {
            let tag = match d.kind {
                DeltaKind::Unchanged => continue,
                DeltaKind::Improvement => "improved",
                DeltaKind::Regression => "REGRESSION",
                DeltaKind::Missing => "MISSING",
                DeltaKind::Added => "added",
            };
            let change = match d.rel_change {
                Some(rel) => format!(" ({:+.1}%)", rel * 100.0),
                None => String::new(),
            };
            out.push_str(&format!(
                "{tag:>10}  {}  {} -> {}{change}\n",
                d.key.render(),
                fmt_t(d.baseline_s),
                fmt_t(d.current_s),
            ));
        }
        let n_reg = self.regressions().count();
        out.push_str(&format!(
            "{} configurations compared, {} regression(s), tolerance {:.1}%\n",
            self.deltas.len(),
            n_reg,
            self.tolerance * 100.0
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(b: &str, tl: u32, n: u32) -> ConfigKey {
        ConfigKey {
            benchmark: b.into(),
            thread_limit: tl,
            instances: n,
        }
    }

    const MEASURED: &str = concat!(
        r#"{"benchmark":"xsbench","device":"A100","thread_limit":32,"instances":1,"time_s":0.010,"metrics":[]}"#,
        "\n",
        r#"{"benchmark":"xsbench","device":"A100","thread_limit":32,"instances":4,"time_s":0.012,"metrics":[]}"#,
        "\n",
        r#"{"benchmark":"pagerank","device":"A100","thread_limit":32,"instances":8,"time_s":null,"metrics":[]}"#,
        "\n",
    );

    #[test]
    fn parses_measured_config_jsonl() {
        let s = Snapshot::parse(MEASURED).unwrap();
        assert_eq!(s.entries.len(), 3);
        assert_eq!(s.entries[&key("xsbench", 32, 1)], Some(0.010));
        assert_eq!(s.entries[&key("pagerank", 32, 8)], None);
    }

    #[test]
    fn parses_launch_record_jsonl() {
        let text = concat!(
            r#"{"record":"instance","instance":0,"cycles":5.0}"#,
            "\n",
            r#"{"record":"launch","schema":2,"kernel":"amgmk-x16","instances":16,"failed":0,"oom":0,"kernel_time_s":0.002,"total_time_s":0.003,"waves":1,"rpc_total":4}"#,
            "\n",
        );
        let s = Snapshot::parse(text).unwrap();
        assert_eq!(s.entries.len(), 1);
        assert_eq!(s.entries[&key("amgmk", 0, 16)], Some(0.002));
    }

    #[test]
    fn oom_launch_records_parse_as_not_runnable() {
        let text = r#"{"record":"launch","kernel":"pagerank-x8","instances":8,"failed":2,"oom":2,"kernel_time_s":0.001,"total_time_s":0.001,"waves":1,"rpc_total":0}"#;
        let s = Snapshot::parse(text).unwrap();
        assert_eq!(s.entries[&key("pagerank", 0, 8)], None);
    }

    #[test]
    fn schema_v3_runnability_comes_from_unrecovered() {
        // A recovered OOM (cumulative oom > 0, unrecovered = 0) still
        // produced a valid time.
        let recovered = r#"{"record":"launch","schema":3,"kernel":"pagerank-x8","instances":8,"failed":8,"oom":8,"unrecovered":0,"oom_splits":1,"kernel_time_s":0.004,"total_time_s":0.005,"waves":2,"rpc_total":8}"#;
        let s = Snapshot::parse(recovered).unwrap();
        assert_eq!(s.entries[&key("pagerank", 0, 8)], Some(0.004));
        // Unrecovered failures still mark the configuration unrunnable.
        let stuck = r#"{"record":"launch","schema":3,"kernel":"pagerank-x8","instances":8,"failed":9,"oom":9,"unrecovered":3,"kernel_time_s":0.004,"total_time_s":0.005,"waves":2,"rpc_total":8}"#;
        let s = Snapshot::parse(stuck).unwrap();
        assert_eq!(s.entries[&key("pagerank", 0, 8)], None);
    }

    #[test]
    fn explicit_instances_field_beats_kernel_name_parsing() {
        // A recovery run's rollup names the whole sequence; the
        // `instances` field is authoritative.
        let text = r#"{"record":"launch","schema":3,"kernel":"weird-xname","instances":6,"failed":0,"oom":0,"unrecovered":0,"kernel_time_s":0.002,"total_time_s":0.002,"waves":1,"rpc_total":0}"#;
        let s = Snapshot::parse(text).unwrap();
        assert_eq!(s.entries[&key("weird-xname", 0, 6)], Some(0.002));
    }

    #[test]
    fn parses_panel_json() {
        let text = r#"[{"thread_limit":32,"instance_counts":[1,2],"series":[
            {"benchmark":"xsbench","thread_limit":32,"points":[
                {"instances":1,"time_s":0.01,"speedup":1.0},
                {"instances":2,"time_s":null,"speedup":null}]}]}]"#;
        let s = Snapshot::parse(text).unwrap();
        assert_eq!(s.entries[&key("xsbench", 32, 1)], Some(0.01));
        assert_eq!(s.entries[&key("xsbench", 32, 2)], None);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Snapshot::parse("not json").is_err());
        assert!(Snapshot::parse(r#"{"neither":"format"}"#).is_err());
        assert!(Snapshot::parse("").is_err());
    }

    #[test]
    fn kernel_name_splitting() {
        assert_eq!(split_kernel_name("xsbench-x64"), ("xsbench".into(), 64));
        assert_eq!(split_kernel_name("plain"), ("plain".into(), 1));
        assert_eq!(split_kernel_name("odd-xname"), ("odd-xname".into(), 1));
    }

    fn snap(pairs: &[(&str, u32, u32, Option<f64>)]) -> Snapshot {
        Snapshot {
            entries: pairs
                .iter()
                .map(|&(b, tl, n, t)| (key(b, tl, n), t))
                .collect(),
        }
    }

    #[test]
    fn diff_flags_only_out_of_tolerance_growth() {
        let base = snap(&[
            ("a", 32, 1, Some(0.100)),
            ("a", 32, 4, Some(0.100)),
            ("a", 32, 8, Some(0.100)),
        ]);
        let cur = snap(&[
            ("a", 32, 1, Some(0.103)), // +3%: within 5%
            ("a", 32, 4, Some(0.120)), // +20%: regression
            ("a", 32, 8, Some(0.080)), // −20%: improvement
        ]);
        let d = ProfileDiff::compare(&base, &cur, 0.05);
        assert!(d.has_regressions());
        let kinds: Vec<DeltaKind> = d.deltas.iter().map(|x| x.kind).collect();
        assert_eq!(
            kinds,
            vec![
                DeltaKind::Unchanged,
                DeltaKind::Regression,
                DeltaKind::Improvement
            ]
        );
        assert!(d.render().contains("REGRESSION"));
        assert!(d.render().contains("1 regression(s)"));
    }

    #[test]
    fn oom_flip_and_missing_config_are_regressions() {
        let base = snap(&[("a", 32, 1, Some(0.1)), ("a", 32, 2, Some(0.1))]);
        let cur = snap(&[("a", 32, 1, None), ("b", 32, 1, Some(0.1))]);
        let d = ProfileDiff::compare(&base, &cur, 0.05);
        let by_key = |b: &str, n: u32| {
            d.deltas
                .iter()
                .find(|x| x.key == key(b, 32, n))
                .unwrap()
                .kind
        };
        assert_eq!(by_key("a", 1), DeltaKind::Regression); // runnable → OOM
        assert_eq!(by_key("a", 2), DeltaKind::Missing);
        assert_eq!(by_key("b", 1), DeltaKind::Added);
        assert!(d.has_regressions());
        // OOM → runnable is an improvement, never a failure.
        let d = ProfileDiff::compare(
            &snap(&[("a", 32, 1, None)]),
            &snap(&[("a", 32, 1, Some(0.1))]),
            0.05,
        );
        assert!(!d.has_regressions());
        assert_eq!(d.deltas[0].kind, DeltaKind::Improvement);
    }

    #[test]
    fn identical_snapshots_pass() {
        let base = snap(&[("a", 32, 1, Some(0.1)), ("a", 1024, 64, None)]);
        let d = ProfileDiff::compare(&base, &base.clone(), 0.0);
        assert!(!d.has_regressions());
        assert!(d.deltas.iter().all(|x| x.kind == DeltaKind::Unchanged));
    }

    #[test]
    fn zero_baseline_gates_on_absolute_time() {
        // A 0 s baseline has no meaningful relative change; any real
        // current time must still fail the gate instead of slipping
        // through as Unchanged.
        let base = snap(&[("a", 32, 1, Some(0.0))]);
        let d = ProfileDiff::compare(&base, &snap(&[("a", 32, 1, Some(0.1))]), 0.05);
        assert_eq!(d.deltas[0].kind, DeltaKind::Regression);
        assert_eq!(d.deltas[0].rel_change, None);
        assert!(d.has_regressions());
        // Zero → zero is unchanged.
        let d = ProfileDiff::compare(&base, &snap(&[("a", 32, 1, Some(0.0))]), 0.05);
        assert_eq!(d.deltas[0].kind, DeltaKind::Unchanged);
        assert!(!d.has_regressions());
        // Noise below the absolute epsilon also passes.
        let d = ProfileDiff::compare(&base, &snap(&[("a", 32, 1, Some(1e-12))]), 0.05);
        assert_eq!(d.deltas[0].kind, DeltaKind::Unchanged);
    }

    #[test]
    fn strip_json_fields_removes_members_lexically() {
        // Trailing-comma case: the member's own comma goes with it.
        assert_eq!(
            strip_json_fields(
                r#"{"a":1,"timeline":[{"t":1},{"t":2}],"b":2}"#,
                &["timeline"]
            ),
            r#"{"a":1,"b":2}"#
        );
        // Last-member case: the preceding comma goes instead.
        assert_eq!(
            strip_json_fields(r#"{"a":1,"timeline":[1,2,3]}"#, &["timeline"]),
            r#"{"a":1}"#
        );
        // Strings, nesting and escapes don't confuse the scanner; a
        // value string containing the field name is untouched.
        assert_eq!(
            strip_json_fields(
                r#"{"k":"timeline","timeline":{"x":"a\"b,}","y":[{}]},"n":3}"#,
                &["timeline"]
            ),
            r#"{"k":"timeline","n":3}"#
        );
        // Works per line on JSONL and with multiple fields.
        let jsonl = "{\"a\":1,\"big\":[1,2]}\n{\"b\":null,\"big\":{},\"c\":true}\n";
        assert_eq!(
            strip_json_fields(jsonl, &["big", "c"]),
            "{\"a\":1}\n{\"b\":null}\n"
        );
        // No match: byte-identical output.
        let text = r#"{"a": [1, 2], "b": "x"}"#;
        assert_eq!(strip_json_fields(text, &["missing"]), text);
        // A stripped snapshot still parses.
        let launch = r#"{"record":"launch","schema":5,"kernel":"xsbench-x4","instances":4,"unrecovered":0,"kernel_time_s":0.002,"timeline":[{"ts_us":1.0,"utilization":0.5}]}"#;
        let s = Snapshot::parse(&strip_json_fields(launch, &["timeline"])).unwrap();
        assert_eq!(s.entries[&key("xsbench", 0, 4)], Some(0.002));
    }

    #[test]
    fn zero_baseline_epsilon_is_configurable() {
        let base = snap(&[("a", 32, 1, Some(0.0))]);
        let cur = snap(&[("a", 32, 1, Some(0.5e-3))]);
        // Default epsilon (1 ns): 0.5 ms is a regression.
        assert!(ProfileDiff::compare(&base, &cur, 0.05).has_regressions());
        // A 1 ms allowance waves it through.
        let d = ProfileDiff::compare_with_epsilon(&base, &cur, 0.05, 1e-3);
        assert!(!d.has_regressions());
        assert_eq!(d.deltas[0].kind, DeltaKind::Unchanged);
    }
}
