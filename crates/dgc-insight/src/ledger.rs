//! The cross-run perf ledger.
//!
//! An append-only JSONL file (one [`LedgerEntry`] per line, conventionally
//! `results/ledger.jsonl`) of benchmark runs: their provenance (timestamp,
//! git revision, workload fingerprint) and host-throughput rates, one
//! [`LedgerSection`] per measured section. A schema-2 row records one
//! perfbench run ([`PerfbenchResult`], the last stdout line of
//! `perfbench/run.py`); the schema-1 rows before them recorded the retired
//! self-benchmark and still load. On top of it:
//!
//! * [`Ledger::report`] — a markdown trend report: per config
//!   fingerprint, a rate table per section over that fingerprint's runs;
//! * [`Ledger::check`] — the trend gate: the latest run's section rates
//!   must not fall more than a tolerance below the trailing median of
//!   the preceding comparable runs. `dgc-insight check` exits 0 on a
//!   pass, 1 on a regression and 2 on a usage or parse error.
//!
//! Entries with different config fingerprints are never trended against
//! each other — a changed workload is a new baseline, not a regression.

use crate::provenance::config_fingerprint;
use serde::{Serialize, Value};

/// Ledger row schema. History: 1 — the retired self-benchmark's sections
/// (`instances_per_s`, `sim_cycles_per_s`) with optional utilization and
/// makespan rollups; 2 — one perfbench run: its result fields and one
/// section named after the workload (`instances_per_s`, `sim_insts_per_s`).
pub const LEDGER_SCHEMA_VERSION: u32 = 2;

/// The rate keys a section of `schema` carries.
fn rate_keys(schema: u32) -> Result<[&'static str; 2], String> {
    match schema {
        1 => Ok(["instances_per_s", "sim_cycles_per_s"]),
        2 => Ok(["instances_per_s", "sim_insts_per_s"]),
        other => Err(format!("unknown ledger schema {other}")),
    }
}

/// How a rate key reads in reports: `sim_insts_per_s` → `sim insts/s`.
fn rate_label(key: &str) -> String {
    key.replace("_per_s", "/s").replace('_', " ")
}

/// One measured section's host time and throughput rates.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerSection {
    pub name: String,
    /// Host wall-clock of the section, seconds.
    pub wall_s: f64,
    /// Two rates per host second, by key: `instances_per_s`, then
    /// `sim_cycles_per_s` (schema 1) or `sim_insts_per_s` (schema 2).
    pub rates: [(&'static str, f64); 2],
}

impl LedgerSection {
    fn rate(&self, key: &str) -> Option<f64> {
        self.rates.iter().find(|r| r.0 == key).map(|r| r.1)
    }
}

/// One metric of a perfbench result.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfbenchMetric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// A perfbench result: `{"correct", "attempted", "failed", "metrics":
/// {name: {"value", "unit"}}}`, as `perfbench/run.py` prints it last.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfbenchResult {
    /// Every pass's outputs, digests and exact counts checked.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Every metric of the line, in its order.
    pub metrics: Vec<PerfbenchMetric>,
}

impl PerfbenchResult {
    /// Read the last non-blank line of `text`: a saved `run.py` stdout,
    /// or just its result line.
    pub fn parse(text: &str) -> Result<PerfbenchResult, String> {
        let line = text
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .ok_or("no perfbench result line")?;
        let doc: Value =
            serde_json::from_str(line).map_err(|e| format!("perfbench result JSON: {e}"))?;
        PerfbenchResult::from_value(&doc)
    }

    /// The result fields of an object: a result line, or a schema-2
    /// ledger row, which carries them at its top level.
    fn from_value(doc: &Value) -> Result<PerfbenchResult, String> {
        let field = |key: &str| {
            doc.get(key)
                .ok_or_else(|| format!("perfbench result without {key}"))
        };
        let count = |key: &str| {
            field(key)?
                .as_u64()
                .ok_or_else(|| format!("perfbench {key} is not a count"))
        };
        let metrics = field("metrics")?
            .as_object()
            .ok_or("perfbench metrics is not an object")?
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Value::as_f64);
                let unit = m.get("unit").and_then(Value::as_str);
                match (value, unit) {
                    (Some(value), Some(unit)) => Ok(PerfbenchMetric {
                        name: name.clone(),
                        value,
                        unit: unit.to_string(),
                    }),
                    _ => Err(format!(
                        "perfbench metric {name:?} needs a value and a unit"
                    )),
                }
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(PerfbenchResult {
            correct: field("correct")?
                .as_bool()
                .ok_or("perfbench correct is not a boolean")?,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The run's section, named after `workload`: its `wall_s`,
    /// `instances_per_s` and `sim_insts_per_s`, which an untraced run
    /// (`--trace 0`) reports and a traced one does not.
    fn section(&self, workload: &str) -> Result<LedgerSection, String> {
        let need = |name: &str| {
            self.metric(name)
                .ok_or_else(|| format!("perfbench result has no {name}"))
        };
        let [inst_key, sim_key] = rate_keys(LEDGER_SCHEMA_VERSION)?;
        Ok(LedgerSection {
            name: workload.to_string(),
            wall_s: need("wall_s")?,
            rates: [(inst_key, need(inst_key)?), (sim_key, need(sim_key)?)],
        })
    }

    /// The result fields as they sit in a ledger row.
    fn fields(&self) -> Vec<(String, Value)> {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let v = Value::Object(vec![
                    ("value".into(), Value::F64(m.value)),
                    ("unit".into(), Value::Str(m.unit.clone())),
                ]);
                (m.name.clone(), v)
            })
            .collect();
        vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::U64(self.attempted)),
            ("failed".into(), Value::U64(self.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ]
    }
}

/// One benchmark run, as appended to the ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEntry {
    pub schema: u32,
    /// UTC timestamp of the append, ISO-8601 (`2026-08-09T12:00:00Z`).
    pub timestamp: String,
    /// Abbreviated git revision the run was built from (`+` = dirty).
    pub git_rev: String,
    /// Workload fingerprint (`provenance::config_fingerprint`); trend
    /// comparisons only happen between equal fingerprints.
    pub config_hash: String,
    /// The perfbench result the row records (`None` on schema-1 rows).
    pub run: Option<PerfbenchResult>,
    pub sections: Vec<LedgerSection>,
}

impl LedgerEntry {
    /// A schema-2 row for one untraced perfbench run of `workload` at
    /// `--seconds seconds`, fingerprinted by those two. A run that is not
    /// `correct` or failed any unit is refused: its rates would time work
    /// that did not check.
    pub fn from_perfbench(
        run: PerfbenchResult,
        workload: &str,
        seconds: f64,
        git_rev: &str,
        timestamp: &str,
    ) -> Result<LedgerEntry, String> {
        if !run.correct || run.failed > 0 {
            return Err(format!(
                "perfbench run reports correct: {}, failed: {}; only clean runs are recorded",
                run.correct, run.failed
            ));
        }
        Ok(LedgerEntry {
            schema: LEDGER_SCHEMA_VERSION,
            timestamp: timestamp.to_string(),
            git_rev: git_rev.to_string(),
            config_hash: config_fingerprint(["perfbench", workload, &seconds.to_string()]),
            sections: vec![run.section(workload)?],
            run: Some(run),
        })
    }

    /// Serialize as one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut row = vec![
            ("schema".into(), Value::U64(self.schema.into())),
            ("timestamp".into(), Value::Str(self.timestamp.clone())),
            ("git_rev".into(), Value::Str(self.git_rev.clone())),
            ("config_hash".into(), Value::Str(self.config_hash.clone())),
        ];
        if let Some(run) = &self.run {
            row.extend(run.fields());
        }
        let sections = self
            .sections
            .iter()
            .map(|s| {
                let mut o = vec![
                    ("name".into(), Value::Str(s.name.clone())),
                    ("wall_s".into(), Value::F64(s.wall_s)),
                ];
                o.extend(s.rates.iter().map(|&(k, v)| (k.to_string(), Value::F64(v))));
                Value::Object(o)
            })
            .collect();
        row.push(("sections".into(), Value::Array(sections)));
        serde_json::to_string(&Value::Object(row)).expect("ledger entry serializes")
    }

    /// Parse one JSONL line of any schema.
    pub fn parse(line: &str) -> Result<LedgerEntry, String> {
        let doc: Value = serde_json::from_str(line).map_err(|e| format!("ledger JSON: {e}"))?;
        let text = |key: &str| {
            doc.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("ledger line without {key}"))
        };
        let schema = doc
            .get("schema")
            .and_then(Value::as_u64)
            .and_then(|s| u32::try_from(s).ok())
            .ok_or("ledger line without schema")?;
        let keys = rate_keys(schema)?;
        let sections = doc
            .get("sections")
            .and_then(Value::as_array)
            .ok_or("ledger line without sections")?
            .iter()
            .map(|s| {
                let num = |key: &str| {
                    s.get(key)
                        .and_then(Value::as_f64)
                        .ok_or_else(|| format!("ledger section without {key}"))
                };
                Ok(LedgerSection {
                    name: s
                        .get("name")
                        .and_then(Value::as_str)
                        .ok_or("ledger section without name")?
                        .to_string(),
                    wall_s: num("wall_s")?,
                    rates: [(keys[0], num(keys[0])?), (keys[1], num(keys[1])?)],
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(LedgerEntry {
            schema,
            timestamp: text("timestamp")?,
            git_rev: text("git_rev")?,
            config_hash: text("config_hash")?,
            run: match schema {
                1 => None,
                _ => Some(PerfbenchResult::from_value(&doc)?),
            },
            sections,
        })
    }
}

/// One metric's verdict from the trend gate.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CheckDelta {
    pub section: String,
    pub metric: String,
    pub current: f64,
    /// Trailing median over the comparable window.
    pub median: f64,
    /// `current / median` (∞-safe: 1.0 when the median is 0).
    pub ratio: f64,
    pub regressed: bool,
}

/// The trend gate's result over the latest entry.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct LedgerCheck {
    /// Comparable prior runs the medians were taken over (0 = no
    /// baseline yet; the gate passes vacuously).
    pub baseline_runs: usize,
    pub deltas: Vec<CheckDelta>,
}

impl LedgerCheck {
    pub fn has_regressions(&self) -> bool {
        self.deltas.iter().any(|d| d.regressed)
    }

    pub fn render(&self) -> String {
        if self.baseline_runs == 0 {
            return "ledger check: no comparable prior runs — pass (new baseline)\n".into();
        }
        let mut out = format!(
            "ledger check against trailing median of {} run(s):\n",
            self.baseline_runs
        );
        for d in &self.deltas {
            out.push_str(&format!(
                "  {} {} {}: {:.3} vs median {:.3} ({:+.1}%)\n",
                if d.regressed { "REGRESSED" } else { "ok" },
                d.section,
                d.metric,
                d.current,
                d.median,
                (d.ratio - 1.0) * 100.0
            ));
        }
        out
    }
}

/// A loaded ledger: entries in append (chronological) order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    pub entries: Vec<LedgerEntry>,
}

fn median(sorted_input: &[f64]) -> f64 {
    let mut v = sorted_input.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A rate as a report cell: one decimal, or three in scientific notation
/// from 1e5 up.
fn fmt_rate(v: f64) -> String {
    if v.abs() >= 1e5 {
        format!("{v:.3e}")
    } else {
        format!("{v:.1}")
    }
}

impl Ledger {
    /// Parse a JSONL document; blank lines are tolerated, a malformed
    /// line is an error naming its line number.
    pub fn load(text: &str) -> Result<Ledger, String> {
        let mut entries = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            entries.push(LedgerEntry::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?);
        }
        Ok(Ledger { entries })
    }

    /// [`Ledger::load`] for read paths over a ledger another process may
    /// still be appending to (or that was truncated by a crash):
    /// malformed lines — typically a half-written trailing record — are
    /// skipped instead of failing the whole load, and returned as
    /// warnings naming the line number. Valid rows all survive.
    pub fn load_lossy(text: &str) -> (Ledger, Vec<String>) {
        let mut entries = Vec::new();
        let mut warnings = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match LedgerEntry::parse(line) {
                Ok(e) => entries.push(e),
                Err(e) => warnings.push(format!("skipping corrupt line {}: {e}", i + 1)),
            }
        }
        (Ledger { entries }, warnings)
    }

    /// Prior entries comparable to the latest (same config fingerprint),
    /// newest-last, capped at `window`.
    fn baseline_of_latest(&self, window: usize) -> (Option<&LedgerEntry>, Vec<&LedgerEntry>) {
        let Some(latest) = self.entries.last() else {
            return (None, Vec::new());
        };
        let n = self.entries.len();
        let mut prior: Vec<&LedgerEntry> = self.entries[..n - 1]
            .iter()
            .filter(|e| e.config_hash == latest.config_hash)
            .collect();
        if prior.len() > window {
            prior.drain(..prior.len() - window);
        }
        (Some(latest), prior)
    }

    /// Gate the latest entry's section rates against the trailing median
    /// of the preceding comparable runs: a rate below
    /// `median * (1 - tolerance)` is a regression. Errors when the
    /// ledger is empty.
    pub fn check(&self, tolerance: f64, window: usize) -> Result<LedgerCheck, String> {
        let (latest, prior) = self.baseline_of_latest(window);
        let latest = latest.ok_or("ledger is empty")?;
        let mut check = LedgerCheck {
            baseline_runs: prior.len(),
            deltas: Vec::new(),
        };
        if prior.is_empty() {
            return Ok(check);
        }
        for section in &latest.sections {
            for &(key, current) in &section.rates {
                let history: Vec<f64> = prior
                    .iter()
                    .flat_map(|e| &e.sections)
                    .filter(|s| s.name == section.name)
                    .filter_map(|s| s.rate(key))
                    .collect();
                if history.is_empty() {
                    continue;
                }
                let med = median(&history);
                check.deltas.push(CheckDelta {
                    section: section.name.clone(),
                    metric: rate_label(key),
                    current,
                    median: med,
                    ratio: if med > 0.0 { current / med } else { 1.0 },
                    regressed: med > 0.0 && current < med * (1.0 - tolerance),
                });
            }
        }
        Ok(check)
    }

    /// Render the markdown trend report: the run count and the latest
    /// run, then one part per config fingerprint, in order of first
    /// appearance, with a rate table per section over that fingerprint's
    /// runs.
    pub fn report(&self) -> String {
        let mut out = String::from("# Perf ledger trend report\n\n");
        let Some(latest) = self.entries.last() else {
            out.push_str("The ledger is empty.\n");
            return out;
        };
        out.push_str(&format!(
            "{} run(s) on record; latest {} @ `{}` (config `{}`). \
             Runs are trended only against runs of the same config.\n\n",
            self.entries.len(),
            latest.timestamp,
            latest.git_rev,
            latest.config_hash
        ));
        let mut configs: Vec<&str> = Vec::new();
        for e in &self.entries {
            if !configs.contains(&e.config_hash.as_str()) {
                configs.push(&e.config_hash);
            }
        }
        for config in configs {
            let runs: Vec<&LedgerEntry> = self
                .entries
                .iter()
                .filter(|e| e.config_hash == config)
                .collect();
            out.push_str(&format!("## Config `{config}`: {} run(s)\n\n", runs.len()));
            trend_tables(&mut out, &runs);
        }
        out
    }
}

/// One rate table per section of `runs` (all of one config), each with
/// the latest instance rate against the trailing median of the rest.
fn trend_tables(out: &mut String, runs: &[&LedgerEntry]) {
    let mut sections: Vec<&LedgerSection> = Vec::new();
    for s in runs.iter().flat_map(|e| &e.sections) {
        if !sections.iter().any(|t| t.name == s.name) {
            sections.push(s);
        }
    }
    for first in sections {
        let name = &first.name;
        let keys = first.rates.map(|r| r.0);
        out.push_str(&format!("### `{name}`\n\n"));
        out.push_str(&format!(
            "| timestamp | git rev | wall s | {} | {} |\n",
            rate_label(keys[0]),
            rate_label(keys[1])
        ));
        out.push_str("|---|---|---:|---:|---:|\n");
        let mut rates = Vec::new();
        for e in runs {
            if let Some(s) = e.sections.iter().find(|s| &s.name == name) {
                let cell = |k: &str| s.rate(k).map_or("–".into(), fmt_rate);
                out.push_str(&format!(
                    "| {} | `{}` | {:.3} | {} | {} |\n",
                    e.timestamp,
                    e.git_rev,
                    s.wall_s,
                    cell(keys[0]),
                    cell(keys[1])
                ));
                rates.extend(s.rate(keys[0]));
            }
        }
        if rates.len() > 1 {
            let hist = &rates[..rates.len() - 1];
            let med = median(hist);
            let cur = *rates.last().expect("non-empty");
            let delta = if med > 0.0 {
                (cur / med - 1.0) * 100.0
            } else {
                0.0
            };
            out.push_str(&format!(
                "\ntrailing median {} {label}, latest {} ({delta:+.1}%)\n",
                fmt_rate(med),
                fmt_rate(cur),
                label = rate_label(keys[0])
            ));
        }
        out.push('\n');
    }
}

/// Format a unix timestamp (seconds) as ISO-8601 UTC
/// (`2026-08-09T12:34:56Z`). Days-to-civil conversion per the standard
/// proleptic-Gregorian algorithm.
pub fn iso8601_utc(unix_secs: u64) -> String {
    let days = (unix_secs / 86_400) as i64;
    let secs = unix_secs % 86_400;
    let (h, m, s) = (secs / 3600, (secs % 3600) / 60, secs % 60);
    // civil_from_days (Howard Hinnant's algorithm), era-based.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let mo = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if mo <= 2 { y + 1 } else { y };
    format!("{y:04}-{mo:02}-{d:02}T{h:02}:{m:02}:{s:02}Z")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A row as the retired self-benchmark appended it.
    const SCHEMA_1_ROW: &str = r#"{"schema":1,"timestamp":"2026-10-18T04:34:36Z","git_rev":"9f253d7f9257","config_hash":"a145a9c01ec7df61","total_wall_s":0.37552315,"utilization_mean":null,"utilization_p95":null,"makespan_s":null,"sections":[{"name":"figure6_smoke_tl32","wall_s":0.242052978,"instances_per_s":214.82900326060025,"sim_cycles_per_s":39870242.12303859},{"name":"sharded_xsbench_x8_dev2","wall_s":0.09039174,"instances_per_s":88.50366194964275,"sim_cycles_per_s":31066987.20554594}]}"#;

    /// An untraced perfbench result line whose instance rate is `rate`.
    fn line(rate: f64, correct: bool, failed: u64) -> String {
        format!(
            r#"{{"correct": {correct}, "attempted": 576, "failed": {failed}, "metrics": {{"wall_s": {{"value": 0.36, "unit": "s"}}, "setup_s": {{"value": 0.027, "unit": "s"}}, "instances_per_s": {{"value": {rate}, "unit": "1/s"}}, "sim_insts_per_s": {{"value": {}, "unit": "1/s"}}, "peak_rss_mb": {{"value": 6.0, "unit": "MiB"}}}}}}"#,
            rate * 1.7e4
        )
    }

    fn entry(rate: f64, timestamp: &str) -> LedgerEntry {
        let run = PerfbenchResult::parse(&line(rate, true, 0)).unwrap();
        LedgerEntry::from_perfbench(run, "serve-closed", 55.0, "abc123def456", timestamp).unwrap()
    }

    fn ledger_of(rates: &[f64]) -> Ledger {
        let text: String = rates
            .iter()
            .enumerate()
            .map(|(i, &r)| entry(r, &iso8601_utc(1_700_000_000 + i as u64)).to_json_line() + "\n")
            .collect();
        Ledger::load(&text).unwrap()
    }

    #[test]
    fn entry_round_trips_through_jsonl() {
        let e = entry(532.5, "2026-08-09T00:00:00Z");
        assert_eq!(e.schema, 2);
        let back = LedgerEntry::parse(&e.to_json_line()).unwrap();
        assert_eq!(e, back);
        // The row keeps every metric of the line, by name, with its unit.
        let run = back.run.unwrap();
        assert_eq!((run.correct, run.attempted, run.failed), (true, 576, 0));
        assert_eq!(run.metrics.len(), 5);
        assert_eq!(run.metrics[4].name, "peak_rss_mb");
        assert_eq!(run.metrics[4].unit, "MiB");
        assert!(LedgerEntry::parse("{}").is_err());
        assert!(LedgerEntry::parse("not json").is_err());
        // A schema-2 row without its result fields is malformed.
        let bare = e.to_json_line().replace(r#""correct":true,"#, "");
        assert!(LedgerEntry::parse(&bare).is_err());
        assert!(
            LedgerEntry::parse(&e.to_json_line().replace(r#""schema":2"#, r#""schema":3"#))
                .unwrap_err()
                .contains("schema 3")
        );
    }

    #[test]
    fn perfbench_run_becomes_one_section_named_after_the_workload() {
        let e = entry(500.0, "t");
        assert_eq!(e.sections.len(), 1);
        let s = &e.sections[0];
        assert_eq!(s.name, "serve-closed");
        assert_eq!(s.wall_s, 0.36);
        assert_eq!(
            s.rates,
            [("instances_per_s", 500.0), ("sim_insts_per_s", 8.5e6)]
        );
        // The fingerprint is the key (workload, seconds), however the
        // seconds were spelled.
        let again = entry(1.0, "u");
        assert_eq!(e.config_hash, again.config_hash);
        assert_eq!(
            e.config_hash,
            config_fingerprint(["perfbench", "serve-closed", "55"])
        );
        // run.py's whole stdout: the result is the last line.
        let stdout = format!("perfbench: building\n{}\n\n", line(1.0, true, 0));
        let run = PerfbenchResult::parse(&stdout).unwrap();
        let short = LedgerEntry::from_perfbench(run, "serve-closed", 1.0, "r", "t").unwrap();
        assert_ne!(short.config_hash, e.config_hash);
        // A traced line reports layer shares and counts, not the section's
        // wall time and rates, and is refused.
        let traced = r#"{"correct": true, "attempted": 24, "failed": 0, "metrics": {"gpu-sim.functional_s": {"value": 1.5, "unit": "s"}, "gpu-sim.teams": {"value": 1056, "unit": "count"}, "trace_overhead": {"value": 0.1, "unit": "ratio"}}}"#;
        let run = PerfbenchResult::parse(traced).unwrap();
        let err = LedgerEntry::from_perfbench(run, "ensemble-1024", 1.0, "r", "t").unwrap_err();
        assert!(err.contains("no wall_s"), "{err}");
    }

    #[test]
    fn append_refuses_runs_that_did_not_check() {
        for (correct, failed) in [(false, 0), (true, 3), (false, 1)] {
            let run = PerfbenchResult::parse(&line(100.0, correct, failed)).unwrap();
            let err = LedgerEntry::from_perfbench(run, "serve-closed", 55.0, "r", "t").unwrap_err();
            assert!(err.contains(&format!("failed: {failed}")), "{err}");
        }
    }

    #[test]
    fn perfbench_reader_rejects_malformed_results() {
        assert!(PerfbenchResult::parse("").is_err());
        assert!(PerfbenchResult::parse("not json").is_err());
        assert!(PerfbenchResult::parse(r#"{"correct": true}"#).is_err());
        let good = line(1.0, true, 0);
        for (from, to) in [
            (r#""correct": true"#, r#""correct": 1"#),
            (r#""attempted": 576"#, r#""attempted": -1"#),
            (r#""unit": "MiB""#, r#""unit": 6"#),
            (r#""value": 6.0"#, r#""value": "6""#),
        ] {
            assert!(good.contains(from));
            assert!(
                PerfbenchResult::parse(&good.replace(from, to)).is_err(),
                "{to}"
            );
        }
    }

    #[test]
    fn schema_1_and_schema_2_rows_load_report_and_check_alike() {
        let v1 = LedgerEntry::parse(SCHEMA_1_ROW).unwrap();
        assert_eq!(v1.run, None);
        assert_eq!(
            v1.sections[1].rates,
            [
                ("instances_per_s", 88.50366194964275),
                ("sim_cycles_per_s", 31066987.20554594)
            ]
        );
        let v2 = entry(500.0, "2026-10-20T00:00:00Z").to_json_line();
        for (row, second) in [(SCHEMA_1_ROW, "sim cycles/s"), (v2.as_str(), "sim insts/s")] {
            // The same row twice; then the row and a copy at a sixth of
            // its rates, which `check --tolerance 0.8` flags.
            let mut slow = LedgerEntry::parse(row).unwrap();
            for rate in slow.sections.iter_mut().flat_map(|s| &mut s.rates) {
                rate.1 /= 6.0;
            }
            let slow = slow.to_json_line();
            let ledger = Ledger::load(&format!("{row}\n{row}\n")).unwrap();
            let check = ledger.check(0.8, 5).unwrap();
            assert_eq!(check.baseline_runs, 1);
            assert!(!check.has_regressions(), "{}", check.render());
            let metrics: Vec<&str> = check.deltas.iter().map(|d| d.metric.as_str()).collect();
            assert!(metrics.contains(&"instances/s") && metrics.contains(&second));
            let report = ledger.report();
            assert!(
                report.contains(&format!("| wall s | instances/s | {second} |")),
                "{report}"
            );
            let collapsed = Ledger::load(&format!("{row}\n{slow}\n")).unwrap();
            assert!(collapsed.check(0.8, 5).unwrap().has_regressions());
        }
    }

    #[test]
    fn load_tolerates_blank_lines_and_reports_bad_ones() {
        let good = entry(10.0, "t").to_json_line();
        let l = Ledger::load(&format!("\n{good}\n\n{good}\n")).unwrap();
        assert_eq!(l.entries.len(), 2);
        let err = Ledger::load(&format!("{good}\nbroken\n")).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn load_lossy_skips_a_half_written_trailing_line_keeping_valid_rows() {
        let good = entry(10.0, "t").to_json_line();
        // A crash mid-append leaves a truncated final record.
        let truncated = &good[..good.len() / 2];
        let (l, warnings) = Ledger::load_lossy(&format!("{good}\n{good}\n{truncated}"));
        assert_eq!(l.entries.len(), 2);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("line 3"), "{warnings:?}");
        // Corruption in the middle also skips only the bad row.
        let (l, warnings) = Ledger::load_lossy(&format!("{good}\nnot json\n{good}\n"));
        assert_eq!(l.entries.len(), 2);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("line 2"), "{warnings:?}");
        // A clean file loads warning-free and matches strict load.
        let (l, warnings) = Ledger::load_lossy(&format!("{good}\n"));
        assert!(warnings.is_empty());
        assert_eq!(l, Ledger::load(&format!("{good}\n")).unwrap());
    }

    #[test]
    fn check_passes_steady_rates_and_flags_collapses() {
        let steady = ledger_of(&[100.0, 102.0, 98.0, 101.0]);
        let check = steady.check(0.2, 5).unwrap();
        assert_eq!(check.baseline_runs, 3);
        assert!(!check.has_regressions(), "{}", check.render());

        let collapsed = ledger_of(&[100.0, 102.0, 98.0, 40.0]);
        let check = collapsed.check(0.2, 5).unwrap();
        assert!(check.has_regressions());
        assert!(check.render().contains("REGRESSED"));

        // A single entry has no baseline: vacuous pass.
        let first = ledger_of(&[100.0]);
        let check = first.check(0.2, 5).unwrap();
        assert_eq!(check.baseline_runs, 0);
        assert!(!check.has_regressions());
        assert!(Ledger::default().check(0.2, 5).is_err());
    }

    #[test]
    fn check_ignores_entries_with_other_fingerprints() {
        let mut l = ledger_of(&[100.0, 100.0]);
        // A slow run under a *different* workload fingerprint must not
        // drag the median, and a fast history under a different
        // fingerprint must not flag the latest as regressed.
        let mut foreign = entry(1000.0, "t");
        foreign.config_hash = "1111111111111111".into();
        l.entries.insert(0, foreign);
        let check = l.check(0.2, 5).unwrap();
        assert_eq!(check.baseline_runs, 1);
        assert!(!check.has_regressions());
    }

    #[test]
    fn window_caps_the_baseline() {
        let l = ledger_of(&[1.0, 1.0, 100.0, 100.0, 100.0, 100.0]);
        // Window 3 sees only the fast recent runs; the early slow ones
        // age out of the median.
        let check = l.check(0.2, 3).unwrap();
        assert_eq!(check.baseline_runs, 3);
        assert!(!check.has_regressions());
    }

    #[test]
    fn report_renders_a_trend_table_per_config() {
        let mut l = ledger_of(&[100.0, 110.0, 105.0]);
        // A run of another config is reported apart, and is not the
        // latest run of the first.
        let mut other = entry(7.0, "t");
        other.config_hash = "1111111111111111".into();
        l.entries.insert(1, other);
        let text = l.report();
        assert!(text.contains("# Perf ledger trend report"));
        assert!(text.contains("4 run(s) on record"));
        let first = text.find(&format!(
            "## Config `{}`: 3 run(s)",
            l.entries[0].config_hash
        ));
        let second = text.find("## Config `1111111111111111`: 1 run(s)");
        assert!(first.unwrap() < second.unwrap(), "{text}");
        assert_eq!(text.matches("### `serve-closed`").count(), 2, "{text}");
        assert!(text.contains("| 0.360 | 110.0 | 1.870e6 |"), "{text}");
        assert!(text.contains("| 0.360 | 7.0 | 1.190e5 |"), "{text}");
        assert!(text.contains("trailing median 105.0 instances/s"));
        assert!(Ledger::default().report().contains("empty"));
    }

    #[test]
    fn iso8601_matches_known_timestamps() {
        assert_eq!(iso8601_utc(0), "1970-01-01T00:00:00Z");
        assert_eq!(iso8601_utc(86_400), "1970-01-02T00:00:00Z");
        // 2026-08-09 00:00:00 UTC.
        assert_eq!(iso8601_utc(1_786_233_600), "2026-08-09T00:00:00Z");
        assert_eq!(iso8601_utc(951_825_599), "2000-02-29T11:59:59Z");
    }
}
