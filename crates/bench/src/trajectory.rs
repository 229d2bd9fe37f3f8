//! `tle-bench trajectory` — the cross-PR throughput history.
//!
//! Every PR that touches performance commits a `BENCH_<n>.json` artifact
//! (emitted by `tle-bench emit`). Each file answers "how fast is PR n";
//! this module answers the question the sequence exists for: *how has
//! each figure's throughput moved across PRs?* It parses every committed
//! artifact — all schema versions (v1 PR 6, v2 PR 7, v3 PR 8+) share the
//! run-identity and `measured.ops_per_sec` fields this table needs — and
//! prints one table per figure with a column per PR, `-` where a workload
//! didn't exist yet.

use crate::json::Json;
use crate::perf::RunKey;
use std::path::{Path, PathBuf};

/// Schema versions this reader understands. New versions must extend the
/// run objects, not rename the identity fields, or this range (and the
/// table) is the test that notices.
pub const KNOWN_SCHEMA_VERSIONS: std::ops::RangeInclusive<u64> = 1..=3;

/// One row of the trajectory: a run key plus its throughput per PR
/// (`None` where the PR's artifact has no such run).
#[derive(Debug)]
pub struct Row {
    pub key: RunKey,
    pub unit: String,
    pub ops_per_sec: Vec<Option<f64>>,
}

/// The assembled history.
#[derive(Debug)]
pub struct Trajectory {
    /// PR numbers, ascending; column order of every row.
    pub prs: Vec<u64>,
    /// Rows sorted by key (figure first, so rendering can group).
    pub rows: Vec<Row>,
}

/// One run as parsed from an artifact: identity, unit, throughput.
type ParsedRun = (RunKey, String, f64);

/// Parse one artifact into `(pr, runs)`.
fn parse_artifact(label: &str, doc: &Json) -> Result<(u64, Vec<ParsedRun>), String> {
    if doc.get("schema").and_then(Json::as_str) != Some("tle-bench-trajectory") {
        return Err(format!("{label}: not a tle-bench-trajectory document"));
    }
    let version = doc
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{label}: missing schema_version"))?;
    if !KNOWN_SCHEMA_VERSIONS.contains(&version) {
        return Err(format!(
            "{label}: schema_version {version} is outside the understood range \
             {}..={}",
            KNOWN_SCHEMA_VERSIONS.start(),
            KNOWN_SCHEMA_VERSIONS.end()
        ));
    }
    let pr = doc
        .get("pr")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{label}: missing pr number"))?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{label}: missing runs array"))?;
    let mut out = Vec::with_capacity(runs.len());
    for (i, run) in runs.iter().enumerate() {
        let key = RunKey::of(run).map_err(|e| format!("{label}: run {i}: {e}"))?;
        let unit = run
            .get("unit")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{label}: run {i} missing `unit`"))?
            .to_owned();
        let ops = run
            .get("measured")
            .and_then(|m| m.get("ops_per_sec"))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{label}: run {i} missing measured.ops_per_sec"))?;
        out.push((key, unit, ops));
    }
    Ok((pr, out))
}

/// Assemble the trajectory from parsed artifacts (label is used in error
/// messages — typically the file name).
pub fn assemble(docs: &[(String, Json)]) -> Result<Trajectory, String> {
    let mut parsed = Vec::with_capacity(docs.len());
    for (label, doc) in docs {
        parsed.push(parse_artifact(label, doc)?);
    }
    parsed.sort_by_key(|(pr, _)| *pr);
    let prs: Vec<u64> = parsed.iter().map(|(pr, _)| *pr).collect();
    {
        let mut dedup = prs.clone();
        dedup.dedup();
        if dedup.len() != prs.len() {
            return Err("two artifacts claim the same pr number".into());
        }
    }

    let mut rows: Vec<Row> = Vec::new();
    for (col, (_, runs)) in parsed.iter().enumerate() {
        for (key, unit, ops) in runs {
            let row = match rows.iter_mut().find(|r| &r.key == key) {
                Some(r) => r,
                None => {
                    rows.push(Row {
                        key: key.clone(),
                        unit: unit.clone(),
                        ops_per_sec: vec![None; prs.len()],
                    });
                    rows.last_mut().expect("just pushed")
                }
            };
            row.ops_per_sec[col] = Some(*ops);
        }
    }
    rows.sort_by(|a, b| a.key.cmp(&b.key));
    Ok(Trajectory { prs, rows })
}

/// Find the committed `BENCH_<n>.json` artifacts under `dir`, ordered by
/// `n`.
pub fn discover(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut found: Vec<(u64, PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if let Some(n) = name
            .strip_prefix("BENCH_")
            .and_then(|r| r.strip_suffix(".json"))
            .and_then(|n| n.parse::<u64>().ok())
        {
            found.push((n, path));
        }
    }
    found.sort();
    Ok(found.into_iter().map(|(_, p)| p).collect())
}

/// Load and assemble the artifacts at `paths`.
pub fn load(paths: &[PathBuf]) -> Result<Trajectory, String> {
    let mut docs = Vec::with_capacity(paths.len());
    for path in paths {
        let label = path.display().to_string();
        let src = std::fs::read_to_string(path).map_err(|e| format!("{label}: {e}"))?;
        let doc = Json::parse(&src).map_err(|e| format!("{label}: {e}"))?;
        docs.push((label, doc));
    }
    assemble(&docs)
}

/// `4282699.675 -> "4.28M"` — compact cells so 4+ PR columns fit a
/// terminal.
fn fmt_ops(v: f64) -> String {
    if v >= 1e9 {
        format!("{:.2}G", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.1}")
    }
}

/// Render the per-figure tables.
pub fn render(t: &Trajectory) -> String {
    let mut out = String::new();
    let mut figure: Option<&str> = None;
    for row in &t.rows {
        if figure != Some(row.key.figure.as_str()) {
            figure = Some(&row.key.figure);
            out.push_str(&format!(
                "\n== {} (ops/sec by PR; `-` = not benchmarked in that PR) ==\n",
                row.key.figure
            ));
            let mut header = format!(
                "{:<18} {:<11} {:<21} {:<15} {:>7}",
                "workload", "mix", "mode", "policy", "threads"
            );
            for pr in &t.prs {
                header.push_str(&format!(" {:>9}", format!("PR {pr}")));
            }
            out.push_str(&header);
            out.push('\n');
            out.push_str(&"-".repeat(header.len()));
            out.push('\n');
        }
        let mut line = format!(
            "{:<18} {:<11} {:<21} {:<15} {:>7}",
            row.key.workload, row.key.mix, row.key.mode, row.key.policy, row.key.threads
        );
        for cell in &row.ops_per_sec {
            line.push_str(&format!(
                " {:>9}",
                cell.map_or_else(|| "-".to_owned(), fmt_ops)
            ));
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(pr: u64, version: u64, runs: &[(&str, &str, f64)]) -> (String, Json) {
        let runs: Vec<_> = runs.iter().map(|&(f, m, ops)| (f, m, 4, ops)).collect();
        artifact_threads(pr, version, &runs)
    }

    fn artifact_threads(pr: u64, version: u64, runs: &[(&str, &str, u64, f64)]) -> (String, Json) {
        let runs = runs
            .iter()
            .map(|(figure, mode, threads, ops)| {
                Json::Obj(vec![
                    ("figure".into(), Json::str(*figure)),
                    ("workload".into(), Json::str("w")),
                    ("mix".into(), Json::str("-")),
                    ("mode".into(), Json::str(*mode)),
                    ("policy".into(), Json::str("-")),
                    ("threads".into(), Json::u64(*threads)),
                    ("unit".into(), Json::str("ops/sec")),
                    (
                        "measured".into(),
                        Json::Obj(vec![("ops_per_sec".into(), Json::f64(*ops))]),
                    ),
                ])
            })
            .collect();
        let doc = Json::Obj(vec![
            ("schema".into(), Json::str("tle-bench-trajectory")),
            ("schema_version".into(), Json::u64(version)),
            ("pr".into(), Json::u64(pr)),
            ("runs".into(), Json::Arr(runs)),
        ]);
        (format!("BENCH_{pr}.json"), doc)
    }

    #[test]
    fn rows_align_across_prs_with_gaps() {
        let t = assemble(&[
            artifact(7, 2, &[("fig2", "STM", 100.0)]),
            artifact(6, 1, &[("fig2", "STM", 90.0), ("fig3", "HTM", 50.0)]),
        ])
        .unwrap();
        assert_eq!(t.prs, vec![6, 7]);
        let fig2 = t.rows.iter().find(|r| r.key.figure == "fig2").unwrap();
        assert_eq!(fig2.ops_per_sec, vec![Some(90.0), Some(100.0)]);
        let fig3 = t.rows.iter().find(|r| r.key.figure == "fig3").unwrap();
        assert_eq!(fig3.ops_per_sec, vec![Some(50.0), None]);
    }

    #[test]
    fn unknown_versions_and_duplicate_prs_are_errors() {
        let err = assemble(&[artifact(6, 9, &[])]).unwrap_err();
        assert!(err.contains("schema_version 9"), "{err}");
        let err = assemble(&[artifact(6, 1, &[]), artifact(6, 1, &[])]).unwrap_err();
        assert!(err.contains("same pr"), "{err}");
    }

    #[test]
    fn render_groups_by_figure_and_marks_gaps() {
        let t = assemble(&[
            artifact(6, 1, &[("fig2", "STM", 4_282_699.0)]),
            artifact(8, 3, &[("fig2", "STM", 5_000_000.0), ("kv", "STM", 800.0)]),
        ])
        .unwrap();
        let text = render(&t);
        assert!(text.contains("== fig2"), "{text}");
        assert!(text.contains("== kv"), "{text}");
        assert!(text.contains("4.28M"), "{text}");
        assert!(text.contains("5.00M"), "{text}");
        // kv did not exist in PR 6.
        let kv_line = text
            .lines()
            .find(|l| l.starts_with('w') && text[..text.find(l).unwrap()].contains("== kv"))
            .unwrap();
        assert!(kv_line.contains('-'), "{kv_line}");
    }

    #[test]
    fn runs_differing_only_in_threads_are_separate_rows() {
        let t = assemble(&[artifact_threads(
            13,
            3,
            &[("fig5", "STM", 1, 100.0), ("fig5", "STM", 8, 300.0)],
        )])
        .unwrap();
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[0].ops_per_sec, vec![Some(100.0)]);
        assert_eq!(t.rows[1].ops_per_sec, vec![Some(300.0)]);
        let text = render(&t);
        let lines: Vec<&str> = text.lines().filter(|l| l.starts_with("w ")).collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(
            lines[0].contains("      1") && lines[0].contains("100.0"),
            "{text}"
        );
        assert!(
            lines[1].contains("      8") && lines[1].contains("300.0"),
            "{text}"
        );
    }

    #[test]
    fn fmt_ops_is_compact() {
        assert_eq!(fmt_ops(12.34), "12.3");
        assert_eq!(fmt_ops(4_300.0), "4.3k");
        assert_eq!(fmt_ops(4_282_699.675), "4.28M");
        assert_eq!(fmt_ops(2.5e9), "2.50G");
    }
}
