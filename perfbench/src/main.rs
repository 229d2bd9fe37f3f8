//! perfbench: end-to-end and per-layer measurement of the elided-lock
//! serving path. See `README.md` beside this crate for the workloads, the
//! metric → layer → workload map, and how to run it.
//!
//! ```text
//! perfbench --workload <kv-zipf|kv-hotspot|kv-async|pbzip> --seed <n>
//!           --seconds <s> --trace <0|1> [--knee-rates <r1,..,r5>]
//!           [--out-dir <dir>] [--fingerprint <json>]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are [`END_TO_END`]; with `--trace 1` they are [`PER_LAYER`].

mod hist;
mod kv;
mod pbzip;
mod span;

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Duration;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("mb_per_s", "MB/s"),
    ("get_p50_us", "us"),
    ("get_p99_us", "us"),
    ("put_p50_us", "us"),
    ("put_p99_us", "us"),
    ("hot_p50_us", "us"),
    ("hot_p99_us", "us"),
    ("bystander_p99_us", "us"),
];

/// Per-layer metrics, printed by every traced run. A metric whose layer a
/// workload does not reach reads 0 there (README.md lists which apply).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("kv.self_ns", "ns"),
    ("kv.body_ns", "ns"),
    ("kv.hot_body_ns", "ns"),
    ("runner.self_ns", "ns"),
    ("runner.attempts_per_req", "attempts/req"),
    ("runner.useful_frac", "frac"),
    ("serial.fallbacks", "1/kop"),
    ("serial.escalations", "1/kop"),
    ("serial.req_frac", "frac"),
    ("serial.hold_ns", "ns"),
    ("stm.commits", "1/kop"),
    ("stm.aborts.read-conflict", "1/kop"),
    ("stm.aborts.write-conflict", "1/kop"),
    ("stm.aborts.validation", "1/kop"),
    ("stm.aborts.commit-validation", "1/kop"),
    ("stm.quiesce.drains", "1/kop"),
    ("stm.quiesce.skipped", "1/kop"),
    ("stm.quiesce.wait_ns_per_drain", "ns"),
    ("stm.buf.fresh_allocs", "1/kop"),
    ("htm.commits", "1/kop"),
    ("htm.commit_frac", "frac"),
    ("htm.aborts.conflict", "1/kop"),
    ("htm.aborts.capacity", "1/kop"),
    ("htm.aborts.event", "1/kop"),
    ("runner_async.self_ns", "ns"),
    ("runner_async.polls_per_req", "polls/req"),
    ("exec.wake_late_p50_ns", "ns"),
    ("exec.wake_late_p99_ns", "ns"),
    ("pbz.codec_ns_per_block", "ns"),
    ("pbz.codec_busy_frac", "frac"),
    ("pbz.sink_ns_per_block", "ns"),
    ("condvar.pop_wait_ns_per_block", "ns"),
    ("condvar.push_wait_ns_per_block", "ns"),
    ("recon.sum_ns", "ns"),
    ("recon.call_p50_ns", "ns"),
    ("recon.residual_ns", "ns"),
    ("recon.call_mean_ns", "ns"),
    ("recon.residual_mean_ns", "ns"),
    ("trace.overhead.ops_frac", "frac"),
    ("trace.overhead.call_p50_ns", "ns"),
    ("trace.spans", "count"),
    ("knee25.goodput_per_s", "1/s"),
    ("knee25.p50_us", "us"),
    ("knee25.p99_us", "us"),
    ("knee25.gen_late_p99_us", "us"),
    ("knee50.goodput_per_s", "1/s"),
    ("knee50.p50_us", "us"),
    ("knee50.p99_us", "us"),
    ("knee50.gen_late_p99_us", "us"),
    ("knee75.goodput_per_s", "1/s"),
    ("knee75.p50_us", "us"),
    ("knee75.p99_us", "us"),
    ("knee75.gen_late_p99_us", "us"),
    ("knee100.goodput_per_s", "1/s"),
    ("knee100.p50_us", "us"),
    ("knee100.p99_us", "us"),
    ("knee100.gen_late_p99_us", "us"),
    ("knee125.goodput_per_s", "1/s"),
    ("knee125.p50_us", "us"),
    ("knee125.p99_us", "us"),
    ("knee125.gen_late_p99_us", "us"),
];

/// Share of measured capacity each knee rate stands for, in the order
/// `--knee-rates` lists them.
pub const KNEE_PCTS: [u32; 5] = [25, 50, 75, 100, 125];

/// What one run hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    /// Operations the run issued (requests, or pipeline blocks).
    pub attempted: u64,
    /// Operations, or end-of-run checks, that came out wrong.
    pub failed: u64,
    /// Metric values by name (units come from the tables above).
    pub metrics: Vec<(String, f64)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }
}

/// Per-slice values of each metric, in first-seen order. Untraced runs
/// report each end-to-end metric as its median over the slices of their
/// window.
#[derive(Default)]
pub struct Slices(Vec<(&'static str, Vec<f64>)>);

impl Slices {
    pub fn add(&mut self, name: &'static str, v: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some((_, vs)) => vs.push(v),
            None => self.0.push((name, vec![v])),
        }
    }

    /// Put each metric's median over the slices into `out`, and a note
    /// with its slice-to-slice range.
    pub fn report(self, out: &mut Outcome) {
        for (name, vs) in self.0 {
            let lo = vs.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = vs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let m = median(vs);
            out.notes.push(format!(
                "slices {name}: median {m:.4} range {lo:.4}..{hi:.4}"
            ));
            out.put(name, m);
        }
    }
}

/// The median of `vs` (the mean of the middle two for an even count).
pub fn median(mut vs: Vec<f64>) -> f64 {
    assert!(!vs.is_empty(), "median of nothing");
    vs.sort_by(f64::total_cmp);
    let mid = vs.len() / 2;
    if vs.len() % 2 == 1 {
        vs[mid]
    } else {
        (vs[mid - 1] + vs[mid]) / 2.0
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub knee_rates: Vec<f64>,
    pub out_dir: PathBuf,
    pub fingerprint: String,
}

impl Args {
    /// The measured window.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

fn parse_args() -> Result<Args, String> {
    let mut flags: HashMap<String, String> = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let known = [
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--knee-rates",
            "--out-dir",
            "--fingerprint",
        ];
        if !known.contains(&flag.as_str()) {
            return Err(format!("unknown flag {flag}"));
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let need = |k: &str| flags.get(k).cloned().ok_or(format!("missing {k}"));
    let workload = need("--workload")?;
    let seed = need("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(0.5..=60.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} outside [0.5, 60]"));
    }
    let trace = match need("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    let knee_rates = match flags.get("--knee-rates") {
        None => Vec::new(),
        Some(s) => {
            let rates = s
                .split(',')
                .map(|r| {
                    r.trim()
                        .parse::<f64>()
                        .map_err(|e| format!("--knee-rates: {e}"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            if rates.len() != KNEE_PCTS.len() || rates.iter().any(|&r| r <= 0.0) {
                return Err(format!(
                    "--knee-rates needs {} positive rates",
                    KNEE_PCTS.len()
                ));
            }
            rates
        }
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        knee_rates,
        out_dir: flags
            .get("--out-dir")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("perfbench-out")),
        fingerprint: flags
            .get("--fingerprint")
            .cloned()
            .unwrap_or_else(|| "{}".to_string()),
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "kv-zipf" => Ok(kv::run(kv::Workload::Zipf, args)),
        "kv-hotspot" => Ok(kv::run(kv::Workload::Hotspot, args)),
        "kv-async" => Ok(kv::run(kv::Workload::Async, args)),
        "pbzip" => Ok(pbzip::run(args)),
        w => Err(format!("unknown workload {w}")),
    }
}

/// The result line: the metric table for this mode, each with its unit.
fn result_line(out: &Outcome, trace: bool) -> String {
    let table = if trace { PER_LAYER } else { END_TO_END };
    let got: HashMap<&str, f64> = out.metrics.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let fields: Vec<String> = table
        .iter()
        .map(|&(name, unit)| {
            let v = match got.get(name) {
                Some(v) => *v,
                None if trace => 0.0,
                None => panic!("end-to-end metric {name} not measured"),
            };
            assert!(v.is_finite(), "metric {name} is {v}");
            format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed,
        fields.join(",")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!("fingerprint: {}", args.fingerprint);
    for n in &out.notes {
        println!("{n}");
    }
    for (k, v) in &out.metrics {
        println!("  {k} = {v}");
    }
    println!("{}", result_line(&out, args.trace));
}

#[cfg(test)]
mod tests {
    use super::*;
    use tle_base::json::Json;

    /// The tables above and `BENCHMARK.json` at the repository root name the
    /// same metrics with the same units.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let src = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = Json::parse(&src).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key} differs from BENCHMARK.json");
        }
    }

    #[test]
    fn median_takes_the_middle_or_the_mean_of_the_middle_two() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
        let mut out = Outcome::default();
        let mut slices = Slices::default();
        for v in [5.0, 100.0, 6.0] {
            slices.add("ops_per_s", v);
        }
        slices.report(&mut out);
        assert_eq!(out.metrics, vec![("ops_per_s".to_string(), 6.0)]);
    }

    #[test]
    fn result_line_fills_unreached_layers_with_zero() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        out.put("kv.body_ns", 12.5);
        let line = result_line(&out, true);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":3,\"failed\":0,"));
        assert!(line.contains("\"kv.body_ns\":{\"value\":12.5,\"unit\":\"ns\"}"));
        assert!(line.contains("\"htm.commits\":{\"value\":0,\"unit\":\"1/kop\"}"));
        let parsed = Json::parse(&line).expect("result line is JSON");
        let metrics = parsed
            .get("metrics")
            .and_then(Json::as_obj)
            .expect("metrics");
        assert_eq!(metrics.len(), PER_LAYER.len());
    }
}
