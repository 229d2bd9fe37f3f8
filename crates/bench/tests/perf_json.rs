//! Satellite tests for the perf-trajectory subsystem: the comparator's
//! regression verdicts, byte-identical round-trips, and determinism of the
//! report's stable view across repeated emits.

use std::sync::OnceLock;
use tle_bench::json::Json;
use tle_bench::perf::{
    compare, emit_report, stable_view, synthetic_report, validate, EmitConfig, THREAD_SWEEP,
    TOLERANCE,
};

/// Each emit runs multi-threaded trials; two at once on a small machine
/// only slow each other down, so tests that emit take turns.
static EMIT_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn emit_serialized(cfg: &EmitConfig) -> Json {
    let _guard = EMIT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    emit_report(cfg)
}

/// One [`tiny`] emit shared by the tests that only inspect a report.
fn tiny_report() -> &'static Json {
    static REPORT: OnceLock<Json> = OnceLock::new();
    REPORT.get_or_init(|| emit_serialized(&tiny()))
}

/// A tiny real-emit configuration: no application figures, small op
/// counts, so the full pipeline (workload -> stats -> JSON) runs in test
/// time.
fn tiny() -> EmitConfig {
    EmitConfig {
        label: "test",
        threads: 2,
        micro_ops: 400,
        pbzip_kib: 8,
        trials: 1,
        apps: false,
        sessions_curve: &[16, 48],
        session_requests: 4,
        session_think_ns: 50_000,
    }
}

#[test]
fn injected_regression_is_flagged_and_tolerance_respected() {
    let old = synthetic_report(&[("hash", 1000.0), ("tree", 2000.0)]);

    // Just inside the tolerance band: not a regression.
    let edge = synthetic_report(&[("hash", 1000.0 * (1.0 - TOLERANCE) + 1.0), ("tree", 2000.0)]);
    let out = compare(&old, &edge).unwrap();
    assert!(out.regressions.is_empty(), "{:?}", out.regressions);

    let beyond = synthetic_report(&[("hash", 880.0), ("tree", 2000.0)]);
    let out = compare(&old, &beyond).unwrap();
    assert_eq!(out.regressions.len(), 1);
    assert!(out.regressions[0].contains("hash"), "{:?}", out.regressions);
    assert!(
        out.regressions[0].contains("-12.0%"),
        "{:?}",
        out.regressions
    );
}

#[test]
fn real_emit_validates_and_round_trips_byte_identically() {
    let report = tiny_report();
    validate(report).expect("real emit must satisfy its own schema");
    let rendered = report.render();
    let reparsed = Json::parse(&rendered).expect("emitted JSON must parse");
    assert_eq!(
        reparsed.render(),
        rendered,
        "emit -> parse -> emit must be byte-identical"
    );
}

#[test]
fn repeated_emits_are_deterministic_modulo_timing() {
    let a = tiny_report();
    let b = &emit_serialized(&tiny());
    assert_eq!(
        stable_view(&a).render(),
        stable_view(&b).render(),
        "two emits of the same config must differ only in measured subtrees"
    );
    // And a report always compares clean against itself.
    let self_cmp = compare(a, a).unwrap();
    assert!(self_cmp.regressions.is_empty());
    assert!(self_cmp.improvements.is_empty());
    assert!(self_cmp.compared >= 5, "expected all fig5 runs compared");
}

#[test]
fn emit_covers_every_non_application_figure_over_the_thread_sweep() {
    let runs = tiny_report().get("runs").and_then(Json::as_arr).unwrap();
    let field = |r: &Json, k: &str| r.get(k).and_then(Json::as_str).unwrap().to_owned();
    for figure in [
        "fig5",
        "kv",
        "kv-sessions",
        "primitives",
        "ablate-quiesce",
        "ablate-ready-flag",
        "ablate-fallback",
        "adapt-policy",
        "ablate-stm-algo",
    ] {
        assert!(
            runs.iter().any(|r| field(r, "figure") == figure),
            "no {figure} rows"
        );
    }
    // The application figures are the ones `apps: false` leaves out.
    assert!(!runs.iter().any(|r| field(r, "figure") == "fig2"));
    // Every point of Figure 5's grid, at every swept thread count.
    let fig5 = |t: u64| {
        runs.iter()
            .filter(|r| field(r, "figure") == "fig5" && field(r, "mix") != "90l/5i/5r")
            .filter(|r| r.get("threads").and_then(Json::as_u64) == Some(t))
            .count()
    };
    for t in THREAD_SWEEP {
        assert_eq!(fig5(t as u64), 3 * 2 * 3, "fig5 grid at {t} threads");
    }
}

#[test]
fn emitted_session_curve_pairs_async_against_threads() {
    let runs = tiny_report().get("runs").and_then(Json::as_arr).unwrap();
    let session_runs: Vec<&Json> = runs
        .iter()
        .filter(|r| r.get("figure").and_then(Json::as_str) == Some("kv-sessions"))
        .collect();
    // One async + one thread-per-session run per curve point.
    assert_eq!(session_runs.len(), 2 * tiny().sessions_curve.len());
    for (i, &sessions) in tiny().sessions_curve.iter().enumerate() {
        let pair = &session_runs[2 * i..2 * i + 2];
        let mix = format!("s{sessions}");
        let offered = sessions as u64 * tiny().session_requests;
        for (run, policy) in pair.iter().zip(["async-w8", "threads"]) {
            assert_eq!(run.get("mix").and_then(Json::as_str), Some(mix.as_str()));
            assert_eq!(run.get("policy").and_then(Json::as_str), Some(policy));
            let reqs = run.get("measured").and_then(|m| m.get("requests")).unwrap();
            assert_eq!(reqs.get("offered").and_then(Json::as_u64), Some(offered));
            assert_eq!(reqs.get("completed").and_then(Json::as_u64), Some(offered));
        }
    }
}

#[test]
fn emitted_optimization_entries_carry_before_and_after_numbers() {
    let opts = tiny_report()
        .get("optimizations")
        .and_then(Json::as_arr)
        .unwrap();
    let names: Vec<&str> = opts
        .iter()
        .map(|o| o.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(names, ["lazy-subscription"]);
    for o in opts {
        for side in ["baseline", "optimized"] {
            let t = o
                .get(side)
                .and_then(|s| s.get("measured"))
                .and_then(|m| m.get("ops_per_sec"))
                .and_then(Json::as_f64)
                .unwrap();
            assert!(t > 0.0, "{side} throughput must be measured");
        }
        assert!(
            o.get("measured")
                .and_then(|m| m.get("speedup"))
                .and_then(Json::as_f64)
                .unwrap()
                > 0.0
        );
    }
}
