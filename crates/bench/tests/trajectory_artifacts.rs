//! The committed `BENCH_<n>.json` artifacts must stay readable by the
//! trajectory assembler — all schema versions at once. This is the test
//! that fails when a future schema bump forgets the reader.

use std::path::Path;
use tle_bench::trajectory::{discover, load, render};

fn repo_root() -> &'static Path {
    // crates/bench -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
}

#[test]
fn committed_artifacts_assemble_into_one_history() {
    let paths = discover(repo_root()).expect("scan workspace root");
    assert!(
        paths.len() >= 5,
        "expected BENCH_6..9 and BENCH_13, found {paths:?}"
    );
    let t = load(&paths).expect("all committed artifacts parse");
    assert!(
        t.prs.windows(2).all(|w| w[0] < w[1]),
        "PR columns must ascend: {:?}",
        t.prs
    );
    for pr in [6, 7, 8, 9, 13] {
        assert!(t.prs.contains(&pr), "missing PR {pr} in {:?}", t.prs);
    }

    // The fig2 pbzip STM+CondVar point exists in every artifact: it is the
    // paper's headline figure and the first thing the suite ever measured.
    let col = |pr: u64| t.prs.iter().position(|&p| p == pr).unwrap();
    let fig2 = t
        .rows
        .iter()
        .find(|r| {
            r.key.figure == "fig2"
                && r.key.workload == "pbzip-compress"
                && r.key.mix == "-"
                && r.key.mode == "STM+CondVar"
        })
        .expect("fig2 pbzip STM+CondVar row");
    for pr in [6, 7, 8, 9, 13] {
        let ops = fig2.ops_per_sec[col(pr)];
        assert!(
            ops.is_some_and(|v| v > 0.0),
            "fig2 STM+CondVar missing or non-positive in PR {pr}: {ops:?}"
        );
    }

    // kv-sessions landed with schema v3 (PR 8): present there, absent in
    // the v1/v2 artifacts — the gap is data, not an error.
    let sessions = t
        .rows
        .iter()
        .find(|r| r.key.figure == "kv-sessions")
        .expect("kv-sessions row");
    assert!(sessions.ops_per_sec[col(6)].is_none());
    assert!(sessions.ops_per_sec[col(7)].is_none());
    assert!(sessions.ops_per_sec[col(8)].is_some());
    assert!(sessions.ops_per_sec[col(9)].is_some());
    assert!(sessions.ops_per_sec[col(13)].is_some());

    // The newest artifact sweeps the thread count, and each thread count
    // is a row of its own.
    let fig5_threads: Vec<u64> = t
        .rows
        .iter()
        .filter(|r| {
            r.key.figure == "fig5"
                && r.key.workload == "list"
                && r.key.mix == "50i/50r"
                && r.key.policy == "SelectNoQ"
        })
        .map(|r| r.key.threads)
        .collect();
    assert_eq!(fig5_threads, [1, 2, 4, 8]);
}

#[test]
fn rendered_history_has_one_table_per_figure() {
    let paths = discover(repo_root()).unwrap();
    let t = load(&paths).unwrap();
    let text = render(&t);
    for figure in [
        "fig2",
        "fig3",
        "fig4",
        "fig5",
        "kv",
        "kv-sessions",
        "primitives",
        "ablate-htm-retry",
        "ablate-quiesce",
        "ablate-ready-flag",
        "ablate-fallback",
        "adapt-policy",
        "ablate-stm-algo",
    ] {
        assert!(
            text.contains(&format!("== {figure}")),
            "no table for {figure}"
        );
    }
    assert!(text.contains("PR 6") && text.contains("PR 13"), "{text}");
}
