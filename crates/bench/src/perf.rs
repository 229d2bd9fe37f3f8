//! The perf-trajectory subsystem behind `BENCH_<n>.json`.
//!
//! Each PR that claims a performance effect commits one machine-readable
//! trajectory file: per-figure/per-workload throughput, the per-cause abort
//! breakdown, the quiescence-latency histogram, and a `baseline` /
//! `optimized` pair for every optimization it lands. CI re-emits a quick
//! report and runs [`compare`] against the committed artifact, so a later
//! change that silently costs >10% throughput on any recorded run fails the
//! build (schema drift — a run disappearing — fails even harder).
//!
//! Everything here is dependency-free: the document is a [`Json`] tree with
//! a fixed key order, and [`stable_view`] strips every `"measured"` subtree
//! so two runs of the same emitter on the same machine produce identical
//! stable views (determinism modulo timing).

use crate::json::Json;
use crate::workloads::{
    disjoint_locks_trial, drain_scaling_trial, lazy_subscription_trial, long_tx_trial,
    micro_trial_opts, nested_queue_trial, pbzip_compress_trial, pbzip_compress_trial_on,
    pbzip_decompress_trial, pbzip_warmup_len, phase_shift_trial, primitive_trials,
    ready_queue_trial, tle_incr_trial, x265_trial, x265_trial_cfg, MicroOpts, Mix, TrialStats,
    VideoSize, PHASES, PHASE_OPS,
};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;
use tle_base::stats::HIST_BUCKETS;
use tle_base::AbortCause;
use tle_core::{AlgoMode, TlePolicy, TmSystem, ALL_MODES};
use tle_htm::HtmConfig;
use tle_kv::{
    build_system, run_driver_on, run_session_driver_async_on, run_session_driver_threads_on,
    KvConfig, KvReport, SessionConfig,
};
use tle_pbz::{compress_parallel, gen_text, PipelineConfig};
use tle_stm::{QuiescePolicy, StmAlgo};

/// Document type tag.
pub const SCHEMA: &str = "tle-bench-trajectory";
/// Bumped on any incompatible schema change. Version 2 adds the `kv`
/// serving-workload runs, whose `measured` subtree carries `latency` and
/// `requests` objects on top of the version-1 fields. Version 3 adds the
/// `kv-sessions` figure: the async session-multiplexing curve, same
/// `measured` shape as the `kv` runs.
pub const SCHEMA_VERSION: u64 = 3;
/// Oldest schema version [`validate`] still accepts: version-1 artifacts
/// (`BENCH_6.json` and earlier) remain parseable and comparable.
pub const MIN_SCHEMA_VERSION: u64 = 1;
/// The PR that committed this artifact generation.
pub const PR: u64 = 13;
/// Throughput regressions beyond this fraction fail [`compare`].
pub const TOLERANCE: f64 = 0.10;
/// Executor workers for every `kv-sessions` async run (the acceptance bar
/// is "≥ 1000 sessions on ≤ 8 workers").
pub const SESSION_WORKERS: usize = 8;
/// Worker threads of every swept figure: the paper sweeps 1..=8, these
/// are its reduced points. Constant, so quick and full share run keys.
pub const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Emission knobs. `quick` and `full` emit the same run keys and differ
/// only in op counts and input sizes (neither is part of the match key),
/// so CI's quick emit compares cleanly against a committed full-size
/// artifact.
#[derive(Debug, Clone, Copy)]
pub struct EmitConfig {
    /// Human tag recorded in the document (`quick`, `full`, ...).
    pub label: &'static str,
    /// Worker threads for the runs that are not swept over
    /// [`THREAD_SWEEP`].
    pub threads: usize,
    /// Measured ops per thread for the set microbenchmarks; every other
    /// non-application figure scales its op count from it.
    pub micro_ops: u64,
    /// PBZip2 input size in KiB of the fixed fig2 rows; the swept PBZip2
    /// rows use four times as much.
    pub pbzip_kib: usize,
    /// Trials per configuration (best-of, to damp scheduler noise). The
    /// application figures run one trial per point.
    pub trials: usize,
    /// Include the application figures: the PBZip2 rows (fig2,
    /// ablate-htm-retry, the ablate-stm-algo pipeline rows) and the x265
    /// rows (fig3, fig4). Everything else always runs.
    pub apps: bool,
    /// Session counts for the `kv-sessions` curve. Part of each run's
    /// match key, so quick and full share the same curve (a quick CI emit
    /// must produce every run the committed artifact records).
    pub sessions_curve: &'static [usize],
    /// Requests each logical session issues (not part of the match key).
    pub session_requests: u64,
    /// Per-request think time. With a closed loop this bounds goodput at
    /// `sessions / (think + service)`, so quick and full keep it equal and
    /// their goodputs stay comparable.
    pub session_think_ns: u64,
}

impl EmitConfig {
    /// CI smoke sizing: seconds, not minutes.
    pub fn quick() -> Self {
        EmitConfig {
            label: "quick",
            threads: 4,
            micro_ops: 4_000,
            pbzip_kib: 64,
            trials: 2,
            apps: true,
            sessions_curve: &[64, 256, 1000],
            session_requests: 6,
            session_think_ns: 2_000_000,
        }
    }

    /// Artifact sizing for the committed `BENCH_<n>.json`.
    pub fn full() -> Self {
        EmitConfig {
            label: "full",
            threads: 4,
            micro_ops: 40_000,
            pbzip_kib: 256,
            trials: 3,
            apps: true,
            sessions_curve: &[64, 256, 1000],
            session_requests: 25,
            session_think_ns: 2_000_000,
        }
    }
}

/// Schema-key metadata for one run (everything except the measurements).
#[derive(Debug, Clone, Copy)]
struct RunSpec<'a> {
    figure: &'a str,
    workload: &'a str,
    mix: &'a str,
    mode: &'a str,
    policy: &'a str,
    threads: usize,
    ops: u64,
    warmup: u64,
    unit: &'a str,
}

impl RunSpec<'_> {
    /// The run row for `ops` completed in `secs`.
    fn row(&self, secs: f64, stats: &TrialStats) -> Json {
        run_json(self, secs, self.ops as f64 / secs, stats)
    }
}

fn measured_json(secs: f64, tput: f64, stats: &TrialStats) -> Json {
    let commits = stats.stm.commits.saturating_add(stats.htm_commits);
    let aborts = stats.stm.aborts.saturating_add(stats.htm_aborts);
    let attempts = commits.saturating_add(aborts);
    let abort_rate = if attempts == 0 {
        0.0
    } else {
        aborts as f64 / attempts as f64
    };
    let by_cause = Json::Obj(
        AbortCause::ALL
            .iter()
            .map(|&c| (c.label().to_string(), Json::u64(stats.cause(c))))
            .collect(),
    );
    let hist = Json::Arr(
        stats
            .stm
            .quiesce_hist
            .buckets
            .iter()
            .map(|&b| Json::u64(b))
            .collect(),
    );
    Json::Obj(vec![
        ("secs".into(), Json::f64(secs)),
        ("ops_per_sec".into(), Json::f64(tput)),
        ("commits".into(), Json::u64(commits)),
        ("aborts".into(), Json::u64(aborts)),
        ("abort_rate".into(), Json::f64(abort_rate)),
        ("serial_fallbacks".into(), Json::u64(stats.serial_fallbacks)),
        ("by_cause".into(), by_cause),
        (
            "quiesce".into(),
            // The drain machinery lives in the STM domain only.
            Json::Obj(vec![
                ("drains".into(), Json::u64(stats.stm.quiesces)),
                ("skipped".into(), Json::u64(stats.stm.quiesce_skipped)),
                ("wait_ns".into(), Json::u64(stats.stm.quiesce_wait_ns)),
                ("hist".into(), hist),
            ]),
        ),
    ])
}

/// `measured` for a kv serving run: the version-1 fields (goodput stands in
/// for `ops_per_sec`, so [`compare`] guards it like any throughput), plus
/// the latency and request-outcome objects version 2 adds.
fn kv_measured_json(r: &KvReport, stats: &TrialStats) -> Json {
    let Json::Obj(mut fields) = measured_json(r.secs, r.goodput_per_sec, stats) else {
        unreachable!("measured_json returns an object")
    };
    fields.push((
        "latency".into(),
        Json::Obj(vec![
            ("p50_ns".into(), Json::u64(r.p50_ns)),
            ("p99_ns".into(), Json::u64(r.p99_ns)),
            ("p999_ns".into(), Json::u64(r.p999_ns)),
        ]),
    ));
    fields.push((
        "requests".into(),
        Json::Obj(vec![
            ("offered".into(), Json::u64(r.offered)),
            ("completed".into(), Json::u64(r.completed)),
            ("shed".into(), Json::u64(r.shed)),
            ("deadline_miss".into(), Json::u64(r.deadline_miss)),
            (
                "max_admission_step".into(),
                Json::u64(r.max_admission_step as u64),
            ),
        ]),
    ));
    Json::Obj(fields)
}

fn kv_run_json(mix: &str, policy: &str, kv: &KvConfig, r: &KvReport, stats: &TrialStats) -> Json {
    Json::Obj(vec![
        ("figure".into(), Json::str("kv")),
        ("workload".into(), Json::str("kv-zipf")),
        ("mix".into(), Json::str(mix)),
        ("mode".into(), Json::str(kv.mode.label())),
        ("policy".into(), Json::str(policy)),
        ("threads".into(), Json::u64(kv.threads as u64)),
        ("ops".into(), Json::u64(r.offered)),
        ("warmup".into(), Json::u64(0)),
        ("unit".into(), Json::str("reqs/sec")),
        ("measured".into(), kv_measured_json(r, stats)),
    ])
}

/// One `kv-sessions` curve point. `policy` names the execution model
/// (`async-w8` / `threads`); `threads` records the OS threads actually
/// running sessions — the executor worker count for the async driver, one
/// per session for the baseline.
fn session_run_json(
    scfg: &SessionConfig,
    policy: &str,
    threads: usize,
    r: &KvReport,
    stats: &TrialStats,
) -> Json {
    Json::Obj(vec![
        ("figure".into(), Json::str("kv-sessions")),
        ("workload".into(), Json::str("kv-sessions")),
        ("mix".into(), Json::str(format!("s{}", scfg.sessions))),
        ("mode".into(), Json::str(scfg.base.mode.label())),
        ("policy".into(), Json::str(policy)),
        ("threads".into(), Json::u64(threads as u64)),
        ("ops".into(), Json::u64(r.offered)),
        ("warmup".into(), Json::u64(0)),
        ("unit".into(), Json::str("reqs/sec")),
        ("measured".into(), kv_measured_json(r, stats)),
    ])
}

fn run_json(spec: &RunSpec, secs: f64, tput: f64, stats: &TrialStats) -> Json {
    Json::Obj(vec![
        ("figure".into(), Json::str(spec.figure)),
        ("workload".into(), Json::str(spec.workload)),
        ("mix".into(), Json::str(spec.mix)),
        ("mode".into(), Json::str(spec.mode)),
        ("policy".into(), Json::str(spec.policy)),
        ("threads".into(), Json::u64(spec.threads as u64)),
        ("ops".into(), Json::u64(spec.ops)),
        ("warmup".into(), Json::u64(spec.warmup)),
        ("unit".into(), Json::str(spec.unit)),
        ("measured".into(), measured_json(secs, tput, stats)),
    ])
}

/// Best-of-`trials` micro run (max throughput, with that run's stats).
fn best_micro(
    trials: usize,
    kind: &str,
    policy: QuiescePolicy,
    threads: usize,
    mix: Mix,
    ops: u64,
    opts: MicroOpts,
) -> (f64, TrialStats) {
    let mut best: Option<(f64, TrialStats)> = None;
    for _ in 0..trials.max(1) {
        let (t, s) = micro_trial_opts(kind, policy, threads, mix, ops, opts);
        if best.as_ref().is_none_or(|(bt, _)| t > *bt) {
            best = Some((t, s));
        }
    }
    best.expect("at least one trial")
}

/// Best-of-`trials` run of a trial that returns seconds (min time, with
/// that run's stats).
fn best_secs(trials: usize, mut trial: impl FnMut() -> (f64, TrialStats)) -> (f64, TrialStats) {
    (0..trials.max(1))
        .map(|_| trial())
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("at least one trial")
}

/// One set-microbenchmark row: `threads` workers, each running
/// `cfg.micro_ops` ops of `mix` on a `kind` set, best of `cfg.trials`.
/// The policy column names the STM algorithm when it is not `ml_wt`.
fn micro_row(
    cfg: &EmitConfig,
    figure: &str,
    kind: &str,
    policy: QuiescePolicy,
    mix: Mix,
    threads: usize,
    opts: MicroOpts,
) -> Json {
    let (tput, stats) = best_micro(cfg.trials, kind, policy, threads, mix, cfg.micro_ops, opts);
    let total = threads as u64 * cfg.micro_ops;
    let spec = RunSpec {
        figure,
        workload: kind,
        mix: mix.label(),
        mode: AlgoMode::StmCondvar.label(),
        policy: match opts.algo {
            StmAlgo::MlWt => policy.label(),
            algo => algo.label(),
        },
        threads,
        ops: total,
        warmup: threads as u64 * opts.warmup_ops,
        unit: "ops/sec",
    };
    run_json(&spec, total as f64 / tput, tput, &stats)
}

fn ab_side(config: &str, tput: f64, extra: Vec<(String, Json)>) -> Json {
    let mut measured = vec![("ops_per_sec".to_string(), Json::f64(tput))];
    measured.extend(extra);
    Json::Obj(vec![
        ("config".into(), Json::str(config)),
        ("measured".into(), Json::Obj(measured)),
    ])
}

/// Identity of one optimization A/B (everything but the two sides).
struct AbSpec {
    name: &'static str,
    figure: &'static str,
    workload: &'static str,
    mix: &'static str,
    policy: &'static str,
    threads: usize,
}

fn ab_entry(spec: &AbSpec, baseline: Json, optimized: Json, speedup: f64) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::str(spec.name)),
        ("figure".into(), Json::str(spec.figure)),
        ("workload".into(), Json::str(spec.workload)),
        ("mix".into(), Json::str(spec.mix)),
        ("policy".into(), Json::str(spec.policy)),
        ("threads".into(), Json::u64(spec.threads as u64)),
        ("baseline".into(), baseline),
        ("optimized".into(), optimized),
        (
            "measured".into(),
            Json::Obj(vec![("speedup".into(), Json::f64(speedup))]),
        ),
    ])
}

/// Run the trajectory suite and build the document: one block per paper
/// figure, ablation and serving workload, then the optimization A/B.
/// EXPERIMENTS.md names the figure behind each of its tables.
pub fn emit_report(cfg: &EmitConfig) -> Json {
    let mut runs = Vec::new();
    let warm = cfg.micro_ops / 10;
    if cfg.apps {
        fig2(cfg, &mut runs);
        fig3(&mut runs);
        fig4(&mut runs);
        ablate_htm_retry(cfg, &mut runs);
    }
    fig5(cfg, &mut runs);
    kv(cfg, &mut runs);
    primitives(cfg, &mut runs);
    ablate_quiesce(cfg, &mut runs);
    ablate_ready_flag(cfg, &mut runs);
    ablate_fallback(cfg, &mut runs);
    adapt_policy(cfg, &mut runs);
    ablate_stm_algo(cfg, &mut runs);
    let optimizations = optimizations(cfg);

    Json::Obj(vec![
        ("schema".into(), Json::str(SCHEMA)),
        ("schema_version".into(), Json::u64(SCHEMA_VERSION)),
        ("pr".into(), Json::u64(PR)),
        (
            "config".into(),
            Json::Obj(vec![
                ("label".into(), Json::str(cfg.label)),
                ("threads".into(), Json::u64(cfg.threads as u64)),
                ("micro_ops".into(), Json::u64(cfg.micro_ops)),
                ("warmup_ops".into(), Json::u64(warm)),
                ("pbzip_kib".into(), Json::u64(cfg.pbzip_kib as u64)),
                ("trials".into(), Json::u64(cfg.trials as u64)),
                ("apps".into(), Json::Bool(cfg.apps)),
                (
                    "sessions_curve".into(),
                    Json::Arr(
                        cfg.sessions_curve
                            .iter()
                            .map(|&s| Json::u64(s as u64))
                            .collect(),
                    ),
                ),
                ("session_requests".into(), Json::u64(cfg.session_requests)),
                ("session_think_ns".into(), Json::u64(cfg.session_think_ns)),
            ]),
        ),
        ("runs".into(), Json::Arr(runs)),
        ("optimizations".into(), Json::Arr(optimizations)),
    ])
}

fn pipeline(workers: usize, block_size: usize) -> PipelineConfig {
    PipelineConfig {
        workers,
        block_size,
        fifo_cap: 2 * workers.max(2),
    }
}

/// PBZip2 block sizes of the Figure 2 panels; a swept run's `mix` is
/// `b<kB>k`.
const PBZIP_BLOCKS: [usize; 3] = [100_000, 300_000, 900_000];

/// Input of the swept PBZip2 rows: four times the fixed rows' size, so the
/// 900K panel still splits into more than one block at full size.
fn sweep_input(cfg: &EmitConfig) -> Vec<u8> {
    gen_text(0x650, 4 * cfg.pbzip_kib * 1024)
}

/// fig2 (PBZip2, bytes/sec): the fixed 16K-block rows at `cfg.threads`,
/// then Figure 2's panels: compress and decompress × [`ALL_MODES`] ×
/// [`THREAD_SWEEP`] × [`PBZIP_BLOCKS`]. The §VII-A transaction statistics
/// are the `measured` fields of the `b100k` STM+CondVar and HTM+CondVar
/// compress rows at 4 threads.
fn fig2(cfg: &EmitConfig, runs: &mut Vec<Json>) {
    let block = 16 * 1024;
    let input = gen_text(42, cfg.pbzip_kib * 1024);
    let fixed = RunSpec {
        figure: "fig2",
        workload: "pbzip-compress",
        mix: "-",
        mode: "-",
        policy: "-",
        threads: cfg.threads,
        ops: input.len() as u64,
        warmup: pbzip_warmup_len(input.len(), block) as u64,
        unit: "bytes/sec",
    };
    for mode in [
        AlgoMode::StmCondvar,
        AlgoMode::HtmCondvar,
        AlgoMode::AdaptiveHtm,
        AlgoMode::AdaptiveHtmLazy,
    ] {
        let (secs, stats) = pbzip_compress_trial(mode, cfg.threads, block, &input);
        runs.push(
            RunSpec {
                mode: mode.label(),
                ..fixed
            }
            .row(secs, &stats),
        );
    }
    let sys = Arc::new(TmSystem::new(AlgoMode::HtmCondvar));
    let compressed = compress_parallel(&sys, &input, &pipeline(cfg.threads, block));
    let (secs, stats) =
        pbzip_decompress_trial(AlgoMode::HtmCondvar, cfg.threads, block, &compressed);
    let decompress = RunSpec {
        workload: "pbzip-decompress",
        mode: AlgoMode::HtmCondvar.label(),
        ops: compressed.len() as u64,
        warmup: 4096,
        ..fixed
    };
    runs.push(decompress.row(secs, &stats));

    let input = sweep_input(cfg);
    for block in PBZIP_BLOCKS {
        let mix = format!("b{}k", block / 1000);
        let sys = Arc::new(TmSystem::new(AlgoMode::Baseline));
        let compressed = compress_parallel(&sys, &input, &pipeline(4, block));
        for threads in THREAD_SWEEP {
            for mode in ALL_MODES {
                let spec = RunSpec {
                    mix: &mix,
                    mode: mode.label(),
                    threads,
                    ops: input.len() as u64,
                    warmup: pbzip_warmup_len(input.len(), block) as u64,
                    ..fixed
                };
                let (secs, stats) = pbzip_compress_trial(mode, threads, block, &input);
                runs.push(spec.row(secs, &stats));
                let (secs, stats) = pbzip_decompress_trial(mode, threads, block, &compressed);
                let spec = RunSpec {
                    workload: "pbzip-decompress",
                    ops: compressed.len() as u64,
                    warmup: 4096,
                    ..spec
                };
                runs.push(spec.row(secs, &stats));
            }
        }
    }
}

/// One x265 row template (mode and threads filled in per run).
fn x265_spec<'a>(figure: &'a str, workload: &'a str, size: VideoSize) -> RunSpec<'a> {
    RunSpec {
        figure,
        workload,
        mix: "-",
        mode: "-",
        policy: "-",
        threads: 0,
        ops: size.params().2 as u64,
        warmup: 2,
        unit: "frames/sec",
    }
}

/// fig3 (x265, frames/sec): small/medium/large × every mode (the paper's
/// five plus the adaptive eager and safe-lazy ones) × [`THREAD_SWEEP`].
/// The paper's speedup is a row over its size's pthread row at 1 thread.
fn fig3(runs: &mut Vec<Json>) {
    let modes = ALL_MODES
        .into_iter()
        .chain([AlgoMode::AdaptiveHtm, AlgoMode::AdaptiveHtmLazy]);
    for size in VideoSize::ALL {
        let workload = format!("x265-{}", size.label());
        let spec = x265_spec("fig3", &workload, size);
        for mode in modes.clone() {
            for threads in THREAD_SWEEP {
                let (secs, stats) = x265_trial(mode, threads, size);
                let spec = RunSpec {
                    mode: mode.label(),
                    threads,
                    ..spec
                };
                runs.push(spec.row(secs, &stats));
            }
        }
    }
}

/// fig4 (x265 HTM aborts): small and medium × [`THREAD_SWEEP`] under
/// HTM+CondVar with an interrupt-pressure hardware model, whose event
/// aborts stand in for the TLB-miss, interrupt and preemption aborts a
/// busy Haswell shows. The default model's counters are fig3's
/// HTM+CondVar rows.
fn fig4(runs: &mut Vec<Json>) {
    let htm = HtmConfig {
        event_prob: 5e-3,
        ..HtmConfig::default()
    };
    for size in [VideoSize::Small, VideoSize::Medium] {
        let workload = format!("x265-{}", size.label());
        for threads in THREAD_SWEEP {
            let (secs, stats) = x265_trial_cfg(AlgoMode::HtmCondvar, threads, size, htm.clone());
            let spec = RunSpec {
                mode: AlgoMode::HtmCondvar.label(),
                policy: "event_prob=5e-3",
                threads,
                ..x265_spec("fig4", &workload, size)
            };
            runs.push(spec.row(secs, &stats));
        }
    }
}

/// ablate-htm-retry (§VII-A, bytes/sec): PBZip2 compress with 100K blocks
/// under HTM+CondVar, retries before serializing ∈ {1, 2, 4, 8, 16} ×
/// [`THREAD_SWEEP`]. The HTM injects event aborts at 2e-2: true conflicts
/// are rare when threads timeshare few CPUs, so the knob is exercised
/// against the other big TSX abort class. The paper runs GCC's default, 2.
fn ablate_htm_retry(cfg: &EmitConfig, runs: &mut Vec<Json>) {
    let input = sweep_input(cfg);
    let block = PBZIP_BLOCKS[0];
    for retries in [1u32, 2, 4, 8, 16] {
        let policy = format!("retries={retries}");
        for threads in THREAD_SWEEP {
            let sys = Arc::new(
                TmSystem::builder()
                    .mode(AlgoMode::HtmCondvar)
                    .policy(TlePolicy {
                        htm_retries: retries,
                        ..TlePolicy::default()
                    })
                    .htm_config(HtmConfig {
                        event_prob: 2e-2,
                        ..HtmConfig::default()
                    })
                    .build(),
            );
            let (secs, stats) = pbzip_compress_trial_on(&sys, threads, block, &input);
            let spec = RunSpec {
                figure: "ablate-htm-retry",
                workload: "pbzip-compress",
                mix: "b100k",
                mode: AlgoMode::HtmCondvar.label(),
                policy: &policy,
                threads,
                ops: input.len() as u64,
                warmup: pbzip_warmup_len(input.len(), block) as u64,
                unit: "bytes/sec",
            };
            runs.push(spec.row(secs, &stats));
        }
    }
}

/// fig5 (set microbenchmarks, ops/sec): Figure 5's grid, list/hash/tree ×
/// both paper mixes × the three quiescence policies × [`THREAD_SWEEP`],
/// plus the read-mostly hash row the read-only commit fast path targets.
fn fig5(cfg: &EmitConfig, runs: &mut Vec<Json>) {
    let warmed = MicroOpts::warmed(cfg.micro_ops);
    for kind in ["list", "hash", "tree"] {
        for mix in [Mix::UpdateOnly, Mix::HalfLookup] {
            for policy in [
                QuiescePolicy::Always,
                QuiescePolicy::Never,
                QuiescePolicy::Selective,
            ] {
                for threads in THREAD_SWEEP {
                    runs.push(micro_row(cfg, "fig5", kind, policy, mix, threads, warmed));
                }
            }
        }
    }
    let policy = QuiescePolicy::Selective;
    let mix = Mix::ReadMostly;
    runs.push(micro_row(
        cfg,
        "fig5",
        "hash",
        policy,
        mix,
        cfg.threads,
        warmed,
    ));
}

/// primitives (ops/sec, one thread): the TCell, orec and raw `ml_wt`
/// costs beneath every figure, then `tle-incr`, one single-cell section
/// through the full elision runner per op, for pthread, STM and HTM.
/// Each is one plain timed loop of `25 * micro_ops` calls, best of
/// `cfg.trials`.
fn primitives(cfg: &EmitConfig, runs: &mut Vec<Json>) {
    let iters = 25 * cfg.micro_ops;
    let mut best = primitive_trials(iters);
    for _ in 1..cfg.trials {
        for (b, n) in best.iter_mut().zip(primitive_trials(iters)) {
            b.2 = b.2.min(n.2);
        }
    }
    let spec = RunSpec {
        figure: "primitives",
        workload: "-",
        mix: "-",
        mode: "-",
        policy: "-",
        threads: 1,
        ops: iters,
        warmup: 0,
        unit: "ops/sec",
    };
    for (workload, policy, secs) in best {
        let spec = RunSpec {
            workload,
            policy,
            ..spec
        };
        runs.push(spec.row(secs, &TrialStats::default()));
    }
    for mode in [
        AlgoMode::Baseline,
        AlgoMode::StmCondvar,
        AlgoMode::HtmCondvar,
    ] {
        let (secs, stats) = best_secs(cfg.trials, || tle_incr_trial(mode, iters));
        let spec = RunSpec {
            workload: "tle-incr",
            mode: mode.label(),
            ..spec
        };
        runs.push(spec.row(secs, &stats));
    }
}

/// ablate-quiesce (§IV, commits/sec). `drain-scaling`: one committer
/// beside `threads - 1` threads running short transactions, draining
/// everything (`STM`) or never (`NoQ`). `unrelated-commits`: `threads`
/// committers on disjoint locks with and without one long transaction in
/// flight (`mix`), draining everything (`STM`) or marking each section
/// `TM_NoQuiesce` under the selective policy (`SelectNoQ`).
fn ablate_quiesce(cfg: &EmitConfig, runs: &mut Vec<Json>) {
    let spec = RunSpec {
        figure: "ablate-quiesce",
        workload: "drain-scaling",
        mix: "-",
        mode: AlgoMode::StmCondvar.label(),
        policy: "-",
        threads: 1,
        ops: cfg.micro_ops,
        warmup: 0,
        unit: "ops/sec",
    };
    for policy in [QuiescePolicy::Always, QuiescePolicy::Never] {
        for threads in THREAD_SWEEP {
            let (secs, stats) = best_secs(cfg.trials, || {
                drain_scaling_trial(policy, threads - 1, cfg.micro_ops)
            });
            let spec = RunSpec {
                policy: policy.label(),
                threads,
                ..spec
            };
            runs.push(spec.row(secs, &stats));
        }
    }
    let ops = cfg.micro_ops / 2;
    for (mix, long_tx) in [("no-long-tx", false), ("long-tx", true)] {
        for (policy, no_quiesce) in [
            (QuiescePolicy::Always, false),
            (QuiescePolicy::Selective, true),
        ] {
            for threads in THREAD_SWEEP {
                let (secs, stats) = best_secs(cfg.trials, || {
                    long_tx_trial(policy, no_quiesce, long_tx, threads, ops)
                });
                let spec = RunSpec {
                    workload: "unrelated-commits",
                    mix,
                    policy: policy.label(),
                    threads,
                    ops: threads as u64 * ops,
                    ..spec
                };
                runs.push(spec.row(secs, &stats));
            }
        }
    }
}

/// ablate-ready-flag (§V, items/sec): `threads` producers push
/// `micro_ops / 8` items in total through the lookahead queue to one
/// consumer. `listing3` produces while holding the queue lock, which only
/// plain locks can run; `listing4` publishes through the ready flag,
/// under every mode. The paper's parity claim compares the two under
/// pthread.
fn ablate_ready_flag(cfg: &EmitConfig, runs: &mut Vec<Json>) {
    let items = cfg.micro_ops / 8;
    for threads in THREAD_SWEEP {
        let per = items / threads as u64;
        let spec = RunSpec {
            figure: "ablate-ready-flag",
            workload: "lookahead-queue",
            mix: "-",
            mode: AlgoMode::Baseline.label(),
            policy: "listing3",
            threads,
            ops: per * threads as u64,
            warmup: 0,
            unit: "items/sec",
        };
        let (secs, stats) = best_secs(cfg.trials, || {
            (nested_queue_trial(threads, per), TrialStats::default())
        });
        runs.push(spec.row(secs, &stats));
        for mode in ALL_MODES {
            let (secs, stats) = best_secs(cfg.trials, || ready_queue_trial(mode, threads, per));
            let spec = RunSpec {
                mode: mode.label(),
                policy: "listing4",
                ..spec
            };
            runs.push(spec.row(secs, &stats));
        }
    }
}

/// ablate-fallback (§II-C, ops/sec): every thread increments its own cell
/// under its own lock, `micro_ops` times, with HTM event aborts off and at
/// 2e-2. HTM+CondVar falls back through the global serial gate, which
/// suspends every other thread; AdaptiveHTM (the glibc model) falls back
/// to the failing lock alone.
fn ablate_fallback(cfg: &EmitConfig, runs: &mut Vec<Json>) {
    for (policy, event_prob) in [("event_prob=0", 0.0), ("event_prob=2e-2", 2e-2)] {
        for mode in [AlgoMode::HtmCondvar, AlgoMode::AdaptiveHtm] {
            for threads in THREAD_SWEEP {
                let (secs, stats) = best_secs(cfg.trials, || {
                    disjoint_locks_trial(mode, threads, event_prob, cfg.micro_ops)
                });
                let spec = RunSpec {
                    figure: "ablate-fallback",
                    workload: "disjoint-locks",
                    mix: "-",
                    mode: mode.label(),
                    policy,
                    threads,
                    ops: threads as u64 * cfg.micro_ops,
                    warmup: 0,
                    unit: "ops/sec",
                };
                runs.push(spec.row(secs, &stats));
            }
        }
    }
}

/// adapt-policy (sections/sec): the [`PHASES`] workload under each fixed
/// mode and under the per-lock controller starting from HTM+CondVar
/// (`policy` = `fixed` / `adaptive`), one row per phase. Every thread
/// count runs the same total sections per phase: [`PHASE_OPS`] × 4
/// threads, scaled by `micro_ops / 40_000`. Per phase, best of
/// `cfg.trials`.
fn adapt_policy(cfg: &EmitConfig, runs: &mut Vec<Json>) {
    for (mode, adaptive) in [
        (AlgoMode::Baseline, false),
        (AlgoMode::StmCondvar, false),
        (AlgoMode::HtmCondvar, false),
        (AlgoMode::HtmCondvar, true),
    ] {
        for threads in THREAD_SWEEP {
            let ops = PHASE_OPS.map(|n| (n * cfg.micro_ops / 10_000 / threads as u64).max(1));
            let trials: Vec<_> = (0..cfg.trials.max(1))
                .map(|_| phase_shift_trial(mode, adaptive, threads, ops))
                .collect();
            for (i, phase) in PHASES.into_iter().enumerate() {
                let (secs, stats) = trials
                    .iter()
                    .map(|t| &t[i])
                    .min_by(|a, b| a.0.total_cmp(&b.0))
                    .expect("at least one trial");
                let spec = RunSpec {
                    figure: "adapt-policy",
                    workload: "phase-shift",
                    mix: phase,
                    mode: mode.label(),
                    policy: if adaptive { "adaptive" } else { "fixed" },
                    threads,
                    ops: threads as u64 * ops[i],
                    warmup: 0,
                    unit: "sections/sec",
                };
                runs.push(spec.row(*secs, stats));
            }
        }
    }
}

/// ablate-stm-algo: the NOrec side of the `ml_wt` vs NOrec comparison.
/// The `ml_wt` side is recorded once, elsewhere: the set rows pair with
/// fig5's 50l/25i/25r `STM` rows, the pipeline rows (an application
/// figure) with fig2's `b100k` STM+CondVar compress rows.
fn ablate_stm_algo(cfg: &EmitConfig, runs: &mut Vec<Json>) {
    let norec = MicroOpts {
        algo: StmAlgo::Norec,
        ..MicroOpts::warmed(cfg.micro_ops)
    };
    for kind in ["list", "hash", "tree"] {
        for threads in THREAD_SWEEP {
            let (policy, mix) = (QuiescePolicy::Always, Mix::HalfLookup);
            let figure = "ablate-stm-algo";
            runs.push(micro_row(cfg, figure, kind, policy, mix, threads, norec));
        }
    }
    if !cfg.apps {
        return;
    }
    let input = sweep_input(cfg);
    let block = PBZIP_BLOCKS[0];
    for threads in THREAD_SWEEP {
        let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
        sys.set_stm_algo(StmAlgo::Norec);
        let (secs, stats) = pbzip_compress_trial_on(&sys, threads, block, &input);
        let spec = RunSpec {
            figure: "ablate-stm-algo",
            workload: "pbzip-compress",
            mix: "b100k",
            mode: AlgoMode::StmCondvar.label(),
            policy: StmAlgo::Norec.label(),
            threads,
            ops: input.len() as u64,
            warmup: pbzip_warmup_len(input.len(), block) as u64,
            unit: "bytes/sec",
        };
        runs.push(spec.row(secs, &stats));
    }
}

/// kv (reqs/sec): the sharded serving workload and the deadline/admission
/// plane A/B; kv-sessions: the async session-multiplexing curve.
fn kv(cfg: &EmitConfig, runs: &mut Vec<Json>) {
    // The deadline/admission plane A/B.
    // Three runs: the quiet baseline, the hot-key storm with the plane
    // containing it, and the same storm with the plane off so the damage
    // the plane prevents stays on record.
    // Not scaled by `micro_ops`: the driver is rate-driven (~40ms/run) and
    // the storm window must outlast the admission ladder's dwell floors
    // (min_dwell_steps × controller period per step) or the plane never
    // engages and the A/B measures nothing.
    let kv_base = KvConfig {
        threads: cfg.threads,
        requests: 10_000,
        ..KvConfig::quick()
    };
    let kv_cases: [(&str, &str, KvConfig); 3] = [
        ("no-storm", "plane-off", kv_base),
        (
            "storm",
            "plane-on",
            kv_base.with_storm().with_plane(Duration::from_millis(1)),
        ),
        ("storm", "plane-off", kv_base.with_storm()),
    ];
    for (mix, policy, kv) in kv_cases {
        let sys = build_system(&kv);
        let report = run_driver_on(&sys, &kv);
        let stats = TrialStats::capture(&sys);
        runs.push(kv_run_json(mix, policy, &kv, &report, &stats));
    }

    // kv-sessions: the async multiplexing curve. Each point pairs N paced
    // logical sessions on SESSION_WORKERS executor threads (sessions as
    // tasks, waits suspend via wakers) against the thread-per-session
    // baseline (one OS thread each, handles checked out of a pool). The
    // closed loop's think time bounds per-session rate, so goodput should
    // scale with the session count in both columns — the async column just
    // gets there on 8 OS threads.
    for &sessions in cfg.sessions_curve {
        let scfg = SessionConfig {
            base: KvConfig::quick(),
            sessions,
            workers: SESSION_WORKERS,
            requests_per_session: cfg.session_requests,
            think_ns: cfg.session_think_ns,
        };
        let async_policy = format!("async-w{SESSION_WORKERS}");
        let sys = build_system(&scfg.base);
        let report = run_session_driver_async_on(&sys, &scfg);
        let stats = TrialStats::capture(&sys);
        runs.push(session_run_json(
            &scfg,
            &async_policy,
            SESSION_WORKERS,
            &report,
            &stats,
        ));

        let sys = build_system(&scfg.base);
        let report = run_session_driver_threads_on(&sys, &scfg);
        let stats = TrialStats::capture(&sys);
        runs.push(session_run_json(
            &scfg, "threads", sessions, &report, &stats,
        ));
    }
}

/// The optimization A/B: both sides measured in this same process so the
/// numbers are an honest pair.
fn optimizations(cfg: &EmitConfig) -> Vec<Json> {
    // Lazy lock-word subscription (PR 9): the capacity-edge scan, where the
    // eager mode's subscription read is the straw that overflows the read
    // cap. Both sides record the abort-by-cause split so the artifact
    // captures *why* lazy wins here: the eager column's conflict aborts are
    // the acquire-time dooms its own fallback cascade causes.
    let cause_fields = |s: &TrialStats| {
        vec![
            (
                "conflict_aborts".to_string(),
                Json::u64(s.cause(AbortCause::Conflict)),
            ),
            (
                "capacity_aborts".to_string(),
                Json::u64(s.cause(AbortCause::Capacity)),
            ),
            (
                "serial_fallbacks".to_string(),
                Json::u64(s.serial_fallbacks),
            ),
            ("htm_commits".to_string(), Json::u64(s.htm_commits)),
        ]
    };
    let lazy_lines = 8;
    let lazy_ops = (cfg.micro_ops / 4).max(1_000);
    let (eager_t, eager_s) =
        lazy_subscription_trial(AlgoMode::AdaptiveHtm, cfg.threads, lazy_lines, lazy_ops);
    let (lazy_t, lazy_s) =
        lazy_subscription_trial(AlgoMode::AdaptiveHtmLazy, cfg.threads, lazy_lines, lazy_ops);
    vec![ab_entry(
        &AbSpec {
            name: "lazy-subscription",
            figure: "fig2",
            workload: "capacity-edge-scan",
            mix: "-",
            policy: "-",
            threads: cfg.threads,
        },
        ab_side("mode=adaptive-htm", eager_t, cause_fields(&eager_s)),
        ab_side("mode=adaptive-htm-lazy", lazy_t, cause_fields(&lazy_s)),
        lazy_t / eager_t,
    )]
}

/// The document with every `"measured"` subtree removed: what must be
/// identical between two emits of the same configuration.
pub fn stable_view(doc: &Json) -> Json {
    match doc {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| k != "measured")
                .map(|(k, v)| (k.clone(), stable_view(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(stable_view).collect()),
        other => other.clone(),
    }
}

fn req<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing key '{key}'"))
}

fn req_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    req(v, key)?
        .as_str()
        .ok_or_else(|| format!("key '{key}' is not a string"))
}

fn req_u64(v: &Json, key: &str) -> Result<u64, String> {
    req(v, key)?
        .as_u64()
        .ok_or_else(|| format!("key '{key}' is not an unsigned integer"))
}

fn req_f64(v: &Json, key: &str) -> Result<f64, String> {
    req(v, key)?
        .as_f64()
        .ok_or_else(|| format!("key '{key}' is not a number"))
}

/// Check a document against the `tle-bench-trajectory` schema.
pub fn validate(doc: &Json) -> Result<(), String> {
    let schema = req_str(doc, "schema")?;
    if schema != SCHEMA {
        return Err(format!("schema is '{schema}', expected '{SCHEMA}'"));
    }
    let version = req_u64(doc, "schema_version")?;
    if !(MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&version) {
        return Err(format!(
            "schema_version is {version}, expected {MIN_SCHEMA_VERSION}..={SCHEMA_VERSION}"
        ));
    }
    req_u64(doc, "pr")?;
    req(doc, "config")?
        .as_obj()
        .ok_or("'config' is not an object")?;
    let runs = req(doc, "runs")?.as_arr().ok_or("'runs' is not an array")?;
    if runs.is_empty() {
        return Err("'runs' is empty".into());
    }
    let mut keys = HashSet::with_capacity(runs.len());
    for (i, run) in runs.iter().enumerate() {
        validate_run(run).map_err(|e| format!("runs[{i}]: {e}"))?;
        let key = RunKey::of(run)?;
        if let Some(dup) = keys.replace(key) {
            return Err(format!("runs[{i}]: duplicate run key '{dup}'"));
        }
    }
    let opts = req(doc, "optimizations")?
        .as_arr()
        .ok_or("'optimizations' is not an array")?;
    for (i, o) in opts.iter().enumerate() {
        validate_opt(o).map_err(|e| format!("optimizations[{i}]: {e}"))?;
    }
    Ok(())
}

fn validate_measured(m: &Json) -> Result<(), String> {
    m.as_obj().ok_or("'measured' is not an object")?;
    req_f64(m, "secs")?;
    req_f64(m, "ops_per_sec")?;
    req_u64(m, "commits")?;
    req_u64(m, "aborts")?;
    req_f64(m, "abort_rate")?;
    req_u64(m, "serial_fallbacks")?;
    let by_cause = req(m, "by_cause")?;
    for cause in AbortCause::ALL {
        req_u64(by_cause, cause.label()).map_err(|e| format!("by_cause: {e}"))?;
    }
    let quiesce = req(m, "quiesce")?;
    req_u64(quiesce, "drains")?;
    req_u64(quiesce, "skipped")?;
    req_u64(quiesce, "wait_ns")?;
    let hist = req(quiesce, "hist")?
        .as_arr()
        .ok_or("'quiesce.hist' is not an array")?;
    if hist.len() != HIST_BUCKETS {
        return Err(format!(
            "quiesce.hist has {} buckets, expected {HIST_BUCKETS}",
            hist.len()
        ));
    }
    for b in hist {
        b.as_u64().ok_or("non-integer histogram bucket")?;
    }
    Ok(())
}

fn validate_run(run: &Json) -> Result<(), String> {
    for key in ["figure", "workload", "mix", "mode", "policy", "unit"] {
        req_str(run, key)?;
    }
    for key in ["threads", "ops", "warmup"] {
        req_u64(run, key)?;
    }
    let m = req(run, "measured")?;
    validate_measured(m)?;
    if matches!(req_str(run, "figure")?, "kv" | "kv-sessions") {
        validate_kv_measured(m)?;
    }
    Ok(())
}

/// The version-2 serving-run extensions: every `figure == "kv"` (and,
/// from version 3, `"kv-sessions"`) run must carry the latency quantiles
/// and the request-outcome ledger.
fn validate_kv_measured(m: &Json) -> Result<(), String> {
    let lat = req(m, "latency")?;
    for key in ["p50_ns", "p99_ns", "p999_ns"] {
        req_u64(lat, key).map_err(|e| format!("latency: {e}"))?;
    }
    let reqs = req(m, "requests")?;
    for key in [
        "offered",
        "completed",
        "shed",
        "deadline_miss",
        "max_admission_step",
    ] {
        req_u64(reqs, key).map_err(|e| format!("requests: {e}"))?;
    }
    Ok(())
}

fn validate_opt(o: &Json) -> Result<(), String> {
    req_str(o, "name")?;
    req_str(o, "workload")?;
    req_u64(o, "threads")?;
    for side in ["baseline", "optimized"] {
        let s = req(o, side)?;
        req_str(s, "config").map_err(|e| format!("{side}: {e}"))?;
        let m = req(s, "measured").map_err(|e| format!("{side}: {e}"))?;
        req_f64(m, "ops_per_sec").map_err(|e| format!("{side}: {e}"))?;
    }
    req_f64(req(o, "measured")?, "speedup").map_err(|e| format!("measured: {e}"))?;
    Ok(())
}

/// The identity of one run: everything that must match for an old/new
/// throughput comparison to be meaningful. A document holds each key at
/// most once ([`validate`] rejects duplicates); [`compare`] pairs runs by
/// it and the trajectory table keys its rows by it.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RunKey {
    pub figure: String,
    pub workload: String,
    pub mix: String,
    pub mode: String,
    pub policy: String,
    pub threads: u64,
}

impl RunKey {
    /// The key fields of one run object.
    pub fn of(run: &Json) -> Result<RunKey, String> {
        Ok(RunKey {
            figure: req_str(run, "figure")?.to_owned(),
            workload: req_str(run, "workload")?.to_owned(),
            mix: req_str(run, "mix")?.to_owned(),
            mode: req_str(run, "mode")?.to_owned(),
            policy: req_str(run, "policy")?.to_owned(),
            threads: req_u64(run, "threads")?,
        })
    }
}

impl fmt::Display for RunKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} mix={} mode={} policy={} threads={}",
            self.figure, self.workload, self.mix, self.mode, self.policy, self.threads
        )
    }
}

/// Outcome of [`compare`]. `regressions` non-empty means the new report
/// lost more than [`TOLERANCE`] throughput on at least one recorded run.
#[derive(Debug, Default)]
pub struct CompareOutcome {
    /// Runs matched and compared.
    pub compared: usize,
    /// Human-readable lines, one per regressed run.
    pub regressions: Vec<String>,
    /// Runs that got more than [`TOLERANCE`] faster (informational).
    pub improvements: Vec<String>,
}

/// Compare two trajectory documents. Every run recorded in `old` must
/// still exist in `new` (a vanished run is schema drift and a hard error,
/// regardless of any warn flag at the CLI layer); new runs may appear
/// freely. Returns the per-run throughput verdicts.
pub fn compare(old: &Json, new: &Json) -> Result<CompareOutcome, String> {
    validate(old).map_err(|e| format!("old report: {e}"))?;
    validate(new).map_err(|e| format!("new report: {e}"))?;
    let old_runs = old.get("runs").and_then(Json::as_arr).expect("validated");
    let new_runs = new.get("runs").and_then(Json::as_arr).expect("validated");
    let mut out = CompareOutcome::default();
    let mut by_key = HashMap::with_capacity(new_runs.len());
    for run in new_runs {
        by_key.insert(RunKey::of(run)?, run);
    }
    for run in old_runs {
        let key = RunKey::of(run)?;
        let Some(newer) = by_key.get(&key) else {
            return Err(format!("run '{key}' is missing from the new report"));
        };
        let old_t = req_f64(req(run, "measured")?, "ops_per_sec")?;
        let new_t = req_f64(req(newer, "measured")?, "ops_per_sec")?;
        out.compared += 1;
        if old_t <= 0.0 {
            continue;
        }
        let delta = new_t / old_t - 1.0;
        let line = format!(
            "{key}: {old_t:.0} -> {new_t:.0} ops/sec ({:+.1}%)",
            delta * 100.0
        );
        if new_t < old_t * (1.0 - TOLERANCE) {
            out.regressions.push(line);
        } else if new_t > old_t * (1.0 + TOLERANCE) {
            out.improvements.push(line);
        }
    }
    Ok(out)
}

/// A minimal schema-valid document with the given `(workload, ops_per_sec)`
/// fig5 runs — for comparator tests, which must not depend on timing.
#[doc(hidden)]
pub fn synthetic_report(workloads: &[(&str, f64)]) -> Json {
    let runs = workloads
        .iter()
        .map(|&(w, tput)| {
            run_json(
                &RunSpec {
                    figure: "fig5",
                    workload: w,
                    mix: Mix::HalfLookup.label(),
                    mode: AlgoMode::StmCondvar.label(),
                    policy: QuiescePolicy::Selective.label(),
                    threads: 2,
                    ops: 1_000,
                    warmup: 100,
                    unit: "ops/sec",
                },
                1.0,
                tput,
                &TrialStats::default(),
            )
        })
        .collect();
    Json::Obj(vec![
        ("schema".into(), Json::str(SCHEMA)),
        ("schema_version".into(), Json::u64(SCHEMA_VERSION)),
        ("pr".into(), Json::u64(PR)),
        (
            "config".into(),
            Json::Obj(vec![("label".into(), Json::str("synthetic"))]),
        ),
        ("runs".into(), Json::Arr(runs)),
        ("optimizations".into(), Json::Arr(Vec::new())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_report_passes_validation() {
        let doc = synthetic_report(&[("hash", 1000.0), ("tree", 500.0)]);
        validate(&doc).unwrap();
        // And survives a byte-identical round trip through the parser.
        let rendered = doc.render();
        assert_eq!(Json::parse(&rendered).unwrap().render(), rendered);
    }

    #[test]
    fn accepts_version_1_documents() {
        // BENCH_6.json and earlier carry schema_version 1 with no kv runs;
        // they must keep validating (and comparing) under the v2 code.
        let mut doc = synthetic_report(&[("hash", 1000.0)]);
        if let Json::Obj(fields) = &mut doc {
            assert_eq!(fields[1].0, "schema_version");
            fields[1].1 = Json::u64(MIN_SCHEMA_VERSION);
        }
        validate(&doc).unwrap();
        let old_v1 = doc;
        let new_v2 = synthetic_report(&[("hash", 1000.0)]);
        compare(&old_v1, &new_v2).unwrap();
    }

    #[test]
    fn kv_runs_require_latency_and_requests() {
        let report = KvReport {
            offered: 100,
            completed: 90,
            shed: 6,
            deadline_miss: 4,
            secs: 1.0,
            goodput_per_sec: 90.0,
            p50_ns: 10,
            p99_ns: 20,
            p999_ns: 30,
            hist: tle_base::stats::LatencyHist::new().snapshot(),
            max_admission_step: 2,
        };
        let kv = KvConfig::quick();
        let run = kv_run_json("storm", "plane-on", &kv, &report, &TrialStats::default());
        validate_run(&run).unwrap();

        // A kv run without the quantiles is rejected...
        let mut broken = run.clone();
        replace_key(&mut broken, "latency", &Json::u64(0));
        let err = validate_run(&broken).unwrap_err();
        assert!(err.contains("latency"), "unexpected error: {err}");
        // ...but the same gap on a non-kv figure is fine (v1 shape).
        let mut non_kv = broken;
        replace_key(&mut non_kv, "figure", &Json::str("fig5"));
        validate_run(&non_kv).unwrap();

        let mut broken = run;
        replace_key(&mut broken, "requests", &Json::u64(0));
        let err = validate_run(&broken).unwrap_err();
        assert!(err.contains("requests"), "unexpected error: {err}");
    }

    #[test]
    fn validate_rejects_schema_drift() {
        let doc = synthetic_report(&[("hash", 1000.0)]);
        let mutate = |f: &dyn Fn(&mut Vec<(String, Json)>)| {
            let mut d = doc.clone();
            if let Json::Obj(fields) = &mut d {
                f(fields);
            }
            d
        };
        let bad_schema = mutate(&|f| f[0].1 = Json::str("something-else"));
        assert!(validate(&bad_schema).unwrap_err().contains("schema"));
        let bad_version = mutate(&|f| f[1].1 = Json::u64(99));
        assert!(validate(&bad_version)
            .unwrap_err()
            .contains("schema_version"));
        let no_runs = mutate(&|f| f.retain(|(k, _)| k != "runs"));
        assert!(validate(&no_runs).unwrap_err().contains("runs"));
        let empty_runs = mutate(&|f| {
            if let Some((_, v)) = f.iter_mut().find(|(k, _)| k == "runs") {
                *v = Json::Arr(Vec::new());
            }
        });
        assert!(validate(&empty_runs).unwrap_err().contains("empty"));
    }

    #[test]
    fn validate_rejects_duplicate_run_keys() {
        let doc = synthetic_report(&[("hash", 1000.0), ("tree", 500.0), ("hash", 900.0)]);
        let err = validate(&doc).unwrap_err();
        assert!(err.contains("runs[2]: duplicate run key"), "{err}");
        assert!(err.contains("fig5/hash"), "{err}");
        // A comparison never pairs against an ambiguous document.
        let clean = synthetic_report(&[("hash", 1000.0)]);
        assert!(compare(&clean, &doc).unwrap_err().contains("duplicate"));

        // The same point at another thread count is a distinct run.
        let mut doc = synthetic_report(&[("hash", 1000.0), ("hash", 900.0)]);
        if let Json::Obj(fields) = &mut doc {
            if let Some((_, Json::Arr(runs))) = fields.iter_mut().find(|(k, _)| k == "runs") {
                replace_key(&mut runs[1], "threads", &Json::u64(8));
            }
        }
        validate(&doc).unwrap();
    }

    /// Replace the value at key `target` anywhere in the tree.
    fn replace_key(v: &mut Json, target: &str, with: &Json) {
        match v {
            Json::Obj(fields) => {
                for (k, val) in fields.iter_mut() {
                    if k == target {
                        *val = with.clone();
                    } else {
                        replace_key(val, target, with);
                    }
                }
            }
            Json::Arr(items) => {
                for item in items.iter_mut() {
                    replace_key(item, target, with);
                }
            }
            _ => {}
        }
    }

    #[test]
    fn validate_checks_histogram_width_and_causes() {
        let mut doc = synthetic_report(&[("hash", 1000.0)]);
        replace_key(&mut doc, "hist", &Json::Arr(vec![Json::u64(0); 4]));
        let err = validate(&doc).unwrap_err();
        assert!(err.contains("hist"), "unexpected error: {err}");

        let mut doc = synthetic_report(&[("hash", 1000.0)]);
        replace_key(&mut doc, "by_cause", &Json::Obj(Vec::new()));
        let err = validate(&doc).unwrap_err();
        assert!(err.contains("by_cause"), "unexpected error: {err}");
    }

    #[test]
    fn compare_flags_regression_beyond_tolerance() {
        let old = synthetic_report(&[("hash", 1000.0), ("tree", 500.0)]);
        let new = synthetic_report(&[("hash", 850.0), ("tree", 495.0)]);
        let out = compare(&old, &new).unwrap();
        assert_eq!(out.compared, 2);
        assert_eq!(out.regressions.len(), 1, "{:?}", out.regressions);
        assert!(out.regressions[0].contains("hash"));
    }

    #[test]
    fn compare_passes_within_tolerance() {
        let old = synthetic_report(&[("hash", 1000.0)]);
        let new = synthetic_report(&[("hash", 905.0)]);
        let out = compare(&old, &new).unwrap();
        assert!(out.regressions.is_empty(), "{:?}", out.regressions);
        assert!(out.improvements.is_empty());
    }

    #[test]
    fn compare_reports_improvements() {
        let old = synthetic_report(&[("hash", 1000.0)]);
        let new = synthetic_report(&[("hash", 1500.0)]);
        let out = compare(&old, &new).unwrap();
        assert_eq!(out.improvements.len(), 1);
        assert!(out.regressions.is_empty());
    }

    #[test]
    fn compare_hard_fails_on_missing_run() {
        let old = synthetic_report(&[("hash", 1000.0), ("tree", 500.0)]);
        let new = synthetic_report(&[("hash", 1000.0)]);
        let err = compare(&old, &new).unwrap_err();
        assert!(err.contains("missing"), "unexpected error: {err}");
        // New runs appearing is NOT an error (additions are fine).
        compare(&new, &old).unwrap();
    }

    #[test]
    fn stable_view_strips_every_measured_subtree() {
        let a = synthetic_report(&[("hash", 1000.0)]);
        let b = synthetic_report(&[("hash", 123.0)]);
        assert_ne!(a, b);
        assert_eq!(stable_view(&a), stable_view(&b));
        fn has_measured(v: &Json) -> bool {
            match v {
                Json::Obj(f) => f.iter().any(|(k, v)| k == "measured" || has_measured(v)),
                Json::Arr(items) => items.iter().any(has_measured),
                _ => false,
            }
        }
        assert!(has_measured(&a));
        assert!(!has_measured(&stable_view(&a)));
    }
}
