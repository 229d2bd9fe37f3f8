//! The trial runners behind every `tle-bench emit` figure: each takes the
//! figure's independent variables, runs one measured window, and returns
//! the elapsed time or throughput together with the TM counters.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;
use tle_base::stats::TxStatsSnapshot;
use tle_base::{AbortCause, OrecTable, Padded, TCell};
use tle_core::{AdaptiveConfig, AlgoMode, ElidableMutex, ThreadHandle, TmSystem};
use tle_htm::HtmConfig;
use tle_pbz::{compress_parallel, decompress_parallel, PipelineConfig};
use tle_stm::{QuiescePolicy, StmGlobal};
use tle_txset::{TxHashSet, TxListSet, TxSet, TxTreeSet};
use tle_wfe::lookahead::{NestedQueue, ReadyQueue};
use tle_wfe::{encode_video, EncoderConfig, VideoSource};

/// Statistics harvested after a trial.
#[derive(Debug, Clone, Default)]
pub struct TrialStats {
    pub stm: TxStatsSnapshot,
    /// Full HTM snapshot, including the per-cause abort counters the
    /// diagnostics layer maintains (`by_cause`).
    pub htm: TxStatsSnapshot,
    pub htm_commits: u64,
    pub htm_aborts: u64,
    pub serial_fallbacks: u64,
}

impl TrialStats {
    /// Capture from a system.
    pub fn capture(sys: &TmSystem) -> Self {
        TrialStats {
            stm: sys.stm.stats.snapshot(),
            htm: sys.htm.stats.tx.snapshot(),
            htm_commits: sys.htm.stats.tx.commits.get(),
            htm_aborts: sys.htm.stats.tx.aborts.get(),
            serial_fallbacks: sys.stats.serial_fallbacks.get(),
        }
    }

    /// Aborts attributed to `cause`, summed over both TM domains.
    pub fn cause(&self, cause: AbortCause) -> u64 {
        self.stm.cause(cause) + self.htm.cause(cause)
    }

    /// Render the non-zero per-cause abort counts as a compact one-liner,
    /// e.g. `conflict=41 capacity=3 event=7`. Returns `"-"` when the trial
    /// recorded no aborts at all.
    pub fn abort_breakdown(&self) -> String {
        let mut out = String::new();
        for cause in AbortCause::ALL {
            let n = self.cause(cause);
            if n > 0 {
                if !out.is_empty() {
                    out.push(' ');
                }
                out.push_str(&format!("{}={}", cause.label(), n));
            }
        }
        if out.is_empty() {
            out.push('-');
        }
        out
    }
}

/// Bytes of `input` a PBZip2 compress trial warms up on: one block, capped
/// at 64 KiB so large-block panels do not pay for their input twice.
pub fn pbzip_warmup_len(input_len: usize, block_size: usize) -> usize {
    input_len.min(block_size).min(64 * 1024)
}

/// One PBZip2 trial: compress `input`.
///
/// Like every trial runner, this warms the system first (one pipeline pass
/// over a small prefix, so thread handles, FIFO slots, and transaction
/// buffers are all allocated) and then measures a steady-state window with
/// freshly reset stats.
pub fn pbzip_compress_trial(
    mode: AlgoMode,
    workers: usize,
    block_size: usize,
    input: &[u8],
) -> (f64, TrialStats) {
    pbzip_compress_trial_on(&Arc::new(TmSystem::new(mode)), workers, block_size, input)
}

/// [`pbzip_compress_trial`] on a caller-configured system (the HTM-retry
/// and STM-algorithm ablations tune theirs).
pub fn pbzip_compress_trial_on(
    sys: &Arc<TmSystem>,
    workers: usize,
    block_size: usize,
    input: &[u8],
) -> (f64, TrialStats) {
    let cfg = PipelineConfig {
        workers,
        block_size,
        fifo_cap: 2 * workers.max(2),
    };
    let warm = &input[..pbzip_warmup_len(input.len(), block_size)];
    std::hint::black_box(compress_parallel(sys, warm, &cfg));
    sys.reset_stats();
    let t0 = Instant::now();
    let out = compress_parallel(sys, input, &cfg);
    let secs = t0.elapsed().as_secs_f64();
    assert!(!out.is_empty() || input.is_empty());
    (secs, TrialStats::capture(sys))
}

/// One PBZip2 decompression trial (warmed up on a small synthetic blob,
/// then measured steady-state).
pub fn pbzip_decompress_trial(
    mode: AlgoMode,
    workers: usize,
    block_size: usize,
    compressed: &[u8],
) -> (f64, TrialStats) {
    let sys = Arc::new(TmSystem::new(mode));
    let cfg = PipelineConfig {
        workers,
        block_size,
        fifo_cap: 2 * workers.max(2),
    };
    let warm = compress_parallel(&sys, &tle_pbz::gen_text(7, 4096), &cfg);
    std::hint::black_box(decompress_parallel(&sys, &warm, &cfg).expect("warmup decompress"));
    sys.reset_stats();
    let t0 = Instant::now();
    let out = decompress_parallel(&sys, compressed, &cfg).expect("decompress failed");
    let secs = t0.elapsed().as_secs_f64();
    std::hint::black_box(&out);
    (secs, TrialStats::capture(&sys))
}

/// Video sizes mirroring the paper's small/medium/large inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VideoSize {
    Small,
    Medium,
    Large,
}

impl VideoSize {
    /// The three inputs in the paper's order.
    pub const ALL: [VideoSize; 3] = [VideoSize::Small, VideoSize::Medium, VideoSize::Large];

    /// (width, height, frames), scaled down per DESIGN.md §3.5.
    pub fn params(self) -> (usize, usize, usize) {
        match self {
            VideoSize::Small => (96, 64, 8),
            VideoSize::Medium => (160, 96, 10),
            VideoSize::Large => (240, 144, 12),
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            VideoSize::Small => "small",
            VideoSize::Medium => "medium",
            VideoSize::Large => "large",
        }
    }
}

/// One x265 trial: encode the synthetic sequence.
pub fn x265_trial(mode: AlgoMode, workers: usize, size: VideoSize) -> (f64, TrialStats) {
    x265_trial_cfg(mode, workers, size, HtmConfig::default())
}

/// [`x265_trial`] with an explicit HTM configuration (used by Figure 4's
/// elevated-event-pressure rows).
pub fn x265_trial_cfg(
    mode: AlgoMode,
    workers: usize,
    size: VideoSize,
    htm_cfg: HtmConfig,
) -> (f64, TrialStats) {
    let (w, h, n) = size.params();
    let source = VideoSource::new(w, h, n, 0xFEED);
    let sys = Arc::new(TmSystem::builder().mode(mode).htm_config(htm_cfg).build());
    let cfg = EncoderConfig {
        workers,
        qp: 12,
        keyframe_interval: 8,
        lookahead_depth: 4,
        target_bits_per_frame: None,
        frame_threads: 3,
        slices: 1,
    };
    // Warmup: a two-frame encode spins up the worker pool and touches the
    // hot allocation paths; the measured window then starts from reset
    // stats (steady state).
    let warm_src = VideoSource::new(w, h, 2, 0xFEED);
    std::hint::black_box(encode_video(&sys, &warm_src, &cfg));
    sys.reset_stats();
    let t0 = Instant::now();
    let v = encode_video(&sys, &source, &cfg);
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(v.frames.len(), n);
    (secs, TrialStats::capture(&sys))
}

/// The lazy-subscription A/B workload: every transaction scans a row of
/// padded cells sized *exactly* at the simulated HTM's read capacity
/// (`lines` distinct cache lines: `lines - 1` shared read-only cells plus
/// one private read-modify-write cell per thread). Eager subscription
/// spends one extra read-set line on the lock word, pushing every attempt
/// over the cap: capacity aborts exhaust the retry budget, the serial
/// fallbacks acquire the lock, and each acquisition dooms every concurrent
/// elision — the lock-word conflict-abort cascade the lazy modes exist to
/// avoid. Lazy subscription never reads the lock word, so the identical
/// workload fits the cap and elides cleanly.
pub fn lazy_subscription_trial(
    mode: AlgoMode,
    threads: usize,
    lines: usize,
    ops_per_thread: u64,
) -> (f64, TrialStats) {
    assert!(
        lines >= 2,
        "need at least one shared line plus the private one"
    );
    let htm_cfg = HtmConfig {
        read_cap_lines: lines,
        event_prob: 0.0, // deterministic: capacity and conflict aborts only
        ..HtmConfig::default()
    };
    let sys = Arc::new(TmSystem::builder().mode(mode).htm_config(htm_cfg).build());
    let lock = Arc::new(ElidableMutex::new("lazy-ab"));
    let shared: Arc<Vec<Padded<TCell<u64>>>> =
        Arc::new((0..lines - 1).map(|_| Padded(TCell::new(1u64))).collect());
    let privs: Arc<Vec<Padded<TCell<u64>>>> =
        Arc::new((0..threads).map(|_| Padded(TCell::new(0u64))).collect());
    let barrier = Arc::new(Barrier::new(threads + 1));
    let warmup_ops = ops_per_thread / 10;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let sys = Arc::clone(&sys);
            let lock = Arc::clone(&lock);
            let shared = Arc::clone(&shared);
            let privs = Arc::clone(&privs);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let th = sys.register();
                let one_op = |th: &ThreadHandle| {
                    th.tx(&lock).run(|ctx| {
                        let mut acc = 0u64;
                        for c in shared.iter() {
                            acc = acc.wrapping_add(ctx.read(&**c)?);
                        }
                        let old = ctx.read(&*privs[t])?;
                        ctx.write(&*privs[t], old.wrapping_add(acc))?;
                        Ok(())
                    });
                };
                barrier.wait(); // sync0: everyone registered
                for _ in 0..warmup_ops {
                    one_op(&th);
                }
                barrier.wait(); // sync1: warmup drained everywhere
                barrier.wait(); // sync2: measured window opens
                for _ in 0..ops_per_thread {
                    one_op(&th);
                }
            })
        })
        .collect();
    barrier.wait(); // sync0
    barrier.wait(); // sync1
    sys.reset_stats();
    let t0 = Instant::now();
    barrier.wait(); // sync2
    for h in handles {
        h.join().unwrap();
    }
    let secs = t0.elapsed().as_secs_f64();
    let stats = TrialStats::capture(&sys);
    for p in privs.iter() {
        assert!(p.load_direct() > 0, "a worker's ops were lost");
    }
    let total_ops = threads as f64 * ops_per_thread as f64;
    (total_ops / secs, stats)
}

/// The Figure 5 operation mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 50% insert / 50% remove (left column of Figure 5).
    UpdateOnly,
    /// 50% lookup, 25% insert, 25% remove (right column).
    HalfLookup,
    /// 90% lookup, 5% insert, 5% remove — the read-mostly mix the
    /// read-only commit fast path targets (the fig5 `90l/5i/5r` row).
    ReadMostly,
}

impl Mix {
    pub fn label(self) -> &'static str {
        match self {
            Mix::UpdateOnly => "50i/50r",
            Mix::HalfLookup => "50l/25i/25r",
            Mix::ReadMostly => "90l/5i/5r",
        }
    }
}

/// One operation of `mix` against `set` — the shared inner loop of the
/// warmup and measured windows of [`micro_trial_opts`].
#[inline]
fn mix_op(
    set: &dyn TxSet,
    th: &ThreadHandle,
    mix: Mix,
    rng: &mut tle_base::rng::XorShift64,
    space: u64,
) {
    let key = rng.below(space);
    let dice = rng.below(100);
    match mix {
        Mix::UpdateOnly => {
            if dice < 50 {
                set.insert(th, key);
            } else {
                set.remove(th, key);
            }
        }
        Mix::HalfLookup => {
            if dice < 50 {
                set.contains(th, key);
            } else if dice < 75 {
                set.insert(th, key);
            } else {
                set.remove(th, key);
            }
        }
        Mix::ReadMostly => {
            if dice < 90 {
                set.contains(th, key);
            } else if dice < 95 {
                set.insert(th, key);
            } else {
                set.remove(th, key);
            }
        }
    }
}

/// Build one of the three set structures by name.
pub fn make_set(kind: &str) -> Arc<dyn TxSet> {
    match kind {
        "list" => Arc::new(TxListSet::new()),
        "hash" => Arc::new(TxHashSet::new()),
        "tree" => Arc::new(TxTreeSet::new()),
        other => panic!("unknown set kind {other}"),
    }
}

/// Pre-fill a set to 50% occupancy (the paper's initial condition).
pub fn prefill(set: &dyn TxSet, th: &ThreadHandle) {
    let space = set.key_space();
    for k in (0..space).step_by(2) {
        set.insert(th, k);
    }
}

/// One Figure 5 trial: `threads` workers each run `ops_per_thread`
/// operations of `mix` against `set` under `policy`. Returns throughput in
/// operations per second plus stats.
pub fn micro_trial(
    kind: &str,
    policy: QuiescePolicy,
    threads: usize,
    mix: Mix,
    ops_per_thread: u64,
) -> (f64, TrialStats) {
    micro_trial_opts(
        kind,
        policy,
        threads,
        mix,
        ops_per_thread,
        MicroOpts::warmed(ops_per_thread),
    )
}

/// Runtime knobs for [`micro_trial_opts`] beyond the classic figure
/// parameters.
#[derive(Debug, Clone, Copy)]
pub struct MicroOpts {
    /// STM algorithm (paper default: `ml_wt`).
    pub algo: tle_stm::StmAlgo,
    /// Per-thread warmup operations executed before the measured window;
    /// stats reset at the steady-state boundary.
    pub warmup_ops: u64,
}

impl Default for MicroOpts {
    fn default() -> Self {
        MicroOpts {
            algo: tle_stm::StmAlgo::MlWt,
            warmup_ops: 0,
        }
    }
}

impl MicroOpts {
    /// Defaults plus the standard warmup: 10% of the measured per-thread
    /// op count.
    pub fn warmed(ops_per_thread: u64) -> Self {
        MicroOpts {
            warmup_ops: ops_per_thread / 10,
            ..Self::default()
        }
    }
}

/// [`micro_trial`] with the full knob set. The trial runs in three barrier
/// phases: *sync0* (all workers registered) → warmup ops on a dedicated
/// rng stream → *sync1* (stats reset, clock armed) → *sync2* (measured
/// window opens). The measured window replays the same operation sequence
/// regardless of how much warmup preceded it.
pub fn micro_trial_opts(
    kind: &str,
    policy: QuiescePolicy,
    threads: usize,
    mix: Mix,
    ops_per_thread: u64,
    opts: MicroOpts,
) -> (f64, TrialStats) {
    // Microbenchmarks always run the STM (the paper's Figure 5 machine has
    // no HTM); the policy is the independent variable.
    let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
    sys.stm.set_policy(policy);
    sys.set_stm_algo(opts.algo);
    let set = make_set(kind);
    {
        let th = sys.register();
        prefill(&*set, &th);
    }
    let barrier = Arc::new(Barrier::new(threads + 1));
    let warmup_ops = opts.warmup_ops;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let sys = Arc::clone(&sys);
            let set = Arc::clone(&set);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let th = sys.register();
                let space = set.key_space();
                let mut wrng = tle_base::rng::XorShift64::new(0xAB ^ t as u64);
                barrier.wait(); // sync0: everyone registered
                for _ in 0..warmup_ops {
                    mix_op(&*set, &th, mix, &mut wrng, space);
                }
                barrier.wait(); // sync1: warmup drained everywhere
                let mut rng = tle_base::rng::XorShift64::new(0xF1F5 ^ t as u64);
                barrier.wait(); // sync2: measured window opens
                for _ in 0..ops_per_thread {
                    mix_op(&*set, &th, mix, &mut rng, space);
                }
            })
        })
        .collect();
    barrier.wait(); // sync0
    barrier.wait(); // sync1
    sys.reset_stats();
    let t0 = Instant::now();
    barrier.wait(); // sync2
    for h in handles {
        h.join().unwrap();
    }
    let secs = t0.elapsed().as_secs_f64();
    let stats = TrialStats::capture(&sys);
    let total_ops = threads as f64 * ops_per_thread as f64;
    (total_ops / secs, stats)
}

/// §IV drain scaling: one committer runs `ops` single-cell increments on
/// its own lock while `active` background threads run short back-to-back
/// transactions on theirs, so every drain the committer's policy orders
/// has their slots to poll. Returns the committer's seconds.
pub fn drain_scaling_trial(policy: QuiescePolicy, active: usize, ops: u64) -> (f64, TrialStats) {
    let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
    sys.stm.set_policy(policy);
    let stop = Arc::new(AtomicBool::new(false));
    let bg: Vec<_> = (0..active)
        .map(|i| {
            let sys = Arc::clone(&sys);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let th = sys.register();
                let lock = ElidableMutex::new("bg");
                let cell = TCell::new(0u64);
                let mut spin = i as u64;
                while !stop.load(Ordering::Relaxed) {
                    th.tx(&lock).run(|ctx| {
                        ctx.update(&cell, |v| v + 1)?;
                        Ok(())
                    });
                    // Hold some non-transactional time so drains
                    // actually observe running transactions.
                    spin = spin.wrapping_mul(6364136223846793005).wrapping_add(1);
                    if spin.is_multiple_of(4) {
                        std::hint::spin_loop();
                    }
                }
            })
        })
        .collect();
    let th = sys.register();
    let lock = ElidableMutex::new("fg");
    let cell = TCell::new(0u64);
    sys.reset_stats();
    let t0 = Instant::now();
    for _ in 0..ops {
        th.tx(&lock).run(|ctx| {
            ctx.update(&cell, |v| v + 1)?;
            Ok(())
        });
    }
    let secs = t0.elapsed().as_secs_f64();
    let stats = TrialStats::capture(&sys);
    stop.store(true, Ordering::Relaxed);
    for h in bg {
        h.join().unwrap();
    }
    (secs, stats)
}

/// §IV coupling: `committers` threads each run `ops` single-cell
/// increments on their own locks while, with `long_tx`, one more thread
/// keeps a long read-mostly transaction in flight. A drain-everything
/// policy makes every unrelated commit wait for it; `no_quiesce` marks
/// each committer's section `TM_NoQuiesce`, which removes that coupling.
/// Returns the committers' seconds.
pub fn long_tx_trial(
    policy: QuiescePolicy,
    no_quiesce: bool,
    long_tx: bool,
    committers: usize,
    ops: u64,
) -> (f64, TrialStats) {
    let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
    sys.stm.set_policy(policy);
    let stop = Arc::new(AtomicBool::new(false));
    let long = long_tx.then(|| {
        let sys = Arc::clone(&sys);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let th = sys.register();
            let lock = ElidableMutex::new("long");
            let cells: Vec<TCell<u64>> = (0..512).map(TCell::new).collect();
            while !stop.load(Ordering::Relaxed) {
                // A transaction that reads a lot and dawdles.
                th.tx(&lock).run(|ctx| {
                    let mut acc = 0u64;
                    for c in &cells {
                        acc = acc.wrapping_add(ctx.read(c)?);
                    }
                    for _ in 0..2000 {
                        std::hint::spin_loop();
                    }
                    std::hint::black_box(acc);
                    Ok(())
                });
            }
        })
    });
    let barrier = Arc::new(Barrier::new(committers + 1));
    let handles: Vec<_> = (0..committers)
        .map(|_| {
            let sys = Arc::clone(&sys);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let th = sys.register();
                let lock = ElidableMutex::new("fg");
                let cell = TCell::new(0u64);
                barrier.wait(); // sync0: everyone registered
                barrier.wait(); // sync1: measured window opens
                for _ in 0..ops {
                    th.tx(&lock).run(|ctx| {
                        ctx.update(&cell, |v| v + 1)?;
                        if no_quiesce {
                            ctx.no_quiesce();
                        }
                        Ok(())
                    });
                }
            })
        })
        .collect();
    barrier.wait(); // sync0
    sys.reset_stats();
    let t0 = Instant::now();
    barrier.wait(); // sync1
    for h in handles {
        h.join().unwrap();
    }
    let secs = t0.elapsed().as_secs_f64();
    let stats = TrialStats::capture(&sys);
    stop.store(true, Ordering::Relaxed);
    if let Some(h) = long {
        h.join().unwrap();
    }
    (secs, stats)
}

/// Simulated §V produce step (the work x265 does per lookahead node: a
/// frame complexity estimate that dwarfs the queue ops, as in the paper's
/// setting where the parity claim is made).
fn produce_work(i: u64) -> u64 {
    let mut acc = i;
    for _ in 0..20_000 {
        acc = acc
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
    }
    acc
}

/// §V Listing 3: `producers` threads each push `per_producer` items
/// through the lookahead queue, producing every item while holding the
/// queue lock. That shape is not two-phase, so it runs on plain locks
/// only. Returns seconds until one consumer drained everything.
pub fn nested_queue_trial(producers: usize, per_producer: u64) -> f64 {
    let q: Arc<NestedQueue<u64>> = Arc::new(NestedQueue::new());
    let t0 = Instant::now();
    let handles: Vec<_> = (0..producers as u64)
        .map(|p| {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                for i in 0..per_producer {
                    q.produce_while_locked(|| Box::new(produce_work(p * per_producer + i)));
                }
            })
        })
        .collect();
    let consumer = {
        let q = Arc::clone(&q);
        std::thread::spawn(move || {
            while let Some(v) = q.pop() {
                std::hint::black_box(*v);
            }
        })
    };
    for h in handles {
        h.join().unwrap();
    }
    q.close();
    consumer.join().unwrap();
    t0.elapsed().as_secs_f64()
}

/// §V Listing 4: the [`nested_queue_trial`] traffic through the ready-flag
/// queue under `mode`: reserve a slot under the lock, produce outside it,
/// publish. This is the shape TLE can elide.
pub fn ready_queue_trial(mode: AlgoMode, producers: usize, per_producer: u64) -> (f64, TrialStats) {
    let sys = Arc::new(TmSystem::new(mode));
    let q: Arc<ReadyQueue<u64>> = Arc::new(ReadyQueue::new(64));
    let t0 = Instant::now();
    let handles: Vec<_> = (0..producers as u64)
        .map(|p| {
            let sys = Arc::clone(&sys);
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let th = sys.register();
                for i in 0..per_producer {
                    let Some(r) = q.reserve(&th) else { break };
                    let item = produce_work(p * per_producer + i);
                    q.publish(&th, r, Box::new(item));
                }
            })
        })
        .collect();
    let consumer = {
        let sys = Arc::clone(&sys);
        let q = Arc::clone(&q);
        std::thread::spawn(move || {
            let th = sys.register();
            while let Some(v) = q.pop_ready(&th) {
                std::hint::black_box(*v);
            }
        })
    };
    for h in handles {
        h.join().unwrap();
    }
    q.close(&sys.register());
    consumer.join().unwrap();
    (t0.elapsed().as_secs_f64(), TrialStats::capture(&sys))
}

/// §II-C fallback models: each of `threads` threads increments its own
/// cell under its own lock (fully disjoint), `ops` times, while the
/// simulated HTM injects event aborts at `event_prob`. `HtmCondvar` routes
/// every failure through the global serial gate and so suspends the other
/// threads; `AdaptiveHtm` falls back to the one failing lock.
pub fn disjoint_locks_trial(
    mode: AlgoMode,
    threads: usize,
    event_prob: f64,
    ops: u64,
) -> (f64, TrialStats) {
    let sys = Arc::new(
        TmSystem::builder()
            .mode(mode)
            .htm_config(HtmConfig {
                event_prob,
                ..HtmConfig::default()
            })
            .build(),
    );
    // Cache-line padding matters here exactly as on real TSX: adjacent
    // lock words would share a conflict-table line and make "disjoint"
    // locks alias (the classic lock-elision false-sharing gotcha).
    let locks: Arc<Vec<Padded<ElidableMutex>>> = Arc::new(
        (0..threads)
            .map(|_| Padded(ElidableMutex::new("disjoint")))
            .collect(),
    );
    let cells: Arc<Vec<Padded<TCell<u64>>>> =
        Arc::new((0..threads).map(|_| Padded(TCell::new(0))).collect());
    let barrier = Arc::new(Barrier::new(threads + 1));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let sys = Arc::clone(&sys);
            let locks = Arc::clone(&locks);
            let cells = Arc::clone(&cells);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let th = sys.register();
                barrier.wait(); // sync0: everyone registered
                barrier.wait(); // sync1: measured window opens
                for _ in 0..ops {
                    th.tx(&locks[t]).run(|ctx| {
                        ctx.update(&cells[t], |v| v + 1)?;
                        Ok(())
                    });
                }
            })
        })
        .collect();
    barrier.wait(); // sync0
    sys.reset_stats();
    let t0 = Instant::now();
    barrier.wait(); // sync1
    for h in handles {
        h.join().unwrap();
    }
    let secs = t0.elapsed().as_secs_f64();
    for c in cells.iter() {
        assert_eq!(c.load_direct(), ops, "a disjoint-lock increment was lost");
    }
    (secs, TrialStats::capture(&sys))
}

/// The phases of the adaptive-policy workload, in run order:
///
/// - **capacity**: every section writes more lines than the simulated
///   HTM's write capacity, from per-thread disjoint regions. HTM burns two
///   doomed passes per section before convoying through the serial gate;
///   STM commits first try.
/// - **storm**: read-modify-write of one hot pair with a scheduler yield
///   between the reads and the writes, so another thread's commit lands
///   mid-section. Every speculative flavour pays repeated doomed passes;
///   the plain lock just holds the mutex across the yield.
/// - **read-mostly**: read-dominated sections with rare writes. Elision
///   commits without bouncing the lock word.
pub const PHASES: [&str; 3] = ["capacity", "storm", "read-mostly"];

/// Per-thread section counts of each of the [`PHASES`] in the four-thread
/// reference run.
pub const PHASE_OPS: [u64; 3] = [320, 10_000, 16_000];

/// More distinct cache lines than the simulated HTM's `write_cap_lines`
/// (128). The cells must be line-`Padded`: contiguous `TCell<u64>`s pack
/// eight to a line and would never overflow the write set.
const CAP_CELLS: usize = 144;

/// Ballast rounds per phase: multiply-rotate chains on a local, sized so
/// per-access instrumentation stays a small fraction of section cost. What
/// separates the policies is then the wasted work each causes: doomed
/// passes, retries, serial convoys.
const PHASE_BALLAST: [u32; 3] = [896, 256, 480];

/// Plain compute: the uninstrumented "real work" of a critical section.
#[inline(always)]
fn churn(mut x: u64, rounds: u32) -> u64 {
    for _ in 0..rounds {
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31);
    }
    x
}

/// Shared state of the [`PHASES`] workload.
struct PhaseCells {
    /// Per-thread disjoint write regions (capacity phase), one cell per
    /// cache line so each counts against the HTM write capacity.
    regions: Vec<Vec<Padded<TCell<u64>>>>,
    /// The contended pair (storm phase).
    hot: Vec<Padded<TCell<u64>>>,
    /// The read-mostly array.
    cold: Vec<TCell<u64>>,
}

/// One phase with `threads` workers aligned on a barrier; returns seconds.
fn run_phase(
    sys: &Arc<TmSystem>,
    lock: &ElidableMutex,
    w: &Arc<PhaseCells>,
    phase: usize,
    threads: usize,
    ops: u64,
) -> f64 {
    let barrier = Arc::new(Barrier::new(threads + 1));
    let ballast = PHASE_BALLAST[phase];
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let sys = Arc::clone(sys);
            let lock = lock.clone();
            let w = Arc::clone(w);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let th = sys.register();
                barrier.wait(); // sync0: everyone registered
                barrier.wait(); // sync1: phase opens
                let mut acc = 0u64;
                match phase {
                    0 => {
                        for _ in 0..ops {
                            th.tx(&lock).run(|ctx| {
                                for c in &w.regions[t] {
                                    let v = ctx.read(&**c)?;
                                    ctx.write(&**c, churn(v, ballast).wrapping_add(1))?;
                                }
                                Ok(())
                            });
                        }
                    }
                    1 => {
                        for _ in 0..ops {
                            th.tx(&lock).run(|ctx| {
                                let a = ctx.read(&*w.hot[0])?;
                                let b = ctx.read(&*w.hot[1])?;
                                // Mid-section yield: on one CPU this hands
                                // the core to a sibling whose commit then
                                // invalidates our reads — the interleaving
                                // a multi-core box produces for free.
                                std::thread::yield_now();
                                ctx.write(&*w.hot[0], churn(a, ballast) | 1)?;
                                ctx.write(&*w.hot[1], churn(b, ballast) | 1)?;
                                Ok(())
                            });
                        }
                    }
                    _ => {
                        for i in 0..ops {
                            acc ^= th.tx(&lock).run(|ctx| {
                                let mut sum = 0u64;
                                for c in &w.cold {
                                    sum ^= churn(ctx.read(c)?, ballast);
                                }
                                if i % 64 == 0 {
                                    ctx.write(&w.cold[0], sum | 1)?;
                                }
                                Ok(sum)
                            });
                            if i % 16 == 0 {
                                std::thread::yield_now();
                            }
                        }
                    }
                }
                std::hint::black_box(acc);
            })
        })
        .collect();
    barrier.wait(); // sync0
    let t0 = Instant::now();
    barrier.wait(); // sync1
    for h in handles {
        h.join().unwrap();
    }
    t0.elapsed().as_secs_f64()
}

/// The [`PHASES`] back to back on one lock under `mode`, or, with
/// `adaptive`, under the per-lock feedback controller starting from
/// `mode`. `ops[i]` is each thread's section count in phase `i`. Returns
/// per-phase seconds and counters.
pub fn phase_shift_trial(
    mode: AlgoMode,
    adaptive: bool,
    threads: usize,
    ops: [u64; 3],
) -> [(f64, TrialStats); 3] {
    let sys = Arc::new(
        TmSystem::builder()
            .mode(mode)
            .adaptive(adaptive)
            .adaptive_config(AdaptiveConfig {
                // React within a couple of controller steps of a phase
                // change, and keep baseline probes rare enough that a
                // storm parked on the lock pays ~1% speculative probing.
                min_dwell_steps: 2,
                min_window_samples: 16,
                baseline_probe_steps: 200,
                ..AdaptiveConfig::default()
            })
            .build(),
    );
    let lock = ElidableMutex::new("adapt-bench");
    let w = Arc::new(PhaseCells {
        regions: (0..threads)
            .map(|_| (0..CAP_CELLS).map(|_| Padded(TCell::new(0))).collect())
            .collect(),
        hot: (0..2).map(|_| Padded(TCell::new(0))).collect(),
        cold: (0..8).map(|_| TCell::new(0)).collect(),
    });
    let ctrl = adaptive.then(|| {
        sys.adopt_lock(&lock);
        sys.start_controller(std::time::Duration::from_millis(1))
    });
    let out = std::array::from_fn(|phase| {
        sys.reset_stats();
        let secs = run_phase(&sys, &lock, &w, phase, threads, ops[phase]);
        (secs, TrialStats::capture(&sys))
    });
    if let Some(c) = ctrl {
        c.stop();
    }
    out
}

/// Time `iters` calls of `op` with one plain loop (no per-call clock
/// reads); returns seconds.
fn time_loop(iters: u64, mut op: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        op();
    }
    t0.elapsed().as_secs_f64()
}

/// Engineering baselines beneath every figure, single-threaded: `iters`
/// calls of each TCell, orec and raw `ml_wt` primitive. Returns
/// `(workload, policy, seconds)`; the STM rows' policy is the quiescence
/// policy of their domain, `-` elsewhere.
pub fn primitive_trials(iters: u64) -> Vec<(&'static str, &'static str, f64)> {
    use std::hint::black_box;
    let cell = TCell::new(7u64);
    let t = OrecTable::new();
    let i = t.index_of(0x1000);
    let mut out = vec![
        (
            "tcell-load",
            "-",
            time_loop(iters, || {
                black_box(cell.load_direct());
            }),
        ),
        (
            "tcell-store",
            "-",
            time_loop(iters, || cell.store_direct(black_box(9u64))),
        ),
        (
            "orec-index",
            "-",
            time_loop(iters, || {
                black_box(t.index_of(black_box(0xDEAD_BEEF)));
            }),
        ),
        (
            "orec-lock-release",
            "-",
            time_loop(iters, || {
                let seen = t.load(i);
                assert!(t.try_lock(i, seen, 1));
                t.release(i, (seen >> 1) + 1);
            }),
        ),
    ];
    for policy in [QuiescePolicy::Never, QuiescePolicy::Always] {
        let g = StmGlobal::new(policy);
        let slot = g.slots.register_raw().unwrap();
        let cell = TCell::new(0u64);
        if policy == QuiescePolicy::Never {
            let ro = time_loop(iters, || {
                let mut tx = g.begin(slot);
                black_box(tx.read(&cell).unwrap());
                tx.commit().unwrap();
            });
            out.push(("stm-ro-1read", policy.label(), ro));
        }
        let rw = time_loop(iters, || {
            let mut tx = g.begin(slot);
            tx.update(&cell, |v| v + 1).unwrap();
            tx.commit().unwrap();
        });
        out.push(("stm-rw-1write", policy.label(), rw));
        g.slots.unregister_raw(slot);
    }
    out
}

/// `tle/incr/<mode>`: `iters` single-cell increments, each one section
/// through the full elision runner on one thread. Returns seconds.
pub fn tle_incr_trial(mode: AlgoMode, iters: u64) -> (f64, TrialStats) {
    let sys = Arc::new(TmSystem::new(mode));
    let th = sys.register();
    let lock = ElidableMutex::new("bench");
    let cell = TCell::new(0u64);
    let secs = time_loop(iters, || {
        th.tx(&lock).run(|ctx| {
            ctx.update(&cell, |v| v + 1)?;
            Ok(())
        })
    });
    assert_eq!(cell.load_direct(), iters);
    (secs, TrialStats::capture(&sys))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pbzip_trial_smoke() {
        let input = tle_pbz::gen_text(1, 64 * 1024);
        let (secs, stats) = pbzip_compress_trial(AlgoMode::StmCondvar, 2, 16 * 1024, &input);
        assert!(secs > 0.0);
        assert!(stats.stm.commits > 0, "no STM commits recorded");
    }

    #[test]
    fn x265_trial_smoke() {
        let (secs, stats) = x265_trial(AlgoMode::HtmCondvar, 2, VideoSize::Small);
        assert!(secs > 0.0);
        assert!(stats.htm_commits > 0, "no HTM commits recorded");
    }

    #[test]
    fn micro_trial_smoke_all_policies() {
        for policy in [
            QuiescePolicy::Always,
            QuiescePolicy::Never,
            QuiescePolicy::Selective,
        ] {
            let (tput, stats) = micro_trial("hash", policy, 2, Mix::HalfLookup, 2_000);
            assert!(tput > 0.0);
            assert!(stats.stm.commits > 0);
            if policy == QuiescePolicy::Selective {
                assert!(
                    stats.stm.quiesce_skipped > 0,
                    "SelectNoQ should skip some drains"
                );
            }
        }
    }

    /// Acceptance test for the diagnostics layer: every [`AbortCause`] in
    /// the taxonomy is reachable through the real runtime paths, and each
    /// occurrence lands in the matching `by_cause` counter. The STM causes
    /// are driven surgically through the raw `ml_wt` API (two transactions
    /// interleaved on one thread); the HTM causes go through the full
    /// runner with hardware knobs tuned to force each one.
    #[test]
    fn every_abort_cause_is_reachable_and_counted() {
        // --- STM: ReadConflict, WriteConflict, ValidationFailed,
        //     CommitValidation, Explicit ---
        // `Never`: a committing writer must not drain quiescence here — the
        // interleaved transaction on this same thread still has its epoch
        // published, so an `Always` drain would wait on it forever.
        let g = tle_stm::StmGlobal::new(QuiescePolicy::Never);
        let sa = g.slots.register_raw().unwrap();
        let sb = g.slots.register_raw().unwrap();
        // Distinct cache lines so the two cells cannot share an orec.
        let x = Padded(TCell::new(0u64));
        let y = Padded(TCell::new(0u64));
        assert_ne!(
            g.orecs.index_of(x.addr()),
            g.orecs.index_of(y.addr()),
            "test cells alias one orec; pick different addresses"
        );

        // B locks X's orec; A's read and write spin out against it.
        {
            let mut b = g.begin(sb);
            b.write(&*x, 1u64).unwrap();
            let mut a = g.begin(sa);
            let e = a.read(&*x).unwrap_err();
            assert_eq!(e, AbortCause::ReadConflict);
            a.abort(e);
            let mut a = g.begin(sa);
            let e = a.write(&*x, 2u64).unwrap_err();
            assert_eq!(e, AbortCause::WriteConflict);
            a.abort(e);
            b.abort(AbortCause::Explicit);
        }
        // A's timestamp extension finds X changed since A read it.
        {
            let mut a = g.begin(sa);
            a.read(&*x).unwrap();
            let mut b = g.begin(sb);
            b.write(&*x, 3u64).unwrap();
            b.commit().unwrap();
            let e = a.read(&*x).unwrap_err();
            assert_eq!(e, AbortCause::ValidationFailed);
            a.abort(e);
        }
        // A is a writer with a read set gone stale: the commit-time
        // validation fails (distinct from the extension failure above).
        {
            let mut a = g.begin(sa);
            a.read(&*x).unwrap();
            a.write(&*y, 9u64).unwrap();
            let mut b = g.begin(sb);
            b.write(&*x, 4u64).unwrap();
            b.commit().unwrap();
            let e = a.commit().unwrap_err();
            assert_eq!(e, AbortCause::CommitValidation);
        }
        let stm = g.stats.snapshot();
        for cause in [
            AbortCause::ReadConflict,
            AbortCause::WriteConflict,
            AbortCause::ValidationFailed,
            AbortCause::CommitValidation,
            AbortCause::Explicit,
        ] {
            assert!(
                stm.cause(cause) >= 1,
                "STM {cause} reached but not counted: {:?}",
                stm.by_cause
            );
        }
        g.slots.unregister_raw(sa);
        g.slots.unregister_raw(sb);

        // --- HTM Conflict: requester-wins dooming, driven directly ---
        let hg = tle_htm::HtmGlobal::new(HtmConfig {
            event_prob: 0.0,
            ..HtmConfig::default()
        });
        let h1 = hg.slots.register_raw().unwrap();
        let h2 = hg.slots.register_raw().unwrap();
        let c = TCell::new(0u64);
        let mut t1 = hg.begin(h1);
        t1.write(&c, 1u64).unwrap();
        let mut t2 = hg.begin(h2);
        t2.write(&c, 2u64).unwrap(); // dooms t1 (requester wins)
        let e = t1.commit().unwrap_err();
        assert_eq!(e, AbortCause::Conflict);
        t2.commit().unwrap();
        assert!(hg.stats.tx.snapshot().cause(AbortCause::Conflict) >= 1);
        hg.slots.unregister_raw(h1);
        hg.slots.unregister_raw(h2);

        // --- HTM Capacity / Event / Unsafe through the full runner:
        //     each forces the serial fallback, which must still succeed ---
        let runner_cases: [(&str, HtmConfig, AbortCause); 3] = [
            (
                "capacity",
                HtmConfig {
                    write_cap_lines: 1,
                    event_prob: 0.0,
                    ..HtmConfig::default()
                },
                AbortCause::Capacity,
            ),
            (
                "event",
                HtmConfig {
                    event_prob: 1.0,
                    ..HtmConfig::default()
                },
                AbortCause::Event,
            ),
            (
                "unsafe",
                HtmConfig {
                    event_prob: 0.0,
                    ..HtmConfig::default()
                },
                AbortCause::Unsafe,
            ),
        ];
        for (label, cfg, want) in runner_cases {
            let sys = Arc::new(
                TmSystem::builder()
                    .mode(AlgoMode::HtmCondvar)
                    .htm_config(cfg)
                    .build(),
            );
            let lock = ElidableMutex::new("causes");
            let c1 = Padded(TCell::new(0u64));
            let c2 = Padded(TCell::new(0u64));
            let th = sys.register();
            th.tx(&lock).run(|ctx| {
                if want == AbortCause::Unsafe {
                    ctx.unsafe_op()?;
                }
                // Two distinct cache lines: overflows write_cap_lines=1.
                ctx.write(&*c1, 1u64)?;
                ctx.write(&*c2, 2u64)?;
                Ok(())
            });
            assert_eq!(c1.load_direct(), 1, "{label}: serial fallback lost a write");
            assert_eq!(c2.load_direct(), 2, "{label}: serial fallback lost a write");
            let stats = TrialStats::capture(&sys);
            assert!(
                stats.cause(want) >= 1,
                "{label}: cause {want} not counted; breakdown: {}",
                stats.abort_breakdown()
            );
            assert!(stats.serial_fallbacks >= 1, "{label}: no serial fallback");
        }
    }

    /// Satellite (a): the steady-state window excludes warmup work. Every
    /// set op is exactly one committed transaction, so measured commits
    /// must equal `threads * ops_per_thread` — warmup transactions (10%
    /// more) must have been wiped by the reset at the sync1 boundary.
    #[test]
    fn warmup_ops_are_excluded_from_the_measured_window() {
        let threads = 2;
        let ops = 2_000u64;
        let opts = MicroOpts::warmed(ops);
        assert_eq!(opts.warmup_ops, ops / 10);
        let (tput, stats) = micro_trial_opts(
            "hash",
            QuiescePolicy::Selective,
            threads,
            Mix::HalfLookup,
            ops,
            opts,
        );
        assert!(tput > 0.0);
        let total = threads as u64 * ops;
        // A contended section may complete as a serial fallback instead of
        // an STM commit, so bound from both sides rather than demanding
        // exact equality.
        assert!(
            stats.stm.commits <= total,
            "warmup leaked into the window: {} commits > {} measured ops",
            stats.stm.commits,
            total
        );
        assert!(
            stats.stm.commits + stats.serial_fallbacks >= total,
            "measured ops unaccounted for: {} commits + {} fallbacks < {}",
            stats.stm.commits,
            stats.serial_fallbacks,
            total
        );
    }

    /// The read-mostly mix drives the read-only commit fast path: under the
    /// `Always` drain policy, skipped drains can only come from the fast
    /// path.
    #[test]
    fn read_mostly_mix_exercises_the_ro_fast_path() {
        assert_eq!(Mix::ReadMostly.label(), "90l/5i/5r");
        let (_, on) = micro_trial_opts(
            "hash",
            QuiescePolicy::Always,
            2,
            Mix::ReadMostly,
            2_000,
            MicroOpts::warmed(2_000),
        );
        assert!(on.stm.quiesce_skipped > 0, "fast path never taken");
    }

    #[test]
    fn abort_breakdown_formats_nonzero_causes() {
        let mut stats = TrialStats::default();
        assert_eq!(stats.abort_breakdown(), "-");
        stats.stm.by_cause[AbortCause::ReadConflict.index()] = 2;
        stats.htm.by_cause[AbortCause::Capacity.index()] = 1;
        stats.htm.by_cause[AbortCause::ReadConflict.index()] = 1;
        assert_eq!(stats.abort_breakdown(), "read-conflict=3 capacity=1");
        assert_eq!(stats.cause(AbortCause::ReadConflict), 3);
    }

    /// The lazy-subscription A/B is non-vacuous in both directions: the
    /// eager side's lock-word subscription overflows the read cap (capacity
    /// aborts, serial fallbacks, and the acquire-time conflict dooms they
    /// cause), and the lazy side elides the very same workload with a
    /// fraction of the lock-word conflict aborts.
    #[test]
    fn lazy_subscription_trial_shows_the_capacity_cascade() {
        let (eager_t, eager) = lazy_subscription_trial(AlgoMode::AdaptiveHtm, 3, 6, 2_000);
        let (lazy_t, lazy) = lazy_subscription_trial(AlgoMode::AdaptiveHtmLazy, 3, 6, 2_000);
        assert!(eager_t > 0.0 && lazy_t > 0.0);
        assert!(
            eager.cause(AbortCause::Capacity) > 0,
            "eager subscription should overflow the read cap"
        );
        assert!(eager.serial_fallbacks > 0, "no fallback cascade to measure");
        assert!(
            lazy.cause(AbortCause::Capacity) == 0,
            "lazy must fit the cap exactly: {}",
            lazy.abort_breakdown()
        );
        assert!(
            lazy.cause(AbortCause::Conflict) < eager.cause(AbortCause::Conflict).max(1),
            "lazy should see fewer lock-word conflict aborts: lazy {} vs eager {}",
            lazy.abort_breakdown(),
            eager.abort_breakdown()
        );
        assert!(lazy.htm_commits > 0, "lazy side never elided");
    }

    #[test]
    fn prefill_reaches_half_occupancy() {
        let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
        let th = sys.register();
        let set = make_set("list");
        prefill(&*set, &th);
        assert_eq!(set.len_direct(), set.key_space() as usize / 2);
    }
}
