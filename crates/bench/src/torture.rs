//! rcutorture-style torture harness: run the real workloads under a seeded
//! fault schedule and check invariant oracles.
//!
//! The harness exists to answer one question continuously: *after the fault
//! oracle has forced aborts, stalled lock holders, delayed signals and
//! stormed the serial gate, is the runtime still correct?* Correctness is
//! judged by oracles, never by timing:
//!
//! - **txset**: single-worker runs mirror every operation against a
//!   `BTreeSet` (exact sequential oracle); multi-worker runs check that the
//!   per-thread net insert/remove deltas match final membership.
//! - **pbzip pipeline**: `decompress(compress(x)) == x`.
//! - **x265 pipeline**: the encode completes and emits every frame.
//!
//! Reproducibility contract: with `workers == 1` and pipelines off, the
//! whole run is deterministic — same seed ⇒ same fault schedule ⇒ identical
//! per-cause abort counts and fault tallies ([`TortureReport::repro_key`]).
//! Multi-worker runs keep the *armed* tallies deterministic (pure tick
//! arithmetic) and use the oracles alone as pass/fail.

use crate::workloads::{make_set, prefill, TrialStats};
use std::collections::BTreeSet;
use std::sync::Arc;
use tle_base::fault::{self, FaultPlan, FaultRule, FaultSnapshot, Hazard};
use tle_base::rng::XorShift64;
use tle_base::AbortCause;
use tle_core::{AlgoMode, TmSystem};
use tle_pbz::{compress_parallel, decompress_parallel, gen_text, PipelineConfig};
use tle_wfe::{encode_video, EncoderConfig, VideoSource};

/// One torture run's shape.
#[derive(Debug, Clone)]
pub struct TortureConfig {
    /// Seeds the fault schedule *and* the workload's operation stream.
    pub seed: u64,
    /// Algorithm under torture.
    pub mode: AlgoMode,
    /// txset worker threads (1 ⇒ exact sequential oracle + full
    /// reproducibility).
    pub workers: usize,
    /// Set operations per worker.
    pub ops_per_worker: u64,
    /// Which set structure carries the txset phase.
    pub structure: String,
    /// Also run the pbzip and x265 pipeline phases (oracle-checked but not
    /// bit-reproducible: pipeline threads take auto-assigned fault lanes).
    pub pipelines: bool,
    /// Also run the per-lock mode-flip phase: a counter workload while a
    /// seed-derived schedule of `set_lock_mode` flips retargets the lock
    /// through every (non-NoQuiesce) mode. The oracle is the exact counter
    /// value plus the flip sequence matching the schedule.
    pub adaptive: bool,
    /// Also run the deadline-hazard phase: a counter workload where a
    /// seed-derived subset of requests carries a zero retry-time budget.
    /// A zero budget is already spent at the dispatch gate, so those
    /// requests are *guaranteed* to be refused with `DeadlineExceeded` —
    /// the expiry tally is a pure function of the seed even with racing
    /// workers, and is folded into [`TortureReport::repro_key`].
    pub deadline: bool,
    /// Also run the async-executor phase: the same fault schedule driven
    /// through the waker path (`run_async` attempts, suspended condvar
    /// waits, executor-yield backoff). Disjoint write sets and commutative
    /// increments make the final state a pure function of the
    /// configuration, so the phase's checksum joins
    /// [`TortureReport::repro_key`]; with `workers == 1` the single
    /// executor worker serializes every attempt and the whole phase
    /// replays exactly.
    pub async_exec: bool,
}

impl TortureConfig {
    /// The CI smoke shape: short, multi-worker, all phases.
    pub fn quick(seed: u64, mode: AlgoMode) -> Self {
        TortureConfig {
            seed,
            mode,
            workers: 3,
            ops_per_worker: 1_500,
            structure: "hash".into(),
            pipelines: true,
            adaptive: false,
            deadline: false,
            async_exec: false,
        }
    }

    /// The deterministic shape backing `--repro` and the determinism tests.
    pub fn repro(seed: u64, mode: AlgoMode) -> Self {
        TortureConfig {
            seed,
            mode,
            workers: 1,
            ops_per_worker: 2_000,
            structure: "tree".into(),
            pipelines: false,
            adaptive: false,
            deadline: false,
            async_exec: false,
        }
    }
}

/// The standard torture schedule: every hazard class armed, with coprime
/// periods so the fault mix keeps shifting phase against the workload.
pub fn torture_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .rule(FaultRule::new(Hazard::HtmEvent, 5))
        .rule(FaultRule::new(Hazard::HtmCapacity, 9).at_access(1))
        .rule(FaultRule::new(Hazard::HtmConflict, 7))
        .rule(FaultRule::new(Hazard::OrecStall, 11).stall(2_000))
        .rule(FaultRule::new(Hazard::ValidationDelay, 13).stall(1_000))
        .rule(FaultRule::new(Hazard::QuiesceDelay, 17).stall(1_500))
        .rule(FaultRule::new(Hazard::SignalDelay, 19).stall(1_000))
        .rule(FaultRule::new(Hazard::SpuriousWake, 6))
        .rule(FaultRule::new(Hazard::SerialStorm, 23))
}

/// Everything a torture run produced.
#[derive(Debug, Clone)]
pub struct TortureReport {
    /// The run's configuration echo.
    pub seed: u64,
    pub mode: AlgoMode,
    pub workers: usize,
    /// Wall-clock seconds for the whole run.
    pub secs: f64,
    /// Oracle violations (empty ⇒ pass).
    pub violations: Vec<String>,
    /// Fault-oracle tallies at the end of the run.
    pub fault: FaultSnapshot,
    /// Per-domain commit/abort counters.
    pub stats: TrialStats,
    /// Starvation-ladder escalations granted.
    pub escalations: u64,
    /// Quiescence-watchdog trips observed.
    pub watchdog_trips: u64,
    /// The mode-flip sequence applied during the adaptive phase (empty
    /// unless [`TortureConfig::adaptive`] was set). Same seed ⇒ identical
    /// sequence, by construction.
    pub switches: Vec<String>,
    /// Requests refused by the deadline dispatch gate during the deadline
    /// phase (0 unless [`TortureConfig::deadline`] was set). Same seed ⇒
    /// identical count, by construction.
    pub deadline_expiries: u64,
    /// Checksum over the async phase's final counters and ping-pong rounds
    /// (0 unless [`TortureConfig::async_exec`] was set). A pure function of
    /// the configuration when the oracles hold, so it folds into
    /// [`repro_key`](Self::repro_key).
    pub async_checksum: u64,
}

impl TortureReport {
    /// Did every oracle hold?
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// The reproducibility token: per-cause abort counts (both TM domains)
    /// plus both fault tallies. Two `--repro` runs with the same seed must
    /// produce byte-identical keys.
    pub fn repro_key(&self) -> String {
        let mut key = String::new();
        for c in AbortCause::ALL {
            key.push_str(&format!(
                "{}:{}/{};",
                c.label(),
                self.stats.stm.cause(c),
                self.stats.htm.cause(c)
            ));
        }
        key.push_str(&format!(
            "fired:{:?};armed:{:?}",
            self.fault.fired, self.fault.armed
        ));
        if !self.switches.is_empty() {
            key.push_str(&format!(";switches:{}", self.switches.join(",")));
        }
        if self.deadline_expiries > 0 {
            key.push_str(&format!(";deadline:{}", self.deadline_expiries));
        }
        if self.async_checksum != 0 {
            key.push_str(&format!(";async:{:#x}", self.async_checksum));
        }
        key
    }

    /// Human-readable summary (the binary prints this).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "torture [{}] seed={:#x} workers={} {:.2}s: {}",
            self.mode.label(),
            self.seed,
            self.workers,
            self.secs,
            if self.ok() {
                "PASS".to_string()
            } else {
                format!("FAIL ({} violations)", self.violations.len())
            }
        );
        for v in &self.violations {
            let _ = writeln!(out, "  VIOLATION: {v}");
        }
        let _ = writeln!(
            out,
            "  commits stm={} htm={} serial={} | aborts: {}",
            self.stats.stm.commits,
            self.stats.htm_commits,
            self.stats.serial_fallbacks,
            self.stats.abort_breakdown()
        );
        let _ = writeln!(
            out,
            "  escalations={} watchdog_trips={} deadline_expiries={}",
            self.escalations, self.watchdog_trips, self.deadline_expiries
        );
        if self.async_checksum != 0 {
            let _ = writeln!(out, "  async phase checksum {:#x}", self.async_checksum);
        }
        if !self.switches.is_empty() {
            let _ = writeln!(
                out,
                "  mode flips ({}): {}",
                self.switches.len(),
                self.switches.join(" ")
            );
        }
        let _ = write!(out, "  faults fired:");
        for h in Hazard::ALL {
            let n = self.fault.fired(h);
            if n > 0 {
                let _ = write!(out, " {}={}", h.label(), n);
            }
        }
        let _ = writeln!(out, " (digest {:#x})", self.fault.digest());
        out
    }
}

/// Run one torture configuration end to end. Installs the fault plan,
/// drives the phases, clears the plan, and returns the report — panics in
/// worker threads are converted into violations so a wedged oracle still
/// produces a report.
pub fn run_torture(cfg: &TortureConfig) -> TortureReport {
    let sys = Arc::new(
        TmSystem::builder()
            .mode(cfg.mode)
            .adaptive(cfg.adaptive)
            .build(),
    );
    let mut violations = Vec::new();
    // Single-worker (repro) phases run transactions on *this* thread; a
    // buffer block parked by a previous run would shift this run's heap
    // layout and break the same-seed trace contract.
    tle_stm::drain_buf_pool();
    fault::install(torture_plan(cfg.seed));
    let t0 = std::time::Instant::now();

    if cfg.workers <= 1 {
        torture_set_sequential(&sys, cfg, &mut violations);
    } else {
        torture_set_concurrent(&sys, cfg, &mut violations);
    }
    if cfg.pipelines {
        torture_pbzip(&sys, cfg, &mut violations);
        torture_x265(&sys, cfg, &mut violations);
    }
    let switches = if cfg.adaptive {
        torture_flips(&sys, cfg, &mut violations)
    } else {
        Vec::new()
    };
    let deadline_expiries = if cfg.deadline {
        torture_deadline(&sys, cfg, &mut violations)
    } else {
        0
    };
    let async_checksum = if cfg.async_exec {
        torture_async(&sys, cfg, &mut violations)
    } else {
        0
    };

    let secs = t0.elapsed().as_secs_f64();
    let fault_snap = fault::snapshot();
    fault::clear();
    TortureReport {
        seed: cfg.seed,
        mode: cfg.mode,
        workers: cfg.workers,
        secs,
        violations,
        fault: fault_snap,
        stats: TrialStats::capture(&sys),
        escalations: sys.stats.snapshot().escalations,
        watchdog_trips: sys.stm.stats.snapshot().watchdog_trips,
        switches,
        deadline_expiries,
        async_checksum,
    }
}

/// Async-executor torture: the seeded fault schedule driven through the
/// waker path. Six tasks multiplex onto the executor, each incrementing its
/// own counter cell under one shared elidable lock (disjoint write sets,
/// commutative ops — the final state is a pure function of the
/// configuration), while a waiter/signaller pair ping-pongs through a
/// transactional condvar so signal-delay and spurious-wake faults land on
/// suspended-task wakeups instead of parked threads.
///
/// Oracles: every counter exact, every ping-pong round completed. The
/// returned checksum folds the final cells and round count with the seed;
/// with `workers == 1` the single executor worker serializes every attempt
/// (backoff and slot waits only yield — no timers), so same seed ⇒ same
/// fault ticks ⇒ same checksum *and* same per-cause abort counts.
fn torture_async(sys: &Arc<TmSystem>, cfg: &TortureConfig, violations: &mut Vec<String>) -> u64 {
    use tle_base::exec::Exec;
    use tle_base::TCell;
    use tle_core::{ElidableMutex, TxCondvar};

    const TASKS: usize = 6;
    const ROUNDS: u64 = 40;
    let ops = (cfg.ops_per_worker / 4).max(1);

    let exec = Exec::new(cfg.workers.max(1));
    let lock = ElidableMutex::new("torture-async");
    let th = Arc::new(sys.register());
    let cells: Arc<Vec<TCell<u64>>> = Arc::new((0..TASKS).map(|_| TCell::new(0)).collect());

    let mut joins = Vec::new();
    for t in 0..TASKS {
        let th = Arc::clone(&th);
        let lock = lock.clone();
        let cells = Arc::clone(&cells);
        joins.push(exec.spawn(async move {
            for _ in 0..ops {
                th.tx(&lock)
                    .run_async(|ctx| {
                        let v = ctx.read(&cells[t])?;
                        ctx.write(&cells[t], v + 1)?;
                        Ok(())
                    })
                    .await;
            }
        }));
    }

    // The ping-pong pair: `turn` alternates 0/1 through the condvar, each
    // side flipping it ROUNDS times.
    let cv = Arc::new(TxCondvar::new());
    let turn = Arc::new(TCell::new(0u64));
    let rounds = Arc::new(TCell::new(0u64));
    for role in 0..2u64 {
        let th = Arc::clone(&th);
        let lock = lock.clone();
        let cv = Arc::clone(&cv);
        let turn = Arc::clone(&turn);
        let rounds = Arc::clone(&rounds);
        joins.push(exec.spawn(async move {
            for _ in 0..ROUNDS {
                th.tx(&lock)
                    .run_async(|ctx| {
                        if ctx.read(&*turn)? != role {
                            return ctx.wait(&cv, None);
                        }
                        ctx.write(&*turn, 1 - role)?;
                        let r = ctx.read(&*rounds)?;
                        ctx.write(&*rounds, r + 1)?;
                        ctx.broadcast(&cv)?;
                        Ok(())
                    })
                    .await;
            }
        }));
    }

    exec.block_on(async move {
        for j in joins {
            j.await;
        }
    });

    let mut checksum = cfg.seed ^ 0xA57C;
    for (t, cell) in cells.iter().enumerate() {
        let v = cell.load_direct();
        if v != ops {
            violations.push(format!(
                "async: task {t} counter {v} != {ops} — an async attempt lost an update"
            ));
        }
        checksum = checksum.rotate_left(7) ^ v;
    }
    let r = rounds.load_direct();
    if r != 2 * ROUNDS {
        violations.push(format!(
            "async: ping-pong completed {r} of {} rounds",
            2 * ROUNDS
        ));
    }
    checksum.rotate_left(7) ^ r
}

/// Deadline torture: increment a counter under a lock while a seed-derived
/// subset of the requests carries a zero retry-time budget. The runner's
/// dispatch gate checks the budget *before* any speculation, and a zero
/// budget is already expired when the gate first looks at it, so every
/// budgeted request must come back `Err(DeadlineExceeded)` — anything else
/// (a commit, a different error) is an oracle violation. Because refusal
/// happens before the transaction touches shared state, the expiry tally is
/// a pure function of the seed even with racing workers, which is what lets
/// `repro_key` fold it in.
///
/// Oracles: the counter equals total ops minus expiries (refused requests
/// must have no effect), and the system-wide `deadline_exceeded` stat equals
/// the tally (every refusal is counted exactly once).
fn torture_deadline(sys: &Arc<TmSystem>, cfg: &TortureConfig, violations: &mut Vec<String>) -> u64 {
    use std::time::Duration;
    use tle_base::TCell;
    use tle_core::{ElidableMutex, TxError};

    fn worker(
        sys: &Arc<TmSystem>,
        lock: &ElidableMutex,
        cell: &TCell<u64>,
        seed: u64,
        w: usize,
        ops: u64,
    ) -> (u64, Vec<String>) {
        fault::set_lane(w as u64);
        let th = sys.register();
        let mut rng = XorShift64::new(seed ^ 0xDEAD ^ ((w as u64) << 17));
        let mut expired = 0u64;
        let mut vs = Vec::new();
        for i in 0..ops {
            if rng.below(4) == 0 {
                match th.tx(lock).deadline(Duration::ZERO).try_run(|ctx| {
                    let v = ctx.read(cell)?;
                    ctx.write(cell, v + 1)?;
                    Ok(())
                }) {
                    Err(TxError::DeadlineExceeded) => expired += 1,
                    Ok(()) => vs.push(format!(
                        "deadline: worker {w} op {i}: zero budget committed anyway"
                    )),
                    Err(e) => vs.push(format!(
                        "deadline: worker {w} op {i}: expected DeadlineExceeded, got {e:?}"
                    )),
                }
            } else {
                th.tx(lock).run(|ctx| {
                    let v = ctx.read(cell)?;
                    ctx.write(cell, v + 1)?;
                    Ok(())
                });
            }
        }
        (expired, vs)
    }

    let lock = ElidableMutex::new("torture-deadline");
    let cell = Arc::new(TCell::new(0u64));
    let workers = cfg.workers.max(1);
    let ops = cfg.ops_per_worker;
    let before = sys.stats.snapshot().deadline_exceeded;

    let mut expired_total = 0u64;
    if workers == 1 {
        let (expired, vs) = worker(sys, &lock, &cell, cfg.seed, 0, ops);
        expired_total += expired;
        violations.extend(vs);
    } else {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let sys = Arc::clone(sys);
                let lock = lock.clone();
                let cell = Arc::clone(&cell);
                let seed = cfg.seed;
                std::thread::spawn(move || worker(&sys, &lock, &cell, seed, w, ops))
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok((expired, vs)) => {
                    expired_total += expired;
                    violations.extend(vs);
                }
                Err(_) => violations.push("deadline: a torture worker panicked".into()),
            }
        }
    }

    let expect = workers as u64 * ops - expired_total;
    let got = cell.load_direct();
    if got != expect {
        violations.push(format!(
            "deadline: counter {got} != {expect} — a refused request had effects"
        ));
    }
    let counted = sys.stats.snapshot().deadline_exceeded - before;
    if counted != expired_total {
        violations.push(format!(
            "deadline: stats counted {counted} expiries but workers observed {expired_total}"
        ));
    }
    expired_total
}

/// Mode-flip torture: increment a counter under a lock while a seed-derived
/// schedule of per-lock mode flips drags that lock through every
/// non-NoQuiesce mode. Exactness of the final count is the oracle for the
/// flip protocol's total-exclusion guarantee (a section completing under a
/// stale mode would race a section under the new one and lose an update).
///
/// Determinism: the flip *sequence* is a pure function of the seed and the
/// base mode (consecutive repeats are excluded, so every scheduled flip
/// changes the resolved mode and records exactly one event). Single-worker
/// runs interleave flips at fixed operation boundaries on the worker thread
/// itself, keeping the whole phase — fault ticks included — reproducible;
/// multi-worker runs race a dedicated flipper thread against the workers,
/// which always completes the full schedule.
fn torture_flips(
    sys: &Arc<TmSystem>,
    cfg: &TortureConfig,
    violations: &mut Vec<String>,
) -> Vec<String> {
    use tle_base::TCell;
    use tle_core::ElidableMutex;

    const FLIPS: usize = 12;
    /// Flip targets: every mode except `StmCondvarNoQuiesce`, which the
    /// controller and the torture schedule alike must never select (the
    /// no-quiesce contract is a per-lock application opt-in only).
    const TARGETS: [AlgoMode; 5] = [
        AlgoMode::Baseline,
        AlgoMode::StmSpin,
        AlgoMode::StmCondvar,
        AlgoMode::HtmCondvar,
        AlgoMode::AdaptiveHtm,
    ];

    let lock = ElidableMutex::new("torture-flips");
    sys.adopt_lock(&lock);
    let mut rng = XorShift64::new(cfg.seed ^ 0xF11F);
    let mut schedule = Vec::with_capacity(FLIPS);
    let mut prev = cfg.mode;
    for _ in 0..FLIPS {
        let next = loop {
            let cand = TARGETS[rng.below(TARGETS.len() as u64) as usize];
            if cand != prev {
                break cand;
            }
        };
        schedule.push(next);
        prev = next;
    }

    let cell = Arc::new(TCell::new(0u64));
    let workers = cfg.workers.max(1);
    let ops = cfg.ops_per_worker;
    if workers == 1 {
        // Deterministic shape: flips fire at fixed op boundaries from the
        // one worker thread.
        fault::set_lane(0);
        let th = sys.register();
        let interval = (ops / FLIPS as u64).max(1);
        let mut flipped = 0usize;
        for i in 0..ops {
            if i % interval == 0 && flipped < FLIPS {
                sys.set_lock_mode(&lock, schedule[flipped]);
                flipped += 1;
            }
            th.tx(&lock).run(|ctx| {
                let v = ctx.read(&*cell)?;
                ctx.write(&*cell, v + 1)?;
                Ok(())
            });
        }
        for &m in &schedule[flipped..] {
            sys.set_lock_mode(&lock, m);
        }
    } else {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let sys = Arc::clone(sys);
                let lock = lock.clone();
                let cell = Arc::clone(&cell);
                std::thread::spawn(move || {
                    fault::set_lane(w as u64);
                    let th = sys.register();
                    for _ in 0..ops {
                        th.tx(&lock).run(|ctx| {
                            let v = ctx.read(&*cell)?;
                            ctx.write(&*cell, v + 1)?;
                            Ok(())
                        });
                    }
                })
            })
            .collect();
        let flipper = {
            let sys = Arc::clone(sys);
            let lock = lock.clone();
            let schedule = schedule.clone();
            std::thread::spawn(move || {
                for m in schedule {
                    sys.set_lock_mode(&lock, m);
                    std::thread::sleep(std::time::Duration::from_micros(300));
                }
            })
        };
        let mut panicked = false;
        for h in handles {
            panicked |= h.join().is_err();
        }
        flipper.join().expect("flipper thread panicked");
        if panicked {
            violations.push("flips: a counter worker panicked".into());
        }
    }

    let expect = workers as u64 * ops;
    let got = cell.load_direct();
    if got != expect {
        violations.push(format!(
            "flips: counter {got} != {expect} — a section completed under a stale mode"
        ));
    }
    if lock.is_no_quiesce() {
        violations.push("flips: lock entered NoQuiesce without an opt-in".into());
    }
    let events = sys.mode_switches();
    let seq: Vec<String> = events
        .iter()
        .filter(|e| e.lock == lock.name())
        .map(|e| format!("{}>{}", e.from.label(), e.to.label()))
        .collect();
    let expected_seq: Vec<String> = schedule
        .iter()
        .scan(cfg.mode, |from, &to| {
            let s = format!("{}>{}", from.label(), to.label());
            *from = to;
            Some(s)
        })
        .collect();
    if seq != expected_seq {
        violations.push(format!(
            "flips: recorded switch sequence {seq:?} != schedule {expected_seq:?}"
        ));
    }
    seq
}

/// Single-worker txset phase: every operation checked against a `BTreeSet`.
fn torture_set_sequential(sys: &Arc<TmSystem>, cfg: &TortureConfig, violations: &mut Vec<String>) {
    fault::set_lane(0);
    let set = make_set(&cfg.structure);
    let th = sys.register();
    prefill(&*set, &th);
    let mut oracle: BTreeSet<u64> = (0..set.key_space()).step_by(2).collect();
    let mut rng = XorShift64::new(cfg.seed | 1);
    let space = set.key_space();
    for i in 0..cfg.ops_per_worker {
        let key = rng.below(space);
        let (got, want, op) = match rng.below(3) {
            0 => (set.insert(&th, key), oracle.insert(key), "insert"),
            1 => (set.remove(&th, key), oracle.remove(&key), "remove"),
            _ => (set.contains(&th, key), oracle.contains(&key), "contains"),
        };
        if got != want {
            violations.push(format!(
                "{}: op {i} {op}({key}) returned {got}, oracle says {want}",
                set.name()
            ));
            return; // the set and oracle have diverged; later ops are noise
        }
    }
    if set.len_direct() != oracle.len() {
        violations.push(format!(
            "{}: final size {} != oracle {}",
            set.name(),
            set.len_direct(),
            oracle.len()
        ));
    }
}

/// Multi-worker txset phase: per-thread net insert/remove deltas must match
/// final membership exactly.
fn torture_set_concurrent(sys: &Arc<TmSystem>, cfg: &TortureConfig, violations: &mut Vec<String>) {
    let set = make_set(&cfg.structure);
    let space = set.key_space();
    {
        // Seed the even keys before any worker runs; the membership check
        // below accounts for them as each key's initial state.
        let th = sys.register();
        prefill(&*set, &th);
    }
    let handles: Vec<_> = (0..cfg.workers)
        .map(|w| {
            let sys = Arc::clone(sys);
            let set = Arc::clone(&set);
            let ops = cfg.ops_per_worker;
            let seed = cfg.seed;
            std::thread::spawn(move || {
                fault::set_lane(w as u64);
                let th = sys.register();
                let mut rng = XorShift64::new(seed ^ (0x5EED << 8) ^ w as u64);
                let mut net = vec![0i64; space as usize];
                for _ in 0..ops {
                    let key = rng.below(space);
                    match rng.below(3) {
                        0 => {
                            if set.insert(&th, key) {
                                net[key as usize] += 1;
                            }
                        }
                        1 => {
                            if set.remove(&th, key) {
                                net[key as usize] -= 1;
                            }
                        }
                        _ => {
                            let _ = set.contains(&th, key);
                        }
                    }
                }
                net
            })
        })
        .collect();
    let mut net = vec![0i64; space as usize];
    for h in handles {
        match h.join() {
            Ok(worker_net) => {
                for (k, d) in worker_net.into_iter().enumerate() {
                    net[k] += d;
                }
            }
            Err(_) => {
                violations.push(format!("{}: a torture worker panicked", set.name()));
                return;
            }
        }
    }
    let th = sys.register();
    let mut live = 0usize;
    for key in 0..space {
        let member = set.contains(&th, key);
        // Prefill seeded the even keys before any worker ran.
        let expect = net[key as usize] + i64::from(key % 2 == 0) > 0;
        if member != expect {
            violations.push(format!(
                "{}: key {key} membership {member} but net deltas say {expect}",
                set.name()
            ));
        }
        live += member as usize;
    }
    if set.len_direct() != live {
        violations.push(format!(
            "{}: len_direct {} != counted membership {live}",
            set.name(),
            set.len_direct()
        ));
    }
}

/// pbzip phase: a compress/decompress round trip must be lossless under
/// injection (the pipeline's CRC checks run inside `decompress_parallel`).
fn torture_pbzip(sys: &Arc<TmSystem>, cfg: &TortureConfig, violations: &mut Vec<String>) {
    let input = gen_text(cfg.seed ^ 0xB21F, 48 * 1024);
    let pcfg = PipelineConfig {
        workers: cfg.workers.max(2),
        block_size: 8 * 1024,
        fifo_cap: 2 * cfg.workers.max(2),
    };
    let compressed = compress_parallel(sys, &input, &pcfg);
    match decompress_parallel(sys, &compressed, &pcfg) {
        Ok(rt) => {
            if rt != input {
                violations.push(format!(
                    "pbzip: round trip mismatch ({} in, {} out)",
                    input.len(),
                    rt.len()
                ));
            }
        }
        Err(e) => violations.push(format!("pbzip: decompress failed: {e:?}")),
    }
}

/// x265 phase: the wavefront encode must complete and emit every frame.
fn torture_x265(sys: &Arc<TmSystem>, cfg: &TortureConfig, violations: &mut Vec<String>) {
    const FRAMES: usize = 4;
    let source = VideoSource::new(64, 48, FRAMES, cfg.seed ^ 0x265);
    let ecfg = EncoderConfig {
        workers: cfg.workers.max(2),
        qp: 12,
        keyframe_interval: 4,
        lookahead_depth: 2,
        target_bits_per_frame: None,
        frame_threads: 2,
        slices: 1,
    };
    let v = encode_video(sys, &source, &ecfg);
    if v.frames.len() != FRAMES {
        violations.push(format!(
            "x265: encoded {} of {FRAMES} frames",
            v.frames.len()
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn torture_plan_arms_every_hazard() {
        let plan = torture_plan(1);
        let armed: std::collections::HashSet<_> =
            plan.rules.iter().map(|r| r.hazard.index()).collect();
        assert_eq!(armed.len(), Hazard::COUNT, "every hazard class is armed");
    }

    #[test]
    fn report_repro_key_reflects_causes() {
        let report = TortureReport {
            seed: 1,
            mode: AlgoMode::StmCondvar,
            workers: 1,
            secs: 0.0,
            violations: Vec::new(),
            fault: FaultSnapshot::default(),
            stats: TrialStats::default(),
            escalations: 0,
            watchdog_trips: 0,
            switches: Vec::new(),
            deadline_expiries: 0,
            async_checksum: 0,
        };
        let key = report.repro_key();
        for c in AbortCause::ALL {
            assert!(key.contains(c.label()));
        }
        assert!(report.ok());
        assert!(report.render().contains("PASS"));
    }
}
