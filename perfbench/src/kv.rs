//! The three `tle-kv` workloads: `kv-zipf`, `kv-hotspot` and `kv-async`.
//!
//! All three serve a preloaded `ShardedKv` of 8 shards from a closed loop
//! whose request streams are generated from the seed before timing starts.
//! Values always satisfy `value % total_keys == key` (the preload writes
//! `key`, a PUT writes `key + total_keys * r`, a hot write adds or
//! subtracts `total_keys`), so every GET and every PUT's returned old value
//! is checked against its key, and the store's sum is checked at the end
//! against the PUT deltas the clients saw.

use crate::hist::{timed, Hist};
use crate::span::{self, SpanLog, NONE};
use crate::{median, Args, Outcome, Slices, KNEE_PCTS};
use std::future::Future;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::Poll;
use std::time::{Duration, Instant};
use tle_base::exec::{self, Exec};
use tle_base::rng::XorShift64;
use tle_base::AbortCause;
use tle_core::{AlgoMode, ThreadHandle, TmSystem, TxCtx, TxError};
use tle_kv::{KvShard, ShardedKv, Zipf};

/// Shards (elidable locks) in every kv workload.
const SHARDS: usize = 8;
/// YCSB's default skew.
const THETA: f64 = 0.99;
/// Share of GET/PUT requests that are PUTs.
const WRITE_PCT: u64 = 30;
/// Closed-loop client threads: one per core of a 2-core machine.
const CLIENTS: usize = 2;
/// `kv-async` sessions, multiplexed onto `EXEC_WORKERS` executor threads.
const SESSIONS: usize = 64;
const EXEC_WORKERS: usize = 2;
/// `kv-async` think time before each request.
const THINK: Duration = Duration::from_micros(20);
/// Requests generated across all streams; each stream cycles through its
/// share, so memory stays bounded however long a run measures.
const STREAM_TOTAL: usize = 1 << 21;
/// `kv-hotspot` hot writes: each read-modify-writes `HOT_TOUCH` consecutive
/// shard-0 keys starting at one of `HOT_BASES` bases.
const HOT_BASES: u64 = 4;
const HOT_TOUCH: u64 = 48;
/// Keys `0..HOT_REGION` (all in shard 0) are the ones hot writes touch.
const HOT_REGION: u64 = HOT_BASES + HOT_TOUCH - 1;
/// On `kv-zipf` and `kv-async`, GET/PUTs on the `HOT_RANKS` most popular
/// keys make up the `hot_*` class.
const HOT_RANKS: u64 = 64;
/// Set-ups per run; `setup_s` is their median. Each set-up allocates its
/// own store, at its own addresses, and untraced slices rotate over all of
/// them: the simulated HTM's conflict table and the STM's orecs hash
/// addresses, so aliasing, and with it the abort rate, differs from one
/// heap layout to the next, and a run should average several.
const SETUPS: usize = 3;
/// Untraced runs measure their window as this many equal slices (a
/// multiple of `SETUPS`) and report each metric's median over them, so a
/// burst of outside load on a shared machine moves one slice, not the
/// result.
const SLICES: usize = 24;

/// Which kv workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Zipf,
    Hotspot,
    Async,
}

impl Workload {
    fn mode(self) -> AlgoMode {
        match self {
            Workload::Hotspot => AlgoMode::HtmCondvar,
            Workload::Zipf | Workload::Async => AlgoMode::StmCondvar,
        }
    }

    fn key_space(self) -> u64 {
        match self {
            Workload::Hotspot => 256,
            Workload::Zipf | Workload::Async => 65_536,
        }
    }

    /// Percent of requests that are hot writes.
    fn hot_write_pct(self) -> u64 {
        match self {
            Workload::Hotspot => 20,
            Workload::Zipf | Workload::Async => 0,
        }
    }

    fn streams(self) -> usize {
        match self {
            Workload::Async => SESSIONS,
            Workload::Zipf | Workload::Hotspot => CLIENTS,
        }
    }
}

#[derive(Clone, Copy)]
enum Op {
    Get,
    /// PUT `key + total_keys * r`.
    Put(u32),
    /// Hot write from base `key`.
    Hot,
}

#[derive(Clone, Copy)]
struct Req {
    key: u32,
    op: Op,
    /// Counted in the `hot_*` class.
    hot: bool,
}

/// Everything the clients share: built once per set-up.
struct Shared {
    sys: Arc<TmSystem>,
    store: ShardedKv,
    streams: Arc<Vec<Vec<Req>>>,
    total: u64,
}

impl Shared {
    fn build(w: Workload, seed: u64) -> Shared {
        let sys = Arc::new(TmSystem::new(w.mode()));
        let store = ShardedKv::new(SHARDS, w.key_space());
        for shard in store.shards() {
            sys.adopt_lock(shard.lock());
        }
        let total = store.total_keys();
        {
            let th = sys.register();
            for k in 0..total {
                store.put(&th, k, k);
            }
        }
        let zipf = Zipf::new(total, THETA);
        let per_stream = STREAM_TOTAL / w.streams();
        let streams = (0..w.streams())
            .map(|s| {
                let mut rng =
                    XorShift64::new(seed ^ (s as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                (0..per_stream)
                    .map(|_| gen_req(w, &zipf, total, &mut rng))
                    .collect()
            })
            .collect();
        Shared {
            sys,
            store,
            streams: Arc::new(streams),
            total,
        }
    }

    fn is_bystander(&self, req: &Req) -> bool {
        !matches!(req.op, Op::Hot) && u64::from(req.key) / self.store.key_space() != 0
    }
}

fn gen_req(w: Workload, zipf: &Zipf, total: u64, rng: &mut XorShift64) -> Req {
    if rng.below(100) < w.hot_write_pct() {
        return Req {
            key: rng.below(HOT_BASES) as u32,
            op: Op::Hot,
            hot: true,
        };
    }
    let rank = zipf.sample(rng);
    // Scatter popularity over the shards: an odd multiplier is a bijection
    // modulo the (power-of-two) key count.
    let key = rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) & (total - 1);
    let op = if rng.below(100) < WRITE_PCT {
        Op::Put(rng.next_u32() >> 2)
    } else {
        Op::Get
    };
    Req {
        key: key as u32,
        op,
        hot: rank < HOT_RANKS,
    }
}

/// The hot write: a sum-preserving read-modify-write of `HOT_TOUCH` keys.
/// `Ok(None)` if a key was missing.
fn hot_body(
    shard: &KvShard,
    ctx: &mut TxCtx<'_>,
    base: u64,
    total: u64,
) -> Result<Option<u64>, TxError> {
    for j in 0..HOT_TOUCH {
        let k = base + j;
        let Some(old) = shard.get(ctx, k)? else {
            return Ok(None);
        };
        let new = if j % 2 == 0 {
            old.wrapping_add(total)
        } else {
            old.wrapping_sub(total)
        };
        shard.put(ctx, k, new)?;
    }
    Ok(Some(0))
}

/// One request's body below the runner (the traced path): GET and PUT call
/// the shard directly, as `ShardedKv::get`/`put` do inside their section.
fn body(
    shard: &KvShard,
    ctx: &mut TxCtx<'_>,
    op: Op,
    k: u64,
    val: u64,
    total: u64,
) -> Result<Option<u64>, TxError> {
    match op {
        Op::Get => shard.get(ctx, k),
        Op::Put(_) => shard.put(ctx, k, val),
        Op::Hot => hot_body(shard, ctx, k, total),
    }
}

/// Per-call latency classes.
#[derive(Default)]
struct Calls {
    get: Hist,
    put: Hist,
    hot: Hist,
    bystander: Hist,
    all: Hist,
}

impl Calls {
    fn merge(&mut self, o: &Calls) {
        self.get.merge(&o.get);
        self.put.merge(&o.put);
        self.hot.merge(&o.hot);
        self.bystander.merge(&o.bystander);
        self.all.merge(&o.all);
    }
}

/// Traced-run accumulators, summed over every traced request.
#[derive(Default)]
struct Layers {
    reqs: u64,
    kv_self_ns: u64,
    runner_self_ns: u64,
    attempts: u64,
    body_ns: u64,
    body_n: u64,
    hot_body_ns: u64,
    hot_body_n: u64,
    serial_reqs: u64,
    serial_hold_ns: u64,
    serial_attempts: u64,
    polls: u64,
    wake_late: Hist,
}

impl Layers {
    fn merge(&mut self, o: &Layers) {
        self.reqs += o.reqs;
        self.kv_self_ns += o.kv_self_ns;
        self.runner_self_ns += o.runner_self_ns;
        self.attempts += o.attempts;
        self.body_ns += o.body_ns;
        self.body_n += o.body_n;
        self.hot_body_ns += o.hot_body_ns;
        self.hot_body_n += o.hot_body_n;
        self.serial_reqs += o.serial_reqs;
        self.serial_hold_ns += o.serial_hold_ns;
        self.serial_attempts += o.serial_attempts;
        self.polls += o.polls;
        self.wake_late.merge(&o.wake_late);
    }
}

/// One client's (or session's) record of a phase.
#[derive(Default)]
struct Rec {
    calls: Calls,
    done: u64,
    failed: u64,
    bytes: u64,
    /// Sum of `new - old` over PUTs (wrapping), all keys / hot region.
    delta: u64,
    hot_delta: u64,
    layers: Layers,
    spans: SpanLog,
    /// The first request whose check failed, described.
    first_fail: Option<String>,
    /// Body attempts of the request in flight: (start, end, transactional).
    attempts: Vec<(Instant, Instant, bool)>,
}

impl Rec {
    fn merge(&mut self, o: &Rec) {
        self.calls.merge(&o.calls);
        self.done += o.done;
        self.failed += o.failed;
        self.bytes += o.bytes;
        self.delta = self.delta.wrapping_add(o.delta);
        self.hot_delta = self.hot_delta.wrapping_add(o.hot_delta);
        self.layers.merge(&o.layers);
        if self.first_fail.is_none() {
            self.first_fail.clone_from(&o.first_fail);
        }
    }

    /// Account one finished request: its check, its PUT delta, its latency.
    fn finish(&mut self, shared: &Shared, req: &Req, got: Option<u64>, ns: u64) {
        let key = u64::from(req.key);
        let ok = match (req.op, got) {
            (Op::Hot, r) => r.is_some(),
            (_, Some(v)) => v % shared.total == key,
            (_, None) => false,
        };
        if let (Op::Put(r), Some(old)) = (req.op, got) {
            let d = put_val(shared, key, r).wrapping_sub(old);
            self.delta = self.delta.wrapping_add(d);
            if key < HOT_REGION {
                self.hot_delta = self.hot_delta.wrapping_add(d);
            }
        }
        self.done += 1;
        if !ok {
            self.failed += 1;
            if self.first_fail.is_none() {
                let op = match req.op {
                    Op::Get => "GET",
                    Op::Put(_) => "PUT",
                    Op::Hot => "hot write from",
                };
                self.first_fail = Some(format!("{op} key {key} returned {got:?}"));
            }
        }
        self.bytes += match req.op {
            Op::Hot => HOT_TOUCH * 16,
            _ => 16,
        };
        match req.op {
            Op::Get => self.calls.get.record(ns),
            Op::Put(_) => self.calls.put.record(ns),
            Op::Hot => {}
        }
        if req.hot {
            self.calls.hot.record(ns);
        }
        if shared.is_bystander(req) {
            self.calls.bystander.record(ns);
        }
        self.calls.all.record(ns);
    }

    /// Fold the attempts of a traced request into the layer sums and the
    /// span log. `t0` call start, `t1` runner entry, `t2` return.
    fn trace(&mut self, req: &Req, id: u64, runner: &'static str, t: [Instant; 3], polls: u64) {
        let [t0, t1, t2] = t;
        let l = &mut self.layers;
        let mut body_ns = 0;
        for &(s, e, tx) in &self.attempts {
            let ns = (e - s).as_nanos() as u64;
            body_ns += ns;
            if matches!(req.op, Op::Hot) {
                l.hot_body_ns += ns;
                l.hot_body_n += 1;
            } else {
                l.body_ns += ns;
                l.body_n += 1;
            }
            if !tx {
                l.serial_hold_ns += ns;
                l.serial_attempts += 1;
            }
        }
        l.reqs += 1;
        l.attempts += self.attempts.len() as u64;
        l.kv_self_ns += (t1 - t0).as_nanos() as u64;
        l.runner_self_ns += ((t2 - t1).as_nanos() as u64).saturating_sub(body_ns);
        l.serial_reqs += u64::from(self.attempts.last().is_some_and(|a| !a.2));
        l.polls += polls;
        let name = match req.op {
            Op::Get => "kv.get",
            Op::Put(_) => "kv.put",
            Op::Hot => "kv.hot",
        };
        let kv = self.spans.record(name, t0, t2, NONE, id);
        let run = self.spans.record(runner, t1, t2, kv, id);
        for &(s, e, _) in &self.attempts {
            self.spans.record("kv.body", s, e, run, id);
        }
        self.attempts.clear();
    }
}

fn put_val(shared: &Shared, key: u64, r: u32) -> u64 {
    key.wrapping_add(shared.total.wrapping_mul(u64::from(r)))
}

/// Serve one request through the store's public API (the measured path).
fn serve(shared: &Shared, th: &ThreadHandle, req: &Req, rec: &mut Rec) {
    let key = u64::from(req.key);
    let (got, ns) = timed(|| match req.op {
        Op::Get => shared.store.get(th, key),
        Op::Put(r) => shared.store.put(th, key, put_val(shared, key, r)),
        Op::Hot => {
            let shard = &shared.store.shards()[0];
            th.tx(shard.lock())
                .run(|ctx| hot_body(shard, ctx, key, shared.total))
        }
    });
    rec.finish(shared, req, got, ns);
}

/// Where a traced request runs, routed as `ShardedKv` documents it (global
/// key `k` is shard-local key `k % key_space` of shard `k / key_space`):
/// its shard, the shard-local key (the base, for a hot write) and the value
/// to PUT.
fn route<'a>(shared: &'a Shared, req: &Req) -> (&'a KvShard, u64, u64) {
    let key = u64::from(req.key);
    let shards = shared.store.shards();
    let ks = shared.store.key_space();
    match req.op {
        Op::Hot => (&shards[0], key, 0),
        Op::Get => (&shards[(key / ks) as usize % shards.len()], key % ks, 0),
        Op::Put(r) => (
            &shards[(key / ks) as usize % shards.len()],
            key % ks,
            put_val(shared, key, r),
        ),
    }
}

/// Serve one request with spans around the store, runner and body layers.
fn serve_traced(shared: &Shared, th: &ThreadHandle, req: &Req, id: u64, rec: &mut Rec) {
    let t0 = Instant::now();
    let (shard, k, val) = route(shared, req);
    let attempts = &mut rec.attempts;
    let t1 = Instant::now();
    let got = th.tx(shard.lock()).run(|ctx| {
        let s = Instant::now();
        let r = body(shard, ctx, req.op, k, val, shared.total);
        attempts.push((s, Instant::now(), ctx.is_transactional()));
        r
    });
    let t2 = Instant::now();
    rec.finish(shared, req, got, (t2 - t0).as_nanos() as u64);
    rec.trace(req, id, "core.runner", [t0, t1, t2], 0);
}

fn client(shared: &Shared, c: usize, stop: &AtomicBool, traced: bool) -> Rec {
    let th = shared.sys.register();
    let stream = &shared.streams[c];
    let mut rec = Rec::default();
    let mut i = 0usize;
    // The flag publishes nothing but itself.
    while !stop.load(Ordering::Relaxed) {
        let req = &stream[i % stream.len()];
        if traced {
            serve_traced(shared, &th, req, ((c as u64) << 40) | i as u64, &mut rec);
        } else {
            serve(shared, &th, req, &mut rec);
        }
        i += 1;
    }
    rec
}

/// Poll `fut` to completion, counting polls into `polls` and turning a
/// panic into `None`.
async fn counted<F: Future>(fut: F, polls: &mut u64) -> Option<F::Output> {
    let mut fut = std::pin::pin!(fut);
    std::future::poll_fn(|cx| {
        *polls += 1;
        match std::panic::catch_unwind(AssertUnwindSafe(|| fut.as_mut().poll(cx))) {
            Ok(Poll::Ready(v)) => Poll::Ready(Some(v)),
            Ok(Poll::Pending) => Poll::Pending,
            Err(_) => Poll::Ready(None),
        }
    })
    .await
}

async fn serve_async(shared: &Shared, th: &ThreadHandle, req: &Req, rec: &mut Rec) {
    let key = u64::from(req.key);
    let start = Instant::now();
    let got = match req.op {
        Op::Get => shared.store.get_async(th, key).await,
        Op::Put(r) => {
            shared
                .store
                .put_async(th, key, put_val(shared, key, r))
                .await
        }
        Op::Hot => {
            let shard = &shared.store.shards()[0];
            th.tx(shard.lock())
                .run_async(|ctx| hot_body(shard, ctx, key, shared.total))
                .await
        }
    };
    rec.finish(shared, req, got, start.elapsed().as_nanos() as u64);
}

async fn serve_async_traced(shared: &Shared, th: &ThreadHandle, req: &Req, id: u64, rec: &mut Rec) {
    let t0 = Instant::now();
    let (shard, k, val) = route(shared, req);
    let attempts = &mut rec.attempts;
    let mut polls = 0;
    let t1 = Instant::now();
    let run = th.tx(shard.lock()).run_async(|ctx| {
        let s = Instant::now();
        let r = body(shard, ctx, req.op, k, val, shared.total);
        attempts.push((s, Instant::now(), ctx.is_transactional()));
        r
    });
    let got = counted(run, &mut polls).await.flatten();
    let t2 = Instant::now();
    rec.finish(shared, req, got, (t2 - t0).as_nanos() as u64);
    rec.trace(req, id, "core.runner_async", [t0, t1, t2], polls);
}

async fn session(
    shared: Arc<Shared>,
    th: Arc<ThreadHandle>,
    sid: usize,
    stop: Arc<AtomicBool>,
    traced: bool,
) -> Rec {
    let stream = &shared.streams[sid];
    let mut rec = Rec::default();
    let mut i = 0usize;
    while !stop.load(Ordering::Relaxed) {
        if traced {
            let due = Instant::now() + THINK;
            exec::sleep_until(due).await;
            let late = Instant::now().saturating_duration_since(due);
            rec.layers.wake_late.record(late.as_nanos() as u64);
        } else {
            exec::sleep(THINK).await;
        }
        let req = &stream[i % stream.len()];
        if traced {
            let id = ((sid as u64) << 40) | i as u64;
            serve_async_traced(&shared, &th, req, id, &mut rec).await;
        } else {
            serve_async(&shared, &th, req, &mut rec).await;
        }
        i += 1;
    }
    rec
}

/// What one closed-loop phase measured.
struct Phase {
    rec: Rec,
    logs: Vec<SpanLog>,
    secs: f64,
    /// Clients that panicked.
    lost: u64,
}

impl Phase {
    fn ops_per_s(&self) -> f64 {
        self.rec.done as f64 / self.secs
    }
}

fn gather(parts: Vec<Option<Rec>>, secs: f64) -> Phase {
    let mut rec = Rec::default();
    let mut logs = Vec::new();
    let mut lost = 0;
    for p in parts {
        match p {
            Some(mut r) => {
                rec.merge(&r);
                logs.push(std::mem::take(&mut r.spans));
            }
            None => lost += 1,
        }
    }
    Phase {
        rec,
        logs,
        secs,
        lost,
    }
}

fn closed_phase(w: Workload, shared: &Arc<Shared>, window: Duration, traced: bool) -> Phase {
    let stop = Arc::new(AtomicBool::new(false));
    let start = Instant::now();
    let parts: Vec<Option<Rec>> = if w == Workload::Async {
        let exec = Exec::new(EXEC_WORKERS);
        let handles: Vec<Arc<ThreadHandle>> = (0..EXEC_WORKERS)
            .map(|_| Arc::new(shared.sys.register()))
            .collect();
        let joins: Vec<_> = (0..SESSIONS)
            .map(|sid| {
                let (shared, stop) = (Arc::clone(shared), Arc::clone(&stop));
                let th = Arc::clone(&handles[sid % EXEC_WORKERS]);
                exec.spawn(async move {
                    let mut polls = 0;
                    counted(session(shared, th, sid, stop, traced), &mut polls).await
                })
            })
            .collect();
        exec.block_on(async {
            exec::sleep(window).await;
            stop.store(true, Ordering::Relaxed);
            let mut parts = Vec::new();
            for j in joins {
                parts.push(j.await);
            }
            parts
        })
    } else {
        std::thread::scope(|s| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let stop = &stop;
                    s.spawn(move || client(shared, c, stop, traced))
                })
                .collect();
            std::thread::sleep(window);
            stop.store(true, Ordering::Relaxed);
            clients.into_iter().map(|h| h.join().ok()).collect()
        })
    };
    gather(parts, start.elapsed().as_secs_f64())
}

/// One open-loop point of the latency-vs-load curve.
struct KneePoint {
    goodput: f64,
    lat: Hist,
    late: Hist,
    rec: Rec,
}

/// Open loop at `rate` requests/s split over the clients: request `j` of a
/// client is due at `t0 + j * CLIENTS / rate` whether or not earlier ones
/// have returned, and its latency runs from that due time.
fn knee_point(shared: &Shared, rate: f64, window: Duration) -> KneePoint {
    let gap = Duration::from_secs_f64(CLIENTS as f64 / rate);
    let t0 = Instant::now() + Duration::from_millis(5);
    let end = t0 + window;
    let parts: Vec<(Rec, Hist, Hist, Instant)> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let th = shared.sys.register();
                    let stream = &shared.streams[c];
                    let (mut rec, mut lat, mut late) =
                        (Rec::default(), Hist::default(), Hist::default());
                    let mut last = t0;
                    for j in 0.. {
                        let due = t0 + gap * j as u32;
                        if due >= end {
                            break;
                        }
                        while Instant::now() < due {
                            std::hint::spin_loop();
                        }
                        let sent = Instant::now();
                        late.record((sent - due).as_nanos() as u64);
                        serve(shared, &th, &stream[j % stream.len()], &mut rec);
                        last = Instant::now();
                        lat.record((last - due).as_nanos() as u64);
                    }
                    (rec, lat, late, last)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().expect("knee client panicked"))
            .collect()
    });
    let mut point = KneePoint {
        goodput: 0.0,
        lat: Hist::default(),
        late: Hist::default(),
        rec: Rec::default(),
    };
    let mut last = t0;
    for (rec, lat, late, l) in parts {
        point.rec.merge(&rec);
        point.lat.merge(&lat);
        point.late.merge(&late);
        last = last.max(l);
    }
    point.goodput = point.rec.done as f64 / (last - t0).as_secs_f64();
    point
}

/// End-of-run checks: node counts, every value against its key, the
/// store's sum and the hot region's sum against the PUT deltas. Returns
/// the number of failed checks.
fn verify(shared: &Shared, rec: &Rec, notes: &mut Vec<String>) -> u64 {
    let mut failed = 0;
    for (i, shard) in shared.store.shards().iter().enumerate() {
        let n = shard.len_direct() as u64;
        if n != shared.store.key_space() {
            notes.push(format!("FAIL shard {i} holds {n} keys"));
            failed += 1;
        }
    }
    let th = shared.sys.register();
    let (mut sum, mut hot_sum, mut missing) = (0u64, 0u64, 0u64);
    for k in 0..shared.total {
        match shared.store.get(&th, k) {
            Some(v) if v % shared.total == k => {
                sum = sum.wrapping_add(v);
                if k < HOT_REGION {
                    hot_sum = hot_sum.wrapping_add(v);
                }
            }
            _ => missing += 1,
        }
    }
    if missing > 0 {
        notes.push(format!(
            "FAIL {missing} keys missing or holding another key's value"
        ));
        failed += 1;
    }
    let base: u64 = (0..shared.total).fold(0, u64::wrapping_add);
    if sum != base.wrapping_add(rec.delta) {
        notes.push("FAIL store sum differs from the PUT deltas".into());
        failed += 1;
    }
    let hot_base: u64 = (0..HOT_REGION).sum();
    if hot_sum != hot_base.wrapping_add(rec.hot_delta) {
        notes.push("FAIL hot-key sum changed".into());
        failed += 1;
    }
    failed
}

fn us(h: &Hist, q: f64) -> f64 {
    h.quantile(q) / 1_000.0
}

fn per_k(count: u64, ops: u64) -> f64 {
    count as f64 * 1_000.0 / ops.max(1) as f64
}

fn ratio(a: u64, b: u64) -> f64 {
    a as f64 / b.max(1) as f64
}

/// Run workload `w` as `args` asks.
pub fn run(w: Workload, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut stores: Vec<Arc<Shared>> = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        let mut s = Shared::build(w, args.seed);
        setups.push(t.elapsed().as_secs_f64());
        if let Some(first) = stores.first() {
            // Same seed, same streams: keep one copy.
            s.streams = Arc::clone(&first.streams);
        }
        s.sys.reset_stats();
        stores.push(Arc::new(s));
    }
    tle_stm::reset_buf_alloc_stats();
    let setup_s = median(setups.clone());

    // Per-store totals, for each store's end-of-run checks.
    let mut totals: Vec<Rec> = stores.iter().map(|_| Rec::default()).collect();
    let mut lost = 0;
    if !args.trace {
        let mut slices = Slices::default();
        let mut samples = [0u64; 4];
        for i in 0..SLICES {
            let k = i % stores.len();
            let m = closed_phase(w, &stores[k], args.window() / SLICES as u32, false);
            let c = &m.rec.calls;
            slices.add("ops_per_s", m.ops_per_s());
            slices.add("mb_per_s", m.rec.bytes as f64 / m.secs / 1e6);
            slices.add("get_p50_us", us(&c.get, 0.50));
            slices.add("get_p99_us", us(&c.get, 0.99));
            slices.add("put_p50_us", us(&c.put, 0.50));
            slices.add("put_p99_us", us(&c.put, 0.99));
            slices.add("hot_p50_us", us(&c.hot, 0.50));
            slices.add("hot_p99_us", us(&c.hot, 0.99));
            slices.add("bystander_p99_us", us(&c.bystander, 0.99));
            for (n, h) in samples
                .iter_mut()
                .zip([&c.get, &c.put, &c.hot, &c.bystander])
            {
                *n += h.count();
            }
            totals[k].merge(&m.rec);
            lost += m.lost;
        }
        out.put("setup_s", setup_s);
        out.notes.push(format!(
            "samples: get={} put={} hot={} bystander={} over {SLICES} slices; setups {setups:?}",
            samples[0], samples[1], samples[2], samples[3]
        ));
        slices.report(&mut out);
    } else {
        let shared = &stores[0];
        // An untraced third of the window is the reference the tracing
        // overhead is measured against.
        let reference = closed_phase(w, shared, args.window() / 3, false);
        shared.sys.reset_stats();
        tle_stm::reset_buf_alloc_stats();
        let origin = Instant::now();
        let traced = closed_phase(w, shared, args.window() - args.window() / 3, true);
        let stats = shared.sys.domain_stats();
        let bufs = tle_stm::buf_alloc_stats();
        let l = &traced.rec.layers;
        let reqs = l.reqs;
        out.put("kv.self_ns", ratio(l.kv_self_ns, reqs));
        out.put("kv.body_ns", ratio(l.body_ns, l.body_n));
        out.put("kv.hot_body_ns", ratio(l.hot_body_ns, l.hot_body_n));
        let self_ns = ratio(l.runner_self_ns, reqs);
        out.put(
            if w == Workload::Async {
                "runner_async.self_ns"
            } else {
                "runner.self_ns"
            },
            self_ns,
        );
        let attempts_per_req = ratio(l.attempts, reqs);
        out.put("runner.attempts_per_req", attempts_per_req);
        out.put("runner.useful_frac", ratio(reqs, l.attempts));
        out.put("serial.req_frac", ratio(l.serial_reqs, reqs));
        out.put("serial.hold_ns", ratio(l.serial_hold_ns, l.serial_attempts));
        put_tm_stats(&mut out, &stats, bufs.fresh_allocs, reqs);
        if w == Workload::Async {
            out.put("runner_async.polls_per_req", ratio(l.polls, reqs));
            out.put("exec.wake_late_p50_ns", l.wake_late.quantile(0.50));
            out.put("exec.wake_late_p99_ns", l.wake_late.quantile(0.99));
        }
        let (rc, tc) = (&reference.rec.calls.all, &traced.rec.calls.all);
        out.put(
            "trace.overhead.ops_frac",
            1.0 - traced.ops_per_s() / reference.ops_per_s(),
        );
        out.put(
            "trace.overhead.call_p50_ns",
            tc.quantile(0.5) - rc.quantile(0.5),
        );
        let spans: u64 = traced.logs.iter().map(SpanLog::seen).sum();
        out.put("trace.spans", spans as f64);
        if w == Workload::Zipf {
            let sum = self_ns + ratio(l.body_ns, l.body_n) * attempts_per_req;
            let (call, mean) = (rc.quantile(0.5), rc.mean());
            out.put("recon.sum_ns", sum);
            out.put("recon.call_p50_ns", call);
            out.put("recon.residual_ns", call - sum);
            out.put("recon.call_mean_ns", mean);
            out.put("recon.residual_mean_ns", mean - sum);
            out.notes.push(format!(
                "reconciliation: runner.self_ns + kv.body_ns x attempts_per_req = {sum:.1} ns; \
                 untraced median call {call:.1} ns (residual {:.1} ns), untraced mean call \
                 {mean:.1} ns (residual {:.1} ns), traced mean call {:.1} ns",
                call - sum,
                mean - sum,
                tc.mean()
            ));
        }
        out.notes.push(format!(
            "traced {:.0} ops/s vs untraced {:.0} ops/s; {} requests traced",
            traced.ops_per_s(),
            reference.ops_per_s(),
            reqs
        ));
        totals[0].merge(&reference.rec);
        totals[0].merge(&traced.rec);
        lost += reference.lost + traced.lost;
        if w == Workload::Zipf {
            if args.knee_rates.is_empty() {
                out.notes
                    .push("FAIL kv-zipf traced run needs --knee-rates".into());
                out.failed += 1;
            }
            for (pct, &rate) in KNEE_PCTS.iter().zip(&args.knee_rates) {
                let p = knee_point(shared, rate, args.window() / 20);
                out.put(format!("knee{pct}.goodput_per_s"), p.goodput);
                out.put(format!("knee{pct}.p50_us"), us(&p.lat, 0.50));
                out.put(format!("knee{pct}.p99_us"), us(&p.lat, 0.99));
                out.put(format!("knee{pct}.gen_late_p99_us"), us(&p.late, 0.99));
                totals[0].merge(&p.rec);
            }
        }
        let path = args
            .out_dir
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match span::write_jsonl(&path, &args.fingerprint, origin, &traced.logs) {
            Ok(()) => out
                .notes
                .push(format!("spans written to {}", path.display())),
            Err(e) => out.notes.push(format!("spans not written: {e}")),
        }
    }
    let mut all = Rec::default();
    for t in &totals {
        all.merge(t);
    }
    if lost > 0 {
        out.notes.push(format!("FAIL {lost} clients panicked"));
    }
    if let Some(f) = &all.first_fail {
        out.notes.push(format!(
            "FAIL {} requests failed their check; first: {f}",
            all.failed
        ));
    }
    out.attempted = all.done + lost;
    out.failed += all.failed + lost;
    for (store, t) in stores.iter().zip(&totals) {
        out.failed += verify(store, t, &mut out.notes);
    }
    out
}

/// The serial, STM and HTM domain counters, per 1 000 operations.
pub fn put_tm_stats(out: &mut Outcome, s: &tle_core::DomainStats, fresh_allocs: u64, ops: u64) {
    out.put("serial.fallbacks", per_k(s.tle.serial_fallbacks, ops));
    out.put("serial.escalations", per_k(s.tle.escalations, ops));
    out.put("stm.commits", per_k(s.stm.commits, ops));
    for (name, cause) in [
        ("stm.aborts.read-conflict", AbortCause::ReadConflict),
        ("stm.aborts.write-conflict", AbortCause::WriteConflict),
        ("stm.aborts.validation", AbortCause::ValidationFailed),
        ("stm.aborts.commit-validation", AbortCause::CommitValidation),
    ] {
        out.put(name, per_k(s.stm.cause(cause), ops));
    }
    out.put("stm.quiesce.drains", per_k(s.stm.quiesces, ops));
    out.put("stm.quiesce.skipped", per_k(s.stm.quiesce_skipped, ops));
    out.put(
        "stm.quiesce.wait_ns_per_drain",
        ratio(s.stm.quiesce_wait_ns, s.stm.quiesces),
    );
    out.put("stm.buf.fresh_allocs", per_k(fresh_allocs, ops));
    out.put("htm.commits", per_k(s.htm.commits, ops));
    out.put(
        "htm.commit_frac",
        ratio(s.htm.commits, s.htm.commits + s.htm.aborts),
    );
    for (name, cause) in [
        ("htm.aborts.conflict", AbortCause::Conflict),
        ("htm.aborts.capacity", AbortCause::Capacity),
        ("htm.aborts.event", AbortCause::Event),
    ] {
        out.put(name, per_k(s.htm.cause(cause), ops));
    }
}
