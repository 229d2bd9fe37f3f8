//! The TLE execution engine: attempt → retry → backoff → serialize, written
//! once as an async state machine and driven by all four terminals.
//!
//! One ladder per algorithm family:
//! - [`run_locked`]: baseline pthread semantics (no elision);
//! - [`run_elided`]: software or simulated-hardware lock elision with
//!   bounded retries, randomized exponential backoff and an abort-storm
//!   escape into serial mode (the paper's hardware configuration retries
//!   twice, then takes the GCC-style global serial fallback);
//! - [`run_adaptive`]: glibc-style elision whose fallback is the lock
//!   itself, eager or lazy subscription;
//! - [`run_serial`]: the serial-irrevocable path shared by unsafe
//!   operations and the fallbacks.
//!
//! ## One ladder, two edges
//!
//! An atomic block never suspends mid-speculation: each *attempt* (begin →
//! closure → commit) is a plain synchronous call that starts and finishes
//! inside one `poll` — suspending with orecs or line claims held would pin
//! them across arbitrary scheduling delays (`tle-lint` rule R6 rejects
//! `.await` inside atomic-block closures for the same reason). The ladder
//! around the attempts is an `async fn`, and every point where it cannot
//! progress on its own — gate entry, condvar parks, quiescence drains,
//! backoff, lock-word waits, baseline mutex acquisition — goes through the
//! [`Edge`] parameter, chosen by the terminal:
//!
//! - [`Blocking`] (`run`/`try_run`): every edge completes inside the poll,
//!   blocking the OS thread the way a pthread program would, and
//!   [`tle_base::park::block_on`] drives the ladder inline — it never
//!   suspends, so the poller's no-wait fast path is the whole cost;
//! - [`Suspending`] (`run_async`/`try_run_async`): every edge that would
//!   block returns `Pending` with a re-armed waker instead.
//!
//! No transaction, context or lock guard is live across an `.await`, which
//! is also what makes the async futures `Send` without extra locking.
//!
//! ## Slots
//!
//! Sync sections run on the handle's own STM/HTM slots. Async sections do
//! **not**: one [`ThreadHandle`] may serve thousands of concurrent logical
//! sessions, and two simultaneous transactions publishing through one slot
//! would corrupt the quiescence protocol (and the HTM slot state outright).
//! Each async attempt claims a fresh slot pair ([`Slots`]) and releases it
//! once the attempt — plus its quiescence drain, which scans by slot index —
//! completes. Claims never span condvar waits, so parked sessions cannot
//! starve runnable ones out of slots; registry exhaustion backpressures with
//! an executor yield. Wait cancellation always takes a transient claim
//! without waiting (it may run from a dropped future on any thread sharing
//! the handle), falling back to the slot-free excluded removal.
//!
//! ## Per-lock modes and the epoch protocol
//!
//! Dispatch is on the lock's **resolved** mode (its per-lock override, else
//! the global mode), and the adaptive controller may flip that mode while
//! sections are anywhere in these loops. The flip itself runs under total
//! exclusion (serial gate + raw mutex + adaptive lock word — see
//! `TmSystem::flip_lock`), so correctness reduces to one invariant: *a
//! section must not complete under a stale mode after the flip finished*.
//! Each ladder therefore captures the lock's flip **epoch** at dispatch and
//! re-checks it immediately after taking its exclusion foothold — the
//! concurrent gate token (STM/HTM), the raw mutex (baseline), the serial
//! token (fallback), or the lock-word subscription/acquisition (adaptive
//! elision). While the foothold is held a flip cannot complete, so a
//! matching epoch stays matched; a mismatch unwinds the foothold and
//! returns [`Outcome::Redispatch`], and the outer loop in [`run`]
//! re-resolves the mode.
//!
//! ## Cancellation
//!
//! Dropping an async section between a committed wait registration and its
//! wakeup would abandon the ring entry (a later signal could then be
//! consumed by the ghost waiter). [`WaitEntryGuard`] removes the entry
//! synchronously when a suspended wait is dropped, so a later signal always
//! reaches a live waiter. See DESIGN.md §16.

use crate::condvar::{TxCondvar, Waiter};
use crate::ctx::{CtxKind, Defers, PendingWait, RawWaiter, TxCtx, TxError};
use crate::domain::AdmissionStep;
use crate::elide::ElidableMutex;
use crate::system::{AlgoMode, ThreadHandle, TmSystem};
use parking_lot::MutexGuard;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::task::Poll;
use std::time::{Duration, Instant};
use tle_base::exec;
use tle_base::fault::{self, Hazard};
use tle_base::gate::{ConcurrentToken, SerialToken};
use tle_base::history;
use tle_base::mutant::{self, Mutant};
use tle_base::park;
use tle_base::rng::splitmix64;
use tle_base::sched::{self, YieldPoint};
use tle_base::trace::{self, TraceKind, TxMode};
use tle_base::{AbortCause, Gate, TCell};
use tle_htm::HtmGlobal;
use tle_stm::{QuiesceTicket, SoftTx};

/// Spins before a blocking lock-word wait starts yielding its OS thread.
const SPIN_LIMIT: u32 = 64;

/// Exponential-backoff ceiling (spins) between retries (see [`backoff`]).
const BACKOFF_CEILING: u64 = 1 << 12;

/// A commit's quiescence drain: the wait already spent (ns), plus the
/// ticket of a drain still to run (async STM commits only).
type Drain = (u64, Option<QuiesceTicket>);

/// Take the value an edge method hands over now, or await the wait it
/// returned instead (only ever taken under [`Suspending`]).
macro_rules! now_or_wait {
    ($edge:expr) => {
        'now: {
            // The `Result` must be gone before the `.await`: its `Ok` type
            // (a mutex guard, say) would otherwise count as held across it
            // and make the async terminals' futures non-`Send`.
            let wait = match $edge {
                Ok(now) => break 'now now,
                Err(wait) => wait,
            };
            wait.await
        }
    };
}

/// How the ladder waits at each edge where it cannot make progress on its
/// own — the one parameter that differs between the sync and async
/// terminals (DESIGN.md §16 tabulates the pairs). Edges on the common path
/// return `Ok` with their value when they have it now (always, under
/// [`Blocking`]) and `Err` with the wait to await otherwise, so the sync
/// terminals never pay for an `.await`; edges off the common path are
/// plain `async fn`s.
pub(crate) trait Edge {
    /// Baseline waits enqueue in the transactional ring (and release the
    /// mutex before parking) rather than sleeping on the native condvar
    /// under the held mutex.
    const RING_WAITS: bool;
    /// The slot pair one attempt runs on.
    fn slots(th: &ThreadHandle) -> Result<Slots<'_>, impl Future<Output = Slots<'_>>>;
    fn enter_concurrent(
        gate: &Gate,
    ) -> Result<ConcurrentToken<'_>, impl Future<Output = ConcurrentToken<'_>>>;
    fn enter_serial(gate: &Gate) -> Result<SerialToken<'_>, impl Future<Output = SerialToken<'_>>>;
    fn lock_raw(
        lock: &ElidableMutex,
    ) -> Result<MutexGuard<'_, ()>, impl Future<Output = MutexGuard<'_, ()>>>;
    /// Commit a software transaction (synchronous, inside the attempt).
    fn commit_stm(tx: SoftTx<'_>) -> Result<Drain, AbortCause>;
    /// Wait for a committed registration's signal; `false` on timeout.
    async fn park(w: &Waiter, timeout: Option<Duration>) -> bool;
    /// Randomized backoff between attempts (see [`backoff`]).
    async fn backoff(salt: usize, attempts: u32, consec: u32);
    /// Let the thread this section waits on run (lock-word spins, spin-mode
    /// polling); `spins` counts the rounds waited so far.
    async fn pause(spins: u32);
    /// Doom every transaction subscribed to `cell`'s line.
    async fn invalidate(htm: &HtmGlobal, cell: &TCell<bool>);
    /// Doom every active transaction (the lazy lock path's sweep).
    async fn doom_all_active(htm: &HtmGlobal);
}

/// The sync terminals' edge: every wait blocks the OS thread inside the
/// poll, so the ladder runs to completion in one poll.
pub(crate) struct Blocking;

/// A [`Blocking`] edge's answer: always available now, so its wait type is
/// one that is never awaited.
fn now<T>(value: T) -> Result<T, std::future::Pending<T>> {
    Ok(value)
}

impl Edge for Blocking {
    const RING_WAITS: bool = false;

    fn slots(th: &ThreadHandle) -> Result<Slots<'_>, impl Future<Output = Slots<'_>>> {
        now(Slots {
            stm: th.stm_slot,
            htm: th.htm_slot,
            claim: None,
        })
    }

    fn enter_concurrent(
        gate: &Gate,
    ) -> Result<ConcurrentToken<'_>, impl Future<Output = ConcurrentToken<'_>>> {
        now(gate.enter_concurrent())
    }

    fn enter_serial(gate: &Gate) -> Result<SerialToken<'_>, impl Future<Output = SerialToken<'_>>> {
        now(gate.enter_serial())
    }

    fn lock_raw(
        lock: &ElidableMutex,
    ) -> Result<MutexGuard<'_, ()>, impl Future<Output = MutexGuard<'_, ()>>> {
        // The thread may park in the OS here, and the holder needs to run.
        sched::block_enter();
        let guard = lock.raw().lock();
        sched::block_exit();
        now(guard)
    }

    fn commit_stm(tx: SoftTx<'_>) -> Result<Drain, AbortCause> {
        tx.commit().map(|info| (info.quiesce_wait_ns, None))
    }

    async fn park(w: &Waiter, timeout: Option<Duration>) -> bool {
        w.wait(timeout)
    }

    async fn backoff(salt: usize, attempts: u32, consec: u32) {
        backoff(salt, attempts, consec);
    }

    async fn pause(spins: u32) {
        if spins < SPIN_LIMIT {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }

    async fn invalidate(htm: &HtmGlobal, cell: &TCell<bool>) {
        htm.invalidate(cell);
    }

    async fn doom_all_active(htm: &HtmGlobal) {
        htm.doom_all_active();
    }
}

/// The async terminals' edge: every wait that would block returns
/// `Pending` and re-arms a waker; an executor worker never parks in the OS
/// (`tle_base::park` asserts this under the waker backend).
pub(crate) struct Suspending;

impl Edge for Suspending {
    const RING_WAITS: bool = true;

    fn slots(th: &ThreadHandle) -> Result<Slots<'_>, impl Future<Output = Slots<'_>>> {
        Slots::try_claim(&th.sys).ok_or(async move {
            // Registry exhausted: yield until a claim frees up.
            loop {
                exec::yield_now().await;
                if let Some(slots) = Slots::try_claim(&th.sys) {
                    return slots;
                }
            }
        })
    }

    fn enter_concurrent(
        gate: &Gate,
    ) -> Result<ConcurrentToken<'_>, impl Future<Output = ConcurrentToken<'_>>> {
        Err(gate.enter_concurrent_async())
    }

    fn enter_serial(gate: &Gate) -> Result<SerialToken<'_>, impl Future<Output = SerialToken<'_>>> {
        Err(gate.enter_serial_async())
    }

    fn lock_raw(
        lock: &ElidableMutex,
    ) -> Result<MutexGuard<'_, ()>, impl Future<Output = MutexGuard<'_, ()>>> {
        lock.raw().try_lock().ok_or(async move {
            loop {
                sched::spin_hint(YieldPoint::LockWord);
                exec::yield_now().await;
                if let Some(guard) = lock.raw().try_lock() {
                    return guard;
                }
            }
        })
    }

    fn commit_stm(tx: SoftTx<'_>) -> Result<Drain, AbortCause> {
        tx.commit_publish()
            .map(|(info, ticket)| (info.quiesce_wait_ns, ticket))
    }

    async fn park(w: &Waiter, timeout: Option<Duration>) -> bool {
        // A timed wait races the signal against an executor timer; on the
        // timeout edge the signal flag disambiguates (a notify that landed
        // before the timer fired counts as signalled).
        let mut sleep = timeout.map(|t| exec::sleep_until(Instant::now() + t));
        std::future::poll_fn(|cx| {
            if w.poll_signaled(cx).is_ready() {
                return Poll::Ready(true);
            }
            match sleep.as_mut() {
                Some(s) => Pin::new(s).poll(cx).map(|()| w.is_signaled()),
                None => Poll::Pending,
            }
        })
        .await
    }

    async fn backoff(salt: usize, attempts: u32, consec: u32) {
        // The bounded spin stays inside one poll; the yield hands the
        // worker to co-scheduled tasks, possibly the conflicting one.
        backoff(salt, attempts, consec);
        exec::yield_now().await;
    }

    async fn pause(_spins: u32) {
        exec::yield_now().await;
    }

    async fn invalidate(htm: &HtmGlobal, cell: &TCell<bool>) {
        // Yield while a victim is past its commit point.
        while !htm.try_invalidate(cell) {
            sched::spin_hint(YieldPoint::LockWord);
            exec::yield_now().await;
        }
    }

    async fn doom_all_active(htm: &HtmGlobal) {
        while !htm.try_doom_all_active() {
            sched::spin_hint(YieldPoint::LockWord);
            exec::yield_now().await;
        }
    }
}

/// The STM + HTM slot pair an attempt runs on. A transient claim (`claim`
/// set) returns both slots to the registries on drop; the handle's own
/// pair is only borrowed.
pub(crate) struct Slots<'s> {
    stm: usize,
    htm: usize,
    claim: Option<&'s TmSystem>,
}

impl<'s> Slots<'s> {
    /// Claim a transient pair without waiting; `None` while either registry
    /// is exhausted.
    fn try_claim(sys: &'s TmSystem) -> Option<Self> {
        let stm = sys.stm.slots.register_raw()?;
        match sys.htm.slots.register_raw() {
            Some(htm) => Some(Slots {
                stm,
                htm,
                claim: Some(sys),
            }),
            None => {
                sys.stm.slots.unregister_raw(stm);
                None
            }
        }
    }
}

impl Drop for Slots<'_> {
    #[inline]
    fn drop(&mut self) {
        if let Some(sys) = self.claim {
            sys.stm.slots.unregister_raw(self.stm);
            sys.htm.slots.unregister_raw(self.htm);
        }
    }
}

/// What a per-mode ladder produced: a finished section, a request to
/// re-resolve the lock's mode because a flip landed mid-attempt, or an
/// abandoned section (deadline expiry / shed; fallible terminals only).
enum Outcome<R> {
    Done(R),
    Redispatch,
    Expired(TxError),
}

/// What a serial or lock-path run produced.
enum SerialOutcome<R> {
    Done(R),
    /// The section waited on a condvar; re-run concurrently.
    Retry,
    /// A mode flip landed before the exclusion foothold; re-resolve.
    Redispatch,
}

/// How a committed body ended: `Ok` with its result, or `Err` with the
/// wait registration to park on before the section re-runs.
type Finish<'a, R> = Result<R, PendingWait<'a>>;

/// What one synchronous transactional attempt produced.
enum TxStep<'a, R> {
    /// Committed; drain, run the defers, then finish.
    Committed(Finish<'a, R>, Drain, Defers),
    /// The attempt aborted; retry with backoff.
    Abort(AbortCause),
    /// Unsafe operation: serialize.
    Unsafe,
    /// The closure manufactured a runner-level error.
    RunnerErr(TxError),
}

/// An adaptive attempt: the lock-word prologue's own exits, or the attempt.
enum AdaptiveStep<'a, R> {
    /// The subscribed lock word read held: retry without backoff.
    Held,
    Redispatch,
    Tx(TxStep<'a, R>),
}

/// Which transactional flavour [`run_elided`] speculates with.
#[derive(Clone, Copy)]
enum Spec {
    Stm { spin: bool },
    Htm,
}

/// The section's time budget and whether the caller can observe errors.
///
/// `deadline` is the absolute expiry computed once at section entry from
/// [`TxRequest::deadline`](crate::TxRequest::deadline). `fallible` is true
/// under the `try_*` terminals: expiry (and admission shedding) then
/// surface as `Err`; under the infallible ones they instead force the
/// serial path, which bounds retry time without inventing an error the
/// caller cannot see.
#[derive(Clone, Copy)]
struct Budget {
    deadline: Option<Instant>,
    fallible: bool,
}

impl Budget {
    #[inline]
    fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Run one critical section: the whole ladder, from admission to the last
/// deferred action. The sync terminals poll it inline with [`Blocking`];
/// the async ones await it with [`Suspending`].
pub(crate) async fn run<'a, E: Edge, R, F>(
    th: &'a ThreadHandle,
    lock: &'a ElidableMutex,
    deadline: Option<Duration>,
    mut f: F,
    fallible: bool,
) -> Result<R, TxError>
where
    F: FnMut(&mut TxCtx<'a>) -> Result<R, TxError>,
{
    let f = &mut f;
    // One critical section = one logical operation on the fault oracle's
    // lane clock (no-op load when injection is off).
    fault::tick();
    // Panic safety: unwinding out of `f` already rolls back speculative
    // state (the context's transaction drops → undo log replayed, orecs
    // released; gate tokens drop → serial/concurrent permits returned).
    // What unwinding cannot restore is *application* invariants spanning
    // critical sections, so flag the lock for survivors to inspect.
    let _poison = PoisonOnPanic(lock);
    // The queue-depth gauge brackets the whole dispatch (shed decisions
    // included — a shed request spent time in the queue too), and stays
    // balanced on every exit path, a dropped async section included.
    lock.domain().enter_queue();
    let _dequeue = QueueExitOnDrop(lock);
    let budget = Budget {
        deadline: deadline.map(|d| Instant::now() + d),
        fallible,
    };
    loop {
        let epoch = lock.domain().epoch();
        let mode = lock.resolved_mode(th.sys.mode());
        // Admission ladder (only meaningful for transactional modes: the
        // lock-based modes already serialize through a real mutex, and the
        // serial path below would not exclude them). Serialize routes the
        // section straight to the serial gate — speculation is known-wasted
        // work; Shed refuses fallible sections outright and serializes
        // infallible ones (which cannot observe `Overloaded`).
        if mode.is_transactional() && !mode.is_glibc_family() && th.sys.admission_enabled() {
            let step = lock.domain().admission_step();
            if step != AdmissionStep::Elide {
                if fallible && step == AdmissionStep::Shed {
                    let depth = lock.domain().queue_depth();
                    th.sys.stats.sheds.inc(th.stm_slot);
                    trace::emit(TraceKind::Shed, TxMode::Serial, None, depth);
                    return Err(TxError::Overloaded);
                }
                trace::emit(TraceKind::Fallback, TxMode::Serial, None, 0);
                match run_serial::<E, _, _>(th, lock, epoch, budget.deadline, f).await {
                    SerialOutcome::Done(r) => return Ok(r),
                    SerialOutcome::Retry | SerialOutcome::Redispatch => continue,
                }
            }
        }
        // Deadline gate at dispatch: a fallible section whose budget is
        // already spent fails fast before any speculation.
        if budget.fallible && budget.expired() {
            return Err(deadline_exceeded(th, TxMode::Serial, 0));
        }
        let outcome = match mode {
            AlgoMode::Baseline => run_locked::<E, _, _>(th, lock, epoch, budget.deadline, f).await,
            AlgoMode::StmSpin | AlgoMode::StmCondvar | AlgoMode::StmCondvarNoQuiesce => {
                let spec = Spec::Stm {
                    spin: mode == AlgoMode::StmSpin,
                };
                run_elided::<E, _, _>(th, lock, epoch, budget, f, spec).await
            }
            AlgoMode::HtmCondvar => {
                run_elided::<E, _, _>(th, lock, epoch, budget, f, Spec::Htm).await
            }
            // The glibc family: AdaptiveHtm and the lazy variants.
            _ => run_adaptive::<E, _, _>(th, lock, epoch, budget, f, mode).await,
        };
        match outcome {
            Outcome::Done(r) => return Ok(r),
            Outcome::Redispatch => continue,
            Outcome::Expired(e) => return Err(e),
        }
    }
}

/// Count and trace a fallible section's spent budget.
fn deadline_exceeded(th: &ThreadHandle, mode: TxMode, attempts: u32) -> TxError {
    th.sys.stats.deadline_exceeded.inc(th.stm_slot);
    trace::emit(TraceKind::DeadlineExceeded, mode, None, attempts as u64);
    TxError::DeadlineExceeded
}

/// Propagate a closure-raised `DeadlineExceeded`/`Overloaded` out of a
/// concurrent attempt: fallible terminals surface it, the infallible ones
/// have no error channel and must refuse loudly.
fn propagate_runner_error<R>(budget: Budget, e: TxError) -> Outcome<R> {
    if budget.fallible {
        Outcome::Expired(e)
    } else {
        panic!(
            "{e:?} returned from a closure run by an infallible terminal; \
             use tx(lock).try_run or try_run_async to observe deadline/shed errors"
        )
    }
}

// `run_body`, `attempt`, `commit`, `abort` and `finish` are
// `#[inline(always)]`: the sync terminals run them inside a single poll of
// the ladder, and out of line they cost a measurable share of a short
// section.

/// Run the body once over `kind` and take the context apart: the result,
/// the kind (transaction or guard) and what the body queued. The nest
/// guard covers only the body call — the one scope that survives
/// suspension, and it leaves post-commit defers free to open sections of
/// their own.
#[inline(always)]
fn run_body<'a, E: Edge, R, F>(
    lock: &ElidableMutex,
    deadline: Option<Instant>,
    kind: CtxKind<'a>,
    f: &mut F,
) -> (
    Result<R, TxError>,
    CtxKind<'a>,
    Defers,
    Option<PendingWait<'a>>,
)
where
    F: FnMut(&mut TxCtx<'a>) -> Result<R, TxError>,
{
    let mut ctx = TxCtx::new(kind);
    ctx.deadline = deadline;
    ctx.async_waits = E::RING_WAITS;
    let res = {
        let _nest = NestGuard::enter(lock);
        f(&mut ctx)
    };
    let TxCtx {
        kind,
        defers,
        pending_wait,
        ..
    } = ctx;
    (res, kind, defers, pending_wait)
}

/// One synchronous transactional attempt over `kind` (nothing in here
/// suspends). `precommit` runs immediately before the commit point — the
/// lazy-subscription check; a no-op elsewhere.
#[inline(always)]
fn attempt<'a, E: Edge, R, F>(
    lock: &ElidableMutex,
    deadline: Option<Instant>,
    kind: CtxKind<'a>,
    precommit: impl FnOnce() -> Result<(), AbortCause>,
    f: &mut F,
) -> TxStep<'a, R>
where
    F: FnMut(&mut TxCtx<'a>) -> Result<R, TxError>,
{
    let (res, kind, defers, mut pending_wait) = run_body::<E, _, _>(lock, deadline, kind, f);
    let fin = match settle(res, &mut pending_wait) {
        Ok(fin) => fin,
        Err(e) => {
            abort(
                kind,
                match e {
                    TxError::Abort(c) => c,
                    _ => AbortCause::Explicit,
                },
            );
            if let Some(pw) = pending_wait {
                reclaim_enqueue_ref(&pw);
            }
            return match e {
                TxError::Abort(AbortCause::Unsafe) => TxStep::Unsafe,
                TxError::Abort(c) => TxStep::Abort(c),
                // The closure manufactured a runner-level error; the
                // attempt is rolled back and the ladder propagates it.
                e => TxStep::RunnerErr(e),
            };
        }
    };
    match commit::<E>(kind, precommit) {
        Ok(drain) => TxStep::Committed(fin, drain, defers),
        Err(cause) => {
            if let Err(pw) = &fin {
                reclaim_enqueue_ref(pw);
            }
            TxStep::Abort(cause)
        }
    }
}

/// Commit an attempt's transaction, `precommit` first.
#[inline(always)]
fn commit<E: Edge>(
    kind: CtxKind<'_>,
    precommit: impl FnOnce() -> Result<(), AbortCause>,
) -> Result<Drain, AbortCause> {
    if let Err(cause) = precommit() {
        abort(kind, cause);
        return Err(cause);
    }
    match kind {
        CtxKind::Stm { tx, .. } => E::commit_stm(tx),
        CtxKind::Htm { tx } => tx.commit().map(|()| (0, None)),
        _ => unreachable!("context kind changed mid-transaction"),
    }
}

#[inline(always)]
fn abort(kind: CtxKind<'_>, cause: AbortCause) {
    match kind {
        CtxKind::Stm { tx, .. } => tx.abort(cause),
        CtxKind::Htm { tx } => tx.abort(cause),
        _ => unreachable!("context kind changed mid-transaction"),
    }
}

/// Split a body's result: how it finished (`Ok`), or the error that ends
/// the attempt (`Err`; a wait registration made before it stays in
/// `pending_wait` for the caller to reclaim after the abort).
fn settle<'a, R>(
    res: Result<R, TxError>,
    pending_wait: &mut Option<PendingWait<'a>>,
) -> Result<Finish<'a, R>, TxError> {
    match res {
        Ok(r) => {
            debug_assert!(pending_wait.is_none(), "wait() result must be propagated");
            Ok(Ok(r))
        }
        Err(TxError::Wait) => Ok(Err(pending_wait
            .take()
            .expect("Wait reported without a wait request"))),
        Err(e) => Err(e),
    }
}

/// Classify an irrevocable body's result (serial, lock path, baseline): it
/// can only finish or wait — an abort or runner error cannot be undone.
fn irrevocable<'a, R>(
    res: Result<R, TxError>,
    mut pending_wait: Option<PendingWait<'a>>,
    held: &str,
) -> Finish<'a, R> {
    match settle(res, &mut pending_wait) {
        Ok(fin) => fin,
        Err(TxError::Abort(c)) => {
            panic!("operation aborted ({c}) {held}: effects cannot be undone")
        }
        Err(e) => panic!("{e:?} raised {held}: effects cannot be undone"),
    }
}

/// The post-commit tail every path shares: run the deferred actions, then
/// hand back the section's result — or the committed wait registration to
/// park on ([`block_on`]) before the section re-runs.
#[inline(always)]
fn finish<'a, R>(fin: Finish<'a, R>, defers: Defers) -> Finish<'a, R> {
    for d in defers {
        d();
    }
    fin
}

/// Run a published commit's quiescence drain, one slot sweep per poll;
/// returns the drain wait in nanoseconds. The transaction is already
/// visible — the drain only delays *this caller* until concurrent readers
/// of the pre-commit state are done (privatization safety), so suspending
/// between sweeps is sound. Sync commits drain inline and hand back no
/// ticket.
async fn drain_ticket(sys: &TmSystem, mut t: QuiesceTicket) -> u64 {
    loop {
        if let Some(info) = sys.stm.quiesce_pass(&mut t) {
            return info.quiesce_wait_ns;
        }
        exec::yield_now().await;
    }
}

/// Software or simulated-hardware elision: retry within the budget (the
/// paper's hardware configuration: "fall back to a serial mode after
/// hardware transactions fail twice"), back off between attempts, then
/// serialize.
async fn run_elided<'a, E: Edge, R, F>(
    th: &'a ThreadHandle,
    lock: &'a ElidableMutex,
    epoch: u64,
    budget: Budget,
    f: &mut F,
    spec: Spec,
) -> Outcome<R>
where
    F: FnMut(&mut TxCtx<'a>) -> Result<R, TxError>,
{
    let sys = &*th.sys;
    let (retries, tx_mode, salt) = match spec {
        Spec::Stm { .. } => (sys.policy().stm_retries, TxMode::Stm, th.stm_slot),
        Spec::Htm => (sys.policy().htm_retries, TxMode::Htm, th.htm_slot),
    };
    let mut attempts: u32 = 0;
    loop {
        // Deadline gate before every retry tier and before serial-gate
        // entry: a fallible section surfaces the expiry; an infallible one
        // stops retrying and serializes (bounded retry time either way).
        let deadline_up = budget.expired();
        if deadline_up && budget.fallible {
            return Outcome::Expired(deadline_exceeded(th, tx_mode, attempts));
        }
        // Serialize when this section's retry budget is spent, when the
        // cross-section starvation ladder fires, or when the fault oracle
        // storms the gate (short-circuit order keeps the ladder and oracle
        // unconsulted once the budget alone decides).
        if attempts >= retries || deadline_up || escalation_due(th) || serial_storm_due() {
            trace::emit(TraceKind::Fallback, TxMode::Serial, None, attempts as u64);
        } else {
            let token = now_or_wait!(E::enter_concurrent(&sys.gate));
            // The concurrent token is the foothold: a flip's serial entry
            // drains it, so a matching epoch holds until the token drops.
            if lock.domain().epoch() != epoch {
                return Outcome::Redispatch;
            }
            let slots = now_or_wait!(E::slots(th));
            let kind = match spec {
                Spec::Stm { spin } => {
                    let mut tx = sys.stm.begin_soft(slots.stm);
                    // Per-lock TM_NoQuiesce opt-in (strictly an application
                    // contract; see TmSystem::set_lock_no_quiesce).
                    if lock.is_no_quiesce() {
                        tx.no_quiesce();
                    }
                    tx.set_deadline(budget.deadline);
                    CtxKind::Stm {
                        tx,
                        spin_waits: spin,
                    }
                }
                Spec::Htm => CtxKind::Htm {
                    tx: sys.htm.begin(slots.htm),
                },
            };
            match attempt::<E, _, _>(lock, budget.deadline, kind, || Ok(()), f) {
                TxStep::Committed(fin, (wait_ns, ticket), defers) => {
                    let wait_ns = match ticket {
                        Some(t) => drain_ticket(sys, t).await,
                        None => wait_ns,
                    };
                    th.consec_aborts.store(0, Ordering::Relaxed);
                    lock.domain().window.record_commit(wait_ns);
                    drop(slots);
                    drop(token);
                    let pw = match finish(fin, defers) {
                        Ok(r) => return Outcome::Done(r),
                        Err(pw) => pw,
                    };
                    attempts = 0;
                    block_on::<E>(th, lock, pw).await;
                    continue;
                }
                TxStep::Abort(cause) => {
                    drop(slots);
                    drop(token);
                    attempts += 1;
                    note_abort(th);
                    lock.domain().window.record_abort(cause);
                    trace::emit(TraceKind::Retry, tx_mode, Some(cause), attempts as u64);
                    E::backoff(salt, attempts, th.consecutive_aborts()).await;
                    continue;
                }
                TxStep::RunnerErr(e) => return propagate_runner_error(budget, e),
                TxStep::Unsafe => {
                    drop(slots);
                    drop(token);
                    trace::emit(
                        TraceKind::Fallback,
                        TxMode::Serial,
                        Some(AbortCause::Unsafe),
                        attempts as u64,
                    );
                    // Fall through to the serial path.
                }
            }
        }
        match run_serial::<E, _, _>(th, lock, epoch, budget.deadline, f).await {
            SerialOutcome::Done(r) => return Outcome::Done(r),
            SerialOutcome::Retry => attempts = 0,
            SerialOutcome::Redispatch => return Outcome::Redispatch,
        }
    }
}

/// The serial-irrevocable path: the section runs alone, with direct access.
async fn run_serial<'a, E: Edge, R, F>(
    th: &'a ThreadHandle,
    lock: &'a ElidableMutex,
    epoch: u64,
    deadline: Option<Instant>,
    f: &mut F,
) -> SerialOutcome<R>
where
    F: FnMut(&mut TxCtx<'a>) -> Result<R, TxError>,
{
    let sys = &*th.sys;
    // Unwind/cancel audit: `SerialToken` releases the gate in its `Drop`
    // impl, so a panic inside `f` — or an async section dropped while it
    // waits — reopens the gate; the binding itself is the unwind guard.
    // Without that, one panicking serial section would wedge every thread
    // forever (the gate bit would stay set). The
    // `serial_gate_reopens_after_panic` regression test pins this; the same
    // audit covers the concurrent tokens and `remove_waiter_excluded`.
    let token = now_or_wait!(E::enter_serial(&sys.gate));
    // The serial token is the foothold: a flip needs the gate too.
    if lock.domain().epoch() != epoch {
        return SerialOutcome::Redispatch;
    }
    history::begin(TxMode::Serial);
    // The budget still clamps condvar waits here, but cannot abort the
    // section: serial effects are irrevocable.
    let (res, _, defers, pending_wait) = run_body::<E, _, _>(lock, deadline, CtxKind::Serial, f);
    sys.stats.serial_fallbacks.inc(th.stm_slot);
    lock.domain().window.record_serial();
    let fin = irrevocable(res, pending_wait, "in serial-irrevocable mode");
    sys.stats.commits.inc(th.stm_slot);
    trace::emit(TraceKind::Commit, TxMode::Serial, None, 0);
    // Recorded before the serial token drops: nothing else runs inside the
    // hold window.
    history::commit();
    drop(token);
    match finish(fin, defers) {
        Ok(r) => SerialOutcome::Done(r),
        Err(pw) => {
            block_on::<E>(th, lock, pw).await;
            SerialOutcome::Retry
        }
    }
}

/// Baseline: the real mutex, no elision.
async fn run_locked<'a, E: Edge, R, F>(
    th: &'a ThreadHandle,
    lock: &'a ElidableMutex,
    epoch: u64,
    deadline: Option<Instant>,
    f: &mut F,
) -> Outcome<R>
where
    F: FnMut(&mut TxCtx<'a>) -> Result<R, TxError>,
{
    sched::yield_point(YieldPoint::LockWord);
    loop {
        // The guard lives in this block only: it must never cross an await.
        let (fin, defers) = {
            let mut guard = now_or_wait!(E::lock_raw(lock));
            // The raw mutex is the foothold: a flip acquires it too, so a
            // matching epoch here cannot change until we release.
            if lock.domain().epoch() != epoch {
                return Outcome::Redispatch;
            }
            loop {
                history::begin(TxMode::Locked);
                let kind = CtxKind::Locked { guard: Some(guard) };
                let (res, kind, defers, pending_wait) =
                    run_body::<E, _, _>(lock, deadline, kind, f);
                guard = match kind {
                    CtxKind::Locked { guard: Some(g) } => g,
                    _ => unreachable!("baseline context lost its guard"),
                };
                let fin = irrevocable(res, pending_wait, "while holding the baseline lock");
                // Commit event while the mutex is still held: the section's
                // serialization point is the whole hold window (for a
                // section that waits, the wait itself).
                history::commit();
                match fin {
                    Err(pw) if !E::RING_WAITS => {
                        // The native channel: deferred actions run now,
                        // still holding the lock like the original pthread
                        // program would, then the wait atomically releases
                        // and sleeps.
                        for d in defers {
                            d();
                        }
                        sched::block_enter();
                        pw.cv.native_wait(&mut guard, pw.timeout);
                        sched::block_exit();
                        // The wait released the mutex while parked; a flip
                        // may have completed in between.
                        if lock.domain().epoch() != epoch {
                            return Outcome::Redispatch;
                        }
                    }
                    Ok(r) => {
                        lock.domain().window.record_serial();
                        break (Ok(r), defers);
                    }
                    // A ring wait (async terminals) parks with the mutex
                    // released.
                    fin => break (fin, defers),
                }
            }
        };
        match finish(fin, defers) {
            Ok(r) => return Outcome::Done(r),
            Err(pw) => block_on::<E>(th, lock, pw).await,
        }
        // Released across the wait: a flip may have completed.
        if lock.domain().epoch() != epoch {
            return Outcome::Redispatch;
        }
    }
}

/// glibc-style adaptive lock elision (extension; see
/// [`AlgoMode::AdaptiveHtm`]). Differences from the TMTS-style HTM ladder:
/// the transaction **subscribes to the lock word** as its first read, the
/// fallback is **the lock itself** (global concurrency is unaffected), and
/// repeated failures set a per-lock skip counter so hopeless locks stop
/// being elided for a while.
///
/// The lazy modes ([`AlgoMode::AdaptiveHtmLazy`],
/// [`AlgoMode::AdaptiveHtmLazyUnsafe`]) keep the lock word out of the read
/// set entirely: subscription moves to [`lazy_precommit_gate`], begin
/// captures (and, in the safe variant, refuses an odd) acquisition seqlock,
/// and the lock path dooms all active transactions instead of invalidating
/// one line. See DESIGN.md §17 for the hazard catalog this ordering defeats.
async fn run_adaptive<'a, E: Edge, R, F>(
    th: &'a ThreadHandle,
    lock: &'a ElidableMutex,
    epoch: u64,
    budget: Budget,
    f: &mut F,
    mode: AlgoMode,
) -> Outcome<R>
where
    F: FnMut(&mut TxCtx<'a>) -> Result<R, TxError>,
{
    /// glibc's skip_lock_internal_abort analogue.
    const SKIP_AFTER_FAILURE: u32 = 3;
    let sys = &*th.sys;
    let htm_retries = sys.policy().htm_retries;
    let mut attempts: u32 = 0;
    loop {
        // This loop holds no exclusion between iterations, so a flip can
        // complete anywhere in it; cheap check before each attempt.
        if lock.domain().epoch() != epoch {
            return Outcome::Redispatch;
        }
        // Deadline gate before every retry tier: a spent budget either
        // surfaces (fallible) or stops speculating and takes the lock path
        // (glibc elision's analogue of the serial fallback).
        let deadline_up = budget.expired();
        if deadline_up && budget.fallible {
            return Outcome::Expired(deadline_exceeded(th, TxMode::Htm, attempts));
        }
        if lock.consume_skip() || attempts >= htm_retries || deadline_up {
            if attempts >= htm_retries {
                lock.set_skip(SKIP_AFTER_FAILURE);
                sys.stats.serial_fallbacks.inc(th.stm_slot);
            }
            trace::emit(TraceKind::Fallback, TxMode::Locked, None, attempts as u64);
        } else {
            if !mode.is_lazy() {
                // Don't even start while the lock is held (glibc spins
                // outside the transaction for the same reason: an immediate
                // subscription abort is wasted work). The lazy modes skip
                // this — not touching the lock word before commit is their
                // point.
                let mut spins = 0u32;
                while lock.held_cell().load_direct() {
                    spins += 1;
                    sched::spin_hint(YieldPoint::LockWord);
                    E::pause(spins).await;
                }
            }
            let slots = now_or_wait!(E::slots(th));
            let step = attempt_adaptive::<E, _, _>(sys, slots.htm, lock, epoch, budget, mode, f);
            drop(slots);
            match step {
                AdaptiveStep::Held => {
                    attempts += 1;
                    lock.domain().window.record_abort(AbortCause::Conflict);
                    trace::emit(
                        TraceKind::Retry,
                        TxMode::Htm,
                        Some(AbortCause::Conflict),
                        attempts as u64,
                    );
                    continue;
                }
                AdaptiveStep::Redispatch => return Outcome::Redispatch,
                AdaptiveStep::Tx(TxStep::Committed(fin, _, defers)) => {
                    lock.domain().window.record_commit(0);
                    let pw = match finish(fin, defers) {
                        Ok(r) => return Outcome::Done(r),
                        Err(pw) => pw,
                    };
                    attempts = 0;
                    block_on::<E>(th, lock, pw).await;
                    continue;
                }
                AdaptiveStep::Tx(TxStep::Abort(cause)) => {
                    attempts += 1;
                    lock.domain().window.record_abort(cause);
                    trace::emit(TraceKind::Retry, TxMode::Htm, Some(cause), attempts as u64);
                    E::backoff(th.htm_slot, attempts, 0).await;
                    continue;
                }
                AdaptiveStep::Tx(TxStep::RunnerErr(e)) => return propagate_runner_error(budget, e),
                AdaptiveStep::Tx(TxStep::Unsafe) => {
                    // Irrevocable work runs under the real lock (glibc TLE
                    // has no serial mode to fall back to).
                    sys.stats.serial_fallbacks.inc(th.stm_slot);
                    trace::emit(
                        TraceKind::Fallback,
                        TxMode::Locked,
                        Some(AbortCause::Unsafe),
                        attempts as u64,
                    );
                }
            }
        }
        match run_adaptive_lock_path::<E, _, _>(th, lock, epoch, budget.deadline, f, mode).await {
            SerialOutcome::Done(r) => return Outcome::Done(r),
            SerialOutcome::Retry => attempts = 0,
            SerialOutcome::Redispatch => return Outcome::Redispatch,
        }
    }
}

/// One synchronous adaptive-elision attempt on HTM slot `slot`: begin,
/// subscribe (eager: read the lock word; lazy: capture the acquisition
/// seqlock), re-check the epoch, then the attempt with the lazy check
/// ordered immediately before its commit point.
fn attempt_adaptive<'a, E: Edge, R, F>(
    sys: &'a TmSystem,
    slot: usize,
    lock: &'a ElidableMutex,
    epoch: u64,
    budget: Budget,
    mode: AlgoMode,
    f: &mut F,
) -> AdaptiveStep<'a, R>
where
    F: FnMut(&mut TxCtx<'a>) -> Result<R, TxError>,
{
    let lazy = mode.is_lazy();
    // Seeded bug (reorder hazard): the lazy window capture is hoisted
    // above transaction begin, opening a gap where an acquisition's doom
    // sweep passes this still-idle slot.
    let hoisted_g0 = if lazy && mutant::armed(Mutant::LazySubscriptionReorder) {
        let g = lock.elision_seq();
        sched::yield_point(YieldPoint::LockWord);
        Some(g)
    } else {
        None
    };
    let mut tx = sys.htm.begin(slot);
    // Lazy window capture: ordered after begin so the doom-on-acquire sweep
    // cannot miss this now-active slot (any acquire that bumped the seqlock
    // before this load either shows up odd here, or swept and doomed us
    // already).
    let g0 = if lazy {
        hoisted_g0.unwrap_or_else(|| lock.elision_seq())
    } else {
        0
    };
    if !lazy {
        // Subscribe: a real acquisition of the lock invalidates this line
        // and dooms us.
        match tx.read(lock.held_cell()) {
            Ok(false) => {}
            Ok(true) => {
                tx.abort(AbortCause::Conflict);
                return AdaptiveStep::Held;
            }
            Err(e) => {
                tx.abort(e);
                return AdaptiveStep::Tx(TxStep::Abort(e));
            }
        }
    } else if !mode.is_lazy_unsafe()
        && g0 & 1 == 1
        && !mutant::armed(Mutant::LazyCommitWithLockHeld)
    {
        // Safe lazy begin-refusal: an odd seqlock means the lock is held
        // right now, and speculating would run as a zombie over the
        // holder's direct writes (the mutant deletes exactly this guard).
        // The naive variant has no such check — that is its documented
        // hazard. Unlike a held eager subscription (whose pre-begin spin
        // already waited for the holder), nothing here waited, so the
        // refusal backs off like any abort.
        tx.abort(AbortCause::Conflict);
        return AdaptiveStep::Tx(TxStep::Abort(AbortCause::Conflict));
    }
    // The exclusion foothold (eager: the lock-word subscription; lazy:
    // begin refusal + the acquire path's doom-all sweep): a flip completed
    // before it shows up as a bumped epoch (abort, re-resolve); a flip
    // starting after it must acquire the lock word, which dooms this
    // transaction — either way no commit under a stale mode.
    if lock.domain().epoch() != epoch {
        tx.abort(AbortCause::Explicit);
        return AdaptiveStep::Redispatch;
    }
    let kind = CtxKind::Htm { tx };
    let precommit = || lazy_precommit_gate(lock, mode, g0, lazy);
    AdaptiveStep::Tx(attempt::<E, _, _>(
        lock,
        budget.deadline,
        kind,
        precommit,
        f,
    ))
}

/// Commit-time lazy subscription: the ordered window check run immediately
/// before the commit point (the doom-on-acquire sweep closes the race
/// between this check and the commit CAS). Returns the abort cause when the
/// speculation window overlapped a lock-path hold.
///
/// The naive (unsafe) variant does what the literature's strawman does: one
/// racy read of the lock word and nothing else — no whole-window proof, so
/// an acquire-and-release inside the window goes undetected.
fn lazy_precommit_gate(
    lock: &ElidableMutex,
    mode: AlgoMode,
    g0: u64,
    lazy: bool,
) -> Result<(), AbortCause> {
    if !lazy {
        return Ok(());
    }
    if mode.is_lazy_unsafe() {
        if lock.held_cell().load_direct() {
            return Err(AbortCause::Conflict);
        }
        return Ok(());
    }
    // Safe variant: an unchanged even seqlock proves the lock was free for
    // the whole window (begin refused odd captures; any acquire since then
    // bumped the counter).
    if lock.elision_seq() != g0 {
        return Err(AbortCause::Conflict);
    }
    Ok(())
}

/// Acquire the subscription word as a real lock (CAS + invalidate all
/// subscribed transactions), run the closure with direct access, release.
async fn run_adaptive_lock_path<'a, E: Edge, R, F>(
    th: &'a ThreadHandle,
    lock: &'a ElidableMutex,
    epoch: u64,
    deadline: Option<Instant>,
    f: &mut F,
    mode: AlgoMode,
) -> SerialOutcome<R>
where
    F: FnMut(&mut TxCtx<'a>) -> Result<R, TxError>,
{
    adaptive_acquire::<E>(&th.sys, lock, mode).await;
    // Holding the lock word blocks a flip's word acquisition, so the epoch
    // is stable from here until release.
    if lock.domain().epoch() != epoch {
        adaptive_release(lock, mode);
        return SerialOutcome::Redispatch;
    }
    history::begin(TxMode::Locked);
    let (res, _, defers, pending_wait) = run_body::<E, _, _>(lock, deadline, CtxKind::Serial, f);
    // Commit event while the lock word is still held — the hold window is
    // the section's serialization interval (aborts panic below, unrecorded).
    if matches!(res, Ok(_) | Err(TxError::Wait)) {
        history::commit();
    }
    adaptive_release(lock, mode);
    let fin = irrevocable(res, pending_wait, "while holding the elided lock");
    lock.domain().window.record_serial();
    match finish(fin, defers) {
        Ok(r) => SerialOutcome::Done(r),
        Err(pw) => {
            block_on::<E>(th, lock, pw).await;
            SerialOutcome::Retry
        }
    }
}

/// Acquire the adaptive lock word: CAS it, then make the acquisition
/// visible to speculating transactions. Eager modes invalidate the lock
/// word's line (dooming every subscriber); the lazy modes have no
/// subscribers to reach that way, so the safe variant bumps the
/// acquisition seqlock (new begins refuse) and dooms **every** active
/// transaction (in-flight speculation cannot run on as zombies), while the
/// naive variant deliberately does neither — that omission is the
/// literature's hazard, preserved for the checker to demonstrate.
async fn adaptive_acquire<E: Edge>(sys: &TmSystem, lock: &ElidableMutex, mode: AlgoMode) {
    sched::yield_point(YieldPoint::LockWord);
    let mut spins = 0u32;
    while lock.held_cell().load_direct()
        || lock
            .held_cell()
            .word()
            .compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
    {
        spins += 1;
        sched::spin_hint(YieldPoint::LockWord);
        E::pause(spins).await;
    }
    if mode.is_lazy() {
        // Odd seqlock: safe-lazy begins from here on refuse to speculate.
        lock.seq_bump();
        if mode.is_lazy_unsafe() {
            // Naive lazy subscription: the line invalidation reaches
            // nobody (no transaction subscribed the lock word).
            E::invalidate(&sys.htm, lock.held_cell()).await;
        } else if !mutant::armed(Mutant::LazyZombieEscape) {
            // Doom-on-acquire: the seeded bug deletes exactly this sweep.
            E::doom_all_active(&sys.htm).await;
        }
    } else {
        E::invalidate(&sys.htm, lock.held_cell()).await;
    }
}

/// Release the adaptive lock word, restoring the lazy seqlock to even
/// (speculation may resume).
fn adaptive_release(lock: &ElidableMutex, mode: AlgoMode) {
    lock.held_cell().store_direct(false);
    if mode.is_lazy() {
        lock.seq_bump();
    }
}

/// Removes an abandoned ring entry when a suspended async wait is dropped
/// instead of polled to completion: without this, the entry would linger
/// and a later signal could be consumed by the ghost waiter (DESIGN.md
/// §16). The removal runs synchronously in `Drop` — [`cancel_wait`] under
/// the [`Blocking`] edge, polled inline; ring-entry ownership transfer
/// never suspends, and it runs on a transient slot claim, never on the
/// handle's slots (another session may be mid-attempt on them). Defused on
/// every normal exit path (signal, timeout-cancel).
struct WaitEntryGuard<'a> {
    th: &'a ThreadHandle,
    lock: &'a ElidableMutex,
    cv: &'a TxCondvar,
    raw: RawWaiter,
    armed: bool,
}

impl Drop for WaitEntryGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            park::block_on(cancel_wait::<Blocking>(
                self.th, self.lock, self.cv, self.raw,
            ));
        }
    }
}

/// Park on a committed wait registration (or just yield under spin-mode
/// polling), cancelling the ring entry on timeout.
async fn block_on<'a, E: Edge>(th: &'a ThreadHandle, lock: &'a ElidableMutex, pw: PendingWait<'a>) {
    let Some(waiter) = pw.waiter else {
        // STM+Spin: no registration was made; poll by re-running. The
        // yield keeps the poll loop finite on oversubscribed machines
        // (without it, a polling thread can burn its entire quantum while
        // the thread it waits for is descheduled).
        sched::spin_hint(YieldPoint::Park);
        E::pause(SPIN_LIMIT).await;
        return;
    };
    let mut guard = WaitEntryGuard {
        th,
        lock,
        cv: pw.cv,
        raw: pw.raw,
        armed: true,
    };
    let signaled = E::park(&waiter, pw.timeout).await;
    guard.armed = false;
    trace::emit(TraceKind::WaitPark, TxMode::Serial, None, !signaled as u64);
    if !signaled {
        cancel_wait::<E>(th, lock, pw.cv, pw.raw).await;
    }
}

/// Timed-out (or abandoned) waiter: remove our ring entry — a small
/// transaction of its own — or, if a signaller already claimed it, let the
/// signaller's wakeup fall on the floor harmlessly. By the time this runs
/// the *lock* may have been flipped to any mode, so the removal algorithm
/// is chosen per attempt from the lock's current resolved mode, read under
/// a concurrent token (mode flips need the serial gate, so the token pins
/// it). Modes whose ring users access the ring outside gate-supervised
/// transactions (baseline's direct access under the raw mutex, adaptive
/// elision's lock path) fall through to [`remove_waiter_excluded`], as do
/// abort storms and an exhausted slot registry: the removal transaction
/// runs on a transient claim taken without waiting, never on the handle's
/// own slots.
async fn cancel_wait<'a, E: Edge>(
    th: &'a ThreadHandle,
    lock: &'a ElidableMutex,
    cv: &'a TxCondvar,
    raw: RawWaiter,
) {
    let sys = &*th.sys;
    let mut attempts = 0u32;
    let removed = loop {
        if attempts >= sys.policy().stm_retries {
            // Abort storm: do it under total exclusion.
            break remove_waiter_excluded::<E>(sys, lock, cv, raw).await;
        }
        let token = now_or_wait!(E::enter_concurrent(&sys.gate));
        let mode = lock.resolved_mode(sys.mode());
        let slots = if mode == AlgoMode::Baseline || mode.is_glibc_family() {
            None
        } else {
            Slots::try_claim(sys)
        };
        let Some(slots) = slots else {
            drop(token);
            break remove_waiter_excluded::<E>(sys, lock, cv, raw).await;
        };
        let outcome = {
            let kind = if mode == AlgoMode::HtmCondvar {
                CtxKind::Htm {
                    tx: sys.htm.begin(slots.htm),
                }
            } else {
                CtxKind::Stm {
                    tx: sys.stm.begin_soft(slots.stm),
                    spin_waits: false,
                }
            };
            let mut ctx = TxCtx::new(kind);
            let found = cv.remove(&mut ctx, raw.0);
            let kind = ctx.kind;
            match found {
                Ok(found) => commit::<E>(kind, || Ok(())).map(|drain| (found, drain)),
                Err(e) => {
                    abort(kind, e);
                    Err(e)
                }
            }
        };
        match outcome {
            Ok((found, (_, ticket))) => {
                if let Some(t) = ticket {
                    drain_ticket(sys, t).await;
                }
                drop(slots);
                drop(token);
                break found;
            }
            Err(_) => {
                drop(slots);
                drop(token);
                attempts += 1;
                E::backoff(th.stm_slot, attempts, 0).await;
            }
        }
    };
    if removed {
        // SAFETY: the queue entry held an `Arc` reference produced by
        // `Arc::into_raw` in `TxCtx::wait`; removing the entry transfers
        // that reference to us.
        unsafe { drop(Arc::from_raw(raw.0)) };
    }
}

/// Remove a waiter entry under **total exclusion** (serial gate, adaptive
/// lock word and raw mutex — the exclusion a mode flip takes): direct ring
/// access is then safe regardless of which mode the lock's other users run
/// under, and no TM slot is needed. Returns whether the entry was still
/// present.
///
/// Lock order: a mode flip takes gate → raw mutex → word; here the word
/// comes *before* the raw mutex because under the async terminals word
/// acquisition may suspend (it dooms transactions via `try_invalidate`)
/// while a mutex guard must stay inside one poll. The inversion is safe
/// **under the serial token**: every other gate-supervised word+mutex
/// claimant (mode flips, other excluded removals) queues behind the gate
/// first, and raw-mutex holders that bypass the gate (baseline sections)
/// never take the word, so no cycle exists. Unwind audit: the token and the
/// guard release in `Drop`; see [`run_serial`].
async fn remove_waiter_excluded<E: Edge>(
    sys: &TmSystem,
    lock: &ElidableMutex,
    cv: &TxCondvar,
    raw: RawWaiter,
) -> bool {
    let token = now_or_wait!(E::enter_serial(&sys.gate));
    // Serial token held: the resolved mode cannot flip under us, so the
    // acquire/release pair keeps the lazy seqlock parity consistent.
    let mode = lock.resolved_mode(sys.mode());
    adaptive_acquire::<E>(sys, lock, mode).await;
    let removed = {
        let _guard = now_or_wait!(E::lock_raw(lock));
        cv.remove(&mut TxCtx::new(CtxKind::Serial), raw.0)
            .expect("direct access cannot abort")
    };
    adaptive_release(lock, mode);
    drop(token);
    removed
}

/// Reclaim the queue-owned `Arc` reference of an enqueue whose transaction
/// failed to commit (the ring write rolled back, so nothing points at it).
fn reclaim_enqueue_ref(pw: &PendingWait<'_>) {
    if !pw.raw.0.is_null() {
        // SAFETY: see `cancel_wait`; the rolled-back enqueue published the
        // pointer nowhere.
        unsafe { drop(Arc::from_raw(pw.raw.0)) };
    }
}

thread_local! {
    /// Whether a critical-section body is executing on this OS thread.
    /// Lives in a thread-local (not on [`ThreadHandle`], which is `Sync`
    /// and may be shared across executor workers) because the hazard it
    /// guards is *closure re-entry on one thread*.
    static IN_CRITICAL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Nested-section detection. Nested critical sections are the paper's §V
/// problem in miniature: a transaction cannot subsume inner critical
/// sections that communicate with other threads (and naive flattening would
/// release the outer transaction's orecs at the inner commit). Fail loudly
/// instead of corrupting; restructure with a ready flag (Listing 4) or
/// merge the sections (Yoo-style coarsening).
///
/// Every terminal holds the guard around each body call only: between
/// attempts an async section is suspended and other tasks legitimately run
/// their own sections on this worker, and post-commit defers may open
/// sections of their own. Clears the flag even if the body panics.
struct NestGuard {
    _priv: (),
}

impl NestGuard {
    #[inline]
    fn enter(lock: &ElidableMutex) -> NestGuard {
        IN_CRITICAL.with(|flag| {
            assert!(
                !flag.replace(true),
                "nested critical sections are not supported under TLE \
                 (lock {:?}); restructure per paper §V (ready flag) or merge the sections",
                lock.name()
            );
        });
        NestGuard { _priv: () }
    }
}

impl Drop for NestGuard {
    #[inline]
    fn drop(&mut self) {
        IN_CRITICAL.with(|flag| flag.set(false));
    }
}

/// Decrements the lock's queue-depth gauge on every exit path (commit,
/// shed, deadline expiry, panic, a dropped async section).
struct QueueExitOnDrop<'a>(&'a ElidableMutex);

impl Drop for QueueExitOnDrop<'_> {
    #[inline]
    fn drop(&mut self) {
        self.0.domain().exit_queue();
    }
}

/// Poisons the guarding lock if the critical section unwinds (see
/// [`ElidableMutex::is_poisoned`]). A no-op on orderly exit.
struct PoisonOnPanic<'a>(&'a ElidableMutex);

impl Drop for PoisonOnPanic<'_> {
    #[inline]
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// Starvation-escalation ladder (robustness hardening). `note_abort`
/// accumulates consecutive concurrent-attempt failures across critical
/// sections; `escalation_due` answers whether this section should skip
/// straight to the serial gate, consuming the accumulated count so the
/// thread returns to concurrent attempts afterwards (the ladder grants a
/// progress slot, it does not serialize the thread permanently).
fn note_abort(th: &ThreadHandle) {
    // Saturating, not wrapping: an unbounded abort streak must keep the
    // ladder armed rather than roll over to a clean slate.
    let _ = th
        .consec_aborts
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
            Some(n.saturating_add(1))
        });
}

fn escalation_due(th: &ThreadHandle) -> bool {
    let n = th.consec_aborts.load(Ordering::Relaxed);
    if n < th.sys.policy().escalation_bound {
        return false;
    }
    th.consec_aborts.store(0, Ordering::Relaxed);
    th.sys.stats.escalations.inc(th.stm_slot);
    trace::emit(TraceKind::Escalate, TxMode::Serial, None, n as u64);
    true
}

/// Fault oracle: should this section storm the serial gate instead of
/// attempting to run concurrently?
fn serial_storm_due() -> bool {
    if fault::enabled() && fault::fire(Hazard::SerialStorm) {
        trace::emit(
            TraceKind::FaultInject,
            TxMode::Serial,
            None,
            Hazard::SerialStorm.index() as u64,
        );
        return true;
    }
    false
}

/// Randomized exponential backoff between attempts. Yields early: the
/// conflicting transaction may be descheduled (likely on an oversubscribed
/// host), in which case spinning cannot help it finish.
///
/// The draw mixes a *persistent* per-thread RNG with the salt and attempt
/// number. Deriving it from `(salt, attempts)` alone — as an earlier
/// version did — makes two threads that collide on attempt `n` draw
/// correlated waits on attempt `n+1` too, re-colliding indefinitely; the
/// per-thread state breaks that lockstep (each backoff also advances it, so
/// repeat encounters see fresh draws).
///
/// Two refinements over plain truncated-exponential:
///
/// - **Tiering by consecutive-abort depth**: `consec` is the starvation
///   ladder's cross-section abort streak ([`note_abort`]). A thread that
///   keeps losing across *sections* is in a congestion episode the
///   per-section `attempts` counter cannot see (it resets every section);
///   the tier widens its window up front, `log2`-ish in the streak, capped
///   at 4 extra doublings.
/// - **Decorrelated jitter** (the AWS "decorrelated jitter" shape): the
///   wait is drawn from `[16, 3*prev]` rather than `[0, bound)`, where
///   `prev` is this thread's previous wait. Consecutive draws random-walk
///   instead of re-sampling one fixed window, which both desynchronizes
///   repeat colliders faster and keeps a lucky short draw from snapping the
///   window back to zero. The exponential `bound` still caps the walk.
fn backoff(salt: usize, attempts: u32, consec: u32) {
    use std::sync::atomic::AtomicU64;
    /// Decorrelates the initial states of threads spawned back-to-back.
    static THREAD_SEED: AtomicU64 = AtomicU64::new(0x9E37_79B9_7F4A_7C15);
    thread_local! {
        static BACKOFF_STATE: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
        /// Previous wait drawn on this thread (decorrelated-jitter state).
        static BACKOFF_PREV: std::cell::Cell<u64> = const { std::cell::Cell::new(16) };
    }
    // Tier 0 for a clean slate, then one extra doubling per log2 of the
    // streak: 1 -> 1, 2..3 -> 2, 4..7 -> 3, >= 8 -> 4.
    let tier = (32 - consec.leading_zeros()).min(4);
    let bound = (16u64 << attempts.saturating_add(tier).min(16)).min(BACKOFF_CEILING);
    let draw = BACKOFF_STATE.with(|cell| {
        let mut state = cell.get();
        if state == 0 {
            state = THREAD_SEED.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed) | 1;
        }
        let raw = splitmix64(&mut state);
        cell.set(state);
        raw ^ ((salt as u64) << 32) ^ attempts as u64
    });
    let prev = BACKOFF_PREV.with(|p| p.get()).max(16);
    let spins = (16 + draw % prev.saturating_mul(3)).min(bound).max(1);
    BACKOFF_PREV.with(|p| p.set(spins));
    for _ in 0..spins {
        std::hint::spin_loop();
    }
    if attempts > 2 {
        std::thread::yield_now();
    }
}
