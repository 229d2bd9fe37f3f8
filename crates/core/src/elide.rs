//! The elidable mutex.
//!
//! Under [`AlgoMode::Baseline`](crate::AlgoMode::Baseline) an
//! `ElidableMutex` is a real mutex; under every TM mode the lock identity is
//! *erased* (paper §IV-A) and the object is only metadata — all elided
//! critical sections, regardless of which lock they named, become
//! transactions over the single shared TM domain. The paper points out the
//! cost of this erasure: quiescence and serialization become global even
//! when the original program used disjoint locks.
//!
//! Each lock additionally carries a [`LockDomain`]: per-lock policy state
//! (mode override, `TM_NoQuiesce` opt-in, admission step) plus a sliding
//! window of per-cause outcomes. The adaptive controller
//! ([`TmSystem`](crate::TmSystem)) holds a weak reference to the shared
//! inner state, which is why the mutex is an `Arc` handle internally — a
//! lock can be adopted, dropped by the application, and pruned by the
//! controller without lifetime gymnastics.

use crate::domain::{AdmissionStep, LockDomain};
use crate::system::AlgoMode;
use parking_lot::Mutex;
use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use tle_base::{TCell, WindowSnapshot};

/// The shared state behind an [`ElidableMutex`] handle.
pub(crate) struct LockInner {
    raw: Mutex<()>,
    name: Cow<'static, str>,
    held: TCell<bool>,
    /// Acquisition seqlock for the lazy-subscription modes: bumped on
    /// every lock-path acquire **and** release, so even = free, odd =
    /// held. A lazily subscribed transaction captures the value at begin
    /// and re-checks it immediately before its commit point; an unchanged
    /// even value proves the lock was free for the whole speculation
    /// window. Eager modes never touch it.
    seq: AtomicU64,
    skip: AtomicU32,
    poisoned: AtomicBool,
    domain: LockDomain,
}

impl LockInner {
    /// The underlying mutex (baseline mode and mode-flip exclusion).
    pub(crate) fn raw(&self) -> &Mutex<()> {
        &self.raw
    }

    /// The transactionally subscribed lock word (adaptive elision).
    pub(crate) fn held_cell(&self) -> &TCell<bool> {
        &self.held
    }

    /// The per-lock policy domain.
    pub(crate) fn domain(&self) -> &LockDomain {
        &self.domain
    }

    /// The diagnostic name.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Current acquisition-seqlock value (lazy-subscription window proof).
    pub(crate) fn elision_seq(&self) -> u64 {
        self.seq.load(Ordering::SeqCst)
    }

    /// Bump the acquisition seqlock (lazy lock path, acquire and release).
    pub(crate) fn seq_bump(&self) {
        self.seq.fetch_add(1, Ordering::SeqCst);
    }
}

/// A lock that can be elided by the TLE runtime.
///
/// The handle is a cheap `Arc` clone over shared lock state, so dynamically
/// created locks (sharded/keyed lock tables) can hand copies to worker
/// threads and to the adaptive controller alike.
///
/// Under [`AlgoMode::AdaptiveHtm`](crate::AlgoMode::AdaptiveHtm) the lock
/// additionally carries glibc-style elision state: a transactionally
/// readable **subscription word** (`held`) that elided sections read so a
/// real acquisition aborts them, and an adaptive **skip counter** that
/// routes the next few acquisitions straight to the lock after an elision
/// failure (glibc's `skip_lock_internal_abort`).
#[derive(Clone)]
pub struct ElidableMutex {
    inner: Arc<LockInner>,
}

impl ElidableMutex {
    /// Create a named lock (the name appears in diagnostics only). Accepts
    /// both `&'static str` literals and runtime `String`s, so keyed lock
    /// tables can name their shards.
    pub fn new(name: impl Into<Cow<'static, str>>) -> Self {
        ElidableMutex {
            inner: Arc::new(LockInner {
                raw: Mutex::new(()),
                name: name.into(),
                held: TCell::new(false),
                seq: AtomicU64::new(0),
                skip: AtomicU32::new(0),
                poisoned: AtomicBool::new(false),
                domain: LockDomain::new(),
            }),
        }
    }

    /// The diagnostic name.
    pub fn name(&self) -> &str {
        self.inner.name()
    }

    /// The shared inner state (controller adoption).
    pub(crate) fn inner(&self) -> &Arc<LockInner> {
        &self.inner
    }

    /// The underlying mutex (baseline mode only).
    pub(crate) fn raw(&self) -> &Mutex<()> {
        self.inner.raw()
    }

    /// The transactionally subscribed lock word (adaptive elision).
    pub(crate) fn held_cell(&self) -> &TCell<bool> {
        self.inner.held_cell()
    }

    /// The per-lock policy domain.
    pub(crate) fn domain(&self) -> &LockDomain {
        &self.inner.domain
    }

    /// Current acquisition-seqlock value (lazy-subscription modes; even =
    /// free, odd = held).
    pub(crate) fn elision_seq(&self) -> u64 {
        self.inner.elision_seq()
    }

    /// Bump the acquisition seqlock (lazy lock path only).
    pub(crate) fn seq_bump(&self) {
        self.inner.seq_bump()
    }

    /// The mode this lock runs under, given the system's global mode:
    /// the per-lock override when one is installed, else `global`.
    pub fn resolved_mode(&self, global: AlgoMode) -> AlgoMode {
        self.domain().resolved(global)
    }

    /// The per-lock mode override, if any (set by the adaptive controller
    /// or [`TmSystem::set_lock_mode`](crate::TmSystem::set_lock_mode)).
    pub fn mode_override(&self) -> Option<AlgoMode> {
        self.domain().override_mode()
    }

    /// Whether this lock opted into per-lock `TM_NoQuiesce` (see
    /// [`TmSystem::set_lock_no_quiesce`](crate::TmSystem::set_lock_no_quiesce)).
    pub fn is_no_quiesce(&self) -> bool {
        self.domain().no_quiesce()
    }

    /// Point-in-time view of this lock's sliding outcome window.
    pub fn window_snapshot(&self) -> WindowSnapshot {
        self.domain().window.snapshot()
    }

    /// Lifetime count of mode switches applied to this lock.
    pub fn switches(&self) -> u64 {
        self.domain().switch_count()
    }

    /// Where this lock currently sits on the admission controller's
    /// degradation ladder (elide → serialize → shed). Always
    /// [`AdmissionStep::Elide`] unless a
    /// [`TmSystem`](crate::TmSystem) built with admission control adopted
    /// the lock and stepped it down.
    pub fn admission_step(&self) -> AdmissionStep {
        self.domain().admission_step()
    }

    /// Highest admission step this lock ever reached (the ladder may have
    /// recovered since; this records that it was there).
    pub fn admission_high_water(&self) -> AdmissionStep {
        self.domain().admission_high_water()
    }

    /// Sections currently dispatched under this lock (queued plus
    /// executing) — the overload signal the admission controller's
    /// shed/recover thresholds compare against.
    pub fn queue_depth(&self) -> u64 {
        self.domain().queue_depth()
    }

    /// Whether any [`TmSystem`](crate::TmSystem) adopted this lock into its
    /// adaptive controller (see [`TmSystem::adopt_lock`](crate::TmSystem::adopt_lock)).
    pub fn is_adopted(&self) -> bool {
        self.domain().adopted()
    }

    /// Test hook: replace the window contents with a synthetic history so
    /// controller behaviour can be pinned without generating real workload.
    #[doc(hidden)]
    pub fn synthesize_window(&self, commits: u64, conflict: u64, capacity: u64, serial: u64) {
        let w = &self.domain().window;
        w.reset();
        for _ in 0..commits {
            w.record_commit(0);
        }
        for _ in 0..conflict {
            w.record_abort(tle_base::AbortCause::Conflict);
        }
        for _ in 0..capacity {
            w.record_abort(tle_base::AbortCause::Capacity);
        }
        for _ in 0..serial {
            w.record_serial();
        }
    }

    /// Whether the adaptive policy says to skip elision this time; consumes
    /// one skip credit.
    pub(crate) fn consume_skip(&self) -> bool {
        let skip = &self.inner.skip;
        let mut cur = skip.load(Ordering::Relaxed);
        while cur > 0 {
            match skip.compare_exchange_weak(cur, cur - 1, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return true,
                Err(c) => cur = c,
            }
        }
        false
    }

    /// Penalize elision on this lock for the next `n` acquisitions
    /// (glibc's adaptation after an internal abort).
    pub(crate) fn set_skip(&self, n: u32) {
        self.inner.skip.store(n, Ordering::Relaxed);
    }

    /// Current skip credits (diagnostics/tests).
    pub fn skip_credits(&self) -> u32 {
        self.inner.skip.load(Ordering::Relaxed)
    }

    /// Mark the lock poisoned: a critical section guarded by it panicked.
    /// The transactional machinery already rolled the panicking attempt
    /// back (undo log, orecs, gate token are all released by unwinding),
    /// so memory is consistent — but *application* invariants spanning
    /// multiple sections may not be. Poisoning is therefore advisory, like
    /// `parking_lot`'s non-poisoning mutexes plus an inspectable flag:
    /// other threads keep running, and callers that care can check.
    pub(crate) fn poison(&self) {
        self.inner.poisoned.store(true, Ordering::Release);
    }

    /// Whether a critical section guarded by this lock ever panicked.
    pub fn is_poisoned(&self) -> bool {
        self.inner.poisoned.load(Ordering::Acquire)
    }

    /// Reset the poison flag after the application restored its invariants.
    pub fn clear_poison(&self) {
        self.inner.poisoned.store(false, Ordering::Release);
    }
}

impl std::fmt::Debug for ElidableMutex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ElidableMutex")
            .field("name", &self.name())
            .field("locked", &self.inner.raw.is_locked())
            .field("poisoned", &self.is_poisoned())
            .field("mode_override", &self.mode_override())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_and_debug() {
        let m = ElidableMutex::new("queue");
        assert_eq!(m.name(), "queue");
        let s = format!("{m:?}");
        assert!(s.contains("queue"));
    }

    #[test]
    fn dynamic_names_are_accepted() {
        let shards: Vec<ElidableMutex> = (0..4)
            .map(|i| ElidableMutex::new(format!("shard-{i}")))
            .collect();
        assert_eq!(shards[3].name(), "shard-3");
    }

    #[test]
    fn clones_share_state() {
        let a = ElidableMutex::new("shared");
        let b = a.clone();
        a.poison();
        assert!(b.is_poisoned());
        b.clear_poison();
        assert!(!a.is_poisoned());
        let g = a.raw().lock();
        assert!(b.raw().try_lock().is_none());
        drop(g);
    }

    #[test]
    fn poison_flag_roundtrip() {
        let m = ElidableMutex::new("p");
        assert!(!m.is_poisoned());
        m.poison();
        assert!(m.is_poisoned());
        m.clear_poison();
        assert!(!m.is_poisoned());
    }

    #[test]
    fn raw_mutex_excludes() {
        let m = ElidableMutex::new("x");
        let g = m.raw().lock();
        assert!(m.raw().try_lock().is_none());
        drop(g);
        assert!(m.raw().try_lock().is_some());
    }

    #[test]
    fn domain_defaults_to_inherit() {
        let m = ElidableMutex::new("d");
        assert_eq!(m.mode_override(), None);
        assert_eq!(m.resolved_mode(AlgoMode::HtmCondvar), AlgoMode::HtmCondvar);
        assert!(!m.is_no_quiesce());
        assert_eq!(m.switches(), 0);
    }

    #[test]
    fn synthesized_window_is_visible() {
        let m = ElidableMutex::new("w");
        m.synthesize_window(10, 2, 3, 1);
        let s = m.window_snapshot();
        assert_eq!(s.commits, 10);
        assert_eq!(s.conflict_aborts, 2);
        assert_eq!(s.capacity_aborts, 3);
        assert_eq!(s.serial, 1);
    }
}
