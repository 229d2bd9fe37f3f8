//! The serial-irrevocability gate.
//!
//! GCC's libitm ensures progress and supports unsafe (irrevocable)
//! operations by *serializing*: it stops admitting concurrent transactions,
//! waits for in-flight ones to drain, runs the irrevocable work alone, and
//! then re-opens the floodgates (paper §II-B). The same mechanism is the
//! fallback path for hardware transactions that keep aborting (paper §VII:
//! "HTM results fall back to a serial mode after hardware transactions fail
//! twice").
//!
//! [`Gate`] is that mechanism: a writer-preferring reader/writer gate where
//! "readers" are concurrent transactions and the single "writer" is serial
//! mode. The fast path is one CAS; blocked sides spin briefly and then
//! yield, because serial sections are short but not bounded.
//!
//! ## Waker-driven entry
//!
//! The async terminals (`run_async` in `tle-core`) must not spin-or-yield
//! an executor worker while the gate is closed, so the gate also exposes
//! non-blocking and pollable forms: [`Gate::try_enter_concurrent`],
//! [`Gate::request_serial`] + [`SerialRequest::try_acquire`], and the
//! futures [`Gate::enter_concurrent_async`] / [`Gate::enter_serial_async`].
//! Pending entries park a task [`Waker`] in a side registry; the three state
//! transitions that can open the gate for someone — serial exit, the last
//! concurrent exit while serial waiters queue, and an abandoned serial
//! request — wake the whole registry, and woken futures re-run the ordinary
//! try-path (the classic try → register → re-try → `Pending` protocol, so a
//! transition racing with registration is never lost).

use crate::sched::{self, YieldPoint};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::task::{Context, Poll, Waker};

/// Bit set while a serial section runs.
const SERIAL_HELD: u64 = 1 << 63;
/// Serial waiter count lives in bits 32..63.
const WAITER_UNIT: u64 = 1 << 32;
const WAITER_MASK: u64 = ((1u64 << 31) - 1) << 32;
/// Active concurrent-transaction count lives in bits 0..32.
const ACTIVE_MASK: u64 = (1 << 32) - 1;

/// The global concurrency gate. See the module docs.
#[derive(Debug, Default)]
pub struct Gate {
    state: AtomicU64,
    /// Wakers parked by pollable entries; drained wholesale on any gate
    /// transition that could admit a waiter.
    wakers: Mutex<Vec<Waker>>,
    /// Fast-path guard so the sync paths never touch the waker mutex.
    has_wakers: AtomicBool,
}

/// RAII token for a concurrent-side entry.
#[must_use = "dropping the token exits the concurrent side"]
pub struct ConcurrentToken<'g> {
    gate: &'g Gate,
}

/// RAII token for the exclusive serial side.
#[must_use = "dropping the token exits serial mode"]
pub struct SerialToken<'g> {
    gate: &'g Gate,
}

/// A pending claim on the serial side ([`Gate::request_serial`]): counts as
/// a waiter (blocking new concurrent entries) until acquired or abandoned.
#[must_use = "dropping the request abandons the serial claim"]
pub struct SerialRequest<'g> {
    gate: &'g Gate,
    granted: bool,
}

impl<'g> SerialRequest<'g> {
    /// Attempt to take the serial side now: succeeds only when no serial
    /// section runs and the concurrent side has drained. On success the
    /// waiter unit is consumed atomically with setting `SERIAL_HELD`.
    pub fn try_acquire(&mut self) -> Option<SerialToken<'g>> {
        debug_assert!(!self.granted, "serial request acquired twice");
        loop {
            let s = self.gate.state.load(Ordering::Acquire);
            if s & SERIAL_HELD != 0 || s & ACTIVE_MASK != 0 {
                return None;
            }
            let target = (s - WAITER_UNIT) | SERIAL_HELD;
            if self
                .gate
                .state
                .compare_exchange_weak(s, target, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                self.granted = true;
                return Some(SerialToken { gate: self.gate });
            }
            std::hint::spin_loop();
        }
    }
}

impl Drop for SerialRequest<'_> {
    fn drop(&mut self) {
        if !self.granted {
            self.gate.state.fetch_sub(WAITER_UNIT, Ordering::AcqRel);
            // Removing a waiter unit may unblock concurrent entries that
            // were refused under writer preference.
            self.gate.wake_all();
        }
    }
}

/// Future returned by [`Gate::enter_concurrent_async`].
pub struct EnterConcurrent<'g> {
    gate: &'g Gate,
}

impl<'g> Future for EnterConcurrent<'g> {
    type Output = ConcurrentToken<'g>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        self.gate.poll_enter_concurrent(cx)
    }
}

/// Future returned by [`Gate::enter_serial_async`].
pub struct EnterSerial<'g> {
    gate: &'g Gate,
    req: Option<SerialRequest<'g>>,
}

impl<'g> Future for EnterSerial<'g> {
    type Output = SerialToken<'g>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let gate = self.gate;
        let req = self.req.get_or_insert_with(|| gate.request_serial());
        if let Some(t) = req.try_acquire() {
            self.req = None; // granted: drop is a no-op
            return Poll::Ready(t);
        }
        gate.register_waker(cx.waker());
        let req = self.req.as_mut().expect("request installed above");
        match req.try_acquire() {
            Some(t) => {
                self.req = None;
                Poll::Ready(t)
            }
            None => Poll::Pending,
        }
    }
}

impl Gate {
    /// A fresh, open gate.
    pub fn new() -> Self {
        Gate::default()
    }

    /// Enter the concurrent side; blocks while a serial section runs or is
    /// pending (writer preference, so serial requests are not starved).
    pub fn enter_concurrent(&self) -> ConcurrentToken<'_> {
        sched::yield_point(YieldPoint::SerialGate);
        let mut spins = 0u32;
        loop {
            let s = self.state.load(Ordering::Acquire);
            if s & (SERIAL_HELD | WAITER_MASK) == 0 {
                if self
                    .state
                    .compare_exchange_weak(s, s + 1, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
                {
                    return ConcurrentToken { gate: self };
                }
            } else {
                Self::pause(&mut spins);
            }
        }
    }

    /// Enter the exclusive serial side; drains concurrent transactions first.
    pub fn enter_serial(&self) -> SerialToken<'_> {
        sched::yield_point(YieldPoint::SerialGate);
        self.state.fetch_add(WAITER_UNIT, Ordering::AcqRel);
        let mut spins = 0u32;
        loop {
            let s = self.state.load(Ordering::Acquire);
            if s & SERIAL_HELD == 0 && s & ACTIVE_MASK == 0 {
                let target = (s - WAITER_UNIT) | SERIAL_HELD;
                if self
                    .state
                    .compare_exchange_weak(s, target, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
                {
                    return SerialToken { gate: self };
                }
            } else {
                Self::pause(&mut spins);
            }
        }
    }

    /// Non-blocking concurrent entry: `None` while a serial section runs or
    /// is pending. Retries only on CAS races with other concurrent entries,
    /// so it never waits on another thread.
    pub fn try_enter_concurrent(&self) -> Option<ConcurrentToken<'_>> {
        sched::yield_point(YieldPoint::SerialGate);
        loop {
            let s = self.state.load(Ordering::Acquire);
            if s & (SERIAL_HELD | WAITER_MASK) != 0 {
                return None;
            }
            if self
                .state
                .compare_exchange_weak(s, s + 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                return Some(ConcurrentToken { gate: self });
            }
            std::hint::spin_loop();
        }
    }

    /// Join the serial-waiter queue without blocking. The returned request
    /// holds a waiter unit (so new concurrent entries are refused — writer
    /// preference) until it is either acquired or dropped; dropping an
    /// unacquired request removes the unit and re-wakes pending entries.
    pub fn request_serial(&self) -> SerialRequest<'_> {
        sched::yield_point(YieldPoint::SerialGate);
        self.state.fetch_add(WAITER_UNIT, Ordering::AcqRel);
        SerialRequest {
            gate: self,
            granted: false,
        }
    }

    /// Pollable concurrent entry (the body of [`Gate::enter_concurrent_async`]).
    pub fn poll_enter_concurrent(&self, cx: &mut Context<'_>) -> Poll<ConcurrentToken<'_>> {
        if let Some(t) = self.try_enter_concurrent() {
            return Poll::Ready(t);
        }
        self.register_waker(cx.waker());
        // Re-try after registering: a serial exit between the first try and
        // the registration must not strand this task.
        match self.try_enter_concurrent() {
            Some(t) => Poll::Ready(t),
            None => Poll::Pending,
        }
    }

    /// Future form of [`Gate::enter_concurrent`].
    pub fn enter_concurrent_async(&self) -> EnterConcurrent<'_> {
        EnterConcurrent { gate: self }
    }

    /// Future form of [`Gate::enter_serial`]. The waiter unit is taken on
    /// first poll and released if the future is dropped unacquired.
    pub fn enter_serial_async(&self) -> EnterSerial<'_> {
        EnterSerial {
            gate: self,
            req: None,
        }
    }

    fn register_waker(&self, w: &Waker) {
        let mut ws = self.wakers.lock().expect("gate waker registry poisoned");
        self.has_wakers.store(true, Ordering::Release);
        ws.push(w.clone());
    }

    fn wake_all(&self) {
        if !self.has_wakers.load(Ordering::Acquire) {
            return;
        }
        let drained = {
            let mut ws = self.wakers.lock().expect("gate waker registry poisoned");
            self.has_wakers.store(false, Ordering::Release);
            std::mem::take(&mut *ws)
        };
        for w in drained {
            w.wake();
        }
    }

    /// Whether a serial section currently holds the gate (diagnostics).
    pub fn serial_held(&self) -> bool {
        self.state.load(Ordering::Acquire) & SERIAL_HELD != 0
    }

    /// Number of transactions currently on the concurrent side.
    pub fn active_count(&self) -> usize {
        (self.state.load(Ordering::Acquire) & ACTIVE_MASK) as usize
    }

    #[inline]
    fn pause(spins: &mut u32) {
        *spins += 1;
        sched::spin_hint(YieldPoint::SerialGate);
        if *spins < 64 {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

impl Drop for ConcurrentToken<'_> {
    fn drop(&mut self) {
        let prev = self.gate.state.fetch_sub(1, Ordering::AcqRel);
        let now = prev - 1;
        // Last concurrent exit with serial waiters queued: one of them can
        // now acquire — wake the pollable entries.
        if now & ACTIVE_MASK == 0 && now & WAITER_MASK != 0 {
            self.gate.wake_all();
        }
    }
}

impl Drop for SerialToken<'_> {
    fn drop(&mut self) {
        self.gate.state.fetch_and(!SERIAL_HELD, Ordering::AcqRel);
        // Serial exit admits either the next serial waiter or the whole
        // concurrent side.
        self.gate.wake_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn concurrent_entries_coexist() {
        let g = Gate::new();
        let a = g.enter_concurrent();
        let b = g.enter_concurrent();
        assert_eq!(g.active_count(), 2);
        drop(a);
        drop(b);
        assert_eq!(g.active_count(), 0);
    }

    #[test]
    fn serial_excludes_everyone() {
        let g = Arc::new(Gate::new());
        let counter = Arc::new(AtomicUsize::new(0));
        let max_seen = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let g = Arc::clone(&g);
                let counter = Arc::clone(&counter);
                let max_seen = Arc::clone(&max_seen);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        if i % 2 == 0 {
                            let _t = g.enter_concurrent();
                            counter.fetch_add(1, Ordering::SeqCst);
                            counter.fetch_sub(1, Ordering::SeqCst);
                        } else {
                            let _t = g.enter_serial();
                            let inside = counter.load(Ordering::SeqCst);
                            max_seen.fetch_max(inside, Ordering::SeqCst);
                            assert_eq!(inside, 0, "serial section saw concurrent activity");
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(max_seen.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn serial_sections_are_mutually_exclusive() {
        let g = Arc::new(Gate::new());
        let in_serial = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let g = Arc::clone(&g);
                let in_serial = Arc::clone(&in_serial);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        let _t = g.enter_serial();
                        assert_eq!(in_serial.fetch_add(1, Ordering::SeqCst), 0);
                        in_serial.fetch_sub(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn gate_reopens_after_serial() {
        let g = Gate::new();
        {
            let _s = g.enter_serial();
            assert!(g.serial_held());
        }
        assert!(!g.serial_held());
        let _c = g.enter_concurrent();
        assert_eq!(g.active_count(), 1);
    }

    #[test]
    fn try_enter_concurrent_refuses_under_serial() {
        let g = Gate::new();
        {
            let _s = g.enter_serial();
            assert!(g.try_enter_concurrent().is_none());
        }
        let t = g.try_enter_concurrent();
        assert!(t.is_some());
        assert_eq!(g.active_count(), 1);
    }

    #[test]
    fn serial_request_blocks_new_concurrent_until_dropped() {
        let g = Gate::new();
        let req = g.request_serial();
        // Writer preference: a pending serial request refuses new entries.
        assert!(g.try_enter_concurrent().is_none());
        drop(req); // abandoned
        assert!(g.try_enter_concurrent().is_some());
    }

    #[test]
    fn serial_request_acquires_when_drained() {
        let g = Gate::new();
        let c = g.enter_concurrent();
        let mut req = g.request_serial();
        assert!(req.try_acquire().is_none(), "actives must drain first");
        drop(c);
        let tok = req.try_acquire().expect("gate drained");
        assert!(g.serial_held());
        drop(tok);
        drop(req); // granted: drop must not underflow the waiter count
        assert!(!g.serial_held());
        assert!(g.try_enter_concurrent().is_some());
    }

    #[test]
    fn async_entries_resolve_on_executor() {
        let ex = crate::exec::Exec::new(2);
        let g = Arc::new(Gate::new());
        let serial_ran = Arc::new(AtomicUsize::new(0));
        // Hold the gate concurrent, spawn a serial entry, then release: the
        // waker path (not a spin) must admit the serial task.
        let c = g.enter_concurrent();
        let h = {
            let g = Arc::clone(&g);
            let serial_ran = Arc::clone(&serial_ran);
            ex.spawn(async move {
                let _s = g.enter_serial_async().await;
                serial_ran.fetch_add(1, Ordering::SeqCst);
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(serial_ran.load(Ordering::SeqCst), 0);
        drop(c);
        h.join();
        assert_eq!(serial_ran.load(Ordering::SeqCst), 1);
        // And the concurrent side reopens for async entries afterwards.
        let g2 = Arc::clone(&g);
        ex.spawn(async move {
            let _t = g2.enter_concurrent_async().await;
        })
        .join();
    }

    #[test]
    fn mixed_async_and_sync_exclusion() {
        let ex = Arc::new(crate::exec::Exec::new(3));
        let g = Arc::new(Gate::new());
        let counter = Arc::new(AtomicUsize::new(0));
        let mut joins = Vec::new();
        for i in 0..24 {
            let g = Arc::clone(&g);
            let counter = Arc::clone(&counter);
            joins.push(ex.spawn(async move {
                for _ in 0..50 {
                    if i % 3 == 0 {
                        let _s = g.enter_serial_async().await;
                        assert_eq!(counter.load(Ordering::SeqCst), 0);
                    } else {
                        let _c = g.enter_concurrent_async().await;
                        counter.fetch_add(1, Ordering::SeqCst);
                        crate::exec::yield_now().await;
                        counter.fetch_sub(1, Ordering::SeqCst);
                    }
                }
            }));
        }
        let sync_thread = {
            let g = Arc::clone(&g);
            let counter = Arc::clone(&counter);
            std::thread::spawn(move || {
                for _ in 0..200 {
                    let _s = g.enter_serial();
                    assert_eq!(counter.load(Ordering::SeqCst), 0);
                }
            })
        };
        for j in joins {
            j.join();
        }
        sync_thread.join().unwrap();
    }
}
