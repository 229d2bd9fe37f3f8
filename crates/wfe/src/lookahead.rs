//! The lookahead queues — and the paper's two-phase-locking story (§V).
//!
//! x265's lookahead thread estimates frame complexity ahead of the encoder.
//! Its original output-queue protocol (the paper's Listing 3) locked the
//! queue, enqueued a node, **kept the lock held across the entire produce
//! step** — which itself ran further critical sections — and only then
//! unlocked. That lock-acquisition pattern is not two-phase, so the outer
//! critical section cannot be replaced by a transaction: the inner critical
//! sections' effects would have to become visible while the enclosing
//! "transaction" is still speculative.
//!
//! The paper's fix (Listing 4) is the **ready flag**: enqueue a not-ready
//! node in one short critical section, produce *outside* any lock, then
//! mark the node ready in a second short critical section. The consumer
//! dequeues only ready nodes. [`ReadyQueue`] implements that protocol;
//! the `ablate-ready-flag` figure of `tle-bench emit` keeps the original
//! Listing 3 shape (real locks only) to verify the refactoring did not
//! change performance.

use tle_base::TCell;
use tle_core::{ElidableMutex, ThreadHandle, TxCondvar};

/// A bounded queue whose entries carry a ready flag (paper Listing 4).
///
/// Producers `reserve` a slot (short critical section), build the payload
/// outside any lock, then `publish` it (second short critical section).
/// Consumers block until the *head* entry is ready — preserving FIFO order
/// of reservation, as x265's frame pipeline requires.
pub struct ReadyQueue<T: Send> {
    /// The "lookahead" lock.
    lock: ElidableMutex,
    ready_cv: TxCondvar,
    space_cv: TxCondvar,
    head: TCell<u64>,
    tail: TCell<u64>,
    closed: TCell<bool>,
    slots: Box<[TCell<*mut ()>]>,
    ready: Box<[TCell<bool>]>,
    _t: std::marker::PhantomData<T>,
}

// SAFETY: payload ownership is transferred through the queue exactly once.
unsafe impl<T: Send> Send for ReadyQueue<T> {}
unsafe impl<T: Send> Sync for ReadyQueue<T> {}

/// A reserved-but-unpublished entry.
#[must_use = "a reservation must be published"]
pub struct Reservation {
    id: u64,
}

impl<T: Send> ReadyQueue<T> {
    /// A queue with capacity `cap`.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0);
        ReadyQueue {
            lock: ElidableMutex::new("lookahead"),
            ready_cv: TxCondvar::new(),
            space_cv: TxCondvar::new(),
            head: TCell::new(0),
            tail: TCell::new(0),
            closed: TCell::new(false),
            slots: (0..cap).map(|_| TCell::new(std::ptr::null_mut())).collect(),
            ready: (0..cap).map(|_| TCell::new(false)).collect(),
            _t: std::marker::PhantomData,
        }
    }

    /// The queue's elidable lock, for per-lock policy adoption
    /// ([`TmSystem::adopt_lock`]).
    ///
    /// [`TmSystem::adopt_lock`]: tle_core::TmSystem::adopt_lock
    pub fn lock(&self) -> &ElidableMutex {
        &self.lock
    }

    /// Reserve the next slot (Listing 4 lines 1-5). Blocks while full;
    /// `None` if the queue is closed.
    pub fn reserve(&self, th: &ThreadHandle) -> Option<Reservation> {
        let cap = self.slots.len() as u64;
        let id = th.tx(&self.lock).run(|ctx| {
            if ctx.read(&self.closed)? {
                return Ok(u64::MAX);
            }
            let h = ctx.read(&self.head)?;
            let t = ctx.read(&self.tail)?;
            if t - h >= cap {
                ctx.no_quiesce();
                return ctx.wait(&self.space_cv, None).map(|_| u64::MAX);
            }
            ctx.write(&self.ready[(t % cap) as usize], false)?;
            ctx.write(&self.tail, t + 1)?;
            ctx.no_quiesce();
            Ok(t)
        });
        if id == u64::MAX {
            None
        } else {
            Some(Reservation { id })
        }
    }

    /// Publish the payload for a reservation (Listing 4 lines 6-9). The
    /// produce step ran outside any lock, between `reserve` and here.
    pub fn publish(&self, th: &ThreadHandle, res: Reservation, item: Box<T>) {
        let cap = self.slots.len() as u64;
        let raw = Box::into_raw(item) as *mut ();
        let idx = (res.id % cap) as usize;
        th.tx(&self.lock).run(|ctx| {
            ctx.write(&self.slots[idx], raw)?;
            ctx.write(&self.ready[idx], true)?;
            ctx.broadcast(&self.ready_cv)?;
            ctx.no_quiesce();
            Ok(())
        });
    }

    /// Pop the oldest entry once it is ready (Listing 4 lines 10-14).
    /// Blocks while the head entry is absent or not ready; `None` once the
    /// queue is closed and drained.
    pub fn pop_ready(&self, th: &ThreadHandle) -> Option<Box<T>> {
        let cap = self.slots.len() as u64;
        let raw = th.tx(&self.lock).run(|ctx| {
            let h = ctx.read(&self.head)?;
            let t = ctx.read(&self.tail)?;
            if h == t {
                if ctx.read(&self.closed)? {
                    return Ok(std::ptr::null_mut());
                }
                ctx.no_quiesce();
                return ctx.wait(&self.ready_cv, None).map(|_| std::ptr::null_mut());
            }
            let idx = (h % cap) as usize;
            if !ctx.read(&self.ready[idx])? {
                // Head reserved but not yet produced ("peek().ready" false).
                ctx.no_quiesce();
                return ctx.wait(&self.ready_cv, None).map(|_| std::ptr::null_mut());
            }
            let p = ctx.read(&self.slots[idx])?;
            ctx.write(&self.slots[idx], std::ptr::null_mut::<()>())?;
            ctx.write(&self.ready[idx], false)?;
            ctx.write(&self.head, h + 1)?;
            ctx.signal(&self.space_cv)?;
            // Extracting privatizes the payload: quiesce by default.
            Ok(p)
        });
        if raw.is_null() {
            None
        } else {
            // SAFETY: sole popper of this published entry.
            Some(unsafe { Box::from_raw(raw as *mut T) })
        }
    }

    /// Close: producers get `None` from `reserve`, consumers drain.
    pub fn close(&self, th: &ThreadHandle) {
        th.tx(&self.lock).run(|ctx| {
            ctx.write(&self.closed, true)?;
            ctx.broadcast(&self.ready_cv)?;
            ctx.broadcast(&self.space_cv)?;
            ctx.no_quiesce();
            Ok(())
        });
    }
}

impl<T: Send> Drop for ReadyQueue<T> {
    fn drop(&mut self) {
        let cap = self.slots.len() as u64;
        let h = self.head.load_direct();
        let t = self.tail.load_direct();
        for i in h..t {
            let idx = (i % cap) as usize;
            let p = self.slots[idx].load_direct();
            if self.ready[idx].load_direct() && !p.is_null() {
                // SAFETY: sole owner during drop.
                unsafe { drop(Box::from_raw(p as *mut T)) };
            }
        }
    }
}

/// The paper's Listing 3 shape, expressible only with real locks: lock the
/// queue, enqueue, run `produce` (which may take other locks), unlock.
/// Kept for the `ablate-ready-flag` figure of `tle-bench emit`, which
/// reproduces the paper's claim that the ready-flag refactoring does not
/// change performance.
///
/// # Panics
///
/// Panics unless the system is running [`AlgoMode::Baseline`] — under TLE
/// the pattern is exactly the non-two-phase-locking shape §V shows cannot
/// be transactionalized.
///
/// [`AlgoMode::Baseline`]: tle_core::AlgoMode::Baseline
pub struct NestedQueue<T: Send> {
    inner: parking_lot::Mutex<std::collections::VecDeque<Box<T>>>,
    cv: parking_lot::Condvar,
    closed: parking_lot::Mutex<bool>,
}

impl<T: Send> NestedQueue<T> {
    /// An unbounded baseline-only queue.
    pub fn new() -> Self {
        NestedQueue {
            inner: parking_lot::Mutex::new(std::collections::VecDeque::new()),
            cv: parking_lot::Condvar::new(),
            closed: parking_lot::Mutex::new(false),
        }
    }

    /// Listing 3: hold the queue lock across the whole produce step.
    pub fn produce_while_locked(&self, produce: impl FnOnce() -> Box<T>) {
        let mut q = self.inner.lock();
        // The produce step runs with the lock held — the non-2PL pattern.
        let item = produce();
        q.push_back(item);
        drop(q);
        self.cv.notify_one();
    }

    /// Pop, blocking until an item or close.
    pub fn pop(&self) -> Option<Box<T>> {
        let mut q = self.inner.lock();
        loop {
            if let Some(item) = q.pop_front() {
                return Some(item);
            }
            if *self.closed.lock() {
                return None;
            }
            self.cv.wait(&mut q);
        }
    }

    /// Close the queue.
    pub fn close(&self) {
        *self.closed.lock() = true;
        self.cv.notify_all();
    }
}

impl<T: Send> Default for NestedQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tle_core::{AlgoMode, TmSystem, ALL_MODES};

    #[test]
    fn reserve_produce_publish_pop() {
        let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
        let th = sys.register();
        let q: ReadyQueue<u32> = ReadyQueue::new(4);
        let r = q.reserve(&th).unwrap();
        // produce outside the lock...
        q.publish(&th, r, Box::new(42));
        assert_eq!(*q.pop_ready(&th).unwrap(), 42);
        q.close(&th);
        assert!(q.pop_ready(&th).is_none());
        assert!(q.reserve(&th).is_none());
    }

    #[test]
    fn consumer_waits_for_ready_flag_not_just_presence() {
        for mode in ALL_MODES {
            let sys = Arc::new(TmSystem::new(mode));
            let q: Arc<ReadyQueue<u32>> = Arc::new(ReadyQueue::new(4));

            // Producer reserves, dawdles, then publishes.
            let producer = {
                let sys = Arc::clone(&sys);
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let th = sys.register();
                    let r = q.reserve(&th).unwrap();
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    q.publish(&th, r, Box::new(7));
                })
            };
            let consumer = {
                let sys = Arc::clone(&sys);
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let th = sys.register();
                    let t0 = std::time::Instant::now();
                    let v = *q.pop_ready(&th).unwrap();
                    (v, t0.elapsed())
                })
            };
            producer.join().unwrap();
            let (v, waited) = consumer.join().unwrap();
            assert_eq!(v, 7, "wrong value under {mode:?}");
            assert!(
                waited >= std::time::Duration::from_millis(15),
                "consumer did not wait for the ready flag under {mode:?}"
            );
        }
    }

    #[test]
    fn fifo_order_preserved_with_out_of_order_publish() {
        let sys = Arc::new(TmSystem::new(AlgoMode::HtmCondvar));
        let th = sys.register();
        let q: ReadyQueue<u64> = ReadyQueue::new(8);
        let r0 = q.reserve(&th).unwrap();
        let r1 = q.reserve(&th).unwrap();
        // Publish the *second* reservation first.
        q.publish(&th, r1, Box::new(1));
        // Head is still not ready; a non-blocking check isn't offered, so
        // publish r0 and verify order.
        q.publish(&th, r0, Box::new(0));
        assert_eq!(*q.pop_ready(&th).unwrap(), 0);
        assert_eq!(*q.pop_ready(&th).unwrap(), 1);
    }

    #[test]
    fn pipeline_through_ready_queue_every_mode() {
        for mode in ALL_MODES {
            let sys = Arc::new(TmSystem::new(mode));
            let q: Arc<ReadyQueue<u64>> = Arc::new(ReadyQueue::new(3));
            const N: u64 = 500;
            let producer = {
                let sys = Arc::clone(&sys);
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let th = sys.register();
                    for i in 0..N {
                        let r = q.reserve(&th).unwrap();
                        q.publish(&th, r, Box::new(i * i));
                    }
                    q.close(&th);
                })
            };
            let th = sys.register();
            let mut got = Vec::new();
            while let Some(v) = q.pop_ready(&th) {
                got.push(*v);
            }
            producer.join().unwrap();
            let expect: Vec<u64> = (0..N).map(|i| i * i).collect();
            assert_eq!(got, expect, "order or loss under {mode:?}");
        }
    }

    #[test]
    fn nested_queue_baseline_shape_works() {
        let q: Arc<NestedQueue<u32>> = Arc::new(NestedQueue::new());
        let q2 = Arc::clone(&q);
        let t = std::thread::spawn(move || {
            for i in 0..100 {
                q2.produce_while_locked(|| Box::new(i));
            }
            q2.close();
        });
        let mut got = Vec::new();
        while let Some(v) = q.pop() {
            got.push(*v);
        }
        t.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn drop_frees_ready_items() {
        let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
        let th = sys.register();
        let q: ReadyQueue<Vec<u8>> = ReadyQueue::new(4);
        let r = q.reserve(&th).unwrap();
        q.publish(&th, r, Box::new(vec![1, 2, 3]));
        drop(q);
    }
}
