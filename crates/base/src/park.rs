//! The park abstraction: how a stalled wait edge leaves the CPU.
//!
//! The TM kernels have a fixed set of edges where a thread stops making
//! progress until another thread acts: condvar parks, serial-gate drains,
//! baseline mutex acquisition, quiescence stragglers. Historically every
//! such edge parked the *OS thread* (the [`crate::sched::block_enter`] /
//! [`crate::sched::block_exit`] brackets mark exactly these sites). With the
//! in-tree async executor ([`crate::exec`]) the same edges must instead
//! return `Poll::Pending` and re-arm a task [`std::task::Waker`] — an OS
//! park on an executor worker would freeze every task multiplexed onto it.
//!
//! [`Parker`] is the trait naming the two backends; the installed backend is
//! a per-thread mode switch:
//!
//! - [`OsPark`] (default): OS-thread waits are legal. Plain threads, the
//!   synchronous `run`/`try_run` terminals, and `tle-check`'s cooperative
//!   explorer all run here.
//! - [`WakerPark`]: installed by executor workers. Reaching a real OS park
//!   under it is a bug in the runtime — the async runner must have routed
//!   the wait through a pollable primitive instead — so
//!   [`enter_os_park`] fails a debug assertion (pinned by a test).
//!
//! The assertion piggybacks on the existing `block_enter` sites: every OS
//! park in the kernels is already bracketed, so auditing the waker backend
//! reduces to auditing one function.
//!
//! [`block_on`] is the inline poller that lets one future-shaped runner
//! serve synchronous callers: it drives a future on the calling thread and
//! parks that thread (bracketed like every other kernel park) only while
//! the future is truly suspended.

use crate::sched::{self, YieldPoint};
use std::cell::Cell;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

/// Which backend absorbs a blocking wait on the current thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParkMode {
    /// OS-thread waits (`thread::park`, condvar waits, blocking mutex
    /// acquisition) are legal on this thread.
    Os,
    /// This thread is an async executor worker: waits must surface as
    /// `Poll::Pending` + waker re-arm; OS parks are forbidden.
    Waker,
}

/// A park backend. The two implementations are zero-sized mode tags — the
/// kernels consult the *installed mode* ([`current_mode`]) rather than
/// dynamic dispatch, so the hot path stays one thread-local read (and only
/// in debug builds).
pub trait Parker {
    /// Which mode this backend runs waits under.
    fn mode(&self) -> ParkMode;
    /// Called when a kernel edge is about to block the OS thread. The waker
    /// backend treats this as a contract violation.
    fn before_os_park(&self) {}
}

/// The default backend: blocking in the OS is fine.
#[derive(Debug, Default, Clone, Copy)]
pub struct OsPark;

impl Parker for OsPark {
    fn mode(&self) -> ParkMode {
        ParkMode::Os
    }
}

/// The executor-worker backend: a reached OS park is a runtime bug.
#[derive(Debug, Default, Clone, Copy)]
pub struct WakerPark;

impl Parker for WakerPark {
    fn mode(&self) -> ParkMode {
        ParkMode::Waker
    }

    fn before_os_park(&self) {
        panic!(
            "OS park reached under the waker backend: an async executor \
             worker attempted a blocking OS wait; route the wait through a \
             pollable primitive (Waiter::poll_signaled, Gate::poll_*, \
             quiesce drain_pass) instead"
        );
    }
}

thread_local! {
    static MODE: Cell<ParkMode> = const { Cell::new(ParkMode::Os) };
}

/// Install `backend`'s mode on the current thread, returning a guard that
/// restores the previous mode when dropped. Executor workers install
/// [`WakerPark`] for their whole life.
pub fn install(backend: &dyn Parker) -> ModeGuard {
    let prev = MODE.with(|m| m.replace(backend.mode()));
    ModeGuard { prev }
}

/// The park mode installed on the current thread.
#[inline]
pub fn current_mode() -> ParkMode {
    MODE.with(|m| m.get())
}

/// Restores the previously installed [`ParkMode`] on drop.
#[must_use = "dropping the guard restores the previous park mode"]
pub struct ModeGuard {
    prev: ParkMode,
}

impl Drop for ModeGuard {
    fn drop(&mut self) {
        MODE.with(|m| m.set(self.prev));
    }
}

/// Audit hook fired by [`crate::sched::block_enter`] — i.e. at every real OS
/// park in the kernels. Debug builds verify the waker backend never reaches
/// one; release builds compile this to nothing (the sync hot path pays no
/// thread-local read).
#[inline(always)]
pub fn enter_os_park() {
    #[cfg(debug_assertions)]
    {
        if current_mode() == ParkMode::Waker {
            WakerPark.before_os_park();
        }
    }
}

/// Drive `fut` to completion on the calling thread, with no executor.
///
/// The first poll runs with a no-op waker — the no-wait fast path: a future
/// that completes without suspending (every synchronous critical section)
/// never builds a waker. If it returns `Pending`, the future is re-polled
/// at once with a waker that unparks this thread (a correct future
/// re-registers on every poll, so a wake lost to the no-op waker is seen by
/// the re-poll). From then on two kinds of `Pending` are told apart by
/// whether that waker already fired:
///
/// - **hot re-polls** (the waker fired during the poll — a task yield, a
///   degraded no-executor timer) rotate the cooperative scheduler with
///   `spin_hint(Park)` and yield the OS thread, so co-scheduled threads run
///   between polls;
/// - **true suspensions** park the OS thread inside
///   [`sched::block_enter`]/[`sched::block_exit`], exactly like a kernel
///   park: the thread leaves the explorer's runnable set (a lost wakeup
///   freezes the step counter), and the waker-backend audit fires if an
///   executor worker ever gets here.
#[inline]
pub fn block_on<F: Future>(fut: F) -> F::Output {
    let mut fut = std::pin::pin!(fut);
    match fut.as_mut().poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(v) => v,
        Poll::Pending => park_until_ready(fut),
    }
}

/// [`block_on`] past its fast path: re-poll with a waker that unparks this
/// thread until the future completes.
#[cold]
fn park_until_ready<F: Future>(mut fut: Pin<&mut F>) -> F::Output {
    let unparker = Arc::new(Unparker {
        thread: std::thread::current(),
        woken: AtomicBool::new(false),
    });
    let waker = Waker::from(Arc::clone(&unparker));
    let mut cx = Context::from_waker(&waker);
    loop {
        if let Poll::Ready(v) = fut.as_mut().poll(&mut cx) {
            return v;
        }
        if unparker.woken.swap(false, Ordering::AcqRel) {
            sched::spin_hint(YieldPoint::Park);
            std::thread::yield_now();
        } else {
            sched::block_enter();
            while !unparker.woken.swap(false, Ordering::AcqRel) {
                std::thread::park();
            }
            sched::block_exit();
        }
    }
}

/// [`block_on`]'s waker: flag the wake, then unpark the polling thread.
struct Unparker {
    thread: std::thread::Thread,
    woken: AtomicBool,
}

impl Wake for Unparker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.woken.store(true, Ordering::Release);
        self.thread.unpark();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_mode_is_os() {
        assert_eq!(current_mode(), ParkMode::Os);
        enter_os_park(); // must not panic
    }

    #[test]
    fn install_and_restore() {
        assert_eq!(current_mode(), ParkMode::Os);
        {
            let _g = install(&WakerPark);
            assert_eq!(current_mode(), ParkMode::Waker);
            {
                let _g2 = install(&OsPark);
                assert_eq!(current_mode(), ParkMode::Os);
            }
            assert_eq!(current_mode(), ParkMode::Waker);
        }
        assert_eq!(current_mode(), ParkMode::Os);
    }

    #[test]
    fn backends_report_their_modes() {
        assert_eq!(OsPark.mode(), ParkMode::Os);
        assert_eq!(WakerPark.mode(), ParkMode::Waker);
        OsPark.before_os_park(); // default impl: no-op
    }

    /// The blocking-wait audit: the waker backend must never reach an OS
    /// park. This is the pin for the debug assertion wired into
    /// `sched::block_enter`.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "OS park reached"))]
    fn waker_backend_rejects_os_park() {
        let _g = install(&WakerPark);
        enter_os_park();
        // Release builds compile the check out; make the test pass there.
        #[cfg(not(debug_assertions))]
        panic!("OS park reached (release-mode stand-in)");
    }

    #[test]
    fn block_on_completes_ready_and_suspended_futures() {
        assert_eq!(block_on(async { 7 }), 7);
        // A future that suspends until another thread wakes it.
        let flag = Arc::new(std::sync::Mutex::new((false, None::<Waker>)));
        let f2 = Arc::clone(&flag);
        let waker_thread = std::thread::spawn(move || loop {
            let mut g = f2.lock().unwrap();
            if let Some(w) = g.1.take() {
                g.0 = true;
                w.wake();
                return;
            }
            drop(g);
            std::thread::yield_now();
        });
        let got = block_on(std::future::poll_fn(|cx| {
            let mut g = flag.lock().unwrap();
            if g.0 {
                Poll::Ready(42)
            } else {
                g.1 = Some(cx.waker().clone());
                Poll::Pending
            }
        }));
        waker_thread.join().unwrap();
        assert_eq!(got, 42);
    }
}
