//! Deterministic coverage of the *waker path*: the async runner's condvar
//! waits (`run_async` / `try_run_async`) explored under the model checker.
//!
//! The scenario threads drive their futures through the production inline
//! poller ([`tle_base::park::block_on`], the one behind the sync terminals)
//! — no executor, every poll and every waker delivery happens inside a
//! vthread — so the explorer controls the exact
//! interleaving of commit-then-block registration, `Waiter::poll_signaled`
//! waker arming, and the signaller's commit-deferred `Waiter::notify`:
//!
//! - **commit-then-block (async)**: the wait registration commits before
//!   the task suspends, across every algorithm mode — a lost wakeup
//!   freezes the step counter and fails the schedule as a deadlock;
//! - **cross-path wakeups**: a sync signaller must deliver to an armed
//!   async waker, and an async signaller must unpark a sync OS waiter —
//!   both directions share one `Waiter` channel;
//! - **signal races timeout (async)**: a timed async wait (degraded
//!   hot-polling timer — no executor) racing a signaller must leave the
//!   ring consistent whichever wins, including the `cancel_wait`
//!   removal transactions;
//! - **deferred signal (async)**: an aborted async signaller attempt must
//!   wake no one; only the committed retry delivers.

mod common;

use common::handoff_scenario_async;
use std::sync::Arc;
use std::time::Duration;
use tle_base::park::block_on;
use tle_base::TCell;
use tle_check::{explore, Config, Scenario};
use tle_core::{AlgoMode, ElidableMutex, TmSystem, TxCondvar};
use tle_stm::StmAlgo;

#[test]
fn commit_then_block_async_stm_mlwt() {
    explore(&Config::dfs(2, 300), || {
        handoff_scenario_async(AlgoMode::StmCondvar, StmAlgo::MlWt, true, true)
    })
    .assert_clean();
}

#[test]
fn commit_then_block_async_stm_norec() {
    explore(&Config::dfs(2, 300), || {
        handoff_scenario_async(AlgoMode::StmCondvar, StmAlgo::Norec, true, true)
    })
    .assert_clean();
}

/// Spin mode never arms a waker: the committed wait degrades to re-running
/// the section after a forced rotation (`block_on_async`'s poll path), so
/// this case pins the polling degradation rather than waker delivery.
#[test]
fn commit_then_block_async_stm_spin() {
    explore(&Config::dfs(2, 200), || {
        handoff_scenario_async(AlgoMode::StmSpin, StmAlgo::MlWt, true, true)
    })
    .assert_clean();
}

#[test]
fn commit_then_block_async_htm() {
    explore(&Config::dfs(2, 300), || {
        handoff_scenario_async(AlgoMode::HtmCondvar, StmAlgo::MlWt, true, true)
    })
    .assert_clean();
}

#[test]
fn commit_then_block_async_adaptive_htm() {
    explore(&Config::dfs(2, 300), || {
        handoff_scenario_async(AlgoMode::AdaptiveHtm, StmAlgo::MlWt, true, true)
    })
    .assert_clean();
}

#[test]
fn commit_then_block_async_baseline() {
    explore(&Config::dfs(2, 200), || {
        handoff_scenario_async(AlgoMode::Baseline, StmAlgo::MlWt, true, true)
    })
    .assert_clean();
}

/// Sync producer, async consumer: the condvar-notify commit path must find
/// and fire the waker armed by `poll_signaled`.
#[test]
fn sync_signal_wakes_async_waiter_stm() {
    explore(&Config::dfs(2, 300), || {
        handoff_scenario_async(AlgoMode::StmCondvar, StmAlgo::MlWt, true, false)
    })
    .assert_clean();
}

#[test]
fn sync_signal_wakes_async_waiter_htm() {
    explore(&Config::dfs(2, 300), || {
        handoff_scenario_async(AlgoMode::HtmCondvar, StmAlgo::MlWt, true, false)
    })
    .assert_clean();
}

/// Async producer, sync consumer: the deferred notify fired from a polled
/// future must unpark an OS-parked waiter.
#[test]
fn async_signal_wakes_sync_waiter_stm() {
    explore(&Config::dfs(2, 300), || {
        handoff_scenario_async(AlgoMode::StmCondvar, StmAlgo::MlWt, false, true)
    })
    .assert_clean();
}

#[test]
fn async_signal_wakes_sync_waiter_htm() {
    explore(&Config::dfs(2, 300), || {
        handoff_scenario_async(AlgoMode::HtmCondvar, StmAlgo::MlWt, false, true)
    })
    .assert_clean();
}

/// Async twin of `condvar_check::timed_handoff`: the timed wait runs with
/// no executor, so the timer degrades to hot re-polling (`exec::Sleep`
/// outside a worker wakes immediately) and the timeout edge exercises
/// `cancel_wait_async` — the transactional ring removal with async gate
/// entry and transient slot claims. Whichever wins, the consumer must
/// observe the value.
fn timed_handoff_async(mode: AlgoMode, signal: bool) -> Scenario {
    let sys = Arc::new(TmSystem::new(mode));
    let lock = Arc::new(ElidableMutex::new("check-timed-async"));
    let cv = Arc::new(TxCondvar::new());
    let flag = Arc::new(TCell::new(0u64));
    let value = Arc::new(TCell::new(0u64));
    let seen = Arc::new(TCell::new(0u64));
    let init = vec![(flag.addr(), 0), (value.addr(), 0), (seen.addr(), 0)];

    let consumer: Box<dyn FnOnce() + Send> = {
        let sys = Arc::clone(&sys);
        let lock = Arc::clone(&lock);
        let cv = Arc::clone(&cv);
        let flag = Arc::clone(&flag);
        let value = Arc::clone(&value);
        let seen = Arc::clone(&seen);
        Box::new(move || {
            let th = sys.register();
            let got = block_on(th.tx(&lock).run_async(|ctx| {
                if ctx.read(&*flag)? == 0 {
                    // Short timeout: the producer runs while we are
                    // suspended (or while we hot-poll the degraded timer),
                    // so a timed-out retry re-reads the flag as set.
                    return ctx.wait(&cv, Some(Duration::from_millis(3))).map(|_| 0);
                }
                let v = ctx.read(&*value)?;
                ctx.write(&*seen, v)?;
                Ok(v)
            }));
            assert_eq!(got, 55, "consumer finished without the handoff");
        })
    };
    let producer: Box<dyn FnOnce() + Send> = {
        let sys = Arc::clone(&sys);
        let lock = Arc::clone(&lock);
        let cv = Arc::clone(&cv);
        let flag = Arc::clone(&flag);
        let value = Arc::clone(&value);
        Box::new(move || {
            let th = sys.register();
            block_on(th.tx(&lock).run_async(|ctx| {
                ctx.write(&*value, 55u64)?;
                ctx.write(&*flag, 1u64)?;
                if signal {
                    ctx.signal(&cv)?;
                }
                Ok(())
            }));
        })
    };

    let post_seen = Arc::clone(&seen);
    Scenario {
        threads: vec![consumer, producer],
        init,
        post: Box::new(move |_| {
            let v = post_seen.load_direct();
            if v != 55 {
                return Err(format!("consumer recorded {v}, expected 55"));
            }
            Ok(())
        }),
    }
}

#[test]
fn signal_races_timeout_async_stm() {
    explore(&Config::dfs(2, 120), || {
        timed_handoff_async(AlgoMode::StmCondvar, true)
    })
    .assert_clean();
}

#[test]
fn signal_races_timeout_async_htm() {
    explore(&Config::dfs(2, 120), || {
        timed_handoff_async(AlgoMode::HtmCondvar, true)
    })
    .assert_clean();
}

/// No signal at all: every async wakeup is a timeout, every timeout runs
/// `cancel_wait_async`, and the consumer still converges because the
/// producer's flag write lands in the meantime.
#[test]
fn timeout_cancellation_converges_async() {
    explore(&Config::dfs(2, 120), || {
        timed_handoff_async(AlgoMode::StmCondvar, false)
    })
    .assert_clean();
}

/// Async twin of `condvar_check::aborted_signaller`: the async producer's
/// first attempt writes, signals, then cancels — the aborted attempt's
/// deferred notify must roll back with it (no waker fires), and only the
/// committed retry wakes the suspended consumer.
fn aborted_signaller_async(mode: AlgoMode) -> Scenario {
    let sys = Arc::new(TmSystem::new(mode));
    let lock = Arc::new(ElidableMutex::new("check-abort-sig-async"));
    let cv = Arc::new(TxCondvar::new());
    let flag = Arc::new(TCell::new(0u64));
    let value = Arc::new(TCell::new(0u64));
    let seen = Arc::new(TCell::new(0u64));
    let init = vec![(flag.addr(), 0), (value.addr(), 0), (seen.addr(), 0)];

    let consumer: Box<dyn FnOnce() + Send> = {
        let sys = Arc::clone(&sys);
        let lock = Arc::clone(&lock);
        let cv = Arc::clone(&cv);
        let flag = Arc::clone(&flag);
        let value = Arc::clone(&value);
        let seen = Arc::clone(&seen);
        Box::new(move || {
            let th = sys.register();
            let got = block_on(th.tx(&lock).run_async(|ctx| {
                if ctx.read(&*flag)? == 0 {
                    return ctx.wait(&cv, None).map(|_| 0);
                }
                let v = ctx.read(&*value)?;
                ctx.write(&*seen, v)?;
                Ok(v)
            }));
            assert_eq!(got, 55, "consumer woke without the committed handoff");
        })
    };
    let producer: Box<dyn FnOnce() + Send> = {
        let sys = Arc::clone(&sys);
        let lock = Arc::clone(&lock);
        let cv = Arc::clone(&cv);
        let flag = Arc::clone(&flag);
        let value = Arc::clone(&value);
        Box::new(move || {
            let th = sys.register();
            let mut cancelled = false;
            block_on(th.tx(&lock).run_async(|ctx| {
                ctx.write(&*value, 55u64)?;
                ctx.write(&*flag, 1u64)?;
                ctx.signal(&cv)?;
                // Cancel only inside a real transaction: retries that burn
                // the HTM budget fall back to serial-irrevocable mode,
                // where cancel is (correctly) a panic.
                if !cancelled && ctx.is_transactional() {
                    cancelled = true;
                    return Err(ctx.cancel());
                }
                Ok(())
            }));
        })
    };

    let post_seen = Arc::clone(&seen);
    Scenario {
        threads: vec![consumer, producer],
        init,
        post: Box::new(move |_| {
            let v = post_seen.load_direct();
            if v != 55 {
                return Err(format!("consumer recorded {v}, expected 55"));
            }
            Ok(())
        }),
    }
}

#[test]
fn aborted_signal_wakes_no_one_async_stm() {
    explore(&Config::dfs(2, 200), || {
        aborted_signaller_async(AlgoMode::StmCondvar)
    })
    .assert_clean();
}

#[test]
fn aborted_signal_wakes_no_one_async_htm() {
    explore(&Config::dfs(2, 200), || {
        aborted_signaller_async(AlgoMode::HtmCondvar)
    })
    .assert_clean();
}
