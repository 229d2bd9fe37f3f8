//! Transaction-set buffers are leased from a per-thread pool and returned
//! on commit *and* on abort, so a thread running section after section —
//! retries included — allocates exactly one buffer block.
//!
//! The allocation counters are process-global, so this check lives in its
//! own test binary with a single test: nothing else can lease concurrently.

use tle_base::{AbortCause, TCell};
use tle_stm::{buf_alloc_stats, reset_buf_alloc_stats, QuiescePolicy, StmGlobal};

#[test]
fn one_thread_allocates_one_block_across_sections_and_retries() {
    const SECTIONS: u64 = 200;
    let g = StmGlobal::new(QuiescePolicy::Always);
    let slot = g.slots.register_raw().unwrap();
    let cells: Vec<TCell<u64>> = (0..8).map(|_| TCell::new(0)).collect();
    reset_buf_alloc_stats();

    let mut attempts = 0u64;
    for i in 0..SECTIONS {
        // Every fourth section aborts its first attempt after writing, the
        // way a conflicting attempt rolls back, and then retries.
        let mut retry = i % 4 == 0;
        loop {
            attempts += 1;
            let mut tx = g.begin(slot);
            let c = &cells[i as usize % cells.len()];
            let v = tx.read(c).unwrap();
            tx.write(c, v + 1).unwrap();
            if retry {
                tx.abort(AbortCause::Explicit);
                retry = false;
                continue;
            }
            tx.commit().unwrap();
            break;
        }
    }
    g.slots.unregister_raw(slot);

    let total: u64 = cells.iter().map(TCell::load_direct).sum();
    assert_eq!(total, SECTIONS, "every section committed exactly once");
    assert!(attempts > SECTIONS, "some sections must have retried");
    let stats = buf_alloc_stats();
    assert_eq!(stats.fresh_allocs, 1, "{stats:?}");
    assert!(stats.reused >= SECTIONS - 1, "{stats:?}");
    assert_eq!(stats.fresh_allocs + stats.reused, attempts, "{stats:?}");
}
