// R6 negative: the sanctioned async shapes. Awaiting the section future
// itself is the API (`.run_async(..).await` — the await is *outside* the
// closure); `ctx.wait` suspends safely because the transaction commits
// before parking; and async work between sections never holds speculative
// state.

async fn await_the_section(th: &ThreadHandle, lock: &ElidableMutex, c: &TCell<u64>) {
    th.tx(lock)
        .run_async(|ctx| {
            ctx.update(c, |v| v + 1)?;
            Ok(())
        })
        .await;
}

async fn tx_wait_is_safe(th: &ThreadHandle, lock: &ElidableMutex, cv: &TxCondvar, c: &TCell<bool>) {
    th.tx(lock)
        .run_async(|ctx| {
            if !ctx.read(c)? {
                return ctx.wait(cv, None);
            }
            Ok(())
        })
        .await;
}

async fn async_work_between_sections(th: &ThreadHandle, lock: &ElidableMutex, c: &TCell<u64>) {
    let v = th.tx(lock).run_async(|ctx| ctx.read(c)).await;
    let enriched = fetch_remote(v).await;
    th.tx(lock)
        .deadline(Duration::from_millis(5))
        .try_run_async(|ctx| ctx.write(c, enriched))
        .await;
}
