//! One-shot reproduction summary: a fast pass over every headline claim of
//! the paper, printed as a checklist. (The full parameter sweeps are the
//! figures of `tle-bench emit`; this runs in well under a minute.)
//!
//! Run: `cargo run --release --example paper_repro`

use std::sync::Arc;
use std::time::Instant;
use tle_repro::pbz::{compress_parallel, decompress_parallel, gen_text, PipelineConfig};
use tle_repro::prelude::*;
use tle_repro::wfe::{encode_video, EncoderConfig, VideoSource};

fn check(name: &str, detail: String, ok: bool) {
    println!(
        "  [{}] {:<52} {}",
        if ok { "ok" } else { "!!" },
        name,
        detail
    );
}

fn main() {
    println!("Practical Experience with Transactional Lock Elision — reproduction checklist\n");

    // 1. PBZip2 under all five algorithms (Figure 2's program).
    println!("PBZip2 (Fig. 2):");
    let input = gen_text(0x650, 1_500_000);
    let cfg = PipelineConfig {
        workers: 4,
        block_size: 100_000,
        fifo_cap: 8,
    };
    let mut times = Vec::new();
    let mut reference_out: Option<Vec<u8>> = None;
    for mode in ALL_MODES {
        let sys = Arc::new(TmSystem::new(mode));
        let t0 = Instant::now();
        let c = compress_parallel(&sys, &input, &cfg);
        let secs = t0.elapsed().as_secs_f64();
        let ok = decompress_parallel(&sys, &c, &cfg)
            .map(|d| d == input)
            .unwrap_or(false);
        match &reference_out {
            None => reference_out = Some(c),
            Some(r) => assert_eq!(r, &c, "outputs differ across algorithms"),
        }
        check(
            &format!("compress+verify under {}", mode.label()),
            format!("{secs:.3}s"),
            ok,
        );
        times.push((mode, secs));
    }
    let base = times[0].1;
    let worst = times.iter().map(|(_, s)| s / base).fold(0.0f64, f64::max);
    check(
        "TM overhead vs pthread bounded",
        format!("worst {:.2}x of baseline", worst),
        worst < 2.0,
    );

    // 2. x265-style encoder (Figure 3's program): bit-identical output.
    println!("\nWavefront encoder (Fig. 3):");
    let source = VideoSource::new(96, 64, 8, 0xFEED);
    let mut golden: Option<Vec<u32>> = None;
    for mode in ALL_MODES {
        let sys = Arc::new(TmSystem::new(mode));
        let t0 = Instant::now();
        let v = encode_video(&sys, &source, &EncoderConfig::default());
        let digests: Vec<u32> = v.frames.iter().map(|f| f.digest).collect();
        let same = match &golden {
            None => {
                golden = Some(digests);
                true
            }
            Some(g) => g == &digests,
        };
        check(
            &format!("encode under {}", mode.label()),
            format!("{:.3}s, {} bits", t0.elapsed().as_secs_f64(), v.total_bits),
            same,
        );
    }

    // 3. §IV: quiescence economics — a long transaction stalls unrelated
    // committers; TM_NoQuiesce decouples them.
    println!("\nQuiescence (§IV):");
    let measure = |policy: QuiescePolicy, annotate: bool| -> (f64, u64) {
        let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
        sys.stm.set_policy(policy);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let long = {
            let sys = Arc::clone(&sys);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let th = sys.register();
                let lock = ElidableMutex::new("long");
                let cells: Vec<TCell<u64>> = (0..256).map(TCell::new).collect();
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    th.tx(&lock).run(|ctx| {
                        let mut acc = 0u64;
                        for c in &cells {
                            acc = acc.wrapping_add(ctx.read(c)?);
                        }
                        for _ in 0..2000 {
                            std::hint::spin_loop();
                        }
                        std::hint::black_box(acc);
                        Ok(())
                    });
                }
            })
        };
        // Let the long transaction actually get going (one CPU: give it
        // the scheduler slot).
        std::thread::sleep(std::time::Duration::from_millis(20));
        let th = sys.register();
        let lock = ElidableMutex::new("fg");
        let cell = TCell::new(0u64);
        const OPS: u64 = 30_000;
        let t0 = Instant::now();
        for _ in 0..OPS {
            th.tx(&lock).run(|ctx| {
                ctx.update(&cell, |v| v + 1)?;
                if annotate {
                    ctx.no_quiesce();
                }
                Ok(())
            });
        }
        let us = t0.elapsed().as_micros() as f64 / OPS as f64;
        let waited_ns = sys.stm.stats.snapshot().quiesce_wait_ns;
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        long.join().unwrap();
        (us, waited_ns)
    };
    let (with_drain, wait_ns) = measure(QuiescePolicy::Always, false);
    let (without, _) = measure(QuiescePolicy::Selective, true);
    check(
        "long txn stalls unrelated committers (Always)",
        format!(
            "{with_drain:.2} us/commit, {:.1} ms total drain wait",
            wait_ns as f64 / 1e6
        ),
        wait_ns > 0,
    );
    check(
        "TM_NoQuiesce removes the coupling (Selective)",
        format!(
            "{without:.2} us/commit ({:.1}x faster)",
            with_drain / without
        ),
        without <= with_drain,
    );

    // 4. Figure 5 in one line per structure.
    println!("\nSet microbenchmarks (Fig. 5, 4 threads, 50% lookups):");
    for kind in ["list", "hash", "tree"] {
        let tput = |policy: QuiescePolicy| {
            let (t, _) = tle_bench_like(kind, policy);
            t / 1e6
        };
        let stm = tput(QuiescePolicy::Always);
        let noq = tput(QuiescePolicy::Never);
        let sel = tput(QuiescePolicy::Selective);
        check(
            &format!("{kind}: NoQ/SelectNoQ vs STM"),
            format!("STM {stm:.2} | NoQ {noq:.2} | SelectNoQ {sel:.2} Mops/s"),
            sel >= stm * 0.8 && noq >= stm * 0.8,
        );
    }

    println!("\ndone — see EXPERIMENTS.md for the full tables and `tle-bench emit` for the sweeps");
}

/// A minimal inline version of the Figure 5 trial (4 threads, 40k ops).
fn tle_bench_like(kind: &str, policy: QuiescePolicy) -> (f64, ()) {
    use tle_repro::txset::{TxHashSet, TxListSet, TxSet, TxTreeSet};
    let set: Arc<dyn TxSet> = match kind {
        "list" => Arc::new(TxListSet::new()),
        "hash" => Arc::new(TxHashSet::new()),
        _ => Arc::new(TxTreeSet::new()),
    };
    let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
    sys.stm.set_policy(policy);
    {
        let th = sys.register();
        for k in (0..set.key_space()).step_by(2) {
            set.insert(&th, k);
        }
    }
    let threads = 4;
    let ops = 40_000u64;
    let t0 = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let sys = Arc::clone(&sys);
            let set = Arc::clone(&set);
            std::thread::spawn(move || {
                let th = sys.register();
                let mut rng = tle_repro::base::rng::XorShift64::new(t as u64);
                for _ in 0..ops {
                    let k = rng.below(set.key_space());
                    match rng.below(4) {
                        0 => {
                            set.insert(&th, k);
                        }
                        1 => {
                            set.remove(&th, k);
                        }
                        _ => {
                            set.contains(&th, k);
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let secs = t0.elapsed().as_secs_f64();
    ((threads as f64 * ops as f64) / secs, ())
}
