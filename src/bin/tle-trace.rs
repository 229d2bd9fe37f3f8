//! `tle-trace` — run a workload with the transaction event ring enabled and
//! dump or summarize what it recorded.
//!
//! ```console
//! $ cargo run --features trace --bin tle-trace -- summary --mode htm --threads 4
//! $ cargo run --features trace --bin tle-trace -- dump --mode stm-condvar --tail 50
//! ```
//!
//! The tracer is a per-thread ring of the most recent events
//! ([`trace::RING_CAP`] per thread), so `dump` shows the *end* of each
//! thread's history — exactly the window you want when diagnosing why a
//! run went to the serial fallback. Without `--features trace` the hooks
//! compile to no-ops and this tool reports an empty ring rather than
//! fabricating data.

mod cli;

use cli::{opt, opt_parse};
use std::sync::Arc;
use tle_repro::base::trace;
use tle_repro::base::AbortCause;
use tle_repro::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(|s| s.as_str()) {
        Some("summary") => run(&args[1..], false),
        Some("dump") => run(&args[1..], true),
        _ => {
            eprintln!(
                "usage: tle-trace <summary|dump> [options]\n\
                 \n\
                 summary    per-kind and per-cause event totals\n\
                 dump       print the recorded events themselves\n\
                 \n\
                 options:\n\
                 \u{20} --mode M      baseline|stm-spin|stm-condvar|stm-noquiesce|htm|\n\
                 \u{20}               adaptive-htm (default htm)\n\
                 \u{20} --threads N   worker threads for the probe workload (default 4)\n\
                 \u{20} --ops N       operations per thread (default 20000)\n\
                 \u{20} --cells N     shared counters, lower = more conflicts (default 4)\n\
                 \u{20} --tail N      dump: only the last N events (default all)\n\
                 \u{20} --cause C     dump: only events attributed to this abort cause\n\
                 \u{20}               (e.g. conflict, capacity, event; see `fig4` legend)\n\
                 \u{20} --faults N    run the probe under the standard torture fault plan\n\
                 \u{20}               seeded with N (surfaces fault-inject/escalate/\n\
                 \u{20}               quiesce-stall events)\n\
                 \n\
                 (build with `--features trace` or the ring records nothing)"
            );
            2
        }
    };
    std::process::exit(code);
}

/// Diagnosable CLI failures: an unrecognized flag names itself on stderr
/// and exits 2 instead of being silently ignored. Returns the usage exit
/// code as an error so `run` can propagate it.
fn reject_unknown_flags(args: &[String]) -> Result<(), i32> {
    const VALUE_FLAGS: [&str; 7] = [
        "--mode",
        "--threads",
        "--ops",
        "--cells",
        "--tail",
        "--cause",
        "--faults",
    ];
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if VALUE_FLAGS.contains(&a) {
            i += 2; // skip the flag's value
            continue;
        }
        eprintln!(
            "tle-trace: unknown argument `{a}` (valid: {})",
            VALUE_FLAGS.join(" ")
        );
        return Err(2);
    }
    Ok(())
}

fn parse_mode(args: &[String]) -> Result<AlgoMode, i32> {
    match opt(args, "--mode") {
        None => Ok(AlgoMode::HtmCondvar),
        Some(spec) => spec.parse::<AlgoMode>().map_err(|e| {
            eprintln!("{e}");
            2
        }),
    }
}

/// A deliberately contended probe: `threads` workers increment a handful of
/// shared counters under one elided lock. Small `--cells` values produce
/// conflict aborts; the trace shows how the runtime resolved them.
fn run(args: &[String], dump: bool) -> i32 {
    if let Err(code) = reject_unknown_flags(args) {
        return code;
    }
    let mode = match parse_mode(args) {
        Ok(m) => m,
        Err(code) => return code,
    };
    let threads: usize = opt_parse(args, "--threads", 4);
    let ops: u64 = opt_parse(args, "--ops", 20_000);
    let cells: usize = opt_parse(args, "--cells", 4).max(1);
    let tail: usize = opt_parse(args, "--tail", usize::MAX);
    let fault_seed = opt(args, "--faults").map(|_| opt_parse::<u64>(args, "--faults", 0));
    if !trace::compiled() {
        eprintln!(
            "note: built without the `trace` feature; the event ring is a \
             no-op and only counter-based statistics follow.\n"
        );
    }

    if let Some(seed) = fault_seed {
        tle_repro::base::fault::install(tle_bench::torture::torture_plan(seed));
    }

    let sys = Arc::new(TmSystem::new(mode));
    let lock = Arc::new(ElidableMutex::new("probe"));
    let shared: Arc<Vec<TCell<u64>>> = Arc::new((0..cells).map(|_| TCell::new(0)).collect());
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let sys = Arc::clone(&sys);
            let lock = Arc::clone(&lock);
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let th = sys.register();
                let mut rng = tle_repro::base::rng::XorShift64::new(0x7ACE ^ t as u64);
                for _ in 0..ops {
                    let i = rng.below(shared.len() as u64) as usize;
                    th.tx(&lock).run(|ctx| {
                        let v = ctx.read(&shared[i])?;
                        ctx.write(&shared[i], v + 1)?;
                        Ok(())
                    });
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let total: u64 = shared.iter().map(|c| c.load_direct()).sum();
    assert_eq!(total, threads as u64 * ops, "probe lost updates");

    let events = trace::snapshot();
    if dump {
        // `--cause` narrows the dump to events attributed to one abort
        // cause (Abort/Conflict/Retry/FaultInject events carry one).
        let filtered: Vec<_> = match opt(args, "--cause").as_deref() {
            None => events.iter().collect(),
            Some(label) => {
                let Some(cause) = AbortCause::ALL.iter().copied().find(|c| c.label() == label)
                else {
                    eprintln!(
                        "unknown cause {label}; valid: {}",
                        AbortCause::ALL.map(|c| c.label()).join(" ")
                    );
                    return 2;
                };
                events.iter().filter(|e| e.cause == Some(cause)).collect()
            }
        };
        let skip = filtered.len().saturating_sub(tail);
        if skip > 0 {
            println!("... {skip} earlier events elided (--tail {tail}) ...");
        }
        for ev in &filtered[skip..] {
            println!("{ev}");
        }
        println!();
    }

    // Summary always prints: from the ring when compiled, and the
    // authoritative per-cause counters either way.
    let summary = trace::TraceSummary::of(&events);
    println!(
        "probe: mode={} threads={} ops/thread={} cells={}",
        mode.label(),
        threads,
        ops,
        cells
    );
    println!(
        "event ring: {} events from {} threads (cap {} per thread)",
        events.len(),
        summary.threads,
        trace::RING_CAP
    );
    for kind in trace::TraceKind::ALL {
        let n = summary.kind(kind);
        if n > 0 {
            println!("  {:<14} {n}", kind.label());
        }
    }
    let ring_aborts: u64 = AbortCause::ALL.iter().map(|&c| summary.aborts(c)).sum();
    if ring_aborts > 0 {
        println!("ring abort causes:");
        for cause in AbortCause::ALL {
            let n = summary.aborts(cause);
            if n > 0 {
                println!("  {:<17} {n}", cause.label());
            }
        }
    }
    if fault_seed.is_some() {
        use tle_repro::base::fault::{self, Hazard};
        let snap = fault::snapshot();
        println!("fault plane ({} fired):", snap.total_fired());
        for h in Hazard::ALL {
            let fired = snap.fired(h);
            if fired > 0 {
                println!(
                    "  {:<17} fired {fired:>6}  armed {:>6}",
                    h.label(),
                    snap.armed(h)
                );
            }
        }
        fault::clear();
    }
    println!();
    print!("{}", sys.report());
    0
}
