//! `tle-torture` — rcutorture-style stress runs: real workloads under a
//! seeded fault schedule, judged by invariant oracles.
//!
//! ```console
//! $ cargo run --release --bin tle-torture -- --seed 1 --mode all
//! $ cargo run --release --bin tle-torture -- --seed 7 --mode htm --repro
//! ```
//!
//! Exit status: 0 when every oracle held (and, under `--repro`, both runs
//! produced identical per-cause abort counts); 1 otherwise. See
//! `tle_bench::torture` for what each phase checks.

mod cli;

use cli::{opt, opt_parse};
use tle_bench::torture::{run_torture, TortureConfig};
use tle_core::{AlgoMode, ALL_MODES};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
        std::process::exit(2);
    }
    reject_unknown_flags(&args);
    let seed: u64 = opt_parse(&args, "--seed", 1);
    let workers: usize = opt_parse(&args, "--workers", 3);
    let ops: u64 = opt_parse(&args, "--ops", 1_500);
    let repro = args.iter().any(|a| a == "--repro");
    let adaptive = args.iter().any(|a| a == "--adaptive");
    let deadline = args.iter().any(|a| a == "--deadline");
    let async_exec = args.iter().any(|a| a == "--async");
    let modes: Vec<AlgoMode> = match opt(&args, "--mode").as_deref() {
        None | Some("all") => ALL_MODES.to_vec(),
        Some(spec) => match spec.parse::<AlgoMode>() {
            Ok(mode) => vec![mode],
            Err(e) => {
                eprintln!("{e}");
                usage();
                std::process::exit(2);
            }
        },
    };

    let mut failed = false;
    for mode in modes {
        if repro {
            // Determinism contract: single worker, txset only (plus the
            // single-threaded flip phase under --adaptive) — two runs must
            // agree on every per-cause abort count, fault tally and mode
            // flip.
            let cfg = TortureConfig {
                ops_per_worker: ops,
                adaptive,
                deadline,
                async_exec,
                ..TortureConfig::repro(seed, mode)
            };
            let a = run_torture(&cfg);
            let b = run_torture(&cfg);
            print!("{}", a.render());
            let (ka, kb) = (a.repro_key(), b.repro_key());
            if ka != kb {
                println!("  REPRO MISMATCH:\n    run1 {ka}\n    run2 {kb}");
                failed = true;
            } else {
                println!("  repro: two runs identical ({ka})");
            }
            failed |= !a.ok() || !b.ok();
        } else {
            let cfg = TortureConfig {
                workers,
                ops_per_worker: ops,
                adaptive,
                deadline,
                async_exec,
                ..TortureConfig::quick(seed, mode)
            };
            let report = run_torture(&cfg);
            print!("{}", report.render());
            failed |= !report.ok();
        }
    }
    std::process::exit(if failed { 1 } else { 0 });
}

fn usage() {
    eprintln!(
        "usage: tle-torture [options]\n\
         \n\
         options:\n\
         \u{20} --seed N     fault-schedule and workload seed (default 1)\n\
         \u{20} --mode M     all|baseline|stm-spin|stm-condvar|stm-noquiesce|htm|\n\
         \u{20}              adaptive-htm|adaptive-htm-lazy (default all; the lazy\n\
         \u{20}              mode is opt-in and not part of `all`; dev/check\n\
         \u{20}              builds also accept adaptive-htm-lazy-unsafe)\n\
         \u{20} --workers N  txset/pipeline worker threads (default 3)\n\
         \u{20} --ops N      set operations per worker (default 1500)\n\
         \u{20} --adaptive   also torture per-lock mode flips: a counter runs\n\
         \u{20}              while a seeded schedule retargets its lock's mode;\n\
         \u{20}              exact count + flip sequence are the oracles\n\
         \u{20} --deadline   also torture the deadline gate: a seeded subset of\n\
         \u{20}              requests carries a zero retry-time budget and must\n\
         \u{20}              be refused with DeadlineExceeded, effect-free\n\
         \u{20} --async      also torture the async executor: tasks multiplex\n\
         \u{20}              run_async attempts and condvar ping-pong through the\n\
         \u{20}              waker path; exact counters + completed rounds are\n\
         \u{20}              the oracles, the phase checksum joins the repro key\n\
         \u{20} --repro      single-worker deterministic run, executed twice;\n\
         \u{20}              fails unless both runs match per-cause abort counts\n\
         \u{20}              (and, with --adaptive, the mode-flip sequence;\n\
         \u{20}              with --deadline, the expiry tally; with --async,\n\
         \u{20}              the async phase checksum)"
    );
}

/// Diagnosable CLI failures: an unrecognized flag names itself on stderr
/// and exits 2 instead of being silently ignored.
fn reject_unknown_flags(args: &[String]) {
    const VALUE_FLAGS: [&str; 4] = ["--seed", "--workers", "--ops", "--mode"];
    const BOOL_FLAGS: [&str; 4] = ["--repro", "--adaptive", "--deadline", "--async"];
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if VALUE_FLAGS.contains(&a) {
            i += 2; // skip the flag's value
            continue;
        }
        if !BOOL_FLAGS.contains(&a) {
            eprintln!("tle-torture: unknown argument `{a}`\n");
            usage();
            std::process::exit(2);
        }
        i += 1;
    }
}
