//! # tle-bench — the paper's evaluation harness
//!
//! One harness, `tle-bench emit` ([`perf::emit_report`]), measures every
//! paper figure and ablation and writes them as rows of one
//! `BENCH_<n>.json` document (see DESIGN.md §4 and EXPERIMENTS.md):
//!
//! | figure              | reproduces                                   |
//! |---------------------|----------------------------------------------|
//! | `fig2`              | Figure 2 (a-f), and the §VII-A PBZip2 stats  |
//! | `fig3`              | Figure 3 (a-c)                               |
//! | `fig4`              | Figure 4 under interrupt pressure            |
//! | `fig5`              | Figure 5 (a-f)                               |
//! | `ablate-htm-retry`  | §VII-A retry tuning                          |
//! | `ablate-quiesce`    | §IV drain scaling and long-transaction coupling |
//! | `ablate-ready-flag` | §V Listing 3 vs 4                            |
//! | `ablate-fallback`   | §II-C serial-gate vs per-lock fallback       |
//! | `adapt-policy`      | per-lock adaptive policy vs fixed modes      |
//! | `ablate-stm-algo`   | NOrec vs `ml_wt`                             |
//! | `primitives`        | primitive-op latency, `tle-incr` per mode    |
//!
//! `--quick` and the default full sizing emit the same run keys and differ
//! only in op counts and input sizes. The trial runners live in
//! [`workloads`]; [`trajectory`] renders the cross-PR history and
//! [`torture`] is the fault-injection harness behind `tle-torture`.

// The JSON tree moved to `tle-base` (the lint crate's SARIF emitter builds
// on it too); the `tle_bench::json` path keeps working via this re-export.
pub use tle_base::json;

pub mod perf;
pub mod torture;
pub mod trajectory;
pub mod workloads;
