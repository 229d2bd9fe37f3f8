//! # tle-repro — reproduction of *Practical Experience with Transactional
//! Lock Elision* (Zhou, Zardoshti, Spear; ICPP 2017)
//!
//! This is the umbrella crate: it re-exports the public API of the whole
//! stack and hosts the runnable examples (`examples/`) and the cross-crate
//! integration tests (`tests/`).
//!
//! ## Layer map
//!
//! ```text
//!  tle-base   word cells, version clock, orecs, slots, serial gate
//!  tle-stm    the ml_wt software TM (+ quiescence, TM_NoQuiesce)
//!  tle-htm    the simulated best-effort hardware TM
//!  tle-core   TLE runtime: 5 algorithms, retry policy, condvars
//!  tle-txset  list/hash/tree set microbenchmarks (Figure 5)
//!  tle-pbz    PBZip2-style parallel block compressor (Figure 2)
//!  tle-wfe    x265-style wavefront encoder (Figures 3-4)
//!  tle-bench  `tle-bench emit`: every paper table/figure, one document
//! ```
//!
//! ## Quickstart
//!
//! ```
//! use tle_repro::prelude::*;
//! use std::sync::Arc;
//!
//! // Pick an algorithm: the paper's five are all here.
//! let sys = Arc::new(TmSystem::new(AlgoMode::HtmCondvar));
//! let th = sys.register();
//! let lock = ElidableMutex::new("account");
//! let balance = TCell::new(100i64);
//!
//! // A critical section, written once, elided transparently.
//! th.tx(&lock).run(|ctx| {
//!     let b = ctx.read(&balance)?;
//!     ctx.write(&balance, b - 30)?;
//!     Ok(())
//! });
//! assert_eq!(balance.load_direct(), 70);
//! ```

pub use tle_base as base;
pub use tle_core as core;
pub use tle_htm as htm;
pub use tle_pbz as pbz;
pub use tle_stm as stm;
pub use tle_txset as txset;
pub use tle_wfe as wfe;

/// The names most programs need.
pub mod prelude {
    pub use tle_base::{AbortCause, TCell, TxVal};
    pub use tle_core::{
        AdaptiveConfig, AdmissionConfig, AdmissionStep, AlgoMode, ControllerHandle, ElidableMutex,
        InvalidAlgoMode, ModeSwitchEvent, ParseAlgoModeError, SwitchReason, ThreadHandle,
        TlePolicy, TmSystem, TmSystemBuilder, TxCondvar, TxCtx, TxError, ALL_MODES,
    };
    pub use tle_stm::QuiescePolicy;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::Arc;

    #[test]
    fn doc_example_compiles_and_runs() {
        let sys = Arc::new(TmSystem::new(AlgoMode::HtmCondvar));
        let th = sys.register();
        let lock = ElidableMutex::new("account");
        let balance = TCell::new(100i64);
        th.tx(&lock).run(|ctx| {
            let b = ctx.read(&balance)?;
            ctx.write(&balance, b - 30)?;
            Ok(())
        });
        assert_eq!(balance.load_direct(), 70);
    }
}
