//! The fault plane's abort classes, end to end through the runner: the
//! robustness trace kinds stay pinned, and each injected abort class
//! surfaces as exactly its mapped cause.
//!
//! The fault plan is process-global and its delivery limits are per lane,
//! so any concurrently running transaction would draw deliveries of its
//! own; this test therefore lives alone in its own test binary.

use std::sync::Arc;
use tle_base::fault::{self, FaultPlan, FaultRule, Hazard};
use tle_base::trace::TraceKind;
use tle_base::{AbortCause, Padded, TCell};
use tle_bench::workloads::TrialStats;
use tle_core::{AlgoMode, ElidableMutex, TmSystem};
use tle_htm::HtmConfig;

#[test]
fn injected_abort_classes_surface_as_their_causes() {
    assert_eq!(TraceKind::FaultInject as u8, 12);
    assert_eq!(TraceKind::Escalate as u8, 13);
    assert_eq!(TraceKind::QuiesceStall as u8, 14);
    assert_eq!(TraceKind::FaultInject.label(), "fault-inject");
    assert_eq!(TraceKind::Escalate.label(), "escalate");
    assert_eq!(TraceKind::QuiesceStall.label(), "quiesce-stall");
    for h in Hazard::ALL {
        if let Some(c) = h.cause() {
            assert!(
                matches!(
                    c,
                    AbortCause::Event | AbortCause::Capacity | AbortCause::Conflict
                ),
                "injected {h:?} must map into the existing taxonomy"
            );
        }
    }
    // One delivery of each abort-class hazard, then this lane's oracle
    // goes quiet (limit 1).
    fault::install(
        FaultPlan::new(0xFA17)
            .rule(FaultRule::new(Hazard::HtmEvent, 1).limit(1))
            .rule(FaultRule::new(Hazard::HtmCapacity, 1).limit(1))
            .rule(FaultRule::new(Hazard::HtmConflict, 1).limit(1)),
    );
    fault::set_lane(0);
    let sys = Arc::new(
        TmSystem::builder()
            .mode(AlgoMode::HtmCondvar)
            .htm_config(HtmConfig {
                event_prob: 0.0, // injected Events only — keeps counts exact
                ..HtmConfig::default()
            })
            .build(),
    );
    let lock = ElidableMutex::new("fault-pins");
    let cell = Padded(TCell::new(0u64));
    let th = sys.register();
    for _ in 0..4 {
        th.tx(&lock).run(|ctx| {
            let v = ctx.read(&*cell)?;
            ctx.write(&*cell, v + 1)?;
            Ok(())
        });
    }
    let snap = fault::snapshot();
    fault::clear();
    assert_eq!(cell.load_direct(), 4, "faulted sections must all commit");
    let stats = TrialStats::capture(&sys);
    for (hazard, cause) in [
        (Hazard::HtmEvent, AbortCause::Event),
        (Hazard::HtmCapacity, AbortCause::Capacity),
        (Hazard::HtmConflict, AbortCause::Conflict),
    ] {
        assert_eq!(snap.fired(hazard), 1, "{hazard:?} should fire exactly once");
        assert!(
            stats.cause(cause) >= 1,
            "injected {hazard:?} not counted as {cause}; breakdown: {}",
            stats.abort_breakdown()
        );
    }
}
