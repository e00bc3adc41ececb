//! Multiplexing-fairness and sampling-semantics tests for the perf
//! recorder over a scalar core.

use aegis_faults::FaultPlan;
use aegis_microarch::{
    named, ActivityVector, Core, EventId, Feature, InterferenceConfig, MicroArch, Origin,
    OriginFilter,
};
use aegis_perf::{Trace, TraceRecorder, DEFAULT_QUANTUM_NS};

fn core() -> Core {
    let mut c = Core::new(MicroArch::AmdEpyc7252, 11);
    c.set_interference(InterferenceConfig::isolated());
    c
}

fn steady(uops: f64) -> ActivityVector {
    ActivityVector::from_pairs(&[(Feature::UopsRetired, uops)])
}

fn n_events(c: &Core, n: usize) -> Vec<EventId> {
    let uops = c.catalog().lookup(named::RETIRED_UOPS).unwrap();
    let mut ids = vec![uops];
    ids.extend(
        c.catalog()
            .events()
            .iter()
            .map(|e| e.id)
            .filter(|&e| e != uops)
            .take(n - 1),
    );
    ids
}

/// Records `ticks` calls of `run`, each returning the time it executed,
/// as one sample per `interval_ns`.
fn record(
    c: &mut Core,
    ids: &[EventId],
    filter: OriginFilter,
    interval_ns: u64,
    ticks: usize,
    mut run: impl FnMut(&mut Core) -> u64,
) -> Trace {
    let mut rec = TraceRecorder::open(c, ids, filter, interval_ns, FaultPlan::none()).unwrap();
    for _ in 0..ticks {
        let dur = run(c);
        rec.on_executed(c, dur);
    }
    rec.finish(c).pop().unwrap()
}

#[test]
fn multiplexing_shares_time_fairly_across_groups() {
    // 12 events → 3 groups. After many quanta, every group's scaled count
    // of a universally-responding event is similar: fairness shows up as
    // consistent scaling, which we check via the first event (group 0)
    // against the ground truth.
    let mut c = core();
    let ids = n_events(&c, 12);
    // 75 quanta, 25 per group, read as one sample.
    let window_ns = 75 * DEFAULT_QUANTUM_NS;
    let trace = record(&mut c, &ids, OriginFilter::Any, window_ns, 3000, |c| {
        c.run_mix(&steady(200.0), 100_000, Origin::Host);
        100_000
    });
    // 300 ms at 200 µops/µs = 6e7 true µops; scaled estimate within 25%.
    let est = trace.row(0)[0];
    assert!(
        (est - 6.0e7).abs() / 6.0e7 < 0.25,
        "scaled {est} vs true 6e7"
    );
}

#[test]
fn unmultiplexed_counts_are_exact_up_to_noise() {
    let mut c = core();
    let ids = n_events(&c, 4);
    let trace = record(&mut c, &ids, OriginFilter::Any, 10_000_000, 100, |c| {
        c.run_mix(&steady(200.0), 100_000, Origin::Host);
        100_000
    });
    let count = trace.row(0)[0];
    assert!((count - 2.0e6).abs() / 2.0e6 < 0.05, "{count}");
}

#[test]
fn recorder_slices_partition_the_total() {
    let mut c = core();
    let ids = n_events(&c, 1);
    let trace = record(&mut c, &ids, OriginFilter::Any, 1_000_000, 100, |c| {
        c.run_mix(&steady(150.0), 100_000, Origin::Host);
        100_000
    });
    assert_eq!(trace.len(), 10);
    let total: f64 = trace.row(0).iter().sum();
    // 10 ms at 150 µops/µs.
    assert!((total - 1.5e6).abs() / 1.5e6 < 0.05, "{total}");
    // No slice wildly out of line (steady load).
    for &v in trace.row(0) {
        assert!((v - 1.5e5).abs() / 1.5e5 < 0.2, "{v}");
    }
}

#[test]
fn monitors_can_be_reopened_after_close() {
    let mut c = core();
    let ids = n_events(&c, 4);
    for _ in 0..2 {
        // Finishing frees the slots for the next open.
        let rec =
            TraceRecorder::open(&mut c, &ids, OriginFilter::Any, 1, FaultPlan::none()).unwrap();
        rec.finish(&mut c);
    }
}

#[test]
fn guest_filtered_monitor_ignores_host_background() {
    let mut c = core();
    let ids = n_events(&c, 2);
    let trace = record(
        &mut c,
        &ids,
        OriginFilter::GuestOnly(3),
        10_000_000,
        50,
        |c| {
            c.run_mix(&steady(100.0), 100_000, Origin::Host);
            c.run_mix(&steady(100.0), 100_000, Origin::Guest(9)); // other guest
            200_000
        },
    );
    assert_eq!(trace.row(0)[0], 0.0, "{:?}", trace.data);
}
