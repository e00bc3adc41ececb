//! Public-API behaviour tests for the micro-architectural simulator:
//! interference realism, counter independence, and catalog invariants.

use aegis_isa::{well_known, WellKnown};
use aegis_microarch::{
    named, ActivityVector, Core, CounterBank, CounterConfig, EventCatalog, EventKind, Feature,
    InterferenceConfig, MicroArch, Origin, OriginFilter, COUNTER_SLOTS,
};

fn uops_rate(r: f64) -> ActivityVector {
    ActivityVector::from_pairs(&[(Feature::UopsRetired, r)])
}

#[test]
fn isolation_reduces_measurement_variance() {
    // The fuzzer's isolcpus setup exists because interference makes HPC
    // counts imprecise; verify the model reflects that.
    let measure = |cfg: InterferenceConfig, seed: u64| -> Vec<f64> {
        let mut core = Core::new(MicroArch::AmdEpyc7252, seed);
        core.set_interference(cfg);
        let ev = core.catalog().lookup(named::RETIRED_UOPS).unwrap();
        core.program(
            0,
            CounterConfig {
                event: ev,
                filter: OriginFilter::Any,
            },
        )
        .unwrap();
        (0..200)
            .map(|_| {
                core.reset_value(0, 0);
                core.run_mix(&uops_rate(100.0), 1_000_000, Origin::Guest(0));
                core.rdpmc(0, 0).unwrap() as f64
            })
            .collect()
    };
    let spread = |xs: &[f64]| {
        let m = xs.iter().sum::<f64>() / xs.len() as f64;
        (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64).sqrt() / m
    };
    let noisy = spread(&measure(InterferenceConfig::noisy(), 1));
    let isolated = spread(&measure(InterferenceConfig::isolated(), 1));
    assert!(
        isolated < noisy / 2.0,
        "isolated rel-spread {isolated} vs noisy {noisy}"
    );
}

#[test]
fn counters_accumulate_independently() {
    let mut core = Core::new(MicroArch::AmdEpyc7252, 5);
    core.set_interference(InterferenceConfig::isolated());
    let cat = core.catalog();
    let uops = cat.lookup(named::RETIRED_UOPS).unwrap();
    let stores = cat.lookup(named::HW_CACHE_L1D_WRITE).unwrap();
    for (slot, ev) in [(0, uops), (1, stores)] {
        core.program(
            slot,
            CounterConfig {
                event: ev,
                filter: OriginFilter::Any,
            },
        )
        .unwrap();
    }
    // Pure compute: µops move, stores do not.
    let compute = ActivityVector::from_pairs(&[(Feature::UopsRetired, 500.0)]);
    core.run_mix(&compute, 1_000_000, Origin::Host);
    assert!(core.rdpmc(0, 0).unwrap() > 100_000);
    assert_eq!(core.rdpmc(0, 1).unwrap(), 0);
    // Store burst: the second counter moves too.
    let writes = ActivityVector::from_pairs(&[(Feature::Stores, 200.0)]);
    core.run_mix(&writes, 1_000_000, Origin::Host);
    assert!(core.rdpmc(0, 1).unwrap() > 100_000);
}

#[test]
fn all_counter_slots_are_usable() {
    let mut core = Core::new(MicroArch::AmdEpyc7252, 5);
    let ids = core.catalog().attack_events();
    for (slot, ev) in ids.into_iter().enumerate() {
        core.program(
            slot,
            CounterConfig {
                event: ev,
                filter: OriginFilter::Any,
            },
        )
        .unwrap();
    }
    assert_eq!(COUNTER_SLOTS, 4);
    for slot in 0..COUNTER_SLOTS {
        assert!(core.rdpmc(0, slot).is_ok());
    }
}

#[test]
fn serializing_instructions_count_serializations() {
    let mut core = Core::new(MicroArch::AmdEpyc7252, 5);
    core.set_interference(InterferenceConfig::isolated());
    let ev = core.catalog().lookup("RETIRED_SERIALIZING_OPS").unwrap();
    core.program(
        0,
        CounterConfig {
            event: ev,
            filter: OriginFilter::Any,
        },
    )
    .unwrap();
    let cpuid = well_known(WellKnown::Cpuid);
    for _ in 0..50 {
        core.execute_instr(&cpuid, Origin::Host).unwrap();
    }
    let v = core.rdpmc(0, 0).unwrap();
    assert!((45..=55).contains(&v), "serializations {v}");
}

#[test]
fn catalog_guest_visibility_never_set_for_software_or_other() {
    for arch in MicroArch::ALL {
        let cat = EventCatalog::for_arch(arch);
        for e in cat.events() {
            if matches!(e.kind, EventKind::Software | EventKind::Other) {
                assert!(!e.guest_visible, "{} on {arch}", e.name);
            }
        }
    }
}

#[test]
fn event_noise_levels_are_bounded() {
    let cat = EventCatalog::for_arch(MicroArch::IntelXeonE5_1650);
    for e in cat.events() {
        assert!(
            (0.0..0.05).contains(&e.noise_rel),
            "{}: noise {}",
            e.name,
            e.noise_rel
        );
    }
}

#[test]
fn response_weights_are_positive_and_bounded() {
    let cat = EventCatalog::for_arch(MicroArch::AmdEpyc7252);
    for e in cat.events() {
        for &(_, w) in &e.response {
            assert!(w > 0.0 && w <= 2.0, "{}: weight {w}", e.name);
        }
    }
}
