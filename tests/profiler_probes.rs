//! `Host::record_probes` — the profiler's probe sequence run as lanes on
//! the worker pool — against the loop it replaces: `attach_app` then
//! `record_trace`, one probe after another on one evolving host. The
//! two must agree bit for bit in the traces, in the error, and in every
//! piece of host state a later caller can observe, on every model, under
//! the inert and the smoke fault plan, at any worker count.
//!
//! Hosts are built with explicit fault plans, so this file also runs
//! unchanged under `AEGIS_FAULTS=smoke`.

use aegis::faults::FaultPlan;
use aegis::microarch::{named, CounterBank, EventId, MicroArch, OriginFilter};
use aegis::par::{fingerprint, set_threads};
use aegis::perf::Trace;
use aegis::profiler::{rank_events, warmup_profile, RankConfig, WarmupConfig};
use aegis::sev::{ActivitySource, Host, PlanSource, Probe, ProbeError, SevMode, VmId};
use aegis::workloads::{
    CryptoApp, DnnZoo, KeystrokeApp, MixSpec, SecretApp, Segment, WebsiteCatalog, WorkloadPlan,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A profiling host plus a bystander tenant whose app keeps the
/// unrecorded core busy, warmed a few ticks so every stream is
/// mid-flight. Deterministic: two calls build identical hosts.
fn host(arch: MicroArch, seed: u64, plan: FaultPlan) -> (Host, VmId, VmId) {
    let mut host = Host::with_faults(arch, 3, seed, plan);
    let vm = host.launch_vm(1, SevMode::SevSnp).unwrap();
    let bystander = host.launch_vm(1, SevMode::SevSnp).unwrap();
    host.attach_app(
        bystander,
        0,
        Box::new(PlanSource::new(steady(900.0, 1 << 40))),
    )
    .unwrap();
    for _ in 0..5 {
        host.tick();
    }
    (host, vm, bystander)
}

fn steady(uops_per_us: f64, dur_ns: u64) -> WorkloadPlan {
    let mut spec = MixSpec::idle();
    spec.uops_per_us = uops_per_us;
    let mut plan = WorkloadPlan::new();
    plan.push(Segment::new(dur_ns, spec.build()));
    plan
}

/// The reference: the loop `record_probes` replaces.
fn scalar_loop(
    host: &mut Host,
    vm: VmId,
    filter: OriginFilter,
    probes: Vec<Probe<'_>>,
) -> Result<Vec<Trace>, ProbeError> {
    let mut traces = Vec::new();
    for p in probes {
        host.attach_app(vm, 0, Box::new(p.source))?;
        let core = host.core_of(vm, 0)?;
        let mut trace =
            host.record_trace(&[core], p.events, filter, p.interval_ns, p.duration_ns)?;
        traces.push(trace.remove(0));
    }
    Ok(traces)
}

/// `record_probes`, collecting the traces it hands out.
fn record(
    host: &mut Host,
    vm: VmId,
    filter: OriginFilter,
    probes: Vec<Probe<'_>>,
) -> Result<Vec<Trace>, ProbeError> {
    let mut traces = Vec::new();
    host.record_probes(vm, 0, filter, probes, |t| traces.push(t))?;
    Ok(traces)
}

/// Everything about a host a later caller can observe, including what a
/// follow-up scalar recording (which keeps running the attached source)
/// sees on each core.
fn observe(host: &mut Host, vms: &[VmId]) -> String {
    let stats: Vec<_> = vms
        .iter()
        .map(|&vm| host.vcpu_stats(vm, 0).unwrap())
        .collect();
    let cycles: Vec<u64> = (0..host.n_cores()).map(|c| host.core(c).cycles()).collect();
    let latched: Vec<bool> = (0..host.n_cores())
        .map(|c| host.core_fail_closed(c))
        .collect();
    let events = host.core(0).catalog().attack_events();
    let follow: Vec<Vec<Vec<f64>>> = (0..host.n_cores())
        .map(|c| {
            host.record_trace(&[c], &events, OriginFilter::Any, 1_000_000, 3_000_000)
                .map(|mut t| t.remove(0).data)
                .unwrap_or_default()
        })
        .collect();
    format!(
        "clock {} stats {stats:?} cycles {cycles:?} latched {latched:?} follow {:016x}",
        host.clock_ns(),
        fingerprint(&follow)
    )
}

/// Event lists of every shape a probe can carry: one multiplex group,
/// one event, a multiplexed list, and (at the end of a script) lists the
/// monitor refuses.
fn event_list(host: &Host, kind: u8) -> Vec<EventId> {
    let catalog = host.core(0).catalog();
    let all: Vec<EventId> = catalog.events().iter().map(|e| e.id).collect();
    match kind {
        0 => catalog.attack_events().to_vec(),
        1 => vec![catalog.lookup(named::RETIRED_UOPS).unwrap()],
        2 => all[40..46].to_vec(),
        3 => all[(all.len() - 4)..].to_vec(),
        4 => Vec::new(),
        _ => vec![all[0], EventId(u32::MAX)],
    }
}

/// A probe source of every shape the profiler uses: a plan shorter than
/// the window, a sampled app plan, and a sampled plan advanced mid-way
/// (warm-up's random offsets).
fn source(kind: u8, offset_ns: u64, rng: &mut StdRng) -> PlanSource {
    let app = WebsiteCatalog::new(3);
    match kind {
        0 => PlanSource::new(steady(350.0, 1_700_000)),
        1 => PlanSource::new(app.sample_plan(offset_ns as usize % app.n_secrets(), rng)),
        _ => {
            let mut src = PlanSource::new(app.sample_plan(2, rng));
            src.advance(offset_ns);
            src
        }
    }
}

/// One probe of a script: (event kind, source kind, offset, ticks,
/// interval in ticks).
type Step = (u8, u8, u64, u64, u64);

fn probes<'a>(events: &'a [Vec<EventId>], script: &[Step], seed: u64) -> Vec<Probe<'a>> {
    let mut rng = StdRng::seed_from_u64(seed);
    script
        .iter()
        .map(|&(ev, src, offset, ticks, every)| Probe {
            source: source(src, offset, &mut rng),
            events: &events[ev as usize],
            interval_ns: every * 100_000,
            duration_ns: ticks * 100_000,
        })
        .collect()
}

fn check(arch: MicroArch, seed: u64, smoke: bool, threads: usize, script: &[Step]) {
    let plan = if smoke {
        FaultPlan::smoke()
    } else {
        FaultPlan::none()
    };
    let filter = OriginFilter::GuestOnly(0);
    let (mut reference, vm, bystander) = host(arch, seed, plan);
    let (mut lanes, ..) = host(arch, seed, plan);
    let events: Vec<Vec<EventId>> = (0..6).map(|k| event_list(&reference, k)).collect();

    let want = scalar_loop(&mut reference, vm, filter, probes(&events, script, seed));
    set_threads(threads);
    let got = record(&mut lanes, vm, filter, probes(&events, script, seed));
    set_threads(0);

    match (&want, &got) {
        (Ok(w), Ok(g)) => {
            assert_eq!(w.len(), g.len());
            for (i, (w, g)) in w.iter().zip(g).enumerate() {
                assert_eq!(w.data, g.data, "probe {i} diverged");
            }
        }
        _ => assert_eq!(want, got, "errors diverged"),
    }
    assert_eq!(
        observe(&mut reference, &[vm, bystander]),
        observe(&mut lanes, &[vm, bystander]),
        "host state diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tentpole invariant: probes recorded as lanes equal the
    /// attach + record loop in traces, errors and host state.
    #[test]
    fn record_probes_matches_the_attach_record_loop(
        arch_ix in 0usize..MicroArch::ALL.len(),
        seed in 0u64..1 << 40,
        smoke_ix in 0usize..2,
        threads_ix in 0usize..3,
        script in proptest::collection::vec(
            (0u8..4, 0u8..3, 0u64..150_000_000, 0u64..40, 1u64..12),
            1..9,
        ),
        bad_tail in 0u8..8,
    ) {
        let mut script = script;
        // Some scripts end in a probe the monitor refuses.
        if bad_tail >= 6 {
            script.push((bad_tail - 2, 0, 0, 10, 5));
        }
        check(MicroArch::ALL[arch_ix], seed, smoke_ix == 1, [1, 2, 4][threads_ix], &script);
    }
}

#[test]
fn a_failing_probe_leaves_the_host_where_the_loop_does() {
    // Unknown event mid-script, an empty list, and a persistent
    // programming fault at the very first probe.
    for threads in [1, 2] {
        let script: [Step; 4] = [
            (0, 1, 0, 30, 10),
            (1, 2, 5_000_000, 20, 5),
            (5, 0, 0, 10, 5),
            (0, 0, 0, 10, 5),
        ];
        check(MicroArch::AmdEpyc7252, 17, false, threads, &script);
        check(
            MicroArch::IntelXeonE5_1650,
            3,
            true,
            threads,
            &[(0, 0, 0, 8, 4), (4, 0, 0, 8, 4)],
        );
    }
    let plan = FaultPlan {
        seed: 1,
        pmc_program_fail: 1.0,
        ..FaultPlan::none()
    };
    let (mut a, vm, _) = host(MicroArch::AmdEpyc7252, 5, plan);
    let (mut b, ..) = host(MicroArch::AmdEpyc7252, 5, plan);
    let events = vec![event_list(&a, 0)];
    let script = [(0, 1, 0, 10, 5)];
    let want = scalar_loop(&mut a, vm, OriginFilter::Any, probes(&events, &script, 1));
    let got = record(&mut b, vm, OriginFilter::Any, probes(&events, &script, 1));
    assert!(matches!(got, Err(ProbeError::Perf(_))), "{got:?}");
    assert_eq!(want, got);
    // The failed open left the same partial programming behind.
    for slot in 0..4 {
        assert_eq!(
            a.core(0).programmed_event(slot),
            b.core(0).programmed_event(slot)
        );
    }
}

#[test]
fn unknown_ids_fail_only_when_there_is_a_probe() {
    let (mut h, ..) = host(MicroArch::AmdEpyc7252, 1, FaultPlan::none());
    assert_eq!(
        record(&mut h, VmId(9), OriginFilter::Any, Vec::new()),
        Ok(Vec::new())
    );
    let events = vec![event_list(&h, 0)];
    let got = record(
        &mut h,
        VmId(9),
        OriginFilter::Any,
        probes(&events, &[(0, 0, 0, 5, 5)], 1),
    );
    assert!(matches!(got, Err(ProbeError::Host(_))), "{got:?}");
}

/// Re-profiling a vCPU that already runs an injector (a live defense
/// session) records the injector's activity too, exactly as the loop
/// does, also under plans that stall or detach the injector.
#[test]
fn an_injector_on_the_probed_vcpu_is_recorded_like_the_loop() {
    let script: [Step; 3] = [
        (0, 1, 0, 30, 10),
        (2, 2, 4_000_000, 25, 5),
        (0, 0, 0, 20, 4),
    ];
    let stalling = FaultPlan {
        seed: 3,
        injector_stall: 0.2,
        stall_ticks: 8,
        ..FaultPlan::none()
    };
    for plan in [FaultPlan::none(), FaultPlan::smoke(), stalling] {
        for threads in [1, 2] {
            let hosts = [(); 2].map(|()| {
                let (mut h, vm, bystander) = host(MicroArch::AmdEpyc7252, 11, plan);
                h.attach_injector(vm, 0, Box::new(PlanSource::new(steady(400.0, 1 << 40))))
                    .unwrap();
                (h, vm, bystander)
            });
            let [(mut reference, vm, bystander), (mut probed, ..)] = hosts;
            let events: Vec<Vec<EventId>> = (0..6).map(|k| event_list(&reference, k)).collect();
            let filter = OriginFilter::GuestOnly(vm.0);
            let want = scalar_loop(&mut reference, vm, filter, probes(&events, &script, 2));
            set_threads(threads);
            let got = record(&mut probed, vm, filter, probes(&events, &script, 2));
            set_threads(0);
            assert_eq!(want, got, "threads {threads}");
            assert_eq!(
                observe(&mut reference, &[vm, bystander]),
                observe(&mut probed, &[vm, bystander]),
                "threads {threads}"
            );
        }
    }
}

#[test]
fn plan_window_answers_like_the_full_source() {
    let mut rng = StdRng::seed_from_u64(4);
    let mut full = PlanSource::new(DnnZoo::new(7).sample_plan(3, &mut rng));
    full.advance(12_345_678);
    for span in [0u64, 100_000, 7_300_000, 80_000_000, 1 << 40] {
        let mut a = full.clone();
        let mut b = full.window(span);
        let mut executed = 0;
        while executed < span && a.demand().is_some() {
            assert_eq!(a.demand(), b.demand(), "span {span} at {executed}");
            let step = 37_000 + executed % 63_000;
            a.advance(step);
            b.advance(step);
            executed += step;
        }
    }
}

/// The configuration `aegis offline` builds (without `--thorough`).
fn cli_profiler(seed: u64) -> (WarmupConfig, RankConfig) {
    (
        WarmupConfig {
            probe_ns: 3_000_000,
            passes: 3,
            ..WarmupConfig::default()
        },
        RankConfig {
            reps_per_secret: 2,
            window_ns: 80_000_000,
            interval_ns: 10_000_000,
            seed,
        },
    )
}

/// `warmup_profile` + `rank_events` for the four CLI apps at the CLI's
/// default seed, pinned to what the attach + record loop produced: the
/// warm-up and ranking fingerprints, the host clock and cycles left
/// behind, and the vCPU stats and cycles after that host runs one more
/// second.
#[test]
fn profiler_outputs_for_the_cli_apps_are_pinned() {
    let seed = 7;
    let apps: [(&str, Box<dyn SecretApp>, &str, &str); 4] = [
        (
            "keystroke",
            Box::new(KeystrokeApp::with_window(400_000_000)),
            "e971fe8edccb41e5 b897c666df1a7d05 52112000000 10140232980 25795089",
            "VcpuStats { app_uops: 5134083028.411134, injected_uops: 0.0, app_done_at_ns: Some(52432000000) } 10241235673 26290530",
        ),
        (
            "website",
            Box::new(WebsiteCatalog::new(seed)),
            "747eefd3195c02cb 9fc9922676eb0200 293712000000 65869630005 145387533",
            "VcpuStats { app_uops: 40880225366.030014, injected_uops: 0.0, app_done_at_ns: None } 69540482415 145882016",
        ),
        (
            "dnn",
            Box::new(DnnZoo::new(seed)),
            "9b02ca1a1f5ca67d 6e0e88dd1ed8cc5b 202512000000 769806535139 100241177",
            "VcpuStats { app_uops: 365321566096.61, injected_uops: 0.0, app_done_at_ns: None } 777468026617 100736035",
        ),
        (
            "crypto",
            Box::new(CryptoApp::with_window(4, 400_000_000)),
            "75417ef2997fb736 844aafde814bcee2 105552000000 324868446192 52247106",
            "VcpuStats { app_uops: 176964141922.03857, injected_uops: 0.0, app_done_at_ns: Some(105872000000) } 326258965383 52742370",
        ),
    ];
    let (warm_cfg, rank_cfg) = cli_profiler(seed);
    for (name, app, want, want_after) in apps {
        let mut host = Host::with_faults(MicroArch::AmdEpyc7252, 2, seed, FaultPlan::none());
        let vm = host.launch_vm(1, SevMode::SevSnp).unwrap();
        let warm = warmup_profile(&mut host, vm, 0, app.as_ref(), &warm_cfg).unwrap();
        let ranks =
            rank_events(&mut host, vm, 0, app.as_ref(), &warm.vulnerable, &rank_cfg).unwrap();
        let got = format!(
            "{:016x} {:016x} {} {} {}",
            fingerprint(&warm),
            fingerprint(&ranks),
            host.clock_ns(),
            host.core(0).cycles(),
            host.core(1).cycles()
        );
        assert_eq!(got, want, "{name}");
        // The last ranking probe's source stays attached: one more second
        // of the host runs whatever of its plan is left.
        host.run(1_000_000_000);
        let got = format!(
            "{:?} {} {}",
            host.vcpu_stats(vm, 0).unwrap(),
            host.core(0).cycles(),
            host.core(1).cycles()
        );
        assert_eq!(got, want_after, "{name} after one more second");
    }
}
