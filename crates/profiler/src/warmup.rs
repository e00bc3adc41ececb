//! Warm-up profiling: discard the HPC events that cannot reflect guest
//! activity at all.
//!
//! "The key idea is that a majority of HPC events cannot reflect the
//! activities inside a guest VM. To exclude those events, we measure and
//! compare the event counts when the VM runs the application and when it
//! is idle" (Section V-B). Events whose counts do not change are removed,
//! leaving <10% — mainly hardware (H/HC) and raw (R) events.

use crate::probes::record_probes;
use aegis_microarch::{EventId, EventKind};
use aegis_sev::{ActivitySource, Host, HostError, PlanSource, Probe, VmId};
use aegis_workloads::{MixSpec, SecretApp, Segment, WorkloadPlan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Warm-up profiling configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WarmupConfig {
    /// Monitoring window per event group per pass (`t_w`; the paper uses
    /// 1 s of wall time, the simulator defaults to 10 ms of simulated
    /// time for tractable experiment runtimes).
    pub probe_ns: u64,
    /// Number of repeated active probes (the paper repeats the warm-up
    /// profiling 5 times; events changing in *any* pass are kept).
    pub passes: usize,
    /// Relative change threshold over the idle count.
    pub rel_threshold: f64,
    /// Absolute count-change threshold (suppresses measurement noise).
    pub abs_threshold: f64,
    /// RNG seed (probe offsets and secret rotation).
    pub seed: u64,
}

impl Default for WarmupConfig {
    fn default() -> Self {
        WarmupConfig {
            probe_ns: 10_000_000,
            passes: 3,
            rel_threshold: 0.5,
            abs_threshold: 25.0,
            seed: 7,
        }
    }
}

/// Per-kind warm-up survival row — the bracketed percentages of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KindSurvival {
    /// Event class.
    pub kind: EventKind,
    /// Events of this class in the catalog.
    pub total: usize,
    /// Events of this class that survived the warm-up.
    pub remaining: usize,
}

impl KindSurvival {
    /// Remaining percentage.
    pub fn remaining_pct(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.remaining as f64 / self.total as f64 * 100.0
        }
    }
}

/// Result of warm-up profiling.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WarmupResult {
    /// Events that reflect guest application activity, in catalog order.
    pub vulnerable: Vec<EventId>,
    /// Total events tested (`M`).
    pub tested: usize,
    /// Per-kind survival, in Table II order.
    pub kind_survival: Vec<KindSurvival>,
}

impl WarmupResult {
    /// Fraction of events that survived.
    pub fn survival_fraction(&self) -> f64 {
        self.vulnerable.len() as f64 / self.tested.max(1) as f64
    }
}

/// Runs warm-up profiling of `app` inside `vm` against every event of the
/// host's catalog, in groups of `C = 4` to avoid counter multiplexing.
///
/// Each group is probed once idle and `passes` times with the app running
/// from a random offset of a fresh plan. The offset is drawn after the
/// plan, inside the `pick` of [`SecretApp::sample_span`], so only the
/// probe's few milliseconds of plan are built. The vCPU is left with an
/// empty plan attached.
///
/// # Errors
///
/// Returns [`HostError`] if the vm/vcpu ids are invalid.
pub fn warmup_profile(
    host: &mut Host,
    vm: VmId,
    vcpu: usize,
    app: &dyn SecretApp,
    cfg: &WarmupConfig,
) -> Result<WarmupResult, HostError> {
    let core_idx = host.core_of(vm, vcpu)?;
    let catalog = host.core(core_idx).catalog();
    let all_events: Vec<EventId> = catalog.events().iter().map(|e| e.id).collect();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x3a11_0001);
    let groups: Vec<&[EventId]> = all_events.chunks(host.arch().counter_slots()).collect();

    // Per group: an idle pass (only the VM's background hum), then active
    // passes at random plan offsets so every application phase gets
    // probed across the passes. Plans are sampled as the probes are
    // recorded, in this order, and only over the probe's span: the host
    // is handed an empty plan afterwards, so no probe's source outlives
    // its probe.
    let per_group = 1 + cfg.passes.max(1);
    let probe = |events, source| Probe {
        source,
        events,
        interval_ns: cfg.probe_ns,
        duration_ns: cfg.probe_ns,
    };
    let mut next = 0;
    let probes = std::iter::from_fn(|| {
        let group = *groups.get(next / per_group)?;
        let pass = next % per_group;
        next += 1;
        let _sample = aegis_obs::span("profile.sample");
        if pass == 0 {
            return Some(probe(group, PlanSource::new(idle_plan(cfg.probe_ns))));
        }
        let secret = rng.gen_range(0..app.n_secrets());
        let max_off = app.window_ns().saturating_sub(cfg.probe_ns);
        let (plan, skip_ns) = app.sample_span(secret, &mut rng, &mut |rng| {
            let offset = rng.gen_range(0..=max_off);
            offset..offset + cfg.probe_ns
        });
        let mut src = PlanSource::new(plan);
        src.advance(skip_ns);
        Some(probe(group, src))
    });
    let mut totals = Vec::with_capacity(groups.len() * per_group);
    record_probes(host, vm, vcpu, probes, |trace| totals.push(trace.totals()))?;

    let score = aegis_obs::span("profile.score");
    let mut vulnerable = Vec::new();
    for (group, totals) in groups.iter().zip(totals.chunks(per_group)) {
        let idle_counts = &totals[0];
        let mut changed = vec![false; group.len()];
        for active in &totals[1..] {
            for (i, (&a, &idle_c)) in active.iter().zip(idle_counts).enumerate() {
                if a > idle_c * (1.0 + cfg.rel_threshold) + cfg.abs_threshold {
                    changed[i] = true;
                }
            }
        }
        for (i, &ev) in group.iter().enumerate() {
            if changed[i] {
                vulnerable.push(ev);
            }
        }
    }
    drop(score);
    // Leave the VM idle.
    host.attach_app(vm, vcpu, Box::new(PlanSource::new(WorkloadPlan::new())))?;

    let kind_survival = EventKind::ALL
        .iter()
        .map(|&kind| {
            let total = catalog.events().iter().filter(|e| e.kind == kind).count();
            let remaining = vulnerable
                .iter()
                .filter(|&&id| catalog.get(id).is_some_and(|e| e.kind == kind))
                .count();
            KindSurvival {
                kind,
                total,
                remaining,
            }
        })
        .collect();
    Ok(WarmupResult {
        vulnerable,
        tested: all_events.len(),
        kind_survival,
    })
}

fn idle_plan(duration_ns: u64) -> WorkloadPlan {
    let mut p = WorkloadPlan::new();
    // Pad slightly past the probe so the source never runs dry mid-probe.
    p.push(Segment::new(duration_ns * 2, MixSpec::idle().build()));
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use aegis_microarch::MicroArch;
    use aegis_sev::SevMode;
    use aegis_workloads::WebsiteCatalog;

    fn quick_cfg() -> WarmupConfig {
        WarmupConfig {
            probe_ns: 3_000_000, // 3 ms probes keep the test fast
            passes: 2,
            ..WarmupConfig::default()
        }
    }

    #[test]
    fn warmup_keeps_hardware_events_and_drops_software() {
        let mut host = Host::new(MicroArch::AmdEpyc7252, 4, 3);
        let vm = host.launch_vm(1, SevMode::SevSnp).unwrap();
        let app = WebsiteCatalog::new(7);
        let result = warmup_profile(&mut host, vm, 0, &app, &quick_cfg()).unwrap();

        assert_eq!(result.tested, 1903);
        // Fewer than 10% of events survive (paper: "we only get less
        // than 10% of the events").
        assert!(
            result.survival_fraction() < 0.15,
            "{}",
            result.survival_fraction()
        );
        assert!(!result.vulnerable.is_empty());

        for ks in &result.kind_survival {
            match ks.kind {
                EventKind::Software | EventKind::Other => {
                    assert_eq!(ks.remaining, 0, "{:?} should not survive", ks.kind)
                }
                EventKind::Hardware => {
                    assert!(
                        ks.remaining_pct() > 60.0,
                        "H survival {}",
                        ks.remaining_pct()
                    )
                }
                EventKind::Tracepoint => {
                    assert!(ks.remaining_pct() < 10.0, "T {}", ks.remaining_pct())
                }
                _ => {}
            }
        }
    }

    #[test]
    fn headline_attack_events_survive() {
        let mut host = Host::new(MicroArch::AmdEpyc7252, 4, 3);
        let vm = host.launch_vm(1, SevMode::SevSnp).unwrap();
        let app = WebsiteCatalog::new(7);
        let result = warmup_profile(&mut host, vm, 0, &app, &quick_cfg()).unwrap();
        let core = host.core_of(vm, 0).unwrap();
        let catalog = host.core(core).catalog();
        for ev in catalog.attack_events() {
            assert!(
                result.vulnerable.contains(&ev),
                "{} must survive warm-up",
                catalog.get(ev).unwrap().name
            );
        }
    }
}
