//! The Event Obfuscator runtime: kernel module, userspace daemon, and the
//! noise injector (Fig. 7 of the paper).
//!
//! The *kernel module* launches the protection service and, for the d*
//! mechanism, monitors the real-time HPC values with RDPMC, forwarding
//! them to userspace over a netlink-style feed. The *userspace daemon*
//! computes the per-interval noise value from precomputed random draws
//! (the noise calculator) and converts it into a number of gadget-stack
//! repetitions injected into the VM's execution flow (the noise
//! injector). Both the protected application and the injector are pinned
//! to the same vCPU, so the hypervisor cannot tell them apart.

use crate::stack::GadgetStack;
use aegis_dp::{ClipBound, NoiseMechanism};
use aegis_faults::{self as faults, site, FaultPlan, FaultStream};
use aegis_microarch::{ActivityVector, Feature};
use aegis_sev::{ActivitySource, ProtectionStatus};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Consecutive zero-grant ticks before the injector reports itself
/// [`ProtectionStatus::Degraded`]. Together with the host watchdog's own
/// bound this keeps detection well inside one 1 ms attacker sample.
pub const STARVED_TICKS_DEGRADED: u32 = 4;

/// Consecutive intervals without a fresh kernel-module sample before the
/// daemon treats its feed as dead and falls back to ceiling injection.
pub const STALE_INTERVALS_DEGRADED: u32 = 3;

/// Obfuscator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ObfuscatorConfig {
    /// Noise recomputation interval (matches the attacker's 1 ms sampling
    /// in the paper's evaluation).
    pub interval_ns: u64,
    /// `S`: reference-event (µops) counts per normalized noise unit. The
    /// DP mechanisms work on normalized data with sensitivity 1; this
    /// scale converts their output back to injectable counts.
    pub noise_scale_counts: f64,
    /// Clip bound on normalized noise (`[0, B_u]`): injected instruction
    /// counts cannot be negative.
    pub clip: ClipBound,
}

impl Default for ObfuscatorConfig {
    fn default() -> Self {
        ObfuscatorConfig {
            // Five injection intervals per 1 ms attacker sample: the
            // daemon sustains a high injection rate, so no attacker slice
            // is ever noise-free despite the [0, B_u] clipping.
            interval_ns: 200_000,
            noise_scale_counts: 5.0e4,
            clip: ClipBound::injection(12.0),
        }
    }
}

/// The userspace daemon: noise calculator + injector arithmetic.
struct UserDaemon {
    mechanism: Box<dyn NoiseMechanism>,
    clip: ClipBound,
    /// Samples consumed so far. The mechanism indexes its series by this
    /// count, not by the interval counter: a dropped sample leaves a gap
    /// in the intervals but none in the series d* anchors on.
    consumed: usize,
}

impl UserDaemon {
    /// Drains the feed and returns the normalized (clipped) noise for the
    /// sample it held, if any.
    fn compute_noise(&mut self, feed: &mut Option<f64>) -> Option<f64> {
        let x_norm = feed.take()?;
        self.consumed += 1;
        let noise = self.mechanism.noise_at(self.consumed, x_norm);
        Some(self.clip.clip(noise))
    }
}

/// The Event Obfuscator: an [`ActivitySource`] installed on the protected
/// vCPU that injects `reps = clip(noise)·S / unit_µops` gadget-stack
/// repetitions per interval.
pub struct Obfuscator {
    stack: GadgetStack,
    cfg: ObfuscatorConfig,
    /// The kernel module → daemon sample feed (the paper's netlink
    /// socket): the normalized reference-event value of the interval
    /// that just closed. One slot suffices: each interval boundary
    /// publishes into it and the daemon drains it in the same call, so
    /// it never holds more than one sample and needs no lock or wake-up.
    feed: Option<f64>,
    daemon: UserDaemon,
    /// Signature-diverse gadget groups: `(summed activity, µops)` per
    /// lane. Each interval executes one lane, so the injected noise
    /// direction varies across intervals instead of scaling a single
    /// fixed activity vector — mirroring the per-event noise computation
    /// of the paper's daemon.
    lanes: Vec<(ActivityVector, f64)>,
    lane_rng: StdRng,
    // Interval accounting.
    elapsed_in_interval_ns: u64,
    app_counts_accum: f64,
    t: usize,
    current_rate: ActivityVector,
    injected_counts: f64,
    // Hot reload: a staged stack waiting for the next interval boundary.
    pending_stack: Option<GadgetStack>,
    generation: u64,
    // Fault injection + self-supervision.
    faults: FaultPlan,
    drop_stream: Option<FaultStream>,
    reload_stream: Option<FaultStream>,
    starved_ticks: u32,
    stale_intervals: u32,
    // Defense-effect telemetry, flushed once in `Drop`.
    samples_dropped: u64,
    fallback_intervals: u64,
}

impl Obfuscator {
    /// Creates an obfuscator injecting `stack` repetitions governed by
    /// `mechanism`.
    pub fn new(
        stack: GadgetStack,
        mechanism: Box<dyn NoiseMechanism>,
        cfg: ObfuscatorConfig,
    ) -> Self {
        Self::with_seed(stack, mechanism, cfg, 0)
    }

    /// Creates an obfuscator with an explicit lane-scheduling seed and
    /// the ambient [`FaultPlan`].
    pub fn with_seed(
        stack: GadgetStack,
        mechanism: Box<dyn NoiseMechanism>,
        cfg: ObfuscatorConfig,
        seed: u64,
    ) -> Self {
        Self::with_faults(stack, mechanism, cfg, seed, faults::plan())
    }

    /// Creates an obfuscator with an explicit seed and fault plan.
    pub fn with_faults(
        stack: GadgetStack,
        mechanism: Box<dyn NoiseMechanism>,
        cfg: ObfuscatorConfig,
        seed: u64,
        plan: FaultPlan,
    ) -> Self {
        let lanes = build_lanes(&stack);
        Obfuscator {
            stack,
            cfg,
            feed: None,
            daemon: UserDaemon {
                mechanism,
                clip: cfg.clip,
                consumed: 0,
            },
            lanes,
            lane_rng: StdRng::seed_from_u64(seed ^ 0x1a4e_5000),
            elapsed_in_interval_ns: 0,
            app_counts_accum: 0.0,
            t: 0,
            current_rate: ActivityVector::ZERO,
            injected_counts: 0.0,
            pending_stack: None,
            generation: 0,
            faults: plan,
            drop_stream: plan
                .is_active()
                .then(|| FaultStream::new(&plan, site::NETLINK, seed)),
            reload_stream: plan
                .is_active()
                .then(|| FaultStream::new(&plan, site::SERVICE_RELOAD, seed)),
            starved_ticks: 0,
            stale_intervals: 0,
            samples_dropped: 0,
            fallback_intervals: 0,
        }
    }

    /// The configured mechanism's name.
    pub fn mechanism_name(&self) -> &'static str {
        self.daemon.mechanism.name()
    }

    /// The configured privacy budget ε.
    pub fn epsilon(&self) -> f64 {
        self.daemon.mechanism.epsilon()
    }

    /// Total reference-event counts injected so far (the noise volume of
    /// the Section IX comparisons).
    pub fn injected_counts(&self) -> f64 {
        self.injected_counts
    }

    /// The injected gadget stack.
    pub fn stack(&self) -> &GadgetStack {
        &self.stack
    }

    /// Stages `stack` to replace the live gadget stack at the next
    /// interval boundary. The swap is atomic from the injection plane's
    /// point of view: the interval in flight drains under the old
    /// stack's lanes, the next interval injects through the new ones,
    /// and the mechanism's noise series, the interval counter, and the
    /// accumulated kernel-module samples all continue gapless. Staging
    /// again before the boundary replaces the previously staged stack.
    ///
    /// Under an active fault plan the apply itself can tear
    /// (`reload_torn`): the staged stack is lost at the boundary and
    /// [`Obfuscator::stack_generation`] does not advance — the old plan
    /// stays fully attached, which is what lets a supervisor detect the
    /// torn swap and restage.
    pub fn begin_reload(&mut self, stack: GadgetStack) {
        self.pending_stack = Some(stack);
    }

    /// Number of plan swaps applied so far. A supervisor staging a
    /// reload watches this advance to confirm the swap landed.
    pub fn stack_generation(&self) -> u64 {
        self.generation
    }

    /// Whether a staged stack is still waiting for its boundary.
    pub fn reload_pending(&self) -> bool {
        self.pending_stack.is_some()
    }

    /// Completed noise intervals so far (the daemon's `t` counter). The
    /// service plane's reload test pins this gapless across swaps.
    pub fn intervals(&self) -> usize {
        self.t
    }

    /// Whether the obfuscator currently considers its own protection
    /// degraded (starved of cycles or running on a stale sample feed).
    pub fn degraded(&self) -> bool {
        self.protection_status() == ProtectionStatus::Degraded
    }

    fn inject_lane(&mut self, counts: f64) {
        // Execute one signature lane this interval; the noise counts
        // land on that lane's events at the calibrated effect ratio.
        let lane = self.lane_rng.gen_range(0..self.lanes.len());
        let (activity, lane_uops) = &self.lanes[lane];
        let reps = counts / lane_uops.max(1.0);
        let interval_us = self.cfg.interval_ns as f64 / 1_000.0;
        self.current_rate = activity.scaled(reps / interval_us);
        self.injected_counts += counts;
    }

    fn close_interval(&mut self) {
        // Interval boundary: apply a staged plan swap before computing
        // the next interval's injection, so the closing interval drained
        // entirely under the old stack and the next one is entirely new.
        if let Some(stack) = self.pending_stack.take() {
            let torn = self
                .reload_stream
                .as_mut()
                .is_some_and(|s| s.chance(self.faults.reload_torn));
            if torn {
                faults::report(
                    "service",
                    "reload_torn",
                    &[("t", self.t as u64), ("generation", self.generation)],
                );
            } else {
                self.lanes = build_lanes(&stack);
                self.stack = stack;
                self.generation += 1;
                aegis_obs::counter_add("obfuscator.plan_swaps", 1.0);
            }
        }
        self.t += 1;
        let x_norm = self.app_counts_accum / self.cfg.noise_scale_counts;
        self.app_counts_accum = 0.0;
        let dropped = self
            .drop_stream
            .as_mut()
            .is_some_and(|s| s.chance(self.faults.sample_drop));
        if dropped {
            self.samples_dropped += 1;
            faults::report("netlink", "sample_drop", &[("t", self.t as u64)]);
        } else {
            // A full feed would mean the daemon stalled; like netlink
            // under back-pressure, the newest sample is the one dropped.
            self.feed.get_or_insert(x_norm);
        }
        if let Some(noise_norm) = self.daemon.compute_noise(&mut self.feed) {
            self.stale_intervals = 0;
            let counts = noise_norm * self.cfg.noise_scale_counts;
            self.inject_lane(counts);
        } else {
            // No fresh sample reached the daemon this interval: the
            // kernel-module feed is lossy or dead. After a bounded number
            // of stale intervals, fall back to injecting at the clip
            // ceiling — a degraded interval is maximally noisy, never
            // clean.
            self.stale_intervals = self.stale_intervals.saturating_add(1);
            if self.stale_intervals == STALE_INTERVALS_DEGRADED {
                aegis_obs::counter_add("obfuscator.stale_feed_episodes", 1.0);
                aegis_obs::event("obfuscator.stale_feed", &[("kind", "fault")]);
            }
            if self.stale_intervals >= STALE_INTERVALS_DEGRADED {
                self.fallback_intervals += 1;
                let counts = self.cfg.clip.hi * self.cfg.noise_scale_counts;
                self.inject_lane(counts);
            }
        }
    }
}

/// Groups the stack's gadgets into up to four lanes by the dominant
/// distinctive feature of their activity signature, so lanes point in
/// different micro-architectural directions.
fn build_lanes(stack: &GadgetStack) -> Vec<(ActivityVector, f64)> {
    const N_LANES: usize = 4;
    let mut lanes: Vec<ActivityVector> = vec![ActivityVector::ZERO; N_LANES];
    for pg in &stack.per_gadget {
        // Dominant feature excluding the universal ones.
        let mut best = Feature::Loads;
        let mut best_v = -1.0;
        for (f, v) in pg.iter_nonzero() {
            if matches!(
                f,
                Feature::UopsRetired
                    | Feature::InstrRetired
                    | Feature::Cycles
                    | Feature::StallCycles
            ) {
                continue;
            }
            if v > best_v {
                best_v = v;
                best = f;
            }
        }
        lanes[best.index() % N_LANES] += *pg;
    }
    let lanes: Vec<(ActivityVector, f64)> = lanes
        .into_iter()
        .filter(|l| !l.is_zero())
        .map(|l| {
            let uops = l[Feature::UopsRetired].max(1.0);
            (l, uops)
        })
        .collect();
    if lanes.is_empty() {
        vec![(stack.unit_activity, stack.unit_uops())]
    } else {
        lanes
    }
}

impl Drop for Obfuscator {
    fn drop(&mut self) {
        // Metrics land once per obfuscator lifetime, not once per 200 µs
        // interval: `close_interval` is on the simulation's hot path and
        // must not take the registry lock there.
        if self.t > 0 && aegis_obs::enabled() {
            let registry = aegis_obs::global();
            registry.counter_add("obfuscator.injected_counts", self.injected_counts);
            registry.counter_add("obfuscator.intervals", self.t as f64);
            // Fault-only counters stay absent from fault-free snapshots.
            if self.samples_dropped > 0 {
                registry.counter_add("obfuscator.samples_dropped", self.samples_dropped as f64);
            }
            if self.fallback_intervals > 0 {
                registry.counter_add(
                    "obfuscator.fallback_intervals",
                    self.fallback_intervals as f64,
                );
            }
        }
    }
}

impl std::fmt::Debug for Obfuscator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obfuscator")
            .field("mechanism", &self.mechanism_name())
            .field("epsilon", &self.epsilon())
            .field("stack_len", &self.stack.len())
            .field("t", &self.t)
            .finish()
    }
}

impl ActivitySource for Obfuscator {
    fn demand(&mut self) -> Option<ActivityVector> {
        Some(self.current_rate)
    }

    fn advance(&mut self, _plan_ns: u64) {
        // Injection has no plan of its own; the rate is recomputed from
        // the observed wall time in `observe_coscheduled`.
    }

    fn observe_coscheduled(&mut self, app_rate: &ActivityVector, tick_ns: u64) {
        let tick_us = tick_ns as f64 / 1_000.0;
        self.app_counts_accum += app_rate[Feature::UopsRetired] * tick_us;
        self.elapsed_in_interval_ns += tick_ns;
        while self.elapsed_in_interval_ns >= self.cfg.interval_ns {
            self.elapsed_in_interval_ns -= self.cfg.interval_ns;
            self.close_interval();
        }
    }

    fn note_execution(&mut self, granted_ns: u64) {
        // The injection thread's own stall watchdog: a healthy scheduler
        // always grants the injector a nonzero share, so consecutive
        // zero grants mean the daemon's injection is not reaching the
        // vCPU at all.
        if granted_ns == 0 {
            self.starved_ticks = self.starved_ticks.saturating_add(1);
            if self.starved_ticks == STARVED_TICKS_DEGRADED {
                aegis_obs::counter_add("obfuscator.starved_episodes", 1.0);
                aegis_obs::event("obfuscator.starved", &[("kind", "fault")]);
            }
        } else {
            self.starved_ticks = 0;
        }
    }

    fn protection_status(&self) -> ProtectionStatus {
        if self.starved_ticks >= STARVED_TICKS_DEGRADED
            || self.stale_intervals >= STALE_INTERVALS_DEGRADED
        {
            ProtectionStatus::Degraded
        } else {
            ProtectionStatus::Healthy
        }
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        // The service plane drives hot reloads through this after the
        // obfuscator has been boxed into the host.
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::ConstantOutput;
    use aegis_dp::{DStarMechanism, LaplaceMechanism};
    use aegis_fuzzer::Gadget;
    use aegis_isa::{IsaCatalog, Vendor, WellKnown};
    use aegis_microarch::{Core, InterferenceConfig, MicroArch};

    fn stack() -> GadgetStack {
        let catalog = IsaCatalog::synthetic(Vendor::Amd, 7);
        let mut core = Core::new(MicroArch::AmdEpyc7252, 7);
        core.set_interference(InterferenceConfig::isolated());
        GadgetStack::calibrate(
            &catalog,
            &mut core,
            vec![Gadget::new(WellKnown::Clflush.id(), WellKnown::Load64.id())],
            100,
        )
    }

    fn drive(obf: &mut Obfuscator, ticks: usize, app_uops_per_us: f64) -> Vec<f64> {
        let app = ActivityVector::from_pairs(&[(Feature::UopsRetired, app_uops_per_us)]);
        let mut rates = Vec::new();
        for _ in 0..ticks {
            obf.observe_coscheduled(&app, 100_000);
            rates.push(obf.demand().unwrap()[Feature::UopsRetired]);
        }
        rates
    }

    #[test]
    fn injects_laplace_scale_noise() {
        let cfg = ObfuscatorConfig::default();
        let mut obf = Obfuscator::new(stack(), Box::new(LaplaceMechanism::new(1.0, 42)), cfg);
        // 200 ms of 100 µs ticks.
        drive(&mut obf, 2000, 400.0);
        let total = obf.injected_counts();
        let n_intervals = 200_000_000 / cfg.interval_ns;
        // E[clip(Lap(1))] ≈ 0.43 normalized units → ~0.43·S per interval.
        let per_interval = total / n_intervals as f64;
        let expected = 0.43 * cfg.noise_scale_counts;
        assert!(
            (per_interval - expected).abs() / expected < 0.3,
            "per-interval {per_interval} vs ~{expected}"
        );
    }

    #[test]
    fn smaller_epsilon_injects_more() {
        let cfg = ObfuscatorConfig::default();
        let mut strong = Obfuscator::new(stack(), Box::new(LaplaceMechanism::new(0.125, 1)), cfg);
        let mut weak = Obfuscator::new(stack(), Box::new(LaplaceMechanism::new(8.0, 1)), cfg);
        drive(&mut strong, 2000, 400.0);
        drive(&mut weak, 2000, 400.0);
        assert!(
            strong.injected_counts() > 4.0 * weak.injected_counts(),
            "strong {} weak {}",
            strong.injected_counts(),
            weak.injected_counts()
        );
    }

    #[test]
    fn dstar_injects_more_than_laplace_at_equal_epsilon() {
        let cfg = ObfuscatorConfig::default();
        let mut lap = Obfuscator::new(stack(), Box::new(LaplaceMechanism::new(1.0, 5)), cfg);
        let mut ds = Obfuscator::new(stack(), Box::new(DStarMechanism::new(1.0, 5)), cfg);
        drive(&mut lap, 4000, 400.0);
        drive(&mut ds, 4000, 400.0);
        assert!(
            ds.injected_counts() > 1.5 * lap.injected_counts(),
            "dstar {} laplace {}",
            ds.injected_counts(),
            lap.injected_counts()
        );
    }

    #[test]
    fn rate_is_zero_before_first_interval() {
        let mut obf = Obfuscator::new(
            stack(),
            Box::new(LaplaceMechanism::new(1.0, 1)),
            ObfuscatorConfig::default(),
        );
        assert!(obf.demand().unwrap().is_zero());
        // One tick (100 µs) is still inside the first 200 µs interval.
        let rates = drive(&mut obf, 1, 100.0);
        assert!(rates.iter().all(|&r| r == 0.0));
    }

    #[test]
    fn constant_output_fills_to_peak() {
        let cfg = ObfuscatorConfig {
            clip: ClipBound::injection(1e9),
            ..ObfuscatorConfig::default()
        };
        // App runs at 400 uops/us → 400·interval_us counts per interval,
        // i.e. that over S in normalized units; fill to peak 6.0.
        let mut obf = Obfuscator::with_faults(
            stack(),
            Box::new(ConstantOutput::new(6.0)),
            cfg,
            0,
            FaultPlan::none(),
        );
        drive(&mut obf, 1000, 400.0); // 100 ms
        let n_intervals = 100_000_000 / cfg.interval_ns;
        let per_interval = obf.injected_counts() / n_intervals as f64 / cfg.noise_scale_counts;
        let interval_us = cfg.interval_ns as f64 / 1_000.0;
        let expected = 6.0 - 400.0 * interval_us / cfg.noise_scale_counts;
        assert!(
            (per_interval - expected).abs() < 0.1,
            "{per_interval} vs {expected}"
        );
    }

    #[test]
    fn injection_rate_reflects_noise_counts() {
        let cfg = ObfuscatorConfig::default();
        let mut obf = Obfuscator::new(stack(), Box::new(ConstantOutput::new(1.0)), cfg);
        // App idle → x=0 → noise = 1.0 unit = S counts per interval
        // = S/interval_us uops/us injected rate.
        let rates = drive(&mut obf, 50, 0.0);
        let last = *rates.last().unwrap();
        let interval_us = cfg.interval_ns as f64 / 1_000.0;
        let expected = cfg.noise_scale_counts / interval_us;
        assert!(
            (last - expected).abs() < expected * 0.05,
            "{last} vs {expected}"
        );
    }

    #[test]
    fn starvation_watchdog_degrades_and_recovers() {
        let mut obf = Obfuscator::new(
            stack(),
            Box::new(LaplaceMechanism::new(1.0, 1)),
            ObfuscatorConfig::default(),
        );
        for _ in 0..STARVED_TICKS_DEGRADED - 1 {
            obf.note_execution(0);
            assert_eq!(obf.protection_status(), ProtectionStatus::Healthy);
        }
        obf.note_execution(0);
        assert_eq!(obf.protection_status(), ProtectionStatus::Degraded);
        assert!(obf.degraded());
        obf.note_execution(50_000);
        assert_eq!(obf.protection_status(), ProtectionStatus::Healthy);
    }

    #[test]
    fn dropped_sample_feed_falls_back_to_ceiling_injection() {
        let cfg = ObfuscatorConfig::default();
        let plan = FaultPlan {
            seed: 7,
            sample_drop: 1.0,
            ..FaultPlan::none()
        };
        let mut obf =
            Obfuscator::with_faults(stack(), Box::new(ConstantOutput::new(0.5)), cfg, 0, plan);
        // Every published sample is dropped → after the stale threshold
        // the daemon injects at the clip ceiling instead of going quiet.
        let rates = drive(&mut obf, 40, 100.0);
        assert!(obf.degraded());
        let last = *rates.last().unwrap();
        let interval_us = cfg.interval_ns as f64 / 1_000.0;
        let ceiling = cfg.clip.hi * cfg.noise_scale_counts / interval_us;
        assert!(
            (last - ceiling).abs() < ceiling * 0.05,
            "degraded rate {last} should sit at the ceiling {ceiling}"
        );
        assert!(obf.injected_counts() > 0.0);
    }

    #[test]
    fn dropped_samples_leave_no_gap_in_the_mechanism_series() {
        // d* rejects a gap in its series; the daemon indexes it by
        // consumed samples, so lossy feeds run to completion for every
        // mechanism while the interval counter keeps counting intervals.
        let half = FaultPlan {
            seed: 3,
            sample_drop: 0.5,
            ..FaultPlan::none()
        };
        for plan in [FaultPlan::smoke(), half] {
            let mechanisms: [Box<dyn NoiseMechanism>; 2] = [
                Box::new(DStarMechanism::new(8.0, 0)),
                Box::new(LaplaceMechanism::new(1.0, 0)),
            ];
            for mechanism in mechanisms {
                let name = mechanism.name();
                let cfg = ObfuscatorConfig::default();
                let mut obf = Obfuscator::with_faults(stack(), mechanism, cfg, 0, plan);
                drive(&mut obf, 4000, 300.0);
                assert_eq!(obf.intervals(), 2000, "{name}");
                assert!(
                    obf.samples_dropped > 0,
                    "{name}: the plan must drop samples"
                );
                assert_eq!(
                    obf.daemon.consumed as u64 + obf.samples_dropped,
                    obf.t as u64,
                    "{name}: every interval either feeds the mechanism or drops"
                );
                if plan.sample_drop >= 0.5 {
                    assert!(
                        obf.fallback_intervals > 0,
                        "{name}: runs of drops must engage the ceiling fallback"
                    );
                }
            }
        }
    }

    #[test]
    fn defense_counters_flush_on_drop() {
        let plan = FaultPlan {
            seed: 7,
            sample_drop: 1.0,
            ..FaultPlan::none()
        };
        let before = aegis_obs::snapshot();
        let mut obf = Obfuscator::with_faults(
            stack(),
            Box::new(ConstantOutput::new(0.5)),
            ObfuscatorConfig::default(),
            0,
            plan,
        );
        drive(&mut obf, 40, 100.0);
        // 20 intervals, all dropped; the ceiling engages from the third.
        assert_eq!((obf.samples_dropped, obf.fallback_intervals), (20, 18));
        drop(obf);
        if !aegis_obs::enabled() {
            return;
        }
        let after = aegis_obs::snapshot();
        // Other tests share the global registry, so only a lower bound
        // holds for the deltas.
        for (name, at_least) in [
            ("obfuscator.samples_dropped", 20.0),
            ("obfuscator.fallback_intervals", 18.0),
        ] {
            let delta = after.counter(name) - before.counter(name);
            assert!(delta >= at_least, "{name}: {delta}");
        }
    }

    #[test]
    fn inert_plan_matches_no_fault_layer() {
        let cfg = ObfuscatorConfig::default();
        let mut a = Obfuscator::with_faults(
            stack(),
            Box::new(LaplaceMechanism::new(1.0, 3)),
            cfg,
            0,
            FaultPlan::none(),
        );
        // Inert whatever its seed: no fault stream is ever drawn.
        let inert = FaultPlan {
            seed: 0x5eed,
            ..FaultPlan::none()
        };
        let mut b = Obfuscator::with_faults(
            stack(),
            Box::new(LaplaceMechanism::new(1.0, 3)),
            cfg,
            0,
            inert,
        );
        let ra = drive(&mut a, 500, 300.0);
        let rb = drive(&mut b, 500, 300.0);
        assert_eq!(ra, rb);
        assert_eq!(a.injected_counts(), b.injected_counts());
    }

    fn stack2() -> GadgetStack {
        let catalog = IsaCatalog::synthetic(Vendor::Amd, 7);
        let mut core = Core::new(MicroArch::AmdEpyc7252, 7);
        core.set_interference(InterferenceConfig::isolated());
        GadgetStack::calibrate(
            &catalog,
            &mut core,
            vec![
                Gadget::new(WellKnown::Clflush.id(), WellKnown::Load64.id()),
                Gadget::new(WellKnown::Load64.id(), WellKnown::Store64.id()),
            ],
            100,
        )
    }

    #[test]
    fn reload_with_identical_stack_is_invisible() {
        // A swap to a bit-identical stack must leave every injected rate
        // unchanged vs an untouched twin: the mechanism stream, lane
        // RNG, interval counter, and sample accumulator all continue
        // gapless through the boundary.
        let cfg = ObfuscatorConfig::default();
        let mut a = Obfuscator::new(stack(), Box::new(LaplaceMechanism::new(1.0, 3)), cfg);
        let mut b = Obfuscator::new(stack(), Box::new(LaplaceMechanism::new(1.0, 3)), cfg);
        let ra0 = drive(&mut a, 500, 300.0);
        let rb0 = drive(&mut b, 500, 300.0);
        assert_eq!(ra0, rb0);
        b.begin_reload(stack());
        assert!(b.reload_pending());
        let ra1 = drive(&mut a, 500, 300.0);
        let rb1 = drive(&mut b, 500, 300.0);
        assert_eq!(ra1, rb1, "identical-stack swap must be invisible");
        assert!(!b.reload_pending());
        assert_eq!(b.stack_generation(), 1);
        assert_eq!(a.stack_generation(), 0);
        assert_eq!(a.intervals(), b.intervals(), "t stays gapless");
    }

    #[test]
    fn reload_swaps_lanes_without_dropping_intervals() {
        let cfg = ObfuscatorConfig::default();
        let mut obf = Obfuscator::new(stack(), Box::new(LaplaceMechanism::new(1.0, 9)), cfg);
        drive(&mut obf, 300, 300.0);
        let t_before = obf.intervals();
        let counts_before = obf.injected_counts();
        assert_eq!(obf.stack().len(), 1);
        obf.begin_reload(stack2());
        drive(&mut obf, 300, 300.0);
        assert_eq!(obf.stack_generation(), 1);
        assert_eq!(obf.stack().len(), 2, "new stack attached");
        // 300 ticks of 100 µs = 30 ms = 150 more 200 µs intervals: no
        // interval was lost to the swap, and injection kept flowing.
        assert_eq!(obf.intervals(), t_before + 150);
        assert!(obf.injected_counts() > counts_before);
    }

    #[test]
    fn torn_reload_keeps_old_plan_fully_attached() {
        let cfg = ObfuscatorConfig::default();
        let plan = FaultPlan {
            seed: 11,
            reload_torn: 1.0,
            ..FaultPlan::none()
        };
        let mut clean = Obfuscator::with_faults(
            stack(),
            Box::new(LaplaceMechanism::new(1.0, 4)),
            cfg,
            0,
            FaultPlan::none(),
        );
        let mut torn = Obfuscator::with_faults(
            stack(),
            Box::new(LaplaceMechanism::new(1.0, 4)),
            cfg,
            0,
            plan,
        );
        drive(&mut clean, 200, 300.0);
        drive(&mut torn, 200, 300.0);
        torn.begin_reload(stack2());
        let rc = drive(&mut clean, 400, 300.0);
        let rt = drive(&mut torn, 400, 300.0);
        // The staged stack was lost at the boundary: generation did not
        // advance, the old stack is still attached, and the injected
        // rates match the untouched twin exactly (the torn draw lives on
        // its own fault stream).
        assert_eq!(torn.stack_generation(), 0);
        assert!(!torn.reload_pending(), "staged stack was consumed");
        assert_eq!(torn.stack().len(), 1);
        assert_eq!(rc, rt);
        // A supervisor restages; with the schedule's next draw also torn
        // under p=1.0 the swap keeps failing — which is exactly the
        // signal the service plane's retry loop keys on.
        torn.begin_reload(stack2());
        drive(&mut torn, 400, 300.0);
        assert_eq!(torn.stack_generation(), 0);
    }

    #[test]
    fn debug_shows_mechanism() {
        let obf = Obfuscator::new(
            stack(),
            Box::new(LaplaceMechanism::new(2.0, 1)),
            ObfuscatorConfig::default(),
        );
        let s = format!("{obf:?}");
        assert!(s.contains("laplace"), "{s}");
    }
}
