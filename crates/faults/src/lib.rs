//! Seed-deterministic fault injection for the Aegis simulation.
//!
//! The paper's security argument collapses the moment a guest-visible
//! counter is read while noise injection has silently lapsed, so the
//! host/PMU/obfuscator plane must be exercised under failure — and the
//! workspace's determinism contract (results are a pure function of
//! `(config, seed)`, bit-identical at any worker count) must survive
//! that exercise. This crate provides the two primitives every injection
//! site shares:
//!
//! 1. A [`FaultPlan`]: a serializable, `Copy` bundle of per-site fault
//!    rates plus the fault seed. A plan is *data*, not state — the same
//!    plan replayed against the same simulation seed reproduces the
//!    exact fault schedule.
//! 2. A [`FaultStream`]: a splitmix64 counter stream keyed by
//!    `(plan.seed, site, instance)`, mirroring `aegis_par::derive_seed`.
//!    Each injection site owns its stream, so fault draws never touch
//!    the simulation's RNGs and worker count never changes which faults
//!    fire.
//!
//! ## Resolution
//!
//! The ambient plan is resolved like the obs level: an explicit
//! [`set_plan`] override → the `AEGIS_FAULTS` environment variable
//! (`off`, `smoke`, or a JSON [`FaultPlan`]) → [`FaultPlan::none`].
//! Components capture the plan once at construction (and expose
//! `with_faults` constructors), so parallel tests can pin their own
//! plans without racing on the global.
//!
//! ## The zero-draw guarantee
//!
//! With [`FaultPlan::none`] every probability is `0.0`; [`FaultStream`]
//! guards on the rate *before* advancing its state, and sites guard on
//! [`FaultPlan::is_active`] before allocating streams at all. An
//! inactive plan therefore consumes no entropy anywhere and every
//! existing golden test stays bit-identical.

use serde::{Deserialize, Serialize};
use std::sync::RwLock;

/// Stream tags for the per-site fault streams. Distinct tags keep the
/// sites' draw sequences independent even for equal instance ids.
pub mod site {
    /// Counter read corruption / saturation / overflow (per lane).
    pub const COUNTER_READ: u64 = 0xFA01;
    /// MSR/PMC programming failure in `PerfMonitor`.
    pub const PMC_PROGRAM: u64 = 0xFA02;
    /// Counter slot stolen by a concurrent host agent.
    pub const SLOT_STEAL: u64 = 0xFA03;
    /// Injector-stream stall / detach in `sev::Host` (per core).
    pub const INJECTOR: u64 = 0xFA04;
    /// Scheduler tick jitter in `sev::Host` (per core).
    pub const TICK: u64 = 0xFA05;
    /// Torn / corrupt `ArtifactCache` artifacts.
    pub const CACHE: u64 = 0xFA06;
    /// Fuzzer crash scheduling (mid-run kill).
    pub const FUZZ: u64 = 0xFA07;
    /// Netlink-style sample drop between kernel module and daemon.
    pub const NETLINK: u64 = 0xFA08;
    /// Service-plane health check flap (healthy session reported
    /// unhealthy for one check).
    pub const SERVICE_HEALTH: u64 = 0xFA09;
    /// Service-plane hot-reload torn swap (pending plan lost before the
    /// interval-boundary apply).
    pub const SERVICE_RELOAD: u64 = 0xFA0A;
    /// Service-plane ε-ledger persistence corruption (torn ledger
    /// write).
    pub const SERVICE_LEDGER: u64 = 0xFA0B;
    /// Fleet-plane host failure (whole-host crash, per host).
    pub const FLEET_HOST: u64 = 0xFA0C;
    /// Fleet-plane chaos-storm scheduling (host degradation bursts).
    pub const FLEET_STORM: u64 = 0xFA0D;
}

/// A serializable fault-injection plan: per-site rates plus the fault
/// seed. `Copy` on purpose — it rides inside `AegisConfig` and is
/// captured by value at every injection site.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Base seed for every fault stream. Independent of the simulation
    /// seed so the same fault schedule can be replayed against
    /// different workloads.
    pub seed: u64,
    /// Probability per counter read that the returned value is
    /// bit-corrupted.
    pub counter_corrupt: f64,
    /// Probability per counter read that the value saturates to the
    /// 48-bit PMC ceiling.
    pub counter_saturate: f64,
    /// Probability per counter read that the value wraps (simulated
    /// 48-bit overflow).
    pub counter_overflow: f64,
    /// Probability per slot-programming operation that the MSR write
    /// fails transiently.
    pub pmc_program_fail: f64,
    /// Probability per collection quantum that a programmed slot is
    /// stolen by another host agent and must be re-programmed.
    pub slot_steal: f64,
    /// Probability per scheduler tick that the injector stream on a
    /// core begins a stall episode (denied cycles for
    /// [`FaultPlan::stall_ticks`] ticks).
    pub injector_stall: f64,
    /// Length of a stall episode, in scheduler ticks.
    pub stall_ticks: u32,
    /// Probability per scheduler tick that the injector detaches
    /// permanently (stalls until re-deployed).
    pub injector_detach: f64,
    /// Probability per scheduler tick of timing jitter (the tick's
    /// usable capacity is scaled down).
    pub tick_jitter: f64,
    /// Probability per kernel-module HPC sample that the netlink-style
    /// message to the obfuscator daemon is dropped.
    pub sample_drop: f64,
    /// Probability per `ArtifactCache::put` that the write is torn
    /// (legacy non-atomic path: truncated JSON at the final path).
    pub cache_torn: f64,
    /// If nonzero, whichever checkpointed grid is running (the fuzzer's
    /// recording pass, an ε-sweep, a fleet sweep) aborts (panics) after
    /// this many completed units — used to exercise checkpoint/resume.
    pub kill_after: u64,
    /// Probability per service-plane health check that a healthy
    /// session is spuriously reported unhealthy (watchdog flap).
    pub health_flap: f64,
    /// Probability per hot-reload swap attempt that the pending plan is
    /// lost before the interval-boundary apply (torn swap; the old plan
    /// stays fully attached).
    pub reload_torn: f64,
    /// Probability per ε-ledger persist that the on-disk record is torn
    /// (truncated JSON; the next service start must fail closed).
    pub ledger_corrupt: f64,
    /// Probability per chaos-storm step that a fleet host crashes
    /// outright (failure domain lost; tenants must evacuate).
    pub host_crash: f64,
    /// Probability per chaos-storm step that a fleet host degrades (all
    /// its supervised sessions are bounced through the watchdog).
    pub host_degrade: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The inert plan: every rate zero, no kills. Injection sites
    /// consume zero draws under this plan.
    pub const fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            counter_corrupt: 0.0,
            counter_saturate: 0.0,
            counter_overflow: 0.0,
            pmc_program_fail: 0.0,
            slot_steal: 0.0,
            injector_stall: 0.0,
            stall_ticks: 0,
            injector_detach: 0.0,
            tick_jitter: 0.0,
            sample_drop: 0.0,
            cache_torn: 0.0,
            kill_after: 0,
            health_flap: 0.0,
            reload_torn: 0.0,
            ledger_corrupt: 0.0,
            host_crash: 0.0,
            host_degrade: 0.0,
        }
    }

    /// A moderate every-site plan for CI fault-matrix passes
    /// (`AEGIS_FAULTS=smoke`): frequent enough to exercise every
    /// recovery path in a short run, rare enough that supervised
    /// components still make progress.
    pub const fn smoke() -> FaultPlan {
        FaultPlan {
            seed: 0xAE61_5F00,
            counter_corrupt: 0.02,
            counter_saturate: 0.01,
            counter_overflow: 0.01,
            pmc_program_fail: 0.05,
            slot_steal: 0.02,
            injector_stall: 0.002,
            stall_ticks: 20,
            injector_detach: 0.0,
            tick_jitter: 0.01,
            sample_drop: 0.05,
            cache_torn: 0.1,
            kill_after: 0,
            health_flap: 0.05,
            reload_torn: 0.1,
            ledger_corrupt: 0.05,
            host_crash: 0.05,
            host_degrade: 0.1,
        }
    }

    /// Whether any fault can ever fire under this plan. Sites use this
    /// to skip stream allocation entirely (the zero-draw guarantee).
    pub fn is_active(&self) -> bool {
        self.counter_corrupt > 0.0
            || self.counter_saturate > 0.0
            || self.counter_overflow > 0.0
            || self.pmc_program_fail > 0.0
            || self.slot_steal > 0.0
            || self.injector_stall > 0.0
            || self.injector_detach > 0.0
            || self.tick_jitter > 0.0
            || self.sample_drop > 0.0
            || self.cache_torn > 0.0
            || self.kill_after > 0
            || self.health_flap > 0.0
            || self.reload_torn > 0.0
            || self.ledger_corrupt > 0.0
            || self.host_crash > 0.0
            || self.host_degrade > 0.0
    }

    /// Parses an `AEGIS_FAULTS` value: `off|none|0` → [`FaultPlan::none`],
    /// `smoke` → [`FaultPlan::smoke`], otherwise a JSON object with any
    /// subset of the plan's fields (missing fields default to zero).
    pub fn parse(s: &str) -> Result<FaultPlan, String> {
        let t = s.trim();
        match t.to_ascii_lowercase().as_str() {
            "" | "off" | "none" | "0" => return Ok(FaultPlan::none()),
            "smoke" => return Ok(FaultPlan::smoke()),
            _ => {}
        }
        let v: serde_json::Value = serde_json::from_str(t)
            .map_err(|e| format!("AEGIS_FAULTS: not off|smoke|<json plan>: {e}"))?;
        let obj = v
            .as_object()
            .ok_or_else(|| "AEGIS_FAULTS: JSON plan must be an object".to_string())?;
        // Missing fields default to the inert value; the vendored serde
        // derive has no `#[serde(default)]`, so partial plans are read
        // field by field.
        let mut plan = FaultPlan::none();
        for (key, val) in obj.iter() {
            let f = || {
                val.as_f64()
                    .ok_or_else(|| format!("AEGIS_FAULTS: field {key:?} must be a number"))
            };
            let u = || {
                val.as_u64()
                    .ok_or_else(|| format!("AEGIS_FAULTS: field {key:?} must be an integer"))
            };
            match key.as_str() {
                "seed" => plan.seed = u()?,
                "counter_corrupt" => plan.counter_corrupt = f()?,
                "counter_saturate" => plan.counter_saturate = f()?,
                "counter_overflow" => plan.counter_overflow = f()?,
                "pmc_program_fail" => plan.pmc_program_fail = f()?,
                "slot_steal" => plan.slot_steal = f()?,
                "injector_stall" => plan.injector_stall = f()?,
                "stall_ticks" => plan.stall_ticks = u()? as u32,
                "injector_detach" => plan.injector_detach = f()?,
                "tick_jitter" => plan.tick_jitter = f()?,
                "sample_drop" => plan.sample_drop = f()?,
                "cache_torn" => plan.cache_torn = f()?,
                "kill_after" => plan.kill_after = u()?,
                "health_flap" => plan.health_flap = f()?,
                "reload_torn" => plan.reload_torn = f()?,
                "ledger_corrupt" => plan.ledger_corrupt = f()?,
                "host_crash" => plan.host_crash = f()?,
                "host_degrade" => plan.host_degrade = f()?,
                other => return Err(format!("AEGIS_FAULTS: unknown field {other:?}")),
            }
        }
        Ok(plan)
    }

    /// Returns a copy with a different fault seed (for sweeping fault
    /// schedules in property tests).
    pub fn with_seed(mut self, seed: u64) -> FaultPlan {
        self.seed = seed;
        self
    }
}

/// SplitMix64 output mix, identical to `aegis_par::seed::splitmix64`.
/// Duplicated here (it is five lines) so the fault layer stays a leaf
/// crate below `aegis-par`, which itself injects cache faults.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A keyed fault stream: a splitmix64 counter generator seeded from
/// `(plan.seed, site, instance)` exactly the way `derive_seed` chains
/// its stages. Each injection site owns one stream per logical instance
/// (core index, lane index, session index, …), so draws are independent
/// of scheduling and worker count.
#[derive(Debug, Clone)]
pub struct FaultStream {
    state: u64,
}

impl FaultStream {
    /// Creates the stream for `(plan, site, instance)`.
    pub fn new(plan: &FaultPlan, site: u64, instance: u64) -> FaultStream {
        let keyed = splitmix64(plan.seed ^ splitmix64(site));
        FaultStream {
            state: splitmix64(keyed ^ splitmix64(instance)),
        }
    }

    /// Next raw 64-bit draw.
    pub fn bits(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.state)
    }

    /// Bernoulli draw: `true` with probability `p`. Guards on `p <= 0`
    /// *before* advancing state, so zero-rate sites consume no draws.
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            // Still consume a draw so `p = 1.0` and `p = 0.999…` sites
            // stay aligned.
            self.bits();
            return true;
        }
        self.unit() < p
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.bits() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `0..n` (`n > 0`).
    pub fn uniform(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "uniform(0) has no valid output");
        // The simulation's fault sites draw over tiny ranges (counter
        // slots, tick fractions); modulo bias over 2^64 is < 2^-50 and
        // determinism, not uniformity, is the contract here.
        self.bits() % n.max(1)
    }
}

/// Emits a structured `aegis-obs` fault event (`kind = "fault"`) and
/// bumps the `faults.injected` counter. `detail` carries numeric
/// context (slot, core, tick, …). Observability stays write-only:
/// nothing here feeds back into the simulation.
pub fn report(site: &str, action: &str, detail: &[(&str, u64)]) {
    aegis_obs::counter_add("faults.injected", 1.0);
    aegis_obs::counter_add(&format!("faults.{site}.{action}"), 1.0);
    let mut fields: Vec<(&str, serde_json::Value)> = vec![
        ("site", serde_json::Value::String(site.to_string())),
        ("action", serde_json::Value::String(action.to_string())),
    ];
    for &(k, v) in detail {
        fields.push((k, serde_json::Value::from(v)));
    }
    aegis_obs::event_with("fault", "fault.injected", &fields);
}

/// Process-wide plan override. `None` = unset (fall through to env).
static PLAN_OVERRIDE: RwLock<Option<FaultPlan>> = RwLock::new(None);

/// Sets (or with `None` clears) the process-wide fault plan override.
/// An explicit override wins over the `AEGIS_FAULTS` environment
/// variable. Prefer the `with_faults` constructors in tests that run in
/// parallel threads — the override is global.
pub fn set_plan(plan: Option<FaultPlan>) {
    *PLAN_OVERRIDE
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = plan;
}

/// Resolves the ambient plan: [`set_plan`] override → `AEGIS_FAULTS`
/// environment variable → [`FaultPlan::none`]. An unparseable
/// environment value resolves to `none` (and is reported once via obs)
/// rather than killing the process.
pub fn plan() -> FaultPlan {
    if let Some(p) = *PLAN_OVERRIDE
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
    {
        return p;
    }
    match std::env::var("AEGIS_FAULTS") {
        Ok(v) => match FaultPlan::parse(&v) {
            Ok(p) => p,
            Err(e) => {
                warn_bad_env_once(&e);
                FaultPlan::none()
            }
        },
        Err(_) => FaultPlan::none(),
    }
}

fn warn_bad_env_once(msg: &str) {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        aegis_obs::event("fault.plan.bad_env", &[("error", msg)]);
        eprintln!("[faults] ignoring {msg}");
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that mutate the process-global plan override.
    fn test_guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
        LOCK.get_or_init(|| std::sync::Mutex::new(()))
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn none_is_inert_and_default() {
        assert!(!FaultPlan::none().is_active());
        assert_eq!(FaultPlan::default(), FaultPlan::none());
        assert!(FaultPlan::smoke().is_active());
    }

    #[test]
    fn parse_presets_and_json() {
        assert_eq!(FaultPlan::parse("off").unwrap(), FaultPlan::none());
        assert_eq!(FaultPlan::parse("NONE").unwrap(), FaultPlan::none());
        assert_eq!(FaultPlan::parse("smoke").unwrap(), FaultPlan::smoke());
        let p = FaultPlan::parse(r#"{"seed": 7, "pmc_program_fail": 0.5}"#).unwrap();
        assert_eq!(p.seed, 7);
        assert_eq!(p.pmc_program_fail, 0.5);
        assert_eq!(p.counter_corrupt, 0.0);
        assert!(FaultPlan::parse("bogus").is_err());
    }

    #[test]
    fn one_kill_knob_parses_and_activates() {
        let p = FaultPlan::parse(r#"{"kill_after": 3}"#).unwrap();
        assert_eq!(p.kill_after, 3);
        assert!(p.is_active(), "a kill point alone arms checkpointing");
        for old in ["fuzz_kill_after", "sweep_kill_after"] {
            let json = format!("{{\"{old}\": 3}}");
            assert!(
                FaultPlan::parse(&json).is_err(),
                "{old} is no longer a knob"
            );
        }
    }

    #[test]
    fn service_sites_parse_and_activate() {
        let p = FaultPlan::parse(
            r#"{"health_flap": 0.25, "reload_torn": 0.5, "ledger_corrupt": 1.0}"#,
        )
        .unwrap();
        assert_eq!(p.health_flap, 0.25);
        assert_eq!(p.reload_torn, 0.5);
        assert_eq!(p.ledger_corrupt, 1.0);
        assert!(p.is_active());
        for only in [
            FaultPlan {
                health_flap: 0.1,
                ..FaultPlan::none()
            },
            FaultPlan {
                reload_torn: 0.1,
                ..FaultPlan::none()
            },
            FaultPlan {
                ledger_corrupt: 0.1,
                ..FaultPlan::none()
            },
        ] {
            assert!(only.is_active(), "service-site rate alone activates");
        }
    }

    #[test]
    fn fleet_sites_parse_and_activate() {
        let p = FaultPlan::parse(r#"{"host_crash": 0.125, "host_degrade": 0.25}"#).unwrap();
        assert_eq!(p.host_crash, 0.125);
        assert_eq!(p.host_degrade, 0.25);
        assert!(p.is_active());
        for only in [
            FaultPlan {
                host_crash: 0.1,
                ..FaultPlan::none()
            },
            FaultPlan {
                host_degrade: 0.1,
                ..FaultPlan::none()
            },
        ] {
            assert!(only.is_active(), "fleet-site rate alone activates");
        }
    }

    #[test]
    fn plan_roundtrips_through_json() {
        let p = FaultPlan::smoke().with_seed(42);
        let s = serde_json::to_string(&p).unwrap();
        assert_eq!(FaultPlan::parse(&s).unwrap(), p);
    }

    #[test]
    fn streams_are_keyed_and_reproducible() {
        let plan = FaultPlan::smoke();
        let mut a = FaultStream::new(&plan, site::COUNTER_READ, 3);
        let mut b = FaultStream::new(&plan, site::COUNTER_READ, 3);
        let seq_a: Vec<u64> = (0..16).map(|_| a.bits()).collect();
        let seq_b: Vec<u64> = (0..16).map(|_| b.bits()).collect();
        assert_eq!(seq_a, seq_b, "same key, same sequence");

        let mut c = FaultStream::new(&plan, site::COUNTER_READ, 4);
        let mut d = FaultStream::new(&plan, site::PMC_PROGRAM, 3);
        assert_ne!(seq_a[0], c.bits(), "instance changes the stream");
        assert_ne!(seq_a[0], d.bits(), "site changes the stream");
    }

    #[test]
    fn zero_rate_consumes_no_draws() {
        let plan = FaultPlan::smoke();
        let mut s = FaultStream::new(&plan, site::TICK, 0);
        let mut t = s.clone();
        for _ in 0..100 {
            assert!(!s.chance(0.0));
        }
        // State unchanged: the next real draw matches the twin.
        assert_eq!(s.bits(), t.bits());
    }

    #[test]
    fn chance_rates_are_sane() {
        let plan = FaultPlan::smoke().with_seed(9);
        let mut s = FaultStream::new(&plan, site::CACHE, 0);
        let hits = (0..10_000).filter(|_| s.chance(0.1)).count();
        assert!((800..1200).contains(&hits), "p=0.1 over 10k: got {hits}");
        let mut one = FaultStream::new(&plan, site::CACHE, 1);
        assert!(one.chance(1.0));
    }

    #[test]
    fn uniform_stays_in_range() {
        let plan = FaultPlan::smoke();
        let mut s = FaultStream::new(&plan, site::SLOT_STEAL, 0);
        for _ in 0..1000 {
            assert!(s.uniform(4) < 4);
        }
    }

    #[test]
    fn global_override_wins() {
        let _guard = test_guard();
        set_plan(Some(FaultPlan::smoke()));
        assert_eq!(plan(), FaultPlan::smoke());
        set_plan(None);
        if std::env::var("AEGIS_FAULTS").is_err() {
            assert_eq!(plan(), FaultPlan::none());
        }
    }
}
