//! The host: physical cores, guest VMs, and the discrete-time scheduler.

use crate::policy::{SevMode, SevViolation};
use crate::source::{ActivitySource, PlanSource, ProtectionStatus};
use aegis_faults::{self as faults, FaultPlan, FaultStream};
use aegis_microarch::{
    ActivityVector, Core, CoreBatch, EventCatalog, EventId, Feature, MicroArch, Origin,
    OriginFilter, COUNTER_SLOTS,
};
use aegis_par::Executor;
use aegis_perf::{LaneTraceRecorder, PerfError, Trace, TraceRecorder};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Scheduler tick: 100 µs of simulated time.
pub const TICK_NS: u64 = 100_000;

/// Consecutive unhealthy ticks before the supervision layer latches a
/// core's guest-visible counters fail-closed. Chosen well below the
/// attacker's 1 ms (10-tick) sampling interval, so no sample window can
/// complete entirely inside the detection gap.
pub const WATCHDOG_TICKS: u32 = 4;

/// Identifier of a launched VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VmId(pub u32);

impl fmt::Display for VmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vm{}", self.0)
    }
}

/// Error operating the host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostError {
    /// Not enough unassigned physical cores for the requested vCPUs.
    NoFreeCores,
    /// Unknown VM id.
    UnknownVm(VmId),
    /// vCPU index out of range for the VM.
    UnknownVcpu(VmId, usize),
    /// The SEV policy blocked the access (encrypted memory/registers).
    Sev(SevViolation),
}

impl fmt::Display for HostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HostError::NoFreeCores => f.write_str("not enough free physical cores"),
            HostError::UnknownVm(vm) => write!(f, "unknown VM {vm}"),
            HostError::UnknownVcpu(vm, v) => write!(f, "unknown vCPU {v} of {vm}"),
            HostError::Sev(v) => write!(f, "SEV policy violation: {v}"),
        }
    }
}

impl std::error::Error for HostError {}

impl From<SevViolation> for HostError {
    fn from(v: SevViolation) -> Self {
        HostError::Sev(v)
    }
}

/// Per-vCPU execution statistics, the basis of the paper's latency and
/// CPU-usage overhead measurements (Fig. 10).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct VcpuStats {
    /// µops executed by the protected application.
    pub app_uops: f64,
    /// µops executed by the injected noise gadgets.
    pub injected_uops: f64,
    /// Wall-clock (simulated) time at which the app plan completed.
    pub app_done_at_ns: Option<u64>,
}

struct Vcpu {
    core: usize,
    app: Option<Box<dyn ActivitySource>>,
    injector: Option<Box<dyn ActivitySource>>,
    stats: VcpuStats,
}

struct Vm {
    id: VmId,
    mode: SevMode,
    vcpus: Vec<Vcpu>,
    launched_at_ns: u64,
}

/// Per-core fault-injection and supervision state. The streams exist
/// only under an active plan (zero-draw guarantee); the watchdog
/// counters always exist — supervision is part of the defense, not of
/// the fault layer.
#[derive(Debug, Clone)]
struct CoreFaultState {
    inj_stream: Option<FaultStream>,
    tick_stream: Option<FaultStream>,
    /// Remaining ticks of the current injector stall episode.
    stall_left: u32,
    /// The injector detached permanently (crashed daemon process).
    detached: bool,
    /// Consecutive ticks the watchdog saw the injector denied cycles or
    /// self-reporting degraded.
    unhealthy_ticks: u32,
    /// Guest-visible counters on this core are currently latched closed.
    fail_closed: bool,
}

impl CoreFaultState {
    fn new(plan: &FaultPlan, core_idx: usize) -> Self {
        let active = plan.is_active();
        CoreFaultState {
            inj_stream: active
                .then(|| FaultStream::new(plan, faults::site::INJECTOR, core_idx as u64)),
            tick_stream: active
                .then(|| FaultStream::new(plan, faults::site::TICK, core_idx as u64)),
            stall_left: 0,
            detached: false,
            unhealthy_ticks: 0,
            fail_closed: false,
        }
    }
}

/// A simulated cloud host running confidential VMs.
///
/// The host owns the physical cores (and therefore all HPC registers): it
/// can program and read any counter — the honest-but-curious hypervisor of
/// the paper's threat model — but cannot read encrypted guest memory or
/// registers, and cannot separate the activity of processes pinned to the
/// same guest vCPU.
pub struct Host {
    arch: MicroArch,
    cores: Vec<Core>,
    assignment: Vec<Option<(usize, usize)>>, // core -> (vm_idx, vcpu_idx)
    vms: Vec<Vm>,
    clock_ns: u64,
    env: TickEnv,
    fault_state: Vec<CoreFaultState>,
}

impl Host {
    /// Creates a host with `n_cores` cores of the given model, under the
    /// ambient fault plan (see [`aegis_faults::plan`]).
    pub fn new(arch: MicroArch, n_cores: usize, seed: u64) -> Self {
        Host::with_faults(arch, n_cores, seed, faults::plan())
    }

    /// [`Host::new`] under an explicit fault plan. Per-core fault
    /// streams are keyed by `(plan.seed, site, core index)`, so the
    /// injected schedule is independent of worker count and of anything
    /// else running in the process.
    pub fn with_faults(arch: MicroArch, n_cores: usize, seed: u64, plan: FaultPlan) -> Self {
        let catalog = EventCatalog::shared(arch);
        let cores = (0..n_cores)
            .map(|i| Core::with_catalog(arch, Arc::clone(&catalog), seed.wrapping_add(i as u64)))
            .collect();
        // Light host-kernel background on every core.
        let host_bg = ActivityVector::from_pairs(&[
            (Feature::UopsRetired, 1.0),
            (Feature::InstrRetired, 0.8),
            (Feature::Loads, 0.2),
            (Feature::Cycles, 0.5),
            (Feature::Syscalls, 0.0005),
        ]);
        Host {
            arch,
            cores,
            assignment: vec![None; n_cores],
            vms: Vec::new(),
            clock_ns: 0,
            env: TickEnv {
                cap: arch.uops_capacity_per_us(),
                host_bg,
                faults: plan,
                reports_faults: true,
            },
            fault_state: (0..n_cores).map(|i| CoreFaultState::new(&plan, i)).collect(),
        }
    }

    /// The fault plan this host was created under.
    pub fn faults(&self) -> FaultPlan {
        self.env.faults
    }

    /// Whether the supervision layer currently holds a core's
    /// guest-visible counters fail-closed.
    ///
    /// # Panics
    ///
    /// Panics if `core_idx` is out of range.
    pub fn core_fail_closed(&self, core_idx: usize) -> bool {
        self.fault_state[core_idx].fail_closed
    }

    /// Processor model of every core.
    pub fn arch(&self) -> MicroArch {
        self.arch
    }

    /// Number of physical cores.
    pub fn n_cores(&self) -> usize {
        self.cores.len()
    }

    /// Current simulated time.
    pub fn clock_ns(&self) -> u64 {
        self.clock_ns
    }

    /// Mutable access to a physical core (the host may do anything here,
    /// including programming HPC counters against guests).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn core_mut(&mut self, idx: usize) -> &mut Core {
        &mut self.cores[idx]
    }

    /// Shared access to a physical core.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn core(&self, idx: usize) -> &Core {
        &self.cores[idx]
    }

    /// Launches a VM with `n_vcpus` vCPUs, each pinned 1:1 to a free
    /// physical core.
    ///
    /// # Errors
    ///
    /// Returns [`HostError::NoFreeCores`] if the host is over-committed.
    pub fn launch_vm(&mut self, n_vcpus: usize, mode: SevMode) -> Result<VmId, HostError> {
        let free: Vec<usize> = (0..self.cores.len())
            .filter(|&c| self.assignment[c].is_none())
            .take(n_vcpus)
            .collect();
        if free.len() < n_vcpus {
            return Err(HostError::NoFreeCores);
        }
        let id = VmId(self.vms.len() as u32);
        let vm_idx = self.vms.len();
        let vcpus = free
            .iter()
            .enumerate()
            .map(|(v, &core)| {
                self.assignment[core] = Some((vm_idx, v));
                Vcpu {
                    core,
                    app: None,
                    injector: None,
                    stats: VcpuStats::default(),
                }
            })
            .collect();
        self.vms.push(Vm {
            id,
            mode,
            vcpus,
            launched_at_ns: self.clock_ns,
        });
        Ok(id)
    }

    /// Launches a VM with its vCPUs pinned to the exact physical cores
    /// in `cores` (one vCPU per listed core, in order). This is the
    /// placement-scheduler entry point: fleet policies decide *which*
    /// core-pair slot a tenant lands on, rather than taking whatever
    /// [`Host::launch_vm`] picks first.
    ///
    /// # Errors
    ///
    /// Returns [`HostError::NoFreeCores`] if `cores` is empty, any index
    /// is out of range, any listed core is already assigned, or the same
    /// core is listed twice.
    pub fn launch_vm_pinned(&mut self, cores: &[usize], mode: SevMode) -> Result<VmId, HostError> {
        if cores.is_empty() {
            return Err(HostError::NoFreeCores);
        }
        for (i, &c) in cores.iter().enumerate() {
            if c >= self.cores.len()
                || self.assignment[c].is_some()
                || cores[..i].contains(&c)
            {
                return Err(HostError::NoFreeCores);
            }
        }
        let id = VmId(self.vms.len() as u32);
        let vm_idx = self.vms.len();
        let vcpus = cores
            .iter()
            .enumerate()
            .map(|(v, &core)| {
                self.assignment[core] = Some((vm_idx, v));
                Vcpu {
                    core,
                    app: None,
                    injector: None,
                    stats: VcpuStats::default(),
                }
            })
            .collect();
        self.vms.push(Vm {
            id,
            mode,
            vcpus,
            launched_at_ns: self.clock_ns,
        });
        Ok(id)
    }

    fn vm(&self, vm: VmId) -> Result<&Vm, HostError> {
        self.vms
            .iter()
            .find(|v| v.id == vm)
            .ok_or(HostError::UnknownVm(vm))
    }

    fn vcpu_mut(&mut self, vm: VmId, vcpu: usize) -> Result<&mut Vcpu, HostError> {
        let v = self
            .vms
            .iter_mut()
            .find(|v| v.id == vm)
            .ok_or(HostError::UnknownVm(vm))?;
        v.vcpus
            .get_mut(vcpu)
            .ok_or(HostError::UnknownVcpu(vm, vcpu))
    }

    /// The protection mode a VM was launched with.
    ///
    /// # Errors
    ///
    /// Returns [`HostError::UnknownVm`] for unknown ids.
    pub fn vm_mode(&self, vm: VmId) -> Result<SevMode, HostError> {
        self.vm(vm).map(|v| v.mode)
    }

    /// The physical core a vCPU is pinned to.
    ///
    /// # Errors
    ///
    /// Returns [`HostError`] for unknown ids.
    pub fn core_of(&self, vm: VmId, vcpu: usize) -> Result<usize, HostError> {
        let v = self.vm(vm)?;
        v.vcpus
            .get(vcpu)
            .map(|c| c.core)
            .ok_or(HostError::UnknownVcpu(vm, vcpu))
    }

    /// Runs the protected application `source` on a vCPU, replacing any
    /// previous app and clearing its completion time.
    ///
    /// # Errors
    ///
    /// Returns [`HostError`] for unknown ids.
    pub fn attach_app(
        &mut self,
        vm: VmId,
        vcpu: usize,
        source: Box<dyn ActivitySource>,
    ) -> Result<(), HostError> {
        let v = self.vcpu_mut(vm, vcpu)?;
        v.app = Some(source);
        v.stats.app_done_at_ns = None;
        Ok(())
    }

    /// Replicates this host's full microarchitectural state — cores
    /// (including their PMU, cache, and RNG state), VM topology, vCPU
    /// statistics, and the clock — *without* the attached activity
    /// sources. Apps and injectors are process-unique
    /// `Box<dyn ActivitySource>` values (some hold live channels) and are
    /// left detached in the fork; callers re-attach per-measurement
    /// sources, which is what every collection loop does anyway.
    ///
    /// This is the replication primitive behind parallel trace
    /// collection: each worker forks the prepared host once and replays
    /// its assigned (secret, rep) units against the pristine replica.
    pub fn fork_detached(&self) -> Host {
        Host {
            arch: self.arch,
            cores: self.cores.clone(),
            assignment: self.assignment.clone(),
            vms: self.vms.iter().map(Host::detached_vm).collect(),
            clock_ns: self.clock_ns,
            env: self.env,
            // Stream state forks with the host: a replica replays the
            // same fault schedule from the same point.
            fault_state: self.fault_state.clone(),
        }
    }

    /// [`Host::fork_detached`] into an existing `Host`, reusing its
    /// allocations (core vectors, VM topology, fault-stream state)
    /// instead of building a fresh replica. The result is identical to
    /// `*out = self.fork_detached()` — this is the arena-reuse form the
    /// collection loops call once per (secret, rep) unit, where the
    /// replica's buffers survive across thousands of forks per worker.
    pub fn fork_detached_into(&self, out: &mut Host) {
        out.arch = self.arch;
        out.cores.clone_from(&self.cores);
        out.assignment.clone_from(&self.assignment);
        out.vms.clear();
        out.vms.extend(self.vms.iter().map(Host::detached_vm));
        out.clock_ns = self.clock_ns;
        out.env = self.env;
        out.fault_state.clone_from(&self.fault_state);
    }

    /// A VM replicated without its process-unique activity sources (see
    /// [`Host::fork_detached`]).
    fn detached_vm(vm: &Vm) -> Vm {
        Vm {
            id: vm.id,
            mode: vm.mode,
            vcpus: vm
                .vcpus
                .iter()
                .map(|vc| Vcpu {
                    core: vc.core,
                    app: None,
                    injector: None,
                    stats: vc.stats,
                })
                .collect(),
            launched_at_ns: vm.launched_at_ns,
        }
    }

    /// Installs the Event Obfuscator's noise injector on the *same* vCPU
    /// as the protected application (the paper pins both together so the
    /// hypervisor cannot separate them).
    ///
    /// # Errors
    ///
    /// Returns [`HostError`] for unknown ids.
    pub fn attach_injector(
        &mut self,
        vm: VmId,
        vcpu: usize,
        source: Box<dyn ActivitySource>,
    ) -> Result<(), HostError> {
        self.vcpu_mut(vm, vcpu)?.injector = Some(source);
        Ok(())
    }

    /// Removes the injector from a vCPU.
    ///
    /// # Errors
    ///
    /// Returns [`HostError`] for unknown ids.
    pub fn detach_injector(&mut self, vm: VmId, vcpu: usize) -> Result<(), HostError> {
        self.vcpu_mut(vm, vcpu)?.injector = None;
        Ok(())
    }

    /// Whether an injector is currently attached to a vCPU.
    ///
    /// # Errors
    ///
    /// Returns [`HostError`] for unknown ids.
    pub fn has_injector(&self, vm: VmId, vcpu: usize) -> Result<bool, HostError> {
        let v = self.vm(vm)?;
        let vc = v.vcpus.get(vcpu).ok_or(HostError::UnknownVcpu(vm, vcpu))?;
        Ok(vc.injector.is_some())
    }

    /// The attached injector's self-reported protection health, or
    /// `None` when no injector is attached. This is the same poll the
    /// per-tick watchdog performs; the service plane samples it at its
    /// own (coarser) health-check cadence.
    ///
    /// # Errors
    ///
    /// Returns [`HostError`] for unknown ids.
    pub fn injector_status(
        &self,
        vm: VmId,
        vcpu: usize,
    ) -> Result<Option<ProtectionStatus>, HostError> {
        let v = self.vm(vm)?;
        let vc = v.vcpus.get(vcpu).ok_or(HostError::UnknownVcpu(vm, vcpu))?;
        Ok(vc.injector.as_ref().map(|i| i.protection_status()))
    }

    /// Mutable [`std::any::Any`] access to the attached injector, for
    /// supervisors that must drive a concrete source type after it was
    /// boxed into the host (the service plane downcasts this to the
    /// obfuscator daemon to stage hot reloads). `None` when no injector
    /// is attached or the source does not opt into supervision via
    /// [`ActivitySource::as_any_mut`].
    ///
    /// # Errors
    ///
    /// Returns [`HostError`] for unknown ids.
    pub fn injector_any_mut(
        &mut self,
        vm: VmId,
        vcpu: usize,
    ) -> Result<Option<&mut dyn std::any::Any>, HostError> {
        Ok(self
            .vcpu_mut(vm, vcpu)?
            .injector
            .as_mut()
            .and_then(|i| i.as_any_mut()))
    }

    /// Forces a core's fail-closed latch on or off, bypassing the
    /// watchdog's own unhealthy-tick accounting. The service plane uses
    /// this to deny a guest clean counter reads while no injector is
    /// attached (restart backoff, ε-budget exhaustion) — states the
    /// per-tick watchdog cannot see because it only supervises attached
    /// injectors. A forced latch obeys the normal release rule: it
    /// clears only through this call or once an attached injector runs
    /// healthy again.
    ///
    /// # Panics
    ///
    /// Panics if `core_idx` is out of range.
    pub fn set_core_fail_closed(&mut self, core_idx: usize, on: bool) {
        let fs = &mut self.fault_state[core_idx];
        if fs.fail_closed == on {
            return;
        }
        fs.fail_closed = on;
        fs.unhealthy_ticks = 0;
        self.cores[core_idx].pmu_mut().set_fail_closed(on);
        if on {
            aegis_obs::counter_add("host.fail_closed_latches", 1.0);
        }
    }

    /// Whether the vCPU's app plan has completed.
    ///
    /// # Errors
    ///
    /// Returns [`HostError`] for unknown ids.
    pub fn app_finished(&self, vm: VmId, vcpu: usize) -> Result<bool, HostError> {
        let v = self.vm(vm)?;
        let vc = v.vcpus.get(vcpu).ok_or(HostError::UnknownVcpu(vm, vcpu))?;
        Ok(vc.app.is_none() || vc.stats.app_done_at_ns.is_some())
    }

    /// Execution statistics of a vCPU.
    ///
    /// # Errors
    ///
    /// Returns [`HostError`] for unknown ids.
    pub fn vcpu_stats(&self, vm: VmId, vcpu: usize) -> Result<VcpuStats, HostError> {
        let v = self.vm(vm)?;
        v.vcpus
            .get(vcpu)
            .map(|c| c.stats)
            .ok_or(HostError::UnknownVcpu(vm, vcpu))
    }

    /// Zeroes a VM's execution statistics (start of a measurement window).
    ///
    /// # Errors
    ///
    /// Returns [`HostError`] for unknown ids.
    pub fn reset_vm_stats(&mut self, vm: VmId) -> Result<(), HostError> {
        let now = self.clock_ns;
        let v = self
            .vms
            .iter_mut()
            .find(|v| v.id == vm)
            .ok_or(HostError::UnknownVm(vm))?;
        v.launched_at_ns = now;
        for vc in &mut v.vcpus {
            vc.stats = VcpuStats::default();
        }
        Ok(())
    }

    /// VM CPU utilization since the last stats reset: fraction of the
    /// VM's total core capacity spent executing (app + injected noise) —
    /// what the paper measures from the host with `top`.
    ///
    /// # Errors
    ///
    /// Returns [`HostError`] for unknown ids.
    pub fn vm_cpu_usage(&self, vm: VmId) -> Result<f64, HostError> {
        let v = self.vm(vm)?;
        let elapsed_us = (self.clock_ns - v.launched_at_ns) as f64 / 1_000.0;
        if elapsed_us == 0.0 {
            return Ok(0.0);
        }
        let cap = self.arch.uops_capacity_per_us() * elapsed_us * v.vcpus.len() as f64;
        let used: f64 = v
            .vcpus
            .iter()
            .map(|c| c.stats.app_uops + c.stats.injected_uops)
            .sum();
        Ok(used / cap)
    }

    /// Attempts to read a guest's memory — fails for every SEV mode.
    ///
    /// # Errors
    ///
    /// Returns [`HostError::Sev`] ([`SevViolation::MemoryEncrypted`])
    /// when the guest is protected, [`HostError::UnknownVm`] for
    /// unknown ids.
    pub fn read_guest_memory(&self, vm: VmId) -> Result<Vec<u8>, HostError> {
        let v = self.vm(vm)?;
        if v.mode.memory_readable_by_host() {
            Ok(vec![0u8; 4096])
        } else {
            Err(SevViolation::MemoryEncrypted.into())
        }
    }

    /// Attempts to read a guest's register state — fails for SEV-ES+.
    ///
    /// # Errors
    ///
    /// Returns [`HostError::Sev`] ([`SevViolation::RegistersEncrypted`])
    /// when protected, [`HostError::UnknownVm`] for unknown ids.
    pub fn read_guest_registers(&self, vm: VmId) -> Result<Vec<u64>, HostError> {
        let v = self.vm(vm)?;
        if v.mode.registers_readable_by_host() {
            Ok(vec![0u64; 16])
        } else {
            Err(SevViolation::RegistersEncrypted.into())
        }
    }

    /// Advances simulated time by one tick on every core, then invokes
    /// `observer(core_idx, core, TICK_NS)` so monitors can sample.
    ///
    /// Under an active fault plan the tick also draws this core's
    /// per-tick faults (timing jitter, injector stall/detach) and runs
    /// the supervision layer: a watchdog counts consecutive ticks the
    /// injector was denied cycles or self-reported degraded, and after
    /// `WATCHDOG_TICKS` latches the core's guest-visible counters
    /// fail-closed (releasing the latch once the injector is healthy
    /// again). Fault draws come from per-core keyed streams, so the
    /// schedule is identical at any worker count; with an inert plan no
    /// draws happen and the tick is bit-identical to the unfaulted one.
    pub fn tick<F: FnMut(usize, &mut Core, u64)>(&mut self, observer: F) {
        self.tick_walking(None::<(usize, &mut MixCount)>, observer);
    }

    /// [`Host::tick`] with the core `walked.0` driven through the stand-in
    /// `walked.1` instead of executing (the probe walk of
    /// [`Host::record_probes`]); the observer never sees that core.
    fn tick_walking<S: TickCore, F: FnMut(usize, &mut Core, u64)>(
        &mut self,
        mut walked: Option<(usize, &mut S)>,
        mut observer: F,
    ) {
        for core_idx in 0..self.cores.len() {
            let guest = self.assignment[core_idx].map(|(vm_idx, vcpu_idx)| {
                let vm = &mut self.vms[vm_idx];
                TickGuest::of(vm.id, &mut vm.vcpus[vcpu_idx])
            });
            let fs = &mut self.fault_state[core_idx];
            match walked.as_mut() {
                Some((w, stand_in)) if *w == core_idx => {
                    tick_core(
                        &self.env,
                        core_idx,
                        self.clock_ns,
                        &mut **stand_in,
                        fs,
                        guest,
                    );
                }
                _ => {
                    let core = &mut self.cores[core_idx];
                    tick_core(&self.env, core_idx, self.clock_ns, core, fs, guest);
                    observer(core_idx, core, TICK_NS);
                }
            }
        }
        self.clock_ns += TICK_NS;
    }

    /// Runs the host for `duration_ns` (rounded down to whole ticks).
    pub fn run<F: FnMut(usize, &mut Core, u64)>(&mut self, duration_ns: u64, mut observer: F) {
        for _ in 0..duration_ns / TICK_NS {
            self.tick(&mut observer);
        }
    }

    /// Runs until a vCPU's app completes or `timeout_ns` elapses; returns
    /// the wall time the app took, if it finished.
    ///
    /// # Errors
    ///
    /// Returns [`HostError`] for unknown ids.
    pub fn run_until_app_done(
        &mut self,
        vm: VmId,
        vcpu: usize,
        timeout_ns: u64,
    ) -> Result<Option<u64>, HostError> {
        let start = self.clock_ns;
        while self.clock_ns - start < timeout_ns {
            if self.app_finished(vm, vcpu)? {
                let stats = self.vcpu_stats(vm, vcpu)?;
                return Ok(stats.app_done_at_ns.map(|t| t - start));
            }
            self.tick(|_, _, _| {});
        }
        Ok(None)
    }

    /// Records an HPC trace on one physical core while the host runs —
    /// the malicious hypervisor's attack acquisition, or the profiler's
    /// measurement pass, depending on `filter`.
    ///
    /// # Errors
    ///
    /// Propagates [`PerfError`] from opening the monitor.
    pub fn record_trace(
        &mut self,
        core_idx: usize,
        events: &[EventId],
        filter: OriginFilter,
        interval_ns: u64,
        duration_ns: u64,
    ) -> Result<Trace, PerfError> {
        let mut rec = TraceRecorder::open_with_faults(
            &mut self.cores[core_idx],
            events,
            filter,
            interval_ns,
            self.env.faults,
        )?;
        for _ in 0..duration_ns / TICK_NS {
            self.tick(|idx, core, dur| {
                if idx == core_idx {
                    rec.on_executed(core, dur);
                }
            });
        }
        Ok(rec.finish(&mut self.cores[core_idx]))
    }

    /// Records HPC traces on several physical cores over the *same* run
    /// — the cross-tenant attacker's acquisition: a malicious hypervisor
    /// programming counters on both siblings of an SMT core pair (or any
    /// core set) and sampling them in lockstep. Returns one [`Trace`]
    /// per entry of `core_idxs`, in order, all covering the identical
    /// simulated window.
    ///
    /// # Errors
    ///
    /// Propagates [`PerfError`] from opening any monitor (recorders
    /// opened before the failure are dropped and release their slots).
    ///
    /// # Panics
    ///
    /// Panics if `core_idxs` contains duplicates or an out-of-range
    /// index.
    pub fn record_trace_multi(
        &mut self,
        core_idxs: &[usize],
        events: &[EventId],
        filter: OriginFilter,
        interval_ns: u64,
        duration_ns: u64,
    ) -> Result<Vec<Trace>, PerfError> {
        for (i, &c) in core_idxs.iter().enumerate() {
            assert!(c < self.cores.len(), "core index {c} out of range");
            assert!(!core_idxs[..i].contains(&c), "duplicate core index {c}");
        }
        let mut recs = Vec::with_capacity(core_idxs.len());
        for &c in core_idxs {
            recs.push(TraceRecorder::open_with_faults(
                &mut self.cores[c],
                events,
                filter,
                interval_ns,
                self.env.faults,
            )?);
        }
        for _ in 0..duration_ns / TICK_NS {
            self.tick(|idx, core, dur| {
                if let Some(pos) = core_idxs.iter().position(|&c| c == idx) {
                    recs[pos].on_executed(core, dur);
                }
            });
        }
        Ok(core_idxs
            .iter()
            .zip(recs)
            .map(|(&c, rec)| rec.finish(&mut self.cores[c]))
            .collect())
    }

    /// The `(vm, vcpu)` currently scheduled on a physical core, if any —
    /// how the batched measurement plane learns which lane sources feed
    /// which recorded core.
    ///
    /// # Panics
    ///
    /// Panics if `core_idx` is out of range.
    pub fn assignment_of(&self, core_idx: usize) -> Option<(VmId, usize)> {
        self.assignment[core_idx].map(|(vm_idx, vcpu_idx)| (self.vms[vm_idx].id, vcpu_idx))
    }

    /// Records [`Host::record_trace_multi`] for many independent replicas
    /// of this host at once — the lane-batched fleet acquisition path.
    ///
    /// Each entry of `lanes` describes one replica: the activity sources
    /// (app plan, obfuscator) that replica would have attached to the
    /// vCPU scheduled on each recorded core, aligned with `core_idxs`.
    /// Instead of `fork_detached`-ing a full host per replica, the driver
    /// snapshots only the recorded cores into [`CoreBatch`] lane groups
    /// ([`CoreBatch::from_core_state`]) and runs the scheduler's per-core
    /// tick body on those lanes alone. This is bit-exact because the tick
    /// has **zero cross-core coupling**: each core's mix execution, fault
    /// draws (keyed per core index), guest arithmetic, and watchdog read
    /// and write only that core's state, so eliding the unrecorded cores
    /// of a detached fork cannot change what the recorded cores observe.
    /// The scalar `record_trace_multi`-over-forks path remains the
    /// bit-exact reference, pinned by proptests in this crate.
    ///
    /// Lanes are tiled into cache-sized blocks
    /// ([`CoreBatch::TILE_LANES`] lanes across the group); every lane
    /// runs the same per-core tick body as [`Host::tick`].
    ///
    /// Returns one `Vec<Trace>` per lane (ordered as `core_idxs`), all
    /// covering the identical simulated window. The host itself is not
    /// advanced — exactly like recording on throwaway forks.
    ///
    /// # Errors
    ///
    /// Propagates [`PerfError`] from opening any monitor. The fault
    /// schedule is keyed by core noise bases shared across replicas, so
    /// an open failure is common to every lane — exactly as every scalar
    /// fork would hit it.
    ///
    /// # Panics
    ///
    /// Panics if `core_idxs` contains duplicates or an out-of-range
    /// index, or if a `lanes` row is not aligned with `core_idxs`.
    pub fn record_trace_multi_batch(
        &self,
        core_idxs: &[usize],
        mut lanes: Vec<Vec<LaneGuest>>,
        events: &[EventId],
        filter: OriginFilter,
        interval_ns: u64,
        duration_ns: u64,
    ) -> Result<Vec<Vec<Trace>>, PerfError> {
        for (i, &c) in core_idxs.iter().enumerate() {
            assert!(c < self.cores.len(), "core index {c} out of range");
            assert!(!core_idxs[..i].contains(&c), "duplicate core index {c}");
        }
        for row in &lanes {
            assert_eq!(row.len(), core_idxs.len(), "lane row not aligned with core_idxs");
        }
        if lanes.is_empty() {
            return Ok(Vec::new());
        }
        let cores: Vec<TileCore> = core_idxs
            .iter()
            .map(|&idx| TileCore {
                idx,
                vm: self.assignment_of(idx).map(|(vm, _)| vm),
            })
            .collect();
        let tile = (CoreBatch::TILE_LANES / core_idxs.len()).max(1);
        let n_lanes = lanes.len();
        let mut out: Vec<Vec<Trace>> = Vec::with_capacity(n_lanes);
        let mut batches: Vec<CoreBatch> = core_idxs
            .iter()
            .map(|&c| CoreBatch::from_core_state(&self.cores[c], 0))
            .collect();
        let mut start = 0;
        while start < n_lanes {
            let width = tile.min(n_lanes - start);
            let guests: Vec<Vec<LaneGuest>> = lanes.drain(..width).collect();
            for (pos, &c) in core_idxs.iter().enumerate() {
                batches[pos].reset_from_core_state(&self.cores[c], width);
            }
            // Every replica forks the host's current per-core
            // supervision state, then diverges independently.
            let lane_fs = (0..width)
                .map(|_| {
                    core_idxs
                        .iter()
                        .map(|&c| self.fault_state[c].clone())
                        .collect()
                })
                .collect();
            let window = Window {
                events,
                filter,
                interval_ns,
                duration_ns,
            };
            let traces = run_lane_tile(
                &self.env,
                &cores,
                &mut batches,
                guests,
                lane_fs,
                self.clock_ns,
                window,
            )?;
            out.extend(traces);
            start += width;
        }
        Ok(out)
    }

    /// Records a sequence of probes on one vCPU: for each [`Probe`] in
    /// order, attaches its source as the vCPU's app, records its events,
    /// and hands the trace to `sink` — the loop of [`Host::attach_app`] +
    /// [`Host::record_trace`] the application profiler runs, and
    /// bit-identical to that loop in the traces, in its errors, and in
    /// the host state it leaves behind (clock, vCPU statistics, every
    /// core, the fault and supervision streams, and the last probe's
    /// source still attached).
    ///
    /// It is faster because a probe's traces are a pure function of its
    /// own source and of a few stream positions the earlier probes left
    /// behind: the recorded core's mix-draw instances, its fault-stream
    /// and watchdog state, and the clock (every record re-programs the
    /// PMU, so no counter state carries over). The calling thread walks
    /// the scheduler without executing the recorded core — sources,
    /// fault draws and the watchdog run for real through the shared tick
    /// body, while the core's mix steps are only counted — and ticks the
    /// other cores for real. Each probe then runs on the worker pool
    /// ([`Executor::stream`]) as a one-lane tile over a snapshot of the
    /// recorded core started at those positions
    /// ([`CoreBatch::skip_mixes`]); at the end the core itself skips
    /// every walked mix step and takes the lanes' cycles
    /// ([`Core::skip_mixes`]). Probes are pulled from `probes` lazily,
    /// in-flight lanes and undelivered traces stay bounded, and each lane
    /// carries only the part of its source its window can reach
    /// ([`PlanSource::window`]). A one-worker pool runs the loop itself,
    /// since there the walk would only add to the work; so does a vCPU
    /// with an injector attached, whose watchdog makes the walk depend on
    /// the recorded core's execution.
    ///
    /// # Errors
    ///
    /// [`ProbeError::Host`] for unknown ids (checked only when there is
    /// a probe, like the loop's first `attach_app`), and
    /// [`ProbeError::Perf`] from the first probe whose monitor fails to
    /// open — with that probe's source attached and every earlier probe
    /// recorded, as the loop leaves the host.
    pub fn record_probes<'a>(
        &mut self,
        vm: VmId,
        vcpu: usize,
        filter: OriginFilter,
        probes: impl IntoIterator<Item = Probe<'a>>,
        mut sink: impl FnMut(Trace),
    ) -> Result<(), ProbeError> {
        let mut probes = probes.into_iter().peekable();
        if probes.peek().is_none() {
            return Ok(());
        }
        let core_idx = self.core_of(vm, vcpu)?;
        let pool = Executor::from_config();
        if pool.threads() == 1 || self.has_injector(vm, vcpu)? {
            // A lone worker would only add the walk to the loop's work,
            // and an injector's watchdog makes the walk depend on the
            // recorded core's execution.
            for p in probes {
                self.attach_app(vm, vcpu, Box::new(p.source))?;
                sink(self.record_trace(
                    core_idx,
                    p.events,
                    filter,
                    p.interval_ns,
                    p.duration_ns,
                )?);
            }
            return Ok(());
        }
        let base = self.cores[core_idx].clone();
        let lane_env = TickEnv {
            // The walk reports the fault draws; lanes replaying them stay
            // silent.
            reports_faults: false,
            ..self.env
        };
        let tile_core = [TileCore {
            idx: core_idx,
            vm: Some(vm),
        }];
        let mut walked = MixCount::default();
        let mut cycles = 0;
        let failed = pool.stream(
            LANES_IN_FLIGHT_PER_WORKER * pool.threads(),
            |_| CoreBatch::from_core_state(&base, 1),
            |batch, _, lane: ProbeLane<'a>| lane.run(&lane_env, &tile_core, &base, batch),
            |lane| {
                let (trace, lane_cycles) = lane.expect("a lane opens its monitor like the walk");
                cycles += lane_cycles;
                sink(trace);
            },
            |feed| {
                for probe in probes {
                    let window = Window {
                        events: probe.events,
                        filter,
                        interval_ns: probe.interval_ns,
                        duration_ns: probe.duration_ns,
                    };
                    let source = probe.source.window(probe.duration_ns);
                    self.attach_app(vm, vcpu, Box::new(probe.source))
                        .expect("ids checked above");
                    // Open (and close) the probe's monitor on the real
                    // core, so a failing open fails here, at the probe
                    // where the loop's record_trace would.
                    let core = &mut self.cores[core_idx];
                    match window.open(core, self.env.faults) {
                        Ok(rec) => drop(rec.finish(core)),
                        Err(_) => return Some(window),
                    }
                    feed.push(ProbeLane {
                        source,
                        window,
                        mix_steps: walked.0,
                        fs: self.fault_state[core_idx].clone(),
                        clock_ns: self.clock_ns,
                    });
                    for _ in 0..probe.duration_ns / TICK_NS {
                        self.tick_walking(Some((core_idx, &mut walked)), |_, _, _| {});
                    }
                }
                None
            },
        );
        let core = &mut self.cores[core_idx];
        if failed.is_some() {
            for slot in 0..COUNTER_SLOTS {
                core.pmu_mut().clear(slot);
            }
        }
        core.skip_mixes(walked.0, cycles);
        match failed {
            None => Ok(()),
            // Fail again on the caught-up core: the failed open leaves its
            // partial slot programming behind, as the loop's does.
            Some(window) => Err(window
                .open(core, self.env.faults)
                .expect_err("monitor opens are deterministic")
                .into()),
        }
    }
}

/// Lanes [`Host::record_probes`] keeps in flight per pool worker: enough
/// to keep every worker busy while the walk runs ahead, few enough that
/// the lanes' plan windows stay a small, bounded working set.
const LANES_IN_FLIGHT_PER_WORKER: usize = 4;

/// The scheduler constants every per-core tick reads, copied into lane
/// jobs so a tile can run off the host's thread.
#[derive(Debug, Clone, Copy)]
struct TickEnv {
    /// µop capacity of a core per microsecond.
    cap: f64,
    /// Host-kernel background rate on every core.
    host_bg: ActivityVector,
    faults: FaultPlan,
    /// Whether fault draws are reported to observability.
    reports_faults: bool,
}

impl TickEnv {
    fn report(&self, site: &str, action: &str, detail: &[(&str, u64)]) {
        if self.reports_faults {
            faults::report(site, action, detail);
        }
    }
}

/// The core one [`tick_core`] drives: a physical [`Core`], one lane of a
/// lane group ([`LaneCore`]), or the probe walk's counter ([`MixCount`]).
trait TickCore {
    /// Executes `rate` for one tick.
    fn run_mix(&mut self, rate: &ActivityVector, origin: Origin);
    /// Latches (or releases) the guest-visible counters fail-closed.
    fn set_fail_closed(&mut self, on: bool);
}

impl TickCore for Core {
    fn run_mix(&mut self, rate: &ActivityVector, origin: Origin) {
        Core::run_mix(self, rate, TICK_NS, origin);
    }

    fn set_fail_closed(&mut self, on: bool) {
        self.pmu_mut().set_fail_closed(on);
    }
}

/// One lane of a [`CoreBatch`] lane group.
struct LaneCore<'a> {
    batch: &'a mut CoreBatch,
    lane: usize,
}

impl TickCore for LaneCore<'_> {
    fn run_mix(&mut self, rate: &ActivityVector, origin: Origin) {
        self.batch.run_mix(self.lane, rate, TICK_NS, origin);
    }

    fn set_fail_closed(&mut self, on: bool) {
        self.batch.set_fail_closed(self.lane, on);
    }
}

/// The probe walk's stand-in for the recorded core: counts the mix steps
/// a tick would execute instead of executing them (the lanes do).
#[derive(Debug, Default)]
struct MixCount(u64);

impl TickCore for MixCount {
    fn run_mix(&mut self, _rate: &ActivityVector, _origin: Origin) {
        self.0 += 1;
    }

    fn set_fail_closed(&mut self, _on: bool) {
        unreachable!("a walked vCPU carries no injector, so its watchdog never fires")
    }
}

/// The vCPU scheduled on a core, as one tick sees it.
struct TickGuest<'a> {
    vm: VmId,
    app: &'a mut Option<Box<dyn ActivitySource>>,
    injector: &'a mut Option<Box<dyn ActivitySource>>,
    stats: &'a mut VcpuStats,
}

impl<'a> TickGuest<'a> {
    fn of(vm: VmId, vcpu: &'a mut Vcpu) -> Self {
        TickGuest {
            vm,
            app: &mut vcpu.app,
            injector: &mut vcpu.injector,
            stats: &mut vcpu.stats,
        }
    }
}

/// One core's share of a scheduler tick: host background, the core's
/// per-tick fault draws, the scheduled vCPU's app and injector (with the
/// timeshare arithmetic that turns injection into latency), and the
/// fail-closed watchdog. [`Host::tick`], the lane tiles, and the probe
/// walk all run this one definition; only the [`TickCore`] differs. It
/// reads and writes this core's state alone — the tick has no
/// cross-core coupling — which is what lets a tick be split across
/// cores, lanes and threads bit-exactly.
#[inline]
fn tick_core<C: TickCore>(
    env: &TickEnv,
    core_idx: usize,
    clock_ns: u64,
    core: &mut C,
    fs: &mut CoreFaultState,
    guest: Option<TickGuest<'_>>,
) {
    // Host kernel background everywhere.
    core.run_mix(&env.host_bg, Origin::Host);

    // Per-tick fault draws (no draws under an inert plan).
    let mut cap = env.cap;
    if let Some(ts) = fs.tick_stream.as_mut() {
        if ts.chance(env.faults.tick_jitter) {
            // Timing jitter: the tick loses up to half its usable
            // capacity (frequency dip / SMT interference).
            cap *= 0.5 + 0.5 * ts.unit();
            env.report("tick", "jitter", &[("core", core_idx as u64)]);
        }
    }
    if let Some(is) = fs.inj_stream.as_mut() {
        if !fs.detached && is.chance(env.faults.injector_detach) {
            fs.detached = true;
            env.report("injector", "detach", &[("core", core_idx as u64)]);
        }
        if fs.stall_left == 0 && !fs.detached && is.chance(env.faults.injector_stall) {
            fs.stall_left = env.faults.stall_ticks.max(1);
            env.report(
                "injector",
                "stall",
                &[
                    ("core", core_idx as u64),
                    ("ticks", u64::from(env.faults.stall_ticks.max(1))),
                ],
            );
        }
    }
    // A stalled or detached injector is denied cycles this tick; the
    // in-guest kernel module (observe_coscheduled) still runs — only the
    // daemon's injection thread is dead.
    let stalled = fs.detached || fs.stall_left > 0;
    if fs.stall_left > 0 {
        fs.stall_left -= 1;
    }

    let Some(TickGuest {
        vm,
        app,
        injector,
        stats,
    }) = guest
    else {
        return;
    };
    let app_rate = app
        .as_mut()
        .and_then(ActivitySource::demand)
        .unwrap_or(ActivityVector::ZERO);

    // The injector first observes the app's activity (the kernel
    // module's RDPMC monitoring), then runs at its demanded rate with
    // priority — the daemon inserts noise inline, ahead of app progress.
    let inj_rate = injector
        .as_mut()
        .map(|inj| {
            inj.observe_coscheduled(&app_rate, TICK_NS);
            if stalled {
                ActivityVector::ZERO
            } else {
                inj.demand().unwrap_or(ActivityVector::ZERO)
            }
        })
        .unwrap_or(ActivityVector::ZERO);
    let inj_uops = inj_rate[Feature::UopsRetired].min(cap);
    let inj_scale = if inj_rate[Feature::UopsRetired] > cap {
        cap / inj_rate[Feature::UopsRetired]
    } else {
        1.0
    };
    let inj_exec = inj_rate.scaled(inj_scale);
    let app_uops = app_rate[Feature::UopsRetired];
    // The injector's code runs inline on the vCPU, so the app timeshares:
    // it loses exactly the cycle fraction the injected gadget stacks
    // occupy (plus a capacity clamp for extreme injection rates). This is
    // where the defense's latency overhead comes from.
    let timeshare = (1.0 - inj_uops / cap).max(0.0);
    let remaining = (cap - inj_uops).max(0.0);
    let cap_scale = if app_uops > 0.0 && app_uops > remaining {
        remaining / app_uops
    } else {
        1.0
    };
    let app_scale = timeshare.min(cap_scale);
    let app_exec = app_rate.scaled(app_scale);

    if !inj_exec.is_zero() {
        core.run_mix(&inj_exec, Origin::Guest(vm.0));
    }
    if !app_exec.is_zero() {
        core.run_mix(&app_exec, Origin::Guest(vm.0));
    }

    let tick_us = TICK_NS as f64 / 1_000.0;
    stats.injected_uops += inj_exec[Feature::UopsRetired] * tick_us;
    stats.app_uops += app_exec[Feature::UopsRetired] * tick_us;

    let granted_inj_ns = if stalled {
        0
    } else {
        (TICK_NS as f64 * inj_scale) as u64
    };
    if let Some(inj) = injector.as_mut() {
        inj.advance(granted_inj_ns);
        inj.note_execution(granted_inj_ns);
    }
    if let Some(app) = app.as_mut() {
        app.advance((TICK_NS as f64 * app_scale) as u64);
        if app.demand().is_none() && stats.app_done_at_ns.is_none() {
            stats.app_done_at_ns = Some(clock_ns + TICK_NS);
        }
    }

    // Supervision: whenever an installed injector is denied cycles or
    // self-reports degraded, obfuscation on this core cannot be
    // guaranteed. After WATCHDOG_TICKS the guest-visible counters latch
    // fail-closed — absent, never clean — until the injector is healthy
    // again.
    if let Some(inj) = injector.as_ref() {
        let unhealthy =
            granted_inj_ns == 0 || inj.protection_status() == ProtectionStatus::Degraded;
        if unhealthy {
            fs.unhealthy_ticks += 1;
            if fs.unhealthy_ticks >= WATCHDOG_TICKS && !fs.fail_closed {
                fs.fail_closed = true;
                core.set_fail_closed(true);
                aegis_obs::counter_add("host.fail_closed_latches", 1.0);
                aegis_obs::event_with(
                    "fault",
                    "host.fail_closed",
                    &[("core", core_idx.into()), ("clock_ns", clock_ns.into())],
                );
            }
        } else {
            fs.unhealthy_ticks = 0;
            if fs.fail_closed {
                fs.fail_closed = false;
                core.set_fail_closed(false);
                aegis_obs::event_with(
                    "fault",
                    "host.fail_closed_released",
                    &[("core", core_idx.into()), ("clock_ns", clock_ns.into())],
                );
            }
        }
    }
}

/// A recorded core of a lane tile: its index and the VM scheduled there.
#[derive(Debug, Clone, Copy)]
struct TileCore {
    idx: usize,
    vm: Option<VmId>,
}

/// What one recording measures: the arguments of [`Host::record_trace`]
/// after the core.
#[derive(Debug, Clone, Copy)]
struct Window<'a> {
    events: &'a [EventId],
    filter: OriginFilter,
    interval_ns: u64,
    duration_ns: u64,
}

impl Window<'_> {
    /// Opens this window's recorder on a core, as `record_trace` does.
    fn open(&self, core: &mut Core, plan: FaultPlan) -> Result<TraceRecorder, PerfError> {
        TraceRecorder::open_with_faults(core, self.events, self.filter, self.interval_ns, plan)
    }
}

/// Runs one tile of lanes through `window`: `batches[pos]` holds
/// `guests.len()` lanes snapshot from `cores[pos]`, lane `l` starting
/// from the supervision state `lane_fs[l][pos]` at `clock_ns`. Returns
/// one `Vec<Trace>` per lane, ordered as `cores`.
fn run_lane_tile(
    env: &TickEnv,
    cores: &[TileCore],
    batches: &mut [CoreBatch],
    mut guests: Vec<Vec<LaneGuest>>,
    mut lane_fs: Vec<Vec<CoreFaultState>>,
    mut clock_ns: u64,
    window: Window<'_>,
) -> Result<Vec<Vec<Trace>>, PerfError> {
    let width = guests.len();
    // Recorded cores tick in ascending core order, like the scalar tick
    // (lanes are core-independent, so this only orders observability
    // events); results come back in `cores` order.
    let mut order: Vec<usize> = (0..cores.len()).collect();
    order.sort_by_key(|&pos| cores[pos].idx);
    // Recorders open in `cores` order, exactly like the scalar
    // multi-core open loop (first failure propagates).
    let mut recs = batches
        .iter_mut()
        .map(|batch| {
            LaneTraceRecorder::open(
                batch,
                window.events,
                window.filter,
                window.interval_ns,
                env.faults,
            )
        })
        .collect::<Result<Vec<_>, _>>()?;
    // Replica vCPU statistics are discarded with the replica; the tick
    // body still keeps them, so sources see exactly the scalar calls.
    let mut stats = vec![vec![VcpuStats::default(); cores.len()]; width];
    for _ in 0..window.duration_ns / TICK_NS {
        for &pos in &order {
            let TileCore { idx, vm } = cores[pos];
            for lane in 0..width {
                let guest = vm.map(|vm| {
                    let g = &mut guests[lane][pos];
                    TickGuest {
                        vm,
                        app: &mut g.app,
                        injector: &mut g.injector,
                        stats: &mut stats[lane][pos],
                    }
                });
                let mut core = LaneCore {
                    batch: &mut batches[pos],
                    lane,
                };
                tick_core(
                    env,
                    idx,
                    clock_ns,
                    &mut core,
                    &mut lane_fs[lane][pos],
                    guest,
                );
            }
            recs[pos].on_executed(&mut batches[pos], TICK_NS);
        }
        clock_ns += TICK_NS;
    }
    let mut per_core: Vec<_> = recs
        .into_iter()
        .zip(batches.iter_mut())
        .map(|(rec, batch)| rec.finish(batch).into_iter())
        .collect();
    Ok((0..width)
        .map(|_| {
            per_core
                .iter_mut()
                .map(|traces| traces.next().expect("one trace per lane"))
                .collect()
        })
        .collect())
}

/// One probe of [`Host::record_probes`]: attach `source` as the vCPU's
/// app, then record `events` over `duration_ns`, sampled every
/// `interval_ns`.
#[derive(Debug, Clone)]
pub struct Probe<'a> {
    /// The app to run, at whatever position it has been advanced to.
    pub source: PlanSource,
    /// Events to record (one multiplex group for exact counts).
    pub events: &'a [EventId],
    /// Sampling interval.
    pub interval_ns: u64,
    /// Recording window (whole ticks).
    pub duration_ns: u64,
}

/// Error of [`Host::record_probes`]: what the equivalent loop of
/// `attach_app` + `record_trace` would have failed with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProbeError {
    /// Unknown VM or vCPU.
    Host(HostError),
    /// A probe's monitor failed to open.
    Perf(PerfError),
}

impl fmt::Display for ProbeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProbeError::Host(e) => e.fmt(f),
            ProbeError::Perf(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ProbeError {}

impl From<HostError> for ProbeError {
    fn from(e: HostError) -> Self {
        ProbeError::Host(e)
    }
}

impl From<PerfError> for ProbeError {
    fn from(e: PerfError) -> Self {
        ProbeError::Perf(e)
    }
}

/// One walked probe as a lane job: its window, the part of its source
/// the window reaches, and the recorded core's timeline position at the
/// probe's start.
struct ProbeLane<'a> {
    source: PlanSource,
    window: Window<'a>,
    /// Mix steps the recorded core ran before this probe.
    mix_steps: u64,
    fs: CoreFaultState,
    clock_ns: u64,
}

impl ProbeLane<'_> {
    /// Replays the probe on a one-lane snapshot of the recorded core
    /// (`base`, the core before the first probe); returns the trace and
    /// the cycles the core spent in the probe.
    fn run(
        self,
        env: &TickEnv,
        core: &[TileCore; 1],
        base: &Core,
        batch: &mut CoreBatch,
    ) -> Result<(Trace, u64), PerfError> {
        batch.reset_from_core_state(base, 1);
        batch.skip_mixes(0, self.mix_steps);
        let start = batch.cycles(0);
        let guest = LaneGuest {
            app: Some(Box::new(self.source)),
            injector: None,
        };
        let mut traces = run_lane_tile(
            env,
            core,
            std::slice::from_mut(batch),
            vec![vec![guest]],
            vec![vec![self.fs]],
            self.clock_ns,
            self.window,
        )?;
        let trace = traces
            .pop()
            .and_then(|mut lane| lane.pop())
            .expect("one lane on one core");
        Ok((trace, batch.cycles(0) - start))
    }
}

/// The per-replica activity sources of one recorded core in a
/// [`Host::record_trace_multi_batch`] call: what that replica would have
/// attached (via [`Host::attach_app`] / [`Host::attach_injector`]) to the
/// vCPU scheduled there. Cores without a scheduled vCPU ignore their
/// entry.
#[derive(Default)]
pub struct LaneGuest {
    /// The protected application's activity source, if any.
    pub app: Option<Box<dyn ActivitySource>>,
    /// The obfuscator daemon's activity source, if any.
    pub injector: Option<Box<dyn ActivitySource>>,
}

impl fmt::Debug for Host {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Host")
            .field("arch", &self.arch)
            .field("n_cores", &self.cores.len())
            .field("n_vms", &self.vms.len())
            .field("clock_ns", &self.clock_ns)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::PlanSource;
    use aegis_microarch::named;
    use aegis_workloads::{MixSpec, Segment, WorkloadPlan};

    fn steady_plan(uops_per_us: f64, dur_ns: u64) -> WorkloadPlan {
        let mut spec = MixSpec::idle();
        spec.uops_per_us = uops_per_us;
        let mut p = WorkloadPlan::new();
        p.push(Segment::new(dur_ns, spec.build()));
        p
    }

    fn host_with_vm() -> (Host, VmId) {
        let mut host = Host::new(MicroArch::AmdEpyc7252, 8, 3);
        let vm = host.launch_vm(4, SevMode::SevSnp).unwrap();
        (host, vm)
    }

    #[test]
    fn launch_assigns_distinct_cores() {
        let (host, vm) = host_with_vm();
        let cores: Vec<usize> = (0..4).map(|v| host.core_of(vm, v).unwrap()).collect();
        let mut sorted = cores.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
    }

    #[test]
    fn overcommit_rejected() {
        let mut host = Host::new(MicroArch::AmdEpyc7252, 2, 3);
        assert_eq!(host.launch_vm(3, SevMode::Sev), Err(HostError::NoFreeCores));
    }

    #[test]
    fn sev_blocks_memory_but_not_hpcs() {
        let (mut host, vm) = host_with_vm();
        assert_eq!(
            host.read_guest_memory(vm),
            Err(HostError::Sev(SevViolation::MemoryEncrypted))
        );
        assert_eq!(
            host.read_guest_registers(vm),
            Err(HostError::Sev(SevViolation::RegistersEncrypted))
        );
        assert_eq!(
            host.read_guest_memory(VmId(99)),
            Err(HostError::UnknownVm(VmId(99)))
        );
        // But the host can happily monitor HPCs of the guest's core.
        let core = host.core_of(vm, 0).unwrap();
        let ev = host
            .core(core)
            .catalog()
            .lookup(named::RETIRED_UOPS)
            .unwrap();
        host.attach_app(
            vm,
            0,
            Box::new(PlanSource::new(steady_plan(500.0, 10_000_000))),
        )
        .unwrap();
        let trace = host
            .record_trace(core, &[ev], OriginFilter::Any, 1_000_000, 5_000_000)
            .unwrap();
        assert!(trace.totals()[0] > 1_000_000.0, "{:?}", trace.totals());
    }

    #[test]
    fn unencrypted_vm_is_fully_readable() {
        let mut host = Host::new(MicroArch::AmdEpyc7252, 2, 3);
        let vm = host.launch_vm(1, SevMode::Unencrypted).unwrap();
        assert!(host.read_guest_memory(vm).is_ok());
        assert!(host.read_guest_registers(vm).is_ok());
    }

    #[test]
    fn app_completes_in_nominal_time_without_contention() {
        let (mut host, vm) = host_with_vm();
        host.attach_app(
            vm,
            0,
            Box::new(PlanSource::new(steady_plan(500.0, 100_000_000))),
        )
        .unwrap();
        let took = host
            .run_until_app_done(vm, 0, 1_000_000_000)
            .unwrap()
            .expect("app finishes");
        // 100 ms plan at 500/4000 capacity → finishes in ~100 ms.
        assert!(
            (took as i64 - 100_000_000).unsigned_abs() <= 2 * TICK_NS,
            "{took}"
        );
    }

    #[test]
    fn injection_slows_a_saturating_app() {
        // App demanding the full core: any injection extends its runtime.
        let (mut host, vm) = host_with_vm();
        let cap = host.arch().uops_capacity_per_us();
        host.attach_app(
            vm,
            0,
            Box::new(PlanSource::new(steady_plan(cap, 100_000_000))),
        )
        .unwrap();
        // Injector consuming 20% of capacity forever.
        let mut inj_spec = MixSpec::idle();
        inj_spec.uops_per_us = cap * 0.2;
        let mut inj_plan = WorkloadPlan::new();
        inj_plan.push(Segment::new(u64::MAX / 2, inj_spec.build()));
        host.attach_injector(vm, 0, Box::new(PlanSource::new(inj_plan)))
            .unwrap();
        let took = host
            .run_until_app_done(vm, 0, 2_000_000_000)
            .unwrap()
            .expect("app finishes");
        let slowdown = took as f64 / 100_000_000.0;
        assert!((1.2..1.35).contains(&slowdown), "slowdown {slowdown}");
    }

    #[test]
    fn cpu_usage_reflects_injection() {
        let (mut host, vm) = host_with_vm();
        host.attach_app(
            vm,
            0,
            Box::new(PlanSource::new(steady_plan(400.0, 1_000_000_000))),
        )
        .unwrap();
        host.reset_vm_stats(vm).unwrap();
        host.run(200_000_000, |_, _, _| {});
        let base = host.vm_cpu_usage(vm).unwrap();
        // Now add an injector at 400 uops/us on the same vCPU.
        let mut inj_spec = MixSpec::idle();
        inj_spec.uops_per_us = 400.0;
        let mut inj_plan = WorkloadPlan::new();
        inj_plan.push(Segment::new(u64::MAX / 2, inj_spec.build()));
        host.attach_injector(vm, 0, Box::new(PlanSource::new(inj_plan)))
            .unwrap();
        host.reset_vm_stats(vm).unwrap();
        host.run(200_000_000, |_, _, _| {});
        let with_inj = host.vm_cpu_usage(vm).unwrap();
        assert!(
            (with_inj - 2.0 * base).abs() / base < 0.3,
            "base {base} with_inj {with_inj}"
        );
    }

    #[test]
    fn stats_track_app_and_injection_separately() {
        let (mut host, vm) = host_with_vm();
        host.attach_app(
            vm,
            0,
            Box::new(PlanSource::new(steady_plan(100.0, 50_000_000))),
        )
        .unwrap();
        host.run(50_000_000, |_, _, _| {});
        let s = host.vcpu_stats(vm, 0).unwrap();
        assert!(s.app_uops > 4_000_000.0, "{}", s.app_uops);
        assert_eq!(s.injected_uops, 0.0);
    }

    #[test]
    fn clock_advances_by_ticks() {
        let (mut host, _) = host_with_vm();
        host.run(1_000_000, |_, _, _| {});
        assert_eq!(host.clock_ns(), 1_000_000);
    }

    fn forever_plan(uops_per_us: f64) -> WorkloadPlan {
        let mut spec = MixSpec::idle();
        spec.uops_per_us = uops_per_us;
        let mut p = WorkloadPlan::new();
        p.push(Segment::new(u64::MAX / 2, spec.build()));
        p
    }

    #[test]
    fn stall_episodes_latch_and_release_fail_closed() {
        let plan = FaultPlan {
            seed: 9,
            injector_stall: 0.05,
            stall_ticks: 8,
            ..FaultPlan::none()
        };
        let mut host = Host::with_faults(MicroArch::AmdEpyc7252, 2, 3, plan);
        let vm = host.launch_vm(1, SevMode::SevSnp).unwrap();
        host.attach_injector(vm, 0, Box::new(PlanSource::new(forever_plan(50.0))))
            .unwrap();
        let core = host.core_of(vm, 0).unwrap();
        let (mut latched, mut released, mut prev) = (0u32, 0u32, false);
        for _ in 0..2_000 {
            host.tick(|_, _, _| {});
            let now = host.core_fail_closed(core);
            if now && !prev {
                latched += 1;
            }
            if !now && prev {
                released += 1;
            }
            prev = now;
        }
        // 8-tick stall episodes at p=0.05/tick: the 4-tick watchdog must
        // both latch during episodes and release between them.
        assert!(latched > 10, "latched {latched} times");
        assert!(released > 10, "released {released} times");
        assert!(!host.core_fail_closed(1), "un-injected core never latches");
    }

    #[test]
    fn detach_latches_fail_closed_permanently() {
        let plan = FaultPlan {
            seed: 2,
            injector_detach: 1.0,
            ..FaultPlan::none()
        };
        let mut host = Host::with_faults(MicroArch::AmdEpyc7252, 2, 3, plan);
        let vm = host.launch_vm(1, SevMode::SevSnp).unwrap();
        host.attach_injector(vm, 0, Box::new(PlanSource::new(forever_plan(50.0))))
            .unwrap();
        let core = host.core_of(vm, 0).unwrap();
        for _ in 0..WATCHDOG_TICKS {
            assert!(!host.core_fail_closed(core));
            host.tick(|_, _, _| {});
        }
        assert!(host.core_fail_closed(core), "latched after WATCHDOG_TICKS");
        for _ in 0..100 {
            host.tick(|_, _, _| {});
            assert!(host.core_fail_closed(core), "detach never heals");
        }
        // Fail-closed means the PMU lane itself reads zero.
        assert!(host.core(core).pmu().fail_closed());
    }

    #[test]
    fn faulted_host_replays_bit_identically() {
        let run = || {
            let plan = FaultPlan {
                seed: 31,
                injector_stall: 0.1,
                stall_ticks: 5,
                tick_jitter: 0.2,
                counter_corrupt: 0.1,
                ..FaultPlan::none()
            };
            let mut host = Host::with_faults(MicroArch::AmdEpyc7252, 2, 3, plan);
            let vm = host.launch_vm(1, SevMode::SevSnp).unwrap();
            host.attach_app(
                vm,
                0,
                Box::new(PlanSource::new(steady_plan(300.0, 50_000_000))),
            )
            .unwrap();
            host.attach_injector(vm, 0, Box::new(PlanSource::new(forever_plan(80.0))))
                .unwrap();
            let core = host.core_of(vm, 0).unwrap();
            let ev = host
                .core(core)
                .catalog()
                .lookup(named::RETIRED_UOPS)
                .unwrap();
            host.record_trace(core, &[ev], OriginFilter::Any, 1_000_000, 20_000_000)
                .unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fork_detached_into_matches_fork_detached() {
        let (mut host, vm) = host_with_vm();
        host.attach_app(
            vm,
            0,
            Box::new(PlanSource::new(steady_plan(300.0, 20_000_000))),
        )
        .unwrap();
        for _ in 0..50 {
            host.tick(|_, _, _| {});
        }
        let core = host.core_of(vm, 0).unwrap();
        let ev = host
            .core(core)
            .catalog()
            .lookup(named::RETIRED_UOPS)
            .unwrap();

        let mut fresh = host.fork_detached();
        // A dirty arena — a replica that already ran its own measurements
        // — must be overwritten completely by the in-place fork.
        let mut arena = host.fork_detached();
        arena
            .attach_app(
                vm,
                0,
                Box::new(PlanSource::new(steady_plan(900.0, 5_000_000))),
            )
            .unwrap();
        let _ = arena.record_trace(core, &[ev], OriginFilter::Any, 500_000, 3_000_000);
        host.fork_detached_into(&mut arena);
        assert_eq!(fresh.clock_ns(), arena.clock_ns());

        let measure = |h: &mut Host| {
            h.attach_app(
                vm,
                0,
                Box::new(PlanSource::new(steady_plan(300.0, 20_000_000))),
            )
            .unwrap();
            h.record_trace(core, &[ev], OriginFilter::Any, 1_000_000, 10_000_000)
                .unwrap()
        };
        assert_eq!(measure(&mut fresh), measure(&mut arena));
    }

    #[test]
    fn forced_fail_closed_latch_is_permanent_without_injector() {
        let (mut host, vm) = host_with_vm();
        let core = host.core_of(vm, 0).unwrap();
        assert!(!host.has_injector(vm, 0).unwrap());
        assert_eq!(host.injector_status(vm, 0).unwrap(), None);

        // Force the latch with nothing attached: no watchdog poll ever
        // runs on this core, so the latch holds indefinitely.
        host.set_core_fail_closed(core, true);
        for _ in 0..100 {
            host.tick(|_, _, _| {});
            assert!(host.core_fail_closed(core));
            assert!(host.core(core).pmu().fail_closed());
        }

        // A healthy injector releases the forced latch through the
        // normal watchdog path: demonstrated health, not mere attach.
        host.attach_injector(vm, 0, Box::new(PlanSource::new(forever_plan(50.0))))
            .unwrap();
        assert!(host.has_injector(vm, 0).unwrap());
        assert_eq!(
            host.injector_status(vm, 0).unwrap(),
            Some(ProtectionStatus::Healthy)
        );
        host.tick(|_, _, _| {});
        assert!(!host.core_fail_closed(core), "healthy run releases");

        // Idempotent off.
        host.set_core_fail_closed(core, false);
        assert!(!host.core_fail_closed(core));
    }

    #[test]
    fn injector_any_mut_is_none_for_opaque_sources() {
        let (mut host, vm) = host_with_vm();
        assert!(host.injector_any_mut(vm, 0).unwrap().is_none());
        host.attach_injector(vm, 0, Box::new(PlanSource::new(forever_plan(10.0))))
            .unwrap();
        // PlanSource does not opt into supervision.
        assert!(host.injector_any_mut(vm, 0).unwrap().is_none());
        assert!(matches!(
            host.injector_any_mut(VmId(99), 0),
            Err(HostError::UnknownVm(_))
        ));
    }

    #[test]
    fn unknown_ids_error() {
        let (mut host, vm) = host_with_vm();
        assert!(matches!(
            host.core_of(VmId(99), 0),
            Err(HostError::UnknownVm(_))
        ));
        assert!(matches!(
            host.attach_app(vm, 17, Box::new(PlanSource::new(WorkloadPlan::new()))),
            Err(HostError::UnknownVcpu(_, 17))
        ));
    }

    /// Builds the cross-tenant recording shape: attacker pinned on core
    /// 0 (idle), victim on the sibling core 1, a decoy tenant on the
    /// unrecorded core 2, with the host warmed a little so lane state is
    /// replicated mid-stream. Returns the host and the victim/decoy ids.
    fn fleet_shaped_host(arch: MicroArch, seed: u64, plan: FaultPlan) -> (Host, VmId, VmId) {
        let mut host = Host::with_faults(arch, 4, seed, plan);
        let _attacker = host.launch_vm_pinned(&[0], SevMode::SevSnp).unwrap();
        let victim = host.launch_vm_pinned(&[1], SevMode::SevSnp).unwrap();
        let decoy = host.launch_vm_pinned(&[2], SevMode::SevSnp).unwrap();
        for _ in 0..7 {
            host.tick(|_, _, _| {});
        }
        (host, victim, decoy)
    }

    /// Per-lane scalar reference: fork the host, attach the lane's
    /// sources (plus decoy sources on the *unrecorded* core, which the
    /// batched path elides entirely), record the pair.
    #[allow(clippy::type_complexity)]
    fn scalar_pair_traces(
        host: &Host,
        victim: VmId,
        decoy: VmId,
        lane: u64,
        interval_ns: u64,
        window_ns: u64,
    ) -> Result<Vec<Trace>, PerfError> {
        let events = host.core(0).catalog().attack_events();
        let mut replica = host.fork_detached();
        replica
            .attach_app(
                victim,
                0,
                Box::new(PlanSource::new(steady_plan(200.0 + 13.0 * lane as f64, window_ns))),
            )
            .unwrap();
        replica
            .attach_injector(
                victim,
                0,
                Box::new(PlanSource::new(forever_plan(40.0 + 7.0 * lane as f64))),
            )
            .unwrap();
        replica
            .attach_app(
                decoy,
                0,
                Box::new(PlanSource::new(steady_plan(500.0, window_ns))),
            )
            .unwrap();
        replica.record_trace_multi(&[0, 1], &events, OriginFilter::Any, interval_ns, window_ns)
    }

    fn batched_pair_traces(
        host: &Host,
        n_lanes: usize,
        interval_ns: u64,
        window_ns: u64,
    ) -> Result<Vec<Vec<Trace>>, PerfError> {
        let events = host.core(0).catalog().attack_events();
        let lanes: Vec<Vec<LaneGuest>> = (0..n_lanes as u64)
            .map(|lane| {
                vec![
                    LaneGuest::default(),
                    LaneGuest {
                        app: Some(Box::new(PlanSource::new(steady_plan(
                            200.0 + 13.0 * lane as f64,
                            window_ns,
                        )))),
                        injector: Some(Box::new(PlanSource::new(forever_plan(
                            40.0 + 7.0 * lane as f64,
                        )))),
                    },
                ]
            })
            .collect();
        host.record_trace_multi_batch(
            &[0, 1],
            lanes,
            &events,
            OriginFilter::Any,
            interval_ns,
            window_ns,
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// Tentpole invariant: the lane-batched multi-core recording is
        /// bit-equal to the scalar fork-per-replica reference on every
        /// model, at arbitrary lane widths (crossing tile boundaries),
        /// under both the inert and the smoke fault plan.
        #[test]
        fn batched_recording_bit_matches_scalar_forks(
            arch_ix in 0usize..MicroArch::ALL.len(),
            seed in 0u64..1 << 40,
            n_lanes in 1usize..40,
            smoke_ix in 0usize..2,
        ) {
            let smoke = smoke_ix == 1;
            let plan = if smoke { FaultPlan::smoke() } else { FaultPlan::none() };
            let (host, victim, decoy) = fleet_shaped_host(MicroArch::ALL[arch_ix], seed, plan);
            let batched = batched_pair_traces(&host, n_lanes, 1_000_000, 3_000_000).unwrap();
            proptest::prop_assert_eq!(batched.len(), n_lanes);
            for (lane, got) in batched.iter().enumerate() {
                let want = scalar_pair_traces(
                    &host, victim, decoy, lane as u64, 1_000_000, 3_000_000,
                ).unwrap();
                for (pos, (w, g)) in want.iter().zip(got).enumerate() {
                    proptest::prop_assert_eq!(
                        &w.data, &g.data,
                        "lane {} core-pos {} diverged (smoke={})", lane, pos, smoke
                    );
                }
            }
        }
    }

    /// Fault-latch parity: under a stall-heavy plan the watchdog latches
    /// (and releases) fail-closed *inside* the recording window; the
    /// batched per-lane latch must replay the scalar one bit-exactly,
    /// and the latch must actually fire (traces differ from the inert
    /// plan's).
    #[test]
    fn batched_fail_closed_latch_matches_scalar() {
        let plan = FaultPlan {
            seed: 5,
            injector_stall: 0.2,
            stall_ticks: 12,
            ..FaultPlan::none()
        };
        let (host, victim, decoy) = fleet_shaped_host(MicroArch::AmdEpyc7252, 41, plan);
        let n_lanes = 20; // crosses the 16-lane tile for 2-core groups
        let batched = batched_pair_traces(&host, n_lanes, 1_000_000, 12_000_000).unwrap();
        for (lane, got) in batched.iter().enumerate() {
            let want =
                scalar_pair_traces(&host, victim, decoy, lane as u64, 1_000_000, 12_000_000)
                    .unwrap();
            for (w, g) in want.iter().zip(got) {
                assert_eq!(w.data, g.data, "lane {lane} diverged under stall faults");
            }
        }
        let (inert_host, ..) = fleet_shaped_host(MicroArch::AmdEpyc7252, 41, FaultPlan::none());
        let inert = batched_pair_traces(&inert_host, 1, 1_000_000, 12_000_000).unwrap();
        assert_ne!(
            inert[0][1].data, batched[0][1].data,
            "the stall plan must actually perturb the victim-core trace"
        );
    }

    #[test]
    fn batched_recording_with_no_lanes_is_empty() {
        let (host, ..) = fleet_shaped_host(MicroArch::AmdEpyc7252, 1, FaultPlan::none());
        let events = host.core(0).catalog().attack_events();
        let out = host
            .record_trace_multi_batch(
                &[0, 1],
                Vec::new(),
                &events,
                OriginFilter::Any,
                1_000_000,
                2_000_000,
            )
            .unwrap();
        assert!(out.is_empty());
    }
}
