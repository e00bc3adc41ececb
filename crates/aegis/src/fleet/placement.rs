//! Tenant placement: mapping VMs onto the fleet's sockets and SMT
//! core pairs under a pluggable policy.
//!
//! The policies encode the production tenancy ground rules for
//! confidential guests (the Firecracker prod-host-setup posture): SMT
//! siblings share the physical core's PMU, so whoever controls sibling
//! occupancy controls the cross-tenant side channel. `SmtOff` and
//! `CorePairExclusive` guarantee no foreign sibling ever exists;
//! `Packed` maximizes density and therefore co-residency; `Spread`
//! avoids co-residency while capacity lasts and degrades to sharing
//! under pressure.

use crate::error::AegisError;
use serde::{Deserialize, Serialize};

/// Shape of every simulated host in the fleet: cores are numbered so
/// that cores `2p` and `2p + 1` are the SMT siblings of pair `p`, and
/// consecutive pairs fill a socket before the next one starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetTopology {
    /// Simulated hosts (= failure domains).
    pub hosts: usize,
    /// Sockets per host.
    pub sockets_per_host: usize,
    /// SMT core pairs per socket.
    pub pairs_per_socket: usize,
}

impl FleetTopology {
    /// Physical cores (SMT threads) per host.
    pub fn cores_per_host(&self) -> usize {
        self.sockets_per_host * self.pairs_per_socket * 2
    }

    /// SMT pairs per host.
    pub fn pairs_per_host(&self) -> usize {
        self.sockets_per_host * self.pairs_per_socket
    }

    /// The SMT sibling of a core.
    pub fn sibling_of(core: usize) -> usize {
        core ^ 1
    }

    pub(crate) fn validate(&self) -> Result<(), AegisError> {
        if self.hosts == 0 || self.sockets_per_host == 0 || self.pairs_per_socket == 0 {
            return Err(AegisError::config(
                "topology",
                format!(
                    "hosts, sockets and pairs must all be nonzero (got {} × {} × {})",
                    self.hosts, self.sockets_per_host, self.pairs_per_socket
                ),
            ));
        }
        Ok(())
    }
}

/// How the scheduler maps tenant VMs onto SMT pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementPolicy {
    /// Only sibling 0 of each pair is ever used; sibling 1 stays dark.
    /// Halves capacity, removes the sibling channel entirely.
    SmtOff,
    /// A tenant's VM owns its whole pair (both siblings as vCPUs), so
    /// the sibling is busy but never foreign.
    CorePairExclusive,
    /// Dense first-fit over every core — maximum density, maximum
    /// cross-tenant co-residency.
    Packed,
    /// Round-robin over hosts, preferring empty pairs; co-residency
    /// appears only once every pair on every host is anchored.
    Spread,
}

impl PlacementPolicy {
    /// Every policy, in the order fleet tables report them.
    pub const ALL: [PlacementPolicy; 4] = [
        PlacementPolicy::SmtOff,
        PlacementPolicy::CorePairExclusive,
        PlacementPolicy::Packed,
        PlacementPolicy::Spread,
    ];

    /// Stable display / table label.
    pub fn label(&self) -> &'static str {
        match self {
            PlacementPolicy::SmtOff => "smt-off",
            PlacementPolicy::CorePairExclusive => "core-pair-exclusive",
            PlacementPolicy::Packed => "packed",
            PlacementPolicy::Spread => "spread",
        }
    }

    /// Tenant slots one host offers under this policy.
    pub fn capacity_per_host(&self, topo: &FleetTopology) -> usize {
        match self {
            PlacementPolicy::SmtOff | PlacementPolicy::CorePairExclusive => topo.pairs_per_host(),
            PlacementPolicy::Packed | PlacementPolicy::Spread => topo.cores_per_host(),
        }
    }
}

impl std::fmt::Display for PlacementPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One placement decision: the host and the cores the VM pins, in vCPU
/// order (`CorePairExclusive` pins both siblings; every other policy
/// pins one core).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// Destination host index.
    pub host: usize,
    /// Pinned cores, vCPU `v` on `cores[v]`.
    pub cores: Vec<usize>,
}

/// The fleet's placement scheduler: deterministic first-fit state over
/// `(topology, policy)`. Placement is a pure function of the sequence
/// of `place`/`release` calls — never of wall time or worker count — so
/// fleet runs replay bit-identically.
#[derive(Debug, Clone)]
pub struct Scheduler {
    topo: FleetTopology,
    policy: PlacementPolicy,
    /// `occupancy[host][core]` = owning tenant, if any.
    occupancy: Vec<Vec<Option<usize>>>,
    /// Round-robin cursor for [`PlacementPolicy::Spread`].
    next_host: usize,
}

impl Scheduler {
    /// An empty scheduler over the topology.
    pub fn new(topo: FleetTopology, policy: PlacementPolicy) -> Scheduler {
        Scheduler {
            topo,
            policy,
            occupancy: vec![vec![None; topo.cores_per_host()]; topo.hosts],
            next_host: 0,
        }
    }

    /// The active policy.
    pub fn policy(&self) -> PlacementPolicy {
        self.policy
    }

    /// Places `tenant` on the first host (in policy order) with a free
    /// slot, or `None` when the surviving capacity is exhausted.
    /// `alive[h]` gates crashed hosts out of consideration.
    pub fn place(&mut self, tenant: usize, alive: &[bool]) -> Option<Placement> {
        let hosts = self.topo.hosts;
        let order: Vec<usize> = match self.policy {
            // First-fit host order packs hosts in index order.
            PlacementPolicy::SmtOff
            | PlacementPolicy::CorePairExclusive
            | PlacementPolicy::Packed => (0..hosts).collect(),
            // Spread rotates the starting host per placement.
            PlacementPolicy::Spread => (0..hosts).map(|i| (self.next_host + i) % hosts).collect(),
        };
        for h in order {
            if !alive.get(h).copied().unwrap_or(false) {
                continue;
            }
            if let Some(cores) = self.slot_on_host(h) {
                for &c in &cores {
                    self.occupancy[h][c] = Some(tenant);
                }
                if self.policy == PlacementPolicy::Spread {
                    self.next_host = (h + 1) % hosts;
                }
                return Some(Placement { host: h, cores });
            }
        }
        None
    }

    /// Frees every core `tenant` holds on `host` (evacuation drain).
    pub fn release(&mut self, host: usize, tenant: usize) {
        for slot in &mut self.occupancy[host] {
            if *slot == Some(tenant) {
                *slot = None;
            }
        }
    }

    /// The tenant on the SMT sibling of `core`, if any — the
    /// co-residency the cross-tenant attacker exploits.
    pub fn co_resident(&self, host: usize, core: usize) -> Option<usize> {
        let sib = FleetTopology::sibling_of(core);
        self.occupancy[host][sib].filter(|&t| self.occupancy[host][core] != Some(t))
    }

    /// Free tenant slots remaining across `alive` hosts.
    pub fn capacity(&self, alive: &[bool]) -> usize {
        (0..self.topo.hosts)
            .filter(|&h| alive.get(h).copied().unwrap_or(false))
            .map(|h| self.host_capacity(h))
            .sum()
    }

    fn host_capacity(&self, h: usize) -> usize {
        let mut n = 0;
        let mut probe = self.clone();
        while let Some(cores) = probe.slot_on_host(h) {
            for &c in &cores {
                probe.occupancy[h][c] = Some(usize::MAX);
            }
            n += 1;
        }
        n
    }

    /// The next slot `h` offers under the policy, without claiming it.
    fn slot_on_host(&self, h: usize) -> Option<Vec<usize>> {
        let occ = &self.occupancy[h];
        let pairs = self.topo.pairs_per_host();
        match self.policy {
            // Only even cores, and only on fully empty pairs: the
            // sibling stays dark forever.
            PlacementPolicy::SmtOff => (0..pairs)
                .map(|p| 2 * p)
                .find(|&c| occ[c].is_none() && occ[c + 1].is_none())
                .map(|c| vec![c]),
            // The VM owns the whole pair, one vCPU per sibling.
            PlacementPolicy::CorePairExclusive => (0..pairs)
                .map(|p| 2 * p)
                .find(|&c| occ[c].is_none() && occ[c + 1].is_none())
                .map(|c| vec![c, c + 1]),
            // Dense: first free core in core order fills siblings early.
            PlacementPolicy::Packed => (0..occ.len()).find(|&c| occ[c].is_none()).map(|c| vec![c]),
            // Prefer an empty pair; share a sibling only under pressure.
            PlacementPolicy::Spread => (0..pairs)
                .map(|p| 2 * p)
                .find(|&c| occ[c].is_none() && occ[c + 1].is_none())
                .or_else(|| (0..occ.len()).find(|&c| occ[c].is_none()))
                .map(|c| vec![c]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo(hosts: usize) -> FleetTopology {
        FleetTopology {
            hosts,
            sockets_per_host: 1,
            pairs_per_socket: 2,
        }
    }

    #[test]
    fn packed_fills_siblings_before_next_pair() {
        let mut s = Scheduler::new(topo(1), PlacementPolicy::Packed);
        let alive = [true];
        let cores: Vec<_> = (0..4)
            .map(|t| s.place(t, &alive).unwrap().cores[0])
            .collect();
        assert_eq!(cores, vec![0, 1, 2, 3]);
        assert_eq!(s.co_resident(0, 0), Some(1));
        assert!(s.place(4, &alive).is_none(), "host is full");
    }

    #[test]
    fn smt_off_and_exclusive_never_share_a_pair() {
        for policy in [PlacementPolicy::SmtOff, PlacementPolicy::CorePairExclusive] {
            let mut s = Scheduler::new(topo(2), policy);
            let alive = [true, true];
            for t in 0..4 {
                let p = s.place(t, &alive).unwrap();
                assert_eq!(s.co_resident(p.host, p.cores[0]), None, "{policy}");
            }
            assert_eq!(s.capacity(&alive), 0, "{policy}: 2 hosts × 2 pairs");
            assert!(s.place(9, &alive).is_none());
        }
    }

    #[test]
    fn spread_rotates_hosts_and_shares_only_under_pressure() {
        let mut s = Scheduler::new(topo(2), PlacementPolicy::Spread);
        let alive = [true, true];
        let hosts: Vec<_> = (0..4).map(|t| s.place(t, &alive).unwrap().host).collect();
        assert_eq!(hosts, vec![0, 1, 0, 1], "round-robin while pairs last");
        for t in 0..4 {
            let p = s.place(4 + t, &alive).unwrap();
            assert!(
                s.co_resident(p.host, p.cores[0]).is_some(),
                "pressure placements land on occupied pairs"
            );
        }
        assert!(s.place(99, &alive).is_none());
    }

    #[test]
    fn release_frees_the_slot_and_dead_hosts_are_skipped() {
        let mut s = Scheduler::new(topo(2), PlacementPolicy::Packed);
        let p = s.place(0, &[true, true]).unwrap();
        assert_eq!(p.host, 0);
        s.release(p.host, 0);
        // Host 0 now reads dead: the same tenant re-places on host 1.
        let p2 = s.place(0, &[false, true]).unwrap();
        assert_eq!(p2.host, 1);
        assert_eq!(s.capacity(&[false, true]), 3);
    }
}
