//! Supervision policy and the per-session state machine.
//!
//! The lifecycle mirrors a real CVM init supervisor (spawn → health
//! check → bounded watchdog restarts with backoff → clean detach), run
//! entirely in deterministic sim time:
//!
//! ```text
//!                    attach                    ε charge fails
//!          ┌──────────────────────┐     ┌─────────────────────────┐
//!          ▼                      │     │                         ▼
//!      Running ──watchdog──▶ Backoff ──redeploy──▶ Running    Exhausted
//!          │   (latch core      │  (charge ε,      (latch      (latched,
//!          │    fail-closed)    │   re-attach)      released     terminal)
//!          │                    │                   on health)
//!          │                    └──restarts > max──▶ Failed (latched, terminal)
//!          └──detach──▶ Detached (latch released: operator's choice)
//! ```
//!
//! `Exhausted` and `Failed` are terminal and *stay latched*: the guest
//! reads zeros, never an unprotected clean value. `Detached` is the
//! clean exit — protection consciously ends and the latch is released.

use crate::error::AegisError;
use serde::{Deserialize, Serialize};

/// Watchdog and restart policy for service sessions. All durations are
/// sim time, so a given policy replays bit-identically at any worker
/// count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SupervisorConfig {
    /// Sim time between service-level health checks of each session.
    pub health_check_interval_ns: u64,
    /// Consecutive unhealthy checks before the watchdog restarts the
    /// session's daemon.
    pub unhealthy_checks_restart: u32,
    /// Restarts allowed per session before it fails permanently
    /// (fail-closed).
    pub max_restarts: u32,
    /// Backoff before the first restart attempt; doubles per subsequent
    /// restart.
    pub restart_backoff_ns: u64,
    /// Ceiling on the exponential backoff.
    pub backoff_cap_ns: u64,
    /// Swap attempts per hot reload before the reload is abandoned
    /// (the old plan stays attached).
    pub reload_attempts: u32,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            // 10 scheduler ticks: coarse enough to be a daemon-plane
            // cadence, fine enough that a flap is caught well inside a
            // single 1 ms attacker sample.
            health_check_interval_ns: 1_000_000,
            unhealthy_checks_restart: 2,
            max_restarts: 3,
            restart_backoff_ns: 2_000_000,
            backoff_cap_ns: 16_000_000,
            reload_attempts: 3,
        }
    }
}

impl SupervisorConfig {
    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns [`AegisError::Config`] for zero intervals or retry
    /// budgets that would make the watchdog a no-op.
    pub fn validate(&self) -> Result<(), AegisError> {
        if self.health_check_interval_ns == 0 {
            return Err(AegisError::config(
                "health_check_interval_ns",
                "health checks need a positive sim-time cadence",
            ));
        }
        if self.unhealthy_checks_restart == 0 {
            return Err(AegisError::config(
                "unhealthy_checks_restart",
                "must be at least 1 (a zero threshold restarts healthy sessions)",
            ));
        }
        if self.reload_attempts == 0 {
            return Err(AegisError::config("reload_attempts", "must be at least 1"));
        }
        Ok(())
    }

    /// Sim-time backoff before restart number `restarts` (1-based):
    /// `restart_backoff_ns · 2^(restarts-1)`, capped.
    pub fn backoff_ns(&self, restarts: u32) -> u64 {
        let shift = restarts.saturating_sub(1).min(20);
        self.restart_backoff_ns
            .saturating_mul(1u64 << shift)
            .min(self.backoff_cap_ns)
    }
}

/// Internal per-session lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum SessionState {
    /// Daemon attached and supervised.
    Running,
    /// Daemon detached by the watchdog; redeploys at `until_ns`.
    Backoff {
        /// Sim time at which the restart attempt fires.
        until_ns: u64,
    },
    /// Restart budget spent — terminal, latched fail-closed.
    Failed,
    /// ε budget spent — terminal, latched fail-closed.
    Exhausted,
    /// Cleanly detached by the operator.
    Detached,
}

/// Externally visible session status, as reported by
/// [`ServiceHandle::health`](crate::service::ServiceHandle::health).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Status {
    /// Attached and passing health checks.
    Healthy,
    /// Attached but recent checks failed (watchdog counting).
    Degraded,
    /// Detached by the watchdog, waiting out restart backoff.
    Restarting,
    /// Restart budget spent; counters latched to read zero.
    Failed,
    /// ε budget spent; counters latched to read zero.
    Exhausted,
    /// Cleanly detached.
    Detached,
}

impl std::fmt::Display for Status {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Status::Healthy => "healthy",
            Status::Degraded => "degraded",
            Status::Restarting => "restarting",
            Status::Failed => "failed",
            Status::Exhausted => "exhausted",
            Status::Detached => "detached",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let cfg = SupervisorConfig::default();
        assert_eq!(cfg.backoff_ns(1), 2_000_000);
        assert_eq!(cfg.backoff_ns(2), 4_000_000);
        assert_eq!(cfg.backoff_ns(3), 8_000_000);
        assert_eq!(cfg.backoff_ns(4), 16_000_000);
        assert_eq!(cfg.backoff_ns(5), 16_000_000, "capped");
        assert_eq!(cfg.backoff_ns(64), 16_000_000, "shift saturates");
    }

    #[test]
    fn validation_rejects_no_op_watchdogs() {
        assert!(SupervisorConfig::default().validate().is_ok());
        for bad in [
            SupervisorConfig {
                health_check_interval_ns: 0,
                ..SupervisorConfig::default()
            },
            SupervisorConfig {
                unhealthy_checks_restart: 0,
                ..SupervisorConfig::default()
            },
            SupervisorConfig {
                reload_attempts: 0,
                ..SupervisorConfig::default()
            },
        ] {
            assert!(matches!(bad.validate(), Err(AegisError::Config { .. })));
        }
    }

    #[test]
    fn status_displays_lowercase() {
        assert_eq!(Status::Exhausted.to_string(), "exhausted");
        assert_eq!(Status::Healthy.to_string(), "healthy");
    }
}
