//! # aegis-obfuscator
//!
//! The Event Obfuscator (Module 3 of Aegis): the online, in-guest defense
//! that injects instruction-gadget noise into the protected VM's
//! execution flow so the malicious hypervisor's HPC observations become
//! differentially private.
//!
//! Architecture (Fig. 7 of the paper): a kernel module monitors the real
//! HPC values (needed by the d* mechanism) and streams them over a
//! netlink-style feed to a userspace daemon, whose *noise calculator*
//! draws from a precomputed Laplace buffer and whose *noise injector*
//! executes the covering [`GadgetStack`] the computed number of times per
//! interval. The injector runs on the same vCPU as the protected
//! application, indistinguishable to the host under SEV.
//!
//! Also provided: the Section IX baseline strategies
//! ([`UniformRandomNoise`], [`ConstantOutput`]) used to show why the DP
//! mechanisms are the better trade-off.

mod baselines;
mod daemon;
mod stack;

pub use baselines::{ConstantOutput, SecretConstantNoise, UniformRandomNoise};
pub use daemon::{
    Obfuscator, ObfuscatorConfig, STALE_INTERVALS_DEGRADED, STARVED_TICKS_DEGRADED,
};
pub use stack::GadgetStack;
