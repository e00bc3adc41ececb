//! The per-tenant ε-budget ledger.
//!
//! Every deployment *epoch* — the first attach, each hot reload, each
//! watchdog restart — mints a fresh noise stream for the tenant's guest,
//! and the ledger accounts that release against the tenant's provisioned
//! ε under sequential composition (the conservative reading: a new epoch
//! is a new ε-draw even when the mechanism's stream merely continues).
//! The ledger persists through [`ArtifactCache`] so spend survives
//! service restarts, and it fails *closed* in both directions:
//!
//! - a charge that does not fit returns
//!   [`AegisError::BudgetExhausted`] and the caller latches the guest's
//!   counters to read zero;
//! - a persisted record that exists but does not parse poisons the
//!   ledger — every tenant is refused until an operator repairs the
//!   record, because silently restarting from zero spend would launder
//!   an unbounded privacy release.

use crate::error::AegisError;
use aegis_dp::PrivacyBudget;
use aegis_faults::{self as faults, site, FaultPlan, FaultStream};
use aegis_obs as obs;
use aegis_par::{fingerprint, ArtifactCache, ArtifactKey};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Artifact kind under which the ledger record is stored.
pub const LEDGER_KIND: &str = "service-ledger";

/// Version of the on-disk ledger record.
const LEDGER_SCHEMA_VERSION: u32 = 1;

/// The on-disk shape: versioned, with accounts in sorted order so the
/// record is byte-stable across runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct LedgerRecord {
    schema_version: u32,
    accounts: Vec<(String, PrivacyBudget)>,
}

/// Where a ledger persists, plus the fault stream that can tear its
/// writes (`ledger_corrupt`).
struct LedgerStore {
    cache: ArtifactCache,
    key: u64,
    faults: FaultPlan,
    corrupt_stream: Option<FaultStream>,
    /// Whether the live record currently holds a gc pin (taken on the
    /// first persisted write, released by [`EpsilonLedger::close`]).
    pinned: bool,
}

/// Per-tenant ε accounts with optional on-disk persistence.
pub struct EpsilonLedger {
    default_budget: f64,
    accounts: BTreeMap<String, PrivacyBudget>,
    store: Option<LedgerStore>,
    poisoned: bool,
}

impl EpsilonLedger {
    /// Opens a ledger. With a `store`, any record persisted under
    /// `(cache, scope)` is loaded first; a record that exists but does
    /// not parse (torn write, truncation) poisons the ledger instead of
    /// resetting spend to zero. Tenants seen for the first time are
    /// provisioned `default_budget` ε (`f64::INFINITY` = unmetered).
    pub fn open(
        default_budget: f64,
        store: Option<(ArtifactCache, &str)>,
        plan: FaultPlan,
    ) -> EpsilonLedger {
        let mut ledger = EpsilonLedger {
            default_budget,
            accounts: BTreeMap::new(),
            store: None,
            poisoned: false,
        };
        let Some((cache, scope)) = store else {
            return ledger;
        };
        let key = fingerprint(&(LEDGER_KIND, scope));
        // Read the raw file rather than `cache.get_json`, which deliberately
        // flattens corrupt artifacts into misses — for the ledger,
        // corrupt and absent are opposite outcomes (fail-closed vs
        // fresh).
        let path = cache.json_path(&ArtifactKey::raw(LEDGER_KIND, key));
        match std::fs::read_to_string(&path) {
            Err(_) => {} // absent: a fresh ledger
            Ok(text) => match serde_json::from_str::<LedgerRecord>(&text) {
                Ok(rec) if rec.schema_version <= LEDGER_SCHEMA_VERSION => {
                    ledger.accounts = rec.accounts.into_iter().collect();
                }
                _ => {
                    ledger.poisoned = true;
                    obs::counter_add("service.ledger.poisoned", 1.0);
                    obs::event(
                        "service.ledger.corrupt",
                        &[("path", &path.display().to_string())],
                    );
                }
            },
        }
        ledger.store = Some(LedgerStore {
            corrupt_stream: plan
                .is_active()
                .then(|| FaultStream::new(&plan, site::SERVICE_LEDGER, key)),
            cache,
            key,
            faults: plan,
            pinned: false,
        });
        ledger
    }

    /// Whether the persisted record was unreadable. A poisoned ledger
    /// refuses every charge.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// ε still unspent for `tenant`; `None` for tenants never charged.
    pub fn remaining(&self, tenant: &str) -> Option<f64> {
        self.accounts.get(tenant).map(PrivacyBudget::remaining)
    }

    /// ε spent so far by `tenant` (0 for tenants never charged).
    pub fn spent(&self, tenant: &str) -> f64 {
        self.accounts.get(tenant).map_or(0.0, PrivacyBudget::spent)
    }

    /// Charges `eps` against `tenant`'s account (provisioning it at the
    /// default budget on first contact), persists the updated record,
    /// and returns the remaining ε.
    ///
    /// # Errors
    ///
    /// [`AegisError::Service`] if the ledger is poisoned,
    /// [`AegisError::BudgetExhausted`] if the charge does not fit (the
    /// account is unchanged), and [`AegisError::Io`] if the updated
    /// record cannot be written.
    pub fn charge(&mut self, tenant: &str, eps: f64) -> Result<f64, AegisError> {
        if self.poisoned {
            return Err(AegisError::service(
                format!("charging tenant {tenant:?}"),
                "persisted ledger record is corrupt; refusing all service (fail closed)",
            ));
        }
        let account = self
            .accounts
            .entry(tenant.to_string())
            .or_insert_with(|| PrivacyBudget::new(self.default_budget));
        account
            .charge(eps)
            .map_err(|e| AegisError::BudgetExhausted {
                tenant: tenant.to_string(),
                requested: e.requested,
                remaining: (e.total - e.spent).max(0.0),
                total: e.total,
            })?;
        let remaining = account.remaining();
        obs::counter_add("service.ledger.charges", 1.0);
        obs::gauge_set(&format!("service.ledger.remaining.{tenant}"), remaining);
        self.persist()?;
        Ok(remaining)
    }

    /// Writes the current accounts to the store, if any. Under an active
    /// `ledger_corrupt` rate the write can tear — truncated JSON lands
    /// at the final path, which the next [`EpsilonLedger::open`] must
    /// treat as poisoned, never as a fresh ledger.
    ///
    /// Either way the record ends up journaled *and pinned*: a live
    /// tenant's budget record (or the torn evidence that poisons the
    /// next open) must survive any store `gc`, whatever its age or the
    /// byte budget — evicting it would reset spend to zero, laundering
    /// an unbounded privacy release. [`EpsilonLedger::close`] releases
    /// the pin on clean shutdown, returning the record to normal
    /// retention policy.
    fn persist(&mut self) -> Result<(), AegisError> {
        let Some(store) = self.store.as_mut() else {
            return Ok(());
        };
        let record = LedgerRecord {
            schema_version: LEDGER_SCHEMA_VERSION,
            // Unmetered (infinite) accounts are not persisted: JSON has
            // no finite encoding for them and there is no spend to
            // protect — they re-provision identically on reopen.
            accounts: self
                .accounts
                .iter()
                .filter(|(_, v)| v.total().is_finite())
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
        };
        let torn = store
            .corrupt_stream
            .as_mut()
            .is_some_and(|s| s.chance(store.faults.ledger_corrupt));
        if torn {
            let path = store
                .cache
                .json_path(&ArtifactKey::raw(LEDGER_KIND, store.key));
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir)
                    .map_err(|e| AegisError::io(format!("creating {}", dir.display()), e))?;
            }
            let json = serde_json::to_string_pretty(&record)
                .map_err(|e| AegisError::serde("encoding ε-ledger record", e))?;
            let bytes = &json.as_bytes()[..json.len() / 2];
            std::fs::write(&path, bytes)
                .map_err(|e| AegisError::io(format!("writing ledger {}", path.display()), e))?;
            // The torn write bypassed the cache's journaling; record it
            // by hand so gc's orphan pass cannot delete the poison
            // evidence (an orphan-removed torn record would read as a
            // fresh ledger on the next open).
            if let Some(file) = path.file_name().and_then(|f| f.to_str()) {
                let _ = store.cache.manifest().record_put(
                    LEDGER_KIND,
                    store.key,
                    file,
                    bytes.len() as u64,
                );
            }
            faults::report("service", "ledger_corrupt", &[("key", store.key)]);
        } else {
            store
                .cache
                .put_json(&ArtifactKey::raw(LEDGER_KIND, store.key), &record)
                .map_err(|e| AegisError::io("persisting ε-ledger record", e))?;
        }
        if !store.pinned {
            store.cache.pin(&ArtifactKey::raw(LEDGER_KIND, store.key));
            store.pinned = true;
        }
        Ok(())
    }

    /// Clean shutdown: releases the gc pin taken by the first persisted
    /// write (see `EpsilonLedger::persist`). After `close` the record
    /// is subject to normal store retention; a ledger dropped *without*
    /// `close` (a crash) keeps its pin, so the spend record survives any
    /// gc that runs before the next open.
    pub fn close(&mut self) {
        let Some(store) = self.store.as_mut() else {
            return;
        };
        if store.pinned {
            store.cache.unpin(&ArtifactKey::raw(LEDGER_KIND, store.key));
            store.pinned = false;
        }
    }
}

/// Per-tenant ε ledgers shared by every host of a fleet: each tenant
/// gets its *own* [`EpsilonLedger`] (and therefore its own persisted
/// record, keyed by `scope/tenant`), so one tenant's torn record
/// poisons — and quarantines — that tenant alone, never its neighbors.
/// Fleet planes hold this behind [`LedgerSlot::Shared`], an
/// `Arc<Mutex<…>>`: a fleet steps its hosts on worker threads, and a
/// tenant's session lives on one host at a time, so charges to one
/// account never race and only the store journal's line order is left
/// to the scheduler. Every access goes through [`TenantLedgers::lock`]
/// for one call and never locks again while holding the guard.
pub(crate) struct TenantLedgers {
    default_budget: f64,
    store: Option<(ArtifactCache, String)>,
    plan: FaultPlan,
    ledgers: BTreeMap<String, EpsilonLedger>,
}

impl TenantLedgers {
    /// Opens the fleet's ledger set. With a `(cache, scope)` store each
    /// tenant's account persists under the scope-qualified record
    /// `scope/tenant`; without one the accounts are in-memory only.
    pub(crate) fn open(
        default_budget: f64,
        store: Option<(ArtifactCache, String)>,
        plan: FaultPlan,
    ) -> TenantLedgers {
        TenantLedgers {
            default_budget,
            store,
            plan,
            ledgers: BTreeMap::new(),
        }
    }

    /// Locks the shared set. A `Mutex` deadlocks on nested locking, so
    /// no caller may lock again while it holds the guard.
    ///
    /// # Panics
    ///
    /// When a thread panicked while holding the lock: a charge cut
    /// short may have moved an account without persisting it.
    pub(crate) fn lock(shared: &Mutex<TenantLedgers>) -> MutexGuard<'_, TenantLedgers> {
        shared
            .lock()
            .expect("no thread panicked while holding the fleet ledgers")
    }

    fn open_one(&self, tenant: &str) -> EpsilonLedger {
        match &self.store {
            Some((cache, scope)) => {
                let scoped = format!("{scope}/{tenant}");
                EpsilonLedger::open(
                    self.default_budget,
                    Some((cache.clone(), scoped.as_str())),
                    self.plan,
                )
            }
            None => EpsilonLedger::open(self.default_budget, None, self.plan),
        }
    }

    fn ledger_mut(&mut self, tenant: &str) -> &mut EpsilonLedger {
        if !self.ledgers.contains_key(tenant) {
            let ledger = self.open_one(tenant);
            self.ledgers.insert(tenant.to_string(), ledger);
        }
        self.ledgers
            .get_mut(tenant)
            .expect("inserted on the miss path above")
    }

    /// Charges `eps` against `tenant`'s account. Same contract as
    /// [`EpsilonLedger::charge`].
    pub(crate) fn charge(&mut self, tenant: &str, eps: f64) -> Result<f64, AegisError> {
        self.ledger_mut(tenant).charge(tenant, eps)
    }

    /// ε still unspent for `tenant`; `None` for tenants never charged.
    pub(crate) fn remaining(&self, tenant: &str) -> Option<f64> {
        self.ledgers.get(tenant).and_then(|l| l.remaining(tenant))
    }

    /// ε spent so far by `tenant` (0 for tenants never charged).
    pub(crate) fn spent(&self, tenant: &str) -> f64 {
        self.ledgers.get(tenant).map_or(0.0, |l| l.spent(tenant))
    }

    /// Re-opens `tenant`'s account from the persisted record — the
    /// evacuation carry: the destination host trusts the *store*, not
    /// whatever the crashed host last held in memory. Returns whether
    /// the re-read record poisoned (torn on disk), in which case the
    /// tenant must be quarantined, not re-placed. Without a store the
    /// in-memory account simply survives (there is nothing else to
    /// carry it through).
    pub(crate) fn reopen(&mut self, tenant: &str) -> bool {
        if self.store.is_some() {
            let reopened = self.open_one(tenant);
            self.ledgers.insert(tenant.to_string(), reopened);
        }
        self.ledger_mut(tenant).poisoned()
    }

    /// Whether `tenant`'s account is poisoned (torn persisted record).
    pub(crate) fn poisoned(&self, tenant: &str) -> bool {
        self.ledgers
            .get(tenant)
            .is_some_and(EpsilonLedger::poisoned)
    }

    /// Clean fleet shutdown: releases every account's gc pin.
    pub(crate) fn close(&mut self) {
        for ledger in self.ledgers.values_mut() {
            ledger.close();
        }
    }
}

/// How a service plane reaches its ε ledger: an [`EpsilonLedger`] it
/// owns outright (the single-host [`crate::AegisService`] path), or the
/// fleet's shared per-tenant ledger set — tenants keep one account
/// across every host their sessions land on.
pub(crate) enum LedgerSlot {
    Owned(Box<EpsilonLedger>),
    Shared(Arc<Mutex<TenantLedgers>>),
}

impl LedgerSlot {
    /// Charges `eps` against `tenant`. See [`EpsilonLedger::charge`].
    pub(crate) fn charge(&mut self, tenant: &str, eps: f64) -> Result<f64, AegisError> {
        match self {
            LedgerSlot::Owned(ledger) => ledger.charge(tenant, eps),
            LedgerSlot::Shared(shared) => TenantLedgers::lock(shared).charge(tenant, eps),
        }
    }

    /// ε still unspent for `tenant`; `None` for tenants never charged.
    pub(crate) fn remaining(&self, tenant: &str) -> Option<f64> {
        match self {
            LedgerSlot::Owned(ledger) => ledger.remaining(tenant),
            LedgerSlot::Shared(shared) => TenantLedgers::lock(shared).remaining(tenant),
        }
    }

    /// Clean shutdown for owned ledgers. Shared fleet ledgers are
    /// closed once, by the fleet supervisor, at fleet shutdown.
    pub(crate) fn close(&mut self) {
        if let LedgerSlot::Owned(ledger) = self {
            ledger.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("aegis-ledger-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn charges_compose_and_exhaust() {
        let mut ledger = EpsilonLedger::open(2.5, None, FaultPlan::none());
        assert_eq!(ledger.remaining("a"), None);
        assert_eq!(ledger.charge("a", 1.0).unwrap(), 1.5);
        assert_eq!(ledger.charge("a", 1.0).unwrap(), 0.5);
        // Tenants are isolated.
        assert_eq!(ledger.charge("b", 1.0).unwrap(), 1.5);
        let err = ledger.charge("a", 1.0).unwrap_err();
        assert!(matches!(
            err,
            AegisError::BudgetExhausted { requested, .. } if requested == 1.0
        ));
        // Refused charge leaves the account unchanged.
        assert_eq!(ledger.remaining("a"), Some(0.5));
        assert_eq!(ledger.spent("a"), 2.0);
    }

    #[test]
    fn unmetered_ledger_never_exhausts() {
        let mut ledger = EpsilonLedger::open(f64::INFINITY, None, FaultPlan::none());
        for _ in 0..100 {
            ledger.charge("t", 8.0).unwrap();
        }
        assert_eq!(ledger.remaining("t"), Some(f64::INFINITY));
    }

    #[test]
    fn spend_persists_across_opens() {
        let dir = temp_dir("persist");
        let cache = ArtifactCache::new(&dir);
        let mut a = EpsilonLedger::open(3.0, Some((cache.clone(), "prod")), FaultPlan::none());
        a.charge("acme", 2.0).unwrap();
        drop(a);
        let mut b = EpsilonLedger::open(3.0, Some((cache.clone(), "prod")), FaultPlan::none());
        assert_eq!(b.remaining("acme"), Some(1.0));
        assert!(b.charge("acme", 2.0).is_err(), "spend survived the restart");
        // A different scope is a different ledger.
        let c = EpsilonLedger::open(3.0, Some((cache, "staging")), FaultPlan::none());
        assert_eq!(c.remaining("acme"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_record_poisons_and_refuses_fail_closed() {
        let dir = temp_dir("poison");
        let plan = FaultPlan {
            seed: 5,
            ledger_corrupt: 1.0,
            ..FaultPlan::none()
        };
        let cache = ArtifactCache::new(&dir);
        let mut a = EpsilonLedger::open(3.0, Some((cache.clone(), "prod")), plan);
        a.charge("acme", 1.0).unwrap();
        drop(a);
        // The persist tore: reopening must poison, not reset to zero.
        let mut b = EpsilonLedger::open(3.0, Some((cache, "prod")), FaultPlan::none());
        assert!(b.poisoned());
        assert!(matches!(
            b.charge("acme", 0.5),
            Err(AegisError::Service { .. })
        ));
        assert!(
            matches!(b.charge("other", 0.0), Err(AegisError::Service { .. })),
            "a poisoned ledger refuses every tenant, even zero-cost epochs"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn live_record_is_pinned_against_gc() {
        let dir = temp_dir("pin");
        let cache = ArtifactCache::new(&dir);
        let mut a = EpsilonLedger::open(3.0, Some((cache.clone(), "prod")), FaultPlan::none());
        a.charge("acme", 2.0).unwrap();
        // A zero-byte budget would evict everything evictable — the
        // live ledger record must not be.
        cache.gc(0).unwrap();
        let b = EpsilonLedger::open(3.0, Some((cache.clone(), "prod")), FaultPlan::none());
        assert_eq!(
            b.remaining("acme"),
            Some(1.0),
            "a live tenant's budget record survives gc"
        );
        // Clean shutdown releases the pin: the record is back under
        // normal retention and the same gc now evicts it.
        a.close();
        cache.gc(0).unwrap();
        let c = EpsilonLedger::open(3.0, Some((cache, "prod")), FaultPlan::none());
        assert_eq!(c.remaining("acme"), None, "closed record is evictable");
        assert!(!c.poisoned(), "eviction is absence, not corruption");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_record_survives_gc_and_still_poisons() {
        let dir = temp_dir("torn-gc");
        let plan = FaultPlan {
            seed: 5,
            ledger_corrupt: 1.0,
            ..FaultPlan::none()
        };
        let cache = ArtifactCache::new(&dir);
        let mut a = EpsilonLedger::open(3.0, Some((cache.clone(), "prod")), plan);
        a.charge("acme", 1.0).unwrap();
        drop(a); // crash: no close(), the pin stays
                 // gc must not orphan-collect the torn evidence — that would
                 // turn "poisoned, refuse all service" into "fresh ledger, full
                 // budget again".
        cache.gc(0).unwrap();
        let b = EpsilonLedger::open(3.0, Some((cache, "prod")), FaultPlan::none());
        assert!(b.poisoned(), "torn record survives gc and poisons");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tenant_ledgers_isolate_accounts_and_poison() {
        let dir = temp_dir("tenants");
        let plan = FaultPlan {
            seed: 9,
            ledger_corrupt: 1.0,
            ..FaultPlan::none()
        };
        let cache = ArtifactCache::new(&dir);
        let mut t = TenantLedgers::open(2.0, Some((cache.clone(), "fleet".to_string())), plan);
        t.charge("a", 1.0).unwrap();
        drop(t); // a's record tore on disk
        let mut t2 =
            TenantLedgers::open(2.0, Some((cache, "fleet".to_string())), FaultPlan::none());
        assert!(t2.reopen("a"), "a's torn record poisons a");
        assert!(t2.poisoned("a"));
        // b is untouched: per-tenant records fail independently.
        assert!(!t2.reopen("b"));
        assert_eq!(t2.charge("b", 1.0).unwrap(), 1.0);
        assert!(matches!(
            t2.charge("a", 0.5),
            Err(AegisError::Service { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn future_schema_version_poisons() {
        let dir = temp_dir("schema");
        let cache = ArtifactCache::new(&dir);
        let key = fingerprint(&(LEDGER_KIND, "prod"));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            cache.json_path(&ArtifactKey::raw(LEDGER_KIND, key)),
            r#"{"schema_version": 99, "accounts": []}"#,
        )
        .unwrap();
        let ledger = EpsilonLedger::open(1.0, Some((cache, "prod")), FaultPlan::none());
        assert!(ledger.poisoned());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
