//! The defense plan: everything the offline stage hands to the online
//! Event Obfuscator.

use crate::error::AegisError;
use aegis_fuzzer::{CoveringGadget, FuzzReport, GadgetStats};
use aegis_microarch::{EventId, MicroArch};
use aegis_obfuscator::GadgetStack;
use aegis_profiler::EventRanking;
use aegis_sev::{verify_attestation, AttestationError, AttestationReport};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Version of the on-disk plan file format written by
/// [`DefensePlan::save`]. Bump when the serialized shape changes
/// incompatibly; files from *older* versions (including the unversioned
/// pre-versioning format) keep loading.
pub const PLAN_SCHEMA_VERSION: u32 = 1;

/// The on-disk envelope: the schema version plus the plan itself.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct PlanFile {
    schema_version: u32,
    plan: DefensePlan,
}

/// Output of Aegis's offline stage (Application Profiler + Event Fuzzer):
/// the vulnerable events, their ranking, and the calibrated covering
/// gadget stack to inject at runtime.
///
/// The plan is `serde`-serializable so a customer can compute it once on
/// the template server and ship it into the production VM.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DefensePlan {
    /// Processor model of the template server the plan was profiled on.
    /// Deployment targets must attest the same family.
    pub template_arch: MicroArch,
    /// All events that survived warm-up profiling.
    pub vulnerable_events: Vec<EventId>,
    /// Mutual-information ranking of the profiled events (descending).
    pub rankings: Vec<EventRanking>,
    /// The greedy minimum covering gadget set.
    pub covering: Vec<CoveringGadget>,
    /// The calibrated injection unit built from `covering`.
    pub stack: GadgetStack,
    /// Fuzzing step timings (Table III material).
    pub fuzz_report: FuzzReport,
    /// Gadgets-per-event statistics (Section VIII-B material).
    pub gadget_stats: GadgetStats,
}

impl DefensePlan {
    /// Number of events the covering stack perturbs.
    pub fn covered_events(&self) -> usize {
        self.covering.iter().map(|c| c.covers.len()).sum()
    }

    /// The most vulnerable events by mutual information.
    pub fn top_events(&self, n: usize) -> Vec<EventId> {
        self.rankings.iter().take(n).map(|r| r.event).collect()
    }

    /// Verifies a cloud host's attestation report against this plan: the
    /// platform must be fully sealed and in the template's processor
    /// family, "to guarantee the generality of the identified events"
    /// (paper Section V-B).
    ///
    /// # Errors
    ///
    /// Returns [`AttestationError`] when the target is unsuitable.
    pub fn verify_target(&self, report: &AttestationReport) -> Result<(), AttestationError> {
        verify_attestation(report, self.template_arch)
    }

    /// Content fingerprint of this plan's gadget stack — the stable id
    /// deployment receipts carry (see `Deployment::plan_id`).
    pub fn plan_id(&self) -> u64 {
        aegis_par::fingerprint(&self.stack)
    }

    /// Writes the plan as pretty-printed JSON inside a versioned envelope
    /// (`schema_version` `PLAN_SCHEMA_VERSION`), creating parent
    /// directories as needed.
    ///
    /// # Errors
    ///
    /// Returns [`AegisError::Io`] on filesystem failures and
    /// [`AegisError::Serde`] if the plan cannot be encoded.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), AegisError> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)
                    .map_err(|e| AegisError::io(format!("creating {}", dir.display()), e))?;
            }
        }
        let envelope = PlanFile {
            schema_version: PLAN_SCHEMA_VERSION,
            plan: self.clone(),
        };
        let json = serde_json::to_string_pretty(&envelope)
            .map_err(|e| AegisError::serde("encoding defense plan", e))?;
        std::fs::write(path, json)
            .map_err(|e| AegisError::io(format!("writing plan {}", path.display()), e))
    }

    /// Reads a plan previously written with [`DefensePlan::save`].
    ///
    /// Both formats load: the current versioned envelope and the bare
    /// pre-versioning plan JSON (treated as schema version 0). Files
    /// stamped with a *future* schema version are refused rather than
    /// misread.
    ///
    /// # Errors
    ///
    /// Returns [`AegisError::Io`] if the file is unreadable and
    /// [`AegisError::Serde`] if its contents do not parse as a plan or
    /// were written by a newer format version.
    pub fn load(path: impl AsRef<Path>) -> Result<DefensePlan, AegisError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| AegisError::io(format!("reading plan {}", path.display()), e))?;
        let value: serde::Value = serde_json::from_str(&text)
            .map_err(|e| AegisError::serde(format!("decoding plan {}", path.display()), e))?;
        match value.get("schema_version") {
            // Unversioned legacy file: the plan object itself.
            None => Deserialize::from_value(&value)
                .map_err(|e| AegisError::serde(format!("decoding plan {}", path.display()), e)),
            Some(v) => {
                let version = v.as_u64().unwrap_or(u64::MAX);
                if version > u64::from(PLAN_SCHEMA_VERSION) {
                    return Err(AegisError::serde(
                        format!("decoding plan {}", path.display()),
                        format!(
                            "schema_version {version} is newer than this build's \
                             {PLAN_SCHEMA_VERSION}; refusing to misread it"
                        ),
                    ));
                }
                let envelope: PlanFile = Deserialize::from_value(&value).map_err(|e| {
                    AegisError::serde(format!("decoding plan {}", path.display()), e)
                })?;
                Ok(envelope.plan)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aegis_microarch::ActivityVector;

    fn tiny_plan() -> DefensePlan {
        DefensePlan {
            template_arch: MicroArch::AmdEpyc7252,
            vulnerable_events: vec![EventId(1), EventId(2)],
            rankings: vec![
                EventRanking {
                    event: EventId(2),
                    name: "B".into(),
                    mi_bits: 3.0,
                },
                EventRanking {
                    event: EventId(1),
                    name: "A".into(),
                    mi_bits: 1.0,
                },
            ],
            covering: vec![CoveringGadget {
                gadget: aegis_fuzzer::Gadget::new(aegis_isa::InstrId(0), aegis_isa::InstrId(1)),
                covers: vec![EventId(1), EventId(2)],
            }],
            stack: GadgetStack {
                gadgets: vec![aegis_fuzzer::Gadget::new(
                    aegis_isa::InstrId(0),
                    aegis_isa::InstrId(1),
                )],
                unit_activity: ActivityVector::ZERO,
                per_gadget: vec![ActivityVector::ZERO],
            },
            fuzz_report: FuzzReport::default(),
            gadget_stats: GadgetStats::from_events(&[]),
        }
    }

    #[test]
    fn accessors() {
        let plan = tiny_plan();
        assert_eq!(plan.covered_events(), 2);
        assert_eq!(plan.top_events(1), vec![EventId(2)]);
    }

    #[test]
    fn plan_roundtrips_through_serde() {
        let plan = tiny_plan();
        let json = serde_json::to_string(&plan).unwrap();
        let back: DefensePlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn save_and_load_roundtrip_with_typed_errors() {
        let dir = std::env::temp_dir().join(format!("aegis-plan-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("plan.json");
        let plan = tiny_plan();
        plan.save(&path).unwrap();
        assert_eq!(DefensePlan::load(&path).unwrap(), plan);

        // The on-disk form is the versioned envelope.
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("schema_version"), "{text}");

        // A missing file is an Io error; garbage is a Serde error.
        assert!(matches!(
            DefensePlan::load(dir.join("absent.json")),
            Err(AegisError::Io { .. })
        ));
        std::fs::write(&path, "{not json").unwrap();
        assert!(matches!(
            DefensePlan::load(&path),
            Err(AegisError::Serde { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unversioned_plan_files_still_load() {
        let dir = std::env::temp_dir().join(format!("aegis-plan-v0-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plan.json");
        let plan = tiny_plan();
        // The pre-versioning format: the bare plan object, no envelope.
        std::fs::write(&path, serde_json::to_string_pretty(&plan).unwrap()).unwrap();
        assert_eq!(DefensePlan::load(&path).unwrap(), plan);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn future_schema_versions_are_refused() {
        let dir = std::env::temp_dir().join(format!("aegis-plan-vN-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plan.json");
        let plan = tiny_plan();
        plan.save(&path).unwrap();
        let text = std::fs::read_to_string(&path)
            .unwrap()
            .replace("\"schema_version\": 1", "\"schema_version\": 99");
        std::fs::write(&path, text).unwrap();
        let err = DefensePlan::load(&path).unwrap_err();
        assert!(
            matches!(&err, AegisError::Serde { message, .. } if message.contains("newer")),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn plan_id_is_a_stack_fingerprint() {
        let plan = tiny_plan();
        assert_eq!(plan.plan_id(), aegis_par::fingerprint(&plan.stack));
        let mut other = plan.clone();
        other.stack.gadgets.clear();
        other.stack.per_gadget.clear();
        assert_ne!(plan.plan_id(), other.plan_id());
    }
}
