//! Generic checkpoint-resume over any columnar payload.
//!
//! Every long chunked grid in the workspace — the fuzzer's recording
//! pass, the ε-sweep, the fleet sweep — persists `(completed, partial
//! results)` at chunk boundaries and resumes from the pair after a
//! kill. [`Checkpoint`] wraps any [`Columnar`] payload with a
//! `completed` counter, encoded as the payload's columns plus one
//! trailing `u64` bookkeeping column, so the checkpoint rides the same
//! torn-write-detected binary format as every other artifact.
//! [`run_checkpointed`] owns the whole resume policy — load, validate,
//! evaluate, persist, kill — so call sites supply only their key, chunk
//! length and per-chunk evaluation.

use super::columnar::{ColumnFrame, ColumnSchema, Columnar, FrameError, FrameReader};
use super::ArtifactKey;
use crate::ArtifactCache;
use aegis_faults::{self as faults, FaultPlan};
use aegis_obs as obs;

/// A resumable partial result: `payload` covers the first `completed`
/// work units of some deterministic unit list.
///
/// A checkpoint is valid only if the payload holds exactly `completed`
/// rows and `completed` does not exceed the current unit list;
/// [`run_checkpointed`] discards any other checkpoint as stale instead
/// of resuming it.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint<V> {
    /// Number of leading work units `payload` accounts for.
    pub completed: u64,
    /// The partial result.
    pub payload: V,
}

impl<V> Checkpoint<V> {
    /// A checkpoint of `payload` covering `completed` units.
    pub fn new(completed: u64, payload: V) -> Self {
        Checkpoint { completed, payload }
    }
}

/// The columnar image of a list of per-unit results: the payload
/// [`run_checkpointed`] persists.
pub trait RowLog: Columnar {
    /// The result of one work unit.
    type Row;

    /// The image of `rows`, in order.
    fn of(rows: &[Self::Row]) -> Self;

    /// The rows back, in order.
    fn into_rows(self) -> Vec<Self::Row>;
}

/// Evaluates `units` in order, `chunk_len` units per `eval` call, and
/// returns one row per unit — or the first error, in unit order.
///
/// Checkpointing is on only when `plan` is active and `units` is
/// non-empty. Then a stored [`Checkpoint`]`<L>` under `key` is resumed
/// if it is valid (its payload holds exactly `completed` rows and
/// `completed` does not exceed the unit count; anything else is stale
/// and recomputed), which counts `<site>.ckpt_resumed` and reports a
/// `resume` fault event. After each chunk whose every unit succeeded,
/// the rows so far are persisted; a chunk with an error is returned and
/// never persisted. `plan.kill_after = N` panics at the first chunk
/// boundary at or past `N` completed units, but only on a run that
/// started before that point, so the resumed run completes.
///
/// Without checkpointing the whole grid is one `eval` call. Rows must
/// be pure functions of their unit — never of the chunking — so a
/// resumed run is bit-identical to an uninterrupted one.
///
/// # Panics
///
/// At the injected kill point, and if `eval` returns a row count other
/// than its chunk's length.
pub fn run_checkpointed<L, U, E, F>(
    cache: &ArtifactCache,
    plan: &FaultPlan,
    key: &ArtifactKey,
    site: &str,
    units: &[U],
    chunk_len: usize,
    mut eval: F,
) -> Result<Vec<L::Row>, E>
where
    L: RowLog,
    F: FnMut(&[U]) -> Result<Vec<L::Row>, E>,
{
    let checkpointing = plan.is_active() && !units.is_empty();
    let mut rows = Vec::with_capacity(units.len());
    if checkpointing {
        if let Some(ck) = cache.get_col::<Checkpoint<L>>(key) {
            let resumed = ck.payload.into_rows();
            if resumed.len() as u64 == ck.completed && resumed.len() <= units.len() {
                rows = resumed;
                obs::counter_add(&format!("{site}.ckpt_resumed"), 1.0);
                faults::report(site, "resume", &[("completed", ck.completed)]);
            }
        }
    }
    let kill_at = plan.kill_after;
    let kill_armed = checkpointing && kill_at > 0 && (rows.len() as u64) < kill_at;
    let chunk_len = if checkpointing {
        chunk_len.max(1)
    } else {
        units.len().max(1)
    };
    for chunk in units[rows.len()..].chunks(chunk_len) {
        let chunk_rows = eval(chunk)?;
        assert_eq!(chunk_rows.len(), chunk.len(), "{site}: one row per unit");
        rows.extend(chunk_rows);
        if checkpointing {
            let done = rows.len() as u64;
            let _ = cache.put_col(key, &Checkpoint::new(done, L::of(&rows)));
            if kill_armed && done >= kill_at {
                faults::report(site, "kill", &[("completed", done)]);
                panic!("aegis-faults: injected {site} kill after {done} completed units");
            }
        }
    }
    Ok(rows)
}

impl<V: Columnar> Columnar for Checkpoint<V> {
    fn schema() -> ColumnSchema {
        let inner = V::schema();
        ColumnSchema::new(format!("aegis/checkpoint<{}>", inner.name), inner.version)
    }

    fn encode_columns(&self, frame: &mut ColumnFrame) {
        self.payload.encode_columns(frame);
        frame.push_u64(vec![self.completed]);
    }

    fn decode_columns(reader: &mut FrameReader) -> Result<Self, FrameError> {
        let payload = V::decode_columns(reader)?;
        let tail = reader.u64s()?;
        let [completed] = tail[..] else {
            return Err(FrameError::new("checkpoint counter column malformed"));
        };
        Ok(Checkpoint { completed, payload })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::columnar::{decode_frame, encode_frame};
    use proptest::prelude::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[derive(Debug, Clone, PartialEq)]
    struct Partial {
        acc: Vec<f64>,
        ids: Vec<u64>,
    }

    impl Columnar for Partial {
        fn schema() -> ColumnSchema {
            ColumnSchema::new("test/partial", 1)
        }
        fn encode_columns(&self, frame: &mut ColumnFrame) {
            frame.push_f64(self.acc.clone());
            frame.push_u64(self.ids.clone());
        }
        fn decode_columns(reader: &mut FrameReader) -> Result<Self, FrameError> {
            Ok(Partial {
                acc: reader.f64s()?,
                ids: reader.u64s()?,
            })
        }
    }

    #[test]
    fn checkpoint_roundtrips_payload_and_counter() {
        let ck = Checkpoint::new(
            3,
            Partial {
                acc: vec![0.5, 0.75, 0.25],
                ids: vec![10, 20, 30],
            },
        );
        let bytes = encode_frame(&Checkpoint::<Partial>::schema(), &ck.to_frame());
        let frame = decode_frame(&Checkpoint::<Partial>::schema(), &bytes).unwrap();
        let back = Checkpoint::<Partial>::from_frame(frame).unwrap();
        assert_eq!(back, ck);
    }

    #[test]
    fn checkpoint_schema_is_distinct_from_payload_schema() {
        let ck = Checkpoint::new(0, Partial { acc: vec![], ids: vec![] });
        let bytes = encode_frame(&Checkpoint::<Partial>::schema(), &ck.to_frame());
        assert!(
            decode_frame(&Partial::schema(), &bytes).is_err(),
            "a checkpoint must not decode as a bare payload"
        );
    }

    #[test]
    fn malformed_counter_column_is_an_error() {
        let mut frame = ColumnFrame::new();
        Partial { acc: vec![], ids: vec![] }.encode_columns(&mut frame);
        frame.push_u64(vec![1, 2]); // two counters: nonsense
        assert!(Checkpoint::<Partial>::from_frame(frame).is_err());
    }

    impl RowLog for Partial {
        type Row = (f64, u64);

        fn of(rows: &[(f64, u64)]) -> Self {
            let (acc, ids) = rows.iter().copied().unzip();
            Partial { acc, ids }
        }

        fn into_rows(self) -> Vec<(f64, u64)> {
            self.acc.into_iter().zip(self.ids).collect()
        }
    }

    /// A unit's row: a pure function of the unit alone.
    fn row(unit: u64) -> (f64, u64) {
        (unit as f64 * 0.5, unit * 3 + 1)
    }

    /// An active plan that never kills (`kill_after` zero).
    fn active() -> FaultPlan {
        FaultPlan {
            seed: 1,
            tick_jitter: 0.5,
            ..FaultPlan::none()
        }
    }

    fn key() -> ArtifactKey {
        ArtifactKey::raw("test-ckpt", 7)
    }

    /// A fresh, empty cache directory unique to this process and call.
    fn scratch_dir() -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "aegis-par-ckpt-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Runs the grid `0..n` through the combinator, counting the units
    /// `eval` is handed.
    fn run(
        cache: &ArtifactCache,
        plan: &FaultPlan,
        n: u64,
        chunk_len: usize,
        evaluated: &mut usize,
    ) -> Vec<(f64, u64)> {
        let units: Vec<u64> = (0..n).collect();
        run_checkpointed::<Partial, _, (), _>(cache, plan, &key(), "test", &units, chunk_len, |c| {
            *evaluated += c.len();
            Ok(c.iter().map(|&u| row(u)).collect())
        })
        .unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn killed_then_resumed_run_matches_an_unkilled_one(
            n in 1u64..40,
            chunk_len in 1usize..9,
            kill_after in 1u64..48,
        ) {
            let dir_ref = scratch_dir();
            let reference = run(
                &ArtifactCache::with_faults(&dir_ref, FaultPlan::none()),
                &active(),
                n,
                chunk_len,
                &mut 0,
            );
            prop_assert_eq!(reference.clone(), (0..n).map(row).collect::<Vec<_>>());

            let plan = FaultPlan { kill_after, ..active() };
            let dir = scratch_dir();
            let cache = ArtifactCache::with_faults(&dir, FaultPlan::none());
            let killed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run(&cache, &plan, n, chunk_len, &mut 0)
            }));
            prop_assert_eq!(killed.is_err(), kill_after <= n, "kill fires iff reached");
            let persisted = cache
                .get_col::<Checkpoint<Partial>>(&key())
                .map_or(0, |ck| ck.completed as usize);
            let mut evaluated = 0;
            let resumed = run(&cache, &plan, n, chunk_len, &mut evaluated);
            prop_assert_eq!(resumed, reference);
            if killed.is_err() {
                prop_assert!(persisted as u64 >= kill_after);
                prop_assert_eq!(evaluated, n as usize - persisted, "resume skips the prefix");
            }
            let _ = std::fs::remove_dir_all(&dir_ref);
            let _ = std::fs::remove_dir_all(&dir);
        }

        #[test]
        fn stale_checkpoints_are_discarded_and_recomputed(
            n in 1u64..40,
            chunk_len in 1usize..9,
            rows in 0u64..48,
            counter_lies in 0u64..2,
        ) {
            // Either the counter disagrees with the payload, or a
            // self-consistent payload covers more units than the grid has.
            let (completed, rows) = if counter_lies == 1 {
                (rows + 1, rows)
            } else {
                (n + 1 + rows, n + 1 + rows)
            };
            let dir = scratch_dir();
            let cache = ArtifactCache::with_faults(&dir, FaultPlan::none());
            let stale = Partial::of(&(0..rows).map(|u| (-1.0, u)).collect::<Vec<_>>());
            cache.put_col(&key(), &Checkpoint::new(completed, stale)).unwrap();
            let mut evaluated = 0;
            let out = run(&cache, &active(), n, chunk_len, &mut evaluated);
            prop_assert_eq!(out, (0..n).map(row).collect::<Vec<_>>());
            prop_assert_eq!(evaluated, n as usize, "a stale checkpoint resumes nothing");
            let _ = std::fs::remove_dir_all(&dir);
        }

        #[test]
        fn a_failed_chunk_is_returned_and_never_persisted(
            n in 1u64..40,
            chunk_len in 1usize..9,
            bad in 0u64..40,
        ) {
            let bad = bad % n;
            let dir = scratch_dir();
            let cache = ArtifactCache::with_faults(&dir, FaultPlan::none());
            let units: Vec<u64> = (0..n).collect();
            let out = run_checkpointed::<Partial, _, u64, _>(
                &cache, &active(), &key(), "test", &units, chunk_len,
                |c| c.iter().map(|&u| if u == bad { Err(u) } else { Ok(row(u)) }).collect(),
            );
            prop_assert_eq!(out, Err(bad));
            let clean_chunks = bad as usize / chunk_len;
            let persisted = cache.get_col::<Checkpoint<Partial>>(&key());
            if clean_chunks == 0 {
                prop_assert!(persisted.is_none(), "the failing first chunk is not persisted");
            } else {
                let ck = persisted.expect("clean chunks before the failure persist");
                prop_assert_eq!(ck.completed as usize, clean_chunks * chunk_len);
                prop_assert_eq!(
                    ck.payload.into_rows(),
                    (0..(clean_chunks * chunk_len) as u64).map(row).collect::<Vec<_>>()
                );
            }
            let _ = std::fs::remove_dir_all(&dir);
        }

        #[test]
        fn an_inert_plan_never_writes_a_checkpoint(
            n in 0u64..40,
            chunk_len in 1usize..9,
        ) {
            let dir = scratch_dir();
            let cache = ArtifactCache::with_faults(&dir, FaultPlan::none());
            let units: Vec<u64> = (0..n).collect();
            let mut calls = 0;
            let out = run_checkpointed::<Partial, _, (), _>(
                &cache, &FaultPlan::none(), &key(), "test", &units, chunk_len,
                |c| {
                    calls += 1;
                    Ok(c.iter().map(|&u| row(u)).collect())
                },
            )
            .unwrap();
            prop_assert_eq!(out, (0..n).map(row).collect::<Vec<_>>());
            prop_assert_eq!(calls, usize::from(n > 0), "the whole grid is one chunk");
            prop_assert!(!dir.exists(), "nothing was written");
        }
    }
}
