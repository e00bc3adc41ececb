//! The store manifest: an append-only journal of artifact lifecycle
//! operations (`manifest.jsonl` in the cache directory).
//!
//! Every `put` appends one JSON line; the line's position in the journal
//! is the artifact's **generation** (a monotone logical clock), so "the
//! oldest artifact" is well defined without trusting file mtimes, which
//! are not deterministic. `pin`/`unpin` lines maintain a reference
//! count; [`Manifest::gc`] evicts unpinned entries oldest-generation
//! first until the live set fits a size budget, deletes any file in the
//! directory the journal does not account for, and compacts the journal
//! atomically (tmp + rename).
//!
//! The journal **fails closed**: if any line fails to parse, the whole
//! manifest is poisoned — every lookup through it misses and the callers
//! recompute, because a journal we cannot trust might be hiding an
//! eviction or a superseded generation, and serving stale bytes is the
//! one failure the store must never have. A poisoned journal is repaired
//! only by `gc`, which wipes every artifact and restarts the journal
//! from scratch (matching the fail-closed supervision discipline used
//! across the workspace).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Journal file name inside the cache directory.
pub const MANIFEST_FILE: &str = "manifest.jsonl";

/// One journal line.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
enum Op {
    /// An artifact landed on disk under `file` (relative to the cache
    /// directory), `bytes` long.
    Put {
        kind: String,
        key: u64,
        file: String,
        bytes: u64,
    },
    /// The artifact gained a reference (never evictable while held).
    Pin { kind: String, key: u64 },
    /// The artifact dropped a reference.
    Unpin { kind: String, key: u64 },
    /// The artifact was evicted by `gc`.
    Evict { kind: String, key: u64 },
}

/// A live manifest entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Artifact file name, relative to the cache directory.
    pub file: String,
    /// Size recorded at put time.
    pub bytes: u64,
    /// Journal position of the most recent put (monotone age).
    pub generation: u64,
    /// Outstanding pins; `gc` never evicts while nonzero.
    pub pins: u64,
}

#[derive(Debug, Default)]
struct State {
    /// Live entries keyed by `(kind, key)`.
    entries: BTreeMap<(String, u64), Entry>,
    /// Next generation number (= journal line count).
    next_gen: u64,
    /// Set when any journal line failed to parse.
    poisoned: bool,
}

impl State {
    fn apply(&mut self, op: Op) {
        let gen = self.next_gen;
        self.next_gen += 1;
        match op {
            Op::Put {
                kind,
                key,
                file,
                bytes,
            } => {
                let slot = self.entries.entry((kind, key)).or_insert(Entry {
                    file: String::new(),
                    bytes: 0,
                    generation: gen,
                    pins: 0,
                });
                slot.file = file;
                slot.bytes = bytes;
                slot.generation = gen;
            }
            Op::Pin { kind, key } => {
                if let Some(e) = self.entries.get_mut(&(kind, key)) {
                    e.pins += 1;
                }
            }
            Op::Unpin { kind, key } => {
                if let Some(e) = self.entries.get_mut(&(kind, key)) {
                    e.pins = e.pins.saturating_sub(1);
                }
            }
            Op::Evict { kind, key } => {
                self.entries.remove(&(kind, key));
            }
        }
    }
}

/// Result of a [`Manifest::gc`] pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Bytes retained by live entries after the pass.
    pub live_bytes: u64,
    /// Entries evicted to meet the budget.
    pub evicted: usize,
    /// Bytes those evictions reclaimed.
    pub evicted_bytes: u64,
    /// Unaccounted files (not in the journal) deleted from the
    /// directory — stray temp files, artifacts from a wiped journal.
    pub orphans_removed: usize,
    /// Whether a poisoned journal was wiped and restarted.
    pub reset: bool,
}

/// Handle to a cache directory's journal. Cloning shares the loaded
/// state; independent handles (or processes) re-read the journal, whose
/// append-only single-`write` lines keep concurrent appends safe.
#[derive(Debug, Clone)]
pub struct Manifest {
    dir: PathBuf,
    state: Arc<Mutex<Option<State>>>,
}

impl Manifest {
    /// The manifest of the cache directory `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Manifest {
            dir: dir.into(),
            state: Arc::new(Mutex::new(None)),
        }
    }

    /// Path of the journal file.
    pub fn path(&self) -> PathBuf {
        self.dir.join(MANIFEST_FILE)
    }

    fn load(&self) -> State {
        let mut state = State::default();
        let Ok(text) = std::fs::read_to_string(self.path()) else {
            return state; // no journal yet: empty, healthy
        };
        for line in text.lines() {
            if line.is_empty() {
                continue;
            }
            match serde_json::from_str::<Op>(line) {
                Ok(op) => state.apply(op),
                Err(_) => {
                    // One bad line poisons everything after it *and*
                    // before it: we cannot know what the damaged region
                    // said, so no entry is trustworthy.
                    state.poisoned = true;
                    state.entries.clear();
                    return state;
                }
            }
        }
        state
    }

    fn with_state<R>(&self, f: impl FnOnce(&mut State) -> R) -> R {
        let mut guard = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let state = guard.get_or_insert_with(|| self.load());
        f(state)
    }

    /// Whether the journal failed to parse. A poisoned manifest serves
    /// no entries: lookups must miss and recompute.
    pub fn is_poisoned(&self) -> bool {
        self.with_state(|s| s.poisoned)
    }

    /// The current generation counter (number of journal operations).
    pub fn generation(&self) -> u64 {
        self.with_state(|s| s.next_gen)
    }

    /// The live entry for `(kind, key)`, if the journal has one.
    pub fn entry(&self, kind: &str, key: u64) -> Option<Entry> {
        self.with_state(|s| s.entries.get(&(kind.to_string(), key)).cloned())
    }

    /// Total bytes of all live entries.
    pub fn live_bytes(&self) -> u64 {
        self.with_state(|s| s.entries.values().map(|e| e.bytes).sum())
    }

    fn append(&self, op: Op) -> io::Result<()> {
        // Load state *before* the file write: on first touch, loading
        // afterwards would replay the line just appended and then apply
        // the op a second time.
        let mut guard = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let state = guard.get_or_insert_with(|| self.load());
        std::fs::create_dir_all(&self.dir)?;
        let mut line = serde_json::to_string(&op)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        line.push('\n');
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path())?;
        // One write call per line: O_APPEND keeps concurrent writers
        // from interleaving partial lines.
        file.write_all(line.as_bytes())?;
        state.apply(op);
        Ok(())
    }

    /// Records that an artifact landed on disk.
    ///
    /// # Errors
    ///
    /// Returns [`io::Error`] when the journal cannot be appended.
    pub fn record_put(&self, kind: &str, key: u64, file: &str, bytes: u64) -> io::Result<()> {
        self.append(Op::Put {
            kind: kind.to_string(),
            key,
            file: file.to_string(),
            bytes,
        })
    }

    /// Adds a reference to an artifact; while any reference is held,
    /// `gc` will not evict it regardless of budget pressure.
    ///
    /// # Errors
    ///
    /// Returns [`io::Error`] when the journal cannot be appended.
    pub fn pin(&self, kind: &str, key: u64) -> io::Result<()> {
        self.append(Op::Pin {
            kind: kind.to_string(),
            key,
        })
    }

    /// Drops a reference added by [`Manifest::pin`].
    ///
    /// # Errors
    ///
    /// Returns [`io::Error`] when the journal cannot be appended.
    pub fn unpin(&self, kind: &str, key: u64) -> io::Result<()> {
        self.append(Op::Unpin {
            kind: kind.to_string(),
            key,
        })
    }

    /// Runs a collection pass: evicts unpinned entries oldest-generation
    /// first until live bytes fit `budget_bytes`, removes files the
    /// journal does not account for, and compacts the journal. On a
    /// poisoned journal this deletes **every** artifact and restarts the
    /// journal empty — the only safe repair, since no entry can be
    /// trusted.
    ///
    /// # Errors
    ///
    /// Returns [`io::Error`] when files or the journal cannot be
    /// rewritten.
    pub fn gc(&self, budget_bytes: u64) -> io::Result<GcReport> {
        let mut report = GcReport::default();
        let poisoned = self.is_poisoned();
        if poisoned {
            report.reset = true;
        }

        let (mut live, next_gen) = self.with_state(|s| (s.entries.clone(), s.next_gen));
        if poisoned {
            live.clear();
        }

        // Budget pass: evict unpinned entries, oldest generation first.
        let mut total: u64 = live.values().map(|e| e.bytes).sum();
        let mut victims: Vec<(String, u64)> = Vec::new();
        if total > budget_bytes {
            let mut by_age: Vec<(&(String, u64), &Entry)> =
                live.iter().filter(|(_, e)| e.pins == 0).collect();
            by_age.sort_by_key(|(_, e)| e.generation);
            for (k, e) in by_age {
                if total <= budget_bytes {
                    break;
                }
                total -= e.bytes;
                report.evicted += 1;
                report.evicted_bytes += e.bytes;
                victims.push(k.clone());
            }
        }
        for k in &victims {
            if let Some(e) = live.remove(k) {
                let _ = std::fs::remove_file(self.dir.join(&e.file));
            }
        }

        // Orphan pass: every file in the directory must be either the
        // journal or a live entry; anything else is unaccounted-for and
        // goes (stray temp files, artifacts of a wiped journal).
        let keep: std::collections::BTreeSet<&str> =
            live.values().map(|e| e.file.as_str()).collect();
        if let Ok(dirents) = std::fs::read_dir(&self.dir) {
            for dirent in dirents.flatten() {
                let name = dirent.file_name();
                let Some(name) = name.to_str() else { continue };
                if name == MANIFEST_FILE || keep.contains(name) {
                    continue;
                }
                if std::fs::remove_file(dirent.path()).is_ok() {
                    report.orphans_removed += 1;
                }
            }
        }

        // Compact: rewrite the journal as the live set's put/pin lines,
        // atomically, and swap the in-memory state to match.
        let mut compacted = State::default();
        let mut text = String::new();
        let mut ordered: Vec<(&(String, u64), &Entry)> = live.iter().collect();
        ordered.sort_by_key(|(_, e)| e.generation);
        for ((kind, key), e) in ordered {
            let put = Op::Put {
                kind: kind.clone(),
                key: *key,
                file: e.file.clone(),
                bytes: e.bytes,
            };
            text.push_str(
                &serde_json::to_string(&put)
                    .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err.to_string()))?,
            );
            text.push('\n');
            compacted.apply(put);
            for _ in 0..e.pins {
                let pin = Op::Pin {
                    kind: kind.clone(),
                    key: *key,
                };
                text.push_str(
                    &serde_json::to_string(&pin).map_err(|err| {
                        io::Error::new(io::ErrorKind::InvalidData, err.to_string())
                    })?,
                );
                text.push('\n');
                compacted.apply(pin);
            }
        }
        // Preserve monotonicity across the compaction: generations never
        // move backwards, so "oldest" stays meaningful after gc.
        compacted.next_gen = compacted.next_gen.max(next_gen);
        std::fs::create_dir_all(&self.dir)?;
        let tmp = self
            .dir
            .join(format!(".{MANIFEST_FILE}.{}.tmp", std::process::id()));
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, self.path())?;

        report.live_bytes = compacted.entries.values().map(|e| e.bytes).sum();
        let mut guard = self.state.lock().unwrap_or_else(|e| e.into_inner());
        *guard = Some(compacted);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("aegis-par-manifest-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn put_file(dir: &Path, m: &Manifest, kind: &str, key: u64, bytes: usize) {
        std::fs::create_dir_all(dir).unwrap();
        let file = format!("{kind}-{key:016x}.acs");
        std::fs::write(dir.join(&file), vec![0u8; bytes]).unwrap();
        m.record_put(kind, key, &file, bytes as u64).unwrap();
    }

    #[test]
    fn generations_are_monotone_and_entries_live() {
        let dir = temp_dir("gen");
        let m = Manifest::new(&dir);
        assert_eq!(m.generation(), 0);
        put_file(&dir, &m, "a", 1, 10);
        put_file(&dir, &m, "b", 2, 20);
        assert_eq!(m.generation(), 2);
        let a = m.entry("a", 1).unwrap();
        let b = m.entry("b", 2).unwrap();
        assert!(a.generation < b.generation);
        assert_eq!(m.live_bytes(), 30);
        // A fresh handle reloads the same state from disk.
        let m2 = Manifest::new(&dir);
        assert_eq!(m2.generation(), 2);
        assert_eq!(m2.entry("a", 1), Some(a));
    }

    #[test]
    fn gc_evicts_oldest_unpinned_first() {
        let dir = temp_dir("gc-age");
        let m = Manifest::new(&dir);
        put_file(&dir, &m, "a", 1, 100);
        put_file(&dir, &m, "b", 2, 100);
        put_file(&dir, &m, "c", 3, 100);
        let report = m.gc(200).unwrap();
        assert_eq!(report.evicted, 1);
        assert!(m.entry("a", 1).is_none(), "oldest entry evicted");
        assert!(m.entry("b", 2).is_some());
        assert!(m.entry("c", 3).is_some());
        assert!(!dir.join("a-0000000000000001.acs").exists());
    }

    #[test]
    fn gc_never_evicts_pinned_entries() {
        let dir = temp_dir("gc-pin");
        let m = Manifest::new(&dir);
        put_file(&dir, &m, "a", 1, 100);
        put_file(&dir, &m, "b", 2, 100);
        m.pin("a", 1).unwrap();
        let report = m.gc(0).unwrap();
        assert!(m.entry("a", 1).is_some(), "pinned survives zero budget");
        assert!(m.entry("b", 2).is_none());
        assert_eq!(report.live_bytes, 100);
        // Unpinning makes it collectable again.
        m.unpin("a", 1).unwrap();
        m.gc(0).unwrap();
        assert!(m.entry("a", 1).is_none());
    }

    #[test]
    fn gc_removes_orphan_files() {
        let dir = temp_dir("gc-orphan");
        let m = Manifest::new(&dir);
        put_file(&dir, &m, "a", 1, 10);
        std::fs::write(dir.join("stray.acs"), b"junk").unwrap();
        std::fs::write(dir.join(".a-x.123.tmp"), b"junk").unwrap();
        let report = m.gc(u64::MAX).unwrap();
        assert_eq!(report.orphans_removed, 2);
        assert!(dir.join("a-0000000000000001.acs").exists());
        assert!(!dir.join("stray.acs").exists());
    }

    #[test]
    fn corrupt_journal_poisons_and_gc_resets() {
        let dir = temp_dir("poison");
        let m = Manifest::new(&dir);
        put_file(&dir, &m, "a", 1, 10);
        let mut text = std::fs::read_to_string(m.path()).unwrap();
        text.push_str("{definitely not an op\n");
        std::fs::write(m.path(), text).unwrap();

        let fresh = Manifest::new(&dir);
        assert!(fresh.is_poisoned());
        assert!(
            fresh.entry("a", 1).is_none(),
            "poisoned manifest serves nothing"
        );
        let report = fresh.gc(u64::MAX).unwrap();
        assert!(report.reset);
        assert!(!fresh.is_poisoned());
        assert!(
            !dir.join("a-0000000000000001.acs").exists(),
            "reset wipes all artifacts"
        );
        assert_eq!(fresh.live_bytes(), 0);
    }

    #[test]
    fn compaction_preserves_pins_and_generation_order() {
        let dir = temp_dir("compact");
        let m = Manifest::new(&dir);
        put_file(&dir, &m, "a", 1, 10);
        put_file(&dir, &m, "b", 2, 10);
        m.pin("b", 2).unwrap();
        let gen_before = m.generation();
        m.gc(u64::MAX).unwrap();

        let fresh = Manifest::new(&dir);
        assert_eq!(fresh.entry("b", 2).unwrap().pins, 1);
        let a = fresh.entry("a", 1).unwrap();
        let b = fresh.entry("b", 2).unwrap();
        assert!(a.generation < b.generation);
        assert!(
            fresh.generation() >= gen_before,
            "generations never move backwards"
        );
    }
}
