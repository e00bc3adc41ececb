//! The JSONL event sink: append-only run logs under `results/obs/`.

use crate::{level, ObsLevel};
use serde_json::Value;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

struct Sink {
    file: File,
    path: PathBuf,
    opened: Instant,
    seq: u64,
}

static SINK: Mutex<Option<Sink>> = Mutex::new(None);

/// The topmost ancestor of `start` that contains a `Cargo.toml` — the
/// workspace root when run from anywhere inside the workspace (a crate
/// directory's own `Cargo.toml` is shadowed by the workspace's). Falls
/// back to `start` itself outside any Cargo project.
pub fn workspace_root_from(start: &Path) -> PathBuf {
    let mut root = None;
    for dir in start.ancestors() {
        if dir.join("Cargo.toml").is_file() {
            root = Some(dir);
        }
    }
    root.unwrap_or(start).to_path_buf()
}

/// The run-log directory: `AEGIS_OBS_DIR`, or `results/obs` under the
/// workspace root of `cwd`, where the artifact cache anchors too — a
/// per-crate test run (cwd = the crate directory) logs to the same
/// place as a run from the root.
fn sink_dir(cwd: &Path) -> PathBuf {
    std::env::var_os("AEGIS_OBS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| workspace_root_from(cwd).join("results").join("obs"))
}

/// The run id: `AEGIS_OBS_RUN_ID`, or `<unix-seconds>-<pid>`.
fn run_id() -> String {
    if let Ok(id) = std::env::var("AEGIS_OBS_RUN_ID") {
        if !id.trim().is_empty() {
            return id.trim().to_string();
        }
    }
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    format!("{secs}-{}", std::process::id())
}

fn open_sink() -> Option<Sink> {
    let dir = sink_dir(&std::env::current_dir().unwrap_or_default());
    std::fs::create_dir_all(&dir).ok()?;
    let path = dir.join(format!("run-{}.jsonl", run_id()));
    let file = OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .ok()?;
    Some(Sink {
        file,
        path,
        opened: Instant::now(),
        seq: 0,
    })
}

/// The path of the currently open run log, if any.
pub fn current_run_log() -> Option<PathBuf> {
    SINK.lock()
        .expect("obs sink poisoned")
        .as_ref()
        .map(|s| s.path.clone())
}

/// Flushes the run log to disk (events are written line-buffered; the OS
/// may still hold them).
pub fn flush() {
    if let Some(sink) = SINK.lock().expect("obs sink poisoned").as_mut() {
        let _ = sink.file.flush();
    }
}

/// Closes the current run log; the next event opens a fresh one.
pub(crate) fn close() {
    *SINK.lock().expect("obs sink poisoned") = None;
}

/// Emits a generic event (`kind: "event"`) with string fields. No-op
/// below [`ObsLevel::Full`]. I/O failures are swallowed: observability
/// must never abort a run.
pub fn event(name: &str, fields: &[(&str, &str)]) {
    let values: Vec<(&str, Value)> = fields
        .iter()
        .map(|&(k, v)| (k, Value::String(v.to_string())))
        .collect();
    event_with("event", name, &values);
}

/// Emits an event of an explicit kind with arbitrary JSON fields. Every
/// line carries `seq` (per-run sequence number), `ts_ns` (monotonic
/// nanoseconds since the log opened), `kind`, and `name`; the caller's
/// fields follow. The whole line is written with a single `write_all`
/// under the sink lock, so concurrent workers never interleave bytes.
pub fn event_with(kind: &str, name: &str, fields: &[(&str, Value)]) {
    if level() != ObsLevel::Full {
        return;
    }
    let mut guard = SINK.lock().expect("obs sink poisoned");
    if guard.is_none() {
        *guard = open_sink();
    }
    let Some(sink) = guard.as_mut() else {
        return; // sink dir not writable: drop the event, never panic
    };
    let mut obj = serde_json::Map::new();
    obj.insert("seq".to_string(), Value::from(sink.seq));
    obj.insert(
        "ts_ns".to_string(),
        Value::from(sink.opened.elapsed().as_nanos() as u64),
    );
    obj.insert("kind".to_string(), Value::String(kind.to_string()));
    obj.insert("name".to_string(), Value::String(name.to_string()));
    for (k, v) in fields {
        obj.insert((*k).to_string(), v.clone());
    }
    let Ok(mut line) = serde_json::to_string(&Value::Object(obj)) else {
        return;
    };
    line.push('\n');
    if sink.file.write_all(line.as_bytes()).is_ok() {
        sink.seq += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set_level;

    /// Sink tests mutate process-global state (env, level, the sink);
    /// serialize them with the crate-wide test lock.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        crate::tests::test_guard()
    }

    #[test]
    fn events_land_as_one_json_object_per_line() {
        let _guard = guard();
        let dir = std::env::temp_dir().join(format!("aegis-obs-sink-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("AEGIS_OBS_DIR", &dir);
        std::env::set_var("AEGIS_OBS_RUN_ID", "sinktest");
        set_level(Some(crate::ObsLevel::Full));
        close();

        event("cache.miss", &[("cache_kind", "cleanup")]);
        event_with("span", "fuzz.generate", &[("wall_ns", Value::from(125u64))]);
        let path = current_run_log().expect("sink opened");
        flush();

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for (i, line) in lines.iter().enumerate() {
            let v: Value = serde_json::from_str(line).expect("valid JSON line");
            assert_eq!(v.get("seq").and_then(Value::as_u64), Some(i as u64));
            assert!(v.get("ts_ns").and_then(Value::as_u64).is_some());
            assert!(v.get("kind").and_then(Value::as_str).is_some());
            assert!(v.get("name").and_then(Value::as_str).is_some());
        }
        assert_eq!(
            serde_json::from_str::<Value>(lines[0])
                .unwrap()
                .get("cache_kind")
                .and_then(Value::as_str),
            Some("cleanup")
        );

        set_level(None);
        close();
        std::env::remove_var("AEGIS_OBS_DIR");
        std::env::remove_var("AEGIS_OBS_RUN_ID");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn workspace_root_is_the_topmost_cargo_ancestor() {
        let base = std::env::temp_dir().join(format!("aegis-obs-root-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let ws = base.join("ws");
        let krate = ws.join("crates").join("leaf");
        std::fs::create_dir_all(&krate).unwrap();
        std::fs::write(ws.join("Cargo.toml"), "[workspace]\n").unwrap();
        std::fs::write(krate.join("Cargo.toml"), "[package]\n").unwrap();

        assert_eq!(workspace_root_from(&krate), ws);
        assert_eq!(workspace_root_from(&ws), ws);
        // Outside any Cargo project the start directory is its own root.
        assert_eq!(workspace_root_from(&base), base);
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn default_log_dir_anchors_on_the_workspace_root() {
        let _guard = guard();
        std::env::remove_var("AEGIS_OBS_DIR");
        // This crate sits at `<workspace root>/crates/obs`.
        let krate = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = krate.parent().and_then(Path::parent).unwrap();
        assert!(root.join("Cargo.toml").is_file());
        let logs = root.join("results").join("obs");
        assert_eq!(sink_dir(krate), logs);
        assert_eq!(sink_dir(root), logs);
        std::env::set_var("AEGIS_OBS_DIR", "/tmp/aegis-obs-override");
        assert_eq!(sink_dir(krate), PathBuf::from("/tmp/aegis-obs-override"));
        std::env::remove_var("AEGIS_OBS_DIR");
    }

    #[test]
    fn below_full_no_log_is_written() {
        let _guard = guard();
        let dir = std::env::temp_dir().join(format!("aegis-obs-sink-off-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("AEGIS_OBS_DIR", &dir);
        set_level(Some(crate::ObsLevel::Summary));
        close();
        event("nothing", &[]);
        assert!(current_run_log().is_none());
        assert!(!dir.exists());
        set_level(None);
        std::env::remove_var("AEGIS_OBS_DIR");
    }
}
