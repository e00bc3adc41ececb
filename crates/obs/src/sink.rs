//! The JSONL event sink: append-only run logs under `results/obs/`.

use crate::{level, ObsLevel};
use serde_json::Value;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

struct Sink {
    file: File,
    path: PathBuf,
    opened: Instant,
    seq: u64,
}

static SINK: Mutex<Option<Sink>> = Mutex::new(None);

/// The run-log directory: `AEGIS_OBS_DIR`, or `results/obs`.
fn sink_dir() -> PathBuf {
    std::env::var_os("AEGIS_OBS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results").join("obs"))
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
    let dir = sink_dir();
    std::fs::create_dir_all(&dir).ok()?;
    let path = dir.join(format!("run-{}.jsonl", run_id()));
    let file = OpenOptions::new().create(true).append(true).open(&path).ok()?;
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
