//! Guarded writes for the committed `BENCH_*.json` baselines.
//!
//! The wall-clock, all-port and scheduler experiments emit JSON
//! artifacts that are committed as regression baselines. Two accidents
//! can silently destroy a good baseline: a `--smoke` CI run replacing a
//! full-sized one, and a re-run replacing an artifact that was already
//! regenerated after the current binary was built. [`guarded_write`]
//! refuses both unless the caller passes `--force`.

use std::path::Path;
use std::time::SystemTime;

use serde::Serialize;

/// Envelope every guarded artifact is wrapped in: the guard needs to
/// know whether an existing file came from a full or a smoke run.
#[derive(Debug, Clone, Serialize)]
pub struct Baseline<'a, T: Serialize> {
    /// Whether the run used CI-sized inputs.
    pub smoke: bool,
    /// The measurement rows.
    pub entries: &'a [T],
}

/// What a guarded write did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOutcome {
    /// The artifact was (over)written.
    Written,
    /// A full-sized baseline exists and this is a smoke run — kept.
    KeptFullBaseline,
    /// The existing artifact is newer than the running binary (already
    /// regenerated since the last build) — kept.
    KeptNewer,
    /// The write failed; the error was reported on stderr.
    IoError,
}

impl WriteOutcome {
    /// One-line description for table notes.
    #[must_use]
    pub fn describe(self, path: &str) -> String {
        match self {
            WriteOutcome::Written => format!("wrote {path}"),
            WriteOutcome::KeptFullBaseline => {
                format!("kept {path}: full baseline present, smoke run refuses to replace it (--force overrides)")
            }
            WriteOutcome::KeptNewer => {
                format!("kept {path}: artifact is newer than this binary (--force overrides)")
            }
            WriteOutcome::IoError => format!("could not write {path} (see stderr)"),
        }
    }
}

/// Write `entries` to `path` wrapped in a [`Baseline`] envelope, unless
/// the existing artifact should be protected:
///
/// * an existing **full** baseline is never replaced by a `smoke` run;
/// * an existing artifact with a modification time **newer** than the
///   running binary was regenerated after the last build and is never
///   silently replaced.
///
/// `force` overrides both guards. Legacy artifacts without the envelope
/// (a bare JSON array) are treated as full baselines.
pub fn guarded_write<T: Serialize>(
    path: &str,
    entries: &[T],
    smoke: bool,
    force: bool,
) -> WriteOutcome {
    if !force {
        if let Some(outcome) = protect_existing(path, smoke) {
            return outcome;
        }
    }
    let wrapped = Baseline { smoke, entries };
    let json = serde_json::to_string_pretty(&wrapped).expect("serialisable baseline entries");
    match std::fs::write(path, json) {
        Ok(()) => WriteOutcome::Written,
        Err(e) => {
            eprintln!("warning: cannot write {path}: {e}");
            WriteOutcome::IoError
        }
    }
}

/// `Some(outcome)` when the existing artifact at `path` must be kept.
fn protect_existing(path: &str, smoke: bool) -> Option<WriteOutcome> {
    let meta = std::fs::metadata(path).ok()?;
    if smoke && existing_is_full(path) {
        return Some(WriteOutcome::KeptFullBaseline);
    }
    let artifact_mtime = meta.modified().ok()?;
    if artifact_mtime > binary_mtime()? {
        return Some(WriteOutcome::KeptNewer);
    }
    None
}

/// Whether the artifact at `path` records a full (non-smoke) run. The
/// vendored `serde_json` stand-in cannot parse, so this is a textual
/// check for the envelope's `"smoke": true` marker; files that predate
/// the envelope (or are unreadable) count as full — the safe default is
/// to protect them.
fn existing_is_full(path: &str) -> bool {
    let Ok(text) = std::fs::read_to_string(path) else {
        return true;
    };
    !text.contains("\"smoke\": true")
}

/// Modification time of the running binary — the "was this artifact
/// produced after the last build" reference point.
fn binary_mtime() -> Option<SystemTime> {
    let exe = std::env::current_exe().ok()?;
    Path::new(&exe).metadata().ok()?.modified().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        let mut p = std::env::temp_dir();
        p.push(format!("vmp-baseline-{}-{name}", std::process::id()));
        p.to_string_lossy().into_owned()
    }

    #[test]
    fn fresh_path_is_written_with_envelope() {
        let path = tmp("fresh.json");
        let _ = std::fs::remove_file(&path);
        assert_eq!(guarded_write(&path, &[1u32, 2, 3], true, false), WriteOutcome::Written);
        let text = std::fs::read_to_string(&path).expect("written");
        assert!(text.contains("\"smoke\": true"), "{text}");
        assert!(text.contains("\"entries\": ["), "{text}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn smoke_never_replaces_full_baseline_without_force() {
        let path = tmp("full.json");
        let _ = std::fs::remove_file(&path);
        assert_eq!(guarded_write(&path, &[10u32], false, false), WriteOutcome::Written);
        assert_eq!(
            guarded_write(&path, &[99u32], true, false),
            WriteOutcome::KeptFullBaseline,
            "smoke run must keep the full baseline"
        );
        let text = std::fs::read_to_string(&path).expect("kept");
        assert!(text.contains("10") && !text.contains("99"));
        assert_eq!(guarded_write(&path, &[99u32], true, true), WriteOutcome::Written);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn artifact_newer_than_binary_is_kept_without_force() {
        // Anything this test writes is newer than the test binary, so a
        // second same-mode write must refuse without --force.
        let path = tmp("newer.json");
        let _ = std::fs::remove_file(&path);
        assert_eq!(guarded_write(&path, &[1u32], true, false), WriteOutcome::Written);
        assert_eq!(guarded_write(&path, &[2u32], true, false), WriteOutcome::KeptNewer);
        assert_eq!(guarded_write(&path, &[2u32], true, true), WriteOutcome::Written);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn legacy_bare_array_counts_as_full() {
        let path = tmp("legacy.json");
        std::fs::write(&path, "[{\"bench\": \"x\"}]").expect("seeded");
        assert_eq!(guarded_write(&path, &[1u32], true, false), WriteOutcome::KeptFullBaseline);
        let _ = std::fs::remove_file(&path);
    }
}
