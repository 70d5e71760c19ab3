//! Crash checkpoint/resume for the supervised island search.
//!
//! At every migration epoch the island driver snapshots the *complete*
//! search state — per-island RNG words, populations, scores, watchdog
//! counters, quarantine status, carried degradations, and the projection
//! cache counters — and commits it with the sf-cache atomic protocol
//! (temp file + fsync + rename, [`sf_cache::atomic_write`]). The payload
//! rides inside the cache entry format ([`sf_cache::encode`]), so a torn
//! or corrupted checkpoint is *detected* at load (checksum + version
//! first) and classified, never trusted.
//!
//! Because the snapshot captures every bit of state the epoch loop reads,
//! a search resumed from the epoch-`e` checkpoint replays the exact
//! trajectory of the uninterrupted run from epoch `e+1` on — the final
//! plan is byte-identical, which `tests/island_search.rs` pins by killing
//! a run at every epoch and diffing the emitted plans.
//!
//! A checkpoint is bound to its run by a fingerprint over the search
//! configuration and the search space; resuming against a different
//! program, device, or configuration is rejected (and the caller starts
//! fresh, reporting the degradation) rather than silently continuing an
//! unrelated search.

use crate::genome::Individual;
use crate::gga::StopReason;
use crate::islands::SearchDegradation;
use serde::{Deserialize, Serialize};
use sf_cache::{atomic_write, decode, encode, CacheError, CacheKey};
use std::path::Path;

/// Checkpoint payload schema version; bumped on incompatible layout
/// changes so an old-format checkpoint is rejected, not misread.
/// Version 2 stores genomes densely (a group id per unit id plus a fission
/// bitset) instead of as a fission set and a unit-to-group map.
pub const CHECKPOINT_VERSION: u32 = 2;

/// Serialized state of one island.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[allow(missing_docs)] // mirrors the live island state field for field
pub struct IslandSnapshot {
    pub index: usize,
    pub alive: bool,
    /// Raw xoshiro256** words of the island's RNG stream.
    pub rng_state: Vec<u64>,
    pub population: Vec<Individual>,
    pub scores: Vec<f64>,
    /// Island-local evaluation count (the watchdog charges each island
    /// only for its own work).
    pub evaluations: u64,
    pub eval_budget: u64,
    pub wall_spent_ms: u64,
    pub poisoned: u64,
    pub generations_run: usize,
    pub history: Vec<f64>,
    pub fission_moves: u64,
    pub retained_fissions: u64,
    pub stagnant: usize,
    pub stop: Option<StopReason>,
    pub elite_scores: Vec<f64>,
    pub elites: Vec<Individual>,
}

/// The complete search state written at a migration epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointState {
    /// Payload schema version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Binds the checkpoint to (config, search space); a resume against
    /// anything else is rejected.
    pub fingerprint: String,
    /// The migration epoch *after* which this snapshot was taken; a
    /// resumed run continues at `epoch + 1`.
    pub epoch: usize,
    /// Projection-cache counters accumulated before the snapshot, carried
    /// so a resumed run's stage report reflects the whole search.
    pub prior_hits: u64,
    /// See `prior_hits`.
    pub prior_misses: u64,
    /// Degradations recorded before the snapshot (quarantined islands),
    /// carried so a resumed run still reports them.
    pub degradations: Vec<SearchDegradation>,
    /// Every island's state, in island order.
    pub islands: Vec<IslandSnapshot>,
}

/// Outcome of [`load_checkpoint`].
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointLoad {
    /// No checkpoint file at the path — start fresh, nothing to report.
    Missing,
    /// A valid, matching checkpoint: resume from it.
    Resumed(Box<CheckpointState>),
    /// A checkpoint exists but cannot be trusted (torn, corrupt, version
    /// skew, or written by a different run). Start fresh and report why.
    Rejected(String),
}

fn checkpoint_key(fingerprint: &str) -> CacheKey {
    CacheKey::derive(fingerprint, "search-checkpoint", "ckpt-v1")
}

/// Atomically commit `state` to `path`. `torn` injects a torn write (the
/// payload is truncated before the — still atomic — commit), modelling a
/// crash that the checksum must catch at the next load.
pub fn save_checkpoint(
    path: &Path,
    state: &CheckpointState,
    torn: bool,
) -> Result<(), CacheError> {
    let payload = serde_json::to_string(state)
        .map_err(|e| CacheError::new(sf_cache::CacheErrorKind::Io, format!("encoding checkpoint: {e}")))?;
    let mut bytes = encode(&checkpoint_key(&state.fingerprint), &payload);
    if torn {
        // A torn write loses the file's tail; keep the header so the
        // damage is classified as Torn, not as a missing file.
        bytes.truncate(bytes.len() - bytes.len() / 3);
    }
    let tmp = path.with_extension("ckpt.tmp");
    atomic_write(&tmp, path, &bytes)
}

/// Load and verify the checkpoint at `path` for the run identified by
/// `fingerprint`. Never panics and never returns corrupt state: any
/// verification failure is a [`CheckpointLoad::Rejected`].
pub fn load_checkpoint(path: &Path, fingerprint: &str) -> CheckpointLoad {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return CheckpointLoad::Missing,
        Err(e) => return CheckpointLoad::Rejected(format!("unreadable checkpoint: {e}")),
    };
    // The entry envelope checks version first, then the payload checksum,
    // then the key — so skew, tearing, and a checkpoint from a different
    // (config, space) are each named precisely.
    let entry = match decode(&bytes, Some(&checkpoint_key(fingerprint))) {
        Ok(entry) => entry,
        Err(reason) => return CheckpointLoad::Rejected(reason.to_string()),
    };
    // The version is read first: an older layout would not parse as this
    // one, and skew should be reported as skew.
    #[derive(Deserialize)]
    struct Version {
        version: u32,
    }
    match serde_json::from_str::<Version>(&entry.payload) {
        Ok(Version { version }) if version != CHECKPOINT_VERSION => {
            return CheckpointLoad::Rejected(format!(
                "checkpoint schema version {version} (this build speaks {CHECKPOINT_VERSION})"
            ))
        }
        _ => {}
    }
    let state: CheckpointState = match serde_json::from_str(&entry.payload) {
        Ok(s) => s,
        Err(e) => return CheckpointLoad::Rejected(format!("checkpoint payload does not parse: {e}")),
    };
    if state.fingerprint != fingerprint {
        return CheckpointLoad::Rejected(
            "checkpoint belongs to a different search configuration".into(),
        );
    }
    CheckpointLoad::Resumed(Box::new(state))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::tests::{space_for, SRC};
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sf-search-ckpt-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample() -> CheckpointState {
        // A fissioned launch whose first product shares a group with the
        // other launch.
        let space = space_for(SRC);
        let mut ind = Individual::singletons(&space);
        ind.fission(&space, 0);
        let product = space.units[0].products[0];
        ind.set_group(1, ind.group(product).unwrap());
        assert_eq!(ind.fission_count(), 1);
        CheckpointState {
            version: CHECKPOINT_VERSION,
            fingerprint: "fp".into(),
            epoch: 2,
            prior_hits: 10,
            prior_misses: 3,
            degradations: vec![SearchDegradation {
                scope: "island 1".into(),
                action: "quarantined island; retained last-good elites".into(),
                reason: "panicked: injected".into(),
            }],
            islands: vec![IslandSnapshot {
                index: 0,
                alive: true,
                rng_state: vec![1, 2, 3, 4],
                population: vec![ind.clone()],
                scores: vec![1.25],
                evaluations: 7,
                eval_budget: 100,
                wall_spent_ms: 0,
                poisoned: 0,
                generations_run: 16,
                history: vec![1.0, 1.25],
                fission_moves: 1,
                retained_fissions: 2,
                stagnant: 1,
                stop: Some(StopReason::Plateaued),
                elite_scores: vec![1.25],
                elites: vec![ind],
            }],
        }
    }

    #[test]
    fn save_load_round_trip_is_lossless() {
        let dir = scratch("roundtrip");
        let path = dir.join("search.ckpt");
        let state = sample();
        save_checkpoint(&path, &state, false).unwrap();
        match load_checkpoint(&path, "fp") {
            CheckpointLoad::Resumed(back) => assert_eq!(*back, state),
            other => panic!("expected resume, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_missing_not_an_error() {
        let dir = scratch("missing");
        assert_eq!(
            load_checkpoint(&dir.join("none.ckpt"), "fp"),
            CheckpointLoad::Missing
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_checkpoint_is_rejected_with_a_reason() {
        let dir = scratch("torn");
        let path = dir.join("search.ckpt");
        save_checkpoint(&path, &sample(), true).unwrap();
        match load_checkpoint(&path, "fp") {
            CheckpointLoad::Rejected(reason) => {
                assert!(reason.contains("torn"), "{reason}")
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_fingerprint_is_rejected() {
        let dir = scratch("foreign");
        let path = dir.join("search.ckpt");
        save_checkpoint(&path, &sample(), false).unwrap();
        match load_checkpoint(&path, "other-run") {
            CheckpointLoad::Rejected(reason) => {
                assert!(reason.contains("key"), "{reason}")
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_anywhere_never_resumes() {
        let dir = scratch("cuts");
        let path = dir.join("search.ckpt");
        save_checkpoint(&path, &sample(), false).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for cut in (0..bytes.len()).step_by(17) {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            match load_checkpoint(&path, "fp") {
                CheckpointLoad::Rejected(_) => {}
                other => panic!("cut at {cut}: expected rejection, got {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_version_one_checkpoint_is_rejected_as_skew() {
        // The layout before dense genomes: a fission set and a
        // unit-to-group map per individual.
        let dir = scratch("v1");
        let path = dir.join("search.ckpt");
        let v1 = r#"{"version":1,"fingerprint":"fp","epoch":0,"prior_hits":0,"prior_misses":0,"degradations":[],"islands":[{"index":0,"alive":true,"rng_state":[1,2,3,4],"population":[{"fissioned":[3],"group_of":{"0":0,"1":0}}],"scores":[1.0],"evaluations":1,"eval_budget":0,"wall_spent_ms":0,"poisoned":0,"generations_run":1,"history":[1.0],"fission_moves":0,"retained_fissions":0,"stagnant":0,"stop":null,"elite_scores":[],"elites":[]}]}"#;
        atomic_write(
            &path.with_extension("ckpt.tmp"),
            &path,
            &encode(&checkpoint_key("fp"), v1),
        )
        .unwrap();
        match load_checkpoint(&path, "fp") {
            CheckpointLoad::Rejected(reason) => {
                assert!(reason.contains("schema version 1"), "{reason}")
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
