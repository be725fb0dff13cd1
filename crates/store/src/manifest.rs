//! The store manifest: one small JSON file listing every sealed segment
//! with its footer metadata. The manifest is the store's source of truth —
//! a checkpoint references it instead of re-serializing collected data,
//! and a scan plans its work from it without opening a single segment.
//!
//! Since the crash-safety work the manifest also carries the *quarantine
//! list*: segments the doctor found damaged beyond provable repair, moved
//! out of `segments` (so no scan ever reads them) but kept on the books
//! with a reason code, so coverage accounting stays exact — a reader can
//! always say how many bundles are served and how many sit in quarantine.
//! Saves go through the durable write path (temp file + fsync + atomic
//! rename + directory fsync); a crash mid-save leaves either the old or
//! the new manifest, never a torn one.

use std::path::{Path, PathBuf};

use sandwich_attrib::ValidatorSpec;
use serde::{Deserialize, Serialize};

use crate::crash::{write_durable_with, CrashPlan};

/// Manifest-resident description of one sealed segment.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentMeta {
    /// File name inside the store directory (e.g. `seg-00003.seg`).
    pub file: String,
    /// Bundle records in the segment.
    pub bundles: u64,
    /// Detail records in the segment.
    pub details: u64,
    /// Poll records in the segment.
    pub polls: u64,
    /// Lowest bundle slot (`u64::MAX` when the segment has no bundles).
    pub min_slot: u64,
    /// Highest bundle slot (0 when the segment has no bundles).
    pub max_slot: u64,
    /// Total file size in bytes.
    pub bytes: u64,
    /// FNV-1a 64 body checksum, hex-encoded.
    pub checksum: String,
}

/// A segment the doctor removed from service: its last-known metadata
/// plus the reason code explaining why it cannot be served.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantinedSegment {
    /// The segment's manifest entry at the time it was quarantined.
    pub meta: SegmentMeta,
    /// Machine-readable reason code (see `docs/RELIABILITY.md`):
    /// `missing_file`, `bad_magic`, `body_corrupt`, `count_mismatch`,
    /// `manifest_mismatch`, `reencode_unstable`.
    pub reason: String,
}

/// The manifest: an ordered list of sealed segments, plus the quarantine
/// list.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Manifest {
    /// Format version.
    pub version: u32,
    /// Sealed segments in seal order.
    pub segments: Vec<SegmentMeta>,
    /// Segments pulled from service by the doctor. `None` only when
    /// loaded from a pre-quarantine manifest (reads as empty); saves
    /// always write the list.
    pub quarantined: Option<Vec<QuarantinedSegment>>,
    /// The validator set the recorded chain ran under — public chain
    /// data (seed and count fully determine identities, stakes, and the
    /// leader of every slot), which is what lets the index attribute each
    /// sandwich to its slot leader without any per-slot data on the wire.
    /// `None` when the store predates attribution (reads degrade to an
    /// unattributed index).
    pub validators: Option<ValidatorSpec>,
}

/// Manifest file name inside a store directory.
pub const MANIFEST_FILE: &str = "manifest.json";

impl Manifest {
    /// A fresh, empty manifest.
    pub fn new() -> Self {
        Manifest {
            version: 1,
            segments: Vec::new(),
            quarantined: Some(Vec::new()),
            validators: None,
        }
    }

    /// Total bundle records across all sealed segments.
    pub fn total_bundles(&self) -> u64 {
        self.segments.iter().map(|s| s.bundles).sum()
    }

    /// Total bytes across all sealed segments.
    pub fn total_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.bytes).sum()
    }

    /// Highest bundle slot across all sealed segments.
    pub fn max_slot(&self) -> Option<u64> {
        self.segments
            .iter()
            .filter(|s| s.bundles > 0)
            .map(|s| s.max_slot)
            .max()
    }

    /// The quarantine list (empty for pre-quarantine manifests).
    pub fn quarantined(&self) -> &[QuarantinedSegment] {
        self.quarantined.as_deref().unwrap_or(&[])
    }

    /// Total bundle records sitting in quarantine.
    pub fn total_quarantined_bundles(&self) -> u64 {
        self.quarantined().iter().map(|q| q.meta.bundles).sum()
    }

    /// Move the segment at `index` out of service with a reason code.
    pub fn quarantine(&mut self, index: usize, reason: impl Into<String>) -> QuarantinedSegment {
        let meta = self.segments.remove(index);
        let entry = QuarantinedSegment {
            meta,
            reason: reason.into(),
        };
        self.quarantined
            .get_or_insert_with(Vec::new)
            .push(entry.clone());
        entry
    }

    /// The index the next sealed segment file should use: one past the
    /// highest index present anywhere in the manifest — including the
    /// quarantine list, so a new segment never reuses the file name of a
    /// quarantined one.
    pub fn next_segment_index(&self) -> usize {
        self.segments
            .iter()
            .map(|s| s.file.as_str())
            .chain(self.quarantined().iter().map(|q| q.meta.file.as_str()))
            .filter_map(parse_segment_index)
            .map(|i| i + 1)
            .max()
            .unwrap_or(0)
    }

    /// Save durably (temp file + fsync + atomic rename + directory
    /// fsync) into `dir`.
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        self.save_with(dir, None)
    }

    /// [`Self::save`] with an optional crash plan threaded through the
    /// durable write (each chunk/fsync/rename is an enumerated crash
    /// step).
    pub fn save_with(&self, dir: &Path, plan: Option<&mut CrashPlan>) -> std::io::Result<()> {
        let bytes = serde_json::to_string(self)?.into_bytes();
        // Split the JSON into thirds so torn-manifest crash points land
        // inside the document, not only at its edges.
        let cuts = [bytes.len() / 3, 2 * bytes.len() / 3];
        write_durable_with(&dir.join(MANIFEST_FILE), &bytes, &cuts, plan)
    }

    /// Load from `dir`.
    pub fn load(dir: &Path) -> std::io::Result<Manifest> {
        let text = std::fs::read_to_string(dir.join(MANIFEST_FILE))?;
        serde_json::from_str(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Absolute path of one segment.
    pub fn segment_path(dir: &Path, meta: &SegmentMeta) -> PathBuf {
        dir.join(&meta.file)
    }
}

/// What changed between a previously indexed manifest snapshot and the
/// current one, expressed as indexes into the current lists. `None` from
/// [`Manifest::delta_within`] means the history is not append-only (a
/// covered segment left the scope, was quarantined, or un-quarantined)
/// and an incremental consumer must rebuild from scratch.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ManifestDelta {
    /// Indexes into [`Manifest::segments`] of newly sealed segments.
    pub new_serving: Vec<usize>,
    /// Indexes into [`Manifest::quarantined`] of segments quarantined
    /// since the snapshot (and never covered while serving).
    pub new_quarantined: Vec<usize>,
}

impl ManifestDelta {
    /// `true` when nothing changed (the generation moved for another
    /// reason, or the caller diffed against itself).
    pub fn is_empty(&self) -> bool {
        self.new_serving.is_empty() && self.new_quarantined.is_empty()
    }

    /// Segments in the delta, serving plus quarantined.
    pub fn len(&self) -> usize {
        self.new_serving.len() + self.new_quarantined.len()
    }
}

impl Manifest {
    /// Diff a covered snapshot against a **scope** of this manifest: the
    /// entries at `serving` (indexes into [`Manifest::segments`]) and
    /// `quarantined` (indexes into [`Manifest::quarantined`]) — the whole
    /// manifest for one index over the store, one shard's slice for a
    /// shard.
    ///
    /// Returns the strictly-new work when the scope only grew: every
    /// covered serving file is still serving inside it and every covered
    /// quarantined file is still quarantined inside it. Any other shape —
    /// a covered segment deleted, moved out of the scope, moved into
    /// quarantine, or resurrected — returns `None`, because folded
    /// aggregates cannot be subtracted. So does an index outside the
    /// manifest.
    pub fn delta_within(
        &self,
        covered_serving: &[String],
        covered_quarantined: &[String],
        serving: &[usize],
        quarantined: &[usize],
    ) -> Option<ManifestDelta> {
        use std::collections::BTreeSet;
        let covered_serving: BTreeSet<&str> = covered_serving.iter().map(String::as_str).collect();
        let covered_quarantined: BTreeSet<&str> =
            covered_quarantined.iter().map(String::as_str).collect();
        let mut scope_serving = Vec::with_capacity(serving.len());
        for &i in serving {
            scope_serving.push((i, self.segments.get(i)?.file.as_str()));
        }
        let mut scope_quarantined = Vec::with_capacity(quarantined.len());
        for &i in quarantined {
            scope_quarantined.push((i, self.quarantined().get(i)?.meta.file.as_str()));
        }
        let still = |scope: &[(usize, &str)], covered: &BTreeSet<&str>| {
            let scope: BTreeSet<&str> = scope.iter().map(|(_, file)| *file).collect();
            covered.iter().all(|file| scope.contains(file))
        };
        if !still(&scope_serving, &covered_serving)
            || !still(&scope_quarantined, &covered_quarantined)
        {
            return None;
        }

        let mut delta = ManifestDelta::default();
        for (i, file) in scope_serving {
            if covered_quarantined.contains(file) {
                return None; // resurrected from quarantine: not foldable
            }
            if !covered_serving.contains(file) {
                delta.new_serving.push(i);
            }
        }
        for (i, file) in scope_quarantined {
            if covered_serving.contains(file) {
                return None; // covered while serving, now quarantined
            }
            if !covered_quarantined.contains(file) {
                delta.new_quarantined.push(i);
            }
        }
        Some(delta)
    }
}

/// Cheap stat-based change detection on the manifest file, for daemon
/// reload loops: `changed()` is true the first time and whenever the
/// manifest's `(len, mtime)` differs from the last observation, so an
/// idle loop skips even the manifest parse. A same-byte rewrite (touch)
/// still reports changed — the caller's generation check makes that a
/// no-op without invalidating anything.
#[derive(Debug)]
pub struct SealWatcher {
    path: PathBuf,
    last: Option<(u64, std::time::SystemTime)>,
}

impl SealWatcher {
    /// Watch the manifest inside store directory `dir`.
    pub fn new(dir: &Path) -> SealWatcher {
        SealWatcher {
            path: dir.join(MANIFEST_FILE),
            last: None,
        }
    }

    /// Re-stat the manifest; `true` when it looks different from the last
    /// call (or on the first call, or when the stat fails — the caller's
    /// reload surfaces the real error).
    pub fn changed(&mut self) -> bool {
        let stat = std::fs::metadata(&self.path)
            .and_then(|m| Ok((m.len(), m.modified()?)))
            .ok();
        match stat {
            None => {
                self.last = None;
                true
            }
            Some(observed) => {
                let changed = self.last != Some(observed);
                self.last = Some(observed);
                changed
            }
        }
    }

    /// Forget the last observation, so the next [`Self::changed`] fires
    /// even over an untouched manifest. A daemon calls this when the
    /// reload a change triggered failed: the failure may be transient
    /// (index save out of space, a segment briefly unreadable) and must
    /// be retried on the next tick, not at the next seal.
    pub fn rearm(&mut self) {
        self.last = None;
    }
}

/// Parse the numeric index out of a `seg-NNNNN.seg` file name.
pub(crate) fn parse_segment_index(name: &str) -> Option<usize> {
    name.strip_prefix("seg-")?
        .strip_suffix(".seg")?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unique per-test directory: temp dirs keyed on pid alone collide
    /// when tests run in parallel within one process or when a dirty
    /// previous run left the directory behind.
    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("swmanifest-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn meta(file: &str, bundles: u64) -> SegmentMeta {
        SegmentMeta {
            file: file.into(),
            bundles,
            details: 6,
            polls: 3,
            min_slot: 10,
            max_slot: 99,
            bytes: 1234,
            checksum: format!("{:016x}", 0xdead_beef_u64),
        }
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let mut m = Manifest::new();
        m.segments.push(meta("seg-00000.seg", 42));
        m.save(&dir).unwrap();
        let back = Manifest::load(&dir).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.total_bundles(), 42);
        assert_eq!(back.max_slot(), Some(99));
        assert!(back.quarantined().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_manifest_is_an_error() {
        let dir = tmp_dir("missing");
        assert!(Manifest::load(&dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pre_quarantine_manifest_still_loads() {
        let dir = tmp_dir("compat");
        // A manifest saved before the quarantine list existed.
        std::fs::write(
            dir.join(MANIFEST_FILE),
            r#"{"version":1,"segments":[{"file":"seg-00000.seg","bundles":7,"details":0,"polls":0,"min_slot":1,"max_slot":9,"bytes":100,"checksum":"00000000deadbeef"}]}"#,
        )
        .unwrap();
        let m = Manifest::load(&dir).unwrap();
        assert_eq!(m.total_bundles(), 7);
        assert!(m.quarantined().is_empty());
        assert_eq!(m.total_quarantined_bundles(), 0);
        assert_eq!(m.validators, None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pre_attribution_manifest_still_loads() {
        let dir = tmp_dir("compat-attrib");
        // A manifest saved before the validator spec existed (but after
        // the quarantine list did).
        std::fs::write(
            dir.join(MANIFEST_FILE),
            r#"{"version":1,"segments":[{"file":"seg-00000.seg","bundles":3,"details":0,"polls":0,"min_slot":1,"max_slot":9,"bytes":100,"checksum":"00000000deadbeef"}],"quarantined":[]}"#,
        )
        .unwrap();
        let m = Manifest::load(&dir).unwrap();
        assert_eq!(m.total_bundles(), 3);
        assert_eq!(m.validators, None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn validator_spec_roundtrips_through_save() {
        let dir = tmp_dir("spec-roundtrip");
        let mut m = Manifest::new();
        m.validators = Some(ValidatorSpec::new(42, 24));
        m.save(&dir).unwrap();
        let back = Manifest::load(&dir).unwrap();
        assert_eq!(back.validators, Some(ValidatorSpec::new(42, 24)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quarantine_moves_a_segment_off_the_serving_list() {
        let mut m = Manifest::new();
        m.segments.push(meta("seg-00000.seg", 10));
        m.segments.push(meta("seg-00001.seg", 20));
        let q = m.quarantine(0, "body_corrupt");
        assert_eq!(q.meta.file, "seg-00000.seg");
        assert_eq!(m.segments.len(), 1);
        assert_eq!(m.quarantined().len(), 1);
        assert_eq!(m.total_bundles(), 20);
        assert_eq!(m.total_quarantined_bundles(), 10);
        // The next seal must not reuse the quarantined segment's name.
        assert_eq!(m.next_segment_index(), 2);
    }

    #[test]
    fn next_index_is_zero_for_an_empty_manifest() {
        assert_eq!(Manifest::new().next_segment_index(), 0);
    }

    /// [`Manifest::delta_within`] with the whole manifest as the scope.
    fn delta_whole(
        m: &Manifest,
        covered_serving: &[String],
        covered_quarantined: &[String],
    ) -> Option<ManifestDelta> {
        let serving: Vec<usize> = (0..m.segments.len()).collect();
        let quarantined: Vec<usize> = (0..m.quarantined().len()).collect();
        m.delta_within(covered_serving, covered_quarantined, &serving, &quarantined)
    }

    #[test]
    fn delta_lists_only_new_segments() {
        let mut m = Manifest::new();
        m.segments.push(meta("seg-00000.seg", 10));
        m.segments.push(meta("seg-00001.seg", 20));
        let covered = vec!["seg-00000.seg".to_string()];
        let delta = delta_whole(&m, &covered, &[]).unwrap();
        assert_eq!(delta.new_serving, vec![1]);
        assert!(delta.new_quarantined.is_empty());
        assert_eq!(delta.len(), 1);

        // Full coverage diffs to an empty delta.
        let all = vec!["seg-00000.seg".to_string(), "seg-00001.seg".to_string()];
        assert!(delta_whole(&m, &all, &[]).unwrap().is_empty());
    }

    #[test]
    fn delta_refuses_non_append_only_histories() {
        let mut m = Manifest::new();
        m.segments.push(meta("seg-00000.seg", 10));
        m.segments.push(meta("seg-00001.seg", 20));

        // A covered segment that vanished entirely.
        let gone = vec!["seg-00000.seg".to_string(), "seg-00009.seg".to_string()];
        assert_eq!(delta_whole(&m, &gone, &[]), None);

        // A covered serving segment moved into quarantine.
        let covered = vec!["seg-00000.seg".to_string(), "seg-00001.seg".to_string()];
        m.quarantine(0, "body_corrupt");
        assert_eq!(delta_whole(&m, &covered, &[]), None);

        // But a *new* quarantined segment (never covered) folds fine.
        let delta = delta_whole(&m, &["seg-00001.seg".to_string()], &[]).unwrap();
        assert!(delta.new_serving.is_empty());
        assert_eq!(delta.new_quarantined, vec![0]);

        // A covered quarantined segment resurrected to serving.
        let mut back = Manifest::new();
        back.segments.push(meta("seg-00000.seg", 10));
        assert_eq!(
            delta_whole(&back, &[], &["seg-00000.seg".to_string()]),
            None
        );
    }

    #[test]
    fn delta_within_a_scope_folds_growth_and_refuses_a_lost_segment() {
        let mut m = Manifest::new();
        for (i, bundles) in [10, 20, 30, 40].into_iter().enumerate() {
            m.segments.push(meta(&format!("seg-0000{i}.seg"), bundles));
        }
        // A shard that covered segment 2 and now owns 2 and 3: it grew.
        let covered = vec!["seg-00002.seg".to_string()];
        let delta = m.delta_within(&covered, &[], &[2, 3], &[]).unwrap();
        assert_eq!(delta.new_serving, vec![3]);
        // Unchanged slice under a new generation: an empty delta.
        assert!(m.delta_within(&covered, &[], &[2], &[]).unwrap().is_empty());
        // A re-plan moved segment 2 to another shard: not foldable, even
        // though the manifest still serves it.
        assert_eq!(m.delta_within(&covered, &[], &[3], &[]), None);
        // A scope index outside the manifest is never foldable.
        assert_eq!(m.delta_within(&covered, &[], &[2, 9], &[]), None);
        assert_eq!(m.delta_within(&covered, &[], &[2], &[0]), None);
    }

    #[test]
    fn seal_watcher_rearm_fires_again_over_an_untouched_manifest() {
        let dir = tmp_dir("rearm");
        let mut m = Manifest::new();
        m.segments.push(meta("seg-00000.seg", 1));
        m.save(&dir).unwrap();

        let mut watcher = SealWatcher::new(&dir);
        assert!(watcher.changed());
        assert!(!watcher.changed());
        // The reload that change triggered failed: retry without a seal.
        watcher.rearm();
        assert!(
            watcher.changed(),
            "rearmed: fires without touching the file"
        );
        assert!(!watcher.changed(), "and only once");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seal_watcher_reports_manifest_changes_once() {
        let dir = tmp_dir("watcher");
        let mut m = Manifest::new();
        m.segments.push(meta("seg-00000.seg", 1));
        m.save(&dir).unwrap();

        let mut watcher = SealWatcher::new(&dir);
        assert!(watcher.changed(), "first observation always fires");
        assert!(!watcher.changed(), "no change, no fire");

        // Growing the manifest fires exactly once.
        m.segments.push(meta("seg-00001.seg", 2));
        m.save(&dir).unwrap();
        assert!(watcher.changed());
        assert!(!watcher.changed());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
