//! The store itself: an append-only directory of sealed segments plus a
//! manifest, read through [`BundleStore`] snapshots that fingerprint it once.
//!
//! Writes are whole-segment: the writer receives a batch of records, sorts
//! them canonically, encodes, checksums, and renames the finished file
//! into place, then re-saves the manifest. There is no partially-written
//! "active" segment on disk — crash safety comes from records staying in
//! the collector's memory (and its checkpoint) until their segment seals.

use std::path::{Path, PathBuf};

use crate::codec::SegmentData;
use crate::crash::{remove_stale_tmp_files, CrashPlan};
use crate::doctor::{check_segment, Verdict};
use crate::manifest::{Manifest, QuarantinedSegment, SegmentMeta};
use crate::records::{CollectedBundle, CollectedDetail, PollRecord};
use crate::segment::{
    encode_segment, fnv1a64, read_segment_file, write_segment_file, write_segment_file_with,
    SegmentFooter, FOOTER_LEN, SEGMENT_MAGIC,
};

pub(crate) fn segment_file_name(index: usize) -> String {
    format!("seg-{index:05}.seg")
}

/// Append-only writer over a store directory.
#[derive(Debug)]
pub struct StoreWriter {
    dir: PathBuf,
    manifest: Manifest,
    bytes_written: u64,
}

impl StoreWriter {
    /// Create a fresh store at `dir` (the directory is created; an existing
    /// manifest there is an error — a store is grown, never overwritten
    /// blindly).
    pub fn create(dir: impl Into<PathBuf>) -> std::io::Result<StoreWriter> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        if Manifest::load(&dir).is_ok() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                format!("{} already holds a store manifest", dir.display()),
            ));
        }
        let manifest = Manifest::new();
        manifest.save(&dir)?;
        Ok(StoreWriter {
            dir,
            manifest,
            bytes_written: 0,
        })
    }

    /// Reopen a store for appending after a checkpoint resume.
    ///
    /// `expected` is the sealed-segment list the checkpoint recorded. The
    /// on-disk manifest must contain it as a prefix; any segments sealed
    /// after the checkpoint (the killed run got further than its last
    /// checkpoint) are discarded so the resume replays them. Only the
    /// manifest is read — sealed segment contents stay on disk.
    pub fn resume(
        dir: impl Into<PathBuf>,
        expected: &[SegmentMeta],
    ) -> std::io::Result<StoreWriter> {
        let dir = dir.into();
        let on_disk = Manifest::load(&dir)?;
        // A crashed seal can leave a write-ahead temp file behind; it was
        // never part of the store.
        remove_stale_tmp_files(&dir)?;
        if on_disk.segments.len() < expected.len()
            || on_disk.segments[..expected.len()] != *expected
        {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "store manifest does not match the checkpoint's segment list",
            ));
        }
        for orphan in &on_disk.segments[expected.len()..] {
            // Best-effort: an undeletable orphan only wastes disk, the
            // truncated manifest no longer references it.
            let _ = std::fs::remove_file(Manifest::segment_path(&dir, orphan));
        }
        let manifest = Manifest {
            version: on_disk.version,
            segments: expected.to_vec(),
            quarantined: Some(on_disk.quarantined().to_vec()),
            validators: on_disk.validators,
        };
        // Every retained segment gets a cheap structural probe (size +
        // both magics + footer parse); a damaged one gets one shot at
        // provable recovery — truncating a torn tail back to the last
        // valid footer — before resume refuses to build on it.
        for meta in &manifest.segments {
            verify_or_recover(&dir, meta)?;
        }
        manifest.save(&dir)?;
        Ok(StoreWriter {
            dir,
            manifest,
            bytes_written: 0,
        })
    }

    /// Record the validator spec of the chain this store was collected
    /// from, durably re-saving the manifest. The spec is public chain
    /// data — seed and count fully determine validator identities, stakes
    /// and the leader of every slot — so carrying it in the manifest lets
    /// an index attribute each sandwich to its slot leader without any
    /// per-slot leader data on the wire.
    pub fn set_validators(&mut self, spec: sandwich_attrib::ValidatorSpec) -> std::io::Result<()> {
        let prev = self.manifest.validators;
        self.manifest.validators = Some(spec);
        if let Err(e) = self.manifest.save(&self.dir) {
            self.manifest.validators = prev;
            return Err(e);
        }
        Ok(())
    }

    /// Seal one segment from a batch of records. Records are sorted into
    /// canonical order (bundles by slot then id, details by slot then tx),
    /// encoded, checksummed, written atomically, and recorded in the
    /// manifest. Returns the new segment's metadata.
    pub fn seal_segment(
        &mut self,
        bundles: Vec<CollectedBundle>,
        details: Vec<CollectedDetail>,
        polls: Vec<PollRecord>,
    ) -> std::io::Result<SegmentMeta> {
        self.seal_segment_with(bundles, details, polls, None)
    }

    /// [`Self::seal_segment`] with an optional [`CrashPlan`] threaded
    /// through both durable writes (segment file, then manifest), so a
    /// test harness can kill the seal at every enumerated crash step.
    /// After an injected crash the writer must be considered dead —
    /// recover by dropping it and calling [`StoreWriter::resume`].
    pub fn seal_segment_with(
        &mut self,
        mut bundles: Vec<CollectedBundle>,
        mut details: Vec<CollectedDetail>,
        polls: Vec<PollRecord>,
        mut plan: Option<&mut CrashPlan>,
    ) -> std::io::Result<SegmentMeta> {
        bundles.sort_by_key(|a| (a.slot, a.bundle_id.0));
        details.sort_by_key(|a| (a.slot, a.meta.tx_id.0));
        let data = SegmentData {
            bundles,
            details,
            polls,
        };
        let (image, footer) = encode_segment(&data);
        // One past the highest index anywhere in the manifest — counting
        // quarantined segments, whose file names must never be reused.
        let file = segment_file_name(self.manifest.next_segment_index());
        write_segment_file_with(&self.dir.join(&file), &image, plan.as_deref_mut())?;
        let meta = SegmentMeta {
            file,
            bundles: footer.bundles as u64,
            details: footer.details as u64,
            polls: footer.polls as u64,
            min_slot: footer.min_slot,
            max_slot: footer.max_slot,
            bytes: image.len() as u64,
            checksum: format!("{:016x}", footer.checksum),
        };
        self.manifest.segments.push(meta.clone());
        if let Err(e) = self.manifest.save_with(&self.dir, plan) {
            self.manifest.segments.pop();
            return Err(e);
        }
        self.bytes_written += image.len() as u64;
        Ok(meta)
    }

    /// Sealed segments so far, in seal order.
    pub fn segments(&self) -> &[SegmentMeta] {
        &self.manifest.segments
    }

    /// Store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Bytes written by this writer instance (not counting pre-resume
    /// segments).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Convert into a read handle over everything sealed so far.
    pub fn into_reader(self) -> BundleStore {
        BundleStore {
            generation: generation_of(&self.manifest),
            dir: self.dir,
            manifest: self.manifest,
        }
    }
}

/// Cheap structural probe of a sealed segment (size, leading magic,
/// footer parse, manifest cross-check) without reading the body. `false`
/// means "needs the full recovery path", not "unrecoverable".
fn quick_probe(path: &Path, meta: &SegmentMeta) -> std::io::Result<bool> {
    use std::io::{Read, Seek, SeekFrom};
    let mut f = std::fs::File::open(path)?;
    let len = f.metadata()?.len();
    if len != meta.bytes || len < (8 + FOOTER_LEN) as u64 {
        return Ok(false);
    }
    let mut magic = [0u8; 8];
    f.read_exact(&mut magic)?;
    if &magic != SEGMENT_MAGIC {
        return Ok(false);
    }
    let mut foot = [0u8; FOOTER_LEN];
    f.seek(SeekFrom::End(-(FOOTER_LEN as i64)))?;
    f.read_exact(&mut foot)?;
    let Ok(footer) = SegmentFooter::from_bytes(&foot) else {
        return Ok(false);
    };
    // On-disk lengths are untrusted: a sum that overflows is a mismatch.
    let sections = footer.body_len.checked_add(footer.col_len);
    Ok(format!("{:016x}", footer.checksum) == meta.checksum
        && footer.bundles as u64 == meta.bundles
        && sections.and_then(|s| s.checked_add((8 + FOOTER_LEN) as u64)) == Some(len))
}

/// Probe one retained segment at resume; if the probe fails, try the
/// doctor's provable-recovery path (truncate a torn tail back to the
/// last valid footer / rebuild a damaged columnar section) before
/// refusing the resume.
fn verify_or_recover(dir: &Path, meta: &SegmentMeta) -> std::io::Result<()> {
    let path = Manifest::segment_path(dir, meta);
    if quick_probe(&path, meta).unwrap_or(false) {
        return Ok(());
    }
    let image = std::fs::read(&path).map_err(|e| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("segment {} unreadable at resume: {e}", meta.file),
        )
    })?;
    match check_segment(&image, Some(meta)) {
        Verdict::Clean { .. } => Ok(()),
        Verdict::Rebuild { image, .. } => write_segment_file(&path, &image),
        Verdict::Quarantine { reason } => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "segment {} is damaged beyond provable recovery ({reason}); run `store doctor` to quarantine it",
                meta.file
            ),
        )),
    }
}

/// The manifest generation: a 16-hex FNV-1a 64 fingerprint of the manifest
/// as serialized (not of the file's bytes). Sealing a segment changes it.
pub fn generation_of(manifest: &Manifest) -> String {
    let json = serde_json::to_string(manifest).unwrap_or_default();
    format!("{:016x}", fnv1a64(json.as_bytes()))
}

/// Read handle over one snapshot of a sealed store: the manifest as it
/// was read, its generation (computed once), and segment access.
#[derive(Clone, Debug)]
pub struct BundleStore {
    dir: PathBuf,
    manifest: Manifest,
    generation: String,
}

impl BundleStore {
    /// Open a store directory by loading its manifest. Segment contents
    /// are not read — scans stream them on demand.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<BundleStore> {
        let dir = dir.into();
        let manifest = Manifest::load(&dir)?;
        let generation = generation_of(&manifest);
        Ok(BundleStore {
            dir,
            manifest,
            generation,
        })
    }

    /// The manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The manifest's [`generation_of`], computed when this was opened.
    pub fn generation(&self) -> &str {
        &self.generation
    }

    /// Sealed segments in seal order.
    pub fn segments(&self) -> &[SegmentMeta] {
        &self.manifest.segments
    }

    /// Segments the doctor has pulled from service (never scanned, but
    /// accounted for in coverage).
    pub fn quarantined(&self) -> &[QuarantinedSegment] {
        self.manifest.quarantined()
    }

    /// Store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Read, verify, and decode one segment by index. Checksum or codec
    /// failures surface as `InvalidData` errors, never as garbage records.
    pub fn read_segment(&self, index: usize) -> std::io::Result<SegmentData> {
        let meta = self.manifest.segments.get(index).ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("segment {index} not in manifest"),
            )
        })?;
        let (data, footer) = read_segment_file(&Manifest::segment_path(&self.dir, meta))?;
        if format!("{:016x}", footer.checksum) != meta.checksum {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("segment {index} checksum disagrees with manifest"),
            ));
        }
        Ok(data)
    }

    /// Open a zero-copy view over one segment by index, with the same
    /// manifest cross-check as [`Self::read_segment`] (the view itself
    /// verifies the body and columnar checksums on open).
    pub fn open_view(&self, index: usize) -> std::io::Result<crate::view::SegmentView> {
        let meta = self.manifest.segments.get(index).ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("segment {index} not in manifest"),
            )
        })?;
        let view = crate::view::SegmentView::open(&Manifest::segment_path(&self.dir, meta))?;
        if format!("{:016x}", view.footer().checksum) != meta.checksum {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("segment {index} checksum disagrees with manifest"),
            ));
        }
        Ok(view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sandwich_types::{Hash, Keypair, Lamports, Slot};

    fn bundle(seed: u64, slot: u64) -> CollectedBundle {
        let kp = Keypair::from_label("store");
        CollectedBundle {
            bundle_id: Hash::digest(&seed.to_le_bytes()),
            slot: Slot(slot),
            timestamp_ms: slot * 400,
            tip: Lamports(seed),
            tx_ids: vec![kp.sign(&seed.to_le_bytes())],
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("swstore-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn seal_then_read_back() {
        let dir = tmp_dir("seal");
        let mut w = StoreWriter::create(&dir).unwrap();
        // Unsorted input: the writer canonicalizes.
        let meta = w
            .seal_segment(vec![bundle(2, 20), bundle(1, 10)], vec![], vec![])
            .unwrap();
        assert_eq!(meta.bundles, 2);
        assert_eq!((meta.min_slot, meta.max_slot), (10, 20));
        assert!(w.bytes_written() > 0);

        let store = BundleStore::open(&dir).unwrap();
        assert_eq!(store.segments().len(), 1);
        let data = store.read_segment(0).unwrap();
        let slots: Vec<u64> = data.bundles.iter().map(|b| b.slot.0).collect();
        assert_eq!(slots, vec![10, 20], "canonical order on disk");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_refuses_existing_store() {
        let dir = tmp_dir("exists");
        let _w = StoreWriter::create(&dir).unwrap();
        assert!(StoreWriter::create(&dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_truncates_segments_past_the_checkpoint() {
        let dir = tmp_dir("resume");
        let mut w = StoreWriter::create(&dir).unwrap();
        w.seal_segment(vec![bundle(1, 10)], vec![], vec![]).unwrap();
        let at_checkpoint = w.segments().to_vec();
        // The run got further before dying.
        w.seal_segment(vec![bundle(2, 20)], vec![], vec![]).unwrap();
        drop(w);

        let w = StoreWriter::resume(&dir, &at_checkpoint).unwrap();
        assert_eq!(w.segments().len(), 1);
        let store = BundleStore::open(&dir).unwrap();
        assert_eq!(store.segments().len(), 1);
        assert!(
            !dir.join(segment_file_name(1)).exists(),
            "orphan segment deleted"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_rejects_a_mismatched_manifest() {
        let dir = tmp_dir("mismatch");
        let mut w = StoreWriter::create(&dir).unwrap();
        w.seal_segment(vec![bundle(1, 10)], vec![], vec![]).unwrap();
        let mut fake = w.segments().to_vec();
        fake[0].checksum = "0000000000000000".into();
        assert!(StoreWriter::resume(&dir, &fake).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_truncates_a_torn_segment_tail() {
        let dir = tmp_dir("torntail");
        let mut w = StoreWriter::create(&dir).unwrap();
        let meta = w
            .seal_segment(vec![bundle(1, 10), bundle(2, 20)], vec![], vec![])
            .unwrap();
        let expected = w.segments().to_vec();
        drop(w);
        // Tear into the columnar section (body intact) and leave a stale
        // write-ahead temp file, like a killed seal would.
        let path = dir.join(&meta.file);
        let sealed = std::fs::read(&path).unwrap();
        let parsed = crate::segment::parse_segment(&sealed).unwrap();
        crate::crash::truncate_to(&path, (parsed.body.end + 2) as u64).unwrap();
        std::fs::write(dir.join("seg-00001.tmp"), b"half a segment").unwrap();

        let w = StoreWriter::resume(&dir, &expected).unwrap();
        assert_eq!(w.segments(), &expected[..]);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            sealed,
            "bit-for-bit recovery"
        );
        assert!(!dir.join("seg-00001.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_refuses_an_unrecoverable_segment() {
        let dir = tmp_dir("unrec");
        let mut w = StoreWriter::create(&dir).unwrap();
        let meta = w.seal_segment(vec![bundle(1, 10)], vec![], vec![]).unwrap();
        let expected = w.segments().to_vec();
        drop(w);
        let path = dir.join(&meta.file);
        // Tear into the body itself: the sealed bytes are gone, no
        // recovery can prove anything.
        crate::crash::truncate_to(&path, meta.bytes / 4).unwrap();
        let err = StoreWriter::resume(&dir, &expected).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("store doctor"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_refuses_a_footer_whose_lengths_overflow() {
        let dir = tmp_dir("overflow");
        let mut w = StoreWriter::create(&dir).unwrap();
        let meta = w.seal_segment(vec![bundle(1, 10)], vec![], vec![]).unwrap();
        let expected = w.segments().to_vec();
        drop(w);
        // Checksum and bundle count still match the manifest, but
        // `body_len + col_len` wraps past `u64::MAX`, and the body is
        // damaged too, so no recovery can prove anything.
        let path = dir.join(&meta.file);
        let mut image = std::fs::read(&path).unwrap();
        image[8 + 3] ^= 0x01;
        let footer = image.len() - FOOTER_LEN;
        image[footer + 36..footer + 44].copy_from_slice(&(1u64 << 63).to_le_bytes());
        image[footer + 44..footer + 52].copy_from_slice(&(1u64 << 63).to_le_bytes());
        std::fs::write(&path, &image).unwrap();

        let err = StoreWriter::resume(&dir, &expected).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("store doctor"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seal_never_reuses_a_quarantined_file_name() {
        let dir = tmp_dir("reuse");
        let mut w = StoreWriter::create(&dir).unwrap();
        w.seal_segment(vec![bundle(1, 10)], vec![], vec![]).unwrap();
        let meta1 = w.seal_segment(vec![bundle(2, 20)], vec![], vec![]).unwrap();
        drop(w);
        // Quarantine seg-00001 the way the doctor would.
        let mut m = Manifest::load(&dir).unwrap();
        m.quarantine(1, "body_corrupt");
        m.save(&dir).unwrap();

        let expected = m.segments.clone();
        let mut w = StoreWriter::resume(&dir, &expected).unwrap();
        let meta2 = w.seal_segment(vec![bundle(3, 30)], vec![], vec![]).unwrap();
        assert_eq!(meta2.file, "seg-00002.seg");
        assert_ne!(meta2.file, meta1.file);
        let store = w.into_reader();
        assert_eq!(store.segments().len(), 2);
        assert_eq!(store.quarantined().len(), 1, "quarantine survives resume");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crashed_seal_resumes_to_a_byte_identical_store() {
        use crate::crash::{is_injected_crash, CrashPlan};
        let base = tmp_dir("crashseal");
        let mut w = StoreWriter::create(&base).unwrap();
        w.seal_segment(vec![bundle(1, 10)], vec![], vec![]).unwrap();
        let expected = w.segments().to_vec();
        drop(w);

        // Reference: the uninterrupted seal.
        let refdir = tmp_dir("crashseal-ref");
        copy_dir(&base, &refdir);
        let mut w = StoreWriter::resume(&refdir, &expected).unwrap();
        w.seal_segment(vec![bundle(2, 20)], vec![], vec![]).unwrap();
        let want = std::fs::read(refdir.join("seg-00001.seg")).unwrap();

        let mut count = CrashPlan::count();
        let crashdir = tmp_dir("crashseal-n");
        copy_dir(&base, &crashdir);
        let mut w = StoreWriter::resume(&crashdir, &expected).unwrap();
        w.seal_segment_with(vec![bundle(2, 20)], vec![], vec![], Some(&mut count))
            .unwrap();
        let total = count.steps_seen();
        assert!(total >= 15, "expected a rich crash matrix, got {total}");

        for step in 0..total {
            let dir = tmp_dir("crashseal-case");
            copy_dir(&base, &dir);
            let mut w = StoreWriter::resume(&dir, &expected).unwrap();
            let mut plan = CrashPlan::crash_at(step, true, 99 + step);
            let err = w
                .seal_segment_with(vec![bundle(2, 20)], vec![], vec![], Some(&mut plan))
                .unwrap_err();
            assert!(is_injected_crash(&err));
            drop(w);
            // Recover exactly as the collector would: resume + re-seal.
            let mut w = StoreWriter::resume(&dir, &expected).unwrap();
            w.seal_segment(vec![bundle(2, 20)], vec![], vec![]).unwrap();
            assert_eq!(
                std::fs::read(dir.join("seg-00001.seg")).unwrap(),
                want,
                "crash at step {step} diverged after recovery"
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
        std::fs::remove_dir_all(&base).unwrap();
        std::fs::remove_dir_all(&refdir).unwrap();
        std::fs::remove_dir_all(&crashdir).unwrap();
    }

    fn copy_dir(from: &Path, to: &Path) {
        let _ = std::fs::remove_dir_all(to);
        std::fs::create_dir_all(to).unwrap();
        for entry in std::fs::read_dir(from).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
        }
    }

    /// Every index frame on disk names the generation it describes, so a
    /// change to these values would make each of them stale once. The
    /// literals are the generations frames were already written under.
    #[test]
    fn generation_is_pinned_across_manifest_shapes() {
        let meta = |i: u64, bundles: u64| SegmentMeta {
            file: segment_file_name(i as usize),
            bundles,
            details: 3 * bundles,
            polls: 2,
            min_slot: 100 * i,
            max_slot: 100 * i + 99,
            bytes: 1_000 + i,
            checksum: format!("{:016x}", 0x0123_4567_89ab_cdef_u64 ^ i),
        };
        let full = Manifest {
            version: 1,
            segments: vec![meta(0, 10), meta(2, 20)],
            quarantined: Some(vec![QuarantinedSegment {
                meta: meta(1, 5),
                reason: "body_corrupt".to_string(),
            }]),
            validators: Some(sandwich_attrib::ValidatorSpec::new(20_250_209, 8)),
        };
        assert_eq!(generation_of(&full), "2f759e9d16818101");

        // A manifest saved before the quarantine list existed: the
        // generation is of the manifest as loaded, never of the file bytes.
        let dir = tmp_dir("golden");
        std::fs::create_dir_all(&dir).unwrap();
        let raw = r#"{"version":1,"segments":[{"file":"seg-00000.seg","bundles":7,"details":0,"polls":0,"min_slot":1,"max_slot":9,"bytes":100,"checksum":"00000000deadbeef"}]}"#;
        std::fs::write(dir.join(crate::MANIFEST_FILE), raw).unwrap();
        let store = BundleStore::open(&dir).unwrap();
        assert_eq!(store.generation(), "2eea7de133ab034b");
        assert_ne!(
            store.generation(),
            format!("{:016x}", fnv1a64(raw.as_bytes()))
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_snapshot_constructor_agrees_on_the_generation() {
        let dir = tmp_dir("snapshot");
        let mut w = StoreWriter::create(&dir).unwrap();
        w.set_validators(sandwich_attrib::ValidatorSpec::new(7, 6))
            .unwrap();
        w.seal_segment(vec![bundle(1, 10)], vec![], vec![]).unwrap();
        w.seal_segment(vec![bundle(2, 20)], vec![], vec![]).unwrap();
        let written = w.into_reader();
        let opened = BundleStore::open(&dir).unwrap();
        let loaded = generation_of(&Manifest::load(&dir).unwrap());
        assert_eq!(written.generation(), loaded);
        assert_eq!(opened.generation(), loaded);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_segment_file_surfaces_as_error() {
        let dir = tmp_dir("corrupt");
        let mut w = StoreWriter::create(&dir).unwrap();
        let meta = w.seal_segment(vec![bundle(1, 10)], vec![], vec![]).unwrap();
        let path = dir.join(&meta.file);
        let mut image = std::fs::read(&path).unwrap();
        let mid = image.len() / 2;
        image[mid] ^= 0x01;
        std::fs::write(&path, &image).unwrap();
        let store = BundleStore::open(&dir).unwrap();
        let err = store.read_segment(0).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
