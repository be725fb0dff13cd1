//! `store doctor` — offline fsck for a store directory.
//!
//! The doctor walks every segment the manifest knows about, verifies it
//! end to end (magic, sections, checksums, record counts, manifest
//! cross-check), and sorts each into one of three buckets:
//!
//! * **clean** — nothing to do;
//! * **repaired** — the damage is *provably* recoverable: the encoded
//!   body is intact (its FNV-1a checksum still equals the one the
//!   manifest recorded at seal time), so the segment is re-encoded from
//!   the decoded body and rewritten byte-identically. This covers torn
//!   tails, a corrupted columnar section (rebuilt from the decoded body),
//!   bit rot in the footer, and even a damaged leading magic;
//! * **quarantined** — anything touching the body itself. The segment
//!   moves from `segments` to the manifest's quarantine list with a
//!   reason code; scans and index builds skip it but account for it
//!   exactly (see the coverage block in `sandwich-core`/`sandwich-query`).
//!
//! Because re-encoding is deterministic, a successful repair reproduces
//! the original file bit for bit — the manifest entry (including `bytes`)
//! is unchanged, so the store generation, and with it any persisted query
//! index, stays valid. Anything else would be guessing, and the doctor
//! never guesses: if it cannot prove the recovered bytes are the sealed
//! bytes, it quarantines.
//!
//! If the manifest itself is unreadable the doctor rebuilds it from the
//! segment files on disk, trusting each file's own footer (torn tails are
//! truncated back to the last prefix that fully verifies).

use std::path::Path;

use crate::codec::decode_body;
use crate::crash::remove_stale_tmp_files;
use crate::manifest::{Manifest, QuarantinedSegment, SegmentMeta, MANIFEST_FILE};
use crate::segment::{
    decode_segment, encode_segment, fnv1a64, write_segment_file, SegmentFooter, FOOTER_LEN,
    FOOTER_MAGIC, SEGMENT_MAGIC,
};

/// What the doctor found (and, in repair mode, did) for one segment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SegmentHealth {
    /// Verifies end to end; manifest entry matches.
    Clean,
    /// Body intact, tail damaged (truncation, appended garbage, footer or
    /// magic rot): re-encoded from the body, byte-identical to the seal.
    RepairedTail {
        /// Bytes the damaged file had beyond the repaired image (0 when
        /// the damage did not change the length).
        bytes_reclaimed: u64,
    },
    /// Body intact, columnar fast-path section damaged: columns rebuilt
    /// from the decoded body.
    RepairedColumns,
    /// Not provably recoverable: moved to the quarantine list.
    Quarantined {
        /// Machine-readable reason code (see `docs/RELIABILITY.md`).
        reason: String,
    },
}

/// Per-segment line item of a doctor run.
#[derive(Clone, Debug)]
pub struct SegmentCheckReport {
    /// Segment file name.
    pub file: String,
    /// Bundle records at stake (from the manifest entry).
    pub bundles: u64,
    /// Verdict.
    pub health: SegmentHealth,
}

/// Summary of one doctor run.
#[derive(Clone, Debug, Default)]
pub struct DoctorReport {
    /// One line item per segment examined, in manifest order.
    pub checks: Vec<SegmentCheckReport>,
    /// Segments that verified end to end.
    pub clean: u64,
    /// Segments repaired (tail + columnar).
    pub repaired: u64,
    /// Segments newly quarantined by this run.
    pub quarantined: u64,
    /// Segments already in quarantine before this run.
    pub already_quarantined: u64,
    /// Bytes of torn tail reclaimed by repairs.
    pub bytes_reclaimed: u64,
    /// Bundle records in serving segments after the run.
    pub bundles_served: u64,
    /// Bundle records in quarantine after the run (old + new).
    pub bundles_quarantined: u64,
    /// Stale `*.tmp` write-ahead files found (removed in repair mode).
    pub tmp_files: u64,
    /// The manifest was unreadable and has been rebuilt from the segment
    /// files on disk.
    pub manifest_rebuilt: bool,
    /// True when this run actually modified the store (repair mode only).
    pub changed: bool,
}

impl DoctorReport {
    /// No quarantines and nothing left to repair?
    pub fn healthy(&self) -> bool {
        self.quarantined == 0 && self.already_quarantined == 0 && !self.manifest_rebuilt
    }
}

/// Internal verdict for one segment image.
pub(crate) enum Verdict {
    /// Verified; `meta` is the (possibly derived) manifest entry.
    Clean { meta: SegmentMeta },
    /// Provably recoverable; `image` is the byte-exact replacement.
    Rebuild {
        image: Vec<u8>,
        kind: RepairKind,
        meta: SegmentMeta,
    },
    /// Not recoverable.
    Quarantine { reason: &'static str },
}

pub(crate) enum RepairKind {
    Tail,
    Columns,
}

/// Inspect a store directory without touching it.
pub fn diagnose(dir: &Path) -> std::io::Result<DoctorReport> {
    run(dir, false)
}

/// Inspect a store directory and repair/quarantine in place.
pub fn repair(dir: &Path) -> std::io::Result<DoctorReport> {
    run(dir, true)
}

fn run(dir: &Path, repair_mode: bool) -> std::io::Result<DoctorReport> {
    let mut report = DoctorReport {
        tmp_files: if repair_mode {
            remove_stale_tmp_files(dir)?
        } else {
            count_tmp_files(dir)?
        },
        ..DoctorReport::default()
    };
    if repair_mode && report.tmp_files > 0 {
        report.changed = true;
    }

    let (old_manifest, had_manifest) = match Manifest::load(dir) {
        Ok(m) => (m, true),
        Err(_) if dir.join(MANIFEST_FILE).exists() || dir.is_dir() => {
            report.manifest_rebuilt = true;
            (synthesize_manifest(dir)?, false)
        }
        Err(e) => return Err(e),
    };
    report.already_quarantined = old_manifest.quarantined().len() as u64;

    let mut new_manifest = Manifest {
        version: old_manifest.version,
        segments: Vec::new(),
        quarantined: Some(old_manifest.quarantined().to_vec()),
        validators: old_manifest.validators,
    };
    let mut writes: Vec<(std::path::PathBuf, Vec<u8>)> = Vec::new();
    let mut manifest_dirty = report.manifest_rebuilt;

    for meta in &old_manifest.segments {
        let path = Manifest::segment_path(dir, meta);
        let verdict = match std::fs::read(&path) {
            Ok(image) => check_segment(&image, Some(meta)),
            Err(_) => Verdict::Quarantine {
                reason: "missing_file",
            },
        };
        let health = match verdict {
            Verdict::Clean { meta: checked } => {
                report.clean += 1;
                new_manifest.segments.push(checked);
                SegmentHealth::Clean
            }
            Verdict::Rebuild {
                image,
                kind,
                meta: repaired,
            } => {
                report.repaired += 1;
                let damaged_len = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                let reclaimed = damaged_len.saturating_sub(image.len() as u64);
                report.bytes_reclaimed += reclaimed;
                new_manifest.segments.push(repaired);
                writes.push((path, image));
                match kind {
                    RepairKind::Tail => SegmentHealth::RepairedTail {
                        bytes_reclaimed: reclaimed,
                    },
                    RepairKind::Columns => SegmentHealth::RepairedColumns,
                }
            }
            Verdict::Quarantine { reason } => {
                report.quarantined += 1;
                manifest_dirty = true;
                new_manifest
                    .quarantined
                    .get_or_insert_with(Vec::new)
                    .push(QuarantinedSegment {
                        meta: meta.clone(),
                        reason: reason.into(),
                    });
                SegmentHealth::Quarantined {
                    reason: reason.into(),
                }
            }
        };
        report.checks.push(SegmentCheckReport {
            file: meta.file.clone(),
            bundles: meta.bundles,
            health,
        });
    }

    report.bundles_served = new_manifest.total_bundles();
    report.bundles_quarantined = new_manifest.total_quarantined_bundles();

    if repair_mode {
        for (path, image) in writes {
            write_segment_file(&path, &image)?;
            report.changed = true;
        }
        if manifest_dirty || !had_manifest {
            new_manifest.save(dir)?;
            report.changed = true;
        }
    }
    Ok(report)
}

fn count_tmp_files(dir: &Path) -> std::io::Result<u64> {
    let mut n = 0;
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().is_some_and(|e| e == "tmp") && path.is_file() {
            n += 1;
        }
    }
    Ok(n)
}

/// Rebuild a manifest from the segment files on disk, trusting each
/// file's own footer. Damaged files stay listed (they will be repaired
/// or quarantined by the main pass, which re-examines every entry).
fn synthesize_manifest(dir: &Path) -> std::io::Result<Manifest> {
    let mut files: Vec<String> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = match path.file_name().and_then(|n| n.to_str()) {
            Some(n) => n.to_string(),
            None => continue,
        };
        if crate::manifest::parse_segment_index(&name).is_some() {
            files.push(name);
        }
    }
    files.sort();
    let mut manifest = Manifest::new();
    for file in files {
        let image = std::fs::read(dir.join(&file))?;
        let meta = match decode_segment(&image) {
            Ok((_, footer)) => meta_of(&file, &footer, image.len()),
            Err(_) => match recover_by_footer(&image) {
                // Trust the last fully-verifying prefix; the main pass
                // re-checks against this entry and performs the repair.
                Some((end, footer)) => meta_of(&file, &footer, end),
                // Unknown content: synthesize an entry so the main pass
                // quarantines it explicitly instead of forgetting it.
                None => SegmentMeta {
                    file: file.clone(),
                    bundles: 0,
                    details: 0,
                    polls: 0,
                    min_slot: u64::MAX,
                    max_slot: 0,
                    bytes: image.len() as u64,
                    checksum: "unrecoverable".into(),
                },
            },
        };
        manifest.segments.push(meta);
    }
    Ok(manifest)
}

fn meta_of(file: &str, footer: &SegmentFooter, bytes: usize) -> SegmentMeta {
    SegmentMeta {
        file: file.into(),
        bundles: footer.bundles as u64,
        details: footer.details as u64,
        polls: footer.polls as u64,
        min_slot: footer.min_slot,
        max_slot: footer.max_slot,
        bytes: bytes as u64,
        checksum: format!("{:016x}", footer.checksum),
    }
}

/// Examine one segment image against its manifest entry (or, with no
/// entry, against its own footer) and decide clean / rebuild /
/// quarantine.
pub(crate) fn check_segment(image: &[u8], meta: Option<&SegmentMeta>) -> Verdict {
    // Fast path: the image verifies end to end on its own.
    if let Ok((_, footer)) = decode_segment(image) {
        let derived = meta_of(
            meta.map(|m| m.file.as_str()).unwrap_or(""),
            &footer,
            image.len(),
        );
        return match meta {
            None => Verdict::Clean { meta: derived },
            Some(m) => {
                let matches = m.checksum == derived.checksum
                    && m.bundles == derived.bundles
                    && m.details == derived.details
                    && m.polls == derived.polls
                    && m.bytes == derived.bytes;
                if matches {
                    Verdict::Clean { meta: m.clone() }
                } else {
                    // A valid segment that is not the one the manifest
                    // sealed: substituted or silently rewritten.
                    Verdict::Quarantine {
                        reason: "manifest_mismatch",
                    }
                }
            }
        };
    }

    match meta {
        Some(m) => check_against_meta(image, m),
        None => match recover_by_footer(image) {
            Some((end, footer)) => {
                let new_image = image[..end].to_vec();
                let meta = meta_of("", &footer, end);
                Verdict::Rebuild {
                    image: new_image,
                    kind: RepairKind::Tail,
                    meta,
                }
            }
            None => Verdict::Quarantine {
                reason: "body_corrupt",
            },
        },
    }
}

/// The provable-recovery path: the manifest's body checksum is the seal
/// ground truth, so search the file for the byte prefix (after the magic)
/// whose rolling FNV-1a hash equals it. If found and decodable, the
/// canonical re-encode reproduces the sealed file bit for bit.
fn check_against_meta(image: &[u8], meta: &SegmentMeta) -> Verdict {
    let Ok(target) = u64::from_str_radix(&meta.checksum, 16) else {
        return Verdict::Quarantine {
            reason: "manifest_mismatch",
        };
    };
    // The current version's leading magic, or — when that is damaged —
    // its trailing footer magic. Anything else is not a segment.
    if !image.starts_with(SEGMENT_MAGIC) && !image.ends_with(FOOTER_MAGIC) {
        return Verdict::Quarantine {
            reason: "bad_magic",
        };
    }
    let kind = if columnar_only_damage(image) {
        RepairKind::Columns
    } else {
        RepairKind::Tail
    };
    let sections = if image.len() > 8 {
        &image[8..]
    } else {
        &[][..]
    };
    for body_len in body_lengths_matching(sections, target) {
        let Ok(data) = decode_body(&sections[..body_len]) else {
            // An FNV collision that does not decode: keep searching.
            continue;
        };
        if data.bundles.len() as u64 != meta.bundles
            || data.details.len() as u64 != meta.details
            || data.polls.len() as u64 != meta.polls
        {
            return Verdict::Quarantine {
                reason: "count_mismatch",
            };
        }
        let (new_image, footer) = encode_segment(&data);
        // The re-encode must reproduce the sealed file exactly —
        // same checksum, same size — or the repair proves nothing.
        if format!("{:016x}", footer.checksum) != meta.checksum
            || new_image.len() as u64 != meta.bytes
        {
            return Verdict::Quarantine {
                reason: "reencode_unstable",
            };
        }
        return Verdict::Rebuild {
            image: new_image,
            kind,
            meta: meta.clone(),
        };
    }
    // The sealed body bytes are not present in the file: the damage
    // reaches into the body, which is unrecoverable.
    Verdict::Quarantine {
        reason: "body_corrupt",
    }
}

/// Every prefix length of `bytes` whose FNV-1a 64 hash equals `target`
/// (rolling hash: one pass, all candidates).
fn body_lengths_matching(bytes: &[u8], target: u64) -> Vec<usize> {
    let mut out = Vec::new();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    if hash == target {
        out.push(0);
    }
    for (i, &b) in bytes.iter().enumerate() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        if hash == target {
            out.push(i + 1);
        }
    }
    out
}

/// Footer intact, section lengths consistent, body checksum good —
/// i.e. the damage is confined to the columnar fast-path section.
fn columnar_only_damage(image: &[u8]) -> bool {
    if image.len() < 8 + FOOTER_LEN || &image[..8] != SEGMENT_MAGIC {
        return false;
    }
    let Ok(footer) = SegmentFooter::from_bytes(&image[image.len() - FOOTER_LEN..]) else {
        return false;
    };
    let sections = (image.len() - 8 - FOOTER_LEN) as u64;
    let Some(total) = footer.body_len.checked_add(footer.col_len) else {
        return false;
    };
    if total != sections || footer.col_len == 0 {
        return false;
    }
    let body = &image[8..8 + footer.body_len as usize];
    fnv1a64(body) == footer.checksum
}

/// Torn-tail detection without a manifest entry: the longest prefix that
/// ends in a footer magic and fully verifies (checksums and counts).
fn recover_by_footer(image: &[u8]) -> Option<(usize, SegmentFooter)> {
    for end in (8..=image.len()).rev() {
        let prefix = &image[..end];
        if !prefix.ends_with(FOOTER_MAGIC) {
            continue;
        }
        if let Ok((_, footer)) = decode_segment(prefix) {
            return Some((end, footer));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::{flip_byte, truncate_to, zero_tail};
    use crate::records::CollectedBundle;
    use crate::store::{BundleStore, StoreWriter};
    use sandwich_types::{Hash, Keypair, Lamports, Slot};
    use std::path::PathBuf;

    fn bundle(seed: u64, slot: u64) -> CollectedBundle {
        let kp = Keypair::from_label("doctor");
        CollectedBundle {
            bundle_id: Hash::digest(&seed.to_le_bytes()),
            slot: Slot(slot),
            timestamp_ms: slot * 400,
            tip: Lamports(seed * 1000),
            tx_ids: vec![kp.sign(&seed.to_le_bytes())],
        }
    }

    fn store_with_two_segments(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("swdoctor-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut w = StoreWriter::create(&dir).unwrap();
        w.seal_segment(vec![bundle(1, 10), bundle(2, 20)], vec![], vec![])
            .unwrap();
        w.seal_segment(vec![bundle(3, 30), bundle(4, 40)], vec![], vec![])
            .unwrap();
        dir
    }

    #[test]
    fn clean_store_is_healthy() {
        let dir = store_with_two_segments("clean");
        let report = diagnose(&dir).unwrap();
        assert!(report.healthy());
        assert_eq!(report.clean, 2);
        assert_eq!(report.bundles_served, 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn columnar_flip_is_repaired_byte_identically() {
        let dir = store_with_two_segments("colflip");
        let path = dir.join("seg-00000.seg");
        let sealed = std::fs::read(&path).unwrap();
        // Flip a byte inside the columnar section (body is intact).
        let parsed = crate::segment::parse_segment(&sealed).unwrap();
        let col_mid = parsed.columns.start + 3;
        flip_byte(&path, col_mid as u64).unwrap();

        let report = repair(&dir).unwrap();
        assert_eq!(report.repaired, 1);
        assert_eq!(report.quarantined, 0);
        assert!(matches!(
            report.checks[0].health,
            SegmentHealth::RepairedColumns
        ));
        assert_eq!(std::fs::read(&path).unwrap(), sealed, "bit-for-bit repair");
        // The manifest (and thus the store generation) is untouched.
        assert!(diagnose(&dir).unwrap().healthy());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_repaired_byte_identically() {
        let dir = store_with_two_segments("torn");
        let path = dir.join("seg-00001.seg");
        let sealed = std::fs::read(&path).unwrap();
        let parsed = crate::segment::parse_segment(&sealed).unwrap();
        // Tear into the columnar section: the body stays whole.
        truncate_to(&path, (parsed.body.end + 4) as u64).unwrap();

        let report = repair(&dir).unwrap();
        assert_eq!(report.repaired, 1);
        assert!(report.bytes_reclaimed > 0 || sealed.len() as u64 >= report.bytes_reclaimed);
        assert_eq!(std::fs::read(&path).unwrap(), sealed);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zeroed_footer_is_repaired() {
        let dir = store_with_two_segments("zfoot");
        let path = dir.join("seg-00000.seg");
        let sealed = std::fs::read(&path).unwrap();
        zero_tail(&path, 20).unwrap();
        let report = repair(&dir).unwrap();
        assert_eq!(report.repaired, 1);
        assert_eq!(std::fs::read(&path).unwrap(), sealed);

        // A footer with one flipped bit (rot, not a lost write) is repaired
        // the same way: the body re-encodes to the manifest's checksum.
        flip_byte(&path, sealed.len() as u64 - 20).unwrap();
        let report = repair(&dir).unwrap();
        assert_eq!((report.repaired, report.quarantined), (1, 0));
        assert_eq!(std::fs::read(&path).unwrap(), sealed);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damaged_leading_magic_beside_an_intact_footer_is_repaired() {
        let dir = store_with_two_segments("magic");
        let path = dir.join("seg-00000.seg");
        let sealed = std::fs::read(&path).unwrap();
        flip_byte(&path, 0).unwrap();
        let report = repair(&dir).unwrap();
        assert_eq!((report.repaired, report.quarantined), (1, 0));
        assert_eq!(std::fs::read(&path).unwrap(), sealed);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn body_damage_is_quarantined_with_exact_accounting() {
        let dir = store_with_two_segments("bodyflip");
        let path = dir.join("seg-00000.seg");
        let sealed = std::fs::read(&path).unwrap();
        let parsed = crate::segment::parse_segment(&sealed).unwrap();
        flip_byte(&path, (parsed.body.start + parsed.body.len() / 2) as u64).unwrap();

        let report = repair(&dir).unwrap();
        assert_eq!(report.quarantined, 1);
        assert_eq!(report.bundles_quarantined, 2);
        assert_eq!(report.bundles_served, 2);

        // The store still opens and serves the surviving segment; the
        // quarantined one is on the books with its reason.
        let store = BundleStore::open(&dir).unwrap();
        assert_eq!(store.segments().len(), 1);
        assert_eq!(store.manifest().quarantined().len(), 1);
        assert_eq!(store.manifest().quarantined()[0].reason, "body_corrupt");
        assert_eq!(store.manifest().total_quarantined_bundles(), 2);
        // A later doctor run reports the standing quarantine but changes
        // nothing further.
        let again = repair(&dir).unwrap();
        assert_eq!(again.quarantined, 0);
        assert_eq!(again.already_quarantined, 1);
        assert!(!again.changed);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_segment_file_is_quarantined() {
        let dir = store_with_two_segments("gone");
        std::fs::remove_file(dir.join("seg-00001.seg")).unwrap();
        let report = repair(&dir).unwrap();
        assert_eq!(report.quarantined, 1);
        assert!(matches!(
            &report.checks[1].health,
            SegmentHealth::Quarantined { reason } if reason == "missing_file"
        ));
        // The loss is on the books exactly: the victim's two bundles are
        // quarantined, the other segment's two are still served.
        assert_eq!(report.bundles_quarantined, 2);
        assert_eq!(report.bundles_served, 2);
        let store = BundleStore::open(&dir).unwrap();
        assert_eq!(store.segments().len(), 1);
        assert_eq!(store.manifest().total_bundles(), 2);
        assert_eq!(store.manifest().total_quarantined_bundles(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unreadable_manifest_is_rebuilt_from_segments() {
        let dir = store_with_two_segments("rebuild");
        std::fs::write(dir.join(MANIFEST_FILE), b"{ not json").unwrap();
        let report = repair(&dir).unwrap();
        assert!(report.manifest_rebuilt);
        assert_eq!(report.clean, 2);
        let store = BundleStore::open(&dir).unwrap();
        assert_eq!(store.segments().len(), 2);
        assert_eq!(store.manifest().total_bundles(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn diagnose_never_writes() {
        let dir = store_with_two_segments("readonly");
        let path = dir.join("seg-00000.seg");
        flip_byte(&path, 9).unwrap();
        let damaged = std::fs::read(&path).unwrap();
        let manifest_before = std::fs::read(dir.join(MANIFEST_FILE)).unwrap();
        let report = diagnose(&dir).unwrap();
        assert!(!report.changed);
        assert_eq!(std::fs::read(&path).unwrap(), damaged);
        assert_eq!(
            std::fs::read(dir.join(MANIFEST_FILE)).unwrap(),
            manifest_before
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
