//! Segment files: `header magic · encoded body · columnar section · fixed
//! footer`.
//!
//! The footer carries the body checksum, the slot range, the record
//! counts, and the section lengths, so a reader can validate a segment —
//! and a manifest can describe it — without decoding a single record.
//! Segments are written whole at seal time through the durable write
//! path (temp file + fsync + atomic rename + directory fsync, see
//! [`crate::crash`]), so a crash never leaves a half-written segment
//! under its final name: a segment either exists and verifies, or it
//! does not exist.
//!
//! One format exists (`SWSEG02` / `SWEND02`, see `docs/FORMAT.md` for the
//! normative spec): magic, body, the columnar fast-path section
//! ([`crate::column`]), and a 68-byte footer carrying the section's length
//! and its own FNV checksum. A file whose magics name any other version is
//! not a segment; `store doctor` quarantines it as `bad_magic`.

use std::ops::Range;
use std::path::Path;

use crate::codec::{decode_body, encode_body_with_layout, CorruptSegment, SegmentData};
use crate::column::build_columns;
use crate::crash::{write_durable_with, CrashPlan};

/// The current segment format version (the digit baked into the magics).
pub const FORMAT_VERSION: u8 = 2;

/// Leading file magic of the current version.
pub const SEGMENT_MAGIC: &[u8; 8] = b"SWSEG02\n";
/// Trailing file magic of the current version.
pub(crate) const FOOTER_MAGIC: &[u8; 8] = b"SWEND02\n";

/// Footer: checksum + min/max slot + 3 counts + body len + columnar len +
/// columnar checksum + magic.
pub(crate) const FOOTER_LEN: usize = 68;

/// FNV-1a 64-bit checksum — cheap, dependency-free, and plenty to catch
/// torn writes and bit rot (this is an integrity check, not a MAC).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The footer metadata of a sealed segment (also mirrored in the
/// manifest).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentFooter {
    /// FNV-1a 64 checksum of the encoded body.
    pub checksum: u64,
    /// Lowest bundle slot in the segment (`u64::MAX` when bundle-free).
    pub min_slot: u64,
    /// Highest bundle slot in the segment (0 when bundle-free).
    pub max_slot: u64,
    /// Bundle records.
    pub bundles: u32,
    /// Detail records.
    pub details: u32,
    /// Poll records.
    pub polls: u32,
    /// Encoded body length in bytes.
    pub body_len: u64,
    /// Columnar section length in bytes.
    pub col_len: u64,
    /// FNV-1a 64 checksum of the columnar section.
    pub col_checksum: u64,
}

impl SegmentFooter {
    fn to_bytes(self) -> [u8; FOOTER_LEN] {
        let mut out = [0u8; FOOTER_LEN];
        out[0..8].copy_from_slice(&self.checksum.to_le_bytes());
        out[8..16].copy_from_slice(&self.min_slot.to_le_bytes());
        out[16..24].copy_from_slice(&self.max_slot.to_le_bytes());
        out[24..28].copy_from_slice(&self.bundles.to_le_bytes());
        out[28..32].copy_from_slice(&self.details.to_le_bytes());
        out[32..36].copy_from_slice(&self.polls.to_le_bytes());
        out[36..44].copy_from_slice(&self.body_len.to_le_bytes());
        out[44..52].copy_from_slice(&self.col_len.to_le_bytes());
        out[52..60].copy_from_slice(&self.col_checksum.to_le_bytes());
        out[60..68].copy_from_slice(FOOTER_MAGIC);
        out
    }

    pub(crate) fn from_bytes(b: &[u8]) -> Result<Self, CorruptSegment> {
        let u64_at = |i: usize| u64::from_le_bytes(b[i..i + 8].try_into().unwrap());
        let u32_at = |i: usize| u32::from_le_bytes(b[i..i + 4].try_into().unwrap());
        if b.len() != FOOTER_LEN || &b[60..68] != FOOTER_MAGIC {
            return Err(CorruptSegment("bad footer magic".into()));
        }
        Ok(SegmentFooter {
            checksum: u64_at(0),
            min_slot: u64_at(8),
            max_slot: u64_at(16),
            bundles: u32_at(24),
            details: u32_at(28),
            polls: u32_at(32),
            body_len: u64_at(36),
            col_len: u64_at(44),
            col_checksum: u64_at(52),
        })
    }
}

/// A validated segment image carved into its sections: byte ranges into
/// the image for the body and the columnar section.
#[derive(Clone, Debug)]
pub struct ParsedSegment {
    /// The footer.
    pub footer: SegmentFooter,
    /// Byte range of the encoded body.
    pub body: Range<usize>,
    /// Byte range of the columnar section (never empty: it always holds
    /// its four counts).
    pub columns: Range<usize>,
}

fn footer_of(data: &SegmentData, body: &[u8], columns: &[u8]) -> SegmentFooter {
    SegmentFooter {
        checksum: fnv1a64(body),
        min_slot: data
            .bundles
            .iter()
            .map(|b| b.slot.0)
            .min()
            .unwrap_or(u64::MAX),
        max_slot: data.bundles.iter().map(|b| b.slot.0).max().unwrap_or(0),
        bundles: data.bundles.len() as u32,
        details: data.details.len() as u32,
        polls: data.polls.len() as u32,
        body_len: body.len() as u64,
        col_len: columns.len() as u64,
        col_checksum: fnv1a64(columns),
    }
}

/// Encode `data` into a complete current-version segment file image.
pub fn encode_segment(data: &SegmentData) -> (Vec<u8>, SegmentFooter) {
    let (body, layout) = encode_body_with_layout(data);
    let columns = build_columns(data, &layout);
    let footer = footer_of(data, &body, &columns);
    let mut file =
        Vec::with_capacity(SEGMENT_MAGIC.len() + body.len() + columns.len() + FOOTER_LEN);
    file.extend_from_slice(SEGMENT_MAGIC);
    file.extend_from_slice(&body);
    file.extend_from_slice(&columns);
    file.extend_from_slice(&footer.to_bytes());
    (file, footer)
}

/// Validate a segment image and carve it into sections, without decoding
/// records. Checks both magics, the section lengths, and the body and
/// columnar checksums.
pub fn parse_segment(image: &[u8]) -> Result<ParsedSegment, CorruptSegment> {
    if !image.starts_with(SEGMENT_MAGIC) {
        return Err(CorruptSegment("bad segment magic".into()));
    }
    if image.len() < 8 + FOOTER_LEN {
        return Err(CorruptSegment("file shorter than magic + footer".into()));
    }
    let footer = SegmentFooter::from_bytes(&image[image.len() - FOOTER_LEN..])?;
    if footer.col_len == 0 {
        return Err(CorruptSegment("segment has no columnar section".into()));
    }
    let sections = (image.len() - 8 - FOOTER_LEN) as u64;
    if footer
        .body_len
        .checked_add(footer.col_len)
        .is_none_or(|total| total != sections)
    {
        return Err(CorruptSegment(format!(
            "sections are {sections} bytes, footer says {} body + {} columns",
            footer.body_len, footer.col_len
        )));
    }
    let body = 8..8 + footer.body_len as usize;
    let actual = fnv1a64(&image[body.clone()]);
    if actual != footer.checksum {
        return Err(CorruptSegment(format!(
            "checksum mismatch: body {actual:#018x}, footer {:#018x}",
            footer.checksum
        )));
    }
    let columns = body.end..body.end + footer.col_len as usize;
    let actual = fnv1a64(&image[columns.clone()]);
    if actual != footer.col_checksum {
        return Err(CorruptSegment(format!(
            "columnar checksum mismatch: section {actual:#018x}, footer {:#018x}",
            footer.col_checksum
        )));
    }
    Ok(ParsedSegment {
        footer,
        body,
        columns,
    })
}

/// Validate and fully decode a segment image. A corrupt segment surfaces
/// as an error here — garbage never reaches the scan.
pub fn decode_segment(image: &[u8]) -> Result<(SegmentData, SegmentFooter), CorruptSegment> {
    let parsed = parse_segment(image)?;
    let data = decode_body(&image[parsed.body])?;
    check_counts(&data, &parsed.footer)?;
    Ok((data, parsed.footer))
}

/// A decoded body holds exactly the record counts its footer declares.
pub(crate) fn check_counts(
    data: &SegmentData,
    footer: &SegmentFooter,
) -> Result<(), CorruptSegment> {
    if data.bundles.len() as u32 != footer.bundles
        || data.details.len() as u32 != footer.details
        || data.polls.len() as u32 != footer.polls
    {
        return Err(CorruptSegment("record counts disagree with footer".into()));
    }
    Ok(())
}

/// Crash-step boundaries of a segment image: chunk cuts at the magic
/// edge, the body quartiles, the section edges, and mid-footer, so an
/// enumerated crash matrix exercises a torn write inside every
/// structurally distinct region of the file.
fn section_boundaries(image: &[u8]) -> Vec<usize> {
    let mut cuts = vec![8];
    if let Ok(parsed) = parse_segment(image) {
        let body_len = parsed.body.end - parsed.body.start;
        for quarter in 1..4 {
            cuts.push(parsed.body.start + body_len * quarter / 4);
        }
        cuts.push(parsed.body.end);
        let cols = parsed.columns;
        cuts.push((cols.start + cols.end) / 2);
        cuts.push(cols.end);
        cuts.push((cols.end + image.len()) / 2);
    } else {
        // Unparseable image (never produced by the sealer): fall back to
        // quartile cuts.
        for quarter in 1..4 {
            cuts.push(image.len() * quarter / 4);
        }
    }
    cuts
}

/// Write a segment image to `path` durably (temp file + fsync + atomic
/// rename + directory fsync).
pub fn write_segment_file(path: &Path, image: &[u8]) -> std::io::Result<()> {
    write_segment_file_with(path, image, None)
}

/// [`write_segment_file`] with an optional [`CrashPlan`] threaded through
/// the durable write: every chunk (split at section boundaries), the file
/// fsync, the rename, and the directory fsync is one enumerated crash
/// step.
pub fn write_segment_file_with(
    path: &Path,
    image: &[u8],
    plan: Option<&mut CrashPlan>,
) -> std::io::Result<()> {
    write_durable_with(path, image, &section_boundaries(image), plan)
}

/// Read and decode a segment file.
pub fn read_segment_file(path: &Path) -> std::io::Result<(SegmentData, SegmentFooter)> {
    let image = std::fs::read(path)?;
    decode_segment(&image)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::{CollectedBundle, PollRecord};
    use sandwich_types::{Hash, Lamports, Slot};

    fn data() -> SegmentData {
        let kp = sandwich_types::Keypair::from_label("seg");
        SegmentData {
            bundles: (0..10)
                .map(|i| CollectedBundle {
                    bundle_id: Hash::digest(&[i]),
                    slot: Slot(1_000 + i as u64),
                    timestamp_ms: 400 * (1_000 + i as u64),
                    tip: Lamports(1_000 * i as u64),
                    tx_ids: vec![kp.sign(&[i])],
                })
                .collect(),
            details: vec![],
            polls: vec![PollRecord {
                day: 0,
                fetched: 10,
                new: 10,
                overlapped_previous: true,
            }],
        }
    }

    #[test]
    fn image_roundtrip() {
        let d = data();
        let (image, footer) = encode_segment(&d);
        assert_eq!(footer.min_slot, 1_000);
        assert_eq!(footer.max_slot, 1_009);
        assert_eq!(footer.bundles, 10);
        assert!(footer.col_len > 0);
        let (back, back_footer) = decode_segment(&image).unwrap();
        assert_eq!(back, d);
        assert_eq!(back_footer, footer);
        let parsed = parse_segment(&image).unwrap();
        assert_eq!(parsed.columns.len() as u64, footer.col_len);
    }

    #[test]
    fn every_flipped_byte_is_caught() {
        let (image, _) = encode_segment(&data());
        // Flip a byte in the magic, the body, the columnar section, and the
        // footer: all caught.
        for idx in [0, 8 + 3, image.len() - 5, image.len() / 2, image.len() - 80] {
            let mut bad = image.clone();
            bad[idx] ^= 0x40;
            assert!(
                decode_segment(&bad).is_err(),
                "flip at byte {idx} went unnoticed"
            );
        }
    }

    #[test]
    fn corrupt_columnar_section_is_rejected_by_checksum() {
        let (image, footer) = encode_segment(&data());
        let col_start = 8 + footer.body_len as usize;
        for off in 0..footer.col_len as usize {
            let mut bad = image.clone();
            bad[col_start + off] ^= 0x01;
            let err = parse_segment(&bad).unwrap_err();
            assert!(
                err.0.contains("columnar checksum") || err.0.contains("count"),
                "columnar flip at +{off} produced unexpected error: {err}"
            );
        }
    }

    #[test]
    fn a_footer_without_columns_is_rejected() {
        let (image, footer) = encode_segment(&data());
        let body_end = 8 + footer.body_len as usize;
        let mut bare = image[..body_end].to_vec();
        let bare_footer = SegmentFooter {
            col_len: 0,
            col_checksum: 0,
            ..footer
        };
        bare.extend_from_slice(&bare_footer.to_bytes());
        let err = parse_segment(&bare).unwrap_err();
        assert!(err.0.contains("no columnar section"), "{err}");
    }

    #[test]
    fn truncated_file_is_caught() {
        let (image, _) = encode_segment(&data());
        assert!(decode_segment(&image[..image.len() - 1]).is_err());
        assert!(decode_segment(&image[..4]).is_err());
    }

    #[test]
    fn atomic_write_then_read() {
        let dir = std::env::temp_dir().join(format!("swseg-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg-00000.seg");
        let d = data();
        let (image, _) = encode_segment(&d);
        write_segment_file(&path, &image).unwrap();
        let (back, _) = read_segment_file(&path).unwrap();
        assert_eq!(back, d);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
