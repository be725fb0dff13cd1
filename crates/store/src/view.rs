//! Zero-copy segment access: a memory-mapped segment image plus lazy
//! decoding driven by the columnar section.
//!
//! [`SegmentView::open`] maps the file, validates both checksums, and
//! locates the interning table and the columnar section — but decodes no
//! records. A scan then classifies every bundle from the columns alone
//! and decodes a record only when a pre-filter says the full detector
//! must run ([`SegmentView::bundle_record`] / [`SegmentView::detail`]).
//! The interning table is resolved in place: [`SegmentView::key_at`]
//! reads 32 bytes at a fixed stride instead of materializing a `Vec`.

use std::ops::Range;
use std::path::Path;

use sandwich_types::{Hash, Pubkey, Signature, Slot};

use crate::codec::{self, decode_body, decode_poll_section, CorruptSegment, SegmentData};
use crate::column::{decode_columns, Columns};
use crate::mmap::Mapped;
use crate::records::{CollectedDetail, PollRecord};
use crate::segment::{check_counts, parse_segment, SegmentFooter};

/// A bundle record decoded on demand from a view — the fields the
/// candidate path needs (slot and tip come from the columns; the
/// timestamp is never reconstructed).
#[derive(Clone, Debug)]
pub struct ViewBundle {
    /// The bundle id (stored or derived).
    pub bundle_id: Hash,
    /// Transaction ids in bundle order.
    pub tx_ids: Vec<Signature>,
}

/// A sealed segment, memory-mapped and checksum-verified, ready for
/// lazy decoding.
pub struct SegmentView {
    map: Mapped,
    footer: SegmentFooter,
    body: Range<usize>,
    columns: Range<usize>,
    key_count: u64,
    keys_at: usize,
}

impl SegmentView {
    /// Map and validate a segment file. Both the body and columnar
    /// checksums are verified here, so every scan of a view re-checks
    /// segment integrity end to end.
    pub fn open(path: &Path) -> std::io::Result<SegmentView> {
        let map = Mapped::open(path)?;
        let corrupt =
            |e: CorruptSegment| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string());
        let parsed = parse_segment(&map).map_err(corrupt)?;
        let body = &map[parsed.body.clone()];
        let mut pos = 0usize;
        let key_count = crate::varint::get_u64(body, &mut pos).map_err(|e| corrupt(e.into()))?;
        if key_count > body.len() as u64 / 32 {
            return Err(corrupt(CorruptSegment(format!(
                "pubkey table count {key_count} exceeds body"
            ))));
        }
        let keys_at = pos;
        Ok(SegmentView {
            footer: parsed.footer,
            body: parsed.body,
            columns: parsed.columns,
            key_count,
            keys_at,
            map,
        })
    }

    /// The validated footer.
    pub fn footer(&self) -> &SegmentFooter {
        &self.footer
    }

    /// Whether the image is an actual file mapping (false = heap fallback).
    pub fn is_mapped(&self) -> bool {
        self.map.is_mapped()
    }

    /// The encoded body bytes.
    pub fn body(&self) -> &[u8] {
        &self.map[self.body.clone()]
    }

    /// Decode the columnar section into `cols`, reusing its buffers.
    pub fn read_columns(&self, cols: &mut Columns) -> Result<(), CorruptSegment> {
        decode_columns(&self.map[self.columns.clone()], cols)
    }

    /// Pubkey `i` of the interning table, read in place.
    pub fn key_at(&self, i: u64) -> Result<Pubkey, CorruptSegment> {
        if i >= self.key_count {
            return Err(CorruptSegment(format!("pubkey index {i} out of table")));
        }
        let at = self.keys_at + 32 * i as usize;
        let mut arr = [0u8; 32];
        arr.copy_from_slice(&self.body()[at..at + 32]);
        Ok(Pubkey(arr))
    }

    /// Decode bundle `i` on demand (id and tx ids only — slot and tip are
    /// already in the columns).
    pub fn bundle_record(&self, cols: &Columns, i: usize) -> Result<ViewBundle, CorruptSegment> {
        let body = self.body();
        let mut pos = offset_at(&cols.bundle_off, i, body.len())?;
        let brief = codec::decode_bundle_brief(body, &mut pos)?;
        let mut tx_ids = Vec::with_capacity(brief.tx_count);
        for p in 0..brief.tx_count {
            tx_ids.push(brief.tx(body, p).expect("p < tx_count, bounds checked"));
        }
        Ok(ViewBundle {
            bundle_id: brief.bundle_id(body)?,
            tx_ids,
        })
    }

    /// Decode detail `i` on demand. Shares the record decoder with the
    /// sequential path; the delta context comes from the columns instead
    /// of a left-to-right walk.
    pub fn detail(&self, cols: &Columns, i: usize) -> Result<CollectedDetail, CorruptSegment> {
        let body = self.body();
        let mut pos = offset_at(&cols.detail_off, i, body.len())?;
        let prev_slot = if i > 0 {
            cols.detail_slot[i - 1] as i64
        } else {
            0
        };
        let briefs = ViewBriefs { body, cols };
        let key_at = |k: u64| self.key_at(k);
        codec::decode_detail_record(body, &mut pos, prev_slot, &briefs, &key_at)
    }

    /// Decode only the transaction meta of detail `i` — what the detector
    /// consumes. Skips resolving the detail's bundle id, which for derived
    /// ids costs a hash per record.
    pub fn detail_meta(
        &self,
        cols: &Columns,
        i: usize,
    ) -> Result<sandwich_ledger::TransactionMeta, CorruptSegment> {
        let body = self.body();
        let mut pos = offset_at(&cols.detail_off, i, body.len())?;
        let prev_slot = if i > 0 {
            cols.detail_slot[i - 1] as i64
        } else {
            0
        };
        let briefs = ViewBriefs { body, cols };
        let key_at = |k: u64| self.key_at(k);
        codec::decode_detail_meta(body, &mut pos, prev_slot, &briefs, &key_at)
    }

    /// Decode the poll section (it sits at a known offset, after the last
    /// detail record).
    pub fn polls(&self, cols: &Columns) -> Result<Vec<PollRecord>, CorruptSegment> {
        let body = self.body();
        let mut pos = offset_at(&[cols.polls_offset], 0, body.len())?;
        let polls = decode_poll_section(body, &mut pos)?;
        if pos != body.len() {
            return Err(CorruptSegment(format!(
                "{} trailing bytes after records",
                body.len() - pos
            )));
        }
        Ok(polls)
    }

    /// Fully decode the segment (the materializing path — used when the
    /// scan needs every record).
    pub fn decode_all(&self) -> Result<SegmentData, CorruptSegment> {
        let data = decode_body(self.body())?;
        check_counts(&data, &self.footer)?;
        Ok(data)
    }
}

fn offset_at(offsets: &[u64], i: usize, body_len: usize) -> Result<usize, CorruptSegment> {
    let off = *offsets
        .get(i)
        .ok_or_else(|| CorruptSegment(format!("record index {i} out of columns")))?;
    if off >= body_len as u64 {
        return Err(CorruptSegment(format!("record offset {off} out of body")));
    }
    Ok(off as usize)
}

/// Bundle lookups for the shared detail decoder, resolved lazily from the
/// columns plus an in-place parse of the referenced bundle record.
struct ViewBriefs<'a> {
    body: &'a [u8],
    cols: &'a Columns,
}

impl ViewBriefs<'_> {
    fn brief_at(&self, index: usize) -> Option<codec::BundleBrief> {
        let mut pos = offset_at(&self.cols.bundle_off, index, self.body.len()).ok()?;
        codec::decode_bundle_brief(self.body, &mut pos).ok()
    }
}

impl codec::BundleBriefs for ViewBriefs<'_> {
    fn brief(&self, index: usize) -> Option<(Slot, usize)> {
        let brief = self.brief_at(index)?;
        Some((Slot(*self.cols.slot.get(index)?), brief.tx_count))
    }

    fn id(&self, index: usize) -> Option<Hash> {
        self.brief_at(index)?.bundle_id(self.body).ok()
    }

    fn tx_at(&self, index: usize, p: usize) -> Option<Signature> {
        self.brief_at(index)?.tx(self.body, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::CollectedBundle;
    use crate::segment::{encode_segment, write_segment_file};
    use crate::store::StoreWriter;
    use sandwich_ledger::{SolDelta, TransactionMeta};
    use sandwich_types::{Keypair, LamportDelta, Lamports};

    fn sample() -> SegmentData {
        let kp = Keypair::from_label("view");
        let tx_ids: Vec<_> = (0..3u64).map(|i| kp.sign(&i.to_le_bytes())).collect();
        let bundle_id = sandwich_jito::bundle_id_of(&tx_ids);
        SegmentData {
            bundles: vec![
                CollectedBundle {
                    bundle_id,
                    slot: Slot(100),
                    timestamp_ms: 40_000,
                    tip: Lamports(5_000),
                    tx_ids: tx_ids.clone(),
                },
                CollectedBundle {
                    bundle_id: Hash::digest(b"v2"),
                    slot: Slot(110),
                    timestamp_ms: 44_000,
                    tip: Lamports(80_000),
                    tx_ids: vec![kp.sign(b"solo")],
                },
            ],
            details: vec![CollectedDetail {
                bundle_id,
                slot: Slot(100),
                meta: TransactionMeta {
                    tx_id: tx_ids[1],
                    signer: kp.pubkey(),
                    fee: Lamports(5_000),
                    priority_fee: Lamports::ZERO,
                    success: true,
                    error: None,
                    sol_deltas: vec![SolDelta {
                        account: kp.pubkey(),
                        delta: LamportDelta(-9_000),
                    }],
                    token_deltas: vec![],
                },
            }],
            polls: vec![PollRecord {
                day: 0,
                fetched: 2,
                new: 2,
                overlapped_previous: false,
            }],
        }
    }

    fn write_tmp(tag: &str, image: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("swview-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg-00000.seg");
        write_segment_file(&path, image).unwrap();
        path
    }

    #[test]
    fn lazy_access_equals_full_decode() {
        let data = sample();
        let (image, _) = encode_segment(&data);
        let path = write_tmp("lazy", &image);
        let view = SegmentView::open(&path).unwrap();

        let mut cols = Columns::default();
        view.read_columns(&mut cols).unwrap();
        assert_eq!(cols.slot, vec![100, 110]);
        assert_eq!(cols.tip, vec![5_000, 80_000]);
        assert_eq!(cols.tx_count, vec![3, 1]);

        for (i, b) in data.bundles.iter().enumerate() {
            let v = view.bundle_record(&cols, i).unwrap();
            assert_eq!(v.bundle_id, b.bundle_id);
            assert_eq!(v.tx_ids, b.tx_ids);
        }
        for (i, d) in data.details.iter().enumerate() {
            assert_eq!(&view.detail(&cols, i).unwrap(), d);
        }
        assert_eq!(view.polls(&cols).unwrap(), data.polls);
        assert_eq!(view.decode_all().unwrap(), data);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn store_open_view_checks_the_manifest() {
        let dir = std::env::temp_dir().join(format!("swview-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut w = StoreWriter::create(&dir).unwrap();
        let data = sample();
        w.seal_segment(
            data.bundles.clone(),
            data.details.clone(),
            data.polls.clone(),
        )
        .unwrap();
        let store = w.into_reader();
        let view = store.open_view(0).unwrap();
        assert_eq!(view.footer().bundles, 2);
        assert!(store.open_view(1).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interned_keys_resolve_in_place() {
        let data = sample();
        let (image, _) = encode_segment(&data);
        let path = write_tmp("keys", &image);
        let view = SegmentView::open(&path).unwrap();
        assert_eq!(
            view.key_at(0).unwrap(),
            Keypair::from_label("view").pubkey()
        );
        assert!(view.key_at(99).is_err());
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }
}
