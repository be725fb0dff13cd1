//! Checkpoint/resume for the measurement pipeline.
//!
//! A four-month collection must survive being killed. A checkpoint is one
//! checksummed file (`docs/FORMAT.md`): a JSON header line carrying the
//! poll cursor (the next tick to process), the collector's health counters
//! and a *reference* to the segment store the run seals into (its directory
//! plus the sealed-segment manifest); whatever had not sealed yet, as one
//! segment image in the store's codec; and the ids of the drained bundles.
//! Sealed segments are never re-serialized into the checkpoint and never
//! re-read on resume: the manifest entry is the segment, checksummed and
//! on disk.
//! Resuming replays the simulation deterministically up to the cursor
//! without polling, reattaches the store writer (discarding any orphan
//! segments sealed after the checkpoint was written), and continues
//! collecting as if never interrupted.
//!
//! A checkpoint outlives its process only if its store does: one taken from
//! a run that sealed into its own scratch directory owns that directory, can
//! be resumed in-process, and refuses to be written out.

use std::io::{self, BufRead, Write};

use serde::{Deserialize, Serialize};

use sandwich_store::segment::{decode_segment, encode_segment};
use sandwich_store::{crash, fnv1a64, SegmentMeta};
use sandwich_types::Hash;

use crate::collector::CollectorStats;
use crate::dataset::Dataset;
use crate::pipeline::ScratchDir;

/// A point-in-time snapshot of a measurement run.
pub struct Checkpoint {
    /// The first tick the resumed run should process.
    pub next_tick: u64,
    /// Collector health counters accumulated so far.
    pub stats: CollectorStats,
    /// The records that had not sealed yet, plus the dedup ids and totals
    /// of the ones that had.
    pub dataset: Dataset,
    /// The segment store the run was sealing into.
    pub store: StoreCheckpoint,
    /// Held when that store is the run's own scratch directory.
    pub(crate) scratch: Option<ScratchDir>,
}

/// A by-reference handle to a segment store: enough to reattach the writer
/// without reading any segment data.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StoreCheckpoint {
    /// Store directory (holds the manifest and the segment files).
    pub dir: String,
    /// Segments sealed when the checkpoint was taken. Resume truncates the
    /// on-disk manifest back to exactly this list.
    pub segments: Vec<SegmentMeta>,
}

/// The header line at the top of a checkpoint file.
#[derive(Serialize, Deserialize)]
struct Header {
    next_tick: u64,
    stats: CollectorStats,
    store: StoreCheckpoint,
    /// Bundles drained into sealed segments: one 32-byte id each follows
    /// the residue.
    bundles: u64,
    /// Details drained into sealed segments.
    details: u64,
    /// Leading polls of the ledger already copied into a sealed segment.
    polls_spilled: u64,
    /// Highest slot ever ingested, resident or drained.
    max_slot: Option<u64>,
    /// Length of the residue's segment image.
    residue_bytes: u64,
}

fn invalid(message: impl ToString) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_string())
}

impl Checkpoint {
    /// The file: header line, residue image, drained ids, trailer. A
    /// checkpoint that owns a scratch store is an `InvalidInput` error: the
    /// file would reference a directory that is removed with this value.
    fn encode(&self) -> io::Result<Vec<u8>> {
        if self.scratch.is_some() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a checkpoint of a run-owned scratch store cannot be written out: \
                 name a store directory in PipelineConfig.store",
            ));
        }
        let ds = &self.dataset;
        let (residue, _) = encode_segment(&ds.residue_with(ds.polls()));
        let drained = ds.drained_ids();
        let header = Header {
            next_tick: self.next_tick,
            stats: self.stats,
            store: self.store.clone(),
            bundles: drained.len() as u64,
            details: (ds.detail_count() - ds.details().len()) as u64,
            polls_spilled: (ds.polls().len() - ds.unspilled_polls().len()) as u64,
            max_slot: ds.newest_slot(),
            residue_bytes: residue.len() as u64,
        };
        let mut file = serde_json::to_vec(&header)?;
        file.push(b'\n');
        file.extend_from_slice(&residue);
        for id in drained {
            file.extend_from_slice(id.as_bytes());
        }
        file.extend_from_slice(&fnv1a64(&file).to_le_bytes());
        Ok(file)
    }

    /// Serialize into `w` (see the module docs for the layout).
    pub fn write<W: Write>(&self, mut w: W) -> io::Result<()> {
        w.write_all(&self.encode()?)
    }

    /// [`Checkpoint::write`] straight to a file, durably (temp file +
    /// fsync + atomic rename + directory fsync): a crash mid-checkpoint
    /// leaves the previous checkpoint intact, never a torn one — which is
    /// the whole point of checkpointing.
    pub fn write_to_file(&self, path: impl AsRef<std::path::Path>) -> io::Result<()> {
        crash::write_durable_with(path.as_ref(), &self.encode()?, &[], None)
    }

    /// Reload a checkpoint file written by [`Checkpoint::write_to_file`].
    pub fn read_from_file(path: impl AsRef<std::path::Path>) -> io::Result<Checkpoint> {
        Checkpoint::read(io::BufReader::new(std::fs::File::open(path)?))
    }

    /// Reload a checkpoint written by [`Checkpoint::write`]. The trailer is
    /// verified first, then the exact section lengths the header declares;
    /// a torn or altered file is `InvalidData`, never a partial dataset.
    pub fn read<R: BufRead>(mut r: R) -> io::Result<Checkpoint> {
        let mut file = Vec::new();
        r.read_to_end(&mut file)?;
        let Some(body_len) = file.len().checked_sub(8) else {
            return Err(invalid("no trailer"));
        };
        let (body, trailer) = file.split_at(body_len);
        if fnv1a64(body).to_le_bytes() != trailer {
            return Err(invalid("checkpoint checksum mismatch"));
        }
        let line = body.iter().position(|&b| b == b'\n');
        let line = line.ok_or_else(|| invalid("no header line"))?;
        let header: Header = serde_json::from_slice(&body[..line])?;
        let sections = &body[line + 1..];
        let ids_bytes = header.bundles.checked_mul(32);
        let declared = ids_bytes.and_then(|n| n.checked_add(header.residue_bytes));
        if declared != Some(sections.len() as u64) {
            return Err(invalid("checkpoint sections disagree with its header"));
        }
        let (residue, ids) = sections.split_at(header.residue_bytes as usize);
        let (residue, _) = decode_segment(residue).map_err(invalid)?;
        if header.polls_spilled > residue.polls.len() as u64 {
            return Err(invalid(format!(
                "{} polls spilled of a {}-poll ledger",
                header.polls_spilled,
                residue.polls.len()
            )));
        }
        let ids = ids.chunks_exact(32).map(|id| Hash(id.try_into().unwrap()));
        let dataset = Dataset::restore(
            residue,
            ids.collect(),
            header.details,
            header.polls_spilled as usize,
            header.max_slot,
        );
        Ok(Checkpoint {
            next_tick: header.next_tick,
            stats: header.stats,
            dataset,
            store: header.store,
            scratch: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sandwich_explorer::{BundleSummaryJson, TxDetailJson};
    use sandwich_types::{Keypair, SlotClock};

    fn checkpoint(next_tick: u64, stats: CollectorStats, segments: Vec<SegmentMeta>) -> Checkpoint {
        Checkpoint {
            next_tick,
            stats,
            dataset: Dataset::new(),
            store: StoreCheckpoint {
                dir: "/tmp/some-store".into(),
                segments,
            },
            scratch: None,
        }
    }

    #[test]
    fn roundtrip_preserves_cursor_and_stats() {
        let stats = CollectorStats {
            polls_ok: 12,
            polls_failed: 2,
            bundles_recovered: 40,
            ..Default::default()
        };
        let cp = checkpoint(77, stats, Vec::new());
        let mut buf = Vec::new();
        cp.write(&mut buf).unwrap();
        let back = Checkpoint::read(std::io::BufReader::new(&buf[..])).unwrap();
        assert_eq!(back.next_tick, 77);
        assert_eq!(back.stats, stats);
        assert!(back.dataset.is_empty());
        assert!(back.store.segments.is_empty());
    }

    #[test]
    fn roundtrip_preserves_store_reference() {
        let segment = SegmentMeta {
            file: "seg-00000.seg".into(),
            bundles: 10,
            details: 3,
            polls: 2,
            min_slot: 5,
            max_slot: 99,
            bytes: 1234,
            checksum: "00deadbeef00f00d".into(),
        };
        let cp = checkpoint(9, CollectorStats::default(), vec![segment]);
        let mut buf = Vec::new();
        cp.write(&mut buf).unwrap();
        let back = Checkpoint::read(std::io::BufReader::new(&buf[..])).unwrap();
        let store = back.store;
        assert_eq!(store.dir, "/tmp/some-store");
        assert_eq!(store.segments.len(), 1);
        assert_eq!(store.segments[0].file, "seg-00000.seg");
        assert_eq!(store.segments[0].checksum, "00deadbeef00f00d");
    }

    #[test]
    fn file_roundtrip_is_durable_and_atomic() {
        let dir = std::env::temp_dir().join(format!("swckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let cp = checkpoint(123, CollectorStats::default(), Vec::new());
        cp.write_to_file(&path).unwrap();
        assert!(!path.with_extension("tmp").exists(), "no temp residue");
        let back = Checkpoint::read_from_file(&path).unwrap();
        assert_eq!(back.next_tick, 123);
        // Overwrite in place: still atomic, still readable.
        let cp2 = checkpoint(456, CollectorStats::default(), Vec::new());
        cp2.write_to_file(&path).unwrap();
        assert_eq!(Checkpoint::read_from_file(&path).unwrap().next_tick, 456);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_tmp_path_is_refused_and_the_previous_checkpoint_kept() {
        let dir = std::env::temp_dir().join(format!("swckpt-tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.tmp");
        std::fs::write(&path, b"previous checkpoint").unwrap();
        let cp = checkpoint(1, CollectorStats::default(), Vec::new());
        let err = cp.write_to_file(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(std::fs::read(&path).unwrap(), b"previous checkpoint");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `body` with a valid trailer, as if the checksum were bypassed.
    fn sealed(mut body: Vec<u8>) -> Vec<u8> {
        body.extend_from_slice(&fnv1a64(&body).to_le_bytes());
        body
    }

    #[test]
    fn missing_header_is_an_error() {
        for garbage in [&b"{\"poll\":{}}\n"[..], b"not json at all\n", b""] {
            assert!(Checkpoint::read(garbage).is_err());
            assert!(Checkpoint::read(&sealed(garbage.to_vec())[..]).is_err());
        }
    }

    fn page_entry(seed: u64, slot: u64, len: usize) -> BundleSummaryJson {
        let kp = Keypair::from_label("ds");
        BundleSummaryJson {
            bundle_id: Hash::digest(&seed.to_le_bytes()),
            slot,
            timestamp_ms: slot * 400,
            tip_lamports: 1_000,
            transactions: (0..len)
                .map(|i| kp.sign(&(seed * 10 + i as u64).to_le_bytes()))
                .collect(),
        }
    }

    /// The detail of transaction `i` of bundle `seed`, carrying an i128
    /// token delta at the edge of what an i64 cannot hold.
    fn detail(seed: u64, slot: u64, i: u64) -> TxDetailJson {
        let kp = Keypair::from_label("ds");
        TxDetailJson {
            tx_id: kp.sign(&(seed * 10 + i).to_le_bytes()),
            bundle_id: Hash::digest(&seed.to_le_bytes()),
            slot,
            signer: kp.pubkey(),
            fee_lamports: 5_000,
            priority_fee_lamports: 0,
            success: true,
            sol_deltas: vec![],
            token_deltas: vec![sandwich_explorer::TokenDeltaJson {
                owner: kp.pubkey(),
                mint: sandwich_types::Pubkey::derive("m"),
                delta: -170_141_183_460_469_231_731_687_303_715i128,
            }],
        }
    }

    fn roundtrip(dataset: Dataset) -> (Vec<u8>, Dataset) {
        let mut cp = checkpoint(5, CollectorStats::default(), Vec::new());
        cp.dataset = dataset;
        let mut file = Vec::new();
        cp.write(&mut file).unwrap();
        let back = Checkpoint::read(&file[..]).unwrap();
        (file, back.dataset)
    }

    #[test]
    fn residue_roundtrip_preserves_everything() {
        let clock = SlotClock::default();
        let mut ds = Dataset::new();
        let page: Vec<_> = (0..5).rev().map(|i| page_entry(i, i * 10, 3)).collect();
        ds.ingest_page(&page, &clock, 0);
        // A late backfill page: collection order is no longer slot order.
        ds.ingest_backfill_page(&[page_entry(9, 5, 1)], &clock);
        let edge = detail(0, 0, 0);
        ds.ingest_details(&[Some(edge.clone())]);

        let (_, back) = roundtrip(ds);
        assert_eq!(back.len(), 6);
        assert_eq!(back.detail_count(), 1);
        assert_eq!(back.polls().len(), 1);
        assert_eq!(back.overlap_rate(), 1.0);
        let slots: Vec<u64> = back.resident().iter().map(|b| b.slot.0).collect();
        assert_eq!(
            slots,
            vec![0, 5, 10, 20, 30, 40],
            "chronological after reload"
        );
        assert_eq!(back.details()[&edge.tx_id].meta, edge.to_meta());
        assert_eq!(back.newest_slot(), Some(40));
    }

    #[test]
    fn reload_requeues_incomplete_details() {
        let clock = SlotClock::default();
        let mut ds = Dataset::new();
        let page: Vec<_> = (0..2).map(|i| page_entry(i, i, 3)).collect();
        ds.ingest_page(&page, &clock, 0);
        // Mark both requested but ingest the details of only one: after a
        // reload the other is pending again.
        let (_, marked) = ds.take_pending_details(3, 100);
        assert_eq!(marked.len(), 2);
        ds.ingest_details(&(0..3).map(|i| Some(detail(1, 1, i))).collect::<Vec<_>>());
        let (_, mut back) = roundtrip(ds);
        let (pending, marked) = back.take_pending_details(3, 100);
        assert_eq!(pending.len(), 3);
        assert_eq!(marked, vec![Hash::digest(&0u64.to_le_bytes())]);
    }

    /// Resident bundles of length 1 and 3 (one with its details), drained
    /// ids, a spilled poll and an unspilled one.
    fn drained_dataset() -> Dataset {
        let clock = SlotClock::default();
        let mut ds = Dataset::new();
        let page: Vec<_> = (0..6).map(|i| page_entry(i, i, 1)).collect();
        ds.ingest_page(&page, &clock, 0);
        let _ = ds.drain_unspilled_polls();
        let (drained, _) = ds.drain_sealable(&[3], 4, false);
        assert_eq!(drained.len(), 4);
        ds.ingest_page(&[page_entry(7, 7, 3)], &clock, 0);
        ds.ingest_details(&(0..3).map(|i| Some(detail(7, 7, i))).collect::<Vec<_>>());
        ds
    }

    #[test]
    fn roundtrip_preserves_drained_state() {
        let clock = SlotClock::default();
        let (_, mut back) = roundtrip(drained_dataset());
        assert_eq!(back.len(), 7);
        assert_eq!(back.resident().len(), 3, "only resident bundles rehydrate");
        assert_eq!(back.detail_count(), 3);
        assert_eq!(back.newest_slot(), Some(7));
        assert_eq!(back.polls().len(), 2);
        assert_eq!(back.unspilled_polls().len(), 1);
        assert!(!back.fully_spilled(), "three bundles remain");
        let _ = back.drain_unspilled_polls();
        assert!(back.unspilled_polls().is_empty());
        assert!(!back.fully_spilled());
        // Dedup still covers the drained ids.
        let page: Vec<_> = (0..6).map(|i| page_entry(i, i, 1)).collect();
        assert_eq!(back.ingest_page(&page, &clock, 0).new, 0);
    }

    #[test]
    fn polls_spilled_beyond_the_ledger_is_invalid_data() {
        let (file, _) = roundtrip(drained_dataset());
        let key = b"\"polls_spilled\":1,";
        let at = file.windows(key.len()).position(|w| w == key).unwrap();
        let mut forged = file[..file.len() - 8].to_vec();
        forged[at + key.len() - 2] = b'3';
        let Err(err) = Checkpoint::read(&sealed(forged)[..]) else {
            panic!("a two-poll ledger read back with three polls spilled");
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn every_truncation_and_byte_flip_is_an_error() {
        let (file, _) = roundtrip(drained_dataset());
        for cut in 0..file.len() {
            assert!(Checkpoint::read(&file[..cut]).is_err(), "cut at {cut}");
        }
        for at in 0..file.len() {
            for mask in [0x01, 0x80, 0xff] {
                let mut flipped = file.clone();
                flipped[at] ^= mask;
                assert!(
                    Checkpoint::read(&flipped[..]).is_err(),
                    "flip {mask:#x} at {at}"
                );
                // With the checksum bypassed, a flip is refused or parsed,
                // never a panic.
                let body = flipped[..file.len() - 8].to_vec();
                let _ = Checkpoint::read(&sealed(body)[..]);
            }
        }
    }
}
