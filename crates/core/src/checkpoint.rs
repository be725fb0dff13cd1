//! Checkpoint/resume for the measurement pipeline.
//!
//! A four-month collection must survive being killed. A checkpoint is one
//! header line carrying the poll cursor (the next tick to process), the
//! collector's health counters, and a *reference* to the segment store the
//! run seals into (its directory plus the sealed-segment manifest), followed
//! by the JSONL archive of whatever had not sealed yet. Sealed
//! segments are never re-serialized into the checkpoint and never re-read
//! on resume: the manifest entry is the segment, checksummed and on disk.
//! Resuming replays the simulation deterministically up to the cursor
//! without polling, reattaches the store writer (discarding any orphan
//! segments sealed after the checkpoint was written), and continues
//! collecting as if never interrupted.
//!
//! A checkpoint outlives its process only if its store does: one taken from
//! a run that sealed into its own scratch directory owns that directory, can
//! be resumed in-process, and refuses to be written out.

use std::io::{BufRead, Write};

use serde::{Deserialize, Serialize};

use sandwich_store::SegmentMeta;

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

/// The header line at the top of a checkpoint stream.
#[derive(Serialize, Deserialize)]
struct CheckpointHeader {
    checkpoint: CursorRecord,
}

#[derive(Serialize, Deserialize)]
struct CursorRecord {
    next_tick: u64,
    stats: CollectorStats,
    store: StoreCheckpoint,
}

impl Checkpoint {
    /// Serialize: one header line, then the residual dataset archive. A
    /// checkpoint that owns a scratch store is an `InvalidInput` error: the
    /// file would reference a directory that is removed with this value.
    pub fn write<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        if self.scratch.is_some() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a checkpoint of a run-owned scratch store cannot be written out: \
                 name a store directory in PipelineConfig.store",
            ));
        }
        let header = CheckpointHeader {
            checkpoint: CursorRecord {
                next_tick: self.next_tick,
                stats: self.stats,
                store: self.store.clone(),
            },
        };
        serde_json::to_writer(&mut w, &header)?;
        w.write_all(b"\n")?;
        self.dataset.write_jsonl(w)
    }

    /// [`Checkpoint::write`] straight to a file, durably (temp file +
    /// fsync + atomic rename + directory fsync): a crash mid-checkpoint
    /// leaves the previous checkpoint intact, never a torn one — which is
    /// the whole point of checkpointing.
    pub fn write_to_file(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        crate::dataset::write_file_durable(path.as_ref(), |w| self.write(w))
    }

    /// Reload a checkpoint file written by [`Checkpoint::write_to_file`].
    pub fn read_from_file(path: impl AsRef<std::path::Path>) -> std::io::Result<Checkpoint> {
        Checkpoint::read(std::io::BufReader::new(std::fs::File::open(path)?))
    }

    /// Reload a checkpoint written by [`Checkpoint::write`].
    pub fn read<R: BufRead>(mut r: R) -> std::io::Result<Checkpoint> {
        let mut first = String::new();
        r.read_line(&mut first)?;
        let header: CheckpointHeader = serde_json::from_str(first.trim())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        let dataset = Dataset::read_jsonl(r)?;
        Ok(Checkpoint {
            next_tick: header.checkpoint.next_tick,
            stats: header.checkpoint.stats,
            dataset,
            store: header.checkpoint.store,
            scratch: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn missing_header_is_an_error() {
        let garbage = b"{\"poll\":{}}\n".as_slice();
        assert!(Checkpoint::read(std::io::BufReader::new(garbage)).is_err());
    }
}
