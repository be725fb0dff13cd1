//! Deterministic crash injection for the durable-write path, plus the
//! durable-write primitive itself.
//!
//! Every durable artifact in the store (segment files, the manifest) is
//! written through [`write_durable_with`]: create a temp file, write the
//! image in section-aligned chunks, `fsync` the file, rename it into
//! place, and `fsync` the parent directory. Each of those operations is
//! one enumerated *crash step*. A [`CrashPlan`] — seeded and fully
//! deterministic, like the explorer's `FaultPlan` from the chaos layer —
//! can kill the writer at any step, in one of two flavours:
//!
//! * **clean kill** (process death): everything before the step is
//!   exactly as written; the step itself never happens. Unsynced bytes
//!   survive, because the page cache belongs to the kernel, not the
//!   process.
//! * **torn write** (power loss): unsynced state is partially lost. A
//!   crash during a chunk write leaves a seeded prefix of that chunk; a
//!   crash at file-fsync drops a seeded suffix of everything unsynced; a
//!   crash at directory-fsync may undo the rename itself (the directory
//!   entry was never durable), restoring the pre-rename destination.
//!
//! The same plan run in *counting* mode enumerates how many steps an
//! operation performs, so a test matrix can iterate every crash point
//! exhaustively. An injected crash surfaces as an [`std::io::Error`] of
//! kind [`std::io::ErrorKind::Interrupted`] (see [`is_injected_crash`]);
//! the harness treats the writer as dead from that point on, exactly as a
//! real crash would.
//!
//! The module also hosts the sealed-file mutators ([`flip_byte`],
//! [`truncate_to`], [`zero_tail`]) used by the doctor tests and the crash
//! bench to model bit rot and partial-page damage on already-durable
//! files.

use std::io::{ErrorKind, Write};
use std::path::Path;

/// Marker carried in the message of every injected-crash error.
const CRASH_MARKER: &str = "crash injected";

/// A deterministic plan for killing a durable write mid-flight.
///
/// Construct with [`CrashPlan::count`] to enumerate the steps of an
/// operation without crashing, or [`CrashPlan::crash_at`] to die at one
/// specific step. The plan is single-use: drive exactly one logical
/// operation (e.g. one `seal_segment` call) through it, then read
/// [`CrashPlan::steps_seen`] / [`CrashPlan::fired`].
#[derive(Debug)]
pub struct CrashPlan {
    /// `None` = counting mode (never fires).
    crash_step: Option<u64>,
    /// Torn-write (power loss) semantics instead of a clean process kill.
    torn: bool,
    /// Steps encountered so far; the next step has this ordinal.
    next_step: u64,
    /// xorshift64 state for torn-write randomness (the store crate is
    /// dependency-free, so it carries its own tiny generator).
    rng: u64,
    /// Description of the step the crash fired at, once it has.
    fired: Option<String>,
}

/// What a step should do, as decided by the plan.
enum Fire {
    Proceed,
    Clean,
    Torn,
}

impl CrashPlan {
    /// A plan that never crashes — used to count the steps of an
    /// operation so a matrix can enumerate `0..steps_seen()` crash points.
    pub fn count() -> CrashPlan {
        CrashPlan {
            crash_step: None,
            torn: false,
            next_step: 0,
            rng: 0x9e37_79b9_7f4a_7c15,
            fired: None,
        }
    }

    /// A plan that crashes at crash point `step` (0-based, in encounter
    /// order). `torn` selects power-loss semantics; `seed` drives every
    /// random choice the torn path makes.
    pub fn crash_at(step: u64, torn: bool, seed: u64) -> CrashPlan {
        // splitmix64 scramble so nearby seeds diverge immediately.
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        CrashPlan {
            crash_step: Some(step),
            torn,
            next_step: 0,
            rng: (z ^ (z >> 31)) | 1,
            fired: None,
        }
    }

    /// Steps encountered so far (after a counting run: the total number
    /// of crash points the operation exposes).
    pub fn steps_seen(&self) -> u64 {
        self.next_step
    }

    /// The step description the crash fired at, if it has fired.
    pub fn fired(&self) -> Option<&str> {
        self.fired.as_deref()
    }

    /// Draw the next torn-write random value.
    fn draw(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// Record one step and decide whether to crash at it.
    fn step(&mut self, op: &str) -> Fire {
        let ordinal = self.next_step;
        self.next_step += 1;
        if self.crash_step == Some(ordinal) {
            self.fired = Some(format!("step {ordinal} ({op})"));
            if self.torn {
                Fire::Torn
            } else {
                Fire::Clean
            }
        } else {
            Fire::Proceed
        }
    }
}

/// Is this error an injected crash (as opposed to a real I/O failure)?
pub fn is_injected_crash(err: &std::io::Error) -> bool {
    err.kind() == std::io::ErrorKind::Interrupted && err.to_string().contains(CRASH_MARKER)
}

fn crash_error(plan: &CrashPlan) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::Interrupted,
        format!(
            "{CRASH_MARKER} at {}",
            plan.fired.as_deref().unwrap_or("unknown step")
        ),
    )
}

/// Decide the fate of the next step. With no plan, always proceed.
fn check(plan: &mut Option<&mut CrashPlan>, op: &str) -> Fire {
    match plan {
        Some(p) => p.step(op),
        None => Fire::Proceed,
    }
}

/// `fsync` a directory so a just-renamed entry inside it is durable.
pub fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    std::fs::File::open(dir)?.sync_all()
}

/// Durably write `bytes` to `path`: temp file, chunked writes split at
/// `boundaries` (sorted offsets into `bytes`, each a crash point),
/// `fsync`, atomic rename, parent-directory `fsync`. With a [`CrashPlan`]
/// attached, every operation is an enumerated crash step and the
/// simulated on-disk state after an injected crash is exactly what the
/// chosen crash model leaves behind. A `*.tmp` `path` is refused untouched.
pub fn write_durable_with(
    path: &Path,
    bytes: &[u8],
    boundaries: &[usize],
    mut plan: Option<&mut CrashPlan>,
) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    if tmp == path {
        let message = format!("{} would be its own temp file", path.display());
        return Err(std::io::Error::new(ErrorKind::InvalidInput, message));
    }

    let mut f = match check(&mut plan, "create temp file") {
        Fire::Proceed => std::fs::File::create(&tmp)?,
        // Crash before the temp file exists: nothing on disk changed.
        Fire::Clean | Fire::Torn => return Err(crash_error(plan.as_deref().unwrap())),
    };

    let mut written = 0usize;
    for (i, chunk) in chunks_of(bytes, boundaries).into_iter().enumerate() {
        match check(&mut plan, &format!("write chunk {i}")) {
            Fire::Proceed => {
                f.write_all(chunk)?;
                written += chunk.len();
            }
            // Clean kill mid-write: the chunk was never handed to the
            // kernel (write_all is all-or-nothing at this granularity).
            Fire::Clean => return Err(crash_error(plan.as_deref().unwrap())),
            // Torn: a seeded prefix of the chunk made it to the page
            // cache before power was lost — and nothing was fsynced, so
            // model the surviving file directly.
            Fire::Torn => {
                let p = plan.as_deref_mut().unwrap();
                let keep = (p.draw() as usize) % (chunk.len() + 1);
                f.write_all(&chunk[..keep])?;
                drop(f);
                let survives = (p.draw() as usize) % (written + keep + 1);
                let tf = std::fs::OpenOptions::new().write(true).open(&tmp)?;
                tf.set_len(survives as u64)?;
                return Err(crash_error(plan.as_deref().unwrap()));
            }
        }
    }

    match check(&mut plan, "fsync temp file") {
        Fire::Proceed => f.sync_all()?,
        // Clean kill before fsync: the kernel still holds the pages; the
        // fully-written temp file survives the process.
        Fire::Clean => return Err(crash_error(plan.as_deref().unwrap())),
        // Power loss before fsync: a seeded suffix of the unsynced bytes
        // never reached the platter.
        Fire::Torn => {
            drop(f);
            let p = plan.as_deref_mut().unwrap();
            let survives = (p.draw() as usize) % (written + 1);
            let tf = std::fs::OpenOptions::new().write(true).open(&tmp)?;
            tf.set_len(survives as u64)?;
            return Err(crash_error(plan.as_deref().unwrap()));
        }
    }
    drop(f);

    // Capture the pre-rename destination so a torn directory-fsync crash
    // can restore it. Only the injection path pays for this read.
    let old_dest = match &plan {
        Some(_) if path.exists() => Some(std::fs::read(path)?),
        _ => None,
    };

    match check(&mut plan, "rename into place") {
        Fire::Proceed => std::fs::rename(&tmp, path)?,
        // Crash before rename: the synced temp file remains, the
        // destination is untouched. Same outcome for both flavours —
        // the rename either happened or it did not.
        Fire::Clean | Fire::Torn => return Err(crash_error(plan.as_deref().unwrap())),
    }

    match check(&mut plan, "fsync directory") {
        Fire::Proceed => {
            if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                fsync_dir(parent)?;
            }
        }
        // Clean kill after rename: the directory entry is in cache and
        // survives the process.
        Fire::Clean => return Err(crash_error(plan.as_deref().unwrap())),
        // Power loss before the directory fsync: the rename itself may
        // not be durable. A seeded coin decides whether the directory
        // entry was lost, which reverts the store to its pre-rename
        // state (new image back under the temp name, old destination
        // restored).
        Fire::Torn => {
            let p = plan.as_deref_mut().unwrap();
            if p.draw() % 2 == 1 {
                std::fs::write(&tmp, bytes)?;
                match old_dest {
                    Some(old) => std::fs::write(path, old)?,
                    None => {
                        let _ = std::fs::remove_file(path);
                    }
                }
            }
            return Err(crash_error(plan.as_deref().unwrap()));
        }
    }
    Ok(())
}

/// Split `bytes` at `boundaries` (offsets, need not be sorted or unique;
/// out-of-range and degenerate offsets are dropped).
fn chunks_of<'a>(bytes: &'a [u8], boundaries: &[usize]) -> Vec<&'a [u8]> {
    let mut cuts: Vec<usize> = boundaries
        .iter()
        .copied()
        .filter(|&b| b > 0 && b < bytes.len())
        .collect();
    cuts.sort_unstable();
    cuts.dedup();
    let mut out = Vec::with_capacity(cuts.len() + 1);
    let mut start = 0;
    for cut in cuts {
        out.push(&bytes[start..cut]);
        start = cut;
    }
    out.push(&bytes[start..]);
    out
}

/// Flip one bit of the byte at `offset` in a sealed file (bit-rot model).
pub fn flip_byte(path: &Path, offset: u64) -> std::io::Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    let mut f = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)?;
    f.seek(SeekFrom::Start(offset))?;
    let mut b = [0u8; 1];
    f.read_exact(&mut b)?;
    b[0] ^= 0x40;
    f.seek(SeekFrom::Start(offset))?;
    f.write_all(&b)?;
    f.sync_all()
}

/// Truncate a sealed file to `len` bytes (torn-tail model).
pub fn truncate_to(path: &Path, len: u64) -> std::io::Result<()> {
    let f = std::fs::OpenOptions::new().write(true).open(path)?;
    f.set_len(len)?;
    f.sync_all()
}

/// Zero the last `n` bytes of a sealed file without changing its length
/// (partial-page / unwritten-sector model).
pub fn zero_tail(path: &Path, n: u64) -> std::io::Result<()> {
    use std::io::{Seek, SeekFrom};
    let mut f = std::fs::OpenOptions::new().write(true).open(path)?;
    let len = f.metadata()?.len();
    let n = n.min(len);
    f.seek(SeekFrom::Start(len - n))?;
    f.write_all(&vec![0u8; n as usize])?;
    f.sync_all()
}

/// Remove every `*.tmp` file in `dir` (write-ahead leftovers from a
/// crashed writer). Returns how many were removed.
pub fn remove_stale_tmp_files(dir: &Path) -> std::io::Result<u64> {
    let mut removed = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "tmp") && path.is_file() {
            std::fs::remove_file(&path)?;
            removed += 1;
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("swcrash-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn counting_run_writes_and_counts() {
        let dir = tmp_dir("count");
        let path = dir.join("file.bin");
        let bytes: Vec<u8> = (0..=255).collect();
        let mut plan = CrashPlan::count();
        write_durable_with(&path, &bytes, &[64, 128, 192], Some(&mut plan)).unwrap();
        // create + 4 chunk writes + fsync + rename + dir fsync.
        assert_eq!(plan.steps_seen(), 8);
        assert!(plan.fired().is_none());
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_crash_point_leaves_old_destination_or_new_image() {
        let dir = tmp_dir("matrix");
        let path = dir.join("file.bin");
        let old: Vec<u8> = vec![0xAA; 100];
        let new: Vec<u8> = (0..=199).collect();
        let mut count = CrashPlan::count();
        std::fs::write(&path, &old).unwrap();
        write_durable_with(&path, &new, &[50, 100, 150], Some(&mut count)).unwrap();
        let total = count.steps_seen();
        assert!(total >= 8);

        for torn in [false, true] {
            for step in 0..total {
                for seed in [1u64, 7, 42] {
                    std::fs::write(&path, &old).unwrap();
                    let _ = std::fs::remove_file(path.with_extension("tmp"));
                    let mut plan = CrashPlan::crash_at(step, torn, seed);
                    let err = write_durable_with(&path, &new, &[50, 100, 150], Some(&mut plan))
                        .unwrap_err();
                    assert!(is_injected_crash(&err), "step {step}: {err}");
                    // The invariant durable writes exist to provide: the
                    // destination is always entirely-old or entirely-new.
                    let after = std::fs::read(&path).unwrap();
                    assert!(
                        after == old || after == new,
                        "torn={torn} step={step} seed={seed}: destination half-written"
                    );
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_tmp_destination_is_refused_and_left_intact() {
        let dir = tmp_dir("selftmp");
        let path = dir.join("run.tmp");
        std::fs::write(&path, b"previous").unwrap();
        let err = write_durable_with(&path, b"next", &[], None).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("run.tmp"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), b"previous");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_past_the_end_never_fires() {
        let dir = tmp_dir("past");
        let path = dir.join("file.bin");
        let mut plan = CrashPlan::crash_at(1_000, true, 3);
        write_durable_with(&path, b"hello", &[], Some(&mut plan)).unwrap();
        assert!(plan.fired().is_none());
        assert_eq!(std::fs::read(&path).unwrap(), b"hello");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mutators_do_what_they_say() {
        let dir = tmp_dir("mut");
        let path = dir.join("file.bin");
        std::fs::write(&path, [1u8; 64]).unwrap();
        flip_byte(&path, 10).unwrap();
        assert_eq!(std::fs::read(&path).unwrap()[10], 1 ^ 0x40);
        zero_tail(&path, 8).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len(), 64);
        assert!(bytes[56..].iter().all(|&b| b == 0));
        truncate_to(&path, 16).unwrap();
        assert_eq!(std::fs::read(&path).unwrap().len(), 16);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_tmp_files_are_removed() {
        let dir = tmp_dir("tmp");
        std::fs::write(dir.join("seg-00000.tmp"), b"junk").unwrap();
        std::fs::write(dir.join("seg-00000.seg"), b"keep").unwrap();
        assert_eq!(remove_stale_tmp_files(&dir).unwrap(), 1);
        assert!(dir.join("seg-00000.seg").exists());
        assert!(!dir.join("seg-00000.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
