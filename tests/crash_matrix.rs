//! The crash matrix: every enumerated crash point of a segment seal, in
//! both failure flavours, must leave a store that recovers to a
//! byte-identical state — and every post-seal corruption of a sealed
//! segment must end in either a byte-identical repair or an explicit
//! quarantine with exact coverage accounting. "It scanned, but the
//! numbers are quietly wrong" is the one outcome this suite exists to
//! rule out.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use sandwich_core::{scan_store, scan_store_degraded, AnalysisConfig};
use sandwich_obs::{names, Registry};
use sandwich_query::{
    build_index, build_index_subset, fold_indexes, generation_of, load_index_any, save_index_with,
    QueryService, QueryServiceConfig, INDEX_FILE,
};
use sandwich_store::segment::{encode_segment, write_segment_file};
use sandwich_store::{
    crash, doctor, is_injected_crash, BundleStore, CollectedBundle, CrashPlan, Manifest,
    SegmentMeta, StoreWriter, ValidatorSpec,
};
use sandwich_types::{Hash, Keypair, Lamports, Slot, SlotClock};

fn bundle(seed: u64, slot: u64, tip: u64) -> CollectedBundle {
    let kp = Keypair::from_label("crashmatrix");
    CollectedBundle {
        bundle_id: Hash::digest(&seed.to_le_bytes()),
        slot: Slot(slot),
        timestamp_ms: slot * 400,
        tip: Lamports(tip),
        tx_ids: vec![kp.sign(&seed.to_le_bytes())],
    }
}

fn batch(seed: u64, base_slot: u64, n: u64) -> Vec<CollectedBundle> {
    (0..n)
        .map(|i| bundle(seed * 1_000 + i, base_slot + i * 2, 30_000 + i))
        .collect()
}

fn copy_dir(src: &Path, dst: &Path) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

fn report_json(dir: &Path) -> String {
    let store = BundleStore::open(dir).unwrap();
    let report = scan_store(
        &store,
        &SlotClock::default(),
        &AnalysisConfig::paper_defaults(1),
        2,
    )
    .unwrap();
    serde_json::to_string(&report).unwrap()
}

/// Unique scratch directory per call, so parallel test threads and
/// proptest cases never collide.
fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("crash-matrix-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every crash point of a full seal (segment write → fsync → rename →
/// dir fsync → manifest update), killed both cleanly and with torn-write
/// power-loss semantics, must resume to a byte-identical store. This is
/// the gate for `silent_divergence == 0` and `crash_points >= 20`;
/// `crash_bench` walks the same matrix only to time the recoveries.
#[test]
fn every_seal_crash_point_recovers_byte_identically() {
    let base = scratch("base");
    let mut w = StoreWriter::create(&base).unwrap();
    w.seal_segment(batch(1, 100, 30), Vec::new(), Vec::new())
        .unwrap();
    drop(w);
    let sealed = Manifest::load(&base).unwrap().segments;
    let extra = || batch(2, 400, 30);

    // The uninterrupted reference.
    let reference = scratch("ref");
    copy_dir(&base, &reference);
    let mut w = StoreWriter::resume(&reference, &sealed).unwrap();
    let ref_meta = w.seal_segment(extra(), Vec::new(), Vec::new()).unwrap();
    drop(w);
    let ref_json = report_json(&reference);
    let ref_bytes = std::fs::read(reference.join(&ref_meta.file)).unwrap();

    // Enumerate the crash points of one seal.
    let steps = {
        let dir = scratch("count");
        copy_dir(&base, &dir);
        let mut w = StoreWriter::resume(&dir, &sealed).unwrap();
        let mut plan = CrashPlan::count();
        w.seal_segment_with(extra(), Vec::new(), Vec::new(), Some(&mut plan))
            .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        plan.steps_seen()
    };
    assert!(steps >= 20, "expected >= 20 crash points, got {steps}");

    for step in 0..steps {
        for torn in [false, true] {
            let dir = scratch("case");
            copy_dir(&base, &dir);
            let mut w = StoreWriter::resume(&dir, &sealed).unwrap();
            let mut plan = CrashPlan::crash_at(step, torn, 0xDEAD ^ (step << 1) ^ torn as u64);
            let err = w
                .seal_segment_with(extra(), Vec::new(), Vec::new(), Some(&mut plan))
                .expect_err("plan must fire");
            assert!(is_injected_crash(&err), "step {step}: {err}");
            drop(w);

            let mut w = StoreWriter::resume(&dir, &sealed).unwrap_or_else(|e| {
                panic!("recovery resume failed at step {step} torn={torn}: {e}")
            });
            let meta = w.seal_segment(extra(), Vec::new(), Vec::new()).unwrap();
            drop(w);

            assert_eq!(meta.file, ref_meta.file, "step {step} torn={torn}");
            assert_eq!(
                std::fs::read(dir.join(&meta.file)).unwrap(),
                ref_bytes,
                "segment bytes diverged at step {step} torn={torn}"
            );
            assert_eq!(
                report_json(&dir),
                ref_json,
                "analysis report diverged at step {step} torn={torn}"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let _ = std::fs::remove_dir_all(&base);
    let _ = std::fs::remove_dir_all(&reference);
}

/// Build a tiny two-segment store and return its directory plus the
/// reference report JSON.
fn seed_store(tag: &str) -> (PathBuf, String) {
    let dir = scratch(tag);
    std::fs::create_dir_all(&dir).unwrap();
    let mut manifest = Manifest::new();
    for i in 0..2usize {
        let data = sandwich_store::codec::SegmentData {
            bundles: batch(i as u64 + 1, 100 + i as u64 * 300, 8),
            details: Vec::new(),
            polls: Vec::new(),
        };
        let (image, footer) = encode_segment(&data);
        let file = format!("seg-{i:05}.seg");
        write_segment_file(&dir.join(&file), &image).unwrap();
        manifest.segments.push(SegmentMeta {
            file,
            bundles: data.bundles.len() as u64,
            details: 0,
            polls: 0,
            min_slot: footer.min_slot,
            max_slot: footer.max_slot,
            bytes: image.len() as u64,
            checksum: format!("{:016x}", footer.checksum),
        });
    }
    manifest.save(&dir).unwrap();
    let json = report_json(&dir);
    (dir, json)
}

/// The recover-or-quarantine invariant, checked after `store doctor
/// --repair` over a damaged segment: either the store scans to the exact
/// reference report with complete coverage, or the damage is an explicit
/// quarantine whose accounting matches the victim — never a silently
/// different report.
fn assert_recovered_or_quarantined(dir: &Path, reference: &str, context: &str) {
    doctor::repair(dir).unwrap_or_else(|e| panic!("{context}: doctor failed: {e}"));
    let store = BundleStore::open(dir).unwrap();
    let total: u64 =
        store.manifest().total_bundles() + store.manifest().total_quarantined_bundles();
    let (report, coverage) = scan_store_degraded(
        &store,
        &SlotClock::default(),
        &AnalysisConfig::paper_defaults(1),
        2,
        None,
    )
    .unwrap();
    if coverage.complete() {
        assert_eq!(
            serde_json::to_string(&report).unwrap(),
            reference,
            "{context}: repaired store produced a different report"
        );
        assert_eq!(total, 16, "{context}: both segments serving");
    } else {
        assert_eq!(coverage.segments_quarantined, 1, "{context}");
        assert_eq!(coverage.bundles_quarantined, 8, "{context}");
        assert_eq!(
            coverage.bundles_scanned + coverage.bundles_quarantined,
            total,
            "{context}: coverage must account for every bundle"
        );
    }
}

/// Every enumerated crash point of the fold-persist path (the durable
/// rewrite of `query-index.bin` after an incremental fold), in both
/// failure flavours, must leave an index file that is entirely the old
/// generation or entirely the new one — never torn — and a service that
/// reopens onto it must reach the new generation without a single full
/// rebuild: a durable old index folds forward, a durable new index just
/// loads.
#[test]
fn every_fold_persist_crash_point_leaves_a_servable_index() {
    fold_persist_crash_matrix("plain", None);
}

/// The same matrix over the *extended* index frame: with a validator spec
/// in the manifest, the persisted SWQIX02 frame additionally carries the
/// spec, per-sandwich leaders, and the blocks-led count per validator (the
/// validator leaderboard is derived on load, never stored) — and every
/// crash point of its durable rewrite must still leave an entirely-old or
/// entirely-new frame whose attribution fields survive the round trip.
#[test]
fn every_fold_persist_crash_point_leaves_a_servable_attributed_index() {
    fold_persist_crash_matrix("attrib", Some(ValidatorSpec::new(20_250_209, 8)));
}

fn fold_persist_crash_matrix(tag: &str, spec: Option<ValidatorSpec>) {
    let base = scratch(&format!("foldbase-{tag}"));
    let mut w = StoreWriter::create(&base).unwrap();
    if let Some(spec) = spec {
        w.set_validators(spec).unwrap();
    }
    w.seal_segment(batch(1, 100, 30), Vec::new(), Vec::new())
        .unwrap();
    drop(w);
    // Persist the generation-1 index the way the service does.
    QueryService::open(QueryServiceConfig::new(&base), Registry::new()).unwrap();

    // Seal a second segment: the persisted index is now one generation
    // stale, exactly the state a reload folds out of.
    let sealed = Manifest::load(&base).unwrap().segments;
    let mut w = StoreWriter::resume(&base, &sealed).unwrap();
    w.seal_segment(batch(2, 400, 30), Vec::new(), Vec::new())
        .unwrap();
    drop(w);

    // Compute the folded generation-2 index through the public fold API
    // and pin it against a from-scratch build.
    let store = BundleStore::open(&base).unwrap();
    let config = QueryServiceConfig::new(&base).query;
    let generation = generation_of(store.manifest());
    let old = load_index_any(&base, INDEX_FILE).unwrap();
    let old_generation = old.generation.clone();
    assert_ne!(old_generation, generation, "base index must be stale");
    let serving: Vec<usize> = (0..store.segments().len()).collect();
    let quarantined: Vec<usize> = (0..store.quarantined().len()).collect();
    let delta = store
        .manifest()
        .delta_within(
            &old.segment_files,
            &old.quarantined_files,
            &serving,
            &quarantined,
        )
        .expect("append-only history must be foldable");
    let delta_index =
        build_index_subset(&store, &config, &delta.new_serving, &delta.new_quarantined).unwrap();
    let folded = fold_indexes(&generation, vec![old, delta_index], &config);
    let reference = serde_json::to_string(&build_index(&store, &config).unwrap()).unwrap();
    assert_eq!(
        serde_json::to_string(&folded).unwrap(),
        reference,
        "fold must be byte-identical to the full rebuild"
    );
    assert_eq!(folded.validator_spec, spec, "spec must ride the frame");
    assert_eq!(
        folded.validators.is_some(),
        spec.is_some(),
        "leaderboard present exactly when the manifest carries a spec"
    );

    // Enumerate the crash points of one durable index rewrite.
    let steps = {
        let dir = scratch("foldcount");
        copy_dir(&base, &dir);
        let mut plan = CrashPlan::count();
        save_index_with(&dir, &folded, INDEX_FILE, Some(&mut plan)).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        plan.steps_seen()
    };
    assert!(steps >= 5, "expected >= 5 crash points, got {steps}");

    for step in 0..steps {
        for torn in [false, true] {
            let dir = scratch("foldcase");
            copy_dir(&base, &dir);
            let mut plan = CrashPlan::crash_at(step, torn, 0xF01D ^ (step << 1) ^ torn as u64);
            let err = save_index_with(&dir, &folded, INDEX_FILE, Some(&mut plan))
                .expect_err("plan must fire");
            assert!(is_injected_crash(&err), "step {step}: {err}");

            // Atomicity: the durable frame is entirely old or entirely
            // new, and always parses.
            let durable = load_index_any(&dir, INDEX_FILE).unwrap_or_else(|reject| {
                panic!("torn index after crash at step {step} torn={torn}: {reject:?}")
            });
            assert!(
                durable.generation == generation || durable.generation == old_generation,
                "unexpected durable generation {} at step {step}",
                durable.generation
            );
            // Both generations were written with the same manifest spec,
            // so the attribution fields must survive whichever frame won.
            assert_eq!(
                durable.validator_spec, spec,
                "attribution spec lost at step {step} torn={torn}"
            );
            assert_eq!(durable.validators.is_some(), spec.is_some());

            // Recovery: a fresh service reaches generation 2 without a
            // full rebuild — old index folds forward, new index loads.
            let registry = Registry::new();
            let service =
                QueryService::open(QueryServiceConfig::new(&dir), registry.clone()).unwrap();
            assert_eq!(service.generation(), generation, "step {step} torn={torn}");
            assert_eq!(
                serde_json::to_string(service.engine_snapshot().index()).unwrap(),
                reference,
                "served index diverged at step {step} torn={torn}"
            );
            let snap = registry.snapshot();
            assert_eq!(
                snap.counter(names::QUERY_INDEX_FULL_REBUILDS),
                None,
                "full rebuild at step {step} torn={torn}"
            );
            assert_eq!(
                snap.counter(names::QUERY_INDEX_REBUILDS),
                None,
                "segment rescan at step {step} torn={torn}"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let _ = std::fs::remove_dir_all(&base);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any prefix truncation of a sealed segment — one byte or the whole
    /// file — is either repaired bit-for-bit or explicitly
    /// quarantined. `frac` picks the cut point, `victim` the segment.
    #[test]
    fn prefix_truncations_recover_or_quarantine(frac in 0.0f64..1.0, victim in 0usize..2) {
        let (dir, reference) = seed_store("trunc");
        let meta = Manifest::load(&dir).unwrap().segments[victim].clone();
        let cut = (meta.bytes as f64 * frac) as u64;
        crash::truncate_to(&dir.join(&meta.file), cut).unwrap();
        assert_recovered_or_quarantined(
            &dir,
            &reference,
            &format!("truncate seg {victim} ({}) to {cut}/{}", meta.file, meta.bytes),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Any single-byte flip anywhere in a sealed segment — magic, body,
    /// columnar section, footer — is either repaired bit-for-bit or
    /// explicitly quarantined, never silently mis-scanned.
    #[test]
    fn single_byte_flips_recover_or_quarantine(frac in 0.0f64..1.0, victim in 0usize..2) {
        let (dir, reference) = seed_store("flip");
        let meta = Manifest::load(&dir).unwrap().segments[victim].clone();
        let offset = ((meta.bytes - 1) as f64 * frac) as u64;
        crash::flip_byte(&dir.join(&meta.file), offset).unwrap();
        assert_recovered_or_quarantined(
            &dir,
            &reference,
            &format!("flip seg {victim} ({}) byte {offset}/{}", meta.file, meta.bytes),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
