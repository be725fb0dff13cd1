//! The one compatibility rule segments keep: a segment is current or it is
//! quarantined. A store with a quarantined segment keeps scanning with
//! exact coverage, and a pre-columnar segment file is not read by a second
//! decoder — it fails the magic check like any unreadable segment,
//! the degraded scan counts it, and `store doctor` quarantines it as
//! `bad_magic`. It is never silently skipped.
//!
//! Query index frames keep the cache's rule instead: a frame is current or
//! rebuilt. A pre-binary `SWQIX01` frame fails the magic check and is
//! rewritten once, for the whole store and for a shard alike.

use std::path::{Path, PathBuf};

use sandwich_core::{
    scan_store, scan_store_degraded, scan_store_materializing, AnalysisConfig, AnalysisReport,
    ScanCoverage,
};
use sandwich_ledger::{SolDelta, TokenDelta, TransactionMeta};
use sandwich_obs::{names, Registry};
use sandwich_query::{
    build_index, build_index_subset, load_index_any, IndexReject, QueryConfig, QueryIndex,
    QueryService, QueryServiceConfig, INDEX_FILE,
};
use sandwich_shard::{ShardConfig, ShardMap, ShardService};
use sandwich_store::codec::SegmentData;
use sandwich_store::doctor::{self, SegmentHealth};
use sandwich_store::records::{CollectedBundle, CollectedDetail};
use sandwich_store::segment::{encode_segment, write_segment_file};
use sandwich_store::{fnv1a64, BundleStore, Manifest, SegmentFooter, SegmentMeta, StoreWriter};
use sandwich_types::{Keypair, LamportDelta, Lamports, Pubkey, Slot, SlotClock};

/// One segment's worth of records: a detectable sandwich trio plus a
/// length-1 bundle, offset by `base` so the two segments don't collide.
fn segment_data(base: u64) -> SegmentData {
    let attacker = Keypair::from_label("compat:attacker");
    let victim = Keypair::from_label("compat:victim");
    let mint = Pubkey::derive("compat:mint");
    let trio: Vec<_> = (0..3u64)
        .map(|i| attacker.sign(&(base + i).to_le_bytes()))
        .collect();
    let bundle_id = sandwich_jito::bundle_id_of(&trio);
    let swap = |n: usize, kp: &Keypair, sol: i64, tokens: i128| TransactionMeta {
        tx_id: trio[n],
        signer: kp.pubkey(),
        fee: Lamports(5_000),
        priority_fee: Lamports::ZERO,
        success: true,
        error: None,
        sol_deltas: vec![SolDelta {
            account: kp.pubkey(),
            delta: LamportDelta(sol - 5_000),
        }],
        token_deltas: vec![TokenDelta {
            owner: kp.pubkey(),
            mint,
            delta: tokens,
        }],
    };
    let solo = vec![victim.sign(&base.to_le_bytes())];
    SegmentData {
        bundles: vec![
            CollectedBundle {
                bundle_id,
                slot: Slot(base),
                timestamp_ms: base * 400,
                tip: Lamports(2_000_000),
                tx_ids: trio.clone(),
            },
            CollectedBundle {
                bundle_id: sandwich_jito::bundle_id_of(&solo),
                slot: Slot(base + 5),
                timestamp_ms: (base + 5) * 400,
                tip: Lamports(40_000),
                tx_ids: solo,
            },
        ],
        details: vec![
            CollectedDetail {
                bundle_id,
                slot: Slot(base),
                meta: swap(0, &attacker, -100_000_000_000, 10_000),
            },
            CollectedDetail {
                bundle_id,
                slot: Slot(base),
                meta: swap(1, &victim, -120_000_000_000, 10_000),
            },
            CollectedDetail {
                bundle_id,
                slot: Slot(base),
                meta: swap(2, &attacker, 115_000_000_000, -10_000),
            },
        ],
        polls: vec![],
    }
}

/// Hand-assemble a store: one segment per base, each file image built by
/// `image_of` from the records and their current-version encoding, all in
/// one manifest describing the records.
fn store_of(
    tag: &str,
    bases: &[u64],
    image_of: impl Fn(Vec<u8>, &SegmentFooter) -> Vec<u8>,
) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("format-compat-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut manifest = Manifest::new();
    for (i, &base) in bases.iter().enumerate() {
        let data = segment_data(base);
        let (image, footer) = encode_segment(&data);
        let image = image_of(image, &footer);
        let file = format!("seg-{i:05}.seg");
        write_segment_file(&dir.join(&file), &image).unwrap();
        manifest.segments.push(SegmentMeta {
            file,
            bundles: data.bundles.len() as u64,
            details: data.details.len() as u64,
            polls: data.polls.len() as u64,
            min_slot: footer.min_slot,
            max_slot: footer.max_slot,
            bytes: image.len() as u64,
            checksum: format!("{:016x}", footer.checksum),
        });
    }
    manifest.save(&dir).unwrap();
    dir
}

/// The same records as a pre-columnar image, built byte by byte with no
/// encoder: the old leading magic, the body, the footer's first 44 bytes
/// (checksum, slot range, counts, body length) and the old trailing magic.
fn pre_columnar(image: Vec<u8>, footer: &SegmentFooter) -> Vec<u8> {
    let body = &image[8..8 + footer.body_len as usize];
    let footer_at = image.len() - 68;
    let mut old = b"SWSEG01\n".to_vec();
    old.extend_from_slice(body);
    old.extend_from_slice(&image[footer_at..footer_at + 44]);
    old.extend_from_slice(b"SWEND01\n");
    old
}

/// The degraded scan of `store`, checked against the materializing scan
/// of the same serving segments.
fn degraded_scan(store: &BundleStore) -> (AnalysisReport, ScanCoverage) {
    let clock = SlotClock::default();
    let cfg = AnalysisConfig::paper_defaults(1);
    let reference =
        serde_json::to_string(&scan_store_materializing(store, &clock, &cfg, 1).unwrap()).unwrap();
    let (degraded, coverage) = scan_store_degraded(store, &clock, &cfg, 2, None).unwrap();
    assert_eq!(
        serde_json::to_string(&degraded).unwrap(),
        reference,
        "degraded scan over the serving segments matches the materializing scan"
    );
    (degraded, coverage)
}

/// A store with one quarantined segment keeps scanning: the serving
/// segments produce the same results on every path, and the degraded scan
/// reports the quarantined segment's bundles exactly.
#[test]
fn quarantined_segment_scans_with_exact_coverage() {
    let dir = store_of("q", &[100, 100_000, 200_000], |image, _| image);

    // Damage the third segment's body (unrecoverable by construction) and
    // let the doctor quarantine it.
    sandwich_store::crash::flip_byte(&dir.join("seg-00002.seg"), 12).unwrap();
    let report = doctor::repair(&dir).unwrap();
    assert_eq!(report.quarantined, 1, "the damaged segment quarantines");
    assert_eq!(report.clean, 2, "the two serving segments are clean");

    let store = BundleStore::open(&dir).unwrap();
    assert_eq!(store.segments().len(), 2);
    assert_eq!(store.quarantined().len(), 1);

    let (_, coverage) = degraded_scan(&store);
    assert_eq!(coverage.segments_scanned, 2);
    assert_eq!(coverage.segments_quarantined, 1);
    assert_eq!(
        coverage.bundles_quarantined, 2,
        "both victim bundles accounted"
    );
    assert!(!coverage.complete());

    // One sandwich per *serving* segment: the quarantined one is excluded
    // explicitly, not silently miscounted.
    let clock = SlotClock::default();
    let cfg = AnalysisConfig::paper_defaults(1);
    let scanned = scan_store(&store, &clock, &cfg, 2).unwrap();
    assert_eq!(scanned.findings.len(), 2);

    std::fs::remove_dir_all(&dir).unwrap();
}

/// A pre-columnar segment beside current ones is an unreadable segment
/// like any other: the strict scan fails, the degraded scan counts its
/// exact bundles as failed, the doctor names it `bad_magic` and moves it
/// to quarantine (leaving the file on disk), and a collector resume
/// refuses to build on it until the doctor has run.
#[test]
fn pre_columnar_segment_is_a_bad_magic_quarantine_with_exact_coverage() {
    let bases = [100, 100_000, 200_000];
    let dir = store_of("swseg01", &bases, |image, footer| {
        if footer.min_slot == bases[1] {
            pre_columnar(image, footer)
        } else {
            image
        }
    });
    let old = dir.join("seg-00001.seg");
    assert!(std::fs::read(&old).unwrap().starts_with(b"SWSEG01\n"));
    let store = BundleStore::open(&dir).unwrap();
    let clock = SlotClock::default();
    let cfg = AnalysisConfig::paper_defaults(1);

    assert!(
        scan_store(&store, &clock, &cfg, 2).is_err(),
        "the strict scan must not skip it"
    );
    let (_, coverage) = scan_store_degraded(&store, &clock, &cfg, 2, None).unwrap();
    assert_eq!(coverage.segments_scanned, 2);
    assert_eq!(coverage.segments_failed, 1);
    assert_eq!(coverage.bundles_failed, 2, "its exact bundle count");
    assert_eq!(coverage.segments_quarantined, 0);

    let err = StoreWriter::resume(&dir, store.segments()).unwrap_err();
    assert!(err.to_string().contains("store doctor"), "{err}");

    let diagnosed = doctor::diagnose(&dir).unwrap();
    assert_eq!(
        diagnosed.checks[1].health,
        SegmentHealth::Quarantined {
            reason: "bad_magic".into()
        }
    );
    assert_eq!((diagnosed.clean, diagnosed.quarantined), (2, 1));

    doctor::repair(&dir).unwrap();
    assert!(old.exists(), "a quarantined file stays on disk");
    let store = BundleStore::open(&dir).unwrap();
    assert_eq!(store.quarantined()[0].reason, "bad_magic");
    let (report, coverage) = degraded_scan(&store);
    assert_eq!(coverage.segments_scanned, 2);
    assert_eq!(coverage.segments_failed, 0);
    assert_eq!(coverage.segments_quarantined, 1);
    assert_eq!(coverage.bundles_quarantined, 2);
    assert_eq!(report.findings.len(), 2, "one sandwich per serving segment");
    assert!(scan_store(&store, &clock, &cfg, 2).is_ok());

    std::fs::remove_dir_all(&dir).unwrap();
}

/// `index` as the frame before the binary body, built byte by byte with no
/// encoder: the old leading magic, the JSON body, its FNV-1a 64 checksum
/// and the old trailing magic.
fn pre_binary_frame(index: &QueryIndex) -> Vec<u8> {
    let body = serde_json::to_vec(index).unwrap();
    let mut frame = b"SWQIX01\n".to_vec();
    frame.extend_from_slice(&body);
    frame.extend_from_slice(&fnv1a64(&body).to_le_bytes());
    frame.extend_from_slice(b"SWQEND1\n");
    frame
}

/// An `SWQIX01` frame, whole-store or one shard's, is a bad frame: the
/// first open counts one rejection, rebuilds from the segments and
/// rewrites the file in the current format, and the second open loads it.
#[test]
fn a_pre_binary_index_frame_is_rejected_once_and_rewritten() {
    let dir = store_of("swqix01", &[100, 100_000], |image, _| image);
    let store = BundleStore::open(&dir).unwrap();
    let config = QueryConfig::default();
    let map = ShardMap::plan(store.clone(), 2);
    let scope = &map.shards[0];
    let shard_file = scope.file.clone();
    let old_frames = [
        (INDEX_FILE, build_index(&store, &config).unwrap()),
        (
            shard_file.as_str(),
            build_index_subset(&store, &config, &scope.segments, &scope.quarantined).unwrap(),
        ),
    ];
    for (file, index) in &old_frames {
        std::fs::write(dir.join(file), pre_binary_frame(index)).unwrap();
        assert_eq!(
            load_index_any(&dir, file).unwrap_err(),
            IndexReject::BadFrame
        );
    }

    assert_rejected_once_then_loaded(&dir, INDEX_FILE, |registry| {
        QueryService::open(QueryServiceConfig::new(&dir), registry).map(drop)
    });
    assert_rejected_once_then_loaded(&dir, &shard_file, |registry| {
        ShardService::open(ShardConfig::new(0), &map, registry).map(drop)
    });

    std::fs::remove_dir_all(&dir).unwrap();
}

/// The first `open` rejects the frame at `file` once, rebuilds it and
/// rewrites it as `SWQIX02`; the second loads it.
fn assert_rejected_once_then_loaded(
    dir: &Path,
    file: &str,
    open: impl Fn(Registry) -> std::io::Result<()>,
) {
    // (rejected, rebuilt, loaded) on one open.
    let open_counts = || {
        let registry = Registry::new();
        open(registry.clone()).unwrap();
        let snap = registry.snapshot();
        let counters = [
            names::QUERY_INDEX_REJECTED,
            names::QUERY_INDEX_REBUILDS,
            names::QUERY_INDEX_LOADS,
        ];
        counters.map(|name| snap.counter(name).unwrap_or(0))
    };
    assert_eq!(open_counts(), [1, 1, 0], "{file}: rejected once, rebuilt");
    let frame = std::fs::read(dir.join(file)).unwrap();
    assert!(frame.starts_with(b"SWQIX02\n"), "{file}: rewritten");
    assert_eq!(open_counts(), [0, 0, 1], "{file}: the next open loads");
}
