//! Cross-version store compatibility: a store directory holding a mix of
//! v1 (pre-columnar, `SWSEG01`) and v2 (columnar, `SWSEG02`) segments must
//! scan to one byte-identical report on every path — the zero-copy scan
//! falls back to a full decode per v1 segment, takes the columnar fast
//! path per v2 segment, and neither choice may leak into the result.

use sandwich_core::{scan_store, scan_store_degraded, scan_store_materializing, AnalysisConfig};
use sandwich_ledger::{SolDelta, TokenDelta, TransactionMeta};
use sandwich_store::codec::SegmentData;
use sandwich_store::records::{CollectedBundle, CollectedDetail};
use sandwich_store::segment::{encode_segment, encode_segment_v1, write_segment_file};
use sandwich_store::{BundleStore, Manifest, SegmentMeta};
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

#[test]
fn mixed_version_store_scans_byte_identically() {
    let dir = std::env::temp_dir().join(format!("format-compat-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Hand-assemble the store: segment 0 sealed by the old v1 encoder,
    // segment 1 by the current columnar one, one shared manifest.
    let mut manifest = Manifest::new();
    for (i, (data, image, footer)) in [
        {
            let d = segment_data(100);
            let (img, f) = encode_segment_v1(&d);
            (d, img, f)
        },
        {
            let d = segment_data(100_000);
            let (img, f) = encode_segment(&d);
            (d, img, f)
        },
    ]
    .into_iter()
    .enumerate()
    {
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

    let store = BundleStore::open(&dir).unwrap();
    let clock = SlotClock::default();
    let cfg = AnalysisConfig::paper_defaults(1);

    let reference =
        serde_json::to_string(&scan_store_materializing(&store, &clock, &cfg, 1).unwrap()).unwrap();
    for threads in [1, 2, 4] {
        let scanned =
            serde_json::to_string(&scan_store(&store, &clock, &cfg, threads).unwrap()).unwrap();
        assert_eq!(
            scanned, reference,
            "mixed-version scan diverged at {threads} threads"
        );
    }

    // Both planted sandwiches (one per segment, one per format) are found.
    let report = scan_store(&store, &clock, &cfg, 2).unwrap();
    assert_eq!(report.findings.len(), 2, "one sandwich per segment version");

    std::fs::remove_dir_all(&dir).unwrap();
}

/// Seal `bases` as a store of its own, every segment in one format.
fn sealed_store(tag: &str, v1: bool, bases: &[u64]) -> BundleStore {
    let dir = std::env::temp_dir().join(format!("format-compat-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut manifest = Manifest::new();
    for (i, &base) in bases.iter().enumerate() {
        let data = segment_data(base);
        let (image, footer) = if v1 {
            encode_segment_v1(&data)
        } else {
            encode_segment(&data)
        };
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
    BundleStore::open(&dir).unwrap()
}

/// The query index is built by the same walk as the report: the same
/// records sealed all-v1 (every segment takes the decode route) and
/// all-v2 (every segment takes the columnar route) must index to the same
/// contents. Only the generation differs — it fingerprints the manifest,
/// and the two formats' checksums and sizes are not the same.
#[test]
fn index_is_the_same_whichever_route_the_format_selects() {
    let bases = [100, 100_000, 200_000];
    let v1 = sealed_store("ix-v1", true, &bases);
    let v2 = sealed_store("ix-v2", false, &bases);
    let config = sandwich_query::QueryConfig::default();
    let from_decode = sandwich_query::build_index(&v1, &config).unwrap();
    let from_columns = sandwich_query::build_index(&v2, &config).unwrap();

    assert_eq!(from_columns.totals.sandwiches, 3, "one per segment");
    assert_ne!(from_decode.generation, from_columns.generation);
    assert_eq!(from_decode.totals, from_columns.totals);
    assert_eq!(from_decode.days, from_columns.days);
    assert_eq!(from_decode.refs, from_columns.refs);
    assert_eq!(from_decode.attackers, from_columns.attackers);
    assert_eq!(from_decode.pools, from_columns.pools);

    std::fs::remove_dir_all(v1.dir()).unwrap();
    std::fs::remove_dir_all(v2.dir()).unwrap();
}

/// A mixed-version store with one quarantined segment keeps scanning: the
/// serving segments (one v1, one v2) produce the same results on every
/// path, and the degraded scan reports the quarantined segment's bundles
/// exactly — the cross-version fallback and the quarantine bookkeeping
/// must compose.
#[test]
fn quarantined_segment_in_a_mixed_store_scans_with_exact_coverage() {
    let dir = std::env::temp_dir().join(format!("format-compat-q-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Three segments: v1, v2, and a second v2 that will be damaged.
    let mut manifest = Manifest::new();
    let specs: [(bool, u64); 3] = [(true, 100), (false, 100_000), (false, 200_000)];
    for (i, (v1, base)) in specs.into_iter().enumerate() {
        let data = segment_data(base);
        let (image, footer) = if v1 {
            encode_segment_v1(&data)
        } else {
            encode_segment(&data)
        };
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

    // Damage the third segment's body (unrecoverable by construction) and
    // let the doctor quarantine it.
    sandwich_store::crash::flip_byte(&dir.join("seg-00002.seg"), 12).unwrap();
    let report = sandwich_store::doctor::repair(&dir).unwrap();
    assert_eq!(report.quarantined, 1, "the damaged v2 segment quarantines");
    assert_eq!(report.clean, 2, "the v1 and v2 serving segments are clean");

    let store = BundleStore::open(&dir).unwrap();
    assert_eq!(store.segments().len(), 2);
    assert_eq!(store.quarantined().len(), 1);

    let clock = SlotClock::default();
    let cfg = AnalysisConfig::paper_defaults(1);
    let reference =
        serde_json::to_string(&scan_store_materializing(&store, &clock, &cfg, 1).unwrap()).unwrap();
    let (degraded, coverage) = scan_store_degraded(&store, &clock, &cfg, 2, None).unwrap();
    assert_eq!(
        serde_json::to_string(&degraded).unwrap(),
        reference,
        "degraded scan over the serving segments matches the materializing scan"
    );
    assert_eq!(coverage.segments_scanned, 2);
    assert_eq!(coverage.segments_quarantined, 1);
    assert_eq!(
        coverage.bundles_quarantined, 2,
        "both victim bundles accounted"
    );
    assert!(!coverage.complete());

    // One sandwich per *serving* segment: the quarantined one is excluded
    // explicitly, not silently miscounted.
    let scanned = scan_store(&store, &clock, &cfg, 2).unwrap();
    assert_eq!(scanned.findings.len(), 2);

    std::fs::remove_dir_all(&dir).unwrap();
}
