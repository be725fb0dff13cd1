//! Recorder: crash-recovery and doctor latencies of the bundle store, which
//! the repository benchmark does not time.
//!
//! The latencies only mean something if every injected failure ended in a
//! byte-identical recovered store or an explicit quarantine with exact
//! coverage accounting, so each case is checked in-process; anything else
//! counts as `silent_divergence`, and the run aborts — writing nothing —
//! unless that count is 0 and one seal has ≥ 20 crash points. The same
//! invariant is *gated* by `tests/crash_matrix.rs` and the doctor tests in
//! `crates/store/src/doctor.rs`; this binary records how long recovery takes.
//!
//! * **Phase A (crash matrix)** — for every crash step of a segment seal
//!   (segment write → footer → rename → directory fsync → manifest update)
//!   × {clean kill, torn write}: kill the writer mid-seal, time
//!   `StoreWriter::resume`, re-seal, compare store and report bytes with an
//!   uninterrupted reference.
//! * **Phase B (doctor matrix)** — on a `SANDWICH_CRASH_BUNDLES` store
//!   (default 50,000), mutate the last sealed segment (torn tails,
//!   zeroed/flipped footers, body flips, a deleted file), time
//!   `doctor::repair`, and require a byte-identical repaired report or a
//!   quarantine whose coverage matches the victim exactly.
//!
//! Output: `$SANDWICH_BENCH_OUT`, default `results/BENCH_crash.json`.

use std::path::Path;
use std::time::Instant;

use sandwich_bench::scale::{generate, ScaleConfig};
use sandwich_bench::{env_or, write_snapshot};
use sandwich_core::{scan_store, scan_store_degraded, AnalysisConfig};
use sandwich_store::{
    crash, doctor, is_injected_crash, BundleStore, CollectedBundle, CrashPlan, Manifest,
    StoreWriter,
};
use sandwich_types::{Hash, Keypair, Lamports, Slot, SlotClock};

#[derive(serde::Serialize)]
struct Snapshot {
    crash_points: u64,
    crash_matrix_cases: u64,
    silent_divergence: u64,
    recovery_p50_ms: f64,
    recovery_max_ms: f64,
    store_bundles: u64,
    doctor_cases: u64,
    doctor_repaired: u64,
    doctor_quarantined: u64,
    doctor_max_ms: f64,
    torn_tail_bytes_reclaimed: u64,
}

fn copy_dir(src: &Path, dst: &Path) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).expect("create copy dir");
    for entry in std::fs::read_dir(src).expect("read src dir") {
        let entry = entry.expect("dir entry");
        std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy file");
    }
}

fn batch(seed: u64, base_slot: u64, n: u64) -> Vec<CollectedBundle> {
    let kp = Keypair::from_label("crashbench");
    (0..n)
        .map(|i| {
            let id = (seed * 1_000 + i).to_le_bytes();
            CollectedBundle {
                bundle_id: Hash::digest(&id),
                slot: Slot(base_slot + i * 2),
                timestamp_ms: (base_slot + i * 2) * 400,
                tip: Lamports(30_000 + i),
                tx_ids: vec![kp.sign(&id)],
            }
        })
        .collect()
}

/// Scan a store and return the deterministic report JSON.
fn report_json(dir: &Path, clock: &SlotClock, config: &AnalysisConfig) -> String {
    let store = BundleStore::open(dir).expect("open store");
    let report = scan_store(&store, clock, config, 2).expect("scan");
    serde_json::to_string(&report).expect("serialize report")
}

fn main() {
    let bundles: u64 = env_or("SANDWICH_CRASH_BUNDLES", 50_000);
    let scratch = std::env::temp_dir().join(format!("crash-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("scratch dir");

    let clock = SlotClock::default();
    let small_cfg = AnalysisConfig::paper_defaults(1);

    // ---------- Phase A: the seal crash matrix ----------
    // Base store: two sealed segments; the matrix crashes a third seal.
    let base = scratch.join("matrix.base");
    let mut w = StoreWriter::create(&base).expect("create base");
    w.seal_segment(batch(1, 100, 50), Vec::new(), Vec::new())
        .expect("seal 1");
    w.seal_segment(batch(2, 300, 50), Vec::new(), Vec::new())
        .expect("seal 2");
    drop(w);
    let base_sealed = Manifest::load(&base).expect("base manifest").segments;
    let extra = || batch(3, 500, 50);

    // Uninterrupted reference: seal the third segment, snapshot the store.
    let reference = scratch.join("matrix.ref");
    copy_dir(&base, &reference);
    let mut w = StoreWriter::resume(&reference, &base_sealed).expect("resume ref");
    let ref_meta = w
        .seal_segment(extra(), Vec::new(), Vec::new())
        .expect("seal ref");
    drop(w);
    let ref_json = report_json(&reference, &clock, &small_cfg);
    let ref_seg_bytes = std::fs::read(reference.join(&ref_meta.file)).expect("read ref segment");

    // Count the crash steps of one full seal (segment file + manifest).
    let steps = {
        let dir = scratch.join("matrix.count");
        copy_dir(&base, &dir);
        let mut w = StoreWriter::resume(&dir, &base_sealed).expect("resume count");
        let mut plan = CrashPlan::count();
        w.seal_segment_with(extra(), Vec::new(), Vec::new(), Some(&mut plan))
            .expect("counting seal");
        plan.steps_seen()
    };
    println!("crash_bench: one seal = {steps} crash points");
    assert!(
        steps >= 20,
        "crash matrix too small: {steps} crash points (need >= 20)"
    );

    let mut silent_divergence: u64 = 0;
    let mut recovery_us: Vec<u64> = Vec::new();
    for step in 0..steps {
        for torn in [false, true] {
            let dir = scratch.join(format!("matrix.s{step}.t{}", torn as u8));
            copy_dir(&base, &dir);
            let mut w = StoreWriter::resume(&dir, &base_sealed).expect("resume victim");
            let mut plan = CrashPlan::crash_at(step, torn, 0xC0FFEE ^ (step * 2 + torn as u64));
            let err = w
                .seal_segment_with(extra(), Vec::new(), Vec::new(), Some(&mut plan))
                .expect_err("crash plan must fire inside the seal");
            assert!(
                is_injected_crash(&err),
                "step {step} torn={torn}: unexpected error {err}"
            );
            drop(w); // the crashed writer is dead

            // Recovery: resume back to the checkpointed prefix, then
            // redo the seal. Whatever the crash left behind (torn tail,
            // orphan segment, half-renamed manifest), the result must be
            // byte-identical to the uninterrupted reference.
            let t = Instant::now();
            let mut w = StoreWriter::resume(&dir, &base_sealed).expect("recovery resume");
            recovery_us.push(t.elapsed().as_micros() as u64);
            let meta = w
                .seal_segment(extra(), Vec::new(), Vec::new())
                .expect("re-seal after recovery");
            drop(w);

            let seg_bytes = std::fs::read(dir.join(&meta.file)).expect("read recovered segment");
            let json = report_json(&dir, &clock, &small_cfg);
            if meta.file != ref_meta.file || seg_bytes != ref_seg_bytes || json != ref_json {
                silent_divergence += 1;
                eprintln!("DIVERGENCE at step {step} torn={torn}");
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    recovery_us.sort_unstable();
    let recovery_max_ms = recovery_us[recovery_us.len() - 1] as f64 / 1e3;
    let recovery_p50_ms = recovery_us[recovery_us.len() / 2] as f64 / 1e3;
    println!(
        "  matrix: {} cases ({silent_divergence} divergent), recovery p50 {recovery_p50_ms:.2} ms / max {recovery_max_ms:.2} ms",
        recovery_us.len(),
    );

    // ---------- Phase B: the doctor matrix at scale ----------
    let store_dir = scratch.join("doctor.store");
    let scale = ScaleConfig {
        bundles,
        segment_bundles: ((bundles / 8).max(512) as usize).min(8_192),
        days: 2,
        ..ScaleConfig::default()
    };
    let mut writer = StoreWriter::create(&store_dir).expect("create scale store");
    generate(&mut writer, &scale).expect("generate scale store");
    let store = writer.into_reader();
    let total_bundles = store.manifest().total_bundles();
    let scale_cfg = AnalysisConfig::paper_defaults(2);
    let ref_report = scan_store(&store, &clock, &scale_cfg, 4).expect("reference scan");
    let ref_scale_json = serde_json::to_string(&ref_report).expect("serialize");
    let victim = store
        .segments()
        .last()
        .expect("at least one segment")
        .clone();
    println!(
        "  doctor store: {total_bundles} bundles in {} segments, victim {} ({} bundles)",
        store.segments().len(),
        victim.file,
        victim.bundles
    );
    drop(store);

    let victim_path = store_dir.join(&victim.file);
    let manifest_path = store_dir.join(sandwich_store::MANIFEST_FILE);
    let victim_bytes = std::fs::read(&victim_path).expect("read victim");
    let manifest_bytes = std::fs::read(&manifest_path).expect("read manifest");
    let vlen = victim_bytes.len() as u64;
    let p = victim_path.as_path();

    type Mutation<'a> = (&'static str, Box<dyn Fn() -> std::io::Result<()> + 'a>);
    let cases: Vec<Mutation> = vec![
        ("torn_tail_1", Box::new(|| crash::truncate_to(p, vlen - 1))),
        (
            "torn_tail_64",
            Box::new(|| crash::truncate_to(p, vlen - 64)),
        ),
        (
            "torn_tail_eighth",
            Box::new(|| crash::truncate_to(p, vlen - vlen / 8)),
        ),
        (
            "torn_tail_quarter_len",
            Box::new(|| crash::truncate_to(p, vlen / 4)),
        ),
        // A torn tail whose page kept bytes of a later, unrelated write:
        // junk past the sealed footer, reclaimed on repair.
        (
            "appended_garbage",
            Box::new(|| {
                use std::io::Write;
                std::fs::OpenOptions::new()
                    .append(true)
                    .open(p)?
                    .write_all(&[0xA5u8; 777])
            }),
        ),
        ("zero_footer", Box::new(|| crash::zero_tail(p, 68))),
        ("flip_footer", Box::new(|| crash::flip_byte(p, vlen - 20))),
        ("flip_mid", Box::new(|| crash::flip_byte(p, vlen / 2))),
        ("flip_body", Box::new(|| crash::flip_byte(p, 12))),
        ("missing_file", Box::new(|| std::fs::remove_file(p))),
    ];

    let mut doctor_repaired: u64 = 0;
    let mut doctor_quarantined: u64 = 0;
    let mut torn_tail_bytes_reclaimed: u64 = 0;
    let mut doctor_max_us: u64 = 0;
    for (name, mutate) in &cases {
        mutate().expect("apply mutation");
        let t = Instant::now();
        let report = doctor::repair(&store_dir).expect("doctor repair");
        doctor_max_us = doctor_max_us.max(t.elapsed().as_micros() as u64);
        torn_tail_bytes_reclaimed += report.bytes_reclaimed;

        let reopened = BundleStore::open(&store_dir).expect("reopen after doctor");
        let (scanned, coverage) =
            scan_store_degraded(&reopened, &clock, &scale_cfg, 4, None).expect("degraded scan");
        let sound = if report.quarantined == 0 {
            // Repaired (or clean): byte-identical report, complete coverage.
            doctor_repaired += 1;
            coverage.complete()
                && serde_json::to_string(&scanned).expect("serialize") == ref_scale_json
        } else {
            // Quarantined: the loss must be explicit and exact.
            doctor_quarantined += 1;
            coverage.segments_quarantined == 1
                && coverage.bundles_quarantined == victim.bundles
                && coverage.bundles_scanned + coverage.bundles_quarantined == total_bundles
                && reopened.quarantined().len() == 1
        };
        if !sound {
            silent_divergence += 1;
            eprintln!("DIVERGENCE in doctor case {name}");
        }
        println!(
            "  doctor {name}: {} (bytes_reclaimed {})",
            if report.quarantined > 0 {
                "quarantined"
            } else {
                "repaired"
            },
            report.bytes_reclaimed
        );

        // Restore the healthy baseline for the next case.
        std::fs::write(&victim_path, &victim_bytes).expect("restore victim");
        std::fs::write(&manifest_path, &manifest_bytes).expect("restore manifest");
    }
    let _ = std::fs::remove_dir_all(&scratch);

    // ---------- The assert that makes the timings mean something ----------
    assert_eq!(
        silent_divergence, 0,
        "crash harness observed silent divergence"
    );
    write_snapshot(
        "crash",
        &Snapshot {
            crash_points: steps,
            crash_matrix_cases: recovery_us.len() as u64,
            silent_divergence,
            recovery_p50_ms,
            recovery_max_ms,
            store_bundles: total_bundles,
            doctor_cases: cases.len() as u64,
            doctor_repaired,
            doctor_quarantined,
            doctor_max_ms: doctor_max_us as f64 / 1e3,
            torn_tail_bytes_reclaimed,
        },
    );
}
