//! The scan engine: one walk over a sealed segment, two sinks, one driver.
//!
//! [`visit_segment`] is the only code that turns a sealed segment into
//! detector calls. It reads each bundle's facts from the columnar section
//! (decoding records only for candidates the pre-filters cannot reject),
//! or from a full decode when an extended scan needs every record, and
//! hands them to a [`Sink`]: the report's [`ScanPartial`], or the query
//! index's part with its leader join. [`scan_segments`] is the only
//! `parallel_map` over segments; every store-wide scan and index build
//! reduces its per-segment results in segment order.
//!
//! Every accumulator in [`ScanPartial`] is either an integer (lamport
//! sums, counts) or an order-insensitive sample bag (CDF inputs, which
//! [`Cdf::from_samples`] sorts); floats appear only in
//! [`ScanPartial::finalize`]. The result: [`AnalysisReport`] is
//! bit-identical at 1, 2, or 8 threads, and identical to the single-pass
//! in-memory reference over a reloaded JSONL export
//! ([`crate::analysis::analyze`] is itself one partial + finalize).

use std::io;

use serde::{Deserialize, Serialize};

use sandwich_obs::{names, Registry};
use sandwich_store::{
    parallel_map, BundleStore, Columns, CorruptSegment, SegmentMeta, SegmentView, META_C1, META_C2,
    META_LINKED,
};
use sandwich_types::{Hash, Lamports, Slot, SlotClock};

use crate::analysis::{AnalysisConfig, AnalysisReport, DatedFinding};
use crate::dataset::{detail_map, overlap_rate, CollectedBundle, DetailMap, PollRecord};
use crate::defense::{is_defensive_tip, DefenseStats};
use crate::detector::{detect, detect_in_bundle, DetectorConfig, SandwichFinding};
use crate::stats::{Cdf, DailySeries};

/// What a walk knows about a bundle before running the detector — on the
/// columnar route, without decoding its record.
#[derive(Clone, Copy, Debug)]
pub struct BundleFacts {
    /// Measurement day of the landing slot.
    pub day: u64,
    /// Landing slot.
    pub slot: Slot,
    /// Transaction count, clamped to `1..=5` (the report's length buckets).
    pub len: usize,
    /// Total Jito tip paid inside the bundle.
    pub tip: Lamports,
    /// Length 3 with all three transaction details on hand: detectable.
    pub with_details: bool,
}

/// Where a walk delivers: called once per bundle, in segment order, with
/// the bundle's id and finding when it is a sandwich. A sink only
/// accumulates — which bundles reach the detector is the walk's decision.
pub type Sink<'a> = dyn FnMut(&BundleFacts, Option<(Hash, SandwichFinding)>) + 'a;

/// A way to walk a segment: [`visit_segment`], or [`visit_decoded`] for the
/// reference scans. Returns the poll records, which only the report uses.
pub type Route = fn(&SegmentView, &Walk, &mut Sink) -> io::Result<Vec<PollRecord>>;

/// The semantics a walk runs under, borrowed from the caller's analysis or
/// query configuration.
#[derive(Clone, Copy, Debug)]
pub struct Walk<'a> {
    /// Slot → measurement-day mapping.
    pub clock: &'a SlotClock,
    /// Detection criteria.
    pub detector: &'a DetectorConfig,
    /// Also search bundles of length 4–5 for sandwich triples; needs every
    /// record, so it forces the decode route.
    pub extended: bool,
}

fn walk_of<'a>(clock: &'a SlotClock, config: &'a AnalysisConfig) -> Walk<'a> {
    Walk {
        clock,
        detector: &config.detector,
        extended: config.extended,
    }
}

fn corrupt(e: CorruptSegment) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// One measurement day's Figure 1/2 numbers — the per-day bookkeeping both
/// sinks share, and what `/api/days` serves.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DayRollup {
    /// Zero-based measurement day.
    pub day: u64,
    /// Calendar-ish label ("Feb 09"); set when an index is finalized.
    pub label: String,
    /// All bundles landed this day.
    pub bundles: u64,
    /// Bundles by length; index 0 = length 1, clamped at 5.
    pub bundles_by_len: Vec<u64>,
    /// Detected sandwiches.
    pub sandwiches: u64,
    /// Defensive length-1 bundles.
    pub defensive: u64,
    /// Victim losses, lamports.
    pub victim_loss_lamports: u128,
    /// Attacker gains, lamports.
    pub attacker_gain_lamports: i128,
    /// Total tips paid, lamports.
    pub tips_lamports: u128,
}

impl DayRollup {
    /// An empty rollup for `day`.
    pub fn new(day: u64) -> Self {
        DayRollup {
            day,
            bundles_by_len: vec![0; 5],
            ..DayRollup::default()
        }
    }

    /// Count one bundle of this day in, with its finding when it is a
    /// sandwich (an unpriced one carries no loss or gain).
    pub fn observe(
        &mut self,
        b: &BundleFacts,
        finding: Option<&SandwichFinding>,
        defensive_threshold: Lamports,
    ) {
        self.bundles += 1;
        self.bundles_by_len[b.len - 1] += 1;
        self.tips_lamports += u128::from(b.tip.0);
        self.defensive += u64::from(b.len == 1 && is_defensive_tip(b.tip, defensive_threshold));
        if let Some(finding) = finding {
            self.sandwiches += 1;
            self.victim_loss_lamports += u128::from(finding.victim_loss_lamports.unwrap_or(0));
            self.attacker_gain_lamports += finding.attacker_gain_lamports.unwrap_or(0);
        }
    }

    /// Sum another rollup of the same day in.
    pub fn add(&mut self, other: &DayRollup) {
        self.bundles += other.bundles;
        for (a, b) in self.bundles_by_len.iter_mut().zip(&other.bundles_by_len) {
            *a += b;
        }
        self.sandwiches += other.sandwiches;
        self.defensive += other.defensive;
        self.victim_loss_lamports += other.victim_loss_lamports;
        self.attacker_gain_lamports += other.attacker_gain_lamports;
        self.tips_lamports += other.tips_lamports;
    }
}

/// Walk one materialized bundle, its details looked up in `details`: the
/// per-bundle step of the decode route, and the whole of the residue fold.
fn visit_bundle(bundle: &CollectedBundle, details: &DetailMap, walk: &Walk, sink: &mut Sink) {
    let len = bundle.len().clamp(1, 5);
    let metas = if len == 3 || (walk.extended && len > 3) {
        bundle
            .tx_ids
            .iter()
            .map(|id| details.get(id).map(|d| &d.meta))
            .collect::<Option<Vec<_>>>()
    } else {
        None
    };
    let facts = BundleFacts {
        day: walk.clock.day_index(bundle.slot),
        slot: bundle.slot,
        len,
        tip: bundle.tip,
        with_details: len == 3 && metas.is_some(),
    };
    let finding = metas.and_then(|m| {
        if len == 3 {
            detect(walk.detector, [m[0], m[1], m[2]])
        } else {
            detect_in_bundle(walk.detector, &m)
                .into_iter()
                .map(|(_, f)| f)
                .next()
        }
    });
    sink(&facts, finding.map(|f| (bundle.bundle_id, f)));
}

/// Walk a segment by decoding every record: the route for extended scans,
/// and the slow reference the columnar route is tested byte-for-byte
/// against (`scan_store_materializing`, `build_index_materializing`).
pub fn visit_decoded(
    view: &SegmentView,
    walk: &Walk,
    sink: &mut Sink,
) -> io::Result<Vec<PollRecord>> {
    let data = view.decode_all().map_err(corrupt)?;
    let details = detail_map(data.details);
    for bundle in &data.bundles {
        visit_bundle(bundle, &details, walk, sink);
    }
    Ok(data.polls)
}

/// Walk a segment from its columnar section. The columns alone give each
/// bundle's day, length, tip and the detector pre-filter facts (LINKED,
/// criterion 1, criterion 2), so length-1 bundles and length-3 bundles
/// that cannot be sandwiches reach the sink without touching the body;
/// only a surviving candidate decodes its three details (and, on a
/// finding, its bundle record for the id). `cols` is scratch a worker
/// reuses across segments.
///
/// Soundness of each skip is argued bit-by-bit in `store::column`; the
/// pre-filters are only consulted under the detector configuration that
/// makes them exact.
fn visit_columns(
    view: &SegmentView,
    cols: &mut Columns,
    walk: &Walk,
    sink: &mut Sink,
) -> Result<Vec<PollRecord>, CorruptSegment> {
    view.read_columns(cols)?;
    let det = walk.detector;
    let mut linked = cols.linked.iter();
    let unlinked = || CorruptSegment("more LINKED flags than linked entries".into());
    for i in 0..cols.slot.len() {
        let flags = cols.flags[i];
        let entry = if flags & META_LINKED != 0 {
            Some(linked.next().ok_or_else(unlinked)?)
        } else {
            None
        };
        let slot = Slot(cols.slot[i]);
        let len = (cols.tx_count[i] as usize).clamp(1, 5);
        let facts = BundleFacts {
            day: walk.clock.day_index(slot),
            slot,
            len,
            tip: Lamports(cols.tip[i]),
            with_details: len == 3 && entry.is_some(),
        };
        let candidate = entry.filter(|_| {
            len == 3
                && (!det.same_outer_signer || flags & META_C1 != 0)
                && (!(det.same_currencies && det.exclude_tip_only_final) || flags & META_C2 != 0)
        });
        let mut sandwich = None;
        if let Some(entry) = candidate {
            let m1 = view.detail_meta(cols, entry.details[0] as usize)?;
            let m2 = view.detail_meta(cols, entry.details[1] as usize)?;
            let m3 = view.detail_meta(cols, entry.details[2] as usize)?;
            if let Some(finding) = detect(det, [&m1, &m2, &m3]) {
                sandwich = Some((view.bundle_record(cols, i)?.bundle_id, finding));
            }
        }
        sink(&facts, sandwich);
    }
    view.polls(cols)
}

std::thread_local! {
    /// Per-worker column scratch: cleared between segments, never shrunk,
    /// so a scan over thousands of segments allocates its column arenas
    /// once per thread.
    static SCAN_SCRATCH: std::cell::RefCell<Columns> = std::cell::RefCell::new(Columns::default());
}

/// Walk one sealed segment into `sink`: the columnar route, or a full
/// decode for an extended scan. On error the sink holds a partial walk and
/// must be discarded.
pub fn visit_segment(
    view: &SegmentView,
    walk: &Walk,
    sink: &mut Sink,
) -> io::Result<Vec<PollRecord>> {
    if walk.extended {
        return visit_decoded(view, walk, sink);
    }
    SCAN_SCRATCH
        .with(|scratch| visit_columns(view, &mut scratch.borrow_mut(), walk, sink))
        .map_err(corrupt)
}

/// The one parallel pass over sealed segments: open a checksum-verified
/// view of each of `segments` (indexes into [`BundleStore::segments`];
/// caller input, so one outside the manifest is an `InvalidInput` error)
/// on `threads` workers, map it through `per_segment`, and hand back each
/// manifest entry with its outcome **in the order given**. A strict
/// caller reduces the outcomes with `?`, a degraded one turns each `Err`
/// into coverage; `scan.*` metrics count what was actually scanned.
pub fn scan_segments<'s, T: Send>(
    store: &'s BundleStore,
    segments: &[usize],
    threads: usize,
    registry: Option<&Registry>,
    per_segment: impl Fn(&SegmentView) -> io::Result<T> + Sync,
) -> io::Result<Vec<(&'s SegmentMeta, io::Result<T>)>> {
    let metas = segments.iter().map(|&i| {
        store.segments().get(i).ok_or_else(|| {
            let message = format!("serving segment index {i} is not in the manifest");
            io::Error::new(io::ErrorKind::InvalidInput, message)
        })
    });
    let metas = metas.collect::<io::Result<Vec<_>>>()?;
    let started = std::time::Instant::now();
    let (results, workers) =
        parallel_map(segments, threads, |_, &i| per_segment(&store.open_view(i)?));
    if let Some(registry) = registry {
        let scanned = results.iter().filter(|r| r.is_ok()).count();
        let count = |name, n: usize| registry.counter(name).add(n as u64);
        count(names::SCAN_SEGMENTS_SCANNED, scanned);
        count(names::SCAN_SEGMENTS_FAILED, results.len() - scanned);
        let busy = registry.histogram(names::SCAN_WORKER_BUSY_SECONDS);
        for w in &workers {
            busy.observe(w.busy.as_secs_f64());
        }
        let seconds = registry.histogram(names::SCAN_SECONDS);
        seconds.observe(started.elapsed().as_secs_f64());
    }
    Ok(metas.into_iter().zip(results).collect())
}

/// One scan unit's partial analysis state. Integer accumulators only —
/// floats are produced once, in [`ScanPartial::finalize`] — so merging
/// partials in segment order is exact and order of observation within a
/// unit never leaks into the report.
#[derive(Clone, Debug, Default)]
pub struct ScanPartial {
    days: Vec<DayRollup>,
    losses_usd: Vec<f64>,
    tips_len1: Vec<f64>,
    tips_len3: Vec<f64>,
    tips_sandwich: Vec<f64>,
    defense: DefenseStats,
    findings: Vec<DatedFinding>,
    non_sol: u64,
    len3_with_details: u64,
    polls: Vec<PollRecord>,
}

impl ScanPartial {
    /// An empty partial covering `days` measurement days.
    pub fn new(days: usize) -> Self {
        ScanPartial {
            days: (0..days as u64).map(DayRollup::new).collect(),
            ..ScanPartial::default()
        }
    }

    /// Fold one in-memory bundle in, resolving its details through `details`.
    pub fn observe_bundle(
        &mut self,
        bundle: &CollectedBundle,
        details: &DetailMap,
        clock: &SlotClock,
        config: &AnalysisConfig,
    ) {
        let walk = walk_of(clock, config);
        visit_bundle(bundle, details, &walk, &mut |b, s| {
            self.observe(b, s, config)
        });
    }

    /// The partial as a walk's [`Sink`].
    fn observe(
        &mut self,
        b: &BundleFacts,
        sandwich: Option<(Hash, SandwichFinding)>,
        config: &AnalysisConfig,
    ) {
        // Days past the configured period are not in the report.
        if let Some(day) = self.days.get_mut(b.day as usize) {
            let finding = sandwich.as_ref().map(|(_, finding)| finding);
            day.observe(b, finding, config.defensive_threshold);
        }
        if b.len == 1 {
            self.tips_len1.push(b.tip.0 as f64);
            self.defense.observe_len1(b.tip, config.defensive_threshold);
        } else if b.len == 3 {
            self.tips_len3.push(b.tip.0 as f64);
            self.len3_with_details += u64::from(b.with_details);
        }
        let Some((bundle_id, finding)) = sandwich else {
            return;
        };
        self.tips_sandwich.push(b.tip.0 as f64);
        if let Some(loss) = finding.victim_loss_lamports {
            self.losses_usd
                .push(config.oracle.lamports_to_usd(Lamports(loss)));
        }
        self.non_sol += u64::from(!finding.sol_legged);
        self.findings.push(DatedFinding {
            day: b.day,
            bundle_id,
            finding,
        });
    }

    /// Append a run of poll records (they stay ordered across merges, so
    /// the overlap rate — which excludes the first poll — is exact).
    pub fn observe_polls(&mut self, polls: &[PollRecord]) {
        self.polls.extend_from_slice(polls);
    }

    /// Fold another partial in. Only valid in scan-unit order: polls are
    /// concatenated, everything else is commutative integer addition.
    pub fn merge(&mut self, other: ScanPartial) {
        debug_assert_eq!(self.days.len(), other.days.len());
        for (day, other) in self.days.iter_mut().zip(&other.days) {
            day.add(other);
        }
        self.losses_usd.extend(other.losses_usd);
        self.tips_len1.extend(other.tips_len1);
        self.tips_len3.extend(other.tips_len3);
        self.tips_sandwich.extend(other.tips_sandwich);
        self.defense.merge(&other.defense);
        self.findings.extend(other.findings);
        self.non_sol += other.non_sol;
        self.len3_with_details += other.len3_with_details;
        self.polls.extend(other.polls);
    }

    /// Convert the integer state into the report. The one place floats are
    /// produced; findings are sorted by `(day, bundle_id)` so the report is
    /// independent of which path (in-memory, 1 thread, N threads) built it.
    pub fn finalize(mut self, config: &AnalysisConfig) -> AnalysisReport {
        self.findings.sort_by_key(|a| (a.day, a.bundle_id.0));
        let series = |of: &dyn Fn(&DayRollup) -> f64| DailySeries {
            values: self.days.iter().map(of).collect(),
        };
        AnalysisReport {
            days: config.days,
            bundles_by_len_per_day: std::array::from_fn(|i| {
                series(&|d| d.bundles_by_len[i] as f64)
            }),
            sandwiches_per_day: series(&|d| d.sandwiches as f64),
            defensive_per_day: series(&|d| d.defensive as f64),
            victim_loss_sol_per_day: series(&|d| d.victim_loss_lamports as f64 / 1e9),
            attacker_gain_sol_per_day: series(&|d| d.attacker_gain_lamports as f64 / 1e9),
            loss_cdf_usd: Cdf::from_samples(self.losses_usd),
            tip_cdf_len1: Cdf::from_samples(self.tips_len1),
            tip_cdf_len3: Cdf::from_samples(self.tips_len3),
            tip_cdf_sandwich: Cdf::from_samples(self.tips_sandwich),
            defense: self.defense,
            findings: self.findings,
            non_sol_sandwiches: self.non_sol,
            len3_with_details: self.len3_with_details,
            overlap_rate: overlap_rate(&self.polls),
            oracle: config.oracle.clone(),
        }
    }
}

/// One sealed segment's partial, walked by `route`.
fn partial_via(
    route: Route,
    view: &SegmentView,
    clock: &SlotClock,
    config: &AnalysisConfig,
) -> io::Result<ScanPartial> {
    let mut partial = ScanPartial::new(config.days as usize);
    let mut sink = |b: &BundleFacts, s| partial.observe(b, s, config);
    let polls = route(view, &walk_of(clock, config), &mut sink)?;
    partial.observe_polls(&polls);
    Ok(partial)
}

/// One sealed segment's partial: [`visit_segment`] into a [`ScanPartial`].
pub fn partial_of_view_or_segment(
    view: &SegmentView,
    clock: &SlotClock,
    config: &AnalysisConfig,
) -> io::Result<ScanPartial> {
    partial_via(visit_segment, view, clock, config)
}

/// Every serving segment's manifest entry and partial, in segment order.
fn store_partials<'s>(
    route: Route,
    store: &'s BundleStore,
    clock: &SlotClock,
    config: &AnalysisConfig,
    threads: usize,
    registry: Option<&Registry>,
) -> io::Result<Vec<(&'s SegmentMeta, io::Result<ScanPartial>)>> {
    let all: Vec<usize> = (0..store.segments().len()).collect();
    scan_segments(store, &all, threads, registry, |view| {
        partial_via(route, view, clock, config)
    })
}

/// Strict whole-store scan: the first segment to fail fails the scan.
fn scan_store_via(
    route: Route,
    store: &BundleStore,
    clock: &SlotClock,
    config: &AnalysisConfig,
    threads: usize,
    registry: Option<&Registry>,
) -> io::Result<ScanPartial> {
    let mut acc = ScanPartial::new(config.days as usize);
    for (_, partial) in store_partials(route, store, clock, config, threads, registry)? {
        acc.merge(partial?);
    }
    Ok(acc)
}

/// Scan every sealed segment of `store` on `threads` workers and reduce
/// the partials in segment order (skipping the finalize — callers that
/// still have residual in-memory records fold them in first).
pub fn scan_store_partial(
    store: &BundleStore,
    clock: &SlotClock,
    config: &AnalysisConfig,
    threads: usize,
    registry: Option<&Registry>,
) -> io::Result<ScanPartial> {
    scan_store_via(visit_segment, store, clock, config, threads, registry)
}

/// Full parallel analysis of a sealed store: scan, reduce, finalize.
pub fn scan_store(
    store: &BundleStore,
    clock: &SlotClock,
    config: &AnalysisConfig,
    threads: usize,
) -> io::Result<AnalysisReport> {
    scan_store_observed(store, clock, config, threads, None)
}

/// [`scan_store`] that also records `scan.*` metrics into a registry.
pub fn scan_store_observed(
    store: &BundleStore,
    clock: &SlotClock,
    config: &AnalysisConfig,
    threads: usize,
    registry: Option<&Registry>,
) -> io::Result<AnalysisReport> {
    Ok(scan_store_partial(store, clock, config, threads, registry)?.finalize(config))
}

/// Exact accounting of what a degraded scan or index build covered:
/// segments and bundles scanned, sitting in quarantine, or skipped because
/// they failed to read/verify.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScanCoverage {
    /// Segments on the books: serving + quarantined for a store-wide
    /// report scan, the serving segments asked for in an index build.
    pub segments_total: u64,
    /// Segments scanned into the result.
    pub segments_scanned: u64,
    /// Segments in the manifest's quarantine list (never read).
    pub segments_quarantined: u64,
    /// Serving segments that failed to read or verify and were skipped.
    pub segments_failed: u64,
    /// Bundle records scanned into the result.
    pub bundles_scanned: u64,
    /// Bundle records in quarantined segments (per their manifest entries).
    pub bundles_quarantined: u64,
    /// Bundle records in skipped segments (per their manifest entries).
    pub bundles_failed: u64,
}

impl ScanCoverage {
    /// Did the scan cover every bundle the store has on the books?
    pub fn complete(&self) -> bool {
        self.segments_quarantined == 0 && self.segments_failed == 0
    }

    /// Count one segment's outcome, passing a success on to be merged.
    pub fn record<T>(&mut self, meta: &SegmentMeta, outcome: io::Result<T>) -> Option<T> {
        let (segments, bundles) = match outcome {
            Ok(_) => (&mut self.segments_scanned, &mut self.bundles_scanned),
            Err(_) => (&mut self.segments_failed, &mut self.bundles_failed),
        };
        *segments += 1;
        *bundles += meta.bundles;
        outcome.ok()
    }

    /// Sum the block of a disjoint set of segments in.
    pub fn add(&mut self, other: &ScanCoverage) {
        self.segments_total += other.segments_total;
        self.segments_scanned += other.segments_scanned;
        self.segments_quarantined += other.segments_quarantined;
        self.segments_failed += other.segments_failed;
        self.bundles_scanned += other.bundles_scanned;
        self.bundles_quarantined += other.bundles_quarantined;
        self.bundles_failed += other.bundles_failed;
    }
}

/// Degraded-mode scan: like [`scan_store_observed`], but a segment that
/// fails to read or verify is *skipped and accounted* instead of failing
/// the whole scan, and quarantined segments are reported in the coverage
/// block. The report over the surviving segments is still deterministic —
/// byte-identical to a clean scan of the same surviving set at any thread
/// count.
pub fn scan_store_degraded(
    store: &BundleStore,
    clock: &SlotClock,
    config: &AnalysisConfig,
    threads: usize,
    registry: Option<&Registry>,
) -> io::Result<(AnalysisReport, ScanCoverage)> {
    let partials = store_partials(visit_segment, store, clock, config, threads, registry)?;
    let mut coverage = ScanCoverage {
        segments_quarantined: store.quarantined().len() as u64,
        bundles_quarantined: store.manifest().total_quarantined_bundles(),
        ..ScanCoverage::default()
    };
    coverage.segments_total = store.segments().len() as u64 + coverage.segments_quarantined;
    let mut acc = ScanPartial::new(config.days as usize);
    for (meta, partial) in partials {
        if let Some(partial) = coverage.record(meta, partial) {
            acc.merge(partial);
        }
    }
    if let Some(registry) = registry {
        registry
            .counter(names::SCAN_SEGMENTS_QUARANTINED)
            .add(coverage.segments_quarantined);
    }
    Ok((acc.finalize(config), coverage))
}

/// Full parallel analysis that decodes every record of every segment
/// ([`visit_decoded`] for every walk) — the reference the columnar
/// route is benchmarked (and byte-equality-tested) against.
pub fn scan_store_materializing(
    store: &BundleStore,
    clock: &SlotClock,
    config: &AnalysisConfig,
    threads: usize,
) -> io::Result<AnalysisReport> {
    Ok(scan_store_via(visit_decoded, store, clock, config, threads, None)?.finalize(config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sandwich_store::StoreWriter;
    use sandwich_types::{Hash, Keypair, Slot};

    fn bundle(seed: u64, slot: u64, len: usize, tip: u64) -> CollectedBundle {
        let kp = Keypair::from_label("scan");
        CollectedBundle {
            bundle_id: Hash::digest(&seed.to_le_bytes()),
            slot: Slot(slot),
            timestamp_ms: slot * 400,
            tip: Lamports(tip),
            tx_ids: (0..len)
                .map(|i| kp.sign(&(seed * 10 + i as u64).to_le_bytes()))
                .collect(),
        }
    }

    #[test]
    fn merge_matches_single_partial() {
        let clock = SlotClock::default();
        let config = AnalysisConfig::paper_defaults(2);
        let bundles: Vec<_> = (0..40u64).map(|i| bundle(i, i, 1, 30_000 + i)).collect();
        let lookup = DetailMap::new();

        let mut whole = ScanPartial::new(2);
        for b in &bundles {
            whole.observe_bundle(b, &lookup, &clock, &config);
        }
        let mut left = ScanPartial::new(2);
        let mut right = ScanPartial::new(2);
        for b in &bundles[..17] {
            left.observe_bundle(b, &lookup, &clock, &config);
        }
        for b in &bundles[17..] {
            right.observe_bundle(b, &lookup, &clock, &config);
        }
        left.merge(right);
        let a = whole.finalize(&config);
        let b = left.finalize(&config);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn store_scan_is_thread_count_invariant() {
        let dir = std::env::temp_dir().join(format!("scan-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut writer = StoreWriter::create(&dir).unwrap();
        for seg in 0..5u64 {
            let bundles: Vec<_> = (0..30)
                .map(|i| bundle(seg * 100 + i, seg * 50 + i, 1, 20_000 + i))
                .collect();
            writer
                .seal_segment(bundles, Vec::new(), Vec::new())
                .unwrap();
        }
        let store = writer.into_reader();
        let clock = SlotClock::default();
        let config = AnalysisConfig::paper_defaults(1);
        let base = serde_json::to_string(&scan_store(&store, &clock, &config, 1).unwrap()).unwrap();
        for threads in [2, 8] {
            let r = serde_json::to_string(&scan_store(&store, &clock, &config, threads).unwrap())
                .unwrap();
            assert_eq!(base, r, "threads={threads}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
