//! The collector's staging area: what was scraped from the explorer API
//! and has not been sealed into a segment yet.
//!
//! Bundles arrive as overlapping pages of "the most recent N"; the dataset
//! deduplicates by bundle id and records, per poll, whether the new page
//! overlapped the previous one — the paper's completeness argument (§3.1:
//! 95% of successive request pairs overlapped).
//!
//! The pipeline drains sealable records out of it into sealed segments
//! ([`Dataset::drain_sealable`]), so resident memory stays bounded by the
//! seal threshold plus the detail backlog while the `seen` id set keeps
//! deduplication exact across the whole run. [`Dataset::resident`] is
//! therefore the unsealed residue, never "everything collected" — that is
//! [`crate::pipeline::MeasurementRun::walk`]. What is resident is encoded
//! only as the store encodes it: [`Dataset::residue`] is the segment a
//! forced flush would seal, which a halted run's report scans and a
//! checkpoint carries as an image.

use std::collections::{HashMap, HashSet};

use sandwich_explorer::{BundleSummaryJson, TxDetailJson};
use sandwich_ledger::{TransactionId, TransactionMeta};
use sandwich_store::SegmentData;
use sandwich_types::{Slot, SlotClock};

pub use sandwich_store::{CollectedBundle, CollectedDetail, PollRecord};

/// Fetched transaction details by transaction id: the residue's, or one
/// sealed segment's (a bundle's details always share its segment).
pub type DetailMap = HashMap<TransactionId, CollectedDetail>;

/// Key one sealed segment's details by transaction id.
pub(crate) fn detail_map(details: Vec<CollectedDetail>) -> DetailMap {
    details.into_iter().map(|d| (d.meta.tx_id, d)).collect()
}

/// The three metas of a length-3 bundle, if all its details are in `details`.
pub(crate) fn metas3<'a>(
    bundle: &CollectedBundle,
    details: &'a DetailMap,
) -> Option<[&'a TransactionMeta; 3]> {
    let [a, b, c] = bundle.tx_ids.as_slice() else {
        return None;
    };
    Some([
        &details.get(a)?.meta,
        &details.get(b)?.meta,
        &details.get(c)?.meta,
    ])
}

/// Share of polls after the first whose page overlapped what was already
/// collected (the paper's 95% completeness statistic).
pub(crate) fn overlap_rate(polls: &[PollRecord]) -> f64 {
    let later = polls.get(1..).unwrap_or_default();
    if later.is_empty() {
        return 1.0;
    }
    later.iter().filter(|p| p.overlapped_previous).count() as f64 / later.len() as f64
}

/// The collector's accumulated dataset.
#[derive(Default)]
pub struct Dataset {
    bundles: Vec<CollectedBundle>,
    seen: HashSet<sandwich_jito::BundleId>,
    details: DetailMap,
    polls: Vec<PollRecord>,
    detail_requested: HashSet<sandwich_jito::BundleId>,
    /// Bundles drained into sealed segments and no longer resident.
    flushed_bundles: u64,
    /// Details drained into sealed segments and no longer resident.
    flushed_details: u64,
    /// Poll records already copied into a sealed segment.
    polls_spilled: usize,
    /// Highest slot ever ingested, resident or flushed.
    max_slot_seen: Option<u64>,
}

impl Dataset {
    /// An empty dataset.
    pub fn new() -> Self {
        Dataset::default()
    }

    /// Build one record from a wire summary (shared by live polls and
    /// backfill pages).
    fn record_from_summary(b: &BundleSummaryJson, clock: &SlotClock) -> CollectedBundle {
        CollectedBundle {
            bundle_id: b.bundle_id,
            slot: Slot(b.slot),
            timestamp_ms: clock.unix_ms(Slot(b.slot)),
            tip: b.tip(),
            tx_ids: b.transactions.clone(),
        }
    }

    /// Ingest one page (newest-first, as served): store unseen bundles in
    /// chronological order, report how many were new and whether the page
    /// overlapped anything previously collected.
    fn ingest_records(&mut self, page: &[BundleSummaryJson], clock: &SlotClock) -> (usize, bool) {
        let mut new = 0usize;
        let mut overlapped = false;
        for b in page.iter().rev() {
            if self.seen.contains(&b.bundle_id) {
                overlapped = true;
                continue;
            }
            self.seen.insert(b.bundle_id);
            self.max_slot_seen = Some(self.max_slot_seen.unwrap_or(0).max(b.slot));
            self.bundles.push(Self::record_from_summary(b, clock));
            new += 1;
        }
        (new, overlapped)
    }

    /// Ingest one recent-bundles page (newest-first, as served).
    pub fn ingest_page(
        &mut self,
        page: &[BundleSummaryJson],
        clock: &SlotClock,
        day: u64,
    ) -> PollRecord {
        let fetched = page.len();
        let (new, mut overlapped) = self.ingest_records(page, clock);
        // The very first poll trivially "overlaps" nothing; count it as
        // overlapping so it does not read as a gap.
        if self.polls.is_empty() && fetched > 0 {
            overlapped = true;
        }
        let record = PollRecord {
            day,
            fetched,
            new,
            overlapped_previous: overlapped || fetched == 0,
        };
        self.polls.push(record);
        record
    }

    /// Ingest a backfill page fetched behind a `before` cursor after a
    /// missed epoch. Unlike [`Dataset::ingest_page`] this logs no poll
    /// record — backfill repairs the gap left by an already-recorded poll.
    ///
    /// Returns `(new_bundles, reached_known)` where `reached_known` is true
    /// once the page touched bundles already collected — the signal that
    /// the gap has been closed.
    pub fn ingest_backfill_page(
        &mut self,
        page: &[BundleSummaryJson],
        clock: &SlotClock,
    ) -> (usize, bool) {
        self.ingest_records(page, clock)
    }

    /// Newest collected slot, if any (the backfill cursor's starting edge).
    /// Includes bundles already drained into sealed segments.
    pub fn newest_slot(&self) -> Option<u64> {
        self.max_slot_seen
    }

    /// Mark the most recent poll as overlapping — called after a backfill
    /// pass closed the gap that poll had opened.
    pub fn mark_last_poll_overlapped(&mut self) {
        if let Some(last) = self.polls.last_mut() {
            last.overlapped_previous = true;
        }
    }

    /// Restore chronological bundle order after backfill inserted older
    /// bundles behind the newest page.
    pub fn sort_chronological(&mut self) {
        self.bundles.sort_by_key(|b| b.slot);
    }

    /// Ingest a batch of transaction details.
    pub fn ingest_details(&mut self, details: &[Option<TxDetailJson>]) -> usize {
        let mut added = 0;
        for d in details.iter().flatten() {
            self.details.insert(
                d.tx_id,
                CollectedDetail {
                    bundle_id: d.bundle_id,
                    slot: d.slot_typed(),
                    meta: d.to_meta(),
                },
            );
            added += 1;
        }
        added
    }

    /// Resident (not yet drained) bundles, in collection (≈ chronological)
    /// order.
    pub fn resident(&self) -> &[CollectedBundle] {
        &self.bundles
    }

    /// Number of collected bundles, including ones drained into sealed
    /// segments.
    pub fn len(&self) -> usize {
        self.bundles.len() + self.flushed_bundles as usize
    }

    /// True when nothing was collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetched details still resident.
    pub fn details(&self) -> &DetailMap {
        &self.details
    }

    /// Number of fetched transaction details, including drained ones.
    pub fn detail_count(&self) -> usize {
        self.details.len() + self.flushed_details as usize
    }

    /// Poll log.
    pub fn polls(&self) -> &[PollRecord] {
        &self.polls
    }

    /// [`overlap_rate`] of the whole poll ledger.
    pub fn overlap_rate(&self) -> f64 {
        overlap_rate(&self.polls)
    }

    /// Transaction ids of length-`len` bundles whose details have not been
    /// requested yet, marked requested — the paper's strategy of fetching
    /// details only for bundles of length three (§3.1) — and the bundle ids
    /// that were marked, so a failed fetch can requeue them with
    /// [`Dataset::unmark_detail_requested`] instead of silently losing the
    /// details forever.
    pub fn take_pending_details(
        &mut self,
        len: usize,
        max: usize,
    ) -> (Vec<TransactionId>, Vec<sandwich_jito::BundleId>) {
        let mut out = Vec::new();
        let mut marked = Vec::new();
        for b in &self.bundles {
            if out.len() + len > max {
                break;
            }
            if b.len() == len && !self.detail_requested.contains(&b.bundle_id) {
                self.detail_requested.insert(b.bundle_id);
                marked.push(b.bundle_id);
                out.extend(b.tx_ids.iter().copied());
            }
        }
        (out, marked)
    }

    /// Return bundles to the pending-details queue after a failed fetch.
    pub fn unmark_detail_requested(&mut self, bundle_ids: &[sandwich_jito::BundleId]) {
        for id in bundle_ids {
            self.detail_requested.remove(id);
        }
    }

    /// True when a bundle can be drained into a sealed segment: either its
    /// length never gets details fetched, or every detail has arrived — so
    /// each sealed segment is self-contained (a bundle and its details
    /// always share a segment), which is what lets the scan engine process
    /// segments independently.
    fn is_sealable(&self, bundle: &CollectedBundle, detail_lens: &[usize]) -> bool {
        !detail_lens.contains(&bundle.len())
            || bundle.tx_ids.iter().all(|id| self.details.contains_key(id))
    }

    /// Number of bundles currently drainable via [`Dataset::drain_sealable`].
    pub fn sealable_count(&self, detail_lens: &[usize]) -> usize {
        self.bundles
            .iter()
            .filter(|b| self.is_sealable(b, detail_lens))
            .count()
    }

    /// Drain up to `max` sealable bundles (plus their resident details) out
    /// of memory for sealing into a segment. With `force`, *every* resident
    /// bundle drains — including ones still awaiting details — which is the
    /// end-of-run flush. Returns `(bundles, details)`.
    pub fn drain_sealable(
        &mut self,
        detail_lens: &'static [usize],
        max: usize,
        force: bool,
    ) -> (Vec<CollectedBundle>, Vec<CollectedDetail>) {
        let mut drained = Vec::new();
        let mut kept = Vec::with_capacity(self.bundles.len());
        for b in std::mem::take(&mut self.bundles) {
            if drained.len() < max && (force || self.is_sealable(&b, detail_lens)) {
                drained.push(b);
            } else {
                kept.push(b);
            }
        }
        self.bundles = kept;
        let mut details = Vec::new();
        for b in &drained {
            self.detail_requested.remove(&b.bundle_id);
            for tx in &b.tx_ids {
                if let Some(d) = self.details.remove(tx) {
                    details.push(d);
                }
            }
        }
        self.flushed_bundles += drained.len() as u64;
        self.flushed_details += details.len() as u64;
        (drained, details)
    }

    /// Read-only view of the poll records not yet copied into a sealed
    /// segment (the tail a combined store+residual scan still owes).
    pub fn unspilled_polls(&self) -> &[PollRecord] {
        &self.polls[self.polls_spilled..]
    }

    /// Poll records not yet copied into a sealed segment. Polls stay
    /// resident either way (the ledger is tiny and `overlap_rate` needs
    /// it); this only tracks which tail still owes the store a copy.
    pub fn drain_unspilled_polls(&mut self) -> Vec<PollRecord> {
        let tail = self.polls[self.polls_spilled..].to_vec();
        self.polls_spilled = self.polls.len();
        tail
    }

    /// True when nothing (bundles, details, polls) is waiting to be
    /// written to the store.
    pub fn fully_spilled(&self) -> bool {
        self.bundles.is_empty() && self.polls_spilled == self.polls.len()
    }

    /// The records a forced flush would seal now, as one segment's data:
    /// the resident bundles in collection order, the resident details
    /// sorted by transaction id, and the polls not yet copied into a
    /// segment. A halted run's report scans it as one more segment image.
    pub fn residue(&self) -> SegmentData {
        self.residue_with(self.unspilled_polls())
    }

    /// [`Dataset::residue`] with `polls` as its poll section (a checkpoint
    /// carries the whole ledger).
    pub(crate) fn residue_with(&self, polls: &[PollRecord]) -> SegmentData {
        let mut details: Vec<_> = self.details.values().cloned().collect();
        details.sort_by_key(|d| d.meta.tx_id.0);
        SegmentData {
            bundles: self.bundles.clone(),
            details,
            polls: polls.to_vec(),
        }
    }

    /// Ids of the bundles drained into sealed segments, sorted: what dedup
    /// must remember once the records themselves left memory.
    pub(crate) fn drained_ids(&self) -> Vec<sandwich_jito::BundleId> {
        let resident: HashSet<_> = self.bundles.iter().map(|b| b.bundle_id).collect();
        let mut ids: Vec<_> = self.seen.difference(&resident).copied().collect();
        ids.sort_by_key(|id| id.0);
        ids
    }

    /// Rebuild a staging area from what a checkpoint kept of it:
    /// [`Dataset::residue_with`] the whole ledger, the
    /// [`Dataset::drained_ids`], and the drained detail count, spilled poll
    /// count and newest slot. Bundles are stable-sorted by slot. A bundle
    /// whose details all survived counts as requested; any other goes back
    /// in the queue, so a resumed run re-fetches it.
    pub(crate) fn restore(
        residue: SegmentData,
        drained: Vec<sandwich_jito::BundleId>,
        drained_details: u64,
        polls_spilled: usize,
        newest_slot: Option<u64>,
    ) -> Dataset {
        let mut ds = Dataset {
            bundles: residue.bundles,
            details: detail_map(residue.details),
            polls: residue.polls,
            flushed_bundles: drained.len() as u64,
            flushed_details: drained_details,
            polls_spilled,
            ..Dataset::default()
        };
        ds.bundles.sort_by_key(|b| b.slot);
        ds.max_slot_seen = ds.bundles.iter().map(|b| b.slot.0).max().max(newest_slot);
        ds.seen = ds.bundles.iter().map(|b| b.bundle_id).collect();
        ds.seen.extend(drained);
        let requested = ds
            .bundles
            .iter()
            .filter(|b| b.tx_ids.iter().all(|id| ds.details.contains_key(id)))
            .map(|b| b.bundle_id);
        ds.detail_requested = requested.collect();
        ds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sandwich_types::Hash;

    fn page_entry(seed: u64, slot: u64, len: usize) -> BundleSummaryJson {
        let kp = sandwich_types::Keypair::from_label("ds");
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

    #[test]
    fn dedup_and_overlap_detection() {
        let clock = SlotClock::default();
        let mut ds = Dataset::new();
        // First page: bundles 0..5.
        let p1: Vec<_> = (0..5).rev().map(|i| page_entry(i, i, 1)).collect();
        let r1 = ds.ingest_page(&p1, &clock, 0);
        assert_eq!(r1.new, 5);
        assert!(r1.overlapped_previous, "first poll counts as overlapping");

        // Second page: bundles 3..8 — overlaps.
        let p2: Vec<_> = (3..8).rev().map(|i| page_entry(i, i, 1)).collect();
        let r2 = ds.ingest_page(&p2, &clock, 0);
        assert_eq!(r2.new, 3);
        assert!(r2.overlapped_previous);

        // Third page: bundles 20..22 — a gap.
        let p3: Vec<_> = (20..22).rev().map(|i| page_entry(i, i, 1)).collect();
        let r3 = ds.ingest_page(&p3, &clock, 0);
        assert!(!r3.overlapped_previous);

        assert_eq!(ds.len(), 10);
        // Overlap rate over polls 2..3: one of two overlapped.
        assert!((ds.overlap_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn chronological_storage() {
        let clock = SlotClock::default();
        let mut ds = Dataset::new();
        let page: Vec<_> = (0..4).rev().map(|i| page_entry(i, i * 100, 1)).collect();
        ds.ingest_page(&page, &clock, 0);
        let slots: Vec<u64> = ds.resident().iter().map(|b| b.slot.0).collect();
        assert_eq!(slots, vec![0, 100, 200, 300]);
    }

    #[test]
    fn take_pending_details_marks_and_caps() {
        let clock = SlotClock::default();
        let mut ds = Dataset::new();
        let page: Vec<_> = (0..4).map(|i| page_entry(i, i, 3)).collect();
        ds.ingest_page(&page, &clock, 0);
        let first = ds.take_pending_details(3, 6).0; // room for two bundles
        assert_eq!(first.len(), 6);
        let second = ds.take_pending_details(3, 100).0;
        assert_eq!(second.len(), 6, "remaining two bundles");
        assert!(ds.take_pending_details(3, 100).0.is_empty());
    }

    #[test]
    fn backfill_ingest_reaches_known_bundles() {
        let clock = SlotClock::default();
        let mut ds = Dataset::new();
        // Normal poll over slots 0..5, then a gapped poll over 20..22.
        let p1: Vec<_> = (0..5).rev().map(|i| page_entry(i, i, 1)).collect();
        ds.ingest_page(&p1, &clock, 0);
        let p2: Vec<_> = (20..22).rev().map(|i| page_entry(i, i, 1)).collect();
        let r2 = ds.ingest_page(&p2, &clock, 0);
        assert!(!r2.overlapped_previous);

        // Backfill page covering the hole but not touching known bundles.
        let fill: Vec<_> = (10..20).rev().map(|i| page_entry(i, i, 1)).collect();
        let (new, reached) = ds.ingest_backfill_page(&fill, &clock);
        assert_eq!(new, 10);
        assert!(!reached);

        // Deeper page reaches the previously collected range.
        let fill2: Vec<_> = (3..10).rev().map(|i| page_entry(i, i, 1)).collect();
        let (new, reached) = ds.ingest_backfill_page(&fill2, &clock);
        assert_eq!(new, 5, "bundles 3 and 4 were already collected");
        assert!(reached, "touched bundles 3 and 4");

        ds.mark_last_poll_overlapped();
        assert!(ds.polls().last().unwrap().overlapped_previous);
        ds.sort_chronological();
        let slots: Vec<u64> = ds.resident().iter().map(|b| b.slot.0).collect();
        let mut sorted = slots.clone();
        sorted.sort_unstable();
        assert_eq!(slots, sorted);
    }

    #[test]
    fn unmark_requeues_failed_detail_fetches() {
        let clock = SlotClock::default();
        let mut ds = Dataset::new();
        let page: Vec<_> = (0..2).map(|i| page_entry(i, i, 3)).collect();
        ds.ingest_page(&page, &clock, 0);
        let (ids, marked) = ds.take_pending_details(3, 100);
        assert_eq!(ids.len(), 6);
        assert_eq!(marked.len(), 2);
        assert!(ds.take_pending_details(3, 100).0.is_empty());
        // Fetch failed: requeue, then the same work comes back.
        ds.unmark_detail_requested(&marked);
        assert_eq!(ds.take_pending_details(3, 100).0.len(), 6);
    }

    #[test]
    fn take_pending_details_filters_length() {
        let clock = SlotClock::default();
        let mut ds = Dataset::new();
        ds.ingest_page(&[page_entry(1, 1, 1), page_entry(2, 2, 3)], &clock, 0);
        let ids = ds.take_pending_details(3, 100).0;
        assert_eq!(ids.len(), 3);
    }

    #[test]
    fn drain_sealable_holds_back_pending_detail_bundles() {
        let clock = SlotClock::default();
        let mut ds = Dataset::new();
        // Two len-1 bundles (sealable immediately), one len-3 (must wait).
        ds.ingest_page(
            &[
                page_entry(1, 1, 1),
                page_entry(2, 2, 3),
                page_entry(3, 3, 1),
            ],
            &clock,
            0,
        );
        assert_eq!(ds.sealable_count(&[3]), 2);
        let (bundles, details) = ds.drain_sealable(&[3], 100, false);
        assert_eq!(bundles.len(), 2);
        assert!(details.is_empty());
        assert_eq!(ds.resident().len(), 1, "len-3 bundle stays resident");
        assert_eq!(ds.len(), 3, "len counts drained bundles too");
        // Re-poll with the same page: everything deduped against `seen`.
        let rec = ds.ingest_page(&[page_entry(1, 1, 1)], &clock, 0);
        assert_eq!(rec.new, 0);
        assert_eq!(ds.newest_slot(), Some(3), "cursor survives the drain");
        // Force drains the pending bundle as well.
        let (bundles, _) = ds.drain_sealable(&[3], 100, true);
        assert_eq!(bundles.len(), 1);
        assert!(ds.resident().is_empty());
    }

    #[test]
    fn drained_detail_travels_with_its_bundle() {
        let clock = SlotClock::default();
        let mut ds = Dataset::new();
        let entry = page_entry(7, 7, 3);
        ds.ingest_page(std::slice::from_ref(&entry), &clock, 0);
        assert_eq!(ds.sealable_count(&[3]), 0, "details missing");
        let kp = sandwich_types::Keypair::from_label("ds");
        let details: Vec<_> = (0..3)
            .map(|i| {
                Some(sandwich_explorer::TxDetailJson {
                    tx_id: kp.sign(&(7 * 10 + i as u64).to_le_bytes()),
                    bundle_id: entry.bundle_id,
                    slot: 7,
                    signer: kp.pubkey(),
                    fee_lamports: 5_000,
                    priority_fee_lamports: 0,
                    success: true,
                    sol_deltas: vec![],
                    token_deltas: vec![],
                })
            })
            .collect();
        ds.ingest_details(&details);
        assert_eq!(ds.sealable_count(&[3]), 1);
        let (bundles, drained) = ds.drain_sealable(&[3], 100, false);
        assert_eq!(bundles.len(), 1);
        assert_eq!(drained.len(), 3, "all three details drain together");
        assert_eq!(ds.detail_count(), 3, "count remembers drained details");
        assert!(!ds
            .details()
            .contains_key(&details[0].as_ref().unwrap().tx_id));
    }

    #[test]
    fn residue_is_what_a_forced_flush_drains() {
        let clock = SlotClock::default();
        let mut ds = Dataset::new();
        // Collection order is not slot order: the residue keeps it.
        ds.ingest_page(&[page_entry(1, 9, 1), page_entry(2, 3, 3)], &clock, 0);
        ds.ingest_backfill_page(&[page_entry(3, 1, 1)], &clock);
        let residue = ds.residue();
        let slots: Vec<u64> = residue.bundles.iter().map(|b| b.slot.0).collect();
        assert_eq!(slots, vec![3, 9, 1]);
        let polls = ds.drain_unspilled_polls();
        let (bundles, details) = ds.drain_sealable(&[3], 100, true);
        assert_eq!(residue.bundles, bundles);
        assert_eq!(residue.details, details);
        assert_eq!(residue.polls, polls);
        assert!(ds.residue().bundles.is_empty() && ds.residue().polls.is_empty());
    }
}
