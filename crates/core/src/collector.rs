//! The collector: the paper's data-collection methodology (§3.1) as a
//! client of the explorer API.
//!
//! Every ~2 minutes it requests the most recent `page_limit` bundles
//! (the paper raised the endpoint's limit from 200 to 50,000), checks that
//! successive pages overlap (completeness), and separately batch-fetches
//! transaction details — only for length-3 bundles, which average 2.77% of
//! volume and carry the canonical sandwich shape.
//!
//! The collector is self-healing: an overlap miss (or the gap left by a
//! failed epoch) triggers a bounded backfill that pages deeper through the
//! `before` cursor until the gap is closed; a run of hard failures opens a
//! circuit breaker that degrades polling to cheap single-attempt probes
//! until the backend recovers.

use std::sync::Arc;

use sandwich_explorer::{RecentBundlesResponse, TxDetailsRequest, TxDetailsResponse};
use sandwich_net::{
    retry_classified, BreakerConfig, BreakerState, CircuitBreaker, ClientError, ClientTimeouts,
    HttpClient, RetryClass, RetryPolicy,
};
use sandwich_obs::{Counter, Gauge, Histogram, Registry};
use sandwich_store::{SegmentMeta, StoreWriter};
use sandwich_types::SlotClock;

use crate::dataset::{Dataset, PollRecord};

/// Collector tunables.
#[derive(Clone, Copy, Debug)]
pub struct CollectorConfig {
    /// Page size requested from the bundles endpoint.
    pub page_limit: usize,
    /// Transactions per detail batch (the paper used 10,000).
    pub detail_batch: usize,
    /// Bundle lengths whose details are fetched. The paper fetched only
    /// length 3; extended (lower-bound) analysis adds 4 and 5.
    pub detail_bundle_lens: &'static [usize],
    /// Retry policy for transient failures.
    pub retry: RetryPolicy,
    /// Per-request connect/total deadlines.
    pub timeouts: ClientTimeouts,
    /// Circuit-breaker tunables (cooldown measured on the simulated clock
    /// the pipeline passes as `now_ms`).
    pub breaker: BreakerConfig,
    /// Maximum deeper pages fetched per overlap miss. Bounds how much of
    /// a long outage backfill will heal — a day-long gap stays a visible
    /// gap, a single missed epoch is recovered in full.
    pub backfill_max_pages: u32,
}

impl Default for CollectorConfig {
    fn default() -> Self {
        CollectorConfig {
            page_limit: 50_000,
            detail_batch: 10_000,
            detail_bundle_lens: &[3],
            retry: RetryPolicy::default(),
            timeouts: ClientTimeouts::default(),
            breaker: BreakerConfig::default(),
            backfill_max_pages: 8,
        }
    }
}

/// Cumulative collector health counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CollectorStats {
    /// Successful bundle polls.
    pub polls_ok: u64,
    /// Bundle polls that failed after retries.
    pub polls_failed: u64,
    /// Polls skipped because the circuit breaker was open.
    pub polls_skipped: u64,
    /// Detail batches fetched.
    pub detail_batches: u64,
    /// Transaction details stored.
    pub details_fetched: u64,
    /// Total retry attempts spent.
    pub attempts: u64,
    /// Backfill pages fetched after overlap misses.
    pub backfill_pages: u64,
    /// Bundles recovered by backfill.
    pub bundles_recovered: u64,
    /// Requests that hit a client-side deadline.
    pub timeouts: u64,
    /// Segments sealed into the bundle store.
    pub segments_sealed: u64,
    /// Bytes of sealed segment files written.
    pub store_bytes_written: u64,
}

/// Cached metric handles for collection health (`collector.` prefix, plus
/// the `client.` resilience metrics).
struct CollectorMetrics {
    polls_ok: Arc<Counter>,
    polls_failed: Arc<Counter>,
    polls_skipped_breaker: Arc<Counter>,
    retry_attempts: Arc<Counter>,
    overlap_misses: Arc<Counter>,
    poll_seconds: Arc<Histogram>,
    detail_backlog: Arc<Gauge>,
    detail_batches: Arc<Counter>,
    details_fetched: Arc<Counter>,
    details_failed: Arc<Counter>,
    backfill_pages: Arc<Counter>,
    bundles_recovered: Arc<Counter>,
    client_timeouts: Arc<Counter>,
    breaker_state: Arc<Gauge>,
    segments_sealed: Arc<Counter>,
    store_bytes_written: Arc<Counter>,
    /// Where the client's `client.connections.*` counts are mirrored.
    registry: Registry,
}

impl CollectorMetrics {
    fn new(registry: &Registry) -> Self {
        CollectorMetrics {
            polls_ok: registry.counter("collector.polls_ok"),
            polls_failed: registry.counter("collector.polls_failed"),
            polls_skipped_breaker: registry.counter("collector.polls_skipped_breaker"),
            retry_attempts: registry.counter("collector.retry_attempts"),
            overlap_misses: registry.counter("collector.overlap_misses"),
            poll_seconds: registry.histogram("collector.poll_seconds"),
            detail_backlog: registry.gauge("collector.detail_backlog"),
            detail_batches: registry.counter("collector.detail_batches"),
            details_fetched: registry.counter("collector.details_fetched"),
            details_failed: registry.counter("collector.details_failed"),
            backfill_pages: registry.counter("collector.backfill_pages"),
            bundles_recovered: registry.counter("collector.bundles_recovered"),
            client_timeouts: registry.counter("client.timeouts"),
            breaker_state: registry.gauge("client.breaker_state"),
            segments_sealed: registry.counter(sandwich_obs::names::STORE_SEGMENTS_SEALED),
            store_bytes_written: registry.counter(sandwich_obs::names::STORE_BYTES_WRITTEN),
            registry: registry.clone(),
        }
    }
}

/// Classify a client error for the retry loop, feeding 429 pacing hints
/// back as the next delay.
fn classify(e: &ClientError) -> RetryClass {
    if let Some(hint) = e.retry_after() {
        return RetryClass::AfterHint(hint);
    }
    if e.is_transient() {
        RetryClass::Transient
    } else {
        RetryClass::Permanent
    }
}

/// Fetch one bundles page, refusing it like a body that does not decode
/// when it carries a bundle past `newest`, the slot the poll's own clock
/// is at. An honest explorer serves only bundles that landed, so it never
/// sends one; a bundle from the far future would overflow the collected
/// timestamp or, sealed into the store, have the next index finalize walk
/// the leader schedule all the way out to it.
async fn fetch_page(
    client: &HttpClient,
    path: &str,
    newest: u64,
) -> Result<RecentBundlesResponse, ClientError> {
    let page = client.get_json::<RecentBundlesResponse>(path).await?;
    match page.bundles.iter().find(|b| b.slot > newest) {
        None => Ok(page),
        Some(b) => Err(ClientError::Decode(serde::de::Error::custom(format!(
            "a bundle at slot {} is past the poll's slot {newest}",
            b.slot
        )))),
    }
}

/// The collector's segment-store sink: where sealed segments go and how
/// many bundles trigger a seal.
struct StoreSink {
    writer: StoreWriter,
    segment_bundles: usize,
}

/// The polling client plus its accumulated dataset.
pub struct Collector {
    client: HttpClient,
    config: CollectorConfig,
    metrics: Option<CollectorMetrics>,
    breaker: CircuitBreaker,
    store: Option<StoreSink>,
    /// The staging area: what was collected and has not sealed yet, plus
    /// the dedup ids, totals and poll ledger of everything collected.
    pub dataset: Dataset,
    /// Health counters.
    pub stats: CollectorStats,
}

impl Collector {
    /// A collector aimed at an explorer instance.
    pub fn new(addr: std::net::SocketAddr, config: CollectorConfig) -> Self {
        Collector {
            client: HttpClient::new(addr).with_timeouts(config.timeouts),
            breaker: CircuitBreaker::new(config.breaker),
            config,
            metrics: None,
            store: None,
            dataset: Dataset::new(),
            stats: CollectorStats::default(),
        }
    }

    /// A collector that also records collection health into `registry`
    /// under the `collector.` prefix.
    pub fn with_registry(
        addr: std::net::SocketAddr,
        config: CollectorConfig,
        registry: &Registry,
    ) -> Self {
        let mut collector = Collector::new(addr, config);
        collector.metrics = Some(CollectorMetrics::new(registry));
        collector
    }

    /// Current circuit-breaker state at simulated time `now_ms`.
    pub fn breaker_state(&mut self, now_ms: u64) -> BreakerState {
        self.breaker.state_at(now_ms)
    }

    /// Restore checkpointed state: the dataset and cumulative counters
    /// pick up where the killed run left off. The restored counters are
    /// replayed into the registry so `/metrics` stays consistent with
    /// `stats` across a resume. The breaker restarts closed — worst case
    /// the first poll re-discovers a still-down backend.
    pub fn restore(&mut self, stats: CollectorStats, dataset: Dataset) {
        if let Some(m) = &self.metrics {
            m.polls_ok.add(stats.polls_ok);
            m.polls_failed.add(stats.polls_failed);
            m.polls_skipped_breaker.add(stats.polls_skipped);
            m.retry_attempts.add(stats.attempts);
            m.detail_batches.add(stats.detail_batches);
            m.details_fetched.add(stats.details_fetched);
            m.backfill_pages.add(stats.backfill_pages);
            m.bundles_recovered.add(stats.bundles_recovered);
            m.client_timeouts.add(stats.timeouts);
            m.segments_sealed.add(stats.segments_sealed);
            m.store_bytes_written.add(stats.store_bytes_written);
        }
        self.stats = stats;
        self.dataset = dataset;
    }

    /// Attach a segment-store sink: from now on, [`Collector::flush_store`]
    /// seals a segment whenever `segment_bundles` bundles are sealable,
    /// keeping resident memory bounded by the threshold plus the
    /// detail-pending backlog.
    pub fn attach_store(&mut self, writer: StoreWriter, segment_bundles: usize) {
        self.store = Some(StoreSink {
            writer,
            segment_bundles: segment_bundles.max(1),
        });
    }

    /// Detach and return the store writer (end of run, before analysis).
    pub fn take_store(&mut self) -> Option<StoreWriter> {
        self.store.take().map(|s| s.writer)
    }

    /// Seal every full segment currently drainable from the dataset; with
    /// `force`, seal everything left (end-of-run flush), including bundles
    /// still awaiting details and the unspilled poll tail. Returns the
    /// metadata of segments sealed by this call, in seal order. A no-op
    /// without an attached store.
    pub fn flush_store(&mut self, force: bool) -> std::io::Result<Vec<SegmentMeta>> {
        let Some(sink) = &mut self.store else {
            return Ok(Vec::new());
        };
        let lens = self.config.detail_bundle_lens;
        let mut sealed = Vec::new();
        loop {
            let due = if force {
                !self.dataset.fully_spilled()
            } else {
                self.dataset.sealable_count(lens) >= sink.segment_bundles
            };
            if !due {
                break;
            }
            let (bundles, details) = self
                .dataset
                .drain_sealable(lens, sink.segment_bundles, force);
            let polls = self.dataset.drain_unspilled_polls();
            let meta = sink.writer.seal_segment(bundles, details, polls)?;
            self.stats.segments_sealed += 1;
            self.stats.store_bytes_written += meta.bytes;
            if let Some(m) = &self.metrics {
                m.segments_sealed.inc();
                m.store_bytes_written.add(meta.bytes);
            }
            sealed.push(meta);
        }
        Ok(sealed)
    }

    /// The retry policy for the current breaker state: half-open probes
    /// are single-attempt so a still-down backend costs one request, not a
    /// whole retry ladder.
    fn policy_for(&mut self, now_ms: u64) -> RetryPolicy {
        if self.breaker.state_at(now_ms) == BreakerState::HalfOpen {
            RetryPolicy {
                max_attempts: 1,
                ..self.config.retry
            }
        } else {
            self.config.retry
        }
    }

    fn record_outcome(&mut self, ok: bool, now_ms: u64) {
        if ok {
            self.breaker.record_success();
        } else {
            self.breaker.record_failure(now_ms);
        }
        if let Some(m) = &self.metrics {
            m.breaker_state
                .set(self.breaker.state_at(now_ms).as_gauge());
        }
    }

    /// Book what one retry ladder cost the transport: the attempts that hit
    /// a client deadline, and the connection pool's running counts.
    fn record_transport(&mut self, timed_out: u64) {
        self.stats.timeouts += timed_out;
        if let Some(m) = &self.metrics {
            m.client_timeouts.add(timed_out);
            self.client
                .stats()
                .publish(&m.registry, sandwich_obs::names::CLIENT_CONNECTIONS_PREFIX);
        }
    }

    /// One polling epoch at simulated time `now_ms`: fetch the most recent
    /// page, ingest it, and heal any overlap miss by backfilling.
    ///
    /// Returns `Ok(None)` when the circuit breaker is open and the poll was
    /// skipped (degraded mode) — not a failure, not a success. `now_ms` is
    /// on `clock`: a page carrying a bundle past the slot it is at fails
    /// the poll, as an undecodable body does, and nothing of it is kept.
    pub async fn poll_bundles(
        &mut self,
        clock: &SlotClock,
        day: u64,
        now_ms: u64,
    ) -> Result<Option<PollRecord>, ClientError> {
        if !self.breaker.allow(now_ms) {
            self.stats.polls_skipped += 1;
            if let Some(m) = &self.metrics {
                m.polls_skipped_breaker.inc();
                m.breaker_state
                    .set(self.breaker.state_at(now_ms).as_gauge());
            }
            return Ok(None);
        }
        let client = self.client.clone();
        let policy = self.policy_for(now_ms);
        let path = format!("/api/v1/bundles?limit={}", self.config.page_limit);
        let newest = clock.slot_at_unix_ms(now_ms).0;
        let started = std::time::Instant::now();
        // Count every attempt that hit a client deadline, including ones a
        // later retry recovered — `client.timeouts` is an attempt-level
        // signal, not a poll-level one.
        let timed_out = std::cell::Cell::new(0u64);
        let outcome = retry_classified(
            policy,
            || fetch_page(&client, &path, newest),
            |e| {
                if e.is_timeout() {
                    timed_out.set(timed_out.get() + 1);
                }
                classify(e)
            },
        )
        .await;
        self.record_transport(timed_out.get());
        self.stats.attempts += outcome.attempts as u64;
        if let Some(m) = &self.metrics {
            m.poll_seconds.observe(started.elapsed().as_secs_f64());
            m.retry_attempts
                .add(outcome.attempts.saturating_sub(1) as u64);
        }
        self.record_outcome(outcome.result.is_ok(), now_ms);
        match outcome.result {
            Ok(page) => {
                self.stats.polls_ok += 1;
                let had_prior_poll = !self.dataset.polls().is_empty();
                let prior_newest = self.dataset.newest_slot();
                let rec = self.dataset.ingest_page(&page.bundles, clock, day);
                if let Some(m) = &self.metrics {
                    m.polls_ok.inc();
                    if had_prior_poll && !rec.overlapped_previous {
                        m.overlap_misses.inc();
                    }
                }
                let mut rec = rec;
                if had_prior_poll && !rec.overlapped_previous {
                    // The page did not touch anything previously collected:
                    // an epoch was missed. Page deeper until the gap closes
                    // (bounded, so a day-long outage stays a visible gap).
                    let oldest_fetched = page.bundles.last().map(|b| b.slot);
                    if let (Some(cursor), Some(_)) = (oldest_fetched, prior_newest) {
                        if self.backfill(clock, cursor, newest).await {
                            self.dataset.mark_last_poll_overlapped();
                            rec.overlapped_previous = true;
                        }
                    }
                    self.dataset.sort_chronological();
                }
                Ok(Some(rec))
            }
            Err(e) => {
                self.stats.polls_failed += 1;
                if let Some(m) = &self.metrics {
                    m.polls_failed.inc();
                }
                Err(e)
            }
        }
    }

    /// Page deeper through the `before` cursor until a page overlaps
    /// already-collected bundles, comes back empty, or the page budget is
    /// spent. Returns true when the gap was closed. A page with a bundle
    /// past `newest` is refused like the live page would be.
    async fn backfill(&mut self, clock: &SlotClock, mut cursor: u64, newest: u64) -> bool {
        let client = self.client.clone();
        for _ in 0..self.config.backfill_max_pages {
            let path = format!(
                "/api/v1/bundles?limit={}&before={}",
                self.config.page_limit, cursor
            );
            let timed_out = std::cell::Cell::new(0u64);
            let outcome = retry_classified(
                self.config.retry,
                || fetch_page(&client, &path, newest),
                |e| {
                    if e.is_timeout() {
                        timed_out.set(timed_out.get() + 1);
                    }
                    classify(e)
                },
            )
            .await;
            self.record_transport(timed_out.get());
            self.stats.attempts += outcome.attempts as u64;
            if let Some(m) = &self.metrics {
                m.retry_attempts
                    .add(outcome.attempts.saturating_sub(1) as u64);
            }
            let page = match outcome.result {
                Ok(page) => page,
                // Backend still unhealthy: give up, leave the gap.
                Err(_) => return false,
            };
            self.stats.backfill_pages += 1;
            if let Some(m) = &self.metrics {
                m.backfill_pages.inc();
            }
            if page.bundles.is_empty() {
                // Walked past the beginning of history: nothing older
                // exists, so there is no gap below us.
                return true;
            }
            let (new, reached_known) = self.dataset.ingest_backfill_page(&page.bundles, clock);
            self.stats.bundles_recovered += new as u64;
            if let Some(m) = &self.metrics {
                m.bundles_recovered.add(new as u64);
            }
            if reached_known {
                return true;
            }
            cursor = page.bundles.last().map(|b| b.slot).unwrap_or(cursor);
        }
        false
    }

    /// Fetch details for all length-3 bundles not yet resolved, in batches.
    /// Returns the number of details stored; skips entirely (Ok(0)) while
    /// the breaker is open. A failed batch is requeued, not lost.
    pub async fn fetch_pending_details(&mut self, now_ms: u64) -> Result<usize, ClientError> {
        if !self.breaker.allow(now_ms) {
            return Ok(0);
        }
        let client = self.client.clone();
        let mut total = 0usize;
        for &len in self.config.detail_bundle_lens {
            loop {
                let (ids, marked) = self
                    .dataset
                    .take_pending_details(len, self.config.detail_batch);
                if let Some(m) = &self.metrics {
                    m.detail_backlog.set(ids.len() as i64);
                }
                if ids.is_empty() {
                    break;
                }
                let policy = self.policy_for(now_ms);
                let request = TxDetailsRequest { tx_ids: ids };
                let timed_out = std::cell::Cell::new(0u64);
                let outcome = retry_classified(
                    policy,
                    || client.post_json::<_, TxDetailsResponse>("/api/v1/transactions", &request),
                    |e| {
                        if e.is_timeout() {
                            timed_out.set(timed_out.get() + 1);
                        }
                        classify(e)
                    },
                )
                .await;
                self.record_transport(timed_out.get());
                self.stats.attempts += outcome.attempts as u64;
                if let Some(m) = &self.metrics {
                    m.retry_attempts
                        .add(outcome.attempts.saturating_sub(1) as u64);
                    if outcome.result.is_err() {
                        m.details_failed.inc();
                    }
                }
                self.record_outcome(outcome.result.is_ok(), now_ms);
                let resp = match outcome.result {
                    Ok(resp) => resp,
                    Err(e) => {
                        // Requeue: these bundles' details are still owed.
                        self.dataset.unmark_detail_requested(&marked);
                        return Err(e);
                    }
                };
                let added = self.dataset.ingest_details(&resp.transactions);
                self.stats.detail_batches += 1;
                self.stats.details_fetched += added as u64;
                if let Some(m) = &self.metrics {
                    m.detail_batches.inc();
                    m.details_fetched.add(added as u64);
                }
                total += added;
            }
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use parking_lot::RwLock;
    use sandwich_explorer::{Explorer, ExplorerConfig, HistoryStore, RetentionPolicy};
    use sandwich_jito::LandedBundle;
    use sandwich_types::{Hash, Keypair, Lamports, Slot};

    fn landed(slot: u64, len: usize, seed: u64) -> LandedBundle {
        let kp = Keypair::from_label("col");
        LandedBundle {
            bundle_id: Hash::digest(&seed.to_le_bytes()),
            slot: Slot(slot),
            tip: Lamports(2_000),
            metas: (0..len)
                .map(|i| sandwich_ledger::TransactionMeta {
                    tx_id: kp.sign(&(seed * 100 + i as u64).to_le_bytes()),
                    signer: kp.pubkey(),
                    fee: Lamports(5_000),
                    priority_fee: Lamports::ZERO,
                    success: true,
                    error: None,
                    sol_deltas: vec![],
                    token_deltas: vec![],
                })
                .collect(),
        }
    }

    async fn explorer_with(bundles: Vec<LandedBundle>, cfg: ExplorerConfig) -> Explorer {
        let mut store = HistoryStore::new(SlotClock::default(), RetentionPolicy::All);
        for b in &bundles {
            store.record_bundle(b);
        }
        Explorer::start(Arc::new(RwLock::new(store)), cfg)
            .await
            .unwrap()
    }

    #[tokio::test]
    async fn polls_and_overlap_accounting() {
        let bundles: Vec<_> = (0..30).map(|i| landed(i, 1, i)).collect();
        let explorer = explorer_with(bundles, ExplorerConfig::default()).await;
        let mut collector = Collector::new(
            explorer.addr(),
            CollectorConfig {
                page_limit: 20,
                ..Default::default()
            },
        );
        let clock = SlotClock::default();
        let now = clock.unix_ms(Slot(100));
        let rec = collector
            .poll_bundles(&clock, 0, now)
            .await
            .unwrap()
            .unwrap();
        assert_eq!(rec.fetched, 20);
        assert_eq!(rec.new, 20);
        let rec2 = collector
            .poll_bundles(&clock, 0, now)
            .await
            .unwrap()
            .unwrap();
        assert_eq!(rec2.new, 0);
        assert!(rec2.overlapped_previous);
        assert_eq!(collector.dataset.len(), 20);
        assert_eq!(collector.stats.polls_ok, 2);
        explorer.shutdown().await;
    }

    #[tokio::test]
    async fn survives_transient_failures_via_retry() {
        use sandwich_explorer::FaultPlanConfig;

        let bundles: Vec<_> = (0..5).map(|i| landed(i, 1, i)).collect();
        let explorer = explorer_with(
            bundles,
            ExplorerConfig {
                faults: FaultPlanConfig::uniform_503(0.5, 3),
                ..Default::default()
            },
        )
        .await;
        let mut collector = Collector::new(
            explorer.addr(),
            CollectorConfig {
                retry: RetryPolicy {
                    base_delay: std::time::Duration::from_millis(1),
                    max_delay: std::time::Duration::from_millis(4),
                    ..RetryPolicy::default()
                },
                ..Default::default()
            },
        );
        let clock = SlotClock::default();
        let now = clock.unix_ms(Slot(100));
        // With four attempts per poll at 50% failure, ten polls virtually
        // always succeed overall. Spread polls across fault-plan buckets so
        // each draws fresh fault decisions.
        let mut ok = 0;
        for i in 0..10u64 {
            if matches!(
                collector.poll_bundles(&clock, 0, now + i * 61_000).await,
                Ok(Some(_))
            ) {
                ok += 1;
            }
            collector.breaker.record_success(); // isolate retry behaviour
        }
        assert!(ok >= 8, "{ok} of 10 polls succeeded");
        assert!(
            collector.stats.attempts > collector.stats.polls_ok,
            "retries happened"
        );
        explorer.shutdown().await;
    }

    #[tokio::test]
    async fn fetches_details_for_length3_only() {
        let bundles = vec![
            landed(1, 1, 1),
            landed(2, 3, 2),
            landed(3, 3, 3),
            landed(4, 5, 4),
        ];
        let explorer = explorer_with(bundles, ExplorerConfig::default()).await;
        let mut collector = Collector::new(explorer.addr(), CollectorConfig::default());
        let clock = SlotClock::default();
        let now = clock.unix_ms(Slot(100));
        collector.poll_bundles(&clock, 0, now).await.unwrap();
        let added = collector.fetch_pending_details(0).await.unwrap();
        assert_eq!(added, 6, "two length-3 bundles × 3 transactions");
        assert_eq!(collector.dataset.detail_count(), 6);
        // Idempotent: nothing further pending.
        assert_eq!(collector.fetch_pending_details(0).await.unwrap(), 0);
        explorer.shutdown().await;
    }

    #[tokio::test]
    async fn detail_batches_respect_batch_size() {
        let bundles: Vec<_> = (0..10).map(|i| landed(i, 3, i)).collect();
        let explorer = explorer_with(bundles, ExplorerConfig::default()).await;
        let mut collector = Collector::new(
            explorer.addr(),
            CollectorConfig {
                detail_batch: 6, // two bundles per batch
                ..Default::default()
            },
        );
        let clock = SlotClock::default();
        let now = clock.unix_ms(Slot(100));
        collector.poll_bundles(&clock, 0, now).await.unwrap();
        let added = collector.fetch_pending_details(0).await.unwrap();
        assert_eq!(added, 30);
        assert_eq!(collector.stats.detail_batches, 5);
        explorer.shutdown().await;
    }

    #[tokio::test]
    async fn backfill_recovers_a_dropped_page() {
        // 60 bundles exist; the collector's page only covers the newest 20.
        // First poll sees 0..20 (oldest), then 40 more land before the next
        // poll — a deliberate gap of one full page.
        let mut store = HistoryStore::new(SlotClock::default(), RetentionPolicy::All);
        for i in 0..20u64 {
            store.record_bundle(&landed(i, 1, i));
        }
        let store = Arc::new(RwLock::new(store));
        let explorer = Explorer::start(store.clone(), ExplorerConfig::default())
            .await
            .unwrap();
        let mut collector = Collector::new(
            explorer.addr(),
            CollectorConfig {
                page_limit: 20,
                ..Default::default()
            },
        );
        let clock = SlotClock::default();
        let now = clock.unix_ms(Slot(100));
        collector.poll_bundles(&clock, 0, now).await.unwrap();
        assert_eq!(collector.dataset.len(), 20);

        // 40 more bundles land: the next page (40..60) misses 20..40.
        for i in 20..60u64 {
            store.write().record_bundle(&landed(i, 1, i));
        }
        let rec = collector
            .poll_bundles(&clock, 0, now + 1)
            .await
            .unwrap()
            .unwrap();
        // Backfill healed the gap and patched the poll record.
        assert!(rec.overlapped_previous, "gap closed by backfill");
        assert_eq!(collector.dataset.len(), 60, "all 60 bundles collected");
        assert!(collector.stats.backfill_pages >= 1);
        assert_eq!(collector.stats.bundles_recovered, 20);
        assert_eq!(collector.dataset.overlap_rate(), 1.0);
        // Chronological order restored despite out-of-order ingestion.
        let slots: Vec<u64> = collector
            .dataset
            .resident()
            .iter()
            .map(|b| b.slot.0)
            .collect();
        let mut sorted = slots.clone();
        sorted.sort_unstable();
        assert_eq!(slots, sorted);
        explorer.shutdown().await;
    }

    #[tokio::test]
    async fn breaker_opens_during_outage_and_recovers() {
        use sandwich_explorer::FaultPlanConfig;

        let bundles: Vec<_> = (0..10).map(|i| landed(i, 1, i)).collect();
        let explorer = explorer_with(
            bundles,
            ExplorerConfig {
                faults: FaultPlanConfig {
                    outages_ms: vec![(0, 100_000)],
                    ..FaultPlanConfig::default()
                },
                ..Default::default()
            },
        )
        .await;
        let mut collector = Collector::new(
            explorer.addr(),
            CollectorConfig {
                retry: RetryPolicy {
                    base_delay: std::time::Duration::from_millis(1),
                    max_delay: std::time::Duration::from_millis(2),
                    ..RetryPolicy::default()
                },
                breaker: BreakerConfig {
                    failure_threshold: 3,
                    cooldown_ms: 10_000,
                },
                ..Default::default()
            },
        );
        let clock = SlotClock::default();
        let now = clock.unix_ms(Slot(100));
        // Three failing polls trip the breaker.
        for t in 0..3u64 {
            assert!(collector
                .poll_bundles(&clock, 0, now + t * 1_000)
                .await
                .is_err());
        }
        assert_eq!(collector.breaker_state(now + 3_000), BreakerState::Open);
        // While open, polls are skipped without touching the network.
        let before = collector.stats.attempts;
        assert!(matches!(
            collector.poll_bundles(&clock, 0, now + 4_000).await,
            Ok(None)
        ));
        assert_eq!(collector.stats.attempts, before, "no request sent");
        assert_eq!(collector.stats.polls_skipped, 1);
        // After the cooldown, a half-open probe fails (still in outage) and
        // re-opens; explorer time must advance past the outage first.
        explorer.set_now_ms(100_000);
        assert!(matches!(
            collector.poll_bundles(&clock, 0, now + 14_000).await,
            Ok(Some(_))
        ));
        assert_eq!(collector.breaker_state(now + 14_000), BreakerState::Closed);
        explorer.shutdown().await;
    }

    #[tokio::test]
    async fn a_page_with_a_bundle_past_the_clock_fails_the_poll() {
        use sandwich_explorer::BundleSummaryJson;
        use sandwich_net::{Method, Request, Response, Router, Server};

        /// Poll `addr` once at slot 10 and check the page was refused whole.
        async fn refused(addr: std::net::SocketAddr) {
            let mut collector = Collector::new(addr, CollectorConfig::default());
            let clock = SlotClock::default();
            let polled = collector
                .poll_bundles(&clock, 0, clock.unix_ms(Slot(10)))
                .await;
            let error = polled.expect_err("the page is refused");
            assert!(!error.is_transient(), "refused like a bad body: {error}");
            assert!(
                error.to_string().contains("past the poll's slot 10"),
                "{error}"
            );
            assert_eq!(collector.dataset.len(), 0, "nothing of the page is kept");
            assert_eq!(collector.stats.polls_failed, 1);
            assert_eq!(collector.stats.attempts, 1, "not retried");
        }

        // The explorer serves a bundle recorded far past its clock — a slot
        // whose leader schedule the index would walk out to for ever.
        let far = landed(1_000_000_000_000, 1, 2);
        let explorer = explorer_with(vec![landed(5, 1, 1), far], Default::default()).await;
        refused(explorer.addr()).await;
        explorer.shutdown().await;

        // A page naming the last slot there is, which no collected
        // timestamp can hold.
        let summary = |slot: u64, seed: u64| BundleSummaryJson {
            bundle_id: Hash::digest(&seed.to_le_bytes()),
            slot,
            timestamp_ms: 0,
            tip_lamports: 2_000,
            transactions: vec![Keypair::from_label("col").sign(&seed.to_le_bytes())],
        };
        let page = RecentBundlesResponse {
            bundles: vec![summary(u64::MAX, 2), summary(5, 1)],
        };
        let body = serde_json::to_vec(&page).unwrap();
        let router = Router::new().route(Method::Get, "/api/v1/bundles", move |_: Request| {
            let body = body.clone();
            async move { Response::new(200, body).header("content-type", "application/json") }
        });
        let server = Server::bind("127.0.0.1:0", router).await.unwrap();
        refused(server.local_addr()).await;
        server.shutdown().await;
    }
}
