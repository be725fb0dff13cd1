//! [`RouterService`] — the scatter-gather [`Backend`]: a fan-out over the
//! shard partial APIs behind the `sandwich_query::serve` skeleton.
//!
//! The router is the only public face of a sharded deployment: it serves
//! the exact `/api/*` surface `queryd` does, through the same skeleton
//! and the same `QueryRequest` parser, fans each cache miss out to every
//! shard's `/shard/*` partial endpoint over real sockets, folds the
//! partials with the pure merges in [`crate::merge`], and renders through
//! `sandwich_query::render` — the same response-building code the
//! single-engine path uses. That shared tail is what makes responses
//! byte-identical at every shard count.
//!
//! Consistency: the router pins a generation per request and reads each
//! shard's from the `x-query-generation` header the shard's skeleton
//! writes — partial bodies carry none. A leg whose header is missing or
//! names another generation fails the fan-out with a `503` (a reload is
//! in flight; the client retries), which the skeleton never leaves cached.
//! `/readyz` aggregates shard readiness and reports degraded-but-serving
//! while at least one shard is ready.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;
use serde::de::DeserializeOwned;

use sandwich_net::{HttpClient, PoolStats, Request, Router};
use sandwich_obs::{names, Registry};
use sandwich_query::render::{self, error_response, DETAIL_REF_CAP};
use sandwich_query::{Backend, CachedResponse, QueryRequest, SandwichRef, Serving};
use sandwich_types::Hash;

use crate::merge::{
    distinct_count, merge_attackers, merge_coverage, merge_days, merge_live, merge_pools,
    merge_range, merge_recent, merge_totals, merge_validators, AttackerDetailPartial,
    AttackersPartial, DaysPartial, LivePartial, PoolDetailPartial, RangePartial, ShardQuery,
    SummaryPartial, ValidatorDetailPartial, ValidatorsPartial,
};

/// How often a router long-poll re-fans out looking for rows past the
/// cursor (coarser than the single-engine tick: each probe costs a
/// scatter-gather).
const LONG_POLL_TICK: Duration = Duration::from_millis(25);

/// Tunables for the scatter-gather router.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Bound on concurrently-admitted API requests; excess load is shed
    /// with `503` + `Retry-After`. `/healthz`, `/readyz`, and `/metrics`
    /// are always exempt.
    pub max_in_flight: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig { max_in_flight: 256 }
    }
}

/// The scatter-gather backend: answers are merged shard partials.
struct ScatterGather {
    shards: Vec<HttpClient>,
    generation: RwLock<String>,
    registry: Registry,
}

/// The scatter-gather router over N shard services.
#[derive(Clone)]
pub struct RouterService {
    serving: Arc<Serving<ScatterGather>>,
}

impl RouterService {
    /// A router over the shard listeners at `shards`, expecting every
    /// partial to be answered at `generation` until told otherwise.
    pub fn new(
        shards: Vec<SocketAddr>,
        generation: String,
        config: RouterConfig,
        registry: Registry,
    ) -> RouterService {
        let backend = ScatterGather {
            shards: shards.into_iter().map(HttpClient::new).collect(),
            generation: RwLock::new(generation),
            registry: registry.clone(),
        };
        RouterService {
            serving: Serving::new(backend, config.max_in_flight, registry),
        }
    }

    /// The generation the router currently expects shards to answer at.
    pub fn generation(&self) -> String {
        self.serving.backend.snapshot()
    }

    /// Move the router to a new generation (after the shards reloaded).
    /// Old-generation cache entries become unreachable by key prefix.
    pub fn set_generation(&self, generation: String) {
        *self.serving.backend.generation.write() = generation;
    }

    /// The public `/api/*` router (plus health probes and `/metrics`).
    pub fn router(&self) -> Router {
        self.serving.router()
    }
}

impl ScatterGather {
    /// Fan one partial request out to every shard; all must answer 200
    /// with an `x-query-generation` header naming `expected` — only then is
    /// the body decoded — or the whole fan-out fails with the 503 the
    /// client should retry on. Latency, width, and straggler metrics are
    /// recorded either way.
    async fn fetch<T: DeserializeOwned + Send + 'static>(
        &self,
        query: &ShardQuery,
        expected: &str,
    ) -> Result<Vec<T>, CachedResponse> {
        let registry = &self.registry;
        let n = self.shards.len();
        registry.counter(names::QUERY_SHARD_FANOUTS).inc();
        registry
            .histogram(names::QUERY_SHARD_FANOUT_WIDTH)
            .observe(n as f64);

        let path = Arc::new(query.path());
        let mut set = tokio::task::JoinSet::new();
        for (shard, client) in self.shards.iter().enumerate() {
            let client = client.clone();
            let path = path.clone();
            set.spawn(async move {
                let started = Instant::now();
                let result = client.get(&path).await;
                (shard, started.elapsed(), result)
            });
        }

        let mut latencies: Vec<Option<Duration>> = vec![None; n];
        let mut partials: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let mut failure: Option<String> = None;
        while let Some(joined) = set.join_next().await {
            let Ok((shard, elapsed, result)) = joined else {
                failure = Some("a fan-out task died".to_string());
                continue;
            };
            latencies[shard] = Some(elapsed);
            registry
                .histogram(&format!("{}{shard}", names::QUERY_SHARD_LATENCY_PREFIX))
                .observe(elapsed.as_secs_f64());
            match result {
                Err(error) => failure = Some(format!("shard {shard}: {error}")),
                Ok(response) if response.status != 200 => {
                    failure = Some(format!("shard {shard} answered {}", response.status));
                }
                Ok(response) => match response.header_value("x-query-generation") {
                    Some(generation) if generation == expected => {
                        match serde_json::from_slice::<T>(&response.body) {
                            Ok(partial) => partials[shard] = Some(partial),
                            Err(error) => {
                                failure = Some(format!(
                                    "shard {shard} sent an unreadable partial: {error}"
                                ));
                            }
                        }
                    }
                    generation => {
                        failure = Some(format!(
                            "shard {shard} is at generation {}, router expects {expected}",
                            generation.unwrap_or("(none)")
                        ));
                    }
                },
            }
        }

        let mut connections = PoolStats::default();
        for client in &self.shards {
            connections += client.stats();
        }
        connections.publish(registry, names::QUERY_SHARD_CONNECTIONS_PREFIX);

        // Stragglers: shards that took more than twice the fastest answer.
        let done: Vec<Duration> = latencies.iter().flatten().copied().collect();
        if done.len() > 1 {
            let fastest = done.iter().min().copied().unwrap_or_default();
            let stragglers = done.iter().filter(|l| **l > fastest * 2).count() as u64;
            if stragglers > 0 {
                registry
                    .counter(names::QUERY_SHARD_STRAGGLERS)
                    .add(stragglers);
            }
        }

        if let Some(message) = failure {
            registry.counter(names::QUERY_SHARD_FANOUT_FAILURES).inc();
            return Err(error_response(
                503,
                format!("scatter-gather failed: {message}"),
            ));
        }
        Ok(partials.into_iter().flatten().collect())
    }

    /// Merge and render under the `query.shard.merge_seconds` timer (the
    /// fan-out itself is excluded).
    fn merged(&self, render: impl FnOnce() -> CachedResponse) -> CachedResponse {
        let started = Instant::now();
        let response = render();
        self.registry
            .histogram(names::QUERY_SHARD_MERGE_SECONDS)
            .observe(started.elapsed().as_secs_f64());
        response
    }

    /// One `/api/live` scatter-gather, returning the rendered page plus
    /// the number of rows it carries (the long-poll loop needs the count
    /// without re-parsing the body).
    async fn gather_live(
        &self,
        generation: &str,
        (after_slot, after_id, limit): (u64, &Hash, usize),
    ) -> Result<(CachedResponse, usize), CachedResponse> {
        let wire = ShardQuery::Live {
            after_slot,
            after_id: *after_id,
            need: limit,
        };
        let parts: Vec<LivePartial> = self.fetch(&wire, generation).await?;
        let mut count = 0;
        let response = self.merged(|| {
            let (tip, total_after, refs, minutes) = merge_live(parts);
            let rows: Vec<SandwichRef> = refs.into_iter().take(limit).collect();
            count = rows.len();
            render::live_page(
                generation,
                after_slot,
                after_id,
                tip,
                total_after,
                limit,
                rows,
                minutes,
            )
        });
        Ok((response, count))
    }

    /// Scatter, gather, merge, render: one `/api/*` answer at
    /// `generation`, or the `503` of a failed fan-out.
    async fn gather(
        &self,
        generation: &str,
        query: &QueryRequest,
    ) -> Result<CachedResponse, CachedResponse> {
        let wire = &ShardQuery::from(query);
        Ok(match query {
            QueryRequest::Summary => {
                let parts: Vec<SummaryPartial> = self.fetch(wire, generation).await?;
                self.merged(|| {
                    let coverage = merge_coverage(
                        &parts.iter().map(|p| p.coverage.clone()).collect::<Vec<_>>(),
                    );
                    let totals =
                        merge_totals(&parts.iter().map(|p| p.totals.clone()).collect::<Vec<_>>());
                    let days = parts.iter().map(|p| p.days).max().unwrap_or(0);
                    let attackers = distinct_count(
                        &parts
                            .iter()
                            .map(|p| p.attacker_keys.clone())
                            .collect::<Vec<_>>(),
                    );
                    let pools = distinct_count(
                        &parts
                            .iter()
                            .map(|p| p.pool_keys.clone())
                            .collect::<Vec<_>>(),
                    );
                    render::summary(generation, &coverage, &totals, days, attackers, pools)
                })
            }
            QueryRequest::Days => {
                let parts: Vec<DaysPartial> = self.fetch(wire, generation).await?;
                self.merged(|| {
                    let merged = merge_days(&parts.into_iter().map(|p| p.days).collect::<Vec<_>>());
                    render::days(generation, &merged)
                })
            }
            QueryRequest::Attackers { limit, after } => {
                let parts: Vec<AttackersPartial> = self.fetch(wire, generation).await?;
                self.merged(|| {
                    let entries = merge_attackers(parts.into_iter().map(|p| p.entries).collect());
                    render::attackers_page(generation, &entries, *limit, *after)
                })
            }
            QueryRequest::Attacker { pubkey } => {
                let parts: Vec<AttackerDetailPartial> = self.fetch(wire, generation).await?;
                self.merged(|| {
                    let recent = merge_recent(
                        parts.iter().map(|p| p.recent.clone()).collect(),
                        DETAIL_REF_CAP,
                    );
                    let entries = merge_attackers(parts.into_iter().map(|p| p.entries).collect());
                    match entries.iter().position(|e| e.attacker == *pubkey) {
                        None => render::unknown_attacker(pubkey),
                        Some(rank) => {
                            render::attacker_detail(generation, rank, &entries[rank], recent)
                        }
                    }
                })
            }
            QueryRequest::Pool { mint } => {
                let parts: Vec<PoolDetailPartial> = self.fetch(wire, generation).await?;
                self.merged(|| {
                    let recent = merge_recent(
                        parts.iter().map(|p| p.recent.clone()).collect(),
                        DETAIL_REF_CAP,
                    );
                    let attackers = distinct_count(
                        &parts
                            .iter()
                            .map(|p| p.attackers.clone())
                            .collect::<Vec<_>>(),
                    );
                    let pools = merge_pools(parts.into_iter().map(|p| p.pools).collect());
                    match pools.iter().position(|e| e.mint == *mint) {
                        None => render::unknown_pool(mint),
                        Some(rank) => {
                            // The merged entry's distinct-attacker count is a
                            // placeholder; the unioned shard lists are exact.
                            let mut entry = pools[rank].clone();
                            entry.attackers = attackers;
                            render::pool_detail(generation, rank, &entry, recent)
                        }
                    }
                })
            }
            QueryRequest::Validators { limit, after } => {
                let parts: Vec<ValidatorsPartial> = self.fetch(wire, generation).await?;
                self.merged(|| {
                    let entries = merge_validators(parts.into_iter().map(|p| p.entries).collect());
                    render::validators_page(generation, &entries, *limit, *after)
                })
            }
            QueryRequest::Validator { pubkey } => {
                let parts: Vec<ValidatorDetailPartial> = self.fetch(wire, generation).await?;
                self.merged(|| {
                    let recent = merge_recent(
                        parts.iter().map(|p| p.recent.clone()).collect(),
                        DETAIL_REF_CAP,
                    );
                    let entries = merge_validators(parts.into_iter().map(|p| p.entries).collect());
                    match entries.iter().position(|e| e.pubkey == *pubkey) {
                        None => render::unknown_validator(pubkey),
                        Some(rank) => {
                            render::validator_detail(generation, rank, &entries[rank], recent)
                        }
                    }
                })
            }
            QueryRequest::Sandwiches {
                from_slot,
                to_slot,
                limit,
                after,
            } => {
                let parts: Vec<RangePartial> = self.fetch(wire, generation).await?;
                self.merged(|| {
                    let (total, refs) = merge_range(parts);
                    let start = (*after).min(refs.len());
                    let end = after.saturating_add(*limit).min(refs.len());
                    render::sandwiches_page(
                        generation,
                        *from_slot,
                        *to_slot,
                        total,
                        *limit,
                        *after,
                        refs[start..end].to_vec(),
                    )
                })
            }
            QueryRequest::Live {
                after_slot,
                after_id,
                limit,
                ..
            } => {
                self.gather_live(generation, (*after_slot, after_id, *limit))
                    .await?
                    .0
            }
        })
    }
}

impl Backend for ScatterGather {
    const PUBLIC: bool = true;
    type Query = QueryRequest;
    type Snapshot = String;

    fn snapshot(&self) -> String {
        self.generation.read().clone()
    }

    fn generation(generation: &String) -> &str {
        generation
    }

    fn parse(endpoint: &str, request: &Request) -> Result<QueryRequest, String> {
        QueryRequest::parse(endpoint, request)
    }

    fn canonical_key(query: &QueryRequest) -> String {
        query.canonical_key()
    }

    async fn evaluate(&self, generation: &String, query: &QueryRequest) -> CachedResponse {
        self.gather(generation, query)
            .await
            .unwrap_or_else(|failed| failed)
    }

    /// One generation per request: every shard must answer at it. A live
    /// long-poll is an uncached bounded retry loop: each probe re-reads
    /// the router generation (a reload may land mid-wait) and re-fans
    /// out; the loop answers as soon as a probe carries rows, or with the
    /// final probe's response at the deadline (including a 503 when the
    /// fan-out is failing — the client's retry signal).
    async fn snapshot_for(&self, query: &QueryRequest) -> (String, Option<CachedResponse>) {
        let QueryRequest::Live {
            after_slot,
            after_id,
            limit,
            wait_ms,
        } = query
        else {
            return (self.snapshot(), None);
        };
        let registry = &self.registry;
        registry.counter(names::QUERY_LIVE_REQUESTS).inc();
        if *wait_ms == 0 {
            return (self.snapshot(), None);
        }
        registry.counter(names::QUERY_LIVE_LONG_POLLS).inc();
        let waited = Instant::now();
        let deadline = Duration::from_millis(*wait_ms);
        loop {
            let generation = self.snapshot();
            let (response, rows) = self
                .gather_live(&generation, (*after_slot, after_id, *limit))
                .await
                .unwrap_or_else(|failed| (failed, 0));
            if rows > 0 || waited.elapsed() >= deadline {
                if rows > 0 {
                    registry.counter(names::QUERY_LIVE_ROWS).add(rows as u64);
                }
                registry
                    .histogram(names::QUERY_LIVE_WAIT_SECONDS)
                    .observe(waited.elapsed().as_secs_f64());
                return (generation, Some(response));
            }
            tokio::time::sleep(LONG_POLL_TICK).await;
        }
    }

    /// Liveness of the router itself — never fans out.
    fn health_fields(&self) -> (String, String) {
        (String::new(), format!(",\"shards\":{}", self.shards.len()))
    }

    /// Aggregated readiness: ready while at least one shard is
    /// (`degraded: true` when not all are).
    async fn ready(&self, _generation: &String) -> (bool, String) {
        let n = self.shards.len();
        let mut set = tokio::task::JoinSet::new();
        for client in &self.shards {
            let client = client.clone();
            set.spawn(async move {
                matches!(client.get("/readyz").await, Ok(response) if response.status == 200)
            });
        }
        let mut ready = 0usize;
        while let Some(joined) = set.join_next().await {
            if joined.unwrap_or(false) {
                ready += 1;
            }
        }
        let degraded = ready < n;
        let fields = format!(",\"degraded\":{degraded},\"shards\":{n},\"ready_shards\":{ready}");
        (ready >= 1, fields)
    }
}
