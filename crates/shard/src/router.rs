//! [`RouterService`] — the scatter-gather [`Backend`]: a fan-out over the
//! shard partial APIs behind the `sandwich_query::serve` skeleton.
//!
//! The router is the only public face of a sharded deployment: it serves
//! the exact `/api/*` surface `queryd` does, through the same skeleton
//! and the same `QueryRequest` parser, fans each cache miss out to every
//! shard as `/shard/` plus the request's canonical path over real
//! sockets, decodes the partials, and answers with `sandwich_query::answer`
//! — the function `queryd` answers its own engine's one partial with. That
//! one answer path is what makes responses byte-identical at every shard
//! count.
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

use sandwich_net::{HttpClient, PoolStats, Router};
use sandwich_obs::{names, Registry};
use sandwich_query::render::error_response;
use sandwich_query::{answer, Backend, CachedResponse, Partial, QueryRequest, Serving};

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
    /// Fan `query` out to every shard; all must answer 200 with an
    /// `x-query-generation` header naming `expected` — only then is the
    /// body decoded — and a readable partial, or the whole fan-out fails
    /// with the 503 the client should retry on. Latency, width, and
    /// straggler metrics are recorded either way.
    async fn fetch(
        &self,
        query: &QueryRequest,
        expected: &str,
    ) -> Result<Vec<Partial>, CachedResponse> {
        let registry = &self.registry;
        let n = self.shards.len();
        registry.counter(names::QUERY_SHARD_FANOUTS).inc();
        registry
            .histogram(names::QUERY_SHARD_FANOUT_WIDTH)
            .observe(n as f64);

        let path = Arc::new(format!("/shard/{}", query.canonical_key()));
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
        let mut partials: Vec<Option<Partial>> = vec![None; n];
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
                        match Partial::decode(query, &response.body) {
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

    /// [`answer`] under the `query.shard.merge_seconds` timer (the fan-out
    /// itself is excluded).
    fn merged(
        &self,
        generation: &str,
        query: &QueryRequest,
        parts: Vec<Partial>,
    ) -> CachedResponse {
        let started = Instant::now();
        let response = answer(generation, query, parts);
        self.registry
            .histogram(names::QUERY_SHARD_MERGE_SECONDS)
            .observe(started.elapsed().as_secs_f64());
        response
    }
}

impl Backend for ScatterGather {
    const PUBLIC: bool = true;
    type Snapshot = String;

    fn snapshot(&self) -> String {
        self.generation.read().clone()
    }

    fn generation(generation: &String) -> &str {
        generation
    }

    async fn evaluate(&self, generation: &String, query: &QueryRequest) -> CachedResponse {
        match self.fetch(query, generation).await {
            Ok(parts) => self.merged(generation, query, parts),
            Err(failed) => failed,
        }
    }

    /// One generation per request: every shard must answer at it. A live
    /// long-poll is an uncached bounded retry loop: each probe re-reads
    /// the router generation (a reload may land mid-wait) and re-fans
    /// out; the loop answers as soon as a probe carries rows, or with the
    /// final probe's response at the deadline (including a 503 when the
    /// fan-out is failing — the client's retry signal).
    async fn snapshot_for(&self, query: &QueryRequest) -> (String, Option<CachedResponse>) {
        let QueryRequest::Live { limit, wait_ms, .. } = query else {
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
            let fetched = self.fetch(query, &generation).await;
            // The page carries `min(limit, sum of post-cursor totals)` rows.
            let rows = fetched.as_ref().map_or(0, |parts| {
                let after = parts.iter().map(|part| match part {
                    Partial::Live(live) => live.total_after as usize,
                    _ => 0,
                });
                after.sum::<usize>().min(*limit)
            });
            if rows > 0 || waited.elapsed() >= deadline {
                let response = match fetched {
                    Ok(parts) => self.merged(&generation, query, parts),
                    Err(failed) => failed,
                };
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
