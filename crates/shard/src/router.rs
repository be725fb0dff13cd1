//! [`RouterService`] — the scatter-gather [`Backend`]: a fan-out over the
//! shard partial APIs behind the `sandwich_query::serve` skeleton.
//!
//! The router is the only public face of a sharded deployment: it serves
//! the exact `/api/*` surface `queryd` does, through the same skeleton
//! and the same `QueryRequest` parser. Its backend's one job is to gather
//! a request's partials: fan each cache miss (or long-poll probe) out to
//! every shard as `/shard/` plus the request's canonical path over real
//! sockets and decode the answers. The skeleton answers from them with
//! `sandwich_query::answer` — the function `queryd` answers its own
//! engine's one partial with — and runs the `/api/live` long-poll the same
//! way for both. That one answer path is what makes responses
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

use sandwich_net::{HttpClient, PoolStats, Router};
use sandwich_obs::{names, Registry};
use sandwich_query::render::error_response;
use sandwich_query::{Backend, Gathered, Partial, QueryRequest, Serving};

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

/// The scatter-gather backend: a request's partials are its shards'.
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
            serving: Serving::public(backend, config.max_in_flight, registry),
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

impl Backend for ScatterGather {
    type Snapshot = String;

    fn snapshot(&self) -> String {
        self.generation.read().clone()
    }

    fn generation(generation: &String) -> &str {
        generation
    }

    /// Fan `query` out to every shard; all must answer 200 with an
    /// `x-query-generation` header naming `expected` — only then is the
    /// body decoded — and a readable partial, or the whole fan-out fails
    /// with the 503 the client should retry on. Latency, width, and
    /// straggler metrics are recorded either way.
    async fn partials(&self, expected: &String, query: &QueryRequest) -> Gathered {
        let (registry, expected) = (&self.registry, expected.as_str());
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
