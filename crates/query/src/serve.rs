//! The serving skeleton: what `queryd`, a shard and the scatter-gather
//! router do identically around "answer this endpoint at one generation",
//! written once.
//!
//! [`Serving`] owns the endpoint table and its mounting under a path
//! prefix, bounded admission, the generation-keyed response cache and its
//! accounting, the per-endpoint latency histogram, the response tail
//! (`x-query-generation` on every answer), the `/api/live` long-poll and
//! the `/healthz`, `/readyz` and `/metrics` probes. All three faces speak
//! one query language: every endpoint parses with [`QueryRequest::parse`]
//! and is cached under its canonical path. A [`Backend`] only gathers the
//! partials a request is answered from — its engine's one
//! ([`crate::service::EngineBackend`], what `queryd` and every shard run)
//! or one per shard (`sandwich_shard::RouterService`'s fan-out) — and the
//! skeleton computes every body from them: a public face calls [`answer`],
//! a shard face sends its one partial as it is.
//!
//! A request takes exactly one [`Backend::Snapshot`], and its cache key,
//! partials and generation header all come from it, so every response is
//! computed against a single manifest generation even while a reload
//! swaps the engine mid-flight. Excess load is shed with `503` +
//! `Retry-After` before any parse or engine work; an answer of status
//! ≥ 500 is never left in the cache; a failed reload keeps the last good
//! snapshot serving and flips `/readyz` until one succeeds
//! ([`Serving::track`]). The probes are exempt from admission.

use std::future::Future;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sandwich_net::{Method, Request, Response, Router};
use sandwich_obs::{names, Registry};

use crate::cache::{CacheOutcome, CachedResponse, ResponseCache};
use crate::engine::QueryRequest;
use crate::partial::{answer, Partial};
use crate::render::error_response;

/// The nine endpoints: the name [`QueryRequest::parse`] and the metrics
/// see, and the route below the face's prefix.
pub const ENDPOINTS: [(&str, &str); 9] = [
    ("summary", "/summary"),
    ("days", "/days"),
    ("attackers", "/attackers"),
    ("attacker", "/attacker/{pubkey}"),
    ("pool", "/pool/{mint}"),
    ("sandwiches", "/sandwiches"),
    ("live", "/live"),
    ("validators", "/validators"),
    ("validator", "/validator/{pubkey}"),
];

/// Response-cache geometry of a public face, shards × entries per shard.
pub const PUBLIC_CACHE: (usize, usize) = (8, 128);

/// Response-cache geometry of one shard's partial cache.
pub const SHARD_CACHE: (usize, usize) = (4, 64);

/// How often an `/api/live` long-poll probes a fresh snapshot for rows
/// past its cursor. One tick for every public face: a router's probe is a
/// fan-out, so it is no finer than a fan-out is worth.
const LONG_POLL_TICK: Duration = Duration::from_millis(25);

/// What a request is answered from: the partials, or the response to send
/// instead (a fan-out that failed).
pub type Gathered = Result<Vec<Partial>, CachedResponse>;

/// Where the partials come from. Everything else about serving them is
/// [`Serving`].
pub trait Backend: Send + Sync + 'static {
    /// What one request is answered at: an engine, or a pinned generation.
    type Snapshot: Send + Sync + 'static;

    /// The snapshot serving right now.
    fn snapshot(&self) -> Self::Snapshot;

    /// The manifest generation `snapshot` answers for.
    fn generation(snapshot: &Self::Snapshot) -> &str;

    /// The partials `query` is answered from at `snapshot`, one per engine
    /// holding a slice of the data: the cache's miss path (run at most
    /// once at a time per key) and a long-poll's probe.
    fn partials(
        &self,
        snapshot: &Self::Snapshot,
        query: &QueryRequest,
    ) -> impl Future<Output = Gathered> + Send;

    /// Extra `/healthz` members as rendered JSON with leading commas:
    /// those before `"generation"` and those after it.
    fn health_fields(&self) -> (String, String) {
        (String::new(), String::new())
    }

    /// Whether the backend itself is ready, and its extra `/readyz`
    /// members (rendered likewise, all before `"generation"`).
    fn ready(&self, snapshot: &Self::Snapshot) -> impl Future<Output = (bool, String)> + Send;
}

/// Decrements the in-flight gauge when an admitted request finishes,
/// however it finishes.
struct InFlightGuard<'a>(&'a AtomicUsize);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Release);
    }
}

/// One backend behind the shared skeleton, on the face its constructor
/// built: [`Serving::public`] or [`Serving::shard`].
pub struct Serving<B> {
    /// Where the partials come from.
    pub backend: B,
    /// The metrics registry this service records into.
    pub registry: Registry,
    /// A public face (`queryd`, the router) rather than a shard's.
    public: bool,
    cache: ResponseCache,
    /// API requests currently admitted (admission control).
    in_flight: AtomicUsize,
    max_in_flight: usize,
    /// Whether the most recent [`Serving::track`]ed reload succeeded.
    last_reload_ok: AtomicBool,
}

impl<B: Backend> Serving<B> {
    /// `backend` as a public face (`queryd`, the router): mounted under
    /// `/api`, [`PUBLIC_CACHE`], bodies rendered by [`answer`], `/api/live`
    /// long-polls, and requests, cache outcomes and latency counted under
    /// `query.*`. More than `max_in_flight` concurrent API requests are
    /// shed with `503` + `Retry-After` (zero admits nothing).
    pub fn public(backend: B, max_in_flight: usize, registry: Registry) -> Arc<Serving<B>> {
        Serving::on_face(backend, true, max_in_flight, registry)
    }

    /// `backend` as a shard behind the router: mounted under `/shard`,
    /// [`SHARD_CACHE`], bodies are its one partial as it is, and it never
    /// waits (the router leaves `wait_ms` out of the path it asks for) and
    /// never sheds (the router in front is bounded instead). Deliberately
    /// no `query.requests`, `query.cache.*`, `query.seconds.*` or
    /// `query.live.*`: a single-process cluster shares one [`Registry`] and
    /// those names are the router's (its cache hit ratio is read off them).
    pub fn shard(backend: B, registry: Registry) -> Arc<Serving<B>> {
        Serving::on_face(backend, false, usize::MAX, registry)
    }

    fn on_face(
        backend: B,
        public: bool,
        max_in_flight: usize,
        registry: Registry,
    ) -> Arc<Serving<B>> {
        let (shards, per_shard) = if public { PUBLIC_CACHE } else { SHARD_CACHE };
        Arc::new(Serving {
            backend,
            registry,
            public,
            cache: ResponseCache::new(shards, per_shard),
            in_flight: AtomicUsize::new(0),
            max_in_flight,
            last_reload_ok: AtomicBool::new(true),
        })
    }

    /// Pass through the outcome of moving the backend to a new generation
    /// (a reload, an install), remembering whether it worked: `/readyz`
    /// answers 503 from a failure until the next success, while the last
    /// good snapshot keeps serving.
    pub fn track<T>(&self, outcome: std::io::Result<T>) -> std::io::Result<T> {
        self.last_reload_ok
            .store(outcome.is_ok(), Ordering::Release);
        outcome
    }

    /// Try to admit one API request under the in-flight bound.
    fn admit(&self) -> Option<InFlightGuard<'_>> {
        let prev = self.in_flight.fetch_add(1, Ordering::AcqRel);
        if prev >= self.max_in_flight {
            self.in_flight.fetch_sub(1, Ordering::Release);
            self.registry.counter(names::QUERY_SHED).inc();
            None
        } else {
            Some(InFlightGuard(&self.in_flight))
        }
    }

    async fn handle(&self, endpoint: &'static str, request: Request) -> Response {
        let registry = &self.registry;
        if self.public {
            registry.counter(names::QUERY_REQUESTS).inc();
            match endpoint {
                "validators" => registry.counter(names::QUERY_VALIDATORS_REQUESTS).inc(),
                "validator" => registry
                    .counter(names::QUERY_VALIDATOR_DETAIL_REQUESTS)
                    .inc(),
                _ => {}
            }
        }
        let timer = Instant::now();

        // Admission control: bound concurrent API work, shed the rest
        // with an explicit retry hint instead of queueing without bound.
        let Some(_guard) = self.admit() else {
            let shed = error_response(503, "server at capacity, retry shortly");
            return Response::new(shed.status, shed.body)
                .header("content-type", &shed.content_type)
                .header("retry-after", "1");
        };

        // One snapshot per request — a long-poll's is its last probe's —
        // and everything below answers from its generation, reloads
        // notwithstanding.
        let parsed = QueryRequest::parse(endpoint, &request);
        let (snapshot, probed) = match &parsed {
            Ok(live @ QueryRequest::Live { .. }) if self.public => self.long_poll(live).await,
            _ => (self.backend.snapshot(), None),
        };
        let generation = B::generation(&snapshot);
        let (cached, outcome, evicted) = match parsed {
            // Invalid parameters never reach the cache.
            Err(message) => (
                Arc::new(error_response(400, message)),
                CacheOutcome::Miss,
                0,
            ),
            Ok(query) => {
                let key = format!("{generation}|{}", query.canonical_key());
                let (snapshot, query) = (&snapshot, &query);
                // A long-poll's probe is its miss path: nothing is
                // gathered twice.
                let compute = move || async move {
                    let gathered = match probed {
                        Some(gathered) => gathered,
                        None => self.backend.partials(snapshot, query).await,
                    };
                    self.body(generation, query, gathered)
                };
                let (cached, outcome, evicted) =
                    self.cache.get_or_compute_async(&key, compute).await;
                // A failure (a fan-out that lost a shard) must not be
                // pinned for the generation's lifetime: evict it so the
                // next request tries again.
                if outcome == CacheOutcome::Miss && cached.status >= 500 {
                    self.cache.invalidate(&key);
                }
                (cached, outcome, evicted)
            }
        };
        if self.public {
            match outcome {
                CacheOutcome::Hit => registry.counter(names::QUERY_CACHE_HITS).inc(),
                CacheOutcome::Miss => registry.counter(names::QUERY_CACHE_MISSES).inc(),
                CacheOutcome::Deduped => {
                    registry
                        .counter(names::QUERY_CACHE_SINGLE_FLIGHT_WAITS)
                        .inc();
                    registry.counter(names::QUERY_CACHE_HITS).inc();
                }
            }
            if evicted > 0 {
                registry.counter(names::QUERY_CACHE_EVICTIONS).add(evicted);
            }
            registry
                .histogram(&format!("{}{endpoint}", names::QUERY_SECONDS_PREFIX))
                .observe(timer.elapsed().as_secs_f64());
        }
        Response::new(cached.status, cached.body.clone())
            .header("content-type", &cached.content_type)
            .header("x-query-generation", generation)
    }

    /// The snapshot a public face answers an `/api/live` request at and,
    /// when it long-polls, the partials its last probe gathered there. A
    /// long-poll probes the backend at a fresh snapshot every
    /// [`LONG_POLL_TICK`] (a reload may land mid-wait) and stops at the
    /// first probe with rows past the cursor, or at the first one past
    /// `wait_ms`, whatever it gathered (a failed fan-out included: the
    /// client's retry signal). The `query.live.*` metrics are recorded
    /// here and nowhere else.
    async fn long_poll(&self, query: &QueryRequest) -> (B::Snapshot, Option<Gathered>) {
        let &QueryRequest::Live { limit, wait_ms, .. } = query else {
            return (self.backend.snapshot(), None);
        };
        let registry = &self.registry;
        registry.counter(names::QUERY_LIVE_REQUESTS).inc();
        if wait_ms == 0 {
            return (self.backend.snapshot(), None);
        }
        registry.counter(names::QUERY_LIVE_LONG_POLLS).inc();
        let waited = Instant::now();
        let deadline = Duration::from_millis(wait_ms);
        loop {
            let snapshot = self.backend.snapshot();
            let gathered = self.backend.partials(&snapshot, query).await;
            // The page carries `min(limit, Σ total_after)` rows.
            let after = gathered.iter().flatten().map(|part| match part {
                Partial::Live(live) => live.total_after as usize,
                _ => 0,
            });
            let rows = after.sum::<usize>().min(limit);
            if rows > 0 || waited.elapsed() >= deadline {
                if rows > 0 {
                    registry.counter(names::QUERY_LIVE_ROWS).add(rows as u64);
                }
                registry
                    .histogram(names::QUERY_LIVE_WAIT_SECONDS)
                    .observe(waited.elapsed().as_secs_f64());
                return (snapshot, Some(gathered));
            }
            tokio::time::sleep(LONG_POLL_TICK).await;
        }
    }

    /// The body of one answer: on a public face [`answer`] over the
    /// partials, timed as `query.answer_seconds`; on a shard face its one
    /// partial as it is.
    fn body(&self, generation: &str, query: &QueryRequest, gathered: Gathered) -> CachedResponse {
        let parts = match gathered {
            Ok(parts) => parts,
            Err(failed) => return failed,
        };
        if !self.public {
            return match parts.as_slice() {
                [part] => part.to_response(),
                _ => error_response(500, "a shard answers from exactly one partial"),
            };
        }
        let started = Instant::now();
        let response = answer(generation, query, parts);
        self.registry
            .histogram(names::QUERY_ANSWER_SECONDS)
            .observe(started.elapsed().as_secs_f64());
        response
    }

    /// `GET /healthz`: liveness. 200 as long as the process can answer at
    /// all — never gated on admission control, reload state or a fan-out.
    fn health(&self) -> Response {
        let (before, after) = self.backend.health_fields();
        let body = format!(
            "{{\"status\":\"ok\"{before},\"generation\":\"{}\"{after}}}",
            B::generation(&self.backend.snapshot())
        );
        Response::new(200, body.into_bytes()).header("content-type", "application/json")
    }

    /// `GET /readyz`: readiness. 503 while the last tracked reload failed
    /// (the stale generation keeps serving meanwhile) or the backend
    /// reports itself not ready.
    async fn ready(&self) -> Response {
        let snapshot = self.backend.snapshot();
        let (backend_ok, fields) = self.backend.ready(&snapshot).await;
        let ok = backend_ok && self.last_reload_ok.load(Ordering::Acquire);
        let body = format!(
            "{{\"ready\":{ok}{fields},\"generation\":\"{}\"}}",
            B::generation(&snapshot)
        );
        let response = Response::new(if ok { 200 } else { 503 }, body.into_bytes())
            .header("content-type", "application/json");
        if ok {
            response
        } else {
            response.header("retry-after", "3")
        }
    }

    /// The HTTP router: the nine endpoints under the face's prefix, the
    /// two probes, and `GET /metrics` from the registry.
    pub fn router(self: &Arc<Self>) -> Router {
        let prefix = if self.public { "/api" } else { "/shard" };
        let mut router = Router::new();
        for (endpoint, path) in ENDPOINTS {
            let service = self.clone();
            let path = format!("{prefix}{path}");
            router = router.route(Method::Get, &path, move |request: Request| {
                let service = service.clone();
                async move { service.handle(endpoint, request).await }
            });
        }
        let service = self.clone();
        router = router.route(Method::Get, "/healthz", move |_request: Request| {
            let service = service.clone();
            async move { service.health() }
        });
        let service = self.clone();
        router = router.route(Method::Get, "/readyz", move |_request: Request| {
            let service = service.clone();
            async move { service.ready().await }
        });
        router.with_metrics(self.registry.clone())
    }
}
