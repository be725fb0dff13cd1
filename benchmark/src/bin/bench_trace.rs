//! `bench-trace`: the per-layer table.
//!
//! Records one span around each call into a layer — from this file and the
//! library, never from inside `crates/` or `shims/` — keeps them in memory
//! and writes them once, at exit, to `benchmark/out/trace.jsonl`. Two parts:
//!
//! 1. **Layer probes**, fixed op counts on a fixed 65 536-bundle store: the
//!    finer-grained public calls (`open_view`, `partial_of_view_or_segment`,
//!    `build_index_subset`, `fold_indexes`, `LeaderSchedule`, `ResponseCache`,
//!    `merge_range`, `Collector::*`, `Simulation::step`, …) that `bench-run`
//!    must not depend on.
//! 2. **The traced workload**: the same slice `bench-run` measures, once
//!    untraced and once with spans on (their ratio is the tracing overhead),
//!    and a blocking-path row whose layers are compared with the traced op.
//!
//! `--workload W --seed N --seconds S --trace 1` traces one workload and
//! prints every per-layer metric as the last line; with no `--workload` all
//! five are traced and the whole table is printed.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use parking_lot::RwLock;
use sandwich_attrib::LeaderSchedule;
use sandwich_core::scan::partial_of_view_or_segment;
use sandwich_core::{AnalysisConfig, Collector, ScanPartial};
use sandwich_explorer::{Explorer, HistoryStore, RetentionPolicy};
use sandwich_net::{HttpClient, Method, Response, Router, Server};
use sandwich_obs::{names, Registry};
use sandwich_query::{
    build_index, build_index_subset, fold_indexes, generation_of, load_index, save_index, Engine,
    QueryService, ResponseCache, INDEX_FILE,
};
use sandwich_shard::merge::{merge_range, RangePartial};
use sandwich_shard::{ClusterConfig, ServingCluster};
use sandwich_sim::Simulation;
use sandwich_store::{BundleStore, Columns, Manifest, StoreWriter};
use sandwich_types::{Slot, SlotClock};

use sandwich_benchmark::cli::{number_of, value_of, DEFAULT_SEED, OUT};
use sandwich_benchmark::gen::{self, ScaleConfig};
use sandwich_benchmark::http::{self, Conn};
use sandwich_benchmark::keys::{self, KeepaliveStream};
use sandwich_benchmark::layers::PER_LAYER;
use sandwich_benchmark::protocol::{self, Scratch};
use sandwich_benchmark::setup::{self, SHARDS};
use sandwich_benchmark::slice::{self, SliceArgs, SliceResult};
use sandwich_benchmark::spans::{self, Span, Tracer};
use sandwich_benchmark::workload::{Workload, STORE_BUNDLES};
use sandwich_benchmark::{ops, stats};

/// Bundles in the probe store: eight full segments.
const PROBE_BUNDLES: u64 = 65_536;
/// Samples of a probe that costs a delayed-ACK stall (about 44 ms) each.
const STALLED_SAMPLES: u64 = 25;
/// Samples of a sub-millisecond socket probe.
const SOCKET_SAMPLES: u64 = 200;

type Metrics = BTreeMap<&'static str, f64>;

/// Median duration, in ms, of the spans called `name`.
fn median_ms(spans: &[Span], name: &str) -> f64 {
    let ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect();
    stats::median(&ms)
}

/// Time `body` `samples` times under span `name`.
fn sample<T>(
    tracer: &Tracer,
    name: &'static str,
    samples: u64,
    mut body: impl FnMut(u64) -> io::Result<T>,
) -> io::Result<()> {
    for i in 0..samples {
        let _span = tracer.start(name, i, None);
        std::hint::black_box(body(i)?);
    }
    Ok(())
}

// ---------------------------------------------------------------- pipeline

/// What the hand-written tick loop counted.
struct TickLoop {
    explorer_requests: u64,
    attempts: u64,
    polls_failed: u64,
}

/// `run_measurement_with`, re-written here out of the same public calls so
/// that each call into `sim`, `explorer`, `core::collector` and `store` gets
/// its own span. Accepted only if it seals a manifest with the same segment
/// checksums as `run_measurement` itself.
async fn tick_loop(seed: u64, op: u64, store_dir: &Path, tracer: &Tracer) -> io::Result<TickLoop> {
    let scenario = ops::collect_scenario(seed);
    let pipeline = ops::collect_pipeline(&scenario, store_dir);
    let root = tracer.start("pipeline.tick_loop", op, None);
    let mut sim = {
        let _s = tracer.start("sim.new", op, Some(&root));
        Simulation::new(scenario)
    };
    let clock = sim.clock();
    let history = Arc::new(RwLock::new(HistoryStore::new(
        clock,
        RetentionPolicy::OnlyBundleLength(3),
    )));
    let registry = Registry::new();
    sim.attach_registry(&registry);
    let explorer = {
        let _s = tracer.start("explorer.start", op, Some(&root));
        Explorer::start_with_registry(history.clone(), pipeline.explorer.clone(), registry.clone())
            .await?
    };
    let mut collector = Collector::with_registry(explorer.addr(), pipeline.collector, &registry);
    let options = pipeline.store.as_ref().expect("store mode");
    let mut writer = StoreWriter::create(&options.dir)?;
    writer.set_validators(sim.config().validator_spec())?;
    collector.attach_store(writer, options.segment_bundles);

    let mut tick = 0u64;
    loop {
        let outcome = {
            let _s = tracer.start("sim.step", op, Some(&root));
            sim.step()
        };
        let Some(outcome) = outcome else { break };
        {
            let _s = tracer.start("explorer.record", op, Some(&root));
            history.write().record_slot(&outcome.result);
        }
        let now_ms = clock.unix_ms(outcome.result.block.slot);
        explorer.set_now_ms(now_ms);
        if tick.is_multiple_of(pipeline.poll_every_ticks) {
            let _s = tracer.start("collector.poll", op, Some(&root));
            let _ = collector.poll_bundles(&clock, outcome.day, now_ms).await;
        }
        if tick.is_multiple_of(pipeline.detail_every_ticks) {
            let _s = tracer.start("collector.detail", op, Some(&root));
            let _ = collector.fetch_pending_details(now_ms).await;
        }
        {
            let _s = tracer.start("store.flush", op, Some(&root));
            collector.flush_store(false)?;
        }
        tick += 1;
    }
    {
        let _s = tracer.start("collector.detail", op, Some(&root));
        let _ = collector.fetch_pending_details(explorer.now_ms()).await;
    }
    {
        let _s = tracer.start("store.flush", op, Some(&root));
        collector.flush_store(true)?;
    }
    let explorer_requests = explorer.requests_served();
    {
        let _s = tracer.start("explorer.shutdown", op, Some(&root));
        explorer.shutdown().await;
    }
    drop(root);

    Ok(TickLoop {
        explorer_requests,
        attempts: collector.stats.attempts,
        polls_failed: collector.stats.polls_failed,
    })
}

/// The segment checksums of the store at `dir`, in seal order.
fn segment_checksums(dir: &Path) -> io::Result<Vec<String>> {
    Ok(Manifest::load(dir)?
        .segments
        .into_iter()
        .map(|s| s.checksum)
        .collect())
}

fn probe_pipeline(seed: u64, scratch: &Path, tracer: &Tracer, m: &mut Metrics) -> io::Result<()> {
    let runtime = ops::runtime();
    // Faithfulness: `run_measurement` on the same scenario seals these bytes.
    let reference = scratch.join("tick-loop-reference");
    ops::collect_once(&runtime, seed, &reference, &Tracer::new(false), 0)?;
    let want = segment_checksums(&reference)?;
    // Twice: the blocking path of `collect_1d` uses the less disturbed loop.
    let mut counted = None;
    for op in 0..2 {
        let store = scratch.join(format!("tick-loop-{op}"));
        counted = Some(runtime.block_on(tick_loop(seed, op, &store, tracer))?);
        if want.is_empty() || segment_checksums(&store)? != want {
            return Err(io::Error::other(
                "the traced tick loop sealed different segment checksums than run_measurement",
            ));
        }
    }
    let counted = counted.expect("two loops");
    println!("collect_1d tick loop: same segment checksums as run_measurement");
    m.insert("explorer.requests", counted.explorer_requests as f64);
    m.insert("collector.attempts", counted.attempts as f64);
    m.insert("collector.polls_failed", counted.polls_failed as f64);
    Ok(())
}

// ------------------------------------------------------ store, scan, index

fn probe_store_scan_index(
    store_dir: &Path,
    twin_dir: &Path,
    scratch: &Path,
    tracer: &Tracer,
    m: &mut Metrics,
) -> io::Result<()> {
    let clock = SlotClock::default();
    let analysis = AnalysisConfig::paper_defaults(gen::DAYS);
    let config = ops::query_config();
    sample(tracer, "store.open", 20, |_| BundleStore::open(store_dir))?;
    let store = BundleStore::open(store_dir)?;
    let segments = store.segments().len();

    // store: one zero-copy view per segment, and re-sealing decoded records.
    let mut columns = Columns::default();
    let mut views = Vec::new();
    for i in 0..segments {
        let _s = tracer.start("store.view", i as u64, None);
        let view = store.open_view(i)?;
        view.read_columns(&mut columns)
            .map_err(|e| io::Error::other(e.to_string()))?;
        views.push(view);
    }
    let mut reseal = StoreWriter::create(scratch.join("reseal"))?;
    let mut sealed = (0u64, 0u64);
    for i in 0..3.min(segments) {
        let data = store.read_segment(i)?;
        let _s = tracer.start("store.seal", i as u64, None);
        let meta = reseal.seal_segment(data.bundles, data.details, data.polls)?;
        sealed = (sealed.0 + meta.bytes, sealed.1 + meta.bundles);
    }
    m.insert(
        "store.seal_bytes_per_bundle",
        sealed.0 as f64 / sealed.1.max(1) as f64,
    );

    // scan: per segment, whole store, and the finalize on its own.
    let mut merged = ScanPartial::new(analysis.days as usize);
    for (i, view) in views.iter().enumerate() {
        let partial = {
            let _s = tracer.start("scan.segment", i as u64, None);
            partial_of_view_or_segment(view, &clock, &analysis)?
        };
        merged.merge(partial);
    }
    let report = {
        let _s = tracer.start("scan.finalize", 0, None);
        merged.finalize(&analysis)
    };
    m.insert("scan.findings", report.findings.len() as f64);
    sample(tracer, "scan.store", 3, |_| {
        sandwich_core::scan_store(&store, &clock, &analysis, 1)
    })?;

    // index: per segment, whole store, fold, save, load.
    for i in 0..segments {
        let _s = tracer.start("index.segment", i as u64, None);
        build_index_subset(&store, &config, &[i], &[])?;
    }
    sample(tracer, "index.build", 3, |_| build_index(&store, &config))?;
    let index = build_index(&store, &config)?;
    let generation = generation_of(store.manifest());
    let head: Vec<usize> = (0..segments - 1).collect();
    let base = build_index_subset(&store, &config, &head, &[])?;
    let tail = build_index_subset(&store, &config, &[segments - 1], &[])?;
    for i in 0..3 {
        let parts = vec![base.clone(), tail.clone()];
        let _s = tracer.start("index.merge", i, None);
        std::hint::black_box(fold_indexes(&generation, parts, &config));
    }
    let frames = scratch.join("frames");
    std::fs::create_dir_all(&frames)?;
    sample(tracer, "index.save", 3, |_| save_index(&frames, &index))?;
    sample(tracer, "index.load", 3, |_| {
        load_index(&frames, &generation).map_err(|e| io::Error::other(format!("{e:?}")))
    })?;
    m.insert(
        "index.frame_bytes",
        std::fs::metadata(frames.join(INDEX_FILE))?.len() as f64,
    );

    // attrib: the schedule, one lookup, and the join's share of a build
    // (the same store without a validator spec has nothing to join).
    let spec = store
        .manifest()
        .validators
        .expect("probe store carries a spec");
    sample(tracer, "attrib.schedule", 20, |_| {
        Ok(LeaderSchedule::new(&spec))
    })?;
    let schedule = LeaderSchedule::new(&spec);
    let lookups = 1_000_000u64;
    let started = std::time::Instant::now();
    for i in 0..lookups {
        std::hint::black_box(schedule.leader_at(Slot(i * 7 % (gen::DAYS * gen::SLOTS_PER_DAY))));
    }
    m.insert(
        "attrib.leader_at_ns",
        started.elapsed().as_nanos() as f64 / lookups as f64,
    );
    let twin = BundleStore::open(twin_dir)?;
    sample(tracer, "index.build_no_spec", 3, |_| {
        build_index(&twin, &config)
    })?;
    Ok(())
}

// ------------------------------------------------------------ engine, cache

fn probe_engine_cache(
    store_dir: &Path,
    seed: u64,
    tracer: &Tracer,
    m: &mut Metrics,
) -> io::Result<()> {
    let store = BundleStore::open(store_dir)?;
    let engine = Engine::new(Arc::new(build_index(&store, &ops::query_config())?));
    let hot = keys::hot_keys();
    let cold = keys::cold_windows();
    for round in 0..50 {
        for (i, key) in hot.iter().enumerate() {
            let _s = tracer.start("engine.hot", round * 16 + i as u64, None);
            std::hint::black_box(engine.evaluate(&key.request));
        }
    }
    for (i, key) in cold.iter().take(1_024).enumerate() {
        let _s = tracer.start("engine.cold", i as u64, None);
        std::hint::black_box(engine.evaluate(&key.request));
    }

    // The keep-alive key mix straight into the cache the service uses.
    let cache = ResponseCache::new(8, 128);
    let mut all = hot;
    all.extend(cold);
    let mut stream = KeepaliveStream::new(seed, 0, 2);
    let (mut hits, mut evictions, total) = (0u64, 0u64, 4_000u64);
    ops::runtime().block_on(async {
        for i in 0..total {
            let key = &all[stream.next_index()];
            let cache_key = format!("{}:{}", engine.generation(), key.request.canonical_key());
            let started = std::time::Instant::now();
            let (_, outcome, evicted) = cache
                .get_or_compute(&cache_key, || engine.evaluate(&key.request))
                .await;
            let hit = matches!(outcome, sandwich_query::CacheOutcome::Hit);
            // Named after the outcome, so the span opens once it is known.
            let name = if hit { "cache.hit" } else { "cache.miss" };
            tracer.record(name, i, started);
            hits += u64::from(hit);
            evictions += evicted;
        }
    });
    m.insert("cache.hit_ratio", hits as f64 / total as f64);
    m.insert("cache.evictions", evictions as f64);
    Ok(())
}

// ------------------------------------------------- net, service, shard, live

fn probe_serving(
    store_dir: &Path,
    scratch: &Path,
    seed: u64,
    tracer: &Tracer,
    m: &mut Metrics,
) -> io::Result<()> {
    let runtime = ops::runtime();
    let cold = keys::cold_windows();

    // net: a route whose handler does nothing. The body is four bytes, not
    // empty: the server writes head and body separately, and the second
    // write is what stalls behind the client's delayed ACK.
    let ping = Router::new().route(Method::Get, "/ping", |_request| async {
        Response::text(200, "pong")
    });
    let server = runtime.block_on(Server::bind("127.0.0.1:0", ping))?;
    let addr = server.local_addr();
    let mut conn = Conn::open(addr)?;
    conn.get("/ping", false)?;
    sample(tracer, "net.ping_keepalive", STALLED_SAMPLES, |_| {
        conn.get("/ping", false)
    })?;
    sample(tracer, "net.ping_close", SOCKET_SAMPLES, |_| {
        http::get_close(addr, "/ping")
    })?;
    let client = HttpClient::new(addr);
    runtime.block_on(async {
        for i in 0..SOCKET_SAMPLES {
            let _s = tracer.start("net.client_get", i, None);
            client
                .get("/ping")
                .await
                .map_err(|e| io::Error::other(e.to_string()))?;
        }
        io::Result::Ok(())
    })?;
    runtime.block_on(server.shutdown());

    // service: one QueryService behind a socket, hot and cold, both modes.
    ops::index_store(store_dir)?;
    let service = QueryService::open(setup::service_config(store_dir), Registry::new())?;
    let server = runtime.block_on(Server::bind("127.0.0.1:0", service.router()))?;
    let single = server.local_addr();
    let mut conn = Conn::open(single)?;
    conn.get("/api/summary", false)?;
    sample(tracer, "service.hot_keepalive", STALLED_SAMPLES, |_| {
        conn.get("/api/summary", false)
    })?;
    sample(tracer, "service.cold_keepalive", STALLED_SAMPLES, |i| {
        conn.get(&cold[i as usize].path, false)
    })?;
    sample(tracer, "service.hot_close", SOCKET_SAMPLES, |_| {
        http::get_close(single, "/api/summary")
    })?;
    m.insert(
        "service.shed",
        service
            .registry()
            .snapshot()
            .counter(names::QUERY_SHED)
            .unwrap_or(0) as f64,
    );

    // shard: one leg, the router, and the same keys on the single service.
    let registry = Registry::new();
    let mut config = ClusterConfig::new(store_dir, SHARDS);
    config.query = ops::query_config();
    let cluster = runtime.block_on(ServingCluster::serve(config, registry.clone()))?;
    let (router, shards) = (cluster.router_addr(), cluster.shard_addrs());
    // The router probes walk the head of `shard2_cold`'s own key cycle; the
    // leg probes need range partials, so they use slot windows.
    let cycle = keys::merged_family_keys(seed);
    let probe_keys = &cold[1_024..1_024 + SOCKET_SAMPLES as usize];
    let leg_path = |path: &str| path.replacen("/api/", "/shard/", 1);
    sample(tracer, "shard.leg", SOCKET_SAMPLES, |i| {
        http::get_close(shards[0], &leg_path(&probe_keys[i as usize].path))
    })?;
    sample(tracer, "router.query", SOCKET_SAMPLES, |i| {
        http::get_close(router, &cycle[i as usize].path)
    })?;
    sample(tracer, "router.single", SOCKET_SAMPLES, |i| {
        http::get_close(single, &cycle[i as usize].path)
    })?;
    // The router's scatter-gather on its own: one `HttpClient` leg per
    // shard, spawned on a `JoinSet` and joined, exactly as `router.rs` does.
    runtime.block_on(async {
        for (i, key) in cycle.iter().take(SOCKET_SAMPLES as usize).enumerate() {
            let _s = tracer.start("router.fanout", i as u64, None);
            let mut legs = tokio::task::JoinSet::new();
            for &shard in &shards {
                let path = leg_path(&key.path);
                legs.spawn(async move { HttpClient::new(shard).get(&path).await });
            }
            while let Some(leg) = legs.join_next().await {
                leg.map_err(io::Error::other)?
                    .map_err(|e| io::Error::other(e.to_string()))?;
            }
        }
        io::Result::Ok(())
    })?;
    for (i, key) in probe_keys.iter().enumerate() {
        let bodies: Vec<Vec<u8>> = shards
            .iter()
            .map(|&shard| http::get_close(shard, &leg_path(&key.path)).map(|r| r.body))
            .collect::<io::Result<_>>()?;
        let parts: Vec<RangePartial> = {
            let _s = tracer.start("merge.decode", i as u64, None);
            bodies
                .iter()
                .map(|b| serde_json::from_slice(b).map_err(io::Error::other))
                .collect::<io::Result<_>>()?
        };
        let _s = tracer.start("merge.range", i as u64, None);
        std::hint::black_box(merge_range(parts));
    }
    let snapshot = registry.snapshot();
    let counter = |name: &str| snapshot.counter(name).unwrap_or(0) as f64;
    m.insert(
        "router.fanout_width",
        snapshot
            .histogram(names::QUERY_SHARD_FANOUT_WIDTH)
            .map_or(0.0, |h| h.sum / h.count.max(1) as f64),
    );
    m.insert(
        "router.fanout_failures",
        counter(names::QUERY_SHARD_FANOUT_FAILURES),
    );
    let (hits, misses) = (
        counter(names::QUERY_CACHE_HITS),
        counter(names::QUERY_CACHE_MISSES),
    );
    m.insert("router.cache_hit_ratio", hits / (hits + misses).max(1.0));
    runtime.block_on(cluster.shutdown());
    runtime.block_on(server.shutdown());

    // live: seal → reload → tail GET on a copy that may grow.
    let live_dir = scratch.join("live");
    ops::copy_store(store_dir, &live_dir)?;
    let service = QueryService::open(setup::service_config(&live_dir), Registry::new())?;
    let server = runtime.block_on(Server::bind("127.0.0.1:0", service.router()))?;
    for n in 0..8 {
        {
            let _s = tracer.start("live.seal", n, None);
            ops::seal_live(&live_dir, seed, n)?;
        }
        {
            let _s = tracer.start("live.reload", n, None);
            service.reload()?;
        }
        let _s = tracer.start("live.get", n, None);
        http::get_close(server.local_addr(), "/api/live?limit=64&wait_ms=100")?;
    }
    let snapshot = service.registry().snapshot();
    m.insert(
        "index.folds",
        snapshot.counter(names::QUERY_INDEX_FOLDS).unwrap_or(0) as f64,
    );
    m.insert(
        "index.full_rebuilds",
        snapshot
            .counter(names::QUERY_INDEX_FULL_REBUILDS)
            .unwrap_or(0) as f64,
    );
    runtime.block_on(server.shutdown());
    Ok(())
}

/// Run every probe and derive the metrics that are medians of spans.
fn probe_suite(seed: u64, scratch: &Path) -> io::Result<(Metrics, Vec<Span>)> {
    let tracer = &Tracer::new(true);
    let mut m = Metrics::new();
    let store_dir = scratch.join("probe-store");
    ops::generate_store(&store_dir, seed, PROBE_BUNDLES)?;
    // The twin: the same bundles, no validator spec in the manifest.
    let twin_dir = scratch.join("probe-store-no-spec");
    gen::generate(
        &mut StoreWriter::create(&twin_dir)?,
        &ScaleConfig::new(seed, PROBE_BUNDLES),
    )?;

    probe_pipeline(seed, scratch, tracer, &mut m)?;
    probe_store_scan_index(&store_dir, &twin_dir, scratch, tracer, &mut m)?;
    probe_engine_cache(&store_dir, seed, tracer, &mut m)?;
    probe_serving(&store_dir, scratch, seed, tracer, &mut m)?;

    let spans = tracer.take();
    let ms = |name: &str| median_ms(&spans, name);
    for (metric, span, scale) in [
        ("sim.step_us", "sim.step", 1e3),
        ("explorer.record_us", "explorer.record", 1e3),
        ("collector.poll_ms", "collector.poll", 1.0),
        ("collector.detail_ms", "collector.detail", 1.0),
        ("store.open_ms", "store.open", 1.0),
        ("store.view_us_per_seg", "store.view", 1e3),
        ("store.seal_ms", "store.seal", 1.0),
        ("scan.segment_ms", "scan.segment", 1.0),
        ("scan.store_ms", "scan.store", 1.0),
        ("scan.finalize_ms", "scan.finalize", 1.0),
        ("index.segment_ms", "index.segment", 1.0),
        ("index.build_ms", "index.build", 1.0),
        ("index.merge_ms", "index.merge", 1.0),
        ("index.save_ms", "index.save", 1.0),
        ("index.load_ms", "index.load", 1.0),
        ("attrib.schedule_ms", "attrib.schedule", 1.0),
        ("engine.hot_us", "engine.hot", 1e3),
        ("engine.cold_us", "engine.cold", 1e3),
        ("cache.hit_us", "cache.hit", 1e3),
        ("cache.miss_us", "cache.miss", 1e3),
        ("net.ping_keepalive_ms", "net.ping_keepalive", 1.0),
        ("net.ping_close_ms", "net.ping_close", 1.0),
        ("net.client_get_ms", "net.client_get", 1.0),
        ("service.hot_keepalive_ms", "service.hot_keepalive", 1.0),
        ("service.cold_keepalive_ms", "service.cold_keepalive", 1.0),
        ("service.hot_close_ms", "service.hot_close", 1.0),
        ("shard.leg_ms", "shard.leg", 1.0),
        ("router.query_ms", "router.query", 1.0),
        ("router.single_ms", "router.single", 1.0),
        ("router.fanout_ms", "router.fanout", 1.0),
        ("merge.decode_us", "merge.decode", 1e3),
        ("merge.range_us", "merge.range", 1e3),
        ("live.seal_ms", "live.seal", 1.0),
        ("live.reload_ms", "live.reload", 1.0),
        ("live.get_ms", "live.get", 1.0),
    ] {
        m.insert(metric, ms(span) * scale);
    }
    m.insert(
        "index.build_over_scan",
        m["index.build_ms"] / m["scan.store_ms"],
    );
    m.insert(
        "attrib.join_share",
        (m["index.build_ms"] - ms("index.build_no_spec")) / m["index.build_ms"],
    );
    m.insert(
        "service.self_ms",
        m["service.hot_keepalive_ms"] - m["net.ping_keepalive_ms"] - m["cache.hit_us"] / 1e3,
    );
    m.insert(
        "router.self_ms",
        m["router.query_ms"]
            - m["net.ping_close_ms"]
            - m["router.fanout_ms"]
            - (m["merge.decode_us"] + m["merge.range_us"]) / 1e3,
    );
    m.insert(
        "router.overhead_ratio",
        m["router.query_ms"] / m["router.single_ms"],
    );
    Ok((m, spans))
}

// ------------------------------------------------------- the traced workload

/// One workload traced: the better untraced and traced slice of two pairs,
/// and its path row.
struct Traced {
    workload: Workload,
    untraced: SliceResult,
    traced: SliceResult,
    /// Ops attempted and failed over all four slices.
    attempted: u64,
    failed: u64,
    /// Blocking-path layers, in order, with ms per op.
    path: Vec<(String, f64)>,
    spans: Vec<Span>,
}

impl Traced {
    fn path_sum(&self) -> f64 {
        self.path.iter().map(|(_, ms)| ms).sum()
    }
    fn coverage(&self) -> f64 {
        self.path_sum() / self.traced.whole.op_p50_ms
    }
    fn overhead(&self) -> f64 {
        self.traced.whole.op_p50_ms / self.untraced.whole.op_p50_ms
    }
    /// One of the three per-layer metrics that belong to a traced workload.
    fn metric(&self, name: &str) -> f64 {
        match name {
            "process.cpu_ms_per_op" => self.untraced.cpu_ms_per_op,
            "trace.overhead_ratio" => self.overhead(),
            _ => self.coverage(),
        }
    }
}

/// Median over ops of each direct child's self time summed per op and name,
/// for the ops rooted at spans called `root`; the root's own self time comes
/// last as `(<root> self)`.
fn path_from_spans(spans: &[Span], root: &str) -> Vec<(String, f64)> {
    let mut per_name: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut order: Vec<String> = Vec::new();
    let mut root_self = Vec::new();
    for op_root in spans.iter().filter(|s| s.name == root) {
        let mut totals: BTreeMap<&str, f64> = BTreeMap::new();
        for child in spans.iter().filter(|s| s.parent == op_root.id) {
            if !order.contains(&child.name) {
                order.push(child.name.clone());
            }
            *totals.entry(&child.name).or_default() += spans::self_ms(child, spans);
        }
        for (name, total) in totals {
            per_name.entry(name.to_string()).or_default().push(total);
        }
        root_self.push(spans::self_ms(op_root, spans));
    }
    let mut path: Vec<(String, f64)> = order
        .into_iter()
        .map(|name| {
            let median = stats::median(&per_name[&name]);
            (name, median)
        })
        .collect();
    path.push((format!("({root} self)"), stats::median(&root_self)));
    path
}

fn trace_workload(
    workload: Workload,
    seed: u64,
    slice_seconds: f64,
    scratch: &Path,
    probes: &Metrics,
    probe_spans: &[Span],
) -> io::Result<Traced> {
    let dir = scratch.join(workload.name());
    protocol::timed_set_up(workload, &dir, seed, STORE_BUNDLES, 1)?;
    // Two interleaved pairs, the better slice of each kind: a disturbed
    // slice must not pass for tracing overhead or for a short path.
    let (mut attempted, mut failed) = (0, 0);
    let mut untraced: Option<SliceResult> = None;
    let mut traced: Option<(SliceResult, PathBuf)> = None;
    for pair in 0..2u64 {
        let spans_file = scratch.join(format!("{}.{pair}.spans.jsonl", workload.name()));
        let run = |round: u64, spans: Option<PathBuf>| {
            slice::run_slice_in_child(&SliceArgs {
                workload,
                dir: dir.clone(),
                round,
                seconds: slice_seconds,
                block_seconds: 0.0,
                spans,
            })
        };
        let (plain, spanned) = (
            run(2 * pair, None)?,
            run(2 * pair + 1, Some(spans_file.clone()))?,
        );
        attempted += plain.attempted + spanned.attempted;
        failed += plain.failed + spanned.failed;
        if untraced
            .as_ref()
            .is_none_or(|best| plain.whole.op_p50_ms < best.whole.op_p50_ms)
        {
            untraced = Some(plain);
        }
        if traced
            .as_ref()
            .is_none_or(|(best, _)| spanned.whole.op_p50_ms < best.whole.op_p50_ms)
        {
            traced = Some((spanned, spans_file));
        }
    }
    let (untraced, (traced, spans_file)) =
        (untraced.expect("two pairs"), traced.expect("two pairs"));
    let spans = spans::parse_jsonl(&std::fs::read_to_string(&spans_file)?);
    std::fs::remove_dir_all(&dir)?;

    let path = match workload {
        // Real spans, recorded around each call the op makes.
        Workload::Analyze250k => path_from_spans(&spans, "analyze.pass"),
        Workload::LiveTail => path_from_spans(&spans, "live.op"),
        // The slice's op is one opaque `run_measurement`; the faithful tick
        // loop of the probes is the same work with a span per call.
        Workload::Collect1d => {
            let shorter = probe_spans
                .iter()
                .filter(|s| s.name == "pipeline.tick_loop")
                .min_by(|a, b| a.ms().total_cmp(&b.ms()))
                .map_or(0, |s| s.op);
            let one_loop: Vec<Span> = probe_spans
                .iter()
                .filter(|s| s.name != "pipeline.tick_loop" || s.op == shorter)
                .cloned()
                .collect();
            path_from_spans(&one_loop, "pipeline.tick_loop")
        }
        // Behind a socket nothing can be spanned from outside `crates/`, so
        // the path is built by substitution from the probes: the same
        // connection mode with an empty handler is the transport, the
        // in-process calls are the layers, and the service's or router's
        // own share is what the probe of the whole has left over. The sum
        // is then held against the traced slice of the real workload.
        Workload::ServeKeepalive => vec![
            ("net.ping_keepalive".into(), probes["net.ping_keepalive_ms"]),
            ("cache.hit".into(), probes["cache.hit_us"] / 1e3),
            ("service.self".into(), probes["service.self_ms"]),
        ],
        Workload::Shard2Cold => vec![
            (
                "net.ping_close (client to router)".into(),
                probes["net.ping_close_ms"],
            ),
            (
                "router.fanout (both legs, shards included)".into(),
                probes["router.fanout_ms"],
            ),
            ("merge.decode".into(), probes["merge.decode_us"] / 1e3),
            ("merge.range".into(), probes["merge.range_us"] / 1e3),
            ("router.self".into(), probes["router.self_ms"]),
        ],
    };
    Ok(Traced {
        workload,
        untraced,
        traced,
        attempted,
        failed,
        path,
        spans,
    })
}

fn print_path(t: &Traced) {
    let row: Vec<String> = t
        .path
        .iter()
        .map(|(name, ms)| format!("{name} {ms:.3}"))
        .collect();
    println!(
        "{} blocking path (ms per op): {}",
        t.workload.name(),
        row.join(" + ")
    );
    println!(
        "  = {:.3} ms, {:.1} % of the traced op p50{} {:.3} ms ({} samples); untraced p50 {:.3} ms, trace.overhead_ratio {:.3}, process.cpu_ms_per_op {:.3}",
        t.path_sum(),
        t.coverage() * 100.0,
        if (t.coverage() - 1.0).abs() <= 0.15 {
            ""
        } else {
            " (OUTSIDE 15 %)"
        },
        t.traced.whole.op_p50_ms,
        t.traced.whole.samples,
        t.untraced.whole.op_p50_ms,
        t.overhead(),
        t.untraced.cpu_ms_per_op
    );
}

// ----------------------------------------------------------------------- main

fn run(args: &[String]) -> Result<(), String> {
    if let Some(at) = args.iter().position(|a| a == "--slice") {
        return slice::slice_main(&args[at + 1..]);
    }
    let seed = number_of(args, "--seed", DEFAULT_SEED)?;
    let selected = match value_of(args, "--workload") {
        Some(name) => {
            Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?)
        }
        None => None,
    };
    let seconds: f64 = number_of(args, "--seconds", 10.0)?;
    // The probes use fixed op counts; each of the four slices gets a tenth
    // of the run length.
    let slice_seconds = seconds / 10.0;

    let out = Path::new(OUT);
    let scratch = Scratch::create(out).map_err(|e| e.to_string())?;
    let (metrics, probe_spans) = probe_suite(seed, scratch.path()).map_err(|e| e.to_string())?;

    let workloads: Vec<Workload> = selected.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut traced = Vec::new();
    for &workload in &workloads {
        let t = trace_workload(
            workload,
            seed,
            slice_seconds,
            scratch.path(),
            &metrics,
            &probe_spans,
        )
        .map_err(|e| format!("{}: {e}", workload.name()))?;
        print_path(&t);
        traced.push(t);
    }

    // One table. The last three metrics belong to a traced workload, so
    // they get a row per workload; the result line carries the selected one's.
    println!(
        "{:<44} {:>14} {:<6} should move",
        "per-layer metric", "value", "unit"
    );
    for layer in &PER_LAYER {
        if let Some(value) = metrics.get(layer.name) {
            println!(
                "{:<44} {:>14.4} {:<6} {}",
                layer.name, value, layer.unit, layer.moves
            );
            continue;
        }
        for t in &traced {
            println!(
                "{:<44} {:>14.4} {:<6} {}",
                format!("{} [{}]", layer.name, t.workload.name()),
                t.metric(layer.name),
                layer.unit,
                layer.moves
            );
        }
    }

    // Spans are written once, here, at exit.
    let trace_file = out.join("trace.jsonl");
    let _ = std::fs::remove_file(&trace_file);
    spans::append_jsonl(&trace_file, "probes", &probe_spans).map_err(|e| e.to_string())?;
    for t in &traced {
        spans::append_jsonl(&trace_file, t.workload.name(), &t.spans).map_err(|e| e.to_string())?;
    }
    println!("wrote {}", trace_file.display());

    let (attempted, failed) = traced
        .iter()
        .fold((0, 0), |(a, f), t| (a + t.attempted, f + t.failed));
    if selected.is_some() {
        let cells: Vec<(&str, f64, &str)> = PER_LAYER
            .iter()
            .map(|l| {
                let value = metrics.get(l.name).copied();
                (
                    l.name,
                    value.unwrap_or_else(|| traced[0].metric(l.name)),
                    l.unit,
                )
            })
            .collect();
        println!(
            "{}",
            protocol::result_line(failed == 0, attempted, failed, &cells)
        );
    }
    if failed > 0 {
        return Err(format!("{failed} ops failed their check"));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("bench-trace: {error}");
            ExitCode::FAILURE
        }
    }
}
