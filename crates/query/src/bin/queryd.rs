//! `queryd` — the analytics API daemon.
//!
//! Opens a sealed bundle store, loads or builds the query index, and
//! serves the `/api/*` endpoints plus `/metrics` until killed.
//!
//! Environment:
//! - `SANDWICH_QUERY_STORE`  — store directory (default `collector.store`)
//! - `SANDWICH_QUERY_ADDR`   — bind address (default `127.0.0.1:8080`)
//! - `SANDWICH_QUERY_THREADS` — index-build workers (default 4)
//! - `SANDWICH_QUERY_MAX_INFLIGHT` — admission-control bound on
//!   concurrent API requests; excess load is shed with 503 +
//!   `Retry-After` (default 256)
//! - `SANDWICH_QUERYD_ONCE=1` — exit right after startup (smoke tests)
//!
//! `GET /healthz` answers 200 while the process serves; `GET /readyz`
//! flips to 503 while the most recent index reload failed (the daemon
//! keeps serving the last good generation meanwhile).
//!
//! The daemon watches the manifest (cheap stat, no JSON parse) every few
//! seconds; when the collector seals a new segment it folds just the
//! delta into the live index (`query.index.fold.*` metrics) and swaps it
//! in — a full rebuild happens only if the manifest history stopped being
//! append-only. A failed reload is retried on the next tick. `/api/live` streams the newly folded sandwiches behind an
//! opaque cursor, with bounded long-polling, so a tracker UI pointed at
//! this process follows the measurement live.

use sandwich_obs::Registry;
use sandwich_query::ladder::follow_seals;
use sandwich_query::{QueryService, QueryServiceConfig};
use sandwich_types::env::env_or;

fn main() {
    let store_dir = env_or("SANDWICH_QUERY_STORE", String::from("collector.store"));
    let addr = env_or("SANDWICH_QUERY_ADDR", String::from("127.0.0.1:8080"));
    let threads: usize = env_or("SANDWICH_QUERY_THREADS", 4);
    let max_in_flight: usize = env_or("SANDWICH_QUERY_MAX_INFLIGHT", 256);
    let once = env_or("SANDWICH_QUERYD_ONCE", String::from("0")) == "1";

    let mut config = QueryServiceConfig::new(&store_dir);
    config.query.threads = threads;
    config.max_in_flight = max_in_flight;
    let registry = Registry::new();

    let runtime = tokio::runtime::Builder::new_multi_thread()
        .enable_all()
        .build()
        .expect("tokio runtime");
    runtime.block_on(async move {
        let service = match QueryService::open(config, registry) {
            Ok(service) => service,
            Err(e) => {
                eprintln!("queryd: cannot open store at {store_dir}: {e}");
                std::process::exit(2);
            }
        };
        let server = match sandwich_net::Server::bind(&addr, service.router()).await {
            Ok(server) => server,
            Err(e) => {
                eprintln!("queryd: cannot bind {addr}: {e}");
                std::process::exit(2);
            }
        };
        println!(
            "queryd: serving store {} on http://{} (generation {})",
            store_dir,
            server.local_addr(),
            service.generation()
        );
        if once {
            server.shutdown().await;
            return;
        }
        let reload = || Ok(service.reload()?.then(|| service.generation()));
        follow_seals(&store_dir, "queryd", reload).await
    });
}
