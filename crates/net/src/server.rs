//! A small async HTTP server with routing and graceful shutdown.
//!
//! Follows the structured-concurrency guidance from the session's guides:
//! the server owns its connection tasks, and shutting the handle down stops
//! accepting, signals connections, and waits for them to finish.

use std::future::Future;
use std::net::SocketAddr;
use std::pin::Pin;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tokio::io::{AsyncReadExt, BufReader};
use tokio::net::{TcpListener, TcpStream};
use tokio::sync::watch;
use tokio::task::JoinSet;

use crate::http::{read_request, write_response, HttpError, Method, Request, Response, WireFault};

/// Boxed async handler.
pub type Handler =
    Arc<dyn Fn(Request) -> Pin<Box<dyn Future<Output = Response> + Send>> + Send + Sync>;

/// Captured `{name}` path parameters, in route-pattern order.
type PathParams = Vec<(String, String)>;

/// One segment of a registered route path: a literal, or a `{name}`
/// parameter capture.
#[derive(Clone, Debug, PartialEq, Eq)]
enum RouteSegment {
    Literal(String),
    Param(String),
}

/// A registered route: method, compiled path pattern, handler.
#[derive(Clone)]
struct Route {
    method: Method,
    segments: Vec<RouteSegment>,
    handler: Handler,
}

/// Split a path into segments, ignoring at most one trailing slash (so
/// `/ping/` dispatches like `/ping` instead of 404ing or panicking).
fn path_segments(path: &str) -> Vec<&str> {
    let trimmed = path.strip_suffix('/').unwrap_or(path);
    let trimmed = trimmed.strip_prefix('/').unwrap_or(trimmed);
    if trimmed.is_empty() {
        Vec::new()
    } else {
        trimmed.split('/').collect()
    }
}

fn compile_pattern(path: &str) -> Vec<RouteSegment> {
    path_segments(path)
        .into_iter()
        .map(
            |seg| match seg.strip_prefix('{').and_then(|s| s.strip_suffix('}')) {
                Some(name) if !name.is_empty() => RouteSegment::Param(name.to_string()),
                _ => RouteSegment::Literal(seg.to_string()),
            },
        )
        .collect()
}

/// Match request segments against a compiled pattern; on success, returns
/// the captured `{name}` parameters (percent-decoded) plus the number of
/// literal segments matched (the specificity score).
fn match_pattern(
    pattern: &[RouteSegment],
    request: &[&str],
) -> Option<(Vec<(String, String)>, usize)> {
    if pattern.len() != request.len() {
        return None;
    }
    let mut params = Vec::new();
    let mut literals = 0usize;
    for (pat, seg) in pattern.iter().zip(request) {
        match pat {
            RouteSegment::Literal(lit) => {
                if lit != seg {
                    return None;
                }
                literals += 1;
            }
            RouteSegment::Param(name) => {
                params.push((name.clone(), crate::http::percent_decode(seg)));
            }
        }
    }
    Some((params, literals))
}

/// Routes requests by method and path pattern. A pattern segment written
/// `{name}` captures the request segment as a path parameter; literal
/// segments always win over parameter segments (`/api/attacker/top` beats
/// `/api/attacker/{pubkey}` for `GET /api/attacker/top`).
#[derive(Default, Clone)]
pub struct Router {
    routes: Vec<Route>,
}

impl Router {
    /// An empty router.
    pub fn new() -> Self {
        Router::default()
    }

    /// Register a handler for a method and path pattern (literal segments
    /// plus optional `{name}` captures).
    pub fn route<F, Fut>(mut self, method: Method, path: &str, handler: F) -> Self
    where
        F: Fn(Request) -> Fut + Send + Sync + 'static,
        Fut: Future<Output = Response> + Send + 'static,
    {
        let handler: Handler = Arc::new(move |req| Box::pin(handler(req)));
        self.routes.push(Route {
            method,
            segments: compile_pattern(path),
            handler,
        });
        self
    }

    /// Find a handler; distinguishes 404 from 405 like a polite server.
    /// Among matching patterns the most literal one wins; ties go to the
    /// earliest registration.
    fn dispatch(&self, method: Method, path: &str) -> Result<(Handler, PathParams), u16> {
        let request = path_segments(path);
        let mut path_matched = false;
        let mut best: Option<(Handler, PathParams, usize)> = None;
        for route in &self.routes {
            let Some((params, literals)) = match_pattern(&route.segments, &request) else {
                continue;
            };
            path_matched = true;
            if route.method != method {
                continue;
            }
            if best.as_ref().is_none_or(|(_, _, b)| literals > *b) {
                best = Some((route.handler.clone(), params, literals));
            }
        }
        match best {
            Some((handler, params, _)) => Ok((handler, params)),
            None => Err(if path_matched { 405 } else { 404 }),
        }
    }
}

/// A running server; dropping it aborts, [`Server::shutdown`] is graceful.
pub struct Server {
    local_addr: SocketAddr,
    shutdown_tx: watch::Sender<bool>,
    accept_task: tokio::task::JoinHandle<()>,
    open: Arc<AtomicUsize>,
}

/// Takes one connection off the server's open count when its task ends,
/// however it ends.
struct OpenConnection(Arc<AtomicUsize>);

impl Drop for OpenConnection {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

impl Server {
    /// Bind and start serving `router` on `addr` (use port 0 for ephemeral).
    pub async fn bind(addr: &str, router: Router) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr).await?;
        let local_addr = listener.local_addr()?;
        let (shutdown_tx, shutdown_rx) = watch::channel(false);
        let router = Arc::new(router);
        let open = Arc::new(AtomicUsize::new(0));

        let accept_task = tokio::spawn(accept_loop(listener, router, shutdown_rx, open.clone()));
        Ok(Server {
            local_addr,
            shutdown_tx,
            accept_task,
            open,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Base URL for clients.
    pub fn base_url(&self) -> String {
        format!("http://{}", self.local_addr)
    }

    /// Connections accepted whose task has not ended yet: in-flight
    /// requests plus keep-alive connections a client holds idle.
    pub fn open_connections(&self) -> usize {
        self.open.load(Ordering::Relaxed)
    }

    /// Stop accepting, close connections, wait for tasks to finish.
    pub async fn shutdown(self) {
        let _ = self.shutdown_tx.send(true);
        let _ = self.accept_task.await;
    }
}

async fn accept_loop(
    listener: TcpListener,
    router: Arc<Router>,
    shutdown_rx: watch::Receiver<bool>,
    open: Arc<AtomicUsize>,
) {
    let mut connections = JoinSet::new();
    let mut shutdown = shutdown_rx.clone();
    loop {
        tokio::select! {
            accepted = listener.accept() => {
                match accepted {
                    Ok((stream, peer)) => {
                        let router = router.clone();
                        let conn_shutdown = shutdown_rx.clone();
                        open.fetch_add(1, Ordering::Relaxed);
                        let counted = OpenConnection(open.clone());
                        connections.spawn(async move {
                            let _counted = counted;
                            let _ = serve_connection(stream, peer, router, conn_shutdown).await;
                        });
                    }
                    Err(_) => break,
                }
            }
            _ = shutdown.changed() => break,
        }
        // Reap finished connection tasks opportunistically.
        while connections.try_join_next().is_some() {}
    }
    // Graceful drain: connections observe the shutdown watch and exit after
    // their in-flight request.
    while connections.join_next().await.is_some() {}
}

/// The shortest time between two requests served back to back on one
/// connection, once it has used up its [`KEEPALIVE_BURST`]: twice the tokio
/// shim's park interval, so 2 000 requests a second per connection.
///
/// Without it the scheduler sets a hot connection's speed. Under the shim a
/// connection is an OS thread that re-polls its socket every 250 µs; when
/// the kernel happens to run the client on that thread's core the moment
/// the response is written, the next request is in the socket before the
/// loop comes round and the exchange spins at ≈ 25 µs a request, otherwise
/// every request waits out a park — half-second stretches of one process
/// served anywhere from 2 000 to 27 000 requests a second on two
/// connections. A cadence the loop can keep either way makes the rate the
/// server's own, and bounds the share of a core one connection's thread can
/// take from the others. A connection slower than this never waits, which
/// is where router→shard legs and collector polls run (`HttpClient` re-polls
/// on a park of its own); a readiness reactor (ROADMAP item 1 (c)) retires
/// both the park and this.
const KEEPALIVE_CADENCE: Duration = Duration::from_micros(500);

/// Turns a connection may hold in hand: one that was idle, or was held up
/// (a slow handler, a descheduled thread), serves this many requests as
/// they come before the cadence applies again, so time lost is made up
/// instead of lowering the rate.
const KEEPALIVE_BURST: u32 = 16;

/// How long a connection asking at `now` waits for its turn, which is one
/// cadence after its last or, if it holds turns in hand, now; books the
/// turn after in `turn`.
fn take_turn(turn: &mut Instant, now: Instant) -> Duration {
    let in_hand = KEEPALIVE_CADENCE * KEEPALIVE_BURST;
    let at = (*turn).max(now.checked_sub(in_hand).unwrap_or(now));
    *turn = at + KEEPALIVE_CADENCE;
    at.saturating_duration_since(now)
}

async fn serve_connection(
    stream: TcpStream,
    _peer: SocketAddr,
    router: Arc<Router>,
    mut shutdown: watch::Receiver<bool>,
) -> Result<(), HttpError> {
    stream.set_nodelay(true)?;
    let (read, mut write) = stream.into_split();
    let mut reader = BufReader::new(read);
    let mut turn = Instant::now();
    loop {
        tokio::time::sleep(take_turn(&mut turn, Instant::now())).await;
        let request = tokio::select! {
            r = read_request(&mut reader) => match r {
                Ok(req) => req,
                Err(HttpError::ConnectionClosed) => return Ok(()),
                Err(HttpError::Io(_)) => return Ok(()),
                Err(e) => {
                    let resp = Response::text(400, format!("bad request: {e}"));
                    let _ = write_response(&mut write, &resp, false).await;
                    return Ok(());
                }
            },
            _ = shutdown.changed() => return Ok(()),
        };

        let keep_alive = request.keep_alive();
        let response = match router.dispatch(request.method, &request.path) {
            Ok((handler, params)) => {
                let mut request = request;
                request.params.extend(params);
                handler(request).await
            }
            Err(status) => Response::text(status, Response::reason(status)),
        };
        match response.wire_fault {
            WireFault::Drop => {
                // Hard outage: hang up without writing a byte.
                return Ok(());
            }
            WireFault::StallAfterHeaders => {
                // write_response sends the head alone (declaring the full
                // body length); the body never follows, so only a
                // client-side deadline gets the caller unstuck. Hold the
                // connection until the peer gives up on it (EOF, or
                // anything else it sends) or the server shuts down.
                write_response(&mut write, &response, keep_alive).await?;
                let mut byte = [0u8; 1];
                tokio::select! {
                    _ = reader.read(&mut byte) => {},
                    _ = shutdown.changed() => {},
                }
                return Ok(());
            }
            WireFault::TruncateBody(_) => {
                // write_response sends the partial body; closing here makes
                // the client see EOF mid-body.
                write_response(&mut write, &response, false).await?;
                return Ok(());
            }
            WireFault::None => {
                write_response(&mut write, &response, keep_alive).await?;
            }
        }
        if !keep_alive {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::HttpClient;

    fn test_router() -> Router {
        Router::new()
            .route(Method::Get, "/ping", |_req| async {
                Response::text(200, "pong")
            })
            .route(Method::Post, "/echo", |req: Request| async move {
                Response::new(200, req.body)
            })
            .route(Method::Get, "/query", |req: Request| async move {
                let v = req.query_param("v").unwrap_or("none").to_string();
                Response::text(200, v)
            })
            .route(Method::Get, "/item/{id}", |req: Request| async move {
                let id = req.path_param("id").unwrap_or("?").to_string();
                Response::text(200, format!("item:{id}"))
            })
            .route(Method::Get, "/item/special", |_req| async {
                Response::text(200, "special")
            })
    }

    #[test]
    fn dispatch_distinguishes_404_from_405() {
        let router = test_router();
        assert!(matches!(router.dispatch(Method::Get, "/nope"), Err(404)));
        assert!(matches!(router.dispatch(Method::Post, "/ping"), Err(405)));
        // A parameter route also participates in the 405 distinction.
        assert!(matches!(
            router.dispatch(Method::Post, "/item/42"),
            Err(405)
        ));
        assert!(router.dispatch(Method::Get, "/ping").is_ok());
    }

    #[test]
    fn dispatch_captures_path_parameters() {
        let router = test_router();
        let (_, params) = router.dispatch(Method::Get, "/item/42").unwrap();
        assert_eq!(params, vec![("id".to_string(), "42".to_string())]);
    }

    #[test]
    fn literal_segments_win_over_param_segments() {
        let router = test_router();
        let (_, params) = router.dispatch(Method::Get, "/item/special").unwrap();
        assert!(params.is_empty(), "literal route must win: {params:?}");
        // Registration order does not matter: literal-first routers agree.
        let reversed = Router::new()
            .route(Method::Get, "/item/special", |_req| async {
                Response::text(200, "special")
            })
            .route(Method::Get, "/item/{id}", |_req| async {
                Response::text(200, "param")
            });
        let (_, params) = reversed.dispatch(Method::Get, "/item/special").unwrap();
        assert!(params.is_empty());
    }

    #[test]
    fn trailing_slashes_do_not_panic_or_404() {
        let router = test_router();
        assert!(router.dispatch(Method::Get, "/ping/").is_ok());
        assert!(router.dispatch(Method::Get, "/item/42/").is_ok());
        // Root and degenerate paths are handled without panicking.
        assert!(matches!(router.dispatch(Method::Get, "/"), Err(404)));
        assert!(matches!(router.dispatch(Method::Get, ""), Err(404)));
        assert!(matches!(router.dispatch(Method::Get, "//"), Err(404)));
    }

    #[test]
    fn percent_encoded_parameters_are_decoded() {
        let router = test_router();
        let (_, params) = router.dispatch(Method::Get, "/item/a%2Fb%20c").unwrap();
        assert_eq!(params[0].1, "a/b c");
        // Encoded junk stays inert (kept literal, never a panic).
        let (_, params) = router.dispatch(Method::Get, "/item/%zz%2").unwrap();
        assert_eq!(params[0].1, "%zz%2");
    }

    #[tokio::test]
    async fn routes_and_statuses() {
        let server = Server::bind("127.0.0.1:0", test_router()).await.unwrap();
        let client = HttpClient::new(server.local_addr());

        let r = client.get("/ping").await.unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(&r.body[..], b"pong");

        let r = client.get("/nope").await.unwrap();
        assert_eq!(r.status, 404);

        // Wrong method on a known path → 405.
        let r = client.post("/ping", b"x".to_vec()).await.unwrap();
        assert_eq!(r.status, 405);

        server.shutdown().await;
    }

    #[tokio::test]
    async fn path_parameters_reach_handler_over_socket() {
        let server = Server::bind("127.0.0.1:0", test_router()).await.unwrap();
        let client = HttpClient::new(server.local_addr());
        let r = client.get("/item/sandwich-42").await.unwrap();
        assert_eq!(&r.body[..], b"item:sandwich-42");
        let r = client.get("/item/special").await.unwrap();
        assert_eq!(&r.body[..], b"special");
        server.shutdown().await;
    }

    #[tokio::test]
    async fn echo_posts_body() {
        let server = Server::bind("127.0.0.1:0", test_router()).await.unwrap();
        let client = HttpClient::new(server.local_addr());
        let r = client.post("/echo", b"payload".to_vec()).await.unwrap();
        assert_eq!(&r.body[..], b"payload");
        server.shutdown().await;
    }

    #[tokio::test]
    async fn query_parameters_reach_handler() {
        let server = Server::bind("127.0.0.1:0", test_router()).await.unwrap();
        let client = HttpClient::new(server.local_addr());
        let r = client.get("/query?v=42").await.unwrap();
        assert_eq!(&r.body[..], b"42");
        server.shutdown().await;
    }

    #[tokio::test]
    async fn concurrent_clients() {
        let server = Server::bind("127.0.0.1:0", test_router()).await.unwrap();
        let addr = server.local_addr();
        let mut tasks = Vec::new();
        for _ in 0..16 {
            tasks.push(tokio::spawn(async move {
                let client = HttpClient::new(addr);
                let r = client.get("/ping").await.unwrap();
                assert_eq!(r.status, 200);
            }));
        }
        for t in tasks {
            t.await.unwrap();
        }
        server.shutdown().await;
    }

    #[tokio::test]
    async fn keep_alive_serves_multiple_requests_per_connection() {
        use tokio::io::{AsyncReadExt, AsyncWriteExt};

        let server = Server::bind("127.0.0.1:0", test_router()).await.unwrap();
        let mut stream = tokio::net::TcpStream::connect(server.local_addr())
            .await
            .unwrap();

        // Two pipelined requests over one connection; second closes it.
        stream
            .write_all(b"GET /ping HTTP/1.1\r\nhost: x\r\n\r\n")
            .await
            .unwrap();
        stream
            .write_all(b"GET /ping HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n")
            .await
            .unwrap();

        let mut buf = Vec::new();
        stream.read_to_end(&mut buf).await.unwrap();
        let text = String::from_utf8_lossy(&buf);
        assert_eq!(text.matches("HTTP/1.1 200 OK").count(), 2, "{text}");
        assert!(text.contains("connection: keep-alive"));
        assert!(text.contains("connection: close"));
        server.shutdown().await;
    }

    #[tokio::test]
    async fn keep_alive_responses_do_not_wait_out_a_delayed_ack() {
        use std::io::{BufRead, Read, Write};

        let server = Server::bind("127.0.0.1:0", test_router()).await.unwrap();
        // A plain blocking client that leaves Nagle on, as a proxy or a
        // dashboard would: a response split into head and body segments
        // would stall ~40 ms on its delayed ACK from the second request on.
        let stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .unwrap();
        let mut reader = std::io::BufReader::new(stream);
        let mut round_trips = Vec::new();
        for _ in 0..9 {
            let started = std::time::Instant::now();
            reader
                .get_mut()
                .write_all(b"GET /ping HTTP/1.1\r\nhost: x\r\n\r\n")
                .unwrap();
            let mut line = String::new();
            while line != "\r\n" {
                line.clear();
                reader.read_line(&mut line).unwrap();
            }
            let mut body = [0u8; 4];
            reader.read_exact(&mut body).unwrap();
            assert_eq!(&body, b"pong");
            round_trips.push(started.elapsed());
        }
        round_trips.sort();
        let median = round_trips[round_trips.len() / 2];
        assert!(
            median < std::time::Duration::from_millis(20),
            "median keep-alive round trip {median:?}: {round_trips:?}"
        );
        server.shutdown().await;
    }

    #[tokio::test]
    async fn a_hot_keep_alive_connection_is_served_on_the_cadence() {
        let server = Server::bind("127.0.0.1:0", test_router()).await.unwrap();
        // A blocking client asks again the moment it has its answer, far
        // faster than the cadence: a fresh connection holds no turns in
        // hand, so request k is served no earlier than k cadences in.
        let started = Instant::now();
        let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let hot = 200;
        for _ in 0..=hot {
            std::io::Write::write_all(&mut stream, b"GET /ping HTTP/1.1\r\nhost: x\r\n\r\n")
                .unwrap();
            let mut response = Vec::new();
            while !response.ends_with(b"pong") {
                let mut chunk = [0u8; 256];
                let n = std::io::Read::read(&mut stream, &mut chunk).unwrap();
                assert!(n > 0, "server hung up");
                response.extend_from_slice(&chunk[..n]);
            }
        }
        let paced = started.elapsed();
        assert!(
            paced >= KEEPALIVE_CADENCE * hot,
            "{hot} requests after the first in {paced:?}"
        );
        server.shutdown().await;
    }

    #[test]
    fn a_connection_makes_up_at_most_its_burst() {
        let opened = Instant::now();
        let mut turn = opened;
        assert_eq!(take_turn(&mut turn, opened), Duration::ZERO);
        assert_eq!(take_turn(&mut turn, opened), KEEPALIVE_CADENCE);
        // Idle (or held up) for a second, it is served as it asks for the
        // turns in hand and the one now due, then back on the cadence.
        let later = opened + Duration::from_secs(1);
        for _ in 0..=KEEPALIVE_BURST {
            assert_eq!(take_turn(&mut turn, later), Duration::ZERO);
        }
        assert_eq!(take_turn(&mut turn, later), KEEPALIVE_CADENCE);
        assert_eq!(take_turn(&mut turn, later), KEEPALIVE_CADENCE * 2);
        // Asking slower than the cadence never waits.
        let mut now = later + Duration::from_secs(1);
        for _ in 0..100 {
            assert_eq!(take_turn(&mut turn, now), Duration::ZERO);
            now += KEEPALIVE_CADENCE + Duration::from_micros(1);
        }
    }

    #[tokio::test]
    async fn malformed_request_gets_400_then_close() {
        use tokio::io::{AsyncReadExt, AsyncWriteExt};

        let server = Server::bind("127.0.0.1:0", test_router()).await.unwrap();
        let mut stream = tokio::net::TcpStream::connect(server.local_addr())
            .await
            .unwrap();
        stream
            .write_all(b"GET /ping HTTP/2.0-nonsense\r\n\r\n")
            .await
            .unwrap();
        let mut buf = Vec::new();
        stream.read_to_end(&mut buf).await.unwrap();
        let text = String::from_utf8_lossy(&buf);
        assert!(text.starts_with("HTTP/1.1 400"), "{text}");
        server.shutdown().await;
    }

    #[tokio::test]
    async fn shutdown_stops_accepting() {
        let server = Server::bind("127.0.0.1:0", test_router()).await.unwrap();
        let addr = server.local_addr();
        server.shutdown().await;
        let client = HttpClient::new(addr);
        assert!(client.get("/ping").await.is_err());
    }
}
