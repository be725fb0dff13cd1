//! A small async HTTP client with a keep-alive connection pool.
//!
//! One [`HttpClient`] talks to one server address; its clones share a small
//! list of idle connections, so a router leg or a collector poll pays for a
//! connect, an accept and a server task once, not per request. Every request
//! goes out as a single write with `connection: keep-alive`. Three rules
//! keep the pool from ever changing what a caller observes:
//!
//! 1. **Return only after a clean exchange.** A connection goes back to the
//!    idle list only after a complete, well-formed response whose head says
//!    `connection: keep-alive`. An error, a wire fault, a `connection: close`
//!    answer or a [`ClientTimeouts`] deadline (which drops the request future
//!    mid-flight, and the connection with it) closes it.
//! 2. **Probe at checkout.** Before an idle connection carries a request,
//!    one non-blocking read must come back `WouldBlock`. EOF (the server
//!    exited; [`crate::Server`] has no idle timeout, so nothing else closes a
//!    pooled connection) or stray bytes discard it, and the next idle
//!    connection or a fresh dial takes its place before a byte is sent.
//! 3. **Never replay.** A request is written at most once per call. A
//!    failure after that write is the caller's to see, exactly as on a fresh
//!    connection: retrying belongs to [`crate::RetryPolicy`] and the
//!    [`crate::CircuitBreaker`], which count attempts; a silent second send
//!    would repeat a `POST` and make the server see more requests than the
//!    client made attempts.
//!
//! Dialling survives as the pool-miss branch only; there is nothing to
//! configure.

use std::fmt;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use tokio::io::{AsyncReadExt, AsyncWriteExt, BufReader};
use tokio::net::tcp::{OwnedReadHalf, OwnedWriteHalf};
use tokio::net::TcpStream;

use crate::http::{HttpError, Response, WireFault};

/// Read one response from a buffered stream.
async fn read_response(reader: &mut BufReader<OwnedReadHalf>) -> Result<Response, HttpError> {
    use tokio::io::AsyncBufReadExt;

    let mut line = String::new();
    let n = reader.read_line(&mut line).await?;
    if n == 0 {
        return Err(HttpError::ConnectionClosed);
    }
    let mut parts = line.trim_end().splitn(3, ' ');
    let version = parts.next().ok_or(HttpError::Malformed("status line"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed("version"));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or(HttpError::Malformed("status code"))?;

    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let mut hline = String::new();
        let n = reader.read_line(&mut hline).await?;
        if n == 0 {
            return Err(HttpError::Malformed("eof in headers"));
        }
        let hline = hline.trim_end();
        if hline.is_empty() {
            break;
        }
        let (k, v) = hline
            .split_once(':')
            .ok_or(HttpError::Malformed("header"))?;
        let (k, v) = (k.trim().to_ascii_lowercase(), v.trim().to_string());
        if k == "content-length" {
            content_length = v
                .parse()
                .map_err(|_| HttpError::Malformed("content-length"))?;
        }
        headers.push((k, v));
    }
    if content_length > crate::http::MAX_BODY {
        return Err(HttpError::BodyTooLarge {
            declared: content_length,
            limit: crate::http::MAX_BODY,
        });
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).await?;
    Ok(Response {
        status,
        headers,
        body: body.into(),
        wire_fault: WireFault::None,
    })
}

/// Per-request deadlines for [`HttpClient`].
///
/// Without these a single stalled response (headers sent, body never
/// arrives) would block the caller forever; with them the worst case is
/// `total` per attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClientTimeouts {
    /// Deadline for establishing the TCP connection.
    pub connect: Duration,
    /// Deadline for the whole request: connect + write + read.
    pub total: Duration,
}

impl Default for ClientTimeouts {
    fn default() -> Self {
        ClientTimeouts {
            connect: Duration::from_secs(2),
            total: Duration::from_secs(10),
        }
    }
}

/// One established connection, between requests or carrying one.
struct Connection {
    reader: BufReader<OwnedReadHalf>,
    writer: OwnedWriteHalf,
}

impl Connection {
    /// Whether the connection is as the last response left it: nothing
    /// buffered, nothing arrived since, not closed by the peer.
    fn is_quiet(&self) -> bool {
        self.reader.buffer().is_empty()
            && matches!(
                self.reader.get_ref().try_read(&mut [0u8; 1]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock
            )
    }
}

/// What a client's pool has done so far, summed over its clones.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Connections established.
    pub dialed: u64,
    /// Requests sent on an idle connection instead of a new one.
    pub reused: u64,
    /// Idle connections found closed or dirty at checkout and dropped
    /// unused.
    pub discarded: u64,
}

impl std::ops::AddAssign for PoolStats {
    fn add_assign(&mut self, other: PoolStats) {
        self.dialed += other.dialed;
        self.reused += other.reused;
        self.discarded += other.discarded;
    }
}

impl PoolStats {
    /// Mirror the counts into the counters `{prefix}dialed`,
    /// `{prefix}reused` and `{prefix}discarded` of `registry`.
    pub fn publish(&self, registry: &sandwich_obs::Registry, prefix: &str) {
        for (name, total) in [
            ("dialed", self.dialed),
            ("reused", self.reused),
            ("discarded", self.discarded),
        ] {
            registry.counter(&format!("{prefix}{name}")).raise_to(total);
        }
    }
}

/// The state clones of one [`HttpClient`] share.
#[derive(Default)]
struct Pool {
    idle: Mutex<Vec<Connection>>,
    dialed: AtomicU64,
    reused: AtomicU64,
    discarded: AtomicU64,
}

impl Pool {
    /// The most recently returned idle connection, if any.
    fn take(&self) -> Option<Connection> {
        self.idle.lock().pop()
    }

    /// Keep `connection` for the next request, or close it if the list is
    /// full.
    fn put(&self, connection: Connection) {
        let mut idle = self.idle.lock();
        if idle.len() < HttpClient::MAX_IDLE {
            idle.push(connection);
        }
    }
}

/// An HTTP client bound to one server address; clones share its
/// connection pool (see the module docs for the pool's rules).
#[derive(Clone)]
pub struct HttpClient {
    addr: SocketAddr,
    timeouts: ClientTimeouts,
    pool: Arc<Pool>,
}

impl fmt::Debug for HttpClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HttpClient")
            .field("addr", &self.addr)
            .field("timeouts", &self.timeouts)
            .field("pool", &self.stats())
            .finish()
    }
}

impl HttpClient {
    /// Idle connections kept per client (and its clones); one returned to a
    /// full list is closed instead. Small on purpose: an idle connection
    /// holds a server task open, and under the tokio shim a task is an OS
    /// thread re-polling its socket.
    pub const MAX_IDLE: usize = 4;

    /// Client for `addr` with default deadlines.
    pub fn new(addr: SocketAddr) -> Self {
        HttpClient {
            addr,
            timeouts: ClientTimeouts::default(),
            pool: Arc::default(),
        }
    }

    /// Replace the per-request deadlines.
    pub fn with_timeouts(mut self, timeouts: ClientTimeouts) -> Self {
        self.timeouts = timeouts;
        self
    }

    /// The configured deadlines.
    pub fn timeouts(&self) -> ClientTimeouts {
        self.timeouts
    }

    /// What the pool has done so far.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            dialed: self.pool.dialed.load(Ordering::Relaxed),
            reused: self.pool.reused.load(Ordering::Relaxed),
            discarded: self.pool.discarded.load(Ordering::Relaxed),
        }
    }

    async fn request(
        &self,
        method: &str,
        path_and_query: &str,
        body: Option<Vec<u8>>,
    ) -> Result<Response, HttpError> {
        match tokio::time::timeout(
            self.timeouts.total,
            self.request_inner(method, path_and_query, body),
        )
        .await
        {
            Ok(result) => result,
            Err(_) => Err(HttpError::TimedOut { phase: "request" }),
        }
    }

    /// A connection to send one request on: the most recently returned idle
    /// one that is still quiet, else a fresh dial.
    async fn checkout(&self) -> Result<Connection, HttpError> {
        while let Some(connection) = self.pool.take() {
            if connection.is_quiet() {
                self.pool.reused.fetch_add(1, Ordering::Relaxed);
                return Ok(connection);
            }
            self.pool.discarded.fetch_add(1, Ordering::Relaxed);
        }
        let stream = match tokio::time::timeout(
            self.timeouts.connect,
            TcpStream::connect(self.addr),
        )
        .await
        {
            Ok(connected) => connected?,
            Err(_) => return Err(HttpError::TimedOut { phase: "connect" }),
        };
        stream.set_nodelay(true)?;
        self.pool.dialed.fetch_add(1, Ordering::Relaxed);
        let (read, writer) = stream.into_split();
        Ok(Connection {
            reader: BufReader::new(read),
            writer,
        })
    }

    async fn request_inner(
        &self,
        method: &str,
        path_and_query: &str,
        body: Option<Vec<u8>>,
    ) -> Result<Response, HttpError> {
        let mut connection = self.checkout().await?;

        // Head and body in one buffer and one write: one segment, and the
        // one place a request reaches the wire.
        let body = body.unwrap_or_default();
        let mut message = format!(
            "{method} {path_and_query} HTTP/1.1\r\nhost: {}\r\ncontent-length: {}\r\nconnection: keep-alive\r\n\r\n",
            self.addr,
            body.len(),
        )
        .into_bytes();
        message.extend_from_slice(&body);
        connection.writer.write_all(&message).await?;

        let response = read_response(&mut connection.reader).await?;
        // Any `?` above, or this future dropped at an await, closes the
        // connection; only a complete keep-alive exchange gets here.
        let keep_alive = response
            .header_value("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("keep-alive"));
        if keep_alive {
            self.pool.put(connection);
        }
        Ok(response)
    }

    /// GET a path (may include a query string).
    pub async fn get(&self, path_and_query: &str) -> Result<Response, HttpError> {
        self.request("GET", path_and_query, None).await
    }

    /// POST raw bytes.
    pub async fn post(&self, path: &str, body: Vec<u8>) -> Result<Response, HttpError> {
        self.request("POST", path, Some(body)).await
    }

    /// POST a JSON value and decode a JSON response, enforcing 200.
    pub async fn post_json<Req: serde::Serialize, Resp: serde::de::DeserializeOwned>(
        &self,
        path: &str,
        req: &Req,
    ) -> Result<Resp, ClientError> {
        let body = serde_json::to_vec(req).expect("serializable request");
        let resp = self.post(path, body).await?;
        if resp.status != 200 {
            return Err(ClientError::from_status(&resp));
        }
        resp.body_json().map_err(ClientError::Decode)
    }

    /// GET a path and decode a JSON response, enforcing 200.
    pub async fn get_json<Resp: serde::de::DeserializeOwned>(
        &self,
        path_and_query: &str,
    ) -> Result<Resp, ClientError> {
        let resp = self.get(path_and_query).await?;
        if resp.status != 200 {
            return Err(ClientError::from_status(&resp));
        }
        resp.body_json().map_err(ClientError::Decode)
    }
}

/// The server's pacing hint, if any: `retry-after-ms` (milliseconds,
/// preferred for sub-second pacing) or the standard `retry-after` (seconds).
fn retry_after_of(resp: &Response) -> Option<Duration> {
    if let Some(ms) = resp
        .header_value("retry-after-ms")
        .and_then(|v| v.parse::<u64>().ok())
    {
        return Some(Duration::from_millis(ms));
    }
    resp.header_value("retry-after")
        .and_then(|v| v.parse::<u64>().ok())
        .map(Duration::from_secs)
}

/// Client-side errors including non-200 statuses.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level failure.
    Http(HttpError),
    /// A connect or whole-request deadline elapsed.
    TimedOut {
        /// Which phase of the request hit its deadline.
        phase: &'static str,
    },
    /// Server answered with a non-200 status.
    Status {
        /// The status code.
        status: u16,
        /// Body text for diagnostics.
        body: String,
        /// Server pacing hint from `retry-after`/`retry-after-ms` headers.
        retry_after: Option<Duration>,
    },
    /// Body failed to decode as the expected JSON shape.
    Decode(serde_json::Error),
}

impl ClientError {
    fn from_status(resp: &Response) -> Self {
        ClientError::Status {
            status: resp.status,
            body: String::from_utf8_lossy(&resp.body).into_owned(),
            retry_after: retry_after_of(resp),
        }
    }

    /// True for failures worth retrying (transport errors, timeouts, and
    /// 5xx/429 statuses).
    pub fn is_transient(&self) -> bool {
        match self {
            ClientError::Http(_) | ClientError::TimedOut { .. } => true,
            ClientError::Status { status, .. } => *status == 429 || *status >= 500,
            ClientError::Decode(_) => false,
        }
    }

    /// The server's pacing hint, when this error carries one.
    pub fn retry_after(&self) -> Option<Duration> {
        match self {
            ClientError::Status { retry_after, .. } => *retry_after,
            _ => None,
        }
    }

    /// True when a client-side deadline caused this error.
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            ClientError::TimedOut { .. } | ClientError::Http(HttpError::TimedOut { .. })
        )
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Http(e) => write!(f, "http error: {e}"),
            ClientError::TimedOut { phase } => write!(f, "timed out during {phase}"),
            ClientError::Status { status, body, .. } => write!(f, "status {status}: {body}"),
            ClientError::Decode(e) => write!(f, "decode error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<HttpError> for ClientError {
    fn from(e: HttpError) -> Self {
        match e {
            HttpError::TimedOut { phase } => ClientError::TimedOut { phase },
            other => ClientError::Http(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{Method, Request};
    use crate::server::{Router, Server};
    use std::sync::atomic::AtomicUsize;
    use std::time::Instant;

    /// `/ping`, `/echo`, and `/faulty`: a ten-byte body carrying whatever
    /// wire fault the test armed (once), counting every run of the handler.
    fn pool_router(fault: Arc<Mutex<WireFault>>, runs: Arc<AtomicUsize>) -> Router {
        Router::new()
            .route(Method::Get, "/ping", |_req| async {
                Response::text(200, "pong")
            })
            .route(Method::Post, "/echo", |req: Request| async move {
                Response::new(200, req.body)
            })
            .route(Method::Get, "/faulty", move |_req| {
                runs.fetch_add(1, Ordering::SeqCst);
                let fault = std::mem::take(&mut *fault.lock());
                async move { Response::text(200, "0123456789").with_wire_fault(fault) }
            })
    }

    async fn plain_server() -> Server {
        Server::bind("127.0.0.1:0", pool_router(Arc::default(), Arc::default()))
            .await
            .unwrap()
    }

    /// Wait (bounded) for the server's connection tasks to notice what the
    /// client did to their sockets.
    async fn open_connections_settle_at(server: &Server, expected: usize) {
        let started = Instant::now();
        while server.open_connections() != expected {
            assert!(
                started.elapsed() < Duration::from_secs(10),
                "open connections stuck at {}, expected {expected}",
                server.open_connections()
            );
            tokio::time::sleep(Duration::from_millis(1)).await;
        }
    }

    /// Two errors are the same failure as far as a retry policy can tell.
    fn same_failure(a: &HttpError, b: &HttpError) -> bool {
        match (a, b) {
            (HttpError::Io(a), HttpError::Io(b)) => a.kind() == b.kind(),
            (HttpError::TimedOut { phase: a }, HttpError::TimedOut { phase: b }) => a == b,
            _ => std::mem::discriminant(a) == std::mem::discriminant(b),
        }
    }

    #[tokio::test]
    async fn sequential_requests_share_one_connection() {
        let server = plain_server().await;
        let client = HttpClient::new(server.local_addr());
        for _ in 0..100 {
            let r = client.get("/ping").await.unwrap();
            assert_eq!((r.status, &r.body[..]), (200, &b"pong"[..]));
        }
        assert_eq!(
            client.stats(),
            PoolStats {
                dialed: 1,
                reused: 99,
                discarded: 0
            }
        );
        assert_eq!(server.open_connections(), 1);

        // Bodies of every size class round-trip on the pooled connection.
        for i in 0..50usize {
            let body: Vec<u8> = (0..i * 97).map(|b| (b % 251) as u8).collect();
            let r = client.post("/echo", body.clone()).await.unwrap();
            assert_eq!(&r.body[..], &body[..], "echo {i}");
        }
        assert_eq!(client.stats().dialed, 1);
        assert_eq!(client.stats().reused, 149);
        assert_eq!(server.open_connections(), 1);
        server.shutdown().await;
    }

    #[tokio::test]
    async fn a_wire_fault_on_a_reused_connection_fails_once_and_is_never_replayed() {
        let stall_deadline = ClientTimeouts {
            total: Duration::from_millis(50),
            ..ClientTimeouts::default()
        };
        for (fault, timeouts) in [
            (WireFault::Drop, ClientTimeouts::default()),
            (WireFault::StallAfterHeaders, stall_deadline),
            (WireFault::TruncateBody(4), ClientTimeouts::default()),
        ] {
            let armed = Arc::new(Mutex::new(WireFault::None));
            let runs = Arc::new(AtomicUsize::new(0));
            let server = Server::bind("127.0.0.1:0", pool_router(armed.clone(), runs.clone()))
                .await
                .unwrap();

            // The reference: the fault met on a fresh connection.
            let fresh = HttpClient::new(server.local_addr()).with_timeouts(timeouts);
            *armed.lock() = fault;
            let on_fresh = fresh.get("/faulty").await.unwrap_err();
            assert_eq!(fresh.stats().reused, 0);
            open_connections_settle_at(&server, 0).await;

            // The same fault met on a connection that already served one.
            let client = HttpClient::new(server.local_addr()).with_timeouts(timeouts);
            client.get("/faulty").await.unwrap();
            *armed.lock() = fault;
            let before = runs.load(Ordering::SeqCst);
            let on_reused = client.get("/faulty").await.unwrap_err();
            assert!(
                same_failure(&on_fresh, &on_reused),
                "{fault:?}: fresh {on_fresh:?}, reused {on_reused:?}"
            );
            assert_eq!(
                runs.load(Ordering::SeqCst),
                before + 1,
                "{fault:?}: the handler must run exactly once"
            );
            assert_eq!(client.stats().reused, 1, "{fault:?}");

            // The failed connection is gone on both ends without a shutdown
            // (for the stall: because the server watches for the hang-up)...
            open_connections_settle_at(&server, 0).await;
            // ...and the next request dials instead of reusing it.
            let r = client.get("/faulty").await.unwrap();
            assert_eq!(&r.body[..], b"0123456789");
            assert_eq!(
                client.stats(),
                PoolStats {
                    dialed: 2,
                    reused: 1,
                    discarded: 0
                },
                "{fault:?}"
            );
            assert_eq!(runs.load(Ordering::SeqCst), before + 2);
            server.shutdown().await;
        }
    }

    #[tokio::test]
    async fn an_idle_connection_to_a_stopped_server_is_discarded_unwritten() {
        let server = plain_server().await;
        let client = HttpClient::new(server.local_addr());
        client.get("/ping").await.unwrap();
        // Graceful shutdown drains even though the client still holds the
        // connection open.
        server.shutdown().await;

        let started = Instant::now();
        let error = client.get("/ping").await.unwrap_err();
        assert!(
            matches!(&error, HttpError::Io(e) if e.kind() == io::ErrorKind::ConnectionRefused),
            "{error:?}"
        );
        assert!(started.elapsed() < Duration::from_secs(2), "must not hang");
        // The probe saw the EOF: nothing was sent on the dead socket.
        assert_eq!(
            client.stats(),
            PoolStats {
                dialed: 1,
                reused: 0,
                discarded: 1
            }
        );
    }

    #[tokio::test]
    async fn a_burst_through_clones_leaves_a_bounded_idle_list() {
        const BURST: usize = 32;
        // Every request waits in the handler until all of them are there,
        // so the burst really holds BURST connections at once.
        let arrived = Arc::new(AtomicUsize::new(0));
        let gate = arrived.clone();
        let router = Router::new().route(Method::Get, "/gate", move |_req| {
            let gate = gate.clone();
            async move {
                gate.fetch_add(1, Ordering::SeqCst);
                while gate.load(Ordering::SeqCst) < BURST {
                    tokio::time::sleep(Duration::from_millis(1)).await;
                }
                Response::text(200, "open")
            }
        });
        let server = Server::bind("127.0.0.1:0", router).await.unwrap();
        let client = HttpClient::new(server.local_addr());

        let mut tasks = tokio::task::JoinSet::new();
        for _ in 0..BURST {
            let client = client.clone();
            tasks.spawn(async move { client.get("/gate").await.map(|r| r.status) });
        }
        while let Some(joined) = tasks.join_next().await {
            assert_eq!(joined.unwrap().unwrap(), 200);
        }

        assert_eq!(client.stats().dialed, BURST as u64);
        assert_eq!(client.pool.idle.lock().len(), HttpClient::MAX_IDLE);
        // The surplus was closed, and the server's tasks end with it.
        open_connections_settle_at(&server, HttpClient::MAX_IDLE).await;
        server.shutdown().await;
    }

    #[tokio::test]
    async fn only_a_clean_keep_alive_exchange_is_pooled() {
        use tokio::io::AsyncBufReadExt;

        // A hand-rolled peer: the first connection answers keep-alive but
        // sends two bytes nobody asked for, the second answers `close`.
        let listener = tokio::net::TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = tokio::spawn(async move {
            let mut held = Vec::new();
            for reply in [
                &b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\nconnection: keep-alive\r\n\r\nokxx"[..],
                b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\nconnection: close\r\n\r\nok",
                b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\nconnection: keep-alive\r\n\r\nok",
            ] {
                let (stream, _) = listener.accept().await.unwrap();
                let (read, mut write) = stream.into_split();
                let mut reader = BufReader::new(read);
                let mut line = String::new();
                while line != "\r\n" {
                    line.clear();
                    reader.read_line(&mut line).await.unwrap();
                }
                write.write_all(reply).await.unwrap();
                held.push((reader, write));
            }
            held
        });

        let client = HttpClient::new(addr);
        for _ in 0..3 {
            assert_eq!(&client.get("/").await.unwrap().body[..], b"ok");
        }
        assert_eq!(
            client.stats(),
            PoolStats {
                dialed: 3,
                reused: 0,
                discarded: 1
            }
        );
        drop(peer.await.unwrap());
    }

    fn status_err(status: u16) -> ClientError {
        ClientError::Status {
            status,
            body: String::new(),
            retry_after: None,
        }
    }

    #[test]
    fn transient_classification() {
        assert!(status_err(503).is_transient());
        assert!(status_err(429).is_transient());
        assert!(!status_err(400).is_transient());
        assert!(ClientError::Http(HttpError::ConnectionClosed).is_transient());
        assert!(ClientError::TimedOut { phase: "request" }.is_transient());
    }

    #[test]
    fn retry_after_header_parsing() {
        let resp = Response::text(429, "slow down").header("retry-after", "2");
        let err = ClientError::from_status(&resp);
        assert_eq!(err.retry_after(), Some(Duration::from_secs(2)));

        // Millisecond header wins over the seconds one.
        let resp = Response::text(429, "slow down")
            .header("retry-after", "2")
            .header("retry-after-ms", "150");
        let err = ClientError::from_status(&resp);
        assert_eq!(err.retry_after(), Some(Duration::from_millis(150)));

        let resp = Response::text(503, "oops");
        assert_eq!(ClientError::from_status(&resp).retry_after(), None);
    }
}
