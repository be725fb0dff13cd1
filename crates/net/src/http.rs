//! Minimal HTTP/1.1 message types, parsing, and serialization.
//!
//! Implements just enough of RFC 9112 for the explorer API and collector:
//! request line + headers + `Content-Length` bodies, query strings, and
//! keep-alive. Chunked encoding and multiline headers are intentionally out
//! of scope and are rejected rather than mis-parsed.

use std::collections::HashMap;
use std::fmt;

use bytes::Bytes;
use tokio::io::{AsyncBufReadExt, AsyncReadExt, AsyncWriteExt, BufReader};
use tokio::net::tcp::{OwnedReadHalf, OwnedWriteHalf};

/// Errors from the HTTP layer.
#[derive(Debug)]
pub enum HttpError {
    /// Underlying socket failure.
    Io(std::io::Error),
    /// The peer sent something that is not valid HTTP/1.1.
    Malformed(&'static str),
    /// The peer closed the connection cleanly before a message started.
    ConnectionClosed,
    /// Message body larger than the configured limit.
    BodyTooLarge {
        /// Declared length.
        declared: usize,
        /// Allowed maximum.
        limit: usize,
    },
    /// A client-side deadline elapsed before the operation finished.
    TimedOut {
        /// Which phase of the request hit its deadline.
        phase: &'static str,
    },
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "io error: {e}"),
            HttpError::Malformed(what) => write!(f, "malformed http: {what}"),
            HttpError::ConnectionClosed => write!(f, "connection closed"),
            HttpError::BodyTooLarge { declared, limit } => {
                write!(f, "body of {declared} bytes exceeds limit {limit}")
            }
            HttpError::TimedOut { phase } => write!(f, "timed out during {phase}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Largest accepted message body (16 MiB — bundle pages are large).
pub const MAX_BODY: usize = 16 * 1024 * 1024;

/// HTTP request methods we support.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Method {
    /// GET.
    Get,
    /// POST.
    Post,
}

impl Method {
    fn parse(s: &str) -> Option<Method> {
        match s {
            "GET" => Some(Method::Get),
            "POST" => Some(Method::Post),
            _ => None,
        }
    }

    /// Wire name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
        }
    }
}

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// The method.
    pub method: Method,
    /// Path without the query string, e.g. `/api/v1/bundles`.
    pub path: String,
    /// Decoded query parameters.
    pub query: HashMap<String, String>,
    /// Path parameters captured by `{name}` route segments, percent-decoded.
    pub params: HashMap<String, String>,
    /// Headers, keys lower-cased.
    pub headers: HashMap<String, String>,
    /// Raw body bytes.
    pub body: Bytes,
}

impl Request {
    /// A query parameter, if present.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.get(key).map(String::as_str)
    }

    /// A path parameter captured by a `{name}` route segment, if present.
    pub fn path_param(&self, key: &str) -> Option<&str> {
        self.params.get(key).map(String::as_str)
    }

    /// A header value (key is matched case-insensitively).
    pub fn header(&self, key: &str) -> Option<&str> {
        self.headers
            .get(&key.to_ascii_lowercase())
            .map(String::as_str)
    }

    /// Whether the client asked to keep the connection open.
    pub fn keep_alive(&self) -> bool {
        !matches!(self.header("connection"), Some(v) if v.eq_ignore_ascii_case("close"))
    }
}

/// A connection-level fault the server applies while writing a response.
///
/// Handlers attach these to otherwise-normal responses so the fault
/// injection plan can exercise failure modes that live below HTTP
/// semantics: dropped connections, stalled bodies, truncated payloads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum WireFault {
    /// No fault: write the response normally.
    #[default]
    None,
    /// Close the connection without writing anything (hard outage).
    Drop,
    /// Write the status line and headers (declaring the full body length),
    /// then never send the body — the connection stays open until the
    /// client hangs up or the server shuts down, so only a client-side
    /// deadline can recover.
    StallAfterHeaders,
    /// Declare the full body length but send only this many bytes, then
    /// close the connection mid-body.
    TruncateBody(usize),
}

/// A response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Headers in insertion order.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Bytes,
    /// Connection-level fault to apply while writing (fault injection).
    pub wire_fault: WireFault,
}

impl Response {
    /// A response with a status and body.
    pub fn new(status: u16, body: impl Into<Bytes>) -> Self {
        Response {
            status,
            headers: Vec::new(),
            body: body.into(),
            wire_fault: WireFault::None,
        }
    }

    /// JSON 200 response from a serializable value.
    pub fn json<T: serde::Serialize>(value: &T) -> Self {
        Self::json_with_status(200, value)
    }

    /// JSON response with an explicit status.
    ///
    /// A value that fails to serialize becomes a 500 — a handler must never
    /// panic (and take its connection down) over a response body.
    pub fn json_with_status<T: serde::Serialize>(status: u16, value: &T) -> Self {
        match serde_json::to_vec(value) {
            Ok(body) => Response::new(status, body).header("content-type", "application/json"),
            Err(e) => Response::text(500, format!("response serialization failed: {e}")),
        }
    }

    /// Plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response::new(status, body.into().into_bytes())
            .header("content-type", "text/plain; charset=utf-8")
    }

    /// Add a header.
    pub fn header(mut self, key: &str, value: &str) -> Self {
        self.headers.push((key.to_string(), value.to_string()));
        self
    }

    /// Attach a connection-level fault to apply while writing.
    pub fn with_wire_fault(mut self, fault: WireFault) -> Self {
        self.wire_fault = fault;
        self
    }

    /// Find a header value (case-insensitive).
    pub fn header_value(&self, key: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(key))
            .map(|(_, v)| v.as_str())
    }

    /// Decode the body as JSON.
    pub fn body_json<T: serde::de::DeserializeOwned>(&self) -> Result<T, serde_json::Error> {
        serde_json::from_slice(&self.body)
    }

    /// Reason phrase for common status codes.
    pub fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }
}

/// Percent-decode a URL component (`%xx` and `+`).
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' if i + 2 < bytes.len() => {
                let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).ok();
                match hex.and_then(|h| u8::from_str_radix(h, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(bytes[i]);
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Parse a query string into a map.
pub fn parse_query(qs: &str) -> HashMap<String, String> {
    qs.split('&')
        .filter(|p| !p.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect()
}

/// Read one request from a buffered socket half.
pub async fn read_request(reader: &mut BufReader<OwnedReadHalf>) -> Result<Request, HttpError> {
    let mut line = String::new();
    let n = reader.read_line(&mut line).await?;
    if n == 0 {
        return Err(HttpError::ConnectionClosed);
    }
    let line = line.trim_end();
    let mut parts = line.split(' ');
    let method = parts
        .next()
        .and_then(Method::parse)
        .ok_or(HttpError::Malformed("method"))?;
    let target = parts.next().ok_or(HttpError::Malformed("target"))?;
    let version = parts.next().ok_or(HttpError::Malformed("version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed("version"));
    }

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), parse_query(q)),
        None => (target.to_string(), HashMap::new()),
    };

    let mut headers = HashMap::new();
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
        headers.insert(k.trim().to_ascii_lowercase(), v.trim().to_string());
    }

    if headers.contains_key("transfer-encoding") {
        return Err(HttpError::Malformed("chunked encoding unsupported"));
    }

    let body = match headers.get("content-length") {
        Some(len) => {
            let len: usize = len
                .parse()
                .map_err(|_| HttpError::Malformed("content-length"))?;
            if len > MAX_BODY {
                return Err(HttpError::BodyTooLarge {
                    declared: len,
                    limit: MAX_BODY,
                });
            }
            let mut buf = vec![0u8; len];
            reader.read_exact(&mut buf).await?;
            Bytes::from(buf)
        }
        None => Bytes::new(),
    };

    Ok(Request {
        method,
        path,
        query,
        params: HashMap::new(),
        headers,
        body,
    })
}

/// Serialize the status line and headers (always declaring the full body
/// length, even when a wire fault will withhold part of it).
fn response_head(response: &Response, keep_alive: bool) -> String {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
        response.status,
        Response::reason(response.status),
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (k, v) in &response.headers {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    head
}

/// Write a response to a socket half as one buffer and one write, so head
/// and body leave in the same segment: a body written after its head would
/// wait out the peer's delayed ACK on a keep-alive connection.
///
/// The body-shaped wire faults are applied inside that buffer:
/// [`WireFault::TruncateBody`] keeps a prefix of the body and
/// [`WireFault::StallAfterHeaders`] none of it. What happens to the
/// connection afterwards (and [`WireFault::Drop`], which never gets here) is
/// the server loop's business.
pub async fn write_response(
    writer: &mut OwnedWriteHalf,
    response: &Response,
    keep_alive: bool,
) -> Result<(), HttpError> {
    let sent = match response.wire_fault {
        WireFault::StallAfterHeaders => 0,
        WireFault::TruncateBody(n) => n.min(response.body.len()),
        WireFault::None | WireFault::Drop => response.body.len(),
    };
    let mut message = response_head(response, keep_alive).into_bytes();
    message.extend_from_slice(&response.body[..sent]);
    writer.write_all(&message).await?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_parsing_decodes() {
        let q = parse_query("limit=200&name=hello%20world&flag&plus=a+b");
        assert_eq!(q.get("limit").unwrap(), "200");
        assert_eq!(q.get("name").unwrap(), "hello world");
        assert_eq!(q.get("flag").unwrap(), "");
        assert_eq!(q.get("plus").unwrap(), "a b");
    }

    #[test]
    fn percent_decode_edge_cases() {
        assert_eq!(percent_decode("a%2Fb"), "a/b");
        assert_eq!(percent_decode("trailing%2"), "trailing%2"); // malformed kept
        assert_eq!(percent_decode("%zz"), "%zz");
        assert_eq!(percent_decode(""), "");
    }

    #[test]
    fn response_json_shape() {
        #[derive(serde::Serialize)]
        struct Payload {
            ok: bool,
        }
        let r = Response::json(&Payload { ok: true });
        assert_eq!(r.status, 200);
        assert_eq!(r.header_value("content-type"), Some("application/json"));
        assert_eq!(&r.body[..], br#"{"ok":true}"#);
    }

    #[test]
    fn reason_phrases() {
        assert_eq!(Response::reason(200), "OK");
        assert_eq!(Response::reason(429), "Too Many Requests");
        assert_eq!(Response::reason(599), "Unknown");
    }

    #[tokio::test]
    async fn request_roundtrip_over_socket() {
        let listener = tokio::net::TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();

        let server = tokio::spawn(async move {
            let (stream, _) = listener.accept().await.unwrap();
            let (read, _write) = stream.into_split();
            let mut reader = BufReader::new(read);
            read_request(&mut reader).await.unwrap()
        });

        let mut client = tokio::net::TcpStream::connect(addr).await.unwrap();
        client
            .write_all(b"POST /api/v1/transactions?batch=3 HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\nhello world")
            .await
            .unwrap();

        let req = server.await.unwrap();
        assert_eq!(req.method, Method::Post);
        assert_eq!(req.path, "/api/v1/transactions");
        assert_eq!(req.query_param("batch"), Some("3"));
        assert_eq!(&req.body[..], b"hello world");
        assert!(req.keep_alive());
    }

    #[tokio::test]
    async fn oversized_body_rejected() {
        let listener = tokio::net::TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();

        let server = tokio::spawn(async move {
            let (stream, _) = listener.accept().await.unwrap();
            let (read, _write) = stream.into_split();
            let mut reader = BufReader::new(read);
            read_request(&mut reader).await
        });

        let mut client = tokio::net::TcpStream::connect(addr).await.unwrap();
        let huge = MAX_BODY + 1;
        client
            .write_all(format!("POST / HTTP/1.1\r\nContent-Length: {huge}\r\n\r\n").as_bytes())
            .await
            .unwrap();

        assert!(matches!(
            server.await.unwrap(),
            Err(HttpError::BodyTooLarge { .. })
        ));
    }

    #[tokio::test]
    async fn malformed_request_line_rejected() {
        let listener = tokio::net::TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        let server = tokio::spawn(async move {
            let (stream, _) = listener.accept().await.unwrap();
            let (read, _write) = stream.into_split();
            let mut reader = BufReader::new(read);
            read_request(&mut reader).await
        });
        let mut client = tokio::net::TcpStream::connect(addr).await.unwrap();
        client.write_all(b"NONSENSE\r\n\r\n").await.unwrap();
        assert!(matches!(
            server.await.unwrap(),
            Err(HttpError::Malformed(_))
        ));
    }
}
