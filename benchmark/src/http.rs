//! The load generator's HTTP client: blocking `std::net` sockets.
//!
//! The repository's own `HttpClient` runs on the tokio shim, whose tasks
//! re-poll pending I/O every 250 µs; timing a server through it would book
//! the client's polling as server time. This one blocks in the kernel.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A response: status code and body bytes.
#[derive(Debug, PartialEq, Eq)]
pub struct Reply {
    /// HTTP status.
    pub status: u16,
    /// Body, exactly `content-length` bytes.
    pub body: Vec<u8>,
}

/// One client connection with `TCP_NODELAY` set.
pub struct Conn {
    reader: BufReader<TcpStream>,
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

impl Conn {
    /// Connect to `addr`.
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        // A server that stops answering fails the op instead of hanging the run.
        stream.set_read_timeout(Some(Duration::from_secs(20)))?;
        Ok(Conn {
            reader: BufReader::new(stream),
        })
    }

    /// Send one GET in a single `write` and read the whole response.
    /// `close` asks the server to close the connection afterwards.
    pub fn get(&mut self, path: &str, close: bool) -> io::Result<Reply> {
        let request = format!(
            "GET {path} HTTP/1.1\r\nhost: bench\r\nconnection: {}\r\n\r\n",
            if close { "close" } else { "keep-alive" }
        );
        self.reader.get_mut().write_all(request.as_bytes())?;

        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("status line"))?;
        let mut length = None;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let mut body = vec![0u8; length.ok_or_else(|| bad("content-length"))?];
        self.reader.read_exact(&mut body)?;
        Ok(Reply { status, body })
    }
}

/// One request on a fresh connection with `connection: close`.
pub fn get_close(addr: SocketAddr, path: &str) -> io::Result<Reply> {
    Conn::open(addr)?.get(path, true)
}
