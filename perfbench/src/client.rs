//! The benchmark's own blocking HTTP/1.1 client.
//!
//! It frames each response by `content-length`, keeps at most one
//! connection, and reuses it for the next request unless the response
//! said `connection: close`. Each exchange records the connect time (when
//! it opened a connection), the time from the request being fully
//! written to the first response byte, and the total. Because reuse
//! follows the server's headers, a server that starts keeping
//! connections alive shows its gain here without a change to this file.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(60);

/// One request/response exchange.
#[derive(Clone, Debug, Default)]
pub struct Exchange {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
    /// Microseconds to open the connection; 0 when one was reused.
    pub connect_us: f64,
    /// Microseconds from the request fully written to the first byte.
    pub ttfb_us: f64,
    /// Microseconds from the start of the call to the last body byte.
    pub total_us: f64,
    /// Whether this exchange opened a new connection.
    pub connected: bool,
}

impl Exchange {
    /// First value of header `name` (lower-case).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A client holding at most one connection.
pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn invalid(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client { addr, conn: None }
    }

    /// Send one request and read the whole response.
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        request_id: &str,
        body: &[u8],
    ) -> std::io::Result<Exchange> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: {}\r\ncontent-type: application/json\r\n\
             content-length: {}\r\nx-cubesfc-request-id: {request_id}\r\n\r\n",
            self.addr,
            body.len()
        );
        let start = Instant::now();
        let reused = self.conn.is_some();
        match self.exchange(start, &head, body) {
            // A kept-alive connection the server has since closed fails
            // before any response byte: retry once on a fresh one.
            Err(_) if reused => {
                self.conn = None;
                self.exchange(Instant::now(), &head, body)
            }
            other => other,
        }
    }

    fn exchange(&mut self, start: Instant, head: &str, body: &[u8]) -> std::io::Result<Exchange> {
        let mut out = Exchange::default();
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(TIMEOUT))?;
            stream.set_write_timeout(Some(TIMEOUT))?;
            out.connect_us = us(start.elapsed());
            out.connected = true;
            self.conn = Some(BufReader::new(stream));
        }
        let conn = self.conn.as_mut().expect("connection opened above");
        {
            let stream = conn.get_mut();
            stream.write_all(head.as_bytes())?;
            stream.write_all(body)?;
            stream.flush()?;
        }
        let written = Instant::now();
        if conn.fill_buf()?.is_empty() {
            self.conn = None;
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before a response",
            ));
        }
        out.ttfb_us = us(written.elapsed());
        let keep = read_response(conn, &mut out)?;
        out.total_us = us(start.elapsed());
        if !keep {
            self.conn = None;
        }
        Ok(out)
    }
}

/// Read a status line, headers and a `content-length` body into `out`;
/// returns whether the connection may be reused.
fn read_response<R: BufRead>(conn: &mut R, out: &mut Exchange) -> std::io::Result<bool> {
    let mut line = String::new();
    conn.read_line(&mut line)?;
    let mut parts = line.split_whitespace();
    let version = parts.next().unwrap_or_default().to_string();
    out.status = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid(format!("bad status line {line:?}")))?;
    let mut length = None;
    loop {
        line.clear();
        if conn.read_line(&mut line)? == 0 {
            return Err(invalid("headers cut short".to_string()));
        }
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        let (name, value) = trimmed
            .split_once(':')
            .ok_or_else(|| invalid(format!("bad header {trimmed:?}")))?;
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            length = value.parse::<usize>().ok();
        }
        out.headers.push((name, value));
    }
    let length = length.ok_or_else(|| invalid("no content-length".to_string()))?;
    out.body = vec![0; length];
    conn.read_exact(&mut out.body)?;
    let close = match out.header("connection") {
        Some(v) => v.eq_ignore_ascii_case("close"),
        None => version != "HTTP/1.1",
    };
    Ok(!close)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_by_content_length_and_honours_close() {
        let wire = b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\nconnection: close\r\nx-a: b\r\n\r\nhelloEXTRA";
        let mut out = Exchange::default();
        let keep = read_response(&mut Cursor::new(&wire[..]), &mut out).unwrap();
        assert_eq!((out.status, keep), (200, false));
        assert_eq!(out.body, b"hello");
        assert_eq!(out.header("x-a"), Some("b"));

        let wire = b"HTTP/1.1 404 Not Found\r\nContent-Length: 2\r\n\r\nnoHTTP/1.1";
        let mut cursor = Cursor::new(&wire[..]);
        let mut out = Exchange::default();
        assert!(read_response(&mut cursor, &mut out).unwrap());
        assert_eq!((out.status, out.body.as_slice()), (404, &b"no"[..]));
        assert_eq!(cursor.position(), (wire.len() - 8) as u64);

        let mut out = Exchange::default();
        let short = b"HTTP/1.1 200 OK\r\ncontent-length: 9\r\n\r\nabc";
        assert!(read_response(&mut Cursor::new(&short[..]), &mut out).is_err());
        let none = b"HTTP/1.1 200 OK\r\n\r\n";
        assert!(read_response(&mut Cursor::new(&none[..]), &mut out).is_err());
    }
}
