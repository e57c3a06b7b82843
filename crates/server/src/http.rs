//! A minimal HTTP/1.1 wire layer over blocking [`TcpStream`]s.
//!
//! The build environment has no registry access, so instead of hyper/tokio
//! this module implements exactly the subset the SPARQL endpoint needs:
//! request-head parsing (request line + headers, CRLF-delimited),
//! `Content-Length` bodies, percent/form decoding, and response writing.
//! Every response carries an exact `Content-Length` (never
//! `Transfer-Encoding`) and `Connection: close`, and the connection serves
//! one exchange — the simplest protocol that is still correct for browsers,
//! `curl`, and the closed-loop perf harness.

use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Upper bound on the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 64 * 1024;

/// A parsed request head. The body (if any) is read separately so the
/// caller can apply admission control before buffering it.
#[derive(Debug, Clone)]
pub struct Head {
    /// Request method, uppercase as sent ("GET", "POST", …).
    pub method: String,
    /// Path component of the request target (before `?`).
    pub path: String,
    /// Raw query string (after `?`, without it; empty when absent).
    pub query: String,
    /// Header name/value pairs; names lowercased at parse time.
    pub headers: Vec<(String, String)>,
}

impl Head {
    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// The `Content-Length` value, if present and parsable.
    pub fn content_length(&self) -> Option<usize> {
        self.header("content-length").and_then(|v| v.trim().parse().ok())
    }
}

/// Reads and parses a request head (up to and including the blank line).
///
/// Returns `Ok(None)` on a clean EOF before any byte (client closed an idle
/// connection); malformed input and oversized heads are `io::Error`s.
pub fn read_head(stream: &mut TcpStream) -> io::Result<Option<Head>> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut byte = [0u8; 1];
    // Byte-at-a-time until CRLFCRLF: request heads are tiny and this keeps
    // the body bytes unconsumed in the stream for the caller.
    loop {
        match stream.read(&mut byte) {
            Ok(0) => {
                if buf.is_empty() {
                    return Ok(None);
                }
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "truncated head"));
            }
            Ok(_) => {
                buf.push(byte[0]);
                if buf.len() > MAX_HEAD_BYTES {
                    return Err(io::Error::new(io::ErrorKind::InvalidData, "head too large"));
                }
                if buf.ends_with(b"\r\n\r\n") {
                    break;
                }
                // Be liberal: accept bare-LF line endings too.
                if buf.ends_with(b"\n\n") {
                    break;
                }
            }
            Err(e) => return Err(e),
        }
    }
    let text = String::from_utf8(buf)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 head"))?;
    let mut lines = text.lines();
    let request_line =
        lines.next().ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty request"))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "missing method"))?
        .to_string();
    let target =
        parts.next().ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "missing target"))?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    Ok(Some(Head { method, path, query, headers }))
}

/// Reads exactly `len` body bytes (the caller validated `len` against its
/// size cap first).
pub fn read_body(stream: &mut TcpStream, len: usize) -> io::Result<Vec<u8>> {
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body)?;
    Ok(body)
}

/// Best-effort bounded discard of an unread request body before an early
/// error response. Closing a socket with unread data makes the kernel send
/// RST, which can destroy the queued response before the client reads it;
/// draining (up to a bound — huge bodies still get cut off) lets the error
/// arrive. Read errors and timeouts just end the drain.
pub fn drain(stream: &mut TcpStream, len: usize) {
    const MAX_DRAIN: usize = 256 * 1024;
    let mut remaining = len.min(MAX_DRAIN);
    let mut buf = [0u8; 8192];
    while remaining > 0 {
        let take = remaining.min(buf.len());
        match stream.read(&mut buf[..take]) {
            Ok(0) | Err(_) => break,
            Ok(n) => remaining -= n,
        }
    }
}

/// Writes the `100 Continue` interim response a client asked for with
/// `Expect: 100-continue` (curl sends it for bodies over ~1 KiB and stalls
/// up to a second waiting otherwise).
pub fn write_continue(stream: &mut TcpStream) -> io::Result<()> {
    stream.write_all(b"HTTP/1.1 100 Continue\r\n\r\n")?;
    stream.flush()
}

/// Percent-decodes a URL component; `plus_as_space` additionally maps `+`
/// to space (form encoding). Invalid escapes pass through literally rather
/// than failing the request.
pub fn percent_decode(s: &str, plus_as_space: bool) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3).and_then(|h| {
                    std::str::from_utf8(h).ok().and_then(|h| u8::from_str_radix(h, 16).ok())
                });
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' if plus_as_space => {
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

/// Splits a query string / form body into decoded key-value pairs.
pub fn parse_form(s: &str) -> Vec<(String, String)> {
    s.split('&')
        .filter(|p| !p.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k, true), percent_decode(v, true)),
            None => (percent_decode(pair, true), String::new()),
        })
        .collect()
}

/// Writes a response head announcing a body of exactly `content_length`
/// bytes, which the caller then sends. `extra_headers` are emitted verbatim
/// (e.g. `("Retry-After", "1")`).
pub fn write_head(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    content_length: u64,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {content_length}\r\nConnection: close\r\n"
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())
}

/// Writes one response whose body is already in memory, and flushes.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<()> {
    write_head(stream, status, reason, content_type, extra_headers, body.len() as u64)?;
    stream.write_all(body)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a%20b%2Bc", false), "a b+c");
        assert_eq!(percent_decode("a+b", true), "a b");
        assert_eq!(percent_decode("a+b", false), "a+b");
        // Invalid escapes pass through.
        assert_eq!(percent_decode("100%", false), "100%");
        assert_eq!(percent_decode("%zz", false), "%zz");
        // Multi-byte UTF-8 sequences reassemble.
        assert_eq!(percent_decode("caf%C3%A9", false), "caf\u{e9}");
    }

    #[test]
    fn form_parsing() {
        let form = parse_form("query=SELECT+%3Fx&timeout=100&flag");
        assert_eq!(
            form,
            vec![
                ("query".to_string(), "SELECT ?x".to_string()),
                ("timeout".to_string(), "100".to_string()),
                ("flag".to_string(), String::new()),
            ]
        );
        assert!(parse_form("").is_empty());
    }
}
