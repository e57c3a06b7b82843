//! The load generator's HTTP client: one blocking exchange per connection
//! (the server answers `Connection: close`), with the response body hashed
//! as it streams in so a 146 MB result never sits in the client's memory and
//! `peak_rss_mb` stays the server's.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Bodies up to this size are also kept, for replies whose fields are read
/// (update acknowledgements, `/metrics`).
const KEEP_BODY_BYTES: usize = 64 * 1024;
const READ_CHUNK_BYTES: usize = 256 * 1024;
/// A reply that takes longer than this is a failed operation, not a wait.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// A streaming 64-bit hash of a byte sequence, independent of how the
/// sequence is split across [`update`](BodyHash::update) calls. Eight bytes
/// per multiply: about ten times faster than the bytewise `uo_wal::crc32`,
/// which matters when the verifier shares two cores with the server.
#[derive(Clone)]
pub struct BodyHash {
    state: u64,
    len: u64,
    carry: [u8; 8],
    carried: usize,
}

impl BodyHash {
    pub fn new() -> BodyHash {
        BodyHash { state: 0x9E37_79B9_7F4A_7C15, len: 0, carry: [0; 8], carried: 0 }
    }

    fn mix(&mut self, word: u64) {
        self.state = (self.state ^ word).wrapping_mul(0xFF51_AFD7_ED55_8CCD).rotate_left(31);
    }

    pub fn update(&mut self, mut data: &[u8]) {
        self.len += data.len() as u64;
        if self.carried > 0 {
            let take = (8 - self.carried).min(data.len());
            self.carry[self.carried..self.carried + take].copy_from_slice(&data[..take]);
            self.carried += take;
            data = &data[take..];
            if self.carried < 8 {
                return;
            }
            self.mix(u64::from_le_bytes(self.carry));
            self.carried = 0;
        }
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            self.mix(u64::from_le_bytes(w.try_into().expect("chunks_exact(8) yields 8 bytes")));
        }
        let rest = words.remainder();
        self.carry[..rest.len()].copy_from_slice(rest);
        self.carried = rest.len();
    }

    /// The digest: the final partial word and the length are folded in.
    pub fn finish(mut self) -> u64 {
        self.carry[self.carried..].fill(0);
        self.mix(u64::from_le_bytes(self.carry));
        self.mix(self.len);
        self.state ^ (self.state >> 29)
    }

    /// Digest of one in-memory buffer (how expected bodies are hashed).
    pub fn of(data: &[u8]) -> u64 {
        let mut h = BodyHash::new();
        h.update(data);
        h.finish()
    }
}

/// What came back from one exchange, and when.
pub struct Reply {
    pub status: u16,
    pub body_len: u64,
    pub body_hash: u64,
    /// The body itself when it is at most [`KEEP_BODY_BYTES`], else empty.
    pub body: Vec<u8>,
    pub started: Instant,
    pub connected: Instant,
    pub sent: Instant,
    pub first_byte: Instant,
    pub done: Instant,
    /// Time spent hashing the body (inside `first_byte..done`).
    pub hash_ns: u64,
}

/// The bytes of a `POST` carrying `body` as `content_type`.
pub fn post(path: &str, content_type: &str, accept: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: {content_type}\r\n\
         Accept: {accept}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The bytes of a bodiless `GET`.
pub fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: localhost\r\nAccept: application/json\r\n\r\n")
        .into_bytes()
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Connects, sends `request`, and reads the reply to its last byte.
/// `scratch` is the caller's reusable read buffer.
pub fn exchange(addr: SocketAddr, request: &[u8], scratch: &mut Vec<u8>) -> io::Result<Reply> {
    scratch.resize(READ_CHUNK_BYTES, 0);
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let connected = Instant::now();
    stream.write_all(request)?;
    let sent = Instant::now();

    // The head: read until the blank line.
    let mut filled = 0;
    let mut first_byte = None;
    let head_end = loop {
        if filled == scratch.len() {
            return Err(bad("response head larger than the read buffer"));
        }
        let n = stream.read(&mut scratch[filled..])?;
        if n == 0 {
            return Err(bad("connection closed inside the response head"));
        }
        first_byte.get_or_insert_with(Instant::now);
        let from = filled.saturating_sub(3);
        filled += n;
        if let Some(at) = scratch[from..filled].windows(4).position(|w| w == b"\r\n\r\n") {
            break from + at + 4;
        }
    };
    let head = std::str::from_utf8(&scratch[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let body_len: u64 = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length").then(|| value.trim().parse().ok())?
        })
        .ok_or_else(|| bad("missing Content-Length"))?;

    // The body: hashed chunk by chunk, kept only when small.
    let keep = body_len as usize <= KEEP_BODY_BYTES;
    let mut body = Vec::new();
    let mut hash = BodyHash::new();
    let mut hash_ns = 0u64;
    let mut received = 0u64;
    let mut chunk = (head_end, filled);
    loop {
        let bytes = &scratch[chunk.0..chunk.1];
        let t = Instant::now();
        hash.update(bytes);
        hash_ns += t.elapsed().as_nanos() as u64;
        if keep {
            body.extend_from_slice(bytes);
        }
        received += bytes.len() as u64;
        if received >= body_len {
            break;
        }
        let n = stream.read(scratch)?;
        if n == 0 {
            return Err(bad("connection closed inside the response body"));
        }
        chunk = (0, n);
    }
    if received != body_len {
        return Err(bad("body longer than its Content-Length"));
    }
    let done = Instant::now();
    Ok(Reply {
        status,
        body_len,
        body_hash: hash.finish(),
        body,
        started,
        connected,
        sent,
        first_byte: first_byte.expect("set by the first read"),
        done,
        hash_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_does_not_depend_on_chunking() {
        let data: Vec<u8> = (0..10_007u32).map(|i| (i * 31 % 251) as u8).collect();
        let whole = BodyHash::of(&data);
        for split in [1, 7, 8, 9, 64, 4096] {
            let mut h = BodyHash::new();
            for part in data.chunks(split) {
                h.update(part);
            }
            assert_eq!(h.finish(), whole, "chunks of {split}");
        }
    }

    #[test]
    fn hash_sees_content_length_and_order() {
        assert_ne!(BodyHash::of(b"abc"), BodyHash::of(b"abd"));
        assert_ne!(BodyHash::of(b"abc"), BodyHash::of(b"abc\0"));
        assert_ne!(BodyHash::of(b"12345678abcdefgh"), BodyHash::of(b"abcdefgh12345678"));
        assert_ne!(BodyHash::of(b""), BodyHash::of(b"\0"));
    }
}
