//! A minimal HTTP/1.1 client for keep-alive connections with
//! pipelining. Only what the daemon emits is understood: a status line,
//! headers with `Content-Length`, a body.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One answered request.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The body, decoded as UTF-8 (lossy).
    pub body: String,
}

/// One keep-alive connection with its unparsed input.
#[derive(Debug)]
pub struct Conn {
    /// The socket.
    pub stream: TcpStream,
    /// Bytes read but not yet parsed into a response.
    pub input: Vec<u8>,
}

fn invalid(what: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string())
}

impl Conn {
    /// Connects to `addr` with Nagle off.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(20)))?;
        Ok(Conn { stream, input: Vec::new() })
    }

    /// Issues one GET and blocks until its response is complete.
    pub fn get(&mut self, path: &str) -> std::io::Result<Response> {
        self.stream.write_all(&request(path))?;
        loop {
            if let Some(response) = self.take_response()? {
                return Ok(response);
            }
            if self.fill()? == 0 {
                return Err(invalid("connection closed"));
            }
        }
    }

    /// Reads what the socket has into the input buffer; returns the
    /// byte count (0 at end of stream).
    pub fn fill(&mut self) -> std::io::Result<usize> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        self.input.extend_from_slice(&chunk[..n]);
        Ok(n)
    }

    /// Removes and returns the first complete response in the input
    /// buffer, if there is one.
    pub fn take_response(&mut self) -> std::io::Result<Option<Response>> {
        let Some((response, consumed)) = parse_response(&self.input)? else {
            return Ok(None);
        };
        self.input.drain(..consumed);
        Ok(Some(response))
    }
}

/// The bytes of one GET request for `path`.
#[must_use]
pub fn request(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n").into_bytes()
}

/// Parses the first response in `buf`: `None` while it is incomplete,
/// else the response and the bytes it spans.
pub fn parse_response(buf: &[u8]) -> std::io::Result<Option<(Response, usize)>> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| invalid("head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|line| line.split(' ').nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| invalid("bad status line"))?;
    let mut length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse().map_err(|_| invalid("bad content-length"))?;
            }
        }
    }
    let end = head_end + 4 + length;
    if buf.len() < end {
        return Ok(None);
    }
    let body = String::from_utf8_lossy(&buf[head_end + 4..end]).into_owned();
    Ok(Some((Response { status, body }, end)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pipelined_responses_in_order() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhiHTTP/1.1 404 Not Found\r\n\
                    Content-Type: text/plain\r\nContent-Length: 0\r\n\r\nHTTP/1.1 200 OK\r\n";
        let (first, used) = parse_response(raw).expect("parse").expect("complete");
        assert_eq!((first.status, first.body.as_str()), (200, "hi"));
        let (second, more) = parse_response(&raw[used..]).expect("parse").expect("complete");
        assert_eq!((second.status, second.body.as_str()), (404, ""));
        assert!(parse_response(&raw[used + more..]).expect("parse").is_none());
        assert!(parse_response(b"HTTP/1.1 2x0 OK\r\n\r\n").is_err());
    }
}
