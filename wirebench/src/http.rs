//! A keep-alive HTTP/1.1 client that frames requests the way a flag-less
//! curl does, so the benchmark measures what a stock client gets.

use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Bodies larger than this go out as curl sends them: the headers carry
/// `Expect: 100-continue`, and the body follows a `100 Continue` or, failing
/// that, one second of silence.
pub const EXPECT_THRESHOLD: usize = 1 << 20;
const EXPECT_WAIT: Duration = Duration::from_secs(1);
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// One answered request with its client-side span.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
    /// The server's trace id (`X-S2g-Trace`), when it sent one.
    pub trace: Option<String>,
    /// When the first request byte was written.
    pub sent: Instant,
    /// When the first byte of the final response arrived.
    pub first_byte: Instant,
    /// When the last byte of the response arrived.
    pub done: Instant,
}

impl Reply {
    pub fn wall_ms(&self) -> f64 {
        ms(self.done - self.sent)
    }

    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

struct Head {
    status: u16,
    content_length: usize,
    close: bool,
    trace: Option<String>,
}

/// One persistent connection; reconnects after the server closes it.
pub struct Conn {
    addr: String,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

impl Conn {
    pub fn new(addr: &str) -> Conn {
        Conn {
            addr: addr.to_string(),
            stream: None,
            buf: Vec::new(),
        }
    }

    pub fn get(&mut self, path: &str) -> io::Result<Reply> {
        self.request("GET", path, b"")
    }

    /// Sends one request and reads its response. Any transport error drops
    /// the socket, so the next request starts on a fresh connection.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Reply> {
        let sent = Instant::now();
        let result = self.exchange(method, path, body, sent);
        if result.is_err() {
            self.stream = None;
            self.buf.clear();
        }
        result
    }

    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        sent: Instant,
    ) -> io::Result<Reply> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(&self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(READ_TIMEOUT))?;
            self.stream = Some(stream);
            self.buf.clear();
        }
        let expect = body.len() > EXPECT_THRESHOLD;
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nUser-Agent: s2g-wirebench\r\nAccept: */*\r\n",
            self.addr
        );
        if method != "GET" {
            head.push_str(&format!("Content-Length: {}\r\n", body.len()));
        }
        if expect {
            head.push_str("Expect: 100-continue\r\n");
        }
        head.push_str("\r\n");
        self.stream()?.write_all(head.as_bytes())?;

        let mut early = None;
        if expect {
            self.stream()?.set_read_timeout(Some(EXPECT_WAIT))?;
            let waited = self.read_head();
            self.stream()?.set_read_timeout(Some(READ_TIMEOUT))?;
            match waited {
                Ok((head, _)) if head.status == 100 => {}
                // A final answer before the body: the server refused it.
                Ok(final_head) => early = Some(final_head),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(e) => return Err(e),
            }
        }
        if early.is_none() && !body.is_empty() {
            self.stream()?.write_all(body)?;
        }
        let refused = early.is_some();
        let (head, first_byte) = match early {
            Some(found) => found,
            None => loop {
                let found = self.read_head()?;
                if found.0.status != 100 {
                    break found;
                }
            },
        };
        while self.buf.len() < head.content_length {
            self.fill()?;
        }
        let body: Vec<u8> = self.buf.drain(..head.content_length).collect();
        let done = Instant::now();
        if head.close || refused {
            self.stream = None;
            self.buf.clear();
        }
        Ok(Reply {
            status: head.status,
            body,
            trace: head.trace,
            sent,
            first_byte,
            done,
        })
    }

    fn stream(&mut self) -> io::Result<&mut TcpStream> {
        self.stream
            .as_mut()
            .ok_or_else(|| io::Error::new(ErrorKind::NotConnected, "connection closed"))
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 64 * 1024];
        let n = self.stream()?.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    /// Reads one response head (status line and headers), consuming it from
    /// the buffer; also returns when its first byte arrived.
    fn read_head(&mut self) -> io::Result<(Head, Instant)> {
        let mut first_byte = (!self.buf.is_empty()).then(Instant::now);
        let end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            self.fill()?;
            first_byte.get_or_insert_with(Instant::now);
        };
        let text = String::from_utf8_lossy(&self.buf[..end]).into_owned();
        self.buf.drain(..end + 4);
        let bad = |what: &str| io::Error::new(ErrorKind::InvalidData, format!("{what}: {text:?}"));
        let mut lines = text.split("\r\n");
        let status = lines
            .next()
            .and_then(|line| line.split(' ').nth(1))
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut head = Head {
            status,
            content_length: 0,
            close: false,
            trace: None,
        };
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                return Err(bad("bad header"));
            };
            let value = value.trim();
            match name.trim().to_ascii_lowercase().as_str() {
                "content-length" => {
                    head.content_length = value.parse().map_err(|_| bad("bad content-length"))?
                }
                "connection" => head.close = value.eq_ignore_ascii_case("close"),
                "x-s2g-trace" => head.trace = Some(value.to_string()),
                _ => {}
            }
        }
        Ok((head, first_byte.unwrap_or_else(Instant::now)))
    }
}
