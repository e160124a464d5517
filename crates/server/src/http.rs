//! Minimal HTTP/1.1 subset: request parsing and response writing.
//!
//! The server speaks just enough HTTP to be driven by any stock HTTP client
//! (`curl` included) while staying dependency-free:
//!
//! * request line `METHOD SP /path[?query] SP HTTP/1.1`, CRLF line endings;
//! * headers until an empty line; `Content-Length`, `Connection`, `Expect`
//!   and `X-S2g-Deadline-Ms` are interpreted, the rest are skipped;
//! * `Expect: 100-continue` on an HTTP/1.1 request with a body is answered
//!   with an interim `100 Continue` before the body is read;
//! * bodies require an explicit `Content-Length` (no chunked encoding);
//! * connections are **persistent** by default for HTTP/1.1
//!   (`Connection: close` opts out) and close by default for HTTP/1.0
//!   (`Connection: keep-alive` opts in). Error responses (status ≥ 400)
//!   always close. The response's `Connection` header states what the
//!   server actually did.
//!
//! Hard limits protect the server from hostile or broken peers: an
//! over-long request line or header section is rejected with `400`, a body
//! larger than the configured cap with `413` — *before* the body is read
//! into memory. See `docs/PROTOCOL.md` for the full wire contract.

use std::io::{BufRead, Write};

/// Maximum accepted request-line length in bytes.
pub const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Maximum accepted size of one header line in bytes.
pub const MAX_HEADER_LINE: usize = 8 * 1024;
/// Maximum accepted number of headers.
pub const MAX_HEADERS: usize = 64;

/// The request methods the server understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `GET`
    Get,
    /// `PUT`
    Put,
    /// `POST`
    Post,
    /// `DELETE`
    Delete,
}

impl Method {
    fn from_token(token: &str) -> Option<Method> {
        match token {
            "GET" => Some(Method::Get),
            "PUT" => Some(Method::Put),
            "POST" => Some(Method::Post),
            "DELETE" => Some(Method::Delete),
            _ => None,
        }
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Method::Get => "GET",
            Method::Put => "PUT",
            Method::Post => "POST",
            Method::Delete => "DELETE",
        })
    }
}

/// A parsed request: method, path split into segments, query pairs, body.
#[derive(Debug)]
pub struct Request {
    /// The request method.
    pub method: Method,
    /// The raw path as sent (before the `?`), e.g. `/models/turbine`.
    pub path: String,
    /// Path split on `/` with empty segments dropped,
    /// e.g. `["models", "turbine"]`.
    pub segments: Vec<String>,
    /// `key=value` pairs from the query string, in order.
    pub query: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the peer asked to keep the connection open after the
    /// response: HTTP/1.1 unless `Connection: close`, HTTP/1.0 only with
    /// `Connection: keep-alive`.
    pub keep_alive: bool,
    /// Request deadline budget from the `X-S2g-Deadline-Ms` header, in
    /// milliseconds from arrival. Work still queued when the budget runs
    /// out is answered `503 deadline_exceeded` without executing.
    pub deadline_ms: Option<u64>,
}

impl Request {
    /// First value of a query parameter, if present.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text.
    ///
    /// # Errors
    /// [`ParseError::Malformed`] when the body is not valid UTF-8.
    pub fn body_text(&self) -> Result<&str, ParseError> {
        std::str::from_utf8(&self.body)
            .map_err(|_| ParseError::Malformed("request body is not valid UTF-8"))
    }
}

/// Why a request could not be parsed.
#[derive(Debug, PartialEq, Eq)]
pub enum ParseError {
    /// The peer closed the connection before sending a request line.
    /// Not an error worth responding to (e.g. a health probe connecting
    /// and hanging up); the connection is simply dropped.
    ConnectionClosed,
    /// The request violates the accepted HTTP subset; the message says how.
    Malformed(&'static str),
    /// The method token is not one of GET/PUT/POST/DELETE.
    UnknownMethod,
    /// The declared `Content-Length` exceeds the configured cap.
    BodyTooLarge {
        /// Declared body size in bytes.
        declared: usize,
        /// Configured maximum body size in bytes.
        limit: usize,
    },
    /// The underlying socket failed mid-request.
    Io(std::io::ErrorKind),
}

/// Reads and parses one request from a buffered stream.
///
/// The reader is taken as [`BufRead`] (not wrapped internally) so that a
/// **persistent connection can keep one buffer across requests**: any
/// bytes of a pipelined next request that read-ahead pulls in survive in
/// the caller's `BufReader` instead of being dropped with a throwaway one,
/// which would desynchronise the connection.
///
/// The head and the body are read in two steps. Between them, a request
/// that carries `Expect: 100-continue` and a non-empty body gets the
/// interim `HTTP/1.1 100 Continue` written to `interim` (the socket), so a
/// client that waits for it before sending the body — curl does for bodies
/// over 1 MiB — sends it at once. HTTP/1.0 requests never get a `100`.
///
/// `max_body_bytes` caps the accepted `Content-Length`; a larger declared
/// body is rejected as [`ParseError::BodyTooLarge`] without reading it and
/// without a `100 Continue`.
///
/// # Example
///
/// ```
/// use s2g_server::http::{read_request, Method};
///
/// let raw: &[u8] = b"PUT /models/pump-7?pattern_length=50 HTTP/1.1\r\n\
///                    Content-Length: 4\r\n\r\n1\n2\n";
/// let request = read_request(raw, std::io::sink(), 1024).unwrap();
/// assert_eq!(request.method, Method::Put);
/// assert_eq!(request.segments, vec!["models", "pump-7"]);
/// assert_eq!(request.query_param("pattern_length"), Some("50"));
/// assert_eq!(request.body_text().unwrap(), "1\n2\n");
/// ```
///
/// # Errors
/// [`ParseError`] describing the first violation encountered.
pub fn read_request<R: BufRead, W: Write>(
    mut reader: R,
    mut interim: W,
    max_body_bytes: usize,
) -> Result<Request, ParseError> {
    let head = read_head(&mut reader)?;
    if head.content_length > max_body_bytes {
        return Err(ParseError::BodyTooLarge {
            declared: head.content_length,
            limit: max_body_bytes,
        });
    }
    if head.expect_continue && head.http11 && head.content_length > 0 {
        interim
            .write_all(b"HTTP/1.1 100 Continue\r\n\r\n")
            .and_then(|()| interim.flush())
            .map_err(|e| ParseError::Io(e.kind()))?;
    }
    let mut body = vec![0u8; head.content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| ParseError::Io(e.kind()))?;
    Ok(build_request(head, body))
}

/// Everything of a request before its body.
struct RequestHead {
    method: Method,
    target: String,
    http11: bool,
    content_length: usize,
    keep_alive: bool,
    deadline_ms: Option<u64>,
    /// The request carries `Expect: 100-continue`.
    expect_continue: bool,
}

/// Reads the request line and the headers, up to and including the blank
/// line that ends them.
fn read_head<R: BufRead>(reader: &mut R) -> Result<RequestHead, ParseError> {
    let request_line = read_crlf_line(reader, MAX_REQUEST_LINE)?;
    if request_line.is_empty() {
        return Err(ParseError::ConnectionClosed);
    }
    let mut parts = request_line.split(' ');
    let (Some(method_token), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(ParseError::Malformed(
            "request line must be `METHOD SP TARGET SP VERSION`",
        ));
    };
    let method = Method::from_token(method_token).ok_or(ParseError::UnknownMethod)?;
    if !matches!(version, "HTTP/1.1" | "HTTP/1.0") {
        return Err(ParseError::Malformed("unsupported HTTP version"));
    }
    if !target.starts_with('/') {
        return Err(ParseError::Malformed("request target must start with '/'"));
    }

    // Headers: Content-Length, Connection, Expect and X-S2g-Deadline-Ms
    // are interpreted, the rest are skipped. Persistence defaults follow
    // the HTTP version: 1.1 keeps the connection unless told otherwise, 1.0
    // closes unless told otherwise.
    let http11 = version == "HTTP/1.1";
    let mut head = RequestHead {
        method,
        target: target.to_string(),
        http11,
        content_length: 0,
        keep_alive: http11,
        deadline_ms: None,
        expect_continue: false,
    };
    for _ in 0..MAX_HEADERS {
        let line = read_crlf_line(reader, MAX_HEADER_LINE)?;
        if line.is_empty() {
            return Ok(head);
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ParseError::Malformed("header line without ':'"));
        };
        let name = name.trim();
        if name.eq_ignore_ascii_case("content-length") {
            head.content_length = value
                .trim()
                .parse()
                .map_err(|_| ParseError::Malformed("unparseable Content-Length"))?;
        } else if name.eq_ignore_ascii_case("x-s2g-deadline-ms") {
            head.deadline_ms = Some(
                value
                    .trim()
                    .parse()
                    .map_err(|_| ParseError::Malformed("unparseable X-S2g-Deadline-Ms"))?,
            );
        } else if name.eq_ignore_ascii_case("expect") {
            head.expect_continue = value.trim().eq_ignore_ascii_case("100-continue");
        } else if name.eq_ignore_ascii_case("connection") {
            // Token list; the tokens we honor are `close` and `keep-alive`.
            for token in value.split(',') {
                let token = token.trim();
                if token.eq_ignore_ascii_case("close") {
                    head.keep_alive = false;
                } else if token.eq_ignore_ascii_case("keep-alive") {
                    head.keep_alive = true;
                }
            }
        }
    }
    Err(ParseError::Malformed("too many headers"))
}

fn build_request(head: RequestHead, body: Vec<u8>) -> Request {
    let target = head.target.as_str();
    let (path, query_text) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let segments = path
        .split('/')
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    let query = query_text
        .split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (pair.to_string(), String::new()),
        })
        .collect();
    Request {
        method: head.method,
        path: path.to_string(),
        segments,
        query,
        body,
        keep_alive: head.keep_alive,
        deadline_ms: head.deadline_ms,
    }
}

/// Reads one CRLF-terminated line (the CRLF is stripped; a bare LF is
/// tolerated). Returns an empty string for a blank line *or* a cleanly
/// closed stream — callers distinguish via context.
fn read_crlf_line<R: BufRead>(reader: &mut R, max_len: usize) -> Result<String, ParseError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => break, // EOF
            Ok(_) => {
                if byte[0] == b'\n' {
                    break;
                }
                line.push(byte[0]);
                if line.len() > max_len {
                    return Err(ParseError::Malformed("line too long"));
                }
            }
            Err(e) => return Err(ParseError::Io(e.kind())),
        }
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| ParseError::Malformed("non-UTF-8 header bytes"))
}

/// An HTTP response about to be written: status code plus a body — NDJSON
/// lines for the API endpoints, plain text for `/metrics`.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code (200, 400, 404, …).
    pub status: u16,
    /// Body lines; each is one JSON document (or one plain-text line),
    /// joined with `\n`.
    pub lines: Vec<String>,
    /// The `Content-Type` header value.
    pub content_type: &'static str,
    /// When set, emitted as an `X-S2g-Trace` response header — the id to
    /// feed `GET /debug/trace/{id}` for the request's span tree.
    pub trace_id: Option<String>,
    /// When set, emitted as a `Retry-After: <seconds>` response header —
    /// load-shed responses (`429`) tell the client when to come back.
    pub retry_after: Option<u64>,
}

/// Content type of the NDJSON API responses.
pub const CONTENT_TYPE_NDJSON: &str = "application/x-ndjson";
/// Content type of plain-text responses (`/metrics`).
pub const CONTENT_TYPE_TEXT: &str = "text/plain; charset=utf-8";

impl Response {
    /// A `200 OK` response with the given NDJSON lines.
    pub fn ok(lines: Vec<String>) -> Response {
        Response {
            status: 200,
            lines,
            content_type: CONTENT_TYPE_NDJSON,
            trace_id: None,
            retry_after: None,
        }
    }

    /// A `200 OK` plain-text response (one string per line).
    pub fn plain_text(lines: Vec<String>) -> Response {
        Response {
            status: 200,
            lines,
            content_type: CONTENT_TYPE_TEXT,
            trace_id: None,
            retry_after: None,
        }
    }

    /// The canonical reason phrase for the status codes the server emits.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            429 => "Too Many Requests",
            413 => "Payload Too Large",
            422 => "Unprocessable Entity",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Serializes the response head + body with `Connection: close`
    /// (the non-persistent form; see [`Response::write_to_conn`]).
    ///
    /// # Errors
    /// Propagates socket write failures.
    pub fn write_to<W: Write>(&self, w: W) -> std::io::Result<()> {
        self.write_to_conn(w, false)
    }

    /// Serializes the response head + body, advertising in the
    /// `Connection` header whether the server keeps the connection open
    /// (`keep_alive`) for the next request on the same socket.
    ///
    /// # Errors
    /// Propagates socket write failures.
    pub fn write_to_conn<W: Write>(&self, mut w: W, keep_alive: bool) -> std::io::Result<()> {
        // The body is the lines joined by `\n` plus a final `\n`; an
        // empty join is an empty body.
        let joined =
            self.lines.iter().map(String::len).sum::<usize>() + self.lines.len().saturating_sub(1);
        let body_len = if joined == 0 { 0 } else { joined + 1 };
        let connection = if keep_alive { "keep-alive" } else { "close" };
        // Head and body go out in a single write: on a persistent
        // connection a trailing small segment would otherwise sit in the
        // kernel behind Nagle's algorithm until the peer's delayed ACK
        // (tens of milliseconds) — the old close-per-request design never
        // noticed because the FIN flushed it. The buffer is sized once.
        let mut wire = Vec::with_capacity(256 + body_len);
        write!(
            wire,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
            self.status,
            self.reason(),
            self.content_type,
            body_len,
        )?;
        if let Some(id) = &self.trace_id {
            write!(wire, "X-S2g-Trace: {id}\r\n")?;
        }
        if let Some(secs) = self.retry_after {
            write!(wire, "Retry-After: {secs}\r\n")?;
        }
        wire.extend_from_slice(b"\r\n");
        if body_len > 0 {
            for (i, line) in self.lines.iter().enumerate() {
                if i > 0 {
                    wire.push(b'\n');
                }
                wire.extend_from_slice(line.as_bytes());
            }
            wire.push(b'\n');
        }
        w.write_all(&wire)?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &[u8]) -> Result<Request, ParseError> {
        read_request(raw, std::io::sink(), 1024)
    }

    /// Parses `raw` and returns what the parser wrote back before the body.
    fn interim(raw: &[u8]) -> (Result<Request, ParseError>, String) {
        let mut written = Vec::new();
        let parsed = read_request(raw, &mut written, 1024);
        (parsed, String::from_utf8(written).unwrap())
    }

    #[test]
    fn answers_expect_continue_only_when_a_body_will_be_read() {
        const CONTINUE: &str = "HTTP/1.1 100 Continue\r\n\r\n";
        let (req, sent) =
            interim(b"PUT /m HTTP/1.1\r\nExpect: 100-Continue\r\nContent-Length: 2\r\n\r\nab");
        assert_eq!(req.unwrap().body, b"ab");
        assert_eq!(sent, CONTINUE);
        // No body, HTTP/1.0, another expectation, or no Expect at all: no 100.
        for raw in [
            &b"PUT /m HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 0\r\n\r\n"[..],
            b"PUT /m HTTP/1.0\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\nab",
            b"PUT /m HTTP/1.1\r\nExpect: something-else\r\nContent-Length: 2\r\n\r\nab",
            b"PUT /m HTTP/1.1\r\nContent-Length: 2\r\n\r\nab",
        ] {
            let (req, sent) = interim(raw);
            assert!(req.is_ok());
            assert_eq!(sent, "", "{}", String::from_utf8_lossy(raw));
        }
        // An oversized body is refused before any 100 goes out.
        let (req, sent) =
            interim(b"PUT /m HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 2048\r\n\r\n");
        assert!(matches!(req, Err(ParseError::BodyTooLarge { .. })));
        assert_eq!(sent, "");
    }

    #[test]
    fn parses_full_request() {
        let raw = b"POST /models/m-1/score?query_length=150&top_k=3 HTTP/1.1\r\nHost: x\r\nContent-Length: 8\r\n\r\n1\n2\n3.5\n";
        let req = parse(raw).unwrap();
        assert_eq!(req.method, Method::Post);
        assert_eq!(req.path, "/models/m-1/score");
        assert_eq!(req.segments, vec!["models", "m-1", "score"]);
        assert_eq!(req.query_param("query_length"), Some("150"));
        assert_eq!(req.query_param("top_k"), Some("3"));
        assert_eq!(req.query_param("missing"), None);
        assert_eq!(req.body_text().unwrap(), "1\n2\n3.5\n");
    }

    #[test]
    fn parses_bodyless_get() {
        let req = parse(b"GET /models HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, Method::Get);
        assert!(req.body.is_empty());
        assert!(req.query.is_empty());
    }

    #[test]
    fn connection_persistence_follows_version_and_header() {
        // HTTP/1.1 defaults to keep-alive…
        assert!(parse(b"GET /models HTTP/1.1\r\n\r\n").unwrap().keep_alive);
        // …unless the peer opts out.
        assert!(
            !parse(b"GET /models HTTP/1.1\r\nConnection: close\r\n\r\n")
                .unwrap()
                .keep_alive
        );
        // HTTP/1.0 defaults to close…
        assert!(!parse(b"GET /models HTTP/1.0\r\n\r\n").unwrap().keep_alive);
        // …unless the peer opts in (any case, token lists allowed).
        assert!(
            parse(b"GET /models HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n")
                .unwrap()
                .keep_alive
        );
        assert!(
            !parse(b"GET /models HTTP/1.1\r\nConnection: foo, CLOSE\r\n\r\n")
                .unwrap()
                .keep_alive
        );
    }

    #[test]
    fn response_advertises_keep_alive() {
        let mut out = Vec::new();
        Response::ok(vec!["{}".to_string()])
            .write_to_conn(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"));
    }

    #[test]
    fn rejects_malformed_request_lines() {
        assert!(matches!(
            parse(b"GARBAGE\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(parse(b""), Err(ParseError::ConnectionClosed)));
        assert!(matches!(
            parse(b"BREW /models HTTP/1.1\r\n\r\n"),
            Err(ParseError::UnknownMethod)
        ));
        assert!(matches!(
            parse(b"GET /models HTTP/0.9\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"GET models HTTP/1.1\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"GET /a b /c HTTP/1.1\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_oversized_bodies_by_declared_length() {
        let raw = b"PUT /models/big HTTP/1.1\r\nContent-Length: 2048\r\n\r\n";
        assert!(matches!(
            parse(raw),
            Err(ParseError::BodyTooLarge {
                declared: 2048,
                limit: 1024
            })
        ));
    }

    #[test]
    fn rejects_bad_content_length_and_truncated_bodies() {
        assert!(matches!(
            parse(b"PUT /m HTTP/1.1\r\nContent-Length: abc\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"PUT /m HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"),
            Err(ParseError::Io(_))
        ));
    }

    #[test]
    fn response_wire_format() {
        let mut out = Vec::new();
        Response::ok(vec!["{\"a\":1}".to_string()])
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 8\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"a\":1}\n"));
    }

    #[test]
    fn response_body_is_the_joined_lines_and_a_final_newline() {
        for lines in [
            vec![],
            vec![""],
            vec!["", ""],
            vec!["", "x"],
            vec!["a", "bc", ""],
        ] {
            let lines: Vec<String> = lines.into_iter().map(String::from).collect();
            let joined = lines.join("\n");
            let body = if joined.is_empty() {
                joined
            } else {
                joined + "\n"
            };
            let mut response = Response::ok(lines.clone());
            response.trace_id = Some("00ab".to_string());
            response.retry_after = Some(2);
            let mut out = Vec::new();
            response.write_to_conn(&mut out, true).unwrap();
            let text = String::from_utf8(out).unwrap();
            let head = format!(
                "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nContent-Length: {}\r\n\
                 Connection: keep-alive\r\nX-S2g-Trace: 00ab\r\nRetry-After: 2\r\n\r\n",
                body.len()
            );
            assert_eq!(text, head + &body, "{lines:?}");
        }
    }
}
