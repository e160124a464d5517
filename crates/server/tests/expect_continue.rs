//! `Expect: 100-continue` on the wire: the interim `100 Continue` goes out
//! before the client sends the body, an oversized body is refused without
//! it, HTTP/1.0 never gets it, and the connection stays usable afterwards.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

use s2g_server::{Server, ServerConfig, ShutdownHandle};

const CONTINUE: &[u8] = b"HTTP/1.1 100 Continue\r\n\r\n";

fn start_server(config: ServerConfig) -> (String, ShutdownHandle, thread::JoinHandle<()>) {
    let server = Server::bind(config.with_addr("127.0.0.1:0")).unwrap();
    let addr = server.local_addr().to_string();
    let handle = server.shutdown_handle();
    let thread = thread::spawn(move || server.run().unwrap());
    (addr, handle, thread)
}

fn connect(addr: &str) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
}

fn sine_csv(n: usize) -> String {
    (0..n)
        .map(|i| format!("{}\n", (std::f64::consts::TAU * i as f64 / 80.0).sin()))
        .collect()
}

/// Reads exactly `len` bytes off the socket.
fn read_bytes(stream: &mut TcpStream, len: usize) -> Vec<u8> {
    let mut buf = vec![0u8; len];
    stream.read_exact(&mut buf).unwrap();
    buf
}

/// Reads exactly one `Content-Length`-framed response off a raw socket.
fn read_one_response(stream: &mut TcpStream) -> String {
    let mut raw = Vec::new();
    let mut byte = [0u8; 1];
    while !raw.ends_with(b"\r\n\r\n") {
        assert_eq!(stream.read(&mut byte).unwrap(), 1, "EOF inside head");
        raw.push(byte[0]);
    }
    let head = String::from_utf8(raw.clone()).unwrap();
    let content_length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .unwrap()
        .trim()
        .parse()
        .unwrap();
    raw.extend(read_bytes(stream, content_length));
    String::from_utf8(raw).unwrap()
}

fn checksum(response: &str) -> &str {
    let start = response
        .find("\"checksum\":\"")
        .expect("fit answer has a checksum")
        + 12;
    &response[start..start + 18]
}

#[test]
fn continue_precedes_the_body_and_the_fit_matches_a_plain_fit() {
    let (addr, handle, server_thread) = start_server(ServerConfig::default());
    let body = sine_csv(3_000);
    let mut stream = connect(&addr);

    // Head only: the server must answer `100 Continue` before any body
    // byte exists on the wire.
    write!(
        stream,
        "PUT /models/expect?pattern_length=50 HTTP/1.1\r\nHost: t\r\n\
         Expect: 100-continue\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .unwrap();
    assert_eq!(read_bytes(&mut stream, CONTINUE.len()), CONTINUE);
    stream.write_all(body.as_bytes()).unwrap();
    let with_expect = read_one_response(&mut stream);
    assert!(with_expect.starts_with("HTTP/1.1 200 OK"), "{with_expect}");
    assert!(with_expect.contains("Connection: keep-alive\r\n"));

    // The same fit without `Expect`, on the same kept-alive socket.
    write!(
        stream,
        "PUT /models/plain?pattern_length=50 HTTP/1.1\r\nHost: t\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let plain = read_one_response(&mut stream);
    assert!(plain.starts_with("HTTP/1.1 200 OK"), "{plain}");
    assert_eq!(checksum(&with_expect), checksum(&plain));

    handle.shutdown();
    server_thread.join().unwrap();
}

#[test]
fn oversized_body_with_expect_gets_413_without_continue_and_closes() {
    let (addr, handle, server_thread) =
        start_server(ServerConfig::default().with_max_body_bytes(1024));
    let mut stream = connect(&addr);
    stream
        .write_all(
            b"PUT /models/big?pattern_length=50 HTTP/1.1\r\nHost: t\r\n\
              Expect: 100-continue\r\nContent-Length: 4096\r\n\r\n",
        )
        .unwrap();
    let response = read_one_response(&mut stream);
    assert!(
        response.starts_with("HTTP/1.1 413 Payload Too Large\r\n"),
        "{response}"
    );
    assert!(response.contains("Connection: close\r\n"));
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "server should close after the 413");

    handle.shutdown();
    server_thread.join().unwrap();
}

#[test]
fn http_1_0_with_expect_gets_no_continue() {
    let (addr, handle, server_thread) = start_server(ServerConfig::default());
    let body = sine_csv(1_000);
    let mut stream = connect(&addr);
    write!(
        stream,
        "PUT /models/old?pattern_length=50 HTTP/1.0\r\nHost: t\r\n\
         Expect: 100-continue\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    // The first bytes back are the final answer, not an interim 100.
    let response = read_one_response(&mut stream);
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    assert!(response.contains("Connection: close\r\n"));

    handle.shutdown();
    server_thread.join().unwrap();
}
