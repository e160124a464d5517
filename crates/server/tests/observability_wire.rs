//! Acceptance tests for the observability surface added by s2g-obs:
//! `/metrics` latency histograms, `/metrics/json`, the `X-S2g-Trace`
//! response header, `/debug/trace/{id}` span trees, and `/debug/slow`
//! retention — plus the guarantee that scraping (`/healthz`, `/metrics`)
//! lands in the *internal* family and never skews serving latency.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::thread;

use s2g_server::{Client, Json, Server, ServerConfig, ShutdownHandle};

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("s2g_obs_wire_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn start(config: ServerConfig) -> (String, ShutdownHandle, thread::JoinHandle<()>) {
    let server = Server::bind(config.with_addr("127.0.0.1:0")).unwrap();
    let addr = server.local_addr().to_string();
    let handle = server.shutdown_handle();
    let thread = thread::spawn(move || server.run().unwrap());
    (addr, handle, thread)
}

fn sine_csv(n: usize, period: f64) -> String {
    (0..n)
        .map(|i| format!("{}\n", (std::f64::consts::TAU * i as f64 / period).sin()))
        .collect()
}

/// Sends one raw HTTP/1.1 request and returns `(head, body)` so tests can
/// see response *headers* — the typed [`Client`] only exposes bodies.
fn raw_request(addr: &str, method: &str, target: &str, body: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    let wire = format!(
        "{method} {target} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(wire.as_bytes()).unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).unwrap();
    let response = String::from_utf8(response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").unwrap();
    (head.to_string(), body.to_string())
}

/// The value of `header` in a raw response head, if present.
fn header_value(head: &str, header: &str) -> Option<String> {
    head.lines().find_map(|line| {
        let (name, value) = line.split_once(':')?;
        name.eq_ignore_ascii_case(header)
            .then(|| value.trim().to_string())
    })
}

#[test]
fn metrics_expose_latency_histograms_and_pool_gauges() {
    let (addr, handle, server_thread) = start(ServerConfig::default());
    let client = Client::new(addr);
    client
        .fit_model("obs", "pattern_length=40", &sine_csv(2000, 80.0))
        .unwrap();
    let probe: Vec<f64> = (0..600)
        .map(|i| (std::f64::consts::TAU * i as f64 / 70.0).sin())
        .collect();
    client.score("obs", 120, &[probe]).unwrap();

    let text = client.metrics().unwrap().join("\n");
    // Per-route request histogram: quantiles, count/sum/max, and a
    // cumulative bucket series ending in le="+Inf".
    for needle in [
        "s2g_request_duration_ns{route=\"PUT /models/{name}\",quantile=\"0.5\"}",
        "s2g_request_duration_ns{route=\"PUT /models/{name}\",quantile=\"0.95\"}",
        "s2g_request_duration_ns{route=\"PUT /models/{name}\",quantile=\"0.99\"}",
        "s2g_request_duration_ns_count{route=\"PUT /models/{name}\"} 1",
        "s2g_request_duration_ns_bucket{route=\"PUT /models/{name}\",le=\"+Inf\"} 1",
        "s2g_request_duration_ns_count{route=\"POST /models/{name}/score\"} 1",
        // Stage instruments recorded inside the pool workers.
        "s2g_fit_duration_ns_count 1",
        "s2g_score_duration_ns_count 1",
        "s2g_pool_queue_wait_ns_count",
        "s2g_pool_execute_ns_count",
        // New gauges.
        "s2g_accept_slots ",
        "s2g_pool_queue_depth{worker=\"0\"}",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }

    handle.shutdown();
    server_thread.join().unwrap();
}

#[test]
fn score_parse_and_encode_get_one_sample_per_score_request() {
    let (addr, handle, server_thread) = start(ServerConfig::default().with_sample_interval_ms(50));
    let client = Client::new(addr);
    client
        .fit_model("phases", "pattern_length=40", &sine_csv(2000, 80.0))
        .unwrap();
    let probe: Vec<f64> = (0..600)
        .map(|i| (std::f64::consts::TAU * i as f64 / 70.0).sin())
        .collect();
    // Three requests, one of them carrying two series: one sample each.
    client
        .score("phases", 120, std::slice::from_ref(&probe))
        .unwrap();
    client
        .score("phases", 120, &[probe.clone(), probe.clone()])
        .unwrap();
    client.score("phases", 120, &[probe]).unwrap();

    let text = client.metrics().unwrap().join("\n");
    for needle in [
        "s2g_score_parse_ns_count 3",
        "s2g_score_encode_ns_count 3",
        "s2g_score_duration_ns_count 4",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    let stages = client.metrics_json().unwrap();
    for name in ["s2g_score_parse_ns", "s2g_score_encode_ns"] {
        let stage = stages.get("stages").unwrap().get(name).unwrap();
        assert_eq!(stage.get("count").unwrap().as_usize(), Some(3), "{name}");
    }

    // The flight recorder retains both as stage series.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let history = client.metrics_history(0, 1).unwrap();
        let schema = history
            .get("schema")
            .and_then(|s| s.get("histograms"))
            .and_then(Json::as_array)
            .unwrap()
            .to_vec();
        let counts: Option<Vec<usize>> = ["s2g_score_parse_ns", "s2g_score_encode_ns"]
            .iter()
            .map(|name| {
                let index = schema.iter().position(|n| n.as_str() == Some(name))?;
                let last = history.get("series")?.as_array()?.last()?;
                last.get("histograms")?
                    .as_array()?
                    .get(index)?
                    .get("count")?
                    .as_usize()
            })
            .collect();
        if counts == Some(vec![3, 3]) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "history never showed both stages at 3: {counts:?}"
        );
        thread::sleep(std::time::Duration::from_millis(25));
    }

    handle.shutdown();
    server_thread.join().unwrap();
}

#[test]
fn scrape_routes_land_in_the_internal_family_only() {
    let (addr, handle, server_thread) = start(ServerConfig::default());
    let client = Client::new(addr);
    client.health().unwrap();
    client.metrics().unwrap();
    // Second scrape observes the first one's recording.
    let text = client.metrics().unwrap().join("\n");
    assert!(
        text.contains("s2g_internal_request_duration_ns{route=\"GET /healthz\""),
        "healthz must be recorded in the internal family:\n{text}"
    );
    assert!(
        text.contains("s2g_internal_request_duration_ns{route=\"GET /metrics\""),
        "metrics scrapes must be recorded in the internal family:\n{text}"
    );
    assert!(
        !text.contains("s2g_request_duration_ns{route=\"GET /healthz\""),
        "scrape traffic must not pollute the serving-latency family:\n{text}"
    );
    assert!(
        !text.contains("s2g_request_duration_ns{route=\"GET /metrics\""),
        "scrape traffic must not pollute the serving-latency family:\n{text}"
    );

    handle.shutdown();
    server_thread.join().unwrap();
}

/// Span names of a trace fetched through `/debug/trace/{id}`, plus the
/// structural checks every well-formed tree must satisfy: exactly one
/// root (named `request`) and no dangling parent ids.
fn span_names(trace: &Json) -> Vec<String> {
    let spans = trace.get("spans").unwrap().as_array().unwrap();
    let ids: Vec<usize> = spans
        .iter()
        .map(|s| s.get("id").unwrap().as_usize().unwrap())
        .collect();
    let mut roots = 0;
    for span in spans {
        match span.get("parent").unwrap() {
            Json::Null => roots += 1,
            parent => {
                let parent = parent.as_usize().unwrap();
                assert!(ids.contains(&parent), "dangling parent {parent}");
            }
        }
    }
    assert_eq!(roots, 1, "span tree must have exactly one root");
    let root = spans
        .iter()
        .find(|s| matches!(s.get("parent").unwrap(), Json::Null))
        .unwrap();
    assert_eq!(root.get("name").unwrap().as_str(), Some("request"));
    spans
        .iter()
        .map(|s| s.get("name").unwrap().as_str().unwrap().to_string())
        .collect()
}

#[test]
fn trace_header_leads_to_a_server_pool_store_span_tree() {
    let dir = test_dir("trace");
    let (addr, handle, server_thread) = start(ServerConfig::default().with_data_dir(&dir));

    // Raw fit request so the response *headers* are visible. A single fit
    // runs inline on the request thread (no pool dispatch), so its tree is
    // server middleware → engine fit → store save.
    let (head, _) = raw_request(
        &addr,
        "PUT",
        "/models/traced?pattern_length=40",
        &sine_csv(2000, 80.0),
    );
    assert!(head.starts_with("HTTP/1.1 200"), "fit failed: {head}");
    let trace_id = header_value(&head, "X-S2g-Trace").expect("response must carry X-S2g-Trace");
    assert_eq!(trace_id.len(), 16, "trace id is 16 hex digits: {trace_id}");

    let client = Client::new(addr.clone());
    let trace = client.trace(&trace_id).unwrap();
    assert_eq!(
        trace.get("route").unwrap().as_str(),
        Some("PUT /models/{name}")
    );
    assert_eq!(trace.get("status").unwrap().as_usize(), Some(200));
    let names = span_names(&trace);
    for name in ["request", "engine.fit", "store.save"] {
        assert!(
            names.iter().any(|n| n == name),
            "missing span {name:?} in {names:?}"
        );
    }
    handle.shutdown();
    server_thread.join().unwrap();

    // Restart on the same directory: scoring now faults the model in from
    // the store and dispatches to the pool, so one trace crosses all three
    // layers — server middleware → store load → pool worker.
    let (addr, handle, server_thread) = start(ServerConfig::default().with_data_dir(&dir));
    let probe: String = sine_csv(600, 70.0).replace('\n', ",");
    let (head, _) = raw_request(
        &addr,
        "POST",
        "/models/traced/score?query_length=120",
        probe.trim_end_matches(','),
    );
    assert!(head.starts_with("HTTP/1.1 200"), "score failed: {head}");
    let trace_id = header_value(&head, "X-S2g-Trace").unwrap();
    let client = Client::new(addr);
    let trace = client.trace(&trace_id).unwrap();
    assert_eq!(
        trace.get("route").unwrap().as_str(),
        Some("POST /models/{name}/score")
    );
    let names = span_names(&trace);
    for name in ["request", "store.load", "pool.score"] {
        assert!(
            names.iter().any(|n| n == name),
            "missing span {name:?} in {names:?}"
        );
    }

    handle.shutdown();
    server_thread.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn debug_trace_rejects_bad_ids_and_misses() {
    let (addr, handle, server_thread) = start(ServerConfig::default());
    let client = Client::new(addr);

    // Malformed id: 400.
    let err = client.trace("not-hex").unwrap_err();
    let s2g_server::ClientError::Api { status, .. } = err else {
        panic!("expected Api error, got {err:?}");
    };
    assert_eq!(status, 400);

    // Well-formed but unknown id: 404.
    let err = client.trace("00000000deadbeef").unwrap_err();
    let s2g_server::ClientError::Api { status, .. } = err else {
        panic!("expected Api error, got {err:?}");
    };
    assert_eq!(status, 404);

    handle.shutdown();
    server_thread.join().unwrap();
}

#[test]
fn slow_retention_and_metrics_json_shapes() {
    // Threshold 0: every request counts as slow and is retained.
    let (addr, handle, server_thread) =
        start(ServerConfig::default().with_slow_request_ms(Some(0)));
    let client = Client::new(addr);
    client
        .fit_model("slow", "pattern_length=40", &sine_csv(2000, 80.0))
        .unwrap();
    client.health().unwrap();

    let slow = client.slow_traces().unwrap();
    assert_eq!(
        slow.get("slow_threshold_ms").unwrap().as_usize(),
        Some(0),
        "configured threshold must be reported"
    );
    let traces = slow.get("traces").unwrap().as_array().unwrap();
    assert!(!traces.is_empty(), "threshold 0 must retain every request");
    let fit_summary = traces
        .iter()
        .find(|t| t.get("route").unwrap().as_str() == Some("PUT /models/{name}"))
        .expect("fit request must be retained as slow");
    assert!(fit_summary.get("spans").unwrap().as_usize().unwrap() >= 2);

    // A slow summary's id resolves through /debug/trace/{id}.
    let id = fit_summary.get("trace").unwrap().as_str().unwrap();
    let full = client.trace(id).unwrap();
    assert_eq!(full.get("trace").unwrap().as_str(), Some(id));

    // /metrics/json mirrors the text endpoint with typed summaries.
    let json = client.metrics_json().unwrap();
    assert_eq!(json.get("slow_threshold_ms").unwrap().as_usize(), Some(0));
    assert!(json.get("gauges").unwrap().get("s2g_workers").is_some());
    let fit_route = json
        .get("requests")
        .unwrap()
        .get("PUT /models/{name}")
        .expect("fit route must appear in the external request family");
    assert_eq!(fit_route.get("count").unwrap().as_usize(), Some(1));
    for field in ["p50_ns", "p95_ns", "p99_ns", "max_ns", "mean_ns", "sum_ns"] {
        assert!(fit_route.get(field).is_some(), "missing {field}");
    }
    assert!(
        json.get("internal").unwrap().get("GET /healthz").is_some(),
        "healthz must appear in the internal family"
    );
    let stages = json.get("stages").unwrap();
    assert!(stages.get("s2g_fit_duration_ns").is_some());

    handle.shutdown();
    server_thread.join().unwrap();
}
