//! `stream-push`: open loop at a fixed rate. 32 streaming sessions on two
//! models (ℓ = 50, ℓq = 150), half frozen and half adaptive with the
//! server's default adaptation, each push 64 new points every 80 ms,
//! staggered, over two keep-alive connections: 400 pushes/s. Each push is
//! timed from when it was due, and its input continues the stationary
//! generator its model was trained on.

use std::thread;
use std::time::{Duration, Instant};

use s2g_adapt::{AdaptConfig, AdaptiveScorer};
use s2g_core::{S2gConfig, Series2Graph, StreamingScorer};
use s2g_engine::codec;
use s2g_server::Json;
use s2g_timeseries::TimeSeries;

use crate::gen;
use crate::http::{ms, Conn};
use crate::layers::{Replay, ServerProbe, CHUNK};
use crate::{
    end_to_end, fit_over_wire, trace_overhead, window_layers, Bench, Outcome, Result, Window,
};

const MODELS: [&str; 2] = ["stream-a", "stream-b"];
const PATTERN: usize = 50;
const QUERY: usize = 150;
const TRAIN_LEN: usize = 10_000;
const SESSIONS: usize = 32;
const CONNECTIONS: usize = 2;
const PERIOD: Duration = Duration::from_millis(80);
/// A push meets the SLO when answered correctly within this of its due time.
const SLO_MS: f64 = 50.0;
const ROUTE: &str = "POST /sessions/{id}/push";

/// Session `k` runs on connection `k % 2`, model `(k / 2) % 2`, and is
/// adaptive when `(k / 4) % 2 == 1`: each connection carries both models
/// and both kinds.
fn model_of(k: usize) -> usize {
    (k / CONNECTIONS) % MODELS.len()
}

fn adaptive(k: usize) -> bool {
    (k / 4) % 2 == 1
}

/// One scheduled push and what came back.
struct Push {
    session: usize,
    /// Index of the chunk in the session's input.
    chunk: usize,
    latency_ms: f64,
    reply: Option<(u16, String)>,
}

pub fn run(bench: &Bench) -> Result<Outcome> {
    let phases = if bench.trace { 2 } else { 1 };
    let per_phase = (bench.seconds / PERIOD.as_secs_f64()).ceil() as usize;
    let per_session = per_phase * phases * CHUNK;
    let per_model = SESSIONS / MODELS.len();
    let streams: Vec<Vec<f64>> = (0..MODELS.len())
        .map(|m| {
            gen::stationary(
                TRAIN_LEN + per_model * per_session,
                bench.seed.wrapping_mul(131) + 3000 + m as u64,
            )
        })
        .collect();
    let inputs: Vec<&[f64]> = (0..SESSIONS)
        .map(|k| {
            let m = model_of(k);
            let j = k / (CONNECTIONS * MODELS.len()) * CONNECTIONS + k % CONNECTIONS;
            let start = TRAIN_LEN + j * per_session;
            &streams[m][start..start + per_session]
        })
        .collect();
    let bodies: Vec<Vec<u8>> = streams
        .iter()
        .map(|s| gen::csv_column(&s[..TRAIN_LEN]))
        .collect();
    let models: Vec<Series2Graph> = streams
        .iter()
        .map(|s| {
            Series2Graph::fit(
                &TimeSeries::from(s[..TRAIN_LEN].to_vec()),
                &S2gConfig::new(PATTERN),
            )
        })
        .collect::<std::result::Result<_, _>>()?;
    let checksums: Vec<u64> = models.iter().map(codec::model_checksum).collect();

    let (server, ids, setups) = bench.set_up(|server| {
        let mut conn = Conn::new(&server.addr);
        for (m, name) in MODELS.iter().enumerate() {
            fit_over_wire(&mut conn, name, PATTERN, &bodies[m], checksums[m])?;
        }
        (0..SESSIONS)
            .map(|k| open(&mut conn, k))
            .collect::<Result<Vec<String>>>()
    })?;

    let cpu = server.cpu_seconds()?;
    let mut plain = window(&server.addr, &ids, &inputs, 0, per_phase, false);
    plain.1.server_cpu_s = server.cpu_seconds()? - cpu;
    let traced = if bench.trace {
        let mut conn = Conn::new(&server.addr);
        let probe = ServerProbe::start(&mut conn)?;
        let pushes = window(&server.addr, &ids, &inputs, per_phase, per_phase, true);
        Some((conn, probe, pushes))
    } else {
        None
    };
    let rss = server.peak_rss_mib()?;

    // The oracle: every session's chunks, in order, through in-process
    // scorers; the traced phase's pushes are timed layer by layer.
    let mut replay = Replay::default();
    let mut expected: Vec<Vec<Vec<(usize, f64)>>> = Vec::new();
    for (k, input) in inputs.iter().enumerate() {
        let model = models[model_of(k)].clone();
        let mut out = Vec::new();
        if adaptive(k) {
            let mut scorer =
                AdaptiveScorer::new(model, QUERY, AdaptConfig::default(), checksums[model_of(k)])?;
            for (n, chunk) in input.chunks(CHUNK).enumerate() {
                out.push(if n >= per_phase {
                    replay
                        .time("adapt.push_us", || scorer.push_batch(chunk))?
                        .emitted
                } else {
                    scorer.push_batch(chunk)?.emitted
                });
            }
            replay.csr(scorer.model());
        } else {
            let mut scorer = StreamingScorer::new(model, QUERY)?;
            for (n, chunk) in input.chunks(CHUNK).enumerate() {
                out.push(if n >= per_phase {
                    replay.time("core.stream_push_us", || scorer.push_batch(chunk))?
                } else {
                    scorer.push_batch(chunk)?
                });
            }
        }
        expected.push(out);
    }
    let plain = judge(plain, &expected);

    let Some((mut conn, probe, pushes)) = traced else {
        let metrics = end_to_end(&setups, &plain, rss, SLO_MS)?;
        server.shutdown()?;
        return Ok(Outcome {
            attempted: plain.attempted,
            failed: plain.failed,
            metrics,
        });
    };
    let traced_raw: Vec<(usize, usize)> = pushes.0.iter().map(|p| (p.session, p.chunk)).collect();
    let traced = judge(pushes, &expected);
    let mut metrics = Vec::new();
    probe.finish(&mut conn, ROUTE, &traced, &mut metrics)?;
    server.shutdown()?;

    for (m, body) in bodies.iter().enumerate() {
        replay.fit(body, &S2gConfig::new(PATTERN))?;
        // No batch score runs here; those layers see a session's stream.
        let k = (0..SESSIONS)
            .find(|&k| model_of(k) == m)
            .expect("every model has sessions");
        replay.score(&models[m], &inputs[k][per_phase * CHUNK..], QUERY)?;
    }
    for (k, n) in traced_raw {
        let emitted = &expected[k][n];
        replay.time("server.json_encode_ms", || {
            Json::obj([
                ("session", Json::from(ids[k].as_str())),
                ("pushed", Json::from(CHUNK)),
                (
                    "emitted",
                    Json::Arr(
                        emitted
                            .iter()
                            .map(|&(start, normality)| {
                                Json::Arr(vec![Json::from(start), Json::from(normality)])
                            })
                            .collect(),
                    ),
                ),
            ])
            .encode()
        });
    }
    replay.into_metrics(&mut metrics);
    window_layers(&traced, SLO_MS, &mut metrics);
    metrics.push(trace_overhead(&plain, &traced));
    Ok(Outcome {
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        metrics,
    })
}

/// Opens session `k` and returns its server-minted id.
fn open(conn: &mut Conn, k: usize) -> Result<String> {
    let adapt = if adaptive(k) { ",\"adapt\":true" } else { "" };
    let body = format!(
        "{{\"model\":\"{}\",\"query_length\":{QUERY}{adapt}}}",
        MODELS[model_of(k)]
    );
    let reply = conn.request("POST", "/sessions", body.as_bytes())?;
    let json = Json::parse(reply.text().trim()).map_err(|e| format!("POST /sessions: {e}"))?;
    match json.get("session").and_then(Json::as_str) {
        Some(id) if reply.status == 200 => Ok(id.to_string()),
        _ => Err(format!("POST /sessions answered {}: {}", reply.status, reply.text()).into()),
    }
}

/// A window's pushes plus what the generator timed while sending them;
/// `judge` adds the outcomes.
struct Sent(Vec<Push>, Window);

/// Pushes chunks `first..first + count` of every session on schedule:
/// session `k`'s `n`-th push of the window is due at
/// `n · 80 ms + k · 2.5 ms`. A late push goes out at once and its latency
/// still counts from its due time. Every session pushes every chunk, so
/// the server's sessions and the oracle's scorers see the same stream.
fn window(
    addr: &str,
    ids: &[String],
    inputs: &[&[f64]],
    first: usize,
    count: usize,
    traced: bool,
) -> Sent {
    let started = Instant::now();
    let stagger = PERIOD / SESSIONS as u32;
    let mut pushes = Vec::new();
    let mut raw = Window::default();
    thread::scope(|s| {
        let connections: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                s.spawn(move || {
                    let mut conn = Conn::new(addr);
                    let mut pushes = Vec::new();
                    let mut raw = Window::default();
                    for n in 0..count {
                        for k in (c..SESSIONS).step_by(CONNECTIONS) {
                            let due = started + PERIOD * n as u32 + stagger * k as u32;
                            wait_until(due);
                            let chunk = first + n;
                            let body =
                                gen::csv_column(&inputs[k][chunk * CHUNK..(chunk + 1) * CHUNK]);
                            let path = format!("/sessions/{}/push", ids[k]);
                            let result = conn.request("POST", &path, &body);
                            let reply = match result {
                                Ok(reply) => {
                                    raw.lag_ms
                                        .push(ms(reply.sent.saturating_duration_since(due)));
                                    if traced {
                                        if let Some(id) = &reply.trace {
                                            raw.spans.push((id.clone(), reply.wall_ms()));
                                        }
                                    }
                                    Some((reply.status, reply.text().to_string()))
                                }
                                Err(_) => None,
                            };
                            let done = Instant::now();
                            raw.elapsed_s = raw.elapsed_s.max((done - started).as_secs_f64());
                            pushes.push(Push {
                                session: k,
                                chunk,
                                latency_ms: ms(done - due),
                                reply,
                            });
                        }
                    }
                    (pushes, raw)
                })
            })
            .collect();
        for connection in connections {
            let (p, r) = connection.join().expect("push client panicked");
            pushes.extend(p);
            raw.merge(r);
        }
    });
    Sent(pushes, raw)
}

/// Sleeps until shortly before `due`, then spins, so the generator's own
/// timer slack (about 0.1 ms a wakeup) stays out of the measured latency.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(300);
    if let Some(rest) = due.checked_duration_since(Instant::now()) {
        if rest > SPIN {
            thread::sleep(rest - SPIN);
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
    }
}

/// Checks every push's emitted pairs against the in-process scorers.
fn judge(sent: Sent, expected: &[Vec<Vec<(usize, f64)>>]) -> Window {
    let Sent(pushes, mut w) = sent;
    for push in pushes {
        w.attempted += 1;
        let checked = Instant::now();
        let good = match &push.reply {
            Some((200, text)) => emitted(text).is_some_and(|got| {
                let want = &expected[push.session][push.chunk];
                got.len() == want.len()
                    && got
                        .iter()
                        .zip(want)
                        .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
            }),
            _ => false,
        };
        if push.reply.is_some() {
            w.check_ms.push(ms(checked.elapsed()));
        }
        if good {
            w.latencies_ms.push(push.latency_ms);
            w.good_points += CHUNK as u64;
            w.slo_met += u64::from(push.latency_ms <= SLO_MS);
        } else {
            w.failed += 1;
        }
    }
    w
}

/// The `(window_start, normality)` pairs of a push response.
fn emitted(text: &str) -> Option<Vec<(usize, f64)>> {
    let json = Json::parse(text.trim()).ok()?;
    json.get("emitted")?
        .as_array()?
        .iter()
        .map(|pair| {
            let pair = pair.as_array()?;
            Some((pair.first()?.as_usize()?, pair.get(1)?.as_f64()?))
        })
        .collect()
}
