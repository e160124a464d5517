//! `score-bulk`: closed loop, two keep-alive connections, each request
//! scoring two unseen series against one of four resident models.
//!
//! The models are fitted at set-up on 10,000-point series, two at ℓ = 50
//! and two at ℓ = 100, scored at ℓq = 3ℓ. Series lengths are uniform in
//! [5,000, 15,000] and never the training length.
//!
//! The `score-same-length` variant is the same workload except that one
//! pooled series in four has exactly the training length, as a monitor
//! scoring windows of its training size would send. The server answers
//! those from its cached training scores (ROADMAP finding 1), so that
//! variant reads `correct: false` until the shortcut is removed.

use std::thread;
use std::time::{Duration, Instant};

use s2g_core::{S2gConfig, Series2Graph};
use s2g_engine::codec;
use s2g_server::Json;
use s2g_timeseries::TimeSeries;

use crate::gen::{self, Rng};
use crate::http::{ms, Conn, Reply};
use crate::layers::{Replay, ServerProbe};
use crate::{
    end_to_end, fit_over_wire, trace_overhead, window_layers, Bench, Outcome, Result, Window,
};

const MODELS: [(&str, usize); 4] = [
    ("bulk-a", 50),
    ("bulk-b", 50),
    ("bulk-c", 100),
    ("bulk-d", 100),
];
const TRAIN_LEN: usize = 10_000;
/// Distinct unseen series; every request draws from this pool.
const POOL: usize = 64;
const PER_REQUEST: usize = 2;
const CONNECTIONS: usize = 2;
/// A slot counts toward `slo_share` when answered correctly within this.
const SLO_MS: f64 = 250.0;
const ROUTE: &str = "POST /models/{name}/score";
/// Traced requests replayed in-process, layer by layer.
const REPLAY_REQUESTS: usize = 48;

struct Pooled {
    values: Vec<f64>,
    row: String,
}

/// The pooled series of one request and the model they went to.
type Pick = (usize, [usize; PER_REQUEST]);

/// Runs the workload; `same_length` makes every fourth pooled series
/// exactly the training length.
pub fn run(bench: &Bench, same_length: bool) -> Result<Outcome> {
    let train: Vec<Vec<f64>> = (0..MODELS.len())
        .map(|m| gen::srw(TRAIN_LEN, bench.seed.wrapping_mul(131) + m as u64))
        .collect();
    let bodies: Vec<Vec<u8>> = train.iter().map(|values| gen::csv_column(values)).collect();
    // Stratified draws: each length not pinned to the training length
    // comes from its own equal slice of [5,000, 15,000], so every seed's
    // pool spans the whole range and the work per request does not drift
    // from seed to seed. A draw equal to the training length moves up one.
    let mut rng = Rng::new(bench.seed, 1);
    let pinned = |j: usize| same_length && j.is_multiple_of(4);
    let strata = if same_length { POOL - POOL / 4 } else { POOL };
    let pool: Vec<Pooled> = (0..POOL)
        .map(|j| {
            let len = if pinned(j) {
                TRAIN_LEN
            } else {
                let stratum = if same_length { j - j / 4 - 1 } else { j };
                let (lo, hi) = (
                    5_000 + 10_001 * stratum / strata,
                    5_000 + 10_001 * (stratum + 1) / strata - 1,
                );
                match rng.between(lo, hi) {
                    TRAIN_LEN => TRAIN_LEN + 1,
                    len => len,
                }
            };
            let values = gen::srw(len, bench.seed.wrapping_mul(131) + 1000 + j as u64);
            Pooled {
                row: gen::csv_row(&values),
                values,
            }
        })
        .collect();

    // Reference models and scores, computed before any timing.
    let mut models = Vec::new();
    for (values, &(_, ell)) in train.iter().zip(&MODELS) {
        models.push(Series2Graph::fit(
            &TimeSeries::from(values.clone()),
            &S2gConfig::new(ell),
        )?);
    }
    let checksums: Vec<u64> = models.iter().map(codec::model_checksum).collect();
    let mut expected = Vec::new();
    for (model, &(_, ell)) in models.iter().zip(&MODELS) {
        let mut per_series = Vec::new();
        for pooled in &pool {
            let scores = Replay::default().score(model, &pooled.values, 3 * ell)?;
            per_series.push(Json::arr(scores).encode());
        }
        expected.push(per_series);
    }

    let (server, (), setups) = bench.set_up(|server| {
        let mut conn = Conn::new(&server.addr);
        for (m, &(name, ell)) in MODELS.iter().enumerate() {
            fit_over_wire(&mut conn, name, ell, &bodies[m], checksums[m])?;
        }
        Ok(())
    })?;
    let ctx = Ctx {
        addr: &server.addr,
        pool: &pool,
        expected: &expected,
        seed: bench.seed,
        seconds: bench.seconds,
    };

    let cpu = server.cpu_seconds()?;
    let (mut plain, _) = ctx.window(0, false);
    plain.server_cpu_s = server.cpu_seconds()? - cpu;
    if !bench.trace {
        let metrics = end_to_end(&setups, &plain, server.peak_rss_mib()?, SLO_MS)?;
        server.shutdown()?;
        return Ok(Outcome {
            attempted: plain.attempted,
            failed: plain.failed,
            metrics,
        });
    }

    let mut conn = Conn::new(&server.addr);
    let probe = ServerProbe::start(&mut conn)?;
    let (traced, picks) = ctx.window(1, true);
    let mut metrics = Vec::new();
    probe.finish(&mut conn, ROUTE, &traced, &mut metrics)?;
    server.shutdown()?;

    let mut replay = Replay::default();
    for (body, &(_, ell)) in bodies.iter().zip(&MODELS) {
        replay.fit(body, &S2gConfig::new(ell))?;
    }
    for &(m, series) in picks.iter().take(REPLAY_REQUESTS) {
        let ell = MODELS[m].1;
        let mut lines = Vec::new();
        for (index, &p) in series.iter().enumerate() {
            lines.push((index, replay.score(&models[m], &pool[p].values, 3 * ell)?));
        }
        replay.time("server.json_encode_ms", || {
            lines
                .into_iter()
                .map(|(index, scores)| {
                    Json::obj([("index", Json::from(index)), ("scores", Json::arr(scores))])
                        .encode()
                })
                .collect::<Vec<_>>()
        });
    }
    // No session runs here; the streaming layers see the pooled series.
    replay.stream_over(&models[0], checksums[0], &pool[1].values, 3 * MODELS[0].1)?;
    replay.into_metrics(&mut metrics);
    window_layers(&traced, SLO_MS, &mut metrics);
    metrics.push(trace_overhead(&plain, &traced));
    Ok(Outcome {
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        metrics,
    })
}

struct Ctx<'a> {
    addr: &'a str,
    pool: &'a [Pooled],
    /// Reference scores as JSON array text, by model and pooled series.
    expected: &'a [Vec<String>],
    seed: u64,
    seconds: f64,
}

impl Ctx<'_> {
    /// One timed window over all connections; `phase` keeps the traced
    /// window's request stream distinct from the plain one's.
    fn window(&self, phase: u64, traced: bool) -> (Window, Vec<Pick>) {
        let started = Instant::now();
        let deadline = started + Duration::from_secs_f64(self.seconds);
        let mut window = Window::default();
        let mut picks = Vec::new();
        thread::scope(|s| {
            let clients: Vec<_> = (0..CONNECTIONS)
                .map(|c| {
                    let rng = Rng::new(self.seed, 100 + 10 * phase + c as u64);
                    s.spawn(move || self.client(rng, started, deadline, traced))
                })
                .collect();
            for client in clients {
                let (w, p) = client.join().expect("score client panicked");
                window.merge(w);
                picks.extend(p);
            }
        });
        (window, picks)
    }

    fn client(
        &self,
        mut rng: Rng,
        started: Instant,
        deadline: Instant,
        traced: bool,
    ) -> (Window, Vec<Pick>) {
        let mut w = Window::default();
        let mut picks = Vec::new();
        let mut conn = Conn::new(self.addr);
        let mut last_done: Option<Instant> = None;
        while Instant::now() < deadline {
            let m = rng.below(MODELS.len());
            let series = [rng.below(POOL), rng.below(POOL)];
            let (name, ell) = MODELS[m];
            let mut body = String::new();
            for &p in &series {
                body.push_str(&self.pool[p].row);
                body.push('\n');
            }
            let path = format!("/models/{name}/score?query_length={}", 3 * ell);
            w.attempted += PER_REQUEST as u64;
            let result = conn.request("POST", &path, body.as_bytes());
            let now = Instant::now();
            if let Some(prev) = last_done {
                if let Ok(reply) = &result {
                    w.lag_ms.push(ms(reply.sent - prev));
                }
            }
            let Ok(reply) = result else {
                w.failed += PER_REQUEST as u64;
                last_done = Some(now);
                continue;
            };
            let checked = Instant::now();
            let good = self.check(&reply, m, &series);
            w.check_ms.push(ms(checked.elapsed()));
            let wall = reply.wall_ms();
            for (&p, ok) in series.iter().zip(&good) {
                if *ok {
                    w.good_points += self.pool[p].values.len() as u64;
                    w.slo_met += u64::from(wall <= SLO_MS);
                } else {
                    w.failed += 1;
                }
            }
            if good.iter().all(|&ok| ok) {
                w.latencies_ms.push(wall);
            }
            if traced {
                if let Some(id) = reply.trace.clone() {
                    w.spans.push((id, wall));
                    picks.push((m, series));
                }
            }
            last_done = Some(Instant::now());
        }
        w.elapsed_s = last_done.map_or(0.0, |done| (done - started).as_secs_f64());
        (w, picks)
    }

    /// Which slots of a score response match the reference bit for bit.
    fn check(
        &self,
        reply: &Reply,
        model: usize,
        series: &[usize; PER_REQUEST],
    ) -> [bool; PER_REQUEST] {
        let mut good = [false; PER_REQUEST];
        if reply.status != 200 {
            return good;
        }
        for line in reply.text().lines() {
            // Equal shortest round-trip text means equal bits, so a line
            // the encoder wrote exactly as the reference needs no parse.
            let exact = split_line(line).and_then(|(index, scores)| {
                let &p = series.get(index)?;
                (scores == self.expected[model][p]).then_some(index)
            });
            if let Some(index) = exact {
                good[index] = true;
            } else if let Some((index, same)) = self.compare_values(line, model, series) {
                good[index] = same;
            }
        }
        good
    }

    /// Parses a response line and compares its scores with the reference
    /// value by value: which slot it names and whether every bit matches.
    fn compare_values(
        &self,
        line: &str,
        model: usize,
        series: &[usize; PER_REQUEST],
    ) -> Option<(usize, bool)> {
        let json = Json::parse(line).ok()?;
        let index = json.get("index")?.as_usize()?;
        let &p = series.get(index)?;
        let want = Json::parse(&self.expected[model][p]).ok()?.as_f64_array()?;
        let got = json.get("scores").and_then(Json::as_f64_array);
        Some((
            index,
            got.is_some_and(|got| {
                got.len() == want.len()
                    && got
                        .iter()
                        .zip(&want)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            }),
        ))
    }
}

/// Splits a score line written as `{"index":i,"scores":[…]}` into the slot
/// index and the scores' array text.
fn split_line(line: &str) -> Option<(usize, &str)> {
    let (index, rest) = line.strip_prefix("{\"index\":")?.split_once(',')?;
    let scores = rest.strip_prefix("\"scores\":")?.strip_suffix('}')?;
    Some((index.parse().ok()?, scores))
}
