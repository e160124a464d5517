//! `fit-ingest`: closed loop, one connection, each request fitting a
//! 200,000-point series (≈3.9 MB of CSV) from a pool of four.
//!
//! ℓ alternates between 50 and 100 and the model names cycle over four
//! that set-up already created, so every fit replaces a stored model. The
//! body is above curl's 1 MiB `Expect: 100-continue` threshold.

use std::collections::BTreeMap;
use std::thread;
use std::time::{Duration, Instant};

use s2g_core::{S2gConfig, Series2Graph};
use s2g_engine::codec;
use s2g_timeseries::TimeSeries;

use crate::gen;
use crate::http::{ms, Conn};
use crate::layers::{fit_checksum, model_info, Replay, ServerProbe};
use crate::{
    end_to_end, fit_over_wire, trace_overhead, window_layers, Bench, Outcome, Result, Window,
};

const FIT_LEN: usize = 200_000;
const POOL: usize = 4;
const NAMES: [&str; POOL] = ["ingest-0", "ingest-1", "ingest-2", "ingest-3"];
const SETUP_LEN: usize = 10_000;
/// A fit counts toward `slo_share` when answered correctly within this.
const SLO_MS: f64 = 5_000.0;
const ROUTE: &str = "PUT /models/{name}";

/// The `i`-th fit of a window: pooled series, pattern length, model name.
fn plan(i: usize) -> (usize, usize, &'static str) {
    (
        i % POOL,
        if i.is_multiple_of(2) { 50 } else { 100 },
        NAMES[i % POOL],
    )
}

/// One fit as sent, judged once the references exist.
struct Sent {
    series: usize,
    ell: usize,
    wall_ms: f64,
    checksum: Option<u64>,
}

pub fn run(bench: &Bench) -> Result<Outcome> {
    let pool: Vec<Vec<f64>> = (0..POOL)
        .map(|j| gen::srw(FIT_LEN, bench.seed.wrapping_mul(131) + 2000 + j as u64))
        .collect();
    let bodies: Vec<Vec<u8>> = pool.iter().map(|values| gen::csv_column(values)).collect();
    let setup_values = gen::srw(SETUP_LEN, bench.seed.wrapping_mul(131) + 2100);
    let setup_body = gen::csv_column(&setup_values);
    let setup_checksum = codec::model_checksum(&Series2Graph::fit(
        &TimeSeries::from(setup_values),
        &S2gConfig::new(50),
    )?);

    let (server, (), setups) = bench.set_up(|server| {
        let mut conn = Conn::new(&server.addr);
        for name in NAMES {
            fit_over_wire(&mut conn, name, 50, &setup_body, setup_checksum)?;
        }
        Ok(())
    })?;

    let cpu = server.cpu_seconds()?;
    let (plain_sent, mut plain_raw) = window(&server.addr, &bodies, bench.seconds, false);
    plain_raw.server_cpu_s = server.cpu_seconds()? - cpu;
    let traced = if bench.trace {
        let mut conn = Conn::new(&server.addr);
        let probe = ServerProbe::start(&mut conn)?;
        let (sent, raw) = window(&server.addr, &bodies, bench.seconds, true);
        Some((conn, probe, sent, raw))
    } else {
        None
    };
    let rss = server.peak_rss_mib()?;

    // References for every (series, ℓ) pair that was sent, two at a time.
    let mut pairs: Vec<(usize, usize)> = plain_sent.iter().map(|s| (s.series, s.ell)).collect();
    if let Some((_, _, sent, _)) = &traced {
        pairs.extend(sent.iter().map(|s| (s.series, s.ell)));
    }
    pairs.sort_unstable();
    pairs.dedup();
    let mut reference = BTreeMap::new();
    for batch in pairs.chunks(2) {
        thread::scope(|s| -> Result<()> {
            let fits: Vec<_> = batch
                .iter()
                .map(|&(series, ell)| {
                    let values = &pool[series];
                    s.spawn(move || {
                        Series2Graph::fit(&TimeSeries::from(values.clone()), &S2gConfig::new(ell))
                            .map(|model| codec::model_checksum(&model))
                    })
                })
                .collect();
            for (&pair, fit) in batch.iter().zip(fits) {
                reference.insert(pair, fit.join().expect("reference fit panicked")?);
            }
            Ok(())
        })?;
    }
    let plain = judge(&plain_sent, plain_raw, &reference);

    let Some((mut conn, probe, traced_sent, traced_raw)) = traced else {
        let metrics = end_to_end(&setups, &plain, rss, SLO_MS)?;
        server.shutdown()?;
        return Ok(Outcome {
            attempted: plain.attempted,
            failed: plain.failed,
            metrics,
        });
    };
    let traced = judge(&traced_sent, traced_raw, &reference);
    let mut metrics = Vec::new();
    probe.finish(&mut conn, ROUTE, &traced, &mut metrics)?;
    server.shutdown()?;

    let mut replay = Replay::default();
    replay.fit(&setup_body, &S2gConfig::new(50))?;
    let mut replayed = Vec::new();
    for sent in &traced_sent {
        if !replayed.contains(&(sent.series, sent.ell)) {
            replayed.push((sent.series, sent.ell));
            let model = replay.fit(&bodies[sent.series], &S2gConfig::new(sent.ell))?;
            let checksum = codec::model_checksum(&model);
            replay.time("server.json_encode_ms", || {
                model_info(NAMES[sent.series], &model, checksum).encode()
            });
            // No score or session runs here; those layers see the fitted series.
            replay.score(&model, &pool[sent.series], 3 * sent.ell)?;
            replay.stream_over(&model, checksum, &pool[sent.series], 3 * sent.ell)?;
        }
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

/// Fits back to back until the window is over and an even number (a whole
/// number of ℓ = 50, 100 pairs) has been sent. The window record holds what
/// was timed; `judge` adds the outcomes once the references exist.
fn window(addr: &str, bodies: &[Vec<u8>], seconds: f64, traced: bool) -> (Vec<Sent>, Window) {
    let mut conn = Conn::new(addr);
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let mut sent = Vec::new();
    let mut raw = Window::default();
    let mut last_done: Option<Instant> = None;
    while Instant::now() < deadline || sent.len() % 2 == 1 {
        let (series, ell, name) = plan(sent.len());
        let path = format!("/models/{name}?pattern_length={ell}");
        let result = conn.request("PUT", &path, &bodies[series]);
        let (wall_ms, checksum) = match result {
            Ok(reply) => {
                if let Some(prev) = last_done {
                    raw.lag_ms.push(ms(reply.sent - prev));
                }
                let checked = Instant::now();
                let checksum = (reply.status == 200)
                    .then(|| fit_checksum(reply.text()))
                    .flatten();
                raw.check_ms.push(ms(checked.elapsed()));
                if traced {
                    if let Some(id) = &reply.trace {
                        raw.spans.push((id.clone(), reply.wall_ms()));
                    }
                }
                (reply.wall_ms(), checksum)
            }
            Err(_) => (0.0, None),
        };
        sent.push(Sent {
            series,
            ell,
            wall_ms,
            checksum,
        });
        last_done = Some(Instant::now());
    }
    raw.elapsed_s = last_done.map_or(0.0, |done| (done - started).as_secs_f64());
    (sent, raw)
}

/// Scores a window's fits against the in-process reference checksums.
fn judge(sent: &[Sent], mut w: Window, reference: &BTreeMap<(usize, usize), u64>) -> Window {
    for fit in sent {
        w.attempted += 1;
        if fit.checksum.is_some() && fit.checksum == reference.get(&(fit.series, fit.ell)).copied()
        {
            w.latencies_ms.push(fit.wall_ms);
            w.good_points += FIT_LEN as u64;
            w.slo_met += u64::from(fit.wall_ms <= SLO_MS);
        } else {
            w.failed += 1;
        }
    }
    w
}
