//! Flight-recorder integration: what the sampler freezes each tick, and
//! how retained history is rendered on the wire.
//!
//! The recorder itself (ring, compact histograms, windowed-delta math)
//! lives in `s2g_obs::recorder`; this module binds it to the server's
//! concrete instrument set. The schema is frozen once at bind time —
//! counters from the [`Metrics`] grid, gauges from [`sampled_gauges`],
//! one histogram per route family entry plus the stage instruments — so
//! every retained sample stays positionally aligned for the whole
//! process life.

use s2g_obs::recorder::{CompactHistogram, Recorder, Sample, SeriesSchema};

use crate::json::Json;
use crate::metrics::Metrics;
use crate::server::{Shared, EXTERNAL_ROUTES, INTERNAL_ROUTES};

/// Gauge order of both the schema and [`sampled_gauges`] — one list so
/// the two can never drift apart.
const GAUGE_NAMES: &[&str] = &[
    "s2g_models_registered",
    "s2g_models_stored",
    "s2g_sessions_open",
    "s2g_workers",
    "s2g_pool_queue_depth_total",
    "s2g_pool_tasks_pending",
    "s2g_store_degraded",
    "s2g_accept_slots",
    "s2g_accept_slots_in_use",
    "s2g_accept_waiting",
    "s2g_uptime_seconds",
];

/// Stage-instrument order in the schema (mirrors `Obs::stages`).
const STAGE_NAMES: &[&str] = &[
    "s2g_fit_duration_ns",
    "s2g_score_duration_ns",
    "s2g_pool_queue_wait_ns",
    "s2g_pool_execute_ns",
    "s2g_store_fault_ns",
    "s2g_store_write_ns",
    "s2g_adapt_push_ns",
    "s2g_score_parse_ns",
    "s2g_score_encode_ns",
];

/// Point-in-time gauges, in [`GAUGE_NAMES`] order — shared by the
/// `/metrics` exposition, `/metrics/json` and the sampler.
pub(crate) fn sampled_gauges(shared: &Shared) -> Vec<(&'static str, u64)> {
    let storage = shared.engine.storage();
    let (slots_in_use, accept_waiting) = shared.slots.occupancy();
    let queue_depth_total: u64 = shared.engine.queue_depths().iter().sum();
    let values = vec![
        (
            "s2g_models_registered",
            shared.engine.registry().len() as u64,
        ),
        (
            "s2g_models_stored",
            storage.map_or(0, |s| s.stored()) as u64,
        ),
        ("s2g_sessions_open", shared.sessions.len() as u64),
        ("s2g_workers", shared.engine.workers() as u64),
        ("s2g_pool_queue_depth_total", queue_depth_total),
        ("s2g_pool_tasks_pending", shared.engine.pending_tasks()),
        (
            // 1 while the store's disk is refusing writes — an anomaly the
            // self-watch history makes legible after the fact.
            "s2g_store_degraded",
            storage.map_or(0, |s| {
                u64::from(s.mode() == s2g_engine::StoreMode::Degraded)
            }),
        ),
        ("s2g_accept_slots", shared.slots.capacity as u64),
        ("s2g_accept_slots_in_use", slots_in_use as u64),
        ("s2g_accept_waiting", accept_waiting as u64),
        ("s2g_uptime_seconds", shared.started.elapsed().as_secs()),
    ];
    debug_assert!(values
        .iter()
        .map(|(n, _)| *n)
        .eq(GAUGE_NAMES.iter().copied()));
    values
}

/// Histogram-series name of one route family entry.
fn route_series_name(family: &str, route: &str) -> String {
    format!("{family}{{route=\"{route}\"}}")
}

/// The frozen naming of everything a [`Sample`] retains.
pub(crate) fn build_schema() -> SeriesSchema {
    let mut histograms: Vec<String> = EXTERNAL_ROUTES
        .iter()
        .map(|route| route_series_name("s2g_request_duration_ns", route))
        .collect();
    histograms.extend(
        INTERNAL_ROUTES
            .iter()
            .map(|route| route_series_name("s2g_internal_request_duration_ns", route)),
    );
    histograms.extend(STAGE_NAMES.iter().map(|s| s.to_string()));
    SeriesSchema {
        counters: Metrics::counter_schema(),
        gauges: GAUGE_NAMES.iter().map(|s| s.to_string()).collect(),
        histograms,
    }
}

/// Freezes every live instrument into one schema-aligned [`Sample`].
pub(crate) fn collect_sample(shared: &Shared) -> Sample {
    let mut histograms: Vec<CompactHistogram> = EXTERNAL_ROUTES
        .iter()
        .map(|route| CompactHistogram::from_snapshot(&shared.obs.requests.get(route).snapshot()))
        .collect();
    histograms.extend(
        INTERNAL_ROUTES.iter().map(|route| {
            CompactHistogram::from_snapshot(&shared.obs.internal.get(route).snapshot())
        }),
    );
    histograms.extend(
        shared
            .obs
            .stages()
            .iter()
            .map(|(_, hist)| CompactHistogram::from_snapshot(&hist.snapshot())),
    );
    Sample {
        t_ns: s2g_obs::clock::now_ns(),
        counters: shared.metrics.counter_values(),
        gauges: sampled_gauges(shared).into_iter().map(|(_, v)| v).collect(),
        histograms,
    }
}

/// Index of the merged-external block in the sample histogram vector:
/// `0..EXTERNAL_ROUTES.len()`.
pub(crate) fn external_range() -> std::ops::Range<usize> {
    0..EXTERNAL_ROUTES.len()
}

/// Index of a stage instrument in the sample histogram vector.
pub(crate) fn stage_index(name: &str) -> Option<usize> {
    STAGE_NAMES
        .iter()
        .position(|&s| s == name)
        .map(|i| EXTERNAL_ROUTES.len() + INTERNAL_ROUTES.len() + i)
}

/// Merges a contiguous range of one sample's histograms (bucketwise add).
fn merge_range(sample: &Sample, range: std::ops::Range<usize>) -> CompactHistogram {
    let mut counts = vec![0u64; s2g_obs::BUCKETS];
    let mut count = 0u64;
    let mut sum = 0u64;
    let mut max = 0u64;
    for hist in &sample.histograms[range] {
        for &(i, n) in &hist.buckets {
            counts[i] += n;
        }
        count += hist.count;
        sum = sum.wrapping_add(hist.sum);
        max = max.max(hist.max);
    }
    CompactHistogram {
        count,
        sum,
        max,
        buckets: counts
            .iter()
            .enumerate()
            .filter(|(_, &n)| n != 0)
            .map(|(i, &n)| (i, n))
            .collect(),
    }
}

/// The windowed histogram of everything external requests recorded
/// between `prev` and `current` — merged across routes, then subtracted.
pub(crate) fn external_delta(prev: &Sample, current: &Sample) -> CompactHistogram {
    merge_range(current, external_range()).delta(&merge_range(prev, external_range()))
}

/// One compact histogram as the summary-object shape `/metrics/json`
/// established (`count`/`sum_ns`/`max_ns`/`mean_ns`/`p50..p99_ns`).
fn compact_json(hist: &CompactHistogram) -> Json {
    Json::obj([
        ("count", Json::from(hist.count as usize)),
        ("sum_ns", Json::from(hist.sum as usize)),
        ("max_ns", Json::from(hist.max as usize)),
        ("mean_ns", Json::from(hist.mean())),
        ("p50_ns", Json::from(hist.quantile(0.5) as usize)),
        ("p95_ns", Json::from(hist.quantile(0.95) as usize)),
        ("p99_ns", Json::from(hist.quantile(0.99) as usize)),
    ])
}

/// `GET /metrics/history?window=&step=`: the retained series, oldest
/// first. Counters and histogram summaries are cumulative at each
/// sample's capture time (`GET /metrics/delta` serves the windowed
/// view); gauges are point-in-time.
pub(crate) fn history_json(recorder: &Recorder, window_secs: u64, step: usize) -> Json {
    let schema = recorder.schema();
    let samples = recorder.window(window_secs.saturating_mul(1_000_000_000), step);
    let series: Vec<Json> = samples
        .iter()
        .map(|sample| {
            Json::obj([
                ("t_ns", Json::from(sample.t_ns as usize)),
                (
                    "counters",
                    Json::Arr(
                        sample
                            .counters
                            .iter()
                            .map(|&v| Json::from(v as usize))
                            .collect(),
                    ),
                ),
                (
                    "gauges",
                    Json::Arr(
                        sample
                            .gauges
                            .iter()
                            .map(|&v| Json::from(v as usize))
                            .collect(),
                    ),
                ),
                (
                    "histograms",
                    Json::Arr(sample.histograms.iter().map(compact_json).collect()),
                ),
            ])
        })
        .collect();
    let names = |list: &[String]| -> Json {
        Json::Arr(list.iter().map(|n| Json::from(n.clone())).collect())
    };
    Json::obj([
        ("interval_ms", Json::from(recorder.interval_ms() as usize)),
        ("retention", Json::from(recorder.retention())),
        ("samples", Json::from(series.len())),
        (
            "schema",
            Json::obj([
                ("counters", names(&schema.counters)),
                ("gauges", names(&schema.gauges)),
                ("histograms", names(&schema.histograms)),
            ]),
        ),
        ("series", Json::Arr(series)),
    ])
}

/// `GET /metrics/delta?window=`: rates and windowed latency over the
/// last `window` seconds of retained samples — counters as
/// `delta`/`per_sec`, histograms as windowed summaries with a `per_sec`
/// arrival rate. `ready` is `false` (and the maps empty) until two
/// samples span the window.
pub(crate) fn delta_json(recorder: &Recorder, window_secs: u64) -> Json {
    let schema = recorder.schema();
    let window_ns = window_secs.saturating_mul(1_000_000_000);
    let Some((first, last)) = recorder.window_ends(window_ns) else {
        return Json::obj([
            ("ready", Json::from(false)),
            ("samples", Json::from(recorder.window(window_ns, 1).len())),
            ("seconds", Json::from(0.0)),
            ("counters", Json::Obj(Vec::new())),
            ("histograms", Json::Obj(Vec::new())),
        ]);
    };
    let seconds = last.t_ns.saturating_sub(first.t_ns) as f64 / 1e9;
    let rate = |delta: u64| -> f64 {
        if seconds > 0.0 {
            delta as f64 / seconds
        } else {
            0.0
        }
    };
    let counters: Vec<(String, Json)> = schema
        .counters
        .iter()
        .zip(last.counters.iter().zip(first.counters.iter()))
        .filter_map(|(name, (&now, &then))| {
            let delta = now.saturating_sub(then);
            (delta > 0).then(|| {
                (
                    name.clone(),
                    Json::obj([
                        ("delta", Json::from(delta as usize)),
                        ("per_sec", Json::from(rate(delta))),
                    ]),
                )
            })
        })
        .collect();
    let histograms: Vec<(String, Json)> = schema
        .histograms
        .iter()
        .zip(last.histograms.iter().zip(first.histograms.iter()))
        .filter_map(|(name, (now, then))| {
            let delta = now.delta(then);
            (delta.count > 0).then(|| {
                let mut summary = compact_json(&delta);
                if let Json::Obj(pairs) = &mut summary {
                    pairs.push(("per_sec".to_string(), Json::from(rate(delta.count))));
                }
                (name.clone(), summary)
            })
        })
        .collect();
    Json::obj([
        ("ready", Json::from(true)),
        ("samples", Json::from(recorder.window(window_ns, 1).len())),
        ("from_t_ns", Json::from(first.t_ns as usize)),
        ("to_t_ns", Json::from(last.t_ns as usize)),
        ("seconds", Json::from(seconds)),
        ("counters", Json::Obj(counters)),
        ("histograms", Json::Obj(histograms)),
    ])
}
