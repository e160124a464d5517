//! Layer-by-layer measurement from outside the program: timed calls into
//! each crate's public functions (the in-process replay and the reference
//! scores), and the server's own telemetry read over HTTP.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use s2g_adapt::{AdaptConfig, AdaptiveScorer};
use s2g_core::edges::EdgeExtraction;
use s2g_core::embedding::Embedding;
use s2g_core::nodes::{segment_crossings, NodeSet};
use s2g_core::{scoring, S2gConfig, Series2Graph, StreamingScorer};
use s2g_engine::codec;
use s2g_graph::CsrView;
use s2g_linalg::pca::Pca;
use s2g_server::Json;
use s2g_timeseries::{io as ts_io, stats as ts_stats, TimeSeries};

use crate::http::Conn;
use crate::server::{journal_dropped, Scrape};
use crate::{metric, stats, Metric, Result, Window};

/// Chunk size of a stream push.
pub const CHUNK: usize = 64;
/// Chunks replayed through the streaming layers on workloads that push none.
const STREAM_REPLAY_CHUNKS: usize = 200;

/// Per-call timings of public library functions, keyed by metric name; a
/// name ending in `_us` records microseconds, any other milliseconds.
#[derive(Default)]
pub struct Replay(BTreeMap<&'static str, Vec<f64>>);

impl Replay {
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = black_box(f());
        let secs = started.elapsed().as_secs_f64();
        let scale = if name.ends_with("_us") { 1e6 } else { 1e3 };
        self.0.entry(name).or_default().push(secs * scale);
        out
    }

    /// Fits a model from a CSV body step by step, through the same public
    /// functions `Series2Graph::fit` chains, timing each; the convolution,
    /// PCA and ray-crossing steps inside the embedding and node extraction
    /// are timed again on their own.
    pub fn fit(&mut self, body: &[u8], config: &S2gConfig) -> Result<Series2Graph> {
        let text = std::str::from_utf8(body)?;
        let series = self.time("timeseries.parse_ms", || ts_io::parse_series(text))?;
        let (ell, lambda) = (config.pattern_length, config.lambda);
        let conv = self.time("timeseries.rolling_sum_ms", || {
            ts_stats::rolling_sum(series.values(), lambda)
        });
        let n_points = series.len() + 1 - ell;
        self.time("linalg.pca_ms", || {
            Pca::fit_sliding_covariance(&conv, n_points, ell - lambda, 3)
        })?;
        let embedding = self.time("core.embed_ms", || Embedding::fit(&series, config))?;
        let nodes = self.time("core.nodes_ms", || {
            NodeSet::extract(&embedding.points, config)
        })?;
        self.time("core.crossings_ms", || {
            let mut out = Vec::new();
            let mut crossings = 0;
            for pair in embedding.points.windows(2) {
                segment_crossings(pair[0], pair[1], config.rate, &mut out);
                crossings += out.len();
            }
            crossings
        });
        let extraction = self.time("core.edges_ms", || {
            EdgeExtraction::extract(&embedding.points, &nodes)
        })?;
        let contributions = scoring::gap_contributions(&extraction.graph, &extraction.transitions);
        let model = Series2Graph::from_parts(
            config.clone(),
            embedding,
            nodes,
            extraction.graph,
            contributions,
            series.len(),
        )?;
        self.time("engine.encode_model_ms", || {
            (
                codec::encode_model(&model).len(),
                codec::model_checksum(&model),
            )
        });
        self.csr(&model);
        Ok(model)
    }

    /// Builds the model's CSR scoring view from its graph.
    pub fn csr(&mut self, model: &Series2Graph) {
        self.time("graph.csr_build_us", || CsrView::build(model.graph()));
    }

    /// Anomaly scores through the explicit path — project, map onto the
    /// node set, walk the graph, build the profiles — which never takes the
    /// same-length shortcut of `Series2Graph::anomaly_scores`. This is the
    /// reference every wire score is checked against.
    pub fn score(
        &mut self,
        model: &Series2Graph,
        values: &[f64],
        query_length: usize,
    ) -> Result<Vec<f64>> {
        let series = TimeSeries::from(values.to_vec());
        let points = self.time("core.project_ms", || model.embedding().project(&series))?;
        let transitions = self.time("core.map_ms", || {
            EdgeExtraction::map_transitions(&points, model.node_set())
        });
        let contributions = self.time("core.walk_ms", || {
            scoring::gap_contributions(model.graph(), &transitions)
        });
        Ok(self.time("core.profile_ms", || {
            let ell = model.pattern_length();
            let normality = scoring::normality_profile(&contributions, ell, query_length);
            let normality = if model.config().smooth_scores {
                scoring::smooth_profile(&normality, ell)
            } else {
                normality
            };
            scoring::anomaly_profile(&normality)
        }))
    }

    /// Pushes the first chunks of `values` through a frozen and an adaptive
    /// streaming scorer over `model`: the streaming layers' cost on the
    /// inputs of a workload that opens no session.
    pub fn stream_over(
        &mut self,
        model: &Series2Graph,
        checksum: u64,
        values: &[f64],
        query_length: usize,
    ) -> Result<()> {
        let mut frozen = StreamingScorer::new(model.clone(), query_length)?;
        let mut adaptive = AdaptiveScorer::new(
            model.clone(),
            query_length,
            AdaptConfig::default(),
            checksum,
        )?;
        for chunk in values.chunks(CHUNK).take(STREAM_REPLAY_CHUNKS) {
            self.time("core.stream_push_us", || frozen.push_batch(chunk))?;
            self.time("adapt.push_us", || adaptive.push_batch(chunk))?;
        }
        self.csr(adaptive.model());
        Ok(())
    }

    /// Mean per call of every timed function.
    pub fn into_metrics(self, out: &mut Vec<Metric>) {
        for (name, samples) in self.0 {
            let value = stats::mean(&samples).unwrap_or(0.0);
            out.push(metric(
                name,
                value,
                format!("mean of {} calls, replayed in-process", samples.len()),
            ));
        }
    }
}

/// The metadata line a fit answers with, as the server encodes it.
pub fn model_info(name: &str, model: &Series2Graph, checksum: u64) -> Json {
    Json::obj([
        ("name", Json::from(name)),
        ("pattern_length", Json::from(model.pattern_length())),
        ("node_count", Json::from(model.node_count())),
        ("edge_count", Json::from(model.graph().edge_count())),
        ("train_len", Json::from(model.train_len())),
        ("fitted_at", Json::from(1usize)),
        ("checksum", Json::from(format!("{checksum:#018x}"))),
    ])
}

/// Reads a fit response's checksum.
pub fn fit_checksum(text: &str) -> Option<u64> {
    let json = Json::parse(text.trim()).ok()?;
    let hex = json.get("checksum")?.as_str()?.strip_prefix("0x")?;
    u64::from_str_radix(hex, 16).ok()
}

/// The server's telemetry at the start of a traced window.
pub struct ServerProbe {
    before: Scrape,
    dropped: f64,
}

impl ServerProbe {
    pub fn start(conn: &mut Conn) -> Result<ServerProbe> {
        Ok(ServerProbe {
            before: Scrape::take(conn)?,
            dropped: journal_dropped(conn)?,
        })
    }

    /// Per-layer metrics the server recorded since `start`, plus the span
    /// tree of every traced request of `window` on `route`.
    pub fn finish(
        self,
        conn: &mut Conn,
        route: &str,
        window: &Window,
        out: &mut Vec<Metric>,
    ) -> Result<()> {
        let after = Scrape::take(conn)?;
        let before = &self.before;
        let request = after.hist_since(
            before,
            "s2g_request_duration_ns",
            &format!("route=\"{route}\""),
        );
        out.push(metric(
            "server.request_ms",
            request.mean_ms(),
            format!("mean of {} `{route}` requests, /metrics", request.count),
        ));
        let wait = after.hist_since(before, "s2g_pool_queue_wait_ns", "");
        out.push(metric(
            "engine.queue_wait_ms",
            wait.mean_ms(),
            format!("mean of {} pool tasks", wait.count),
        ));
        out.push(metric(
            "engine.queue_wait_p99_ms",
            wait.p99_ns.map_or(0.0, |ns| ns as f64 / 1e6),
            format!("bucket upper bound, n={} pool tasks", wait.count),
        ));
        let execute = after.hist_since(before, "s2g_pool_execute_ns", "");
        out.push(metric(
            "engine.execute_ms",
            execute.mean_ms(),
            format!("mean of {} pool tasks", execute.count),
        ));
        let executed = after.counter_sum("s2g_pool_tasks_executed_total")
            - before.counter_sum("s2g_pool_tasks_executed_total");
        let stolen = after.counter_sum("s2g_pool_tasks_stolen_total")
            - before.counter_sum("s2g_pool_tasks_stolen_total");
        out.push(metric(
            "engine.stolen_share",
            if executed > 0.0 {
                stolen / executed
            } else {
                0.0
            },
            format!("{stolen} stolen of {executed} executed tasks"),
        ));
        let writes = after.hist_since(before, "s2g_store_write_ns", "");
        out.push(metric(
            "store.write_ms",
            writes.mean_ms(),
            format!("mean of {} writes", writes.count),
        ));
        out.push(metric(
            "store.writes",
            writes.count as f64,
            "store writes in the window",
        ));
        let adapt = after.hist_since(before, "s2g_adapt_push_ns", "");
        out.push(metric(
            "adapt.server_push_us",
            adapt.mean_ms() * 1e3,
            format!(
                "mean of {} adaptive pushes, stage s2g_adapt_push_ns",
                adapt.count
            ),
        ));
        out.push(metric(
            "obs.journal_dropped",
            journal_dropped(conn)? - self.dropped,
            "journal events shed in the window",
        ));

        let mut self_ms = Vec::new();
        let mut wait_ms = Vec::new();
        for (id, wall_ms) in &window.spans {
            let reply = conn.get(&format!("/debug/trace/{id}"))?;
            if reply.status != 200 {
                continue;
            }
            let tree = Json::parse(reply.text().trim()).map_err(|e| format!("trace {id}: {e}"))?;
            let total_ns = tree
                .get("total_ns")
                .and_then(Json::as_f64)
                .ok_or("trace without total_ns")?;
            wait_ms.push(wall_ms - total_ns / 1e6);
            if let Some(own) = root_self_ns(&tree) {
                self_ms.push(own as f64 / 1e6);
            }
        }
        out.push(metric(
            "server.request_self_ms",
            stats::mean(&self_ms).unwrap_or(0.0),
            format!(
                "mean of {} span trees: request span minus its children",
                self_ms.len()
            ),
        ));
        out.push(metric(
            "net.wait_ms",
            stats::mean(&wait_ms).unwrap_or(0.0),
            format!(
                "mean of {} requests: client wall minus server request time",
                wait_ms.len()
            ),
        ));
        out.push(metric(
            "trace.requests",
            window.spans.len() as f64,
            "traced requests in the window",
        ));
        Ok(())
    }
}

/// Self time of a trace's root span: its duration minus the part of it its
/// direct children cover.
fn root_self_ns(tree: &Json) -> Option<u64> {
    let spans = tree.get("spans")?.as_array()?;
    let field = |span: &Json, key| span.get(key).and_then(Json::as_f64).map(|v| v as u64);
    let root = spans
        .iter()
        .find(|span| matches!(span.get("parent"), Some(Json::Null)))?;
    let (root_id, start, duration) = (
        field(root, "id")?,
        field(root, "start_ns")?,
        field(root, "duration_ns")?,
    );
    let end = start + duration;
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|span| field(span, "parent") == Some(root_id))
        .filter_map(|span| {
            let s = field(span, "start_ns")?.clamp(start, end);
            Some((s, (s + field(span, "duration_ns")?).min(end)))
        })
        .collect();
    Some(duration - stats::covered_length(&mut children))
}
