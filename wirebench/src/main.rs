//! Wire benchmark for the Series2Graph server.
//!
//! Spawns the release `s2g serve`, drives it over HTTP with one seeded
//! workload, checks every answer against in-process reference
//! computations, and prints the end-to-end metrics (or, with `--trace 1`,
//! the per-layer metrics of a traced rerun) as the last line of stdout:
//!
//! ```text
//! s2g-wirebench --s2g <path to s2g> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```

mod fit_ingest;
mod gen;
mod http;
mod layers;
mod score_bulk;
mod server;
mod stats;
mod stream_push;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use server::Server;

pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Trace retention of the traced run's server, enough to fetch the span
/// tree of every request of its traced window.
const TRACE_RING: usize = 16_384;

/// End-to-end metrics in the result line of every untraced run.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("points_per_s", "points/s"),
    ("server_cpu_us_per_point", "us"),
    ("server_rss_mb", "MiB"),
];

/// Printed in the table of every untraced run, after `END_TO_END`, but kept
/// out of the result line. On a shared 2-core host the stream-push latency
/// shifts as a whole with neighbour load: its median moved between 0.3 and
/// 0.6 ms from run to run and its tail between 3 and 12 ms. The shares are
/// exactly 0 or 1 on some workloads.
const INFORMATIONAL: [(&str, &str); 5] = [
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("failed_share", "ratio"),
    ("slo_share", "ratio"),
    ("gen.lag_p99_ms", "ms"),
];

/// Per-layer metrics, printed by every traced run.
const PER_LAYER: [(&str, &str); 33] = [
    ("server.request_ms", "ms"),
    ("server.request_self_ms", "ms"),
    ("server.json_encode_ms", "ms"),
    ("net.wait_ms", "ms"),
    ("timeseries.parse_ms", "ms"),
    ("timeseries.rolling_sum_ms", "ms"),
    ("linalg.pca_ms", "ms"),
    ("core.embed_ms", "ms"),
    ("core.nodes_ms", "ms"),
    ("core.crossings_ms", "ms"),
    ("core.edges_ms", "ms"),
    ("core.project_ms", "ms"),
    ("core.map_ms", "ms"),
    ("core.walk_ms", "ms"),
    ("core.profile_ms", "ms"),
    ("core.stream_push_us", "us"),
    ("adapt.push_us", "us"),
    ("adapt.server_push_us", "us"),
    ("graph.csr_build_us", "us"),
    ("engine.queue_wait_ms", "ms"),
    ("engine.queue_wait_p99_ms", "ms"),
    ("engine.execute_ms", "ms"),
    ("engine.stolen_share", "ratio"),
    ("engine.encode_model_ms", "ms"),
    ("store.write_ms", "ms"),
    ("store.writes", "count"),
    ("obs.journal_dropped", "count"),
    ("gen.lag_p99_ms", "ms"),
    ("gen.check_ms", "ms"),
    ("failed_share", "ratio"),
    ("slo_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.requests", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    s2g: PathBuf,
}

impl Args {
    fn parse() -> Result<Args> {
        let raw: Vec<String> = std::env::args().skip(1).collect();
        let value = |flag: &str| -> Result<&str> {
            let at = raw
                .iter()
                .position(|arg| arg == flag)
                .ok_or_else(|| format!("missing {flag}"))?;
            Ok(raw
                .get(at + 1)
                .ok_or_else(|| format!("{flag} needs a value"))?)
        };
        Ok(Args {
            workload: value("--workload")?.to_string(),
            seed: value("--seed")?.parse()?,
            seconds: value("--seconds")?.parse()?,
            trace: match value("--trace")? {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace takes 0 or 1, got {other:?}").into()),
            },
            s2g: PathBuf::from(value("--s2g")?),
        })
    }
}

/// What every workload shares: its arguments, the host's core count and a
/// scratch directory inside the working directory.
pub struct Bench {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub nproc: usize,
    s2g: PathBuf,
    run_dir: PathBuf,
}

impl Bench {
    /// Times `setup` from spawn to its return on fresh servers — `SETUPS`
    /// times in an untraced run, once in a traced one — and keeps the last
    /// server and its state. Servers get one pool worker per host core and
    /// default flags otherwise; the traced run raises the trace ring.
    pub fn set_up<S>(
        &self,
        mut setup: impl FnMut(&Server) -> Result<S>,
    ) -> Result<(Server, S, Vec<f64>)> {
        let rounds = if self.trace { 1 } else { SETUPS };
        let mut times = Vec::new();
        for round in 0..rounds {
            let started = Instant::now();
            let dir = self.run_dir.join(format!("server-{round}"));
            let server = Server::spawn(
                &self.s2g,
                &dir,
                self.nproc,
                self.trace.then_some(TRACE_RING),
            )?;
            let state = setup(&server)?;
            times.push(started.elapsed().as_secs_f64());
            if round + 1 == rounds {
                return Ok((server, state, times));
            }
            server.discard()?;
        }
        unreachable!("at least one set-up round runs")
    }
}

/// Client-side record of one timed window.
#[derive(Default)]
pub struct Window {
    pub elapsed_s: f64,
    /// Operations attempted: series slots, fits or pushes.
    pub attempted: u64,
    /// Operations that errored or answered wrongly.
    pub failed: u64,
    /// Latency of each request whose operations all succeeded.
    pub latencies_ms: Vec<f64>,
    /// Points in operations answered correctly.
    pub good_points: u64,
    /// Operations answered correctly within the workload's latency limit.
    pub slo_met: u64,
    /// Generator lateness: the open loop's send delay past each due time;
    /// the closed loops' gap between a reply and the next request.
    pub lag_ms: Vec<f64>,
    /// Client time spent parsing and checking each response.
    pub check_ms: Vec<f64>,
    /// Server trace id and client wall time of each request.
    pub spans: Vec<(String, f64)>,
    /// CPU seconds the server used during the window.
    pub server_cpu_s: f64,
}

impl Window {
    pub fn merge(&mut self, other: Window) {
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.latencies_ms.extend(other.latencies_ms);
        self.good_points += other.good_points;
        self.slo_met += other.slo_met;
        self.lag_ms.extend(other.lag_ms);
        self.check_ms.extend(other.check_ms);
        self.spans.extend(other.spans);
        self.server_cpu_s += other.server_cpu_s;
    }
}

/// A named measurement with the sample base it rests on.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub base: String,
}

pub fn metric(name: &'static str, value: f64, base: impl Into<String>) -> Metric {
    Metric {
        name,
        value,
        base: base.into(),
    }
}

/// What a workload hands back for printing.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// The end-to-end metrics of an untraced run, followed by the window's
/// outcome shares and generator figures, which only the table prints.
pub fn end_to_end(
    setups: &[f64],
    window: &Window,
    rss_mib: f64,
    slo_ms: f64,
) -> Result<Vec<Metric>> {
    let lat = &window.latencies_ms;
    let n = lat.len();
    let p50 = stats::percentile(lat, 0.5).ok_or("no request succeeded, so there is no latency")?;
    let p99 = stats::percentile(lat, 0.99).ok_or("no request succeeded")?;
    let tail = if n < 100 {
        ", fewer than 100: the maximum"
    } else {
        ""
    };
    let mut out = vec![
        metric(
            "setup_s",
            stats::median(setups).ok_or("no set-up")?,
            format!("median of {} set-ups", setups.len()),
        ),
        metric(
            "points_per_s",
            window.good_points as f64 / window.elapsed_s,
            format!(
                "{} points answered correctly in {:.3} s",
                window.good_points, window.elapsed_s
            ),
        ),
        metric("latency_p50_ms", p50, format!("n={n} requests")),
        metric(
            "server_cpu_us_per_point",
            window.server_cpu_s * 1e6 / window.good_points.max(1) as f64,
            format!(
                "{:.2} CPU s over {} points answered correctly",
                window.server_cpu_s, window.good_points
            ),
        ),
        metric("latency_p99_ms", p99, format!("n={n} requests{tail}")),
        metric("server_rss_mb", rss_mib, "VmHWM at the end of the run"),
    ];
    window_layers(window, slo_ms, &mut out);
    Ok(out)
}

/// A window's outcome shares over all attempted operations — failed, and
/// correct within the workload's latency limit — and the benchmark's own
/// generator figures.
pub fn window_layers(window: &Window, slo_ms: f64, out: &mut Vec<Metric>) {
    let attempted = window.attempted.max(1) as f64;
    out.push(metric(
        "failed_share",
        window.failed as f64 / attempted,
        format!(
            "{} of {} ops failed or answered wrongly",
            window.failed, window.attempted
        ),
    ));
    out.push(metric(
        "slo_share",
        window.slo_met as f64 / attempted,
        format!(
            "{} of {} ops correct within {slo_ms} ms",
            window.slo_met, window.attempted
        ),
    ));
    out.push(metric(
        "gen.lag_p99_ms",
        stats::percentile(&window.lag_ms, 0.99).unwrap_or(0.0),
        format!("n={}", window.lag_ms.len()),
    ));
    out.push(metric(
        "gen.check_ms",
        stats::mean(&window.check_ms).unwrap_or(0.0),
        format!("mean of {} responses", window.check_ms.len()),
    ));
}

/// Traced-over-plain median request latency of one traced run.
pub fn trace_overhead(plain: &Window, traced: &Window) -> Metric {
    let p50 = |w: &Window| stats::median(&w.latencies_ms).unwrap_or(f64::NAN);
    metric(
        "trace.overhead_ratio",
        p50(traced) / p50(plain),
        format!(
            "median latency traced {:.3} ms over plain {:.3} ms",
            p50(traced),
            p50(plain)
        ),
    )
}

/// Fits `name` over the wire at set-up and checks the model the server
/// reports against the in-process fit's checksum.
pub fn fit_over_wire(
    conn: &mut http::Conn,
    name: &str,
    ell: usize,
    body: &[u8],
    want: u64,
) -> Result<()> {
    let reply = conn.request("PUT", &format!("/models/{name}?pattern_length={ell}"), body)?;
    if reply.status != 200 {
        return Err(format!(
            "set-up fit of {name} answered {}: {}",
            reply.status,
            reply.text()
        )
        .into());
    }
    let got = layers::fit_checksum(reply.text()).ok_or("set-up fit answered without a checksum")?;
    if got != want {
        return Err(format!(
            "set-up fit of {name}: server checksum {got:#018x}, in-process {want:#018x}"
        )
        .into());
    }
    Ok(())
}

fn run(bench: &Bench, workload: &str) -> Result<Outcome> {
    match workload {
        "score-bulk" => score_bulk::run(bench, false),
        "score-same-length" => score_bulk::run(bench, true),
        "fit-ingest" => fit_ingest::run(bench),
        "stream-push" => stream_push::run(bench),
        other => Err(format!(
            "unknown workload {other:?} (score-bulk, score-same-length, fit-ingest, stream-push)"
        )
        .into()),
    }
}

fn print(args: &Args, nproc: usize, outcome: Outcome) {
    type Names = &'static [(&'static str, &'static str)];
    let (names, extra, title): (Names, Names, _) = if args.trace {
        (&PER_LAYER, &[], "per-layer")
    } else {
        (&END_TO_END, &INFORMATIONAL, "end-to-end")
    };
    let mut by_name: BTreeMap<&str, Metric> =
        outcome.metrics.into_iter().map(|m| (m.name, m)).collect();
    println!(
        "# {} {title} seed={} seconds={} nproc={nproc} ops attempted={} failed={}",
        args.workload, args.seed, args.seconds, outcome.attempted, outcome.failed
    );
    let mut json = Vec::new();
    for (i, &(name, unit)) in names.iter().chain(extra).enumerate() {
        let (value, base) = match by_name.remove(name) {
            Some(m) if m.value.is_finite() => (m.value, m.base),
            Some(_) => (0.0, "not finite; reported as 0".to_string()),
            None => (0.0, "not measured on this workload".to_string()),
        };
        let note = if i < names.len() { "" } else { " (table only)" };
        println!("{name:<28} {value:>16.6} {unit:<9} {base}{note}");
        if i < names.len() {
            json.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        json.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("s2g-wirebench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let run_dir = Path::new(".wirebench-data").join(std::process::id().to_string());
    let bench = Bench {
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace,
        nproc,
        s2g: args.s2g.clone(),
        run_dir: run_dir.clone(),
    };
    let result = run(&bench, &args.workload);
    let _ = std::fs::remove_dir_all(&run_dir);
    let _ = std::fs::remove_dir(".wirebench-data");
    match result {
        Ok(outcome) if outcome.attempted > 0 => {
            print(&args, nproc, outcome);
            ExitCode::SUCCESS
        }
        Ok(_) => {
            eprintln!(
                "s2g-wirebench: {}: no operation was attempted",
                args.workload
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("s2g-wirebench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
