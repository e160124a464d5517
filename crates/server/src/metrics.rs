//! Serving metrics: cheap process-wide counters exported as the plain-text
//! `GET /metrics` endpoint.
//!
//! The format is the Prometheus text exposition subset — `name{labels} value`
//! lines — so any scraper (or `grep`) can consume it. Counters are
//! monotonic over the life of the process; gauges (sessions, models, store)
//! are sampled at scrape time from the live engine.
//!
//! Request counting is **wait-free**: the route patterns and status codes
//! the server can produce are both finite and known at compile time, so
//! the `(route, status)` counters live in a pre-registered flat
//! `AtomicU64` grid — recording is two bounded linear scans over
//! `&'static` tables plus one relaxed `fetch_add`, no lock, no allocation,
//! no map rebalancing on the serving path. Unknown routes and statuses
//! fall into catch-all cells instead of growing the grid, so cardinality
//! stays bounded no matter what traffic arrives.

use std::sync::atomic::{AtomicU64, Ordering};

/// Every normalised route pattern the router can produce, including the
/// synthetic ones for unparseable and unroutable requests. The final
/// `(other)` entry doubles as the catch-all cell for patterns this table
/// does not know (which would indicate route-table drift — visible in the
/// exposition rather than silently merged).
pub const ROUTE_PATTERNS: &[&str] = &[
    "GET /healthz",
    "GET /metrics",
    "GET /metrics/json",
    "GET /metrics/history",
    "GET /metrics/delta",
    "GET /metrics/journal",
    "GET /watch",
    "GET /debug/trace/{id}",
    "GET /debug/slow",
    "POST /debug/sleep",
    "POST /debug/panic",
    "POST /debug/failpoint",
    "GET /debug/failpoint",
    "GET /models",
    "PUT /models/{name}",
    "GET /models/{name}",
    "DELETE /models/{name}",
    "POST /models/{name}/score",
    "POST /sessions",
    "POST /sessions/{id}/push",
    "DELETE /sessions/{id}",
    "POST /admin/shutdown",
    "(method_not_allowed)",
    "(unparsed)",
    "(other)",
];

/// Every status code the server emits (see [`crate::http::Response::reason`]);
/// the trailing `0` cell catches anything outside the set and renders as
/// `status="other"`.
const STATUS_CODES: &[u16] = &[200, 400, 404, 405, 409, 413, 422, 429, 500, 503, 0];

fn route_slot(route: &str) -> usize {
    ROUTE_PATTERNS
        .iter()
        .position(|&r| r == route)
        .unwrap_or(ROUTE_PATTERNS.len() - 1)
}

fn status_slot(status: u16) -> usize {
    STATUS_CODES
        .iter()
        .position(|&s| s == status)
        .unwrap_or(STATUS_CODES.len() - 1)
}

/// Process-wide serving counters (one instance per [`crate::Server`]).
#[derive(Debug)]
pub struct Metrics {
    /// Requests by `(route pattern, status)`, flattened row-major over
    /// [`ROUTE_PATTERNS`] × [`STATUS_CODES`]. Route patterns are
    /// normalised (`PUT /models/{name}`), not raw paths, so cardinality
    /// stays bounded.
    requests: Vec<AtomicU64>,
    /// Successful model fits (`PUT /models/{name}`).
    fits: AtomicU64,
    /// Series scored by `POST /models/{name}/score` (one per input line).
    scored_series: AtomicU64,
    /// Streaming sessions opened.
    sessions_opened: AtomicU64,
    /// Accepted decayed edge updates across all adaptive sessions.
    adapt_updates: AtomicU64,
    /// Refits completed across all adaptive sessions.
    adapt_refits: AtomicU64,
    /// Adapted snapshots published (registered + persisted).
    adapt_published: AtomicU64,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            requests: (0..ROUTE_PATTERNS.len() * STATUS_CODES.len())
                .map(|_| AtomicU64::new(0))
                .collect(),
            fits: AtomicU64::new(0),
            scored_series: AtomicU64::new(0),
            sessions_opened: AtomicU64::new(0),
            adapt_updates: AtomicU64::new(0),
            adapt_refits: AtomicU64::new(0),
            adapt_published: AtomicU64::new(0),
        }
    }
}

impl Metrics {
    /// Records one served request under its normalised route pattern —
    /// a pure atomic increment into the pre-registered grid.
    pub fn record_request(&self, route: &'static str, status: u16) {
        let slot = route_slot(route) * STATUS_CODES.len() + status_slot(status);
        self.requests[slot].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one successful fit.
    pub fn record_fit(&self) {
        self.fits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` scored series.
    pub fn record_scores(&self, n: u64) {
        self.scored_series.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one opened streaming session.
    pub fn record_session_opened(&self) {
        self.sessions_opened.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds one adaptive push's deltas into the adaptation counters.
    pub fn record_adaptation(&self, update_delta: u64, refit_delta: u64, published: bool) {
        self.adapt_updates
            .fetch_add(update_delta, Ordering::Relaxed);
        self.adapt_refits.fetch_add(refit_delta, Ordering::Relaxed);
        if published {
            self.adapt_published.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The fixed counter-series naming the flight recorder retains: one
    /// `s2g_requests_total{route}` per pre-registered pattern (summed
    /// over statuses), one global `s2g_request_errors_total`, then the
    /// scalar counters. Positions align with [`Metrics::counter_values`].
    pub fn counter_schema() -> Vec<String> {
        let mut names: Vec<String> = ROUTE_PATTERNS
            .iter()
            .map(|route| format!("s2g_requests_total{{route=\"{route}\"}}"))
            .collect();
        names.push("s2g_request_errors_total".to_string());
        for name in [
            "s2g_fits_total",
            "s2g_scored_series_total",
            "s2g_sessions_opened_total",
            "s2g_adapt_updates_total",
            "s2g_adapt_refits_total",
            "s2g_adapt_published_total",
        ] {
            names.push(name.to_string());
        }
        names
    }

    /// Live counter values, positionally aligned to
    /// [`Metrics::counter_schema`].
    pub fn counter_values(&self) -> Vec<u64> {
        let mut errors = 0u64;
        let mut values: Vec<u64> = (0..ROUTE_PATTERNS.len())
            .map(|r| {
                let mut total = 0u64;
                for (s, &status) in STATUS_CODES.iter().enumerate() {
                    let count = self.requests[r * STATUS_CODES.len() + s].load(Ordering::Relaxed);
                    total += count;
                    // The catch-all status cell (0) holds unknown codes —
                    // counted as errors to be safe.
                    if status >= 400 || status == 0 {
                        errors += count;
                    }
                }
                total
            })
            .collect();
        values.push(errors);
        for counter in [
            &self.fits,
            &self.scored_series,
            &self.sessions_opened,
            &self.adapt_updates,
            &self.adapt_refits,
            &self.adapt_published,
        ] {
            values.push(counter.load(Ordering::Relaxed));
        }
        values
    }

    /// Renders the exposition: counters from this struct plus the gauges
    /// sampled by the caller. Only `(route, status)` cells that counted
    /// something are emitted, so the grid's size never bloats the scrape.
    pub fn render(&self, gauges: &[(&str, u64)]) -> Vec<String> {
        let mut lines = Vec::new();
        for (r, &route) in ROUTE_PATTERNS.iter().enumerate() {
            for (s, &status) in STATUS_CODES.iter().enumerate() {
                let count = self.requests[r * STATUS_CODES.len() + s].load(Ordering::Relaxed);
                if count == 0 {
                    continue;
                }
                let status_label = if status == 0 {
                    "other".to_string()
                } else {
                    status.to_string()
                };
                lines.push(format!(
                    "s2g_requests_total{{route=\"{route}\",status=\"{status_label}\"}} {count}"
                ));
            }
        }
        for (name, value) in [
            ("s2g_fits_total", self.fits.load(Ordering::Relaxed)),
            (
                "s2g_scored_series_total",
                self.scored_series.load(Ordering::Relaxed),
            ),
            (
                "s2g_sessions_opened_total",
                self.sessions_opened.load(Ordering::Relaxed),
            ),
            (
                "s2g_adapt_updates_total",
                self.adapt_updates.load(Ordering::Relaxed),
            ),
            (
                "s2g_adapt_refits_total",
                self.adapt_refits.load(Ordering::Relaxed),
            ),
            (
                "s2g_adapt_published_total",
                self.adapt_published.load(Ordering::Relaxed),
            ),
        ] {
            lines.push(format!("{name} {value}"));
        }
        for (name, value) in gauges {
            lines.push(format!("{name} {value}"));
        }
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_renders_counters_and_gauges() {
        let metrics = Metrics::default();
        metrics.record_request("GET /healthz", 200);
        metrics.record_request("GET /healthz", 200);
        metrics.record_request("PUT /models/{name}", 422);
        metrics.record_fit();
        metrics.record_scores(3);
        metrics.record_session_opened();
        metrics.record_adaptation(10, 1, true);
        metrics.record_adaptation(5, 0, false);

        let lines = metrics.render(&[("s2g_models_registered", 2)]);
        let text = lines.join("\n");
        assert!(text.contains("s2g_requests_total{route=\"GET /healthz\",status=\"200\"} 2"));
        assert!(text.contains("s2g_requests_total{route=\"PUT /models/{name}\",status=\"422\"} 1"));
        assert!(text.contains("s2g_fits_total 1"));
        assert!(text.contains("s2g_scored_series_total 3"));
        assert!(text.contains("s2g_sessions_opened_total 1"));
        assert!(text.contains("s2g_adapt_updates_total 15"));
        assert!(text.contains("s2g_adapt_refits_total 1"));
        assert!(text.contains("s2g_adapt_published_total 1"));
        assert!(text.contains("s2g_models_registered 2"));
    }

    #[test]
    fn unknown_routes_and_statuses_fall_into_catch_all_cells() {
        let metrics = Metrics::default();
        metrics.record_request("GET /made-up", 200);
        metrics.record_request("GET /healthz", 299);
        let text = metrics.render(&[]).join("\n");
        assert!(text.contains("s2g_requests_total{route=\"(other)\",status=\"200\"} 1"));
        assert!(text.contains("s2g_requests_total{route=\"GET /healthz\",status=\"other\"} 1"));
    }

    #[test]
    fn counter_schema_and_values_stay_aligned() {
        let metrics = Metrics::default();
        let schema = Metrics::counter_schema();
        assert_eq!(schema.len(), metrics.counter_values().len());
        metrics.record_request("GET /healthz", 200);
        metrics.record_request("GET /healthz", 200);
        metrics.record_request("PUT /models/{name}", 422);
        metrics.record_fit();
        let values = metrics.counter_values();
        let value_of = |name: &str| -> u64 {
            let i = schema.iter().position(|n| n == name).expect(name);
            values[i]
        };
        assert_eq!(value_of("s2g_requests_total{route=\"GET /healthz\"}"), 2);
        assert_eq!(
            value_of("s2g_requests_total{route=\"PUT /models/{name}\"}"),
            1
        );
        assert_eq!(value_of("s2g_request_errors_total"), 1);
        assert_eq!(value_of("s2g_fits_total"), 1);
    }

    #[test]
    fn every_emitted_status_is_pre_registered() {
        // The grid must know every status `ApiError`/handlers can emit;
        // a new status code should be added to STATUS_CODES, not silently
        // merged into the catch-all.
        for status in [200, 400, 404, 405, 409, 413, 422, 429, 500, 503] {
            assert_ne!(status_slot(status), STATUS_CODES.len() - 1, "{status}");
        }
    }
}
