//! The `s2g serve` process under test and its public telemetry surfaces.

use std::collections::HashMap;
use std::fs;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use s2g_server::Json;

use crate::http::Conn;
use crate::stats::Buckets;
use crate::Result;

/// A spawned `s2g serve` with its own data directory. Dropping it kills the
/// process if it is still running and waits for it.
pub struct Server {
    child: Child,
    // Held open so the server never writes into a closed pipe.
    stdout: BufReader<ChildStdout>,
    pub addr: String,
    dir: PathBuf,
}

impl Server {
    /// Starts `s2g serve` on an ephemeral port with `workers` pool threads
    /// and a fresh store under `dir`, and waits until `/healthz` answers.
    pub fn spawn(
        s2g: &Path,
        dir: &Path,
        workers: usize,
        trace_ring: Option<usize>,
    ) -> Result<Server> {
        if dir.exists() {
            fs::remove_dir_all(dir)?;
        }
        fs::create_dir_all(dir)?;
        let mut cmd = Command::new(s2g);
        cmd.arg("serve")
            .args(["--addr", "127.0.0.1:0", "--workers", &workers.to_string()])
            .arg("--data-dir")
            .arg(dir.join("data"));
        if let Some(ring) = trace_ring {
            cmd.args(["--trace-ring", &ring.to_string()]);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(fs::File::create(dir.join("serve.log"))?)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", s2g.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = Server {
            child,
            stdout: BufReader::new(stdout),
            addr: String::new(),
            dir: dir.to_path_buf(),
        };
        let mut line = String::new();
        server.stdout.read_line(&mut line)?;
        server.addr = line
            .trim()
            .strip_prefix("s2g-server listening on ")
            .ok_or_else(|| {
                format!(
                    "server did not start: {line:?}; see {}",
                    dir.join("serve.log").display()
                )
            })?
            .to_string();
        let mut conn = Conn::new(&server.addr);
        let deadline = Instant::now() + Duration::from_secs(10);
        while !matches!(conn.get("/healthz"), Ok(reply) if reply.status == 200) {
            if Instant::now() > deadline {
                return Err("server never became healthy".into());
            }
            thread::sleep(Duration::from_millis(5));
        }
        Ok(server)
    }

    /// The server's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64> {
        let status = fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        let kib: f64 = status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or("no VmHWM in /proc status")?;
        Ok(kib / 1024.0)
    }

    /// CPU time the server process has used so far (user plus system), in
    /// seconds, at the kernel's 10 ms accounting resolution.
    pub fn cpu_seconds(&self) -> Result<f64> {
        const TICKS_PER_SECOND: f64 = 100.0;
        let stat = fs::read_to_string(format!("/proc/{}/stat", self.child.id()))?;
        // Fields after the parenthesised command name, from `state` on.
        let fields: Vec<&str> = stat
            .rsplit_once(')')
            .ok_or("malformed /proc stat")?
            .1
            .split_whitespace()
            .collect();
        let ticks = |i: usize| -> Result<f64> {
            Ok(fields.get(i).ok_or("short /proc stat")?.parse::<f64>()?)
        };
        Ok((ticks(11)? + ticks(12)?) / TICKS_PER_SECOND)
    }

    /// Kills the server, waits for it and removes its directory: for set-up
    /// rounds whose server is not measured further.
    pub fn discard(mut self) -> Result<()> {
        self.child.kill()?;
        self.child.wait()?;
        fs::remove_dir_all(&self.dir)?;
        Ok(())
    }

    /// Asks the server to shut down, waits for it to exit and removes its
    /// directory.
    pub fn shutdown(mut self) -> Result<()> {
        let _ = Conn::new(&self.addr).request("POST", "/admin/shutdown", b"");
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.child.try_wait()?.is_none() {
            if Instant::now() > deadline {
                self.child.kill()?;
                self.child.wait()?;
                return Err("server ignored /admin/shutdown".into());
            }
            thread::sleep(Duration::from_millis(5));
        }
        fs::remove_dir_all(&self.dir)?;
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One scrape of the text exposition at `GET /metrics`: every sample keyed
/// by its full series name (`name{labels}`).
pub struct Scrape(HashMap<String, f64>);

/// What a histogram recorded between two scrapes.
pub struct HistDelta {
    pub count: u64,
    pub sum_ns: u64,
    pub p99_ns: Option<u64>,
}

impl HistDelta {
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64 / 1e6
        }
    }
}

impl Scrape {
    pub fn take(conn: &mut Conn) -> Result<Scrape> {
        let reply = conn.get("/metrics")?;
        if reply.status != 200 {
            return Err(format!("GET /metrics answered {}", reply.status).into());
        }
        let samples = reply
            .text()
            .lines()
            .filter(|line| !line.starts_with('#'))
            .filter_map(|line| {
                let (key, value) = line.rsplit_once(' ')?;
                Some((key.to_string(), value.parse().ok()?))
            })
            .collect();
        Ok(Scrape(samples))
    }

    fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// Sum of a counter over all its label sets.
    pub fn counter_sum(&self, name: &str) -> f64 {
        let prefix = format!("{name}{{");
        self.0
            .iter()
            .filter(|(key, _)| key.as_str() == name || key.starts_with(&prefix))
            .map(|(_, value)| value)
            .sum()
    }

    fn buckets(&self, name: &str, label: &str) -> Buckets {
        let prefix = if label.is_empty() {
            format!("{name}_bucket{{le=\"")
        } else {
            format!("{name}_bucket{{{label},le=\"")
        };
        self.0
            .iter()
            .filter_map(|(key, &count)| {
                let bound = key.strip_prefix(&prefix)?.strip_suffix("\"}")?;
                let bound = if bound == "+Inf" {
                    u64::MAX
                } else {
                    bound.parse().ok()?
                };
                Some((bound, count as u64))
            })
            .collect()
    }

    /// What histogram `name` (optionally restricted to one `label` such as
    /// `route="…"`) recorded between `before` and `self`.
    pub fn hist_since(&self, before: &Scrape, name: &str, label: &str) -> HistDelta {
        let key = |suffix: &str| {
            if label.is_empty() {
                format!("{name}{suffix}")
            } else {
                format!("{name}{suffix}{{{label}}}")
            }
        };
        let delta =
            |suffix: &str| (self.get(&key(suffix)) - before.get(&key(suffix))).max(0.0) as u64;
        HistDelta {
            count: delta("_count"),
            sum_ns: delta("_sum"),
            p99_ns: crate::stats::bucket_quantile_delta(
                &before.buckets(name, label),
                &self.buckets(name, label),
                0.99,
            ),
        }
    }
}

/// Events the telemetry journal has shed so far (`GET /metrics/journal`).
pub fn journal_dropped(conn: &mut Conn) -> Result<f64> {
    let reply = conn.get("/metrics/journal")?;
    let json = Json::parse(reply.text()).map_err(|e| format!("/metrics/journal: {e}"))?;
    json.get("dropped")
        .and_then(Json::as_f64)
        .ok_or_else(|| "no `dropped` in /metrics/journal".into())
}
