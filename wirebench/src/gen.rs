//! Seeded inputs. Everything the server receives is made here from the
//! `--seed` argument, so one seed always yields the same bytes.

use s2g_datasets::periodic::{self, PeriodicConfig};
use s2g_datasets::srw::{generate_srw, SrwConfig};

/// SplitMix64: small, seedable, and stable across platforms.
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) under the run's seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }
}

/// The paper's SRW family: a sinusoid on a random-walk trend with injected
/// higher-frequency anomalies of 200 points and 5% noise.
pub fn srw(length: usize, seed: u64) -> Vec<f64> {
    generate_srw(SrwConfig {
        length,
        num_anomalies: (length / 5000).max(1),
        noise_ratio: 0.05,
        anomaly_length: 200,
        seed,
    })
    .series
    .into_vec()
}

/// A stationary periodic signal (no trend, no anomalies): a stream whose
/// continuation looks like its training prefix.
pub fn stationary(length: usize, seed: u64) -> Vec<f64> {
    periodic::generate(PeriodicConfig {
        name: "stationary".to_string(),
        length,
        period: 100,
        template: periodic::harmonic_template(vec![1.0, 0.4, 0.2], vec![0.0, 0.7, 1.9]),
        amplitude_jitter: 0.05,
        noise_ratio: 0.05,
        trend_step_std: 0.0,
        anomalies: Vec::new(),
        seed,
    })
    .series
    .into_vec()
}

/// One value per line: the CSV series body of fits and pushes. Rust's
/// shortest round-trip formatting makes the server parse back the exact
/// bits generated here.
pub fn csv_column(values: &[f64]) -> Vec<u8> {
    let mut out = String::with_capacity(values.len() * 20);
    for v in values {
        out.push_str(&v.to_string());
        out.push('\n');
    }
    out.into_bytes()
}

/// One comma-separated line: a series of the series-per-line score body.
pub fn csv_row(values: &[f64]) -> String {
    let mut out = String::with_capacity(values.len() * 20);
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out
}
