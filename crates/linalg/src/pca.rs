//! Principal component analysis used for the 3-dimensional reduction of the
//! subsequence projection matrix `Proj(T, ℓ, λ)`.

use crate::eigen::symmetric_eigen;
use crate::error::{Error, Result};
use crate::matrix::DMatrix;
use crate::par;
use crate::svd::{randomized_svd, RandomizedSvdOptions};

/// Which solver computes the principal directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PcaSolver {
    /// Exact eigen-decomposition of the `d × d` covariance matrix. Best when
    /// `d = ℓ − λ` is small (the common case, tens of columns).
    #[default]
    Covariance,
    /// Randomized truncated SVD (Halko et al.), matching the method cited by
    /// the paper; preferable when `d` grows to hundreds of columns.
    RandomizedSvd {
        /// Extra sketch columns beyond the requested rank.
        oversample: usize,
        /// Number of power iterations.
        power_iterations: usize,
        /// Random seed for the Gaussian test matrix.
        seed: u64,
    },
}

/// Consecutive windows one pass of [`Pca::transform_windows`] projects.
const WINDOW_LANES: usize = 8;

/// Multiply-adds of the sliding Gram matrix (`n·d(d+1)/2`) below which one
/// more thread is not worth spawning: a few milliseconds of work on one core.
const MIN_GRAM_TERMS_PER_THREAD: usize = 1 << 23;

/// A fitted PCA model: column means plus the top-`k` principal directions.
#[derive(Debug, Clone)]
pub struct Pca {
    mean: Vec<f64>,
    /// `d × k` matrix whose columns are the principal directions.
    components: DMatrix,
    explained_variance: Vec<f64>,
    total_variance: f64,
}

impl Pca {
    /// Fits a PCA with `k` components on the rows of `data` using the default
    /// (covariance) solver.
    pub fn fit(data: &DMatrix, k: usize) -> Result<Self> {
        Self::fit_with(data, k, PcaSolver::Covariance)
    }

    /// Fits a PCA with `k` components using the requested solver.
    ///
    /// # Errors
    /// * [`Error::EmptyMatrix`] for empty input.
    /// * [`Error::TooManyComponents`] when `k > min(n, d)`.
    pub fn fit_with(data: &DMatrix, k: usize, solver: PcaSolver) -> Result<Self> {
        let (n, d) = data.shape();
        if n == 0 || d == 0 {
            return Err(Error::EmptyMatrix);
        }
        if k == 0 || k > n.min(d) {
            return Err(Error::TooManyComponents {
                requested: k,
                available: n.min(d),
            });
        }

        let (centered, mean) = data.centered();
        let denom = (n.max(2) - 1) as f64;

        match solver {
            PcaSolver::Covariance => {
                let mut cov = centered.gram();
                cov.scale_in_place(1.0 / denom);
                Self::from_covariance(mean, &cov, k)
            }
            PcaSolver::RandomizedSvd {
                oversample,
                power_iterations,
                seed,
            } => {
                let svd = randomized_svd(
                    &centered,
                    RandomizedSvdOptions {
                        rank: k,
                        oversample,
                        power_iterations,
                        seed,
                    },
                )?;
                let explained: Vec<f64> = svd
                    .singular_values
                    .iter()
                    .map(|s| (s * s) / denom)
                    .collect();
                // Total variance from the centred data directly (cheap single pass).
                let total_variance = centered.as_slice().iter().map(|x| x * x).sum::<f64>() / denom;
                Ok(Self {
                    mean,
                    components: svd.v,
                    explained_variance: explained,
                    total_variance,
                })
            }
        }
    }

    /// Fits a covariance-solver PCA on the `n` overlapping windows
    /// `windows[i .. i + d]`, `i ∈ [0, n)`, of a flat buffer — the shape of
    /// the subsequence projection matrix `Proj(T, ℓ, λ)`, whose row `i` is a
    /// stride-1 slice of the series' rolling-sum vector.
    ///
    /// This is the **materialization-free** fit path: instead of copying the
    /// windows into an `n × d` matrix (`O(n·d)` memory — hundreds of MB for
    /// million-point series), the column means and the `d × d` Gram matrix
    /// are accumulated directly from the overlapping slices, so peak extra
    /// memory is `O(d²)`. Every accumulation runs in exactly the summation
    /// order of [`DMatrix::column_means`] / [`DMatrix::gram`] on the
    /// materialized matrix (including the skip of zero entries), so the
    /// fitted model is **bit-identical** to
    /// `Pca::fit_with(&materialized, k, PcaSolver::Covariance)`.
    ///
    /// Large inputs spread the column means (split by column) and the Gram
    /// matrix (split by output row) across threads; each entry still sums
    /// over the rows in the same order, so the result does not depend on the
    /// thread count.
    ///
    /// # Errors
    /// * [`Error::EmptyMatrix`] when `n == 0` or `d == 0`.
    /// * [`Error::ShapeMismatch`] when `windows` is shorter than the
    ///   `n + d − 1` values the windows span.
    /// * [`Error::TooManyComponents`] when `k == 0` or `k > min(n, d)`.
    pub fn fit_sliding_covariance(windows: &[f64], n: usize, d: usize, k: usize) -> Result<Self> {
        let terms = n.saturating_mul(d).saturating_mul(d + 1) / 2;
        let threads = par::threads_for(terms, MIN_GRAM_TERMS_PER_THREAD);
        Self::fit_sliding_covariance_on(windows, n, d, k, threads)
    }

    /// [`Pca::fit_sliding_covariance`] on an explicit number of threads.
    pub(crate) fn fit_sliding_covariance_on(
        windows: &[f64],
        n: usize,
        d: usize,
        k: usize,
        threads: usize,
    ) -> Result<Self> {
        if n == 0 || d == 0 {
            return Err(Error::EmptyMatrix);
        }
        if windows.len() + 1 < n + d {
            return Err(Error::ShapeMismatch {
                op: "pca_fit_sliding",
                left: (1, windows.len()),
                right: (n, d),
            });
        }
        if k == 0 || k > n.min(d) {
            return Err(Error::TooManyComponents {
                requested: k,
                available: n.min(d),
            });
        }

        let mean = sliding_column_means(windows, n, d, threads);
        let mut cov = sliding_gram(windows, &mean, n, threads);
        let denom = (n.max(2) - 1) as f64;
        cov.scale_in_place(1.0 / denom);
        Self::from_covariance(mean, &cov, k)
    }

    /// Projects the `n` overlapping windows `windows[i .. i + d]`,
    /// `i ∈ [0, n)`, of a flat buffer — the rows of `Proj(T, ℓ, λ)`, as in
    /// [`Pca::fit_sliding_covariance`] — and hands `emit` the `K` components
    /// of every window, in window order.
    ///
    /// Each pass projects eight consecutive windows. Its accumulators are
    /// laid out `[component][lane]`, one lane per window, so the compiler can
    /// vectorise across windows, and every centred value `x_i − m_i` is
    /// formed once for all components. Each accumulator still sums
    /// `(x_i − m_i)·c_ij` over `i = 0..d` in order, starting from `0.0`,
    /// exactly as [`Pca::transform_row`] does for one row, so every output is
    /// bit-identical to it. The last `n % 8` windows take a scalar pass with
    /// the same order. Nothing is allocated.
    ///
    /// # Errors
    /// [`Error::ShapeMismatch`] when `K` is not the number of components, or
    /// when `windows` is shorter than the `n + d − 1` values the windows span.
    pub fn transform_windows<const K: usize>(
        &self,
        windows: &[f64],
        n: usize,
        mut emit: impl FnMut([f64; K]),
    ) -> Result<()> {
        let (d, k) = self.components.shape();
        if K != k {
            return Err(Error::ShapeMismatch {
                op: "pca_transform_windows",
                left: (d, K),
                right: (d, k),
            });
        }
        if n == 0 {
            return Ok(());
        }
        if windows.len() + 1 < n + d {
            return Err(Error::ShapeMismatch {
                op: "pca_transform_windows",
                left: (1, windows.len()),
                right: (n, d),
            });
        }
        // Row i of the row-major d × K component matrix: c_i0 … c_i(K−1).
        let (rows, _) = self.components.as_slice().as_chunks::<K>();
        let lanes_end = n - n % WINDOW_LANES;
        for first in (0..lanes_end).step_by(WINDOW_LANES) {
            let mut acc = [[0.0; WINDOW_LANES]; K];
            for (i, (m, c)) in self.mean.iter().zip(rows).enumerate() {
                let x = windows[first + i..]
                    .first_chunk::<WINDOW_LANES>()
                    .expect("the length check covers every window");
                let centred = x.map(|xi| xi - m);
                for (acc_j, c_ij) in acc.iter_mut().zip(c) {
                    for (a, t) in acc_j.iter_mut().zip(&centred) {
                        *a += t * c_ij;
                    }
                }
            }
            for lane in 0..WINDOW_LANES {
                emit(acc.map(|acc_j| acc_j[lane]));
            }
        }
        for window in windows[lanes_end..].windows(d).take(n - lanes_end) {
            let mut acc = [0.0; K];
            for ((xi, m), c) in window.iter().zip(&self.mean).zip(rows) {
                let t = xi - m;
                for (a, c_ij) in acc.iter_mut().zip(c) {
                    *a += t * c_ij;
                }
            }
            emit(acc);
        }
        Ok(())
    }

    /// Shared tail of the covariance solvers: eigen-decomposes the already
    /// scaled covariance matrix and keeps the top-`k` directions.
    fn from_covariance(mean: Vec<f64>, cov: &DMatrix, k: usize) -> Result<Self> {
        let d = cov.nrows();
        let eig = symmetric_eigen(cov)?;
        let total_variance: f64 = eig.eigenvalues.iter().map(|v| v.max(0.0)).sum();
        let mut components = DMatrix::zeros(d, k);
        let mut explained = Vec::with_capacity(k);
        for c in 0..k {
            explained.push(eig.eigenvalues[c].max(0.0));
            for r in 0..d {
                components.set(r, c, eig.eigenvectors.get(r, c));
            }
        }
        Ok(Self {
            mean,
            components,
            explained_variance: explained,
            total_variance,
        })
    }

    /// Reassembles a fitted PCA from its raw parts, as produced by
    /// [`Pca::mean`], [`Pca::components`], [`Pca::explained_variance`] and
    /// [`Pca::total_variance`]. Used by model persistence.
    ///
    /// # Errors
    /// * [`Error::EmptyMatrix`] when `components` has no rows or columns.
    /// * [`Error::ShapeMismatch`] when `mean` or `explained_variance` does not
    ///   match the component matrix shape.
    pub fn from_parts(
        mean: Vec<f64>,
        components: DMatrix,
        explained_variance: Vec<f64>,
        total_variance: f64,
    ) -> Result<Self> {
        let (d, k) = components.shape();
        if d == 0 || k == 0 {
            return Err(Error::EmptyMatrix);
        }
        if mean.len() != d {
            return Err(Error::ShapeMismatch {
                op: "pca_from_parts_mean",
                left: (1, mean.len()),
                right: (d, k),
            });
        }
        if explained_variance.len() != k {
            return Err(Error::ShapeMismatch {
                op: "pca_from_parts_variance",
                left: (1, explained_variance.len()),
                right: (d, k),
            });
        }
        Ok(Self {
            mean,
            components,
            explained_variance,
            total_variance,
        })
    }

    /// Total variance of the training data (denominator of
    /// [`Pca::explained_variance_ratio`]). Exposed for model persistence.
    pub fn total_variance(&self) -> f64 {
        self.total_variance
    }

    /// Number of components kept.
    pub fn n_components(&self) -> usize {
        self.components.ncols()
    }

    /// Input dimensionality the model was fitted on.
    pub fn input_dim(&self) -> usize {
        self.components.nrows()
    }

    /// Column means subtracted before projection.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// The principal directions as a `d × k` matrix (columns are directions).
    pub fn components(&self) -> &DMatrix {
        &self.components
    }

    /// Variance captured by each kept component.
    pub fn explained_variance(&self) -> &[f64] {
        &self.explained_variance
    }

    /// Fraction of the total variance captured by the kept components
    /// (the paper reports ≈95% on average for 3 components over its corpus).
    pub fn explained_variance_ratio(&self) -> f64 {
        if self.total_variance <= 0.0 {
            return 0.0;
        }
        self.explained_variance.iter().sum::<f64>() / self.total_variance
    }

    /// Projects a single row vector into the component space.
    ///
    /// # Errors
    /// [`Error::ShapeMismatch`] when `x.len()` differs from the fitted dimensionality.
    pub fn transform_row(&self, x: &[f64]) -> Result<Vec<f64>> {
        let d = self.components.nrows();
        if x.len() != d {
            return Err(Error::ShapeMismatch {
                op: "pca_transform",
                left: (1, x.len()),
                right: (d, self.components.ncols()),
            });
        }
        let k = self.components.ncols();
        let mut out = vec![0.0; k];
        for (j, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (i, (xi, mi)) in x.iter().zip(&self.mean).enumerate() {
                acc += (xi - mi) * self.components.get(i, j);
            }
            *o = acc;
        }
        Ok(out)
    }

    /// Projects every row of `data` into the component space, returning an
    /// `n × k` matrix.
    pub fn transform(&self, data: &DMatrix) -> Result<DMatrix> {
        let (n, d) = data.shape();
        if d != self.components.nrows() {
            return Err(Error::ShapeMismatch {
                op: "pca_transform",
                left: (n, d),
                right: self.components.shape(),
            });
        }
        let k = self.components.ncols();
        let mut out = DMatrix::zeros(n, k);
        for r in 0..n {
            let row = data.row(r);
            let out_row = out.row_mut(r);
            for (j, o) in out_row.iter_mut().enumerate() {
                let mut acc = 0.0;
                for (i, (xi, mi)) in row.iter().zip(&self.mean).enumerate() {
                    acc += (xi - mi) * self.components.get(i, j);
                }
                *o = acc;
            }
        }
        Ok(out)
    }
}

/// Column means of the `n` windows `windows[r .. r + d]`, in
/// [`DMatrix::column_means`] order (rows outer, one division at the end).
/// Columns are split across `threads`; each column's sum is unchanged.
fn sliding_column_means(windows: &[f64], n: usize, d: usize, threads: usize) -> Vec<f64> {
    let rows = n.max(1) as f64;
    let mut mean = vec![0.0; d];
    par::for_each_chunk_mut(&mut mean, threads, |first, cols| {
        for r in 0..n {
            for (m, v) in cols.iter_mut().zip(&windows[r + first..]) {
                *m += v;
            }
        }
        for m in cols {
            *m /= rows;
        }
    });
    mean
}

/// Gram matrix of the centred windows, in [`DMatrix::gram`] order per entry.
///
/// Only the upper triangle `j ≥ i` is accumulated, then mirrored. That is
/// bit-exact for finite input: `gram[i][j]` and `gram[j][i]` sum the same
/// products `ri·rj` over the same rows in the same order, and differ only in
/// which exact `±0` products the `ri == 0.0` skip leaves out. An accumulator
/// that starts at `+0.0` can never become `−0.0` (`x + (−x)` rounds to
/// `+0.0`, and `+0.0 + −0.0` is `+0.0`), so adding or skipping a `±0` term
/// never changes its bits.
///
/// Output rows are split across `threads` in contiguous blocks of about
/// equal triangle area; every thread walks all `n` windows in order.
fn sliding_gram(windows: &[f64], mean: &[f64], n: usize, threads: usize) -> DMatrix {
    let d = mean.len();
    let blocks = par::map_ranges(triangle_rows(d, threads), |rows| {
        let first = rows.start;
        let mut block = vec![0.0; rows.len() * d];
        // Centred values of columns first..d, the only ones rows ≥ first read.
        let mut centered = vec![0.0; d - first];
        for r in 0..n {
            for (c, v) in centered.iter_mut().enumerate() {
                *v = windows[r + first + c] - mean[first + c];
            }
            for (out_row, i) in block.chunks_exact_mut(d).zip(rows.clone()) {
                let tail = &centered[i - first..];
                let ri = tail[0];
                if ri == 0.0 {
                    continue;
                }
                for (o, &rj) in out_row[i..].iter_mut().zip(tail) {
                    *o += ri * rj;
                }
            }
        }
        block
    });
    let mut data = blocks.concat();
    for i in 0..d {
        for j in 0..i {
            data[i * d + j] = data[j * d + i];
        }
    }
    DMatrix::from_vec(d, d, data).expect("d × d Gram data has d² entries")
}

/// Splits the rows `0..d` of an upper triangle (row `i` holds `d − i`
/// entries) into at most `parts` contiguous blocks of about equal area.
fn triangle_rows(d: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.clamp(1, d.max(1));
    let total = d * (d + 1) / 2;
    let mut ranges = Vec::with_capacity(parts);
    let (mut start, mut area) = (0, 0);
    for i in 0..d {
        area += d - i;
        let done = ranges.len() + 1;
        if done < parts && area * parts >= done * total {
            ranges.push(start..i + 1);
            start = i + 1;
        }
    }
    ranges.push(start..d);
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Generates rows living (mostly) on a 2-D plane inside R^5.
    fn planar_data(n: usize) -> DMatrix {
        let d1 = [2.0, 0.0, 1.0, 0.0, 0.0];
        let d2 = [0.0, 1.0, 0.0, 1.0, 0.0];
        let mut rows = Vec::with_capacity(n);
        for i in 0..n {
            let a = (i as f64 * 0.17).sin() * 8.0;
            let b = (i as f64 * 0.05).cos() * 3.0;
            let noise = (i as f64 * 13.37).sin() * 1e-3;
            let row: Vec<f64> = (0..5)
                .map(|j| a * d1[j] + b * d2[j] + noise + 5.0)
                .collect();
            rows.push(row);
        }
        DMatrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn covariance_pca_captures_planar_variance() {
        let data = planar_data(400);
        let pca = Pca::fit(&data, 2).unwrap();
        assert_eq!(pca.n_components(), 2);
        assert!(pca.explained_variance_ratio() > 0.999);
        assert!(pca.explained_variance()[0] >= pca.explained_variance()[1]);
    }

    #[test]
    fn randomized_pca_agrees_with_covariance_pca() {
        let data = planar_data(400);
        let exact = Pca::fit(&data, 2).unwrap();
        let rand = Pca::fit_with(
            &data,
            2,
            PcaSolver::RandomizedSvd {
                oversample: 5,
                power_iterations: 3,
                seed: 1,
            },
        )
        .unwrap();
        // The projected coordinates must agree up to a per-component sign flip.
        let pe = exact.transform(&data).unwrap();
        let pr = rand.transform(&data).unwrap();
        for c in 0..2 {
            let dot: f64 = (0..data.nrows()).map(|r| pe.get(r, c) * pr.get(r, c)).sum();
            let ne: f64 = (0..data.nrows())
                .map(|r| pe.get(r, c).powi(2))
                .sum::<f64>()
                .sqrt();
            let nr: f64 = (0..data.nrows())
                .map(|r| pr.get(r, c).powi(2))
                .sum::<f64>()
                .sqrt();
            let corr = (dot / (ne * nr)).abs();
            assert!(corr > 0.999, "component {c} correlation {corr}");
        }
    }

    #[test]
    fn transform_row_matches_transform() {
        let data = planar_data(100);
        let pca = Pca::fit(&data, 3).unwrap();
        let all = pca.transform(&data).unwrap();
        for r in [0usize, 17, 99] {
            let row = pca.transform_row(data.row(r)).unwrap();
            for (c, v) in row.iter().enumerate().take(3) {
                assert!((v - all.get(r, c)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn projected_data_is_centred() {
        let data = planar_data(200);
        let pca = Pca::fit(&data, 2).unwrap();
        let proj = pca.transform(&data).unwrap();
        for c in 0..2 {
            let mean: f64 = proj.col(c).iter().sum::<f64>() / proj.nrows() as f64;
            assert!(mean.abs() < 1e-9);
        }
    }

    #[test]
    fn sliding_covariance_is_bit_identical_to_materialized() {
        // A buffer with noisy low bits, cut into stride-1 overlapping
        // windows exactly like the subsequence projection matrix.
        let buffer: Vec<f64> = (0..300)
            .map(|i| (i as f64 * 0.37).sin() * 3.0 + (i as f64 * 0.011).cos() + 0.1)
            .collect();
        let d = 40;
        let n = buffer.len() - d + 1;
        let rows: Vec<Vec<f64>> = (0..n).map(|i| buffer[i..i + d].to_vec()).collect();
        let materialized = DMatrix::from_rows(&rows).unwrap();

        let via_matrix = Pca::fit(&materialized, 3).unwrap();
        let via_slices = Pca::fit_sliding_covariance(&buffer, n, d, 3).unwrap();

        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(via_matrix.mean()), bits(via_slices.mean()));
        assert_eq!(
            bits(via_matrix.components().as_slice()),
            bits(via_slices.components().as_slice())
        );
        assert_eq!(
            bits(via_matrix.explained_variance()),
            bits(via_slices.explained_variance())
        );
        assert_eq!(
            via_matrix.total_variance().to_bits(),
            via_slices.total_variance().to_bits()
        );
        // And the projections agree bit-for-bit too.
        for i in [0usize, 7, n - 1] {
            let a = via_matrix.transform_row(&buffer[i..i + d]).unwrap();
            let b = via_slices.transform_row(&buffer[i..i + d]).unwrap();
            assert_eq!(bits(&a), bits(&b));
        }
    }

    #[test]
    fn sliding_covariance_validates_inputs() {
        let buffer = vec![1.0; 20];
        assert!(Pca::fit_sliding_covariance(&buffer, 0, 5, 1).is_err());
        assert!(Pca::fit_sliding_covariance(&buffer, 5, 0, 1).is_err());
        // 10 windows of width 12 need 21 values; 20 is one short.
        assert!(Pca::fit_sliding_covariance(&buffer, 10, 12, 2).is_err());
        assert!(Pca::fit_sliding_covariance(&buffer, 10, 5, 0).is_err());
        assert!(Pca::fit_sliding_covariance(&buffer, 10, 5, 6).is_err());
        assert!(Pca::fit_sliding_covariance(&buffer, 16, 5, 3).is_ok());
    }

    #[test]
    fn rejects_invalid_component_counts() {
        let data = planar_data(10);
        assert!(Pca::fit(&data, 0).is_err());
        assert!(Pca::fit(&data, 6).is_err());
        assert!(Pca::fit(&DMatrix::zeros(0, 0), 1).is_err());
    }

    #[test]
    fn transform_validates_dimension() {
        let data = planar_data(50);
        let pca = Pca::fit(&data, 2).unwrap();
        assert!(pca.transform_row(&[1.0, 2.0]).is_err());
        assert!(pca.transform(&DMatrix::zeros(3, 4)).is_err());
    }

    #[test]
    fn component_directions_are_unit_norm() {
        let data = planar_data(150);
        let pca = Pca::fit(&data, 3).unwrap();
        for c in 0..3 {
            let n: f64 = pca
                .components()
                .col(c)
                .iter()
                .map(|x| x * x)
                .sum::<f64>()
                .sqrt();
            assert!((n - 1.0).abs() < 1e-9, "component {c} norm {n}");
        }
    }

    /// Rolling-sum-like buffers of `len` values: a seeded random walk, a
    /// noisy sine, uniform noise, and zero stretches (of both signs) between
    /// ±1 pulses whose column sums are exactly zero, so the centred rows
    /// hold exact `±0.0` entries.
    fn fan_out_buffers(len: usize) -> Vec<(&'static str, Vec<f64>)> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let mut level = 0.0;
        let walk = (0..len)
            .map(|_| {
                level += rng.gen_range(-1.0..1.0);
                level
            })
            .collect();
        let periodic = (0..len)
            .map(|i| (i as f64 * 0.21).sin() * 3.0 + rng.gen_range(-0.2..0.2))
            .collect();
        let noise = (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let stretches = (0..len)
            .map(|i| match i % 40 {
                20..=24 => 1.0,
                30..=34 => -1.0,
                p if p % 2 == 0 => 0.0,
                _ => -0.0,
            })
            .collect();
        vec![
            ("walk", walk),
            ("periodic", periodic),
            ("noise", noise),
            ("stretches", stretches),
        ]
    }

    fn pca_bits(pca: &Pca) -> Vec<u64> {
        let mut bits: Vec<u64> = pca.mean().iter().map(|x| x.to_bits()).collect();
        bits.extend(pca.components().as_slice().iter().map(|x| x.to_bits()));
        bits.extend(pca.explained_variance().iter().map(|x| x.to_bits()));
        bits.push(pca.total_variance().to_bits());
        bits
    }

    #[test]
    fn fan_out_gram_is_bit_identical_on_every_thread_count() {
        let d = 24;
        // A multiple of the pulse period, so every column of the stretch
        // buffer sums to exactly zero.
        let n = 1_200;
        for (name, buffer) in fan_out_buffers(n + d - 1) {
            let rows: Vec<Vec<f64>> = (0..n).map(|i| buffer[i..i + d].to_vec()).collect();
            let full_gram = Pca::fit(&DMatrix::from_rows(&rows).unwrap(), 3).unwrap();
            let expected = pca_bits(&full_gram);
            if name == "stretches" {
                assert!(full_gram.mean().iter().all(|m| *m == 0.0));
            }
            for threads in [1, 2, 3, 4, 7] {
                let fanned = Pca::fit_sliding_covariance_on(&buffer, n, d, 3, threads).unwrap();
                assert_eq!(pca_bits(&fanned), expected, "{name} on {threads} threads");
            }
        }
    }

    #[test]
    fn fan_out_gram_is_bit_identical_around_the_cutoff() {
        // `fit_sliding_covariance` leaves the calling thread from `cutoff`
        // windows on.
        let d = 64;
        let cutoff = (2 * MIN_GRAM_TERMS_PER_THREAD).div_ceil(d * (d + 1) / 2);
        for (name, buffer) in fan_out_buffers(cutoff + 2 + d) {
            for n in cutoff - 1..=cutoff + 1 {
                assert_eq!(
                    pca_bits(&Pca::fit_sliding_covariance(&buffer, n, d, 3).unwrap()),
                    pca_bits(&Pca::fit_sliding_covariance_on(&buffer, n, d, 3, 1).unwrap()),
                    "{name} at {n} windows"
                );
            }
        }
    }

    /// Width-`d`, 3-component PCAs built from parts: random means and
    /// directions, and one whose means are exact `±0.0` and whose directions
    /// hold exact `±0.0` entries.
    fn kernel_pcas(d: usize) -> Vec<(&'static str, Pca)> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(d as u64);
        let mut random =
            |len: usize| -> Vec<f64> { (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect() };
        let signed_zero = |i: usize| if i.is_multiple_of(2) { 0.0 } else { -0.0 };
        let mean = random(d).into_iter().map(|m| m * 3.0).collect();
        let sparse = random(3 * d)
            .into_iter()
            .enumerate()
            .map(|(i, c)| if i % 3 == 1 { signed_zero(i) } else { c })
            .collect();
        let part = |mean, components| {
            let components = DMatrix::from_vec(d, 3, components).unwrap();
            Pca::from_parts(mean, components, vec![1.0; 3], 3.0).unwrap()
        };
        vec![
            ("random", part(mean, random(3 * d))),
            ("zero-mean", part((0..d).map(signed_zero).collect(), sparse)),
        ]
    }

    fn windowed_bits<const K: usize>(pca: &Pca, windows: &[f64], n: usize) -> Vec<u64> {
        let mut bits = Vec::new();
        pca.transform_windows(windows, n, |out: [f64; K]| {
            bits.extend(out.map(f64::to_bits))
        })
        .unwrap();
        bits
    }

    #[test]
    fn windowed_projection_is_bit_identical_to_transform_row() {
        let r = WINDOW_LANES;
        for d in [1, 2, 34, 75, 120] {
            for (pca_name, pca) in kernel_pcas(d) {
                for n in [0, 1, r - 1, r, r + 1, 10 * r + 3] {
                    let mut buffers = fan_out_buffers(n + d - 1);
                    // Huge and tiny magnitudes side by side, so any change
                    // in summation order shows in the low bits.
                    let large = (0..n + d - 1)
                        .map(|i| match i % 3 {
                            0 => 1e150 * (i as f64 * 0.7).sin(),
                            1 => -3e-150 * i as f64,
                            _ => 7.5e12 + i as f64,
                        })
                        .collect();
                    buffers.push(("large", large));
                    for (name, buffer) in buffers {
                        let per_row: Vec<u64> = (0..n)
                            .flat_map(|i| pca.transform_row(&buffer[i..i + d]).unwrap())
                            .map(f64::to_bits)
                            .collect();
                        assert_eq!(
                            windowed_bits::<3>(&pca, &buffer, n),
                            per_row,
                            "{pca_name} PCA, {name} buffer, d = {d}, n = {n}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn windowed_projection_validates_shapes() {
        let data = planar_data(60);
        let pca = Pca::fit(&data, 2).unwrap();
        let buffer: Vec<f64> = (0..30).map(|i| i as f64).collect();
        // 26 windows of width 5 span all 30 values; 27 would need 31.
        assert_eq!(windowed_bits::<2>(&pca, &buffer, 26).len(), 52);
        assert!(pca
            .transform_windows(&buffer, 27, |_: [f64; 2]| ())
            .is_err());
        assert!(pca.transform_windows(&buffer, 3, |_: [f64; 3]| ()).is_err());
        assert!(pca.transform_windows(&[], 0, |_: [f64; 2]| ()).is_ok());
    }

    #[test]
    fn triangle_rows_cover_the_rows_in_order() {
        for d in 1..40 {
            for parts in 1..9 {
                let ranges = triangle_rows(d, parts);
                assert!(ranges.len() <= parts);
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges.last().unwrap().end, d);
                assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
            }
        }
    }
}
