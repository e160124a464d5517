//! In-process scoring oracle.
//!
//! `Series2Graph::anomaly_scores` is checked bit for bit against two other
//! paths over the same seeded random series:
//!
//! * a reference that takes no shortcut: every window is projected on its
//!   own with `Pca::transform_row`, rotated, assigned to a node with the
//!   ray's unit vector rebuilt from its angle, and walked through the CSR
//!   view; the library's profile functions then turn the contributions into
//!   scores. The projected trajectories, the one `Embedding::fit` returns
//!   on the training series included, are compared too;
//! * a `StreamingScorer` fed the series one point at a time. A streaming
//!   session sums each window's contributions directly instead of through
//!   prefix sums, so it is compared where the two agree exactly: the
//!   transition it completes on every push, and each emitted normality
//!   against the same direct sum over the reference contributions.
//!
//! Series are shorter than, as long as and longer than the training series.
//!
//! A last check guards the model's size: a fitted model keeps no training
//! trajectory, so its file is the graph plus the embedding basis.

use series2graph::core::embedding::Embedding;
use series2graph::core::nodes::NodeSet;
use series2graph::core::scoring;
use series2graph::datasets::srw::{generate_srw, SrwConfig};
use series2graph::engine::codec::{self, SectionKind};
use series2graph::linalg::vector::{Vec2, Vec3};
use series2graph::prelude::*;
use series2graph::timeseries::stats::rolling_sum;

const TRAIN_LEN: usize = 2_400;

fn srw(length: usize, seed: u64) -> TimeSeries {
    generate_srw(SrwConfig {
        length,
        num_anomalies: 2,
        noise_ratio: 0.05,
        anomaly_length: 120,
        seed,
    })
    .series
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// The node of `point`, with the ray's unit vector rebuilt from its angle
/// on every call.
fn reference_assign(nodes: &NodeSet, point: Vec2) -> usize {
    let rate = nodes.rate();
    let step = std::f64::consts::TAU / rate as f64;
    let base_ray = ((point.angle() / step).round() as usize) % rate;
    for offset in 0..=(rate / 2) {
        for ray in [
            (base_ray + offset) % rate,
            (base_ray + rate - offset) % rate,
        ] {
            if nodes.ray_nodes(ray).is_empty() {
                continue;
            }
            let radius = point.dot(&Vec2::from_angle(ray as f64 * step));
            return nodes.nearest_node(ray, radius).expect("the ray has nodes");
        }
    }
    panic!("a fitted node set is never empty");
}

/// The embedded trajectory of `series`, one window at a time.
fn reference_points(model: &Series2Graph, series: &TimeSeries) -> Vec<Vec2> {
    let embedding = model.embedding();
    let dim = embedding.pattern_length - embedding.lambda;
    let conv = rolling_sum(series.values(), embedding.lambda);
    let windows = series.len() - embedding.pattern_length + 1;
    (0..windows)
        .map(|i| {
            let reduced = embedding.pca().transform_row(&conv[i..i + dim]).unwrap();
            let rotated = embedding.rotation().apply(Vec3::from_slice(&reduced));
            Vec2::new(rotated.y, rotated.z)
        })
        .collect()
}

fn point_bits(points: &[Vec2]) -> Vec<(u64, u64)> {
    points
        .iter()
        .map(|p| (p.x.to_bits(), p.y.to_bits()))
        .collect()
}

/// Checks one model and query length on one series; returns the number of
/// scored windows.
fn check(model: &Series2Graph, series: &TimeSeries, query_length: usize) -> usize {
    let ell = model.pattern_length();
    let context = format!("ℓ = {ell}, ℓq = {query_length}, {} points", series.len());
    // Scores hide a change in the low bits of a point unless it moves the
    // point to another node, so the trajectory is compared first.
    let points = reference_points(model, series);
    assert_eq!(
        point_bits(&model.embedding().project(series).unwrap()),
        point_bits(&points),
        "trajectory, {context}"
    );
    let nodes: Vec<usize> = points
        .iter()
        .map(|&p| reference_assign(model.node_set(), p))
        .collect();
    let transitions: Vec<(usize, usize)> = nodes.windows(2).map(|w| (w[0], w[1])).collect();
    let csr = model.graph().csr();
    let contributions: Vec<f64> = transitions
        .iter()
        .map(|&(from, to)| csr.contribution(from, to))
        .collect();

    let mut normality = scoring::normality_profile(&contributions, ell, query_length);
    if model.config().smooth_scores {
        normality = scoring::smooth_profile(&normality, ell);
    }
    let anomaly = scoring::anomaly_profile(&normality);
    assert_eq!(
        bits(&model.normality_scores(series, query_length).unwrap()),
        bits(&normality),
        "normality, {context}"
    );
    assert_eq!(
        bits(&model.anomaly_scores(series, query_length).unwrap()),
        bits(&anomaly),
        "anomaly, {context}"
    );

    let gaps = query_length - ell;
    let mut stream = StreamingScorer::new(model.clone(), query_length).unwrap();
    let mut streamed = Vec::with_capacity(transitions.len());
    let mut emitted = 0;
    for (consumed, &value) in (1..).zip(series.values()) {
        let out = stream.push(value).unwrap();
        if consumed > ell {
            streamed.push(
                stream
                    .last_transition()
                    .expect("fitted nodes always assign"),
            );
        }
        if let Some((start, score)) = out {
            assert_eq!(start, emitted, "window order, {context}");
            let direct = contributions[start..start + gaps].iter().sum::<f64>();
            assert_eq!(
                score.to_bits(),
                (direct / query_length as f64).to_bits(),
                "streamed window {start}, {context}"
            );
            emitted += 1;
        }
    }
    assert_eq!(streamed, transitions, "streamed transitions, {context}");
    assert_eq!(emitted, series.len() - query_length + 1, "{context}");
    emitted
}

#[test]
fn batch_scores_match_the_reference_and_a_streaming_session() {
    let configs = [
        (S2gConfig::new(50), 75),
        (
            S2gConfig::new(64).with_lambda(12).with_smoothing(false),
            100,
        ),
    ];
    for (seed, (config, query_length)) in (1u64..).zip(configs) {
        let train = srw(TRAIN_LEN, seed);
        let model = Series2Graph::fit(&train, &config).unwrap();
        assert!(
            model.embedding().points.is_empty(),
            "a fitted model keeps no trajectory, seed {seed}"
        );
        let fitted = Embedding::fit(&train, &config).unwrap();
        assert_eq!(
            point_bits(&fitted.points),
            point_bits(&reference_points(&model, &train)),
            "fitted trajectory, seed {seed}"
        );
        assert_eq!(model.train_len(), TRAIN_LEN);
        for (offset, length) in (0u64..).zip([1_700, TRAIN_LEN, 3_100]) {
            let series = srw(length, 100 * seed + offset);
            let scored = check(&model, &series, query_length);
            assert_eq!(scored, length - query_length + 1);
        }
    }
}

#[test]
fn a_200k_point_model_file_is_the_graph_and_the_basis() {
    let train = srw(200_000, 9);
    let model = Series2Graph::fit(&train, &S2gConfig::new(50)).unwrap();
    let bytes = codec::encode_model(&model);
    // The per-gap training contributions are 1.6 MB of this; the
    // trajectory older formats stored would add another 3.2 MB.
    assert!(
        bytes.len() <= 1_700_000,
        "a 200k-point model encodes to {} bytes",
        bytes.len()
    );
    let index = codec::parse_section_index(&bytes).unwrap();
    assert!(
        index
            .entries()
            .iter()
            .all(|entry| entry.kind.tag() != SectionKind::Points.tag()),
        "the section index lists a points section"
    );
}
