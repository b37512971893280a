//! Workload inputs. The catalog draw, its split and its label noise are
//! fixed: a new draw of a surrogate changes how hard it is to granulate (and
//! on S13 moves GB-kNN accuracy by tens of points), which would swamp the
//! run-to-run comparison. The workload seed draws everything else — row
//! order, the sampler's seed, request composition and order — so each seed
//! is a different input of the same size and difficulty.

use gb_dataset::catalog::DatasetId;
use gb_dataset::noise::inject_class_noise;
use gb_dataset::rng::rng_from_seed;
use gb_dataset::split::stratified_holdout;
use gb_dataset::Dataset;
use rand::seq::SliceRandom;

/// Share of class labels flipped in the train split.
pub const NOISE: f64 = 0.10;
/// Share of each class held out, clean, for `holdout_acc`.
pub const TEST_FRACTION: f64 = 0.20;
/// Density tolerance ρ (the paper's working value and every CLI default).
pub const RHO: usize = 5;
/// Generator seed of every catalog draw (the paper's arXiv number), and of
/// the served cover on `serve-routed`.
pub const DATA_SEED: u64 = 250_602_366;

/// A noisy train split and a clean stratified test split.
pub struct Split {
    pub train: Dataset,
    pub test: Dataset,
}

/// Draws `total_rows` rows of the `id` surrogate, holds out a clean
/// stratified test split and flips [`NOISE`] of the train labels.
pub fn catalog_split(id: DatasetId, total_rows: usize) -> Split {
    let scale = total_rows as f64 / id.info().samples as f64;
    let data = id.generate(scale, DATA_SEED);
    let (train_idx, test_idx) = stratified_holdout(&data, TEST_FRACTION, DATA_SEED);
    let (train, _flipped) = inject_class_noise(&data.select(&train_idx), NOISE, DATA_SEED);
    Split {
        train,
        test: data.select(&test_idx),
    }
}

/// `n_rows` further labelled rows of the `id` surrogate, drawn apart from
/// [`catalog_split`] and train-style ([`NOISE`] of the labels flipped), for
/// append streams.
pub fn fresh_rows(id: DatasetId, n_rows: usize) -> Dataset {
    let draw = |i: u64| {
        let seed = DATA_SEED + 1 + i;
        inject_class_noise(&id.generate(1.0, seed), NOISE, seed).0
    };
    let mut out = draw(0);
    let mut i = 1;
    while out.n_samples() < n_rows {
        out.extend_from(&draw(i));
        i += 1;
    }
    out.select(&(0..n_rows).collect::<Vec<_>>())
}

/// A permutation of `0..n` drawn from `seed`.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut rng_from_seed(seed));
    order
}

/// Row-major features and labels of `rows` of `data`.
pub fn gather(data: &Dataset, rows: impl IntoIterator<Item = usize>) -> (Vec<f64>, Vec<u32>) {
    let mut features = Vec::new();
    let mut labels = Vec::new();
    for r in rows {
        features.extend_from_slice(data.row(r));
        labels.push(data.label(r));
    }
    (features, labels)
}
