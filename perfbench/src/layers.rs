//! Offline per-layer probes: the benchmark times calls into each layer's
//! public functions on the workload's own rows, outside the end-to-end
//! timing. Every probe does a fixed amount of work.

use crate::inputs::RHO;
use crate::report::{median, ms_since, timed, Report};
use crate::Run;
use gb_dataset::distance::{calibrated_leaf_size, sq_dist_block};
use gb_dataset::io::{read_csv_str, write_csv_str, CsvOptions};
use gb_dataset::{active_kernel, Dataset, GranulationBackend, Metric, CONTRACT_VERSION};
use gb_serve::registry::{CreateOptions, LoadOptions};
use gb_serve::store::MaintainedTenant;
use gb_serve::{ModelRegistry, ModelStore};
use gbabs::{
    borderline_from_model, rd_gbg_with_progress, GbKnn, MaintainedModel, ProgressEvent,
    RdGbgConfig, RdGbgModel,
};
use std::hint::black_box;
use std::time::Instant;

/// Samples per probe; each metric is the median of these.
const SAMPLES: usize = 5;
/// Scalar multiply-adds per kernel sample (queries × rows × p).
const KERNEL_WORK: usize = 200_000_000;

/// `kernel.ns_per_pair`: the dispatched blocked kernel over a 32-query tile
/// against up to 2048 of the workload's rows, at the workload's width.
pub fn kernel(data: &Dataset, report: &mut Report) {
    let p = data.n_features();
    let n_rows = data.n_samples().min(2048);
    let n_queries = n_rows.min(32);
    let block = &data.features()[..n_rows * p];
    let queries = &data.features()[..n_queries * p];
    let mut out = vec![0.0; n_queries * n_rows];
    let pairs = n_queries * n_rows;
    let reps = KERNEL_WORK.div_ceil(pairs * p);
    let mut ns = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let t = Instant::now();
        for _ in 0..reps {
            sq_dist_block(black_box(queries), black_box(block), p, &mut out);
            black_box(&mut out);
        }
        ns.push(t.elapsed().as_secs_f64() * 1e9 / (reps * pairs) as f64);
    }
    report.layer("kernel.ns_per_pair", median(&mut ns), "ns");
    report.note(format!(
        "kernel: tier {} contract v{CONTRACT_VERSION}, p={p}, {n_queries}x{n_rows} tile x{reps}",
        active_kernel().name()
    ));
}

/// `index.build_ms` and `index.knn_us_per_query`: the `Auto` backend built
/// over the workload rows, then one k = ρ query per row (self excluded).
pub fn index(data: &Dataset, report: &mut Report) {
    let (n, p) = (data.n_samples(), data.n_features());
    let mut build = Vec::with_capacity(SAMPLES);
    let mut index = None;
    for _ in 0..SAMPLES {
        let t = Instant::now();
        index = Some(GranulationBackend::Auto.build_with(data, Metric::SqEuclidean));
        build.push(ms_since(t));
    }
    let index = index.expect("SAMPLES > 0");
    let t = Instant::now();
    for row in 0..n {
        black_box(index.k_nearest_sq(data.row(row), RHO, Some(row)));
    }
    let knn_us = t.elapsed().as_secs_f64() * 1e6 / n as f64;
    report.layer("index.build_ms", median(&mut build), "ms");
    report.layer("index.knn_us_per_query", knn_us, "us");
    report.note(format!(
        "index: auto resolved to {} at n={n} p={p}, leaf size {}",
        GranulationBackend::Auto.resolve(n, p).name(),
        calibrated_leaf_size(p)
    ));
}

/// `gbknn.predict_us_per_row`: `GbKnn::predict_batch` over the request row
/// sets the workload sends (row-major, `p` wide), one call per request.
pub fn gbknn_predict(model: &GbKnn, requests: &[Vec<f64>], p: usize, report: &mut Report) {
    let mut us_per_row: Vec<f64> = requests
        .iter()
        .map(|rows| {
            let t = Instant::now();
            black_box(model.predict_batch(black_box(rows), p));
            t.elapsed().as_secs_f64() * 1e6 / (rows.len() / p) as f64
        })
        .collect();
    report.layer("gbknn.predict_us_per_row", median(&mut us_per_row), "us");
}

/// `io.parse_ms` and `io.render_ms`: `read_csv_str` and `write_csv_str` of
/// the workload rows as CSV text, median per call.
pub fn io(data: &Dataset, report: &mut Report) {
    let csv = write_csv_str(data);
    let (mut parse, mut render) = (Vec::with_capacity(SAMPLES), Vec::with_capacity(SAMPLES));
    for _ in 0..SAMPLES {
        parse.push(timed(|| black_box(read_csv_str(&csv, &CsvOptions::default()))).1);
        render.push(timed(|| black_box(write_csv_str(data))).1);
    }
    report.layer("io.parse_ms", median(&mut parse), "ms");
    report.layer("io.render_ms", median(&mut render), "ms");
}

/// The exact RD-GBG counts of one call: the last `Granulate` event
/// (iterations, conflicts, noise rows) and the returned cover (balls and
/// orphan balls; the last event precedes the orphan phase).
pub fn rdgbg_counts(last: Option<&ProgressEvent>, model: &RdGbgModel, report: &mut Report) {
    let (iterations, conflicts, noise) = match last {
        Some(ProgressEvent::Granulate {
            iteration,
            conflicts,
            noise,
            ..
        }) => (f64::from(*iteration), *conflicts as f64, *noise as f64),
        _ => (0.0, 0.0, 0.0),
    };
    report.layer("rdgbg.iterations", iterations, "count");
    report.layer("rdgbg.conflicts", conflicts, "count");
    report.layer("rdgbg.noise_rows", noise, "count");
    report.layer("rdgbg.balls", model.balls.len() as f64, "count");
    report.layer("rdgbg.orphan_balls", model.orphan_count as f64, "count");
}

/// `rdgbg.*` and `borderline.*`: `rd_gbg_with_progress` and then
/// `borderline_from_model` on the workload rows, `reps` calls each (median
/// time); returns the cover.
pub fn granulation(
    data: &Dataset,
    config: &RdGbgConfig,
    reps: usize,
    report: &mut Report,
) -> RdGbgModel {
    let (mut rdgbg_ms, mut borderline_ms) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    let mut last = None;
    let mut model = None;
    for _ in 0..reps {
        let mut sink = |e: &ProgressEvent| last = Some(e.clone());
        let (m, ms) = timed(|| rd_gbg_with_progress(data, config, Some(&mut sink)));
        rdgbg_ms.push(ms);
        model = Some(m);
    }
    let model = model.expect("reps > 0");
    let mut out = None;
    for _ in 0..reps {
        let (o, ms) = timed(|| borderline_from_model(data, &model));
        borderline_ms.push(ms);
        out = Some(o);
    }
    let (rows, balls) = out.expect("reps > 0");
    report.layer("rdgbg.call_ms", median(&mut rdgbg_ms), "ms");
    rdgbg_counts(last.as_ref(), &model, report);
    report.layer("borderline.call_ms", median(&mut borderline_ms), "ms");
    report.layer("borderline.balls", balls.len() as f64, "count");
    report.layer("borderline.sampled_rows", rows.len() as f64, "count");
    model
}

/// Replays an append sequence offline, twice: through
/// `ModelRegistry::append_rows` on a fresh registry with a store, and
/// through its parts — `MaintainedModel::append`, `GbKnn::from_model` on
/// the new cover, `ModelStore::save_version` — to split ingest by layer.
/// `initial` creates the tenant; `batches` are (row-major features,
/// labels). Prints the residual of the split against the registry.
pub fn ingest(run: &Run, initial: &Dataset, batches: &[(Vec<f64>, Vec<u32>)], report: &mut Report) {
    const TENANT: &str = "replay";
    let (p, n_classes) = (initial.n_features(), initial.n_classes());
    let create = CreateOptions {
        rho: RHO,
        n_classes: Some(n_classes),
        load: LoadOptions::default(),
    };
    let store = ModelStore::open(run.scratch("replay-registry")).expect("open replay store");
    let (registry, _) = ModelRegistry::with_store(store, None).expect("scan the empty store");
    registry
        .append_rows(TENANT, initial.features(), initial.labels(), p, &create)
        .expect("replay tenant creation");
    let mut registry_ms = Vec::with_capacity(batches.len());
    for (j, (f, l)) in batches.iter().enumerate() {
        let (res, ms) = timed(|| registry.append_rows(TENANT, f, l, p, &create));
        registry_ms.push(ms);
        report.check(res.is_ok(), || {
            format!("registry replay append {j}: {:?}", res.err())
        });
    }
    drop(registry);

    let store = ModelStore::open(run.scratch("replay-store")).expect("open replay store");
    let options = LoadOptions {
        n_classes: Some(n_classes),
        ..LoadOptions::default()
    };
    let mut model = MaintainedModel::build(initial.clone(), RHO, GranulationBackend::Auto);
    let (mut append_ms, mut build_ms, mut save_ms, mut bytes) = (vec![], vec![], vec![], vec![]);
    let (mut reused, mut recomputed, mut full_rebuilds) = (0, 0, 0);
    for (f, l) in batches {
        let (stats, ms) = timed(|| model.append(f, l));
        append_ms.push(ms);
        reused += stats.reused_decisions;
        recomputed += stats.recomputed_decisions;
        full_rebuilds += usize::from(stats.full_rebuild);
        build_ms.push(timed(|| GbKnn::from_model(model.model(), n_classes, 1)).1);
        let tenant = MaintainedTenant {
            rho: RHO,
            n_features: p,
            features: model.data().features().to_vec(),
            labels: model.data().labels().to_vec(),
        };
        let (saved, ms) =
            timed(|| store.save_version(TENANT, model.model(), &options, n_classes, Some(&tenant)));
        save_ms.push(ms);
        bytes.push(saved.expect("save to the replay store").bytes as f64);
    }
    let registry_ms = median(&mut registry_ms);
    let split = [
        median(&mut append_ms),
        median(&mut build_ms),
        median(&mut save_ms),
    ];
    report.layer("registry.append_ms", registry_ms, "ms");
    report.layer("incremental.append_ms", split[0], "ms");
    report.layer(
        "incremental.reuse_ratio",
        reused as f64 / (reused + recomputed).max(1) as f64,
        "ratio",
    );
    report.layer("incremental.full_rebuilds", full_rebuilds as f64, "count");
    report.layer("gbknn.build_ms", split[1], "ms");
    report.layer("store.save_ms", split[2], "ms");
    report.layer("store.bytes_per_version", median(&mut bytes), "bytes");
    report.note(format!(
        "ingest replay: {} rows + {} appends; residual: registry.append_ms {registry_ms:.4} - \
         (incremental {:.4} + gbknn.build {:.4} + store.save {:.4}) = {:.4} ms",
        initial.n_samples(),
        batches.len(),
        split[0],
        split[1],
        split[2],
        registry_ms - split.iter().sum::<f64>()
    ));
}
