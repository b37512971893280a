//! `sample-tabular` and `sample-highdim`: back-to-back offline sample calls
//! — CSV text → GBABS → CSV text, as `gbabs sample` runs minus the disk.

use crate::inputs::{catalog_split, permutation, RHO};
use crate::report::{median, ms_since, peak_rss_mb, timed, Report};
use crate::Run;
use crate::{layers, serve};
use gb_dataset::catalog::DatasetId;
use gb_dataset::io::{read_csv_str, write_csv_str, CsvOptions};
use gb_dataset::{Dataset, GranulationBackend};
use gbabs::diagnostics::verify_rdgbg_invariants;
use gbabs::{
    borderline_from_model, gbabs, rd_gbg_with_progress, GbKnn, GbabsSampler, ProgressEvent,
    RdGbgConfig, RdGbgModel, Sampler,
};
use std::time::Instant;

/// Input shape of one sample workload.
pub struct SampleSpec {
    pub id: DatasetId,
    /// Rows generated before the split; the train split (what is sampled)
    /// is [`crate::inputs::TEST_FRACTION`] smaller.
    pub total_rows: usize,
    /// Calls per second of `--seconds`: more calls than fit in `--seconds`
    /// on the recording host, whose speed switches between two levels
    /// every few seconds; more calls average more of those switches.
    pub calls_per_s: f64,
}

/// Set-ups per run (each runs one untimed sample call).
const SETUPS: usize = 3;

/// S10 (magic-like, p = 10, 2 classes): 9 510 train rows.
pub const TABULAR: SampleSpec = SampleSpec {
    id: DatasetId::S10,
    total_rows: 11_888,
    calls_per_s: 1.0,
};

/// S13 (USPS-like, p = 256, 10 classes): 2 801 train rows.
pub const HIGHDIM: SampleSpec = SampleSpec {
    id: DatasetId::S13,
    total_rows: 3_500,
    calls_per_s: 0.7,
};

/// Everything a timed call needs, built during set-up.
struct Prepared {
    csv: String,
    n_rows: usize,
    test: Dataset,
    config: RdGbgConfig,
    /// The warm-up call's output, which every timed call must repeat.
    expected_rows: Vec<usize>,
    expected_csv: String,
    /// The warm-up call's input and model, for the invariant check.
    warm_data: Dataset,
    warm_model: RdGbgModel,
}

fn setup(spec: &SampleSpec, seed: u64) -> Prepared {
    let split = catalog_split(spec.id, spec.total_rows);
    let csv = write_csv_str(
        &split
            .train
            .select(&permutation(split.train.n_samples(), seed)),
    );
    let config = RdGbgConfig {
        seed,
        ..RdGbgConfig::with_rho(RHO)
    };
    let data = read_csv_str(&csv, &CsvOptions::default()).expect("generated CSV parses");
    let warm = gbabs(&data, &config);
    let expected_csv = write_csv_str(&warm.sampled_dataset(&data));
    Prepared {
        n_rows: split.train.n_samples(),
        csv,
        test: split.test,
        config,
        expected_rows: warm.sampled_rows,
        expected_csv,
        warm_data: data,
        warm_model: warm.model,
    }
}

/// Output of one call: kept rows and rendered CSV.
type CallOutput = Result<(Vec<usize>, String), String>;

/// The call `gbabs sample` makes, through the public sampler.
fn call(p: &Prepared) -> CallOutput {
    let data = read_csv_str(&p.csv, &CsvOptions::default()).map_err(|e| e.to_string())?;
    let sampler = GbabsSampler {
        density_tolerance: p.config.density_tolerance,
        backend: p.config.backend,
        metric: p.config.metric,
    };
    let out = sampler.sample(&data, p.config.seed);
    let csv = write_csv_str(&out.dataset);
    Ok((out.kept_rows.unwrap_or_default(), csv))
}

/// Per-layer timings of traced calls.
#[derive(Default)]
struct Trace {
    parse: Vec<f64>,
    rdgbg: Vec<f64>,
    borderline: Vec<f64>,
    render: Vec<f64>,
    last_granulate: Option<ProgressEvent>,
    borderline_balls: usize,
}

/// The same call split at its layer boundaries: parse, RD-GBG (with a
/// progress sink), borderline pass, render.
fn traced_call(p: &Prepared, trace: &mut Trace) -> CallOutput {
    let (data, ms) = timed(|| read_csv_str(&p.csv, &CsvOptions::default()));
    trace.parse.push(ms);
    let data = data.map_err(|e| e.to_string())?;
    let mut last = None;
    let mut sink = |e: &ProgressEvent| last = Some(e.clone());
    let (model, ms) = timed(|| rd_gbg_with_progress(&data, &p.config, Some(&mut sink)));
    trace.rdgbg.push(ms);
    trace.last_granulate = last;
    let ((rows, balls), ms) = timed(|| borderline_from_model(&data, &model));
    trace.borderline.push(ms);
    trace.borderline_balls = balls.len();
    let (csv, ms) = timed(|| write_csv_str(&data.select(&rows)));
    trace.render.push(ms);
    Ok((rows, csv))
}

/// 1-NN fitted on the sampled rows, scored on the clean test split.
fn holdout_acc(sampled: &Dataset, test: &Dataset) -> f64 {
    let index = GranulationBackend::Auto.build(sampled);
    let hits = (0..test.n_samples())
        .filter(|&r| {
            index
                .nearest_sq(test.row(r), None)
                .is_some_and(|nb| sampled.label(nb.row) == test.label(r))
        })
        .count();
    hits as f64 / test.n_samples() as f64
}

pub fn run(spec: &SampleSpec, run: &Run) -> Report {
    let mut report = Report::default();
    let (p, first_setup_s) = run.setup(|| setup(spec, run.seed));
    // The set-up's warm-up call is one whole sample call, which is what one
    // `gbabs sample` process runs; later calls in this process only add
    // allocator fragmentation to the high-water mark.
    report.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
    let invariants = verify_rdgbg_invariants(&p.warm_data, &p.warm_model);
    report.check(invariants.is_ok(), || {
        format!(
            "first call's cover invariants: {}",
            invariants.clone().unwrap_err()
        )
    });

    let calls = run.ops(spec.calls_per_s);
    let mut trace = Trace::default();
    let mut call_ms = Vec::with_capacity(calls);
    for i in 0..calls {
        let t = Instant::now();
        let out = if run.trace {
            traced_call(&p, &mut trace)
        } else {
            call(&p)
        };
        call_ms.push(ms_since(t));
        let ok =
            matches!(&out, Ok((rows, csv)) if *rows == p.expected_rows && *csv == p.expected_csv);
        report.check(ok, || match &out {
            Err(e) => format!("call {i}: {e}"),
            Ok((rows, _)) => format!(
                "call {i}: {} rows sampled, the first call sampled {}",
                rows.len(),
                p.expected_rows.len()
            ),
        });
    }

    report.e2e(
        "rows_per_s",
        (p.n_rows * calls) as f64 / (call_ms.iter().sum::<f64>() / 1e3),
        "rows/s",
    );
    report.e2e("op_p50_ms", median(&mut call_ms), "ms");
    let sampled = p.warm_data.select(&p.expected_rows);
    report.e2e("holdout_acc", holdout_acc(&sampled, &p.test), "fraction");
    report.note(format!(
        "{} train rows x p={}: {calls} timed calls, {} rows sampled",
        p.n_rows,
        p.warm_data.n_features(),
        p.expected_rows.len(),
    ));
    let setup_s = run.setup_s(first_setup_s, SETUPS, || setup(spec, run.seed), drop);
    report.e2e("setup_s", setup_s, "s");

    if run.trace {
        report.layer("io.parse_ms", median(&mut trace.parse), "ms");
        report.layer("io.render_ms", median(&mut trace.render), "ms");
        report.layer("rdgbg.call_ms", median(&mut trace.rdgbg), "ms");
        layers::rdgbg_counts(trace.last_granulate.as_ref(), &p.warm_model, &mut report);
        report.layer("borderline.call_ms", median(&mut trace.borderline), "ms");
        report.layer("borderline.balls", trace.borderline_balls as f64, "count");
        report.layer(
            "borderline.sampled_rows",
            p.expected_rows.len() as f64,
            "count",
        );
        layers::index(&p.warm_data, &mut report);
        layers::kernel(&p.warm_data, &mut report);
        // Nothing is served or appended here: the serving and ingest layers
        // are probed with this workload's cover and rows, so every workload
        // reports every layer.
        let dim = p.warm_data.n_features();
        let batches = serve::test_batches(&p.test, run.seed);
        let gbknn = GbKnn::from_model(&p.warm_model, p.warm_data.n_classes(), 1);
        layers::gbknn_predict(&gbknn, &batches, dim, &mut report);
        serve::routed_probe(run, &p.warm_model, &batches, dim, |_| true, &mut report);
        let appends = serve::replay_batches(spec.id, serve::REPLAY_APPENDS, run.seed);
        layers::ingest(run, &p.warm_data, &appends, &mut report);
    }
    report
}
