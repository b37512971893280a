//! `serve-mixed` and `serve-routed`: an in-process server (and router)
//! driven over real sockets by one client thread — one keep-alive
//! connection per role, never two requests in flight.

use crate::inputs::{catalog_split, fresh_rows, gather, permutation, Split, DATA_SEED, RHO};
use crate::layers;
use crate::report::{median, peak_rss_mb, quantile, timed, Report};
use crate::Run;
use gb_dataset::catalog::DatasetId;
use gb_dataset::{Dataset, GranulationBackend};
use gb_serve::{
    ClientResponse, HttpClient, ModelRegistry, ModelStore, Router, RouterConfig, RouterHandle,
    ServeConfig, Server, ServerHandle,
};
use gbabs::{canonical_rd_gbg, rd_gbg, GbKnn, RdGbgConfig, RdGbgModel};
use serde::Value;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

const TENANT: &str = "live";
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// serve-mixed: S5 (banana, p = 2) rows generated before the split.
const MIXED_TOTAL_ROWS: usize = 5_300;
/// Rows per `/rows` append.
const APPEND_ROWS: usize = 16;
/// `/predict` requests between two appends.
const PREDICTS_PER_APPEND: usize = 50;
/// Single-row predicts per second of `--seconds` on the recording host.
const MIXED_PREDICTS_PER_S: f64 = 900.0;
/// Set-ups per run: each takes tens of ms, most of it fsync, so take more.
const MIXED_SETUPS: usize = 25;

/// serve-routed: S13 (USPS-like, p = 256) rows generated before the split.
const ROUTED_TOTAL_ROWS: usize = 3_500;
/// Rows per routed `/predict` request.
const BATCH_ROWS: usize = 32;
/// Routed batches per second of `--seconds`: about 1.5× what the recording
/// host completes, so a run spans more of its speed switches (see
/// `sample::SampleSpec::calls_per_s`).
const ROUTED_REQUESTS_PER_S: f64 = 270.0;
/// Set-ups per run (each granulates S13 once).
const ROUTED_SETUPS: usize = 3;
/// Rows per request of the untimed verification pass.
const VERIFY_ROWS: usize = 256;

/// Calls per timed layer probe of RD-GBG and the borderline pass.
const PROBE_REPS: usize = 3;
/// Appends replayed through the ingest layers where the workload itself
/// sends none (each is a near-full rebuild on S13).
pub const REPLAY_APPENDS: usize = 4;
/// Single-row requests of the router probe on `serve-mixed`.
const ROUTER_PROBE_REQUESTS: usize = 300;

// ---------------------------------------------------------------------------
// Wire helpers
// ---------------------------------------------------------------------------

fn rows_json(features: &[f64], p: usize) -> String {
    let mut out = String::from("[");
    for (i, row) in features.chunks(p).enumerate() {
        out.push_str(if i == 0 { "[" } else { ",[" });
        for (j, v) in row.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{v}");
        }
        out.push(']');
    }
    out.push(']');
    out
}

fn predict_body(features: &[f64], p: usize) -> String {
    format!(
        "{{\"model\":\"{TENANT}\",\"rows\":{}}}",
        rows_json(features, p)
    )
}

/// A `/rows` body; `create` adds the tenant's creation options.
fn append_body(features: &[f64], labels: &[u32], p: usize, create: Option<usize>) -> String {
    let labels: Vec<String> = labels.iter().map(u32::to_string).collect();
    let mut body = format!(
        "{{\"rows\":{},\"labels\":[{}]",
        rows_json(features, p),
        labels.join(",")
    );
    if let Some(n_classes) = create {
        let _ = write!(
            body,
            ",\"n_classes\":{n_classes},\"rho\":{RHO},\"k\":1,\"rule\":\"surface\""
        );
    }
    body.push('}');
    body
}

/// One request on a keep-alive connection, tagged with `id`, and its
/// client round trip in ms.
fn exchange(
    conn: &mut HttpClient,
    path: &str,
    body: &str,
    id: &str,
) -> (std::io::Result<ClientResponse>, f64) {
    timed(|| {
        conn.send(
            "POST",
            path,
            Some(body),
            &[("X-Request-Id", id.to_string())],
        )
    })
}

fn json_of(resp: &std::io::Result<ClientResponse>) -> Option<Value> {
    match resp {
        Ok(r) if r.status == 200 => serde_json::from_str(&r.body).ok(),
        _ => None,
    }
}

fn num(v: &Value, path: &[&str]) -> Option<f64> {
    let mut cur = v;
    for key in path {
        cur = cur.get(key)?;
    }
    match cur {
        Value::Num(n) => Some(*n),
        Value::Bool(b) => Some(f64::from(u8::from(*b))),
        _ => None,
    }
}

fn predictions(v: &Value) -> Option<Vec<u32>> {
    match v.get("predictions")? {
        Value::Arr(items) => items
            .iter()
            .map(|x| match x {
                Value::Num(n) => Some(*n as u32),
                _ => None,
            })
            .collect(),
        _ => None,
    }
}

fn describe(resp: &std::io::Result<ClientResponse>) -> String {
    match resp {
        Ok(r) => format!(
            "HTTP {}: {}",
            r.status,
            r.body.chars().take(200).collect::<String>()
        ),
        Err(e) => format!("transport error: {e}"),
    }
}

fn get_json(conn: &mut HttpClient, path: &str) -> Value {
    let (status, body) = conn
        .request("GET", path, None)
        .expect("GET on a live server");
    assert_eq!(status, 200, "GET {path}: {body}");
    serde_json::from_str(&body).expect("JSON body")
}

/// Predicts every row of `test` through `conn` in untimed batches and
/// checks the answers against `offline`; returns the served accuracy.
fn verify_served(
    conn: &mut HttpClient,
    test: &Dataset,
    offline: &GbKnn,
    report: &mut Report,
) -> f64 {
    let p = test.n_features();
    let mut hits = 0usize;
    for (b, chunk) in test.features().chunks(VERIFY_ROWS * p).enumerate() {
        let resp = conn.send("POST", "/predict", Some(&predict_body(chunk, p)), &[]);
        let served = json_of(&resp).as_ref().and_then(predictions);
        let expected = offline.predict_batch(chunk, p);
        report.check(served.as_ref() == Some(&expected), || {
            format!(
                "verification batch {b}: served != offline GB-kNN ({})",
                describe(&resp)
            )
        });
        let first = b * VERIFY_ROWS;
        hits += served
            .unwrap_or_default()
            .iter()
            .enumerate()
            .filter(|&(i, &y)| y == test.label(first + i))
            .count();
    }
    hits as f64 / test.n_samples() as f64
}

fn access_log(run: &Run, dir: &Path, name: &str) -> Option<String> {
    run.trace
        .then(|| dir.join(name).to_string_lossy().into_owned())
}

fn boot_server(registry: ModelRegistry, log: Option<String>) -> ServerHandle {
    let config = ServeConfig {
        access_log: log,
        ..ServeConfig::default()
    };
    Server::bind(config, Arc::new(registry))
        .and_then(Server::start)
        .expect("boot gb-serve on an ephemeral port")
}

/// Closes the client connections first (a worker blocks on a keep-alive
/// connection until its client hangs up), then stops the router and the
/// server, joining their threads and flushing their access logs.
fn shut_down(conns: Vec<HttpClient>, router: Option<RouterHandle>, server: ServerHandle) {
    drop(conns);
    if let Some(router) = router {
        router.stop();
    }
    server.stop();
}

fn connect(addr: std::net::SocketAddr) -> HttpClient {
    HttpClient::connect(addr, IO_TIMEOUT).expect("connect to the in-process server")
}

/// Closed-loop client timings of one request kind.
#[derive(Default)]
struct Timings {
    /// (request id, client round trip ms).
    requests: Vec<(String, f64)>,
}

impl Timings {
    fn ms(&self) -> Vec<f64> {
        self.requests.iter().map(|r| r.1).collect()
    }

    fn p50(&self) -> f64 {
        median(&mut self.ms())
    }

    /// Client round trips at p50, p90 and p99 with the sample count, for
    /// the log: no gated metric uses a percentile above the median, which
    /// on the sample workloads would rest on a handful of calls.
    fn tail(&self, what: &str) -> String {
        let mut ms = self.ms();
        format!(
            "{what} round trip over {} requests: p50 {:.4} ms, p90 {:.4} ms, p99 {:.4} ms",
            ms.len(),
            quantile(&mut ms, 0.5),
            quantile(&mut ms, 0.9),
            quantile(&mut ms, 0.99)
        )
    }
}

// ---------------------------------------------------------------------------
// Traces: access logs and /metrics
// ---------------------------------------------------------------------------

/// One access-log line: total and per-stage µs.
struct Logged {
    total_us: f64,
    stages: HashMap<String, f64>,
}

impl Logged {
    fn stage_ms(&self, stage: &str) -> f64 {
        self.stages
            .get(&format!("{stage}_us"))
            .copied()
            .unwrap_or(0.0)
            / 1e3
    }

    fn unstaged_ms(&self) -> f64 {
        (self.total_us - self.stages.values().sum::<f64>()) / 1e3
    }
}

/// Reads a JSONL access log into id → record.
fn read_access_log(path: &str) -> HashMap<String, Logged> {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    text.lines()
        .filter_map(|line| {
            let v: Value = serde_json::from_str(line).ok()?;
            let Some(Value::Str(id)) = v.get("id") else {
                return None;
            };
            let stages = match v.get("stages") {
                Some(Value::Obj(fields)) => fields
                    .iter()
                    .filter_map(|(k, x)| match x {
                        Value::Num(n) => Some((k.clone(), *n)),
                        _ => None,
                    })
                    .collect(),
                _ => HashMap::new(),
            };
            Some((
                id.clone(),
                Logged {
                    total_us: num(&v, &["total_us"])?,
                    stages,
                },
            ))
        })
        .collect()
}

/// The log records of `timings`, in request order; a request missing from
/// the log is a failed check.
fn logged<'a>(
    log: &'a HashMap<String, Logged>,
    timings: &Timings,
    what: &str,
    report: &mut Report,
) -> Vec<(&'a Logged, f64)> {
    let found: Vec<_> = timings
        .requests
        .iter()
        .filter_map(|(id, ms)| log.get(id).map(|l| (l, *ms)))
        .collect();
    report.check(found.len() == timings.requests.len(), || {
        format!(
            "{what}: {} of {} requests in the access log",
            found.len(),
            timings.requests.len()
        )
    });
    found
}

fn med(xs: impl Iterator<Item = f64>) -> f64 {
    median(&mut xs.collect::<Vec<_>>())
}

/// Mean of the access-log times of `records`. The log keeps whole µs, so
/// a median of a sub-µs stage reads the same on every run; a mean keeps
/// its digits and adds up: Σ stage means + unstaged mean = total mean.
fn mean_ms(records: &[(&Logged, f64)], f: impl Fn(&Logged) -> f64) -> f64 {
    records.iter().map(|(l, _)| f(l)).sum::<f64>() / records.len().max(1) as f64
}

/// Server-side layers of the timed `/predict` requests: `server` (access
/// log of the serving shard), `batcher` and `gbknn` stages (means per
/// request), and the median wire time between the client and `front` (the
/// process it talks to).
fn predict_layers(
    shard: &[(&Logged, f64)],
    front: &[(&Logged, f64)],
    flush: (f64, f64),
    report: &mut Report,
) {
    let total = mean_ms(shard, |l| l.total_us / 1e3);
    let unstaged = mean_ms(shard, Logged::unstaged_ms);
    let stage = |name| mean_ms(shard, |l| l.stage_ms(name));
    let (queue, assemble) = (stage("queue_wait"), stage("batch_assemble"));
    let (predict, serialize) = (stage("predict"), stage("serialize"));
    report.layer("server.total_ms", total, "ms");
    report.layer("server.unstaged_ms", unstaged, "ms");
    report.layer("server.serialize_ms", serialize, "ms");
    report.layer(
        "http.wire_ms",
        med(front.iter().map(|(l, ms)| ms - l.total_us / 1e3)),
        "ms",
    );
    report.layer("batcher.queue_wait_ms", queue, "ms");
    report.layer("batcher.assemble_ms", assemble, "ms");
    report.layer("batcher.rows_per_flush", flush.0 / flush.1.max(1.0), "rows");
    report.layer("gbknn.predict_ms", predict, "ms");
    report.note(format!(
        "residual: server.total_ms {total:.4} - stage means (queue {queue:.4} + assemble \
         {assemble:.4} + predict {predict:.4} + serialize {serialize:.4}) = {:.4} ms \
         (HTTP parse and routing)",
        total - queue - assemble - predict - serialize
    ));
}

/// Batcher (rows, flushes) so far, from `/metrics`, on a connection of its
/// own: the server closes a keep-alive connection left idle for the length
/// of a run.
fn batcher_counts(addr: std::net::SocketAddr) -> (f64, f64) {
    let m = get_json(&mut connect(addr), "/metrics");
    (
        num(&m, &["batcher", "rows"]).unwrap_or(0.0),
        num(&m, &["batcher", "flushes"]).unwrap_or(0.0),
    )
}

fn request_bytes(bodies: &[String], report: &mut Report) {
    report.layer(
        "request.body_bytes",
        med(bodies.iter().map(|b| b.len() as f64)),
        "bytes",
    );
}

// ---------------------------------------------------------------------------
// serve-mixed
// ---------------------------------------------------------------------------

struct Mixed {
    split: Split,
    /// Append batches, in sending order, and their bodies.
    batches: Vec<(Vec<f64>, Vec<u32>)>,
    append_bodies: Vec<String>,
    /// One single-row body per test row, in a seeded order.
    predict_bodies: Vec<String>,
    server: ServerHandle,
    predicts: HttpClient,
    appends: HttpClient,
    log: Option<String>,
}

fn mixed_setup(run: &Run, n_appends: usize) -> Mixed {
    let split = catalog_split(DatasetId::S5, MIXED_TOTAL_ROWS);
    let p = split.train.n_features();
    let n_classes = split.train.n_classes();
    let batches = replay_batches(DatasetId::S5, n_appends, run.seed);
    let append_bodies = batches
        .iter()
        .map(|(f, l)| append_body(f, l, p, None))
        .collect();
    let predict_bodies = permutation(split.test.n_samples(), run.seed ^ 0x0bde)
        .iter()
        .map(|&r| predict_body(split.test.row(r), p))
        .collect();

    let dir = run.scratch("serve-mixed");
    let store = ModelStore::open(dir.join("store")).expect("open the model store");
    let (registry, _) = ModelRegistry::with_store(store, None).expect("scan the empty store");
    let log = access_log(run, &dir, "access.jsonl");
    let server = boot_server(registry, log.clone());
    let mut predicts = connect(server.addr());
    let mut appends = connect(server.addr());
    let create = append_body(
        split.train.features(),
        split.train.labels(),
        p,
        Some(n_classes),
    );
    let resp = appends.send(
        "POST",
        &format!("/models/{TENANT}/rows"),
        Some(&create),
        &[],
    );
    let created = json_of(&resp).and_then(|v| num(&v, &["n_rows"]));
    assert_eq!(
        created,
        Some(split.train.n_samples() as f64),
        "tenant creation: {}",
        describe(&resp)
    );
    let warm = predicts.send(
        "POST",
        "/predict",
        Some(&predict_body(split.test.row(0), p)),
        &[],
    );
    assert!(
        json_of(&warm).is_some(),
        "warm-up predict: {}",
        describe(&warm)
    );
    Mixed {
        split,
        batches,
        append_bodies,
        predict_bodies,
        server,
        predicts,
        appends,
        log,
    }
}

pub fn mixed(run: &Run) -> Report {
    let mut report = Report::default();
    let n_predicts = run.ops(MIXED_PREDICTS_PER_S);
    let n_appends = (n_predicts / PREDICTS_PER_APPEND).max(1);
    let (mut s, first_setup_s) = run.setup(|| mixed_setup(run, n_appends));
    let before = run.trace.then(|| batcher_counts(s.server.addr()));

    let rows_path = format!("/models/{TENANT}/rows");
    let base_rows = s.split.train.n_samples();
    let (mut predicts, mut appends) = (Timings::default(), Timings::default());
    for i in 0..n_predicts {
        let id = format!("p-{i}");
        let (resp, ms) = exchange(
            &mut s.predicts,
            "/predict",
            &s.predict_bodies[i % s.predict_bodies.len()],
            &id,
        );
        predicts.requests.push((id, ms));
        let ok = json_of(&resp)
            .and_then(|v| predictions(&v))
            .is_some_and(|p| p.len() == 1);
        report.check(ok, || format!("predict {i}: {}", describe(&resp)));

        let j = appends.requests.len();
        let due = (i + 1) % PREDICTS_PER_APPEND == 0 || i + 1 == n_predicts;
        if due && j < n_appends {
            let id = format!("a-{j}");
            let (resp, ms) = exchange(&mut s.appends, &rows_path, &s.append_bodies[j], &id);
            appends.requests.push((id, ms));
            let want = (base_rows + (j + 1) * APPEND_ROWS) as f64;
            let n_rows = json_of(&resp).and_then(|v| num(&v, &["n_rows"]));
            report.check(n_rows == Some(want), || {
                format!(
                    "append {j}: ack n_rows {n_rows:?}, expected {want} ({})",
                    describe(&resp)
                )
            });
        }
    }
    let after = run.trace.then(|| batcher_counts(s.server.addr()));

    // Every timed request counts towards throughput, appends included, so
    // ingest work shows even where it does not reach the predict tail.
    let rows = n_predicts + APPEND_ROWS * appends.requests.len();
    let busy_ms = predicts.ms().iter().chain(&appends.ms()).sum::<f64>();
    report.e2e("rows_per_s", 1e3 * rows as f64 / busy_ms, "rows/s");
    report.e2e("op_p50_ms", predicts.p50(), "ms");
    report.note(predicts.tail("/predict"));
    report.note(appends.tail("/rows"));

    // Served ≡ offline: GB-kNN over the canonical rebuild of every row the
    // tenant now holds, in the order it received them.
    let p = s.split.train.n_features();
    let n_classes = s.split.train.n_classes();
    let mut all = s.split.train.clone();
    for (f, l) in &s.batches {
        all.extend_from(&Dataset::from_parts(f.clone(), l.clone(), p, n_classes));
    }
    let offline = GbKnn::from_model(
        &canonical_rd_gbg(&all, RHO, GranulationBackend::Auto),
        n_classes,
        1,
    );
    let acc = verify_served(&mut s.predicts, &s.split.test, &offline, &mut report);
    report.e2e("holdout_acc", acc, "fraction");
    report.note(format!(
        "tenant {base_rows} -> {} rows; {n_predicts} single-row predicts, {} appends of {APPEND_ROWS} rows",
        all.n_samples(),
        appends.requests.len()
    ));

    let Mixed {
        server,
        predicts: predict_conn,
        appends: append_conn,
        log,
        ..
    } = s;
    shut_down(vec![predict_conn, append_conn], None, server);
    report.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
    let log = log.map(|path| read_access_log(&path));
    let setup_s = run.setup_s(
        first_setup_s,
        MIXED_SETUPS,
        || mixed_setup(run, n_appends),
        |s| shut_down(vec![s.predicts, s.appends], None, s.server),
    );
    report.e2e("setup_s", setup_s, "s");

    if let (Some(log), Some(before), Some(after)) = (log, before, after) {
        let served = logged(&log, &predicts, "predict", &mut report);
        predict_layers(
            &served,
            &served,
            (after.0 - before.0, after.1 - before.1),
            &mut report,
        );
        let ingested = logged(&log, &appends, "append", &mut report);
        report.note(format!(
            "server.ingest_ms (access-log ingest stage, mean) {:.4}",
            mean_ms(&ingested, |l| l.stage_ms("ingest"))
        ));
        layers::ingest(run, &s.split.train, &s.batches, &mut report);
        let requests: Vec<Vec<f64>> = s
            .split
            .test
            .features()
            .chunks(p)
            .map(<[f64]>::to_vec)
            .collect();
        layers::gbknn_predict(&offline, &requests, p, &mut report);
        layers::kernel(&all, &mut report);
        request_bytes(&s.predict_bodies, &mut report);
        layers::io(&s.split.train, &mut report);
        let config = RdGbgConfig {
            seed: run.seed,
            ..RdGbgConfig::with_rho(RHO)
        };
        let cover = layers::granulation(&s.split.train, &config, PROBE_REPS, &mut report);
        layers::index(&s.split.train, &mut report);
        // No router on this workload: its layer is probed with the same
        // single-row requests against an RD-GBG cover of the train split.
        let probe = &requests[..requests.len().min(ROUTER_PROBE_REQUESTS)];
        routed_probe(
            run,
            &cover,
            probe,
            p,
            |name| name.starts_with("router."),
            &mut report,
        );
    }
    report
}

// ---------------------------------------------------------------------------
// serve-routed, and the routed probe of the other workloads
// ---------------------------------------------------------------------------

/// A router in front of one shard, with `model` published through the
/// router as the tenant; returns both and a connection to the router.
fn boot_routed(
    model: &RdGbgModel,
    shard_log: Option<String>,
    router_log: Option<String>,
) -> (ServerHandle, RouterHandle, HttpClient) {
    let publish = format!(
        "{{\"model\":{},\"k\":1}}",
        serde_json::to_string(model).expect("serialize the cover")
    );
    let shard = boot_server(ModelRegistry::new(), shard_log);
    let config = RouterConfig {
        backends: vec![shard.addr().to_string()],
        access_log: router_log,
        ..RouterConfig::default()
    };
    let router = Router::bind(config).expect("bind the router");
    router.warm_up();
    let router = router.start().expect("start the router");
    let mut conn = connect(router.addr());
    let resp = conn.send("POST", &format!("/models/{TENANT}"), Some(&publish), &[]);
    assert!(
        json_of(&resp).is_some(),
        "publish through the router: {}",
        describe(&resp)
    );
    (shard, router, conn)
}

/// Layers of routed `/predict` requests, from the shard's and the router's
/// access logs: everything [`predict_layers`] reports, plus `router.*` and
/// `request.body_bytes`.
fn routed_layers(
    (shard_log, router_log): &(HashMap<String, Logged>, HashMap<String, Logged>),
    timings: &Timings,
    flush: (f64, f64),
    bodies: &[String],
    report: &mut Report,
) {
    let at_shard = logged(shard_log, timings, "shard predict", report);
    let at_router = logged(router_log, timings, "router predict", report);
    predict_layers(&at_shard, &at_router, flush, report);
    let total = mean_ms(&at_router, |l| l.total_us / 1e3);
    let forward = mean_ms(&at_router, |l| l.stage_ms("forward"));
    report.layer("router.total_ms", total, "ms");
    report.layer("router.forward_ms", forward, "ms");
    report.layer("router.self_ms", total - forward, "ms");
    request_bytes(bodies, report);
}

/// The served path probed for a workload whose own traffic does not cross
/// it: `model` published through a router to one shard, each of `batches`
/// (row-major, `p` wide) sent once as a `/predict` after an untimed
/// warm-up, then the access logs and `/metrics` read as on
/// `serve-routed`. Keeps the per-layer metrics `keep` accepts; every
/// request must answer one prediction per row.
pub fn routed_probe(
    run: &Run,
    model: &RdGbgModel,
    batches: &[Vec<f64>],
    p: usize,
    keep: impl Fn(&str) -> bool,
    report: &mut Report,
) {
    let dir = run.scratch("routed-probe");
    let logs = (
        dir.join("shard.jsonl").to_string_lossy().into_owned(),
        dir.join("router.jsonl").to_string_lossy().into_owned(),
    );
    let (shard, router, mut conn) = boot_routed(model, Some(logs.0.clone()), Some(logs.1.clone()));
    let bodies: Vec<String> = batches.iter().map(|f| predict_body(f, p)).collect();
    let warm = conn.send("POST", "/predict", Some(&bodies[0]), &[]);
    assert!(
        json_of(&warm).is_some(),
        "probe warm-up: {}",
        describe(&warm)
    );
    let before = batcher_counts(shard.addr());
    let mut timings = Timings::default();
    let mut probe = Report::default();
    for (i, (body, rows)) in bodies.iter().zip(batches).enumerate() {
        let id = format!("probe-{i}");
        let (resp, ms) = exchange(&mut conn, "/predict", body, &id);
        timings.requests.push((id, ms));
        let answered = json_of(&resp)
            .and_then(|v| predictions(&v))
            .map(|v| v.len());
        probe.check(answered == Some(rows.len() / p), || {
            format!("probe request {i}: {}", describe(&resp))
        });
    }
    let after = batcher_counts(shard.addr());
    shut_down(vec![conn], Some(router), shard);
    routed_layers(
        &(read_access_log(&logs.0), read_access_log(&logs.1)),
        &timings,
        (after.0 - before.0, after.1 - before.1),
        &bodies,
        &mut probe,
    );
    report.attempted += probe.attempted;
    report.failed += probe.failed;
    report.notes.extend(probe.notes);
    report
        .per_layer
        .extend(probe.per_layer.into_iter().filter(|m| keep(m.name)));
}

struct Routed {
    split: Split,
    model: RdGbgModel,
    /// 32-row request batches covering the test split in a seeded order
    /// (the last wraps).
    batches: Vec<Vec<f64>>,
    bodies: Vec<String>,
    shard: ServerHandle,
    router: RouterHandle,
    conn: HttpClient,
    shard_log: Option<String>,
    router_log: Option<String>,
}

/// The cover served on `serve-routed`. Fixed: on S13 the candidate-center
/// draw alone moves GB-kNN accuracy by tens of points, so the seed varies
/// only the requests.
fn routed_config() -> RdGbgConfig {
    RdGbgConfig {
        seed: DATA_SEED,
        ..RdGbgConfig::with_rho(RHO)
    }
}

fn routed_setup(run: &Run) -> Routed {
    let split = catalog_split(DatasetId::S13, ROUTED_TOTAL_ROWS);
    let p = split.train.n_features();
    let model = rd_gbg(&split.train, &routed_config());
    let batches = test_batches(&split.test, run.seed);
    let bodies: Vec<String> = batches.iter().map(|f| predict_body(f, p)).collect();

    let dir = run.scratch("serve-routed");
    let shard_log = access_log(run, &dir, "shard.jsonl");
    let router_log = access_log(run, &dir, "router.jsonl");
    let (shard, router, mut conn) = boot_routed(&model, shard_log.clone(), router_log.clone());
    let warm = conn.send("POST", "/predict", Some(&bodies[0]), &[]);
    assert!(
        json_of(&warm).is_some(),
        "warm-up predict: {}",
        describe(&warm)
    );
    Routed {
        split,
        model,
        batches,
        bodies,
        shard,
        router,
        conn,
        shard_log,
        router_log,
    }
}

/// 32-row request batches covering `test` in an order drawn from `seed`
/// (the last batch wraps round to the first rows).
pub fn test_batches(test: &Dataset, seed: u64) -> Vec<Vec<f64>> {
    let n_test = test.n_samples();
    let order = permutation(n_test, seed);
    (0..n_test.div_ceil(BATCH_ROWS))
        .map(|b| {
            gather(
                test,
                (0..BATCH_ROWS).map(|j| order[(b * BATCH_ROWS + j) % n_test]),
            )
            .0
        })
        .collect()
}

pub fn routed(run: &Run) -> Report {
    let mut report = Report::default();
    let n_requests = run.ops(ROUTED_REQUESTS_PER_S);
    let (mut s, first_setup_s) = run.setup(|| routed_setup(run));
    let before = run.trace.then(|| batcher_counts(s.shard.addr()));

    let mut timings = Timings::default();
    let mut served = Vec::with_capacity(n_requests);
    for i in 0..n_requests {
        let id = format!("r-{i}");
        let b = i % s.bodies.len();
        let (resp, ms) = exchange(&mut s.conn, "/predict", &s.bodies[b], &id);
        timings.requests.push((id, ms));
        served.push((
            b,
            json_of(&resp).and_then(|v| predictions(&v)),
            describe(&resp),
        ));
    }
    let after = run.trace.then(|| batcher_counts(s.shard.addr()));

    report.e2e(
        "rows_per_s",
        1e3 * (n_requests * BATCH_ROWS) as f64 / timings.ms().iter().sum::<f64>(),
        "rows/s",
    );
    report.e2e("op_p50_ms", timings.p50(), "ms");
    report.note(timings.tail("/predict"));

    let p = s.split.train.n_features();
    let offline = GbKnn::from_model(&s.model, s.split.train.n_classes(), 1);
    let expected: Vec<Vec<u32>> = s
        .batches
        .iter()
        .map(|f| offline.predict_batch(f, p))
        .collect();
    for (i, (b, preds, what)) in served.iter().enumerate() {
        report.check(preds.as_ref() == Some(&expected[*b]), || {
            format!("request {i}: served != offline GB-kNN ({what})")
        });
    }
    let acc = verify_served(&mut s.conn, &s.split.test, &offline, &mut report);
    report.e2e("holdout_acc", acc, "fraction");
    report.note(format!(
        "{} balls over {} train rows x p={p}; {n_requests} routed predicts of {BATCH_ROWS} rows",
        s.model.balls.len(),
        s.split.train.n_samples()
    ));

    let Routed {
        shard,
        router,
        conn,
        shard_log,
        router_log,
        ..
    } = s;
    shut_down(vec![conn], Some(router), shard);
    report.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
    // Read before the extra set-ups, which start afresh in the same
    // scratch directory.
    let logs = shard_log
        .zip(router_log)
        .map(|(s, r)| (read_access_log(&s), read_access_log(&r)));
    let setup_s = run.setup_s(
        first_setup_s,
        ROUTED_SETUPS,
        || routed_setup(run),
        |s| shut_down(vec![s.conn], Some(s.router), s.shard),
    );
    report.e2e("setup_s", setup_s, "s");

    if let (Some(logs), Some(before), Some(after)) = (logs, before, after) {
        routed_layers(
            &logs,
            &timings,
            (after.0 - before.0, after.1 - before.1),
            &s.bodies,
            &mut report,
        );
        layers::gbknn_predict(&offline, &s.batches, p, &mut report);
        layers::kernel(&s.split.train, &mut report);
        layers::io(&s.split.train, &mut report);
        layers::granulation(&s.split.train, &routed_config(), PROBE_REPS, &mut report);
        layers::index(&s.split.train, &mut report);
        // No ingest on this workload: the ingest layers are probed with
        // appends of further S13 rows onto the train split.
        let batches = replay_batches(DatasetId::S13, REPLAY_APPENDS, run.seed);
        layers::ingest(run, &s.split.train, &batches, &mut report);
    }
    report
}

/// `n_appends` batches of [`APPEND_ROWS`] further rows of the `id`
/// surrogate, in an order drawn from `seed`.
pub fn replay_batches(id: DatasetId, n_appends: usize, seed: u64) -> Vec<(Vec<f64>, Vec<u32>)> {
    let pool = fresh_rows(id, n_appends * APPEND_ROWS);
    permutation(pool.n_samples(), seed)
        .chunks(APPEND_ROWS)
        .map(|rows| gather(&pool, rows.iter().copied()))
        .collect()
}
