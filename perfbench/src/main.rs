//! gbabs benchmark: runs one workload and prints its metrics.
//!
//! ```text
//! gbabs-perfbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//! ```
//!
//! Each workload replays a fixed operation sequence whose length is
//! `--seconds` × a per-workload rate measured once on the recording host,
//! so every build does identical work. `--trace 0` measures the end-to-end
//! metrics; `--trace 1` additionally splits the work at layer boundaries
//! and prints the per-layer metrics. The last stdout line is the result
//! object; see README.md.

mod inputs;
mod layers;
mod report;
mod sample;
mod serve;

use report::{median, Metric};
use std::path::PathBuf;
use std::time::Instant;

const WORKLOADS: [&str; 4] = [
    "sample-tabular",
    "sample-highdim",
    "serve-mixed",
    "serve-routed",
];

/// Arguments of one run, shared by every workload.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for model stores and access logs.
    pub work_dir: PathBuf,
}

impl Run {
    /// Operation count for a workload running `rate` operations per second
    /// on the recording host: fixed by `--seconds`, never by speed.
    pub fn ops(&self, rate: f64) -> usize {
        ((self.seconds * rate).round() as usize).max(1)
    }

    /// Runs `setup` once; returns its result and the seconds it took.
    pub fn setup<T>(&self, setup: impl FnOnce() -> T) -> (T, f64) {
        let t = Instant::now();
        let out = setup();
        (out, t.elapsed().as_secs_f64())
    }

    /// `setup_s`: the median over the run's own set-up (`first_s`) and
    /// `repeats` − 1 more, each torn down untimed. Called after the timed
    /// operations and after `peak_rss_mb` is read, so neither sees the
    /// extra set-ups.
    pub fn setup_s<T>(
        &self,
        first_s: f64,
        repeats: usize,
        mut setup: impl FnMut() -> T,
        mut teardown: impl FnMut(T),
    ) -> f64 {
        let mut secs = vec![first_s];
        for _ in 1..repeats {
            let (out, s) = self.setup(&mut setup);
            secs.push(s);
            teardown(out);
        }
        median(&mut secs)
    }

    /// A fresh, empty scratch subdirectory.
    pub fn scratch(&self, name: &str) -> PathBuf {
        let dir = self.work_dir.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        dir
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("gbabs-perfbench: {msg}");
    eprintln!(
        "usage: gbabs-perfbench --workload {{{}}} --seed N --seconds S --trace 0|1 --work-dir DIR",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> (String, Run) {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut work_dir) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    let run = Run {
        seed: seed.unwrap_or_else(|| usage("--seed needs a non-negative integer")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds needs a positive number")),
        trace: trace.unwrap_or_else(|| usage("--trace needs 0 or 1")),
        work_dir: work_dir.unwrap_or_else(|| usage("--work-dir is required")),
    };
    (workload, run)
}

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "{} is not finite", m.name);
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn print_metrics(heading: &str, metrics: &[Metric]) {
    println!("{heading}");
    for m in metrics {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

fn main() {
    let (workload, run) = parse_args();
    let report = match workload.as_str() {
        "sample-tabular" => sample::run(&sample::TABULAR, &run),
        "sample-highdim" => sample::run(&sample::HIGHDIM, &run),
        "serve-mixed" => serve::mixed(&run),
        "serve-routed" => serve::routed(&run),
        _ => unreachable!("validated in parse_args"),
    };
    println!(
        "workload {workload} seed {} seconds {} trace {}",
        run.seed,
        run.seconds,
        u8::from(run.trace)
    );
    for line in &report.notes {
        println!("  {line}");
    }
    print_metrics("end-to-end:", &report.end_to_end);
    if run.trace {
        print_metrics("per-layer:", &report.per_layer);
        // The traced run's own end-to-end numbers, for the tracing-overhead
        // comparison against an untraced run.
        println!("traced-e2e {}", metrics_json(&report.end_to_end));
    }
    let shown = if run.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics_json(shown)
    );
}
