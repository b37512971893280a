//! Determinism guarantees: every stochastic component is a pure function of
//! its seed — the property behind "the random seeds are set in all used
//! classifiers for a fair comparison" (§V-A3).

use gb_bench::{evaluate, HarnessConfig, SamplerKind};
use gb_classifiers::ClassifierKind;
use gb_dataset::catalog::DatasetId;
use gbabs::{gbabs, RdGbgConfig};

fn cfg() -> HarnessConfig {
    HarnessConfig {
        folds: 3,
        repeats: 1,
        threads: 2,
        out_dir: std::env::temp_dir().join("gbabs-det-test"),
        ..HarnessConfig::smoke()
    }
}

#[test]
fn catalog_generation_is_seed_deterministic() {
    for id in DatasetId::ALL {
        let a = id.generate(0.02, 11);
        let b = id.generate(0.02, 11);
        assert_eq!(a.features(), b.features(), "{}", id.rename());
        assert_eq!(a.labels(), b.labels(), "{}", id.rename());
    }
}

#[test]
fn gbabs_is_seed_deterministic() {
    let d = DatasetId::S5.generate(0.04, 3);
    let a = gbabs(
        &d,
        &RdGbgConfig {
            density_tolerance: 5,
            seed: 9,
            ..Default::default()
        },
    );
    let b = gbabs(
        &d,
        &RdGbgConfig {
            density_tolerance: 5,
            seed: 9,
            ..Default::default()
        },
    );
    assert_eq!(a.sampled_rows, b.sampled_rows);
    assert_eq!(a.borderline_balls, b.borderline_balls);
    assert_eq!(a.model.noise, b.model.noise);
}

#[test]
fn full_evaluation_is_reproducible_despite_threading() {
    // Fold jobs execute on worker threads; results must still be
    // order-stable and value-identical across runs.
    let d = DatasetId::S2.generate(0.1, 5);
    let c1 = cfg();
    let mut c2 = cfg();
    c2.threads = 1; // different thread count, same results
    for sampler in [SamplerKind::Gbabs, SamplerKind::Sm, SamplerKind::Tomek] {
        let a = evaluate(&d, sampler, ClassifierKind::DecisionTree, 0.1, &c1);
        let b = evaluate(&d, sampler, ClassifierKind::DecisionTree, 0.1, &c2);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.accuracy, y.accuracy, "{}", sampler.name());
            assert_eq!(x.g_mean, y.g_mean);
            assert_eq!(x.sampling_ratio, y.sampling_ratio);
        }
    }
}

#[test]
fn different_seeds_change_stochastic_components() {
    let d = DatasetId::S5.generate(0.04, 3);
    let a = gbabs(
        &d,
        &RdGbgConfig {
            density_tolerance: 5,
            seed: 1,
            ..Default::default()
        },
    );
    let b = gbabs(
        &d,
        &RdGbgConfig {
            density_tolerance: 5,
            seed: 2,
            ..Default::default()
        },
    );
    // center selection is random, so covers generally differ
    assert_ne!(
        a.model
            .balls
            .iter()
            .map(|x| x.members.clone())
            .collect::<Vec<_>>(),
        b.model
            .balls
            .iter()
            .map(|x| x.members.clone())
            .collect::<Vec<_>>()
    );
}

// ---------------------------------------------------------------------------
// Golden fingerprints: RD-GBG output pinned across commits.
//
// The backend-equality tests above only compare engines with each other, so
// a refactor that changed every seed's cover identically would still pass
// them. These hashes pin the covers themselves. A mismatch means the
// produced model changed — update a value only for a deliberate change to
// the granulation semantics, never for a refactor.

use gb_dataset::distance::Metric;
use gb_dataset::index::GranulationBackend;
use gb_dataset::noise::inject_class_noise;
use gb_dataset::Dataset;
use gbabs::{canonical_rd_gbg, rd_gbg, RdGbgModel};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(h: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *h ^= u64::from(byte);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// FNV-1a over everything a cover consists of: per ball its member list,
/// radius bits, center bits and label; then the noise list, the orphan
/// count and the iteration count. Lengths are hashed before each list so
/// that no two distinct models share an input stream.
fn fingerprint(model: &RdGbgModel) -> u64 {
    let mut h = FNV_OFFSET;
    fnv(&mut h, model.balls.len() as u64);
    for ball in &model.balls {
        fnv(&mut h, ball.members.len() as u64);
        for &m in &ball.members {
            fnv(&mut h, m as u64);
        }
        fnv(&mut h, ball.radius.to_bits());
        fnv(&mut h, ball.center.len() as u64);
        for &x in &ball.center {
            fnv(&mut h, x.to_bits());
        }
        fnv(&mut h, u64::from(ball.label));
    }
    fnv(&mut h, model.noise.len() as u64);
    for &r in &model.noise {
        fnv(&mut h, r as u64);
    }
    fnv(&mut h, model.orphan_count as u64);
    fnv(&mut h, model.iterations as u64);
    h
}

/// S5 (banana, p = 2: sub-lane kernels) and S8 (p = 16: the fused lane
/// tree), each with 10 % injected class noise so every density verdict
/// occurs.
fn golden_datasets() -> [(&'static str, Dataset); 2] {
    [
        (
            "S5",
            inject_class_noise(&DatasetId::S5.generate(0.05, 3), 0.1, 7).0,
        ),
        (
            "S8",
            inject_class_noise(&DatasetId::S8.generate(0.04, 3), 0.1, 7).0,
        ),
    ]
}

/// Every pinned configuration, as `(golden key, backend, model)`.
fn golden_cases() -> Vec<(String, GranulationBackend, RdGbgModel)> {
    let mut cases = Vec::new();
    for (name, data) in golden_datasets() {
        let base = RdGbgConfig {
            density_tolerance: 5,
            seed: 17,
            ..RdGbgConfig::default()
        };
        for metric in Metric::ALL {
            for backend in GranulationBackend::CONCRETE {
                let cfg = base.with_metric(metric).with_backend(backend);
                cases.push((
                    format!("{name}/rd_gbg/{metric}"),
                    backend,
                    rd_gbg(&data, &cfg),
                ));
            }
        }
        let no_restrict = RdGbgConfig {
            restrict_overlap: false,
            ..base
        };
        let no_noise = RdGbgConfig {
            detect_noise: false,
            ..base
        };
        for (ablation, cfg) in [("no_restrict", no_restrict), ("no_noise", no_noise)] {
            cases.push((
                format!("{name}/rd_gbg/{ablation}"),
                cfg.backend,
                rd_gbg(&data, &cfg),
            ));
        }
        for backend in GranulationBackend::CONCRETE {
            cases.push((
                format!("{name}/canonical"),
                backend,
                canonical_rd_gbg(&data, 5, backend),
            ));
        }
    }
    cases
}

/// Fingerprints recorded before the shared-decision-step refactor of
/// `gbabs::rdgbg`. Backends of one configuration share one value.
const GOLDEN: &[(&str, u64)] = &[
    ("S5/rd_gbg/sqeuclidean", 0x5489_4291_35ad_66aa),
    ("S5/rd_gbg/manhattan", 0x7965_048d_ce22_2b05),
    ("S5/rd_gbg/cosine", 0x4839_1aa5_e62f_225a),
    ("S5/rd_gbg/no_restrict", 0x646f_9ef3_938c_4caf),
    ("S5/rd_gbg/no_noise", 0x3e4f_b590_aef8_b42e),
    ("S5/canonical", 0x7e5c_c4ad_988f_2a25),
    ("S8/rd_gbg/sqeuclidean", 0x7e98_b3d2_50a0_33bc),
    ("S8/rd_gbg/manhattan", 0x6d56_05e2_c7f7_49b8),
    ("S8/rd_gbg/cosine", 0xc31c_4144_1c86_4464),
    ("S8/rd_gbg/no_restrict", 0x84eb_8df4_8a00_e5a3),
    ("S8/rd_gbg/no_noise", 0xc66e_a80b_ec86_e82e),
    ("S8/canonical", 0x7297_706a_d03a_d683),
];

#[test]
fn rdgbg_output_matches_golden_fingerprints() {
    let mut mismatches = Vec::new();
    for (key, backend, model) in golden_cases() {
        let got = fingerprint(&model);
        match GOLDEN.iter().find(|(k, _)| *k == key) {
            Some(&(_, want)) if want == got => {}
            Some(&(_, want)) => mismatches.push(format!(
                "{key} ({backend}): got {got:#018x}, pinned {want:#018x}"
            )),
            None => mismatches.push(format!("(\"{key}\", {got:#018x}),")),
        }
    }
    assert!(
        mismatches.is_empty(),
        "golden mismatches:\n{}",
        mismatches.join("\n")
    );
}
