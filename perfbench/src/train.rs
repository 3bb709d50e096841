//! Training phase of a workload: data generation, one shared pretraining
//! run and the workload's clustering trainers, all through `Session`.
//!
//! Every trainer runs its full iteration budget (`tol = 0`), so one seed
//! and one budget always do the same amount of work: `train_s` then moves
//! only when a step gets faster or slower, never because a different seed
//! happened to converge sooner.

use crate::stats::{label_hash, FNV_OFFSET};
use adec_core::prelude::*;
use adec_datagen::{Benchmark, Modality, Size};
use adec_nn::profiler;
use std::time::Instant;

/// A clustering trainer run from the shared pretrained snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trainer {
    Dec,
    Idec,
    Dcn,
    Adec,
}

impl Trainer {
    /// Phase name, as the profiler and the checkpoints spell it.
    pub fn name(self) -> &'static str {
        match self {
            Trainer::Dec => "dec",
            Trainer::Idec => "idec",
            Trainer::Dcn => "dcn",
            Trainer::Adec => "adec",
        }
    }
}

/// Every stage `core.<stage>_s` can name, in run order.
pub const STAGES: [&str; 5] = ["pretrain", "dec", "idec", "dcn", "adec"];

/// What one training repetition runs.
#[derive(Debug, Clone)]
pub struct TrainSpec {
    pub bench: Benchmark,
    pub size: Size,
    pub preset: ArchPreset,
    /// Augment image batches during ACAI pretraining.
    pub augment: bool,
    pub pretrain_iters: usize,
    pub trainers: &'static [Trainer],
    /// Iterations of every clustering trainer.
    pub cluster_iters: usize,
}

/// Measurements of one repetition.
#[derive(Debug, Clone)]
pub struct Rep {
    /// `Benchmark::generate` wall time.
    pub generate_s: f64,
    /// Data generation plus session construction.
    pub setup_s: f64,
    /// First trainer call to the evaluated ADEC result.
    pub train_s: f64,
    /// Pretraining iterations plus every trainer's iterations.
    pub steps: usize,
    pub acc: f64,
    pub nmi: f64,
    /// FNV-1a of the final ADEC labels.
    pub label_hash: u64,
    /// Wall time around each `Session` call, by stage name.
    pub stage_s: Vec<(&'static str, f64)>,
    /// Iterations of each stage.
    pub stage_steps: Vec<(&'static str, usize)>,
    /// ACC + NMI computation time.
    pub eval_s: f64,
    /// Calls to the image augmentation function this repetition made.
    pub augment_calls: usize,
    /// Augmentation batch shape `(rows, h, w)`, when images are augmented.
    pub augment_shape: Option<(usize, usize, usize)>,
}

/// One finished repetition plus the session holding its trained weights.
pub struct Trained {
    pub rep: Rep,
    pub session: Session,
    /// ADEC iterations, recorded in the checkpoint built for serving.
    pub adec_iterations: usize,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Checks that a trainer's hard labels are a valid clustering of `n` rows
/// into at most `k` clusters.
fn check_labels(name: &str, out: &ClusterOutput, n: usize, k: usize) -> Result<(), String> {
    if out.labels.len() != n {
        return Err(format!("{name}: {} labels for {n} rows", out.labels.len()));
    }
    if let Some(bad) = out.labels.iter().find(|&&l| l >= k) {
        return Err(format!("{name}: label {bad} outside 0..{k}"));
    }
    if out.q.as_slice().iter().any(|v| !v.is_finite()) {
        return Err(format!("{name}: non-finite soft assignment"));
    }
    Ok(())
}

/// Runs one repetition at `seed`. With `traced`, the tape-op profiler is
/// on for the training calls (it accumulates until the caller resets it).
///
/// # Errors
///
/// A message naming the trainer that returned an error or produced an
/// invalid clustering.
pub fn run_rep(spec: &TrainSpec, seed: u64, traced: bool) -> Result<Trained, String> {
    let setup_start = Instant::now();
    let (ds, generate_s) = timed(|| spec.bench.generate(spec.size, seed));
    let mut session = Session::new(&ds, spec.preset, seed);
    let setup_s = setup_start.elapsed().as_secs_f64();
    let n = ds.len();
    let k = ds.n_classes;

    if traced {
        profiler::enable();
    }
    let result = train(spec, &mut session, n, k);
    profiler::disable();
    let (mut rep, adec_labels, adec_iterations) = result?;

    let ((acc, nmi), eval_s) = timed(|| {
        (
            f64::from(adec_metrics::accuracy(&ds.labels, &adec_labels)),
            f64::from(adec_metrics::nmi(&ds.labels, &adec_labels)),
        )
    });
    rep.train_s += eval_s;
    rep.eval_s = eval_s;
    rep.acc = acc;
    rep.nmi = nmi;
    rep.label_hash = label_hash(FNV_OFFSET, &adec_labels);
    rep.generate_s = generate_s;
    rep.setup_s = setup_s;

    let image = match ds.modality {
        Modality::Image { h, w } => Some((h, w)),
        _ => None,
    };
    if let Some((h, w)) = image {
        // Pretraining augments one batch per iteration when asked to;
        // the session turns augmentation on for DEC, IDEC and ADEC on
        // images, one batch per step (plus ADEC's discriminator warm-up).
        let mut calls = if spec.augment { spec.pretrain_iters } else { 0 };
        for &(stage, steps) in &rep.stage_steps {
            calls += match stage {
                "dec" | "idec" => steps,
                "adec" => steps + AdecConfig::fast(k).disc_pretrain,
                _ => 0,
            };
        }
        rep.augment_calls = calls;
        rep.augment_shape = Some((PretrainConfig::acai_fast().batch_size.min(n), h, w));
    }
    Ok(Trained {
        rep,
        session,
        adec_iterations,
    })
}

type TrainOut = (Rep, Vec<usize>, usize);

fn train(spec: &TrainSpec, session: &mut Session, n: usize, k: usize) -> Result<TrainOut, String> {
    let start = Instant::now();
    let mut stage_s = Vec::new();
    let mut stage_steps = Vec::new();

    let pretrain_cfg = PretrainConfig {
        iterations: spec.pretrain_iters,
        augment: spec.augment,
        ..PretrainConfig::acai_fast()
    };
    let (stats, secs) = timed(|| session.pretrain(&pretrain_cfg));
    let stats = stats.map_err(|e| format!("pretrain: {e}"))?;
    stage_s.push(("pretrain", secs));
    stage_steps.push(("pretrain", stats.iterations));

    let mut adec: Option<ClusterOutput> = None;
    for &trainer in spec.trainers {
        let iters = spec.cluster_iters;
        let (out, secs) = timed(|| match trainer {
            Trainer::Dec => session.run_dec(&DecConfig {
                max_iter: iters,
                tol: 0.0,
                ..DecConfig::fast(k)
            }),
            Trainer::Idec => session.run_idec(&IdecConfig {
                max_iter: iters,
                tol: 0.0,
                ..IdecConfig::fast(k)
            }),
            Trainer::Dcn => session.run_dcn(&DcnConfig {
                max_iter: iters,
                tol: 0.0,
                ..DcnConfig::fast(k)
            }),
            Trainer::Adec => session.run_adec(&AdecConfig {
                max_iter: iters,
                tol: 0.0,
                ..AdecConfig::fast(k)
            }),
        });
        let out = out.map_err(|e| format!("{}: {e}", trainer.name()))?;
        check_labels(trainer.name(), &out, n, k)?;
        stage_s.push((trainer.name(), secs));
        stage_steps.push((trainer.name(), out.iterations));
        if trainer == Trainer::Adec {
            adec = Some(out);
        }
    }
    let adec = adec.ok_or("workload runs no ADEC trainer")?;
    let steps = stage_steps.iter().map(|&(_, s)| s).sum();
    let rep = Rep {
        generate_s: 0.0,
        setup_s: 0.0,
        train_s: start.elapsed().as_secs_f64(),
        steps,
        acc: 0.0,
        nmi: 0.0,
        label_hash: 0,
        stage_s,
        stage_steps,
        eval_s: 0.0,
        augment_calls: 0,
        augment_shape: None,
    };
    Ok((rep, adec.labels, adec.iterations))
}
