//! # adec-perfbench
//!
//! One benchmark for training and serving. Each workload generates its
//! data from `--seed`, trains through `adec_core::Session`, builds a
//! checkpoint from the trained weights, serves it in-process with
//! `adec_serve::ServerHandle` and drives valid `/assign` traffic at it.
//! The workloads weigh these parts differently (see `WORKLOADS`).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload adec-digits --seed 7 --seconds 50 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured with every
//! observer off. `--trace 1` repeats each training repetition with the
//! `adec_nn::profiler` on and prints the per-layer metrics instead; the
//! untraced twin of each repetition gives `obs.trace_overhead_share`.
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the lines before it
//! (prefixed `#`) carry provenance, the recorded ADEC label hash and the
//! open-loop latency percentiles with their sample counts. The process exits 1
//! when a correctness check fails and 2 on bad arguments or when
//! `ADEC_THREADS`, `ADEC_KERNELS` or `ADEC_FAULTS` is set.
//!
//! `perfbench/METRICS.md` lists every metric, the workloads it applies to
//! and, for per-layer metrics, the end-to-end metric it should move.

mod serve;
mod stats;
mod train;

use adec_core::ArchPreset;
use adec_datagen::{Benchmark, Size};
use adec_nn::profiler;
use serve::ServeOut;
use stats::{median, mix_seed, peak_rss_mb};
use train::{Rep, TrainSpec, Trainer, STAGES};

/// One benchmark workload.
struct Workload {
    name: &'static str,
    train: TrainSpec,
    /// Seconds one training repetition takes on the reference machine
    /// (2-core VM) while it runs slow, so a run rarely overruns
    /// `--seconds`. The repetition count is derived from `--seconds`
    /// with it, so a seed and a run length always do the same work.
    rep_estimate_s: f64,
    /// Shares of `--seconds` given to training, the open-loop phase and
    /// the closed-loop phase.
    train_share: f64,
    open_share: f64,
    closed_share: f64,
}

/// `BENCHMARK.json` runs `adec-digits` and `serve-assign`; `table3-protein`
/// (the paper's Tables 3-4 path) is kept for runs by hand because its
/// run-to-run spread on a shared 2-core VM is too wide to gate on.
const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "table3-protein",
        train: TrainSpec {
            bench: Benchmark::Protein,
            size: Size::Small,
            preset: ArchPreset::Medium,
            augment: false,
            pretrain_iters: 120,
            trainers: &[Trainer::Dec, Trainer::Idec, Trainer::Dcn, Trainer::Adec],
            cluster_iters: 120,
        },
        rep_estimate_s: 3.3,
        train_share: 0.75,
        open_share: 0.15,
        closed_share: 0.10,
    },
    Workload {
        name: "adec-digits",
        train: TrainSpec {
            bench: Benchmark::DigitsFull,
            size: Size::Small,
            preset: ArchPreset::Medium,
            augment: true,
            pretrain_iters: 80,
            trainers: &[Trainer::Adec],
            cluster_iters: 80,
        },
        rep_estimate_s: 2.2,
        train_share: 0.75,
        open_share: 0.07,
        closed_share: 0.18,
    },
    Workload {
        name: "serve-assign",
        train: TrainSpec {
            bench: Benchmark::Protein,
            size: Size::Small,
            preset: ArchPreset::Medium,
            augment: false,
            pretrain_iters: 30,
            trainers: &[Trainer::Adec],
            cluster_iters: 30,
        },
        rep_estimate_s: 0.95,
        train_share: 0.5,
        open_share: 0.15,
        closed_share: 0.35,
    },
];

/// Offered load of every open-loop phase, well under the capacity of a
/// 2-replica server on two cores.
const OPEN_LOOP_RPS: f64 = 1000.0;
const WARMUP_S: f64 = 0.5;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: adec-perfbench --workload <table3-protein|adec-digits|serve-assign> \
--seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 7u64, 20.0f64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or(format!("unknown workload '{value}'"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed '{value}'"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds '{value}'"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err(format!("bad --seconds '{value}'"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace '{value}'")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Named metric values in print order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        // `+ 0.0` turns the -0.0 of an empty sum into 0.
        self.0.push((name.into(), value + 0.0, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Per-repetition mean of the wall time around one stage's `Session` call.
fn stage_mean(reps: &[Rep], stage: &str) -> f64 {
    let sum: f64 = reps
        .iter()
        .flat_map(|r| {
            r.stage_s
                .iter()
                .filter(|(s, _)| *s == stage)
                .map(|(_, v)| *v)
        })
        .sum();
    sum / reps.len().max(1) as f64
}

fn end_to_end(reps: &[Rep], serve: &ServeOut, m: &mut Metrics) {
    let setup: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let train: Vec<f64> = reps.iter().map(|r| r.train_s).collect();
    let rate: Vec<f64> = reps.iter().map(|r| r.steps as f64 / r.train_s).collect();
    let acc: Vec<f64> = reps.iter().map(|r| r.acc).collect();
    let nmi: Vec<f64> = reps.iter().map(|r| r.nmi).collect();
    m.put("setup_s", median(&setup) + serve.setup_s, "s");
    m.put("train_s", median(&train), "s");
    m.put("train_steps_per_s", median(&rate), "steps/s");
    m.put("adec_acc", mean(&acc), "fraction");
    m.put("adec_nmi", mean(&nmi), "fraction");
    m.put("serve_cpu_us_per_req", serve.cpu_us_per_req, "us");
    m.put(
        "serve_ok_share",
        1.0 - serve.failed as f64 / serve.attempted.max(1) as f64,
        "fraction",
    );
    m.put("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MB");
}

/// Subphases the profiler attributes tape ops to.
const SUBPHASES: [&str; 9] = [
    "pretrain.ae",
    "pretrain.critic",
    "dec.kl",
    "idec.step",
    "dcn.step",
    "adec.encoder.kl",
    "adec.encoder.adv",
    "adec.decoder",
    "adec.discriminator",
];

/// Median milliseconds per call of the augmentation function replayed
/// on the workload's batch shape.
fn augment_ms_per_call(shape: (usize, usize, usize), seed: u64) -> f64 {
    use adec_datagen::augment::{augment_batch, AugmentConfig};
    let (rows, h, w) = shape;
    let mut rng = adec_tensor::SeedRng::new(seed);
    let batch = adec_tensor::Matrix::from_vec(
        rows,
        h * w,
        (0..rows * h * w).map(|_| rng.uniform(0.0, 1.0)).collect(),
    );
    let cfg = AugmentConfig::default();
    let times: Vec<f64> = (0..9)
        .map(|_| {
            let t = std::time::Instant::now();
            for _ in 0..5 {
                std::hint::black_box(augment_batch(
                    std::hint::black_box(&batch),
                    h,
                    w,
                    &cfg,
                    &mut rng,
                ));
            }
            t.elapsed().as_secs_f64() * 1e3 / 5.0
        })
        .collect();
    median(&times)
}

fn per_layer(traced: &[Rep], untraced: &[Rep], serve: &ServeOut, seed: u64, m: &mut Metrics) {
    let n = traced.len().max(1) as f64;
    let profile = profiler::snapshot();
    let phase_s = |phase: &str| profile.phase(phase).map_or(0.0, |p| p.wall_ns as f64 / 1e9) / n;
    let ops_s = |phase: &str| {
        profile.phase(phase).map_or(0.0, |p| {
            p.ops.iter().map(|o| o.wall_ns).sum::<u64>() as f64 / 1e9
        }) / n
    };

    let generate: Vec<f64> = traced.iter().map(|r| r.generate_s).collect();
    m.put("datagen.generate_s", median(&generate), "s");
    let calls = mean(
        &traced
            .iter()
            .map(|r| r.augment_calls as f64)
            .collect::<Vec<_>>(),
    );
    let shape = traced.iter().find_map(|r| r.augment_shape);
    m.put(
        "datagen.augment_ms_per_call",
        shape.map_or(0.0, |s| augment_ms_per_call(s, seed)),
        "ms",
    );
    m.put("datagen.augment_calls", calls, "count");

    for stage in STAGES {
        m.put(format!("core.{stage}_s"), stage_mean(traced, stage), "s");
    }
    for stage in STAGES {
        let steps: f64 = traced
            .iter()
            .flat_map(|r| {
                r.stage_steps
                    .iter()
                    .filter(|(s, _)| *s == stage)
                    .map(|&(_, v)| v as f64)
            })
            .sum();
        m.put(format!("core.{stage}.steps"), steps / n, "count");
    }
    for stage in STAGES {
        for section in ["init", "refresh", "step"] {
            let secs = profile
                .phase(stage)
                .and_then(|p| p.sections.iter().find(|s| s.name == section))
                .map_or(0.0, |s| s.wall_ns as f64 / 1e9)
                / n;
            m.put(format!("core.{stage}.{section}_s"), secs, "s");
        }
    }
    for sub in SUBPHASES {
        let op = ops_s(sub);
        m.put(format!("nn.{sub}.op_s"), op, "s");
        m.put(
            format!("nn.{sub}.unattributed_s"),
            (phase_s(sub) - op).max(0.0),
            "s",
        );
    }

    let all_ops = || profile.phases.iter().flat_map(|p| p.ops.iter());
    let op_calls: u64 = all_ops().map(|o| o.calls).sum();
    let steps: f64 = traced.iter().map(|r| r.steps as f64).sum();
    m.put(
        "nn.ops_per_step",
        if steps > 0.0 {
            op_calls as f64 / steps
        } else {
            0.0
        },
        "count",
    );
    let elementwise: u64 = all_ops()
        .filter(|o| o.name != "matmul")
        .map(|o| o.wall_ns)
        .sum();
    m.put("nn.elementwise_s", elementwise as f64 / 1e9 / n, "s");

    let mm = all_ops().filter(|o| o.name == "matmul");
    let (mm_ns, mm_calls, mm_flops) = mm.fold((0u64, 0u64, 0u64), |(t, c, f), o| {
        (t + o.wall_ns, c + o.calls, f + o.flops)
    });
    let traced_train = mean(&traced.iter().map(|r| r.train_s).collect::<Vec<_>>());
    let matmul_s = mm_ns as f64 / 1e9 / n;
    m.put("tensor.matmul_s", matmul_s, "s");
    m.put("tensor.matmul_calls", mm_calls as f64 / n, "count");
    m.put(
        "tensor.matmul_gflops",
        if mm_ns > 0 {
            mm_flops as f64 / mm_ns as f64
        } else {
            0.0
        },
        "GFLOP/s",
    );
    m.put(
        "tensor.matmul_share",
        if traced_train > 0.0 {
            matmul_s / traced_train
        } else {
            0.0
        },
        "fraction",
    );

    m.put(
        "metrics.eval_s",
        mean(&traced.iter().map(|r| r.eval_s).collect::<Vec<_>>()),
        "s",
    );

    m.put("serve.open_p50_ms", serve.p50_ms, "ms");
    m.put("serve.open_p95_ms", serve.p95_ms, "ms");
    m.put("serve.closed_rps", serve.closed_rps, "req/s");
    m.put("serve.request_mean_ms", serve.request_mean_ms, "ms");
    m.put("serve.queue_depth_mean", serve.queue_depth_mean, "count");
    m.put("serve.eval_mean_ms", serve.eval_mean_ms, "ms");
    m.put("serve.eval_share", serve.eval_share, "fraction");
    m.put("serve.model.assign_us_single", serve.assign_us_single, "us");
    m.put(
        "serve.model.assign_us_batch16",
        serve.assign_us_batch16,
        "us",
    );
    m.put("serve.rejected_busy", serve.rejected_busy, "count");
    m.put("serve.client_errors", serve.client_errors, "count");
    m.put("loadgen.lag_p95_ms", serve.lag_p95_ms, "ms");
    m.put("loadgen.service_p50_ms", serve.service_p50_ms, "ms");

    let t = median(&traced.iter().map(|r| r.train_s).collect::<Vec<_>>());
    let u = median(&untraced.iter().map(|r| r.train_s).collect::<Vec<_>>());
    m.put(
        "obs.trace_overhead_share",
        if u > 0.0 { t / u - 1.0 } else { 0.0 },
        "fraction",
    );
}

/// Reports a failure that ends the run early.
fn fail(attempted: usize, message: &str) -> ! {
    eprintln!("perfbench: {message}");
    finish(false, attempted, 1, &Metrics::default());
}

fn finish(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> ! {
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        metrics.json()
    );
    std::process::exit(if correct { 0 } else { 1 });
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // These knobs change what the library computes or how; a measurement
    // taken under them would not be comparable with anything.
    for var in ["ADEC_THREADS", "ADEC_KERNELS", "ADEC_FAULTS"] {
        if std::env::var_os(var).is_some() {
            eprintln!("perfbench: refusing to run with {var} set");
            std::process::exit(2);
        }
    }
    let w = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let client_threads = nproc.min(2);
    let reps = ((w.train_share * args.seconds / w.rep_estimate_s).round() as usize).max(1);
    println!(
        "# workload {} seed {} seconds {} trace {} reps {reps}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# nproc {nproc} cpu \"{}\" RUSTFLAGS \"{}\" client_threads {client_threads}",
        stats::cpu_model(),
        std::env::var("RUSTFLAGS").unwrap_or_default()
    );

    let mut problems: Vec<String> = Vec::new();
    let mut attempted = 0usize;
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut hash = stats::FNV_OFFSET;
    let mut bench: Option<serve::Bench> = None;
    // Serving runs in one burst after every repetition, so the serve
    // figures sample the whole run rather than one stretch of it.
    let open_s = w.open_share * args.seconds / reps as f64;
    let closed_s = w.closed_share * args.seconds / reps as f64;
    profiler::reset();
    for r in 0..reps {
        let seed = mix_seed(args.seed, r as u64);
        let runs: &[bool] = if args.trace { &[false, true] } else { &[false] };
        for &on in runs {
            attempted += 1 + w.train.trainers.len();
            let t = train::run_rep(&w.train, seed, on).unwrap_or_else(|e| fail(attempted, &e));
            println!(
                "# rep {r} seed {seed} traced {} train_s {:.4} steps {} acc {:.4} nmi {:.4} adec_label_hash {:016x}",
                u8::from(on),
                t.rep.train_s,
                t.rep.steps,
                t.rep.acc,
                t.rep.nmi,
                t.rep.label_hash
            );
            if on {
                // The profiler only observes: a traced repetition must
                // reproduce its untraced twin bit for bit.
                if untraced.last().map(|u: &Rep| u.label_hash) != Some(t.rep.label_hash) {
                    problems.push(format!("rep {r}: traced ADEC labels differ from untraced"));
                }
                traced.push(t.rep);
                continue;
            }
            hash = stats::label_hash(hash, &[t.rep.label_hash as usize]);
            untraced.push(t.rep);
            if bench.is_none() {
                let started = serve::Bench::start(
                    &t.session,
                    t.adec_iterations,
                    mix_seed(args.seed, u64::MAX),
                    client_threads,
                    OPEN_LOOP_RPS,
                    WARMUP_S,
                );
                bench = Some(started.unwrap_or_else(|e| fail(attempted, &format!("serve: {e}"))));
            }
        }
        if let Some(b) = bench.as_mut() {
            b.burst(open_s, closed_s)
                .unwrap_or_else(|e| fail(attempted, &format!("serve: {e}")));
        }
    }
    println!("# adec_label_hash {hash:016x} over {reps} reps");
    let Some(bench) = bench else {
        fail(attempted, "no repetition ran");
    };
    let mut serve = bench.finish(args.trace);
    problems.append(&mut serve.problems);
    println!(
        "# serve open-loop latency: p50 {:.4} ms and p95 {:.4} ms are medians over {} windows of {} s; \
over all {} answered requests p95 {:.4} ms ({} beyond), p99 {:.4} ms ({} beyond), p999 {:.4} ms ({} beyond); \
closed-loop throughput is the median over {} windows",
        serve.p50_ms,
        serve.p95_ms,
        serve.open_windows,
        serve::WINDOW_S,
        serve.latency_samples,
        serve.pooled_p95_ms,
        serve.beyond_p95,
        serve.p99_ms,
        serve.beyond_p99,
        serve.p999_ms,
        serve.beyond_p999,
        serve.closed_windows
    );

    let mut metrics = Metrics::default();
    if args.trace {
        per_layer(&traced, &untraced, &serve, args.seed, &mut metrics);
    } else {
        end_to_end(&untraced, &serve, &mut metrics);
    }
    for (name, value, unit) in &metrics.0 {
        if !value.is_finite() {
            problems.push(format!("metric {name} is not finite"));
        }
        println!("# {name} {value} {unit}");
    }
    for p in &problems {
        eprintln!("perfbench: check failed: {p}");
    }
    finish(
        problems.is_empty(),
        attempted + serve.attempted,
        serve.failed,
        &metrics,
    );
}
