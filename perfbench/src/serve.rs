//! Serving side of a workload: build a checkpoint from the trained
//! session, load it, start the in-process server, then drive valid
//! `/assign` traffic in bursts of an open-loop phase (latency) and a
//! closed-loop phase (throughput), scraping `/metrics` around each phase.

use crate::stats::{median, percentile};
use adec_core::Session;
use adec_loadgen::{
    run_schedule, Arrival, ClientConfig, ConnStrategy, PayloadMix, Schedule, ScheduleConfig,
};
use adec_nn::Checkpoint;
use adec_serve::{InferenceModel, ServerConfig, ServerHandle};
use adec_tensor::{Matrix, SeedRng};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long one client exchange may take before it counts as lost.
const TIMEOUT: Duration = Duration::from_secs(10);
/// Rows in a batch request.
const BATCH_ROWS: usize = 16;
/// Server starts in set-up; `setup_s` takes their median.
const SERVER_STARTS: usize = 15;
/// Rows whose served labels are compared with direct model calls.
const LABEL_SAMPLE: usize = 16;
/// Length of the windows the per-window latency percentiles and
/// throughputs are taken over.
pub const WINDOW_S: f64 = 0.25;

/// Everything the serving phase measured.
#[derive(Debug, Default)]
pub struct ServeOut {
    /// Median set-up time: checkpoint encode, decode, model build,
    /// server start and first ready answer.
    pub setup_s: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    /// Percentiles over every answered open-loop request, printed with
    /// their sample counts; not metrics.
    pub pooled_p95_ms: f64,
    pub p99_ms: f64,
    pub p999_ms: f64,
    pub latency_samples: usize,
    pub beyond_p95: usize,
    pub beyond_p99: usize,
    pub beyond_p999: usize,
    pub closed_rps: f64,
    /// Process CPU microseconds per closed-loop request.
    pub cpu_us_per_req: f64,
    /// Windows the medians above were taken over.
    pub open_windows: usize,
    pub closed_windows: usize,
    /// Requests sent in the label check and both timed phases.
    pub attempted: usize,
    /// Of those, requests not answered 200.
    pub failed: usize,
    pub request_mean_ms: f64,
    pub queue_depth_mean: f64,
    pub eval_mean_ms: f64,
    pub eval_share: f64,
    pub rejected_busy: f64,
    pub client_errors: f64,
    pub lag_p95_ms: f64,
    pub service_p50_ms: f64,
    pub assign_us_single: f64,
    pub assign_us_batch16: f64,
    /// Failed correctness checks.
    pub problems: Vec<String>,
}

/// Stops and joins the server on every exit path.
struct Running(Option<ServerHandle>);

impl Running {
    fn addr(&self) -> Option<SocketAddr> {
        self.0.as_ref().map(ServerHandle::addr)
    }

    fn stop(&mut self) -> Option<adec_serve::ServeStats> {
        let handle = self.0.take()?;
        handle.shutdown();
        Some(handle.join())
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// One strict `/metrics` scrape.
#[derive(Debug, Clone, Copy, Default)]
struct Scrape {
    served: f64,
    request_sum: f64,
    request_count: f64,
    depth_sum: f64,
    depth_count: f64,
    eval_sum: f64,
    eval_count: f64,
    rejected_busy: f64,
    client_errors: f64,
}

fn scrape(addr: SocketAddr) -> Result<Scrape, String> {
    let (status, body) =
        adec_loadgen::client::get(addr, "/metrics").ok_or("/metrics unreachable")?;
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    let text = std::str::from_utf8(&body).map_err(|_| "/metrics body not UTF-8")?;
    let exp = adec_obs::prom::check_exposition(text)?;
    let get = |name: &str| exp.sample(name).ok_or(format!("/metrics lacks {name}"));
    Ok(Scrape {
        served: get("adec_serve_served_total")?,
        request_sum: get("adec_serve_request_seconds_sum")?,
        request_count: get("adec_serve_request_seconds_count")?,
        depth_sum: get("adec_serve_queue_depth_sum")?,
        depth_count: get("adec_serve_queue_depth_count")?,
        eval_sum: get("adec_serve_assign_eval_seconds_sum")?,
        eval_count: get("adec_serve_assign_eval_seconds_count")?,
        rejected_busy: get("adec_serve_rejected_busy_total")?,
        client_errors: get("adec_serve_client_errors_total")?,
    })
}

/// Checks the server's served-counter delta against the client's 200s.
/// The earlier scrape counts itself after rendering its body, so the
/// delta is the client's 200s plus one.
fn reconcile(phase: &str, before: &Scrape, after: &Scrape, ok: usize) -> Option<String> {
    let delta = (after.served - before.served).round() as i64;
    let want = ok as i64 + 1;
    (delta != want).then(|| format!("{phase}: server served {delta}, client expected {want}"))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One HTTP exchange on a fresh connection (the serve contract is one
/// request per connection); returns the status and body.
fn exchange(addr: SocketAddr, request: &[u8]) -> Option<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect_timeout(&addr, TIMEOUT).ok()?;
    stream.set_read_timeout(Some(TIMEOUT)).ok()?;
    stream.set_write_timeout(Some(TIMEOUT)).ok()?;
    stream.write_all(request).ok()?;
    let _ = stream.shutdown(Shutdown::Write);
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).ok()?;
    let sep = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..sep]).ok()?;
    let status = head.split(' ').nth(1)?.parse().ok()?;
    Some((status, raw[sep + 4..].to_vec()))
}

fn post_request(body: &[u8]) -> Vec<u8> {
    let mut req = format!(
        "POST /assign HTTP/1.1\r\nhost: perfbench\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body);
    req
}

/// Renders rows as a CSV body; `f32` Display round-trips exactly, so the
/// server parses the very values the direct model call sees.
fn csv(x: &Matrix) -> Vec<u8> {
    let mut out = String::new();
    for r in 0..x.rows() {
        let row: Vec<String> = x.row(r).iter().map(f32::to_string).collect();
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out.into_bytes()
}

/// Hard labels out of an `/assign` response body.
fn served_labels(body: &[u8]) -> Option<Vec<usize>> {
    let doc = adec_obs::json::Json::parse(std::str::from_utf8(body).ok()?).ok()?;
    doc.get("assignments")?
        .as_arr()?
        .iter()
        .map(|a| {
            a.get("label")
                .and_then(adec_obs::json::Json::as_u64)
                .map(|l| l as usize)
        })
        .collect()
}

fn start_server(
    session: &Session,
    iterations: usize,
    seed: u64,
) -> Result<(Running, InferenceModel), String> {
    let ck = Checkpoint {
        phase: "adec".into(),
        iter: iterations as u64,
        rng: SeedRng::new(seed).export_state(),
        store: session.store.clone(),
        opts: Vec::new(),
        extra: Vec::new(),
        profile: None,
    };
    let bytes = ck.encode().map_err(|e| format!("checkpoint encode: {e}"))?;
    let loaded = Checkpoint::decode(&bytes).map_err(|e| format!("checkpoint decode: {e}"))?;
    let model = InferenceModel::from_checkpoint(&loaded, 1.0).map_err(|e| format!("model: {e}"))?;
    let config = ServerConfig {
        replicas: 2,
        seed,
        trace_slow_ms: None,
        ..ServerConfig::default()
    };
    let handle =
        ServerHandle::start(model.clone(), config).map_err(|e| format!("server start: {e}"))?;
    let running = Running(Some(handle));
    let addr = running.addr().ok_or("server handle missing")?;
    let deadline = Instant::now() + TIMEOUT;
    while adec_loadgen::client::discover_input_dim(addr) != Some(model.input_dim()) {
        if Instant::now() > deadline {
            return Err("server never became ready".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok((running, model))
}

/// Closed loop: `threads` clients, each sending its next request when the
/// previous one is answered, until `seconds` pass. Returns the completion
/// instants (seconds from the start) of the 200s and the count of other
/// outcomes.
fn closed_loop(
    addr: SocketAddr,
    bodies: &[Vec<u8>],
    threads: usize,
    seconds: f64,
) -> (Vec<f64>, usize) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let per_thread: Vec<(Vec<f64>, usize)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let (mut done, mut other) = (Vec::new(), 0usize);
                    let mut i = t;
                    while Instant::now() < deadline {
                        match exchange(addr, &post_request(&bodies[i % bodies.len()])) {
                            Some((200, _)) => done.push(start.elapsed().as_secs_f64()),
                            _ => other += 1,
                        }
                        i += threads;
                    }
                    (done, other)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or((Vec::new(), 1)))
            .collect()
    });
    let other = per_thread.iter().map(|t| t.1).sum();
    (per_thread.into_iter().flat_map(|t| t.0).collect(), other)
}

/// Splits `(instant, value)` samples into consecutive windows of
/// `WINDOW_S` seconds (dropping a partial last window) and returns each
/// window's values, sorted.
fn windows(samples: impl Iterator<Item = (f64, f64)>, phase_s: f64) -> Vec<Vec<f64>> {
    let count = ((phase_s / WINDOW_S).floor() as usize).max(1);
    let mut out = vec![Vec::new(); count];
    for (t, v) in samples {
        if let Some(w) = out.get_mut((t / WINDOW_S) as usize) {
            w.push(v);
        }
    }
    for w in &mut out {
        w.sort_by(f64::total_cmp);
    }
    out
}

/// Median per-call microseconds of direct `InferenceModel::assign` calls.
fn time_assign(model: &InferenceModel, x: &Matrix) -> f64 {
    const CALLS: usize = 200;
    let per_call: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..CALLS {
                let _ = black_box(model.assign(black_box(x)));
            }
            t.elapsed().as_secs_f64() * 1e6 / CALLS as f64
        })
        .collect();
    median(&per_call)
}

/// The running server plus everything measured against it so far.
pub struct Bench {
    running: Running,
    model: InferenceModel,
    /// The first rows of the training data, for direct model calls.
    sample: Matrix,
    addr: SocketAddr,
    threads: usize,
    rps: f64,
    seed: u64,
    bursts: u64,
    out: ServeOut,
    /// Per-window open-loop percentiles and closed-loop throughputs.
    p50: Vec<f64>,
    p95: Vec<f64>,
    closed: Vec<f64>,
    sched: Vec<f64>,
    service: Vec<f64>,
    lag: Vec<f64>,
    /// Process CPU time (client and server threads) spent in the
    /// closed-loop phases, and the requests it served.
    closed_cpu_s: f64,
    closed_requests: usize,
    /// `/metrics` deltas summed over the open-loop phases.
    open_delta: Scrape,
    /// `/metrics` deltas summed over the closed-loop phases.
    closed_delta: Scrape,
}

fn delta(acc: &mut Scrape, before: &Scrape, after: &Scrape) {
    acc.request_sum += after.request_sum - before.request_sum;
    acc.request_count += after.request_count - before.request_count;
    acc.depth_sum += after.depth_sum - before.depth_sum;
    acc.depth_count += after.depth_count - before.depth_count;
    acc.eval_sum += after.eval_sum - before.eval_sum;
    acc.eval_count += after.eval_count - before.eval_count;
    acc.rejected_busy += after.rejected_busy - before.rejected_busy;
    acc.client_errors += after.client_errors - before.client_errors;
}

impl Bench {
    /// Set-up (several times; the last server stays up), an untimed
    /// warm-up, and the served-label check against direct model calls.
    ///
    /// # Errors
    ///
    /// A message when the checkpoint, the model or the server cannot be
    /// built, or the server does not become ready.
    pub fn start(
        session: &Session,
        adec_iterations: usize,
        seed: u64,
        threads: usize,
        rps: f64,
        warmup_s: f64,
    ) -> Result<Bench, String> {
        let mut setups = Vec::new();
        let mut server = None;
        for _ in 0..SERVER_STARTS {
            // Dropping the previous server stops and joins it.
            drop(server.take());
            let t = Instant::now();
            server = Some(start_server(session, adec_iterations, seed)?);
            setups.push(t.elapsed().as_secs_f64());
        }
        let (running, model) = server.ok_or("no server")?;
        let addr = running.addr().ok_or("server handle missing")?;
        let mut bench = Bench {
            running,
            model,
            sample: session
                .data
                .gather_rows(&(0..BATCH_ROWS).collect::<Vec<_>>()),
            addr,
            threads,
            rps,
            seed,
            bursts: 0,
            out: ServeOut {
                setup_s: median(&setups),
                ..ServeOut::default()
            },
            p50: Vec::new(),
            p95: Vec::new(),
            closed: Vec::new(),
            sched: Vec::new(),
            service: Vec::new(),
            lag: Vec::new(),
            closed_cpu_s: 0.0,
            closed_requests: 0,
            open_delta: Scrape::default(),
            closed_delta: Scrape::default(),
        };
        let warmup = bench.schedule(warmup_s);
        let _ = closed_loop(addr, &bodies(&warmup), threads, warmup_s);
        bench.check_labels(&session.data)?;
        Ok(bench)
    }

    /// The seeded open-loop schedule of the next burst: valid traffic
    /// only, 90% single rows and 10% 16-row batches.
    fn schedule(&mut self, seconds: f64) -> Schedule {
        self.bursts += 1;
        let schedule = Schedule::build(&ScheduleConfig {
            seed: crate::stats::mix_seed(self.seed, self.bursts),
            rps: self.rps,
            duration: Duration::from_secs_f64(seconds),
            arrival: Arrival::Poisson,
            mix: PayloadMix {
                valid_single: 9,
                valid_batch: 1,
                malformed: 0,
                oversized: 0,
                slowloris: 0,
            },
            input_dim: self.model.input_dim(),
            batch_rows: BATCH_ROWS,
            ..ScheduleConfig::default()
        });
        let kinds = schedule.kind_counts();
        if kinds[2..].iter().any(|&c| c > 0) {
            self.out.problems.push(format!(
                "schedule holds invalid requests: kind counts {kinds:?}"
            ));
        }
        schedule
    }

    /// Served labels must equal direct model calls on the same rows, one
    /// row at a time and as one batch.
    fn check_labels(&mut self, data: &Matrix) -> Result<(), String> {
        let idx: Vec<usize> = (0..LABEL_SAMPLE)
            .map(|i| i * data.rows() / LABEL_SAMPLE)
            .collect();
        let rows = data.gather_rows(&idx);
        let direct: Vec<usize> = self
            .model
            .assign(&rows)
            .map_err(|e| format!("direct assign: {e}"))?
            .iter()
            .map(|a| a.label)
            .collect();
        let mut post = |x: &Matrix| {
            self.out.attempted += 1;
            match exchange(self.addr, &post_request(&csv(x))) {
                Some((200, body)) => served_labels(&body).unwrap_or_default(),
                _ => {
                    self.out.failed += 1;
                    Vec::new()
                }
            }
        };
        let single: Vec<usize> = idx
            .iter()
            .flat_map(|&i| post(&data.gather_rows(&[i])))
            .collect();
        let batch = post(&rows);
        if single != direct || batch != direct {
            self.out.problems.push(format!(
                "served labels differ from direct calls: single {single:?}, batch {batch:?}, direct {direct:?}"
            ));
        }
        Ok(())
    }

    /// One open-loop phase at the fixed rate (latency from each request's
    /// scheduled send) followed by one closed-loop phase on `threads`
    /// connections (throughput), each bracketed by `/metrics` scrapes.
    ///
    /// # Errors
    ///
    /// A message when `/metrics` cannot be scraped.
    pub fn burst(&mut self, open_s: f64, closed_s: f64) -> Result<(), String> {
        let schedule = self.schedule(open_s);
        let s0 = scrape(self.addr)?;
        let outcomes = run_schedule(
            &schedule,
            &ClientConfig {
                addr: self.addr,
                concurrency: self.threads,
                conn: ConnStrategy::Reconnect,
                ..ClientConfig::default()
            },
        );
        let s1 = scrape(self.addr)?;
        let n = schedule.requests.len();
        let in_order = outcomes.iter().enumerate().all(|(i, o)| o.index == i);
        if outcomes.len() != n || !in_order {
            self.out.problems.push(format!(
                "{} outcomes for {n} scheduled requests",
                outcomes.len()
            ));
        }
        let ok: Vec<_> = outcomes.iter().filter(|o| o.status == Some(200)).collect();
        self.out.attempted += n;
        self.out.failed += n - ok.len();
        self.out
            .problems
            .extend(reconcile("open loop", &s0, &s1, ok.len()));
        delta(&mut self.open_delta, &s0, &s1);
        let timed = ok.iter().map(|o| {
            (
                schedule.requests[o.index].at.as_secs_f64(),
                o.sched_latency_s * 1e3,
            )
        });
        for w in windows(timed, open_s).iter().filter(|w| !w.is_empty()) {
            self.p50.push(percentile(w, 0.50).0);
            self.p95.push(percentile(w, 0.95).0);
        }
        self.sched
            .extend(ok.iter().map(|o| o.sched_latency_s * 1e3));
        self.service
            .extend(ok.iter().map(|o| o.service_latency_s * 1e3));
        self.lag.extend(
            ok.iter()
                .map(|o| (o.sched_latency_s - o.service_latency_s) * 1e3),
        );

        let cpu0 = crate::stats::process_cpu_s();
        let (done, other_b) = closed_loop(self.addr, &bodies(&schedule), self.threads, closed_s);
        self.closed_cpu_s += crate::stats::process_cpu_s() - cpu0;
        self.closed_requests += done.len() + other_b;
        let s2 = scrape(self.addr)?;
        let ok_b = done.len();
        self.out.attempted += ok_b + other_b;
        self.out.failed += other_b;
        // Each window's rate is measured between its first and last
        // completion, so it does not depend on where the window edges fall.
        let completions = done.into_iter().map(|t| (t, t));
        for w in windows(completions, closed_s) {
            if let (Some(first), Some(last)) = (w.first(), w.last()) {
                if last > first {
                    self.closed.push((w.len() - 1) as f64 / (last - first));
                }
            }
        }
        self.out
            .problems
            .extend(reconcile("closed loop", &s1, &s2, ok_b));
        delta(&mut self.closed_delta, &s1, &s2);
        Ok(())
    }

    /// Stops the server and reduces the bursts: p50, p95 and closed-loop
    /// throughput are medians of exact per-window figures over every
    /// burst, so a stall from outside the benchmark spoils a window, not
    /// the result; p99 and p999 pool every request. With `traced`, also
    /// times direct model calls.
    pub fn finish(mut self, traced: bool) -> ServeOut {
        let mut out = std::mem::take(&mut self.out);
        out.open_windows = self.p50.len();
        out.closed_windows = self.closed.len();
        out.p50_ms = median(&self.p50);
        out.p95_ms = median(&self.p95);
        out.closed_rps = median(&self.closed);
        out.cpu_us_per_req = ratio(self.closed_cpu_s * 1e6, self.closed_requests as f64);
        for v in [&mut self.sched, &mut self.service, &mut self.lag] {
            v.sort_by(f64::total_cmp);
        }
        out.latency_samples = self.sched.len();
        (out.pooled_p95_ms, out.beyond_p95) = percentile(&self.sched, 0.95);
        (out.p99_ms, out.beyond_p99) = percentile(&self.sched, 0.99);
        (out.p999_ms, out.beyond_p999) = percentile(&self.sched, 0.999);
        out.service_p50_ms = percentile(&self.service, 0.50).0;
        out.lag_p95_ms = percentile(&self.lag, 0.95).0;
        let (o, c) = (&self.open_delta, &self.closed_delta);
        out.request_mean_ms = ratio(o.request_sum, o.request_count) * 1e3;
        out.queue_depth_mean = ratio(o.depth_sum, o.depth_count);
        out.eval_mean_ms = ratio(c.eval_sum, c.eval_count) * 1e3;
        out.eval_share = ratio(c.eval_sum, c.request_sum);
        out.rejected_busy = o.rejected_busy + c.rejected_busy;
        out.client_errors = o.client_errors + c.client_errors;
        if traced {
            out.assign_us_single = time_assign(&self.model, &self.sample.gather_rows(&[0]));
            out.assign_us_batch16 = time_assign(&self.model, &self.sample);
        }
        match self.running.stop() {
            Some(stats) if stats.caught_panics > 0 => {
                out.problems
                    .push(format!("server caught {} panics", stats.caught_panics));
            }
            Some(_) => {}
            None => out.problems.push("server already stopped".into()),
        }
        out
    }
}

fn bodies(schedule: &Schedule) -> Vec<Vec<u8>> {
    schedule.requests.iter().map(|r| r.body.clone()).collect()
}
