//! The benchmark command.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload steady|storm --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run drives the whole stack from outside through its public APIs:
//! a fleet phase, a synopsis-learning phase and a serving phase (daemon
//! plus HTTP gateway).  The workload sets the input character every phase
//! sees.  With `--trace 0` the last stdout line reports every end-to-end
//! metric; with `--trace 1` a separate traced run reports every per-layer
//! metric and writes its spans to `.bench_out/`.  The command exits 1 when
//! an output check fails and 2 on bad arguments or a failed set-up.

use selfheal_benchmark::calib::Speed;
use selfheal_benchmark::fleet::{self, Shape};
use selfheal_benchmark::learn;
use selfheal_benchmark::report::{peak_rss_mb, Report, SplitMix};
use selfheal_benchmark::serve::{self, Stack};
use selfheal_benchmark::stats::{self, median, median_or_nan, tail_percentile};
use selfheal_benchmark::trace::SpanLog;
use selfheal_fleet::ExecutionMode;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// Parsed command line.
struct Args {
    shape: Shape,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| "bad --seconds")?),
            "--trace" => trace = Some(value == "1"),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let shape = match workload.as_str() {
        "steady" => Shape::Steady,
        "storm" => Shape::Storm,
        other => return Err(format!("unknown workload {other:?} (steady, storm)")),
    };
    Ok(Args {
        shape,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(50.0).max(1.0),
        trace: trace.unwrap_or(false),
    })
}

/// Ticks each fleet runs.  Per-tick cost grows as faults pile up, so the
/// length is fixed, never derived from the time budget.
const FLEET_TICKS: u64 = 2_500;

/// Distinct fleets per run; the violation fraction is averaged over all of
/// their replicas.
const FLEETS: usize = 32;

/// The seeds of every input stream of one run, split from `--seed`.
struct Seeds {
    fleets: Vec<u64>,
    learn: u64,
    serve: u64,
    schedule: u64,
}

impl Seeds {
    fn split(seed: u64) -> Seeds {
        let mut rng = SplitMix::new(seed);
        Seeds {
            fleets: (0..FLEETS).map(|_| rng.fork()).collect(),
            learn: rng.fork(),
            serve: rng.fork(),
            schedule: rng.fork(),
        }
    }
}

/// Shares of `--seconds` each phase measures for.
struct Budget(f64);

impl Budget {
    fn share(&self, fraction: f64) -> Duration {
        Duration::from_secs_f64(self.0 * fraction)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("selfheal-benchmark: {message}");
            eprintln!("usage: --workload steady|storm --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let out = PathBuf::from(".bench_out");
    let dir = out.join(format!("run-{}", std::process::id()));
    if let Err(err) = std::fs::create_dir_all(&dir) {
        eprintln!("selfheal-benchmark: cannot create {}: {err}", dir.display());
        return ExitCode::from(2);
    }
    let mut report = Report::default();
    let outcome = if args.trace {
        traced(&args, &dir, &out, &mut report)
    } else {
        untraced(&args, &dir, &mut report)
    };
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(message) = outcome {
        eprintln!("selfheal-benchmark: {message}");
        return ExitCode::from(2);
    }
    for problem in &report.problems {
        eprintln!("check failed: {problem}");
    }
    println!("{}", report.to_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The untraced run: every end-to-end metric.
fn untraced(args: &Args, dir: &Path, report: &mut Report) -> Result<(), String> {
    let seeds = Seeds::split(args.seed);
    let budget = Budget(args.seconds);
    // The fleet phase measures twice and the learning phase three times,
    // spread over the run, so their best-of figures draw on moments far
    // apart and a slow spell on the host costs a repeat, not the figure.
    eprintln!("learning phase ({})", args.workload);
    let mut learned = learn::LearnPhase::new(seeds.learn, report);
    learned.rounds(budget.share(LEARN_WINDOW), report);
    eprintln!("fleet phase");
    let mut fleets = fleet::FleetPhase::new(args.shape, &seeds.fleets, FLEET_TICKS, dir);
    fleets.sweep(report);
    learned.rounds(budget.share(LEARN_WINDOW), report);
    eprintln!("serving phase");
    let served = serve_phase(args.shape, &seeds, &budget, dir, report)?;
    eprintln!("fleet and learning phases again");
    fleets.sweep(report);
    learned.rounds(budget.share(LEARN_WINDOW), report);

    let setup_s = median_or_nan(&fleets.setup_s) + median_or_nan(&learned.setup_s) + served.setup_s;
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB");
    report.metric("ticks_per_s", fleets.seq_tps(), "replica-ticks/s");
    report.metric("ticks_per_s_parallel", fleets.par_tps(), "replica-ticks/s");
    let violations = fleets.violations();
    report.metric(
        "violation_frac",
        stats::mean(&violations).unwrap_or(f64::NAN),
        "ratio",
    );
    for (name, learn_s, accuracy) in learned.results(report) {
        report.metric(format!("learn_s.{name}"), learn_s, "s");
        report.metric(format!("accuracy.{name}"), accuracy, "ratio");
    }
    report.metric("latency_p50_ms", served.p50_ms, "ms");
    report.metric("latency_p90_ms", served.p90_ms, "ms");
    report.metric("write_latency_p50_ms", served.write_p50_ms, "ms");
    report.metric("max_rate_rps", served.max_rate_rps, "req/s");
    let missing: Vec<String> = report
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| format!("metric {} could not be measured", m.name))
        .collect();
    for problem in missing {
        report.check(false, || problem);
    }
    Ok(())
}

/// Share of `--seconds` of each of the three learning windows (each runs
/// at least one round over every stream).
const LEARN_WINDOW: f64 = 0.05;

/// What the serving phase measured.
struct Served {
    setup_s: f64,
    p50_ms: f64,
    p90_ms: f64,
    write_p50_ms: f64,
    max_rate_rps: f64,
}

/// The reference rate latencies are reported at.
const REFERENCE_RPS: f64 = 10.0;
/// Share of the run's seconds the reference rung's requests fall due in.
const REFERENCE_SHARE: f64 = 0.36;
/// Fewest requests the reference rung sends.
const REFERENCE_SAMPLES: f64 = 110.0;
/// Share of the run's seconds of the writes-only rung at the reference
/// rate.  A request waits for the daemon's next control barrier, so its
/// latency spreads evenly over about 10 ms, and the median of the
/// reference rung's ~36 writes moved by up to a quarter from run to run;
/// this rung adds 100 writes at `--seconds 50`.
const WRITES_SHARE: f64 = 0.2;
/// Offered rate of the saturating rung.  Two connections serve about
/// 37 req/s, so requests queue from the start and the rung's completion
/// rate is the gateway's capacity, up to this rate.
const SATURATING_RPS: f64 = 120.0;
/// Share of the run's seconds the saturating rung's requests fall due in
/// (150 requests at `--seconds 50`, served in about 4 s).
const SATURATING_SHARE: f64 = 0.025;

fn serve_phase(
    shape: Shape,
    seeds: &Seeds,
    budget: &Budget,
    dir: &Path,
    report: &mut Report,
) -> Result<Served, String> {
    let pristine = dir.join("logs");
    std::fs::create_dir_all(&pristine)
        .map_err(|e| format!("create {}: {e}", pristine.display()))?;
    serve::prerun(&pristine, seeds.serve, shape.fault_rate())?;
    let live = dir.join("live");
    // Each rung runs on its own relaunch of the daemon, so every rung meets
    // a daemon of the same age.  A daemon running hot grows its memory for
    // as long as it serves (about 5 MB over the reference rung on
    // `steady`), so with one daemon serving every rung the process's peak
    // memory moved by up to a fifth between runs.
    let mut setups = Vec::new();
    let mut rng = SplitMix::new(seeds.schedule);
    let mut serve_rung = |rate: f64, duration: Duration, tag: usize, reads: f64| {
        let (stack, setup_s) = Stack::launch(&pristine, &live, seeds.serve, shape.fault_rate())?;
        setups.push(setup_s);
        let rung = serve::run_rung(&stack, rate, duration, tag, reads, &mut rng, None);
        stack.stop()?;
        serve::check_rung(&rung, report);
        Ok::<_, String>(rung)
    };
    // Enough requests that ten or more lie beyond the p90.
    let duration = budget
        .share(REFERENCE_SHARE)
        .max(Duration::from_secs_f64(REFERENCE_SAMPLES / REFERENCE_RPS));
    let reference = serve_rung(REFERENCE_RPS, duration, 0, serve::READS)?;
    let writes = serve_rung(REFERENCE_RPS, budget.share(WRITES_SHARE), 1, 0.0)?;
    let saturating = serve_rung(
        SATURATING_RPS,
        budget.share(SATURATING_SHARE),
        2,
        serve::READS,
    )?;
    let latencies = reference.latencies_ms();
    let mut write_latencies = reference.write_latencies_ms();
    write_latencies.extend(writes.write_latencies_ms());
    Ok(Served {
        setup_s: median_or_nan(&setups),
        p50_ms: median(&latencies).unwrap_or(f64::NAN),
        p90_ms: tail_percentile(&latencies, 90.0).unwrap_or(f64::NAN),
        write_p50_ms: median(&write_latencies).unwrap_or(f64::NAN),
        max_rate_rps: saturating.achieved_rps(),
    })
}

/// The traced run: every per-layer metric, plus tracing overhead.
fn traced(args: &Args, dir: &Path, out: &Path, report: &mut Report) -> Result<(), String> {
    let seeds = Seeds::split(args.seed);
    let spans = SpanLog::default();
    // The host-speed kernel, sampled between the phases.
    let mut speed = Speed::new();
    let sample_speed = |speed: &mut Speed| (0..10).for_each(|_| speed.sample());
    sample_speed(&mut speed);
    let shape = args.shape;
    let seed = seeds.fleets[0];
    let ticks = FLEET_TICKS;

    eprintln!("traced fleet phase ({})", args.workload);
    let log = dir.join("fleet.jsonl");
    // Traced and undecorated runs alternate, so the overhead compares
    // neighbours in time, and each side keeps its fastest of seven runs (a
    // fleet run lasts ~0.1 s, well inside the host's noise); only the
    // first traced run keeps its spans.
    let mut layers = None;
    let (mut traced_walls, mut plain_walls, mut engine_walls) = (vec![], vec![], vec![]);
    let mut par_walls = vec![];
    for _ in 0..7 {
        let scratch = SpanLog::default();
        let run = fleet::run_traced(
            shape,
            seed,
            ticks,
            &log,
            layers.as_ref().map_or(&spans, |_| &scratch),
        );
        traced_walls.push(run.wall_s);
        let (plain, wall) = fleet::run_plain(shape, seed, ticks, &log);
        plain_walls.push(wall);
        let seq =
            fleet::run_engine(shape.config(seed, ticks, ExecutionMode::Sequential, Some(&log)));
        engine_walls.push(seq.outcome.wall().as_secs_f64());
        let par = fleet::run_engine(shape.config(
            seed,
            ticks,
            ExecutionMode::Parallel {
                threads: Some(fleet::THREADS),
            },
            Some(&log),
        ));
        par_walls.push(par.outcome.wall().as_secs_f64());
        let engine_prints = seq.outcome.fingerprints();
        report.check(run.healing.fingerprints == engine_prints, || {
            "traced fleet fingerprints differ from the untraced engine run".to_string()
        });
        report.check(plain.fingerprints == engine_prints, || {
            "undecorated replica fingerprints differ from the engine run".to_string()
        });
        report.check(par.outcome.fingerprints() == engine_prints, || {
            "parallel fleet fingerprints differ from sequential".to_string()
        });
        layers.get_or_insert(run);
    }
    let layers = layers.expect("traced seven times");
    let healing = &layers.healing;
    let fastest = |walls: &[f64]| walls.iter().copied().fold(f64::INFINITY, f64::min);
    let plain_wall = fastest(&plain_walls);
    let engine_wall = fastest(&engine_walls);
    report.metric("workload.next_tick_ns", layers.next_tick_ns, "ns");
    report.metric("faults.due_at_ns", layers.due_at_ns, "ns");
    report.metric("sim.tick_ns", layers.sim_tick_ns, "ns");
    report.metric(
        "sim.ns_per_request",
        layers.sim_tick_ns * layers.ticks as f64 / layers.requests.max(1) as f64,
        "ns",
    );
    report.metric("sim.requests", layers.requests as f64, "count");
    report.metric("sim.active_faults_mean", layers.active_faults_mean, "count");
    report.metric("sim.tick_ns.q1", layers.sim_tick_ns_q1, "ns");
    report.metric("sim.tick_ns.q4", layers.sim_tick_ns_q4, "ns");
    report.metric("telemetry.series_push_ns", layers.series_push_ns, "ns");
    report.metric("core.observe_ns", layers.observe_ns, "ns");
    report.metric("core.episodes", healing.episodes as f64, "count");
    report.metric("core.fixes", healing.fixes as f64, "count");
    let recoveries: Vec<f64> = healing.recoveries.iter().map(|&t| t as f64).collect();
    report.metric(
        "core.recovery_ticks_mean",
        stats::mean(&recoveries).unwrap_or(f64::NAN),
        "ticks",
    );
    report.metric("store.suggest_ns", layers.suggest_ns, "ns");
    report.metric("store.suggest_calls", layers.suggest_calls as f64, "count");
    report.metric("store.record_ns", layers.record_ns, "ns");
    report.metric("store.record_calls", layers.record_calls as f64, "count");
    report.metric("store.drains", layers.drains as f64, "count");
    report.metric("store.drain_ns", layers.drain_ns, "ns");
    report.metric("store.flush_ns", layers.flush_ns, "ns");
    report.metric("snapshot.append_bytes", layers.append_bytes as f64, "bytes");
    report.metric("snapshot.replay_s", layers.replay_s, "s");
    report.metric(
        "fleet.sequential_overhead_frac",
        (engine_wall - plain_wall) / engine_wall,
        "ratio",
    );
    report.metric(
        "fleet.parallel_efficiency",
        engine_wall / (fastest(&par_walls) * fleet::THREADS as f64),
        "ratio",
    );
    report.metric(
        "trace.overhead_frac.fleet",
        fastest(&traced_walls) / plain_wall - 1.0,
        "ratio",
    );

    sample_speed(&mut speed);
    eprintln!("traced learning phase");
    let inputs = learn::generate(
        seeds.learn,
        learn::STREAMS,
        learn::TRAIN_STATES,
        learn::TEST_STATES,
    );
    let (mut traced_s, mut plain_s) = (0.0, 0.0);
    for (kind, name) in learn::kinds() {
        let mut runs = Vec::new();
        for stream in &inputs.streams {
            let run = learn::run_kind(kind, stream, &inputs.test, Some(&spans));
            let plain = learn::run_kind(kind, stream, &inputs.test, None);
            report.check(plain.outputs() == run.outputs(), || {
                format!("traced {name} learned differently from the untraced pass")
            });
            traced_s += run.learn_s;
            plain_s += plain.learn_s;
            runs.push(run);
        }
        let sum = |f: fn(&learn::KindRun) -> u64| runs.iter().map(f).sum::<u64>() as f64;
        let episodes = sum(|r| r.episodes);
        report.metric(
            format!("learn.episode_ns.{name}"),
            sum(|r| r.episode_ns) / episodes,
            "ns",
        );
        report.metric(
            format!("learn.eval_ns.{name}"),
            sum(|r| r.eval_ns) / episodes,
            "ns",
        );
        report.metric(
            format!("learn.training_ops.{name}"),
            sum(|r| r.training_ops),
            "count",
        );
        report.metric(
            format!("learn.escalation_frac.{name}"),
            sum(|r| r.escalations) / episodes,
            "ratio",
        );
        report.metric(
            format!("learn.attempts_per_episode.{name}"),
            sum(|r| r.attempts) / episodes,
            "count",
        );
    }
    report.metric(
        "trace.overhead_frac.learn",
        traced_s / plain_s - 1.0,
        "ratio",
    );

    sample_speed(&mut speed);
    eprintln!("traced serving phase");
    let pristine = dir.join("logs");
    std::fs::create_dir_all(&pristine)
        .map_err(|e| format!("create {}: {e}", pristine.display()))?;
    serve::prerun(&pristine, seeds.serve, shape.fault_rate())?;
    let (stack, _) = Stack::launch(
        &pristine,
        &dir.join("live"),
        seeds.serve,
        shape.fault_rate(),
    )?;
    let budget = Budget(args.seconds);
    let mut rng = SplitMix::new(seeds.schedule);
    // Short untraced and traced rungs alternate in the order u t t u u t t
    // u, so the daemon's per-tick cost, which grows over a serving phase,
    // weighs on both sides alike and the overhead compares neighbours.
    let rung_time = budget.share(0.15).max(Duration::from_secs(5)) / 4;
    let (t0, u0) = stack.ticks_and_uptime()?;
    let (mut plain_ms, mut traced_ms, mut traced_ops, mut late) = (vec![], vec![], vec![], vec![]);
    for (tag, traced) in [false, true, true, false, false, true, true, false]
        .into_iter()
        .enumerate()
    {
        let rung = serve::run_rung(
            &stack,
            REFERENCE_RPS,
            rung_time,
            tag,
            serve::READS,
            &mut rng,
            traced.then_some(&spans),
        );
        serve::check_rung(&rung, report);
        if traced {
            traced_ms.extend(rung.latencies_ms());
            late.extend(
                rung.report
                    .generator_late
                    .iter()
                    .map(|d| d.as_secs_f64() * 1e3),
            );
            traced_ops.extend(rung.ops);
        } else {
            plain_ms.extend(rung.latencies_ms());
        }
    }
    let (t1, u1) = stack.ticks_and_uptime()?;
    let (http, protocol) = serve::rtt_probe(&stack, 40, Some(&spans))?;
    stack.stop()?;
    let (route_us, auth_us) = serve::route_and_auth_us(&traced_ops, &dir.join("live"));
    let (replay_s, epoch_ms, fix_stats_ms, snapshot_ms) = serve::daemon_layers(
        &pristine,
        &dir.join("layers"),
        seeds.serve,
        shape.fault_rate(),
        200,
    )?;
    report.metric("daemon.epoch_ms", epoch_ms, "ms");
    report.metric("daemon.protocol_rtt_ms", median_or_nan(&protocol), "ms");
    report.metric("daemon.fix_stats_ms", fix_stats_ms, "ms");
    report.metric("daemon.snapshot_ms", snapshot_ms, "ms");
    report.metric("daemon.replay_s", replay_s, "s");
    report.metric(
        "daemon.ticks_per_s",
        (t1 - t0) as f64 / ((u1.saturating_sub(u0)).max(1) as f64 / 1e3),
        "replica-ticks/s",
    );
    report.metric("gateway.http_rtt_ms", median_or_nan(&http), "ms");
    report.metric(
        "gateway.overhead_ms",
        median_or_nan(&http) - median_or_nan(&protocol),
        "ms",
    );
    report.metric("gateway.route_us", route_us, "us");
    report.metric("gateway.auth_us", auth_us, "us");
    report.metric(
        "gateway.generator_late_ms",
        stats::percentile(&late, 90.0).unwrap_or(f64::NAN),
        "ms",
    );
    let mean_ms = |ms: &[f64]| stats::mean(ms).unwrap_or(f64::NAN);
    report.metric(
        "trace.overhead_frac.gateway",
        mean_ms(&traced_ms) / mean_ms(&plain_ms) - 1.0,
        "ratio",
    );
    sample_speed(&mut speed);
    report.metric("host.kernel_ms", speed.kernel_ms(), "ms");
    report.metric("trace.spans", spans.len() as f64, "count");
    let path = out.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    spans
        .write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("spans written to {}", path.display());
    Ok(())
}
