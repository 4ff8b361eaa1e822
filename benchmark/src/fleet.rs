//! The fleet phase: batch fleets through `FleetConfig`/`FleetEngine`, run
//! sequentially and on two worker threads, plus the traced replica
//! rebuild that times each layer from outside.

use crate::calib::Speed;
use crate::report::Report;
use crate::trace::{now_ns, LayerClock, SpanLog, TimedFaults, TimedHealer, TimedStore, TimedTrace};
use selfheal_core::harness::{FaultChoice, LearnerChoice, PolicyChoice, WorkloadChoice};
use selfheal_core::snapshot::SynopsisSnapshot;
use selfheal_core::store::SynopsisStore;
use selfheal_core::synopsis::SynopsisKind;
use selfheal_faults::ServiceProfile;
use selfheal_fleet::{ExecutionMode, FleetConfig, FleetEngine, FleetOutcome};
use selfheal_sim::scenario::{Healer, ScenarioOutcome, ScenarioRunner};
use selfheal_sim::{split_seed, MultiTierService, SeedStream, ServiceConfig};
use selfheal_telemetry::SeriesStore;
use selfheal_workload::{ArrivalProcess, WorkloadMix};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Replicas per fleet.
pub const REPLICAS: usize = 4;
/// Ticks per scheduler epoch.
pub const SLICE: u64 = 64;
/// Metric samples each replica retains.
pub const SERIES_CAPACITY: usize = 512;
/// Worker threads of the parallel engine.
pub const THREADS: usize = 2;

/// The two fleet shapes the workloads run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Read-heavy browsing traffic, rare faults, one locked store.
    Steady,
    /// Write-heavy traffic, the daemon's default fault rate, a sharded
    /// store persisted incrementally.
    Storm,
}

impl Shape {
    /// Per-tick fault probability of every replica.
    pub fn fault_rate(self) -> f64 {
        match self {
            Shape::Steady => 0.002,
            Shape::Storm => 0.02,
        }
    }

    /// The synthetic traffic every replica serves.
    pub fn workload(self) -> WorkloadChoice {
        let (mix, rate) = match self {
            Shape::Steady => (WorkloadMix::browsing(), 60.0),
            Shape::Storm => (WorkloadMix::write_heavy(), 20.0),
        };
        WorkloadChoice::synthetic(mix, ArrivalProcess::Poisson { rate })
    }

    /// The stochastic fault mix every replica draws from.
    pub fn faults(self) -> FaultChoice {
        FaultChoice::mix_for(
            ServiceProfile::Online,
            self.fault_rate(),
            &ServiceConfig::rubis_default(),
        )
    }

    /// Whether the fleet's store streams to a snapshot log.
    pub fn persists(self) -> bool {
        self == Shape::Storm
    }

    /// The fleet configuration for one seed, tick count and mode.
    pub fn config(
        self,
        seed: u64,
        ticks: u64,
        mode: ExecutionMode,
        log: Option<&Path>,
    ) -> FleetConfig {
        let learner = match self {
            Shape::Steady => LearnerChoice::locked(),
            Shape::Storm => LearnerChoice::Sharded {
                shards: 4,
                batch: 1,
            },
        };
        let mut config = FleetConfig::builder()
            .replicas(REPLICAS)
            .ticks(ticks)
            .base_seed(seed)
            .service(ServiceConfig::rubis_default())
            .workload(self.workload())
            .faults(self.faults())
            .policy(PolicyChoice::FixSym(SynopsisKind::NearestNeighbor))
            .learner(learner)
            .series_capacity(SERIES_CAPACITY)
            .slice(SLICE)
            .mode(mode);
        if let (true, Some(log)) = (self.persists(), log) {
            config = config.persist_synopsis(log);
        }
        config
    }
}

/// One untraced engine run.
pub struct EngineRun {
    /// The engine's outcome.
    pub outcome: FleetOutcome,
    /// Host seconds before the first tick (engine, store and replica build).
    pub setup_s: f64,
}

/// Runs one fleet through `FleetEngine::run`, timing set-up as the part of
/// the call outside the engine's own timed region.
pub fn run_engine(config: FleetConfig) -> EngineRun {
    let start = Instant::now();
    let outcome = config.build().run();
    let total = start.elapsed();
    let setup_s = total.saturating_sub(outcome.wall()).as_secs_f64();
    EngineRun { outcome, setup_s }
}

/// The aggregate of a replica set's scenario outcomes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Healing {
    /// Per-replica fingerprints.
    pub fingerprints: Vec<u64>,
    /// Recovery ticks of every closed episode.
    pub recoveries: Vec<u64>,
    /// Per-replica SLO-violation fractions.
    pub violations: Vec<f64>,
    /// Episodes opened, closed or not.
    pub episodes: usize,
    /// Fixes initiated.
    pub fixes: u64,
}

impl Healing {
    /// Summarises scenario outcomes.
    pub fn of<'a>(outcomes: impl IntoIterator<Item = &'a ScenarioOutcome>) -> Healing {
        let mut healing = Healing::default();
        for outcome in outcomes {
            healing.fingerprints.push(outcome.fingerprint());
            healing.recoveries.extend(
                outcome
                    .recovery
                    .episodes()
                    .iter()
                    .filter_map(|e| e.recovery_ticks()),
            );
            healing.violations.push(outcome.violation_fraction);
            healing.episodes += outcome.recovery.len();
            healing.fixes += outcome.fixes_initiated;
        }
        healing
    }

    /// Summarises an engine outcome.
    pub fn of_fleet(outcome: &FleetOutcome) -> Healing {
        Healing::of(outcome.replicas().iter().map(|r| &r.outcome))
    }
}

/// Per-layer readings of one traced fleet run.
#[derive(Debug)]
pub struct LayerReadings {
    /// Host seconds of the traced run (stepping plus final flush).
    pub wall_s: f64,
    /// Ticks stepped over all replicas.
    pub ticks: u64,
    /// Mean nanoseconds per `TraceSource::next_tick` call.
    pub next_tick_ns: f64,
    /// Mean nanoseconds per `FaultSource::due_at` call.
    pub due_at_ns: f64,
    /// Mean nanoseconds per `Healer::observe` call.
    pub observe_ns: f64,
    /// Mean simulator nanoseconds per tick (step minus the decorated calls
    /// and the series push).
    pub sim_tick_ns: f64,
    /// Same, first quarter of the run.
    pub sim_tick_ns_q1: f64,
    /// Same, last quarter of the run.
    pub sim_tick_ns_q4: f64,
    /// Requests served.
    pub requests: u64,
    /// Mean active faults per replica-tick.
    pub active_faults_mean: f64,
    /// Mean nanoseconds per series push (replayed on a shadow store).
    pub series_push_ns: f64,
    /// Mean nanoseconds per store `suggest`.
    pub suggest_ns: f64,
    /// Store `suggest` calls.
    pub suggest_calls: u64,
    /// Mean nanoseconds per store `record`.
    pub record_ns: f64,
    /// Store `record` calls.
    pub record_calls: u64,
    /// `record` calls that drained the queue.
    pub drains: u64,
    /// Mean nanoseconds of a draining `record`.
    pub drain_ns: f64,
    /// Nanoseconds of the final flush.
    pub flush_ns: f64,
    /// Bytes in the incremental snapshot log after the run.
    pub append_bytes: u64,
    /// Host seconds to load the log back.
    pub replay_s: f64,
    /// Outcome summary over all replicas.
    pub healing: Healing,
}

/// Builds one replica the way `FleetEngine` does, with every layer trait
/// wrapped in a timing decorator charging `clock`.
fn traced_replica(
    shape: Shape,
    seed: u64,
    replica: usize,
    store: &dyn SynopsisStore,
    clock: &Arc<LayerClock>,
) -> ScenarioRunner<Box<dyn Healer>> {
    let r = replica as u64;
    let workload = shape
        .workload()
        .source_for_replica(split_seed(seed, r, SeedStream::Workload), r);
    let faults = shape
        .faults()
        .source_for_replica(split_seed(seed, r, SeedStream::Faults), r);
    let mut config = ServiceConfig::rubis_default();
    config.seed = split_seed(seed, r, SeedStream::Service);
    let service = MultiTierService::new(config);
    let schema = service.schema().clone();
    let handle = Box::new(TimedStore::new(store.clone_store(), Arc::clone(clock)));
    let targets = ServiceConfig::rubis_default().slo_targets();
    let healer = PolicyChoice::FixSym(SynopsisKind::NearestNeighbor)
        .build_healer_stored(&schema, targets, handle);
    ScenarioRunner::with_faults(
        service,
        Box::new(TimedTrace::new(workload, Arc::clone(clock))),
        Box::new(TimedFaults::new(faults, Arc::clone(clock))),
        Box::new(TimedHealer::new(healer, Arc::clone(clock))) as Box<dyn Healer>,
    )
    .with_series_capacity(SERIES_CAPACITY)
}

/// Steps `runners` in the sequential engine's interleave: every replica
/// advances one [`SLICE`] per epoch, in replica order.
fn interleave(
    runners: &mut [ScenarioRunner<Box<dyn Healer>>],
    ticks: u64,
    mut each: impl FnMut(usize, &mut ScenarioRunner<Box<dyn Healer>>, u64),
) {
    let mut start = 0;
    while start < ticks {
        let end = (start + SLICE).min(ticks);
        for (replica, runner) in runners.iter_mut().enumerate() {
            each(replica, runner, end - start);
        }
        start = end;
    }
}

/// Steps the engine's own replicas (`FleetEngine::replica_runner`) in the
/// sequential interleave, undecorated; returns the outcomes and the host
/// seconds spent stepping and flushing.
pub fn run_plain(shape: Shape, seed: u64, ticks: u64, log: &Path) -> (Healing, f64) {
    let engine = FleetEngine::new(shape.config(seed, ticks, ExecutionMode::Sequential, Some(log)));
    let store = engine.build_shared_store();
    let mut runners: Vec<_> = (0..REPLICAS)
        .map(|r| engine.replica_runner(r, store.as_deref()))
        .collect();
    let start = Instant::now();
    interleave(&mut runners, ticks, |_, runner, n| {
        for _ in 0..n {
            runner.step();
        }
    });
    if let Some(store) = &store {
        store.flush();
    }
    let wall = start.elapsed().as_secs_f64();
    let outcomes: Vec<_> = runners.iter().map(|r| r.outcome()).collect();
    (Healing::of(&outcomes), wall)
}

/// The traced run: decorated replicas in the sequential interleave, with
/// a span per replica slice.
pub fn run_traced(
    shape: Shape,
    seed: u64,
    ticks: u64,
    log: &Path,
    spans: &SpanLog,
) -> LayerReadings {
    let clock = Arc::new(LayerClock::default());
    let engine = FleetEngine::new(shape.config(seed, ticks, ExecutionMode::Sequential, Some(log)));
    let store = engine
        .build_shared_store()
        .expect("FixSym over a shared learner builds a fleet store");
    let mut runners: Vec<_> = (0..REPLICAS)
        .map(|r| traced_replica(shape, seed, r, store.as_ref(), &clock))
        .collect();
    let schema = runners[0].service().schema().clone();
    let mut shadows = vec![SeriesStore::new(schema, SERIES_CAPACITY); REPLICAS];

    let quarter = ticks.div_ceil(4).max(1);
    let mut sim_ns = [0u64; 4];
    let mut sim_ticks = [0u64; 4];
    let mut push_ns = 0u64;
    let mut active = 0u64;
    let run_span = spans.id();
    let run_start = now_ns();
    let start = Instant::now();
    interleave(&mut runners, ticks, |replica, runner, n| {
        let slice_start = now_ns();
        for _ in 0..n {
            let tick = runner.ticks_run();
            let before = clock.next_tick.ns() + clock.due_at.ns() + clock.observe.ns();
            let t0 = Instant::now();
            let outcome = runner.step();
            let step = t0.elapsed().as_nanos() as u64;
            let after = clock.next_tick.ns() + clock.due_at.ns() + clock.observe.ns();
            let t1 = Instant::now();
            shadows[replica].push(outcome.sample.clone());
            let push = t1.elapsed().as_nanos() as u64;
            push_ns += push;
            let q = ((tick / quarter) as usize).min(3);
            sim_ns[q] += step.saturating_sub(after - before).saturating_sub(push);
            sim_ticks[q] += 1;
            active += runner.service().active_faults().len() as u64;
        }
        spans.record(run_span, "fleet.replica_slice", slice_start, 0);
    });
    let flush_start = Instant::now();
    store.flush();
    let flush_ns = flush_start.elapsed().as_nanos() as u64;
    let wall_s = start.elapsed().as_secs_f64();
    spans.push(crate::trace::Span {
        id: run_span,
        parent: 0,
        name: "fleet.run",
        start_ns: run_start,
        end_ns: now_ns(),
        request: 0,
    });
    let outcomes: Vec<_> = runners.iter().map(|r| r.outcome()).collect();
    let total_ticks: u64 = sim_ticks.iter().sum();
    let per = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };

    let (append_bytes, replay_s) = if shape.persists() {
        let bytes = std::fs::metadata(log).map(|m| m.len()).unwrap_or(0);
        let t = Instant::now();
        let _ = SynopsisSnapshot::load(log);
        (bytes, t.elapsed().as_secs_f64())
    } else {
        (0, 0.0)
    };
    LayerReadings {
        wall_s,
        ticks: total_ticks,
        next_tick_ns: clock.next_tick.mean_ns(),
        due_at_ns: clock.due_at.mean_ns(),
        observe_ns: clock.observe.mean_ns(),
        sim_tick_ns: per(sim_ns.iter().sum(), total_ticks),
        sim_tick_ns_q1: per(sim_ns[0], sim_ticks[0]),
        sim_tick_ns_q4: per(sim_ns[3], sim_ticks[3]),
        requests: clock.requests.load(Ordering::Relaxed),
        active_faults_mean: per(active, total_ticks),
        series_push_ns: per(push_ns, total_ticks),
        suggest_ns: clock.suggest.mean_ns(),
        suggest_calls: clock.suggest.calls(),
        record_ns: clock.record.mean_ns(),
        record_calls: clock.record.calls(),
        drains: clock.drain.calls(),
        drain_ns: clock.drain.mean_ns(),
        flush_ns: flush_ns as f64,
        append_bytes,
        replay_s,
        healing: Healing::of(&outcomes),
    }
}

/// The untraced fleet phase.  Each [`sweep`](FleetPhase::sweep) runs every
/// fleet sequentially and in parallel, with each wall time scaled by the
/// host's speed over the sweep ([`Speed`]).  The run calls it at its start
/// and again at its end, and a fleet's throughput is its faster run, so a
/// burst of load from outside the benchmark costs one of the two, not the
/// figure.  Every output is checked: parallel against sequential
/// fingerprints, the second sweep against the first, engine errors, and
/// the persisted log against the store.
pub struct FleetPhase {
    shape: Shape,
    seeds: Vec<u64>,
    ticks: u64,
    log: PathBuf,
    first: Vec<Healing>,
    best_seq: Vec<f64>,
    best_par: Vec<f64>,
    speed: Speed,
    /// Set-up seconds of every sequential engine run.
    pub setup_s: Vec<f64>,
}

impl FleetPhase {
    /// A phase over one fleet per seed, each `ticks` ticks long, keeping
    /// its snapshot log in `dir`.
    pub fn new(shape: Shape, seeds: &[u64], ticks: u64, dir: &Path) -> Self {
        FleetPhase {
            shape,
            seeds: seeds.to_vec(),
            ticks,
            log: dir.join("fleet.jsonl"),
            first: Vec::new(),
            best_seq: vec![f64::INFINITY; seeds.len()],
            best_par: vec![f64::INFINITY; seeds.len()],
            speed: Speed::new(),
            setup_s: Vec::new(),
        }
    }

    /// Runs every fleet once more.
    pub fn sweep(&mut self, report: &mut Report) {
        let (shape, ticks, log) = (self.shape, self.ticks, self.log.as_path());
        let mut seq_walls = Vec::with_capacity(self.seeds.len());
        let mut par_walls = Vec::with_capacity(self.seeds.len());
        for (index, &seed) in self.seeds.iter().enumerate() {
            self.speed.sample();
            let seq = run_engine(shape.config(seed, ticks, ExecutionMode::Sequential, Some(log)));
            check_engine(&seq.outcome, shape, log, report);
            self.setup_s.push(seq.setup_s);
            seq_walls.push(seq.outcome.wall().as_secs_f64());
            let healing = Healing::of_fleet(&seq.outcome);
            let par = run_engine(shape.config(
                seed,
                ticks,
                ExecutionMode::Parallel {
                    threads: Some(THREADS),
                },
                Some(log),
            ));
            check_engine(&par.outcome, shape, log, report);
            report.check(
                seq.outcome.fingerprints() == par.outcome.fingerprints(),
                || format!("fleet seed {seed}: parallel fingerprints differ from sequential"),
            );
            par_walls.push(par.outcome.wall().as_secs_f64());
            match self.first.get(index) {
                None => self.first.push(healing),
                Some(first) => report.check(*first == healing, || {
                    format!("fleet seed {seed}: a repeat run produced a different outcome")
                }),
            }
        }
        self.speed.sample();
        let slowdown = self.speed.take_slowdown();
        for (best, wall) in self.best_seq.iter_mut().zip(seq_walls) {
            *best = best.min(wall / slowdown);
        }
        for (best, wall) in self.best_par.iter_mut().zip(par_walls) {
            *best = best.min(wall / slowdown);
        }
    }

    /// Sequential replica-ticks per second: all fleets' ticks over the sum
    /// of each fleet's fastest scaled run.
    pub fn seq_tps(&self) -> f64 {
        self.tps(&self.best_seq)
    }

    /// The same for the parallel engine.
    pub fn par_tps(&self) -> f64 {
        self.tps(&self.best_par)
    }

    fn tps(&self, walls: &[f64]) -> f64 {
        (self.ticks * REPLICAS as u64 * walls.len() as u64) as f64 / walls.iter().sum::<f64>()
    }

    /// Per-replica violation fractions over all fleets.
    pub fn violations(&self) -> Vec<f64> {
        self.first
            .iter()
            .flat_map(|h| h.violations.iter().copied())
            .collect()
    }
}

fn check_engine(outcome: &FleetOutcome, shape: Shape, log: &Path, report: &mut Report) {
    report.check(outcome.is_complete(), || {
        format!("fleet errors: {:?}", outcome.errors())
    });
    report.check(
        outcome.total_ticks() > 0 && outcome.replicas().len() == REPLICAS,
        || "fleet ran no ticks".to_string(),
    );
    if shape.persists() {
        let stored = outcome.store().map(|s| s.snapshot().len());
        let loaded = SynopsisSnapshot::load(log).map(|s| s.len());
        report.check(
            matches!((stored, &loaded), (Some(s), Ok(l)) if s == *l),
            || format!("persisted synopsis log holds {loaded:?} examples, store {stored:?}"),
        );
    }
}
