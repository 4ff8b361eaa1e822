//! The synopsis-learning phase: the paper's Figure 4 / Table 3 experiment
//! through `FixSymEngine`.  A seeded `FailureStateGenerator` makes a
//! training stream and a held-out test set (set-up); then each synopsis
//! kind heals the identical stream episode by episode, scoring the
//! held-out set after every episode.

use crate::calib::Speed;
use crate::report::Report;
use crate::stats;
use crate::trace::{now_ns, SpanLog};
use selfheal_core::fixsym::FixSymEngine;
use selfheal_core::synopsis::SynopsisKind;
use selfheal_faults::FaultKind;
use selfheal_learn::Dataset;
use selfheal_sim::{FailureState, FailureStateGenerator, ServiceConfig};
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// Held-out failure states scored after every episode (the paper's 1000).
pub const TEST_STATES: usize = 1000;
/// Training failures drawn per stream: room for every kind to reach
/// [`CORRECT_FIXES`] (about half the episodes end in a correct fix).
pub const TRAIN_STATES: usize = 200;
/// Correct fixes a synopsis learns before its pass over a stream stops
/// (the paper's Table 3 point).
pub const CORRECT_FIXES: usize = 50;
/// Independent training streams per run.  Each stream's content changes
/// how much work learning takes; the median over streams keeps the
/// figure a property of the learner rather than of one draw.
pub const STREAMS: usize = 8;

/// The three kinds compared, with their metric-name suffixes.
pub fn kinds() -> [(SynopsisKind, &'static str); 3] {
    [
        (SynopsisKind::AdaBoost(60), "adaboost"),
        (SynopsisKind::NearestNeighbor, "nn"),
        (SynopsisKind::KMeans, "kmeans"),
    ]
}

/// The generated experiment inputs.
pub struct Inputs {
    /// The training streams, each in order.
    pub streams: Vec<Vec<FailureState>>,
    /// The held-out test set.
    pub test: Dataset,
}

/// Generates the inputs for `seed`: the test set first, then the training
/// streams, from one generator (the order the paper's harness uses).
pub fn generate(seed: u64, streams: usize, train: usize, test: usize) -> Inputs {
    let kinds: Vec<FaultKind> = FaultKind::TABLE1.to_vec();
    let mut generator = FailureStateGenerator::standard(ServiceConfig::tiny(), seed);
    let (_, test) = generator.generate_dataset(test, &kinds);
    let streams = (0..streams)
        .map(|_| generator.generate_dataset(train, &kinds).0)
        .collect();
    Inputs { streams, test }
}

/// Digest of the first `n` states of a stream, as [`run_kind`] digests
/// the states it heals.
pub fn stream_digest(stream: &[FailureState], n: usize) -> u64 {
    let mut digest = std::collections::hash_map::DefaultHasher::new();
    for state in stream.iter().take(n) {
        digest_state(state, &mut digest);
    }
    digest.finish()
}

fn digest_state(state: &FailureState, digest: &mut impl Hasher) {
    for value in &state.symptoms {
        value.to_bits().hash(digest);
    }
    state.correct_fix.code().hash(digest);
}

/// Whether two generations produced identical inputs.
pub fn same_inputs(a: &Inputs, b: &Inputs) -> bool {
    a.streams == b.streams && a.test == b.test
}

/// One kind's pass over the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct KindRun {
    /// Host seconds for the whole pass, scoring included.
    pub learn_s: f64,
    /// Held-out accuracy after the last episode.
    pub accuracy: f64,
    /// Accuracy after every episode (the Figure 4 curve).
    pub curve: Vec<f64>,
    /// Episodes run.
    pub episodes: u64,
    /// Episodes that escalated to a full restart.
    pub escalations: u64,
    /// Fix attempts over all episodes.
    pub attempts: u64,
    /// Nanoseconds inside `run_episode`.
    pub episode_ns: u64,
    /// Nanoseconds inside held-out scoring.
    pub eval_ns: u64,
    /// Training operations the synopsis reports.
    pub training_ops: u64,
    /// Digest of the stream the kind saw (symptoms and oracle labels).
    pub stream: u64,
}

impl KindRun {
    /// Everything but the host timings, for comparing repeated passes.
    pub fn outputs(&self) -> (u64, u64, u64, u64, u64, Vec<u64>) {
        (
            self.episodes,
            self.escalations,
            self.attempts,
            self.training_ops,
            self.stream,
            self.curve.iter().map(|a| a.to_bits()).collect(),
        )
    }
}

/// Heals one training stream with one synopsis kind until it has learned
/// [`CORRECT_FIXES`] correct fixes (or the stream ends).  With `spans`,
/// every episode and every scoring pass is recorded as a span.
pub fn run_kind(
    kind: SynopsisKind,
    stream: &[FailureState],
    test: &Dataset,
    spans: Option<&SpanLog>,
) -> KindRun {
    let mut engine = FixSymEngine::new(kind);
    let mut digest = std::collections::hash_map::DefaultHasher::new();
    let mut curve = Vec::with_capacity(stream.len());
    let (mut attempts, mut episode_ns, mut eval_ns) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    for state in stream {
        if engine.synopsis().correct_fixes_learned() >= CORRECT_FIXES {
            break;
        }
        digest_state(state, &mut digest);
        let correct = state.correct_fix;
        let (t0, s0) = (Instant::now(), now_ns());
        let result = engine.run_episode(&state.symptoms, |fix| fix == correct);
        episode_ns += t0.elapsed().as_nanos() as u64;
        let parent = spans.map_or(0, |s| s.record(0, "learn.episode", s0, 0));
        attempts += result.attempt_count() as u64;
        let (t1, s1) = (Instant::now(), now_ns());
        curve.push(engine.synopsis().accuracy_on(test));
        eval_ns += t1.elapsed().as_nanos() as u64;
        if let Some(spans) = spans {
            spans.record(parent, "learn.eval", s1, 0);
        }
    }
    KindRun {
        learn_s: start.elapsed().as_secs_f64(),
        accuracy: curve.last().copied().unwrap_or(f64::NAN),
        curve,
        episodes: engine.episodes(),
        escalations: engine.escalations(),
        attempts,
        episode_ns,
        eval_ns,
        training_ops: engine.synopsis().training_ops(),
        stream: digest.finish(),
    }
}

/// Host seconds below which a pass repeats within a round, so the cheap
/// kinds get as many chances at a quiet moment as the expensive one.
pub const MIN_PASS_S: f64 = 0.05;

/// The untraced learning phase.  [`rounds`](LearnPhase::rounds) heals every
/// stream with every kind, with each pass time scaled by the host's speed
/// over the window ([`Speed`]); the run calls it in several windows spread
/// over the run, and a kind's figure is its fastest pass per stream.
pub struct LearnPhase {
    inputs: Inputs,
    /// `best[k][s]`: kind `k`'s fastest pass over stream `s` so far.
    best: Vec<Vec<f64>>,
    /// `first[k][s]`: kind `k`'s first pass over stream `s`.
    first: Vec<Vec<KindRun>>,
    speed: Speed,
    /// Seconds of each input generation, scaled by the host's speed.
    pub setup_s: Vec<f64>,
}

impl LearnPhase {
    /// Generates the inputs for `seed` three times (the set-up), checking
    /// that the same seed gives the same inputs.
    pub fn new(seed: u64, report: &mut Report) -> Self {
        let mut speed = Speed::new();
        let mut setup_s = Vec::new();
        let mut inputs: Option<Inputs> = None;
        for _ in 0..3 {
            speed.sample();
            let start = Instant::now();
            let generated = generate(seed, STREAMS, TRAIN_STATES, TEST_STATES);
            setup_s.push(start.elapsed().as_secs_f64());
            match &inputs {
                None => inputs = Some(generated),
                Some(first) => report.check(same_inputs(first, &generated), || {
                    "the same seed generated different learning inputs".to_string()
                }),
            }
        }
        speed.sample();
        let slowdown = speed.take_slowdown();
        for setup in &mut setup_s {
            *setup /= slowdown;
        }
        let inputs = inputs.expect("generated three times");
        let streams = inputs.streams.len();
        LearnPhase {
            best: vec![vec![f64::INFINITY; streams]; kinds().len()],
            first: vec![Vec::new(); kinds().len()],
            inputs,
            speed,
            setup_s,
        }
    }

    /// Runs rounds until `budget` is spent, at least one, checking every
    /// repeat pass against the first.
    pub fn rounds(&mut self, budget: Duration, report: &mut Report) {
        let start = Instant::now();
        // window[k][s]: kind k's fastest unscaled pass over stream s here.
        let mut window = vec![vec![f64::INFINITY; self.inputs.streams.len()]; kinds().len()];
        loop {
            for (s, stream) in self.inputs.streams.iter().enumerate() {
                for (k, (kind, name)) in kinds().into_iter().enumerate() {
                    self.speed.sample();
                    let fastest = &mut window[k][s];
                    let known = fastest.min(self.best[k][s]);
                    let reps = (MIN_PASS_S / known).ceil().clamp(1.0, 8.0) as usize;
                    for _ in 0..reps {
                        let run = run_kind(kind, stream, &self.inputs.test, None);
                        *fastest = fastest.min(run.learn_s);
                        match self.first[k].get(s) {
                            None => self.first[k].push(run),
                            Some(first) => report.check(first.outputs() == run.outputs(), || {
                                format!("{name} on stream {s}: a repeat pass learned differently")
                            }),
                        }
                    }
                }
            }
            if start.elapsed() >= budget {
                break;
            }
        }
        self.speed.sample();
        let slowdown = self.speed.take_slowdown();
        for (best, fastest) in self.best.iter_mut().flatten().zip(window.iter().flatten()) {
            *best = best.min(fastest / slowdown);
        }
    }

    /// `(kind, learn_s, accuracy)` per kind: the mean over streams of the
    /// fastest pass and of the final held-out accuracy.  Checks that every
    /// kind healed the same stream.
    pub fn results(&self, report: &mut Report) -> Vec<(&'static str, f64, f64)> {
        for (s, stream) in self.inputs.streams.iter().enumerate() {
            // Each kind heals its own number of episodes (a kind that
            // learns faster stops sooner), so each is checked against the
            // prefix of the stream it reached.
            report.check(
                self.first
                    .iter()
                    .all(|runs| runs[s].stream == stream_digest(stream, runs[s].episodes as usize)),
                || format!("the synopsis kinds saw different training streams on stream {s}"),
            );
        }
        kinds()
            .into_iter()
            .enumerate()
            .map(|(k, (_, name))| {
                let accuracy: Vec<f64> = self.first[k].iter().map(|r| r.accuracy).collect();
                (
                    name,
                    stats::mean(&self.best[k]).unwrap_or(f64::NAN),
                    stats::mean(&accuracy).unwrap_or(f64::NAN),
                )
            })
            .collect()
    }
}
