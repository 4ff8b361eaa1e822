//! Tracing from outside the program: timing decorators around the public
//! layer traits, and an in-memory span log written out when a run ends.
//!
//! The decorators forward every call unchanged, so a decorated replica
//! computes exactly what an undecorated one does; they only read the wall
//! clock around each call and count the work.

use selfheal_core::snapshot::SynopsisSnapshot;
use selfheal_core::store::SynopsisStore;
use selfheal_core::synopsis::{Learner, SynopsisKind};
use selfheal_faults::{FaultSource, FaultSpec, FixAction, FixKind};
use selfheal_sim::scenario::Healer;
use selfheal_sim::service::TickOutcome;
use selfheal_workload::{Request, TraceSource};
use std::collections::HashSet;
use std::fmt;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Nanoseconds since the first call in this process: the span time base.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A busy-time and call counter for one layer boundary.
#[derive(Debug, Default)]
pub struct Counter {
    /// Calls made.
    pub calls: AtomicU64,
    /// Nanoseconds spent inside the calls.
    pub ns: AtomicU64,
}

impl Counter {
    /// Records one call of `ns` nanoseconds.
    pub fn add(&self, ns: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Calls so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Busy nanoseconds so far.
    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    /// Mean nanoseconds per call (0 without calls).
    pub fn mean_ns(&self) -> f64 {
        let calls = self.calls();
        if calls == 0 {
            0.0
        } else {
            self.ns() as f64 / calls as f64
        }
    }
}

/// The layer boundaries a traced replica crosses.
#[derive(Debug, Default)]
pub struct LayerClock {
    /// `TraceSource::next_tick`.
    pub next_tick: Counter,
    /// Requests `next_tick` generated.
    pub requests: AtomicU64,
    /// `FaultSource::due_at`.
    pub due_at: Counter,
    /// `Healer::observe`.
    pub observe: Counter,
    /// `Learner::suggest` and `suggest_excluding`.
    pub suggest: Counter,
    /// `Learner::record`.
    pub record: Counter,
    /// The `record` calls during which `pending_updates` fell.
    pub drain: Counter,
}

fn timed<T>(counter: &Counter, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    counter.add(start.elapsed().as_nanos() as u64);
    out
}

/// Times a replica's [`TraceSource`].
pub struct TimedTrace {
    inner: Box<dyn TraceSource>,
    clock: Arc<LayerClock>,
}

impl TimedTrace {
    /// Wraps `inner`, charging its calls to `clock`.
    pub fn new(inner: Box<dyn TraceSource>, clock: Arc<LayerClock>) -> Self {
        TimedTrace { inner, clock }
    }
}

impl fmt::Debug for TimedTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("TimedTrace").field(&self.inner).finish()
    }
}

// lint:allow(choice-mirror): a timing wrapper around whichever source the
// choice built, not a workload of its own.
impl TraceSource for TimedTrace {
    fn next_tick(&mut self, tick: u64) -> Vec<Request> {
        let inner = &mut self.inner;
        let requests = timed(&self.clock.next_tick, || inner.next_tick(tick));
        self.clock
            .requests
            .fetch_add(requests.len() as u64, Ordering::Relaxed);
        requests
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn clone_box(&self) -> Box<dyn TraceSource> {
        Box::new(TimedTrace::new(
            self.inner.clone_box(),
            Arc::clone(&self.clock),
        ))
    }
}

/// Times a replica's [`FaultSource`].
pub struct TimedFaults {
    inner: Box<dyn FaultSource>,
    clock: Arc<LayerClock>,
}

impl TimedFaults {
    /// Wraps `inner`, charging its calls to `clock`.
    pub fn new(inner: Box<dyn FaultSource>, clock: Arc<LayerClock>) -> Self {
        TimedFaults { inner, clock }
    }
}

impl fmt::Debug for TimedFaults {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("TimedFaults").field(&self.inner).finish()
    }
}

// lint:allow(choice-mirror): a timing wrapper around whichever source the
// choice built, not a fault schedule of its own.
impl FaultSource for TimedFaults {
    fn due_at(&mut self, tick: u64) -> Vec<FaultSpec> {
        let inner = &mut self.inner;
        timed(&self.clock.due_at, || inner.due_at(tick))
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn clone_box(&self) -> Box<dyn FaultSource> {
        Box::new(TimedFaults::new(
            self.inner.clone_box(),
            Arc::clone(&self.clock),
        ))
    }

    fn horizon(&self) -> u64 {
        self.inner.horizon()
    }
}

/// Times a replica's [`Healer`].
pub struct TimedHealer {
    inner: Box<dyn Healer>,
    clock: Arc<LayerClock>,
}

impl TimedHealer {
    /// Wraps `inner`, charging its calls to `clock`.
    pub fn new(inner: Box<dyn Healer>, clock: Arc<LayerClock>) -> Self {
        TimedHealer { inner, clock }
    }
}

impl Healer for TimedHealer {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn observe(&mut self, outcome: &TickOutcome) -> Vec<FixAction> {
        let inner = &mut self.inner;
        timed(&self.clock.observe, || inner.observe(outcome))
    }
}

/// Times a [`SynopsisStore`] handle; handles cloned from it share the clock.
pub struct TimedStore {
    inner: Box<dyn SynopsisStore>,
    clock: Arc<LayerClock>,
}

impl TimedStore {
    /// Wraps `inner`, charging its calls to `clock`.
    pub fn new(inner: Box<dyn SynopsisStore>, clock: Arc<LayerClock>) -> Self {
        TimedStore { inner, clock }
    }
}

impl Learner for TimedStore {
    fn suggest(&self, symptoms: &[f64]) -> Option<(FixKind, f64)> {
        timed(&self.clock.suggest, || self.inner.suggest(symptoms))
    }

    fn suggest_excluding(
        &self,
        symptoms: &[f64],
        excluded: &HashSet<FixKind>,
    ) -> Option<(FixKind, f64)> {
        timed(&self.clock.suggest, || {
            self.inner.suggest_excluding(symptoms, excluded)
        })
    }

    fn record(&mut self, symptoms: &[f64], fix: FixKind, success: bool) {
        let before = self.inner.pending_updates();
        let start = Instant::now();
        self.inner.record(symptoms, fix, success);
        let ns = start.elapsed().as_nanos() as u64;
        self.clock.record.add(ns);
        if self.inner.pending_updates() <= before {
            self.clock.drain.add(ns);
        }
    }

    fn correct_fixes_learned(&self) -> usize {
        self.inner.correct_fixes_learned()
    }
}

// lint:allow(choice-mirror): a timing wrapper around whichever store the
// choice built, not a store layout of its own.
impl SynopsisStore for TimedStore {
    fn kind(&self) -> SynopsisKind {
        self.inner.kind()
    }

    fn flush(&self) {
        self.inner.flush();
    }

    fn pending_updates(&self) -> usize {
        self.inner.pending_updates()
    }

    fn snapshot(&self) -> SynopsisSnapshot {
        self.inner.snapshot()
    }

    fn restore(&mut self, snapshot: &SynopsisSnapshot) {
        self.inner.restore(snapshot);
    }

    fn clone_store(&self) -> Box<dyn SynopsisStore> {
        Box::new(TimedStore::new(
            self.inner.clone_store(),
            Arc::clone(&self.clock),
        ))
    }

    fn persist_to(&mut self, path: &Path) -> io::Result<()> {
        self.inner.persist_to(path)
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id, unique within the log.
    pub id: u64,
    /// The span that caused this one (0 = none).
    pub parent: u64,
    /// Layer boundary name.
    pub name: &'static str,
    /// Start, nanoseconds on the [`now_ns`] base.
    pub start_ns: u64,
    /// End, nanoseconds on the [`now_ns`] base.
    pub end_ns: u64,
    /// Request id shared by the spans of one gateway operation (0 = none).
    pub request: u64,
}

/// An in-memory span log.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Mutex<Vec<Span>>,
    next: AtomicU64,
}

impl SpanLog {
    /// A fresh span id.
    pub fn id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Records a finished span and returns its id.
    pub fn record(&self, parent: u64, name: &'static str, start_ns: u64, request: u64) -> u64 {
        let id = self.id();
        self.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: now_ns(),
            request,
        });
        id
    }

    /// Records a span whose id was reserved earlier with [`SpanLog::id`].
    pub fn push(&self, span: Span) {
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span log poisoned").len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let spans = self.spans.lock().expect("span log poisoned");
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"request\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}
