//! An open-loop load generator: requests are due on a fixed seeded
//! schedule whatever the system's state, a generator thread releases each
//! one at its due time, and a few connection workers execute them.  Each
//! request is timed from when it was due, so a stall also charges the wait
//! it imposes on the requests behind it; how late the generator itself
//! released each request is reported apart.

use crate::report::SplitMix;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// Due offsets (from the start of the rung) of `rate × duration` arrivals:
/// one per `1 / rate` slot, at a point of the slot drawn uniformly from
/// `rng`.  The count, and so the offered load, is the same for every seed;
/// the seed only moves arrivals within their slots.
pub fn arrival_schedule(rate: f64, duration: Duration, rng: &mut SplitMix) -> Vec<Duration> {
    let n = (rate * duration.as_secs_f64()).round() as usize;
    (0..n)
        .map(|slot| Duration::from_secs_f64((slot as f64 + rng.next_f64()) / rate))
        .collect()
}

/// One executed request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index of the request in the schedule.
    pub index: usize,
    /// From due time to completion.
    pub latency: Duration,
    /// From due time to when a worker started it.
    pub queued: Duration,
    /// Whether the request succeeded and its output checked out.
    pub ok: bool,
}

/// What one open-loop rung measured.
#[derive(Debug, Clone)]
pub struct LoopReport {
    /// Executed requests, in completion order.
    pub samples: Vec<Sample>,
    /// How late the generator released each request.
    pub generator_late: Vec<Duration>,
    /// Wall time from start to the last completion.
    pub wall: Duration,
}

impl LoopReport {
    /// Latencies in milliseconds; failed requests count as `fail_ms`, so
    /// they miss any limit below it.
    pub fn latencies_ms(&self, fail_ms: f64) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| {
                if s.ok {
                    s.latency.as_secs_f64() * 1e3
                } else {
                    fail_ms
                }
            })
            .collect()
    }

    /// Requests that failed.
    pub fn failures(&self) -> usize {
        self.samples.iter().filter(|s| !s.ok).count()
    }
}

/// Runs `ops` open-loop: request `i` falls due at `start + due[i]` and is
/// executed by whichever of `connections` workers is free.  Each worker is
/// built by `make_worker` (e.g. opening one keep-alive connection) and
/// returns whether a request succeeded.
pub fn run<O, W, F>(due: &[Duration], ops: &[O], connections: usize, make_worker: F) -> LoopReport
where
    O: Sync,
    W: FnMut(usize, &O) -> bool,
    F: Fn(usize) -> W + Sync,
{
    assert_eq!(due.len(), ops.len(), "one due time per request");
    let (tx, rx) = mpsc::channel::<(usize, Instant)>();
    let rx = std::sync::Mutex::new(rx);
    let (done_tx, done_rx) = mpsc::channel::<Sample>();
    let start = Instant::now();
    let mut generator_late = Vec::with_capacity(due.len());
    thread::scope(|scope| {
        for worker in 0..connections.max(1) {
            let rx = &rx;
            let done_tx = done_tx.clone();
            let make_worker = &make_worker;
            scope.spawn(move || {
                let mut execute = make_worker(worker);
                loop {
                    let next = rx.lock().expect("queue poisoned").recv();
                    let Ok((index, due_at)) = next else { break };
                    let started = Instant::now();
                    let ok = execute(index, &ops[index]);
                    let finished = Instant::now();
                    let sample = Sample {
                        index,
                        latency: finished.saturating_duration_since(due_at),
                        queued: started.saturating_duration_since(due_at),
                        ok,
                    };
                    let _ = done_tx.send(sample);
                }
            });
        }
        drop(done_tx);
        for (index, offset) in due.iter().enumerate() {
            let due_at = start + *offset;
            let now = Instant::now();
            if due_at > now {
                thread::sleep(due_at - now);
            }
            generator_late.push(Instant::now().saturating_duration_since(due_at));
            let _ = tx.send((index, due_at));
        }
        drop(tx);
    });
    LoopReport {
        samples: done_rx.iter().collect(),
        generator_late,
        wall: start.elapsed(),
    }
}
