//! Host-speed calibration.
//!
//! On a shared host the same work can run 25–35% slower for minutes at a
//! time while neighbours load the cores and caches.  Repeats inside one run
//! cannot remove a slow spell that covers the whole run, so the
//! compute-bound timings are scaled by the host's speed over the window
//! they were measured in: a fixed kernel is timed between the measured
//! calls, and a timing `t` is reported as `t / slowdown`, where `slowdown`
//! is the kernel's median time in the window over [`NOMINAL_MS`].  A change
//! to the program moves `t` and leaves the kernel alone; a slow spell moves
//! both.
//!
//! The kernel mixes what the measured code does: sorting, hashing into a
//! map, and dependent floating-point arithmetic.  On the development
//! container its time correlated with an AdaBoost pass at 0.84 and with a
//! sequential fleet run at 0.80 (361 interleaved samples over 170 s), and
//! scaling by it cut their coefficients of variation from 0.20 to 0.12 and
//! from 0.21 to 0.14.  A kernel of dependent multiplies and table lookups
//! did not track them (its time stayed within ±3%).

use crate::report::SplitMix;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's median time on the development container; scaled timings
/// read as seconds on a host of that speed.
pub const NOMINAL_MS: f64 = 1.4;

/// Timed kernel samples of one measurement window.
#[derive(Debug)]
pub struct Speed {
    rng: SplitMix,
    samples: Vec<f64>,
}

impl Default for Speed {
    fn default() -> Self {
        Speed::new()
    }
}

impl Speed {
    /// A calibrator with no samples yet.
    pub fn new() -> Self {
        Speed {
            rng: SplitMix::new(1),
            samples: Vec::new(),
        }
    }

    /// Times one kernel run and keeps the sample.
    pub fn sample(&mut self) {
        let start = Instant::now();
        let mut values: Vec<u64> = (0..20_000).map(|_| self.rng.next_u64()).collect();
        values.sort_unstable();
        let mut map: HashMap<u64, u64> = HashMap::with_capacity(8_000);
        for (i, v) in values.iter().take(8_000).enumerate() {
            map.insert(v >> 3, i as u64);
        }
        let hits = values.iter().fold(0u64, |acc, v| {
            acc.wrapping_add(*map.get(&(v >> 3)).unwrap_or(&1))
        });
        let mut x = 1.0f64;
        for i in 0..20_000 {
            x = x * 1.000_001 + (i as f64).sqrt();
        }
        black_box((hits, x));
        self.samples.push(start.elapsed().as_secs_f64() * 1e3);
    }

    /// Median kernel time of the window in milliseconds (NaN without
    /// samples).
    pub fn kernel_ms(&self) -> f64 {
        crate::stats::median_or_nan(&self.samples)
    }

    /// How much slower than nominal the host ran over the window's samples
    /// (1 without samples), and starts a new window.
    pub fn take_slowdown(&mut self) -> f64 {
        let slowdown = crate::stats::median(&self.samples).map_or(1.0, |k| k / NOMINAL_MS);
        self.samples.clear();
        slowdown
    }
}
