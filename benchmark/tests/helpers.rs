//! Tests of the benchmark's own helpers: the tail-percentile rule, the
//! open-loop generator's timing, the tracing decorators' transparency, and
//! the learning phase's shared-stream check.

use selfheal_benchmark::fleet::{self, Shape};
use selfheal_benchmark::learn;
use selfheal_benchmark::openloop;
use selfheal_benchmark::report::{Report, SplitMix};
use selfheal_benchmark::stats::{beyond, median, percentile, tail_percentile};
use selfheal_benchmark::trace::SpanLog;
use selfheal_fleet::ExecutionMode;
use std::thread;
use std::time::Duration;

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn a_tail_percentile_needs_ten_samples_beyond_it() {
    assert_eq!(beyond(99, 90.0), 9);
    assert_eq!(beyond(100, 90.0), 10);
    assert_eq!(tail_percentile(&ramp(99), 90.0), None);
    assert_eq!(tail_percentile(&ramp(100), 90.0), Some(90.0));
    assert_eq!(tail_percentile(&ramp(999), 99.0), None);
    assert_eq!(tail_percentile(&ramp(1000), 99.0), Some(990.0));
    assert_eq!(
        tail_percentile(&ramp(15), 50.0),
        None,
        "even the median lacks ten beyond"
    );
}

#[test]
fn percentiles_are_nearest_rank_and_order_free() {
    let mut shuffled = ramp(10);
    shuffled.reverse();
    assert_eq!(median(&shuffled), Some(5.0));
    assert_eq!(percentile(&shuffled, 100.0), Some(10.0));
    assert_eq!(percentile(&shuffled, 0.0), Some(1.0));
    assert_eq!(percentile(&[], 50.0), None);
}

#[test]
fn the_open_loop_times_requests_from_their_due_time() {
    // Ten requests due 5 ms apart on one connection that takes 30 ms per
    // request: the queue grows, and every request is charged its wait.
    let due: Vec<Duration> = (0..10).map(|i| Duration::from_millis(5 * i)).collect();
    let ops: Vec<usize> = (0..10).collect();
    let report = openloop::run(&due, &ops, 1, |_| {
        |_: usize, _: &usize| {
            thread::sleep(Duration::from_millis(30));
            true
        }
    });
    assert_eq!(report.samples.len(), 10);
    assert_eq!(
        report.generator_late.len(),
        10,
        "lateness reported per request"
    );
    assert!(report
        .generator_late
        .iter()
        .all(|late| *late < Duration::from_millis(25)));
    let mut samples = report.samples.clone();
    samples.sort_by_key(|s| s.index);
    for s in &samples {
        assert!(s.latency >= s.queued + Duration::from_millis(30), "{s:?}");
    }
    // The last request waited for the nine before it: about 9 × 30 ms of
    // service minus its 45 ms later due time.
    let last = samples.last().unwrap();
    assert!(last.queued >= Duration::from_millis(200), "{last:?}");
    assert_eq!(report.failures(), 0);
}

#[test]
fn arrival_schedules_have_a_fixed_count_and_repeat_per_seed() {
    let a = openloop::arrival_schedule(10.0, Duration::from_secs(11), &mut SplitMix::new(3));
    let b = openloop::arrival_schedule(10.0, Duration::from_secs(11), &mut SplitMix::new(3));
    let c = openloop::arrival_schedule(10.0, Duration::from_secs(11), &mut SplitMix::new(4));
    assert_eq!(a.len(), 110);
    assert_eq!(a, b);
    assert_ne!(a, c);
    assert!(a.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn a_decorated_replica_computes_what_an_undecorated_one_does() {
    let dir = std::env::temp_dir().join(format!("selfheal-benchmark-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for shape in [Shape::Steady, Shape::Storm] {
        let ticks = 300;
        let log = dir.join("fleet.jsonl");
        let spans = SpanLog::default();
        let traced = fleet::run_traced(shape, 5, ticks, &log, &spans);
        let (plain, _) = fleet::run_plain(shape, 5, ticks, &log);
        let engine =
            fleet::run_engine(shape.config(5, ticks, ExecutionMode::Sequential, Some(&log)));
        let traced = traced.healing;
        assert_eq!(
            traced.fingerprints,
            engine.outcome.fingerprints(),
            "{shape:?}"
        );
        assert_eq!(
            plain.fingerprints,
            engine.outcome.fingerprints(),
            "{shape:?}"
        );
        assert!(!spans.is_empty());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn the_result_line_has_exactly_the_contract_keys() {
    let mut report = Report::default();
    report.metric("latency_ms", 1.25, "ms");
    report.check(true, || unreachable!());
    let line = report.to_json();
    assert_eq!(
        line,
        "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
         {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
    );
    report.check(false, || "wrong".to_string());
    assert!(!report.correct());
    assert!(report
        .to_json()
        .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
}

#[test]
fn every_kind_is_checked_against_the_prefix_it_healed() {
    let inputs = learn::generate(3, 1, learn::TRAIN_STATES, 50);
    let stream = &inputs.streams[0];
    for (kind, name) in learn::kinds() {
        let run = learn::run_kind(kind, stream, &inputs.test, None);
        assert!(
            run.episodes > 0 && (run.episodes as usize) < stream.len(),
            "{name}"
        );
        assert_eq!(
            run.stream,
            learn::stream_digest(stream, run.episodes as usize),
            "{name}"
        );
        assert_ne!(
            run.stream,
            learn::stream_digest(stream, run.episodes as usize + 1),
            "{name}: the digest covers exactly the healed prefix"
        );
    }
}
