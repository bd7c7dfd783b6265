//! `loadbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload crossfilter --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Each workload is a closed loop with one client: the next event is
//! issued only after the previous one is answered. A run repeats passes
//! over the workload's seeded inputs for `--seconds` of measured wall
//! time, each pass on a fresh set-up timed outside the window (the median
//! of the set-ups is `setup_s`). The correctness oracles check the first
//! pass, and every later pass must repeat its answers and virtual costs
//! exactly, so set-up too must be deterministic. `--trace 1`
//! alternates untraced and traced passes, prints the per-layer self-time
//! table and reports the per-layer metrics. The last line of stdout is
//! the JSON result. See `benchmark/README.md`.

mod crossfilter;
mod explore;
mod fleet;
mod instrument;

use std::collections::BTreeMap;
use std::time::Instant;

use instrument::{median, quantile, self_times, write_spans, Fnv, Tracer};

/// Set-ups timed per run, at least. Each pass of the window runs on a
/// set-up of its own, and more follow the window until there are this
/// many. `setup_s` is their median; spreading them over the whole run
/// lets the median see the same spells of a shared machine as the passes
/// do, where back-to-back set-ups would all land in one spell.
const SETUP_MIN_REPS: usize = 5;

/// Before each pass the workload is set up again until the run's set-ups
/// have taken this share of the window's wall time so far, so a cheap
/// set-up is timed several times per pass.
const SETUP_SHARE: f64 = 0.15;

/// Layer counters summed over passes, and per-call samples.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    sums: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    /// Adds `v` to the counter `k`.
    pub fn add(&mut self, k: &'static str, v: f64) {
        *self.sums.entry(k).or_insert(0.0) += v;
    }

    /// Records one sample of `k`.
    pub fn sample(&mut self, k: &'static str, v: f64) {
        self.samples.entry(k).or_default().push(v);
    }

    fn absorb(&mut self, other: Layers) {
        for (k, v) in other.sums {
            self.add(k, v);
        }
        for (k, v) in other.samples {
            self.samples.entry(k).or_default().extend(v);
        }
    }

    /// The counter `k`, 0 when never added to.
    pub fn sum(&self, k: &str) -> f64 {
        self.sums.get(k).copied().unwrap_or(0.0)
    }

    /// The samples of `k`.
    pub fn samples(&self, k: &str) -> &[f64] {
        self.samples.get(k).map_or(&[], Vec::as_slice)
    }

    /// `sum(num) / sum(den)`, 0 when the denominator is 0.
    pub fn ratio(&self, num: &str, den: &str) -> f64 {
        let d = self.sum(den);
        if d == 0.0 {
            0.0
        } else {
            self.sum(num) / d
        }
    }

    /// Folds the timed backend calls of one pass into the `exec.*` and
    /// `pool.*` counters.
    pub fn add_calls(&mut self, calls: &[instrument::Call]) {
        for c in calls {
            self.sample("exec.call_us", c.wall_ns as f64 / 1e3);
            self.add("exec.calls", 1.0);
            self.add("exec.wall_ns", c.wall_ns as f64);
            self.add("exec.rows", c.rows_scanned as f64);
            self.add("exec.blocks_pruned", c.blocks_pruned as f64);
            self.add(
                "exec.blocks_total",
                (c.blocks_pruned + c.blocks_scanned) as f64,
            );
            self.add("pool.hits", c.pages_hot as f64);
            self.add("pool.touches", (c.pages_hot + c.pages_cold) as f64);
            self.add("pool.evictions", c.evictions as f64);
        }
    }
}

/// What one pass over a workload's seeded inputs produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Events (user interactions) answered.
    pub events: u64,
    /// Wall time per event, ms, for the latency metrics.
    pub event_ms: Vec<f64>,
    /// One digest per checked operation: an event's answers and virtual
    /// costs, or a whole-pass result such as a serve outcome.
    pub answers: Vec<u64>,
    /// Layer counters.
    pub layers: Layers,
}

/// A workload, set up and ready to run passes.
pub trait Workload {
    /// Sizes and shape, one line.
    fn describe(&self) -> String;
    /// Digest of the generated inputs: a pure function of the seed.
    fn input_digest(&self) -> u64;
    /// Wall time the set-up spent synthesizing sessions, ms.
    fn synth_ms(&self) -> f64;
    /// One pass over the inputs.
    fn pass(&mut self, tracer: Option<&Tracer>) -> Pass;
    /// Runs the correctness oracles on the latest pass; one line per
    /// failure.
    fn check(&self) -> Vec<String>;
    /// Paired probes on a sample of the workload's queries:
    /// `backend.self_us` (backend execute minus `exec::run_query`) and
    /// `planner.plan_us` samples.
    fn probe(&mut self, layers: &mut Layers);
}

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["crossfilter", "explore", "fleet"];

/// Sets up `name` at its benchmark scale.
fn build(name: &str, seed: u64) -> Box<dyn Workload> {
    match name {
        "crossfilter" => Box::new(crossfilter::Crossfilter::setup(
            seed,
            &crossfilter::Scale::BENCH,
        )),
        "explore" => Box::new(explore::Explore::setup(seed, &explore::Scale::BENCH)),
        "fleet" => Box::new(fleet::Fleet::setup(seed, &fleet::Scale::bench())),
        other => unreachable!("unknown workload {other} passed argument parsing"),
    }
}

/// The run's timed set-ups.
#[derive(Debug, Default)]
struct Setups {
    /// Wall time of each set-up, s.
    secs: Vec<f64>,
    /// Session-synthesis time of each set-up, ms.
    synth_ms: Vec<f64>,
}

impl Setups {
    /// Sets the workload up once, timed.
    fn build(&mut self, args: &Args) -> Box<dyn Workload> {
        let t = Instant::now();
        let b = build(&args.workload, args.seed);
        self.secs.push(t.elapsed().as_secs_f64());
        self.synth_ms.push(b.synth_ms());
        b
    }
}

/// Passes repeated over a measured window.
#[derive(Debug, Default)]
struct Window {
    events: u64,
    wall_s: f64,
    passes: u64,
    /// Per-event wall times of each pass; every pass lists the same
    /// events in the same order.
    event_ms: Vec<Vec<f64>>,
    operations: u64,
    failed: u64,
    layers: Layers,
}

impl Window {
    /// Runs one pass, folds it in and returns its answers. After the
    /// pass's timing has stopped, the answers are compared with the
    /// `reference` pass's. With a tracer, the pass is a root span.
    fn pass(
        &mut self,
        w: &mut dyn Workload,
        reference: Option<&[u64]>,
        tracer: Option<&Tracer>,
    ) -> Vec<u64> {
        let t0 = Instant::now();
        let pass = match tracer {
            Some(t) => t.span("pass", || w.pass(Some(t))),
            None => w.pass(None),
        };
        self.wall_s += t0.elapsed().as_secs_f64();
        self.passes += 1;
        self.events += pass.events;
        self.operations += pass.answers.len() as u64;
        if let Some(reference) = reference {
            self.failed += mismatches(reference, &pass.answers);
        }
        self.event_ms.push(pass.event_ms);
        self.layers.absorb(pass.layers);
        pass.answers
    }

    /// Each event's mean wall time over the passes. Every pass repeats
    /// the same events, so averaging per event keeps the spread between
    /// events (what the program does to each) while smoothing the
    /// machine's slow and fast spells, which last several passes.
    fn event_means(&self) -> Vec<f64> {
        let events = self.event_ms.first().map_or(0, Vec::len);
        (0..events)
            .map(|i| self.event_ms.iter().map(|p| p[i]).sum::<f64>() / self.passes as f64)
            .collect()
    }
}

/// Operations whose answer differs from the reference (a missing or
/// extra operation counts as one failure each).
fn mismatches(reference: &[u64], got: &[u64]) -> u64 {
    let differ = reference.iter().zip(got).filter(|(a, b)| a != b).count();
    (differ + reference.len().abs_diff(got.len())) as u64
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: loadbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Args {
            workload,
            seed,
            seconds,
            trace,
        },
        _ => usage(),
    }
}

fn main() {
    let args = parse_args();

    let mut setups = Setups::default();
    let mut bench = setups.build(&args);
    println!(
        "workload: {} seed {} ({} hardware threads available)",
        args.workload,
        args.seed,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!("inputs: {}", bench.describe());
    println!("input digest: {:016x}", bench.input_digest());

    // The measured window: passes until `--seconds` of pass wall time.
    // The first pass is the reference; the oracles check it once its
    // timing has stopped, and every later pass must repeat its answers.
    // A traced run alternates untraced and traced passes, so both halves
    // see the same machine conditions.
    let mut untraced = Window::default();
    let reference = untraced.pass(bench.as_mut(), None, None);
    // Read here, before the window's own bookkeeping (per-event samples)
    // grows with the run's length.
    let peak_rss_mb = instrument::peak_rss_mb();
    let problems = bench.check();
    let mut digest = Fnv::default();
    digest.word(untraced.events);
    for a in &reference {
        digest.word(*a);
    }
    println!(
        "answer digest: {:016x} ({} operations, {} events per pass)",
        digest.0,
        reference.len(),
        untraced.events
    );
    for p in &problems {
        println!("correctness: FAILED {p}");
    }
    let (mut traced, tracer) = (Window::default(), Tracer::default());
    while untraced.wall_s + traced.wall_s < args.seconds || (args.trace && traced.passes == 0) {
        // Every pass after the first runs on a set-up of its own, timed
        // outside the window; each set-up is released before the next.
        loop {
            drop(bench);
            bench = setups.build(&args);
            if setups.secs.iter().sum::<f64>() >= SETUP_SHARE * (untraced.wall_s + traced.wall_s) {
                break;
            }
        }
        untraced.pass(bench.as_mut(), Some(&reference), None);
        if args.trace {
            traced.pass(bench.as_mut(), Some(&reference), Some(&tracer));
        }
    }
    while setups.secs.len() < SETUP_MIN_REPS {
        drop(bench);
        bench = setups.build(&args);
    }
    println!(
        "set-up: {} set-ups, median {:.4} s, min {:.4} s, max {:.4} s",
        setups.secs.len(),
        median(&setups.secs),
        setups.secs.iter().copied().fold(f64::MAX, f64::min),
        setups.secs.iter().copied().fold(0.0, f64::max)
    );

    let metrics = if args.trace {
        let mut probes = Layers::default();
        bench.probe(&mut probes);
        per_layer(
            &args,
            &untraced,
            &traced,
            &tracer,
            &probes,
            median(&setups.synth_ms),
        )
    } else {
        end_to_end(&untraced, median(&setups.secs), peak_rss_mb)
    };

    let injected = untraced.layers.sum("chaos.exhausted");
    if injected > 0.0 {
        println!(
            "fault-plan queries that exhausted their retries (injected by design, not failures): {injected}"
        );
    }
    println!(
        "window: {} passes, {} events, {:.3} s; latency over {} events, each the mean of {} passes",
        untraced.passes,
        untraced.events,
        untraced.wall_s,
        untraced.event_ms.first().map_or(0, Vec::len),
        untraced.passes
    );
    let failed = untraced.failed + traced.failed + problems.len() as u64;
    let attempted = untraced.operations + traced.operations;
    println!("operations: {attempted} attempted, {failed} failed");
    for (name, value, unit) in &metrics {
        println!("  {name:<28} {value:>14.4} {unit}");
    }
    println!("{}", json(failed == 0, attempted, failed, &metrics));
}

/// The end-to-end metrics: throughput over the whole window, and
/// latency as quantiles of the per-event means.
fn end_to_end(w: &Window, setup_s: f64, peak_rss_mb: f64) -> Vec<Metric> {
    let events = w.event_means();
    vec![
        ("setup_s", setup_s, "s"),
        ("events_per_s", w.events as f64 / w.wall_s, "events/s"),
        ("event_p50_ms", quantile(&events, 0.50), "ms"),
        ("event_p99_ms", quantile(&events, 0.99), "ms"),
        ("peak_rss_mb", peak_rss_mb, "MiB"),
    ]
}

/// Span names of the self-time table, in print order. The root span of
/// each pass appears as `unattributed`: benchmark code outside every
/// layer call.
const LAYERS: [&str; 11] = [
    "backend",
    "opt.kl",
    "shard",
    "sql.parse",
    "sql.bind",
    "chaos",
    "serve",
    "lakehouse.ingest",
    "lakehouse.query",
    "metrics.fold",
    "unattributed",
];

fn per_layer(
    args: &Args,
    untraced: &Window,
    traced: &Window,
    tracer: &Tracer,
    probes: &Layers,
    synth_ms: f64,
) -> Vec<Metric> {
    let spans = tracer.spans();
    let selfs = self_times(&spans);
    let traced_ns: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let path = std::path::Path::new(".bench_trace")
        .join(format!("{}-seed{}.spans.tsv", args.workload, args.seed));
    match write_spans(&path, &spans) {
        Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
        Err(e) => println!("spans: not written ({e})"),
    }

    // Inclusive per-call durations by span name.
    let mut per_call: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in &spans {
        per_call
            .entry(s.name)
            .or_default()
            .push((s.end_ns - s.start_ns) as f64 / 1e3);
    }
    println!(
        "self time, traced passes ({} passes, {:.3} s traced wall):",
        traced.passes,
        traced_ns as f64 / 1e9
    );
    println!(
        "  {:<18} {:>10} {:>7} {:>9} {:>13}",
        "layer", "self ms", "share", "calls", "p50 us/call"
    );
    for name in LAYERS {
        let self_ns = selfs.get(name).copied().unwrap_or(0);
        let calls = if name == "unattributed" {
            per_call.get("pass")
        } else {
            per_call.get(name)
        };
        println!(
            "  {:<18} {:>10.3} {:>6.2}% {:>9} {:>13.2}",
            name,
            self_ns as f64 / 1e6,
            100.0 * self_ns as f64 / traced_ns.max(1) as f64,
            calls.map_or(0, Vec::len),
            calls.map_or(0.0, |c| median(c)),
        );
    }
    let total: u64 = selfs.values().sum();
    println!(
        "  {:<18} {:>10.3} (rows sum to the traced wall: {})",
        "total",
        total as f64 / 1e6,
        total == traced_ns
    );
    let per_event = |w: &Window| w.wall_s / w.events.max(1) as f64;
    let overhead = per_event(traced) / per_event(untraced) - 1.0;
    println!(
        "tracing overhead: {:.2}% per event ({:.1} us traced vs {:.1} us untraced)",
        100.0 * overhead,
        per_event(traced) * 1e6,
        per_event(untraced) * 1e6
    );

    let l = &untraced.layers;
    let share = |name: &str| selfs.get(name).copied().unwrap_or(0) as f64 / traced_ns.max(1) as f64;
    let shard_gain = {
        let shard = median(l.samples("shard.group_ms"));
        if shard == 0.0 {
            0.0
        } else {
            median(l.samples("raw.group_ms")) / shard
        }
    };
    let rate = |n: &str, wall_ns: &str| {
        let wall = l.sum(wall_ns);
        if wall == 0.0 {
            0.0
        } else {
            l.sum(n) / (wall / 1e9)
        }
    };
    vec![
        ("exec.query_p50_us", median(l.samples("exec.call_us")), "us"),
        (
            "exec.ns_per_row",
            l.ratio("exec.wall_ns", "exec.rows"),
            "ns/row",
        ),
        (
            "exec.blocks_pruned_frac",
            l.ratio("exec.blocks_pruned", "exec.blocks_total"),
            "frac",
        ),
        (
            "backend.self_us",
            median(probes.samples("backend.self_us")),
            "us",
        ),
        (
            "planner.plan_us",
            median(probes.samples("planner.plan_us")),
            "us",
        ),
        ("workload.synth_ms", synth_ms, "ms"),
        (
            "opt.kl.executed_frac",
            l.ratio("kl.executed", "kl.issued"),
            "frac",
        ),
        (
            "opt.kl.events_per_s",
            rate("kl.issued", "kl.wall_ns"),
            "events/s",
        ),
        (
            "shard.events_per_s",
            rate("shard.groups", "shard.wall_ns"),
            "events/s",
        ),
        ("shard.parallel_gain", shard_gain, "x"),
        (
            "pool.hit_rate",
            l.ratio("pool.hits", "pool.touches"),
            "frac",
        ),
        (
            "pool.evictions_per_query",
            l.ratio("pool.evictions", "exec.calls"),
            "count",
        ),
        (
            "chaos.attempts_per_query",
            l.ratio("chaos.attempts", "chaos.offered"),
            "count",
        ),
        (
            "serve.shed_frac",
            l.ratio("serve.shed", "serve.offered"),
            "frac",
        ),
        (
            "lakehouse.blocks_pruned_frac",
            l.ratio("lakehouse.blocks_pruned", "lakehouse.blocks_total"),
            "frac",
        ),
        ("share.backend", share("backend"), "frac"),
        ("share.opt.kl", share("opt.kl"), "frac"),
        ("share.shard", share("shard"), "frac"),
        ("share.sql.parse", share("sql.parse"), "frac"),
        ("share.sql.bind", share("sql.bind"), "frac"),
        ("share.chaos", share("chaos"), "frac"),
        ("share.serve", share("serve"), "frac"),
        ("share.lakehouse.ingest", share("lakehouse.ingest"), "frac"),
        ("share.lakehouse.query", share("lakehouse.query"), "frac"),
        ("share.metrics.fold", share("metrics.fold"), "frac"),
        ("share.unattributed", share("unattributed"), "frac"),
        ("trace.overhead_frac", overhead, "frac"),
    ]
}

/// The result line. Non-finite values print as 0 so the line stays JSON.
fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Serializes the tests that run passes: the engine publishes virtual
/// time through a process global that fault injection reads.
#[cfg(test)]
pub static PASS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mismatches_count_missing_operations() {
        assert_eq!(mismatches(&[1, 2, 3], &[1, 2, 3]), 0);
        assert_eq!(mismatches(&[1, 2, 3], &[1, 9, 3]), 1);
        assert_eq!(mismatches(&[1, 2, 3], &[1, 2]), 1);
    }

    #[test]
    fn result_line_is_json() {
        let line = json(true, 3, 0, &[("a_ms", 1.5, "ms"), ("b", f64::NAN, "count")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 0.0, \"unit\": \"count\"}}}"
        );
    }
}
