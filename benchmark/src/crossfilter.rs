//! `crossfilter`: case study 2 at paper scale.
//!
//! Why: the filter and bin kernels and the KL sketch do nearly all the
//! work; the SQL front-end and the buffer pool do none. Every slider
//! event (a group of two histograms, each filtered by a three-range
//! conjunction) is answered three ways over the same groups: `raw`
//! through `MemBackend::execute` (via `replay_raw`), `kl` through
//! `replay_kl` at `PERCEPTIBLE_KL`, and `sharded` through a two-shard,
//! two-thread `ShardedCluster`.

use std::collections::HashMap;
use std::time::Instant;

use ids_devices::DeviceKind;
use ids_engine::{Database, MemBackend, Query, Table};
use ids_metrics::qif::QifReport;
use ids_opt::klfilter::{replay_kl, HistogramSketch, PERCEPTIBLE_KL};
use ids_opt::skip::{replay_raw, ReplayOutcome};
use ids_shard::{PartitionScheme, ShardedCluster};
use ids_simclock::rng::SimRng;
use ids_simclock::SimTime;
use ids_workload::crossfilter::{
    compile_query_groups, simulate_session, CrossfilterUi, QueryGroup,
};
use ids_workload::datasets;

use crate::instrument::{
    probe_query, result_digest, rowwise_histogram, traced, Fnv, Timed, Tracer,
};
use crate::{Layers, Pass, Workload};

/// Sizes of the workload.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Road-network rows.
    pub rows: usize,
    /// Sessions per device (mouse, touch, Leap Motion).
    pub users_per_device: usize,
    /// Slider events kept from the start of each session.
    pub groups_per_session: usize,
    /// Rows in the KL sketch.
    pub kl_sample: usize,
    /// Queries recomputed row at a time by the oracle.
    pub rowwise_sample: usize,
    /// Queries the probes time.
    pub probe_queries: usize,
}

impl Scale {
    /// The benchmark's scale: the full 434,874-row road network.
    pub const BENCH: Scale = Scale {
        rows: datasets::road_domain::ROWS,
        users_per_device: 5,
        groups_per_session: 16,
        kl_sample: 4_000,
        rowwise_sample: 6,
        probe_queries: 40,
    };
}

/// Seed of the road network, its KL sketch and its shards. The data is
/// fixed, as in the paper's study; `--seed` varies the traffic.
const DATA_SEED: u64 = 72;

const DEVICES: [DeviceKind; 3] = [DeviceKind::Mouse, DeviceKind::Touch, DeviceKind::LeapMotion];
const SHARDS: usize = 2;
const SHARD_THREADS: usize = 2;

/// The crossfilter workload, set up.
pub struct Crossfilter {
    seed: u64,
    scale: Scale,
    road: Table,
    mem: MemBackend,
    sketch: HistogramSketch,
    cluster: ShardedCluster,
    sessions: Vec<Vec<QueryGroup>>,
    /// Query address → event (global group index), for span tagging.
    events: HashMap<usize, u64>,
    synth_ms: f64,
    last: LastPass,
}

/// What the oracles need from the latest pass.
#[derive(Default)]
struct LastPass {
    /// Raw answer digests, in query order.
    raw_results: Vec<u64>,
    /// KL or sharded answers that differed from raw ones.
    problems: Vec<String>,
}

impl Crossfilter {
    /// Builds the table, the sketch and the shards, and synthesizes the
    /// sessions from `seed`.
    pub fn setup(seed: u64, scale: &Scale) -> Crossfilter {
        let road = datasets::road_network_sized(DATA_SEED, scale.rows);
        let db = Database::new();
        db.register(road.clone());
        let mem = MemBackend::over(db.clone());
        let sketch = HistogramSketch::new(road.clone(), scale.kl_sample, DATA_SEED);
        let cluster =
            ShardedCluster::partition(&db, PartitionScheme::range("x"), DATA_SEED, SHARDS)
                .expect("x is a numeric column")
                .with_threads(SHARD_THREADS);

        let t = Instant::now();
        let sessions = sessions(seed, scale);
        let synth_ms = t.elapsed().as_secs_f64() * 1e3;
        let mut events = HashMap::new();
        for (i, g) in sessions.iter().flatten().enumerate() {
            for q in &g.queries {
                events.insert(q as *const Query as usize, i as u64);
            }
        }
        Crossfilter {
            seed,
            scale: *scale,
            road,
            mem,
            sketch,
            cluster,
            sessions,
            events,
            synth_ms,
            last: LastPass::default(),
        }
    }

    fn queries(&self) -> impl Iterator<Item = &Query> {
        self.sessions
            .iter()
            .flatten()
            .flat_map(|g| g.queries.iter())
    }
}

/// Mouse, touch and Leap Motion sessions, each cut to its first
/// `groups_per_session` slider events.
pub fn sessions(seed: u64, scale: &Scale) -> Vec<Vec<QueryGroup>> {
    let ui = CrossfilterUi::for_road();
    let mut out = Vec::new();
    for device in DEVICES {
        for user in 0..scale.users_per_device {
            let session = simulate_session(device, user, seed, &ui);
            let mut groups = compile_query_groups(&ui, &session.trace);
            groups.truncate(scale.groups_per_session);
            out.push(groups);
        }
    }
    out
}

/// Digest of the generated inputs (every query of every group).
pub fn input_digest(sessions: &[Vec<QueryGroup>]) -> u64 {
    let mut h = Fnv::default();
    for g in sessions.iter().flatten() {
        h.word(g.at.as_micros());
        for q in &g.queries {
            h.str(&q.to_string());
        }
    }
    h.0
}

fn fold(outcome: &ReplayOutcome, h: &mut Fnv) {
    let lcv = outcome.lcv();
    let stamps: Vec<SimTime> = outcome.executed().iter().map(|t| t.issued_at).collect();
    let qif = QifReport::from_timestamps(&stamps);
    h.word(lcv.violations as u64)
        .word(lcv.total as u64)
        .word(qif.queries_per_second().to_bits());
}

impl Workload for Crossfilter {
    fn describe(&self) -> String {
        format!(
            "{} road rows ({} pages of 8 KiB), {} sessions x {} slider events, \
             {} queries per pass, kl sketch {} rows, {} shards on {} threads",
            self.road.rows(),
            (self.road.rows() * self.road.row_disk_width()).div_ceil(8192),
            self.sessions.len(),
            self.scale.groups_per_session,
            self.queries().count(),
            self.sketch.sample_size(),
            SHARDS,
            SHARD_THREADS
        )
    }

    fn input_digest(&self) -> u64 {
        input_digest(&self.sessions)
    }

    fn synth_ms(&self) -> f64 {
        self.synth_ms
    }

    fn pass(&mut self, tracer: Option<&Tracer>) -> Pass {
        let mut pass = Pass::default();
        let mut problems = Vec::new();
        let mut first_event = 0u64;
        let mut raw_results = Vec::new();
        for groups in &self.sessions {
            let mut event_digests: Vec<Fnv> = vec![Fnv::default(); groups.len()];
            // Index of each group's first call in the raw call log.
            let starts: Vec<usize> = groups
                .iter()
                .scan(0, |k, g| {
                    let start = *k;
                    *k += g.queries.len();
                    Some(start)
                })
                .collect();

            // raw: every group through MemBackend::execute.
            let timed = Timed::new(&self.mem, tracer).with_events(&self.events);
            let raw = replay_raw(&timed, groups).expect("registered table");
            let raw_calls = timed.take();
            raw_results.extend(raw_calls.iter().map(|c| c.result));
            for ((g, h), &k) in groups.iter().zip(event_digests.iter_mut()).zip(&starts) {
                let calls = &raw_calls[k..k + g.queries.len()];
                let ms = calls.iter().map(|c| c.wall_ns).sum::<u64>() as f64 / 1e6;
                pass.event_ms.push(ms);
                pass.layers.sample("raw.group_ms", ms);
                for c in calls {
                    h.word(c.answer());
                }
            }
            pass.layers.add_calls(&raw_calls);

            // kl: the sketch decides which groups execute.
            let timed = Timed::new(&self.mem, tracer).with_events(&self.events);
            let t = Instant::now();
            let kl = traced(tracer, "opt.kl", || {
                replay_kl(&timed, groups, &self.sketch, PERCEPTIBLE_KL)
            })
            .expect("registered table");
            pass.layers.add("kl.wall_ns", t.elapsed().as_nanos() as f64);
            pass.layers.add("kl.issued", groups.len() as f64);
            pass.layers.add("kl.executed", kl.executed().len() as f64);
            let kl_calls = timed.take();
            let mut k = 0;
            for (gi, timing) in kl.timings.iter().enumerate() {
                let h = &mut event_digests[gi];
                h.word(timing.executed as u64);
                if !timing.executed {
                    continue;
                }
                for (qi, c) in kl_calls[k..k + groups[gi].queries.len()].iter().enumerate() {
                    h.word(c.answer());
                    if c.answer() != raw_calls[starts[gi] + qi].answer() {
                        problems.push(format!("kl answer differs from raw, group {gi}"));
                    }
                }
                k += groups[gi].queries.len();
            }

            // The LCV / QIF fold over both replays.
            let mut folds = Fnv::default();
            traced(tracer, "metrics.fold", || {
                fold(&raw, &mut folds);
                fold(&kl, &mut folds);
            });

            // sharded: scatter-gather over two range shards.
            for (gi, g) in groups.iter().enumerate() {
                if let Some(t) = tracer {
                    t.set_event(first_event + gi as u64);
                }
                let t = Instant::now();
                for (qi, q) in g.queries.iter().enumerate() {
                    let out = traced(tracer, "shard", || self.cluster.execute(q))
                        .expect("histograms merge");
                    let digest = result_digest(&out.result);
                    event_digests[gi].word(digest).word(out.elapsed.as_micros());
                    if digest != raw_calls[starts[gi] + qi].result {
                        problems.push(format!("sharded histogram differs, group {gi}"));
                    }
                }
                let ms = t.elapsed().as_secs_f64() * 1e3;
                pass.layers.sample("shard.group_ms", ms);
                pass.layers.add("shard.wall_ns", ms * 1e6);
                pass.layers.add("shard.groups", 1.0);
            }

            pass.events += groups.len() as u64;
            first_event += groups.len() as u64;
            pass.answers.extend(event_digests.iter().map(|h| h.0));
            pass.answers.push(folds.0);
        }

        self.last = LastPass {
            raw_results,
            problems,
        };
        pass
    }

    fn check(&self) -> Vec<String> {
        let mut problems = self.last.problems.clone();
        let all: Vec<&Query> = self.queries().collect();
        let mut rng = SimRng::seed(self.seed).split("loadbench/crossfilter/oracle");
        for _ in 0..self.scale.rowwise_sample {
            let i = rng.uniform_usize(0, all.len());
            if self.last.raw_results[i] != rowwise_histogram(&self.road, all[i]) {
                problems.push(format!("row-at-a-time histogram differs: {}", all[i]));
            }
        }
        problems
    }

    /// On `MemBackend` the backend's own work is pricing, far below the
    /// timing noise of these scans: `backend.self_us` is undefined here.
    fn probe(&mut self, layers: &mut Layers) {
        let all: Vec<&Query> = self.queries().collect();
        let step = (all.len() / self.scale.probe_queries).max(1);
        for q in all.into_iter().step_by(step) {
            probe_query(layers, &self.mem, q);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Scale = Scale {
        rows: 3_000,
        users_per_device: 1,
        groups_per_session: 8,
        kl_sample: 300,
        rowwise_sample: 3,
        probe_queries: 4,
    };

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let a = input_digest(&sessions(5, &TINY));
        assert_eq!(a, input_digest(&sessions(5, &TINY)));
        assert_ne!(a, input_digest(&sessions(6, &TINY)));
    }

    #[test]
    fn passes_are_checked_and_repeat() {
        let _serial = crate::PASS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut w = Crossfilter::setup(5, &TINY);
        let first = w.pass(None);
        let problems = w.check();
        assert!(problems.is_empty(), "{problems:?}");
        assert_eq!(first.events, 24);
        let tracer = Tracer::default();
        let again = w.pass(Some(&tracer));
        assert_eq!(first.answers, again.answers);
        assert!(tracer.spans().iter().any(|s| s.name == "opt.kl"));
    }
}
