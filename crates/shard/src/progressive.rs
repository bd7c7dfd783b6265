//! Sharded progressive refinement: online aggregation across a shard
//! set with explicit, summed error bounds.
//!
//! Each shard runs the engine's [`ProgressiveExecutor`] over its own
//! block permutation (seed `splitmix64(seed ^ shard)`, so shards sample
//! independently but deterministically). The per-shard refinement
//! sequences are then merged **stepwise** in fixed shard order:
//!
//! - estimates merge like any partial aggregate
//!   (`merge_partials`): COUNT sums, histograms sum bin-wise;
//! - deterministic error bounds **sum** — each shard's estimate is off
//!   by at most its own bound, so the merged estimate is off by at most
//!   the total;
//! - confidence intervals sum endpoint-wise (a conservative union
//!   bound — the merged interval contains the truth whenever every
//!   per-shard interval does);
//! - elapsed virtual time is the *slowest* shard plus the coordination
//!   term, matching the exact scatter-gather cost model;
//! - covered fraction is the rows-weighted mean across shards.
//!
//! Shards quantize fractions to whole zone-map blocks, so their
//! sequences can differ in length (an empty shard emits a single exact
//! step). Shorter sequences are padded by repeating their final — exact
//! — refinement, which keeps every merged step sound. The final merged
//! step is byte-identical to the exact scatter-gather answer.

use crate::partition::splitmix64;
use crate::plan::{merge_partials, ClusterParams};
use ids_engine::progressive::{ConfidenceInterval, ProgressiveExecutor, Refinement};
use ids_engine::{Database, EngineResult, Query};
use ids_simclock::SimDuration;

/// Progressive executor over a shard set.
#[derive(Debug)]
pub struct ShardedProgressive {
    shards: Vec<Database>,
    seed: u64,
    schedule: Option<Vec<f64>>,
    confidence: Option<f64>,
    params: ClusterParams,
}

impl ShardedProgressive {
    /// Executor over `shards` databases with the engine's default
    /// schedule and confidence.
    pub fn over(shards: Vec<Database>) -> ShardedProgressive {
        ShardedProgressive {
            shards,
            seed: 0,
            schedule: None,
            confidence: None,
            params: ClusterParams::default_cluster(),
        }
    }

    /// Base seed; shard `s` permutes its blocks with
    /// `splitmix64(seed ^ s)`.
    pub fn with_seed(mut self, seed: u64) -> ShardedProgressive {
        self.seed = seed;
        self
    }

    /// Overrides the refinement schedule on every shard.
    pub fn with_schedule(mut self, schedule: Vec<f64>) -> ShardedProgressive {
        self.schedule = Some(schedule);
        self
    }

    /// Overrides the confidence-interval coverage target.
    pub fn with_confidence(mut self, confidence: f64) -> ShardedProgressive {
        self.confidence = Some(confidence);
        self
    }

    /// Replaces the coordination cost model.
    pub fn with_params(mut self, params: ClusterParams) -> ShardedProgressive {
        self.params = params;
        self
    }

    /// Runs `query` progressively on every shard and merges the
    /// refinement sequences stepwise.
    pub fn run(&self, query: &Query) -> EngineResult<Vec<Refinement>> {
        let mut per_shard: Vec<Vec<Refinement>> = Vec::with_capacity(self.shards.len());
        let mut shard_rows: Vec<f64> = Vec::with_capacity(self.shards.len());
        for (shard, db) in self.shards.iter().enumerate() {
            let mut exec = ProgressiveExecutor::new(db.clone())
                .with_seed(splitmix64(self.seed ^ shard as u64));
            if let Some(schedule) = &self.schedule {
                exec = exec.with_schedule(schedule.clone());
            }
            if let Some(confidence) = self.confidence {
                exec = exec.with_confidence(confidence);
            }
            per_shard.push(exec.run(query)?);
            shard_rows.push(db.table(query.table())?.rows() as f64);
        }
        Ok(self.merge(per_shard, &shard_rows))
    }

    /// Stepwise merge in fixed shard order, padding shorter sequences
    /// with their final (exact) refinement.
    fn merge(&self, per_shard: Vec<Vec<Refinement>>, shard_rows: &[f64]) -> Vec<Refinement> {
        let steps = per_shard.iter().map(Vec::len).max().unwrap_or(0);
        let total_rows: f64 = shard_rows.iter().sum();
        let mut out = Vec::with_capacity(steps);
        for step in 0..steps {
            let mut estimate = None;
            let mut intervals: Vec<ConfidenceInterval> = Vec::new();
            let mut error_bound = 0.0;
            let mut slowest = SimDuration::ZERO;
            let mut covered_rows = 0.0;
            let mut merge_groups = 0u64;
            for (shard, seq) in per_shard.iter().enumerate() {
                let r = &seq[step.min(seq.len() - 1)];
                merge_groups += r.estimate.len() as u64;
                estimate = Some(match estimate.take() {
                    None => r.estimate.clone(),
                    Some(acc) => merge_partials(acc, r.estimate.clone())
                        .expect("shards answer one query, so partial shapes match"),
                });
                if intervals.is_empty() {
                    intervals = r.intervals.clone();
                } else {
                    for (acc, iv) in intervals.iter_mut().zip(&r.intervals) {
                        acc.lo += iv.lo;
                        acc.hi += iv.hi;
                    }
                }
                error_bound += r.error_bound;
                slowest = slowest.max(r.elapsed);
                covered_rows += r.fraction * shard_rows[shard];
            }
            let Some(estimate) = estimate else { break };
            let coordination = self.params.coordination(per_shard.len(), merge_groups);
            out.push(Refinement {
                fraction: if total_rows > 0.0 {
                    covered_rows / total_rows
                } else {
                    1.0
                },
                estimate,
                intervals,
                error_bound,
                elapsed: slowest + coordination,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{partition_database, PartitionScheme};
    use crate::plan::ScatterGather;
    use ids_engine::progressive::{interval_coverage, is_anytime_consistent};
    use ids_engine::{BinSpec, ColumnBuilder, Predicate, TableBuilder};
    use ids_simclock::rng::SimRng;

    fn db(rows: usize) -> Database {
        let mut values: Vec<f64> = (0..rows).map(|i| (i % 400) as f64).collect();
        SimRng::seed(5).shuffle(&mut values);
        let db = Database::new();
        db.register(
            TableBuilder::new("pts")
                .column("x", ColumnBuilder::float(values))
                .build()
                .unwrap(),
        );
        db
    }

    fn query() -> Query {
        Query::histogram(
            "pts",
            BinSpec::new("x", 0.0, 400.0, 8),
            Predicate::between("x", 40.0, 360.0),
        )
    }

    #[test]
    fn final_step_matches_exact_scatter_gather() {
        let source = db(40_000);
        for shards in [1usize, 4, 16] {
            let parts = partition_database(&source, &PartitionScheme::HashRows, 0, shards).unwrap();
            let exact = ScatterGather::over(parts.clone())
                .execute(&query())
                .unwrap();
            let refinements = ShardedProgressive::over(parts)
                .with_seed(9)
                .run(&query())
                .unwrap();
            assert!(
                is_anytime_consistent(&refinements, &exact.result),
                "{shards} shards"
            );
        }
    }

    #[test]
    fn merged_intervals_bracket_truth() {
        let source = db(80_000);
        let parts = partition_database(&source, &PartitionScheme::HashRows, 0, 4).unwrap();
        let exact = ScatterGather::over(parts.clone())
            .execute(&query())
            .unwrap();
        let refinements = ShardedProgressive::over(parts).run(&query()).unwrap();
        let coverage = interval_coverage(&refinements, &exact.result);
        assert!(coverage >= 0.95, "coverage {coverage}");
    }

    #[test]
    fn empty_shards_pad_cleanly() {
        // 3 rows over 8 shards: most shards are empty and emit a single
        // exact step; padding must keep every merged step sound.
        let source = db(3);
        let parts = partition_database(&source, &PartitionScheme::HashRows, 0, 8).unwrap();
        let q = Query::count("pts", Predicate::True);
        let exact = ScatterGather::over(parts.clone()).execute(&q).unwrap();
        let refinements = ShardedProgressive::over(parts).run(&q).unwrap();
        assert!(is_anytime_consistent(&refinements, &exact.result));
        assert_eq!(refinements.last().unwrap().estimate.scalar_count(), Some(3));
    }

    #[test]
    fn empty_table_is_a_single_exact_step() {
        let source = Database::new();
        source.register(
            TableBuilder::new("pts")
                .column("x", ColumnBuilder::float(Vec::<f64>::new()))
                .build()
                .unwrap(),
        );
        let parts = partition_database(&source, &PartitionScheme::HashRows, 0, 4).unwrap();
        let q = Query::count("pts", Predicate::True);
        let refinements = ShardedProgressive::over(parts).run(&q).unwrap();
        assert_eq!(refinements.len(), 1);
        assert_eq!(refinements[0].fraction, 1.0);
        assert_eq!(refinements[0].error_bound, 0.0);
        assert_eq!(refinements[0].estimate.scalar_count(), Some(0));
    }

    #[test]
    fn error_bounds_sum_and_shrink() {
        let source = db(64_000);
        let parts = partition_database(&source, &PartitionScheme::HashRows, 0, 4).unwrap();
        let refinements = ShardedProgressive::over(parts).run(&query()).unwrap();
        assert!(refinements.len() > 2);
        for w in refinements.windows(2) {
            assert!(w[0].error_bound >= w[1].error_bound);
            assert!(w[0].elapsed <= w[1].elapsed);
        }
        assert_eq!(refinements.last().unwrap().error_bound, 0.0);
    }
}
