//! Deterministic scatter-gather execution over a set of shard
//! databases.
//!
//! The executor scatters one mergeable query (COUNT or histogram — the
//! shapes the engine's fused filter+bin / filter+probe kernels serve)
//! to every shard, runs the shards on a bounded worker pool, and
//! gathers the partials **in fixed shard order**. Worker threads only
//! decide *when* a shard runs, never *what* it contributes or *where*
//! its partial sits in the merge — each shard writes into its own
//! pre-assigned slot — so the merged result, the virtual costs, and the
//! recorded telemetry are byte-identical at any thread count.
//!
//! Virtual time: each shard's compute cost is priced by the engine's
//! [`LinearCostModel`] on that shard's real footprint; plan latency is
//! the *slowest* shard plus the coordination term
//! ([`ClusterParams::coordination`]) that does not parallelize. That is
//! exactly the shape the paper's scalability guideline predicts: near
//! linear to ~8 shards, then coordination-bound.

use ids_engine::exec::run_query;
use ids_engine::{
    CostModel, CostParams, Database, EngineError, EngineResult, Histogram, LinearCostModel, Query,
    QueryFootprint, ResultSet,
};
use ids_simclock::SimDuration;

/// Cost knobs specific to the coordination layer of a scatter-gather
/// plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterParams {
    /// Per-query coordination overhead per participating node, ns
    /// (scheduling, result collection).
    pub per_node_overhead_ns: u64,
    /// Merging one partial group/row from one node, ns.
    pub merge_per_group_ns: u64,
    /// Fixed coordinator startup, ns.
    pub coordinator_ns: u64,
}

impl ClusterParams {
    /// A calibration that yields near-linear speedup to ~8 nodes and
    /// diminishing returns beyond — the DICE shape.
    pub const fn default_cluster() -> ClusterParams {
        ClusterParams {
            per_node_overhead_ns: 500_000, // 0.5 ms per node per query
            merge_per_group_ns: 10_000,    // 10 µs per partial group
            coordinator_ns: 1_000_000,     // 1 ms
        }
    }

    /// Coordination cost of gathering `nodes` partials totalling
    /// `merge_groups` groups: the part of a scatter-gather plan that
    /// does *not* get faster with more shards.
    pub fn coordination(&self, nodes: usize, merge_groups: u64) -> SimDuration {
        SimDuration::from_micros(
            (self.coordinator_ns
                + self.per_node_overhead_ns * nodes as u64
                + self.merge_per_group_ns * merge_groups)
                / 1_000,
        )
    }
}

/// Rejects query shapes a row partition cannot distribute. COUNT sums
/// and histograms sum bin-wise; paginated selects and joins would need
/// a shuffle, which this layer intentionally does not model.
pub(crate) fn require_mergeable(query: &Query) -> EngineResult<()> {
    if matches!(query, Query::Count { .. } | Query::Histogram { .. }) {
        Ok(())
    } else {
        Err(EngineError::TypeMismatch {
            column: query.table().to_string(),
            expected: "a mergeable query (COUNT or histogram) for distributed execution",
        })
    }
}

/// Merges two mergeable partial results: COUNT sums, histograms sum
/// bin-wise. Partials are merged in *fixed shard order* — `u64` sums
/// commute, but one canonical order is what lets every caller assert
/// byte-identical output instead of arguing about it.
pub(crate) fn merge_partials(a: ResultSet, b: ResultSet) -> EngineResult<ResultSet> {
    match (a, b) {
        (ResultSet::Count(x), ResultSet::Count(y)) => Ok(ResultSet::Count(x + y)),
        (ResultSet::Histogram(x), ResultSet::Histogram(y)) => {
            if x.bins() != y.bins() {
                return Err(EngineError::InvalidBinSpec(
                    "partition histograms disagree on bin count".into(),
                ));
            }
            let counts = x
                .counts()
                .iter()
                .zip(y.counts())
                .map(|(&p, &q)| p + q)
                .collect();
            Ok(ResultSet::Histogram(Histogram::from_counts(counts)))
        }
        _ => Err(EngineError::TypeMismatch {
            column: "<merge>".into(),
            expected: "matching partial result shapes",
        }),
    }
}

/// One shard-local execution: a partial result plus its footprint.
type ShardPartial = EngineResult<(ResultSet, QueryFootprint)>;
/// The per-shard runner [`ScatterGather::scatter_with`] fans out.
type ShardRunner<'a> = &'a (dyn Fn(&Database, &Query) -> ShardPartial + Sync);

/// One shard's contribution to a scatter-gather plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardExecution {
    /// Shard index (also its merge position).
    pub shard: usize,
    /// Rows scanned on this shard.
    pub rows_scanned: u64,
    /// Zone-map blocks this shard pruned without touching data.
    pub blocks_pruned: u64,
    /// Virtual compute cost of this shard's partial.
    pub cost: SimDuration,
}

/// Outcome of one scatter-gather execution.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// Merged result — byte-identical to single-table execution.
    pub result: ResultSet,
    /// Virtual latency: slowest shard + coordination.
    pub elapsed: SimDuration,
    /// Sum of every shard's compute plus coordination (the throughput
    /// denominator).
    pub total_work: SimDuration,
    /// Per-shard breakdown, in shard order.
    pub per_shard: Vec<ShardExecution>,
}

impl ShardOutcome {
    /// Number of shards that executed.
    pub fn shards(&self) -> usize {
        self.per_shard.len()
    }
}

/// Scatter-gather executor over pre-partitioned shard databases.
#[derive(Debug)]
pub struct ScatterGather {
    shards: Vec<Database>,
    model: LinearCostModel,
    params: ClusterParams,
    threads: usize,
}

impl ScatterGather {
    /// Executor over `shards` databases with disk-calibrated node costs
    /// and the default coordination model.
    pub fn over(shards: Vec<Database>) -> ScatterGather {
        ScatterGather {
            shards,
            model: LinearCostModel::new(CostParams::disk_default()),
            params: ClusterParams::default_cluster(),
            threads: 1,
        }
    }

    /// Replaces the per-node cost calibration.
    pub fn with_costs(mut self, costs: CostParams) -> ScatterGather {
        self.model = LinearCostModel::new(costs);
        self
    }

    /// Replaces the coordination cost model.
    pub fn with_params(mut self, params: ClusterParams) -> ScatterGather {
        self.params = params;
        self
    }

    /// Runs shards on up to `threads` OS worker threads. Purely a
    /// wall-clock knob: results, virtual costs, and telemetry do not
    /// depend on it.
    pub fn with_threads(mut self, threads: usize) -> ScatterGather {
        self.threads = threads.max(1);
        self
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard databases, in shard order.
    pub fn partitions(&self) -> &[Database] {
        &self.shards
    }

    /// Executes `query` on every shard and merges the partials in shard
    /// order. Non-mergeable shapes are rejected with the engine's typed
    /// error before any shard runs.
    pub fn execute(&self, query: &Query) -> EngineResult<ShardOutcome> {
        require_mergeable(query)?;
        let partials = self.scatter_with(query, &|db, q| run_query(db, q))?;
        self.gather(query, partials)
    }

    /// Like [`ScatterGather::execute`], but each shard's fragment goes
    /// through the engine's cost-based planner (predicate reordering,
    /// fused/unfused and parallel bin paths) instead of the fixed
    /// kernel path. The planner's footprint-identity guarantee makes
    /// the merged result, virtual costs, and telemetry byte-identical
    /// to `execute` — planning only changes *how* partials compute.
    pub fn execute_planned(&self, query: &Query) -> EngineResult<ShardOutcome> {
        require_mergeable(query)?;
        let partials = self.scatter_with(query, &|db, q| {
            let out = ids_engine::plan(db, q)?.execute(db)?;
            Ok((out.result, out.footprint))
        })?;
        self.gather(query, partials)
    }

    /// Renders every shard's plan as one stable text tree, in fixed
    /// shard order — byte-identical across runs and thread counts.
    pub fn explain(&self, query: &Query) -> EngineResult<String> {
        require_mergeable(query)?;
        let mut out = String::new();
        for (shard, db) in self.shards.iter().enumerate() {
            let plan = ids_engine::plan(db, query)?;
            out.push_str(&format!("shard {shard}:\n"));
            for line in plan.explain().lines() {
                out.push_str("  ");
                out.push_str(line);
                out.push('\n');
            }
        }
        Ok(out)
    }

    /// Runs `query` on every shard via `run`, returning
    /// `(partial, footprint)` per shard in shard order. Slot-indexed:
    /// worker threads pull shards off a shared cursor but each writes
    /// only its own slot.
    fn scatter_with(
        &self,
        query: &Query,
        run: ShardRunner<'_>,
    ) -> EngineResult<Vec<(ResultSet, QueryFootprint)>> {
        let mut slots: Vec<Option<ShardPartial>> = (0..self.shards.len()).map(|_| None).collect();
        let workers = self.threads.min(self.shards.len()).max(1);
        if workers == 1 {
            for (shard, slot) in slots.iter_mut().enumerate() {
                *slot = Some(run(&self.shards[shard], query));
            }
        } else {
            let cursor = std::sync::atomic::AtomicUsize::new(0);
            let results = std::sync::Mutex::new(Vec::new());
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let shard = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            if shard >= self.shards.len() {
                                break;
                            }
                            local.push((shard, run(&self.shards[shard], query)));
                        }
                        results.lock().unwrap().extend(local);
                    });
                }
            });
            for (shard, result) in results.into_inner().unwrap() {
                slots[shard] = Some(result);
            }
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every shard slot is filled"))
            .collect()
    }

    /// Merges shard partials in fixed shard order, prices each shard's
    /// footprint, and records one obs span per shard so the telemetry
    /// lakehouse can answer "p99 by shard".
    fn gather(
        &self,
        query: &Query,
        partials: Vec<(ResultSet, QueryFootprint)>,
    ) -> EngineResult<ShardOutcome> {
        let mut slowest = SimDuration::ZERO;
        let mut total_work = SimDuration::ZERO;
        let mut merged: Option<ResultSet> = None;
        let mut merge_groups = 0u64;
        let mut per_shard = Vec::with_capacity(partials.len());
        let observe = ids_obs::enabled();
        for (shard, (partial, footprint)) in partials.into_iter().enumerate() {
            let cost = self.model.price(&footprint);
            slowest = slowest.max(cost);
            total_work += cost;
            merge_groups += partial.len() as u64;
            if observe {
                let rec = ids_obs::recorder();
                let track = rec.track(&format!("shard/{shard}"));
                rec.record_span(
                    "shard",
                    query.table().to_string(),
                    track,
                    ids_obs::vnow(),
                    cost,
                    vec![
                        ("tenant", ids_obs::ArgValue::Str(format!("shard/{shard}"))),
                        (
                            "rows_scanned",
                            ids_obs::ArgValue::U64(footprint.rows_scanned),
                        ),
                        ("cost_us", ids_obs::ArgValue::U64(cost.as_micros())),
                    ],
                );
            }
            per_shard.push(ShardExecution {
                shard,
                rows_scanned: footprint.rows_scanned,
                blocks_pruned: footprint.blocks_pruned,
                cost,
            });
            merged = Some(match merged.take() {
                None => partial,
                Some(acc) => merge_partials(acc, partial)?,
            });
        }
        let merged = merged.ok_or(EngineError::ShardUnavailable {
            shard: 0,
            replicas: 0,
        })?;
        let coordination = self.params.coordination(per_shard.len(), merge_groups);
        Ok(ShardOutcome {
            result: merged,
            elapsed: slowest + coordination,
            total_work: total_work + coordination,
            per_shard,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{partition_database, PartitionScheme};
    use ids_engine::{BinSpec, ColumnBuilder, Predicate, TableBuilder};

    fn db(rows: usize) -> Database {
        let db = Database::new();
        db.register(
            TableBuilder::new("t")
                .column(
                    "x",
                    ColumnBuilder::float((0..rows).map(|i| (i % 500) as f64)),
                )
                .column("k", ColumnBuilder::int((0..rows).map(|i| (i % 11) as i64)))
                .build()
                .unwrap(),
        );
        db
    }

    fn hist() -> Query {
        Query::histogram(
            "t",
            BinSpec::new("x", 0.0, 500.0, 25),
            Predicate::between("x", 50.0, 450.0),
        )
    }

    #[test]
    fn merged_result_matches_single_table_at_any_thread_count() {
        let source = db(20_000);
        let (expected, _) = run_query(&source, &hist()).unwrap();
        for scheme in [
            PartitionScheme::HashRows,
            PartitionScheme::hash_key("k"),
            PartitionScheme::range("x"),
        ] {
            for shards in [1usize, 4, 16] {
                let parts = partition_database(&source, &scheme, 17, shards).unwrap();
                let mut outcomes = Vec::new();
                for threads in [1usize, 3, 8] {
                    let sg = ScatterGather::over(parts.clone()).with_threads(threads);
                    outcomes.push(sg.execute(&hist()).unwrap());
                }
                for out in &outcomes {
                    assert_eq!(out.result, expected, "{scheme:?} x{shards}");
                    assert_eq!(out.shards(), shards);
                    assert_eq!(out.elapsed, outcomes[0].elapsed);
                    assert_eq!(out.total_work, outcomes[0].total_work);
                }
            }
        }
    }

    #[test]
    fn per_shard_breakdown_covers_all_rows() {
        let source = db(9_999);
        let parts = partition_database(&source, &PartitionScheme::HashRows, 0, 4).unwrap();
        let out = ScatterGather::over(parts)
            .execute(&Query::count("t", Predicate::True))
            .unwrap();
        assert_eq!(out.result.scalar_count(), Some(9_999));
        assert_eq!(
            out.per_shard.iter().map(|s| s.rows_scanned).sum::<u64>(),
            9_999
        );
    }

    #[test]
    fn latency_is_slowest_shard_plus_coordination() {
        let source = db(40_000);
        let parts = partition_database(&source, &PartitionScheme::HashRows, 0, 8).unwrap();
        let sg = ScatterGather::over(parts);
        let out = sg.execute(&hist()).unwrap();
        let slowest = out.per_shard.iter().map(|s| s.cost).max().unwrap();
        assert!(out.elapsed > slowest);
        assert!(out.elapsed < out.total_work);
    }

    #[test]
    fn planned_dispatch_matches_unplanned_and_explains_stably() {
        let source = db(30_000);
        for query in [
            hist(),
            Query::count(
                "t",
                Predicate::and([
                    Predicate::ge("k", 2.0),
                    Predicate::between("x", 40.0, 120.0),
                ]),
            ),
        ] {
            let parts = partition_database(&source, &PartitionScheme::range("x"), 0, 4).unwrap();
            let sg = ScatterGather::over(parts);
            let plain = sg.execute(&query).unwrap();
            let explain = sg.explain(&query).unwrap();
            for threads in [1usize, 4] {
                let sg = sg_clone(&sg, threads);
                let planned = sg.execute_planned(&query).unwrap();
                assert_eq!(planned.result, plain.result);
                assert_eq!(
                    planned.elapsed, plain.elapsed,
                    "virtual cost must not drift"
                );
                assert_eq!(planned.total_work, plain.total_work);
                assert_eq!(planned.per_shard, plain.per_shard);
                assert_eq!(sg.explain(&query).unwrap(), explain);
            }
            assert!(explain.starts_with("shard 0:\n"));
            assert!(explain.contains("shard 3:\n"));
        }
    }

    fn sg_clone(sg: &ScatterGather, threads: usize) -> ScatterGather {
        ScatterGather::over(sg.partitions().to_vec()).with_threads(threads)
    }

    #[test]
    fn selects_are_rejected_before_any_shard_runs() {
        let source = db(100);
        let parts = partition_database(&source, &PartitionScheme::HashRows, 0, 2).unwrap();
        let sg = ScatterGather::over(parts);
        let select = Query::select("t", vec![], Predicate::True, Some(5), 0);
        assert!(matches!(
            sg.execute(&select),
            Err(EngineError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn merge_partials_rejects_mismatched_shapes() {
        let hist = |bins: usize| ResultSet::Histogram(Histogram::from_counts(vec![1; bins]));
        let merged = merge_partials(hist(3), hist(3)).unwrap();
        assert_eq!(merged.histogram().unwrap().counts(), &[2, 2, 2]);
        assert!(matches!(
            merge_partials(hist(3), hist(4)),
            Err(EngineError::InvalidBinSpec(_))
        ));
        assert!(matches!(
            merge_partials(ResultSet::Count(1), hist(3)),
            Err(EngineError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn string_predicates_survive_partitioning() {
        let source = Database::new();
        source.register(
            TableBuilder::new("pts")
                .column(
                    "label",
                    ColumnBuilder::str((0..1_000).map(|i| if i % 2 == 0 { "even" } else { "odd" })),
                )
                .build()
                .unwrap(),
        );
        let parts = partition_database(&source, &PartitionScheme::HashRows, 0, 3).unwrap();
        let out = ScatterGather::over(parts)
            .execute(&Query::count("pts", Predicate::eq("label", "even")))
            .unwrap();
        assert_eq!(out.result.scalar_count(), Some(500));
    }

    #[test]
    fn range_partitioned_shards_prune_out_of_range_blocks() {
        let source = db(64_000);
        let parts = partition_database(&source, &PartitionScheme::range("x"), 0, 4).unwrap();
        let out = ScatterGather::over(parts)
            .execute(&Query::count("t", Predicate::between("x", 0.0, 100.0)))
            .unwrap();
        // Clustering preserved: shards whose range misses the predicate
        // prune everything via their zone maps.
        assert!(out.per_shard.iter().any(|s| s.blocks_pruned > 0));
    }
}
