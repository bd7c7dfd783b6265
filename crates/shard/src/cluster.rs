//! Replicated sharded cluster: availability routing on top of the
//! scatter-gather executor.
//!
//! Replication here is an *availability* property, not extra bytes:
//! every replica of a shard shares one partition image (this is a
//! simulator), striped across nodes: nodes `0..shards` hold copy 0,
//! `shards..2*shards` copy 1, and so on. A query stays **exact** under
//! any node-loss pattern that leaves each shard one survivor; when
//! every replica of a shard is lost the plan fails with the typed
//! [`EngineError::ShardUnavailable`](ids_engine::EngineError) instead
//! of extrapolating an estimate from the survivors.

use ids_engine::{CostParams, Database, EngineError, EngineResult, Query};

use crate::partition::{partition_database, PartitionScheme};
use crate::plan::{ClusterParams, ScatterGather, ShardOutcome};

/// The node hosting replica `replica` of shard `shard` in the canonical
/// striped layout: nodes `0..shards` hold copy 0, `shards..2*shards`
/// copy 1, and so on.
fn replica_node(shard: usize, shards: usize, replica: usize) -> usize {
    replica * shards + shard
}

/// The lowest-numbered surviving node hosting `shard`, or `None` when
/// every replica is in `lost`. Deterministic: the same loss set always
/// routes to the same replica.
fn surviving_replica(
    shard: usize,
    shards: usize,
    replicas: usize,
    lost: &[usize],
) -> Option<usize> {
    (0..replicas)
        .map(|r| replica_node(shard, shards, r))
        .find(|node| !lost.contains(node))
}

/// A sharded, replicated fleet database.
#[derive(Debug)]
pub struct ShardedCluster {
    executor: ScatterGather,
    scheme: PartitionScheme,
    seed: u64,
    replicas: usize,
}

impl ShardedCluster {
    /// Partitions `db` under `scheme` into `shards` single-replica
    /// shards.
    pub fn partition(
        db: &Database,
        scheme: PartitionScheme,
        seed: u64,
        shards: usize,
    ) -> EngineResult<ShardedCluster> {
        let parts = partition_database(db, &scheme, seed, shards)?;
        Ok(ShardedCluster {
            executor: ScatterGather::over(parts),
            scheme,
            seed,
            replicas: 1,
        })
    }

    /// Adds `replicas` copies of every shard (striped node layout).
    pub fn with_replicas(mut self, replicas: usize) -> ShardedCluster {
        self.replicas = replicas.max(1);
        self
    }

    /// Replaces the per-node cost calibration.
    pub fn with_costs(mut self, costs: CostParams) -> ShardedCluster {
        self.executor = self.executor.with_costs(costs);
        self
    }

    /// Replaces the coordination cost model.
    pub fn with_params(mut self, params: ClusterParams) -> ShardedCluster {
        self.executor = self.executor.with_params(params);
        self
    }

    /// Runs shards on up to `threads` worker threads (wall-clock only;
    /// results and virtual costs are thread-count invariant).
    pub fn with_threads(mut self, threads: usize) -> ShardedCluster {
        self.executor = self.executor.with_threads(threads);
        self
    }

    /// The partition scheme in force.
    pub fn scheme(&self) -> &PartitionScheme {
        &self.scheme
    }

    /// The partitioning seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.executor.shards()
    }

    /// Replicas per shard.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// Total nodes (`shards × replicas`).
    pub fn nodes(&self) -> usize {
        self.shards() * self.replicas
    }

    /// The scatter-gather executor (and through it the shard
    /// databases).
    pub fn executor(&self) -> &ScatterGather {
        &self.executor
    }

    /// Executes `query` with every node healthy.
    pub fn execute(&self, query: &Query) -> EngineResult<ShardOutcome> {
        self.executor.execute(query)
    }

    /// Executes with the nodes in `lost` excluded. Routing is
    /// deterministic — each shard answers from its lowest-numbered
    /// surviving replica — and the result is exact whenever every shard
    /// keeps one survivor. Otherwise: typed
    /// [`ShardUnavailable`](EngineError::ShardUnavailable), which
    /// `is_transient()` since lost nodes recover at the end of their
    /// fault window.
    pub fn execute_excluding(&self, query: &Query, lost: &[usize]) -> EngineResult<ShardOutcome> {
        let shards = self.shards();
        for shard in 0..shards {
            if surviving_replica(shard, shards, self.replicas, lost).is_none() {
                return Err(EngineError::ShardUnavailable {
                    shard,
                    replicas: self.replicas,
                });
            }
        }
        self.executor.execute(query)
    }

    /// The nodes hosting `shard`, lowest replica first.
    pub fn nodes_of_shard(&self, shard: usize) -> Vec<usize> {
        (0..self.replicas)
            .map(|r| replica_node(shard, self.shards(), r))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_engine::exec::run_query;
    use ids_engine::{ColumnBuilder, Predicate, TableBuilder};

    fn db(rows: usize) -> Database {
        let db = Database::new();
        db.register(
            TableBuilder::new("t")
                .column("k", ColumnBuilder::int((0..rows).map(|i| (i % 13) as i64)))
                .column("v", ColumnBuilder::float((0..rows).map(|i| i as f64)))
                .build()
                .unwrap(),
        );
        db
    }

    #[test]
    fn replica_layout_is_striped() {
        assert_eq!(replica_node(2, 4, 0), 2);
        assert_eq!(replica_node(2, 4, 1), 6);
        // Node 2 lost: shard 2 routes to its copy on node 6.
        assert_eq!(surviving_replica(2, 4, 2, &[2]), Some(6));
        // Both copies lost: unavailable.
        assert_eq!(surviving_replica(2, 4, 2, &[2, 6]), None);
        // Unreplicated: the shard is its only copy.
        assert_eq!(surviving_replica(2, 4, 1, &[2]), None);
    }

    #[test]
    fn exact_under_partial_node_loss() {
        let source = db(8_000);
        let cluster = ShardedCluster::partition(&source, PartitionScheme::hash_key("k"), 3, 4)
            .unwrap()
            .with_replicas(2);
        assert_eq!(cluster.nodes(), 8);
        let q = Query::count("t", Predicate::True);
        let (expected, _) = run_query(&source, &q).unwrap();
        // Lose one copy of shards 0 and 3: still exact.
        let out = cluster.execute_excluding(&q, &[0, 7]).unwrap();
        assert_eq!(out.result, expected);
    }

    #[test]
    fn losing_all_replicas_is_typed_and_transient() {
        let source = db(1_000);
        let cluster = ShardedCluster::partition(&source, PartitionScheme::HashRows, 0, 4)
            .unwrap()
            .with_replicas(2);
        // Shard 1 lives on nodes 1 and 5.
        assert_eq!(cluster.nodes_of_shard(1), vec![1, 5]);
        let err = cluster
            .execute_excluding(&Query::count("t", Predicate::True), &[1, 5])
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::ShardUnavailable {
                shard: 1,
                replicas: 2
            }
        );
        assert!(err.is_transient());
    }
}
