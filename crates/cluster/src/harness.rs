//! In-process cluster loopback: coordinator + N shards × R replicas on a
//! loopback address of their own, with kill/restart hooks for failover
//! tests and benches.

use std::io;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

use emap_cloud::{CloudServer, RemoteCloudConfig, ServerConfig};
use emap_core::{CloudService, IngestPolicy};
use emap_mdb::{Mdb, SharedMdb};
use emap_search::SearchConfig;
use emap_telemetry::Registry;

use crate::{Coordinator, CoordinatorConfig, Placement, ShardSpec};

/// One replica process-equivalent: its server (absent while killed) and
/// the store it keeps across restarts.
struct ReplicaSlot {
    server: Option<CloudServer>,
    mdb: SharedMdb,
}

/// A whole cluster in one process: every shard replica is a real
/// [`CloudServer`] on a loopback socket, fronted by a real
/// [`Coordinator`] — tests and benches drive the same wire path a
/// deployed cluster would, minus the network.
///
/// # Example
///
/// ```no_run
/// use emap_cluster::{LoopbackCluster, Placement};
/// use emap_mdb::Mdb;
///
/// let mdb = Mdb::new();
/// let cluster = LoopbackCluster::launch(&mdb, Placement::hash(2), 2).unwrap();
/// let addr = cluster.addr();
/// // point a RemoteCloud or an `emap monitor --cloud` at `addr` …
/// cluster.shutdown();
/// ```
pub struct LoopbackCluster {
    coordinator: Option<Coordinator>,
    /// The cluster's own loopback address, `127.<n>.<n>.1`: a killed
    /// replica's freed port can then only be re-bound by its own restart,
    /// never by a server some concurrent test starts — which would answer
    /// in the dead replica's place.
    host: String,
    replicas: Vec<Vec<ReplicaSlot>>,
    search: SearchConfig,
    server_config: ServerConfig,
    policy: IngestPolicy,
}

impl std::fmt::Debug for LoopbackCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoopbackCluster")
            .field("shards", &self.replicas.len())
            .finish_non_exhaustive()
    }
}

/// Upstream client settings tuned for loopback: fast connect failure and
/// a small retry budget, so replica failover in tests takes milliseconds
/// rather than the WAN-calibrated default backoff.
#[must_use]
pub fn loopback_upstream() -> RemoteCloudConfig {
    RemoteCloudConfig {
        connect_timeout: Duration::from_millis(200),
        attempts: 2,
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(20),
        ..RemoteCloudConfig::default()
    }
}

impl LoopbackCluster {
    /// Partitions `mdb` under `placement`, boots `replicas` replicas per
    /// shard plus the coordinator, paper search settings throughout.
    ///
    /// # Errors
    ///
    /// Propagates any bind failure.
    pub fn launch(mdb: &Mdb, placement: Placement, replicas: usize) -> io::Result<Self> {
        let config = CoordinatorConfig {
            upstream: loopback_upstream(),
            ..CoordinatorConfig::default()
        };
        LoopbackCluster::launch_with(
            mdb,
            placement,
            replicas,
            SearchConfig::paper(),
            ServerConfig::default(),
            config,
            Registry::new(),
        )
    }

    /// [`LoopbackCluster::launch`] with every knob exposed: the shards'
    /// search and server configuration, the coordinator configuration,
    /// and the registry the coordinator's `cluster_*` instruments land
    /// in.
    ///
    /// # Errors
    ///
    /// Propagates any bind failure.
    pub fn launch_with(
        mdb: &Mdb,
        placement: Placement,
        replicas: usize,
        search: SearchConfig,
        server_config: ServerConfig,
        config: CoordinatorConfig,
        registry: Registry,
    ) -> io::Result<Self> {
        LoopbackCluster::launch_with_policy(
            mdb,
            placement,
            replicas,
            search,
            server_config,
            config,
            registry,
            IngestPolicy::default(),
        )
    }

    /// [`LoopbackCluster::launch_with`] plus a per-replica ingest policy:
    /// every shard replica runs its [`CloudService`] with `policy`, so the
    /// cluster can be exercised with capacity-bounded (and/or quality
    /// gated) live ingest. Restarted replicas keep the policy — journal
    /// replay goes through the same bounded path the live ingest took.
    ///
    /// # Errors
    ///
    /// Propagates any bind failure.
    #[allow(clippy::too_many_arguments)]
    pub fn launch_with_policy(
        mdb: &Mdb,
        placement: Placement,
        replicas: usize,
        search: SearchConfig,
        server_config: ServerConfig,
        config: CoordinatorConfig,
        registry: Registry,
        policy: IngestPolicy,
    ) -> io::Result<Self> {
        static CLUSTERS: AtomicU32 = AtomicU32::new(1);
        let n = CLUSTERS.fetch_add(1, Ordering::Relaxed);
        let host = format!("127.{}.{}.1", (n >> 8) & 0xff, n & 0xff);
        let replicas = replicas.max(1);
        let mut slots: Vec<Vec<ReplicaSlot>> = Vec::new();
        let mut specs = Vec::new();
        let mut maps = Vec::new();
        for (partition, map) in placement.partition(mdb) {
            let mut shard_slots = Vec::with_capacity(replicas);
            let mut addrs = Vec::with_capacity(replicas);
            for _ in 0..replicas {
                let shared = partition.clone().into_shared();
                let service = CloudService::new(search, shared.clone(), server_config.workers)
                    .with_ingest_policy(policy);
                let server = CloudServer::bind((host.as_str(), 0), service, server_config.clone())?;
                addrs.push(server.local_addr().to_string());
                shard_slots.push(ReplicaSlot {
                    server: Some(server),
                    mdb: shared,
                });
            }
            slots.push(shard_slots);
            specs.push(ShardSpec { replicas: addrs });
            maps.push(map);
        }
        let coordinator = Coordinator::bind_with_telemetry(
            (host.as_str(), 0),
            specs,
            maps,
            placement,
            config,
            registry,
        )?;
        Ok(LoopbackCluster {
            coordinator: Some(coordinator),
            host,
            replicas: slots,
            search,
            server_config,
            policy,
        })
    }

    /// The coordinator's downstream address — what an edge connects to.
    #[must_use]
    pub fn addr(&self) -> String {
        self.coordinator().local_addr().to_string()
    }

    /// The running coordinator.
    ///
    /// # Panics
    ///
    /// Panics after [`LoopbackCluster::shutdown`] (the handle is gone).
    #[must_use]
    pub fn coordinator(&self) -> &Coordinator {
        self.coordinator
            .as_ref()
            .expect("coordinator already shut down")
    }

    /// One replica's direct address, bypassing the coordinator. `None`
    /// while the replica is killed.
    #[must_use]
    pub fn replica_addr(&self, shard: usize, replica: usize) -> Option<String> {
        self.replicas[shard][replica]
            .server
            .as_ref()
            .map(|s| s.local_addr().to_string())
    }

    /// Direct read access to one replica's store, for coherence
    /// assertions (e.g. that a replayed replica converged bitwise on its
    /// sibling). The handle stays valid across kill/restart.
    ///
    /// # Panics
    ///
    /// Panics if `shard`/`replica` is out of range.
    #[must_use]
    pub fn replica_store(&self, shard: usize, replica: usize) -> &SharedMdb {
        &self.replicas[shard][replica].mdb
    }

    /// Kills one replica: its server shuts down and its port closes, so
    /// the coordinator's next call to it fails over. The replica's store
    /// survives for [`LoopbackCluster::restart_replica`].
    ///
    /// # Panics
    ///
    /// Panics if `shard`/`replica` is out of range.
    pub fn kill_replica(&mut self, shard: usize, replica: usize) {
        if let Some(server) = self.replicas[shard][replica].server.take() {
            server.shutdown();
        }
    }

    /// Restarts a killed replica on a fresh port over its surviving
    /// store and re-registers it with the coordinator, which replays any
    /// ingests the replica missed before its next search. No-op if the
    /// replica is already running.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    ///
    /// # Panics
    ///
    /// Panics if `shard`/`replica` is out of range.
    pub fn restart_replica(&mut self, shard: usize, replica: usize) -> io::Result<()> {
        if self.replicas[shard][replica].server.is_some() {
            return Ok(());
        }
        let mdb = self.replicas[shard][replica].mdb.clone();
        let service = CloudService::new(self.search, mdb, self.server_config.workers)
            .with_ingest_policy(self.policy);
        let server =
            CloudServer::bind((self.host.as_str(), 0), service, self.server_config.clone())?;
        let addr = server.local_addr().to_string();
        self.replicas[shard][replica].server = Some(server);
        self.coordinator().rejoin_replica(shard, replica, addr);
        Ok(())
    }

    /// Stops the coordinator, then every running replica.
    pub fn shutdown(mut self) {
        if let Some(c) = self.coordinator.take() {
            c.shutdown();
        }
        for shard in &mut self.replicas {
            for slot in shard {
                if let Some(server) = slot.server.take() {
                    server.shutdown();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emap_wire::{read_frame, write_frame, Message, DEFAULT_MAX_PAYLOAD};

    /// A coordinator in front of reconnecting edges holds nothing per
    /// connection once the connection is gone: after 200 reconnects its
    /// reactor's connection-state gauges all return to zero.
    #[test]
    fn connections_leave_nothing_behind_across_reconnects() {
        let cluster = LoopbackCluster::launch(&Mdb::new(), Placement::hash(2), 1).expect("launch");
        let addr = cluster.addr();
        let telemetry = cluster.coordinator().telemetry();
        let gauges = ["reading", "dispatched", "writing"]
            .map(|state| telemetry.gauge(&format!("reactor_conns_{state}")));
        for _ in 0..200 {
            let mut conn = std::net::TcpStream::connect(&addr).expect("connect");
            write_frame(&mut conn, &Message::Ping).expect("ping");
            assert_eq!(
                read_frame(&mut conn, DEFAULT_MAX_PAYLOAD).expect("pong"),
                Message::Pong { total_sets: 0 }
            );
            assert!(gauges.iter().map(|g| g.get()).sum::<i64>() >= 1);
        }
        // The loop reaps a closed connection on its next readiness pass.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while gauges.iter().any(|g| g.get() != 0) && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(gauges.map(|g| g.get()), [0, 0, 0]);
        assert_eq!(telemetry.counter("cloud_connections_total").get(), 200);
        cluster.shutdown();
    }
}
