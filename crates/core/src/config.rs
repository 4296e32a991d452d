//! Deployment-wide configuration.

use spider_consensus::PbftConfig;
use spider_crypto::CostModel;
use spider_irmc::ChannelMode;
use spider_types::SimTime;

/// Configuration of a Spider deployment.
///
/// Field constraints follow the paper: the checkpoint interval of a group
/// must stay below the capacity of its input IRMC (§3.4 — liveness), and
/// the agreement window must cover at least one checkpoint interval
/// (Fig 17, `AG-WIN >= ka`).
#[derive(Debug, Clone)]
pub struct SpiderConfig {
    /// Faults tolerated by the agreement group (group size `3·fa + 1`).
    pub fa: usize,
    /// Faults tolerated by each execution group (group size `2·fe + 1`).
    pub fe: usize,
    /// Agreement checkpoint interval `ka`.
    pub ka: u64,
    /// Execution checkpoint interval `ke`.
    pub ke: u64,
    /// Agreement window size (`AG-WIN`): how far ordering may run ahead of
    /// the last stable agreement checkpoint.
    pub ag_win: u64,
    /// Number of trailing execution groups the agreement group may skip
    /// when inserting `Execute`s (§3.5, `0 <= z < ne`).
    pub z: usize,
    /// Capacity of each client's request subchannel (Fig 16 uses 2).
    pub request_capacity: u64,
    /// Capacity of the commit subchannel (must be `>= ke`).
    pub commit_capacity: u64,
    /// IRMC implementation for request channels. Requests cross them one
    /// slot at a time, so only the RC-vs-SC choice matters here.
    pub request_mode: ChannelMode,
    /// IRMC implementation for commit channels, with the §A.9 overlap
    /// knob when it is IRMC-SC.
    pub commit_mode: ChannelMode,
    /// Client retry interval (Fig 15 `t_retry`).
    pub client_retry: SimTime,
    /// Retransmissions before a client assumes its execution group is
    /// unavailable (more than `fe` faulty members) and temporarily
    /// switches to another group (§3.1).
    pub group_failover_retries: u32,
    /// How many times a weakly consistent read is retried before being
    /// escalated to a strongly consistent read (§3.3).
    pub weak_read_retries: u32,
    /// View-change timeout of the agreement group's consensus protocol.
    pub view_change_timeout: SimTime,
    /// Maximum consensus batch size.
    pub max_batch: usize,
    /// Maximum payload wire bytes per consensus batch.
    pub batch_max_bytes: usize,
    /// Maximum time a request may linger in the consensus leader's queue
    /// before it is proposed. Zero = propose immediately (legacy greedy).
    pub batch_delay: SimTime,
    /// Rate-adaptive consensus batch sizing: the leader targets the
    /// expected number of arrivals within one `batch_delay` window
    /// instead of always waiting for `max_batch`. Requires a non-zero
    /// `batch_delay`.
    pub adaptive_batching: bool,
    /// Consensus pipelining window: proposed-but-undelivered instances
    /// the leader keeps in flight concurrently.
    pub pipeline_depth: usize,
    /// Maximum slots per commit-channel range certificate: a batch of
    /// consecutively ordered requests is certified with **one** RSA
    /// signature over the Merkle root of its per-slot digests instead of
    /// one signature per slot. 1 disables range certification (per-slot
    /// wire messages only).
    pub commit_max_range: usize,
    /// Optional commit-channel range linger (mirrors `batch_delay`):
    /// consecutive single-slot commit sends accumulate into a pending
    /// range for at most this long before shipping. Zero = ship
    /// immediately at consensus batch boundaries (the default; batches
    /// already amortize well).
    pub commit_range_linger: SimTime,
    /// CPU cost model applied by all nodes.
    pub cost: CostModel,
    /// Seed for the shared simulated PKI.
    pub key_seed: u64,
    /// End-to-end request tracing: when set, the deployment harness
    /// enables the simulator's observability recorder so replicas record
    /// request-scoped phase spans, per-node metrics, and CPU attribution.
    /// Off by default — with tracing disabled every record call is a
    /// single branch.
    pub tracing: bool,
}

impl Default for SpiderConfig {
    fn default() -> Self {
        SpiderConfig {
            fa: 1,
            fe: 1,
            ka: 32,
            ke: 32,
            ag_win: 64,
            z: 0,
            request_capacity: 2,
            commit_capacity: 128,
            request_mode: ChannelMode::ReliableCast { dedup: true },
            commit_mode: ChannelMode::ReliableCast { dedup: true },
            client_retry: SimTime::from_millis(2_000),
            group_failover_retries: 3,
            weak_read_retries: 2,
            view_change_timeout: SimTime::from_millis(500),
            max_batch: 8,
            batch_max_bytes: 1 << 20,
            batch_delay: SimTime::ZERO,
            adaptive_batching: false,
            pipeline_depth: 32,
            commit_max_range: 32,
            commit_range_linger: SimTime::ZERO,
            cost: CostModel::default(),
            key_seed: 7,
            tracing: false,
        }
    }
}

impl SpiderConfig {
    /// Validates the liveness-critical relations between parameters.
    ///
    /// # Panics
    ///
    /// Panics if `ke > commit_capacity` (execution liveness, §3.4), if
    /// `ag_win < ka` (Fig 17), or if bounds are degenerate.
    pub fn validate(&self) {
        assert!(self.fa >= 1 && self.fe >= 1, "need at least f = 1");
        assert!(
            self.commit_capacity >= self.ke,
            "commit capacity must be >= ke for liveness (§3.4)"
        );
        assert!(self.ag_win >= self.ka, "AG-WIN must be >= ka (Fig 17)");
        assert!(self.request_capacity >= 1);
        assert!(self.max_batch >= 1 && self.batch_max_bytes >= 1 && self.pipeline_depth >= 1);
        assert!(
            !self.adaptive_batching || self.batch_delay > SimTime::ZERO,
            "adaptive batching needs a non-zero batch_delay (the linger cap it adapts within)"
        );
        assert!(self.commit_max_range >= 1, "commit_max_range must be at least 1");
    }

    /// Size of the agreement group.
    pub fn agreement_size(&self) -> usize {
        3 * self.fa + 1
    }

    /// Size of each execution group.
    pub fn execution_size(&self) -> usize {
        2 * self.fe + 1
    }

    /// Sets the cost model (builder-style).
    #[must_use]
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Sets fault thresholds (builder-style).
    #[must_use]
    pub fn with_faults(mut self, fa: usize, fe: usize) -> Self {
        self.fa = fa;
        self.fe = fe;
        self
    }

    /// Enables rate-adaptive consensus batching with the given linger cap
    /// and a larger batch-size ceiling for the adaptive policy to grow
    /// into (builder-style).
    #[must_use]
    pub fn with_adaptive_batching(mut self, delay: SimTime, max_batch: usize) -> Self {
        assert!(delay > SimTime::ZERO, "adaptive batching needs a non-zero linger cap");
        self.adaptive_batching = true;
        self.batch_delay = delay;
        self.max_batch = max_batch;
        self
    }

    /// Enables end-to-end request tracing (builder-style).
    #[must_use]
    pub fn with_tracing(mut self) -> Self {
        self.tracing = true;
        self
    }

    /// Sets the commit-channel range certification knobs (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if `max_range` is zero.
    #[must_use]
    pub fn with_commit_range(mut self, max_range: usize, linger: SimTime) -> Self {
        assert!(max_range >= 1, "commit_max_range must be at least 1");
        self.commit_max_range = max_range;
        self.commit_range_linger = linger;
        self
    }

    /// Applies every consensus tuning knob of this deployment config to a
    /// PBFT configuration. Used by the agreement group and by all PBFT
    /// baselines so scenario sweeps exercise identical batching policies.
    #[must_use]
    pub fn tune_pbft(&self, pbft: PbftConfig) -> PbftConfig {
        pbft.with_cost(self.cost)
            .with_view_change_timeout(self.view_change_timeout)
            .with_max_batch(self.max_batch)
            .with_batch_max_bytes(self.batch_max_bytes)
            .with_batch_delay(self.batch_delay)
            .with_adaptive_batching(self.adaptive_batching)
            .with_pipeline_depth(self.pipeline_depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        SpiderConfig::default().validate();
        assert_eq!(SpiderConfig::default().agreement_size(), 4);
        assert_eq!(SpiderConfig::default().execution_size(), 3);
    }

    #[test]
    fn f2_sizes() {
        let c = SpiderConfig::default().with_faults(2, 2);
        assert_eq!(c.agreement_size(), 7);
        assert_eq!(c.execution_size(), 5);
    }

    #[test]
    fn tune_pbft_carries_batching_knobs() {
        let c = SpiderConfig::default().with_adaptive_batching(SimTime::from_millis(3), 64);
        c.validate();
        let p = c.tune_pbft(PbftConfig::new(c.fa));
        assert_eq!(p.max_batch, 64);
        assert_eq!(p.batch_delay, SimTime::from_millis(3));
        assert!(p.adaptive_batching);
        assert_eq!(p.pipeline_depth, c.pipeline_depth);
        assert_eq!(p.batch_max_bytes, c.batch_max_bytes);
    }

    #[test]
    #[should_panic(expected = "non-zero batch_delay")]
    fn adaptive_batching_without_linger_rejected() {
        let c = SpiderConfig { adaptive_batching: true, ..SpiderConfig::default() };
        c.validate();
    }

    #[test]
    fn commit_range_knobs_roundtrip() {
        let c = SpiderConfig::default().with_commit_range(64, SimTime::from_millis(2));
        c.validate();
        assert_eq!(c.commit_max_range, 64);
        assert_eq!(c.commit_range_linger, SimTime::from_millis(2));
        assert_eq!(
            c.commit_mode,
            ChannelMode::ReliableCast { dedup: true },
            "digest-only fan-in is on by default"
        );
    }

    #[test]
    #[should_panic(expected = "commit_max_range")]
    fn zero_commit_range_rejected() {
        let c = SpiderConfig { commit_max_range: 0, ..SpiderConfig::default() };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "commit capacity")]
    fn checkpoint_interval_above_capacity_rejected() {
        let mut c = SpiderConfig::default();
        c.ke = c.commit_capacity + 1;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "AG-WIN")]
    fn agreement_window_below_ka_rejected() {
        let mut c = SpiderConfig::default();
        c.ag_win = c.ka - 1;
        c.validate();
    }
}
