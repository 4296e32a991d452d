//! Channel configuration.

use spider_crypto::{CostModel, KeyId};
use spider_types::SimTime;

/// How a channel achieves BFT delivery (§4), together with the mode's
/// performance lever.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum ChannelMode {
    /// IRMC-RC: receivers collect `fs + 1` matching submissions (Fig 18).
    /// Single slots travel as per-slot signed `Send`s from every sender.
    /// For ranges, one deterministically-rotated carrier ships content +
    /// signature while the other senders ship a MAC-authenticated
    /// `RangeVouch` (subchannel, first, count, Merkle root), so content
    /// crosses the wire and gets hashed at most once on the happy path.
    ReliableCast {
        /// Must be `true`: the digest-only range fan-in is the only RC
        /// range path ([`IrmcConfig::new`] rejects `false`). The field
        /// stays only because the `perfbench` package spells it out; the
        /// next change to the benchmark removes it.
        dedup: bool,
    },
    /// IRMC-SC: senders exchange signature shares locally; a collector
    /// ships one certificate per receiver (Figs 19–20).
    SenderCast {
        /// §A.9: ship range content to receivers before certification
        /// completes, overlapping the intra-region share exchange with
        /// WAN shipping. `false` ships content together with the
        /// certificate (ship-after-bundle).
        overlap: bool,
    },
}

impl ChannelMode {
    /// Rejects the retired all-ship RC range fan-in.
    fn validated(self) -> Self {
        assert!(
            !matches!(self, ChannelMode::ReliableCast { dedup: false }),
            "ReliableCast {{ dedup: false }} is no longer supported"
        );
        self
    }
}

impl std::fmt::Display for ChannelMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChannelMode::ReliableCast { .. } => write!(f, "IRMC-RC"),
            ChannelMode::SenderCast { .. } => write!(f, "IRMC-SC"),
        }
    }
}

/// Static parameters of one IRMC.
#[derive(Debug, Clone)]
pub struct IrmcConfig {
    /// Delivery mode (RC or SC, plus its performance lever).
    pub mode: ChannelMode,
    /// Number of sender endpoints.
    pub n_senders: usize,
    /// Byzantine senders to tolerate (`fs`): delivery needs `fs + 1`
    /// matching submissions.
    pub fs: usize,
    /// Number of receiver endpoints.
    pub n_receivers: usize,
    /// Byzantine receivers to tolerate (`fr`): sender windows follow the
    /// `fr + 1`-highest receiver request.
    pub fr: usize,
    /// Per-subchannel capacity (max positions concurrently in transit).
    pub capacity: u64,
    /// CPU cost model.
    pub cost: CostModel,
    /// IRMC-SC: how often senders announce certificate progress.
    pub progress_interval: SimTime,
    /// IRMC-SC: how long a receiver waits for a lagging collector before
    /// switching to another sender.
    pub collector_timeout: SimTime,
    /// IRMC-RC dedup: how long a receiver waits for a vouched range's
    /// content before (re)fetching copies from the vouchers. Unlike
    /// [`IrmcConfig::collector_timeout`], expiry is not a fault
    /// accusation — senders routinely cut ranges at diverged boundaries
    /// under replica-local back-pressure, and the refetch is how the
    /// receiver converges them — so this is RTT-scale, not
    /// suspicion-scale.
    pub refetch_delay: SimTime,
    /// Maximum slots per range certificate
    /// ([`crate::SenderEndpoint::send_batch`] chunks longer submissions).
    /// 1 disables range certification entirely (always the
    /// per-slot wire messages).
    pub max_range: usize,
    /// Optional linger for [`crate::SenderEndpoint::send_buffered`]:
    /// contiguous single-slot sends accumulate into a pending range for at
    /// most this long (mirrors consensus `batch_delay`). Zero disables
    /// buffering — plain `send` never lingers either way.
    pub range_linger: SimTime,
    /// Signing identity of each sender endpoint. Defaults to
    /// `KeyId(1000 + i)`; deployments with multiple channels override this
    /// with the replicas' node identities via [`IrmcConfig::with_keys`].
    pub sender_keys: Vec<KeyId>,
    /// Signing identity of each receiver endpoint (default
    /// `KeyId(2000 + j)`).
    pub receiver_keys: Vec<KeyId>,
}

impl IrmcConfig {
    /// Creates a configuration with default cost model and SC timing.
    ///
    /// # Panics
    ///
    /// Panics unless `n_senders > fs`, `n_receivers > fr`, and
    /// `capacity >= 1`, or if `mode` is `ReliableCast { dedup: false }`.
    pub fn new(
        mode: ChannelMode,
        n_senders: usize,
        fs: usize,
        n_receivers: usize,
        fr: usize,
        capacity: u64,
    ) -> Self {
        assert!(n_senders > fs, "need more senders than faults");
        assert!(n_receivers > fr, "need more receivers than faults");
        assert!(capacity >= 1, "capacity must be at least 1");
        IrmcConfig {
            mode: mode.validated(),
            n_senders,
            fs,
            n_receivers,
            fr,
            capacity,
            cost: CostModel::default(),
            progress_interval: SimTime::from_millis(20),
            collector_timeout: SimTime::from_millis(500),
            refetch_delay: SimTime::from_millis(125),
            max_range: 32,
            range_linger: SimTime::ZERO,
            sender_keys: (0..n_senders).map(|i| KeyId(1000 + i as u32)).collect(),
            receiver_keys: (0..n_receivers).map(|j| KeyId(2000 + j as u32)).collect(),
        }
    }

    /// Replaces the endpoint identities (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if the vectors do not match the configured group sizes.
    #[must_use]
    pub fn with_keys(mut self, sender_keys: Vec<KeyId>, receiver_keys: Vec<KeyId>) -> Self {
        assert_eq!(sender_keys.len(), self.n_senders);
        assert_eq!(receiver_keys.len(), self.n_receivers);
        self.sender_keys = sender_keys;
        self.receiver_keys = receiver_keys;
        self
    }

    /// Replaces the cost model (builder-style).
    #[must_use]
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Replaces the per-subchannel capacity (builder-style).
    #[must_use]
    pub fn with_capacity(mut self, capacity: u64) -> Self {
        assert!(capacity >= 1);
        self.capacity = capacity;
        self
    }

    /// Replaces the range-certification knobs (builder-style): maximum
    /// slots per range certificate and the single-send linger
    /// (see [`IrmcConfig::max_range`] / [`IrmcConfig::range_linger`]).
    ///
    /// # Panics
    ///
    /// Panics if `max_range` is zero.
    #[must_use]
    pub fn with_range(mut self, max_range: usize, range_linger: SimTime) -> Self {
        assert!(max_range >= 1, "max_range must be at least 1");
        self.max_range = max_range;
        self.range_linger = range_linger;
        self
    }

    /// Replaces the delivery mode (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if `mode` is `ReliableCast { dedup: false }`.
    #[must_use]
    pub fn with_mode(mut self, mode: ChannelMode) -> Self {
        self.mode = mode.validated();
        self
    }

    /// Whether the SC §A.9 content/share-exchange overlap is active.
    pub fn sc_overlap(&self) -> bool {
        matches!(self.mode, ChannelMode::SenderCast { overlap: true })
    }

    /// Replaces the SC collector supervision timing (builder-style).
    #[must_use]
    pub fn with_sc_timing(
        mut self,
        progress_interval: SimTime,
        collector_timeout: SimTime,
    ) -> Self {
        self.progress_interval = progress_interval;
        self.collector_timeout = collector_timeout;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RC: ChannelMode = ChannelMode::ReliableCast { dedup: true };
    const SC: ChannelMode = ChannelMode::SenderCast { overlap: true };

    #[test]
    fn valid_config_builds() {
        let c = IrmcConfig::new(RC, 3, 1, 4, 1, 2);
        assert_eq!(c.n_senders, 3);
        assert_eq!(c.capacity, 2);
    }

    #[test]
    #[should_panic(expected = "more senders than faults")]
    fn too_few_senders_rejected() {
        let _ = IrmcConfig::new(RC, 1, 1, 3, 1, 2);
    }

    #[test]
    #[should_panic(expected = "dedup: false")]
    fn all_ship_rc_range_fan_in_rejected() {
        let _ = IrmcConfig::new(ChannelMode::ReliableCast { dedup: false }, 3, 1, 3, 1, 2);
    }

    #[test]
    #[should_panic(expected = "dedup: false")]
    fn all_ship_rc_range_fan_in_rejected_by_builder() {
        let _ = IrmcConfig::new(SC, 3, 1, 3, 1, 2)
            .with_mode(ChannelMode::ReliableCast { dedup: false });
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(RC.to_string(), "IRMC-RC");
        assert_eq!(SC.to_string(), "IRMC-SC");
        assert_eq!(ChannelMode::SenderCast { overlap: false }.to_string(), "IRMC-SC");
    }

    #[test]
    fn mode_builder_replaces_flag_sprawl() {
        let c = IrmcConfig::new(SC, 3, 1, 3, 1, 2).with_mode(RC);
        assert_eq!(c.mode, RC);
        assert!(!c.sc_overlap(), "overlap is an SC-only lever");
        let sc = IrmcConfig::new(RC, 3, 1, 3, 1, 2)
            .with_mode(ChannelMode::SenderCast { overlap: false });
        assert!(!sc.sc_overlap());
        assert!(IrmcConfig::new(SC, 3, 1, 3, 1, 2).sc_overlap());
    }
}
