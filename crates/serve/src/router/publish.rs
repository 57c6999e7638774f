//! The router's half of epoch publication: one two-phase body, and the
//! [`PipelineStats`] it records. The shard's half is
//! [`TopicServer::stage`](crate::TopicServer::stage), `stage_delta` and
//! `commit`, behind any [`ShardTransport`]. `tests/publication_schedules.rs`
//! runs both against every schedule of up to two transport faults.

use std::sync::atomic::Ordering;
use std::time::Instant;

use saber_core::model::LdaModel;
use saber_core::model_io::{delta_encoded_bytes, snapshot_encoded_bytes};

use super::{ReplicaSet, ShardRouter};
use crate::snapshot::InferenceSnapshot;
use crate::transport::ShardTransport;
use crate::ServeError;

/// Counters of the continuous-publication path, surfaced under
/// `"pipeline"` in `GET /stats` and as `saber_pipeline_*` in `/metrics`.
/// Row counts are per *staging operation* (one per replica of each shard
/// range), so they measure what actually crossed the publish seam:
/// `rows_shipped / rows_total` is the fraction of `B̂` rows a delta-first
/// publisher avoided re-sending. Only a successful publication moves them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Epochs successfully published through this router (full or delta).
    pub epochs_published: u64,
    /// Publications that staged **every** replica via a `SABRDELTA` (no
    /// full-snapshot fallback anywhere in the fleet).
    pub delta_epochs: u64,
    /// `B̂` rows actually shipped across all staging operations.
    pub rows_shipped: u64,
    /// `B̂` rows a full publication would have shipped for the same
    /// staging operations.
    pub rows_total: u64,
    /// Fallbacks to a full `SABRSNAP`: one per stale-base publication,
    /// plus one per replica that declined (or priced out) its delta.
    pub fallbacks: u64,
    /// Wall-clock µs of the most recent publication (observe + stage +
    /// commit).
    pub last_publish_micros: u64,
    /// Cumulative publication wall-clock µs.
    pub publish_micros_total: u64,
}

impl<T: ShardTransport> ShardRouter<T> {
    /// Publishes a new full snapshot to the whole fleet, all-or-nothing:
    /// every shard *stages* its epoch-tagged slice first, and only when
    /// every stage succeeded does the commit loop swap them — so a
    /// mid-publication failure leaves the fleet serving the old epoch
    /// (stage failure) or retryable per the idempotent commit (commit
    /// failure). Reads stay pinned to the old epoch until the last commit
    /// landed, so no *answer* ever mixes two. Returns the new epoch.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] when the snapshot's shape
    /// (vocabulary or topic count) does not match the fleet's; propagates
    /// staging and commit failures (a commit failure can leave shards on
    /// mixed epochs — reads keep the old one, which every shard still
    /// holds — and the next publication restarts them all at a fresh one).
    pub fn publish(&self, snapshot: InferenceSnapshot) -> Result<u64, ServeError> {
        self.publish_impl(&snapshot, None)
    }

    /// [`ShardRouter::publish`] with the incremental fast path: the caller
    /// names the `B̂` rows that changed (global word ids; sorted and
    /// deduplicated here, so callers need not pre-canonicalise) and the
    /// epoch the fleet should currently serve (`base_epoch`). Each replica
    /// is first offered a `SABRDELTA` of its range's changed rows
    /// ([`ShardTransport::prepare_publish_delta`]); a replica that
    /// declines, a range whose delta would not be smaller than its full
    /// slice, or an observed fleet epoch different from `base_epoch` falls
    /// back to the full-slice staging — both paths stage bit-identical
    /// snapshots, so answers never depend on which was taken. The same
    /// all-or-nothing two-phase commit applies. Returns the new epoch.
    ///
    /// # Errors
    ///
    /// As [`ShardRouter::publish`].
    pub fn publish_incremental(
        &self,
        snapshot: InferenceSnapshot,
        changed_rows: &[u32],
        base_epoch: u64,
    ) -> Result<u64, ServeError> {
        // The SABRDELTA codec requires strictly increasing row ids;
        // enforce the canonical encoding once at this seam so every
        // transport sees the same bytes regardless of caller discipline
        // (an unsorted list would hard-fail remote staging while local
        // staging shrugged it off).
        if changed_rows
            .iter()
            .zip(changed_rows.iter().skip(1))
            .all(|(a, b)| a < b)
        {
            self.publish_impl(&snapshot, Some((changed_rows, base_epoch)))
        } else {
            let mut rows = changed_rows.to_vec();
            rows.sort_unstable();
            rows.dedup();
            self.publish_impl(&snapshot, Some((&rows, base_epoch)))
        }
    }

    /// Exports and publishes the current state of `model`; the sharded
    /// counterpart of [`TopicServer::publish_model`](crate::TopicServer::publish_model).
    ///
    /// # Errors
    ///
    /// As [`ShardRouter::publish`].
    pub fn publish_model(&self, model: &LdaModel) -> Result<u64, ServeError> {
        self.publish(InferenceSnapshot::from_model(model, self.config.sampler))
    }

    /// The shared two-phase publication, with the optional delta fast
    /// path. Its [`PipelineStats`] are recorded once, on success.
    fn publish_impl(
        &self,
        snapshot: &InferenceSnapshot,
        delta: Option<(&[u32], u64)>,
    ) -> Result<u64, ServeError> {
        if snapshot.vocab_size() != self.plan.vocab_size() || snapshot.n_topics() != self.n_topics {
            return Err(ServeError::InvalidConfig {
                detail: format!(
                    "published snapshot is {}x{} but the fleet serves {}x{}",
                    snapshot.vocab_size(),
                    snapshot.n_topics(),
                    self.plan.vocab_size(),
                    self.n_topics
                ),
            });
        }
        let started = Instant::now();
        let _guard = self.publish_lock.lock().unwrap_or_else(|e| e.into_inner());
        // Staging releases the epoch before the served one: drain reads.
        drop(self.reads.write().unwrap_or_else(|e| e.into_inner()));
        let observed = self.observe_fleet_epoch()?;
        let epoch = observed + 1;
        let k = self.n_topics as u64;
        let (mut rows_shipped, mut rows_total, mut fallbacks) = (0u64, 0u64, 0u64);
        // An epoch counts as delta-published only when *every* staging
        // operation went through the delta path.
        let mut all_delta = delta.is_some();
        let changed = match delta {
            Some((rows, base)) if base == observed => Some(rows),
            Some(_) => {
                // The caller's idea of the served epoch is stale; a delta
                // against the wrong base would be rejected by every shard,
                // so publish full slices in one pass instead.
                fallbacks += 1;
                all_delta = false;
                None
            }
            None => None,
        };
        // Stage every replica of every shard before committing any:
        // slicing and (for remote fleets) uploading happen outside the
        // swap window, so the commit loop is as tight as possible.
        for (set, range) in self.shards.iter().zip(self.plan.ranges()) {
            let range_len = u64::from(range.end - range.start);
            let payload = changed.and_then(|rows| {
                let n = rows.iter().filter(|&&v| range.contains(&v)).count() as u64;
                // A delta touching most of the range costs more than the
                // slice it replaces (row ids ride along); ship full then.
                (delta_encoded_bytes(n, k)? < snapshot_encoded_bytes(range_len, k)?)
                    .then(|| snapshot.shard_delta(range.clone(), rows, observed, epoch))
            });
            for transport in set.replicas() {
                let staged_via_delta = match &payload {
                    Some(p) => transport.prepare_publish_delta(p)?,
                    None => false,
                };
                rows_total += range_len;
                if staged_via_delta {
                    rows_shipped += payload.as_ref().map_or(0, |p| p.rows.len() as u64);
                } else {
                    transport.prepare_publish(snapshot.shard(range.clone()), epoch)?;
                    rows_shipped += range_len;
                    if changed.is_some() {
                        fallbacks += 1;
                        all_delta = false;
                    }
                }
            }
        }
        let mut committed = 0;
        for transport in self.shards.iter().flat_map(ReplicaSet::replicas) {
            committed = transport.commit_publish(epoch)?;
        }
        self.last_epoch.fetch_max(committed, Ordering::AcqRel);
        let micros = started.elapsed().as_micros() as u64;
        let mut stats = self.pipeline.lock().unwrap_or_else(|e| e.into_inner());
        let stats = stats.get_or_insert_with(PipelineStats::default);
        stats.epochs_published += 1;
        stats.delta_epochs += u64::from(all_delta);
        stats.rows_shipped += rows_shipped;
        stats.rows_total += rows_total;
        stats.fallbacks += fallbacks;
        stats.last_publish_micros = micros;
        stats.publish_micros_total += micros;
        Ok(committed)
    }

    /// Live-probes the fleet's epoch through shard 0's replicas
    /// ([`ReplicaSet::ask`]: the first that answers is authoritative), for
    /// a publication's base and to re-pin reads after a refusal.
    /// Commits run in replica order, so shard 0's replica 0 commits first
    /// and, when it answers, holds the highest epoch in the fleet.
    pub(super) fn observe_fleet_epoch(&self) -> Result<u64, ServeError> {
        match self.shards.first() {
            Some(set) => set.ask(ShardTransport::observe_epoch),
            None => Err(ServeError::Closed),
        }
    }
}
