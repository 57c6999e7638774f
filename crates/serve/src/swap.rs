//! Hot model swap: publish refreshed snapshots while serving continues.
//!
//! The single primitive here, [`SnapshotCell`], decouples the publication
//! rate (a trainer committing a new [`InferenceSnapshot`] every iteration)
//! from the serving rate (workers loading the current snapshot once per
//! job): readers never block publishers and publishers never wait for
//! readers.
//!
//! The version stamp is also what makes *sharded* hot swap safe: a
//! [`ShardRouter`](crate::ShardRouter) names the epoch it reads on every
//! partial request, and each cell keeps the snapshot its last swap replaced
//! ([`SnapshotCell::load_at`]), so a request that straddles the fleet-wide
//! swap is answered from one epoch on every shard instead of merged across
//! model versions.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::snapshot::InferenceSnapshot;

/// A publication point for [`InferenceSnapshot`]s.
///
/// Readers take an `Arc` clone of the current snapshot and use it for as
/// long as they like; [`SnapshotCell::publish_with_version`] swaps in a
/// replacement without waiting for them. In-flight requests keep the
/// snapshot they started with (the old `Arc` stays alive until its last
/// reader drops it), so a running trainer can publish between iterations
/// while serving continues uninterrupted. A load takes a `Mutex` only long
/// enough to clone an `Arc`.
#[derive(Debug)]
pub struct SnapshotCell {
    /// `(current, previous)`: the served snapshot, and the one its last swap
    /// replaced until [`SnapshotCell::release_previous`].
    slots: Mutex<Slots>,
    /// Version of the served snapshot; starts at 1 for the initial one and
    /// only moves forward.
    version: AtomicU64,
}

type Slots = (Arc<InferenceSnapshot>, Option<Arc<InferenceSnapshot>>);

impl SnapshotCell {
    /// Creates a cell serving `initial` as version 1.
    pub fn new(mut initial: InferenceSnapshot) -> Self {
        initial.set_version(1);
        SnapshotCell {
            slots: Mutex::new((Arc::new(initial), None)),
            version: AtomicU64::new(1),
        }
    }

    /// Atomically replaces the served snapshot with `snapshot` as
    /// `version` and returns it. The version is the *fleet's* epoch, not a
    /// local counter (a restarted shard may be several epochs behind). It
    /// must be greater than the current one; the caller serialises
    /// publications (see `TopicServer`'s publish lock). Readers observe the
    /// swap on their next load; the replaced snapshot is kept for
    /// [`SnapshotCell::load_at`].
    pub fn publish_with_version(&self, mut snapshot: InferenceSnapshot, version: u64) -> u64 {
        let (current, previous) = &mut *self.slots();
        let latest = self.version.load(Ordering::Acquire);
        debug_assert!(
            version > latest,
            "a publication must move the version forward"
        );
        snapshot.set_version(version);
        *previous = Some(std::mem::replace(current, Arc::new(snapshot)));
        // Publish the version only after the slot holds the new snapshot, so
        // a reader of the version never sees it ahead of the data.
        self.version.store(version, Ordering::Release);
        version
    }

    /// The currently served snapshot.
    pub fn load(&self) -> Arc<InferenceSnapshot> {
        Arc::clone(&self.slots().0)
    }

    /// The current or the previous snapshot, whichever carries `epoch`;
    /// `None` when the cell holds neither.
    pub fn load_at(&self, epoch: u64) -> Option<Arc<InferenceSnapshot>> {
        let (current, previous) = &*self.slots();
        std::iter::once(current)
            .chain(previous)
            .find(|s| s.version() == epoch)
            .cloned()
    }

    /// Drops the snapshot the last swap replaced, so the next swap's
    /// replacement is the only other one alive.
    pub fn release_previous(&self) {
        // Taken under the lock, freed after it.
        let _previous = self.slots().1.take();
    }

    /// The critical sections only ever swap `Arc`s, so a poisoned lock
    /// cannot hold a half-written snapshot: recover and continue.
    fn slots(&self) -> std::sync::MutexGuard<'_, Slots> {
        self.slots.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The current publication version (1-based).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotSampler;
    use saber_core::model::LdaModel;

    fn tiny_snapshot() -> InferenceSnapshot {
        let mut model = LdaModel::new(4, 2, 0.1, 0.01).unwrap();
        model.word_topic_mut()[(0, 0)] = 3;
        model.refresh_probabilities();
        InferenceSnapshot::from_model(&model, SnapshotSampler::WaryTree)
    }

    #[test]
    fn publish_bumps_version_and_swaps() {
        let cell = SnapshotCell::new(tiny_snapshot());
        assert_eq!(cell.version(), 1);
        assert_eq!(cell.load().version(), 1);
        let v2 = cell.publish_with_version(tiny_snapshot(), 2);
        assert_eq!(v2, 2);
        assert_eq!(cell.load().version(), 2);
    }

    #[test]
    fn old_readers_keep_their_snapshot_across_a_swap() {
        let cell = SnapshotCell::new(tiny_snapshot());
        let held = cell.load();
        cell.publish_with_version(tiny_snapshot(), 2);
        assert_eq!(held.version(), 1, "in-flight reader must keep its snapshot");
        assert_eq!(cell.load().version(), 2);
    }

    #[test]
    fn publish_with_version_lands_on_the_requested_epoch() {
        let cell = SnapshotCell::new(tiny_snapshot());
        assert_eq!(cell.publish_with_version(tiny_snapshot(), 7), 7);
        assert_eq!(cell.version(), 7);
        assert_eq!(cell.load().version(), 7);
        // The initial snapshot is the one a swap replaced.
        assert_eq!(cell.load_at(1).map(|s| s.version()), Some(1));
    }

    #[test]
    fn load_at_finds_the_current_or_the_replaced_snapshot_until_released() {
        let cell = SnapshotCell::new(tiny_snapshot());
        assert_eq!(cell.load_at(1).map(|s| s.version()), Some(1));
        assert!(cell.load_at(2).is_none());
        cell.publish_with_version(tiny_snapshot(), 4);
        assert_eq!(cell.load_at(4).map(|s| s.version()), Some(4));
        assert_eq!(
            cell.load_at(1).map(|s| s.version()),
            Some(1),
            "the replaced one"
        );
        cell.release_previous();
        assert!(cell.load_at(1).is_none());
        assert_eq!(cell.load_at(4).map(|s| s.version()), Some(4));
        // A swap keeps only the snapshot it replaced.
        cell.publish_with_version(tiny_snapshot(), 5);
        assert_eq!(cell.load_at(4).map(|s| s.version()), Some(4));
        assert!(cell.load_at(1).is_none());
    }

    #[test]
    fn concurrent_publish_and_load() {
        let cell = Arc::new(SnapshotCell::new(tiny_snapshot()));
        let publisher = {
            let cell = Arc::clone(&cell);
            std::thread::spawn(move || {
                for version in 2..=51 {
                    cell.publish_with_version(tiny_snapshot(), version);
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cell = Arc::clone(&cell);
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    for _ in 0..200 {
                        let v = cell.load().version();
                        assert!(v >= last, "version went backwards: {last} -> {v}");
                        last = v;
                    }
                })
            })
            .collect();
        publisher.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(cell.version(), 51);
    }
}
