//! Hot model swap: publish refreshed snapshots while serving continues.
//!
//! [`SnapshotCell`] is the one record of a shard's epochs: the snapshot
//! staged for the next commit, the live one and the one the last commit
//! replaced, each paired once with its epoch. It decouples the publication
//! rate (a trainer committing a new [`InferenceSnapshot`] every iteration)
//! from the serving rate (workers loading the live snapshot once per job):
//! readers never block publishers and publishers never wait for readers.
//!
//! The replaced snapshot is also what makes *sharded* hot swap safe: a
//! [`ShardRouter`](crate::ShardRouter) names the epoch it reads on every
//! partial request, and [`SnapshotCell::load_at`] answers it from the live
//! or the replaced snapshot until the next stage, so a request that
//! straddles the fleet-wide swap is answered from one epoch on every shard
//! instead of merged across model versions.

use std::sync::{Arc, Mutex, MutexGuard};

use crate::snapshot::InferenceSnapshot;
use crate::ServeError;

/// A snapshot and the epoch it is served as.
pub(crate) type Epoch = (u64, Arc<InferenceSnapshot>);

/// The stage, commit and load point of one shard's [`InferenceSnapshot`]s.
///
/// Readers take an `Arc` clone of the live snapshot and use it for as long
/// as they like; [`SnapshotCell::commit`] swaps in the staged one without
/// waiting for them. In-flight requests keep the snapshot they started with
/// (the old `Arc` stays alive until its last reader drops it). A load takes
/// the slots' `Mutex` only long enough to clone an `Arc`; a stage builds
/// its snapshot under the publish lock alone, so loads never wait for it.
#[derive(Debug)]
pub(crate) struct SnapshotCell {
    /// The snapshot staged for its epoch's commit. The mutex serialises
    /// every publication and is always taken before `slots`.
    staged: Mutex<Option<(u64, InferenceSnapshot)>>,
    /// `(live, replaced)`: the served epoch, and the one the last commit
    /// replaced until the next stage.
    slots: Mutex<(Epoch, Option<Epoch>)>,
}

impl SnapshotCell {
    /// Creates a cell serving `initial` as epoch 1.
    pub(crate) fn new(initial: InferenceSnapshot) -> Self {
        SnapshotCell {
            staged: Mutex::new(None),
            slots: Mutex::new(((1, Arc::new(initial)), None)),
        }
    }

    /// The live epoch and its snapshot.
    pub(crate) fn load(&self) -> Epoch {
        self.slots().0.clone()
    }

    /// The live or the replaced snapshot, whichever is served as `epoch`;
    /// `None` when the cell holds neither.
    pub(crate) fn load_at(&self, epoch: u64) -> Option<Arc<InferenceSnapshot>> {
        let (live, replaced) = &*self.slots();
        std::iter::once(live)
            .chain(replaced)
            .find(|(e, _)| *e == epoch)
            .map(|(_, snapshot)| Arc::clone(snapshot))
    }

    /// Stages the snapshot `build` makes from the live one for the epoch
    /// `target`. Under the publish lock it judges the publication against
    /// the live epoch: a delta over `base` is declined (`Ok(false)`) unless
    /// the live epoch is `base` and `target` is ahead of it, a whole slice
    /// (`base` of `None`) is refused unless `target` is ahead, and then
    /// `check` judges the rest against the live snapshot. An accepted stage
    /// releases any earlier stage and the replaced snapshot before it builds
    /// (so peak memory stays at live + staged), and leaves nothing staged
    /// when `build` fails. A refused or declined one touches nothing.
    ///
    /// # Errors
    ///
    /// [`ServeError::Conflict`] when a slice's `target` is not ahead of the
    /// live epoch (its commit would be a silent no-op); then whatever
    /// `check` or `build` returns.
    pub(crate) fn stage(
        &self,
        (base, target): (Option<u64>, u64),
        check: impl FnOnce(&InferenceSnapshot) -> Result<(), ServeError>,
        build: impl FnOnce(&InferenceSnapshot) -> Result<InferenceSnapshot, ServeError>,
    ) -> Result<bool, ServeError> {
        let mut staged = lock(&self.staged);
        let (live, served) = self.load();
        match base {
            Some(base) if base != live || target <= live => return Ok(false),
            None if target <= live => {
                return Err(ServeError::Conflict {
                    detail: format!("epoch {target} is not ahead of the served epoch {live}"),
                })
            }
            _ => check(&served)?,
        }
        *staged = None;
        // Taken under the slots' lock, freed after it and before the build.
        let replaced = self.slots().1.take();
        drop(replaced);
        *staged = Some((target, build(&served)?));
        Ok(true)
    }

    /// Swaps in the snapshot staged for `epoch` and returns `epoch`; the
    /// live one becomes the replaced one. Idempotent for the live epoch,
    /// and then leaves the stage alone: a stale duplicate commit must never
    /// discard a newer stage. A stage is always ahead of the live epoch, so
    /// a commit only ever moves it forward.
    ///
    /// # Errors
    ///
    /// [`ServeError::Conflict`] when nothing is staged for `epoch`.
    pub(crate) fn commit(&self, epoch: u64) -> Result<u64, ServeError> {
        let mut staged = lock(&self.staged);
        let (live, replaced) = &mut *self.slots();
        if live.0 == epoch {
            return Ok(epoch);
        }
        let Some((_, snapshot)) = staged.take_if(|(staged, _)| *staged == epoch) else {
            return Err(ServeError::Conflict {
                detail: format!("no staged snapshot for epoch {epoch}"),
            });
        };
        *replaced = Some(std::mem::replace(live, (epoch, Arc::new(snapshot))));
        Ok(epoch)
    }

    fn slots(&self) -> MutexGuard<'_, (Epoch, Option<Epoch>)> {
        lock(&self.slots)
    }
}

/// Every critical section of the cell replaces or takes whole values, so a
/// poisoned lock cannot hold a half-written one: recover and continue.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotSampler;
    use saber_core::model::LdaModel;

    /// A snapshot whose word 0 leans on `topic`, so epochs are told apart
    /// by their data and not only by the cell's record.
    fn snapshot(topic: usize) -> InferenceSnapshot {
        let mut model = LdaModel::new(4, 2, 0.1, 0.01).unwrap();
        model.word_topic_mut()[(0, topic)] = 3;
        model.refresh_probabilities();
        InferenceSnapshot::from_model(&model, SnapshotSampler::WaryTree)
    }

    /// Stages `snapshot(topic)` as a whole slice at `epoch` and commits it.
    fn publish(cell: &SnapshotCell, epoch: u64, topic: usize) -> Result<u64, ServeError> {
        cell.stage((None, epoch), |_| Ok(()), |_| Ok(snapshot(topic)))?;
        cell.commit(epoch)
    }

    fn leaning(snapshot: &InferenceSnapshot) -> usize {
        let counts = snapshot.em_round(&[0], &[0.5, 0.5]).counts;
        usize::from(counts[1] > counts[0])
    }

    #[test]
    fn publish_bumps_version_and_swaps() {
        let cell = SnapshotCell::new(snapshot(0));
        assert_eq!(cell.load().0, 1);
        assert!(cell
            .stage((None, 2), |_| Ok(()), |_| Ok(snapshot(1)))
            .unwrap());
        assert_eq!(cell.load().0, 1, "a stage serves nothing yet");
        assert_eq!(cell.commit(2).unwrap(), 2);
        let (epoch, live) = cell.load();
        assert_eq!((epoch, leaning(&live)), (2, 1));
        assert_eq!(cell.commit(2).unwrap(), 2, "idempotent for the live epoch");
    }

    #[test]
    fn old_readers_keep_their_snapshot_across_a_swap() {
        let cell = SnapshotCell::new(snapshot(0));
        let (epoch, held) = cell.load();
        publish(&cell, 2, 1).unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(leaning(&held), 0, "in-flight reader must keep its snapshot");
        assert_eq!(cell.load().0, 2);
    }

    #[test]
    fn a_restarted_shard_lands_on_the_routers_epoch_and_refuses_regressions() {
        let cell = SnapshotCell::new(snapshot(0));
        assert_eq!(publish(&cell, 7, 1).unwrap(), 7);
        assert_eq!(cell.load().0, 7);
        // The initial snapshot is the one the commit replaced.
        assert_eq!(cell.load_at(1).map(|s| leaning(&s)), Some(0));
        // Equal or backwards epochs are refused, leaving the cell as-is.
        for epoch in [7, 2] {
            let refused = cell.stage((None, epoch), |_| Ok(()), |_| unreachable!());
            assert!(matches!(refused, Err(ServeError::Conflict { .. })));
        }
        assert!(matches!(cell.commit(2), Err(ServeError::Conflict { .. })));
        assert_eq!(cell.load().0, 7);
        assert!(
            cell.load_at(1).is_some(),
            "a refused stage releases nothing"
        );
    }

    #[test]
    fn load_at_finds_the_current_or_the_replaced_snapshot_until_released() {
        let cell = SnapshotCell::new(snapshot(0));
        assert_eq!(cell.load_at(1).map(|s| leaning(&s)), Some(0));
        assert!(cell.load_at(2).is_none());
        publish(&cell, 4, 1).unwrap();
        assert_eq!(cell.load_at(4).map(|s| leaning(&s)), Some(1));
        assert_eq!(
            cell.load_at(1).map(|s| leaning(&s)),
            Some(0),
            "the replaced one"
        );
        assert!(cell
            .stage((None, 5), |_| Ok(()), |_| Ok(snapshot(0)))
            .unwrap());
        assert!(cell.load_at(1).is_none());
        assert_eq!(cell.load_at(4).map(|s| leaning(&s)), Some(1));
        // A commit keeps only the snapshot it replaced.
        assert_eq!(cell.commit(5).unwrap(), 5);
        assert_eq!(cell.load_at(4).map(|s| leaning(&s)), Some(1));
        assert!(cell.load_at(1).is_none());
    }

    #[test]
    fn concurrent_publish_and_load() {
        // Epoch `e` leans on topic `e % 2`, the initial epoch 1 included.
        let cell = Arc::new(SnapshotCell::new(snapshot(1)));
        let publisher = {
            let cell = Arc::clone(&cell);
            std::thread::spawn(move || {
                for epoch in 2..=51 {
                    publish(&cell, epoch, epoch as usize % 2).unwrap();
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cell = Arc::clone(&cell);
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    for _ in 0..200 {
                        let (epoch, live) = cell.load();
                        assert!(epoch >= last, "epoch went backwards: {last} -> {epoch}");
                        assert_eq!(leaning(&live), epoch as usize % 2, "epoch {epoch}");
                        last = epoch;
                    }
                })
            })
            .collect();
        publisher.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(cell.load().0, 51);
    }
}
