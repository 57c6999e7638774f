//! Dynamic work scheduling across blocks.
//!
//! In SaberLDA a *word* is processed by a block and a *token* by a warp, with
//! dynamic scheduling at both levels: an idle block fetches the next word, an
//! idle warp fetches the next token (§3.4). Because word frequencies follow a
//! power law, the block-level workload is highly imbalanced, and the paper
//! additionally sorts words by descending token count so the heavy words start
//! first and the light ones fill the gaps.
//!
//! This module simulates that scheduler: given per-item work amounts it
//! computes the makespan under dynamic (greedy) dispatch, which the trainer
//! uses to model how well its blocks and the word ordering balance the load.

/// Outcome of simulating a dynamic schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleOutcome {
    /// Total work assigned to each executor (e.g. block), in work units.
    pub per_executor: Vec<u64>,
    /// The makespan: the maximum per-executor total.
    pub makespan: u64,
    /// Sum of all work.
    pub total_work: u64,
}

impl ScheduleOutcome {
    /// Load imbalance: makespan divided by the ideal (total / executors).
    /// 1.0 means perfectly balanced.
    pub fn imbalance(&self) -> f64 {
        if self.total_work == 0 || self.per_executor.is_empty() {
            return 1.0;
        }
        let ideal = self.total_work as f64 / self.per_executor.len() as f64;
        if ideal == 0.0 {
            1.0
        } else {
            self.makespan as f64 / ideal
        }
    }

    /// Parallel efficiency in `(0, 1]`: ideal time over achieved time.
    pub fn efficiency(&self) -> f64 {
        let imb = self.imbalance();
        if imb == 0.0 {
            1.0
        } else {
            (1.0 / imb).min(1.0)
        }
    }
}

/// Simulates greedy dynamic scheduling: items are dispatched in the given
/// order, each to the executor that currently has the least work (which is
/// what "a block fetches a new word when it is idle" converges to).
///
/// # Panics
///
/// Panics if `n_executors == 0`.
pub fn dynamic_schedule(work_items: &[u64], n_executors: usize) -> ScheduleOutcome {
    assert!(n_executors > 0, "need at least one executor");
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, usize)>> = (0..n_executors)
        .map(|i| std::cmp::Reverse((0u64, i)))
        .collect();
    let mut per_executor = vec![0u64; n_executors];
    for &w in work_items {
        let std::cmp::Reverse((load, idx)) = heap.pop().expect("heap never empty");
        let new_load = load + w;
        per_executor[idx] = new_load;
        heap.push(std::cmp::Reverse((new_load, idx)));
    }
    let makespan = per_executor.iter().copied().max().unwrap_or(0);
    ScheduleOutcome {
        per_executor,
        makespan,
        total_work: work_items.iter().sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `work_items` by descending size: the order the chunk layout gives the
    /// words when it sorts them by frequency (§3.4).
    fn sorted_desc(work_items: &[u64]) -> Vec<u64> {
        let mut sorted = work_items.to_vec();
        sorted.sort_by_key(|&w| std::cmp::Reverse(w));
        sorted
    }

    #[test]
    fn balanced_items_are_balanced() {
        let outcome = dynamic_schedule(&[10; 40], 4);
        assert_eq!(outcome.makespan, 100);
        assert!((outcome.imbalance() - 1.0).abs() < 1e-12);
        assert!((outcome.efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sorted_dispatch_handles_power_law() {
        // One huge item plus many small ones: sorting first lets the small
        // items fill the other executors while the big one runs.
        let mut items = vec![1u64; 100];
        items.push(100);
        let unsorted = dynamic_schedule(&items, 4);
        let sorted = dynamic_schedule(&sorted_desc(&items), 4);
        assert!(sorted.makespan <= unsorted.makespan);
        assert_eq!(sorted.total_work, 200);
        // The huge item is a lower bound on the makespan.
        assert!(sorted.makespan >= 100);
    }

    #[test]
    fn dynamic_beats_static_on_skewed_input() {
        // Adversarial for round robin: all the big items land on executor 0.
        let items: Vec<u64> = (0..32).map(|i| if i % 4 == 0 { 100 } else { 1 }).collect();
        let dynamic = dynamic_schedule(&items, 4);
        let round_robin = (0..4)
            .map(|e| items.iter().skip(e).step_by(4).sum::<u64>())
            .max()
            .unwrap();
        assert!(dynamic.makespan < round_robin);
    }

    #[test]
    fn empty_work_is_fine() {
        let outcome = dynamic_schedule(&[], 8);
        assert_eq!(outcome.makespan, 0);
        assert_eq!(outcome.total_work, 0);
        assert_eq!(outcome.imbalance(), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one executor")]
    fn zero_executors_panics() {
        dynamic_schedule(&[1, 2], 0);
    }

    proptest! {
        #[test]
        fn work_is_conserved(items in proptest::collection::vec(0u64..1000, 0..200), n in 1usize..16) {
            let outcome = dynamic_schedule(&items, n);
            prop_assert_eq!(outcome.per_executor.iter().sum::<u64>(), outcome.total_work);
            prop_assert!(outcome.makespan >= outcome.total_work / n as u64);
            // Greedy dispatch is a 2-approximation of the optimal makespan.
            let max_item = items.iter().copied().max().unwrap_or(0);
            let lower = (outcome.total_work as f64 / n as f64).max(max_item as f64);
            prop_assert!(outcome.makespan as f64 <= 2.0 * lower + 1.0);
        }

        #[test]
        fn sorted_never_worse_than_unsorted_by_much(items in proptest::collection::vec(0u64..1000, 1..100), n in 1usize..8) {
            let unsorted = dynamic_schedule(&items, n);
            let sorted = dynamic_schedule(&sorted_desc(&items), n);
            // LPT (sorted) is a 4/3-approximation; it can never be worse than
            // the plain greedy bound of 2x optimal, so compare against that.
            prop_assert!(sorted.makespan <= unsorted.makespan.max(1) * 2);
        }
    }
}
