//! The two-entry `InputQueue` of LazyDP (Algorithm 1, lines 3–5, 26)
//! and the loader that drives it.
//!
//! LazyDP must know which embedding rows the *next* iteration will gather
//! so it can flush their pending noise first (paper §5.1: "prefetching a
//! single mini-batch in advance is sufficient"). [`LookaheadLoader`]
//! drives a two-slot queue from any [`BatchSource`], presenting
//! `(current, next)` batch views per iteration exactly as the
//! pseudo-code does.

use crate::batch::MiniBatch;
use crate::loader::BatchSource;
use std::collections::VecDeque;

/// A queue holding at most two consecutive mini-batches
/// (`Queue(size = 2)` in Algorithm 1).
#[derive(Debug, Clone, Default)]
pub(crate) struct InputQueue<T> {
    slots: VecDeque<T>,
}

impl<T> InputQueue<T> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self {
            slots: VecDeque::with_capacity(2),
        }
    }

    /// Pushes the next mini-batch (Algorithm 1 line 5/7).
    ///
    /// # Panics
    ///
    /// Panics if the queue already holds two batches — LazyDP only ever
    /// needs one batch of lookahead, so a deeper queue indicates a
    /// driver bug.
    pub fn push(&mut self, item: T) {
        assert!(self.slots.len() < 2, "InputQueue holds at most 2 batches");
        self.slots.push_back(item);
    }

    /// The current iteration's batch (Algorithm 1 `head()`).
    #[must_use]
    pub fn head(&self) -> Option<&T> {
        self.slots.front()
    }

    /// The next iteration's batch (Algorithm 1 `tail()`).
    ///
    /// Returns `None` when fewer than two batches are queued.
    #[must_use]
    pub fn tail(&self) -> Option<&T> {
        if self.slots.len() == 2 {
            self.slots.back()
        } else {
            None
        }
    }

    /// Pops the consumed head batch (Algorithm 1 line 26).
    pub fn pop(&mut self) -> Option<T> {
        self.slots.pop_front()
    }

    /// Number of queued batches (0, 1, or 2).
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }
}

/// Drives a [`BatchSource`] through the two-slot `InputQueue`, handing
/// the optimizer `(current, next)` batch pairs.
///
/// Per iteration it fetches exactly **one** new batch — "identical to
/// baseline SGD and DP-SGD" (paper §5.2.1) — and reuses the previous
/// iteration's prefetched batch as the current one.
#[derive(Debug, Clone)]
pub struct LookaheadLoader<S> {
    source: S,
    queue: InputQueue<MiniBatch>,
}

impl<S: BatchSource> LookaheadLoader<S> {
    /// Wraps a batch source, fetching the bootstrap batch
    /// (Algorithm 1 line 5).
    pub fn new(mut source: S) -> Self {
        let mut queue = InputQueue::new();
        queue.push(source.next_batch());
        Self { source, queue }
    }

    /// Advances one iteration: fetches one new batch and returns
    /// `(current, next)` views (Algorithm 1 lines 7, 9, 12).
    ///
    /// Call [`finish_iteration`](Self::finish_iteration) after the
    /// optimizer step to release the consumed batch (line 26).
    pub fn advance(&mut self) -> (&MiniBatch, &MiniBatch) {
        self.queue.push(self.source.next_batch());
        let cur = self.queue.head().expect("queue holds current batch");
        let next = self.queue.tail().expect("queue holds next batch");
        (cur, next)
    }

    /// Pops the consumed current batch.
    ///
    /// # Panics
    ///
    /// Panics if called before [`advance`](Self::advance).
    pub fn finish_iteration(&mut self) -> MiniBatch {
        assert_eq!(self.queue.len(), 2, "finish_iteration before advance");
        self.queue.pop().expect("non-empty queue")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{SyntheticConfig, SyntheticDataset};
    use crate::loader::FixedBatchLoader;

    fn loader(batch: usize) -> FixedBatchLoader {
        let ds = SyntheticDataset::new(SyntheticConfig::small(2, 32, 64));
        FixedBatchLoader::new(ds, batch)
    }

    #[test]
    fn queue_head_tail_pop_protocol() {
        let mut q = InputQueue::new();
        assert_eq!(q.len(), 0);
        q.push(1);
        assert_eq!(q.head(), Some(&1));
        assert_eq!(q.tail(), None, "tail needs two entries");
        q.push(2);
        assert_eq!(q.head(), Some(&1));
        assert_eq!(q.tail(), Some(&2));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.head(), Some(&2));
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic(expected = "at most 2")]
    fn queue_rejects_third_batch() {
        let mut q = InputQueue::new();
        q.push(1);
        q.push(2);
        q.push(3);
    }

    #[test]
    fn lookahead_sees_batches_in_order_with_one_batch_lag() {
        // Against a deterministic fixed loader, iteration i's "current"
        // must equal a fresh loader's batch i, and "next" batch i+1.
        let mut reference = loader(4);
        let expected: Vec<MiniBatch> = (0..5).map(|_| reference.next_batch()).collect();
        let mut look = LookaheadLoader::new(loader(4));
        for i in 0..4 {
            let (cur, next) = look.advance();
            assert_eq!(cur, &expected[i], "current at iter {i}");
            assert_eq!(next, &expected[i + 1], "next at iter {i}");
            let popped = look.finish_iteration();
            assert_eq!(popped, expected[i]);
        }
    }

    #[test]
    #[should_panic(expected = "finish_iteration before advance")]
    fn finish_before_advance_panics() {
        let mut look = LookaheadLoader::new(loader(2));
        let _ = look.finish_iteration();
    }
}
