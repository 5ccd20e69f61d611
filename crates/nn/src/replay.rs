//! Experience replay buffer.
//!
//! DQNs record `(sₜ, aₜ, rₜ, sₜ₊₁, done)` transitions and sample random
//! mini-batches to break temporal correlation (§2.4). The paper's core
//! argument is that this buffer is exactly what a resource-limited edge
//! device cannot afford — the OS-ELM Q-Network replaces it with the *random
//! update* technique — so this implementation exists for the DQN baseline and
//! for the memory-footprint comparison in the harness.

use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// One stored transition.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Transition {
    /// State observed before acting.
    pub state: Vec<f64>,
    /// Action taken (discrete index).
    pub action: usize,
    /// Reward received.
    pub reward: f64,
    /// State observed after acting.
    pub next_state: Vec<f64>,
    /// Whether the episode terminated at this step.
    pub done: bool,
}

/// A bounded FIFO replay buffer with uniform random sampling.
///
/// Serialisable so a DQN checkpoint can carry its full replay history —
/// resuming with an empty buffer would change which mini-batches the
/// restored run samples and break byte-identical resume.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ReplayBuffer {
    buffer: VecDeque<Transition>,
    capacity: usize,
}

impl ReplayBuffer {
    /// Create a buffer holding at most `capacity` transitions.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "replay buffer capacity must be positive");
        Self {
            buffer: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Maximum number of stored transitions.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of stored transitions.
    pub fn len(&self) -> usize {
        self.buffer.len()
    }

    /// `true` when no transitions are stored.
    pub fn is_empty(&self) -> bool {
        self.buffer.is_empty()
    }

    /// `true` when the buffer holds `capacity` transitions.
    pub fn is_full(&self) -> bool {
        self.buffer.len() == self.capacity
    }

    /// Append a transition, evicting the oldest one when full. A full
    /// buffer recycles the evicted transition's vectors for the new one, so
    /// pushing into it performs no heap allocation.
    pub fn push(
        &mut self,
        state: &[f64],
        action: usize,
        reward: f64,
        next_state: &[f64],
        done: bool,
    ) {
        if self.buffer.len() < self.capacity {
            self.buffer.push_back(Transition {
                state: state.to_vec(),
                action,
                reward,
                next_state: next_state.to_vec(),
                done,
            });
            return;
        }
        let mut t = self.buffer.pop_front().expect("a full buffer is non-empty");
        t.state.clear();
        t.state.extend_from_slice(state);
        t.next_state.clear();
        t.next_state.extend_from_slice(next_state);
        t.action = action;
        t.reward = reward;
        t.done = done;
        self.buffer.push_back(t);
    }

    /// Draw `batch_size` uniform indices (with replacement) into `indices`
    /// (cleared first, capacity reused): one `gen_range` draw per index, in
    /// order. Leaves `indices` empty when the buffer is empty. Read the
    /// sampled transitions back with [`ReplayBuffer::get`].
    pub fn sample_indices<R: Rng + ?Sized>(
        &self,
        batch_size: usize,
        rng: &mut R,
        indices: &mut Vec<usize>,
    ) {
        indices.clear();
        if self.buffer.is_empty() {
            return;
        }
        indices.extend((0..batch_size).map(|_| rng.gen_range(0..self.buffer.len())));
    }

    /// The transition at `index` (0 = oldest). Panics when out of range.
    pub fn get(&self, index: usize) -> &Transition {
        &self.buffer[index]
    }

    /// Iterate over the stored transitions from oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = &Transition> {
        self.buffer.iter()
    }

    /// Remove every stored transition.
    pub fn clear(&mut self) {
        self.buffer.clear();
    }

    /// Approximate memory footprint of the stored transitions in bytes. The
    /// harness uses this to contrast DQN's buffer requirement with the
    /// OS-ELM random-update approach (which needs no buffer at all).
    pub fn approximate_bytes(&self) -> usize {
        self.buffer
            .iter()
            .map(|t| {
                std::mem::size_of::<Transition>()
                    + (t.state.len() + t.next_state.len()) * std::mem::size_of::<f64>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn push(buf: &mut ReplayBuffer, i: usize) {
        buf.push(&[i as f64; 4], i % 2, 1.0, &[i as f64 + 1.0; 4], false);
    }

    fn sample<'a>(
        buf: &'a ReplayBuffer,
        batch_size: usize,
        rng: &mut SmallRng,
    ) -> Vec<&'a Transition> {
        let mut indices = Vec::new();
        buf.sample_indices(batch_size, rng, &mut indices);
        indices.iter().map(|&i| buf.get(i)).collect()
    }

    #[test]
    fn push_and_len() {
        let mut buf = ReplayBuffer::new(3);
        assert!(buf.is_empty());
        assert_eq!(buf.capacity(), 3);
        for i in 0..2 {
            push(&mut buf, i);
        }
        assert_eq!(buf.len(), 2);
        assert!(!buf.is_full());
        push(&mut buf, 2);
        assert!(buf.is_full());
    }

    #[test]
    fn eviction_is_fifo() {
        let mut buf = ReplayBuffer::new(3);
        for i in 0..5 {
            push(&mut buf, i);
        }
        assert_eq!(buf.len(), 3);
        let states: Vec<f64> = buf.iter().map(|t| t.state[0]).collect();
        assert_eq!(states, vec![2.0, 3.0, 4.0]);
        // The recycled slots carry the whole new transition.
        let next: Vec<f64> = buf.iter().map(|t| t.next_state[3]).collect();
        assert_eq!(next, vec![3.0, 4.0, 5.0]);
        let actions: Vec<usize> = buf.iter().map(|t| t.action).collect();
        assert_eq!(actions, vec![0, 1, 0]);
    }

    #[test]
    fn sampling_returns_requested_count() {
        let mut buf = ReplayBuffer::new(10);
        for i in 0..10 {
            push(&mut buf, i);
        }
        let mut rng = SmallRng::seed_from_u64(0);
        let batch = sample(&buf, 32, &mut rng);
        assert_eq!(batch.len(), 32);
        assert!(batch.iter().all(|t| t.state[0] < 10.0));
        assert!(sample(&buf, 4, &mut rng).len() == 4);
    }

    #[test]
    fn sampling_from_empty_buffer_is_empty() {
        let buf = ReplayBuffer::new(4);
        let mut rng = SmallRng::seed_from_u64(0);
        assert!(sample(&buf, 8, &mut rng).is_empty());
    }

    #[test]
    fn sampling_covers_the_buffer_eventually() {
        let mut buf = ReplayBuffer::new(8);
        for i in 0..8 {
            push(&mut buf, i);
        }
        let mut rng = SmallRng::seed_from_u64(3);
        let mut seen = [false; 8];
        for t in sample(&buf, 400, &mut rng) {
            seen[t.state[0] as usize] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "uniform sampling should hit every slot"
        );
    }

    #[test]
    fn clear_and_bytes() {
        let mut buf = ReplayBuffer::new(4);
        push(&mut buf, 0);
        assert!(buf.approximate_bytes() > 8 * std::mem::size_of::<f64>());
        buf.clear();
        assert!(buf.is_empty());
        assert_eq!(buf.approximate_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = ReplayBuffer::new(0);
    }
}
