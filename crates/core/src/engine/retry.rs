//! The command-timeout machinery's table of live forwarding attempts.
//!
//! With a command timeout armed, every push into a back-end ring takes
//! the engine's next `cmd_seq` and keeps a retry entry until the attempt
//! completes, times out or is abandoned. The live entries therefore sit
//! in a window of consecutive sequence numbers: a ring buffer indexed
//! by `seq - base` holds them, so an insert is a push, a removal an
//! index, and the emptied slots at the front are trimmed as they go.
//! The front entry is the oldest live attempt, whose deadline is the
//! earliest: the engine's one deadline timer targets it.

use std::collections::VecDeque;

/// Entries keyed by a sequence number that only grows, in a ring
/// indexed from the oldest live one.
#[derive(Debug)]
pub(super) struct SeqWindow<T> {
    /// Sequence number of `slots[0]`.
    base: u64,
    /// `slots[i]` holds entry `base + i`; `None` once removed. The front
    /// slot is always live (emptied front slots are trimmed).
    slots: VecDeque<Option<T>>,
}

impl<T> Default for SeqWindow<T> {
    fn default() -> Self {
        SeqWindow {
            base: 0,
            slots: VecDeque::new(),
        }
    }
}

impl<T> SeqWindow<T> {
    /// Inserts (or replaces) entry `seq`. Sequence numbers normally
    /// arrive in increasing order, where this is a push; skipped
    /// numbers leave empty slots.
    pub(super) fn insert(&mut self, seq: u64, value: T) {
        if self.slots.is_empty() {
            self.base = seq;
        }
        while seq < self.base {
            self.slots.push_front(None);
            self.base -= 1;
        }
        let i = (seq - self.base) as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        self.slots[i] = Some(value);
    }

    /// Removes and returns entry `seq`, if it is live.
    pub(super) fn remove(&mut self, seq: u64) -> Option<T> {
        let i = usize::try_from(seq.checked_sub(self.base)?).ok()?;
        let value = self.slots.get_mut(i)?.take();
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        value
    }

    /// Whether no entry is live.
    pub(super) fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The oldest live entry and its sequence number.
    pub(super) fn front(&self) -> Option<(u64, &T)> {
        let value = self.slots.front()?.as_ref()?;
        Some((self.base, value))
    }

    /// The live entries, in sequence order.
    pub(super) fn into_entries(self) -> impl Iterator<Item = (u64, T)> {
        (self.base..)
            .zip(self.slots)
            .filter_map(|(seq, slot)| slot.map(|value| (seq, value)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    proptest! {
        /// The window behaves as the ordered map it replaced: random
        /// inserts with sequence gaps, removes of live, dead and
        /// never-seen numbers, emptiness, and the in-order drain the
        /// crash journal takes.
        #[test]
        fn window_matches_an_ordered_map(
            ops in proptest::collection::vec((0u8..4, 0u64..4, 0u64..40), 1..300),
        ) {
            let mut window = SeqWindow::default();
            let mut model = BTreeMap::new();
            let mut next = 1u64;
            for (kind, gap, back) in ops {
                match kind {
                    0 | 1 => {
                        next += gap;
                        window.insert(next, next * 10);
                        model.insert(next, next * 10);
                        next += 1;
                    }
                    // The oldest live entry, as in-order completions
                    // remove it.
                    2 => {
                        let seq = model.keys().next().copied().unwrap_or(next);
                        prop_assert_eq!(window.remove(seq), model.remove(&seq));
                    }
                    _ => {
                        let seq = next.saturating_sub(back);
                        prop_assert_eq!(window.remove(seq), model.remove(&seq));
                    }
                }
                prop_assert_eq!(window.is_empty(), model.is_empty());
                // Emptied slots are trimmed: the window starts at the
                // oldest live entry.
                let first = window.slots.front().map(|_| window.base);
                prop_assert_eq!(first, model.keys().next().copied());
                prop_assert_eq!(window.front(), model.iter().next().map(|(&k, v)| (k, v)));
            }
            let drained: Vec<_> = window.into_entries().collect();
            prop_assert_eq!(drained, model.into_iter().collect::<Vec<_>>());
        }
    }

    #[test]
    fn out_of_order_inserts_keep_the_map_semantics() {
        let mut window = SeqWindow::default();
        window.insert(10, 'a');
        window.insert(7, 'b');
        window.insert(10, 'c');
        window.insert(12, 'd');
        assert_eq!(window.remove(8), None);
        assert_eq!(window.remove(7), Some('b'));
        let drained: Vec<_> = window.into_entries().collect();
        assert_eq!(drained, vec![(10, 'c'), (12, 'd')]);
    }
}
