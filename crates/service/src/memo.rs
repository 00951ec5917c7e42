//! The wire-pattern memo of [`CompileService::submit_checked`] (see
//! its docs for the policy): a small LRU map from a pattern's wire
//! bytes ([`Pattern::to_bytes`]) to its content bytes and their hash,
//! so a repeat submit of a resident pattern is keyed without decoding
//! it. A lookup matches an entry of equal length by comparing every
//! byte, so it costs no pass over the submit's bytes beyond that
//! comparison. Entries are charged their wire and content lengths,
//! although the content buffer is shared with the store's keys.
//!
//! [`CompileService::submit_checked`]: crate::CompileService::submit_checked
//! [`Pattern::to_bytes`]: mbqc_pattern::Pattern::to_bytes

use std::sync::Arc;

/// Most entries the memo holds.
pub(crate) const MAX_ENTRIES: usize = 64;

/// Most bytes the memo's entries are charged.
pub(crate) const MAX_BYTES: usize = 16 << 20;

/// A pattern's content bytes and their
/// [`ArtifactKey::pattern_hash`](crate::store::ArtifactKey::pattern_hash):
/// what a job's [`ArtifactKey`](crate::store::ArtifactKey) is built
/// from.
pub(crate) type Content = (Arc<Vec<u8>>, u64);

#[derive(Debug)]
struct Entry {
    wire: Box<[u8]>,
    content: Content,
    last_use: u64,
}

impl Entry {
    fn cost(&self) -> usize {
        self.wire.len() + self.content.0.len()
    }
}

#[derive(Debug, Default)]
pub(crate) struct PatternMemo {
    entries: Vec<Entry>,
    bytes: usize,
    clock: u64,
}

impl PatternMemo {
    /// The entry whose wire bytes equal `wire`: equal length first,
    /// then every byte.
    fn find(&self, wire: &[u8]) -> Option<usize> {
        self.entries.iter().position(|e| *e.wire == *wire)
    }

    /// The content of the entry whose wire bytes equal `wire`, marked
    /// most recently used.
    pub(crate) fn get(&mut self, wire: &[u8]) -> Option<Content> {
        let i = self.find(wire)?;
        self.clock += 1;
        self.entries[i].last_use = self.clock;
        Some(self.entries[i].content.clone())
    }

    /// Remembers `wire`'s content, evicting least recently used
    /// entries until both bounds hold. An entry over the byte bound on
    /// its own is not kept; a present one is left as it is.
    pub(crate) fn insert(&mut self, wire: &[u8], content: Content) {
        let cost = wire.len() + content.0.len();
        if cost > MAX_BYTES || self.find(wire).is_some() {
            return;
        }
        while self.entries.len() >= MAX_ENTRIES || self.bytes + cost > MAX_BYTES {
            let lru = (0..self.entries.len())
                .min_by_key(|&i| self.entries[i].last_use)
                .expect("a memo over its bounds holds an entry");
            self.bytes -= self.entries.swap_remove(lru).cost();
        }
        self.clock += 1;
        self.bytes += cost;
        self.entries.push(Entry {
            wire: wire.into(),
            content,
            last_use: self.clock,
        });
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    #[cfg(test)]
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn content(len: usize, hash: u64) -> Content {
        (Arc::new(vec![7; len]), hash)
    }

    fn put(memo: &mut PatternMemo, wire: &[u8], content: Content) {
        memo.insert(wire, content);
    }

    fn get(memo: &mut PatternMemo, wire: &[u8]) -> Option<u64> {
        memo.get(wire).map(|(_, h)| h)
    }

    #[test]
    fn lookups_compare_every_byte() {
        let mut memo = PatternMemo::default();
        let wire = vec![1u8; 4096];
        let mut twin = wire.clone();
        twin[4095] ^= 1;
        put(&mut memo, &wire, content(10, 1));
        assert_eq!(get(&mut memo, &wire), Some(1));
        assert_eq!(get(&mut memo, &twin), None);
        // A prefix or an extension of the bytes is no match either.
        assert_eq!(get(&mut memo, &wire[..4095]), None);
        assert_eq!(get(&mut memo, &[&wire[..], &[1]].concat()), None);
        put(&mut memo, &twin, content(10, 2));
        assert_eq!(get(&mut memo, &twin), Some(2));
        assert_eq!(get(&mut memo, &wire), Some(1));
        // A repeat insert keeps the present entry.
        put(&mut memo, &wire, content(10, 3));
        assert_eq!(get(&mut memo, &wire), Some(1));
        assert_eq!((memo.len(), memo.bytes()), (2, 2 * (4096 + 10)));
    }

    #[test]
    fn entry_count_stays_within_its_bound_and_evicts_the_least_recent() {
        let mut memo = PatternMemo::default();
        let wires: Vec<Vec<u8>> = (0..MAX_ENTRIES as u64 + 20)
            .map(|i| i.to_le_bytes().to_vec())
            .collect();
        for (i, wire) in wires.iter().enumerate() {
            put(&mut memo, wire, content(3, i as u64));
            // Keep the first entry in use: it must survive.
            assert_eq!(get(&mut memo, &wires[0]), Some(0));
            assert!(memo.len() <= MAX_ENTRIES);
            assert!(memo.bytes() <= MAX_BYTES);
        }
        assert_eq!(memo.len(), MAX_ENTRIES);
        assert_eq!(memo.bytes(), MAX_ENTRIES * (8 + 3));
        assert_eq!(get(&mut memo, &wires[1]), None, "least recent evicted");
        let last = wires.len() - 1;
        assert_eq!(get(&mut memo, &wires[last]), Some(last as u64));
    }

    #[test]
    fn charged_bytes_stay_within_their_bound() {
        let mut memo = PatternMemo::default();
        let third = MAX_BYTES / 3;
        for i in 0..5u8 {
            put(&mut memo, &[i; 16], content(third, u64::from(i)));
            assert!(memo.bytes() <= MAX_BYTES, "{} bytes", memo.bytes());
        }
        assert_eq!(memo.len(), 2);
        assert_eq!(get(&mut memo, &[4; 16]), Some(4));
        assert_eq!(get(&mut memo, &[3; 16]), Some(3));
        // An entry over the bound on its own is never kept.
        put(&mut memo, &[9; 16], content(MAX_BYTES, 9));
        assert_eq!(get(&mut memo, &[9; 16]), None);
        assert_eq!(memo.len(), 2);
    }
}
