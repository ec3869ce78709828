//! The versioned state store: page-based, content-deduplicated
//! checkpoints indexed by step.
//!
//! A checkpoint is a serialized coordinator blob split into fixed-size
//! pages. Pages are content-addressed (FNV-1a, with bucket chaining so a
//! hash collision can never corrupt a restore): consecutive checkpoints
//! of a mostly-idle system share almost every page, so the store's
//! footprint grows with the *rate of change* of simulation state, not
//! with the number of checkpoints. This is what makes a dense checkpoint
//! cadence — and therefore cheap reverse execution — affordable.
//!
//! Inserting compares each page with the same page of the previous
//! insert first and reuses its reference when the bytes are equal, so
//! only pages that changed are hashed.

use std::collections::{BTreeMap, HashMap};

use codesign_rtl::state::fnv1a_bytes;

/// Default page size in bytes. Small enough that a few dirty bytes do
/// not invalidate a large page, large enough that per-page bookkeeping
/// stays negligible.
pub const DEFAULT_PAGE_SIZE: usize = 256;

/// A reference to one stored page: its content hash plus the index into
/// that hash's bucket (almost always 0; nonzero only on a collision).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PageRef {
    hash: u64,
    bucket: u32,
}

/// One checkpoint's metadata: the page list and the blob's total length.
#[derive(Debug, Clone)]
struct Checkpoint {
    pages: Vec<PageRef>,
    len: usize,
}

/// Aggregate store statistics (for `BENCH_replay.json` and diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Checkpoints currently stored.
    pub checkpoints: usize,
    /// Sum of all checkpoint blob lengths (what a naive store would hold).
    pub logical_bytes: u64,
    /// Bytes actually held in unique pages.
    pub stored_bytes: u64,
    /// Unique pages held.
    pub unique_pages: usize,
    /// Total page references across all checkpoints.
    pub total_pages: u64,
}

impl StoreStats {
    /// Deduplication ratio: logical bytes per stored byte (≥ 1.0 once
    /// anything is stored; higher is better).
    #[must_use]
    pub fn dedup_ratio(&self) -> f64 {
        if self.stored_bytes == 0 {
            1.0
        } else {
            self.logical_bytes as f64 / self.stored_bytes as f64
        }
    }
}

/// The page-deduplicating checkpoint store.
#[derive(Debug)]
pub struct StateStore {
    page_size: usize,
    /// Content-addressed pages: hash → bucket of distinct page bodies
    /// that share the hash.
    pages: HashMap<u64, Vec<Box<[u8]>>>,
    /// Step-indexed checkpoint history.
    checkpoints: BTreeMap<u64, Checkpoint>,
    /// The most recently inserted step, whose pages the next insert
    /// compares against.
    last: Option<u64>,
}

impl StateStore {
    /// Creates a store with the given page size (clamped to at least 1).
    #[must_use]
    pub fn new(page_size: usize) -> Self {
        StateStore {
            page_size: page_size.max(1),
            pages: HashMap::new(),
            checkpoints: BTreeMap::new(),
            last: None,
        }
    }

    /// The configured page size.
    #[must_use]
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Stores `blob` as the checkpoint for `step`, deduplicating pages
    /// against everything already stored. Re-inserting the same step
    /// replaces its checkpoint (identical bytes are a no-op in space).
    pub fn insert(&mut self, step: u64, blob: &[u8]) {
        let prev = self
            .last
            .and_then(|s| self.checkpoints.get(&s))
            .map_or(&[][..], |c| &c.pages[..]);
        let mut pages = Vec::with_capacity(blob.len().div_ceil(self.page_size));
        for (i, chunk) in blob.chunks(self.page_size).enumerate() {
            pages.push(match prev.get(i) {
                Some(&r) if *self.pages[&r.hash][r.bucket as usize] == *chunk => r,
                _ => intern(&mut self.pages, chunk),
            });
        }
        self.checkpoints.insert(
            step,
            Checkpoint {
                pages,
                len: blob.len(),
            },
        );
        self.last = Some(step);
    }

    /// Reassembles the checkpoint stored for exactly `step`.
    #[must_use]
    pub fn get(&self, step: u64) -> Option<Vec<u8>> {
        let cp = self.checkpoints.get(&step)?;
        let mut blob = Vec::with_capacity(cp.len);
        for r in &cp.pages {
            blob.extend_from_slice(&self.pages[&r.hash][r.bucket as usize]);
        }
        debug_assert_eq!(blob.len(), cp.len);
        Some(blob)
    }

    /// Whether a checkpoint is stored for exactly `step`.
    #[must_use]
    pub fn contains(&self, step: u64) -> bool {
        self.checkpoints.contains_key(&step)
    }

    /// The latest checkpointed step at or before `step`.
    #[must_use]
    pub fn nearest_at_or_before(&self, step: u64) -> Option<u64> {
        self.checkpoints.range(..=step).next_back().map(|(&s, _)| s)
    }

    /// The latest checkpointed step.
    #[must_use]
    pub fn latest(&self) -> Option<u64> {
        self.checkpoints.keys().next_back().copied()
    }

    /// Aggregate statistics.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let stored_bytes: u64 = self
            .pages
            .values()
            .flat_map(|bucket| bucket.iter().map(|p| p.len() as u64))
            .sum();
        StoreStats {
            checkpoints: self.checkpoints.len(),
            logical_bytes: self.checkpoints.values().map(|c| c.len as u64).sum(),
            stored_bytes,
            unique_pages: self.pages.values().map(Vec::len).sum(),
            total_pages: self
                .checkpoints
                .values()
                .map(|c| c.pages.len() as u64)
                .sum(),
        }
    }
}

/// The reference of the stored page equal to `chunk`, storing it first
/// if it is new.
fn intern(pages: &mut HashMap<u64, Vec<Box<[u8]>>>, chunk: &[u8]) -> PageRef {
    let hash = fnv1a_bytes(chunk);
    let bucket = pages.entry(hash).or_default();
    let idx = match bucket.iter().position(|p| **p == *chunk) {
        Some(i) => i,
        None => {
            bucket.push(chunk.into());
            bucket.len() - 1
        }
    };
    PageRef {
        hash,
        bucket: u32::try_from(idx).expect("bucket chains stay tiny"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_blobs_of_awkward_sizes() {
        let mut store = StateStore::new(16);
        for (step, len) in [(0u64, 0usize), (1, 1), (2, 15), (3, 16), (4, 17), (5, 1000)] {
            let blob: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(31)).collect();
            store.insert(step, &blob);
            assert_eq!(store.get(step).unwrap(), blob, "len {len}");
        }
    }

    #[test]
    fn identical_checkpoints_share_all_pages() {
        let mut store = StateStore::new(32);
        let blob = vec![0xA5u8; 1024];
        store.insert(0, &blob);
        let once = store.stats();
        for step in 1..64 {
            store.insert(step, &blob);
        }
        let many = store.stats();
        assert_eq!(many.stored_bytes, once.stored_bytes, "no new pages");
        assert_eq!(many.logical_bytes, 64 * 1024);
        assert!(many.dedup_ratio() > 60.0);
    }

    #[test]
    fn small_deltas_cost_one_page() {
        let mut store = StateStore::new(64);
        let mut blob = vec![0u8; 640];
        store.insert(0, &blob);
        let before = store.stats().stored_bytes;
        blob[5] ^= 0xFF; // dirty exactly one page
        store.insert(1, &blob);
        assert_eq!(store.stats().stored_bytes, before + 64);
    }

    #[test]
    fn nearest_and_latest_navigate_the_history() {
        let mut store = StateStore::new(16);
        for step in [0u64, 8, 16, 24] {
            store.insert(step, &step.to_le_bytes());
        }
        assert_eq!(store.nearest_at_or_before(0), Some(0));
        assert_eq!(store.nearest_at_or_before(7), Some(0));
        assert_eq!(store.nearest_at_or_before(8), Some(8));
        assert_eq!(store.nearest_at_or_before(100), Some(24));
        assert_eq!(store.latest(), Some(24));
    }

    #[test]
    fn contains_tracks_steps_and_changed_pages_round_trip() {
        let mut store = StateStore::new(16);
        store.insert(0, b"aaaa");
        store.insert(1, b"aaab");
        store.insert(2, b"aaaa");
        assert!(store.contains(0) && store.contains(1) && store.contains(2));
        assert!(!store.contains(3));
        // A page that differs from the previous insert's is stored anew;
        // one that returns to earlier bytes dedups against them.
        assert_eq!(store.get(0).unwrap(), b"aaaa");
        assert_eq!(store.get(1).unwrap(), b"aaab");
        assert_eq!(store.get(2).unwrap(), b"aaaa");
        assert_eq!(store.stats().unique_pages, 2);
    }

    #[test]
    fn colliding_hashes_would_chain_not_corrupt() {
        // Force the degenerate page size so every byte is its own page;
        // distinct one-byte pages have distinct FNV hashes, but the
        // bucket machinery is still exercised end to end.
        let mut store = StateStore::new(1);
        let blob: Vec<u8> = (0..=255u8).collect();
        store.insert(0, &blob);
        assert_eq!(store.get(0).unwrap(), blob);
        assert_eq!(store.stats().unique_pages, 256);
    }

    /// Blobs of a checkpointed run: mostly-stable bytes with a few dirty
    /// words per step, a length change, a return to earlier content and
    /// a re-inserted step.
    fn scripted_blobs() -> Vec<(u64, Vec<u8>)> {
        let mut state = 0x5EEDu64;
        let mut blob: Vec<u8> = (0..1500u32).map(|i| (i * 7 % 251) as u8).collect();
        let mut out: Vec<(u64, Vec<u8>)> = Vec::new();
        for step in 0..40u64 {
            for _ in 0..step % 4 {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let at = (state >> 33) as usize % blob.len();
                blob[at] ^= (state >> 8) as u8 | 1;
            }
            if step == 17 {
                blob.extend_from_slice(&[0xEE; 300]);
            }
            if step == 29 {
                blob.truncate(1100);
            }
            let saved = if step == 33 {
                out[5].1.clone()
            } else {
                blob.clone()
            };
            out.push((step * 8, saved));
        }
        out.push((8, blob));
        out
    }

    /// `(checkpoints, logical_bytes, stored_bytes, unique_pages,
    /// total_pages)` and the FNV-1a of every checkpoint's bytes in step
    /// order, as the store that hashed every page of every insert
    /// produced them for [`scripted_blobs`].
    const STORE_GOLDEN_STATS: (usize, u64, u64, usize, u64) = (40, 59_200, 14_208, 59, 253);
    const STORE_GOLDEN_BYTES: u64 = 1_097_919_633_769_117_612;

    #[test]
    fn scripted_checkpoints_reproduce_the_stats_of_hashing_every_page() {
        let mut store = StateStore::new(DEFAULT_PAGE_SIZE);
        let blobs = scripted_blobs();
        for (step, blob) in &blobs {
            store.insert(*step, blob);
        }
        let mut round_trip = Vec::new();
        let mut steps: Vec<u64> = blobs.iter().map(|(step, _)| *step).collect();
        steps.sort_unstable();
        steps.dedup();
        for step in steps {
            round_trip.extend(store.get(step).unwrap());
        }
        let s = store.stats();
        assert_eq!(
            (
                s.checkpoints,
                s.logical_bytes,
                s.stored_bytes,
                s.unique_pages,
                s.total_pages
            ),
            STORE_GOLDEN_STATS
        );
        assert_eq!(fnv1a_bytes(&round_trip), STORE_GOLDEN_BYTES);
    }
}
