//! The in-memory key-value store backing both memcached applications.
//!
//! The store is *functional* (a real hash map holding real bytes) and
//! *performance-modeled* (each operation emits the op stream of a bucket
//! lookup, entry pointer chase, key compare and value access at concrete
//! simulated heap addresses, so cache behaviour is faithful).

use std::collections::HashMap;

use simnet_cpu::{ops, Op};
use simnet_mem::{layout, Addr};
use simnet_net::proto::memcached::{nth_key_into, NTH_KEY_LEN};
use simnet_sim::random::{SimRng, Zipf};
use simnet_sim::stats::Counter;

/// Byte stride reserved per entry in the simulated heap.
const ENTRY_STRIDE: u64 = 256;
/// Offset of the entry region above the bucket array.
const ENTRY_REGION_OFFSET: u64 = 16 << 20;

#[derive(Debug, Clone)]
struct Entry {
    index: usize,
    value: Vec<u8>,
}

/// KV-store statistics.
#[derive(Debug, Default, Clone)]
pub struct KvStats {
    /// GET hits.
    pub hits: Counter,
    /// GET misses.
    pub misses: Counter,
    /// SETs applied.
    pub sets: Counter,
}

/// The store.
///
/// ```
/// use simnet_apps::KvStore;
/// let mut store = KvStore::new(4096);
/// let mut ops = Vec::new();
/// store.set(b"k", b"v", &mut ops);
/// assert_eq!(store.get(b"k", &mut ops), Some(&b"v"[..]));
/// assert_eq!(store.get(b"absent", &mut ops), None);
/// assert!(!ops.is_empty(), "operations emit modeled work");
/// ```
#[derive(Debug)]
pub struct KvStore {
    buckets: u64,
    /// Byte offset of this store's heap slice above `HEAP_BASE` — zero
    /// for the legacy whole-store layout, `lcore * 64 MiB` for a shard.
    base_offset: u64,
    map: HashMap<Vec<u8>, Entry>,
    next_entry: usize,
    stats: KvStats,
}

impl KvStore {
    /// Creates a store with `buckets` hash buckets.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero.
    pub fn new(buckets: u64) -> Self {
        assert!(buckets > 0, "need at least one bucket");
        Self {
            buckets,
            base_offset: 0,
            map: HashMap::new(),
            next_entry: 0,
            stats: KvStats::default(),
        }
    }

    /// Moves the store's bucket array and entry region `offset` bytes up
    /// the simulated heap, so per-lcore shards occupy disjoint slices.
    pub fn with_base_offset(mut self, offset: u64) -> Self {
        self.base_offset = offset;
        self
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Operation statistics.
    pub fn stats(&self) -> &KvStats {
        &self.stats
    }

    fn hash(key: &[u8]) -> u64 {
        // FNV-1a.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in key {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    fn bucket_addr(&self, key: &[u8]) -> Addr {
        layout::HEAP_BASE + self.base_offset + (Self::hash(key) % self.buckets) * 8
    }

    fn entry_addr(&self, index: usize) -> Addr {
        layout::HEAP_BASE + self.base_offset + ENTRY_REGION_OFFSET + index as u64 * ENTRY_STRIDE
    }

    fn emit_lookup_path(&self, key: &[u8], entry: Option<&Entry>, ops_out: &mut Vec<Op>) {
        // Hash the key (touches the key bytes)...
        ops_out.push(Op::Compute(30 + 2 * key.len() as u64));
        // ...walk the bucket pointer...
        ops_out.push(Op::DependentLoad(self.bucket_addr(key)));
        if let Some(entry) = entry {
            let addr = self.entry_addr(entry.index);
            // ...chase to the entry and compare the stored key.
            ops_out.push(Op::DependentLoad(addr));
            ops::loads_over(ops_out, addr, key.len().max(8) as u64);
            ops_out.push(Op::Compute(key.len() as u64));
        }
    }

    /// Looks up `key`, emitting the modeled work into `ops_out`.
    pub fn get(&mut self, key: &[u8], ops_out: &mut Vec<Op>) -> Option<&[u8]> {
        // Split borrows: compute the path first.
        let entry_snapshot = self.map.get(key).map(|e| (e.index, e.value.len()));
        match entry_snapshot {
            Some((index, value_len)) => {
                self.emit_lookup_path(
                    key,
                    Some(&Entry {
                        index,
                        value: Vec::new(),
                    }),
                    ops_out,
                );
                // Read the value out of the entry.
                ops::loads_over(
                    ops_out,
                    self.entry_addr(index) + 64,
                    value_len.max(1) as u64,
                );
                self.stats.hits.inc();
                self.map.get(key).map(|e| e.value.as_slice())
            }
            None => {
                self.emit_lookup_path(key, None, ops_out);
                self.stats.misses.inc();
                None
            }
        }
    }

    /// Inserts or replaces `key` → `value`, emitting the modeled work.
    /// The bytes are copied into the store only here, where ownership is
    /// genuinely needed — callers keep their borrowed views.
    pub fn set(&mut self, key: &[u8], value: &[u8], ops_out: &mut Vec<Op>) {
        let index = match self.map.get(key) {
            Some(e) => e.index,
            None => {
                let i = self.next_entry;
                self.next_entry += 1;
                i
            }
        };
        self.emit_lookup_path(
            key,
            Some(&Entry {
                index,
                value: Vec::new(),
            }),
            ops_out,
        );
        // Write the value into the entry.
        let addr = self.entry_addr(index) + 64;
        ops::stores_over(ops_out, addr, value.len().max(1) as u64);
        self.stats.sets.inc();
        match self.map.get_mut(key) {
            Some(entry) => {
                entry.value.clear();
                entry.value.extend_from_slice(value);
            }
            None => {
                self.map.insert(
                    key.to_vec(),
                    Entry {
                        index,
                        value: value.to_vec(),
                    },
                );
            }
        }
    }

    /// Warms the store with those of `count` keys named by
    /// [`nth_key_into`] that `keep` accepts, with
    /// Zipfian value lengths — the paper warms "the Memcached server with
    /// 5000 keys" (§VI.A). The RNG is drawn for every key, kept or not,
    /// so stores warmed from one seed agree on every value they share.
    pub fn warm(
        &mut self,
        count: u64,
        lengths: &Zipf,
        rng: &mut SimRng,
        keep: impl Fn(&[u8]) -> bool,
    ) {
        let mut scratch = Vec::new();
        let mut key = [0u8; NTH_KEY_LEN];
        for i in 0..count {
            nth_key_into(i, &mut key);
            let len = lengths.sample(rng) as usize;
            if !keep(&key) {
                continue;
            }
            let value = vec![(i % 251) as u8; len];
            self.set(&key, &value, &mut scratch);
            scratch.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `i`-th key name.
    fn key_name(i: u64) -> [u8; NTH_KEY_LEN] {
        let mut key = [0u8; NTH_KEY_LEN];
        nth_key_into(i, &mut key);
        key
    }

    #[test]
    fn set_get_round_trip() {
        let mut store = KvStore::new(1024);
        let mut ops = Vec::new();
        store.set(b"alpha", &[1, 2, 3], &mut ops);
        assert_eq!(store.get(b"alpha", &mut ops), Some(&[1u8, 2, 3][..]));
        assert_eq!(store.len(), 1);
        assert_eq!(store.stats().hits.value(), 1);
        assert_eq!(store.stats().sets.value(), 1);
    }

    #[test]
    fn miss_is_counted_and_cheap() {
        let mut store = KvStore::new(1024);
        let mut hit_ops = Vec::new();
        let mut miss_ops = Vec::new();
        store.set(b"k", &[0; 100], &mut Vec::new());
        store.get(b"k", &mut hit_ops);
        store.get(b"nope", &mut miss_ops);
        assert_eq!(store.stats().misses.value(), 1);
        assert!(miss_ops.len() < hit_ops.len());
    }

    #[test]
    fn overwrite_keeps_entry_slot() {
        let mut store = KvStore::new(64);
        let mut ops = Vec::new();
        store.set(b"k", &[1], &mut ops);
        store.set(b"k", &[2, 2], &mut ops);
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(b"k", &mut ops), Some(&[2u8, 2][..]));
    }

    #[test]
    fn lookups_emit_dependent_chains() {
        let mut store = KvStore::new(64);
        let mut ops = Vec::new();
        store.set(b"key", &[0; 64], &mut Vec::new());
        store.get(b"key", &mut ops);
        let chases = ops
            .iter()
            .filter(|o| matches!(o, Op::DependentLoad(_)))
            .count();
        assert_eq!(chases, 2, "bucket + entry pointer chase");
    }

    #[test]
    fn warm_populates_paper_keyspace() {
        let mut store = KvStore::new(4096);
        let zipf = Zipf::paper_lengths();
        let mut rng = SimRng::seed_from(1);
        store.warm(5000, &zipf, &mut rng, |_| true);
        assert_eq!(store.len(), 5000);
        let mut ops = Vec::new();
        let v = store.get(&key_name(1234), &mut ops).expect("warmed key");
        assert!((10..=100).contains(&v.len()));
    }

    #[test]
    fn values_land_at_distinct_heap_addresses() {
        let store = KvStore::new(64);
        assert_ne!(store.entry_addr(0), store.entry_addr(1));
        assert!(store.entry_addr(0) >= layout::HEAP_BASE);
    }

    #[test]
    fn shard_warms_partition_the_keyspace_exactly() {
        let zipf = Zipf::paper_lengths();
        let mut whole = KvStore::new(4096);
        let mut rng = SimRng::seed_from(1);
        whole.warm(5000, &zipf, &mut rng, |_| true);

        let parts = 4;
        let part_of = |key: &[u8]| KvStore::hash(key) % parts;
        let mut total = 0;
        for part in 0..parts {
            let mut shard = KvStore::new(4096).with_base_offset(part * (64 << 20));
            // Same seed per shard: the RNG is drawn for every key, so
            // value lengths match the whole-store warm exactly.
            let mut rng = SimRng::seed_from(1);
            shard.warm(5000, &zipf, &mut rng, |key| part_of(key) == part);
            total += shard.len();
            // Spot-check one kept key against the whole store.
            for i in 0..5000u64 {
                let key = key_name(i);
                if part_of(&key) == part {
                    let mut ops = Vec::new();
                    let got = shard.get(&key, &mut ops).expect("shard keeps key");
                    let mut ops2 = Vec::new();
                    let want = whole.get(&key, &mut ops2).expect("warmed key");
                    assert_eq!(got, want, "shard value diverged for key {i}");
                    break;
                }
            }
        }
        assert_eq!(total, 5000, "shards partition the keyspace");
    }
}
