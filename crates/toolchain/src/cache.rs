//! Content-addressed compile cache: source text → compiled [`Program`],
//! with LRU eviction and hit/miss/eviction accounting.
//!
//! The key is the source text alone. Only minilang reaches the compiler
//! (`LanguageId::executable_here`) and the compiler takes no
//! flags, so the text decides the program. The key hashes the *content*,
//! not the owner: thirty students submitting the same starter code share
//! one compilation. The per-owner [`crate::ArtifactId`] namespace is
//! unaffected — the cache sits in front of the compiler, not the artifact
//! store.

use minilang::Program;
use std::collections::HashMap;

/// Cache key: FNV-1a over the source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey(u64);

impl CacheKey {
    /// Derive the key for a source text.
    pub fn derive(source: &str) -> CacheKey {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in source.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        CacheKey(h)
    }
}

#[derive(Debug)]
struct CacheEntry {
    /// Full source kept to reject hash collisions on lookup.
    source: String,
    program: Program,
    /// Logical LRU stamp (bumped on every hit).
    used_at: u64,
}

/// Running totals, cheap to copy into metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a program.
    pub hits: u64,
    /// Lookups that found nothing (or a colliding key).
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Live entries.
    pub entries: usize,
}

impl CacheStats {
    /// Hit ratio over all lookups (0 when the cache was never consulted).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The compile cache. Owned by the portal (one per deployment), consulted
/// by [`crate::SourceSnapshot::compile`].
#[derive(Debug)]
pub struct CompileCache {
    capacity: usize,
    clock: u64,
    entries: HashMap<CacheKey, CacheEntry>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl CompileCache {
    /// A cache holding at most `capacity` compiled programs. Capacity 0
    /// disables caching (every lookup misses, inserts are dropped).
    pub fn new(capacity: usize) -> CompileCache {
        CompileCache {
            capacity,
            clock: 0,
            entries: HashMap::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Look up a compilation. A hit requires the stored source to match
    /// byte-for-byte — a hash collision counts as a miss and will be
    /// replaced on the next insert.
    pub fn lookup(&mut self, source: &str) -> Option<Program> {
        let key = CacheKey::derive(source);
        match self.entries.get_mut(&key) {
            Some(e) if e.source == source => {
                self.clock += 1;
                e.used_at = self.clock;
                self.hits += 1;
                Some(e.program.clone())
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert a successful compilation, evicting the least-recently-used
    /// entry when full.
    pub fn insert(&mut self, source: &str, program: Program) {
        if self.capacity == 0 {
            return;
        }
        let key = CacheKey::derive(source);
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            if let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.used_at)
                .map(|(k, _)| *k)
            {
                self.entries.remove(&victim);
                self.evictions += 1;
            }
        }
        self.clock += 1;
        self.entries.insert(
            key,
            CacheEntry {
                source: source.to_string(),
                program,
                used_at: self.clock,
            },
        );
    }

    /// Current totals.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.entries.len(),
        }
    }
}

/// Register (describe + zero-value) every `ccp_compile_cache_*` family so
/// a metrics scrape shows them before the first compilation.
pub fn register_cache_metrics(obs: &obs::Obs) {
    let m = &obs.metrics;
    m.describe("ccp_compile_cache_hits_total", "compile cache hits");
    m.describe("ccp_compile_cache_misses_total", "compile cache misses");
    m.describe(
        "ccp_compile_cache_evictions_total",
        "compile cache LRU evictions",
    );
    m.describe("ccp_compile_cache_entries", "live compile cache entries");
    m.counter("ccp_compile_cache_hits_total", &[]);
    m.counter("ccp_compile_cache_misses_total", &[]);
    m.counter("ccp_compile_cache_evictions_total", &[]);
    m.gauge("ccp_compile_cache_entries", &[]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prog(src: &str) -> Program {
        minilang::compile(src).unwrap()
    }

    #[test]
    fn same_input_hits_and_returns_identical_program() {
        let mut cache = CompileCache::new(8);
        let src = "fn main() { println(1); }";
        assert!(cache.lookup(src).is_none());
        cache.insert(src, prog(src));
        let hit = cache.lookup(src).expect("hit");
        assert_eq!(format!("{hit:?}"), format!("{:?}", prog(src)));
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn one_byte_change_misses() {
        let mut cache = CompileCache::new(8);
        let src = "fn main() { println(1); }";
        cache.insert(src, prog(src));
        let changed = "fn main() { println(2); }";
        assert!(cache.lookup(changed).is_none());
    }

    #[test]
    fn lru_eviction_counts_and_bounds_size() {
        let mut cache = CompileCache::new(2);
        let sources = [
            "fn main() { return 1; }",
            "fn main() { return 2; }",
            "fn main() { return 3; }",
        ];
        for s in &sources {
            cache.insert(s, prog(s));
        }
        let st = cache.stats();
        assert_eq!(st.entries, 2);
        assert_eq!(st.evictions, 1);
        // The first insert was least recently used: it is the victim.
        assert!(cache.lookup(sources[0]).is_none());
        assert!(cache.lookup(sources[2]).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = CompileCache::new(0);
        let src = "fn main() { }";
        cache.insert(src, prog(src));
        assert!(cache.lookup(src).is_none());
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn hit_rate_tracks_resubmissions() {
        let mut cache = CompileCache::new(8);
        let src = "fn main() { println(7); }";
        for round in 0..10 {
            if cache.lookup(src).is_none() {
                assert_eq!(round, 0, "only the first round may miss");
                cache.insert(src, prog(src));
            }
        }
        assert!(cache.stats().hit_rate() >= 0.9);
    }
}
