//! The persistent decision cache: `(shape-class, P, topology, arch,
//! ANALYZER_VERSION) → TunePlan`.
//!
//! Shapes are bucketed by their binary orders of magnitude, so steady
//! traffic of same-class problems (the service regime of ROADMAP item 2)
//! plans exactly once; after that every tuning call is one read-locked
//! `HashMap` probe over a `Copy` key returning a `Copy` plan — no
//! allocation, no probe, no model evaluation. The analyzer version rides
//! in the key so that a plan chosen under one generation of schedule
//! proofs does not survive into the next.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{OnceLock, RwLock};

use treesvd_net::TopologyKind;

use crate::plan::{TunePlan, TuneProblem};

/// Log₂-bucketed problem shape: problems in the same bucket share a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShapeClass {
    /// `⌊log₂ max(m,n)⌋` (normalized: rows ≥ cols).
    pub m_log2: u8,
    /// `⌊log₂ min(m,n)⌋`.
    pub n_log2: u8,
}

impl ShapeClass {
    /// The bucket of an `m × n` problem.
    #[must_use]
    pub fn of(m: usize, n: usize) -> Self {
        let lg = |x: usize| (usize::BITS - 1 - x.max(1).leading_zeros()) as u8;
        Self { m_log2: lg(m.max(n)), n_log2: lg(m.min(n).max(1)) }
    }
}

/// The compiled target architecture (fixed per binary).
#[must_use]
pub fn target_arch() -> &'static str {
    std::env::consts::ARCH
}

/// The widest f64 SIMD tier this binary was compiled with (the same
/// ladder `bench::meta::simd_tier` records into the BENCH meta blocks).
#[must_use]
pub fn simd_tier() -> &'static str {
    if cfg!(target_feature = "avx512f") {
        "avx512f"
    } else if cfg!(target_feature = "avx2") {
        "avx2"
    } else if cfg!(target_feature = "avx") {
        "avx"
    } else if cfg!(target_feature = "sse2") {
        "sse2"
    } else {
        "scalar"
    }
}

/// The full cache key. Every field is `Copy` (the strings are `'static`),
/// so key construction on the warm path never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TuneKey {
    /// Bucketed shape.
    pub shape: ShapeClass,
    /// Host-parallelism budget.
    pub processors: u16,
    /// Comm topology.
    pub topology: TopologyKind,
    /// Compile-target architecture.
    pub arch: &'static str,
    /// Compiled SIMD tier (the plan's kernel choices depend on it).
    pub simd: &'static str,
    /// Analyzer generation the plan's gate assumptions were made under.
    pub analyzer_version: u32,
}

impl TuneKey {
    /// The key a problem tunes under in this binary.
    #[must_use]
    pub fn of(problem: &TuneProblem) -> Self {
        Self {
            shape: ShapeClass::of(problem.m, problem.n),
            processors: problem.processors.min(u16::MAX as usize) as u16,
            topology: problem.topology,
            arch: target_arch(),
            simd: simd_tier(),
            analyzer_version: treesvd_analyze::ANALYZER_VERSION,
        }
    }
}

/// Thread-safe decision cache with hit/miss counters (the counters are
/// how the smoke gate proves the warm path never re-plans).
#[derive(Debug, Default)]
pub struct TuneCache {
    map: RwLock<HashMap<TuneKey, TunePlan>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl TuneCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up a plan. A hit is one read-locked probe of a `Copy` key —
    /// allocation-free.
    pub fn get(&self, key: &TuneKey) -> Option<TunePlan> {
        let hit =
            self.map.read().unwrap_or_else(std::sync::PoisonError::into_inner).get(key).copied();
        match hit {
            Some(p) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(p)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Memoize a plan.
    pub fn insert(&self, key: TuneKey, plan: TunePlan) {
        self.map.write().unwrap_or_else(std::sync::PoisonError::into_inner).insert(key, plan);
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct keys planned.
    pub fn len(&self) -> usize {
        self.map.read().unwrap_or_else(std::sync::PoisonError::into_inner).len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all memoized plans (tests / recalibration).
    pub fn clear(&self) {
        self.map.write().unwrap_or_else(std::sync::PoisonError::into_inner).clear();
    }
}

/// The process-wide decision cache every [`plan_for`](crate::plan_for)
/// call consults.
#[must_use]
pub fn global() -> &'static TuneCache {
    static CACHE: OnceLock<TuneCache> = OnceLock::new();
    CACHE.get_or_init(TuneCache::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{DriverSel, KernelSel};
    use treesvd_orderings::OrderingKind;

    fn dummy_plan() -> TunePlan {
        TunePlan {
            driver: DriverSel::Simulated,
            ordering: OrderingKind::FatTree,
            kernel: KernelSel::Gram,
            block_cols: 1,
            threads: 4,
            predicted_ns: 1.0,
        }
    }

    #[test]
    fn shape_class_buckets_by_log2() {
        assert_eq!(ShapeClass::of(1024, 32), ShapeClass::of(2000, 63));
        assert_ne!(ShapeClass::of(1024, 32), ShapeClass::of(1024, 64));
        // normalized: wide and tall land in the same bucket
        assert_eq!(ShapeClass::of(32, 1024), ShapeClass::of(1024, 32));
        // degenerate sizes don't panic
        let _ = ShapeClass::of(0, 0);
    }

    #[test]
    fn same_class_problems_share_a_key() {
        let a = TuneKey::of(&TuneProblem::new(1024, 32).with_processors(8));
        let b = TuneKey::of(&TuneProblem::new(1500, 48).with_processors(8));
        assert_eq!(a, b);
        let c = TuneKey::of(&TuneProblem::new(1024, 32).with_processors(16));
        assert_ne!(a, c);
        assert_eq!(a.analyzer_version, treesvd_analyze::ANALYZER_VERSION);
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let cache = TuneCache::new();
        let key = TuneKey::of(&TuneProblem::new(256, 16));
        assert!(cache.get(&key).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        cache.insert(key, dummy_plan());
        assert_eq!(cache.get(&key).unwrap(), dummy_plan());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn arch_tags_are_nonempty() {
        assert!(!target_arch().is_empty());
        assert!(!simd_tier().is_empty());
    }
}
