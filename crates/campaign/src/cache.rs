//! Topology / routing artifact cache.
//!
//! Campaign runs that share a fabric — the same `(topo_spec, seed,
//! lmc)` triple — should not each rebuild the topology and its LFTs:
//! at 256+ switches with LMC ≥ 1 a routing compile dwarfs many of the
//! simulations that use it. [`ArtifactCache`] memoizes any `Send +
//! Sync` artifact behind an [`std::sync::Arc`], building each key at
//! most once even when workers race (losers block on the builder via
//! [`std::sync::OnceLock::get_or_init`]) and counting hits/misses for
//! the campaign report.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Cache key: the fabric identity a compiled artifact belongs to.
///
/// `topo_spec` is the caller's canonical topology string (e.g.
/// `irregular8`, `torus16x16`, `irregular8+apm` when the routing
/// variant matters); `seed` the generator seed; `lmc` the LID mask
/// control the routing was compiled for.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct FabricKey {
    /// Canonical topology-spec string.
    pub(crate) topo_spec: String,
    /// Generator seed.
    pub seed: u64,
    /// LID mask control of the compiled routing.
    pub(crate) lmc: u8,
}

impl FabricKey {
    /// Build a key.
    pub fn new(topo_spec: impl Into<String>, seed: u64, lmc: u8) -> FabricKey {
        FabricKey {
            topo_spec: topo_spec.into(),
            seed,
            lmc,
        }
    }
}

type Slot<V> = Arc<OnceLock<Result<Arc<V>, String>>>;

/// A keyed build-once cache of shared artifacts.
pub struct ArtifactCache<V> {
    slots: Mutex<HashMap<FabricKey, Slot<V>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<V> Default for ArtifactCache<V> {
    fn default() -> Self {
        ArtifactCache::new()
    }
}

impl<V> ArtifactCache<V> {
    /// An empty cache.
    pub fn new() -> ArtifactCache<V> {
        ArtifactCache {
            slots: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The artifact for `key`, building it with `build` on first use.
    ///
    /// Concurrent callers of the same key block until the single
    /// builder finishes; a build error is cached too (retrying a
    /// deterministic builder would fail identically).
    pub fn get_or_build(
        &self,
        key: &FabricKey,
        build: impl FnOnce() -> Result<V, String>,
    ) -> Result<Arc<V>, String> {
        let slot: Slot<V> = {
            let mut slots = self.slots.lock().expect("cache lock poisoned");
            slots.entry(key.clone()).or_default().clone()
        };
        let mut built = false;
        let outcome = slot.get_or_init(|| {
            built = true;
            build().map(Arc::new)
        });
        if built {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        outcome.clone()
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn builds_once_and_counts() {
        let cache: ArtifactCache<u64> = ArtifactCache::new();
        let builds = AtomicU32::new(0);
        let key = FabricKey::new("irregular8", 42, 1);
        for _ in 0..3 {
            let v = cache
                .get_or_build(&key, || {
                    builds.fetch_add(1, Ordering::Relaxed);
                    Ok(7)
                })
                .unwrap();
            assert_eq!(*v, 7);
        }
        assert_eq!(builds.load(Ordering::Relaxed), 1);
        assert_eq!(cache.stats(), (2, 1));
        assert_eq!(cache.slots.lock().unwrap().len(), 1);

        let other = FabricKey::new("irregular8", 43, 1);
        cache.get_or_build(&other, || Ok(9)).unwrap();
        assert_eq!(cache.slots.lock().unwrap().len(), 2);
    }

    #[test]
    fn errors_are_cached() {
        let cache: ArtifactCache<u64> = ArtifactCache::new();
        let key = FabricKey::new("bad", 0, 0);
        assert!(cache.get_or_build(&key, || Err("nope".into())).is_err());
        // Second call must not invoke the builder again.
        let err = cache
            .get_or_build(&key, || panic!("builder must not rerun"))
            .unwrap_err();
        assert_eq!(err, "nope");
    }

    #[test]
    fn concurrent_same_key_builds_once() {
        let cache: Arc<ArtifactCache<u64>> = Arc::new(ArtifactCache::new());
        let builds = Arc::new(AtomicU32::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = cache.clone();
            let builds = builds.clone();
            handles.push(std::thread::spawn(move || {
                let key = FabricKey::new("torus8x8", 1, 1);
                *cache
                    .get_or_build(&key, || {
                        builds.fetch_add(1, Ordering::Relaxed);
                        // Widen the race window.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        Ok(11)
                    })
                    .unwrap()
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 11);
        }
        assert_eq!(builds.load(Ordering::Relaxed), 1);
        let (hits, misses) = cache.stats();
        assert_eq!(misses, 1);
        assert_eq!(hits, 7);
    }
}
