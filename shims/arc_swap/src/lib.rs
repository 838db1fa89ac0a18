//! Offline stand-in for the `arc-swap` crate: a swappable `Arc<T>`.
//!
//! The surface is the subset of upstream `arc-swap` this workspace uses
//! ([`ArcSwap::new`], [`ArcSwap::load_full`], [`ArcSwap::store`], with
//! upstream's signatures), over a `RwLock<Arc<T>>`. `load_full` holds the
//! read lock only to clone the `Arc`; `store` swaps under the write lock and
//! drops the old `Arc` after unlocking. A value lives exactly as long as its
//! last `Arc`: a held value pins nothing else, and swaps share no state.

use std::sync::{Arc, PoisonError, RwLock};

/// A swappable `Arc<T>`: readers clone the current value out, writers
/// replace it.
pub struct ArcSwap<T> {
    current: RwLock<Arc<T>>,
}

impl<T> ArcSwap<T> {
    pub fn new(value: Arc<T>) -> Self {
        ArcSwap {
            current: RwLock::new(value),
        }
    }

    /// Clone out the current `Arc`.
    pub fn load_full(&self) -> Arc<T> {
        Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Publish a new value. Readers that loaded before the swap keep their
    /// old value; readers that load after it see the new one.
    pub fn store(&self, new: Arc<T>) {
        let mut current = self.current.write().unwrap_or_else(PoisonError::into_inner);
        let old = std::mem::replace(&mut *current, new);
        drop(current);
        drop(old);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};

    /// A payload whose two halves must always agree — a torn read would
    /// surface as a mismatch — plus a drop counter for reclamation checks.
    struct Pair {
        a: u64,
        b: u64,
        drops: Arc<AtomicUsize>,
    }

    impl Drop for Pair {
        fn drop(&mut self) {
            self.drops.fetch_add(1, SeqCst);
        }
    }

    fn pair(v: u64, drops: &Arc<AtomicUsize>) -> Arc<Pair> {
        Arc::new(Pair {
            a: v,
            b: v,
            drops: drops.clone(),
        })
    }

    #[test]
    fn store_then_load_sees_new_value() {
        let drops = Arc::new(AtomicUsize::new(0));
        let s = ArcSwap::new(pair(1, &drops));
        assert_eq!(s.load_full().a, 1);
        s.store(pair(2, &drops));
        assert_eq!(s.load_full().b, 2);
        // The superseded value had no other owner.
        assert_eq!(drops.load(SeqCst), 1);
    }

    #[test]
    fn held_value_outlives_stores_and_is_freed_at_its_last_drop() {
        let drops = Arc::new(AtomicUsize::new(0));
        let s = ArcSwap::new(pair(7, &drops));
        let kept = s.load_full();
        for v in 0..100 {
            s.store(pair(v, &drops));
        }
        assert_eq!((kept.a, kept.b), (7, 7));
        // Every superseded value except the held one is already gone.
        assert_eq!(drops.load(SeqCst), 99);
        drop(kept);
        // Freed at its last drop, without waiting for another store.
        assert_eq!(drops.load(SeqCst), 100);
        drop(s);
        assert_eq!(drops.load(SeqCst), 101);
    }

    #[test]
    fn a_held_value_pins_nothing_else() {
        let drops_a = Arc::new(AtomicUsize::new(0));
        let drops_b = Arc::new(AtomicUsize::new(0));
        let a = ArcSwap::new(pair(0, &drops_a));
        let b = ArcSwap::new(pair(0, &drops_b));
        let stuck = a.load_full();
        for v in 1..=100 {
            a.store(pair(v, &drops_a));
            b.store(pair(v, &drops_b));
        }
        // A reader stuck on one swap's value holds back only that value.
        assert_eq!(drops_b.load(SeqCst), 100);
        assert_eq!(drops_a.load(SeqCst), 99);
        assert_eq!(stuck.a, 0);
    }

    #[test]
    fn concurrent_readers_never_tear_and_nothing_leaks() {
        let drops = Arc::new(AtomicUsize::new(0));
        let s = Arc::new(ArcSwap::new(pair(0, &drops)));
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let s = &s;
                let stop = &stop;
                scope.spawn(move || {
                    while !stop.load(SeqCst) {
                        let v = s.load_full();
                        // Racing writers publish in arbitrary order, but
                        // every loaded value must be internally consistent.
                        assert_eq!(v.a, v.b, "torn read");
                    }
                });
            }
            for w in 0..2 {
                let s = &s;
                let drops = &drops;
                scope.spawn(move || {
                    for i in 0..2_000u64 {
                        s.store(pair(4_000 + i * 2 + w, drops));
                    }
                });
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
            stop.store(true, SeqCst);
        });
        let total = 1 + 2 * 2_000;
        drop(s);
        assert_eq!(drops.load(SeqCst), total, "leaked superseded values");
    }

    #[test]
    fn monotone_under_single_writer() {
        let drops = Arc::new(AtomicUsize::new(0));
        let s = Arc::new(ArcSwap::new(pair(0, &drops)));
        std::thread::scope(|scope| {
            let reader = {
                let s = &s;
                scope.spawn(move || {
                    let mut seen = 0u64;
                    let mut last = 0u64;
                    while last < 999 {
                        let v = s.load_full().a;
                        assert!(v >= last);
                        last = v;
                        seen += 1;
                    }
                    seen
                })
            };
            for i in 1..=999u64 {
                s.store(pair(i, &drops));
            }
            assert!(reader.join().unwrap() > 0);
        });
    }
}
