//! A fixed-capacity vector stored entirely inline (no heap).
//!
//! The simulator's arbitration loop builds several small, short-lived
//! collections *per decision*: the candidate list of a VL buffer (at most
//! three read points), the feasible-option list of a routed packet (at
//! most one entry per switch port) and its credit-tie subset. Switch
//! radix and routing options are small by construction — the paper's
//! networks use 8–10 port switches and at most 4 routing options — so a
//! few dozen inline slots cover every case and the per-event heap
//! allocations those `Vec`s used to cost disappear from the hot path.
//!
//! [`InlineVec`] is the minimal slice-backed subset of the `Vec` API the
//! workspace needs: `push`/`clear`/`retain`/`pop`, `Deref` to `[T]` (so
//! iteration, indexing, `contains`, `iter().max()` etc. come for free),
//! `Extend`/`FromIterator`, and slice-shaped equality so tests can
//! compare against `vec![..]` literals. Pushing beyond `N` panics — for
//! the bounded call sites above that is a logic error on par with an
//! out-of-bounds index, and [`crate::IbaError`]-returning constructors
//! validate the bounds (e.g. switch radix) up front.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::mem::MaybeUninit;
use std::ops::{Deref, DerefMut};

/// Largest switch radix the inline hot-path collections are sized for.
///
/// Topology builders reject switches with more ports than this at
/// routing-compilation time, which in turn bounds every adaptive option
/// list and feasible-candidate set. Sized so a 64-switch full mesh
/// (63 inter-switch links + 4 hosts = 67 ports) fits with headroom —
/// the routing-engine zoo runs FA over a direct full-mesh escape layer
/// at that scale.
pub const MAX_PORTS: usize = 80;

/// A `Vec`-like container holding at most `N` elements inline.
pub struct InlineVec<T, const N: usize> {
    len: usize,
    data: [MaybeUninit<T>; N],
}

impl<T, const N: usize> InlineVec<T, N> {
    /// An empty vector.
    #[inline]
    pub fn new() -> Self {
        InlineVec {
            len: 0,
            // SAFETY: an array of `MaybeUninit` needs no initialization.
            data: unsafe { MaybeUninit::uninit().assume_init() },
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append an element.
    ///
    /// # Panics
    /// When the vector is full — exceeding a bound that construction-time
    /// validation guarantees is a logic bug, not a recoverable condition.
    #[inline]
    pub fn push(&mut self, value: T) {
        assert!(self.len < N, "InlineVec capacity {N} exceeded");
        self.data[self.len].write(value);
        self.len += 1;
    }

    /// Remove and return the last element.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        // SAFETY: slot `len` was initialized by `push` and is now out of
        // the live range, so reading it out transfers ownership.
        Some(unsafe { self.data[self.len].assume_init_read() })
    }

    /// Drop every element.
    #[inline]
    pub fn clear(&mut self) {
        while self.pop().is_some() {}
    }

    /// Keep only the elements for which `f` returns `true`, preserving
    /// order.
    pub fn retain(&mut self, mut f: impl FnMut(&T) -> bool) {
        let mut kept = 0;
        for i in 0..self.len {
            // SAFETY: `i < len`, so the slot is initialized; each slot is
            // read out exactly once and either re-written into the kept
            // prefix or dropped.
            let v = unsafe { self.data[i].assume_init_read() };
            if f(&v) {
                self.data[kept].write(v);
                kept += 1;
            }
        }
        self.len = kept;
    }

    /// View as a slice.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[T] {
        // SAFETY: the first `len` slots are initialized.
        unsafe { std::slice::from_raw_parts(self.data.as_ptr().cast(), self.len) }
    }

    /// View as a mutable slice.
    #[inline]
    pub(crate) fn as_mut_slice(&mut self) -> &mut [T] {
        // SAFETY: the first `len` slots are initialized.
        unsafe { std::slice::from_raw_parts_mut(self.data.as_mut_ptr().cast(), self.len) }
    }
}

impl<T, const N: usize> Drop for InlineVec<T, N> {
    fn drop(&mut self) {
        self.clear();
    }
}

impl<T, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        InlineVec::new()
    }
}

impl<T, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T, const N: usize> DerefMut for InlineVec<T, N> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Clone, const N: usize> Clone for InlineVec<T, N> {
    fn clone(&self) -> Self {
        let mut out = InlineVec::new();
        for v in self.as_slice() {
            out.push(v.clone());
        }
        out
    }
}

impl<T: fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl<T, const N: usize> Extend<T> for InlineVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for v in iter {
            self.push(v);
        }
    }
}

impl<T, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = InlineVec::new();
        out.extend(iter);
        out
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<T: PartialEq, const N: usize, const M: usize> PartialEq<InlineVec<T, M>> for InlineVec<T, N> {
    fn eq(&self, other: &InlineVec<T, M>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: PartialEq, const N: usize> PartialEq<Vec<T>> for InlineVec<T, N> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: PartialEq, const N: usize> PartialEq<InlineVec<T, N>> for Vec<T> {
    fn eq(&self, other: &InlineVec<T, N>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: PartialEq, const N: usize> PartialEq<[T]> for InlineVec<T, N> {
    fn eq(&self, other: &[T]) -> bool {
        self.as_slice() == other
    }
}

impl<T: PartialEq, const N: usize, const M: usize> PartialEq<[T; M]> for InlineVec<T, N> {
    fn eq(&self, other: &[T; M]) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: Hash, const N: usize> Hash for InlineVec<T, N> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    #[test]
    fn push_pop_len() {
        let mut v: InlineVec<u32, 4> = InlineVec::new();
        assert!(v.is_empty());
        v.push(1);
        v.push(2);
        assert_eq!(v.len(), 2);
        assert_eq!(v.pop(), Some(2));
        assert_eq!(v.pop(), Some(1));
        assert_eq!(v.pop(), None);
    }

    #[test]
    #[should_panic(expected = "capacity 2 exceeded")]
    fn overflow_panics() {
        let mut v: InlineVec<u8, 2> = InlineVec::new();
        v.push(0);
        v.push(1);
        v.push(2);
    }

    #[test]
    fn slice_behaviour_through_deref() {
        let v: InlineVec<u32, 8> = (0..5).collect();
        assert_eq!(v[2], 2);
        assert!(v.contains(&4));
        assert_eq!(v.iter().max(), Some(&4));
        assert_eq!(v.iter().copied().sum::<u32>(), 10);
        assert_eq!(v, vec![0, 1, 2, 3, 4]);
        assert_eq!(v, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn retain_keeps_order() {
        let mut v: InlineVec<u32, 8> = (0..8).collect();
        v.retain(|&x| x % 3 != 0);
        assert_eq!(v, vec![1, 2, 4, 5, 7]);
        v.retain(|_| false);
        assert!(v.is_empty());
    }

    #[test]
    fn clone_and_eq() {
        let v: InlineVec<String, 4> = ["a", "b"].iter().map(|s| s.to_string()).collect();
        let w = v.clone();
        assert_eq!(v, w);
        let shorter: InlineVec<String, 2> = ["a"].iter().map(|s| s.to_string()).collect();
        assert!(v != shorter);
    }

    #[test]
    fn drops_run_exactly_once() {
        let marker = Rc::new(());
        {
            let mut v: InlineVec<Rc<()>, 8> = InlineVec::new();
            for _ in 0..6 {
                v.push(marker.clone());
            }
            v.retain(|_| false); // retain drops the removed elements
            for _ in 0..3 {
                v.push(marker.clone());
            }
            // Drop of the vector drops the rest.
        }
        assert_eq!(Rc::strong_count(&marker), 1);
    }

    #[test]
    fn mutation_through_deref_mut() {
        let mut v: InlineVec<u32, 4> = (0..4).collect();
        v.sort_unstable_by_key(|&x| std::cmp::Reverse(x));
        assert_eq!(v, vec![3, 2, 1, 0]);
        v[0] = 9;
        assert_eq!(v[0], 9);
    }
}
