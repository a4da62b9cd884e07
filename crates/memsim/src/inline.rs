//! A fixed-capacity list stored inline.
//!
//! Every walk in the simulator performs a bounded number of memory
//! references: at most five PTE reads for an Sv57 walk, three pmpte reads
//! for a three-level PMP Table, 23 host references for an Sv57 guest over
//! Sv39x4. The walkers report those references in an [`InlineVec`] sized to
//! the bound, so producing a walk's reference list never touches the heap.

use std::fmt;
use std::ops::Deref;

/// Up to `N` values of `T` held in a `[T; N]` plus a length. Derefs to the
/// filled prefix as a `&[T]`, so it reads like the `Vec` it stands in for;
/// `==` and `Debug` likewise see only the filled prefix.
///
/// Unfilled slots hold `T::default()`, which is never observable.
///
/// ```
/// use hpmp_memsim::InlineVec;
///
/// let mut refs: InlineVec<u64, 3> = InlineVec::new();
/// refs.push(0x1000);
/// refs.push(0x2000);
/// assert_eq!(refs.len(), 2);
/// assert_eq!(refs[..], [0x1000, 0x2000]);
/// assert_eq!(format!("{refs:?}"), "[4096, 8192]");
/// ```
#[derive(Clone, Copy)]
pub struct InlineVec<T, const N: usize> {
    items: [T; N],
    len: usize,
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// An empty list.
    pub fn new() -> InlineVec<T, N> {
        InlineVec {
            items: [T::default(); N],
            len: 0,
        }
    }

    /// Appends `item`.
    ///
    /// # Panics
    ///
    /// Panics if the list already holds `N` items: a walk performed more
    /// references than its structure allows.
    pub fn push(&mut self, item: T) {
        assert!(self.len < N, "InlineVec capacity {N} exceeded");
        self.items[self.len] = item;
        self.len += 1;
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> InlineVec<T, N> {
        InlineVec::new()
    }
}

impl<T, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.items[..self.len]
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &InlineVec<T, N>) -> bool {
        **self == **other
    }
}

impl<T: Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_to_capacity() {
        let mut list: InlineVec<u32, 3> = InlineVec::new();
        assert!(list.is_empty());
        for i in 0..3 {
            list.push(i);
        }
        assert_eq!(list.len(), 3);
        assert_eq!(list[..], [0, 1, 2]);
        assert_eq!(list.last(), Some(&2));
        assert_eq!((&list).into_iter().sum::<u32>(), 3);
    }

    #[test]
    #[should_panic(expected = "InlineVec capacity 3 exceeded")]
    fn overflow_panics() {
        let mut list: InlineVec<u32, 3> = InlineVec::new();
        for i in 0..4 {
            list.push(i);
        }
    }

    /// `==` and `Debug` agree with the `Vec` holding the same items, and
    /// stale slots past the length never show.
    #[test]
    fn eq_and_debug_match_vec() {
        let lists: [&[i64]; 4] = [&[], &[7], &[7, -1], &[7, -1, 3]];
        for a in lists {
            let inline_a = from(a);
            assert_eq!(format!("{inline_a:?}"), format!("{:?}", a.to_vec()));
            assert_eq!(format!("{inline_a:#?}"), format!("{:#?}", a.to_vec()));
            for b in lists {
                assert_eq!(inline_a == from(b), a.to_vec() == b.to_vec());
            }
        }
        // Same prefix, different (unobservable) tails: still equal.
        let mut x = from(&[1, 2]);
        x.items[2] = 9;
        assert_eq!(x, from(&[1, 2]));
    }

    fn from(items: &[i64]) -> InlineVec<i64, 3> {
        let mut list = InlineVec::new();
        for &item in items {
            list.push(item);
        }
        list
    }
}
