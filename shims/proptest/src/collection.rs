//! Collection strategies: `prop::collection::{vec, btree_set}`.

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::collections::BTreeSet;
use std::ops::{Range, RangeInclusive};

/// Size specifications accepted by the collection strategies.
pub trait SizeRange {
    /// Draws a collection size.
    fn sample_size(&self, rng: &mut TestRng) -> usize;
}

impl SizeRange for Range<usize> {
    fn sample_size(&self, rng: &mut TestRng) -> usize {
        assert!(self.start < self.end, "collection size range is empty");
        self.start + rng.below((self.end - self.start) as u64) as usize
    }
}

impl SizeRange for RangeInclusive<usize> {
    fn sample_size(&self, rng: &mut TestRng) -> usize {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "collection size range is empty");
        lo + rng.below((hi - lo + 1) as u64) as usize
    }
}

impl SizeRange for usize {
    fn sample_size(&self, _rng: &mut TestRng) -> usize {
        *self
    }
}

/// Generates `Vec`s whose length is drawn from `size`.
pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
    VecStrategy { element, size }
}

/// Result of [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S, R> {
    element: S,
    size: R,
}

impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
    type Value = Vec<S::Value>;
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        let n = self.size.sample_size(rng);
        (0..n).map(|_| self.element.sample(rng)).collect()
    }
}

/// Generates `BTreeSet`s with a *target* size drawn from `size`; as in
/// upstream proptest, duplicate draws may leave the set smaller.
pub fn btree_set<S, R>(element: S, size: R) -> BTreeSetStrategy<S, R>
where
    S: Strategy,
    S::Value: Ord,
    R: SizeRange,
{
    BTreeSetStrategy { element, size }
}

/// Result of [`btree_set`].
#[derive(Debug, Clone)]
pub struct BTreeSetStrategy<S, R> {
    element: S,
    size: R,
}

impl<S, R> Strategy for BTreeSetStrategy<S, R>
where
    S: Strategy,
    S::Value: Ord,
    R: SizeRange,
{
    type Value = BTreeSet<S::Value>;
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        let target = self.size.sample_size(rng);
        let mut set = BTreeSet::new();
        // Bounded attempts so narrow element domains cannot loop forever.
        let mut budget = target * 4 + 8;
        while set.len() < target && budget > 0 {
            set.insert(self.element.sample(rng));
            budget -= 1;
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_sizes_stay_in_range() {
        let mut rng = TestRng::from_seed(1);
        let s = vec(0u8..10, 2..5);
        for _ in 0..200 {
            let v = s.sample(&mut rng);
            assert!(v.len() >= 2 && v.len() < 5);
            assert!(v.iter().all(|&x| x < 10));
        }
    }

    #[test]
    fn btree_set_respects_target_and_domain() {
        let mut rng = TestRng::from_seed(2);
        let s = btree_set(0u32..4, 0..4);
        for _ in 0..200 {
            let set = s.sample(&mut rng);
            assert!(set.len() < 4);
            assert!(set.iter().all(|&x| x < 4));
        }
    }

    #[test]
    fn nested_collections_compose() {
        let mut rng = TestRng::from_seed(3);
        let s = vec((btree_set(0u32..4, 0..4), 1u64..10), 1..8);
        let v = s.sample(&mut rng);
        assert!(!v.is_empty() && v.len() < 8);
    }
}
