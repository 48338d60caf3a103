//! Seeded multiply-shift hashing for maps keyed by `u32` ids.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};

/// Multiply-shift hashing of `u32` ids (Dietzfelbinger et al.): one
/// multiply and add per lookup instead of a SipHash round. The
/// multiplier and addend are drawn from [`RandomState`] for each map,
/// so ids in crafted input cannot be aimed at one bucket.
///
/// Meant for keys that hash as a single `u32`: the raw stack ids of a
/// `.tlt` file and [`crate::ThreadId`]s. Nothing may depend on the
/// iteration order of a map built with it, which changes from map to
/// map.
///
/// ```
/// use std::collections::HashMap;
/// use tracelens_model::{IdHashing, ThreadId};
///
/// let mut slots: HashMap<ThreadId, u32, IdHashing> = HashMap::default();
/// slots.insert(ThreadId(7), 0);
/// assert_eq!(slots.get(&ThreadId(7)), Some(&0));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct IdHashing {
    mul: u64,
    add: u64,
}

impl Default for IdHashing {
    fn default() -> Self {
        let seed = RandomState::new();
        IdHashing {
            mul: seed.hash_one(0u8) | 1,
            add: seed.hash_one(1u8),
        }
    }
}

impl BuildHasher for IdHashing {
    type Hasher = IdHasher;

    fn build_hasher(&self) -> IdHasher {
        IdHasher {
            keys: *self,
            hash: 0,
        }
    }
}

/// The hasher an [`IdHashing`] builds.
#[derive(Debug)]
pub struct IdHasher {
    keys: IdHashing,
    hash: u64,
}

impl Hasher for IdHasher {
    /// Keys other than a single `u32` are folded a byte at a time
    /// through the same multiply-shift.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b) ^ (self.hash as u32));
        }
    }

    fn write_u32(&mut self, id: u32) {
        let mixed = self
            .keys
            .mul
            .wrapping_mul(u64::from(id))
            .wrapping_add(self.keys.add);
        // The high half is the well-mixed one; the map indexes buckets
        // by the low bits.
        self.hash = mixed.rotate_left(32);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}
