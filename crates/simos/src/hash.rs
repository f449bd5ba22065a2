//! The hasher behind the simulator's hot integer-keyed maps.
//!
//! The page cache looks a [`crate::cache::PageId`] up on every simulated
//! page touch and the VM a region id; both keys are small integers the
//! simulator itself generates (i-numbers, region ids, page indices), never
//! input from outside the program, so SipHash's resistance to crafted
//! collisions buys nothing there and costs most of the lookup. This is
//! the usual multiply-rotate word hasher: fold each word in with an add
//! and an odd multiply, and rotate once at the end so the well-mixed high
//! bits land where the table takes its bucket index from.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` over simulator-generated integer keys.
pub(crate) type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

const K: u64 = 0xf135_7aea_2e62_a9c5;

#[derive(Default, Clone, Copy)]
pub(crate) struct FastHasher(u64);

impl FastHasher {
    #[inline]
    fn word(&mut self, w: u64) {
        self.0 = self.0.wrapping_add(w).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.word(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.word(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.word(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{Owner, PageId};
    use std::hash::{BuildHasher, Hasher};

    /// Most keys sharing one 12-bit bucket index (the table's low bits) and
    /// one 7-bit tag (its top bits) among 4096 keys.
    fn worst_load(keys: impl Iterator<Item = PageId>) -> (usize, usize) {
        let build = BuildHasherDefault::<FastHasher>::default();
        let (mut buckets, mut tags) = (vec![0usize; 4096], vec![0usize; 128]);
        for key in keys {
            let h = build.hash_one(key);
            buckets[(h & 0xfff) as usize] += 1;
            tags[(h >> 57) as usize] += 1;
        }
        (
            buckets.into_iter().max().unwrap(),
            tags.into_iter().max().unwrap(),
        )
    }

    #[test]
    fn the_key_shapes_the_simulator_makes_do_not_pile_up() {
        let file = |dev, ino, page| PageId {
            owner: Owner::File { dev, ino },
            page,
        };
        let anon = |region, page| PageId {
            owner: Owner::Anon { region },
            page,
        };
        // A uniformly random hash would put about 7 keys in its fullest
        // bucket and about 50 on its commonest tag.
        let shapes: [(&str, Box<dyn Iterator<Item = PageId>>); 5] = [
            (
                "one region, in order",
                Box::new((0..4096).map(|p| anon(7, p))),
            ),
            (
                "one file, stride 64",
                Box::new((0..4096).map(|p| file(0, 12, p * 64))),
            ),
            (
                "first page of many files",
                Box::new((0..4096).map(|i| file(i as u32 % 2, i, 0))),
            ),
            (
                "64 files interleaved",
                Box::new((0..4096).map(|i| file(0, i % 64, i / 64))),
            ),
            (
                "64 regions interleaved",
                Box::new((0..4096).map(|i| anon(i % 64, i / 64))),
            ),
        ];
        for (shape, keys) in shapes {
            let (bucket, tag) = worst_load(keys);
            assert!(
                bucket <= 7 && tag <= 50,
                "{shape}: bucket {bucket}, tag {tag}"
            );
        }
    }

    #[test]
    fn byte_slices_hash_like_their_words() {
        let mut a = FastHasher::default();
        a.write(&0x0102_0304_0506_0708u64.to_le_bytes());
        let mut b = FastHasher::default();
        b.write_u64(0x0102_0304_0506_0708);
        assert_eq!(a.finish(), b.finish());
    }
}
