//! The hasher behind the simulator's hot integer-keyed maps.
//!
//! The page cache looks a page's [`crate::cache::Owner`] up whenever a run
//! of page touches moves to another owner (within a run it compares against
//! the owner it found last and hashes nothing), the VM a region id on every
//! touch, the file system an i-number and the kernel a descriptor; all are
//! small integers the simulator itself generates, never input from outside
//! the program, so SipHash's resistance to crafted collisions buys nothing
//! there and costs most of the lookup. (Pages *within* an owner are not
//! hashed at all: see [`crate::page_table`].) This is
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
    use crate::cache::Owner;
    use std::hash::{BuildHasher, Hash, Hasher};

    /// Most keys sharing one 12-bit bucket index (the table's low bits) and
    /// one 7-bit tag (its top bits) among 4096 keys.
    fn worst_load<K: Hash>(keys: impl Iterator<Item = K>) -> (usize, usize) {
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
        let file = |dev, ino| Owner::File { dev, ino };
        // A uniformly random hash would put about 7 keys in its fullest
        // bucket and about 50 on its commonest tag.
        let owners: [(&str, Box<dyn Iterator<Item = Owner>>); 4] = [
            (
                "regions, in order",
                Box::new((1..=4096).map(|region| Owner::Anon { region })),
            ),
            (
                "files of one directory",
                Box::new((0..4096).map(|i| file(0, 3 + i))),
            ),
            (
                "files on two devices",
                Box::new((0..4096).map(|i| file(i as u32 % 2, i / 2))),
            ),
            (
                "one file a cylinder group",
                Box::new((0..4096).map(|g| file(0, g * 1024))),
            ),
        ];
        let words: [(&str, Box<dyn Iterator<Item = u64>>); 2] = [
            ("i-numbers or region ids", Box::new(1..=4096)),
            ("disk blocks, stride 8", Box::new((0..4096).map(|b| b * 8))),
        ];
        let loads = (owners.into_iter())
            .map(|(shape, keys)| (shape, worst_load(keys)))
            .chain(words.into_iter().map(|(s, keys)| (s, worst_load(keys))))
            .chain([("descriptors", worst_load(3u32..4099))]);
        for (shape, (bucket, tag)) in loads {
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
