//! The workspace's one hasher for maps keyed by integers the program
//! mints itself, and its one digest fold.
//!
//! The simulator looks a page's owner up whenever a run of page touches
//! moves to another owner, the VM a region id on every touch, the file
//! system an i-number and the kernel a descriptor; the mailbox routes every
//! reply by its ticket. All are small integers the program generates,
//! never input from outside it, so SipHash's resistance to crafted
//! collisions buys nothing there and costs most of the lookup. This is the
//! usual multiply-rotate word hasher: fold each word in with an add and an
//! odd multiply, and rotate once at the end so the well-mixed high bits
//! land where the table takes its bucket index from. Keys a caller
//! supplies (paths, names) keep the default hasher.
//!
//! The digests the libraries compute (cell, channel and grid digests,
//! profile trees) and the property harness's seeds are FNV-1a folds,
//! through [`fnv`] and [`fnv_bytes`].

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` over program-generated integer keys.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

const K: u64 = 0xf135_7aea_2e62_a9c5;

/// FNV-1a's offset basis: where every digest starts.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one word into an FNV-1a digest.
#[inline]
pub fn fnv(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x100_0000_01b3)
}

/// Folds bytes into an FNV-1a digest, one word per byte.
pub fn fnv_bytes(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| fnv(h, u64::from(b)))
}

/// The multiply-rotate word hasher behind [`FastMap`].
#[derive(Default, Clone, Copy)]
pub struct FastHasher(u64);

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

    #[inline]
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
    fn the_key_shapes_the_workspace_makes_do_not_pile_up() {
        // A uniformly random hash would put about 7 keys in its fullest
        // bucket and about 50 on its commonest tag.
        let words: [(&str, Box<dyn Iterator<Item = u64>>); 3] = [
            ("i-numbers, region ids or early tickets", Box::new(1..=4096)),
            ("disk blocks, stride 8", Box::new((0..4096).map(|b| b * 8))),
            (
                "tickets thirty million sends in",
                Box::new((0..4096).map(|t| 30_000_000 + t)),
            ),
        ];
        let loads = (words.into_iter())
            .map(|(s, keys)| (s, worst_load(keys)))
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
