//! The vocabulary's word table: words to `u32` values, looked up with
//! no heap hop for a short word.
//!
//! An open-addressing table with linear probing over 32-byte slots. A
//! word of at most [`INLINE`] bytes lives in its slot, zero-padded, so a
//! lookup hashes the word once and compares three machine words; a
//! longer word lives in one shared byte arena, and its slot holds where
//! it starts, its length and its hash. Nothing is allocated per word.
//!
//! Corpus bytes are external input, so the hash is keyed: a
//! multiply-fold over the whole word and its length, under three seeds
//! drawn once per process from `RandomState`, the source of the
//! standard `HashMap`'s keys. Nothing the table yields depends on its
//! iteration order: callers sort what they take out of it.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::sync::OnceLock;

/// Longest word a slot holds in place.
const INLINE: usize = 24;
/// `Slot::tag` of an empty slot.
const EMPTY: u32 = u32::MAX;
/// `Slot::tag` of a word longer than [`INLINE`].
const LONG: u32 = u32::MAX - 1;

#[derive(Clone, Copy)]
#[repr(C, align(32))]
struct Slot {
    /// The word zero-padded if it is short, else `[arena offset,
    /// length, hash]`.
    key: [u64; 3],
    /// The length of a short word, or [`LONG`] or [`EMPTY`].
    tag: u32,
    value: u32,
}

const VACANT: Slot = Slot {
    key: [0; 3],
    tag: EMPTY,
    value: 0,
};

/// The process's hash seeds.
fn seeds() -> [u64; 3] {
    static SEEDS: OnceLock<[u64; 3]> = OnceLock::new();
    *SEEDS.get_or_init(|| {
        let state = RandomState::new();
        std::array::from_fn(|i| state.hash_one(i))
    })
}

/// The high and low halves of the 128-bit product, folded.
#[inline]
fn fold(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    p as u64 ^ (p >> 64) as u64
}

/// The little-endian `u64` of at most 8 bytes, zero-padded, read in
/// at most two loads and no copy.
#[inline]
fn load_le(b: &[u8]) -> u64 {
    let n = b.len();
    debug_assert!(n <= 8);
    if n >= 4 {
        // Two 4-byte reads that overlap where `n < 8`; the overlapping
        // bytes are the same in both.
        let lo = u32::from_le_bytes(b[..4].try_into().expect("four bytes"));
        let hi = u32::from_le_bytes(b[n - 4..].try_into().expect("four bytes"));
        u64::from(lo) | u64::from(hi) << (8 * (n - 4))
    } else if n > 0 {
        u64::from(b[0])
            | u64::from(b[n / 2]) << (8 * (n / 2))
            | u64::from(b[n - 1]) << (8 * (n - 1))
    } else {
        0
    }
}

/// A word as the table keys it: zero-padded if short, with its hash.
struct Key<'w> {
    word: &'w [u8],
    inline: [u64; 3],
    hash: u64,
}

/// Words to `u32` values.
#[derive(Clone)]
pub(crate) struct WordTable {
    /// A power of two of slots, at most half of them full; empty until
    /// the first insert.
    slots: Vec<Slot>,
    len: usize,
    /// Every word longer than [`INLINE`], back to back.
    arena: Vec<u8>,
    seeds: [u64; 3],
}

impl Default for WordTable {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl std::fmt::Debug for WordTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WordTable").field("len", &self.len).finish()
    }
}

impl WordTable {
    /// A table that takes `words` words before it grows.
    pub(crate) fn with_capacity(words: usize) -> Self {
        let slots = if words == 0 {
            Vec::new()
        } else {
            vec![VACANT; (2 * words).next_power_of_two().max(16)]
        };
        Self {
            slots,
            len: 0,
            arena: Vec::new(),
            seeds: seeds(),
        }
    }

    /// The hash of a word of `len` bytes given as its little-endian
    /// 8-byte words, the last one zero-padded: `h = s0 ^ len`, then
    /// `h = fold(a ^ h, b ^ s1)` for each pair `(a, b)` of them (a lone
    /// last word pairs with 0), then `fold(h, s2)`.
    #[inline]
    fn hash_chunks(&self, len: usize, mut chunks: impl Iterator<Item = u64>) -> u64 {
        let [s0, s1, s2] = self.seeds;
        let mut h = s0 ^ len as u64;
        while let Some(a) = chunks.next() {
            let b = chunks.next().unwrap_or(0);
            h = fold(a ^ h, b ^ s1);
        }
        fold(h, s2)
    }

    /// [`Self::hash_chunks`] of a short word's zero-padded words,
    /// unrolled.
    #[inline]
    fn hash_inline(&self, len: usize, [k0, k1, k2]: [u64; 3]) -> u64 {
        let [s0, s1, s2] = self.seeds;
        let mut h = s0 ^ len as u64;
        if len > 0 {
            h = fold(k0 ^ h, k1 ^ s1);
        }
        if len > 16 {
            h = fold(k2 ^ h, s1);
        }
        fold(h, s2)
    }

    #[inline]
    fn key<'w>(&self, word: &'w [u8]) -> Key<'w> {
        let len = word.len();
        if len <= INLINE {
            let inline = [
                load_le(&word[..len.min(8)]),
                load_le(&word[len.min(8)..len.min(16)]),
                load_le(&word[len.min(16)..]),
            ];
            let hash = self.hash_inline(len, inline);
            Key { word, inline, hash }
        } else {
            let hash = self.hash_chunks(len, word.chunks(8).map(load_le));
            Key {
                word,
                inline: [0; 3],
                hash,
            }
        }
    }

    /// The slot of `key`: where it is, or the empty slot that ends its
    /// probe. The table has at least one slot.
    #[inline]
    fn find(&self, key: &Key<'_>) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = key.hash as usize & mask;
        let len = key.word.len();
        loop {
            let slot = &self.slots[i];
            let hit = if len <= INLINE {
                slot.tag == len as u32 && slot.key == key.inline
            } else {
                slot.tag == LONG && slot.key[1] == len as u64 && slot.key[2] == key.hash && {
                    let start = slot.key[0] as usize;
                    self.arena[start..start + len] == *key.word
                }
            };
            if hit || slot.tag == EMPTY {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// The value of `word`, if it is held.
    #[inline]
    pub(crate) fn get(&self, word: &[u8]) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let slot = &self.slots[self.find(&self.key(word))];
        (slot.tag != EMPTY).then_some(slot.value)
    }

    /// The value of `word`, inserting it with `value` if it is not held.
    #[inline]
    pub(crate) fn get_or_insert(&mut self, word: &[u8], value: u32) -> u32 {
        let i = self.slot_or_insert(word, value);
        self.slots[i].value
    }

    /// Sets the value of `word`, inserting it if it is not held.
    pub(crate) fn insert(&mut self, word: &[u8], value: u32) {
        let i = self.slot_or_insert(word, value);
        self.slots[i].value = value;
    }

    /// The slot of `word`, filled with it and `value` if it was empty.
    #[inline]
    fn slot_or_insert(&mut self, word: &[u8], value: u32) -> usize {
        self.reserve_one();
        let key = self.key(word);
        let i = self.find(&key);
        if self.slots[i].tag == EMPTY {
            self.fill(i, &key, value);
        }
        i
    }

    /// Puts `key` in empty slot `i`.
    fn fill(&mut self, i: usize, key: &Key<'_>, value: u32) {
        let len = key.word.len();
        self.slots[i] = if len <= INLINE {
            Slot {
                key: key.inline,
                tag: len as u32,
                value,
            }
        } else {
            let start = self.arena.len() as u64;
            self.arena.extend_from_slice(key.word);
            Slot {
                key: [start, len as u64, key.hash],
                tag: LONG,
                value,
            }
        };
        self.len += 1;
    }

    /// Grows the table so one more word keeps it at most half full.
    fn reserve_one(&mut self) {
        if 2 * (self.len + 1) <= self.slots.len() {
            return;
        }
        let grown = vec![VACANT; (2 * self.slots.len()).max(16)];
        let old = std::mem::replace(&mut self.slots, grown);
        let mask = self.slots.len() - 1;
        for slot in old.into_iter().filter(|s| s.tag != EMPTY) {
            let hash = if slot.tag == LONG {
                slot.key[2]
            } else {
                self.hash_inline(slot.tag as usize, slot.key)
            };
            let mut i = hash as usize & mask;
            while self.slots[i].tag != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
    }

    /// Calls `f` with every word held and its value, in no particular
    /// order.
    pub(crate) fn for_each(&self, mut f: impl FnMut(&[u8], u32)) {
        for slot in self.slots.iter().filter(|s| s.tag != EMPTY) {
            if slot.tag == LONG {
                let start = slot.key[0] as usize;
                f(&self.arena[start..start + slot.key[1] as usize], slot.value);
            } else {
                let mut bytes = [0u8; INLINE];
                for (chunk, k) in bytes.chunks_exact_mut(8).zip(slot.key) {
                    chunk.copy_from_slice(&k.to_le_bytes());
                }
                f(&bytes[..slot.tag as usize], slot.value);
            }
        }
    }
}
