//! A fixed reference kernel that measures how fast the host runs right now.
//!
//! On a shared host the machine's speed changes in phases that last tens
//! of seconds, so the wall time of the same calls moves by a third between
//! runs. The kernel does the same kind of work as a query (dependent
//! lookups, gap-varint list decoding, score accumulation in a hash map,
//! top-K selection) over data of its own, and the benchmark times it
//! after every query batch. Timings divided by the kernel's time move
//! with the code under test and much less with the host. The kernel is the
//! benchmark's own code, so no change to the repository moves it.

use std::collections::HashMap;

/// Posting lists in the kernel's index.
const LISTS: usize = 4096;
/// Entries per list.
const LIST_LEN: usize = 64;
/// Lists one call reads, like the terms of a query.
const TERMS: usize = 3;
/// Dependent lookups before each list is read, like the hops of a route.
const HOPS: usize = 3;
/// Answer-list depth.
const TOP: usize = 20;

/// The kernel's index and scratch space.
pub struct Kernel {
    /// Gap-varint doc ids, each followed by a one-byte term frequency.
    bytes: Vec<u8>,
    /// Start of each list in `bytes`.
    starts: Vec<usize>,
    /// A random successor for every list: the lookup chain.
    next: Vec<u32>,
    scores: HashMap<u32, f64>,
    ranked: Vec<(u32, f64)>,
    /// Where the next call starts its chains.
    cursor: u32,
}

fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn put_varint(mut v: u64, out: &mut Vec<u8>) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn get_varint(buf: &[u8], at: &mut usize) -> u64 {
    let (mut v, mut shift) = (0u64, 0);
    loop {
        let b = buf[*at];
        *at += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

impl Kernel {
    /// The kernel's fixed index; the same on every run.
    #[must_use]
    pub fn new() -> Self {
        let mut bytes = Vec::new();
        let mut starts = Vec::with_capacity(LISTS);
        for l in 0..LISTS as u64 {
            starts.push(bytes.len());
            let mut doc = 0;
            for e in 0..LIST_LEN as u64 {
                let h = mix(l << 16 | e);
                doc += 1 + h % 96;
                put_varint(doc, &mut bytes);
                bytes.push(1 + (h >> 32) as u8 % 8);
            }
        }
        let next = (0..LISTS as u64)
            .map(|l| (mix(l ^ 0x5eed) % LISTS as u64) as u32)
            .collect();
        Kernel {
            bytes,
            starts,
            next,
            scores: HashMap::new(),
            ranked: Vec::new(),
            cursor: 0,
        }
    }

    /// One query-shaped call; returns a checksum of its answer.
    pub fn call(&mut self) -> u64 {
        self.scores.clear();
        for t in 0..TERMS as u32 {
            let mut list = (self.cursor.wrapping_mul(7919) ^ t) % LISTS as u32;
            for _ in 0..HOPS {
                list = self.next[list as usize];
            }
            let idf = 1.0 + f64::from(list % 13) / 8.0;
            let mut at = self.starts[list as usize];
            let mut doc = 0;
            for _ in 0..LIST_LEN {
                doc += get_varint(&self.bytes, &mut at) as u32;
                let tf = f64::from(self.bytes[at]);
                at += 1;
                *self.scores.entry(doc).or_insert(0.0) += tf.sqrt() * idf;
            }
        }
        self.cursor = self.cursor.wrapping_add(1);
        self.ranked.clear();
        self.ranked
            .extend(self.scores.iter().map(|(&d, &s)| (d, s)));
        self.ranked
            .sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        self.ranked.truncate(TOP);
        self.ranked
            .iter()
            .fold(0, |acc, &(d, s)| mix(acc ^ u64::from(d) ^ s.to_bits()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_fixed_and_ranks_top_k() {
        let (mut a, mut b) = (Kernel::new(), Kernel::new());
        let x: Vec<u64> = (0..5).map(|_| a.call()).collect();
        let y: Vec<u64> = (0..5).map(|_| b.call()).collect();
        assert_eq!(x, y);
        assert_ne!(x[0], x[1]);
        assert_eq!(a.ranked.len(), TOP);
        assert!(a.ranked.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn varints_round_trip() {
        let mut buf = Vec::new();
        for v in [0, 1, 127, 128, 300, u64::from(u32::MAX)] {
            put_varint(v, &mut buf);
        }
        let mut at = 0;
        for v in [0, 1, 127, 128, 300, u64::from(u32::MAX)] {
            assert_eq!(get_varint(&buf, &mut at), v);
        }
        assert_eq!(at, buf.len());
    }
}
