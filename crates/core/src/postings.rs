//! Posting-list storage: plain entry vectors or delta-gap-compressed
//! blocks, behind one [`PostingList`] type.
//!
//! The huge scale tier (`SPRITE_SCALE=huge`, 100k+ peers) cannot afford
//! `Vec<IndexEntry>` per term: each entry burns 32 logical bytes where
//! the canonical wire encoding of §5.1 needs ~20 — and far less once
//! document ids are delta-encoded. The packed representation therefore
//! stores exactly the per-entry wire encoding of
//! [`crate::peer::posting_list_wire_size`] (gap-varint doc id, raw
//! 16-byte owner address, varint tf / doc-length / distinct-count),
//! reusing the canonical LEB128 codec from `sprite-util`. Readers
//! decode on the fly through [`PostingIter`]; nothing downstream —
//! ranking, replication, hand-over — can tell the representations
//! apart, and the `storage/packed` determinism stage in `sprite-audit`
//! holds both to bit-identical fingerprints.
//!
//! **Writes never re-encode a whole list.** An in-order publish appends
//! one entry. An out-of-order publish or an eager remove scans the doc
//! gaps to the entry's position and splices only the local bytes: the
//! new or replaced entry plus, at most, the following entry's gap. A
//! batch — every maintenance transfer — installs through one linear
//! [`PostingList::merge_sorted`]. The encoding is canonical (each gap is
//! relative to the stored predecessor), so every path leaves exactly the
//! bytes [`PostingList::from_entries`] would produce for the same
//! entries.
//!
//! **Tombstones.** Document deletion marks entries dead instead of
//! re-encoding the list on the spot: each list carries a sorted side
//! vector of tombstoned document ids, [`PostingIter`] skips them, and
//! every live-facing accessor (`len`, `iter`, `to_entries`,
//! `wire_size`) sees only live entries. The physical reclaim happens in
//! [`PostingList::cleanup`], called by the lazy pass in
//! `maintenance_round`, which returns the reclaimed entries so the
//! caller can bill each one. The side-vector design is deliberately
//! identical across representations so message accounting is
//! bit-identical between plain and packed storage; for packed blocks it
//! additionally guarantees that a tombstone never rewrites encoded
//! bytes before the next cleanup watermark.
//!
//! **This module is the only place posting lists may be built.** A
//! `sprite-lint` rule bans `Vec<IndexEntry>` construction elsewhere so
//! every list flows through the sorted-insert invariant enforced here.

use sprite_util::{decode_varint, encode_varint, varint_len, RingId};

use sprite_ir::DocId;

use crate::peer::IndexEntry;

/// Logical bytes one plain in-memory entry occupies: u32 doc id +
/// 16-byte owner address + u32 tf + u32 doc-length + u32 distinct-count.
/// A constant — not `size_of::<IndexEntry>()` — so the memory-per-peer
/// metric is identical across compilers and never gates on layout.
pub const PLAIN_ENTRY_BYTES: u64 = 4 + 16 + 4 + 4 + 4;

/// One inverted list, sorted by document id with one entry per document,
/// stored either as plain entries or as a delta-gap-compressed block.
/// Either way a sorted tombstone vector marks dead documents awaiting
/// the lazy cleanup pass.
#[derive(Clone, Debug)]
pub enum PostingList {
    /// Plain decoded entries — the historical layout, and the layout of
    /// corruption-injected lists (which may violate the encoder's
    /// strictly-ascending precondition on purpose).
    Plain {
        /// Doc-sorted entries, live and tombstoned alike.
        entries: Vec<IndexEntry>,
        /// Sorted document ids of tombstoned entries.
        dead: Vec<u32>,
    },
    /// The per-entry wire encoding, concatenated. `count` entries;
    /// `last_doc` is the final (largest) document id, so in-order
    /// publishes append without touching earlier bytes.
    Packed {
        /// Concatenated per-entry encodings (no count prefix).
        bytes: Vec<u8>,
        /// Number of encoded entries, tombstoned ones included.
        count: u32,
        /// Document id of the last entry (meaningless when `count == 0`).
        last_doc: u32,
        /// Sorted document ids of tombstoned entries.
        dead: Vec<u32>,
    },
}

/// Append the per-entry encoding of `e` to `out`. `prev_doc` is the
/// preceding entry's document id (`None` for the first entry, which
/// stores its id absolutely).
fn encode_entry(e: &IndexEntry, prev_doc: Option<u32>, out: &mut Vec<u8>) {
    encode_varint(gap(e.doc.index() as u32, prev_doc), out);
    out.extend_from_slice(&e.owner.0.to_be_bytes());
    encode_varint(u64::from(e.tf), out);
    encode_varint(u64::from(e.doc_len), out);
    encode_varint(u64::from(e.distinct), out);
}

/// Decode one entry starting at `at`; returns the entry and the offset
/// one past it. Packed bytes are self-produced, so failures are bugs.
fn decode_entry(bytes: &[u8], at: usize, prev_doc: Option<u32>) -> (IndexEntry, usize) {
    let (doc, at) = decode_doc(bytes, at, prev_doc);
    let owner_end = at + 16;
    let owner = u128::from_be_bytes(
        bytes[at..owner_end]
            .try_into()
            .expect("packed postings: owner address"),
    );
    let (tf, at) = decode_varint(bytes, owner_end).expect("packed postings: tf");
    let (doc_len, at) = decode_varint(bytes, at).expect("packed postings: doc_len");
    let (distinct, at) = decode_varint(bytes, at).expect("packed postings: distinct");
    (
        IndexEntry {
            doc: DocId(doc),
            owner: RingId(owner),
            tf: tf as u32,
            doc_len: doc_len as u32,
            distinct: distinct as u32,
        },
        at,
    )
}

/// Decode the doc gap starting at `at` into an absolute document id;
/// returns it and the offset one past the gap.
fn decode_doc(bytes: &[u8], at: usize, prev_doc: Option<u32>) -> (u32, usize) {
    let (gap, after_gap) = decode_varint(bytes, at).expect("packed postings: doc gap");
    ((u64::from(prev_doc.unwrap_or(0)) + gap) as u32, after_gap)
}

/// Offset one past an entry's payload (owner address, tf, doc length,
/// distinct count), given the offset one past its doc gap.
fn skip_payload(bytes: &[u8], after_gap: usize) -> usize {
    let mut at = after_gap + 16;
    for _ in 0..3 {
        at = decode_varint(bytes, at)
            .expect("packed postings: payload")
            .1;
    }
    at
}

/// Where a document id falls in a packed block: the first stored entry
/// whose doc id is ≥ the target.
struct Seek {
    /// Byte offset of that entry (the block length when there is none).
    at: usize,
    /// Doc id of the entry before it (`None` at the front).
    prev: Option<u32>,
    /// That entry's doc id and the offset one past its gap varint;
    /// `None` when every stored doc is below the target.
    next: Option<(u32, usize)>,
}

/// Walk the doc gaps of a packed block up to `target`, stepping over
/// payloads without building entries and allocating nothing.
fn seek(bytes: &[u8], target: u32) -> Seek {
    let mut at = 0;
    let mut prev = None;
    while at < bytes.len() {
        let (doc, after_gap) = decode_doc(bytes, at, prev);
        if doc >= target {
            return Seek {
                at,
                prev,
                next: Some((doc, after_gap)),
            };
        }
        at = skip_payload(bytes, after_gap);
        prev = Some(doc);
    }
    Seek {
        at,
        prev,
        next: None,
    }
}

/// The canonical gap of `doc` after `prev` (absolute at the front).
fn gap(doc: u32, prev: Option<u32>) -> u64 {
    u64::from(doc - prev.unwrap_or(0))
}

impl PostingList {
    /// A fresh empty list in the requested representation.
    #[must_use]
    pub fn new(packed: bool) -> Self {
        if packed {
            PostingList::Packed {
                bytes: Vec::new(),
                count: 0,
                last_doc: 0,
                dead: Vec::new(),
            }
        } else {
            PostingList::Plain {
                entries: Vec::new(),
                dead: Vec::new(),
            }
        }
    }

    /// Build a list from doc-sorted entries in the requested
    /// representation. Callers guarantee sortedness (decoded lists, or
    /// the sorted-insert path); corruption injection passes
    /// `packed = false` so invalid lists are stored verbatim.
    #[must_use]
    pub fn from_entries(entries: Vec<IndexEntry>, packed: bool) -> Self {
        if !packed {
            return PostingList::Plain {
                entries,
                dead: Vec::new(),
            };
        }
        let mut bytes = Vec::new();
        let mut prev: Option<u32> = None;
        for e in &entries {
            encode_entry(e, prev, &mut bytes);
            prev = Some(e.doc.index() as u32);
        }
        PostingList::Packed {
            bytes,
            count: entries.len() as u32,
            last_doc: prev.unwrap_or(0),
            dead: Vec::new(),
        }
    }

    /// True when stored in the compressed representation.
    #[must_use]
    pub fn is_packed(&self) -> bool {
        matches!(self, PostingList::Packed { .. })
    }

    /// Number of *live* entries — tombstoned documents are already
    /// invisible here, so indexed document frequencies never count the
    /// dead.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            PostingList::Plain { entries, dead } => entries.len() - dead.len(),
            PostingList::Packed { count, dead, .. } => *count as usize - dead.len(),
        }
    }

    /// True when no live entries are stored (tombstoned entries may
    /// still be awaiting cleanup — see [`Self::dead_count`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of tombstoned entries awaiting the lazy cleanup pass.
    #[must_use]
    pub fn dead_count(&self) -> usize {
        match self {
            PostingList::Plain { dead, .. } | PostingList::Packed { dead, .. } => dead.len(),
        }
    }

    /// The packed block's raw encoded bytes, when packed. Exposed so
    /// tests can assert the append-only contract (between cleanups,
    /// in-order publishes and tombstones never rewrite existing bytes)
    /// and that every write leaves the canonical encoding.
    #[must_use]
    pub fn packed_bytes(&self) -> Option<&[u8]> {
        match self {
            PostingList::Plain { .. } => None,
            PostingList::Packed { bytes, .. } => Some(bytes),
        }
    }

    /// True when both lists hold exactly the same live entries, whatever
    /// their representations and tombstone debt. Two tombstone-free lists
    /// of one representation compare their canonical storage directly
    /// (the packed block, or the plain entries); anything else walks the
    /// live iterators.
    #[must_use]
    pub fn same_live_entries(&self, other: &PostingList) -> bool {
        if self.len() != other.len() {
            return false;
        }
        match (self, other) {
            (
                PostingList::Packed {
                    bytes: a, dead: da, ..
                },
                PostingList::Packed {
                    bytes: b, dead: db, ..
                },
            ) if da.is_empty() && db.is_empty() => a == b,
            (
                PostingList::Plain {
                    entries: a,
                    dead: da,
                },
                PostingList::Plain {
                    entries: b,
                    dead: db,
                },
            ) if da.is_empty() && db.is_empty() => a == b,
            _ => self.iter().eq(other.iter()),
        }
    }

    /// Iterate *live* entries in document-id order, decoding on the fly
    /// and skipping tombstoned documents.
    #[must_use]
    pub fn iter(&self) -> PostingIter<'_> {
        let live = self.len();
        match self {
            PostingList::Plain { entries, dead } => PostingIter::Plain {
                entries: entries.iter(),
                dead,
                dead_at: 0,
                live,
            },
            PostingList::Packed {
                bytes, count, dead, ..
            } => PostingIter::Packed {
                bytes,
                at: 0,
                remaining: *count,
                prev_doc: None,
                dead,
                dead_at: 0,
                live,
            },
        }
    }

    /// All *live* entries, decoded into a fresh vector.
    #[must_use]
    pub fn to_entries(&self) -> Vec<IndexEntry> {
        self.iter().collect()
    }

    /// Every stored entry, tombstoned ones included — the physical
    /// contents [`Self::cleanup`] partitions into live and reclaimed.
    fn all_entries(&self) -> Vec<IndexEntry> {
        match self {
            PostingList::Plain { entries, .. } => entries.clone(),
            PostingList::Packed { bytes, count, .. } => {
                let mut out = Vec::with_capacity(*count as usize);
                let mut at = 0;
                let mut prev = None;
                for _ in 0..*count {
                    let (e, next_at) = decode_entry(bytes, at, prev);
                    at = next_at;
                    prev = Some(e.doc.index() as u32);
                    out.push(e);
                }
                out
            }
        }
    }

    /// Exact wire size of this list as a `QueryFetch` payload: count
    /// prefix plus the per-entry encodings of the *live* entries.
    /// Agrees byte-for-byte with
    /// [`crate::peer::posting_list_wire_size`] on the decoded entries;
    /// with no tombstones pending, the packed block *is* the payload.
    #[must_use]
    pub fn wire_size(&self) -> usize {
        match self {
            PostingList::Plain { entries, dead } if dead.is_empty() => {
                crate::peer::posting_list_wire_size(entries)
            }
            PostingList::Packed {
                bytes, count, dead, ..
            } if dead.is_empty() => varint_len(u64::from(*count)) + bytes.len(),
            _ => crate::peer::posting_list_wire_size(&self.to_entries()),
        }
    }

    /// Deterministic *logical* bytes this list occupies in memory:
    /// encoded length for packed blocks, [`PLAIN_ENTRY_BYTES`] per entry
    /// for plain vectors, plus 4 bytes per pending tombstone — dead
    /// entries still occupy storage until the cleanup pass reclaims
    /// them. Length-based, never capacity, so the memory-per-peer
    /// metric gates on it exactly.
    #[must_use]
    pub fn stored_bytes(&self) -> u64 {
        match self {
            PostingList::Plain { entries, dead } => {
                entries.len() as u64 * PLAIN_ENTRY_BYTES + dead.len() as u64 * 4
            }
            PostingList::Packed { bytes, dead, .. } => bytes.len() as u64 + dead.len() as u64 * 4,
        }
    }

    /// The sorted tombstone side vector, shared by both representations.
    fn dead_mut(&mut self) -> &mut Vec<u32> {
        match self {
            PostingList::Plain { dead, .. } | PostingList::Packed { dead, .. } => dead,
        }
    }

    /// Insert or replace the entry for its document, keeping the list
    /// sorted by document id with one entry per document. A republished
    /// document sheds any pending tombstone. In-order publishes
    /// (ascending doc ids — the bulk-publish common case) append to the
    /// packed block; out-of-order publishes splice in place: a replace
    /// swaps that entry's bytes, and an insert writes the new entry and
    /// re-encodes the following entry's doc gap. Nothing else is
    /// rewritten.
    pub fn publish(&mut self, entry: IndexEntry) {
        let doc = entry.doc.index() as u32;
        // Tombstoned docs were published before, so they sit at or below
        // `last_doc`: only a splice can revive one.
        let dead = self.dead_mut();
        if let Ok(i) = dead.binary_search(&doc) {
            dead.remove(i);
        }
        match self {
            PostingList::Plain { entries, .. } => {
                match entries.binary_search_by_key(&entry.doc, |e| e.doc) {
                    Ok(i) => entries[i] = entry,
                    Err(i) => entries.insert(i, entry),
                }
            }
            PostingList::Packed {
                bytes,
                count,
                last_doc,
                ..
            } => {
                if *count == 0 || doc > *last_doc {
                    let prev = (*count > 0).then_some(*last_doc);
                    encode_entry(&entry, prev, bytes);
                    *count += 1;
                    *last_doc = doc;
                    return;
                }
                let s = seek(bytes, doc);
                let (next_doc, after_gap) = s.next.expect("doc ≤ last_doc has a successor");
                let mut local = Vec::new();
                encode_entry(&entry, s.prev, &mut local);
                if next_doc == doc {
                    let end = skip_payload(bytes, after_gap);
                    bytes.splice(s.at..end, local);
                } else {
                    encode_varint(gap(next_doc, Some(doc)), &mut local);
                    bytes.splice(s.at..after_gap, local);
                    *count += 1;
                }
            }
        }
    }

    /// Install a strictly doc-ascending batch in one linear merge: batch
    /// entries replace stored entries for the same document (the batch
    /// wins ties) and shed their pending tombstones. The result equals
    /// publishing the batch one entry at a time. This is the bulk install
    /// path of every maintenance transfer (replication, orphan re-homing,
    /// hand-over).
    pub fn merge_sorted(&mut self, batch: &[IndexEntry]) {
        // The stored gaps depend on it, so this holds in release too.
        assert!(
            batch.windows(2).all(|w| w[0].doc < w[1].doc),
            "merge_sorted: batch must be strictly doc-ascending"
        );
        let Some(first) = batch.first() else {
            return;
        };
        let dead = self.dead_mut();
        if !dead.is_empty() {
            let mut b = 0;
            dead.retain(|&d| {
                while batch.get(b).is_some_and(|e| (e.doc.index() as u32) < d) {
                    b += 1;
                }
                batch.get(b).is_none_or(|e| e.doc.index() as u32 != d)
            });
        }
        match self {
            PostingList::Plain { entries, .. } => {
                let old = std::mem::take(entries);
                entries.reserve(old.len() + batch.len());
                let mut incoming = batch.iter().copied().peekable();
                for e in old {
                    while let Some(b) = incoming.next_if(|b| b.doc < e.doc) {
                        entries.push(b);
                    }
                    entries.push(incoming.next_if(|b| b.doc == e.doc).unwrap_or(e));
                }
                entries.extend(incoming);
            }
            PostingList::Packed {
                bytes,
                count,
                last_doc,
                ..
            } => {
                // A batch past the last doc only appends. Otherwise the
                // block is rebuilt in one pass, each stored payload copied
                // verbatim behind a re-encoded gap.
                let append_only = *count == 0 || first.doc.index() as u32 > *last_doc;
                let (old, mut prev) = if append_only {
                    (Vec::new(), (*count > 0).then_some(*last_doc))
                } else {
                    *count = 0;
                    let old = std::mem::take(bytes);
                    bytes.reserve(old.len());
                    (old, None)
                };
                let mut incoming = batch.iter().peekable();
                let (mut at, mut old_prev) = (0, None);
                while at < old.len() {
                    let (doc, after_gap) = decode_doc(&old, at, old_prev);
                    let end = skip_payload(&old, after_gap);
                    while let Some(b) = incoming.next_if(|b| b.doc.index() as u32 <= doc) {
                        encode_entry(b, prev, bytes);
                        prev = Some(b.doc.index() as u32);
                        *count += 1;
                    }
                    if prev != Some(doc) {
                        // Not replaced by the batch: keep the stored entry.
                        encode_varint(gap(doc, prev), bytes);
                        bytes.extend_from_slice(&old[after_gap..end]);
                        prev = Some(doc);
                        *count += 1;
                    }
                    old_prev = Some(doc);
                    at = end;
                }
                for b in incoming {
                    encode_entry(b, prev, bytes);
                    prev = Some(b.doc.index() as u32);
                    *count += 1;
                }
                *last_doc = prev.unwrap_or(0);
            }
        }
    }

    /// Eagerly remove the entry for `doc` — physical removal, pending
    /// tombstone included; true if the entry existed. A packed block
    /// splices out the entry's bytes and re-encodes the next entry's
    /// gap. The lazy alternative is [`Self::tombstone`].
    pub fn remove(&mut self, doc: DocId) -> bool {
        let id = doc.index() as u32;
        // Only stored docs carry tombstones, so shedding first is safe.
        let dead = self.dead_mut();
        if let Ok(i) = dead.binary_search(&id) {
            dead.remove(i);
        }
        match self {
            PostingList::Plain { entries, .. } => {
                let before = entries.len();
                entries.retain(|e| e.doc != doc);
                entries.len() != before
            }
            PostingList::Packed {
                bytes,
                count,
                last_doc,
                ..
            } => {
                if *count == 0 || id > *last_doc {
                    return false;
                }
                let s = seek(bytes, id);
                let Some((_, after_gap)) = s.next.filter(|&(d, _)| d == id) else {
                    return false;
                };
                let end = skip_payload(bytes, after_gap);
                if end < bytes.len() {
                    let (next_doc, next_after_gap) = decode_doc(bytes, end, Some(id));
                    let mut local = Vec::new();
                    encode_varint(gap(next_doc, s.prev), &mut local);
                    bytes.splice(s.at..next_after_gap, local);
                } else {
                    bytes.truncate(s.at);
                    *last_doc = s.prev.unwrap_or(0);
                }
                *count -= 1;
                true
            }
        }
    }

    /// Mark the entry for `doc` dead without touching the stored bytes;
    /// true if a live entry existed. The entry disappears from every
    /// live-facing accessor immediately; the physical reclaim — and its
    /// billing — waits for [`Self::cleanup`]. On a packed block the
    /// presence test walks the doc gaps, stopping at the first doc ≥
    /// `doc`, and allocates nothing.
    pub fn tombstone(&mut self, doc: DocId) -> bool {
        let id = doc.index() as u32;
        let present = match self {
            PostingList::Plain { entries, .. } => {
                entries.binary_search_by_key(&doc, |e| e.doc).is_ok()
            }
            PostingList::Packed {
                bytes,
                count,
                last_doc,
                ..
            } => {
                *count > 0 && id <= *last_doc && seek(bytes, id).next.is_some_and(|(d, _)| d == id)
            }
        };
        if !present {
            return false;
        }
        let dead = self.dead_mut();
        match dead.binary_search(&id) {
            Ok(_) => false,
            Err(i) => {
                dead.insert(i, id);
                true
            }
        }
    }

    /// Physically reclaim every tombstoned entry, returning the
    /// reclaimed entries in document order so the caller can bill each
    /// one. A no-op (empty vector) when no tombstones are pending; for
    /// packed blocks this is the only operation allowed to rewrite
    /// bytes behind the append watermark.
    pub fn cleanup(&mut self) -> Vec<IndexEntry> {
        if self.dead_count() == 0 {
            return Vec::new();
        }
        let all = self.all_entries();
        match self {
            PostingList::Plain { entries, dead } => {
                let (live, reclaimed): (Vec<_>, Vec<_>) = all
                    .into_iter()
                    .partition(|e| dead.binary_search(&(e.doc.index() as u32)).is_err());
                *entries = live;
                dead.clear();
                reclaimed
            }
            PostingList::Packed { dead, .. } => {
                let dead_docs = std::mem::take(dead);
                let (live, reclaimed): (Vec<_>, Vec<_>) = all
                    .into_iter()
                    .partition(|e| dead_docs.binary_search(&(e.doc.index() as u32)).is_err());
                *self = PostingList::from_entries(live, true);
                reclaimed
            }
        }
    }
}

impl<'a> IntoIterator for &'a PostingList {
    type Item = IndexEntry;
    type IntoIter = PostingIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Decode-on-read iterator over a [`PostingList`], yielding *live*
/// entries by value in document-id order. Tombstoned documents are
/// skipped by a merge walk against the sorted dead vector, so the
/// iterator stays exact-size.
#[derive(Clone, Debug)]
pub enum PostingIter<'a> {
    /// Plain slice walk.
    Plain {
        /// Underlying entries, dead ones included.
        entries: std::slice::Iter<'a, IndexEntry>,
        /// Sorted tombstoned document ids.
        dead: &'a [u32],
        /// Next tombstone to skip.
        dead_at: usize,
        /// Live entries not yet yielded.
        live: usize,
    },
    /// Sequential decode of a packed block.
    Packed {
        /// The packed block.
        bytes: &'a [u8],
        /// Current decode offset.
        at: usize,
        /// Encoded entries left to decode (dead ones included).
        remaining: u32,
        /// Previous entry's document id (gap base).
        prev_doc: Option<u32>,
        /// Sorted tombstoned document ids.
        dead: &'a [u32],
        /// Next tombstone to skip.
        dead_at: usize,
        /// Live entries not yet yielded.
        live: usize,
    },
}

impl Iterator for PostingIter<'_> {
    type Item = IndexEntry;

    fn next(&mut self) -> Option<IndexEntry> {
        loop {
            let (entry, dead, dead_at, live) = match self {
                PostingIter::Plain {
                    entries,
                    dead,
                    dead_at,
                    live,
                } => (entries.next().copied()?, dead, dead_at, live),
                PostingIter::Packed {
                    bytes,
                    at,
                    remaining,
                    prev_doc,
                    dead,
                    dead_at,
                    live,
                } => {
                    if *remaining == 0 {
                        return None;
                    }
                    let (entry, next_at) = decode_entry(bytes, *at, *prev_doc);
                    *at = next_at;
                    *remaining -= 1;
                    *prev_doc = Some(entry.doc.index() as u32);
                    (entry, dead, dead_at, live)
                }
            };
            if dead
                .get(*dead_at)
                .is_some_and(|&d| d == entry.doc.index() as u32)
            {
                *dead_at += 1;
                continue;
            }
            *live -= 1;
            return Some(entry);
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            PostingIter::Plain { live, .. } | PostingIter::Packed { live, .. } => {
                (*live, Some(*live))
            }
        }
    }
}

impl ExactSizeIterator for PostingIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peer::posting_list_wire_size;

    fn entry(doc: u32, tf: u32) -> IndexEntry {
        IndexEntry {
            doc: DocId(doc),
            owner: RingId(0xABCD_EF01_2345 + u128::from(doc)),
            tf,
            doc_len: 100 + doc,
            distinct: 50,
        }
    }

    #[test]
    fn representations_agree_on_everything() {
        for publish_order in [
            vec![0u32, 1, 2, 3, 300, 301],
            vec![300, 0, 301, 2, 1, 3],
            vec![5],
            vec![],
        ] {
            let mut plain = PostingList::new(false);
            let mut packed = PostingList::new(true);
            for &d in &publish_order {
                plain.publish(entry(d, d + 1));
                packed.publish(entry(d, d + 1));
            }
            assert!(packed.is_packed() && !plain.is_packed());
            assert_eq!(plain.len(), packed.len());
            assert_eq!(plain.to_entries(), packed.to_entries());
            assert_eq!(plain.wire_size(), packed.wire_size());
            assert_eq!(
                packed.wire_size(),
                posting_list_wire_size(&packed.to_entries()),
                "packed block + count prefix is exactly the wire encoding"
            );
        }
    }

    #[test]
    fn in_place_replace_and_remove_match() {
        let mut plain = PostingList::new(false);
        let mut packed = PostingList::new(true);
        for list in [&mut plain, &mut packed] {
            list.publish(entry(1, 1));
            list.publish(entry(2, 1));
            list.publish(entry(3, 1));
            list.publish(entry(2, 9)); // replace mid-list
            list.publish(entry(3, 7)); // replace last
            assert!(list.remove(DocId(1)));
            assert!(!list.remove(DocId(1)));
            assert!(!list.remove(DocId(99)));
        }
        assert_eq!(plain.to_entries(), packed.to_entries());
        assert_eq!(packed.len(), 2);
        assert_eq!(packed.to_entries()[0].tf, 9);
        assert_eq!(packed.to_entries()[1].tf, 7);
    }

    #[test]
    fn splices_and_merges_leave_canonical_bytes() {
        let canonical = |docs: &[u32], tf: u32| {
            PostingList::from_entries(docs.iter().map(|&d| entry(d, tf)).collect(), true)
        };
        let mut list = canonical(&[10, 200, 300], 1);
        list.publish(entry(5, 1)); // insert at the front: 10's gap shrinks
        list.publish(entry(150, 1)); // insert mid-list: 200's gap shrinks
        assert_eq!(
            list.packed_bytes(),
            canonical(&[5, 10, 150, 200, 300], 1).packed_bytes()
        );
        assert!(list.remove(DocId(5))); // 10 becomes absolute again
        assert!(list.remove(DocId(300))); // the tail: last_doc falls back
        assert_eq!(
            list.packed_bytes(),
            canonical(&[10, 150, 200], 1).packed_bytes()
        );
        list.publish(entry(250, 1));
        assert_eq!(
            list.packed_bytes(),
            canonical(&[10, 150, 200, 250], 1).packed_bytes()
        );
        list.merge_sorted(&[entry(0, 2), entry(150, 2), entry(999, 2)]);
        let mut want = canonical(&[10, 200, 250], 1);
        want.publish(entry(0, 2));
        want.publish(entry(150, 2));
        want.publish(entry(999, 2));
        assert_eq!(list.packed_bytes(), want.packed_bytes());
        // A batch past the watermark only appends.
        let before = list.packed_bytes().expect("packed").to_vec();
        list.merge_sorted(&[entry(1000, 1), entry(5000, 1)]);
        assert_eq!(
            &list.packed_bytes().expect("packed")[..before.len()],
            &before[..]
        );
        assert_eq!(list.len(), 8);
    }

    #[test]
    fn packed_is_smaller_than_plain() {
        let entries: Vec<IndexEntry> = (0..64).map(|d| entry(1000 + d, 3)).collect();
        let plain = PostingList::from_entries(entries.clone(), false);
        let packed = PostingList::from_entries(entries, true);
        assert!(packed.stored_bytes() < plain.stored_bytes());
        assert_eq!(plain.stored_bytes(), 64 * PLAIN_ENTRY_BYTES);
    }

    #[test]
    fn iterator_is_exact_size() {
        let packed = PostingList::from_entries((0..5).map(|d| entry(d, 1)).collect(), true);
        let mut it = packed.iter();
        assert_eq!(it.len(), 5);
        it.next();
        assert_eq!(it.len(), 4);
        assert_eq!(it.count(), 4);
    }

    #[test]
    fn tombstones_hide_entries_until_cleanup_reclaims_them() {
        for packed in [false, true] {
            let mut list = PostingList::from_entries((0..6).map(|d| entry(d, 1)).collect(), packed);
            assert!(list.tombstone(DocId(2)));
            assert!(!list.tombstone(DocId(2)), "double tombstone is a no-op");
            assert!(!list.tombstone(DocId(99)), "absent doc cannot be marked");
            assert!(list.tombstone(DocId(5)));
            assert_eq!(list.len(), 4);
            assert_eq!(list.dead_count(), 2);
            let docs: Vec<u32> = list.iter().map(|e| e.doc.index() as u32).collect();
            assert_eq!(docs, vec![0, 1, 3, 4]);
            assert_eq!(list.iter().len(), 4, "exact size excludes the dead");
            assert_eq!(
                list.wire_size(),
                posting_list_wire_size(&list.to_entries()),
                "wire size is live-only"
            );
            let reclaimed = list.cleanup();
            assert_eq!(
                reclaimed.iter().map(|e| e.doc.index()).collect::<Vec<_>>(),
                vec![2, 5]
            );
            assert_eq!(list.dead_count(), 0);
            assert_eq!(list.len(), 4);
            assert!(list.cleanup().is_empty(), "second cleanup finds nothing");
        }
    }

    #[test]
    fn republish_sheds_a_pending_tombstone() {
        for packed in [false, true] {
            let mut list = PostingList::from_entries((0..4).map(|d| entry(d, 1)).collect(), packed);
            assert!(list.tombstone(DocId(1)));
            assert_eq!(list.len(), 3);
            list.publish(entry(1, 42)); // out-of-order republish
            assert_eq!(list.len(), 4);
            assert_eq!(list.dead_count(), 0);
            assert_eq!(list.to_entries()[1].tf, 42);
        }
    }

    #[test]
    fn packed_tombstone_never_rewrites_bytes() {
        let mut list = PostingList::from_entries((0..8).map(|d| entry(d, 1)).collect(), true);
        let before = list.packed_bytes().expect("packed").to_vec();
        assert!(list.tombstone(DocId(3)));
        assert!(list.tombstone(DocId(0)));
        assert_eq!(
            list.packed_bytes().expect("packed"),
            &before[..],
            "tombstones only touch the side vector"
        );
        list.publish(entry(100, 1)); // in-order append extends, never rewrites
        assert_eq!(
            &list.packed_bytes().expect("packed")[..before.len()],
            &before[..]
        );
        list.cleanup();
        assert_ne!(
            list.packed_bytes().expect("packed"),
            &before[..],
            "cleanup is the watermark that re-encodes"
        );
    }

    #[test]
    fn same_live_entries_ignores_representation_and_tombstones() {
        let docs = |ds: &[u32], tf: u32| ds.iter().map(|&d| entry(d, tf)).collect::<Vec<_>>();
        for (a_packed, b_packed) in [(true, true), (false, false), (true, false)] {
            let a = PostingList::from_entries(docs(&[1, 4, 9], 2), a_packed);
            let mut b = PostingList::from_entries(docs(&[1, 4, 9], 2), b_packed);
            assert!(a.same_live_entries(&b) && b.same_live_entries(&a));
            b.publish(entry(4, 3)); // same docs, one payload differs
            assert!(!a.same_live_entries(&b));
            b.publish(entry(4, 2));
            b.publish(entry(6, 2)); // an extra doc, then tombstoned
            assert!(!a.same_live_entries(&b));
            assert!(b.tombstone(DocId(6)));
            assert!(a.same_live_entries(&b), "a dead entry is invisible");
            assert!(!a.same_live_entries(&PostingList::new(a_packed)));
        }
    }

    #[test]
    fn eager_remove_drops_a_tombstoned_entry_exactly_once() {
        for packed in [false, true] {
            let mut list = PostingList::from_entries((0..3).map(|d| entry(d, 1)).collect(), packed);
            assert!(list.tombstone(DocId(1)));
            assert!(list.remove(DocId(1)), "physical entry still existed");
            assert_eq!(list.dead_count(), 0, "its tombstone went with it");
            assert!(list.cleanup().is_empty());
            assert_eq!(list.len(), 2);
        }
    }
}
