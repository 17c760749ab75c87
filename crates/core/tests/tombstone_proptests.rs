//! Property-style tests for the tombstoned posting lists.
//!
//! Deterministic seeded loops (the workspace builds with an empty
//! registry, so no `proptest` crate): random interleavings of publish,
//! tombstone, eager-remove, and cleanup are replayed against a naive
//! vector model, on the plain and packed representations side by side —
//! every live-facing accessor must agree with the model at every step,
//! a packed block must never rewrite bytes behind its append watermark
//! except through [`PostingList::cleanup`], and every splice or bulk
//! merge must leave exactly the canonical encoding
//! [`PostingList::from_entries`] produces for the stored entries.

use sprite_core::{IndexEntry, PostingList};
use sprite_ir::DocId;
use sprite_util::{derive_rng, DetRng, RingId};

fn rng(label: &str) -> DetRng {
    derive_rng(0xC0DE, label)
}

fn entry(r: &mut DetRng, doc: u32) -> IndexEntry {
    IndexEntry {
        doc: DocId(doc),
        owner: RingId(u128::from(r.gen_u64())),
        tf: r.gen_range(1..50) as u32,
        doc_len: r.gen_range(10..500) as u32,
        distinct: r.gen_range(5..100) as u32,
    }
}

/// The naive model: every stored entry with its tombstone flag, sorted
/// by document id — the semantics the real representations must match.
#[derive(Default)]
struct Model {
    stored: Vec<(IndexEntry, bool)>,
}

impl Model {
    fn publish(&mut self, e: IndexEntry) {
        match self.stored.binary_search_by_key(&e.doc, |(s, _)| s.doc) {
            Ok(i) => self.stored[i] = (e, false),
            Err(i) => self.stored.insert(i, (e, false)),
        }
    }
    fn merge(&mut self, batch: &[IndexEntry]) {
        for &e in batch {
            self.publish(e);
        }
    }
    fn tombstone(&mut self, doc: DocId) -> bool {
        match self.stored.binary_search_by_key(&doc, |(s, _)| s.doc) {
            Ok(i) if !self.stored[i].1 => {
                self.stored[i].1 = true;
                true
            }
            _ => false,
        }
    }
    fn remove(&mut self, doc: DocId) -> bool {
        match self.stored.binary_search_by_key(&doc, |(s, _)| s.doc) {
            Ok(i) => {
                self.stored.remove(i);
                true
            }
            Err(_) => false,
        }
    }
    fn cleanup(&mut self) -> Vec<IndexEntry> {
        let (dead, live): (Vec<_>, Vec<_>) = self.stored.drain(..).partition(|(_, d)| *d);
        self.stored = live;
        dead.into_iter().map(|(e, _)| e).collect()
    }
    fn live(&self) -> Vec<IndexEntry> {
        self.stored
            .iter()
            .filter(|(_, d)| !d)
            .map(|(e, _)| *e)
            .collect()
    }
    fn dead_count(&self) -> usize {
        self.stored.iter().filter(|(_, d)| *d).count()
    }
    /// Every stored entry, tombstoned ones included — what the packed
    /// block physically encodes.
    fn all(&self) -> Vec<IndexEntry> {
        self.stored.iter().map(|(e, _)| *e).collect()
    }
}

/// A random strictly doc-ascending batch over `0..doc_space`: each doc is
/// picked with probability ½, so a batch mixes fresh docs, replacements
/// of stored ones and revivals of tombstoned ones.
fn batch(r: &mut DetRng, doc_space: u32) -> Vec<IndexEntry> {
    let mut out = Vec::new();
    for d in 0..doc_space {
        if r.gen_range(0..2) == 0 {
            out.push(entry(r, d));
        }
    }
    out
}

/// The canonical-encoding guard: a packed block must hold exactly the
/// bytes a from-scratch encode of the model's stored entries produces.
fn check_canonical(list: &PostingList, model: &Model, step: usize) {
    let canonical = PostingList::from_entries(model.all(), true);
    assert_eq!(
        list.packed_bytes(),
        canonical.packed_bytes(),
        "packed bytes are not canonical at step {step}"
    );
}

fn check_agreement(list: &PostingList, model: &Model, step: usize) {
    let live = model.live();
    assert_eq!(list.len(), live.len(), "live count diverged at step {step}");
    assert_eq!(list.is_empty(), live.is_empty());
    assert_eq!(
        list.dead_count(),
        model.dead_count(),
        "tombstone debt diverged at step {step}"
    );
    assert_eq!(
        list.to_entries(),
        live,
        "live contents diverged at step {step} (packed: {})",
        list.is_packed()
    );
    // The iterator is the query path: same entries, already doc-sorted.
    let via_iter: Vec<IndexEntry> = list.iter().collect();
    assert_eq!(via_iter, live);
}

/// Random interleavings of every mutation, replayed on both
/// representations against the model: all live-facing accessors agree at
/// every step, and both representations reclaim the same entries in the
/// same order.
#[test]
fn random_interleavings_agree_with_the_naive_model() {
    let mut r = rng("interleave");
    for round in 0..64 {
        let mut plain = PostingList::new(false);
        let mut packed = PostingList::new(true);
        let mut model = Model::default();
        let doc_space = r.gen_range(4..24) as u32;
        let steps = r.gen_range(10..60);
        for step in 0..steps {
            let doc = r.gen_range(0..doc_space as usize) as u32;
            match r.gen_range(0..11) {
                // Publishing dominates, mixing in-order appends (fresh
                // high ids) with out-of-order splices and republishes.
                0..=4 => {
                    let e = entry(&mut r, doc);
                    plain.publish(e);
                    packed.publish(e);
                    model.publish(e);
                }
                5..=6 => {
                    let d = DocId(doc);
                    let a = plain.tombstone(d);
                    let b = packed.tombstone(d);
                    let m = model.tombstone(d);
                    assert_eq!(a, m, "plain tombstone verdict, round {round} step {step}");
                    assert_eq!(b, m, "packed tombstone verdict, round {round} step {step}");
                }
                7 => {
                    let b = batch(&mut r, doc_space);
                    plain.merge_sorted(&b);
                    packed.merge_sorted(&b);
                    model.merge(&b);
                }
                8 => {
                    let d = DocId(doc);
                    let a = plain.remove(d);
                    let b = packed.remove(d);
                    let m = model.remove(d);
                    assert_eq!(a, m, "plain remove verdict, round {round} step {step}");
                    assert_eq!(b, m, "packed remove verdict, round {round} step {step}");
                }
                _ => {
                    let a = plain.cleanup();
                    let b = packed.cleanup();
                    let m = model.cleanup();
                    assert_eq!(a, m, "plain reclaim set, round {round} step {step}");
                    assert_eq!(b, m, "packed reclaim set, round {round} step {step}");
                }
            }
            check_agreement(&plain, &model, step);
            check_agreement(&packed, &model, step);
            check_canonical(&packed, &model, step);
        }
    }
}

/// `merge_sorted(batch)` leaves exactly the state of publishing the batch
/// one entry at a time — live entries, tombstone debt, the reclaim set
/// and, for packed blocks, the encoded bytes — on both representations,
/// starting from lists that carry tombstones.
#[test]
fn merge_sorted_equals_publishing_one_at_a_time() {
    let mut r = rng("merge");
    for round in 0..128 {
        let doc_space = r.gen_range(1..40) as u32;
        let stored = batch(&mut r, doc_space);
        let victims: Vec<DocId> = stored
            .iter()
            .filter(|_| r.gen_range(0..3) == 0)
            .map(|e| e.doc)
            .collect();
        let incoming = batch(&mut r, doc_space + 8);
        for packed in [false, true] {
            let mut merged = PostingList::from_entries(stored.clone(), packed);
            for &v in &victims {
                assert!(merged.tombstone(v));
            }
            let mut published = merged.clone();
            merged.merge_sorted(&incoming);
            for &e in &incoming {
                published.publish(e);
            }
            assert_eq!(merged.to_entries(), published.to_entries(), "round {round}");
            assert_eq!(merged.dead_count(), published.dead_count(), "round {round}");
            assert_eq!(
                merged.packed_bytes(),
                published.packed_bytes(),
                "round {round}"
            );
            assert_eq!(
                merged.stored_bytes(),
                published.stored_bytes(),
                "round {round}"
            );
            assert_eq!(merged.cleanup(), published.cleanup(), "round {round}");
            assert_eq!(
                merged.packed_bytes(),
                published.packed_bytes(),
                "round {round}"
            );
        }
    }
}

/// The packed append-only contract: between cleanups, in-order publishes
/// and tombstones only ever *extend* the encoded block — every byte
/// behind the watermark stays untouched. Only `cleanup` may rewrite.
#[test]
fn packed_bytes_are_append_only_until_cleanup() {
    let mut r = rng("watermark");
    for _ in 0..64 {
        let mut list = PostingList::new(true);
        let mut next_doc = 0u32;
        let mut snapshot: Vec<u8> = Vec::new();
        for _ in 0..r.gen_range(10..40) {
            if r.gen_range(0..4) < 3 || next_doc == 0 {
                // In-order publish: strictly ascending ids, the
                // bulk-publish fast path.
                next_doc += 1 + r.gen_range(0..3) as u32;
                list.publish(entry(&mut r, next_doc));
            } else {
                // Tombstone an already-published id: marks only.
                let victim = 1 + r.gen_range(0..next_doc as usize) as u32;
                list.tombstone(DocId(victim));
            }
            let bytes = list.packed_bytes().expect("packed list");
            assert!(
                bytes.len() >= snapshot.len() && bytes[..snapshot.len()] == snapshot[..],
                "a non-cleanup operation rewrote bytes behind the watermark"
            );
            snapshot = bytes.to_vec();
        }
        let had_debt = list.dead_count() > 0;
        let reclaimed = list.cleanup();
        assert_eq!(!reclaimed.is_empty(), had_debt);
        assert_eq!(list.dead_count(), 0);
        // After the rewrite the block re-encodes only live entries: a
        // second cleanup is a no-op on an already-clean block.
        let bytes_after = list.packed_bytes().expect("packed list").to_vec();
        assert!(list.cleanup().is_empty());
        assert_eq!(list.packed_bytes().expect("packed list"), &bytes_after[..]);
    }
}

/// Republishing a tombstoned document revives it in place: the tombstone
/// is shed, the fresh metadata wins, and a later cleanup reclaims
/// nothing for it — on both representations.
#[test]
fn republish_sheds_a_pending_tombstone() {
    let mut r = rng("revive");
    for _ in 0..64 {
        for packed in [false, true] {
            let mut list = PostingList::new(packed);
            let docs = r.gen_range(3..10) as u32;
            for d in 0..docs {
                list.publish(entry(&mut r, d));
            }
            let victim = DocId(r.gen_range(0..docs as usize) as u32);
            assert!(list.tombstone(victim));
            assert_eq!(list.dead_count(), 1);
            let revived = entry(&mut r, victim.0);
            list.publish(revived);
            assert_eq!(list.dead_count(), 0, "republish must shed the tombstone");
            assert!(list.to_entries().contains(&revived));
            assert!(list.cleanup().is_empty(), "nothing left to reclaim");
        }
    }
}
