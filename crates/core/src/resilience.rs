//! §7 robustness extensions: peer failure, successor replication of
//! indexes, and the hot-term advisory for load balancing.
//!
//! The paper's argument: with periodic index replication to successors,
//! "peer failure will have little impact in SPRITE … only a small number of
//! terms are replicated." The churn experiment (bench `churn`) measures
//! exactly that: retrieval quality after abrupt indexing-peer failures,
//! with and without replication.

use std::collections::{BTreeMap, HashSet};

use sprite_chord::{sim, ChurnEngine, ChurnEvent, MsgKind, NetStats, Phase, TickReport};
use sprite_ir::{DocId, TermId};
use sprite_util::{derive_rng, EventQueue, RingId};

use crate::peer::{digest_wire_size, records_wire_size, IndexEntry, IndexingState};
use crate::system::SpriteSystem;

/// Destination-batched maintenance transfers awaiting a flush: per
/// destination, the summed payload bytes and the records to install on
/// delivery.
type TransferBatch = BTreeMap<u128, (u64, Vec<(TermId, Vec<IndexEntry>)>)>;

/// Each held list's routed owner as the orphan pass found it: per
/// `(holder, term)`, in that sorted order, the owner a `lookup_fast` from
/// the holder returned (`None` when the walk failed). The ring cannot
/// change inside a round, so the replication pass reuses these walks.
type Routes = Vec<((u128, TermId), Option<RingId>)>;

/// What one maintenance transfer pass did.
#[derive(Clone, Copy, Debug, Default)]
struct PassTally {
    /// Entries installed: only those new at the receiver for the orphan
    /// pass, every delivered entry for the replication pass.
    installed: usize,
    /// Lists whose digest matched the receiver's copy.
    in_sync: usize,
    /// Lists put on the wire.
    shipped: usize,
}

/// One maintenance pass's outgoing transfers.
struct Transfers {
    /// Queue records for one flush per destination instead of sending
    /// each list on its own.
    batched: bool,
    /// Count only entries new at the receiver (the orphan pass).
    count_new: bool,
    batch: TransferBatch,
    /// `(destination, term)` pairs already carrying a record in `batch`.
    /// A later record for the same pair ships even when its digest
    /// matches the receiver: the later merge wins ties, so skipping it
    /// could leave the earlier record's entries installed.
    pending: HashSet<(u128, TermId)>,
    tally: PassTally,
}

impl Transfers {
    fn new(batched: bool, count_new: bool) -> Self {
        Transfers {
            batched,
            count_new,
            batch: BTreeMap::new(),
            pending: HashSet::new(),
            tally: PassTally::default(),
        }
    }
}

/// Merge one delivered record into `st`. Returns the entries it counts:
/// those new at `st` when `count_new`, else every delivered entry.
fn install(st: &mut IndexingState, term: TermId, entries: &[IndexEntry], count_new: bool) -> usize {
    let before = st.indexed_df(term);
    st.merge(term, entries);
    if count_new {
        st.indexed_df(term) - before
    } else {
        entries.len()
    }
}

/// Report of a [`SpriteSystem::hot_term_advisory`] pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdvisoryReport {
    /// Hot terms detected across all indexing peers.
    pub hot_terms: usize,
    /// (doc, term) pairs retracted from the index.
    pub retractions: usize,
    /// Replacement terms published.
    pub replacements: usize,
}

/// Report of one [`SpriteSystem::churn_tick`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChurnReport {
    /// The ring-level outcome (events applied, bounded-maintenance changes).
    pub tick: TickReport,
    /// Inverted-list entries handed over by gracefully leaving peers.
    pub handed_over: usize,
    /// Indexing states dropped with abruptly failing peers.
    pub states_lost: usize,
}

/// Report of one [`SpriteSystem::maintenance_round`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaintenanceReport {
    /// Tombstoned entries physically reclaimed by the cleanup pass.
    pub tombstones_reclaimed: usize,
    /// Entries re-homed from peers that are no longer responsible.
    pub orphans_moved: usize,
    /// Entries delivered by the replication pass.
    pub replicated: usize,
    /// Lists offered by the orphan and replication passes whose digest
    /// matched the receiver's copy, so nothing shipped.
    pub lists_in_sync: usize,
    /// Lists the orphan and replication passes shipped because the
    /// receiver lacked them or held a different copy: the round's
    /// replica divergence. Zero on a converged ring without churn.
    pub lists_shipped: usize,
}

impl SpriteSystem {
    /// Abruptly fail `peer`: it vanishes from the ring and all its indexing
    /// state (inverted lists *and* cached queries) is lost. The ring is
    /// repaired afterwards; lost index entries come back only through
    /// [`Self::replicate_indexes`]-style replication or future re-publishes.
    pub fn fail_peer(&mut self, peer: RingId) -> bool {
        if self.net_mut().fail(peer).is_err() {
            return false;
        }
        self.indexing_mut().remove(&peer.0);
        self.net_mut().converge(64);
        self.refresh_peers();
        true
    }

    /// Fail `n` random indexing peers (deterministic in `seed`). Returns
    /// only the peers the network actually removed: the cached peer list
    /// can be stale after direct ring churn, and a peer that was already
    /// dead must not be reported as a fresh casualty to callers doing
    /// failure accounting.
    pub fn fail_random_peers(&mut self, n: usize, seed: u64) -> Vec<RingId> {
        use sprite_util::SliceRng;
        let mut rng = derive_rng(seed, "peer-failures");
        let mut candidates = self.peers().to_vec();
        candidates.shuffle(&mut rng);
        let limit = n.min(self.peers().len().saturating_sub(1));
        let mut victims: Vec<RingId> = Vec::with_capacity(limit);
        for v in candidates {
            if victims.len() >= limit || self.net().len() <= 1 {
                break;
            }
            if self.net_mut().fail(v).is_ok() {
                self.indexing_mut().remove(&v.0);
                victims.push(v);
            }
        }
        self.net_mut().converge(64);
        self.refresh_peers();
        victims
    }

    /// One tick of continuous churn (§7 under realistic maintenance): plan
    /// the tick's events, let gracefully leaving peers hand their inverted
    /// lists to a live successor *before* departing (their routing state is
    /// still intact), drop the state of abrupt failures, then apply the
    /// membership changes with the engine's bounded stabilization budget.
    /// No `converge`, no oracle — staleness the budget leaves behind is
    /// what the churn experiments measure.
    pub fn churn_tick(&mut self, engine: &mut ChurnEngine) -> ChurnReport {
        let span = self.trace_span_start();
        let mut report = ChurnReport::default();
        let events = engine.plan(self.net());
        for ev in &events {
            match *ev {
                ChurnEvent::Leave { id } => {
                    report.handed_over += self.hand_over_indexing(id);
                }
                ChurnEvent::Fail { id } => {
                    if self.indexing_mut().remove(&id.0).is_some() {
                        report.states_lost += 1;
                    }
                }
                ChurnEvent::Join { .. } => {}
            }
        }
        report.tick = engine.apply(self.net_mut(), &events);
        self.refresh_peers();
        self.trace_span_end(Phase::ChurnRepair, span);
        report
    }

    /// A gracefully leaving peer hands its inverted lists to its first
    /// alive successor before departing (§7's handover). The probe that
    /// finds the heir carries one digest per list; only the lists the
    /// heir does not already hold identically ship, billed per entry.
    /// Returns entries copied; 0 when the peer held no state or has no
    /// live successor (the state is then lost with the departure).
    fn hand_over_indexing(&mut self, leaving: RingId) -> usize {
        if self.indexing_state(leaving).is_none() {
            return 0;
        }
        let mut delta = NetStats::new();
        let chain = self.net().replicas_from_owner(leaving, 2, &mut delta);
        self.net_mut().absorb_stats(&delta);
        let Some(&heir) = chain.get(1) else {
            self.indexing_mut().remove(&leaving.0);
            return 0;
        };
        let state = self
            .indexing_mut()
            .remove(&leaving.0)
            .expect("checked above");
        let digest_bytes: u64 = state.terms().map(|(t, _)| digest_wire_size(t) as u64).sum();
        let (copied, shipped_bytes) = self.receiver_state(heir.0).absorb_replica(&state);
        self.net_mut()
            .charge_bytes(MsgKind::Maintenance, digest_bytes);
        self.net_mut().charge_n(MsgKind::Replication, copied as u64);
        self.net_mut()
            .charge_bytes(MsgKind::Replication, shipped_bytes);
        copied
    }

    /// The periodic maintenance hook run between churn ticks: reclaim
    /// tombstoned entries, re-home entries orphaned by ownership
    /// transfer, then refresh successor replicas. Both transfer passes
    /// share one routed owner lookup per held list. Intended cadence:
    /// every few [`Self::churn_tick`]s.
    pub fn maintenance_round(&mut self) -> MaintenanceReport {
        let span = self.trace_span_start();
        let tombstones_reclaimed = self.reclaim_tombstones();
        let mut routes = Routes::new();
        let orphans = self.republish_orphans(&mut routes);
        let replicas = self.replicate_pass(&routes);
        self.trace_span_end(Phase::Maintenance, span);
        MaintenanceReport {
            tombstones_reclaimed,
            orphans_moved: orphans.installed,
            replicated: replicas.installed,
            lists_in_sync: orphans.in_sync + replicas.in_sync,
            lists_shipped: orphans.shipped + replicas.shipped,
        }
    }

    /// Lazy tombstone reclamation: every indexing peer compacts its
    /// inverted lists, physically dropping entries that earlier removal
    /// records marked dead (see `lazy_tombstones` in
    /// [`crate::SpriteConfig`]). The per-entry wire accounting — one
    /// [`MsgKind::IndexRemove`] plus the removal record's exact bytes at
    /// the owner and every replica — happened when the record landed;
    /// reclamation itself is local compaction and charges nothing. The
    /// compacted live lists then flow to successor replicas whose copy
    /// differs through this same round's replication pass (delivery-gated
    /// [`MsgKind::Replication`]), so a reclaimed entry can never
    /// resurrect via replica repair. Runs first in the round, so no
    /// tombstone survives a single `maintenance_round` at a live peer.
    /// Returns entries reclaimed across all peers.
    fn reclaim_tombstones(&mut self) -> usize {
        // Peers are visited in sorted order: cleanup may drop emptied
        // lists, so iteration order would otherwise leak HashMap
        // randomness into subsequent maintenance passes.
        let mut dirty: Vec<u128> = self
            .indexing_mut()
            .iter()
            .filter(|(_, st)| st.pending_tombstones() > 0)
            .map(|(&p, _)| p)
            .collect();
        dirty.sort_unstable();
        let mut reclaimed = 0;
        for p in dirty {
            if let Some(st) = self.indexing_mut().get_mut(&p) {
                reclaimed += st.cleanup_tombstones().len();
            }
        }
        reclaimed
    }

    /// Re-home entries orphaned by ownership transfer: after joins, a peer
    /// may hold a term whose arc now belongs to a newcomer. Each holder
    /// verifies responsibility with a routed lookup (appended to `routes`
    /// for the replication pass); when the owner differs, one digest
    /// probe carries the holder's list digest, and the list ships only
    /// when the owner lacks an identical copy (the old holder keeps its
    /// copy, which now acts as a replica). Its tally counts entries newly
    /// installed at their proper owners.
    fn republish_orphans(&mut self, routes: &mut Routes) -> PassTally {
        let mut out = Transfers::new(self.config().batched_publish, true);
        for (holder, terms) in self.holder_snapshot() {
            let holder = RingId(holder);
            if !self.net().contains(holder) {
                continue;
            }
            for term in terms {
                let owner = self.route_owner(holder, term);
                routes.push(((holder.0, term), owner));
                let Some(owner) = owner else {
                    continue;
                };
                if owner == holder {
                    continue;
                }
                self.net_mut().charge(MsgKind::Maintenance);
                self.net_mut()
                    .charge_bytes(MsgKind::Maintenance, digest_wire_size(term) as u64);
                self.offer_list(holder, owner, term, &mut out);
            }
        }
        self.flush_transfer_batch(out)
    }

    /// The routed owner of `term` as seen from `holder` (`None` when the
    /// walk fails).
    fn route_owner(&mut self, holder: RingId, term: TermId) -> Option<RingId> {
        let key = self.term_ring(term);
        self.net_mut()
            .lookup_fast(holder, key)
            .ok()
            .map(|l| l.owner)
    }

    /// The one install rule of every maintenance transfer: offer `from`'s
    /// live list of `term` to `dest`, whose digest the caller's probe
    /// already carried. The list ships only when merging it could change
    /// `dest` — `dest` lacks an identical live list, or (batched) an
    /// earlier record for the same `(dest, term)` is already queued.
    /// Batched mode queues the record for [`Self::flush_transfer_batch`];
    /// unbatched mode sends one delivery-gated transfer now.
    fn offer_list(&mut self, from: RingId, dest: RingId, term: TermId, out: &mut Transfers) {
        let Some(list) = self
            .indexing_state(from)
            .and_then(|st| st.postings(term))
            .filter(|l| !l.is_empty())
        else {
            return;
        };
        let queued = out.batched && out.pending.contains(&(dest.0, term));
        if !queued
            && self
                .indexing_state(dest)
                .is_some_and(|st| st.holds_identical(term, list))
        {
            out.tally.in_sync += 1;
            return;
        }
        let entries = list.to_entries();
        let bytes = records_wire_size(term, &entries);
        out.tally.shipped += 1;
        if out.batched {
            out.pending.insert((dest.0, term));
            let slot = out.batch.entry(dest.0).or_insert_with(|| (0, Vec::new()));
            slot.0 += bytes;
            slot.1.push((term, entries));
            return; // installed (or lost) at flush time
        }
        let salt = sim::message_salt(from.0 as u64, dest.0 as u64, term.index() as u64);
        match self.net().plan_delivery(from, dest, salt) {
            Ok((_arrival, drops)) => {
                if drops > 0 {
                    self.net_mut().charge_n(MsgKind::Timeout, drops);
                }
                self.net_mut()
                    .charge_n(MsgKind::Replication, entries.len() as u64);
                self.net_mut().charge_bytes(MsgKind::Replication, bytes);
            }
            Err(drops) => {
                self.net_mut().charge_n(MsgKind::Timeout, drops);
                return; // transfer lost; `dest` stays as it was
            }
        }
        let st = self.receiver_state(dest.0);
        out.tally.installed += install(st, term, &entries, out.count_new);
    }

    /// `peer`'s indexing state, created empty when a transfer first
    /// reaches it.
    fn receiver_state(&mut self, peer: u128) -> &mut IndexingState {
        let cap = self.config().query_cache_capacity;
        let packed = self.config().packed_postings;
        self.indexing_mut()
            .entry(peer)
            .or_insert_with(|| IndexingState::with_packing(cap, packed))
    }

    /// Flush dest-batched maintenance transfers through the event
    /// scheduler: each destination's records travel as one in-flight
    /// message planned through the delivery layer — drops bill real
    /// [`MsgKind::Timeout`]s and a drowned message installs nothing, while
    /// the perfect default delivers every slot at `t = 0` in key order,
    /// reproducing the lockstep flush. Returns the pass's final tally,
    /// installed entries counted as [`Transfers::count_new`] says.
    fn flush_transfer_batch(&mut self, out: Transfers) -> PassTally {
        let Transfers {
            count_new,
            batch,
            mut tally,
            ..
        } = out;
        let mut queue = EventQueue::new();
        for (dest, (bytes, records)) in batch {
            // A dest-batched transfer merges many holders into one message,
            // so the sender is collapsed onto the destination for link
            // sampling.
            let salt = sim::message_salt(dest as u64, (dest >> 64) as u64, 0x6d61_696e);
            let (arrival, drops, delivered) =
                match self.net().plan_delivery(RingId(dest), RingId(dest), salt) {
                    Ok((arrival, drops)) => (arrival, drops, true),
                    Err(drops) => (0, drops, false),
                };
            queue.push(arrival, (dest, bytes, records, drops, delivered));
        }
        while let Some((_, (dest, bytes, records, drops, delivered))) = queue.pop() {
            if drops > 0 {
                self.net_mut().charge_n(MsgKind::Timeout, drops);
            }
            if !delivered {
                continue; // the transfer drowned; nothing arrives
            }
            self.net_mut().charge(MsgKind::Replication);
            self.net_mut().charge_bytes(MsgKind::Replication, bytes);
            let st = self.receiver_state(dest);
            for (term, entries) in records {
                tally.installed += install(st, term, &entries, count_new);
            }
        }
        tally
    }

    /// Snapshot which peers hold which terms, both levels sorted so every
    /// maintenance pass walks the index in a reproducible order.
    fn holder_snapshot(&mut self) -> Vec<(u128, Vec<TermId>)> {
        let mut holders: Vec<(u128, Vec<TermId>)> = self
            .indexing_mut()
            .iter()
            .map(|(&p, st)| {
                let mut terms: Vec<TermId> = st.term_dfs().map(|(t, _)| t).collect();
                terms.sort_unstable();
                (p, terms)
            })
            .collect();
        holders.sort_unstable_by_key(|&(p, _)| p);
        holders
    }

    /// The periodic successor replication of §7: every responsible indexing
    /// peer offers each of its inverted lists to the `replication − 1`
    /// peers succeeding the *term's* ring position. A no-op when
    /// [`crate::SpriteConfig::replication`] is 1. Returns entries copied.
    ///
    /// Responsibility is resolved by a routed `lookup_fast` from the
    /// holder, the replica set by walking the owner's successor chain.
    /// Each replica probe carries the owner's list digest, and a list
    /// ships only to replicas that lack an identical copy. Shipped data
    /// is billed with its exact record bytes, as one
    /// [`MsgKind::Replication`] per entry when unbatched, or as one per
    /// destination per round when batched.
    pub fn replicate_indexes(&mut self) -> usize {
        self.replicate_pass(&Routes::new()).installed
    }

    /// [`Self::replicate_indexes`] reusing the owner lookups `routes`
    /// holds; only pairs missing from it are walked.
    fn replicate_pass(&mut self, routes: &Routes) -> PassTally {
        let degree = self.config().replication;
        if degree <= 1 {
            return PassTally::default();
        }
        let mut out = Transfers::new(self.config().batched_publish, false);
        for (holder, terms) in self.holder_snapshot() {
            let holder = RingId(holder);
            if !self.net().contains(holder) {
                continue;
            }
            for term in terms {
                let owner = match routes.binary_search_by_key(&(holder.0, term), |&(k, _)| k) {
                    Ok(i) => routes[i].1,
                    Err(_) => self.route_owner(holder, term),
                };
                // Only the current responsible peer fans out; replicas do
                // not re-replicate.
                if owner != Some(holder)
                    || self
                        .indexing_state(holder)
                        .map_or(0, |st| st.indexed_df(term))
                        == 0
                {
                    continue;
                }
                let mut delta = NetStats::new();
                let replicas = self.net().replicas_from_owner(holder, degree, &mut delta);
                self.net_mut().absorb_stats(&delta);
                for replica in replicas.into_iter().skip(1) {
                    self.net_mut()
                        .charge_bytes(MsgKind::Maintenance, digest_wire_size(term) as u64);
                    self.offer_list(holder, replica, term, &mut out);
                }
            }
        }
        self.flush_transfer_batch(out)
    }

    /// §7 load balancing: indexing peers report terms whose indexed
    /// document frequency exceeds `df_threshold`; every owner indexing such
    /// a term retracts it (one advisory message each) and publishes its
    /// next-best term instead. High-df terms "contribute little in the
    /// similarity calculation" anyway (tiny IDF).
    pub fn hot_term_advisory(&mut self, df_threshold: usize) -> AdvisoryReport {
        let mut report = AdvisoryReport::default();
        // Collect (term, affected docs) across all peers. Peers and terms
        // are visited in sorted order: advisory application mutates owner
        // state (exclusions, replacements), so iteration order would
        // otherwise leak HashMap randomness into published indexes.
        let mut hot: Vec<(TermId, Vec<DocId>)> = {
            let index = self.indexing_mut();
            let mut peers: Vec<&u128> = index.keys().collect();
            peers.sort_unstable();
            peers
                .into_iter()
                .map(|p| &index[p])
                .flat_map(|st| {
                    st.term_dfs()
                        .filter(|&(_, df)| df > df_threshold)
                        .map(|(t, _)| {
                            (
                                t,
                                st.postings(t)
                                    .into_iter()
                                    .flatten()
                                    .map(|e| e.doc)
                                    .collect::<Vec<_>>(),
                            )
                        })
                        .collect::<Vec<_>>()
                })
                .collect()
        };
        hot.sort_unstable_by_key(|&(t, _)| t);
        report.hot_terms = hot.len();
        for (term, docs) in hot {
            for doc in docs {
                // One advisory message from the indexing peer to the owner.
                self.net_mut().charge(MsgKind::Maintenance);
                if self.apply_advisory(doc, term) {
                    report.replacements += 1;
                }
                report.retractions += 1;
            }
        }
        report
    }

    /// Apply one advisory: the owner of `doc` drops `term`, excludes it
    /// from future learning, and republishes its next-best candidate.
    /// Returns true if a replacement was published.
    fn apply_advisory(&mut self, doc: DocId, term: TermId) -> bool {
        if !self.owner_state(doc).published.contains(&term) {
            // Stale advisory (e.g. the owner already replaced the term).
            self.owner_mut(doc).excluded.insert(term);
            return false;
        }
        self.remove_term(doc, term);
        {
            let owner = self.owner_mut(doc);
            owner.published.retain(|&t| t != term);
            owner.excluded.insert(term);
        }
        // Next-best candidate under the exclusion.
        let budget = self.owner_state(doc).published.len() + 1;
        let candidates = {
            let d = self.corpus().doc(doc).clone();
            let owner = self.owner_state(doc);
            crate::learn::select_terms_excluding(&d, &owner.stats, budget, &owner.excluded)
        };
        let published = self.owner_state(doc).published.clone();
        for t in candidates {
            if !published.contains(&t) {
                self.publish_term(doc, t);
                self.owner_mut(doc).published.push(t);
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peer::records_wire_size;
    use crate::SpriteConfig;
    use sprite_corpus::{CorpusConfig, SyntheticCorpus};
    use sprite_ir::Query;

    fn system(replication: usize) -> SpriteSystem {
        let sc = SyntheticCorpus::generate(&CorpusConfig::tiny(13));
        let cfg = SpriteConfig {
            replication,
            ..SpriteConfig::default()
        };
        let mut sys = SpriteSystem::build(sc.corpus().clone(), 24, cfg, 13);
        sys.publish_all();
        sys
    }

    #[test]
    fn failure_without_replication_loses_entries() {
        let mut sys = system(1);
        let before = sys.total_index_entries();
        let victims = sys.fail_random_peers(4, 1);
        assert_eq!(victims.len(), 4);
        assert!(
            sys.total_index_entries() < before,
            "some index entries must be lost"
        );
        // Queries still run (terms on dead peers are simply discarded, §7).
        let t = sys.published_terms(DocId(0)).first().copied();
        if let Some(t) = t {
            let _ = sys.issue_query(&Query::new(vec![t]), 10);
        }
    }

    #[test]
    fn replication_preserves_retrieval_after_failure() {
        let mut sys = system(3);
        sys.replicate_indexes();
        // Pick a (doc, term) pair and kill its responsible indexing peer.
        let doc = DocId(0);
        let term = sys.published_terms(doc)[0];
        let key = sys.term_ring(term);
        let victim = sys.net().oracle_owner(key).unwrap();
        assert!(sys.fail_peer(victim));
        // The replicas answer: doc 0 is still retrievable by that term.
        let all = sys.corpus().len();
        let hits = sys.issue_query(&Query::new(vec![term]), all);
        assert!(
            hits.iter().any(|h| h.doc == doc),
            "replication must keep doc retrievable"
        );
    }

    #[test]
    fn replicate_is_noop_at_degree_one() {
        let mut sys = system(1);
        assert_eq!(sys.replicate_indexes(), 0);
    }

    #[test]
    fn replicate_copies_every_entry_once_per_replica() {
        let mut sys = system(2);
        // Publishing already wrote every replica: nothing is left to copy.
        assert_eq!(sys.replicate_indexes(), 0);
        let intact = index_snapshot(&sys);
        // Strip one replica of one list; the next round restores exactly
        // that list and ships nothing else.
        let term = sys.published_terms(DocId(0))[0];
        let key = sys.term_ring(term);
        let owner = sys.net().oracle_owner(key).unwrap();
        let replica = sys
            .net()
            .replicas_from_owner(owner, 2, &mut NetStats::new())[1];
        let list = sys.indexing_state(owner).unwrap().entries(term);
        let st = sys.indexing_state_mut(replica).unwrap();
        for e in &list {
            assert!(st.remove(term, e.doc));
        }
        sys.net_mut().reset_stats();
        let report = sys.maintenance_round();
        assert_eq!(index_snapshot(&sys), intact, "only that list came back");
        assert_eq!(report.replicated, list.len(), "every entry, once");
        assert_eq!(report.lists_shipped, 1);
        assert_eq!(report.orphans_moved, 0);
        assert!(report.lists_in_sync > 0);
        let stats = sys.net().stats();
        assert_eq!(
            stats.count(MsgKind::Replication),
            1,
            "one batched transfer to the one divergent replica"
        );
        assert_eq!(
            stats.bytes(MsgKind::Replication),
            records_wire_size(term, &list),
            "the shipped bytes are that list's records"
        );
    }

    /// Every peer's lists — live entries and packed bytes — plus its
    /// logical index bytes, in peer then term order.
    type IndexSnapshot = Vec<(RingId, u64, Vec<(TermId, Vec<IndexEntry>, Option<Vec<u8>>)>)>;

    fn index_snapshot(sys: &SpriteSystem) -> IndexSnapshot {
        sys.indexing_peers()
            .into_iter()
            .map(|p| {
                let st = sys.indexing_state(p).expect("indexing peer");
                let lists = st
                    .terms()
                    .map(|(t, l)| (t, l.to_entries(), l.packed_bytes().map(<[u8]>::to_vec)))
                    .collect();
                (p, st.logical_index_bytes(), lists)
            })
            .collect()
    }

    #[test]
    fn repeated_maintenance_without_churn_is_a_fixed_point() {
        for batched_publish in [true, false] {
            let sc = SyntheticCorpus::generate(&CorpusConfig::tiny(13));
            let cfg = SpriteConfig {
                replication: 3,
                batched_publish,
                ..SpriteConfig::default()
            };
            let mut sys = SpriteSystem::build(sc.corpus().clone(), 24, cfg, 13);
            sys.publish_all();
            let first = sys.maintenance_round();
            let after_first = index_snapshot(&sys);
            sys.net_mut().reset_stats();
            let second = sys.maintenance_round();
            assert_eq!(
                index_snapshot(&sys),
                after_first,
                "a second round changed some list (batched: {batched_publish})"
            );
            // Publishing wrote every replica and the ring is converged, so
            // every digest matches and nothing ships in either round.
            for round in [first, second] {
                assert_eq!(round.lists_shipped, 0, "batched: {batched_publish}");
                assert_eq!(round.replicated, 0);
                assert_eq!(round.orphans_moved, 0);
                assert!(round.lists_in_sync > 0);
            }
            assert_eq!(second.lists_in_sync, first.lists_in_sync);
            let stats = sys.net().stats();
            assert_eq!(stats.count(MsgKind::Replication), 0);
            assert_eq!(stats.bytes(MsgKind::Replication), 0);
        }
    }

    #[test]
    fn fail_unknown_peer_is_false() {
        let mut sys = system(1);
        assert!(!sys.fail_peer(RingId(12345)));
    }

    #[test]
    fn fail_random_peers_reports_only_actual_removals() {
        let mut sys = system(1);
        // Make the cached peer list stale: kill six peers directly at the
        // ring, bypassing refresh_peers, so peers() still lists them.
        let stale: Vec<RingId> = sys.peers().iter().copied().take(6).collect();
        for &v in &stale {
            sys.net_mut().fail(v).unwrap();
        }
        // Ask for more failures than there are live peers: the stale six
        // must not be double-counted, and the ring must keep one survivor.
        let victims = sys.fail_random_peers(20, 99);
        assert!(
            victims.iter().all(|v| !stale.contains(v)),
            "already-dead peer reported as a fresh casualty"
        );
        assert!(victims.iter().all(|v| !sys.net().contains(*v)));
        let mut dedup = victims.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), victims.len(), "victims must be distinct");
        // 24 peers − 6 stale = 18 alive; the guard keeps the last one.
        assert_eq!(victims.len(), 17);
        assert_eq!(sys.net().len(), 1);
    }

    #[test]
    fn graceful_leave_hands_indexes_to_a_successor() {
        // Degree 1 so the heir holds no mirrored copies: the handover's
        // entry conservation is then exact.
        let mut sys = system(1);
        let holder = sys.indexing_peers()[0];
        let entries = sys.indexing_state(holder).unwrap().total_entries();
        assert!(entries > 0);
        let before_total = sys.total_index_entries();
        let copied = sys.hand_over_indexing(holder);
        assert_eq!(copied, entries, "every entry reaches the heir");
        assert!(sys.indexing_state(holder).is_none());
        assert_eq!(
            sys.total_index_entries(),
            before_total,
            "handover may merge lists but never lose entries"
        );
        assert_eq!(
            sys.net().stats().count(MsgKind::Replication) as usize,
            copied,
            "one replication message per entry shipped"
        );
    }

    #[test]
    fn maintenance_rehomes_entries_after_ownership_transfer() {
        let mut sys = system(1);
        // Join a newcomer exactly at a held term's ring position so
        // ownership of that term transfers away from its current holder.
        let holder = sys.indexing_peers()[0];
        let term = {
            let mut ts: Vec<TermId> = sys
                .indexing_state(holder)
                .unwrap()
                .term_dfs()
                .map(|(t, _)| t)
                .collect();
            ts.sort_unstable();
            ts[0]
        };
        let key = sys.term_ring(term);
        let bootstrap = sys.peers()[0];
        sys.net_mut().join(RingId(key.0), bootstrap).unwrap();
        sys.net_mut().converge(64);
        sys.refresh_peers();
        let report = sys.maintenance_round();
        assert!(report.orphans_moved >= 1, "orphaned entries must move");
        assert!(
            sys.indexed_df(term) >= 1,
            "the newcomer answers for the transferred term"
        );
    }

    #[test]
    fn churn_tick_is_deterministic_and_keeps_the_system_queryable() {
        use sprite_chord::ChurnConfig;
        let run = || {
            let mut sys = system(3);
            sys.replicate_indexes();
            let mut engine = ChurnEngine::new(ChurnConfig::default(), 21);
            let mut reports = Vec::new();
            for _ in 0..4 {
                reports.push(sys.churn_tick(&mut engine));
                sys.maintenance_round();
            }
            let t = sys.published_terms(DocId(0))[0];
            let hits = sys.issue_query(&Query::new(vec![t]), sys.corpus().len());
            (reports, sys.peers().to_vec(), hits)
        };
        let (ra, pa, ha) = run();
        let (rb, pb, hb) = run();
        assert_eq!(ra, rb);
        assert_eq!(pa, pb);
        assert_eq!(ha.len(), hb.len());
        for (a, b) in ha.iter().zip(&hb) {
            assert_eq!(a.doc, b.doc);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }

    #[test]
    fn maintenance_reclaims_tombstones_at_owner_and_replicas() {
        let mut sys = system(3);
        sys.replicate_indexes();
        let doc = DocId(0);
        let term = sys.published_terms(doc)[0];
        let retracted = sys.delete_document(doc);
        assert!(retracted > 0);
        // Lazy tombstones landed at the responsible peer and every replica.
        assert!(sys.pending_tombstones() >= retracted);
        let report = sys.maintenance_round();
        assert!(report.tombstones_reclaimed >= retracted);
        assert_eq!(sys.pending_tombstones(), 0, "one round clears all debt");
        // Replica repair after the reclaim must not resurrect the doc: kill
        // the responsible peer so queries fail over to replicas.
        sys.maintenance_round();
        let key = sys.term_ring(term);
        let victim = sys.net().oracle_owner(key).unwrap();
        assert!(sys.fail_peer(victim));
        sys.maintenance_round();
        let hits = sys.issue_query(&Query::new(vec![term]), sys.corpus().len());
        assert!(
            hits.iter().all(|h| h.doc != doc),
            "deleted doc resurrected through replica repair"
        );
    }

    #[test]
    fn hot_term_advisory_retracts_and_replaces() {
        let mut sys = system(1);
        // Find the hottest indexed df so the advisory flags only the top.
        let max_df = {
            let mut m = 0;
            for p in sys.peers().to_vec() {
                if let Some(st) = sys.indexing_state(p) {
                    for (_, df) in st.term_dfs() {
                        m = m.max(df);
                    }
                }
            }
            m
        };
        assert!(max_df >= 2, "tiny corpus should share some frequent terms");
        let report = sys.hot_term_advisory(max_df - 1);
        assert!(report.hot_terms >= 1);
        assert!(report.retractions >= report.hot_terms);
        assert!(report.replacements <= report.retractions);
        for i in 0..sys.corpus().len() {
            let doc = DocId(i as u32);
            let owner = sys.owner_state(doc);
            for t in &owner.excluded {
                assert!(
                    !owner.published.contains(t),
                    "excluded term still published"
                );
            }
        }
    }

    #[test]
    fn excluded_terms_stay_out_after_learning() {
        let mut sys = system(1);
        sys.hot_term_advisory(10);
        sys.learn(2);
        for i in 0..sys.corpus().len() {
            let doc = DocId(i as u32);
            let owner = sys.owner_state(doc);
            for t in &owner.excluded {
                assert!(
                    !owner.published.contains(t),
                    "excluded term republished for doc {i}"
                );
            }
        }
    }

    /// The full-copy reference model: maintenance and hand-over as they
    /// ran before the digest gate, merging every offered list
    /// unconditionally. It changes index state exactly as the production
    /// passes must, and bills nothing.
    mod full_copy {
        use super::*;

        /// `peer`'s indexing state, created empty on first delivery.
        fn state(sys: &mut SpriteSystem, peer: RingId) -> &mut IndexingState {
            let cap = sys.config().query_cache_capacity;
            let packed = sys.config().packed_postings;
            sys.indexing_mut()
                .entry(peer.0)
                .or_insert_with(|| IndexingState::with_packing(cap, packed))
        }

        pub(super) fn churn_tick(sys: &mut SpriteSystem, engine: &mut ChurnEngine) {
            let events = engine.plan(sys.net());
            for ev in &events {
                match *ev {
                    ChurnEvent::Leave { id } => {
                        let chain = sys.net().replicas_from_owner(id, 2, &mut NetStats::new());
                        let Some(left) = sys.indexing_mut().remove(&id.0) else {
                            continue;
                        };
                        if let Some(&heir) = chain.get(1) {
                            let heir = state(sys, heir);
                            for (term, list) in left.terms() {
                                heir.merge(term, &list.to_entries());
                            }
                        }
                    }
                    ChurnEvent::Fail { id } => {
                        sys.indexing_mut().remove(&id.0);
                    }
                    ChurnEvent::Join { .. } => {}
                }
            }
            engine.apply(sys.net_mut(), &events);
            sys.refresh_peers();
        }

        pub(super) fn maintenance_round(sys: &mut SpriteSystem) {
            for p in sys.indexing_peers() {
                sys.indexing_mut()
                    .get_mut(&p.0)
                    .expect("indexing peer")
                    .cleanup_tombstones();
            }
            transfers(sys, false);
            if sys.config().replication > 1 {
                transfers(sys, true);
            }
        }

        /// One pass over every held list: the orphan pass re-homes lists
        /// whose routed owner is another peer, the replication pass copies
        /// each owned list to the owner's successors.
        fn transfers(sys: &mut SpriteSystem, replicate: bool) {
            let degree = sys.config().replication;
            let mut batch: BTreeMap<u128, Vec<(TermId, Vec<IndexEntry>)>> = BTreeMap::new();
            for holder in sys.indexing_peers() {
                if !sys.net().contains(holder) {
                    continue;
                }
                let terms: Vec<TermId> = sys
                    .indexing_state(holder)
                    .expect("indexing peer")
                    .term_dfs()
                    .map(|(t, _)| t)
                    .collect();
                for term in terms {
                    let key = sys.term_ring(term);
                    let Ok(lookup) = sys.net_mut().lookup_fast(holder, key) else {
                        continue;
                    };
                    if (lookup.owner == holder) != replicate {
                        continue;
                    }
                    let entries = sys.indexing_state(holder).unwrap().entries(term);
                    if entries.is_empty() {
                        continue;
                    }
                    let dests: Vec<RingId> = if replicate {
                        let chain =
                            sys.net()
                                .replicas_from_owner(holder, degree, &mut NetStats::new());
                        chain.into_iter().skip(1).collect()
                    } else {
                        vec![lookup.owner]
                    };
                    for dest in dests {
                        if sys.config().batched_publish {
                            batch
                                .entry(dest.0)
                                .or_default()
                                .push((term, entries.clone()));
                            continue;
                        }
                        let salt =
                            sim::message_salt(holder.0 as u64, dest.0 as u64, term.index() as u64);
                        if sys.net().plan_delivery(holder, dest, salt).is_ok() {
                            state(sys, dest).merge(term, &entries);
                        }
                    }
                }
            }
            // Each destination's message touches only its own state, so
            // the flush order across destinations cannot matter.
            for (dest, records) in batch {
                let salt = sim::message_salt(dest as u64, (dest >> 64) as u64, 0x6d61_696e);
                if sys
                    .net()
                    .plan_delivery(RingId(dest), RingId(dest), salt)
                    .is_ok()
                {
                    for (term, entries) in records {
                        state(sys, RingId(dest)).merge(term, &entries);
                    }
                }
            }
        }
    }

    #[test]
    fn maintenance_gate_matches_the_full_copy_model_under_churn() {
        use sprite_chord::{ChurnConfig, SimConfig};
        use sprite_corpus::{DocChurnConfig, DocChurnEngine};
        let sc = SyntheticCorpus::generate(&CorpusConfig::tiny(31));
        for batched_publish in [true, false] {
            for packed_postings in [true, false] {
                for loss in [0.0, 0.05] {
                    let case =
                        format!("batched {batched_publish}, packed {packed_postings}, loss {loss}");
                    let cfg = SpriteConfig {
                        replication: 3,
                        batched_publish,
                        packed_postings,
                        ..SpriteConfig::default()
                    };
                    let mut sys = SpriteSystem::build(sc.corpus().clone(), 24, cfg, 31);
                    sys.net_mut().set_sim(SimConfig {
                        seed: 32,
                        loss,
                        ..SimConfig::default()
                    });
                    sys.publish_all();
                    sys.replicate_indexes();
                    let mut model = sys.clone();
                    let churn = ChurnConfig {
                        join_rate: 2.0,
                        leave_rate: 1.0,
                        ..ChurnConfig::default()
                    };
                    let mut engine = ChurnEngine::new(churn.clone(), 33);
                    let mut model_engine = ChurnEngine::new(churn, 33);
                    let mut docs = DocChurnEngine::new(
                        DocChurnConfig {
                            insert_rate: 1.0,
                            update_rate: 2.0,
                            delete_rate: 1.0,
                            min_docs: 8,
                        },
                        34,
                        &sc,
                    );
                    let (mut handed_over, mut shipped) = (0, 0);
                    for tick in 0..8 {
                        handed_over += sys.churn_tick(&mut engine).handed_over;
                        full_copy::churn_tick(&mut model, &mut model_engine);
                        assert_eq!(
                            index_snapshot(&sys),
                            index_snapshot(&model),
                            "{case}, tick {tick}: hand-over"
                        );
                        let events = docs.plan(&sys.live_docs(), sys.corpus().len());
                        sys.apply_doc_events(&events);
                        model.apply_doc_events(&events);
                        if tick % 2 == 1 {
                            shipped += sys.maintenance_round().lists_shipped;
                            full_copy::maintenance_round(&mut model);
                            assert_eq!(
                                index_snapshot(&sys),
                                index_snapshot(&model),
                                "{case}, tick {tick}: maintenance"
                            );
                        }
                    }
                    assert!(
                        handed_over > 0 && shipped > 0,
                        "{case}: the churn must exercise both transfers"
                    );
                }
            }
        }
    }

    #[test]
    fn maintenance_gate_ships_a_matching_record_queued_behind_another() {
        // Two holders re-home the same term to one new owner. The first
        // record differs from the owner's copy; the second equals it, but
        // the later merge wins ties, so the second must still ship or the
        // first record's entries would stick.
        for batched_publish in [true, false] {
            for packed_postings in [true, false] {
                let sc = SyntheticCorpus::generate(&CorpusConfig::tiny(13));
                let cfg = SpriteConfig {
                    batched_publish,
                    packed_postings,
                    ..SpriteConfig::default()
                };
                let mut sys = SpriteSystem::build(sc.corpus().clone(), 24, cfg, 13);
                sys.publish_all();
                let term = sys.published_terms(DocId(0))[0];
                let key = sys.term_ring(term);
                let holder = sys.net().oracle_owner(key).unwrap();
                let list = sys.indexing_state(holder).unwrap().entries(term);
                let mut changed = list.clone();
                changed[0].tf += 1;
                // The newcomer sits exactly at the term's ring position.
                let bootstrap = sys.peers()[0];
                sys.net_mut().join(RingId(key.0), bootstrap).unwrap();
                sys.net_mut().converge(64);
                sys.refresh_peers();
                let newcomer = RingId(key.0);
                let other = sys
                    .peers()
                    .iter()
                    .copied()
                    .find(|&p| p != holder && p != newcomer)
                    .unwrap();
                let (first, second) = (holder.min(other), holder.max(other));
                let set = |sys: &mut SpriteSystem, peer: RingId, entries: &[IndexEntry]| {
                    let packed = sys.config().packed_postings;
                    let st = sys
                        .indexing_mut()
                        .entry(peer.0)
                        .or_insert_with(|| IndexingState::with_packing(8, packed));
                    for e in st.entries(term) {
                        st.remove(term, e.doc);
                    }
                    st.merge(term, entries);
                };
                set(&mut sys, first, &changed);
                set(&mut sys, second, &list);
                set(&mut sys, newcomer, &list);
                let mut model = sys.clone();
                sys.maintenance_round();
                full_copy::maintenance_round(&mut model);
                assert_eq!(index_snapshot(&sys), index_snapshot(&model));
                // Skipping the matching second record would leave `changed`.
                assert_eq!(
                    sys.indexing_state(newcomer).unwrap().entries(term),
                    list,
                    "batched: {batched_publish}"
                );
            }
        }
    }
}
