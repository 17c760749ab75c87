//! The one query implementation.
//!
//! [`QueryView`] is a frozen snapshot of a [`crate::SpriteSystem`]: it
//! borrows the ring, the indexing-peer states, and the precomputed
//! term→ring positions immutably, so any number of threads can rank
//! queries against it concurrently. Every query flavor ranks here — the
//! §4 route, fetch, replica failover and scoring, charged into a
//! caller-owned [`NetStats`] delta. [`crate::SpriteSystem::issue_query_from`]
//! *is* this query plus the §3 side effect, and plain view queries leave
//! out exactly that mutable bookkeeping:
//!
//! * **query caching / `query_seq`** — evaluation queries are probes of
//!   current quality, not training examples; caching them would leak the
//!   test set into the next learning iteration (train/test hygiene);
//! * **the round-robin issue cursor** — the view takes an explicit `from`
//!   peer per query instead, so the issuing peer depends only on the
//!   query's position in the workload, not on global mutable state;
//! * **`NetStats` charging** — per-query deltas merged in input order
//!   reproduce the sequential totals bit-for-bit because every `NetStats`
//!   field is a sum or a max; the system absorbs its delta at once.
//!
//! [`RankScratch`] keeps the per-thread accumulation buffers alive across
//! queries so the hot loop stops reallocating them.

use std::collections::HashMap;

use sprite_chord::trace::{self, NullTrace, Phase, TraceSink};
use sprite_chord::{ChordNet, MsgKind, NetStats, RouteMemo};
use sprite_ir::{Corpus, DocId, Hit, Query, Similarity, TermId};
use sprite_util::RingId;

use crate::config::{IdfMode, SpriteConfig};
use crate::peer::IndexingState;
use crate::postings::PostingList;
use crate::trace::{KeywordTrace, QueryTrace};

/// Reusable per-thread ranking buffers (see module docs), dense over the
/// document space: one accumulator slot per [`DocId`] with an epoch stamp,
/// so starting a query is O(1), clearing is implicit, and the per-posting
/// hot loop is two array writes instead of two hash-map probes. The
/// `touched` list remembers which documents this query reached; the final
/// hit sort is a total order over `(score, doc)`, so ranked lists do not
/// depend on the order documents were first touched. The contents are
/// reset at the start of every query — only the allocations persist.
#[derive(Clone, Debug, Default)]
pub struct RankScratch {
    dot: Vec<f64>,
    norm_sq: Vec<f64>,
    meta: Vec<u32>,
    epoch: Vec<u32>,
    current: u32,
    touched: Vec<DocId>,
    hits: Vec<Hit>,
    /// The indexing peer each keyword routed to, in keyword order
    /// (dead-ended keywords have none).
    routed: Vec<RingId>,
}

impl RankScratch {
    /// Fresh buffers.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a new query over a corpus of `docs` documents: bump the epoch
    /// (stale slots die wholesale) and size the dense arrays on first use.
    fn begin(&mut self, docs: usize) {
        self.touched.clear();
        self.hits.clear();
        self.routed.clear();
        if self.epoch.len() < docs {
            self.dot.resize(docs, 0.0);
            self.norm_sq.resize(docs, 0.0);
            self.meta.resize(docs, 0);
            self.epoch.resize(docs, 0);
        }
        if self.current == u32::MAX {
            // Epoch wrap: one O(docs) reset every u32::MAX queries.
            self.epoch.fill(0);
            self.current = 0;
        }
        self.current += 1;
    }

    /// The indexing peers the last query's keywords routed to, one per
    /// resolved keyword in keyword order — where §3 caches the query.
    pub(crate) fn routed(&self) -> &[RingId] {
        &self.routed
    }

    /// The dense slot of `doc`, zeroed on its first touch this query.
    #[inline]
    fn slot(&mut self, doc: DocId) -> usize {
        let i = doc.index();
        if self.epoch[i] != self.current {
            self.epoch[i] = self.current;
            self.dot[i] = 0.0;
            self.norm_sq[i] = 0.0;
            self.meta[i] = 0;
            self.touched.push(doc);
        }
        i
    }
}

/// An immutable snapshot of a SPRITE deployment for concurrent querying.
/// Obtain one with [`crate::SpriteSystem::query_view`]; it freezes the
/// system for its lifetime (the borrow checker enforces that no learning
/// or churn interleaves with a fan-out).
#[derive(Clone, Copy, Debug)]
pub struct QueryView<'a> {
    cfg: &'a SpriteConfig,
    net: &'a ChordNet,
    indexing: &'a HashMap<u128, IndexingState>,
    corpus: &'a Corpus,
    peers: &'a [RingId],
    term_pos: &'a [Option<RingId>],
    true_dfs: Option<&'a [u32]>,
}

impl<'a> QueryView<'a> {
    pub(crate) fn new(
        cfg: &'a SpriteConfig,
        net: &'a ChordNet,
        indexing: &'a HashMap<u128, IndexingState>,
        corpus: &'a Corpus,
        peers: &'a [RingId],
        term_pos: &'a [Option<RingId>],
        true_dfs: Option<&'a [u32]>,
    ) -> Self {
        QueryView {
            cfg,
            net,
            indexing,
            corpus,
            peers,
            term_pos,
            true_dfs,
        }
    }

    /// Alive peers in ring order — the pool callers pick an explicit
    /// issuing peer per query from this list.
    #[must_use]
    pub fn peers(&self) -> &'a [RingId] {
        self.peers
    }

    /// Ring position of a term: the snapshot's precomputed position when
    /// warmed, else hashed on the fly (pure, so still deterministic).
    #[must_use]
    pub fn term_ring(&self, term: TermId) -> RingId {
        self.term_pos[term.index()]
            .unwrap_or_else(|| RingId::hash_term(self.corpus.vocab().term(term)))
    }

    /// Rank `query` issued from peer `from`, charging the message bill into
    /// `stats`. [`crate::SpriteSystem::issue_query_from`] runs this same
    /// query and then caches it at the routed indexing peers; the view
    /// leaves that out (see the module docs for why).
    #[must_use]
    pub fn query(
        &self,
        from: RingId,
        query: &Query,
        k: usize,
        stats: &mut NetStats,
        scratch: &mut RankScratch,
    ) -> Vec<Hit> {
        self.query_impl(
            from,
            query,
            k,
            stats,
            scratch,
            0,
            &mut NullTrace,
            None,
            None,
        )
    }

    /// Resolve every keyword route of a query batch once, up front: the
    /// distinct `(issuing peer, keyword key)` pairs are each walked a
    /// single time in one sequential pass (routing a frozen ring is
    /// read-only). [`QueryView::query_batched`] then replays the recorded
    /// outcomes — and their exact message bills — instead of re-walking
    /// keywords shared across in-flight queries.
    #[must_use]
    pub fn resolve_routes<'q, I>(&self, jobs: I) -> RouteMemo
    where
        I: IntoIterator<Item = (RingId, &'q Query)>,
    {
        let mut pairs: Vec<(RingId, RingId)> = Vec::new();
        for (from, query) in jobs {
            if query.is_empty() || !self.net.contains(from) {
                continue; // the query path rejects these before routing
            }
            for (term, _) in query.term_counts() {
                pairs.push((from, self.term_ring(term)));
            }
        }
        RouteMemo::build(self.net, &pairs)
    }

    /// [`QueryView::query`] through a prebuilt [`RouteMemo`] — the batched
    /// pipeline's per-query entry point. Results and charges are
    /// bit-identical to the unmemoized call (enforced by the determinism
    /// audit's `query/batched` stage and the bench's `bit_identical`
    /// flag); pairs missing from the memo fall back to a fresh walk.
    #[must_use]
    pub fn query_batched(
        &self,
        from: RingId,
        query: &Query,
        k: usize,
        memo: &RouteMemo,
        stats: &mut NetStats,
        scratch: &mut RankScratch,
    ) -> Vec<Hit> {
        self.query_impl(
            from,
            query,
            k,
            stats,
            scratch,
            0,
            &mut NullTrace,
            None,
            Some(memo),
        )
    }

    /// [`QueryView::query`] with trace events emitted into `sink` under
    /// [`Phase::Query`]. Results and charges are bit-identical to the
    /// untraced call — tracing is observation only.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn query_traced<T: TraceSink>(
        &self,
        from: RingId,
        query: &Query,
        k: usize,
        stats: &mut NetStats,
        scratch: &mut RankScratch,
        tick: u64,
        sink: &mut T,
    ) -> Vec<Hit> {
        self.query_impl(from, query, k, stats, scratch, tick, sink, None, None)
    }

    /// [`QueryView::query`] that additionally builds the per-keyword
    /// [`QueryTrace`] report (routes, owner hits, failover paths, timeouts).
    /// Results and charges are bit-identical to the untraced call.
    #[must_use]
    pub fn query_trace(
        &self,
        from: RingId,
        query: &Query,
        k: usize,
        stats: &mut NetStats,
        scratch: &mut RankScratch,
    ) -> (Vec<Hit>, QueryTrace) {
        let mut qt = QueryTrace::default();
        let hits = self.query_impl(
            from,
            query,
            k,
            stats,
            scratch,
            0,
            &mut NullTrace,
            Some(&mut qt),
            None,
        );
        (hits, qt)
    }

    /// The single query implementation behind every public flavor. When the
    /// sink is [`NullTrace`] and no [`QueryTrace`] is requested, every
    /// tracing branch is compile-time dead or `qt.is_some()`-guarded, so
    /// the hot evaluation path pays nothing. A [`QueryTrace`] is only
    /// requested under [`NullTrace`]: its route probe emits no events.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn query_impl<T: TraceSink>(
        &self,
        from: RingId,
        query: &Query,
        k: usize,
        stats: &mut NetStats,
        scratch: &mut RankScratch,
        tick: u64,
        sink: &mut T,
        mut qt: Option<&mut QueryTrace>,
        memo: Option<&RouteMemo>,
    ) -> Vec<Hit> {
        scratch.begin(self.corpus.len());
        if query.is_empty() || !self.net.contains(from) {
            return Vec::new();
        }
        let msgs_before = stats.total_messages();
        let mut replicas_probed: u64 = 0;
        let n = self.cfg.assumed_n;
        for (term, qtf) in query.term_counts() {
            let key = self.term_ring(term);
            let dead_before = stats.count(MsgKind::Failed) + stats.count(MsgKind::Timeout);
            // Resolve the keyword's indexing peer. Every flavor charges
            // alike: the report probe returns the route it walked, the
            // memo replays a recorded walk, and the traced probe emits the
            // walk's events (it compiles to the plain probe untraced).
            let resolved = if qt.is_some() {
                self.net
                    .probe_full(from, key, stats)
                    .map(|l| (l.owner, l.hops, l.path))
            } else if let Some(memo) = memo.filter(|_| !T::ENABLED) {
                self.net
                    .probe_via(memo, from, key, stats)
                    .map(|l| (l.owner, l.hops, Vec::new()))
            } else {
                self.net
                    .probe_traced(from, key, stats, Phase::Query, tick, sink)
                    .map(|l| (l.owner, l.hops, Vec::new()))
            };
            let (owner, hops, route) = match resolved {
                Ok(r) => r,
                Err(_) => {
                    // §7 degradation: charge the abandoned retry and drop
                    // the keyword — ranking proceeds on the terms that are
                    // still reachable.
                    trace::charge(stats, sink, tick, from, MsgKind::Timeout, Phase::Query);
                    if let Some(q) = qt.as_deref_mut() {
                        let timeouts = stats.count(MsgKind::Failed) + stats.count(MsgKind::Timeout)
                            - dead_before;
                        q.keywords.push(KeywordTrace {
                            term,
                            key,
                            route: Vec::new(),
                            owner: None,
                            hops: 0,
                            owner_hit: false,
                            failover: Vec::new(),
                            served_by: None,
                            timeouts,
                            entries: 0,
                        });
                    }
                    continue;
                }
            };
            scratch.routed.push(owner);
            trace::charge(stats, sink, tick, owner, MsgKind::QueryFetch, Phase::Query);
            let mut postings: Option<&PostingList> =
                self.indexing.get(&owner.0).and_then(|st| st.postings(term));
            // An absent list bills as the canonical empty response: one
            // zero-count byte.
            trace::charge_bytes(
                stats,
                sink,
                MsgKind::QueryFetch,
                postings.map_or(1, PostingList::wire_size) as u64,
            );
            let owner_hit = postings.is_some_and(|p| !p.is_empty());
            let mut failover: Vec<RingId> = Vec::new();
            let mut served_by = if owner_hit { Some(owner) } else { None };
            // Failover when the routed peer holds no list (it may have
            // taken over an arc after a failure, §7): walk the owner's
            // successor chain — never the oracle — and retry each live
            // replica in turn, charged into the caller's delta. A fully
            // dead replica set leaves the term with no entries.
            if !owner_hit && self.cfg.replication > 1 {
                let replicas = self.net.replicas_from_owner_traced(
                    owner,
                    self.cfg.replication,
                    stats,
                    Phase::Query,
                    tick,
                    sink,
                );
                for peer in replicas.into_iter().skip(1) {
                    trace::charge(stats, sink, tick, peer, MsgKind::QueryFetch, Phase::Query);
                    replicas_probed += 1;
                    if qt.is_some() {
                        failover.push(peer);
                    }
                    let list: Option<&PostingList> = self
                        .indexing
                        .get(&peer.0)
                        .and_then(|rep| rep.postings(term));
                    trace::charge_bytes(
                        stats,
                        sink,
                        MsgKind::QueryFetch,
                        list.map_or(1, PostingList::wire_size) as u64,
                    );
                    if list.is_some_and(|p| !p.is_empty()) {
                        postings = list;
                        served_by = Some(peer);
                        break;
                    }
                }
            }
            let n_entries = postings.map_or(0, PostingList::len);
            if let Some(q) = qt.as_deref_mut() {
                let timeouts =
                    stats.count(MsgKind::Failed) + stats.count(MsgKind::Timeout) - dead_before;
                q.keywords.push(KeywordTrace {
                    term,
                    key,
                    route,
                    owner: Some(owner),
                    hops,
                    owner_hit,
                    failover,
                    served_by,
                    timeouts,
                    entries: n_entries,
                });
            }
            // Accumulate immediately (§4 ranking): indexed document
            // frequency as n′_k, the assumed large N. Terms arrive in sorted
            // order, so the floating-point addition order per document is
            // fixed.
            let df = match self.cfg.idf_mode {
                IdfMode::Indexed => n_entries,
                IdfMode::TrueDf => self.true_dfs.map_or(0, |d| d[term.index()] as usize),
            };
            if df == 0 || n_entries == 0 {
                continue;
            }
            let idf = (n / df as f64).ln();
            if idf <= 0.0 {
                continue;
            }
            let w_q = f64::from(qtf) * idf;
            for e in postings.expect("n_entries > 0").iter() {
                let w_d = if e.doc_len == 0 {
                    0.0
                } else {
                    (f64::from(e.tf) / f64::from(e.doc_len)) * idf
                };
                let s = scratch.slot(e.doc);
                scratch.dot[s] += w_q * w_d;
                scratch.norm_sq[s] += w_d * w_d;
                scratch.meta[s] = e.distinct;
            }
        }
        for ti in 0..scratch.touched.len() {
            let doc = scratch.touched[ti];
            let i = doc.index();
            let num = scratch.dot[i];
            let denom = match self.cfg.similarity {
                Similarity::LeeSecond => f64::from(scratch.meta[i]).sqrt(),
                // Distributed cosine can only normalize over the
                // *retrieved* term weights (ablation configuration).
                Similarity::CosineTfIdf => scratch.norm_sq[i].sqrt(),
            };
            let score = if denom > 0.0 { num / denom } else { 0.0 };
            scratch.hits.push(Hit { doc, score });
        }
        // Rank by (score desc, doc asc) — a *strict* total order (scores
        // are finite and docs distinct), so selecting the top k first and
        // sorting only that prefix returns exactly what sorting everything
        // and truncating would: same set, same order, same bits.
        let cmp = |a: &Hit, b: &Hit| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.doc.cmp(&b.doc))
        };
        if k > 0 && scratch.hits.len() > k {
            scratch.hits.select_nth_unstable_by(k - 1, cmp);
            scratch.hits.truncate(k);
        }
        scratch.hits.sort_by(cmp);
        scratch.hits.truncate(k);
        let hits = scratch.hits.clone();
        if T::ENABLED {
            sink.query_done(
                stats.total_messages() - msgs_before,
                replicas_probed,
                hits.len(),
            );
        }
        if let Some(q) = qt {
            q.from = from;
            q.messages = stats.total_messages() - msgs_before;
            q.rank_size = hits.len();
        }
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SpriteConfig;
    use crate::system::SpriteSystem;
    use sprite_chord::TraceRecorder;
    use sprite_corpus::{CorpusConfig, SyntheticCorpus};

    fn tiny_system(cfg: SpriteConfig) -> SpriteSystem {
        let sc = SyntheticCorpus::generate(&CorpusConfig::tiny(17));
        let mut sys = SpriteSystem::build(sc.corpus().clone(), 16, cfg, 17);
        sys.publish_all();
        sys
    }

    fn probe_queries(sys: &SpriteSystem) -> Vec<Query> {
        // A mix of single-term, multi-term, and unknown-term queries over
        // published and unpublished vocabulary.
        let p0 = sys.published_terms(DocId(0)).to_vec();
        let p3 = sys.published_terms(DocId(3)).to_vec();
        vec![
            Query::new(vec![p0[0]]),
            Query::new(vec![p0[0], p0[1], p3[0]]),
            Query::new(vec![p3[1], p3[1], p0[2]]),
            Query::new(vec![TermId(0), TermId(1), TermId(2)]),
        ]
    }

    /// Fail `victims` straight on the ring — no stabilization, no state
    /// clean-up — so routing meets dead successor entries.
    fn fail_unrepaired(sys: &mut SpriteSystem, victims: &[RingId]) {
        for &v in victims {
            sys.net_mut().fail(v).expect("alive peer");
        }
    }

    /// The probe queries plus each of the first documents' published
    /// terms as one query: enough keywords to reach most of the ring.
    fn wide_queries(sys: &SpriteSystem) -> Vec<Query> {
        let mut queries = probe_queries(sys);
        queries.extend((0..24).map(|d| Query::new(sys.published_terms(DocId(d)).to_vec())));
        queries
    }

    fn total_cached(sys: &SpriteSystem) -> usize {
        sys.indexing_peers()
            .into_iter()
            .filter_map(|p| sys.indexing_state(p))
            .map(IndexingState::cached_queries)
            .sum()
    }

    #[test]
    fn view_matches_issue_query_from_exactly() {
        let configs = [
            SpriteConfig::default(),
            SpriteConfig {
                replication: 3,
                ..SpriteConfig::default()
            },
            SpriteConfig {
                similarity: Similarity::CosineTfIdf,
                idf_mode: IdfMode::TrueDf,
                ..SpriteConfig::default()
            },
        ];
        for (cfg, damaged) in configs
            .into_iter()
            .flat_map(|c| [(c.clone(), false), (c, true)])
        {
            let replicated = cfg.replication > 1;
            let mut sys = tiny_system(cfg);
            let queries = wide_queries(&sys);
            if damaged {
                // Doc 0's first term loses its whole r=3 replica set, so
                // the next live peer holds no list and fails over; a run of
                // eight more (a whole successor list) makes walks dead-end.
                let ids = sys.net().node_ids();
                let key = sys.term_ring(sys.published_terms(DocId(0))[0]);
                let owner = sys.net().oracle_owner(key).expect("non-empty ring");
                let o = ids
                    .iter()
                    .position(|&p| p == owner)
                    .expect("owner is a peer");
                let victims: Vec<RingId> = (0..3)
                    .chain(6..14)
                    .map(|d| ids[(o + d) % ids.len()])
                    .collect();
                fail_unrepaired(&mut sys, &victims);
            }
            let peers = sys.net().node_ids();
            let (mut dead_ends, mut failovers) = (0, 0);
            for (i, q) in queries.iter().enumerate() {
                let from = peers[(i * 3) % peers.len()];
                // View first (read-only), then the mutating path.
                let mut delta = NetStats::new();
                let mut scratch = RankScratch::new();
                let (view_hits, report) = {
                    let view = sys.query_view();
                    let hits = view.query(from, q, 20, &mut delta, &mut scratch);
                    let (_, report) =
                        view.query_trace(from, q, 20, &mut NetStats::new(), &mut scratch);
                    (hits, report)
                };
                // Where the query must be cached: once per keyword, at the
                // peer that keyword routed to.
                let mut routed: HashMap<u128, usize> = HashMap::new();
                for kw in &report.keywords {
                    match kw.owner {
                        Some(owner) => *routed.entry(owner.0).or_default() += 1,
                        None => dead_ends += 1,
                    }
                    failovers += usize::from(!kw.failover.is_empty());
                }
                let cached = |sys: &SpriteSystem, peer: u128| {
                    sys.indexing_state(RingId(peer))
                        .map_or(0, IndexingState::cached_queries)
                };
                let before: Vec<(u128, usize)> =
                    routed.keys().map(|&p| (p, cached(&sys, p))).collect();
                let total_before = total_cached(&sys);
                sys.net_mut().reset_stats();
                let seq_hits = sys.issue_query_from(from, q, 20);
                assert_eq!(view_hits.len(), seq_hits.len(), "query {i}");
                for (a, b) in view_hits.iter().zip(&seq_hits) {
                    assert_eq!(a.doc, b.doc, "query {i}");
                    assert_eq!(a.score.to_bits(), b.score.to_bits(), "query {i}");
                }
                assert_eq!(&delta, sys.net().stats(), "charges differ, query {i}");
                for (peer, n) in before {
                    assert_eq!(cached(&sys, peer), n + routed[&peer], "query {i}");
                }
                assert_eq!(
                    total_cached(&sys),
                    total_before + routed.values().sum::<usize>(),
                    "only routed peers cache, query {i}"
                );
            }
            if damaged {
                assert!(dead_ends > 0, "damage must dead-end some walks");
                assert!(!replicated || failovers > 0, "damage must force failover");
            }
        }
    }

    /// Per-kind conservation: every message and byte the stats billed was
    /// also traced, and nothing else.
    fn assert_trace_conserves(rec: &TraceRecorder, stats: &NetStats, what: &str) {
        for kind in MsgKind::all() {
            assert_eq!(
                rec.kind_count(kind),
                stats.count(kind),
                "{what}: {} count",
                kind.name()
            );
            assert_eq!(
                rec.kind_bytes(kind),
                stats.bytes(kind),
                "{what}: {} bytes",
                kind.name()
            );
        }
    }

    #[test]
    fn tracing_conserves_every_kind_under_unrepaired_failures() {
        let sc = SyntheticCorpus::generate(&CorpusConfig::tiny(17));
        let cfg = SpriteConfig {
            replication: 3,
            ..SpriteConfig::default()
        };
        let mut sys = SpriteSystem::build(sc.corpus().clone(), 32, cfg, 17);
        sys.publish_all();
        let queries = wide_queries(&sys);
        let victims: Vec<RingId> = sys.net().node_ids().into_iter().step_by(4).collect();
        fail_unrepaired(&mut sys, &victims);
        let peers = sys.net().node_ids();
        let from = |i: usize| peers[(i * 3) % peers.len()];

        let mut delta = NetStats::new();
        let mut rec = TraceRecorder::new();
        let mut scratch = RankScratch::new();
        {
            let view = sys.query_view();
            for (i, q) in queries.iter().enumerate() {
                let _ = view.query_traced(from(i), q, 20, &mut delta, &mut scratch, 0, &mut rec);
            }
        }
        assert!(
            delta.count(MsgKind::Failed) > 0,
            "walks must meet dead peers"
        );
        assert_trace_conserves(&rec, &delta, "QueryView::query_traced");

        sys.net_mut().reset_stats();
        sys.enable_tracing();
        for (i, q) in queries.iter().enumerate() {
            let _ = sys.issue_query_from(from(i), q, 20);
        }
        let rec = sys.take_tracer().expect("tracing was on");
        assert!(sys.net().stats().count(MsgKind::Failed) > 0);
        assert_trace_conserves(&rec, sys.net().stats(), "issue_query_from");
    }

    #[test]
    fn batched_query_matches_plain_query_bit_for_bit() {
        // Across configurations (incl. replication failover) and a peer
        // set with failures, the memoized batched path must reproduce the
        // plain per-query path exactly: same hits, same score bits, same
        // charged stats.
        for cfg in [
            SpriteConfig::default(),
            SpriteConfig {
                replication: 3,
                ..SpriteConfig::default()
            },
        ] {
            let mut sys = tiny_system(cfg);
            sys.fail_random_peers(2, 5);
            let queries = probe_queries(&sys);
            let peers = sys.peers().to_vec();
            let view = sys.query_view();
            let memo = view.resolve_routes(
                queries
                    .iter()
                    .enumerate()
                    .map(|(i, q)| (peers[(i * 3) % peers.len()], q)),
            );
            assert!(!memo.is_empty(), "probe queries must memoize routes");
            for (i, q) in queries.iter().enumerate() {
                let from = peers[(i * 3) % peers.len()];
                let mut d_plain = NetStats::new();
                let mut d_batched = NetStats::new();
                let mut s_plain = RankScratch::new();
                let mut s_batched = RankScratch::new();
                let plain = view.query(from, q, 20, &mut d_plain, &mut s_plain);
                let batched =
                    view.query_batched(from, q, 20, &memo, &mut d_batched, &mut s_batched);
                assert_eq!(plain.len(), batched.len(), "query {i}");
                for (a, b) in plain.iter().zip(&batched) {
                    assert_eq!(a.doc, b.doc, "query {i}");
                    assert_eq!(a.score.to_bits(), b.score.to_bits(), "query {i}");
                }
                assert_eq!(d_plain, d_batched, "charges differ, query {i}");
            }
        }
    }

    #[test]
    fn view_does_not_cache_queries() {
        let mut sys = tiny_system(SpriteConfig::default());
        let t = sys.published_terms(DocId(0))[0];
        let key = sys.term_ring(t);
        let peer = sys.net().oracle_owner(key).expect("non-empty ring");
        let from = sys.peers()[0];
        let before = sys
            .indexing_state(peer)
            .map_or(0, IndexingState::cached_queries);
        let mut delta = NetStats::new();
        let mut scratch = RankScratch::new();
        let view = sys.query_view();
        let hits = view.query(from, &Query::new(vec![t]), 10, &mut delta, &mut scratch);
        assert!(!hits.is_empty());
        let after = sys
            .indexing_state(peer)
            .map_or(0, IndexingState::cached_queries);
        assert_eq!(before, after, "evaluation must not pollute query caches");
    }

    #[test]
    fn unwarmed_terms_hash_to_the_same_position() {
        let mut sys = tiny_system(SpriteConfig::default());
        let t = sys.published_terms(DocId(2))[0];
        let fresh = {
            let view = sys.query_view();
            view.term_ring(t) // not warmed: computed via the pure fallback
        };
        assert_eq!(fresh, sys.term_ring(t));
    }
}
