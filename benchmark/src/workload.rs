//! The three workloads, run by one closed-loop client: the next public
//! call is issued only after the previous one returns.
//!
//! A run sets the deployment up [`SETUPS`] times (the median is `setup_s`),
//! then repeats a fixed, seeded *pass* over a fresh clone of the set-up
//! deployment until the time budget is spent. Every pass does the same work
//! and must leave the same ledger, so the deterministic figures come from
//! one pass and the timings from all of them. A pass is made of *rounds*:
//!
//! * `serve`: a batch of queries.
//! * `churn`: two churn ticks, a maintenance round, a batch of queries.
//! * `lifecycle`: a document tick, a batch of queries, a second tick and
//!   batch, a maintenance round. A closing maintenance round ends the pass.
//!
//! After every query batch the client times as many calls of the reference
//! kernel (`calib.rs`) as the batch had queries, outside the round's call
//! time; the end-to-end timings are divided by the kernel's mean.

use std::hint::black_box;
use std::time::Instant;

use sprite_chord::{ChurnConfig, ChurnEngine, NetStats};
use sprite_core::{RankScratch, SpriteConfig, SpriteSystem, World, WorldConfig};
use sprite_corpus::{issue_order, DocChurnConfig, DocChurnEngine, DocEvent, Schedule};
use sprite_ir::{
    evaluate_hits_at_k, CentralizedEngine, DocId, Hit, RatioAccumulator, SearchScratch,
};

use crate::calib::Kernel;
use crate::ledger::{Delta, Fingerprint, Ledger};
use crate::measure::Outcomes;
use crate::spans::Spans;

/// Seed of the world every run serves: the repository's standard small
/// world, the one the committed figures use. `--seed` drives what the
/// client does to it (query stream, document events). A world per seed
/// moves the deterministic figures by 12–26% between seeds, more than any
/// regression bound can absorb.
pub const WORLD_SEED: u64 = 42;
/// Seed of the `churn` workload's peer-churn schedule, fixed like the
/// world: which peers leave decides how much a maintenance round copies,
/// and a schedule per seed moved `index_bytes_per_peer` by 4–6% and
/// doubled the run-to-run spread of `pass_rel`.
const PEER_CHURN_SEED: u64 = WORLD_SEED ^ 0xc4a2_0000;
/// Answer-list depth of every query (the paper's K = 20).
pub const K: usize = 20;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Passes per run at the least, so the pass-to-pass check always runs.
const MIN_PASSES: usize = 2;
/// Zipf exponent of query popularity over the test split (paper §6.3).
const ZIPF_EXPONENT: f64 = 0.5;
/// Length of the seeded query stream a pass cycles through.
const STREAM_LEN: usize = 4096;
/// Popularity rankings in the query stream. With one ranking, which
/// queries a seed makes popular moves `bytes_per_query` by 9% between
/// seeds (quartile spread over median); sixteen rankings average that out
/// to 2% while each segment keeps the schedule's Zipf skew.
const SEGMENTS: usize = 16;
/// Document-churn rate of `lifecycle`: `r` inserts, `2r` updates and `r`
/// deletes per tick, the non-zero rate and mix of the committed freshness
/// study (`FRESHNESS_RATES` in `sprite-bench`, `freshness_figure`).
const DOC_CHURN_RATE: f64 = 0.5;
/// Every this many `serve` queries, the answer is compared with
/// `QueryView::query` for the same peer and query.
const SERVE_CHECK_EVERY: usize = 16;
/// Most spans a traced run keeps in memory.
pub const SPAN_CAP: usize = 1 << 18;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// A trained r=1 deployment answering a Zipf query stream.
    Serve,
    /// An r=3 deployment under peer churn with periodic maintenance.
    Churn,
    /// An r=1 deployment under document insert/update/delete churn.
    Lifecycle,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Serve, Workload::Churn, Workload::Lifecycle];

    /// The workload called `name`.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Its name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Serve => "serve",
            Workload::Churn => "churn",
            Workload::Lifecycle => "lifecycle",
        }
    }

    /// Replication degree of the deployment.
    #[must_use]
    pub fn replication(self) -> usize {
        match self {
            Workload::Churn => 3,
            Workload::Serve | Workload::Lifecycle => 1,
        }
    }

    /// Rounds per pass, and queries per batch.
    fn shape(self) -> (usize, usize) {
        match self {
            Workload::Serve => (16, 256),
            Workload::Churn => (2, 2048),
            Workload::Lifecycle => (8, 256),
        }
    }
}

/// The seeded query stream: [`SEGMENTS`] runs of the repository's
/// `w-zipf` schedule (paper §6.3) over the test split, each with a
/// popularity ranking of its own.
fn query_stream(test: &[usize], seed: u64) -> Vec<usize> {
    let schedule = Schedule::Zipf {
        slope: ZIPF_EXPONENT,
        total: STREAM_LEN / SEGMENTS,
    };
    (0..SEGMENTS as u64)
        .flat_map(|k| issue_order(test.len(), schedule, seed ^ (k << 32)))
        .map(|i| test[i])
        .collect()
}

/// Time `f` in seconds, inside a span named `name`.
fn timed<R>(spans: &mut Spans, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = spans.time(name, f);
    (r, t.elapsed().as_secs_f64())
}

/// Whether `hits` has at most [`K`] entries ordered by score descending,
/// then doc ascending.
#[must_use]
pub fn well_ordered(hits: &[Hit]) -> bool {
    hits.len() <= K
        && hits
            .windows(2)
            .all(|w| w[0].score > w[1].score || (w[0].score == w[1].score && w[0].doc < w[1].doc))
}

fn same_hits(a: &[Hit], b: &[Hit]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.doc == y.doc && x.score.to_bits() == y.score.to_bits())
}

/// Timings of one kind of pass (traced or not).
#[derive(Debug, Default)]
pub struct Samples {
    /// Wall time of each `issue_query_from` call, µs.
    pub query_us: Vec<f64>,
    /// Summed call time of each round, ms.
    pub round_ms: Vec<f64>,
    /// Wall time of each reference-kernel call, µs.
    pub calib_us: Vec<f64>,
    /// Summed call time of each pass, closing round included, ms.
    pub pass_ms: Vec<f64>,
    /// Passes run.
    pub passes: usize,
}

/// Query-path timings of traced passes, per query, µs.
#[derive(Debug, Default)]
pub struct QueryLayers {
    /// `QueryView::resolve_routes` of the batch, divided by its size.
    pub resolve_us: Vec<f64>,
    /// `IndexingState::entries` at each keyword's owner, summed.
    pub fetch_us: Vec<f64>,
    /// `QueryView::query_batched` minus the fetch/decode time.
    pub rank_us: Vec<f64>,
}

/// What a pass left behind; equal for every pass of a run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PassRecord {
    /// Message deltas per phase, report counters, hit fingerprint.
    pub ledger: Ledger,
    /// Operations attempted and failed.
    pub outcomes: Outcomes,
}

/// Everything a run measured.
#[derive(Debug)]
pub struct RunOutput {
    /// Wall time of each set-up, s.
    pub setup_s: Vec<f64>,
    /// The first set-up's ledger.
    pub setup: Ledger,
    /// Untraced passes.
    pub plain: Samples,
    /// Traced passes.
    pub traced: Samples,
    /// Query-path layer timings of traced passes.
    pub layers: QueryLayers,
    /// The first pass's record.
    pub pass: PassRecord,
    /// Operations over all passes.
    pub outcomes: Outcomes,
    /// Precision ratio of the test split at K after the first pass.
    pub precision: f64,
    /// Fingerprint of the evaluation's hit lists.
    pub eval_hits: Fingerprint,
    /// Violated output checks.
    pub violations: Vec<String>,
}

/// A set-up deployment.
struct Deployment {
    world: World,
    sys: SpriteSystem,
}

/// Bill the stats change of `f` to `phase`.
fn billed<R>(
    sys: &mut SpriteSystem,
    ledger: &mut Ledger,
    phase: &'static str,
    f: impl FnOnce(&mut SpriteSystem) -> R,
) -> R {
    let before = sys.net().stats().clone();
    let r = f(sys);
    ledger.bill(phase, &Delta::between(&before, sys.net().stats()));
    r
}

/// World build, training issue, `publish_all`, `learn` and, when
/// replicated, the first `replicate_indexes`: the standard deployment of
/// `World::standard_system`, one public call at a time.
fn set_up(replication: usize, spans: &mut Spans, ledger: &mut Ledger) -> Deployment {
    let root = spans.begin("setup");
    let world = spans.time("corpus.world_build", || {
        World::build(WorldConfig::small(WORLD_SEED))
    });
    let cfg = SpriteConfig {
        replication,
        ..SpriteConfig::default()
    };
    let iterations = cfg
        .max_terms
        .saturating_sub(cfg.initial_terms)
        .div_ceil(cfg.terms_per_iteration);
    let mut sys = world.new_system(cfg);
    billed(&mut sys, ledger, "setup.issue_training", |sys| {
        spans.time("system.issue_training", || {
            world.issue(sys, &world.train, Schedule::WithoutRepeats);
        });
    });
    billed(&mut sys, ledger, "setup.publish_all", |sys| {
        spans.time("system.publish_all", || sys.publish_all());
    });
    let reports = billed(&mut sys, ledger, "setup.learn", |sys| {
        spans.time("system.learn", || sys.learn(iterations))
    });
    for r in reports {
        ledger.count("learn.docs_changed", r.docs_changed as u64);
        ledger.count("learn.terms_added", r.terms_added as u64);
        ledger.count("learn.terms_removed", r.terms_removed as u64);
        ledger.count("learn.queries_returned", r.queries_returned as u64);
        ledger.count("learn.polls", r.polls as u64);
    }
    if replication > 1 {
        let copied = billed(&mut sys, ledger, "setup.replicate", |sys| {
            spans.time("resilience.replicate_initial", || sys.replicate_indexes())
        });
        ledger.count("setup.replicated_entries", copied as u64);
    }
    ledger.count("setup.index_entries", sys.total_index_entries() as u64);
    spans.end(root);
    Deployment { world, sys }
}

/// One pass in progress.
struct Pass<'a> {
    workload: Workload,
    world: &'a World,
    stream: &'a [usize],
    sys: SpriteSystem,
    spans: &'a mut Spans,
    samples: &'a mut Samples,
    layers: &'a mut QueryLayers,
    violations: &'a mut Vec<String>,
    record: PassRecord,
    /// Queries issued so far this pass (picks the query and the peer).
    cursor: usize,
    /// Call time of the round in progress, s.
    round_s: f64,
    /// Call time of the finished rounds, s.
    pass_s: f64,
    /// The host-speed reference, timed after every query batch.
    kernel: &'a mut Kernel,
}

impl Pass<'_> {
    fn violation(&mut self, what: String) {
        if self.violations.len() < 32 {
            self.violations.push(what);
        }
    }

    fn end_round(&mut self) {
        self.samples.round_ms.push(self.round_s * 1e3);
        self.pass_s += self.round_s;
        self.round_s = 0.0;
        self.record.ledger.count("pass.rounds", 1);
    }

    fn run(&mut self, seed: u64) {
        let (rounds, batch) = self.workload.shape();
        match self.workload {
            Workload::Serve => {
                for _ in 0..rounds {
                    self.query_batch(batch);
                    self.end_round();
                }
            }
            Workload::Churn => {
                let n = self.sys.peers().len() as f64;
                let rate = 0.05;
                let mut engine = ChurnEngine::new(
                    ChurnConfig {
                        join_rate: rate * n / 2.0,
                        leave_rate: rate * n / 4.0,
                        fail_rate: rate * n / 4.0,
                        ..ChurnConfig::default()
                    },
                    PEER_CHURN_SEED,
                );
                for _ in 0..rounds {
                    self.churn_tick(&mut engine);
                    self.churn_tick(&mut engine);
                    self.maintenance();
                    self.query_batch(batch);
                    self.end_round();
                }
            }
            Workload::Lifecycle => {
                let mut engine = DocChurnEngine::new(
                    DocChurnConfig {
                        insert_rate: DOC_CHURN_RATE,
                        update_rate: 2.0 * DOC_CHURN_RATE,
                        delete_rate: DOC_CHURN_RATE,
                        min_docs: 8,
                    },
                    seed ^ 0xd0c5_0000,
                    &self.world.synthetic,
                );
                for _ in 0..rounds {
                    self.doc_tick(&mut engine);
                    self.query_batch(batch);
                    self.doc_tick(&mut engine);
                    self.query_batch(batch);
                    self.maintenance();
                    self.end_round();
                }
                // The closing round: no tombstone may survive it.
                self.maintenance();
                self.pass_s += self.round_s;
                self.round_s = 0.0;
                let pending = self.sys.pending_tombstones();
                if pending != 0 {
                    self.violation(format!(
                        "{pending} tombstones pending after the closing maintenance round"
                    ));
                }
            }
        }
        self.samples.pass_ms.push(self.pass_s * 1e3);
        let l = &mut self.record.ledger;
        l.count("end.live_peers", self.sys.peers().len() as u64);
        l.count("end.index_bytes", self.sys.logical_index_bytes());
        l.count("end.index_entries", self.sys.total_index_entries() as u64);
        l.count("end.stale_entries", self.sys.stale_index_entries().0);
        l.count(
            "end.pending_tombstones",
            self.sys.pending_tombstones() as u64,
        );
        l.count("end.live_docs", self.sys.live_docs().len() as u64);
    }

    fn query_batch(&mut self, n: usize) {
        let mut jobs: Vec<(usize, usize)> = Vec::with_capacity(n);
        for _ in 0..n {
            let world = self.world;
            let qi = self.stream[self.cursor % self.stream.len()];
            let peer = self.cursor % self.sys.peers().len();
            let from = self.sys.peers()[peer];
            let query = &world.workload[qi].query;
            let before = self.sys.net().stats().clone();
            let (hits, secs) = timed(self.spans, "system.issue_query_from", || {
                self.sys.issue_query_from(from, query, K)
            });
            self.round_s += secs;
            self.samples.query_us.push(secs * 1e6);
            let delta = Delta::between(&before, self.sys.net().stats());
            self.record.ledger.bill("queries", &delta);
            self.record.ledger.count("queries", 1);
            self.record.ledger.hits.hits(&hits);
            self.record.outcomes.record(!delta.has_failures());
            if !well_ordered(&hits) {
                self.violation(format!(
                    "query {}: hit list unordered or longer than K",
                    self.cursor
                ));
            }
            if self.workload == Workload::Lifecycle {
                if let Some(h) = hits.iter().find(|h| self.sys.is_deleted(h.doc)) {
                    self.violation(format!(
                        "query {} returned deleted doc {}",
                        self.cursor, h.doc.0
                    ));
                }
            }
            if self.workload == Workload::Serve && self.cursor % SERVE_CHECK_EVERY == 0 {
                let view = self.sys.query_view();
                let mut stats = NetStats::new();
                let expect = view.query(from, query, K, &mut stats, &mut RankScratch::new());
                if !same_hits(&hits, &expect) {
                    self.violation(format!(
                        "query {}: issue_query_from and QueryView::query disagree",
                        self.cursor
                    ));
                }
            }
            jobs.push((peer, qi));
            self.cursor += 1;
        }
        if self.spans.enabled() {
            self.decompose(&jobs);
        }
        self.calibrate(n);
    }

    /// Time `n` reference-kernel calls.
    fn calibrate(&mut self, n: usize) {
        for _ in 0..n {
            let t = Instant::now();
            black_box(self.kernel.call());
            self.samples.calib_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }

    /// Replay a finished batch through the read-only query path, timing
    /// its layers: the list fetch/decode at each keyword's owner, route
    /// resolution for the batch, and batched ranking.
    fn decompose(&mut self, jobs: &[(usize, usize)]) {
        let root = self.spans.begin("query.decompose");
        let world = self.world;
        let peers = self.sys.peers().to_vec();
        let keys: Vec<Vec<_>> = {
            let view = self.sys.query_view();
            jobs.iter()
                .map(|&(_, qi)| {
                    let q = &world.workload[qi].query;
                    q.term_counts()
                        .into_iter()
                        .map(|(t, _)| (t, view.term_ring(t)))
                        .collect()
                })
                .collect()
        };
        let mut fetch_ns: Vec<u64> = Vec::with_capacity(jobs.len());
        for (&(peer, _), keys) in jobs.iter().zip(&keys) {
            let mut scratch = NetStats::new();
            let owners: Vec<_> = keys
                .iter()
                .map(|&(t, key)| (t, self.sys.net().probe(peers[peer], key, &mut scratch)))
                .collect();
            let t = Instant::now();
            let span = self.spans.begin("postings.fetch_decode");
            for (term, lookup) in owners {
                if let Some(state) = lookup.ok().and_then(|l| self.sys.indexing_state(l.owner)) {
                    black_box(state.entries(term));
                }
            }
            self.spans.end(span);
            fetch_ns.push(t.elapsed().as_nanos() as u64);
        }
        let view = self.sys.query_view();
        let t = Instant::now();
        let memo = self.spans.time("view.resolve_routes", || {
            view.resolve_routes(
                jobs.iter()
                    .map(|&(peer, qi)| (peers[peer], &world.workload[qi].query)),
            )
        });
        let resolve_us = t.elapsed().as_secs_f64() * 1e6 / jobs.len().max(1) as f64;
        let mut rank = RankScratch::new();
        for (&(peer, qi), fetch) in jobs.iter().zip(fetch_ns) {
            let mut stats = NetStats::new();
            let t = Instant::now();
            let hits = self.spans.time("view.query_batched", || {
                view.query_batched(
                    peers[peer],
                    &world.workload[qi].query,
                    K,
                    &memo,
                    &mut stats,
                    &mut rank,
                )
            });
            let batched = t.elapsed().as_nanos() as u64;
            black_box(hits);
            self.layers.resolve_us.push(resolve_us);
            self.layers.fetch_us.push(fetch as f64 / 1e3);
            self.layers
                .rank_us
                .push(batched.saturating_sub(fetch) as f64 / 1e3);
        }
        self.spans.end(root);
    }

    fn churn_tick(&mut self, engine: &mut ChurnEngine) {
        let before = self.sys.net().stats().clone();
        let (report, secs) = timed(self.spans, "resilience.churn_tick", || {
            self.sys.churn_tick(engine)
        });
        self.round_s += secs;
        let delta = Delta::between(&before, self.sys.net().stats());
        let l = &mut self.record.ledger;
        l.bill("churn_tick", &delta);
        l.count("churn.ticks", 1);
        l.count("churn.joins", report.tick.joins as u64);
        l.count("churn.leaves", report.tick.leaves as u64);
        l.count("churn.fails", report.tick.fails as u64);
        l.count("churn.rejected", report.tick.rejected as u64);
        l.count("churn.handed_over_entries", report.handed_over as u64);
        l.count("churn.states_lost", report.states_lost as u64);
        self.record.outcomes.record(report.tick.rejected == 0);
    }

    fn maintenance(&mut self) {
        let before = self.sys.net().stats().clone();
        let entries_before = self.sys.total_index_entries() as u64;
        let (report, secs) = timed(self.spans, "resilience.maintenance", || {
            self.sys.maintenance_round()
        });
        self.round_s += secs;
        let delta = Delta::between(&before, self.sys.net().stats());
        let entries_after = self.sys.total_index_entries() as u64;
        let l = &mut self.record.ledger;
        l.bill("maintenance", &delta);
        l.count("maintenance.rounds", 1);
        l.count(
            "maintenance.tombstones_reclaimed",
            report.tombstones_reclaimed as u64,
        );
        l.count("maintenance.orphans_moved", report.orphans_moved as u64);
        l.count("maintenance.replicated", report.replicated as u64);
        l.count("maintenance.entries_before", entries_before);
        l.count("maintenance.entries_after", entries_after);
        self.record.outcomes.record(true);
    }

    fn doc_tick(&mut self, engine: &mut DocChurnEngine) {
        let live = self.sys.live_docs();
        let events = engine.plan(&live, self.sys.corpus().len());
        for ev in &events {
            let name = match ev {
                DocEvent::Insert { .. } => "system.insert",
                DocEvent::Update { .. } => "system.update",
                DocEvent::Delete { .. } => "system.delete",
            };
            let before = self.sys.net().stats().clone();
            let (report, secs) = timed(self.spans, name, || {
                self.sys.apply_doc_events(std::slice::from_ref(ev))
            });
            self.round_s += secs;
            let delta = Delta::between(&before, self.sys.net().stats());
            let l = &mut self.record.ledger;
            l.bill("doc_events", &delta);
            l.count("doc.events", 1);
            l.count("doc.inserted", report.inserted as u64);
            l.count("doc.updated", report.updated as u64);
            l.count("doc.deleted", report.deleted as u64);
            l.count("doc.terms_published", report.terms_published as u64);
            l.count("doc.terms_retracted", report.terms_retracted as u64);
            if let DocEvent::Update { .. } = ev {
                l.count("doc.update_terms_added", report.terms_published as u64);
                l.count("doc.update_terms_removed", report.terms_retracted as u64);
            }
            let applied = report.inserted + report.updated + report.deleted;
            self.record.outcomes.record(applied == 1);
        }
        self.record.ledger.peak(
            "doc.pending_tombstones_peak",
            self.sys.pending_tombstones() as u64,
        );
    }
}

/// Precision ratio of the test split at [`K`] against the centralized
/// reference, issued from rotating peers through `QueryView::query`. With
/// deleted documents, the reference is rebuilt over the live corpus and
/// judgments are restricted to live documents.
fn evaluate(
    sys: &mut SpriteSystem,
    world: &World,
    spans: &mut Spans,
    violations: &mut Vec<String>,
) -> (f64, Fingerprint) {
    let dead: Vec<bool> = (0..sys.corpus().len())
        .map(|i| sys.is_deleted(DocId(i as u32)))
        .collect();
    let rebuilt = dead.iter().any(|&d| d).then(|| {
        let mut corpus = sys.corpus().clone();
        for (i, _) in dead.iter().enumerate().filter(|(_, &d)| d) {
            corpus.replace_document(DocId(i as u32), Vec::new());
        }
        CentralizedEngine::build(&corpus)
    });
    let reference = rebuilt.as_ref().unwrap_or(&world.engine);
    sys.warm_query_terms(world.test.iter().map(|&qi| &world.workload[qi].query));
    let view = sys.query_view();
    let peers = view.peers();
    let mut acc = RatioAccumulator::new();
    let mut fp = Fingerprint::default();
    let (mut rank, mut search) = (RankScratch::new(), SearchScratch::new());
    for (i, &qi) in world.test.iter().enumerate() {
        let gq = &world.workload[qi];
        let mut stats = NetStats::new();
        let hits = view.query(peers[i % peers.len()], &gq.query, K, &mut stats, &mut rank);
        fp.hits(&hits);
        if hits.iter().any(|h| dead[h.doc.index()]) {
            violations.push(format!("evaluation query {i} returned a deleted doc"));
        }
        if !well_ordered(&hits) {
            violations.push(format!(
                "evaluation query {i}: hit list unordered or longer than K"
            ));
        }
        let relevant = gq
            .relevant
            .iter()
            .copied()
            .filter(|d| !dead[d.index()])
            .collect();
        let central = spans.time("ir.central_search", || {
            reference.search_with(&gq.query, K, &mut search)
        });
        acc.add(
            evaluate_hits_at_k(&hits, &relevant, K),
            evaluate_hits_at_k(&central, &relevant, K),
        );
    }
    (acc.finish().precision_ratio, fp)
}

/// Run `workload` with the client's inputs made from `seed`, for about
/// `seconds` of passes; when `spans` records, every other pass is traced.
#[must_use]
pub fn run(workload: Workload, seed: u64, seconds: f64, spans: &mut Spans) -> RunOutput {
    let trace = spans.enabled();
    let mut violations = Vec::new();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut setup: Option<Ledger> = None;
    let mut dep: Option<Deployment> = None;
    for i in 0..SETUPS {
        drop(dep.take());
        let mut ledger = Ledger::default();
        let t = Instant::now();
        let d = set_up(workload.replication(), spans, &mut ledger);
        setup_s.push(t.elapsed().as_secs_f64());
        match &setup {
            None => setup = Some(ledger),
            Some(first) if *first != ledger => {
                violations.push(format!(
                    "set-up {i} billed a different ledger than set-up 0"
                ));
            }
            Some(_) => {}
        }
        dep = Some(d);
    }
    let Deployment { world, sys: base } = dep.expect("at least one set-up");
    let stream = query_stream(&world.test, seed);
    let mut kernel = Kernel::new();

    let (mut plain, mut traced) = (Samples::default(), Samples::default());
    let mut layers = QueryLayers::default();
    let mut first: Option<PassRecord> = None;
    let mut outcomes = Outcomes::default();
    let (mut precision, mut eval_hits) = (0.0, Fingerprint::default());
    let mut spans_per_pass = 0;
    let start = Instant::now();
    let mut passes = 0;
    while passes < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        let record_spans = trace && passes % 2 == 1 && spans.has_room(spans_per_pass);
        spans.set_enabled(record_spans);
        let spans_before = spans.spans().len();
        let samples = if record_spans {
            &mut traced
        } else {
            &mut plain
        };
        let mut pass = Pass {
            workload,
            world: &world,
            stream: &stream,
            sys: base.clone(),
            spans,
            samples,
            layers: &mut layers,
            violations: &mut violations,
            record: PassRecord::default(),
            cursor: 0,
            round_s: 0.0,
            pass_s: 0.0,
            kernel: &mut kernel,
        };
        pass.run(seed);
        pass.samples.passes += 1;
        let Pass {
            mut sys, record, ..
        } = pass;
        spans_per_pass = spans_per_pass.max(spans.spans().len() - spans_before);
        outcomes.attempted += record.outcomes.attempted;
        outcomes.failed += record.outcomes.failed;
        match &first {
            None => {
                spans.set_enabled(trace);
                (precision, eval_hits) = evaluate(&mut sys, &world, spans, &mut violations);
                first = Some(record);
            }
            Some(f) if *f != record => {
                violations.push(format!("pass {passes} left a different ledger than pass 0"));
            }
            Some(_) => {}
        }
        passes += 1;
    }
    spans.set_enabled(trace);
    RunOutput {
        setup_s,
        setup: setup.expect("at least one set-up"),
        plain,
        traced,
        layers,
        pass: first.expect("at least one pass"),
        outcomes,
        precision,
        eval_hits,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_stream_is_seeded_and_drawn_from_the_test_split() {
        let test: Vec<usize> = (100..400).collect();
        let a = query_stream(&test, 42);
        assert_eq!(a, query_stream(&test, 42));
        assert_ne!(a, query_stream(&test, 43));
        assert_eq!(a.len(), STREAM_LEN);
        assert!(a.iter().all(|qi| test.contains(qi)));
    }

    #[test]
    fn hit_order_check() {
        let h = |doc, score| Hit {
            doc: DocId(doc),
            score,
        };
        assert!(well_ordered(&[h(3, 0.9), h(1, 0.5), h(2, 0.5)]));
        assert!(!well_ordered(&[h(2, 0.5), h(1, 0.5)]));
        assert!(!well_ordered(&[h(1, 0.4), h(2, 0.5)]));
        assert!(!well_ordered(&[h(1, f64::NAN), h(2, 0.5)]));
        let long: Vec<Hit> = (0..=K as u32).map(|d| h(d, 1.0)).collect();
        assert!(!well_ordered(&long));
    }
}
