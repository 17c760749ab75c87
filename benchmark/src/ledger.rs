//! The deterministic counter ledger: per-phase message and byte deltas
//! per `MsgKind`, report counters, and a fingerprint of every returned
//! hit list. Two ledgers of the same seed and schedule must be equal; the
//! workloads compare them within a run, and the printed digest lets two
//! runs be compared.

use std::collections::BTreeMap;

use sprite_chord::{MsgKind, NetStats, MSG_KINDS};
use sprite_ir::Hit;

/// The change in a [`NetStats`] between two snapshots.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Delta {
    /// Messages per kind, in `MsgKind::all()` order.
    pub counts: [u64; MSG_KINDS],
    /// Payload bytes per kind, in `MsgKind::all()` order.
    pub bytes: [u64; MSG_KINDS],
    /// Completed lookups.
    pub lookups: u64,
    /// Hops summed over completed lookups.
    pub hops: u64,
}

/// Hops summed over all lookups of `s` (the counter is private; the mean
/// and the lookup count are exact enough to recover it).
fn total_hops(s: &NetStats) -> u64 {
    (s.mean_hops() * s.lookups() as f64).round() as u64
}

impl Delta {
    /// `after − before`.
    #[must_use]
    pub fn between(before: &NetStats, after: &NetStats) -> Self {
        let mut d = Delta {
            lookups: after.lookups() - before.lookups(),
            hops: total_hops(after) - total_hops(before),
            ..Delta::default()
        };
        for (i, k) in MsgKind::all().into_iter().enumerate() {
            d.counts[i] = after.count(k) - before.count(k);
            d.bytes[i] = after.bytes(k) - before.bytes(k);
        }
        d
    }

    /// Messages of one kind.
    #[must_use]
    pub fn count(&self, kind: MsgKind) -> u64 {
        self.counts[kind_index(kind)]
    }

    /// Payload bytes of one kind.
    #[must_use]
    pub fn bytes_of(&self, kind: MsgKind) -> u64 {
        self.bytes[kind_index(kind)]
    }

    /// All messages.
    #[must_use]
    pub fn messages(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// All payload bytes.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Whether the bill holds a dead-peer probe or a timed-out send.
    #[must_use]
    pub fn has_failures(&self) -> bool {
        self.count(MsgKind::Failed) + self.count(MsgKind::Timeout) > 0
    }

    fn add(&mut self, other: &Delta) {
        for i in 0..MSG_KINDS {
            self.counts[i] += other.counts[i];
            self.bytes[i] += other.bytes[i];
        }
        self.lookups += other.lookups;
        self.hops += other.hops;
    }
}

fn kind_index(kind: MsgKind) -> usize {
    MsgKind::all()
        .iter()
        .position(|&k| k == kind)
        .expect("every kind is listed")
}

/// 64-bit FNV-1a, folded one `u64` at a time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint(pub u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Fold one word.
    pub fn mix(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Fold one hit list: its length, then every `(doc, score bits)`.
    pub fn hits(&mut self, hits: &[Hit]) {
        self.mix(hits.len() as u64);
        for h in hits {
            self.mix(u64::from(h.doc.0));
            self.mix(h.score.to_bits());
        }
    }
}

/// Per-phase deltas, named counters and the hit fingerprint of one unit
/// of work (a set-up or a pass).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Ledger {
    /// Message and byte deltas per phase.
    pub phases: BTreeMap<&'static str, Delta>,
    /// Report counters (`MaintenanceReport`, `DocTickReport`, ...).
    pub counters: BTreeMap<&'static str, u64>,
    /// Every returned hit list, in call order.
    pub hits: Fingerprint,
}

impl Ledger {
    /// Bill `delta` to `phase`.
    pub fn bill(&mut self, phase: &'static str, delta: &Delta) {
        self.phases.entry(phase).or_default().add(delta);
    }

    /// Add `n` to a counter.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_default() += n;
    }

    /// Raise a counter to at least `n`.
    pub fn peak(&mut self, name: &'static str, n: u64) {
        let c = self.counters.entry(name).or_default();
        *c = (*c).max(n);
    }

    /// A counter's value (0 when never counted).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A phase's delta (zero when never billed).
    #[must_use]
    pub fn phase(&self, name: &str) -> Delta {
        self.phases.get(name).copied().unwrap_or_default()
    }

    /// All phases together.
    #[must_use]
    pub fn total(&self) -> Delta {
        let mut sum = Delta::default();
        self.phases.values().for_each(|d| sum.add(d));
        sum
    }

    /// One word over everything in the ledger.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut f = Fingerprint::default();
        for (name, d) in &self.phases {
            name.bytes().for_each(|b| f.mix(u64::from(b)));
            d.counts.iter().chain(&d.bytes).for_each(|&w| f.mix(w));
            f.mix(d.lookups);
            f.mix(d.hops);
        }
        for (name, &v) in &self.counters {
            name.bytes().for_each(|b| f.mix(u64::from(b)));
            f.mix(v);
        }
        f.mix(self.hits.0);
        f.0
    }

    /// Human-readable lines: one per phase with its non-zero kinds, then
    /// the counters and the fingerprint.
    #[must_use]
    pub fn render(&self, prefix: &str) -> Vec<String> {
        let mut lines = Vec::new();
        for (name, d) in &self.phases {
            let kinds: Vec<String> = MsgKind::all()
                .into_iter()
                .enumerate()
                .filter(|&(i, _)| d.counts[i] + d.bytes[i] > 0)
                .map(|(i, k)| format!("{}={}/{}B", k.name(), d.counts[i], d.bytes[i]))
                .collect();
            lines.push(format!(
                "{prefix}phase {name}: lookups={} hops={} {}",
                d.lookups,
                d.hops,
                kinds.join(" ")
            ));
        }
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        lines.push(format!("{prefix}counters: {}", counters.join(" ")));
        lines.push(format!(
            "{prefix}hit fingerprint {:016x}, ledger digest {:016x}",
            self.hits.0,
            self.digest()
        ));
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprite_ir::DocId;

    #[test]
    fn delta_is_after_minus_before() {
        let mut before = NetStats::new();
        before.record_n(MsgKind::QueryFetch, 2);
        before.record_bytes(MsgKind::QueryFetch, 40);
        before.record_lookup(3);
        let mut after = before.clone();
        after.record(MsgKind::QueryFetch);
        after.record_bytes(MsgKind::QueryFetch, 9);
        after.record(MsgKind::Failed);
        after.record_lookup(5);
        let d = Delta::between(&before, &after);
        assert_eq!(d.count(MsgKind::QueryFetch), 1);
        assert_eq!(d.bytes_of(MsgKind::QueryFetch), 9);
        assert_eq!((d.lookups, d.hops), (1, 5));
        assert!(d.has_failures());
        assert_eq!(d.messages(), 2);
    }

    #[test]
    fn fingerprint_sees_order_and_score_bits() {
        let a = [
            Hit {
                doc: DocId(1),
                score: 0.5,
            },
            Hit {
                doc: DocId(2),
                score: 0.25,
            },
        ];
        let b = [a[1], a[0]];
        let mut nudged = a;
        nudged[0].score = f64::from_bits(0.5f64.to_bits() + 1);
        let fp = |hits: &[Hit]| {
            let mut f = Fingerprint::default();
            f.hits(hits);
            f
        };
        assert_ne!(fp(&a), fp(&b));
        assert_ne!(fp(&a), fp(&nudged));
        assert_eq!(fp(&a), fp(&a));
    }
}
