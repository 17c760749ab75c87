//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload serve|churn|lifecycle --seed 42 --seconds 20 --trace 0|1
//! ```
//!
//! One process, one closed-loop client, a pool width of one. Inputs are
//! made from `--seed`. The run prints every metric by name with its unit
//! and direction, the deterministic counter ledger, and as its last line a
//! JSON object: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. It exits with 1 when an output check fails
//! and 2 on a bad command line. See `README.md` for the workloads and
//! metrics.

mod calib;
mod ledger;
mod measure;
mod spans;
mod workload;

use std::collections::BTreeMap;
use std::io::Write;
use std::process::ExitCode;

use sprite_chord::MsgKind;

use measure::{valid_metric_name, Summary};
use spans::Spans;
use workload::{RunOutput, Workload, SETUPS, SPAN_CAP};

/// Worker threads of the system's pool. One client issues calls one at a
/// time, so a wider pool only adds scheduling noise on a small host.
const POOL_WIDTH: usize = 1;

/// Whether a metric should go up or down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Better {
    Lower,
    Higher,
}

/// A metric the benchmark reports.
#[derive(Clone, Copy)]
struct Metric {
    name: &'static str,
    unit: &'static str,
    better: Better,
    /// Workloads whose passes make the call the metric is taken from
    /// ("all" or a comma-separated list); `README.md` says the same.
    applies: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    applies: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        applies,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, bounded against regressions. Every one is measured,
/// and non-zero, on every workload. `setup_s` is wall-clock. `query_rel`
/// and `pass_rel` are mean wall times divided by the mean time of the
/// benchmark's reference kernel in the same run (see `calib.rs`): on a
/// shared host raw call times drift by a third between runs, and the
/// quotient holds steady (see `README.md`). The rest are counts and ratios
/// that repeat exactly for a seed.
const END_TO_END: [Metric; 10] = [
    m("setup_s", "s", Lower, "all"),
    m("query_rel", "ratio", Lower, "all"),
    m("pass_rel", "ratio", Lower, "all"),
    m("precision_ratio", "ratio", Higher, "all"),
    m("msgs_per_query", "count", Lower, "all"),
    m("bytes_per_query", "B", Lower, "all"),
    m("msgs_per_op", "count", Lower, "all"),
    m("bytes_per_op", "B", Lower, "all"),
    m("success_ratio", "ratio", Higher, "all"),
    m("index_bytes_per_peer", "B", Lower, "all"),
];

/// Wall-clock figures of the client, from untraced passes. Printed on
/// every run and reported among the per-layer metrics; advisory.
const CLIENT: [Metric; 4] = [
    m("client.query_p50_us", "us", Lower, "all"),
    m("client.query_p99_us", "us", Lower, "all"),
    m("client.queries_per_s", "1/s", Higher, "all"),
    m("client.round_p50_ms", "ms", Lower, "all"),
];

/// Per-layer metrics. A layer that does no work on a workload reads 0.
const PER_LAYER: [Metric; 49] = [
    CLIENT[0],
    CLIENT[1],
    CLIENT[2],
    CLIENT[3],
    m("corpus.world_build_ms", "ms", Lower, "all"),
    m("system.issue_training_ms", "ms", Lower, "all"),
    m("system.publish_all_ms", "ms", Lower, "all"),
    m("chord.index_publish_msgs", "count", Lower, "all"),
    m("chord.index_publish_bytes", "B", Lower, "all"),
    m("system.learn_ms", "ms", Lower, "all"),
    m("learn.docs_changed", "count", Lower, "all"),
    m("learn.terms_added", "count", Lower, "all"),
    m("learn.terms_removed", "count", Lower, "all"),
    m("learn.queries_returned", "count", Lower, "all"),
    m("learn.polls", "count", Lower, "all"),
    m("resilience.replicate_initial_ms", "ms", Lower, "churn"),
    m("system.issue_query_us", "us", Lower, "all"),
    m("view.resolve_routes_us", "us", Lower, "all"),
    m("chord.lookups_per_query", "count", Lower, "all"),
    m("chord.mean_hops", "count", Lower, "all"),
    m("postings.fetch_decode_us", "us", Lower, "all"),
    m("view.rank_us", "us", Lower, "all"),
    m("ir.central_search_us", "us", Lower, "all"),
    m("resilience.churn_tick_ms", "ms", Lower, "churn"),
    m("resilience.handed_over_entries", "count", Lower, "churn"),
    m("resilience.states_lost", "count", Lower, "churn"),
    m("chord.maintenance_msgs", "count", Lower, "churn"),
    m("resilience.maintenance_ms", "ms", Lower, "churn,lifecycle"),
    m(
        "resilience.replicated_entries_per_round",
        "count",
        Lower,
        "churn,lifecycle",
    ),
    m(
        "resilience.orphans_moved_per_round",
        "count",
        Lower,
        "churn,lifecycle",
    ),
    m(
        "resilience.tombstones_reclaimed_per_round",
        "count",
        Lower,
        "churn,lifecycle",
    ),
    m("chord.replication_msgs", "count", Lower, "churn,lifecycle"),
    m("chord.replication_bytes", "B", Lower, "churn,lifecycle"),
    m(
        "resilience.replication_useful_ratio",
        "ratio",
        Higher,
        "churn,lifecycle",
    ),
    m(
        "resilience.repair_bytes_per_round",
        "B",
        Lower,
        "churn,lifecycle",
    ),
    m("system.insert_us", "us", Lower, "lifecycle"),
    m("system.update_us", "us", Lower, "lifecycle"),
    m("system.delete_us", "us", Lower, "lifecycle"),
    m("system.doc_event_p50_us", "us", Lower, "lifecycle"),
    m("system.doc_event_p99_us", "us", Lower, "lifecycle"),
    m("system.write_bytes_per_event", "B", Lower, "lifecycle"),
    m("system.update_terms_added", "count", Lower, "lifecycle"),
    m("system.update_terms_removed", "count", Lower, "lifecycle"),
    m(
        "postings.pending_tombstones_peak",
        "count",
        Lower,
        "lifecycle",
    ),
    m("postings.stale_entries", "count", Lower, "lifecycle"),
    m("postings.index_entries", "count", Lower, "all"),
    m("bench.kernel_call_us", "us", Lower, "all"),
    m("bench.trace_overhead_pct", "%", Lower, "all"),
    m("bench.traced_passes", "count", Higher, "all"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 42, 10.0, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse::<f64>().map_err(|_| bad())?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn median(xs: &[f64]) -> f64 {
    Summary::of(xs).p50
}

/// Arithmetic mean; 0 with no samples. The kernel quotients use means:
/// a median of call times jumps between the modes of a bimodal latency
/// distribution when the host's speed shifts, a mean moves smoothly.
fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// The p99, or the highest percentile the sample count supports.
fn p99(xs: &[f64]) -> f64 {
    Summary::at(xs, 99.0).unwrap_or_else(|| Summary::of(xs).tail)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn end_to_end(out: &RunOutput) -> BTreeMap<&'static str, f64> {
    let l = &out.pass.ledger;
    let q = l.phase("queries");
    let queries = l.counter("queries");
    let all = l.total();
    let ops = out.pass.outcomes.attempted;
    let mut v = BTreeMap::new();
    v.insert("setup_s", median(&out.setup_s));
    let kernel_us = mean(&out.plain.calib_us);
    v.insert("query_rel", mean(&out.plain.query_us) / kernel_us);
    v.insert("pass_rel", mean(&out.plain.pass_ms) * 1e3 / kernel_us);
    v.insert("precision_ratio", out.precision);
    v.insert("msgs_per_query", ratio(q.messages(), queries));
    v.insert("bytes_per_query", ratio(q.total_bytes(), queries));
    v.insert("msgs_per_op", ratio(all.messages(), ops));
    v.insert("bytes_per_op", ratio(all.total_bytes(), ops));
    v.insert("success_ratio", 1.0 - out.pass.outcomes.fail_ratio());
    v.insert(
        "index_bytes_per_peer",
        ratio(l.counter("end.index_bytes"), l.counter("end.live_peers")),
    );
    v
}

fn client(out: &RunOutput) -> BTreeMap<&'static str, f64> {
    let lat = &out.plain.query_us;
    let mut v = BTreeMap::new();
    v.insert("client.query_p50_us", median(lat));
    v.insert("client.query_p99_us", p99(lat));
    v.insert(
        "client.queries_per_s",
        lat.len() as f64 / (lat.iter().sum::<f64>() / 1e6),
    );
    v.insert("client.round_p50_ms", median(&out.plain.round_ms));
    v
}

fn per_layer(out: &RunOutput, spans: &Spans) -> BTreeMap<&'static str, f64> {
    let self_ns = spans.self_times_by_name();
    let med = |name: &str, scale: f64| self_ns.get(name).map_or(0.0, |xs| median(xs) / scale);
    let (setup, pass) = (&out.setup, &out.pass.ledger);
    let c = |name: &str| pass.counter(name) as f64;
    let publish = setup.phase("setup.publish_all");
    let queries = pass.phase("queries");
    let maint = pass.phase("maintenance");
    let rounds = pass.counter("maintenance.rounds");
    let per_round = |n: u64| ratio(n, rounds);
    let docs = pass.phase("doc_events");
    let events: Vec<f64> = ["system.insert", "system.update", "system.delete"]
        .iter()
        .filter_map(|n| self_ns.get(n))
        .flatten()
        .map(|ns| ns / 1e3)
        .collect();
    let overhead = median(&out.traced.round_ms) / median(&out.plain.round_ms) - 1.0;

    let mut v = client(out);
    v.insert("corpus.world_build_ms", med("corpus.world_build", 1e6));
    v.insert(
        "system.issue_training_ms",
        med("system.issue_training", 1e6),
    );
    v.insert("system.publish_all_ms", med("system.publish_all", 1e6));
    v.insert(
        "chord.index_publish_msgs",
        publish.count(MsgKind::IndexPublish) as f64,
    );
    v.insert(
        "chord.index_publish_bytes",
        publish.bytes_of(MsgKind::IndexPublish) as f64,
    );
    v.insert("system.learn_ms", med("system.learn", 1e6));
    for name in [
        "learn.docs_changed",
        "learn.terms_added",
        "learn.terms_removed",
        "learn.queries_returned",
        "learn.polls",
    ] {
        v.insert(name, setup.counter(name) as f64);
    }
    v.insert(
        "resilience.replicate_initial_ms",
        med("resilience.replicate_initial", 1e6),
    );
    v.insert("system.issue_query_us", med("system.issue_query_from", 1e3));
    v.insert("view.resolve_routes_us", median(&out.layers.resolve_us));
    v.insert(
        "chord.lookups_per_query",
        ratio(queries.lookups, pass.counter("queries")),
    );
    v.insert("chord.mean_hops", ratio(queries.hops, queries.lookups));
    v.insert("postings.fetch_decode_us", median(&out.layers.fetch_us));
    v.insert("view.rank_us", median(&out.layers.rank_us));
    v.insert("ir.central_search_us", med("ir.central_search", 1e3));
    v.insert(
        "resilience.churn_tick_ms",
        med("resilience.churn_tick", 1e6),
    );
    v.insert(
        "resilience.handed_over_entries",
        c("churn.handed_over_entries"),
    );
    v.insert("resilience.states_lost", c("churn.states_lost"));
    v.insert(
        "chord.maintenance_msgs",
        pass.phase("churn_tick").count(MsgKind::Maintenance) as f64,
    );
    v.insert(
        "resilience.maintenance_ms",
        med("resilience.maintenance", 1e6),
    );
    v.insert(
        "resilience.replicated_entries_per_round",
        per_round(pass.counter("maintenance.replicated")),
    );
    v.insert(
        "resilience.orphans_moved_per_round",
        per_round(pass.counter("maintenance.orphans_moved")),
    );
    v.insert(
        "resilience.tombstones_reclaimed_per_round",
        per_round(pass.counter("maintenance.tombstones_reclaimed")),
    );
    v.insert(
        "chord.replication_msgs",
        per_round(maint.count(MsgKind::Replication)),
    );
    v.insert(
        "chord.replication_bytes",
        per_round(maint.bytes_of(MsgKind::Replication)),
    );
    let grown = (c("maintenance.entries_after") - c("maintenance.entries_before")).max(0.0);
    let shipped = c("maintenance.replicated");
    v.insert(
        "resilience.replication_useful_ratio",
        if shipped > 0.0 { grown / shipped } else { 0.0 },
    );
    v.insert(
        "resilience.repair_bytes_per_round",
        per_round(maint.total_bytes()),
    );
    v.insert("system.insert_us", med("system.insert", 1e3));
    v.insert("system.update_us", med("system.update", 1e3));
    v.insert("system.delete_us", med("system.delete", 1e3));
    v.insert("system.doc_event_p50_us", median(&events));
    v.insert("system.doc_event_p99_us", p99(&events));
    v.insert(
        "system.write_bytes_per_event",
        ratio(
            docs.bytes_of(MsgKind::IndexPublish) + docs.bytes_of(MsgKind::IndexRemove),
            pass.counter("doc.events"),
        ),
    );
    v.insert("system.update_terms_added", c("doc.update_terms_added"));
    v.insert("system.update_terms_removed", c("doc.update_terms_removed"));
    v.insert(
        "postings.pending_tombstones_peak",
        c("doc.pending_tombstones_peak"),
    );
    v.insert("postings.stale_entries", c("end.stale_entries"));
    v.insert("postings.index_entries", c("end.index_entries"));
    v.insert("bench.kernel_call_us", mean(&out.plain.calib_us));
    v.insert("bench.trace_overhead_pct", overhead * 100.0);
    v.insert("bench.traced_passes", out.traced.passes as f64);
    v
}

fn json_metrics(values: &BTreeMap<&'static str, f64>, spec: &[Metric]) -> String {
    let body: Vec<String> = spec
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, values[m.name], m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn write_spans(spans: &Spans, args: &Args) -> std::io::Result<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!(
        "spans-{}-seed{}.tsv",
        args.workload.name(),
        args.seed
    ));
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
    spans.write_tsv(&mut w)?;
    w.flush()?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: sprite-perfbench --workload serve|churn|lifecycle \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    // Fixed before the first pool call; the pool reads it once.
    std::env::set_var("SPRITE_THREADS", POOL_WIDTH.to_string());
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(valid_metric_name(m.name), "bad metric name {}", m.name);
    }

    let mut spans = Spans::new(args.trace, u64::from(std::process::id()), SPAN_CAP);
    let out = workload::run(args.workload, args.seed, args.seconds, &mut spans);
    let mut violations = out.violations.clone();
    let (values, spec): (_, &[Metric]) = if args.trace {
        (per_layer(&out, &spans), &PER_LAYER)
    } else {
        (end_to_end(&out), &END_TO_END)
    };

    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "# workload {} | seed {} | closed loop, 1 client | pool width {POOL_WIDTH} of {cores} cores \
         | scale small, r={} | {SETUPS} set-ups | passes {} untraced + {} traced | trace {}",
        args.workload.name(),
        args.seed,
        args.workload.replication(),
        out.plain.passes,
        out.traced.passes,
        u8::from(args.trace),
    );
    let mut shown: Vec<(&Metric, f64)> = spec.iter().map(|m| (m, values[m.name])).collect();
    if !args.trace {
        let wall = client(&out);
        shown.extend(CLIENT.iter().map(|m| (m, wall[m.name])));
    }
    for (m, value) in shown {
        if !value.is_finite() {
            violations.push(format!("metric {} is not finite", m.name));
        }
        let dir = match m.better {
            Lower => "lower is better",
            Higher => "higher is better",
        };
        println!(
            "{:<44} {value:>16.4} {:<6} {dir}; measures work on: {}",
            m.name, m.unit, m.applies
        );
    }
    let lat = Summary::of(&out.plain.query_us);
    println!(
        "# query latency: {} samples, p50 {:.3} us, mean {:.3} us, tail p{} {:.3} us; \
         reference kernel: {} calls, p50 {:.3} us, mean {:.3} us; pass: median {:.3} ms, mean {:.3} ms",
        lat.n,
        lat.p50,
        mean(&out.plain.query_us),
        lat.tail_p.unwrap_or(50.0),
        lat.tail,
        out.plain.calib_us.len(),
        median(&out.plain.calib_us),
        mean(&out.plain.calib_us),
        median(&out.plain.pass_ms),
        mean(&out.plain.pass_ms),
    );
    for line in out.setup.render("# set-up ledger ") {
        println!("{line}");
    }
    for line in out.pass.ledger.render("# pass ledger ") {
        println!("{line}");
    }
    println!(
        "# evaluation hit fingerprint {:016x}; operations {} attempted, {} failed (all passes)",
        out.eval_hits.0, out.outcomes.attempted, out.outcomes.failed
    );
    if args.trace {
        match write_spans(&spans, &args) {
            Ok(path) => println!("# {} spans written to {path}", spans.spans().len()),
            Err(e) => eprintln!("warning: spans not written: {e}"),
        }
    }
    for v in &violations {
        eprintln!("check failed: {v}");
    }
    let correct = violations.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.outcomes.attempted.max(1),
        out.outcomes.failed,
        json_metrics(&values, spec)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_metric_name(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
    }

    /// `BENCHMARK.json` lists exactly the metrics this program prints, with
    /// the same units and directions.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let section = |key: &str| -> Vec<String> {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let end = text[start..].find(']').expect("section closes") + start;
            text[start..end]
                .split('{')
                .skip(1)
                .map(|obj| {
                    obj.split('}')
                        .next()
                        .unwrap_or("")
                        .replace(char::is_whitespace, "")
                })
                .collect()
        };
        for (key, spec) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let objs = section(key);
            assert_eq!(objs.len(), spec.len(), "{key}");
            for (obj, m) in objs.iter().zip(spec) {
                let better = match m.better {
                    Lower => "lower",
                    Higher => "higher",
                };
                let head = format!(
                    "\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{better}\"",
                    m.name, m.unit
                );
                assert!(obj.starts_with(&head), "{key}: {obj} vs {head}");
            }
        }
        for w in Workload::ALL {
            assert!(
                text.contains(&format!("\"name\": \"{}\"", w.name())),
                "{}",
                w.name()
            );
        }
    }

    /// The README's per-layer table gives every per-layer metric, once,
    /// with the workloads this program prints for it.
    #[test]
    fn readme_names_the_workloads_each_layer_metric_measures() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/README.md");
        let text = std::fs::read_to_string(path).expect("README.md in the benchmark");
        let table = text
            .split("## Per-layer metrics")
            .nth(1)
            .expect("per-layer section");
        let mut on = BTreeMap::new();
        for row in table.lines().filter(|l| l.starts_with("| `")) {
            let cols: Vec<&str> = row.trim_matches('|').split(" | ").collect();
            let workloads = cols
                .last()
                .expect("row has columns")
                .trim()
                .replace(' ', "");
            for name in cols[0].split('`').skip(1).step_by(2) {
                assert!(
                    on.insert(name.to_string(), workloads.clone()).is_none(),
                    "{name} listed twice"
                );
            }
        }
        assert_eq!(on.len(), PER_LAYER.len(), "README rows: {:?}", on.keys());
        for m in &PER_LAYER {
            assert_eq!(
                on.get(m.name).map(String::as_str),
                Some(m.applies),
                "{}",
                m.name
            );
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload churn --seed 7 --seconds 3 --trace 1").expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Churn, 7, 3.0, true)
        );
        for bad in [
            "",
            "--workload nope",
            "--workload serve --trace 2",
            "--workload serve --seed x",
            "--workload serve --seconds -1",
            "--workload serve --bogus 1",
            "--workload",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
