//! EXPERIMENTS.md's simulator-cost table quotes simbench's counters; this
//! keeps every row equal to `baselines/report_bench.json`, the numbers CI
//! gates, and every gated workload in the table.

use std::collections::BTreeMap;

use tg_analyze::{flatten, Json};

/// `(events, peak_queue_depth)` per workload.
type Counts = BTreeMap<String, (f64, f64)>;

fn baseline() -> Counts {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/baselines/report_bench.json");
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let flat: BTreeMap<String, f64> = flatten(doc.get("metrics").expect("metrics"))
        .into_iter()
        .collect();
    flat.iter()
        .filter_map(|(name, &events)| {
            let w = name.strip_suffix(".events")?;
            Some((
                w.to_string(),
                (events, flat[&format!("{w}.peak_queue_depth")]),
            ))
        })
        .collect()
}

/// The rows of the table under `## Simulator cost`, keyed by the
/// backticked workload name in the first column.
fn documented() -> Counts {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/EXPERIMENTS.md");
    let text = std::fs::read_to_string(path).unwrap();
    let section = text
        .split("\n## ")
        .find(|s| s.starts_with("Simulator cost"))
        .expect("EXPERIMENTS.md has a `## Simulator cost` section");
    let mut rows = Counts::new();
    for line in section.lines() {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        let [_, name, _, events, peak, _] = cells[..] else {
            continue;
        };
        let Some(name) = name.strip_prefix('`').and_then(|n| n.strip_suffix('`')) else {
            continue;
        };
        let num = |cell: &str| -> f64 {
            cell.parse()
                .unwrap_or_else(|_| panic!("{name}: {cell:?} is not a number"))
        };
        let dup = rows.insert(name.to_string(), (num(events), num(peak)));
        assert!(dup.is_none(), "{name} listed twice");
    }
    rows
}

#[test]
fn simulator_cost_table_matches_the_bench_baseline() {
    let want = baseline();
    assert!(!want.is_empty(), "baseline has no workloads");
    assert_eq!(
        documented(),
        want,
        "EXPERIMENTS.md (left) vs baselines/report_bench.json (right), as (events, peak_queue_depth)"
    );
}
