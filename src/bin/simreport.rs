//! `simreport` — critical-path latency attribution, congestion
//! observatory, and the regression gate CLI.
//!
//! ```text
//! simreport run [stencil16|pingpong] [--nodes N] [--interval-us U]
//!               [--out FILE] [--perfetto FILE] [--top K]
//!               [--reliable] [--drop P] [--corrupt P] [--fault-seed S]
//!               [--quiet]
//! simreport gate --baseline FILE --current FILE
//! ```
//!
//! * `run` executes a harness workload with tracing and metric sampling
//!   enabled, prints the per-hop critical-path attribution (p50/p99
//!   exemplars whose segments sum *exactly* to their measured latency),
//!   names the hottest links, and writes a `tg-report-v2` `report.json`.
//!   `--perfetto FILE` additionally exports a Chrome trace with the
//!   congestion time series as counter tracks.
//! * `gate` diffs a current report against a committed baseline at zero
//!   tolerance (a lower-better metric may only fall) and exits non-zero
//!   on any regression — the CI gate.

use std::collections::HashMap;
use std::num::NonZeroU64;
use std::process::ExitCode;

use telegraphos::observe::{chrome_events, chrome_trace_json, counter_track_events};
use telegraphos::Cluster;
use telegraphos_suite::cli::{self, Args};
use telegraphos_suite::harness::{self, HarnessOptions, StencilCheck};
use tg_analyze::{
    attribute_ops, exemplar_at, gate_reports, hottest_links, link_usage, Json, LinkUsage,
    OpAttribution, SegClass, SCHEMA,
};
use tg_sim::{LogHistogram, MetricsRegistry, SimTime};

struct RunOptions {
    workload: String,
    interval_us: NonZeroU64,
    out: String,
    perfetto: Option<String>,
    top: usize,
    quiet: bool,
    harness: HarnessOptions,
}

fn parse_run(args: &mut Args) -> Result<RunOptions, String> {
    let mut opts = RunOptions {
        workload: "stencil16".to_string(),
        interval_us: NonZeroU64::MIN,
        out: "report.json".to_string(),
        perfetto: None,
        top: 5,
        quiet: false,
        harness: HarnessOptions {
            nodes: 0, // 0 = workload default
            ..HarnessOptions::default()
        },
    };
    let h = &mut opts.harness;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "stencil16" | "pingpong" => opts.workload = arg,
            "--nodes" => h.nodes = args.value("--nodes")?,
            "--interval-us" => opts.interval_us = args.value("--interval-us")?,
            "--out" => opts.out = args.value("--out")?,
            "--perfetto" => opts.perfetto = Some(args.value("--perfetto")?),
            "--top" => opts.top = args.value("--top")?,
            "--reliable" => h.reliable = true,
            "--drop" => h.drop = args.value("--drop")?,
            "--corrupt" => h.corrupt = args.value("--corrupt")?,
            "--fault-seed" => h.fault_seed = args.value("--fault-seed")?,
            "--quiet" => opts.quiet = true,
            other => return Err(format!("unknown run argument {other}")),
        }
    }
    if h.nodes == 0 {
        h.nodes = if opts.workload == "stencil16" { 16 } else { 4 };
    }
    h.validate()?;
    Ok(opts)
}

/// Latency aggregate of one op kind.
struct KindStats {
    kind: &'static str,
    attribs: Vec<OpAttribution>,
    hist: LogHistogram,
}

fn kind_stats(attribs: Vec<OpAttribution>) -> Vec<KindStats> {
    let mut order: Vec<&'static str> = Vec::new();
    let mut by_kind: HashMap<&'static str, Vec<OpAttribution>> = HashMap::new();
    for a in attribs {
        let kind = a.op.kind.label();
        if !by_kind.contains_key(kind) {
            order.push(kind);
        }
        by_kind.entry(kind).or_default().push(a);
    }
    order
        .into_iter()
        .map(|kind| {
            let attribs = by_kind.remove(kind).expect("indexed");
            let mut hist = LogHistogram::new();
            for a in &attribs {
                hist.record(a.latency().as_ns());
            }
            KindStats {
                kind,
                attribs,
                hist,
            }
        })
        .collect()
}

fn exemplar_json(a: &OpAttribution) -> Json {
    let mut e = Json::obj();
    e.set("latency_ns", Json::Num(a.latency().as_ns() as f64));
    e.set(
        "segments",
        Json::Arr(
            a.segments
                .iter()
                .filter(|s| !s.dur.is_zero())
                .map(|s| {
                    let mut seg = Json::obj();
                    seg.set("name", Json::Str(s.hop_label()));
                    seg.set("ns", Json::Num(s.dur.as_ns() as f64));
                    seg
                })
                .collect(),
        ),
    );
    e
}

fn link_json(u: &LinkUsage) -> Json {
    let mut l = Json::obj();
    l.set("link", Json::Str(u.name.clone()));
    l.set("mean_utilization", Json::Num(u.mean_utilization));
    l.set("peak_utilization", Json::Num(u.peak_utilization));
    l.set("peak_fifo_depth", Json::Num(u.peak_fifo_depth));
    l.set("fifo_high_water", Json::Num(u.fifo_high_water));
    l.set("stall_us", Json::Num(u.stall_us));
    l.set("tx_packets", Json::Num(u.tx_packets as f64));
    l.set("tx_bytes", Json::Num(u.tx_bytes as f64));
    l.set("retransmits", Json::Num(u.retransmits as f64));
    l.set("rx_discards", Json::Num(u.rx_discards as f64));
    l
}

fn print_exemplar(tag: &str, kind: &str, a: &OpAttribution) {
    let mut sum = SimTime::ZERO;
    println!(
        "  {tag} {kind} exemplar ({:.3} us):",
        a.latency().as_us_f64()
    );
    for s in &a.segments {
        if s.dur.is_zero() {
            continue;
        }
        sum += s.dur;
        println!("    {:<32} {:>9.3} us", s.hop_label(), s.dur.as_us_f64());
    }
    // The telescoping invariant, surfaced where a reader can see it.
    let exact = if sum == a.latency() {
        "exact"
    } else {
        "MISMATCH"
    };
    println!("    {:<32} {:>9.3} us ({exact})", "sum", sum.as_us_f64());
}

fn cmd_run(args: &mut Args) -> Result<ExitCode, String> {
    let opts = parse_run(args)?;
    let hopts = &opts.harness;
    let (mut cluster, stencil_check): (Cluster, Option<StencilCheck>) = match opts.workload.as_str()
    {
        "pingpong" => (harness::build_pingpong(hopts), None),
        _ => {
            let (c, check) = harness::build_stencil(hopts, 8, 12);
            (c, Some(check))
        }
    };
    let collector = cluster.enable_tracing();
    let mut metrics = MetricsRegistry::new();
    cluster.run_sampled(SimTime::from_us(opts.interval_us.get()), &mut metrics);
    if !cluster.all_halted() {
        return Err("workload deadlocked".to_string());
    }
    if let Some(check) = &stencil_check {
        harness::verify_stencil(&cluster, check)?;
    }

    let ops = collector.op_events();
    let packets = collector.packet_events();
    let attribs = attribute_ops(&ops, &packets);
    for a in &attribs {
        if a.total() != a.latency() {
            return Err(format!(
                "attribution for {} on node{} sums to {} but the op took {}",
                a.op.kind,
                a.op.node.raw(),
                a.total(),
                a.latency()
            ));
        }
    }
    let kinds = kind_stats(attribs);
    let usage = link_usage(&metrics);
    let hottest = hottest_links(&usage, opts.top);

    // ---- report.json ------------------------------------------------
    let mut report = Json::obj();
    report.set("schema", Json::Str(SCHEMA.to_string()));
    report.set("name", Json::Str(opts.workload.clone()));
    report.set("nodes", Json::Num(f64::from(hopts.nodes)));
    report.set("sim_time_us", Json::Num(cluster.now().as_us_f64()));

    let mut latency = Json::obj();
    let mut attribution = Json::obj();
    let mut exemplars = Json::obj();
    for k in &kinds {
        let mut l = Json::obj();
        l.set("count", Json::Num(k.hist.count() as f64));
        l.set("mean_ns", Json::Num(k.hist.mean()));
        l.set("p50_ns", Json::Num(k.hist.quantile(0.5) as f64));
        l.set("p99_ns", Json::Num(k.hist.quantile(0.99) as f64));
        l.set("p999_ns", Json::Num(k.hist.quantile(0.999) as f64));
        latency.set(k.kind, l);

        let mut cl = Json::obj();
        for &class in &SegClass::ALL {
            let total = k
                .attribs
                .iter()
                .flat_map(|a| &a.segments)
                .filter(|s| s.class == class)
                .fold(SimTime::ZERO, |acc, s| acc + s.dur);
            cl.set(
                &format!("{}_us", class.label()),
                Json::Num(total.as_us_f64()),
            );
        }
        attribution.set(k.kind, cl);

        let mut ex = Json::obj();
        if let Some(a) = exemplar_at(&k.attribs, 0.5) {
            ex.set("p50", exemplar_json(a));
        }
        if let Some(a) = exemplar_at(&k.attribs, 0.99) {
            ex.set("p99", exemplar_json(a));
        }
        exemplars.set(k.kind, ex);
    }
    report.set("latency", latency);
    report.set("attribution", attribution);
    report.set("exemplars", exemplars);
    report.set(
        "hottest_links",
        Json::Arr(hottest.iter().map(link_json).collect()),
    );
    let mut counters = Json::obj();
    for (name, value) in metrics.counters() {
        counters.set(name, Json::Num(value as f64));
    }
    report.set("metrics", counters);
    std::fs::write(&opts.out, report.to_string_pretty())
        .map_err(|e| format!("write {}: {e}", opts.out))?;

    // ---- Perfetto export with counter tracks ------------------------
    if let Some(path) = &opts.perfetto {
        let mut events = chrome_events(&ops, &packets);
        events.extend(counter_track_events(&metrics));
        std::fs::write(path, chrome_trace_json(&events))
            .map_err(|e| format!("write {path}: {e}"))?;
    }

    // ---- console report ---------------------------------------------
    if !opts.quiet {
        println!(
            "{}: {} nodes, {} traced ops, {} packet events, sim time {:.1} us -> {}",
            opts.workload,
            hopts.nodes,
            kinds.iter().map(|k| k.hist.count()).sum::<u64>(),
            packets.len(),
            cluster.now().as_us_f64(),
            opts.out
        );
        println!("latency (us): kind count p50 p99 p999");
        for k in &kinds {
            println!(
                "  {:<14} x{:<5} {:>8.3} {:>8.3} {:>8.3}",
                k.kind,
                k.hist.count(),
                k.hist.quantile(0.5) as f64 / 1000.0,
                k.hist.quantile(0.99) as f64 / 1000.0,
                k.hist.quantile(0.999) as f64 / 1000.0,
            );
        }
        println!("critical-path attribution:");
        for k in &kinds {
            if let Some(a) = exemplar_at(&k.attribs, 0.5) {
                print_exemplar("p50", k.kind, a);
            }
            if let Some(a) = exemplar_at(&k.attribs, 0.99) {
                print_exemplar("p99", k.kind, a);
            }
        }
        println!("hottest links (top {}):", opts.top);
        for (i, u) in hottest.iter().enumerate() {
            println!(
                "  {}. {:<22} util {:.3} (peak {:.3})  stall {:>8.1} us  fifo hw {:>3}  {} pkts",
                i + 1,
                u.name,
                u.mean_utilization,
                u.peak_utilization,
                u.stall_us,
                u.fifo_high_water,
                u.tx_packets
            );
        }
        if let Some(top) = hottest.first() {
            println!("saturated link: {}", top.name);
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_gate(args: &mut Args) -> Result<ExitCode, String> {
    let mut baseline: Option<String> = None;
    let mut current: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline" => baseline = Some(args.value("--baseline")?),
            "--current" => current = Some(args.value("--current")?),
            other => return Err(format!("unknown gate argument {other}")),
        }
    }
    let baseline = baseline.ok_or("gate needs --baseline")?;
    let current = current.ok_or("gate needs --current")?;
    let read = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        if let Some(tag) = doc.get("schema").and_then(|s| s.as_str()) {
            if tag != SCHEMA {
                return Err(format!("{path}: unsupported report schema {tag:?}"));
            }
        }
        Ok(doc)
    };
    let result = gate_reports(&read(&baseline)?, &read(&current)?);
    for f in &result.failures {
        eprintln!("gate: REGRESSION {f}");
    }
    if !result.new_metrics.is_empty() {
        println!(
            "gate: note: {} new metric(s) absent from the baseline (refresh it to gate them)",
            result.new_metrics.len()
        );
    }
    if result.passed() {
        println!(
            "gate: ok ({} metrics unchanged or improved, {baseline} vs {current})",
            result.checked
        );
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!(
            "gate: FAILED ({} of {} metrics regressed)",
            result.failures.len(),
            result.checked
        );
        Ok(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    let mut args = Args::from_env();
    let cmd = args.next().unwrap_or_else(|| "run".to_string());
    let result = match cmd.as_str() {
        "run" => cmd_run(&mut args),
        "gate" => cmd_gate(&mut args),
        other => Err(format!("unknown subcommand {other} (expected run or gate)")),
    };
    result.unwrap_or_else(|e| cli::fail("simreport", e))
}
