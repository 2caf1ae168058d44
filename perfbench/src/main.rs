//! `perfbench` — the repository's benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans-dir DIR]
//! ```
//!
//! Repeats one workload for `--seconds` seconds of host time: plain
//! (untraced) repetitions for the first 40%, observed ones for the rest,
//! each phase after one warm-up and each repetition followed by the
//! host-speed probe, and then one pair on a held-out seed. Every
//! repetition passes its correctness gate, and every deterministic figure
//! must repeat exactly within the invocation. With `--trace 0` the last
//! line of standard output is a JSON object carrying every end-to-end
//! metric; with `--trace 1` it carries every per-layer metric instead,
//! the spans of every call go to `--spans-dir`, and the run-time
//! difference between span-recording and plain repetitions is the
//! tracing overhead. Timings are medians over the repetitions, scaled by
//! the probe (see `probe.rs`).

mod alloc;
mod probe;
mod report;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use probe::Probe;
use report::{Metric, Outcome};
use spans::Tracer;
use stats::{median, quartiles};
use workloads::{Basic2Node, Latency, Observed, Plain, Workload};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Every end-to-end metric, with its unit; `BENCHMARK.json` lists the same.
const END_TO_END: [(&str, &str); 10] = [
    ("run_s", "s"),
    ("setup_s", "s"),
    ("observed_s", "s"),
    ("events_per_run", "count"),
    ("allocs_per_run", "count"),
    ("heap_peak_mib", "MiB"),
    ("sim_time_us", "sim_us"),
    ("paper_err_pct", "%"),
    ("req_p50_us", "sim_us"),
    ("req_p99_us", "sim_us"),
];

/// Every per-layer metric, with its unit; `BENCHMARK.json` lists the same.
const PER_LAYER: [(&str, &str); 35] = [
    ("sim.ns_per_event", "ns"),
    ("sim.peak_pending", "events"),
    ("sim.queue_heap", "flag"),
    ("sim.allocs_per_event", "allocs/event"),
    ("net.packets", "count"),
    ("net.events_per_packet", "events/packet"),
    ("net.switch_events", "count"),
    ("core.node_events", "count"),
    ("net.credit_stall_us", "sim_us"),
    ("net.retransmits", "count"),
    ("net.retx_bytes", "bytes"),
    ("net.useful_frac", "frac"),
    ("net.ctrl_discards", "count"),
    ("net.peer_downs", "count"),
    ("hib.remote_write_us", "sim_us"),
    ("hib.remote_read_us", "sim_us"),
    ("hib.atomic_us", "sim_us"),
    ("hib.op_failures", "count"),
    ("core.build_s", "s"),
    ("core.rx_fifo_high_water", "packets"),
    ("core.check_s", "s"),
    ("observe.probe_events", "count"),
    ("observe.samples", "count"),
    ("observe.run_sampled_s", "s"),
    ("observe.allocs_per_event", "allocs/event"),
    ("analyze.attrib_s", "s"),
    ("analyze.congestion_s", "s"),
    ("kv.timeouts", "count"),
    ("kv.failovers", "count"),
    ("kv.dedup_hits", "count"),
    ("kv.useful_frac", "frac"),
    ("kv.rejected_busy", "count"),
    ("kv.failed_unreachable", "count"),
    ("kv.drive_s", "s"),
    ("kv.audit_s", "s"),
];

/// The per-layer metrics the traced invocation adds about itself.
const BENCH_LAYER: [(&str, &str); 2] = [("bench.trace_overhead_pct", "%"), ("bench.probe_s", "s")];

/// The held-out seed is the given seed with these bits flipped.
const HELD_OUT: u64 = 0x0DD5_EED5_0000_0000;

/// The share of `--seconds` given to plain repetitions. Observed
/// repetitions take 1.2 to 6 times as long, so they get the larger share.
const PLAIN_SHARE: f64 = 0.4;

/// Fewest measured repetitions, however short `--seconds` is.
const MIN_REPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut spans_dir = PathBuf::from(".bench_build/perfbench-spans");
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--spans-dir" => spans_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans_dir,
    })
}

/// A plain repetition with what the allocator saw during it.
struct PlainRep {
    rep: Plain,
    traced: bool,
    allocs: u64,
    heap_peak_bytes: u64,
}

/// Everything one invocation measured.
struct Book<'w> {
    wl: &'w dyn Workload,
    tr: Tracer,
    probe: Probe,
    plains: Vec<PlainRep>,
    observed: Vec<Observed>,
    /// Probe durations taken between the plain and between the observed
    /// repetitions, s.
    plain_probes: Vec<f64>,
    observed_probes: Vec<f64>,
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Book<'_> {
    fn plain(&mut self, seed: u64, traced: bool) -> Option<PlainRep> {
        self.tr.set_on(traced);
        alloc::reset_peak();
        let (a0, live0) = (alloc::allocs(), alloc::live_bytes());
        let wl = self.wl;
        let (res, _) = self.tr.span("plain", |tr| wl.plain(seed, tr));
        let allocs = alloc::allocs() - a0;
        let heap_peak_bytes = alloc::peak_bytes() - live0;
        self.attempted += self.wl.ops();
        match res {
            Ok(rep) => {
                self.failed += rep.failed_ops;
                Some(PlainRep {
                    rep,
                    traced,
                    allocs,
                    heap_peak_bytes,
                })
            }
            Err(e) => {
                self.fail(format!("seed {seed}: {e}"));
                None
            }
        }
    }

    fn observed(&mut self, seed: u64, traced: bool) -> Option<Observed> {
        self.tr.set_on(traced);
        let res = self.wl.observed(seed, &mut self.tr);
        self.attempted += self.wl.ops();
        res.map_err(|e| self.fail(format!("seed {seed} (observed): {e}")))
            .ok()
    }

    fn fail(&mut self, why: String) {
        eprintln!("perfbench: FAILED {why}");
        self.failures.push(why);
        self.failed += self.wl.ops();
    }
}

/// The deterministic figures of a plain repetition. Allocation counts
/// compare only between repetitions that recorded spans alike.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    events: u64,
    allocs: u64,
    sim_time_us: f64,
    paper_err_pct: Option<f64>,
    latency: Option<Latency>,
}

impl Fingerprint {
    fn of(p: &PlainRep) -> Self {
        Fingerprint {
            events: p.rep.events,
            allocs: p.allocs,
            sim_time_us: p.rep.sim_time_us,
            paper_err_pct: p.rep.paper_err_pct,
            latency: p.rep.latency,
        }
    }
}

/// Checks that every deterministic figure repeated exactly.
fn check_determinism(book: &Book<'_>) -> Vec<String> {
    let mut out = Vec::new();
    for traced in [false, true] {
        let fps: Vec<_> = book
            .plains
            .iter()
            .filter(|p| p.traced == traced)
            .map(Fingerprint::of)
            .collect();
        if fps.windows(2).any(|w| w[0] != w[1]) {
            out.push(format!(
                "plain repetitions disagree on a deterministic figure: {fps:?}"
            ));
        }
    }
    let obs: Vec<_> = book
        .observed
        .iter()
        .map(|o| (o.events, o.sim_time_us, o.latency))
        .collect();
    if obs.windows(2).any(|w| w[0] != w[1]) {
        out.push(format!(
            "observed repetitions disagree on a deterministic figure: {obs:?}"
        ));
    }
    if let (Some(p), Some(o)) = (book.plains.first(), book.observed.first()) {
        if p.rep.events != o.events || p.rep.sim_time_us != o.sim_time_us {
            out.push(format!(
                "observation changed the simulation: {} events / {} us plain, {} / {} observed",
                p.rep.events, p.rep.sim_time_us, o.events, o.sim_time_us
            ));
        }
    }
    out
}

/// Median, quartiles and sample count of one series, for the summary.
struct Series {
    name: &'static str,
    unit: &'static str,
    values: Vec<f64>,
}

impl Series {
    fn value(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            median(&self.values)
        }
    }

    fn summary(&self) -> String {
        let spread = if self.values.len() >= 2 {
            let (q1, q3) = quartiles(&self.values);
            format!("q1 {q1:.6} q3 {q3:.6}")
        } else {
            String::new()
        };
        format!(
            "  {:<26} {:>16.6} {:<13} n={:<4} {spread}",
            self.name,
            self.value(),
            self.unit,
            self.values.len()
        )
    }
}

fn series(name: &'static str, unit: &'static str, values: impl IntoIterator<Item = f64>) -> Series {
    Series {
        name,
        unit,
        values: values.into_iter().collect(),
    }
}

/// The end-to-end series of an untraced invocation. Host times are
/// scaled to the probe's nominal speed by the median probe of their phase.
fn end_to_end(book: &Book<'_>, paper_err_pct: f64) -> Result<Vec<Series>, String> {
    let plains: Vec<&PlainRep> = book.plains.iter().filter(|p| !p.traced).collect();
    let latency = plains
        .iter()
        .find_map(|p| p.rep.latency)
        .or_else(|| book.observed.iter().find_map(|o| o.latency))
        .ok_or("no repetition measured a request latency")?;
    for p in [latency.p50, latency.p99] {
        println!(
            "  latency percentile {:.4} us over {} samples, {} beyond it",
            p.value, p.samples, p.beyond
        );
    }
    let scale = |probes: &[f64]| {
        let m = median(probes);
        println!(
            "  probe median {m:.6} s over {} runs; host times scaled by {:.4}",
            probes.len(),
            probe::NOMINAL_S / m
        );
        probe::NOMINAL_S / m
    };
    let (plain_scale, observed_scale) = (scale(&book.plain_probes), scale(&book.observed_probes));
    let [run_s, setup_s, observed_s, events, allocs, heap, sim_time, err, p50, p99] = END_TO_END;
    Ok(vec![
        series(
            run_s.0,
            run_s.1,
            plains.iter().map(|p| p.rep.run_s * plain_scale),
        ),
        series(
            setup_s.0,
            setup_s.1,
            plains.iter().map(|p| p.rep.setup_s * plain_scale),
        ),
        series(
            observed_s.0,
            observed_s.1,
            book.observed.iter().map(|o| o.observed_s * observed_scale),
        ),
        series(
            events.0,
            events.1,
            plains.iter().map(|p| p.rep.events as f64),
        ),
        series(allocs.0, allocs.1, plains.iter().map(|p| p.allocs as f64)),
        series(
            heap.0,
            heap.1,
            plains
                .iter()
                .map(|p| p.heap_peak_bytes as f64 / (1u64 << 20) as f64),
        ),
        series(
            sim_time.0,
            sim_time.1,
            plains.iter().map(|p| p.rep.sim_time_us),
        ),
        series(err.0, err.1, [paper_err_pct]),
        series(p50.0, p50.1, [latency.p50.value]),
        series(p99.0, p99.1, [latency.p99.value]),
    ])
}

/// The per-layer series of a traced invocation: each the median over the
/// repetitions that report it, 0 where the layer did no work.
fn per_layer(book: &Book<'_>) -> Vec<Series> {
    let mut out: Vec<Series> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let values = book
                .plains
                .iter()
                .flat_map(|p| &p.rep.layer)
                .chain(book.observed.iter().flat_map(|o| &o.layer))
                .filter(|(n, _)| *n == name)
                .map(|&(_, v)| v);
            series(name, unit, values)
        })
        .collect();
    let run = |traced: bool| {
        let v: Vec<f64> = book
            .plains
            .iter()
            .filter(|p| p.traced == traced)
            .map(|p| p.rep.run_s)
            .collect();
        if v.is_empty() {
            f64::NAN
        } else {
            median(&v)
        }
    };
    let overhead = 100.0 * (run(true) / run(false) - 1.0);
    let [trace_overhead, probe_s] = BENCH_LAYER;
    out.push(series(trace_overhead.0, trace_overhead.1, [overhead]));
    let probes = book
        .plain_probes
        .iter()
        .chain(&book.observed_probes)
        .copied();
    out.push(series(probe_s.0, probe_s.1, probes));
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(wl) = workloads::by_name(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {}; choose one of {:?}",
            args.workload,
            workloads::NAMES
        );
        return ExitCode::from(2);
    };
    let mut book = Book {
        wl: wl.as_ref(),
        tr: Tracer::new(args.trace),
        probe: Probe::new(),
        plains: Vec::new(),
        observed: Vec::new(),
        plain_probes: Vec::new(),
        observed_probes: Vec::new(),
        failures: Vec::new(),
        attempted: 0,
        failed: 0,
    };

    // Plain repetitions fill the first PLAIN_SHARE of the time, observed
    // ones the rest, so that the observed passes' large traces do not disturb the
    // plain timings. Each phase starts with an unrecorded warm-up, so that
    // lazy set-up finishes and caches fill before timing, and every
    // repetition is followed by a run of the host-speed probe.
    let t0 = Instant::now();
    let elapsed = || t0.elapsed().as_secs_f64();
    let mut run = 0u32;
    book.probe.run();
    book.plain(args.seed, false);
    while book.failures.is_empty()
        && (elapsed() < args.seconds * PLAIN_SHARE || book.plains.len() < MIN_REPS)
    {
        run += 1;
        book.tr.set_run(run);
        // A traced invocation alternates span-recording and plain
        // repetitions; their run-time difference is the tracing overhead.
        let traced = args.trace && run % 2 == 1;
        let rep = book.plain(args.seed, traced);
        let probe_s = book.probe.run();
        if let Some(p) = rep {
            eprintln!(
                "  plain {run}: setup {:.6} s run {:.6} s probe {probe_s:.6} s",
                p.rep.setup_s, p.rep.run_s
            );
            book.plains.push(p);
            book.plain_probes.push(probe_s);
        }
    }
    book.observed(args.seed, false);
    while book.failures.is_empty() && (elapsed() < args.seconds || book.observed.len() < MIN_REPS) {
        run += 1;
        book.tr.set_run(run);
        let rep = book.observed(args.seed, args.trace);
        let probe_s = book.probe.run();
        if let Some(o) = rep {
            eprintln!(
                "  observed {run}: {:.6} s probe {probe_s:.6} s",
                o.observed_s
            );
            book.observed.push(o);
            book.observed_probes.push(probe_s);
        }
    }
    let measured_s = elapsed();

    // The held-out seed: gates only.
    book.tr.set_run(run + 1);
    let held_out = args.seed ^ HELD_OUT;
    book.plain(held_out, false);
    book.observed(held_out, false);

    // The model-accuracy check: the §3.2 testbed at full length for
    // basic_2node, a short pass of it for every other workload.
    let paper_err_pct = match book.plains.iter().find_map(|p| p.rep.paper_err_pct) {
        Some(e) => Some(e),
        None => {
            let mut tr = Tracer::new(false);
            match Basic2Node::CALIBRATION.plain(0, &mut tr) {
                Ok(c) => c.paper_err_pct,
                Err(e) => {
                    book.fail(format!("calibration: {e}"));
                    None
                }
            }
        }
    };

    for e in check_determinism(&book) {
        book.fail(e);
    }

    println!(
        "perfbench {} seed {} (held-out {held_out}): {} plain + {} observed repetitions in {measured_s:.2} s{}",
        args.workload,
        args.seed,
        book.plains.len(),
        book.observed.len(),
        if args.trace { ", traced" } else { "" }
    );
    let all = if args.trace {
        per_layer(&book)
    } else {
        match end_to_end(&book, paper_err_pct.unwrap_or(f64::NAN)) {
            Ok(s) => s,
            Err(e) => {
                book.fail(e);
                Vec::new()
            }
        }
    };
    for s in &all {
        println!("{}", s.summary());
    }
    println!(
        "  failed_frac {:.6} ({} of {} operations)",
        book.failed as f64 / book.attempted.max(1) as f64,
        book.failed,
        book.attempted
    );

    if args.trace {
        for (name, (calls, total, own)) in book.tr.self_times() {
            println!(
                "  span {name:<28} calls {calls:>5} total {:>10.4} s self {:>10.4} s",
                total as f64 * 1e-9,
                own as f64 * 1e-9
            );
        }
        let path = args
            .spans_dir
            .join(format!("spans-{}-{}.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(&args.spans_dir)
            .and_then(|()| std::fs::write(&path, book.tr.to_json()));
        match written {
            Ok(()) => println!(
                "  wrote {} spans to {}",
                book.tr.spans().len(),
                path.display()
            ),
            Err(e) => book.fail(format!("writing {}: {e}", path.display())),
        }
    }

    let outcome = Outcome {
        correct: book.failures.is_empty(),
        attempted: book.attempted,
        failed: book.failed,
        metrics: all
            .iter()
            .map(|s| Metric {
                name: s.name,
                unit: s.unit,
                value: s.value(),
            })
            .collect(),
    };
    match outcome.to_json() {
        Ok(line) => {
            println!("{line}");
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: cannot report: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_analyze::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        let Some(Json::Arr(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no {key} list")
        };
        items
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn ours(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let doc = benchmark_json();
        assert_eq!(listed(&doc, "end_to_end"), ours(&END_TO_END));
        let mut layers = ours(&PER_LAYER);
        layers.extend(ours(&BENCH_LAYER));
        assert_eq!(listed(&doc, "per_layer"), layers);
        let Some(Json::Arr(wls)) = doc.get("workloads") else {
            panic!("no workloads")
        };
        let names: Vec<&str> = wls.iter().filter_map(|w| w.get("name")?.as_str()).collect();
        assert_eq!(names, workloads::NAMES);
    }

    #[test]
    fn every_reported_name_and_unit_is_valid() {
        for &(name, unit) in END_TO_END.iter().chain(&PER_LAYER).chain(&BENCH_LAYER) {
            assert!(report::valid_name(name), "{name}");
            assert!(report::valid_unit(unit), "{unit}");
        }
    }

    #[test]
    fn paper_error_is_the_larger_relative_error() {
        assert_eq!(workloads::paper_err_pct(0.70, 7.2), 0.0);
        let e = workloads::paper_err_pct(0.77, 7.2);
        assert!((e - 10.0).abs() < 1e-9, "{e}");
        let e = workloads::paper_err_pct(0.70, 5.4);
        assert!((e - 25.0).abs() < 1e-9, "{e}");
    }
}
