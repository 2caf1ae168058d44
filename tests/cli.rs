//! Every bad command line ends in a `"<bin>: <reason>"` message and exit
//! code 1 — never a panic (exit code 101), and never a run that silently
//! ignores what was asked for. The regression gate is shown to pass an
//! unchanged report and to fire on a one-event change.

use std::path::Path;
use std::process::{Command, Output};

use tg_analyze::Json;

/// `(binary, argv, what stderr must mention)`.
const BAD: &[(&str, &[&str], &str)] = &[
    ("simreport", &["run", "--drop", "1.5"], "within [0, 1]"),
    ("simtrace", &["--drop", "nan"], "within [0, 1]"),
    (
        "simtrace",
        &["--restart", "5", "--crash", "1,10"],
        "precedes the crash",
    ),
    (
        "simreport",
        &["run", "--interval-us", "0"],
        "bad --interval-us 0",
    ),
    (
        "simtrace",
        &["--metrics", "--interval-us", "0"],
        "bad --interval-us 0",
    ),
    ("simfault", &["--seeds", "abc"], "bad --seeds abc"),
    ("simkv", &["--seeds", "x"], "bad --seeds x"),
    ("simkv", &["--report"], "--report needs a value"),
    ("simkv", &["--requests", "0"], "bad --requests 0"),
    (
        "simtrace",
        &["--out", "no-such-dir/trace.json"],
        "write no-such-dir/trace.json",
    ),
    ("simtrace", &["--crash", "9,100"], "out of range"),
    ("simtrace", &["--crash", "1"], "want NODE,AT_US"),
    ("simtrace", &["--switch-out", "1,500,100"], "is empty"),
    (
        "simtrace",
        &["--nodes", "2", "--switch-out", "1,10,20"],
        "at least 3 nodes",
    ),
    (
        "simreport",
        &["gate", "--current", "x"],
        "gate needs --baseline",
    ),
    ("simreport", &["frobnicate"], "unknown subcommand"),
];

fn exe(bin: &str) -> &'static str {
    match bin {
        "simtrace" => env!("CARGO_BIN_EXE_simtrace"),
        "simreport" => env!("CARGO_BIN_EXE_simreport"),
        "simfault" => env!("CARGO_BIN_EXE_simfault"),
        "simkv" => env!("CARGO_BIN_EXE_simkv"),
        other => unreachable!("no binary {other}"),
    }
}

#[test]
fn bad_input_exits_1_with_a_message_and_never_panics() {
    for &(bin, argv, want) in BAD {
        let out = Command::new(exe(bin))
            .args(argv)
            .current_dir(env!("CARGO_TARGET_TMPDIR"))
            .output()
            .expect("spawn binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let line = format!("{bin} {}", argv.join(" "));
        assert_eq!(out.status.code(), Some(1), "{line}: {stderr}");
        assert!(stderr.starts_with(&format!("{bin}: ")), "{line}: {stderr}");
        assert!(!stderr.contains("panicked"), "{line}: {stderr}");
        assert!(stderr.contains(want), "{line}: {stderr} lacks {want:?}");
    }
}

fn gate(baseline: &Path, current: &Path) -> Output {
    Command::new(exe("simreport"))
        .arg("gate")
        .arg("--baseline")
        .arg(baseline)
        .arg("--current")
        .arg(current)
        .output()
        .expect("spawn simreport")
}

#[test]
fn gate_passes_the_bench_baseline_and_fires_on_a_one_event_change() {
    let baseline = Path::new(env!("CARGO_MANIFEST_DIR")).join("baselines/report_bench.json");
    let out = gate(&baseline, &baseline);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let doc = Json::parse(&std::fs::read_to_string(&baseline).unwrap()).unwrap();
    let metrics = doc.get("metrics").expect("metrics section");
    let events = metrics
        .get("stencil_16.events")
        .and_then(Json::as_num)
        .expect("stencil_16.events");
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    for delta in [1.0, -1.0] {
        let mut moved = metrics.clone();
        moved.set("stencil_16.events", Json::Num(events + delta));
        let mut current = doc.clone();
        current.set("metrics", moved);
        let path = tmp.join(format!("report_bench_{delta:+}.json"));
        std::fs::write(&path, current.to_string_pretty()).unwrap();
        let out = gate(&baseline, &path);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{delta:+}: {stderr}");
        assert!(stderr.contains("stencil_16.events"), "{delta:+}: {stderr}");
    }

    // A report of any other schema is refused, not gated.
    let mut other = doc.clone();
    other.set("schema", Json::Str("tg-report-v1".to_string()));
    let path = tmp.join("report_bench_v1.json");
    std::fs::write(&path, other.to_string_pretty()).unwrap();
    let out = gate(&baseline, &path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("unsupported report schema"), "{stderr}");
}
