//! Every bad command line ends in a `"<bin>: <reason>"` message and exit
//! code 1 — never a panic (exit code 101), and never a run that silently
//! ignores what was asked for.

use std::process::Command;

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
    ("simreport", &["gate", "--tol", "x"], "bad --tol x"),
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
