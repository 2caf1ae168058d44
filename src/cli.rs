//! Command-line handling shared by the suite binaries.
//!
//! Every binary reads its arguments through one [`Args`] cursor, so a
//! missing or unparsable value is reported the same way everywhere, and
//! every bad input ends in [`fail`] — a `"<bin>: <reason>"` line on
//! stderr and exit code 1 — never in a panic. Harness options read from
//! a command line are checked by
//! [`HarnessOptions::validate`](crate::harness::HarnessOptions::validate).

use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;

/// A cursor over a binary's arguments (without `argv[0]`).
#[derive(Debug)]
pub struct Args {
    rest: std::vec::IntoIter<String>,
}

impl Args {
    /// A cursor over `args`.
    pub fn new(args: impl IntoIterator<Item = String>) -> Self {
        let args: Vec<String> = args.into_iter().collect();
        Args {
            rest: args.into_iter(),
        }
    }

    /// A cursor over this process's arguments.
    pub fn from_env() -> Self {
        Args::new(std::env::args().skip(1))
    }

    /// Reads the value following `flag`.
    pub fn value<T: FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let v = self.rest.next().ok_or(format!("{flag} needs a value"))?;
        v.parse().map_err(|_| format!("bad {flag} {v}"))
    }

    /// Reads the value following `flag` as the comma-separated fields
    /// that `shape` names (`"NODE,AT_US"` has two); parse them in order
    /// with [`Fields::field`].
    pub fn tuple(&mut self, flag: &str, shape: &'static str) -> Result<Fields, String> {
        let text = self.rest.next().ok_or(format!("{flag} needs {shape}"))?;
        let fields = Fields {
            bad: format!("bad {flag} {text} (want {shape})"),
            text,
            at: 0,
        };
        if fields.text.split(',').count() != shape.split(',').count() {
            return Err(fields.bad);
        }
        Ok(fields)
    }
}

impl Iterator for Args {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.rest.next()
    }
}

/// The fields of one comma-tuple value, read by [`Args::tuple`].
#[derive(Debug)]
pub struct Fields {
    text: String,
    bad: String,
    at: usize,
}

impl Fields {
    /// Parses the next field.
    pub fn field<T: FromStr>(&mut self) -> Result<T, String> {
        let field = self.text.split(',').nth(self.at);
        self.at += 1;
        field
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| self.bad.clone())
    }
}

/// Reports `err` as `"{bin}: {err}"` on stderr and returns exit code 1.
pub fn fail(bin: &str, err: impl Display) -> ExitCode {
    eprintln!("{bin}: {err}");
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::num::NonZeroU64;

    fn args(argv: &[&str]) -> Args {
        Args::new(argv.iter().map(|a| a.to_string()))
    }

    #[test]
    fn values_parse_in_order() {
        let mut a = args(&["--nodes", "16", "--out", "t.json", "--drop", "0.25"]);
        assert_eq!(a.next().as_deref(), Some("--nodes"));
        assert_eq!(a.value::<u16>("--nodes"), Ok(16));
        assert_eq!(a.next().as_deref(), Some("--out"));
        assert_eq!(a.value::<String>("--out").as_deref(), Ok("t.json"));
        assert_eq!(a.next().as_deref(), Some("--drop"));
        assert_eq!(a.value::<f64>("--drop"), Ok(0.25));
        assert_eq!(a.next(), None);
    }

    #[test]
    fn missing_value_names_the_flag() {
        let mut a = args(&[]);
        assert_eq!(
            a.value::<u64>("--seeds"),
            Err("--seeds needs a value".to_string())
        );
        assert_eq!(
            a.tuple("--crash", "NODE,AT_US").map(|_| ()),
            Err("--crash needs NODE,AT_US".to_string())
        );
    }

    #[test]
    fn bad_value_names_the_flag_and_the_value() {
        for (flag, v) in [("--seeds", "abc"), ("--nodes", "-1"), ("--nodes", "70000")] {
            let mut a = args(&[v]);
            assert_eq!(a.value::<u16>(flag), Err(format!("bad {flag} {v}")));
        }
        let mut a = args(&["0"]);
        assert_eq!(
            a.value::<NonZeroU64>("--interval-us"),
            Err("bad --interval-us 0".to_string())
        );
    }

    #[test]
    fn tuple_reads_typed_fields() {
        let mut a = args(&["1,150", "2,100,100000"]);
        let mut f = a.tuple("--crash", "NODE,AT_US").unwrap();
        assert_eq!((f.field::<u16>(), f.field::<u64>()), (Ok(1), Ok(150)));
        let mut f = a.tuple("--switch-out", "SWITCH,FROM_US,UNTIL_US").unwrap();
        assert_eq!(
            (f.field::<u16>(), f.field::<u64>(), f.field::<u64>()),
            (Ok(2), Ok(100), Ok(100_000))
        );
    }

    #[test]
    fn tuple_rejects_wrong_arity_and_bad_fields() {
        let want = |v: &str| Err(format!("bad --crash {v} (want NODE,AT_US)"));
        for v in ["1", "1,2,3", "", "1,"] {
            let mut a = args(&[v]);
            let got = a.tuple("--crash", "NODE,AT_US").and_then(|mut f| {
                f.field::<u16>()?;
                f.field::<u64>()
            });
            assert_eq!(got, want(v), "{v:?}");
        }
        for v in ["x,150", "1,-5", "70000,1"] {
            let mut f = args(&[v]).tuple("--crash", "NODE,AT_US").unwrap();
            let got = f.field::<u16>().and_then(|_| f.field::<u64>());
            assert_eq!(got, want(v), "{v:?}");
        }
    }
}
