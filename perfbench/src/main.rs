//! `perfbench`: the repository benchmark of the HeteroOS simulator.
//!
//! ```text
//! perfbench --workload <heap-churn|io-writes|cluster-1k> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! is a separate traced run that reports the per-layer metrics. Both check
//! the simulator's outputs. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. See README.md.

mod bench;
mod cluster;
mod host;
#[cfg(test)]
mod json;
mod metrics;
mod replay;
mod single;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use bench::Workload;
use metrics::{END_TO_END, PER_LAYER};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["heap-churn", "io-writes", "cluster-1k"];

#[derive(Debug, PartialEq, Eq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: '{value}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                })
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=3600).contains(&seconds) {
        return Err("--seconds must be between 1 and 3600".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn workload(name: &str, seed: u64) -> Box<dyn Workload> {
    match name {
        "heap-churn" => Box::new(single::heap_churn(seed)),
        "io-writes" => Box::new(single::io_writes(seed)),
        _ => Box::new(cluster::cluster_1k(seed)),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} host_threads={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::parallelism()
    );
    let w = workload(&args.workload, args.seed);
    let (outcome, defs) = if args.trace {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}.jsonl", args.workload));
        (
            bench::run_traced(w.as_ref(), args.seconds, &path),
            PER_LAYER,
        )
    } else {
        (bench::run_untraced(w.as_ref(), args.seconds), END_TO_END)
    };
    print!("{}", outcome.render(defs));
    println!("{}", outcome.result_line(defs));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};
    use crate::metrics::{Def, Outcome};

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&args(
            "--workload io-writes --seed 9 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "io-writes".into(),
                seed: 9,
                seconds: 12,
                trace: true
            }
        );
        for bad in [
            "--workload nope --seed 1",
            "--workload heap-churn",
            "--workload heap-churn --seed x",
            "--workload heap-churn --seed 1 --trace 2",
            "--workload heap-churn --seed 1 --seconds 0",
            "--workload heap-churn --seed 1 --bogus 1",
            "--workload heap-churn --seed",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("name and unit")
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn catalogue(defs: &[Def]) -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_names_the_same_metrics_and_workloads() {
        let doc = benchmark_json();
        assert_eq!(declared(&doc, "end_to_end"), catalogue(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), catalogue(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        assert!(names.iter().all(|n| stats::valid_name(n)));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn result_line_parses_and_names_every_metric() {
        for defs in [END_TO_END, PER_LAYER] {
            let mut o = Outcome {
                attempted: 3,
                ..Outcome::default()
            };
            o.set(defs[0].name, 1.25e-7);
            o.set(defs[1].name, f64::NAN);
            let line = o.result_line(defs);
            let doc = parse(&line).expect("result line is JSON");
            assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(3.0));
            assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(0.0));
            let m = doc
                .get("metrics")
                .and_then(Json::as_object)
                .expect("metrics");
            let keys: Vec<&str> = m.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, defs.iter().map(|d| d.name).collect::<Vec<_>>());
            let first = m[0].1.get("value").and_then(Json::as_f64);
            assert_eq!(first, Some(1.25e-7));
            let second = m[1].1.get("value").and_then(Json::as_f64);
            assert_eq!(second, Some(0.0));
            for (d, (_, v)) in defs.iter().zip(m) {
                assert_eq!(v.get("unit").and_then(Json::as_str), Some(d.unit));
            }
        }
    }
}
