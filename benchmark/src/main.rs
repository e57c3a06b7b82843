//! The repo's benchmark: four served workloads, end-to-end metrics measured
//! over HTTP with tracing off, and per-layer metrics from a traced run that
//! records its own spans from outside the program. See `README.md`.
//!
//! ```text
//! uo_benchmark run --workload <name> --seed <u64> [--seconds <n>] [--trace 0|1]
//! uo_benchmark run --seed <u64>          # every workload, each in a fresh process
//! uo_benchmark run --check               # every workload at tiny scale, asserting
//! ```
//!
//! The endpoint under test runs in a child process of this binary
//! (`uo_benchmark serve …`, started and stopped by `run`).
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod client;
mod layers;
mod run;
mod spans;
mod spec;
mod stats;
mod workloads;

use run::{Options, Outcome};
use spec::{MetricSpec, Spec};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workloads::{Scale, Workload};

/// The window of one `--check` run, in seconds. `durable_rw` gets twice
/// that: an fsynced update takes about 4 ms and p95 needs 200 of them.
const CHECK_SECONDS: f64 = 0.5;

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Prints the attribution header, every metric of `specs` by name with its
/// unit, sample count and bound, the exact counts, and the result line.
/// Fails when the run did not produce exactly the metrics `specs` lists.
fn report(outcome: &Outcome, specs: &[MetricSpec]) -> Result<String, String> {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "# commit={} rustc=\"{}\" nproc={nproc}",
        tool_line("git", &["rev-parse", "--short", "HEAD"]),
        tool_line("rustc", &["--version"]),
    );
    let facts: Vec<String> = outcome.facts.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("# {}", facts.join(" "));
    let mut fields = Vec::with_capacity(specs.len());
    for m in specs {
        let v = outcome
            .metrics
            .get(m.name.as_str())
            .ok_or_else(|| format!("metric {} was not measured", m.name))?;
        if !v.value.is_finite() {
            return Err(format!("metric {} is {}", m.name, v.value));
        }
        let bound = m.bound.map_or_else(String::new, |b| format!(" bound={b}"));
        println!("metric {} = {} {} n={} better={}{bound}", m.name, v.value, m.unit, v.n, m.better);
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            uo_json::escape(&m.name),
            uo_json::num(v.value),
            uo_json::escape(&m.unit)
        ));
    }
    if let Some(extra) = outcome.metrics.keys().find(|k| !specs.iter().any(|m| m.name == **k)) {
        return Err(format!("metric {extra} is measured but not in BENCHMARK.json"));
    }
    for (name, value) in &outcome.exact {
        println!("count {name} = {value} exact=true");
    }
    println!("ops attempted={} failed={}", outcome.attempted, outcome.failed);
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    ))
}

fn run_one(spec: &Spec, opts: &Options) -> Result<Outcome, String> {
    let outcome = run::run(opts)?;
    let specs = if opts.trace { &spec.per_layer } else { &spec.end_to_end };
    println!("{}", report(&outcome, specs)?);
    Ok(outcome)
}

/// `--check`: the four workloads at tiny scale, untraced then traced. Every
/// reply is hash-verified by the run itself; this adds that nothing failed.
fn check(spec: &Spec, out_dir: PathBuf, seed: u64) -> Result<(), String> {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let opts = Options {
                workload,
                seed,
                seconds: if workload == Workload::DurableRw { 2.0 } else { 1.0 } * CHECK_SECONDS,
                trace,
                tiny: true,
                scale: Scale::tiny(seed),
                out_dir: out_dir.clone(),
            };
            let outcome = run_one(spec, &opts)?;
            if outcome.failed > 0 {
                return Err(format!("{}: {} operations failed", workload.name(), outcome.failed));
            }
        }
    }
    println!("check ok");
    Ok(())
}

/// Every workload, each in a fresh process of this binary, so none inherits
/// another's caches or peak memory.
fn all_workloads(spec: &Spec, args: &[String]) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    for name in &spec.workloads {
        let status = Command::new(&exe)
            .args(args)
            .args(["--workload", name])
            .status()
            .map_err(|e| format!("spawn {name}: {e}"))?;
        if !status.success() {
            return Err(format!("{name} exited with {status}"));
        }
    }
    Ok(())
}

/// `serve`: what [`run::ServerProcess`] starts (not for use by hand).
fn serve(args: &[String]) -> Result<(), String> {
    let workload = flag(args, "--workload").and_then(Workload::parse).ok_or("serve: --workload")?;
    let seed: u64 = flag(args, "--seed").and_then(|s| s.parse().ok()).ok_or("serve: --seed")?;
    let tiny = args.iter().any(|a| a == "--tiny");
    let opts = Options {
        workload,
        seed,
        seconds: 0.0,
        trace: false,
        tiny,
        scale: if tiny { Scale::tiny(seed) } else { Scale::full(seed) },
        out_dir: PathBuf::new(),
    };
    run::serve(&opts, flag(args, "--dir").map(std::path::Path::new))
}

fn main_inner() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        return serve(&args);
    }
    if args.first().map(String::as_str) != Some("run") {
        return Err("usage: uo_benchmark run [--workload <name>] [--seed <u64>] \
                    [--seconds <n>] [--trace 0|1] [--check]"
            .to_string());
    }
    let spec = Spec::load();
    let number = |name: &str, default: f64| -> Result<f64, String> {
        flag(&args, name)
            .map_or(Ok(default), |v| v.parse().map_err(|_| format!("{name} {v}: not a number")))
    };
    let seed = flag(&args, "--seed")
        .map_or(Ok(1), str::parse::<u64>)
        .map_err(|e| format!("--seed: {e}"))?;
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    if args.iter().any(|a| a == "--check") {
        return check(&spec, out_dir, seed);
    }
    let Some(name) = flag(&args, "--workload") else {
        return all_workloads(&spec, &args);
    };
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let opts = Options {
        workload,
        seed,
        seconds: number("--seconds", spec.run_seconds)?,
        trace: number("--trace", 0.0)? != 0.0,
        tiny: false,
        scale: Scale::full(seed),
        out_dir,
    };
    run_one(&spec, &opts).map(|_| ())
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("uo_benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
