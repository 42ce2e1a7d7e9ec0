//! odq-perfbench — the repository benchmark.
//!
//! ```sh
//! cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <offline_resnet20|net_mixed|net_churn> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Prints every metric of the mode by name with its unit and, as the last
//! line, one JSON object `{correct, attempted, failed, metrics}`. Exits
//! non-zero when an output check or a client/ledger reconciliation fails.
//! See `perfbench/README.md` for the workloads and metric definitions.

mod netload;
mod offline;
mod report;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::Instant;

use report::Outcome;
use spans::Tracer;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--workload" => a.workload = val,
            "--seed" => a.seed = val.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = val == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// First line of a command's stdout, or `"unknown"`.
fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn print_host(a: &Args) {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // Only ask git inside a checkout of its own, never a parent's.
    let commit = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown (not a git checkout)".into()
    };
    println!(
        "odq-perfbench: workload={} seed={} seconds={} trace={}",
        a.workload, a.seed, a.seconds, a.trace as u8
    );
    println!(
        "command: cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
         --workload {} --seed {} --seconds {} --trace {}",
        a.workload, a.seed, a.seconds, a.trace as u8
    );
    println!(
        "host: nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\"",
        command_line("rustc", &["--version"])
    );
    println!("commit: {commit}");
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("odq-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    print_host(&a);
    let tracer = a.trace.then(|| Arc::new(Tracer::new(Instant::now())));
    let mut out = Outcome::new();
    match a.workload.as_str() {
        "offline_resnet20" => offline::run(a.seed, a.seconds, tracer.clone(), &mut out),
        "net_mixed" => netload::run(a.seed, a.seconds, false, tracer.clone(), &mut out),
        "net_churn" => netload::run(a.seed, a.seconds, true, tracer.clone(), &mut out),
        other => {
            eprintln!("odq-perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    }
    out.set("peak_rss_mb", stats::peak_rss_mb());

    if let Some(tr) = &tracer {
        let units = out.attempted.max(1) as f64;
        println!("\n== self time per unit of work ({} spans) ==", tr.len());
        for (layer, total) in tr.self_ms() {
            println!("{layer:<16} {:>12.6} ms", total / units);
            out.set(format!("self_ms.{layer}"), total / units);
        }
        let path =
            PathBuf::from("perfbench/out").join(format!("spans-{}-{}.jsonl", a.workload, a.seed));
        match tr.write(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => out.fail(format!("writing {}: {e}", path.display())),
        }
    }
    out.failed = out.failed.min(out.attempted);
    if report::print(&mut out, a.trace) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
