//! `perfbench`: one workload per process, one JSON result line on stdout.
//!
//! ```text
//! perfbench --workload serve-hot --seed 1 --seconds 10 --trace 0 [--out DIR]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload with spans kept in memory and prints the per-layer metrics,
//! writing the spans as a Chrome trace under `--out`. Human-readable
//! detail goes to stderr. The exit code is 1 when a correctness check
//! fails, 2 on bad arguments. `perfbench/run.py` builds and drives this.

mod ladder;
mod report;
mod serve;
mod stats;
mod traffic;
mod train;

use report::Workload;
use std::sync::OnceLock;
use std::time::Instant;

static OUT_DIR: OnceLock<String> = OnceLock::new();

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, not {v}")),
                })
            }
            "--out" => {
                let _ = OUT_DIR.set(value()?);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        traced: traced.unwrap_or(false),
    })
}

/// Write a traced run's spans as a Chrome trace `<stem>-seed<seed>`
/// under `--out`.
fn write_trace(stem: &str, seed: u64, events: &[cumf_telemetry::Event]) {
    let Some(dir) = OUT_DIR.get() else { return };
    let path = format!("{dir}/{stem}-seed{seed}.trace.json");
    match std::fs::create_dir_all(dir)
        .and_then(|()| cumf_telemetry::write_chrome_trace(&path, events))
    {
        Ok(()) => eprintln!("wrote {} spans to {path}", events.len()),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn main() {
    let process = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "perfbench {} seed {} ({} s, trace {}), {} CPUs available",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.traced),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let (_, steal0, total0) = report::cpu_ticks();
    let factors = serve::Factors::seeded(args.seed);
    let (s, t) = (args.seconds, args.traced);
    let outcome = match args.workload {
        Workload::ServeHot => serve::run(&serve::SERVE_HOT, factors, s, t, process),
        Workload::ServeScan => serve::run(&serve::SERVE_SCAN, factors, s, t, process),
        Workload::ServePublish => serve::run(&serve::SERVE_PUBLISH, factors, s, t, process),
        Workload::TrainAls => train::run(args.seed, t, process),
    };
    let (_, steal1, total1) = report::cpu_ticks();
    eprintln!(
        "host: {:.1}% of this VM's CPU time was stolen during the run",
        100.0 * (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64
    );
    println!("{}", outcome.to_json(args.workload, args.traced));
    if !outcome.correct() {
        for f in &outcome.failures {
            eprintln!("FAILED: {f}");
        }
        std::process::exit(1);
    }
}
