//! Shared helpers for the experiment harnesses and Criterion benches.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md §3 for the index) and prints the same rows/series the
//! paper reports, in plain text and TSV. Binaries accept `--quick` to run
//! on smaller synthetic instances for smoke-testing.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod diff;
pub mod kernels;

use cumf_datasets::{MfDataset, SizeClass};
use cumf_telemetry::{
    render_summary, summarize_events, write_chrome_trace, write_jsonl, MemoryRecorder, Recorder,
    NOOP,
};

/// Parsed common CLI flags for harness binaries.
#[derive(Clone, Debug)]
pub struct HarnessArgs {
    /// Run on Tiny instances with fewer epochs (CI smoke mode).
    pub quick: bool,
    /// RNG seed.
    pub seed: u64,
    /// Write a Chrome trace-event JSON file here (`--trace PATH`).
    pub trace: Option<String>,
    /// Write a JSONL metrics stream here (`--metrics PATH`).
    pub metrics: Option<String>,
    /// Print the nvprof-style per-kernel summary table (`--profile`).
    pub profile: bool,
}

impl HarnessArgs {
    /// Parse from `std::env::args`: `--quick`, `--seed N`, `--trace PATH`,
    /// `--metrics PATH` and `--profile` are accepted; anything else is
    /// warned about and dropped.
    pub fn parse() -> HarnessArgs {
        let (args, extras) = Self::parse_with_extras();
        for e in extras {
            if e == "--help" || e == "-h" {
                eprintln!("flags: {}", Self::common_usage());
                std::process::exit(0);
            }
            eprintln!("ignoring unknown flag {e}");
        }
        args
    }

    /// Like [`HarnessArgs::parse`], but hands unrecognized tokens back to
    /// the caller (in order) instead of warning — for binaries that layer
    /// their own flags on top of the common set.
    pub fn parse_with_extras() -> (HarnessArgs, Vec<String>) {
        Self::parse_from(std::env::args().skip(1))
    }

    /// The testable core of argument parsing: consumes an explicit token
    /// stream (no `--help` handling, which only makes sense on a real
    /// command line — `--help` lands in the extras).
    pub fn parse_from(tokens: impl IntoIterator<Item = String>) -> (HarnessArgs, Vec<String>) {
        let mut args = HarnessArgs {
            quick: false,
            seed: 42,
            trace: None,
            metrics: None,
            profile: false,
        };
        let mut extras = Vec::new();
        let mut it = tokens.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => args.quick = true,
                "--seed" => {
                    args.seed = it.next().and_then(|s| s.parse().ok()).unwrap_or(42);
                }
                "--trace" => args.trace = it.next(),
                "--metrics" => args.metrics = it.next(),
                "--profile" => args.profile = true,
                _ => extras.push(a),
            }
        }
        (args, extras)
    }

    /// The usage line for the common flags, for binaries composing their
    /// own `--help` output.
    pub fn common_usage() -> &'static str {
        "--quick (tiny instances), --seed N, --trace PATH (Chrome trace \
         JSON), --metrics PATH (JSONL), --profile (per-kernel summary table)"
    }

    /// Whether any telemetry output was requested.
    pub fn telemetry_requested(&self) -> bool {
        self.trace.is_some() || self.metrics.is_some() || self.profile
    }

    /// The dataset size class this run uses.
    pub fn size(&self) -> SizeClass {
        if self.quick {
            SizeClass::Tiny
        } else {
            SizeClass::Default
        }
    }

    /// Epoch budget scaling for quick mode.
    pub fn epochs(&self, full: u32) -> u32 {
        if self.quick {
            full.min(5)
        } else {
            full
        }
    }

    /// The three benchmark datasets at this run's size.
    pub fn datasets(&self) -> Vec<MfDataset> {
        vec![
            MfDataset::netflix(self.size(), self.seed),
            MfDataset::yahoo_music(self.size(), self.seed),
            MfDataset::hugewiki(self.size(), self.seed),
        ]
    }
}

/// Telemetry plumbing shared by all harness binaries: holds a
/// [`MemoryRecorder`] when any of `--trace` / `--metrics` / `--profile` was
/// passed (a no-op recorder otherwise), and flushes the requested exporters
/// at the end of the run.
pub struct TelemetrySink {
    recorder: Option<MemoryRecorder>,
    trace: Option<String>,
    metrics: Option<String>,
    profile: bool,
}

impl TelemetrySink {
    /// Build from parsed flags. The recorder only exists (and instrumented
    /// code only pays for event construction) when telemetry was requested.
    pub fn from_args(args: &HarnessArgs) -> TelemetrySink {
        TelemetrySink {
            recorder: args.telemetry_requested().then(MemoryRecorder::new),
            trace: args.trace.clone(),
            metrics: args.metrics.clone(),
            profile: args.profile,
        }
    }

    /// The recorder to hand to trainers ([`NOOP`] when telemetry is off).
    pub fn recorder(&self) -> &dyn Recorder {
        match &self.recorder {
            Some(m) => m,
            None => &NOOP,
        }
    }

    /// Whether events are being collected.
    pub fn enabled(&self) -> bool {
        self.recorder.is_some()
    }

    /// Write the requested trace/metrics files and print the `--profile`
    /// summary. Call once, after the workload.
    pub fn finish(&self) -> std::io::Result<()> {
        let Some(m) = &self.recorder else {
            return Ok(());
        };
        let events = m.events();
        if let Some(path) = &self.trace {
            write_chrome_trace(path, &events)?;
            eprintln!("wrote Chrome trace ({} events) to {path}", events.len());
        }
        if let Some(path) = &self.metrics {
            write_jsonl(path, &events)?;
            eprintln!("wrote JSONL metrics ({} events) to {path}", events.len());
        }
        if self.profile {
            println!("{}", render_summary(&summarize_events(&events)));
        }
        Ok(())
    }
}

/// Format seconds compactly for table output.
pub fn fmt_s(t: f64) -> String {
    if t >= 100.0 {
        format!("{t:.0}")
    } else if t >= 10.0 {
        format!("{t:.1}")
    } else {
        format!("{t:.2}")
    }
}

/// Print a rule line matching a header's width.
pub fn rule(width: usize) -> String {
    "-".repeat(width)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_scales_precision() {
        assert_eq!(fmt_s(345.6), "346");
        assert_eq!(fmt_s(23.45), "23.4");
        assert_eq!(fmt_s(3.456), "3.46");
    }

    fn args(quick: bool) -> HarnessArgs {
        HarnessArgs {
            quick,
            seed: 1,
            trace: None,
            metrics: None,
            profile: false,
        }
    }

    #[test]
    fn parse_from_splits_known_and_extra_flags() {
        let tokens = ["--quick", "--qps", "500", "--seed", "7", "--open-loop"]
            .into_iter()
            .map(String::from);
        let (args, extras) = HarnessArgs::parse_from(tokens);
        assert!(args.quick);
        assert_eq!(args.seed, 7);
        assert_eq!(extras, vec!["--qps", "500", "--open-loop"]);
    }

    #[test]
    fn quick_mode_uses_tiny() {
        let a = args(true);
        assert_eq!(a.size(), SizeClass::Tiny);
        assert_eq!(a.epochs(30), 5);
        let b = args(false);
        assert_eq!(b.size(), SizeClass::Default);
        assert_eq!(b.epochs(30), 30);
    }

    #[test]
    fn sink_is_noop_unless_requested() {
        let off = TelemetrySink::from_args(&args(true));
        assert!(!off.enabled());
        assert!(!off.recorder().enabled());
        off.finish().unwrap();

        let mut a = args(true);
        a.profile = true;
        let on = TelemetrySink::from_args(&a);
        assert!(on.enabled());
        assert!(on.recorder().enabled());
    }
}
