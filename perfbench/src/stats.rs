//! Order statistics and window selection shared by every workload.

/// Median of `values` (mean of the two middle values for an even count);
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Nearest-rank quantile `q ∈ [0, 1]` of an ascending slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A tail percentile that the sample can support.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.0`.
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly beyond it.
    pub beyond: usize,
}

/// The highest of p50/p90/p99/p99.9/p99.99 that has at least ten samples
/// beyond it, with that count. `None` when fewer than 20 samples exist.
pub fn supported_tail(values: &[f64]) -> Option<Tail> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    [99.99, 99.9, 99.0, 90.0, 50.0].iter().find_map(|&pct| {
        // Nearest rank, guarded against `0.999 * 10000 = 9990.000…1`.
        let rank = ((pct / 100.0) * n as f64 - 1e-9).ceil() as usize;
        let beyond = n.saturating_sub(rank);
        (rank >= 1 && beyond >= 10).then(|| Tail {
            pct,
            value: v[rank - 1],
            beyond,
        })
    })
}

/// One served micro-batch as the load generator saw it: when the worker
/// closed it, when the engine finished it, and how many requests it held.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatchStamp {
    pub admitted: f64,
    pub finished: f64,
    pub size: usize,
}

/// Closed-loop throughput over the steady part of a saturation phase.
///
/// The first `warmup` share of `[start, stop)` is ramp-up (the window is
/// still filling and the cache is cold); everything that finishes after
/// `stop` — when the generator stopped refilling the window — is the
/// drain. The steady batches are those admitted after the ramp and
/// finished by `stop`; throughput is their requests over the span from
/// the first one's admission to the last one's completion, so idle gaps
/// between batches count against it. Returns `(requests, seconds)`.
pub fn steady_window(batches: &[BatchStamp], start: f64, stop: f64, warmup: f64) -> (usize, f64) {
    let from = start + warmup * (stop - start);
    let steady: Vec<&BatchStamp> = batches
        .iter()
        .filter(|b| b.admitted >= from && b.finished <= stop)
        .collect();
    let requests = steady.iter().map(|b| b.size).sum();
    let first = steady
        .iter()
        .map(|b| b.admitted)
        .fold(f64::INFINITY, f64::min);
    let last = steady
        .iter()
        .map(|b| b.finished)
        .fold(f64::NEG_INFINITY, f64::max);
    (requests, (last - first).max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn supported_tail_needs_ten_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = supported_tail(&v).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (99.0, 990.0, 10));

        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        let t = supported_tail(&v).unwrap();
        assert_eq!((t.pct, t.beyond), (99.9, 10));

        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        let t = supported_tail(&v).unwrap();
        assert_eq!(t.pct, 90.0, "p99 of 999 samples has only 9 beyond it");
        assert!(t.beyond >= 10);

        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(supported_tail(&v), None);
    }

    #[test]
    fn steady_window_drops_ramp_and_drain() {
        let b = |admitted: f64, finished: f64, size: usize| BatchStamp {
            admitted,
            finished,
            size,
        };
        let batches = [
            b(0.0, 0.5, 4),  // ramp: admitted before 10% of [0, 10)
            b(1.0, 2.0, 8),  // steady
            b(2.0, 3.0, 8),  // steady
            b(3.5, 4.5, 8),  // steady, after an idle gap
            b(9.5, 10.5, 8), // drain: finishes after the stop
        ];
        let (n, secs) = steady_window(&batches, 0.0, 10.0, 0.1);
        assert_eq!(n, 24);
        assert!((secs - 3.5).abs() < 1e-12, "span includes the idle gap");
        assert_eq!(steady_window(&batches, 0.0, 0.1, 0.1), (0, 0.0));
    }
}
