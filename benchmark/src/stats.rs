//! The harness's own arithmetic: order statistics, the METG-50
//! interpolation, and the name rule `BENCHMARK.json` imposes.

/// Quartiles of a sample set, computed like Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) so the
/// spread the harness prints is the spread the driver computes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// Inter-quartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

/// `None` for an empty sample set; a single sample is its own quartiles.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len();
    if m < 2 {
        return s.first().map(|&v| Summary {
            n: m,
            min: v,
            q1: v,
            median: v,
            q3: v,
        });
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some(Summary {
        n: m,
        min: s[0],
        q1: cut(1),
        median: cut(2),
        q3: cut(3),
    })
}

/// Median of a sample set (0 when empty, so an unmeasured layer reads 0).
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).map_or(0.0, |s| s.median)
}

/// Fastest of a set of timings (0 when empty). On a shared host
/// interference only ever adds time, and it comes in bursts longer than a
/// run, so the floor of a run's repetitions repeats from run to run where
/// their median does not (README.md has the measurements).
pub fn fastest(samples: &[f64]) -> f64 {
    summarize(samples).map_or(0.0, |s| s.min)
}

/// The `p`-quantile (nearest rank) of `samples`, or `None` when fewer than
/// ten samples lie beyond it — a tail percentile resting on a handful of
/// points is noise, so the harness refuses to print it.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    let rank = (p * n as f64).ceil() as usize;
    if rank == 0 || n < rank + 10 {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Some(s[rank - 1])
}

/// Task Bench's METG(50 %): the task granularity at which efficiency
/// crosses one half, interpolated linearly in (log granularity,
/// efficiency) between the two sweep points that bracket the crossing.
/// `points` are `(granularity, efficiency)` pairs in any order. When every
/// point is at least 50 % efficient the smallest granularity is an upper
/// bound and is returned; when none is, there is no answer.
pub fn metg50(points: &[(f64, f64)]) -> Option<f64> {
    let mut pts = points.to_vec();
    pts.sort_by(|a, b| a.0.total_cmp(&b.0));
    let first_ok = pts.iter().position(|&(_, eff)| eff >= 0.5)?;
    if first_ok == 0 {
        return Some(pts[0].0);
    }
    let (g0, e0) = pts[first_ok - 1];
    let (g1, e1) = pts[first_ok];
    let t = (0.5 - e0) / (e1 - e0);
    Some((g0.ln() + t * (g1.ln() - g0.ln())).exp())
}

/// The rule `BENCHMARK.json` puts on metric and workload names: starts
/// with a letter or digit, at most 64 of `[A-Za-z0-9_.-]`. The names are
/// compile-time tables, so the rule is enforced by the unit tests.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.n, s.q1, s.median, s.q3), (10, 2.75, 5.5, 8.25));
        assert_eq!(s.min, 1.0);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_sample_sets() {
        assert_eq!(summarize(&[]), None);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(fastest(&[]), 0.0);
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
        let s = summarize(&[7.0]).unwrap();
        assert_eq!((s.n, s.min, s.q1, s.median, s.q3), (1, 7.0, 7.0, 7.0, 7.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.99), Some(990.0));
        assert_eq!(tail_percentile(&v[..999], 0.99), None);
        assert_eq!(tail_percentile(&v[..20], 0.5), Some(10.0));
        assert_eq!(tail_percentile(&v[..19], 0.5), None);
    }

    #[test]
    fn metg50_interpolates_on_a_synthetic_curve() {
        // efficiency = g / (g + 10): crosses one half exactly at g = 10.
        let curve = |g: f64| (g, g / (g + 10.0));
        let got = metg50(&[curve(80.0), curve(5.0), curve(20.0), curve(1.0)]).unwrap();
        // bracketed by g = 5 (eff 1/3) and g = 20 (eff 2/3): the log-linear
        // interpolant lands on the geometric mean of the bracket.
        assert!((got - 10.0).abs() < 1e-9, "{got}");
        // every point efficient: the smallest granularity bounds it
        assert_eq!(metg50(&[(4.0, 0.9), (2.0, 0.6)]), Some(2.0));
        // no point efficient: no answer
        assert_eq!(metg50(&[(4.0, 0.4), (2.0, 0.1)]), None);
    }

    #[test]
    fn name_rule() {
        for good in ["run_s", "core.tile.kernel_only_s", "9lives", "a-b"] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".hidden", "_x", "has space", "µs", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
    }
}
