//! Bench regression baselines: the one `--baseline` / `--check` file
//! format, a config identity plus flat named scalars.
//!
//! `stencil-doctor --baseline` and `stencil-whatif --baseline` write a
//! [`Baseline`] to a committed JSON file; `--check` re-runs the same
//! deterministic simulated configuration and diffs against it. The caller
//! names a [`Band`] per key. Deviations outside it — in *either*
//! direction, so silent improvements get re-baselined instead of
//! rotting — fail the check, as does any key present on one side only.
//! Counters (messages, bytes, redundant flops) are [`Band::Exact`]: the
//! simulated executor is deterministic and `analyze` predicts them
//! statically, so any drift is a real behavior change.

use serde::{Number, Value};
use std::collections::BTreeMap;

/// A committed set of named scalars for one bench configuration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Baseline {
    /// Human-readable description of the run configuration, compared
    /// verbatim so a baseline is never diffed against a different setup.
    pub config: String,
    /// Scalar name (e.g. `base.makespan_s`) → recorded value. Counts are
    /// stored as `f64`, exact below 2⁵³, and written as JSON integers.
    pub scalars: BTreeMap<String, f64>,
}

/// How far one scalar may move from its committed value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Band {
    /// Within this fraction of the committed value (time-like scalars).
    Rel(f64),
    /// Within this absolute distance (fraction-valued scalars).
    Abs(f64),
    /// Equal to the committed value (counters of a deterministic run).
    Exact,
}

impl Band {
    /// The violation line for `key` moving from `b` to `c`, if outside
    /// the band.
    fn violation(self, key: &str, b: f64, c: f64) -> Option<String> {
        match self {
            Band::Rel(r) if (c - b).abs() > r * b.abs().max(f64::MIN_POSITIVE) => Some(format!(
                "{key}: {c:.6} deviates from baseline {b:.6} by more than {:.1}%",
                r * 100.0
            )),
            Band::Abs(a) if (c - b).abs() > a => Some(format!(
                "{key}: {c:.4} deviates from baseline {b:.4} by more than {a:.2}"
            )),
            Band::Exact if c != b => Some(format!(
                "{key}: {c} != baseline {b} (exact counter; deterministic run)"
            )),
            _ => None,
        }
    }
}

fn num(v: f64) -> Value {
    // Whole non-negative values (the counters) are written as integers.
    if v >= 0.0 && v.fract() == 0.0 && v < (1u64 << 53) as f64 {
        Value::Num(Number::U(v as u64))
    } else {
        Value::Num(Number::F(v))
    }
}

impl Baseline {
    /// An empty baseline for the configuration `config`.
    pub fn new(config: impl Into<String>) -> Self {
        Baseline {
            config: config.into(),
            scalars: BTreeMap::new(),
        }
    }

    /// Serialize to the committed pretty-printed JSON format.
    pub fn to_json(&self) -> String {
        let scalars = self
            .scalars
            .iter()
            .map(|(k, &v)| (k.clone(), num(v)))
            .collect();
        let v = Value::Object(vec![
            ("config".into(), Value::Str(self.config.clone())),
            ("scalars".into(), Value::Object(scalars)),
        ]);
        let mut text = serde_json::to_string_pretty(&v).expect("baseline serialization");
        text.push('\n');
        text
    }

    /// Parse the committed JSON format back.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v: Value = serde_json::from_str(text).map_err(|e| format!("baseline JSON: {e}"))?;
        let config = v
            .field("config")
            .as_str()
            .ok_or("baseline missing config string")?;
        let Value::Object(pairs) = v.field("scalars") else {
            return Err("baseline missing scalars object".into());
        };
        let mut b = Baseline::new(config);
        for (key, sv) in pairs {
            let x = sv
                .as_f64()
                .ok_or_else(|| format!("scalar {key} is not a number"))?;
            b.scalars.insert(key.clone(), x);
        }
        Ok(b)
    }

    /// Diff `current` against this committed baseline, holding each key to
    /// `band(key)`. Returns one line per violation; empty means the check
    /// passes.
    pub fn compare(&self, current: &Baseline, band: impl Fn(&str) -> Band) -> Vec<String> {
        if self.config != current.config {
            return vec![format!(
                "config mismatch: baseline \"{}\" vs current \"{}\" (re-baseline after config changes)",
                self.config, current.config
            )];
        }
        let mut bad = Vec::new();
        for (key, &b) in &self.scalars {
            match current.scalars.get(key) {
                Some(&c) => bad.extend(band(key).violation(key, b, c)),
                None => bad.push(format!("{key} present in baseline but not in current run")),
            }
        }
        for key in current.scalars.keys() {
            if !self.scalars.contains_key(key) {
                bad.push(format!(
                    "{key} produced by current run but absent from baseline"
                ));
            }
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Baseline {
        let mut b = Baseline::new("n=4608 tile=288 grid=4x4 iters=10 steps=5 ratio=0.4");
        for (key, v) in [
            ("base.makespan_s", 1.25),
            ("base.occupancy", 0.62),
            ("base.messages", 1920.0),
            ("ca.makespan_s", 0.98),
            ("ca.occupancy", 0.81),
            ("ca.messages", 480.0),
            ("ca.redundant_flops", 123_456.0),
        ] {
            b.scalars.insert(key.into(), v);
        }
        b
    }

    /// The doctor's band classes: fractions absolute, counters exact,
    /// everything else relative.
    fn band(key: &str) -> Band {
        if key.ends_with(".occupancy") {
            Band::Abs(0.02)
        } else if key.ends_with(".messages") || key.ends_with(".redundant_flops") {
            Band::Exact
        } else {
            Band::Rel(0.02)
        }
    }

    fn bump(b: &mut Baseline, key: &str, f: impl Fn(f64) -> f64) {
        let v = b.scalars.get_mut(key).expect("key in sample");
        *v = f(*v);
    }

    #[test]
    fn json_round_trips_exactly() {
        let mut b = sample();
        b.scalars.insert("odd".into(), 0.005381863000000001);
        let text = b.to_json();
        // Counters are written as integers, floats in shortest form.
        assert!(text.contains("\"ca.messages\": 480,"), "{text}");
        let parsed = Baseline::from_json(&text).unwrap();
        assert_eq!(parsed, b);
        // And the rendered form is stable (committed-file hygiene).
        assert_eq!(parsed.to_json(), text);
    }

    #[test]
    fn identical_runs_pass() {
        assert!(sample().compare(&sample(), band).is_empty());
    }

    #[test]
    fn small_drift_within_band_passes() {
        let mut cur = sample();
        bump(&mut cur, "base.makespan_s", |v| v * 1.015); // within 2 %
        bump(&mut cur, "base.occupancy", |v| v + 0.01); // within 0.02
        assert!(sample().compare(&cur, band).is_empty());
    }

    #[test]
    fn perturbation_beyond_tolerance_fails_both_directions() {
        let b = sample();
        let mut slow = sample();
        bump(&mut slow, "base.makespan_s", |v| v * 1.10);
        let bad = b.compare(&slow, band);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].contains("base.makespan_s"));

        let mut fast = sample();
        bump(&mut fast, "ca.makespan_s", |v| v * 0.90);
        assert_eq!(b.compare(&fast, band).len(), 1);

        // The absolute band: 0.62 → 0.682 is 0.062 out, past 0.02.
        let mut busy = sample();
        bump(&mut busy, "base.occupancy", |v| v * 1.10);
        let bad = b.compare(&busy, band);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].contains("base.occupancy"));
    }

    #[test]
    fn counter_drift_is_exact_fail() {
        let mut cur = sample();
        bump(&mut cur, "ca.messages", |v| v + 1.0);
        let bad = sample().compare(&cur, band);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].contains("ca.messages"));
    }

    #[test]
    fn scheme_set_and_config_mismatches_fail() {
        let b = sample();
        let mut lost = sample();
        lost.scalars.remove("ca.redundant_flops");
        let bad = b.compare(&lost, band);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].contains("not in current run"), "{bad:?}");

        let mut extra = sample();
        extra.scalars.insert("pa2.makespan_s".into(), 1.0);
        let bad = b.compare(&extra, band);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].contains("absent from baseline"), "{bad:?}");

        let mut other = sample();
        other.config = "different".into();
        let bad = b.compare(&other, band);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].contains("config mismatch"), "{bad:?}");
    }
}
