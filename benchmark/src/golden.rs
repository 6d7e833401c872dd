//! The committed exact values: simulated makespans, message, byte and
//! flop counts. They repeat exactly on every host, so an operation whose
//! value differs from `golden.json` has failed. The file is compiled into
//! the binary; `--update-golden` is the only way to rewrite it (rebuild
//! afterwards).

use serde::{Number, Value};
use std::path::Path;

const COMMITTED: &str = include_str!("../golden.json");

/// One workload's exact values: checked against the committed file, or —
/// in update mode — collected to replace its section.
pub struct Golden {
    workload: String,
    update: bool,
    expected: Vec<(String, f64)>,
    observed: Vec<(String, f64)>,
}

impl Golden {
    pub fn load(workload: &str, update: bool) -> Result<Self, String> {
        Ok(Golden {
            workload: workload.to_string(),
            update,
            expected: section(&parse(COMMITTED)?, workload),
            observed: Vec::new(),
        })
    }

    /// An operation reports exact value `key`: it must equal the committed
    /// value (and, in update mode, every earlier report of the same key).
    pub fn check(&mut self, key: &str, value: f64) -> Result<(), String> {
        let table = if self.update {
            &self.observed
        } else {
            &self.expected
        };
        match table.iter().find(|(k, _)| k == key) {
            Some(&(_, want)) if want == value => Ok(()),
            Some(&(_, want)) => Err(format!("{key} = {value}, golden value is {want}")),
            None if self.update => {
                self.observed.push((key.to_string(), value));
                Ok(())
            }
            None => Err(format!(
                "{key} has no golden value for {} (run with --update-golden)",
                self.workload
            )),
        }
    }

    /// Update mode: replace this workload's section of `path`.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let Value::Object(mut sections) = parse(&text)? else {
            unreachable!("parse returns objects only")
        };
        let number = |v: f64| {
            if v >= 0.0 && v.fract() == 0.0 && v < 9e15 {
                Number::U(v as u64)
            } else {
                Number::F(v)
            }
        };
        let entry = Value::Object(
            self.observed
                .iter()
                .map(|(k, v)| (k.clone(), Value::Num(number(*v))))
                .collect(),
        );
        match sections.iter_mut().find(|(k, _)| *k == self.workload) {
            Some((_, old)) => *old = entry,
            None => sections.push((self.workload.clone(), entry)),
        }
        let mut out = serde_json::to_string_pretty(&Value::Object(sections))
            .map_err(|e| format!("golden serialization: {e}"))?;
        out.push('\n');
        std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
    }
}

fn parse(text: &str) -> Result<Value, String> {
    match serde_json::from_str::<Value>(text) {
        Ok(v @ Value::Object(_)) => Ok(v),
        Ok(_) => Err("golden.json: top level is not an object".into()),
        Err(e) => Err(format!("golden.json: {e}")),
    }
}

fn section(file: &Value, workload: &str) -> Vec<(String, f64)> {
    file.field(workload)
        .as_object()
        .unwrap_or_default()
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn golden(update: bool, expected: &[(&str, f64)]) -> Golden {
        Golden {
            workload: "w".into(),
            update,
            expected: expected.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
            observed: Vec::new(),
        }
    }

    #[test]
    fn check_is_exact_and_requires_a_committed_value() {
        let mut g = golden(false, &[("msgs", 6400.0), ("makespan", 0.325224055)]);
        assert!(g.check("msgs", 6400.0).is_ok());
        assert!(g.check("makespan", 0.325224055).is_ok());
        assert!(g.check("makespan", 0.325224056).is_err());
        assert!(g
            .check("bytes", 1.0)
            .unwrap_err()
            .contains("--update-golden"));
    }

    #[test]
    fn update_collects_and_demands_repeatability() {
        let mut g = golden(true, &[("msgs", 1.0)]);
        assert!(
            g.check("msgs", 6400.0).is_ok(),
            "update ignores the old value"
        );
        assert!(g.check("msgs", 6400.0).is_ok());
        assert!(
            g.check("msgs", 6401.0).is_err(),
            "a value that varies is no golden"
        );
    }

    #[test]
    fn save_replaces_only_this_workloads_section() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("golden-test-{}.json", std::process::id()));
        std::fs::write(&path, "{\"other\": {\"x\": 1}, \"w\": {\"stale\": 2}}\n").unwrap();
        let mut g = golden(true, &[]);
        g.check("makespan", 0.392497339).unwrap();
        g.check("msgs", 57600.0).unwrap();
        g.save(&path).unwrap();
        let back = parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(section(&back, "other"), [("x".to_string(), 1.0)]);
        assert_eq!(
            section(&back, "w"),
            [
                ("makespan".to_string(), 0.392497339),
                ("msgs".to_string(), 57600.0)
            ]
        );
    }

    #[test]
    fn committed_file_parses() {
        parse(COMMITTED).unwrap();
    }
}
