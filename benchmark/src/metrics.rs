//! The metric catalogue: every name the benchmark reports, with its unit,
//! direction and (end-to-end only) regression bound.
//!
//! `BENCHMARK.json` at the root of the repository is the one place these
//! are written down. It is compiled into the binary and read with the
//! harness's own parser, so the harness and the file it was built beside
//! cannot name different things.

use std::sync::OnceLock;

use crate::json::{self, Value};

const MANIFEST: &str = include_str!("../../BENCHMARK.json");

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One metric of the catalogue.
///
/// An end-to-end metric is what a user of the system sees; its `bound` is
/// the share of the parent's median by which it may worsen before a change
/// counts as a regression. A per-layer metric has no bound (`∞`).
///
/// The acceptance driver compares sets of runs over *different seeds*, so
/// the inputs themselves move every metric — the simulated clock included
/// — and the 2-core build host slows by 30–50 % for minutes at a time,
/// which is why its clock is read against a reference
/// ([`crate::reference`]). Each bound is fixed from what ten seeds,
/// measured twice, showed there (README "Bounds and observed spread").
///
/// `failed_frac` (operations whose output failed its check ÷ operations
/// attempted, bound 0 absolute) is the sixth end-to-end metric: it travels
/// as the `failed`/`attempted` counts of the result line because a metric
/// that is 0 on a correct program cannot carry a relative bound.
#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    pub bound: f64,
}

/// Unit of every metric read off the simulated clock. Such a metric is a
/// function of the inputs alone: on one seed it repeats bit for bit.
pub const SIM_UNIT: &str = "sim_s";

/// `BENCHMARK.json` as the harness uses it.
#[derive(Debug)]
pub struct Catalogue {
    /// Seconds one contract run measures.
    pub run_seconds: f64,
    /// Every workload's untraced run reports all of these.
    pub end_to_end: Vec<Metric>,
    /// The per-layer ledger, layer = crate. Every workload's traced run
    /// emits every one of these.
    pub per_layer: Vec<Metric>,
}

impl Catalogue {
    /// Unit of any metric the catalogue names.
    pub fn unit_of(&self, name: &str) -> Option<&str> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .map(|m| m.unit.as_str())
    }
}

/// The catalogue of the `BENCHMARK.json` this binary was built beside.
pub fn catalogue() -> &'static Catalogue {
    static CATALOGUE: OnceLock<Catalogue> = OnceLock::new();
    CATALOGUE.get_or_init(|| load(MANIFEST).unwrap_or_else(|e| panic!("BENCHMARK.json: {e}")))
}

fn load(text: &str) -> Result<Catalogue, String> {
    let doc = json::parse(text)?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Value::as_arr)
            .ok_or(format!("no {key:?} list"))
    };
    let text_of = |entry: &Value, key: &str| {
        let field = entry.get(key).and_then(Value::as_str);
        field.map(str::to_string).ok_or(format!("no {key:?}"))
    };
    let metrics = |key: &str, bounded: bool| {
        list(key)?
            .iter()
            .map(|m| {
                let name = text_of(m, "name")?;
                let better = match text_of(m, "better")?.as_str() {
                    "lower" => Better::Lower,
                    "higher" => Better::Higher,
                    other => return Err(format!("{name}: better is {other:?}")),
                };
                let bound = match m.get("bound").and_then(Value::as_f64) {
                    Some(bound) if bounded => bound,
                    None if !bounded => f64::INFINITY,
                    _ => {
                        return Err(format!(
                            "{name}: end-to-end metrics, and only they, carry a bound"
                        ))
                    }
                };
                Ok(Metric {
                    unit: text_of(m, "unit")?,
                    name,
                    better,
                    bound,
                })
            })
            .collect::<Result<Vec<_>, String>>()
    };
    Ok(Catalogue {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Value::as_f64)
            .ok_or("no run_seconds")?,
        end_to_end: metrics("end_to_end", true)?,
        per_layer: metrics("per_layer", false)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use std::collections::BTreeSet;

    fn legal_name(s: &str) -> bool {
        let mut chars = s.chars();
        s.len() <= 64
            && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn legal_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    /// `BENCHMARK.json` stays inside the limits the acceptance driver
    /// enforces on it, and names the workloads the harness runs.
    #[test]
    fn benchmark_json_meets_the_contract_limits() {
        let c = catalogue();
        let mut names = BTreeSet::new();
        for m in c.end_to_end.iter().chain(&c.per_layer) {
            assert!(legal_name(&m.name) && legal_unit(&m.unit), "{}", m.name);
            assert!(names.insert(m.name.as_str()), "{} twice", m.name);
        }
        for m in &c.end_to_end {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let doc = json::parse(MANIFEST).unwrap();
        let workloads = doc.get("workloads").and_then(Value::as_arr).unwrap();
        let listed: Vec<_> = workloads
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        let ran: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(listed, ran);
        for w in &listed {
            assert!(legal_name(w) && names.insert(w), "{w} names a metric too");
        }
        assert!((2..=8).contains(&listed.len()));
        assert!((1..=16).contains(&c.end_to_end.len()));
        assert!((1..=128).contains(&c.per_layer.len()));
        assert!((1.0..=60.0).contains(&c.run_seconds) && c.run_seconds.fract() == 0.0);
        let setup = c.end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        assert!(c.end_to_end.iter().all(|m| m.bound <= setup.bound));
        assert!(MANIFEST.len() <= 64 * 1024);

        let keys: Vec<_> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        for w in workloads {
            let why = w.get("why").and_then(Value::as_str).unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
    }

    #[test]
    fn a_malformed_manifest_is_refused_with_the_metric_named() {
        let with = |end_to_end: &str, per_layer: &str| {
            format!(
                "{{\"run_seconds\":10,\"end_to_end\":[{end_to_end}],\"per_layer\":[{per_layer}]}}"
            )
        };
        let e2e = "{\"name\":\"wall_s\",\"unit\":\"s\",\"better\":\"lower\",\"bound\":0.1}";
        let layer = "{\"name\":\"net.msgs\",\"unit\":\"count\",\"better\":\"lower\"}";
        let c = load(&with(e2e, layer)).unwrap();
        assert_eq!(
            (c.end_to_end[0].bound, c.per_layer[0].bound),
            (0.1, f64::INFINITY)
        );
        assert_eq!(c.unit_of("net.msgs"), Some("count"));
        assert_eq!(c.unit_of("nope"), None);
        assert!(load(&with(layer, layer)).unwrap_err().contains("net.msgs"));
        assert!(load(&with(e2e, e2e)).unwrap_err().contains("wall_s"));
        let sideways = e2e.replace("lower", "sideways");
        assert!(load(&with(&sideways, layer))
            .unwrap_err()
            .contains("sideways"));
        assert!(load("{}").is_err());
    }
}
