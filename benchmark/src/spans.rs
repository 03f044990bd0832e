//! The outside-in trace: spans recorded by the harness around its calls
//! into each layer, kept in memory and written out when the run ends.
//!
//! Nothing in here is called from inside the program under test except
//! [`Trace::record`] from the phase observer, which takes one uncontended
//! lock per phase boundary per rank.

use std::sync::Mutex;
use std::time::Instant;

use crate::json::Value;

/// One span. `parent` is the id of the span that caused it (`None` for a
/// workload's root); times are nanoseconds since the trace was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An in-memory span store for one workload run.
pub struct Trace {
    workload: String,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Trace {
    pub fn new(workload: &str) -> Self {
        Trace {
            workload: workload.to_string(),
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the trace began.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Trace::close`].
    pub fn open(&self, name: &str, parent: Option<u32>) -> u32 {
        let now = self.now_ns();
        self.record(name, parent, now, now)
    }

    /// Stamps an open span's end.
    pub fn close(&self, id: u32) {
        let now = self.now_ns();
        self.lock()[id as usize].end_ns = now;
    }

    /// Records a finished span with explicit stamps; returns its id.
    pub fn record(&self, name: &str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> u32 {
        let mut spans = self.lock();
        let id = spans.len() as u32;
        spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
        id
    }

    /// Runs `f` inside a span and returns its result with the span's id
    /// and duration in seconds.
    pub fn time<R>(&self, name: &str, parent: Option<u32>, f: impl FnOnce(u32) -> R) -> (R, f64) {
        let id = self.open(name, parent);
        let out = f(id);
        self.close(id);
        let spans = self.lock();
        let s = &spans[id as usize];
        (out, (s.end_ns - s.start_ns) as f64 * 1e-9)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        // A panic inside the program under test (caught and counted as a
        // failed operation) can unwind through the observer while it
        // holds this lock; a span vector is valid at every step, so the
        // poisoned guard is still good.
        self.spans.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The trace as JSON: `{workload, spans: [{id, parent, name, workload,
    /// start_ns, end_ns, self_ns}]}`.
    pub fn to_json(&self) -> Value {
        let spans = self.spans();
        let self_ns = self_times(&spans);
        let rows = spans
            .iter()
            .zip(self_ns)
            .map(|(s, own)| {
                Value::obj()
                    .with("id", s.id as u64)
                    .with(
                        "parent",
                        s.parent.map_or(Value::Null, |p| (p as u64).into()),
                    )
                    .with("name", s.name.as_str())
                    .with("workload", self.workload.as_str())
                    .with("start_ns", s.start_ns)
                    .with("end_ns", s.end_ns)
                    .with("self_ns", own)
            })
            .collect::<Vec<_>>();
        Value::obj()
            .with("workload", self.workload.as_str())
            .with("spans", rows)
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its child spans cover. Children of one parent may overlap (the ranks
/// of a run are concurrent threads), so the covered part is the length of
/// the *union* of the children's intervals, clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(cursor);
                let hi = hi.min(s.end_ns);
                if hi > lo {
                    covered += hi - lo;
                    cursor = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, 0, 100),
            // Two overlapping children (concurrent ranks) cover [10, 60).
            span(1, Some(0), 10, 50),
            span(2, Some(0), 30, 60),
            // A disjoint child covers [70, 80).
            span(3, Some(0), 70, 80),
            // A grandchild only reduces its own parent.
            span(4, Some(1), 20, 30),
            // A child stamped past its parent's end is clipped.
            span(5, Some(3), 75, 95),
        ];
        assert_eq!(self_times(&spans), vec![40, 30, 30, 5, 10, 20]);
    }

    #[test]
    fn a_leaf_owns_its_whole_duration() {
        assert_eq!(self_times(&[span(0, None, 5, 25)]), vec![20]);
    }

    #[test]
    fn recorder_nests_and_serialises() {
        let t = Trace::new("w");
        let (inner, secs) = t.time("outer", None, |outer| {
            t.time("inner", Some(outer), |id| id).0
        });
        assert!(secs >= 0.0);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[inner as usize].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let json = t.to_json();
        let rows = json.get("spans").and_then(Value::as_arr).unwrap();
        assert_eq!(rows[0].get("parent"), Some(&Value::Null));
        assert_eq!(rows[1].get("parent").and_then(Value::as_f64), Some(0.0));
        assert_eq!(rows[1].get("workload").and_then(Value::as_str), Some("w"));
    }
}
