//! Per-layer self times from a traced run, and the benchmark's own spans.
//!
//! A layer's self time is the union of its spans minus the part its child
//! layers' spans cover, per rank, in the layer's clock domain: tensor and
//! nn record wall spans; horovod, mpi and net record virtual ones.

use std::collections::BTreeMap;

use dlsr_trace::{cat, Clock, TraceEvent};

/// One layer: its span categories, clock domain and child layers.
pub struct Layer {
    pub name: &'static str,
    cats: &'static [&'static str],
    clock: Clock,
    children: &'static [&'static str],
}

const TENSOR: &[&str] = &[cat::GEMM, cat::IM2COL];
const NN: &[&str] = &[cat::NN_FWD, cat::NN_BWD];
const HOROVOD: &[&str] = &[cat::NEGOTIATE, cat::FUSION, cat::ALLREDUCE];
const MPI: &[&str] = &[cat::MPI];
const NET: &[&str] = &[cat::NET];

pub const LAYERS: [Layer; 5] = [
    Layer {
        name: "tensor",
        cats: TENSOR,
        clock: Clock::Wall,
        children: &[],
    },
    Layer {
        name: "nn",
        cats: NN,
        clock: Clock::Wall,
        children: TENSOR,
    },
    Layer {
        name: "horovod",
        cats: HOROVOD,
        clock: Clock::Virtual,
        children: &[cat::MPI, cat::NET],
    },
    Layer {
        name: "mpi",
        cats: MPI,
        clock: Clock::Virtual,
        children: NET,
    },
    Layer {
        name: "net",
        cats: NET,
        clock: Clock::Virtual,
        children: &[],
    },
];

impl Layer {
    pub fn is_wall(&self) -> bool {
        self.clock == Clock::Wall
    }
}

/// Self seconds of `layer`, summed over ranks.
pub fn self_seconds(events: &[TraceEvent], layer: &Layer) -> f64 {
    // rank -> (own spans, child spans)
    let mut by_rank: BTreeMap<usize, (Intervals, Intervals)> = BTreeMap::new();
    for e in events.iter().filter(|e| e.clock == layer.clock) {
        let span = (e.start_s, e.end_s);
        let entry = by_rank.entry(e.rank).or_default();
        if layer.cats.contains(&e.cat.as_str()) {
            entry.0.push(span);
        } else if layer.children.contains(&e.cat.as_str()) {
            entry.1.push(span);
        }
    }
    by_rank
        .into_values()
        .map(|(own, children)| {
            let own = union(own);
            length(&own) - overlap(&own, &union(children))
        })
        .sum()
}

/// Wall seconds of `window` that some in-program wall span covers, any
/// rank, any thread.
pub fn covered_wall_s(events: &[TraceEvent], window: (f64, f64)) -> f64 {
    let spans = union(
        events
            .iter()
            .filter(|e| e.clock == Clock::Wall)
            .map(|e| (e.start_s.max(window.0), e.end_s.min(window.1)))
            .collect(),
    );
    length(&spans)
}

/// A span the benchmark records around one probe call.
pub struct BenchSpan {
    pub name: String,
    pub start_s: f64,
    pub end_s: f64,
}

/// The benchmark's own spans, summed per probe name for the report.
#[derive(Default)]
pub struct BenchSpans {
    spans: Vec<BenchSpan>,
}

impl BenchSpans {
    /// Run `f` inside a span named `name` on the trace epoch's clock.
    pub fn around<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let start_s = dlsr_trace::now_wall_s();
        let r = f();
        self.spans.push(BenchSpan {
            name: name.to_string(),
            start_s,
            end_s: dlsr_trace::now_wall_s(),
        });
        r
    }

    pub fn print(&self) {
        println!("benchmark spans (wall):");
        let mut totals: Vec<(&str, usize, f64)> = Vec::new();
        for s in &self.spans {
            let secs = s.end_s - s.start_s;
            match totals.iter_mut().find(|t| t.0 == s.name) {
                Some(t) => {
                    t.1 += 1;
                    t.2 += secs;
                }
                None => totals.push((&s.name, 1, secs)),
            }
        }
        for (name, calls, secs) in totals {
            println!("  {name:<36} {calls:>4} calls {:>10.1} ms", secs * 1e3);
        }
    }
}

/// `(start, end)` seconds.
type Intervals = Vec<(f64, f64)>;

fn union(mut iv: Intervals) -> Intervals {
    iv.retain(|(s, e)| e > s);
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut out: Vec<(f64, f64)> = Vec::with_capacity(iv.len());
    for (s, e) in iv {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

fn length(iv: &[(f64, f64)]) -> f64 {
    iv.iter().map(|(s, e)| e - s).sum()
}

/// Length of the intersection of two disjoint sorted interval lists.
fn overlap(a: &[(f64, f64)], b: &[(f64, f64)]) -> f64 {
    let (mut i, mut j, mut total) = (0, 0, 0.0);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if hi > lo {
            total += hi - lo;
        }
        if a[i].1 < b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cat: &str, rank: usize, s: f64, e: f64, clock: Clock) -> TraceEvent {
        TraceEvent {
            name: cat.into(),
            cat: cat.into(),
            rank,
            start_s: s,
            end_s: e,
            clock,
        }
    }

    #[test]
    fn self_time_subtracts_children_per_rank() {
        let events = vec![
            ev(cat::NN_FWD, 0, 0.0, 10.0, Clock::Wall),
            ev(cat::GEMM, 0, 2.0, 5.0, Clock::Wall),
            ev(cat::GEMM, 0, 4.0, 6.0, Clock::Wall),
            ev(cat::NN_BWD, 1, 0.0, 4.0, Clock::Wall),
            // another domain never counts against a wall layer
            ev(cat::GEMM, 1, 0.0, 4.0, Clock::Virtual),
        ];
        let nn = &LAYERS[1];
        assert_eq!(self_seconds(&events, nn), 6.0 + 4.0);
        assert_eq!(self_seconds(&events, &LAYERS[0]), 4.0);
        assert_eq!(covered_wall_s(&events, (1.0, 3.0)), 2.0);
    }
}
