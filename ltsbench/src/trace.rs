//! The benchmark's own spans: one per public call into a crate, recorded
//! around the call from this package's files, kept in memory and written
//! out when the run ends. Off (every method a plain call-through) for the
//! end-to-end measurement.

use std::collections::BTreeMap;
use std::time::Instant;

use wave_lts::obs::{Json, MetricsRegistry};

#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Crate the call goes into (`lts-mesh`, …), or `ltsbench` for the
    /// benchmark's own grouping spans.
    pub layer: &'static str,
    pub name: String,
    /// Seconds since the tracer's epoch.
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on() -> Tracer {
        Tracer {
            on: true,
            ..Tracer::off()
        }
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Run `f` inside a span named `layer::name`, child of the innermost
    /// open span.
    pub fn span<T>(&mut self, layer: &'static str, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let id = self.enter(layer, format!("{layer}::{name}"));
        let out = f();
        self.exit(id);
        out
    }

    /// A grouping span of the benchmark's own, whose closure gets the
    /// tracer back for nesting.
    pub fn group<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.enter("ltsbench", name.to_string());
        let out = f(self);
        self.exit(id);
        out
    }

    fn enter(&mut self, layer: &'static str, name: String) -> usize {
        let id = self.spans.len();
        self.spans.push(SpanRec {
            layer,
            name,
            start_s: self.epoch.elapsed().as_secs_f64(),
            end_s: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    fn exit(&mut self, id: usize) {
        self.open.pop();
        self.spans[id].end_s = self.epoch.elapsed().as_secs_f64();
    }

    /// Adopt the program's own host spans (`decompose.discretize`,
    /// `decompose.build_worlds`, `run.steps`) as children of the span that
    /// closed last — the entry-point call that recorded them. `host` was
    /// created `host_offset_s` after `t0`.
    pub fn adopt_host_spans(&mut self, host: &MetricsRegistry, host_offset_s: f64, t0: Instant) {
        if !self.on {
            return;
        }
        let Some(parent) = self.spans.len().checked_sub(1) else {
            return;
        };
        let base = t0.duration_since(self.epoch).as_secs_f64() + host_offset_s;
        for ev in host.trace() {
            let layer = match ev.name {
                "decompose.discretize" | "decompose.build_worlds" => "lts-sem",
                _ => "lts-runtime",
            };
            self.spans.push(SpanRec {
                layer,
                name: format!("{layer}::{}", ev.name),
                start_s: base + ev.start_s,
                end_s: base + ev.start_s + ev.dur_s,
                parent: Some(parent),
            });
        }
    }

    /// Total duration of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_s - s.start_s)
            .sum()
    }

    /// Self time per layer over the subtree rooted at span `root`: each
    /// span's duration minus the part its direct children cover (children
    /// of one span never overlap: they run one after another).
    pub fn self_time_by_layer(&self, root: usize) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (id, s) in self.spans.iter().enumerate() {
            if !self.descends_from(id, root) {
                continue;
            }
            let children: f64 = self
                .spans
                .iter()
                .filter(|c| c.parent == Some(id))
                .map(|c| c.end_s - c.start_s)
                .sum();
            *out.entry(s.layer).or_insert(0.0) += (s.end_s - s.start_s) - children;
        }
        out
    }

    fn descends_from(&self, mut id: usize, root: usize) -> bool {
        loop {
            if id == root {
                return true;
            }
            match self.spans[id].parent {
                Some(p) => id = p,
                None => return false,
            }
        }
    }

    /// Index of the first span named `name`.
    pub fn find(&self, name: &str) -> Option<usize> {
        self.spans.iter().position(|s| s.name == name)
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::Obj(vec![
                        ("id".into(), Json::UInt(id as u64)),
                        ("name".into(), Json::str(s.name.clone())),
                        ("layer".into(), Json::str(s.layer)),
                        ("start_s".into(), Json::Num(s.start_s)),
                        ("end_s".into(), Json::Num(s.end_s)),
                        (
                            "parent".into(),
                            s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::on();
        t.group("root", |t| {
            t.span("lts-mesh", "a", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let root = t.find("root").unwrap();
        let by = t.self_time_by_layer(root);
        let total = t.total("root");
        let sum: f64 = by.values().sum();
        assert!((sum - total).abs() < 1e-9);
        assert!(by["lts-mesh"] >= 0.005);
        assert_eq!(t.spans()[1].parent, Some(root));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("lts-mesh", "a", || 7), 7);
        assert!(t.spans().is_empty());
    }
}
