//! The benchmark's own span recorder. Spans are opened around the calls
//! into each layer's public functions (never inside the program), kept
//! in memory, and written out as JSON lines when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval. Spans of one request share `request`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Spans {
    /// The instant all span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from this recorder's epoch to `at`.
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span now, as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str, request: u64) -> u32 {
        let now = self.now_ns();
        let id = self.insert(name, request, self.open.last().copied(), now, now);
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: u32) {
        let now = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = now;
    }

    /// Records an interval that was measured rather than bracketed: a
    /// duration the program counts itself (`solve_nanos`), or one taken
    /// from a replay of the same call on the same state.
    pub fn insert(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<u32>,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        id
    }

    pub fn get(&self, id: u32) -> &Span {
        &self.spans[id as usize]
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed by span id.
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Total nanoseconds of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// Writes one JSON object per span with the keys `id`, `name`,
    /// `start_ns`, `end_ns`, `parent` (`null` for a root) and `request`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, parent, s.request
            )?;
        }
        out.flush()
    }
}

/// A span's self time is its duration minus the part of its interval
/// that its child spans cover: children are clipped to the parent and
/// overlapping children are counted once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in intervals.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            id,
            name: "s",
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_parent_minus_covered_children() {
        let spans = vec![
            span(0, 0, 100, None),
            span(1, 10, 30, Some(0)),
            span(2, 50, 80, Some(0)),
            span(3, 55, 60, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 25, 5]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped_to_the_parent() {
        let spans = vec![
            span(0, 100, 200, None),
            span(1, 110, 150, Some(0)),
            span(2, 140, 170, Some(0)),
            span(3, 120, 130, Some(0)),
            span(4, 190, 260, Some(0)),
            span(5, 20, 90, Some(0)),
        ];
        // Covered: [110, 170) and [190, 200) of the parent's [100, 200).
        assert_eq!(self_times_ns(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn open_spans_nest_and_share_the_request() {
        let mut spans = Spans::default();
        let root = spans.open("request", 7);
        let child = spans.open("layer", 7);
        spans.close(child);
        let measured = spans.insert("counted", 7, Some(root), 0, 0);
        spans.close(root);
        assert_eq!(spans.get(child).parent, Some(root));
        assert_eq!(spans.get(measured).parent, Some(root));
        assert_eq!(spans.get(root).parent, None);
        assert!(spans.get(root).end_ns >= spans.get(child).end_ns);
        assert!(spans.all().iter().all(|s| s.request == 7));
    }

    #[test]
    fn spans_are_written_one_json_object_per_line() {
        let mut spans = Spans::default();
        let root = spans.open("request", 3);
        spans.close(root);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/span-test");
        let path = dir.join("trace.jsonl");
        spans.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let line = text.lines().next().unwrap();
        assert!(line.starts_with("{\"id\":0,\"name\":\"request\",\"start_ns\":"));
        assert!(line.ends_with(",\"parent\":null,\"request\":3}"));
    }
}
