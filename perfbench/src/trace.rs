//! The driver's span recorder. Spans are recorded here, around the calls
//! into each crate's public functions; the library itself carries none.
//!
//! While the recorder is off (every timed repetition) `span` costs one
//! relaxed atomic load and then runs the closure.

use iba_core::Json;
use std::cell::Cell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded interval. `name` is `<crate>.<function>`; the part before
/// the first dot is the layer the time is charged to.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// The recorder is process-wide: tests that drive it take this lock.
#[cfg(test)]
pub static TEST_LOCK: Mutex<()> = Mutex::new(());

thread_local! {
    /// Innermost open span of this thread.
    static CURRENT: Cell<Option<usize>> = const { Cell::new(None) };
}

fn spans() -> std::sync::MutexGuard<'static, Vec<Span>> {
    SPANS
        .lock()
        .expect("a thread panicked while recording a span")
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Start recording; earlier spans are discarded.
pub fn start() {
    spans().clear();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stop recording and take what was recorded.
pub fn stop() -> Vec<Span> {
    ENABLED.store(false, Ordering::SeqCst);
    std::mem::take(&mut *spans())
}

/// The innermost open span of the calling thread, to hand to
/// [`span_under`] on another thread.
pub fn current() -> Option<usize> {
    CURRENT.with(Cell::get)
}

/// Run `f` inside a span whose parent is this thread's innermost open span.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    span_under(current(), name, f)
}

/// Run `f` inside a span with an explicit parent: for work a traced call
/// hands to another thread.
pub fn span_under<R>(parent: Option<usize>, name: &'static str, f: impl FnOnce() -> R) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let start_ns = now_ns();
    let id = {
        let mut all = spans();
        all.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        all.len() - 1
    };
    let outer = CURRENT.with(|c| c.replace(Some(id)));
    let result = f();
    CURRENT.with(|c| c.set(outer));
    let end_ns = now_ns();
    // `stop` may have drained the list under a span still open elsewhere.
    if let Some(s) = spans().get_mut(id) {
        s.end_ns = end_ns;
    }
    result
}

/// Self time of every span: its duration minus the part of it that its
/// child spans cover. Children on parallel threads may overlap each
/// other, so the covered part is the union of their intervals.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Self time summed per layer, in first-seen order.
pub fn self_time_by_layer_ns(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut out: Vec<(&'static str, u64)> = Vec::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        match out.iter_mut().find(|(layer, _)| *layer == s.layer()) {
            Some((_, total)) => *total += self_ns,
            None => out.push((s.layer(), self_ns)),
        }
    }
    out
}

/// Write one JSON object per span, preceded by a header line.
pub fn write_jsonl(
    path: &Path,
    header: &Json,
    workload: &str,
    spans: &[Span],
) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{}", header.to_string_compact())?;
    for (id, (s, self_ns)) in spans.iter().zip(self_times_ns(spans)).enumerate() {
        let line = Json::obj([
            ("id", Json::from(id)),
            ("name", Json::from(s.name)),
            ("start_ns", Json::from(s.start_ns)),
            ("end_ns", Json::from(s.end_ns)),
            ("self_ns", Json::from(self_ns)),
            ("parent", s.parent.map_or(Json::Null, Json::from)),
            ("workload", Json::from(workload)),
        ]);
        writeln!(out, "{}", line.to_string_compact())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            sp("driver.body", 0, 100, None),
            sp("sim.run", 10, 40, Some(0)),
            // Two workers overlapping between 50 and 60.
            sp("campaign.cell", 45, 60, Some(0)),
            sp("campaign.cell", 50, 70, Some(0)),
            sp("stats.finish", 20, 30, Some(1)),
        ];
        // Root: 100 - (30 + 25) = 45; sim.run: 30 - 10 = 20.
        assert_eq!(self_times_ns(&spans), vec![45, 20, 15, 20, 10]);
        assert_eq!(
            self_time_by_layer_ns(&spans),
            vec![("driver", 45), ("sim", 20), ("campaign", 35), ("stats", 10)]
        );
    }

    #[test]
    fn a_child_that_outlives_its_parent_is_clipped() {
        let spans = [sp("a.x", 0, 10, None), sp("b.y", 5, 50, Some(0))];
        assert_eq!(self_times_ns(&spans), vec![5, 45]);
    }

    #[test]
    fn recorder_nests_spans_and_is_silent_when_off() {
        let _recorder = TEST_LOCK.lock().unwrap();
        assert_eq!(span("driver.off", || 7), 7);
        start();
        let inner_parent = span("driver.outer", || {
            let outer = current();
            span("sim.inner", || ());
            std::thread::scope(|s| {
                s.spawn(|| span_under(outer, "campaign.cell", || ()));
            });
            outer
        });
        let spans = stop();
        assert_eq!(inner_parent, Some(0));
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("driver.outer", None),
                ("sim.inner", Some(0)),
                ("campaign.cell", Some(0))
            ]
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(span("driver.off", || 8), 8);
        assert!(stop().is_empty());
    }
}
