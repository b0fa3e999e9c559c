//! The fabric-wide metrics registry and its exporters.
//!
//! A [`MetricsRegistry`] holds named counters, gauges and
//! [`LogHistogram`]s, each optionally refined by a label set — the
//! in-process shape of the Prometheus data model. Subsystems populate
//! it (the simulator from its run statistics and telemetry, the SM
//! control plane from its sweep reports, the parallel engine from its
//! window profiling), and two exporters read it back out:
//!
//! * [`MetricsRegistry::prometheus`] — the text exposition format
//!   (counters and gauges as plain series, histograms as summaries
//!   with `quantile` labels plus `_sum`/`_count`);
//! * [`MetricsRegistry::snapshot_json`] / [`MetricsRegistry::write_jsonl_snapshot`]
//!   — one self-describing JSON object per snapshot instant, appended
//!   as a JSON line, with a lossless histogram encoding.
//!
//! ## The determinism boundary
//!
//! Metric names beginning with [`PROFILING_PREFIX`] form the
//! *profiling namespace*: wall-clock measurements (barrier waits,
//! worker run times) and engine-shape observations (conservative
//! window widths, events per window, mailbox traffic) that legitimately
//! vary across hosts, thread counts and shard counts. Everything else
//! is **sim-time-domain** and must be bit-identical across event-queue
//! backends and shard counts. [`MetricsRegistry::digest`] hashes only
//! the sim-time-domain entries — the determinism suite compares
//! digests across engines, and the profiling namespace is excluded by
//! construction ([`MetricsRegistry::digest_names`] lists what was
//! hashed, so CI can grep for the absence of `profiling_`).

use crate::hist::LogHistogram;
use iba_core::Json;
use std::collections::BTreeMap;

/// Metric-name prefix of the non-deterministic profiling namespace.
pub const PROFILING_PREFIX: &str = "profiling_";

/// Whether `name` lives in the profiling namespace (excluded from
/// [`MetricsRegistry::digest`]).
pub fn is_profiling(name: &str) -> bool {
    name.starts_with(PROFILING_PREFIX)
}

/// One metric's value.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// A monotone event tally.
    Counter(u64),
    /// A point-in-time measurement.
    Gauge(f64),
    /// A value distribution.
    Histogram(LogHistogram),
}

impl MetricValue {
    /// The metric kind as its exposition keyword.
    pub fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }
}

/// Canonical `key="value"` label rendering: keys sorted, values with
/// `\` and `"` escaped — one string so it can key a [`BTreeMap`]
/// deterministically.
fn label_str(labels: &[(&str, &str)]) -> String {
    let mut sorted: Vec<(&str, &str)> = labels.to_vec();
    sorted.sort_unstable();
    let mut out = String::new();
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for ch in v.chars() {
            match ch {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out
}

/// A registry of named, labelled metrics. Iteration order (and thus
/// every export and the digest) is the lexicographic order of
/// `(name, labels)` — independent of insertion order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    entries: BTreeMap<(String, String), MetricValue>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Number of distinct `(name, labels)` series.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry holds no series.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Increment the counter `name{labels}` by `n` (creating it at 0).
    /// Panics if the series exists with a different kind.
    pub fn add(&mut self, name: &str, labels: &[(&str, &str)], n: u64) {
        let key = (name.to_string(), label_str(labels));
        match self.entries.entry(key).or_insert(MetricValue::Counter(0)) {
            MetricValue::Counter(c) => *c = c.saturating_add(n),
            other => panic!("{name} is a {}, not a counter", other.kind()),
        }
    }

    /// Increment the counter `name{labels}` by one.
    pub fn inc(&mut self, name: &str, labels: &[(&str, &str)]) {
        self.add(name, labels, 1);
    }

    /// Set the gauge `name{labels}` to `v` (non-finite values are
    /// recorded as 0 so exports and digests stay well-formed).
    pub fn set_gauge(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        let v = if v.is_finite() { v } else { 0.0 };
        let key = (name.to_string(), label_str(labels));
        match self.entries.entry(key).or_insert(MetricValue::Gauge(0.0)) {
            MetricValue::Gauge(g) => *g = v,
            other => panic!("{name} is a {}, not a gauge", other.kind()),
        }
    }

    /// Record `v` into the histogram `name{labels}` (created at the
    /// default precision).
    pub fn observe(&mut self, name: &str, labels: &[(&str, &str)], v: u64) {
        let key = (name.to_string(), label_str(labels));
        match self
            .entries
            .entry(key)
            .or_insert_with(|| MetricValue::Histogram(LogHistogram::new()))
        {
            MetricValue::Histogram(h) => h.record(v),
            other => panic!("{name} is a {}, not a histogram", other.kind()),
        }
    }

    /// Install (or merge into) the histogram `name{labels}` wholesale —
    /// how a subsystem hands a histogram it accumulated locally to the
    /// registry.
    pub fn merge_histogram(&mut self, name: &str, labels: &[(&str, &str)], h: &LogHistogram) {
        let key = (name.to_string(), label_str(labels));
        match self
            .entries
            .entry(key)
            .or_insert_with(|| MetricValue::Histogram(LogHistogram::with_precision(h.precision())))
        {
            MetricValue::Histogram(mine) => mine.merge(h),
            other => panic!("{name} is a {}, not a histogram", other.kind()),
        }
    }

    /// The value of series `name{labels}`, if present.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricValue> {
        self.entries.get(&(name.to_string(), label_str(labels)))
    }

    /// The counter value of `name{labels}` (`None` when absent or not
    /// a counter).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.get(name, labels)? {
            MetricValue::Counter(c) => Some(*c),
            _ => None,
        }
    }

    /// Every series as `(name, labels, value)`, in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str, &MetricValue)> {
        self.entries
            .iter()
            .map(|((n, l), v)| (n.as_str(), l.as_str(), v))
    }

    /// Fold `other` into `self`: counters sum, histograms merge,
    /// gauges take the maximum — each rule is associative and
    /// commutative, so folding shard-local registries in any order
    /// yields the same result (mirroring `StatsCollector::merge`).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (key, theirs) in &other.entries {
            match self.entries.entry(key.clone()) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(theirs.clone());
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    match (e.get_mut(), theirs) {
                        (MetricValue::Counter(a), MetricValue::Counter(b)) => {
                            *a = a.saturating_add(*b)
                        }
                        (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a = a.max(*b),
                        (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge(b),
                        (mine, theirs) => panic!(
                            "metric {} kind mismatch on merge: {} vs {}",
                            key.0,
                            mine.kind(),
                            theirs.kind()
                        ),
                    }
                }
            }
        }
    }

    /// Quantiles a histogram exports as a Prometheus summary.
    const QUANTILES: [(f64, &'static str); 4] =
        [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99"), (0.999, "0.999")];

    /// Render the whole registry in the Prometheus text exposition
    /// format. Counters and gauges become single series; histograms
    /// become summaries (`quantile` label + `_sum` + `_count`).
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name = "";
        for (name, labels, value) in self.iter() {
            if name != last_name {
                let ptype = match value {
                    MetricValue::Counter(_) => "counter",
                    MetricValue::Gauge(_) => "gauge",
                    MetricValue::Histogram(_) => "summary",
                };
                out.push_str(&format!("# TYPE {name} {ptype}\n"));
                last_name = name;
            }
            let series = |extra: &str| {
                if labels.is_empty() && extra.is_empty() {
                    name.to_string()
                } else if labels.is_empty() {
                    format!("{name}{{{extra}}}")
                } else if extra.is_empty() {
                    format!("{name}{{{labels}}}")
                } else {
                    format!("{name}{{{labels},{extra}}}")
                }
            };
            match value {
                MetricValue::Counter(c) => out.push_str(&format!("{} {c}\n", series(""))),
                MetricValue::Gauge(g) => out.push_str(&format!("{} {g}\n", series(""))),
                MetricValue::Histogram(h) => {
                    for (q, qs) in Self::QUANTILES {
                        if let Some(v) = h.quantile(q) {
                            out.push_str(&format!(
                                "{} {v}\n",
                                series(&format!("quantile=\"{qs}\""))
                            ));
                        }
                    }
                    let base = if labels.is_empty() {
                        name.to_string()
                    } else {
                        format!("{{{labels}}}")
                    };
                    let _ = base;
                    let suffixed = |sfx: &str| {
                        if labels.is_empty() {
                            format!("{name}{sfx}")
                        } else {
                            format!("{name}{sfx}{{{labels}}}")
                        }
                    };
                    out.push_str(&format!("{} {}\n", suffixed("_sum"), h.sum()));
                    out.push_str(&format!("{} {}\n", suffixed("_count"), h.count()));
                }
            }
        }
        out
    }

    /// One snapshot of the registry as a self-describing JSON object
    /// (`at_ns` is the snapshot instant in the caller's time domain).
    /// Histograms are encoded losslessly via [`LogHistogram::to_json`].
    pub fn snapshot_json(&self, at_ns: u64) -> Json {
        Json::obj([
            ("kind", Json::from("metrics_snapshot")),
            ("at_ns", Json::from(at_ns)),
            (
                "metrics",
                Json::arr(self.iter().map(|(name, labels, value)| {
                    let mut o = Json::obj([
                        ("name", Json::from(name)),
                        ("labels", Json::from(labels)),
                        ("kind", Json::from(value.kind())),
                    ]);
                    match value {
                        MetricValue::Counter(c) => {
                            o.push("value", Json::from(*c));
                        }
                        MetricValue::Gauge(g) => {
                            o.push("value", Json::from(*g));
                        }
                        MetricValue::Histogram(h) => {
                            o.push("hist", h.to_json());
                        }
                    }
                    o
                })),
            ),
        ])
    }

    /// Append one [`Self::snapshot_json`] line to `w` — the periodic
    /// JSONL export.
    pub fn write_jsonl_snapshot<W: std::io::Write>(
        &self,
        w: &mut W,
        at_ns: u64,
    ) -> std::io::Result<()> {
        writeln!(w, "{}", self.snapshot_json(at_ns).to_string_compact())
    }

    /// Parse one snapshot line back into `(at_ns, registry)` — what
    /// the `iba metrics-report` query reads. `None` on a malformed
    /// document.
    pub fn from_snapshot_json(j: &Json) -> Option<(u64, MetricsRegistry)> {
        if j.get("kind")?.as_str()? != "metrics_snapshot" {
            return None;
        }
        let at_ns = j.get("at_ns")?.as_u64()?;
        let mut reg = MetricsRegistry::new();
        for m in j.get("metrics")?.as_arr()? {
            let name = m.get("name")?.as_str()?.to_string();
            let labels = m.get("labels")?.as_str()?.to_string();
            let value = match m.get("kind")?.as_str()? {
                "counter" => MetricValue::Counter(m.get("value")?.as_u64()?),
                "gauge" => MetricValue::Gauge(m.get("value")?.as_f64()?),
                "histogram" => MetricValue::Histogram(LogHistogram::from_json(m.get("hist")?)?),
                _ => return None,
            };
            reg.entries.insert((name, labels), value);
        }
        Some((at_ns, reg))
    }

    /// FNV-1a digest over the canonical rendering of every
    /// **sim-time-domain** series (names outside the profiling
    /// namespace). Histograms are digested from their raw buckets, so
    /// two registries digest equal exactly when their deterministic
    /// halves are bit-identical.
    pub fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut d = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                d ^= b as u64;
                d = d.wrapping_mul(PRIME);
            }
        };
        for (name, labels, value) in self.iter() {
            if is_profiling(name) {
                continue;
            }
            eat(name.as_bytes());
            eat(b"|");
            eat(labels.as_bytes());
            eat(b"|");
            match value {
                MetricValue::Counter(c) => eat(format!("c{c}").as_bytes()),
                MetricValue::Gauge(g) => eat(format!("g{g:?}").as_bytes()),
                MetricValue::Histogram(h) => {
                    eat(format!("h{}:{}", h.precision(), h.count()).as_bytes());
                    for (lo, hi, c) in h.nonzero_buckets() {
                        eat(format!("[{lo},{hi}]{c}").as_bytes());
                    }
                }
            }
            eat(b"\n");
        }
        d
    }

    /// The sorted, deduplicated metric names [`Self::digest`] covered —
    /// by construction none starts with [`PROFILING_PREFIX`], which is
    /// what the CI gate greps for.
    pub fn digest_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .entries
            .keys()
            .map(|(n, _)| n.clone())
            .filter(|n| !is_profiling(n))
            .collect();
        names.dedup();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms() {
        let mut r = MetricsRegistry::new();
        r.inc("a_total", &[]);
        r.add("a_total", &[], 4);
        r.set_gauge("g", &[("sw", "3")], 2.5);
        r.observe("h_ns", &[], 100);
        r.observe("h_ns", &[], 200);
        assert_eq!(r.counter("a_total", &[]), Some(5));
        assert_eq!(r.get("g", &[("sw", "3")]), Some(&MetricValue::Gauge(2.5)));
        match r.get("h_ns", &[]).unwrap() {
            MetricValue::Histogram(h) => assert_eq!(h.count(), 2),
            _ => panic!("kind"),
        }
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn labels_are_canonically_sorted() {
        let mut a = MetricsRegistry::new();
        a.inc("x", &[("b", "2"), ("a", "1")]);
        let mut b = MetricsRegistry::new();
        b.inc("x", &[("a", "1"), ("b", "2")]);
        assert_eq!(a, b);
        assert_eq!(a.counter("x", &[("b", "2"), ("a", "1")]), Some(1));
    }

    #[test]
    fn merge_is_order_independent() {
        let build = |n: u64| {
            let mut r = MetricsRegistry::new();
            r.add("c_total", &[], n);
            r.set_gauge("g", &[], n as f64);
            r.observe("h", &[], n * 100);
            r
        };
        let (a, b, c) = (build(1), build(2), build(3));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
        assert_eq!(left.counter("c_total", &[]), Some(6));
        // Gauges take the max — order-independent.
        assert_eq!(left.get("g", &[]), Some(&MetricValue::Gauge(3.0)));
    }

    #[test]
    fn prometheus_exposition_shape() {
        let mut r = MetricsRegistry::new();
        r.add("iba_sim_delivered_total", &[], 42);
        r.set_gauge("iba_sim_vl_occupancy", &[("sw", "0"), ("vl", "1")], 3.0);
        for v in [100u64, 200, 400] {
            r.observe("iba_sim_latency_ns", &[("class", "adaptive")], v);
        }
        let text = r.prometheus();
        assert!(text.contains("# TYPE iba_sim_delivered_total counter\n"));
        assert!(text.contains("iba_sim_delivered_total 42\n"));
        assert!(text.contains("# TYPE iba_sim_vl_occupancy gauge\n"));
        assert!(text.contains("iba_sim_vl_occupancy{sw=\"0\",vl=\"1\"} 3\n"));
        assert!(text.contains("# TYPE iba_sim_latency_ns summary\n"));
        assert!(text.contains("iba_sim_latency_ns{class=\"adaptive\",quantile=\"0.5\"}"));
        assert!(text.contains("iba_sim_latency_ns_count{class=\"adaptive\"} 3\n"));
        assert!(text.contains("iba_sim_latency_ns_sum{class=\"adaptive\"} 700\n"));
    }

    #[test]
    fn jsonl_snapshot_roundtrip() {
        let mut r = MetricsRegistry::new();
        r.add("c_total", &[("k", "v")], 7);
        r.set_gauge("g", &[], 1.25);
        r.observe("h_ns", &[], 12345);
        let mut buf = Vec::new();
        r.write_jsonl_snapshot(&mut buf, 999).unwrap();
        let line = String::from_utf8(buf).unwrap();
        let parsed = Json::parse(line.trim()).unwrap();
        let (at, back) = MetricsRegistry::from_snapshot_json(&parsed).unwrap();
        assert_eq!(at, 999);
        assert_eq!(back, r);
    }

    #[test]
    fn digest_excludes_profiling_namespace() {
        let mut a = MetricsRegistry::new();
        a.add("iba_sim_delivered_total", &[], 10);
        let mut b = a.clone();
        assert_eq!(a.digest(), b.digest());
        // Profiling metrics never move the digest...
        b.add(
            "profiling_engine_barrier_wait_ns_total",
            &[("worker", "0")],
            12345,
        );
        b.set_gauge("profiling_engine_window_width_ns", &[], 7.0);
        assert_eq!(a.digest(), b.digest());
        // ...but sim-time-domain metrics do.
        b.add("iba_sim_delivered_total", &[], 1);
        assert_ne!(a.digest(), b.digest());
        // And the digested-name list never mentions the namespace.
        assert!(b.digest_names().iter().all(|n| !is_profiling(n)));
        assert!(b
            .digest_names()
            .contains(&"iba_sim_delivered_total".to_string()));
    }

    #[test]
    fn label_values_are_escaped() {
        let mut r = MetricsRegistry::new();
        r.inc("x", &[("k", "a\"b\\c")]);
        let text = r.prometheus();
        assert!(text.contains(r#"x{k="a\"b\\c"} 1"#));
    }
}
