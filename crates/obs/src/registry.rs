//! The metrics registry: named counters, gauges, histograms, and
//! closure-based collectors.
//!
//! Components either ask the registry for a handle (`counter`, `gauge`,
//! `histogram` — get-or-create, shared via `Arc`) and update it on their
//! hot path, or keep their own atomics and register a collector closure
//! that is polled at exposition time (`register_counter_fn`,
//! `register_gauge_fn`). Both styles end up in the same sorted sample set,
//! so the rendered output is one coherent view of the whole service.

use std::collections::BTreeMap;
use std::sync::Arc;

use clio_testkit::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use clio_testkit::sync::Mutex;

use crate::hist::{HistSnapshot, Histogram};

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An atomic gauge (a value that can go up and down).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
    CounterFn(Box<dyn Fn() -> u64 + Send + Sync>),
    GaugeFn(Box<dyn Fn() -> i64 + Send + Sync>),
}

/// A registered metric plus the label set it was created with. The map
/// key is the full series identity (`name{k="v",...}`), so differently
/// labeled series of one family are distinct entries that sort together.
struct Entry {
    labels: Vec<(String, String)>,
    metric: Metric,
}

/// Renders `{k="v",...}` with Prometheus escaping, or `""` when empty.
#[must_use]
pub fn label_suffix(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

fn identity(name: &str, labels: &[(String, String)]) -> String {
    let mut id = name.to_owned();
    id.push_str(&label_suffix(labels));
    id
}

/// One gathered metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A counter reading.
    Counter(u64),
    /// A gauge reading.
    Gauge(i64),
    /// A histogram snapshot (boxed: a snapshot is ~500 bytes of buckets,
    /// which would otherwise bloat every counter sample to match).
    Histogram(Box<HistSnapshot>),
}

/// One named sample from [`MetricsRegistry::gather`].
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// The metric family name (see the crate docs for the naming scheme).
    pub name: String,
    /// Label pairs distinguishing this series within its family
    /// (empty for unlabeled metrics).
    pub labels: Vec<(String, String)>,
    /// The value at gather time.
    pub value: MetricValue,
}

impl Sample {
    /// The full series identity: `name{k="v",...}` (or just the name when
    /// unlabeled). Used as the JSON exposition key.
    #[must_use]
    pub fn identity(&self) -> String {
        identity(&self.name, &self.labels)
    }
}

/// A registry of named metrics.
///
/// # Examples
///
/// ```
/// use clio_obs::MetricsRegistry;
///
/// let reg = MetricsRegistry::new();
/// reg.counter("clio_demo_ops_total").add(3);
/// reg.histogram("clio_demo_latency_ns").record(1500);
/// let text = clio_obs::expo::render_prometheus(&reg);
/// assert!(text.contains("clio_demo_ops_total 3"));
/// ```
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Entry>>,
}

fn owned_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
        .collect()
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    #[must_use]
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The counter named `name`, creating it if absent.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind —
    /// that is a wiring bug, not a runtime condition.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_with(name, &[])
    }

    /// The counter series `name{labels…}`, creating it if absent. Series
    /// of one family with different label values are independent counters.
    ///
    /// # Panics
    /// Panics if the series is already registered as a different kind.
    #[must_use]
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let labels = owned_labels(labels);
        let key = identity(name, &labels);
        let mut m = self.metrics.lock();
        match &m
            .entry(key.clone())
            .or_insert_with(|| Entry {
                labels,
                metric: Metric::Counter(Arc::new(Counter::default())),
            })
            .metric
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {key} is not a counter"),
        }
    }

    /// The gauge named `name`, creating it if absent.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauge_with(name, &[])
    }

    /// The gauge series `name{labels…}`, creating it if absent.
    ///
    /// # Panics
    /// Panics if the series is already registered as a different kind.
    #[must_use]
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let labels = owned_labels(labels);
        let key = identity(name, &labels);
        let mut m = self.metrics.lock();
        match &m
            .entry(key.clone())
            .or_insert_with(|| Entry {
                labels,
                metric: Metric::Gauge(Arc::new(Gauge::default())),
            })
            .metric
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {key} is not a gauge"),
        }
    }

    /// The histogram named `name`, creating it if absent.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, &[])
    }

    /// The histogram series `name{labels…}`, creating it if absent.
    ///
    /// # Panics
    /// Panics if the series is already registered as a different kind.
    #[must_use]
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let labels = owned_labels(labels);
        let key = identity(name, &labels);
        let mut m = self.metrics.lock();
        match &m
            .entry(key.clone())
            .or_insert_with(|| Entry {
                labels,
                metric: Metric::Histogram(Arc::new(Histogram::new())),
            })
            .metric
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {key} is not a histogram"),
        }
    }

    /// Registers an existing shared histogram under `name` (for components
    /// that embed their histograms, like `DeviceStats`). Replaces any
    /// previous registration of the name.
    pub fn register_histogram(&self, name: &str, hist: Arc<Histogram>) {
        self.metrics.lock().insert(
            name.to_owned(),
            Entry {
                labels: Vec::new(),
                metric: Metric::Histogram(hist),
            },
        );
    }

    /// Registers a counter collector polled at gather time. Replaces any
    /// previous registration of the name.
    pub fn register_counter_fn(&self, name: &str, f: impl Fn() -> u64 + Send + Sync + 'static) {
        self.metrics.lock().insert(
            name.to_owned(),
            Entry {
                labels: Vec::new(),
                metric: Metric::CounterFn(Box::new(f)),
            },
        );
    }

    /// Registers a gauge collector polled at gather time. Replaces any
    /// previous registration of the name.
    pub fn register_gauge_fn(&self, name: &str, f: impl Fn() -> i64 + Send + Sync + 'static) {
        self.metrics.lock().insert(
            name.to_owned(),
            Entry {
                labels: Vec::new(),
                metric: Metric::GaugeFn(Box::new(f)),
            },
        );
    }

    /// Reads every metric, sorted by series identity (labeled series of
    /// one family sort together, after the unlabeled series if any).
    #[must_use]
    pub fn gather(&self) -> Vec<Sample> {
        let m = self.metrics.lock();
        m.iter()
            .map(|(key, entry)| Sample {
                name: match key.find('{') {
                    Some(brace) => key[..brace].to_owned(),
                    None => key.clone(),
                },
                labels: entry.labels.clone(),
                value: match &entry.metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(Box::new(h.snapshot())),
                    Metric::CounterFn(f) => MetricValue::Counter(f()),
                    Metric::GaugeFn(f) => MetricValue::Gauge(f()),
                },
            })
            .collect()
    }

    /// Number of registered metrics.
    #[must_use]
    pub fn len(&self) -> usize {
        self.metrics.lock().len()
    }

    /// Whether the registry is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("clio_test_ops_total");
        c.inc();
        c.add(4);
        reg.gauge("clio_test_depth").set(-3);
        // Re-asking by name returns the same underlying atomic.
        assert_eq!(reg.counter("clio_test_ops_total").get(), 5);
        let samples = reg.gather();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].name, "clio_test_depth");
        assert_eq!(samples[0].value, MetricValue::Gauge(-3));
        assert_eq!(samples[1].value, MetricValue::Counter(5));
    }

    #[test]
    fn collector_fns_are_polled_at_gather() {
        let reg = MetricsRegistry::new();
        let shared = Arc::new(Counter::default());
        let s2 = shared.clone();
        reg.register_counter_fn("clio_test_shadow_total", move || s2.get());
        shared.add(7);
        let samples = reg.gather();
        assert_eq!(samples[0].value, MetricValue::Counter(7));
        shared.add(1);
        assert_eq!(reg.gather()[0].value, MetricValue::Counter(8));
    }

    #[test]
    fn histograms_register_and_gather() {
        let reg = MetricsRegistry::new();
        reg.histogram("clio_test_latency_ns").record(100);
        let external = Arc::new(Histogram::new());
        external.record(9);
        reg.register_histogram("clio_test_ext_ns", external);
        let samples = reg.gather();
        assert_eq!(samples.len(), 2);
        let MetricValue::Histogram(h) = &samples[0].value else {
            panic!("expected histogram");
        };
        assert_eq!(h.count, 1);
    }

    #[test]
    #[should_panic(expected = "is not a counter")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        let _ = reg.gauge("clio_test_x");
        let _ = reg.counter("clio_test_x");
    }

    #[test]
    fn labeled_series_are_independent_and_identified() {
        let reg = MetricsRegistry::new();
        reg.counter_with("clio_log_appends_total", &[("log", "1")])
            .add(2);
        reg.counter_with("clio_log_appends_total", &[("log", "2")])
            .add(5);
        // Re-asking with the same labels returns the same series.
        assert_eq!(
            reg.counter_with("clio_log_appends_total", &[("log", "1")])
                .get(),
            2
        );
        reg.histogram_with("clio_log_append_ns", &[("log", "1")])
            .record(100);
        let samples = reg.gather();
        assert_eq!(samples.len(), 3);
        let appends: Vec<&Sample> = samples
            .iter()
            .filter(|s| s.name == "clio_log_appends_total")
            .collect();
        assert_eq!(appends.len(), 2);
        assert_eq!(appends[0].labels, vec![("log".to_owned(), "1".to_owned())]);
        assert_eq!(appends[0].identity(), "clio_log_appends_total{log=\"1\"}");
        assert_eq!(appends[0].value, MetricValue::Counter(2));
        assert_eq!(appends[1].value, MetricValue::Counter(5));
    }

    #[test]
    fn label_values_are_escaped() {
        let labels = vec![("k".to_owned(), "a\"b\\c\n".to_owned())];
        assert_eq!(label_suffix(&labels), "{k=\"a\\\"b\\\\c\\n\"}");
        assert_eq!(label_suffix(&[]), "");
    }
}
