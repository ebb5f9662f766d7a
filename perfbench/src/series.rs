//! Latency samples summarised window by window.
//!
//! A run is cut into windows (its rounds). Each closed window keeps only
//! its p50 and p99, and a reported quantile is the median over the
//! windows. A burst of host noise in one window therefore does not move
//! the figure, and memory holds one window's samples however long the run.

/// The `q`-quantile of `v` (nearest rank), or `None` when empty.
pub fn quantile(v: &[u32], q: f64) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_unstable();
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    Some(f64::from(s[rank - 1]))
}

/// The median of `v`, or `None` when empty.
pub fn median(v: &[f64]) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// Latency samples in nanoseconds, summarised per window.
#[derive(Default)]
pub struct Series {
    current: Vec<u32>,
    /// (p50, p99) of each closed window.
    windows: Vec<(f64, f64)>,
    count: u64,
}

impl Series {
    pub fn push(&mut self, ns: u32) {
        self.current.push(ns);
        self.count += 1;
    }

    /// Ends the current window; an empty window is dropped.
    pub fn close(&mut self) {
        if let (Some(p50), Some(p99)) =
            (quantile(&self.current, 0.5), quantile(&self.current, 0.99))
        {
            self.windows.push((p50, p99));
        }
        self.current.clear();
    }

    /// Samples pushed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The median over the windows (the open one included) of the
    /// per-window p50, in µs.
    pub fn p50_us(&self) -> Option<f64> {
        self.over_windows(|w| w.0)
    }

    /// The median over the windows of the per-window p99, in µs.
    pub fn p99_us(&self) -> Option<f64> {
        self.over_windows(|w| w.1)
    }

    fn over_windows(&self, pick: impl Fn(&(f64, f64)) -> f64) -> Option<f64> {
        let mut per: Vec<f64> = self.windows.iter().map(&pick).collect();
        if let (Some(p50), Some(p99)) =
            (quantile(&self.current, 0.5), quantile(&self.current, 0.99))
        {
            per.push(pick(&(p50, p99)));
        }
        median(&per).map(|ns| ns / 1e3)
    }
}
