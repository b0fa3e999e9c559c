//! Latency vs accepted-traffic curves (the shape of Figure 3).
//!
//! A [`Curve`] is a sequence of measurement points taken at increasing
//! offered load. The paper's throughput metric is the *saturation
//! throughput*: the highest accepted traffic the network sustains. On an
//! open-loop sweep the accepted traffic grows with offered load until the
//! knee, then flattens (or dips slightly); latency explodes past the
//! knee.

/// One measurement point of a load sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CurvePoint {
    /// Offered load (injected bytes/ns/switch, i.e. hosts-per-switch ×
    /// per-host rate).
    pub offered: f64,
    /// Accepted traffic (bytes/ns/switch).
    pub accepted: f64,
    /// Mean packet latency (ns). May be `NaN` when nothing was measured.
    pub avg_latency_ns: f64,
}

/// A latency/throughput curve, ordered by offered load.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Curve {
    points: Vec<CurvePoint>,
}

impl Curve {
    /// Empty curve.
    pub fn new() -> Curve {
        Curve::default()
    }

    /// Append a point; offered loads must be strictly increasing.
    pub fn push(&mut self, point: CurvePoint) {
        if let Some(last) = self.points.last() {
            assert!(
                point.offered > last.offered,
                "points must be pushed in increasing offered-load order"
            );
        }
        self.points.push(point);
    }

    /// The measurement points.
    pub fn points(&self) -> &[CurvePoint] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the curve has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Saturation throughput: the maximum accepted traffic over the
    /// sweep. `None` on an empty curve.
    pub fn saturation_throughput(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|p| p.accepted)
            .max_by(|a, b| a.total_cmp(b))
    }

    /// Whether the network kept up at the lowest load (accepted ≈
    /// offered within `tol` relative error) — a sanity check for sweeps.
    pub fn low_load_accepts_offered(&self, tol: f64) -> bool {
        self.points
            .first()
            .map(|p| (p.accepted - p.offered).abs() <= tol * p.offered)
            .unwrap_or(false)
    }
}

impl FromIterator<CurvePoint> for Curve {
    fn from_iter<T: IntoIterator<Item = CurvePoint>>(iter: T) -> Curve {
        let mut c = Curve::new();
        for p in iter {
            c.push(p);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(offered: f64, accepted: f64, lat: f64) -> CurvePoint {
        CurvePoint {
            offered,
            accepted,
            avg_latency_ns: lat,
        }
    }

    fn typical() -> Curve {
        // Linear region, knee, then flat with a slight post-saturation dip.
        [
            pt(0.01, 0.0100, 500.0),
            pt(0.02, 0.0200, 520.0),
            pt(0.04, 0.0399, 600.0),
            pt(0.08, 0.0610, 2500.0),
            pt(0.16, 0.0595, 30000.0),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn saturation_is_the_peak_accepted() {
        let c = typical();
        assert_eq!(c.saturation_throughput(), Some(0.0610));
    }

    #[test]
    fn low_load_check() {
        assert!(typical().low_load_accepts_offered(0.05));
        let bad: Curve = [pt(0.01, 0.005, 100.0)].into_iter().collect();
        assert!(!bad.low_load_accepts_offered(0.05));
    }

    #[test]
    fn empty_curve_yields_none() {
        let c = Curve::new();
        assert!(c.saturation_throughput().is_none());
        assert!(!c.low_load_accepts_offered(0.1));
        assert!(c.is_empty());
    }

    #[test]
    #[should_panic(expected = "increasing offered-load")]
    fn unordered_points_panic() {
        let mut c = Curve::new();
        c.push(pt(0.02, 0.02, 1.0));
        c.push(pt(0.01, 0.01, 1.0));
    }

    #[test]
    fn len_and_points_access() {
        let c = typical();
        assert_eq!(c.len(), 5);
        assert_eq!(c.points()[1].offered, 0.02);
    }
}
