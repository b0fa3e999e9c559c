//! Experiment fidelity presets.
//!
//! Every experiment supports two fidelities:
//!
//! * **Quick** (default) — a scaled-down run that preserves every
//!   qualitative shape the paper reports but finishes in minutes on a
//!   laptop: fewer topologies per size, shorter measurement windows,
//!   coarser rate grids.
//! * **Full** — the paper's methodology: ten random topologies per
//!   configuration and long measurement windows. Minutes, not hours:
//!   on a 2-core host (release build) full Figure 3 takes 146 s and
//!   full Table 1 166 s.

use iba_core::SimTime;
use iba_sim::SimConfig;

/// Fidelity preset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fidelity {
    /// Scaled-down but shape-preserving.
    Quick,
    /// The paper's methodology (10 topologies, long windows).
    Full,
}

impl std::str::FromStr for Fidelity {
    type Err = &'static str;

    /// The `--fidelity` flag's vocabulary.
    fn from_str(s: &str) -> Result<Fidelity, &'static str> {
        let presets = [Fidelity::Quick, Fidelity::Full];
        presets
            .into_iter()
            .find(|f| f.name() == s)
            .ok_or("expected quick or full")
    }
}

impl Fidelity {
    /// The `--fidelity` flag's word for this preset.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Fidelity::Quick => "quick",
            Fidelity::Full => "full",
        }
    }

    /// Topologies per configuration ("ten different topologies will be
    /// randomly generated for each network size").
    pub fn topologies(self) -> u64 {
        match self {
            Fidelity::Quick => 3,
            Fidelity::Full => 10,
        }
    }

    /// The simulator configuration at this fidelity.
    pub fn sim_config(self, seed: u64) -> SimConfig {
        match self {
            Fidelity::Quick => SimConfig {
                warmup: SimTime::from_us(20),
                measure_window: SimTime::from_us(80),
                ..SimConfig::paper(seed)
            },
            Fidelity::Full => SimConfig::paper(seed),
        }
    }

    /// Offered-load grid (bytes/ns/switch of *offered* traffic) for
    /// saturation sweeps. Geometric with ~√2 steps, spanning from well
    /// under up\*/down\* saturation of a 64-switch network to beyond
    /// adaptive saturation of an 8-switch one.
    pub(crate) fn offered_grid(self) -> Vec<f64> {
        let (lo, hi, steps) = match self {
            Fidelity::Quick => (0.008f64, 0.7f64, 10usize),
            Fidelity::Full => (0.004, 0.9, 16),
        };
        geometric_grid(lo, hi, steps)
    }

    /// Number of extra low-load points for latency-curve rendering
    /// (Figure 3 needs the flat region too).
    pub fn curve_grid(self) -> Vec<f64> {
        let (lo, hi, steps) = match self {
            Fidelity::Quick => (0.004f64, 0.7f64, 12usize),
            Fidelity::Full => (0.002, 0.9, 20),
        };
        geometric_grid(lo, hi, steps)
    }
}

/// `steps` points from `lo` to `hi`, geometrically spaced.
///
/// The power is `powf`, not `powi`: rustc's `powi` is a multiply chain
/// at run time but `pow` when the optimiser folds it, so a grid the
/// compiler happens to fold in one build and not in the next would move
/// in its last bits. `powf` is `pow` either way.
pub(crate) fn geometric_grid(lo: f64, hi: f64, steps: usize) -> Vec<f64> {
    assert!(steps >= 2 && lo > 0.0 && hi > lo);
    let ratio = (hi / lo).powf(1.0 / (steps - 1) as f64);
    (0..steps).map(|i| lo * ratio.powf(i as f64)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_flags() {
        assert_eq!("quick".parse(), Ok(Fidelity::Quick));
        assert_eq!("full".parse(), Ok(Fidelity::Full));
        assert!("bogus".parse::<Fidelity>().is_err());
    }

    #[test]
    fn full_has_paper_parameters() {
        assert_eq!(Fidelity::Full.topologies(), 10);
        let cfg = Fidelity::Full.sim_config(1);
        assert_eq!(cfg.warmup, SimTime::from_us(60));
    }

    #[test]
    fn grids_are_increasing_and_span() {
        for f in [Fidelity::Quick, Fidelity::Full] {
            for grid in [f.offered_grid(), f.curve_grid()] {
                assert!(grid.windows(2).all(|w| w[0] < w[1]));
                assert!(grid.len() >= 8);
            }
        }
    }

    /// The quick curve grid, bit for bit, as the committed artifacts
    /// print it: `lo · pow(ratio, i)`. `powi` read other last bits here
    /// whenever the optimiser left it unfolded — a debug build always.
    #[test]
    fn the_curve_grid_is_pow_exact() {
        let want = [
            0.004,
            0.00639694388756158,
            0.010230222775152866,
            0.016360540262476846,
            0.0261643645073141,
            0.041842992901749025,
            0.06691681942003148,
            0.10701578474100812,
            0.17114349251789943,
            0.2736988295895794,
            0.43770901374395466,
            0.6999999999999996,
        ];
        assert_eq!(Fidelity::Quick.curve_grid(), want);
    }

    #[test]
    fn geometric_grid_endpoints() {
        let g = geometric_grid(0.01, 0.16, 5);
        assert!((g[0] - 0.01).abs() < 1e-12);
        assert!((g[4] - 0.16).abs() < 1e-9);
        assert!((g[2] - 0.04).abs() < 1e-9); // exact midpoint of ×2 steps
    }
}
