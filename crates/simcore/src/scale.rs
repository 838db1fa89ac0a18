//! Experiment scaling.
//!
//! The paper monitors 1.5M → 3.1M FQDNs over 3.5 years. A laptop-scale
//! reproduction runs the identical pipeline over a world scaled down by a
//! configurable factor; absolute counts scale linearly while the *shapes* the
//! paper's claims rest on (ratios, distributions, rankings, crossovers) are
//! preserved.

use serde::{Deserialize, Serialize};

/// A linear down-scaling factor applied to population sizes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Scale {
    /// Denominator: `Scale::new(100)` simulates 1/100 of the paper's world.
    pub denominator: u32,
}

impl Scale {
    /// The paper's own scale (1:1). Only for the brave.
    pub const FULL: Scale = Scale { denominator: 1 };

    /// Default reproduction scale (1:100), sized so the full longitudinal
    /// scenario plus every analysis runs in seconds.
    pub const DEFAULT: Scale = Scale { denominator: 100 };

    pub fn new(denominator: u32) -> Self {
        assert!(denominator > 0, "scale denominator must be positive");
        Self { denominator }
    }

    /// Scale a paper-reported population count down, rounding to nearest and
    /// keeping at least 1 whenever the paper's count was nonzero.
    pub fn apply(&self, paper_count: u64) -> u64 {
        if paper_count == 0 {
            return 0;
        }
        let scaled = (paper_count as f64 / self.denominator as f64).round() as u64;
        scaled.max(1)
    }

    /// Multiply a measured count back up to paper-equivalent units for
    /// side-by-side reporting.
    pub fn project_up(&self, measured: u64) -> u64 {
        measured * self.denominator as u64
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale::DEFAULT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scale_is_identity() {
        assert_eq!(Scale::FULL.apply(12345), 12345);
    }

    #[test]
    fn rounds_and_floors_at_one() {
        let s = Scale::new(100);
        assert_eq!(s.apply(1_508_273), 15083);
        assert_eq!(s.apply(50), 1); // nonzero stays nonzero
        assert_eq!(s.apply(0), 0);
        assert_eq!(s.apply(150), 2);
    }

    #[test]
    fn project_up_inverts_order_of_magnitude() {
        let s = Scale::new(100);
        assert_eq!(s.project_up(s.apply(20_904)), 20_900);
    }

    #[test]
    #[should_panic]
    fn zero_denominator_rejected() {
        Scale::new(0);
    }
}
