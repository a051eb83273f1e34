//! Regional content behaviour (§4.3).
//!
//! Two findings in the paper are *content* effects, not path effects:
//!
//! * Chrome through the Japanese exit fetched ~20 % fewer bytes because the
//!   ads served at that location were systematically smaller — which showed
//!   up as lower energy (Fig. 6).
//! * Google's Lite Pages were enabled by default in South Africa and Japan
//!   (the experimenters turned the feature off; none of the tested pages
//!   supported it anyway).
//!
//! This module is the catalog that tells a browser workload what the
//! network at a given region serves.

use serde::Serialize;

use crate::vpn::VpnLocation;

/// Where the vantage point's traffic egresses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum Region {
    /// No tunnel: the vantage point's own location (Imperial College, UK).
    Local,
    /// Tunnelled through a VPN exit.
    Vpn(VpnLocation),
}

impl Region {
    /// Human-readable label.
    pub fn label(self) -> String {
        match self {
            Region::Local => "UK (local)".to_string(),
            Region::Vpn(loc) => loc.country().to_string(),
        }
    }
}

/// What the ad ecosystem serves at a region.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct RegionalContent {
    /// Multiplier on ad payload bytes relative to the UK baseline.
    pub ad_size_factor: f64,
    /// Multiplier on ad-driven script execution cost.
    pub ad_cpu_factor: f64,
    /// Whether Chrome's Lite Pages proxy is enabled by default here.
    pub lite_pages_default: bool,
}

impl RegionalContent {
    /// Catalog lookup for a region.
    pub fn for_region(region: Region) -> RegionalContent {
        match region {
            // The Japan exit serves systematically smaller ads — the ~20 %
            // traffic reduction the paper observed for Chrome (Fig. 6).
            Region::Vpn(VpnLocation::Japan) => RegionalContent {
                ad_size_factor: 0.55,
                ad_cpu_factor: 0.70,
                lite_pages_default: true,
            },
            Region::Vpn(VpnLocation::SouthAfrica) => RegionalContent {
                ad_size_factor: 0.95,
                ad_cpu_factor: 0.97,
                lite_pages_default: true,
            },
            Region::Vpn(VpnLocation::China) => RegionalContent {
                ad_size_factor: 0.92,
                ad_cpu_factor: 0.95,
                lite_pages_default: false,
            },
            Region::Vpn(VpnLocation::Brazil) => RegionalContent {
                ad_size_factor: 1.02,
                ad_cpu_factor: 1.0,
                lite_pages_default: false,
            },
            Region::Vpn(VpnLocation::California) => RegionalContent {
                ad_size_factor: 1.05,
                ad_cpu_factor: 1.02,
                lite_pages_default: false,
            },
            Region::Local => RegionalContent {
                ad_size_factor: 1.0,
                ad_cpu_factor: 1.0,
                lite_pages_default: false,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn japan_serves_noticeably_smaller_ads() {
        let jp = RegionalContent::for_region(Region::Vpn(VpnLocation::Japan));
        let uk = RegionalContent::for_region(Region::Local);
        assert!(jp.ad_size_factor < uk.ad_size_factor * 0.7);
    }

    #[test]
    fn lite_pages_default_in_sa_and_japan_only() {
        for &loc in &VpnLocation::ALL {
            let c = RegionalContent::for_region(Region::Vpn(loc));
            let expected = matches!(loc, VpnLocation::Japan | VpnLocation::SouthAfrica);
            assert_eq!(c.lite_pages_default, expected, "{loc}");
        }
        assert!(!RegionalContent::for_region(Region::Local).lite_pages_default);
    }

    #[test]
    fn other_regions_near_baseline() {
        for &loc in &[
            VpnLocation::SouthAfrica,
            VpnLocation::China,
            VpnLocation::Brazil,
            VpnLocation::California,
        ] {
            let c = RegionalContent::for_region(Region::Vpn(loc));
            assert!(
                (c.ad_size_factor - 1.0).abs() < 0.1,
                "{loc} should be near UK baseline"
            );
        }
    }

    #[test]
    fn labels() {
        assert_eq!(Region::Local.label(), "UK (local)");
        assert_eq!(Region::Vpn(VpnLocation::Brazil).label(), "Brazil");
    }
}
