//! The fixed slice-profile set on the 7-slot MIG grid.

use serde::{Deserialize, Serialize};

/// Number of slots in a device's slice grid (the A100's seven compute
/// slices; memory is carved proportionally, so one slot is 1/7 of both
/// axes).
pub const SLOTS_PER_GPU: u8 = 7;

/// A slice profile: how many contiguous grid slots a slice spans.
///
/// The profile set mirrors the A100 MIG geometry (1g/2g/3g/4g/7g): each
/// profile may only *start* at certain slots, which is what makes spatial
/// packing fragment — freeing the wrong slice can leave four free slots
/// on which no 4-slot profile is placeable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Profile {
    /// 1/7 of the device (one slot).
    P1,
    /// 2/7 of the device (two slots).
    P2,
    /// 3/7 of the device (three slots).
    P3,
    /// 4/7 of the device (four slots).
    P4,
    /// The whole device (seven slots).
    P7,
}

impl Profile {
    /// Every profile, smallest first.
    pub const ALL: [Profile; 5] = [
        Profile::P1,
        Profile::P2,
        Profile::P3,
        Profile::P4,
        Profile::P7,
    ];

    /// Grid slots the profile spans.
    pub fn slots(self) -> u8 {
        match self {
            Profile::P1 => 1,
            Profile::P2 => 2,
            Profile::P3 => 3,
            Profile::P4 => 4,
            Profile::P7 => 7,
        }
    }

    /// Fraction of the device (both compute and memory) the profile owns.
    pub fn frac(self) -> f64 {
        f64::from(self.slots()) / f64::from(SLOTS_PER_GPU)
    }

    /// Legal start slots on the grid, in ascending order. Mirrors the
    /// A100 placement rules: small profiles are flexible, large ones are
    /// pinned — a 4-slot slice only ever starts at slot 0.
    pub fn allowed_starts(self) -> &'static [u8] {
        match self {
            Profile::P1 => &[0, 1, 2, 3, 4, 5, 6],
            Profile::P2 => &[0, 2, 4],
            Profile::P3 => &[0, 4],
            Profile::P4 => &[0],
            Profile::P7 => &[0],
        }
    }

    /// Smallest profile covering a fractional demand on both axes, i.e.
    /// the slice a request `max(gpu_request, gpu_mem) == demand` needs.
    /// `None` when the demand exceeds a whole device.
    ///
    /// Allows `1e-9` of float slack so a demand of exactly `k/7`, computed
    /// in floating point, maps to the k-slot profile.
    pub fn smallest_covering(demand: f64) -> Option<Profile> {
        if demand > 1.0 + 1e-9 {
            return None;
        }
        Profile::ALL.into_iter().find(|p| demand <= p.frac() + 1e-9)
    }

    /// Quantisation waste of serving `demand` with this profile:
    /// `frac() − demand`, clamped at zero.
    pub fn waste(self, demand: f64) -> f64 {
        (self.frac() - demand).max(0.0)
    }
}

impl std::fmt::Display for Profile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}g", self.slots())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covering_profile_rounds_up() {
        assert_eq!(Profile::smallest_covering(0.0), Some(Profile::P1));
        assert_eq!(Profile::smallest_covering(0.1), Some(Profile::P1));
        assert_eq!(Profile::smallest_covering(1.0 / 7.0), Some(Profile::P1));
        assert_eq!(Profile::smallest_covering(0.15), Some(Profile::P2));
        assert_eq!(Profile::smallest_covering(0.3), Some(Profile::P3));
        assert_eq!(Profile::smallest_covering(3.0 / 7.0), Some(Profile::P3));
        assert_eq!(Profile::smallest_covering(0.5), Some(Profile::P4));
        assert_eq!(Profile::smallest_covering(0.6), Some(Profile::P7));
        assert_eq!(Profile::smallest_covering(1.0), Some(Profile::P7));
        assert_eq!(Profile::smallest_covering(1.1), None);
    }

    #[test]
    fn starts_are_legal_and_in_bounds() {
        for p in Profile::ALL {
            for &s in p.allowed_starts() {
                assert!(s + p.slots() <= SLOTS_PER_GPU, "{p} start {s} overflows");
            }
        }
    }

    #[test]
    fn fractions_sum_on_grid() {
        assert!((Profile::P7.frac() - 1.0).abs() < 1e-12);
        assert!((Profile::P1.frac() * 7.0 - 1.0).abs() < 1e-12);
    }
}
