//! Cluster configuration and the paper's feasibility conditions.

use std::fmt;

/// The resilience and population parameters of one register deployment:
/// `S` servers of which `t` may fail (`b ≤ t` maliciously), `R` readers and
/// `W` writers.
///
/// The paper's results, as predicates on this configuration:
///
/// * crash-stop fast feasibility (`b = 0`, `W = 1`): `R < S/t − 2`,
///   i.e. `S > (R + 2)·t` — [`ClusterConfig::fast_feasible`];
/// * arbitrary-failure fast feasibility (`W = 1`):
///   `S > (R + 2)·t + (R + 1)·b`;
/// * `W ≥ 2`: never fast-feasible (§7), whatever the other parameters.
///
/// # Examples
///
/// ```
/// use fastreg::config::ClusterConfig;
///
/// // 5 servers, 1 crash-faulty, 2 readers: 2 < 5/1 − 2 = 3 → fast.
/// let c = ClusterConfig::crash_stop(5, 1, 2).unwrap();
/// assert!(c.fast_feasible());
///
/// // 3 readers hit the bound exactly: not fast.
/// let c = ClusterConfig::crash_stop(5, 1, 3).unwrap();
/// assert!(!c.fast_feasible());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ClusterConfig {
    /// Number of servers `S`.
    pub s: u32,
    /// Maximum faulty servers `t`.
    pub t: u32,
    /// Maximum malicious servers `b ≤ t` (0 in the crash-stop model).
    pub b: u32,
    /// Number of readers `R`.
    pub r: u32,
    /// Number of writers `W` (1 for SWMR).
    pub w: u32,
}

/// Rejected configurations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `S` must be at least 1.
    NoServers,
    /// `t` may not exceed `S`.
    TooManyFaults {
        /// Given `t`.
        t: u32,
        /// Given `S`.
        s: u32,
    },
    /// `b` may not exceed `t`.
    ByzantineExceedsFaults {
        /// Given `b`.
        b: u32,
        /// Given `t`.
        t: u32,
    },
    /// At least one writer is required.
    NoWriters,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoServers => write!(f, "at least one server is required"),
            ConfigError::TooManyFaults { t, s } => {
                write!(f, "t = {t} faulty servers exceeds S = {s}")
            }
            ConfigError::ByzantineExceedsFaults { b, t } => {
                write!(f, "b = {b} malicious servers exceeds t = {t}")
            }
            ConfigError::NoWriters => write!(f, "at least one writer is required"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl ClusterConfig {
    /// A SWMR crash-stop configuration (`b = 0`, `W = 1`).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the parameters are inconsistent.
    pub fn crash_stop(s: u32, t: u32, r: u32) -> Result<Self, ConfigError> {
        Self::validated(ClusterConfig {
            s,
            t,
            b: 0,
            r,
            w: 1,
        })
    }

    /// A SWMR arbitrary-failure configuration (`W = 1`).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the parameters are inconsistent.
    pub fn byzantine(s: u32, t: u32, b: u32, r: u32) -> Result<Self, ConfigError> {
        Self::validated(ClusterConfig { s, t, b, r, w: 1 })
    }

    /// A multi-writer crash-stop configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the parameters are inconsistent.
    pub fn mwmr(s: u32, t: u32, w: u32, r: u32) -> Result<Self, ConfigError> {
        Self::validated(ClusterConfig { s, t, b: 0, r, w })
    }

    fn validated(cfg: ClusterConfig) -> Result<Self, ConfigError> {
        if cfg.s == 0 {
            return Err(ConfigError::NoServers);
        }
        if cfg.t > cfg.s {
            return Err(ConfigError::TooManyFaults { t: cfg.t, s: cfg.s });
        }
        if cfg.b > cfg.t {
            return Err(ConfigError::ByzantineExceedsFaults { b: cfg.b, t: cfg.t });
        }
        if cfg.w == 0 {
            return Err(ConfigError::NoWriters);
        }
        Ok(cfg)
    }

    /// The quorum size `S − t`: the most replies any operation may wait
    /// for without risking non-termination.
    pub(crate) fn quorum(&self) -> u32 {
        self.s - self.t
    }

    /// The paper's fast-feasibility condition for this configuration.
    ///
    /// * `W ≥ 2`: `false` (Proposition 11).
    /// * `t = 0`: `true` (no server ever misses a write; with `b = 0` the
    ///   bound `R < S/t − 2` is vacuous).
    /// * `b = 0`: `S > (R + 2)·t` — equivalently `R < S/t − 2`.
    /// * `b > 0`: `S > (R + 2)·t + (R + 1)·b` — equivalently
    ///   `R < (S + b)/(t + b) − 2`.
    pub fn fast_feasible(&self) -> bool {
        if self.w >= 2 {
            return false;
        }
        if self.t == 0 && self.b == 0 {
            return true;
        }
        let s = self.s as u64;
        let t = self.t as u64;
        let b = self.b as u64;
        let r = self.r as u64;
        s > (r + 2) * t + (r + 1) * b
    }

    /// The largest reader count for which this `(S, t, b)` is fast-feasible
    /// (`None` if even one reader is infeasible; `u32::MAX` when `t = 0`).
    pub fn max_fast_readers(&self) -> Option<u32> {
        if self.w >= 2 {
            return None;
        }
        if self.t == 0 && self.b == 0 {
            return Some(u32::MAX);
        }
        // Largest r with s > (r+2)t + (r+1)b, i.e. r < (s + b)/(t + b) − 2.
        let s = self.s as i64;
        let t = self.t as i64;
        let b = self.b as i64;
        // ceil-free integer search is clearest and cheap.
        let mut best: Option<u32> = None;
        let mut r: i64 = 0;
        while s > (r + 2) * t + (r + 1) * b {
            best = Some(r as u32);
            r += 1;
        }
        best
    }

    /// Whether a *regular* register has a fast implementation here (§8):
    /// `t < S/2`, irrespective of `R`.
    pub fn fast_regular_feasible(&self) -> bool {
        self.w == 1 && 2 * self.t < self.s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_bad_shapes() {
        assert_eq!(
            ClusterConfig::crash_stop(0, 0, 1),
            Err(ConfigError::NoServers)
        );
        assert_eq!(
            ClusterConfig::crash_stop(3, 4, 1),
            Err(ConfigError::TooManyFaults { t: 4, s: 3 })
        );
        assert_eq!(
            ClusterConfig::byzantine(9, 1, 2, 1),
            Err(ConfigError::ByzantineExceedsFaults { b: 2, t: 1 })
        );
        assert_eq!(ClusterConfig::mwmr(3, 1, 0, 1), Err(ConfigError::NoWriters));
    }

    #[test]
    fn error_messages_render() {
        for e in [
            ConfigError::NoServers,
            ConfigError::TooManyFaults { t: 2, s: 1 },
            ConfigError::ByzantineExceedsFaults { b: 2, t: 1 },
            ConfigError::NoWriters,
        ] {
            assert!(!format!("{e}").is_empty());
        }
    }

    #[test]
    fn crash_bound_matches_paper_examples() {
        // The paper's running example: S = 5, t = 1 supports R < 3.
        assert!(ClusterConfig::crash_stop(5, 1, 1).unwrap().fast_feasible());
        assert!(ClusterConfig::crash_stop(5, 1, 2).unwrap().fast_feasible());
        assert!(!ClusterConfig::crash_stop(5, 1, 3).unwrap().fast_feasible());
        // Two readers need S > 4t: with t < S/2 alone (ABD's bound) fast is
        // impossible — e.g. S = 5, t = 2.
        assert!(!ClusterConfig::crash_stop(5, 2, 2).unwrap().fast_feasible());
    }

    #[test]
    fn byz_bound_matches_formula() {
        // S > (R+2)t + (R+1)b. R = 1, t = 1, b = 1: S > 3 + 2 = 5.
        assert!(!ClusterConfig::byzantine(5, 1, 1, 1)
            .unwrap()
            .fast_feasible());
        assert!(ClusterConfig::byzantine(6, 1, 1, 1)
            .unwrap()
            .fast_feasible());
        // b = 0 reduces to the crash bound.
        assert_eq!(
            ClusterConfig::byzantine(5, 1, 0, 2)
                .unwrap()
                .fast_feasible(),
            ClusterConfig::crash_stop(5, 1, 2).unwrap().fast_feasible()
        );
    }

    #[test]
    fn mwmr_is_never_fast() {
        let c = ClusterConfig::mwmr(100, 1, 2, 2).unwrap();
        assert!(!c.fast_feasible());
        assert_eq!(c.max_fast_readers(), None);
    }

    #[test]
    fn t_zero_is_always_fast() {
        let c = ClusterConfig::crash_stop(3, 0, 1000).unwrap();
        assert!(c.fast_feasible());
        assert_eq!(c.max_fast_readers(), Some(u32::MAX));
    }

    #[test]
    fn max_fast_readers_is_tight() {
        for (s, t, b) in [
            (5u32, 1u32, 0u32),
            (10, 2, 0),
            (9, 1, 1),
            (20, 3, 3),
            (4, 1, 0),
        ] {
            let base = ClusterConfig::byzantine(s, t, b, 0).unwrap();
            let with_readers = |r| ClusterConfig { r, ..base };
            match base.max_fast_readers() {
                Some(max_r) => {
                    assert!(with_readers(max_r).fast_feasible(), "({s},{t},{b})");
                    assert!(!with_readers(max_r + 1).fast_feasible(), "({s},{t},{b})");
                }
                None => {
                    assert!(!with_readers(0).fast_feasible());
                }
            }
        }
    }

    #[test]
    fn quorum_is_s_minus_t() {
        assert_eq!(ClusterConfig::crash_stop(5, 2, 1).unwrap().quorum(), 3);
    }

    #[test]
    fn regular_feasibility_is_majority() {
        assert!(ClusterConfig::crash_stop(5, 2, 100)
            .unwrap()
            .fast_regular_feasible());
        assert!(!ClusterConfig::crash_stop(4, 2, 1)
            .unwrap()
            .fast_regular_feasible());
    }

    #[test]
    fn one_reader_needs_s_greater_than_3t() {
        // R = 1: S > 3t. The single-reader discussion in §1.
        assert!(ClusterConfig::crash_stop(4, 1, 1).unwrap().fast_feasible());
        assert!(!ClusterConfig::crash_stop(3, 1, 1).unwrap().fast_feasible());
    }
}
