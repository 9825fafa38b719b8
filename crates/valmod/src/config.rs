//! VALMOD configuration.

use std::sync::Arc;

use valmod_mp::WorkerPool;
use valmod_series::{Result, SeriesError};

use crate::query::Quality;

/// Parameters of a VALMOD run.
///
/// Defaults follow the paper: top-`k = 10` motif pairs per length and
/// `p = 8` entries kept per partial distance profile; the trivial-match
/// exclusion zone is `⌈ℓ/4⌉` as in the matrix-profile papers.
///
/// # Example
///
/// ```
/// use valmod_core::ValmodConfig;
///
/// let config = ValmodConfig::new(64, 128).with_k(5).with_profile_size(16);
/// assert_eq!(config.k, 5);
/// assert_eq!(config.exclusion(64), 16);
/// ```
#[derive(Debug, Clone)]
pub struct ValmodConfig {
    /// Smallest subsequence length `ℓmin`.
    pub l_min: usize,
    /// Largest subsequence length `ℓmax` (inclusive).
    pub l_max: usize,
    /// Number of motif pairs reported per length (top-k).
    pub k: usize,
    /// `p` — entries kept per partial distance profile. Larger values
    /// prune better but cost more memory and per-length work.
    pub profile_size: usize,
    /// Exclusion-zone denominator: windows within `⌈ℓ/den⌉` offsets are
    /// trivial matches.
    pub exclusion_den: usize,
    /// Worker threads for the parallel stage-1/stage-2 paths. Defaults to
    /// the hardware parallelism. Results are **identical for every
    /// value** — the engine's merges are partition-independent — so this
    /// is purely a performance knob.
    pub threads: usize,
    /// Execution quality tier (see [`Quality`]). `Exact` and `Anytime`
    /// produce byte-identical outputs — anytime merely streams VALMAP
    /// previews while stage 1 converges — and code paths that need a full
    /// output treat `Screen` as `Exact` (the screening short-circuit only
    /// engages through [`crate::Query::run`] /
    /// [`crate::screen::screen_series`]).
    pub quality: Quality,
    /// Seed of the anytime tier's shuffled diagonal visiting order.
    /// Results settle byte-identically for every seed; the seed only
    /// shapes the intermediate previews, so two runs with the same seed
    /// stream the same preview sequence.
    pub seed: u64,
    /// The persistent [`WorkerPool`] every parallel phase of this run
    /// dispatches to; `None` uses the process-wide [`WorkerPool::global`].
    /// Purely a performance/ownership knob (results never depend on which
    /// pool carried the threads), so it is ignored by equality.
    pool: Option<Arc<WorkerPool>>,
}

/// Equality compares the algorithmic parameters only; the worker pool is a
/// transport detail that never influences results (see
/// [`ValmodConfig::with_pool`]).
impl PartialEq for ValmodConfig {
    fn eq(&self, other: &Self) -> bool {
        // Exhaustive destructuring: adding a field to the struct fails to
        // compile here until equality explicitly includes or excludes it.
        let Self { l_min, l_max, k, profile_size, exclusion_den, threads, quality, seed, pool: _ } =
            self;
        (*l_min, *l_max, *k, *profile_size, *exclusion_den, *threads, *quality, *seed)
            == (
                other.l_min,
                other.l_max,
                other.k,
                other.profile_size,
                other.exclusion_den,
                other.threads,
                other.quality,
                other.seed,
            )
    }
}

impl Eq for ValmodConfig {}

impl ValmodConfig {
    /// A configuration with paper defaults for the given length range and
    /// all available hardware threads.
    #[must_use]
    pub fn new(l_min: usize, l_max: usize) -> Self {
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Self {
            l_min,
            l_max,
            k: 10,
            profile_size: 8,
            exclusion_den: 4,
            threads,
            quality: Quality::Exact,
            seed: 0,
            pool: None,
        }
    }

    /// Sets the number of motif pairs reported per length.
    #[must_use]
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Sets `p`, the partial-distance-profile size.
    #[must_use]
    pub fn with_profile_size(mut self, p: usize) -> Self {
        self.profile_size = p;
        self
    }

    /// Sets the worker-thread count (clamped to at least 1). `1` forces
    /// the fully serial path.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the execution quality tier (see [`Quality`] and
    /// [`crate::Query`]).
    #[must_use]
    pub fn with_quality(mut self, quality: Quality) -> Self {
        self.quality = quality;
        self
    }

    /// Sets the seed of the anytime tier's shuffled diagonal order
    /// (results settle byte-identically for every seed).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Dispatches every parallel phase of runs under this configuration to
    /// `pool` instead of the process-wide [`WorkerPool::global`] — one
    /// persistent set of parked threads created once and reused across
    /// stage 1, stage 2, discord search, and streaming appends. Results
    /// are **identical for every pool**: the pool only carries the
    /// threads, never the math.
    #[must_use]
    pub fn with_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// The pool runs under this configuration dispatch to: the one set
    /// via [`ValmodConfig::with_pool`], or the process-wide global pool.
    #[must_use]
    pub fn pool(&self) -> &WorkerPool {
        match &self.pool {
            Some(pool) => pool,
            None => WorkerPool::global(),
        }
    }

    /// The trivial-match exclusion half-width at length `l`.
    #[must_use]
    pub fn exclusion(&self, l: usize) -> usize {
        l.div_ceil(self.exclusion_den.max(1)).max(1)
    }

    /// Validates the configuration against a series of length `n`.
    ///
    /// # Errors
    ///
    /// [`SeriesError::InvalidRange`] for a malformed length range,
    /// [`SeriesError::TooShort`] when the series cannot host two
    /// non-trivially-matching windows of `l_max`.
    pub fn validate(&self, n: usize) -> Result<()> {
        if self.l_min < valmod_mp::MIN_WINDOW || self.l_min > self.l_max {
            return Err(SeriesError::InvalidRange { l_min: self.l_min, l_max: self.l_max });
        }
        if self.k == 0 || self.profile_size == 0 || self.exclusion_den == 0 || self.threads == 0 {
            return Err(SeriesError::InvalidRange { l_min: self.l_min, l_max: self.l_max });
        }
        if matches!(self.quality, Quality::Anytime { budget: 0 }) {
            return Err(SeriesError::InvalidRange { l_min: self.l_min, l_max: self.l_max });
        }
        let needed = self.l_max + self.exclusion(self.l_max) + 1;
        if n < needed {
            return Err(SeriesError::TooShort { len: n, needed });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::ValmodConfig;

    #[test]
    fn defaults_match_the_paper() {
        let c = ValmodConfig::new(50, 400);
        assert_eq!(c.k, 10);
        assert_eq!(c.profile_size, 8);
        assert_eq!(c.exclusion(50), 13);
    }

    #[test]
    fn builders_compose() {
        let mut c = ValmodConfig::new(8, 16).with_k(3).with_profile_size(4).with_threads(6);
        c.exclusion_den = 2;
        assert_eq!((c.k, c.profile_size, c.exclusion(8), c.threads), (3, 4, 4, 6));
        // Zero threads clamps to the serial path rather than erroring.
        assert_eq!(ValmodConfig::new(8, 16).with_threads(0).threads, 1);
    }

    #[test]
    fn quality_and_seed_participate_in_equality() {
        use crate::query::Quality;
        let base = ValmodConfig::new(8, 16);
        assert_eq!(base, base.clone());
        assert_ne!(base, base.clone().with_quality(Quality::Anytime { budget: 4 }));
        assert_ne!(base, base.clone().with_seed(7));
        // A zero-round anytime budget is rejected up front.
        assert!(base.clone().with_quality(Quality::Anytime { budget: 0 }).validate(1000).is_err());
        assert!(base.with_quality(Quality::Screen).validate(1000).is_ok());
    }

    #[test]
    fn validation_catches_bad_ranges() {
        assert!(ValmodConfig::new(16, 8).validate(1000).is_err()); // inverted
        assert!(ValmodConfig::new(2, 8).validate(1000).is_err()); // below MIN_WINDOW
        assert!(ValmodConfig::new(8, 16).with_k(0).validate(1000).is_err());
        assert!(ValmodConfig::new(8, 16).with_profile_size(0).validate(1000).is_err());
        assert!(ValmodConfig::new(8, 16).validate(20).is_err()); // series too short
        assert!(ValmodConfig::new(8, 16).validate(1000).is_ok());
    }

    #[test]
    fn exclusion_never_zero() {
        let c = ValmodConfig::new(4, 8);
        assert!(c.exclusion(4) >= 1);
    }
}
