//! The typed query surface: one [`Query`]/[`Quality`] definition shared
//! by the library facade, the `valmod run/profile/stream` CLI flags, and
//! the serve protocol's request parsing.
//!
//! A [`Query`] is a [`ValmodConfig`] builder with a *quality tier*
//! attached:
//!
//! * [`Quality::Exact`] — the eager two-stage VALMOD run (the default);
//! * [`Quality::Anytime`] — stage 1 walks diagonal blocks in a seeded
//!   shuffled order across `budget` rounds, emitting an improving VALMAP
//!   preview per round ([`crate::anytime::AnytimePreview`]) and settling
//!   to the **byte-identical** exact output once every diagonal retires;
//! * [`Quality::Screen`] — a lower-bound-only triage tier: exact stage 1
//!   at `ℓmin`, then every longer length ranked by the admissible lower
//!   bound of [`crate::lb`] without any exact recomputation
//!   ([`crate::screen::screen_series`]).
//!
//! The per-layer knob spellings (`--quality` flags, the serve `preview`
//! verb) all parse through [`parse_quality`], so the tier vocabulary can
//! never drift between layers.

use std::sync::Arc;

use valmod_mp::WorkerPool;
use valmod_series::Result;

use crate::anytime::AnytimePreview;
use crate::config::ValmodConfig;
use crate::screen::ScreenReport;

/// Default number of anytime rounds when a budget is not spelled out
/// (`--quality anytime` without `:N`). Four rounds put the first preview
/// at ~25% of the stage-1 cells — under the repo's ≤30% time-to-first-
/// answer target — while keeping the settling overhead small.
pub const DEFAULT_ANYTIME_BUDGET: usize = 4;

/// Execution quality tier of a VALMOD run.
///
/// Every tier is safe to request anywhere a [`ValmodConfig`] is accepted:
/// `Exact` and `Anytime` produce the same [`crate::ValmodOutput`] bits
/// (anytime merely streams previews on the way), and `Screen` only
/// changes what [`Query::run`] returns — code paths that need a full
/// output (e.g. the streaming engine's snapshots) treat it as `Exact`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Quality {
    /// The eager exact run: all of stage 1, then every length step.
    #[default]
    Exact,
    /// Anytime stage 1: diagonal blocks in a seeded shuffled order,
    /// split into `budget` rounds with a VALMAP preview after each,
    /// settling to the byte-identical exact result.
    Anytime {
        /// Number of preview rounds stage 1 is split into (≥ 1). The
        /// first preview lands after roughly `1/budget` of the cells.
        budget: usize,
    },
    /// Lower-bound-only screening: rank lengths/offsets by the
    /// admissible bound, no exact extension.
    Screen,
}

impl std::fmt::Display for Quality {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Quality::Exact => f.write_str("exact"),
            Quality::Anytime { budget } => write!(f, "anytime:{budget}"),
            Quality::Screen => f.write_str("screen"),
        }
    }
}

/// Parses a quality tier from its canonical spelling: `exact`,
/// `anytime`, `anytime:N` (N ≥ 1 rounds), or `screen`. This is the one
/// parser behind the CLI `--quality` flags and the serve protocol, so
/// every layer accepts exactly the same vocabulary.
///
/// # Errors
///
/// Returns a human-readable message naming the accepted spellings.
pub fn parse_quality(s: &str) -> std::result::Result<Quality, String> {
    match s {
        "exact" => Ok(Quality::Exact),
        "screen" => Ok(Quality::Screen),
        "anytime" => Ok(Quality::Anytime { budget: DEFAULT_ANYTIME_BUDGET }),
        _ => {
            if let Some(rest) = s.strip_prefix("anytime:") {
                match rest.parse::<usize>() {
                    Ok(budget) if budget >= 1 => Ok(Quality::Anytime { budget }),
                    _ => Err(format!("invalid anytime budget {rest:?} (need an integer >= 1)")),
                }
            } else {
                Err(format!(
                    "unknown quality {s:?} (expected exact, anytime, anytime:N, or screen)"
                ))
            }
        }
    }
}

/// What a [`Query`] run produced, by tier.
#[derive(Debug, Clone)]
pub enum QueryOutcome {
    /// A full exact output — from the `Exact` tier, or from `Anytime`
    /// after it settled (byte-identical to the eager run).
    Exact(crate::ValmodOutput),
    /// The `Screen` tier's lower-bound ranking.
    Screen(ScreenReport),
}

impl QueryOutcome {
    /// The full output, when this outcome carries one.
    #[must_use]
    pub fn output(&self) -> Option<&crate::ValmodOutput> {
        match self {
            QueryOutcome::Exact(out) => Some(out),
            QueryOutcome::Screen(_) => None,
        }
    }

    /// The screening report, when this outcome carries one.
    #[must_use]
    pub fn screen(&self) -> Option<&ScreenReport> {
        match self {
            QueryOutcome::Exact(_) => None,
            QueryOutcome::Screen(report) => Some(report),
        }
    }
}

/// The builder that carries a [`ValmodConfig`] plus its [`Quality`] —
/// the typed query surface of the suite.
///
/// # Example
///
/// ```
/// use valmod_core::{Quality, Query};
/// use valmod_series::gen;
///
/// let series = gen::sine_mix(800, &[(60.0, 1.0)], 0.05, 1);
/// let outcome = Query::new(32, 40).k(3).quality(Quality::Exact).run(&series).unwrap();
/// let out = outcome.output().unwrap();
/// assert_eq!(out.per_length.len(), 9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    config: ValmodConfig,
}

impl Query {
    /// A query over the length range `[l_min, l_max]` with paper-default
    /// parameters and the `Exact` tier.
    #[must_use]
    pub fn new(l_min: usize, l_max: usize) -> Self {
        Self { config: ValmodConfig::new(l_min, l_max) }
    }

    /// Wraps an existing configuration (its quality tier included).
    #[must_use]
    pub fn from_config(config: ValmodConfig) -> Self {
        Self { config }
    }

    /// Sets the number of motif pairs reported per length.
    #[must_use]
    pub fn k(mut self, k: usize) -> Self {
        self.config.k = k;
        self
    }

    /// Sets `p`, the partial-distance-profile size.
    #[must_use]
    pub fn profile_size(mut self, p: usize) -> Self {
        self.config.profile_size = p;
        self
    }

    /// Sets the exclusion-zone denominator (`⌈ℓ/den⌉`).
    #[must_use]
    pub fn exclusion_den(mut self, den: usize) -> Self {
        self.config.exclusion_den = den;
        self
    }

    /// Sets the worker-thread count (clamped to at least 1).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads.max(1);
        self
    }

    /// Dispatches every parallel phase to `pool` instead of the
    /// process-wide global pool.
    #[must_use]
    pub fn pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.config = self.config.with_pool(pool);
        self
    }

    /// Sets the quality tier.
    #[must_use]
    pub fn quality(mut self, quality: Quality) -> Self {
        self.config.quality = quality;
        self
    }

    /// Sets the seed of the anytime tier's shuffled diagonal order.
    /// Results settle byte-identically for every seed; the seed only
    /// shapes the intermediate previews.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// The underlying configuration.
    #[must_use]
    pub fn config(&self) -> &ValmodConfig {
        &self.config
    }

    /// Consumes the builder, returning the configuration — the bridge to
    /// every API that still takes a [`ValmodConfig`].
    #[must_use]
    pub fn into_config(self) -> ValmodConfig {
        self.config
    }

    /// Runs the query, dispatching on the quality tier. Anytime previews
    /// are discarded; use [`Query::run_with_preview`] to observe them.
    ///
    /// # Errors
    ///
    /// Returns a [`valmod_series::SeriesError`] when the configuration is
    /// invalid for this series.
    pub fn run(&self, series: &[f64]) -> Result<QueryOutcome> {
        self.run_with_preview(series, |_| {})
    }

    /// Runs the query, invoking `on_preview` after every anytime round
    /// (never for `Exact`/`Screen`).
    ///
    /// # Errors
    ///
    /// Returns a [`valmod_series::SeriesError`] when the configuration is
    /// invalid for this series.
    pub fn run_with_preview(
        &self,
        series: &[f64],
        mut on_preview: impl FnMut(&AnytimePreview),
    ) -> Result<QueryOutcome> {
        match self.config.quality {
            Quality::Screen => {
                Ok(QueryOutcome::Screen(crate::screen::screen_series(series, &self.config)?))
            }
            _ => Ok(QueryOutcome::Exact(crate::algo::run_valmod_observed(
                series,
                &self.config,
                &mut on_preview,
            )?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_canonical_spellings() {
        assert_eq!(parse_quality("exact").unwrap(), Quality::Exact);
        assert_eq!(parse_quality("screen").unwrap(), Quality::Screen);
        assert_eq!(
            parse_quality("anytime").unwrap(),
            Quality::Anytime { budget: DEFAULT_ANYTIME_BUDGET }
        );
        assert_eq!(parse_quality("anytime:7").unwrap(), Quality::Anytime { budget: 7 });
    }

    #[test]
    fn parse_rejects_malformed_tiers() {
        assert!(parse_quality("anytime:0").is_err());
        assert!(parse_quality("anytime:x").is_err());
        assert!(parse_quality("fast").is_err());
        assert!(parse_quality("").is_err());
        assert!(parse_quality("Exact").is_err());
    }

    #[test]
    fn display_round_trips_through_parse() {
        for q in [Quality::Exact, Quality::Screen, Quality::Anytime { budget: 5 }] {
            assert_eq!(parse_quality(&q.to_string()).unwrap(), q);
        }
    }

    #[test]
    fn builder_carries_the_tier_into_the_config() {
        let q = Query::new(8, 16).k(2).threads(3).quality(Quality::Anytime { budget: 6 }).seed(9);
        let c = q.config();
        assert_eq!(c.k, 2);
        assert_eq!(c.threads, 3);
        assert_eq!(c.quality, Quality::Anytime { budget: 6 });
        assert_eq!(c.seed, 9);
    }
}
