//! The static metric registry: every metric the suite exports, in one
//! const-initialized `static`.
//!
//! A fixed registry beats a dynamic one here on every axis that
//! matters: recording is a field access plus one relaxed atomic (no
//! hash lookup, no lock, no registration race), the full metric set is
//! visible in one place for the README reference table, and the
//! renderers iterate a const descriptor table instead of a concurrent
//! map. The cost — adding a metric means adding a field *and* a
//! descriptor — is paid at review time, where a new metric should be
//! visible anyway. [`Metrics::descriptors`] is checked against the
//! struct exhaustively in tests so the two can never drift.

use crate::metric::{Counter, Gauge, Histogram};

/// Which subsystem a metric (or span) belongs to — the `layer` column
/// of the README reference table and the `cat` field of Chrome trace
/// events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The stage-1 SIMD kernel (diagonal walks at ℓmin).
    Kernel,
    /// Stage 2: per-length dot advance, LB classification, MASS recompute.
    Stage2,
    /// The persistent worker pool (`valmod_mp::WorkerPool`).
    Pool,
    /// The streaming engine and its CLI session.
    Stream,
    /// Checkpoint/journal persistence.
    Persist,
    /// The multi-tenant serve daemon (connections, frames, tenants).
    Serve,
}

impl Layer {
    /// Lower-case name, as rendered in tables and trace categories.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Layer::Kernel => "kernel",
            Layer::Stage2 => "stage2",
            Layer::Pool => "pool",
            Layer::Stream => "stream",
            Layer::Persist => "persist",
            Layer::Serve => "serve",
        }
    }
}

/// Metric kind, driving the `# TYPE` line of the Prometheus exposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotone event count.
    Counter,
    /// Instantaneous (or high-watermark) value.
    Gauge,
    /// Log₂-bucketed distribution.
    Histogram,
}

/// Unit of a histogram's raw observations, driving how bucket bounds
/// and sums render.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Dimensionless counts (batch sizes); bounds render as integers.
    Count,
    /// Nanoseconds; bounds and sums render as seconds.
    Nanos,
}

/// One registry entry's metadata: everything a renderer or the README
/// table needs, minus the live value.
#[derive(Debug)]
pub struct Desc {
    /// Full exposition name (`valmod_*`, with the Prometheus `_total`
    /// suffix on counters).
    pub name: &'static str,
    /// Rendered label set (`{width="8",backend="packed"}`), or `""`.
    pub labels: &'static str,
    /// Metric kind.
    pub kind: Kind,
    /// Owning subsystem.
    pub layer: Layer,
    /// Histogram unit ([`Unit::Count`] for counters/gauges, unused).
    pub unit: Unit,
    /// One-line meaning, as shown in `# HELP` and the README table.
    pub help: &'static str,
    /// Accessor into the static registry.
    pub get: fn() -> MetricRef,
}

/// A borrowed live metric, matched by renderers.
#[derive(Debug, Clone, Copy)]
pub enum MetricRef {
    /// A counter's live handle.
    Counter(&'static Counter),
    /// A gauge's live handle.
    Gauge(&'static Gauge),
    /// A histogram's live handle.
    Histogram(&'static Histogram),
}

/// Every metric the suite exports. Fields group by layer; see each
/// descriptor in [`Metrics::descriptors`] for the exposition name and
/// meaning.
#[derive(Debug)]
#[allow(missing_docs)] // each field is documented by its descriptor entry
pub struct Metrics {
    // -- stage-1 kernel --
    pub stage1_cells: Counter,
    pub stage1_offers: Counter,
    pub stage1_prefilter_rejected: Counter,
    pub stage1_dispatch_w8_packed: Counter,
    pub stage1_dispatch_w4_packed: Counter,
    pub stage1_dispatch_w8_portable: Counter,
    pub stage1_dispatch_w4_portable: Counter,
    pub anytime_rounds: Counter,
    pub anytime_cells_retired: Counter,
    pub anytime_convergence_permille: Gauge,
    pub anytime_churn_permille: Gauge,
    // -- stage 2 --
    pub stage2_dot_advances: Counter,
    pub stage2_valid_rows: Counter,
    pub stage2_invalid_rows: Counter,
    pub stage2_recomputed_rows: Counter,
    pub stage2_lengths: Counter,
    pub stage2_stomp_fallback: Counter,
    // -- worker pool --
    pub pool_submits: Counter,
    pub pool_queue_depth: Gauge,
    pub pool_steals: Counter,
    pub pool_parks: Counter,
    pub pool_unparks: Counter,
    pub pool_lane_submits: Counter,
    pub pool_lane_rejections: Counter,
    pub pool_lanes: Gauge,
    // -- streaming --
    pub stream_appends: Counter,
    pub stream_append_seconds: Histogram,
    pub stream_delta_batch: Histogram,
    pub stream_ring_occupancy: Gauge,
    pub stream_read_retries: Counter,
    pub stream_max_backoff_ms: Gauge,
    pub stream_tree_updates: Counter,
    pub stream_view_tree_pops: Counter,
    pub stream_view_refreshes: Counter,
    // -- serve daemon --
    pub serve_connections: Counter,
    pub serve_frames: Counter,
    pub serve_tenants: Gauge,
    // -- persistence --
    pub ckpt_serialize_seconds: Histogram,
    pub ckpt_restore_seconds: Histogram,
    pub ckpt_fsync_seconds: Histogram,
    pub ckpt_published: Counter,
    pub journal_replayed: Counter,
}

impl Metrics {
    const fn new() -> Self {
        Self {
            stage1_cells: Counter::new(),
            stage1_offers: Counter::new(),
            stage1_prefilter_rejected: Counter::new(),
            stage1_dispatch_w8_packed: Counter::new(),
            stage1_dispatch_w4_packed: Counter::new(),
            stage1_dispatch_w8_portable: Counter::new(),
            stage1_dispatch_w4_portable: Counter::new(),
            anytime_rounds: Counter::new(),
            anytime_cells_retired: Counter::new(),
            anytime_convergence_permille: Gauge::new(),
            anytime_churn_permille: Gauge::new(),
            stage2_dot_advances: Counter::new(),
            stage2_valid_rows: Counter::new(),
            stage2_invalid_rows: Counter::new(),
            stage2_recomputed_rows: Counter::new(),
            stage2_lengths: Counter::new(),
            stage2_stomp_fallback: Counter::new(),
            pool_submits: Counter::new(),
            pool_queue_depth: Gauge::new(),
            pool_steals: Counter::new(),
            pool_parks: Counter::new(),
            pool_unparks: Counter::new(),
            pool_lane_submits: Counter::new(),
            pool_lane_rejections: Counter::new(),
            pool_lanes: Gauge::new(),
            stream_appends: Counter::new(),
            stream_append_seconds: Histogram::new(),
            stream_delta_batch: Histogram::new(),
            stream_ring_occupancy: Gauge::new(),
            stream_read_retries: Counter::new(),
            stream_max_backoff_ms: Gauge::new(),
            stream_tree_updates: Counter::new(),
            stream_view_tree_pops: Counter::new(),
            stream_view_refreshes: Counter::new(),
            serve_connections: Counter::new(),
            serve_frames: Counter::new(),
            serve_tenants: Gauge::new(),
            ckpt_serialize_seconds: Histogram::new(),
            ckpt_restore_seconds: Histogram::new(),
            ckpt_fsync_seconds: Histogram::new(),
            ckpt_published: Counter::new(),
            journal_replayed: Counter::new(),
        }
    }

    /// The const descriptor table the renderers (and the README table)
    /// iterate, in a stable order: grouped by layer, hot layers first.
    #[must_use]
    pub fn descriptors() -> &'static [Desc] {
        DESCRIPTORS
    }
}

static METRICS: Metrics = Metrics::new();

/// The process-wide registry. Always the same `static`: recording
/// through it is a field access plus one relaxed atomic.
#[must_use]
pub fn metrics() -> &'static Metrics {
    &METRICS
}

macro_rules! desc {
    ($name:literal, $labels:literal, $kind:ident, $layer:ident, $unit:ident, $field:ident,
     $help:literal) => {
        Desc {
            name: $name,
            labels: $labels,
            kind: Kind::$kind,
            layer: Layer::$layer,
            unit: Unit::$unit,
            help: $help,
            get: || metric_ref(&METRICS.$field),
        }
    };
}

/// Overload-by-trait so the `desc!` macro can hand any field to
/// [`MetricRef`] without per-kind arms.
trait IntoRef {
    fn metric_ref(&'static self) -> MetricRef;
}

impl IntoRef for Counter {
    fn metric_ref(&'static self) -> MetricRef {
        MetricRef::Counter(self)
    }
}

impl IntoRef for Gauge {
    fn metric_ref(&'static self) -> MetricRef {
        MetricRef::Gauge(self)
    }
}

impl IntoRef for Histogram {
    fn metric_ref(&'static self) -> MetricRef {
        MetricRef::Histogram(self)
    }
}

fn metric_ref<T: IntoRef>(field: &'static T) -> MetricRef {
    field.metric_ref()
}

static DESCRIPTORS: &[Desc] = &[
    desc!(
        "valmod_stage1_cells_total",
        "",
        Counter,
        Kernel,
        Count,
        stage1_cells,
        "Recurrence cells walked by the stage-1 kernel (diagonal length sum)"
    ),
    desc!(
        "valmod_stage1_offers_total",
        "",
        Counter,
        Kernel,
        Count,
        stage1_offers,
        "Rows offered to the top-rho selector after surviving the prefilter"
    ),
    desc!(
        "valmod_stage1_prefilter_rejected_total",
        "",
        Counter,
        Kernel,
        Count,
        stage1_prefilter_rejected,
        "Rows rejected by the correlation prefilter before selector insertion"
    ),
    desc!(
        "valmod_stage1_dispatch_total",
        "{width=\"8\",backend=\"packed\"}",
        Counter,
        Kernel,
        Count,
        stage1_dispatch_w8_packed,
        "Stage-1 walks dispatched to the packed 8-lane (AVX-512) kernel"
    ),
    desc!(
        "valmod_stage1_dispatch_total",
        "{width=\"4\",backend=\"packed\"}",
        Counter,
        Kernel,
        Count,
        stage1_dispatch_w4_packed,
        "Stage-1 walks dispatched to the packed 4-lane (AVX2+FMA) kernel"
    ),
    desc!(
        "valmod_stage1_dispatch_total",
        "{width=\"8\",backend=\"portable\"}",
        Counter,
        Kernel,
        Count,
        stage1_dispatch_w8_portable,
        "Stage-1 walks dispatched to the portable 8-lane kernel"
    ),
    desc!(
        "valmod_stage1_dispatch_total",
        "{width=\"4\",backend=\"portable\"}",
        Counter,
        Kernel,
        Count,
        stage1_dispatch_w4_portable,
        "Stage-1 walks dispatched to the portable 4-lane kernel"
    ),
    desc!(
        "valmod_anytime_rounds_total",
        "",
        Counter,
        Kernel,
        Count,
        anytime_rounds,
        "Anytime stage-1 rounds completed (one VALMAP preview per round)"
    ),
    desc!(
        "valmod_anytime_cells_retired_total",
        "",
        Counter,
        Kernel,
        Count,
        anytime_cells_retired,
        "QT cells retired by anytime stage-1 rounds"
    ),
    desc!(
        "valmod_anytime_convergence_permille",
        "",
        Gauge,
        Kernel,
        Count,
        anytime_convergence_permille,
        "Fraction of stage-1 cells retired by the current anytime run, in permille"
    ),
    desc!(
        "valmod_anytime_churn_permille",
        "",
        Gauge,
        Kernel,
        Count,
        anytime_churn_permille,
        "VALMAP entry churn of the latest anytime preview round, in permille"
    ),
    desc!(
        "valmod_stage2_dot_advances_total",
        "",
        Counter,
        Stage2,
        Count,
        stage2_dot_advances,
        "Per-row dot-product recurrence advances across all lengths"
    ),
    desc!(
        "valmod_stage2_valid_rows_total",
        "",
        Counter,
        Stage2,
        Count,
        stage2_valid_rows,
        "Rows the lower bound resolved without recomputation (the paper's pruning win)"
    ),
    desc!(
        "valmod_stage2_invalid_rows_total",
        "",
        Counter,
        Stage2,
        Count,
        stage2_invalid_rows,
        "Rows the lower bound could not certify at the current length"
    ),
    desc!(
        "valmod_stage2_recomputed_rows_total",
        "",
        Counter,
        Stage2,
        Count,
        stage2_recomputed_rows,
        "Rows recomputed exactly with MASS after the lower bound failed"
    ),
    desc!(
        "valmod_stage2_lengths_total",
        "",
        Counter,
        Stage2,
        Count,
        stage2_lengths,
        "Subsequence lengths processed by stage 2"
    ),
    desc!(
        "valmod_stage2_stomp_fallback_total",
        "",
        Counter,
        Stage2,
        Count,
        stage2_stomp_fallback,
        "Lengths that fell back to a full STOMP pass (flat-window degeneracy)"
    ),
    desc!(
        "valmod_pool_submits_total",
        "",
        Counter,
        Pool,
        Count,
        pool_submits,
        "Jobs pushed to the worker pool queue by multi-worker batches"
    ),
    desc!(
        "valmod_pool_queue_depth",
        "",
        Gauge,
        Pool,
        Count,
        pool_queue_depth,
        "Jobs currently queued and not yet claimed by a worker"
    ),
    desc!(
        "valmod_pool_steals_total",
        "",
        Counter,
        Pool,
        Count,
        pool_steals,
        "Jobs executed by a helping submitter instead of a pool worker"
    ),
    desc!(
        "valmod_pool_parks_total",
        "",
        Counter,
        Pool,
        Count,
        pool_parks,
        "Worker transitions into a parked (condvar wait) state"
    ),
    desc!(
        "valmod_pool_unparks_total",
        "",
        Counter,
        Pool,
        Count,
        pool_unparks,
        "Worker wakeups out of the parked state"
    ),
    desc!(
        "valmod_pool_lane_submits_total",
        "",
        Counter,
        Pool,
        Count,
        pool_lane_submits,
        "Jobs routed into a registered fair-scheduling lane"
    ),
    desc!(
        "valmod_pool_lane_rejections_total",
        "",
        Counter,
        Pool,
        Count,
        pool_lane_rejections,
        "Lane admissions rejected by queue-depth backpressure"
    ),
    desc!(
        "valmod_pool_lanes",
        "",
        Gauge,
        Pool,
        Count,
        pool_lanes,
        "Fair-scheduling lanes currently registered on the pool"
    ),
    desc!(
        "valmod_stream_appends_total",
        "",
        Counter,
        Stream,
        Count,
        stream_appends,
        "Points appended to the streaming engine"
    ),
    desc!(
        "valmod_stream_append_seconds",
        "",
        Histogram,
        Stream,
        Nanos,
        stream_append_seconds,
        "Latency of one streaming append (all lengths advanced)"
    ),
    desc!(
        "valmod_stream_delta_batch_size",
        "",
        Histogram,
        Stream,
        Count,
        stream_delta_batch,
        "VALMAP delta entries returned per poll"
    ),
    desc!(
        "valmod_stream_ring_occupancy",
        "",
        Gauge,
        Stream,
        Count,
        stream_ring_occupancy,
        "Points currently held by the streaming ring buffer"
    ),
    desc!(
        "valmod_stream_read_retries_total",
        "",
        Counter,
        Stream,
        Count,
        stream_read_retries,
        "Transient stdin read errors retried by the stream CLI"
    ),
    desc!(
        "valmod_stream_max_backoff_ms",
        "",
        Gauge,
        Stream,
        Count,
        stream_max_backoff_ms,
        "Largest read-retry backoff the stream CLI ever slept, in milliseconds"
    ),
    desc!(
        "valmod_stream_tree_updates_total",
        "",
        Counter,
        Stream,
        Count,
        stream_tree_updates,
        "Tournament-tree leaf updates applied by profile changes under appends"
    ),
    desc!(
        "valmod_stream_view_tree_pops_total",
        "",
        Counter,
        Stream,
        Count,
        stream_view_tree_pops,
        "Candidate entries popped best-first from the tournament trees during a live-view refresh"
    ),
    desc!(
        "valmod_stream_view_refreshes_total",
        "",
        Counter,
        Stream,
        Count,
        stream_view_refreshes,
        "Live-view refreshes served by the incremental tree-driven path"
    ),
    desc!(
        "valmod_ckpt_serialize_seconds",
        "",
        Histogram,
        Persist,
        Nanos,
        ckpt_serialize_seconds,
        "Time to serialize and write one checkpoint image"
    ),
    desc!(
        "valmod_ckpt_restore_seconds",
        "",
        Histogram,
        Persist,
        Nanos,
        ckpt_restore_seconds,
        "Time to restore an engine from a checkpoint image"
    ),
    desc!(
        "valmod_ckpt_fsync_seconds",
        "",
        Histogram,
        Persist,
        Nanos,
        ckpt_fsync_seconds,
        "Time in fsync (checkpoint images, journals, and directory entries)"
    ),
    desc!(
        "valmod_ckpt_published_total",
        "",
        Counter,
        Persist,
        Count,
        ckpt_published,
        "Checkpoint generations atomically published"
    ),
    desc!(
        "valmod_journal_replayed_total",
        "",
        Counter,
        Persist,
        Count,
        journal_replayed,
        "Journal samples replayed during crash recovery"
    ),
    desc!(
        "valmod_serve_connections_total",
        "",
        Counter,
        Serve,
        Count,
        serve_connections,
        "Client connections accepted by the serve daemon"
    ),
    desc!(
        "valmod_serve_frames_total",
        "",
        Counter,
        Serve,
        Count,
        serve_frames,
        "Protocol frames processed by the serve daemon"
    ),
    desc!(
        "valmod_serve_tenants",
        "",
        Gauge,
        Serve,
        Count,
        serve_tenants,
        "Tenant sessions currently open in the serve daemon"
    ),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptor_names_are_unique_per_label_set() {
        let mut seen = std::collections::HashSet::new();
        for d in Metrics::descriptors() {
            assert!(seen.insert((d.name, d.labels)), "duplicate descriptor {}{}", d.name, d.labels);
        }
    }

    #[test]
    fn descriptors_resolve_to_matching_kinds() {
        for d in Metrics::descriptors() {
            let matches = matches!(
                (d.kind, (d.get)()),
                (Kind::Counter, MetricRef::Counter(_))
                    | (Kind::Gauge, MetricRef::Gauge(_))
                    | (Kind::Histogram, MetricRef::Histogram(_))
            );
            assert!(matches, "descriptor {} kind/accessor mismatch", d.name);
        }
    }

    #[test]
    fn counters_follow_prometheus_naming() {
        for d in Metrics::descriptors() {
            assert!(d.name.starts_with("valmod_"), "{} lacks the suite prefix", d.name);
            if d.kind == Kind::Counter {
                assert!(d.name.ends_with("_total"), "counter {} lacks _total", d.name);
            }
        }
    }

    #[test]
    fn every_layer_is_instrumented() {
        for layer in
            [Layer::Kernel, Layer::Stage2, Layer::Pool, Layer::Stream, Layer::Persist, Layer::Serve]
        {
            assert!(
                Metrics::descriptors().iter().any(|d| d.layer == layer),
                "layer {} has no metrics",
                layer.name()
            );
        }
    }
}
