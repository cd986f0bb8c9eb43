//! PVM tunables.
//!
//! [`PvmConfig`] stays a flat, public struct (literal mutation keeps
//! working); the validating [`PvmConfig::builder`] exposes the paging
//! knobs through the [`paging`](PvmConfigBuilder::paging) section, plus
//! the [`retry`](PvmConfigBuilder::retry) and
//! [`trace`](PvmConfigBuilder::trace) setters.
//!
//! Tracing aside (a trace record has a cost of its own), there is no
//! default-off behaviour here: a field exists because two non-test
//! callers set it to different values, and what the PVM does it does by
//! default or not at all. The dimensional counters and the gauge
//! sampler ([`crate::telemetry`]) are always on and have no knob.

use crate::trace::TraceConfig;
use chorus_gmi::RetryPolicy;

/// Configuration of a [`crate::Pvm`] instance.
///
/// Construct via [`PvmConfig::default`] followed by field mutation, or
/// through the validating [`PvmConfig::builder`]. The struct is
/// `#[non_exhaustive]` so new knobs can be added without breaking
/// downstream literals.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct PvmConfig {
    /// Enable clock page replacement when the frame pool runs dry. When
    /// disabled, exhaustion returns `GmiError::OutOfMemory` immediately
    /// (useful for deterministic tests).
    pub enable_pageout: bool,
    /// Run the full structural invariant checker after every mutating
    /// operation. Expensive; defaults to on only in debug builds.
    pub check_invariants: bool,
    /// The minimum pull window: every `pullIn` covers up to this many
    /// contiguous owned-but-non-resident pages in one upcall (§3.3.3:
    /// "The MM may unilaterally decide to cache a fragment of data"),
    /// whatever the access pattern. On top of it each cache's stream
    /// table widens the window of a miss that continues a sequential
    /// stream, doubling up to one IPC message while the frames can be
    /// had without a `pushOut`; that part needs no knob.
    pub pull_cluster_pages: u64,
    /// Write-back clustering: a `pushOut` may cover up to this many
    /// contiguous dirty resident pages of the same cache in one batched
    /// upcall (one request overhead per run, symmetric to
    /// [`PvmConfig::pull_cluster_pages`]). The default is one IPC
    /// message (64 KB, 8 pages): the GMI's `pushOut` takes a fragment
    /// of any size and the message is what the upcall travels in.
    /// 1 disables clustering.
    pub push_cluster_pages: u64,
    /// Retry policy for mapper upcalls (`pullIn`, `pushOut`,
    /// `getWriteAccess`): transient failures are retried with exponential
    /// backoff charged to the simulated clock. `RetryPolicy::no_retry()`
    /// restores fail-fast semantics. Its `deadline_ns` is also the
    /// completion engine's watchdog (DESIGN.md §11): a request still in
    /// flight that long after its submit is cancelled as a transient
    /// `MapperTimeout`; 0 means no deadline, and a hung request is then
    /// waited out.
    pub retry: RetryPolicy,
    /// Event tracing (see [`crate::trace`]). Disabled by default; when
    /// disabled every trace point is one relaxed atomic load, and when
    /// enabled the simulated clock is untouched, so the evaluation
    /// tables are bit-identical either way.
    pub trace: TraceConfig,
}

/// The paper's IPC message limit in pages (64 KB over 8 KB pages): the
/// default `pushOut` run, the ceiling of a stream's pull window, the
/// length of the write-behind queue, and the boundary under which
/// `CopyMode::Auto` copies per virtual page (§4.3: "relatively small
/// amounts of data (e.g. an IPC message)").
pub(crate) const IPC_MESSAGE_PAGES: u64 = 8;

impl Default for PvmConfig {
    fn default() -> PvmConfig {
        PvmConfig {
            enable_pageout: true,
            check_invariants: cfg!(debug_assertions),
            pull_cluster_pages: 1,
            push_cluster_pages: IPC_MESSAGE_PAGES,
            retry: RetryPolicy::default(),
            trace: TraceConfig::default(),
        }
    }
}

impl PvmConfig {
    /// Starts a validating [`PvmConfigBuilder`] seeded with the
    /// defaults.
    pub fn builder() -> PvmConfigBuilder {
        PvmConfigBuilder {
            config: PvmConfig::default(),
        }
    }
}

/// Builder for [`PvmConfig`] enforcing the invariant that a plain
/// struct literal cannot: non-zero cluster sizes.
///
/// ```
/// # use chorus_pvm::PvmConfig;
/// let config = PvmConfig::builder()
///     .paging(|p| p.pull_cluster_pages(4).push_cluster_pages(4))
///     .build()
///     .unwrap();
/// assert_eq!(config.pull_cluster_pages, 4);
/// ```
#[derive(Clone, Debug)]
pub struct PvmConfigBuilder {
    config: PvmConfig,
}

/// Generates `#[must_use]` setters over a wrapped [`PvmConfig`]; used
/// by every builder section proxy.
macro_rules! setters {
    ($($(#[$meta:meta])* $name:ident: $ty:ty),* $(,)?) => {
        $(
            $(#[$meta])*
            #[must_use]
            pub fn $name(mut self, value: $ty) -> Self {
                self.cfg.$name = value;
                self
            }
        )*
    };
}

/// The `paging` section: core replacement/clustering mechanics.
#[derive(Debug)]
pub struct PagingSection {
    cfg: PvmConfig,
}

impl PagingSection {
    setters! {
        /// See [`PvmConfig::enable_pageout`].
        enable_pageout: bool,
        /// See [`PvmConfig::check_invariants`].
        check_invariants: bool,
        /// See [`PvmConfig::pull_cluster_pages`].
        pull_cluster_pages: u64,
        /// See [`PvmConfig::push_cluster_pages`].
        push_cluster_pages: u64,
    }
}

impl PvmConfigBuilder {
    /// Core paging mechanics: replacement and clustering. See
    /// [`PagingSection`].
    #[must_use]
    pub fn paging(mut self, f: impl FnOnce(PagingSection) -> PagingSection) -> Self {
        self.config = f(PagingSection { cfg: self.config }).cfg;
        self
    }

    /// See [`PvmConfig::retry`].
    #[must_use]
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.config.retry = policy;
        self
    }

    /// See [`PvmConfig::trace`].
    #[must_use]
    pub fn trace(mut self, trace: TraceConfig) -> Self {
        self.config.trace = trace;
        self
    }

    /// Validates the assembled configuration.
    ///
    /// # Errors
    ///
    /// Returns [`chorus_gmi::GmiError::Unsupported`] naming the violated
    /// invariant: a zero cluster size.
    pub fn build(self) -> chorus_gmi::Result<PvmConfig> {
        let c = &self.config;
        if c.pull_cluster_pages < 1 {
            return Err(chorus_gmi::GmiError::Unsupported(
                "pull_cluster_pages must be at least 1",
            ));
        }
        if c.push_cluster_pages < 1 {
            return Err(chorus_gmi::GmiError::Unsupported(
                "push_cluster_pages must be at least 1",
            ));
        }
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rule this test enforces by failing to compile: a field needs
    /// two non-test callers that set it to different values, and a
    /// behaviour is on by default or absent. Whoever adds a field edits
    /// this destructuring (no `..`) and says here who the two callers
    /// are.
    #[test]
    fn config_has_exactly_six_fields() {
        let PvmConfig {
            enable_pageout,
            check_invariants,
            pull_cluster_pages,
            push_cluster_pages,
            retry,
            trace,
        } = PvmConfig::default();
        assert!(enable_pageout);
        assert_eq!(check_invariants, cfg!(debug_assertions));
        assert_eq!((pull_cluster_pages, push_cluster_pages), (1, 8));
        assert!(retry.deadline_ns > 0, "the watchdog is on by default");
        assert!(!trace.enabled);
    }

    #[test]
    fn default_matches_paper_ipc_boundary() {
        let c = PvmConfig::default();
        // 8 pages * 8 KB = 64 KB, the paper's IPC message limit.
        assert_eq!(IPC_MESSAGE_PAGES * 8192, 64 * 1024);
        assert!(c.enable_pageout);
        assert_eq!(
            c.pull_cluster_pages, 1,
            "no minimum window: streams alone widen a pull"
        );
        assert!(c.retry.max_attempts > 1, "transient faults heal by default");
        assert!(!c.trace.enabled, "tracing is opt-in");
        assert_eq!(
            c.push_cluster_pages, IPC_MESSAGE_PAGES,
            "a dirty run is laundered one IPC message at a time"
        );
    }

    #[test]
    fn builder_accepts_defaults_and_valid_tweaks() {
        let c = PvmConfig::builder()
            .paging(|p| p.pull_cluster_pages(4))
            .retry(RetryPolicy::no_retry())
            .trace(TraceConfig {
                enabled: true,
                ..TraceConfig::default()
            })
            .build()
            .expect("valid config");
        assert_eq!(c.pull_cluster_pages, 4);
        assert_eq!(c.retry.max_attempts, RetryPolicy::no_retry().max_attempts);
        assert!(c.trace.enabled);
    }

    #[test]
    fn builder_rejects_invalid_combinations() {
        let paging_err =
            |f: fn(PagingSection) -> PagingSection| PvmConfig::builder().paging(f).build().is_err();
        assert!(paging_err(|p| p.pull_cluster_pages(0)));
        assert!(paging_err(|p| p.push_cluster_pages(0)));
    }
}
