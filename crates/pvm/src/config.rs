//! PVM tunables.
//!
//! [`PvmConfig`] stays a flat, public struct (literal mutation keeps
//! working), but the validating [`PvmConfig::builder`] now exposes the
//! knobs through *grouped sections* — [`paging`](PvmConfigBuilder::paging),
//! [`async`](PvmConfigBuilder::r#async), [`pressure`](PvmConfigBuilder::pressure),
//! [`large_pages`](PvmConfigBuilder::large_pages),
//! [`telemetry`](PvmConfigBuilder::telemetry) and
//! [`policy`](PvmConfigBuilder::policy) — so related knobs are set
//! together and cross-field invariants read next to the fields they
//! constrain.

use crate::policy::{PolicyConfig, ReplacementKind};
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
    /// `CopyMode::Auto` uses the per-virtual-page technique for copies of
    /// at most this many pages, and history objects above (§4.3: per-page
    /// for "relatively small amounts of data (e.g. an IPC message)").
    /// With the paper's 8 KB pages and 64 KB IPC messages the boundary is
    /// 8 pages.
    pub per_page_max_pages: u64,
    /// Enable clock page replacement when the frame pool runs dry. When
    /// disabled, exhaustion returns `GmiError::OutOfMemory` immediately
    /// (useful for deterministic tests).
    pub enable_pageout: bool,
    /// Run the full structural invariant checker after every mutating
    /// operation. Expensive; defaults to on only in debug builds.
    pub check_invariants: bool,
    /// Collapse single-child zombie history nodes by merging them into
    /// their child (§4.2.5: the bounded analogue of Mach's shadow-chain
    /// garbage collection, needed only for fork-exit-fork-exit chains).
    pub collapse_zombies: bool,
    /// The minimum pull window: every `pullIn` covers up to this many
    /// contiguous owned-but-non-resident pages in one upcall (§3.3.3:
    /// "The MM may unilaterally decide to cache a fragment of data"),
    /// whatever the access pattern. On top of it each cache's stream
    /// table widens the window of a miss that continues a sequential
    /// stream, doubling up to one IPC message while the frames can be
    /// had without a `pushOut`; that part needs no knob.
    pub pull_cluster_pages: u64,
    /// Retry policy for mapper upcalls (`pullIn`, `pushOut`,
    /// `getWriteAccess`): transient failures are retried with exponential
    /// backoff charged to the simulated clock. `RetryPolicy::no_retry()`
    /// restores fail-fast semantics.
    pub retry: RetryPolicy,
    /// Quarantine a cache after a *permanent* mapper failure: all further
    /// operations touching the cache fail with `CachePoisoned` instead of
    /// re-driving upcalls into a dead mapper.
    pub quarantine_on_permanent_failure: bool,
    /// When a `fillUp` delivering pulled data cannot allocate a frame,
    /// run an emergency eviction pass over clean unpinned pages instead
    /// of failing the fault recovery with `OutOfMemory`.
    pub emergency_pageout: bool,
    /// Event tracing (see [`crate::trace`]). Disabled by default; when
    /// disabled every trace point is one relaxed atomic load, and when
    /// enabled the simulated clock is untouched, so the evaluation
    /// tables are bit-identical either way.
    pub trace: TraceConfig,
    /// Write-back clustering: a `pushOut` may cover up to this many
    /// contiguous dirty resident pages of the same cache in one batched
    /// upcall (one request overhead per run, symmetric to
    /// [`PvmConfig::pull_cluster_pages`]). The default is one IPC
    /// message (64 KB, 8 pages — the same boundary as
    /// [`PvmConfig::per_page_max_pages`]): the GMI's `pushOut` takes a
    /// fragment of any size and the message is what the upcall travels
    /// in. 1 disables clustering.
    pub push_cluster_pages: u64,
    /// Watermark-driven laundering: whenever an operation enters the
    /// PVM with fewer than [`PvmConfig::writeback_low_frames`] free
    /// frames, a deterministic pageout pass cleans and evicts pages
    /// until [`PvmConfig::writeback_high_frames`] frames are free, so
    /// demand faults almost never block on a synchronous `pushOut`.
    pub writeback_daemon: bool,
    /// Low free-frame watermark that activates the laundering pass.
    pub writeback_low_frames: u32,
    /// High free-frame watermark at which the laundering pass stops.
    pub writeback_high_frames: u32,
    /// Deadline watchdog over the completion engine's in-flight table
    /// (DESIGN.md §10): every
    /// driver entry sweeps the completion queue on the simulated clock
    /// and cancels requests whose per-request deadline (submit time +
    /// [`RetryPolicy::deadline_ns`]) has expired, failing them through
    /// the existing transient taxonomy (`MapperTimeout`) so a window's
    /// pages that have not arrived are given up and push pages stay
    /// dirty for relaundering. Off by
    /// default: hung requests then park in the queue until force-
    /// delivered, reproducing the pre-watchdog stall behaviour.
    pub upcall_watchdog: bool,
    /// Watchdog timeouts after which a mapper is escalated to the
    /// `Suspected` state: its in-flight cap shrinks to 1, so every
    /// request waits out the one before it. A successful delivery
    /// clears the suspicion.
    pub suspect_after_timeouts: u32,
    /// Watchdog timeouts after which the affected cache is quarantined
    /// outright (the full `CachePoisoned` escalation). Must be at least
    /// [`PvmConfig::suspect_after_timeouts`].
    pub quarantine_after_timeouts: u32,
    /// Emergency frame reserve: ordinary allocations launder/evict
    /// until this many frames stay free, while pull-recovery (`fillUp`)
    /// allocations may draw the reserve down to zero. Closes the
    /// frame-exhaustion deadlock where laundering itself needs a frame.
    /// 0 disables the reserve.
    pub emergency_reserve_frames: u32,
    /// Out-of-memory escalation: when the frame pool is dry and a full
    /// clock sweep finds no victim (and the completion engine has no
    /// deliverable work), score contexts by resident+dirty footprint
    /// and recent fault count, tear down the worst victim through the
    /// normal context-destroy path, and reclaim its frames. Accesses
    /// through the dead handle then report `ContextKilled`. Off by
    /// default: exhaustion returns `OutOfMemory` as before.
    pub oom_killer: bool,
    /// Contiguous frame runs from the buddy physical tier: a pull window
    /// that covers a whole aligned large page reserves one contiguous
    /// pre-zeroed run (`alloc_run_zeroed`) so large-page promotion finds
    /// physically contiguous frames. Off by default: frames are handed
    /// out one at a time exactly as before.
    pub buddy_runs: bool,
    /// Large-page promotion: a fully resident, aligned, uniformly
    /// protected run of [`PvmConfig::promote_threshold_pages`] base pages
    /// backed by contiguous frames is additionally mapped by a single
    /// large MMU entry, so subsequent accesses anywhere in the run
    /// translate without faulting. Any per-page mutation (unmap,
    /// reprotect, evict, quarantine) demotes the large mapping first.
    /// Requires [`PvmConfig::buddy_runs`]. Off by default.
    pub large_pages: bool,
    /// Base pages per large page (the promotion granule). Must be a
    /// power of two of at least 2. 256 matches the 2 MiB class over the
    /// paper's 8 KiB pages.
    pub promote_threshold_pages: u64,
    /// Dimensional telemetry (see [`crate::telemetry`]): per-cache,
    /// per-context and per-mapper counter families bumped at the same
    /// sites that feed the global [`crate::StatsRegistry`] cells, plus
    /// the deterministic sim-time gauge sampler behind
    /// [`PvmConfig::telemetry_sample_ns`]. Off by default: every
    /// dimensional site is then one relaxed atomic load, no sample is
    /// ever taken, and the evaluation tables are bit-identical. When
    /// on, no telemetry path touches the simulated clock — it reads
    /// `now()` but never advances it.
    pub telemetry: bool,
    /// Cadence of the deterministic gauge sampler, in *simulated*
    /// nanoseconds (no wall clock is ever consulted): at most one
    /// [`crate::TelemetrySample`] is recorded per driver entry, aligned
    /// to multiples of this period on the simulated clock. Must be at
    /// least 1 when [`PvmConfig::telemetry`] is on.
    pub telemetry_sample_ns: u64,
    /// Replacement policy selection: which `ReplacementPolicy` runs
    /// victim selection, globally and per segment override. The default
    /// is the classic clock sweep.
    pub policy: PolicyConfig,
}

/// The paper's IPC message limit in pages (64 KB over 8 KB pages): the
/// default `pushOut` run, the ceiling of a stream's pull window and the
/// length of the write-behind queue.
pub(crate) const IPC_MESSAGE_PAGES: u64 = 8;

impl Default for PvmConfig {
    fn default() -> PvmConfig {
        PvmConfig {
            per_page_max_pages: IPC_MESSAGE_PAGES,
            enable_pageout: true,
            check_invariants: cfg!(debug_assertions),
            collapse_zombies: true,
            pull_cluster_pages: 1,
            retry: RetryPolicy::default(),
            quarantine_on_permanent_failure: true,
            emergency_pageout: true,
            trace: TraceConfig::default(),
            push_cluster_pages: IPC_MESSAGE_PAGES,
            writeback_daemon: false,
            writeback_low_frames: 0,
            writeback_high_frames: 0,
            upcall_watchdog: false,
            suspect_after_timeouts: 2,
            quarantine_after_timeouts: 4,
            emergency_reserve_frames: 0,
            oom_killer: false,
            buddy_runs: false,
            large_pages: false,
            promote_threshold_pages: 256,
            telemetry: false,
            telemetry_sample_ns: 1_000_000,
            policy: PolicyConfig::default(),
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

/// Builder for [`PvmConfig`] enforcing cross-field invariants that a
/// plain struct literal cannot: watermark ordering, non-zero cluster
/// sizes, an ordered escalation ladder, and well-formed policy
/// overrides.
///
/// Knobs are set through grouped sections, each a closure over a
/// section proxy:
///
/// ```
/// # use chorus_pvm::PvmConfig;
/// let config = PvmConfig::builder()
///     .paging(|p| p.pull_cluster_pages(4).push_cluster_pages(4))
///     .pressure(|p| p.writeback_daemon(true).writeback_high_frames(8))
///     .policy(|p| p.replacement(chorus_pvm::ReplacementKind::Lru))
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
        /// See [`PvmConfig::per_page_max_pages`].
        per_page_max_pages: u64,
        /// See [`PvmConfig::enable_pageout`].
        enable_pageout: bool,
        /// See [`PvmConfig::check_invariants`].
        check_invariants: bool,
        /// See [`PvmConfig::collapse_zombies`].
        collapse_zombies: bool,
        /// See [`PvmConfig::pull_cluster_pages`].
        pull_cluster_pages: u64,
        /// See [`PvmConfig::push_cluster_pages`].
        push_cluster_pages: u64,
    }
}

/// The `async` section: mapper retry/health escalation and the
/// completion engine's deadline watchdog.
#[derive(Debug)]
pub struct AsyncSection {
    cfg: PvmConfig,
}

impl AsyncSection {
    setters! {
        /// See [`PvmConfig::upcall_watchdog`].
        upcall_watchdog: bool,
        /// See [`PvmConfig::suspect_after_timeouts`].
        suspect_after_timeouts: u32,
        /// See [`PvmConfig::quarantine_after_timeouts`].
        quarantine_after_timeouts: u32,
        /// See [`PvmConfig::retry`].
        retry: RetryPolicy,
        /// See [`PvmConfig::quarantine_on_permanent_failure`].
        quarantine_on_permanent_failure: bool,
    }
}

/// The `pressure` section: the memory-pressure survival layer —
/// laundering watermarks, reserves and the OOM killer.
#[derive(Debug)]
pub struct PressureSection {
    cfg: PvmConfig,
}

impl PressureSection {
    setters! {
        /// See [`PvmConfig::writeback_daemon`].
        writeback_daemon: bool,
        /// See [`PvmConfig::writeback_low_frames`].
        writeback_low_frames: u32,
        /// See [`PvmConfig::writeback_high_frames`].
        writeback_high_frames: u32,
        /// See [`PvmConfig::emergency_reserve_frames`].
        emergency_reserve_frames: u32,
        /// See [`PvmConfig::emergency_pageout`].
        emergency_pageout: bool,
        /// See [`PvmConfig::oom_killer`].
        oom_killer: bool,
    }
}

/// The `large_pages` section: the buddy contiguous-run tier and
/// large-page promotion over it.
#[derive(Debug)]
pub struct LargePagesSection {
    cfg: PvmConfig,
}

impl LargePagesSection {
    setters! {
        /// See [`PvmConfig::buddy_runs`].
        buddy_runs: bool,
        /// See [`PvmConfig::large_pages`].
        large_pages: bool,
        /// See [`PvmConfig::promote_threshold_pages`].
        promote_threshold_pages: u64,
    }
}

/// The `telemetry` section: dimensional counter families, the gauge
/// sampler and event tracing.
#[derive(Debug)]
pub struct TelemetrySection {
    cfg: PvmConfig,
}

impl TelemetrySection {
    setters! {
        /// See [`PvmConfig::telemetry`].
        telemetry: bool,
        /// See [`PvmConfig::telemetry_sample_ns`].
        telemetry_sample_ns: u64,
        /// See [`PvmConfig::trace`].
        trace: TraceConfig,
    }
}

/// The `policy` section: replacement policy selection (see
/// [`crate::policy`]), per-segment overrides and the external-policy
/// batch size.
#[derive(Debug)]
pub struct PolicySection {
    cfg: PvmConfig,
}

impl PolicySection {
    /// Default replacement policy for every segment manager without an
    /// override. See [`PolicyConfig::replacement`].
    #[must_use]
    pub fn replacement(mut self, kind: ReplacementKind) -> Self {
        self.cfg.policy.replacement = kind;
        self
    }

    /// Routes pages of the segment manager that registered `segment`
    /// to their own instance of `kind` instead of the default
    /// replacement policy. See [`PolicyConfig::segment_overrides`].
    #[must_use]
    pub fn segment_override(mut self, segment: u64, kind: ReplacementKind) -> Self {
        self.cfg.policy.segment_overrides.push((segment, kind));
        self
    }

    /// WSClock working-set age threshold τ, in victim-selection rounds.
    /// See [`PolicyConfig::wsclock_tau`].
    #[must_use]
    pub fn wsclock_tau(mut self, tau: u64) -> Self {
        self.cfg.policy.wsclock_tau = tau;
        self
    }

    /// Candidate batch size per external-policy `victimAdvice` upcall.
    /// See [`PolicyConfig::external_batch`].
    #[must_use]
    pub fn external_batch(mut self, batch: u64) -> Self {
        self.cfg.policy.external_batch = batch;
        self
    }
}

macro_rules! sections {
    ($($(#[$meta:meta])* $name:ident: $proxy:ident,)*) => {
        $(
            $(#[$meta])*
            #[must_use]
            pub fn $name(mut self, f: impl FnOnce($proxy) -> $proxy) -> Self {
                self.config = f($proxy { cfg: self.config }).cfg;
                self
            }
        )*
    };
}

impl PvmConfigBuilder {
    sections! {
        /// Core paging mechanics: replacement and clustering. See
        /// [`PagingSection`].
        paging: PagingSection,
        /// Mapper-health escalation and the upcall watchdog. See
        /// [`AsyncSection`].
        r#async: AsyncSection,
        /// Memory-pressure survival: laundering watermarks, reserves,
        /// OOM killer. See [`PressureSection`].
        pressure: PressureSection,
        /// Buddy contiguous runs and large-page promotion. See
        /// [`LargePagesSection`].
        large_pages: LargePagesSection,
        /// Dimensional telemetry, gauge sampling and tracing. See
        /// [`TelemetrySection`].
        telemetry: TelemetrySection,
        /// Replacement policy selection. See [`PolicySection`].
        policy: PolicySection,
    }

    /// Validates the assembled configuration.
    ///
    /// # Errors
    ///
    /// Returns [`chorus_gmi::GmiError::Unsupported`] naming the violated
    /// invariant: zero cluster sizes or inverted writeback watermarks.
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
        if c.writeback_low_frames > c.writeback_high_frames {
            return Err(chorus_gmi::GmiError::Unsupported(
                "writeback_low_frames must not exceed writeback_high_frames",
            ));
        }
        if c.suspect_after_timeouts < 1 {
            return Err(chorus_gmi::GmiError::Unsupported(
                "suspect_after_timeouts must be at least 1",
            ));
        }
        if c.quarantine_after_timeouts < c.suspect_after_timeouts {
            return Err(chorus_gmi::GmiError::Unsupported(
                "quarantine_after_timeouts must be at least suspect_after_timeouts",
            ));
        }
        if c.large_pages && !c.buddy_runs {
            return Err(chorus_gmi::GmiError::Unsupported(
                "large_pages requires buddy_runs",
            ));
        }
        if !c.promote_threshold_pages.is_power_of_two() || c.promote_threshold_pages < 2 {
            return Err(chorus_gmi::GmiError::Unsupported(
                "promote_threshold_pages must be a power of two >= 2",
            ));
        }
        if c.telemetry && c.telemetry_sample_ns < 1 {
            return Err(chorus_gmi::GmiError::Unsupported(
                "telemetry_sample_ns must be at least 1 when telemetry is on",
            ));
        }
        if c.policy.wsclock_tau < 1 {
            return Err(chorus_gmi::GmiError::Unsupported(
                "policy.wsclock_tau must be at least 1",
            ));
        }
        if c.policy.external_batch < 1 {
            return Err(chorus_gmi::GmiError::Unsupported(
                "policy.external_batch must be at least 1",
            ));
        }
        for (i, &(seg, _)) in c.policy.segment_overrides.iter().enumerate() {
            if c.policy.segment_overrides[..i]
                .iter()
                .any(|&(s, _)| s == seg)
            {
                return Err(chorus_gmi::GmiError::Unsupported(
                    "policy.segment_overrides names a segment twice",
                ));
            }
        }
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_ipc_boundary() {
        let c = PvmConfig::default();
        // 8 pages * 8 KB = 64 KB, the paper's IPC message limit.
        assert_eq!(c.per_page_max_pages * 8192, 64 * 1024);
        assert!(c.enable_pageout);
        assert!(c.collapse_zombies);
        assert_eq!(
            c.pull_cluster_pages, 1,
            "no minimum window: streams alone widen a pull"
        );
        assert!(c.retry.max_attempts > 1, "transient faults heal by default");
        assert!(c.quarantine_on_permanent_failure);
        assert!(c.emergency_pageout);
        assert!(!c.trace.enabled, "tracing is opt-in");
        assert!(!c.trace.wall_clock, "wall stamps are opt-in");
        assert_eq!(
            c.push_cluster_pages, c.per_page_max_pages,
            "a dirty run is laundered one IPC message at a time"
        );
        assert!(!c.writeback_daemon, "laundering is opt-in");
        assert_eq!(c.writeback_low_frames, 0);
        assert_eq!(c.writeback_high_frames, 0);
        assert!(!c.upcall_watchdog, "the deadline watchdog is opt-in");
        assert_eq!(c.suspect_after_timeouts, 2);
        assert_eq!(c.quarantine_after_timeouts, 4);
        assert_eq!(c.emergency_reserve_frames, 0, "the reserve is opt-in");
        assert!(!c.oom_killer, "the OOM killer is opt-in");
        assert!(!c.buddy_runs, "contiguous runs are opt-in");
        assert!(!c.large_pages, "large pages are opt-in");
        assert_eq!(
            c.promote_threshold_pages * 8192,
            2 * 1024 * 1024,
            "the default granule is the 2 MiB class over 8 KiB pages"
        );
        assert!(!c.telemetry, "dimensional telemetry is opt-in");
        assert_eq!(c.telemetry_sample_ns, 1_000_000, "1 ms sim cadence");
        assert_eq!(
            c.policy.replacement,
            ReplacementKind::Clock,
            "the default replacement policy is the classic clock"
        );
        assert!(c.policy.segment_overrides.is_empty());
    }

    #[test]
    fn builder_accepts_defaults_and_valid_tweaks() {
        let c = PvmConfig::builder()
            .paging(|p| p.pull_cluster_pages(4))
            .pressure(|p| {
                p.writeback_daemon(true)
                    .writeback_low_frames(4)
                    .writeback_high_frames(8)
                    .emergency_reserve_frames(2)
                    .oom_killer(true)
            })
            .r#async(|a| {
                a.upcall_watchdog(true)
                    .suspect_after_timeouts(1)
                    .quarantine_after_timeouts(3)
            })
            .telemetry(|t| t.telemetry(true).telemetry_sample_ns(500_000))
            .build()
            .expect("valid config");
        assert_eq!(c.pull_cluster_pages, 4);
        assert!(c.upcall_watchdog);
        assert_eq!(c.quarantine_after_timeouts, 3);
        assert!(c.oom_killer);
        assert!(c.telemetry);
        assert_eq!(c.telemetry_sample_ns, 500_000);
    }

    #[test]
    fn policy_section_selects_and_routes() {
        let c = PvmConfig::builder()
            .policy(|p| {
                p.replacement(ReplacementKind::Lru)
                    .segment_override(7, ReplacementKind::WsClock)
                    .wsclock_tau(3)
                    .external_batch(4)
            })
            .build()
            .expect("valid policy config");
        assert_eq!(c.policy.replacement, ReplacementKind::Lru);
        assert_eq!(
            c.policy.segment_overrides,
            vec![(7, ReplacementKind::WsClock)]
        );
        assert_eq!(c.policy.wsclock_tau, 3);
        assert_eq!(c.policy.external_batch, 4);
    }

    #[test]
    fn builder_rejects_invalid_combinations() {
        let paging_err =
            |f: fn(PagingSection) -> PagingSection| PvmConfig::builder().paging(f).build().is_err();
        assert!(paging_err(|p| p.pull_cluster_pages(0)));
        assert!(paging_err(|p| p.push_cluster_pages(0)));
        assert!(PvmConfig::builder()
            .pressure(|p| p.writeback_low_frames(8).writeback_high_frames(4))
            .build()
            .is_err());
        assert!(PvmConfig::builder()
            .r#async(|a| a.suspect_after_timeouts(0))
            .build()
            .is_err());
        assert!(PvmConfig::builder()
            .r#async(|a| a.suspect_after_timeouts(5).quarantine_after_timeouts(2))
            .build()
            .is_err());
        assert!(PvmConfig::builder()
            .large_pages(|l| l.large_pages(true))
            .build()
            .is_err());
        assert!(PvmConfig::builder()
            .large_pages(|l| l.promote_threshold_pages(48))
            .build()
            .is_err());
        assert!(PvmConfig::builder()
            .large_pages(|l| l.promote_threshold_pages(1))
            .build()
            .is_err());
        assert!(PvmConfig::builder()
            .telemetry(|t| t.telemetry(true).telemetry_sample_ns(0))
            .build()
            .is_err());
        assert!(
            PvmConfig::builder()
                .telemetry(|t| t.telemetry_sample_ns(0))
                .build()
                .is_ok(),
            "a zero cadence is only rejected once telemetry is on"
        );
        assert!(PvmConfig::builder()
            .policy(|p| p.wsclock_tau(0))
            .build()
            .is_err());
        assert!(PvmConfig::builder()
            .policy(|p| p.external_batch(0))
            .build()
            .is_err());
        assert!(
            PvmConfig::builder()
                .policy(|p| {
                    p.segment_override(3, ReplacementKind::Lru)
                        .segment_override(3, ReplacementKind::Arc)
                })
                .build()
                .is_err(),
            "duplicate per-segment overrides are ambiguous"
        );
        let c = PvmConfig::builder()
            .large_pages(|l| {
                l.buddy_runs(true)
                    .large_pages(true)
                    .promote_threshold_pages(16)
            })
            .build()
            .expect("valid large-page config");
        assert!(c.large_pages);
        assert_eq!(c.promote_threshold_pages, 16);
    }
}
