//! The five workloads, and what they have in common: closed-loop
//! clients, one per thread, whose op stream is generated in the harness
//! from the seed and checked against a byte oracle.

pub mod ipc;
pub mod mix;
pub mod scan;

use crate::trace::Tgmi;
use crate::world::World;
use chorus_vm::gmi::{GmiError, Result};
use chorus_vm::nucleus::Capability;

/// What a client counted while running.
#[derive(Clone, Copy, Default)]
pub struct Tally {
    /// Immediate retries of accesses that failed with a transient error.
    pub transient_retries: u64,
    /// Page writes the client issued (each write touches one page).
    pub dirtied_pages: u64,
    /// Fingerprint of the generated op stream.
    pub stream_fp: u64,
}

/// One closed-loop client. It issues its next op only after the
/// previous one returned.
pub trait Client: Send {
    /// Whether the client's calls into `mix` / `nucleus` open spans.
    const TRACED: bool;

    /// Runs the next op of the stream. False means the op failed: a
    /// non-transient error, wrong bytes against the oracle, or an error
    /// still transient after [`RETRIES`] immediate retries.
    fn op(&mut self) -> bool;

    fn tally(&self) -> Tally;

    /// Checks the final state against the oracle, then destroys every
    /// actor, port and process the client created. Returns whether the
    /// state was right, and the capabilities whose caches the Nucleus
    /// segment cache may keep on purpose (with their sizes).
    fn finish(self) -> Result<(bool, Vec<(Capability, u64)>)>;
}

/// Immediate retries of a transient error before the op counts as
/// failed. A retry re-takes the fault, as a kernel would.
pub const RETRIES: u32 = 3;

/// Runs a memory access, retrying transient errors.
#[inline]
pub fn with_retry<T>(retries: &mut u64, mut access: impl FnMut() -> Result<T>) -> Result<T> {
    let mut left = RETRIES;
    loop {
        match access() {
            Err(e) if e.is_transient() && left > 0 => {
                left -= 1;
                *retries += 1;
            }
            other => return other,
        }
    }
}

/// What a workload drives.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    MixMake,
    IpcTransit,
    /// A paging stream over `scan::FILE_PAGES` pages per client.
    Scan {
        /// An anonymous `rgn_allocate` region swapped through the
        /// default mapper, instead of a mapped file.
        anonymous: bool,
        write_percent: u64,
    },
}

/// One workload of the scoreboard.
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// Frame pool of the memory manager.
    pub frames: u32,
    /// Clients, one thread each.
    pub threads: usize,
    /// Ops per `--seconds` second over all clients. Sized from this
    /// sandbox's rate so a run measures for about `--seconds`; the op
    /// count, not the clock, ends the run, which is what keeps
    /// simulated time and every counter exact on one thread.
    pub ops_per_second: u64,
    /// Warm-up ops per client before the measured phase.
    pub warmup_ops: u64,
}

pub const SPECS: [Spec; 5] = [
    Spec {
        name: "mix-make",
        why: "Unix fork/exec/exit/pipe jobs that fit in memory: MIX, Nucleus regions, history objects, MMU churn; the mapper idles",
        kind: Kind::MixMake,
        frames: 2048,
        threads: 1,
        ops_per_second: 12_000,
        warmup_ops: 6_000,
    },
    Spec {
        name: "ipc-transit",
        why: "Nucleus IPC through the transit segment: per-page stubs, cache_copy/cache_move and bcopy; no history tree, mapper or pageout",
        kind: Kind::IpcTransit,
        frames: 1024,
        threads: 1,
        ops_per_second: 140_000,
        warmup_ops: 60_000,
    },
    Spec {
        name: "file-scan",
        why: "read-mostly paging of a mapped file 3x the frame pool: pageout policy, pullIn upcalls, fillUp and the mapper do the work",
        kind: Kind::Scan {
            anonymous: false,
            write_percent: 10,
        },
        frames: 256,
        threads: 1,
        ops_per_second: 400_000,
        warmup_ops: 200_000,
    },
    Spec {
        name: "dirty-churn",
        why: "the same stream with 60% writes on anonymous memory swapped via segmentCreate: a read-side gain that costs laundering shows here",
        kind: Kind::Scan {
            anonymous: true,
            write_percent: 60,
        },
        frames: 256,
        threads: 1,
        ops_per_second: 300_000,
        warmup_ops: 200_000,
    },
    Spec {
        name: "file-scan-mt",
        why: "two file-scan clients on a shared 512-frame pool: the only workload where state/phys/trans locks, gmap shards and stub waits carry load",
        kind: Kind::Scan {
            anonymous: false,
            write_percent: 10,
        },
        frames: 512,
        threads: 2,
        ops_per_second: 120_000,
        warmup_ops: 100_000,
    },
];

/// The clients of one workload.
pub enum Clients<G: Tgmi> {
    Mix(Vec<mix::MixClient<G>>),
    Ipc(Vec<ipc::IpcClient<G>>),
    Scan(Vec<scan::ScanClient<G>>),
}

/// Creates the clients of `spec` in `world`: their actors, regions,
/// files and programs.
pub fn build<G: Tgmi>(spec: &Spec, world: &World<G>, seed: u64) -> Result<Clients<G>> {
    Ok(match spec.kind {
        Kind::MixMake => Clients::Mix(vec![mix::MixClient::new(world, seed)?]),
        Kind::IpcTransit => Clients::Ipc(vec![ipc::IpcClient::new(world, seed)?]),
        Kind::Scan {
            anonymous,
            write_percent,
        } => Clients::Scan(
            (0..spec.threads as u64)
                .map(|lane| scan::ScanClient::new(world, seed, lane, anonymous, write_percent))
                .collect::<Result<_>>()?,
        ),
    })
}

/// An error for a harness-side expectation the product broke (a wait
/// that found no child, a short receive): the op fails, it is not
/// retried.
pub fn broken(what: &'static str) -> GmiError {
    GmiError::InvalidArgument(what)
}
