//! The paging stream behind `file-scan`, `dirty-churn` and
//! `file-scan-mt`: 8-byte accesses to a region three times the size of
//! the frame pool (per client).
//!
//! Even ops advance a sequential cursor; odd ops draw 80 % from a
//! 64-page hot set and 20 % uniformly. The oracle is a byte mirror of
//! the whole region: every read is checked against it, and so is the
//! final state (the mapper's segment after a `cache_sync` for a file,
//! a full read-back for anonymous memory).

use super::{with_retry, Client, Tally};
use crate::rng::{fold, Rng};
use crate::trace::{spanned, Span, Tgmi};
use crate::world::{World, PAGE};
use chorus_vm::gmi::{Prot, RegionId, Result, VirtAddr};
use chorus_vm::nucleus::{Actor, Capability, MemMapper, Nucleus};
use std::sync::Arc;

/// Pages of the scanned region (each client has its own).
pub const FILE_PAGES: u64 = 768;
const HOT_PAGES: u64 = 64;
/// Bytes the sequential cursor advances per even op: one page, so every
/// sequential access touches a page the stream has not seen for a whole
/// pass over the region.
const STRIDE: u64 = PAGE;
const LEN: u64 = FILE_PAGES * PAGE;

pub struct ScanClient<G: Tgmi> {
    nucleus: Arc<Nucleus<G>>,
    files: Arc<MemMapper>,
    actor: Actor,
    region: RegionId,
    base: VirtAddr,
    /// The mapped file, or `None` for anonymous memory.
    file: Option<Capability>,
    mirror: Vec<u8>,
    hot_start: u64,
    write_percent: u64,
    rng: Rng,
    next_op: u64,
    cursor: u64,
    tally: Tally,
}

impl<G: Tgmi> ScanClient<G> {
    pub fn new(
        world: &World<G>,
        seed: u64,
        lane: u64,
        anonymous: bool,
        write_percent: u64,
    ) -> Result<ScanClient<G>> {
        let mut rng = Rng::new(seed, lane + 1);
        let nucleus = world.nucleus.clone();
        let actor = nucleus.actor_create()?;
        // Clients share nothing, but distinct bases keep their traces
        // apart.
        let base = VirtAddr((1 << 30) + lane * (1 << 28));
        let mut mirror = vec![0u8; LEN as usize];
        let (file, region) = if anonymous {
            let region = nucleus.rgn_allocate(actor, base, LEN, Prot::RW)?;
            // The process initialises its memory from the top down, so
            // the first page swapped out is the last of the region and
            // `MemMapper` sizes the swap segment once. Grown piecemeal,
            // the segment's reallocations made `peak_rss_mb` depend on
            // the order of pushes, that is on the seed.
            for page in (0..FILE_PAGES).rev() {
                let at = (page * PAGE) as usize;
                rng.fill(&mut mirror[at..at + 8]);
                nucleus.write_mem(actor, VirtAddr(base.0 + page * PAGE), &mirror[at..at + 8])?;
            }
            (None, region)
        } else {
            rng.fill(&mut mirror);
            let cap = world.files.create_segment(&mirror);
            (
                Some(cap),
                nucleus.rgn_map(actor, base, LEN, Prot::RW, cap, 0)?,
            )
        };
        // The process is scheduled once and keeps the (single, modelled)
        // CPU: on `file-scan-mt` the MMU's current context is the last
        // client's.
        nucleus.gmi().context_switch(nucleus.ctx(actor)?)?;
        Ok(ScanClient {
            nucleus,
            files: world.files.clone(),
            actor,
            region,
            base,
            file,
            mirror,
            hot_start: rng.below(FILE_PAGES - HOT_PAGES + 1),
            write_percent,
            rng,
            next_op: 0,
            cursor: 0,
            tally: Tally::default(),
        })
    }
}

impl<G: Tgmi> Client for ScanClient<G> {
    const TRACED: bool = G::TRACED;

    fn op(&mut self) -> bool {
        let i = self.next_op;
        self.next_op += 1;
        let off = if i.is_multiple_of(2) {
            let at = self.cursor;
            self.cursor = (self.cursor + STRIDE) % LEN;
            at
        } else {
            let page = if self.rng.below(100) < 80 {
                self.hot_start + self.rng.below(HOT_PAGES)
            } else {
                self.rng.below(FILE_PAGES)
            };
            page * PAGE + self.rng.below(PAGE / 8) * 8
        };
        let write = self.rng.below(100) < self.write_percent;
        self.tally.stream_fp = fold(self.tally.stream_fp, off << 1 | u64::from(write));
        let va = VirtAddr(self.base.0 + off);
        let at = off as usize;
        let (nucleus, actor) = (&self.nucleus, self.actor);
        if write {
            let value = self.rng.next().to_le_bytes();
            let done = with_retry(&mut self.tally.transient_retries, || {
                spanned::<G, _>(Span::NucMem, || nucleus.write_mem(actor, va, &value))
            });
            if done.is_err() {
                return false;
            }
            self.mirror[at..at + 8].copy_from_slice(&value);
            self.tally.dirtied_pages += 1;
            true
        } else {
            let mut got = [0u8; 8];
            let done = with_retry(&mut self.tally.transient_retries, || {
                spanned::<G, _>(Span::NucMem, || nucleus.read_mem(actor, va, &mut got))
            });
            done.is_ok() && got == self.mirror[at..at + 8]
        }
    }

    fn tally(&self) -> Tally {
        self.tally
    }

    fn finish(self) -> Result<(bool, Vec<(Capability, u64)>)> {
        let correct = match self.file {
            Some(cap) => {
                let gmi = self.nucleus.gmi();
                let cache = gmi.region_status(self.region)?.cache;
                gmi.cache_sync(cache, 0, LEN)?;
                self.files.segment_data(cap) == self.mirror
            }
            None => {
                let mut page = vec![0u8; PAGE as usize];
                let mut same = true;
                for (p, want) in self.mirror.chunks(PAGE as usize).enumerate() {
                    let va = VirtAddr(self.base.0 + p as u64 * PAGE);
                    self.nucleus.read_mem(self.actor, va, &mut page)?;
                    same &= page == want;
                }
                same
            }
        };
        self.nucleus.actor_destroy(self.actor)?;
        Ok((
            correct,
            self.file.map(|cap| (cap, LEN)).into_iter().collect(),
        ))
    }
}
