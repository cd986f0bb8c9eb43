//! `ipc-transit`: messages between two actors through the Nucleus
//! transit segment (§5.1.6).
//!
//! One op is a send, after which the sender overwrites the last 64 B
//! of what it sent, and the matching receive, after which the receiver
//! reads the last 64 B and writes 8 B. The message size is seeded: a
//! quarter each of 64 KiB, 16 KiB and 8 KiB (deferred `cache_copy` out,
//! `cache_move` in) and 256 B (the `bcopy` path). The oracle mirrors
//! the sender's buffer: the receiver must see the bytes as they were at
//! send time, not the overwrite that followed (buffer-reuse isolation),
//! and every 1024th message is compared in full.

use super::{broken, with_retry, Client, Tally};
use crate::rng::{fold, Rng};
use crate::trace::{spanned, Span, Tgmi};
use crate::world::{World, PAGE};
use chorus_vm::gmi::{Prot, Result, SegmentId, VirtAddr};
use chorus_vm::nucleus::{Actor, Capability, Nucleus, PortName};
use std::sync::Arc;
use std::time::Duration;

const BUF_PAGES: u64 = 16;
const BUF_LEN: u64 = BUF_PAGES * PAGE;
const SIZES: [u64; 4] = [64 * 1024, 16 * 1024, 8 * 1024, 256];
/// Bytes at the end of every message that the sender overwrites after
/// the send and the receiver checks.
const EDGE: usize = 64;
const FULL_CHECK_EVERY: u64 = 1024;
/// The message is queued before the receive is issued, so the receive
/// never waits.
const RECEIVE_TIMEOUT: Duration = Duration::from_secs(1);

pub struct IpcClient<G: Tgmi> {
    nucleus: Arc<Nucleus<G>>,
    sender: Actor,
    receiver: Actor,
    port: PortName,
    send_base: VirtAddr,
    recv_base: VirtAddr,
    /// Mirror of the sender's buffer.
    mirror: Vec<u8>,
    rng: Rng,
    next_op: u64,
    tally: Tally,
}

impl<G: Tgmi> IpcClient<G> {
    pub fn new(world: &World<G>, seed: u64) -> Result<IpcClient<G>> {
        let mut rng = Rng::new(seed, 1);
        let nucleus = world.nucleus.clone();
        let sender = nucleus.actor_create()?;
        let receiver = nucleus.actor_create()?;
        let send_base = VirtAddr(1 << 30);
        let recv_base = VirtAddr(1 << 31);
        nucleus.rgn_allocate(sender, send_base, BUF_LEN, Prot::RW)?;
        nucleus.rgn_allocate(receiver, recv_base, BUF_LEN, Prot::RW)?;
        let mut mirror = vec![0u8; BUF_LEN as usize];
        rng.fill(&mut mirror);
        nucleus.write_mem(sender, send_base, &mirror)?;
        Ok(IpcClient {
            port: nucleus.port_create(),
            nucleus,
            sender,
            receiver,
            send_base,
            recv_base,
            mirror,
            rng,
            next_op: 0,
            tally: Tally::default(),
        })
    }

    /// The scheduler's part: the process about to run gets the CPU.
    fn run_on_cpu(&self, actor: Actor) -> Result<()> {
        self.nucleus.gmi().context_switch(self.nucleus.ctx(actor)?)
    }

    fn read(&mut self, actor: Actor, va: VirtAddr, buf: &mut [u8]) -> Result<()> {
        let nucleus = &self.nucleus;
        with_retry(&mut self.tally.transient_retries, || {
            spanned::<G, _>(Span::NucMem, || nucleus.read_mem(actor, va, buf))
        })
    }

    fn write(&mut self, actor: Actor, va: VirtAddr, data: &[u8]) -> Result<()> {
        self.tally.dirtied_pages += 1;
        let nucleus = &self.nucleus;
        with_retry(&mut self.tally.transient_retries, || {
            spanned::<G, _>(Span::NucMem, || nucleus.write_mem(actor, va, data))
        })
    }

    fn transfer(&mut self) -> Result<bool> {
        let i = self.next_op;
        self.next_op += 1;
        let size = SIZES[self.rng.below(4) as usize];
        let slack = BUF_PAGES - size.div_ceil(PAGE) + 1;
        let from = self.rng.below(slack) * PAGE;
        let to = self.rng.below(slack) * PAGE;
        self.tally.stream_fp = fold(self.tally.stream_fp, size ^ from << 20 ^ to << 40);
        let (from_at, len) = (from as usize, size as usize);
        let src = VirtAddr(self.send_base.0 + from);
        let dst = VirtAddr(self.recv_base.0 + to);

        self.run_on_cpu(self.sender)?;
        spanned::<G, _>(Span::NucIpcSend, || {
            self.nucleus.ipc_send(self.sender, self.port, src, size)
        })
        .map_err(|e| e.into_gmi(SegmentId(0)))?;
        // The sender reuses the end of its buffer while the message is
        // in transit; the receiver must still see the bytes as sent.
        let tail = len - EDGE;
        let mut sent_tail = [0u8; EDGE];
        sent_tail.copy_from_slice(&self.mirror[from_at + tail..from_at + len]);
        let mut reuse = [0u8; EDGE];
        self.rng.fill(&mut reuse);
        self.write(self.sender, VirtAddr(src.0 + tail as u64), &reuse)?;
        self.mirror[from_at + tail..from_at + len].copy_from_slice(&reuse);

        self.run_on_cpu(self.receiver)?;
        let got = spanned::<G, _>(Span::NucIpcReceive, || {
            self.nucleus
                .ipc_receive(self.receiver, self.port, dst, size, RECEIVE_TIMEOUT)
        })
        .map_err(|e| e.into_gmi(SegmentId(0)))?;
        if got != size {
            return Err(broken("received length differs from sent length"));
        }
        let mut edge = [0u8; EDGE];
        self.read(self.receiver, VirtAddr(dst.0 + tail as u64), &mut edge)?;
        let mut same = edge == sent_tail;
        let stamp = self.rng.next().to_le_bytes();
        if i.is_multiple_of(FULL_CHECK_EVERY) {
            let mut whole = vec![0u8; len];
            self.read(self.receiver, dst, &mut whole)?;
            same &= whole[..tail] == self.mirror[from_at..from_at + tail];
            same &= whole[tail..] == sent_tail;
            // The receiver writes to every page it has read: see the
            // stale-mapping defect under "Findings" in the README.
            for page in 0..(size / PAGE).saturating_sub(1) {
                self.write(self.receiver, VirtAddr(dst.0 + page * PAGE), &stamp)?;
            }
        }
        self.write(self.receiver, VirtAddr(dst.0 + size - 8), &stamp)?;
        Ok(same)
    }
}

impl<G: Tgmi> Client for IpcClient<G> {
    const TRACED: bool = G::TRACED;

    fn op(&mut self) -> bool {
        self.transfer().unwrap_or_else(|_| {
            // Drop whatever the failed op left queued, so the next op
            // does not receive it.
            while self
                .nucleus
                .ipc_receive(
                    self.receiver,
                    self.port,
                    self.recv_base,
                    BUF_LEN,
                    Duration::ZERO,
                )
                .is_ok()
            {}
            false
        })
    }

    fn tally(&self) -> Tally {
        self.tally
    }

    fn finish(self) -> Result<(bool, Vec<(Capability, u64)>)> {
        let mut now = vec![0u8; BUF_LEN as usize];
        self.nucleus
            .read_mem(self.sender, self.send_base, &mut now)?;
        self.nucleus.port_destroy(self.port);
        self.nucleus.actor_destroy(self.sender)?;
        self.nucleus.actor_destroy(self.receiver)?;
        Ok((now == self.mirror, Vec::new()))
    }
}
