//! `mix-make`: the paper's motivating Unix load (§5.1.5), a shell
//! running compile jobs through Chorus/MIX.
//!
//! One op is one job. The shell forks and both sides write a data
//! page; the child `exec`s one of six seeded `cc<k>` programs, reads 8
//! text pages and writes 4 data, 6 heap and 2 stack pages; it forks a
//! grandchild that writes; it pipes 2 pages to the shell and exits; the
//! orphaned grandchild writes again and exits, and the shell reads the
//! pipe and waits. The oracle checks parent/child isolation after each
//! fork, the exec'd text and data against the program image, and the
//! piped bytes.
//!
//! The grandchild outlives its parent on purpose: a copy that survives
//! its source is what leaves zombie history nodes to merge and makes
//! the PVM insert working objects (§4.2.3, §4.2.5). With the grandchild
//! exiting first both counters read 0.
//!
//! MIX keeps a process's actor private, so the harness cannot play the
//! scheduler here: no `context_switch` is issued and the modelled TLB
//! stays cold, as it does for every MIX user today.

use super::{broken, with_retry, Client, Tally};
use crate::rng::{fold, Rng};
use crate::trace::{spanned, Span, Tgmi};
use crate::world::{World, PAGE};
use chorus_vm::gmi::{Result, SegmentId, VirtAddr};
use chorus_vm::mix::{Pid, ProcessManager, Program, ProgramStore};
use chorus_vm::nucleus::{Capability, PortName};
use std::sync::Arc;
use std::time::Duration;

const PROGRAMS: usize = 6;
const TEXT_PAGES_MIN: u64 = 8;
const TEXT_PAGES_MAX: u64 = 28;
/// Data segments are larger than `PvmConfig::per_page_max_pages` (8), so
/// a fork defers their copy with a history object, not per-page stubs.
const DATA_PAGES: u64 = 12;
const TEXT_READS: u64 = 8;
const DATA_WRITES: u64 = 4;
const HEAP_WRITES: u64 = 6;
const STACK_WRITES: u64 = 2;
const PIPE_PAGES: u64 = 2;
const PIPE_TIMEOUT: Duration = Duration::from_secs(1);

struct Image {
    name: String,
    program: Program,
    text: Vec<u8>,
    data: Vec<u8>,
}

pub struct MixClient<G: Tgmi> {
    pm: ProcessManager<G>,
    shell: Pid,
    shell_image: Program,
    pipe: PortName,
    compilers: Vec<Image>,
    /// Processes of the running job that have not exited yet.
    live: Vec<Pid>,
    rng: Rng,
    tally: Tally,
}

fn page_of(base: VirtAddr, page: u64) -> VirtAddr {
    VirtAddr(base.0 + page * PAGE)
}

impl<G: Tgmi> MixClient<G> {
    pub fn new(world: &World<G>, seed: u64) -> Result<MixClient<G>> {
        let mut rng = Rng::new(seed, 1);
        let store = Arc::new(ProgramStore::new(world.files.clone(), PAGE));
        let mut image = |name: String, text_pages: u64, data_pages: u64| {
            let mut text = vec![0u8; (text_pages * PAGE) as usize];
            let mut data = vec![0u8; (data_pages * PAGE) as usize];
            rng.fill(&mut text);
            rng.fill(&mut data);
            Image {
                program: store.register(&name, &text, &data),
                name,
                text,
                data,
            }
        };
        let sh = image("sh".to_string(), 4, DATA_PAGES);
        let compilers = (0..PROGRAMS)
            .map(|k| {
                let spread = TEXT_PAGES_MAX - TEXT_PAGES_MIN;
                let text_pages = TEXT_PAGES_MIN + spread * k as u64 / (PROGRAMS as u64 - 1);
                image(format!("cc{k}"), text_pages, DATA_PAGES)
            })
            .collect();
        let pm = ProcessManager::new(world.nucleus.clone(), store);
        let shell = pm.spawn(&sh.name)?;
        Ok(MixClient {
            pipe: pm.pipe(),
            pm,
            shell,
            shell_image: sh.program,
            compilers,
            live: Vec::new(),
            rng,
            tally: Tally::default(),
        })
    }

    fn write(&mut self, pid: Pid, va: VirtAddr, value: u64) -> Result<()> {
        self.tally.dirtied_pages += 1;
        let pm = &self.pm;
        with_retry(&mut self.tally.transient_retries, || {
            spanned::<G, _>(Span::MixMem, || pm.write_mem(pid, va, &value.to_le_bytes()))
        })
    }

    /// Reads 8 bytes and compares them with `want`.
    fn holds(&mut self, pid: Pid, va: VirtAddr, want: &[u8]) -> Result<bool> {
        let mut got = [0u8; 8];
        let pm = &self.pm;
        with_retry(&mut self.tally.transient_retries, || {
            spanned::<G, _>(Span::MixMem, || pm.read_mem(pid, va, &mut got))
        })?;
        Ok(got == want)
    }

    fn fork(&mut self, parent: Pid) -> Result<Pid> {
        let child = spanned::<G, _>(Span::MixFork, || self.pm.fork(parent))?;
        self.live.push(child);
        Ok(child)
    }

    fn exit(&mut self, pid: Pid) -> Result<()> {
        spanned::<G, _>(Span::MixExit, || self.pm.exit(pid, 0))?;
        self.live.retain(|&p| p != pid);
        Ok(())
    }

    fn reap(&mut self, parent: Pid, child: Pid) -> Result<()> {
        match spanned::<G, _>(Span::MixExit, || self.pm.wait(parent)) {
            Some((pid, 0)) if pid == child => Ok(()),
            _ => Err(broken("wait did not reap the exited child")),
        }
    }

    fn job(&mut self) -> Result<bool> {
        let k = self.rng.below(PROGRAMS as u64) as usize;
        let text_pages = self.compilers[k].text.len() as u64 / PAGE;
        let first_text = self.rng.below(text_pages - TEXT_READS + 1);
        let stamp = self.rng.next();
        self.tally.stream_fp = fold(self.tally.stream_fp, stamp ^ k as u64 ^ first_text << 8);
        let (data, heap, stack, text) = (
            self.pm.data_base(),
            self.pm.heap_base(),
            self.pm.stack_base(),
            self.pm.text_base(),
        );
        let shell = self.shell;
        let mut same = true;

        // fork: both sides write the same data page and must not see
        // each other's value.
        let child = self.fork(shell)?;
        self.write(shell, data, stamp)?;
        self.write(child, data, !stamp)?;
        same &= self.holds(shell, data, &stamp.to_le_bytes())?;
        same &= self.holds(child, data, &(!stamp).to_le_bytes())?;

        // exec: fresh text and data from the program image.
        let name = self.compilers[k].name.clone();
        spanned::<G, _>(Span::MixExec, || self.pm.exec(child, &name))?;
        for p in 0..TEXT_READS {
            let at = (first_text + p) * PAGE + self.rng.below(PAGE / 8) * 8;
            let want: [u8; 8] = self.compilers[k].text[at as usize..at as usize + 8]
                .try_into()
                .expect("8 bytes");
            same &= self.holds(child, VirtAddr(text.0 + at), &want)?;
        }
        for p in 0..DATA_WRITES {
            self.write(child, page_of(data, p), stamp.wrapping_add(p))?;
        }
        let untouched = (DATA_WRITES * PAGE) as usize;
        let want: [u8; 8] = self.compilers[k].data[untouched..untouched + 8]
            .try_into()
            .expect("8 bytes");
        same &= self.holds(child, page_of(data, DATA_WRITES), &want)?;
        for p in 0..HEAP_WRITES {
            self.write(child, page_of(heap, p), stamp ^ p)?;
        }
        for p in 0..STACK_WRITES {
            self.write(child, page_of(stack, p), stamp.wrapping_sub(p))?;
        }

        // A grandchild writes over the child's first data page; the child
        // keeps its own value.
        let grandchild = self.fork(child)?;
        self.write(grandchild, data, 0)?;
        same &= self.holds(child, data, &stamp.to_le_bytes())?;

        // The child pipes its first heap pages to the shell and exits.
        spanned::<G, _>(Span::MixPipe, || {
            self.pm
                .pipe_write(child, self.pipe, heap, PIPE_PAGES * PAGE)
        })
        .map_err(|e| e.into_gmi(SegmentId(0)))?;
        self.exit(child)?;
        // The orphan works on over its dead parent's history, then exits
        // (nobody waits for it).
        self.write(grandchild, page_of(data, 1), 1)?;
        same &= self.holds(grandchild, data, &0u64.to_le_bytes())?;
        self.exit(grandchild)?;
        let got = spanned::<G, _>(Span::MixPipe, || {
            self.pm
                .pipe_read(shell, self.pipe, heap, PIPE_PAGES * PAGE, PIPE_TIMEOUT)
        })
        .map_err(|e| e.into_gmi(SegmentId(0)))?;
        if got != PIPE_PAGES * PAGE {
            return Err(broken("pipe delivered a short message"));
        }
        for p in 0..PIPE_PAGES {
            same &= self.holds(shell, page_of(heap, p), &(stamp ^ p).to_le_bytes())?;
        }
        self.reap(shell, child)?;
        Ok(same)
    }
}

impl<G: Tgmi> Client for MixClient<G> {
    const TRACED: bool = G::TRACED;

    fn op(&mut self) -> bool {
        self.job().unwrap_or_else(|_| {
            // Leave no process or message of the failed job behind.
            for pid in std::mem::take(&mut self.live) {
                let _ = self.pm.exit(pid, 1);
            }
            while self.pm.wait(self.shell).is_some() {}
            while self
                .pm
                .pipe_read(
                    self.shell,
                    self.pipe,
                    self.pm.heap_base(),
                    PIPE_PAGES * PAGE,
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
        let correct = self.pm.live_processes() == 1;
        self.pm.exit(self.shell, 0)?;
        self.pm.nucleus().port_destroy(self.pipe);
        let kept = self
            .compilers
            .iter()
            .map(|image| image.program)
            .chain([self.shell_image])
            .flat_map(|p| [(p.text, p.text_size), (p.data, p.data_size)])
            .collect();
        Ok((correct, kept))
    }
}
