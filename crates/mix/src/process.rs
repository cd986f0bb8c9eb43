//! The MIX process manager: Unix process semantics over the Nucleus.

use crate::programs::{Program, ProgramStore};
use chorus_gmi::{Gmi, GmiError, Prot, Result, VirtAddr};
use chorus_hal::FxHashMap;
use chorus_nucleus::{Actor, IpcError, Nucleus, PortName};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// A Unix process id.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Pid(pub u32);

/// Process lifecycle state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProcState {
    /// Alive and runnable.
    Running,
    /// Exited; waiting to be reaped by the parent.
    Zombie(i32),
}

struct Proc {
    actor: Actor,
    parent: Option<Pid>,
    state: ProcState,
    /// Size of the currently mapped stack region.
    stack_size: u64,
    /// Program currently executed (None until the first exec).
    image: Option<Program>,
}

/// The process manager: "an actor which maps Unix process semantics
/// onto the Chorus Nucleus objects".
pub struct ProcessManager<G: Gmi> {
    nucleus: Arc<Nucleus<G>>,
    store: Arc<ProgramStore>,
    table: Mutex<FxHashMap<Pid, Proc>>,
    next_pid: Mutex<u32>,
    /// Address-space layout (all page aligned).
    text_base: VirtAddr,
    data_base: VirtAddr,
    stack_base: VirtAddr,
    default_stack: u64,
    /// Base of the (sparse) heap region.
    heap_base: VirtAddr,
    /// Fixed heap-region size: large and sparse, so `brk`-style growth
    /// never remaps (the paper's PVM supports large, sparse segments).
    heap_size: u64,
}

impl<G: Gmi> ProcessManager<G> {
    /// Creates a process manager with a conventional layout.
    pub fn new(nucleus: Arc<Nucleus<G>>, store: Arc<ProgramStore>) -> ProcessManager<G> {
        let ps = nucleus.gmi().geometry().page_size();
        ProcessManager {
            nucleus,
            store,
            table: Mutex::new(FxHashMap::default()),
            next_pid: Mutex::new(1),
            text_base: VirtAddr(16 * ps),
            data_base: VirtAddr(4096 * ps),
            stack_base: VirtAddr(1 << 40),
            default_stack: 8 * ps,
            heap_base: VirtAddr(8192 * ps),
            heap_size: 256 * ps,
        }
    }

    /// The Nucleus this manager runs on.
    pub fn nucleus(&self) -> &Arc<Nucleus<G>> {
        &self.nucleus
    }

    /// The program store.
    pub fn store(&self) -> &Arc<ProgramStore> {
        &self.store
    }

    /// The base address of the data region.
    pub fn data_base(&self) -> VirtAddr {
        self.data_base
    }

    /// The base address of the stack region.
    pub fn stack_base(&self) -> VirtAddr {
        self.stack_base
    }

    /// The base address of the text region.
    pub fn text_base(&self) -> VirtAddr {
        self.text_base
    }

    /// The base address of the (sparse) heap region.
    pub fn heap_base(&self) -> VirtAddr {
        self.heap_base
    }

    fn alloc_pid(&self) -> Pid {
        let mut next = self.next_pid.lock();
        let pid = Pid(*next);
        *next += 1;
        pid
    }

    fn actor_of(&self, pid: Pid) -> Result<Actor> {
        let table = self.table.lock();
        let proc = table
            .get(&pid)
            .ok_or(GmiError::InvalidArgument("unknown pid"))?;
        if proc.state != ProcState::Running {
            return Err(GmiError::InvalidArgument("process is a zombie"));
        }
        Ok(proc.actor)
    }

    /// Spawns the initial process executing `program` (no parent).
    ///
    /// # Errors
    ///
    /// Propagates memory-manager failures and unknown program names.
    pub fn spawn(&self, program: &str) -> Result<Pid> {
        let pid = self.alloc_pid();
        let actor = self.nucleus.actor_create()?;
        self.table.lock().insert(
            pid,
            Proc {
                actor,
                parent: None,
                state: ProcState::Running,
                stack_size: 0,
                image: None,
            },
        );
        self.exec(pid, program)?;
        Ok(pid)
    }

    /// `exec(2)`: replaces the address space with a fresh image.
    ///
    /// "The Unix exec invokes the Chorus rgnMap operation to map the
    /// text segment of the process, rgnInit for its data segment, and
    /// rgnAllocate for the stack."
    ///
    /// # Errors
    ///
    /// Fails on unknown programs or memory-manager errors.
    pub fn exec(&self, pid: Pid, program: &str) -> Result<()> {
        let image = self
            .store
            .lookup(program)
            .ok_or(GmiError::InvalidArgument("no such program"))?;
        let actor = self.actor_of(pid)?;
        // Tear down the old address space.
        let ctx = self.nucleus.ctx(actor)?;
        for (region, _status) in self.nucleus.gmi().region_list(ctx)? {
            self.nucleus.rgn_free(region)?;
        }
        // Map the new image.
        self.nucleus.rgn_map(
            actor,
            self.text_base,
            image.text_size,
            Prot::RX,
            image.text,
            0,
        )?;
        self.nucleus.rgn_init(
            actor,
            self.data_base,
            image.data_size,
            Prot::RW,
            image.data,
            0,
        )?;
        self.nucleus
            .rgn_allocate(actor, self.stack_base, self.default_stack, Prot::RW)?;
        // A large sparse heap: pages materialize only when touched.
        self.nucleus
            .rgn_allocate(actor, self.heap_base, self.heap_size, Prot::RW)?;
        let mut table = self.table.lock();
        let proc = table.get_mut(&pid).expect("pid vanished");
        proc.stack_size = self.default_stack;
        proc.image = Some(image);
        Ok(())
    }

    /// `fork(2)`: duplicates a process.
    ///
    /// "A Unix fork uses rgnMapFromActor to share the text segment
    /// between the parent and child processes. It invokes
    /// rgnInitFromActor to create the child's data and stack areas as
    /// copies of the parent's."
    ///
    /// # Errors
    ///
    /// Propagates memory-manager failures.
    pub fn fork(&self, parent: Pid) -> Result<Pid> {
        let parent_actor = self.actor_of(parent)?;
        let (stack_size, image) = {
            let table = self.table.lock();
            let p = table.get(&parent).expect("checked above");
            (p.stack_size, p.image)
        };
        let image = image.ok_or(GmiError::InvalidArgument("fork before exec"))?;
        let child_pid = self.alloc_pid();
        let child = self.nucleus.actor_create()?;
        // Text: shared.
        self.nucleus.rgn_map_from_actor(
            child,
            self.text_base,
            image.text_size,
            Prot::RX,
            parent_actor,
            self.text_base,
        )?;
        // Data and stack: deferred copies.
        self.nucleus.rgn_init_from_actor(
            child,
            self.data_base,
            image.data_size,
            Prot::RW,
            parent_actor,
            self.data_base,
        )?;
        self.nucleus.rgn_init_from_actor(
            child,
            self.stack_base,
            stack_size,
            Prot::RW,
            parent_actor,
            self.stack_base,
        )?;
        self.nucleus.rgn_init_from_actor(
            child,
            self.heap_base,
            self.heap_size,
            Prot::RW,
            parent_actor,
            self.heap_base,
        )?;
        self.table.lock().insert(
            child_pid,
            Proc {
                actor: child,
                parent: Some(parent),
                state: ProcState::Running,
                stack_size,
                image: Some(image),
            },
        );
        Ok(child_pid)
    }

    /// `exit(2)`: releases the address space; the table entry lingers as
    /// a zombie until the parent waits (orphans are reaped directly).
    ///
    /// # Errors
    ///
    /// Fails on unknown pids.
    pub fn exit(&self, pid: Pid, code: i32) -> Result<()> {
        let actor = self.actor_of(pid)?;
        self.nucleus.actor_destroy(actor)?;
        let mut table = self.table.lock();
        let has_parent = table.get(&pid).and_then(|p| p.parent).is_some();
        if has_parent {
            table.get_mut(&pid).expect("pid vanished").state = ProcState::Zombie(code);
        } else {
            table.remove(&pid);
        }
        // Re-parent children of the exiting process to "init" (none).
        for proc in table.values_mut() {
            if proc.parent == Some(pid) {
                proc.parent = None;
            }
        }
        // Reap orphaned zombies.
        table.retain(|_, p| !(p.parent.is_none() && matches!(p.state, ProcState::Zombie(_))));
        Ok(())
    }

    /// `wait(2)`: reaps the lowest-pid zombie child, returning its pid
    /// and exit code; `None` if no child has exited yet.
    pub fn wait(&self, parent: Pid) -> Option<(Pid, i32)> {
        let mut table = self.table.lock();
        let found = table
            .iter()
            .filter(|(_, p)| p.parent == Some(parent))
            .filter_map(|(&pid, p)| match p.state {
                ProcState::Zombie(code) => Some((pid, code)),
                ProcState::Running => None,
            })
            .min();
        if let Some((pid, _)) = found {
            table.remove(&pid);
        }
        found
    }

    /// The lifecycle state of a process, if it exists.
    pub fn state(&self, pid: Pid) -> Option<ProcState> {
        self.table.lock().get(&pid).map(|p| p.state)
    }

    /// Number of live (non-zombie) processes.
    pub fn live_processes(&self) -> usize {
        self.table
            .lock()
            .values()
            .filter(|p| p.state == ProcState::Running)
            .count()
    }

    /// Reads process memory.
    ///
    /// # Errors
    ///
    /// Propagates faults.
    pub fn read_mem(&self, pid: Pid, va: VirtAddr, buf: &mut [u8]) -> Result<()> {
        self.nucleus.read_mem(self.actor_of(pid)?, va, buf)
    }

    /// Writes process memory.
    ///
    /// # Errors
    ///
    /// Propagates faults.
    pub fn write_mem(&self, pid: Pid, va: VirtAddr, data: &[u8]) -> Result<()> {
        self.nucleus.write_mem(self.actor_of(pid)?, va, data)
    }

    // ----- pipes (ports + transit segment) --------------------------------

    /// Creates a pipe (a Nucleus port).
    pub fn pipe(&self) -> PortName {
        self.nucleus.port_create()
    }

    /// Writes `len` bytes of `pid`'s memory at `va` into the pipe.
    ///
    /// # Errors
    ///
    /// Propagates IPC failures.
    pub fn pipe_write(
        &self,
        pid: Pid,
        pipe: PortName,
        va: VirtAddr,
        len: u64,
    ) -> core::result::Result<(), IpcError> {
        let actor = self.actor_of(pid)?;
        self.nucleus.ipc_send(actor, pipe, va, len)
    }

    /// Reads the next pipe message into `pid`'s memory at `va`.
    ///
    /// # Errors
    ///
    /// Propagates IPC failures (including `Timeout` on empty pipes).
    pub fn pipe_read(
        &self,
        pid: Pid,
        pipe: PortName,
        va: VirtAddr,
        max_len: u64,
        timeout: Duration,
    ) -> core::result::Result<u64, IpcError> {
        let actor = self.actor_of(pid)?;
        self.nucleus.ipc_receive(actor, pipe, va, max_len, timeout)
    }
}
