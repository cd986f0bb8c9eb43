//! IPC decoupled from memory management (§5.1.6): a producer/consumer
//! pipeline whose messages travel through the kernel's transit segment
//! using the per-virtual-page deferred copy (send = `cache.copy`,
//! receive = `cache.move`) — no physical copy until someone writes.
//!
//! Run with: `cargo run --example ipc_pipeline`

use chorus_vm::gmi::{Prot, VirtAddr};
use chorus_vm::hal::{CostParams, PageGeometry};
use chorus_vm::nucleus::{MemMapper, Nucleus, NucleusSegmentManager, PortName, SwapMapper};
use chorus_vm::pvm::{Pvm, PvmOptions};
use std::sync::Arc;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seg_mgr = Arc::new(NucleusSegmentManager::new());
    let files = Arc::new(MemMapper::new(PortName(1)));
    let swap = Arc::new(SwapMapper::new(PortName(2)));
    seg_mgr.register_mapper(PortName(1), files);
    seg_mgr.register_mapper(PortName(2), swap);
    seg_mgr.set_default_mapper(PortName(2));
    let pvm = Arc::new(Pvm::new(
        PvmOptions {
            geometry: PageGeometry::sun3(),
            frames: 1024,
            cost: CostParams::sun3(),
            ..PvmOptions::default()
        },
        seg_mgr.clone(),
    ));
    let nucleus = Arc::new(Nucleus::new(pvm, seg_mgr, 8));
    let page = PageGeometry::SUN3_PAGE_SIZE;

    // Two actors with a buffer region each.
    let producer = nucleus.actor_create()?;
    let consumer = nucleus.actor_create()?;
    nucleus.rgn_allocate(producer, VirtAddr(0x10_0000), 16 * page, Prot::RW)?;
    nucleus.rgn_allocate(consumer, VirtAddr(0x20_0000), 16 * page, Prot::RW)?;
    let port = nucleus.port_create();

    // --- a 64 KB message (the paper's limit): fully deferred ------------
    let msg: Vec<u8> = (0..8 * page).map(|i| (i * 7 % 255) as u8).collect();
    nucleus.write_mem(producer, VirtAddr(0x10_0000), &msg)?;
    let copies_before = nucleus.gmi().mem_stats().copied;
    nucleus.ipc_send(producer, port, VirtAddr(0x10_0000), 8 * page)?;
    println!(
        "send of 64 KB: {} physical page copies (deferred via per-page stubs), {} stubs installed",
        nucleus.gmi().mem_stats().copied - copies_before,
        nucleus.gmi().stats().cow_stubs_created,
    );

    // The consumer receives into its own region (cache.move from the
    // transit slot: deferred stubs or whole frames are re-assigned; a
    // physical copy happens only when the consumer actually reads).
    let copies_before = nucleus.gmi().mem_stats().copied;
    let n = nucleus.ipc_receive(
        consumer,
        port,
        VirtAddr(0x20_0000),
        8 * page,
        Duration::from_secs(1),
    )?;
    println!(
        "receive completed with {} physical copies so far (still deferred)",
        nucleus.gmi().mem_stats().copied - copies_before
    );
    let mut got = vec![0u8; n as usize];
    nucleus.read_mem(consumer, VirtAddr(0x20_0000), &mut got)?;
    assert_eq!(got, msg);

    // --- sender reuses its buffer immediately ----------------------------
    nucleus.write_mem(
        producer,
        VirtAddr(0x10_0000),
        &vec![0u8; (8 * page) as usize],
    )?;
    nucleus.read_mem(consumer, VirtAddr(0x20_0000), &mut got)?;
    assert_eq!(
        got, msg,
        "the delivered message is isolated from buffer reuse"
    );
    println!("sender buffer reuse does not corrupt the delivered message");

    // --- a pipeline of small control messages (bcopy path) ---------------
    for i in 0..5u8 {
        nucleus.write_mem(producer, VirtAddr(0x10_0000 + 64), &[i; 32])?;
        nucleus.ipc_send(producer, port, VirtAddr(0x10_0000 + 64), 32)?;
    }
    let mut received = 0;
    while let Ok(n) = nucleus.ipc_receive(
        consumer,
        port,
        VirtAddr(0x20_0000 + 2 * page),
        page,
        Duration::from_millis(10),
    ) {
        received += 1;
        let _ = n;
    }
    println!("pipeline of {received} small messages delivered through the bcopy path");
    println!("simulated time: {}", nucleus.gmi().cost_model().now());
    Ok(())
}
