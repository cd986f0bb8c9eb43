//! Nucleus-level behaviour: rgn* operations, segment caching, IPC
//! through the transit segment (§5.1).

use chorus_gmi::{Gmi, Prot, VirtAddr};
use chorus_hal::{CostParams, OpKind, PageGeometry};
use chorus_nucleus::{
    Actor, IpcError, MemMapper, Nucleus, NucleusSegmentManager, PortName, SwapMapper,
};
use chorus_pvm::{Pvm, PvmConfig, PvmOptions};
use std::sync::Arc;
use std::time::Duration;

const PS: u64 = 256;

struct World {
    nucleus: Nucleus<Pvm>,
    files: Arc<MemMapper>,
    swap: Arc<SwapMapper>,
}

fn world(frames: u32) -> World {
    let seg_mgr = Arc::new(NucleusSegmentManager::new());
    let files = Arc::new(MemMapper::new(PortName(100)));
    let swap = Arc::new(SwapMapper::new(PortName(101)));
    seg_mgr.register_mapper(PortName(100), files.clone());
    seg_mgr.register_mapper(PortName(101), swap.clone());
    seg_mgr.set_default_mapper(PortName(101));
    let pvm = Arc::new(Pvm::new(
        PvmOptions {
            geometry: PageGeometry::new(PS),
            frames,
            cost: CostParams::zero(),
            config: PvmConfig::builder()
                .paging(|p| p.check_invariants(true))
                .build()
                .expect("valid config"),
            ..PvmOptions::default()
        },
        seg_mgr.clone(),
    ));
    World {
        nucleus: Nucleus::new(pvm, seg_mgr, 4),
        files,
        swap,
    }
}

fn pattern(tag: u8, len: usize) -> Vec<u8> {
    (0..len).map(|i| tag.wrapping_add(i as u8)).collect()
}

#[test]
fn rgn_allocate_gives_zero_filled_memory() {
    let w = world(32);
    let a = w.nucleus.actor_create().unwrap();
    w.nucleus
        .rgn_allocate(a, VirtAddr(0x1000), 4 * PS, Prot::RW)
        .unwrap();
    let mut buf = vec![1u8; 16];
    w.nucleus.read_mem(a, VirtAddr(0x1000), &mut buf).unwrap();
    assert_eq!(buf, vec![0u8; 16]);
    w.nucleus
        .write_mem(a, VirtAddr(0x1000), b"stack data")
        .unwrap();
    let mut buf = vec![0u8; 10];
    w.nucleus.read_mem(a, VirtAddr(0x1000), &mut buf).unwrap();
    assert_eq!(buf, b"stack data");
}

#[test]
fn rgn_map_reads_the_file_through_the_mapper() {
    let w = world(32);
    let content = pattern(0x20, (4 * PS) as usize);
    let cap = w.files.create_segment(&content);
    let a = w.nucleus.actor_create().unwrap();
    w.nucleus
        .rgn_map(a, VirtAddr(0x4000), 2 * PS, Prot::RX, cap, PS)
        .unwrap();
    let mut buf = vec![0u8; 12];
    w.nucleus.read_mem(a, VirtAddr(0x4000), &mut buf).unwrap();
    assert_eq!(buf, content[PS as usize..PS as usize + 12]);
}

#[test]
fn rgn_map_shares_one_cache_across_actors() {
    let w = world(32);
    let cap = w.files.create_segment(&pattern(1, (2 * PS) as usize));
    let a = w.nucleus.actor_create().unwrap();
    let b = w.nucleus.actor_create().unwrap();
    w.nucleus
        .rgn_map(a, VirtAddr(0), 2 * PS, Prot::RW, cap, 0)
        .unwrap();
    w.nucleus
        .rgn_map(b, VirtAddr(0x8000), 2 * PS, Prot::RW, cap, 0)
        .unwrap();
    // One miss, one hit: the second map found the bound cache.
    let stats = w.nucleus.segment_caching_stats();
    assert_eq!((stats.misses, stats.hits), (1, 1));
    // Shared semantics: writes are visible through both mappings.
    w.nucleus.write_mem(a, VirtAddr(3), b"shared!").unwrap();
    let mut buf = vec![0u8; 7];
    w.nucleus
        .read_mem(b, VirtAddr(0x8000 + 3), &mut buf)
        .unwrap();
    assert_eq!(buf, b"shared!");
}

#[test]
fn rgn_init_is_a_snapshot_copy() {
    let w = world(64);
    let content = pattern(0x60, (3 * PS) as usize);
    let cap = w.files.create_segment(&content);
    let a = w.nucleus.actor_create().unwrap();
    w.nucleus
        .rgn_init(a, VirtAddr(0x10000), 3 * PS, Prot::RW, cap, 0)
        .unwrap();
    let mut buf = vec![0u8; 8];
    w.nucleus.read_mem(a, VirtAddr(0x10000), &mut buf).unwrap();
    assert_eq!(buf, content[..8]);
    // Writing the region must not touch the file.
    w.nucleus
        .write_mem(a, VirtAddr(0x10000), b"PRIVATE!")
        .unwrap();
    assert_eq!(w.files.segment_data(cap), content);
}

#[test]
fn fork_pattern_with_map_and_init_from_actor() {
    let w = world(64);
    // "A Unix fork uses rgnMapFromActor to share the text segment...
    // It invokes rgnInitFromActor to create the child's data and stack
    // areas as copies of the parent's."
    let text_cap = w.files.create_segment(&pattern(0x7F, (2 * PS) as usize));
    let parent = w.nucleus.actor_create().unwrap();
    w.nucleus
        .rgn_map(parent, VirtAddr(0x1000), 2 * PS, Prot::RX, text_cap, 0)
        .unwrap();
    w.nucleus
        .rgn_allocate(parent, VirtAddr(0x10000), 4 * PS, Prot::RW)
        .unwrap();
    w.nucleus
        .write_mem(parent, VirtAddr(0x10000), &pattern(5, (2 * PS) as usize))
        .unwrap();

    let child = w.nucleus.actor_create().unwrap();
    w.nucleus
        .rgn_map_from_actor(
            child,
            VirtAddr(0x1000),
            2 * PS,
            Prot::RX,
            parent,
            VirtAddr(0x1000),
        )
        .unwrap();
    w.nucleus
        .rgn_init_from_actor(
            child,
            VirtAddr(0x10000),
            4 * PS,
            Prot::RW,
            parent,
            VirtAddr(0x10000),
        )
        .unwrap();

    // Text is shared (same cache), data is a snapshot.
    let p_text = w
        .nucleus
        .gmi()
        .region_status(
            w.nucleus
                .gmi()
                .find_region(w.nucleus.ctx(parent).unwrap(), VirtAddr(0x1000))
                .unwrap(),
        )
        .unwrap();
    let c_text = w
        .nucleus
        .gmi()
        .region_status(
            w.nucleus
                .gmi()
                .find_region(w.nucleus.ctx(child).unwrap(), VirtAddr(0x1000))
                .unwrap(),
        )
        .unwrap();
    assert_eq!(p_text.cache, c_text.cache, "text shares one local cache");

    // Parent mutates its data; child keeps the snapshot.
    w.nucleus
        .write_mem(parent, VirtAddr(0x10000), b"parent-only")
        .unwrap();
    let mut buf = vec![0u8; 11];
    w.nucleus
        .read_mem(child, VirtAddr(0x10000), &mut buf)
        .unwrap();
    assert_eq!(buf, pattern(5, 11));
    // Child mutates; parent unaffected.
    w.nucleus
        .write_mem(child, VirtAddr(0x10000 + PS), b"child-only")
        .unwrap();
    let mut buf = vec![0u8; 10];
    w.nucleus
        .read_mem(parent, VirtAddr(0x10000 + PS), &mut buf)
        .unwrap();
    assert_eq!(
        buf,
        pattern(5, (2 * PS) as usize)[PS as usize..PS as usize + 10]
    );
}

#[test]
fn segment_caching_keeps_unreferenced_caches() {
    let w = world(64);
    let cap = w.files.create_segment(&pattern(3, (2 * PS) as usize));
    let a = w.nucleus.actor_create().unwrap();
    // Map, touch, free — three times: only the first should miss.
    for round in 0..3 {
        let r = w
            .nucleus
            .rgn_map(a, VirtAddr(0x1000), 2 * PS, Prot::RX, cap, 0)
            .unwrap();
        let mut buf = vec![0u8; 4];
        w.nucleus.read_mem(a, VirtAddr(0x1000), &mut buf).unwrap();
        w.nucleus.rgn_free(r).unwrap();
        let _ = round;
    }
    let stats = w.nucleus.segment_caching_stats();
    assert_eq!((stats.misses, stats.hits), (1, 2), "{stats:?}");
    // The cached pages stayed resident: only one pull ever happened.
    assert_eq!(w.nucleus.gmi().stats().pull_ins, 1);
}

#[test]
fn segment_caching_disabled_recreates_caches() {
    let w = world(64);
    w.nucleus.set_segment_caching(false, 0);
    let cap = w.files.create_segment(&pattern(3, PS as usize));
    let a = w.nucleus.actor_create().unwrap();
    for _ in 0..3 {
        let r = w
            .nucleus
            .rgn_map(a, VirtAddr(0x1000), PS, Prot::RX, cap, 0)
            .unwrap();
        let mut buf = vec![0u8; 4];
        w.nucleus.read_mem(a, VirtAddr(0x1000), &mut buf).unwrap();
        w.nucleus.rgn_free(r).unwrap();
    }
    let stats = w.nucleus.segment_caching_stats();
    assert_eq!(stats.misses, 3, "{stats:?}");
    assert_eq!(w.nucleus.gmi().stats().pull_ins, 3, "each miss re-pulls");
}

#[test]
fn segment_cache_table_limit_evicts_lru() {
    let w = world(128);
    w.nucleus.set_segment_caching(true, 2);
    let caps: Vec<_> = (0..4)
        .map(|i| w.files.create_segment(&pattern(i, PS as usize)))
        .collect();
    let a = w.nucleus.actor_create().unwrap();
    for cap in &caps {
        let r = w
            .nucleus
            .rgn_map(a, VirtAddr(0x1000), PS, Prot::RX, *cap, 0)
            .unwrap();
        w.nucleus.rgn_free(r).unwrap();
    }
    let stats = w.nucleus.segment_caching_stats();
    assert!(stats.evictions >= 1, "{stats:?}");
    // The most recent two should still hit.
    let r = w
        .nucleus
        .rgn_map(a, VirtAddr(0x1000), PS, Prot::RX, caps[3], 0)
        .unwrap();
    w.nucleus.rgn_free(r).unwrap();
    assert!(w.nucleus.segment_caching_stats().hits >= 1);
}

#[test]
fn temp_regions_swap_under_pressure() {
    let w = world(8);
    let a = w.nucleus.actor_create().unwrap();
    w.nucleus
        .rgn_allocate(a, VirtAddr(0), 16 * PS, Prot::RW)
        .unwrap();
    for page in 0..16u64 {
        w.nucleus
            .write_mem(a, VirtAddr(page * PS), &[page as u8; 8])
            .unwrap();
    }
    assert!(
        w.swap.swapped_out_bytes() > 0,
        "pressure must reach the swap mapper"
    );
    for page in 0..16u64 {
        let mut buf = [0u8; 8];
        w.nucleus
            .read_mem(a, VirtAddr(page * PS), &mut buf)
            .unwrap();
        assert_eq!(buf, [page as u8; 8]);
    }
}

#[test]
fn actor_destroy_releases_memory() {
    let w = world(32);
    let a = w.nucleus.actor_create().unwrap();
    w.nucleus
        .rgn_allocate(a, VirtAddr(0), 4 * PS, Prot::RW)
        .unwrap();
    w.nucleus
        .write_mem(a, VirtAddr(0), &pattern(1, (4 * PS) as usize))
        .unwrap();
    let used_before = w.nucleus.gmi().resident_page_count();
    assert!(used_before >= 4);
    w.nucleus.actor_destroy(a).unwrap();
    assert_eq!(w.nucleus.gmi().resident_page_count(), 0);
    assert!(w.nucleus.read_mem(a, VirtAddr(0), &mut [0u8; 1]).is_err());
}

// ----- IPC --------------------------------------------------------------------

fn ipc_pair(w: &World) -> (Actor, Actor) {
    let s = w.nucleus.actor_create().unwrap();
    let r = w.nucleus.actor_create().unwrap();
    w.nucleus
        .rgn_allocate(s, VirtAddr(0x1000 * PS), 16 * PS, Prot::RW)
        .unwrap();
    w.nucleus
        .rgn_allocate(r, VirtAddr(0x2000 * PS), 16 * PS, Prot::RW)
        .unwrap();
    (s, r)
}

#[test]
fn ipc_small_message_roundtrip() {
    let w = world(128);
    let (s, r) = ipc_pair(&w);
    let port = w.nucleus.port_create();
    w.nucleus
        .write_mem(s, VirtAddr(0x1000 * PS + 5), b"ping")
        .unwrap();
    w.nucleus
        .ipc_send(s, port, VirtAddr(0x1000 * PS + 5), 4)
        .unwrap();
    let n = w
        .nucleus
        .ipc_receive(
            r,
            port,
            VirtAddr(0x2000 * PS + 9),
            64,
            Duration::from_secs(1),
        )
        .unwrap();
    assert_eq!(n, 4);
    let mut buf = [0u8; 4];
    w.nucleus
        .read_mem(r, VirtAddr(0x2000 * PS + 9), &mut buf)
        .unwrap();
    assert_eq!(&buf, b"ping");
}

#[test]
fn ipc_large_message_uses_transit_slot_deferred() {
    let w = world(128);
    let (s, r) = ipc_pair(&w);
    let port = w.nucleus.port_create();
    let msg = pattern(0x42, (4 * PS) as usize);
    w.nucleus.write_mem(s, VirtAddr(0x1000 * PS), &msg).unwrap();
    let copies_before = w.nucleus.gmi().mem_stats().copied;
    w.nucleus
        .ipc_send(s, port, VirtAddr(0x1000 * PS), 4 * PS)
        .unwrap();
    // The send is deferred (per-page stubs), not a physical copy.
    assert_eq!(
        w.nucleus.gmi().mem_stats().copied,
        copies_before,
        "send must defer"
    );
    assert!(w.nucleus.gmi().stats().cow_stubs_created >= 4);
    let n = w
        .nucleus
        .ipc_receive(
            r,
            port,
            VirtAddr(0x2000 * PS),
            8 * PS,
            Duration::from_secs(1),
        )
        .unwrap();
    assert_eq!(n, 4 * PS);
    let mut got = vec![0u8; msg.len()];
    w.nucleus
        .read_mem(r, VirtAddr(0x2000 * PS), &mut got)
        .unwrap();
    assert_eq!(got, msg);
    // Sender reuses its buffer without corrupting the delivered message.
    w.nucleus
        .write_mem(s, VirtAddr(0x1000 * PS), &pattern(0x99, (4 * PS) as usize))
        .unwrap();
    w.nucleus
        .read_mem(r, VirtAddr(0x2000 * PS), &mut got)
        .unwrap();
    assert_eq!(got, msg);
}

#[test]
fn ipc_receive_moves_the_transit_stubs_without_protecting() {
    // "A receive is implemented by cache.move": the transit slot's
    // per-page stubs go to the receiver as they stand; the sender's
    // pages were made read-only by the send.
    let w = world(128);
    let (s, r) = ipc_pair(&w);
    let port = w.nucleus.port_create();
    let msg = pattern(0x5C, (2 * PS) as usize);
    w.nucleus.write_mem(s, VirtAddr(0x1000 * PS), &msg).unwrap();
    w.nucleus
        .ipc_send(s, port, VirtAddr(0x1000 * PS), 2 * PS)
        .unwrap();
    let model = w.nucleus.gmi().cost_model();
    let protects = model.count(OpKind::ProtectPage);
    // Into a buffer the receiver has never written.
    let n = w
        .nucleus
        .ipc_receive(
            r,
            port,
            VirtAddr(0x2000 * PS),
            2 * PS,
            Duration::from_secs(1),
        )
        .unwrap();
    assert_eq!(n, 2 * PS);
    assert_eq!(model.count(OpKind::ProtectPage) - protects, 0);
    let mut got = vec![0u8; msg.len()];
    w.nucleus
        .read_mem(r, VirtAddr(0x2000 * PS), &mut got)
        .unwrap();
    assert_eq!(got, msg);
    w.nucleus
        .write_mem(s, VirtAddr(0x1000 * PS), &pattern(0x99, msg.len()))
        .unwrap();
    w.nucleus
        .read_mem(r, VirtAddr(0x2000 * PS), &mut got)
        .unwrap();
    assert_eq!(got, msg);
}

#[test]
fn ipc_slots_are_recycled() {
    let w = world(128);
    let (s, r) = ipc_pair(&w);
    let port = w.nucleus.port_create();
    // More messages than slots (4), sequentially.
    for i in 0..10u8 {
        let msg = pattern(i, (2 * PS) as usize);
        w.nucleus.write_mem(s, VirtAddr(0x1000 * PS), &msg).unwrap();
        w.nucleus
            .ipc_send(s, port, VirtAddr(0x1000 * PS), 2 * PS)
            .unwrap();
        let n = w
            .nucleus
            .ipc_receive(
                r,
                port,
                VirtAddr(0x2000 * PS),
                8 * PS,
                Duration::from_secs(1),
            )
            .unwrap();
        assert_eq!(n, 2 * PS);
        let mut got = vec![0u8; msg.len()];
        w.nucleus
            .read_mem(r, VirtAddr(0x2000 * PS), &mut got)
            .unwrap();
        assert_eq!(got, msg, "message {i}");
    }
}

#[test]
fn ipc_transit_exhaustion_reported() {
    let w = world(256);
    let (s, _r) = ipc_pair(&w);
    let port = w.nucleus.port_create();
    w.nucleus
        .write_mem(s, VirtAddr(0x1000 * PS), &pattern(0, (2 * PS) as usize))
        .unwrap();
    // 4 slots configured; the 5th in-flight slotted message must fail.
    for _ in 0..4 {
        w.nucleus
            .ipc_send(s, port, VirtAddr(0x1000 * PS), 2 * PS)
            .unwrap();
    }
    let err = w
        .nucleus
        .ipc_send(s, port, VirtAddr(0x1000 * PS), 2 * PS)
        .unwrap_err();
    assert_eq!(err, IpcError::TransitFull);
}

#[test]
fn ipc_oversized_message_rejected() {
    let w = world(128);
    let (s, _r) = ipc_pair(&w);
    let port = w.nucleus.port_create();
    let limit = w.nucleus.message_limit();
    let err = w
        .nucleus
        .ipc_send(s, port, VirtAddr(0x1000 * PS), limit + 1)
        .unwrap_err();
    assert!(matches!(err, IpcError::MessageTooLarge { .. }));
}

#[test]
fn ipc_receive_timeout() {
    let w = world(32);
    let (_s, r) = ipc_pair(&w);
    let port = w.nucleus.port_create();
    let err = w
        .nucleus
        .ipc_receive(
            r,
            port,
            VirtAddr(0x2000 * PS),
            PS,
            Duration::from_millis(10),
        )
        .unwrap_err();
    assert_eq!(err, IpcError::Timeout);
}

#[test]
fn ipc_cross_thread_blocking_receive() {
    let w = Arc::new(world(128));
    let (s, r) = ipc_pair(&w);
    let port = w.nucleus.port_create();
    let w2 = Arc::clone(&w);
    let t = std::thread::spawn(move || {
        w2.nucleus
            .ipc_receive(
                r,
                port,
                VirtAddr(0x2000 * PS),
                8 * PS,
                Duration::from_secs(5),
            )
            .unwrap()
    });
    std::thread::sleep(Duration::from_millis(30));
    w.nucleus
        .write_mem(s, VirtAddr(0x1000 * PS), &pattern(0x55, (2 * PS) as usize))
        .unwrap();
    w.nucleus
        .ipc_send(s, port, VirtAddr(0x1000 * PS), 2 * PS)
        .unwrap();
    assert_eq!(t.join().unwrap(), 2 * PS);
    let mut got = vec![0u8; (2 * PS) as usize];
    w.nucleus
        .read_mem(r, VirtAddr(0x2000 * PS), &mut got)
        .unwrap();
    assert_eq!(got, pattern(0x55, (2 * PS) as usize));
}

#[test]
fn port_destroy_reclaims_transit_slots() {
    let w = world(128);
    let (s, _r) = ipc_pair(&w);
    // Fill all 4 slots on a port, then destroy it: the slots must come
    // back for the next port.
    let port = w.nucleus.port_create();
    w.nucleus
        .write_mem(s, VirtAddr(0x1000 * PS), &pattern(1, (2 * PS) as usize))
        .unwrap();
    for _ in 0..4 {
        w.nucleus
            .ipc_send(s, port, VirtAddr(0x1000 * PS), 2 * PS)
            .unwrap();
    }
    assert_eq!(
        w.nucleus
            .ipc_send(s, port, VirtAddr(0x1000 * PS), 2 * PS)
            .unwrap_err(),
        IpcError::TransitFull
    );
    w.nucleus.port_destroy(port);
    let port2 = w.nucleus.port_create();
    for _ in 0..4 {
        w.nucleus
            .ipc_send(s, port2, VirtAddr(0x1000 * PS), 2 * PS)
            .unwrap();
    }
}

#[test]
fn concurrent_producers_and_consumers() {
    use std::sync::atomic::{AtomicU64, Ordering};
    let w = Arc::new(world(512));
    let port = w.nucleus.port_create();
    const MSGS: usize = 12;

    // Two producers with their own buffers.
    let producers: Vec<_> = (0..2u64)
        .map(|p| {
            let w = Arc::clone(&w);
            std::thread::spawn(move || {
                let a = w.nucleus.actor_create().unwrap();
                let base = VirtAddr(0x100_0000 + p * 0x10_0000);
                w.nucleus.rgn_allocate(a, base, 8 * PS, Prot::RW).unwrap();
                for i in 0..MSGS {
                    let tag = (p as u8) << 4 | i as u8;
                    w.nucleus
                        .write_mem(a, base, &pattern(tag, (2 * PS) as usize))
                        .unwrap();
                    // Retry when the 4-slot transit segment is full.
                    loop {
                        match w.nucleus.ipc_send(a, port, base, 2 * PS) {
                            Ok(()) => break,
                            Err(IpcError::TransitFull) => std::thread::yield_now(),
                            Err(e) => panic!("send failed: {e}"),
                        }
                    }
                }
            })
        })
        .collect();

    // Two consumers sharing a received-message counter.
    let received = Arc::new(AtomicU64::new(0));
    let consumers: Vec<_> = (0..2u64)
        .map(|c| {
            let w = Arc::clone(&w);
            let received = Arc::clone(&received);
            std::thread::spawn(move || {
                let a = w.nucleus.actor_create().unwrap();
                let base = VirtAddr(0x400_0000 + c * 0x10_0000);
                w.nucleus.rgn_allocate(a, base, 8 * PS, Prot::RW).unwrap();
                loop {
                    if received.load(Ordering::SeqCst) >= (2 * MSGS) as u64 {
                        return;
                    }
                    match w
                        .nucleus
                        .ipc_receive(a, port, base, 8 * PS, Duration::from_millis(50))
                    {
                        Ok(n) => {
                            assert_eq!(n, 2 * PS);
                            // Message integrity: constant tag + ramp.
                            let mut buf = vec![0u8; (2 * PS) as usize];
                            w.nucleus.read_mem(a, base, &mut buf).unwrap();
                            let tag = buf[0];
                            assert_eq!(buf, pattern(tag, (2 * PS) as usize));
                            received.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(IpcError::Timeout) => {}
                        Err(e) => panic!("receive failed: {e}"),
                    }
                }
            })
        })
        .collect();

    for t in producers {
        t.join().unwrap();
    }
    for t in consumers {
        t.join().unwrap();
    }
    assert_eq!(
        received.load(std::sync::atomic::Ordering::SeqCst),
        (2 * MSGS) as u64
    );
    w.nucleus.gmi().check_invariants();
}
