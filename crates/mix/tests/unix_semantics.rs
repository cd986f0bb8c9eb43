//! Unix process semantics over the Nucleus and PVM (§5.1.5): fork COW,
//! text sharing, exec with segment caching, pipelines, shell loops.

use chorus_gmi::VirtAddr;
use chorus_hal::{CostParams, OpKind, PageGeometry};
use chorus_mix::{ProcState, ProcessManager, ProgramStore};
use chorus_nucleus::{MemMapper, Nucleus, NucleusSegmentManager, PortName, SwapMapper};
use chorus_pvm::{Pvm, PvmConfig, PvmOptions};
use std::sync::Arc;
use std::time::Duration;

const PS: u64 = 256;

struct Mix {
    pm: ProcessManager<Pvm>,
}

fn mix(frames: u32) -> Mix {
    mix_costed(frames, CostParams::zero())
}

fn mix_costed(frames: u32, cost: CostParams) -> Mix {
    let seg_mgr = Arc::new(NucleusSegmentManager::new());
    let files = Arc::new(MemMapper::new(PortName(1)));
    let swap = Arc::new(SwapMapper::new(PortName(2)));
    seg_mgr.register_mapper(PortName(1), files.clone());
    seg_mgr.register_mapper(PortName(2), swap.clone());
    seg_mgr.set_default_mapper(PortName(2));
    let pvm = Arc::new(Pvm::new(
        PvmOptions {
            geometry: PageGeometry::new(PS),
            frames,
            cost,
            config: PvmConfig::builder()
                .paging(|p| p.check_invariants(true))
                .build()
                .expect("valid config"),
            ..PvmOptions::default()
        },
        seg_mgr.clone(),
    ));
    let nucleus = Arc::new(Nucleus::new(pvm, seg_mgr, 4));
    let store = Arc::new(ProgramStore::new(files, PS));
    store.register("sh", b"#!shell text", b"PS1=$ ");
    store.register("cat", b"cat text....", b"cat data");
    store.register(
        "make",
        &vec![0x90u8; (3 * PS) as usize],
        &vec![0x11u8; (2 * PS) as usize],
    );
    Mix {
        pm: ProcessManager::new(nucleus, store),
    }
}

fn pattern(tag: u8, len: usize) -> Vec<u8> {
    (0..len).map(|i| tag.wrapping_add(i as u8)).collect()
}

#[test]
fn exec_maps_text_data_stack() {
    let m = mix(64);
    let pid = m.pm.spawn("cat").unwrap();
    // Text readable and equal to the image.
    let mut buf = vec![0u8; 12];
    m.pm.read_mem(pid, m.pm.text_base(), &mut buf).unwrap();
    assert_eq!(&buf, b"cat text....");
    // Text is not writable.
    assert!(m.pm.write_mem(pid, m.pm.text_base(), b"X").is_err());
    // Data initialized from the image, and writable.
    let mut buf = vec![0u8; 8];
    m.pm.read_mem(pid, m.pm.data_base(), &mut buf).unwrap();
    assert_eq!(&buf, b"cat data");
    m.pm.write_mem(pid, m.pm.data_base(), b"CAT DATA").unwrap();
    // Stack zero-filled and writable.
    let mut buf = vec![1u8; 8];
    m.pm.read_mem(pid, m.pm.stack_base(), &mut buf).unwrap();
    assert_eq!(buf, vec![0u8; 8]);
    m.pm.write_mem(pid, m.pm.stack_base(), b"frame").unwrap();
}

#[test]
fn data_writes_do_not_touch_the_program_image() {
    let m = mix(64);
    let pid = m.pm.spawn("cat").unwrap();
    m.pm.write_mem(pid, m.pm.data_base(), b"SCRIBBLE").unwrap();
    let image = m.pm.store().lookup("cat").unwrap();
    let stored = m.pm.store().files().segment_data(image.data);
    assert_eq!(
        &stored[..8],
        b"cat data",
        "program image must stay pristine"
    );
    // A freshly spawned process sees the original data.
    let pid2 = m.pm.spawn("cat").unwrap();
    let mut buf = vec![0u8; 8];
    m.pm.read_mem(pid2, m.pm.data_base(), &mut buf).unwrap();
    assert_eq!(&buf, b"cat data");
}

#[test]
fn fork_shares_text_and_isolates_data() {
    let m = mix(128);
    let parent = m.pm.spawn("make").unwrap();
    m.pm.write_mem(parent, m.pm.data_base(), &pattern(7, (2 * PS) as usize))
        .unwrap();
    let resident_before = m.pm.nucleus().gmi().resident_page_count();
    let child = m.pm.fork(parent).unwrap();
    // Fork itself materializes no data pages (deferred copy).
    let resident_after = m.pm.nucleus().gmi().resident_page_count();
    assert!(
        resident_after <= resident_before + 1,
        "fork must defer: {resident_before} -> {resident_after}"
    );
    // The child reads the parent's data.
    let mut buf = vec![0u8; 16];
    m.pm.read_mem(child, m.pm.data_base(), &mut buf).unwrap();
    assert_eq!(buf, pattern(7, 16));
    // COW isolation both ways.
    m.pm.write_mem(parent, m.pm.data_base(), b"PARENT").unwrap();
    m.pm.read_mem(child, m.pm.data_base(), &mut buf).unwrap();
    assert_eq!(buf, pattern(7, 16), "child keeps snapshot");
    m.pm.write_mem(child, VirtAddr(m.pm.data_base().0 + PS), b"CHILD")
        .unwrap();
    m.pm.read_mem(parent, VirtAddr(m.pm.data_base().0 + PS), &mut buf)
        .unwrap();
    assert_eq!(
        buf,
        pattern(7, (2 * PS) as usize)[PS as usize..PS as usize + 16]
    );
}

#[test]
fn fork_exit_wait_lifecycle() {
    let m = mix(64);
    let parent = m.pm.spawn("sh").unwrap();
    let child = m.pm.fork(parent).unwrap();
    assert_eq!(m.pm.state(child), Some(ProcState::Running));
    assert_eq!(m.pm.wait(parent), None, "child still running");
    m.pm.exit(child, 42).unwrap();
    assert_eq!(m.pm.state(child), Some(ProcState::Zombie(42)));
    assert_eq!(m.pm.wait(parent), Some((child, 42)));
    assert_eq!(m.pm.state(child), None, "reaped");
}

#[test]
fn wait_reaps_zombie_children_in_pid_order() {
    // Not in the order they exited, and not in whatever order a hash
    // table happens to hold them: every fresh manager agrees.
    for _ in 0..20 {
        let m = mix(64);
        let parent = m.pm.spawn("sh").unwrap();
        let first = m.pm.fork(parent).unwrap();
        let second = m.pm.fork(parent).unwrap();
        m.pm.exit(second, 2).unwrap();
        m.pm.exit(first, 1).unwrap();
        assert_eq!(m.pm.wait(parent), Some((first, 1)));
        assert_eq!(m.pm.wait(parent), Some((second, 2)));
        assert_eq!(m.pm.wait(parent), None);
    }
}

#[test]
fn parent_exits_first_child_keeps_data() {
    // §4.2.2: "the source is deleted first (the parent process exits
    // while the child continues): remaining unmodified source data must
    // be kept until the copy is deleted."
    let m = mix(128);
    let grandparent = m.pm.spawn("sh").unwrap();
    let parent = m.pm.fork(grandparent).unwrap();
    m.pm.write_mem(parent, m.pm.data_base(), &pattern(0x51, PS as usize))
        .unwrap();
    let child = m.pm.fork(parent).unwrap();
    m.pm.exit(parent, 0).unwrap();
    let _ = m.pm.wait(grandparent);
    // The child still reads the parent's (dead) data.
    let mut buf = vec![0u8; PS as usize];
    m.pm.read_mem(child, m.pm.data_base(), &mut buf).unwrap();
    assert_eq!(buf, pattern(0x51, PS as usize));
    m.pm.exit(child, 0).unwrap();
}

#[test]
fn fork_chain_grandchildren_see_ancestors() {
    let m = mix(200);
    let mut pids = vec![m.pm.spawn("sh").unwrap()];
    m.pm.write_mem(pids[0], m.pm.data_base(), &pattern(1, PS as usize))
        .unwrap();
    for depth in 1..5 {
        let child = m.pm.fork(*pids.last().unwrap()).unwrap();
        // Each generation marks one byte of its own.
        m.pm.write_mem(
            child,
            VirtAddr(m.pm.data_base().0 + depth as u64),
            &[0xF0 + depth],
        )
        .unwrap();
        pids.push(child);
    }
    // The deepest child sees the root data plus every inherited mark
    // (each generation wrote its mark before forking the next).
    let leaf = *pids.last().unwrap();
    let mut buf = vec![0u8; 8];
    m.pm.read_mem(leaf, m.pm.data_base(), &mut buf).unwrap();
    let mut expect = pattern(1, 8);
    for (depth, slot) in expect.iter_mut().enumerate().take(5).skip(1) {
        *slot = 0xF0 + depth as u8;
    }
    assert_eq!(buf, expect);
    // Ancestors are unaffected by descendant marks.
    let mut buf0 = vec![0u8; 8];
    m.pm.read_mem(pids[0], m.pm.data_base(), &mut buf0).unwrap();
    assert_eq!(buf0, pattern(1, 8));
}

#[test]
fn shell_fork_exit_loop_stays_bounded() {
    // The shell scenario of §4.2.5: the parent forks repeatedly and each
    // child exits. History bookkeeping must not accumulate.
    let m = mix(200);
    let shell = m.pm.spawn("sh").unwrap();
    m.pm.write_mem(shell, m.pm.data_base(), &pattern(2, PS as usize))
        .unwrap();
    for i in 0..10 {
        let child = m.pm.fork(shell).unwrap();
        // The child does a bit of work...
        m.pm.write_mem(child, m.pm.data_base(), &[i]).unwrap();
        // ...the parent also dirties its data (forcing history pushes)...
        m.pm.write_mem(shell, VirtAddr(m.pm.data_base().0 + 1), &[i])
            .unwrap();
        m.pm.exit(child, 0).unwrap();
        assert_eq!(m.pm.wait(shell), Some((child, 0)));
    }
    let caches = m.pm.nucleus().gmi().cache_count();
    assert!(
        caches < 20,
        "history chains must not accumulate: {caches} caches"
    );
    let mut buf = vec![0u8; 4];
    m.pm.read_mem(shell, m.pm.data_base(), &mut buf).unwrap();
    let mut expect = pattern(2, 4);
    expect[1] = 9;
    assert_eq!(buf, expect);
}

#[test]
fn exec_of_recent_program_hits_the_segment_cache() {
    // §5.1.3: "This segment caching strategy has a very significant
    // impact on the performance of program loading (Unix exec) when the
    // same programs are loaded frequently, such as occurs during a large
    // make."
    let m = mix(256);
    let driver = m.pm.spawn("sh").unwrap();
    // First exec of "make" faults the text in from the mapper.
    let worker = m.pm.fork(driver).unwrap();
    m.pm.exec(worker, "make").unwrap();
    let mut buf = vec![0u8; 16];
    m.pm.read_mem(worker, m.pm.text_base(), &mut buf).unwrap();
    m.pm.exit(worker, 0).unwrap();
    let _ = m.pm.wait(driver);
    let pulls_after_first = m.pm.nucleus().gmi().stats().pull_ins;
    // Re-exec the same program several times.
    for _ in 0..5 {
        let w = m.pm.fork(driver).unwrap();
        m.pm.exec(w, "make").unwrap();
        m.pm.read_mem(w, m.pm.text_base(), &mut buf).unwrap();
        m.pm.exit(w, 0).unwrap();
        let _ = m.pm.wait(driver);
    }
    let text_pulls_delta = m.pm.nucleus().gmi().stats().pull_ins - pulls_after_first;
    // Text pages stay cached; only data pulls repeat (rgnInit snapshots).
    assert!(
        m.pm.nucleus().segment_caching_stats().hits >= 5,
        "{:?}",
        m.pm.nucleus().segment_caching_stats()
    );
    let image = m.pm.store().lookup("make").unwrap();
    let text_pages = image.text_size / PS;
    assert!(
        text_pulls_delta < 5 * text_pages,
        "cached text must not re-pull every exec (delta {text_pulls_delta})"
    );
}

#[test]
fn exec_of_cached_text_faults_once_for_eight_text_pages() {
    // The text of a program exec'd before stays resident in its segment
    // cache (§5.1.4), and the text region is read-only: the first text
    // fault maps the resident run after it, and the rest of an 8-page
    // text is read without another fault.
    let m = mix(256);
    let gmi = m.pm.nucleus().gmi().clone();
    let text = pattern(0x3c, (8 * PS) as usize);
    m.pm.store().register("cc", &text, b"cc data");
    let shell = m.pm.spawn("sh").unwrap();
    let read_text = |pid| {
        let mut buf = vec![0u8; PS as usize];
        for (p, want) in text.chunks(PS as usize).enumerate() {
            let va = VirtAddr(m.pm.text_base().0 + p as u64 * PS);
            m.pm.read_mem(pid, va, &mut buf).unwrap();
            assert_eq!(buf, want, "text page {p}");
        }
    };
    let first = m.pm.fork(shell).unwrap();
    m.pm.exec(first, "cc").unwrap();
    read_text(first);
    m.pm.exit(first, 0).unwrap();
    assert_eq!(m.pm.wait(shell), Some((first, 0)));

    let again = m.pm.fork(shell).unwrap();
    m.pm.exec(again, "cc").unwrap();
    let faults = gmi.stats().faults;
    read_text(again);
    assert_eq!(gmi.stats().faults - faults, 1);
    gmi.check_invariants();
}

#[test]
fn pipeline_transfers_data_between_processes() {
    // "in Unix this occurs for instance when creating a pipeline".
    let m = mix(256);
    let shell = m.pm.spawn("sh").unwrap();
    let producer = m.pm.fork(shell).unwrap();
    let consumer = m.pm.fork(shell).unwrap();
    let pipe = m.pm.pipe();
    // Producer writes a 2-page message from its heap.
    let msg = pattern(0xAB, (2 * PS) as usize);
    m.pm.write_mem(producer, m.pm.heap_base(), &msg).unwrap();
    m.pm.pipe_write(producer, pipe, m.pm.heap_base(), 2 * PS)
        .unwrap();
    // Producer can exit before delivery: the message lives in transit.
    m.pm.exit(producer, 0).unwrap();
    let n =
        m.pm.pipe_read(
            consumer,
            pipe,
            m.pm.heap_base(),
            8 * PS,
            Duration::from_secs(1),
        )
        .unwrap();
    assert_eq!(n, 2 * PS);
    let mut got = vec![0u8; msg.len()];
    m.pm.read_mem(consumer, m.pm.heap_base(), &mut got).unwrap();
    assert_eq!(got, msg);
}

#[test]
fn exec_replaces_address_space() {
    let m = mix(128);
    let pid = m.pm.spawn("cat").unwrap();
    m.pm.write_mem(pid, m.pm.data_base(), b"old-state").unwrap();
    m.pm.exec(pid, "sh").unwrap();
    let mut buf = vec![0u8; 6];
    m.pm.read_mem(pid, m.pm.data_base(), &mut buf).unwrap();
    assert_eq!(&buf, b"PS1=$ ", "fresh data image after exec");
    let mut tbuf = vec![0u8; 12];
    m.pm.read_mem(pid, m.pm.text_base(), &mut tbuf).unwrap();
    assert_eq!(&tbuf, b"#!shell text");
}

#[test]
fn heap_is_sparse_until_touched() {
    let m = mix(64);
    let pid = m.pm.spawn("sh").unwrap();
    let resident = m.pm.nucleus().gmi().resident_page_count();
    // Touch two far-apart heap pages: exactly two more pages appear.
    m.pm.write_mem(pid, m.pm.heap_base(), &[1]).unwrap();
    m.pm.write_mem(pid, VirtAddr(m.pm.heap_base().0 + 200 * PS), &[2])
        .unwrap();
    assert_eq!(m.pm.nucleus().gmi().resident_page_count(), resident + 2);
}

#[test]
fn many_processes_under_memory_pressure() {
    // More working set than frames: processes swap but stay correct.
    let m = mix(12);
    let root = m.pm.spawn("sh").unwrap();
    let mut children = Vec::new();
    for i in 0..4u8 {
        let c = m.pm.fork(root).unwrap();
        // One page of data plus two pages of heap per child.
        m.pm.write_mem(c, m.pm.data_base(), &pattern(i, PS as usize))
            .unwrap();
        m.pm.write_mem(c, m.pm.heap_base(), &pattern(i ^ 0xFF, (2 * PS) as usize))
            .unwrap();
        children.push((i, c));
    }
    for &(i, c) in &children {
        let mut buf = vec![0u8; PS as usize];
        m.pm.read_mem(c, m.pm.data_base(), &mut buf).unwrap();
        assert_eq!(buf, pattern(i, PS as usize), "child {i} data");
        let mut hbuf = vec![0u8; (2 * PS) as usize];
        m.pm.read_mem(c, m.pm.heap_base(), &mut hbuf).unwrap();
        assert_eq!(hbuf, pattern(i ^ 0xFF, (2 * PS) as usize), "child {i} heap");
        m.pm.exit(c, i as i32).unwrap();
    }
    assert!(
        m.pm.nucleus().gmi().stats().evictions > 0,
        "pressure expected"
    );
}

#[test]
fn process_error_paths() {
    let m = mix(64);
    // Unknown program.
    assert!(m.pm.spawn("no-such-binary").is_err());
    let pid = m.pm.spawn("sh").unwrap();
    assert!(m.pm.exec(pid, "missing").is_err());
    // Zombie pids reject further operations.
    let child = m.pm.fork(pid).unwrap();
    m.pm.exit(child, 1).unwrap();
    assert!(m.pm.fork(child).is_err());
    assert!(m.pm.exec(child, "sh").is_err());
    assert!(m.pm.exit(child, 2).is_err(), "double exit");
    let mut b = [0u8; 1];
    assert!(m.pm.read_mem(child, m.pm.data_base(), &mut b).is_err());
    // Reap and the pid is gone entirely.
    assert_eq!(m.pm.wait(pid), Some((child, 1)));
    assert!(m.pm.fork(child).is_err());
    // Unknown pid.
    assert!(m
        .pm
        .read_mem(chorus_mix::Pid(999), m.pm.data_base(), &mut b)
        .is_err());
}

#[test]
fn orphans_are_reparented_and_reaped() {
    let m = mix(128);
    let a = m.pm.spawn("sh").unwrap();
    let b = m.pm.fork(a).unwrap();
    let c = m.pm.fork(b).unwrap();
    // b exits while c lives: c is re-parented to "init" (no parent).
    m.pm.exit(b, 0).unwrap();
    assert_eq!(m.pm.wait(a), Some((b, 0)));
    assert_eq!(m.pm.state(c), Some(ProcState::Running));
    // c exits as an orphan: reaped immediately, no zombie leak.
    m.pm.exit(c, 3).unwrap();
    assert_eq!(m.pm.state(c), None);
    assert_eq!(m.pm.live_processes(), 1);
}

#[test]
fn exec_failure_leaves_process_usable() {
    let m = mix(64);
    let pid = m.pm.spawn("cat").unwrap();
    m.pm.write_mem(pid, m.pm.data_base(), b"BEFORE").unwrap();
    // exec of a missing program fails before teardown...
    assert!(m.pm.exec(pid, "missing").is_err());
    // ...so the old address space is intact.
    let mut b = vec![0u8; 6];
    m.pm.read_mem(pid, m.pm.data_base(), &mut b).unwrap();
    assert_eq!(&b, b"BEFORE");
}

#[test]
fn concurrent_shells_do_not_interfere() {
    use std::sync::Arc;
    let m = Arc::new(mix(512));
    // Four shells fork/work/exit concurrently in disjoint subtrees.
    let shells: Vec<_> = (0..4u8).map(|_| m.pm.spawn("sh").unwrap()).collect();
    let threads: Vec<_> = shells
        .into_iter()
        .enumerate()
        .map(|(i, shell)| {
            let m = Arc::clone(&m);
            std::thread::spawn(move || {
                for round in 0..6u8 {
                    let tag = (i as u8) << 4 | round;
                    m.pm.write_mem(shell, m.pm.data_base(), &pattern(tag, 64))
                        .unwrap();
                    let child = m.pm.fork(shell).unwrap();
                    // Child sees the parent snapshot.
                    let mut buf = vec![0u8; 64];
                    m.pm.read_mem(child, m.pm.data_base(), &mut buf).unwrap();
                    assert_eq!(buf, pattern(tag, 64));
                    // Child diverges; parent is isolated.
                    m.pm.write_mem(child, m.pm.data_base(), &pattern(0xFF, 64))
                        .unwrap();
                    m.pm.read_mem(shell, m.pm.data_base(), &mut buf).unwrap();
                    assert_eq!(buf, pattern(tag, 64), "shell {i} round {round}");
                    m.pm.exit(child, round as i32).unwrap();
                    assert_eq!(m.pm.wait(shell), Some((child, round as i32)));
                }
                shell
            })
        })
        .collect();
    for t in threads {
        let shell = t.join().unwrap();
        m.pm.exit(shell, 0).unwrap();
    }
    assert_eq!(m.pm.live_processes(), 0);
    m.pm.nucleus().gmi().check_invariants();
}

#[test]
fn a_compile_job_pipes_its_heap_and_exits_without_a_copy() {
    // The scoreboard's mix-make job in miniature: the child execs, forks
    // a grandchild that outlives it, pipes two heap pages to the shell
    // and exits. Its dying heap keeps the piped pages for the pipe's
    // stubs and the grandchild's history both: exit copies nothing.
    for frames in [512, 8] {
        let m = mix_costed(frames, CostParams::sun3());
        let gmi = m.pm.nucleus().gmi().clone();
        let (heap, data) = (m.pm.heap_base(), m.pm.data_base());
        let shell = m.pm.spawn("sh").unwrap();
        let pipe = m.pm.pipe();
        let child = m.pm.fork(shell).unwrap();
        m.pm.write_mem(shell, data, b"shell").unwrap();
        m.pm.exec(child, "make").unwrap();
        // Six heap pages, two of them the message, and the stack.
        let msg = pattern(0xC5, (2 * PS) as usize);
        m.pm.write_mem(child, heap, &pattern(0x77, (6 * PS) as usize))
            .unwrap();
        m.pm.write_mem(child, heap, &msg).unwrap();
        m.pm.write_mem(child, m.pm.stack_base(), &pattern(0x99, (2 * PS) as usize))
            .unwrap();
        m.pm.write_mem(child, data, b"child").unwrap();
        let grandchild = m.pm.fork(child).unwrap();
        m.pm.write_mem(grandchild, data, b"grand").unwrap();
        m.pm.pipe_write(child, pipe, heap, 2 * PS).unwrap();

        let copies = gmi.cost_model().count(OpKind::BcopyPage);
        m.pm.exit(child, 0).unwrap();
        assert_eq!(
            gmi.cost_model().count(OpKind::BcopyPage) - copies,
            0,
            "{frames} frames: exit copies nothing"
        );

        // The orphan still reads its fork-time heap, and its writes
        // reach neither the message nor the shell.
        let mut got = vec![0u8; msg.len()];
        m.pm.read_mem(grandchild, heap, &mut got).unwrap();
        assert_eq!(got, msg, "{frames} frames");
        m.pm.write_mem(grandchild, heap, &pattern(0x11, PS as usize))
            .unwrap();
        let mut buf = [0u8; 5];
        m.pm.read_mem(grandchild, data, &mut buf).unwrap();
        assert_eq!(&buf, b"grand");

        let n =
            m.pm.pipe_read(shell, pipe, heap, 2 * PS, Duration::from_secs(1))
                .unwrap();
        assert_eq!(n, 2 * PS);
        m.pm.read_mem(shell, heap, &mut got).unwrap();
        assert_eq!(got, msg, "{frames} frames: the piped bytes");
        m.pm.exit(grandchild, 0).unwrap();
        assert_eq!(m.pm.wait(shell), Some((child, 0)));
        m.pm.read_mem(shell, heap, &mut got).unwrap();
        assert_eq!(got, msg, "{frames} frames");
        if frames == 8 {
            let stats = gmi.stats();
            assert!(stats.evictions > 0 && stats.push_outs > 0, "{stats:?}");
        }
        gmi.check_invariants();
    }
}
