//! Property test: random process trees (fork / exec / exit / wait /
//! write) against a model that tracks each live process's logical data
//! bytes. Catches COW leaks between relatives, exec teardown bugs, and
//! zombie bookkeeping errors.

use chorus_hal::{CostParams, PageGeometry};
use chorus_mix::{Pid, ProcessManager, ProgramStore};
use chorus_nucleus::{MemMapper, Nucleus, NucleusSegmentManager, PortName, SwapMapper};
use chorus_pvm::{Pvm, PvmConfig, PvmOptions};
use chorus_vm::gmi::VirtAddr;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

const PS: u64 = 256;
const DATA: usize = 2 * PS as usize;

#[derive(Clone, Debug)]
enum Op {
    Fork {
        idx: usize,
    },
    Exec {
        idx: usize,
        prog: u8,
    },
    Exit {
        idx: usize,
    },
    Write {
        idx: usize,
        off: u16,
        len: u8,
        seed: u8,
    },
    Check {
        idx: usize,
    },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0..8usize).prop_map(|idx| Op::Fork { idx }),
        1 => (0..8usize, 0..2u8).prop_map(|(idx, prog)| Op::Exec { idx, prog }),
        2 => (0..8usize).prop_map(|idx| Op::Exit { idx }),
        5 => (0..8usize, 0..DATA as u16, 1..64u8, any::<u8>())
            .prop_map(|(idx, off, len, seed)| Op::Write { idx, off, len, seed }),
        3 => (0..8usize).prop_map(|idx| Op::Check { idx }),
    ]
}

fn build() -> ProcessManager<Pvm> {
    let seg_mgr = Arc::new(NucleusSegmentManager::new());
    let files = Arc::new(MemMapper::new(PortName(1)));
    let swap = Arc::new(SwapMapper::new(PortName(2)));
    seg_mgr.register_mapper(PortName(1), files.clone());
    seg_mgr.register_mapper(PortName(2), swap);
    seg_mgr.set_default_mapper(PortName(2));
    let pvm = Arc::new(Pvm::new(
        PvmOptions {
            geometry: PageGeometry::new(PS),
            frames: 256,
            cost: CostParams::zero(),
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
    store.register("p0", b"text-zero", &vec![0xA0u8; DATA]);
    store.register("p1", b"text-one!", &vec![0xB1u8; DATA]);
    ProcessManager::new(nucleus, store)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48 })]

    #[test]
    fn process_trees_match_data_model(ops in proptest::collection::vec(op(), 1..60)) {
        let pm = build();
        let root = pm.spawn("p0").unwrap();
        let mut model: HashMap<Pid, Vec<u8>> = HashMap::new();
        model.insert(root, vec![0xA0u8; DATA]);
        let mut live: Vec<Pid> = vec![root];

        let pick = |live: &Vec<Pid>, idx: usize| -> Option<Pid> {
            if live.is_empty() { None } else { Some(live[idx % live.len()]) }
        };

        for o in ops {
            match o {
                Op::Fork { idx } => {
                    if live.len() >= 8 { continue; }
                    let Some(parent) = pick(&live, idx) else { continue };
                    let child = pm.fork(parent).unwrap();
                    let snapshot = model[&parent].clone();
                    model.insert(child, snapshot);
                    live.push(child);
                }
                Op::Exec { idx, prog } => {
                    let Some(pid) = pick(&live, idx) else { continue };
                    let name = if prog == 0 { "p0" } else { "p1" };
                    pm.exec(pid, name).unwrap();
                    let byte = if prog == 0 { 0xA0 } else { 0xB1 };
                    model.insert(pid, vec![byte; DATA]);
                }
                Op::Exit { idx } => {
                    // Keep the root alive so there is always a process.
                    if live.len() <= 1 { continue; }
                    let Some(pid) = pick(&live, idx) else { continue };
                    if pid == root { continue; }
                    pm.exit(pid, 0).unwrap();
                    model.remove(&pid);
                    live.retain(|&p| p != pid);
                    // Reap from anyone; zombies must not affect others.
                    for &p in &live {
                        while pm.wait(p).is_some() {}
                    }
                }
                Op::Write { idx, off, len, seed } => {
                    let Some(pid) = pick(&live, idx) else { continue };
                    let off = (off as usize).min(DATA - 1);
                    let len = (len as usize).min(DATA - off).max(1);
                    let data: Vec<u8> = (0..len).map(|k| seed.wrapping_add(k as u8)).collect();
                    pm.write_mem(pid, VirtAddr(pm.data_base().0 + off as u64), &data).unwrap();
                    model.get_mut(&pid).unwrap()[off..off + len].copy_from_slice(&data);
                }
                Op::Check { idx } => {
                    let Some(pid) = pick(&live, idx) else { continue };
                    let mut got = vec![0u8; DATA];
                    pm.read_mem(pid, pm.data_base(), &mut got).unwrap();
                    prop_assert_eq!(&got, &model[&pid], "data of {:?}", pid);
                }
            }
        }
        // Final full check of every live process.
        for &pid in &live {
            let mut got = vec![0u8; DATA];
            pm.read_mem(pid, pm.data_base(), &mut got).unwrap();
            prop_assert_eq!(&got, &model[&pid], "final data of {:?}", pid);
        }
        pm.nucleus().gmi().check_invariants();
        // Bounded bookkeeping: caches proportional to live processes.
        prop_assert!(
            pm.nucleus().gmi().cache_count() <= 6 * live.len() + 8,
            "cache bookkeeping leak: {} caches for {} processes",
            pm.nucleus().gmi().cache_count(),
            live.len()
        );
    }
}
