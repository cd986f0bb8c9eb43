//! The scoreboard's metric tables: names, units, directions and
//! bounds. `BENCHMARK.json` at the repository root is generated from
//! these (`scoreboard --print-benchmark-json`) and `--check` verifies
//! the committed file still matches.

use crate::workloads::SPECS;

/// Seconds one run measures; the driver passes it back as `--seconds`.
pub const RUN_SECONDS: u64 = 10;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// What a user of the system sees, on every workload. `ops_per_s`,
/// `op_wall_p90_ns` and `peak_rss_mb` are host quantities (the
/// simulator's speed and size); `sim_us_per_op` and `op_sim_p99_us` are
/// simulated Sun-3/60 time (the modelled design's speed).
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    // The host-time bounds are what this shared two-thread sandbox
    // allows: its run-to-run noise comes in bursts that last minutes.
    EndToEnd {
        name: "ops_per_s",
        unit: "op/s",
        better: "higher",
        bound: 0.25,
    },
    // The 90th percentile, not the median: every workload's latency is
    // multi-modal (hit or fault, four message sizes, lock free or
    // held), and on `file-scan-mt` the median op sits between two modes,
    // where its spread between runs reached 22 %.
    EndToEnd {
        name: "op_wall_p90_ns",
        unit: "ns",
        better: "lower",
        bound: 0.25,
    },
    // One bound per metric covers all workloads, so the simulated-time
    // bounds are the ones `file-scan-mt` needs (its interleaving picks
    // the eviction victims). On one thread these two repeat exactly for
    // a given seed, which `--aa` and `--check` enforce separately.
    EndToEnd {
        name: "sim_us_per_op",
        unit: "us",
        better: "lower",
        bound: 0.05,
    },
    EndToEnd {
        name: "op_sim_p99_us",
        unit: "us",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.10,
    },
];

/// `(name, unit, better)` of every per-layer metric.
pub const PER_LAYER: [(&str, &str, &str); 116] = [
    // harness
    ("harness.self_share", "ratio", "lower"),
    ("harness.trace_overhead", "ratio", "lower"),
    ("harness.attribution_gap", "ratio", "lower"),
    ("harness.op_wall_p50_ns", "ns", "lower"),
    ("harness.op_wall_p99_ns", "ns", "lower"),
    ("harness.op_wall_p999_ns", "ns", "lower"),
    ("harness.op_sim_p50_us", "us", "lower"),
    ("harness.op_sim_p999_us", "us", "lower"),
    ("harness.transient_retries", "count", "lower"),
    ("harness.leaked_caches", "count", "lower"),
    ("harness.leaked_frames", "count", "lower"),
    // mix
    ("mix.self_share", "ratio", "lower"),
    ("mix.fork.calls", "count", "lower"),
    ("mix.fork.ns", "ns", "lower"),
    ("mix.exec.calls", "count", "lower"),
    ("mix.exec.ns", "ns", "lower"),
    ("mix.exit.calls", "count", "lower"),
    ("mix.exit.ns", "ns", "lower"),
    ("mix.mem.calls", "count", "lower"),
    ("mix.mem.ns", "ns", "lower"),
    ("mix.pipe.calls", "count", "lower"),
    ("mix.pipe.ns", "ns", "lower"),
    // nucleus
    ("nucleus.self_share", "ratio", "lower"),
    ("nucleus.ipc_send.calls", "count", "lower"),
    ("nucleus.ipc_send.ns", "ns", "lower"),
    ("nucleus.ipc_receive.calls", "count", "lower"),
    ("nucleus.ipc_receive.ns", "ns", "lower"),
    ("nucleus.mem.calls", "count", "lower"),
    ("nucleus.mem.ns", "ns", "lower"),
    ("nucleus.rgn.calls", "count", "lower"),
    ("nucleus.rgn.ns", "ns", "lower"),
    ("nucleus.segcache.hit_ratio", "ratio", "higher"),
    ("nucleus.segcache.evictions", "count", "lower"),
    // gmi
    ("gmi.calls_per_op", "1/op", "lower"),
    ("gmi.vm_access.calls", "count", "lower"),
    ("gmi.vm_access.ns", "ns", "lower"),
    ("gmi.cache_copy.calls", "count", "lower"),
    ("gmi.cache_copy.ns", "ns", "lower"),
    ("gmi.cache_move.calls", "count", "lower"),
    ("gmi.cache_move.ns", "ns", "lower"),
    ("gmi.cache_rw.calls", "count", "lower"),
    ("gmi.cache_rw.ns", "ns", "lower"),
    ("gmi.region.calls", "count", "lower"),
    ("gmi.region.ns", "ns", "lower"),
    ("gmi.context.calls", "count", "lower"),
    ("gmi.context.ns", "ns", "lower"),
    ("gmi.cache_life.calls", "count", "lower"),
    ("gmi.cache_life.ns", "ns", "lower"),
    ("gmi.cache_ctl.calls", "count", "lower"),
    ("gmi.cache_ctl.ns", "ns", "lower"),
    // pvm
    ("pvm.self_share", "ratio", "lower"),
    ("pvm.core_share_est", "ratio", "lower"),
    ("pvm.faults_per_op", "1/op", "lower"),
    ("pvm.hard_fault_ratio", "ratio", "lower"),
    ("pvm.fast_path_hit_ratio", "ratio", "higher"),
    ("pvm.zero_fills", "count", "lower"),
    ("pvm.cow_copies", "count", "lower"),
    ("pvm.history_pushes", "count", "lower"),
    ("pvm.working_objects", "count", "lower"),
    ("pvm.zombie_merges", "count", "lower"),
    ("pvm.cow_stubs_created", "count", "lower"),
    ("pvm.moved_frames", "count", "higher"),
    ("pvm.evictions", "count", "lower"),
    ("pvm.clock_full_sweeps", "count", "lower"),
    ("pvm.emergency_pageouts", "count", "lower"),
    ("pvm.stub_waits", "count", "lower"),
    ("pvm.state_lock_acqs_per_op", "1/op", "lower"),
    ("pvm.state_lock_contended_ratio", "ratio", "lower"),
    ("pvm.shard_contention", "count", "lower"),
    ("pvm.mapper_retries", "count", "lower"),
    // upcall
    ("upcall.per_kop", "1/kop", "lower"),
    ("upcall.pull.calls", "count", "lower"),
    ("upcall.pull.pages", "count", "lower"),
    ("upcall.pull.ns", "ns", "lower"),
    ("upcall.push.calls", "count", "lower"),
    ("upcall.push.pages", "count", "lower"),
    ("upcall.push.ns", "ns", "lower"),
    ("upcall.pages_per_call", "ratio", "higher"),
    ("upcall.push_per_dirtied_page", "ratio", "lower"),
    // cacheio
    ("cacheio.fill_up.calls", "count", "lower"),
    ("cacheio.fill_up.ns", "ns", "lower"),
    ("cacheio.copy_back.calls", "count", "lower"),
    ("cacheio.copy_back.ns", "ns", "lower"),
    // segmgr
    ("segmgr.self_share", "ratio", "lower"),
    ("segmgr.segment_create.calls", "count", "lower"),
    // mapper
    ("mapper.self_share", "ratio", "lower"),
    ("mapper.read.calls", "count", "lower"),
    ("mapper.read.ns", "ns", "lower"),
    ("mapper.write.calls", "count", "lower"),
    ("mapper.write.ns", "ns", "lower"),
    ("mapper.alloc_temp.calls", "count", "lower"),
    ("mapper.swap_bytes", "bytes", "lower"),
    // hal
    ("hal.share_est", "ratio", "lower"),
    ("hal.op.frame_alloc", "1/kop", "lower"),
    ("hal.op.bzero_page", "1/kop", "lower"),
    ("hal.op.bcopy_page", "1/kop", "lower"),
    ("hal.op.map_page", "1/kop", "lower"),
    ("hal.op.unmap_page", "1/kop", "lower"),
    ("hal.op.protect_page", "1/kop", "lower"),
    ("hal.op.tlb_miss", "1/kop", "lower"),
    ("hal.op.global_map_op", "1/kop", "lower"),
    ("hal.op.history_op", "1/kop", "lower"),
    ("hal.op.segment_io_page", "1/kop", "lower"),
    ("hal.op.ipc_op", "1/kop", "lower"),
    ("hal.unit_ns.alloc_zeroed", "ns", "lower"),
    ("hal.unit_ns.copy_frame", "ns", "lower"),
    ("hal.unit_ns.release", "ns", "lower"),
    ("hal.unit_ns.map", "ns", "lower"),
    ("hal.unit_ns.unmap", "ns", "lower"),
    ("hal.unit_ns.protect", "ns", "lower"),
    ("hal.unit_ns.translate_hit", "ns", "lower"),
    ("hal.unit_ns.translate_miss", "ns", "lower"),
    // paper fidelity
    ("fidelity.table6_err_pct", "%", "lower"),
    ("fidelity.table7_err_pct", "%", "lower"),
    ("shadow.sim_us_per_op", "us", "lower"),
    ("shadow.ops_per_s", "op/s", "higher"),
];

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |rows: Vec<String>| rows.join(",\n");
    out.push_str("  \"workloads\": [\n");
    out.push_str(&rows(
        SPECS
            .iter()
            .map(|s| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", s.name, s.why))
            .collect(),
    ));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    out.push_str(&rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name, m.unit, m.better, m.bound
                )
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    out.push_str(&rows(
        PER_LAYER
            .iter()
            .map(|(name, unit, better)| {
                format!(
                    "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}"
                )
            })
            .collect(),
    ));
    out.push_str("\n  ]\n}\n");
    out
}

/// Metric values of one run, in table order.
pub struct Values {
    /// `(name, unit, value)`.
    rows: Vec<(&'static str, &'static str, Option<f64>)>,
}

impl Values {
    pub fn end_to_end() -> Values {
        Values {
            rows: END_TO_END.iter().map(|m| (m.name, m.unit, None)).collect(),
        }
    }

    pub fn per_layer() -> Values {
        Values {
            rows: PER_LAYER.iter().map(|&(n, u, _)| (n, u, None)).collect(),
        }
    }

    /// Sets a metric of the table.
    ///
    /// # Panics
    ///
    /// Panics on a name the table does not define.
    pub fn set(&mut self, name: &str, value: f64) {
        let row = self
            .rows
            .iter_mut()
            .find(|row| row.0 == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the table"));
        row.2 = Some(value);
    }

    /// `(name, value, unit)` rows.
    ///
    /// # Panics
    ///
    /// Panics if a metric of the table was never set: a run reports
    /// every metric of its table.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        self.rows.iter().map(|&(name, unit, value)| {
            let value = value.unwrap_or_else(|| panic!("metric {name} was never set"));
            (name, value, unit)
        })
    }
}
