//! The measured phase: [`ROUNDS`] equal rounds of ops, one thread per
//! client, with one clock read between ops.

use crate::hist::Hist;
use crate::trace::{self, now_ns, ThreadTrace};
use crate::workloads::Client;
use chorus_vm::hal::CostModel;
use std::sync::Barrier;

/// Rounds of the measured phase. Wall metrics are medians over rounds.
pub const ROUNDS: usize = 10;

/// What one client's thread measured.
struct ThreadResult {
    /// `(start, end)` of each round, in `now_ns` time.
    rounds: Vec<(u64, u64)>,
    /// Per-round histograms of op wall latency.
    wall: Vec<Hist>,
    /// Per-op deltas of the simulated clock over the whole phase.
    sim: Hist,
    failed: u64,
    trace: ThreadTrace,
}

/// What the measured phase of one run produced.
pub struct Phase {
    pub ops: u64,
    pub failed: u64,
    /// Per round: ops of all clients divided by the round's wall time.
    pub round_ops_per_s: Vec<f64>,
    /// Per round: 90th percentile of op wall latency in ns, over all
    /// clients.
    pub round_p90_ns: Vec<f64>,
    /// Op wall latency over the whole phase.
    pub wall: Hist,
    /// Per-op simulated-clock deltas over the whole phase. With several
    /// clients the clock is shared, so a delta is the response time on
    /// the one modelled CPU.
    pub sim: Hist,
    /// Simulated nanoseconds charged during the phase.
    pub sim_ns: u64,
    /// Sum over threads and rounds of the round's wall time.
    pub thread_wall_ns: u64,
    /// Per-thread span recordings (empty aggregates on an untraced run).
    pub traces: Vec<ThreadTrace>,
}

fn run_client<C: Client>(
    client: &mut C,
    model: &CostModel,
    barrier: &Barrier,
    ops_per_round: u64,
    first_op: u64,
) -> ThreadResult {
    let mut rounds = Vec::with_capacity(ROUNDS);
    let mut round_wall = Vec::with_capacity(ROUNDS);
    let mut sim = Hist::sim();
    let mut failed = 0;
    let mut op = first_op;
    for _ in 0..ROUNDS {
        let mut wall = Hist::wall();
        barrier.wait();
        let start = now_ns();
        let (mut t_prev, mut s_prev) = (start, model.now().nanos());
        for _ in 0..ops_per_round {
            if C::TRACED {
                trace::op_boundary(t_prev, Some(op));
            }
            failed += u64::from(!client.op());
            let (t, s) = (now_ns(), model.now().nanos());
            wall.record(t - t_prev);
            sim.record(s - s_prev);
            (t_prev, s_prev) = (t, s);
            op += 1;
        }
        if C::TRACED {
            trace::op_boundary(t_prev, None);
        }
        rounds.push((start, t_prev));
        round_wall.push(wall);
    }
    ThreadResult {
        rounds,
        wall: round_wall,
        sim,
        failed,
        trace: trace::take(),
    }
}

/// Runs `ROUNDS * ops_per_round` ops on every client, each on its own
/// thread, all rounds starting together.
pub fn run<C: Client>(clients: &mut [C], model: &CostModel, ops_per_round: u64) -> Phase {
    let barrier = Barrier::new(clients.len());
    let sim_start = model.now().nanos();
    let threads: Vec<ThreadResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(lane, client)| {
                let barrier = &barrier;
                // Op ids are unique across clients: raw spans of one op
                // share an id.
                let first_op = lane as u64 * ROUNDS as u64 * ops_per_round;
                scope.spawn(move || run_client(client, model, barrier, ops_per_round, first_op))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let sim_ns = model.now().nanos() - sim_start;

    let mut phase = Phase {
        ops: clients.len() as u64 * ROUNDS as u64 * ops_per_round,
        failed: threads.iter().map(|t| t.failed).sum(),
        round_ops_per_s: Vec::with_capacity(ROUNDS),
        round_p90_ns: Vec::with_capacity(ROUNDS),
        wall: Hist::wall(),
        sim: Hist::sim(),
        sim_ns,
        thread_wall_ns: 0,
        traces: Vec::new(),
    };
    for round in 0..ROUNDS {
        let start = threads
            .iter()
            .map(|t| t.rounds[round].0)
            .min()
            .expect(">= 1");
        let end = threads
            .iter()
            .map(|t| t.rounds[round].1)
            .max()
            .expect(">= 1");
        let round_ops = clients.len() as u64 * ops_per_round;
        phase
            .round_ops_per_s
            .push(round_ops as f64 * 1e9 / (end - start) as f64);
        let mut wall = Hist::wall();
        for t in &threads {
            wall.merge(&t.wall[round]);
            phase.thread_wall_ns += t.rounds[round].1 - t.rounds[round].0;
        }
        phase.round_p90_ns.push(wall.quantile(0.9));
        phase.wall.merge(&wall);
    }
    for t in threads {
        phase.sim.merge(&t.sim);
        phase.traces.push(t.trace);
    }
    phase
}
