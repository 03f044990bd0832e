//! BSP execution helpers: the engine's configuration, the superstep message
//! exchange, and run statistics.

use mnd_net::Comm;

/// Configuration of the BSP baseline's optimisations (both on by default —
/// the paper compares against tuned Pregel+, not strawman Pregel).
///
/// Vertices go to workers by Pregel+'s hash partitioning,
/// `worker = vertex mod P`. It destroys input locality, the root cause of
/// the BSP communication volume the paper measures.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BspConfig {
    /// Combine messages addressed to the same destination vertex at the
    /// sender (Pregel+ message combining).
    pub combine: bool,
    /// LALP mirroring threshold: a vertex whose (live) degree is at least
    /// this broadcasts its parent update once per worker instead of once
    /// per edge. `None` disables mirroring entirely (plain Pregel).
    /// Pregel+'s LALP applies mirroring to high-degree vertices only —
    /// low-degree vertices message per edge.
    pub mirror_threshold: Option<u64>,
    /// Per logical message CPU cost in seconds (each end): the
    /// serialisation/envelope overhead of the BSP system's messaging stack
    /// (Pregel+ is Java/Hadoop-based). Calibrated so the baseline's
    /// computation:communication split matches the paper's Figure 5
    /// profile (~70% communication at 16 workers); see EXPERIMENTS.md.
    pub per_message_cost: f64,
    /// Simulation scale (see DESIGN.md): multiplies modelled compute work
    /// and message bytes.
    pub sim_scale: f64,
    /// Supersteps between recovery points when a chaos plan is armed
    /// (`mnd_engine::run_recoverable`): every `checkpoint_interval` supersteps the worker
    /// writes a state checkpoint it can roll back to after an injected
    /// mid-superstep crash. Ignored (no checkpoints at all) on fault-free
    /// runs, so the baseline's clean numbers are unchanged.
    pub checkpoint_interval: u64,
}

impl Default for BspConfig {
    fn default() -> Self {
        BspConfig {
            combine: true,
            mirror_threshold: Some(128),
            per_message_cost: 0.06e-6,
            sim_scale: 1.0,
            checkpoint_interval: 4,
        }
    }
}

impl BspConfig {
    /// Config with a simulation scale.
    pub fn with_sim_scale(mut self, s: f64) -> Self {
        assert!(s >= 1.0);
        self.sim_scale = s;
        self
    }
}

/// Counters one worker accumulates over a BSP run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BspStats {
    /// Supersteps executed (global barriers).
    pub supersteps: u64,
    /// Boruvka rounds completed.
    pub rounds: u64,
    /// Messages sent by this worker (before cost-model accounting, after
    /// combining).
    pub messages: u64,
    /// Supersteps re-executed at recovery cost after a mid-superstep
    /// crash: the stretch between the restored checkpoint and the crash
    /// point replays with compute charged (see `mnd_engine::run_recoverable`). 0 on
    /// fault-free runs.
    pub recovered_supersteps: u64,
}

/// One superstep's message exchange: per-destination-worker buckets go out,
/// the per-source inbound buckets come back, and the barrier at the end is
/// implicit in the all-to-all (every worker receives from every worker,
/// empty or not — the BSP synchronisation the paper's analysis targets).
pub fn superstep_exchange<T: mnd_net::Wire + Clone>(
    comm: &Comm,
    buckets: Vec<Vec<T>>,
    stats: &mut BspStats,
    cfg: &BspConfig,
) -> Vec<Vec<T>> {
    stats.supersteps += 1;
    if comm.replay_live() {
        // Post-crash replay of the interrupted epoch: this superstep
        // re-executes at real recovery cost (fast-forwarded supersteps
        // don't count — their stats are overwritten at the checkpoint
        // restore).
        stats.recovered_supersteps += 1;
    }
    let outgoing: u64 = buckets.iter().map(|b| b.len() as u64).sum();
    stats.messages += outgoing;
    // Messaging-stack overhead at the sender (per logical message, at
    // paper scale)…
    comm.charge_comm(outgoing as f64 * cfg.per_message_cost * cfg.sim_scale);
    let inbound = comm.alltoallv(buckets);
    // …and at the receiver.
    let incoming: u64 = inbound.iter().map(|b| b.len() as u64).sum();
    comm.charge_comm(incoming as f64 * cfg.per_message_cost * cfg.sim_scale);
    inbound
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnd_net::{Cluster, CostModel};

    #[test]
    fn exchange_counts_and_routes() {
        let cfg = BspConfig::default();
        let out = Cluster::new(3, CostModel::free()).run(|c| {
            let mut stats = BspStats::default();
            let buckets: Vec<Vec<u32>> = (0..3).map(|d| vec![c.rank() as u32 * 10 + d]).collect();
            let inbound = superstep_exchange(c, buckets, &mut stats, &cfg);
            (inbound, stats)
        });
        for (me, o) in out.iter().enumerate() {
            let (inbound, stats) = &o.result;
            assert_eq!(stats.supersteps, 1);
            assert_eq!(stats.messages, 3);
            for (src, b) in inbound.iter().enumerate() {
                assert_eq!(b, &vec![src as u32 * 10 + me as u32]);
            }
        }
    }
}
