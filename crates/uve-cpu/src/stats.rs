//! Timing statistics reported by the out-of-order model — the quantities
//! the paper's figures are built from.

use crate::predictor::Bimodal;
use uve_core::engine::{EngineSim, EngineStats};
use uve_mem::{MemPort, MemStats};

/// Why rename stalled in a given cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RenameBlockReason {
    /// Reorder buffer full.
    Rob,
    /// Issue queue / scheduler cluster full.
    Iq,
    /// Load or store queue full.
    Lsq,
    /// No free physical register.
    Prf,
    /// Streaming Engine store FIFO slot not yet reserved.
    StoreFifo,
}

/// Per-reason rename-stall counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RenameBlockReasons {
    /// Cycles blocked on the ROB.
    pub rob: u64,
    /// Cycles blocked on issue queues.
    pub iq: u64,
    /// Cycles blocked on load/store queues.
    pub lsq: u64,
    /// Cycles blocked on physical registers.
    pub prf: u64,
    /// Cycles blocked on store-FIFO reservation.
    pub store_fifo: u64,
}

impl RenameBlockReasons {
    /// Charges `cycles` blocked cycles to reason `r`.
    pub(crate) fn bump(&mut self, r: RenameBlockReason, cycles: u64) {
        match r {
            RenameBlockReason::Rob => self.rob += cycles,
            RenameBlockReason::Iq => self.iq += cycles,
            RenameBlockReason::Lsq => self.lsq += cycles,
            RenameBlockReason::Prf => self.prf += cycles,
            RenameBlockReason::StoreFifo => self.store_fifo += cycles,
        }
    }
}

/// The one [`CycleAccount`] category a cycle is attributed to; the stream
/// register rides along for the per-register breakdowns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stall {
    Retiring,
    MshrWait,
    SnoopWait,
    DramWait,
    CacheWait,
    FifoEmpty(u8),
    FaultReplay,
    RobFull,
    IqFull,
    LsqFull,
    PrfStarved,
    FifoFull(u8),
    Execute,
    Depend,
    BranchRedirect,
    Frontend,
}

/// Top-down cycle accounting: every core cycle is attributed to exactly
/// one category, so the fields always sum to [`TimingStats::cycles`]
/// (the conservation law checked by `tests/cycle_accounting.rs`).
///
/// The attribution cascade runs once per cycle, oldest-first:
/// 1. any instruction committed → `retiring`;
/// 2. the ROB head is an issued load still waiting on memory →
///    `mshr_wait` / `snoop_wait` / `dram_wait` / `cache_wait` (from the
///    load's recorded [`ReadOutcome`](uve_mem::ReadOutcome));
/// 3. the ROB head cannot issue because a stream chunk is not in its FIFO
///    → `fault_replay` if that stream is retrying an injected fault,
///    `fifo_empty` otherwise (also attributed per stream register);
/// 4. rename produced nothing because a resource is full → `rob_full` /
///    `iq_full` / `lsq_full` / `prf_starved` / `fifo_full`;
/// 5. the ROB head is otherwise executing or waiting on registers →
///    `fault_replay` if it is serving a precise stream-fault trap, else
///    `execute` / `depend`;
/// 6. the ROB is empty → `branch_redirect` while refetching after a
///    mispredict, `frontend` otherwise.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleAccount {
    /// At least one instruction committed.
    pub retiring: u64,
    /// ROB head waiting for a free MSHR slot.
    pub mshr_wait: u64,
    /// ROB head waiting on a DRAM-serviced load.
    pub dram_wait: u64,
    /// ROB head waiting on a cache-serviced load (L1/L2 latency).
    pub cache_wait: u64,
    /// ROB head waiting on a load served by a remote core's cache over the
    /// snoop bus (owner forwarding / coherence traffic). Always zero on a
    /// single-core run.
    pub snoop_wait: u64,
    /// ROB head waiting for a stream chunk that is not yet in its FIFO.
    pub fifo_empty: u64,
    /// ROB head waiting on a stream that is retrying an injected fault
    /// (transient/poison backoff), or serving a precise stream-fault trap.
    pub fault_replay: u64,
    /// Rename blocked: reorder buffer full.
    pub rob_full: u64,
    /// Rename blocked: issue queues full.
    pub iq_full: u64,
    /// Rename blocked: load/store queue full.
    pub lsq_full: u64,
    /// Rename blocked: no free physical register.
    pub prf_starved: u64,
    /// Rename blocked: store-stream FIFO slot not yet reserved.
    pub fifo_full: u64,
    /// ROB head issued and executing (non-load latency).
    pub execute: u64,
    /// ROB head waiting on register operands or issue ports.
    pub depend: u64,
    /// ROB empty while the front end refetches after a mispredict.
    pub branch_redirect: u64,
    /// ROB empty, front end filling (startup, taken-branch bubbles).
    pub frontend: u64,
    /// `fifo_empty` broken down by architectural stream register.
    pub fifo_empty_by_u: [u64; 32],
    /// `fifo_full` broken down by architectural stream register.
    pub fifo_full_by_u: [u64; 32],
}

impl CycleAccount {
    /// Category names, in [`CycleAccount::values`] order.
    pub const CATEGORIES: [&'static str; 16] = [
        "retiring",
        "mshr",
        "dram",
        "cache",
        "snoop",
        "fifo-empty",
        "fault-replay",
        "rob-full",
        "iq-full",
        "lsq-full",
        "prf",
        "fifo-full",
        "execute",
        "depend",
        "redirect",
        "frontend",
    ];

    /// Category counters, in [`CycleAccount::CATEGORIES`] order.
    pub fn values(&self) -> [u64; 16] {
        [
            self.retiring,
            self.mshr_wait,
            self.dram_wait,
            self.cache_wait,
            self.snoop_wait,
            self.fifo_empty,
            self.fault_replay,
            self.rob_full,
            self.iq_full,
            self.lsq_full,
            self.prf_starved,
            self.fifo_full,
            self.execute,
            self.depend,
            self.branch_redirect,
            self.frontend,
        ]
    }

    /// Charges `cycles` cycles to `stall`.
    pub(crate) fn charge(&mut self, stall: Stall, cycles: u64) {
        let field = match stall {
            Stall::Retiring => &mut self.retiring,
            Stall::MshrWait => &mut self.mshr_wait,
            Stall::SnoopWait => &mut self.snoop_wait,
            Stall::DramWait => &mut self.dram_wait,
            Stall::CacheWait => &mut self.cache_wait,
            Stall::FifoEmpty(u) => {
                self.fifo_empty_by_u[usize::from(u) & 31] += cycles;
                &mut self.fifo_empty
            }
            Stall::FaultReplay => &mut self.fault_replay,
            Stall::RobFull => &mut self.rob_full,
            Stall::IqFull => &mut self.iq_full,
            Stall::LsqFull => &mut self.lsq_full,
            Stall::PrfStarved => &mut self.prf_starved,
            Stall::FifoFull(u) => {
                self.fifo_full_by_u[usize::from(u) & 31] += cycles;
                &mut self.fifo_full
            }
            Stall::Execute => &mut self.execute,
            Stall::Depend => &mut self.depend,
            Stall::BranchRedirect => &mut self.branch_redirect,
            Stall::Frontend => &mut self.frontend,
        };
        *field += cycles;
    }

    /// Sum over all categories — equals the run's cycle count.
    pub fn total(&self) -> u64 {
        self.values().iter().sum()
    }

    /// Verifies the conservation laws against a run of `cycles` cycles.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated law.
    pub fn check(&self, cycles: u64) -> Result<(), String> {
        if self.total() != cycles {
            return Err(format!(
                "cycle accounting leak: categories sum to {} but the run took {cycles} cycles",
                self.total()
            ));
        }
        let by_u: u64 = self.fifo_empty_by_u.iter().sum();
        if by_u != self.fifo_empty {
            return Err(format!(
                "fifo-empty per-stream sum {by_u} != total {}",
                self.fifo_empty
            ));
        }
        let by_u: u64 = self.fifo_full_by_u.iter().sum();
        if by_u != self.fifo_full {
            return Err(format!(
                "fifo-full per-stream sum {by_u} != total {}",
                self.fifo_full
            ));
        }
        Ok(())
    }
}

/// Results of one timing simulation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimingStats {
    /// Total cycles to commit the trace.
    pub cycles: u64,
    /// Committed instructions.
    pub committed: u64,
    /// Cycles the rename stage was blocked (Fig. 8.C numerator).
    pub rename_blocked_cycles: u64,
    /// Rename-stall breakdown.
    pub rename_block_reasons: RenameBlockReasons,
    /// Dynamic branches fetched.
    pub branches: u64,
    /// Mispredicted branches.
    pub branch_mispredicts: u64,
    /// Memory hierarchy statistics.
    pub mem: MemStats,
    /// Streaming Engine statistics.
    pub engine: EngineStats,
    /// DRAM bus utilization `(read+write)/peak` over the run (Fig. 8.D).
    pub bus_utilization: f64,
    /// Top-down attribution of every cycle to one stall category.
    pub account: CycleAccount,
}

impl TimingStats {
    pub(crate) fn empty() -> Self {
        Self::default()
    }

    pub(crate) fn finalize<M: MemPort>(&mut self, mem: &M, engine: &EngineSim, _pred: &Bimodal) {
        self.mem = mem.stats();
        self.engine = engine.stats();
        self.bus_utilization = mem.bus_utilization(self.cycles);
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Average rename blocks per cycle (Fig. 8.C metric).
    pub fn rename_blocks_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.rename_blocked_cycles as f64 / self.cycles as f64
        }
    }

    /// Branch misprediction rate.
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.branch_mispredicts as f64 / self.branches as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let mut s = TimingStats::empty();
        s.cycles = 100;
        s.committed = 250;
        s.rename_blocked_cycles = 25;
        s.branches = 10;
        s.branch_mispredicts = 1;
        assert_eq!(s.ipc(), 2.5);
        assert_eq!(s.rename_blocks_per_cycle(), 0.25);
        assert_eq!(s.mispredict_rate(), 0.1);
    }

    #[test]
    fn zero_cycle_metrics_are_zero() {
        let s = TimingStats::empty();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.rename_blocks_per_cycle(), 0.0);
        assert_eq!(s.mispredict_rate(), 0.0);
    }

    #[test]
    fn account_conservation_check() {
        let mut a = CycleAccount {
            retiring: 60,
            dram_wait: 30,
            frontend: 10,
            ..CycleAccount::default()
        };
        assert_eq!(a.total(), 100);
        assert!(a.check(100).is_ok());
        assert!(a.check(99).is_err());
        a.fifo_empty = 5;
        assert!(a.check(105).is_err(), "per-u breakdown must match");
        a.fifo_empty_by_u[3] = 5;
        assert!(a.check(105).is_ok());
        assert_eq!(CycleAccount::CATEGORIES.len(), a.values().len());
    }

    #[test]
    fn reason_bumps() {
        let mut r = RenameBlockReasons::default();
        r.bump(RenameBlockReason::Prf, 1);
        r.bump(RenameBlockReason::Prf, 1);
        r.bump(RenameBlockReason::StoreFifo, 1);
        assert_eq!(r.prf, 2);
        assert_eq!(r.store_fifo, 1);
        assert_eq!(r.rob, 0);
    }
}
