//! FNV-1a digest over every simulated statistic — the bit-identity net.
//!
//! Every struct is destructured by field name and without `..`, so a
//! counter added to any of them later stops this crate from compiling
//! until it is folded in here (and the pins are refreshed).

use uve_core::engine::{EngineStats, FifoProfile};
use uve_cpu::{CycleAccount, RenameBlockReasons, TimingStats};
use uve_mem::{CacheStats, DramStats, LatencyHist, MemStats, ReqClass, ServedBy, SnoopStats};

/// An FNV-1a hasher over little-endian `u64` words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds one word into the digest.
    pub fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }

    /// Folds a list of words.
    pub fn words(&mut self, vs: &[u64]) {
        for &v in vs {
            self.word(v);
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Folds every counter of `s` into `h`.
pub fn timing_stats(h: &mut Fnv, s: &TimingStats) {
    let TimingStats {
        cycles,
        committed,
        rename_blocked_cycles,
        rename_block_reasons,
        branches,
        branch_mispredicts,
        mem,
        engine,
        bus_utilization,
        account,
    } = s;
    h.words(&[
        *cycles,
        *committed,
        *rename_blocked_cycles,
        *branches,
        *branch_mispredicts,
        bus_utilization.to_bits(),
    ]);
    let RenameBlockReasons {
        rob,
        iq,
        lsq,
        prf,
        store_fifo,
    } = rename_block_reasons;
    h.words(&[*rob, *iq, *lsq, *prf, *store_fifo]);
    mem_stats(h, mem);
    engine_stats(h, engine);
    cycle_account(h, account);
}

fn cycle_account(h: &mut Fnv, a: &CycleAccount) {
    let CycleAccount {
        retiring,
        mshr_wait,
        dram_wait,
        cache_wait,
        snoop_wait,
        fifo_empty,
        fault_replay,
        rob_full,
        iq_full,
        lsq_full,
        prf_starved,
        fifo_full,
        execute,
        depend,
        branch_redirect,
        frontend,
        fifo_empty_by_u,
        fifo_full_by_u,
    } = a;
    h.words(&[
        *retiring,
        *mshr_wait,
        *dram_wait,
        *cache_wait,
        *snoop_wait,
        *fifo_empty,
        *fault_replay,
        *rob_full,
        *iq_full,
        *lsq_full,
        *prf_starved,
        *fifo_full,
        *execute,
        *depend,
        *branch_redirect,
        *frontend,
    ]);
    h.words(fifo_empty_by_u);
    h.words(fifo_full_by_u);
}

fn mem_stats(h: &mut Fnv, m: &MemStats) {
    let MemStats {
        l1,
        l2,
        dram,
        reads,
        writes,
        tlb_hits,
        tlb_misses,
        profile,
        snoop,
    } = m;
    cache_stats(h, l1);
    cache_stats(h, l2);
    let DramStats {
        read_bytes,
        write_bytes,
        reads: dram_reads,
        writes: dram_writes,
    } = dram;
    h.words(&[*read_bytes, *write_bytes, *dram_reads, *dram_writes]);
    h.words(&[*reads, *writes, *tlb_hits, *tlb_misses]);
    for class in ReqClass::ALL {
        for served in ServedBy::ALL {
            let LatencyHist {
                count,
                total_cycles,
                max_cycles,
                buckets,
            } = profile.get(class, served);
            h.words(&[*count, *total_cycles, *max_cycles]);
            h.words(buckets);
        }
    }
    snoop_stats(h, snoop);
}

fn cache_stats(h: &mut Fnv, c: &CacheStats) {
    let CacheStats {
        hits,
        misses,
        prefetch_fills,
        prefetch_useful,
        writebacks,
    } = c;
    h.words(&[
        *hits,
        *misses,
        *prefetch_fills,
        *prefetch_useful,
        *writebacks,
    ]);
}

/// Folds every snoop-bus counter of one core into `h`.
pub fn snoop_stats(h: &mut Fnv, s: &SnoopStats) {
    let SnoopStats {
        bus_transactions,
        snoops_received,
        invalidations,
        downgrades,
        owner_forwards,
        dirty_writebacks,
    } = s;
    h.words(&[
        *bus_transactions,
        *snoops_received,
        *invalidations,
        *downgrades,
        *owner_forwards,
        *dirty_writebacks,
    ]);
}

fn engine_stats(h: &mut Fnv, e: &EngineStats) {
    let EngineStats {
        line_requests,
        load_chunks,
        store_chunks,
        dim_switch_cycles,
        active_cycles,
        peak_streams,
        page_faults,
        tlb_walk_cycles,
        transient_retries,
        poisoned_replays,
        fifo,
    } = e;
    h.words(&[
        *line_requests,
        *load_chunks,
        *store_chunks,
        *dim_switch_cycles,
        *active_cycles,
        *peak_streams as u64,
        *page_faults,
        *tlb_walk_cycles,
        *transient_retries,
        *poisoned_replays,
    ]);
    let FifoProfile { hist, samples } = fifo;
    h.word(*samples);
    h.word(hist.len() as u64);
    for row in hist {
        h.word(row.len() as u64);
        h.words(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_counter_moves_the_digest() {
        let base = TimingStats::default();
        let mut moved = base.clone();
        moved.account.fifo_full_by_u[31] = 1;
        let (mut a, mut b) = (Fnv::default(), Fnv::default());
        timing_stats(&mut a, &base);
        timing_stats(&mut b, &moved);
        assert_ne!(a.finish(), b.finish());
    }
}
