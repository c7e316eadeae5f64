//! Hardware prefetchers: a PC-indexed stride prefetcher (L1-D) and an
//! Access-Map Pattern-Matching (AMPM) prefetcher (L2), matching the baseline
//! configuration of Table I.

use std::collections::{HashMap, VecDeque};

/// A prefetch suggestion: a line address to bring into the cache.
pub type PrefetchRequest = u64;

/// Most prefetches one observed access can suggest: the stride prefetcher
/// issues at most two, and the AMPM degree is clamped to this.
pub const MAX_PREFETCHES: usize = 8;

/// The prefetch suggestions of one observed access, held inline so the
/// per-access path does not allocate. Derefs to a slice of line addresses.
#[derive(Clone, Copy, Default)]
pub struct Prefetches {
    lines: [PrefetchRequest; MAX_PREFETCHES],
    len: usize,
}

impl Prefetches {
    fn push(&mut self, line: PrefetchRequest) {
        self.lines[self.len] = line;
        self.len += 1;
    }
}

impl std::ops::Deref for Prefetches {
    type Target = [PrefetchRequest];

    fn deref(&self) -> &[PrefetchRequest] {
        &self.lines[..self.len]
    }
}

impl std::fmt::Debug for Prefetches {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl IntoIterator for Prefetches {
    type Item = PrefetchRequest;
    type IntoIter = std::iter::Take<std::array::IntoIter<PrefetchRequest, MAX_PREFETCHES>>;

    fn into_iter(self) -> Self::IntoIter {
        self.lines.into_iter().take(self.len)
    }
}

/// Per-PC stride detector driving the L1-D prefetcher.
///
/// Classic RPT-style design: each load PC tracks its last address and
/// stride; after two confirmations, lines up to `depth` strides ahead are
/// prefetched. The table is a PC-sorted array; when it is full, a new PC
/// evicts the entry with the smallest PC, so replacement is deterministic.
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    depth: usize,
    table: Vec<(u64, StrideEntry)>,
    capacity: usize,
    issued: u64,
}

#[derive(Debug, Clone, Copy)]
struct StrideEntry {
    last_addr: u64,
    stride: i64,
    confidence: u8,
    next_degree: usize,
}

impl StridePrefetcher {
    /// Creates a stride prefetcher of the given lookahead `depth` (Table I:
    /// 16) and table `capacity` entries.
    pub fn new(depth: usize, capacity: usize) -> Self {
        Self {
            depth,
            table: Vec::with_capacity(capacity),
            capacity,
            issued: 0,
        }
    }

    /// Number of prefetch requests issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Observes a demand access from load/store `pc` to byte address `addr`
    /// and returns the line addresses to prefetch.
    pub fn observe(&mut self, pc: u64, addr: u64) -> Prefetches {
        let mut out = Prefetches::default();
        match self.table.binary_search_by_key(&pc, |&(k, _)| k) {
            Ok(pos) => {
                let e = &mut self.table[pos].1;
                let stride = addr as i64 - e.last_addr as i64;
                if stride == e.stride && stride != 0 {
                    if e.confidence < 1 {
                        e.confidence += 1;
                    }
                    if e.confidence >= 1 {
                        // Sliding lookahead: ramp the prefetch distance up
                        // to `depth` strides, issuing at most two new lines
                        // per access (real prefetchers do not flood their
                        // whole window on every trigger).
                        let degree = e.next_degree.min(self.depth);
                        let base = addr as i64;
                        let mut last_line = u64::MAX;
                        for k in [degree.saturating_sub(1).max(1), degree] {
                            let target = base + stride * k as i64;
                            if target < 0 {
                                continue;
                            }
                            let line = target as u64 / crate::cache::LINE_BYTES;
                            if line != last_line {
                                out.push(line);
                                last_line = line;
                            }
                        }
                        e.next_degree = (e.next_degree + 2).min(self.depth);
                    }
                } else {
                    e.stride = stride;
                    e.confidence = 0;
                    e.next_degree = 2;
                }
                e.last_addr = addr;
            }
            Err(mut pos) => {
                if self.table.len() >= self.capacity && !self.table.is_empty() {
                    // Replacement: drop the entry with the smallest PC.
                    self.table.remove(0);
                    pos = pos.saturating_sub(1);
                }
                self.table.insert(
                    pos,
                    (
                        pc,
                        StrideEntry {
                            last_addr: addr,
                            stride: 0,
                            confidence: 0,
                            next_degree: 2,
                        },
                    ),
                );
            }
        }
        self.issued += out.len() as u64;
        out
    }
}

/// Lines per AMPM zone (4 KiB zones of 64-byte lines): one `u64` bitmap.
const ZONE_LINES: u64 = 4096 / crate::cache::LINE_BYTES;

/// Access-Map Pattern-Matching prefetcher (Ishii et al., ICS'09), the L2
/// prefetcher of Table I.
///
/// Memory is divided into zones (here 4 KiB); each zone keeps a bitmap of
/// recently accessed lines. On each access, candidate offsets `±d` are
/// prefetched when the two preceding accesses at the same spacing
/// (`addr - d`, `addr - 2d`) are present in the map — the AMPM pattern
/// match.
#[derive(Debug, Clone)]
pub struct AmpmPrefetcher {
    zones: HashMap<u64, u64>,
    /// Lines already requested by the prefetcher (the real AMPM's
    /// per-line *prefetch* state): excluded as candidates so the prefetch
    /// distance ramps forward instead of re-targeting the same offsets.
    pf_zones: HashMap<u64, u64>,
    zone_queue: VecDeque<u64>,
    max_zones: usize,
    degree: usize,
    issued: u64,
}

/// The bitmaps of the zones before, at and after an access, read once: the
/// pattern match looks at most `ZONE_LINES` lines either side of it.
struct ZoneWindow([u64; 3]);

impl ZoneWindow {
    fn read(map: &HashMap<u64, u64>, zone: u64) -> Self {
        let get = |z: Option<u64>| z.and_then(|z| map.get(&z)).copied().unwrap_or(0);
        Self([
            get(zone.checked_sub(1)),
            get(Some(zone)),
            get(zone.checked_add(1)),
        ])
    }

    /// Whether the line `delta` lines from bit `bit` of the middle zone is
    /// set; `|delta| <= ZONE_LINES`.
    fn is_set(&self, bit: u64, delta: i64) -> bool {
        let pos = ((ZONE_LINES + bit) as i64 + delta) as u64;
        self.0[(pos / ZONE_LINES) as usize] & (1 << (pos % ZONE_LINES)) != 0
    }
}

impl AmpmPrefetcher {
    /// Creates an AMPM prefetcher tracking up to `max_zones` 4 KiB zones and
    /// issuing at most `degree` prefetches per access (Table I: queue size
    /// 32), clamped to [`MAX_PREFETCHES`].
    pub fn new(max_zones: usize, degree: usize) -> Self {
        Self {
            zones: HashMap::new(),
            pf_zones: HashMap::new(),
            zone_queue: VecDeque::new(),
            max_zones,
            degree: degree.min(MAX_PREFETCHES),
            issued: 0,
        }
    }

    /// Number of prefetch requests issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Observes a demand access to `line` (line address) and returns lines
    /// to prefetch.
    pub fn observe(&mut self, line: u64) -> Prefetches {
        // Record the access.
        let zone = line / ZONE_LINES;
        let bit = line % ZONE_LINES;
        if self.zones.len() >= self.max_zones && !self.zones.contains_key(&zone) {
            if let Some(victim) = self.zone_queue.pop_front() {
                self.zones.remove(&victim);
                self.pf_zones.remove(&victim);
            }
        }
        let entry = self.zones.entry(zone).or_insert_with(|| {
            self.zone_queue.push_back(zone);
            0
        });
        *entry |= 1 << bit;

        // Pattern match: for each candidate spacing d, require line-d and
        // line-2d set, then prefetch line+d. Lines below zero are never
        // set, which the zero bitmap below zone 0 provides.
        let seen = ZoneWindow::read(&self.zones, zone);
        let prefetched = ZoneWindow::read(&self.pf_zones, zone);
        let mut out = Prefetches::default();
        let l = line as i64;
        for d in 1..=ZONE_LINES as i64 / 2 {
            if out.len() >= self.degree {
                break;
            }
            if seen.is_set(bit, -d)
                && seen.is_set(bit, -2 * d)
                && !seen.is_set(bit, d)
                && !prefetched.is_set(bit, d)
            {
                out.push((l + d) as u64);
            }
            if out.len() >= self.degree {
                break;
            }
            if seen.is_set(bit, d)
                && seen.is_set(bit, 2 * d)
                && !seen.is_set(bit, -d)
                && !prefetched.is_set(bit, -d)
                && l - d >= 0
            {
                out.push((l - d) as u64);
            }
        }
        for &line in out.iter() {
            *self.pf_zones.entry(line / ZONE_LINES).or_insert(0) |= 1 << (line % ZONE_LINES);
        }
        self.issued += out.len() as u64;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_detects_after_confirmation() {
        let mut p = StridePrefetcher::new(16, 64);
        assert!(p.observe(100, 0x1000).is_empty());
        assert!(p.observe(100, 0x1040).is_empty()); // stride learned
        let reqs = p.observe(100, 0x1080); // confirmed → prefetch ahead
        assert!(!reqs.is_empty());
        assert_eq!(reqs[0], (0x1080 + 0x40) / 64);
    }

    #[test]
    fn stride_resets_on_change() {
        let mut p = StridePrefetcher::new(16, 64);
        p.observe(1, 0);
        p.observe(1, 64);
        assert!(!p.observe(1, 128).is_empty());
        assert!(p.observe(1, 1024).is_empty()); // stride broke
        assert!(p.observe(1, 1024 + 64).is_empty()); // re-learning (stride changed)
    }

    #[test]
    fn stride_ramps_lookahead_to_depth() {
        let mut p = StridePrefetcher::new(8, 64);
        p.observe(1, 0);
        for i in 1..20 {
            p.observe(1, i * 64);
        }
        let reqs = p.observe(1, 20 * 64);
        // At most two requests per access, with the farthest at `depth`
        // strides of lookahead.
        assert!(reqs.len() <= 2, "{reqs:?}");
        assert_eq!(
            *reqs.last().expect("prefetcher must have issued requests"),
            (20 + 8) * 64 / 64
        );
    }

    #[test]
    fn stride_table_capacity_bounded() {
        let mut p = StridePrefetcher::new(4, 4);
        for pc in 0..100 {
            p.observe(pc, pc * 4096);
        }
        assert!(p.table.len() <= 4);
    }

    #[test]
    fn stride_replacement_evicts_the_smallest_pc() {
        let mut p = StridePrefetcher::new(4, 8);
        let base = |pc: u64| 0x10_0000 * (pc + 1);
        // Eight PCs, each with a learned stride of one line.
        for pc in 0..8 {
            p.observe(pc, base(pc));
            p.observe(pc, base(pc) + 64);
        }
        p.observe(100, 0); // a ninth PC evicts exactly one entry
                           // The survivors confirm their strides; the evicted PC (checked
                           // last, as its return evicts again) has to relearn.
        for pc in (1..8).chain([0]) {
            let reqs = p.observe(pc, base(pc) + 128);
            assert_eq!(reqs.is_empty(), pc == 0, "pc {pc}: {reqs:?}");
        }
    }

    #[test]
    fn ampm_matches_linear_pattern() {
        let mut p = AmpmPrefetcher::new(8, 4);
        assert!(p.observe(10).is_empty());
        assert!(!p.observe(11).is_empty() || !p.observe(12).is_empty());
        let reqs = p.observe(13);
        assert!(reqs.contains(&14), "{reqs:?}");
    }

    #[test]
    fn ampm_matches_strided_pattern() {
        let mut p = AmpmPrefetcher::new(8, 4);
        p.observe(0);
        p.observe(3);
        let reqs = p.observe(6);
        assert!(reqs.contains(&9), "{reqs:?}");
    }

    #[test]
    fn ampm_zone_capacity_bounded() {
        let mut p = AmpmPrefetcher::new(2, 4);
        p.observe(0);
        p.observe(64); // zone 1
        p.observe(128); // zone 2 → evicts zone 0
        assert!(p.zones.len() <= 2);
    }

    #[test]
    fn ampm_respects_degree() {
        let mut p = AmpmPrefetcher::new(8, 1);
        for l in 0..6 {
            p.observe(l);
        }
        assert!(p.observe(6).len() <= 1);
    }
}
