//! The traced run's instruments: a std-only span accumulator, a timing
//! [`MemPort`] wrapper, and a replay loop that steps [`CorePipeline`]
//! over it. Every span wraps a call into a layer's public API from this
//! crate; nothing inside the program is instrumented.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use uve_core::{EmuConfig, Emulator, RunResult, Trace};
use uve_cpu::{CorePipeline, CpuConfig, TimingStats};
use uve_kernels::{Benchmark, Flavor};
use uve_mem::{FaultStats, MemPort, MemStats, MemSystem, Memory, Path, ReadOutcome, Translation};

/// Time and call count accumulated under one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Acc {
    /// Total nanoseconds inside the span.
    pub nanos: u64,
    /// Calls (or, for pure counters, the counted quantity).
    pub count: u64,
}

impl Acc {
    /// Seconds accumulated.
    pub fn secs(self) -> f64 {
        self.nanos as f64 * 1e-9
    }

    fn add(&mut self, d: Duration, count: u64) {
        self.nanos += u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.count += count;
    }
}

/// Named spans shared by the workers of one pass. A disabled accumulator
/// runs the wrapped calls without reading the clock, so the untraced pass
/// and the traced pass share one code path.
#[derive(Debug, Default)]
pub struct Spans {
    enabled: bool,
    acc: Mutex<BTreeMap<String, Acc>>,
}

impl Spans {
    /// An accumulator that records.
    pub fn on() -> Self {
        Self {
            enabled: true,
            acc: Mutex::default(),
        }
    }

    /// An accumulator that records nothing.
    pub fn off() -> Self {
        Self::default()
    }

    /// Runs `f` inside span `name`.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let t = Instant::now();
        let out = f();
        self.add(name, t.elapsed(), 1);
        out
    }

    /// Adds `d` and `count` to span `name`.
    pub fn add(&self, name: &str, d: Duration, count: u64) {
        if self.enabled {
            self.acc
                .lock()
                .expect("span accumulator poisoned")
                .entry(name.to_string())
                .or_default()
                .add(d, count);
        }
    }

    /// The totals of span `name` (zero if it never ran).
    pub fn get(&self, name: &str) -> Acc {
        self.acc
            .lock()
            .expect("span accumulator poisoned")
            .get(name)
            .copied()
            .unwrap_or_default()
    }
}

/// Lower-case flavor name used in per-flavor span and metric names.
pub fn flavor_key(flavor: Flavor) -> &'static str {
    match flavor {
        Flavor::Uve => "uve",
        Flavor::Sve => "sve",
        Flavor::Neon => "neon",
        Flavor::Scalar => "scalar",
    }
}

/// Emulates `bench` in `flavor` the way the runner does (same
/// [`EmuConfig`]), with or without trace recording, and checks the result
/// against the kernel's oracle. Setup, program construction, the run and
/// the check each get their own span.
///
/// # Errors
///
/// Returns the emulation error or the oracle's mismatch.
pub fn emulate(
    bench: &dyn Benchmark,
    flavor: Flavor,
    record: bool,
    spans: &Spans,
) -> Result<RunResult, String> {
    let cfg = EmuConfig {
        vlen_bytes: flavor.vlen_bytes(),
        record_trace: record,
        ..EmuConfig::default()
    };
    let mut emu = Emulator::new(cfg, Memory::new());
    spans.time("kernels.setup", || bench.setup(&mut emu));
    let program = spans.time("kernels.program", || bench.program(flavor));
    let span = if record {
        format!("emulator.record.{}", flavor_key(flavor))
    } else {
        "emulator.untraced".to_string()
    };
    let result = spans
        .time(&span, || emu.run(&program))
        .map_err(|e| format!("{}/{flavor}: {e}", bench.name()))?;
    let insts = if record {
        "emulator.record.insts"
    } else {
        "emulator.untraced.insts"
    };
    spans.add(insts, Duration::ZERO, result.committed);
    spans
        .time("kernels.check", || bench.check(&emu))
        .map_err(|e| format!("{}/{flavor}: {e}", bench.name()))?;
    Ok(result)
}

/// A [`MemSystem`] that times every demand access, split into the core's
/// load/store path ([`Path::Normal`]) and the Streaming Engine's paths.
#[derive(Debug)]
pub struct TimedMem {
    /// The hierarchy being timed.
    pub inner: MemSystem,
    /// `Path::Normal` reads and writes.
    pub core: Acc,
    /// `StreamL1`/`StreamL2`/`StreamMem` reads and writes.
    pub stream: Acc,
}

impl TimedMem {
    /// Wraps `inner` with zeroed counters.
    pub fn new(inner: MemSystem) -> Self {
        Self {
            inner,
            core: Acc::default(),
            stream: Acc::default(),
        }
    }

    fn charge(&mut self, path: Path, since: Instant) {
        let acc = if path == Path::Normal {
            &mut self.core
        } else {
            &mut self.stream
        };
        acc.add(since.elapsed(), 1);
    }
}

impl MemPort for TimedMem {
    fn translate(&mut self, vaddr: u64) -> Translation {
        self.inner.translate(vaddr)
    }

    fn fault_transient(&mut self, line: u64, attempt: u32) -> bool {
        self.inner.fault_transient(line, attempt)
    }

    fn fault_poisoned(&mut self, line: u64, attempt: u32, from_dram: bool, path: Path) -> bool {
        self.inner.fault_poisoned(line, attempt, from_dram, path)
    }

    fn fault_backoff(&self, attempt: u32) -> u64 {
        self.inner.fault_backoff(attempt)
    }

    fn fault_stats(&self) -> FaultStats {
        self.inner.fault_stats()
    }

    fn read_explained(&mut self, addr: u64, pc: u64, now: u64, path: Path) -> ReadOutcome {
        let t = Instant::now();
        let out = self.inner.read_explained(addr, pc, now, path);
        self.charge(path, t);
        out
    }

    fn write(&mut self, addr: u64, pc: u64, now: u64, path: Path) -> u64 {
        let t = Instant::now();
        let out = self.inner.write(addr, pc, now, path);
        self.charge(path, t);
        out
    }

    fn write_full_line(&mut self, addr: u64, pc: u64, now: u64, path: Path) -> u64 {
        let t = Instant::now();
        let out = self.inner.write_full_line(addr, pc, now, path);
        self.charge(path, t);
        out
    }

    fn stats(&self) -> MemStats {
        self.inner.stats()
    }

    fn bus_utilization(&self, cycles: u64) -> f64 {
        self.inner.bus_utilization(cycles)
    }
}

/// Where one traced warm replay spent its host time.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayProfile {
    /// The cold pass (fresh hierarchy).
    pub cold: Duration,
    /// The warm pass (hierarchy kept, statistics reset).
    pub warm: Duration,
    /// Core load/store accesses over both passes.
    pub core: Acc,
    /// Streaming Engine accesses over both passes.
    pub stream: Acc,
    /// Simulated cycles over both passes.
    pub cycles: u64,
}

/// Steps one pass of `trace` to completion over `mem` — what
/// `OoOCore::run_with` does, against any [`MemPort`].
fn step_pass<M: MemPort>(cpu: &CpuConfig, trace: &Trace, mem: &mut M) -> TimingStats {
    if trace.ops.is_empty() {
        return TimingStats::default();
    }
    let mut pipe = CorePipeline::new(cpu.clone(), trace, 0, false);
    while !pipe.finished() {
        pipe.step(trace, mem, None);
    }
    pipe.finish(mem)
}

/// The warm-run methodology of `OoOCore::run_warm` (cold pass, reset
/// statistics, reported warm pass) over a [`TimedMem`], returning the warm
/// statistics and where the time went.
pub fn replay_traced(cpu: &CpuConfig, trace: &Trace) -> (TimingStats, ReplayProfile) {
    let mut mem = TimedMem::new(MemSystem::new(cpu.mem.clone()));
    let t = Instant::now();
    let cold = step_pass(cpu, trace, &mut mem);
    let cold_time = t.elapsed();
    mem.inner.reset_stats();
    let t = Instant::now();
    let warm = step_pass(cpu, trace, &mut mem);
    let profile = ReplayProfile {
        cold: cold_time,
        warm: t.elapsed(),
        core: mem.core,
        stream: mem.stream,
        cycles: cold.cycles + warm.cycles,
    };
    (warm, profile)
}
