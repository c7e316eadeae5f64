//! Golden trace content: an FNV-1a digest over every logical field of every
//! recorded dynamic instruction and every stream chunk.
//!
//! The timing model replays exactly what the emulator records, so a change
//! to how a trace is *stored* must not change what it *says*. These pins
//! cover the 19 smoke-size kernels in all four flavors plus one run under a
//! stream-fault plan (whose ops carry nonzero fault counts). The digest
//! reads fields by meaning, not by layout, so it survives any change of
//! representation that keeps the content.
//!
//! If a pin moves, either the emulator's recorded behaviour genuinely
//! changed (every cached trace and timing result moves with it) or a
//! storage refactor lost or reordered content.

use uve::bench::runner::emulate_trace_full;
use uve::core::{ExecMode, IndirectPacking, Trace};
use uve::isa::{MemLevel, RegRef};
use uve::kernels::{small_suite, Benchmark, Flavor};

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn regs(&mut self, regs: impl ExactSizeIterator<Item = RegRef>) {
        self.word(regs.len() as u64);
        for r in regs {
            self.word(r.class as u64);
            self.word(u64::from(r.num));
        }
    }

    fn refs<'a>(&mut self, refs: impl ExactSizeIterator<Item = &'a (u32, u32)>) {
        self.word(refs.len() as u64);
        for &(inst, chunk) in refs {
            self.word(u64::from(inst));
            self.word(u64::from(chunk));
        }
    }

    fn opt(&mut self, v: Option<u32>) {
        self.word(v.map_or(u64::MAX, u64::from));
    }
}

/// Digest of everything a trace says: each op's fields in program order,
/// then each stream instance with its chunk sequence.
fn trace_digest(t: &Trace) -> u64 {
    let mut h = Fnv::new();
    h.word(t.ops.len() as u64);
    for op in &t.ops {
        h.word(u64::from(op.pc));
        h.word(op.exec as u64);
        h.regs(op.srcs.iter().copied());
        h.regs(op.dests.iter().copied());
        let lines = t.mem_lines(op);
        h.word(lines.len() as u64);
        for &l in lines {
            h.word(l);
        }
        h.word(op.mem_addr);
        h.word(u64::from(op.is_store));
        match op.branch {
            Some(b) => {
                h.word(1 + u64::from(b.taken));
                h.word(u64::from(b.next_pc));
            }
            None => h.word(0),
        }
        h.refs(t.stream_reads(op).iter());
        h.refs(t.stream_writes(op).iter());
        h.opt(op.stream_open.get());
        h.opt(op.stream_close.get());
        h.word(u64::from(op.stream_faults));
    }
    h.word(t.streams.len() as u64);
    for s in &t.streams {
        h.word(u64::from(s.u));
        h.word(s.dir as u64);
        h.word(s.level as u64);
        h.word(s.width as u64);
        h.word(u64::from(s.cfg_insts));
        h.word(s.chunks.len() as u64);
        for c in &s.chunks {
            h.word(c.lines.len() as u64);
            for &l in &c.lines {
                h.word(l);
            }
            h.word(u64::from(c.dim_switches));
            h.word(u64::from(c.valid));
        }
    }
    h.0
}

fn record(bench: &dyn Benchmark, flavor: Flavor, fault_seed: u64) -> Trace {
    emulate_trace_full(
        bench,
        flavor,
        MemLevel::L2,
        IndirectPacking::default(),
        ExecMode::default(),
        fault_seed,
    )
    .trace
}

/// Per kernel of `small_suite()`, in suite order: the digests of its
/// UVE, SVE, NEON and scalar traces.
const GOLDEN: [(&str, [u64; 4]); 19] = [
    (
        "Memcpy",
        [
            0xdaf00fa09b4ac8f9,
            0xa58c43b304ec725d,
            0xacdccdbbe3c8c9de,
            0xe0402a5a4a2f1bb7,
        ],
    ),
    (
        "STREAM",
        [
            0x9d1b4db49eb7a85e,
            0x651f04fcf8a126c6,
            0xe3ff059a8afb9867,
            0x5bbc2f1285034644,
        ],
    ),
    (
        "SAXPY",
        [
            0x96bba9789c084445,
            0x5271d392bda680c3,
            0x791f16c6bca224c6,
            0xd9541777bbd96bd7,
        ],
    ),
    (
        "GEMM",
        [
            0x409f0677a1170478,
            0x51b1548843e1f714,
            0xc66cd5a4e9d3a2be,
            0x4ab3033dc0777d97,
        ],
    ),
    (
        "3MM",
        [
            0x063c5f00bbe33d63,
            0x14192d2fb833719c,
            0xc593aff8f12d75f1,
            0xe71a4c154bf38547,
        ],
    ),
    (
        "MVT",
        [
            0xe39535c52457d1b0,
            0xcf395b3fe2130968,
            0x403fdc1e616482d4,
            0xa317c4f9a1efa1ed,
        ],
    ),
    (
        "GEMVER",
        [
            0x424b456ff874f2db,
            0x7ef06ac022631422,
            0x322696d11b0194b6,
            0xa1cb19c0da206435,
        ],
    ),
    (
        "Trisolv",
        [
            0xad78b011b8082111,
            0x88532a751dcc5811,
            0x18a8d29413a5c2db,
            0xb6810ace18298a8c,
        ],
    ),
    (
        "Jacobi-1D",
        [
            0x639821f87d7ab5bd,
            0xa8dc7caeb983f3d7,
            0x614b403e95174539,
            0x8b82f3d8e07624b0,
        ],
    ),
    (
        "Jacobi-2D",
        [
            0x3f78ab3173163809,
            0x4eccb5306f558cce,
            0x22da61c8bdaeb9b2,
            0x78c713c7f7bff8f0,
        ],
    ),
    (
        "IRSmk",
        [
            0x827caa8817489bfd,
            0xb21fe4640cbdc62e,
            0x86198d406a48ddf3,
            0x097e6b19413c7638,
        ],
    ),
    (
        "HACCmk",
        [
            0xcad1b65ac18ef54e,
            0x136c00f1e505d3a4,
            0xb46d20269ab80f3b,
            0x75b91cef5ddab1f2,
        ],
    ),
    (
        "KNN",
        [
            0x3f207e411c0d7eda,
            0x2f103fbf9795d75f,
            0xb3b10c426634de4f,
            0x1d9ca376ae1363db,
        ],
    ),
    (
        "Covariance",
        [
            0xdced69b257865665,
            0xf445d7b6fa836f00,
            0xf445d7b6fa836f00,
            0xf445d7b6fa836f00,
        ],
    ),
    (
        "MAMR",
        [
            0xd1a8650c9df83d03,
            0x01a62d8f0800601e,
            0x01a62d8f0800601e,
            0x01a62d8f0800601e,
        ],
    ),
    (
        "MAMR-Diag",
        [
            0xc8400c28d8b51821,
            0x49be0b42b1451434,
            0x49be0b42b1451434,
            0x49be0b42b1451434,
        ],
    ),
    (
        "MAMR-Ind",
        [
            0xbf5e6c86db33ca8b,
            0xa1854f4132735d21,
            0xa1854f4132735d21,
            0xa1854f4132735d21,
        ],
    ),
    (
        "Seidel-2D",
        [
            0xdfb53d15de01f840,
            0x738a93537514f636,
            0x738a93537514f636,
            0x738a93537514f636,
        ],
    ),
    (
        "Floyd-Warshall",
        [
            0x703cd3b1d2cba7e7,
            0x0d41b7188ca5b628,
            0x0d41b7188ca5b628,
            0x0d41b7188ca5b628,
        ],
    ),
];

/// The indirect MAMR kernel's UVE trace under stream-fault plan seed 7.
const GOLDEN_FAULTED: u64 = 0xd29c4b397e1f07c9;

#[test]
fn trace_content_is_pinned_for_every_kernel_and_flavor() {
    let suite = small_suite();
    assert_eq!(suite.len(), GOLDEN.len());
    let mut drift = Vec::new();
    for (bench, (name, pins)) in suite.iter().zip(&GOLDEN) {
        assert_eq!(bench.name(), *name, "small_suite order changed");
        for (flavor, &want) in Flavor::all().into_iter().zip(pins) {
            let got = trace_digest(&record(bench.as_ref(), flavor, 0));
            if got != want {
                drift.push(format!(
                    "{name}/{flavor}: {got:#018x} != pinned {want:#018x}"
                ));
            }
        }
    }
    assert!(
        drift.is_empty(),
        "trace content drifted:\n{}",
        drift.join("\n")
    );
}

#[test]
fn faulted_trace_content_is_pinned() {
    let bench = uve::kernels::mamr::Mamr::indirect(48);
    let t = record(&bench, Flavor::Uve, 7);
    assert!(
        t.ops.iter().any(|op| op.stream_faults > 0),
        "the plan must fault at least once"
    );
    let got = trace_digest(&t);
    assert_eq!(
        got, GOLDEN_FAULTED,
        "{got:#018x} != pinned {GOLDEN_FAULTED:#018x}"
    );
}

/// Prints the current digests in `GOLDEN`'s layout (run with
/// `--ignored --nocapture` to regenerate the pins after a deliberate
/// change of recorded behaviour).
#[test]
#[ignore = "prints the pin table"]
fn print_golden_table() {
    for bench in small_suite() {
        let d: Vec<String> = Flavor::all()
            .into_iter()
            .map(|f| format!("{:#018x}", trace_digest(&record(bench.as_ref(), f, 0))))
            .collect();
        println!("    (\"{}\", [{}]),", bench.name(), d.join(", "));
    }
    let bench = uve::kernels::mamr::Mamr::indirect(48);
    println!(
        "const GOLDEN_FAULTED: u64 = {:#018x};",
        trace_digest(&record(&bench, Flavor::Uve, 7))
    );
}
