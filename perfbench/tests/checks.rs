//! The benchmark's own tests: every workload at tiny sizes passes every
//! check, metric names are well formed and match `BENCHMARK.json`, the
//! traced replay equals `OoOCore::run_warm`, and traced layer
//! times fit inside the pass.

use std::collections::BTreeMap;

use uve_cpu::{CpuConfig, OoOCore};
use uve_kernels::{mamr::Mamr, saxpy::Saxpy, Benchmark, Flavor};
use uve_perfbench::layers::replay_traced;
use uve_perfbench::workload::{Size, Workload, WORKERS};
use uve_perfbench::{layer_self_seconds, run, Args, Report, END_TO_END, PER_LAYER};

fn tiny(workload: Workload, seed: u64, trace: bool) -> Report {
    let report = run(&Args {
        workload,
        seed,
        seconds: 0,
        trace,
        size: Size::Tiny,
    });
    assert!(
        report.correct && report.failed == 0,
        "{} trace={trace}:\n{}",
        workload.name(),
        report.notes.join("\n")
    );
    report
}

#[test]
fn every_workload_passes_every_check_at_tiny_sizes() {
    for workload in Workload::ALL {
        let plain = tiny(workload, 1, false);
        assert!(plain.attempted > 0);
        let names: Vec<&str> = plain.metrics.iter().map(|m| m.name).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names, want);
        for m in &plain.metrics {
            assert!(
                m.value > 0.0,
                "{} {} is {}",
                workload.name(),
                m.name,
                m.value
            );
        }

        // The traced pass reproduces the production pass, on two seeds.
        for seed in [1, 7] {
            let traced = tiny(workload, seed, true);
            assert_eq!(traced.metrics.len(), PER_LAYER.len());
            assert_eq!(
                Some(traced.deterministic),
                traced.traced_deterministic,
                "{}",
                workload.name()
            );
        }
    }
}

#[test]
fn seed_changes_order_but_not_results_of_figures() {
    let a = tiny(Workload::Figures, 1, false);
    let b = tiny(Workload::Figures, 2, false);
    assert_eq!(a.deterministic, b.deterministic);
}

#[test]
fn traced_layer_self_time_fits_in_the_pass() {
    for workload in Workload::ALL {
        let r = tiny(workload, 3, true);
        let layers: BTreeMap<&'static str, f64> =
            r.metrics.iter().map(|m| (m.name, m.value)).collect();
        let limit = WORKERS as f64 * r.traced_wall_s;
        assert!(limit > 0.0);
        for (layer, secs) in layer_self_seconds(&layers) {
            assert!(
                (0.0..=limit).contains(&secs),
                "{} {layer}: {secs} s outside 0..={limit} s",
                workload.name()
            );
        }
    }
}

#[test]
fn traced_replay_equals_run_warm() {
    let cpu = CpuConfig::default();
    let points: [(&dyn Benchmark, Flavor); 2] = [
        (&Mamr::indirect(16), Flavor::Uve),
        (&Saxpy::new(256), Flavor::Scalar),
    ];
    for (bench, flavor) in points {
        let cached = uve_bench::runner::emulate_trace(bench, flavor, uve_isa::MemLevel::L2);
        let (traced, profile) = replay_traced(&cpu, &cached.trace);
        assert_eq!(traced, OoOCore::new(cpu.clone()).run_warm(&cached.trace));
        assert!(profile.core.count + profile.stream.count > 0);
        if flavor == Flavor::Uve {
            assert!(profile.stream.count > 0, "UVE replay sends stream requests");
        }
    }
}

fn is_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// The `"name"` values of one section of `BENCHMARK.json`, in order.
fn names_in(section: &str) -> Vec<String> {
    section
        .split("\"name\"")
        .skip(1)
        .filter_map(|rest| rest.split('"').nth(1).map(str::to_string))
        .collect()
}

#[test]
fn metric_names_are_well_formed_and_declared() {
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(is_metric_name(name), "{name}");
        assert!(!unit.is_empty() && unit.len() <= 16, "{name}: {unit}");
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let e2e_at = text.find("\"end_to_end\"").expect("end_to_end section");
    let layer_at = text.find("\"per_layer\"").expect("per_layer section");
    assert!(e2e_at < layer_at, "end_to_end precedes per_layer");
    let want = |t: &[(&str, &str)]| t.iter().map(|m| m.0.to_string()).collect::<Vec<_>>();
    assert_eq!(names_in(&text[e2e_at..layer_at]), want(&END_TO_END));
    assert_eq!(names_in(&text[layer_at..]), want(&PER_LAYER));
    for name in names_in(&text[..e2e_at]) {
        assert!(Workload::parse(&name).is_some(), "unknown workload {name}");
    }
}

#[test]
fn command_line_is_strict() {
    let argv = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
    let ok = Args::parse(&argv("--workload smp --seed 4 --seconds 9 --trace 1")).expect("valid");
    assert_eq!(
        (ok.workload, ok.seed, ok.seconds, ok.trace),
        (Workload::Smp, 4, 9, true)
    );
    for bad in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload smp --seed x --seconds 1 --trace 0",
        "--workload smp --seed 1 --seconds 1 --trace 2",
        "--workload smp --seed 1 --seconds 1",
    ] {
        assert!(Args::parse(&argv(bad)).is_err(), "{bad}");
    }
}
