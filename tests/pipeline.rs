//! End-to-end pipeline tests: source → profile → report → advisor →
//! schedule simulation, including failure paths and cross-run determinism.

mod common;

use alchemist::prelude::*;
use alchemist_parsim::TaskId;
use common::{gen_program, GenConfig};

#[test]
fn full_pipeline_on_a_pipeline_shaped_program() {
    // Producer/consumer stages over disjoint buffers: stage() instances
    // are spawnable; the final reduce constrains the join.
    let src = "
        int staged[128];
        int total;
        void stage(int s) {
            int i;
            int acc = 0;
            for (i = 0; i < 32; i++) acc = (acc * 17 + s + i) & 65535;
            staged[s] = acc;
        }
        int main() {
            int s;
            for (s = 0; s < 16; s++) stage(s);
            for (s = 0; s < 16; s++) total += staged[s];
            return total;
        }";
    let outcome = profile_source(src, vec![]).expect("runs");
    let report = outcome.report();

    // 1. The advisor finds stage(). Like gzip's final flush_block, the
    //    LAST stage call conflicts with the reduce that follows right
    //    after it, so one violating RAW edge is expected ("few violating",
    //    as the paper puts it).
    let candidates = suggest_candidates(&report, &outcome.module, 0.02, 2);
    let stage = candidates
        .iter()
        .find(|c| c.label == "Method stage")
        .expect("stage suggested");

    // 2. Simulation: near-linear on 4 threads (independent tasks, the
    //    consuming loop joins each producer long after it finished).
    let trace = extract_tasks(
        &outcome.module,
        &ExecConfig::default(),
        stage.extract_config(),
    )
    .expect("runs");
    assert_eq!(trace.tasks.len(), 16);
    let sim4 = simulate(&trace, &SimConfig::with_threads(4));
    let sim1 = simulate(&trace, &SimConfig::with_threads(1));
    assert!(sim4.speedup > 2.0, "4 threads: {:.2}", sim4.speedup);
    assert!(sim1.speedup <= 1.01, "1 thread cannot speed up");
    assert!(sim4.speedup > sim1.speedup);

    // 3. The reduce loop joins producers.
    assert!(
        trace.main_joins.iter().any(|&(_, t)| t == TaskId(0)),
        "the total += staged[0] read joins task 0: {:?}",
        trace.main_joins
    );
}

#[test]
fn thread_scaling_is_monotone() {
    let w = alchemist::workloads::by_name("ogg").unwrap();
    let m = w.module();
    let spec = w.parallel.as_ref().unwrap();
    let mut cfg = ExtractConfig::default();
    for head in w.resolve_targets(&m) {
        cfg = cfg.mark(head);
    }
    for v in spec.privatized {
        cfg = cfg.privatize(v);
    }
    let trace = extract_tasks(&m, &w.exec_config(Scale::Tiny), cfg).expect("runs");
    let mut last = 0.0;
    for threads in [1, 2, 4, 8] {
        let s = simulate(&trace, &SimConfig::with_threads(threads)).speedup;
        assert!(
            s + 1e-9 >= last,
            "speedup degraded from {last:.2} to {s:.2} at {threads} threads"
        );
        last = s;
    }
}

#[test]
fn profile_reports_are_deterministic() {
    let src = gen_program(0xfeed_beef, GenConfig::default());
    let a = profile_source(&src, vec![]).expect("runs");
    let b = profile_source(&src, vec![]).expect("runs");
    assert_eq!(a.report().render(20), b.report().render(20));
    assert_eq!(a.exec, b.exec);
}

#[test]
fn compile_errors_surface_with_location() {
    let err = profile_source("int main() { return 1 + ; }", vec![]).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("parse error"), "{msg}");
    assert!(msg.contains("1:"), "location missing: {msg}");
}

#[test]
fn runtime_traps_surface_with_location() {
    let err = profile_source("int a[3];\nint main() {\n    return a[9];\n}", vec![]).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("out of bounds"), "{msg}");
    assert!(msg.contains("3:"), "trap line missing: {msg}");
}

#[test]
fn generated_programs_profile_without_panicking() {
    for seed in 0..40u64 {
        let src = gen_program(seed * 31 + 5, GenConfig::default());
        let outcome = profile_source(&src, vec![]).expect("generated programs run");
        let report = outcome.report();
        // Render exercises every formatting path.
        let text = report.render(10);
        assert!(text.contains("Method main"));
        // Sanity: sizes normalized, main is the root.
        let main = report.find("Method main").unwrap();
        assert!((main.norm_size - 1.0).abs() < 1e-9);
        // Advisor never panics either.
        let _ = suggest_candidates(&report, &outcome.module, 0.01, 10);
    }
}

#[test]
fn respecting_war_waw_serializes_harder() {
    // A WAR/WAW-laden worker: honoring those conflicts must not be faster
    // than the privatized schedule.
    let src = "
        int scratch[32];
        int out[16];
        void work(int r) {
            int i;
            for (i = 0; i < 32; i++) scratch[i] = r * i;
            int acc = 0;
            for (i = 0; i < 32; i++) acc += scratch[i];
            out[r] = acc;
        }
        int main() {
            int r;
            for (r = 0; r < 16; r++) work(r);
            return out[15];
        }";
    let module = compile_source(src).expect("compiles");
    let head = module.func_by_name("work").unwrap().1.entry;
    let strict = ExtractConfig {
        respect_war_waw: true,
        ..ExtractConfig::default()
    }
    .mark(head);
    let relaxed = ExtractConfig::default().mark(head).privatize("scratch");
    let exec = ExecConfig::default();
    let s_strict = simulate(
        &extract_tasks(&module, &exec, strict).unwrap(),
        &SimConfig::with_threads(4),
    );
    let s_relaxed = simulate(
        &extract_tasks(&module, &exec, relaxed).unwrap(),
        &SimConfig::with_threads(4),
    );
    assert!(
        s_relaxed.speedup >= s_strict.speedup,
        "privatized {:.2} must beat strict {:.2}",
        s_relaxed.speedup,
        s_strict.speedup
    );
    assert!(s_relaxed.speedup > 2.0, "got {:.2}", s_relaxed.speedup);
}

#[test]
fn profile_outcome_exposes_pool_and_depth() {
    let outcome = profile_source(
        "int g; int main() { int i; for (i = 0; i < 64; i++) g += i; return g; }",
        vec![],
    )
    .unwrap();
    assert!(outcome.max_depth >= 2, "main + loop iteration open at once");
    assert!(outcome.pool_stats.allocated > 0);
    assert_eq!(outcome.pool_stats.overflow_growths, 0);
}
