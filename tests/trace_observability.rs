//! Observability contract tests: the JSON-lines wire schema (golden file),
//! trace determinism from run to run, and event round-tripping.
//!
//! Golden-file policy: timestamps (`t_ns`, `dur_ns`) are zeroed before
//! comparison, so the golden file pins the *event structure*
//! (kinds, payloads, order) without pinning wall-clock noise. Regenerate
//! with `PUMPKIN_UPDATE_GOLDEN=1 cargo test -p pumpkin-pi --test
//! trace_observability` after an intentional schema or pipeline change.

use std::path::PathBuf;

use pumpkin_pi::case_studies;
use pumpkin_pi::pumpkin_core::trace::{Event, EventKind};
use pumpkin_pi::pumpkin_core::{self, NameMap, Repairer};
use pumpkin_pi::pumpkin_stdlib as stdlib;

fn normalize(events: &[Event]) -> Vec<Event> {
    events
        .iter()
        .map(|e| Event {
            t_ns: 0,
            dur_ns: 0,
            kind: e.kind.clone(),
        })
        .collect()
}

fn normalized_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in normalize(events) {
        out.push_str(&e.to_json());
        out.push('\n');
    }
    out
}

fn traced_rev_repair() -> Vec<Event> {
    let mut env = stdlib::std_env();
    let lifting = pumpkin_core::search::swap::configure(
        &mut env,
        &"Old.list".into(),
        &"New.list".into(),
        NameMap::prefix("Old.", "New."),
    )
    .unwrap();
    let report = Repairer::new(&lifting)
        .trace(true)
        .run(&mut env, &["Old.rev"])
        .unwrap();
    report.trace
}

#[test]
fn golden_jsonl_schema_is_stable() {
    let got = normalized_jsonl(&traced_rev_repair());
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/trace_swap_rev.jsonl");
    if std::env::var_os("PUMPKIN_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write golden file");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); regenerate with PUMPKIN_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    if got != want {
        let diff_at = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "trace schema drifted from {} at line {} \
             (got {} lines, want {}); first differing line:\n  got:  {}\n  want: {}\n\
             regenerate with PUMPKIN_UPDATE_GOLDEN=1 if the change is intentional",
            path.display(),
            diff_at + 1,
            got.lines().count(),
            want.lines().count(),
            got.lines().nth(diff_at).unwrap_or("<eof>"),
            want.lines().nth(diff_at).unwrap_or("<eof>"),
        );
    }
}

#[test]
fn golden_auto_jsonl_schema_is_stable() {
    // The automatic search's candidate/verdict stream. Cache probing is
    // off so every candidate runs regardless of what other tests put in
    // the process-wide failure cache, and deterministic mode zeroes the
    // per-candidate costs — the stream is byte-stable by construction.
    let src = "Definition New.golden_auto : nat := O.\n\
               Definition Old.golden_auto : forall (T : Type 1), Old.list T -> Old.list T := \
               fun (T : Type 1) (l : Old.list T) => l.";
    let mut env = stdlib::std_env();
    let (auto, result) = Repairer::auto(pumpkin_core::AutoPolicy {
        use_failure_cache: false,
        minimize: false,
        deterministic: true,
        ..Default::default()
    })
    .source(src)
    .run(&mut env, &["Old.rev"]);
    assert!(result.is_err(), "collision module must exhaust");
    let got = normalized_jsonl(&auto.to_events());
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/trace_auto.jsonl");
    if std::env::var_os("PUMPKIN_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write golden file");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); regenerate with PUMPKIN_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        got,
        want,
        "auto trace schema drifted from {}; regenerate with PUMPKIN_UPDATE_GOLDEN=1 if intentional",
        path.display()
    );
}

#[test]
fn events_round_trip_through_json() {
    let events = traced_rev_repair();
    assert!(!events.is_empty());
    for e in &events {
        let line = e.to_json();
        assert_eq!(
            Event::from_json(&line).as_ref(),
            Some(e),
            "round-trip failed for: {line}"
        );
    }
}

#[test]
fn single_worker_trace_is_reproducible() {
    // Module repair runs on one thread with one cache, so the full event
    // stream — kernel probes included — must be identical modulo
    // timestamps from run to run.
    let mut env_a = stdlib::std_env();
    let mut env_b = stdlib::std_env();
    let a = case_studies::swap_list_module_traced(&mut env_a).unwrap();
    let b = case_studies::swap_list_module_traced(&mut env_b).unwrap();
    assert_eq!(normalize(&a.trace), normalize(&b.trace));
    assert_eq!(a.repaired, b.repaired);
}

#[test]
fn metrics_registry_matches_event_stream() {
    let mut env = stdlib::std_env();
    let report = case_studies::swap_list_module_traced(&mut env).unwrap();
    let m = report.metrics();
    let count = |pred: &dyn Fn(&EventKind) -> bool| {
        report.trace.iter().filter(|e| pred(&e.kind)).count() as u64
    };
    assert_eq!(m.counter("events.total"), report.trace.len() as u64);
    assert_eq!(
        m.counter("lift.constants"),
        count(&|k| matches!(k, EventKind::LiftConstant { .. }))
    );
    assert_eq!(
        m.counter("events.whnf"),
        count(&|k| matches!(k, EventKind::Whnf))
    );
    assert_eq!(
        m.histogram("lift.constant.ns").unwrap().count(),
        m.counter("lift.constants")
    );
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn check_golden(got: &str, path: &PathBuf) {
    if std::env::var_os("PUMPKIN_UPDATE_GOLDEN").is_some() {
        std::fs::write(path, got).expect("write golden file");
        return;
    }
    let want = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); regenerate with PUMPKIN_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        got,
        want,
        "output drifted from {}; regenerate with PUMPKIN_UPDATE_GOLDEN=1 if intentional",
        path.display()
    );
}

#[test]
fn trace_report_golden() {
    // A hand-crafted fixture of one sequential run with fixed timestamps,
    // so the rendered report is identical in debug and release builds.
    use pumpkin_pi::pumpkin_core::trace::report;
    let fixture = std::fs::read_to_string(golden_dir().join("trace_report_fixture.jsonl"))
        .expect("read fixture");
    assert!(report::lint(&fixture).is_empty(), "fixture must lint clean");
    let parsed = report::parse_lines(&fixture);
    assert!(parsed.errors.is_empty());
    let got = report::render(&parsed.events, 3);
    check_golden(&got, &golden_dir().join("trace_report_fixture.txt"));
}

#[test]
fn prov_events_appear_in_stream_and_reassemble() {
    use pumpkin_pi::pumpkin_core::trace::prov::ConstProvenance;
    let mut env = stdlib::std_env();
    let lifting = pumpkin_core::search::swap::configure(
        &mut env,
        &"Old.list".into(),
        &"New.list".into(),
        NameMap::prefix("Old.", "New."),
    )
    .unwrap();
    let report = Repairer::new(&lifting)
        .trace(true)
        .run(&mut env, &["Old.rev"])
        .unwrap();
    // Tracing defaults provenance on: the stream carries the prov family
    // and it reassembles to exactly the report's provenance trees.
    assert!(!report.provenance.is_empty());
    let from_stream = ConstProvenance::from_events(&report.trace);
    assert_eq!(from_stream, report.provenance);
    let rev = report
        .provenance_for("Old.rev")
        .expect("Old.rev provenance");
    assert_eq!(rev.to, "New.rev");
    assert!(!rev.sites.is_empty());
}

#[test]
fn provenance_is_zero_cost_when_off() {
    let mut env = stdlib::std_env();
    let lifting = pumpkin_core::search::swap::configure(
        &mut env,
        &"Old.list".into(),
        &"New.list".into(),
        NameMap::prefix("Old.", "New."),
    )
    .unwrap();
    // Explicitly disabled even though tracing is on: no prov events in the
    // stream, no provenance on the report, result unchanged.
    let report = Repairer::new(&lifting)
        .trace(true)
        .provenance(false)
        .run(&mut env, &["Old.rev"])
        .unwrap();
    assert!(report.provenance.is_empty());
    assert!(!report.trace.iter().any(|e| matches!(
        e.kind,
        EventKind::ProvConst { .. } | EventKind::ProvSite { .. }
    )));
    assert!(env.contains("New.rev"));
}

#[test]
fn explain_attributes_swap_module_rewrites() {
    // Acceptance criterion: `pumpkin explain` on the swap-list case study
    // attributes at least 95% of rewritten subterms to a named rule.
    let mut env = stdlib::std_env();
    let lifting = pumpkin_core::search::swap::configure(
        &mut env,
        &"Old.list".into(),
        &"New.list".into(),
        NameMap::prefix("Old.", "New."),
    )
    .unwrap();
    let report = Repairer::new(&lifting)
        .provenance(true)
        .run(&mut env, stdlib::swap::OLD_MODULE_CONSTANTS)
        .unwrap();
    assert!(!report.provenance.is_empty());
    let (mut total, mut attributed) = (0usize, 0usize);
    for p in &report.provenance {
        let e = pumpkin_pi::pumpkin_lang::explain_decl(&env, p)
            .unwrap_or_else(|| panic!("{} / {} not in env", p.from, p.to));
        assert!(
            !e.divergences.is_empty(),
            "{} was repaired but shows no diff",
            p.from
        );
        total += e.divergences.len();
        attributed += e.attributed();
    }
    assert!(total > 0);
    let coverage = attributed as f64 / total as f64;
    assert!(
        coverage >= 0.95,
        "explain attributed only {attributed}/{total} divergences ({:.1}%)",
        100.0 * coverage
    );
}

#[test]
fn lift_and_explain_give_let_and_eliminator_children_the_same_path() {
    // The lift records sites through `Term::try_map_children` and `explain`
    // pairs children through `Term::for_each_child`; both must number a
    // let's value and a structural eliminator's parameter alike. The let
    // value `Old.l0` and the `prod` parameter `Old.L` are repaired as
    // constants, so each site and its divergence sit at one path.
    let mut env = stdlib::std_env();
    let lifting = pumpkin_core::search::swap::configure(
        &mut env,
        &"Old.list".into(),
        &"New.list".into(),
        NameMap::prefix("Old.", "New."),
    )
    .unwrap();
    pumpkin_pi::pumpkin_lang::load_source(
        &mut env,
        "Definition Old.l0 : Old.list nat := Old.nil nat.
         Definition Old.L : Type 1 := Old.list nat.
         Definition Old.probe : nat :=
           let l : Old.L := Old.l0 in
           elim pair Old.L nat l O : prod Old.L nat
           return fun (p : prod Old.L nat) => nat
           with | fun (a : Old.L) (b : nat) => b end.",
    )
    .unwrap();
    let report = Repairer::new(&lifting)
        .provenance(true)
        .run(&mut env, &["Old.probe"])
        .unwrap();
    let p = report
        .provenance_for("Old.probe")
        .expect("Old.probe provenance");
    let e = pumpkin_pi::pumpkin_lang::explain_decl(&env, p).unwrap();
    // Body `1`; the let's value is its child `1`, and the eliminator (the
    // let body, child `2`) has the parameter `Old.L` as its child `0`.
    for (path, old, new) in [
        (&[1, 1][..], "Old.l0", "New.l0"),
        (&[1, 2, 0][..], "Old.L", "New.L"),
    ] {
        let site = p.sites.iter().find(|s| s.path == path);
        assert!(
            site.is_some_and(|s| s.src == old && s.dst == new),
            "lift site at {path:?}: {site:?}"
        );
        let divergence = e.divergences.iter().find(|d| d.path == path);
        assert!(
            divergence.is_some_and(|d| d.old == old && d.new == new && d.rule.is_some()),
            "explain divergence at {path:?}: {divergence:?}"
        );
    }
}

#[test]
fn source_not_free_error_rendering_golden() {
    // Pins the exact rendered form of the SourceNotFree diagnostic — both
    // the direct-mention shape and the through-a-dependency shape with its
    // residual subterm.
    let mut env = stdlib::std_env();
    let lifting = pumpkin_core::search::swap::configure(
        &mut env,
        &"Old.list".into(),
        &"New.list".into(),
        NameMap::prefix("Old.", "New."),
    )
    .unwrap();
    pumpkin_pi::pumpkin_lang::load_source(
        &mut env,
        "Definition inner : nat := Old.length nat (Old.nil nat).
         Definition outer : nat := inner.",
    )
    .unwrap();
    let direct = pumpkin_core::repair::check_source_free(&env, &lifting, &"Old.rev".into())
        .unwrap_err()
        .to_string();
    let through_dep = pumpkin_core::repair::check_source_free(&env, &lifting, &"outer".into())
        .unwrap_err()
        .to_string();
    let got = format!("{direct}\n{through_dep}\n");
    check_golden(&got, &golden_dir().join("source_not_free.txt"));
}
