//! `edit_loop`: the `pumpkin watch` edit cycle, in process. One unit is
//! one seeded edit of a generated module followed by the calls `watch`
//! makes, in its order: `std_env` → `load_source` → `configure` →
//! `Repairer` with a persist cache and the previous digest snapshot →
//! `DigestMap::capture`.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

use pumpkin_pi::pumpkin_core::search::swap;
use pumpkin_pi::pumpkin_core::{DigestMap, LiftState, NameMap, RepairReport, Repairer};
use pumpkin_pi::pumpkin_kernel::env::Env;
use pumpkin_pi::pumpkin_lang;
use pumpkin_pi::pumpkin_stdlib as stdlib;
use pumpkin_pi::pumpkin_testkit::Rng;
use pumpkin_pi::pumpkin_wire::decl_digest;

use crate::gen::{self, Edits};
use crate::span::Spans;
use crate::{Args, Counters, Layers, Outcome};

type Res<T> = Result<T, String>;

/// The result of one watch cycle.
pub struct Cycle {
    env: Env,
    names: Vec<String>,
    report: RepairReport,
    snapshot: DigestMap,
}

fn configure(sp: &mut Spans, env: &mut Env) -> Res<pumpkin_pi::pumpkin_core::Lifting> {
    sp.span("core.search.configure", |_| {
        swap::configure(
            env,
            &"Old.list".into(),
            &"New.list".into(),
            NameMap::prefix("Old.", "New."),
        )
    })
    .map_err(|e| e.to_string())
}

/// One `watch` run over `src`: the timed unit. `cache` and `prev` make it
/// incremental; without them it is a cold from-scratch repair.
pub fn cycle(
    sp: &mut Spans,
    src: &str,
    cache: Option<&Path>,
    prev: Option<&DigestMap>,
) -> Res<Cycle> {
    let mut env = sp.span("stdlib.std_env", |_| stdlib::std_env());
    let baked: HashSet<String> = env
        .constants()
        .map(|d| d.name.as_str().to_string())
        .collect();
    sp.span("lang.load_source", |_| {
        pumpkin_lang::load_source(&mut env, src)
    })
    .map_err(|e| e.to_string())?;
    // The work list `watch` builds: the swap module, then whatever the
    // file defines under the source prefix.
    let mut names: Vec<String> = stdlib::swap::OLD_MODULE_CONSTANTS
        .iter()
        .map(|s| s.to_string())
        .collect();
    for d in env.constants() {
        let n = d.name.as_str();
        if n.starts_with("Old.") && !baked.contains(n) && !names.iter().any(|x| x == n) {
            names.push(n.to_string());
        }
    }
    let lifting = configure(sp, &mut env)?;
    let borrowed: Vec<&str> = names.iter().map(String::as_str).collect();
    let mut st = LiftState::new();
    let report = sp
        .span("core.repairer.run", |_| {
            let mut r = Repairer::new(&lifting).state(&mut st).jobs(1);
            if let Some(dir) = cache {
                r = r.persist_cache(dir);
            }
            if let Some(p) = prev {
                r = r.incremental(p);
            }
            r.run(&mut env, &borrowed)
        })
        .map_err(|e| e.to_string())?;
    let snapshot = sp.span("core.incr.capture", |_| DigestMap::capture(&env, &borrowed));
    Ok(Cycle {
        env,
        names,
        report,
        snapshot,
    })
}

/// The incremental result equals a cold from-scratch repair of the same
/// source: same name map, same declaration digests.
pub fn matches_cold(sp: &mut Spans, src: &str, inc: &Cycle) -> Res<()> {
    let cold = sp.span("check.cold_repair", |sp| cycle(sp, src, None, None))?;
    // Work lists come from `Env::constants`, whose order is a hash
    // map's: compare the name maps as sets.
    let sorted = |c: &Cycle| {
        let mut pairs = c.report.repaired.clone();
        pairs.sort();
        pairs
    };
    if sorted(&cold) != sorted(inc) {
        return Err("incremental name map differs from a cold repair".into());
    }
    for (_, to) in &inc.report.repaired {
        let a = inc.env.const_decl(to).map_err(|e| e.to_string())?;
        let b = cold.env.const_decl(to).map_err(|e| e.to_string())?;
        if decl_digest(a) != decl_digest(b) {
            return Err(format!(
                "{to}: incremental digest differs from a cold repair"
            ));
        }
    }
    Ok(())
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |rd| {
        rd.flatten()
            .map(|e| match e.file_type() {
                Ok(t) if t.is_dir() => dir_bytes(&e.path()),
                _ => e.metadata().map_or(0, |m| m.len()),
            })
            .sum()
    })
}

/// One in every `CHECK_EVERY` edits (seeded) is compared against a cold
/// repair.
const CHECK_EVERY: u64 = 8;

/// Runs the workload.
pub fn run(args: &Args, origin: Instant, sp: &mut Spans) -> Res<Outcome> {
    let root = args.out.join(format!("edit-cache-{}", std::process::id()));
    let result = run_in(args, origin, sp, &root);
    let _ = std::fs::remove_dir_all(&root);
    result
}

fn run_in(args: &Args, origin: Instant, sp: &mut Spans, root: &Path) -> Res<Outcome> {
    // Set-up: generate the module and repair it cold once, filling the
    // persist cache and taking the first snapshot, as `watch` does on
    // start.
    let ((mut module, prev, cache), setup_s) = crate::repeated_setup(origin, |rep| {
        let cache: PathBuf = root.join(format!("setup-{rep}"));
        let module = gen::module(args.seed, gen::MODULE_SIZE);
        let mut quiet = Spans::new(false, origin);
        let first = cycle(&mut quiet, &module.source(), Some(&cache), None)?;
        if first.names.len() != stdlib::swap::OLD_MODULE_CONSTANTS.len() + module.defs.len() {
            return Err(format!("work list has {} names", first.names.len()));
        }
        Ok((module, first.snapshot, cache))
    })?;
    let prev = std::cell::RefCell::new(prev);
    let mut edits = Edits::new(args.seed);
    let mut sample = Rng::new(gen::stream_seed(args.seed, 9, 0, 0));
    let mut counters = Counters::default();
    let lp = crate::timed_loop(
        args,
        crate::stats::samples_for(90.0),
        sp,
        |_| {
            let (kind, _) = edits.apply_next(&mut module);
            (kind, module.source())
        },
        |sp, (_, src)| cycle(sp, src, Some(&cache), Some(&prev.borrow())),
        |sp, (kind, src), c| {
            if sp.is_on() {
                counters.add(&c.report);
            }
            // The next edit diffs against this run, as in `watch`,
            // whatever the checks below find.
            *prev.borrow_mut() = c.snapshot.clone();
            let incr = c.report.incr.ok_or("incremental run reported no stats")?;
            if incr.changed != 1 {
                return Err(format!("{kind:?} edit changed {} constants", incr.changed));
            }
            if sample.chance(1, CHECK_EVERY) {
                matches_cold(sp, &src, &c)?;
            }
            Ok(())
        },
    );
    let metrics = if args.trace {
        let mut layers = Layers::new();
        counters.layers(lp.traced_ms.len(), &mut layers);
        layers.insert("core.persist.dir_bytes", dir_bytes(&cache) as f64);
        crate::span_layers(&mut layers, sp, &lp);
        crate::per_layer(&layers)
    } else {
        crate::end_to_end(&lp, 90.0, setup_s)?
    };
    Ok(Outcome {
        attempted: lp.attempted,
        failed: lp.failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::EditKind;

    fn scratch(tag: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Generated modules load and repair for many seeds, and every kind
    /// of edit replays incrementally to the cold result.
    #[test]
    fn generated_modules_repair_and_edits_match_cold() {
        let mut sp = Spans::new(false, Instant::now());
        for seed in 0..6 {
            let dir = scratch(&format!("edit{seed}"));
            let mut m = gen::module(seed, 40);
            let first = cycle(&mut sp, &m.source(), Some(&dir), None).expect("cold repair");
            assert_eq!(first.report.repaired.len(), first.names.len());
            let mut prev = first.snapshot;
            let mut edits = Edits::new(seed);
            let mut seen = HashSet::new();
            for _ in 0..12 {
                let (kind, _) = edits.apply_next(&mut m);
                seen.insert(kind as usize);
                let src = m.source();
                let c = cycle(&mut sp, &src, Some(&dir), Some(&prev)).expect("edit");
                assert_eq!(c.report.incr.expect("incr").changed, 1, "{kind:?}");
                matches_cold(&mut sp, &src, &c).expect("incremental equals cold");
                prev = c.snapshot;
            }
            assert!(seen.contains(&(EditKind::Leaf as usize)));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// A wrong digest counts as failed: comparing against the result of a
    /// different module is caught.
    #[test]
    fn injected_wrong_digest_fails_the_check() {
        let mut sp = Spans::new(false, Instant::now());
        let m = gen::module(3, 30);
        let mut edited = m.clone();
        let leaf = edited.leaves()[0];
        edited.defs[leaf].k = (edited.defs[leaf].k + 1) % 5;
        let c = cycle(&mut sp, &m.source(), None, None).expect("repair");
        assert!(matches_cold(&mut sp, &m.source(), &c).is_ok());
        assert!(matches_cold(&mut sp, &edited.source(), &c).is_err());
    }
}
