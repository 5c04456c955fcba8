//! The `pumpkin` command-line session: directives in the spirit of the
//! paper's Coq commands (`Configure`, `Repair`, `Repair module`), driven
//! from script files. See `src/bin/pumpkin.rs` for the file format and
//! `examples/scripts/` for walkthroughs.

use std::path::PathBuf;

use pumpkin_core::trace::json::MAX_DEPTH;
use pumpkin_core::wire::LiftSpec;
use pumpkin_core::{LiftState, Lifting, RepairReport, Repairer};
use pumpkin_kernel::env::Env;
use pumpkin_kernel::name::GlobalName;

pub struct Session {
    /// The session environment.
    pub env: Env,
    lifting: Option<Lifting>,
    state: LiftState,
    trace_path: Option<PathBuf>,
    show_metrics: bool,
    /// Provenance trees from the most recent repair command, indexed by
    /// both old and new constant names (for `explain` / `script`).
    provenance: Vec<pumpkin_core::trace::prov::ConstProvenance>,
}

impl Session {
    /// A fresh session with an empty environment.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Session {
            env: Env::new(),
            lifting: None,
            state: LiftState::new(),
            trace_path: None,
            show_metrics: false,
            provenance: Vec::new(),
        }
    }

    /// Writes every repair command's event stream to `path` as JSON lines
    /// (`--trace out.jsonl`). Each repair command truncates and rewrites
    /// the file, so it holds the last run's trace; a command whose trace
    /// cannot be written fails.
    pub fn set_trace_path(&mut self, path: impl Into<PathBuf>) {
        self.trace_path = Some(path.into());
    }

    /// Prints the derived metrics registry after each repair command
    /// (`--metrics`).
    pub fn set_show_metrics(&mut self, on: bool) {
        self.show_metrics = on;
    }

    /// Runs the configured [`Repairer`] over `names` (or, with `None`, the
    /// environment-wide sweep), honoring the session's trace/metrics
    /// settings.
    fn run_repairer(&mut self, names: Option<&[&str]>) -> Result<RepairReport, String> {
        let lifting = self.lifting.as_ref().ok_or("no configuration active")?;
        let mut repairer = Repairer::new(lifting)
            .state(&mut self.state)
            .provenance(true);
        if self.show_metrics {
            repairer = repairer.trace(true);
        }
        if let Some(path) = &self.trace_path {
            let file = std::fs::File::create(path)
                .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
            repairer = repairer.sink(std::io::BufWriter::new(file));
        }
        let report = match names {
            Some(names) => repairer.run(&mut self.env, names),
            None => repairer.run_all(&mut self.env, &[]),
        }
        .map_err(|e| format!("{e}"))?;
        if let Some(path) = &self.trace_path {
            println!("trace written to {}", path.display());
        }
        if self.show_metrics {
            print!("{}", report.metrics().to_text());
        }
        // Accumulate provenance across commands so `explain` still works
        // after several `repair` invocations; newest run wins per constant.
        let fresh: Vec<_> = report.provenance.clone();
        self.provenance
            .retain(|p| !fresh.iter().any(|f| f.from == p.from));
        self.provenance.extend(fresh);
        Ok(report)
    }

    fn lifting(&self) -> Result<&Lifting, String> {
        self.lifting
            .as_ref()
            .ok_or_else(|| "no configuration active; run a configure-* command first".into())
    }

    /// Normalises a term and pretty-prints the result. Readback is bounded
    /// like the daemon's `eval`: a normal form nested deeper than
    /// [`MAX_DEPTH`] is an error and is never built, so neither readback
    /// nor the printer can overflow the stack.
    fn eval(&self, src: &str) -> Result<String, String> {
        let t = pumpkin_lang::term(&self.env, src).map_err(|e| e.to_string())?;
        let n = pumpkin_kernel::reduce::normalize_within(&self.env, &t, MAX_DEPTH)
            .ok_or_else(|| format!("the normal form nests deeper than {MAX_DEPTH} levels"))?;
        Ok(pumpkin_lang::pretty(&self.env, &n))
    }

    fn run(&mut self, cmd: &str, args: &[&str], body: Option<&str>) -> Result<(), String> {
        let fail = |e: &dyn std::fmt::Display| format!("{e}");
        match cmd {
            "load-std" => {
                self.env = pumpkin_stdlib::std_env();
                println!("loaded the standard library");
                Ok(())
            }
            "source" => {
                let src = body.ok_or("source requires a <<< … >>> block")?;
                pumpkin_lang::load_source(&mut self.env, src).map_err(|e| fail(&e))?;
                println!("loaded {} bytes of vernacular", src.len());
                Ok(())
            }
            "configure-swap" | "configure-factor" | "configure-records" | "configure-ornament"
            | "configure-bin" => {
                // `ornament` and `bin` fix both types; the others name them.
                let kind = &cmd["configure-".len()..];
                let (a, b, rename) = match (kind, args) {
                    ("ornament" | "bin", [rename]) => ("", "", rename),
                    ("swap" | "factor" | "records", [a, b, rename]) => (*a, *b, rename),
                    _ => {
                        let shape = match kind {
                            "ornament" | "bin" => "",
                            "records" => "Tuple Record ",
                            _ => "A B ",
                        };
                        return Err(format!("usage: {cmd} {shape}From.=To."));
                    }
                };
                let (from, to) = rename
                    .split_once('=')
                    .ok_or_else(|| format!("bad rename spec `{rename}` (expected From.=To.)"))?;
                let spec = LiftSpec {
                    kind: kind.into(),
                    a: a.into(),
                    b: b.into(),
                    rename: vec![(from.into(), to.into())],
                };
                let lifting = pumpkin_core::search::configure(&mut self.env, &spec)?;
                match (kind, &lifting.equivalence) {
                    ("swap", Some(eqv)) => println!(
                        "configured {a} ≃ {b}; equivalence {} / {} checked",
                        eqv.f, eqv.g
                    ),
                    ("factor", _) => println!("configured {a} ≃ {b} (factoring)"),
                    ("ornament", _) => println!("configured list ≃ Σ(n). vector n"),
                    ("bin", _) => println!("configured nat ≃ N (manual, propositional Iota)"),
                    _ => println!("configured {a} ≃ {b}"),
                }
                self.lifting = Some(lifting);
                self.state = LiftState::new();
                Ok(())
            }
            "repair" => {
                if args.is_empty() {
                    return Err("usage: repair NAME…".into());
                }
                let report = self.run_repairer(Some(args))?;
                for name in args {
                    match report.renamed(name) {
                        Some(to) => println!("repaired {name} ↦ {to}"),
                        None => println!("{name} already repaired"),
                    }
                }
                Ok(())
            }
            "repair-module" => {
                if args.is_empty() {
                    return Err("usage: repair-module NAME…".into());
                }
                let report = self.run_repairer(Some(args))?;
                for (from, to) in &report.repaired {
                    println!("repaired {from} ↦ {to}");
                }
                println!("schedule: {}", report.schedule);
                Ok(())
            }
            "repair-all" => {
                let report = self.run_repairer(None)?;
                for (from, to) in &report.repaired {
                    println!("repaired {from} ↦ {to}");
                }
                println!("{} constants repaired", report.repaired.len());
                Ok(())
            }
            "mappings" => {
                let [a, b] = args else {
                    return Err("usage: mappings A B".into());
                };
                let da = self
                    .env
                    .inductive(&GlobalName::new(*a))
                    .map_err(|e| fail(&e))?
                    .clone();
                let db = self
                    .env
                    .inductive(&GlobalName::new(*b))
                    .map_err(|e| fail(&e))?
                    .clone();
                let ms = pumpkin_core::search::swap::discover_mappings(&da, &db);
                println!("{} type-correct mapping(s):", ms.len());
                for (i, m) in ms.iter().enumerate().take(8) {
                    println!(
                        "  [{i}] {}",
                        pumpkin_core::search::swap::describe_mapping(&da, &db, m)
                    );
                }
                if ms.len() > 8 {
                    println!("  … and {} more", ms.len() - 8);
                }
                Ok(())
            }
            "print" => {
                let [name] = args else {
                    return Err("usage: print NAME".into());
                };
                let decl = self
                    .env
                    .const_decl(&GlobalName::new(*name))
                    .map_err(|e| fail(&e))?
                    .clone();
                println!("{name} : {}", pumpkin_lang::pretty(&self.env, &decl.ty));
                if let Some(b) = &decl.body {
                    println!("  := {}", pumpkin_lang::pretty(&self.env, b));
                }
                Ok(())
            }
            "explain" => {
                let [name] = args else {
                    return Err("usage: explain NAME".into());
                };
                let p = self
                    .provenance
                    .iter()
                    .find(|p| p.from == *name || p.to == *name)
                    .ok_or_else(|| {
                        format!("no provenance recorded for `{name}` (run a repair command first)")
                    })?;
                let explanation = pumpkin_lang::explain_decl(&self.env, p).ok_or_else(|| {
                    format!("`{}` or `{}` is not in the environment", p.from, p.to)
                })?;
                print!("{}", explanation.render());
                Ok(())
            }
            "script" => {
                let [name] = args else {
                    return Err("usage: script NAME".into());
                };
                let (goal, raw) = pumpkin_tactics::decompile_constant(&self.env, name)
                    .ok_or_else(|| format!("`{name}` has no body"))?;
                let script = pumpkin_tactics::second_pass(&raw);
                let prov = &self.provenance;
                let annotate = |t: &pumpkin_tactics::Tactic| -> Option<String> {
                    let mut notes: Vec<String> = Vec::new();
                    for c in t.constants() {
                        if let Some(p) = prov
                            .iter()
                            .find(|p| p.to == c.as_str() && !p.sites.is_empty())
                        {
                            let note = format!("{}: {}", p.to, p.citation());
                            if !notes.contains(&note) {
                                notes.push(note);
                            }
                        }
                    }
                    if notes.is_empty() {
                        None
                    } else {
                        Some(notes.join("; "))
                    }
                };
                println!("Proof.");
                for line in
                    pumpkin_tactics::render_annotated(&self.env, &[], &script, &annotate).lines()
                {
                    println!("  {line}");
                }
                match pumpkin_tactics::prove(&self.env, &goal, &script) {
                    Ok(_) => println!("Qed. (* script re-elaborates and checks *)"),
                    Err(e) => println!("Abort. (* suggested script needs massaging: {e} *)"),
                }
                Ok(())
            }
            "check-source-free" => {
                let [name] = args else {
                    return Err("usage: check-source-free NAME".into());
                };
                let lifting = self.lifting()?;
                pumpkin_core::repair::check_source_free(
                    &self.env,
                    lifting,
                    &GlobalName::new(*name),
                )
                .map_err(|e| fail(&e))?;
                println!("{name} is free of {}", lifting.a_name);
                Ok(())
            }
            "eval" => {
                if args.is_empty() {
                    return Err("usage: eval TERM".into());
                }
                println!("= {}", self.eval(&args.join(" "))?);
                Ok(())
            }
            other => Err(format!("unknown command `{other}`")),
        }
    }
}

/// Runs a script; returns the number of failed commands.
pub fn run_script(session: &mut Session, script: &str) -> usize {
    let mut failures = 0;
    let mut lines = script.lines().peekable();
    while let Some(line) = lines.next() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (head, body) = if let Some(stripped) = line.strip_suffix("<<<") {
            // Collect until a line that is exactly `>>>`.
            let mut buf = String::new();
            for b in lines.by_ref() {
                if b.trim() == ">>>" {
                    break;
                }
                buf.push_str(b);
                buf.push('\n');
            }
            (stripped.trim().to_string(), Some(buf))
        } else {
            (line.to_string(), None)
        };
        let mut parts = head.split_whitespace();
        let Some(cmd) = parts.next() else { continue };
        let args: Vec<&str> = parts.collect();
        if let Err(e) = session.run(cmd, &args, body.as_deref()) {
            eprintln!("error in `{head}`: {e}");
            failures += 1;
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swap_script_runs_clean() {
        let mut s = Session::new();
        let failures = run_script(
            &mut s,
            "load-std\n\
             configure-swap Old.list New.list Old.=New.\n\
             repair Old.rev_app_distr\n\
             check-source-free New.rev_app_distr\n\
             eval New.rev nat (New.nil nat)\n",
        );
        assert_eq!(failures, 0);
        assert!(s.env.contains("New.rev_app_distr"));
    }

    #[test]
    fn source_blocks_and_errors_are_reported() {
        let mut s = Session::new();
        let failures = run_script(
            &mut s,
            "load-std\n\
             source <<<\n\
             Definition two : nat := S (S O).\n\
             >>>\n\
             print two\n\
             repair does_not_exist\n",
        );
        // `repair` fails twice over: no configuration; counted once.
        assert_eq!(failures, 1);
        assert!(s.env.contains("two"));
    }

    #[test]
    fn eval_past_the_depth_bound_fails_the_command() {
        // 300 · 300: the normal form is a numeral 9·10⁴ levels deep. The
        // command fails, the process lives, and a shallow eval still works.
        let ten = format!("({}O{})", "S (".repeat(10), ")".repeat(10));
        let t300 = format!("(mul {ten} (mul {ten} (S (S (S O)))))");
        let mut s = Session::new();
        let script = format!("load-std\neval mul {t300} {t300}\n");
        assert_eq!(run_script(&mut s, &script), 1);
        assert_eq!(s.eval("add (S O) O").as_deref(), Ok("S O"));
        assert_eq!(run_script(&mut s, "eval add (S O) O\n"), 0);
    }

    #[test]
    fn unknown_command_is_an_error() {
        let mut s = Session::new();
        assert_eq!(run_script(&mut s, "frobnicate\n"), 1);
    }

    #[test]
    fn explain_works_after_repair_and_fails_before() {
        let mut s = Session::new();
        let failures = run_script(
            &mut s,
            "load-std\n\
             configure-swap Old.list New.list Old.=New.\n\
             repair Old.rev\n\
             explain Old.rev\n\
             explain New.rev\n\
             script New.rev\n",
        );
        assert_eq!(failures, 0);
        // Without a prior repair there is no provenance to cite.
        let mut s2 = Session::new();
        assert_eq!(run_script(&mut s2, "load-std\nexplain Old.rev\n"), 1);
    }
}
