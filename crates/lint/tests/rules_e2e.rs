//! End-to-end rule checks through [`rll_lint::lint_source`]: for every rule,
//! at least one true positive and one pragma-suppressed case, plus the
//! negatives that keep the scanners honest (comments, strings, test blocks).

use rll_lint::{lint_source, Config, LintReport};

/// Lints `source` as an in-scope library file under the default scoping.
fn lint(source: &str) -> LintReport {
    lint_source("crates/demo/src/lib.rs", source, &Config::default_scoping())
}

fn rules_hit(report: &LintReport) -> Vec<&str> {
    report.violations.iter().map(|v| v.rule.as_str()).collect()
}

// ── no-panic-lib ────────────────────────────────────────────────────────────

#[test]
fn panic_lib_true_positives() {
    let report = lint(
        "pub fn f(x: Option<u8>) -> u8 {\n\
         \x20   let a = x.unwrap();\n\
         \x20   let b = x.expect(\"present\");\n\
         \x20   if a > b { panic!(\"bad\") }\n\
         \x20   todo!()\n\
         }\n\
         pub fn g() { unimplemented!() }\n",
    );
    let hits = rules_hit(&report);
    assert_eq!(hits.len(), 5, "violations: {:?}", report.violations);
    assert!(hits.iter().all(|r| *r == "no-panic-lib"));
    // Locations are 1-based and point at the offending token.
    assert_eq!(report.violations[0].line, 2);
    assert_eq!(report.violations[0].snippet, ".unwrap()");
}

#[test]
fn panic_lib_suppressed_with_justification() {
    let report = lint(
        "pub fn f(x: Option<u8>) -> u8 {\n\
         \x20   // lint: allow(no-panic-lib) — x is Some by construction\n\
         \x20   x.unwrap()\n\
         }\n",
    );
    assert!(report.is_clean(), "violations: {:?}", report.violations);
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.suppressed[0].rule, "no-panic-lib");
    assert_eq!(
        report.suppressed[0].justification,
        "x is Some by construction"
    );
}

#[test]
fn unwrap_in_identifier_is_not_flagged() {
    // `.unwrap_or(…)` and an fn named `unwrap_all` are fine; only the exact
    // `.unwrap()` call panics.
    let report = lint("pub fn unwrap_all(x: Option<u8>) -> u8 { x.unwrap_or(0) }\n");
    assert!(report.is_clean(), "violations: {:?}", report.violations);
}

// ── no-float-eq ─────────────────────────────────────────────────────────────

#[test]
fn float_eq_true_positives() {
    let report = lint(
        "pub fn f(x: f64) -> bool { x == 0.0 }\n\
         pub fn g(x: f64) -> bool { 1.5e-3 != x }\n",
    );
    let hits = rules_hit(&report);
    assert_eq!(hits, vec!["no-float-eq", "no-float-eq"]);
}

#[test]
fn float_eq_suppressed() {
    let report = lint(
        "pub fn f(x: f64) -> bool {\n\
         \x20   // lint: allow(no-float-eq) — exact sentinel written by us\n\
         \x20   x == -1.0\n\
         }\n",
    );
    assert!(report.is_clean(), "violations: {:?}", report.violations);
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.suppressed[0].rule, "no-float-eq");
}

#[test]
fn integer_and_variable_comparisons_are_fine() {
    let report = lint(
        "pub fn f(i: usize, a: f64, b: f64) -> bool { i == 0 && a.to_bits() == b.to_bits() }\n",
    );
    assert!(report.is_clean(), "violations: {:?}", report.violations);
}

// ── no-raw-stdout ───────────────────────────────────────────────────────────

#[test]
fn raw_stdout_true_positives() {
    let report = lint(
        "pub fn f(x: u8) {\n\
         \x20   println!(\"x = {x}\");\n\
         \x20   eprintln!(\"warn\");\n\
         \x20   dbg!(x);\n\
         }\n",
    );
    let hits = rules_hit(&report);
    assert_eq!(hits.len(), 3, "violations: {:?}", report.violations);
    assert!(hits.iter().all(|r| *r == "no-raw-stdout"));
}

#[test]
fn raw_stdout_suppressed() {
    let report = lint(
        "pub fn f() {\n\
         \x20   // lint: allow(no-raw-stdout) — CLI entry point, not library code\n\
         \x20   println!(\"usage: rll …\");\n\
         }\n",
    );
    assert!(report.is_clean(), "violations: {:?}", report.violations);
    assert_eq!(report.suppressed.len(), 1);
}

// ── no-wallclock ────────────────────────────────────────────────────────────

#[test]
fn wallclock_true_positives() {
    let report = lint(
        "use std::time::{Instant, SystemTime};\n\
         pub fn f() { let _t = Instant::now(); let _s = SystemTime::now(); }\n",
    );
    // Both the import line and the two uses fire.
    assert!(
        rules_hit(&report).iter().all(|r| *r == "no-wallclock"),
        "violations: {:?}",
        report.violations
    );
    assert!(report.violations.len() >= 2);
}

#[test]
fn wallclock_suppressed() {
    let report = lint(
        "pub fn f() {\n\
         \x20   // lint: allow(no-wallclock) — measures the sanctioned obs boundary\n\
         \x20   let _t = std::time::Instant::now();\n\
         }\n",
    );
    assert!(report.is_clean(), "violations: {:?}", report.violations);
    assert_eq!(report.suppressed.len(), 1);
}

// ── no-unseeded-rng ─────────────────────────────────────────────────────────

#[test]
fn unseeded_rng_true_positives() {
    let report = lint(
        "pub fn f() { let mut rng = rand::thread_rng(); }\n\
         pub fn g() { let r = StdRng::from_entropy(); let o = OsRng; }\n",
    );
    let hits = rules_hit(&report);
    assert_eq!(hits.len(), 3, "violations: {:?}", report.violations);
    assert!(hits.iter().all(|r| *r == "no-unseeded-rng"));
}

#[test]
fn unseeded_rng_suppressed() {
    let report = lint(
        "pub fn nonce() -> u64 {\n\
         \x20   // lint: allow(no-unseeded-rng) — nonce generation, not simulation\n\
         \x20   rand::thread_rng().gen()\n\
         }\n",
    );
    assert!(report.is_clean(), "violations: {:?}", report.violations);
    assert_eq!(report.suppressed.len(), 1);
}

// ── no-unordered-reduce ─────────────────────────────────────────────────────

#[test]
fn unordered_reduce_true_positives() {
    let report = lint(
        "pub fn reduce(total: &Mutex<f64>, parts: &Mutex<Vec<f64>>, x: f64) {\n\
         \x20   *total.lock() += x;\n\
         \x20   parts.lock().push(x);\n\
         }\n",
    );
    let hits = rules_hit(&report);
    assert_eq!(hits.len(), 2, "violations: {:?}", report.violations);
    assert!(hits.iter().all(|r| *r == "no-unordered-reduce"));
}

#[test]
fn libm_tanh_flagged_outside_tests_only() {
    let report = lint(
        "pub fn act(z: f64) -> f64 {\n\
         \x20   z.tanh()\n\
         }\n\
         #[cfg(test)]\n\
         mod tests {\n\
         \x20   fn reference(z: f64) -> f64 { z.tanh() }\n\
         }\n",
    );
    let hits = rules_hit(&report);
    assert_eq!(
        hits,
        vec!["no-unordered-reduce"],
        "violations: {:?}",
        report.violations
    );
    assert_eq!(report.violations[0].line, 2);
}

#[test]
fn read_only_lock_is_not_a_reduction() {
    let report = lint("pub fn peek(counts: &Mutex<Vec<u64>>) -> usize { counts.lock().len() }\n");
    assert!(report.is_clean(), "violations: {:?}", report.violations);
}

#[test]
fn unordered_reduce_suppressed() {
    let report = lint(
        "pub fn count(hits: &Mutex<u64>) {\n\
         \x20   // lint: allow(no-unordered-reduce) — integer counter, order-insensitive\n\
         \x20   *hits.lock() += 1;\n\
         }\n",
    );
    assert!(report.is_clean(), "violations: {:?}", report.violations);
    assert_eq!(report.suppressed.len(), 1);
}

// ── no-nonatomic-write ──────────────────────────────────────────────────────

#[test]
fn nonatomic_write_true_positives() {
    let report = lint(
        "pub fn save(path: &Path, bytes: &[u8]) -> io::Result<()> {\n\
         \x20   let mut f = File::create(path)?;\n\
         \x20   fs::write(path, bytes)\n\
         }\n",
    );
    let hits = rules_hit(&report);
    assert_eq!(hits.len(), 2, "violations: {:?}", report.violations);
    assert!(hits.iter().all(|r| *r == "no-nonatomic-write"));
}

#[test]
fn atomic_write_and_reads_are_clean() {
    let report = lint(
        "pub fn save(path: &Path, bytes: &[u8]) -> io::Result<()> {\n\
         \x20   atomic_write(path, bytes)\n\
         }\n\
         pub fn load(path: &Path) -> io::Result<String> {\n\
         \x20   fs::read_to_string(path)\n\
         }\n",
    );
    assert!(report.is_clean(), "violations: {:?}", report.violations);
}

#[test]
fn nonatomic_write_suppressed() {
    let report = lint(
        "pub fn mark(path: &Path) -> io::Result<()> {\n\
         \x20   // lint: allow(no-nonatomic-write) — ephemeral pid file, never trusted\n\
         \x20   fs::write(path, b\"1\")\n\
         }\n",
    );
    assert!(report.is_clean(), "violations: {:?}", report.violations);
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.suppressed[0].rule, "no-nonatomic-write");
}

// ── no-untimed-handler ──────────────────────────────────────────────────────

#[test]
fn untimed_handler_true_positive() {
    let report = lint(
        "fn handle_healthz(ctx: &Ctx) -> Response {\n\
         \x20   Response::ok()\n\
         }\n",
    );
    assert_eq!(rules_hit(&report), ["no-untimed-handler"]);
    assert_eq!(report.violations[0].snippet, "fn handle_healthz");
}

#[test]
fn instrumented_handler_is_clean() {
    let report = lint(
        "fn handle_embed(ctx: &Ctx) -> Response {\n\
         \x20   let _latency = ctx.handler_latency(\"embed\");\n\
         \x20   respond(ctx)\n\
         }\n",
    );
    assert!(report.is_clean(), "violations: {:?}", report.violations);
}

#[test]
fn untimed_handler_suppressed() {
    let report = lint(
        "// lint: allow(no-untimed-handler) — fuzz-only stub, never routed\n\
         fn handle_fuzz(ctx: &Ctx) -> Response {\n\
         \x20   Response::ok()\n\
         }\n",
    );
    assert!(report.is_clean(), "violations: {:?}", report.violations);
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.suppressed[0].rule, "no-untimed-handler");
}

// ── masking and scope interplay ─────────────────────────────────────────────

#[test]
fn tokens_in_comments_and_strings_do_not_fire() {
    let report = lint(
        "// this mentions .unwrap() and println! and Instant::now()\n\
         pub fn f() -> &'static str { \"x.unwrap() == 0.0 thread_rng()\" }\n",
    );
    assert!(report.is_clean(), "violations: {:?}", report.violations);
}

#[test]
fn cfg_test_blocks_are_exempt() {
    let report = lint(
        "pub fn lib() {}\n\
         #[cfg(test)]\n\
         mod tests {\n\
         \x20   #[test]\n\
         \x20   fn t() { Some(1).unwrap(); assert!(0.5 == 0.5); println!(\"ok\"); }\n\
         }\n",
    );
    assert!(report.is_clean(), "violations: {:?}", report.violations);
}

#[test]
fn out_of_scope_files_skip_rules_per_config() {
    let toml = "[files]\ninclude = [\"crates/*/src/**\"]\nexclude = []\n\
                [rules.no-raw-stdout]\nexclude = [\"crates/cli/**\"]\n";
    let config = Config::parse(toml).expect("config parses");
    let source = "pub fn f() { println!(\"hi\"); }\n";
    let exempt = lint_source("crates/cli/src/main.rs", source, &config);
    assert!(exempt.is_clean(), "violations: {:?}", exempt.violations);
    let flagged = lint_source("crates/core/src/lib.rs", source, &config);
    assert_eq!(flagged.violations.len(), 1);
}

// ── pragma meta-rules ───────────────────────────────────────────────────────

#[test]
fn pragma_without_justification_is_a_violation() {
    let report = lint(
        "pub fn f(x: Option<u8>) -> u8 {\n\
         \x20   // lint: allow(no-panic-lib)\n\
         \x20   x.unwrap()\n\
         }\n",
    );
    let hits = rules_hit(&report);
    assert!(
        hits.contains(&"suppression-needs-justification"),
        "violations: {:?}",
        report.violations
    );
    // The unjustified pragma does NOT suppress: the unwrap still fires.
    assert!(hits.contains(&"no-panic-lib"));
}

#[test]
fn pragma_with_unknown_rule_is_a_violation() {
    let report = lint(
        "pub fn f() {\n\
         \x20   // lint: allow(no-such-rule) — misspelled\n\
         \x20   let _ = 1;\n\
         }\n",
    );
    assert_eq!(rules_hit(&report), vec!["unknown-lint-rule"]);
}

#[test]
fn pragma_covers_through_comment_lines() {
    // A two-line justification comment between pragma and code still covers
    // the next code line.
    let report = lint(
        "pub fn f(x: Option<u8>) -> u8 {\n\
         \x20   // lint: allow(no-panic-lib) — invariant: x was checked by the\n\
         \x20   // caller, see the module docs for the full argument.\n\
         \x20   x.unwrap()\n\
         }\n",
    );
    assert!(report.is_clean(), "violations: {:?}", report.violations);
    assert_eq!(report.suppressed.len(), 1);
}

#[test]
fn pragma_on_same_line_covers_trailing_code() {
    let report = lint(
        "pub fn f(x: Option<u8>) -> u8 {\n\
         \x20   x.unwrap() // lint: allow(no-panic-lib) — checked above\n\
         }\n",
    );
    assert!(report.is_clean(), "violations: {:?}", report.violations);
    assert_eq!(report.suppressed.len(), 1);
}

#[test]
fn pragma_does_not_leak_past_its_code_line() {
    let report = lint(
        "pub fn f(x: Option<u8>) -> (u8, u8) {\n\
         \x20   // lint: allow(no-panic-lib) — first one is checked\n\
         \x20   let a = x.unwrap();\n\
         \x20   let b = x.unwrap();\n\
         \x20   (a, b)\n\
         }\n",
    );
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.violations.len(), 1, "second unwrap still fires");
    assert_eq!(report.violations[0].line, 4);
}

#[test]
fn one_pragma_can_allow_multiple_rules() {
    let report = lint(
        "pub fn f(x: Option<f64>) -> bool {\n\
         \x20   // lint: allow(no-float-eq, no-panic-lib) — sentinel check\n\
         \x20   x.unwrap() == 0.0\n\
         }\n",
    );
    assert!(report.is_clean(), "violations: {:?}", report.violations);
    assert_eq!(report.suppressed.len(), 2);
    let mut rules: Vec<&str> = report.suppressed.iter().map(|s| s.rule.as_str()).collect();
    rules.sort_unstable();
    assert_eq!(rules, vec!["no-float-eq", "no-panic-lib"]);
}
