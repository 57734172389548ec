//! The rule engine: the four lexical rules of the determinism & privacy
//! contract documented in `ARCHITECTURE.md` that types cannot see. D1–D3
//! and O1 ask which type or function code names, so clippy checks them
//! (`crates/clippy.toml`).
//!
//! Every rule reports [`Violation`]s with a `file:line` span and a rule
//! ID. An exemption is a marker comment on the line above the flagged
//! code, with a written reason of at least 10 characters:
//! `// lazydp-lint: allow(P1): <reason>`. A marker that suppresses
//! nothing is itself a violation, so exemptions cannot go stale.
//!
//! | ID | Invariant protected |
//! |----|---------------------|
//! | D4 | Fixed accumulation order: no float `.sum()`/`.fold(…)` outside `lazydp_tensor` |
//! | D5 | Memory safety: every crate root carries `#![forbid(unsafe_code)]` |
//! | P1 | DP hygiene: no printing or metric-recording of gradient-bearing values in non-test code |
//! | P2 | Owned noise: no `rand::`/entropy-seeded sampling outside `lazydp_rng` |

use crate::lexer::{lex, Token, TokenKind};

/// A rule's identity and documentation, surfaced by `lazydp-lint rules`.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable rule ID (`D4`, `D5`, `P1`, `P2`).
    pub id: &'static str,
    /// One-line description of what the rule flags.
    pub summary: &'static str,
    /// The contract invariant the rule protects.
    pub invariant: &'static str,
}

/// The rule table. IDs are stable: doc comments across the workspace
/// cite them, beside the clippy-enforced D1–D3 and O1.
pub const RULES: &[Rule] = &[
    Rule {
        id: "D4",
        summary: "no float .sum()/.fold(...) reductions outside lazydp_tensor",
        invariant: "determinism rule 3: float accumulation order is pinned by \
                    lazydp_tensor's primitives (vecops, dot_tree, gemm)",
    },
    Rule {
        id: "D5",
        summary: "every crate root carries #![forbid(unsafe_code)]",
        invariant: "the whole workspace is forbid-unsafe; keep it that way for \
                    every future crate",
    },
    Rule {
        id: "P1",
        summary: "no println!/eprintln!/dbg!/metric-record/span-name of \
                  gradient-bearing values in non-test code",
        invariant: "raw per-example gradients and norms must only leave the \
                    process through the clip->noise release path — never logs, \
                    never lazydp_obs metrics or span names, never \
                    lazydp_fault injection ordinals (a data-dependent failure \
                    schedule leaks through fault counters)",
    },
    Rule {
        id: "P2",
        summary: "no rand::-direct or entropy-seeded sampling outside lazydp_rng",
        invariant: "noise must come from the owned, replayable GaussianSampler \
                    / CounterRng streams",
    },
];

/// One reported rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable rule ID.
    pub rule: &'static str,
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// The trimmed source line the violation sits on.
    pub snippet: String,
    /// Human-readable explanation.
    pub message: String,
}

/// Token-index ranges (inclusive) that belong to `#[test]` functions or
/// `#[cfg(test)]` items. Rules other than D5 skip these.
fn test_regions(toks: &[Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !(toks[i].is_punct('#') && i + 1 < toks.len() && toks[i + 1].is_punct('[')) {
            i += 1;
            continue;
        }
        let attr_start = i;
        let (attr_end, is_test) = scan_attribute(toks, i + 1);
        if !is_test {
            i = attr_end + 1;
            continue;
        }
        // Skip any further attributes (e.g. #[should_panic] after
        // #[test]) and find the item body.
        let mut j = attr_end + 1;
        while j + 1 < toks.len() && toks[j].is_punct('#') && toks[j + 1].is_punct('[') {
            let (e, _) = scan_attribute(toks, j + 1);
            j = e + 1;
        }
        // The item runs to the first `;` at depth 0 or to the matching
        // `}` of its first depth-0 `{`.
        let mut depth = 0i32;
        let mut end = toks.len() - 1;
        while j < toks.len() {
            match toks[j].kind {
                TokenKind::Punct('{' | '(' | '[') => depth += 1,
                TokenKind::Punct('}' | ')' | ']') => {
                    depth -= 1;
                    if depth == 0 && toks[j].is_punct('}') {
                        end = j;
                        break;
                    }
                }
                TokenKind::Punct(';') if depth == 0 => {
                    end = j;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        regions.push((attr_start, end));
        i = end + 1;
    }
    regions
}

/// Scans an attribute starting at its `[` token index; returns the index
/// of the closing `]` and whether the attribute marks test code
/// (`#[test]`, `#[cfg(test)]`, `#[cfg(all(test, …))]` — but not
/// `#[cfg(not(test))]`).
fn scan_attribute(toks: &[Token], open: usize) -> (usize, bool) {
    let mut depth = 0i32;
    let mut has_test = false;
    let mut has_not = false;
    let mut j = open;
    while j < toks.len() {
        match &toks[j].kind {
            TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return (j, has_test && !has_not);
                }
            }
            TokenKind::Ident => {
                if toks[j].text == "test" {
                    has_test = true;
                } else if toks[j].text == "not" {
                    has_not = true;
                }
            }
            _ => {}
        }
        j += 1;
    }
    (toks.len() - 1, false)
}

/// Lints one file's source text. `rel_path` must be workspace-relative
/// with forward slashes (it drives the per-crate rule exemptions).
#[must_use]
pub fn check_source(rel_path: &str, source: &str) -> Vec<Violation> {
    let toks = lex(source);
    let regions = test_regions(&toks);
    let lines: Vec<&str> = source.lines().collect();
    let in_test = |ti: usize| regions.iter().any(|&(a, b)| ti >= a && ti <= b);
    let snippet = |line: u32| -> String {
        lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    };
    let mut out = Vec::new();
    let mut push = |rule: &'static str, t: &Token, message: String| {
        out.push(Violation {
            rule,
            path: rel_path.to_string(),
            line: t.line,
            col: t.col,
            snippet: snippet(t.line),
            message,
        });
    };

    let in_tensor = rel_path.starts_with("crates/tensor/");
    let in_rng = rel_path.starts_with("crates/rng/");

    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident || in_test(i) {
            continue;
        }
        let name = t.text.as_str();

        // D4: float reductions. Only calls count — `.sum(` or a
        // `.sum::<…>` turbofish — so a field named `sum` (e.g. a
        // histogram's running total) is not a reduction.
        let is_call = toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            || (i + 3 < toks.len()
                && toks[i + 1].is_punct(':')
                && toks[i + 2].is_punct(':')
                && toks[i + 3].is_punct('<'));
        if !in_tensor
            && (name == "sum" || name == "fold")
            && is_call
            && i >= 1
            && toks[i - 1].is_punct('.')
        {
            if let Some(ev) = float_reduction_evidence(&toks, i) {
                push(
                    "D4",
                    t,
                    format!(
                        "float `.{name}(…)` reduction outside lazydp_tensor \
                         ({ev}): route through lazydp_tensor's pinned \
                         accumulation primitives (vecops/dot_tree) so the \
                         accumulation order stays fixed, or exempt it \
                         with a justified marker"
                    ),
                );
            }
        }

        // P1: gradient-bearing debug output.
        if let Some(mac) = FORMAT_MACROS.iter().find(|m| **m == name) {
            if i + 1 < toks.len() && toks[i + 1].is_punct('!') {
                if *mac == "dbg" {
                    push(
                        "P1",
                        t,
                        "`dbg!` in non-test code: debug output must never \
                         ship; remove it"
                            .to_string(),
                    );
                } else if let Some(arg) = sensitive_macro_arg(&toks, i + 2) {
                    push(
                        "P1",
                        t,
                        format!(
                            "`{name}!` formats gradient-bearing value \
                             `{arg}` in non-test code: raw per-example \
                             gradients/norms must not leak into logs; only \
                             released (post clip->noise) values may be \
                             printed — exempt those with a justified marker"
                        ),
                    );
                }
            }
        }

        // P1 (obs extension): gradient-bearing values at metric-recording
        // call sites. Instrumentation is written fully qualified
        // (`lazydp_obs::metrics().trainer.steps.add(n)`), so the
        // `lazydp_obs` ident anchors the statement; any grad/norm ident
        // inside the recorded argument list is flagged exactly like a
        // format-macro argument.
        if (name == "add" || name == "record" || name == "set" || name == "set_f64")
            && i >= 1
            && toks[i - 1].is_punct('.')
            && statement_mentions(&toks, i, "lazydp_obs")
        {
            if let Some(arg) = sensitive_macro_arg(&toks, i + 1) {
                push(
                    "P1",
                    t,
                    format!(
                        "metric `.{name}(…)` records gradient-bearing value \
                         `{arg}` in non-test code: lazydp_obs metrics carry \
                         counts, bytes, durations, and ε only — never raw \
                         gradients or norms"
                    ),
                );
            }
        }

        // P1 (fault extension): fault-injection decisions. `point`,
        // `decide`, and `injected_io_error` take a (site, ordinal) pair
        // that must derive from operation counts only — an ordinal (or
        // plan rule) computed from a gradient-bearing value would make
        // the failure schedule data-dependent, leaking per-example
        // information through fault counters, retry timing, and which
        // operations fail. The call is anchored by a `lazydp_fault` ident
        // in the statement (mirroring the obs extension above) or by a
        // `Site::` path in its arguments — the spelling of a call on an
        // owner's `Faults` handle.
        if (name == "point" || name == "decide" || name == "injected_io_error")
            && (statement_mentions(&toks, i, "lazydp_fault") || args_name_site(&toks, i + 1))
        {
            if let Some(arg) = sensitive_macro_arg(&toks, i + 1) {
                push(
                    "P1",
                    t,
                    format!(
                        "fault-injection `{name}(…)` takes gradient-bearing \
                         value `{arg}` in non-test code: fault sites are keyed \
                         by (site, operation ordinal) only — a data-dependent \
                         failure schedule leaks per-example information \
                         through the fault counters"
                    ),
                );
            }
        }

        // P1 (obs extension): span names. The lexer drops string-literal
        // contents, so the raw source line is scanned for gradient
        // vocabulary alongside the ident scan of the macro arguments.
        if name == "span" && i + 1 < toks.len() && toks[i + 1].is_punct('!') {
            let line_text = lines
                .get(t.line as usize - 1)
                .map_or(String::new(), |l| l.to_lowercase());
            let bad_name = line_text.contains("grad") || line_text.contains("norm");
            if bad_name || sensitive_macro_arg(&toks, i + 2).is_some() {
                push(
                    "P1",
                    t,
                    "`span!` name or argument mentions a gradient-bearing \
                     value in non-test code: span names are exported to trace \
                     files and must carry phase labels only"
                        .to_string(),
                );
            }
        }

        // P2: foreign randomness.
        if !in_rng {
            if ENTROPY_IDENTS.contains(&name) {
                push(
                    "P2",
                    t,
                    format!(
                        "`{name}` outside lazydp_rng: noise must come from \
                         the owned, replayable GaussianSampler/CounterRng \
                         streams, never ambient entropy"
                    ),
                );
            } else if name == "rand"
                && i + 2 < toks.len()
                && toks[i + 1].is_punct(':')
                && toks[i + 2].is_punct(':')
            {
                push(
                    "P2",
                    t,
                    "direct `rand::` path outside lazydp_rng: sample through \
                     lazydp_rng's owned streams instead"
                        .to_string(),
                );
            }
        }
    }

    // D5: crate roots must forbid unsafe code (checked on the whole
    // token stream — attribute position does not matter lexically).
    if is_crate_root(rel_path) && !has_forbid_unsafe(&toks) {
        out.push(Violation {
            rule: "D5",
            path: rel_path.to_string(),
            line: 1,
            col: 1,
            snippet: snippet(1),
            message: "crate root is missing `#![forbid(unsafe_code)]`: every \
                      crate in the workspace forbids unsafe code"
                .to_string(),
        });
    }

    // Exemption markers: each drops its rule's violations on the next
    // line, and a marker that drops nothing is reported like a malformed
    // one, so a stale exemption fails the check.
    let mut marker_faults = Vec::new();
    for (idx, text) in lines.iter().enumerate() {
        let Some(rest) = text.trim_start().strip_prefix(MARKER) else {
            continue;
        };
        let line = idx as u32 + 1;
        let fault = match parse_marker(rest) {
            Err(message) => Some(message),
            Ok(rule) => {
                let before = out.len();
                out.retain(|v| !(v.rule == rule && v.line == line + 1));
                (out.len() == before).then(|| {
                    format!(
                        "`allow({rule})` marker suppresses nothing on the \
                         next line: delete it"
                    )
                })
            }
        };
        if let Some(message) = fault {
            marker_faults.push(Violation {
                rule: "marker",
                path: rel_path.to_string(),
                line,
                col: (text.len() - text.trim_start().len()) as u32 + 1,
                snippet: snippet(line),
                message,
            });
        }
    }
    out.extend(marker_faults);

    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out
}

/// The prefix of an exemption marker: a whole-line comment
/// `// lazydp-lint: allow(<rule>): <reason>` exempts the next line from
/// `<rule>`.
const MARKER: &str = "// lazydp-lint:";

/// Parses the text after [`MARKER`] into the rule it exempts. Errors
/// name what is wrong: the shape, an unknown rule, or a reason under
/// 10 characters.
fn parse_marker(rest: &str) -> Result<&'static str, String> {
    let (id, reason) = rest
        .trim_start()
        .strip_prefix("allow(")
        .and_then(|r| r.split_once("):"))
        .ok_or_else(|| format!("malformed marker: write `{MARKER} allow(<rule>): <reason>`"))?;
    let rule = RULES.iter().find(|r| r.id == id).ok_or_else(|| {
        format!(
            "marker names `{id}`, which lazydp-lint does not check \
                 (D1–D3 and O1 are clippy's: exempt with `#[expect]`)"
        )
    })?;
    if reason.trim().chars().count() < 10 {
        return Err(format!(
            "`allow({id})` marker needs a written reason of at least 10 \
             characters"
        ));
    }
    Ok(rule.id)
}

const FORMAT_MACROS: &[&str] = &[
    "println", "eprintln", "print", "eprint", "format", "write", "writeln", "dbg",
];

const ENTROPY_IDENTS: &[&str] = &[
    "thread_rng",
    "ThreadRng",
    "from_entropy",
    "from_os_rng",
    "OsRng",
    "StdRng",
    "SmallRng",
    "getrandom",
];

/// Whether `rel_path` is a crate root (`src/lib.rs` of the facade or of
/// any `crates/*` member).
fn is_crate_root(rel_path: &str) -> bool {
    rel_path == "src/lib.rs"
        || (rel_path.starts_with("crates/")
            && rel_path.ends_with("/src/lib.rs")
            && rel_path.matches('/').count() == 3)
}

fn has_forbid_unsafe(toks: &[Token]) -> bool {
    toks.windows(4).any(|w| {
        w[0].is_ident("forbid")
            && w[1].is_punct('(')
            && w[2].is_ident("unsafe_code")
            && w[3].is_punct(')')
    })
}

/// D4's float-evidence heuristic: a `.sum`/`.fold` call is flagged when
/// float-ness is lexically evident. Returns a short description of the
/// evidence, or `None` if the reduction looks integral/unknowable.
///
/// Evidence, in order:
/// 1. a `::<… f32/f64 …>` turbofish (an integral turbofish proves the
///    opposite and suppresses the heuristic entirely),
/// 2. a float literal or `f32`/`f64` identifier in the surrounding
///    statement (bounded window delimited by `;`/`{`/`}`).
///
/// The heuristic can miss reductions whose float-ness only shows in a
/// signature elsewhere (false negatives are acceptable; the rule is a
/// ratchet, not a proof), but it never needs type inference.
fn float_reduction_evidence(toks: &[Token], i: usize) -> Option<&'static str> {
    // Turbofish after `.sum`/`.fold`.
    if i + 3 < toks.len()
        && toks[i + 1].is_punct(':')
        && toks[i + 2].is_punct(':')
        && toks[i + 3].is_punct('<')
    {
        let mut j = i + 4;
        let mut depth = 1i32;
        let mut float = false;
        let mut integral = false;
        while j < toks.len() && depth > 0 {
            match &toks[j].kind {
                TokenKind::Punct('<') => depth += 1,
                TokenKind::Punct('>') => depth -= 1,
                TokenKind::Ident => match toks[j].text.as_str() {
                    "f32" | "f64" => float = true,
                    "u8" | "u16" | "u32" | "u64" | "u128" | "usize" | "i8" | "i16" | "i32"
                    | "i64" | "i128" | "isize" => integral = true,
                    _ => {}
                },
                _ => {}
            }
            j += 1;
        }
        if float {
            return Some("f32/f64 turbofish");
        }
        if integral {
            return None; // provably integral
        }
    }
    // Statement window scan.
    const WINDOW: usize = 64;
    let start = (0..i)
        .rev()
        .take(WINDOW)
        .find(|&j| matches!(toks[j].kind, TokenKind::Punct(';' | '{' | '}')))
        .map_or(i.saturating_sub(WINDOW), |j| j + 1);
    let end = (i..toks.len())
        .take(WINDOW)
        .find(|&j| matches!(toks[j].kind, TokenKind::Punct(';' | '{' | '}')))
        .unwrap_or((i + WINDOW).min(toks.len()));
    for t in &toks[start..end] {
        match &t.kind {
            TokenKind::Float => return Some("float literal in statement"),
            TokenKind::Ident if t.text == "f32" || t.text == "f64" => {
                return Some("f32/f64 in statement")
            }
            _ => {}
        }
    }
    None
}

/// Whether the statement containing token `i` mentions identifier
/// `ident` (backward scan to the statement start — `;`/`{`/`}` — with
/// the same bounded window as the D4 heuristic). Used to anchor the
/// P1 metric-site checks on fully-qualified `lazydp_obs` call sites.
fn statement_mentions(toks: &[Token], i: usize, ident: &str) -> bool {
    const WINDOW: usize = 64;
    let start = (0..i)
        .rev()
        .take(WINDOW)
        .find(|&j| matches!(toks[j].kind, TokenKind::Punct(';' | '{' | '}')))
        .map_or(i.saturating_sub(WINDOW), |j| j + 1);
    toks[start..i].iter().any(|t| t.is_ident(ident))
}

/// Whether the argument list opening at token `open_paren_idx` names a
/// fault site by path (`Site::…`).
fn args_name_site(toks: &[Token], open_paren_idx: usize) -> bool {
    if !toks.get(open_paren_idx).is_some_and(|t| t.is_punct('(')) {
        return false;
    }
    let mut depth = 0i32;
    for w in toks[open_paren_idx..].windows(3) {
        if w[0].is_punct('(') {
            depth += 1;
        } else if w[0].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return false;
            }
        } else if w[0].is_ident("Site") && w[1].is_punct(':') && w[2].is_punct(':') {
            return true;
        }
    }
    false
}

/// If the macro argument list opening at token `open_paren_idx` mentions
/// a gradient-bearing identifier, returns that identifier.
fn sensitive_macro_arg(toks: &[Token], open_paren_idx: usize) -> Option<String> {
    let open = toks.get(open_paren_idx)?;
    let close = match open.kind {
        TokenKind::Punct('(') => ')',
        TokenKind::Punct('[') => ']',
        TokenKind::Punct('{') => '}',
        _ => return None,
    };
    let open_c = match open.kind {
        TokenKind::Punct(c) => c,
        _ => unreachable!(),
    };
    let mut depth = 0i32;
    for t in &toks[open_paren_idx..] {
        match t.kind {
            TokenKind::Punct(c) if c == open_c => depth += 1,
            TokenKind::Punct(c) if c == close => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            TokenKind::Ident => {
                let lower = t.text.to_lowercase();
                if t.text == "SparseGrad" || lower.contains("grad") || lower.contains("norm") {
                    return Some(t.text.clone());
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_region_detection_skips_cfg_test_mods() {
        let src = "fn real() { let x = rand::random::<u64>(); }\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { let y = rand::random::<u8>(); }\n}\n";
        let v = check_source("crates/model/src/fake.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "P2");
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn cfg_not_test_is_not_test_code() {
        let src = "#[cfg(not(test))]\nfn real() { let x = rand::random::<u64>(); }\n";
        let v = check_source("crates/model/src/fake.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn rule_table_ids_are_unique() {
        let mut ids: Vec<_> = RULES.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), RULES.len());
    }
}
