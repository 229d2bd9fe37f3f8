//! Locating atomic blocks: every `.critical(...)` / `.critical_with(...)`
//! call site — and every `tx(..)` request-builder terminal
//! (`.tx(..).run(|ctx| ..)`, `.tx(..).deadline(..).try_run_async(|ctx| ..)`)
//! — with its closure body flattened for rule scanning.
//!
//! Call sites are recognized by shape — a `.` followed by one of the
//! critical-section method names followed by a parenthesized argument
//! group. Definitions (`pub fn critical<'a, R>(...)`) never match because
//! they are not preceded by `.`. Builder terminals only count when the
//! method chain walks back through `deadline` links to a
//! `.tx(..)` origin, so an unrelated `.run(..)` (criterion, builders)
//! never matches. The search descends into *every* group, so call sites
//! inside `macro_rules!` bodies, nested modules, closures and test
//! functions are all found; nested `critical`/`tx` calls surface both as
//! their own site and as an R2 finding in the enclosing body.

use crate::lexer::{Delim, Span, TokKind};
use crate::tree::{Group, Tree};

/// Method names that open an atomic block (legacy direct surface).
pub const CRITICAL_METHODS: [&str; 3] = ["critical", "critical_with", "critical_hinted"];

/// Terminal methods of the `tx(..)` request builder; each consumes the
/// request and takes the atomic-block closure as its argument.
pub const TX_TERMINALS: [&str; 4] = ["run", "try_run", "run_async", "try_run_async"];

/// Non-terminal links of the request-builder chain (`tx(..)` itself is the
/// origin).
const TX_CHAIN: [&str; 1] = ["deadline"];

/// A flattened token inside a closure body. Group boundaries are kept as
/// `Open`/`Close` entries so rules can reason about argument lists.
#[derive(Debug, Clone)]
pub struct Flat {
    pub kind: TokKind,
    pub span: Span,
    /// True when the token sits inside the argument group of a
    /// `.defer(...)` call: deferred actions run post-commit/post-unlock,
    /// outside the abortable attempt, so the transaction-safety rules do
    /// not apply to them (the paper's §VI logging-under-lock mechanism).
    pub in_defer: bool,
}

impl Flat {
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }

    /// The payload of a plain `"..."` string literal (same contract as
    /// [`crate::lexer::Tok::str_payload`]).
    pub fn str_payload(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Literal(raw) => raw
                .strip_prefix('"')
                .and_then(|r| r.strip_suffix('"'))
                .filter(|r| !r.contains('\\')),
            _ => None,
        }
    }
}

/// One located atomic block.
#[derive(Debug)]
pub struct Site {
    /// `critical`, `critical_with`, `critical_hinted`, or a builder
    /// terminal (`run`, `try_run`, `run_async`, `try_run_async`).
    pub method: String,
    /// Span of the method-name token.
    pub span: Span,
    /// The closure's context parameter name (`ctx` in `|ctx| ...`), when
    /// the closure binds one.
    pub ctx: Option<String>,
    /// The closure body, flattened.
    pub body: Vec<Flat>,
    /// The lock-argument expression, flattened: the first argument of
    /// `critical(..)` / the argument of the `.tx(..)` origin. The
    /// lock-order analysis resolves this to an `ElidableMutex` name key.
    pub lock: Vec<Flat>,
}

/// Find every critical-section call site in the forest.
pub fn find_sites(trees: &[Tree]) -> Vec<Site> {
    let mut out = Vec::new();
    walk(trees, &mut out);
    out
}

fn walk(kids: &[Tree], out: &mut Vec<Site>) {
    for (i, t) in kids.iter().enumerate() {
        if let Tree::Group(g) = t {
            if g.delim == Delim::Paren && i >= 2 && kids[i - 2].is_punct('.') {
                if let Some(m) = kids[i - 1].ident() {
                    if CRITICAL_METHODS.contains(&m) {
                        out.push(extract_site(m, kids[i - 1].span(), g, Some(g)));
                    } else if TX_TERMINALS.contains(&m) {
                        if let Some(origin) = tx_origin(kids, i) {
                            out.push(extract_site(m, kids[i - 1].span(), g, Some(origin)));
                        }
                    }
                }
            }
            walk(&g.kids, out);
        }
    }
}

/// Does the method chain ending in the group at `idx` originate in a
/// `.tx(..)` call? Walks back through `[.., '.', name, (args)]` links:
/// `th.tx(&l).deadline(d).run(..)` → `run`'s group at `idx`, preceding link
/// group at `idx - 3` named `deadline`, preceding link named `tx` — matched,
/// returning the `tx` argument group (which names the lock).
fn tx_origin(kids: &[Tree], idx: usize) -> Option<&Group> {
    let mut group = idx.checked_sub(3);
    while let Some(g) = group {
        let Some(Tree::Group(gr)) = kids.get(g) else {
            return None;
        };
        if gr.delim != Delim::Paren {
            return None;
        }
        let named = g >= 2 && kids[g - 2].is_punct('.');
        match kids.get(g.wrapping_sub(1)).and_then(|t| t.ident()) {
            Some("tx") => return Some(gr),
            Some(link) if named && TX_CHAIN.contains(&link) => group = g.checked_sub(3),
            _ => return None,
        }
    }
    None
}

/// Pull the trailing closure out of a critical call's argument group.
/// `lock_group` is the group whose first argument names the lock (the call
/// group itself for `critical*`, the `.tx(..)` origin for builder
/// terminals).
fn extract_site(method: &str, span: Span, args: &Group, lock_group: Option<&Group>) -> Site {
    let kids = &args.kids;
    // The lock argument: everything in the lock group before its first
    // top-level comma (for `critical(&lock, ..)`) or the whole group (for
    // `.tx(&lock)`).
    let mut lock = Vec::new();
    if let Some(lg) = lock_group {
        let first_arg_end = lg
            .kids
            .iter()
            .position(|t| t.is_punct(','))
            .unwrap_or(lg.kids.len());
        flatten(&lg.kids[..first_arg_end], false, &mut lock);
    }
    // First top-level `|` opens the closure parameter list (the preceding
    // arguments — lock reference, hints — never contain a bare `|`).
    let Some(p0) = kids.iter().position(|t| t.is_punct('|')) else {
        // No closure literal (e.g. a function path was passed); nothing to
        // scan structurally.
        return Site {
            method: method.to_owned(),
            span,
            ctx: None,
            body: Vec::new(),
            lock,
        };
    };
    let (ctx, body_start) = if kids.get(p0 + 1).is_some_and(|t| t.is_punct('|')) {
        // `||` — parameterless closure.
        (None, p0 + 2)
    } else {
        let p1 = kids[p0 + 1..]
            .iter()
            .position(|t| t.is_punct('|'))
            .map(|off| p0 + 1 + off);
        match p1 {
            Some(p1) => {
                let ctx = kids[p0 + 1..p1]
                    .iter()
                    .find_map(|t| t.ident().map(str::to_owned));
                (ctx, p1 + 1)
            }
            None => (None, kids.len()),
        }
    };
    let mut body = Vec::new();
    flatten(&kids[body_start.min(kids.len())..], false, &mut body);
    Site {
        method: method.to_owned(),
        span,
        ctx,
        body,
        lock,
    }
}

/// Flatten arbitrary trees (e.g. a `fn` item body) into the linear scan
/// form the rules and the call-graph layer consume, with `.defer(...)`
/// argument ranges marked exactly as in atomic-block bodies.
pub fn flatten_trees(kids: &[Tree]) -> Vec<Flat> {
    let mut out = Vec::new();
    flatten(kids, false, &mut out);
    out
}

/// Flatten trees into the linear scan form, marking `.defer(...)` argument
/// ranges.
fn flatten(kids: &[Tree], in_defer: bool, out: &mut Vec<Flat>) {
    for (i, t) in kids.iter().enumerate() {
        match t {
            Tree::Leaf(tok) => out.push(Flat {
                kind: tok.kind.clone(),
                span: tok.span,
                in_defer,
            }),
            Tree::Group(g) => {
                let deferred = in_defer
                    || (g.delim == Delim::Paren
                        && i >= 2
                        && kids[i - 2].is_punct('.')
                        && kids[i - 1].ident() == Some("defer"));
                out.push(Flat {
                    kind: TokKind::Open(g.delim),
                    span: g.open,
                    in_defer,
                });
                flatten(&g.kids, deferred, out);
                out.push(Flat {
                    kind: TokKind::Close(g.delim),
                    span: g.close,
                    in_defer,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::tree::parse;

    fn sites(src: &str) -> Vec<Site> {
        find_sites(&parse(lex(src).unwrap().0).unwrap())
    }

    #[test]
    fn finds_simple_site_and_ctx_name() {
        let s = sites("fn f() { th.critical(&lock, |ctx| { ctx.read(&c) }); }");
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].method, "critical");
        assert_eq!(s[0].ctx.as_deref(), Some("ctx"));
        assert!(s[0].body.iter().any(|f| f.ident() == Some("read")));
    }

    #[test]
    fn definitions_are_not_sites() {
        let s = sites("pub fn critical(&self, body: F) -> R { run(body) }");
        assert!(s.is_empty());
    }

    #[test]
    fn critical_with_skips_hint_args() {
        let s = sites("th.critical_with(&lock, (2, 8), move |tx| { tx.write(&c, 1) });");
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].ctx.as_deref(), Some("tx"));
    }

    #[test]
    fn nested_sites_are_both_found() {
        let s = sites("th.critical(&a, |ctx| { th.critical(&b, |c2| { Ok(()) }) });");
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn defer_args_are_marked() {
        let s = sites("th.critical(&a, |ctx| { ctx.defer(move || println!(\"x\")); Ok(()) });");
        let println_tok = s[0]
            .body
            .iter()
            .find(|f| f.ident() == Some("println"))
            .expect("println token present");
        assert!(println_tok.in_defer);
        let defer_tok = s[0]
            .body
            .iter()
            .find(|f| f.ident() == Some("defer"))
            .expect("defer token present");
        assert!(!defer_tok.in_defer);
    }

    #[test]
    fn builder_terminal_is_a_site() {
        let s = sites("fn f() { th.tx(&lock).run(|ctx| { ctx.read(&c) }); }");
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].method, "run");
        assert_eq!(s[0].ctx.as_deref(), Some("ctx"));
        assert!(s[0].body.iter().any(|f| f.ident() == Some("read")));
    }

    #[test]
    fn builder_chain_links_are_followed() {
        let s = sites(
            "th.tx(&lock).deadline(Duration::from_micros(50)).try_run_async(move |tx| { \
             tx.write(&c, 1) });",
        );
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].method, "try_run_async");
        assert_eq!(s[0].ctx.as_deref(), Some("tx"));
    }

    #[test]
    fn unrelated_run_calls_are_not_sites() {
        let s = sites(
            "group.run(|b| b.iter(|| 1)); builder.deadline(d).run(f); c.bench(\"x\", |b| b.run());",
        );
        assert!(s.is_empty(), "{s:?}");
    }

    #[test]
    fn sites_record_their_lock_argument() {
        let s = sites("th.critical(&self.shard[i], |ctx| { Ok(()) });");
        let idents: Vec<_> = s[0].lock.iter().filter_map(|f| f.ident()).collect();
        assert_eq!(idents, vec!["self", "shard", "i"]);
        let s = sites("th.tx(&queue_lock).deadline(d).run(|ctx| { Ok(()) });");
        let idents: Vec<_> = s[0].lock.iter().filter_map(|f| f.ident()).collect();
        assert_eq!(idents, vec!["queue_lock"]);
    }

    #[test]
    fn macro_body_sites_are_found() {
        let s = sites(
            "macro_rules! m { ($th:ident, $l:expr) => { $th.critical($l, |ctx| { Ok(()) }) }; }",
        );
        assert_eq!(s.len(), 1);
    }
}
