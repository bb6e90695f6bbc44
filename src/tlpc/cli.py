"""Command-line front end.

Each `cmd_*` function takes the parsed arguments, the program and the
parsed `--query` (None for commands without one) and returns its result
as (exit code, JSON document, text lines); it reads no file and prints
nothing.  `main` alone does I/O: it reads and parses the program and the
query, calls the command, and prints the document under `--json` or the
lines otherwise.

Exit codes: 0 when the requested analysis finds no violations, 1 when it
reports at least one, 2 when the input is rejected before analysis (file,
syntax, or typing errors), 3 when the analysis itself fails unexpectedly.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .core import EQ_CLAUSE_INDEX, GO_CLAUSE_INDEX, Program
from .parser import ParseError, parse_program, parse_query, render, render_types
from .reports import CheckReport, Finding
from .srcheck import (
    check_head_condition,
    check_semi_generic,
    label,
    make_partition,
    monitored_answers,
    search_partition,
    subject_reduction,
    type_skeleton_of,
    type_skeleton_to_json,
)
from .trees import (
    BOTTOM,
    enumerate_skeletons,
    height,
    is_proper_skeleton,
    nodes,
    skeleton_to_json,
    tp_fixpoint,
)
from .typecheck import UntypableError, most_general_type, require_typable


Result = tuple[int, dict, list[str]]


def _use_color() -> bool:
    env = os.environ.get("TLPC_COLOR")
    if env is not None:
        return env != "0"
    return sys.stdout.isatty()


def _verdict(text: str) -> str:
    if not _use_color():
        return text
    code = "32" if text == "pass" else "31"
    return f"\x1b[{code}m{text}\x1b[0m"


def _clause_ref(i: int | None) -> str | None:
    if i is None:
        return None
    if i == GO_CLAUSE_INDEX:
        return "query"
    if i == EQ_CLAUSE_INDEX:
        return "builtin ="
    return f"clause {i + 1}"


def _report_lines(title: str, rep: CheckReport) -> list[str]:
    bound = f" (up to depth {rep.depth_bound})" if rep.depth_bound is not None else ""
    lines = [f"{title}: {_verdict(rep.verdict)}{bound}"]
    for f in rep.findings:
        where = _clause_ref(f.clause)
        loc = f"{where}: " if where else ""
        lines.append(f"  {loc}{f.condition}: {f.witness}")
    return lines


def _tree_lines(node, text, depth: int) -> list[str]:
    """One line per node of a (type) skeleton in prefix order, indented by
    depth; `text` labels a clause node."""
    return [f"{'  ' * (depth + d)}{'_|_' if n is BOTTOM else text(n)}"
            for _, _, n, d in nodes(node)]


def _skeleton_text(node) -> str:
    return f"{render(node.clause)}   [{_clause_ref(node.clause_index)}]"


def _resolve_partition(program: Program, source: str | None):
    """The partition to check against and where it came from: explicit
    annotations win by default, otherwise an automatic search."""
    if source == "annotated" and not program.partitions:
        raise ValueError("the program has no partition annotations")
    if source != "auto" and program.partitions:
        return "annotated", make_partition(program, program.partitions)
    return "search", search_partition(program)


def cmd_check(args, program: Program, query) -> Result:
    doc: dict = {"file": args.file, "mode": args.mode}
    lines: list[str] = []
    reports: list[CheckReport] = []
    if args.mode in ("head", "both"):
        head = check_head_condition(program)
        reports.append(head)
        doc["head"] = head.to_json()
        lines += _report_lines("head condition", head)

    if args.mode in ("semi", "both"):
        source, part = _resolve_partition(program, args.partition)
        if part is None:
            semi = CheckReport((Finding(
                "semi-generic",
                "no head/body marking of the argument positions makes "
                "every clause semi-generic"),))
        else:
            semi = check_semi_generic(program, part)
            marks = "; ".join(f"{p}({', '.join(m)})" for p, m in part.by_pred.items())
            lines.append(f"partition ({source}): {marks if marks else 'none needed'}")
        reports.append(semi)
        doc["semi"] = semi.to_json()
        doc["partition"] = None if part is None else part.to_json()
        doc["partitionSource"] = source
        lines += _report_lines("semi-generic", semi)

    ok = all(r.passed for r in reports)
    doc["verdict"] = "pass" if ok else "fail"
    return (0 if ok else 1), doc, lines


def cmd_infer(args, program: Program, query) -> Result:
    entries, lines = [], []
    for i, c in enumerate(program.clauses):
        try:
            ct = most_general_type(c, program.signature)
            entry = {"clause": render(c), "types": render_types(ct.types),
                     "atomTypes": [render_types(v) for v in ct.atom_types]}
            lines.append(f"clause {i + 1}: {entry['types']}")
        except UntypableError as e:
            entry = {"clause": render(c), "untypable": str(e)}
            lines.append(f"clause {i + 1}: untypable: {e}")
        entries.append(entry)
        lines.append(f"  {entry['clause']}")
    ok = all("types" in e for e in entries)
    return (0 if ok else 1), {"file": args.file, "clauses": entries}, lines


def _certificate_json(cert) -> dict | None:
    """The `"certificate"` field of `sr` and `run`: the criterion, and the
    partition when it uses one; None when no certificate holds."""
    if cert is None:
        return None
    criterion, part = cert
    doc: dict = {"criterion": criterion}
    if part is not None:
        doc["partition"] = part.to_json()
    return doc


def cmd_run(args, program: Program, query) -> Result:
    # A certified run prints as a monitored one; --json names the criterion.
    monitor, cert, found = monitored_answers(program, query, args.depth, args.selection)
    rendered = [{v: render(t) for v, t in a.items()} for a in found]
    lines = []
    for r in rendered:
        pairs = sorted(r.items(), key=lambda kv: (kv[0].name, kv[0].idx))
        lines.append("answer: " + (", ".join(f"{v.printed()} = {t}" for v, t in pairs) or "true"))
    if not found:
        lines.append(f"no answers within {args.depth} steps")
    lines += _report_lines("derived queries typable", monitor)
    doc = {"file": args.file, "query": render(query),
           "answers": [{v.printed(): t for v, t in r.items()} for r in rendered],
           "monitor": monitor.to_json(), "certificate": _certificate_json(cert)}
    return (0 if monitor.passed else 1), doc, lines


def cmd_sr(args, program: Program, query) -> Result:
    rep, cert, found = subject_reduction(program, query, args.depth, args.bounded)
    # A certified pass prints as a bounded one; --json names the criterion.
    doc: dict = {"file": args.file, "query": render(query), "report": rep.to_json(),
                 "certificate": _certificate_json(cert), "counterexample": None}
    lines = _report_lines("all type skeletons proper", rep)
    if found is not None:
        s, ts, err = found
        equation = f"{render(err.left)} = {render(err.right)}"
        doc["counterexample"] = {"skeleton": skeleton_to_json(s),
                                 "typeSkeleton": type_skeleton_to_json(ts),
                                 "equation": equation}
        lines += ["counterexample skeleton:", *_tree_lines(s, _skeleton_text, 1),
                  "its type skeleton:", *_tree_lines(ts, label, 1),
                  f"failing type equation: {equation}"]
    return (0 if rep.passed else 1), doc, lines


def cmd_skeletons(args, program: Program, query) -> Result:
    require_typable(program, query)
    entries, lines = [], []
    for s in enumerate_skeletons(program, query, args.depth):
        theta = is_proper_skeleton(s)
        entry = {"height": height(s), "proper": theta is not None,
                 "mgu": render(theta) if theta is not None else None,
                 "skeleton": skeleton_to_json(s)}
        status = "proper" if theta is not None else "not proper"
        extra = f", mgu {entry['mgu']}" if theta else ""
        lines.append(f"skeleton {len(entries) + 1} (height {entry['height']}): {status}{extra}")
        lines += _tree_lines(s, _skeleton_text, 1)
        if args.types:
            ts = type_skeleton_of(s, program)
            proper = is_proper_skeleton(ts) is not None
            entry["typeSkeleton"] = type_skeleton_to_json(ts)
            entry["typeProper"] = proper
            lines.append(f"  type skeleton ({'proper' if proper else 'not proper'}):")
            lines += _tree_lines(ts, label, 2)
        entries.append(entry)
    lines.append(f"{len(entries)} skeleton(s) up to depth {args.depth}")
    return 0, {"file": args.file, "query": render(query),
               "depth": args.depth, "skeletons": entries}, lines


def cmd_tp(args, program: Program, query) -> Result:
    atoms = sorted(render(a) for a in tp_fixpoint(program, args.depth).atoms)
    return 0, {"depth": args.depth, "atoms": atoms}, [
        *atoms, f"{len(atoms)} ground atom(s) up to depth {args.depth}"]


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tlpc",
        description="Type-check, run, and statically analyse typed logic programs.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, query=False):
        p.add_argument("file", help="program file (.tlp)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if query:
            p.add_argument("--query", required=True, help="query text, e.g. 'p(X), q(X)'")
            p.add_argument("--depth", type=int, default=5,
                           help="bound on derivation steps / tree height (default 5)")

    p = sub.add_parser("check", help="static checks: head condition, semi-genericity")
    common(p)
    p.add_argument("--mode", choices=("head", "semi", "both"), default="both")
    p.add_argument("--partition", choices=("auto", "annotated"), default=None,
                   help="partition source for the semi-generic check "
                        "(default: annotations when present, else search)")

    p = sub.add_parser("infer", help="most general type of every clause")
    common(p)

    p = sub.add_parser("run", help="answers within a step bound, with typability monitor")
    common(p, query=True)
    p.add_argument("--selection", choices=("leftmost", "all"), default="leftmost")

    p = sub.add_parser("sr", help="check that type skeletons stay unifiable: by the head "
                                  "condition or a semi-generic partition (all depths), "
                                  "else by enumeration up to --depth")
    common(p, query=True)
    p.add_argument("--bounded", action="store_true",
                   help="skip the criteria and always enumerate up to --depth")

    p = sub.add_parser("skeletons", help="dump skeletons for a query")
    common(p, query=True)
    p.add_argument("--types", action="store_true", help="include type skeletons")

    p = sub.add_parser("tp", help="ground atoms derivable bottom-up within a term depth")
    common(p)
    p.add_argument("--depth", type=int, required=True,
                   help="bound on the depth of the terms in each atom")

    return ap


# Built at the first call of `main` and reused by later in-process calls.
_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    args = _PARSER.parse_args(argv)
    if getattr(args, "depth", 0) < 0:
        print("error: --depth must be >= 0", file=sys.stderr)
        return 2
    try:
        with open(args.file, encoding="utf-8") as fh:
            program = parse_program(fh.read())
        query = parse_query(args.query, program.signature) if hasattr(args, "query") else None
        # Read at each call, not stored in the parser, so that a `cmd_*`
        # replaced or wrapped after the parser is built is the one that runs.
        command = {"check": cmd_check, "infer": cmd_infer, "run": cmd_run, "sr": cmd_sr,
                   "skeletons": cmd_skeletons, "tp": cmd_tp}[args.command]
        code, doc, lines = command(args, program, query)
        for ln in [json.dumps(doc, indent=2)] if args.json else lines:
            print(ln)
        return code
    except ParseError as e:
        for d in e.diagnostics.entries:
            print(str(d), file=sys.stderr)
        return 2
    except (UntypableError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"error: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
