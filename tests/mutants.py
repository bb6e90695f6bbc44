"""Apply known mutants to copies of the repository and check that the tests
kill each one.

Usage, from the repository root:

    python3 tests/mutants.py [--root DIR]

Each entry of MUTANTS is (name, file, exact old text, new text, pytest
selector).  For each entry, the script copies the checkout at DIR
(default: this repository) into a temporary directory, replaces the old
text in the copy, and runs `python -m pytest -x` on the selector there,
with the copy's `src` first on PYTHONPATH, under a time limit of
TIME_LIMIT seconds.  It prints one line per mutant:

- killed: the selected tests fail;
- survived: they pass.  That is a finding about the tests, and its fix is
  a test that kills the mutant, never a removed entry;
- timed out: the tests were still running at the time limit;
- stale: the old text does not occur exactly once in the file, so the
  entry no longer fits the code;
- error: pytest ended otherwise, for example because the selector
  selected no test.

The exit code is 0 when every mutant is killed, else 1.  Pytest does not
collect this file.  A PR that adds a fast path or a property test adds its
mutants here.
"""
from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent
TIME_LIMIT = 120  # seconds per mutant; the slowest kill takes under 30 s


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    selector: tuple[str, ...]


TP = ("tests/test_trees.py", "-k", "tp")
DERIVE = ("tests/test_trees.py", "-k", "deriv or answer")
LAZY = ("tests/test_unify.py", "-k", "lazy")
PRINTERS = ("tests/test_trees.py", "tests/test_srcheck.py",
            "-k", "walks or tall or json or report")
RUN_TYPING = ("tests/test_typecheck.py", "tests/test_srcheck.py",
              "-k", "typable_in_run or deep_terms or principal_types")

MUTANTS = [
    # The indexed, depth-pruned semi-naive fixpoint.
    Mutant("tp: >= for > in the binding depth check", "src/tlpc/trees.py",
           "if t is not None and d + t.depth > depth:",
           "if t is not None and d + t.depth >= depth:", TP),
    Mutant("tp: >= for > in the head's own depth check", "src/tlpc/trees.py",
           "        if base > depth:\n",
           "        if base >= depth:\n", TP),
    Mutant("tp: index tables built keyed by argument 0", "src/tlpc/trees.py",
           "tables[i].setdefault(a.args[i], []).append(a)",
           "tables[i].setdefault(a.args[0], []).append(a)", TP),
    Mutant("tp: tables kept up by add keyed by argument 0", "src/tlpc/trees.py",
           "table.setdefault(a.args[i], []).append(a)",
           "table.setdefault(a.args[0], []).append(a)", TP),
    Mutant("tp: old for delta in the variant skip", "src/tlpc/trees.py",
           "for i, call in enumerate(calls) if delta.candidates(call)]",
           "for i, call in enumerate(calls) if old.candidates(call)]", TP),
    Mutant("tp: a body equation's binding dropped", "src/tlpc/trees.py",
           "yield i + 1, k, _extend(binding, theta)", "yield i + 1, k, binding", TP),
    # The depth-first driver and the searches on it.
    Mutant("depth_first: each node's children taken in reverse", "src/tlpc/trees.py",
           "stack.append(iter(children(node)))",
           "stack.append(reversed(list(children(node))))",
           ("tests/test_trees.py", "-k", "depth_first or walks or deriv")),
    Mutant("search_partition: the last complete assignment instead of the first",
           "src/tlpc/srcheck.py",
           "    return next((Partition(a) for a in trees.depth_first({}, children)\n"
           "                 if len(a) == len(names)), None)\n",
           "    return ([None] + [Partition(a) for a in trees.depth_first({}, children)\n"
           "                      if len(a) == len(names)])[-1]\n",
           ("tests/test_srcheck.py", "-k", "partition")),
    # The clause filter and the triangular answer of SLD derivations.
    Mutant("derivations: a skipped clause does not advance the name source",
           "src/tlpc/trees.py",
           "                first = drawn\n"
           "                drawn += len(vs)  # also for a skipped clause, as if it were renamed\n"
           "                if any(h != t for h, t in zip(heads, tops) if h and t):\n"
           "                    continue\n",
           "                if any(h != t for h, t in zip(heads, tops) if h and t):\n"
           "                    continue\n"
           "                first = drawn\n"
           "                drawn += len(vs)  # also for a skipped clause, as if it were renamed\n",
           DERIVE),
    Mutant("derivations: a variable head argument counts as a clash", "src/tlpc/trees.py",
           "for h, t in zip(heads, tops) if h and t):",
           "for h, t in zip(heads, tops) if t):", DERIVE),
    Mutant("answer: each binding taken without resolving the later ones", "src/tlpc/trees.py",
           "eval_arith(theta[v])", "eval_arith(theta._m[v])", DERIVE),
    # Structure-sharing resolution: one binding store and a chain of steps.
    Mutant("derivations: the store not undone on backtracking", "src/tlpc/trees.py",
           "                for v in theta.bindings:\n                    del store[v]\n", "",
           DERIVE),
    Mutant("derivations: the selected atom not resolved under the store", "src/tlpc/trees.py",
           "_rebuilt(t, store, arith) for t in atom.args", "_rebuilt(t, {}, arith) for t in atom.args",
           DERIVE),
    Mutant("Step.query: built without the step's unifier", "src/tlpc/trees.py",
           "q = s.mgu.apply(q[:s.position - 1] + s.clause.body + q[s.position:])",
           "q = q[:s.position - 1] + s.clause.body + q[s.position:]", DERIVE),
    # The solver's Subst, resolved on first read, and substitution.
    Mutant("Subst: a value stored without resolving the variables it mentions first",
           "src/tlpc/core.py",
           "            if pending:\n                stack.extend(pending)\n                continue\n",
           "", LAZY),
    Mutant("Subst: marked resolved before every key is", "src/tlpc/core.py",
           "        if len(done) == len(m):\n", "        if done:\n", LAZY),
    Mutant("apply_subst: arguments rebuilt in reverse", "src/tlpc/core.py",
           "new = type(node)(node.name, tuple(done))",
           "new = type(node)(node.name, tuple(reversed(done)))", ("tests/test_core.py",)),
    # Unification and the certificates.
    Mutant("unify: _occurs returns False", "src/tlpc/unify.py",
           "    stack, seen = [t], set()\n",
           "    return False\n    stack, seen = [t], set()\n",
           ("tests/test_unify.py", "-k", "occur")),
    Mutant("sr_certificate: query's semi-generic check dropped", "src/tlpc/srcheck.py",
           "    if part is not None and next(_semi_generic_findings(\n"
           "            program, part, wrap_query(query), typing, GO_CLAUSE_INDEX), None) is None:\n",
           "    if part is not None:\n",
           ("tests/test_srcheck.py", "-k", "certificate")),
    Mutant("typed_proper_skeletons: clause types not renamed apart per node",
           "src/tlpc/srcheck.py",
           "_solved_head(rename_apart(vectors[index], ns),",
           "_solved_head(vectors[index],",
           ("tests/test_srcheck.py", "-k", "sr_matches or bounded_check")),
    # Typing of derived queries with per-run principal types.
    Mutant("typable_in_run: principal type not renamed apart", "src/tlpc/typecheck.py",
           "done.append(rename_apart(known, self.ns))",
           "done.append(known)", RUN_TYPING),
    Mutant("typable_in_run: ground branch disabled", "src/tlpc/typecheck.py",
           "elif self.principal is not None and x.ground:",
           "elif False:", RUN_TYPING),
    # The semi-generic conditions.
    Mutant("semi-generic condition 1: an atom paired with itself", "src/tlpc/srcheck.py",
           "for j in holders[p] if j > i}", "for j in holders[p] if j >= i}",
           ("tests/test_srcheck.py", "-k", "semi_generic")),
    Mutant("semi-generic condition 3: the head atom skipped", "src/tlpc/srcheck.py",
           "    for i in range(m + 1):\n        if not variant(",
           "    for i in range(1, m + 1):\n        if not variant(",
           ("tests/test_srcheck.py", "-k", "all_head_partition")),
    # The printers of the CLI.
    Mutant("_tree: a child filed under the last record instead of its parent",
           "src/tlpc/cli.py",
           'latest[depth - 1]["children"].append(rec["id"])',
           'latest[-1]["children"].append(rec["id"])', PRINTERS),
    Mutant("_tree: the depth dropped from the indent", "src/tlpc/cli.py",
           "lines.append(f\"{'  ' * (indent + depth)}{line}\")",
           "lines.append(f\"{'  ' * indent}{line}\")", PRINTERS),
    Mutant("_report: depthBound omitted", "src/tlpc/cli.py",
           '        doc["depthBound"] = rep.depth_bound\n', "", PRINTERS),
]

_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                               ".bench_out", "*.egg-info")


def check(m: Mutant, root: Path) -> str:
    """The mutant's result: killed, survived, timed out, stale or error."""
    with tempfile.TemporaryDirectory(prefix="tlpc-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(root, copy, ignore=_SKIP)
        path = copy / m.file
        text = path.read_text(encoding="utf-8") if path.exists() else ""
        if text.count(m.old) != 1:
            return "stale"
        path.write_text(text.replace(m.old, m.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 *m.selector],
                cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=TIME_LIMIT)
        except subprocess.TimeoutExpired:
            return "timed out"
    return {0: "survived", 1: "killed"}.get(done.returncode, f"error (exit {done.returncode})")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=REPO, help="checkout to mutate copies of")
    root = ap.parse_args(argv).root.resolve()
    results = []
    for m in MUTANTS:
        start = time.perf_counter()
        results.append(check(m, root))
        print(f"{results[-1]:<10} {time.perf_counter() - start:6.1f} s  {m.name}", flush=True)
    return 0 if all(r == "killed" for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
