"""Run a fixed set of `tlpc` commands in-process and record what each prints.

Usage, from the repository root:

    PYTHONPATH=src python tests/cli_sweep.py OUT.json

For every corpus and bench program it runs `check` (text and `--json`),
`infer` and `tp --depth 1`; for the most general query of every declared
predicate, `sr` at depths 2 and 3 (text, `--json` and `--bounded`),
`skeletons --types` at depth 2, and `run` at depth 4 under either
selection rule (each as text and as `--json`); then the inputs rejected
before analysis (a missing file, a query with a syntax error, an
untypable query, `--partition annotated` on a program without
annotations, a negative `--depth`); then every `$ tlpc ...` transcript
of the README.  OUT.json
lists, per command, its arguments, exit code, stdout and stderr, with
paths relative to the repository root.  Run it in two checkouts and diff
the two files to show that a refactor leaves the CLI's output unchanged.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shlex
import sys
from pathlib import Path

from helpers import REPO, readme_transcripts  # the script's own directory is on sys.path

from tlpc.cli import main
from tlpc.parser import parse_program


def program_files() -> list[str]:
    return [str(p.relative_to(REPO)) for d in ("src/tlpc/corpus", "bench/programs")
            for p in sorted((REPO / d).glob("*.tlp"))]


def commands():
    for f in program_files():
        yield ["check", f]
        yield ["check", f, "--json"]
        yield ["infer", f]
        yield ["tp", f, "--depth", "1"]
        program = parse_program((REPO / f).read_text(encoding="utf-8"))
        for pred, decl in program.signature.preds.items():
            args = ", ".join(f"V{i}" for i in range(len(decl.arg_types)))
            q = ["--query", f"{pred}({args})" if args else pred]
            for depth in ("2", "3"):
                for extra in ([], ["--json"], ["--bounded"]):
                    yield ["sr", f, *q, "--depth", depth, *extra]
            for extra in ([], ["--json"]):
                yield ["skeletons", f, *q, "--depth", "2", "--types", *extra]
                yield ["run", f, *q, "--depth", "4", *extra]
                yield ["run", f, *q, "--selection", "all", "--depth", "4", *extra]
    append = "src/tlpc/corpus/append.tlp"
    for extra in ([], ["--json"]):
        yield ["check", "src/tlpc/corpus/missing.tlp", *extra]
        yield ["run", "src/tlpc/corpus/missing.tlp", "--query", "app(X, Y, Z)", *extra]
        yield ["run", append, "--query", "app(X, ", *extra]
        yield ["sr", append, "--query", "app(X, Y) = Z", *extra]
        yield ["run", append, "--query", "app(X, X, [X])", *extra]
        yield ["skeletons", append, "--query", "app(X, X, [X])", *extra]
        yield ["check", append, "--partition", "annotated", *extra]
        yield ["sr", append, "--query", "app(X, Y, Z)", "--depth", "-1", *extra]
        yield ["tp", append, "--depth", "-1", *extra]
    for command, _ in readme_transcripts():
        yield shlex.split(command)


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse rejects the arguments
            code = e.code
    root = str(REPO) + os.sep
    return {"argv": argv, "code": code,
            "stdout": out.getvalue().replace(root, ""),
            "stderr": err.getvalue().replace(root, "")}


def sweep(out_path: str) -> None:
    out = Path(out_path).resolve()
    os.environ["TLPC_COLOR"] = "0"
    os.chdir(REPO)
    results = [run(argv) for argv in commands()]
    out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(f"{len(results)} commands written to {out}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sweep(sys.argv[1])
