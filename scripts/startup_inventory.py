#!/usr/bin/env python
"""Inventory of the ``repro`` code one run loads, calls and builds.

Runs one command in this interpreter under a ``sys.setprofile`` call
log, then prints JSON to stdout (the command's own stdout goes to
stderr):

* ``modules``: each ``repro`` module loaded, with its source lines
  (``lines``) and code lines (``code``: no blank, comment or docstring
  lines) — every run compiles all of them, because nothing is cached as
  bytecode when ``PYTHONDONTWRITEBYTECODE`` is set;
* ``uncalled``: per module, the lines (and code lines) of functions
  the run never called — code it compiled for nothing;
* ``dataclasses``: the ``@dataclass`` classes those modules define and
  the methods Python generated for them through ``exec`` at import;
* ``totals.threads``: the process's OS thread count after the run, from
  ``/proc/self/status`` (``null`` off Linux). ``import repro`` asks
  OpenBLAS for one thread, so a run reports 1;
* ``totals.openssl``: whether ``_hashlib`` is loaded, which maps
  OpenSSL's ``libcrypto`` (about 3.5 MB resident). ``repro`` hashes
  with CPython's builtin SHA-256 and BLAKE2b modules and imports
  ``numpy.random`` past its ``secrets`` -> ``hmac`` -> ``hashlib``
  chain (``repro._hashing``), so every run reports false.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/startup_inventory.py lulesh --scale 0.05
    PYTHONPATH=src python scripts/startup_inventory.py \\
        e2ebench/pipeline.py lulesh --optimize --result /tmp/r.json

Arguments are those of ``python -m repro``, or a script path and its
arguments. See ``docs/OBSERVABILITY.md``, "Start-up".
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import runpy
import sys
import tokenize
from pathlib import Path

SKIP_TOKENS = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """Lines of module, class and function docstrings."""
    out: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                out.update(range(body[0].lineno, body[0].end_lineno + 1))
    return out


def _code_lines(source: str, tree: ast.Module) -> set[int]:
    """Lines holding a token that is neither a comment nor a docstring."""
    doc = _docstring_lines(tree)
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in SKIP_TOKENS:
            continue
        lines.update(
            n for n in range(tok.start[0], tok.end[0] + 1) if n not in doc
        )
    return lines


def _functions(tree: ast.Module):
    """``(first line, last line)`` of every function, decorators included."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            yield first, node.end_lineno


def _generated(fn) -> bool:
    """Whether ``fn`` (or what it wraps, as ``__repr__``) came from ``exec``."""
    while hasattr(fn, "__wrapped__"):
        fn = fn.__wrapped__
    code = getattr(fn, "__code__", None)
    return code is not None and code.co_filename == "<string>"


def _dataclasses(module) -> list[dict]:
    """Dataclasses ``module`` defines, with their generated methods."""
    out = []
    for obj in vars(module).values():
        if (isinstance(obj, type) and obj.__module__ == module.__name__
                and "__dataclass_fields__" in vars(obj)):
            generated = sorted(
                name for name, fn in vars(obj).items()
                if _generated(fn)
            )
            out.append({"class": obj.__qualname__, "generated": generated})
    return out


def os_threads() -> int | None:
    """This process's OS thread count; None off Linux."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def inventory(called: set[tuple[str, int]]) -> dict:
    """The JSON document for the ``repro`` modules now in ``sys.modules``."""
    modules, uncalled, dcs = {}, {}, {}
    for name in sorted(sys.modules):
        module = sys.modules[name]
        path = getattr(module, "__file__", None)
        if not (name == "repro" or name.startswith("repro.")) or not path:
            continue
        source = Path(path).read_text()
        tree = ast.parse(source)
        code = _code_lines(source, tree)
        modules[name] = {"lines": len(source.splitlines()), "code": len(code)}
        dead: set[int] = set()
        for first, last in _functions(tree):
            if (path, first) not in called:
                dead.update(range(first, last + 1))
        if dead:
            uncalled[name] = {"lines": len(dead), "code": len(dead & code)}
        found = _dataclasses(module)
        if found:
            dcs[name] = found
    return {
        "modules": modules,
        "totals": {
            "modules": len(modules),
            "lines": sum(m["lines"] for m in modules.values()),
            "code": sum(m["code"] for m in modules.values()),
            "uncalled_lines": sum(u["lines"] for u in uncalled.values()),
            "uncalled_code": sum(u["code"] for u in uncalled.values()),
            "dataclasses": sum(len(v) for v in dcs.values()),
            "dataclass_functions": sum(
                len(c["generated"]) for v in dcs.values() for c in v
            ),
            "threads": os_threads(),
            "openssl": "_hashlib" in sys.modules,
        },
        "uncalled": uncalled,
        "dataclasses": dcs,
    }


def run(argv: list[str]) -> dict:
    """Run ``argv`` under the call log; returns the inventory."""
    seen: set = set()

    def profile(frame, event, _arg):
        if event == "call":
            seen.add(frame.f_code)

    if argv and argv[0].endswith(".py"):
        target, run_it = argv[0], runpy.run_path
    else:
        target, run_it = "repro", runpy.run_module
        argv = ["repro", *argv]
    saved = sys.argv
    sys.argv = list(argv)
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            run_it(target, run_name="__main__")
    except SystemExit as exc:
        if exc.code not in (None, 0):
            raise
    finally:
        sys.setprofile(None)
        sys.argv = saved
    called = {(co.co_filename, co.co_firstlineno) for co in seen}
    return inventory(called)


def main(argv: list[str]) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__, file=sys.stderr)
        return 2
    json.dump(run(argv), sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
