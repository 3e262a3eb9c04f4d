"""A re-runnable mutation check for the tier-1 gate.

Each row of ``MUTANTS`` is one hand-made fault: a name, a file under the
repository root, the exact source text it replaces, its replacement,
and the tier-1 tests expected to fail on it.  The runner copies
``src/``, ``tests/`` and ``perfbench/`` (which ``tests/test_bench_work.py``
imports) into a temporary directory, applies one row at a time, runs
that row's tests there with pytest, and puts the file back.  A row is

* ``killed`` when some of its tests fail (or the run times out),
* ``survived`` when they all pass: a gap in the gate, to be closed with
  a test,
* ``anchor gone`` when its source text does not occur in the file
  exactly once: the code it mutates has changed, so the row wants
  mending,
* ``error`` when pytest cannot run its tests, e.g. a test id is gone.

Run it from anywhere, with the standard library and pytest only::

    python tests/mutants.py             # every row
    python tests/mutants.py -k due      # the rows whose name holds "due"

It exits 1 if any row is not killed.  pytest collects ``test_*.py``
files only, so tier-1 does not run this file.

Omitted on purpose, because no source text is left to anchor them: a
``_resolve`` that recurses into ``g(`` (script terms are read by the
iterative ``_Tokens.term``), and whole earlier copies of ``harness.py``
and ``ordering.py``; the column-0 errors of the first are the
``parse errors at column 0`` row.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench")
TIMEOUT = 900       # seconds a row's tests may take; tier-1 takes about 120


class Mutant(NamedTuple):
    name: str
    path: str       # relative to the repository root
    old: str        # must occur exactly once
    new: str
    tests: tuple    # pytest ids, relative to the repository root


AT_SCALE = "tests/test_script_runs.py::test_generated_scripts_at_scale_keep_every_diagram_valid"
LIFECYCLE = "tests/test_script_runs.py::test_lifecycle_scripts_cross_check"
BAD_LINE = "tests/test_script_runs.py::test_cli_refuses_a_bad_line_at_its_token"
KBO_ORACLE = "tests/test_ordering.py::test_kbo_closure_agrees_with_the_oracle_in_integers"
KBO_FOLDS = "tests/test_ordering.py::test_kbo_weight_step_folds_only_a_non_ground_image_of_t"
OWN_ARGUMENT = "tests/test_terms.py::test_app_refuses_another_signatures_argument"
DUE = ("tests/test_index.py::test_removed_young_head_leaves_the_next_on_its_own_stamp",
       "tests/test_index.py::test_dissolve_restamps_the_survivors_for_promotion")
FAMILY_PINS = "tests/test_harness.py::test_bench_script_bytes_are_pinned"

MUTANTS = (
    # -- diagram edges and the walk (src/todx/tod.py) --------------------------
    Mutant("_move_edge reads src.out[label]", "src/todx/tod.py",
           "        if getattr(src, slot) is not node:\n",
           "        if src.out[label] is not node:\n",
           (AT_SCALE,)),
    Mutant("__dict__ in TodNode.__slots__", "src/todx/tod.py",
           '"mid", "nge", "refs")',
           '"mid", "nge", "refs", "__dict__")',
           (AT_SCALE,)),
    Mutant("_move_edge leaves target.refs as it was", "src/todx/tod.py",
           "        target.refs += 1\n        node.refs -= 1\n",
           "        node.refs -= 1\n",
           (AT_SCALE,)),
    Mutant("walk reads a zero positivity total as GT", "src/todx/tod.py",
           "                        if total > 0:\n"
           "                            prev, arrival, node = node, _GT, node.gt\n",
           "                        if total >= 0:\n"
           "                            prev, arrival, node = node, _GT, node.gt\n",
           (AT_SCALE,
            "tests/test_script_runs.py::test_generated_scripts_with_default_params_cross_check")),
    Mutant("walk stops after the first diagram when first_only", "src/todx/tod.py",
           "        if kind is not _EXIT:\n            break",
           "        if first_only:\n            break",
           ("tests/test_index.py::test_first_only_is_the_first_of_all_in_every_mode",)),
    Mutant("walk answers NGE for a negative unbound coefficient", "src/todx/tod.py",
           "                            label = expr.sign(w0, sigma)\n",
           "                            label = _NGE if img is None else expr.sign(w0, sigma)\n",
           ("tests/test_index.py::test_unbound_variable_cancelled_by_an_image",)),
    Mutant("walk signs a negative coefficient on a non-ground image", "src/todx/tod.py",
           "                        if c < 0 and (img is None or not img.ground):\n",
           "                        if c < 0 and img is None:\n",
           ("tests/test_index.py::test_negative_coefficient_on_a_free_image_is_not_read_at_w0",)),

    # -- groups, promotion and queries (src/todx/index.py) ---------------------
    Mutant("_promote promotes nothing", "src/todx/index.py",
           "            grown.append(eq)\n",
           "",
           (AT_SCALE, LIFECYCLE)),
    Mutant("removing a shared member keeps the diagram", "src/todx/index.py",
           "                group.tods.clear()\n"
           "                group.young = dict.fromkeys(group.eqs.values(), group.queries)\n"
           "                group.due = group.queries + PROMOTE_AFTER\n",
           "                pass\n",
           (LIFECYCLE,)),
    Mutant("due: _promote leaves it at never", "src/todx/index.py",
           "                group.due = stamp + PROMOTE_AFTER\n                break\n",
           "                break\n",
           DUE),
    Mutant("due: _promote does not touch it", "src/todx/index.py",
           "        group.due = _NEVER\n"
           "        for eq, stamp in young.items():\n"
           "            if stamp > ripe:\n"
           "                group.due = stamp + PROMOTE_AFTER\n",
           "        for eq, stamp in young.items():\n"
           "            if stamp > ripe:\n",
           DUE),
    Mutant("due: a dissolve does not reset it", "src/todx/index.py",
           "group.queries)\n                group.due = group.queries + PROMOTE_AFTER\n",
           "group.queries)\n",
           DUE[1:]),
    Mutant("rhs pass-through without its 0 <= v guard", "src/todx/index.py",
           "        if not (0 <= v < n and vids[v] == v):\n",
           "        if not (v < n and vids[v] == v):\n",
           ("tests/test_index.py::test_insert_stores_the_rebuilt_equality",)),
    Mutant("insert skips the rhs owner", "src/todx/index.py",
           "    if lhs.owner is not sig or rhs.owner is not sig:\n",
           "    if lhs.owner is not sig:\n",
           ("tests/test_index.py::test_insert_refuses_another_signatures_rhs",
            "tests/test_index.py::test_insert_refuses_a_ground_term_of_another_signature")),
    Mutant("query skips the image owners", "src/todx/index.py",
           "        for img in sigma._m.values():\n"
           "            if img.owner is not sig:\n"
           "                raise sig._foreign(img)\n",
           "",
           ("tests/test_index.py::test_query_refuses_another_signatures_image",)),

    # -- terms and signatures (src/todx/terms.py) ------------------------------
    Mutant("is_symbol_name takes x1", "src/todx/terms.py",
           'is_symbol_name = re.compile(rf"(?!x[0-9]+$){IDENT}").fullmatch\n',
           "is_symbol_name = re.compile(IDENT).fullmatch\n",
           (BAD_LINE,)),
    Mutant("least counts 1 for a symbol", "src/todx/terms.py",
           "            ground, least = True, f.weight\n",
           "            ground, least = True, 1\n",
           ("tests/test_terms.py::test_least_of_a_weighted_chain_10000_deep",)),
    Mutant("Signature takes a negative arity", "src/todx/terms.py",
           "            if arity < 0:\n"
           '                raise SignatureError(f"negative arity for {name}")\n',
           "",
           ("tests/test_terms.py::test_signature_rejects_what_a_script_cannot_declare",)),
    Mutant("Signature takes a duplicate name", "src/todx/terms.py",
           "            if name in by_name:\n"
           '                raise SignatureError(f"duplicate symbol name {name}")\n',
           "",
           ("tests/test_terms.py::test_signature_rejects_what_a_script_cannot_declare",)),
    Mutant("app skips its arguments' owner", "src/todx/terms.py",
           "                if a.owner is not self:\n"
           "                    raise self._foreign(a)\n",
           "",
           (OWN_ARGUMENT,
            "tests/test_index.py::test_insert_refuses_a_ground_term_of_another_signature")),
    Mutant("intern skips a term's owner", "src/todx/terms.py",
           "            if raw.owner is not self:\n"
           "                raise self._foreign(raw)\n",
           "",
           (OWN_ARGUMENT,)),
    Mutant("term ids per signature", "src/todx/terms.py",
           "        self.tid = next(_TIDS)\n",
           "        self.tid = len(owner._apps) + len(owner._vars)\n",
           (OWN_ARGUMENT,
            "tests/test_index.py::test_insert_refuses_another_signatures_term")),

    # -- KBO's integer weight step (src/todx/ordering.py) ----------------------
    Mutant("KBO reads a non-ground image of t as exact", "src/todx/ordering.py",
           "                    if img is None or not img.ground:\n"
           "                        exact = False\n",
           "                    if img is None:\n"
           "                        exact = False\n",
           (KBO_ORACLE, KBO_FOLDS)),
    Mutant("KBO weight step without integers", "src/todx/ordering.py",
           "            if exact:\n                if sigma is EMPTY_SUBST:\n",
           "            if False:\n                if sigma is EMPTY_SUBST:\n",
           (KBO_FOLDS,)),
    Mutant("KBO reads an unbound variable of s as 0", "src/todx/ordering.py",
           "                        total += c * (w0 if img is None else img.least)\n",
           "                        total += c * (0 if img is None else img.least)\n",
           (KBO_ORACLE,)),
    Mutant("KBO answers GT on a zero total", "src/todx/ordering.py",
           "                if total:\n"
           "                    return _GT if total > 0 else _NGE\n",
           "                return _GT if total >= 0 else _NGE\n",
           (KBO_ORACLE,)),

    # -- scripts (src/todx/harness.py) -----------------------------------------
    Mutant("parse errors at column 0", "src/todx/harness.py",
           "        return ScriptError(message, self.line, self.toks[self.pos - back][2])\n",
           "        return ScriptError(message, self.line)\n",
           ("tests/test_script_lexer.py::test_malformed_line_is_refused_at_its_token",
            BAD_LINE)),
    Mutant("sig attribute refuses a blank before =", "src/todx/harness.py",
           '                tk.take("=")\n                attrs[key] = val = tk.number()\n',
           "                if tk.toks[tk.pos][2] != tk.toks[tk.pos - 1][2] + 1:\n"
           "                    raise tk.error(\"expected '='\")\n"
           '                tk.take("=")\n                attrs[key] = val = tk.number()\n',
           ("tests/test_script_runs.py::test_a_script_with_blanks_around_every_token_runs",)),
    Mutant("expect skips an empty id", "src/todx/harness.py",
           "                    raise tk.error(\"expected ',' or '}'\", 1)\n"
           '                eq_id = tk.name("an equality id")\n',
           "                    raise tk.error(\"expected ',' or '}'\", 1)\n"
           '                if tk.peek() in (",", "}"):\n'
           "                    continue\n"
           '                eq_id = tk.name("an equality id")\n',
           (BAD_LINE,)),
    Mutant("run lets an unknown want through", "src/todx/harness.py",
           "    if want not in (\"all\", \"first\"):\n"
           "        raise ValueError(f\"want must be 'all' or 'first', not {want!r}\")\n"
           "    order_kind",
           "    order_kind",
           ("tests/test_harness.py::test_run_refuses_an_unknown_want",)),

    # -- the counter families (tests/helpers.py) -------------------------------
    Mutant("poly family without its static-order filter", "tests/helpers.py",
           "        if kbo.compare(l, r) is Label.GT or kbo.compare(r, l) is Label.GT:\n"
           "            continue\n",
           "",
           (FAMILY_PINS,)),
    Mutant("swap family with another image", "tests/helpers.py",
           '"f(f(a,a),b)"',
           '"f(f(a,b),b)"',
           (FAMILY_PINS,)),
)


def run_row(root: Path, row: Mutant) -> tuple:
    """(verdict, detail) of ``row`` on the copy at ``root``, which is
    left as it was found."""
    path = root / row.path
    text = path.read_text(encoding="utf-8")
    found = text.count(row.old)
    if found != 1:
        return "anchor gone", f"{found} matches in {row.path}"
    path.write_text(text.replace(row.old, row.new), encoding="utf-8")
    # no bytecode: a mutant of the same size and mtime second as the
    # original would otherwise load the original's cached code
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             "--continue-on-collection-errors", *row.tests],
            cwd=root, env=env, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "killed", f"timed out after {TIMEOUT} s"
    finally:
        path.write_text(text, encoding="utf-8")
    lines = proc.stdout.strip().splitlines()
    summary = lines[-1] if lines else proc.stderr.strip()[-200:]
    if proc.returncode == 0:
        return "survived", summary
    if proc.returncode != 1:
        return "error", summary
    # the failed tests by function, with their count of cases
    failed = Counter(l.split()[1].split("::")[-1].split("[")[0]
                     for l in lines if l.startswith(("FAILED ", "ERROR ")))
    return "killed", (summary.split(" in ")[0] + ": "
                      + ", ".join(f"{t} x{n}" for t, n in failed.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("-k", dest="match", default="",
                        help="run only the rows whose name holds this text")
    args = parser.parse_args(argv)
    rows = [r for r in MUTANTS if args.match in r.name]
    if not rows:
        parser.error(f"no row name holds {args.match!r}")
    tally = Counter()
    with tempfile.TemporaryDirectory(prefix="todx-mutants-") as tmp:
        root = Path(tmp)
        for d in COPIED:
            shutil.copytree(ROOT / d, root / d,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        for row in rows:
            verdict, detail = run_row(root, row)
            tally[verdict] += 1
            print(f"{verdict:11s} {row.name}  [{detail}]", flush=True)
    print(", ".join(f"{v} {n}" for v, n in sorted(tally.items()))
          + f" of {len(rows)} rows")
    return 0 if tally["killed"] == len(rows) else 1


if __name__ == "__main__":
    sys.exit(main())
