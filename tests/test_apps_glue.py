"""The paper's headline claim: parallelization glue stays under 200 lines.

The paper reports 173 LoC for stp_plugins.cpp and 106 for
misdp_plugins.cpp (cloc, excluding blanks and comments); this test holds
our Python glue to the same budget.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro.apps.misdp_plugins as misdp_mod
import repro.apps.stp_plugins as stp_mod


def cloc_style_count(path: Path) -> int:
    """Count non-blank, non-comment, non-docstring lines (cloc-like)."""
    source = path.read_text()
    tree = ast.parse(source)
    doc_lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = getattr(node, "body", [])
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    for ln in range(body[0].lineno, body[0].end_lineno + 1):
                        doc_lines.add(ln)
    count = 0
    for i, line in enumerate(source.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#") or i in doc_lines:
            continue
        count += 1
    return count


def test_stp_glue_under_200_lines():
    n = cloc_style_count(Path(stp_mod.__file__))
    assert n < 200, f"stp_plugins.py has {n} code lines (paper: 173)"


def test_misdp_glue_under_200_lines():
    n = cloc_style_count(Path(misdp_mod.__file__))
    assert n < 200, f"misdp_plugins.py has {n} code lines (paper: 106)"


def test_combined_claim():
    total_stp = cloc_style_count(Path(stp_mod.__file__))
    total_misdp = cloc_style_count(Path(misdp_mod.__file__))
    # "the additional effort needed to parallelize their sequential
    # versions is less than 200 lines of code" — per application
    assert max(total_stp, total_misdp) < 200


def test_presolve_settled_subproblem_reports_its_tree_once():
    """A subproblem the second presolve layer settles has no CIP: the
    handle's first step finishes with the presolve tree (original edge
    ids) and there is no open node to shed."""
    from repro.cip.params import ParamSet
    from repro.steiner.instances import grid_instance
    from repro.verify.steiner import check_steiner_tree

    graph = grid_instance(2, 3, 3, seed=5)
    plugins = stp_mod.SteinerUserPlugins()
    params = ParamSet()
    presolved = plugins.presolve_instance(graph, params, 0)
    handle = plugins.create_handle(presolved, plugins.root_para_node(presolved), params, 0, None)
    step = handle.step()
    assert step.finished and step.status == "optimal"
    [solution] = step.solutions
    assert solution.payload["edges"] == sorted(set(presolved.fixed_edges))
    assert solution.value == presolved.fixed_cost
    assert check_steiner_tree(graph, solution.payload["edges"], solution.value).ok
    assert handle.extract_para_node() is None
