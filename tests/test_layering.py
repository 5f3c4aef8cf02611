"""Layering rules, read from the source: every singular value decomposition
and every thread pool lives in numkernel, so the batched sigma(zI - A)
primitive, the BLAS pin and the pool have one home."""

import ast
from pathlib import Path

import pytest

import condspec

SOURCES = sorted(Path(condspec.__file__).parent.glob("*.py"))


def _dotted(node) -> str:
    """'np.linalg.svd' for an attribute chain over a name, '' otherwise."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id] + parts[::-1]) if isinstance(node, ast.Name) else ""


def _violations(tree) -> list:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            if name.endswith("linalg.svd") or name.split(".")[-1] == "ThreadPoolExecutor":
                found.append(f"line {node.lineno}: calls {name}")
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = {a.name for a in node.names}
            if (node.module.endswith("linalg") and "svd" in names
                    or "ThreadPoolExecutor" in names):
                found.append(f"line {node.lineno}: imports {', '.join(sorted(names))} "
                             f"from {node.module}")
    return found


def test_rule_sees_what_it_forbids():
    source = ("import numpy as np\nfrom concurrent.futures import ThreadPoolExecutor\n"
              "np.linalg.svd(a)\nnumpy.linalg.svd(a, compute_uv=False)\n")
    assert len(_violations(ast.parse(source))) == 3


@pytest.mark.parametrize("path", [p for p in SOURCES if p.stem != "numkernel"],
                         ids=lambda p: p.stem)
def test_only_numkernel_runs_svds_and_thread_pools(path):
    assert _violations(ast.parse(path.read_text())) == []


def test_numkernel_holds_both():
    assert len(_violations(ast.parse((SOURCES[0].parent / "numkernel.py").read_text()))) >= 2
