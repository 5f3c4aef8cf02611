"""Layering rules, read from the source: numkernel is the only module that
calls LAPACK (any np.linalg routine but norm), pins BLAS or builds a thread
pool, so the batched sigma(zI - A) primitive, the W(A) sweep, the BLAS pin
and the pool have one home."""

import ast
from pathlib import Path

import pytest

import condspec

SOURCES = sorted(Path(condspec.__file__).parent.glob("*.py"))

# numkernel's BLAS pin, under its current and its former names.
PIN_NAMES = {"_lapack", "_single_threaded_blas", "_lapack_failure"}


def _dotted(node) -> str:
    """'np.linalg.svd' for an attribute chain over a name, '' otherwise."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id] + parts[::-1]) if isinstance(node, ast.Name) else ""


def _forbidden(module: str, name: str) -> bool:
    return (module.endswith("linalg") and name != "norm" or name == "ThreadPoolExecutor"
            or module.endswith("numkernel") and name in PIN_NAMES)


def _violations(tree) -> list:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            module, _, name = dotted.rpartition(".")
            if _forbidden(module, name) or name in PIN_NAMES:
                found.append(f"line {node.lineno}: calls {dotted}")
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = sorted(a.name for a in node.names if _forbidden(node.module, a.name))
            if names:
                found.append(f"line {node.lineno}: imports {', '.join(names)} from {node.module}")
    return found


def test_rule_sees_what_it_forbids():
    source = ("import numpy as np\nfrom concurrent.futures import ThreadPoolExecutor\n"
              "from numpy.linalg import eigh, norm\n"
              "from .numkernel import _single_threaded_blas, as_matrix\n"
              "from condspec.numkernel import _lapack_failure, _lapack\n"
              "np.linalg.svd(a)\nnumpy.linalg.svd(a, compute_uv=False)\n"
              "np.linalg.eigh(h)\nnp.linalg.solve(s, a)\nnp.linalg.norm(r)\n"
              "numkernel._lapack('x')\n")
    assert len(_violations(ast.parse(source))) == 9


@pytest.mark.parametrize("path", [p for p in SOURCES if p.stem != "numkernel"],
                         ids=lambda p: p.stem)
def test_only_numkernel_runs_svds_and_thread_pools(path):
    # svds stands for every LAPACK routine and the BLAS pin.
    assert _violations(ast.parse(path.read_text())) == []


def test_numkernel_holds_both():
    found = _violations(ast.parse((SOURCES[0].parent / "numkernel.py").read_text()))
    for what in ("linalg.svd", "linalg.eigh", "linalg.solve", "ThreadPoolExecutor"):
        assert any(what in line for line in found), what
