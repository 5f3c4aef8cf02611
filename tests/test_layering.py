"""Layering rules, read from the source: numkernel is the only module that
calls LAPACK (any np.linalg routine but norm), pins BLAS or builds a thread
pool, so the batched sigma(zI - A) primitive, the W(A) sweep, the BLAS pin
and the pool have one home; spectra.auto_grid is the only caller of
GridSpec.square, so auto grids have one rule; every default node count
is spectra.DEFAULT_GRID_NODES (or None, which reads it); and only cli and svgplot,
where kind names are text read or written, compare a value with a kind
name, so inside the library a kind is its SpectrumKind record; only
spectra, which writes them, knows the formats of the files plot reads
back (the field CSV header and the contour keys); only matrixio names
the matrix formats, whose reader table is cli's --format choices; and only
spectra builds a field (cli's compute aside, which writes one), so every
other field is read through spectra.field_for as a fact of its matrix;
and inside spectra grid nodes reach shifted_extremes only through
SpectralField._evaluate, so there is one node evaluator and one home for
its mirror rule; and the field CSV's grid reader never seeks, tells or
reads the whole file, so it reads a pipe in one pass."""

import argparse
import ast
from pathlib import Path

import pytest

import condspec
from condspec import cli, matrixio

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


def test_one_function_builds_the_thread_pool():
    # one pool per process: a second builder would run beside it
    tree = ast.parse((SOURCES[0].parent / "numkernel.py").read_text())

    def builds(node):
        return [c for c in ast.walk(node) if isinstance(c, ast.Call)
                and _dotted(c.func).rpartition(".")[2] == "ThreadPoolExecutor"]
    builders = [fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and builds(fn)]
    assert builders == ["_executor"] and len(builds(tree)) == 1


def _square_calls(tree, module: str) -> list:
    """Lines of the calls of a method named square outside spectra.auto_grid."""
    calls = {node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and node.func.attr == "square"}
    allowed = {node for fn in ast.walk(tree) if module == "spectra"
               and isinstance(fn, ast.FunctionDef) and fn.name == "auto_grid"
               for node in ast.walk(fn)}
    return sorted(node.lineno for node in calls - allowed)


def test_square_rule_sees_a_second_auto_grid_rule():
    source = ("class GridSpec:\n    @classmethod\n    def auto(cls, A, eps, n):\n"
              "        return cls.square(2.0, n)\n\n"
              "def auto_grid(A, eps, n):\n    return GridSpec.square(1.0, n)\n")
    assert _square_calls(ast.parse(source), "spectra") == [4]
    assert _square_calls(ast.parse(source), "cli") == [4, 7]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_only_auto_grid_builds_square_grids(path):
    assert _square_calls(ast.parse(path.read_text()), path.stem) == []


# The names a grid's node count is bound to: a check's grid and
# RunConfig.grid_nodes, and n in the grid builders (elsewhere n is a
# matrix dimension).
NODE_COUNT_NAMES = {"grid", "grid_nodes"}
GRID_BUILDERS = {"auto_grid", "square"}


def _reads_default_count(node) -> bool:
    """None, or the name DEFAULT_GRID_NODES (bare or as an attribute)."""
    if isinstance(node, ast.Constant):
        return node.value is None
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")
    return name == "DEFAULT_GRID_NODES"


def _node_count_defaults(node) -> list:
    """The defaults that a def, lambda, class field or --grid flag gives a
    node count."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        names = NODE_COUNT_NAMES | ({"n"} if getattr(node, "name", "") in GRID_BUILDERS else set())
        a = node.args
        positional = a.posonlyargs + a.args
        pairs = [*zip(positional[len(positional) - len(a.defaults):], a.defaults),
                 *zip(a.kwonlyargs, a.kw_defaults)]
        return [d for arg, d in pairs if d is not None and arg.arg in names]
    if (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
            and node.target.id in NODE_COUNT_NAMES and node.value):
        return [node.value]
    if isinstance(node, ast.Call):
        flags = [i for i, x in enumerate(node.args)
                 if isinstance(x, ast.Constant) and x.value == "--grid"]
        if flags:  # add_argument's default=, else _int_flag's next argument
            given = [k.value for k in node.keywords if k.arg == "default"]
            return given or node.args[flags[0] + 1:flags[0] + 2]
    return []


def _literal_node_counts(tree) -> list:
    """Lines of the node-count defaults that do not read DEFAULT_GRID_NODES."""
    return sorted(d.lineno for node in ast.walk(tree) for d in _node_count_defaults(node)
                  if not _reads_default_count(d))


def test_node_count_rule_sees_a_literal_default():
    source = ("def auto_grid(A, eps_max, n: int = 401, kind=CONDITION):\n    pass\n"
              "def square(cls, radius, n=spectra.DEFAULT_GRID_NODES):\n    pass\n"
              "def check_t5(A, S, eps, grid=161, *, seed=0):\n    pass\n"
              "def check_t2(A, eps, grid=None, count=48):\n    pass\n"
              "class RunConfig:\n    grid_nodes: int = 161\n    seed: int = 0\n"
              "_int_flag(p, '--grid', 161, 'grid nodes per axis')\n"
              "_int_flag(p, '--grid', DEFAULT_GRID_NODES, 'grid nodes per axis')\n"
              "p.add_argument('--grid', type=int, default=401)\n"
              "f = lambda *, grid=41: grid\n"
              "def generate(kind, n=2, seed=0):\n    pass\n")
    assert _literal_node_counts(ast.parse(source)) == [1, 5, 10, 12, 14, 15]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_node_count_defaults_read_the_one_default(path):
    assert _literal_node_counts(ast.parse(path.read_text())) == []


def _field_builds(tree, module: str) -> list:
    """Lines of the calls of compute_field outside spectra and cli.cmd_compute."""
    calls = {node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and _dotted(node.func).rpartition(".")[2] == "compute_field"}
    allowed = {node for fn in ast.walk(tree) if module == "cli"
               and isinstance(fn, ast.FunctionDef) and fn.name == "cmd_compute"
               for node in ast.walk(fn)}
    return sorted(node.lineno for node in calls - allowed) if module != "spectra" else []


def test_field_rule_sees_a_direct_build():
    source = ("from .spectra import compute_field, field_for\n"
              "def cmd_compute(config, grid):\n    return compute_field(config.matrix, grid)\n"
              "def check_t2(A, eps, grid=None):\n"
              "    field = spectra.compute_field(A, grid)\n"
              "    return field_for(A, grid, eps), compute_field\n")
    assert _field_builds(ast.parse(source), "cli") == [5]
    assert _field_builds(ast.parse(source), "theorems") == [3, 5]
    assert _field_builds(ast.parse(source), "spectra") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_only_spectra_and_compute_build_fields(path):
    assert _field_builds(ast.parse(path.read_text()), path.stem) == []


# Inside spectra, shifted_extremes is called by the node evaluator and by
# SpectrumKind.at, which takes given points; grid nodes go to neither but
# the evaluator.
NODE_EVALUATOR = "_evaluate"
POINT_EVALUATOR = "at"


def _called_name(call) -> str:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def _second_node_evaluators(tree) -> list:
    """Lines of the calls outside the node evaluator that reach
    shifted_extremes with grid nodes (an argument reading .nodes), or at
    all outside SpectrumKind.at."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and function != NODE_EVALUATOR:
                name = _called_name(child)
                nodes = any(isinstance(n, ast.Attribute) and n.attr == "nodes"
                            for arg in child.args for n in ast.walk(arg))
                if (name == "shifted_extremes" and (nodes or function != POINT_EVALUATOR)
                        or name == POINT_EVALUATOR and nodes):
                    found.append(child.lineno)
            visit(child, child.name if isinstance(child, ast.FunctionDef) else function)

    visit(tree, "")
    return sorted(found)


def test_node_evaluator_rule_sees_a_second_evaluator():
    source = ("class SpectralField:\n"
              "    def _evaluate(self, want):\n"
              "        return shifted_extremes(self._matrix, self.grid.nodes()[want])\n"
              "    def values(self):\n"
              "        return shifted_extremes(self._matrix, self.grid.nodes())\n"
              "    def at(self, A, zs):\n        return shifted_extremes(A, zs)\n"
              "def compute_field(A, grid):\n    return CONDITION.at(A, grid.nodes())\n"
              "def sample(A, zs):\n    return numkernel.shifted_extremes(A, zs)\n"
              "def in_spectrum(A, z, eps, kind):\n    return kind.at(A, z)\n")
    assert _second_node_evaluators(ast.parse(source)) == [5, 9, 11]


def test_spectra_has_one_node_evaluator():
    tree = ast.parse((SOURCES[0].parent / "spectra.py").read_text())
    assert _second_node_evaluators(tree) == []
    [evaluator] = [fn for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef) and fn.name == NODE_EVALUATOR]
    assert any(isinstance(n, ast.Call) and _called_name(n) == "shifted_extremes"
               for n in ast.walk(evaluator))


# A kind's names, and the modules where they are text: --kind's choices,
# contours_<name>.json and the SVG labels.
KIND_NAMES = {"condition", "pseudo", "both"}
NAME_EDGES = {"cli", "svgplot"}


def _is_kind_name(node) -> bool:
    """A "condition"/"pseudo"/"both" literal, a KIND_* name, or a tuple,
    list or set holding one."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_is_kind_name(e) for e in node.elts)
    if isinstance(node, ast.Constant):
        return isinstance(node.value, str) and node.value in KIND_NAMES
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")
    return name.startswith("KIND_")


def _name_comparisons(tree) -> list:
    """Lines of the comparisons with a kind name."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
                  and any(_is_kind_name(x) for x in [node.left, *node.comparators]))


def test_kind_rule_sees_a_name_comparison():
    source = ("def auto_grid(A, eps, n, kind=CONDITION):\n"
              "    if kind != KIND_CONDITION:\n        pass\n"
              "    if kind.name == 'pseudo' or spectra.KIND_PSEUDO == kind.name:\n        pass\n"
              "    if kind in ('both', PSEUDO):\n        pass\n"
              "    if kind == CONDITION or kind.name in names or kind.name == 'jordan':\n"
              "        pass\n")
    assert _name_comparisons(ast.parse(source)) == [2, 4, 4, 6]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.stem not in NAME_EDGES],
                         ids=lambda p: p.stem)
def test_only_the_edges_compare_kind_names(path):
    assert _name_comparisons(ast.parse(path.read_text())) == []


# The field CSV header and the contour keys.  "eps" is also a key of the
# verify report's details, which cli and theorems write as dict literals,
# so for it only a read (a subscript or .get) counts.
FORMAT_HOME = "spectra"
FIELD_CSV_HEADER = "re,im,sigma_min,sigma_max,ratio"


def _is_key_read(node, key: str) -> bool:
    """x["key"] or x.get("key")."""
    if isinstance(node, ast.Subscript):
        return isinstance(node.slice, ast.Constant) and node.slice.value == key
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get" and bool(node.args)
            and isinstance(node.args[0], ast.Constant) and node.args[0].value == key)


def _format_uses(tree) -> list:
    """Lines that hold the field CSV header or the "polylines" key, or read the "eps" key."""
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Constant) and isinstance(node.value, str)
                   and (FIELD_CSV_HEADER in node.value or node.value == "polylines")
                   or _is_key_read(node, "eps")})


def test_format_rule_sees_a_second_reader():
    source = ("HEADER = 're,im,sigma_min,sigma_max,ratio'\n"
              "for level in data:\n"
              "    polys = level['polylines']\n"
              "    eps = level.get('eps')\n"
              "    eps = level['eps']\n"
              "report = {'eps': 0.1, 'z': [0, 0]}\n"
              "args = dict(eps=0.1)\n"
              "value = args[name]\n")
    assert _format_uses(ast.parse(source)) == [1, 3, 4, 5]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.stem != FORMAT_HOME],
                         ids=lambda p: p.stem)
def test_only_spectra_knows_the_formats_plot_reads(path):
    assert _format_uses(ast.parse(path.read_text())) == []


def test_spectra_holds_both_formats():
    assert len(_format_uses(ast.parse((SOURCES[0].parent / "spectra.py").read_text()))) >= 4


# A matrix format name.  "json" and "csv" are also file suffixes and module
# names, so only "matrix-market" is sought.
MATRIX_FORMAT_NAME = "matrix-market"


def _matrix_format_names(tree) -> list:
    """Lines of the strings that hold the Matrix Market format name."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Constant)
                  and isinstance(node.value, str) and MATRIX_FORMAT_NAME in node.value)


def test_matrix_format_rule_sees_a_second_definition():
    source = ("FORMAT_CHOICES = ('json', 'csv', 'matrix-market')\n"
              "p.add_argument('--format', help='json, csv or matrix-market')\n"
              "fmt = matrixio.FORMAT_MATRIX_MARKET\n")
    assert _matrix_format_names(ast.parse(source)) == [1, 2]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.stem != "matrixio"],
                         ids=lambda p: p.stem)
def test_only_matrixio_names_the_matrix_formats(path):
    assert _matrix_format_names(ast.parse(path.read_text())) == []


def test_format_choices_are_the_reader_table():
    assert _matrix_format_names(ast.parse(Path(matrixio.__file__).read_text()))
    [sub] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    choices = [action.choices for parser in sub.choices.values() for action in parser._actions
               if "--format" in action.option_strings]
    assert len(choices) == 4 and all(c == tuple(matrixio.READERS) for c in choices)


# The field CSV's grid is read in one pass over the rows in file order, so a
# pipe reads as a file does: its streaming reader and its row rule call no
# method that rereads, rewinds or holds the whole file.
STREAMING_READERS = {"read_field_grid", "_grid_in_order"}
WHOLE_FILE_CALLS = {"seek", "tell", "read", "readlines"}


def _whole_file_calls(tree) -> list:
    """Lines of the seek, tell, read and readlines calls inside the streaming readers."""
    return sorted(node.lineno for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and fn.name in STREAMING_READERS
                  for node in ast.walk(fn) if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute) and node.func.attr in WHOLE_FILE_CALLS)


def test_streaming_rule_sees_a_second_pass():
    source = ("def read_field_grid(fp):\n    _read_field_header(fp)\n    start = fp.tell()\n"
              "    try:\n        return _grid_in_order(map(str.split, fp, repeat(',')))\n"
              "    except ValueError:\n        fp.seek(start)\n"
              "        return _grid_and_lines(fp.readlines())[0]\n"
              "def _grid_in_order(rows):\n    return rows.read()\n"
              "def read_field_csv(fp):\n    return fp.readlines()\n")
    assert _whole_file_calls(ast.parse(source)) == [3, 7, 8, 10]


def test_field_grid_is_read_in_one_pass():
    tree = ast.parse((SOURCES[0].parent / "spectra.py").read_text())
    readers = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)}
    assert STREAMING_READERS <= readers and _whole_file_calls(tree) == []
