"""Command-line front end.

    condspec gen      --kind jordan --n 4 --value 0.9 --out A.json
    condspec compute  --matrix A.json --eps 0.1,0.3 --kind both --out outdir
    condspec verify   --matrix A.json --eps 0.05,0.2 --theorems all --out report.json
    condspec plot     --field outdir/field.csv --contours outdir/contours_condition.json \
                      --matrix A.json --out fig.svg

Verify exit codes: 0 all checks passed, 1 at least one failed, 2 a
precondition was violated (also used, by every command, for malformed
inputs and for a file that cannot be read or written).  With `--theorems
all` the sweep skips (eps, theorem) combinations whose preconditions do
not hold and reports them as skipped; naming theorems explicitly makes
precondition violations fatal (exit 2).

Only verify imports theorems, witness and report, and only plot svgplot.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import jsonio, matrixio
from .errors import CondspecError, GridTooSmallError, ParseError, PreconditionError
from .numkernel import ComplexMatrix, eigenvalues
from .spectra import (
    CONDITION,
    DEFAULT_GRID_NODES,
    PSEUDO,
    ContourSet,
    GridSpec,
    auto_grid,
    compute_field,
    extract_contours,
    read_field_grid,
    write_field_csv,
)

DEFAULT_EPS = (0.1, 0.2, 0.3)

# compute --kind: each choice and the kinds it computes.
KIND_CHOICES = {CONDITION.name: (CONDITION,), PSEUDO.name: (PSEUDO,),
                "both": (CONDITION, PSEUDO)}

FORMAT_CHOICES = tuple(matrixio.READERS)

# Each integer flag's range, low to high (None: no upper bound), checked
# when the flags are parsed.  A 4096^2 grid's node array alone takes
# 256 MiB; --n is the largest matrix the parser reads; a plot side below
# 2 * svgplot.MARGIN + 1 = 97 leaves the plot frame no interior.
INT_RANGES = {"--grid": (2, 4096), "--seed": (0, None), "--k-max": (1, 100_000),
              "--angles": (8, 65536), "--samples": (1, 65536),
              "--n": (1, matrixio.MAX_DIMENSION), "--width": (97, None), "--height": (97, None)}


@dataclass
class RunConfig:
    """Everything a compute/verify run needs, resolved from flags."""

    matrix: ComplexMatrix
    eps_list: tuple = DEFAULT_EPS
    grid_nodes: int = DEFAULT_GRID_NODES
    kinds: tuple = (CONDITION,)
    out: Path = Path(".")
    seed: int = 0
    theorems: tuple = ()
    k_max: int = 50
    M: float = 2.0
    n_angles: int = 256
    samples: int = 48
    certificate: Path | None = None

    def check_eps(self) -> None:
        """Each eps checked by each kind's rule, before anything is written."""
        for e in self.eps_list:
            for kind in self.kinds:
                kind.eps(e)

    def resolve_grid(self) -> GridSpec:
        """The auto grid, widened for the pseudospectrum when it is computed or checked."""
        kind = PSEUDO if PSEUDO in self.kinds else CONDITION
        return auto_grid(self.matrix, max(self.eps_list), self.grid_nodes, kind)


def cmd_compute(config: RunConfig) -> list[Path]:
    """Write field.csv plus one contour JSON per requested kind."""
    config.check_eps()
    grid = config.resolve_grid()
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    field = compute_field(config.matrix, grid)
    written = []
    field_path = out / "field.csv"
    with open(field_path, "w") as fp:
        write_field_csv(field, fp)
    written.append(field_path)
    for kind in config.kinds:
        contours = extract_contours(field, config.eps_list, kind)
        path = out / f"contours_{kind.name}.json"
        with open(path, "w") as fp:
            jsonio.dump(contours.to_json_obj(), fp)
        written.append(path)
        empty = [lv.eps for lv in contours.levels if not lv.polylines]
        if empty:
            print(f"note: no {kind.name} contour crosses the grid for eps = "
                  + ", ".join(f"{e:g}" for e in empty), file=sys.stderr)
    return written


def cmd_verify(config: RunConfig) -> int:
    """Run the selected checks, write the report JSON, return exit code.
    Every input, and then the report path, is checked before the suite
    runs; a suite that raises removes the directories made for the report."""
    from .theorems import TransientConfig, run_suite

    config.check_eps()
    grid = config.resolve_grid()
    transient = TransientConfig(M=config.M, k_max=config.k_max)
    witness = None if config.certificate is None else _load_certificate(config)
    out = Path(config.out)
    if out.suffix != ".json":
        out = out / "report.json"
    made = [p for p in out.parents if not p.exists()]  # innermost first
    out.parent.mkdir(parents=True, exist_ok=True)
    try:
        reports = run_suite(config.matrix, config.eps_list, theorems=config.theorems or None,
                            grid=grid, transient=transient, n_angles=config.n_angles,
                            seed=config.seed, samples=config.samples,
                            strict=bool(config.theorems))
    except BaseException:
        for p in made:
            p.rmdir()
        raise
    if witness is not None:
        reports.append(_certificate_report(config, witness))
    with open(out, "w") as fp:
        jsonio.dump([r.to_dict() for r in reports], fp)
    failed = [r for r in reports if not r.passed]
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        note = r.details.get("status", "")
        print(f"{r.theorem_id}: {status}" + (f" ({note})" if note else ""))
    passed = [r for r in reports if r.passed and not r.skipped]
    print(f"{len(passed)} passed ({sum(r.vacuous for r in passed)} vacuous), "
          f"{len(failed)} failed, {len(reports) - len(passed) - len(failed)} skipped")
    return 1 if failed else 0


def _load_certificate(config: RunConfig):
    from .witness import witness_from_json_obj

    try:
        obj = jsonio.loads(Path(config.certificate).read_text())
    except ValueError as exc:
        raise ParseError(f"{config.certificate}: not JSON: {exc}") from None
    w = witness_from_json_obj(obj)
    if w.E.n != config.matrix.n:
        raise ParseError(f"certificate 'E' is {w.E.n} x {w.E.n}, the matrix is "
                         f"{config.matrix.n} x {config.matrix.n}")
    return w


def _certificate_report(config: RunConfig, w):
    from .report import TheoremReport
    from .witness import membership_from_perturbation

    eps = config.eps_list[0]
    ok = membership_from_perturbation(config.matrix, w.z, w.E, eps)
    return TheoremReport("CERT", bool(ok), None, None, 0.0,
                         {"z": [w.z.real, w.z.imag], "eps": float(eps),
                          "status": "certificate accepted" if ok else "certificate rejected"})


def cmd_plot(field_path, contour_paths, matrix: ComplexMatrix | None,
             out_path, width: int = 640, height: int = 640) -> Path:
    """Render contour JSON (plus optional eigenvalue markers) to SVG.  Each
    level's eps is checked against the kind its file name gives."""
    from . import svgplot

    bounds = None
    if field_path is not None:
        with open(field_path) as fp:
            grid = read_field_grid(fp)
        bounds = (grid.re_min, grid.re_max, grid.im_min, grid.im_max)
    levels = []
    for cpath in contour_paths:
        kind = PSEUDO if PSEUDO.name in Path(cpath).stem else CONDITION
        data = jsonio.loads(Path(cpath).read_text())
        try:
            levels += ContourSet.from_json_obj(data, kind).levels
        except ValueError as exc:
            raise ParseError(f"{cpath}: {exc}") from None
    eig = eigenvalues(matrix) if matrix is not None else None
    svg = svgplot.render_svg(levels, eigenvalues=eig, bounds=bounds,
                             width=width, height=height)
    out = Path(out_path)
    out.write_text(svg)
    return out


def cmd_gen(args) -> Path:
    values = None
    if args.values:
        values = [matrixio.parse_complex_token(tok, 1, i + 1)
                  for i, tok in enumerate(args.values.split(","))]
    n = args.n if not values else len(values)
    m = matrixio.generate(args.kind, n, value=matrixio.parse_complex_token(args.value),
                          values=values, angle=args.angle, seed=args.seed)
    matrixio.write_matrix(m, args.out, args.format)
    return Path(args.out)


def _parse_eps_list(text: str) -> tuple:
    try:
        eps = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad eps list {text!r}")
    if not eps:
        raise argparse.ArgumentTypeError("eps list must be nonempty")
    return eps


def _int_flag(parser, flag: str, default: int, what: str) -> None:
    """Add an integer flag; its argparse type and its help text both read
    the flag's INT_RANGES row."""
    low, high = INT_RANGES[flag]
    bound = f">= {low}" if high is None else f"from {low} to {high}"

    def parse(text: str) -> int:
        try:
            if low <= (value := int(text)) and (high is None or value <= high):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be an integer {bound}, got {text!r}")

    parser.add_argument(flag, type=parse, default=default,
                        help=f"{what}, an integer {bound} (default {default})")


def _value_list(text: str) -> str:
    """argparse type for gen --values: at most as many entries as --n allows."""
    high = INT_RANGES["--n"][1]
    count = text.count(",") + 1
    if count > high:
        raise argparse.ArgumentTypeError(f"must list at most {high} values, got {count}")
    return text


def _threshold(text: str) -> float:
    """argparse type for verify --M: a finite number > 0."""
    try:
        if 0.0 < (value := float(text)) < np.inf:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")


def _parse_theorems(text: str) -> tuple:
    from .theorems import SIGMA_CHECKS

    if text.strip().lower() == "all":
        return ()
    names = tuple(tok.strip().lower() for tok in text.split(",") if tok.strip())
    for name in names:
        if name not in SIGMA_CHECKS:
            raise argparse.ArgumentTypeError(
                f"unknown theorem {name!r}; choose among {', '.join(SIGMA_CHECKS)} or 'all'")
    return names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="condspec",
        description="Condition spectra and pseudospectra: fields, contours, "
                    "witnesses and theorem verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--matrix", required=True, help="matrix file (.json/.csv/.mtx)")
        p.add_argument("--format", default=None, choices=FORMAT_CHOICES,
                       help="override matrix format detection")
        p.add_argument("--eps", type=_parse_eps_list, default=DEFAULT_EPS,
                       help="comma-separated eps values (default 0.1,0.2,0.3)")
        _int_flag(p, "--grid", DEFAULT_GRID_NODES, "grid nodes per axis")

    p_comp = sub.add_parser("compute", help="write the field CSV and contour JSON")
    add_common(p_comp)
    p_comp.add_argument("--kind", choices=list(KIND_CHOICES), default=CONDITION.name)
    p_comp.add_argument("--out", default="condspec-out", help="output directory")

    p_ver = sub.add_parser("verify", help="run theorem checks and write a report")
    add_common(p_ver)
    _int_flag(p_ver, "--seed", 0, "seed of the sampled points")
    p_ver.add_argument("--theorems", type=_parse_theorems, default=(),
                       help="'all' (default) or comma-separated t1..t10")
    _int_flag(p_ver, "--k-max", 50, "T6 power horizon")
    p_ver.add_argument("--M", type=_threshold, default=2.0,
                       help="T6 power-norm threshold, a finite number > 0 (default 2)")
    _int_flag(p_ver, "--angles", 256, "T9 support angles")
    _int_flag(p_ver, "--samples", 48, "points per sampled check")
    p_ver.add_argument("--certificate", default=None,
                       help="witness JSON to validate as a membership certificate")
    p_ver.add_argument("--out", default="report.json")

    p_plot = sub.add_parser("plot", help="render contours and eigenvalues to SVG")
    p_plot.add_argument("--field", default=None, help="field CSV from compute")
    p_plot.add_argument("--contours", action="append", default=[],
                        help="contour JSON from compute (repeatable)")
    p_plot.add_argument("--matrix", default=None, help="matrix file for eigenvalue markers")
    p_plot.add_argument("--format", default=None, choices=FORMAT_CHOICES)
    p_plot.add_argument("--out", default="condspec.svg")
    _int_flag(p_plot, "--width", 640, "image width in px")
    _int_flag(p_plot, "--height", 640, "image height in px")

    p_gen = sub.add_parser("gen", help="generate an example matrix")
    p_gen.add_argument("--kind", choices=["jordan", "diag", "random", "rotation"],
                       required=True)
    _int_flag(p_gen, "--n", 2, "dimension")
    p_gen.add_argument("--value", default="0", help="jordan eigenvalue, e.g. 0.9 or 1+2i")
    p_gen.add_argument("--values", type=_value_list, default=None,
                       help=f"diag entries, e.g. 1,-1; at most {INT_RANGES['--n'][1]}")
    p_gen.add_argument("--angle", type=float, default=0.5)
    _int_flag(p_gen, "--seed", 0, "seed of the random generator")
    p_gen.add_argument("--format", default=None, choices=FORMAT_CHOICES)
    p_gen.add_argument("--out", required=True)
    return parser


# main's parser, built on its first call: parse_args leaves it unchanged.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "gen":
            path = cmd_gen(args)
            print(f"wrote {path}")
            return 0

        if args.command == "plot":
            matrix = (matrixio.parse_matrix(Path(args.matrix), args.format)
                      if args.matrix else None)
            out = cmd_plot(args.field, args.contours, matrix, args.out,
                           args.width, args.height)
            print(f"wrote {out}")
            return 0

        matrix = matrixio.parse_matrix(Path(args.matrix), args.format)
        if args.command == "compute":
            config = RunConfig(matrix=matrix, eps_list=args.eps, grid_nodes=args.grid,
                               kinds=KIND_CHOICES[args.kind], out=Path(args.out))
            for path in cmd_compute(config):
                print(f"wrote {path}")
            return 0

        if args.command == "verify":
            config = RunConfig(  # the checks read both spectra from one field
                matrix=matrix, eps_list=args.eps, grid_nodes=args.grid, kinds=(CONDITION, PSEUDO),
                out=Path(args.out), seed=args.seed, theorems=args.theorems,
                k_max=args.k_max, M=args.M, n_angles=args.angles, samples=args.samples,
                certificate=Path(args.certificate) if args.certificate else None)
            return cmd_verify(config)
    except (ParseError, PreconditionError, GridTooSmallError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CondspecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
