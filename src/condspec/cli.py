"""Command-line front end.

    condspec gen      --kind jordan --n 4 --value 0.9 --out A.json
    condspec compute  --matrix A.json --eps 0.1,0.3 --kind both --out outdir
    condspec verify   --matrix A.json --eps 0.05,0.2 --theorems all --out report.json
    condspec plot     --field outdir/field.csv --contours outdir/contours_condition.json \
                      --matrix A.json --out fig.svg

Verify exit codes: 0 all checks passed, 1 at least one failed, 2 a
precondition was violated (also used for malformed inputs).  With
`--theorems all` the sweep skips (eps, theorem) combinations whose
preconditions do not hold and reports them as skipped; naming theorems
explicitly makes precondition violations fatal (exit 2).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import jsonio, matrixio, svgplot
from .errors import CondspecError, GridTooSmallError, ParseError, PreconditionError
from .numkernel import ComplexMatrix, eigenvalues
from .spectra import (
    GridSpec,
    KIND_CONDITION,
    KIND_PSEUDO,
    compute_field,
    eps_value,
    extract_contours,
    write_field_csv,
)
from .theorems import SIGMA_CHECKS, TransientConfig, run_suite
from .witness import membership_from_perturbation, witness_from_json_obj

DEFAULT_EPS = (0.1, 0.2, 0.3)


@dataclass
class RunConfig:
    """Everything a compute/verify run needs, resolved from flags."""

    matrix: ComplexMatrix
    eps_list: tuple = DEFAULT_EPS
    grid_nodes: int = 161
    grid: GridSpec | None = None
    kind: str = KIND_CONDITION
    out: Path = Path(".")
    seed: int = 0
    theorems: tuple = ()
    explicit_theorems: bool = False
    k_max: int = 50
    M: float = 2.0
    n_angles: int = 256
    samples: int = 48
    certificate: Path | None = None

    def resolve_grid(self) -> GridSpec:
        if self.grid is not None:
            return self.grid
        e_max = max(self.eps_list)
        g_cond = GridSpec.auto(self.matrix, min(e_max, 0.9), n=self.grid_nodes)
        if self.kind == KIND_CONDITION:
            return g_cond
        g_pseudo = GridSpec.auto(self.matrix, e_max, n=self.grid_nodes, kind=KIND_PSEUDO)
        radius = max(g_cond.re_max, g_pseudo.re_max)
        return GridSpec.square(radius, self.grid_nodes)


def cmd_compute(config: RunConfig) -> list[Path]:
    """Write field.csv plus one contour JSON per requested kind."""
    kinds = [config.kind] if config.kind != "both" else [KIND_CONDITION, KIND_PSEUDO]
    for e in config.eps_list:
        for k in kinds:
            eps_value(e, k)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    field = compute_field(config.matrix, config.resolve_grid())
    written = []
    field_path = out / "field.csv"
    with open(field_path, "w") as fp:
        write_field_csv(field, fp)
    written.append(field_path)
    for kind in kinds:
        contours = extract_contours(field, config.eps_list, kind)
        path = out / f"contours_{kind}.json"
        with open(path, "w") as fp:
            jsonio.dump(contours.to_json_obj(), fp)
        written.append(path)
        empty = [lv.eps for lv in contours.levels if not lv.polylines]
        if empty:
            print(f"note: no {kind} contour crosses the grid for eps = "
                  + ", ".join(f"{e:g}" for e in empty), file=sys.stderr)
    return written


def cmd_verify(config: RunConfig) -> tuple[list, int]:
    """Run the selected checks, write the report JSON, return exit code."""
    reports = []
    try:
        suite = run_suite(
            config.matrix, config.eps_list,
            theorems=config.theorems or None,
            grid=config.resolve_grid(),
            transient=TransientConfig(M=config.M, k_max=config.k_max),
            n_angles=config.n_angles,
            seed=config.seed,
            samples=config.samples,
            strict=config.explicit_theorems,
        )
        reports.extend(suite)
        if config.certificate is not None:
            reports.append(_certificate_report(config))
    except (PreconditionError, GridTooSmallError, ValueError) as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return reports, 2
    out = Path(config.out)
    if out.suffix != ".json":
        out = out / "report.json"
        out.parent.mkdir(parents=True, exist_ok=True)
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
    return reports, (1 if failed else 0)


def _certificate_report(config: RunConfig):
    from .report import TheoremReport

    obj = jsonio.loads(Path(config.certificate).read_text())
    w = witness_from_json_obj(obj)
    eps = config.eps_list[0]
    ok = membership_from_perturbation(config.matrix, w.z, w.E, eps)
    return TheoremReport("CERT", bool(ok), None, None, 0.0,
                         {"z": [w.z.real, w.z.imag], "eps": float(eps),
                          "status": "certificate accepted" if ok else "certificate rejected"})


def cmd_plot(field_path, contour_paths, matrix: ComplexMatrix | None,
             out_path, width: int = 640, height: int = 640) -> Path:
    """Render contour JSON (plus optional eigenvalue markers) to SVG."""
    bounds = None
    if field_path is not None:
        from .spectra import read_field_csv
        with open(field_path) as fp:
            f = read_field_csv(fp)
        bounds = (f.grid.re_min, f.grid.re_max, f.grid.im_min, f.grid.im_max)
    groups = []
    for cpath in contour_paths:
        name = Path(cpath).stem
        kind = KIND_PSEUDO if "pseudo" in name else KIND_CONDITION
        data = jsonio.loads(Path(cpath).read_text())
        if not isinstance(data, list):
            raise ParseError(f"{cpath}: contour JSON must be a list of levels")
        for level in data:
            if not (isinstance(level, dict) and isinstance(level.get("polylines"), list)
                    and isinstance(level.get("eps"), (int, float))):
                raise ParseError(f"{cpath}: each contour level must be an object with "
                                 "a numeric 'eps' and a 'polylines' list")
            try:
                polys = [np.asarray(p, dtype=np.float64).reshape(-1, 2)
                         for p in level["polylines"]]
            except (TypeError, ValueError) as exc:
                raise ParseError(f"{cpath}: polylines must be lists of [re, im] pairs") from exc
            groups.append((kind, float(level["eps"]), polys))
    eig = eigenvalues(matrix) if matrix is not None else None
    svg = svgplot.render_svg(groups, eigenvalues=eig, bounds=bounds,
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
    m = matrixio.generate(args.kind, n, value=_parse_complex_flag(args.value),
                          values=values, angle=args.angle, seed=args.seed)
    matrixio.write_matrix(m, args.out, args.format)
    return Path(args.out)


def _parse_complex_flag(text) -> complex:
    if isinstance(text, (int, float, complex)):
        return complex(text)
    return matrixio.parse_complex_token(str(text), 1, 1)


def _parse_eps_list(text: str) -> tuple:
    try:
        eps = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad eps list {text!r}")
    if not eps:
        raise argparse.ArgumentTypeError("eps list must be nonempty")
    return eps


def _parse_theorems(text: str) -> tuple:
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
        p.add_argument("--format", default=None, help="override matrix format detection")
        p.add_argument("--eps", type=_parse_eps_list, default=DEFAULT_EPS,
                       help="comma-separated eps values (default 0.1,0.2,0.3)")
        p.add_argument("--grid", type=int, default=161, help="grid nodes per axis")
        p.add_argument("--seed", type=int, default=0)

    p_comp = sub.add_parser("compute", help="write the field CSV and contour JSON")
    add_common(p_comp)
    p_comp.add_argument("--kind", choices=[KIND_CONDITION, KIND_PSEUDO, "both"],
                        default=KIND_CONDITION)
    p_comp.add_argument("--out", default="condspec-out", help="output directory")

    p_ver = sub.add_parser("verify", help="run theorem checks and write a report")
    add_common(p_ver)
    p_ver.add_argument("--theorems", type=_parse_theorems, default=(),
                       help="'all' (default) or comma-separated t1..t10")
    p_ver.add_argument("--k-max", type=int, default=50)
    p_ver.add_argument("--M", type=float, default=2.0)
    p_ver.add_argument("--angles", type=int, default=256)
    p_ver.add_argument("--samples", type=int, default=48)
    p_ver.add_argument("--certificate", default=None,
                       help="witness JSON to validate as a membership certificate")
    p_ver.add_argument("--out", default="report.json")

    p_plot = sub.add_parser("plot", help="render contours and eigenvalues to SVG")
    p_plot.add_argument("--field", default=None, help="field CSV from compute")
    p_plot.add_argument("--contours", action="append", default=[],
                        help="contour JSON from compute (repeatable)")
    p_plot.add_argument("--matrix", default=None, help="matrix file for eigenvalue markers")
    p_plot.add_argument("--format", default=None)
    p_plot.add_argument("--out", default="condspec.svg")
    p_plot.add_argument("--width", type=int, default=640)
    p_plot.add_argument("--height", type=int, default=640)

    p_gen = sub.add_parser("gen", help="generate an example matrix")
    p_gen.add_argument("--kind", choices=["jordan", "diag", "random", "rotation"],
                       required=True)
    p_gen.add_argument("--n", type=int, default=2)
    p_gen.add_argument("--value", default="0", help="jordan eigenvalue, e.g. 0.9 or 1+2i")
    p_gen.add_argument("--values", default=None, help="diag entries, e.g. 1,-1")
    p_gen.add_argument("--angle", type=float, default=0.5)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--format", default=None, choices=["json", "csv", "matrix-market"])
    p_gen.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
                               kind=args.kind, out=Path(args.out), seed=args.seed)
            for path in cmd_compute(config):
                print(f"wrote {path}")
            return 0

        if args.command == "verify":
            config = RunConfig(
                matrix=matrix, eps_list=args.eps, grid_nodes=args.grid,
                out=Path(args.out), seed=args.seed, theorems=args.theorems,
                explicit_theorems=bool(args.theorems), k_max=args.k_max,
                M=args.M, n_angles=args.angles, samples=args.samples,
                certificate=Path(args.certificate) if args.certificate else None)
            _, code = cmd_verify(config)
            return code
    except (ParseError, PreconditionError, GridTooSmallError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CondspecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
