"""Command-line interface.

Subcommands: model, spectrum, run, wkb, qref, gibbs, oscint, converge,
plotdata.  Tables are CSV with a header row; reports are JSON.  The exit
code is nonzero when a certificate fails (caustics, unresolved grids,
unbounded hitting times).
"""

import argparse
import ast
import csv
import json
import operator
import sys

import numpy as np

from . import dynamics, espec, gibbs, lab, oscint, qref, wkb
from . import model as model_mod
from .errors import QcmdError
from ._util import periodic_grid, stream_rng


def _load_model(path):
    return model_mod.build_model(model_mod.ModelSpec.from_file(path))


_FUNCTIONS = {"cos": np.cos, "sin": np.sin, "exp": np.exp, "tanh": np.tanh}
_OPERATORS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
              ast.Div: operator.truediv, ast.Pow: operator.pow}


def _compile(node):
    """node as a function of the names X, pi and L; ValueError outside the grammar."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        # a numpy scalar overflows to inf, where Python numbers raise or grow
        value = np.float64(node.value)
        return lambda names: value
    if isinstance(node, ast.Name) and node.id in ("X", "pi", "L"):
        name = node.id
        return lambda names: names[name]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        operand = _compile(node.operand)
        return lambda names: -operand(names)
    if isinstance(node, ast.BinOp) and type(node.op) in _OPERATORS:
        op, left, right = _OPERATORS[type(node.op)], _compile(node.left), _compile(node.right)
        return lambda names: op(left(names), right(names))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _FUNCTIONS and len(node.args) == 1 and not node.keywords):
        fn, arg = _FUNCTIONS[node.func.id], _compile(node.args[0])
        return lambda names: fn(arg(names))
    raise ValueError(f"{ast.unparse(node)!r} is not allowed in an observable")


def _parse_g(expr, L):
    """Observable expression in X: numbers, X, pi and L, the operators
    + - * / ** and unary minus, and calls of cos, sin, exp and tanh.
    Anything else raises ValueError before the expression is evaluated."""
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"observable {expr!r} does not parse: {exc.msg}") from None
    body = _compile(tree.body)
    return lambda X: body({"X": X, "pi": np.pi, "L": L})


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _cmd_model(args):
    if args.action == "list":
        for name in model_mod.list_families():
            print(name)
        return 0
    if args.config is None:
        raise ValueError("model show needs --config")
    model = _load_model(args.config)
    print(json.dumps(json.loads(model.spec().to_json()), indent=2))
    return 0


def _cmd_spectrum(args):
    model = _load_model(args.config)
    grid = periodic_grid(model.L, args.grid)
    field = espec.eigendecompose_field(model, grid)
    c = espec.detect_gap(field) if model.d > 1 else 0.0
    if model.d > 1:
        kap, _ = espec.kappa(model, (0.0, model.L * (1.0 - 1e-9)), 0.0)
    else:
        kap = 0.0
    header = (["X"] + [f"lambda_{n}" for n in range(model.d)]
              + ["gap_1", "c", "kappa"])
    rows = []
    for i, x in enumerate(grid):
        gap1 = field.gaps[i, 1] if model.d > 1 else 0.0
        rows.append([x, *field.lambdas[i], gap1, c, kap])
    _write_csv(args.out, header, rows)
    print(f"wrote {args.out}: c = {c:.6g}, kappa = {kap:.6g}")
    return 0


def _cmd_run(args):
    model = _load_model(args.config)
    M = args.M if args.M is not None else model.M[0]
    p0 = args.p0 if args.p0 is not None else 1.0
    if not (np.isfinite(args.x0) and np.isfinite(p0)):
        # simulate's message, given before anything evaluates V at x0
        raise RuntimeError(f"non-finite initial state in lane 0 "
                           f"(X = {np.array([args.x0])}, p = {np.array([p0])})")
    if args.p0 is None and args.energy:
        lam0 = espec.eigen_at(model, args.x0)[0][0]
        p0 = np.sqrt(max(2.0 * (args.energy - lam0), 0.0))
    phi = None
    if args.scheme == "ehrenfest":
        phi = dynamics.initial_electron_state(model, args.x0, p0, M,
                                              perp_correction=args.perp_correction)
    init = dynamics.PhaseState.make(args.x0, p0, phi=phi)
    rng = stream_rng(args.seed)
    traj = dynamics.simulate(model, init, args.scheme, T_final=args.tfinal,
                             dt=args.dt, surface=args.surface, rng=rng, M=M,
                             T=model.T, K=model.K)
    header = ["t", "X", "p", "H", "z"]
    if traj.phi is not None:
        header += [f"phi_re_{n}" for n in range(model.d)]
        header += [f"phi_im_{n}" for n in range(model.d)]
    rows = []
    for i in range(traj.t.size):
        row = [traj.t[i], traj.X[i, 0], traj.p[i, 0], traj.H[i], traj.z[i]]
        if traj.phi is not None:
            row += list(traj.phi[i].real) + list(traj.phi[i].imag)
        rows.append(row)
    _write_csv(args.out, header, rows)
    print(f"wrote {args.out}: {traj.t.size} samples, {len(traj.hits)} hits")
    return 0


def _cmd_wkb(args):
    model = _load_model(args.config)
    field = wkb.build_field(model, args.M, args.k, scheme=args.scheme,
                            n_grid=args.ngrid)
    header = (["X", "theta", "p", "G", "rho"]
              + [f"psi_re_{n}" for n in range(model.d)]
              + [f"psi_im_{n}" for n in range(model.d)])
    rows = []
    for i, x in enumerate(field.grid):
        rows.append([x, field.theta[i], field.pfield[i], field.G[i], field.rho[i],
                     *field.psi[i].real, *field.psi[i].imag])
    _write_csv(args.out, header, rows)
    print(f"wrote {args.out}: E = {field.E:.12g}")
    return 0


def _cmd_qref(args):
    model = _load_model(args.config)
    e_kin = None
    if args.emax is not None:
        e_kin = args.emax
    H = qref.assemble_hamiltonian(model, args.M, args.ngrid, e_max=e_kin)
    pairs = qref.eigensolve_near(H, args.etarget, count=args.count)
    header = ["E", "residual"] + [f"rho_{i}" for i in range(0, H.n_grid, max(1, H.n_grid // 16))]
    rows = []
    for pair in pairs:
        sampled = pair.density[::max(1, H.n_grid // 16)]
        rows.append([pair.E, pair.residual, *sampled])
    _write_csv(args.out, header, rows)
    print(f"wrote {args.out}: " + ", ".join(f"{p.E:.9g}" for p in pairs))
    return 0


def _cmd_gibbs(args):
    model = _load_model(args.config)
    g = _parse_g(args.g, model.L)
    rng = stream_rng(args.seed)
    report = gibbs.gibbs_observable(model, g, args.T, n_samples=args.samples, rng=rng)
    if model.d > 1:
        kap, t_over_gap = espec.kappa(model, (0.0, model.L * (1.0 - 1e-9)), 0.0,
                                      T=args.T)
    else:
        kap, t_over_gap = 0.0, 0.0
    payload = {
        "value": report.value,
        "value_plain": report.value_plain,
        "difference": report.difference,
        "sigma": report.sigma,
        "kappa": kap,
        "t_over_gap": t_over_gap,
        "T": args.T,
        "g": args.g,
        "samples": args.samples,
        "seed": args.seed,
    }
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"wrote {args.out}: value = {report.value:.6g} (plain {report.value_plain:.6g})")
    return 0


def _cmd_oscint(args):
    M_list = [float(m) for m in args.M.split(",")]
    rows = []
    if args.demo == "fresnel":
        for M in M_list:
            itg = oscint.OscillatoryIntegrand(
                Q=lambda s: 0.5 * s * s, f=lambda s: np.exp(-0.5 * s * s),
                M=M, interval=(-8.0, 8.0), dQ=lambda s: s, d2Q=lambda s: np.ones_like(s))
            val, err = oscint.oscillatory_quadrature(itg)
            exact = np.sqrt(2.0 * np.pi / (1.0 - 1j * np.sqrt(M)))
            rows.append([M, val.real, val.imag, err, abs(val - exact)])
        header = ["M", "re", "im", "err_estimate", "abs_dev_from_closed_form"]
    elif args.demo in ("overlap", "crossing"):
        spec = model_mod.ModelSpec(family="scalar_cos", params={"a": 0.1})
        model = model_mod.build_model(spec)
        for M in M_list:
            k = wkb.bohr_sommerfeld_index(model, 1.0, M)
            fa = wkb.build_field(model, M, k, n_grid=512)
            if args.demo == "overlap":
                fb = wkb.WkbField(grid=fa.grid, E=fa.E, theta=-fa.theta,
                                  pfield=-fa.pfield, G=fa.G, rho=fa.rho,
                                  psi=fa.psi, M=fa.M, scheme=fa.scheme, k=-fa.k)
                res = oscint.mode_overlap(fa, fb, lambda x: np.cos(2 * np.pi * x / model.L), M)
            else:
                fb = wkb.build_field(model, M, k + 1, n_grid=512)
                res = oscint.mode_overlap(fa, fb, lambda x: np.cos(2 * np.pi * x / model.L), M)
            rows.append([M, res.value.real, res.value.imag, abs(res.value),
                         res.classification])
        header = ["M", "re", "im", "abs", "classification"]
    else:
        raise QcmdError(f"unknown demo {args.demo!r}")
    _write_csv(args.out, header, rows)
    print(f"wrote {args.out}")
    return 0


def _cmd_converge(args):
    model = _load_model(args.config)
    M_list = [float(m) for m in args.M.split(",")]
    record = lab.converge(model, args.scheme, M_list, seed=args.seed,
                          n_loops=args.loops)
    with open(args.out, "w") as handle:
        handle.write(record.to_json())
    if record.alpha is None:
        print(f"wrote {args.out}: no rate fitted (it needs at least 3 masses)")
    else:
        print(f"wrote {args.out}: alpha = {record.alpha:.3f} +/- {record.alpha_stderr:.3f}")
    return 0


def _cmd_plotdata(args):
    with open(args.record) as handle:
        record = lab.RunRecord.from_json(handle.read())
    header = ["M", "error", "fit"]
    # the fit column stays empty when the record has no fitted rate
    rows = [[e["M"], e["error"],
             "" if record.alpha is None
             else float(np.exp(record.intercept) * e["M"] ** (-record.alpha))]
            for e in record.per_M]
    _write_csv(args.out, header, rows)
    print(f"wrote {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="qcmd",
                                     description="quantum-classical dynamics laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("model", help="list families or show a config")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("--config")
    p.set_defaults(func=_cmd_model)

    p = sub.add_parser("spectrum", help="electron spectrum along the torus")
    p.add_argument("--config", required=True)
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("run", help="integrate one trajectory")
    p.add_argument("--config", required=True)
    p.add_argument("--scheme", required=True,
                   choices=["ehrenfest", "bo", "langevin", "smoluchowski"])
    p.add_argument("--M", type=float)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--tfinal", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--p0", type=float)
    p.add_argument("--energy", type=float)
    p.add_argument("--surface", type=float)
    p.add_argument("--perp-correction", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("wkb", help="assemble the WKB grid fields")
    p.add_argument("--config", required=True)
    p.add_argument("--M", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--scheme", choices=["bo", "ehrenfest"], default="bo")
    p.add_argument("--ngrid", type=int, default=1024)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_wkb)

    p = sub.add_parser("qref", help="exact eigenpairs near a target energy")
    p.add_argument("--config", required=True)
    p.add_argument("--M", type=float, required=True)
    p.add_argument("--ngrid", type=int, required=True)
    p.add_argument("--etarget", type=float, required=True)
    p.add_argument("--count", type=int, default=2)
    p.add_argument("--emax", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_qref)

    p = sub.add_parser("gibbs", help="equilibrium observable report")
    p.add_argument("--config", required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--g", default="cos(2*pi*X/L)")
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gibbs)

    p = sub.add_parser("oscint", help="oscillatory integral demos")
    p.add_argument("--demo", choices=["fresnel", "overlap", "crossing"], required=True)
    p.add_argument("--M", required=True, help="comma-separated mass list")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_oscint)

    p = sub.add_parser("converge", help="mass sweep against the exact reference")
    p.add_argument("--config", required=True)
    p.add_argument("--scheme", choices=["bo", "ehrenfest"], required=True)
    p.add_argument("--M", required=True, help="comma-separated mass list")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--loops", type=int, default=8)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("plotdata", help="rate table from a run record")
    p.add_argument("record")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_plotdata)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QcmdError as exc:
        print(f"certificate failed: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        # OSError: a config or record that cannot be read, an --out that
        # cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
