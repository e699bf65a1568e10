"""Command-line front end.

Complex flags accept "a+bi" (with optional parentheses, "i" or "j").
JSON output has fixed key order; exit codes: 0 ok, 1 parse error,
2 domain rejection, 3 convergence/tolerance failure.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math
import sys

from . import epsilon, formal, rho, sphere
from .elliptic import SeriesTolerance, eisenstein
from .errors import ConvergenceError, DomainError, SewingError, ToleranceError
from .lattice import TWO_PI_I
from .siegel import PeriodMatrix

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_DOMAIN = 2
EXIT_CONVERGENCE = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 by default; 2 is reserved for domain rejection
    def error(self, message):
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _require_flags(args, names) -> None:
    missing = [f"--{n.replace('_', '-')}" for n in names
               if getattr(args, n, None) is None]
    if missing:
        # sweep selects its chart with --over, the other commands with --formalism
        flag = "formalism" if hasattr(args, "formalism") else "over"
        raise ValueError(f"missing required flag(s) {', '.join(missing)} "
                         f"for --{flag} {getattr(args, flag, None)}")


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' style complex literals ('i', '-i', '2i', '(1+2i)', '1+2j')."""
    if text is None:
        raise ValueError("missing complex value")
    s = text.strip().replace(" ", "")
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    s = s.replace("i", "j")
    if s in ("j", "+j"):
        s = "1j"
    elif s == "-j":
        s = "-1j"
    else:
        # bare trailing j needs a digit: '+j' / '-j' inside like '1+j'
        s = s.replace("+j", "+1j").replace("-j", "-1j")
    try:
        z = complex(s)
    except ValueError:
        raise ValueError(f"cannot parse complex number {text!r}") from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"complex value {text!r} is not finite")
    return z


def _c2d(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _emit(args, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _tol(args) -> SeriesTolerance:
    return SeriesTolerance(abs_tol=args.tol, max_terms=args.max_terms)


def _pm_payload(om: PeriodMatrix, margin: float, order: int) -> dict:
    out = om.to_json_dict()
    out["margin"] = margin
    out["order"] = order
    return out


def _cmd_eisenstein(args) -> dict:
    tau = parse_complex(args.tau)
    val = eisenstein(args.k, tau, _tol(args))
    # the nome modulus is the natural convergence margin here
    return {"k": args.k, "tau": _c2d(tau), "value": _c2d(val),
            "margin": abs(cmath.exp(TWO_PI_I * tau)), "order": args.max_terms}


def _eps_point(args) -> epsilon.EpsPoint:
    _require_flags(args, ("tau1", "tau2", "eps"))
    return epsilon.EpsPoint(parse_complex(args.tau1), parse_complex(args.tau2),
                            parse_complex(args.eps))


def _rho_point(args) -> rho.RhoPoint:
    _require_flags(args, ("tau", "w", "rho"))
    return rho.RhoPoint(parse_complex(args.tau), parse_complex(args.w),
                        parse_complex(args.rho), args.branch)


def _cmd_period_eps(args) -> dict:
    p = _eps_point(args)
    margin = epsilon.in_domain_eps(p).margin
    om = epsilon.period_matrix_eps(p, args.order, _tol(args))
    return _pm_payload(om, margin, args.order)


def _cmd_period_rho(args) -> dict:
    p = _rho_point(args)
    margin = rho.in_domain_rho(p).margin
    om = rho.period_matrix_rho(p, args.order, _tol(args))
    out = _pm_payload(om, margin, args.order)
    out["branch"] = args.branch
    return out


def _cmd_necklace(args) -> dict:
    if args.formalism == "eps":
        p = _eps_point(args)
        margin = epsilon.in_domain_eps(p).margin
        om = epsilon.necklace_period_eps(p, args.max_order, _tol(args))
    else:
        p = _rho_point(args)
        margin = rho.in_domain_rho(p).margin
        om = rho.necklace_period_rho(p, args.max_order, _tol(args))
    return _pm_payload(om, margin, args.max_order)


def _parse_target(args) -> PeriodMatrix:
    return PeriodMatrix(parse_complex(args.omega11), parse_complex(args.omega12),
                        parse_complex(args.omega22))


def _cmd_invert(args) -> dict:
    target = _parse_target(args)
    tol = _tol(args)
    if args.formalism == "eps":
        p = epsilon.invert_eps(target, newton_tol=args.newton_tol, n=args.order, tol=tol)
        res = epsilon.period_matrix_eps(p, args.order, tol).max_abs_diff(target) \
            if p.eps != 0 else 0.0
        return {"tau1": _c2d(p.tau1), "tau2": _c2d(p.tau2), "eps": _c2d(p.eps),
                "residual": res, "order": args.order,
                "margin": epsilon.in_domain_eps(p).margin}
    c = rho.invert_chi(target, newton_tol=args.newton_tol, n=args.order, tol=tol)
    res = rho.chi_period(c, args.order, tol).max_abs_diff(target) if c.w != 0 else 0.0
    return {"tau": _c2d(c.tau), "w": _c2d(c.w), "chi": _c2d(c.chi),
            "residual": res, "order": args.order,
            "margin": rho.in_domain_rho(c.rho_point()).margin if c.w != 0 else 0.0}


_EPS_GENERATORS = {
    "T1": epsilon.GElement("gamma1", epsilon.SL2_T),
    "S1": epsilon.GElement("gamma1", epsilon.SL2_S),
    "T2": epsilon.GElement("gamma2", epsilon.SL2_T),
    "S2": epsilon.GElement("gamma2", epsilon.SL2_S),
    "beta": epsilon.GElement("beta"),
}

_RHO_GENERATORS = {
    "mu100": rho.LElement("mu", (1, 0, 0)),
    "mu010": rho.LElement("mu", (0, 1, 0)),
    "mu001": rho.LElement("mu", (0, 0, 1)),
    "T": rho.LElement("gamma1", mat=epsilon.SL2_T),
    "S": rho.LElement("gamma1", mat=epsilon.SL2_S),
}


def _cmd_equivariance(args) -> dict:
    tol = _tol(args)
    residuals = {}
    if args.formalism == "eps":
        p = _eps_point(args)
        margin = epsilon.in_domain_eps(p).margin
        for name, gel in _EPS_GENERATORS.items():
            residuals[name] = epsilon.equivariance_residual_eps(gel, p, args.order, tol)
    else:
        p = _rho_point(args)
        margin = rho.in_domain_rho(p).margin
        for name, gel in _RHO_GENERATORS.items():
            residuals[name] = rho.equivariance_residual_rho(gel, p, args.order, tol)
    return {"residuals": residuals, "margin": margin, "order": args.order}


def _cmd_catalan(args) -> dict:
    rep = sphere.catalan_report(parse_complex(args.chi), args.order, _tol(args))
    return {
        "chi": _c2d(parse_complex(args.chi)),
        "f": _c2d(rep["f"]),
        "q_computed": _c2d(rep["q_computed"]),
        "residuals": {
            "modulus": rep["residual_modulus"],
            "functional_eq": rep["residual_functional_eq"],
            "e2": rep["residual_e2"],
        },
        "order": args.order,
        "margin": abs(parse_complex(args.chi)) / 0.25,
    }


def _cmd_appendix_series(args) -> dict:
    if args.formalism == "eps":
        series = formal.symbolic_period_eps(args.order)
        param = "eps"
    else:
        series = formal.symbolic_period_rho(args.order)
        param = "rho"
    names = ("omega11", "omega12", "omega22")
    return {
        "formalism": args.formalism,
        "order": args.order,
        "margin": 0.0,  # exact series, no convergence margin
        "generators": [{"symbol": g.symbol, "weight": g.weight}
                       for g in formal.series_generators(*series)],
        "text": {nm: s.text(param) for nm, s in zip(names, series)},
        "terms": {nm: s.term_list(param) for nm, s in zip(names, series)},
    }


def _cmd_map_rho_to_eps(args) -> dict:
    c = rho.ChiPoint(parse_complex(args.tau), parse_complex(args.w),
                     parse_complex(args.chi))
    p = rho.eps_from_rho(c, args.order, args.newton_tol, _tol(args))
    return {"tau1": _c2d(p.tau1), "tau2": _c2d(p.tau2), "eps": _c2d(p.eps),
            "order": args.order,
            "margin": epsilon.in_domain_eps(p).margin}


def _cmd_sweep(args) -> int | dict:
    start = parse_complex(args.start)
    stop = parse_complex(args.stop)
    n = args.count
    values = [start + (stop - start) * (i / (n - 1) if n > 1 else 0.0)
              for i in range(n)]
    tol = _tol(args)

    if args.over == "eps":
        _require_flags(args, ("tau1", "tau2"))
    else:
        _require_flags(args, ("tau", "w"))

    def one(v: complex):
        if args.over == "eps":
            p = epsilon.EpsPoint(parse_complex(args.tau1),
                                 parse_complex(args.tau2), v)
            check = epsilon.in_domain_eps(p)
            if not check.ok:
                return v, None, check.margin
            return v, epsilon.period_matrix_eps(p, args.order, tol), check.margin
        p = rho.RhoPoint(parse_complex(args.tau), parse_complex(args.w), v,
                         args.branch)
        check = rho.in_domain_rho(p)
        if not check.ok:
            return v, None, check.margin
        return v, rho.period_matrix_rho(p, args.order, tol), check.margin

    rows = [one(v) for v in values]

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["param_re", "param_im", "omega11_re", "omega11_im",
                     "omega12_re", "omega12_im", "omega22_re", "omega22_im",
                     "margin", "order", "status"])
    for v, om, margin in rows:
        if om is None:
            writer.writerow([v.real, v.imag] + [""] * 6 + [margin, args.order,
                                                           "out-of-domain"])
        else:
            writer.writerow([v.real, v.imag,
                             om.omega11.real, om.omega11.imag,
                             om.omega12.real, om.omega12.imag,
                             om.omega22.real, om.omega22.imag,
                             margin, args.order, "ok"])
    text = buf.getvalue()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return None


def _add_common(p, tol_default=1e-12):
    p.add_argument("--tol", type=float, default=tol_default,
                   help="series tail tolerance")
    p.add_argument("--max-terms", type=int, default=10000, dest="max_terms")
    p.add_argument("--output", default=None, help="write output to file")


def build_parser() -> _Parser:
    ap = _Parser(prog="g2sew",
                 description="Genus-two period matrices from torus sewing data")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eisenstein", help="evaluate an Eisenstein series")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--tau", required=True)
    _add_common(p)

    p = sub.add_parser("period-eps", help="period matrix from two sewn tori")
    p.add_argument("--tau1", required=True)
    p.add_argument("--tau2", required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--order", type=int, default=12)
    _add_common(p)

    p = sub.add_parser("period-rho", help="period matrix from a self-sewn torus")
    p.add_argument("--tau", required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--rho", required=True)
    p.add_argument("--branch", type=int, default=0)
    p.add_argument("--order", type=int, default=12)
    _add_common(p)

    p = sub.add_parser("necklace", help="necklace-expansion period matrix")
    p.add_argument("--formalism", choices=("eps", "rho"), required=True)
    p.add_argument("--tau1"), p.add_argument("--tau2"), p.add_argument("--eps")
    p.add_argument("--tau"), p.add_argument("--w"), p.add_argument("--rho")
    p.add_argument("--branch", type=int, default=0)
    p.add_argument("--max-order", type=int, default=8, dest="max_order")
    _add_common(p)

    p = sub.add_parser("invert", help="invert the sewing map near degeneration")
    p.add_argument("--formalism", choices=("eps", "chi"), required=True)
    p.add_argument("--omega11", required=True)
    p.add_argument("--omega12", required=True)
    p.add_argument("--omega22", required=True)
    p.add_argument("--order", type=int, default=12)
    p.add_argument("--newton-tol", type=float, default=1e-10, dest="newton_tol")
    _add_common(p)

    p = sub.add_parser("equivariance", help="group-equivariance residual sweep")
    p.add_argument("--formalism", choices=("eps", "rho"), required=True)
    p.add_argument("--tau1"), p.add_argument("--tau2"), p.add_argument("--eps")
    p.add_argument("--tau"), p.add_argument("--w"), p.add_argument("--rho")
    p.add_argument("--branch", type=int, default=0)
    p.add_argument("--order", type=int, default=16)
    _add_common(p)

    p = sub.add_parser("catalan", help="sphere self-sewing identities")
    p.add_argument("--chi", required=True)
    p.add_argument("--order", type=int, default=24)
    _add_common(p)

    p = sub.add_parser("appendix-series", help="exact symbolic period series")
    p.add_argument("--formalism", choices=("eps", "rho"), required=True)
    p.add_argument("--order", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("map-rho-to-eps", help="compose F^chi with invert_eps")
    p.add_argument("--tau", required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--chi", required=True)
    p.add_argument("--order", type=int, default=12)
    p.add_argument("--newton-tol", type=float, default=1e-10, dest="newton_tol")
    _add_common(p)

    p = sub.add_parser(
        "sweep", help="grid over one parameter, CSV output",
        epilog="CSV columns: param_re, param_im, omega11_re, omega11_im, "
               "omega12_re, omega12_im, omega22_re, omega22_im, margin, "
               "order, status (ok | out-of-domain).")
    p.add_argument("--over", choices=("eps", "rho"), required=True)
    p.add_argument("--start", required=True)
    p.add_argument("--stop", required=True)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--tau1"), p.add_argument("--tau2")
    p.add_argument("--tau"), p.add_argument("--w")
    p.add_argument("--branch", type=int, default=0)
    p.add_argument("--order", type=int, default=12)
    _add_common(p)

    return ap


_HANDLERS = {
    "eisenstein": _cmd_eisenstein,
    "period-eps": _cmd_period_eps,
    "period-rho": _cmd_period_rho,
    "necklace": _cmd_necklace,
    "invert": _cmd_invert,
    "equivariance": _cmd_equivariance,
    "catalan": _cmd_catalan,
    "appendix-series": _cmd_appendix_series,
    "map-rho-to-eps": _cmd_map_rho_to_eps,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    handler = _HANDLERS[args.command]
    try:
        payload = handler(args)
    except ValueError as exc:
        print(f"g2sew: error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DomainError as exc:
        print(f"g2sew: domain rejection: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ConvergenceError, ToleranceError) as exc:
        print(f"g2sew: convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except SewingError as exc:
        print(f"g2sew: error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    if payload is not None:
        _emit(args, payload)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
