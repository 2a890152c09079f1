"""Command-line front end.

Subcommands: dim, bounds, tables, witness, hasse, verify, d2-oracle.
Every run is deterministic for a fixed flag set and seed; rationals are
printed as "p/q" in lowest terms (integers bare), never as decimals, so
outputs are golden-file comparable.  Exit codes: 0 success, 1 invalid
input, 2 budget refusal.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from fractions import Fraction

from . import bounds as bd
from . import kisin_model as km
from . import perm as pm
from . import solver as sv
from .polyhedra import fmt_frac, frac


def _encode(obj):
    if isinstance(obj, Fraction):
        return fmt_frac(obj)
    if isinstance(obj, dict):
        return {k: _encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(v) for v in obj]
    if isinstance(obj, pm.Permutation):
        return obj.label()
    return obj


def _emit(text: str, out: str | None) -> None:
    """Write atomically: no partial files on failure."""
    if out is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".kisindim-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_dumps(payload) -> str:
    return json.dumps(_encode(payload), sort_keys=True, indent=2) + "\n"


def _instance(args) -> km.KisinInstance:
    return km.KisinInstance(args.d, args.b, bool(getattr(args, "h0", False)))


def _mu_tuple(raw: str) -> tuple[int, ...]:
    return tuple(int(x) for x in raw.split(","))


def _one_target(args) -> None:
    """--mu and --e select different queries: exactly one must be given,
    and --le-mu qualifies --mu."""
    if (args.mu is None) == (args.e is None):
        raise ValueError(f"{args.command} needs exactly one of --mu and --e")
    if getattr(args, "le_mu", False) and args.mu is None:
        raise ValueError("--le-mu needs --mu")


def cmd_dim(args) -> int:
    _one_target(args)
    inst = _instance(args)
    if args.mu is not None:
        query = sv.DimQuery(inst, "le_mu" if args.le_mu else "mu",
                            mu=_mu_tuple(args.mu))
    else:
        query = sv.DimQuery(inst, "le_e", e=args.e)
    result = sv.dim_exact(query, budget=args.budget)
    payload = {"query": query.to_dict(), **result.to_dict()}
    payload.pop("nodes", None)  # diagnostics, not part of the report schema
    _emit(_json_dumps(payload), args.out)
    return 0


def cmd_bounds(args) -> int:
    _one_target(args)
    inst = _instance(args)
    witnesses = {}
    if args.e is not None:
        report = bd.theorem_bounds("le_e", args.e, inst)
        _, wrep = bd.witness_le_e(inst, args.e)
        witnesses["le_e"] = wrep
    else:
        mu = _mu_tuple(args.mu)
        target = "le_mu" if args.le_mu else "mu"
        report = bd.theorem_bounds(target, mu, inst)
        if target == "le_mu" and bd.regularity(
                tuple(map(frac, mu)), inst).strongly_integrally_b_regular:
            _, wrep = bd.witness_le_mu(inst, tuple(map(frac, mu)))
            witnesses["le_mu"] = wrep
    payload = {"target": report.pop("target"), "params": report.pop("params"),
               "lower": report.pop("lower"), "upper": report.pop("upper", None),
               "witnesses": witnesses, "details": report}
    _emit(_json_dumps(payload), args.out)
    return 0


def cmd_tables(args) -> int:
    if (args.dmax is None) == (args.d is None):
        raise ValueError("tables needs exactly one of --d and --dmax")
    if args.dmax is not None and args.dmax < 2:
        raise ValueError("tables --dmax must be >= 2, the first row of the table")
    ds = range(2, args.dmax + 1) if args.dmax is not None else (args.d,)
    for d in ds:
        validity = bd.TABLE2_VALIDITY.get(d)
        if validity is not None and args.b < validity:
            raise ValueError(
                f"outside validity domain: the d={d} vertex table needs b >= {validity}")
    if args.dmax is not None:
        lines = ["d,K,K_plus_Cstar"]
        for d in ds:
            kt = bd.k_polytopes(km.KisinInstance(d, args.b))
            lines.append(f"{d},{kt.counts[0]},{kt.counts[1]}")
        _emit("\n".join(lines) + "\n", args.out)
        return 0
    kt = bd.k_polytopes(km.KisinInstance(args.d, args.b))
    if args.format == "json":
        _emit(kt.to_json() + "\n", args.out)
    else:
        _emit(kt.coords_csv(), args.out)
    return 0


def cmd_witness(args) -> int:
    _one_target(args)
    inst = _instance(args)
    if args.e is not None:
        q, report = bd.witness_le_e(inst, args.e)
    else:
        q, report = bd.witness_le_mu(inst, tuple(map(frac, _mu_tuple(args.mu))))
    payload = {"q": json.loads(q.to_json()), "report": report}
    _emit(_json_dumps(payload), args.out)
    return 0


def cmd_hasse(args) -> int:
    _emit(pm.hasse_dot(args.d), args.out)
    return 0


def cmd_d2_oracle(args) -> int:
    data = km.d2_lattice_invariants(args.alpha, args.gamma, args.delta, args.b)
    prof = data.profile
    payload = {
        "b": args.b, "alpha": args.alpha, "gamma": args.gamma, "delta": args.delta,
        "mu1": data.mu1, "mu2": data.mu2,
        "phi_breakpoints": [list(map(list, pieces)) for pieces in prof.phi_pieces],
        "psi_breakpoints": [list(map(list, pieces)) for pieces in prof.psi_pieces],
        "valid_profile": km.validate_phi(prof),
    }
    _emit(_json_dumps(payload), args.out)
    return 0


def cmd_verify(args) -> int:
    import random

    failures = []
    lines = []

    def run(name, fn):
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure with its message
            ok, detail = False, repr(exc)
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name}" + ("" if ok else f"  [{detail}]"))
        if not ok:
            failures.append(name)

    def suite_solver():
        rep = sv.consistency_suite(seed=args.seed, budget=args.budget)
        return rep["passed"], rep["failures"][:3]

    def suite_dual_oracles():
        from .polyhedra import graph_cone_dual_membership

        rng = random.Random(args.seed)
        for k in range(120):
            n = rng.randint(2, 6)
            nodes = list(range(n))
            arcs = [(u, v) for u in nodes for v in nodes
                    if u != v and rng.random() < 0.4]
            x = [Fraction(rng.randint(-4, 4)) for _ in nodes]
            if rng.random() < 0.5:
                x[-1] = -sum(x[:-1])
            graph_cone_dual_membership(nodes, arcs, dict(zip(nodes, x)), method="both")
        return True, None

    def suite_witnesses():
        for b in (2, 3, 5):
            for d in (2, 3, 4):
                inst = km.KisinInstance(d, b)
                for e in range(0, 15):
                    _, rep = bd.witness_le_e(inst, e)
                    if not rep["ok"]:
                        return False, (d, b, e)
        return True, None

    def suite_extremal():
        for d in (2, 3):
            inst = km.KisinInstance(d, max(2, 1 + (d - 1) ** 2 // 4))
            bd.extremal_points_a_qmax(inst)
        return True, None

    def suite_hasse():
        dot = pm.hasse_dot(4)
        n = dot.count(";") - dot.count("->")
        return n == 24, f"{n} nodes"

    run("solver consistency suite", suite_solver)
    run("dual membership oracles agree", suite_dual_oracles)
    run("witness postconditions", suite_witnesses)
    run("extremal points of the Q_max A-set", suite_extremal)
    run("order diagram size", suite_hasse)
    text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0 if not failures else 1


class _Parser(argparse.ArgumentParser):
    """Report a malformed command line as invalid input (exit 1), not with
    argparse's own exit 2, which the CLI keeps for budget refusals; the
    subcommand parsers are of this class too."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="kisindim", description="exact Kisin-variety dimension engine")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--d", type=int, required=True)
        sp.add_argument("--b", type=int, required=True)
        sp.add_argument("--h0", action="store_true", help="the h = 0 regime")
        sp.add_argument("--format", choices=("json",), default="json")
        sp.add_argument("--out", default=None)

    sp = sub.add_parser("dim", help="exact dimension by lattice-point search")
    common(sp)
    sp.add_argument("--budget", type=int, default=sv.DEFAULT_BUDGET)
    sp.add_argument("--mu", default=None, help="comma-separated divisor type")
    sp.add_argument("--e", type=int, default=None)
    sp.add_argument("--le-mu", action="store_true",
                    help="measure the dominance-bounded family instead")
    sp.set_defaults(fn=cmd_dim)

    sp = sub.add_parser("bounds", help="closed-form lower/upper bounds")
    common(sp)
    sp.add_argument("--mu", default=None)
    sp.add_argument("--e", type=int, default=None)
    sp.add_argument("--le-mu", action="store_true")
    sp.set_defaults(fn=cmd_bounds)

    sp = sub.add_parser("tables", help="vertex tables of K and K + C*")
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--dmax", type=int, default=None)
    sp.add_argument("--format", choices=("json", "csv"), default="csv")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_tables)

    sp = sub.add_parser("witness", help="lower-bound witness points")
    common(sp)
    sp.add_argument("--mu", default=None)
    sp.add_argument("--e", type=int, default=None)
    sp.set_defaults(fn=cmd_witness)

    sp = sub.add_parser("hasse", help="DOT diagram of the order on S_d")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--format", choices=("dot",), default="dot")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_hasse)

    sp = sub.add_parser("verify", help="run the cross-method property suites")
    sp.add_argument("--budget", type=int, default=sv.DEFAULT_BUDGET)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("d2-oracle", help="closed-form rank-2 lattice profile")
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--alpha", type=int, required=True)
    sp.add_argument("--gamma", type=int, required=True)
    sp.add_argument("--delta", type=int, required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_d2_oracle)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except sv.BudgetExceeded as exc:
        sys.stderr.write(f"budget refusal: {exc}\n")
        return 2
    except (ValueError, bd.UnsupportedRegime) as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return 1
    except OSError as exc:  # --out could not be written; _emit left no file
        sys.stderr.write(f"cannot write {args.out}: {exc.strerror or exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
