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
from fractions import Fraction

from . import bounds as bd
from . import kisin_model as km
from . import perm as pm
from . import solver as sv
from .polyhedra import fmt_frac


def _emit(text: str, out: str | None) -> None:
    """Write atomically: no partial files on failure."""
    if out is None:
        sys.stdout.write(text)
        return
    import tempfile

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


def _fraction_str(obj) -> str:
    """json's hook for the objects it cannot encode itself: a Fraction
    prints as "p/q" (fmt_frac); anything else is refused."""
    if isinstance(obj, Fraction):
        return fmt_frac(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _json_dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, default=_fraction_str) + "\n"


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
        reg = target == "le_mu" and bd.regularity(mu, inst)
        if reg and reg.strongly_integrally_b_regular:
            witnesses["le_mu"] = bd.witness_le_mu(inst, mu, reg)[1]
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
    if args.dmax is not None and args.format == "json":
        raise ValueError("tables --dmax prints a CSV count table; --format json needs --d")
    ds = range(2, args.dmax + 1) if args.dmax is not None else (args.d,)
    # built first, so a bad d or b reads as it does in every other command
    insts = [km.KisinInstance(d, args.b) for d in ds]
    for inst in insts:
        validity = bd.TABLE2_VALIDITY.get(inst.d)
        if validity is not None and inst.b < validity:
            raise ValueError(
                f"outside validity domain: the d={inst.d} vertex table needs b >= {validity}")
    if args.dmax is not None:
        lines = ["d,K,K_plus_Cstar"]
        for inst in insts:
            kt = bd.k_polytopes(inst)
            lines.append(f"{inst.d},{kt.counts[0]},{kt.counts[1]}")
        _emit("\n".join(lines) + "\n", args.out)
        return 0
    kt = bd.k_polytopes(insts[0])
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
        q, report = bd.witness_le_mu(inst, _mu_tuple(args.mu))
    payload = {"q": q.to_dict(), "report": report}
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
    if args.budget < 0:
        raise ValueError("the node budget must be >= 0")
    failures = []
    lines = []

    def run(name, fn):
        try:
            ok, detail = fn()
        except sv.BudgetExceeded:  # a refusal, not a failed check: exit 2
            raise
        except Exception as exc:  # a crash is a failure with its message
            ok, detail = False, repr(exc)
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name}" + ("" if ok else f"  [{detail}]"))
        if not ok:
            failures.append(name)

    def suite_solver():
        rep = sv.consistency_suite(seed=args.seed, budget=args.budget)
        return rep["passed"], rep["failures"][:3]

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


def _common(sp):
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--h0", action="store_true", help="the h = 0 regime")
    sp.add_argument("--format", choices=("json",), default="json")
    sp.add_argument("--out", default=None)


def _args_dim(sp):
    _common(sp)
    sp.add_argument("--budget", type=int, default=sv.DEFAULT_BUDGET)
    sp.add_argument("--mu", default=None, help="comma-separated divisor type")
    sp.add_argument("--e", type=int, default=None)
    sp.add_argument("--le-mu", action="store_true",
                    help="measure the dominance-bounded family instead")


def _args_bounds(sp):
    _common(sp)
    sp.add_argument("--mu", default=None)
    sp.add_argument("--e", type=int, default=None)
    sp.add_argument("--le-mu", action="store_true")


def _args_tables(sp):
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--dmax", type=int, default=None)
    sp.add_argument("--format", choices=("json", "csv"), default="csv")
    sp.add_argument("--out", default=None)


def _args_witness(sp):
    _common(sp)
    sp.add_argument("--mu", default=None)
    sp.add_argument("--e", type=int, default=None)


def _args_hasse(sp):
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--format", choices=("dot",), default="dot")
    sp.add_argument("--out", default=None)


def _args_verify(sp):
    sp.add_argument("--budget", type=int, default=sv.DEFAULT_BUDGET)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)


def _args_d2_oracle(sp):
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--alpha", type=int, required=True)
    sp.add_argument("--gamma", type=int, required=True)
    sp.add_argument("--delta", type=int, required=True)
    sp.add_argument("--out", default=None)


# name: (help line, the function that adds its arguments, the command)
_COMMANDS = {
    "dim": ("exact dimension by lattice-point search", _args_dim, cmd_dim),
    "bounds": ("closed-form lower/upper bounds", _args_bounds, cmd_bounds),
    "tables": ("vertex tables of K and K + C*", _args_tables, cmd_tables),
    "witness": ("lower-bound witness points", _args_witness, cmd_witness),
    "hasse": ("DOT diagram of the order on S_d", _args_hasse, cmd_hasse),
    "verify": ("run the cross-method property suites", _args_verify, cmd_verify),
    "d2-oracle": ("closed-form rank-2 lattice profile", _args_d2_oracle, cmd_d2_oracle),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser with every command, its help line and its arguments: the
    reference for every command line, and the one that prints the top-level
    help and reports a line that names no command or leaves a word over."""
    p = _Parser(prog="kisindim", description="exact Kisin-variety dimension engine")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments, fn) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_line)
        add_arguments(sp)
        sp.set_defaults(fn=fn)
    return p


def _parse(argv: list[str]):
    """build_parser().parse_args(argv).  When argv starts with a command's
    name, that command's parser alone reads the rest, as the full parser
    hands it those words unread: its top level has no option that takes a
    value.  Built under the full parser's name for it, that parser prints
    the command's help and raises its errors in the same words.  A line
    that names no command, or leaves a word over, goes to the full parser,
    which reports it."""
    name = argv[0] if argv else None
    if name in _COMMANDS:
        _, add_arguments, fn = _COMMANDS[name]
        request = _Parser(prog=f"kisindim {name}")
        add_arguments(request)
        args, extra = request.parse_known_args(argv[1:])
        if not extra:
            args.command, args.fn = name, fn
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    """Run the command line argv (sys.argv[1:] when None) and return its
    exit code: 0 success, 1 invalid input, 2 budget refusal."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse(argv)
        return args.fn(args)
    except sv.BudgetExceeded as exc:
        sys.stderr.write(f"budget refusal: {exc}\n")
        return 2
    except (ValueError, bd.UnsupportedRegime) as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return 1
    except OSError as exc:  # the output could not be written; _emit left no file
        target = "stdout" if args.out is None else args.out
        sys.stderr.write(f"cannot write {target}: {exc.strerror or exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
