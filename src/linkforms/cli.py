"""Command-line interface.

Subcommands: ``classify``, ``rank``, ``complex``, ``bordism``, ``verify``.
Each emits a Report (text by default, JSON with ``--json``) and exits with

* 0 success,
* 1 a verification or requested check failed,
* 2 malformed input or arguments,
* 3 singular or non-strictly-skew form,
* 4 search budget exhausted without certification (``--require-certified``),
* 5 a materialization/enumeration cap was exceeded,
* 6 unsupported bordism degree,
* 7 a mathematical invariant the library guarantees failed (a bug in
  linkforms; the JSON error report names it ``InvariantError``).
"""

from __future__ import annotations

import argparse
import random
import sys

from . import bordism as bordism_mod
from . import complexes
from . import verify as verify_mod
from .complexes import FlagComplex, homology
from .documents import load_form, load_manifold
from .errors import (
    BudgetExhausted,
    CapExceeded,
    InputError,
    InvariantError,
    NonStrictFormError,
    SingularFormError,
    UnsupportedDegree,
)
from .forms import NormalForm, normal_form
from .lcomplex import DEFAULT_MATERIALIZE_CAP, build_l_complex, find_short_path, verify_link_iso
from .rank import k_rank, stable_k_rank
from .reporting import make_report, render_text, to_json


def braced(nf: NormalForm) -> str:
    """Render a normal form as ``W_{q}^{mult} ⊕ ...``."""
    if not nf.summands:
        return "0"
    return " ⊕ ".join(f"W_{{{p ** n}}}^{{{mult}}}" for (p, n), mult in nf.summands)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_classify(args) -> tuple[dict, int]:
    form = load_form(args.form_file)
    if not form.is_nonsingular():
        rad = form.radical()
        gen = next(iter(rad.decomposition_gens), None)
        raise SingularFormError(
            "form is singular: the duality map has nontrivial radical "
            f"(order {rad.order}, e.g. element {tuple(gen.coeffs) if gen else ()})"
        )
    nf = normal_form(form)
    data = {
        "normal_form": braced(nf),
        "cardinality": form.group.order,
        "nonsingular": True,
    }
    if form.name:
        data["name"] = form.name
    return make_report("classify", "ok", data), 0


def cmd_rank(args) -> tuple[dict, int]:
    form = load_form(args.form_file)
    if args.stable:
        res = stable_k_rank(form, args.k, g_max=args.gmax, budget=args.budget)
        data = {
            "k": args.k,
            "stable_rank": res.value,
            "certified": res.certified,
            "g_max": res.g_max,
            "upper_bound": res.bound,
            "per_g": [
                {"g": g, "rank": r.value, "certified": r.certified, "nodes": r.nodes}
                for g, r in enumerate(res.per_g)
            ],
        }
        certified = res.certified
        stats = {"nodes": sum(r.nodes for r in res.per_g)}
    else:
        res = k_rank(form, args.k, budget=args.budget)
        data = {
            "k": args.k,
            "rank": res.value,
            "certified": res.certified,
            "upper_bound": res.bound,
        }
        certified = res.certified
        stats = {"nodes": res.nodes}
    if args.require_certified and not certified:
        raise BudgetExhausted(
            f"rank search budget {args.budget} exhausted without certification "
            "(--require-certified)"
        )
    return make_report("rank", "ok", data, stats=stats), 0


def cmd_complex(args) -> tuple[dict, int]:
    for flag, count in (("--homology-max-dim", args.homology_max_dim),
                        ("--verify-links", args.verify_links),
                        ("--materialize-cap", args.materialize_cap)):
        if count is not None and count < 0:
            raise InputError(f"{flag} must be >= 0, got {count}")
    form = load_form(args.form_file)
    L = build_l_complex(
        form,
        args.k,
        materialize_cap=args.materialize_cap,
        force_materialize=args.materialize,
    )
    data = {"vertices": L.vertex_count, "materialized": L.materialized}
    status = "ok"
    exit_code = 0
    if L.materialized:
        data["edges"] = L.edge_count()
        data["components"] = len(L.components())
    if args.export_dot:
        if not L.materialized:
            raise CapExceeded(
                "DOT export requires a materialized complex "
                f"({L.vertex_count} vertices over cap {args.materialize_cap})",
                needed=L.vertex_count,
                cap=args.materialize_cap,
            )
        labeled = FlagComplex(
            [f"{list(m.x.coeffs)}|{list(m.y.coeffs)}" for m in map(L.vertex, range(L.vertex_count))],
            L.flag.adj,
        )
        try:
            with open(args.export_dot, "w", encoding="utf-8") as fh:
                fh.write(labeled.to_dot())
        except OSError as exc:
            raise InputError(f"cannot write {args.export_dot}: {exc.strerror}") from None
        data["dot_file"] = args.export_dot
    if args.homology_max_dim is not None:
        if not L.materialized:
            raise CapExceeded(
                "homology requires a materialized complex",
                needed=L.vertex_count,
                cap=args.materialize_cap,
            )
        H = homology(L.flag, max_dim=args.homology_max_dim)
        if not H.complete:
            raise CapExceeded(
                f"homology through degree {args.homology_max_dim} exceeds the simplex budget",
                cap=complexes.DEFAULT_SIMPLEX_BUDGET,
            )
        data["homology"] = {
            f"H_{d}": str(h) for d, h in sorted(H.degrees.items())
        }
        if H.top_dim is not None:  # else the face counts stop at max_dim
            data["euler"] = H.euler_from_faces()
    if args.verify_links:
        rng = random.Random(args.seed)
        n = min(args.verify_links, L.vertex_count)
        ok = 0
        for i in rng.sample(range(L.vertex_count), n):
            if verify_link_iso(L, [i]):
                ok += 1
        data["links_verified"] = f"{ok}/{n}"
        if ok != n:
            status, exit_code = "fail", 1
    if args.path:
        i, j = args.path
        res = find_short_path(L, i, j)
        entry = {"status": res.status}
        if res.path is not None:
            entry["length"] = len(res.path) - 1
            entry["vertices"] = [
                {"x": list(m.x.coeffs), "y": list(m.y.coeffs)} for m in res.path
            ]
        entry.update(res.stats)
        data["path"] = entry
        if res.status != "ok":
            status, exit_code = "fail", 1
    return make_report("complex", status, data, seed=args.seed), exit_code


def cmd_bordism(args) -> tuple[dict, int]:
    if args.manifold:
        N = load_manifold(args.manifold)
        data = {
            "k": N.k,
            "class": bordism_mod.kk_class(N),
            "generator": bordism_mod.is_generator(N),
            f"T_{N.k}": str(bordism_mod.t_k(N)),
            "admits_swapping_involution": bordism_mod.admits_swapping_involution(N),
        }
        return make_report("bordism", "ok", data), 0
    if args.degree is None or args.k is None:
        raise InputError("bordism needs DEGREE and K (or --manifold FILE)")
    if args.l is None:
        group = bordism_mod.omega_k(args.degree, args.k)
        data = {"degree": args.degree, "k": args.k, "group": str(group)}
    else:
        group = bordism_mod.omega_kl(args.degree, args.k, args.l)
        data = {
            "degree": args.degree,
            "k": args.k,
            "l": args.l,
            "group": str(group),
        }
    return make_report("bordism", "ok", data), 0


def cmd_verify(args) -> tuple[dict, int]:
    if args.budget is not None and args.budget < 0:
        raise InputError(f"--budget must be >= 0, got {args.budget}")
    if args.suite == "all":
        results = verify_mod.run_all(seed=args.seed, budget=args.budget)
    else:
        results = [verify_mod.run_suite(args.suite, seed=args.seed, budget=args.budget)]
    all_pass = all(r.passed for r in results)
    data = {
        "criteria": [
            {
                "number": r.number,
                "name": r.name,
                "passed": r.passed,
                "detail": r.detail,
                "seconds": round(r.seconds, 2),
            }
            for r in results
        ],
    }
    if not all_pass:
        first = next(r for r in results if not r.passed)
        data["first_failure"] = {
            "name": first.name,
            "detail": first.detail,
            "witness": first.stats,
        }
    status = "ok" if all_pass else "fail"
    return make_report("verify", status, data, seed=args.seed), 0 if all_pass else 1


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linkforms",
        description="Exact computations with skew linking forms, their block "
        "complexes, and low-degree Bockstein bordism.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit the JSON report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common],
                       help="normal form, cardinality, and nonsingularity of a form")
    p.add_argument("form_file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("rank", parents=[common],
                       help="block rank (or stable rank) of a form")
    p.add_argument("form_file")
    p.add_argument("k", type=int)
    p.add_argument("--stable", action="store_true")
    p.add_argument("--gmax", type=int, default=2)
    p.add_argument("--budget", type=int, default=200_000)
    p.add_argument("--require-certified", action="store_true",
                   help="exit 4 unless the result is certified exhaustive")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("complex", parents=[common],
                       help="build or lazily serve the block complex of a form")
    p.add_argument("form_file")
    p.add_argument("k", type=int)
    p.add_argument("--materialize-cap", type=int, default=DEFAULT_MATERIALIZE_CAP)
    p.add_argument("--materialize", action="store_true",
                   help="fail (exit 5) instead of going lazy above the cap")
    p.add_argument("--export-dot", metavar="PATH")
    p.add_argument("--homology-max-dim", type=int, metavar="D")
    p.add_argument("--verify-links", type=int, metavar="N",
                   help="verify the link isomorphism at N sampled vertices")
    p.add_argument("--path", nargs=2, type=int, metavar=("I", "J"),
                   help="constructive short path between two vertex indices")
    p.add_argument("--seed", type=int, default=verify_mod.DEFAULT_SEED)
    p.set_defaults(func=cmd_complex)

    p = sub.add_parser("bordism", parents=[common],
                       help="bordism group tables and 1-manifold class reports")
    p.add_argument("degree", type=int, nargs="?")
    p.add_argument("k", type=int, nargs="?")
    p.add_argument("l", type=int, nargs="?")
    p.add_argument("--manifold", metavar="FILE",
                   help="report class/generator/T_k for a manifold document")
    p.set_defaults(func=cmd_bordism)

    p = sub.add_parser("verify", parents=[common],
                       help="run a named verification suite (or 'all')")
    p.add_argument("suite")
    p.add_argument("--seed", type=int, default=verify_mod.DEFAULT_SEED)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=cmd_verify)
    return parser


_ERROR_CODES: list[tuple[type, int]] = [
    (InputError, 2),
    (NonStrictFormError, 3),
    (SingularFormError, 3),
    (BudgetExhausted, 4),
    (CapExceeded, 5),
    (UnsupportedDegree, 6),
    (InvariantError, 7),
]


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, exit_code = args.func(args)
    except tuple(t for t, _ in _ERROR_CODES) as exc:
        code = next(c for t, c in _ERROR_CODES if isinstance(exc, t))
        data = {"error": str(exc), "kind": type(exc).__name__}
        if isinstance(exc, CapExceeded):
            data["needed"] = exc.needed
            data["cap"] = exc.cap
        report = make_report(args.command, "error", data)
        print(to_json(report) if args.json else render_text(report),
              file=sys.stderr)
        return code
    print(to_json(report) if args.json else render_text(report))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
