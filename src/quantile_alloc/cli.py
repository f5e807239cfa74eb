"""Command-line surface: ``qalloc solve|oracle|gen|bench|check``.

File formats (JSON, 0-based indices, integers only):

* instance::

    {"kind": "goods" | "chores", "agents": n, "items": m,
     "quantiles": ["p/q", ...],          # one reduced rational per agent
     "values": [[...], ...]}             # n x m non-negative integers

* allocation::

    {"owner": [a_0, ..., a_{m-1}],       # owning agent per item
     "welfare": int, "algorithm": str, "feasible": bool}

Quantiles are serialized as "p/q" strings so nothing ever round-trips
through floating point.  ``gen`` draws values row-major from Python's
Mersenne Twister (``random.Random(seed)``), so equal flags give byte-equal
files.  ``bench`` writes CSV to stdout with columns
``seed,algorithm,objective,balanced,alg_value,opt_value,ratio,min_ratio,mean_ratio``
(the last two filled only in the trailing summary row); ratios are exact
rationals internally, rendered with six fractional digits.

Exit codes: 0 success; 1 unsupported/intractable request, infeasible
objective combination, enumeration budget exceeded, or a bench bound
violation; 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .chores_solvers import balanced_esc, esc_tau0, esc_tau1, usc_tau0_setcover
from .core import (
    OBJECTIVE_KIND,
    Allocation,
    Instance,
    IntractableQuantileError,
    InvalidInstanceError,
    Quantile,
    SolveReport,
    make_instance,
    require_objective_kind,
)
from .esw_solvers import balanced_esw, esw_family, identical_unbalanced_esw, unbalanced_esw
from .oracle import BudgetExceededError, EnumerationBudget, evaluate, opt_welfare
from .usw_solvers import (
    greedy_balanced_usw,
    identical_binary_usw_unbalanced,
    optimistic_exact_usw,
    scapegoat_usw,
)

OBJECTIVES = tuple(OBJECTIVE_KIND)


class UnsupportedRequestError(Exception):
    """The objective/balanced/algorithm combination has no supported solver."""


class BoundViolationError(Exception):
    """A bench trial violated its algorithm's proven guarantee."""


# ---------------------------------------------------------------- file IO


def parse_instance(doc: object) -> Instance:
    if not isinstance(doc, dict):
        raise InvalidInstanceError("instance document must be a JSON object")
    missing = {"kind", "agents", "items", "quantiles", "values"} - doc.keys()
    if missing:
        raise InvalidInstanceError(f"instance document missing keys: {sorted(missing)}")
    for key in ("agents", "items"):
        count = doc[key]
        if not isinstance(count, int) or isinstance(count, bool):
            raise InvalidInstanceError(f"'{key}' must be an integer, got {count!r}")
    quantiles = doc["quantiles"]
    values = doc["values"]
    if not isinstance(quantiles, list) or not all(isinstance(q, str) for q in quantiles):
        raise InvalidInstanceError("quantiles must be a list of 'p/q' strings")
    if not isinstance(values, list) or not all(isinstance(row, list) for row in values):
        raise InvalidInstanceError("values must be a list of rows")
    instance = make_instance(doc["kind"], quantiles, values)
    if instance.n != doc["agents"] or instance.m != doc["items"]:
        raise InvalidInstanceError("agent/item counts disagree with the value matrix")
    return instance


def instance_to_doc(instance: Instance) -> dict:
    return {
        "kind": instance.kind,
        "agents": instance.n,
        "items": instance.m,
        "quantiles": [str(q) for q in instance.quantiles],
        "values": [list(row) for row in instance.values],
    }


def parse_allocation(doc: object) -> tuple[Allocation, dict]:
    if not isinstance(doc, dict) or "owner" not in doc:
        raise InvalidInstanceError("allocation document must be an object with an 'owner' key")
    owner = doc["owner"]
    if not isinstance(owner, list):
        raise InvalidInstanceError("'owner' must be a list of agent indices")
    allocation = Allocation(tuple(owner))
    meta = {key: doc[key] for key in ("welfare", "algorithm", "feasible") if key in doc}
    return allocation, meta


def report_to_doc(report: SolveReport) -> dict:
    return {
        "owner": list(report.allocation.owner),
        "welfare": report.welfare,
        "algorithm": report.algorithm,
        "feasible": report.feasible,
    }


def to_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _load_json(path: str) -> object:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


# ---------------------------------------------------------------- generator


def generate_instance(
    n: int,
    m: int,
    quantiles: Sequence[Quantile],
    kind: str,
    max_value: int,
    seed: int,
    binary: bool = False,
    identical: bool = False,
) -> Instance:
    """Deterministic seeded instance: values drawn row-major with
    ``random.Random(seed).randint`` (0..1 when binary, else 0..max_value);
    with ``identical`` the first row is drawn once and copied to all agents."""
    if max_value < 1:
        raise InvalidInstanceError("max value must be at least 1")
    if n < 1 or m < 1:
        raise InvalidInstanceError("need at least one agent and one item")
    if len(quantiles) != n:
        raise InvalidInstanceError("one quantile per agent required")
    rng = random.Random(seed)
    top = 1 if binary else max_value

    def draw_row() -> list[int]:
        return [rng.randint(0, top) for _ in range(m)]

    if identical:
        row = draw_row()
        rows = [list(row) for _ in range(n)]
    else:
        rows = [draw_row() for _ in range(n)]
    return make_instance(kind, list(quantiles), rows)


def _quantiles_from_args(args: argparse.Namespace) -> list[Quantile]:
    if args.hetero_taus:
        taus = [Quantile.parse(part) for part in args.hetero_taus.split(",")]
        if len(taus) != args.agents:
            raise InvalidInstanceError("--hetero-taus must list one quantile per agent")
        return taus
    return [Quantile.parse(args.tau)] * args.agents


# ---------------------------------------------------------------- dispatch


Solver = Callable[[Instance], SolveReport]


def _routes() -> dict[str, tuple[bool, dict[str, Solver]]]:
    """The routing table: each explicit ``--algorithm`` name maps to whether
    it solves the balanced problem and to its solver for each objective.
    Built per call from this module's bindings, so that a wrapper put over a
    solver name here (a profiler's or tracer's) sees every routed call."""
    return {
        "greedy": (True, {"usw": greedy_balanced_usw}),
        "scapegoat": (False, {"usw": scapegoat_usw}),
        "optimistic": (False, {"usw": optimistic_exact_usw}),
        "matching": (True, {"esw": balanced_esw, "esc": balanced_esc}),
        "frac": (False, {"esw": unbalanced_esw}),
        "third": (False, {"esw": unbalanced_esw}),
        "tau0": (False, {"esw": unbalanced_esw, "esc": esc_tau0}),
        "tau1": (False, {"esw": unbalanced_esw, "esc": esc_tau1}),
        "setcover": (False, {"usc": usc_tau0_setcover}),
        "identical": (
            False,
            {"usw": identical_binary_usw_unbalanced, "esw": identical_unbalanced_esw},
        ),
    }


ALGORITHMS = ("auto", *_routes())


def _auto_algorithm(instance: Instance, objective: str, balanced: bool) -> str:
    """The routing-table name that ``--algorithm auto`` stands for."""
    if balanced:
        return "greedy" if objective == "usw" else "matching"
    if objective == "usw":
        return "optimistic" if any(q.is_one for q in instance.quantiles) else "scapegoat"
    if objective == "usc":
        return "setcover"
    if objective == "esw":
        # Any ESW family name would do: each runs unbalanced_esw, which picks
        # the decider for the instance's quantile or refuses the quantile, and
        # dispatch_solve checks the family of explicit names only.
        return "frac"
    tau = instance.homogeneous_quantile()
    if tau is None or not (tau.is_zero or tau.is_one):
        raise IntractableQuantileError(
            "unbalanced egalitarian cost is only supported for quantiles 0 and 1"
        )
    return "tau0" if tau.is_zero else "tau1"


def dispatch_solve(
    instance: Instance, objective: str, balanced: bool, algorithm: str
) -> SolveReport:
    """Route a solve request through the routing table; raise
    UnsupportedRequestError / IntractableQuantileError when no algorithm
    covers the combination.

    Explicit algorithms are tied to their solution space: balanced-only ones
    need --balanced, unbalanced-only ones reject it.  This keeps reported
    guarantees comparable to the optimum over the same space.
    """
    require_objective_kind(instance, objective)
    routes = _routes()
    if algorithm != "auto" and routes[algorithm][0] != balanced:
        space, flag = ("unbalanced", "drop") if balanced else ("balanced", "pass")
        raise UnsupportedRequestError(
            f"algorithm '{algorithm}' solves the {space} problem; {flag} --balanced"
        )
    name = _auto_algorithm(instance, objective, balanced) if algorithm == "auto" else algorithm
    solver = routes[name][1].get(objective)
    if solver is None:
        if objective == "usc" and balanced:
            raise UnsupportedRequestError("no supported algorithm for balanced utilitarian cost")
        raise UnsupportedRequestError(
            f"algorithm '{algorithm}' does not apply to objective {objective}"
            f"{' (balanced)' if balanced else ''}"
        )
    if solver is unbalanced_esw and algorithm != "auto":
        tau = instance.homogeneous_quantile()
        if tau is not None and esw_family(tau) != algorithm:
            raise IntractableQuantileError(
                f"quantile mismatch: instance quantile {tau} is not handled by '{algorithm}'"
            )
    return solver(instance)


# ---------------------------------------------------------------- commands


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = parse_instance(_load_json(args.instance))
    report = dispatch_solve(instance, args.objective, args.balanced, args.algorithm)
    _write_output(to_json(report_to_doc(report)), args.output)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    instance = parse_instance(_load_json(args.instance))
    budget = EnumerationBudget(max_allocations=args.max_allocations)
    value, allocation = opt_welfare(instance, args.objective, args.balanced, budget)
    report = SolveReport(allocation, value, "oracle", True)
    _write_output(to_json(report_to_doc(report)), args.output)
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    instance = generate_instance(
        n=args.agents,
        m=args.items,
        quantiles=_quantiles_from_args(args),
        kind=args.kind,
        max_value=args.max_value,
        seed=args.seed,
        binary=args.binary,
        identical=args.identical,
    )
    _write_output(to_json(instance_to_doc(instance)), args.output)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    instance = parse_instance(_load_json(args.instance))
    allocation, meta = parse_allocation(_load_json(args.allocation))
    value = evaluate(instance, args.objective, allocation)
    if args.balanced and not allocation.is_balanced(instance.n):
        raise InvalidInstanceError("allocation is not balanced")
    if "welfare" in meta and meta["welfare"] != value:
        raise InvalidInstanceError(
            f"stored welfare {meta['welfare']} disagrees with recomputed {value}"
        )
    print(value)
    return 0


def _check_bound(
    instance: Instance, report: SolveReport, opt_value: int, seed: int
) -> None:
    alg = report.welfare
    name = report.algorithm
    if name == "greedy_balanced_usw":
        k = instance.m // instance.n
        ok = alg * min(k + 1, instance.n) >= opt_value
        bound = "welfare * min(k+1, n) >= balanced optimum"
    elif name == "scapegoat_usw":
        ok = instance.n * alg >= (instance.n - 1) * opt_value
        bound = "n * welfare >= (n-1) * optimum"
    elif name == "usc_tau0_setcover":
        # Chvatal 1979: greedy cover <= H_m * optimum, H_m = 1 + 1/2 + ... + 1/m.
        harmonic = sum(Fraction(1, j) for j in range(1, instance.m + 1))
        ok = alg <= harmonic * opt_value
        bound = f"cost <= H_m * optimum (H_{instance.m} = {harmonic})"
    else:
        ok = alg == opt_value
        bound = "exact equality with the optimum"
    if not ok:
        raise BoundViolationError(
            f"seed {seed}: {name} reported {alg} against optimum {opt_value}, "
            f"violating {bound}"
        )


def _render_ratio(ratio: Fraction) -> str:
    scaled = ratio * 10**6
    whole, rem = divmod(scaled.numerator, scaled.denominator)
    if 2 * rem >= scaled.denominator:
        whole += 1
    return f"{whole // 10**6}.{whole % 10**6:06d}"


@dataclass(frozen=True)
class BenchRow:
    """One bench trial: solver value vs oracle value, ratio kept exact."""

    seed: int
    algorithm: str
    objective: str
    balanced: bool
    alg_value: int
    opt_value: int
    ratio: Fraction

    def to_csv(self) -> str:
        return (
            f"{self.seed},{self.algorithm},{self.objective},{self.balanced},"
            f"{self.alg_value},{self.opt_value},{_render_ratio(self.ratio)},,"
        )


def _cmd_bench(args: argparse.Namespace) -> int:
    budget = EnumerationBudget(max_allocations=args.max_allocations)
    rows: list[BenchRow] = []
    header = "seed,algorithm,objective,balanced,alg_value,opt_value,ratio,min_ratio,mean_ratio"
    for trial in range(args.trials):
        seed = args.seed + trial
        instance = generate_instance(
            n=args.agents,
            m=args.items,
            quantiles=_quantiles_from_args(args),
            kind=args.kind,
            max_value=args.max_value,
            seed=seed,
            binary=args.binary,
            identical=args.identical,
        )
        report = dispatch_solve(instance, args.objective, args.balanced, args.algorithm)
        opt_value, _ = opt_welfare(instance, args.objective, args.balanced, budget)
        _check_bound(instance, report, opt_value, seed)
        if opt_value != 0:
            ratio = Fraction(report.welfare, opt_value)
        else:
            # Bound checks above force alg == 0 whenever opt == 0.
            ratio = Fraction(1)
        rows.append(
            BenchRow(
                seed=seed,
                algorithm=report.algorithm,
                objective=args.objective,
                balanced=args.balanced,
                alg_value=report.welfare,
                opt_value=opt_value,
                ratio=ratio,
            )
        )
    print(header)
    for row in rows:
        print(row.to_csv())
    ratios = [row.ratio for row in rows]
    mean = sum(ratios, Fraction(0)) / len(ratios)
    print(
        f"summary,{args.algorithm},{args.objective},{args.balanced},,,,"
        f"{_render_ratio(min(ratios))},{_render_ratio(mean)}"
    )
    return 0


# ---------------------------------------------------------------- parser


def _positive_int(text: str) -> int:
    """argparse type of a count flag, so a count below 1 exits 2."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _add_instance_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-i", "--instance", required=True, help="instance JSON file")


def _add_output_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-o", "--output", default=None, help="output file (default stdout)")


def _add_objective_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--objective", required=True, choices=OBJECTIVES)
    parser.add_argument(
        "--balanced",
        action="store_true",
        help="restrict to balanced allocations (every agent gets m/n items)",
    )


def _add_gen_args(parser: argparse.ArgumentParser, required: bool) -> None:
    parser.add_argument("--agents", type=int, required=required, default=None)
    parser.add_argument("--items", type=int, required=required, default=None)
    parser.add_argument("--tau", default="1/2", help="homogeneous quantile 'p/q' in lowest terms")
    parser.add_argument(
        "--hetero-taus", default=None, help="comma-separated per-agent quantiles 'p/q,...'"
    )
    parser.add_argument("--kind", choices=("goods", "chores"), default="goods")
    parser.add_argument("--max-value", type=int, default=9)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--binary", action="store_true", help="draw values from {0, 1}")
    parser.add_argument("--identical", action="store_true", help="copy agent 0's row to all agents")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qalloc",
        description="Welfare-maximizing allocation of indivisible items under quantile valuations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run a polynomial-time solver")
    _add_instance_arg(p_solve)
    _add_output_arg(p_solve)
    _add_objective_args(p_solve)
    p_solve.add_argument("--algorithm", choices=ALGORITHMS, default="auto")
    p_solve.set_defaults(func=_cmd_solve)

    p_oracle = sub.add_parser("oracle", help="exhaustive exact optimum (desk-scale)")
    _add_instance_arg(p_oracle)
    _add_output_arg(p_oracle)
    _add_objective_args(p_oracle)
    p_oracle.add_argument("--max-allocations", type=_positive_int, default=10_000_000)
    p_oracle.set_defaults(func=_cmd_oracle)

    p_gen = sub.add_parser("gen", help="seeded deterministic instance generator")
    _add_gen_args(p_gen, required=True)
    _add_output_arg(p_gen)
    p_gen.set_defaults(func=_cmd_gen)

    p_bench = sub.add_parser(
        "bench",
        help="solver-vs-oracle ratio table (CSV on stdout, summary row last)",
        description=(
            "Run seeded trials of one solver against the exhaustive oracle and "
            "print a CSV table. Columns: seed, algorithm, objective, balanced, "
            "alg_value, opt_value, ratio (alg/opt, six decimals, exact rational "
            "internally), min_ratio, mean_ratio (the last two filled only in the "
            "trailing summary row). A trial violating the algorithm's proven "
            "bound aborts with a diagnostic naming the seed."
        ),
    )
    _add_gen_args(p_bench, required=True)
    _add_objective_args(p_bench)
    p_bench.add_argument("--algorithm", choices=ALGORITHMS, default="auto")
    p_bench.add_argument("--trials", type=_positive_int, required=True)
    p_bench.add_argument("--max-allocations", type=_positive_int, default=10_000_000)
    p_bench.set_defaults(func=_cmd_bench)

    p_check = sub.add_parser("check", help="recompute an allocation's objective value")
    _add_instance_arg(p_check)
    p_check.add_argument("-a", "--allocation", required=True, help="allocation JSON file")
    _add_objective_args(p_check)
    p_check.set_defaults(func=_cmd_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (IntractableQuantileError, BudgetExceededError, UnsupportedRequestError, BoundViolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InvalidInstanceError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    raise SystemExit(main())
