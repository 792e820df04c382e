"""Command-line interface.

Exit codes: 0 when the command decided its question (yes or no), 1 on
usage or parse errors and on a witness that fails `--verify`, 2 when a
search hit its resource limit.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .dce import (
    DceInstance,
    EditSolution,
    TrivialNo,
    kernelize_kr,
    make_dce,
    recheck,
    validate_solution,
)
from .dsc import DscInstance, anonymity_property, solve, validate_completion
from .errors import DegkitError, InvalidInputError, ResourceLimitError
from .factors import f_factor
from .formats import parse_instance, serialize_instance, serialize_solution
from .generators import REDUCTION_KINDS, gen_cubic, gen_from_reduction, gen_random_dce
from .nce import make_nce, nce_traceback
from .winwin import TrivialYes, kernelize_r

KERNELS = {"kr": kernelize_kr, "r": kernelize_r}
BENCH_OPERATIONS = ("solve", "kernelize-kr", "kernelize-r")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}") from None


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _load(path: str | Path) -> DceInstance | DscInstance:
    return parse_instance(Path(path).read_text())


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _emit_solution(inst: DceInstance | DscInstance, sol: EditSolution | None, args) -> None:
    text = serialize_solution(sol)
    if sol is not None and args.verify:
        check = validate_solution if isinstance(inst, DceInstance) else validate_completion
        recheck(check, inst, sol, "witness failed verification")
        text += "c verified\n"
    _emit(text, args.output)


def _kernelize(inst: DceInstance | DscInstance, param: str):
    if not isinstance(inst, DceInstance):
        raise InvalidInputError("kernelization applies to dce instances")
    return KERNELS[param](inst)


def _cmd_solve(args) -> int:
    inst = _load(args.instance)
    _emit_solution(inst, solve(inst, args.limit), args)
    return 0


def _cmd_kernelize(args) -> int:
    result = _kernelize(_load(args.instance), args.param)
    if isinstance(result, TrivialNo):
        _emit("NO\n", args.output)
    elif isinstance(result, TrivialYes):
        _emit(serialize_solution(result.witness), args.output)
    else:
        mapping = " ".join(str(v + 1) for v in result.old_of_new)
        text = f"c kernel of {args.instance}\nc original-vertices {mapping}\n"
        _emit(text + serialize_instance(result.instance), args.output)
    return 0


def _cmd_nce(args) -> int:
    inst = _load(args.instance)
    if not isinstance(inst, DceInstance):
        raise InvalidInputError("the numeric problem derives from dce instances")
    target = inst.k if args.target is None else args.target
    numeric = make_nce(
        inst.graph.degrees(), target, inst.r, [set(s) for s in inst.tau.lists]
    )
    witness = nce_traceback(numeric)
    if witness is None:
        _emit("NO\n", args.output)
    else:
        _emit("YES " + " ".join(map(str, witness)) + "\n", args.output)
    return 0


def _cmd_ffactor(args) -> int:
    inst = _load(args.instance)
    g = inst.graph
    factor = f_factor(g, args.demands or [args.uniform] * g.vertex_count)
    if factor is None:
        _emit("NO\n", args.output)
    else:
        lines = [f"YES {len(factor)}"]
        lines += [f"e {u + 1} {v + 1}" for u, v in sorted(factor)]
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_reduce(args) -> int:
    inst = _load(args.instance)
    cover = None if args.cover is None else {v - 1 for v in args.cover}
    out = gen_from_reduction(args.source, inst.graph, args.size, cover)
    lines = [
        f"c reduction {args.source} h={args.size} from {args.instance}",
    ]
    for v in range(out.instance.graph.vertex_count):
        lines.append(f"c role {v + 1} {out.provenance[v]}")
    _emit("\n".join(lines) + "\n" + serialize_instance(out.instance), args.output)
    return 0


def _cmd_anonymize(args) -> int:
    g = _load(args.instance).graph
    inst = DscInstance(g, args.budget, anonymity_property(args.anonymity))
    _emit_solution(inst, solve(inst), args)
    return 0


def _cmd_gen(args) -> int:
    if args.kind == "cubic":
        g = gen_cubic(args.n, args.seed)
        inst = make_dce(g, 0, 3, [{3}] * g.vertex_count)
    else:
        inst = gen_random_dce(
            args.n, args.edge_prob, args.k, args.r, args.density, args.seed
        )
    _emit(serialize_instance(inst), args.output)
    return 0


def _bench_record(path: Path, operation: str) -> dict:
    """One JSONL record; a failure is recorded with its class, not raised."""
    started = time.perf_counter()
    record = {
        "instance": path.name,
        "operation": operation,
        "parameters": {},
        "vertices_before": 0,
        "vertices_after": None,
    }
    try:
        inst = _load(path)
        if isinstance(inst, DceInstance):
            params = {"k": inst.k, "r": inst.r, "op": inst.op_kind.value}
        else:
            params = {"k": inst.k, "property": inst.prop.name}
        after = None
        if operation == "solve":
            sol = solve(inst)
            result = "no" if sol is None else f"yes {len(sol.edits)}"
        else:
            reduced = _kernelize(inst, operation.split("-")[1])
            after = 0
            if isinstance(reduced, TrivialNo):
                result = "trivial-no"
            elif isinstance(reduced, TrivialYes):
                result = f"trivial-yes {len(reduced.witness.edits)}"
            else:
                result, after = "kernel", reduced.instance.graph.vertex_count
        record.update(
            parameters=params,
            result=result,
            vertices_before=inst.graph.vertex_count,
            vertices_after=after,
        )
    except Exception as exc:  # recorded per instance; the run goes on
        record["result"] = f"error: {_describe(exc)}"
    record["wall_ms"] = (time.perf_counter() - started) * 1000.0
    return record


def _cmd_bench(args) -> int:
    corpus = sorted(p for p in Path(args.corpus).iterdir() if p.suffix in (".dce", ".dsc"))
    failures = 0
    with open(args.records, "a") as sink:
        for path in corpus:
            record = _bench_record(path, args.op)
            failures += record["result"].startswith("error")
            sink.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"ran {len(corpus)} instances, {failures} errors -> {args.records}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="degkit", description=__doc__)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("-o", "--output", default=None, help="write output to a file")
    verify = argparse.ArgumentParser(add_help=False)
    verify.add_argument("--verify", action="store_true", help="re-check YES outputs")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", parents=[output, verify], help="decide an instance")
    p.add_argument("instance")
    p.add_argument("--limit", type=int, default=None, help="search node budget")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("kernelize", parents=[output], help="shrink an instance")
    p.add_argument("instance")
    p.add_argument("--param", choices=tuple(KERNELS), default="kr")
    p.set_defaults(func=_cmd_kernelize)

    p = sub.add_parser("nce", parents=[output], help="numeric completion on the degrees")
    p.add_argument("instance")
    p.add_argument("--target", type=int, default=None)
    p.set_defaults(func=_cmd_nce)

    p = sub.add_parser("ffactor", parents=[output], help="exact-degree subgraph")
    p.add_argument("instance")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--demands", type=_int_list, help="comma-separated per-vertex degrees")
    group.add_argument("--uniform", type=int, help="same target degree everywhere")
    p.set_defaults(func=_cmd_ffactor)

    p = sub.add_parser("reduce", parents=[output], help="build a hardness instance")
    p.add_argument("instance")
    p.add_argument("--from", dest="source", choices=REDUCTION_KINDS, required=True)
    p.add_argument("--size", type=int, required=True, help="h of the source problem")
    p.add_argument("--cover", type=_int_list, help="comma-separated 1-based cover vertices")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser(
        "anonymize", parents=[output, verify], help="k-anonymize by edge additions"
    )
    p.add_argument("instance")
    p.add_argument("-k", "--anonymity", type=int, required=True)
    p.add_argument("-s", "--budget", type=int, required=True)
    p.set_defaults(func=_cmd_anonymize)

    p = sub.add_parser("gen", parents=[output], help="generate instances")
    p.add_argument("kind", choices=("dce", "cubic"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--edge-prob", type=float, default=0.2)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--r", type=int, default=3)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="run a corpus, record JSONL")
    p.add_argument("corpus")
    p.add_argument("--op", choices=BENCH_OPERATIONS, default="solve")
    p.add_argument("--records", required=True)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 2
    except (DegkitError, FileNotFoundError) as exc:
        print(f"error: {_describe(exc)}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
