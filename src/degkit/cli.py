"""Command-line interface.

Exit codes: 0 when the command decided its question (yes or no), 1 on
usage or parse errors, on a path that cannot be read or written and on a
witness that fails `--verify`, 2 when a search hit its resource limit.
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
from .errors import DegkitError, InvalidInputError, ParseError, ResourceLimitError
from .factors import f_factor
from .formats import parse_instance, serialize_instance, serialize_solution
from .generators import REDUCTION_KINDS, gen_cubic, gen_from_reduction, gen_random_dce
from .nce import NceInstance, nce_traceback
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


def _load(path: str | Path) -> DceInstance | DscInstance:
    try:
        return parse_instance(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from None


def _nonnegative(flag: str, value: int) -> int:
    if value < 0:
        raise InvalidInputError(f"{flag} must be nonnegative, got {value}")
    return value


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _solution_text(inst: DceInstance | DscInstance, sol: EditSolution | None, args) -> str:
    text = serialize_solution(sol)
    if sol is not None and args.verify:
        check = validate_solution if isinstance(inst, DceInstance) else validate_completion
        recheck(check, inst, sol, "witness failed verification")
        text += "c verified\n"
    return text


def _kernelize(inst: DceInstance | DscInstance, param: str):
    if not isinstance(inst, DceInstance):
        raise InvalidInputError("kernelization applies to dce instances")
    return KERNELS[param](inst)


def _cmd_solve(args) -> str:
    limit = None if args.limit is None else _nonnegative("--limit", args.limit)
    inst = _load(args.instance)
    return _solution_text(inst, solve(inst, limit), args)


def _cmd_kernelize(args) -> str:
    result = _kernelize(_load(args.instance), args.param)
    if isinstance(result, TrivialNo):
        return "NO\n"
    if isinstance(result, TrivialYes):
        return serialize_solution(result.witness)
    mapping = " ".join(str(v + 1) for v in result.old_of_new)
    text = f"c kernel of {args.instance}\nc original-vertices {mapping}\n"
    return text + serialize_instance(result.instance)


def _cmd_nce(args) -> str:
    inst = _load(args.instance)
    if not isinstance(inst, DceInstance):
        raise InvalidInputError("the numeric problem derives from dce instances")
    target = _nonnegative("--target", inst.k if args.target is None else args.target)
    witness = nce_traceback(NceInstance(inst.graph.degrees(), target, inst.tau))
    return "NO\n" if witness is None else "YES " + " ".join(map(str, witness)) + "\n"


def _cmd_ffactor(args) -> str:
    g = _load(args.instance).graph
    factor = f_factor(g, args.demands or [args.uniform] * g.vertex_count)
    if factor is None:
        return "NO\n"
    return f"YES {len(factor)}\n" + "".join(f"e {u + 1} {v + 1}\n" for u, v in sorted(factor))


def _cmd_reduce(args) -> str:
    inst = _load(args.instance)
    cover = None if args.cover is None else {v - 1 for v in args.cover}
    out = gen_from_reduction(args.source, inst.graph, args.size, cover)
    head = f"c reduction {args.source} h={args.size} from {args.instance}\n"
    roles = "".join(f"c role {v + 1} {role}\n" for v, role in sorted(out.provenance.items()))
    return head + roles + serialize_instance(out.instance)


def _cmd_anonymize(args) -> str:
    g = _load(args.instance).graph
    inst = DscInstance(g, args.budget, anonymity_property(args.anonymity))
    return _solution_text(inst, solve(inst), args)


def _cmd_gen(args) -> str:
    if args.kind == "cubic":
        g = gen_cubic(args.n, args.seed)
        inst = make_dce(g, 0, 3, [{3}] * g.vertex_count)
    else:
        inst = gen_random_dce(args.n, args.edge_prob, args.k, args.r, args.density, args.seed)
    return serialize_instance(inst)


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


def _cmd_bench(args) -> str:
    corpus = sorted(p for p in Path(args.corpus).iterdir() if p.suffix in (".dce", ".dsc"))
    failures = 0
    with open(args.records, "a") as sink:
        for path in corpus:
            record = _bench_record(path, args.op)
            failures += record["result"].startswith("error")
            sink.write(json.dumps(record, sort_keys=True) + "\n")
    return f"ran {len(corpus)} instances, {failures} errors -> {args.records}\n"


def build_parser() -> _Parser:
    parser = _Parser(prog="degkit", description=__doc__)
    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("instance")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("-o", "--output", default=None, help="write output to a file")
    verify = argparse.ArgumentParser(add_help=False)
    verify.add_argument("--verify", action="store_true", help="re-check YES outputs")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", parents=[instance, output, verify], help="decide an instance")
    p.add_argument("--limit", type=int, default=None, help="search node budget")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("kernelize", parents=[instance, output], help="shrink an instance")
    p.add_argument("--param", choices=tuple(KERNELS), default="kr")
    p.set_defaults(func=_cmd_kernelize)

    p = sub.add_parser("nce", parents=[instance, output], help="numeric completion on the degrees")
    p.add_argument("--target", type=int, default=None)
    p.set_defaults(func=_cmd_nce)

    p = sub.add_parser("ffactor", parents=[instance, output], help="exact-degree subgraph")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--demands", type=_int_list, help="comma-separated per-vertex degrees")
    group.add_argument("--uniform", type=int, help="same target degree everywhere")
    p.set_defaults(func=_cmd_ffactor)

    p = sub.add_parser("reduce", parents=[instance, output], help="build a hardness instance")
    p.add_argument("--from", dest="source", choices=REDUCTION_KINDS, required=True)
    p.add_argument("--size", type=int, required=True, help="h of the source problem")
    p.add_argument("--cover", type=_int_list, help="comma-separated 1-based cover vertices")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser(
        "anonymize", parents=[instance, output, verify], help="k-anonymize by edge additions"
    )
    p.add_argument("-k", "--anonymity", type=int, required=True)
    p.add_argument("-s", "--budget", type=int, required=True)
    p.set_defaults(func=_cmd_anonymize)

    p = sub.add_parser("gen", help="generate instances")
    p.set_defaults(func=_cmd_gen)
    size = argparse.ArgumentParser(add_help=False, parents=[output])
    size.add_argument("--n", type=int, required=True)
    size.add_argument("--seed", type=int, default=0, help="generator seed")
    kinds = p.add_subparsers(dest="kind", required=True)
    p = kinds.add_parser("dce", parents=[size], help="random graph with random degree lists")
    p.add_argument("--edge-prob", type=float, default=0.2)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--r", type=int, default=3)
    p.add_argument("--density", type=float, default=0.5)
    kinds.add_parser("cubic", parents=[size], help="random 3-regular graph, every list {3}")

    p = sub.add_parser("bench", help="run a corpus, record JSONL")
    p.add_argument("corpus")
    p.add_argument("--op", choices=BENCH_OPERATIONS, default="solve")
    p.add_argument("--records", required=True)
    p.set_defaults(func=_cmd_bench, output=None)  # its summary line goes to stdout

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and write the text it returns to `-o` or to
    stdout; no other function writes command output."""
    args = build_parser().parse_args(argv)
    try:
        text = args.func(args)
        if args.output:
            Path(args.output).write_text(text)
        else:
            sys.stdout.write(text)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 2
    except (DegkitError, OSError) as exc:
        print(f"error: {_describe(exc)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
