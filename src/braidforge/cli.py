"""Command-line pipeline: graph -> subdivision -> cells -> presentation ->
minimal/physical -> homology -> stabilization -> representations.

Exit codes: 1 usage, 2 validation (graph format, subdivision, tree), 3
computation failure (rewrite bound, unsolvable loop system, no
representation at tolerance).

Every JSON artifact embeds a manifest, built in one place: the command, the
SHA-256 of the bytes each input file was parsed from (each file is read once,
so a piped input such as /dev/stdin is hashed as read), every other parsed
option under its argparse dest, and the tool version.  Equal manifests produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import warnings
from pathlib import Path

from . import __version__
from .cells import CRITICAL, CubeComplex
from .errors import ComputationError, ValidationError, json_int
from .graph import (Graph, check_tree_conditions, ordered, parse_graph,
                    subdivide_for)
from .loops import OLoopSpec, YLoopSpec, solve_physical_presentation
from .morse import DEFAULT_MAX_STEPS, morse_presentation
from .oracle import skeleton_presentation
from .presentation import FPGroup, from_morse, homology_h1
from .reps import (SolveOptions, UnitaryAssignment, locally_abelian_solve,
                   solve_representation, verify_representation)
from .stability import minimize_morse, stability_report


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _emit(args, text: str, payload: dict):
    """Print `text`; with --json, write `payload` under the run's manifest."""
    if args.json is None:
        print(text)
        return
    params = {k: v for k, v in vars(args).items()
              if k not in ("command", "fn", "json", "inputs", *args.inputs)}
    manifest = {"command": args.command, "inputs": args.inputs,
                "parameters": params, "version": __version__}
    blob = json.dumps({"manifest": manifest, **payload}, sort_keys=True, indent=2) + "\n"
    if args.json == "-":
        sys.stdout.write(blob)
    else:
        try:
            Path(args.json).write_text(blob)
        except OSError as exc:
            raise ValidationError(f"cannot write --json file {args.json}: "
                                  f"{exc.strerror or exc}") from None
        print(text)


def _read_json(args, what: str):
    """The JSON value of the input file given as option `what`.  The file is
    read once, and the SHA-256 of the bytes read goes into `args.inputs` for
    the manifest.  A file that cannot be opened, is not UTF-8 or is not JSON
    is a ValidationError naming the file."""
    path = getattr(args, what)
    try:
        data = Path(path).read_bytes()
        args.inputs[what] = hashlib.sha256(data).hexdigest()
        return json.loads(data.decode("utf-8"))
    except OSError as exc:
        reason = exc.strerror or str(exc)
    except (ValueError, RecursionError) as exc:   # not UTF-8, not JSON, too deep
        reason = str(exc)
    raise ValidationError(f"cannot read {what} file {path}: {reason}")


def _load_graph(args) -> Graph:
    return parse_graph(_read_json(args, "graph"))


def _complex_for(args) -> CubeComplex:
    return CubeComplex(ordered(_load_graph(args)), args.particles)


def _morse_for(args):
    """The complex of the graph file and its Morse presentation."""
    cx = _complex_for(args)
    return cx, morse_presentation(cx, max_steps=args.max_steps)


def _physical_for(args):
    """The physical presentation over the loops file, and H1."""
    cx, mp = _morse_for(args)
    minimized, h1 = minimize_morse(cx.og, mp)
    specs = _parse_loops_file(args)
    return solve_physical_presentation(cx, minimized, specs, mp,
                                       max_steps=args.max_steps), h1


def _signed_indices(word) -> list:
    """A word of signed 1-based letters as [[0-based index, sign], ...]."""
    return [[abs(x) - 1, 1 if x > 0 else -1] for x in word]


def _fp_payload(fp: FPGroup) -> dict:
    return {
        "generators": list(fp.generators),
        "relators": [_signed_indices(w) for w in fp.relators],
        "relator_sources": list(fp.provenance),
    }


def _load_fp(args) -> FPGroup:
    path = args.presentation
    data = _read_json(args, "presentation")
    for key in ("generators", "relators"):
        if not isinstance(data, dict) or not isinstance(data.get(key), list):
            raise ValidationError(f"presentation {path} has no {key!r} list")
    gens = tuple(data["generators"])
    for i, name in enumerate(gens):
        if not isinstance(name, str) or not name or name in gens[:i]:
            raise ValidationError(f"presentation {path}: generator {i} is {name!r}; "
                                  "generators are distinct non-empty strings")
    rels = []
    for r, word in enumerate(data["relators"]):
        rel = []
        for letter in word if isinstance(word, list) else [word]:
            try:
                i, s = map(json_int, letter)
                ok = isinstance(letter, list) and i in range(len(gens)) and s in (1, -1)
            except (TypeError, ValueError):
                ok = False
            if not ok:
                raise ValidationError(
                    f"presentation {path}: relator {r} has letter {letter!r}; "
                    f"letters are [generator index 0..{len(gens) - 1}, +1 or -1]")
            rel.append((i + 1) * s)
        rels.append(tuple(rel))
    return FPGroup(gens, tuple(rels))


# ---------------------------------------------------------------------------
# subcommands


def cmd_subdivide(args):
    g = _load_graph(args)
    out = subdivide_for(g, args.particles)
    payload = {"graph": out.to_json_dict(), "changed": out is not g}
    text = json.dumps(out.to_json_dict(), sort_keys=True, indent=2)
    _emit(args, text, payload)
    return 0


def cmd_cells(args):
    cx = _complex_for(args)
    dims = [args.dim] if args.dim is not None else [0, 1, 2]
    rows = []
    for dim in dims:
        listed = cx.critical_cells(dim) if args.kind == CRITICAL else cx.cells(dim)
        for cell in listed:
            cls = cx.classify(cell)
            # critical_cells lists only critical cells; the other kinds filter
            if args.kind not in ("all", CRITICAL) and cls.kind != args.kind:
                continue
            rows.append({"cell": str(cell), "dim": dim, "kind": cls.kind,
                         "partner": str(cls.partner) if cls.partner else None})
    text = "\n".join(f"{r['cell']}  dim={r['dim']}  {r['kind']}" for r in rows)
    _emit(args, text or "(no cells)", {"cells": rows})
    return 0


def cmd_present(args):
    cx, mp = _morse_for(args)
    payload = _fp_payload(from_morse(mp))
    payload["tree_conditions"] = check_tree_conditions(cx.og).as_dict()
    _emit(args, str(mp), payload)
    return 0


def cmd_minimal(args):
    cx, mp = _morse_for(args)
    result, h1 = minimize_morse(cx.og, mp)
    fp = result.group
    payload = _fp_payload(fp)
    target = h1.free_rank + len(h1.torsion)     # no presentation has fewer generators
    reached = len(fp.generators) <= target
    payload["h1"] = str(h1)
    payload["target_generators"] = target
    payload["target_reached"] = reached
    payload["eliminations"] = [
        {"generator": e.generator,
         "relator": [[nm, s] for nm, s in e.relator],
         "expression": [[nm, s] for nm, s in e.expression]}
        for e in result.eliminations]
    payload["tree_conditions"] = check_tree_conditions(cx.og).as_dict()
    lines = [str(fp),
             f"H1 = {h1}",
             f"target {target} generators: " + ("reached" if reached else "NOT reached")]
    _emit(args, "\n".join(lines), payload)
    return 0


def cmd_h1(args):
    _, mp = _morse_for(args)
    h1 = homology_h1(from_morse(mp), warn_unexpected_torsion=True)
    payload = {"free_rank": h1.free_rank, "torsion": list(h1.torsion), "pretty": str(h1)}
    _emit(args, str(h1), payload)
    return 0


def cmd_oracle(args):
    cx = _complex_for(args)
    sp = skeleton_presentation(cx)
    h1 = homology_h1(sp.group)
    payload = _fp_payload(sp.group)
    payload["h1"] = str(h1)
    text = (f"1-skeleton presentation: {len(sp.group.generators)} generators, "
            f"{len(sp.group.relators)} relators\nH1 = {h1}")
    _emit(args, text, payload)
    return 0


def _loop_ids(item: dict, index: int, key: str):
    """A vertex id, or for 'cycle' and 'spectators' a tuple of them."""
    value = item.get(key, [])
    many = key in ("cycle", "spectators")
    try:
        if not many:
            return json_int(value)
        if isinstance(value, list):
            return tuple(json_int(v) for v in value)
    except (TypeError, ValueError):
        pass
    raise ValidationError(
        f"loop {index} ({item['type']}) has {key!r} = {value!r}; expected "
        + ("a list of vertex ids" if many else "a vertex id"))


def _parse_loops_file(args):
    path = args.loops
    data = _read_json(args, "loops")
    loops = data.get("loops", []) if isinstance(data, dict) else None
    if not isinstance(loops, list):
        raise ValidationError(f"loops file {path} is not an object with a 'loops' list")
    specs = []
    for index, item in enumerate(loops):
        if not isinstance(item, dict):
            raise ValidationError(f"loop {index} is not an object: {item!r}")
        kind = item.get("type")
        if kind not in ("Y", "O"):
            raise ValidationError(f"unknown loop type {kind!r}")
        required = ("k", "m", "n") if kind == "Y" else ("cycle",)
        missing = [key for key in required if key not in item]
        if missing:
            raise ValidationError(f"loop {index} ({kind}) has no {missing[0]!r}")
        spect = _loop_ids(item, index, "spectators")
        if kind == "Y":
            specs.append(YLoopSpec(*(_loop_ids(item, index, key) for key in required),
                                   spect))
        else:
            specs.append(OLoopSpec(_loop_ids(item, index, "cycle"), spect))
    if not specs:
        raise ValidationError("loops file declares no loops")
    return specs


def cmd_physical(args):
    pp, h1 = _physical_for(args)
    payload = {
        "loops": [{"name": lg.name, "kind": lg.kind,
                   "image": [[nm, s] for nm, s in lg.image]}
                  for lg in pp.loops],
        "dictionary": [[nm, _signed_indices(wd)] for nm, wd in pp.dictionary],
        "relators": [{"origin": origin, "word": _signed_indices(wd)}
                     for origin, wd in pp.relators],
        "generators": list(pp.group.generators),
        "h1": str(h1),
    }
    lines = [str(pp.group), "", "dictionary:"]
    for nm, wd in pp.dictionary:
        lines.append(f"  {nm} = {pp.group.word_str(wd)}")
    lines.append("loop images:")
    for lg in pp.loops:
        img = " ".join(nm + ("" if s > 0 else "^-1") for nm, s in lg.image) or "1"
        lines.append(f"  {lg.name} -> {img}")
    _emit(args, "\n".join(lines), payload)
    return 0


def cmd_stabilize(args):
    report = stability_report(ordered(_load_graph(args)), getattr(args, "from"), args.to)
    payload = {
        "rows": [{"n": r.n, "generators": r.generators, "relators": r.relators,
                  "new_relators": r.new_relators, "lifting_ok": r.lifting_ok,
                  "minimized_generators": r.minimized_generators, "h1": r.h1}
                 for r in report.rows],
        "generator_correspondence": {
            str(n): [[a, b] for a, b in pairs]
            for n, pairs in report.generator_correspondence.items()},
        "stabilized": report.stabilized(),
    }
    header = f"{'N':>3} {'#gen':>5} {'#rel':>5} {'#new':>5} {'lift':>5} {'#min':>5}  H1"
    lines = [header]
    for r in report.rows:
        new = "-" if r.new_relators is None else str(r.new_relators)
        lift = "-" if r.lifting_ok is None else "ok"
        lines.append(f"{r.n:>3} {r.generators:>5} {r.relators:>5} {new:>5} "
                     f"{lift:>5} {r.minimized_generators:>5}  {r.h1}")
    _emit(args, "\n".join(lines), payload)
    return 0


def cmd_rep_verify(args):
    fp = _load_fp(args)
    assignment = UnitaryAssignment.from_json_dict(_read_json(args, "assignment"))
    report = verify_representation(fp, assignment, tol=args.tol)
    payload = {"deviations": report.deviations, "max_deviation": report.max_deviation, "passed": report.passed}
    text = (f"max deviation {report.max_deviation:.3e} "
            f"({'PASS' if report.passed else 'FAIL'} at tol {args.tol:g})")
    _emit(args, text, payload)
    return 0 if report.passed else 3


def cmd_rep_solve(args):
    fp = _load_fp(args)
    opts = SolveOptions(tol=args.tol, restarts=args.restarts)
    outcome = solve_representation(fp, args.k, seed=args.seed, opts=opts)
    payload = {"assignment": outcome.assignment.to_json_dict(),
               "max_deviation": outcome.report.max_deviation,
               "restart": outcome.restart,
               "restart_seeds": outcome.restart_seeds}
    text = (f"found representation at k={args.k}, max deviation "
            f"{outcome.report.max_deviation:.3e} (restart {outcome.restart})")
    _emit(args, text, payload)
    return 0


def cmd_locally_abelian(args):
    pp, _ = _physical_for(args)
    ansatz = locally_abelian_solve(pp)
    payload = {
        "phase_generators": ansatz.phase_generators,
        "free_unitaries": ansatz.free_unitaries,
        "constraints": [list(c.coefficients) for c in ansatz.constraints],
        "trivial_relators": ansatz.trivial_relators,
        "residual_relators": [
            {"origin": origin, "phases": list(ph), "o_word": list(ow)}
            for origin, ph, ow in ansatz.residual_relators],
    }
    lines = ["phase generators (e^{i phi} 1): " + ", ".join(ansatz.phase_generators),
             "free unitaries: " + ", ".join(ansatz.free_unitaries)]
    if ansatz.constraints:
        lines.append("phase constraints (mod 2pi):")
        for c in ansatz.constraints:
            terms = " + ".join(f"{k}*phi[{ansatz.phase_generators[j]}]"
                               for j, k in enumerate(c.coefficients) if k != 0)
            lines.append(f"  {terms} = 0")
    else:
        lines.append("no phase constraints")
    if ansatz.residual_relators:
        lines.append(f"{len(ansatz.residual_relators)} residual matrix equations")
    else:
        lines.append("O-loop unitaries unconstrained")
    _emit(args, "\n".join(lines), payload)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="braidforge",
                     description="presentations and unitary representations "
                                 "of graph braid groups")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        p.add_argument("--json", nargs="?", const="-", default=None,
                       metavar="PATH", help="emit machine JSON (to PATH, or "
                       "stdout when no path is given)")
        return p

    def graph_n(p, with_steps=True):
        p.add_argument("graph", help="graph JSON file")
        p.add_argument("-n", "--particles", type=int, required=True)
        if with_steps:
            p.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS,
                           help="bound on the flow expansions of one rewrite")

    p = add("subdivide", cmd_subdivide, help="insert degree-2 vertices for n particles")
    graph_n(p, with_steps=False)

    p = add("cells", cmd_cells, help="enumerate and classify cells")
    graph_n(p, with_steps=False)
    p.add_argument("--dim", type=int, choices=(0, 1, 2), default=None)
    p.add_argument("--kind", choices=("critical", "redundant", "collapsible", "all"),
                   default="all")

    p = add("present", cmd_present, help="Morse presentation")
    graph_n(p)

    p = add("minimal", cmd_minimal, help="Tietze-minimized presentation")
    graph_n(p)

    p = add("h1", cmd_h1, help="first homology of the configuration space")
    graph_n(p)

    p = add("oracle", cmd_oracle, help="brute-force 1-skeleton presentation")
    graph_n(p, with_steps=False)

    p = add("physical", cmd_physical, help="exchange-loop presentation")
    graph_n(p)
    p.add_argument("--loops", required=True, help="loops JSON file")

    p = add("stabilize", cmd_stabilize, help="particle-number stabilization report")
    p.add_argument("graph")
    p.add_argument("--from", type=int, required=True)
    p.add_argument("--to", type=int, required=True)

    p = add("rep-verify", cmd_rep_verify, help="check a unitary assignment")
    p.add_argument("presentation")
    p.add_argument("assignment")
    p.add_argument("--tol", type=float, default=1e-8)

    p = add("rep-solve", cmd_rep_solve, help="solve for a unitary representation")
    p.add_argument("presentation")
    p.add_argument("-k", "--dimension", dest="k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--restarts", type=int, default=20)

    p = add("locally-abelian", cmd_locally_abelian,
            help="scalar Y-loop ansatz and phase constraints")
    graph_n(p)
    p.add_argument("--loops", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.inputs = {}
    # a warning prints as one line, for this call only
    format_warning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"braidforge: warning: {message}\n"
    try:
        if getattr(args, "particles", 1) < 1:
            raise ValidationError(f"-n/--particles must be at least 1, got {args.particles}")
        if getattr(args, "max_steps", 0) < 0:
            raise ValidationError(f"--max-steps must be at least 0, got {args.max_steps}")
        if getattr(args, "seed", 0) < 0:
            raise ValidationError(f"--seed must be at least 0, got {args.seed}")
        if getattr(args, "restarts", 1) < 1:
            raise ValidationError(f"--restarts must be at least 1, got {args.restarts}")
        if getattr(args, "k", 1) < 1:
            raise ValidationError(f"-k/--dimension must be at least 1, got {args.k}")
        n_from, n_to = getattr(args, "from", 1), getattr(args, "to", 1)
        if not 1 <= n_from <= n_to:
            raise ValidationError(f"need 1 <= --from <= --to, got --from {n_from} --to {n_to}")
        tol = getattr(args, "tol", 1.0)
        if not (math.isfinite(tol) and tol > 0):
            raise ValidationError(f"--tol must be a finite positive number, got {tol}")
        return args.fn(args)
    except ValidationError as exc:
        print(f"braidforge: validation error: {exc}", file=sys.stderr)
        return 2
    except ComputationError as exc:
        print(f"braidforge: computation failed: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        size = "".join(f" {flag} {getattr(args, dest)}" for flag, dest in
                       (("-k", "k"), ("-n", "particles")) if hasattr(args, dest))
        print(f"braidforge: computation failed: out of memory in {args.command}{size}",
              file=sys.stderr)
        return 3
    finally:
        warnings.formatwarning = format_warning


if __name__ == "__main__":
    sys.exit(main())
