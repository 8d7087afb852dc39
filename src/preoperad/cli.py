"""Command line front end.

    preoperad laws    [--backend B]
    preoperad verify  [--law ID|all] [--backend B] [--prime P] [--dim D]
                      [--trials N] [--seed S] [--max-degree K]
                      [--mutate NAME]... [--config FILE] [--report FILE]
    preoperad eval    --script FILE [--backend B] [--prime P] [--dim D]
                      [--seed S]
    preoperad replay  WITNESS.json [--shrink]

`verify` prints a line per law, ending with `failed=N` when N trials
failed. `--report` holds, per law, `failed` and `failures`, the witness of
the first failing trial; it is written once the run is over, so a refused
run, or one that raises, leaves an existing file as it was, and a new path
absent.

`replay` re-runs the failed check of one witness object saved from a
`--report` file's `failures` and prints the witness as JSON; with
`--shrink`, a witness that still fails is first shrunk (`laws.shrink`).

Exit codes: 0 all checks pass (replay: the witness no longer fails), 1 at
least one law failed (replay: the witness still fails), 2 usage or input
problem. eval takes the same settings as verify and refuses the same
values.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys

import numpy as np

from . import laws, script as script_mod
from .backends import EndoBackend, FreeBackend
from .calculus import KNOWN_MUTATIONS
from .errors import BadConfig, PreOperadError
from .free import Signature
from .rings import CoefficientRing

# the library's trial defaults, except that the CLI works in dimension 2
_DEFAULTS = laws.TrialConfig(dim=2)
_CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(laws.TrialConfig))


def _add_backend_flags(p: argparse.ArgumentParser):
    p.add_argument("--backend", choices=("endo", "free"), default=None,
                   help=f"element representation (default {_DEFAULTS.backend})")
    p.add_argument("--prime", type=int, default=None,
                   help=f"coefficient field modulus (default {_DEFAULTS.prime})")
    p.add_argument("--dim", type=int, default=None,
                   help="dimension of the underlying module "
                        f"(default {_DEFAULTS.dim})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="preoperad",
        description="exact checks for graded composition calculus")
    sub = parser.add_subparsers(dest="command", required=True)

    p_laws = sub.add_parser("laws", help="list the registered laws")
    p_laws.add_argument("--backend", choices=("endo", "free"), default=None,
                        help="only laws available on this backend")

    p_verify = sub.add_parser("verify", help="run laws over random trials")
    _add_backend_flags(p_verify)
    p_verify.add_argument("--law", default="all",
                          help="law id, or 'all' (default)")
    p_verify.add_argument("--trials", type=int, default=None,
                          help=f"trials per law (default {_DEFAULTS.trials})")
    p_verify.add_argument("--seed", type=int, default=None,
                          help=f"master seed (default {_DEFAULTS.seed})")
    p_verify.add_argument("--max-degree", type=int, default=None,
                          help="largest degree drawn per input "
                               f"(default {_DEFAULTS.degree_max})")
    p_verify.add_argument("--mutate", action="append", default=None,
                          choices=sorted(KNOWN_MUTATIONS), metavar="NAME",
                          help="enable a canary mutation (repeatable)")
    p_verify.add_argument("--config", default=None, metavar="FILE",
                          help="JSON file with trial settings; flags override")
    p_verify.add_argument("--report", default=None, metavar="FILE",
                          help="write the full JSON report here")

    p_eval = sub.add_parser("eval", help="evaluate a script file")
    _add_backend_flags(p_eval)
    p_eval.add_argument("--script", required=True, metavar="FILE",
                        help="script path, or '-' for stdin")
    p_eval.add_argument("--seed", type=int, default=None,
                        help="draw undeclared names at random (endo only)")

    p_replay = sub.add_parser("replay", help="re-run a failure witness")
    p_replay.add_argument("witness", metavar="WITNESS.json",
                          help="one witness object from a report's failures")
    p_replay.add_argument("--shrink", action="store_true",
                          help="print the smallest sample that still fails")
    return parser


def _write_json(x, fh) -> None:
    """Write json.dumps(x, indent=2, sort_keys=True) and a newline to fh."""
    json.dump(x, fh, indent=2, sort_keys=True)
    fh.write("\n")


@contextlib.contextmanager
def _report_file(path):
    """path opened for appending, None when there is no path; a file this
    call created is removed when the block raises."""
    if not path:
        yield None
        return
    try:
        fh, created = open(path, "x", encoding="utf-8"), True
    except FileExistsError:
        fh, created = open(path, "a", encoding="utf-8"), False
    try:
        with fh:
            yield fh
    except BaseException:
        if created:
            os.remove(path)
        raise


def _read_json_object(path: str, what: str) -> dict:
    """The JSON object held in the file at path, what names it in errors."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:  # not UTF-8 JSON, or too deep
            raise BadConfig(f"{what} {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise BadConfig(f"{what} {path} must hold a JSON object")
    return data


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    data = _read_json_object(path, "config file")
    unknown = set(data) - set(_CONFIG_KEYS)
    if unknown:
        raise PreOperadError(f"unknown config keys: {sorted(unknown)}")
    return data


def _trial_config(args, config=None, **flags) -> laws.TrialConfig:
    """The library defaults, overridden by the config file, then by the
    flags given; refused unless valid."""
    settings = _load_config(config)
    flags.update(backend=args.backend, prime=args.prime, dim=args.dim,
                 seed=args.seed)
    for key, value in flags.items():
        if value is not None:
            settings[key] = value
    cfg = dataclasses.replace(_DEFAULTS, **settings)
    # before tuple(): a config file may hold a bare string of mutations
    cfg.validate()
    return dataclasses.replace(cfg, mutations=tuple(cfg.mutations))


def _cmd_laws(args) -> int:
    chosen = (laws.laws_for_backend(args.backend) if args.backend
              else laws.list_laws())
    for law in chosen:
        backends = ",".join(law.backends)
        print(f"{law.law_id:28s} [{backends}] {law.description}")
    return 0


def _cmd_verify(args) -> int:
    cfg = _trial_config(args, args.config, trials=args.trials,
                        degree_max=args.max_degree, mutations=args.mutate)
    ids = None if args.law == "all" else [args.law]
    # the laws are refused before the report is opened, so a new path stays
    # absent; it is opened before the run, so a path that cannot be written
    # costs no run, and emptied after it, so a refused run leaves an
    # existing file as it was; a run that raises removes a file it created
    laws._runnable_laws(cfg, ids)
    with _report_file(args.report) as report:
        suite = laws.run_suite(cfg, ids)
        for rep in suite["laws"]:
            flags = []
            if rep["vacuous"]:
                flags.append(f"vacuous={rep['vacuous']}")
            if rep["failed"]:
                flags.append(f"failed={rep['failed']}")
            if rep["underpowered"]:
                flags.append("underpowered")
            tail = (" " + " ".join(flags)) if flags else ""
            print(f"{rep['status'].upper():4s} {rep['law_id']:28s} "
                  f"trials={rep['trials']} millis={rep['millis']}{tail}")
        if report is not None:
            if report.seekable():  # not a pipe or a terminal
                report.truncate(0)
            _write_json(suite, report)
    print(f"suite: {suite['status']}")
    return 0 if suite["status"] == "pass" else 1


def _cmd_eval(args) -> int:
    cfg = _trial_config(args)
    try:
        if args.script == "-":
            text = sys.stdin.read()
        else:
            with open(args.script, "r", encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        raise PreOperadError(f"script {args.script} is not UTF-8 text: "
                             f"{exc}") from exc
    parsed = script_mod.parse_script(text)
    ring = CoefficientRing.prime_field(cfg.prime)
    backend_kind = cfg.backend
    if backend_kind == "endo":
        backend = EndoBackend(ring, cfg.dim)
    else:
        # every name but the unit I is a generator
        gens = tuple((name, d.degree) for name, d in
                     script_mod.declarations(parsed).items() if name != "I")
        backend = FreeBackend(ring, Signature(gens))
    rng = np.random.default_rng(args.seed) if args.seed is not None else None
    value = script_mod.eval_script(parsed, backend, rng=rng)
    if backend_kind == "endo":
        payload = value.serialize()["entries"]
    else:
        payload = value.serialize()["terms"]
    print(json.dumps({"degree": value.degree, "backend": backend_kind,
                      "payload": payload}, sort_keys=True))
    return 0


def _cmd_replay(args) -> int:
    witness = _read_json_object(args.witness, "witness file")
    try:
        fails = laws.replay(witness) is not None
        if fails and args.shrink:
            witness = laws.shrink(witness)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise PreOperadError(f"malformed witness {args.witness}: "
                             f"{type(exc).__name__}: {exc}") from exc
    _write_json(witness, sys.stdout)
    return 1 if fails else 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "laws":
            return _cmd_laws(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "replay":
            return _cmd_replay(args)
        return _cmd_eval(args)
    except PreOperadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
