"""Batch front door: execute protocol runs, audit suites, and curve CSVs.

Three subcommands:

* ``run``    executes one retrieval (or a sweep over every attribute
  vector), prints exact and decimal metrics, and can dump the transcript;
* ``audit``  runs the exact audit suites over their built-in points, or
  over the one point that ``scheme`` and the dimensions configure; the
  dimensions without a scheme are refused, and ``trials`` (default 50)
  sets the correctness sweep in both modes, refused where no suite run
  is ``correctness``;
* ``curve``  emits the rate versus load-ratio tradeoff as CSV with exact
  rationals beside every float column.

Configuration comes from ``--config`` (a JSON object) with flags taking
precedence. Each subcommand accepts only the keys it reads (``COMMANDS``),
so every output embeds the effective config, and a run is reproducible
from the output alone. Exit codes: 0 all checks passed,
1 a check failed, 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from dataclasses import asdict
from fractions import Fraction

from .access import SystemParams, check_vector, message_index
from .audit import POINTS, run_suites
from .errors import ConfigError
from .harness import random_store, run_protocol
from .mixer import INF, frontier_rate, plan_mix, rate_of_load, run_time_shared, scheme_costs
from .randomness import chunk_length
from .schemes import ENGINES, engine

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2

SCHEMES = (*sorted(ENGINES), "mix")


# ------------------------------------------------------------- formatting

def _exact(x) -> str:
    if x == INF:
        return "inf"
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else str(f)

def _decimal(x) -> str:
    return "inf" if x == INF else f"{float(x):.10g}"


def _both(x) -> str:
    return f"{_exact(x)} ({_decimal(x)})"


def _jsonable(x):
    if isinstance(x, Fraction):
        return _exact(x)
    if isinstance(x, float) and x == INF:
        return "inf"
    if isinstance(x, SystemParams):
        return asdict(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


# ------------------------------------------------------------ configuration

def _load_config(args: argparse.Namespace) -> dict:
    """The config file's keys, overridden by the flags given. A key the
    command does not read is a ConfigError, so the echoed config is
    exactly what ran."""
    keys = COMMANDS[args.command][2]
    cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except OSError as err:
            raise ConfigError(f"cannot read config {args.config!r}: "
                              f"{err.strerror or err}") from None
        except ValueError as err:
            raise ConfigError(f"config {args.config!r} is not JSON: {err}") from None
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        unread = [key for key in loaded if key not in keys]
        if unread:
            raise ConfigError(f"{args.command} does not read {', '.join(unread)}; "
                              f"it reads {', '.join(keys)}")
        cfg.update(loaded)
    for key in keys:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def _integer(name: str, value) -> int:
    """`value` as an int: ints, integral floats and decimal strings pass;
    anything else (3.5, "abc", true) is a ConfigError, never truncated."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _params_of(cfg: dict) -> SystemParams:
    missing = [key for key in ("n", "d", "k", "length") if key not in cfg]
    if missing:
        raise ConfigError(f"missing parameter(s): {', '.join(missing)}")
    n, d, k, length = (_integer(key, cfg[key]) for key in ("n", "d", "k", "length"))
    return SystemParams(n_attrs=n, d=d, k=k, q=_integer("q", cfg.get("q", 65537)),
                        length=length)


def _parse_vstar(value, params: SystemParams) -> tuple[int, ...]:
    if isinstance(value, str):
        value = value.split(",")  # an empty entry is refused, never dropped
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"vstar must be a comma-separated list, got {value!r}")
    v = tuple(_integer("vstar entry", t) for t in value)
    if len(v) != params.n_attrs:
        raise ConfigError(f"vstar needs {params.n_attrs} entries, got {len(v)}")
    return v


def _parse_lambda(cfg: dict) -> str:
    """The mix weight as text, which `plan_mix` reads as a Fraction."""
    if "lambda" not in cfg:
        raise ConfigError("a mix run needs --lambda")
    return str(cfg["lambda"])


def _echo(cfg: dict) -> str:
    return json.dumps({"config": _jsonable(cfg)}, sort_keys=True)


def _write_out(path, text: str):
    if not isinstance(path, str):
        raise ConfigError(f"out must be a file path, got {path!r}")
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as err:
        raise ConfigError(f"cannot write {path!r}: {err.strerror or err}") from None


# -------------------------------------------------------------------- run

def _print_metrics(metrics: dict, matches: bool):
    print(f"  rate                 {_both(metrics['rate'])}")
    print(f"  load_ratio           {_both(metrics['load_ratio'])}")
    print(f"  download_total       {metrics['download_total']}")
    ded = " ".join(f"server{n}={c}"
                   for n, c in sorted(metrics["download_dedicated"].items()))
    print(f"  download_dedicated   {ded}")
    print(f"  download_central     {metrics['download_central']}")
    print(f"  randomness_allocated {metrics['randomness_allocated_symbols']} symbols"
          f" ({metrics['randomness_allocated_chunks']} chunks)")
    print(f"  randomness_consumed  {metrics['randomness_consumed_symbols']} symbols"
          f" ({metrics['randomness_consumed_chunks']} chunks)")
    print(f"  retries {metrics['retries']}  attempts {metrics['attempts']}")
    print(f"  decoded message matches store: {matches}")


def cmd_run(cfg: dict) -> int:
    scheme = cfg.get("scheme")
    if scheme not in SCHEMES:
        raise ConfigError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    params = _params_of(cfg)
    seed = _integer("seed", cfg.get("seed", 0))
    if scheme != "mix" and "lambda" in cfg:
        raise ConfigError(f"lambda weights a mix run; {scheme} does not read it")
    lam = _parse_lambda(cfg) if scheme == "mix" else None
    mix = plan_mix(params, lam) if scheme == "mix" else None
    if mix is None:
        chunk_length(scheme, params)  # refuses D and L the scheme cannot run

    if cfg.get("vstar") is not None:
        targets = [check_vector(_parse_vstar(cfg["vstar"], params), params)]
    else:
        targets = [tuple(v) for v in itertools.product(
            range(1, params.k + 1), repeat=params.n_attrs)]

    store = random_store(params, seed)  # refuses a store too large to draw
    print(_echo(cfg))
    failures = 0
    lines = [_echo(cfg)]
    last_transcript = None
    for v_star in targets:
        if mix is not None:
            message, transcript, metrics = run_time_shared(mix, v_star, store, seed)
        else:
            message, transcript, metrics = run_protocol(
                scheme, params, v_star, store, seed)
        matches = message == store[message_index(v_star, params)]
        failures += not matches
        last_transcript = transcript
        if len(targets) == 1:
            print(f"{scheme} N={params.n_attrs} D={params.d} K={params.k} "
                  f"q={params.q} L={params.length} seed={seed} v*={v_star}")
            _print_metrics(metrics, matches)
        else:
            print(f"v*={','.join(map(str, v_star))}"
                  f"  rate {_both(metrics['rate'])}"
                  f"  load {_both(metrics['load_ratio'])}"
                  f"  match {matches}")
        lines.append(json.dumps(_jsonable(
            {"v_star": v_star, "match": matches, "metrics": metrics}),
            sort_keys=True))

    if cfg.get("out"):
        if len(targets) == 1:
            _write_out(cfg["out"], _echo(cfg) + "\n" + last_transcript.dumps())
        else:
            _write_out(cfg["out"], "\n".join(lines) + "\n")
        print(f"wrote {cfg['out']}")
    return EXIT_PASS if failures == 0 else EXIT_FAIL


# ------------------------------------------------------------------ audit

def cmd_audit(cfg: dict) -> int:
    suite = cfg.get("suite", "all")
    names = list(POINTS) if suite == "all" else [suite]
    unknown = [n for n in names if not isinstance(n, str) or n not in POINTS]
    if unknown:
        raise ConfigError(f"unknown suite {unknown[0]!r}; "
                          f"choose from {', '.join(POINTS)} or all")
    if "trials" in cfg and "correctness" not in names:
        raise ConfigError(f"trials sets the correctness sweep; suite {suite} does not read it")
    trials = _integer("trials", cfg.get("trials", 50))
    if trials < 1:
        raise ConfigError(f"trials must be positive, got {trials}")
    points = None  # the suites' built-in points
    if "scheme" in cfg:
        if cfg["scheme"] not in SCHEMES[:-1]:
            raise ConfigError(f"audits cover {SCHEMES[:-1]}, got {cfg['scheme']!r}")
        points = [(cfg["scheme"], _params_of(cfg))]
        chunk_length(*points[0])  # refuses D and L the scheme cannot run
    elif given := [key for key in ("n", "d", "k", "q", "length") if key in cfg]:
        raise ConfigError(f"{', '.join(given)} set a point for --scheme; "
                          "without it the suites run their built-in points")
    print(_echo(cfg))
    result = run_suites(names, points, trials)
    report = {"config": cfg, **result}
    for suite_report in report["suites"]:
        for check in suite_report["checks"]:
            verdict = "PASS" if check["pass"] else "FAIL"
            detail = check["report"]
            extras = []
            if "max_tv" in detail:
                extras.append(f"max TV {_exact(detail['max_tv'])}")
            if "failures" in detail:
                extras.append(f"{detail['failures']} failures in {detail['runs']} runs")
            print(f"{verdict} {check['name']}"
                  + (f" ({'; '.join(extras)})" if extras else ""))
    print(f"{'PASS' if report['pass'] else 'FAIL'} overall")
    if cfg.get("out"):
        _write_out(cfg["out"], json.dumps(_jsonable(report), indent=2,
                                          sort_keys=True) + "\n")
        print(f"wrote {cfg['out']}")
    return EXIT_PASS if report["pass"] else EXIT_FAIL


# ------------------------------------------------------------------ curve

CURVE_COLUMNS = ("lambda_or_mix", "load_ratio", "rate_timeshare",
                 "rate_frontier", "downloads_dedicated", "downloads_central",
                 "randomness_symbols")


def _curve_rows(d: int, k: int, grid: int) -> tuple[int, list[dict]]:
    """Anchor rows for the pure schemes plus one row per grid weight.

    The reference length is the grid times the least common multiple of
    the schemes' sub-packet counts, so every row's downloads are integral.
    """
    if grid < 1:
        raise ConfigError("grid must be positive")
    costs = scheme_costs(d, k)
    length = grid * math.lcm(*(engine(s).subpackets(d) for s in costs))

    def row(name, cost):
        load = cost.load_ratio
        return {"lambda_or_mix": name, "load_ratio": load,
                "rate_timeshare": rate_of_load(load, d, k),
                "rate_frontier": frontier_rate(load, d, k),
                "downloads_dedicated": cost.dedicated * length,
                "downloads_central": cost.central * length,
                "randomness_symbols": cost.allocated * length}

    weights = [Fraction(j, grid) for j in range(grid + 1)]
    return length, ([row(name, cost) for name, cost in costs.items()]
                    + [row(str(lam), costs["dapac"].mix(costs["het1"], lam))
                       for lam in weights])


def cmd_curve(cfg: dict) -> int:
    for key in ("d", "k"):
        if key not in cfg:
            raise ConfigError(f"curve needs --{key}")
    d, k = _integer("d", cfg["d"]), _integer("k", cfg["k"])
    if d < 2 or k < 2:
        raise ConfigError("curve needs D >= 2 and K >= 2")
    grid = _integer("grid", cfg.get("grid", 12))
    length, rows = _curve_rows(d, k, grid)
    lines = ["# " + json.dumps(
        {"config": _jsonable(cfg), "reference_length": length}, sort_keys=True)]
    header = list(CURVE_COLUMNS) + [f"{c}_exact" for c in CURVE_COLUMNS[1:]]
    lines.append(",".join(header))
    for row in rows:
        floats = [row["lambda_or_mix"]] + [
            _decimal(row[c]) for c in CURVE_COLUMNS[1:]]
        exacts = [_exact(row[c]) for c in CURVE_COLUMNS[1:]]
        lines.append(",".join(floats + exacts))
    text = "\n".join(lines) + "\n"
    if cfg.get("out"):
        _write_out(cfg["out"], text)
        print(f"wrote {cfg['out']} ({len(rows)} rows, reference length {length})")
    else:
        print(text, end="")
    return EXIT_PASS


# ------------------------------------------------------------------- main

# Every config key with the argparse keywords of its flag; None marks a
# key that only a config file sets.
KEYS = {
    "scheme": {"choices": SCHEMES},
    "n": {"type": int, "help": "number of attributes"},
    "d": {"type": int, "help": "number of dedicated servers"},
    "k": {"type": int, "help": "values per attribute"},
    "q": {"type": int, "help": "prime field size"},
    "length": {"type": int, "help": "symbols per message"},
    "lambda": {"help": "dapac share of a mix run"},
    "seed": {"type": int},
    "vstar": {"help": "attribute vector, comma separated"},
    "suite": {"choices": [*POINTS, "all"]},
    "trials": None,
    "grid": {"type": int, "help": "curve grid density"},
    "out": {"help": "output file"},
}

# Each subcommand: (handler, help, the keys it reads). It accepts exactly
# those keys, from flags and from --config alike.
COMMANDS = {
    "run": (cmd_run, "execute one retrieval or a sweep",
            ("scheme", "n", "d", "k", "q", "length", "lambda", "seed", "vstar", "out")),
    "audit": (cmd_audit, "run exact audit suites",
              ("suite", "scheme", "n", "d", "k", "q", "length", "trials", "out")),
    "curve": (cmd_curve, "emit the rate/load tradeoff CSV", ("d", "k", "grid", "out")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetdapac",
        description="attribute-verified private retrieval: runs, audits, curves")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, text, keys) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="JSON config file; flags override it")
        for key in keys:
            if KEYS[key] is not None:
                p.add_argument(f"--{key}", **KEYS[key])
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        return args.handler(cfg)
    except ConfigError as err:
        print(f"invalid configuration: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
