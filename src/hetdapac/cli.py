"""Batch front door: execute protocol runs, audit suites, and curve CSVs.

Three subcommands:

* ``run``    executes one retrieval (or a sweep over every attribute
  vector), prints exact and decimal metrics, and can dump the transcript;
* ``audit``  runs the exact audit suites, either at their canonical small
  parameter points or at an explicitly configured one;
* ``curve``  emits the rate versus load-ratio tradeoff as CSV with exact
  rationals beside every float column.

Configuration comes from ``--config`` (a JSON object) with flags taking
precedence. Every output embeds the effective config, so a run is
reproducible from the output alone. Exit codes: 0 all checks passed,
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

from .access import SystemParams, message_index
from .audit import SUITES, _point_checks, _suite, audit_correctness, audit_counts, run_suites
from .errors import ConfigError
from .harness import random_store, run_protocol
from .mixer import INF, frontier_rate, plan_mix, rate_of_load, run_time_shared, scheme_costs
from .randomness import subpacket_count

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2

SCHEMES = ("dapac", "het1", "het2", "mix")


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
    cfg = {}
    if getattr(args, "config", None):
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
        cfg.update(loaded)
    for key in ("scheme", "n", "d", "k", "q", "length", "lam", "seed",
                "vstar", "out", "suite", "grid"):
        value = getattr(args, key, None)
        if value is not None:
            cfg["lambda" if key == "lam" else key] = value
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
        value = [t for t in value.split(",") if t.strip()]
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"vstar must be a comma-separated list, got {value!r}")
    v = tuple(_integer("vstar entry", t) for t in value)
    if len(v) != params.n_attrs:
        raise ConfigError(f"vstar needs {params.n_attrs} entries, got {len(v)}")
    return v


def _parse_lambda(cfg: dict) -> Fraction:
    if "lambda" not in cfg:
        raise ConfigError("a mix run needs --lambda")
    try:
        return Fraction(str(cfg["lambda"]))
    except (ValueError, ZeroDivisionError) as err:
        raise ConfigError(f"bad lambda {cfg['lambda']!r}: {err}") from None


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
    lam = _parse_lambda(cfg) if scheme == "mix" else None
    mix = plan_mix(params, lam) if scheme == "mix" else None

    if cfg.get("vstar") is not None:
        targets = [_parse_vstar(cfg["vstar"], params)]
    else:
        targets = [tuple(v) for v in itertools.product(
            range(1, params.k + 1), repeat=params.n_attrs)]

    print(_echo(cfg))
    failures = 0
    lines = [_echo(cfg)]
    last_transcript = None
    store = random_store(params, seed)
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

def _point_audit(suite: str, cfg: dict) -> dict:
    """One configured parameter point instead of the canonical suites."""
    scheme = cfg["scheme"]
    if scheme not in SCHEMES[:3]:
        raise ConfigError(f"audits cover {SCHEMES[:3]}, got {scheme!r}")
    params = _params_of(cfg)
    if suite == "correctness":
        rep = audit_correctness(scheme, params,
                                trials=_integer("trials", cfg.get("trials", 10)))
        checks = [{"name": f"correctness {scheme}", "pass": rep["pass"],
                   "report": rep}]
    elif suite == "counts":
        rep = audit_counts(scheme, params)
        checks = [{"name": f"counts {scheme}", "pass": rep["pass"],
                   "report": rep}]
    else:
        checks = _point_checks(suite, scheme, params)
    return _suite(suite, checks)


def cmd_audit(cfg: dict) -> int:
    suite = cfg.get("suite", "all")
    names = list(SUITES) if suite == "all" else [suite]
    unknown = [n for n in names if not isinstance(n, str) or n not in SUITES]
    if unknown:
        raise ConfigError(f"unknown suite {unknown[0]!r}; "
                          f"choose from {', '.join(SUITES)} or all")
    print(_echo(cfg))
    if cfg.get("scheme"):
        reports = [_point_audit(name, cfg) for name in names]
        result = {"suites": reports, "pass": all(r["pass"] for r in reports)}
    else:
        result = run_suites(names)
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
    shape = SystemParams(n_attrs=d, d=d, k=k)
    length = grid * math.lcm(*(subpacket_count(s, shape) for s in costs))

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

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetdapac",
        description="attribute-verified private retrieval: runs, audits, curves")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--scheme", choices=SCHEMES)
        p.add_argument("--n", type=int, help="number of attributes")
        p.add_argument("--d", type=int, help="number of dedicated servers")
        p.add_argument("--k", type=int, help="values per attribute")
        p.add_argument("--q", type=int, help="prime field size")
        p.add_argument("--length", type=int, help="symbols per message")
        p.add_argument("--lambda", dest="lam", help="dapac share of a mix run")
        p.add_argument("--seed", type=int)
        p.add_argument("--vstar", help="attribute vector, comma separated")
        p.add_argument("--out", help="output file")
        p.add_argument("--grid", type=int, help="curve grid density")
        return p

    run_p = common(sub.add_parser("run", help="execute one retrieval or a sweep"))
    run_p.set_defaults(handler=cmd_run)
    audit_p = common(sub.add_parser("audit", help="run exact audit suites"))
    audit_p.add_argument("--suite", choices=list(SUITES) + ["all"])
    audit_p.set_defaults(handler=cmd_audit)
    curve_p = common(sub.add_parser("curve", help="emit the rate/load tradeoff CSV"))
    curve_p.set_defaults(handler=cmd_curve)
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
