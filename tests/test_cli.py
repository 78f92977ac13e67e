"""CLI: subcommands, config handling, exit codes, and output files."""

from __future__ import annotations

import json
import time
from fractions import Fraction

import pytest

from hetdapac import audit, cli, harness
from hetdapac.harness import random_store
from hetdapac.schemes import het1


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr()


HET1_FLAGS = ("--scheme", "het1", "--n", "3", "--d", "2", "--k", "2",
              "--length", "2")


class TestRun:
    def test_single_run_prints_exact_and_decimal(self, capsys):
        code, out = run_cli(capsys, "run", *HET1_FLAGS,
                            "--seed", "7", "--vstar", "1,2,2")
        assert code == 0
        assert "rate                 1/3 (0.3333333333)" in out.out
        assert "load_ratio           1/4 (0.25)" in out.out
        assert "matches store: True" in out.out
        echo = json.loads(out.out.splitlines()[0])
        assert echo["config"]["seed"] == 7

    def test_a_store_too_large_to_draw_exits_2_before_any_output(self, capsys, monkeypatch):
        # K^N = 2^32 messages: the run is refused before a symbol is drawn
        # and before the config echo is printed
        def unused(*args):
            raise AssertionError("a refused store drew symbols")

        monkeypatch.setattr(harness, "uniform_arrays", unused)
        code, out = run_cli(capsys, "run", "--scheme", "het1", "--n", "16", "--d", "2",
                            "--k", "4", "--length", "2", "--vstar", ",".join(["1"] * 16))
        assert code == 2 and out.out == ""
        assert "over the 268435456 drawn at most" in out.err

    def test_transcript_file_is_reproducible(self, capsys, tmp_path):
        path = tmp_path / "transcript.jsonl"
        args = ("run", *HET1_FLAGS, "--seed", "3", "--vstar", "2,1,1",
                "--out", str(path))
        run_cli(capsys, *args)
        first = path.read_text()
        run_cli(capsys, *args)
        assert path.read_text() == first
        lines = [json.loads(line) for line in first.splitlines()]
        assert "config" in lines[0]
        assert [r["seq"] for r in lines[1:]] == list(range(len(lines) - 1))

    def test_het2_redraws_locally_and_sends_one_round(self, capsys):
        code, out = run_cli(capsys, "run", "--scheme", "het2", "--n", "3",
                            "--d", "3", "--k", "2", "--q", "5", "--length", "6",
                            "--vstar", "2,1,1")
        assert code == 0
        assert "rate                 1/3 (0.3333333333)" in out.out
        assert "download_total       18" in out.out
        # one zero cycle coefficient redrawn in place, no server sees it
        assert "retries 1  attempts 1" in out.out
        assert "randomness_allocated 12 symbols (12 chunks)" in out.out
        assert "randomness_consumed  12 symbols (12 chunks)" in out.out
        assert "matches store: True" in out.out

    def test_sweep_covers_every_vector(self, capsys, tmp_path):
        path = tmp_path / "sweep.jsonl"
        code, out = run_cli(capsys, "run", *HET1_FLAGS, "--out", str(path))
        assert code == 0
        runs = [line for line in out.out.splitlines() if line.startswith("v*=")]
        assert len(runs) == 8
        assert all("match True" in line for line in runs)
        lines = path.read_text().splitlines()
        assert len(lines) == 9  # config echo plus one record per vector

    def test_sweep_draws_one_store(self, capsys, monkeypatch):
        calls = []

        def counted(params, seed):
            calls.append(seed)
            return random_store(params, seed)

        monkeypatch.setattr(cli, "random_store", counted)
        code, out = run_cli(capsys, "run", *HET1_FLAGS, "--seed", "4")
        assert code == 0
        assert out.out.count("match True") == 8
        assert calls == [4]

    def test_mix_needs_lambda(self, capsys):
        code, out = run_cli(capsys, "run", "--scheme", "mix", "--n", "3",
                            "--d", "2", "--k", "2", "--length", "12")
        assert code == 2
        assert "lambda" in out.err

    def test_mix_run_works(self, capsys):
        code, out = run_cli(capsys, "run", "--scheme", "mix", "--n", "3",
                            "--d", "2", "--k", "2", "--length", "12",
                            "--lambda", "1/2", "--vstar", "1,1,1")
        assert code == 0
        assert "rate                 2/7" in out.out

    def test_het2_needs_three_dedicated_servers(self, capsys):
        code, out = run_cli(capsys, "run", "--scheme", "het2", "--n", "3",
                            "--d", "2", "--k", "2", "--length", "6")
        assert code == 2
        assert "D >= 3" in out.err

    def test_bad_length_names_smallest_valid(self, capsys):
        code, out = run_cli(capsys, "run", *HET1_FLAGS[:-1], "3")
        assert code == 2
        assert "smallest valid length: 2" in out.err

    def test_modulus_beyond_32_bits_exits_at_once(self, capsys):
        # q = 2^61 - 1 is prime; trial division on it would run for minutes
        start = time.perf_counter()
        code, out = run_cli(capsys, "run", *HET1_FLAGS, "--q", str(2 ** 61 - 1),
                            "--vstar", "1,1,1")
        assert code == 2
        assert "2^32" in out.err
        assert time.perf_counter() - start < 1

    def test_missing_parameters_are_listed(self, capsys):
        code, out = run_cli(capsys, "run", "--scheme", "het1", "--n", "3")
        assert code == 2
        assert "d" in out.err and "length" in out.err

    def test_wrong_vstar_arity(self, capsys):
        code, out = run_cli(capsys, "run", *HET1_FLAGS, "--vstar", "1,2")
        assert code == 2
        assert "vstar" in out.err


class TestConfigFile:
    def test_flags_override_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scheme": "het1", "n": 3, "d": 2, "k": 2,
                                   "length": 2, "seed": 1}))
        code, out = run_cli(capsys, "run", "--config", str(cfg),
                            "--seed", "9", "--vstar", "1,1,1")
        assert code == 0
        echo = json.loads(out.out.splitlines()[0])
        assert echo["config"]["seed"] == 9

    def test_bad_scheme_in_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scheme": "nope"}))
        code, out = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2

    def test_file_must_hold_an_object(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code, _ = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2


class TestMalformedInput:
    """Malformed input is a configuration error: exit 2, one stderr line."""

    @staticmethod
    def assert_refused(out, *words):
        lines = out.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("invalid configuration: ")
        assert "Traceback" not in out.err
        for word in words:
            assert word in lines[0]

    @pytest.mark.parametrize("command", ["run", "audit", "curve"])
    def test_missing_config_file(self, capsys, tmp_path, command):
        missing = str(tmp_path / "nonexistent.json")
        code, out = run_cli(capsys, command, "--config", missing)
        assert code == 2
        self.assert_refused(out, "nonexistent.json")

    def test_config_file_that_is_not_json(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{bad")
        code, out = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2
        self.assert_refused(out, "not JSON")

    @pytest.mark.parametrize("key, value", [("q", "abc"), ("n", 3.5),
                                            ("length", True), ("seed", 3.5),
                                            ("seed", True)])
    def test_non_integral_parameter_in_file(self, capsys, tmp_path, key, value):
        fields = {"scheme": "het1", "n": 3, "d": 2, "k": 2, "length": 2,
                  "vstar": "1,1,1"}
        fields[key] = value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(fields))
        code, out = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2
        self.assert_refused(out, key, "integer")

    def test_integral_values_in_any_spelling_still_run(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scheme": "het1", "n": "3", "d": 2.0, "k": 2,
                                   "length": 2, "vstar": [1, 2, 2]}))
        code, out = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 0
        assert "matches store: True" in out.out

    def test_seed_string_in_file_runs_as_the_flag(self, capsys, tmp_path):
        # the user streams hash the seed's repr, so "7" must become 7 first
        fields = {"scheme": "het2", "n": 4, "d": 3, "k": 2, "length": 6,
                  "vstar": "1,2,1,2"}
        runs = []
        for name, in_file, flags in (("file", {"seed": "7"}, []),
                                     ("flag", {}, ["--seed", "7"])):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps({**fields, **in_file}))
            out = tmp_path / f"{name}.jsonl"
            code, printed = run_cli(capsys, "run", "--config", str(cfg), *flags,
                                    "--out", str(out))
            assert code == 0
            # all but the echoed config, which keeps the seed's spelling,
            # and the line naming the output file
            runs.append((printed.out.splitlines()[1:-1],
                         out.read_text().splitlines()[1:]))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("vstar", ["1,a,1", "1.5,1,1", "1,,2,2", "1,2,2,"])
    def test_vstar_entries_must_be_integers(self, capsys, vstar):
        code, out = run_cli(capsys, "run", *HET1_FLAGS, "--vstar", vstar)
        assert code == 2
        self.assert_refused(out, "vstar")

    def test_vstar_must_be_a_list(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scheme": "het1", "n": 3, "d": 2, "k": 2,
                                   "length": 2, "vstar": 5}))
        code, out = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2
        self.assert_refused(out, "vstar")

    @pytest.mark.parametrize("argv", [
        ("run", *HET1_FLAGS, "--vstar", "1,1,1"),
        ("audit", "--suite", "counts", "--scheme", "dapac", "--n", "3",
         "--d", "3", "--k", "2", "--length", "3"),
        ("curve", "--d", "3", "--k", "2", "--grid", "2"),
    ])
    def test_unwritable_out_path(self, capsys, tmp_path, argv):
        target = str(tmp_path / "nonexistent" / "dir" / "x.json")
        code, out = run_cli(capsys, *argv, "--out", target)
        assert code == 2
        self.assert_refused(out, "x.json")

    @pytest.mark.parametrize("command, fields, word", [
        ("audit", {"suite": ["privacy"]}, "suite"),
        # an int path would be taken by open() as a file descriptor
        ("run", {"scheme": "het1", "n": 3, "d": 2, "k": 2, "length": 2,
                 "vstar": "1,1,1", "out": 5}, "out"),
    ])
    def test_wrongly_typed_value_in_file(self, capsys, tmp_path, command, fields, word):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(fields))
        code, out = run_cli(capsys, command, "--config", str(cfg))
        assert code == 2
        self.assert_refused(out, word)

    @pytest.mark.parametrize("argv, flag", [
        (("audit", "--suite", "secrecy", "--scheme", "dapac", "--n", "3", "--d", "3",
          "--k", "2", "--q", "2", "--length", "3", "--vstar", "1,1,1"), "--vstar"),
        (("curve", "--d", "3", "--k", "2", "--n", "3"), "--n"),
        (("run", *HET1_FLAGS, "--vstar", "1,1,1", "--grid", "2"), "--grid"),
    ])
    def test_flag_the_command_does_not_read(self, capsys, argv, flag):
        # each subcommand defines only the flags it reads
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert f"unrecognized arguments: {flag}" in out.err
        assert "Traceback" not in out.err

    @pytest.mark.parametrize("command, fields, key", [
        ("curve", {"d": 3, "k": 2, "length": 6}, "length"),
        ("audit", {"suite": "secrecy", "scheme": "dapac", "n": 3, "d": 3, "k": 2,
                   "q": 2, "length": 3, "vstar": "1,1,1"}, "vstar"),
        ("run", {"scheme": "het1", "n": 3, "d": 2, "k": 2, "length": 2,
                 "vstar": "1,1,1", "grid": 2}, "grid"),
    ])
    def test_config_key_the_command_does_not_read(self, capsys, tmp_path,
                                                  command, fields, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(fields))
        code, out = run_cli(capsys, command, "--config", str(cfg))
        assert code == 2
        assert out.out == ""
        self.assert_refused(out, f"{command} does not read {key};")

    @pytest.mark.parametrize("key, value", [("n", 3), ("d", 3), ("k", 2),
                                            ("q", 5), ("length", 6)])
    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_audit_dimension_without_a_scheme(self, capsys, tmp_path, key, value, source):
        # without --scheme the suites run their built-in points, so a
        # dimension would be echoed and ignored
        if source == "flag":
            argv = ("audit", "--suite", "counts", f"--{key}", str(value))
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"suite": "counts", key: value}))
            argv = ("audit", "--config", str(cfg))
        code, out = run_cli(capsys, *argv)
        assert code == 2
        assert out.out == ""
        self.assert_refused(out, key, "--scheme")

    @pytest.mark.parametrize("scheme, flags", [
        ("het1", HET1_FLAGS[2:]),
        ("dapac", ("--n", "3", "--d", "3", "--k", "2", "--length", "3")),
    ])
    def test_lambda_outside_a_mix_run(self, capsys, scheme, flags):
        code, out = run_cli(capsys, "run", "--scheme", scheme, *flags,
                            "--vstar", "1,1,1", "--lambda", "1/2")
        assert code == 2
        assert out.out == ""
        self.assert_refused(out, "lambda", scheme)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_audit_trials_must_be_positive(self, capsys, tmp_path, trials):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"suite": "correctness", "trials": trials}))
        code, out = run_cli(capsys, "audit", "--config", str(cfg))
        assert code == 2
        assert out.out == ""
        self.assert_refused(out, "trials")

    @pytest.mark.parametrize("argv, message", [
        (("audit", "--suite", "counts", "--scheme", "het2",
          "--n", "3", "--d", "2", "--k", "2", "--length", "6"),
         "scheme het2 needs D >= 3, got D=2"),
        (("run", "--scheme", "dapac", "--n", "3", "--d", "3", "--k", "2",
          "--length", "4", "--vstar", "1,1,1"),
         "scheme dapac splits messages into 3 sub-packets, which does not divide "
         "length 4 (smallest valid length: 3)"),
        (("run", *HET1_FLAGS, "--vstar", "1,1,3"), "attribute value 3 outside alphabet [1, 2]"),
        (("run", "--scheme", "mix", *HET1_FLAGS[2:], "--vstar", "1,1,1", "--lambda", "abc"),
         "bad lambda 'abc': Invalid literal for Fraction: 'abc'"),
        (("run", "--scheme", "mix", *HET1_FLAGS[2:], "--vstar", "1,1,1", "--lambda", "1/0"),
         "bad lambda '1/0': Fraction(1, 0)"),
        (("curve", "--d", "2", "--k", "2", "--grid", "0"), "grid must be positive"),
        (("curve", "--d", "1", "--k", "2"), "curve needs D >= 2 and K >= 2"),
        (("run", "--scheme", "het1", "--n", "40", "--d", "2", "--k", "2", "--length", "2"),
         "K^N = 2^40 messages exceed 2^32: message ids travel as 32-bit words"),
    ], ids=["audit-het2-two-servers", "run-dapac-length", "run-vstar-value",
            "run-lambda-not-a-number", "run-lambda-zero-denominator", "curve-grid-zero",
            "curve-one-dedicated-server", "run-2^40-messages"])
    def test_invalid_point_is_refused_before_the_config_echo(self, capsys, argv, message):
        code, out = run_cli(capsys, *argv)
        assert code == 2
        assert out.out == ""
        assert out.err == f"invalid configuration: {message}\n"

    def test_trials_is_refused_where_no_suite_reads_it(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"suite": "privacy", "trials": 5}))
        code, out = run_cli(capsys, "audit", "--config", str(cfg))
        assert code == 2
        assert out.out == ""
        self.assert_refused(out, "trials", "privacy")

    def test_non_integral_grid_in_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d": 3, "k": 2, "grid": 2.5}))
        code, out = run_cli(capsys, "curve", "--config", str(cfg))
        assert code == 2
        self.assert_refused(out, "grid")


class TestAudit:
    def test_point_privacy_audit(self, capsys):
        code, out = run_cli(capsys, "audit", "--suite", "privacy",
                            "--scheme", "het1", "--n", "3", "--d", "2",
                            "--k", "2", "--q", "3", "--length", "2")
        assert code == 0
        for server in (1, 2, 3):
            assert f"PASS privacy het1 server {server} (max TV 0)" in out.out
        assert "PASS overall" in out.out

    @pytest.mark.parametrize("flags,servers", [
        # a public attribute gives dapac a central server it never queries
        (("dapac", "--n", "4", "--d", "3", "--q", "2", "--length", "3"), 3),
        # with N == D the central server still answers het1 and het2
        (("het1", "--n", "2", "--d", "2", "--q", "3", "--length", "2"), 3),
        (("het2", "--n", "3", "--d", "3", "--q", "2", "--length", "6"), 4),
    ])
    def test_point_privacy_audit_covers_the_queried_servers(self, capsys, flags, servers):
        code, out = run_cli(capsys, "audit", "--suite", "privacy", "--k", "2",
                            "--scheme", *flags)
        assert code == 0
        checks = [line for line in out.out.splitlines() if line.startswith("PASS privacy")]
        assert checks == [f"PASS privacy {flags[0]} server {n} (max TV 0)"
                          for n in range(1, servers + 1)]

    def test_counts_suite_report_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out = run_cli(capsys, "audit", "--suite", "counts",
                            "--out", str(path))
        assert code == 0
        assert out.out.count("PASS counts") == 16
        report = json.loads(path.read_text())
        assert report["pass"] is True
        assert report["suites"][0]["suite"] == "counts"

    def test_secrecy_point_beyond_enumeration_passes(self, capsys):
        # q^(pool symbols) = 3^40: far past any enumeration, one rank test
        code, out = run_cli(capsys, "audit", "--suite", "secrecy",
                            "--scheme", "het1", "--n", "3", "--d", "2",
                            "--k", "2", "--q", "3", "--length", "20")
        assert code == 0
        assert "PASS secrecy het1 (max TV 0)" in out.out

    def test_failing_secrecy_report_is_written(self, capsys, monkeypatch, tmp_path):
        # server 1 names no pad labels, so its shares leak: the report names
        # the leaking perturbation, and the file must still be JSON
        label_table = het1.label_table

        def unpadded(server, params, public, own_value):
            table = label_table(server, params, public, own_value)
            return {key: [] for key in table} if server == 1 else table

        monkeypatch.setattr(het1, "label_table", unpadded)
        path = tmp_path / "report.json"
        code, out = run_cli(capsys, "audit", "--suite", "secrecy",
                            "--scheme", "het1", "--n", "3", "--d", "2",
                            "--k", "2", "--q", "3", "--length", "2",
                            "--out", str(path))
        assert code == cli.EXIT_FAIL
        assert "FAIL secrecy het1 (max TV 1)" in out.out
        report = json.loads(path.read_text())
        assert report["pass"] is False
        m, alt = report["suites"][0]["checks"][0]["report"]["worst_perturbation"]
        assert isinstance(m, int) and len(alt) == 2

    def test_privacy_point_at_large_field_passes(self, capsys):
        code, out = run_cli(capsys, "audit", "--suite", "privacy",
                            "--scheme", "het1", "--n", "3", "--d", "2",
                            "--k", "2", "--q", "65537", "--length", "2")
        assert code == 0
        checks = [line for line in out.out.splitlines() if line.startswith("PASS privacy")]
        assert checks == [f"PASS privacy het1 server {n} (max TV 0)" for n in range(1, 4)]

    def test_unknown_suite_in_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"suite": "bogus"}))
        code, out = run_cli(capsys, "audit", "--config", str(cfg))
        assert code == 2
        assert "unknown suite" in out.err

    def test_point_correctness_reads_trials_from_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"suite": "correctness", "scheme": "het1", "n": 3,
                                   "d": 2, "k": 2, "length": 2, "trials": 1}))
        code, out = run_cli(capsys, "audit", "--config", str(cfg))
        assert code == 0
        assert "PASS correctness het1 (0 failures in 8 runs)" in out.out

    def test_builtin_correctness_reads_trials_from_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"suite": "correctness", "trials": 1}))
        code, out = run_cli(capsys, "audit", "--config", str(cfg))
        assert code == 0
        checks = [line for line in out.out.splitlines() if line.startswith("PASS correctness")]
        assert checks == ["PASS correctness het1 (0 failures in 8 runs)",
                          "PASS correctness het2 (0 failures in 16 runs)",
                          "PASS correctness dapac (0 failures in 8 runs)"]

    def test_every_suite_reads_trials_as_the_correctness_sweep(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"suite": "all", "scheme": "het1", "n": 3,
                                   "d": 2, "k": 2, "length": 2, "trials": 1}))
        code, out = run_cli(capsys, "audit", "--config", str(cfg))
        assert code == 0
        assert "PASS correctness het1 (0 failures in 8 runs)" in out.out

    def test_point_correctness_runs_the_suites_default_trials(self, capsys):
        code, out = run_cli(capsys, "audit", "--suite", "correctness", *HET1_FLAGS)
        assert code == 0
        assert "PASS correctness het1 (0 failures in 400 runs)" in out.out

    def test_point_correctness_applies_the_redraw_bound(self, capsys, monkeypatch):
        # a clean sweep that redrew more often than 10D/q must still fail
        def redrawing(scheme, params, trials=50):
            return {"scheme": scheme, "params": params, "runs": 8, "failures": 0,
                    "retries": 8, "attempts": 8, "retry_frequency": Fraction(1),
                    "pass": True}

        monkeypatch.setattr(audit, "audit_correctness", redrawing)
        code, out = run_cli(capsys, "audit", "--suite", "correctness", *HET1_FLAGS)
        assert code == 1
        assert "FAIL correctness het1 (0 failures in 8 runs)" in out.out
        assert "FAIL overall" in out.out

    def test_point_counts_audit(self, capsys):
        code, out = run_cli(capsys, "audit", "--suite", "counts",
                            "--scheme", "dapac", "--n", "3", "--d", "3",
                            "--k", "2", "--length", "3")
        assert code == 0
        checks = [line for line in out.out.splitlines() if line.startswith("PASS counts")]
        assert checks == ["PASS counts dapac D=3 K=2"]

    def test_mix_is_not_an_audit_point(self, capsys):
        code, out = run_cli(capsys, "audit", "--suite", "counts", "--scheme", "mix",
                            *HET1_FLAGS[2:])
        assert code == 2
        assert out.out == ""
        assert "audits cover" in out.err


def read_curve(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    header = lines[1].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[2:]]


class TestCurve:
    def test_anchor_rows_and_dominance(self, capsys, tmp_path):
        path = tmp_path / "curve.csv"
        code, _ = run_cli(capsys, "curve", "--d", "4", "--k", "3",
                          "--out", str(path))
        assert code == 0
        header, rows = read_curve(path)
        assert header[:7] == list(cli.CURVE_COLUMNS)
        by_tag = {r["lambda_or_mix"]: r for r in rows}
        assert by_tag["het1"]["load_ratio_exact"] == "1/12"
        assert by_tag["het1"]["rate_frontier_exact"] == "1/4"
        assert by_tag["het2"]["load_ratio_exact"] == "3/4"
        assert by_tag["het2"]["rate_frontier_exact"] == "5/24"
        assert by_tag["dapac"]["load_ratio_exact"] == "inf"
        assert by_tag["dapac"]["rate_frontier_exact"] == "1/6"
        assert len(rows) == 3 + 13  # anchors plus lambda grid 0..12
        for row in rows:
            ts = Fraction(row["rate_timeshare_exact"])
            fr = Fraction(row["rate_frontier_exact"])
            assert fr >= ts

    def test_two_server_curve_has_no_het2(self, capsys, tmp_path):
        path = tmp_path / "curve2.csv"
        code, _ = run_cli(capsys, "curve", "--d", "2", "--k", "2",
                          "--grid", "4", "--out", str(path))
        assert code == 0
        _, rows = read_curve(path)
        tags = [r["lambda_or_mix"] for r in rows]
        assert "het2" not in tags
        for row in rows:
            assert row["rate_frontier_exact"] == row["rate_timeshare_exact"]

    def test_quarter_row_matches_executable_mix(self, capsys, tmp_path):
        # the D=2, K=2 grid row at 1/4 must agree with the executed mix
        path = tmp_path / "curve2.csv"
        run_cli(capsys, "curve", "--d", "2", "--k", "2", "--grid", "4",
                "--out", str(path))
        _, rows = read_curve(path)
        row = next(r for r in rows if r["lambda_or_mix"] == "1/4")
        assert row["rate_timeshare_exact"] == "4/13"
        assert row["load_ratio_exact"] == "7/12"

    def test_missing_dimension(self, capsys):
        code, out = run_cli(capsys, "curve", "--k", "3")
        assert code == 2
        assert "--d" in out.err

    def test_stdout_when_no_out_file(self, capsys):
        code, out = run_cli(capsys, "curve", "--d", "3", "--k", "2",
                            "--grid", "2")
        assert code == 0
        assert out.out.splitlines()[1].startswith("lambda_or_mix,")
