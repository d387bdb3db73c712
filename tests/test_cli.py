"""Tests for the `fidest` command-line front end."""

import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fidest
from fidest import cli, estimation, f2, magic, samplers, states
from reference import pauli_expectation_rows_complex


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    meta = {}
    lines = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition(": ")
            meta[key] = val
        else:
            lines.append(line)
    rows = list(csv.reader(io.StringIO("\n".join(lines))))
    return meta, rows[0], rows[1:]


class TestResultTable:
    def test_row_length_check(self):
        from fidest.errors import ConfigError
        t = cli.ResultTable(columns=["a", "b"])
        with pytest.raises(ConfigError):
            t.add(1)

    def test_csv_metadata_lines(self):
        t = cli.ResultTable(columns=["a"], metadata={"k": "v"})
        t.add(1)
        text = t.to_csv()
        assert text.startswith("# k: v\n")
        assert "a\n1\n" in text

    def test_json_roundtrip(self):
        t = cli.ResultTable(columns=["a"], metadata={"k": 1})
        t.add(2.5)
        data = json.loads(t.to_json())
        assert data["columns"] == ["a"]
        assert data["rows"] == [[2.5]]


class TestExitCodes:
    def test_config_error(self, capsys):
        code, _, err = run_cli(capsys, "run", "--shots", "0")
        assert code == 2
        assert "error" in err

    def test_cap_exceeded(self, capsys):
        code, _, err = run_cli(capsys, "tomography", "--n", "9",
                               "--shots-ladder", "10")
        assert code == 3

    @pytest.mark.parametrize("argv", [
        ("run", "--scheme", "nldfe", "--n", str(estimation.QWC_QUBIT_CAP + 1)),
        ("nldfe-compare", "--nmax", str(estimation.QWC_QUBIT_CAP + 1)),
    ], ids=" ".join)
    def test_qwc_cap_before_coefficients(self, capsys, monkeypatch, argv):
        # the cap refuses the command before the 4^n coefficient transform
        def refuse(*args, **kwargs):
            raise AssertionError("pauli_coefficients called above the QWC cap")
        for module in (cli, estimation, f2):
            monkeypatch.setattr(module, "pauli_coefficients", refuse)
        code, _, err = run_cli(capsys, *argv, "--deterministic")
        assert code == 3
        assert f"capped at n <= {estimation.QWC_QUBIT_CAP}" in err

    @pytest.mark.parametrize("argv", [
        ("norms", "--family", "mps", "--n", "10", "--chi", "100000"),
        ("run", "--family", "mps", "--n", "4", "--chi", "20"),
        ("mps-sample", "--chi", str(states.MPS_BOND_CAP + 1)),
    ], ids=" ".join)
    def test_mps_bond_cap_before_build(self, capsys, monkeypatch, argv):
        # the bond cap refuses the command before any MPS is built
        def refuse(*args, **kwargs):
            raise AssertionError("MPS built above the bond cap")
        monkeypatch.setattr(states, "random_real_mps", refuse)
        code, _, err = run_cli(capsys, *argv, "--deterministic")
        assert code == 3
        assert f"chi <= {states.MPS_BOND_CAP}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("alpha", ["2", "nan"])
    def test_alpha_checked_before_build(self, capsys, monkeypatch, alpha):
        # a bad --alpha exits 2 before any target is built
        def refuse(*args, **kwargs):
            raise AssertionError("target built for a bad --alpha")
        monkeypatch.setattr(cli, "_build_target", refuse)
        code, _, err = run_cli(capsys, "run", "--alpha", alpha, "--deterministic")
        assert code == 2
        assert "--alpha" in err

    @pytest.mark.parametrize("argv", [
        ("mps-sample", "--n", "7"),
        ("dicke", "--n", "7", "--k", "1"),
    ], ids=" ".join)
    def test_verify_cap_before_draw(self, capsys, monkeypatch, argv):
        # the enumeration cap refuses --verify before any sampler is built
        def refuse(*args, **kwargs):
            raise AssertionError("sampler built above the --verify cap")
        monkeypatch.setattr(samplers, "MPSL2Sampler", refuse)
        monkeypatch.setattr(samplers, "DickeSampler", refuse)
        code, _, err = run_cli(capsys, *argv, "--verify", "--deterministic")
        assert code == 3
        assert "--verify enumeration capped at n <= 6" in err

    @pytest.mark.parametrize("argv", [
        ("fig2a",),
        ("run", "--input-fidelity", "0.9"),
    ], ids=" ".join)
    def test_huge_n_with_fidelity(self, capsys, argv):
        # the fidelity floor 2^-n of a 400-digit n is 0.0, not an overflow
        code, _, err = run_cli(capsys, *argv, "--n", "9" * 400, "--deterministic")
        assert code == 3
        assert "Traceback" not in err

    @pytest.mark.parametrize("command",
                             ["hypergraph-bounds", "haar-scan", "nldfe-compare"])
    def test_nmin_below_one(self, capsys, command):
        code, _, err = run_cli(capsys, command, "--nmin", "0", "--nmax", "2",
                               "--samples", "2", "--deterministic")
        assert code == 2
        assert "--nmin" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("run", "--p", "1.5"),
        ("run", "--p", "-0.2"),
        ("run", "--input-fidelity", "2"),
        ("run", "--mom-batches", "0"),
        ("run", "--mom-batches", "-3"),
        ("run", "--mom-batches", "5", "--shots", "4"),
        ("run", "--family", "dicke", "--n", "6", "--k", "7"),
        ("dicke", "--n", "8", "--k", "5"),
        ("tomography", "--shots-ladder", "10,abc"),
        ("tomography", "--shots-ladder", "-5"),
        ("tomography", "--shots-ladder", "99999999999999999999"),
        ("dicke", "--samples", "99999999999999999999"),
        ("run", "--shots", "99999999999999999999"),
        ("fig2a", "--n", "3", "--fidelity", "2"),
        ("mps-sample", "--chi", "0"),
        ("norms", "--family", "mps", "--chi", "0"),
        ("haar-scan", "--nmin", "5", "--nmax", "3"),
        ("haar-scan", "--nmin", "8", "--nmax", "8", "--dirichlet-samples", "0"),
        ("hypergraph-bounds", "--nmin", "5", "--nmax", "4"),
        ("nldfe-compare", "--nmin", "4", "--nmax", "3"),
        ("norms", "--n", "2", "--out", "/nonexistent-fidest-dir/out.csv"),
        ("run", "--alpha", "2"),
        ("run", "--alpha", "nan"),
    ], ids=" ".join)
    def test_bad_input(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv, "--deterministic")
        assert code == 2
        assert "error" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("config", [
        {"shots": "abc"},  # a string for an int
        {"p": "high"},  # a string for a float
        {"n": [3, 4]},  # a list
        {"scheme": "zfe"},  # outside the choices
    ], ids=json.dumps)
    def test_bad_config_value(self, capsys, tmp_path, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, _, err = run_cli(capsys, "run", "--config", str(cfg),
                               "--deterministic")
        assert code == 2
        assert "error" in err
        assert "Traceback" not in err

    def test_unknown_command(self, capsys):
        code = cli.main(["frobnicate"])
        capsys.readouterr()
        assert code == 2

    def test_success(self, capsys):
        code, out, _ = run_cli(capsys, "norms", "--family", "dicke",
                               "--n", "4", "--k", "2", "--deterministic")
        assert code == 0
        assert out


def test_cli_import_loads_no_scipy():
    # scipy costs ~0.25 s of every fidest process; no command needs it.
    src = os.path.dirname(os.path.dirname(fidest.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    probe = "import sys, fidest.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "False"


class TestDeterminism:
    def test_byte_identical_output(self, capsys):
        argv = ("run", "--scheme", "dfe", "--family", "dicke", "--n", "4",
                "--k", "2", "--shots", "200", "--p", "0.2", "--seed", "7",
                "--deterministic")
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_seed_changes_output(self, capsys):
        base = ("run", "--scheme", "dfe", "--family", "haar", "--n", "3",
                "--shots", "100", "--p", "0.3", "--deterministic")
        _, out1, _ = run_cli(capsys, *base, "--seed", "1")
        _, out2, _ = run_cli(capsys, *base, "--seed", "2")
        assert out1 != out2

    def test_timestamp_suppressed(self, capsys):
        _, out, _ = run_cli(capsys, "norms", "--family", "haar", "--n", "2",
                            "--deterministic")
        assert "timestamp" not in out


class TestConfigPrecedence:
    def test_config_file_fills_unset(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 3, "seed": 5}))
        code, out, _ = run_cli(capsys, "norms", "--family", "haar",
                               "--config", str(cfg), "--deterministic")
        assert code == 0
        meta, _, _ = parse_csv(out)
        assert meta["seed"] == "5"

    def test_cli_beats_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5}))
        code, out, _ = run_cli(capsys, "norms", "--family", "haar", "--n",
                               "2", "--seed", "9", "--config", str(cfg),
                               "--deterministic")
        assert code == 0
        meta, _, _ = parse_csv(out)
        assert meta["seed"] == "9"

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"shot": 10, "nn": 3}))
        code, out, err = run_cli(capsys, "norms", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "nn" in err and "shot" in err
        assert "Traceback" not in err

    def test_both_spellings_and_config_key_accepted(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        for key in ("mom-batches", "mom_batches"):
            cfg.write_text(json.dumps({key: 2, "config": "ignored.json"}))
            code, out, _ = run_cli(capsys, "run", "--n", "2", "--shots", "10",
                                   "--config", str(cfg), "--deterministic")
            assert code == 0
            assert "mom_batches=2" in parse_csv(out)[0]["config"]

    def test_bad_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        for content in (b"not json", b"\xd0\xff binary"):
            cfg.write_bytes(content)
            code, _, err = run_cli(capsys, "norms", "--config", str(cfg))
            assert code == 2
            assert "Traceback" not in err


def _readme_commands():
    """The argv of each `fidest` line in README's CLI code block."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:]
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("fidest ")]


def _readme_caps():
    """(cap cell, module, constant) of each row of README's "Size caps"
    table that names a module constant."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("## Size caps", 1)[1].split("\n\n|", 1)[1].split("\n\n", 1)[0]
    rows = [line.split("|")[1:-1] for line in ("|" + table).splitlines()[2:]]
    return [(cap, *named.groups()) for _, cap, constant in rows
            if (named := re.match(r" `(\w+)\.([A-Z_]+)`", constant))]


@pytest.mark.parametrize("cap,module,constant", _readme_caps(),
                         ids=[c for _, _, c in _readme_caps()])
def test_readme_cap_is_the_constant(cap, module, constant):
    assert int(re.search(r"≤ (\d+)", cap).group(1)) == getattr(
        getattr(fidest, module), constant)


def test_readme_caps_table_is_read():
    assert {c for _, _, c in _readme_caps()} >= {
        "COEFF_CAP", "QWC_QUBIT_CAP", "SAMPLED_RANK_QUBIT_CAP", "MUB_QUBIT_CAP",
        "MPS_QUBIT_CAP", "MPS_BOND_CAP", "DICKE_QUBIT_CAP"}


class TestConfigEcho:
    """The `config` metadata line echoes every option a subcommand owns."""

    @staticmethod
    def config_line(capsys, argv):
        args = cli._parse(argv)
        cli._emit(cli.ResultTable(columns=["x"]), args)
        return parse_csv(capsys.readouterr().out)[0]["config"]

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_names_every_option(self, capsys, command):
        args = vars(cli._parse([command]))
        echoed = self.config_line(capsys, [command]).split(" ")
        assert echoed == [f"{opt.dest}={args[opt.dest]}"
                          for opt in cli._COMMANDS[command].options]

    def test_noise_level_is_echoed(self, capsys):
        lines = set()
        for p in ("0.1", "0.3"):
            code, out, _ = run_cli(capsys, "run", "--n", "2", "--shots", "10",
                                   "--p", p, "--deterministic")
            assert code == 0
            lines.add(parse_csv(out)[0]["config"])
        assert len(lines) == 2


class TestOptionTable:
    """Each option's default, config typing and README usage, read
    through the one table that declares it."""

    COMMON = {"seed": 0, "workers": 1, "out": None, "format": "csv",
              "deterministic": False, "config": None}
    DEFAULTS = {
        "fig2a": {"n": 7, "fidelity": 0.8955, "shots": 5000},
        "haar-scan": {"nmin": 2, "nmax": 8, "samples": 100,
                      "dirichlet_samples": 10000},
        "nldfe-compare": {"nmin": 3, "nmax": 6, "samples": 100, "shots": 2000,
                          "ordering": "canonical"},
        "hypergraph-bounds": {"nmin": 4, "nmax": 7, "samples": 2000,
                              "shots": 20000},
        "run": {"scheme": "fofe", "family": "hypergraph-complete3", "n": 4,
                "k": 1, "chi": 2, "shots": 1000, "alpha": 0.5, "p": 0.0,
                "input_fidelity": None, "mom_batches": 1},
        "tomography": {"n": 2, "shots_ladder": "1000,4000,16000"},
        "mps-sample": {"n": 6, "chi": 4, "samples": 200, "verify": False},
        "dicke": {"n": 8, "k": 3, "samples": 1000, "verify": False},
        "norms": {"family": "haar", "n": 4, "k": 1, "chi": 2},
    }
    # a value other than the default, for the options that are not an
    # int, a switch or a choice
    OTHER = {"fidelity": 0.9, "p": 0.5, "input_fidelity": 0.9, "alpha": 1.0,
             "shots_ladder": "10,20", "out": "result.csv"}

    @pytest.mark.parametrize("command", sorted(DEFAULTS))
    def test_resolved_defaults(self, command):
        resolved = vars(cli._parse([command]))
        expected = {"command": command, **self.COMMON, **self.DEFAULTS[command]}
        assert resolved == expected
        assert ({k: type(v) for k, v in resolved.items()}
                == {k: type(v) for k, v in expected.items()})

    @pytest.mark.parametrize("command,option", [
        (name, opt) for name, cmd in cli._COMMANDS.items()
        for opt in (*cmd.options, *cli._COMMON)
        # the config file's own "config" key is ignored
        if opt.flag != "config"
    ], ids=lambda x: x if isinstance(x, str) else f"--{x.flag}")
    def test_config_value_is_read_as_the_flag(self, capsys, tmp_path,
                                              command, option):
        if option.type is bool:
            value, flag = True, [f"--{option.flag}"]
        else:
            if option.choices:
                value = next(c for c in option.choices if c != option.default)
            elif option.type is int:
                value = option.default + 1
            else:
                value = self.OTHER[option.dest]
            flag = [f"--{option.flag}", str(value)]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({option.flag: value}))
        options = (*cli._COMMANDS[command].options, *cli._COMMON)

        def resolve(*argv):  # parsed and filled, not checked
            args = cli.build_parser().parse_args([command, *argv])
            cli._fill(args, options)
            return vars(args)

        from_file, from_flag = resolve("--config", str(cfg)), resolve(*flag)
        assert (from_file.pop("config"), from_flag.pop("config")) == (str(cfg), None)
        assert from_file == from_flag
        assert from_flag[option.dest] == value != option.default
        # a wrong-typed value exits 2 and names the option; a plain string
        # option reads any JSON value as its text
        if option.type is not str or option.choices:
            cfg.write_text(json.dumps({option.flag: [1]}))
            code, _, err = run_cli(capsys, command, "--config", str(cfg))
            assert code == 2
            assert f"--{option.flag}" in err

    def test_readme_shows_every_subcommand(self):
        assert {argv[0] for argv in _readme_commands()} == set(cli._COMMANDS)

    @pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
    def test_readme_command_is_valid(self, argv):
        # parsed, filled and checked, not run
        cli._parse(argv)


class TestOutputFile:
    def test_out_writes_file(self, capsys, tmp_path):
        path = tmp_path / "result.csv"
        code, out, _ = run_cli(capsys, "norms", "--family", "haar", "--n",
                               "2", "--out", str(path), "--deterministic")
        assert code == 0
        assert out == ""
        assert path.read_text()

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "norms", "--family", "haar", "--n",
                               "2", "--format", "json", "--deterministic")
        assert code == 0
        data = json.loads(out)
        assert "columns" in data and "rows" in data


class TestSubcommands:
    def test_run_fofe(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--scheme", "fofe", "--family",
                               "hypergraph-complete3", "--n", "4", "--shots",
                               "500", "--p", "0.1", "--deterministic")
        assert code == 0
        meta, header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        mean = float(row["mean"])
        exact = float(row["exact_fidelity"])
        stderr = float(row["stderr"])
        assert abs(mean - exact) < 5 * max(stderr, 1e-6)

    def test_run_input_fidelity(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--scheme", "dfe", "--family",
                               "dicke", "--n", "4", "--k", "1", "--shots",
                               "300", "--input-fidelity", "0.9",
                               "--deterministic")
        assert code == 0
        _, header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert float(row["exact_fidelity"]) == pytest.approx(0.9, abs=1e-9)

    def test_nldfe_compare(self, capsys):
        code, out, _ = run_cli(capsys, "nldfe-compare", "--nmin", "3",
                               "--nmax", "4", "--samples", "5", "--shots",
                               "50", "--deterministic")
        assert code == 0
        _, header, rows = parse_csv(out)
        assert len(rows) == 2
        for row in rows:
            d = dict(zip(header, row))
            assert float(d["mean_w"]) <= float(d["mean_l1"]) + 1e-9

    def test_haar_scan(self, capsys):
        code, out, _ = run_cli(capsys, "haar-scan", "--nmin", "2", "--nmax",
                               "3", "--samples", "20", "--dirichlet-samples",
                               "200", "--deterministic")
        assert code == 0
        _, header, rows = parse_csv(out)
        assert len(rows) == 2
        for row in rows:
            d = dict(zip(header, row))
            assert float(d["l1_closed_form"]) > 1.0

    def test_tomography_ladder(self, capsys):
        code, out, _ = run_cli(capsys, "tomography", "--n", "2",
                               "--shots-ladder", "200,2000",
                               "--deterministic")
        assert code == 0
        _, header, rows = parse_csv(out)
        assert len(rows) == 2

    def test_dicke_verify(self, capsys):
        code, out, _ = run_cli(capsys, "dicke", "--n", "6", "--k", "2",
                               "--samples", "300", "--verify",
                               "--deterministic")
        assert code == 0

    def test_mps_sample_verify(self, capsys):
        code, out, _ = run_cli(capsys, "mps-sample", "--n", "4", "--chi",
                               "2", "--samples", "100", "--verify",
                               "--deterministic")
        assert code == 0

    def test_hypergraph_bounds(self, capsys):
        code, out, _ = run_cli(capsys, "hypergraph-bounds", "--nmin", "4",
                               "--nmax", "4", "--samples", "50", "--shots",
                               "200", "--deterministic")
        assert code == 0
        _, header, rows = parse_csv(out)
        d = dict(zip(header, rows[0]))
        assert float(d["sampled_lower"]) <= float(d["sampled_upper"]) + 1e-9
        closed = magic.random3_variance_bounds(4)
        assert float(d["closed_lower"]) == closed.lower
        assert float(d["closed_upper"]) == closed.upper
        assert float(d["closed_lower"]) <= float(d["closed_upper"])

    def test_haar_scan_one_sample(self, capsys):
        # one sample has no spread: stderr 0.0, not nan, and no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "haar-scan", "--nmin", "2",
                                     "--nmax", "2", "--samples", "1",
                                     "--deterministic")
        assert code == 0
        assert err == ""
        _, header, rows = parse_csv(out)
        d = dict(zip(header, rows[0]))
        assert d["l1_stderr"] == d["stripped_stderr"] == "0.0"

    @pytest.mark.parametrize("n", [magic.SAMPLED_RANK_QUBIT_CAP + 1, 64])
    def test_hypergraph_bounds_cap(self, capsys, n):
        code, _, err = run_cli(capsys, "hypergraph-bounds", "--nmin", str(n),
                               "--nmax", str(n), "--samples", "1", "--shots",
                               "1", "--deterministic")
        assert code == 3
        assert "Traceback" not in err

    def test_hypergraph_bounds_at_cap(self, capsys):
        n = str(magic.SAMPLED_RANK_QUBIT_CAP)
        code, out, _ = run_cli(capsys, "hypergraph-bounds", "--nmin", n,
                               "--nmax", n, "--samples", "5",
                               "--deterministic")
        assert code == 0
        _, header, rows = parse_csv(out)
        assert rows[0][0] == n

    def test_dicke_cap(self, capsys):
        # a drawn Pauli point is a pair of int64 words
        code, _, err = run_cli(capsys, "dicke", "--n",
                               str(samplers.DICKE_QUBIT_CAP + 1), "--k", "3",
                               "--samples", "1", "--deterministic")
        assert code == 3
        assert "Traceback" not in err

    def test_dicke_at_cap(self, capsys):
        n = str(samplers.DICKE_QUBIT_CAP)
        code, out, _ = run_cli(capsys, "dicke", "--n", n, "--k", "3",
                               "--samples", "5", "--deterministic")
        assert code == 0
        _, header, rows = parse_csv(out)
        assert rows[0][0] == n

    def test_fig2a_smoke(self, capsys):
        # tiny configuration; the full-size run is in the acceptance suite
        code, out, _ = run_cli(capsys, "fig2a", "--n", "4", "--fidelity",
                               "0.9", "--shots", "300", "--deterministic")
        assert code == 0
        _, header, rows = parse_csv(out)
        schemes = {dict(zip(header, r))["scheme"] for r in rows}
        assert {"dfe", "fofe"} <= schemes


# Small valid values of every flag, by subcommand.  The size flags (n,
# samples, shots, ...) are always given, so that no run falls back to a
# default workload; the others may be left out.
_SIZE_FLAGS = {"--n", "--nmin", "--nmax", "--samples", "--shots",
               "--dirichlet-samples", "--chi", "--shots-ladder"}
_FAMILIES = ("phase-random", "hypergraph-random", "hypergraph-complete3",
             "dicke", "haar", "mps")
_SWITCH = st.just(None)  # a flag that takes no value
_FLAGS = {
    "fig2a": {"--n": st.integers(1, 4), "--fidelity": st.floats(0.0, 1.0),
              "--shots": st.integers(1, 64)},
    "haar-scan": {"--nmin": st.integers(1, 4), "--nmax": st.integers(1, 4),
                  "--samples": st.integers(1, 3),
                  "--dirichlet-samples": st.integers(1, 3)},
    "nldfe-compare": {"--nmin": st.integers(1, 4), "--nmax": st.integers(1, 4),
                      "--samples": st.integers(1, 3),
                      "--shots": st.integers(1, 64),
                      "--ordering": st.sampled_from(["canonical",
                                                     "greedy-weight"])},
    "hypergraph-bounds": {"--nmin": st.integers(1, 4),
                          "--nmax": st.integers(1, 4),
                          "--samples": st.integers(1, 3),
                          "--shots": st.integers(1, 64)},
    "run": {"--scheme": st.sampled_from(["dfe", "fofe", "nldfe"]),
            "--family": st.sampled_from(_FAMILIES), "--n": st.integers(1, 4),
            "--k": st.integers(0, 4), "--chi": st.integers(1, 3),
            "--shots": st.integers(1, 64), "--alpha": st.sampled_from([0.5, 1.0]),
            "--p": st.floats(0.0, 1.0), "--input-fidelity": st.floats(0.0, 1.0),
            "--mom-batches": st.integers(1, 4)},
    "tomography": {"--n": st.integers(1, 4),
                   "--shots-ladder": st.lists(st.integers(0, 64), min_size=1,
                                              max_size=3).map(
                       lambda xs: ",".join(map(str, xs)))},
    "mps-sample": {"--n": st.integers(1, 4), "--chi": st.integers(1, 3),
                   "--samples": st.integers(1, 3), "--verify": _SWITCH},
    "dicke": {"--n": st.integers(1, 4), "--k": st.integers(0, 2),
              "--samples": st.integers(1, 3), "--verify": _SWITCH},
    "norms": {"--family": st.sampled_from(_FAMILIES), "--n": st.integers(1, 4),
              "--k": st.integers(0, 4), "--chi": st.integers(1, 3)},
}
_COMMON = {"--seed": st.integers(0, 2**32 - 1), "--workers": st.integers(1, 4),
           "--format": st.sampled_from(["csv", "json"])}
# out-of-range and wrong-type values, put in place of a valid one
_BAD = st.sampled_from(["-1", "0", "-0.5", "1.5", "nan", "abc", "2.5", "",
                        "[1]", "1e400", "11", "17"])


@pytest.mark.parametrize("command", sorted(_FLAGS))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzz_every_subcommand(capsys, command, data):
    # every input ends in exit 0, 2, 3 or 4, with no traceback
    flags = {**_FLAGS[command], **_COMMON}
    given_flags = [f for f in flags if f in _SIZE_FLAGS
                   or data.draw(st.booleans(), label=f"give {f}")]
    bad = data.draw(st.sets(st.sampled_from(sorted(given_flags)), max_size=2),
                    label="bad flags")
    argv = [command, "--deterministic"]
    for flag in given_flags:
        value = data.draw(_BAD if flag in bad else flags[flag], label=flag)
        argv += [flag] if value is None else [flag, str(value)]
    code, _, err = run_cli(capsys, *argv)
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in err


class TestRealTransformNoChange:
    """CLI output is byte-identical whether the Pauli transform of real
    rows runs in real arithmetic or through the all-complex kernel."""

    COMMANDS = [("fig2a", "--n", "6"),
                ("hypergraph-bounds", "--nmin", "4", "--nmax", "5"),
                *(("run", "--n", "6", "--p", "0.1", "--family", family,
                   "--scheme", scheme)
                  for family in ("hypergraph-complete3", "dicke")
                  for scheme in ("dfe", "fofe", "nldfe"))]

    @pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
    def test_stdout_matches_complex_kernel(self, capsys, monkeypatch, argv):
        argv = [*argv, "--seed", "1", "--deterministic", "--format", "json"]
        real = run_cli(capsys, *argv)
        calls = []

        def oracle(state, words):
            calls.append(state)
            return pauli_expectation_rows_complex(state, words)

        for module in list(sys.modules.values()):
            if getattr(module, "pauli_expectation_rows", None) is f2.pauli_expectation_rows:
                monkeypatch.setattr(module, "pauli_expectation_rows", oracle)
        assert run_cli(capsys, *argv) == real
        assert real[0] == 0
        # FOFE on a phase state samples uniform X points: no transform
        flat_fofe = "fofe" in argv and "hypergraph-complete3" in argv
        assert bool(calls) != flat_fofe
