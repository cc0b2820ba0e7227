import json
import math
import re
import shlex
import threading
from pathlib import Path

import numpy as np
import pytest

from rabi_spectra import bethe, cli, fock
from rabi_spectra.core import ModelParams, reduce


def run_cli(argv, capsys) -> tuple[int, str]:
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_spectrum_scan_matches_direct_call(tmp_path, capsys):
    code, out = run_cli([
        "--mode", "spectrum-scan", "--omega", "1", "--omega0", "1",
        "--g2", "0.056", "--g1-range", "0:1.2:4", "--n-keep", "3",
        "--n-max", "60",
    ], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# {")
    cfg = json.loads(lines[0][2:])
    assert cfg["mode"] == "spectrum-scan"
    assert cfg["version"]
    assert lines[1] == "g1,eps_0,eps_1,eps_2"
    row = [float(x) for x in lines[2].split(",")]
    p = ModelParams(1.0, 1.0, row[0], 0.056)
    want = fock._eps_levels(p, 60, 3)
    assert np.allclose(row[1:], want, atol=1e-14)


def test_determinism_byte_identical(tmp_path):
    cfg = cli.ScanConfig(mode="spectrum-scan", omega=1.0, omega0=0.8, g1=0.0,
                         g2=0.04, axis="g1", start=0.1, stop=0.9, count=5,
                         n_max=50, n_keep=4, output=str(tmp_path / "a.csv"))
    cli.run(cfg)
    first = (tmp_path / "a.csv").read_bytes()
    for name in ("b.csv", "c.csv"):
        cfg.output = str(tmp_path / name)
        cli.run(cfg)
        # whole files, config echo included; the echo names the output file
        assert (tmp_path / name).read_bytes() == first.replace(b"a.csv", name.encode())
    assert first.count(b"\n") == 7


def test_json_format(capsys):
    code, out = run_cli([
        "--mode", "spectrum-scan", "--omega", "1", "--omega0", "0.5",
        "--g2", "0", "--g1-range", "0:0.4:3", "--n-keep", "2",
        "--n-max", "40", "--format", "json",
    ], capsys)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"config", "rows", "meta"}
    assert len(doc["rows"]) == 3
    assert set(doc["rows"][0]) == {"g1", "eps_0", "eps_1"}


def test_raw_energy_flag(capsys):
    code, out = run_cli([
        "--mode", "spectrum-scan", "--omega", "1", "--omega0", "0.3",
        "--g2", "0", "--g1-range", "0.2:0.2:2", "--n-keep", "2",
        "--n-max", "40", "--raw-energy",
    ], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "g1,E_0,E_1"
    row = [float(x) for x in lines[2].split(",")]
    p = ModelParams(1.0, 0.3, 0.2, 0.0)
    eps = fock._eps_levels(p, 40, 2)
    lam = reduce(p).lambda_plus
    assert np.allclose(row[1:], (eps - lam) * p.omega, atol=1e-13)


def test_exceptional_mode_reproduces_n0_curve(capsys):
    code, out = run_cli([
        "--mode", "exceptional", "--n", "0", "--omega", "1", "--omega0", "1",
        "--g2-range", "0.2:0.5:2", "--free", "g1", "--free-range", "1:2:2",
        "--n-max", "120",
    ], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 2
    for row in rows:
        g2, g1 = float(row[0]), float(row[1])
        assert g1 == pytest.approx(math.sqrt(2 + g2 * g2), abs=1e-7)
        assert int(row[4]) == 1


def test_crossing_count_mode(capsys):
    code, out = run_cli([
        "--mode", "crossing-count", "--omega", "1", "--g2", "0.01",
        "--omega0-range", "0.5:0.5:2", "--n", "3",
    ], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    rows = [[float(x) for x in line.split(",")] for line in lines[2:]]
    # resonance omega0 = 0.5: N_cr = 2n + 1
    for row in rows:
        assert row[2] == 2 * row[1] + 1


def test_crossing_count_rows_independent_of_g1(capsys):
    rows = []
    for g1 in ("0", "2"):
        code, out = run_cli([
            "--mode", "crossing-count", "--omega", "1", "--g1", g1, "--g2", "0.01",
            "--omega0-range", "0.05:3:7", "--n", "4",
        ], capsys)
        assert code == 0
        rows.append(out.strip().splitlines()[1:])  # the header line records g1
    assert rows[0] == rows[1]


def test_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "mode": "spectrum-scan", "omega": 1.0, "omega0": 0.5, "g1": 0.0,
        "g2": 0.0, "axis": "g1", "start": 0.0, "stop": 0.5, "count": 3,
        "n_max": 40, "n_keep": 2,
    }))
    code, out = run_cli(["--config", str(cfg_path)], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 5


def test_config_errors_exit_2(capsys, tmp_path):
    code, _ = run_cli(["--mode", "spectrum-scan"], capsys)
    assert code == 2  # missing axis range
    code, _ = run_cli(["--mode", "spectrum-scan", "--g1-range", "oops"], capsys)
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"mode": "spectrum-scan", "unknown_field": 3}))
    code, _ = run_cli(["--config", str(bad)], capsys)
    assert code == 2
    code, _ = run_cli([
        "--mode", "exceptional", "--free", "g1", "--g1-range", "0:1:3"], capsys)
    assert code == 2  # free parameter equals the grid axis
    for argv in (
        ["--mode", "spectrum-scan", "--g1-range", "0:1:3", "--n-keep", "0"],
        ["--mode", "spectrum-scan", "--g1-range", "0:1:3", "--n-keep", "13", "--n-max", "5"],
        ["--mode", "weak-compare", "--g1-range", "0:1:3", "--g2", "-0.1"],
        ["--mode", "spectrum-scan", "--g1-range=-0.5:1:3"],
        ["--mode", "exceptional", "--n", "-1", "--g2-range", "0:1:3"],
        ["--mode", "rabi-markers", "--n", "-2", "--g-range", "0.1:1:2"],
    ):
        code, out = run_cli(argv, capsys)
        assert (code, out) == (2, ""), argv
    bad.write_text(json.dumps({"mode": "spectrum-scan", "count": "5"}))
    code, _ = run_cli(["--config", str(bad)], capsys)
    assert code == 2  # field of the wrong type
    for doc in (
        {"mode": "exceptional", "free": "delta"},  # not a model parameter
        {"mode": "exceptional", "free": "omega", "free_start": -1.0},  # omega must be > 0
        {"mode": "exceptional", "free": "g2", "free_start": -0.5},  # g2 must be >= 0
        {"mode": "spectrum-scan", "threads": 2},  # the field is removed
    ):
        bad.write_text(json.dumps(doc))
        code, out = run_cli(["--config", str(bad)], capsys)
        assert (code, out) == (2, ""), doc


def test_weak_compare_columns(capsys):
    code, out = run_cli([
        "--mode", "weak-compare", "--omega", "1", "--omega0", "1",
        "--g2", "0.056", "--g1-range", "0.1:0.3:2", "--n-keep", "3",
        "--n-max", "80",
    ], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "g1,level,numeric,analytic,deviation"
    for line in lines[2:]:
        vals = line.split(",")
        assert abs(float(vals[2]) - float(vals[3])) == pytest.approx(
            float(vals[4]), rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("argv, nan_rows", [
    (["--mode", "weak-compare", "--omega", "1.5", "--omega0", "1.5", "--g2", "0.084",
      "--g1-range", "0.15:0.45:2", "--n-keep", "3", "--n-max", "80"], 0),
    (["--mode", "strong-compare", "--approx", "squeezed", "--omega", "2", "--omega0", "10",
      "--g2", "0.03", "--g1-range", "0.4:0.8:2", "--n-keep", "3", "--n-max", "80"], 0),
    (["--mode", "strong-compare", "--approx", "squeezed", "--omega", "2", "--omega0", "2",
      "--g2", "0.6", "--g1-range", "1.4:1.8:2", "--n-keep", "3", "--n-max", "80"], 6),
])
def test_compare_modes_raw_energy(capsys, argv, nan_rows):
    # with --raw-energy both columns are E = (eps - lambda+) omega and the
    # deviation is omega times the shifted one; NaN rows stay NaN
    def rows(extra):
        code, out = run_cli(argv + extra, capsys)
        assert code == 0
        lines = out.strip().splitlines()
        return json.loads(lines[0][2:]), [[float(x) for x in ln.split(",")] for ln in lines[2:]]

    cfg, shifted = rows([])
    _, raw = rows(["--raw-energy"])
    assert len(raw) == len(shifted) == 6
    nans = 0
    for rs, rr in zip(shifted, raw):
        assert rr[:2] == rs[:2]
        p = ModelParams(cfg["omega"], cfg["omega0"], rs[0], cfg["g2"])
        lam, omega = reduce(p).lambda_plus, p.omega
        assert rr[2] == pytest.approx((rs[2] - lam) * omega, rel=1e-13)
        if math.isnan(rs[3]):
            nans += 1
            assert math.isnan(rr[3]) and math.isnan(rr[4])
            continue
        assert rr[3] == pytest.approx((rs[3] - lam) * omega, rel=1e-13)
        assert rr[4] == pytest.approx(omega * rs[4], rel=1e-9, abs=1e-13)
    assert nans == nan_rows


def test_strong_compare_undefined_regime_rows(capsys):
    # the squeezed spin-down branch is unstable for g1 in [0.7, 0.9] at
    # (omega, omega0, g2) = (1, 1, 0.3): the analytic columns are NaN and
    # the run still succeeds
    code, out = run_cli([
        "--mode", "strong-compare", "--approx", "squeezed", "--omega", "1",
        "--omega0", "1", "--g2", "0.3", "--g1-range", "0.7:0.9:2", "--n-keep", "3",
        "--n-max", "80",
    ], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[2:]]
    assert len(rows) == 6
    for r in rows:
        assert math.isfinite(float(r[2]))
        assert math.isnan(float(r[3])) and math.isnan(float(r[4]))


def test_exit_code_4_on_verification_failure(monkeypatch, capsys):
    from rabi_spectra import bethe
    from rabi_spectra.core import reduce as core_reduce

    def fake_find(n, fixed, free, rng, n_max=0):
        p = ModelParams(1.0, 1.0, 1.4, 0.2)
        sol = bethe.BetheSolution(0, np.zeros(0, dtype=complex), 0.0, 0.0, 0.0)
        return [bethe.ExceptionalPoint(0, p, core_reduce(p), sol, 1e-3, 0.01,
                                       False, "fock gap too large")]

    monkeypatch.setattr(bethe, "find_exceptional", fake_find)
    code, out = run_cli([
        "--mode", "exceptional", "--n", "0", "--omega", "1", "--omega0", "1",
        "--g2-range", "0.2:0.3:2", "--free", "g1",
    ], capsys)
    assert code == 4
    assert "0\n" not in out.splitlines()[-1]  # row carries verified=0
    assert out.strip().splitlines()[-1].split(",")[4] == "0"


EXCEPTIONAL_ARGV = ["--mode", "exceptional", "--n", "2", "--g2-range", "0.2:0.3:2"]


def _raise_from_find_exceptional(monkeypatch, error):
    def failing_find(*args, **kwargs):
        raise error("boom")

    monkeypatch.setattr(bethe, "find_exceptional", failing_find)


@pytest.mark.parametrize("error", [ValueError, bethe.SingularSystem, ZeroDivisionError,
                                   bethe.NotVerified])
def test_exceptional_library_error_exits_3(monkeypatch, capsys, error):
    _raise_from_find_exceptional(monkeypatch, error)
    assert cli.main(EXCEPTIONAL_ARGV) == 3
    assert "compute error: exceptional search failed" in capsys.readouterr().err


def test_exceptional_programming_error_propagates(monkeypatch):
    _raise_from_find_exceptional(monkeypatch, TypeError)
    with pytest.raises(TypeError):
        cli.main(EXCEPTIONAL_ARGV)


def test_n_max_level_alias_removed(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--mode", "exceptional", "--n-max-level", "2", "--g2-range", "0.2:0.3:2"])
    assert exc.value.code == 2


def test_threads_flag_removed(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--mode", "spectrum-scan", "--g1-range", "0:1:3", "--threads", "2"])
    assert exc.value.code == 2


def test_exceptional_row_on_a_juddian_point_exits_0(capsys):
    # the first g2 is a Juddian point, where one search candidate lands on
    # the Rabi line; the run goes on to the next row
    code, out = run_cli([
        "--mode", "exceptional", "--n", "3", "--omega", "1", "--omega0", "0.7",
        "--g2-range", "0.23185540302270555:0.3:2", "--free", "g1", "--free-range", "0.2:0.26:2",
    ], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[2:]]
    assert [float(r[0]) for r in rows] == [0.3]
    assert all(int(r[4]) == 1 for r in rows)


def test_rabi_markers_mode(capsys):
    code, out = run_cli([
        "--mode", "rabi-markers", "--omega", "1", "--omega0", "1",
        "--n", "1", "--g-range", "0.5:1.1:2", "--n-max", "120",
    ], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    rows = [line.split(",") for line in lines[2:]]
    assert any(abs(float(r[1]) - 0.7905694150) < 1e-6 for r in rows)
    assert all(int(r[3]) == 1 for r in rows)


def _readme_commands() -> list[list[str]]:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```bash\n(.*?)```", text[text.index("## Command-line driver"):], re.S)
    lines = block.group(1).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("rabi-spectra ")]


def test_readme_library_tour_runs(capsys):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", text[text.index("## Library tour"):], re.S)
    namespace: dict = {}
    exec(compile(block.group(1), "README.md", "exec"), namespace)
    assert abs(namespace["res"].epsilons[0]) < 1e-9
    assert namespace["pts"] and all(pt.verified for pt in namespace["pts"])
    assert len(namespace["u_plus"]) == len(namespace["u_minus"]) == 2 * 201
    assert capsys.readouterr().out


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[1])
def test_readme_commands_run(argv, tmp_path):
    out = tmp_path / "out.csv"
    argv = list(argv)
    argv[argv.index("-o") + 1] = str(out)
    assert cli.main(argv) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# {")
    assert json.loads(lines[0][2:])["mode"] == argv[1]
    assert lines[1].split(",")[0] in ("g1", "g2", "omega0", "n_eps")


def test_grid_solves_start_no_threads(monkeypatch, tmp_path):
    # Every grid is solved serially: with thread start-up broken, the
    # level-grid README commands and a crossing scan still run.
    def refuse(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    for argv in _readme_commands():
        if argv[1] in cli.LEVEL_MODES:
            argv = list(argv)
            argv[argv.index("-o") + 1] = str(tmp_path / "out.csv")
            assert cli.main(argv) == 0, argv[1]
    events = fock.scan_crossings(ModelParams(1.0, 1.0, 0.0, 0.056),
                                 np.linspace(0.0, 2.0, 41), 6, 60)
    assert [ev.kind for ev in events] == ["avoided", "crossing", "crossing", "avoided"]


@pytest.mark.parametrize("argv", [a for a in _readme_commands()
                                  if a[1] in ("exceptional", "rabi-markers")],
                         ids=lambda argv: argv[1])
def test_eigensolver_modes_byte_identical_across_runs(argv, tmp_path):
    # The points of both modes are eigenvalues of a fixed pencil: three runs
    # give the same rows, byte for byte.
    bodies = []
    for i in range(3):
        out = tmp_path / f"run{i}.csv"
        args = list(argv)
        args[args.index("-o") + 1] = str(out)
        assert cli.main(args) == 0
        bodies.append(out.read_bytes().split(b"\n", 1)[1])  # past the config echo
    assert bodies[0] == bodies[1] == bodies[2]
    assert bodies[0].count(b"\n") > 1
