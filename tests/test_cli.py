"""Command-line driver: parsing, exit codes, and output artifacts."""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import qalb
from qalb import bounds, cli


def _read(path):
    return path.read_text().splitlines()


@pytest.mark.parametrize(
    "value,text",
    [
        (0.1, "0.10000000000000001"),
        (np.float64(0.1), "0.10000000000000001"),
        (np.float32(0.1), "0.10000000149011612"),
        (1.0, "1"),
        (float("nan"), "nan"),
        (-float("inf"), "-inf"),
        (True, "1"),
        (np.True_, "1"),
        (3, "3"),
        (np.int64(3), "3"),
        (None, ""),
        ("x", "x"),
        ((1, 2.5), "1,2.5"),
    ],
)
def test_fmt_cells(value, text):
    assert cli._fmt(value) == text


def test_write_csv_bytes(tmp_path):
    # a float array goes through one "%.17g" template, other rows through
    # _fmt: the bytes are the same either way
    nan, inf = float("nan"), float("inf")
    table = np.array(
        [
            [nan, inf, -inf, -0.0, 1e-300],
            [0.1, 2.0 / 3.0, 1e300, -2.5, 3.0],
            [5e-324, -1e-300, 1.0, 2.0, 2.0**70],
        ]
    )
    want = (
        b"a,b,c,d,e\n"
        b"nan,inf,-inf,-0,1e-300\n"
        b"0.10000000000000001,0.66666666666666663,1.0000000000000001e+300,"
        b"-2.5,3\n"
        b"4.9406564584124654e-324,-1e-300,1,2,1.1805916207174113e+21\n"
    )
    header = list("abcde")
    path = tmp_path / "t.csv"
    cli.write_csv(str(path), header, table)
    assert path.read_bytes() == want
    cli.write_csv(str(path), header, table.tolist())
    assert path.read_bytes() == want
    mixed = [["x", 2**70, None, True, (1, 2.5)], [np.float64(0.5)]]
    cli.write_csv(str(path), header, mixed)
    assert path.read_bytes() == (
        b"a,b,c,d,e\nx,1180591620717411303424,,1,1,2.5\n0.5\n"
    )


def test_parse_config_text():
    raw = cli.parse_config_text("tau = 1.5\n# note\nsteps=3\n", "cfg")
    assert raw["tau"] == ("1.5", "cfg:1")
    assert raw["steps"] == ("3", "cfg:3")
    with pytest.raises(cli.ConfigError):
        cli.parse_config_text("tau = 1\ntau = 2\n", "cfg")  # duplicate key
    with pytest.raises(cli.ConfigError):
        cli.parse_config_text("just words\n", "cfg")


def test_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps = 2\nbogus = 1\n")
    out = tmp_path / "x.csv"
    code = cli.main(["classical", "--config", str(cfg), "--out", str(out)])
    assert code == 2


def test_bad_value_and_missing_out(tmp_path):
    out = tmp_path / "x.csv"
    assert cli.main(["classical", "--set", "steps=-3", "--out", str(out)]) == 2
    assert cli.main(["classical", "--set", "steps=2"]) == 2  # no output path
    assert cli.main(["classical", "--set", "steps", "--out", str(out)]) == 2


def test_classical_run_and_sidecar(tmp_path):
    out = tmp_path / "c.csv"
    code = cli.main(["classical", "--set", "steps=3", "--out", str(out)])
    assert code == 0
    lines = _read(out)
    assert lines[0].startswith("t,")
    assert len(lines) == 5  # header + steps + 1
    meta = tmp_path / "c.csv.meta"
    assert meta.exists()
    first = meta.read_text()
    assert "subcommand = classical" in first and "steps = 3" in first
    # reruns are byte-identical: no timestamps or environment leakage
    assert cli.main(["classical", "--set", "steps=3", "--out", str(out)]) == 0
    assert out.read_text() == "\n".join(lines) + "\n"
    assert meta.read_text() == first


@pytest.mark.parametrize("command", tuple(cli._COMMANDS))
def test_sidecar_echoes_schema_defaults(tmp_path, command):
    out = tmp_path / f"{command}.out"
    assert cli.main([command, "--out", str(out)]) == 0
    schema = cli.dict_schema(*cli._COMMANDS[command][2])
    defaults = {key: default for key, (_, default) in schema.items()}
    defaults.update(out=str(out), experiment=command)
    assert _read(tmp_path / f"{command}.out.meta") == [
        f"artifact = {cli.__version__}",
        f"subcommand = {command}",
    ] + [f"{key} = {cli._fmt(defaults[key])}" for key in sorted(defaults)]


def test_classical_set_overrides_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps = 5\n")
    out = tmp_path / "c.csv"
    code = cli.main(
        ["classical", "--config", str(cfg), "--set", "steps=2", "--out", str(out)]
    )
    assert code == 0
    assert len(_read(out)) == 4


def test_classical_explicit_f0(tmp_path):
    out = tmp_path / "c.csv"
    assert (
        cli.main(
            ["classical", "--set", "f0=0.5,0.2,0.3", "--set", "steps=1",
             "--out", str(out)]
        )
        == 0
    )
    row = _read(out)[1].split(",")
    assert [float(x) for x in row[1:4]] == [0.5, 0.2, 0.3]
    # a population list of the wrong length is a config error
    assert (
        cli.main(["classical", "--set", "f0=0.5,0.5", "--out", str(out)]) == 2
    )


def test_quantum_run_columns(tmp_path):
    out = tmp_path / "q.csv"
    code = cli.main(
        ["quantum", "--set", "steps=3", "--set", "qc=2", "--out", str(out)]
    )
    assert code == 0
    lines = _read(out)
    header = lines[0].split(",")
    assert header[0] == "t"
    assert "ref_f0" in header
    assert "nonhermitian_qc2_f0" in header and "hermitized_qc2_f0" in header
    assert "nonhermitian_qc2_relerr" in header
    assert "nonhermitian_qc2_flag" in header
    # both initializations decode identically at t = 0
    row0 = lines[1].split(",")
    i_ref = header.index("ref_f0")
    i_nh = header.index("nonhermitian_qc2_f0")
    i_h = header.index("hermitized_qc2_f0")
    assert row0[i_nh] == row0[i_h]
    assert abs(float(row0[i_nh]) - float(row0[i_ref])) < 1e-12


def test_carleman_run_and_singular_abort(tmp_path):
    out = tmp_path / "k.csv"
    code = cli.main(["carleman", "--set", "steps=50", "--out", str(out)])
    assert code == 0
    header = _read(out)[0].split(",")
    assert header[:4] == ["t", "exact", "order1_f", "order1_abserr"]
    assert "order4_f" in header and "order4_abserr" in header
    # an initial point beyond the fixed point hits the blow-up guard
    code2 = cli.main(
        ["carleman", "--set", "f0=2.0", "--set", "steps=100", "--out", str(out)]
    )
    assert code2 == 3


def test_carleman_small_rate_runs(tmp_path, capsys):
    # at a = 1e-300 the blow-up time is 1/(b f0) = 100, past the horizon 5
    out = tmp_path / "k.csv"
    code = cli.main(["carleman", "--set", "a=1e-300", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().err == ""
    t, exact = np.loadtxt(out, delimiter=",", skiprows=1, usecols=(0, 1)).T
    assert np.max(np.abs(exact * (1.0 - 0.01 * t) / 0.01 - 1.0)) <= 1e-15


def test_lift_overflow_exits_without_warning(tmp_path, capsys):
    argv = ["carleman", "--set", "b=1e-300", "--set", "f0=1e300"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(argv + ["--out", str(tmp_path / "k.csv")])
    assert code == 3
    assert capsys.readouterr().err.startswith("numeric guard: monomial lift")


def test_complexity_run(tmp_path):
    out = tmp_path / "r.csv"
    code = cli.main(["complexity", "--out", str(out)])
    assert code == 0
    lines = _read(out)
    assert lines[0] == "label,qubits,ancillas,gates,gates_with_log"
    assert len(lines) == 8
    assert lines[1].startswith("X*,")
    # Q inconsistent with D is rejected before any computation
    assert cli.main(["complexity", "--set", "Q=4", "--out", str(out)]) == 2


def test_bounds_run(tmp_path):
    out = tmp_path / "b.csv"
    code = cli.main(["bounds", "--out", str(out)])
    assert code == 0
    lines = _read(out)
    assert lines[0].split(",")[0] == "t"
    assert "inflate_c0_eps" in lines[0] and "inflate_a_eps_raw" in lines[0]
    assert len(lines) == 52  # header + default 50 steps + 1
    # the recovered error starts at zero for both variants
    row0 = lines[1].split(",")
    eps0 = float(row0[lines[0].split(",").index("inflate_c0_eps")])
    assert abs(eps0) < 1e-15


def _eps_rows(capsys):
    return dict(
        line.strip().split(": ")
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("  N=")
    )


def test_bounds_table_past_level_170(tmp_path, capsys):
    # (N+1)! leaves float range at N = 170; the table and the bound it
    # feeds must still see a positive defect there
    out = tmp_path / "b.csv"
    argv = ["bounds", "--set", "N=171", "--set", "nmax=172", "--out", str(out)]
    assert cli.main(argv) == 0
    rows = _eps_rows(capsys)
    assert float(rows["N=171"]) > 0.0 and float(rows["N=172"]) > 0.0
    # the one-pass table agrees with the per-level defect, past 170 too
    argv = ["bounds", "--set", "nmax=400", "--out", str(out)]
    assert cli.main(argv) == 0
    rows = _eps_rows(capsys)
    assert len(rows) == 400
    for n in (1, 2, 171, 400):
        assert rows[f"N={n}"] == f"{bounds.epsilon_N(n):.6g}"


def test_streaming_demo(tmp_path, capsys):
    out = tmp_path / "s.txt"
    code = cli.main(["streaming-demo", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "round-trip" in text and "PASS" in text
    assert "FAIL" not in text
    rows = text.splitlines()
    walk = ["0,5,10111", "1,6,11011", "2,7,11111", "3,0,00011"]
    start = rows.index("step,site,register") + 1
    assert rows[start : start + 4] == walk
    assert "NW,(2,2),(1,2),(1,3)" in rows
    assert "SW,(2,2),(1,2),(1,2)" in rows


def test_quantum_builds_one_generator_per_qc(tmp_path, monkeypatch):
    # both modes of a qc share one setup, so one build of its generator and
    # one split of it into parity blocks; no march asks for the joined U
    from qalb import engine, march

    calls, splits, joins = [], [], []
    real_factors, real_split, real_join = (
        engine._factors, march.split, march.join
    )

    def counting(cfg):
        calls.append(cfg.qubits)
        return real_factors(cfg)

    def counting_split(par, M):
        splits.append(len(M))
        return real_split(par, M)

    def counting_join(par, even, odd):
        joins.append(len(even) + len(odd))
        return real_join(par, even, odd)

    monkeypatch.setattr(engine, "_factors", counting)
    monkeypatch.setattr(march, "split", counting_split)
    monkeypatch.setattr(march, "join", counting_join)
    out = tmp_path / "q.csv"
    code = cli.main(
        ["quantum", "--set", "steps=3", "--set", "qc=1,2",
         "--set", "mode=both", "--out", str(out)]
    )
    assert code == 0
    assert calls == [1, 2]
    assert splits == [8, 64]
    assert joins == []


def test_quantum_flagged_exit_code(tmp_path, monkeypatch):
    # a divergence flag downgrades the exit code without losing the file
    from qalb import engine

    real = engine.evolve_quantum_0d

    def flagged(*args, **kwargs):
        res = real(*args, **kwargs)
        res.flagged = True
        res.flag_step = 1
        res.flag_reason = "norm growth monitor"
        return res

    monkeypatch.setattr(engine, "evolve_quantum_0d", flagged)
    out = tmp_path / "q.csv"
    code = cli.main(
        ["quantum", "--set", "steps=2", "--set", "qc=2",
         "--set", "mode=nonhermitian", "--out", str(out)]
    )
    assert code == 4
    assert out.exists()


def test_quantum_certificate_flags_qc3_from_step_zero(tmp_path, capsys):
    # the one-step growth bound of the qc=3 non-Hermitian propagator is above
    # the threshold, so the run is flagged before the first step
    out = tmp_path / "q.csv"
    code = cli.main(
        ["quantum", "--set", "qc=3", "--set", "mode=nonhermitian",
         "--set", "steps=50", "--out", str(out)]
    )
    assert code == 4
    assert "Traceback" not in capsys.readouterr().err
    header = _read(out)[0].split(",")
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert data.shape == (51, len(header))
    assert np.all(data[:, header.index("nonhermitian_qc3_flag")] == 1.0)


_COMMANDS = tuple(cli._COMMANDS)  # all six subcommands
_STEPS_KEY = {"complexity": "T"}

# (subcommand, --set items, output path under tmp_path, stderr label)
_BAD_RUNS = (
    [
        ("quantum", ["f0=0.5,0.2,0.2"], "x.csv", "config error:"),
        ("streaming-demo", ["sites=6", "marker=1"], "x.txt", "config error:"),
        ("quantum", ["qc=2,2"], "x.csv", "config error:"),
        ("carleman", ["orders=2,2"], "x.csv", "config error:"),
        # non-finite values are refused before anything is computed
        ("classical", ["tau=nan"], "x.csv", "config error:"),
        ("classical", ["f0=nan,0.5,0.5"], "x.csv", "config error:"),
        ("carleman", ["f0=nan"], "x.csv", "config error:"),
        ("bounds", ["dt=nan"], "x.csv", "config error:"),
        ("quantum", ["tau=nan"], "x.csv", "config error:"),
        ("quantum", ["dt=inf"], "x.csv", "config error:"),
        # eps_N underflows past level 2047
        ("bounds", ["N=2048"], "x.csv", "numeric guard:"),
        # allocations past the 47-bit address space, refused at once: a
        # 4 PiB register and a 2.1 PiB history
        ("streaming-demo", ["sites=70368744177664"], "x.txt", "numeric guard:"),
        ("classical", ["steps=100000000000000"], "x.csv", "numeric guard:"),
        # arithmetic overflow: 10.0**b, an int T**5 made a float, f0**k
        ("complexity", ["b=400"], "x.csv", "numeric guard:"),
        ("complexity", [f"T={10**80}"], "x.csv", "numeric guard:"),
        ("carleman", ["b=1e-300", "f0=1e300"], "x.csv", "numeric guard:"),
        # a chain past the largest dense matrix, refused before it is built
        ("carleman", ["orders=4097", "method=euler"], "x.csv", "numeric guard:"),
        ("carleman", ["orders=4097", "method=exact"], "x.csv", "numeric guard:"),
        # no position qubit, and a D whose 3**D would never finish
        ("complexity", ["G=1"], "x.csv", "config error:"),
        ("complexity", ["D=1000000000"], "x.csv", "config error:"),
    ]
    + [(cmd, ["bogus=1"], "x.csv", "config error:") for cmd in _COMMANDS]
    + [
        (cmd, [f"{_STEPS_KEY.get(cmd, 'steps')}=-1"], "x.csv", "config error:")
        for cmd in _COMMANDS
    ]
    + [(cmd, [], "missing/x.csv", "I/O error:") for cmd in _COMMANDS]
)


@pytest.mark.parametrize(
    "command,sets,out,label",
    _BAD_RUNS,
    ids=[f"{c}-{'-'.join(s) or o}" for c, s, o, _ in _BAD_RUNS],
)
def test_bad_inputs_exit_cleanly(tmp_path, capsys, command, sets, out, label):
    argv = [command, "--out", str(tmp_path / out)]
    for item in sets:
        argv += ["--set", item]
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code in (2, 3)
    assert "Traceback" not in err
    assert err.startswith(label)


def test_sum_guard_prints_plain_float(tmp_path, capsys):
    out = tmp_path / "q.csv"
    code = cli.main(["quantum", "--set", "f0=0.5,0.2,0.2", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "np.float64" not in err
    assert "got 0.8999999999999999" in err


def test_unwritable_out_fails_before_computing(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert cli.main(["bounds", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("I/O error:")


def test_grid_stream_needs_no_f0(tmp_path):
    out = tmp_path / "g.csv"
    code = cli.main(
        ["classical", "--set", "run=grid-stream", "--set", "lattice=d2q9",
         "--set", "sites=4", "--set", "steps=1", "--out", str(out)]
    )
    assert code == 0
    lines = _read(out)
    assert len(lines) == 1 + 2 * 16  # header + 16 sites at each of 2 times


def test_grid_stream_collides_and_conserves(tmp_path):
    out = tmp_path / "g.csv"
    code = cli.main(
        ["classical", "--set", "run=grid-stream", "--set", "lattice=d2q9",
         "--set", "sites=4", "--set", "steps=3", "--set", "tau=0.6",
         "--set", "dt=1", "--out", str(out)]
    )
    assert code == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    c = qalb.lattice.build_lattice("D2Q9").velocities
    slices = [data[data[:, 0] == t, 2:11] for t in range(4)]
    mass = [f.sum() for f in slices]
    momentum = [(f @ c).sum(axis=0) for f in slices]
    for k in range(1, 4):
        assert abs(mass[k] - mass[0]) <= 1e-12 * mass[0]
        assert np.max(np.abs(momentum[k] - momentum[0])) <= 1e-12 * mass[0]
    # a pure shift keeps each population's multiset; collision does not
    assert sorted(slices[1][:, 0]) != sorted(slices[0][:, 0])


@pytest.mark.parametrize("steps", ["steps=0", "steps=50"])
def test_grid_stream_guards_tau(tmp_path, capsys, steps):
    out = tmp_path / "g.csv"
    code = cli.main(
        ["classical", "--set", "run=grid-stream", "--set", "tau=0.0004",
         "--set", "dt=0.001", "--set", steps, "--out", str(out)]
    )
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("numeric guard:") and "Traceback" not in err


def test_package_runs_without_scipy(tmp_path):
    # scipy is a test-only dependency: importing every module, running a
    # default quantum call (dense march) and a 2-step qc=4 one (march and
    # certificate in the q-eigenbasis, by the action of the exponential)
    # must not load it
    short = ["quantum", "--set", "qc=4", "--set", "steps=2"]
    code = (
        "import importlib, pkgutil, sys, qalb\n"
        "for mod in pkgutil.iter_modules(qalb.__path__):\n"
        "    importlib.import_module('qalb.' + mod.name)\n"
        "from qalb import cli\n"
        f"assert cli.main(['quantum', '--out', {str(tmp_path / 'q.csv')!r}]) == 0\n"
        f"assert cli.main({short + ['--out', str(tmp_path / 's.csv')]!r}) == 4\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.dirname(os.path.dirname(qalb.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"


def test_subcommands_run_without_mpmath(tmp_path):
    # mpmath is a test-only dependency: with it blocked, every subcommand
    # must run at its defaults and exit 0
    code = (
        "import sys\n"
        "sys.modules['mpmath'] = None\n"
        "from qalb import cli\n"
        "codes = {}\n"
        "for command in cli._COMMANDS:\n"
        f"    out = {str(tmp_path)!r} + '/' + command + '.out'\n"
        "    codes[command] = cli.main([command, '--out', out])\n"
        "print(codes)\n"
    )
    src = os.path.dirname(os.path.dirname(qalb.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert run.returncode == 0, run.stderr
    assert "Traceback" not in run.stderr
    assert run.stdout.splitlines()[-1] == str(
        {command: 0 for command in cli._COMMANDS}
    )
