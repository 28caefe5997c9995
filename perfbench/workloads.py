"""The four workloads: seeded inputs, one timed pass, and output checks.

Each workload is a closed loop with one caller.  `run_pass` times only the
calls into qalb (through `clock.op`); input generation happens in the
constructor and every output check runs between ops, inside `clock.check`,
so neither lands in a timed region.  A pass returns a PassResult whose
`samples` are the per-step times the step metrics are taken from.
"""

import contextlib
import csv
import io
import os
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import reference as ref

TAU = 1.0  # CLI defaults of `qalb quantum` and `qalb classical`
DT = 1e-3


@dataclass
class PassResult:
    wall: float = 0.0
    samples: list = field(default_factory=list)
    ops: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def add(self, seconds, errors, sample=False):
        self.wall += seconds
        self.ops += 1
        if sample:
            self.samples.append(seconds)
        if errors:
            self.failed += 1
            self.errors.extend(errors)


class Timer:
    seconds = 0.0


class Clock:
    """Times ops; with a tracer, each op and each check is a root span."""

    def __init__(self, tracer=None):
        self.tracer = tracer

    def _root(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    @contextlib.contextmanager
    def op(self):
        timer = Timer()
        with self._root("bench.op"):
            t0 = time.perf_counter()
            try:
                yield timer
            finally:
                timer.seconds = time.perf_counter() - t0

    def check(self):
        return self._root("bench.check")


def simplex_f0(rng):
    """Three populations on the simplex; the last is 1 - f0 - f1, so the
    values written with repr sum to one within the CLI's 1e-12 guard."""
    a, b, _ = rng.dirichlet((4.0, 4.0, 4.0))
    return np.array([a, b, 1.0 - a - b])


def f0_arg(f0):
    return "f0=" + ",".join(repr(float(x)) for x in f0)


class CliCall:
    """One in-process `qalb.cli.main` call with its output captured.

    An exception escaping main, or a traceback on stderr, fails the op, as
    does an exit code outside {0, 4}."""

    def __init__(self, cli, argv, clock):
        out, err = io.StringIO(), io.StringIO()
        self.exc = None
        with clock.op() as timer:
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    self.code = cli.main(argv)
            except (Exception, SystemExit):
                self.code = None
                self.exc = traceback.format_exc()
        self.seconds = timer.seconds
        self.stdout, self.stderr = out.getvalue(), err.getvalue()
        self.argv = argv

    def errors(self):
        label = self.argv[0]
        if self.exc is not None:
            return [f"{label}: uncaught {self.exc.strip().splitlines()[-1]}"]
        errs = []
        if "Traceback" in self.stderr:
            errs.append(f"{label}: traceback on stderr")
        if self.code not in (0, 4):
            errs.append(f"{label}: exit code {self.code}")
        return errs


def _close(name, got, want, atol, rtol=0.0):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != {want.shape}"]
    if not np.array_equal(np.isnan(got), np.isnan(want)):
        return [f"{name}: NaN pattern differs"]
    ok = ~np.isnan(want)
    atol = np.broadcast_to(atol, want.shape)[ok]
    gap = np.abs(got[ok] - want[ok])
    if np.any(gap > atol + rtol * np.abs(want[ok])):
        return [f"{name}: off by {gap.max():.3g}"]
    return []


def _read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data


class QuantumChecker:
    """Checks a `qalb quantum` CSV against the benchmark's own BGK update
    and the register oracle, and its exit code against its flag columns.
    Oracles are built once per register size and reused across passes."""

    def __init__(self, fock):
        self.fock = fock
        self.oracles = {}

    def oracle(self, qc):
        if qc not in self.oracles:
            cfg = self.fock.FockConfig(qc)
            self.oracles[qc] = ref.RegisterOracle(
                self.fock.q_matrix(cfg), self.fock.p_matrix(cfg), TAU, DT
            )
        return self.oracles[qc]

    def __call__(self, call, path, f0, qcs, modes, steps):
        errs = call.errors()
        if errs:
            return errs
        runs = [(qc, m) for qc in qcs for m in modes]
        want = ["t"] + [f"ref_f{i}" for i in range(3)]
        for qc, m in runs:
            want += [f"{m}_qc{qc}_f{i}" for i in range(3)]
            want += [f"{m}_qc{qc}_relerr", f"{m}_qc{qc}_flag"]
        header, data = _read_csv(path)
        if header != want or data.shape != (steps + 1, len(want)):
            return [f"quantum: header or shape {data.shape} unexpected"]
        errs += _close("t", data[:, 0], np.arange(steps + 1) * DT, 0.0, 1e-15)
        bgk = ref.bgk_series(f0, ref.D1Q3_C, ref.D1Q3_W, DT / TAU, steps)
        reference = data[:, 1:4]
        errs += _close("ref_f", reference, bgk, 1e-12)
        any_flag = False
        for k, (qc, m) in enumerate(runs):
            col = 4 + 5 * k
            decoded, relerr, flag = data[:, col : col + 3], data[:, col + 3], data[:, col + 4]
            tag = f"{m}_qc{qc}"
            want, cond = self.oracle(qc).march(f0, steps, m)
            # round-off of the state, amplified where the ground amplitude is small
            tol = 1e-11 * (cond * (1.0 + np.abs(want).max(axis=1)))[:, None]
            errs += _close(f"{tag}_f", decoded, want, np.maximum(tol, 1e-9))
            errs += _close(f"{tag}_relerr", relerr, ref.relerr_max(decoded, reference), 1e-15, 1e-9)
            if not (np.isin(flag, (0.0, 1.0)).all() and np.all(np.diff(flag) >= 0)):
                errs.append(f"{tag}_flag: not a 0/1 step column")
            any_flag = any_flag or bool(flag.any())
        if call.code != (4 if any_flag else 0):
            errs.append(f"quantum: exit {call.code} but flag columns say {any_flag}")
        if not os.path.isfile(path + ".meta"):
            errs.append("quantum: no .meta sidecar")
        return errs


class Qc4Build:
    """One `qalb quantum` call at D1Q3 qc=4 (register dimension 4096),
    non-Hermitian, 2 steps: the dense operator build dominates."""

    name = "qc4-build"
    QC = 4
    STEPS = 2

    def __init__(self, qalb, rng, workdir):
        self.cli = qalb.cli
        self.check = QuantumChecker(qalb.fock)
        self.f0 = simplex_f0(rng)
        self.path = os.path.join(workdir, "qc4.csv")
        self.site_updates_per_step = self.STEPS  # one 0-d site, 2 steps

    def run_pass(self, clock):
        res = PassResult()
        argv = [
            "quantum", "--set", "lattice=d1q3", "--set", f"qc={self.QC}",
            "--set", "mode=nonhermitian", "--set", f"steps={self.STEPS}",
            "--set", f0_arg(self.f0), "--out", self.path,
        ]
        call = CliCall(self.cli, argv, clock)
        with clock.check():
            errs = self.check(call, self.path, self.f0, (self.QC,), ("nonhermitian",), self.STEPS)
        res.add(call.seconds, errs, sample=True)
        return res


class QcSmallSweep:
    """Three `qalb quantum --set qc=2,3 --set mode=both` calls with
    1500-step marches, then one call of every other subcommand at its
    defaults.  The marches outweigh the operator builds about 2 to 1."""

    name = "qc-small-sweep"
    QCS = (2, 3)
    MODES = ("nonhermitian", "hermitized")
    STEPS = 1500
    CALLS = 3

    def __init__(self, qalb, rng, workdir):
        self.cli = qalb.cli
        self.check = QuantumChecker(qalb.fock)
        self.f0s = [simplex_f0(rng) for _ in range(self.CALLS)]
        self.workdir = workdir
        self.site_updates_per_step = self.STEPS * len(self.QCS) * len(self.MODES)

    def run_pass(self, clock):
        res = PassResult()
        for k, f0 in enumerate(self.f0s):
            path = os.path.join(self.workdir, f"quantum{k}.csv")
            argv = [
                "quantum", "--set", "qc=" + ",".join(map(str, self.QCS)),
                "--set", "mode=both", "--set", f"steps={self.STEPS}",
                "--set", f0_arg(f0), "--out", path,
            ]
            call = CliCall(self.cli, argv, clock)
            with clock.check():
                errs = self.check(call, path, f0, self.QCS, self.MODES, self.STEPS)
            res.add(call.seconds, errs, sample=True)
        for name, checker in (
            ("classical", check_classical),
            ("carleman", check_carleman),
            ("bounds", check_bounds),
            ("complexity", check_complexity),
            ("streaming-demo", check_streaming_demo),
        ):
            path = os.path.join(self.workdir, name + ".out")
            call = CliCall(self.cli, [name, "--out", path], clock)
            with clock.check():
                errs = call.errors() or checker(path)
            res.add(call.seconds, errs)
        return res


def check_classical(path):
    """Defaults: f0 = (0.6, 0.1, 0.3), tau 1, dt 1e-3, 50 steps."""
    header, data = _read_csv(path)
    if header != ["t", "f_0", "f_1", "f_2", "rho", "u_0"] or data.shape != (51, 6):
        return ["classical: header or shape unexpected"]
    f = data[:, 1:4]
    bgk = ref.bgk_series(np.array([0.6, 0.1, 0.3]), ref.D1Q3_C, ref.D1Q3_W, DT / TAU, 50)
    errs = _close("classical f", f, bgk, 1e-12)
    errs += _close("classical rho", data[:, 4], f.sum(axis=1), 1e-14)
    errs += _close("classical u", data[:, 5], (f @ ref.D1Q3_C)[:, 0] / f.sum(axis=1), 1e-14)
    return errs


def check_carleman(path):
    """Defaults: a = b = 1, f0 = 0.01, dt 0.01, 500 steps, orders 1-4."""
    header, data = _read_csv(path)
    if header[:2] != ["t", "exact"] or data.shape != (501, 10):
        return ["carleman: header or shape unexpected"]
    t = data[:, 0]
    errs = _close("carleman t", t, np.arange(501) * 0.01, 0.0, 1e-15)
    errs += _close("carleman exact", data[:, 1], ref.logistic(1.0, 1.0, 0.01, t), 0.0, 1e-12)
    for k in range(4):
        f, err = data[:, 2 + 2 * k], data[:, 3 + 2 * k]
        errs += _close(f"order{k + 1}_abserr", err, np.abs(f - data[:, 1]), 1e-18, 1e-12)
    return errs


def check_bounds(path):
    """Defaults: 50 steps of dt 1e-6; one Z, eps, eps_raw triple per
    variant, all finite."""
    header, data = _read_csv(path)
    if header[0] != "t" or (len(header) - 1) % 3 or data.shape != (51, len(header)):
        return ["bounds: header or shape unexpected"]
    errs = _close("bounds t", data[:, 0], np.arange(51) * 1e-6, 0.0, 1e-15)
    if not np.all(np.isfinite(data)):
        errs.append("bounds: non-finite value")
    return errs


def check_complexity(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["label", "qubits", "ancillas", "gates", "gates_with_log"] or len(rows) < 2:
        return ["complexity: header or rows unexpected"]
    for row in rows[1:]:
        vals = [float(v) for v in row[1:] if v]
        if not row[0] or not vals or min(vals) < 0 or not np.all(np.isfinite(vals)):
            return [f"complexity: bad row {row}"]
    return []


def check_streaming_demo(path):
    """Defaults: 8 sites, marker 5, 3 steps; the marker walks one site per
    step and the round trip reports PASS."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    start = lines.index("step,site,register") + 1
    walk = [line.split(",") for line in lines[start : start + 4]]
    errs = []
    if [int(w[1]) for w in walk] != [(5 + k) % 8 for k in range(4)]:
        errs.append("streaming-demo: marker walk wrong")
    if not lines[-1].endswith("PASS"):
        errs.append("streaming-demo: round trip not PASS")
    return errs


class GridD2Q9:
    """classical.step (collide, then stream) on a seeded 512 x 512 D2Q9
    field of 19 MB, larger than the L2 cache.  Every step is checked for
    mass and momentum; the last field of each pass is compared with the
    benchmark's own BGK update and np.roll streaming."""

    name = "grid-d2q9"
    SIDE = 512
    STEPS = 8
    TAU, DT = 0.8, 1.0  # lattice units; relaxation factor dt/tau = 1.25

    def __init__(self, qalb, rng, workdir):
        self.classical = qalb.classical
        n = self.SIDE
        rho = 1.0 + 0.05 * rng.uniform(-1.0, 1.0, (n, n))
        u = 0.05 * rng.uniform(-1.0, 1.0, (n, n, 2))
        f = ref.feq(rho, u, ref.D2Q9_C, ref.D2Q9_W)
        f += 0.01 * ref.D2Q9_W * rho[..., None] * rng.uniform(-1.0, 1.0, (n, n, 9))
        model = qalb.lattice.build_lattice("D2Q9")
        self.field = self.classical.DistributionField(model=model, data=f)
        self.mass, self.momentum = ref.moments_total(f, ref.D2Q9_C)
        self.expected = None
        self.site_updates_per_step = n * n

    def _conserved(self, f):
        mass, momentum = ref.moments_total(f, ref.D2Q9_C)
        tol = 1e-12 * self.mass
        if abs(mass - self.mass) > tol or np.abs(momentum - self.momentum).max() > tol:
            return ["grid: mass or momentum not conserved"]
        return []

    def _expected(self):
        if self.expected is None:
            f = self.field.data
            for _ in range(self.STEPS):
                f = ref.roll_stream(ref.bgk_collide(f, ref.D2Q9_C, ref.D2Q9_W, self.DT / self.TAU), ref.D2Q9_C)
            self.expected = f
        return self.expected

    def run_pass(self, clock):
        res = PassResult()
        fld = self.field
        for _ in range(self.STEPS):
            with clock.op() as timer:
                fld = self.classical.step(fld, self.TAU, self.DT)
            with clock.check():
                errs = self._conserved(fld.data)
            res.add(timer.seconds, errs, sample=True)
        self.last = fld.data
        return res

    def final_check(self, res):
        """Compares the last pass's field with the reference; run after
        peak memory is read, because the reference needs its own copies."""
        errs = _close("grid field", self.last, self._expected(), 1e-13)
        if errs:
            res.failed = res.ops
            res.errors.extend(errs)


class RegisterStream:
    """Exhaustive streaming-circuit checks on a (16, 16) D2Q9 and a (64,)
    D1Q3 grid, then stream_state on a 64 x 64 D2Q9 register (16 qubits)
    holding a seeded field, compared bit for bit with classical.stream."""

    name = "register-stream"
    SIDE = 64
    STEPS = 100
    # two-bit direction code per velocity component, as the register stores it
    CODE = {0: 0b10, 1: 0b11, -1: 0b01}

    def __init__(self, qalb, rng, workdir):
        self.streaming = qalb.streaming
        self.classical = qalb.classical
        self.d2q9 = qalb.lattice.build_lattice("D2Q9")
        self.d1q3 = qalb.lattice.build_lattice("D1Q3")
        n = self.SIDE
        amp = rng.standard_normal((n, n, 9))
        self.amp = amp / np.linalg.norm(amp)
        self.layout = self.streaming.RegisterLayout(grid_dims=(n, n))
        self.index = self._index()
        self.state = np.zeros(self.layout.dim, dtype=complex)
        self.state[self.index] = self.amp
        self.site_updates_per_step = n * n

    def _index(self):
        """Basis index of every (x, y, direction): position bits of x, then
        of y, then the code of each velocity component."""
        n = self.SIDE
        bits = n.bit_length() - 1
        x, y = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        codes = np.array([(self.CODE[int(cx)] << 2) | self.CODE[int(cy)] for cx, cy in ref.D2Q9_C])
        return (x[..., None] << (bits + 4)) | (y[..., None] << 4) | codes

    def run_pass(self, clock):
        res = PassResult()
        for dims, model in (((16, 16), self.d2q9), ((64,), self.d1q3)):
            with clock.op() as timer:
                report = self.streaming.equivalence_check(dims, model)
            want = int(np.prod(dims)) * model.Q
            errs = [] if report.cases == want and report.all_pass else [f"equivalence {dims}: {report.passes}/{report.cases}"]
            res.add(timer.seconds, errs)
        state = self.state
        for _ in range(self.STEPS):
            with clock.op() as timer:
                state = self.streaming.stream_state(state, self.layout)
            res.add(timer.seconds, [], sample=True)
        with clock.check():
            fld = self.classical.DistributionField(model=self.d2q9, data=self.amp)
            for _ in range(self.STEPS):
                fld = self.classical.stream(fld)
            outside = np.ones(state.shape, dtype=bool)
            outside[self.index] = False
            exact = (
                np.array_equal(state[self.index].real, fld.data)
                and not state.imag.any()
                and not state[outside].any()
            )
        if not exact:
            res.failed += self.STEPS
            res.errors.append("stream_state differs from classical.stream")
        return res


WORKLOADS = {w.name: w for w in (Qc4Build, QcSmallSweep, GridD2Q9, RegisterStream)}
