"""Command-line driver: configures runs, writes CSV series and text dumps.

Config files are flat `key = value` lines with `#` comments; `--set`
overrides win over the file.  Unknown keys are rejected with the line
they came from.  Every successful run writes its data file plus a
`.meta` sidecar echoing the effective configuration and the artifact
version, so identical configs reproduce identical bytes.  Each
subcommand reads its settings from the validated dict that the sidecar
echoes.  Exit codes: 0 success, 2 config or I/O error, 3 numeric guard
violation, arithmetic overflow or an allocation refused, 4 divergence
flagged but the data was still written.  ConfigError is a ValueError, so
config errors and a library ValueError on an input the schema let through
share one exit-2 handler.
"""

import argparse
import os
import sys

import numpy as np

from . import __version__, bounds, carleman, classical, engine, streaming
from .complexity import ComplexityInputs, DISCLAIMER, complexity_rows
from .complexity import lcu_collision_params, reynolds_quote_report
from .errors import QalbError, TooLarge
from .lattice import _NAMES, build_lattice

F0_PRESETS = {"d1q3-figure": (0.6, 0.1, 0.3)}


class ConfigError(ValueError):
    pass


def parse_config_text(text, source):
    """key = value lines; # starts a comment; blank lines skipped."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                f"{source}:{lineno}: expected key = value, got {line!r}"
            )
        key, val = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        if key in out:
            raise ConfigError(
                f"{source}:{lineno}: duplicate key {key!r} "
                f"(first set at {out[key][1]})"
            )
        out[key] = (val, f"{source}:{lineno}")
    return out


def _positive_float(s):
    v = float(s)
    if not 0.0 < v < np.inf:
        raise ValueError(f"must be positive and finite, got {v}")
    return v


def _int_at_least(lo):
    def parse(s):
        v = int(s)
        if v < lo:
            raise ValueError(f"must be >= {lo}, got {v}")
        return v

    return parse


def _int_list(s):
    vals = tuple(int(p.strip()) for p in s.split(","))
    if len(set(vals)) != len(vals):
        raise ValueError(f"repeated entry in {s!r}")
    return vals


def _choice(*options):
    def parse(s):
        if s not in options:
            raise ValueError(f"expected one of {options}, got {s!r}")
        return s

    return parse


def dict_schema(*entries):
    schema = {
        "experiment": (str, None),
        "out": (str, None),
    }
    for key, parser, default in entries:
        schema[key] = (parser, default)
    return schema


def build_values(raw, schema, subcommand):
    values = {}
    for key, (val, loc) in raw.items():
        if key not in schema:
            raise ConfigError(
                f"{loc}: unknown key {key!r} for {subcommand} "
                f"(allowed: {', '.join(sorted(schema))})"
            )
        try:
            values[key] = schema[key][0](val)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{loc}: bad value for {key!r}: {exc}")
    for key, (_, default) in schema.items():
        values.setdefault(key, default)
    return values


def resolve_f0(choice, model):
    """Initial densities from a preset name or an explicit comma list."""
    if choice == "f_eq":
        return model.weights.copy()
    if choice in F0_PRESETS:
        vals = np.array(F0_PRESETS[choice], dtype=float)
    else:
        try:
            vals = np.array(
                [float(p) for p in str(choice).split(",")], dtype=float
            )
        except ValueError:
            raise ConfigError(
                f"f0 must be a preset ({', '.join(sorted(F0_PRESETS))}, "
                f"f_eq) or comma-separated numbers, got {choice!r}"
            )
    if vals.shape != (model.Q,):
        raise ConfigError(
            f"f0 needs {model.Q} entries for {model.name}, got {vals.size}"
        )
    if not np.all(np.isfinite(vals)):
        raise ConfigError(f"f0 entries must be finite, got {choice!r}")
    return vals


def _fmt(v):
    if isinstance(v, float):  # np.float64 too: the bulk of every table
        return format(v, ".17g")
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, tuple):
        return ",".join(_fmt(x) for x in v)
    return format(float(v), ".17g")


def write_csv(path, header, rows):
    """The header, then one line per row.  A float array goes through one
    "%.17g" row template, which gives each value the bytes _fmt gives it,
    nan, inf and -0 included; other rows go cell by cell through _fmt."""
    lines = [",".join(header)]
    if isinstance(rows, np.ndarray) and rows.dtype.kind == "f":
        template = ",".join(["%.17g"] * rows.shape[1])
        lines += [template % tuple(row) for row in rows.tolist()]
    else:
        lines += [",".join(_fmt(v) for v in row) for row in rows]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_text(path, lines):
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_sidecar(path, subcommand, values):
    lines = [f"artifact = {__version__}", f"subcommand = {subcommand}"]
    for key in sorted(values):
        lines.append(f"{key} = {_fmt(values[key])}")
    write_text(path + ".meta", lines)


def cmd_classical(config):
    model = build_lattice(config["lattice"].upper())
    steps, dt = config["steps"], config["dt"]
    ucols = [f"u_{d}" for d in range(model.D)]
    fcols = [f"f_{i}" for i in range(model.Q)]
    if config["run"] == "0d":
        header = ["t"] + fcols + ["rho"] + ucols
        f0 = resolve_f0(config["f0"], model)
        series = classical.evolve_0d(f0, model, config["tau"], dt, steps)
        rho, u = classical.site_moments(series, model)
        rows = np.column_stack([np.arange(steps + 1) * dt, series, rho, u])
    else:
        header = ["t", "site"] + fcols + ["rho"] + ucols
        classical.check_tau(config["tau"], dt)
        sites = config["sites"]
        shape = (sites,) * model.D
        total = int(np.prod(shape))
        blocks = []
        data = 1.0 + 0.01 * np.arange(total * model.Q, dtype=float)
        fld = classical.DistributionField(
            model=model, data=data.reshape(*shape, model.Q)
        )
        for k in range(steps + 1):
            flat = fld.data.reshape(total, model.Q)
            rho, u = classical.site_moments(flat, model)
            blocks.append(
                np.column_stack(
                    [np.full(total, k * dt), np.arange(total), flat, rho, u]
                )
            )
            if k < steps:
                fld = classical.step(fld, config["tau"], dt)
        rows = np.vstack(blocks)
    write_csv(config["out"], header, rows)
    print(f"classical: wrote {len(rows)} rows to {config['out']}")
    return 0


def cmd_quantum(config):
    model = build_lattice(config["lattice"].upper())
    steps, dt = config["steps"], config["dt"]
    f0 = resolve_f0(config["f0"], model)
    if config["mode"] == "both":
        methods = ("nonhermitian", "hermitized")
    else:
        methods = (config["mode"],)
    runs = []
    for qc in config["qc"]:
        # one setup per qc: both modes read its one build of the generator
        try:
            setup = engine.make_setup(
                model, qubits=qc, tau=config["tau"], dt=dt
            )
        except TooLarge as exc:
            raise TooLarge(f"qc={qc}: {exc}")
        for method in methods:
            res = engine.evolve_quantum_0d(
                setup, f0, steps, mode=method, init=config["init"]
            )
            runs.append((qc, method, res))
    header = ["t"] + [f"ref_f{i}" for i in range(model.Q)]
    columns = [runs[0][2].times, runs[0][2].classical]
    for qc, method, res in runs:
        tag = f"{method}_qc{qc}"
        header += [f"{tag}_f{i}" for i in range(model.Q)]
        header += [f"{tag}_relerr", f"{tag}_flag"]
        flag = np.zeros(steps + 1)
        if res.flag_step is not None:
            flag[res.flag_step:] = 1.0
        columns += [res.decoded, res.rel_err, flag]
    table = np.column_stack(columns)
    write_csv(config["out"], header, table)
    for qc, method, res in runs:
        note = f"flagged at step {res.flag_step}: {res.flag_reason}" if (
            res.flag_step is not None
        ) else "clean"
        print(
            f"quantum {method} qc={qc}: final relative error "
            f"{res.rel_err[-1]:.6g}, {note}"
        )
    print(f"quantum: wrote {len(table)} rows to {config['out']}")
    return 4 if any(res.flag_step is not None for _, _, res in runs) else 0


def cmd_carleman(config):
    steps, dt = config["steps"], config["dt"]
    p = carleman.LogisticParams(a=config["a"], b=config["b"], f0=config["f0"])
    times = np.arange(steps + 1) * dt
    # raises SingularTime before the sweep when the horizon reaches blow-up
    exact = carleman.logistic_exact(p, times)
    orders = config["orders"]
    _, curves = carleman.logistic_order_sweep(
        p, orders, dt, steps, method=config["method"]
    )
    header, columns = ["t", "exact"], [times, exact]
    for k in orders:
        header += [f"order{k}_f", f"order{k}_abserr"]
        columns += [curves[k], np.abs(curves[k] - exact)]
    table = np.column_stack(columns)
    write_csv(config["out"], header, table)
    print(f"carleman: wrote {len(table)} rows to {config['out']}")
    return 0


def _occupied(layout, state):
    """Site and raw register bits of a one-hot basis state."""
    idx = int(np.argmax(np.abs(state)))
    site, _ = streaming.decode_index(layout, idx)
    return site, format(idx, f"0{layout.total_qubits}b")


def _compass(velocity):
    """N or S from y, then E or W from x; C for rest."""
    x, y = velocity
    return ("S", "", "N")[y + 1] + ("W", "", "E")[x + 1] or "C"


def cmd_streaming_demo(config):
    sites, steps, marker = config["sites"], config["steps"], config["marker"]
    if marker >= sites:
        raise ConfigError(f"marker {marker} outside 0..{sites - 1}")
    layout = streaming.RegisterLayout(grid_dims=(sites,))
    lines = [
        f"single-axis register: {sites} sites, {layout.total_qubits} qubits",
        "",
        "gates of one positive shift (X target | controls):",
    ]
    lines += ["  " + g.dump() for g in streaming.axis_block(layout, 0, +1)]
    lines += ["", "marker walk (positive direction code 11):",
              "step,site,register"]
    state = streaming.basis_state(layout, (marker,), (1,))
    for k in range(steps + 1):
        site, bits = _occupied(layout, state)
        lines.append(f"{k},{site[0]},{bits}")
        if k < steps:
            state = streaming.controlled_stream(state, layout, 0, +1)
    layout2 = streaming.RegisterLayout(grid_dims=(4, 4))
    lines += [
        "",
        "compass demo on a 4x4 grid: one negative shift along axis 0",
        "(west-component codes move), then one positive along axis 1",
        "(north-component codes move):",
        "direction,start,after_west_shift,after_north_shift",
    ]
    start = (2, 2)
    velocities = build_lattice("D2Q9").velocities.tolist()
    for velocity in sorted(velocities, key=_compass):
        s = streaming.basis_state(layout2, start, velocity)
        s1 = streaming.controlled_stream(s, layout2, 0, -1)
        s2 = streaming.controlled_stream(s1, layout2, 1, +1)
        a = _occupied(layout2, s)[0]
        b = _occupied(layout2, s1)[0]
        c = _occupied(layout2, s2)[0]
        lines.append(f"{_compass(velocity)},{a},{b},{c}".replace(" ", ""))
    mixed = np.zeros(layout2.dim, dtype=complex)
    for velocity in velocities:
        mixed += streaming.basis_state(layout2, (1, 3), velocity)
    mixed /= 3.0
    nbits = layout2.position_bits[0]
    offset = layout2.position_offsets[0]
    fwd = streaming.increment_circuit(nbits, +1, offset)
    back = streaming.increment_circuit(nbits, -1, offset)
    restored = streaming.apply_circuit(
        streaming.apply_circuit(mixed, layout2, fwd), layout2, back
    )
    ok = bool(np.array_equal(restored, mixed))
    lines += [
        "",
        "round-trip identity (unconditional +1 then -1 on axis 0): "
        + ("PASS" if ok else "FAIL"),
    ]
    write_text(config["out"], lines)
    print(f"streaming-demo: wrote {config['out']}")
    return 0 if ok else 3


def cmd_complexity(config):
    inputs = ComplexityInputs(
        G=config["G"],
        D=config["D"],
        T=config["T"],
        Q=config["Q"],
        tau=config["tau"],
        b=config["b"],
        N=config["N"],
    )
    rows = complexity_rows(inputs)
    header = ["label", "qubits", "ancillas", "gates", "gates_with_log"]
    write_csv(
        config["out"],
        header,
        [
            [r.label, r.qubits, r.ancillas, r.gates, r.gates_with_log]
            for r in rows
        ],
    )
    m, L, S = lcu_collision_params(inputs.Q, inputs.N, inputs.tau)
    print(f"collision combination: m={m} monomials, L={L} words, |S|={S:.6g}")
    for rep in reynolds_quote_report():
        mark = "ok" if rep["consistent"] else "DISAGREES"
        print(
            f"Re={rep['Re']:.0e}: formula {rep['formula']:.6g} qubits, "
            f"quoted {rep['quoted']:.6g} ({mark})"
        )
    print(f"note: {DISCLAIMER}")
    print(f"complexity: wrote {len(rows)} rows to {config['out']}")
    return 0


def cmd_bounds(config):
    tau, dt, steps = config["tau"], config["dt"], config["steps"]
    table, _ = bounds.epsilon_table(max(config["N"], config["nmax"]))
    eps = float(table[config["N"] - 1])
    print(f"eps_N table (defect sup over [-1, 1]):")
    for n in range(1, config["nmax"] + 1):
        print(f"  N={n}: {table[n - 1]:.6g}")
    header, columns = ["t"], [np.arange(steps + 1) * dt]
    by_variant = bounds.feasibility_by_variant(config["Q"], eps, dt, tau)
    for variant, feas in by_variant.items():
        params = bounds.ErrorBoundParams(
            C0=feas.C0, C1=feas.C1, tau=tau, dt=dt, eps_N=eps
        )
        series = bounds.logistic_map_run(params, steps)
        header += [f"{variant}_Z", f"{variant}_eps", f"{variant}_eps_raw"]
        columns += [series.Z, series.eps, series.eps_raw]
        verdict = "feasible" if feas.feasible else "infeasible"
        print(
            f"{variant}: C0={feas.C0:.6g} C1={feas.C1:.6g} "
            f"kappa={params.kappa[0]:.6g},{params.kappa[1]:.6g} "
            f"Z0={params.Z0:.6g} {verdict} "
            f"(margins {feas.margin_low:.6g}, {feas.margin_high:.6g})"
        )
    table = np.column_stack(columns)
    write_csv(config["out"], header, table)
    print(f"bounds: wrote {len(table)} rows to {config['out']}")
    return 0


_LATTICE = ("lattice", _choice(*map(str.lower, _NAMES)), "d1q3")

# name -> (runner, help, schema entries): the only list of subcommands
_COMMANDS = {
    "classical": (
        cmd_classical,
        "relaxation reference series (0d or grid BGK steps)",
        (
            _LATTICE,
            ("tau", _positive_float, 1.0),
            ("dt", _positive_float, 1e-3),
            ("steps", _int_at_least(0), 50),
            ("f0", str, "d1q3-figure"),
            ("run", _choice("0d", "grid-stream"), "0d"),
            ("sites", _int_at_least(1), 8),
        ),
    ),
    "quantum": (
        cmd_quantum,
        "encoded-register collision runs vs the reference",
        (
            _LATTICE,
            ("tau", _positive_float, 1.0),
            ("dt", _positive_float, 1e-3),
            ("steps", _int_at_least(0), 50),
            ("qc", _int_list, (2,)),
            ("f0", str, "d1q3-figure"),
            ("mode", _choice("hermitized", "nonhermitian", "both"), "both"),
            ("init", _choice("exact", "translation"), "exact"),
        ),
    ),
    "carleman": (
        cmd_carleman,
        "logistic truncation error curves",
        (
            ("a", _positive_float, 1.0),
            ("b", _positive_float, 1.0),
            ("f0", _positive_float, 0.01),
            ("dt", _positive_float, 0.01),
            ("steps", _int_at_least(0), 500),
            ("orders", _int_list, (1, 2, 3, 4)),
            ("method", _choice("exact", "euler"), "exact"),
        ),
    ),
    "streaming-demo": (
        cmd_streaming_demo,
        "shift-circuit dump and basis-walk tables",
        (
            ("sites", _int_at_least(1), 8),
            ("steps", _int_at_least(0), 3),
            ("marker", _int_at_least(0), 5),
        ),
    ),
    "complexity": (
        cmd_complexity,
        "qubit/ancilla/gate table and headline estimates",
        (
            ("G", _int_at_least(1), 256),
            ("D", _int_at_least(1), 2),
            ("T", _int_at_least(1), 10),
            ("Q", _int_at_least(1), 9),
            ("tau", _positive_float, 1.0),
            ("b", _int_at_least(1), 6),
            ("N", _int_at_least(1), 3),
        ),
    ),
    "bounds": (
        cmd_bounds,
        "defect table, logistic error map, feasibility window",
        (
            ("Q", _int_at_least(1), 3),
            ("N", _int_at_least(1), 3),
            ("nmax", _int_at_least(1), 8),
            ("tau", _positive_float, 1.0),
            ("dt", _positive_float, 1e-6),
            ("steps", _int_at_least(0), 50),
        ),
    ),
}


def _run(args):
    raw = {}
    if args.config:
        with open(args.config) as fh:
            raw = parse_config_text(fh.read(), args.config)
    for i, item in enumerate(args.sets, start=1):
        if "=" not in item:
            raise ConfigError(f"--set #{i}: expected key=value, got {item!r}")
        key, val = (part.strip() for part in item.split("=", 1))
        raw[key] = (val, f"--set #{i}")
    runner, _, entries = _COMMANDS[args.command]
    config = build_values(raw, dict_schema(*entries), args.command)
    if config["experiment"] is None:
        config["experiment"] = args.command
    out = args.out or config["out"]
    if out is None:
        raise ConfigError(
            "an output path is required: pass --out or set out= in the config"
        )
    config["out"] = out
    # fail before computing anything when the output cannot be written
    if not os.access(os.path.dirname(out) or ".", os.W_OK):
        raise OSError(f"cannot write to the directory of {out!r}")
    code = runner(config)
    write_sidecar(out, args.command, config)
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="qalb",
        description="collision/streaming experiment driver and calculators",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", default=None, help="key = value file")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            dest="sets",
            help="override one config key (repeatable)",
        )
        p.add_argument("--out", default=None, help="output data path")
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2
    except (QalbError, MemoryError) as exc:
        print(f"numeric guard: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:  # an overflow no guard foresaw
        print(f"numeric guard: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
