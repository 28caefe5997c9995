"""Command-line driver: configures runs, writes CSV series and text dumps.

Config files are flat `key = value` lines with `#` comments; `--set`
overrides win over the file.  Unknown keys are rejected with the line
they came from.  Every successful run writes its data file plus a
`.meta` sidecar echoing the effective configuration and the artifact
version, so identical configs reproduce identical bytes.  Each
subcommand reads its settings from the validated dict that the sidecar
echoes.  Exit codes: 0 success, 2 config or I/O error, 3 numeric guard
violation, 4 divergence flagged but the data was still written.  ConfigError
is a ValueError, so config errors and a library ValueError on an input the
schema let through share one exit-2 handler.
"""

import argparse
import os
import sys

import numpy as np

from . import __version__, bounds, carleman, classical, engine, streaming
from .complexity import ComplexityInputs, DISCLAIMER, complexity_rows
from .complexity import lcu_collision_params, reynolds_quote_report
from .errors import QalbError, SingularTime, TooLarge
from .lattice import build_lattice

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


def _positive_int(s):
    v = int(s)
    if v < 1:
        raise ValueError(f"must be >= 1, got {v}")
    return v


def _nonneg_int(s):
    v = int(s)
    if v < 0:
        raise ValueError(f"must be >= 0, got {v}")
    return v


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


def _str(s):
    return s


def _schemas():
    lattice_key = ("lattice", _choice("d1q3", "d2q9", "d3q27"), "d1q3")
    return {
        "classical": dict_schema(
            lattice_key,
            ("tau", _positive_float, 1.0),
            ("dt", _positive_float, 1e-3),
            ("steps", _nonneg_int, 50),
            ("f0", _str, "d1q3-figure"),
            ("run", _choice("0d", "grid-stream"), "0d"),
            ("sites", _positive_int, 8),
        ),
        "quantum": dict_schema(
            lattice_key,
            ("tau", _positive_float, 1.0),
            ("dt", _positive_float, 1e-3),
            ("steps", _nonneg_int, 50),
            ("qc", _int_list, (2,)),
            ("f0", _str, "d1q3-figure"),
            ("mode", _choice("hermitized", "nonhermitian", "both"), "both"),
            ("init", _choice("exact", "translation"), "exact"),
        ),
        "carleman": dict_schema(
            ("a", _positive_float, 1.0),
            ("b", _positive_float, 1.0),
            ("f0", _positive_float, 0.01),
            ("dt", _positive_float, 0.01),
            ("steps", _nonneg_int, 500),
            ("orders", _int_list, (1, 2, 3, 4)),
            ("method", _choice("exact", "euler"), "exact"),
        ),
        "streaming-demo": dict_schema(
            ("sites", _positive_int, 8),
            ("steps", _nonneg_int, 3),
            ("marker", _nonneg_int, 5),
        ),
        "complexity": dict_schema(
            ("G", _positive_int, 256),
            ("D", _positive_int, 2),
            ("T", _positive_int, 10),
            ("Q", _positive_int, 9),
            ("tau", _positive_float, 1.0),
            ("b", _positive_int, 6),
            ("N", _positive_int, 3),
        ),
        "bounds": dict_schema(
            ("Q", _positive_int, 3),
            ("N", _positive_int, 3),
            ("nmax", _positive_int, 8),
            ("tau", _positive_float, 1.0),
            ("dt", _positive_float, 1e-6),
            ("steps", _nonneg_int, 50),
        ),
    }


def dict_schema(*entries):
    schema = {
        "experiment": (_str, None),
        "out": (_str, None),
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
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
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
    rows = []
    if config["run"] == "0d":
        header = ["t"] + fcols + ["rho"] + ucols
        f0 = resolve_f0(config["f0"], model)
        series = classical.evolve_0d(f0, config["tau"], dt, steps)
        for k in range(steps + 1):
            rho, u = classical.site_moments(series[k], model)
            rows.append([k * dt, *series[k], rho, *np.atleast_1d(u)])
    else:
        header = ["t", "site"] + fcols + ["rho"] + ucols
        classical.check_tau(config["tau"], dt)
        sites = config["sites"]
        shape = (sites,) * model.D
        total = int(np.prod(shape))
        data = 1.0 + 0.01 * np.arange(total * model.Q, dtype=float)
        fld = classical.DistributionField(
            model=model, data=data.reshape(*shape, model.Q)
        )
        for k in range(steps + 1):
            flat = fld.data.reshape(total, model.Q)
            rho, u = classical.site_moments(flat, model)
            for s in range(total):
                rows.append(
                    [k * dt, s, *flat[s], rho[s], *np.atleast_2d(u)[s]]
                )
            if k < steps:
                fld = classical.step(fld, config["tau"], dt)
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
        if res.flagged:
            flag[res.flag_step:] = 1.0
        columns += [res.decoded, res.rel_err, flag]
    table = np.column_stack(columns)
    write_csv(config["out"], header, table)
    for qc, method, res in runs:
        note = f"flagged at step {res.flag_step}: {res.flag_reason}" if (
            res.flagged
        ) else "clean"
        print(
            f"quantum {method} qc={qc}: final relative error "
            f"{res.rel_err[-1]:.6g}, {note}"
        )
    print(f"quantum: wrote {len(table)} rows to {config['out']}")
    return 4 if any(res.flagged for _, _, res in runs) else 0


def cmd_carleman(config):
    steps, dt = config["steps"], config["dt"]
    p = carleman.LogisticParams(a=config["a"], b=config["b"], f0=config["f0"])
    horizon = steps * dt
    t_sing = carleman.singular_time(p)
    if t_sing <= horizon:
        raise SingularTime(
            f"solution blows up at t = {t_sing:.6g}, inside the horizon "
            f"{horizon:.6g}; a*t_sing is roughly K/f0 = {p.K / p.f0:.6g}",
            t_singular=t_sing,
        )
    orders = config["orders"]
    times, curves = carleman.logistic_order_sweep(
        p, orders, dt, steps, method=config["method"]
    )
    exact = carleman.logistic_exact(p, times)
    header = ["t", "exact"]
    for k in orders:
        header += [f"order{k}_f", f"order{k}_abserr"]
    rows = []
    for i, t in enumerate(times):
        row = [t, exact[i]]
        for k in orders:
            row += [curves[k][i], abs(curves[k][i] - exact[i])]
        rows.append(row)
    write_csv(config["out"], header, rows)
    print(f"carleman: wrote {len(rows)} rows to {config['out']}")
    return 0


def _occupied(layout, state):
    """Site, direction code, and raw bits of a one-hot basis state."""
    idx = int(np.argmax(np.abs(state)))
    nq = layout.total_qubits
    bits = [(idx >> (nq - 1 - q)) & 1 for q in range(nq)]
    site, code = streaming.decode_site(layout, bits)
    return site, code, "".join(str(b) for b in bits)


_COMPASS = {
    (0, 0): "C",
    (1, 0): "E",
    (-1, 0): "W",
    (0, 1): "N",
    (0, -1): "S",
    (1, 1): "NE",
    (1, -1): "SE",
    (-1, 1): "NW",
    (-1, -1): "SW",
}


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
    lines += [
        "  " + g.dump() for g in streaming.axis_block(layout, 0, +1)
    ]
    lines += ["", "marker walk (positive direction code 11):", "step,site,register"]
    state = streaming.basis_state(layout, (marker,), (1,))
    for k in range(steps + 1):
        site, _, bits = _occupied(layout, state)
        lines.append(f"{k},{site[0]},{bits}")
        if k < steps:
            state = streaming.controlled_stream(state, layout, 0, +1)
    model2 = build_lattice("D2Q9")
    layout2 = streaming.RegisterLayout(grid_dims=(4, 4))
    lines += [
        "",
        "compass demo on a 4x4 grid: one negative shift along axis 0",
        "(west-component codes move), then one positive along axis 1",
        "(north-component codes move):",
        "direction,start,after_west_shift,after_north_shift",
    ]
    start = (2, 2)
    for velocity in sorted(_COMPASS, key=lambda v: _COMPASS[v]):
        s = streaming.basis_state(layout2, start, velocity)
        s1 = streaming.controlled_stream(s, layout2, 0, -1)
        s2 = streaming.controlled_stream(s1, layout2, 1, +1)
        a = _occupied(layout2, s)[0]
        b = _occupied(layout2, s1)[0]
        c = _occupied(layout2, s2)[0]
        lines.append(f"{_COMPASS[velocity]},{a},{b},{c}".replace(" ", ""))
    mixed = np.zeros(layout2.dim, dtype=complex)
    for velocity in _COMPASS:
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
    per = {}
    for variant in bounds.VARIANTS:
        C0, C1 = bounds.bound_coefficients(config["Q"], variant)
        params = bounds.ErrorBoundParams(
            C0=C0, C1=C1, tau=tau, dt=dt, eps_N=eps
        )
        series = bounds.logistic_map_run(params, steps)
        feas = bounds.feasibility(C0, C1, dt, tau, eps)
        per[variant] = series
        verdict = "feasible" if feas.feasible else "infeasible"
        print(
            f"{variant}: C0={C0:.6g} C1={C1:.6g} "
            f"kappa={params.kappa[0]:.6g},{params.kappa[1]:.6g} "
            f"Z0={params.Z0:.6g} {verdict} "
            f"(margins {feas.margin_low:.6g}, {feas.margin_high:.6g})"
        )
    header = ["t"]
    for variant in bounds.VARIANTS:
        header += [f"{variant}_Z", f"{variant}_eps", f"{variant}_eps_raw"]
    rows = []
    for k in range(steps + 1):
        row = [k * dt]
        for variant in bounds.VARIANTS:
            s = per[variant]
            row += [s.Z[k], s.eps[k], s.eps_raw[k]]
        rows.append(row)
    write_csv(config["out"], header, rows)
    print(f"bounds: wrote {len(rows)} rows to {config['out']}")
    return 0


_COMMANDS = {
    "classical": cmd_classical,
    "quantum": cmd_quantum,
    "carleman": cmd_carleman,
    "streaming-demo": cmd_streaming_demo,
    "complexity": cmd_complexity,
    "bounds": cmd_bounds,
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
    schema = _schemas()[args.command]
    config = build_values(raw, schema, args.command)
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
    code = _COMMANDS[args.command](config)
    write_sidecar(out, args.command, config)
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="qalb",
        description="collision/streaming experiment driver and calculators",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "classical": "relaxation reference series (0d or grid BGK steps)",
        "quantum": "encoded-register collision runs vs the reference",
        "carleman": "logistic truncation error curves",
        "streaming-demo": "shift-circuit dump and basis-walk tables",
        "complexity": "qubit/ancilla/gate table and headline estimates",
        "bounds": "defect table, logistic error map, feasibility window",
    }
    for name, text in helps.items():
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
    except QalbError as exc:
        print(f"numeric guard: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
