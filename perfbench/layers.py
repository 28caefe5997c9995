"""Which qalb functions the traced run wraps, what it counts at each one,
and how the spans become per-layer metrics.

Per-layer numbers come only from spans below `bench.op` roots, which are
the timed calls.  Checks (`bench.check`) and the certificate audit
(`bench.audit`) are traced too but count toward no layer.
"""

import os

import numpy as np

import tracer as tr

# Pade-13 scaling and squaring: 6 products for the rational approximant,
# one LU solve with n right-hand sides, then one product per squaring.
_THETA13 = 5.371920351148152


def expm_flops(n, is_complex, squarings):
    scale = 4.0 if is_complex else 1.0
    return scale * ((6 + squarings) * 2.0 * n**3 + (2.0 / 3.0 + 2.0) * n**3)


class LayerProbes:
    """Span targets with the counts recorded at each boundary.  Probes run
    once per operator size, so a cached operator is not counted twice."""

    def __init__(self, qalb):
        self.q = qalb
        self.seen = set()

    def _first(self, key):
        if key in self.seen:
            return False
        self.seen.add(key)
        return True

    def _hamiltonian(self, rec, args, kwargs, H):
        if self._first(("H", H.shape[0])):
            rec["attrs"] = {"dim": H.shape[0], "nnz": int(np.count_nonzero(H))}

    def _propagator(self, rec, args, kwargs, U):
        if self._first(("U", U.shape[0], args[1])):
            rec["attrs"] = {"dim": U.shape[0], "imag_max": float(np.max(np.abs(U.imag)))}

    def _expm(self, rec, args, kwargs, out):
        A = np.asarray(args[0])
        norm = float(np.linalg.norm(A, 1))
        s = int(np.ceil(np.log2(norm / _THETA13))) if norm > _THETA13 else 0
        rec["attrs"] = {"n": A.shape[0], "complex": bool(np.iscomplexobj(A)), "squarings": s}

    def _evolve(self, rec, args, kwargs, out):
        rec["attrs"] = {"steps": len(out.times) - 1}

    def _evolve_0d(self, rec, args, kwargs, out):
        rec["attrs"] = {"steps": len(out) - 1}

    def _write_csv(self, rec, args, kwargs, out):
        rec["attrs"] = {"bytes": os.path.getsize(args[0])}

    def _collide(self, rec, args, kwargs, out):
        rec["attrs"] = {"bytes": 2 * args[0].data.nbytes}

    def _equivalence(self, rec, args, kwargs, report):
        rec["attrs"] = {"cases": report.cases}

    def _stream_state(self, rec, args, kwargs, out):
        layout = args[1]
        if self._first(("gates", layout.grid_dims)):
            rec["attrs"] = {"gates": len(self.q.streaming.stream_circuit(layout))}

    def targets(self):
        q = self.q
        e, c, s = q.engine, q.classical, q.streaming
        return [
            (q.cli, "main", "cli.main", None),
            (q.cli, "write_csv", "cli.write_csv", self._write_csv),
            (e, "make_setup", "engine.make_setup", None),
            (e, "hamiltonian_nonhermitian", "engine.hamiltonian_nonhermitian", self._hamiltonian),
            (e, "hamiltonian_hermitized", "engine.hamiltonian_hermitized", None),
            (e, "propagator", "engine.propagator", self._propagator),
            (e, "certificate", "engine.certificate", None),
            (e, "evolve_quantum_0d", "engine.evolve_quantum_0d", self._evolve),
            # engine imported expm by name, so both bindings are wrapped
            (e, "expm", "linalg.expm", self._expm),
            (q.linalg, "expm", "linalg.expm", self._expm),
            (c, "evolve_0d", "classical.evolve_0d", self._evolve_0d),
            (c, "collide", "classical.collide", self._collide),
            (c, "stream", "classical.stream", None),
            (c, "step", "classical.step", None),
            (s, "equivalence_check", "streaming.equivalence_check", self._equivalence),
            (s, "stream_state", "streaming.stream_state", self._stream_state),
        ]


def certificate_audit(qalb, tracer):
    """engine.certificate's sigma_max against the dense 2-norm of U for
    qc 1-3 in both modes.  Counts, never a gate: an underestimate is a
    certificate below the SVD, a wrong verdict one whose flag differs from
    the flag the SVD would give."""
    engine = qalb.engine
    model = qalb.lattice.build_lattice("D1Q3")
    rows = []
    with tracer.span("bench.audit"):
        for qc in (1, 2, 3):
            setup = engine.make_setup(model, qc)
            for mode in engine.MODES:
                U = engine.propagator(setup, mode)
                smax, bound, flagged = engine.certificate(setup, mode)
                svd = float(np.linalg.norm(U, 2))
                threshold = bound * engine.CERTIFICATE_MARGIN
                rows.append(
                    {
                        "qc": qc,
                        "mode": mode,
                        "certificate": smax,
                        "svd": svd,
                        "threshold": threshold,
                        "underestimate": svd - smax > 1e-12 * svd,
                        "wrong_verdict": bool(flagged) != (svd > threshold),
                    }
                )
    return rows


def _pass_spans(spans):
    """bench.op roots and every span below them."""
    out = []
    for root in (s for s in spans if s["parent"] is None and s["name"] == "bench.op"):
        out += [root] + tr.subtree(spans, root["id"])
    return out


def layer_metrics(spans, audit, span_cost):
    """Every per-layer metric, 0 for a layer the workload does not load."""
    selfs = tr.self_times(spans)
    scope = _pass_spans(spans)
    by_id = {s["id"]: s for s in spans}

    def named(name):
        return [s for s in scope if s["name"] == name]

    def self_total(name):
        return sum(selfs[s["id"]] for s in named(name))

    def self_mean(name):
        n = len(named(name))
        return self_total(name) / n if n else 0.0

    def attrs(name, key):
        return [s["attrs"][key] for s in named(name) if key in s.get("attrs", {})]

    def per_step(name):
        steps = sum(attrs(name, "steps"))
        return self_total(name) / steps * 1e6 if steps else 0.0

    expm = named("linalg.expm")
    expm_in_propagator = sum(
        selfs[s["id"]] for s in expm if by_id[s["parent"]]["name"] == "engine.propagator"
    )
    flops = sum(
        expm_flops(a["n"], a["complex"], a["squarings"]) for a in (s["attrs"] for s in expm)
    )
    expm_time = self_total("linalg.expm")
    collide_time = self_total("classical.collide")
    nnz = {a["dim"]: a["nnz"] for a in (s["attrs"] for s in named("engine.hamiltonian_nonhermitian") if "attrs" in s)}
    roots = [s for s in scope if s["parent"] is None]
    root_time = sum(s["end"] - s["start"] for s in roots)
    probe_time = sum(s["end"] - s["start"] for s in named(tr.PROBE))

    m = {
        "engine.hamiltonian_s": (
            self_total("engine.hamiltonian_nonhermitian") + self_total("engine.hamiltonian_hermitized"),
            "s",
        ),
        "engine.propagator_s": (self_total("engine.propagator") + expm_in_propagator, "s"),
        "engine.certificate_s": (self_total("engine.certificate"), "s"),
        "engine.evolve_us_per_step": (per_step("engine.evolve_quantum_0d"), "us"),
        "classical.evolve_0d_us_per_step": (per_step("classical.evolve_0d"), "us"),
        "cli.main_s": (self_mean("cli.main"), "s"),
        "cli.write_csv_s": (self_total("cli.write_csv"), "s"),
        "cli.csv_bytes": (sum(attrs("cli.write_csv", "bytes")), "bytes"),
        "classical.collide_ms": (self_mean("classical.collide") * 1e3, "ms"),
        "classical.stream_ms": (self_mean("classical.stream") * 1e3, "ms"),
        "classical.collide_gbps_computed": (
            sum(attrs("classical.collide", "bytes")) / collide_time / 1e9 if collide_time else 0.0,
            "GB/s",
        ),
        "streaming.equivalence_check_s": (self_total("streaming.equivalence_check"), "s"),
        "streaming.stream_state_ms": (self_mean("streaming.stream_state") * 1e3, "ms"),
        "streaming.equivalence_cases": (sum(attrs("streaming.equivalence_check", "cases")), "count"),
        "streaming.gates_per_step": (max(attrs("streaming.stream_state", "gates"), default=0), "count"),
        "engine.H_nnz": (nnz[max(nnz)] if nnz else 0, "count"),
        "engine.U_imag_max": (max(attrs("engine.propagator", "imag_max"), default=0.0), "abs"),
        "linalg.expm_squarings": (sum(attrs("linalg.expm", "squarings")), "count"),
        "linalg.expm_gflops_computed": (flops / expm_time / 1e9 if expm_time else 0.0, "GFLOP/s"),
        "engine.certificate_underestimates": (sum(r["underestimate"] for r in audit), "count"),
        "engine.certificate_wrong_verdicts": (sum(r["wrong_verdict"] for r in audit), "count"),
        "trace.overhead_s": (probe_time + len(scope) * span_cost, "s"),
        "trace.uncovered_share": (
            100.0 * sum(selfs[s["id"]] for s in roots) / root_time if root_time else 0.0,
            "%",
        ),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
