"""Traced CLI run: spans around the program's layers, from outside it.

Run as ``python -X importtime coldbench/tracer.py TRACE_OUT ARGS...``: it
writes a marker to stderr (importtime lines after it belong to the program,
whether imported up front or lazily inside a command), imports
``torus_hypo.cli``, wraps the layer functions listed in :data:`LAYERS` with
spans, calls ``torus_hypo.cli.main(ARGS)`` and writes the per-layer self
times and counts as JSON to TRACE_OUT.  The exit code is the command's own.

A wrapped name is rebound in every ``torus_hypo`` module that holds it, so a
function imported by name elsewhere (``from .gevrey import make_cutoff``) is
traced there too.  A name that no longer exists is listed as missing.
"""

from __future__ import annotations

import functools
import importlib.util
import inspect
import json
import sys
import time

#: stderr marker; importtime lines after it belong to the program
IMPORT_BEGIN = "coldbench: import begin"

#: layer metric -> functions ("module:qualname") whose spans it sums.  The
#: root span is cli.main: cli.self_s is whatever no other span covers
#: (argument parsing, spec/field JSON reads in cli, the certificate dump).
LAYERS = {
    "cli.self_s": ["torus_hypo.cli:main"],
    "report.render_s": ["torus_hypo.report:Report.to_text"],
    "system.parse_s": ["torus_hypo.system:SystemSpec.from_json"],
    "system.analyze_s": [
        "torus_hypo.system:analyze",
        "torus_hypo.system:sign_analysis",
        "torus_hypo.system:sign_analysis_detail",
    ],
    "system.decide_s": [
        "torus_hypo.system:classify_system",
        "torus_hypo.system:classify_vector",
        "torus_hypo.system:decide",
    ],
    "diophantine.classify_s": [
        "torus_hypo.diophantine:classify",
        "torus_hypo.diophantine:liouville_exponent_trend",
        "torus_hypo.diophantine:exp_liouville_score",
        "torus_hypo.diophantine:approx_interval",
        "torus_hypo.diophantine:condition_B_check",
        "torus_hypo.diophantine:convergents",
        "torus_hypo.diophantine:ContinuedFraction.pair",
    ],
    "diophantine.witness_s": [
        "torus_hypo.diophantine:verify_witness_rows",
        "torus_hypo.diophantine:scale_witness",
    ],
    "gevrey.cutoff_s": [
        "torus_hypo.gevrey:make_cutoff",
        "torus_hypo.gevrey:GevreyCutoff.fourier_magnitudes_hiprec",
    ],
    "gevrey.decay_fit_s": [
        "torus_hypo.gevrey:estimate_decay",
        "torus_hypo.singular:fit_lower_bound_power",
    ],
    "solver.banded_s": ["torus_hypo.solver:solve_single_tube"],
    "solver.division_s": ["torus_hypo.solver:solve_by_division"],
    "solver.check_s": [
        "torus_hypo.solver:residual",
        "torus_hypo.solver:apply_tube_operator",
        "torus_hypo.solver:decay_report",
    ],
    "solver.field_io_s": [
        "torus_hypo.solver:FourierField.load_binary",
        "torus_hypo.solver:FourierField.from_bytes",
        "torus_hypo.solver:FourierField.from_json_obj",
        "torus_hypo.solver:FourierField.load_json",
        "torus_hypo.solver:FourierField.save_binary",
        "torus_hypo.solver:FourierField.save_json",
        "torus_hypo.solver:FourierField.to_bytes",
        "torus_hypo.solver:FourierField.to_json_obj",
    ],
    "normalform.gauge_s": [
        "torus_hypo.normalform:build_normal_form",
        "torus_hypo.normalform:apply_gauge",
        "torus_hypo.normalform:conjugation_residual",
    ],
    "singular.prop51_s": ["torus_hypo.singular:build_prop51"],
    "singular.prop52_s": [
        "torus_hypo.singular:build_prop52",
        "torus_hypo.singular:locate_laplace_profile",
    ],
    "singular.product_s": ["torus_hypo.singular:build_product"],
    "singular.lift_s": [
        "torus_hypo.singular:build_rational_J",
        "torus_hypo.singular:build_expliouville_J",
    ],
    "singular.serialize_s": ["torus_hypo.singular:SingularSolution.to_json_obj"],
}

#: Spans that swallow the spans of what they call: the decay fit of a solve
#: report is a solver check, and the field dumps inside the certificate are
#: its serialization.
OPAQUE = {
    "torus_hypo.solver:decay_report",
    "torus_hypo.singular:SingularSolution.to_json_obj",
}

#: (count metric, function, what one call adds)
COUNTS = (
    ("gevrey.cutoff_calls", "torus_hypo.gevrey:make_cutoff", lambda result: 1),
    (
        "gevrey.hiprec_dft_calls",
        "torus_hypo.gevrey:GevreyCutoff.fourier_magnitudes_hiprec",
        lambda result: 1,
    ),
    ("solver.xi_solved", "torus_hypo.solver:solve_single_tube", lambda result: len(result.data)),
    ("solver.xi_solved", "torus_hypo.solver:solve_by_division", lambda result: len(result.data)),
    ("normalform.gauge_calls", "torus_hypo.normalform:apply_gauge", lambda result: 1),
)


class _AfterImport:
    """Meta-path finder that runs ``callback(module, names)`` right after a
    pending module has executed, before any other module can bind its names."""

    def __init__(self, pending: dict, callback):
        self.pending = pending
        self.callback = callback

    def find_spec(self, fullname, path=None, target=None):
        names = self.pending.pop(fullname, None)
        if names is None:
            return None
        spec = importlib.util.find_spec(fullname)
        run = spec.loader.exec_module

        def exec_module(module):
            run(module)
            self.callback(module, names)

        spec.loader.exec_module = exec_module
        return spec


class Tracer:
    """Nested spans kept in memory; self time = duration minus child spans."""

    def __init__(self):
        self.self_ns = {name: 0 for name in LAYERS}
        self.counts = {metric: 0 for metric, _, _ in COUNTS}
        self.missing = []
        self.root_ns = 0
        self._stack = []  # [layer, start_ns, child_ns]
        self._opaque = 0

    def wrap(self, fn, layer: str, opaque: bool, counters: list):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._opaque:
                return fn(*args, **kwargs)
            frame = [layer, time.perf_counter_ns(), 0]
            tracer._stack.append(frame)
            tracer._opaque += opaque
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._opaque -= opaque
                tracer._stack.pop()
                span = time.perf_counter_ns() - frame[1]
                tracer.self_ns[layer] += span - frame[2]
                if tracer._stack:
                    tracer._stack[-1][2] += span
                else:
                    tracer.root_ns += span
            for name, per_call in counters:
                tracer.counts[name] += per_call(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the layer functions of loaded modules now, and those of
        modules the command imports later (lazy imports) as they load."""
        by_module = {}
        for layer, names in LAYERS.items():
            for name in names:
                module_name, qualname = name.split(":")
                by_module.setdefault(module_name, []).append((qualname, layer))
        pending = {}
        for module_name, names in by_module.items():
            if module_name in sys.modules:
                self._wrap_module(sys.modules[module_name], names)
            elif importlib.util.find_spec(module_name) is None:
                self.missing.extend(f"{module_name}:{q}" for q, _ in names)
            else:
                pending[module_name] = names
        if pending:
            sys.meta_path.insert(0, _AfterImport(pending, self._wrap_module))

    def _wrap_module(self, module, names: list) -> None:
        counters = {}
        for metric, name, per_call in COUNTS:
            counters.setdefault(name, []).append((metric, per_call))
        loaded = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "torus_hypo"]
        for qualname, layer in names:
            name = f"{module.__name__}:{qualname}"
            owner, _, attr = qualname.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            if holder is None or not hasattr(holder, attr):
                self.missing.append(name)
                continue
            wrap = functools.partial(
                self.wrap, layer=layer, opaque=name in OPAQUE, counters=counters.get(name, [])
            )
            if owner:
                raw = inspect.getattr_static(holder, attr)
                if isinstance(raw, (classmethod, staticmethod)):
                    setattr(holder, attr, type(raw)(wrap(raw.__func__)))
                else:
                    setattr(holder, attr, wrap(raw))
                continue
            original = getattr(holder, attr)
            traced = wrap(original)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

    def to_json(self) -> dict:
        return {
            "inproc_s": self.root_ns * 1e-9,
            "self_s": {k: v * 1e-9 for k, v in self.self_ns.items()},
            "counts": self.counts,
            "missing": self.missing,
        }


def main(argv: list) -> int:
    out_path, args = argv[0], argv[1:]
    sys.stderr.write(IMPORT_BEGIN + "\n")
    sys.stderr.flush()
    import torus_hypo.cli as cli

    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        code = cli.main(args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
