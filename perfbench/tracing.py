"""Spans recorded from outside the program, and the per-layer split.

The traced run replaces pzid's public functions with wrappers that record
a span per call: name, start, end, parent span and job id.  A function is
wrapped under every module of the package that binds it, so a call made
through ``staban.fit_common_denominator`` or ``sweeps.frequency_response``
is seen as well as one through the defining module.  Spans stay in memory
and are written out when the run ends.

Layers are named after pzid's modules; a span's layer is the part of its
name before the first dot.  The job's own root span belongs to ``bench``.
"""

from __future__ import annotations

import functools
import json
import time

MODULES = ("cli", "freqresp", "netsim", "polemap", "ratfit", "staban", "sweeps")
LAYERS = ("cli", "freqresp", "polemap", "ratfit", "staban", "netsim", "sweeps")

_MARK = "__perfbench_wrapped__"


def _fit_facts(args, kwargs, out):
    resps = args[0] if args else kwargs["resps"]
    _, report = out
    return {"iters": report.iters_used, "converged": bool(report.converged),
            "samples": len(resps.grid) * resps.n_ports}


def _response_facts(args, kwargs, out):
    return {"points": len(out.grid)}


# (defining module, public name, span name, facts from (args, kwargs, result))
WRAPS = (
    ("ratfit", "fit_common_denominator", "ratfit.fit", _fit_facts),
    ("ratfit", "poles_and_zeros", "ratfit.poles_and_zeros", None),
    ("staban", "auto_identify", "staban.auto_identify", None),
    ("staban", "subband_consistency_check", "staban.subband",
     lambda a, k, out: {"outcome": out}),
    ("staban", "rho_matrix", "staban.rho_matrix", None),
    ("staban", "serialize_verdict", "staban.serialize_verdict", None),
    ("netsim", "frequency_response", "netsim.response", _response_facts),
    ("netsim", "set_element_value", "netsim.edit", None),
    ("netsim", "with_termination", "netsim.edit", None),
    ("netsim", "analytic_poles", "netsim.oracle", None),
    ("sweeps", "monte_carlo_cloud", "sweeps.driver",
     lambda a, k, out: {"mc_failed": out.n_failed}),
    ("sweeps", "trace_pole_locus", "sweeps.driver", None),
    ("sweeps", "stabilization_threshold", "sweeps.driver", None),
    ("sweeps", "proviso_scan", "sweeps.driver",
     lambda a, k, out: {"proviso_failed": len(out.failures)}),
    ("cli", "dispatch", "cli.dispatch", None),
    ("freqresp", "parse_csv", "freqresp.parse", None),
    ("freqresp", "parse_touchstone", "freqresp.parse", None),
    ("freqresp", "slice_band", "freqresp.slice_band", None),
    ("polemap", "render_pole_map", "polemap.render", None),
)

# Bindings named in the benchmark's design; a refactor that drops one must
# be noticed here rather than silently change what a layer records.
REQUIRED_BINDINGS = (
    "staban.fit_common_denominator", "staban.subband_consistency_check",
    "staban.rho_matrix", "staban.poles_and_zeros", "staban.slice_band",
    "sweeps.frequency_response", "sweeps.set_element_value",
    "sweeps.with_termination", "sweeps.analytic_poles",
    "sweeps.fit_common_denominator", "sweeps.auto_identify",
    "cli.parse_csv", "cli.parse_touchstone", "polemap.poles_and_zeros",
)

# Layers each workload must record calls in; zero calls fails the run.
EXPECTED = {
    "identify": ("cli", "freqresp", "polemap", "ratfit", "staban"),
    "sweep": ("netsim", "ratfit", "sweeps"),
    "proviso": ("netsim", "ratfit", "staban", "sweeps"),
}


class TraceError(RuntimeError):
    """The wrappers could not be installed, removed or trusted."""


class Tracer:
    """In-memory span recorder.  A span is [name, start, end, parent, job, facts]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._job = None
        self._installed = []  # (module, attribute, original)

    # -- recording -------------------------------------------------------
    def job(self, job_id, fn):
        """Run ``fn`` as the root span of one job."""
        self._job = job_id
        return self._span("bench.job", fn, (), {}, None)

    def _span(self, name, fn, args, kwargs, facts):
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1,
               self._job, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            out = fn(*args, **kwargs)
            if facts is not None:
                rec[5] = facts(args, kwargs, out)
            return out
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, name, fn, facts):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._span(name, fn, args, kwargs, facts)
        setattr(wrapper, _MARK, fn)
        return wrapper

    # -- installation ----------------------------------------------------
    def install(self, pzid):
        if self._installed:
            raise TraceError("wrappers already installed")
        assert_clean(pzid)
        mods = [pzid] + [getattr(pzid, m) for m in MODULES]
        bound = set()
        for home, attr, span, facts in WRAPS:
            original = getattr(getattr(pzid, home), attr, None)
            if not callable(original):
                raise TraceError(f"pzid.{home}.{attr} no longer exists")
            wrapper = self._wrapper(span, original, facts)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._installed.append((mod, key, original))
                        setattr(mod, key, wrapper)
                        bound.add(f"{mod.__name__.rsplit('.', 1)[-1]}.{key}")
        missing = [b for b in REQUIRED_BINDINGS if b not in bound]
        if missing:
            self.restore(pzid)
            raise TraceError(f"expected bindings not found: {', '.join(missing)}")

    def restore(self, pzid):
        for mod, key, original in reversed(self._installed):
            setattr(mod, key, original)
        self._installed = []
        assert_clean(pzid)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, job, facts in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "job": job, "facts": facts}) + "\n")


def assert_clean(pzid):
    """Raise if any wrapper is bound anywhere in the package."""
    for mod in [pzid] + [getattr(pzid, m) for m in MODULES]:
        for key, value in vars(mod).items():
            if hasattr(value, _MARK):
                raise TraceError(f"wrapper still installed at {mod.__name__}.{key}")


# ---------------------------------------------------------------------------
# reduction

def _covered(intervals, lo, hi):
    """Length of the union of intervals clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_of(name):
    return name.split(".", 1)[0]


def reduce(spans):
    """Per-layer metrics from a list of spans (see README for definitions)."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def self_time(i):
        s = spans[i]
        return dur(i) - _covered([(spans[c][1], spans[c][2]) for c in children[i]], s[1], s[2])

    def ancestors(i):
        p = spans[i][3]
        while p >= 0:
            yield p
            p = spans[p][3]

    calls, busy = {}, {}
    layer_self = {k: 0.0 for k in LAYERS + ("bench",)}
    layer_busy = {k: 0.0 for k in LAYERS}
    layer_calls = {k: 0 for k in LAYERS}
    jobs_s = 0.0
    fit_iters = fit_samples = fit_conv = fits_in_verdicts = 0
    response_points = mc_failed = proviso_failed = sub_numerical = 0
    for i, (name, t0, t1, parent, job, facts) in enumerate(spans):
        layer = layer_of(name)
        layer_self[layer] += self_time(i)
        up = [spans[a][0] for a in ancestors(i)]
        if name == "bench.job":
            jobs_s += dur(i)
            continue
        layer_calls[layer] += 1
        calls[name] = calls.get(name, 0) + 1
        if name not in up:
            busy[name] = busy.get(name, 0.0) + dur(i)
        if not any(layer_of(u) == layer for u in up):
            layer_busy[layer] += dur(i)
        facts = facts or {}
        if name == "ratfit.fit":
            fit_iters += facts.get("iters", 0)
            fit_samples += facts.get("samples", 0)
            fit_conv += facts.get("converged", False)
            fits_in_verdicts += "staban.auto_identify" in up
        elif name == "netsim.response":
            response_points += facts.get("points", 0)
        elif name == "staban.subband":
            sub_numerical += facts.get("outcome") == "numerical"
        mc_failed += facts.get("mc_failed", 0)
        proviso_failed += facts.get("proviso_failed", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    n_fit = calls.get("ratfit.fit", 0)
    n_verdict = calls.get("staban.auto_identify", 0)
    m = {
        "ratfit.fit.calls": (n_fit, "count"),
        "ratfit.fit.busy_s": (busy.get("ratfit.fit", 0.0), "s"),
        "ratfit.fit.iters": (fit_iters, "count"),
        "ratfit.fit.s_per_iter": (ratio(busy.get("ratfit.fit", 0.0), fit_iters), "s"),
        "ratfit.fit.converged_frac": (ratio(fit_conv, n_fit), "ratio"),
        "ratfit.fit.samples": (fit_samples, "count"),
        "ratfit.poles_and_zeros.busy_s": (busy.get("ratfit.poles_and_zeros", 0.0), "s"),
        "staban.auto_identify.calls": (n_verdict, "count"),
        "staban.fits_per_verdict": (ratio(fits_in_verdicts, n_verdict), "ratio"),
        "staban.subband.calls": (calls.get("staban.subband", 0), "count"),
        "staban.subband.busy_s": (busy.get("staban.subband", 0.0), "s"),
        "staban.subband.numerical_frac": (ratio(sub_numerical, calls.get("staban.subband", 0)),
                                          "ratio"),
        "staban.rho_matrix.busy_s": (busy.get("staban.rho_matrix", 0.0), "s"),
        "netsim.response.calls": (calls.get("netsim.response", 0), "count"),
        "netsim.response.busy_s": (busy.get("netsim.response", 0.0), "s"),
        "netsim.response.points": (response_points, "count"),
        "netsim.response.s_per_point": (ratio(busy.get("netsim.response", 0.0),
                                              response_points), "s"),
        "netsim.edit.calls": (calls.get("netsim.edit", 0), "count"),
        "netsim.edit.busy_s": (busy.get("netsim.edit", 0.0), "s"),
        "netsim.oracle.calls": (calls.get("netsim.oracle", 0), "count"),
        "netsim.oracle.busy_s": (busy.get("netsim.oracle", 0.0), "s"),
        "sweeps.driver.calls": (calls.get("sweeps.driver", 0), "count"),
        "sweeps.mc.failed_trials": (mc_failed, "count"),
        "sweeps.proviso.failed_cases": (proviso_failed, "count"),
        "freqresp.parse.calls": (calls.get("freqresp.parse", 0), "count"),
        "freqresp.parse.busy_s": (busy.get("freqresp.parse", 0.0), "s"),
        "freqresp.slice_band.calls": (calls.get("freqresp.slice_band", 0), "count"),
        "polemap.render.busy_s": (busy.get("polemap.render", 0.0), "s"),
        "trace.job_s": (jobs_s, "s"),
        "trace.spans": (len(spans), "count"),
        "bench.self_s": (layer_self["bench"], "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
        m[f"{layer}.busy_frac"] = (ratio(layer_busy[layer], jobs_s), "ratio")
    m["trace.accounted_frac"] = (ratio(sum(layer_self[k] for k in LAYERS), jobs_s), "ratio")
    return m, layer_calls
