"""In-memory span tracer that times calls into the package from outside.

The tracer replaces a function at the module attribute its caller looks
up (for example ``ilfo_lab.loop.fit_tabular``) with a wrapper that
records one span per call: name, start, end, parent span and an optional
integer tag (an iteration index or a work count).  Nothing under
``src/`` changes; ``installed()`` restores every original on exit.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time


class Tracer:
    def __init__(self):
        self.spans: list = []     # [name, start, end, parent index, tag]
        self._stack: list = []
        self._patches: list = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, tag: int | None = None):
        """A span around the benchmark's own call into a layer."""
        span = self._open(name)
        span[4] = tag
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, module, attr: str, name: str, tag=None) -> None:
        """Trace every call made through ``module.attr``.

        ``tag(arguments, result)`` turns the bound call arguments and the
        result into the span's integer tag.
        """
        original = getattr(module, attr)
        signature = inspect.signature(original) if tag else None

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if tag is not None:
                bound = signature.bind(*args, **kwargs).arguments
                span[4] = int(tag(bound, result))
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    @contextlib.contextmanager
    def installed(self, points):
        """Wrap each (module, attr, name, tag) point for the block's length."""
        try:
            for point in points:
                self.wrap(*point)
            yield self
        finally:
            while self._patches:
                module, attr, original = self._patches.pop()
                setattr(module, attr, original)

    def take(self) -> list:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list) -> list:
    """Each span's duration minus the time its direct children cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


# --------------------------------------------------------- per-layer metrics

def _by_name(spans: list) -> dict:
    selfs = self_times(spans)
    groups: dict = {}
    for i, s in enumerate(spans):
        g = groups.setdefault(s[0], {"dur": [], "self": [], "tag": [],
                                     "idx": []})
        g["dur"].append(s[2] - s[1])
        g["self"].append(selfs[i])
        g["tag"].append(s[4])
        g["idx"].append(i)
    return groups


def _mean(values, scale: float) -> float:
    return scale * sum(values) / len(values) if values else 0.0


def round_metrics(wall: float, spans: list) -> dict:
    """Per-layer metrics of one traced round.  Times are means per call
    (``_us``/``_ms``); counts are totals over the round."""
    g = _by_name(spans)
    empty = {"dur": [], "self": [], "tag": [], "idx": []}

    def get(name):
        return g.get(name, empty)

    def ms(name, key="dur"):
        return _mean(get(name)[key], 1e3)

    def us(name):
        return _mean(get(name)["dur"], 1e6)

    def calls(name):
        return len(get(name)["dur"])

    def tag_sum(name):
        return sum(get(name)["tag"])

    runs = get("loop.run_mobile")
    iters = tag_sum("loop.run_mobile")
    knr = get("models.fit_knr_model")
    # fits in the last tenth of each run's iterations (t > 0.9 T)
    knr_last = [d for d, t, i in zip(knr["dur"], knr["tag"], knr["idx"])
                if t > 0.9 * spans[spans[i][3]][4]]
    bandit = get("mab.run_bandit")
    return {
        "loop.iter_ms": 1e3 * sum(runs["dur"]) / iters if iters else 0.0,
        "loop.self_ms": 1e3 * sum(runs["self"]) / iters if iters else 0.0,
        "loop.iterations": iters,
        "planner.solve_minmax_ms": ms("planner.solve_minmax"),
        "planner.solve_minmax_self_ms": ms("planner.solve_minmax", "self"),
        "planner.best_response_tabular_us": us("planner.best_response_tabular"),
        "planner.best_response_tabular_calls":
            calls("planner.best_response_tabular"),
        "planner.fw_occupancy_us": us("planner.fw_occupancy"),
        "planner.fw_occupancy_calls": calls("planner.fw_occupancy"),
        "planner.best_response_knr_ms": ms("planner.best_response_knr"),
        "planner.knr_sequences_scored": tag_sum("planner.best_response_knr"),
        "envs.mixture_occupancy_ms": ms("envs.mixture_occupancy"),
        "envs.mixture_value_ms": ms("envs.mixture_value"),
        "envs.rollout_us": us("envs.rollout"),
        "envs.rollout_calls": calls("envs.rollout"),
        "envs.value_eval_mc_ms": ms("envs.value_eval_mc"),
        "models.fit_tabular_us": us("models.fit_tabular"),
        "models.theory_bonus_us": us("models.theory_bonus"),
        "models.bootstrap_buffers_ms": ms("models.bootstrap_buffers"),
        "models.ensemble_bonus_ms": ms("models.ensemble_bonus"),
        "models.buffer_transitions": (tag_sum("envs.rollout")
                                      + tag_sum("models.bootstrap_buffers")),
        "models.fit_knr_model_ms": ms("models.fit_knr_model"),
        "models.fit_knr_model_last_ms": _mean(knr_last, 1e3),
        "discriminators.tv_best_response_us":
            us("discriminators.tv_best_response"),
        "discriminators.tv_best_response_calls":
            calls("discriminators.tv_best_response"),
        "discriminators.mmd_update_us": us("discriminators.mmd_update"),
        "mab.run_bandit_ms": ms("mab.run_bandit"),
        "mab.runs": calls("mab.run_bandit"),
        "mab.pulls_per_s": (sum(bandit["tag"]) / sum(bandit["dur"])
                            if bandit["dur"] else 0.0),
        "mab.curve_ms": ms("mab.curve"),
        "mab.slope_ms": ms("mab.slope"),
        "cli.csv_write_ms": ms("cli.csv_write"),
        "cli.csv_rows": tag_sum("cli.csv_write"),
        "trace.accounted_pct": 100.0 * sum(self_times(spans)) / wall,
        "trace.spans": len(spans),
    }


def setup_metrics(spans: list) -> dict:
    g = _by_name(spans)
    return {name + "_ms": _mean(g.get(name, {"dur": []})["dur"], 1e3)
            for name in ("worlds.build", "expert.solve", "expert.sample")}
