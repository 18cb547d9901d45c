"""Out-of-program tracer: wraps module functions, records spans and counts.

Every wrapped call appends one span ``(name, start, end, parent)`` to an
in-memory list; ``parent`` is the index of the innermost wrapped call that
was running, or -1.  Names bound by ``from .x import y`` are wrapped where
they are looked up (``modnls.experiments.evolve``), library kernels and
methods on their owner (``numpy.fft.fftn``, ``Field.__post_init__``).
Nothing inside ``src/`` is changed; :meth:`Tracer.restore` puts every
original back and reports any attribute that is not the original again.
"""

from __future__ import annotations

import math
import time
from collections import Counter, defaultdict

FFT = "numpy.fft"
EVOLVE = "evolution.evolve"
LATTICE_BUILD = "symbols.lattice_build"
ON_GRID = "symbols.on_grid"


def _strang_steps(cfg) -> int:
    # the step rule of modnls.evolution.evolve: whole steps of dt, plus a
    # shortened last step when T is not a multiple of dt
    if not cfg.T > 0:
        return 0
    n_full = int(math.floor(cfg.T / cfg.dt + 1e-9))
    return n_full + (cfg.T - n_full * cfg.dt > 1e-12 * cfg.dt)


class Tracer:
    """Wraps callables, keeps spans in memory, and aggregates them per layer."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.missing: list = []
        self._stack: list = []
        self._patched: list = []

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper named ``name``.

        ``after(tracer, span_index, args, kwargs, result)`` runs once the
        call has returned, outside the timed span.
        """
        original = vars(owner).get(attr)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((name, 0.0, 0.0, parent))  # completed when the call returns
            stack.append(idx)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if after is not None:
                after(self, idx, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> list:
        """Put every original back; return the attributes left wrapped."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        left = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self._patched
                if vars(o).get(a) is not orig]
        self._patched.clear()
        return left

    def parent_name(self, idx: int) -> str | None:
        parent = self.spans[idx][3]
        return self.spans[parent][0] if parent >= 0 else None

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds (minus direct children)."""
        calls, total, child = Counter(), defaultdict(float), defaultdict(float)
        fft_under = Counter()
        for name, start, end, parent in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                pname = self.spans[parent][0]
                child[pname] += end - start
                if name.startswith(FFT):
                    fft_under[pname] += 1
        return {
            "calls": dict(calls),
            "s": dict(total),
            "self_s": {k: total[k] - child[k] for k in total},
            "fft_calls_under": dict(fft_under),
            "counts": dict(self.counts),
        }


def _after_fft(tracer, idx, args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
    shape = getattr(a, "shape", ())
    size = math.prod(shape)
    points = math.prod(shape[ax] for ax in axes) if axes is not None else size
    c = tracer.counts
    c["fft_elements"] += size
    # 5 n log2 n flops per complex transform of n points, size/n transforms
    c["fft_flops_computed"] += 5 * size * math.log2(points) if points > 1 else 0
    # one complex128 read and one written per element
    c["fft_bytes_computed"] += 2 * 16 * size


def _after_field(tracer, idx, args, kwargs, result):
    tracer.counts["field_bytes_copied"] += args[0].values.nbytes


def _after_lattice_build(tracer, idx, args, kwargs, result):
    # a rescaled symbol calls its base symbol; count the outermost call only
    if tracer.parent_name(idx) != LATTICE_BUILD:
        tracer.counts["lattice_builds"] += 1


def _after_on_grid(tracer, idx, args, kwargs, result):
    built = any(s[0] == LATTICE_BUILD and s[3] == idx for s in tracer.spans[idx + 1:])
    tracer.counts["on_grid_hits"] += not built


def _after_evolve(tracer, idx, args, kwargs, result):
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    tracer.counts["strang_steps"] += _strang_steps(cfg)


def _after_probe(tracer, idx, args, kwargs, result):
    tracer.counts["probe_time_samples"] += sum(int(r["time_samples"]) for r in result.rows)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every modnls layer the benchmark reports."""
    import numpy.fft

    import modnls.cli as cli
    import modnls.evolution as evolution
    import modnls.experiments as experiments
    import modnls.singular as singular
    from modnls.spectral import Field
    from modnls.symbols import Symbol

    tracer.wrap(numpy.fft, "fftn", f"{FFT}.fftn", _after_fft)
    tracer.wrap(numpy.fft, "ifftn", f"{FFT}.ifftn", _after_fft)
    tracer.wrap(Field, "__post_init__", "spectral.Field", _after_field)
    tracer.wrap(Symbol, "__call__", LATTICE_BUILD, _after_lattice_build)
    tracer.wrap(Symbol, "on_grid", ON_GRID, _after_on_grid)

    tracer.wrap(cli, "parse_config", "config.parse_config")
    tracer.wrap(cli, "write_report", "reports.write_report")
    tracer.wrap(cli, "run_strichartz_probe", "experiments.run_strichartz_probe", _after_probe)
    tracer.wrap(cli, "run_norm_inflation", "experiments.run_norm_inflation")
    tracer.wrap(cli, "run_ode_approx", "experiments.run_ode_approx")
    tracer.wrap(cli, "run_singular_probe", "singular.run_singular_probe")

    tracer.wrap(experiments, "evolve", EVOLVE, _after_evolve)
    tracer.wrap(experiments, "sobolev_norm", "spectral.sobolev_norm")
    tracer.wrap(experiments, "ode_phase_profile", "experiments.ode_phase_profile")
    tracer.wrap(evolution, "spectral_tail_mass", "spectral.spectral_tail_mass")

    tracer.wrap(singular, "quad", "singular.quad")
    tracer.wrap(singular, "log_singular_profile", "singular.log_singular_profile")
