"""The four pinned workloads, their seed jitter and their correctness references.

Seed 0 gives the pinned configs.  Any other seed jitters the continuous
inputs (``h_list``, ``eps_list``, the ``arctan_step`` h, the singular
amplitude) by at most ``JITTER`` relative, and keeps the work sizes
(``grid_n``, ``N_list``, the number of rho decades) fixed.  The program
only ever sees the config files rendered from the templates in
``configs/``; each template says why its workload was chosen.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent / "configs"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

JITTER = 0.02
SINGULAR_SIGMAS = (0.5, 1.0, 2.0)
# one singular-quad run is the three sigmas repeated this many times, so a
# sample measures about 1.5 s of quadrature rather than its process start-up
SINGULAR_REPEATS = 5

# Seed-0 fitted values, amplitude 1 for the singular probe: (I0, Iv).
_SINGULAR_REF = {
    0.5: (21.102684099283337, 27.237948145352462),
    1.0: (22.529709760598703, 34.724110296535358),
    2.0: (24.017574376733595, 44.595618837975337),
}


@dataclass(frozen=True)
class Check:
    """A fitted value that must stay within ``rel_tol`` of ``reference``."""

    key: str
    reference: float
    rel_tol: float

    def deviation(self, value: float) -> float:
        return abs(value - self.reference) / abs(self.reference)


@dataclass(frozen=True)
class Invocation:
    """One CLI call of a workload: ``modnls <subcommand> --config <name>.cfg``.

    Every invocation is expected to exit 0 with a passing verdict.
    ``reference`` names the seed-0 ``report.csv`` in ``reference/``.
    """

    name: str
    subcommand: str
    config_text: str
    checks: tuple
    reference: str


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _template(workload: str, **values) -> str:
    return (CONFIG_DIR / f"{workload}.cfg").read_text().format(**values)


def _jitter(rng: random.Random, seed: int) -> float:
    return 1.0 if seed == 0 else 1.0 + rng.uniform(-JITTER, JITTER)


def _strichartz(rng, seed):
    arctan_h = _jitter(rng, seed)
    return [Invocation(
        "strichartz", "strichartz",
        _template("strichartz-probe", arctan_h=_fmt(arctan_h)),
        (Check("khat", 0.25534029970782313, 0.01),
         # the Laplacian contrast does not depend on the jittered h
         Check("khat_contrast", 0.01905584475096931, 1e-9)),
        "strichartz",
    )]


def _inflate(rng, seed):
    arctan_h = _jitter(rng, seed)
    hs = [math.exp(-k) * _jitter(rng, seed) for k in (2, 3, 4)]
    return [Invocation(
        "inflate", "inflate",
        _template("inflate-long", arctan_h=_fmt(arctan_h),
                  h_list=", ".join(_fmt(h) for h in hs)),
        (Check("ratio_growth", 3.4300557033160453, 0.03),),
        "inflate",
    )]


def _ode_approx(rng, seed):
    eps = [e * _jitter(rng, seed) for e in (1e-1, 3e-2, 1e-2, 3e-3)]
    return [Invocation(
        "ode-approx", "ode-approx",
        _template("ode-approx-2d", eps_list=", ".join(_fmt(e) for e in eps)),
        (Check("error_ratio", 2.4752199457821102e-05, 0.1),),
        "ode-approx",
    )]


def _singular(rng, seed):
    amplitude = _jitter(rng, seed)
    a2 = amplitude**2
    out = []
    for rep in range(1, SINGULAR_REPEATS + 1):
        for sigma in SINGULAR_SIGMAS:
            i0, iv = _SINGULAR_REF[sigma]
            out.append(Invocation(
                f"singular-sigma{sigma:g}-rep{rep}", "singular",
                _template("singular-quad", sigma=_fmt(sigma), amplitude=_fmt(amplitude)),
                # exact in the amplitude a: I0 ~ a^2, and the evolved excess
                # Iv - I0 ~ a^(2 + 4 sigma)
                (Check("i0_total", a2 * i0, 1e-9),
                 Check("iv_total", a2 * i0 + amplitude ** (2 + 4 * sigma) * (iv - i0), 1e-9)),
                f"singular-sigma{sigma:g}",
            ))
    return out


_GENERATORS = {
    "strichartz-probe": _strichartz,
    "inflate-long": _inflate,
    "ode-approx-2d": _ode_approx,
    "singular-quad": _singular,
}

WORKLOADS = tuple(_GENERATORS)


def invocations(workload: str, seed: int) -> list:
    """The CLI calls that make up one run of ``workload`` at ``seed``."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"), seed)
