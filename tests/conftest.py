import math

import numpy as np
import pytest

from pwlcycles import (
    Boundary,
    PWLSystem,
    SystemParams,
    make_cosine,
    make_oscillatory,
    make_sine,
    make_table,
    make_zero,
)

GAMMA_SINE = 0.75
GAMMA_COSINE = 0.4
ALPHA_OSC = 0.3

EXP_MINUS_GAMMA_PI = math.exp(-GAMMA_SINE * math.pi)  # 0.09478022484215486


def sign_safe_grid(lo, hi, n, roots, guard):
    """Evaluation grid that keeps a guard distance from zeros of h.

    The displacement scales as h(y)^3 near a zero, so points with
    |h| ~ 1e-5*y produce |f| below the cancellation floor of double
    precision; nudging such points to the guard distance keeps every
    sampled sign resolvable while still probing arbitrarily many points.
    """
    ys = np.linspace(lo, hi, n)
    for r in roots:
        near = np.abs(ys - r) < guard
        ys[near] = np.where(ys[near] < r, r - guard, r + guard)
    return ys


def sine_table_samples(gamma, n):
    """The sine boundary as (y, h, h') samples, four per unit, exact zeros at 1..n."""
    amp, slope = 2 * gamma / ((gamma * gamma + 1) * math.pi), 2 * gamma / (gamma * gamma + 1)
    return [[i / 4, 0.0 if i % 4 == 0 else amp * math.sin(math.pi * i / 4),
             slope * math.cos(math.pi * i / 4)] for i in range(4 * n + 3)]


def kernel_system(family: str, gamma: float, n: int, alpha: float, cone: float) -> PWLSystem:
    """A system of ``family``, the rate clipped into its certified range; "cone" is
    h = cone*y/gamma, |h| within a factor ``cone`` of the amplitude bound y/gamma."""
    if family == "cone":
        return PWLSystem(SystemParams(gamma), Boundary(evaluate=lambda y: cone * y / gamma,
                                                       derivative=lambda y: cone / gamma))
    if family == "oscillatory":
        return PWLSystem(SystemParams(1.0), make_oscillatory(alpha))
    params = SystemParams(min(gamma, 0.47))
    boundary = {"sine": lambda: make_sine(params, n),
                "cosine": lambda: make_cosine(params, n),
                "table": lambda: make_table(sine_table_samples(params.gamma, n))}[family]()
    return PWLSystem(params, boundary)


@pytest.fixture(scope="session")
def params075():
    return SystemParams(GAMMA_SINE)


@pytest.fixture(scope="session")
def zero_system(params075):
    return PWLSystem(params075, make_zero())


@pytest.fixture(scope="session")
def sine_system(params075):
    return PWLSystem(params075, make_sine(params075, 2))


@pytest.fixture(scope="session")
def cosine_system():
    params = SystemParams(GAMMA_COSINE)
    return PWLSystem(params, make_cosine(params, 2))


@pytest.fixture(scope="session")
def oscillatory_system():
    return PWLSystem(SystemParams(1.0), make_oscillatory(ALPHA_OSC))
