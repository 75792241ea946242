"""Output checks that can see a wrong amplitude at any magnitude.

The CLI's own ``verify --tolerance`` is absolute (1e-9), which is blind on
graphs whose amplitudes are 1e-12 or smaller.  These checks are relative:

* engines agree relative to the largest |amplitude| of the trial;
* an exact zero is wrong (for random angles the amplitude is non-zero with
  probability 1);
* printed ``project`` output carries 10 significant digits, so it is compared
  with a reference to that precision, in decimal arithmetic that does not
  underflow;
* an MBQC pattern's simulated action must align with its declared matrix up
  to one scalar (the least-squares residual of acceptance criterion 10).

Everything here is pure and runs outside the timed region.
"""

from __future__ import annotations

import csv
import io
import math
from decimal import Decimal, InvalidOperation, localcontext
from typing import Sequence

import numpy as np

# Engines on one graph agree to ~1e-13 relative; printed output carries 10
# significant digits (at most 5e-10 relative error per component).
REL_TOL = 1e-9


def amplitudes_agree(values: Sequence[complex]) -> bool:
    """At least two values, none exactly zero, all within REL_TOL of the largest."""
    if len(values) < 2 or any(v == 0 for v in values):
        return False
    if not all(math.isfinite(v.real) and math.isfinite(v.imag) for v in values):
        return False
    limit = REL_TOL * max(abs(v) for v in values)
    return all(abs(a - b) <= limit for i, a in enumerate(values) for b in values[i + 1 :])


def verify_csv_ok(text: str) -> bool:
    """Every trial row of ``verify`` CSV output passes ``amplitudes_agree``."""
    try:
        rows = list(csv.DictReader(io.StringIO(text)))
        if not rows:
            return False
        for row in rows:
            engines = [k[: -len("_re")] for k in row if k.endswith("_re")]
            values = [complex(float(row[e + "_re"]), float(row[e + "_im"])) for e in engines]
            if not amplitudes_agree(values):
                return False
    except (KeyError, TypeError, ValueError):
        return False
    return True


def printed_matches(text: str, mantissa: complex, log2_scale: int = 0) -> bool:
    """Printed ``re im`` equals mantissa * 2**log2_scale to REL_TOL.

    Parsed as decimals, so a value far below the double range (as the
    reference for ``line:4096`` is) compares without underflowing.  An exact
    zero never matches, since the reference is never zero.
    """
    fields = text.split()
    if len(fields) != 2 or mantissa == 0:
        return False
    with localcontext() as ctx:
        ctx.prec = 40
        try:
            re, im = (Decimal(f) for f in fields)
        except InvalidOperation:
            return False
        if not (re.is_finite() and im.is_finite()) or (re == 0 and im == 0):
            return False
        scale = Decimal(2) ** log2_scale
        ref_re = Decimal(mantissa.real) * scale
        ref_im = Decimal(mantissa.imag) * scale
        err2 = (re - ref_re) ** 2 + (im - ref_im) ** 2
        return err2 <= Decimal(REL_TOL) ** 2 * (ref_re**2 + ref_im**2)


def line_reference(c: np.ndarray, s: np.ndarray) -> tuple[complex, int]:
    """Line-graph projection amplitude as (mantissa, log2 scale).

    Straight from the definition, 2^(-N/2) sum_x prod_p b_p(x_p) *
    prod_p (-1)^(x_p x_{p+1}) with b(0) = C, b(1) = S: a two-entry transfer
    vector over the last qubit's bit, renormalized every step so that it
    never underflows.  Independent of the factorized trace.
    """
    n = len(c)
    v0, v1 = complex(c[0]), complex(s[0])
    scale = 0
    for p in range(1, n):
        v0, v1 = (v0 + v1) * complex(c[p]), (v0 - v1) * complex(s[p])
        top = max(abs(v0), abs(v1))
        if top == 0:
            return 0j, 0
        shift = math.frexp(top)[1]
        v0, v1 = math.ldexp(1.0, -shift) * v0, math.ldexp(1.0, -shift) * v1
        scale += shift
    mantissa = v0 + v1
    if n % 2:
        mantissa *= math.sqrt(0.5)
    return mantissa, scale - n // 2


def align_residual(measured: np.ndarray, target: np.ndarray) -> tuple[float, complex]:
    """(residual, scalar): least-squares scalar s minimizing ||measured - s*target||."""
    s = np.vdot(target, measured) / np.vdot(target, target)
    return float(np.linalg.norm(measured - s * target)), complex(s)


def pattern_action_ok(action: np.ndarray, semantics: np.ndarray) -> bool:
    """Simulated action equals the declared gate up to one non-zero scalar."""
    residual, scalar = align_residual(action, semantics)
    return residual <= REL_TOL * float(np.linalg.norm(action)) and abs(scalar) > 1e-12


def pattern_tie_back(action: np.ndarray, measurements: dict) -> complex:
    """Amplitude ``project`` must print for a compiled pattern's files.

    ``compile`` writes every measured qubit's angle and projects outputs on
    <+|; inputs start in |+>.  The simulated scalar is <+|^out A |+>^in,
    and the factorized amplitude equals it times exp(+i * sum of the
    measurement angles).
    """
    dim_out, dim_in = action.shape
    simulated = complex(
        np.full(dim_out, dim_out**-0.5) @ action @ np.full(dim_in, dim_in**-0.5)
    )
    return simulated * complex(np.exp(1j * sum(measurements.values())))
