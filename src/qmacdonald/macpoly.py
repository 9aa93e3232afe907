"""Macdonald symmetric polynomials.

Exact terminating two-variable cases from the hypergeometric series, a
general-n triangular eigenvector construction over the monomial symmetric
basis (one pass of the exact D^1 action builds its whole matrix), and the
degeneration cross-check against terminating series solutions.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import DomainError, ResonanceError
from .hcseries import solve_coefficients
from .operators import (LaurentPoly, SpectralData, _action, _symmetrize,
                        dominance_ideal, eigenvalue_c)
from .qcore import QParams, _cpow

_EIGEN_COLLISION_TOL = 1e-10


def _integer(x, what: str) -> int:
    """x as an int; DomainError unless it is a Python or NumPy integer."""
    try:
        return operator.index(x)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {x!r}") from None


def as_partition(parts, n: int) -> tuple[int, ...]:
    """Validate and pad a weakly decreasing nonnegative integer vector."""
    parts = tuple(_integer(x, "a partition part") for x in parts)
    if len(parts) > n:
        raise DomainError(f"partition has more than {n} parts")
    if any(x < 0 for x in parts):
        raise DomainError("partition parts must be nonnegative")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise DomainError("partition parts must be weakly decreasing")
    return parts + (0,) * (n - len(parts))


def macdonald_a1(m: int, p: QParams) -> LaurentPoly:
    """The two-variable Macdonald polynomial of degree m.

    Expands z2^m F_q(k, -m, -m-k+1, (q/t) z1/z2) into monomials
    z1^j z2^(m-j); the series terminates after m+1 terms and the result
    is a symmetric polynomial.
    """
    m = _integer(m, "the degree m")
    if m < 0:
        raise DomainError(f"m must be nonnegative, got {m}")
    q, t, k = p.q, p.t, p.k
    arg = q / t  # q^(1-k)
    out = LaurentPoly(2)
    term = complex(1.0)
    out[(0, m)] = term
    for j in range(m):
        # a_{j+1}/a_j for F_q(k, -m, -m-k+1, .) times the argument
        num = (1.0 - q ** (k + j)) * (1.0 - _cpow(q, -m + j))
        den = (1.0 - q ** (1 + j)) * (1.0 - _cpow(q, 1.0 - m - k + j))
        term *= num / den * arg
        out[(j + 1, m - j - 1)] = out[(j + 1, m - j - 1)] + term
    return out


def macdonald_poly(lam, n: int, p: QParams) -> LaurentPoly:
    """The Macdonald polynomial P_lam in n variables.

    The eigenvector P = m_lam + sum_{mu < lam} c_mu m_mu of the matrix of
    D^1 on the dominance ideal of lam, which is triangular; one pass of the
    exact action over one-hot columns builds that whole matrix.
    """
    lam = as_partition(lam, n)
    basis = sorted(dominance_ideal(lam), reverse=True)
    if basis[0] != lam:
        raise DomainError("internal ordering error in the dominance ideal")
    dim = len(basis)
    # A[i][j] = coefficient of m_{basis[i]} in D^1 m_{basis[j]}
    A = list(_action(dict(zip(basis, np.eye(dim))), 1, p).values())
    gamma = tuple(reversed(lam))  # weakly increasing exponents
    e = eigenvalue_c(gamma, 1, p)
    coeffs = [complex(1.0)] + [complex(0.0)] * (dim - 1)
    for i in range(1, dim):
        div = e - A[i][i]
        if abs(div) < _EIGEN_COLLISION_TOL * max(1.0, abs(e)):
            raise ResonanceError(
                f"eigenvalue collision between {lam} and {basis[i]}")
        coeffs[i] = sum(A[i][j] * coeffs[j] for j in range(i)) / div
    return _symmetrize(n, dict(zip(basis, coeffs)))


def degeneration_check(m: int, p: QParams) -> float:
    """Max coefficient deviation between the terminating series solution
    and macdonald_a1(m).

    The spectral point lambda = (-(m+k)/2, (m+k)/2) terminates the
    two-variable series after degree m; stripping the monomial prefactor
    turns z2^m (z1/z2)^j into z1^j z2^(m-j).
    """
    m = _integer(m, "the degree m")
    if m < 0:
        raise DomainError(f"m must be nonnegative, got {m}")
    k = p.k
    lam = (-(m + k) / 2.0, (m + k) / 2.0)
    s = SpectralData.make(lam, p)
    sol = solve_coefficients(s, p, N=m)
    poly = LaurentPoly(2)
    for j, a in enumerate(sol.coeffs):  # position j holds p = (j,) at n = 2
        poly[(j, m - j)] = a
    return poly.max_abs_diff(macdonald_a1(m, p))
