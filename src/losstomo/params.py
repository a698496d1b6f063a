"""The three parameter systems for link loss and the maps between them.

theta:  per-link loss rate, the probability a probe dies on the link given
        it reached the link's parent node.
xi:     per-link subtree loss rate, the probability a probe entering the
        subtree rooted at the link reaches none of its receivers.
psi:    natural parameters of the exponential-family form of the
        likelihood; for an internal link this is the log probability that
        the probe passed the link given the whole subtree went dark.

Every map takes and returns a plain {link_id: value} dict, the form
sample_theta draws, in one pass over the links, no iteration.  theta_to_xi
and xi_to_theta are mutually inverse on the interior domain; xi_to_psi and
psi_to_xi likewise.
Beside the two leaf-to-root recursions (xi_by_position, psi_to_xi), every
reader of pi_i, the product of link i's children's xi, takes it from
pi_by_position, on lists over net.order.  pi_rows, theta_rows and xi_rows
are pi_by_position, theta_by_position and xi_by_position on (datasets x
positions) arrays, with nan for None, over a structure's PaddedForm: every
product keeps the scalar loop's order, and padding multiplies by 1.0.

None marks a link the data say nothing about.  theta_to_xi and xi_to_theta
pass it through: a link whose theta is None, or one of whose children has a
None xi, gets a None xi; a None xi gives a None theta, and a link with a
None child gets theta 1.0, because an estimator pins that link's xi at 1.
"""

from __future__ import annotations

import math
from itertools import compress

import numpy as np

from .topology import GeneralNetwork, PaddedForm, token_lines

XI_BOUNDARY_TOL = 1e-12


def xi_by_position(theta: list[float | None], child_pos: tuple[tuple[int, ...], ...]
                   ) -> list[float | None]:
    """theta_to_xi on lists over net.order, given child_pos = net.child_pos.

    Leaf-to-root: a leaf's xi is its theta, any other link's is theta +
    (1 - theta) * (the product of its children's xi), or None if any is None.
    """
    xi = list(theta)
    for q in compress(range(len(xi) - 1, -1, -1), reversed(child_pos)):
        th = theta[q]
        try:
            prod = 1.0
            for c in child_pos[q]:
                prod *= xi[c]
            xi[q] = th + (1.0 - th) * prod
        except TypeError:   # a None theta or child xi
            xi[q] = None
    return xi


def theta_to_xi(theta: dict[int, float | None], net: GeneralNetwork
                ) -> dict[int, float | None]:
    """Subtree loss rates from link loss rates (leaf-to-root recursion)."""
    xi = xi_by_position([theta[i] for i in net.order], net.child_pos)
    return {net.order[q]: xi[q] for q in net.id_pos}


def pi_by_position(xi: list[float | None], child_pos: tuple[tuple[int, ...], ...]
                   ) -> list[float | None]:
    """Per position, pi: the product of the children's xi, taken in ascending
    child id; 0.0 at a leaf, None when some child's xi is None.

    The leaf convention matches the model: a probe that reaches a receiver
    node is observed there with certainty.
    """
    pi: list[float | None] = []
    for kids in child_pos:
        prod = 1.0 if kids else 0.0
        try:
            for c in kids:
                prod *= xi[c]
        except TypeError:   # a None child xi
            prod = None
        pi.append(prod)
    return pi


def theta_by_position(xi: list[float | None], child_pos: tuple[tuple[int, ...], ...]
                      ) -> list[float | None]:
    """xi_to_theta on lists over net.order, given child_pos = net.child_pos."""
    theta: list[float | None] = []
    for v, prod in zip(xi, pi_by_position(xi, child_pos)):
        if v is None:
            theta.append(None)
        elif prod is None:
            # children carry no information, so xi here was pinned at 1
            theta.append(1.0)
        elif prod >= 1.0:
            theta.append(1.0 if v >= 1.0 else -math.inf)
        else:
            theta.append((v - prod) / (1.0 - prod))
    return theta


def _with_ones(rows: np.ndarray) -> np.ndarray:
    """rows with PaddedForm's padding column of 1.0 after its last position."""
    return np.concatenate([rows, np.ones((len(rows), 1))], axis=1)


def pi_rows(xi: np.ndarray, form: PaddedForm) -> np.ndarray:
    """pi_by_position on each row of xi, nan for None."""
    xi = _with_ones(xi)
    prod = form.seed
    for k in form.kids:
        prod = prod * xi[:, k]
    return np.broadcast_to(prod, (len(xi), len(form.seed)))


def theta_rows(xi: np.ndarray, form: PaddedForm) -> np.ndarray:
    """theta_by_position on each row of xi, nan for None both ways."""
    prod = pi_rows(xi, form)
    with np.errstate(divide="ignore", invalid="ignore"):
        theta = np.where(prod >= 1.0, np.where(xi >= 1.0, 1.0, -math.inf),
                         (xi - prod) / (1.0 - prod))
    return np.where(np.isnan(xi), math.nan, np.where(np.isnan(prod), 1.0, theta))


def xi_rows(theta: np.ndarray, form: PaddedForm) -> np.ndarray:
    """xi_by_position on each row of theta, nan for None both ways, with the
    padding column of 1.0 left on: one level of form.rises at a time."""
    xi = _with_ones(theta)
    for at, kids in form.rises:
        prod = 1.0
        for k in kids:
            prod = prod * xi[:, k]
        th = xi[:, at]
        xi[:, at] = th + (1.0 - th) * prod
    return xi


def xi_to_theta(xi: dict[int, float | None], net: GeneralNetwork
                ) -> dict[int, float | None]:
    """Link loss rates from subtree loss rates.

    Exact inverse of theta_to_xi on the interior domain.  Values outside it
    are mapped raw: a link whose xi does not exceed its children's product
    comes back <= 0 (or -inf when the product reaches 1), so callers can
    detect and project.  Use xi_membership to classify.
    """
    theta = theta_by_position([xi[i] for i in net.order], net.child_pos)
    return {net.order[q]: theta[q] for q in net.id_pos}


def xi_to_psi(xi: dict[int, float], net: GeneralNetwork) -> dict[int, float]:
    """Natural parameters from subtree loss rates.

    Leaf links: log((1 - xi) / xi).  Internal links: log of the conditional
    pass probability (xi - theta)/xi, computed in the algebraically
    equivalent form pi*(1 - xi) / (xi*(1 - pi)) with pi the child product,
    which avoids cancellation for small rates.
    """
    values = [xi[i] for i in net.order]
    pi = pi_by_position(values, net.child_pos)
    psi: dict[int, float] = {}
    for q in net.id_pos:
        i, v, prod = net.order[q], values[q], pi[q]
        if not 0.0 < v < 1.0:
            raise ValueError(f"xi[{i}]={v} outside (0,1); psi undefined")
        if not net.child_pos[q]:
            psi[i] = math.log((1.0 - v) / v)
        else:
            arg = prod * (1.0 - v) / (v * (1.0 - prod))
            if not 0.0 < arg < 1.0:
                # xi at or below the child product: the conditional pass
                # probability is not a probability and psi leaves its domain
                raise ValueError(f"xi[{i}]={v} at or below child product {prod}; psi undefined")
            psi[i] = math.log(arg)
    return psi


def psi_to_xi(psi: dict[int, float], net: GeneralNetwork) -> dict[int, float]:
    """Subtree loss rates from natural parameters (leaf-to-root, as xi_by_position)."""
    values = [psi[i] for i in net.order]
    xi = [0.0] * len(values)
    for q in range(len(values) - 1, -1, -1):
        kids = net.child_pos[q]
        if not kids:
            xi[q] = 1.0 / (1.0 + math.exp(values[q]))
        else:
            prod = 1.0
            for c in kids:
                prod *= xi[c]
            xi[q] = prod / (prod + math.exp(values[q]) * (1.0 - prod))
    return {net.order[q]: xi[q] for q in net.id_pos}


def xi_membership(xi: dict[int, float], net: GeneralNetwork) -> dict[int, str]:
    """Classify each link's xi as 'interior', 'boundary' or 'outside'.

    A link is judged by the smaller of 1 - xi_i and xi_i minus pi_i, the
    product of its children's xi (0 at a leaf, so a leaf's xi is measured
    from 0).  A gap within XI_BOUNDARY_TOL of zero is 'boundary'.
    """
    values = [xi[i] for i in net.order]
    pi = pi_by_position(values, net.child_pos)
    out: dict[int, str] = {}
    for q in net.id_pos:
        v = values[q]
        gap = min(v - pi[q], 1.0 - v)
        out[net.order[q]] = ("interior" if gap > XI_BOUNDARY_TOL else
                             "boundary" if gap >= -XI_BOUNDARY_TOL else "outside")
    return out


def parse_rates(text: str) -> tuple[str, dict[int, float]]:
    """Parse a loss-rate file: lines '<kind> <link_id> <value>'.

    kind is 'theta' or 'xi' and must be the same on every line.
    """
    kind = None
    values: dict[int, float] = {}
    for lineno, line, tok in token_lines(enumerate(text.splitlines(), start=1)):
        if len(tok) != 3 or tok[0] not in ("theta", "xi"):
            raise ValueError(f"line {lineno}: expected 'theta|xi <link_id> <value>'")
        if kind is None:
            kind = tok[0]
        elif tok[0] != kind:
            raise ValueError(f"line {lineno}: mixed rate kinds {kind!r} and {tok[0]!r}")
        try:
            link, value = int(tok[1]), float(tok[2])
        except ValueError:
            raise ValueError(f"line {lineno}: malformed number in {line!r}") from None
        if link in values:
            raise ValueError(f"line {lineno}: duplicate link {link}")
        values[link] = value
    if kind is None:
        raise ValueError("rate file is empty")
    return kind, values


def serialize_rates(kind: str, values: dict[int, float]) -> str:
    return "".join(f"{kind} {i} {values[i]!r}\n" for i in sorted(values))
