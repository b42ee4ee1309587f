"""The closed-form basis at given points, for tests: the evaluator the
solver itself uses for each piece's Wronskian at its left end."""

import numpy as np

from obstacle_bvp.basis import basis_values


def basis_derivatives(fns, x, orders):
    """Entry [..., j] is fns[j]^(orders[j]) at x[..., j]: basis_values with
    each function paired with its entry of x.  The last axis of x matches
    fns; orders is one int or one per function."""
    return basis_values(fns, np.asarray(x, dtype=float), np.broadcast_to(orders, (len(fns),)))
