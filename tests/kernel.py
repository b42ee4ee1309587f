"""The closed-form kernel at given points, for tests: the composition of
its halves that the solver itself runs in array passes."""

import numpy as np

from obstacle_bvp.basis import basis_terms, eval_terms, take_terms


def basis_derivatives(fns, x, orders):
    """Entry [..., j] is fns[j]^(orders[j]) at x[..., j]: eval_terms of a
    take_terms table of basis_terms(fns, max order), each function paired
    with its entry of x.  The last axis of x matches fns; orders is one int
    or one per function."""
    orders = np.broadcast_to(orders, (len(fns),))
    x = np.asarray(x, dtype=float)
    entries = (1,) * (x.ndim - 1) + (len(fns),)
    terms = take_terms(basis_terms(fns, int(orders.max())), orders.reshape(entries),
                       np.arange(len(fns)).reshape(entries))
    return eval_terms(terms, x, [0])[0]
