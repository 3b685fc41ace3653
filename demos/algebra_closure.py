"""Commutator closure and nested-commutator expansions, checked numerically.

[H, (a†)^n (a†a)^m] closes onto the same operator plus one with m raised by
one; iterating j times gives a binomial combination of higher-m operators.
Both statements are verified here against brute-force matrix commutators on
a truncated number-state basis.
"""

import numpy as np

from qdosc import (
    Anharmonic,
    LambdaIndex,
    QOsc,
    build_hamiltonian,
    build_lambda,
    closure_coeffs,
    commutator,
    expansion_matrix,
    multicommutator_expansion,
)
from qdosc.verify import interior_rel_error

D = 32

for params in (QOsc(q=1.2), Anharmonic(omega1=10.0, omega2=1.0)):
    print(f"model: {params}")
    H = build_hamiltonian(params, D)
    for n in (1, 2):
        cc = closure_coeffs(params, n)
        lam = build_lambda(params, LambdaIndex(n, 0), D)
        lam_up = build_lambda(params, LambdaIndex(n, 1), D)
        lhs = commutator(H, lam).matrix
        rhs = cc.c_same * lam.matrix + cc.c_up * lam_up.matrix
        resid = interior_rel_error(lhs, rhs, D - 2 - n)
        print(f"  n = {n}: c_same = {cc.c_same:.4f}, c_up = {cc.c_up:.4f}, "
              f"closure residual {resid:.2e}")

    n, m, j = 2, 0, 4
    terms = multicommutator_expansion(params, n, m, j)
    ref = build_lambda(params, LambdaIndex(n, m), D)
    for _ in range(j):
        ref = commutator(H, ref)
    got = expansion_matrix(params, n, m, j, D)
    resid = interior_rel_error(ref.matrix, got.matrix, D - 1 - n)
    print(f"  depth-{j} expansion of index ({n},{m}) has {len(terms)} terms, "
          f"residual vs iterated commutator {resid:.2e}")
    for k, coeff in terms:
        print(f"    weight of raised index ({n},{m + k}): {coeff.real:.6g}")
    print()
