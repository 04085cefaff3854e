"""Independent KL solver: for each w, solve the triangular bar-invariance
system p_z - bar(p_z) = g_z directly, using only bar expansions of the
T-basis.  No descent products, no correction loop: a genuinely different
route to the same basis."""

from hecke_reference import bar, equal, t_basis, zero_coeff
from klcells.hecke import HeckeAlgebra


def brute_kl_expansions(algebra: HeckeAlgebra):
    group = algebra.group
    n = len(group)
    bar_t = [bar(algebra, t_basis(algebra, w)) for w in range(n)]

    expansions = []
    for w in range(n):
        shorter = [z for z in range(n) if group.length(z) < group.length(w)]
        shorter.sort(key=lambda z: (-group.length(z), z))
        p = {}
        for z in shorter:
            g = bar_t[w].get(z, zero_coeff(algebra))
            for y, py in p.items():
                if group.length(y) > group.length(z):
                    r = bar_t[y].get(z)
                    if r is not None:
                        g = g + py.bar() * r
            neg, const, pos = g.split_by_sign()
            assert const == 0, (w, z, g.render())
            assert pos == -(neg.bar()), (w, z, g.render())
            if neg:
                p[z] = neg
        expansion = {w: algebra.one_coeff()}
        expansion.update(p)
        # Full verification: the candidate really is bar-invariant.
        assert equal(bar(algebra, expansion), expansion)
        expansions.append(expansion)
    return expansions
