"""Cup product, total composition and the coboundary.

Fix a degree-2 element mu. It induces a product (cup), a bracket, and a
coboundary delta on the whole graded module. When mu is associative the
coboundary squares to zero and the classical cohomology operations drop out.
"""
import numpy as np

from preoperad import (
    CoefficientRing,
    EndoBackend,
    GradedElement,
    PreOperadContext,
    bracket,
    bullet,
    componentwise_product,
    cup,
    delta,
    dev_braces,
    ksign,
)

F97 = CoefficientRing.prime_field(97)


def main():
    backend = EndoBackend(F97, 2)
    rng = np.random.default_rng(3)
    ctx = PreOperadContext(backend, backend.random(2, rng))
    f = backend.random(2, rng)
    g = backend.random(3, rng)

    fg = cup(ctx, f, g)
    print(f"cup(f, g) has degree {fg.degree} (= {f.degree} + {g.degree})")

    # cup against the unit recovers single compositions with mu
    unit = ctx.unit
    assert ctx.mu.compose(f, 0) == ksign(f.degree) * cup(ctx, f, unit)
    assert ctx.mu.compose(f, 1) == -cup(ctx, unit, f)
    print("cup(f, I) and cup(I, f) recover mu comp f up to sign")

    # bullet sums all single insertions; bracket is its commutator
    bf = bullet(f, g)
    print(f"bullet(f, g) has degree {bf.degree} "
          f"(= {f.degree} + {g.degree} - 1)")
    assert bracket(f, g) == bf - ksign(f.shifted_degree * g.shifted_degree
                                       ) * bullet(g, f)
    assert bracket(f, ctx.mu) == -delta(ctx, f)
    print("bracket against mu is minus the coboundary")

    # delta fails to square to zero exactly as much as mu fails to associate
    ddf = delta(ctx, delta(ctx, f))
    print(f"random mu: delta(delta(f)) zero? {ddf.is_zero()}")

    assoc = PreOperadContext(backend, GradedElement(
        backend, componentwise_product(F97, backend.dim)))
    assert bullet(assoc.mu, assoc.mu).is_zero()
    for degree in (1, 2, 3, 4):
        x = backend.random(degree, rng)
        assert delta(assoc, delta(assoc, x)).is_zero()
    print("componentwise mu: bullet(mu, mu) = 0 and delta squares to zero")

    # the coboundary deviation of bullet, the one-input brace f{g},
    # measures cup commutativity
    dev = ksign(g.shifted_degree) * dev_braces(ctx, f, g)
    comm = cup(ctx, f, g) - ksign(f.degree * g.degree) * cup(ctx, g, f)
    assert dev == comm
    print("dev bullet(f, g) equals the cup commutator defect")


if __name__ == "__main__":
    main()
